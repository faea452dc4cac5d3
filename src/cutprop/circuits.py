"""Gate-level circuit representation, slicing, and an OpenQASM 2 subset parser.

Supported gates: h, s, sdg, x, y, z, sx, sxdg, rz(theta), cx, cz, plus an
internal multi-qubit Pauli rotation exp(-i*theta/2 * P). QASM emission
lowers Pauli rotations to {h, s, sdg, rz, cx}, so emitted text always stays
inside the parseable subset.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Iterator, NamedTuple, Sequence

from .paulis import PauliString, letter_masks

CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")
CLIFFORD_2Q = ("cx", "cz")
QASM_GATES = CLIFFORD_1Q + ("rz",) + CLIFFORD_2Q

# Tolerance for recognizing rotation angles that land on multiples of pi/2.
CLIFFORD_ANGLE_TOL = 1e-12


class CircuitError(ValueError):
    pass


class QasmError(CircuitError):
    """Parse failure; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class _GateFields(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    angle: float | None
    axis: str | None


class Gate(_GateFields):
    """One gate application.

    ``axis`` is only set for kind "rot" and holds the Pauli letters aligned
    with ``qubits`` (e.g. axis "XY" on qubits (2, 5) is X on 2, Y on 5).
    For "cx", qubits are (control, target).
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], angle: float | None = None,
                axis: str | None = None):
        self = tuple.__new__(cls, (kind, qubits, angle, axis))
        if kind in CLIFFORD_1Q:
            ok = len(qubits) == 1 and angle is None and axis is None
        elif kind == "rz":
            ok = len(qubits) == 1 and angle is not None and axis is None
        elif kind in CLIFFORD_2Q:
            ok = len(qubits) == 2 and angle is None and axis is None
        elif kind == "rot":
            ok = (
                angle is not None
                and axis is not None
                and len(axis) == len(qubits) >= 1
                and all(ch in "XYZ" for ch in axis)
            )
        else:
            raise CircuitError(f"unknown gate kind {kind!r}")
        if not ok:
            raise CircuitError(f"malformed {kind} gate: {self}")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"repeated qubit in {self}")
        if any(q < 0 for q in qubits):
            raise CircuitError(f"negative qubit index in {self}")
        return self

    def _moved(self, qubits: tuple[int, ...]) -> "Gate":
        """This gate on the images of its qubits under an injective map to wires >= 0, unchecked."""
        return tuple.__new__(Gate, (self.kind, qubits, self.angle, self.axis))

    def is_clifford(self) -> bool:
        if self.kind in CLIFFORD_1Q or self.kind in CLIFFORD_2Q:
            return True
        return _clifford_quarter_turns(self.angle) is not None

    def axis_word(self, n: int) -> PauliString:
        """Rotation axis as a width-n Pauli word ("rz" rotates about Z)."""
        if self.kind not in ("rz", "rot"):
            raise CircuitError(f"{self.kind} gate has no rotation axis")
        return PauliString(n, *letter_masks(self.axis or "Z", self.qubits))


def _clifford_quarter_turns(angle: float) -> int | None:
    """Return k (mod 4) if angle is within tolerance of k*pi/2, else None."""
    k = round(angle / (math.pi / 2))
    if abs(angle - k * (math.pi / 2)) <= CLIFFORD_ANGLE_TOL:
        return k % 4
    return None


class _CircuitFields(NamedTuple):
    n: int
    gates: tuple[Gate, ...]


class Circuit(_CircuitFields):
    __slots__ = ()

    def __new__(cls, n: int, gates: tuple[Gate, ...] = ()):
        for g in gates:
            if max(g.qubits) >= n:
                raise CircuitError(f"gate {g} exceeds width {n}")
        return tuple.__new__(cls, (n, gates))

    def prefix(self, stop: int) -> "Circuit":
        # _replace skips __new__, so the gates, checked once, are not checked again.
        return self._replace(gates=self.gates[:stop])


def _layer_ranges(gates: Sequence[Gate], start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Greedy maximal layers of disjoint-qubit gates within [start, stop)."""
    i = start
    while i < stop:
        used = set(gates[i].qubits)
        j = i + 1
        while j < stop and not used.intersection(gates[j].qubits):
            used.update(gates[j].qubits)
            j += 1
        yield i, j
        i = j


def slice_circuit(circuit: Circuit, policy: str = "auto") -> list[range]:
    """Partition the gate sequence into ordered slices, each a range of gate indices.

    per-gate: one gate per slice.
    per-layer: maximal runs of gates on disjoint qubits.
    auto: per-layer within runs of Clifford gates, per-gate for the rest.
    """
    gates = circuit.gates
    if policy == "per-gate":
        return [range(i, i + 1) for i in range(len(gates))]
    if policy == "per-layer":
        return [range(a, b) for a, b in _layer_ranges(gates, 0, len(gates))]
    if policy != "auto":
        raise CircuitError(f"unknown slicing policy {policy!r}")
    out: list[range] = []
    i = 0
    while i < len(gates):
        if gates[i].is_clifford():
            j = i
            while j < len(gates) and gates[j].is_clifford():
                j += 1
            out.extend(range(a, b) for a, b in _layer_ranges(gates, i, j))
            i = j
        else:
            out.append(range(i, i + 1))
            i += 1
    return out


# --- Pauli-rotation lowering -------------------------------------------------

_PRE = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}
_POST = {"X": ("h",), "Y": ("h", "s"), "Z": ()}


def lower_gate(gate: Gate) -> list[Gate]:
    """Rewrite a Pauli rotation into {h, s, sdg, rz, cx}; other gates pass."""
    if gate.kind != "rot":
        return [gate]
    qubits, axis = gate.qubits, gate.axis
    out: list[Gate] = []
    for q, ch in zip(qubits, axis):
        out.extend(Gate(k, (q,)) for k in _PRE[ch])
    for a, b in zip(qubits, qubits[1:]):
        out.append(Gate("cx", (a, b)))
    out.append(Gate("rz", (qubits[-1],), angle=gate.angle))
    for a, b in reversed(list(zip(qubits, qubits[1:]))):
        out.append(Gate("cx", (a, b)))
    for q, ch in zip(qubits, axis):
        out.extend(Gate(k, (q,)) for k in _POST[ch])
    return out


def lower_rotations(circuit: Circuit) -> Circuit:
    """Lower every multi-letter Pauli rotation to the QASM gate subset."""
    gates: list[Gate] = []
    for g in circuit.gates:
        gates.extend(lower_gate(g))
    return Circuit(circuit.n, tuple(gates))


# --- QASM emission -----------------------------------------------------------

def emit_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n}];"]
    for g in lower_rotations(circuit).gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind == "rz":
            lines.append(f"rz({g.angle!r}) {args};")
        else:
            lines.append(f"{g.kind} {args};")
    return "\n".join(lines) + "\n"


# --- QASM parsing ------------------------------------------------------------

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
# A gate statement: its name, an optional parenthesised parameter, and its
# argument text. When that text is one or two register[index] arguments, as
# in every well-formed statement, the match also holds their registers and
# indices.
_GATE_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^()]*(?:\([^()]*\))?[^()]*)\))?\s*"
    r"((?:([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]"
    r"(?:\s*,\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\])?$)?.*)$"
)
# A Python float literal with an optional minus sign, in ASCII digits and
# without underscores: float() reads it to the same value as the ast route.
# Integer literals take the ast route, which rejects 01 and, like Python,
# integers longer than 4300 digits.
_FLOAT_RE = re.compile(r"-?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)")

_ALLOWED_AST = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.UAdd, ast.Pow,
)


def _eval_angle(expr: str, lineno: int) -> float:
    text = expr.strip()

    def finite(value) -> float:
        # A negative base to a fractional power gives a complex number.
        if not isinstance(value, float) or not math.isfinite(value):
            raise QasmError(f"angle {expr!r} is not a finite real number", lineno)
        return value

    if _FLOAT_RE.fullmatch(text):
        return finite(float(text))
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise QasmError(f"malformed angle expression {expr!r}", lineno) from None

    def ev(node: ast.AST) -> float:
        try:
            value = term(node)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        return finite(value)

    def term(node: ast.AST) -> float:
        if not isinstance(node, _ALLOWED_AST):
            raise QasmError(f"unsupported construct in angle {expr!r}", lineno)
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise QasmError(f"non-numeric constant in angle {expr!r}", lineno)
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return math.pi
            raise QasmError(f"unknown symbol {node.id!r} in angle", lineno)
        if isinstance(node, ast.UnaryOp):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        ops = {ast.Add: float.__add__, ast.Sub: float.__sub__,
               ast.Mult: float.__mul__, ast.Div: float.__truediv__,
               ast.Pow: float.__pow__}
        return ops[type(node.op)](ev(node.left), ev(node.right))

    return ev(tree)


def _qubit(index: str, width: int, lineno: int) -> int:
    q = int(index)
    if q >= width:
        raise QasmError(f"qubit index {q} outside qreg[{width}]", lineno)
    return q


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset used by this package.

    Rejects measurements (expectation-value pipelines cannot cross them),
    classical registers, and any gate outside the supported set.
    """
    reg_name: str | None = None
    width = 0
    gates: list[Gate] = []
    # Statement text -> its gate. Only a statement after the one qreg is
    # stored, and only once it parsed, so a repeat means the same gate.
    known: dict[str, Gate] = {}
    saw_header = False

    # Statements end with ';'; keep line numbers for diagnostics.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            if stmt in known:
                gates.append(known[stmt])
                continue
            if stmt.startswith("OPENQASM"):
                saw_header = True
                continue
            if stmt.startswith("include"):
                continue
            if stmt.startswith("barrier"):
                continue
            if stmt.startswith("measure") or " measure " in f" {stmt} ":
                raise QasmError("mid-circuit measurement unsupported", lineno)
            if stmt.startswith(("creg", "reset", "if")):
                raise QasmError(f"unsupported statement {stmt.split()[0]!r}", lineno)
            m = _QREG_RE.match(stmt)
            if m:
                if reg_name is not None:
                    raise QasmError("multiple qreg declarations", lineno)
                reg_name, width = m.group(1), int(m.group(2))
                continue
            m = _GATE_RE.match(stmt)
            if not m:
                raise QasmError(f"malformed statement {stmt!r}", lineno)
            name, _, param, args, reg, index, reg2, index2 = m.groups()
            if name not in QASM_GATES:
                raise QasmError(f"unsupported gate {name!r}", lineno)
            if reg_name is None:
                raise QasmError("gate before qreg declaration", lineno)
            if args and (reg != reg_name or reg2 not in (None, reg_name)):
                raise QasmError(f"bad qubit arguments {args!r}", lineno)
            qubits = [_qubit(i, width, lineno) for i in (index, index2) if i is not None]
            if name == "rz":
                if param is None:
                    raise QasmError("rz requires an angle parameter", lineno)
                if len(qubits) != 1:
                    raise QasmError("rz takes exactly one qubit", lineno)
                angle = _eval_angle(param, lineno)
            else:
                if param is not None:
                    raise QasmError(f"{name} takes no parameter", lineno)
                want = 2 if name in CLIFFORD_2Q else 1
                if len(qubits) != want:
                    raise QasmError(f"{name} takes {want} qubit(s)", lineno)
                angle = None
            try:
                known[stmt] = Gate(name, tuple(qubits), angle)
            except CircuitError as exc:
                raise QasmError(str(exc), lineno) from None
            gates.append(known[stmt])

    if not saw_header:
        raise QasmError("missing OPENQASM header", 1)
    if reg_name is None:
        raise QasmError("missing qreg declaration", 1)
    return Circuit(width, tuple(gates))
