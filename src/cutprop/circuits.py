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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .paulis import PauliString

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


@dataclass(frozen=True)
class Gate:
    """One gate application.

    ``axis`` is only set for kind "rot" and holds the Pauli letters aligned
    with ``qubits`` (e.g. axis "XY" on qubits (2, 5) is X on 2, Y on 5).
    For "cx", qubits are (control, target).
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    axis: str | None = None

    def __post_init__(self):
        if self.kind in CLIFFORD_1Q:
            ok = len(self.qubits) == 1 and self.angle is None and self.axis is None
        elif self.kind == "rz":
            ok = len(self.qubits) == 1 and self.angle is not None and self.axis is None
        elif self.kind in CLIFFORD_2Q:
            ok = len(self.qubits) == 2 and self.angle is None and self.axis is None
        elif self.kind == "rot":
            ok = (
                self.angle is not None
                and self.axis is not None
                and len(self.axis) == len(self.qubits) >= 1
                and all(ch in "XYZ" for ch in self.axis)
            )
        else:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if not ok:
            raise CircuitError(f"malformed {self.kind} gate: {self}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"repeated qubit in {self}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self}")

    def is_clifford(self) -> bool:
        if self.kind in CLIFFORD_1Q or self.kind in CLIFFORD_2Q:
            return True
        return _clifford_quarter_turns(self.angle) is not None

    def axis_word(self, n: int) -> PauliString:
        """Rotation axis as a width-n Pauli word ("rz" rotates about Z)."""
        if self.kind == "rz":
            return PauliString(n, 0, 1 << self.qubits[0])
        if self.kind != "rot":
            raise CircuitError(f"{self.kind} gate has no rotation axis")
        x = z = 0
        for q, ch in zip(self.qubits, self.axis):
            if ch in ("X", "Y"):
                x |= 1 << q
            if ch in ("Z", "Y"):
                z |= 1 << q
        return PauliString(n, x, z)


def _clifford_quarter_turns(angle: float | None) -> int | None:
    """Return k (mod 4) if angle is within tolerance of k*pi/2, else None."""
    if angle is None:
        return None
    k = round(angle / (math.pi / 2))
    if abs(angle - k * (math.pi / 2)) <= CLIFFORD_ANGLE_TOL:
        return k % 4
    return None


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            if max(g.qubits) >= self.n:
                raise CircuitError(f"gate {g} exceeds width {self.n}")

    def prefix(self, stop: int) -> "Circuit":
        return Circuit(self.n, self.gates[:stop])


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
_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^()]*(?:\([^()]*\))?[^()]*)\))?\s*(.*)$")

_ALLOWED_AST = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.UAdd, ast.Pow,
)


def _eval_angle(expr: str, lineno: int) -> float:
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError:
        raise QasmError(f"malformed angle expression {expr!r}", lineno) from None

    def ev(node: ast.AST) -> float:
        try:
            value = term(node)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        # A negative base to a fractional power gives a complex number.
        if not isinstance(value, float) or not math.isfinite(value):
            raise QasmError(f"angle {expr!r} is not a finite real number", lineno)
        return value

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


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset used by this package.

    Rejects measurements (expectation-value pipelines cannot cross them),
    classical registers, and any gate outside the supported set.
    """
    reg_name: str | None = None
    width = 0
    gates: list[Gate] = []
    saw_header = False

    # Statements end with ';'; keep line numbers for diagnostics.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
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
            name, _, param, args = m.group(1), m.group(2), m.group(3), m.group(4)
            if name not in QASM_GATES:
                raise QasmError(f"unsupported gate {name!r}", lineno)
            if reg_name is None:
                raise QasmError("gate before qreg declaration", lineno)
            qubits = []
            for arg in filter(None, (a.strip() for a in args.split(","))):
                am = _ARG_RE.match(arg)
                if not am or am.group(1) != reg_name:
                    raise QasmError(f"bad qubit argument {arg!r}", lineno)
                q = int(am.group(2))
                if q >= width:
                    raise QasmError(f"qubit index {q} outside qreg[{width}]", lineno)
                qubits.append(q)
            if name == "rz":
                if param is None:
                    raise QasmError("rz requires an angle parameter", lineno)
                if len(qubits) != 1:
                    raise QasmError("rz takes exactly one qubit", lineno)
                gates.append(Gate("rz", (qubits[0],), angle=_eval_angle(param, lineno)))
            else:
                if param is not None:
                    raise QasmError(f"{name} takes no parameter", lineno)
                want = 2 if name in CLIFFORD_2Q else 1
                if len(qubits) != want:
                    raise QasmError(f"{name} takes {want} qubit(s)", lineno)
                gates.append(Gate(name, tuple(qubits)))

    if not saw_header:
        raise QasmError("missing OPENQASM header", 1)
    if reg_name is None:
        raise QasmError("missing qreg declaration", 1)
    return Circuit(width, tuple(gates))
