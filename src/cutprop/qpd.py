"""Quasi-probability decompositions for cut wires and gates, plus exact
expectation reconstruction from subcircuits.

Wire cuts use the measure-and-prepare resolution of the identity channel:
rho = 1/2 * sum_P Tr(rho P) P over the Pauli basis, expanded into 8 terms
of (measured Pauli, prepared eigenstate) with coefficients +-1/2. Gate cuts
use the 6-term local decomposition of CZ/CX built from single-qubit
rotations and sign-weighted Z measurements; coefficients sum to exactly 1.

Reconstruction gives each part one table of exact expectations (no shot
noise), indexed by its cuts' term choices and the observable term, and
contracts the tables with the cut coefficients in one einsum, so the value
matches the uncut circuit to solver precision. Every decomposition is
checked against a dense channel oracle before first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .cutting import CutPlan, Extraction, extract_subcircuits
from .paulis import Observable, canonicalize

# apply_gate and apply_pauli are unused here, but the benchmark's tracer
# wraps them in this module (perfbench/spans.py), so the imports stay.
from .sim import apply_1q, apply_gate, apply_pauli, expectation  # noqa: F401
from .sim import GATE_1Q, pauli_expectations, product_state, rz_matrix, simulate

_S2 = 1.0 / math.sqrt(2.0)


class QpdError(ValueError):
    pass


# Largest 6^kg * 8^kw that reconstruct accepts, for any plan, including one the
# cut search chose. It bounds term combinations, not memory: a part's table
# holds (its incident cuts' term counts multiplied) x (observable terms) entries.
MAX_QPD_COMBINATIONS = 8**6


PREP_STATES: dict[str, np.ndarray] = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([_S2, _S2], dtype=complex),
    "-": np.array([_S2, -_S2], dtype=complex),
    "+i": np.array([_S2, _S2 * 1j], dtype=complex),
    "-i": np.array([_S2, -_S2 * 1j], dtype=complex),
}

# Cut-end instructions: ("u", name, 2x2 matrix) applies a unitary,
# ("mzsign",) is the sign-weighted Z measurement Pi0 rho Pi0 - Pi1 rho Pi1,
# and a wire cut's ends are ("measure", Pauli letter) and ("prep", state).
_U = lambda name, m: ("u", name, m)
_MZ = ("mzsign",)


@dataclass(frozen=True)
class QpdTerm:
    coefficient: float
    left_op: tuple
    right_op: tuple
    label: str


def wirecut_terms() -> tuple[QpdTerm, ...]:
    """Measure-and-prepare identity-channel decomposition (8 terms)."""
    spec = [
        (0.5, "I", "0"),
        (0.5, "I", "1"),
        (0.5, "X", "+"),
        (-0.5, "X", "-"),
        (0.5, "Y", "+i"),
        (-0.5, "Y", "-i"),
        (0.5, "Z", "0"),
        (-0.5, "Z", "1"),
    ]
    return tuple(
        QpdTerm(c, ("measure", p), ("prep", s), f"{'+' if c > 0 else '-'}1/2 meas {p} prep {s}")
        for c, p, s in spec
    )


def _cz_terms() -> list[tuple[float, tuple, tuple, str]]:
    # CZ = (S (x) S) o Lambda with Lambda the channel of exp(i*pi/4 Z(x)Z);
    # Lambda splits into identity/ZZ parts plus four rotation-measurement
    # cross terms with coefficients +-1/2.
    s, z = _U("s", GATE_1Q["s"]), _U("z", GATE_1Q["z"])
    rp, rm = _U("rz+", rz_matrix(-math.pi / 2)), _U("rz-", rz_matrix(math.pi / 2))
    return [
        (0.5, (s,), (s,), "II"),
        (0.5, (z, s), (z, s), "ZZ"),
        (0.5, (rp, s), (_MZ, s), "R+ (x) Mz"),
        (-0.5, (rm, s), (_MZ, s), "R- (x) Mz"),
        (0.5, (_MZ, s), (rp, s), "Mz (x) R+"),
        (-0.5, (_MZ, s), (rm, s), "Mz (x) R-"),
    ]


def gatecut_terms(kind: str) -> tuple[QpdTerm, ...]:
    """Six-term local decomposition of a cut CZ or CX channel."""
    if kind == "cz":
        rows = _cz_terms()
    elif kind == "cx":
        h = _U("h", GATE_1Q["h"])
        rows = [
            (c, a, (h, *b, h), label) for c, a, b, label in _cz_terms()
        ]
    else:
        raise QpdError(f"no quasi-probability decomposition for gate kind {kind!r}")
    return tuple(QpdTerm(c, a, b, f"{c:+g} {label}") for c, a, b, label in rows)


# --- cut-end instructions ---------------------------------------------------


# (x bit, z bit) of the Pauli letter measured at a wire cut.
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _project(state: np.ndarray, wire: int, bit: int) -> np.ndarray:
    """A copy of state with every amplitude whose bit ``wire`` is not ``bit`` zeroed."""
    out = state.copy()
    out.reshape(-1, 2, 1 << wire)[:, 1 - bit] = 0
    return out


def _apply_endpoint(branches: list, letters: tuple, instrs: tuple, wire: int):
    """Apply one cut end's instructions to the signed branches of a part walk.

    ``letters`` is the (x, z) mask of the Pauli letters measured so far at
    wire cuts; a measured letter joins every word evaluated at the leaf.
    """
    for instr in instrs:
        if instr[0] == "u":
            branches = [(w, apply_1q(s, instr[2], wire)) for w, s in branches]
        elif instr[0] == "mzsign":  # Pi0 rho Pi0 - Pi1 rho Pi1 splits each branch
            branches = [
                split for w, s in branches
                for split in ((w, _project(s, wire, 0)), (-w, _project(s, wire, 1)))
            ]
        elif instr[0] == "prep":  # the wire idles in |0> until its cut: apply |s><0|
            prep = np.outer(PREP_STATES[instr[1]], (1, 0))
            branches = [(w, apply_1q(s, prep, wire)) for w, s in branches]
        else:  # measure
            bx, bz = _LETTER_BITS[instr[1]]
            letters = (letters[0] | bx << wire, letters[1] | bz << wire)
    return branches, letters


# --- build-time channel verification -------------------------------------


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def _random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _density(branches: list) -> np.ndarray:
    return sum(w * np.outer(s, s.conj()) for w, s in branches)


def verify_wirecut_identity(num_states: int = 100, seed: int = 11, tol: float = 1e-12) -> float:
    """Max trace distance of the measure-and-prepare sum from the identity.

    Each term runs through ``_apply_endpoint``, the code reconstruction runs.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    terms = wirecut_terms()
    for _ in range(num_states):
        v = _random_pure_state(rng, 2)
        total = np.zeros((2, 2), dtype=complex)
        for t in terms:
            _, (x, z) = _apply_endpoint([], (0, 0), (t.left_op,), 0)
            prepared, _ = _apply_endpoint([(1.0, PREP_STATES["0"])], (0, 0), (t.right_op,), 0)
            measured = pauli_expectations(v, [x], [z])[0].real
            total += t.coefficient * measured * _density(prepared)
        worst = max(worst, _trace_distance(total, _density([(1.0, v)])))
    if worst > tol:
        raise QpdError(f"wire-cut identity check failed: trace distance {worst}")
    return worst


_GATE_MATRIX = {
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    # control is the first tensor factor here
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}


def verify_gatecut_channel(kind: str, num_states: int = 100, seed: int = 13,
                           tol: float = 1e-12) -> float:
    """Max trace distance of the QPD channel sum from the true gate channel.

    Each term runs through ``_apply_endpoint``, the code reconstruction runs.
    """
    rng = np.random.default_rng(seed)
    terms = gatecut_terms(kind)
    coeff_sum = sum(t.coefficient for t in terms)
    if coeff_sum != 1.0:
        raise QpdError(f"{kind} QPD coefficients sum to {coeff_sum}, not 1")
    u = _GATE_MATRIX[kind]
    worst = 0.0
    for _ in range(num_states):
        v = _random_pure_state(rng, 4)
        target = u @ _density([(1.0, v)]) @ u.conj().T
        total = np.zeros((4, 4), dtype=complex)
        for t in terms:
            # The first tensor factor (the gate's first qubit) is wire 1.
            branches, _ = _apply_endpoint([(1.0, v)], (0, 0), t.left_op, 1)
            branches, _ = _apply_endpoint(branches, (0, 0), t.right_op, 0)
            total += t.coefficient * _density(branches)
        worst = max(worst, _trace_distance(total, target))
    if worst > tol:
        raise QpdError(f"{kind} gate-cut channel check failed: trace distance {worst}")
    return worst


_verified: set[str] = set()


def _ensure_verified(kind: str) -> None:
    if kind in _verified:
        return
    if kind == "wire":
        verify_wirecut_identity(num_states=20)
    else:
        verify_gatecut_channel(kind, num_states=20)
    _verified.add(kind)


# --- reconstruction -------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    value: float
    num_combinations: int
    num_subexperiments: int


def _part_table(sub, words, cut_terms, wire_cut_base, initial_factors):
    """One part's values, indexed by [incident cuts' term choices..., observable term].

    A depth-first walk of the op stream evolves every branch through each
    gate run with ``simulate`` and branches at each cut end, once per
    distinct instruction list, so every shared prefix is simulated once.
    Each leaf evaluates the part's observable words, extended by the
    letters measured on its path. Returns the table and the cut of each of
    its leading axes, in op order.
    """
    factors = [initial_factors[q] if seg == 0 else PREP_STATES["0"]
               for q, seg in sub.wire_origin]
    ends: dict[int, tuple] = {}  # op index -> (wire, instructions and key per term)
    axes: list[int] = []
    for i, op in enumerate(sub.ops):
        if isinstance(op, Circuit):
            continue
        if op.kind == "gatecut":
            cut = op.cut_id
            per_term = [t.left_op if op.role == "a" else t.right_op for t in cut_terms[cut]]
        elif op.kind in ("wc_measure", "wc_prep"):
            cut = wire_cut_base + op.cut_id
            per_term = [(t.left_op if op.kind == "wc_measure" else t.right_op,)
                        for t in cut_terms[cut]]
        else:
            raise QpdError(f"unknown subcircuit op {op.kind!r}")
        keys = [tuple(instr[:2] for instr in instrs) for instrs in per_term]
        ends[i] = (op.wire, per_term, keys)
        axes.append(cut)

    def walk(start: int, branches: list, letters: tuple) -> np.ndarray:
        for i in range(start, len(sub.ops)):
            if i in ends:
                wire, per_term, keys = ends[i]
                done: dict[tuple, np.ndarray] = {}
                for key, instrs in zip(keys, per_term):
                    if key not in done:
                        done[key] = walk(i + 1, *_apply_endpoint(branches, letters, instrs, wire))
                return np.stack([done[key] for key in keys])
            branches = [(w, simulate(sub.ops[i], s)) for w, s in branches]
        xs, zs = [w.x | letters[0] for w in words], [w.z | letters[1] for w in words]
        return sum(w * pauli_expectations(s, xs, zs) for w, s in branches)

    return walk(0, [(1.0 + 0j, product_state(factors))], (0, 0)), axes


def reconstruct(
    extraction: Extraction,
    initial_factors: list[np.ndarray] | None = None,
    shots: int | None = None,
    sample_seed: int = 0,
) -> ReconstructionResult:
    """Recombine exact subcircuit expectations across all QPD term choices.

    A part's value depends only on the term choices of the cuts it touches,
    so the sum over the 6^kg * 8^kw combinations factorises: one
    ``np.einsum`` contracts each part's table (``_part_table``) with every
    cut's coefficient vector and the observable's term coefficients, in a
    fixed order, so reruns are bit-identical. Plans above
    MAX_QPD_COMBINATIONS are refused before anything is simulated.

    ``shots`` switches to a demonstration mode that replaces each table
    entry v with a binomial estimate (outcomes are +-1-valued, so v is
    resampled as 2*Binomial(shots, (1+v)/2)/shots - 1).
    """
    plan = extraction.plan
    if shots is not None and shots < 1:
        raise QpdError("shots must be positive")
    sampler = np.random.default_rng((sample_seed, 977)) if shots else None
    if initial_factors is None:
        initial_factors = [PREP_STATES["0"]] * plan.n
    # Cut c < kg is gate cut c; cut kg + j is wire cut j.
    cut_terms = [gatecut_terms(i.kind) for i in extraction.gate_cut_infos]
    cut_terms += [wirecut_terms()] * len(extraction.wire_cut_infos)
    num_combos = math.prod(len(terms) for terms in cut_terms)
    if num_combos > MAX_QPD_COMBINATIONS:
        raise QpdError(f"plan needs {num_combos} QPD combinations (6^kg * 8^kw), "
                       f"more than the limit {MAX_QPD_COMBINATIONS}")
    for kind in {i.kind for i in extraction.gate_cut_infos}:
        _ensure_verified(kind)
    if extraction.wire_cut_infos:
        _ensure_verified("wire")

    kg, term_axis = len(extraction.gate_cut_infos), len(cut_terms)
    operands: list = []
    for sub, words in zip(extraction.subcircuits, extraction.subobservables):
        table, axes = _part_table(sub, words, cut_terms, kg, initial_factors)
        if sampler is not None:
            # Each subexperiment measures a +-1 observable; emulate a
            # finite-shot estimate of its (real) expectation.
            p = 0.5 * (1.0 + np.clip(table.real, -1.0, 1.0))
            table = 2.0 * sampler.binomial(shots, p) / shots - 1.0
        operands += [table, axes + [term_axis]]
    for c, terms in enumerate(cut_terms):
        operands += [np.array([t.coefficient for t in terms]), [c]]
    operands += [np.array(extraction.term_coeffs), [term_axis]]
    total = complex(np.einsum(*operands, []))
    if abs(total.imag) > 1e-9:
        raise QpdError(f"reconstructed value has imaginary residue {total.imag}")
    return ReconstructionResult(
        value=float(total.real),
        num_combinations=num_combos,
        num_subexperiments=num_combos * len(extraction.subcircuits),
    )


def cut_and_reconstruct(
    circuit: Circuit,
    plan: CutPlan,
    obs: Observable,
    initial_factors: list[np.ndarray] | None = None,
) -> ReconstructionResult:
    """extract_subcircuits + reconstruct in one call."""
    return reconstruct(extract_subcircuits(circuit, plan, obs), initial_factors)


def uncut_expectation(
    circuit: Circuit, obs: Observable, initial_factors: list[np.ndarray] | None = None
) -> float:
    """The dense-simulation reference value for the same inputs."""
    initial = None
    if initial_factors is not None:
        initial = product_state(list(initial_factors))
    return expectation(simulate(circuit, initial), canonicalize(obs))
