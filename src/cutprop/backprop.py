"""Observable backpropagation through circuit suffixes.

Conjugates an observable backward through trailing slices of a circuit
(O -> G_dag O G per gate, applied last-gate-first), stopping when the
qubit-wise-commuting group count would exceed the configured budget.
Clifford gates are applied through an exact tableau; Pauli rotations split
each anticommuting term into cos(theta)*O + i*sin(theta)*P*O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuits import Circuit, Gate, _clifford_quarter_turns, slice_circuit
from .paulis import (
    Observable,
    PauliString,
    PauliTerm,
    canonicalize,
    commutes,
    group_qwc,
    multiply,
)


class BackpropError(ValueError):
    pass


# Backward conjugation images G_dag P G of the single-qubit generators, as
# (sign, local_x_bits, local_z_bits) with bit j = j-th gate qubit.
_IMAGES_1Q = {
    "h": {"X": (1, 0, 1), "Z": (1, 1, 0)},
    "s": {"X": (-1, 1, 1), "Z": (1, 0, 1)},
    "sdg": {"X": (1, 1, 1), "Z": (1, 0, 1)},
    "x": {"X": (1, 1, 0), "Z": (-1, 0, 1)},
    "y": {"X": (-1, 1, 0), "Z": (-1, 0, 1)},
    "z": {"X": (-1, 1, 0), "Z": (1, 0, 1)},
    "sx": {"X": (1, 1, 0), "Z": (1, 1, 1)},
    "sxdg": {"X": (1, 1, 0), "Z": (-1, 1, 1)},
}
# rz at k quarter-turns acts like {identity, s, z, sdg}.
_RZ_QUARTER = {0: None, 1: "s", 2: "z", 3: "sdg"}

_IMAGES_2Q = {
    "cx": {
        (0, "X"): (1, 0b11, 0b00),
        (0, "Z"): (1, 0b00, 0b01),
        (1, "X"): (1, 0b10, 0b00),
        (1, "Z"): (1, 0b00, 0b11),
    },
    "cz": {
        (0, "X"): (1, 0b01, 0b10),
        (0, "Z"): (1, 0b00, 0b01),
        (1, "X"): (1, 0b10, 0b01),
        (1, "Z"): (1, 0b00, 0b10),
    },
}

_PHASE_EXP = {1 + 0j: 0, 1j: 1, -1 + 0j: 2, -1j: 3}


def _gate_images(gate: Gate) -> dict[tuple[int, str], tuple[int, int, int]]:
    if gate.kind in _IMAGES_2Q:
        return _IMAGES_2Q[gate.kind]
    kind = gate.kind
    if kind == "rz":
        k = _clifford_quarter_turns(gate.angle)
        if k is None:
            raise BackpropError(f"rz({gate.angle}) is not Clifford")
        name = _RZ_QUARTER[k]
        if name is None:
            return {}
        kind = name
    if kind in _IMAGES_1Q:
        return {(0, p): img for p, img in _IMAGES_1Q[kind].items()}
    raise BackpropError(f"no tableau for gate kind {gate.kind!r}")


def _conjugate_word(word: PauliString, gate: Gate, images) -> tuple[int, PauliString]:
    """Map one Pauli word through a Clifford gate, returning (sign, word)."""
    qs = gate.qubits
    m = len(qs)
    lx = lz = 0
    for j, q in enumerate(qs):
        lx |= ((word.x >> q) & 1) << j
        lz |= ((word.z >> q) & 1) << j
    if lx == 0 and lz == 0:
        return 1, word
    # Decompose the local word as i^(#Y) * prod_j X_j^x Z_j^z and push each
    # generator through the gate, accumulating the product exactly.
    exp = (lx & lz).bit_count() % 4
    acc = PauliString(m, 0, 0)
    for j in range(m):
        for gen, present in (("X", (lx >> j) & 1), ("Z", (lz >> j) & 1)):
            if not present:
                continue
            sign, ix, iz = images[(j, gen)]
            if sign < 0:
                exp = (exp + 2) % 4
            phase, acc = multiply(acc, PauliString(m, ix, iz))
            exp = (exp + _PHASE_EXP[phase]) % 4
    if exp not in (0, 2):
        raise AssertionError(f"non-real Clifford image phase i^{exp}")
    clear = 0
    for q in qs:
        clear |= 1 << q
    new_x = word.x & ~clear
    new_z = word.z & ~clear
    for j, q in enumerate(qs):
        new_x |= ((acc.x >> j) & 1) << q
        new_z |= ((acc.z >> j) & 1) << q
    return (1 if exp == 0 else -1), PauliString(word.n, new_x, new_z)


def conjugate_clifford(obs: Observable, gate: Gate) -> Observable:
    """G_dag O G for a Clifford gate; term count and magnitudes unchanged."""
    if not gate.is_clifford():
        raise BackpropError(f"gate {gate} is not Clifford")
    images = _gate_images(gate)
    if not images:
        return canonicalize(obs)
    terms = []
    for t in obs.terms:
        sign, w = _conjugate_word(t.word, gate, images)
        terms.append(PauliTerm(sign * t.coeff, w))
    return canonicalize(Observable(obs.n, tuple(terms)))


def conjugate_rotation(obs: Observable, axis: PauliString, angle: float) -> Observable:
    """Conjugate by exp(-i*angle/2 * axis) backward.

    Commuting terms pass through; each anticommuting term becomes
    cos(angle)*term + i*sin(angle)*axis*term.
    """
    k = _clifford_quarter_turns(angle)
    if k is not None:
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
    else:
        c, s = math.cos(angle), math.sin(angle)
    terms: list[PauliTerm] = []
    for t in obs.terms:
        if commutes(axis, t.word):
            terms.append(t)
            continue
        if c:
            terms.append(PauliTerm(c * t.coeff, t.word))
        if s:
            phase, w = multiply(axis, t.word)
            terms.append(PauliTerm(1j * s * phase * t.coeff, w))
    return canonicalize(Observable(obs.n, tuple(terms)))


def conjugate_gate(obs: Observable, gate: Gate) -> Observable:
    if gate.is_clifford() and gate.kind != "rot":
        return conjugate_clifford(obs, gate)
    return conjugate_rotation(obs, gate.axis_word(obs.n), gate.angle)


def truncate(obs: Observable, budget: float) -> tuple[Observable, float]:
    """Drop smallest-|coeff| terms while the dropped L1 mass stays <= budget."""
    if budget < 0:
        raise BackpropError("truncation budget must be nonnegative")
    if budget == 0 or not obs.terms:
        return obs, 0.0
    order = sorted(obs.terms, key=lambda t: (abs(t.coeff), t.word.sort_key()))
    spent = 0.0
    dropped: set[tuple[int, int]] = set()
    for t in order:
        mag = abs(t.coeff)
        if spent + mag > budget:
            break
        spent += mag
        dropped.add((t.word.x, t.word.z))
    kept = tuple(t for t in obs.terms if (t.word.x, t.word.z) not in dropped)
    return Observable(obs.n, kept), spent


@dataclass(frozen=True)
class BackpropResult:
    reduced_circuit: Circuit
    evolved_obs: Observable
    slices_absorbed: int
    group_history: tuple[int, ...]
    truncation_error_accrued: float
    fully_absorbed: bool
    # (k, reduced circuit, observable, truncation accrued) after k absorbed
    # slices, for each k < slices_absorbed whose group_history entry is a new
    # maximum: a smaller budget can stop only there.
    stops: tuple[tuple[int, Circuit, Observable, float], ...] = field(repr=False)

    def at_budget(self, w: int) -> BackpropResult:
        """The result of the same backpropagation with the smaller budget w.

        Budget w absorbs the slices before the first history entry above w.
        Valid for w up to the budget this result was made with, and for any
        w when every slice was absorbed.
        """
        history = self.group_history
        k = next((k for k, groups in enumerate(history) if groups > w), len(history))
        if k == self.slices_absorbed:
            return self
        _, reduced, obs, accrued = next(stop for stop in self.stops if stop[0] == k)
        return BackpropResult(
            reduced_circuit=reduced,
            evolved_obs=obs,
            slices_absorbed=k,
            group_history=history[:k],
            truncation_error_accrued=accrued,
            fully_absorbed=False,
            stops=tuple(stop for stop in self.stops if stop[0] < k),
        )


def backpropagate(
    circuit: Circuit,
    obs: Observable,
    max_qwc_groups: int,
    trunc_budget_per_slice: float = 0.0,
    slicing: str = "auto",
) -> BackpropResult:
    """Absorb trailing slices into the observable under a QWC-group budget.

    Slices are consumed from the end of the circuit. After conjugating a
    candidate slice (and truncating, when budgeted) the grouping is checked;
    a slice that pushes the group count past the budget is reverted and
    absorption stops there. The result keeps the state at every slice where
    a smaller budget would stop, so ``at_budget`` needs no second pass.
    """
    if obs.n != circuit.n:
        raise BackpropError(f"observable width {obs.n} != circuit width {circuit.n}")
    if max_qwc_groups < 1:
        raise BackpropError("max_qwc_groups must be >= 1")
    slices = slice_circuit(circuit, slicing)
    current = canonicalize(obs)
    absorbed = 0
    boundary = len(circuit.gates)
    history: list[int] = []
    stops = []
    accrued = 0.0
    for sl in reversed(slices):
        cand = current
        for gate in reversed(circuit.gates[sl.start : sl.stop]):
            cand = conjugate_gate(cand, gate)
        spent = 0.0
        if trunc_budget_per_slice > 0:
            cand, spent = truncate(cand, trunc_budget_per_slice)
        groups = group_qwc(cand).group_count
        if groups > max_qwc_groups:
            break
        if groups > max(history, default=0):
            stops.append((absorbed, circuit.prefix(boundary), current, accrued))
        current = cand
        accrued += spent
        absorbed += 1
        boundary = sl.start
        history.append(groups)
    return BackpropResult(
        reduced_circuit=circuit.prefix(boundary),
        evolved_obs=current,
        slices_absorbed=absorbed,
        group_history=tuple(history),
        truncation_error_accrued=accrued,
        fully_absorbed=absorbed == len(slices),
        stops=tuple(stops),
    )
