"""Observable backpropagation through circuit suffixes.

Conjugates an observable backward through trailing slices of a circuit
(O -> G_dag O G per gate, applied last-gate-first), stopping when the
qubit-wise-commuting group count would exceed the configured budget.
Every gate is conjugated as Pauli rotations: each anticommuting term splits
into cos(theta)*O + i*sin(theta)*P*O. A Clifford gate is a product of
quarter-turn rotations, at which that split is exact and maps each term to
one term.
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


# Each Clifford gate kind as Pauli rotations exp(-i*k*pi/4 * P) in circuit
# order, equal to the gate up to a global phase: (letters on the gate's
# qubits, "I" where the rotation does not act; k).
_ROTATIONS = {
    "s": (("Z", 1),),
    "sdg": (("Z", -1),),
    "z": (("Z", 2),),
    "x": (("X", 2),),
    "y": (("Y", 2),),
    "sx": (("X", 1),),
    "sxdg": (("X", -1),),
    "h": (("Z", 2), ("Y", 1)),
    "cz": (("ZI", 1), ("IZ", 1), ("ZZ", -1)),
    "cx": (("ZI", 1), ("IX", 1), ("ZX", -1)),
}


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
    """G_dag O G, one Pauli rotation at a time, last rotation first."""
    if gate.kind not in _ROTATIONS:
        return conjugate_rotation(obs, gate.axis_word(obs.n), gate.angle)
    for letters, k in reversed(_ROTATIONS[gate.kind]):
        x = z = 0
        for q, ch in zip(gate.qubits, letters):
            x |= (ch in "XY") << q
            z |= (ch in "YZ") << q
        obs = conjugate_rotation(obs, PauliString(obs.n, x, z), k * math.pi / 2)
    return obs


def conjugate_clifford(obs: Observable, gate: Gate) -> Observable:
    """G_dag O G for a Clifford gate; term count and magnitudes unchanged."""
    if not gate.is_clifford():
        raise BackpropError(f"gate {gate} is not Clifford")
    return conjugate_gate(obs, gate)


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
        # A slice that leaves every term unchanged keeps the last grouping.
        groups = history[-1] if history and cand == current else group_qwc(cand).group_count
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
