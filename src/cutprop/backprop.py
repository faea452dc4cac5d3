"""Observable backpropagation through circuit suffixes.

Conjugates an observable backward through trailing slices of a circuit
(O -> G_dag O G per gate, applied last-gate-first), stopping when the
qubit-wise-commuting group count would exceed the configured budget.
Every gate is conjugated as Pauli rotations: each anticommuting term splits
into cos(theta)*O + i*sin(theta)*P*O. A Clifford gate is a product of
quarter-turn rotations, at which that split is exact and maps each term to
one term. So each Clifford kind's rotations are run once, on every word of
its 1 or 2 qubits, into a table from a row's letters on the gate's qubits
to new letters and a phase: a Clifford gate permutes the rows, one lookup
and one sort, while ``rz`` and ``rot`` gates rotate, reading the rows'
letters on the axis's qubits only, and merge. The conjugation and
truncation run on the observable's arrays (uint64 x and z limbs and a
complex128 coefficient array) and return new canonical observables; no
term object is built. Each coefficient rounds as the per-term loops in
``tests/oracles.py`` round it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, Gate, _clifford_quarter_turns, slice_circuit
from .paulis import (
    _PHASES,
    Observable,
    PauliString,
    _from_rows,
    _magnitudes,
    _mask_ints,
    _pack_masks,
    canonicalize,
    commutes,  # builds _ANTICOMMUTES; also traced by perfbench/spans.py (ROADMAP item 7)
    group_qwc,
    letter_masks,
    merge_rows,
    multiply,  # builds _PRODUCT_PHASES; also traced by perfbench/spans.py (ROADMAP item 7)
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

_ONE = np.uint64(1)
_PHASE_VALUES = np.array(_PHASES)

# The 1-qubit words by letter code x | z << 1. The tables are indexed by
# (axis letter code, word letter code): e in axis * word = i**e * (axis ^
# word), and whether the two letters anticommute.
_LETTER_WORDS = [PauliString(1, code & 1, code >> 1) for code in range(4)]
_PRODUCT_PHASES = np.array([[_PHASES.index(multiply(a, w)[0]) for w in _LETTER_WORDS]
                            for a in _LETTER_WORDS])
_ANTICOMMUTES = np.array([[not commutes(a, w) for w in _LETTER_WORDS] for a in _LETTER_WORDS])


def _letter_codes(x: np.ndarray, z: np.ndarray, qubits) -> list[np.ndarray]:
    """Each row's letter code x | z << 1 on each of the qubits, one uint64 array a qubit."""
    places = [(q // 64, np.uint64(q % 64)) for q in qubits]
    return [(x[:, k] >> b & _ONE) | (z[:, k] >> b & _ONE) << _ONE for k, b in places]


def _rotate(rows: tuple, axis: PauliString, angle: float) -> tuple | None:
    """Rows after conjugating by exp(-i*angle/2 * axis), before merging; None if unchanged.

    Commuting rows pass through; each anticommuting row becomes its
    cos(angle) row followed by its i*sin(angle)*axis*word row, as a per-term
    loop would list them, so merging sums duplicates in that order. A
    quarter turn has cos or sin exactly 0 and keeps one of the two. Only
    the axis's support qubits are read: a row anticommutes when an odd
    number of them anticommute letter by letter, and the product's phase
    is the sum of their letters' phases.
    """
    x, z, coeffs = rows
    support = [q for q in range(axis.n) if (axis.x | axis.z) >> q & 1]
    letters = [axis.x >> q & 1 | (axis.z >> q & 1) << 1 for q in support]
    codes = _letter_codes(x, z, support)
    odd = np.zeros(len(coeffs), dtype=bool)
    for a, code in zip(letters, codes):
        odd ^= _ANTICOMMUTES[a][code]
    anti = np.flatnonzero(odd)
    if not len(anti):
        return None
    k = _clifford_quarter_turns(angle)
    if k is not None:
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
    else:
        c, s = math.cos(angle), math.sin(angle)
    coeffs = coeffs.copy()
    if s:
        # Each factor is the Python product 1j * s * phase, so the row's
        # coefficient rounds as the per-term loop's 1j * s * phase * coeff.
        factors = np.array([1j * s * phase for phase in _PHASES])
        ax, az = (_pack_masks([mask], x.shape[1])[0] for mask in (axis.x, axis.z))
        sx, sz = x[anti] ^ ax, z[anti] ^ az
        phases = sum(_PRODUCT_PHASES[a][code[anti]] for a, code in zip(letters, codes))
        scoeffs = factors[phases & 3] * coeffs[anti]
    if not c:
        x, z = x.copy(), z.copy()
        x[anti], z[anti], coeffs[anti] = sx, sz, scoeffs
        return x, z, coeffs
    coeffs[anti] *= c
    if not s:
        return x, z, coeffs
    # Insert each sin row right after its term's cos row.
    total = len(coeffs) + len(anti)
    at = anti + np.arange(1, len(anti) + 1)
    old = np.ones(total, dtype=bool)
    old[at] = False
    out = []
    for kept, new in ((x, sx), (z, sz), (coeffs, scoeffs)):
        merged = np.empty((total,) + kept.shape[1:], dtype=kept.dtype)
        merged[old], merged[at] = kept, new
        out.append(merged)
    return tuple(out)


def _conjugate(obs: Observable, rotations: list[tuple[PauliString, float]]) -> Observable:
    """Conjugate backward by Pauli rotations (axis, angle), in list order.

    Runs on the observable's arrays and merges after every rotation. A
    canonical input that no rotation changes is returned as it is.
    """
    rows = (obs.x, obs.z, obs.coeffs)
    changed = False
    for axis, angle in rotations:
        rotated = _rotate(rows, axis, angle)
        # A raw input is merged at its first rotation, whether it changed or not.
        if rotated is not None or not (obs.canonical or changed):
            rows = merge_rows(*(rotated or rows))
            changed = True
    return _from_rows(obs.n, *rows, True) if changed else obs


@functools.cache
def _clifford_table(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(new letter code, ``_PHASES`` index) per letter code of a Clifford kind's qubits.

    A row's letter code holds 2 bits per gate qubit, x then z, in the order
    of ``gate.qubits``. The table is read off ``_conjugate`` on the 1- or
    2-qubit observable of every word, word c with coefficient c + 1: the
    gate maps each word to one word times a phase, so the coefficient's
    magnitude names the input and its direction is the phase.
    """
    letters = _ROTATIONS[kind]
    width = len(letters[0][0])
    codes = range(4 ** width)
    x = _pack_masks([sum((c >> 2 * j & 1) << j for j in range(width)) for c in codes], 1)
    z = _pack_masks([sum((c >> 2 * j + 1 & 1) << j for j in range(width)) for c in codes], 1)
    coeffs = np.arange(1, 4 ** width + 1, dtype=np.complex128)
    rotations = [(PauliString(width, *letter_masks(axis, range(width))), k * math.pi / 2)
                 for axis, k in reversed(letters)]
    out = _conjugate(_from_rows(width, x, z, coeffs, False), rotations)
    new = np.empty(len(coeffs), dtype=np.uint64)
    phase = np.empty(len(coeffs), dtype=np.intp)
    for (wx,), (wz,), c in zip(out.x.tolist(), out.z.tolist(), out.coeffs.tolist()):
        row = round(abs(c)) - 1
        new[row] = sum((wx >> j & 1) << 2 * j | (wz >> j & 1) << 2 * j + 1 for j in range(width))
        phase[row] = _PHASES.index(c / (row + 1))
    return new, phase


def conjugate_gate(obs: Observable, gate: Gate) -> Observable:
    """G_dag O G, returned canonical; the input itself when no row changes.

    A Clifford kind rewrites each row's letters on the gate's qubits and
    multiplies its coefficient by a phase, both looked up in the kind's
    table. On canonical rows that map is a permutation: the words are
    distinct and stay distinct, and no magnitude changes, so no row can
    merge or drop. One sort puts the rows back in order, and adding 0j
    clears any signed zero the phase left, as a merge's 0j start does.
    Any other gate is its rotation about ``axis_word``.
    """
    if gate.kind not in _ROTATIONS:
        return _conjugate(obs, [(gate.axis_word(obs.n), gate.angle)])
    if not obs.canonical:
        obs = canonicalize(obs)
    new_codes, phases = _clifford_table(gate.kind)
    x, z = obs.x, obs.z
    code = np.zeros(len(obs), dtype=np.uint64)
    for j, letter in enumerate(_letter_codes(x, z, gate.qubits)):
        code |= letter << np.uint64(2 * j)
    flip, phase = new_codes[code] ^ code, phases[code]
    if not (flip.any() or phase.any()):
        return obs
    x, z = x.copy(), z.copy()
    for j, q in enumerate(gate.qubits):
        k, b = divmod(q, 64)
        x[:, k] ^= (flip >> np.uint64(2 * j) & _ONE) << np.uint64(b)
        z[:, k] ^= (flip >> np.uint64(2 * j + 1) & _ONE) << np.uint64(b)
    # lexsort's last key is its primary one, as in merge_rows.
    order = np.lexsort((*z.T, *x.T))
    coeffs = _PHASE_VALUES[phase[order]] * obs.coeffs[order] + 0j
    return _from_rows(obs.n, x[order], z[order], coeffs, True)


def light_cone(circuit: Circuit, obs: Observable) -> tuple[Circuit, tuple[int, ...]]:
    """The observable's backward light cone: its gates, and the wires it covers.

    The cone starts as the observable's support. Walking the gates last to
    first, a gate joins the cone if it touches a cone wire, and its wires
    join the cone. A gate outside it commutes with the observable
    conjugated by every later gate, so absorbing it changes nothing:
    dropping it is exact, the free case of absorption. Returns the cone's
    gates in circuit order, on the full width (``circuit`` itself when every
    gate joins), and its wires in order.
    """
    support = np.bitwise_or.reduce(obs.x | obs.z, axis=0)
    cone = _mask_ints(support[None])[0]
    kept = []
    for gate in reversed(circuit.gates):
        wires = sum(1 << q for q in gate.qubits)
        if wires & cone:
            cone |= wires
            kept.append(gate)
    if len(kept) < len(circuit.gates):
        circuit = Circuit(circuit.n, tuple(reversed(kept)))
    return circuit, tuple(q for q in range(circuit.n) if cone >> q & 1)


def truncate(obs: Observable, budget: float) -> tuple[Observable, float]:
    """Drop smallest-|coeff| terms while the dropped L1 mass stays <= budget.

    Terms are dropped in order of (|coeff|, x, z), and the mass is summed
    left to right from 0.0, as a per-term loop over Python floats sums it.
    Returns the canonical rest and the mass dropped.
    """
    if budget < 0:
        raise BackpropError("truncation budget must be nonnegative")
    obs = canonicalize(obs)
    if budget == 0 or not len(obs):
        return obs, 0.0
    mags = _magnitudes(obs.coeffs)
    order = np.lexsort((*obs.z.T, *obs.x.T, mags))
    # cumsum adds in order, so each prefix rounds as the running Python sum.
    mass = np.cumsum(mags[order])
    dropped = int(np.searchsorted(mass, budget, side="right"))
    if not dropped:
        return obs, 0.0
    keep = np.ones(len(obs), dtype=bool)
    keep[order[:dropped]] = False
    rest = _from_rows(obs.n, obs.x[keep], obs.z[keep], obs.coeffs[keep], True)
    return rest, float(mass[dropped - 1])


class BackpropResult(NamedTuple):
    reduced_circuit: Circuit
    evolved_obs: Observable
    slices_absorbed: int
    # The QWC group count after each absorbed slice: the size of a valid
    # grouping of that slice's observable. A fresh ``group_qwc`` count, or
    # the previous entry carried through a slice that kept the rows or held
    # only 1-qubit Cliffords. A carried count can differ from a fresh one,
    # since DSATUR breaks ties by row index and the slice reorders the rows.
    group_history: tuple[int, ...]
    truncation_error_accrued: float
    fully_absorbed: bool
    # (k, reduced circuit, observable, truncation accrued) after k absorbed
    # slices, for each k < slices_absorbed whose group_history entry is a new
    # maximum: a smaller budget can stop only there.
    stops: tuple[tuple[int, Circuit, Observable, float], ...]

    def __repr__(self) -> str:  # without the stops
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"BackpropResult({fields})"

    def at_budget(self, w: int) -> BackpropResult:
        """The result of the same backpropagation with the smaller budget w.

        Budget w absorbs the slices before the first history entry above w.
        Valid for w up to the budget this result was made with, and for any
        w when every slice was absorbed. Budget 0 absorbs nothing (the
        circuit and the canonical input observable) unless the observable
        is empty: only an empty observable has 0 groups.
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
    absorption stops there. The first absorbed slice is grouped fresh. A
    later slice that changes no x/z row, or that holds only 1-qubit
    Cliffords and lost no term to truncation, keeps the previous count: the
    previous grouping, carried through the slice, is a valid QWC grouping
    of the new observable. The result keeps the state at every slice where
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
        gates = circuit.gates[sl.start : sl.stop]
        cand = current
        for gate in reversed(gates):
            cand = conjugate_gate(cand, gate)
        spent = 0.0
        if trunc_budget_per_slice > 0:
            cand, spent = truncate(cand, trunc_budget_per_slice)
        # A grouping reads only the x/z rows: a slice that changes no row keeps
        # its count. So does a slice of 1-qubit Cliffords that truncation left
        # whole: it permutes X, Y and Z on each qubit, which maps the words one
        # to one and keeps which pairs commute qubit-wise.
        carried = history and (
            (not spent and all(len(g.qubits) == 1 and g.is_clifford() for g in gates))
            or (np.array_equal(cand.x, current.x) and np.array_equal(cand.z, current.z))
        )
        groups = history[-1] if carried else len(group_qwc(cand))
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
