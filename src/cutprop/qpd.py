"""Quasi-probability decompositions for cut wires and gates, plus exact
expectation reconstruction from subcircuits.

Wire cuts use the measure-and-prepare resolution of the identity channel:
rho = 1/2 * sum_P Tr(rho P) P over the Pauli basis, expanded into 8 terms
of (measured Pauli, prepared eigenstate) with coefficients +-1/2. Gate cuts
use the 6-term local decomposition of CZ/CX built from single-qubit
rotations and sign-weighted Z measurements; coefficients sum to exactly 1.

Both ends of every term are instruction tuples, and a subcircuit's cut
end (``SubOp``) reads ``left_op`` or ``right_op`` of its cut's terms by its
side, whatever the cut's kind. Reconstruction gives each part one table of
exact expectations (no shot noise), indexed by its cuts' term choices and
the observable term, and contracts the tables with the cut coefficients in
one einsum, so the value matches the uncut circuit to solver precision. A
part's table comes from one breadth-first walk over a stack of branch
states: each gate run is one ``simulate`` call on the whole stack, or, once
the walk takes at least 2^n rows through it in all, one unitary built from
the identity stack and applied as one matrix product per stack. Each leaf
is one ``pauli_expectations`` call. A cut end stacks its branches while
the stack fits one simulator block (``sim._BLOCK`` amplitudes, 512 KiB):
a smaller stack saves no memory that matters and only multiplies the calls
per gate run. Each cut end's consecutive matrices are multiplied into one
2x2 in the term tables themselves, so a cut end applies at most a matrix,
an mzsign and a matrix, and the channel checks run those very lists,
built once per process for each kind. A
wire cut's measured wire idles after the cut, so its letter never touches
the stack: it joins the words at the leaf. A wire that no gate and no cut
end of its part touches stays in |0>, so it stays out of the walk, and
a word with X or Y there is worth 0. Every
decomposition is checked against a dense channel oracle before first use,
once per process, through the walk's own cut-end and leaf code: all seeded
states go through each term as one stack. The circuit starts in |0...0>,
and the uncut reference value simulates only the observable's backward
light cone from there.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .backprop import light_cone
from .circuits import Circuit
from .cutting import CutPlan, Extraction, _move_bits, extract_subcircuits
from .paulis import _MASKS, Observable, _from_rows, _limbs, _mask_ints, _pack_masks, canonicalize

# apply_gate, apply_pauli and product_state are unused here, but the
# benchmark's tracer wraps them in this module, so the imports stay: traced
# by perfbench/spans.py (ROADMAP item 7).
from .sim import apply_1q, apply_gate, apply_pauli, expectation, product_state  # noqa: F401
from .sim import (_BLOCK, GATE_1Q, SimulationError, _check_width, apply_images,
                  pauli_expectations, rz_matrix, simulate, zero_state)

_S2 = 1.0 / math.sqrt(2.0)


class QpdError(ValueError):
    pass


# Largest 6^kg * 8^kw that reconstruct accepts, for any plan, including one the
# cut search chose. It bounds term combinations, not memory: a part's table
# holds (its incident cuts' term counts multiplied) x (observable terms) entries.
MAX_QPD_COMBINATIONS = 8**6

# Largest stack of branch states, in bytes, that the reconstruction walk
# builds at a cut end: one simulator block, the slice every kernel works in.
# Past it, the end's instruction lists are walked on one at a time, which
# holds no more states than a depth-first walk.
STACK_BYTES = _BLOCK * np.dtype(complex).itemsize


PREP_STATES: dict[str, np.ndarray] = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([_S2, _S2], dtype=complex),
    "-": np.array([_S2, -_S2], dtype=complex),
    "+i": np.array([_S2, _S2 * 1j], dtype=complex),
    "-i": np.array([_S2, -_S2 * 1j], dtype=complex),
}

# Cut-end instructions: ("u", name, 2x2 matrix) applies a matrix (a unitary,
# or |s><0| at a wire cut's prep end, whose wire idles in |0> until its cut),
# ("mzsign",) is the sign-weighted Z measurement Pi0 rho Pi0 - Pi1 rho Pi1,
# and ("measure", Pauli letter) is a wire cut's measure end, read at the leaf.
_MZ = ("mzsign",)


def _U(name: str, m: np.ndarray) -> tuple:
    """A matrix instruction on a read-only copy of m: the cached term tables share it."""
    m = np.array(m, dtype=complex)
    m.flags.writeable = False
    return ("u", name, m)


class QpdTerm(NamedTuple):
    """One term of a cut's decomposition: a coefficient and each end's instructions.

    ``left_op`` is the instruction tuple of the end with side 0 (a cut
    gate's first qubit, a cut wire's measure end), ``right_op`` that of
    side 1 (the gate's second qubit, the wire's prep end).
    """

    coefficient: float
    left_op: tuple
    right_op: tuple
    label: str


@functools.cache
def wirecut_terms() -> tuple[QpdTerm, ...]:
    """Measure-and-prepare identity-channel decomposition (8 terms), built once per process."""
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
        QpdTerm(c, (("measure", p),), (_U(f"prep {s}", np.outer(PREP_STATES[s], (1, 0))),),
                f"{'+' if c > 0 else '-'}1/2 meas {p} prep {s}")
        for c, p, s in spec
    )


def _composed(instrs: tuple) -> tuple:
    """A cut end's instructions, each run of consecutive matrices multiplied into one."""
    out: list[tuple] = []
    for instr in instrs:
        if instr[0] == "u" and out and out[-1][0] == "u":
            _, name, m = out.pop()
            instr = _U(f"{name} {instr[1]}", instr[2] @ m)
        out.append(instr)
    return tuple(out)


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


@functools.cache
def gatecut_terms(kind: str) -> tuple[QpdTerm, ...]:
    """Six-term local decomposition of a cut CZ or CX channel, built once per process.

    Each end's consecutive matrices are multiplied into one (``_composed``).
    """
    if kind == "cz":
        rows = _cz_terms()
    elif kind == "cx":
        h = _U("h", GATE_1Q["h"])
        rows = [
            (c, a, (h, *b, h), label) for c, a, b, label in _cz_terms()
        ]
    else:
        raise QpdError(f"no quasi-probability decomposition for gate kind {kind!r}")
    return tuple(QpdTerm(c, _composed(a), _composed(b), f"{c:+g} {label}")
                 for c, a, b, label in rows)


# --- cut-end instructions ---------------------------------------------------


class _Stack(NamedTuple):
    """The branches of a part walk, one per row.

    ``states`` has shape (rows, 2^n). Each row has a sign ``weight`` (from
    mzsign splits) and a ``path`` id (its distinct instruction list at each
    gate-cut and prep end so far, mixed-radix).
    """

    states: np.ndarray
    weights: np.ndarray
    paths: np.ndarray


def _root(state: np.ndarray) -> _Stack:
    """A one-row stack holding ``state``, with weight 1."""
    return _Stack(np.asarray(state, dtype=complex)[None], np.ones(1), np.zeros(1, dtype=np.int64))


def _apply_endpoint(stack: _Stack, instrs: tuple, wire: int) -> _Stack:
    """Apply one gate-cut or prep end's instructions to every branch of a part walk."""
    for instr in instrs:
        if instr[0] == "u":
            stack = stack._replace(states=apply_1q(stack.states, instr[2], wire))
        else:  # mzsign: Pi0 rho Pi0 - Pi1 rho Pi1 splits each branch
            rows = len(stack.weights)
            states = np.repeat(stack.states, 2, axis=0)
            halves = states.reshape(rows, 2, -1, 2, 1 << wire)
            halves[:, 0, :, 1] = 0  # row 2r keeps bit 0 of the wire, with weight w
            halves[:, 1, :, 0] = 0  # row 2r + 1 keeps bit 1, with weight -w
            weights = np.repeat(stack.weights, 2) * np.tile((1.0, -1.0), rows)
            stack = _Stack(states, weights, np.repeat(stack.paths, 2))
    return stack


def _leaf_masks(xs, zs, measured: list) -> tuple[np.ndarray, np.ndarray]:
    """The words (xs, zs) under every combination of letters measured at wire cuts.

    ``measured`` holds (wire, letters) per wire-cut measure end. A measured
    wire is idle after its cut, so its letter joins each word at the leaf.
    The result is indexed [first end's letter, ..., word], flattened.
    """
    xs, zs = np.asarray(xs, dtype=np.int64), np.asarray(zs, dtype=np.int64)
    for wire, letters in reversed(measured):
        bx, bz = np.array([_MASKS[p] for p in letters], dtype=np.int64).T << wire
        xs, zs = np.bitwise_or.outer(bx, xs).ravel(), np.bitwise_or.outer(bz, zs).ravel()
    return xs, zs


# --- build-time channel verification -------------------------------------


def _random_pure_states(num_states: int, dim: int, seed: int) -> np.ndarray:
    """``num_states`` seeded random pure states, one per row.

    Row k holds the k-th state a loop drawing one state at a time would
    draw from ``default_rng(seed)``: ``dim`` real parts, then ``dim``
    imaginary parts. Each row is normalized by its own ``np.linalg.norm``
    call, so it matches that loop bit for bit.
    """
    if num_states < 1:
        raise QpdError(f"num_states must be at least 1, got {num_states}")
    draws = np.random.default_rng(seed).normal(size=(num_states, 2, dim))
    states = draws[:, 0] + 1j * draws[:, 1]
    return states / np.array([np.linalg.norm(v) for v in states])[:, None]


def _trace_distances(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per state, half the trace norm of sum_k w_k |r_k><r_k|.

    ``rows`` has shape (states, k, d) and ``weights`` (states, k): a
    channel's output rows with their weights, and the target row with
    weight -1. One ``einsum`` builds every difference and one batched
    ``eigvalsh`` takes their spectra.
    """
    diff = np.einsum("sk,ski,skj->sij", weights, rows, rows.conj())
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)


def _worst(what: str, distances: np.ndarray, tol: float) -> float:
    worst = float(distances.max())
    if not worst <= tol:  # a NaN distance fails too
        raise QpdError(f"{what} check failed: trace distance {worst}")
    return worst


def _wirecut_distances(states: np.ndarray) -> np.ndarray:
    """Each state's trace distance from the measure-and-prepare sum applied to it.

    One ``pauli_expectations`` call reads every term's measured letter
    (through ``_leaf_masks``) on the whole stack, and each term's prep end
    goes through ``_apply_endpoint``: the code reconstruction runs.
    """
    terms = wirecut_terms()
    xs, zs = _leaf_masks([0], [0], [(0, [t.left_op[0][1] for t in terms])])
    values = pauli_expectations(states, xs, zs).real
    prepared = [_apply_endpoint(_root(PREP_STATES["0"]), t.right_op, 0) for t in terms]
    rows = np.concatenate([p.states for p in prepared])
    weights = np.concatenate([t.coefficient * p.weights for t, p in zip(terms, prepared)])
    rows = np.concatenate([np.broadcast_to(rows, (len(states), *rows.shape)), states[:, None]], 1)
    weights = np.concatenate([values * weights, np.full((len(states), 1), -1.0)], 1)
    return _trace_distances(rows, weights)


def verify_wirecut_identity(num_states: int = 100, seed: int = 11, tol: float = 1e-12) -> float:
    """Max trace distance of the measure-and-prepare sum from the identity.

    All ``num_states`` seeded states are checked in one stacked pass
    (``_wirecut_distances``).
    """
    states = _random_pure_states(num_states, 2, seed)
    return _worst("wire-cut identity", _wirecut_distances(states), tol)


_GATE_MATRIX = {
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    # control is the first tensor factor here
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}


def _gatecut_distances(kind: str, states: np.ndarray) -> np.ndarray:
    """Each state's trace distance from the QPD channel sum applied to it.

    Each term's two ends go through ``_apply_endpoint`` once, on the stack
    of all states, the code reconstruction runs. An mzsign end splits row r
    into rows 2r and 2r + 1, so each state's rows stay contiguous.
    """
    terms = gatecut_terms(kind)
    coeff_sum = sum(t.coefficient for t in terms)
    if coeff_sum != 1.0:
        raise QpdError(f"{kind} QPD coefficients sum to {coeff_sum}, not 1")
    count = len(states)
    root = _Stack(states, np.ones(count), np.zeros(count, dtype=np.int64))
    rows, weights = [], []
    for t in terms:
        # The first tensor factor (the gate's first qubit) is wire 1.
        stack = _apply_endpoint(_apply_endpoint(root, t.left_op, 1), t.right_op, 0)
        rows.append(stack.states.reshape(count, -1, states.shape[1]))
        weights.append(t.coefficient * stack.weights.reshape(count, -1))
    rows.append((states @ _GATE_MATRIX[kind].T)[:, None])
    weights.append(np.full((count, 1), -1.0))
    return _trace_distances(np.concatenate(rows, 1), np.concatenate(weights, 1))


def verify_gatecut_channel(kind: str, num_states: int = 100, seed: int = 13,
                           tol: float = 1e-12) -> float:
    """Max trace distance of the QPD channel sum from the true gate channel.

    All ``num_states`` seeded states are checked in one stacked pass
    (``_gatecut_distances``), after the coefficients' exact sum.
    """
    states = _random_pure_states(num_states, 4, seed)
    return _worst(f"{kind} gate-cut channel", _gatecut_distances(kind, states), tol)


@functools.cache
def _ensure_verified(kind: str) -> None:
    """Check one cut kind's decomposition, once per process (a failed check is not cached)."""
    if kind == "wire":
        verify_wirecut_identity(num_states=20)
    else:
        verify_gatecut_channel(kind, num_states=20)


# --- reconstruction -------------------------------------------------------


class ReconstructionResult(NamedTuple):
    value: float  # the finite-shot estimate when shots were given, else exact_value
    num_combinations: int
    num_subexperiments: int
    exact_value: float


def _onto(wires: Sequence[int], ops: Sequence, xs: Sequence[int], zs: Sequence[int]):
    """Gate runs and cut ends, and the words (xs, zs), moved onto ``wires``.

    Wire ``wires[i]`` becomes wire i: each run is rebuilt on the new width
    and each cut end's wire renumbered. Every op must act on listed wires
    only; a word's letters on the other wires are dropped. The map is
    injective, so the moved gates are not checked again. Returns the ops,
    xs and zs.
    """
    local = {w: i for i, w in enumerate(wires)}
    moved = [
        Circuit._make((len(wires), tuple(g._moved(tuple([local[q] for q in g.qubits]))
                                         for g in op.gates)))
        if isinstance(op, Circuit) else op._replace(wire=local[op.wire])
        for op in ops
    ]
    return moved, _move_bits(xs, local.items()), _move_bits(zs, local.items())


def _walked_wires(sub) -> list[int]:
    """A part's wires that a gate or a cut end touches, in order: the wires its walk simulates."""
    busy: set[int] = set()
    for op in sub.ops:
        if isinstance(op, Circuit):
            busy.update(q for g in op.gates for q in g.qubits)
        else:
            busy.add(op.wire)
    return sorted(busy)


def _part_table(sub, cut_terms, walked):
    """One part's values, indexed by [incident cuts' term choices..., observable term].

    A breadth-first walk of the op stream: one ``simulate`` call takes the
    whole stack of branch states through each gate run, and each gate-cut
    or prep end grows the stack once per distinct instruction list, so every
    shared prefix is simulated once. A cut end whose grown stack would pass
    STACK_BYTES, one simulator block (512 KiB), walks each instruction list
    on in turn instead. Every kernel works in slices of one block anyway, so
    a split below it would only add fusion and kernel dispatch per
    ``simulate`` call. A wire-cut measure end leaves the stack alone: its
    distinct letters are a table axis, and at the leaf one
    ``pauli_expectations`` call evaluates each of the part's words under
    every combination of measured letters (``_leaf_masks``). The rows are
    summed by path. Returns the table and the cut of each of its leading
    axes, in op order.

    A tall gate run, one that the walk takes at least 2^n rows through in
    all (counted before the walk, from each end's instruction lists and
    their mzsign doublings), costs less as a unitary: one ``simulate`` call
    on the 2^n-row identity stack, on first use, and one matrix product per
    (sub-)stack (``apply_images``). The count does not depend on
    STACK_BYTES, so every sub-walk of a split makes the same choice and the
    bound moves no value. A unitary larger than one simulator block (parts
    over 7 qubits) is not built.

    An idle wire, one with no gate in any run and no cut end (not in
    ``walked``, from ``_walked_wires``), stays in |0> on every branch, so a
    word with X or Y (its x bit) on one is worth 0. The walk runs on the
    walked wires only, and the word axis is multiplied by that 0/1 mask.
    """
    ops, xs, zs = sub.ops, [w.x for w in sub.words], [w.z for w in sub.words]
    word_mask = None
    if len(walked) < sub.n:
        idle = (1 << sub.n) - 1 - sum(1 << w for w in walked)
        word_mask = np.array([not x & idle for x in xs], dtype=complex)
        ops, xs, zs = _onto(walked, ops, xs, zs)
    ends: dict[int, tuple] = {}  # op index -> (wire, distinct instruction lists)
    measured: list[tuple] = []  # per measure end: (wire, distinct letters)
    letter_axes: list[int] = []  # the measure ends' places among the cut axes
    axes: list[int] = []
    choices: list[list[int]] = []  # per cut end: each term's distinct-list index
    for i, op in enumerate(ops):
        if isinstance(op, Circuit):
            continue
        per_term = [(t.left_op, t.right_op)[op.side] for t in cut_terms[op.cut]]
        keys = [tuple(instr[:2] for instr in instrs) for instrs in per_term]
        distinct = list(dict.fromkeys(keys))
        if keys[0][0][0] == "measure":  # a wire cut's measure end
            letter_axes.append(len(axes))
            measured.append((op.wire, [key[0][1] for key in distinct]))
        else:
            ends[i] = (op.wire, [per_term[keys.index(key)] for key in distinct])
        axes.append(op.cut)
        choices.append([distinct.index(key) for key in keys])
    shape = [len(lists) for _, lists in ends.values()]
    shape += [len(letters) for _, letters in measured] + [len(sub.words)]
    table = np.zeros(math.prod(shape), dtype=complex)
    leaf_xs, leaf_zs = _leaf_masks(xs, zs, measured)
    # Each end multiplies the rows by its growth; tall runs map to their
    # unitaries, built on first use.
    growth = {i: sum(1 << sum(instr[0] == "mzsign" for instr in instrs) for instrs in lists)
              for i, (_, lists) in ends.items()}
    rows, unitaries = 1, {}
    for i, op in enumerate(ops):
        rows *= growth.get(i, 1)
        if isinstance(op, Circuit) and rows >= 1 << op.n and 4**op.n <= _BLOCK:
            unitaries[i] = None

    def run(i: int, states: np.ndarray) -> np.ndarray:
        if i not in unitaries:
            return simulate(ops[i], states)
        if unitaries[i] is None:
            unitaries[i] = simulate(ops[i], np.eye(1 << ops[i].n, dtype=complex))
        return apply_images(states, unitaries[i])

    def walk(start: int, stack: _Stack) -> None:
        for i in range(start, len(ops)):
            if i not in ends:  # a gate run, or a measure end, read at the leaf
                if isinstance(ops[i], Circuit):
                    stack = stack._replace(states=run(i, stack.states))
                continue
            wire, lists = ends[i]
            grown = [stack._replace(paths=stack.paths * len(lists) + k) for k in range(len(lists))]
            if len(stack.paths) * growth[i] * stack.states[0].nbytes > STACK_BYTES:
                for part, instrs in zip(grown, lists):
                    walk(i + 1, _apply_endpoint(part, instrs, wire))
                return
            parts = [_apply_endpoint(part, instrs, wire) for part, instrs in zip(grown, lists)]
            stack = _Stack(*(np.concatenate(column) for column in zip(*parts)))
        values = pauli_expectations(stack.states, leaf_xs, leaf_zs)
        cells = stack.paths[:, None] * len(leaf_xs) + np.arange(len(leaf_xs))
        np.add.at(table, cells, stack.weights[:, None] * values)

    walk(0, _root(zero_state(len(walked))))
    table = table.reshape(shape)
    if word_mask is not None:
        table *= word_mask
    table = np.moveaxis(table, range(len(ends), len(axes)), letter_axes)
    for axis, choice in enumerate(choices):
        table = table.take(choice, axis=axis)
    return table, axes


def _snapped(values: np.ndarray) -> np.ndarray:
    """values clipped to [-1, 1], each within 1e-12 of -1, 0 or +1 set to it."""
    values = np.clip(values, -1.0, 1.0)
    nearest = np.round(values)
    return np.where(np.abs(values - nearest) <= 1e-12, nearest, values)


def reconstruct(
    extraction: Extraction,
    shots: int | None = None,
    sample_seed: int = 0,
) -> ReconstructionResult:
    """Recombine exact subcircuit expectations across all QPD term choices, from |0...0>.

    A part's value depends only on the term choices of the cuts it touches,
    so the sum over the 6^kg * 8^kw combinations factorises: one
    ``np.einsum`` contracts each part's table (``_part_table``) with every
    cut's coefficient vector and the observable's term coefficients, in a
    fixed order, so reruns are bit-identical. Plans above
    MAX_QPD_COMBINATIONS, and plans with a part whose walked wires pass the
    simulator cap, are refused before anything is simulated or checked.

    ``shots`` switches ``value`` to a demonstration mode that replaces each
    table entry v with a binomial estimate (outcomes are +-1-valued, so v is
    resampled as 2*Binomial(shots, (1+v)/2)/shots - 1); ``exact_value`` is
    still contracted from the exact tables, so one walk gives both. An entry
    within 1e-12 of -1, 0 or +1 is drawn as exactly that value: the binomial
    draw, and the random stream it leaves for later draws, jumps at p = 0,
    1/2 and 1, so a last-bit change in the simulation must not move it.
    """
    plan = extraction.plan
    if shots is not None and shots < 1:
        raise QpdError("shots must be positive")
    # Cut c < kg is gate cut c; cut kg + j is wire cut j.
    cut_terms = [gatecut_terms(kind) for kind in extraction.gate_cut_infos]
    cut_terms += [wirecut_terms()] * len(extraction.wire_cut_infos)
    num_combos = math.prod(len(terms) for terms in cut_terms)
    if num_combos > MAX_QPD_COMBINATIONS:
        raise QpdError(f"plan needs {num_combos} QPD combinations (6^kg * 8^kw), "
                       f"more than the limit {MAX_QPD_COMBINATIONS}")
    walked = [_walked_wires(sub) for sub in extraction.subcircuits]
    for label, wires in zip(plan.parts, walked):
        try:
            _check_width(len(wires))
        except SimulationError as exc:
            raise SimulationError(f"part {label}: {exc}") from None
    for kind in set(extraction.gate_cut_infos):
        _ensure_verified(kind)
    if extraction.wire_cut_infos:
        _ensure_verified("wire")

    term_axis = len(cut_terms)
    tables, axes = zip(*(_part_table(sub, cut_terms, wires)
                         for sub, wires in zip(extraction.subcircuits, walked)))
    coefficients: list = []
    for c, terms in enumerate(cut_terms):
        coefficients += [np.array([t.coefficient for t in terms]), [c]]
    coefficients += [np.array(extraction.term_coeffs), [term_axis]]
    # the rounding residue grows with the observable's scale, and so does its bound
    residue_bound = 1e-9 * max(1.0, sum(map(abs, extraction.term_coeffs)))

    def contract(values) -> float:
        operands = [x for table, ax in zip(values, axes) for x in (table, ax + [term_axis])]
        total = complex(np.einsum(*operands, *coefficients, []))
        if abs(total.imag) > residue_bound:
            raise QpdError(f"reconstructed value has imaginary residue {total.imag}")
        return float(total.real)

    exact = value = contract(tables)
    if shots:
        # Each subexperiment measures a +-1 observable; emulate a finite-shot
        # estimate of its (real) expectation.
        sampler = np.random.default_rng((sample_seed, 977))
        value = contract([2.0 * sampler.binomial(shots, 0.5 * (1.0 + _snapped(t.real)))
                          / shots - 1.0 for t in tables])
    return ReconstructionResult(
        value=value,
        num_combinations=num_combos,
        num_subexperiments=num_combos * len(extraction.subcircuits),
        exact_value=exact,
    )


def cut_and_reconstruct(circuit: Circuit, plan: CutPlan, obs: Observable) -> ReconstructionResult:
    """extract_subcircuits + reconstruct in one call."""
    return reconstruct(extract_subcircuits(circuit, plan, obs))


def uncut_expectation(circuit: Circuit, obs: Observable) -> float:
    """The dense-simulation reference value for the same inputs, from |0...0>.

    Only the observable's backward light cone (``backprop.light_cone``) is
    simulated, on the cone's wires. Every other wire carries only I
    letters, so it drops out. When the cone holds every wire, its gates run
    on the circuit's own width, and when it holds every gate too, the
    circuit runs as given. The simulator's width cap applies to the cone,
    not to the circuit.
    """
    if obs.n != circuit.n:
        raise SimulationError(f"observable width {obs.n} != circuit width {circuit.n}")
    obs = canonicalize(obs)
    cone, wires = light_cone(circuit, obs)
    if len(wires) < circuit.n:
        (cone,), xs, zs = _onto(wires, [cone], _mask_ints(obs.x), _mask_ints(obs.z))
        limbs = _limbs(len(wires))
        obs = _from_rows(len(wires), _pack_masks(xs, limbs), _pack_masks(zs, limbs),
                         obs.coeffs, True)
    return expectation(simulate(cone), obs)
