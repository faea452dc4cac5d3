"""Reference implementations used to check the package.

The dense-matrix references are built directly from 2x2 matrices and
Kronecker products, independently of the package's simulator and Pauli
algebra, so the two sides of every comparison are computed by different
code. ``crossing_count`` recounts a bipartition's crossing gates from
scratch, as the reference for the cut search's running count.
``objective`` composes the public pipeline stages directly, as the
reference for the annealer's single-pass objective evaluator.
``per_subcircuit_costs`` masks the observable to each part's qubits, as
the reference for the per-subcircuit accounting that reads the part's
extraction.
``einsum_simulate`` applies gates one at a time, each out of place (one
``np.einsum`` per 1-qubit gate or Pauli letter, index arrays for ``cx``
and ``cz``), as the reference for the simulator's in-place, fused kernels.
``conflict_adjacency``, ``dsatur_colors`` and ``first_fit_colors`` are the
pair-loop QWC colorers, and ``qwc_groups`` composes them as ``group_qwc``
does, as the reference for its conflict-matrix and array DSATUR kernel;
``int_key_dsatur_colors`` is the array DSATUR with an integer key and one
masked add a turn, as the reference for the float key and its new-color
shortcut on graphs too large for the pair loops;
``qubitwise_commutes`` is their pairwise test. ``refine_wire_cuts`` prices
every cut position of a wire from a prefix list and a dict, and sweeps
every wire in every pass, as the reference for the cut search's one-sweep
refinement. ``interaction_graph`` counts the 2-qubit gates on each qubit
pair. ``part_table`` is the depth-first reconstruction walk, one
``simulate`` call per branch and gate run and one ``np.vdot`` per branch
and word, as the reference for the breadth-first stack walk.
``conjugate_clifford`` checks that a gate is Clifford before conjugating
by it, and ``max_imag`` is an observable's largest imaginary coefficient.
``canonicalize`` merges terms in a dict and ``conjugate_gate_terms`` splits
one term at a time with ``multiply`` and ``commutes``, canonicalizing after
each rotation, as the references for the packed-array canonicalization and
rotation kernel; ``truncate_terms`` sorts term objects and sums the dropped
mass over Python floats, as the reference for the array truncation.
``per_arg_parse_qasm`` matches each qubit argument with its
own regex and evaluates every angle with ``ast_eval_angle``, through ``ast``
alone, as the reference for the parser's one-match gate statement and its
``float()`` literals on well-formed argument lists.
``wirecut_distances`` and ``gatecut_distances`` check a cut's decomposition
one seeded state at a time (``seeded_pure_states``), each term one branch
list through ``apply_endpoint``, a measured letter's value one ``np.vdot``
and every trace distance one ``eigvalsh``, as the reference for the
stacked channel checks.
``random_observable`` and ``random_product_factors`` make seeded test inputs;
``product_layer`` prepares those factors from |0...0> with gates, and
``after`` puts it before a circuit and moves a plan's cuts past it.
``perfbench_inputs`` loads the benchmark's input generators.
"""

import ast
import importlib.util
import math
import re
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from cutprop.annealing import AnnealError
from cutprop.backprop import _ROTATIONS, BackpropError, backpropagate, conjugate_gate
from cutprop.circuits import (
    CLIFFORD_2Q,
    QASM_GATES,
    Circuit,
    Gate,
    QasmError,
    _clifford_quarter_turns,
)
from cutprop.cutting import (
    CutPlan,
    cost,
    find_cuts,
    total_executions,
)
from cutprop.paulis import (
    _MASKS,
    COEFF_TOL,
    Observable,
    PauliError,
    PauliString,
    PauliTerm,
    _from_rows,
    _limbs,
    _pack_masks,
    commutes,
    group_qwc,
    multiply,
)
from cutprop.paulis import canonicalize as package_canonicalize
from cutprop.qpd import PREP_STATES
from cutprop.sim import apply_1q, apply_pauli, simulate, zero_state

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
S2 = 1 / np.sqrt(2)
GATE_1Q = {
    "h": S2 * np.array([[1, 1], [1, -1]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "x": PAULI["X"],
    "y": PAULI["Y"],
    "z": PAULI["Z"],
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
}


def word_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli word; leftmost letter is qubit 0 (the LSB)."""
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(PAULI[ch], m)
    return m


def embed_1q(u: np.ndarray, q: int, n: int) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for k in range(n):
        m = np.kron(u if k == q else I2, m)
    return m


def cx_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = b ^ (1 << target) if (b >> control) & 1 else b
        m[out, b] = 1.0
    return m


def cz_matrix(a: int, b: int, n: int) -> np.ndarray:
    dim = 1 << n
    diag = np.ones(dim, dtype=complex)
    for idx in range(dim):
        if (idx >> a) & 1 and (idx >> b) & 1:
            diag[idx] = -1.0
    return np.diag(diag)


def rz_embedded(theta: float, q: int, n: int) -> np.ndarray:
    u = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    return embed_1q(u, q, n)


def rotation_matrix(axis_label: str, theta: float) -> np.ndarray:
    """exp(-i*theta/2 * P) for a full-width axis word."""
    a = word_matrix(axis_label)
    dim = a.shape[0]
    return np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * a


def gate_matrix(gate, n: int) -> np.ndarray:
    """Dense matrix of one package Gate (reference path, no simulator)."""
    if gate.kind in GATE_1Q:
        return embed_1q(GATE_1Q[gate.kind], gate.qubits[0], n)
    if gate.kind == "rz":
        return rz_embedded(gate.angle, gate.qubits[0], n)
    if gate.kind == "cx":
        return cx_matrix(gate.qubits[0], gate.qubits[1], n)
    if gate.kind == "cz":
        return cz_matrix(gate.qubits[0], gate.qubits[1], n)
    if gate.kind == "rot":
        letters = ["I"] * n
        for q, ch in zip(gate.qubits, gate.axis):
            letters[q] = ch
        return rotation_matrix("".join(letters), gate.angle)
    raise ValueError(f"no dense matrix for {gate.kind}")


def circuit_unitary(circuit) -> np.ndarray:
    u = np.eye(1 << circuit.n, dtype=complex)
    for g in circuit.gates:
        u = gate_matrix(g, circuit.n) @ u
    return u


def obs_matrix(obs) -> np.ndarray:
    total = np.zeros((1 << obs.n, 1 << obs.n), dtype=complex)
    for term in obs.terms:
        total += term.coeff * word_matrix(term.word.label())
    return total


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def objective(circuit, obs, w, slicing="auto", cut_seed=0):
    """Executions needed after backpropagating with budget w and cutting.

    One fresh backpropagation and cut search per call, with no sharing
    between budgets.
    """
    if w < 1:
        raise AnnealError("w must be >= 1")
    result = backpropagate(circuit, obs, w, slicing=slicing)
    if result.fully_absorbed:
        return 0
    plan = find_cuts(result.reduced_circuit, seed=cut_seed)
    return cost(plan, result.evolved_obs).total_executions


def per_subcircuit_costs(plan, obs) -> tuple[tuple[int, int], ...]:
    """``cost(plan, obs, circuit).per_subcircuit`` from qubit masks.

    A part's words are the observable's terms masked to the qubits whose
    final segment it holds.
    """
    obs = package_canonicalize(obs)
    rows = []
    for label, wires in plan.parts.items():
        qubit_mask = sum(1 << q for q, k in wires if k == len(plan.segments(q)) - 1)
        mask = _pack_masks([qubit_mask], _limbs(obs.n))
        ones = np.ones(len(obs), dtype=np.complex128)
        restricted = package_canonicalize(
            _from_rows(obs.n, obs.x & mask, obs.z & mask, ones, False))
        rows.append((label, len(group_qwc(restricted)) if len(restricted) else 1))
    return tuple(rows)


def crossing_count(gates2q, labels, cuts) -> int:
    """2-qubit gates whose endpoints sit on different sides.

    ``gates2q`` holds (time, wire, wire) triples, ``labels`` each wire's
    side before its cut and ``cuts`` maps a wire to the time of its one
    cut, from which on its side is flipped.
    """
    k = 0
    for t, u, v in gates2q:
        lu = labels[u] ^ (1 if u in cuts and t >= cuts[u] else 0)
        lv = labels[v] ^ (1 if v in cuts and t >= cuts[v] else 0)
        k += lu != lv
    return k


def refine_wire_cuts(problem, labels, max_passes: int = 8) -> tuple[dict[int, int], int]:
    """``problem.refine_wire_cuts(labels, max_passes)``, one crossing dict per wire sweep."""
    cuts: dict[int, int] = {}
    kg = sum(labels[u] != labels[v] for _, u, v in problem.gates2q)
    for _ in range(max_passes):
        changed = False
        for w, timeline in enumerate(problem.by_wire):
            if not problem.cuttable[w] or len(timeline) < 2:
                continue
            current = cuts.pop(w, None)
            # prefix[i]: the wire's gates before its i-th that cross while it is uncut.
            prefix = [0]
            for t, partner in timeline:
                pos = cuts.get(partner)
                seg = labels[partner] ^ (pos is not None and t >= pos)
                prefix.append(prefix[-1] + (labels[w] != seg))
            d, s = len(timeline), prefix[-1]
            # A cut before gate i flips the crossing status of gates i..d-1.
            crossings = {t: 2 * prefix[i] + d - i - s for i, (t, _) in enumerate(timeline)}
            own = s if current is None else crossings[current]
            best, pos = min((crossings[t], t) for t, _ in timeline[1:])
            new = s
            if total_executions(best, 1, 1) < total_executions(s, 0, 1):
                cuts[w], new = pos, best
            kg += new - own
            changed |= cuts.get(w) != current
        if not changed:
            break
    return cuts, kg


def interaction_graph(circuit) -> dict[tuple[int, int], int]:
    """Edge weights = number of multi-qubit gates coupling each qubit pair."""
    weights: dict[tuple[int, int], int] = {}
    for g in circuit.gates:
        if len(g.qubits) < 2:
            continue
        for a, b in combinations(sorted(g.qubits), 2):
            weights[(a, b)] = weights.get((a, b), 0) + 1
    return weights


def einsum_apply_1q(state, u, q):
    n = state.size.bit_length() - 1
    psi = state.reshape(1 << (n - q - 1), 2, 1 << q)
    return np.einsum("ab,ibj->iaj", u, psi).reshape(state.size)


def einsum_apply_gate(state, gate, n):
    """One gate out of place: einsum for 1-qubit gates, index arrays for cx and cz."""
    if gate.kind in GATE_1Q:
        return einsum_apply_1q(state, GATE_1Q[gate.kind], gate.qubits[0])
    if gate.kind == "rz":
        u = np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
        return einsum_apply_1q(state, u, gate.qubits[0])
    idx = np.arange(state.size)
    if gate.kind == "cx":
        c, t = gate.qubits
        sel = ((idx >> c) & 1) == 1
        out = state.copy()
        out[sel] = state[(idx ^ (1 << t))[sel]]
        return out
    if gate.kind == "cz":
        a, b = gate.qubits
        return state * np.where(((idx >> a) & 1) & ((idx >> b) & 1), -1.0, 1.0)
    if gate.kind == "rot":
        rotated = state
        for q, ch in zip(gate.qubits, gate.axis):
            rotated = einsum_apply_1q(rotated, PAULI[ch], q)
        return np.cos(gate.angle / 2) * state - 1j * np.sin(gate.angle / 2) * rotated
    raise ValueError(f"no reference kernel for {gate.kind}")


def einsum_simulate(circuit, initial):
    state = np.asarray(initial, dtype=complex)
    for gate in circuit.gates:
        state = einsum_apply_gate(state, gate, circuit.n)
    return state


def qubitwise_commutes(p: PauliString, q: PauliString) -> bool:
    """True iff at every qubit the letters are equal or at least one is I."""
    if p.n != q.n:
        raise PauliError(f"size mismatch: {p.n} vs {q.n} qubits")
    conflict = (p.x | p.z) & (q.x | q.z) & ((p.x ^ q.x) | (p.z ^ q.z))
    return conflict == 0


def conflict_adjacency(words: Sequence[PauliString]) -> list[set[int]]:
    m = len(words)
    adj: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if not qubitwise_commutes(words[i], words[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def first_fit_colors(words: Sequence[PauliString], adj: list[set[int]]) -> list[int]:
    colors = [-1] * len(words)
    for i in range(len(words)):
        used = {colors[j] for j in adj[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def dsatur_colors(words: Sequence[PauliString], adj: list[set[int]]) -> list[int]:
    m = len(words)
    colors = [-1] * m
    degrees = [len(adj[i]) for i in range(m)]
    saturation: list[set[int]] = [set() for _ in range(m)]
    for _ in range(m):
        # Highest saturation, then highest degree, then canonical term order.
        best = min(
            (i for i in range(m) if colors[i] < 0),
            key=lambda i: (-len(saturation[i]), -degrees[i], i),
        )
        used = saturation[best]
        c = 0
        while c in used:
            c += 1
        colors[best] = c
        for j in adj[best]:
            saturation[j].add(c)
    return colors


def qwc_groups(obs) -> tuple[tuple[int, ...], ...]:
    """``group_qwc(obs)`` from the pair-loop colorers."""
    words = tuple(t.word for t in obs.terms)
    if not words:
        return ()
    adj = conflict_adjacency(words)
    colors = dsatur_colors(words, adj)
    ff = first_fit_colors(words, adj)
    if max(ff) < max(colors):
        colors = ff
    groups: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for i, c in enumerate(colors):
        groups[c].append(i)
    return tuple(sorted((tuple(g) for g in groups), key=lambda g: g[0]))


def int_key_dsatur_colors(conflict: np.ndarray) -> tuple[list[int], int]:
    """``paulis._dsatur_colors`` with the integer key ``saturation * (m + 1) + degree``.

    Every turn raises the saturation of the neighbors with no neighbor of
    the turn's color through one masked add, whether the color is new or
    reused. Returns the colors and the opening clique's length.
    """
    m = len(conflict)
    used = np.zeros((m, m), dtype=bool)
    colors = [0] * m
    key = conflict.sum(axis=1, dtype=np.int64)
    # A colored vertex's key gains at most (m - 1) * (m + 1) more, so it stays
    # below every uncolored key (>= 0).
    colored = -m * (m + 1)
    ncolors = clique = 0
    for turn in range(m):
        v = int(key.argmax())
        c = int(used[: ncolors + 1, v].argmin())
        colors[v] = c
        clique += c == turn
        ncolors = max(ncolors, c + 1)
        neighbors = conflict[v]
        key[v] = colored
        np.add(key, m + 1, out=key, where=neighbors > used[c])
        used[c] |= neighbors
    return colors, clique


def conjugate_clifford(obs, gate):
    """G_dag O G for a Clifford gate; term count and magnitudes unchanged."""
    if not gate.is_clifford():
        raise BackpropError(f"gate {gate} is not Clifford")
    return conjugate_gate(obs, gate)


def canonicalize(obs):
    """Sort terms, merge duplicate words, drop terms with |coeff| < 1e-14."""
    acc: dict[tuple[int, int], complex] = {}
    for t in obs.terms:
        key = (t.word.x, t.word.z)
        acc[key] = acc.get(key, 0j) + complex(t.coeff)
    terms = tuple(
        PauliTerm(c, PauliString(obs.n, x, z))
        for (x, z), c in sorted(acc.items())
        if abs(c) >= COEFF_TOL
    )
    return Observable(obs.n, terms)


def conjugate_rotation_terms(obs, axis, angle):
    """Backprop's ``_conjugate(obs, [(axis, angle)])`` one term at a time."""
    k = _clifford_quarter_turns(angle)
    if k is not None:
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
    else:
        c, s = math.cos(angle), math.sin(angle)
    terms = []
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


def conjugate_gate_terms(obs, gate):
    """``conjugate_gate`` one rotation and one term at a time, last rotation first."""
    if gate.kind not in _ROTATIONS:
        return conjugate_rotation_terms(obs, gate.axis_word(obs.n), gate.angle)
    for letters, k in reversed(_ROTATIONS[gate.kind]):
        x = z = 0
        for q, ch in zip(gate.qubits, letters):
            x |= (ch in "XY") << q
            z |= (ch in "YZ") << q
        obs = conjugate_rotation_terms(obs, PauliString(obs.n, x, z), k * math.pi / 2)
    return obs


def truncate_terms(obs, budget):
    """``truncate`` one term object at a time."""
    if budget < 0:
        raise BackpropError("truncation budget must be nonnegative")
    if budget == 0 or not obs.terms:
        return obs, 0.0
    order = sorted(obs.terms, key=lambda t: (abs(t.coeff), t.word.x, t.word.z))
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


def max_imag(obs) -> float:
    return max((abs(t.coeff.imag) for t in obs.terms), default=0.0)


def _project(state: np.ndarray, wire: int, bit: int) -> np.ndarray:
    """A copy of state with every amplitude whose bit ``wire`` is not ``bit`` zeroed."""
    out = state.copy()
    out.reshape(-1, 2, 1 << wire)[:, 1 - bit] = 0
    return out


def apply_endpoint(branches: list, letters: tuple, instrs: tuple, wire: int):
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
        else:  # measure
            bx, bz = _MASKS[instr[1]]
            letters = (letters[0] | bx << wire, letters[1] | bz << wire)
    return branches, letters


def _vdot_expectations(state, xs, zs):
    n = state.size.bit_length() - 1
    return np.array(
        [np.vdot(state, apply_pauli(state, PauliString(n, int(x), int(z)))) for x, z in zip(xs, zs)],
        dtype=complex,
    )


def part_table(sub, cut_terms):
    """One part's values, indexed by [incident cuts' term choices..., observable term].

    A depth-first walk of the op stream evolves every branch through each
    gate run with ``simulate`` and branches at each cut end, once per
    distinct instruction list, so every shared prefix is simulated once.
    Each leaf evaluates the part's observable words, extended by the
    letters measured on its path. Returns the table and the cut of each of
    its leading axes, in op order. Every wire starts in |0>.
    """
    ends: dict[int, tuple] = {}  # op index -> (wire, instructions and key per term)
    axes: list[int] = []
    for i, op in enumerate(sub.ops):
        if isinstance(op, Circuit):
            continue
        per_term = [(t.left_op, t.right_op)[op.side] for t in cut_terms[op.cut]]
        keys = [tuple(instr[:2] for instr in instrs) for instrs in per_term]
        ends[i] = (op.wire, per_term, keys)
        axes.append(op.cut)

    def walk(start: int, branches: list, letters: tuple) -> np.ndarray:
        for i in range(start, len(sub.ops)):
            if i in ends:
                wire, per_term, keys = ends[i]
                done: dict[tuple, np.ndarray] = {}
                for key, instrs in zip(keys, per_term):
                    if key not in done:
                        done[key] = walk(i + 1, *apply_endpoint(branches, letters, instrs, wire))
                return np.stack([done[key] for key in keys])
            branches = [(w, simulate(sub.ops[i], s)) for w, s in branches]
        xs, zs = [w.x | letters[0] for w in sub.words], [w.z | letters[1] for w in sub.words]
        return sum(w * _vdot_expectations(s, xs, zs) for w, s in branches)

    return walk(0, [(1.0 + 0j, zero_state(sub.n))], (0, 0)), axes


def seeded_pure_states(num_states: int, dim: int, seed: int) -> list[np.ndarray]:
    """Random pure states drawn one at a time from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(num_states):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(v / np.linalg.norm(v))
    return states


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def _branch_density(branches: list) -> np.ndarray:
    return sum(w * np.outer(s, s.conj()) for w, s in branches)


def wirecut_distances(terms, num_states: int, seed: int) -> list[float]:
    """Per seeded 1-qubit state, the trace distance of the measure-and-prepare sum from it."""
    distances = []
    for v in seeded_pure_states(num_states, 2, seed):
        total = np.zeros((2, 2), dtype=complex)
        for t in terms:
            (_, letter), = t.left_op
            prepared, _ = apply_endpoint([(1.0, PREP_STATES["0"])], (0, 0), t.right_op, 0)
            total += t.coefficient * np.vdot(v, PAULI[letter] @ v).real * _branch_density(prepared)
        distances.append(_trace_distance(total, np.outer(v, v.conj())))
    return distances


def gatecut_distances(terms, kind: str, num_states: int, seed: int) -> list[float]:
    """Per seeded 2-qubit state, the trace distance of the QPD channel sum from the gate's.

    The gate's first qubit, its control for cx, is wire 1.
    """
    u = {"cz": cz_matrix, "cx": cx_matrix}[kind](1, 0, 2)
    distances = []
    for v in seeded_pure_states(num_states, 4, seed):
        total = np.zeros((4, 4), dtype=complex)
        for t in terms:
            branches, _ = apply_endpoint([(1.0, v)], (0, 0), t.left_op, 1)
            branches, _ = apply_endpoint(branches, (0, 0), t.right_op, 0)
            total += t.coefficient * _branch_density(branches)
        distances.append(_trace_distance(total, u @ np.outer(v, v.conj()) @ u.conj().T))
    return distances


def random_product_factors(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random single-qubit pure states, one per qubit."""
    factors = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors.append(v / np.linalg.norm(v))
    return factors


def product_layer(n: int, rng: np.random.Generator, qubits: Sequence[int] | None = None) -> Circuit:
    """h, rz(theta), h, rz(phi) on each of ``qubits`` (every qubit by default).

    From |0>, a qubit's four gates prepare (cos(theta/2), e^{i(phi - pi/2)}
    sin(theta/2)): the factor ``random_product_factors(n, rng)`` draws for
    it, up to a global phase. The layer draws just what that draws, so a
    test's later draws do not move. A qubit left out stays in |0>.
    """
    gates: list[Gate] = []
    for q, (a, b) in enumerate(random_product_factors(n, rng)):
        if qubits is None or q in qubits:
            theta = 2 * math.atan2(abs(b), abs(a))
            phi = float(np.angle(b) - np.angle(a)) + math.pi / 2
            gates += [Gate("h", (q,)), Gate("rz", (q,), angle=theta), Gate("h", (q,)),
                      Gate("rz", (q,), angle=phi)]
    return Circuit(n, tuple(gates))


def after(layer: Circuit, circuit: Circuit, plan: CutPlan | None = None):
    """``layer`` then ``circuit``, and ``plan`` with its cuts moved past the layer.

    Every gate-cut index and wire-cut position grows by the layer's gate
    count, so the plan cuts the same gates and wires. Returns the circuit
    and the plan (None when none is given).
    """
    shift = len(layer.gates)
    if plan is not None:
        plan = replace(plan, gate_cuts=tuple(t + shift for t in plan.gate_cuts),
                       wire_cuts=tuple((q, pos + shift, label) for q, pos, label in plan.wire_cuts))
    return Circuit(circuit.n, layer.gates + circuit.gates), plan


def random_observable(
    n: int, rng: np.random.Generator, max_weight: int = 3, num_terms: int = 3
) -> Observable:
    """Random Hermitian observable with a few low-weight Pauli terms."""
    terms = []
    for _ in range(num_terms):
        weight = int(rng.integers(1, max_weight + 1))
        qubits = rng.choice(n, size=min(weight, n), replace=False)
        x = z = 0
        for q in qubits:
            letter = int(rng.integers(0, 3))
            if letter in (0, 2):
                x |= 1 << int(q)
            if letter in (1, 2):
                z |= 1 << int(q)
        coeff = float(rng.uniform(-1.0, 1.0))
        terms.append((coeff + 0j, PauliString(n, x, z)))
    obs = Observable.from_terms(n, terms)
    if not obs.terms:
        obs = Observable.from_terms(n, [(1.0 + 0j, PauliString(n, 0, 1))])
    return obs


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^()]*(?:\([^()]*\))?[^()]*)\))?\s*(.*)$")
_ALLOWED_AST = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.UAdd, ast.Pow,
)


def ast_eval_angle(expr: str, lineno: int) -> float:
    """An angle expression evaluated through ``ast`` alone."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError:
        raise QasmError(f"malformed angle expression {expr!r}", lineno) from None

    def ev(node: ast.AST) -> float:
        try:
            value = term(node)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
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


def per_arg_parse_qasm(text: str) -> Circuit:
    """``parse_qasm`` with one regex per qubit argument and every angle through
    ``ast_eval_angle``, as the reference for the one-match gate statement and
    the float() literal on well-formed argument lists."""
    reg_name = None
    width = 0
    gates = []
    saw_header = False
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
                gates.append(Gate("rz", (qubits[0],), angle=ast_eval_angle(param, lineno)))
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


def perfbench_inputs():
    """The benchmark's input generators, ``perfbench/inputs.py``, as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclass looks its module up there
    spec.loader.exec_module(inputs)
    return inputs
