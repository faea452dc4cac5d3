"""Reference implementations used to check the package.

The dense-matrix references are built directly from 2x2 matrices and
Kronecker products, independently of the package's simulator and Pauli
algebra, so the two sides of every comparison are computed by different
code. ``crossing_count`` recounts a bipartition's crossing gates from
scratch, as the reference for the cut search's running count.
``objective`` composes the public pipeline stages directly, as the
reference for the annealer's single-pass objective evaluator.
``per_subcircuit_costs`` masks the observable to each part's qubits and
counts the cuts the plan puts on each part, as the reference for the
per-subcircuit accounting that reads the part's extraction.
``einsum_simulate`` applies gates one at a time, each out of place (one
``np.einsum`` per 1-qubit gate or Pauli letter, index arrays for ``cx``
and ``cz``), as the reference for the simulator's in-place, fused kernels.
``conflict_adjacency``, ``dsatur_colors`` and ``first_fit_colors`` are the
pair-loop QWC colorers, and ``qwc_groups`` composes them as ``group_qwc``
does, as the reference for its conflict-matrix and array DSATUR kernel;
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
``random_observable`` and ``random_product_factors`` make seeded test inputs.
"""

import math

from itertools import combinations
from typing import Sequence

import numpy as np

from cutprop.annealing import AnnealError
from cutprop.backprop import _ROTATIONS, BackpropError, backpropagate, conjugate_gate
from cutprop.circuits import Circuit, _clifford_quarter_turns
from cutprop.cutting import (
    GATE_CUT_FACTOR,
    WIRE_CUT_FACTOR,
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
from cutprop.sim import apply_1q, apply_pauli, product_state, simulate

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


def objective(circuit, obs, w, slicing="auto", trunc_budget_per_slice=0.0, cut_seed=0):
    """Executions needed after backpropagating with budget w and cutting.

    One fresh backpropagation and cut search per call, with no sharing
    between budgets.
    """
    if w < 1:
        raise AnnealError("w must be >= 1")
    result = backpropagate(circuit, obs, w, trunc_budget_per_slice, slicing)
    if result.fully_absorbed:
        return 0
    plan = find_cuts(result.reduced_circuit, seed=cut_seed)
    return cost(plan, result.evolved_obs).total_executions


def per_subcircuit_costs(plan, obs, circuit) -> tuple[tuple[int, int, int], ...]:
    """``cost(plan, obs, per_subcircuit=True, circuit=circuit).per_subcircuit``
    from qubit masks and cut incidence.

    A part's words are the observable's terms masked to the qubits whose
    final segment it holds. Its eta multiplies 9 per cut gate with an
    endpoint segment in the part and 16 per cut wire with a segment on
    either side in it, both read off the plan.
    """
    obs = package_canonicalize(obs)
    rows = []
    for label, wires in plan.parts.items():
        qubit_mask = sum(1 << q for q, k in wires if k == len(plan.segments(q)) - 1)
        mask = _pack_masks([qubit_mask], _limbs(obs.n))
        ones = np.ones(len(obs), dtype=np.complex128)
        restricted = package_canonicalize(
            _from_rows(obs.n, obs.x & mask, obs.z & mask, ones, False))
        g_i = group_qwc(restricted).group_count if len(restricted) else 1
        eta = 1
        for idx in plan.gate_cuts:
            touched = {plan.segment_label(q, idx) for q in circuit.gates[idx].qubits}
            if label in touched:
                eta *= GATE_CUT_FACTOR
        for q in range(plan.n):
            segs = plan.segments(q)
            for (_, old), (_, new) in zip(segs, segs[1:]):
                if label in (old, new):
                    eta *= WIRE_CUT_FACTOR
        rows.append((label, g_i, eta))
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
    """``group_qwc(obs).groups`` from the pair-loop colorers."""
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


def part_table(sub, cut_terms, initial_factors):
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

    return walk(0, [(1.0 + 0j, product_state(factors))], (0, 0)), axes


def random_product_factors(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random single-qubit pure states, one per qubit."""
    factors = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors.append(v / np.linalg.norm(v))
    return factors


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
