"""Circuit partitioning: cut search, plan validation, and execution cost.

A plan assigns a part label to every (qubit, time-segment). A wire cut at
(q, t) ends qubit q's current segment just before gate index t and starts a
new segment with a different label; a gate cut marks a 2-qubit gate whose
endpoint segments carry different labels. The execution-count accounting
multiplies 9 per gate cut and 16 per wire cut into the observable's
qubit-wise-commuting group count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .paulis import Observable, PauliString, PauliTerm, canonicalize, group_qwc

GATE_CUT_FACTOR = 9
WIRE_CUT_FACTOR = 16

# Above this width the bipartition search switches from exhaustive
# enumeration (2^(n-1) labelings) to seeded annealing over label vectors.
EXHAUSTIVE_LIMIT = 14


class CutError(ValueError):
    pass


@dataclass(frozen=True)
class CutPlan:
    """Partition labels plus the cut lists that realize them."""

    n: int
    labels: tuple[int, ...]  # label of each qubit's first segment
    wire_cuts: tuple[tuple[int, int, int], ...]  # (qubit, position, new_label)
    gate_cuts: tuple[int, ...]  # indices of cut 2-qubit gates
    num_subcircuits: int

    def segment_label(self, q: int, t: int) -> int:
        label = self.labels[q]
        for qq, pos, new in self.wire_cuts:
            if qq == q and t >= pos:
                label = new
        return label

    def final_label(self, q: int) -> int:
        return self.segment_label(q, 1 << 62)

    def part_labels(self) -> tuple[int, ...]:
        used = set(self.labels) | {new for _, _, new in self.wire_cuts}
        return tuple(sorted(used))

    @property
    def kg(self) -> int:
        return len(self.gate_cuts)

    @property
    def kw(self) -> int:
        return len(self.wire_cuts)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "labels": list(self.labels),
            "wire_cuts": [list(w) for w in self.wire_cuts],
            "gate_cuts": list(self.gate_cuts),
            "num_subcircuits": self.num_subcircuits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CutPlan":
        try:
            return cls(
                n=int(data["n"]),
                labels=tuple(int(v) for v in data["labels"]),
                wire_cuts=tuple(
                    (int(q), int(p), int(l)) for q, p, l in data["wire_cuts"]
                ),
                gate_cuts=tuple(int(i) for i in data["gate_cuts"]),
                num_subcircuits=int(data["num_subcircuits"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CutError(f"malformed cut plan: {exc}") from exc


@dataclass(frozen=True)
class CostReport:
    kg: int
    kw: int
    groups: int
    total_executions: int
    per_subcircuit: tuple[tuple[int, int, int], ...] | None = None  # (label, g_i, eta_i)

    def to_dict(self) -> dict:
        out = {
            "gate_cuts": self.kg,
            "wire_cuts": self.kw,
            "qwc_groups": self.groups,
            "total_executions": self.total_executions,
        }
        if self.per_subcircuit is not None:
            out["per_subcircuit"] = [
                {"label": l, "groups": g, "eta": e} for l, g, e in self.per_subcircuit
            ]
        return out


def total_executions(kg: int, kw: int, groups: int) -> int:
    """The normative accounting: groups * 9^kg * 16^kw."""
    return groups * GATE_CUT_FACTOR**kg * WIRE_CUT_FACTOR**kw


def interaction_graph(circuit: Circuit) -> dict[tuple[int, int], int]:
    """Edge weights = number of multi-qubit gates coupling each qubit pair."""
    weights: dict[tuple[int, int], int] = {}
    for g in circuit.gates:
        if len(g.qubits) < 2:
            continue
        for a, b in combinations(sorted(g.qubits), 2):
            weights[(a, b)] = weights.get((a, b), 0) + 1
    return weights


def validate_plan(circuit: Circuit, plan: CutPlan) -> None:
    """Raise CutError unless the plan is a consistent partition of the circuit."""
    if plan.n != circuit.n:
        raise CutError(f"plan width {plan.n} != circuit width {circuit.n}")
    if len(plan.labels) != plan.n:
        raise CutError("label vector length mismatch")
    per_qubit: dict[int, list[tuple[int, int]]] = {}
    for q, pos, new in plan.wire_cuts:
        if not (0 <= q < plan.n):
            raise CutError(f"wire cut on unknown qubit {q}")
        if not (0 <= pos <= len(circuit.gates)):
            raise CutError(f"wire cut position {pos} out of range")
        per_qubit.setdefault(q, []).append((pos, new))
    for q, cuts in per_qubit.items():
        positions = [p for p, _ in cuts]
        if len(set(positions)) != len(positions):
            raise CutError(f"duplicate wire cut positions on qubit {q}")
        label = plan.labels[q]
        for pos, new in sorted(cuts):
            if new == label:
                raise CutError(f"wire cut on qubit {q} does not change its label")
            label = new
    gate_cut_set = set(plan.gate_cuts)
    for idx in plan.gate_cuts:
        if not (0 <= idx < len(circuit.gates)) or len(circuit.gates[idx].qubits) != 2:
            raise CutError(f"gate cut index {idx} is not a 2-qubit gate")
    for t, g in enumerate(circuit.gates):
        if len(g.qubits) < 2:
            continue
        seg_labels = {plan.segment_label(q, t) for q in g.qubits}
        crossing = len(seg_labels) > 1
        if crossing and len(g.qubits) > 2:
            raise CutError(f"gate {t} couples >2 qubits across the partition")
        if crossing and t not in gate_cut_set:
            raise CutError(f"gate {t} crosses the partition but is not cut")
        if not crossing and t in gate_cut_set:
            raise CutError(f"gate {t} is cut but does not cross the partition")
    used = set(plan.labels) | {new for _, _, new in plan.wire_cuts}
    if len(used) != plan.num_subcircuits:
        raise CutError(
            f"{len(used)} labels in use but num_subcircuits={plan.num_subcircuits}"
        )
    if plan.num_subcircuits < 2:
        raise CutError("a plan must produce at least 2 subcircuits")


def _restrict_word(word: PauliString, qubit_mask: int) -> PauliString:
    return PauliString(word.n, word.x & qubit_mask, word.z & qubit_mask)


def cost(
    plan: CutPlan,
    evolved_obs: Observable,
    per_subcircuit: bool = False,
    circuit: Circuit | None = None,
) -> CostReport:
    """Execution-count accounting for a plan and an (evolved) observable.

    The per-subcircuit mode additionally reports each part's subobservable
    group count g_i and the product eta_i of factors over cuts incident to
    that part (this secondary accounting double-counts shared cuts; the
    ``total_executions`` field is the normative number).
    """
    obs = canonicalize(evolved_obs)
    groups = group_qwc(obs).group_count if obs.terms else 1
    total = total_executions(plan.kg, plan.kw, groups)
    per = None
    if per_subcircuit:
        if circuit is None:
            raise CutError("per-subcircuit accounting needs the circuit")
        rows = []
        for label in plan.part_labels():
            qubit_mask = 0
            for q in range(plan.n):
                if plan.final_label(q) == label:
                    qubit_mask |= 1 << q
            restricted = canonicalize(
                Observable(
                    obs.n,
                    tuple(PauliTerm(1.0 + 0j, _restrict_word(t.word, qubit_mask)) for t in obs.terms),
                )
            )
            g_i = group_qwc(restricted).group_count if restricted.terms else 1
            eta = 1
            for idx in plan.gate_cuts:
                touched = {plan.segment_label(q, idx) for q in circuit.gates[idx].qubits}
                if label in touched:
                    eta *= GATE_CUT_FACTOR
            for q, pos, new in plan.wire_cuts:
                old = plan.segment_label(q, pos - 1) if pos > 0 else plan.labels[q]
                if label in (old, new):
                    eta *= WIRE_CUT_FACTOR
            rows.append((label, g_i, eta))
        per = tuple(rows)
    return CostReport(plan.kg, plan.kw, groups, total, per)


# --- bipartition search -------------------------------------------------------


def _two_qubit_gates(circuit: Circuit) -> list[tuple[int, int, int]]:
    out = []
    for t, g in enumerate(circuit.gates):
        if len(g.qubits) == 2:
            out.append((t, g.qubits[0], g.qubits[1]))
        elif len(g.qubits) > 2:
            raise CutError("cut search supports at most 2-qubit interactions")
    return out


class _Bipartitioner:
    """Evaluates 0/1 labelings of a wire set with optional wire-cut flips.

    Wires are abstract here (a recursion level may pass qubit segments);
    ``cuttable[w]`` marks wires that may still take one wire cut.
    """

    def __init__(
        self,
        n: int,
        gates2q: Sequence[tuple[int, int, int]],
        cuttable: Sequence[bool] | None = None,
    ):
        self.n = n
        self.gates2q = list(gates2q)
        self.cuttable = list(cuttable) if cuttable is not None else [True] * n
        self.by_wire: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for t, u, v in self.gates2q:
            self.by_wire[u].append((t, v))
            self.by_wire[v].append((t, u))

    def _seg(self, w: int, t: int, labels, cuts: dict[int, int]) -> int:
        pos = cuts.get(w)
        return labels[w] ^ 1 if pos is not None and t >= pos else labels[w]

    def crossing_gates(self, labels, cuts: dict[int, int]) -> list[int]:
        return [
            t
            for t, u, v in self.gates2q
            if self._seg(u, t, labels, cuts) != self._seg(v, t, labels, cuts)
        ]

    def counts(self, labels, cuts: dict[int, int]) -> tuple[int, int]:
        return len(self.crossing_gates(labels, cuts)), len(cuts)

    def plan_cost(self, labels, cuts: dict[int, int]) -> int:
        return total_executions(*self.counts(labels, cuts), 1)

    def _own_crossings(self, w: int, labels, cuts: dict[int, int], pos: int | None) -> int:
        count = 0
        for t, partner in self.by_wire[w]:
            lw = labels[w] ^ (1 if pos is not None and t >= pos else 0)
            count += lw != self._seg(partner, t, labels, cuts)
        return count

    def _candidates(self, w: int) -> list[int | None]:
        # A cut at or before the wire's first interaction (or after its
        # last) would not split its timeline; it would only relabel the
        # wire and strand an idle stub, so only interior positions count.
        times = sorted({t for t, _ in self.by_wire[w]})
        return [None] + times[1:]

    def refine_wire_cuts(self, labels, max_passes: int = 8) -> dict[int, int]:
        """Coordinate descent over per-wire cut positions.

        Each wire's cut only changes the crossing status of its own gates,
        so one wire can be re-optimized exactly while the rest stay fixed.
        """
        cuts: dict[int, int] = {}
        for _ in range(max_passes):
            changed = False
            for w in range(self.n):
                if not self.cuttable[w] or not self.by_wire[w]:
                    continue
                current = cuts.pop(w, None)
                base_kg = len(self.crossing_gates(labels, cuts))
                others_kg = base_kg - self._own_crossings(w, labels, cuts, None)
                best_pos: int | None = None
                best_key = None
                for pos in self._candidates(w):
                    kg = others_kg + self._own_crossings(w, labels, cuts, pos)
                    kw = len(cuts) + (0 if pos is None else 1)
                    c = total_executions(kg, kw, 1)
                    key = (c, pos is not None, pos if pos is not None else -1)
                    if best_key is None or key < best_key:
                        best_key, best_pos = key, pos
                if best_pos is not None:
                    cuts[w] = best_pos
                if best_pos != current:
                    changed = True
            if not changed:
                break
        return cuts


def _side_sizes(n: int, labels, cuts: dict[int, int]) -> tuple[int, int]:
    size = [0, 0]
    for w in range(n):
        size[labels[w]] += 1
        if w in cuts:
            size[labels[w] ^ 1] += 1
    return size[0], size[1]


def _feasible(n: int, labels, cuts: dict[int, int], max_side: int | None) -> bool:
    s0, s1 = _side_sizes(n, labels, cuts)
    if s0 == 0 or s1 == 0:
        return False
    return max_side is None or max(s0, s1) <= max_side


def _evaluate_labeling(problem: _Bipartitioner, labels, max_side):
    cuts = problem.refine_wire_cuts(labels)
    if not _feasible(problem.n, labels, cuts, max_side):
        cuts = {}
        if not _feasible(problem.n, labels, cuts, max_side):
            return None
    return (problem.plan_cost(labels, cuts), labels, tuple(sorted(cuts.items())))


def _search_exhaustive(problem: _Bipartitioner, max_side):
    best = None
    n = problem.n
    for bits in range(1, 1 << (n - 1)):
        labels = tuple(((bits >> (q - 1)) & 1) if q else 0 for q in range(n))
        key = _evaluate_labeling(problem, labels, max_side)
        if key is not None and (best is None or key < best):
            best = key
    return best


def _bfs_balanced_labels(n: int, gates2q) -> tuple[int, ...]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for _, u, v in gates2q:
        adj[u].add(v)
        adj[v].add(u)
    order: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    labels = [1] * n
    for q in order[: (n + 1) // 2]:
        labels[q] = 0
    if labels[0] == 1:
        labels = [l ^ 1 for l in labels]
    return tuple(labels)


def _search_annealed(problem: _Bipartitioner, max_side, seed: int, restarts: int = 10):
    """Seeded annealing over label vectors; energy is the log overhead."""
    n = problem.n
    ln9, ln16 = math.log(GATE_CUT_FACTOR), math.log(WIRE_CUT_FACTOR)
    memo: dict[tuple[int, ...], tuple[int, int, tuple]] = {}

    def energy(labels) -> float:
        if labels not in memo:
            cuts = problem.refine_wire_cuts(labels, max_passes=2)
            if not _feasible(n, labels, cuts, max_side):
                cuts = {}
            kg, kw = problem.counts(labels, cuts)
            memo[labels] = (kg, kw, tuple(sorted(cuts.items())))
        kg, kw, _ = memo[labels]
        penalty = 0.0 if _feasible(n, labels, dict(memo[labels][2]), max_side) else 50.0
        return kg * ln9 + kw * ln16 + penalty

    iters = 20 * n
    for r in range(restarts):
        rng = np.random.default_rng((seed, 7001, r))
        if r == 0:
            labels = _bfs_balanced_labels(n, problem.gates2q)
        else:
            labels = tuple(0 if q == 0 else int(rng.integers(0, 2)) for q in range(n))
        if len(set(labels)) < 2:
            labels = tuple(0 if q < n // 2 else 1 for q in range(n))
        e = energy(labels)
        temp = 2.0
        for _ in range(iters):
            w = int(rng.integers(1, n))
            cand = list(labels)
            cand[w] ^= 1
            cand_t = tuple(cand)
            if len(set(cand_t)) < 2:
                continue
            e_new = energy(cand_t)
            if e_new <= e or rng.random() < math.exp(-(e_new - e) / temp):
                labels, e = cand_t, e_new
            temp = max(temp * 0.97, 1e-9)

    # Fully re-refine only the most promising labelings found by the walk.
    ranked = sorted(
        memo.items(),
        key=lambda kv: (total_executions(kv[1][0], kv[1][1], 1), kv[0]),
    )
    best = None
    for labels, _ in ranked[:24]:
        key = _evaluate_labeling(problem, labels, max_side)
        if key is not None and (best is None or key < best):
            best = key
    return best


def _solve_bipartition(problem: _Bipartitioner, max_side, seed: int):
    if problem.n <= EXHAUSTIVE_LIMIT:
        return _search_exhaustive(problem, max_side)
    return _search_annealed(problem, max_side, seed)


def find_cuts(
    circuit: Circuit,
    max_qubits: int | None = None,
    force_bipartition: bool = False,
    seed: int = 0,
) -> CutPlan:
    """Search for a minimum-overhead cut plan.

    The plan space is qubit bipartitions with at most one wire cut per
    qubit; the search is exhaustive up to 14 qubits and annealed above.
    With ``max_qubits`` set, parts that still exceed the bound are split
    again by recursive bisection (qubits cut at an earlier level are
    frozen, so the one-cut-per-qubit bound holds globally).
    """
    if circuit.n < 2:
        raise CutError("cannot partition a circuit with fewer than 2 qubits")
    if max_qubits is not None and force_bipartition:
        raise CutError("give either max_qubits or force_bipartition, not both")
    if max_qubits is not None and max_qubits < 1:
        raise CutError("max_qubits must be positive")
    gates2q = _two_qubit_gates(circuit)
    problem = _Bipartitioner(circuit.n, gates2q)
    best = _solve_bipartition(problem, max_qubits, seed)
    if best is None and max_qubits is not None:
        # No single bipartition fits the bound; bisect freely and recurse.
        best = _solve_bipartition(problem, None, seed)
    if best is None:
        raise CutError("no bipartition satisfies the constraints")
    _, labels, cut_items = best
    state = _PlanState(circuit, list(labels))
    for w, pos in cut_items:
        state.add_wire_cut(w, pos, labels[w] ^ 1)
    if max_qubits is not None:
        _split_oversized(state, max_qubits, seed)
    plan = state.to_plan()
    validate_plan(circuit, plan)
    return plan


class _PlanState:
    """Mutable partition state used while building multi-part plans."""

    def __init__(self, circuit: Circuit, labels: list[int]):
        self.circuit = circuit
        self.n = circuit.n
        self.labels = labels  # segment-0 label per qubit
        self.wire_cuts: dict[int, tuple[int, int]] = {}  # q -> (pos, new_label)

    def add_wire_cut(self, q: int, pos: int, new_label: int) -> None:
        if q in self.wire_cuts:
            raise CutError(f"qubit {q} already carries a wire cut")
        self.wire_cuts[q] = (pos, new_label)

    def segment_label(self, q: int, t: int) -> int:
        if q in self.wire_cuts:
            pos, new = self.wire_cuts[q]
            if t >= pos:
                return new
        return self.labels[q]

    def wires(self) -> list[tuple[int, int]]:
        out = []
        for q in range(self.n):
            out.append((q, 0))
            if q in self.wire_cuts:
                out.append((q, 1))
        return out

    def wire_label(self, wire: tuple[int, int]) -> int:
        q, seg = wire
        return self.labels[q] if seg == 0 else self.wire_cuts[q][1]

    def set_wire_label(self, wire: tuple[int, int], label: int) -> None:
        q, seg = wire
        if seg == 0:
            self.labels[q] = label
        else:
            pos, _ = self.wire_cuts[q]
            self.wire_cuts[q] = (pos, label)

    def wire_at(self, q: int, t: int) -> tuple[int, int]:
        if q in self.wire_cuts and t >= self.wire_cuts[q][0]:
            return (q, 1)
        return (q, 0)

    def part_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for wire in self.wires():
            label = self.wire_label(wire)
            sizes[label] = sizes.get(label, 0) + 1
        return sizes

    def to_plan(self) -> CutPlan:
        crossing = []
        for t, g in enumerate(self.circuit.gates):
            if len(g.qubits) == 2:
                if self.segment_label(g.qubits[0], t) != self.segment_label(g.qubits[1], t):
                    crossing.append(t)
        wire_cuts = tuple(
            (q, pos, new) for q, (pos, new) in sorted(self.wire_cuts.items())
        )
        used = set(self.labels) | {new for _, (_, new) in self.wire_cuts.items()}
        return CutPlan(
            n=self.n,
            labels=tuple(self.labels),
            wire_cuts=wire_cuts,
            gate_cuts=tuple(crossing),
            num_subcircuits=len(used),
        )


def _split_oversized(state: _PlanState, max_qubits: int, seed: int) -> None:
    next_label = max(state.part_sizes()) + 1
    guard = 0
    while True:
        guard += 1
        if guard > state.n + 2:
            raise CutError("recursive bisection failed to converge")
        oversized = [l for l, s in sorted(state.part_sizes().items()) if s > max_qubits]
        if not oversized:
            return
        label = oversized[0]
        wires = [w for w in state.wires() if state.wire_label(w) == label]
        index = {w: i for i, w in enumerate(wires)}
        local_gates = []
        for t, g in enumerate(state.circuit.gates):
            if len(g.qubits) != 2:
                continue
            wu = state.wire_at(g.qubits[0], t)
            wv = state.wire_at(g.qubits[1], t)
            if wu in index and wv in index:
                local_gates.append((t, index[wu], index[wv]))
        cuttable = [w[1] == 0 and w[0] not in state.wire_cuts for w in wires]
        problem = _Bipartitioner(len(wires), local_gates, cuttable)
        best = _solve_bipartition(problem, max_qubits, seed + guard)
        if best is None:
            best = _solve_bipartition(problem, None, seed + guard)
        if best is None:
            raise CutError(f"cannot split part of size {len(wires)} below {max_qubits}")
        _, loc_labels, loc_cuts = best
        for wire, loc in zip(wires, loc_labels):
            if loc == 1:
                state.set_wire_label(wire, next_label)
        for widx, pos in loc_cuts:
            q, seg = wires[widx]
            pre = state.wire_label((q, seg))
            state.add_wire_cut(q, pos, next_label if pre == label else label)
        next_label += 1


# --- subcircuit extraction ----------------------------------------------------


@dataclass(frozen=True)
class SubOp:
    """One entry in a subcircuit's op stream.

    kind "gate" carries a local-qubit Gate; "gatecut" marks one endpoint of
    a cut 2-qubit gate; "wc_measure"/"wc_prep" mark the two ends of a cut
    wire.
    """

    kind: str
    gate: object | None = None
    cut_id: int | None = None
    wire: int | None = None
    role: str | None = None  # "a" = first qubit of the cut gate, "b" = second


@dataclass(frozen=True)
class Subcircuit:
    label: int
    n: int
    ops: tuple[SubOp, ...]
    wire_origin: tuple[tuple[int, int], ...]  # local wire -> (qubit, segment)


@dataclass(frozen=True)
class GateCutInfo:
    cut_id: int
    gate_index: int
    kind: str
    a: tuple[int, int]  # (part label, local wire) of the gate's first qubit
    b: tuple[int, int]


@dataclass(frozen=True)
class WireCutInfo:
    cut_id: int
    qubit: int
    position: int
    measure: tuple[int, int]  # (part label, local wire) of the ending segment
    prep: tuple[int, int]  # (part label, local wire) of the starting segment


@dataclass(frozen=True)
class Extraction:
    plan: CutPlan
    part_order: tuple[int, ...]
    subcircuits: tuple[Subcircuit, ...]
    gate_cut_infos: tuple[GateCutInfo, ...]
    wire_cut_infos: tuple[WireCutInfo, ...]
    term_coeffs: tuple[complex, ...]
    subobservables: tuple[tuple[PauliString, ...], ...]  # [part][term]

    def part_index(self, label: int) -> int:
        return self.part_order.index(label)


def extract_subcircuits(circuit: Circuit, plan: CutPlan, obs: Observable) -> Extraction:
    """Split a circuit along a plan into per-part op streams.

    Each observable term is restricted per part (its letter lands on a
    qubit's final segment); tensoring the restrictions back together
    reproduces the term.
    """
    validate_plan(circuit, plan)
    if obs.n != circuit.n:
        raise CutError("observable width does not match circuit width")
    obs = canonicalize(obs)

    cuts_by_qubit: dict[int, list[tuple[int, int]]] = {}
    for q, pos, new in plan.wire_cuts:
        cuts_by_qubit.setdefault(q, []).append((pos, new))
    for q in cuts_by_qubit:
        cuts_by_qubit[q].sort()

    def wire_of(q: int, t: int) -> tuple[int, int]:
        seg = 0
        for pos, _ in cuts_by_qubit.get(q, ()):
            if t >= pos:
                seg += 1
        return (q, seg)

    def final_wire(q: int) -> tuple[int, int]:
        return (q, len(cuts_by_qubit.get(q, ())))

    part_order = plan.part_labels()
    wires_by_part: dict[int, list[tuple[int, int]]] = {l: [] for l in part_order}
    for q in range(plan.n):
        segs = [(q, 0, plan.labels[q])]
        for k, (pos, new) in enumerate(cuts_by_qubit.get(q, ()), start=1):
            segs.append((q, k, new))
        for qq, seg, label in segs:
            wires_by_part[label].append((qq, seg))
    local_index: dict[tuple[int, int], tuple[int, int]] = {}
    for label in part_order:
        wires_by_part[label].sort()
        for i, wire in enumerate(wires_by_part[label]):
            local_index[wire] = (label, i)

    ops_by_part: dict[int, list[SubOp]] = {l: [] for l in part_order}
    gate_cut_infos: list[GateCutInfo] = []
    wire_cut_infos: list[WireCutInfo] = []
    wirecuts_at: dict[int, list[tuple[int, int, int]]] = {}
    for q, pos, new in plan.wire_cuts:
        wirecuts_at.setdefault(pos, []).append((q, pos, new))

    def emit_wire_cuts(pos: int) -> None:
        for q, p, new in sorted(wirecuts_at.get(pos, ())):
            cut_id = len(wire_cut_infos)
            pre = wire_of(q, p - 1) if p > 0 else (q, 0)
            post = wire_of(q, p)
            m_label, m_wire = local_index[pre]
            p_label, p_wire = local_index[post]
            ops_by_part[m_label].append(SubOp("wc_measure", cut_id=cut_id, wire=m_wire))
            ops_by_part[p_label].append(SubOp("wc_prep", cut_id=cut_id, wire=p_wire))
            wire_cut_infos.append(
                WireCutInfo(cut_id, q, p, (m_label, m_wire), (p_label, p_wire))
            )

    gate_cut_set = set(plan.gate_cuts)
    from .circuits import Gate  # local import to avoid a cycle at module load

    for t, g in enumerate(circuit.gates):
        emit_wire_cuts(t)
        wires = [wire_of(q, t) for q in g.qubits]
        labels = {local_index[w][0] for w in wires}
        if len(labels) == 1:
            label = labels.pop()
            local_qubits = tuple(local_index[w][1] for w in wires)
            local_gate = Gate(g.kind, local_qubits, angle=g.angle, axis=g.axis)
            ops_by_part[label].append(SubOp("gate", gate=local_gate))
        else:
            if t not in gate_cut_set or len(g.qubits) != 2:
                raise CutError(f"gate {t} crosses parts but is not a valid gate cut")
            cut_id = len(gate_cut_infos)
            (la, wa), (lb, wb) = local_index[wires[0]], local_index[wires[1]]
            ops_by_part[la].append(SubOp("gatecut", cut_id=cut_id, wire=wa, role="a"))
            ops_by_part[lb].append(SubOp("gatecut", cut_id=cut_id, wire=wb, role="b"))
            gate_cut_infos.append(GateCutInfo(cut_id, t, g.kind, (la, wa), (lb, wb)))
    emit_wire_cuts(len(circuit.gates))

    subobservables = []
    for label in part_order:
        wires = wires_by_part[label]
        m = len(wires)
        words = []
        for term in obs.terms:
            x = z = 0
            for q in range(plan.n):
                fw = final_wire(q)
                if local_index[fw][0] != label:
                    continue
                i = local_index[fw][1]
                x |= ((term.word.x >> q) & 1) << i
                z |= ((term.word.z >> q) & 1) << i
            words.append(PauliString(m, x, z))
        subobservables.append(tuple(words))

    subcircuits = tuple(
        Subcircuit(
            label=label,
            n=len(wires_by_part[label]),
            ops=tuple(ops_by_part[label]),
            wire_origin=tuple(wires_by_part[label]),
        )
        for label in part_order
    )
    return Extraction(
        plan=plan,
        part_order=part_order,
        subcircuits=subcircuits,
        gate_cut_infos=tuple(gate_cut_infos),
        wire_cut_infos=tuple(wire_cut_infos),
        term_coeffs=tuple(t.coeff for t in obs.terms),
        subobservables=tuple(subobservables),
    )
