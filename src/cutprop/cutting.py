"""Circuit partitioning: cut search, plan validation, and execution cost.

A plan assigns a part label to every (qubit, time-segment). A wire cut at
(q, t) ends qubit q's current segment just before gate index t and starts a
new segment with a different label. A qubit may carry several wire cuts,
listed in any order: its segments follow the cut positions in time order,
and ``CutPlan.segments`` is the one place that reads them; ``CutPlan.parts``
groups the resulting (qubit, segment) wires by label. A gate cut marks
a 2-qubit gate whose endpoint segments carry different labels. The
execution-count accounting multiplies 9 per gate cut and 16 per wire cut
into the observable's qubit-wise-commuting group count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from itertools import compress, count, groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .circuits import Circuit, Gate
from .paulis import (
    Observable,
    PauliString,
    _mask_ints,
    canonicalize,
    group_qwc,  # traced by perfbench/spans.py (ROADMAP item 7), no longer called here
    measurement_groups,
)

GATE_CUT_FACTOR = 9
WIRE_CUT_FACTOR = 16

# Above this width the bipartition search switches from exhaustive
# enumeration (2^(n-1) labelings) to seeded annealing over label vectors,
# with this many restarts.
EXHAUSTIVE_LIMIT = 14
ANNEAL_RESTARTS = 10


class CutError(ValueError):
    pass


def _json_int(value) -> int:
    # bool is an int subclass and int() would truncate floats; accept neither.
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class _CutPlanFields(NamedTuple):
    n: int
    labels: tuple[int, ...]  # label of each qubit's first segment
    wire_cuts: tuple[tuple[int, int, int], ...]  # (qubit, position, new_label)
    gate_cuts: tuple[int, ...]  # indices of cut 2-qubit gates
    num_subcircuits: int


class CutPlan(_CutPlanFields):
    """Partition labels plus the cut lists that realize them."""

    # No __slots__: the cached properties live in __dict__, which == and hash ignore.

    @cached_property
    def _timelines(self) -> dict[int, tuple[tuple[int, int], ...]]:
        # Cuts on unknown qubits are left out here; validate_plan rejects them.
        timelines = {q: ((0, label),) for q, label in enumerate(self.labels)}
        for q, pos, new in sorted(self.wire_cuts):
            if q in timelines:
                timelines[q] += ((pos, new),)
        return timelines

    def segments(self, q: int) -> tuple[tuple[int, int], ...]:
        """Qubit q's timeline: (first gate index, label) per segment, in time order."""
        return self._timelines[q]

    def wire_at(self, q: int, t: int) -> tuple[int, int]:
        """The (qubit, segment index) wire that gate index t acts on."""
        return (q, bisect_right(self.segments(q), t, key=itemgetter(0)) - 1)

    @cached_property
    def parts(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Part label -> its (qubit, segment index) wires.

        Labels are sorted, and each part's wires are in qubit, then segment,
        order; subcircuits and their local wire indices follow this order.
        """
        parts: dict[int, list[tuple[int, int]]] = {}
        for q, segs in self._timelines.items():
            for k, (_, label) in enumerate(segs):
                parts.setdefault(label, []).append((q, k))
        return {label: tuple(parts[label]) for label in sorted(parts)}

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
                n=_json_int(data["n"]),
                labels=tuple(_json_int(v) for v in data["labels"]),
                wire_cuts=tuple(
                    (_json_int(q), _json_int(p), _json_int(l)) for q, p, l in data["wire_cuts"]
                ),
                gate_cuts=tuple(_json_int(i) for i in data["gate_cuts"]),
                num_subcircuits=_json_int(data["num_subcircuits"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CutError(f"malformed cut plan: {exc}") from exc


class CostReport(NamedTuple):
    kg: int
    kw: int
    groups: int
    total_executions: int
    per_subcircuit: tuple[tuple[int, int], ...] | None = None  # (label, g_i)

    def to_dict(self) -> dict:
        out = {
            "gate_cuts": self.kg,
            "wire_cuts": self.kw,
            "qwc_groups": self.groups,
            "total_executions": self.total_executions,
        }
        if self.per_subcircuit is not None:
            out["per_subcircuit"] = [{"label": l, "groups": g} for l, g in self.per_subcircuit]
        return out


def total_executions(kg: int, kw: int, groups: int) -> int:
    """The normative accounting: groups * 9^kg * 16^kw."""
    return groups * GATE_CUT_FACTOR**kg * WIRE_CUT_FACTOR**kw


def _wire_cuts_at(plan: CutPlan) -> dict[int, list[tuple[int, int]]]:
    """Wire-cut position -> the (qubit, segment) wires that start there, in qubit order."""
    cuts_at: dict[int, list[tuple[int, int]]] = {}
    for q in range(plan.n):
        for k, (start, _) in enumerate(plan.segments(q)[1:], start=1):
            cuts_at.setdefault(start, []).append((q, k))
    return cuts_at


def _crossing_gates(circuit: Circuit, plan: CutPlan) -> list[int]:
    """Indices of the gates whose qubits sit in segments with different labels.

    One walk in gate order keeps each qubit's current label and moves it
    on at the qubit's wire-cut positions.
    """
    label = list(plan.labels)
    cuts_at = _wire_cuts_at(plan)
    crossing = []
    for t, g in enumerate(circuit.gates):
        for q, k in cuts_at.get(t, ()):
            label[q] = plan.segments(q)[k][1]
        if len(g.qubits) > 1 and len({label[q] for q in g.qubits}) > 1:
            crossing.append(t)
    return crossing


def validate_plan(circuit: Circuit, plan: CutPlan) -> None:
    """Raise CutError unless the plan is a consistent partition of the circuit.

    A plan of 2 or more qubits must make 2 or more parts; on fewer qubits
    the one-part plan, which cuts nothing, is the only partition.
    """
    if plan.n != circuit.n:
        raise CutError(f"plan width {plan.n} != circuit width {circuit.n}")
    if len(plan.labels) != plan.n:
        raise CutError("label vector length mismatch")
    for q, pos, _ in plan.wire_cuts:
        if not (0 <= q < plan.n):
            raise CutError(f"wire cut on unknown qubit {q}")
        if not (0 <= pos <= len(circuit.gates)):
            raise CutError(f"wire cut position {pos} out of range")
    for q in range(plan.n):
        segs = plan.segments(q)
        positions = [pos for pos, _ in segs[1:]]
        if len(set(positions)) != len(positions):
            raise CutError(f"duplicate wire cut positions on qubit {q}")
        if any(old == new for (_, old), (_, new) in zip(segs, segs[1:])):
            raise CutError(f"wire cut on qubit {q} does not change its label")
    gate_cut_set = set(plan.gate_cuts)
    if len(gate_cut_set) != plan.kg:  # kg prices each listed cut
        raise CutError("a gate cut index is listed twice")
    for idx in plan.gate_cuts:
        if not (0 <= idx < len(circuit.gates)) or len(circuit.gates[idx].qubits) != 2:
            raise CutError(f"gate cut index {idx} is not a 2-qubit gate")
    crossing = set(_crossing_gates(circuit, plan))
    for t in sorted(crossing ^ gate_cut_set):
        if len(circuit.gates[t].qubits) > 2:
            raise CutError(f"gate {t} couples >2 qubits across the partition")
        if t in crossing:
            raise CutError(f"gate {t} crosses the partition but is not cut")
        raise CutError(f"gate {t} is cut but does not cross the partition")
    if len(plan.parts) != plan.num_subcircuits:
        raise CutError(
            f"{len(plan.parts)} labels in use but num_subcircuits={plan.num_subcircuits}"
        )
    if plan.num_subcircuits < min(2, plan.n):
        raise CutError("a plan must produce at least 2 subcircuits")


def cost(
    plan: CutPlan,
    evolved_obs: Observable,
    circuit: Circuit | None = None,
) -> CostReport:
    """Execution-count accounting for a plan and an (evolved) observable.

    Given ``circuit``, it additionally reports, from the plan's extraction
    on it, each part's group count g_i over its distinct observable words.
    """
    if evolved_obs.n != plan.n:
        raise CutError(f"observable width {evolved_obs.n} != plan width {plan.n}")
    obs = canonicalize(evolved_obs)
    groups = measurement_groups(obs)
    total = total_executions(plan.kg, plan.kw, groups)
    if circuit is None:
        return CostReport(plan.kg, plan.kw, groups, total)
    extraction = extract_subcircuits(circuit, plan, obs)
    rows = []
    for label, sub in zip(plan.parts, extraction.subcircuits):
        words = Observable.from_terms(sub.n, [(1, w) for w in sub.words])  # distinct
        rows.append((label, measurement_groups(words)))
    return CostReport(plan.kg, plan.kw, groups, total, tuple(rows))


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
        self.gates2q = sorted(gates2q)
        self.cuttable = list(cuttable) if cuttable is not None else [True] * n
        # Each wire's (time, partner) timeline, in time order.
        self.by_wire: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for t, u, v in self.gates2q:
            self.by_wire[u].append((t, v))
            self.by_wire[v].append((t, u))
        # The cut position of an uncut wire: after every gate.
        self.never = self.gates2q[-1][0] + 1 if self.gates2q else 0
        # The wires a cut can split (cuttable, two or more 2-qubit gates):
        # each with its first gate, its later gates, its partners in wire
        # order and the bit mask of itself and its partners; and each one's
        # partner cuts before any wire is cut.
        self.sweeps = []
        self._uncut = [None] * n
        for w, timeline in enumerate(self.by_wire):
            if self.cuttable[w] and len(timeline) >= 2:
                partners = tuple(sorted({p for _, p in timeline}))
                mask = sum(1 << p for p in (w, *partners))
                self.sweeps.append((w, timeline[0], tuple(timeline[1:]), partners, mask))
                self._uncut[w] = (self.never,) * len(partners)
        # Each unordered wire pair's gate count: the starting kg sums one per crossing pair.
        self._pairs = tuple(Counter((min(u, v), max(u, v)) for _, u, v in self.gates2q).items())
        # Each wire's label bit, 0 for a wire without a 2-qubit gate: only
        # the linked wires' labels reach a refinement.
        self._bits = [1 << w if timeline else 0 for w, timeline in enumerate(self.by_wire)]
        # (max_passes, linked label bits) -> (cuts, kg). It pays only in bounded searches: an
        # unbounded bisection with an idle wire takes the shortcut; a connected one keys on all.
        self._refined: dict[tuple[int, int], tuple[dict[int, int], int]] = {}
        # (wire, its and its partners' label bits, partner cuts, own cut) -> (new cut, kg
        # change): one wire sweep. It pays in an unbounded search that no single cut settles too.
        self._swept: dict[tuple[int, int, tuple[int, ...], int], tuple[int, int]] = {}

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The connected components of the 2-qubit-gate graph, a gate-free wire alone.

        One breadth-first walk: each component starts at its smallest wire
        and lists its wires in visiting order, neighbours in wire order, and
        the components follow in order of their smallest wire.
        """
        seen = [False] * self.n
        components = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            order = [start]
            for a in order:  # the list is the queue: it grows while it is read
                for b in sorted({partner for _, partner in self.by_wire[a]}):
                    if not seen[b]:
                        seen[b] = True
                        order.append(b)
            components.append(tuple(order))
        return tuple(components)

    def refine_wire_cuts(self, labels, max_passes: int = 8) -> tuple[dict[int, int], int]:
        """Coordinate descent over per-wire cut positions; returns (cuts, kg).

        Each wire's cut only changes the crossing status of its own gates,
        so one wire can be re-optimized exactly while the rest stay fixed,
        and kg (the crossing count) moves by that wire's change alone. With
        no passes the labeling is priced without cuts. A cut at or before
        the wire's first interaction (or after its last) would not split its
        timeline; it would only relabel the wire and strand an idle stub, so
        only interior positions count.

        One sweep of a wire's d gates prices every interior cut. With
        prefix_i the wire's gates before its i-th that cross while it is
        uncut, and s = prefix_d, a cut before gate i flips gates i..d-1 and
        leaves 2·prefix_i − i + d − s crossings. The sweep keeps the running
        g = 2·prefix_i − i, its minimum over 1 ≤ i < d (the first index wins
        a tie) and its value at the wire's current cut. A wire whose
        partners' cuts have not moved since its last sweep would find the
        same cut again, so it is skipped.

        An idle wire's label moves neither the crossing count nor any sweep,
        so each pattern of linked labels is refined once per instance, and
        labelings that differ only on idle wires share its result. A sweep
        reads only the wire's and its partners' labels, its partners' cuts
        and its own cut, so each distinct sweep runs once per instance too.
        """
        bits = sum(compress(self._bits, labels))
        key = (max_passes, bits)
        if key in self._refined:
            cuts, kg = self._refined[key]
            return dict(cuts), kg
        never = self.never
        cut_at = [never] * self.n
        stale = [True] * self.n
        partner_cuts = list(self._uncut)  # None once a partner's cut has moved
        swept = self._swept
        kg = sum(c for (u, v), c in self._pairs if labels[u] != labels[v])
        for _ in range(max_passes):
            changed = False
            for w, first, rest, partners, mask in self.sweeps:
                if not stale[w]:
                    continue
                stale[w] = False
                if partner_cuts[w] is None:
                    partner_cuts[w] = tuple([cut_at[p] for p in partners])
                current = cut_at[w]
                sweep = (w, bits & mask, partner_cuts[w], current)
                hit = swept.get(sweep)
                if hit is None:
                    hit = swept[sweep] = self._sweep(labels, cut_at, w, first, rest, current)
                cut, delta = hit
                kg += delta
                if cut != current:
                    cut_at[w] = cut
                    changed = True
                    for p in partners:
                        stale[p] = True
                        partner_cuts[p] = None
            if not changed:
                break
        cuts = {w: t for w, t in enumerate(cut_at) if t != never}
        self._refined[key] = (cuts, kg)
        return dict(cuts), kg

    def _sweep(self, labels, cut_at, w, first, rest, current) -> tuple[int, int]:
        """Wire w's best cut given its partners' cuts, and kg's change from its current cut."""
        side = labels[w]
        t0, p0 = first
        g = 2 * (side != (labels[p0] ^ (t0 >= cut_at[p0]))) - 1
        low = d = len(rest) + 1  # g <= i < d, so the first interior g sets low
        g_current = None
        for t, p in rest:
            if g < low:
                low, pos = g, t
            if t == current:
                g_current = g
            g += 2 * (side != (labels[p] ^ (t >= cut_at[p]))) - 1
        s = (g + d) // 2
        own = s if g_current is None else g_current + d - s
        best = low + d - s
        # 9 < 16 < 9², so one wire cut pays for itself iff it saves
        # two or more gate cuts.
        if best <= s - 2:
            return pos, best - own
        return self.never, s - own


def _feasible(labels, cuts: dict[int, int], max_side: int | None) -> bool:
    """Both sides non-empty and within max_side; a cut wire counts on both."""
    ones = sum(labels)
    size = [len(labels) - ones, ones]
    for w in cuts:
        size[labels[w] ^ 1] += 1
    return min(size) > 0 and (max_side is None or max(size) <= max_side)


def _evaluate_labeling(problem: _Bipartitioner, labels, max_side, max_passes: int = 8):
    """Refine and price a labeling: (cost, labels, cut items, feasible).

    Cuts that break the side bound are dropped; the labeling is feasible
    when it keeps the bound without them.
    """
    cuts, kg = problem.refine_wire_cuts(labels, max_passes)
    feasible = _feasible(labels, cuts, max_side)
    if not feasible:
        cuts, kg = problem.refine_wire_cuts(labels, max_passes=0)
        feasible = _feasible(labels, cuts, max_side)
    return total_executions(kg, len(cuts), 1), labels, tuple(sorted(cuts.items())), feasible


def _best_feasible(problem: _Bipartitioner, labelings, max_side):
    evaluated = (_evaluate_labeling(problem, labels, max_side) for labels in labelings)
    return min((key for key in evaluated if key[3]), default=None)


def _search_exhaustive(problem: _Bipartitioner, max_side):
    """Every labeling, wire 0 on side 0: exhaustive over labels, heuristic over cut positions."""
    n = problem.n
    labelings = (
        tuple(((bits >> (q - 1)) & 1) if q else 0 for q in range(n))
        for bits in range(1, 1 << (n - 1))
    )
    return _best_feasible(problem, labelings, max_side)


def _bfs_balanced_labels(problem: _Bipartitioner) -> tuple[int, ...]:
    n = problem.n
    order = [w for component in problem.components for w in component]
    labels = [1] * n
    for q in order[: (n + 1) // 2]:  # components[0] starts at wire 0, so it is labelled 0
        labels[q] = 0
    return tuple(labels)


def _search_annealed(problem: _Bipartitioner, max_side, seed: int):
    """Seeded annealing over label vectors; energy is the log overhead."""
    n = problem.n
    memo: dict[tuple[int, ...], tuple] = {}

    def energy(labels) -> float:
        if labels not in memo:
            memo[labels] = _evaluate_labeling(problem, labels, max_side, max_passes=2)
        cost, _, _, feasible = memo[labels]
        return math.log(cost) + (0.0 if feasible else 50.0)

    iters = 20 * n
    for r in range(ANNEAL_RESTARTS):
        rng = np.random.default_rng((seed, 7001, r))
        if r == 0:
            labels = _bfs_balanced_labels(problem)
        else:
            labels = tuple(0 if q == 0 else int(rng.integers(0, 2)) for q in range(n))
        # Wire 0 is always labelled 0 and never flipped, so a labeling is
        # one-sided exactly when it has no ones.
        ones = sum(labels)
        if not ones:
            labels = tuple(0 if q < n // 2 else 1 for q in range(n))
            ones = n - n // 2
        e = energy(labels)
        temp = 2.0
        for _ in range(iters):
            w = int(rng.integers(1, n))
            cand_ones = ones + 1 - 2 * labels[w]
            if not cand_ones:
                continue
            cand = labels[:w] + (labels[w] ^ 1,) + labels[w + 1 :]
            e_new = energy(cand)
            if e_new <= e or rng.random() < math.exp(-(e_new - e) / temp):
                labels, e, ones = cand, e_new, cand_ones
            temp = max(temp * 0.97, 1e-9)

    # Fully re-refine only the most promising labelings found by the walk.
    ranked = sorted(memo.values())[:24]
    return _best_feasible(problem, (labels for _, labels, _, _ in ranked), max_side)


def _sides(n: int, ones) -> tuple[int, ...]:
    """The labeling with the wires ``ones`` on side 1, flipped so that wire 0 is on side 0."""
    return tuple(int((w in ones) != (0 in ones)) for w in range(n))


def _zero_cut(problem: _Bipartitioner):
    """The exhaustive search's unbounded answer when its wires are not connected, else None.

    Every bisection costs at least 1, and one component alone costs 1: the
    last one (the largest smallest wire) alone on side 1 is the smallest
    such labeling.
    """
    if len(problem.components) > 1:
        return _evaluate_labeling(problem, _sides(problem.n, set(problem.components[-1])), None)
    return None


def _one_cut(problem: _Bipartitioner):
    """The unbounded answer for a connected wire set when it costs 9 or 16, else None.

    A connected wire set cuts a gate or a wire, and 9 < 16 < 9², so one gate
    cut is optimal when one suffices, and one wire cut when none does. Each
    is a bridge of the segment graph, whose node 2j + s is the s-th end of
    gate j, joined to the gate's other end and to its wire's previous and
    next ends. One iterative depth-first search finds every bridge (Tarjan,
    IPL 1974). Its far side is the subtree below it: when its lower end
    closes, the nodes discovered since that end. A gate bridge cuts its
    gate; a wire bridge on a cuttable wire cuts the wire before its later
    end's gate. Each wire takes its first end's side; the smallest key wins.
    """
    gates, n = problem.gates2q, problem.n
    wire = [q for _, u, v in gates for q in (u, v)]  # node -> its wire
    ends = [[] for _ in range(n)]  # each wire's nodes in time order
    for a, w in enumerate(wire):
        ends[w].append(a)
    adjacent = [[a ^ 1] for a in range(len(wire))]
    for chain in ends:
        for i, a in enumerate(chain):
            adjacent[a] += chain[max(i - 1, 0):i] + chain[i + 1:i + 2]
    disc = [0] + [-1] * (len(wire) - 1)  # node 0 is the root, its own parent
    low, tick = disc[:], count(1)
    keys = []  # one per bridge
    stack = [(0, 0, iter(adjacent[0]))]
    while stack:
        a, parent, rest = stack[-1]
        for b in rest:
            if disc[b] < 0:
                disc[b] = low[b] = next(tick)
                stack.append((b, a, iter(adjacent[b])))
                break
            if b != parent:  # the graph has no parallel edges
                low[a] = min(low[a], disc[b])
        else:
            stack.pop()
            low[parent] = min(low[parent], low[a])
            if low[a] > disc[parent] and (parent == a ^ 1 or problem.cuttable[wire[a]]):
                cut = () if parent == a ^ 1 else ((wire[a], gates[max(a, parent) // 2][0]),)
                far = {w for w, chain in enumerate(ends) if disc[chain[0]] >= disc[a]}
                keys.append((total_executions(not cut, len(cut), 1), _sides(n, far), cut, True))
    return min(keys, default=None)


def _solve_bipartition(problem: _Bipartitioner, max_side, seed: int):
    """The cheapest labeling found whose sides fit ``max_side``, else the cheapest one.

    Exhaustive up to 14 wires, annealed above. Unbounded, the search runs
    when ``_zero_cut`` and ``_one_cut`` do not answer. Bounded, it runs only
    on at most 2 * max_side wires, since a cut wire counts on both sides.
    With no labeling that fits, the answer is the unbounded one without
    ``_one_cut``: a single cut would peel a chain's last qubit a pass.
    """
    def search(bound):
        if problem.n <= EXHAUSTIVE_LIMIT:
            return _search_exhaustive(problem, bound)
        return _search_annealed(problem, bound, seed)

    if max_side is None:
        return _zero_cut(problem) or _one_cut(problem) or search(None)
    if problem.n <= 2 * max_side and (best := search(max_side)):
        return best
    return _zero_cut(problem) or search(None)


def find_cuts(
    circuit: Circuit,
    max_qubits: int | None = None,
    seed: int = 0,
) -> CutPlan:
    """Search for a minimum-overhead cut plan by repeated bisection.

    Starting from the one-part plan, each pass bisects one part: the whole
    register first, then, with ``max_qubits`` set, the lowest-labelled part
    that still holds more than ``max_qubits`` wires. ``_solve_bipartition``
    decides each pass in one call, with seed ``seed + i`` at pass i: it
    labels the part's (qubit, segment) wires 0/1, with at most one wire cut
    per qubit (qubits cut at an earlier pass are frozen, so the bound holds
    globally), and takes the cheapest labeling whose sides fit
    ``max_qubits`` or, when none does, the cheapest one. A part of more
    than 2 * max_qubits wires has none. The exhaustive search is
    exhaustive over labels and heuristic over cut positions. An unbounded
    bisection that costs 1 or, without ``max_qubits``, 9 or 16 needs no
    search, at any width: its single cuts are the bridges of its segment
    graph, which one depth-first search finds. The new part of pass i gets
    label i + 1. A circuit on fewer than 2 qubits needs no cut: its plan is
    the one-part plan.
    """
    if max_qubits is not None and max_qubits < 1:
        raise CutError("max_qubits must be positive")
    plan = _build_plan(circuit, (0,) * circuit.n, {})
    if circuit.n < 2:
        return plan
    gates2q = _two_qubit_gates(circuit)
    label = 0  # the whole register is bisected first
    # Each pass adds one part and a plan has at most 2n wires (one wire cut
    # per qubit), so at most 2n - 1 passes run.
    for i in count():
        new = i + 1
        wires = plan.parts[label]
        index = {w: j for j, w in enumerate(wires)}
        local_gates = []
        for t, u, v in gates2q:
            wu, wv = plan.wire_at(u, t), plan.wire_at(v, t)
            if wu in index and wv in index:
                local_gates.append((t, index[wu], index[wv]))
        cuttable = [len(plan.segments(q)) == 1 for q, _ in wires]
        problem = _Bipartitioner(len(wires), local_gates, cuttable)
        _, sides, cut_items, _ = _solve_bipartition(problem, max_qubits, seed + i)
        labels = list(plan.labels)
        cuts = {q: segs[1] for q in range(plan.n) if len(segs := plan.segments(q)) > 1}
        for (q, k), side in zip(wires, sides):
            if side and k == 0:
                labels[q] = new
            elif side:
                cuts[q] = (cuts[q][0], new)
        for w, pos in cut_items:
            q = wires[w][0]
            cuts[q] = (pos, new if labels[q] == label else label)
        plan = _build_plan(circuit, labels, cuts)
        if max_qubits is None:
            break
        oversized = [l for l, ws in plan.parts.items() if len(ws) > max_qubits]
        if not oversized:
            break
        label = oversized[0]
    validate_plan(circuit, plan)
    return plan


def _build_plan(
    circuit: Circuit, labels: Sequence[int], cuts: dict[int, tuple[int, int]]
) -> CutPlan:
    """The plan for first-segment labels and at most one cut per qubit, q -> (pos, new_label)."""
    plan = CutPlan(
        n=circuit.n,
        labels=tuple(labels),
        wire_cuts=tuple((q, pos, new) for q, (pos, new) in sorted(cuts.items())),
        gate_cuts=(),
        num_subcircuits=0,
    )
    return plan._replace(
        gate_cuts=tuple(_crossing_gates(circuit, plan)),
        num_subcircuits=len(plan.parts),
    )


# --- subcircuit extraction ----------------------------------------------------


class SubOp(NamedTuple):
    """One cut end in a subcircuit's op stream.

    ``cut`` is the global cut index that ``reconstruct`` contracts over:
    gate cuts 0..kg-1, then wire cuts, each in circuit order. ``side``
    picks the end's half of each of the cut's QPD terms: 0 reads
    ``QpdTerm.left_op`` (a cut gate's first qubit, a cut wire's measure
    end), 1 reads ``right_op`` (the gate's second qubit, the wire's prep
    end). ``wire`` is the local wire the end acts on.
    """

    cut: int
    side: int
    wire: int


class Subcircuit(NamedTuple):
    """One part: its op stream on ``n`` local wires, and its observable words.

    Each op is a cut end (a ``SubOp``) or a run of the part's gates, as a
    ``Circuit`` on the local wires. Runs are maximal and never empty, so
    no two runs are adjacent. ``words`` holds each observable term
    restricted to the part (its letters on the qubits whose final segment
    the part holds), in term order.
    """

    n: int
    ops: tuple[Circuit | SubOp, ...]
    wire_origin: tuple[tuple[int, int], ...]  # local wire -> (qubit, segment)
    words: tuple[PauliString, ...]


class Extraction(NamedTuple):
    """A plan's parts, with each gate cut's gate kind and each wire cut's qubit.

    Both are in cut order: gate cut c has cut index c, wire cut j ``plan.kg + j``.
    """

    plan: CutPlan
    subcircuits: tuple[Subcircuit, ...]
    gate_cut_infos: tuple[str, ...]
    wire_cut_infos: tuple[int, ...]
    term_coeffs: tuple[complex, ...]


def _move_bits(masks: Sequence[int], moves: Iterable[tuple[int, int]]) -> list[int]:
    """Each mask with bit a moved to bit b for every (a, b) in moves, its other bits dropped."""
    return [sum((mask >> a & 1) << b for a, b in moves) for mask in masks]


def extract_subcircuits(circuit: Circuit, plan: CutPlan, obs: Observable) -> Extraction:
    """Split a circuit along a plan into per-part op streams and words.

    Each part's gates, moved onto its local wires, are grouped into the
    maximal runs between its cut ends. Each observable term is restricted
    per part (its letter lands on a qubit's final segment); tensoring the
    restrictions back together reproduces the term.
    """
    validate_plan(circuit, plan)
    if obs.n != circuit.n:
        raise CutError("observable width does not match circuit width")
    obs = canonicalize(obs)

    local_index = {  # (qubit, segment) -> (part label, local wire)
        wire: (label, i) for label, wires in plan.parts.items() for i, wire in enumerate(wires)
    }
    wirecuts_at = _wire_cuts_at(plan)

    stream: dict[int, list[Gate | SubOp]] = {label: [] for label in plan.parts}
    gate_cut_infos: list[str] = []
    wire_cut_infos: list[int] = []
    # Each qubit's (part label, local wire) at the walk's gate; its final one after the walk.
    current = [local_index[q, 0] for q in range(plan.n)]

    def emit_ends(cut: int, ends) -> None:
        for side, (label, local) in enumerate(ends):
            stream[label].append(SubOp(cut, side, local))

    def emit_wire_cuts(pos: int) -> None:
        for q, k in wirecuts_at.get(pos, ()):
            # Wire cuts are numbered after every gate cut.
            emit_ends(plan.kg + len(wire_cut_infos), (current[q], local_index[q, k]))
            wire_cut_infos.append(q)
            current[q] = local_index[q, k]

    for t, g in enumerate(circuit.gates):
        if t in wirecuts_at:
            emit_wire_cuts(t)
        labels, wires = zip(*[current[q] for q in g.qubits])
        if len(set(labels)) == 1:
            stream[labels[0]].append(g._moved(wires))
        else:  # validate_plan made every crossing gate a listed 2-qubit cut
            emit_ends(len(gate_cut_infos), zip(labels, wires))
            gate_cut_infos.append(g.kind)
    emit_wire_cuts(len(circuit.gates))

    term_xs, term_zs = _mask_ints(obs.x), _mask_ints(obs.z)
    subcircuits = []
    for label, wires in plan.parts.items():
        m = len(wires)
        ops: list[Circuit | SubOp] = []
        for is_gate, group in groupby(stream[label], key=lambda op: isinstance(op, Gate)):
            if is_gate:  # _make skips __new__: the moved gates act on wires below m
                ops.append(Circuit._make((m, tuple(group))))
            else:
                ops.extend(group)
        moves = [(q, i) for q, (final_label, i) in enumerate(current) if final_label == label]
        words = [PauliString(m, x, z)
                 for x, z in zip(_move_bits(term_xs, moves), _move_bits(term_zs, moves))]
        subcircuits.append(Subcircuit(n=m, ops=tuple(ops), wire_origin=wires, words=tuple(words)))
    return Extraction(
        plan=plan,
        subcircuits=tuple(subcircuits),
        gate_cut_infos=tuple(gate_cut_infos),
        wire_cut_infos=tuple(wire_cut_infos),
        term_coeffs=tuple(obs.coeffs.tolist()),
    )
