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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .circuits import Circuit, Gate
from .paulis import (
    Observable,
    PauliString,
    _mask_ints,
    canonicalize,
    group_qwc,
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


@dataclass(frozen=True)
class CutPlan:
    """Partition labels plus the cut lists that realize them."""

    n: int
    labels: tuple[int, ...]  # label of each qubit's first segment
    wire_cuts: tuple[tuple[int, int, int], ...]  # (qubit, position, new_label)
    gate_cuts: tuple[int, ...]  # indices of cut 2-qubit gates
    num_subcircuits: int

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

    def segment_label(self, q: int, t: int) -> int:
        return self.segments(q)[self.wire_at(q, t)[1]][1]

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


def _crossing_gates(circuit: Circuit, plan: CutPlan) -> list[int]:
    """Indices of the gates whose qubits sit in segments with different labels."""
    return [
        t
        for t, g in enumerate(circuit.gates)
        if len({plan.segment_label(q, t) for q in g.qubits}) > 1
    ]


def validate_plan(circuit: Circuit, plan: CutPlan) -> None:
    """Raise CutError unless the plan is a consistent partition of the circuit."""
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
    if plan.num_subcircuits < 2:
        raise CutError("a plan must produce at least 2 subcircuits")


def cost(
    plan: CutPlan,
    evolved_obs: Observable,
    per_subcircuit: bool = False,
    circuit: Circuit | None = None,
) -> CostReport:
    """Execution-count accounting for a plan and an (evolved) observable.

    The per-subcircuit mode additionally reports, from the plan's
    extraction on ``circuit``, each part's group count g_i over its
    distinct observable words and the product eta_i of 9 per gate-cut end
    and 16 per wire-cut end in its op stream (this secondary accounting
    double-counts shared cuts; the ``total_executions`` field is the
    normative number).
    """
    if evolved_obs.n != plan.n:
        raise CutError(f"observable width {evolved_obs.n} != plan width {plan.n}")
    obs = canonicalize(evolved_obs)
    groups = group_qwc(obs).group_count if len(obs) else 1
    total = total_executions(plan.kg, plan.kw, groups)
    per = None
    if per_subcircuit:
        if circuit is None:
            raise CutError("per-subcircuit accounting needs the circuit")
        extraction = extract_subcircuits(circuit, plan, obs)
        rows = []
        for label, sub in zip(plan.parts, extraction.subcircuits):
            words = Observable.from_terms(sub.n, [(1, w) for w in sub.words])  # distinct
            g_i = group_qwc(words).group_count if len(words) else 1
            eta = math.prod(GATE_CUT_FACTOR if op.cut < plan.kg else WIRE_CUT_FACTOR
                            for op in sub.ops if isinstance(op, SubOp))
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
        self.gates2q = sorted(gates2q)
        self.cuttable = list(cuttable) if cuttable is not None else [True] * n
        # Each wire's (time, partner) timeline, in time order.
        self.by_wire: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for t, u, v in self.gates2q:
            self.by_wire[u].append((t, v))
            self.by_wire[v].append((t, u))
        # The wires a cut can split (cuttable, two or more 2-qubit gates):
        # each with its first gate, its later gates and its partner set.
        self.sweeps = tuple(
            (w, timeline[0], tuple(timeline[1:]), frozenset(p for _, p in timeline))
            for w, timeline in enumerate(self.by_wire)
            if self.cuttable[w] and len(timeline) >= 2
        )
        # The cut position of an uncut wire: after every gate.
        self.never = self.gates2q[-1][0] + 1 if self.gates2q else 0
        # The wires with a 2-qubit gate: only their labels reach a refinement.
        self._linked = tuple(w for w, timeline in enumerate(self.by_wire) if timeline)
        # (max_passes, labels of the linked wires) -> (cuts, kg).
        self._refined: dict[tuple[int, ...], tuple[dict[int, int], int]] = {}

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
        labelings that differ only on idle wires share its result.
        """
        key = (max_passes, *[labels[w] for w in self._linked])
        if key in self._refined:
            cuts, kg = self._refined[key]
            return dict(cuts), kg
        never = self.never
        cut_at = [never] * self.n
        stale = [True] * self.n
        kg = sum(labels[u] != labels[v] for _, u, v in self.gates2q)
        for _ in range(max_passes):
            changed = False
            for w, (t0, p0), rest, partners in self.sweeps:
                if not stale[w]:
                    continue
                stale[w] = False
                current, cut_at[w] = cut_at[w], never
                side = labels[w]
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
                best, new = low + d - s, s
                # 9 < 16 < 9², so one wire cut pays for itself iff it saves
                # two or more gate cuts.
                if best <= s - 2:
                    cut_at[w], new = pos, best
                kg += new - own
                if cut_at[w] != current:
                    changed = True
                    for p in partners:
                        stale[p] = True
            if not changed:
                break
        cuts = {w: t for w, t in enumerate(cut_at) if t != never}
        self._refined[key] = (cuts, kg)
        return dict(cuts), kg


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
    n = problem.n
    labelings = (
        tuple(((bits >> (q - 1)) & 1) if q else 0 for q in range(n))
        for bits in range(1, 1 << (n - 1))
    )
    return _best_feasible(problem, labelings, max_side)


def _bfs_balanced_labels(problem: _Bipartitioner) -> tuple[int, ...]:
    n = problem.n
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
            for w in sorted({partner for _, partner in problem.by_wire[v]}):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    labels = [1] * n
    for q in order[: (n + 1) // 2]:
        labels[q] = 0
    if labels[0] == 1:
        labels = [l ^ 1 for l in labels]
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


def _solve_bipartition(problem: _Bipartitioner, max_side, seed: int):
    if problem.n <= EXHAUSTIVE_LIMIT:
        return _search_exhaustive(problem, max_side)
    return _search_annealed(problem, max_side, seed)


def find_cuts(
    circuit: Circuit,
    max_qubits: int | None = None,
    seed: int = 0,
) -> CutPlan:
    """Search for a minimum-overhead cut plan by repeated bisection.

    Starting from the one-part plan, each pass bisects one part: the whole
    register first, then, with ``max_qubits`` set, the lowest-labelled part
    that still holds more than ``max_qubits`` wires. A bisection searches
    0/1 labelings of the part's (qubit, segment) wires, with at most one
    wire cut per qubit (qubits cut at an earlier pass are frozen, so the
    bound holds globally); it is exhaustive up to 14 wires and annealed
    above, with seed ``seed + i`` at pass i. It takes the cheapest labeling
    whose sides fit ``max_qubits``, else the cheapest one. The new part of
    pass i gets label i + 1.
    """
    if circuit.n < 2:
        raise CutError("cannot partition a circuit with fewer than 2 qubits")
    if max_qubits is not None and max_qubits < 1:
        raise CutError("max_qubits must be positive")
    gates2q = _two_qubit_gates(circuit)
    plan = _build_plan(circuit, (0,) * circuit.n, {})
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
        # With no side bound every bisection of two or more wires is
        # feasible, so the fallback always returns one.
        best = _solve_bipartition(problem, max_qubits, seed + i) or _solve_bipartition(
            problem, None, seed + i
        )
        _, sides, cut_items, _ = best
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
    return replace(
        plan,
        gate_cuts=tuple(_crossing_gates(circuit, plan)),
        num_subcircuits=len(plan.parts),
    )


# --- subcircuit extraction ----------------------------------------------------


@dataclass(frozen=True)
class SubOp:
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


@dataclass(frozen=True)
class Subcircuit:
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


@dataclass(frozen=True)
class GateCutInfo:
    kind: str


@dataclass(frozen=True)
class WireCutInfo:
    """One wire cut; its ends are the part ops that carry its cut index."""


@dataclass(frozen=True)
class Extraction:
    plan: CutPlan
    subcircuits: tuple[Subcircuit, ...]
    gate_cut_infos: tuple[GateCutInfo, ...]
    wire_cut_infos: tuple[WireCutInfo, ...]
    term_coeffs: tuple[complex, ...]


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
    wirecuts_at: dict[int, list[tuple[int, int]]] = {}  # position -> [(qubit, segment)]
    for q in range(plan.n):
        for k, (start, _) in enumerate(plan.segments(q)[1:], start=1):
            wirecuts_at.setdefault(start, []).append((q, k))

    stream: dict[int, list[Gate | SubOp]] = {label: [] for label in plan.parts}
    gate_cut_infos: list[GateCutInfo] = []
    wire_cut_infos: list[WireCutInfo] = []

    def emit_ends(cut: int, wires) -> None:
        for side, wire in enumerate(wires):
            label, local = local_index[wire]
            stream[label].append(SubOp(cut, side, local))

    def emit_wire_cuts(pos: int) -> None:
        for q, k in wirecuts_at.get(pos, ()):
            # Wire cuts are numbered after every gate cut.
            emit_ends(plan.kg + len(wire_cut_infos), ((q, k - 1), (q, k)))
            wire_cut_infos.append(WireCutInfo())

    gate_cut_set = set(plan.gate_cuts)
    for t, g in enumerate(circuit.gates):
        emit_wire_cuts(t)
        wires = [plan.wire_at(q, t) for q in g.qubits]
        labels = {local_index[w][0] for w in wires}
        if len(labels) == 1:
            local_qubits = tuple(local_index[w][1] for w in wires)
            stream[labels.pop()].append(Gate(g.kind, local_qubits, angle=g.angle, axis=g.axis))
        else:
            if t not in gate_cut_set or len(g.qubits) != 2:
                raise CutError(f"gate {t} crosses parts but is not a valid gate cut")
            emit_ends(len(gate_cut_infos), wires)
            gate_cut_infos.append(GateCutInfo(g.kind))
    emit_wire_cuts(len(circuit.gates))

    final = [local_index[plan.wire_at(q, len(circuit.gates))] for q in range(plan.n)]
    subcircuits = []
    for label, wires in plan.parts.items():
        m = len(wires)
        ops: list[Circuit | SubOp] = []
        for is_gate, group in groupby(stream[label], key=lambda op: isinstance(op, Gate)):
            if is_gate:
                ops.append(Circuit(m, tuple(group)))
            else:
                ops.extend(group)
        words = []
        for term_x, term_z in zip(_mask_ints(obs.x), _mask_ints(obs.z)):
            x = z = 0
            for q, (final_label, i) in enumerate(final):
                if final_label != label:
                    continue
                x |= ((term_x >> q) & 1) << i
                z |= ((term_z >> q) & 1) << i
            words.append(PauliString(m, x, z))
        subcircuits.append(Subcircuit(n=m, ops=tuple(ops), wire_origin=wires, words=tuple(words)))
    return Extraction(
        plan=plan,
        subcircuits=tuple(subcircuits),
        gate_cut_infos=tuple(gate_cut_infos),
        wire_cut_infos=tuple(wire_cut_infos),
        term_coeffs=tuple(obs.coeffs.tolist()),
    )
