import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cutprop.circuits import Circuit, Gate, lower_rotations, parse_qasm
import cutprop.cutting as cutting
from cutprop.cli import _bench_instances
from cutprop.cutting import (
    CutError,
    CutPlan,
    _Bipartitioner,
    _one_cut,
    _search_exhaustive,
    _solve_bipartition,
    _two_qubit_gates,
    _zero_cut,
    cost,
    SubOp,
    extract_subcircuits,
    find_cuts,
    total_executions,
    validate_plan,
)
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    heavy_hex_19_edges,
    heisenberg_trotter,
    random_circuit,
    weight_z_observable,
)
from cutprop.paulis import Observable, PauliString, canonicalize, parse_observable
from cutprop.qpd import _onto, _walked_wires, cut_and_reconstruct, uncut_expectation
from oracles import (
    crossing_count,
    interaction_graph,
    per_subcircuit_costs,
    perfbench_inputs,
    random_observable,
    refine_wire_cuts,
    segment_label,
    single_cut_brute_force,
)


def ladder(n, kind="cz", per_edge=1):
    gates = []
    for _ in range(per_edge):
        for q in range(n - 1):
            gates.append(Gate(kind, (q, q + 1)))
    return Circuit(n, tuple(gates))


# --- interaction graph ---------------------------------------------------------


def test_interaction_graph_path():
    g = interaction_graph(ladder(4))
    assert g == {(0, 1): 1, (1, 2): 1, (2, 3): 1}


def test_interaction_graph_no_two_qubit_gates():
    circ = Circuit(3, (Gate("h", (0,)), Gate("rz", (1,), angle=0.3)))
    assert interaction_graph(circ) == {}


def test_interaction_graph_weights_accumulate():
    circ = Circuit(2, (Gate("cx", (0, 1)), Gate("cx", (0, 1))))
    assert interaction_graph(circ) == {(0, 1): 2}


# --- cost accounting -------------------------------------------------------------


def test_cost_formula_reference_values():
    assert total_executions(kg=2, kw=1, groups=1) == 1296
    assert total_executions(kg=1, kw=1, groups=2) == 288
    assert total_executions(kg=0, kw=0, groups=1) == 1


def test_cost_monotone_in_each_argument():
    base = total_executions(1, 1, 2)
    assert total_executions(2, 1, 2) > base
    assert total_executions(1, 2, 2) > base
    assert total_executions(1, 1, 3) > base


def test_cost_uses_grouping_of_observable():
    circ = ladder(3)
    plan = find_cuts(circ)
    obs = Observable.from_labels(
        [(1.0, "IZI"), (1.0, "IIZ"), (1.0, "ZII"), (1.0, "IXZ"), (1.0, "IZX")]
    )
    report = cost(plan, obs)
    assert report.groups == 2
    assert report.total_executions == 2 * 9**report.kg * 16**report.kw


def test_cost_per_subcircuit_mode():
    circ = ladder(3)
    plan = find_cuts(circ)
    obs = weight_z_observable(3, 1)
    report = cost(plan, obs, circ)
    # One cut gate; each part holds its own Z words (a part's restriction
    # of another part's term is the identity word).
    assert report.per_subcircuit == per_subcircuit_costs(plan, obs)
    assert [g_i for _, g_i in report.per_subcircuit] == [1, 1]


def _heis19():
    return lower_rotations(
        heisenberg_trotter(list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, 1.0, 1)
    )


def test_cost_per_subcircuit_matches_mask_reference():
    # Rows read off the extraction equal the plan's own masks: on seeded
    # circuits with bounded and unbounded plans, on heis19 split into parts
    # of at most 6, 8 and 10 wires.
    # test_wire_cut_order_does_not_matter covers two wire cuts on one qubit.
    cases = []
    for trial in range(8):
        rng = np.random.default_rng((77, trial))
        n = int(rng.integers(3, 8))
        circ = lower_rotations(random_circuit(n, 3 * n, rng, p_two_qubit=0.5))
        obs = random_observable(n, rng, max_weight=3, num_terms=6)
        cases += [(circ, find_cuts(circ, seed=trial), obs),
                  (circ, find_cuts(circ, max_qubits=2, seed=trial), obs)]
    heis19 = _heis19()
    obs19 = random_observable(19, np.random.default_rng(78), max_weight=4, num_terms=12)
    cases += [(heis19, find_cuts(heis19, max_qubits=b), obs19) for b in (6, 8, 10)]
    ends = set()  # each part's (gate-cut ends, wire-cut ends)
    for circ, plan, obs in cases:
        assert cost(plan, obs, circ).per_subcircuit == per_subcircuit_costs(plan, obs)
        for sub in extract_subcircuits(circ, plan, obs).subcircuits:
            cuts = [op.cut for op in sub.ops if isinstance(op, SubOp)]
            gate_ends = sum(c < plan.kg for c in cuts)
            ends.add((gate_ends, len(cuts) - gate_ends))
    # parts with gate-cut ends only, wire-cut ends only, both, and none
    assert {(0, 0), (1, 0), (0, 1)} <= ends and any(g and w for g, w in ends)


def test_cost_per_subcircuit_rejects_a_circuit_the_plan_does_not_fit():
    circ = Circuit(3, (Gate("h", (0,)), Gate("cz", (0, 1)), Gate("cx", (1, 2)),
                       Gate("cz", (0, 2))))
    plan = find_cuts(circ)
    assert plan.gate_cuts == (2, 3)
    obs = weight_z_observable(3, 1)
    # Too few gates for the cut indices, and a 1-qubit gate where a cut gate
    # was: the extraction's plan check refuses both.
    for gates in ((Gate("h", (0,)),),
                  (Gate("cz", (1, 2)), Gate("h", (0,)), Gate("h", (0,)), Gate("h", (0,)))):
        with pytest.raises(CutError):
            cost(plan, obs, Circuit(3, gates))


# --- find_cuts -------------------------------------------------------------------


def test_disconnected_circuit_zero_cuts():
    circ = Circuit(4, (Gate("cx", (0, 1)), Gate("cz", (2, 3))))
    plan = find_cuts(circ)
    assert plan.kg == 0 and plan.kw == 0
    assert plan.num_subcircuits == 2
    validate_plan(circ, plan)


def test_path_single_gate_cut():
    plan = find_cuts(ladder(3))
    assert (plan.kg, plan.kw) == (1, 0)
    assert total_executions(plan.kg, plan.kw, 1) == 9


def test_wire_cut_beats_two_gate_cuts():
    # qubit 2 talks to block {0,1} twice early and block {3,4,5} twice
    # late, so any bipartition leaves it with 2 crossing gates (81) while
    # one wire cut between the halves costs 16.
    gates = (
        Gate("cz", (0, 1)),
        Gate("cz", (0, 2)),
        Gate("cz", (1, 2)),
        Gate("cz", (2, 3)),
        Gate("cz", (2, 4)),
        Gate("cz", (3, 4)),
        Gate("cz", (3, 5)),
        Gate("cz", (4, 5)),
    )
    circ = Circuit(6, gates)
    plan = find_cuts(circ)
    assert (plan.kg, plan.kw) == (0, 1)
    assert plan.wire_cuts[0][0] == 2
    assert 9**plan.kg * 16**plan.kw == brute_force_minimum(circ)
    validate_plan(circ, plan)


def brute_force_minimum(circ):
    """Exhaustive scan of the declared plan space: every bipartition label
    vector crossed with every combination of at-most-one wire cut per
    qubit, where a cut must fall strictly inside the qubit's interaction
    timeline (anything else merely relabels the wire)."""
    n = circ.n
    gates2q = [(t, g.qubits[0], g.qubits[1]) for t, g in enumerate(circ.gates) if len(g.qubits) == 2]
    positions = {
        q: sorted({t for t, u, v in gates2q if q in (u, v)})[1:] for q in range(n)
    }

    best = None
    for bits in range(1, 1 << (n - 1)):
        labels = [((bits >> (q - 1)) & 1) if q else 0 for q in range(n)]
        options = [[None] + positions[q] for q in range(n)]
        for combo in itertools.product(*options):
            cuts = {q: p for q, p in enumerate(combo) if p is not None}
            c = 9 ** crossing_count(gates2q, labels, cuts) * 16 ** len(cuts)
            if best is None or c < best:
                best = c
    return best


def test_optimizer_matches_brute_force_on_small_corpus():
    corpus = [ladder(3), ladder(4), ladder(3, per_edge=2)]
    for trial in range(5):
        rng = np.random.default_rng((55, trial))
        n = int(rng.integers(3, 6))
        corpus.append(lower_rotations(random_circuit(n, int(rng.integers(4, 10)), rng)))
    for circ in corpus:
        if not interaction_graph(circ):
            continue
        plan = find_cuts(circ)
        got = 9**plan.kg * 16**plan.kw
        assert got == brute_force_minimum(circ), circ


def test_refine_running_count_matches_recount():
    # Every labeling of a few small circuits: the running crossing count
    # equals a full recount of the cuts it returns, and the cuts sit only on
    # cuttable wires, strictly inside their interaction timelines.
    problems = []
    for trial in range(4):
        rng = np.random.default_rng((57, trial))
        n = int(rng.integers(3, 7))
        circ = lower_rotations(random_circuit(n, 4 * n, rng, p_two_qubit=0.7))
        problems.append(_Bipartitioner(n, _two_qubit_gates(circ)))
    # As at a recursion level: wires 0 and 2 are segments of qubits that
    # already carry their one wire cut.
    last = problems[-1]
    problems.append(_Bipartitioner(last.n, last.gates2q, [w not in (0, 2) for w in range(last.n)]))
    for problem in problems:
        for labels in itertools.product((0, 1), repeat=problem.n):
            for passes in (0, 2, 8):
                cuts, kg = problem.refine_wire_cuts(labels, passes)
                assert kg == crossing_count(problem.gates2q, labels, cuts)
                for w, pos in cuts.items():
                    times = [t for t, _ in problem.by_wire[w]]
                    assert problem.cuttable[w] and pos in times[1:]


@pytest.fixture(scope="module")
def heis19_bench_searches(tmp_path_factory):
    """The heis19 seed-0 bench row, each leftover circuit its budget search
    cuts, and the find_cuts calls that cutting them took."""
    import cutprop.annealing
    from cutprop.annealing import ObjectiveEvaluator
    from cutprop.cli import main

    searched = {}  # leftover gate count -> (circuit, plan)
    calls = []  # (leftover gate count, find_cuts keywords) per find_cuts call
    evaluator_plan = ObjectiveEvaluator.plan

    def recording_plan(self, boundary):
        plan = evaluator_plan(self, boundary)
        searched.setdefault(boundary, (self.circuit.prefix(boundary), plan))
        return plan

    def recording_find_cuts(circuit, **kwargs):
        calls.append((len(circuit.gates), kwargs))
        return find_cuts(circuit, **kwargs)

    out = tmp_path_factory.mktemp("heis19") / "bench.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutprop.annealing, "find_cuts", recording_find_cuts)
        mp.setattr(ObjectiveEvaluator, "plan", recording_plan)
        assert main(["bench", "--suite", "heis19", "--seed", "0", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["results"]["rows"]
    return row, searched, calls


def _two_phase_problem(n, rng):
    # Wires sit in one of two groups per half of the circuit, a few switch
    # groups halfway, and most gates stay inside a group; about one wire in
    # five is frozen, as at a recursion level.
    groups = rng.integers(0, 2, size=(2, n))
    groups[1] ^= rng.random(n) < 0.2
    gates2q, t = [], 0
    for phase in (0, 1):
        for _ in range(2 * n):
            t += int(rng.integers(1, 4))
            u, v = (int(q) for q in rng.choice(n, size=2, replace=False))
            if groups[phase, u] != groups[phase, v] and rng.random() < 0.8:
                continue
            gates2q.append((t, u, v))
    cuttable = [bool(c) for c in rng.random(n) > 0.2]
    return _Bipartitioner(n, gates2q, cuttable), groups


def test_refine_matches_reference(heis19_bench_searches):
    # The one-sweep refinement against the reference that prices every cut
    # position from a dict: cuts and kg agree exactly.
    # Every labeling of the small problems of the recount test above.
    small = []
    for trial in range(4):
        rng = np.random.default_rng((57, trial))
        n = int(rng.integers(3, 7))
        circ = lower_rotations(random_circuit(n, 4 * n, rng, p_two_qubit=0.7))
        small.append(_Bipartitioner(n, _two_qubit_gates(circ)))
    last = small[-1]
    small.append(_Bipartitioner(last.n, last.gates2q, [w not in (0, 2) for w in range(last.n)]))
    checks = [(p, labels) for p in small for labels in itertools.product((0, 1), repeat=p.n)]
    # Seeded labelings of the heis19 leftover circuits and of 15-24-wire problems.
    rng = np.random.default_rng(58)
    _, searched, _ = heis19_bench_searches
    problems = [(_Bipartitioner(c.n, _two_qubit_gates(c)), None) for c, _ in searched.values()]
    problems += [_two_phase_problem(int(n), rng) for n in rng.integers(15, 25, size=12)]
    for problem, groups in problems:
        for _ in range(40):
            if groups is not None and rng.random() < 0.5:
                # One half's grouping with a few wires flipped: wire cuts pay here.
                labels = groups[int(rng.integers(0, 2))] ^ (rng.random(problem.n) < 0.1)
            else:
                labels = rng.random(problem.n) < rng.uniform(0.05, 0.5)
            checks.append((problem, tuple(int(l) for l in labels)))
    with_cuts = 0
    for problem, labels in checks:
        for passes in (0, 2, 8):
            got = problem.refine_wire_cuts(labels, passes)
            assert got == refine_wire_cuts(problem, labels, passes), (labels, passes)
            with_cuts += bool(got[0])
    assert with_cuts > len(checks) // 4


def test_refine_ignores_idle_wire_labels():
    # Labelings that agree on the wires with a 2-qubit gate and differ on
    # the idle ones get one refinement, equal to the reference's for each.
    heis = _heis19().prefix(146)  # its 2-qubit gates touch 8 of the 19 wires
    two_phase, groups = _two_phase_problem(20, np.random.default_rng(59))
    gate_free = {1, 6, 13}
    gates2q = [g for g in two_phase.gates2q if not {g[1], g[2]} & gate_free]
    problems = [
        (_Bipartitioner(heis.n, _two_qubit_gates(heis)), None),
        (_Bipartitioner(two_phase.n, gates2q, two_phase.cuttable), groups),
    ]
    rng = np.random.default_rng(60)
    with_cuts = 0
    for problem, groups in problems:
        idle = [w for w, timeline in enumerate(problem.by_wire) if not timeline]
        assert len(idle) >= 3
        for _ in range(30):
            if groups is not None and rng.random() < 0.5:
                labels = groups[int(rng.integers(0, 2))] ^ (rng.random(problem.n) < 0.1)
            else:
                labels = rng.random(problem.n) < 0.5
            labels = [int(l) for l in labels]
            other = list(labels)
            for w in idle:
                other[w] = int(rng.integers(0, 2))
            other[idle[0]] ^= 1
            for passes in (0, 2, 8):
                refined = len(problem._refined)
                got = problem.refine_wire_cuts(tuple(labels), passes)
                assert got == refine_wire_cuts(problem, labels, passes), (labels, passes)
                assert problem.refine_wire_cuts(tuple(other), passes) == got, (other, passes)
                assert got == refine_wire_cuts(problem, other, passes), (other, passes)
                assert len(problem._refined) <= refined + 1
                with_cuts += bool(got[0])
    assert with_cuts > 60


def test_sweep_memo_matches_reference():
    # One instance serves many labelings at 0, 1, 2 and 8 passes, so later
    # refinements replay sweeps that earlier ones stored; each answer equals
    # the reference's, which sweeps every wire afresh. The problems have two
    # idle wires, frozen wires, and two gates on one pair wherever a gate is
    # doubled.
    rng = np.random.default_rng(62)
    with_cuts = 0
    for n in rng.integers(6, 16, size=10):
        base, groups = _two_phase_problem(int(n), rng)
        gates2q = [(2 * t, u, v) for t, u, v in base.gates2q]
        gates2q += [(t + 1, v, u) for t, u, v in gates2q if rng.random() < 0.3]
        problem = _Bipartitioner(base.n + 2, gates2q, base.cuttable + [True, True])
        groups = np.hstack([groups, rng.integers(0, 2, size=(2, 2))])
        assert not problem.by_wire[-1] and not problem.by_wire[-2]
        assert not all(problem.cuttable[w] for w in range(base.n) if len(problem.by_wire[w]) > 1)
        for _ in range(40):
            if rng.random() < 0.5:
                labels = groups[int(rng.integers(0, 2))] ^ (rng.random(problem.n) < 0.1)
            else:
                labels = rng.random(problem.n) < rng.uniform(0.1, 0.5)
            labels = tuple(int(l) for l in labels)
            for passes in (0, 1, 2, 8):
                got = problem.refine_wire_cuts(labels, passes)
                assert got == refine_wire_cuts(problem, labels, passes), (labels, passes)
                with_cuts += bool(got[0])
    assert with_cuts > 200


def _record_bisections(monkeypatch) -> tuple[list, list[int]]:
    """Record each bisection problem built and count the labelings priced.

    Returns the problems and a one-item list holding the count.
    """
    problems, priced = [], [0]
    init, refine = _Bipartitioner.__init__, _Bipartitioner.refine_wire_cuts

    def recording_init(self, *args):
        init(self, *args)
        problems.append(self)

    def counting_refine(self, *args, **kwargs):
        priced[0] += 1
        return refine(self, *args, **kwargs)

    monkeypatch.setattr(_Bipartitioner, "__init__", recording_init)
    monkeypatch.setattr(_Bipartitioner, "refine_wire_cuts", counting_refine)
    return problems, priced


def test_heis19_bench_search_refines_each_pattern_once(heis19_bench_searches, monkeypatch):
    # The seed-0 row's six cut searches price 5 labelings and refine 5
    # distinct (passes, linked labels) patterns: five of the six bisections
    # are disconnected and price one labeling each, and the sixth, which has
    # no idle wire and no one-gate cut, prices none: a bridge of its segment
    # graph is its one wire cut, so it runs no wire sweep.
    _, searched, calls = heis19_bench_searches
    problems, priced = _record_bisections(monkeypatch)
    for b, kwargs in calls:
        circuit, plan = searched[b]
        assert find_cuts(circuit, **kwargs) == plan
    assert len(problems) == 6
    assert priced == [5]
    assert sum(len(p._refined) for p in problems) == 5
    assert [len(p._swept) for p in problems] == [3, 0, 8, 8, 7, 6]


def test_bounded_heis19_search_refines_each_pattern_once(monkeypatch):
    # A bounded search is where the refinement cache pays: on the first 41
    # gates at max_qubits=6 it prices 4,017 labelings but refines 15
    # patterns, which run 33 distinct wire sweeps. The passes over 13 to 19
    # wires, more than 2 * 6, search no bounded labeling.
    (_, heis19, _), = _bench_instances("heis19", 0)
    problems, priced = _record_bisections(monkeypatch)
    find_cuts(heis19.prefix(41), max_qubits=6, seed=0)
    assert priced == [4017]
    assert sum(len(p._refined) for p in problems) == 15
    assert sum(len(p._swept) for p in problems) == 33


def test_no_bounded_search_runs_where_no_labeling_fits(monkeypatch):
    # Two sides of max_side wires hold at most 2 * max_side wires, a cut
    # wire on both, so a bounded search runs only on that many; a wider
    # part falls back to the unbounded answer at once.
    calls = []
    exhaustive, annealed = cutting._search_exhaustive, cutting._search_annealed

    def recording_exhaustive(problem, max_side):
        calls.append((problem.n, max_side))
        return exhaustive(problem, max_side)

    def recording_annealed(problem, max_side, seed):
        calls.append((problem.n, max_side))
        return annealed(problem, max_side, seed)

    monkeypatch.setattr(cutting, "_search_exhaustive", recording_exhaustive)
    monkeypatch.setattr(cutting, "_search_annealed", recording_annealed)
    for circ, bound in ((_heis19(), 5), (_heis19(), 4), (_h_cz_chain(50), 12)):
        calls.clear()
        find_cuts(circ, max_qubits=bound, seed=0)
        bounded = [n for n, max_side in calls if max_side is not None]
        assert bounded and all(n <= 2 * bound for n in bounded), (bound, calls)
        assert any(max_side is None for _, max_side in calls), (bound, calls)


def test_heis19_bench_shortcut_answers_five_of_six_searches(heis19_bench_searches,
                                                            monkeypatch):
    # Five of the seed-0 row's six bisections are disconnected and take the
    # shortcut; the 450-gate leftover, whose 2-qubit gates join all 19
    # wires, is settled by its one-wire cuts, so no search anneals. A count
    # of searches, not a speed-up.
    _, searched, calls = heis19_bench_searches
    solved, annealed = [], []
    solve, anneal = cutting._solve_bipartition, cutting._search_annealed

    def recording_solve(problem, *args):
        solved.append(problem)
        return solve(problem, *args)

    def recording_anneal(problem, *args):
        annealed.append(problem)
        return anneal(problem, *args)

    monkeypatch.setattr(cutting, "_solve_bipartition", recording_solve)
    monkeypatch.setattr(cutting, "_search_annealed", recording_anneal)
    for b, kwargs in calls:
        circuit, plan = searched[b]
        assert find_cuts(circuit, **kwargs) == plan
    assert len(solved) == 6
    assert sum(len(p.components) > 1 for p in solved) == 5
    assert annealed == []


def _disconnected_problems():
    """Bisections of at most 14 wires whose 2-qubit gates leave two or more
    components: the circuit prefixes of every suite but heis19, and seeded
    circuits with idle wires or with two blocks that never meet, some with
    wires frozen as at a recursion level."""
    for suite in ("vqe6", "qaoa3", "random"):
        for _, circ, _ in _bench_instances(suite, 0):
            counts = {len(_two_qubit_gates(circ.prefix(b))): b for b in range(len(circ.gates) + 1)}
            for b in counts.values():
                yield _Bipartitioner(circ.n, _two_qubit_gates(circ.prefix(b)))
    rng = np.random.default_rng(61)
    for trial in range(30):
        n = int(rng.integers(3, 15))
        if trial % 2:  # idle wires among one random block
            blocks = [[int(q) for q in rng.permutation(n)[: n - int(rng.integers(1, n - 1))]]]
        else:  # two blocks, each joined inside
            order = [int(q) for q in rng.permutation(n)]
            cut = int(rng.integers(1, n))
            blocks = [order[:cut], order[cut:]]
        gates = []
        for block in blocks:
            if len(block) < 2:
                continue
            local = random_circuit(len(block), 2 * len(block), rng, p_two_qubit=0.8)
            gates += [Gate(g.kind, tuple(block[q] for q in g.qubits), angle=g.angle, axis=g.axis)
                      for g in local.gates]
        order = rng.permutation(len(gates))  # interleave the blocks
        circ = Circuit(n, tuple(gates[i] for i in order))
        cuttable = [bool(c) for c in rng.random(n) > 0.2] if trial % 3 == 0 else None
        yield _Bipartitioner(n, _two_qubit_gates(circ), cuttable)


def test_disconnected_bisection_shortcut_equals_the_exhaustive_search():
    # Unbounded, the shortcut returns what the exhaustive search returns:
    # the same cost 1, labels and (no) cuts.
    disconnected = 0
    for problem in _disconnected_problems():
        assert sorted(w for c in problem.components for w in c) == list(range(problem.n))
        if len(problem.components) < 2:
            continue
        disconnected += 1
        got = _solve_bipartition(problem, None, 0)
        assert got == _zero_cut(problem) == _search_exhaustive(problem, None)
        assert got[0] == 1 and got[2] == ()
    assert disconnected >= 40


def test_disconnected_heis19_leftover_shortcut_equals_the_exhaustive_search():
    # Above the exhaustive width too: the 41-gate heis19 leftover, whose
    # 2-qubit gates touch 3 of 19 wires, over all 2^18 labelings (about 2 s).
    problem = _Bipartitioner(19, _two_qubit_gates(_heis19().prefix(41)))
    assert len(problem.components) == 17
    got = _solve_bipartition(problem, None, 0)
    assert got == _search_exhaustive(problem, None) == (1, (0,) * 18 + (1,), (), True)


def _connected_problems(count):
    """Seeded bisections of 4-10 wires whose 2-qubit gates join every wire:
    random pairs, neighbours on a line, two halves that rarely meet, or two
    halves that meet only through one wire, which meets one half and then
    the other; one in three with wires frozen as at a recursion level."""
    rng = np.random.default_rng(44)
    for trial in itertools.count():
        n, style = int(rng.integers(4, 11)), trial % 4
        half = [int(2 * q < n) for q in range(n)]
        mover = int(rng.integers(n))
        gates2q, t, size = [], 0, int(rng.integers(n, 3 * n)) + n * (style == 3)
        while len(gates2q) < size:
            t += int(rng.integers(1, 3))
            if style == 1:  # a line, each gate either way round
                u = int(rng.integers(0, n - 1))
                u, v = (u, u + 1) if rng.random() < 0.5 else (u + 1, u)
            elif style == 3 and rng.random() < 0.5:  # half 1 in the first half of the gates
                phase = int(2 * len(gates2q) < size)
                others = [q for q in range(n) if q != mover and half[q] == phase]
                u, v = mover, int(rng.choice(others))
            else:
                u, v = (int(q) for q in rng.choice(n, size=2, replace=False))
                if style == 3 and (mover in (u, v) or half[u] != half[v]):
                    continue
                if style == 2 and half[u] != half[v] and rng.random() < 0.85:
                    continue
            gates2q.append((t, u, v))
        cuttable = [bool(c) for c in rng.random(n) > 0.2] if trial % 3 == 0 else None
        problem = _Bipartitioner(n, gates2q, cuttable)
        if len(problem.components) == 1:
            yield problem
            count -= 1
            if not count:
                return


def test_settled_bisection_is_the_single_cut_brute_force_answer():
    # The bridge search answers exactly when one gate cut (9) or one wire cut
    # (16) separates the wires, with the brute force's key: cost, labels,
    # cuts and feasibility, on every problem of at most 8 wires. On all 300
    # it is never worse than the exhaustive search, whose cut positions come
    # from a descent that can miss the one wire cut.
    optima, small = Counter(), 0
    for problem in _connected_problems(300):
        got, searched = _one_cut(problem), _search_exhaustive(problem, None)
        optima[searched[0]] += 1
        if problem.n <= 8:
            small += 1
            assert got == single_cut_brute_force(problem), problem.gates2q
        if searched[0] <= 16:
            assert got is not None and got <= searched, problem.gates2q
    assert small > 200
    assert optima[9] > 100 and optima[16] > 50 and optima[81] + optima[144] > 100


def test_a_pair_joined_both_ways_round_is_not_a_one_gate_cut():
    # cz(0, 1) and cz(1, 0) join wires 0 and 1 twice, so only the gate
    # between wires 1 and 2 is a one-gate cut; it beats wire 1's one cut.
    problem = _Bipartitioner(3, [(0, 0, 1), (1, 1, 0), (2, 1, 2)])
    assert _one_cut(problem) == (9, (0, 0, 1), (), True)


def test_a_single_cut_on_a_frozen_wire_is_not_settled():
    # Wire 1 meets wire 0 twice and then wire 2 twice, so only a cut of
    # wire 1 before gate 2 separates them; frozen, it leaves two gate cuts.
    gates2q = [(0, 0, 1), (1, 1, 0), (2, 1, 2), (3, 2, 1)]
    assert _one_cut(_Bipartitioner(3, gates2q)) == (16, (0, 0, 1), ((1, 2),), True)
    frozen = _Bipartitioner(3, gates2q, [True, False, True])
    assert _one_cut(frozen) is None
    assert _search_exhaustive(frozen, None)[0] == 81


def _missed_wire_cut_circuits():
    """Two seeded random circuits whose one wire cut the descent missed:
    it priced the 6-qubit one at 144 and the 15-qubit one at 81."""
    rng = np.random.default_rng((777, 6, 4))
    yield lower_rotations(random_circuit(6, int(rng.integers(6, 30)), rng,
                                         p_two_qubit=float(rng.uniform(0.5, 1.0))))
    rng = np.random.default_rng((779, 15, 9))
    yield lower_rotations(random_circuit(15, int(rng.integers(30, 60)), rng, p_two_qubit=0.9))


def test_one_wire_cuts_the_descent_missed_are_settled():
    for circ, wire_cut in zip(_missed_wire_cut_circuits(), ((4, 35, 0), (4, 32, 0))):
        plan = find_cuts(circ, seed=0)
        validate_plan(circ, plan)
        assert (plan.gate_cuts, plan.wire_cuts) == ((), (wire_cut,))
        obs = weight_z_observable(circ.n, 2)
        assert cut_and_reconstruct(circ, plan, obs).exact_value == pytest.approx(
            uncut_expectation(circ, obs), abs=1e-12)


def _two_cluster(n, seed):
    """3n cz gates, each between the two halves with probability 0.08 and
    inside a random half otherwise, with an h on the higher qubit after each."""
    rng = np.random.default_rng((n, seed))
    gates = []
    for _ in range(3 * n):
        if rng.random() < 0.08:
            u, v = int(rng.integers(0, n // 2)), int(rng.integers(n // 2, n))
        else:
            lo, hi = (0, n // 2) if rng.random() < 0.5 else (n // 2, n)
            u, v = (int(q) for q in rng.choice(np.arange(lo, hi), size=2, replace=False))
        gates += [Gate("cz", (u, v)), Gate("h", (max(u, v),))]
    return Circuit(n, tuple(gates))


def _h_cz_chain(n):
    gates = (g for q in range(n - 1) for g in (Gate("h", (q,)), Gate("cz", (q, q + 1))))
    return Circuit(n, tuple(gates))


def test_one_gate_cuts_the_walk_missed_are_settled(monkeypatch):
    # The annealed walk cut these for 144 executions where one gate cut
    # suffices; a 150-qubit h+cz chain took it seconds. None of them walks now.
    def must_not_run(*args):
        raise AssertionError("annealed a bisection that one cut settles")

    monkeypatch.setattr(cutting, "_search_annealed", must_not_run)
    for circ, gate_cut in ((_random_dense(16, 3), 82), (_two_cluster(21, 0), 124),
                           (_h_cz_chain(150), 297)):
        plan = find_cuts(circ, seed=0)
        assert (plan.gate_cuts, plan.wire_cuts) == ((gate_cut,), ())


def test_the_fallback_of_a_bounded_pass_settles_no_single_cut():
    # At max_qubits=8 no bisection of a 32-qubit h+cz chain fits, so each
    # pass falls back to an unbounded search. The smallest single cut would
    # peel the chain's last qubit pass by pass: 17 gate cuts in place of the
    # search's 6 (3 suffice).
    assert find_cuts(_h_cz_chain(32), max_qubits=8, seed=0).kg == 6


def test_an_optimum_of_two_gate_cuts_is_left_to_the_walk():
    # No single cut separates _random_dense(16, 2): the check returns
    # nothing and the annealed walk finds two gate cuts (81).
    problem = _Bipartitioner(16, _two_qubit_gates(_random_dense(16, 2)))
    assert len(problem.components) == 1 and _zero_cut(problem) is None
    assert _one_cut(problem) is None
    assert find_cuts(_random_dense(16, 2), seed=0).kg == 2


# Leftover gate count -> (the one qubit labelled 1, wire cuts) of each plan
# the heis19 seed-0 bench row's budget search chose.
HEIS19_SEED0_PLANS = {
    41: (18, []),
    104: (18, []),
    130: (18, []),
    139: (18, []),
    146: (18, []),
    446: (18, [[17, 380, 1]]),
    450: (18, [[17, 380, 1]]),
    570: (18, [[17, 380, 1]]),
}


def test_heis19_bench_search_outputs_pinned(heis19_bench_searches):
    row, searched, calls = heis19_bench_searches
    assert {k: row[k] for k in (
        "obp_w_opt", "obp_num_circuits", "vanilla_num_circuits", "vanilla_wire_cuts",
        "obp_slices_absorbed",
    )} == {
        "obp_w_opt": 4, "obp_num_circuits": 3, "vanilla_num_circuits": 16,
        "vanilla_wire_cuts": 1, "obp_slices_absorbed": 371,
    }
    for _, kwargs in calls:
        assert kwargs == {"seed": 0}
    # The 446-, 450- and 570-gate leftovers have the same 114 two-qubit
    # gates, so the budget search cuts the first of them it meets (450) and
    # the memo gives the other two its plan without another search.
    assert [b for b, _ in calls] == [41, 450, 146, 139, 130, 104]
    assert {b: plan.to_dict() for b, (_, plan) in searched.items()} == {
        b: {
            "n": 19,
            "labels": [int(q == one) for q in range(19)],
            "wire_cuts": wire_cuts,
            "gate_cuts": [],
            "num_subcircuits": 2,
        }
        for b, (one, wire_cuts) in HEIS19_SEED0_PLANS.items()
    }


def _random_dense(n, trial):
    rng = np.random.default_rng((404, n, trial))
    return lower_rotations(random_circuit(n, int(1.6 * n), rng, p_two_qubit=0.9))


def test_find_cuts_pinned_plans():
    # Plans written out in full, so any change in what the search picks
    # shows here: one-gate and one-wire cuts settled by the check, the
    # annealed path at two seeds on a circuit the check leaves to it, and
    # recursive bisection: heis19 at 8, 5 and 4 wires makes (12, 3), (30, 17)
    # and (41, 17) cuts, and a 50-qubit h+cz chain at 12 wires 6 gate cuts.
    heis19 = _heis19()
    cases = [
        (_random_dense(10, 1), None, 0,
         ((0, 0, 1, 0, 0, 0, 0, 0, 0, 0), ((7, 36, 1),), ())),
        (_random_dense(13, 2), None, 0,
         ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), ((1, 54, 1),), ())),
        # Settled at any seed: one gate cut, which the walk missed at seed 0.
        (_random_dense(16, 3), None, 0,
         ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0), (), (82,))),
        (_random_dense(16, 3), None, 1,
         ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0), (), (82,))),
        (_random_dense(16, 2), None, 0,
         ((0,) * 14 + (1, 1), (), (57, 59))),
        (_random_dense(16, 2), None, 1,
         ((0,) * 12 + (1, 0, 0, 0), (), (32, 62))),
        (heis19, None, 0,
         ((0,) * 18 + (1,), ((17, 380, 1),), ())),
        (heis19, None, 1,
         ((0,) * 18 + (1,), ((17, 380, 1),), ())),
        (_random_dense(7, 3), 2, 0,
         ((0, 1, 5, 0, 4, 2, 6), ((3, 8, 5), (4, 1, 6), (5, 9, 3)),
          (0, 7, 8, 9, 10, 11, 23, 25))),
        (_random_dense(7, 1), 3, 0,
         ((0, 1, 2, 1, 0, 0, 1), ((1, 24, 2),), (5, 7, 24))),
        # Above the exhaustive width the split passes anneal with seed + pass.
        (_random_dense(16, 3), 8, 0,
         ((0, 0, 0, 3, 0, 0, 3, 0, 0, 1, 0, 3, 3, 2, 3, 3), ((9, 38, 3),),
          (33, 34, 36, 38, 73, 75, 80, 90, 103, 106))),
        (_random_dense(16, 3), 8, 1,
         ((0, 0, 0, 3, 3, 3, 3, 0, 0, 3, 0, 0, 1, 2, 3, 3), ((1, 91, 3), (5, 104, 0)),
          (1, 3, 33, 34, 80, 82))),
        # Passes over more than twice the bound fall back to the unbounded answer.
        (heis19, 8, 0,
         ((0, 0, 0, 0, 0, 0, 4, 0, 0, 4, 4, 4, 4, 2, 2, 4, 4, 3, 1),
          ((14, 317, 4), (16, 359, 3), (17, 380, 1)),
          (107, 109, 116, 118, 123, 125, 191, 193, 200, 202, 207, 209))),
        (heis19, 5, 0,
         ((0, 8, 9, 10, 11, 15, 12, 16, 17, 14, 7, 13, 6, 2, 2, 5, 4, 3, 1),
          ((0, 11, 14), (1, 4, 18), (2, 25, 19), (3, 46, 20), (4, 67, 20), (5, 88, 14),
           (6, 109, 20), (7, 130, 14), (8, 172, 14), (9, 254, 6), (10, 214, 20),
           (11, 151, 20), (12, 275, 5), (14, 317, 5), (15, 338, 4), (16, 359, 3),
           (17, 380, 1)),
          (2, 4, 11, 13, 18, 20, 23, 25, 32, 34, 39, 41, 44, 46, 53, 55, 60, 62, 65, 86, 107,
           128, 149, 170, 212, 214, 221, 223, 228, 230))),
        (heis19, 4, 0,
         ((0, 8, 9, 10, 11, 15, 12, 16, 17, 22, 7, 13, 6, 2, 2, 5, 4, 3, 1),
          ((0, 11, 14), (1, 4, 18), (2, 25, 19), (3, 46, 20), (4, 67, 21), (5, 88, 14),
           (6, 109, 22), (7, 130, 14), (8, 172, 14), (9, 254, 6), (10, 214, 22),
           (11, 151, 22), (12, 275, 5), (14, 317, 5), (15, 338, 4), (16, 359, 3),
           (17, 380, 1)),
          (2, 4, 11, 13, 18, 20, 23, 25, 32, 34, 39, 41, 44, 46, 53, 55, 60, 62, 65, 67, 74,
           76, 81, 83, 86, 107, 109, 116, 118, 123, 125, 128, 149, 170, 191, 193, 200, 202,
           207, 209, 212))),
        (_h_cz_chain(50), 12, 0,
         ((0,) * 12 + (5,) * 5 + (4,) * 8 + (3,) + (2,) * 2 + (1,) * 12 + (6,) * 10, (),
          (23, 33, 49, 51, 55, 79))),
    ]
    for circ, max_qubits, seed, expected in cases:
        plan = find_cuts(circ, max_qubits=max_qubits, seed=seed)
        assert (plan.labels, plan.wire_cuts, plan.gate_cuts) == expected


def test_find_cuts_deterministic_tie_break():
    circ = ladder(4)
    p1 = find_cuts(circ, seed=0)
    p2 = find_cuts(circ, seed=0)
    assert p1 == p2


def test_max_qubits_recursive_split():
    circ = ladder(6)
    plan = find_cuts(circ, max_qubits=2)
    validate_plan(circ, plan)
    sizes = {}
    for q in range(6):
        for seg_label in {segment_label(plan, q, t) for t in range(len(circ.gates) + 1)}:
            sizes.setdefault(seg_label, set()).add(q)
    assert all(len(v) <= 2 for v in sizes.values())
    assert plan.num_subcircuits >= 3


def test_max_qubits_one_splits_down_to_single_wires():
    # Parts of one wire each; with one wire cut per qubit that can take up
    # to 8 parts for 4 qubits, more splits than the circuit has qubits.
    pairs = [(3, 2), (3, 1), (2, 0), (0, 1), (3, 1), (1, 2), (0, 2), (3, 0), (3, 2)]
    circ = Circuit(4, tuple(Gate("cz", pair) for pair in pairs))
    plan = find_cuts(circ, max_qubits=1)
    validate_plan(circ, plan)
    sizes = Counter(label for q in range(4) for _, label in plan.segments(q))
    assert max(sizes.values()) == 1


def test_constraint_errors():
    # One qubit needs no cut: the search returns the one-part plan.
    one = Circuit(1, (Gate("h", (0,)),))
    for max_qubits in (None, 1):
        plan = find_cuts(one, max_qubits=max_qubits)
        assert plan == CutPlan(1, (0,), (), (), 1)
        validate_plan(one, plan)
    with pytest.raises(CutError):
        find_cuts(ladder(3), max_qubits=0)


def test_annealed_search_path():
    # above the exhaustive width limit; a chain still cuts with one gate,
    # which the check settles before any walk
    circ = ladder(16)
    plan = find_cuts(circ, seed=7)
    validate_plan(circ, plan)
    assert 9**plan.kg * 16**plan.kw == 9


# --- plan validation and serialization -----------------------------------------


def test_validate_rejects_uncut_crossing_gate():
    circ = ladder(3)
    bad = CutPlan(3, (0, 1, 1), (), (), 2)
    with pytest.raises(CutError, match="crosses"):
        validate_plan(circ, bad)
    # A 3-qubit rotation across the partition has no gate cut.
    rot = Circuit(3, (Gate("rot", (0, 1, 2), angle=0.3, axis="XYZ"),))
    with pytest.raises(CutError, match="gate 0 couples >2 qubits across the partition"):
        validate_plan(rot, bad)


def test_validate_rejects_phantom_gate_cut():
    circ = ladder(3)
    bad = CutPlan(3, (0, 0, 0), (), (0,), 1)
    with pytest.raises(CutError):
        validate_plan(circ, bad)
    # A cut listed twice would be priced twice (kg = 2) but cut once.
    with pytest.raises(CutError, match="listed twice"):
        validate_plan(circ, CutPlan(3, (0, 1, 1), (), (0, 0), 2))


def test_plan_json_roundtrip():
    plan = find_cuts(ladder(4))
    again = CutPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan


def test_plan_from_dict_rejects_garbage():
    with pytest.raises(CutError):
        CutPlan.from_dict({"nonsense": True})


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 1e999),
        ("n", 3.0),
        ("labels", [0, 0, 1.7, 1]),
        ("labels", [0, True, 1, 1]),
        ("wire_cuts", [[0, 2.5, 1]]),
        ("gate_cuts", ["1"]),
        ("num_subcircuits", None),
    ],
)
def test_plan_from_dict_accepts_only_json_integers(field, value):
    data = {"n": 4, "labels": [0, 0, 1, 1], "wire_cuts": [], "gate_cuts": [1],
            "num_subcircuits": 2}
    assert CutPlan.from_dict(data).labels == (0, 0, 1, 1)
    data[field] = value
    with pytest.raises(CutError, match="malformed cut plan"):
        CutPlan.from_dict(data)


def test_wire_cut_order_does_not_matter():
    # qubit 0 moves to part 1 for gates 3-4 and returns to part 0 at gate 5
    circ = Circuit(3, (
        Gate("h", (0,)), Gate("cz", (0, 1)), Gate("h", (0,)),
        Gate("cz", (0, 2)), Gate("h", (0,)), Gate("cz", (0, 1)),
    ))
    obs = canonicalize(
        Observable.from_labels([(1.0, "XZI"), (0.5, "ZIZ"), (-0.25, "XXZ"), (0.75, "ZZZ")])
    )
    plans = [
        CutPlan(3, (0, 0, 1), wire_cuts, (), 2)
        for wire_cuts in (((0, 3, 1), (0, 5, 0)), ((0, 5, 0), (0, 3, 1)))
    ]
    for plan in plans:
        validate_plan(circ, plan)
    seen = [
        (
            plan.segments(0),
            [segment_label(plan, 0, t) for t in range(len(circ.gates) + 1)],
            plan.segments(0)[-1][1],
            cost(plan, obs, circ),
            cut_and_reconstruct(circ, plan, obs).value,
        )
        for plan in plans
    ]
    assert seen[0] == seen[1]
    assert seen[0][3].per_subcircuit == per_subcircuit_costs(plans[0], obs)
    assert seen[0][0] == ((0, 0), (3, 1), (5, 0))
    assert seen[0][1] == [0, 0, 0, 1, 1, 0, 0]
    assert seen[0][4] == pytest.approx(uncut_expectation(circ, obs), abs=1e-9)


def test_plan_parts_sorted_by_label_then_wire():
    # qubit 0 runs 2 -> 1 -> 2 with its wire cuts listed out of time order
    plan = CutPlan.from_dict({"n": 3, "labels": [2, 0, 2], "wire_cuts": [[0, 5, 2], [0, 3, 1]],
                              "gate_cuts": [], "num_subcircuits": 3})
    assert plan.parts == {0: ((1, 0),), 1: ((0, 1),), 2: ((0, 0), (0, 2), (2, 0))}
    assert list(plan.parts) == [0, 1, 2]


# --- extraction ------------------------------------------------------------------


def test_extract_disconnected_components_verbatim():
    circ = Circuit(4, (Gate("cx", (0, 1)), Gate("h", (0,)), Gate("cz", (2, 3))))
    plan = find_cuts(circ)
    obs = weight_z_observable(4, 1)
    ext = extract_subcircuits(circ, plan, obs)
    assert len(ext.subcircuits) == 2
    kinds = sorted(tuple(g.kind for run in sub.ops if isinstance(run, Circuit) for g in run.gates)
                   for sub in ext.subcircuits)
    assert kinds == [("cx", "h"), ("cz",)]
    assert not ext.gate_cut_infos and not ext.wire_cut_infos


def test_extract_gate_cut_placeholders():
    circ = Circuit(2, (Gate("h", (0,)), Gate("cz", (0, 1))))
    plan = CutPlan(2, (0, 1), (), (1,), 2)
    ext = extract_subcircuits(circ, plan, weight_z_observable(2, 1))
    assert len(ext.gate_cut_infos) == 1
    for side, sub in enumerate(ext.subcircuits):
        assert sub.n == 1
        assert [op for op in sub.ops if not isinstance(op, Circuit)] == [SubOp(0, side, 0)]


def test_extract_emits_maximal_gate_runs_in_circuit_order():
    # Runs are never empty and never adjacent, and each part's runs, joined
    # in order, are its uncut gates on its local wires, in circuit order.
    wire_cuts = parts = 0
    for trial in range(6):
        circ = lower_rotations(random_circuit(6, 18, np.random.default_rng((141, trial))))
        for plan in (find_cuts(circ), find_cuts(circ, max_qubits=2)):
            wire_cuts += plan.kw
            parts = max(parts, plan.num_subcircuits)
            expected = {label: [] for label in plan.parts}
            for t, g in enumerate(circ.gates):
                if t in plan.gate_cuts:
                    continue
                label = segment_label(plan, g.qubits[0], t)
                local = tuple(plan.parts[label].index(plan.wire_at(q, t)) for q in g.qubits)
                expected[label].append(Gate(g.kind, local, angle=g.angle, axis=g.axis))
            ext = extract_subcircuits(circ, plan, weight_z_observable(6, 1))
            # Gate cuts by position, then wire cuts by (position, qubit).
            assert ext.gate_cut_infos == tuple(circ.gates[t].kind for t in sorted(plan.gate_cuts))
            assert ext.wire_cut_infos == tuple(q for q, _, _ in sorted(
                plan.wire_cuts, key=lambda cut: (cut[1], cut[0])))
            for label, sub in zip(plan.parts, ext.subcircuits):
                is_run = [isinstance(op, Circuit) for op in sub.ops]
                assert not any(a and b for a, b in zip(is_run, is_run[1:]))
                runs = [op for op in sub.ops if isinstance(op, Circuit)]
                assert all(run.gates and run.n == sub.n for run in runs)
                assert [g for run in runs for g in run.gates] == expected[label]
    assert wire_cuts and parts >= 3


def _moved_gate_cases(workdir):
    """(circuit, plan, observable): the benchmark's five planted recon plans at
    seed 0, read back from the files its verify commands read, then the
    seeded random plans of the maximal-runs test above."""
    for command in perfbench_inputs().recon_commands(0, workdir):
        _, circuit, obs, _, plan, *_ = command.argv
        yield (parse_qasm(Path(circuit).read_text()),
               CutPlan.from_dict(json.loads(Path(plan).read_text())),
               parse_observable(Path(obs).read_text()))
    for trial in range(6):
        circ = lower_rotations(random_circuit(6, 18, np.random.default_rng((141, trial))))
        for plan in (find_cuts(circ), find_cuts(circ, max_qubits=2)):
            yield circ, plan, weight_z_observable(6, 1)


def test_moved_gates_pass_the_checks_they_skip(tmp_path):
    # extract_subcircuits and qpd._onto move gates onto a part's wires
    # without Gate's or Circuit's checks: every moved gate equals the checked
    # Gate of its fields, and every run rebuilds through Circuit(...).
    moved = 0
    for circ, plan, obs in _moved_gate_cases(tmp_path):
        for sub in extract_subcircuits(circ, plan, obs).subcircuits:
            walked = _walked_wires(sub)
            onto, _, _ = _onto(walked, sub.ops, [], [])
            runs = [op for op in (*sub.ops, *onto) if isinstance(op, Circuit)]
            for run in runs:
                assert type(run) is Circuit and Circuit(run.n, run.gates) == run
                for g in run.gates:
                    assert type(g) is Gate and g == Gate(g.kind, g.qubits, g.angle, g.axis)
                    moved += 1
    assert moved > 2 * 5 * 250


def test_extract_subobservables_tensor_back():
    rng = np.random.default_rng(71)
    circ = lower_rotations(random_circuit(5, 14, rng))
    plan = find_cuts(circ)
    obs = canonicalize(
        Observable.from_labels([(0.5, "ZZIXI"), (0.25, "IYIIZ"), (-0.75, "XIIII")])
    )
    ext = extract_subcircuits(circ, plan, obs)
    for k, term in enumerate(obs.terms):
        x = z = 0
        for sub in ext.subcircuits:
            w = sub.words[k]
            for local, (q, seg) in enumerate(sub.wire_origin):
                x |= ((w.x >> local) & 1) << q
                z |= ((w.z >> local) & 1) << q
        assert PauliString(5, x, z) == term.word
        assert ext.term_coeffs[k] == term.coeff


def test_plan_split_graph_components_respect_parts():
    # after deleting cut gates and splitting cut wires, every connected
    # component of the wire-interaction graph lives inside one part
    for trial in range(6):
        rng = np.random.default_rng((140, trial))
        circ = lower_rotations(random_circuit(6, 16, rng, p_two_qubit=0.35))
        if not interaction_graph(circ):
            continue
        plan = find_cuts(circ)
        cuts_by_qubit = {}
        for q, pos, new in plan.wire_cuts:
            cuts_by_qubit.setdefault(q, []).append(pos)

        def wire(q, t):
            return (q, sum(1 for p in cuts_by_qubit.get(q, []) if t >= p))

        nodes = {(q, 0) for q in range(circ.n)}
        for q, posns in cuts_by_qubit.items():
            nodes.update((q, k + 1) for k in range(len(posns)))
        adj = {w: set() for w in nodes}
        for t, g in enumerate(circ.gates):
            if len(g.qubits) == 2 and t not in plan.gate_cuts:
                wu, wv = wire(g.qubits[0], t), wire(g.qubits[1], t)
                adj[wu].add(wv)
                adj[wv].add(wu)
        def wire_label(q, seg):
            return plan.labels[q] if seg == 0 else segment_label(
                plan, q, cuts_by_qubit[q][seg - 1]
            )

        seen = set()
        components = 0
        for start in sorted(nodes):
            if start in seen:
                continue
            components += 1
            stack, labels_here = [start], set()
            while stack:
                w = stack.pop()
                if w in seen:
                    continue
                seen.add(w)
                labels_here.add(wire_label(*w))
                stack.extend(adj[w])
            assert len(labels_here) == 1
        assert components >= plan.num_subcircuits


def test_annealed_search_finds_known_community_cut():
    # two dense 8/9-qubit blocks joined by a single interaction: above the
    # exhaustive width (> 14) the search must find the one-gate-cut
    # partition, which the check settles before any walk
    gates = []
    for block in (range(0, 8), range(8, 17)):
        qubits = list(block)
        for i in range(len(qubits) - 1):
            gates.append(Gate("cz", (qubits[i], qubits[i + 1])))
            gates.append(Gate("cx", (qubits[0], qubits[i + 1])))
    gates.append(Gate("cz", (7, 8)))
    circ = Circuit(17, tuple(gates))
    plan = find_cuts(circ, seed=11)
    validate_plan(circ, plan)
    assert 9**plan.kg * 16**plan.kw == 9
    assert set(plan.gate_cuts) == {len(circ.gates) - 1}
