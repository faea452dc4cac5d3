import itertools
import json
from collections import Counter

import numpy as np
import pytest

from cutprop.circuits import Circuit, Gate, lower_rotations
from cutprop.cutting import (
    CutError,
    CutPlan,
    _Bipartitioner,
    _two_qubit_gates,
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
from cutprop.paulis import Observable, PauliString, canonicalize
from cutprop.qpd import cut_and_reconstruct, uncut_expectation
from oracles import (
    crossing_count,
    interaction_graph,
    per_subcircuit_costs,
    random_observable,
    refine_wire_cuts,
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
    report = cost(plan, obs, per_subcircuit=True, circuit=circ)
    # One cut gate; each part holds one of its ends and its own Z words
    # (a part's restriction of another part's term is the identity word).
    assert report.per_subcircuit == per_subcircuit_costs(plan, obs, circ)
    assert [(g_i, eta) for _, g_i, eta in report.per_subcircuit] == [(1, 9), (1, 9)]


def _heis19():
    return lower_rotations(
        heisenberg_trotter(list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, 1.0, 1)
    )


def test_cost_per_subcircuit_matches_mask_reference():
    # Rows read off the extraction equal the plan's own masks and cut
    # incidence: on seeded circuits with bounded and unbounded plans, on
    # heis19 split into parts of at most 6, 8 and 10 wires.
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
    etas = set()
    for circ, plan, obs in cases:
        rows = cost(plan, obs, per_subcircuit=True, circuit=circ).per_subcircuit
        assert rows == per_subcircuit_costs(plan, obs, circ)
        etas.update(eta for _, _, eta in rows)
    # parts with gate-cut ends only, wire-cut ends only, both, and none
    assert {1, 9, 16} <= etas and any(eta % 144 == 0 for eta in etas)


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
            cost(plan, obs, per_subcircuit=True, circuit=Circuit(3, gates))


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


def test_heis19_bench_search_refines_each_pattern_once(heis19_bench_searches, monkeypatch):
    # The seed-0 row's six cut searches price 16,399 labelings but refine
    # only 1,348 distinct (passes, linked labels) patterns.
    _, searched, calls = heis19_bench_searches
    problems, priced = [], 0
    init, refine = _Bipartitioner.__init__, _Bipartitioner.refine_wire_cuts

    def recording_init(self, *args):
        init(self, *args)
        problems.append(self)

    def counting_refine(self, *args):
        nonlocal priced
        priced += 1
        return refine(self, *args)

    monkeypatch.setattr(_Bipartitioner, "__init__", recording_init)
    monkeypatch.setattr(_Bipartitioner, "refine_wire_cuts", counting_refine)
    for b, kwargs in calls:
        circuit, plan = searched[b]
        assert find_cuts(circuit, **kwargs) == plan
    assert len(problems) == 6
    assert priced == 16399
    assert sum(len(p._refined) for p in problems) == 1348


# Leftover gate count -> (the one qubit labelled 1, wire cuts) of each plan
# the heis19 seed-0 bench row's budget search chose.
HEIS19_SEED0_PLANS = {
    41: (14, []),
    104: (17, []),
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
    # shows here: the exhaustive path, the annealed path at two seeds, and
    # recursive bisection.
    heis19 = _heis19()
    cases = [
        (_random_dense(10, 1), None, 0,
         ((0, 0, 1, 0, 0, 0, 0, 0, 0, 0), ((7, 36, 1),), ())),
        (_random_dense(13, 2), None, 0,
         ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), ((1, 54, 1),), ())),
        (_random_dense(16, 3), None, 0,
         ((0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0), ((9, 38, 0),), (36,))),
        (_random_dense(16, 3), None, 1,
         ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0), (), (82,))),
        (heis19, None, 0,
         ((0,) * 18 + (1,), ((17, 380, 1),), ())),
        (heis19, None, 1,
         ((0,) * 13 + (1, 1) + (0,) * 4, ((14, 317, 0),), ())),
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
        for seg_label in {plan.segment_label(q, t) for t in range(len(circ.gates) + 1)}:
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
    with pytest.raises(CutError):
        find_cuts(Circuit(1, ()))
    with pytest.raises(CutError):
        find_cuts(ladder(3), max_qubits=0)


def test_annealed_search_path():
    # above the exhaustive width limit; a chain still cuts with one gate
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
            [plan.segment_label(0, t) for t in range(len(circ.gates) + 1)],
            plan.segments(0)[-1][1],
            cost(plan, obs, per_subcircuit=True, circuit=circ),
            cut_and_reconstruct(circ, plan, obs).value,
        )
        for plan in plans
    ]
    assert seen[0] == seen[1]
    assert seen[0][3].per_subcircuit == per_subcircuit_costs(plans[0], obs, circ)
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
                label = plan.segment_label(g.qubits[0], t)
                local = tuple(plan.parts[label].index(plan.wire_at(q, t)) for q in g.qubits)
                expected[label].append(Gate(g.kind, local, angle=g.angle, axis=g.axis))
            ext = extract_subcircuits(circ, plan, weight_z_observable(6, 1))
            for label, sub in zip(plan.parts, ext.subcircuits):
                is_run = [isinstance(op, Circuit) for op in sub.ops]
                assert not any(a and b for a, b in zip(is_run, is_run[1:]))
                runs = [op for op in sub.ops if isinstance(op, Circuit)]
                assert all(run.gates and run.n == sub.n for run in runs)
                assert [g for run in runs for g in run.gates] == expected[label]
    assert wire_cuts and parts >= 3


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
            return plan.labels[q] if seg == 0 else plan.segment_label(
                q, cuts_by_qubit[q][seg - 1]
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
    # two dense 8/9-qubit blocks joined by a single interaction: the
    # annealed path (width > 14) must find the one-gate-cut partition
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
