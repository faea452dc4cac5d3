import math

import numpy as np
import pytest

from cutprop.annealing import (
    MAX_LOG_ENTRIES,
    AnnealError,
    ObjectiveEvaluator,
    SAConfig,
    accept_move,
    anneal,
    optimize_budget,
    parallel_anneal,
)
from cutprop.backprop import backpropagate
from cutprop.circuits import Circuit, Gate, lower_rotations
from cutprop.cutting import cost, find_cuts
from cutprop.generators import (
    efficient_su2,
    random_circuit,
    weight_z_observable,
)
from cutprop.paulis import canonicalize

from oracles import objective, random_observable


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.seen = []

    def __call__(self, w):
        self.calls += 1
        self.seen.append(w)
        return self.fn(w)


# --- objective -------------------------------------------------------------------


def test_objective_zero_when_fully_absorbed():
    circ = Circuit(3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cz", (1, 2))))
    obs = weight_z_observable(3, 1)
    assert objective(circ, obs, w=4) == 0


def test_objective_matches_manual_composition():
    rng = np.random.default_rng(7)
    for trial in range(6):
        r = np.random.default_rng((7, trial))
        circ = lower_rotations(random_circuit(5, 16, r))
        obs = random_observable(5, r, max_weight=2)
        for w in (1, 2, 4, 9):
            bp = backpropagate(circ, obs, w)
            if bp.fully_absorbed:
                expected = 0
            else:
                plan = find_cuts(bp.reduced_circuit, seed=0)
                expected = cost(plan, bp.evolved_obs).total_executions
            assert objective(circ, obs, w) == expected


def test_objective_evaluator_agrees_with_objective():
    for trial in range(6):
        r = np.random.default_rng((17, trial))
        circ = lower_rotations(random_circuit(5, 18, r))
        obs = random_observable(5, r, max_weight=2)
        for slicing in ("auto", "per-gate", "per-layer"):
            evaluator = ObjectiveEvaluator(circ, obs, 12, slicing)
            for w in range(1, 13):
                expected = objective(circ, obs, w, slicing)
                assert evaluator(w) == expected, (trial, slicing, w)


def test_objective_rejects_bad_w():
    circ = Circuit(2, (Gate("h", (0,)),))
    with pytest.raises(AnnealError):
        objective(circ, weight_z_observable(2, 1), 0)


# --- acceptance rule --------------------------------------------------------------


def test_accept_move_downhill_always():
    rng = np.random.default_rng(0)
    assert all(accept_move(-x, 5.0, rng) for x in (0.0, 1.0, 100.0))


def test_accept_move_statistics_3_sigma():
    rng = np.random.default_rng(2024)
    delta, temperature, trials = 5.0, 10.0, 10_000
    p = math.exp(-delta / temperature)
    hits = sum(accept_move(delta, temperature, rng) for _ in range(trials))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def test_accept_move_zero_temperature():
    rng = np.random.default_rng(1)
    assert not accept_move(1.0, 0.0, rng)
    assert accept_move(-1.0, 0.0, rng)


# --- anneal ----------------------------------------------------------------------


def test_config_validation():
    cases = [
        ({"bound_lower": 0}, "bound_lower must be >= 1"),
        ({"bound_lower": 5, "bound_upper": 2}, "bound_lower must not exceed bound_upper"),
        ({"num_iters": 0}, "num_iters must be >= 1"),
        ({"restarts": 0}, "restarts must be >= 1"),
        ({"seed": -1}, "seed and step_size must be >= 0"),
        ({"step_size": -3}, "seed and step_size must be >= 0"),
    ]
    for kwargs, message in cases:
        with pytest.raises(AnnealError) as info:
            SAConfig(**kwargs)
        assert str(info.value) == message


def test_iteration_log_is_capped():
    SAConfig(num_iters=MAX_LOG_ENTRIES - 1, restarts=1)
    SAConfig(num_iters=MAX_LOG_ENTRIES // 5 - 1, restarts=5)
    with pytest.raises(AnnealError, match="restarts must be <="):
        SAConfig(num_iters=MAX_LOG_ENTRIES, restarts=1)
    with pytest.raises(AnnealError, match="restarts must be <="):
        SAConfig(num_iters=1, restarts=MAX_LOG_ENTRIES // 2 + 1)


def test_constant_objective_returns_first_sample():
    counting = CountingObjective(lambda w: 42)
    result = anneal(SAConfig(seed=3), objective_fn=counting)
    assert result.opt_num_circuits == 42
    assert result.w_opt == counting.seen[0]


def test_memoization_one_eval_per_distinct_w():
    counting = CountingObjective(lambda w: (w - 7) ** 2)
    result = anneal(SAConfig(seed=5), objective_fn=counting)
    assert counting.calls == len(set(counting.seen))
    assert set(result.cache) == set(counting.seen)


def test_cache_contents_match_direct_evaluation():
    fn = lambda w: (w % 5) * 100 + w
    result = anneal(SAConfig(seed=9), objective_fn=fn)
    for w, value in result.cache.items():
        assert value == fn(w)


def test_probes_stay_in_bounds():
    config = SAConfig(bound_lower=3, bound_upper=11, step_size=6, seed=13)
    result = anneal(config, objective_fn=lambda w: w)
    probed = [it["w"] for it in result.iterations]
    assert all(3 <= w <= 11 for w in probed)


def test_best_so_far_monotone():
    result = anneal(SAConfig(seed=21), objective_fn=lambda w: (w * 13) % 29)
    bests = [it["best_num_circuits"] for it in result.iterations]
    assert bests == sorted(bests, reverse=True)
    assert result.opt_num_circuits == bests[-1]
    assert result.opt_num_circuits == min(it["num_circuits"] for it in result.iterations)


def test_literal_cooling_schedule():
    result = anneal(SAConfig(t0=10.0, seed=2), objective_fn=lambda w: w)
    temps = [it["temperature"] for it in result.iterations]
    assert temps[0] == 10.0
    assert temps[1] == 10.0  # first division is by (0 + 1)
    assert temps[2] == pytest.approx(5.0)
    assert temps[3] == pytest.approx(5.0 / 3)


def test_anneal_deterministic_given_seed():
    config = SAConfig(seed=31)
    r1 = anneal(config, objective_fn=lambda w: (w * 7) % 13)
    r2 = anneal(config, objective_fn=lambda w: (w * 7) % 13)
    assert r1.iterations == r2.iterations
    assert (r1.w_opt, r1.opt_num_circuits) == (r2.w_opt, r2.opt_num_circuits)


# --- parallel restarts --------------------------------------------------------------


def test_single_restart_equals_plain_anneal():
    fn = lambda w: (w - 11) ** 2 + 3
    config = SAConfig(seed=8, restarts=1)
    single = anneal(config, objective_fn=fn, run_index=0)
    par = parallel_anneal(config, objective_fn=fn)
    assert (par.w_opt, par.opt_num_circuits) == (single.w_opt, single.opt_num_circuits)


def test_shared_cache_bounds_total_evaluations():
    counting = CountingObjective(lambda w: (w - 9) ** 2)
    par = parallel_anneal(SAConfig(seed=4, restarts=5), objective_fn=counting)
    assert counting.calls == len(set(counting.seen))
    assert counting.calls <= len(par.cache) + 1
    assert par.opt_num_circuits == min(par.cache.values())


def test_parallel_best_across_runs():
    fn = lambda w: abs(w - 2) * 10 + 1
    par = parallel_anneal(SAConfig(seed=1, restarts=5), objective_fn=fn)
    assert par.opt_num_circuits == min(r.opt_num_circuits for r in par.runs)


# --- full optimization --------------------------------------------------------------


def test_optimize_never_worse_than_vanilla():
    for trial in range(5):
        rng = np.random.default_rng((3, trial))
        circ = lower_rotations(random_circuit(5, 16, rng))
        obs = weight_z_observable(5, 1)
        result = optimize_budget(circ, obs, SAConfig(seed=trial))
        assert result.chosen_cost <= result.vanilla_cost
        assert result.chosen_cost == min(result.sa_cost, result.vanilla_cost)


def test_optimize_finds_improvement_on_ansatz():
    rng = np.random.default_rng((0, 101))
    params = [float(a) for a in rng.uniform(-np.pi, np.pi, size=24)]
    circ = efficient_su2(6, 1, params)
    result = optimize_budget(circ, weight_z_observable(6, 1), SAConfig(seed=0))
    assert result.w_opt is not None
    assert result.chosen_cost <= result.vanilla_cost // 2


def test_optimize_result_carries_the_chosen_plans(monkeypatch):
    # Covers vanilla cutting winning (trial 0 at w = 2), the budget cap's own
    # backpropagation being the chosen one (trial 4 at w = 2, and the fully
    # absorbed cases) and a smaller w_opt read off the cap's pass (the ansatz).
    import cutprop.annealing as annealing

    calls = []
    monkeypatch.setattr(annealing, "backpropagate",
                        lambda *a, **k: calls.append(a) or backpropagate(*a, **k))
    rng = np.random.default_rng((0, 101))
    params = [float(a) for a in rng.uniform(-np.pi, np.pi, size=24)]
    cases = [(efficient_su2(6, 1, params), SAConfig(seed=0), "auto", 0)]
    for trial in range(6):
        r = np.random.default_rng((3, trial))
        circ = lower_rotations(random_circuit(5, 16, r))
        slicing = ("auto", "per-layer", "per-gate")[trial % 3]
        cases.append((circ, SAConfig(seed=trial), slicing, trial))
        if trial in (0, 4):
            config = SAConfig(bound_lower=2, bound_upper=2, restarts=1, seed=trial)
            cases.append((circ, config, "auto", trial))
    branches = set()
    for circ, config, slicing, seed in cases:
        obs = weight_z_observable(circ.n, 1)
        calls.clear()
        result = optimize_budget(circ, obs, config, slicing)
        assert len(calls) == 1
        vanilla = find_cuts(circ, seed=seed)
        assert result.vanilla_plan == vanilla
        if result.w_opt is None:
            branches.add("vanilla")
            # the zero-slice backpropagation: the whole circuit is cut
            cap = backpropagate(circ, obs, config.bound_upper, slicing=slicing)
            assert result.backprop == cap.at_budget(0)
            assert result.backprop.reduced_circuit.gates == circ.gates
            assert result.backprop.evolved_obs == canonicalize(obs)
            assert result.plan == vanilla
            continue
        bp = backpropagate(circ, obs, result.w_opt, slicing=slicing)
        assert result.backprop == bp
        if bp.fully_absorbed:
            branches.add("absorbed")
            assert result.plan is None
        else:
            branches.add("cut")
            assert result.plan == find_cuts(bp.reduced_circuit, seed=seed)
    assert branches == {"vanilla", "absorbed", "cut"}
