"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line with its measured margin. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from cutprop.annealing import SAConfig, accept_move, anneal, optimize_budget
from cutprop.backprop import backpropagate
from cutprop.circuits import lower_rotations
from cutprop.cli import main
from cutprop.cutting import cost, find_cuts, total_executions
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    efficient_su2,
    first_k_z_observable,
    heavy_hex_19_edges,
    heisenberg_trotter,
    qaoa_like,
    random_circuit,
    weight_z_observable,
)
from cutprop.paulis import Observable, group_qwc
from cutprop.qpd import (
    cut_and_reconstruct,
    gatecut_terms,
    uncut_expectation,
    verify_gatecut_channel,
    verify_wirecut_identity,
)
from cutprop.sim import expectation, product_state, simulate

from oracles import after, product_layer, random_observable, random_product_factors


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_cost_formula():
    a = total_executions(kg=2, kw=1, groups=1)
    b = total_executions(kg=1, kw=1, groups=2)
    report(1, a == 1296 and b == 288,
           f"cost(kg=2,kw=1,G=1)={a} (want 1296), cost(kg=1,kw=1,G=2)={b} (want 288)")


def test_criterion_2_qwc_grouping():
    obs = Observable.from_labels(
        [
            (0.3136761, "IZI"),
            (-0.04732369, "IIZ"),
            (0.33333333, "ZII"),
            (-0.11277595, "IXZ"),
            (-0.32995694, "IZX"),
        ]
    )
    groups = len(group_qwc(obs))
    report(2, groups == 2, f"five-term observable grouped into {groups} groups (want 2)")


def test_criterion_3_obp_equivalence_oracle():
    start = time.time()
    worst = 0.0
    checked = 0
    for trial in range(200):
        rng = np.random.default_rng((300, trial))
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(5, 31))
        circ = random_circuit(n, depth, rng)
        obs = random_observable(n, rng, max_weight=3)
        psi0 = product_state(random_product_factors(n, rng))
        w = int(rng.integers(1, 9))
        slicing = ("auto", "per-gate", "per-layer")[trial % 3]
        bp = backpropagate(circ, obs, w, slicing=slicing)
        lhs = expectation(simulate(bp.reduced_circuit, psi0), bp.evolved_obs)
        rhs = expectation(simulate(circ, psi0), obs)
        worst = max(worst, abs(lhs - rhs))
        checked += 1
    elapsed = time.time() - start
    report(3, checked >= 200 and worst < 1e-10,
           f"{checked} random circuits, worst |delta|={worst:.2e} (<1e-10), {elapsed:.1f}s")


def test_criterion_4_channel_identities():
    start = time.time()
    wire = verify_wirecut_identity(num_states=100)
    cz = verify_gatecut_channel("cz", num_states=100)
    cx = verify_gatecut_channel("cx", num_states=100)
    sums_exact = all(
        sum(t.coefficient for t in gatecut_terms(kind)) == 1.0 for kind in ("cz", "cx")
    )
    ok = wire < 1e-12 and cz < 1e-12 and cx < 1e-12 and sums_exact
    report(4, ok,
           f"trace distances wire={wire:.2e} cz={cz:.2e} cx={cx:.2e} (<1e-12), "
           f"sum(a_i)==1 exactly: {sums_exact}, {time.time()-start:.1f}s")


def test_criterion_5_end_to_end_reconstruction():
    start = time.time()
    worst = 0.0
    verified = 0
    trial = 0
    while verified < 50 and trial < 200:
        rng = np.random.default_rng((500, trial))
        trial += 1
        n = int(rng.integers(4, 11))
        circ = lower_rotations(random_circuit(n, int(rng.integers(8, 22)), rng, p_two_qubit=0.3))
        plan = find_cuts(circ, seed=0)
        if 6**plan.kg * 8**plan.kw > 3000:
            continue  # keep the enumeration tractable per instance
        b = int(rng.integers(1, 4))
        obs = random_observable(n, rng, max_weight=b)
        circ, plan = after(product_layer(n, rng), circ, plan)
        rec = cut_and_reconstruct(circ, plan, obs)
        worst = max(worst, abs(rec.value - uncut_expectation(circ, obs)))
        verified += 1
    elapsed = time.time() - start
    report(5, verified >= 50 and worst < 1e-9,
           f"{verified} random (circuit, plan, observable) triples, "
           f"worst |delta|={worst:.2e} (<1e-9), {elapsed:.1f}s")


def test_criterion_6_truncation_bound():
    start = time.time()
    epsilons = np.linspace(1e-3, 5e-3, 20)
    worst_margin = -math.inf
    all_bounded = True
    for trial in range(10):
        rng = np.random.default_rng((600, trial))
        n = int(rng.integers(3, 7))
        circ = random_circuit(n, 28, rng)
        obs = random_observable(n, rng, max_weight=2)
        psi0 = product_state(random_product_factors(n, rng))
        exact = expectation(simulate(circ, psi0), obs)
        for eps in (epsilons if trial < 2 else epsilons[::7]):
            bp = backpropagate(circ, obs, 8, trunc_budget_per_slice=float(eps))
            approx = expectation(simulate(bp.reduced_circuit, psi0), bp.evolved_obs)
            delta = abs(approx - exact)
            bound = bp.slices_absorbed * float(eps)
            all_bounded &= delta <= bound + 1e-12
            all_bounded &= bp.truncation_error_accrued <= bound + 1e-15
            worst_margin = max(worst_margin, delta - bound)
    report(6, all_bounded,
           f"|delta| <= slices_absorbed*eps for eps in [1e-3, 5e-3]; "
           f"worst (delta - bound)={worst_margin:.2e}, {time.time()-start:.1f}s")


def test_criterion_7_sa_fidelity():
    start = time.time()

    calls = []

    def counting(w):
        calls.append(w)
        return (w - 6) ** 2 + 2

    result = anneal(SAConfig(seed=11), objective_fn=counting)
    memo_ok = len(calls) == len(set(calls))

    rng = np.random.default_rng(777)
    delta, temperature, trials = 4.0, 8.0, 10_000
    p = math.exp(-delta / temperature)
    hits = sum(accept_move(delta, temperature, rng) for _ in range(trials))
    sigma = math.sqrt(p * (1 - p) / trials)
    stat_ok = abs(hits / trials - p) <= 3 * sigma

    bests = [it["best_num_circuits"] for it in result.iterations]
    monotone_ok = bests == sorted(bests, reverse=True)

    report(7, memo_ok and stat_ok and monotone_ok,
           f"memoized evals: {len(calls)} calls for {len(set(calls))} distinct w; "
           f"acceptance rate {hits/trials:.4f} vs p={p:.4f} (3-sigma {3*sigma:.4f}); "
           f"best-so-far monotone: {monotone_ok}; {time.time()-start:.1f}s")


def _benchmarks(seed: int):
    rng = np.random.default_rng((seed, 101))
    params = [float(a) for a in rng.uniform(-np.pi, np.pi, size=24)]
    yield "vqe6", efficient_su2(6, 1, params), weight_z_observable(6, 1), 0.5
    heis = lower_rotations(
        heisenberg_trotter(list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, 0.2, 1)
    )
    yield "heis19", heis, first_k_z_observable(19, 6), 0.5
    yield "qaoa3", lower_rotations(qaoa_like(3, 2, seed)), weight_z_observable(3, 1), 1.0
    for i, (n, depth) in enumerate(((5, 16), (6, 20), (7, 22))):
        r = np.random.default_rng((seed, 400 + i))
        yield f"random-{n}q", lower_rotations(random_circuit(n, depth, r)), \
            weight_z_observable(n, 1), 1.0


def test_criterion_8_benefit_and_oracle():
    start = time.time()
    seed = 0
    lines = []
    ok = True
    for name, circ, obs, required_ratio in _benchmarks(seed):
        result = optimize_budget(circ, obs, SAConfig(seed=seed))
        ratio = result.chosen_cost / result.vanilla_cost
        ok &= result.chosen_cost <= required_ratio * result.vanilla_cost
        ok &= result.chosen_cost <= result.vanilla_cost  # never-worse contract
        # the 19-qubit dense-oracle run sits behind the same path as --large
        if result.w_opt is None:
            plan = find_cuts(circ, seed=seed)
            delta = abs(cut_and_reconstruct(circ, plan, obs).value - uncut_expectation(circ, obs))
        else:
            bp = backpropagate(circ, obs, result.w_opt)
            exact = uncut_expectation(circ, obs)
            if bp.fully_absorbed:
                # <0...0|P|0...0> is 1 exactly for I/Z-only words, else 0
                value = sum(t.coeff.real for t in bp.evolved_obs.terms if t.word.x == 0)
            else:
                plan = find_cuts(bp.reduced_circuit, seed=seed)
                value = cut_and_reconstruct(bp.reduced_circuit, plan, bp.evolved_obs).value
            delta = abs(value - exact)
        ok &= delta < 1e-9
        lines.append(f"{name}: ratio={ratio:.3f} (cap {required_ratio}), oracle |delta|={delta:.2e}")
    report(8, ok, "; ".join(lines) + f"; {time.time()-start:.1f}s")


def test_criterion_8b_bench_cli_large(tmp_path):
    # same criterion through the CLI surface: the 19-qubit suite behind
    # --large must report the oracle check and the ratio target
    start = time.time()
    out = tmp_path / "heis19.json"
    rc = main(["bench", "--suite", "heis19", "--large", "--seed", "0", "--out", str(out)])
    row = json.loads(out.read_text())["results"]["rows"][0]
    ok = (
        rc == 0
        and row["ratio"] <= 0.5
        and row["beneficial"]
        and row["oracle_ok"]
    )
    report(8, ok,
           f"bench --suite heis19 --large: ratio={row['ratio']:.3f}, "
           f"oracle |delta|={row['oracle_abs_delta']:.2e}, {time.time()-start:.1f}s")


def test_criterion_9_determinism(tmp_path):
    circ_path = tmp_path / "c.qasm"
    obs_path = tmp_path / "o.txt"
    from cutprop.circuits import emit_qasm

    rng = np.random.default_rng(42)
    circ = lower_rotations(random_circuit(4, 14, rng))
    circ_path.write_text(emit_qasm(circ))
    from cutprop.paulis import format_observable

    obs_path.write_text(format_observable(weight_z_observable(4, 1)))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(["optimize", str(circ_path), str(obs_path), "--seed", "9", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    same_opt = outs[0] == outs[1]
    bench_outs = []
    for name in ("b1.json", "b2.json"):
        out = tmp_path / name
        rc = main(["bench", "--suite", "qaoa3", "--seed", "3", "--out", str(out)])
        assert rc == 0
        bench_outs.append(out.read_bytes())
    same_bench = bench_outs[0] == bench_outs[1]
    report(9, same_opt and same_bench,
           f"optimize byte-identical: {same_opt}; bench byte-identical: {same_bench}")
