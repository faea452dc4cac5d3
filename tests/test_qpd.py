import numpy as np
import pytest

from cutprop.circuits import Circuit, Gate, lower_rotations
from cutprop.cutting import CutPlan, extract_subcircuits, find_cuts
from cutprop.generators import (
    random_circuit,
    random_observable,
    random_product_factors,
    weight_z_observable,
)
from cutprop.paulis import Observable
from cutprop.qpd import (
    PREP_STATES,
    QpdError,
    cut_and_reconstruct,
    gatecut_terms,
    reconstruct,
    uncut_expectation,
    verify_gatecut_channel,
    verify_wirecut_identity,
    wirecut_terms,
)

from oracles import PAULI


# --- decomposition tables -------------------------------------------------------


def test_wirecut_term_table():
    terms = wirecut_terms()
    assert len(terms) == 8
    assert all(t.coefficient in (0.5, -0.5) for t in terms)
    measured = {t.left_op[1] for t in terms}
    assert measured == {"I", "X", "Y", "Z"}
    assert {t.right_op[1] for t in terms} <= set(PREP_STATES)


def test_wirecut_identity_on_basis_state():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    total = np.zeros((2, 2), dtype=complex)
    for t in wirecut_terms():
        prep = PREP_STATES[t.right_op[1]]
        total += t.coefficient * np.trace(rho @ PAULI[t.left_op[1]]).real * np.outer(
            prep, prep.conj()
        )
    assert np.allclose(total, rho, atol=1e-14)


def test_wirecut_identity_random_states():
    assert verify_wirecut_identity(num_states=100) < 1e-12


@pytest.mark.parametrize("kind", ["cz", "cx"])
def test_gatecut_channel_equality(kind):
    assert verify_gatecut_channel(kind, num_states=100) < 1e-12


@pytest.mark.parametrize("kind", ["cz", "cx"])
def test_gatecut_coefficients_sum_to_one_exactly(kind):
    terms = gatecut_terms(kind)
    assert len(terms) == 6
    assert sum(t.coefficient for t in terms) == 1.0


def test_gatecut_unsupported_kind():
    with pytest.raises(QpdError):
        gatecut_terms("rot")


# --- reconstruction ----------------------------------------------------------------


def test_reconstruct_zero_cut_plan_is_product():
    circ = Circuit(4, (Gate("x", (0,)), Gate("cx", (0, 1)), Gate("h", (2,)), Gate("cz", (2, 3))))
    plan = find_cuts(circ, force_bipartition=True)
    assert plan.kg == 0 and plan.kw == 0
    obs = Observable.from_labels([(1.0, "ZZZI")])
    rec = cut_and_reconstruct(circ, plan, obs)
    assert rec.num_combinations == 1
    assert rec.value == pytest.approx(uncut_expectation(circ, obs), abs=1e-12)


def test_reconstruct_single_cz_gate_cut():
    rng = np.random.default_rng(3)
    circ = Circuit(2, (Gate("h", (0,)), Gate("h", (1,)), Gate("cz", (0, 1)), Gate("rz", (0,), angle=0.4)))
    plan = CutPlan(2, (0, 1), (), (2,), 2)
    obs = Observable.from_labels([(1.0, "ZZ")])
    factors = random_product_factors(2, rng)
    rec = cut_and_reconstruct(circ, plan, obs, factors)
    assert rec.num_combinations == 6
    assert rec.value == pytest.approx(uncut_expectation(circ, obs, factors), abs=1e-10)


def test_reconstruct_single_wire_cut():
    rng = np.random.default_rng(5)
    circ = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rz", (1,), angle=0.9), Gate("h", (0,))))
    plan = CutPlan(2, (0, 0), ((0, 2, 1),), (), 2)
    obs = Observable.from_labels([(0.7, "XZ"), (0.3, "ZI")])
    factors = random_product_factors(2, rng)
    rec = cut_and_reconstruct(circ, plan, obs, factors)
    assert rec.num_combinations == 8
    assert rec.value == pytest.approx(uncut_expectation(circ, obs, factors), abs=1e-10)


def test_reconstruct_combination_count_is_literal():
    # 6 per gate cut and 8 per wire cut, enumerated exhaustively
    circ = Circuit(
        3,
        (
            Gate("h", (0,)),
            Gate("cz", (0, 1)),
            Gate("cx", (1, 2)),
            Gate("rz", (2,), angle=0.3),
            Gate("cz", (0, 1)),
        ),
    )
    plan = find_cuts(circ, force_bipartition=True)
    rec = cut_and_reconstruct(circ, plan, weight_z_observable(3, 1))
    assert rec.num_combinations == 6**plan.kg * 8**plan.kw
    assert rec.num_subexperiments == rec.num_combinations * plan.num_subcircuits


def test_reconstruct_matches_oracle_on_random_instances():
    worst = 0.0
    for trial in range(15):
        rng = np.random.default_rng((91, trial))
        n = int(rng.integers(3, 7))
        circ = lower_rotations(random_circuit(n, int(rng.integers(6, 18)), rng, p_two_qubit=0.3))
        plan = find_cuts(circ, force_bipartition=True)
        obs = random_observable(n, rng, max_weight=3)
        factors = random_product_factors(n, rng)
        rec = cut_and_reconstruct(circ, plan, obs, factors)
        worst = max(worst, abs(rec.value - uncut_expectation(circ, obs, factors)))
    assert worst < 1e-9


def test_reconstruct_rejects_uncuttable_gate_kind():
    circ = Circuit(2, (Gate("rot", (0, 1), angle=0.5, axis="ZZ"),))
    plan = CutPlan(2, (0, 1), (), (0,), 2)
    ext = extract_subcircuits(circ, plan, weight_z_observable(2, 1))
    with pytest.raises(QpdError, match="decomposition"):
        reconstruct(ext)


def test_backprop_then_cut_then_reconstruct_pipeline():
    from cutprop.backprop import backpropagate

    worst = 0.0
    for trial in range(8):
        rng = np.random.default_rng((123, trial))
        n = int(rng.integers(4, 7))
        circ = lower_rotations(random_circuit(n, 18, rng, p_two_qubit=0.3))
        obs = random_observable(n, rng, max_weight=2)
        factors = random_product_factors(n, rng)
        bp = backpropagate(circ, obs, max_qwc_groups=4)
        exact = uncut_expectation(circ, obs, factors)
        if bp.fully_absorbed:
            from cutprop.sim import expectation, product_state

            value = expectation(product_state(factors), bp.evolved_obs)
        else:
            plan = find_cuts(bp.reduced_circuit, force_bipartition=True)
            value = cut_and_reconstruct(bp.reduced_circuit, plan, bp.evolved_obs, factors).value
        worst = max(worst, abs(value - exact))
    assert worst < 1e-9


def test_shot_sampling_mode_converges():
    rng = np.random.default_rng(8)
    circ = Circuit(2, (Gate("h", (0,)), Gate("cz", (0, 1)), Gate("rz", (1,), angle=0.6)))
    plan = CutPlan(2, (0, 1), (), (1,), 2)
    ext = extract_subcircuits(circ, plan, weight_z_observable(2, 1))
    exact = reconstruct(ext).value
    sampled = reconstruct(ext, shots=200_000, sample_seed=1).value
    assert sampled != exact
    assert abs(sampled - exact) < 0.05
    # deterministic given the sampling seed
    assert reconstruct(ext, shots=1000, sample_seed=2).value == reconstruct(
        ext, shots=1000, sample_seed=2
    ).value


def test_reconstruct_multiway_plan():
    # recursive bisection yields more than two parts; reconstruction must
    # still recombine exactly across all of them
    gates = tuple(Gate("cz", (q, q + 1)) for q in range(5)) + (
        Gate("h", (0,)),
        Gate("rz", (2,), angle=0.4),
        Gate("cx", (3, 4)),
    )
    circ = Circuit(6, gates)
    plan = find_cuts(circ, max_qubits=2)
    assert plan.num_subcircuits >= 3
    rng = np.random.default_rng(5)
    factors = random_product_factors(6, rng)
    obs = weight_z_observable(6, 1)
    rec = cut_and_reconstruct(circ, plan, obs, factors)
    assert rec.num_combinations == 6**plan.kg * 8**plan.kw
    assert rec.value == pytest.approx(uncut_expectation(circ, obs, factors), abs=1e-9)


def test_reconstruct_part_with_every_cut_end():
    # Each part holds a gate-cut end in both roles, a measured and a prepared
    # wire-cut end, interleaved in an order that differs from the cut order.
    gates = (
        Gate("h", (0,)), Gate("h", (1,)), Gate("rz", (2,), angle=0.3), Gate("h", (3,)),
        Gate("cz", (0, 2)), Gate("rz", (1,), angle=0.5), Gate("cx", (1, 3)),
        Gate("cx", (3, 0)), Gate("cx", (0, 2)), Gate("rz", (2,), angle=0.7),
        Gate("sx", (1,)), Gate("cz", (1, 3)),
    )
    circ = Circuit(4, gates)
    plan = CutPlan(4, (0, 0, 1, 1), ((1, 6, 1), (2, 8, 0)), (4, 7), 2)
    obs = Observable.from_labels([(0.4, "ZXYZ"), (0.3, "XIZY"), (0.5, "IZXX"), (0.2, "ZZZZ")])
    ext = extract_subcircuits(circ, plan, obs)
    ends = [[(op.kind, op.cut_id, op.role) for op in sub.ops if not isinstance(op, Circuit)]
            for sub in ext.subcircuits]
    assert ends == [
        [("gatecut", 0, "a"), ("wc_measure", 0, None), ("gatecut", 1, "b"), ("wc_prep", 1, None)],
        [("gatecut", 0, "b"), ("wc_prep", 0, None), ("gatecut", 1, "a"), ("wc_measure", 1, None)],
    ]
    factors = random_product_factors(4, np.random.default_rng(7))
    rec = reconstruct(ext, factors)
    assert rec.num_combinations == 6**2 * 8**2
    assert rec.value == pytest.approx(uncut_expectation(circ, obs, factors), abs=1e-10)
