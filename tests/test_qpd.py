import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cutprop import qpd
from cutprop.backprop import light_cone
from cutprop.circuits import Circuit, Gate, lower_rotations, parse_qasm
from cutprop.cli import _bench_instances, main
from cutprop.cutting import CutPlan, _build_plan, extract_subcircuits, find_cuts, validate_plan
from cutprop.generators import (
    random_circuit,
    weight_z_observable,
)
from cutprop.paulis import Observable, canonicalize, parse_observable
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
from cutprop.sim import SimulationError, apply_images, expectation, simulate, zero_state

import oracles
from oracles import PAULI, after, perfbench_inputs, product_layer, random_observable


# --- decomposition tables -------------------------------------------------------


def test_wirecut_term_table():
    terms = wirecut_terms()
    assert len(terms) == 8
    assert all(t.coefficient in (0.5, -0.5) for t in terms)
    assert {t.left_op for t in terms} == {(("measure", p),) for p in "IXYZ"}
    for t in terms:
        (kind, name, matrix), = t.right_op
        state = name.removeprefix("prep ")
        assert kind == "u" and np.array_equal(matrix, np.outer(PREP_STATES[state], (1, 0)))


def test_wirecut_identity_on_basis_state():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    total = np.zeros((2, 2), dtype=complex)
    for t in wirecut_terms():
        (_, letter), = t.left_op
        prep = t.right_op[0][2] @ PREP_STATES["0"]
        total += t.coefficient * np.trace(rho @ PAULI[letter]).real * np.outer(
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


def test_term_tables_are_built_once_per_process_and_read_only():
    # Reconstruction, the report and the channel checks share one table per
    # kind, so no caller may write to its matrices.
    for build in (wirecut_terms, lambda: gatecut_terms("cz"), lambda: gatecut_terms("cx")):
        terms = build()
        assert build() is terms
        matrices = [instr[2] for t in terms for end in (t.left_op, t.right_op)
                    for instr in end if instr[0] == "u"]
        assert matrices and not any(m.flags.writeable for m in matrices)


# --- stacked channel checks against the per-state reference ------------------------

_CHECK_SEEDS = [11, 13, 0, 2024]


def _swapped(terms, first: str, second: str, field: str):
    """A term table with ``field`` swapped between the terms whose labels end in
    ``first`` and ``second``."""
    i, j = (next(k for k, t in enumerate(terms) if t.label.endswith(name))
            for name in (first, second))
    terms = list(terms)
    terms[i], terms[j] = (replace(terms[i], **{field: getattr(terms[j], field)}),
                          replace(terms[j], **{field: getattr(terms[i], field)}))
    return tuple(terms)


def _corrupted_cz():
    # the sum is still 1, so only the channel check can catch it
    return _swapped(gatecut_terms("cz"), "R+ (x) Mz", "R- (x) Mz", "coefficient")


def _corrupted_wire():
    return _swapped(wirecut_terms(), "prep +", "prep -", "right_op")


@pytest.mark.parametrize("num_states", [20, 100])
@pytest.mark.parametrize("seed", _CHECK_SEEDS)
def test_stacked_states_are_the_one_at_a_time_draws(num_states, seed):
    for dim in (2, 4):
        stacked = qpd._random_pure_states(num_states, dim, seed)
        reference = np.array(oracles.seeded_pure_states(num_states, dim, seed))
        assert stacked.shape == reference.shape
        assert stacked.tobytes() == reference.tobytes()


@pytest.mark.parametrize("num_states", [20, 100])
@pytest.mark.parametrize("seed", _CHECK_SEEDS)
def test_stacked_distances_match_the_per_state_reference(num_states, seed):
    # Each state's distance, not only the worst, so one bad state cannot hide.
    states = qpd._random_pure_states(num_states, 2, seed)
    stacked = qpd._wirecut_distances(states)
    reference = oracles.wirecut_distances(wirecut_terms(), num_states, seed)
    assert stacked.shape == (num_states,)
    assert np.abs(stacked - reference).max() <= 1e-15
    assert verify_wirecut_identity(num_states, seed) == stacked.max()
    states = qpd._random_pure_states(num_states, 4, seed)
    for kind in ("cz", "cx"):
        stacked = qpd._gatecut_distances(kind, states)
        reference = oracles.gatecut_distances(gatecut_terms(kind), kind, num_states, seed)
        assert stacked.shape == (num_states,)
        assert np.abs(stacked - reference).max() <= 1e-15
        assert verify_gatecut_channel(kind, num_states, seed) == stacked.max()


@pytest.mark.parametrize("num_states", [20, 100])
@pytest.mark.parametrize("seed", _CHECK_SEEDS)
def test_corrupted_tables_fail_the_stacked_checks(monkeypatch, num_states, seed):
    wire, cz = _corrupted_wire(), _corrupted_cz()
    assert sum(t.coefficient for t in cz) == 1.0
    wire_reference = oracles.wirecut_distances(wire, num_states, seed)
    cz_reference = oracles.gatecut_distances(cz, "cz", num_states, seed)
    assert max(wire_reference) > 1e-2 and max(cz_reference) > 1e-2
    monkeypatch.setattr(qpd, "wirecut_terms", lambda: wire)
    monkeypatch.setattr(qpd, "gatecut_terms", lambda kind: cz)
    stacked = qpd._wirecut_distances(qpd._random_pure_states(num_states, 2, seed))
    assert np.allclose(stacked, wire_reference, rtol=0, atol=1e-12)
    stacked = qpd._gatecut_distances("cz", qpd._random_pure_states(num_states, 4, seed))
    assert np.allclose(stacked, cz_reference, rtol=0, atol=1e-12)
    with pytest.raises(QpdError, match="wire-cut identity check failed"):
        verify_wirecut_identity(num_states, seed)
    with pytest.raises(QpdError, match="cz gate-cut channel check failed"):
        verify_gatecut_channel("cz", num_states, seed)


@pytest.mark.parametrize("check, args, count", [
    (verify_wirecut_identity, (), 0),
    (verify_gatecut_channel, ("cx",), -3),
    (verify_gatecut_channel, ("cz",), 0),
])
def test_checks_of_no_states_are_refused(check, args, count):
    with pytest.raises(QpdError) as info:
        check(*args, num_states=count)
    assert str(info.value) == f"num_states must be at least 1, got {count}"


def test_a_nan_distance_fails_the_check():
    with pytest.raises(QpdError, match="trace distance nan"):
        qpd._worst("wire-cut identity", np.array([1e-16, np.nan, 1e-16]), 1e-12)


def test_each_kind_is_checked_once_per_process(monkeypatch, tmp_path):
    checked = []
    wire, gate = qpd.verify_wirecut_identity, qpd.verify_gatecut_channel

    def count_wire(*args, **kwargs):
        checked.append("wire")
        return wire(*args, **kwargs)

    def count_gate(kind, *args, **kwargs):
        checked.append(kind)
        return gate(kind, *args, **kwargs)

    qpd._ensure_verified.cache_clear()
    monkeypatch.setattr(qpd, "verify_wirecut_identity", count_wire)
    monkeypatch.setattr(qpd, "verify_gatecut_channel", count_gate)
    warm = perfbench_inputs().warmup_command(tmp_path)  # a cz, a cx and a wire cut
    assert main(warm.argv + ["--out", str(tmp_path / "1.json")]) == 0
    assert sorted(checked) == ["cx", "cz", "wire"]
    assert main(warm.argv + ["--out", str(tmp_path / "2.json")]) == 0
    _, circuit, obs, *_ = warm.argv
    assert main(["backprop", circuit, obs, "--qwc-max", "4", "--out", str(tmp_path / "b.json")]) == 0
    assert sorted(checked) == ["cx", "cz", "wire"]


# --- reconstruction ----------------------------------------------------------------


def test_reconstruct_zero_cut_plan_is_product():
    circ = Circuit(4, (Gate("x", (0,)), Gate("cx", (0, 1)), Gate("h", (2,)), Gate("cz", (2, 3))))
    plan = find_cuts(circ)
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
    circ, plan = after(product_layer(2, rng), circ, plan)
    rec = cut_and_reconstruct(circ, plan, obs)
    assert rec.num_combinations == 6
    assert rec.value == pytest.approx(uncut_expectation(circ, obs), abs=1e-10)


def test_reconstruct_single_wire_cut():
    rng = np.random.default_rng(5)
    circ = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rz", (1,), angle=0.9), Gate("h", (0,))))
    plan = CutPlan(2, (0, 0), ((0, 2, 1),), (), 2)
    obs = Observable.from_labels([(0.7, "XZ"), (0.3, "ZI")])
    circ, plan = after(product_layer(2, rng), circ, plan)
    rec = cut_and_reconstruct(circ, plan, obs)
    assert rec.num_combinations == 8
    assert rec.value == pytest.approx(uncut_expectation(circ, obs), abs=1e-10)


@pytest.mark.parametrize("scale", [1e10, 1e20])
def test_reconstruct_accepts_a_hermitian_observable_of_large_scale(scale):
    # h then rz(0.7) on each of two uncut parts: <XX> = cos(0.7)^2. The
    # contraction leaves an imaginary residue of about 2e-17 of the value,
    # which an absolute bound of 1e-9 refused.
    circ = Circuit(2, (Gate("h", (0,)), Gate("h", (1,)), Gate("rz", (0,), angle=0.7),
                       Gate("rz", (1,), angle=0.7)))
    obs = Observable.from_labels([(scale, "XX")])
    rec = cut_and_reconstruct(circ, find_cuts(circ), obs)
    assert rec.value == pytest.approx(scale * np.cos(0.7) ** 2, rel=1e-14)


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
    plan = find_cuts(circ)
    rec = cut_and_reconstruct(circ, plan, weight_z_observable(3, 1))
    assert rec.num_combinations == 6**plan.kg * 8**plan.kw
    assert rec.num_subexperiments == rec.num_combinations * plan.num_subcircuits


def test_reconstruct_matches_oracle_on_random_instances():
    worst = 0.0
    for trial in range(15):
        rng = np.random.default_rng((91, trial))
        n = int(rng.integers(3, 7))
        circ = lower_rotations(random_circuit(n, int(rng.integers(6, 18)), rng, p_two_qubit=0.3))
        plan = find_cuts(circ)
        obs = random_observable(n, rng, max_weight=3)
        circ, plan = after(product_layer(n, rng), circ, plan)
        rec = cut_and_reconstruct(circ, plan, obs)
        worst = max(worst, abs(rec.value - uncut_expectation(circ, obs)))
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
        layer = product_layer(n, rng)
        bp = backpropagate(circ, obs, max_qwc_groups=4)
        exact = uncut_expectation(after(layer, circ)[0], obs)
        if bp.fully_absorbed:
            value = uncut_expectation(layer, bp.evolved_obs)
        else:
            reduced, plan = after(layer, bp.reduced_circuit, find_cuts(bp.reduced_circuit))
            value = cut_and_reconstruct(reduced, plan, bp.evolved_obs).value
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


def test_shots_sample_the_exact_tables(monkeypatch):
    circ = Circuit(2, (Gate("h", (0,)), Gate("cz", (0, 1)), Gate("rz", (1,), angle=0.6)))
    ext = extract_subcircuits(circ, CutPlan(2, (0, 1), (), (1,), 2), weight_z_observable(2, 1))
    exact = reconstruct(ext)
    assert exact.exact_value == exact.value
    walks = []
    part_table = qpd._part_table

    def counting_part_table(*args):
        walks.append(args[0])
        return part_table(*args)

    monkeypatch.setattr(qpd, "_part_table", counting_part_table)
    rec = reconstruct(ext, shots=1000, sample_seed=2)
    assert walks == list(ext.subcircuits)
    assert rec.exact_value == exact.value
    assert rec.value != rec.exact_value


def test_shots_draw_entries_near_minus_one_zero_and_one_as_exact(monkeypatch):
    """Table entries at -1, 0 and +1 moved by 1e-16 draw the same samples:
    Generator.binomial jumps at p = 0, 1/2 and 1, so without the snap a
    last-bit change in the simulation would move the sampled value."""
    circ = Circuit(4, (Gate("x", (3,)), Gate("h", (0,)), Gate("cx", (0, 1)), Gate("x", (1,)),
                       Gate("cz", (1, 2)), Gate("h", (2,)), Gate("cx", (2, 3)),
                       Gate("rz", (3,), angle=0.6)))
    plan = CutPlan(4, (0, 0, 1, 1), (), (4,), 2)
    obs = Observable.from_labels([(0.5, "ZIIZ"), (0.5, "IIXX"), (0.25, "ZZZI"), (0.25, "IIZZ")])
    ext = extract_subcircuits(circ, plan, obs)
    expected = reconstruct(ext, shots=500, sample_seed=3).value
    part_table = qpd._part_table
    hits = set()

    def perturbed_part_table(*args):
        table, axes = part_table(*args)
        flat = table.ravel()
        for i, v in enumerate(flat.real.tolist()):
            if abs(v - round(v)) < 1e-15:
                hits.add(round(v))
                flat[i] += 1e-16 if i % 2 else -1e-16
        return table, axes

    monkeypatch.setattr(qpd, "_part_table", perturbed_part_table)
    assert reconstruct(ext, shots=500, sample_seed=3).value == expected
    assert hits == {-1, 0, 1}


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
    circ, plan = after(product_layer(6, np.random.default_rng(5)), circ, plan)
    obs = weight_z_observable(6, 1)
    rec = cut_and_reconstruct(circ, plan, obs)
    assert rec.num_combinations == 6**plan.kg * 8**plan.kw
    assert rec.value == pytest.approx(uncut_expectation(circ, obs), abs=1e-9)


def test_reconstruct_part_with_every_cut_end():
    # Each part holds a gate-cut end on both sides, a measured (side 0) and a
    # prepared (side 1) wire-cut end, interleaved in an order that differs
    # from the cut order. Gate cuts are cuts 0 and 1, wire cuts 2 and 3.
    gates = (
        Gate("h", (0,)), Gate("h", (1,)), Gate("rz", (2,), angle=0.3), Gate("h", (3,)),
        Gate("cz", (0, 2)), Gate("rz", (1,), angle=0.5), Gate("cx", (1, 3)),
        Gate("cx", (3, 0)), Gate("cx", (0, 2)), Gate("rz", (2,), angle=0.7),
        Gate("sx", (1,)), Gate("cz", (1, 3)),
    )
    plan = CutPlan(4, (0, 0, 1, 1), ((1, 6, 1), (2, 8, 0)), (4, 7), 2)
    circ, plan = after(product_layer(4, np.random.default_rng(7)), Circuit(4, gates), plan)
    obs = Observable.from_labels([(0.4, "ZXYZ"), (0.3, "XIZY"), (0.5, "IZXX"), (0.2, "ZZZZ")])
    ext = extract_subcircuits(circ, plan, obs)
    ends = [[(op.cut, op.side) for op in sub.ops if not isinstance(op, Circuit)]
            for sub in ext.subcircuits]
    assert ends == [[(0, 0), (2, 0), (1, 1), (3, 1)], [(0, 1), (2, 1), (1, 0), (3, 0)]]
    rec = reconstruct(ext)
    assert rec.num_combinations == 6**2 * 8**2
    assert rec.value == pytest.approx(uncut_expectation(circ, obs), abs=1e-10)


# --- the stack walk against the depth-first reference -----------------------------


def _with_rotations(circ: Circuit, rng: np.random.Generator) -> Circuit:
    """circ with three 1-qubit Pauli rotations put inside its gate runs."""
    gates = list(circ.gates)
    for _ in range(3):
        rot = Gate("rot", (int(rng.integers(circ.n)),), angle=float(rng.uniform(-3, 3)),
                   axis=str(rng.choice(list("XYZ"))))
        gates.insert(int(rng.integers(len(gates) + 1)), rot)
    return Circuit(circ.n, tuple(gates))


def _walk_cases():
    """Seeded extractions covering every cut-end kind, each circuit after a
    ``product_layer`` but one (every idle wire stays in |0>)."""
    rng = np.random.default_rng(131)
    # Gate-cut ends of cz and cx in both roles and both wire-cut ends, in
    # both parts, with a 2-qubit rotation in a run of each part.
    gates = (
        Gate("h", (0,)), Gate("h", (1,)), Gate("rz", (2,), angle=0.3), Gate("h", (3,)),
        Gate("cz", (0, 2)), Gate("rz", (1,), angle=0.5), Gate("cx", (1, 3)),
        Gate("cx", (3, 0)), Gate("cx", (0, 2)), Gate("rz", (2,), angle=0.7),
        Gate("sx", (1,)), Gate("cz", (1, 3)), Gate("rot", (0, 2), angle=0.9, axis="YX"),
        Gate("rot", (3, 1), angle=-0.4, axis="ZY"),
    )
    obs = Observable.from_labels([(0.4, "ZXYZ"), (0.3, "XIZY"), (0.5, "IZXX"), (0.2, "ZZZZ")])
    plan = CutPlan(4, (0, 0, 1, 1), ((1, 6, 1), (2, 8, 0)), (4, 7), 2)
    circ, plan = after(product_layer(4, rng), Circuit(4, gates), plan)
    yield extract_subcircuits(circ, plan, obs)
    # Three parts, one without a cut end: qubits 3 and 4 never meet 0-2.
    gates = (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cz", (1, 2)), Gate("h", (3,)),
             Gate("rot", (3, 4), angle=0.8, axis="XZ"), Gate("cx", (2, 0)), Gate("sx", (4,)))
    circ, plan = Circuit(5, gates), CutPlan(5, (0, 0, 1, 2, 2), (), (2, 5), 3)
    validate_plan(circ, plan)
    obs = random_observable(5, rng, max_weight=3)
    circ, plan = after(product_layer(5, rng), circ, plan)
    yield extract_subcircuits(circ, plan, obs)
    # Searched plans of seeded circuits, with rotations inside the runs.
    for trial in range(5):
        n = int(rng.integers(4, 7))
        circ = lower_rotations(random_circuit(n, 20, rng, p_two_qubit=0.35))
        circ = _with_rotations(circ, rng)
        plan = (find_cuts(circ, max_qubits=n - 2, seed=trial) if trial % 2
                else find_cuts(circ, seed=trial))
        if 6**plan.kg * 8**plan.kw > 6**3 * 8:
            continue
        obs = random_observable(n, rng, max_weight=3)
        if trial:
            circ, plan = after(product_layer(n, rng), circ, plan)
        yield extract_subcircuits(circ, plan, obs)
    # Seeded bipartitions with one wire cut each.
    made = 0
    while made < 4:
        n = int(rng.integers(4, 6))
        circ = lower_rotations(random_circuit(n, 14, rng, p_two_qubit=0.35))
        circ = _with_rotations(circ, rng)
        labels = [int(b) for b in rng.integers(0, 2, size=n)]
        q, pos = int(rng.integers(n)), int(rng.integers(1, len(circ.gates)))
        plan = _build_plan(circ, labels, {q: (pos, 1 - labels[q])})
        if plan.num_subcircuits != 2 or 6**plan.kg * 8**plan.kw > 6**3 * 8:
            continue
        made += 1
        obs = random_observable(n, rng, max_weight=3)
        circ, plan = after(product_layer(n, rng), circ, plan)
        yield extract_subcircuits(circ, plan, obs)
    # Seeded bipartitions, with a gate cut and a wire cut, whose parts each
    # hold idle wires (no gate, no cut end) that carry X, Y and Z letters.
    made = 0
    while made < 6:
        n = int(rng.integers(5, 9))
        idle = [int(q) for q in rng.choice(n, size=3, replace=False)]
        active = [q for q in range(n) if q not in idle]
        local = _with_rotations(
            lower_rotations(random_circuit(len(active), 14, rng, p_two_qubit=0.4)), rng)
        circ = Circuit(n, tuple(Gate(g.kind, tuple(active[q] for q in g.qubits), angle=g.angle,
                                     axis=g.axis) for g in local.gates))
        labels = [int(b) for b in rng.integers(0, 2, size=n)]
        labels[idle[0]], labels[idle[1]] = 0, 1
        q = active[int(rng.integers(len(active)))]
        plan = _build_plan(circ, labels, {q: (int(rng.integers(1, len(circ.gates))), 1 - labels[q])})
        if plan.num_subcircuits != 2 or not plan.kg or 6**plan.kg * 8**plan.kw > 6**3 * 8:
            continue
        terms = [(float(rng.uniform(-1, 1)), "".join(rng.choice(list("IXYZ"), size=n)))
                 for _ in range(4)]
        on_idle = dict(zip(idle, "XYZ"))
        terms.append((0.5, "".join(on_idle.get(w, "I") for w in range(n))))
        made += 1
        circ, plan = after(product_layer(n, rng, active), circ, plan)
        yield extract_subcircuits(circ, plan, Observable.from_labels(terms))


def _walk(sub, cut_terms):
    """The package's part table, walked on the part's walked wires."""
    return qpd._part_table(sub, cut_terms, qpd._walked_wires(sub))


def _tables(part_table, ext):
    cut_terms = [gatecut_terms(kind) for kind in ext.gate_cut_infos]
    cut_terms += [wirecut_terms()] * len(ext.wire_cut_infos)
    return [part_table(sub, cut_terms) for sub in ext.subcircuits]


def test_walk_cases_cover_every_cut_end():
    seen = set()
    for ext in _walk_cases():
        for sub in ext.subcircuits:
            ends = [op for op in sub.ops if not isinstance(op, Circuit)]
            if not ends:
                seen.add("no cut end")
            kg = len(ext.gate_cut_infos)
            for op in ends:
                seen.add((ext.gate_cut_infos[op.cut] if op.cut < kg else "wire", op.side))
            # a measured wire idles after its cut while later gates run on the others
            for i, op in enumerate(sub.ops):
                if not isinstance(op, Circuit) and op.cut >= kg and op.side == 0 and any(
                        isinstance(later, Circuit) and later.gates for later in sub.ops[i + 1:]):
                    seen.add("measure end, then a gate run")
            runs = [op for op in sub.ops if isinstance(op, Circuit)]
            seen.update(f"rot on {len(g.qubits)}" for run in runs for g in run.gates
                        if g.kind == "rot")
            # a wire no gate and no cut end touches, under a word's letter
            busy = {op.wire for op in ends} | {q for run in runs for g in run.gates
                                              for q in g.qubits}
            seen.update(f"idle {word.letter(w)}" for word in sub.words
                        for w in set(range(sub.n)) - busy)
    assert seen >= {
        ("cz", 0), ("cz", 1), ("cx", 0), ("cx", 1), ("wire", 0), ("wire", 1),
        "no cut end", "rot on 1", "rot on 2", "measure end, then a gate run",
        "idle X", "idle Y", "idle Z",
    }


@pytest.fixture(scope="module")
def reference_tables():
    return [(ext, _tables(oracles.part_table, ext)) for ext in _walk_cases()]


# None keeps the default bound (one simulator block), which few of these
# walks reach; 1 byte makes every cut end walk its instruction lists one at
# a time; 2 KiB and 64 KiB mix the two.
@pytest.mark.parametrize("stack_bytes", [None, 1 << 16, 2048, 1])
def test_part_tables_match_depth_first_reference(monkeypatch, reference_tables, stack_bytes):
    if stack_bytes is not None:
        monkeypatch.setattr(qpd, "STACK_BYTES", stack_bytes)
    for ext, reference in reference_tables:
        for (got, axes), (want, want_axes) in zip(_tables(_walk, ext), reference):
            assert axes == want_axes
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-13


def test_one_byte_bound_simulates_as_many_states_as_the_reference(monkeypatch):
    # At a 1-byte bound the stack walk holds, at each gate run, the branches
    # of one path, as the depth-first walk does. The reference also branches
    # on each letter measured at a wire cut, which the stack walk reads only
    # at the leaf, so its branches count only where every measured letter is I.
    # A tall gate run takes the branches through its unitary, which it builds
    # once by simulating the identity stack; those rows are no branch's.
    monkeypatch.setattr(qpd, "STACK_BYTES", 1)
    stack_rows, reference_letters, identities = [], [], []

    def counting_stack(circuit, initial, _simulate=qpd.simulate):
        is_identity = np.array_equal(initial, np.eye(len(initial)))
        (identities if is_identity else stack_rows).append(len(initial))
        return _simulate(circuit, initial)

    def counting_images(stack, images, _apply=qpd.apply_images):
        stack_rows.append(len(stack))
        return _apply(stack, images)

    def counting_reference(circuit, initial, _simulate=oracles.simulate):
        frame = sys._getframe(1)
        while "letters" not in frame.f_locals:  # the reference walk's frame
            frame = frame.f_back
        reference_letters.append(frame.f_locals["letters"])
        return _simulate(circuit, initial)

    monkeypatch.setattr(qpd, "simulate", counting_stack)
    monkeypatch.setattr(qpd, "apply_images", counting_images)
    monkeypatch.setattr(oracles, "simulate", counting_reference)
    for ext in list(_walk_cases())[:3]:
        _tables(_walk, ext)
        _tables(oracles.part_table, ext)
    unmeasured = reference_letters.count((0, 0))
    assert sum(stack_rows) == unmeasured < len(reference_letters)
    assert len(stack_rows) < unmeasured
    assert identities


def _recon_extractions(workdir):
    """The extraction of each plan that the benchmark's recon commands verify at seed 0."""
    for command in perfbench_inputs().recon_commands(0, workdir):
        _, circuit, obs, _, plan, *_ = command.argv
        plan = CutPlan.from_dict(json.loads(Path(plan).read_text()))
        yield command.label, extract_subcircuits(parse_qasm(Path(circuit).read_text()), plan,
                                                 parse_observable(Path(obs).read_text()))


# (simulate calls, stacked rows) of one reconstruction per plan. A gate run
# that the walk takes at least 2^n rows through is one unitary, built by
# simulating the 2^n-row identity stack once, so the split of the (3,0),
# (4,0) and (2,1) walks at 64 KiB adds matrix products, not simulate calls.
_RECON_STACKS = {
    None: {"recon-g2-w0": (6, 78), "recon-g3-w0": (8, 142), "recon-g4-w0": (10, 206),
           "recon-g1-w1": (6, 51), "recon-g2-w1": (8, 156)},
    1 << 16: {"recon-g2-w0": (6, 78), "recon-g3-w0": (8, 142), "recon-g4-w0": (10, 206),
              "recon-g1-w1": (6, 51), "recon-g2-w1": (8, 156)},
}


def test_recon_plans_stack_up_to_one_simulator_block(monkeypatch, tmp_path):
    rows = []

    def counting(circuit, initial, _simulate=qpd.simulate):
        rows.append(len(initial))
        return _simulate(circuit, initial)

    monkeypatch.setattr(qpd, "simulate", counting)
    extractions = list(_recon_extractions(tmp_path))
    values = {}
    for stack_bytes, want in _RECON_STACKS.items():
        if stack_bytes is not None:
            monkeypatch.setattr(qpd, "STACK_BYTES", stack_bytes)
        got = {}
        for label, ext in extractions:
            rows.clear()
            values.setdefault(label, set()).add(reconstruct(ext).exact_value)
            got[label] = (len(rows), sum(rows))
        assert got == want
    # The bound moves no value, not even in the last bit.
    assert all(len(v) == 1 for v in values.values())


def test_a_split_walk_builds_each_tall_runs_unitary_once(monkeypatch, tmp_path):
    # At 64 KiB the (4,0) walk splits its stack at each part's last cut end,
    # so the gate run after it reaches several sub-stacks. It takes all of
    # them through one unitary, built by one simulate call on the identity.
    monkeypatch.setattr(qpd, "STACK_BYTES", 1 << 16)
    ext = dict(_recon_extractions(tmp_path))["recon-g4-w0"]
    cut_terms = [gatecut_terms(kind) for kind in ext.gate_cut_infos]
    calls, products = [], []

    def counting(circuit, initial, _simulate=qpd.simulate):
        calls.append((circuit, np.array_equal(initial, np.eye(len(initial)))))
        return _simulate(circuit, initial)

    def counting_images(stack, images):
        products.append(images)
        return apply_images(stack, images)

    monkeypatch.setattr(qpd, "simulate", counting)
    for sub in ext.subcircuits:
        calls.clear()
        got, axes = _walk(sub, cut_terms)
        want, want_axes = oracles.part_table(sub, cut_terms)
        assert axes == want_axes and got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12
        runs = [id(circuit) for circuit, _ in calls]  # each call's circuit is still alive
        assert len(runs) == len(set(runs))  # no gate run is simulated twice
        built = sum(identity for _, identity in calls)
        with monkeypatch.context() as patch:
            patch.setattr(qpd, "apply_images", counting_images)
            products.clear()
            _walk(sub, cut_terms)
            distinct = len({id(images) for images in products})
        assert 0 < built == distinct < len(products)


def test_a_unitary_larger_than_one_block_is_not_built(monkeypatch, tmp_path):
    # With one simulator block below 4^5 amplitudes, the 5-qubit parts' tall
    # runs are simulated on their stacks: no identity stack, no matrix product.
    monkeypatch.setattr(qpd, "_BLOCK", 4**5 - 1)
    ext = dict(_recon_extractions(tmp_path))["recon-g4-w0"]
    identities = []

    def counting(circuit, initial, _simulate=qpd.simulate):
        identities.append(np.array_equal(initial, np.eye(len(initial))))
        return _simulate(circuit, initial)

    monkeypatch.setattr(qpd, "simulate", counting)
    monkeypatch.setattr(qpd, "apply_images", None)
    for (got, _), (want, _) in zip(_tables(_walk, ext), _tables(oracles.part_table, ext)):
        assert np.abs(got - want).max() < 1e-12
    assert identities and not any(identities)


# --- the light-cone oracle and idle wires -----------------------------------------


def _dense(circ, obs):
    """The unpruned dense value: every gate, on every wire."""
    return expectation(simulate(circ), canonicalize(obs))


def test_cone_oracle_matches_the_whole_circuit_on_every_suite():
    for suite in ("vqe6", "heis19", "qaoa3", "random"):
        for name, circ, obs in _bench_instances(suite, 0):
            assert abs(uncut_expectation(circ, obs) - _dense(circ, obs)) < 1e-12, name


def _cone_cases():
    """Seeded circuits with 1- and 2-qubit rotations, each after a
    ``product_layer``, and low-weight observables."""
    rng = np.random.default_rng(139)
    for _ in range(24):
        n = int(rng.integers(2, 10))
        circ = _with_rotations(lower_rotations(random_circuit(n, 10, rng, p_two_qubit=0.3)), rng)
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        rot = Gate("rot", (a, b), angle=float(rng.uniform(-3, 3)), axis="XY")
        circ = Circuit(n, circ.gates + (rot,))
        obs = random_observable(n, rng, max_weight=2, num_terms=3)
        yield after(product_layer(n, rng), circ)[0], obs


def test_cone_oracle_matches_the_whole_circuit_on_seeded_circuits():
    pruned = 0
    for circ, obs in _cone_cases():
        assert abs(uncut_expectation(circ, obs) - _dense(circ, obs)) < 1e-12
        pruned += len(light_cone(circ, obs)[1]) < circ.n
    assert pruned >= 8


def test_cone_oracle_of_an_identity_observable():
    # The cone of an all-I observable holds no wire: its value is the
    # identity's coefficient, whatever the circuit.
    circ, _ = next(_cone_cases())
    obs = Observable.from_labels([(0.7, "I" * circ.n)])
    assert light_cone(circ, obs) == (Circuit(circ.n), ())
    assert uncut_expectation(circ, obs) == pytest.approx(0.7, abs=1e-15)
    assert abs(uncut_expectation(circ, obs) - _dense(circ, obs)) < 1e-12


def test_cone_oracle_of_every_wire_runs_the_circuit_as_given():
    # A cone that holds every gate and wire simulates the circuit itself:
    # the value is the unpruned one, bit for bit.
    for circ, _ in _cone_cases():
        obs = Observable.from_labels([(0.5, "Z" * circ.n), (0.25, "X" * circ.n)])
        assert light_cone(circ, obs)[0] is circ
        assert uncut_expectation(circ, obs) == _dense(circ, obs)


@pytest.mark.parametrize("label", ["IIIZ", "ZZ", "XX", "ZZII"])
def test_cone_oracle_refuses_an_observable_of_another_width(label):
    circ = Circuit(3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("h", (2,))))
    with pytest.raises(SimulationError) as info:
        uncut_expectation(circ, Observable.from_labels([(1.0, label)]))
    assert str(info.value) == f"observable width {len(label)} != circuit width 3"


def _part_over_the_cap(idle: bool, mirrored: bool = False):
    """A 4-qubit circuit cut at its last cz into parts of wires 0-2 and wire 3.

    Part 0 walks all three of its wires, or, with ``idle``, wires 0 and 1
    only: no gate touches wire 2. ``mirrored`` reverses the qubits, so part
    1 holds wires 1-3 and part 0 wire 0.
    """
    gates = [Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rz", (1,), angle=0.4)]
    if not idle:
        gates += [Gate("cx", (1, 2)), Gate("h", (2,))]
    gates += [Gate("h", (3,)), Gate("cz", (1, 3))]
    labels, words = [0, 0, 0, 1], ["XZII", "IXIY"]
    if mirrored:
        gates = [replace(g, qubits=tuple(3 - q for q in g.qubits)) for g in gates]
        labels, words = [0, 1, 1, 1], [w[::-1] for w in words]
    circ = Circuit(4, tuple(gates))
    plan = CutPlan.from_dict({"n": 4, "labels": labels, "gate_cuts": [len(gates) - 1],
                              "wire_cuts": [], "num_subcircuits": 2})
    obs = Observable.from_labels([(0.5, w) for w in words])
    return circ, extract_subcircuits(circ, plan, obs), obs


def test_a_part_over_the_cap_is_refused_before_its_state_is_built(monkeypatch):
    # Part 0 or part 1 over the cap: refused by name before any channel
    # check, and before any part is walked.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a plan with a part over the cap reached the walk")

    monkeypatch.setenv("QCUT_SIM_LIMIT", "2")
    for name in ("_ensure_verified", "_part_table", "zero_state", "simulate"):
        monkeypatch.setattr(qpd, name, must_not_run)
    for label in (0, 1):
        _, ext, _ = _part_over_the_cap(idle=False, mirrored=bool(label))
        with pytest.raises(SimulationError) as info:
            reconstruct(ext)
        assert str(info.value) == f"part {label}: 3 qubits exceeds the simulator cap 2"


def test_the_cap_counts_a_parts_walked_wires_only(monkeypatch):
    # Part 0 holds three wires, but its idle wire stays out of the walk.
    circ, ext, obs = _part_over_the_cap(idle=True)
    exact = uncut_expectation(circ, obs)
    monkeypatch.setenv("QCUT_SIM_LIMIT", "2")
    assert reconstruct(ext).exact_value == pytest.approx(exact, abs=1e-12)


def test_cone_oracle_matches_the_einsum_reference():
    # The reference applies every gate, one at a time and out of place, to
    # the whole register.
    for circ, obs in _cone_cases():
        if len(light_cone(circ, obs)[1]) < circ.n:
            break
    psi = oracles.einsum_simulate(circ, zero_state(circ.n))
    want = np.vdot(psi, oracles.obs_matrix(obs) @ psi).real
    assert abs(uncut_expectation(circ, obs) - want) < 1e-12
