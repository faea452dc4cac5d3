import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cutprop.backprop import (
    _ROTATIONS,
    BackpropError,
    _conjugate,
    backpropagate,
    conjugate_gate,
    light_cone,
    truncate,
)
from cutprop.circuits import CLIFFORD_1Q, Circuit, Gate, lower_rotations, parse_qasm, slice_circuit
from cutprop.cli import EXIT_OK, _bench_instances, main
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    heavy_hex_19_edges,
    heisenberg_trotter,
    random_circuit,
)
from cutprop.paulis import (
    Observable,
    PauliString,
    PauliTerm,
    canonicalize,
    group_qwc,
    letter_masks,
    parse_observable,
)
from cutprop.sim import expectation, product_state, simulate

from oracles import (
    conjugate_clifford,
    conjugate_gate_terms,
    conjugate_rotation_terms,
    gate_matrix,
    max_imag,
    obs_matrix,
    perfbench_inputs,
    qubitwise_commutes,
    random_observable,
    random_product_factors,
    truncate_terms,
    word_matrix,
)

LETTERS = "IXYZ"


def single(label, coeff=1.0):
    return Observable.from_labels([(coeff, label)])


def dense(obs, n):
    if not obs.terms:
        return np.zeros((1 << n, 1 << n), dtype=complex)
    return obs_matrix(obs)


# --- Clifford conjugation -----------------------------------------------------


def test_h_maps_z_to_x():
    out = conjugate_clifford(single("Z"), Gate("h", (0,)))
    assert [(t.coeff, t.word.label()) for t in out.terms] == [(1.0, "X")]


def test_cx_grows_target_z():
    out = conjugate_clifford(single("IZ"), Gate("cx", (0, 1)))
    assert [(t.coeff, t.word.label()) for t in out.terms] == [(1.0, "ZZ")]


def test_s_on_x_sign_from_oracle():
    out = conjugate_clifford(single("X"), Gate("s", (0,)))
    got = sum(t.coeff * word_matrix(t.word.label()) for t in out.terms)
    s = gate_matrix(Gate("s", (0,)), 1)
    assert np.allclose(got, s.conj().T @ word_matrix("X") @ s)
    assert out.terms[0].word.label() == "Y"


@pytest.mark.parametrize("kind", ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"])
def test_1q_tableau_exhaustive(kind):
    g = Gate(kind, (0,))
    u = gate_matrix(g, 1)
    for letter in LETTERS:
        out = conjugate_clifford(single(letter), g)
        got = dense(out, 1)
        assert np.allclose(got, u.conj().T @ word_matrix(letter) @ u), (kind, letter)


@pytest.mark.parametrize("kind", ["cx", "cz"])
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
def test_2q_tableau_exhaustive(kind, qubits):
    g = Gate(kind, qubits)
    u = gate_matrix(g, 2)
    for la in ("".join(p) for p in itertools.product(LETTERS, repeat=2)):
        out = conjugate_clifford(single(la), g)
        assert np.allclose(dense(out, 2), u.conj().T @ word_matrix(la) @ u), (kind, la)


def test_clifford_rz_quarter_turns():
    for k in range(8):
        angle = k * math.pi / 2
        g = Gate("rz", (0,), angle=angle)
        u = gate_matrix(g, 1)
        for letter in LETTERS:
            out = conjugate_clifford(single(letter), g)
            assert np.allclose(dense(out, 1), u.conj().T @ word_matrix(letter) @ u)


def test_clifford_preserves_term_count_and_magnitudes():
    rng = np.random.default_rng(3)
    obs = random_observable(4, rng, max_weight=3, num_terms=5)
    for g in (Gate("h", (1,)), Gate("cx", (0, 3)), Gate("cz", (2, 1)), Gate("sx", (0,))):
        out = conjugate_clifford(obs, g)
        assert len(out.terms) == len(obs.terms)
        assert sorted(abs(t.coeff) for t in out.terms) == pytest.approx(
            sorted(abs(t.coeff) for t in obs.terms)
        )


def test_non_clifford_rejected():
    with pytest.raises(BackpropError):
        conjugate_clifford(single("Z"), Gate("rz", (0,), angle=0.3))


CLIFFORD_PLACEMENTS_3Q = [
    Gate(kind, (q,)) for kind in ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg") for q in range(3)
] + [Gate(kind, pair) for kind in ("cx", "cz") for pair in itertools.permutations(range(3), 2)]


@pytest.mark.parametrize("gate", CLIFFORD_PLACEMENTS_3Q, ids=str)
def test_clifford_images_are_exact_single_words(gate):
    u = gate_matrix(gate, 3)
    for letters in itertools.product(LETTERS, repeat=len(gate.qubits)):
        label = ["I"] * 3
        for q, ch in zip(gate.qubits, letters):
            label[q] = ch
        label = "".join(label)
        out = conjugate_clifford(single(label), gate)
        assert len(out.terms) == 1, (gate, label)
        assert out.terms[0].coeff == 1 or out.terms[0].coeff == -1, (gate, label)
        assert np.allclose(dense(out, 3), u.conj().T @ word_matrix(label) @ u), (gate, label)


@pytest.mark.parametrize("angle", [math.pi / 2, -math.pi])
def test_clifford_rot_gate_matches_dense(angle):
    g = Gate("rot", (0, 2), angle=angle, axis="XY")
    u = gate_matrix(g, 3)
    for label in ("".join(p) for p in itertools.product(LETTERS, repeat=3)):
        out = conjugate_clifford(single(label), g)
        assert np.allclose(dense(out, 3), u.conj().T @ word_matrix(label) @ u), label


# --- rotation conjugation -------------------------------------------------------


def test_rotation_commuting_axis_unchanged():
    out = _conjugate(single("Z"), [(PauliString.from_label("Z"), 0.813)])
    assert [(t.coeff, t.word.label()) for t in out.terms] == [(1.0, "Z")]


def test_rotation_splits_x_under_z_axis():
    theta = 0.7
    out = _conjugate(single("X"), [(PauliString.from_label("Z"), theta)])
    coeffs = {t.word.label(): t.coeff for t in out.terms}
    assert coeffs["X"] == pytest.approx(math.cos(theta))
    assert coeffs["Y"] == pytest.approx(-math.sin(theta))


def test_rotation_zz_axis_on_xi():
    out = _conjugate(single("XI"), [(PauliString.from_label("ZZ"), math.pi / 2)])
    assert len(out.terms) == 1
    got = dense(out, 2)
    u = gate_matrix(Gate("rot", (0, 1), angle=math.pi / 2, axis="ZZ"), 2)
    assert np.allclose(got, u.conj().T @ word_matrix("XI") @ u)
    assert out.terms[0].word.label() == "YZ"


def test_rotation_matches_dense_random():
    rng = np.random.default_rng(31)
    for _ in range(80):
        n = int(rng.integers(1, 4))
        axis_label = "".join(rng.choice(list(LETTERS), size=n))
        if set(axis_label) == {"I"}:
            continue
        word = "".join(rng.choice(list(LETTERS), size=n))
        theta = float(rng.uniform(-7, 7))
        axis = PauliString.from_label(axis_label)
        out = _conjugate(single(word), [(axis, theta)])
        u = np.cos(theta / 2) * np.eye(1 << n) - 1j * np.sin(theta / 2) * word_matrix(axis_label)
        assert np.allclose(dense(out, n), u.conj().T @ word_matrix(word) @ u, atol=1e-12)


def test_rotation_preserves_two_norm_on_anticommuting_term():
    rng = np.random.default_rng(12)
    for _ in range(30):
        theta = float(rng.uniform(-6, 6))
        out = _conjugate(single("X", 0.7), [(PauliString.from_label("Z"), theta)])
        norm = sum(abs(t.coeff) ** 2 for t in out.terms)
        assert norm == pytest.approx(0.49, abs=1e-12)


def test_hermitian_stays_hermitian():
    rng = np.random.default_rng(8)
    circ = random_circuit(5, 40, rng)
    obs = random_observable(5, rng, num_terms=4)
    result = backpropagate(circ, obs, max_qwc_groups=50)
    assert max_imag(result.evolved_obs) < 1e-12


# --- truncation -----------------------------------------------------------------


def test_truncate_zero_budget_is_identity():
    obs = Observable.from_labels([(0.9, "Z"), (0.05, "X")])
    out, spent = truncate(obs, 0.0)
    assert out.terms == obs.terms and spent == 0.0


def test_truncate_greedy_smallest_first():
    obs = Observable.from_labels([(0.9, "Z"), (0.05, "X"), (0.04, "Y")])
    out, spent = truncate(obs, 0.1)
    assert [t.word.label() for t in out.terms] == ["Z"]
    assert spent == pytest.approx(0.09)


def test_truncate_stops_before_budget_overrun():
    obs = Observable.from_labels([(0.9, "Z"), (0.06, "X"), (0.06, "Y")])
    out, spent = truncate(obs, 0.1)
    assert len(out.terms) == 2
    assert spent == pytest.approx(0.06)
    assert any(t.word.label() == "Z" for t in out.terms)


# --- backpropagate ----------------------------------------------------------------


def clifford_circuit(n, depth, rng):
    pool = ["h", "s", "sdg", "x", "sx"]
    gates = []
    for _ in range(depth):
        if n > 1 and rng.random() < 0.3:
            u, v = map(int, rng.choice(n, 2, replace=False))
            gates.append(Gate("cx" if rng.random() < 0.5 else "cz", (min(u, v), max(u, v))))
        else:
            gates.append(Gate(str(rng.choice(pool)), (int(rng.integers(0, n)),)))
    return Circuit(n, tuple(gates))


def test_all_clifford_fully_absorbed():
    rng = np.random.default_rng(2)
    circ = clifford_circuit(4, 30, rng)
    obs = random_observable(4, rng, num_terms=3)
    budget = len(group_qwc(obs)) + 4
    result = backpropagate(circ, obs, max_qwc_groups=budget)
    # Clifford conjugation cannot raise the term count, so a large enough
    # budget always empties the circuit.
    if not result.fully_absorbed:
        result = backpropagate(circ, obs, max_qwc_groups=len(obs.terms))
    assert result.fully_absorbed
    assert len(result.reduced_circuit.gates) == 0


def test_budget_one_immediate_stop():
    circ = Circuit(1, (Gate("h", (0,)), Gate("rz", (0,), angle=0.5)))
    # the trailing rz splits X into two conflicting single-qubit terms
    result = backpropagate(circ, single("X"), max_qwc_groups=1)
    assert result.slices_absorbed == 0
    assert not result.fully_absorbed
    assert result.reduced_circuit.gates == circ.gates
    assert result.evolved_obs.terms == single("X").terms


def test_budget_respected_and_history_recorded():
    rng = np.random.default_rng(77)
    circ = random_circuit(5, 30, rng)
    obs = random_observable(5, rng)
    for w in (1, 2, 4):
        result = backpropagate(circ, obs, max_qwc_groups=w)
        if result.slices_absorbed:
            assert len(group_qwc(result.evolved_obs)) <= w
            assert len(result.group_history) == result.slices_absorbed
            assert max(result.group_history) <= w


def test_heavy_hex_group_history_is_pinned():
    # Group counts after each of 210 slices of a lowered 19-qubit Heisenberg
    # step (t = 0.2, no Clifford angles), ZZ on every edge, budget 40, as the
    # pair-loop colorers gave them: a change of coloring order or tie-break
    # that moves any count shows here.
    edges = heavy_hex_19_edges()
    circ = lower_rotations(heisenberg_trotter(list(edges), HEISENBERG_J, HEISENBERG_H, 0.2, 1))
    obs = Observable.from_terms(
        19, [(1.0, PauliString(19, 0, (1 << u) | (1 << v))) for u, v in edges]
    )
    result = backpropagate(circ, obs, max_qwc_groups=40)
    assert result.group_history == (
        (1,) * 3 + (2,) * 4 + (3,) * 5 + (6,) * 4 + (9,) * 154
        + (13, 17, 13, 13, 13, 13, 15, 21, 17, 17, 17, 17, 17, 19, 25, 21, 21, 22, 25, 22)
        + (22, 22, 22, 25, 26, 24, 24, 24, 24, 24, 26, 26, 24, 24, 32, 40, 32, 32, 32, 32)
    )
    assert len(result.evolved_obs) == 280


def test_unchanged_observable_is_not_regrouped(monkeypatch):
    # Absorbed last to first, rz(0) is the second slice, and it commutes with
    # both Z0 and X1 (h(1) has turned Z1 into X1), so its grouping is reused.
    calls = []

    def counting_group_qwc(obs):
        calls.append(obs)
        return group_qwc(obs)

    monkeypatch.setattr("cutprop.backprop.group_qwc", counting_group_qwc)
    circ = Circuit(2, (Gate("h", (0,)), Gate("rz", (0,), angle=0.3), Gate("h", (1,))))
    obs = Observable.from_labels([(1.0, "ZI"), (0.5, "IZ")])
    result = backpropagate(circ, obs, max_qwc_groups=4, slicing="per-gate")
    assert result.fully_absorbed and result.group_history == (1, 1, 1)
    # h(0), the last slice, is a 1-qubit Clifford, so its count is carried:
    # only the first slice is grouped.
    assert len(calls) == 1
    # x(0) maps Z0 to -Z0, a change of coefficient only, so its slice reuses
    # the grouping as well: the same history, and still one grouping.
    calls.clear()
    circ = Circuit(2, circ.gates[:1] + (Gate("x", (0,)),) + circ.gates[1:])
    result = backpropagate(circ, obs, max_qwc_groups=4, slicing="per-gate")
    assert result.fully_absorbed and result.group_history == (1, 1, 1, 1)
    assert len(calls) == 1
    assert [(t.coeff, t.word.label()) for t in result.evolved_obs.terms] \
        == [(-1.0, "XI"), (0.5, "IX")]


# Every 1-qubit Clifford kind, with rz and a 1-qubit rot at quarter turns.
_CLIFFORDS_1Q = (
    [Gate(kind, (0,)) for kind in CLIFFORD_1Q]
    + [Gate("rz", (0,), angle=k * math.pi / 2) for k in (-1, 1, 2, 3)]
    + [Gate("rot", (0,), angle=math.pi / 2, axis="Y")]
)


def test_grouping_carried_through_a_1q_clifford_stays_valid():
    # Each group of a fresh grouping, mapped word by word through the gate,
    # is a qubit-wise-commuting group of the conjugated observable, and the
    # images partition its words: a valid grouping with the same count.
    rng = np.random.default_rng(2603)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        obs = random_observable(n, rng, max_weight=n, num_terms=int(rng.integers(10, 121)))
        groups = group_qwc(obs)
        for gate in _CLIFFORDS_1Q:
            gate = gate._replace(qubits=(int(rng.integers(n)),))
            image = [
                [conjugate_gate(Observable.from_terms(n, [(1.0, obs.terms[i].word)]), gate)
                 .terms[0].word for i in group]
                for group in groups
            ]
            words = sorted((w.x, w.z) for group in image for w in group)
            assert words == sorted((t.word.x, t.word.z) for t in conjugate_gate(obs, gate).terms)
            assert all(qubitwise_commutes(p, q)
                       for group in image for p, q in itertools.combinations(group, 2))


@pytest.fixture
def groupings(monkeypatch):
    """The observables that backpropagate groups, in call order."""
    grouped = []

    def counting_group_qwc(obs):
        grouped.append(obs)
        return group_qwc(obs)

    monkeypatch.setattr("cutprop.backprop.group_qwc", counting_group_qwc)
    return grouped


_H0 = Gate("h", (0,))


@pytest.mark.parametrize("gates, labels, slicing, trunc, calls", [
    # h(0) is absorbed first and grouped fresh; then a layer that holds a cx
    # or a cz changes the rows and is grouped again.
    ((Gate("h", (2,)), Gate("cx", (0, 1)), _H0), ["IZI"], "per-layer", 0.0, 2),
    ((Gate("h", (2,)), Gate("cz", (0, 1)), _H0), ["IXI"], "per-layer", 0.0, 2),
    # h(0) turns Z into X, and rz(0.3) splits X into X and Y; at a quarter
    # turn rz maps X to one word, and the count is carried.
    ((Gate("rz", (0,), angle=0.3), _H0), ["Z"], "per-gate", 0.0, 2),
    ((Gate("rz", (0,), angle=math.pi / 2), _H0), ["Z"], "per-gate", 0.0, 1),
    # The first absorbed slice is always grouped, Clifford or not.
    ((_H0,), ["Z"], "per-gate", 0.0, 1),
    # Each slice's truncation drops one 0.006 term, so the second h(0) is
    # grouped again; a budget below 0.006 drops nothing, and it is carried.
    ((_H0, _H0), ["ZI", "IZ", "IX"], "per-gate", 0.01, 2),
    ((_H0, _H0), ["ZI", "IZ", "IX"], "per-gate", 0.005, 1),
])
def test_count_is_carried_only_through_a_whole_slice_of_1q_cliffords(
        groupings, gates, labels, slicing, trunc, calls):
    n = len(labels[0])
    obs = Observable.from_labels([(1.0 if i == 0 else 0.006, label) for i, label in enumerate(labels)])
    result = backpropagate(Circuit(n, gates), obs, 4, trunc, slicing)
    assert result.fully_absorbed
    assert len(groupings) == calls
    assert result.truncation_error_accrued == (0.012 if trunc == 0.01 else 0.0)


def test_absorb_workload_groupings_are_pinned(groupings, tmp_path, capsys):
    # The benchmark's absorb commands at seed 0: the group_qwc calls each
    # makes, and every group_history entry, carried or not, equal to a fresh
    # count of its slice's observable.
    got = {}
    for command in perfbench_inputs().absorb_commands(0, tmp_path):
        groupings.clear()
        assert main(command.argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["results"]
        got[command.label] = (len(groupings), report["slices_absorbed"])
        circuit = parse_qasm(Path(command.argv[1]).read_text())
        obs = canonicalize(parse_observable(Path(command.argv[2]).read_text()))
        fresh = []
        for sl in reversed(slice_circuit(circuit)[-report["slices_absorbed"]:]):
            for gate in reversed(circuit.gates[sl.start : sl.stop]):
                obs = conjugate_gate(obs, gate)
            fresh.append(len(group_qwc(obs)))
        assert report["group_history"] == fresh
    assert got == {"absorb-zz-edges": (61, 210), "absorb-z6": (76, 486)}


def test_absorption_monotone_in_budget():
    rng = np.random.default_rng(41)
    for trial in range(10):
        r = np.random.default_rng((41, trial))
        circ = random_circuit(4, 20, r)
        obs = random_observable(4, r)
        absorbed = [
            backpropagate(circ, obs, w, slicing="per-gate").slices_absorbed
            for w in (1, 2, 3, 5, 8)
        ]
        assert absorbed == sorted(absorbed)


def test_expectation_preserved_no_truncation():
    worst = 0.0
    for trial in range(40):
        rng = np.random.default_rng((13, trial))
        n = int(rng.integers(2, 7))
        circ = random_circuit(n, int(rng.integers(5, 30)), rng)
        obs = random_observable(n, rng)
        psi0 = product_state(random_product_factors(n, rng))
        w = int(rng.integers(1, 8))
        slicing = ("auto", "per-gate", "per-layer")[trial % 3]
        bp = backpropagate(circ, obs, w, slicing=slicing)
        lhs = expectation(simulate(bp.reduced_circuit, psi0), bp.evolved_obs)
        rhs = expectation(simulate(circ, psi0), obs)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_truncation_error_bounded():
    for trial in range(12):
        rng = np.random.default_rng((19, trial))
        n = int(rng.integers(2, 6))
        circ = random_circuit(n, 25, rng)
        obs = random_observable(n, rng)
        eps = float(rng.choice([1e-3, 2e-3, 5e-3]))
        psi0 = product_state(random_product_factors(n, rng))
        bp = backpropagate(circ, obs, 6, trunc_budget_per_slice=eps)
        assert bp.truncation_error_accrued <= bp.slices_absorbed * eps + 1e-15
        lhs = expectation(simulate(bp.reduced_circuit, psi0), bp.evolved_obs)
        rhs = expectation(simulate(circ, psi0), obs)
        assert abs(lhs - rhs) <= bp.slices_absorbed * eps + 1e-12


def test_width_mismatch_rejected():
    with pytest.raises(BackpropError):
        backpropagate(Circuit(2, ()), single("Z"), 1)


# --- one pass for every budget ---------------------------------------------------


def _assert_fields_equal(kept, fresh, where):
    for name in fresh._fields:
        assert getattr(kept, name) == getattr(fresh, name), (*where, name)


@pytest.mark.parametrize("suite", ["vqe6", "qaoa3", "random"])
@pytest.mark.parametrize("seed, trunc", [(0, 0.0), (1, 0.05)])
def test_at_budget_equals_a_fresh_backpropagation(suite, seed, trunc):
    # Every budget up to the annealer's default cap of 40.
    for name, circ, obs in _bench_instances(suite, seed):
        cap = backpropagate(circ, obs, 40, trunc)
        for w in range(1, 41):
            fresh = backpropagate(circ, obs, w, trunc)
            _assert_fields_equal(cap.at_budget(w), fresh, (name, w))


def test_at_budget_beyond_the_cap_when_fully_absorbed():
    circ = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("s", (1,))))
    obs = single("ZZ")
    cap = backpropagate(circ, obs, 3)
    assert cap.fully_absorbed
    for w in (1, 2, 3, 10):
        _assert_fields_equal(cap.at_budget(w), backpropagate(circ, obs, w), (w,))


@pytest.mark.parametrize("case", ["absorbed some", "absorbed all", "absorbed none"])
def test_at_budget_zero_absorbs_nothing(case):
    if case == "absorbed some":
        (_, circ, obs), = _bench_instances("vqe6", 0)
    elif case == "absorbed all":
        circ, obs = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("s", (1,)))), single("ZZ")
    else:
        # X rotated by a generic rz angle is X and Y on one qubit: 2 groups.
        circ, obs = Circuit(1, (Gate("rz", (0,), angle=0.3),)), single("X", 0.5)
    cap = backpropagate(circ, obs, 1 if case == "absorbed none" else 40)
    assert (cap.slices_absorbed > 0) == (case != "absorbed none")
    assert cap.fully_absorbed == (case == "absorbed all")
    zero = cap.at_budget(0)
    assert zero.reduced_circuit.gates == circ.gates
    assert zero.evolved_obs == canonicalize(obs)
    assert zero.slices_absorbed == 0 and zero.group_history == ()
    assert zero.truncation_error_accrued == 0.0 and not zero.fully_absorbed


# --- packed rotation kernel against the per-term reference -------------------

# Widths of one, two and three 64-qubit limbs, with qubits on both sides of
# every limb edge.
KERNEL_WIDTHS = (1, 3, 19, 64, 65, 130)
# Quarter turns (exact and within the Clifford tolerance), just outside the
# tolerance, and generic angles.
KERNEL_ANGLES = (
    0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2 + 1e-13,
    math.pi / 2 + 1e-9, math.pi - 1e-7, 0.37, -1.9, 2.6,
)


def exact_terms(obs):
    """Every term's word and both coefficient parts, bit for bit (signed zeros too)."""
    return [(t.word.x, t.word.z, t.coeff.real.hex(), t.coeff.imag.hex()) for t in obs.terms]


def kernel_qubits(n):
    return sorted({q for q in (0, 1, 2, 62, 63, 64, 65, 127, 128, n - 1) if q < n})


def kernel_observable(n, rng, size=40, canonical=True, active=None, weight=3):
    """Random words on ``weight`` of the active qubits, some repeated, mixed coefficients.

    The active qubits default to ``kernel_qubits``, limb edges among them.
    """
    active = active or kernel_qubits(n)
    terms = []
    for _ in range(size):
        x = z = 0
        for q in rng.choice(active, size=min(len(active), weight), replace=False):
            letter = int(rng.integers(0, 4))
            x |= (letter in (1, 2)) << int(q)
            z |= (letter in (2, 3)) << int(q)
        coeff = complex(rng.normal(), rng.normal() if rng.random() < 0.3 else rng.choice((0.0, -0.0)))
        terms.append(PauliTerm(coeff, PauliString(n, x, z)))
    terms += terms[: size // 4]  # duplicate words
    if canonical:
        return Observable.from_terms(n, [(t.coeff, t.word) for t in terms])
    return Observable(n, tuple(terms))


def kernel_gates(n, rng):
    qubits = kernel_qubits(n)

    def pick(k):
        return tuple(int(q) for q in rng.choice(qubits, size=k, replace=False))

    gates = [Gate(kind, pick(1)) for kind in ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")]
    if n >= 2:
        gates += [Gate(kind, pick(2)) for kind in ("cx", "cz")]
    for angle in KERNEL_ANGLES:
        gates.append(Gate("rz", pick(1), angle=angle))
        for k in range(1, min(n, 3) + 1):
            axis = "".join(rng.choice(list("XYZ"), size=k))
            gates.append(Gate("rot", pick(k), angle=angle, axis=axis))
    return gates


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
@pytest.mark.parametrize("n", KERNEL_WIDTHS)
def test_conjugate_gate_matches_the_per_term_reference_bit_for_bit(n, canonical):
    rng = np.random.default_rng((n, canonical))
    for gate in kernel_gates(n, rng):
        obs = kernel_observable(n, rng, canonical=canonical)
        got = conjugate_gate(obs, gate)
        assert exact_terms(got) == exact_terms(conjugate_gate_terms(obs, gate)), gate
        # a chain of gates runs on the seeded packed view of each result
        again = conjugate_gate(got, gate)
        assert exact_terms(again) == exact_terms(conjugate_gate_terms(got, gate)), gate


def test_conjugate_rotation_matches_the_per_term_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in KERNEL_WIDTHS:
        obs = kernel_observable(n, rng)
        for angle in KERNEL_ANGLES:
            axis = kernel_observable(n, rng, size=1).terms[0].word
            got = _conjugate(obs, [(axis, angle)])
            want = conjugate_rotation_terms(obs, axis, angle)
            assert exact_terms(got) == exact_terms(want), (n, angle)


def wide_rotation(n, weight, angle, rng):
    """A rot gate of this weight: as many limb-edge qubits as fit, then random ones, every letter."""
    edges = sorted({q for q in (0, 62, 63, 64, 65, 127, 128, n - 1) if q < n})
    picked = [int(q) for q in rng.permutation(edges)[:weight]]
    picked += [int(q) for q in rng.permutation(n) if q not in picked][: weight - len(picked)]
    axis = "".join(rng.permutation(list(("XYZ" * n)[:weight])))
    return Gate("rot", tuple(picked), angle=angle, axis=axis)


@pytest.mark.parametrize("n", [19, 65, 130])
def test_wide_rotation_axes_match_the_per_term_reference_bit_for_bit(n):
    # kernel_gates' axes stop at weight 3; these run from 4 to n, at quarter
    # turns and generic angles, each across every limb edge below n.
    rng = np.random.default_rng((n, 40))
    for weight in sorted({4, 5, 9, n // 2, n - 1, n}):
        for angle in KERNEL_ANGLES:
            gate = wide_rotation(n, weight, angle, rng)
            active = sorted(set(gate.qubits) | set(kernel_qubits(n)))
            obs = kernel_observable(n, rng, active=active, weight=len(active) // 2)
            got = conjugate_gate(obs, gate)
            want = conjugate_rotation_terms(obs, gate.axis_word(n), angle)
            assert exact_terms(got) == exact_terms(want), gate


def test_conjugation_merges_duplicates_and_drops_cancelled_terms():
    # About Y, Z + X becomes (cos + sin) Z + (cos - sin) X: each word gets two
    # contributions, and at pi/4 the X coefficient is 1.1e-16, below 1e-14.
    obs = Observable.from_labels([(1.0, "Z"), (1.0, "X"), (0.5, "Y")])
    axis = PauliString.from_label("Y")
    for angle in (math.pi / 2, math.pi / 4, 0.3, math.pi / 4 + 2e-15, math.pi / 4 + 2e-14):
        got = _conjugate(obs, [(axis, angle)])
        assert exact_terms(got) == exact_terms(conjugate_rotation_terms(obs, axis, angle))
    got = _conjugate(obs, [(axis, math.pi / 4)])
    assert [t.word.label() for t in got.terms] == ["Z", "Y"]
    assert exact_terms(got)[1] == exact_terms(obs)[2]
    assert [t.word.label() for t in _conjugate(obs, [(axis, math.pi / 4 + 2e-14)]).terms] \
        == ["Z", "X", "Y"]


def test_conjugation_keeps_the_input_terms_it_does_not_change():
    rng = np.random.default_rng(11)
    for n in (3, 65, 130):
        obs = kernel_observable(n, rng, size=60)
        for gate in kernel_gates(n, rng):
            out = conjugate_gate(obs, gate)
            untouched = [row for row in exact_terms(obs)
                         if not any((row[0] | row[1]) >> q & 1 for q in gate.qubits)]
            assert untouched and set(untouched) <= set(exact_terms(out)), gate
    # Z on the control commutes with every rotation of cx: the same row.
    obs = Observable.from_labels([(0.5, "ZI"), (0.25, "IZ")])
    out = conjugate_gate(obs, Gate("cx", (0, 1)))
    assert out.terms[0].word.label() == "ZI" and exact_terms(out)[0] == exact_terms(obs)[0]
    # Nothing anticommutes: the observable itself comes back.
    assert conjugate_gate(obs, Gate("z", (1,))) is obs
    # ... unless it is not canonical, which the conjugation makes it.
    raw = Observable(2, tuple(PauliTerm(complex(c), PauliString.from_label(w))
                              for c, w in ((0.5, "ZI"), (0.25, "XI"), (0.5, "ZI"))))
    out = conjugate_gate(raw, Gate("z", (1,)))
    assert exact_terms(out) == exact_terms(conjugate_gate_terms(raw, Gate("z", (1,))))
    assert [t.word.label() for t in out.terms] == ["ZI", "XI"]


def rotation_path(obs, gate):
    """A Clifford kind's conjugation as its quarter-turn rotations, a merge after each."""
    rotations = [(PauliString(obs.n, *letter_masks(letters, gate.qubits)), k * math.pi / 2)
                 for letters, k in reversed(_ROTATIONS[gate.kind])]
    return _conjugate(obs, rotations)


def table_gates(n):
    """Every Clifford kind on qubits below, at and across each 64-qubit limb edge."""
    singles = sorted({q for q in (0, 63, 64, n - 1) if q < n})
    pairs = [(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (62, 63), (63, 64), (64, 63), (64, 65),
             (127, 128)]
    pairs = [p for p in pairs if max(p) < n]
    for kind, rotations in _ROTATIONS.items():
        for qubits in (pairs if len(rotations[0][0]) == 2 else [(q,) for q in singles]):
            yield Gate(kind, qubits)


def assert_same_rows(got, want, where):
    assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z), where
    assert got.coeffs.tobytes() == want.coeffs.tobytes(), where


@pytest.mark.parametrize("n", [3, 64, 65, 130])
def test_clifford_tables_match_the_rotations_and_the_per_term_reference(n):
    rng = np.random.default_rng((n, 27))
    for gate in table_gates(n):
        around = sorted(set(kernel_qubits(n)) | set(gate.qubits))
        for canonical in (True, False):
            obs = kernel_observable(n, rng, canonical=canonical)
            # Also words on the gate's qubits, whatever kernel_qubits holds.
            words = [PauliString(n, *letter_masks(
                "".join(rng.choice(list(LETTERS), size=3)),
                [int(q) for q in rng.choice(around, size=3, replace=False)])) for _ in range(30)]
            obs = Observable(n, obs.terms + tuple(PauliTerm(complex(rng.normal(), -0.0), w)
                                                  for w in words))
            if canonical:
                obs = canonicalize(obs)
            got = conjugate_gate(obs, gate)
            assert got.canonical and canonicalize(got) is got
            assert_same_rows(got, conjugate_gate_terms(obs, gate), (gate, canonical))
            assert_same_rows(got, rotation_path(obs, gate), (gate, canonical))
        raw_empty = Observable(n, ())
        empty = conjugate_gate(raw_empty, gate)
        assert len(empty) == 0 and empty.canonical and empty is not raw_empty
        assert conjugate_gate(empty, gate) is empty
        # Z on every gate qubit is fixed by cz, s, sdg and z; a word off the
        # gate's qubits by every kind.
        off = [q for q in kernel_qubits(n) if q not in gate.qubits]
        if off:
            fixed = Observable.from_terms(n, [(0.5, PauliString(n, 0, 1 << off[0]))])
            assert conjugate_gate(fixed, gate) is fixed
        if gate.kind in ("cz", "s", "sdg", "z"):
            zs = Observable.from_terms(n, [(0.5, PauliString(n, *letter_masks("ZZ", gate.qubits)))])
            assert conjugate_gate(zs, gate) is zs


def tied_observable(n, rng, size=60):
    """Words on limb-edge qubits whose |coeff| ties often, in all four phases."""
    qubits = kernel_qubits(n)
    pairs = []
    for _ in range(size):
        x = z = 0
        for q in rng.choice(qubits, size=min(len(qubits), 3), replace=False):
            letter = int(rng.integers(0, 4))
            x |= (letter in (1, 2)) << int(q)
            z |= (letter in (2, 3)) << int(q)
        mag = rng.choice((0.01, 0.1 / 3, 0.25, abs(rng.normal())))
        phase = rng.choice((1, -1, 1j, -1j, complex(0.6, 0.8), complex(rng.normal(), rng.normal())))
        pairs.append((mag * phase, PauliString(n, x, z)))
    return Observable.from_terms(n, pairs)


@pytest.mark.parametrize("n", [3, 65, 130])
def test_truncate_matches_the_per_term_reference_bit_for_bit(n):
    rng = np.random.default_rng((n, 5))
    for _ in range(20):
        obs = tied_observable(n, rng)
        total = math.fsum(abs(c) for c in obs.coeffs.tolist())
        for budget in (0.0, 0.01, 0.02, 0.05 * total, 0.3 * total, 0.9 * total, total, 2 * total):
            out, spent = truncate(obs, budget)
            want, want_spent = truncate_terms(obs, budget)
            assert exact_terms(out) == exact_terms(want), budget
            assert spent.hex() == want_spent.hex() and type(spent) is float, budget
            assert canonicalize(out) is out
        assert len(truncate(obs, 2 * total)[0]) == 0
        assert truncate(obs, 0.0) == (obs, 0.0)


# --- light cone -------------------------------------------------------------------


def test_light_cone_of_each_suite():
    # heis19's Z on qubits 0-5 sees 201 of its 570 gates, on qubits 0-7; the
    # other suites' observables see every gate, and the circuit is returned.
    for suite in ("vqe6", "heis19", "qaoa3", "random"):
        for name, circ, obs in _bench_instances(suite, 0):
            cone, wires = light_cone(circ, obs)
            if suite == "heis19":
                assert (len(cone.gates), wires) == (201, tuple(range(8)))
            else:
                assert cone is circ and wires == tuple(range(circ.n)), name


def test_light_cone_absorbs_to_the_same_observable():
    # Conjugating by the cone's gates alone gives the observable that
    # conjugating by every gate gives, bit for bit: a gate outside the cone
    # changes no term. The cone's gates keep circuit order, and they and the
    # evolved observable stay on the cone's wires.
    rng = np.random.default_rng(71)
    pruned = 0
    for trial in range(30):
        n = int(rng.integers(2, 9))
        circ = lower_rotations(random_circuit(n, 10, rng, p_two_qubit=0.3))
        obs = random_observable(n, rng, max_weight=2, num_terms=2)
        cone, wires = light_cone(circ, obs)
        everything = cone_only = canonicalize(obs)
        for gate in reversed(circ.gates):
            everything = conjugate_gate(everything, gate)
        for gate in reversed(cone.gates):
            cone_only = conjugate_gate(cone_only, gate)
        assert cone_only == everything, trial
        later = iter(circ.gates)  # a subsequence: each cone gate is found after the last
        assert all(any(g == h for h in later) for g in cone.gates)
        outside = sum(1 << q for q in range(n) if q not in wires)
        assert not any(q not in wires for g in cone.gates for q in g.qubits)
        assert not any((t.word.x | t.word.z) & outside for t in everything.terms)
        pruned += len(wires) < n and len(cone.gates) < len(circ.gates)
    assert pruned >= 10
