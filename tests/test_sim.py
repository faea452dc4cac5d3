import numpy as np
import pytest

from cutprop.circuits import Circuit, Gate
from cutprop.generators import random_circuit, random_product_factors
from cutprop import sim
from cutprop.paulis import Observable, PauliString
from cutprop.sim import (
    GATE_1Q,
    SimulationError,
    apply_1q,
    apply_gate,
    apply_pauli,
    expectation,
    pauli_expectations,
    product_state,
    simulate,
    zero_state,
)

from oracles import (
    circuit_unitary,
    einsum_apply_1q,
    einsum_apply_gate,
    einsum_simulate,
    random_state,
    word_matrix,
)


def test_empty_circuit_identity():
    state = simulate(Circuit(2, ()))
    assert np.allclose(state, zero_state(2))


def test_x_flips():
    state = simulate(Circuit(1, (Gate("x", (0,)),)))
    assert np.allclose(state, [0, 1])


def test_h_superposition():
    state = simulate(Circuit(1, (Gate("h", (0,)),)))
    assert np.allclose(state, [2**-0.5, 2**-0.5], atol=1e-15)


def test_expectation_basics():
    z = Observable.from_labels([(1.0, "Z")])
    assert expectation(zero_state(1), z) == pytest.approx(1.0)
    plus = simulate(Circuit(1, (Gate("h", (0,)),)))
    assert expectation(plus, z) == pytest.approx(0.0, abs=1e-15)
    zz = Observable.from_labels([(0.5, "ZI"), (0.5, "IZ")])
    assert expectation(zero_state(2), zz) == pytest.approx(1.0)


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        word = PauliString(n, x, z)
        psi = random_state(n, rng)
        assert np.allclose(apply_pauli(psi, word), word_matrix(word.label()) @ psi)


def test_simulate_matches_dense_unitary():
    rng = np.random.default_rng(23)
    for trial in range(15):
        n = int(rng.integers(1, 5))
        circ = random_circuit(n, int(rng.integers(1, 20)), rng)
        psi = random_state(n, rng)
        assert np.allclose(simulate(circ, psi), circuit_unitary(circ) @ psi, atol=1e-12)


def test_product_state_ordering():
    # factor q=0 is the least significant bit
    state = product_state([np.array([0, 1]), np.array([1, 0])])
    expected = np.zeros(4)
    expected[1] = 1.0
    assert np.allclose(state, expected)


def test_width_limit(monkeypatch):
    monkeypatch.setenv("QCUT_SIM_LIMIT", "3")
    with pytest.raises(SimulationError, match="exceeds"):
        simulate(Circuit(4, ()))
    monkeypatch.setenv("QCUT_SIM_LIMIT", "abc")
    with pytest.raises(SimulationError, match="must be an integer"):
        simulate(Circuit(4, ()))
    monkeypatch.delenv("QCUT_SIM_LIMIT")
    simulate(Circuit(4, ()))


def test_non_hermitian_rejected():
    obs = Observable(1, (type(Observable.from_labels([(1.0, "Z")]).terms[0])(1j, PauliString(1, 0, 1)),))
    with pytest.raises(SimulationError):
        expectation(zero_state(1), obs)


def test_random_product_factors_normalized():
    rng = np.random.default_rng(5)
    for f in random_product_factors(4, rng):
        assert np.linalg.norm(f) == pytest.approx(1.0)


def _dense_expectations(psi, n, xs, zs):
    return np.array([
        np.vdot(psi, word_matrix(PauliString(n, x, z).label()) @ psi) for x, z in zip(xs, zs)
    ])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_expectations_every_word(n):
    rng = np.random.default_rng((29, n))
    psi = random_state(n, rng)
    xs, zs = zip(*[(x, z) for x in range(1 << n) for z in range(1 << n)])
    got = pauli_expectations(psi, xs, zs)
    assert np.abs(got - _dense_expectations(psi, n, xs, zs)).max() < 1e-12


def test_pauli_expectations_random_words_sharing_x():
    rng = np.random.default_rng(31)
    n = 6
    psi = random_state(n, rng)
    # half the words share one x
    xs = [0b101101 if k % 2 else int(rng.integers(0, 1 << n)) for k in range(200)]
    zs = [int(z) for z in rng.integers(0, 1 << n, size=200)]
    got = pauli_expectations(psi, xs, zs)
    assert np.abs(got - _dense_expectations(psi, n, xs, zs)).max() < 1e-12


# --- kernels against the einsum reference ------------------------------------

KERNEL_TOL = 1e-12


def _random_gate(n: int, rng: np.random.Generator) -> Gate:
    kinds = [*GATE_1Q, "rz"] + (["cx", "cz"] if n > 1 else []) + ["rot"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind in GATE_1Q:
        return Gate(kind, (int(rng.integers(n)),))
    if kind == "rz":
        return Gate("rz", (int(rng.integers(n)),), angle=float(rng.uniform(-3, 3)))
    if kind in ("cx", "cz"):
        # either order, so cx sees control > target as well as control < target
        return Gate(kind, tuple(int(q) for q in rng.choice(n, size=2, replace=False)))
    k = int(rng.integers(1, min(n, 3) + 1))
    qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    axis = "".join(rng.choice(list("XYZ"), size=k))
    return Gate("rot", qubits, angle=float(rng.uniform(-3, 3)), axis=axis)


def _random_kernel_circuit(n: int, num_gates: int, rng: np.random.Generator) -> Circuit:
    # Runs of 1-qubit gates on the edge qubits 0 and n-1 ahead of the random
    # gates, and a tail of 1-qubit gates that simulate flushes at the end.
    head = [Gate(kind, (q,)) for q in {0, n - 1} for kind in ("h", "s", "sx")]
    tail = [Gate(kind, (q,)) for q in range(n) for kind in ("sxdg", "y")]
    body = [_random_gate(n, rng) for _ in range(num_gates)]
    return Circuit(n, tuple(head + body + tail))


# n = 9 and up exceed the small-state matmul path; 16 spans several blocks.
KERNEL_WIDTHS = [1, 2, 3, 5, 9, 10, 16]


def _kernel_cases(n: int):
    """Seeded (circuit, initial state) pairs of width n."""
    rng = np.random.default_rng((41, n))
    for _ in range(4 if n < 16 else 1):
        yield _random_kernel_circuit(n, 60 if n < 16 else 30, rng), random_state(n, rng)


@pytest.mark.parametrize("n", KERNEL_WIDTHS)
def test_kernels_match_einsum_reference(n):
    rng = np.random.default_rng((43, n))
    for circ, psi in _kernel_cases(n):
        assert np.abs(simulate(circ, psi) - einsum_simulate(circ, psi)).max() < KERNEL_TOL
        state = psi
        for gate in circ.gates:
            got, want = apply_gate(state, gate, n), einsum_apply_gate(state, gate, n)
            assert np.abs(got - want).max() < KERNEL_TOL, gate
            state = want
        for q in {0, n // 2, n - 1}:
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.abs(apply_1q(psi, u, q) - einsum_apply_1q(psi, u, q)).max() < KERNEL_TOL


def test_kernel_cases_cover_every_gate_kind_and_cx_order():
    seen = {
        ("cx", g.qubits[0] > g.qubits[1]) if g.kind == "cx" else g.kind
        for n in KERNEL_WIDTHS
        for circ, _ in _kernel_cases(n)
        for g in circ.gates
    }
    assert seen >= {*GATE_1Q, "rz", "cz", "rot", ("cx", True), ("cx", False)}


@pytest.mark.parametrize("n", [3, 9])
def test_rot_flushes_pending_gates_on_its_qubits(n):
    rng = np.random.default_rng((45, n))
    gates = (
        Gate("h", (0,)), Gate("rz", (0,), angle=0.4), Gate("sx", (2,)), Gate("h", (1,)),
        Gate("rot", (2, 0), angle=0.7, axis="YX"),  # qubits 0 and 2 have pending gates
        Gate("s", (0,)), Gate("sdg", (1,)), Gate("cx", (2, 1)), Gate("h", (2,)),
        Gate("rot", (1,), angle=-1.1, axis="Z"), Gate("x", (n - 1,)), Gate("sxdg", (0,)),
    )
    circ = Circuit(n, gates)
    psi = random_state(n, rng)
    assert np.abs(simulate(circ, psi) - einsum_simulate(circ, psi)).max() < KERNEL_TOL


def _projected(psi: np.ndarray, q: int) -> np.ndarray:
    """psi with the amplitudes whose bit q is 1 zeroed, as a cut's Z projector leaves it."""
    out = psi.copy()
    out.reshape(-1, 2, 1 << q)[:, 1] = 0
    return out


@pytest.mark.parametrize("n", [3, 9])
def test_simulate_keeps_a_sub_normalised_states_norm(n):
    for circ, psi in _kernel_cases(n):
        projected = _projected(psi, n // 2)
        norm = np.linalg.norm(projected)
        assert norm < 0.99
        out = simulate(circ, projected)
        assert np.abs(out - einsum_simulate(circ, projected)).max() < KERNEL_TOL
        assert abs(np.linalg.norm(out) - norm) < KERNEL_TOL


def test_simulate_rejects_a_kernel_that_scales_the_state(monkeypatch):
    kernel = sim._kernel_1q

    def scaling_kernel(state, u, q):
        kernel(state, u, q)
        state *= 1.001

    monkeypatch.setattr(sim, "_kernel_1q", scaling_kernel)
    circ = Circuit(3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("sx", (2,))))
    projected = _projected(random_state(3, np.random.default_rng(67)), 1)
    for initial in (None, projected):
        with pytest.raises(SimulationError, match="norm drifted"):
            simulate(circ, initial)


@pytest.mark.parametrize("n", [3, 10])
def test_simulate_leaves_initial_unchanged(n):
    rng = np.random.default_rng((47, n))
    psi = random_state(n, rng)
    before = psi.copy()
    simulate(_random_kernel_circuit(n, 20, rng), psi)
    assert np.array_equal(psi, before)


@pytest.mark.parametrize("n", [3, 10])
def test_apply_gate_leaves_state_unchanged(n):
    rng = np.random.default_rng((53, n))
    psi = random_state(n, rng)
    before = psi.copy()
    for gate in _random_kernel_circuit(n, 20, rng).gates:
        apply_gate(psi, gate, n)
        assert np.array_equal(psi, before), gate


@pytest.mark.parametrize("n", [3, 10])
def test_apply_1q_leaves_state_unchanged(n):
    rng = np.random.default_rng((59, n))
    psi = random_state(n, rng)
    before = psi.copy()
    for q in range(n):
        apply_1q(psi, GATE_1Q["sx"], q)
        apply_1q(psi, GATE_1Q["s"], q)
        assert np.array_equal(psi, before), q
