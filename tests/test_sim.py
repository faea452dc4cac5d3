import numpy as np
import pytest

from cutprop.circuits import Circuit, Gate
from cutprop.generators import random_circuit, random_product_factors
from cutprop.paulis import Observable, PauliString
from cutprop.sim import (
    SimulationError,
    apply_pauli,
    expectation,
    pauli_expectations,
    product_state,
    simulate,
    zero_state,
)

from oracles import circuit_unitary, random_state, word_matrix


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
