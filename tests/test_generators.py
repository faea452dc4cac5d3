import math

import numpy as np
import pytest
from scipy.linalg import expm

from cutprop.circuits import CircuitError, emit_qasm, lower_rotations, parse_qasm
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
from cutprop.sim import simulate, zero_state

from oracles import circuit_unitary, word_matrix


# --- variational ansatz ---------------------------------------------------------


def test_ansatz_parameter_count_and_rz_usage():
    params = [0.1 * i for i in range(24)]
    circ = efficient_su2(6, 1, params)
    assert circ.n == 6
    used = [g.angle for g in circ.gates if g.kind == "rz" and g.angle in params]
    assert sorted(used) == sorted(params)  # 24 parameterized rotations


def test_ansatz_parameter_count_mismatch():
    with pytest.raises(CircuitError, match="24"):
        efficient_su2(6, 1, [0.0] * 23)


def test_ansatz_no_entanglers_at_zero_reps():
    circ = efficient_su2(2, 0, [0.0, 0.1, 0.2, 0.3])
    assert all(len(g.qubits) == 1 for g in circ.gates)


def test_ansatz_zero_params_all_clifford():
    circ = efficient_su2(4, 1, [0.0] * 16)
    assert all(g.is_clifford() for g in circ.gates)


def test_ansatz_has_linear_cz_ladder():
    circ = efficient_su2(5, 1, [0.0] * 20)
    czs = [g.qubits for g in circ.gates if g.kind == "cz"]
    assert czs == [(0, 1), (1, 2), (2, 3), (3, 4)]


# --- spin-chain product formula ----------------------------------------------------


def heisenberg_matrix(edges, j, h, n):
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    for u, v in edges:
        for coef, letter in zip(j, "XYZ"):
            label = "".join(letter if q in (u, v) else "I" for q in range(n))
            ham += coef * word_matrix(label)
    for q in range(n):
        for coef, letter in zip(h, "XYZ"):
            label = "".join(letter if k == q else "I" for k in range(n))
            ham += coef * word_matrix(label)
    return ham


def test_single_edge_zz_only_matches_exponential():
    j, h = (0.0, 0.0, 0.8), (0.0, 0.0, 0.0)
    circ = heisenberg_trotter([(0, 1)], j, h, t=0.7, steps=1)
    exact = expm(-1j * 0.7 * heisenberg_matrix([(0, 1)], j, h, 2))
    state = simulate(circ, None)
    target = exact @ zero_state(2)
    fidelity = abs(np.vdot(target, state))
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_trotter_error_decreases_with_steps():
    edges = [(0, 1)]
    j, h = (0.5, 0.3, 0.7), (0.2, 0.1, 0.4)
    exact = expm(-1j * 0.9 * heisenberg_matrix(edges, j, h, 2)) @ zero_state(2)
    distances = []
    for steps in (1, 2, 4, 8):
        circ = heisenberg_trotter(edges, j, h, t=0.9, steps=steps)
        psi = simulate(circ, None)
        overlap = abs(np.vdot(exact, psi)) ** 2
        distances.append(math.sqrt(max(0.0, 1.0 - overlap)))
    assert distances == sorted(distances, reverse=True)
    assert distances[-1] < distances[0]


def test_trotter_zero_couplings_identity():
    circ = heisenberg_trotter([(0, 1), (1, 2)], (0, 0, 0), (0, 0, 0), t=1.0, steps=1)
    assert np.allclose(circuit_unitary(circ), np.eye(8))


def test_trotter_gate_ordering():
    circ = heisenberg_trotter([(0, 1)], (1, 1, 1), (1, 1, 1), t=0.1, steps=1)
    axes = [g.axis for g in circ.gates]
    assert axes == ["XX", "YY", "ZZ", "X", "Y", "Z", "X", "Y", "Z"]


def test_trotter_invalid_edge():
    with pytest.raises(CircuitError):
        heisenberg_trotter([(0, 0)], (1, 1, 1), (0, 0, 0), 1.0, 1)


def test_benchmark_circuit_is_19_qubits():
    circ = heisenberg_trotter(
        list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, t=0.2, steps=1
    )
    assert circ.n == 19
    assert len([g for g in circ.gates if len(g.qubits) == 2]) == 3 * 19


# --- coupling map ----------------------------------------------------------------


def test_heavy_hex_layout_properties():
    edges = heavy_hex_19_edges()
    qubits = {q for e in edges for q in e}
    assert qubits == set(range(19))
    degree = {q: 0 for q in qubits}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert max(degree.values()) <= 3
    # connected
    adj = {q: set() for q in qubits}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = set(), [0]
    while stack:
        q = stack.pop()
        if q in seen:
            continue
        seen.add(q)
        stack.extend(adj[q])
    assert seen == qubits


# --- observables -----------------------------------------------------------------


def test_weight_one_observable():
    obs = weight_z_observable(6, 1)
    assert len(obs.terms) == 6
    for t in obs.terms:
        assert t.coeff == pytest.approx(1 / 6)
        assert (t.word.x | t.word.z).bit_count() == 1


def test_weight_full_observable_single_term():
    obs = weight_z_observable(3, 3)
    assert len(obs.terms) == 1
    assert obs.terms[0].word.label() == "ZZZ"


def test_weight_two_contiguous_pairs():
    obs = weight_z_observable(4, 2)
    labels = sorted(t.word.label() for t in obs.terms)
    assert labels == ["IIZZ", "IZZI", "ZZII"]
    assert all(t.coeff == pytest.approx(1 / 3) for t in obs.terms)


def test_weight_observable_range_check():
    with pytest.raises(ValueError):
        weight_z_observable(4, 5)


def test_first_k_z_observable():
    obs = first_k_z_observable(19, 6)
    assert len(obs.terms) == 6
    assert all((t.word.x | t.word.z).bit_count() == 1 for t in obs.terms)
    assert {(t.word.x | t.word.z).bit_length() - 1 for t in obs.terms} == set(range(6))


# --- emitted circuits stay inside the parseable subset ------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: efficient_su2(4, 1, [0.3] * 16),
        lambda: heisenberg_trotter([(0, 1), (1, 2)], (0.3, 0.2, 0.5), (0.1, 0.2, 0.3), 0.4, 2),
        lambda: qaoa_like(3, 2, 7),
        lambda: random_circuit(4, 15, np.random.default_rng(2)),
    ],
)
def test_generated_circuits_roundtrip_through_qasm(make):
    circ = make()
    text = emit_qasm(circ)
    reparsed = parse_qasm(text)
    assert reparsed.gates == lower_rotations(circ).gates
    assert emit_qasm(reparsed) == text
    # unitary equivalence of the lowering, checked densely on small widths
    assert np.allclose(circuit_unitary(circ), circuit_unitary(reparsed), atol=1e-10)
