"""Reference implementations used to check the package.

The dense-matrix references are built directly from 2x2 matrices and
Kronecker products, independently of the package's simulator and Pauli
algebra, so the two sides of every comparison are computed by different
code. ``objective`` composes the public pipeline stages directly, as the
reference for the annealer's single-pass objective evaluator.
"""

import numpy as np

from cutprop.annealing import AnnealError
from cutprop.backprop import backpropagate
from cutprop.cutting import cost, find_cuts

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
S2 = 1 / np.sqrt(2)
GATE_1Q = {
    "h": S2 * np.array([[1, 1], [1, -1]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "x": PAULI["X"],
    "y": PAULI["Y"],
    "z": PAULI["Z"],
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
}


def word_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli word; leftmost letter is qubit 0 (the LSB)."""
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(PAULI[ch], m)
    return m


def embed_1q(u: np.ndarray, q: int, n: int) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for k in range(n):
        m = np.kron(u if k == q else I2, m)
    return m


def cx_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = b ^ (1 << target) if (b >> control) & 1 else b
        m[out, b] = 1.0
    return m


def cz_matrix(a: int, b: int, n: int) -> np.ndarray:
    dim = 1 << n
    diag = np.ones(dim, dtype=complex)
    for idx in range(dim):
        if (idx >> a) & 1 and (idx >> b) & 1:
            diag[idx] = -1.0
    return np.diag(diag)


def rz_embedded(theta: float, q: int, n: int) -> np.ndarray:
    u = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    return embed_1q(u, q, n)


def rotation_matrix(axis_label: str, theta: float) -> np.ndarray:
    """exp(-i*theta/2 * P) for a full-width axis word."""
    a = word_matrix(axis_label)
    dim = a.shape[0]
    return np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * a


def gate_matrix(gate, n: int) -> np.ndarray:
    """Dense matrix of one package Gate (reference path, no simulator)."""
    if gate.kind in GATE_1Q:
        return embed_1q(GATE_1Q[gate.kind], gate.qubits[0], n)
    if gate.kind == "rz":
        return rz_embedded(gate.angle, gate.qubits[0], n)
    if gate.kind == "cx":
        return cx_matrix(gate.qubits[0], gate.qubits[1], n)
    if gate.kind == "cz":
        return cz_matrix(gate.qubits[0], gate.qubits[1], n)
    if gate.kind == "rot":
        letters = ["I"] * n
        for q, ch in zip(gate.qubits, gate.axis):
            letters[q] = ch
        return rotation_matrix("".join(letters), gate.angle)
    raise ValueError(f"no dense matrix for {gate.kind}")


def circuit_unitary(circuit) -> np.ndarray:
    u = np.eye(1 << circuit.n, dtype=complex)
    for g in circuit.gates:
        u = gate_matrix(g, circuit.n) @ u
    return u


def obs_matrix(obs) -> np.ndarray:
    total = np.zeros((1 << obs.n, 1 << obs.n), dtype=complex)
    for term in obs.terms:
        total += term.coeff * word_matrix(term.word.label())
    return total


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def objective(circuit, obs, w, slicing="auto", trunc_budget_per_slice=0.0, cut_seed=0):
    """Executions needed after backpropagating with budget w and cutting.

    One fresh backpropagation and cut search per call, with no sharing
    between budgets.
    """
    if w < 1:
        raise AnnealError("w must be >= 1")
    result = backpropagate(circuit, obs, w, trunc_budget_per_slice, slicing)
    if result.fully_absorbed:
        return 0
    plan = find_cuts(result.reduced_circuit, force_bipartition=True, seed=cut_seed)
    return cost(plan, result.evolved_obs).total_executions
