"""Exact dense statevector simulation and Pauli expectation values.

This is the verification oracle for the whole pipeline: every transformed
circuit/observable pair is checked against it. Width is capped (default 20
qubits, override with the QCUT_SIM_LIMIT environment variable) because the
state is a dense 2^n complex vector.

Basis convention: index bit q (LSB = qubit 0) holds qubit q, so amplitudes
are ordered |...q2 q1 q0>.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .circuits import Circuit, Gate
from .paulis import Observable, PauliString

DEFAULT_SIM_LIMIT = 20


class SimulationError(ValueError):
    pass


def sim_limit() -> int:
    value = os.environ.get("QCUT_SIM_LIMIT", DEFAULT_SIM_LIMIT)
    try:
        return int(value)
    except ValueError:
        raise SimulationError(f"QCUT_SIM_LIMIT must be an integer, got {value!r}") from None


_S2 = 1.0 / math.sqrt(2.0)
GATE_1Q = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def product_state(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor product of single-qubit states; factors[q] belongs to qubit q."""
    state = np.array([1.0 + 0j])
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if f.shape != (2,):
            raise SimulationError("each factor must be a length-2 vector")
        state = np.kron(f, state)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-9:
        state = state / norm
    return state


def apply_1q(state: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    n = state.size.bit_length() - 1
    psi = state.reshape(1 << (n - q - 1), 2, 1 << q)
    out = np.einsum("ab,ibj->iaj", u, psi)
    return out.reshape(state.size)


def apply_pauli(state: np.ndarray, word: PauliString) -> np.ndarray:
    """Apply a Pauli word via bit operations.

    P|b> = i^(#Y) * (-1)^popcount(b & z) * |b XOR x>, so the amplitude at
    output index c is sourced from c XOR x with that phase.
    """
    src = np.arange(state.size) ^ word.x
    out = state[src]
    if word.z:
        par = _parity(src & word.z)
        out = out * np.where(par, -1.0 + 0j, 1.0 + 0j)
    k = (word.x & word.z).bit_count() % 4
    if k:
        out = out * (1j) ** k
    return out


def _parity(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    out = np.zeros(v.shape, dtype=np.int64)
    while v.any():
        out ^= v & 1
        v >>= 1
    return out.astype(bool)


def apply_gate(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.kind in GATE_1Q:
        return apply_1q(state, GATE_1Q[gate.kind], gate.qubits[0])
    if gate.kind == "rz":
        return apply_1q(state, rz_matrix(gate.angle), gate.qubits[0])
    if gate.kind == "cx":
        c, t = gate.qubits
        idx = np.arange(state.size)
        sel = (idx >> c) & 1
        flipped = idx ^ (1 << t)
        out = state.copy()
        out[sel == 1] = state[flipped[sel == 1]]
        return out
    if gate.kind == "cz":
        a, b = gate.qubits
        idx = np.arange(state.size)
        sign = np.where(((idx >> a) & 1) & ((idx >> b) & 1), -1.0, 1.0)
        return state * sign
    if gate.kind == "rot":
        # exp(-i*theta/2 * P)|psi> = cos(theta/2)|psi> - i sin(theta/2) P|psi>
        word = gate.axis_word(n)
        half = 0.5 * gate.angle
        return math.cos(half) * state - 1j * math.sin(half) * apply_pauli(state, word)
    raise SimulationError(f"cannot simulate gate kind {gate.kind!r}")


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve an initial state (default |0...0>) through the circuit."""
    if circuit.n > sim_limit():
        raise SimulationError(
            f"{circuit.n} qubits exceeds the simulator cap {sim_limit()} "
            "(set QCUT_SIM_LIMIT to raise it)"
        )
    state = zero_state(circuit.n) if initial is None else np.asarray(initial, dtype=complex)
    if state.size != 1 << circuit.n:
        raise SimulationError("initial state size does not match circuit width")
    for gate in circuit.gates:
        state = apply_gate(state, gate, circuit.n)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise SimulationError(f"state norm drifted to {norm}")
    return state


def pauli_expectations(state: np.ndarray, xs, zs) -> np.ndarray:
    """<psi|P|psi> for each Pauli word P = (xs[j], zs[j]) on one state."""
    n = state.size.bit_length() - 1
    return np.array(
        [np.vdot(state, apply_pauli(state, PauliString(n, int(x), int(z)))) for x, z in zip(xs, zs)],
        dtype=complex,
    )


def expectation(state: np.ndarray, obs: Observable) -> float:
    """<psi|O|psi> for a Hermitian observable; rejects non-real results."""
    if state.size != 1 << obs.n:
        raise SimulationError("state size does not match observable width")
    words = [t.word for t in obs.terms]
    values = pauli_expectations(state, [w.x for w in words], [w.z for w in words])
    val = sum((t.coeff * v for t, v in zip(obs.terms, values)), 0j)
    if abs(val.imag) > 1e-10:
        raise SimulationError(f"non-Hermitian expectation residue {val.imag}")
    return float(val.real)
