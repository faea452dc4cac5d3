"""Exact dense statevector simulation and Pauli expectation values.

This is the verification oracle for the whole pipeline: every transformed
circuit/observable pair is checked against it. Width is capped (default 20
qubits, override with the QCUT_SIM_LIMIT environment variable) because the
state is a dense 2^n complex vector.

Basis convention: index bit q (LSB = qubit 0) holds qubit q, so amplitudes
are ordered |...q2 q1 q0>.

Each gate family has one in-place kernel on a strided view of the state:
two axpys (or a phase multiply) for a 1-qubit matrix, a sign flip for cz,
a swap of two views for cx, and cos*psi - i*sin*P*psi for a Pauli
rotation. ``simulate`` copies its input once, then runs them in place and
fuses each run of 1-qubit gates on one qubit into one matrix; it is the one
gate loop, for whole circuits and for the reconstruction walk's gate runs.
``apply_1q`` applies the walk's cut-end matrices to a copy, because the
walk shares states between branches; ``apply_gate`` is its one-gate twin.
"""

from __future__ import annotations

import functools
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


# States up to _SMALL amplitudes take the 1-qubit matrix as one batched
# matmul, which makes fewer numpy calls. Larger ones take the axpys in
# blocks of _BLOCK amplitudes, so that their five passes run in cache.
_SMALL = 1 << 8
_BLOCK = 1 << 15


def _kernel_1q(state: np.ndarray, u: np.ndarray, q: int) -> None:
    """Apply the 2x2 matrix u to qubit q of state, in place.

    The view [:, b, :] holds the amplitudes whose bit q is b. A small state
    takes u as one matmul on the view; in a larger one a diagonal u is a
    phase multiply per half and a general one two axpys.
    """
    view = state.reshape(-1, 2, 1 << q)
    if state.size <= _SMALL:
        view[...] = u @ view
        return
    (u00, u01), (u10, u11) = u.tolist()
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            view[:, 0] *= u00
        if u11 != 1:
            view[:, 1] *= u11
        return
    step = max(1, _BLOCK >> (q + 1))
    for i in range(0, view.shape[0], step):
        block = view[i : i + step]
        # For q < 2 a row holds 1 or 2 amplitudes per half, too short for
        # numpy's inner loop, so each column is a strided 1-d view instead.
        cols = [block[:, :, j] for j in range(1 << q)] if q < 2 else [block]
        for col in cols:
            a, b = col[:, 0], col[:, 1]
            a0 = a.copy()
            a *= u00
            a += u01 * b
            b *= u11
            a0 *= u10
            b += a0


def _pair_view(state: np.ndarray, hi: int, lo: int) -> np.ndarray:
    """state viewed so that axis 1 is bit hi and axis 3 is bit lo (hi > lo)."""
    n = state.size.bit_length() - 1
    return state.reshape(1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _matrix_1q(gate: Gate) -> np.ndarray | None:
    if gate.kind in GATE_1Q:
        return GATE_1Q[gate.kind]
    if gate.kind == "rz":
        return rz_matrix(gate.angle)
    return None


def _apply(state: np.ndarray, gate: Gate, n: int) -> None:
    """Apply one gate to state, in place."""
    u = _matrix_1q(gate)
    if u is not None:
        _kernel_1q(state, u, gate.qubits[0])
    elif gate.kind == "cx":
        c, t = gate.qubits
        view = _pair_view(state, max(c, t), min(c, t))
        # swap the control-set halves with target 0 and target 1
        if c > t:
            x, y = view[:, 1, :, 0], view[:, 1, :, 1]
        else:
            x, y = view[:, 0, :, 1], view[:, 1, :, 1]
        tmp = x.copy()
        x[...] = y
        y[...] = tmp
    elif gate.kind == "cz":
        a, b = gate.qubits
        _pair_view(state, max(a, b), min(a, b))[:, 1, :, 1] *= -1
    elif gate.kind == "rot":
        # exp(-i*theta/2 * P)|psi> = cos(theta/2)|psi> - i sin(theta/2) P|psi>
        half = 0.5 * gate.angle
        rotated = apply_pauli(state, gate.axis_word(n))
        state *= math.cos(half)
        state -= (1j * math.sin(half)) * rotated
    else:
        raise SimulationError(f"cannot simulate gate kind {gate.kind!r}")


def apply_1q(state: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """u on qubit q, returned as a new array; state is left unchanged."""
    out = np.array(state, dtype=complex)
    _kernel_1q(out, np.asarray(u), q)
    return out


def apply_gate(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """One gate, returned as a new array; state is left unchanged."""
    out = np.array(state, dtype=complex)
    _apply(out, gate, n)
    return out


@functools.cache
def _index_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices b and the signs (-1)^popcount(b), for one state size.

    Cached once per state width and shared by every caller, so both tables
    are read-only.
    """
    index = np.arange(size)
    parity = np.zeros(size, dtype=np.int8)
    for bit in range(size.bit_length() - 1):
        parity ^= ((index >> bit) & 1).astype(np.int8)
    sign = 1 - 2 * parity
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def apply_pauli(state: np.ndarray, word: PauliString) -> np.ndarray:
    """Apply a Pauli word via bit operations.

    P|b> = i^(#Y) * (-1)^popcount(b & z) * |b XOR x>, so the amplitude at
    output index c is sourced from c XOR x with that phase.
    """
    index, sign = _index_tables(state.size)
    src = index ^ word.x
    out = state[src].astype(complex, copy=False)
    if word.z:
        out *= sign[src & word.z]
    k = (word.x & word.z).bit_count() % 4
    if k:
        out *= (1j) ** k
    return out


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve an initial state (default |0...0>) through the circuit.

    The state is a copy of ``initial`` that the gates update in place. Each
    run of 1-qubit gates on one qubit is multiplied into one 2x2 matrix,
    applied before the next multi-qubit gate on that qubit or at the end.
    The gates are unitary, so the output must keep the input's norm, which
    is below 1 for a projected branch of the reconstruction walk.
    """
    if circuit.n > sim_limit():
        raise SimulationError(
            f"{circuit.n} qubits exceeds the simulator cap {sim_limit()} "
            "(set QCUT_SIM_LIMIT to raise it)"
        )
    state = zero_state(circuit.n) if initial is None else np.array(initial, dtype=complex).ravel()
    if state.size != 1 << circuit.n:
        raise SimulationError("initial state size does not match circuit width")
    expected_norm = math.sqrt(np.vdot(state, state).real)
    pending: dict[int, np.ndarray] = {}  # qubit -> its 1-qubit gates not yet applied
    for gate in circuit.gates:
        u = _matrix_1q(gate)
        if u is not None:
            q = gate.qubits[0]
            pending[q] = u @ pending[q] if q in pending else u
            continue
        for q in gate.qubits:
            if q in pending:
                _kernel_1q(state, pending.pop(q), q)
        _apply(state, gate, circuit.n)
    for q, u in pending.items():
        _kernel_1q(state, u, q)
    norm = math.sqrt(np.vdot(state, state).real)
    if abs(norm - expected_norm) > 1e-10:
        raise SimulationError(f"state norm drifted from {expected_norm} to {norm}")
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
