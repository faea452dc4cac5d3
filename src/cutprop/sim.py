"""Exact dense statevector simulation and Pauli expectation values.

This is the verification oracle for the whole pipeline: every transformed
circuit/observable pair is checked against it. Width is capped (default 20
qubits, override with the QCUT_SIM_LIMIT environment variable) because the
state is a dense 2^n complex vector.

Basis convention: index bit q (LSB = qubit 0) holds qubit q, so amplitudes
are ordered |...q2 q1 q0>.

Each gate family has one in-place kernel on a strided view of the state:
two axpys (or a phase multiply) for a 1-qubit matrix, one product per
cache-sized slice for a 4x4 matrix on a qubit pair, and
cos*psi - i*sin*P*psi for a Pauli rotation. ``simulate`` copies its input
once, then runs them in place. It fuses each run of 1-qubit gates on one
qubit into one 2x2 matrix, and each run of cx/cz gates confined to one
qubit pair, with the 1-qubit gates among and around them, into one 4x4
matrix, so every cx and cz reaches the state through the 4x4 kernel. It is
the one gate loop, for whole circuits, for the reconstruction walk's gate
runs and, through ``apply_gate``, for a single gate.
The kernels, ``simulate`` and ``pauli_expectations`` also take a stack of
states, shape (rows, 2^n), so the walk evolves all of its branches in one
call and evaluates the same words on every row: one gather and one
row-wise product per word, for one state or a stack alike. ``apply_1q``
applies the walk's cut-end matrices to a copy, because the walk shares
states between branches.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .circuits import Circuit, Gate
from .paulis import Observable, PauliString, _mask_ints

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


def _check_norm(norm: float) -> None:
    if not 0 < norm < math.inf:  # NaN fails both comparisons
        raise SimulationError(f"the initial product state has norm {norm}")


def product_state(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor product of single-qubit states; factors[q] belongs to qubit q."""
    state = np.array([1.0 + 0j])
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if f.shape != (2,):
            raise SimulationError("each factor must be a length-2 vector")
        # Each factor is checked before the product, where inf * 0 would warn.
        _check_norm(np.linalg.norm(f))
        state = np.kron(f, state)
    norm = np.linalg.norm(state)
    _check_norm(norm)  # finite factors can still under- or overflow together
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
    """state (or a stack) viewed so that axis 1 is bit hi and axis 3 is bit lo (hi > lo)."""
    return state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _matrix_1q(gate: Gate) -> np.ndarray | None:
    if gate.kind in GATE_1Q:
        return GATE_1Q[gate.kind]
    if gate.kind == "rz":
        return rz_matrix(gate.angle)
    return None


def apply_1q(state: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """u on qubit q, returned as a new array; state is left unchanged."""
    out = np.array(state, dtype=complex)
    _kernel_1q(out, np.asarray(u), q)
    return out


def apply_gate(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """One gate, returned as a new array; state is left unchanged."""
    return simulate(Circuit(n, (gate,)), state)


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
    """Apply a Pauli word via bit operations, to a state or to each row of a stack.

    P|b> = i^(#Y) * (-1)^popcount(b & z) * |b XOR x>, so the amplitude at
    output index c is sourced from c XOR x with that phase.
    """
    return _apply_word(state, word.x, word.z)


def _apply_word(state: np.ndarray, x: int, z: int) -> np.ndarray:
    """P|psi> for the word P = (x, z), given as two Python ints."""
    index, sign = _index_tables(state.shape[-1])
    src = index ^ x
    out = state.take(src, axis=-1).astype(complex, copy=False)
    if z:
        out *= sign.take(src & z)
    k = (x & z).bit_count() % 4
    if k:
        out *= (1j) ** k
    return out


def _norms(state: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a state or stack, with no temporary array.

    A matmul of each row's floats with themselves: on a 19-qubit state
    ``np.einsum`` left the benchmark's peak memory 0.3 MB higher.
    """
    flat = state.reshape(-1, state.shape[-1]).view(np.float64)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).ravel())


def _kernel_2q(state: np.ndarray, m: np.ndarray, hi: int, lo: int) -> None:
    """Apply the 4x4 matrix m to qubits hi > lo of state (or a stack), in place.

    m's rows and columns are indexed 2 * (bit hi) + (bit lo). The pair view
    is taken in slices of at most _BLOCK amplitudes, so that each slice's
    three passes run in cache: gather its four quarters into one buffer,
    multiply them by m as one (4, _BLOCK / 4) product, and scatter them back.
    """
    view = _pair_view(state, hi, lo)
    a, _, b, _, c = view.shape
    quarter = _BLOCK >> 2
    sc = min(c, quarter)
    sb = min(b, quarter // sc)
    sa = min(a, quarter // (sb * sc))
    buffers = np.empty((2, 4 * sa * sb * sc), dtype=complex)
    for i in range(0, a, sa):
        # sb and sc divide b and c, but a stack's a = rows * 2^(n - hi - 1)
        # may leave a shorter last slice: its buffers are the front of the
        # full ones, still contiguous.
        rows = min(sa, a - i)
        gathered, product = buffers[:, : 4 * rows * sb * sc].reshape(2, 2, 2, rows, sb, sc)
        for j in range(0, b, sb):
            for k in range(0, c, sc):
                part = view[i : i + sa, :, j : j + sb, :, k : k + sc]
                np.copyto(gathered, part.transpose(1, 3, 0, 2, 4))
                np.matmul(m, gathered.reshape(4, -1), out=product.reshape(4, -1))
                part[...] = product.transpose(2, 0, 3, 1, 4)


def _kernel_rot(state: np.ndarray, word: PauliString, theta: float) -> None:
    """Apply the Pauli rotation exp(-i*theta/2 * P) to state, in place:
    cos(theta/2)|psi> - i sin(theta/2) P|psi>."""
    rotated = apply_pauli(state, word)
    state *= math.cos(0.5 * theta)
    state -= (1j * math.sin(0.5 * theta)) * rotated


class _Block:
    """An open run of cx and cz gates on one qubit pair, with the 1-qubit
    gates before, among and after them, as one 4x4 matrix.

    The matrix's rows and columns are indexed 2 * (bit hi) + (bit lo).
    Opening a block takes in the pair's pending 1-qubit matrices; closing it
    takes in those pending since its last gate and applies the product with
    one ``_kernel_2q`` call.
    """

    __slots__ = ("hi", "lo", "matrix")

    def __init__(self, gate: Gate, pending: dict[int, np.ndarray]):
        a, b = gate.qubits
        self.hi, self.lo = max(a, b), min(a, b)
        self.matrix = np.eye(4, dtype=complex)
        self.add(gate, pending)

    def add(self, gate: Gate, pending: dict[int, np.ndarray]) -> None:
        """Multiply in the pair's pending matrices, then the next cx or cz."""
        self._fold(pending)
        m = self.matrix
        if gate.kind == "cz":
            m[3] *= -1
        else:
            # swap the rows with the control set: target 0 and target 1
            r = 2 if gate.qubits[0] > gate.qubits[1] else 1
            m[[r, 3]] = m[[3, r]]

    def close(self, state: np.ndarray, pending: dict[int, np.ndarray]) -> None:
        """Multiply in the pair's pending matrices and apply the block to state."""
        self._fold(pending)
        _kernel_2q(state, self.matrix, self.hi, self.lo)

    def _fold(self, pending: dict[int, np.ndarray]) -> None:
        """Multiply in and remove the pair's matrices in pending."""
        # rows 2h + l: a matrix on hi acts on h, the rows' first axis
        u = pending.pop(self.hi, None)
        if u is not None:
            self.matrix = (u @ self.matrix.reshape(2, 8)).reshape(4, 4)
        u = pending.pop(self.lo, None)
        if u is not None:
            self.matrix = (u @ self.matrix.reshape(2, 2, 4)).reshape(4, 4)


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve an initial state (default |0...0>) through the circuit.

    The state is a copy of ``initial`` that the gates update in place. Each
    run of 1-qubit gates on one qubit is multiplied into one 2x2 matrix.
    Each run of cx and cz gates confined to one qubit pair, with the 1-qubit
    gates on that pair before, among and after them, is one block: one 4x4
    matrix, applied in one pass over the state when another gate touches
    either of its qubits, or at the end. ``rot`` gates are applied one at a
    time. ``initial`` may be a stack of states, shape (rows, 2^n): every row
    goes through the same kernels, and a stack is returned. The gates are
    unitary, so each row must keep its input's norm, which is below 1 for a
    projected branch of the reconstruction walk.
    """
    limit = sim_limit()
    if circuit.n > limit:
        raise SimulationError(
            f"{circuit.n} qubits exceeds the simulator cap {limit} "
            "(set QCUT_SIM_LIMIT to raise it)"
        )
    size = 1 << circuit.n
    if initial is None:
        state = zero_state(circuit.n)
    else:
        state = np.array(initial, dtype=complex)
        if state.ndim != 2 or state.shape[1] != size:
            state = state.ravel()
    if state.shape[-1] != size:
        raise SimulationError("initial state size does not match circuit width")
    expected_norms = _norms(state)
    pending: dict[int, np.ndarray] = {}  # qubit -> its 1-qubit gates not yet applied
    blocks: dict[int, _Block] = {}  # qubit -> the open block on its pair
    for gate in circuit.gates:
        u = _matrix_1q(gate)
        if u is not None:
            q = gate.qubits[0]
            pending[q] = u @ pending[q] if q in pending else u
            continue
        entangling = gate.kind in ("cx", "cz")
        if entangling:
            block = blocks.get(gate.qubits[0])
            if block is not None and block is blocks.get(gate.qubits[1]):
                block.add(gate, pending)
                continue
        # any other gate closes the open blocks on its qubits
        for q in gate.qubits:
            block = blocks.get(q)
            if block is not None:
                del blocks[block.hi], blocks[block.lo]
                block.close(state, pending)
        if entangling:
            a, b = gate.qubits
            blocks[a] = blocks[b] = _Block(gate, pending)
            continue
        for q in gate.qubits:
            if q in pending:
                _kernel_1q(state, pending.pop(q), q)
        _kernel_rot(state, gate.axis_word(circuit.n), gate.angle)
    for block in dict.fromkeys(blocks.values()):
        block.close(state, pending)
    for q, u in pending.items():
        _kernel_1q(state, u, q)
    norms = _norms(state)
    drift = np.abs(norms - expected_norms)
    if drift.max() > 1e-10:
        row = int(drift.argmax())
        raise SimulationError(f"state norm drifted from {expected_norms[row]} to {norms[row]}")
    return state


def _word_values(states: np.ndarray, x: int, z: int) -> np.ndarray:
    """<psi|P|psi> for each row psi of states and the word P = (x, z).

    A function of its own, so that one word's index and amplitude arrays are
    freed before the next word's are made.
    """
    amps = _apply_word(states, x, z)
    # sum psi * conj(P psi) per row, the conjugate of <psi|P|psi>
    np.conjugate(amps, out=amps)
    return np.matmul(states[:, None, :], amps[:, :, None]).ravel().conj()


def pauli_expectations(state: np.ndarray, xs, zs) -> np.ndarray:
    """<psi|P|psi> for each Pauli word P = (xs[j], zs[j]).

    ``state`` is one state, or a stack of shape (rows, 2^n); xs and zs hold
    one mask per word, shared by every row, and the result has shape
    (words,) or (rows, words). Each word is one gather over every row and
    one row-wise product.
    """
    states = state.reshape(-1, state.shape[-1])
    out = np.empty((len(states), len(xs)), dtype=complex)
    for j, (x, z) in enumerate(zip(xs, zs)):
        out[:, j] = _word_values(states, int(x), int(z))
    return out.reshape(*state.shape[:-1], len(xs))


def expectation(state: np.ndarray, obs: Observable) -> float:
    """<psi|O|psi> for a Hermitian observable; rejects non-real results."""
    if state.size != 1 << obs.n:
        raise SimulationError("state size does not match observable width")
    values = pauli_expectations(state, _mask_ints(obs.x), _mask_ints(obs.z))
    val = sum((c * v for c, v in zip(obs.coeffs.tolist(), values)), 0j)
    if abs(val.imag) > 1e-10:
        raise SimulationError(f"non-Hermitian expectation residue {val.imag}")
    return float(val.real)
