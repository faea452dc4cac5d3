"""Exact dense statevector simulation and Pauli expectation values.

This is the verification oracle for the whole pipeline: every transformed
circuit/observable pair is checked against it. Width is capped (default 20
qubits, override with the QCUT_SIM_LIMIT environment variable) because the
state is a dense 2^n complex vector; ``simulate``, ``zero_state`` and
``product_state`` refuse a wider state before allocating it.

Basis convention: index bit q (LSB = qubit 0) holds qubit q, so amplitudes
are ordered |...q2 q1 q0>.

Each gate family has one in-place kernel on a strided view of the state:
two axpys (or a phase multiply) for a 1-qubit matrix, one product per
cache-sized slice for a 4x4 matrix on a qubit pair, and
cos*psi - i*sin*P*psi for a Pauli rotation. ``simulate`` copies its input
once, then runs them in place. It fuses each run of 1-qubit gates on one
qubit into one 2x2 matrix, and each run of cx/cz gates confined to one
qubit pair, with the 1-qubit gates among and around them, into one 4x4
matrix, so every cx and cz reaches the state through the 4x4 kernel. The
fusion multiplies Python complex numbers, not numpy arrays: the states of
the reconstruction walk are small, so a gate's cost is the calls it makes,
and a numpy array is made only where a fused matrix reaches a kernel. It is
the one gate loop, for whole circuits, for the reconstruction walk's gate
runs and, through ``apply_gate``, for a single gate.
The kernels, ``simulate`` and ``pauli_expectations`` also take a stack of
states, shape (rows, 2^n), so the walk evolves all of its branches in one
call and evaluates the same words on every row: one gather per distinct x
and one row-wise product per distinct word, for one state or a stack alike.
``apply_images`` takes a stack through a circuit given as the images of
the basis states, one matrix product, for a gate run that many branches
share. ``apply_1q`` applies the walk's cut-end matrices to a copy, because
the walk shares states between branches.
"""

from __future__ import annotations

import cmath
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


def _check_width(n: int) -> None:
    """Refuse a state of n qubits above the cap, before it is allocated."""
    if n > sim_limit():
        raise SimulationError(f"{n} qubits exceeds the simulator cap {sim_limit()}")


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


def _rz_phases(theta: float) -> tuple[complex, complex]:
    """The diagonal of rz(theta), as Python complex numbers."""
    return cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)


def rz_matrix(theta: float) -> np.ndarray:
    e0, e1 = _rz_phases(theta)
    return np.array([[e0, 0], [0, e1]], dtype=complex)


def zero_state(n: int) -> np.ndarray:
    _check_width(n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _check_norm(norm: float) -> None:
    if not 0 < norm < math.inf:  # NaN fails both comparisons
        raise SimulationError(f"the initial product state has norm {norm}")


def product_state(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor product of single-qubit states; factors[q] belongs to qubit q."""
    _check_width(len(factors))
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


# A general 1-qubit matrix takes the axpys in blocks of _BLOCK amplitudes,
# so that their five passes run in cache.
_BLOCK = 1 << 15


def _kernel_1q(state: np.ndarray, u: np.ndarray, q: int) -> None:
    """Apply the 2x2 matrix u to qubit q of state, in place.

    The view [:, b, :] holds the amplitudes whose bit q is b. A diagonal u
    is a phase multiply per half, a general one two axpys.
    """
    view = state.reshape(-1, 2, 1 << q)
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
    x, z = word.x, word.z
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
    The buffers and their views are made once, so a state that fits one
    slice pays one gather, one matmul and one scatter.
    """
    view = _pair_view(state, hi, lo)
    a, _, b, _, c = view.shape
    quarter = _BLOCK >> 2
    sc = min(c, quarter)
    sb = min(b, quarter // sc)
    sa = min(a, quarter // (sb * sc))
    for i in range(0, a, sa):
        # sb and sc divide b and c, but a stack's a = rows * 2^(n - hi - 1)
        # may leave a shorter last slice, which gets buffers of its own.
        if i == 0 or a - i < sa:
            gathered, product = np.empty((2, 2, 2, min(sa, a - i), sb, sc), dtype=complex)
            operand, result = gathered.reshape(4, -1), product.reshape(4, -1)
            scatter = product.transpose(2, 0, 3, 1, 4)
        for j in range(0, b, sb):
            for k in range(0, c, sc):
                part = view[i : i + sa, :, j : j + sb, :, k : k + sc]
                np.copyto(gathered, part.transpose(1, 3, 0, 2, 4))
                np.matmul(m, operand, out=result)
                part[...] = scatter


def _kernel_rot(state: np.ndarray, word: PauliString, theta: float) -> None:
    """Apply the Pauli rotation exp(-i*theta/2 * P) to state, in place:
    cos(theta/2)|psi> - i sin(theta/2) P|psi>."""
    rotated = apply_pauli(state, word)
    state *= math.cos(0.5 * theta)
    state -= (1j * math.sin(0.5 * theta)) * rotated


def _mix(u, x: list, y: list) -> tuple[list, list]:
    """The pair of rows (x, y) multiplied from the left by the 2x2 matrix u,
    all of them Python complex numbers."""
    (a, b), (c, d) = u
    return [a * s + b * t for s, t in zip(x, y)], [c * s + d * t for s, t in zip(x, y)]


# The 1-qubit matrices as two rows of Python complex numbers, the form in
# which ``simulate`` multiplies them.
_ROWS_1Q = {kind: u.tolist() for kind, u in GATE_1Q.items()}
_IDENTITY = ((1, 0), (0, 1))


class _Block:
    """An open run of cx and cz gates on one qubit pair, with the 1-qubit
    gates before, among and after them, as one 4x4 matrix.

    The matrix is four rows of Python complex numbers, indexed
    2 * (bit hi) + (bit lo), so that a gate costs a few scalar products and
    no numpy call. Opening a block takes in the pair's pending 1-qubit
    matrices as their Kronecker product; closing it takes in those pending
    since its last gate and applies the product as one numpy 4x4 with one
    ``_kernel_2q`` call.
    """

    __slots__ = ("hi", "lo", "rows")

    def __init__(self, gate: Gate, pending: dict[int, list]):
        self.hi, self.lo = max(gate.qubits), min(gate.qubits)
        (a, b), (c, d) = pending.pop(self.hi, _IDENTITY)
        (p, q), (r, s) = pending.pop(self.lo, _IDENTITY)
        self.rows = [[a * p, a * q, b * p, b * q], [a * r, a * s, b * r, b * s],
                     [c * p, c * q, d * p, d * q], [c * r, c * s, d * r, d * s]]
        self._gate(gate)

    def add(self, gate: Gate, pending: dict[int, list]) -> None:
        """Multiply in the pair's pending matrices, then the next cx or cz."""
        self._fold(pending)
        self._gate(gate)

    def close(self, state: np.ndarray, pending: dict[int, list]) -> None:
        """Multiply in the pair's pending matrices and apply the block to state."""
        self._fold(pending)
        _kernel_2q(state, np.array(self.rows, dtype=complex), self.hi, self.lo)

    def _gate(self, gate: Gate) -> None:
        """Multiply in a cx or cz: a permutation or a sign of the rows."""
        rows = self.rows
        if gate.kind == "cz":
            rows[3] = [-x for x in rows[3]]
        else:
            # swap the rows with the control set: target 0 and target 1
            r = 2 if gate.qubits[0] > gate.qubits[1] else 1
            rows[r], rows[3] = rows[3], rows[r]

    def _fold(self, pending: dict[int, list]) -> None:
        """Multiply in and remove the pair's matrices in pending."""
        r0, r1, r2, r3 = self.rows
        # a matrix on hi mixes rows whose bit hi differs, on lo those whose bit lo does
        u = pending.pop(self.hi, None)
        if u is not None:
            (r0, r2), (r1, r3) = _mix(u, r0, r2), _mix(u, r1, r3)
        u = pending.pop(self.lo, None)
        if u is not None:
            (r0, r1), (r2, r3) = _mix(u, r0, r1), _mix(u, r2, r3)
        self.rows = [r0, r1, r2, r3]


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve an initial state (default |0...0>) through the circuit.

    The state is a copy of ``initial`` that the gates update in place. Each
    run of 1-qubit gates on one qubit is multiplied into one 2x2 matrix. Each
    run of cx and cz gates confined to one qubit pair, with the 1-qubit gates
    on that pair before, among and after them, is one block: one 4x4 matrix,
    applied in one pass over the state when another gate touches either of
    its qubits, or at the end. These products are of Python complex numbers;
    each matrix becomes a numpy array only when it reaches a kernel. ``rot``
    gates are applied one at a time. ``initial`` is one state, shape (2^n,),
    or a stack of one or more states, shape (rows, 2^n): every row goes
    through the same kernels, and a stack is returned. Any other shape is
    refused. The gates are unitary, so each row must keep its input's norm,
    which is below 1 for a projected branch of the reconstruction walk.
    """
    _check_width(circuit.n)
    size = 1 << circuit.n
    if initial is None:
        state = zero_state(circuit.n)
    else:
        state = np.array(initial, dtype=complex)
        if state.ndim not in (1, 2) or state.shape[-1] != size or not state.size:
            raise SimulationError("initial state size does not match circuit width")
    expected_norms = _norms(state)
    pending: dict[int, list] = {}  # qubit -> the rows of its 1-qubit gates not yet applied
    blocks: dict[int, _Block] = {}  # qubit -> the open block on its pair
    for gate in circuit.gates:
        kind = gate.kind
        if kind == "rz":
            e0, e1 = _rz_phases(gate.angle)
            u = (e0, 0), (0, e1)
        else:
            u = _ROWS_1Q.get(kind)
        if u is not None:
            q = gate.qubits[0]
            p = pending.get(q)
            if p is None:
                pending[q] = u
            else:
                (a, b), (c, d) = p
                (e, f), (g, h) = u
                pending[q] = (e * a + f * c, e * b + f * d), (g * a + h * c, g * b + h * d)
            continue
        entangling = kind in ("cx", "cz")
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
                _kernel_1q(state, np.array(pending.pop(q), dtype=complex), q)
        _kernel_rot(state, gate.axis_word(circuit.n), gate.angle)
    for block in dict.fromkeys(blocks.values()):
        block.close(state, pending)
    for q, u in pending.items():
        _kernel_1q(state, np.array(u, dtype=complex), q)
    _check_drift(state, expected_norms)
    return state


def _check_drift(state: np.ndarray, expected_norms: np.ndarray) -> None:
    """Refuse a state or stack whose rows' norms moved by more than 1e-10."""
    norms = _norms(state)
    drift = np.abs(norms - expected_norms)
    if not drift.max() <= 1e-10:  # a NaN drift fails too
        row = int(drift.argmax())
        raise SimulationError(f"state norm drifted from {expected_norms[row]} to {norms[row]}")


def apply_images(stack: np.ndarray, images: np.ndarray) -> np.ndarray:
    """A stack of states, shape (rows, 2^n), taken through a circuit given by its images.

    ``images`` is ``simulate(circuit, identity)``: its row k holds the
    circuit's image of basis state k, so the stack's image is one matrix
    product, ``stack @ images``, under ``simulate``'s norm-drift check. A
    one-row product would take numpy's matrix-vector path, whose sums can
    differ in the last bits from the same row's inside a taller product, so
    a lone row is multiplied as two.
    """
    rows = stack if len(stack) > 1 else np.repeat(stack, 2, axis=0)
    out = np.matmul(rows, images)[: len(stack)]
    _check_drift(out, _norms(stack))
    return out


def pauli_expectations(state: np.ndarray, xs, zs) -> np.ndarray:
    """<psi|P|psi> for each Pauli word P = (xs[j], zs[j]).

    ``state`` is one state, or a stack of shape (rows, 2^n); xs and zs hold
    one mask per word, shared by every row, and the result has shape
    (words,) or (rows, words). Masks of different counts, or wider than the
    state, are refused. Each distinct word is evaluated once, and the stack
    is gathered once per distinct x (``_x_values``).
    """
    if len(xs) != len(zs):
        raise SimulationError(f"{len(xs)} x masks for {len(zs)} z masks")
    states = state.reshape(-1, state.shape[-1])
    n = states.shape[-1].bit_length() - 1
    distinct: dict[tuple[int, int], int] = {}  # word -> its row of values
    inverse = []
    for x, z in zip(xs, zs):
        x, z = int(x), int(z)
        if (x | z) >> n:  # a negative mask too
            raise SimulationError(f"Pauli word masks ({x}, {z}) do not fit {n} qubits")
        inverse.append(distinct.setdefault((x, z), len(distinct)))
    by_x: dict[int, list[tuple[int, int]]] = {}
    for (x, z), row in distinct.items():
        by_x.setdefault(x, []).append((z, row))
    values = np.empty((len(distinct), len(states)), dtype=complex)
    for x, words in by_x.items():
        _x_values(states, x, words, values)
    np.conjugate(values, out=values)
    return values.T[:, inverse].reshape(*state.shape[:-1], len(xs))


def _x_values(states: np.ndarray, x: int, words: list[tuple[int, int]], values: np.ndarray) -> None:
    """Fill rows of values with the conjugates of <psi|P|psi> for the words P = (x, z) of one x.

    ``words`` holds each z with its row. The stack is gathered and
    conjugated once, conj(psi[b XOR x]), and each word multiplies the
    gather by its factor (``_conj_word``). A function of its own, so that
    the gather is freed before the next x's is made.
    """
    index, _ = _index_tables(states.shape[-1])
    gathered = states.take(index ^ x, axis=-1)
    np.conjugate(gathered, out=gathered)
    for z, row in words:
        # sum psi * conj(P psi) per row, the conjugate of <psi|P|psi>
        np.matmul(states[:, None, :], _conj_word(gathered, x, z)[:, :, None],
                  out=values[row, :, None, None])


def _conj_word(gathered: np.ndarray, x: int, z: int) -> np.ndarray:
    """conj(P psi) per row for P = (x, z), given gathered = conj(psi[b XOR x]).

    With m = popcount(x & z),
    (P psi)[b] = i^m (-1)^popcount((b XOR x) & z) psi[b XOR x]
               = (-i)^m (-1)^popcount(b & z) psi[b XOR x],
    so conj(P psi) is the gather times one factor, i^m (-1)^popcount(b & z).
    Every entry of that factor is +-1 or +-i, so each product is exact and
    the sum over it is the one ``np.vdot`` forms with P|psi>.
    """
    if not z:
        return gathered
    index, sign = _index_tables(gathered.shape[-1])
    factor = sign.take(index & z).astype(complex)
    k = (x & z).bit_count() % 4
    if k:
        factor *= (1j) ** k
    if len(gathered) > 1:
        return gathered * factor
    factor *= gathered[0]  # one row's product is the factor's size: form it in place
    return factor[None]


def expectation(state: np.ndarray, obs: Observable) -> float:
    """<psi|O|psi> for a Hermitian observable; rejects non-real results.

    Rounding leaves an imaginary residue that grows with the observable's
    scale, so its bound is 1e-10 times the coefficients' 1-norm, if above 1.
    """
    if state.size != 1 << obs.n:
        raise SimulationError("state size does not match observable width")
    values = pauli_expectations(state, _mask_ints(obs.x), _mask_ints(obs.z))
    coeffs = obs.coeffs.tolist()
    val = sum((c * v for c, v in zip(coeffs, values)), 0j)
    if abs(val.imag) > 1e-10 * max(1.0, sum(map(abs, coeffs))):
        raise SimulationError(f"non-Hermitian expectation residue {val.imag}")
    return float(val.real)
