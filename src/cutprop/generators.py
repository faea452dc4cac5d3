"""Benchmark circuit and observable generators.

The hardware-efficient variational ansatz is emitted in its transpiled
sx/rz/cz form, frame rotations like rz(3*pi) and rz(7*pi/2) included
verbatim; the spin-chain generator emits a first-order product formula
over an edge list with per-qubit field rotations.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, CircuitError, Gate
from .paulis import Observable, PauliString

PI = math.pi


def efficient_su2(n: int, reps: int, params: list[float]) -> Circuit:
    """Hardware-efficient SU2 ansatz in the sx/rz/cz basis.

    Expects 2*n*(reps+1) rotation angles: each of the reps+1 rotation
    layers consumes 2n (two rz angles per qubit), and entangling layers are
    a staggered linear cz ladder with the transpilation frame rotations.
    """
    if n < 2:
        raise CircuitError("ansatz needs at least 2 qubits")
    if reps < 0:
        raise CircuitError("reps must be nonnegative")
    expected = 2 * n * (reps + 1)
    if len(params) != expected:
        raise CircuitError(f"expected {expected} parameters, got {len(params)}")

    gates: list[Gate] = []

    def rot_block(q: int, theta1: float, theta2: float, frame: float) -> list[Gate]:
        return [
            Gate("sx", (q,)),
            Gate("rz", (q,), angle=theta1),
            Gate("sx", (q,)),
            Gate("rz", (q,), angle=frame),
            Gate("rz", (q,), angle=theta2),
        ]

    for q in range(n):
        frame = 3 * PI if q == 0 else 7 * PI / 2
        gates.extend(rot_block(q, params[q], params[n + q], frame))
    for r in range(1, reps + 1):
        base = 2 * n * r
        for q in range(1, n - 1):
            gates.append(Gate("sx", (q,)))
            gates.append(Gate("rz", (q,), angle=PI))
        gates.append(Gate("sx", (n - 1,)))
        gates.append(Gate("rz", (n - 1,), angle=-PI / 2))
        for k in range(n - 1):
            gates.append(Gate("cz", (k, k + 1)))
            if k + 1 < n - 1:
                gates.append(Gate("sx", (k + 1,)))
                gates.append(Gate("rz", (k + 1,), angle=PI / 2))
                gates.extend(rot_block(k, params[base + k], params[base + n + k], 3 * PI))
            else:
                gates.extend(rot_block(k, params[base + k], params[base + n + k], 3 * PI))
                gates.append(Gate("sx", (n - 1,)))
                gates.append(Gate("rz", (n - 1,), angle=PI / 2))
                gates.append(Gate("rz", (n - 1,), angle=params[base + n - 1]))
                gates.append(Gate("sx", (n - 1,)))
                gates.append(Gate("rz", (n - 1,), angle=3 * PI))
                gates.append(Gate("rz", (n - 1,), angle=params[base + 2 * n - 1]))
    return Circuit(n, tuple(gates))


def heisenberg_trotter(
    edges: list[tuple[int, int]],
    j: tuple[float, float, float],
    h: tuple[float, float, float],
    t: float,
    steps: int,
) -> Circuit:
    """First-order product-formula circuit for the XYZ spin Hamiltonian.

    Per step: for each edge (in input order) XX, YY, ZZ rotations with
    angles 2*J*t/steps, then per-qubit X, Y, Z field rotations with angles
    2*h*t/steps. rot(P, theta) applies exp(-i*theta/2 * P).
    """
    if steps < 1:
        raise CircuitError("steps must be >= 1")
    n = 1 + max(max(u, v) for u, v in edges) if edges else 0
    for u, v in edges:
        if min(u, v) < 0 or u == v:
            raise CircuitError(f"invalid edge ({u}, {v})")
    dt = t / steps
    jx, jy, jz = j
    hx, hy, hz = h
    gates: list[Gate] = []
    for _ in range(steps):
        for u, v in edges:
            pair = (u, v) if u < v else (v, u)
            gates.append(Gate("rot", pair, angle=2 * jx * dt, axis="XX"))
            gates.append(Gate("rot", pair, angle=2 * jy * dt, axis="YY"))
            gates.append(Gate("rot", pair, angle=2 * jz * dt, axis="ZZ"))
        for q in range(n):
            gates.append(Gate("rot", (q,), angle=2 * hx * dt, axis="X"))
            gates.append(Gate("rot", (q,), angle=2 * hy * dt, axis="Y"))
            gates.append(Gate("rot", (q,), angle=2 * hz * dt, axis="Z"))
    return Circuit(n, tuple(gates))


HEISENBERG_J = (PI / 8, PI / 4, PI / 2)
HEISENBERG_H = (PI / 3, PI / 6, PI / 9)


def heavy_hex_19_edges() -> tuple[tuple[int, int], ...]:
    """A 19-qubit heavy-hex style coupling map (degree <= 3).

    Two 5-qubit rows bridged through connector qubits, with a third row
    hanging off a middle bridge; this is the default benchmark layout for
    the 19-qubit spin-chain circuit.
    """
    return (
        (0, 1), (1, 2), (2, 3), (3, 4),      # row 0
        (0, 5), (4, 6),                      # connectors down from row 0
        (5, 7), (6, 11),
        (7, 8), (8, 9), (9, 10), (10, 11),   # row 1
        (9, 12), (12, 15),                   # bridge to row 2
        (13, 14), (14, 15), (15, 16), (16, 17),  # row 2
        (17, 18),                            # tail
    )


def weight_z_observable(n: int, b: int) -> Observable:
    """Mean of all contiguous weight-b all-Z words."""
    if not (1 <= b <= n):
        raise ValueError(f"weight {b} out of range for {n} qubits")
    num_terms = n - b + 1
    prefactor = 1.0 / num_terms
    window = (1 << b) - 1
    terms = [
        (prefactor + 0j, PauliString(n, 0, window << i)) for i in range(num_terms)
    ]
    return Observable.from_terms(n, terms)


def first_k_z_observable(n: int, k: int) -> Observable:
    """(1/k) * sum of Z on the first k qubits (k may be below n)."""
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range for {n} qubits")
    return Observable.from_terms(
        n, [(1.0 / k, PauliString(n, 0, 1 << q)) for q in range(k)]
    )


def qaoa_like(n: int, rounds: int, seed: int) -> Circuit:
    """A small QAOA-style circuit: mixer X rotations and ring ZZ phases."""
    rng = np.random.default_rng((seed, 31))
    gates: list[Gate] = []
    edges = [(q, (q + 1) % n) for q in range(n)] if n > 2 else [(0, 1)]
    for _ in range(rounds):
        gamma = float(rng.uniform(0.2, 1.4))
        beta = float(rng.uniform(0.2, 1.4))
        for q in range(n):
            gates.append(Gate("h", (q,)))
        for u, v in edges:
            pair = (u, v) if u < v else (v, u)
            gates.append(Gate("rot", pair, angle=2 * gamma, axis="ZZ"))
        for q in range(n):
            gates.append(Gate("rot", (q,), angle=2 * beta, axis="X"))
    return Circuit(n, tuple(gates))


_RANDOM_1Q = ("h", "s", "sdg", "x", "sx")
_RANDOM_AXES_2Q = ("XX", "YY", "ZZ", "XZ", "ZX", "YZ")


def random_circuit(
    n: int,
    depth: int,
    rng: np.random.Generator,
    p_two_qubit: float = 0.35,
) -> Circuit:
    """Seeded mixed Clifford/rotation circuit for tests and benchmarks."""
    gates: list[Gate] = []
    for _ in range(depth):
        if n >= 2 and rng.random() < p_two_qubit:
            u, v = map(int, rng.choice(n, size=2, replace=False))
            pair = (min(u, v), max(u, v))
            if rng.random() < 0.4:
                axis = str(rng.choice(_RANDOM_AXES_2Q))
                angle = float(rng.uniform(-PI, PI))
                gates.append(Gate("rot", pair, angle=angle, axis=axis))
            else:
                kind = "cx" if rng.random() < 0.5 else "cz"
                gates.append(Gate(kind, pair))
        else:
            q = int(rng.integers(0, n))
            if rng.random() < 0.4:
                gates.append(Gate("rz", (q,), angle=float(rng.uniform(-PI, PI))))
            else:
                gates.append(Gate(str(rng.choice(_RANDOM_1Q)), (q,)))
    return Circuit(n, tuple(gates))
