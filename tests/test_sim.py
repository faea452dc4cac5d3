import math
import tracemalloc

import numpy as np
import pytest

from cutprop.circuits import Circuit, Gate, lower_rotations
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    heavy_hex_19_edges,
    heisenberg_trotter,
    random_circuit,
)
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
    random_product_factors,
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


@pytest.mark.parametrize("factor", [np.zeros(2), np.array([np.nan, 1.0]), np.array([np.inf, 0.0])])
def test_product_state_rejects_a_zero_or_non_finite_norm(factor):
    with pytest.raises(SimulationError, match="initial product state has norm"):
        product_state([np.array([1.0, 0.0]), factor])


def test_width_limit(monkeypatch):
    monkeypatch.setenv("QCUT_SIM_LIMIT", "3")
    with pytest.raises(SimulationError, match="exceeds"):
        simulate(Circuit(4, ()))
    monkeypatch.setenv("QCUT_SIM_LIMIT", "abc")
    with pytest.raises(SimulationError, match="must be an integer"):
        simulate(Circuit(4, ()))
    monkeypatch.delenv("QCUT_SIM_LIMIT")
    simulate(Circuit(4, ()))


def _refused_before_it_is_built(build):
    """build(n) one qubit over the cap raises the cap's line, having traced under 1 MB."""
    limit = sim.sim_limit()
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError) as info:
            build(limit + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{limit + 1} qubits exceeds the simulator cap {limit}"
    assert peak < 1 << 20


def test_product_state_over_the_cap_is_refused_before_it_is_built():
    _refused_before_it_is_built(lambda n: product_state([np.array([1.0, 0.0])] * n))


def test_zero_state_over_the_cap_is_refused_before_it_is_built():
    _refused_before_it_is_built(zero_state)


def test_non_hermitian_rejected():
    obs = Observable(1, (type(Observable.from_labels([(1.0, "Z")]).terms[0])(1j, PauliString(1, 0, 1)),))
    with pytest.raises(SimulationError):
        expectation(zero_state(1), obs)


# h then rz(0.7) on each of two qubits: <XX> = cos(0.7)^2
SCALED_CIRCUIT = Circuit(2, (Gate("h", (0,)), Gate("h", (1,)), Gate("rz", (0,), angle=0.7),
                             Gate("rz", (1,), angle=0.7)))


@pytest.mark.parametrize("scale", [1e10, 1e20])
def test_a_hermitian_observable_of_large_scale_is_accepted(scale):
    # Rounding leaves an imaginary residue of about 1e-17 of the value, which
    # an absolute bound of 1e-10 refused.
    obs = Observable.from_labels([(scale, "XX")])
    value = expectation(simulate(SCALED_CIRCUIT), obs)
    assert value == pytest.approx(scale * math.cos(0.7) ** 2, rel=1e-14)


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


# 16 spans several blocks.
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


@pytest.mark.parametrize("angle", [math.inf, math.nan])
def test_simulate_rejects_an_angle_that_makes_the_state_nan(angle):
    for gates in ([Gate("rz", (0,), angle=angle)], [Gate("rz", (0,), angle=angle), Gate("cx", (0, 1))]):
        with pytest.raises(SimulationError, match="norm drifted from 1.0 to nan"):
            simulate(Circuit(2, tuple(gates)))


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


# --- stacks of states --------------------------------------------------------


def _stack(n: int, rng: np.random.Generator, rows: int = 5) -> np.ndarray:
    """Random states with some rows projected, as the reconstruction walk's stacks hold."""
    stack = np.array([random_state(n, rng) for _ in range(rows)])
    for r in range(1, rows, 2):
        stack[r] = _projected(stack[r], r % n)
    return stack


@pytest.mark.parametrize("n", [1, 3, 5, 9])
def test_stacked_simulate_matches_each_row(n):
    rng = np.random.default_rng((71, n))
    for circ, _ in _kernel_cases(n):
        stack = _stack(n, rng)
        before = stack.copy()
        out = simulate(circ, stack)
        assert out.shape == stack.shape
        assert np.array_equal(stack, before)
        for row, psi in zip(out, stack):
            assert np.abs(row - simulate(circ, psi)).max() < KERNEL_TOL
            assert np.abs(row - einsum_simulate(circ, psi)).max() < KERNEL_TOL
            assert abs(np.linalg.norm(row) - np.linalg.norm(psi)) < KERNEL_TOL


@pytest.mark.parametrize("shape", [(4, 2), (2, 2, 2), (0, 8)])
def test_simulate_refuses_an_initial_array_of_another_shape(shape):
    # 8 amplitudes in another shape, and a stack of no states
    with pytest.raises(SimulationError, match="^initial state size does not match circuit width$"):
        simulate(Circuit(3, (Gate("h", (0,)),)), np.zeros(shape))


@pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 8)])
def test_simulate_takes_one_state_or_a_stack_of_them(shape):
    initial, flipped = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    initial[..., 0] = flipped[..., 1] = 1.0
    out = simulate(Circuit(3, (Gate("x", (0,)),)), initial)
    assert out.shape == shape and np.array_equal(out, flipped)


def test_stacked_simulate_rejects_a_kernel_that_scales_one_row(monkeypatch):
    kernel = sim._kernel_1q

    def scaling_kernel(state, u, q):
        kernel(state, u, q)
        state[2] *= 1.001

    monkeypatch.setattr(sim, "_kernel_1q", scaling_kernel)
    circ = Circuit(3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("sx", (2,))))
    with pytest.raises(SimulationError, match="norm drifted"):
        simulate(circ, _stack(3, np.random.default_rng(73)))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_apply_images_is_the_circuit_on_every_row(n):
    rng = np.random.default_rng((211, n))
    circ = _random_kernel_circuit(n, 30, rng)
    images = simulate(circ, np.eye(1 << n, dtype=complex))
    stack = _stack(n, rng, rows=7)
    out = sim.apply_images(stack, images)
    for row, psi in zip(out, stack):
        assert np.abs(row - einsum_simulate(circ, psi)).max() < KERNEL_TOL
        # a lone row gets the bits it gets inside the taller product
        assert np.array_equal(sim.apply_images(psi[None], images)[0], row)


def test_apply_images_rejects_a_matrix_that_scales_the_rows():
    images = simulate(Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)))), np.eye(4, dtype=complex))
    stack = _stack(2, np.random.default_rng(223), rows=3)
    with pytest.raises(SimulationError, match="norm drifted"):
        sim.apply_images(stack, 1.001 * images)


@pytest.mark.parametrize("n", [2, 5])
def test_stacked_pauli_expectations_with_shared_words(n):
    rng = np.random.default_rng((79, n))
    stack = _stack(n, rng, rows=6)
    xs = [int(x) for x in rng.integers(0, 1 << n, size=20)]
    zs = [int(z) for z in rng.integers(0, 1 << n, size=20)]
    got = pauli_expectations(stack, xs, zs)
    assert got.shape == (6, 20)
    for row, psi in zip(got, stack):
        assert np.array_equal(row, pauli_expectations(psi, xs, zs))
        assert np.abs(row - _dense_expectations(psi, n, xs, zs)).max() < 1e-12


# --- two-qubit blocks ---------------------------------------------------------


def _random_1q(q: int, rng: np.random.Generator) -> Gate:
    kinds = [*GATE_1Q, "rz"]
    kind = kinds[int(rng.integers(len(kinds)))]
    angle = float(rng.uniform(-3, 3)) if kind == "rz" else None
    return Gate(kind, (q,), angle=angle)


def _pair_run(a: int, b: int, kinds: str, rng: np.random.Generator) -> list[Gate]:
    """1-qubit gates on a and b, then per letter of kinds a cx(a, b) ("c"), a
    cx(b, a) ("x") or a cz ("z"), each followed by a 1-qubit gate on a or b."""
    gates = [_random_1q(a, rng), _random_1q(b, rng)]
    for kind in kinds:
        gates.append(Gate("cz" if kind == "z" else "cx", (a, b) if kind != "x" else (b, a)))
        gates.append(_random_1q(int(rng.choice([a, b])), rng))
    return gates


def _block_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """Fused and one-gate blocks on pairs with qubits 0 and n-1, closed by
    rot gates, by gates on a shared qubit and by the end of the circuit.

    At n = 16 the pairs (1, 0), (15, 0) and (15, 14) make the 4x4 kernel
    slice the state along each axis of the pair view in turn.
    """
    top, mid = n - 1, n // 2
    gates = _pair_run(0, 1, "cxz", rng)  # fused, both cx orientations
    gates += _pair_run(top, top - 1, "zc", rng)  # a second block open beside it
    gates.append(Gate("rot", (1,), angle=0.9, axis="Y"))  # closes (0, 1)
    gates += _pair_run(top, 0, "xzc", rng)  # closes (top, top - 1)
    gates.append(Gate("cz", (mid, 0)))  # a one-gate block, closes (top, 0)
    gates += [_random_1q(0, rng), Gate("cx", (top, mid))]  # another one, closes (mid, 0)
    gates += _pair_run(1, 0, "cc", rng)
    gates.append(Gate("rot", (0, top), angle=-0.6, axis="XZ"))  # closes (1, 0) and (top, mid)
    gates += _pair_run(top - 1, top, "xc", rng)  # left open for the end
    gates += _pair_run(1, mid, "z", rng)  # a one-gate block left open for the end
    gates += [_random_1q(q, rng) for q in (0, top)]
    return Circuit(n, tuple(gates))


# 16 slices along every axis of the pair view.
BLOCK_WIDTHS = [4, 5, 9, 16]


def _block_cases(n: int):
    """Seeded circuits of width n: the block circuit, and random circuits
    whose gates fall on a few qubit pairs, so that runs on one pair occur."""
    rng = np.random.default_rng((83, n))
    yield _block_circuit(n, rng)
    pairs = [(0, 1), (n - 1, 0), (n - 1, n - 2), (n // 2, 1)]
    for _ in range(2 if n < 16 else 0):
        gates = []
        for _ in range(60):
            a, b = pairs[int(rng.integers(len(pairs)))]
            roll = rng.uniform()
            if roll < 0.45:
                gates.append(_random_1q(int(rng.choice([a, b])), rng))
            elif roll < 0.9:
                kind = ("cx", "cz")[int(rng.integers(2))]
                gates.append(Gate(kind, (a, b) if rng.uniform() < 0.5 else (b, a)))
            else:
                gates.append(_random_gate(n, rng))
        yield Circuit(n, tuple(gates))


def _count_calls(monkeypatch, names, record=None):
    """Wrap sim's private kernels so that each call is counted, and optionally recorded."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        kernel = getattr(sim, name)

        def wrapped(*args, _name=name, _kernel=kernel):
            counts[_name] += 1
            if record is not None:
                record(_name, args)
            _kernel(*args)

        monkeypatch.setattr(sim, name, wrapped)
    return counts


@pytest.mark.parametrize("n", BLOCK_WIDTHS)
def test_blocks_match_einsum_reference(n):
    rng = np.random.default_rng((89, n))
    for circ in _block_cases(n):
        psi = random_state(n, rng)
        assert np.abs(simulate(circ, psi) - einsum_simulate(circ, psi)).max() < KERNEL_TOL


@pytest.mark.parametrize("n", [2, 3])
def test_blocks_on_two_and_three_qubits_match_einsum_reference(n):
    rng = np.random.default_rng((97, n))
    for _ in range(6):
        gates = []
        for _ in range(40):
            if rng.uniform() < 0.5:
                gates.append(_random_1q(int(rng.integers(n)), rng))
            else:
                gates.append(_random_gate(n, rng))
        circ, psi = Circuit(n, tuple(gates)), random_state(n, rng)
        assert np.abs(simulate(circ, psi) - einsum_simulate(circ, psi)).max() < KERNEL_TOL


@pytest.mark.parametrize("n", [4, 9, 16])
def test_stacked_blocks_match_each_row(n):
    rng = np.random.default_rng((101, n))
    for circ in _block_cases(n):
        stack = _stack(n, rng, rows=3)
        out = simulate(circ, stack)
        for row, psi in zip(out, stack):
            assert np.abs(row - einsum_simulate(circ, psi)).max() < KERNEL_TOL
            assert abs(np.linalg.norm(row) - np.linalg.norm(psi)) < KERNEL_TOL


def test_stacked_blocks_with_a_short_last_slice_match_each_row(monkeypatch):
    """Three rows of 14 qubits: the pair view's leading axis is 3 * 2^(13 - hi),
    which the slice length does not divide, so the last slice is shorter."""
    n, quarter = 14, sim._BLOCK >> 2
    uneven = []

    def record(name, args):
        state, m, hi, lo = args
        a, _, b, _, c = sim._pair_view(state, hi, lo).shape
        uneven.append(a % min(a, quarter // (b * c)))

    counts = _count_calls(monkeypatch, ["_kernel_2q"], record)
    rng = np.random.default_rng(109)
    # (1, 0) leaves a last slice of half the rows, (13, 12) one of a single row
    for a, b in [(1, 0), (0, 1), (13, 12), (12, 13)]:
        circ = Circuit(n, tuple(_pair_run(a, b, "cxz", rng)))
        stack = _stack(n, rng, rows=3)
        out = simulate(circ, stack)
        for row, psi in zip(out, stack):
            assert np.abs(row - einsum_simulate(circ, psi)).max() < KERNEL_TOL
    assert counts["_kernel_2q"] == 4 and all(uneven)


def test_block_cases_cover_every_block_shape_and_slicing(monkeypatch):
    """The cases above fuse blocks with cx in both orientations and slice the
    state along each axis of the pair view."""
    quarter = sim._BLOCK >> 2
    slicing, fused_cx_orders = set(), set()

    def record(name, args):
        state, m, hi, lo = args
        a, _, b, _, c = sim._pair_view(state, hi, lo).shape
        slicing.add("lo" if c > quarter else "mid" if b * c > quarter
                    else "rows" if a * b * c > quarter else "one")

    counts = _count_calls(monkeypatch, ["_kernel_2q"], record)
    for n in BLOCK_WIDTHS:
        for circ in _block_cases(n):
            simulate(circ)
            for g, h in zip(circ.gates, circ.gates[2:]):
                if g.kind == h.kind == "cx" and set(g.qubits) == set(h.qubits):
                    fused_cx_orders.add(g.qubits == h.qubits)
    assert slicing >= {"one", "rows", "mid", "lo"}
    assert fused_cx_orders == {True, False}
    assert counts["_kernel_2q"] > 0


def test_stacked_simulate_rejects_a_block_kernel_that_scales_one_row(monkeypatch):
    kernel = sim._kernel_2q

    def scaling_kernel(state, m, hi, lo):
        kernel(state, m, hi, lo)
        state.reshape(-1, state.shape[-1])[-1] *= 1.001

    monkeypatch.setattr(sim, "_kernel_2q", scaling_kernel)
    circ = Circuit(3, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("s", (1,)), Gate("cx", (1, 0)),
                       Gate("sx", (2,))))
    rng = np.random.default_rng(103)
    for initial in (None, _projected(random_state(3, rng), 1), _stack(3, rng)):
        with pytest.raises(SimulationError, match="norm drifted"):
            simulate(circ, initial)


def test_heis19_is_one_block_per_edge(monkeypatch):
    """The lowered 19-qubit Heisenberg circuit: 570 gates, one 4x4 pass per
    coupled pair and at most one 1-qubit pass per qubit."""
    circ = lower_rotations(heisenberg_trotter(
        list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, t=0.2, steps=1))
    counts = _count_calls(monkeypatch, ["_kernel_1q", "_kernel_2q", "_kernel_rot"])
    state = simulate(circ)
    assert len(circ.gates) == 570
    assert counts["_kernel_2q"] <= len(heavy_hex_19_edges()) == 19
    assert counts["_kernel_1q"] <= 19
    assert counts["_kernel_rot"] == 0
    assert abs(np.linalg.norm(state) - 1) < 1e-10


def _ring_layer(qubits: list[int], layer: int, rng: np.random.Generator) -> list[Gate]:
    """rz and sx on every qubit, then cx or cz on alternate edges of the ring."""
    gates = [Gate(kind, (q,), angle=float(rng.uniform(0.1, 1.4)) if kind == "rz" else None)
             for q in qubits for kind in ("rz", "sx")]
    m = len(qubits)
    gates += [Gate("cx" if (layer + i) % 2 == 0 else "cz", (qubits[i], qubits[(i + 1) % m]))
              for i in range(layer % 2, m, 2)]
    return gates


def test_two_block_brickwork_is_one_4x4_pass_per_entangling_gate(monkeypatch):
    """Two 5-qubit ring brickwork blocks joined by two cross gates, the shape
    the reconstruction benchmark cuts: no two cx/cz in a row share a pair, so
    each is one block, and every 1-qubit gate folds into a block except those
    left pending at the end, at most one pass per qubit."""
    rng = np.random.default_rng(113)
    n, a, b = 10, list(range(5)), list(range(5, 10))
    gates = []
    for layer in range(12):
        gates += _ring_layer(a, layer, rng) + _ring_layer(b, layer, rng)
        if layer in (4, 8):
            gates.append(Gate("cz" if layer == 4 else "cx", (a[layer % 5], b[layer % 5])))
    circ = Circuit(n, tuple(gates))
    entangling = sum(g.kind in ("cx", "cz") for g in circ.gates)
    counts = _count_calls(monkeypatch, ["_kernel_1q", "_kernel_2q"])
    psi = random_state(n, rng)
    out = simulate(circ, psi)
    assert counts["_kernel_2q"] == entangling > 60
    assert counts["_kernel_1q"] <= n
    assert np.abs(out - einsum_simulate(circ, psi)).max() < KERNEL_TOL


# --- one state's Pauli expectations ------------------------------------------


@pytest.mark.parametrize("xs, zs", [([0, 1, 2], [1]), ([1], [0, 1]), ([4], [0]), ([0], [4]),
                                     ([-1], [0])])
def test_pauli_expectations_refuses_masks_that_do_not_fit(xs, zs):
    # mask lists of different lengths, and masks wider than the 2-qubit state
    with pytest.raises(SimulationError, match="masks"):
        pauli_expectations(zero_state(2), xs, zs)


def _word_sets(n, rng, count):
    """(xs, zs) of random words, and of words that share their x: all with
    x = 0, all on one nonzero x with Y letters among them, and one word repeated."""
    xs = [int(x) for x in rng.integers(0, 1 << n, size=count)]
    zs = [int(z) for z in rng.integers(0, 1 << n, size=count)]
    x = (1 << n) - 1  # every z overlaps it: a Y letter on each of its set bits
    return [
        (xs, zs),
        ([0] * count, zs),
        ([x] * count, [z | (k & 1) for k, z in enumerate(zs)]),
        ([xs[0]] * count, [zs[0]] * count),
    ]


@pytest.mark.parametrize("n", [1, 5, 10])
def test_one_state_expectations_match_per_word_vdot_and_the_stacked_path(n):
    rng = np.random.default_rng((107, n))
    stack = _stack(n, rng, rows=3)
    for xs, zs in _word_sets(n, rng, 12):
        stacked = pauli_expectations(stack, xs, zs)
        for psi, row in zip(stack, stacked):
            got = pauli_expectations(psi, xs, zs)
            words = [PauliString(n, x, z) for x, z in zip(xs, zs)]
            # the same sums as a loop of apply_pauli and np.vdot, to the last bit
            assert np.array_equal(got, [np.vdot(psi, apply_pauli(psi, w)) for w in words])
            assert np.array_equal(got, row)
            # a stack of one row takes the same path
            one_row = pauli_expectations(psi[None], xs, zs)
            assert one_row.shape == (1, 12) and np.array_equal(one_row[0], got)


def test_expectations_hold_one_word_at_a_time():
    # Each word gathers one state-sized copy, P|psi>, with two int64 index
    # arrays and one int8 sign array; keeping the copy or an index array
    # alive into the next word's would raise the peak by half a state or more.
    # Words that share an x share one gather, which must not outlive them.
    n = 17
    rng = np.random.default_rng(109)
    psi = random_state(n, rng)
    bound = psi.nbytes + (8 + 8 + 1) * psi.size + (64 << 10)
    sim._index_tables(psi.size)  # the cached tables are not a word's
    for xs, zs in _word_sets(n, rng, 5):
        obs = Observable.from_terms(n, [(0.3, PauliString(n, x, z)) for x, z in zip(xs, zs)])
        for run in (lambda: pauli_expectations(psi, xs, zs), lambda: expectation(psi, obs)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound
