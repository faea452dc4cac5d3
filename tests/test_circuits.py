import math

import numpy as np
import pytest

from cutprop.circuits import (
    Circuit,
    CircuitError,
    Gate,
    QasmError,
    emit_qasm,
    lower_rotations,
    parse_qasm,
    slice_circuit,
)

from oracles import circuit_unitary, rotation_matrix


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate("cx", (1, 1))
    with pytest.raises(CircuitError):
        Gate("h", (0, 1))
    with pytest.raises(CircuitError):
        Gate("rz", (0,))  # missing angle
    with pytest.raises(CircuitError):
        Gate("rot", (0, 1), angle=0.5, axis="X")  # axis length mismatch
    with pytest.raises(CircuitError):
        Circuit(2, (Gate("h", (5,)),))


def test_rz_clifford_classification():
    assert Gate("rz", (0,), angle=math.pi / 2).is_clifford()
    assert Gate("rz", (0,), angle=7 * math.pi / 2).is_clifford()
    assert Gate("rz", (0,), angle=3 * math.pi).is_clifford()
    assert Gate("rz", (0,), angle=0.0).is_clifford()
    assert not Gate("rz", (0,), angle=0.3).is_clifford()
    assert not Gate("rz", (0,), angle=math.pi / 2 + 1e-6).is_clifford()
    # rotation gates at quarter turns are Clifford too
    assert Gate("rot", (0, 1), angle=math.pi, axis="XX").is_clifford()
    assert not Gate("rot", (0, 1), angle=0.4, axis="XX").is_clifford()


# --- parsing -----------------------------------------------------------------


def test_parse_basic():
    circ = parse_qasm(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "rz(pi/2) q[0];\ncx q[0],q[1];\nbarrier q;\nsx q[1];\n"
    )
    assert circ.n == 2
    assert circ.gates[0] == Gate("rz", (0,), angle=math.pi / 2)
    assert circ.gates[0].is_clifford()
    assert circ.gates[1] == Gate("cx", (0, 1))
    assert circ.gates[2] == Gate("sx", (1,))


def test_parse_measure_rejected():
    text = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nmeasure q[0] -> c[0];\n"
    with pytest.raises(QasmError, match="measurement unsupported"):
        parse_qasm(text)


def test_parse_unsupported_gate_names_gate_and_line():
    text = "OPENQASM 2.0;\nqreg q[2];\nt q[0];\n"
    with pytest.raises(QasmError, match="'t'") as err:
        parse_qasm(text)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "stmt",
    [
        "h q[5];", "cx q[0];", "rz q[0];", "h r[0];", "creg c[2];", "rz(frob) q[0];",
        # angles that are not finite real numbers
        "rz(2**100000) q[0];", "rz(1e308*10) q[0];", "rz(1e400) q[0];", "rz(1/0) q[0];",
        "rz((0-8)**0.5) q[0];",
    ],
)
def test_parse_malformed(stmt):
    with pytest.raises(QasmError):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{stmt}\n")


def test_parse_angle_expressions():
    circ = parse_qasm(
        "OPENQASM 2.0;\nqreg q[1];\nrz(-pi/4) q[0];\nrz(7*pi/2) q[0];\nrz(0.125) q[0];\n"
    )
    assert circ.gates[0].angle == pytest.approx(-math.pi / 4)
    assert circ.gates[1].angle == pytest.approx(7 * math.pi / 2)
    assert circ.gates[2].angle == 0.125


def test_roundtrip_exact_gate_sequence():
    rng = np.random.default_rng(4)
    gates = [
        Gate("h", (0,)),
        Gate("rz", (1,), angle=float(rng.uniform(-8, 8))),
        Gate("cx", (0, 2)),
        Gate("cz", (1, 2)),
        Gate("sxdg", (2,)),
        Gate("rz", (0,), angle=float(rng.uniform(-8, 8))),
    ]
    circ = Circuit(3, tuple(gates))
    assert parse_qasm(emit_qasm(circ)).gates == circ.gates


def test_emit_lowers_rotations_and_stays_parseable():
    circ = Circuit(3, (Gate("rot", (0, 2), angle=0.77, axis="XY"),))
    text = emit_qasm(circ)
    reparsed = parse_qasm(text)
    assert reparsed.gates == lower_rotations(circ).gates
    # a second emit/parse round is the identity
    assert emit_qasm(reparsed) == text


def test_lowering_is_exact():
    for axis, qubits in [("X", (0,)), ("Y", (2,)), ("ZZ", (0, 1)), ("XYZ", (0, 1, 2))]:
        theta = 1.234
        circ = Circuit(3, (Gate("rot", qubits, angle=theta, axis=axis),))
        letters = ["I"] * 3
        for q, ch in zip(qubits, axis):
            letters[q] = ch
        target = rotation_matrix("".join(letters), theta)
        assert np.allclose(circuit_unitary(lower_rotations(circ)), target, atol=1e-12)


# --- slicing -----------------------------------------------------------------


def test_slice_per_gate():
    circ = Circuit(1, (Gate("h", (0,)), Gate("s", (0,)), Gate("x", (0,))))
    slices = slice_circuit(circ, "per-gate")
    assert [(s.start, s.stop) for s in slices] == [(0, 1), (1, 2), (2, 3)]


def test_slice_per_layer_sequential_gates():
    circ = Circuit(1, (Gate("h", (0,)), Gate("s", (0,)), Gate("x", (0,))))
    assert len(slice_circuit(circ, "per-layer")) == 3


def test_slice_per_layer_disjoint_gates():
    circ = Circuit(3, (Gate("h", (0,)), Gate("s", (1,)), Gate("x", (2,))))
    slices = slice_circuit(circ, "per-layer")
    assert len(slices) == 1
    assert slices[0].all_clifford


def test_slice_empty_circuit():
    assert slice_circuit(Circuit(2, ()), "per-gate") == []
    assert slice_circuit(Circuit(2, ()), "auto") == []


def test_slice_auto_isolates_non_clifford():
    circ = Circuit(
        2,
        (
            Gate("h", (0,)),
            Gate("h", (1,)),
            Gate("rz", (0,), angle=0.3),
            Gate("cx", (0, 1)),
        ),
    )
    slices = slice_circuit(circ, "auto")
    # layer of Cliffords, lone rotation, trailing Clifford
    assert [(s.start, s.stop, s.all_clifford) for s in slices] == [
        (0, 2, True),
        (2, 3, False),
        (3, 4, True),
    ]


def test_slices_partition_order():
    rng = np.random.default_rng(9)
    from cutprop.generators import random_circuit

    circ = random_circuit(4, 25, rng)
    for policy in ("per-gate", "per-layer", "auto"):
        slices = slice_circuit(circ, policy)
        covered = [i for s in slices for i in s.indices()]
        assert covered == list(range(len(circ.gates)))
