import math
from pathlib import Path

import numpy as np
import pytest

from cutprop.cli import _bench_instances
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

from oracles import circuit_unitary, perfbench_inputs, per_arg_parse_qasm, rotation_matrix


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


@pytest.mark.parametrize("build, message", [
    (lambda: Gate("h", (0, 1)),
     "malformed h gate: Gate(kind='h', qubits=(0, 1), angle=None, axis=None)"),
    (lambda: Gate("rot", (0, 1), 0.5, "X"),
     "malformed rot gate: Gate(kind='rot', qubits=(0, 1), angle=0.5, axis='X')"),
    (lambda: Gate("cx", (1, 1)),
     "repeated qubit in Gate(kind='cx', qubits=(1, 1), angle=None, axis=None)"),
    (lambda: Gate("rz", (-1,), 0.5),
     "negative qubit index in Gate(kind='rz', qubits=(-1,), angle=0.5, axis=None)"),
    (lambda: Gate("foo", (0,)), "unknown gate kind 'foo'"),
    (lambda: Circuit(3, (Gate("rot", (0, 3), 0.25, "XZ"),)),
     "gate Gate(kind='rot', qubits=(0, 3), angle=0.25, axis='XZ') exceeds width 3"),
])
def test_gate_and_circuit_rejections_name_the_gate(build, message):
    with pytest.raises(CircuitError) as info:
        build()
    assert str(info.value) == message


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


def _parsed(parse, text):
    """A parse's gates, angles to the bit, or its error message."""
    try:
        circuit = parse(text)
    except QasmError as exc:
        return str(exc)
    return circuit.n, [(g.kind, g.qubits, None if g.angle is None else g.angle.hex())
                       for g in circuit.gates]


def test_parser_matches_the_per_argument_reference_on_emitted_circuits(tmp_path):
    texts = [emit_qasm(circ) for suite in ("vqe6", "heis19", "qaoa3", "random")
             for seed in (0, 1) for _, circ, _ in _bench_instances(suite, seed)]
    inputs = perfbench_inputs()
    for seed in (0, 1):
        commands = inputs.recon_commands(seed, tmp_path) + inputs.absorb_commands(seed, tmp_path)
        texts += [Path(command.argv[1]).read_text() for command in commands]
    texts.append(Path(inputs.warmup_command(tmp_path).argv[1]).read_text())
    for text in texts:
        assert _parsed(parse_qasm, text) == _parsed(per_arg_parse_qasm, text)


_HEAD = "OPENQASM 2.0;\nqreg q[3];\n"


@pytest.mark.parametrize("body", [
    # several statements a line, comments, and spaces around every token
    "h q[0]; cx q[0],q[1];  rz(0.5) q[2]; // cz q[1],q[2];\n",
    "  cx   q[2] ,  q[0]  ;rz( -pi / 4 )q[1];;\n// rz(1) q[0];\nsx q[1]//;\n",
    "cz q[0],q[1]; barrier q; include \"x\"; h q[2]\n",
    # argument lists of at most two qreg qubits, in range or not; any other
    # argument text has its own error, below
    "cx q[0],q[5];\n", "cx q[3],q[0];\n", "h q[2];\n", "h q[3];\n", "h measure [0];\n",
    "rz( measure ) q[0];\n", "h q [ 1 ] ;\n", "h q[\u0661];\n", "h;\n", "rz(0.5) q[0],q[1];\n",
    "x q[0],q[1];\n",
    *(f"rz({lit}) q[0];\n" for lit in (
        "01", "00", "0_1", "1_0", "0x10", "True", "5.", ".5", "-.5e+3", "-1e400", "1e-400",
        "pi/4", "2*pi/3", "nan", "1j", "01.5", "01e3", " 0.25 ", "- 0.5", "+0.5", "-0.0",
        "1e", "1.5.5", "\u0661.5", "1" * 5000, "1" * 5000 + ".5", "4e-324", "1.7976931348623157e308",
    )),
], ids=lambda body: body[:40])
def test_parser_matches_the_per_argument_reference_statement_by_statement(body):
    assert _parsed(parse_qasm, _HEAD + body) == _parsed(per_arg_parse_qasm, _HEAD + body)


def test_repeated_statements_parse_as_the_reference_and_a_later_error_names_its_line():
    # A repeated statement gives the gate its first occurrence gave; a
    # statement that fails is never reused, so its error names its own line.
    text = _HEAD + "h q[0];\ncx q[0],q[1]; rz(pi/8) q[2];\nh q[0]; rz(pi/8) q[2];\ncx q[0],q[1];\n"
    circuit = parse_qasm(text)
    assert _parsed(parse_qasm, text) == _parsed(per_arg_parse_qasm, text)
    assert [g.kind for g in circuit.gates] == ["h", "cx", "rz", "h", "rz", "cx"]
    for later, message in [("cx q[0],q[3];", "line 8: qubit index 3 outside qreg[3]"),
                           ("qreg q[3];", "line 8: multiple qreg declarations")]:
        bad = text + f"h q[0];\n{later}\nh q[0];\n"
        assert _parsed(parse_qasm, bad) == _parsed(per_arg_parse_qasm, bad) == message


@pytest.mark.parametrize("args", [
    "q[0],,q[1]", "q[0],", ",q[0]", "q[0],q[1],q[2]", "q[0] q[1]", "q[0], r[1]", "r[0]",
    "q[5],r[1]", "q[0]]", "q",
])
def test_argument_text_other_than_one_or_two_qreg_qubits_is_one_error(args):
    with pytest.raises(QasmError) as exc:
        parse_qasm(_HEAD + f"cx {args};\n")
    assert str(exc.value) == f"line 3: bad qubit arguments {args!r}"


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
    assert slices == [range(0, 3)]
    assert all(circ.gates[i].is_clifford() for i in slices[0])


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
    clifford = [all(circ.gates[i].is_clifford() for i in s) for s in slices]
    assert [(s.start, s.stop, c) for s, c in zip(slices, clifford)] == [
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
        covered = [i for s in slices for i in s]
        assert covered == list(range(len(circ.gates)))
