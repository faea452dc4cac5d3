"""The committed report corpus: 40 CLI commands and their expected reports.

``write_inputs`` writes every input file into the working directory and
returns one (name, argv) pair per command, with every path relative, so
a report's ``flags`` do not depend on where it ran. The commands are the
benchmark's ``recon`` verifies at seeds 0 and 1 and its two ``absorb``
backprops (inputs from ``perfbench/inputs.py``); three more backprops of
the ``absorb`` circuit at ``--qwc-max 40``: ``zz-edges`` sliced per gate
and per layer, and ``z6`` with ``--trunc-eps 1e-3``, which drops terms;
``bench --large`` for every suite at seeds 0, 1, 2 and 15; and a 4-qubit
circuit with a cz cut, a cx cut and a wire cut under ``verify --plan
--shots 200``, plain ``verify``, ``verify --qwc-max 2``, ``verify
--qwc-max 3 --trunc-eps 1e-3``, ``cut --max-qubits 2 --per-subcircuit``
and ``optimize``; the lowered heis19 circuit (Z on its first 6 qubits, as
the CI step writes it) under ``cut --max-qubits 10``, a bounded annealed
search, and ``--max-qubits 5``, where most passes hold more than twice the
bound; and ``cut --bipartition`` of a dense 16-qubit random circuit that
no single cut splits, an unbounded annealed search. ``reports/<name>.json``
holds each report as the CLI wrote it.

``tests/test_corpus.py`` reruns the commands and compares each report as
parsed JSON (``mismatches``): strings, integers and booleans exactly, and
floats, with the coefficients inside ``evolved_observable``, to a few ulp.

Run as a script from the repository root, it reruns every command and
prints each field that moved; with ``--write`` it rewrites the expected
files. A change that moves a report runs it and names each changed field::

    PYTHONPATH=src python tests/corpus.py [--write]

As a script it pins BLAS to one thread before numpy loads, as
``perfbench/run.py`` does: the dense oracle's last bits follow the thread
count, so the reports are written, and compare byte for byte, under that
setting.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from cutprop import cli
from cutprop.circuits import emit_qasm, lower_rotations
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    first_k_z_observable,
    heavy_hex_19_edges,
    heisenberg_trotter,
    random_circuit,
)
from cutprop.paulis import format_observable
from oracles import perfbench_inputs

REPORTS = Path(__file__).resolve().parent / "reports"

# Two floats agree when they differ by at most this many ulp of the larger,
# counted at a magnitude of at least 1: a small float here (an abs_delta, an
# evolved coefficient) is a difference or product of order-one values.
ULPS = 16

_W4_QASM = "\n".join([
    "OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[4];",
    "h q[0];", "h q[1];", "cx q[0],q[1];", "rz(0.3) q[1];", "cz q[1],q[2];",
    "cx q[0],q[3];", "h q[2];", "cx q[2],q[3];", "cx q[1],q[2];", "rz(0.7) q[2];",
    "cx q[2],q[3];", "h q[0];", "",
])
_W4_OBS = "0.5 ZIIZ\n0.5 IXXI\n"
# Gates 4 (cz) and 5 (cx) cross the parts, and qubit 1 moves to part 1 at gate 8.
_W4_PLAN = {"gate_cuts": [4, 5], "labels": [0, 0, 1, 1], "n": 4, "num_subcircuits": 2,
            "wire_cuts": [[1, 8, 1]]}


def write_inputs() -> list[tuple[str, list[str]]]:
    """Write every input into the working directory; (name, argv) per command."""
    inputs = perfbench_inputs()
    commands = []
    for seed in (0, 1):
        workdir = Path(f"recon{seed}")
        workdir.mkdir()
        for command in inputs.recon_commands(seed, workdir):
            commands.append((f"verify-{command.label}-seed{seed}", command.argv))
    workdir = Path("absorb")
    workdir.mkdir()
    absorb = {}
    for command in inputs.absorb_commands(0, workdir):
        name = f"backprop-{Path(command.observable_path).stem}"
        absorb[name] = command.argv[:3]
        commands.append((name, command.argv))
    zz, z6 = absorb["backprop-absorb-zz-edges"], absorb["backprop-absorb-z6"]
    commands += [
        ("backprop-absorb-zz-edges-per-gate", [*zz, "--qwc-max", "40", "--slice", "per-gate"]),
        ("backprop-absorb-zz-edges-per-layer", [*zz, "--qwc-max", "40", "--slice", "per-layer"]),
        ("backprop-absorb-z6-qwc40-trunc", [*z6, "--qwc-max", "40", "--trunc-eps", "1e-3"]),
    ]
    for suite in ("vqe6", "heis19", "qaoa3", "random"):
        for seed in (0, 1, 2, 15):
            argv = ["bench", "--suite", suite, "--large", "--seed", str(seed)]
            commands.append((f"bench-{suite}-large-seed{seed}", argv))
    Path("w4.qasm").write_text(_W4_QASM)
    Path("w4.obs").write_text(_W4_OBS)
    Path("w4.plan.json").write_text(json.dumps(_W4_PLAN))
    files = ["w4.qasm", "w4.obs"]
    commands += [
        ("verify-w4-plan-shots200", ["verify", *files, "--plan", "w4.plan.json", "--shots", "200"]),
        ("verify-w4", ["verify", *files]),
        ("verify-w4-qwc2", ["verify", *files, "--qwc-max", "2"]),
        ("verify-w4-qwc3-trunc", ["verify", *files, "--qwc-max", "3", "--trunc-eps", "1e-3"]),
        ("cut-w4-max2-per-subcircuit", ["cut", *files, "--max-qubits", "2", "--per-subcircuit"]),
        ("optimize-w4", ["optimize", *files]),
    ]
    # The lowered heis19 circuit, written as the CI step writes it.
    heis19 = heisenberg_trotter(list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H,
                                t=0.2, steps=1)
    Path("h19.qasm").write_text(emit_qasm(lower_rotations(heis19)))
    Path("h19.obs").write_text(format_observable(first_k_z_observable(19, 6)))
    dense = random_circuit(16, 25, np.random.default_rng((404, 16, 2)), p_two_qubit=0.9)
    Path("dense16.qasm").write_text(emit_qasm(lower_rotations(dense)))
    Path("dense16.obs").write_text("1 Z" + "I" * 15 + "\n")
    commands += [
        ("cut-h19-max10", ["cut", "h19.qasm", "h19.obs", "--max-qubits", "10"]),
        ("cut-h19-max5", ["cut", "h19.qasm", "h19.obs", "--max-qubits", "5"]),
        ("cut-dense16-bipartition", ["cut", "dense16.qasm", "dense16.obs", "--bipartition"]),
    ]
    return commands


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and the stdout of one in-process CLI command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _floats_agree(a: float, b: float) -> bool:
    return abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b), 1.0))


def _observable_lines(text: str) -> list[tuple[float, str]] | None:
    try:
        return [(float(c), w) for c, w in (line.split() for line in text.splitlines())]
    except ValueError:
        return None


def mismatches(want, got, path: str = "") -> list[str]:
    """Every field of two parsed reports that differs, one line each."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}.{k}: missing" for k in sorted(want.keys() - got.keys())]
        out += [f"{path}.{k}: unexpected" for k in sorted(got.keys() - want.keys())]
        for k in sorted(want.keys() & got.keys()):
            out += mismatches(want[k], got[k], f"{path}.{k}")
        return out
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [line for i, (a, b) in enumerate(zip(want, got))
                for line in mismatches(a, b, f"{path}[{i}]")]
    if type(want) is float and type(got) is float and _floats_agree(want, got):
        return []
    if path.endswith(".evolved_observable") and isinstance(want, str) and isinstance(got, str):
        a, b = _observable_lines(want), _observable_lines(got)
        if (a is not None and b is not None and len(a) == len(b)
                and all(wa == wb and _floats_agree(ca, cb) for (ca, wa), (cb, wb) in zip(a, b))):
            return []
    if type(want) is type(got) and want == got:
        return []
    shown = [str(v) if len(str(v)) <= 60 else str(v)[:57] + "..." for v in (want, got)]
    return [f"{path}: {shown[0]} -> {shown[1]}"]


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 2
    changed = 0
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for name, command in write_inputs():
            code, text = run(command)
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            path = REPORTS / f"{name}.json"
            old = path.read_text() if path.exists() else None
            if old == text:
                continue
            changed += 1
            fields = ["new report"] if old is None else mismatches(json.loads(old), json.loads(text))
            print(f"{name}: " + ("; ".join(fields) or "bytes differ, every field within "
                                 f"{ULPS} ulp"))
            if write:
                REPORTS.mkdir(exist_ok=True)
                path.write_text(text)
    print(f"{changed} reports differ" + (", rewritten" if write and changed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
