import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutprop import backprop, cli, qpd
from cutprop.circuits import Circuit, Gate, emit_qasm, lower_rotations
from cutprop.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from cutprop.generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    first_k_z_observable,
    heavy_hex_19_edges,
    heisenberg_trotter,
    weight_z_observable,
)
from cutprop.paulis import Observable, format_observable

from oracles import qwc_groups


@pytest.fixture()
def workdir(tmp_path):
    circuit = Circuit(
        3,
        (
            Gate("h", (0,)),
            Gate("cz", (0, 1)),
            Gate("rz", (1,), angle=0.4),
            Gate("cx", (1, 2)),
            Gate("rz", (2,), angle=0.9),
            Gate("sx", (2,)),
        ),
    )
    circ_path = tmp_path / "circ.qasm"
    circ_path.write_text(emit_qasm(circuit))
    obs_path = tmp_path / "obs.txt"
    obs_path.write_text(format_observable(weight_z_observable(3, 1)))
    clifford_path = tmp_path / "clifford.qasm"
    clifford_path.write_text(
        emit_qasm(Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("s", (1,)))))
    )
    obs2_path = tmp_path / "obs2.txt"
    obs2_path.write_text(format_observable(weight_z_observable(2, 1)))
    return tmp_path, str(circ_path), str(obs_path), str(clifford_path), str(obs2_path)


def read_json(path):
    return json.loads(path.read_text())


# --- backprop ----------------------------------------------------------------


def test_backprop_reports_fully_absorbed_clifford(workdir, capsys):
    tmp, _, _, clifford, obs2 = workdir
    out = tmp / "bp.json"
    rc = main(["backprop", clifford, obs2, "--qwc-max", "2", "--out", str(out)])
    assert rc == EXIT_OK
    report = read_json(out)
    assert report["results"]["fully_absorbed"] is True
    assert "zero_state_expectation" in report["results"]


def test_backprop_budget_one_keeps_everything(workdir):
    tmp, circ, obs, _, _ = workdir
    out = tmp / "bp1.json"
    rc = main(["backprop", circ, obs, "--qwc-max", "1", "--slice", "per-gate",
               "--reduced-out", str(tmp / "red.qasm"), "--out", str(out)])
    assert rc == EXIT_OK
    report = read_json(out)
    # the trailing sx and commuting rz are absorbed group-free; the report
    # carries the (possibly reduced) circuit and observable verbatim
    assert report["results"]["group_history"] == [1] * report["results"]["slices_absorbed"]
    assert (tmp / "red.qasm").read_text() == report["results"]["reduced_circuit_qasm"]


def test_backprop_zero_eps_matches_omitted(workdir):
    tmp, circ, obs, _, _ = workdir
    a, b = tmp / "a.json", tmp / "b.json"
    assert main(["backprop", circ, obs, "--qwc-max", "2", "--out", str(a)]) == EXIT_OK
    assert main(["backprop", circ, obs, "--qwc-max", "2", "--trunc-eps", "0.0",
                 "--out", str(b)]) == EXIT_OK
    ra, rb = read_json(a), read_json(b)
    assert ra["results"] == rb["results"]


def test_backprop_parse_error_exit_code(workdir, tmp_path, capsys):
    tmp, _, obs, _, _ = workdir
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\nmeasure q[0];\n")
    rc = main(["backprop", str(bad), obs, "--qwc-max", "1"])
    assert rc == EXIT_INPUT
    assert "measurement" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["backprop", "verify"])
def test_zero_qwc_budget_is_refused_by_backpropagate(workdir, capsys, command):
    tmp, circ, obs, _, _ = workdir
    capsys.readouterr()
    assert main([command, circ, obs, "--qwc-max", "0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: max_qwc_groups must be >= 1\n"


def test_backprop_across_the_64_qubit_limb_edge(tmp_path, monkeypatch):
    # Terms on qubits 0, 63, 64 and 69 put each word's masks in two uint64
    # limbs; the history must match the pair-loop reference colorers.
    n = 70
    gates = []
    for layer in range(3):
        for q in (0, 63, 64, 69):
            gates += [Gate("rz", (q,), angle=0.3 + 0.2 * layer + 0.1 * q / n), Gate("sx", (q,))]
        if layer % 2 == 0:
            gates += [Gate("cx", (63, 64)), Gate("cz", (0, 63)), Gate("cx", (64, 69))]
        else:
            gates += [Gate("cx", (0, 69)), Gate("cz", (63, 69)), Gate("cx", (64, 0))]
    circuit = Circuit(n, tuple(gates))

    def word(letters):
        return "".join(letters.get(q, "I") for q in range(n))

    obs = Observable.from_labels(
        [(0.5, word({0: "Z", 63: "Z"})), (0.25, word({64: "X", 69: "Z"})),
         (0.25, word({63: "Z", 69: "Y"}))]
    )
    circ_path, obs_path, out = tmp_path / "wide.qasm", tmp_path / "wide.txt", tmp_path / "wide.json"
    circ_path.write_text(emit_qasm(circuit))
    obs_path.write_text(format_observable(obs))
    rc = main(["backprop", str(circ_path), str(obs_path), "--qwc-max", "3", "--out", str(out)])
    assert rc == EXIT_OK
    monkeypatch.setattr(backprop, "group_qwc", qwc_groups)
    expected = list(backprop.backpropagate(circuit, obs, 3).group_history)
    assert read_json(out)["results"]["group_history"] == expected == [2, 2, 2, 2, 3, 3]


# --- cut -----------------------------------------------------------------------


def test_cut_emits_plan_and_cost(workdir):
    tmp, circ, obs, _, _ = workdir
    out, plan_out = tmp / "cut.json", tmp / "plan.json"
    rc = main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_out),
               "--out", str(out)])
    assert rc == EXIT_OK
    report = read_json(out)
    plan = read_json(plan_out)
    assert report["results"]["plan"] == plan
    c = report["results"]["cost"]
    assert c["total_executions"] == c["qwc_groups"] * 9 ** c["gate_cuts"] * 16 ** c["wire_cuts"]


@pytest.mark.parametrize("per_subcircuit", [[], ["--per-subcircuit"]])
@pytest.mark.parametrize("label", ["ZZ", "ZZZZZ"])
def test_cut_rejects_an_observable_of_another_width(workdir, capsys, label, per_subcircuit):
    tmp, circ, _, _, _ = workdir
    obs = tmp / f"{label}.txt"
    obs.write_text(f"1.0 {label}\n")
    capsys.readouterr()
    rc = main(["cut", circ, str(obs), "--bipartition", *per_subcircuit])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err == f"error: observable width {len(label)} != plan width 3\n"


def test_cut_per_subcircuit_rows_hold_a_label_and_a_group_count(workdir):
    tmp, circ, obs, _, _ = workdir
    out = tmp / "ps.json"
    assert main(["cut", circ, obs, "--max-qubits", "1", "--per-subcircuit",
                 "--out", str(out)]) == EXIT_OK
    results = read_json(out)["results"]
    rows = results["cost"]["per_subcircuit"]
    assert len(rows) == results["plan"]["num_subcircuits"] == 3
    assert all(row.keys() == {"label", "groups"} for row in rows)


def test_cut_requires_a_constraint(workdir):
    _, circ, obs, _, _ = workdir
    with pytest.raises(SystemExit):
        main(["cut", circ, obs])


# An unknown flag, a bad choice, a missing argument and bad int and float
# values on every subcommand (cut has no choice or float flag, bench no
# float flag). An unknown flag is reported by the top-level parser.
@pytest.mark.parametrize(
    "argv",
    [
        ["backprop", "{circ}", "{obs}", "--qwc-max", "2", "--nope"],
        ["backprop", "{circ}", "{obs}", "--qwc-max", "2", "--slice", "x"],
        ["backprop", "{circ}", "{obs}"],
        ["backprop", "{circ}", "{obs}", "--qwc-max", "x"],
        ["backprop", "{circ}", "{obs}", "--qwc-max", "2", "--trunc-eps", "x"],
        ["cut", "{circ}", "{obs}", "--bipartition", "--nope"],
        ["cut", "{circ}", "{obs}"],
        ["cut", "{circ}", "{obs}", "--bipartition", "--max-qubits", "2"],
        ["cut", "{circ}", "{obs}", "--max-qubits", "x"],
        ["cut", "{circ}", "{obs}", "--bipartition", "--seed", "1.5"],
        ["optimize", "{circ}", "{obs}", "--nope"],
        ["optimize", "{circ}", "{obs}", "--slice", "x"],
        ["optimize", "{circ}"],
        ["optimize", "{circ}", "{obs}", "--iters", "x"],
        ["optimize", "{circ}", "{obs}", "--t0", "x"],
        ["verify", "{circ}", "{obs}", "--nope"],
        ["verify", "{circ}", "{obs}", "--slice", "x"],
        ["verify"],
        ["verify", "{circ}", "{obs}", "--shots", "x"],
        ["verify", "{circ}", "{obs}", "--tolerance", "x"],
        ["bench", "--suite", "qaoa3", "--nope"],
        ["bench", "--suite", "nope"],
        ["bench"],
        ["bench", "--suite", "qaoa3", "--seed", "x"],
        [],
        ["nope"],
    ],
)
def test_argument_rejections_are_one_line(workdir, capsys, argv):
    _, circ, obs, _, _ = workdir
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([arg.format(circ=circ, obs=obs) for arg in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT and out == ""
    assert re.fullmatch(r"cutprop( [a-z]+)?: error: [^\n]+\n", err), err


def test_help_keeps_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: cutprop bench [-h] --suite {vqe6,heis19,qaoa3,random}")


# --- optimize ---------------------------------------------------------------------


def test_optimize_report_and_determinism(workdir):
    tmp, circ, obs, _, _ = workdir
    a, b = tmp / "o1.json", tmp / "o2.json"
    assert main(["optimize", circ, obs, "--seed", "7", "--out", str(a)]) == EXIT_OK
    assert main(["optimize", circ, obs, "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    report = read_json(a)
    res = report["results"]
    assert res["chosen_num_circuits"] <= res["vanilla_num_circuits"]
    assert res["reduction_ratio"] <= 1.0
    assert len(res["runs"]) == 5


# --- verify -----------------------------------------------------------------------


def test_verify_pipeline_within_tolerance(workdir):
    tmp, circ, obs, _, _ = workdir
    out = tmp / "v.json"
    rc = main(["verify", circ, obs, "--qwc-max", "3", "--out", str(out)])
    assert rc == EXIT_OK
    report = read_json(out)
    assert report["results"]["within_tolerance"] is True
    assert report["results"]["abs_delta"] < 1e-9


@pytest.mark.parametrize("n, gates, label", [
    (3, (Gate("h", (0,)), Gate("cx", (0, 1))), "ZZI"),
    # One qubit needs no cut, and no search runs either.
    (1, (Gate("h", (0,)),), "Z"),
])
def test_verify_fully_absorbed_skips_the_cut_search(tmp_path, monkeypatch, n, gates, label):
    import cutprop.cli

    def must_not_search(*args, **kwargs):
        raise AssertionError("find_cuts ran on a fully absorbed circuit")

    monkeypatch.setattr(cutprop.cli, "find_cuts", must_not_search)
    circ_path, obs_path, out = tmp_path / "c.qasm", tmp_path / "o.txt", tmp_path / "v.json"
    circ_path.write_text(emit_qasm(Circuit(n, gates)))
    obs_path.write_text(f"1 {label}\n")
    rc = main(["verify", str(circ_path), str(obs_path), "--qwc-max", "2", "--out", str(out)])
    assert rc == EXIT_OK
    results = read_json(out)["results"]
    assert results["pipeline"]["fully_absorbed"] is True and results["plan"] is None
    assert results["qpd_combinations"] == 0 and results["within_tolerance"] is True


def test_one_qubit_circuit_is_answered_with_the_one_part_plan(tmp_path):
    circ_path, obs_path = tmp_path / "c.qasm", tmp_path / "o.txt"
    circ_path.write_text(emit_qasm(Circuit(1, (Gate("h", (0,)), Gate("rz", (0,), angle=0.3)))))
    obs_path.write_text("0.5 X\n")
    one_part = {"n": 1, "labels": [0], "wire_cuts": [], "gate_cuts": [], "num_subcircuits": 1}
    out = tmp_path / "r.json"
    assert main(["verify", str(circ_path), str(obs_path), "--out", str(out)]) == EXIT_OK
    results = read_json(out)["results"]
    assert results["plan"] == one_part and results["within_tolerance"] is True
    assert results["reconstructed_expectation"] == pytest.approx(0.5 * math.cos(0.3), abs=1e-12)
    assert (results["qpd_combinations"], results["subexperiments"]) == (1, 1)
    rc = main(["cut", str(circ_path), str(obs_path), "--bipartition", "--out", str(out)])
    assert rc == EXIT_OK
    results = read_json(out)["results"]
    assert results["plan"] == one_part and results["cost"]["total_executions"] == 1
    assert main(["optimize", str(circ_path), str(obs_path), "--out", str(out)]) == EXIT_OK
    assert read_json(out)["results"]["vanilla_num_circuits"] == 1


def test_verify_explicit_plan(workdir):
    tmp, circ, obs, _, _ = workdir
    plan_out = tmp / "plan.json"
    main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_out)])
    rc = main(["verify", circ, obs, "--plan", str(plan_out)])
    assert rc == EXIT_OK


def test_verify_shots_walks_each_part_once(workdir, monkeypatch):
    import cutprop.qpd

    tmp, circ, obs, _, _ = workdir
    plan_out, exact_out, shots_out = tmp / "plan.json", tmp / "exact.json", tmp / "shots.json"
    main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_out)])
    assert main(["verify", circ, obs, "--plan", str(plan_out), "--out", str(exact_out)]) == EXIT_OK
    walks = []
    part_table = cutprop.qpd._part_table

    def counting_part_table(*args):
        walks.append(args[0])
        return part_table(*args)

    monkeypatch.setattr(cutprop.qpd, "_part_table", counting_part_table)
    argv = ["verify", circ, obs, "--plan", str(plan_out), "--shots", "300", "--out", str(shots_out)]
    assert main(argv) == EXIT_OK
    exact, sampled = read_json(exact_out)["results"], read_json(shots_out)["results"]
    assert len(walks) == exact["plan"]["num_subcircuits"] == 2
    assert sampled["reconstructed_expectation"] == exact["reconstructed_expectation"]
    assert "sampled_expectation" in sampled and "sampled_expectation" not in exact


def test_verify_corrupted_plan(workdir, capsys):
    tmp, circ, obs, _, _ = workdir
    bad = tmp / "bad_plan.json"
    bad.write_text('{"labels": "wat"}')
    rc = main(["verify", circ, obs, "--plan", str(bad)])
    assert rc == EXIT_INPUT
    assert "plan" in capsys.readouterr().err


def test_verify_truncation_budget(workdir):
    tmp, circ, obs, _, _ = workdir
    out = tmp / "vt.json"
    rc = main(["verify", circ, obs, "--qwc-max", "2", "--trunc-eps", "0.003",
               "--out", str(out)])
    assert rc == EXIT_OK
    report = read_json(out)
    res = report["results"]
    assert res["abs_delta"] <= res["tolerance"] + res["truncation_bound"]


# --- bench ------------------------------------------------------------------------


def test_bench_qaoa3_row(workdir):
    tmp, *_ = workdir
    out, csv = tmp / "bench.json", tmp / "bench.csv"
    rc = main(["bench", "--suite", "qaoa3", "--out", str(out), "--csv", str(csv)])
    assert rc == EXIT_OK
    rows = read_json(out)["results"]["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row["obp_num_circuits"] <= row["vanilla_num_circuits"]
    header, line = csv.read_text().strip().splitlines()
    assert header.startswith("circuit,qubits")
    assert line.startswith("qaoa3,3")


def test_bench_and_optimize_agree_on_beneficial_for_heis19_seed_15(tmp_path):
    """The annealed budget costs 30 executions here and vanilla cutting 16:
    both commands fall back to vanilla and report the backpropagation as not
    beneficial."""
    out = tmp_path / "bench.json"
    assert main(["bench", "--suite", "heis19", "--seed", "15", "--out", str(out)]) == EXIT_OK
    assert read_json(out)["results"]["rows"] == [{
        "beneficial": False, "circuit": "heis19", "gates": 570, "obp_num_circuits": 16,
        "obp_w_opt": None, "qubits": 19, "ratio": 1.0, "vanilla_gate_cuts": 0,
        "vanilla_num_circuits": 16, "vanilla_wire_cuts": 1,
    }]
    circuit = lower_rotations(heisenberg_trotter(
        list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, t=0.2, steps=1))
    circ, obs = tmp_path / "heis19.qasm", tmp_path / "heis19.txt"
    circ.write_text(emit_qasm(circuit))
    obs.write_text(format_observable(first_k_z_observable(19, 6)))
    out = tmp_path / "optimize.json"
    assert main(["optimize", str(circ), str(obs), "--seed", "15", "--out", str(out)]) == EXIT_OK
    res = read_json(out)["results"]
    assert (res["sa_best_num_circuits"], res["vanilla_num_circuits"]) == (30, 16)
    assert res["beneficial"] is False and res["reduction_ratio"] == 1.0
    # Vanilla cutting is the backpropagation that absorbs nothing: --large
    # reconstructs its plan on the whole circuit, against the dense oracle.
    out = tmp_path / "large.json"
    argv = ["bench", "--suite", "heis19", "--seed", "15", "--large", "--out", str(out)]
    assert main(argv) == EXIT_OK
    (row,) = read_json(out)["results"]["rows"]
    assert row["obp_w_opt"] is None and "obp_slices_absorbed" not in row
    assert row["oracle_ok"] is True and row["oracle_abs_delta"] < 1e-9


def test_bench_deterministic(workdir):
    tmp, *_ = workdir
    a, b = tmp / "b1.json", tmp / "b2.json"
    assert main(["bench", "--suite", "random", "--seed", "5", "--out", str(a)]) == EXIT_OK
    assert main(["bench", "--suite", "random", "--seed", "5", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_is_input_error(workdir, capsys):
    _, _, obs, _, _ = workdir
    rc = main(["backprop", "/nonexistent.qasm", obs, "--qwc-max", "1"])
    assert rc == EXIT_INPUT


def _fresh_process(cwd, *argv) -> subprocess.CompletedProcess:
    """``python -m cutprop.cli argv`` in a new process, with this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "cutprop.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_exit_codes(tmp_path):
    # The console script calls the same console_main that `python -m` runs.
    ok = _fresh_process(tmp_path, "bench", "--suite", "qaoa3", "--seed", "0")
    assert ok.returncode == EXIT_OK
    assert json.loads(ok.stdout)["command"] == "bench"
    missing = _fresh_process(tmp_path, "cut", "missing.qasm", "missing.txt", "--bipartition")
    assert missing.returncode == EXIT_INPUT
    assert missing.stderr.startswith("error: ") and missing.stderr.count("\n") == 1


def test_one_parser_serves_a_process_as_a_fresh_one_would(workdir, capsys):
    # The module builds its parser once. A valid command, two command lines
    # the parser rejects, then the valid command again, all in this process:
    # each prints the same stdout and stderr, and exits with the same code,
    # as in a fresh process.
    tmp, circ, obs, _, _ = workdir
    valid = ["cut", circ, obs, "--max-qubits", "2"]
    for argv in (valid, ["optimize", circ, obs, "--max-qubits", "1"], ["cut", circ, obs], valid):
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _fresh_process(tmp, *argv)
        assert (out, err, code) == (fresh.stdout, fresh.stderr, fresh.returncode), argv
        assert err.count("\n") == (code != EXIT_OK), argv


def test_verify_tolerance_failure_exit_code(workdir):
    tmp, circ, obs, _, _ = workdir
    plan_out = tmp / "plan.json"
    main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_out)])
    out = tmp / "vt0.json"
    rc = main(["verify", circ, obs, "--plan", str(plan_out), "--tolerance", "0",
               "--out", str(out)])
    delta = read_json(out)["results"]["abs_delta"]
    assert rc == (EXIT_FAIL if delta > 0 else EXIT_OK)


def test_bench_large_adds_oracle_columns(workdir):
    tmp, *_ = workdir
    out = tmp / "bl.json"
    rc = main(["bench", "--suite", "qaoa3", "--large", "--out", str(out)])
    assert rc == EXIT_OK
    row = read_json(out)["results"]["rows"][0]
    assert row["oracle_ok"] is True
    assert row["oracle_abs_delta"] < 1e-9


def test_timings_flag_adds_wall_clock(workdir):
    tmp, circ, obs, _, _ = workdir
    out = tmp / "t.json"
    assert main(["cut", circ, obs, "--bipartition", "--timings", "--out", str(out)]) == EXIT_OK
    report = read_json(out)
    assert report["timings"]["wall_clock_seconds"] >= 0.0
    assert "timings" not in report["flags"]


def test_reports_conform_to_shipped_schemas(workdir):
    jsonschema = pytest.importorskip("jsonschema")
    docs = Path(__file__).parent.parent / "docs"
    report_schema = json.loads((docs / "report.schema.json").read_text())
    plan_schema = json.loads((docs / "cut-plan.schema.json").read_text())
    tmp, circ, obs, _, _ = workdir
    out, plan_out = tmp / "r.json", tmp / "p.json"
    assert main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_out),
                 "--out", str(out)]) == EXIT_OK
    jsonschema.validate(read_json(out), report_schema)
    jsonschema.validate(read_json(plan_out), plan_schema)
    assert main(["verify", circ, obs, "--qwc-max", "2", "--out", str(out)]) == EXIT_OK
    jsonschema.validate(read_json(out), report_schema)


def test_verify_rejects_plan_plus_qwc_max(workdir):
    tmp, circ, obs, _, _ = workdir
    plan_out = tmp / "plan.json"
    main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_out)])
    rc = main(["verify", circ, obs, "--plan", str(plan_out), "--qwc-max", "2"])
    assert rc == EXIT_INPUT


@pytest.mark.parametrize(
    "circuit_text, obs_text, sim_limit",
    [
        (None, "1.0 ZZZ\nnan XXX\n", None),
        (None, "inf ZZZ\n", None),
        ("OPENQASM 2.0;\nqreg q[3];\nrz(2**100000) q[0];\n", None, None),
        ("OPENQASM 2.0;\nqreg q[3];\nrz(1e308*10) q[0];\n", None, None),
        (None, None, "abc"),
    ],
)
def test_bad_numbers_are_one_line_input_errors(
    workdir, capsys, monkeypatch, circuit_text, obs_text, sim_limit
):
    tmp, circ, obs, _, _ = workdir
    if circuit_text is not None:
        circ = tmp / "bad.qasm"
        circ.write_text(circuit_text)
    if obs_text is not None:
        obs = tmp / "bad.txt"
        obs.write_text(obs_text)
    if sim_limit is not None:
        monkeypatch.setenv("QCUT_SIM_LIMIT", sim_limit)
    capsys.readouterr()
    rc = main(["verify", str(circ), str(obs), "--qwc-max", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1


_QASM = "OPENQASM 2.0;\nqreg q[3];\n"
_PLAN = {"n": 3, "labels": [0, 0, 1], "wire_cuts": [], "gate_cuts": [3], "num_subcircuits": 2}


@pytest.mark.parametrize(
    "circuit_text, plan, sim_limit, message",
    [
        ("qreg q[3];\nh q[0];\n", None, None, "line 1: missing OPENQASM header"),
        ("OPENQASM 2.0;\n", None, None, "line 1: missing qreg declaration"),
        (_QASM + "qreg r[3];\n", None, None, "line 3: multiple qreg declarations"),
        ("OPENQASM 2.0;\nh q[0];\nqreg q[3];\n", None, None,
         "line 2: gate before qreg declaration"),
        (_QASM + "= q[0];\n", None, None, "line 3: malformed statement '= q[0]'"),
        (_QASM + "rz(0.5) q[0],q[1];\n", None, None, "line 3: rz takes exactly one qubit"),
        (_QASM + "h(0.5) q[0];\n", None, None, "line 3: h takes no parameter"),
        (_QASM + "rz(pi+) q[0];\n", None, None, "line 3: malformed angle expression 'pi+'"),
        (_QASM + "rz(abs(1)) q[0];\n", None, None,
         "line 3: unsupported construct in angle 'abs(1)'"),
        (_QASM + "rz('a') q[0];\n", None, None, "line 3: non-numeric constant in angle \"'a'\""),
        (None, {**_PLAN, "n": 4, "labels": [0, 0, 1, 1]}, None, "plan width 4 != circuit width 3"),
        (None, {**_PLAN, "labels": [0, 1]}, None, "label vector length mismatch"),
        (None, {**_PLAN, "wire_cuts": [[5, 2, 1]]}, None, "wire cut on unknown qubit 5"),
        (None, {**_PLAN, "wire_cuts": [[0, 99, 1]]}, None, "wire cut position 99 out of range"),
        (None, {**_PLAN, "labels": [0, 0, 0], "wire_cuts": [[1, 2, 1], [1, 2, 0]]}, None,
         "duplicate wire cut positions on qubit 1"),
        (None, {**_PLAN, "wire_cuts": [[0, 2, 0]]}, None,
         "wire cut on qubit 0 does not change its label"),
        (None, {**_PLAN, "num_subcircuits": 3}, None, "2 labels in use but num_subcircuits=3"),
        (None, "{not json", None, "cannot load plan: Expecting property name enclosed in "
         "double quotes: line 1 column 2 (char 1)"),
        (None, None, "2", "3 qubits exceeds the simulator cap 2"),
        (_QASM + "cx q[0],q[0];\n", None, None,
         "line 3: repeated qubit in Gate(kind='cx', qubits=(0, 0), angle=None, axis=None)"),
        (_QASM + "cx q[0],,q[1];\n", None, None, "line 3: bad qubit arguments 'q[0],,q[1]'"),
        (_QASM + "h q[0],;\n", None, None, "line 3: bad qubit arguments 'q[0],'"),
        (_QASM + "x q[0],q[1],q[2];\n", None, None,
         "line 3: bad qubit arguments 'q[0],q[1],q[2]'"),
    ],
)
def test_rejected_inputs_are_one_line_errors_naming_the_fault(
    workdir, capsys, monkeypatch, circuit_text, plan, sim_limit, message
):
    # The whole line is matched: with a check gone, a later one would
    # often still reject the input in one line, with another message.
    tmp, circ, obs, _, _ = workdir
    argv = ["verify", circ, obs]
    if circuit_text is not None:
        argv[1] = str(tmp / "bad.qasm")
        (tmp / "bad.qasm").write_text(circuit_text)
    if plan is not None:
        (tmp / "bad_plan.json").write_text(plan if isinstance(plan, str) else json.dumps(plan))
        argv += ["--plan", str(tmp / "bad_plan.json")]
    if sim_limit is not None:
        monkeypatch.setenv("QCUT_SIM_LIMIT", sim_limit)
    capsys.readouterr()
    rc = main(argv)
    assert (rc, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")


_OVERFLOW_QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n' \
    "h q[0];\ncx q[0],q[1];\nrz(0.3) q[1];\ncx q[1],q[2];\n"


@pytest.mark.parametrize("command, obs_text", [
    # Written twice, the term merges into an infinite coefficient.
    ("backprop", "1e308 ZZI\n1e308 ZZI\n"),
    # Each coefficient is finite, but the exact expectation would not be.
    ("verify", "1e308 ZZI\n1e308 IZZ\n"),
])
def test_an_overflowing_observable_is_a_one_line_input_error(tmp_path, capsys, command, obs_text):
    # RuntimeWarnings fail the test suite, so none is raised on the way.
    (tmp_path / "c.qasm").write_text(_OVERFLOW_QASM)
    (tmp_path / "o.obs").write_text(obs_text)
    rc = main([command, str(tmp_path / "c.qasm"), str(tmp_path / "o.obs"), "--qwc-max", "2"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        EXIT_INPUT, "", "error: the coefficients' 1-norm overflows to a non-finite number\n")


# h then rz(0.7) on each of two qubits: <XX> = cos(0.7)^2
_SCALED_QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' \
    "h q[0];\nh q[1];\nrz(0.7) q[0];\nrz(0.7) q[1];\n"


def _verify_scaled(tmp_path, coeff, *flags):
    """verify on _SCALED_QASM with the observable ``coeff XX``: exit code and results."""
    (tmp_path / "s.qasm").write_text(_SCALED_QASM)
    (tmp_path / "s.obs").write_text(f"{coeff} XX\n")
    out = tmp_path / "s.json"
    rc = main(["verify", str(tmp_path / "s.qasm"), str(tmp_path / "s.obs"), *flags,
               "--out", str(out)])
    return rc, read_json(out)["results"]


@pytest.mark.parametrize("coeff", ["1e10", "1e20"])
def test_verify_accepts_a_hermitian_observable_of_large_scale(tmp_path, coeff):
    # The imaginary residue grows with the coefficients (about 6e-8 at 1e10),
    # so an absolute bound refused this observable with exit 2. Its exact and
    # reconstructed values agree to the last bits; whether that is within the
    # absolute --tolerance decides the exit code.
    rc, results = _verify_scaled(tmp_path, coeff)
    exact = results["exact_expectation"]
    assert exact == pytest.approx(float(coeff) * math.cos(0.7) ** 2, rel=1e-14)
    assert results["abs_delta"] <= 1e-14 * exact
    assert rc == (EXIT_OK if results["within_tolerance"] else EXIT_FAIL)


def test_verify_of_a_large_scale_observable_keeps_the_absolute_tolerance(tmp_path):
    # The grouped reconstruction misses the 5.8e9 value by a few last bits:
    # above the default --tolerance 1e-9, below 1e-3.
    rc, results = _verify_scaled(tmp_path, "1e10", "--qwc-max", "8")
    assert (rc, results["within_tolerance"]) == (EXIT_FAIL, False)
    assert 1e-9 < results["abs_delta"] < 1e-3
    for flags in ([], ["--qwc-max", "8"]):
        rc, results = _verify_scaled(tmp_path, "1e10", *flags, "--tolerance", "1e-3")
        assert (rc, results["within_tolerance"]) == (EXIT_OK, True)


def test_a_report_with_a_non_finite_number_is_not_written(workdir, capsys, monkeypatch):
    tmp, _, _, clifford, obs2 = workdir
    monkeypatch.setattr("cutprop.cli._zero_state_expectation", lambda obs: math.inf)
    out = tmp / "bp.json"
    rc = main(["backprop", clifford, obs2, "--qwc-max", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        EXIT_INPUT, "", "error: the report holds a non-finite number; nothing written\n")
    assert not out.exists()


def test_bench_searches_each_circuit_once(workdir, monkeypatch):
    import cutprop.annealing
    import cutprop.cli
    from cutprop.cutting import find_cuts

    searched = []

    def counting_find_cuts(circuit, **kwargs):
        searched.append((circuit, kwargs.get("seed", 0)))
        return find_cuts(circuit, **kwargs)

    monkeypatch.setattr(cutprop.annealing, "find_cuts", counting_find_cuts)
    monkeypatch.setattr(cutprop.cli, "find_cuts", counting_find_cuts)
    tmp, *_ = workdir
    out = tmp / "bench.json"
    assert main(["bench", "--suite", "vqe6", "--large", "--out", str(out)]) == EXIT_OK
    assert searched
    assert len(searched) == len(set(searched))


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "{circ}", "{obs}", "--iters", "0"],
        ["optimize", "{circ}", "{obs}", "--restarts", "0"],
        ["optimize", "{circ}", "{obs}", "--bound-lower", "5", "--bound-upper", "2"],
        ["optimize", "{circ}", "{obs}", "--t0", "nan"],
        ["verify", "{circ}", "{obs}", "--qwc-max", "4", "--trunc-eps", "-1"],
        ["verify", "{circ}", "{obs}", "--tolerance", "nan"],
        ["verify", "{circ}", "{obs}", "--tolerance", "inf"],
        ["verify", "{circ}", "{obs}", "--shots", "0"],
        ["backprop", "{circ}", "{obs}", "--qwc-max", "2", "--trunc-eps", "nan"],
        ["verify", "{circ}", "{obs}", "--plan", "{plan_huge_n}"],
        ["verify", "{circ}", "{obs}", "--plan", "{plan_float_label}"],
        ["optimize", "{circ}", "{obs}", "--seed", "-1"],
        ["bench", "--suite", "qaoa3", "--seed", "-1"],
        ["optimize", "{circ}", "{obs}", "--step-size", "-3"],
        ["verify", "{circ}", "{obs}", "--shots", "1000000000000000000000"],
        ["optimize", "{circ}", "{obs}", "--step-size", str(10**20)],
        ["optimize", "{circ}", "{obs}", "--bound-upper", str(10**20)],
        ["optimize", "{circ}", "{obs}", "--seed", str(2**62)],
        # (20000 + 1) * 5 restarts is the first log size over MAX_LOG_ENTRIES.
        ["optimize", "{circ}", "{obs}", "--iters", "20000"],
        ["cut", "{not_utf8}", "{obs}", "--bipartition"],
        ["cut", "{circ}", "{not_utf8}", "--bipartition"],
        ["verify", "{circ}", "{obs}", "--plan", "{not_utf8}"],
        ["bench", "--suite", "qaoa3", "--out", "{missing}/r.json"],
        ["bench", "--suite", "qaoa3", "--csv", "{missing}/r.csv"],
        ["cut", "{circ}", "{obs}", "--bipartition", "--plan-out", "{missing}/plan.json"],
        ["backprop", "{circ}", "{obs}", "--qwc-max", "2", "--reduced-out", "{missing}/r.qasm"],
        ["backprop", "{circ}", "{obs}", "--qwc-max", "2", "--evolved-out", "{missing}/e.txt"],
    ],
)
def test_bad_flags_are_one_line_input_errors(workdir, capsys, argv):
    tmp, circ, obs, _, _ = workdir
    (tmp / "huge_n.json").write_text(json.dumps(_PLAN).replace('"n": 3', '"n": 1e999'))
    (tmp / "float_label.json").write_text(json.dumps({**_PLAN, "labels": [0, 0, 1.7]}))
    (tmp / "not_utf8").write_bytes(b"\xff\xfe")
    paths = {"circ": circ, "obs": obs, "plan_huge_n": str(tmp / "huge_n.json"),
             "plan_float_label": str(tmp / "float_label.json"),
             "not_utf8": str(tmp / "not_utf8"), "missing": str(tmp / "missing")}
    capsys.readouterr()
    rc = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1


def test_integer_flags_just_below_the_cap_run(workdir):
    """The annealer draws below bound_upper + step_size + 1, which at the cap
    is 2**63 - 1, the largest int64."""
    tmp, circ, obs, _, _ = workdir
    big = str(2**62 - 1)
    out = tmp / "big.json"
    argv = ["optimize", circ, obs, "--bound-upper", big, "--step-size", big, "--seed", big,
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert read_json(out)["flags"]["bound_upper"] == 2**62 - 1


def test_oversized_qpd_plan_is_refused_before_simulating(workdir, capsys, monkeypatch):
    # one gate cut and 7 wire cuts on qubit 2: 6 * 8**7 (about 12.6 M) combinations
    tmp, circ, obs, _, _ = workdir

    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated a part of a refused plan")

    monkeypatch.setattr(qpd, "_part_table", must_not_run)
    monkeypatch.setattr(qpd, "_ensure_verified", must_not_run)
    plan = {"n": 3, "labels": [0, 0, 1], "gate_cuts": [3],
            "wire_cuts": [[2, pos, pos % 2] for pos in range(7)], "num_subcircuits": 2}
    path = tmp / "oversized.json"
    path.write_text(json.dumps(plan))
    capsys.readouterr()
    rc = main(["verify", circ, obs, "--plan", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "combinations" in err and err.count("\n") == 1


def _chain_24(tmp):
    """A 24-qubit circuit, h on every qubit, a cx chain and rz on qubit 0, and
    the observables Z on qubit 0 (a cone of 2 qubits), 0.5 X + 0.5 Y there,
    and Z on qubit 23 (a cone of all 24)."""
    gates = [Gate("h", (q,)) for q in range(24)]
    gates += [Gate("cx", (q, q + 1)) for q in range(23)] + [Gate("rz", (0,), angle=0.3)]
    circ = tmp / "chain24.qasm"
    circ.write_text(emit_qasm(Circuit(24, tuple(gates))))
    observables = {}
    for name, text in (("z0", "1 Z" + "I" * 23), ("xy0", f"0.5 X{'I' * 23}\n0.5 Y{'I' * 23}"),
                       ("z23", "1 " + "I" * 23 + "Z")):
        observables[name] = tmp / f"{name}.txt"
        observables[name].write_text(text + "\n")
    return str(circ), {name: str(path) for name, path in observables.items()}


def test_a_width_bounded_plan_of_a_circuit_over_the_cap_verifies(tmp_path, capsys, monkeypatch):
    # The cap applies to what is simulated: the light cone and each part's
    # walked wires, not the 24-qubit circuit.
    monkeypatch.delenv("QCUT_SIM_LIMIT", raising=False)
    circ, observables = _chain_24(tmp_path)
    plan_path, out = tmp_path / "plan.json", tmp_path / "v.json"
    argv = ["cut", circ, observables["z0"], "--max-qubits", "12", "--plan-out", str(plan_path)]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    plan = read_json(plan_path)
    assert read_json(out)["results"]["cost"]["gate_cuts"] == 1
    assert sorted(plan["labels"].count(label) for label in set(plan["labels"])) == [12, 12]
    for name in ("z0", "xy0"):
        assert main(["verify", circ, observables[name], "--plan", str(plan_path),
                     "--out", str(out)]) == EXIT_OK
        results = read_json(out)["results"]
        assert results["within_tolerance"] is True and results["abs_delta"] <= 1e-9, name

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran past the width check")

    # Plain verify searches without a width bound and puts 21 qubits in part
    # 0: refused by name, before any channel check or walk.
    with monkeypatch.context() as patch:
        patch.setattr(qpd, "_ensure_verified", must_not_run)
        patch.setattr(qpd, "_part_table", must_not_run)
        capsys.readouterr()
        assert main(["verify", circ, observables["z0"]]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: part 0: 21 qubits exceeds the simulator cap 20\n"

    # A cone over the cap is refused by the oracle, which runs before any search.
    monkeypatch.setattr(cli, "find_cuts", must_not_run)
    monkeypatch.setattr(cli, "backpropagate", must_not_run)
    for mode in (["--plan", str(plan_path)], [], ["--qwc-max", "2"]):
        capsys.readouterr()
        rc = main(["verify", circ, observables["z23"], *mode])
        assert (rc, capsys.readouterr().err) == (
            EXIT_INPUT, "error: 24 qubits exceeds the simulator cap 20\n"), mode


@pytest.mark.parametrize("mode", [[], ["--qwc-max", "2"], ["--plan"]])
@pytest.mark.parametrize("label", ["ZZ", "ZZZZZ"])
def test_verify_refuses_an_observable_of_another_width(workdir, capsys, mode, label):
    # The oracle runs first, so every mode refuses it with the oracle's line.
    tmp, circ, obs, _, _ = workdir
    if mode == ["--plan"]:
        plan_path = tmp / "plan.json"
        assert main(["cut", circ, obs, "--bipartition", "--plan-out", str(plan_path)]) == EXIT_OK
        mode = ["--plan", str(plan_path)]
    wrong = tmp / f"{label}.txt"
    wrong.write_text(f"1.0 {label}\n")
    capsys.readouterr()
    rc = main(["verify", circ, str(wrong), *mode])
    assert (rc, capsys.readouterr().err) == (
        EXIT_INPUT, f"error: observable width {len(label)} != circuit width 3\n")


# --- property: plan input -------------------------------------------------------

_PROPERTY_CIRCUIT = Circuit(
    3,
    (
        Gate("h", (0,)),
        Gate("cz", (0, 1)),
        Gate("rz", (2,), angle=0.7),
        Gate("sx", (2,)),
        Gate("cx", (1, 2)),
        Gate("h", (0,)),
    ),
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 8), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def _plan_json(draw):
    """A consistent plan for _PROPERTY_CIRCUIT, then maybe one mutation."""
    n = _PROPERTY_CIRCUIT.n
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, len(_PROPERTY_CIRCUIT.gates)),
                  st.integers(0, 2)),
        max_size=3,
    )))
    # Sorted cuts run through each qubit in time order; make each change the label.
    current = list(labels)
    for i, (q, pos, new) in enumerate(cuts):
        if new == current[q]:
            new = (new + 1) % 3
            cuts[i] = (q, pos, new)
        current[q] = new

    def label(q, t):
        found = labels[q]
        for qq, pos, new in cuts:
            if qq == q and pos <= t:
                found = new
        return found

    crossing = [
        t for t, g in enumerate(_PROPERTY_CIRCUIT.gates)
        if len({label(q, t) for q in g.qubits}) > 1
    ]
    plan = {
        "n": n,
        "labels": labels,
        "wire_cuts": [list(c) for c in draw(st.permutations(cuts))],
        "gate_cuts": crossing,
        "num_subcircuits": len(set(labels) | {new for _, _, new in cuts}),
    }
    mutation = draw(st.sampled_from(["none", "drop", "replace", "cut_field"]))
    key = draw(st.sampled_from(sorted(plan)))
    if mutation == "drop":
        del plan[key]
    elif mutation == "replace":
        plan[key] = draw(_JUNK)
    elif mutation == "cut_field" and plan["wire_cuts"]:
        cut = draw(st.sampled_from(plan["wire_cuts"]))
        cut[draw(st.integers(0, 2))] = draw(_JUNK)
    return plan


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plan_property")
    circ, obs = tmp / "circ.qasm", tmp / "obs.txt"
    circ.write_text(emit_qasm(_PROPERTY_CIRCUIT))
    obs.write_text("1.0 XZI\n0.5 ZIZ\n-0.25 YXZ\n")
    return tmp, str(circ), str(obs)


@settings(max_examples=100, deadline=None)
@given(plan=_plan_json())
def test_verify_plan_input_property(property_files, plan):
    # Every plan either reconstructs the exact value (exit 0, finite report)
    # or is rejected as input (exit 2); nothing escapes as an exception.
    tmp, circ, obs = property_files
    plan_path, out = tmp / "plan.json", tmp / "report.json"
    plan_path.write_text(json.dumps(plan))
    out.unlink(missing_ok=True)
    rc = main(["verify", circ, obs, "--plan", str(plan_path), "--out", str(out)])
    assert rc in (EXIT_OK, EXIT_INPUT)
    if rc == EXIT_OK:
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert report["results"]["within_tolerance"] is True


# --- property: circuit and observable text ----------------------------------------

_ANGLES = st.one_of(
    st.floats(-7, 7).map(repr),
    st.sampled_from(("pi/4", "-pi*3/2", "1e-3", "1/0", "1e999", "pi**pi**pi", "nan", "(0-8)**0.5")),
)
_TEXT_JUNK = st.text(alphabet="q[];(),*/.- 0123456789eXYZIpi#\n\té", max_size=4)


@st.composite
def _circuit_and_observable_text(draw):
    """QASM and observable text for a small circuit, then maybe mutated."""
    n = draw(st.integers(1, 4))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(("h", "s", "sdg", "x", "sx", "rz", "cx", "cz")))
        q = draw(st.integers(0, n - 1))
        if name == "rz":
            lines.append(f"rz({draw(_ANGLES)}) q[{q}];")
        elif name in ("cx", "cz") and n > 1:
            p = draw(st.integers(0, n - 1).filter(lambda p: p != q))
            lines.append(f"{name} q[{q}],q[{p}];")
        else:
            lines.append(f"{name} q[{q}];")
    coeffs = st.one_of(
        st.floats(-2, 2).map(repr),
        st.sampled_from(("1", "-0.5", "1e-300", "nan", "inf", "1e999", "0x1", "1,5")),
    )
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(coeffs, words), min_size=1, max_size=4))
    texts = ["\n".join(lines) + "\n", "".join(f"{c} {w}\n" for c, w in terms)]
    for i in draw(st.lists(st.integers(0, 1), max_size=1)):
        text = texts[i]
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 4)))
        texts[i] = text[:start] + draw(_TEXT_JUNK) + text[stop:]
    return texts


def _all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


@settings(max_examples=60, deadline=None)
@given(texts=_circuit_and_observable_text())
def test_circuit_and_observable_text_property(property_files, texts):
    # Every circuit and observable text either runs (exit 0 with a finite
    # report, or 1 for a failed check) or is rejected as input (exit 2);
    # nothing escapes as an exception.
    tmp = property_files[0]
    circ, obs, out = tmp / "fuzz.qasm", tmp / "fuzz.txt", tmp / "fuzz.json"
    circ.write_text(texts[0], encoding="utf-8")
    obs.write_text(texts[1], encoding="utf-8")
    for command in (["backprop", "--qwc-max", "2"], ["cut", "--bipartition"], ["verify"]):
        out.unlink(missing_ok=True)
        rc = main([command[0], str(circ), str(obs), *command[1:], "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_FAIL, EXIT_INPUT)
        if rc == EXIT_OK:
            assert _all_finite(json.loads(out.read_text(), parse_constant=_reject_constant))


# --- property: valid inputs verify ------------------------------------------------

_GATE_KINDS = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "rz", "cx", "cz")


@st.composite
def _valid_circuit_and_observable(draw):
    """A circuit of 2-9 qubits and 1-60 gates, and an observable of 1-4 terms
    with coefficients of order one."""
    n = draw(st.integers(2, 9))
    gates = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(_GATE_KINDS))
        q = draw(st.integers(0, n - 1))
        if kind in ("cx", "cz"):
            p = draw(st.integers(0, n - 1).filter(lambda p: p != q))
            gates.append(Gate(kind, (q, p)))
        elif kind == "rz":
            gates.append(Gate(kind, (q,), angle=draw(st.floats(-4, 4))))
        else:
            gates.append(Gate(kind, (q,)))
    coeffs = st.tuples(st.sampled_from((-1, 1)), st.floats(0.1, 2)).map(lambda t: t[0] * t[1])
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(coeffs, words), min_size=1, max_size=4))
    obs_text = "".join(f"{c!r} {w}\n" for c, w in terms)
    return emit_qasm(Circuit(n, tuple(gates))), obs_text, draw(st.integers(1, 8))


@settings(max_examples=80, deadline=None)
@given(case=_valid_circuit_and_observable())
def test_valid_inputs_verify_within_tolerance_property(property_files, case):
    # Valid inputs of order-one scale verify in each mode: exit 0 and within
    # tolerance, never a failed check.
    qasm, obs_text, k = case
    tmp = property_files[0]
    circ, obs, out = tmp / "valid.qasm", tmp / "valid.txt", tmp / "valid.json"
    circ.write_text(qasm)
    obs.write_text(obs_text)
    for mode in ([], ["--qwc-max", str(k)], ["--qwc-max", "3", "--trunc-eps", "1e-3"]):
        assert main(["verify", str(circ), str(obs), *mode, "--out", str(out)]) == EXIT_OK, mode
        assert read_json(out)["results"]["within_tolerance"] is True, mode
