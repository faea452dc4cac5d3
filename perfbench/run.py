"""cutprop benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload heis19 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload recon --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Each run drives ``cutprop.cli.main`` in this process, one pass at a time
over the workload's command list, and checks every report. ``--trace 0``
prints the end-to-end metrics, with times scaled to a reference machine
speed by ``speed.Clock``; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics and the tracing overhead, in
unscaled seconds. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
report is wrong, and 2 when the benchmark cannot run at all.

``--smoke`` runs every workload at a reduced size as the benchmark's own
self-check; its numbers are not measurements.

The program runs single-threaded: BLAS is pinned to one thread before
numpy loads, and the set-up probes run one after another.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Nominal seconds per pass. A run makes --seconds // nominal passes, at
# least one, so the amount of work in a run, and the number of samples, do
# not depend on how fast the code under test is.
NOMINAL_PASS_S = {"heis19": 40, "recon": 15, "absorb": 10}
SETUP_SAMPLES = 5
ORACLE_TOL = 1e-9


def units(section: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad arguments)."""


class WrongOutput(RuntimeError):
    """The warm-up command failed, so no pass is worth timing."""


# --- set-up -------------------------------------------------------------------


def import_cutprop():
    """Import cutprop from this checkout's sources, never from elsewhere."""
    if not (SRC / "cutprop" / "__init__.py").is_file():
        raise BenchError(f"no cutprop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("cutprop.cli")
    if Path(cli.__file__).resolve().parent != SRC / "cutprop":
        raise BenchError(f"cutprop was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Import, generate and write the inputs, run the warm-up command."""
    cli = import_cutprop()
    import inputs

    workdir.mkdir(parents=True, exist_ok=True)
    generators = inputs.SMOKE_WORKLOADS if smoke else inputs.WORKLOADS
    commands = generators[workload](seed, workdir)
    warm = inputs.warmup_command(workdir)
    outcome = call(cli.main, warm.argv)
    problem = check(warm, outcome)
    if problem:
        raise WrongOutput(f"warm-up command failed: {problem}")
    return cli, commands


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Set-up time in a fresh interpreter, where nothing is imported yet."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe took over {exc.timeout} s") from exc
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


# --- running and checking commands --------------------------------------------


def call(main, argv: list[str], clock=None) -> dict:
    """Run one CLI command in this process; capture its report and exit code.

    With a ``speed.Clock`` the command's seconds are scaled to the reference
    speed, and ``unscaled_seconds`` keeps the wall time.
    """
    out, err = io.StringIO(), io.StringIO()
    mark = clock.mark() if clock is not None else time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising command counts as failed, the run goes on
        code = None
        err.write(traceback.format_exc())
    if clock is not None:
        seconds, unscaled = clock.seconds(mark)
    else:
        seconds = unscaled = time.perf_counter() - mark
    return {"seconds": seconds, "unscaled_seconds": unscaled, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def check(command, outcome: dict) -> str | None:
    """What is wrong with one command's outcome, or None."""
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}: {outcome['stderr'].strip()[-300:]}"
    try:
        results = json.loads(outcome["stdout"])["results"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if command.kind == "bench":
        for row in results["rows"]:
            if row.get("oracle_ok") is not True:
                return f"{row['circuit']}: oracle_ok is {row.get('oracle_ok')}"
            if not row["oracle_abs_delta"] <= ORACLE_TOL:
                return f"{row['circuit']}: oracle_abs_delta {row['oracle_abs_delta']}"
    elif command.kind == "verify":
        if results["within_tolerance"] is not True:
            return "within_tolerance is false"
        if not results["abs_delta"] <= ORACLE_TOL:
            return f"abs_delta {results['abs_delta']}"
        if results["qpd_combinations"] != command.expect_combinations:
            return (f"qpd_combinations {results['qpd_combinations']} != "
                    f"{command.expect_combinations}")
    elif command.kind == "backprop":
        if not results["group_history"]:
            return "no slice absorbed"
    return None


def executions(command, outcome: dict) -> int:
    """Circuit executions the report charges (see README.md)."""
    results = json.loads(outcome["stdout"])["results"]
    if command.kind == "bench":
        return sum(row["obp_num_circuits"] for row in results["rows"])
    if command.kind == "verify":
        return results["subexperiments"]
    return results["group_history"][-1]


def check_backprop_oracle(commands, outcomes) -> dict[int, str]:
    """Dense check of the first pass's backprop reports, by command index."""
    import oracle

    by_circuit: dict[str, list[int]] = {}
    for i, command in enumerate(commands):
        if command.kind == "backprop" and check(command, outcomes[i]) is None:
            by_circuit.setdefault(command.circuit_path, []).append(i)
    problems = {}
    for circuit_path, indices in by_circuit.items():
        cases = [(Path(commands[i].observable_path).read_text(),
                  json.loads(outcomes[i]["stdout"])) for i in indices]
        deltas = oracle.backprop_deltas(Path(circuit_path).read_text(), cases)
        for i, delta in zip(indices, deltas):
            if not delta <= ORACLE_TOL:
                problems[i] = f"dense check off by {delta}"
    return problems


def run_passes(main, commands, passes: int, clock=None, before_command=None):
    """(seconds of each pass, outcomes of each pass); a pass's time is its commands'."""
    walls, outcomes = [], []
    for _ in range(passes):
        this_pass = []
        for command in commands:
            if before_command is not None:
                before_command()
            this_pass.append(call(main, command.argv, clock))
        walls.append(sum(o["seconds"] for o in this_pass))
        outcomes.append(this_pass)
    return walls, outcomes


def judge(commands, passes_outcomes) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, executions per pass, problems) over all passes.

    Every pass must reproduce the first pass's reports byte for byte, and
    backprop reports get a dense check on top of the report's own fields.
    """
    first = passes_outcomes[0]
    dense = check_backprop_oracle(commands, first)
    attempted = failed = 0
    problems = []
    for p, outcomes in enumerate(passes_outcomes):
        for i, (command, outcome) in enumerate(zip(commands, outcomes)):
            attempted += 1
            problem = check(command, outcome) or dense.get(i)
            if problem is None and outcome["stdout"] != first[i]["stdout"]:
                problem = "report differs from the first pass"
            if problem is not None:
                failed += 1
                problems.append(f"pass {p} {command.label}: {problem}")
    execs = 0
    if not any(check(c, o) for c, o in zip(commands, first)):
        execs = sum(executions(c, o) for c, o in zip(commands, first))
    return attempted, failed, execs, problems


# --- metrics ------------------------------------------------------------------


def tail(samples: list[float]) -> float:
    """Highest order statistic with ten samples above it.

    With ten samples or fewer no percentile has ten samples beyond it, and
    the slowest command is reported instead.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def pass_count(workload: str, seconds: int, smoke: bool) -> int:
    if smoke:
        return 1
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def measure(workload: str, seed: int, seconds: int, traced: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object and prints the metrics."""
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    passes = pass_count(workload, seconds, smoke)
    try:
        if traced:
            cli, commands = setup(workload, seed, workdir, smoke)
            return measure_traced(workload, seed, cli, commands, passes, smoke)
        with speed.Clock() as clock:
            mark = clock.mark()
            cli, commands = setup(workload, seed, workdir, smoke)
            samples = [clock.seconds(mark)[0]]
            samples += [probe_setup(workload, seed, smoke) for _ in range(SETUP_SAMPLES - 1)]
            walls, outcomes = run_passes(cli.main, commands, passes, clock)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted, failed, execs, problems = judge(commands, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    flat = [o for pass_outcomes in outcomes for o in pass_outcomes]
    command_s = [o["seconds"] for o in flat]
    scaled, unscaled = sum(command_s), sum(o["unscaled_seconds"] for o in flat)
    unscaled_walls = [sum(o["unscaled_seconds"] for o in p) for p in outcomes]
    print(f"{workload} unscaled wall_s {statistics.median(unscaled_walls):.6g} s; "
          f"machine ran at {scaled / unscaled:.3f} of the reference speed")
    metrics = {
        "wall_s": (statistics.median(walls), len(walls)),
        "command_tail_s": (tail(command_s), len(command_s)),
        "setup_s": (statistics.median(samples), len(samples)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
        "executions": (execs, 1),
    }
    return report(workload, metrics, units("end_to_end"), attempted, failed, problems)


def measure_traced(workload: str, seed: int, cli, commands, passes: int, smoke: bool) -> dict:
    """Alternate untraced and traced passes, so both see the same machine.

    The pass times that give the overhead are scaled, like ``wall_s``; span
    times and the shares are plain wall time.
    """
    from spans import Recorder

    recorder = Recorder()
    main = recorder.span("cli.main", cli.main)
    per_pass, untraced_walls, outcomes = [], [], []
    with speed.Clock() as clock:
        for _ in range(passes):
            walls, plain = run_passes(cli.main, commands, 1, clock)
            untraced_walls += walls
            first_span = len(recorder.spans)
            recorder.install()
            start = time.perf_counter()
            try:
                walls, traced = run_passes(main, commands, 1, clock, recorder.new_command)
            finally:
                recorder.uninstall()
            per_pass.append(recorder.take_pass(first_span, time.perf_counter() - start))
            per_pass[-1]["trace.wall_s"] = walls[0]
            outcomes += plain + traced
    attempted, failed, execs, problems = judge(commands, outcomes)
    WORK.mkdir(exist_ok=True)
    stem = f"trace-{workload}-seed{seed}" + ("-smoke" if smoke else "")
    recorder.dump(WORK / f"{stem}.json", {"workload": workload, "seed": seed, "passes": passes})
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = (statistics.median(p[name] for p in per_pass), len(per_pass))
    untraced = statistics.median(untraced_walls)
    overhead = metrics["trace.wall_s"][0] - untraced
    metrics["trace.untraced_wall_s"] = (untraced, len(untraced_walls))
    metrics["trace.overhead_s"] = (overhead, len(per_pass))
    metrics["trace.overhead_fraction"] = (overhead / untraced, len(per_pass))
    metrics["trace.executions"] = (execs, 1)
    return report(workload, metrics, units("per_layer"), attempted, failed, problems)


def report(workload, metrics, units, attempted, failed, problems) -> dict:
    for problem in problems:
        print(f"FAILED {problem}")
    for name, (value, count) in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]} (n={count})")
    print(f"{workload} failed_fraction {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} commands)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }


# --- smoke mode ---------------------------------------------------------------


def smoke(seed: int) -> None:
    """Every workload at a reduced size: metric names and repeatable counters."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e, want_layer = units("end_to_end"), units("per_layer")
    for w in spec["workloads"]:
        workload = w["name"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            plain = measure(workload, seed, 1, traced=False, smoke=True)
            traced = [measure(workload, seed, 1, traced=True, smoke=True) for _ in range(2)]
        if set(plain["metrics"]) != set(want_e2e):
            raise AssertionError(f"{workload}: end-to-end metrics {sorted(plain['metrics'])}")
        if set(traced[0]["metrics"]) != set(want_layer):
            raise AssertionError(f"{workload}: per-layer metrics {sorted(traced[0]['metrics'])}")
        for name, unit in want_e2e.items():
            if f"{workload} {name} {plain['metrics'][name]['value']:.6g} {unit} " \
                    not in printed.getvalue():
                raise AssertionError(f"{workload}: {name} [{unit}] not printed")
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        if counts[0] != counts[1]:
            diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
            raise AssertionError(f"{workload}: traced counters differ: {sorted(diff)}")
        if not (plain["correct"] and all(t["correct"] for t in traced)):
            raise AssertionError(f"{workload}: a smoke run reported wrong outputs")
        print(f"smoke {workload}: ok ({len(counts[0])} counters repeat exactly)")
    print(json.dumps({"smoke": "ok"}))


# --- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("heis19", "recon", "absorb"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check at a reduced size; prints no measurements")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workdir = WORK / f"probe-pid{os.getpid()}"
            try:
                with speed.Clock() as clock:
                    mark = clock.mark()
                    setup(args.workload, args.seed, workdir, args.smoke)
                    seconds, _ = clock.seconds(mark)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(repr(seconds))
            return 0
        if args.smoke:
            smoke(args.seed)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WrongOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
