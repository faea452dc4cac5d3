"""Batch command-line front end.

Subcommands: backprop, cut, optimize, verify, bench. Reports are JSON
(sorted keys) so identical inputs, flags, and seeds produce byte-identical
output; wall-clock timings are only included behind --timings since they
would break that reproducibility contract.

Exit codes: 0 success, 1 validation or tolerance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .annealing import AnnealError, SAConfig, optimize_budget
from .backprop import BackpropError, backpropagate
from .circuits import Circuit, CircuitError, QasmError, emit_qasm, lower_rotations, parse_qasm
from .cutting import CutError, CutPlan, cost, extract_subcircuits, find_cuts
from .generators import (
    HEISENBERG_H,
    HEISENBERG_J,
    efficient_su2,
    first_k_z_observable,
    heavy_hex_19_edges,
    heisenberg_trotter,
    qaoa_like,
    random_circuit,
    weight_z_observable,
)
from .paulis import Observable, PauliError, canonicalize, format_observable, parse_observable
from .qpd import (
    QpdError,
    cut_and_reconstruct,  # traced by perfbench/spans.py (ROADMAP item 7), no longer called here
    gatecut_terms,
    reconstruct,
    uncut_expectation,
    wirecut_terms,
)
from .sim import SimulationError, sim_limit

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class CliInputError(ValueError):
    pass


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {what} {path}: {exc}") from exc


def _emit_report(report: dict, args: argparse.Namespace) -> None:
    if getattr(args, "timings", False):
        report["timings"] = {"wall_clock_seconds": time.time() - args._started}
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise CliInputError("the report holds a non-finite number; nothing written") from None
    out = getattr(args, "out", None)
    if out:
        _write_text(out, text, "report")
    sys.stdout.write(text)


_NON_SEMANTIC_FLAGS = (
    "func", "command", "out", "csv", "plan_out", "reduced_out", "evolved_out",
    "timings", "_started",
)


def _base_report(command: str, args: argparse.Namespace, **inputs) -> dict:
    # Output destinations are excluded so reports stay byte-identical for
    # identical (inputs, flags, seed) regardless of where they are written.
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in _NON_SEMANTIC_FLAGS and v is not None
    }
    return {
        "tool": {"name": "cutprop", "version": __version__},
        "command": command,
        "inputs": inputs,
        "flags": flags,
    }


def _load_inputs(command: str, args: argparse.Namespace) -> tuple[Circuit, Observable, dict]:
    """The circuit, then the observable, and the report envelope with their hashes."""
    circuit_text = _read_text(args.circuit, "circuit file")
    circuit = parse_qasm(circuit_text)
    obs_text = _read_text(args.observable, "observable file")
    obs = parse_observable(obs_text)
    report = _base_report(command, args, circuit_sha256=_sha256(circuit_text.encode()),
                          observable_sha256=_sha256(obs_text.encode()))
    return circuit, obs, report


def _qpd_term_tables(extraction) -> dict:
    """Coefficient/label tables for every cut kind the plan uses."""
    terms = {kind: gatecut_terms(kind) for kind in set(extraction.gate_cut_infos)}
    if extraction.wire_cut_infos:
        terms["wire"] = wirecut_terms()
    return {kind: [{"coefficient": t.coefficient, "label": t.label} for t in kind_terms]
            for kind, kind_terms in terms.items()}


def _zero_state_expectation(obs: Observable) -> float:
    # <0...0|P|0...0> is 1 for words made of I and Z only, else 0.
    val = 0j
    for coeff in obs.coeffs[~obs.x.any(axis=1)].tolist():
        val += coeff
    return float(val.real)


def _reconstruction(circuit: Circuit, plan: CutPlan | None, obs: Observable,
                    shots: int | None = None, seed: int = 0) -> dict:
    """obs's value after circuit, cut along plan and recombined, as report fields.

    With no plan (every slice was absorbed) the value is <0...0|obs|0...0>.
    """
    if plan is None:
        return {"reconstructed_expectation": _zero_state_expectation(obs),
                "qpd_combinations": 0, "subexperiments": 0, "qpd_terms": {}}
    extraction = extract_subcircuits(circuit, plan, obs)
    rec = reconstruct(extraction, shots=shots, sample_seed=seed)
    fields = {"reconstructed_expectation": rec.exact_value,
              "qpd_combinations": rec.num_combinations, "subexperiments": rec.num_subexperiments,
              "qpd_terms": _qpd_term_tables(extraction)}
    if shots:
        fields["sampled_expectation"] = rec.value
    return fields


# --- backprop ---------------------------------------------------------------


def _cmd_backprop(args: argparse.Namespace) -> int:
    circuit, obs, report = _load_inputs("backprop", args)
    result = backpropagate(circuit, obs, args.qwc_max, args.trunc_eps, args.slice)
    reduced_qasm = emit_qasm(result.reduced_circuit)
    evolved_text = format_observable(result.evolved_obs)
    report["results"] = {
        "fully_absorbed": result.fully_absorbed,
        "slices_absorbed": result.slices_absorbed,
        "group_history": list(result.group_history),
        "truncation_error_accrued": result.truncation_error_accrued,
        "reduced_gate_count": len(result.reduced_circuit.gates),
        "reduced_circuit_qasm": reduced_qasm,
        "evolved_observable": evolved_text,
    }
    if result.fully_absorbed:
        report["results"]["zero_state_expectation"] = _zero_state_expectation(
            result.evolved_obs
        )
    if args.reduced_out:
        _write_text(args.reduced_out, reduced_qasm, "reduced circuit")
    if args.evolved_out:
        _write_text(args.evolved_out, evolved_text, "evolved observable")
    _emit_report(report, args)
    return EXIT_OK


# --- cut --------------------------------------------------------------------


def _cmd_cut(args: argparse.Namespace) -> int:
    circuit, obs, report = _load_inputs("cut", args)
    plan = find_cuts(circuit, max_qubits=args.max_qubits, seed=args.seed)
    report_obj = cost(plan, obs, circuit if args.per_subcircuit else None)
    report["results"] = {"plan": plan.to_dict(), "cost": report_obj.to_dict()}
    if args.plan_out:
        _write_text(args.plan_out, json.dumps(plan.to_dict(), sort_keys=True, indent=2), "plan")
    _emit_report(report, args)
    return EXIT_OK


# --- optimize -----------------------------------------------------------------


def _cmd_optimize(args: argparse.Namespace) -> int:
    circuit, obs, report = _load_inputs("optimize", args)
    config = SAConfig(
        bound_lower=args.bound_lower,
        bound_upper=args.bound_upper,
        step_size=args.step_size,
        t0=args.t0,
        num_iters=args.iters,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = optimize_budget(circuit, obs, config, slicing=args.slice)
    report["results"] = {
        "w_opt": result.w_opt,
        "chosen_num_circuits": result.chosen_cost,
        "sa_best_w": result.sa_w,
        "sa_best_num_circuits": result.sa_cost,
        "vanilla_num_circuits": result.vanilla_cost,
        "reduction_ratio": result.reduction_ratio,
        "beneficial": result.beneficial,
        "eval_cache": {str(k): v for k, v in sorted(result.cache.items())},
        "runs": [
            {"seed": list(r.seed), "iterations": r.iterations} for r in result.runs
        ],
    }
    _emit_report(report, args)
    return EXIT_OK


# --- verify -------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit, obs, report = _load_inputs("verify", args)
    trunc_bound = 0.0
    if args.plan and args.qwc_max is not None:
        raise CliInputError("give either --plan or --qwc-max, not both")
    # The oracle first: a light cone over the simulator cap exits before any search.
    exact = uncut_expectation(circuit, obs)
    if args.plan:
        try:
            plan_data = json.loads(_read_text(args.plan, "plan file"))
        except json.JSONDecodeError as exc:
            raise CliInputError(f"cannot load plan: {exc}") from exc
        plan = CutPlan.from_dict(plan_data)
        work_circuit, work_obs = circuit, canonicalize(obs)
        pipeline = {"mode": "plan"}
    elif args.qwc_max is not None:
        bp = backpropagate(circuit, obs, args.qwc_max, args.trunc_eps, args.slice)
        work_circuit, work_obs = bp.reduced_circuit, bp.evolved_obs
        # Each dropped term is a Pauli word of norm 1, so the dropped mass bounds |delta|.
        trunc_bound = bp.truncation_error_accrued
        pipeline = {
            "mode": "backprop+cut",
            "slices_absorbed": bp.slices_absorbed,
            "fully_absorbed": bp.fully_absorbed,
            "truncation_error_accrued": bp.truncation_error_accrued,
        }
        # Backpropagation that absorbed every slice leaves nothing to cut.
        plan = None if bp.fully_absorbed else find_cuts(work_circuit, seed=args.seed)
    else:
        work_circuit, work_obs = circuit, canonicalize(obs)
        pipeline = {"mode": "cut"}
        plan = find_cuts(work_circuit, seed=args.seed)
    fields = _reconstruction(work_circuit, plan, work_obs, args.shots, args.seed)
    delta = abs(fields["reconstructed_expectation"] - exact)
    ok = delta <= args.tolerance + trunc_bound
    report["results"] = {
        "pipeline": pipeline,
        "plan": None if plan is None else plan.to_dict(),
        "exact_expectation": exact,
        "abs_delta": delta,
        # abs_delta on the observable's scale, its coefficients' 1-norm (at least 1)
        "rel_delta": delta / max(1.0, sum(map(abs, obs.coeffs.tolist()))),
        "tolerance": args.tolerance,
        "truncation_bound": trunc_bound,
        "within_tolerance": ok,
        **fields,
    }
    _emit_report(report, args)
    return EXIT_OK if ok else EXIT_FAIL


# --- bench --------------------------------------------------------------------


def _bench_instances(suite: str, seed: int):
    if suite == "vqe6":
        rng = np.random.default_rng((seed, 101))
        params = [float(a) for a in rng.uniform(-np.pi, np.pi, size=24)]
        yield "vqe6", efficient_su2(6, 1, params), weight_z_observable(6, 1)
    elif suite == "heis19":
        circuit = heisenberg_trotter(
            list(heavy_hex_19_edges()), HEISENBERG_J, HEISENBERG_H, t=0.2, steps=1
        )
        yield "heis19", lower_rotations(circuit), first_k_z_observable(19, 6)
    elif suite == "qaoa3":
        yield "qaoa3", lower_rotations(qaoa_like(3, 2, seed)), weight_z_observable(3, 1)
    elif suite == "random":
        for i, (n, depth) in enumerate(((5, 16), (6, 20), (7, 22))):
            rng = np.random.default_rng((seed, 400 + i))
            circ = lower_rotations(random_circuit(n, depth, rng))
            yield f"random-{n}q", circ, weight_z_observable(n, 1)


def _bench_row(name: str, circuit: Circuit, obs: Observable, seed: int, large: bool) -> dict:
    config = SAConfig(seed=seed)
    result = optimize_budget(circuit, obs, config)
    bp, plan = result.backprop, result.plan
    row = {
        "circuit": name,
        "qubits": circuit.n,
        "gates": len(circuit.gates),
        "vanilla_gate_cuts": result.vanilla_plan.kg,
        "vanilla_wire_cuts": result.vanilla_plan.kw,
        "vanilla_num_circuits": result.vanilla_cost,
        "obp_w_opt": result.w_opt,
        "obp_num_circuits": result.chosen_cost,
        "ratio": result.reduction_ratio,
        "beneficial": result.beneficial,
    }
    if result.w_opt is not None:
        row["obp_slices_absorbed"] = bp.slices_absorbed
        row["obp_gate_cuts"] = plan.kg if plan else 0
        row["obp_wire_cuts"] = plan.kw if plan else 0
    if large and circuit.n <= sim_limit():
        exact = uncut_expectation(circuit, obs)
        fields = _reconstruction(bp.reduced_circuit, plan, bp.evolved_obs)
        delta = abs(fields["reconstructed_expectation"] - exact)
        row["oracle_abs_delta"] = delta
        row["oracle_ok"] = delta < 1e-9
    return row


_CSV_COLUMNS = [
    "circuit", "qubits", "gates",
    "vanilla_gate_cuts", "vanilla_wire_cuts", "vanilla_num_circuits",
    "obp_w_opt", "obp_gate_cuts", "obp_wire_cuts", "obp_num_circuits", "ratio",
]


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = [
        _bench_row(name, circ, obs, args.seed, args.large)
        for name, circ, obs in _bench_instances(args.suite, args.seed)
    ]
    report = _base_report("bench", args, suite=args.suite)
    report["results"] = {"rows": rows}
    if args.csv:
        lines = [",".join(_CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(str(row.get(c, "")) for c in _CSV_COLUMNS))
        _write_text(args.csv, "\n".join(lines) + "\n", "CSV table")
    _emit_report(report, args)
    if any(not r.get("oracle_ok", True) for r in rows):
        return EXIT_FAIL
    return EXIT_OK


# --- argument wiring ----------------------------------------------------------


def _common_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out")
    p.add_argument(
        "--timings",
        action="store_true",
        help="embed wall-clock timings (breaks byte-identical reruns)",
    )


class _Parser(argparse.ArgumentParser):
    """Rejects a command line in one stderr line, exit 2, with no usage text.

    ``add_subparsers`` makes each subparser of this class too.
    """

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutprop",
        description="Cut quantum circuits with observable backpropagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backprop", help="backpropagate an observable through a circuit")
    p.add_argument("circuit")
    p.add_argument("observable")
    p.add_argument("--qwc-max", type=int, required=True)
    p.add_argument("--trunc-eps", type=float, default=0.0)
    p.add_argument("--slice", choices=("auto", "per-gate", "per-layer"), default="auto")
    p.add_argument("--reduced-out")
    p.add_argument("--evolved-out")
    _common_output_flags(p)
    p.set_defaults(func=_cmd_backprop)

    p = sub.add_parser("cut", help="find a cut plan and its execution cost")
    p.add_argument("circuit")
    p.add_argument("observable")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-qubits", type=int)
    group.add_argument("--bipartition", action="store_true")
    p.add_argument("--per-subcircuit", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan-out")
    _common_output_flags(p)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("optimize", help="anneal the backpropagation budget")
    p.add_argument("circuit")
    p.add_argument("observable")
    p.add_argument("--bound-lower", type=int, default=1)
    p.add_argument("--bound-upper", type=int, default=40)
    p.add_argument("--step-size", type=int, default=4)
    p.add_argument("--t0", type=float, default=10.0)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--slice", choices=("auto", "per-gate", "per-layer"), default="auto")
    p.add_argument("--seed", type=int, default=0)
    _common_output_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="check a pipeline against exact simulation")
    p.add_argument("circuit")
    p.add_argument("observable")
    p.add_argument("--plan", help="cut-plan JSON to verify as-is")
    p.add_argument("--qwc-max", type=int)
    p.add_argument("--trunc-eps", type=float, default=0.0)
    p.add_argument("--slice", choices=("auto", "per-gate", "per-layer"), default="auto")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--shots", type=int,
                   help="also report a finite-shot sampled reconstruction (demo)")
    p.add_argument("--seed", type=int, default=0)
    _common_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="vanilla cutting vs annealed backprop+cutting")
    p.add_argument("--suite", choices=("vqe6", "heis19", "qaoa3", "random"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--large", action="store_true",
                   help="also run the dense oracle check on wide circuits")
    p.add_argument("--csv")
    _common_output_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


_INPUT_ERRORS = (
    CliInputError, QasmError, CircuitError, PauliError, CutError,
    BackpropError, QpdError, SimulationError, AnnealError,
)


def _check_numeric_flags(args: argparse.Namespace) -> None:
    """Every number flag must be finite and nonnegative, and every integer flag
    below 2**62; --shots, when given, positive."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float) and not (math.isfinite(value) and value >= 0):
            raise CliInputError(f"{flag} must be a finite number >= 0, got {value}")
        if isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                raise CliInputError(f"{flag} must be >= 0, got {value}")
            # numpy's draws take int64 arguments: below 2**62, the annealer's
            # largest, bound_upper + step_size + 1, still fits in one
            if value >= 2**62:
                raise CliInputError(f"{flag} must be < 2**62, got {value}")
    if getattr(args, "shots", None) is not None and args.shots < 1:
        raise CliInputError("--shots must be >= 1")


_PARSER = build_parser()  # parse_args keeps no state between command lines


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    args._started = time.time()
    try:
        _check_numeric_flags(args)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
