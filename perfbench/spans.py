"""Span recorder for the traced benchmark run.

The recorder wraps cutprop's functions at the sites where one module
imports them from another (for example ``cutprop.annealing.find_cuts``),
so every call from one layer into another records a span with its name,
start, end and parent. Nothing in cutprop is edited, and ``uninstall``
restores every wrapped name.

Leaf kernels run too often for a span each: the state-vector kernels
(``sim.apply_*``), the Pauli algebra (``paulis.canonicalize``,
``multiply``, ``commutes``) and backprop's per-gate conjugation. They are
aggregated per enclosing span as (count, total time, self time).

A span's self time is its duration minus the time its child spans and
leaves cover. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter

MODULES = ("cli", "annealing", "backprop", "circuits", "cutting", "generators",
           "paulis", "qpd", "sim")

_GENERATORS = ("efficient_su2", "first_k_z_observable", "heavy_hex_19_edges",
               "heisenberg_trotter", "qaoa_like", "random_circuit", "weight_z_observable")

# module imported into -> {name: layer it belongs to}
SPAN_SITES = {
    "cli": {
        "optimize_budget": "annealing", "backpropagate": "backprop",
        "emit_qasm": "circuits", "lower_rotations": "circuits", "parse_qasm": "circuits",
        "cost": "cutting", "extract_subcircuits": "cutting", "find_cuts": "cutting",
        "format_observable": "paulis", "parse_observable": "paulis",
        "cut_and_reconstruct": "qpd", "reconstruct": "qpd", "uncut_expectation": "qpd",
        "gatecut_terms": "qpd", "wirecut_terms": "qpd",
        **{name: "generators" for name in _GENERATORS},
    },
    "annealing": {"backpropagate": "backprop", "cost": "cutting", "find_cuts": "cutting",
                  "group_qwc": "paulis"},
    "backprop": {"slice_circuit": "circuits", "group_qwc": "paulis"},
    "cutting": {"group_qwc": "paulis"},
    "qpd": {"extract_subcircuits": "cutting", "simulate": "sim", "expectation": "sim",
            # cut_and_reconstruct calls reconstruct through qpd's own namespace
            "reconstruct": "qpd"},
    # annealing imports slice_circuit inside a function body
    "circuits": {"slice_circuit": "circuits"},
}

_ALGEBRA = {"canonicalize": "paulis", "multiply": "paulis", "commutes": "paulis"}
_KERNELS = {"apply_gate": "sim", "apply_1q": "sim", "apply_pauli": "sim"}
LEAF_SITES = {
    "cli": {"canonicalize": "paulis"},
    "annealing": {"canonicalize": "paulis"},
    # conjugate_gate and truncate are also imported inside annealing's
    # absorption sweep, which reads them from backprop's namespace.
    "backprop": {**_ALGEBRA, "conjugate_gate": "backprop", "truncate": "backprop"},
    "cutting": {"canonicalize": "paulis"},
    "qpd": {"canonicalize": "paulis", "product_state": "sim", **_KERNELS},
    # simulate and expectation call the kernels through sim's own namespace
    "sim": dict(_KERNELS),
}

SIM_KERNELS = tuple(f"sim.{name}" for name in _KERNELS)
ALGEBRA_LEAVES = tuple(f"paulis.{name}" for name in _ALGEBRA)
AMPLITUDE_BYTES = 32  # one complex128 read and one write per amplitude


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Holds the spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        # Frames are [child seconds, enclosing span, leaf name or None]. The
        # bottom frame stands for code outside every span; no leaf runs there,
        # because every traced command runs inside the root span cli.main.
        self._stack: list[list] = [[0.0, None, None]]
        self._patches: list[tuple[object, str, object]] = []
        self._seen_searches: set = set()
        self._notes = {
            "cutting.find_cuts": self._note_find_cuts,
            "cutting.extract_subcircuits": self._note_extract,
            "annealing.optimize_budget": self._note_optimize,
            "qpd.reconstruct": self._note_reconstruct,
            "paulis.group_qwc": self._note_group_qwc,
            "backprop.backpropagate": self._note_backpropagate,
        }

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        for sites, make in ((SPAN_SITES, self.span), (LEAF_SITES, self._leaf)):
            for module_name, names in sites.items():
                module = importlib.import_module(f"cutprop.{module_name}")
                for attr, layer in names.items():
                    original = getattr(module, attr)
                    self._patches.append((module, attr, original))
                    setattr(module, attr, make(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span named ``name``."""
        stack, spans = self._stack, self.spans
        note = self._notes.get(name)
        signature = inspect.signature(fn) if note is not None else None

        def wrapped(*args, **kwargs):
            parent_frame = stack[-1]
            parent = parent_frame[1]
            record = {"id": len(spans), "name": name,
                      "parent": None if parent is None else parent["id"],
                      "start": 0.0, "end": 0.0, "child_s": 0.0, "leaves": {}}
            spans.append(record)
            frame = [0.0, record, None]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    note(record, bound.arguments, result)
                return result
            finally:
                end = _perf()
                stack.pop()
                parent_frame[0] += end - start
                record["start"], record["end"], record["child_s"] = start, end, frame[0]

        return wrapped

    def _leaf(self, name: str, fn):
        stack, counters = self._stack, self.counters
        kernel = name in SIM_KERNELS
        peak = name == "backprop.conjugate_gate"

        def wrapped(*args, **kwargs):
            parent_frame = stack[-1]
            frame = [0.0, parent_frame[1], name]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                stack.pop()
                parent_frame[0] += dur
                leaves = frame[1]["leaves"]
                agg = leaves.get(name)
                if agg is None:
                    leaves[name] = [1, dur, dur - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]
            if kernel and parent_frame[2] not in SIM_KERNELS:
                counters["sim.amplitude_updates"] += args[0].size
            elif peak:
                counters["backprop.peak_terms"] = max(
                    counters["backprop.peak_terms"], len(result.terms))
            return result

        return wrapped

    # --- counters recorded at the layer boundaries ------------------------

    def new_command(self) -> None:
        """Repeated cut searches are counted within one command."""
        self._seen_searches.clear()

    def _note_find_cuts(self, record, arguments, result) -> None:
        key = tuple(sorted(arguments.items()))
        if key in self._seen_searches:
            self.counters["cutting.find_cuts.repeats"] += 1
        self._seen_searches.add(key)

    def _note_extract(self, record, arguments, result) -> None:
        self.counters["cutting.gate_cuts"] += arguments["plan"].kg
        self.counters["cutting.wire_cuts"] += arguments["plan"].kw

    def _note_optimize(self, record, arguments, result) -> None:
        self.counters["annealing.objective_evals"] += len(result.cache)

    def _note_reconstruct(self, record, arguments, result) -> None:
        self.counters["qpd.combinations"] += result.num_combinations
        self.counters["qpd.subexperiments"] += result.num_subexperiments

    def _note_group_qwc(self, record, arguments, result) -> None:
        terms = len(arguments["obs"].terms)
        self.counters["paulis.group_qwc.terms"] += terms
        self.counters["paulis.group_qwc.pairs"] += terms * (terms - 1) // 2

    def _note_backpropagate(self, record, arguments, result) -> None:
        self.counters["backprop.slices_absorbed"] += result.slices_absorbed

    # --- per-pass summary -------------------------------------------------

    def take_pass(self, first_span: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since ``first_span``.

        Resets the counters for the next pass; spans stay for ``dump``.
        """
        spans = self.spans[first_span:]
        counters = self.counters
        names = {s["id"]: s["name"] for s in spans}
        span_s: defaultdict[str, float] = defaultdict(float)
        span_calls: defaultdict[str, int] = defaultdict(int)
        leaf_s: defaultdict[str, float] = defaultdict(float)
        leaf_calls: defaultdict[str, int] = defaultdict(int)
        leaf_own: defaultdict[str, float] = defaultdict(float)
        self_s = {m: 0.0 for m in MODULES}
        root_s = 0.0
        cut_searches = 0
        for s in spans:
            dur = s["end"] - s["start"]
            span_s[s["name"]] += dur
            span_calls[s["name"]] += 1
            self_s[_layer(s["name"])] += dur - s["child_s"]
            if s["parent"] is None:
                root_s += dur
            elif s["name"] == "cutting.find_cuts" and names[s["parent"]].startswith("annealing."):
                cut_searches += 1
            for name, (count, total, own) in s["leaves"].items():
                leaf_s[name] += total
                leaf_calls[name] += count
                leaf_own[name] += own
                self_s[_layer(name)] += own

        searches = span_calls["cutting.find_cuts"]
        combos = counters["qpd.combinations"]
        m = {
            "cutting.find_cuts.s": span_s["cutting.find_cuts"],
            "cutting.find_cuts.calls": searches,
            "cutting.find_cuts.repeat_fraction":
                counters["cutting.find_cuts.repeats"] / searches if searches else 0.0,
            "cutting.extract_subcircuits.s": span_s["cutting.extract_subcircuits"],
            "cutting.cost.s": span_s["cutting.cost"],
            "cutting.gate_cuts": counters["cutting.gate_cuts"],
            "cutting.wire_cuts": counters["cutting.wire_cuts"],
            "annealing.optimize_budget.s": span_s["annealing.optimize_budget"],
            "annealing.objective_evals": counters["annealing.objective_evals"],
            "annealing.cut_searches": cut_searches,
            "sim.simulate.s": span_s["sim.simulate"],
            "sim.expectation.s": span_s["sim.expectation"],
            "sim.kernel_calls": sum(leaf_calls[n] for n in SIM_KERNELS),
            "sim.kernel_s": sum(leaf_own[n] for n in SIM_KERNELS),
            "sim.amplitude_updates": counters["sim.amplitude_updates"],
            "sim.bytes_moved_computed": counters["sim.amplitude_updates"] * AMPLITUDE_BYTES,
            "qpd.reconstruct.s": span_s["qpd.reconstruct"],
            "qpd.combinations": combos,
            "qpd.subexperiments": counters["qpd.subexperiments"],
            "qpd.s_per_combination": span_s["qpd.reconstruct"] / combos if combos else 0.0,
            "paulis.group_qwc.s": span_s["paulis.group_qwc"],
            "paulis.group_qwc.calls": span_calls["paulis.group_qwc"],
            "paulis.group_qwc.terms": counters["paulis.group_qwc.terms"],
            "paulis.group_qwc.pairs": counters["paulis.group_qwc.pairs"],
            "paulis.algebra.s": sum(leaf_s[n] for n in ALGEBRA_LEAVES),
            "paulis.algebra.calls": sum(leaf_calls[n] for n in ALGEBRA_LEAVES),
            "backprop.backpropagate.s": span_s["backprop.backpropagate"],
            "backprop.calls": span_calls["backprop.backpropagate"],
            "backprop.slices_absorbed": counters["backprop.slices_absorbed"],
            "backprop.peak_terms": counters["backprop.peak_terms"],
            "circuits.parse_qasm.s": span_s["circuits.parse_qasm"],
            "circuits.emit_qasm.s": span_s["circuits.emit_qasm"],
            "circuits.slice_circuit.s": span_s["circuits.slice_circuit"],
        }
        for module in MODULES:
            m[f"{module}.self_s"] = self_s[module]
            m[f"{module}.share"] = self_s[module] / wall_s
        # Shares of the three entry points the workloads are built around,
        # including the kernels they call.
        for name in ("cutting.find_cuts", "qpd.reconstruct", "paulis.group_qwc"):
            m[f"{name}.share"] = span_s[name] / wall_s
        m["trace.spans"] = len(spans)
        m["trace.unattributed_s"] = wall_s - root_s
        counters.clear()
        return m

    def dump(self, path: Path, meta: dict) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n")
