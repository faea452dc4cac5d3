"""Annealed search for the backpropagation group budget.

The objective for an integer budget w is: backpropagate the observable
with max_qwc_groups=w, then count the executions needed to cut whatever
circuit remains (zero if everything was absorbed). Budgets differ only in
where absorption stops, so :class:`ObjectiveEvaluator` derives every
budget's value from a single backpropagation at the largest budget, plus
one memoized cut search per distinct leftover circuit. The annealer keeps two
deliberate quirks of the procedure it implements: neighbors are drawn
around the best-so-far point rather than the accepted point, and the
temperature schedule divides by the running iteration counter plus one
each step, which decays factorially fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backprop import BackpropResult, backpropagate
from .circuits import Circuit
from .cutting import CutPlan, cost, find_cuts, total_executions
from .paulis import Observable, canonicalize, group_qwc


class AnnealError(ValueError):
    pass


# The most iteration-log entries a search may keep, (num_iters + 1) per
# restart. Each costs about 2 KB while the report is built: at the cap,
# `optimize` on the 3-qubit qaoa3 circuit peaks at 227 MB resident and
# writes a 26 MB report.
MAX_LOG_ENTRIES = 100_000


@dataclass(frozen=True)
class SAConfig:
    bound_lower: int = 1
    bound_upper: int = 40
    step_size: int = 4
    t0: float = 10.0
    num_iters: int = 20
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.bound_lower < 1:
            raise AnnealError("bound_lower must be >= 1")
        if self.bound_lower > self.bound_upper:
            raise AnnealError("bound_lower must not exceed bound_upper")
        if self.num_iters < 1:
            raise AnnealError("num_iters must be >= 1")
        if self.restarts < 1:
            raise AnnealError("restarts must be >= 1")
        if (self.num_iters + 1) * self.restarts > MAX_LOG_ENTRIES:
            raise AnnealError(
                f"(iters + 1) * restarts must be <= {MAX_LOG_ENTRIES}, "
                f"got {(self.num_iters + 1) * self.restarts}"
            )
        if self.seed < 0 or self.step_size < 0:
            raise AnnealError("seed and step_size must be >= 0")


class ObjectiveEvaluator:
    """The budget objective of one circuit and observable, from one backpropagation.

    The observable after k absorbed slices does not depend on the budget;
    only the stopping slice does. So ``backpropagate`` at the cap ``w_cap``
    settles every budget w <= w_cap at once: ``BackpropResult.at_budget(w)``
    is the backpropagation with budget w. Its leftover circuit is cut, and
    its observable has ``group_history[-1]`` groups (the input observable's
    count when nothing was absorbed). The value is zero when every slice is
    absorbed. The cut search reads only the circuit's width and 2-qubit
    gates, and prefixes of one circuit with the same 2-qubit gate count have
    the same 2-qubit gates, so cut plans are memoized per that count: each
    distinct leftover problem is searched once.
    """

    def __init__(
        self,
        circuit: Circuit,
        obs: Observable,
        w_cap: int,  # budgets above this cannot be evaluated (absorption stops there)
        slicing: str = "auto",
        trunc_budget_per_slice: float = 0.0,
        cut_seed: int = 0,
    ):
        self.circuit = circuit
        self.w_cap = w_cap
        self.cut_seed = cut_seed
        self.result = backpropagate(circuit, obs, w_cap, trunc_budget_per_slice, slicing)
        canonical = canonicalize(obs)
        self._input_groups = group_qwc(canonical).group_count if len(canonical) else 1
        self._plans: dict[int, CutPlan] = {}
        # 2-qubit gates among the first b gates, for each prefix length b
        self._two_qubit_counts = [0]
        for g in circuit.gates:
            self._two_qubit_counts.append(self._two_qubit_counts[-1] + (len(g.qubits) >= 2))

    def backprop(self, w: int) -> BackpropResult:
        """The backpropagation with budget w, read off the one at the cap."""
        if w < 1:
            raise AnnealError("w must be >= 1")
        if w > self.w_cap and not self.result.fully_absorbed:
            raise AnnealError(f"budget {w} exceeds the backpropagation cap {self.w_cap}")
        return self.result.at_budget(w)

    def plan(self, boundary: int) -> CutPlan:
        """The cut plan of the circuit's first ``boundary`` gates (memoized)."""
        key = self._two_qubit_counts[boundary]
        if key not in self._plans:
            self._plans[key] = find_cuts(self.circuit.prefix(boundary), seed=self.cut_seed)
        return self._plans[key]

    def __call__(self, w: int) -> int:
        """Executions needed after backpropagating with budget w and cutting."""
        bp = self.backprop(w)
        if bp.fully_absorbed:
            return 0
        plan = self.plan(len(bp.reduced_circuit.gates))
        groups = bp.group_history[-1] if bp.group_history else self._input_groups
        return total_executions(plan.kg, plan.kw, groups)


def accept_move(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis rule: downhill or equal always moves, uphill with exp(-d/T)."""
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    return bool(rng.random() < math.exp(-delta / temperature))


@dataclass
class AnnealResult:
    w_opt: int
    opt_num_circuits: int
    cache: dict[int, int]
    iterations: list[dict] = field(default_factory=list)
    seed: tuple | int = 0


def anneal(
    config: SAConfig,
    objective_fn: Callable[[int], int],
    cache: dict[int, int] | None = None,
    run_index: int = 0,
) -> AnnealResult:
    """One annealing run over integer budgets in [bound_lower, bound_upper].

    Every probed w is clamped to the bounds and the objective is evaluated
    at most once per distinct w thanks to the shared cache.
    """
    cache = {} if cache is None else cache
    rng = np.random.default_rng((config.seed, run_index))

    def evaluate(w: int) -> tuple[int, bool]:
        if w in cache:
            return cache[w], True
        value = objective_fn(w)
        cache[w] = value
        return value, False

    # The initializer draws from the two-element set
    # {bound_lower, bound_upper}, so restarts probe both ends of the range.
    w_opt = int(rng.choice((config.bound_lower, config.bound_upper)))
    opt_num_circuits, _ = evaluate(w_opt)
    w, num_circuits = w_opt, opt_num_circuits
    temperature = config.t0
    log: list[dict] = []
    for k in range(config.num_iters + 1):
        w_new = int(rng.integers(w_opt - config.step_size, w_opt + config.step_size + 1))
        w_new = max(config.bound_lower, min(config.bound_upper, w_new))
        num_new, hit = evaluate(w_new)
        if num_new < opt_num_circuits:
            opt_num_circuits, w_opt = num_new, w_new
        accepted = accept_move(num_new - num_circuits, temperature, rng)
        if accepted:
            w, num_circuits = w_new, num_new
        log.append(
            {
                "iter": k,
                "w": w_new,
                "num_circuits": num_new,
                "accepted": accepted,
                "cache_hit": hit,
                "temperature": temperature,
                "best_w": w_opt,
                "best_num_circuits": opt_num_circuits,
            }
        )
        temperature = temperature / (k + 1)
    return AnnealResult(w_opt, opt_num_circuits, cache, log, (config.seed, run_index))


@dataclass
class ParallelAnnealResult:
    w_opt: int
    opt_num_circuits: int
    cache: dict[int, int]
    runs: list[AnnealResult]


def parallel_anneal(
    config: SAConfig, objective_fn: Callable[[int], int]
) -> ParallelAnnealResult:
    """Restart runs with derived seeds sharing one evaluation cache.

    Runs are executed in a fixed order; because the objective is pure and
    the cache is idempotent, the best (cost, w) pair is independent of any
    interleaving, so this matches a concurrent execution of the same seeds.
    """
    shared: dict[int, int] = {}
    runs = [
        anneal(config, objective_fn, cache=shared, run_index=i)
        for i in range(config.restarts)
    ]
    best = min(runs, key=lambda r: (r.opt_num_circuits, r.w_opt))
    return ParallelAnnealResult(best.w_opt, best.opt_num_circuits, shared, runs)


@dataclass
class OptimizeResult:
    w_opt: int | None  # None when vanilla cutting is at least as good
    chosen_cost: int
    sa_cost: int
    sa_w: int
    vanilla_cost: int
    cache: dict[int, int]
    runs: list[AnnealResult]
    vanilla_plan: CutPlan
    backprop: BackpropResult | None  # the backpropagation at w_opt; None when w_opt is
    plan: CutPlan | None  # the chosen circuit's cut plan, None when fully absorbed

    @property
    def beneficial(self) -> bool:
        """Whether the annealed budget costs no more than vanilla cutting."""
        return self.sa_cost <= self.vanilla_cost

    @property
    def reduction_ratio(self) -> float:
        """The chosen cost over the vanilla cost (0 when vanilla needs none)."""
        return self.chosen_cost / self.vanilla_cost if self.vanilla_cost else 0.0


def optimize_budget(
    circuit: Circuit,
    obs: Observable,
    config: SAConfig,
    slicing: str = "auto",
    trunc_budget_per_slice: float = 0.0,
    cut_seed: int = 0,
) -> OptimizeResult:
    """Annealed budget search with a vanilla-cutting fallback.

    The returned recommendation is never worse than cutting the original
    circuit directly: the vanilla cost enters the final comparison as a
    candidate. The result carries the plans it chose between, so callers
    need no further search.
    """
    evaluator = ObjectiveEvaluator(
        circuit, obs, config.bound_upper, slicing, trunc_budget_per_slice, cut_seed
    )
    par = parallel_anneal(config, evaluator)
    vanilla_plan = evaluator.plan(len(circuit.gates))
    vanilla_cost = cost(vanilla_plan, obs).total_executions
    if par.opt_num_circuits > vanilla_cost:
        return OptimizeResult(
            None, vanilla_cost, par.opt_num_circuits, par.w_opt,
            vanilla_cost, par.cache, par.runs, vanilla_plan, None, vanilla_plan,
        )
    bp = evaluator.backprop(par.w_opt)
    plan = None if bp.fully_absorbed else evaluator.plan(len(bp.reduced_circuit.gates))
    return OptimizeResult(
        par.w_opt, par.opt_num_circuits, par.opt_num_circuits, par.w_opt,
        vanilla_cost, par.cache, par.runs, vanilla_plan, bp, plan,
    )
