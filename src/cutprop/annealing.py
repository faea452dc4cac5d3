"""Annealed search for the backpropagation group budget.

The objective for an integer budget w is: backpropagate the observable
with max_qwc_groups=w, then count the executions needed to cut whatever
circuit remains (zero if everything was absorbed). Budgets differ only in
where absorption stops, so :class:`ObjectiveEvaluator` derives every
budget's value from a single backpropagation at the largest budget, plus
one memoized cut search per distinct leftover circuit. The annealer keeps two
deliberate quirks of the procedure it implements: neighbors are drawn
around the best-so-far point rather than the accepted point, and the
default temperature schedule divides by the running iteration counter
plus one each step, which decays factorially fast. A conventional
geometric schedule is available behind ``cooling``.
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


@dataclass(frozen=True)
class SAConfig:
    bound_lower: int = 1
    bound_upper: int = 40
    step_size: int = 4
    t0: float = 10.0
    num_iters: int = 20
    restarts: int = 5
    seed: int = 0
    cooling: str = "literal"  # "literal": T <- T/(k+1); "geometric": T <- 0.9*T

    def __post_init__(self):
        if self.bound_lower < 1:
            raise AnnealError("bound_lower must be >= 1")
        if self.bound_lower > self.bound_upper:
            raise AnnealError("bound_lower must not exceed bound_upper")
        if self.num_iters < 1:
            raise AnnealError("num_iters must be >= 1")
        if self.restarts < 1:
            raise AnnealError("restarts must be >= 1")
        if self.seed < 0 or self.step_size < 0:
            raise AnnealError("seed and step_size must be >= 0")
        if self.cooling not in ("literal", "geometric"):
            raise AnnealError(f"unknown cooling schedule {self.cooling!r}")


class ObjectiveEvaluator:
    """The budget objective of one circuit and observable, from one backpropagation.

    The observable after k absorbed slices does not depend on the budget;
    only the stopping slice does. So ``backpropagate`` at the cap ``w_cap``
    settles every budget w <= w_cap at once: w absorbs k slices, where k is
    the index of the first ``group_history`` entry greater than w (all of
    them when none is). The circuit left over ends at the start of the k-th
    absorbed slice, and its observable has ``group_history[k-1]`` groups (the
    input observable's count when k = 0). The value is zero when every slice
    is absorbed. Cut plans are memoized per boundary, so each leftover
    circuit is searched once.
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
        # Looked up at call time, where perfbench/spans.py traces it.
        from .circuits import slice_circuit

        self.circuit = circuit
        self.w_cap = w_cap
        self.cut_seed = cut_seed
        self.result = backpropagate(circuit, obs, w_cap, trunc_budget_per_slice, slicing)
        slices = slice_circuit(circuit, slicing)
        absorbed = slices[len(slices) - self.result.slices_absorbed :]
        canonical = canonicalize(obs)
        # Indexed by k, the number of absorbed slices.
        self._boundaries = [len(circuit.gates), *(sl.start for sl in reversed(absorbed))]
        self._groups = [
            group_qwc(canonical).group_count if canonical.terms else 1,
            *self.result.group_history,
        ]
        self._plans: dict[int, CutPlan] = {}

    def absorbed(self, w: int) -> int:
        """Number of slices that backpropagation with budget w absorbs."""
        history = self.result.group_history
        return next((k for k, groups in enumerate(history) if groups > w), len(history))

    def plan(self, boundary: int) -> CutPlan:
        """The cut plan of the circuit's first ``boundary`` gates (memoized)."""
        if boundary not in self._plans:
            self._plans[boundary] = find_cuts(
                self.circuit.prefix(boundary), force_bipartition=True, seed=self.cut_seed
            )
        return self._plans[boundary]

    def evaluate(self, w: int) -> int:
        """Executions needed after backpropagating with budget w and cutting."""
        if w < 1:
            raise AnnealError("w must be >= 1")
        if w > self.w_cap and not self.result.fully_absorbed:
            raise AnnealError(f"budget {w} exceeds the backpropagation cap {self.w_cap}")
        k = self.absorbed(w)
        if self.result.fully_absorbed and k == self.result.slices_absorbed:
            return 0
        plan = self.plan(self._boundaries[k])
        return total_executions(plan.kg, plan.kw, self._groups[k])

    def __call__(self, w: int) -> int:
        return self.evaluate(w)


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
        if config.cooling == "literal":
            temperature = temperature / (k + 1)
        else:
            temperature = 0.9 * temperature
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
    bp = evaluator.result
    if evaluator.absorbed(par.w_opt) != bp.slices_absorbed:
        bp = backpropagate(circuit, obs, par.w_opt, trunc_budget_per_slice, slicing)
    plan = None if bp.fully_absorbed else evaluator.plan(len(bp.reduced_circuit.gates))
    return OptimizeResult(
        par.w_opt, par.opt_num_circuits, par.opt_num_circuits, par.w_opt,
        vanilla_cost, par.cache, par.runs, vanilla_plan, bp, plan,
    )
