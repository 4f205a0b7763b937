"""Fusion autotuner (paper Sec. 7.3, Figure 5).

Searches the per-edge fusion-decision space with simulated annealing.
Two operating modes:

* **hardware-only** ('HW m'): every candidate configuration is compiled
  and run on the (simulated) TPU, under a budget of program evaluations —
  the analogue of "evaluates fusion configurations on real hardware for
  m minutes".
* **cost model + hardware** ('Cost model + HW m'): simulated annealing
  runs against the learned model (cheap, large budget — "on a CPU for an
  hour"), then the most promising distinct configurations are verified on
  hardware in predicted-cost order under a small hardware budget.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.fusion import FusionConfig, ProgramFuser
from ..hlo.graph import Program
from .evaluators import HardwareEvaluator, ProgramCostModel
from .search import genetic_search, random_search, simulated_annealing


@dataclass
class FusionTuningResult:
    """Outcome of tuning one program's fusion configuration.

    Attributes:
        config: best configuration found.
        runtime: its true program runtime (seconds).
        default_runtime: true runtime of the compiler's default fusion.
        hardware_program_evaluations: whole-program hardware runs spent.
        model_evaluations: cost-model program evaluations spent (0 for the
            hardware-only tuner).
    """

    config: FusionConfig
    runtime: float
    default_runtime: float
    hardware_program_evaluations: int
    model_evaluations: int

    @property
    def speedup(self) -> float:
        """Speedup over the compiler's default fusion configuration."""
        return self.default_runtime / max(self.runtime, 1e-30)


def _true_runtime(fuser: ProgramFuser, config: FusionConfig, hardware: HardwareEvaluator) -> float:
    """Noise-free runtime of ``config`` — measured outside the budget."""
    return hardware.simulator.run_program(fuser.fuse(config))


def _neighbor(config: FusionConfig, rng: np.random.Generator) -> FusionConfig:
    """SA proposal: flip 1-3 random edge decisions."""
    return config.mutate(rng, num_flips=int(rng.integers(1, 4)))


def _crossover(a: FusionConfig, b: FusionConfig, rng: np.random.Generator) -> FusionConfig:
    """Uniform crossover: each edge decision drawn from either parent."""
    mask = rng.random(len(a.decisions)) < 0.5
    return FusionConfig(
        tuple(da if m else db for da, db, m in zip(a.decisions, b.decisions, mask))
    )


def hardware_fusion_autotune(
    program: Program,
    hardware: HardwareEvaluator,
    budget: int = 50,
    seed: int = 0,
    start: FusionConfig | None = None,
) -> FusionTuningResult:
    """Hardware-only simulated annealing ('HW m' bars of Fig. 5).

    Args:
        program: program to tune.
        hardware: metered hardware evaluator.
        budget: number of whole-program hardware evaluations allowed.
        seed: SA randomness.
        start: starting configuration; default = compiler heuristic (the
            paper also reports starts from a random configuration).
    """
    # One fuser for every fuse of the search: program-wide views are
    # derived once and a move re-extracts only the groups it changed.
    fuser = ProgramFuser(program.graph, program.name)
    rng = np.random.default_rng(seed)
    default = fuser.default_config()
    initial = start if start is not None else default
    evaluations = 0

    def cost(configs: list[FusionConfig]) -> list[float]:
        nonlocal evaluations
        evaluations += len(configs)
        return [hardware.program_runtime(fuser.fuse(c)) for c in configs]

    result = simulated_annealing([initial], cost, _neighbor, steps=budget - 1, rng=rng)
    default_rt = _true_runtime(fuser, default, hardware)
    best_rt = _true_runtime(fuser, result.best_state, hardware)
    return FusionTuningResult(
        config=result.best_state,
        runtime=best_rt,
        default_runtime=default_rt,
        hardware_program_evaluations=evaluations,
        model_evaluations=0,
    )


def model_fusion_autotune(
    program: Program,
    learned: ProgramCostModel,
    hardware: HardwareEvaluator,
    model_budget: int = 400,
    hardware_budget: int = 5,
    seed: int = 0,
    start: FusionConfig | None = None,
    chains: int = 1,
    strategy: str = "annealing",
) -> FusionTuningResult:
    """Learned-model-guided tuning ('Cost model + HW m' bars of Fig. 5).

    A search strategy explores ``model_budget`` configurations priced by
    the learned model; the distinct configurations are then verified on
    hardware in predicted-cost order, spending ``hardware_budget``
    whole-program runs; the best verified configuration wins.

    ``strategy`` selects the explorer (paper Fig. 1 lists all three):

    * ``"annealing"`` (default) — simulated annealing from the compiler
      default; ``chains > 1`` adds chains started one move away from it,
      stepped in lockstep, every step's proposals priced in one call.
    * ``"genetic"`` — elitist genetic search over edge decisions, each
      generation's offspring priced in one call.
    * ``"random"`` — independent random configurations, priced in one call.

    A one-config population (one annealing chain) is priced by
    :meth:`~ProgramCostModel.program_runtime`, a larger one by
    :meth:`~ProgramCostModel.program_runtimes_batched`, which dedupes
    shared kernels across the population — much higher model-query
    throughput for the same total budget.
    """
    # One fuser for every fuse of the search (model pricing and hardware
    # verification alike): see hardware_fusion_autotune.
    fuser = ProgramFuser(program.graph, program.name)
    rng = np.random.default_rng(seed)
    default = fuser.default_config()
    initial = start if start is not None else default
    model_evals = 0

    def model_cost(configs: list[FusionConfig]):
        nonlocal model_evals
        model_evals += len(configs)
        programs = [fuser.fuse(c) for c in configs]
        if len(programs) == 1:
            return [learned.program_runtime(programs[0])]
        return learned.program_runtimes_batched(programs)

    def sample(r: np.random.Generator) -> FusionConfig:
        return FusionConfig.random(len(initial.decisions), r)

    if strategy == "random" or (strategy == "genetic" and model_budget < 2):
        # A genetic population needs at least two members; below that the
        # budget only buys independent samples anyway.
        search = random_search(sample, model_cost, steps=model_budget, rng=rng)
    elif strategy == "genetic":
        # Spend at most model_budget evaluations: the initial population
        # costs `population`, every later generation `population - elite`.
        population = min(16, max(model_budget, 2))
        elite = max(population // 4, 1)
        generations = max((model_budget - population) // (population - elite), 0)
        search = genetic_search(
            sample, model_cost, _crossover, _neighbor, rng=rng,
            population=population, generations=generations, elite=elite,
        )
    elif strategy != "annealing":
        raise ValueError(f"unknown strategy {strategy!r}")
    else:
        # Never overspend the metered budget: each chain costs one initial
        # evaluation plus one per step, so cap the chain count at the budget
        # and round the remaining budget down to a whole number of steps
        # (with chains > 1 up to chains-1 evaluations of a non-divisible
        # budget go unspent; model_evaluations reports the exact spend).
        n_chains = max(min(chains, model_budget), 1)
        initials = [initial] + [_neighbor(initial, rng) for _ in range(n_chains - 1)]
        steps = max(model_budget // n_chains - 1, 0)
        search = simulated_annealing(initials, model_cost, _neighbor, steps=steps, rng=rng)

    # Rank distinct visited configs by predicted cost; verify top ones on HW.
    seen: dict[tuple[bool, ...], float] = {}
    for config, cost in search.visited:
        key = config.decisions
        if key not in seen or cost < seen[key]:
            seen[key] = cost
    ranked = sorted(seen.items(), key=lambda kv: kv[1])[:hardware_budget]
    hw_evals = 0
    best_config = initial
    best_rt = float("inf")
    for decisions, _ in ranked:
        config = FusionConfig(decisions)
        rt = hardware.program_runtime(fuser.fuse(config))
        hw_evals += 1
        if rt < best_rt:
            best_rt, best_config = rt, config
    default_rt = _true_runtime(fuser, default, hardware)
    # Never return a configuration verified to be worse than the starting
    # point — strategies seeded away from the compiler default ("random",
    # "genetic") can otherwise hand back a regression when the model
    # misranks and the hardware budget is small.
    start_rt = default_rt if start is None else _true_runtime(fuser, start, hardware)
    if start_rt < best_rt:
        best_config, best_rt = initial, start_rt
    return FusionTuningResult(
        config=best_config,
        runtime=_true_runtime(fuser, best_config, hardware),
        default_runtime=default_rt,
        hardware_program_evaluations=hw_evals,
        model_evaluations=model_evals,
    )
