"""Generic search strategies for the autotuner (paper Fig. 1 lists random,
genetic, simulated annealing...; the fusion autotuner offers all three and
anneals by default).

Every strategy prices *populations*: ``cost_fn`` maps a list of states to
their costs in one call, so a learned cost model pays one forward per
population instead of one per candidate (see
:meth:`repro.autotuner.LearnedEvaluator.program_runtimes_batched`).
``cost_fn`` never consumes the rng, so how a strategy groups candidates
into calls does not change which states it visits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Sequence, TypeVar

import numpy as np

S = TypeVar("S")

#: Population scorer: prices a list of states in one call (lower is better).
CostFn = Callable[[list[S]], "Sequence[float] | np.ndarray"]


@dataclass
class SearchResult(Generic[S]):
    """Outcome of a search run.

    Attributes:
        best_state: lowest-cost state visited.
        best_cost: its cost.
        history: (step, cost of current state) trace.
        visited: every (state, cost) pair evaluated, in order — the hybrid
            autotuner re-ranks these for hardware verification.
    """

    best_state: S
    best_cost: float
    history: list[tuple[int, float]] = field(default_factory=list)
    visited: list[tuple[S, float]] = field(default_factory=list)


def _costs(cost_fn: CostFn, states: list[S]) -> list[float]:
    """``cost_fn(states)`` as floats; a cost list of another length raises
    ``ValueError`` (every strategy zips it with ``states``)."""
    costs = [float(c) for c in cost_fn(states)]
    if len(costs) != len(states):
        raise ValueError(f"cost_fn returned {len(costs)} costs for {len(states)} states")
    return costs


def random_search(
    sample: Callable[[np.random.Generator], S],
    cost_fn: CostFn,
    steps: int,
    rng: np.random.Generator,
) -> SearchResult[S]:
    """Independent random sampling: ``steps`` states drawn, then priced in
    one call."""
    states = [sample(rng) for _ in range(steps)]
    result: SearchResult[S] = SearchResult(None, float("inf"))  # type: ignore[arg-type]
    for step, (state, cost) in enumerate(zip(states, _costs(cost_fn, states))):
        result.visited.append((state, cost))
        if cost < result.best_cost:
            result.best_state, result.best_cost = state, cost
            result.history.append((step, cost))
    return result


def simulated_annealing(
    initials: list[S],
    cost_fn: CostFn,
    neighbor_fn: Callable[[S, np.random.Generator], S],
    steps: int,
    rng: np.random.Generator,
    initial_temperature: float = 1.0,
    final_temperature: float = 1e-3,
) -> SearchResult[S]:
    """Simulated annealing with geometric cooling, one chain per initial state.

    A chain cannot batch within itself (each acceptance gates the next
    proposal), so ``len(initials)`` independent chains step in lockstep
    and every step's proposals are priced with **one** ``cost_fn`` call.
    One chain is the classic annealer. Each chain normalizes costs by its
    own initial cost, so temperatures are scale-free.

    Args:
        initials: starting state per chain (the compiler default or a
            random config; diversify extra chains for coverage).
        cost_fn: population scorer.
        neighbor_fn: proposal distribution.
        steps: proposals *per chain* (evaluation budget).
        rng: randomness source (shared; consumed chain by chain per step).
        initial_temperature / final_temperature: cooling endpoints.
    """
    if not initials:
        raise ValueError("simulated_annealing needs at least one chain")
    current = list(initials)
    current_costs = _costs(cost_fn, current)
    scales = [max(abs(c), 1e-30) for c in current_costs]
    best = int(np.argmin(current_costs))
    result: SearchResult[S] = SearchResult(current[best], current_costs[best])
    result.visited.extend(zip(current, current_costs))
    if steps <= 0:
        return result
    alpha = (final_temperature / initial_temperature) ** (1.0 / steps)
    temp = initial_temperature
    for step in range(steps):
        proposals = [neighbor_fn(s, rng) for s in current]
        costs = _costs(cost_fn, proposals)
        result.visited.extend(zip(proposals, costs))
        for i, (candidate, cost) in enumerate(zip(proposals, costs)):
            delta = (cost - current_costs[i]) / scales[i]
            if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-12)):
                current[i], current_costs[i] = candidate, cost
                result.history.append((step, cost))
            if cost < result.best_cost:
                result.best_state, result.best_cost = candidate, cost
        temp *= alpha
    return result


def genetic_search(
    sample: Callable[[np.random.Generator], S],
    cost_fn: CostFn,
    crossover: Callable[[S, S, np.random.Generator], S],
    mutate: Callable[[S, np.random.Generator], S],
    rng: np.random.Generator,
    population: int = 16,
    generations: int = 10,
    elite: int = 4,
) -> SearchResult[S]:
    """Simple elitist genetic algorithm; the initial population and each
    generation's offspring are priced in one call each."""
    seeds = [sample(rng) for _ in range(population)]
    pop = list(zip(seeds, _costs(cost_fn, seeds)))
    result: SearchResult[S] = SearchResult(pop[0][0], pop[0][1])
    result.visited.extend(pop)
    for gen in range(generations):
        pop.sort(key=lambda t: t[1])
        result.history.append((gen, pop[0][1]))
        parents = pop[:elite]
        children = list(parents)
        offspring: list[S] = []
        while len(children) + len(offspring) < population:
            a = parents[rng.integers(0, elite)][0]
            b = parents[rng.integers(0, elite)][0]
            offspring.append(mutate(crossover(a, b, rng), rng))
        scored = list(zip(offspring, _costs(cost_fn, offspring)))
        children.extend(scored)
        result.visited.extend(scored)
        pop = children
    pop.sort(key=lambda t: t[1])
    result.best_state, result.best_cost = pop[0]
    return result
