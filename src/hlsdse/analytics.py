"""Multi-objective quality indicators and strategy evaluation.

All objectives are minimized. The module provides dominance tests, Pareto
front extraction, the average distance from reference set (ADRS) indicator,
2-D hypervolume, a resource scalarization, and a budgeted harness that
replays exploration strategies against a fully populated space, using the
stored results as a synthesis oracle.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from .store import Store


class AnalyticsError(Exception):
    pass


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class DesignPoint:
    """Objective vector (all minimized) tagged with its configuration id."""

    values: tuple[float, ...]
    configuration_id: int = -1

    def __post_init__(self):
        for v in self.values:
            # None is SQL's NULL, which SQLite gives where IEEE gives NaN
            if v is None or not 0 <= v < math.inf:
                raise AnalyticsError(
                    f"objective vector must be finite and >= 0: {self.values}"
                )


def _check_dims(points: Sequence[DesignPoint]):
    if not points:
        raise AnalyticsError("empty point set")
    dim = len(points[0].values)
    for p in points:
        if len(p.values) != dim:
            raise AnalyticsError("mixed objective dimensionality")
    return dim


def dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """True iff a is no worse in every objective and strictly better in one."""
    if len(a.values) != len(b.values):
        raise AnalyticsError("dimension mismatch")
    no_worse = all(x <= y for x, y in zip(a.values, b.values))
    strictly = any(x < y for x, y in zip(a.values, b.values))
    return no_worse and strictly


def pareto_front(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated subset, in ascending lexicographic order of the vectors.

    Duplicate objective vectors keep the point with the lowest
    configuration id. Costs O(n log n) for two and three objectives (plus
    list splices in three) and O(n * |front|) for four or more.
    """
    _check_dims(points)
    # dedupe vectors, keeping lowest configuration id
    best: dict[tuple, DesignPoint] = {}
    for p in points:
        cur = best.get(p.values)
        if cur is None or p.configuration_id < cur.configuration_id:
            best[p.values] = p
    unique = sorted(best.values(), key=lambda p: p.values)
    front: list[DesignPoint] = []
    dim = len(unique[0].values)
    if dim == 2:
        # sorted by (x, y): sweep keeping strictly decreasing y
        best_y = math.inf
        for p in unique:
            if p.values[1] < best_y:
                front.append(p)
                best_y = p.values[1]
    elif dim == 3:
        # sorted by (x, y, z), so every point that can dominate p precedes it.
        # The staircase holds the (y, z) of the front so far, y ascending and
        # z strictly descending: the last entry with y' <= y has the least z'
        # among them, and p is dominated iff that z' <= z.
        ys: list[float] = []
        zs: list[float] = []
        for p in unique:
            _, y, z = p.values
            i = bisect_right(ys, y)
            if i and zs[i - 1] <= z:
                continue
            front.append(p)
            # p covers the entries with y' >= y and z' >= z, a run from j on
            j = k = bisect_left(ys, y, 0, i)
            while k < len(zs) and zs[k] >= z:
                k += 1
            ys[j:k] = [y]
            zs[j:k] = [z]
    else:
        # a dominator precedes what it dominates in lexicographic order, and a
        # dominated point is dominated by some non-dominated one, so each point
        # needs testing only against the front kept so far; the vectors are
        # distinct, so q <= p componentwise means q dominates p
        for p in unique:
            v = p.values
            if not any(all(x <= y for x, y in zip(q.values, v)) for q in front):
                front.append(p)
    return front


def adrs(reference: Sequence[DesignPoint], approx: Sequence[DesignPoint]) -> float:
    """Average distance from reference set.

    Mean over the reference front of the smallest max-relative deviation to
    any approximating point; 0 means every reference point is matched or
    improved componentwise. Reference points with a zero component are
    rejected (relative deviation is undefined there).
    """
    dim = _check_dims(list(reference))
    if _check_dims(list(approx)) != dim:
        raise AnalyticsError("dimension mismatch between reference and approximation")
    for g in reference:
        if any(v == 0 for v in g.values):
            raise AnalyticsError(
                "reference point with zero component; rescale objectives first"
            )
    total = 0.0
    for g in reference:
        best = math.inf
        for o in approx:
            worst = 0.0
            for gv, w in zip(g.values, o.values):
                d = (w - gv) / gv
                if d > worst:
                    worst = d
            if worst < best:
                best = worst
        total += best
    return total / len(reference)


def hypervolume_2d(points: Sequence[DesignPoint], ref_point: DesignPoint) -> float:
    """Area dominated by a 2-D point set relative to a reference point.

    Computed as a sort-and-sweep rectangle sum over the non-dominated subset;
    dominated points cannot change the result.
    """
    if len(ref_point.values) != 2:
        raise AnalyticsError("hypervolume_2d requires 2-D points")
    _check_dims(points)
    for p in points:
        if len(p.values) != 2:
            raise AnalyticsError("hypervolume_2d requires 2-D points")
        if p.values[0] > ref_point.values[0] or p.values[1] > ref_point.values[1]:
            raise AnalyticsError(f"point {p.values} exceeds reference {ref_point.values}")
    front = pareto_front(list(points))
    rx, ry = ref_point.values
    # sweep left to right; each front point owns the horizontal strip from
    # its x to the next point's x, at its own height
    area = 0.0
    for i, p in enumerate(front):
        x, y = p.values
        next_x = front[i + 1].values[0] if i + 1 < len(front) else rx
        area += (next_x - x) * (ry - y)
    return area


def scalarize_area(
    ff: float, lut: float, bram: float, dsp: float, weights: Sequence[float]
) -> float:
    """Weighted sum of the four resource counts."""
    if len(weights) != 4 or any(w < 0 for w in weights):
        raise AnalyticsError("weights must be four non-negative values")
    if all(w == 0 for w in weights):
        raise AnalyticsError("weights must not be all zero")
    return weights[0] * ff + weights[1] * lut + weights[2] * bram + weights[3] * dsp


# -- strategy evaluation harness -----------------------------------------


@dataclass
class DSETrace:
    queries: list[tuple[int, DesignPoint]] = field(default_factory=list)
    budget: int = 0
    truncated: bool = False


@dataclass
class SpaceOracle:
    """Query-mediated view of a populated space given to strategies.

    Strategies never touch the database: they see the list of configuration
    ids and a query callback that charges the budget.
    """

    configuration_ids: list[int]
    _lookup: dict[int, DesignPoint]
    trace: DSETrace
    _queried: set[int] = field(default_factory=set, init=False)

    def query(self, configuration_id: int) -> DesignPoint:
        if configuration_id not in self._lookup:
            raise AnalyticsError(f"unknown configuration id {configuration_id}")
        if configuration_id in self._queried:
            raise AnalyticsError(f"configuration {configuration_id} already queried")
        if len(self.trace.queries) >= self.trace.budget:
            raise BudgetExceeded()
        point = self._lookup[configuration_id]
        self._queried.add(configuration_id)
        self.trace.queries.append((configuration_id, point))
        return point


Strategy = Callable[[SpaceOracle], None]


@dataclass
class StrategyResult:
    trace: DSETrace
    approx_front: list[DesignPoint]
    reference_front: list[DesignPoint]
    adrs_value: float
    queries_used: int


def exhaustive_strategy(oracle: SpaceOracle) -> None:
    """Query every configuration (budget permitting)."""
    for cid in oracle.configuration_ids:
        oracle.query(cid)


def random_strategy(seed: int) -> Strategy:
    """Uniform random sampling without replacement up to the budget."""

    def run(oracle: SpaceOracle) -> None:
        rng = random.Random(seed)
        ids = list(oracle.configuration_ids)
        rng.shuffle(ids)
        for cid in ids:
            oracle.query(cid)

    return run


def greedy_neighbor_strategy(seed: int) -> Strategy:
    """Hill climb over configuration-id adjacency from a random start.

    Treats consecutive ids as neighbors (the enumeration order varies one
    axis fastest), moves to the neighbor improving the first objective, and
    restarts randomly when stuck.
    """

    def run(oracle: SpaceOracle) -> None:
        rng = random.Random(seed)
        ids = oracle.configuration_ids
        pos = {cid: i for i, cid in enumerate(ids)}
        seen: set[int] = set()
        # positions of the ids not yet seen, kept ascending: a restart's
        # rng.choice must see them in configuration order for a seed's draws
        # to stay the same
        unseen = list(range(len(ids)))

        def q(cid):
            seen.add(cid)
            del unseen[bisect_left(unseen, pos[cid])]
            return oracle.query(cid)

        while unseen:
            start = ids[rng.choice(unseen)]
            current = q(start)
            cid = start
            improved = True
            while improved:
                improved = False
                i = pos[cid]
                for j in (i - 1, i + 1):
                    if 0 <= j < len(ids) and ids[j] not in seen:
                        cand = q(ids[j])
                        if cand.values[0] < current.values[0]:
                            cid, current = ids[j], cand
                            improved = True
                            break

    return run


BUILTIN_STRATEGIES = {
    "exhaustive": lambda seed: exhaustive_strategy,
    "random": random_strategy,
    "greedy": greedy_neighbor_strategy,
}


def evaluate_strategy(
    store: Store,
    space_id: int,
    strategy: Strategy,
    budget: int,
    objectives: Sequence[str] = ("latency", "lut"),
    area_weights: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 0.0),
) -> StrategyResult:
    """Replay a strategy against stored results and score it with ADRS.

    The reference front is the exact Pareto front of all stored ok points.
    A strategy exceeding its budget has its trace truncated and flagged.
    """
    all_points = store.fetch_points(space_id, objectives, area_weights)
    if not all_points:
        raise AnalyticsError(f"space {space_id} has no ok implementations")
    lookup = {p.configuration_id: p for p in all_points}
    trace = DSETrace(budget=budget)
    oracle = SpaceOracle(
        configuration_ids=[p.configuration_id for p in all_points],
        _lookup=lookup,
        trace=trace,
    )
    try:
        strategy(oracle)
    except BudgetExceeded:
        trace.truncated = True
    observed = [p for _, p in trace.queries]
    if not observed:
        raise AnalyticsError("strategy queried nothing")
    reference = pareto_front(all_points)
    approx = pareto_front(observed)
    return StrategyResult(
        trace=trace,
        approx_front=approx,
        reference_front=reference,
        adrs_value=adrs(reference, approx),
        queries_used=len(trace.queries),
    )
