import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlsdse.analytics import (
    BUILTIN_STRATEGIES,
    AnalyticsError,
    BudgetExceeded,
    DesignPoint,
    DSETrace,
    SpaceOracle,
    adrs,
    dominates,
    evaluate_strategy,
    exhaustive_strategy,
    greedy_neighbor_strategy,
    hypervolume_2d,
    pareto_front,
    random_strategy,
)
from hlsdse.dsl import parse_csd
from hlsdse.orchestrator import BackendSpec, Campaign, ImplementationResult, run_campaign
from hlsdse.store import Store, StoreError, SynthesisInfo, Tool

from conftest import record_disjoint_tools


def brute_force_front(points):
    return sorted(
        (
            p
            for p in points
            if not any(dominates(q, p) for q in points)
        ),
        key=lambda p: p.values,
    )


def pts(*vectors):
    return [DesignPoint(tuple(float(x) for x in v), i) for i, v in enumerate(vectors)]


def brute_force_front_lowest_id(points):
    """brute_force_front with each duplicated vector kept once, at its
    lowest configuration id."""
    lowest = {}
    for p in brute_force_front(points):
        if p.values not in lowest or p.configuration_id < lowest[p.values]:
            lowest[p.values] = p.configuration_id
    return [(v, lowest[v]) for v in sorted(lowest)]


def many_objective_vectors(dim, max_size):
    return st.lists(
        st.tuples(*[st.integers(0, 4)] * dim), min_size=1, max_size=max_size
    )


class TestDominates:
    def test_strict(self):
        a, b = pts((1, 1), (2, 2))
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_incomparable(self):
        a, b = pts((1, 2), (2, 1))
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_self_not_dominating(self):
        (a,) = pts((3, 3))
        assert not dominates(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(AnalyticsError):
            dominates(DesignPoint((1.0,)), DesignPoint((1.0, 2.0)))

    def test_negative_rejected(self):
        with pytest.raises(AnalyticsError):
            DesignPoint((-1.0, 2.0))


class TestParetoFront:
    def test_hand_example(self):
        points = pts((1, 3), (2, 2), (3, 1), (3, 3))
        front = pareto_front(points)
        assert [p.values for p in front] == [(1, 3), (2, 2), (3, 1)]

    def test_single_point(self):
        points = pts((5, 5))
        assert pareto_front(points) == points

    def test_empty_rejected(self):
        with pytest.raises(AnalyticsError):
            pareto_front([])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(AnalyticsError, match="^mixed objective dimensionality$"):
            pareto_front(pts((1, 2), (1, 2, 3)))

    def test_front_strictly_decreasing_second_objective(self):
        rng = random.Random(0)
        points = [
            DesignPoint((rng.uniform(0, 100), rng.uniform(0, 100)), i)
            for i in range(500)
        ]
        front = pareto_front(points)
        ys = [p.values[1] for p in front]
        assert ys == sorted(ys, reverse=True)
        assert len(set(ys)) == len(ys)

    def test_duplicate_vectors_keep_lowest_id(self):
        points = [
            DesignPoint((1.0, 1.0), 9),
            DesignPoint((1.0, 1.0), 2),
            DesignPoint((1.0, 1.0), 5),
        ]
        (p,) = pareto_front(points)
        assert p.configuration_id == 2

    @pytest.mark.parametrize("n,seed", [(100, 0), (1000, 1), (10_000, 2)])
    def test_matches_brute_force_random(self, n, seed):
        rng = random.Random(seed)
        points = [
            DesignPoint((rng.uniform(0, 50), rng.uniform(0, 50)), i)
            for i in range(n)
        ]
        fast = pareto_front(points)
        assert [p.values for p in fast] == [p.values for p in brute_force_front(points)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_brute_force_property(self, vectors):
        points = pts(*vectors)
        fast = {p.values for p in pareto_front(points)}
        brute = {p.values for p in brute_force_front(points)}
        assert fast == brute

    def test_scale_invariance_of_membership(self):
        rng = random.Random(4)
        points = [
            DesignPoint((rng.uniform(1, 50), rng.uniform(1, 50)), i)
            for i in range(300)
        ]
        scaled = [DesignPoint((p.values[0] * 7.3, p.values[1]), p.configuration_id)
                  for p in points]
        ids = {p.configuration_id for p in pareto_front(points)}
        assert ids == {p.configuration_id for p in pareto_front(scaled)}

    def test_three_objectives(self):
        points = pts((1, 1, 3), (1, 2, 1), (2, 2, 2), (3, 3, 3))
        front = {p.values for p in pareto_front(points)}
        assert front == {(1, 1, 3), (1, 2, 1)}

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(many_objective_vectors(3, 80), many_objective_vectors(4, 80))
    )
    # 3-D staircase boundaries: ties on the second and on the third objective
    @example([(1, 5, 5), (2, 5, 6), (2, 5, 4)])
    @example([(1, 1, 5), (2, 3, 5), (0, 4, 5)])
    # the same (y, z) at different x
    @example([(3, 2, 3), (1, 2, 3), (2, 2, 3), (0, 3, 2)])
    # duplicated vectors, each copy with a lower id than the one before
    @example([(1, 2, 3), (1, 2, 3), (0, 4, 4), (2, 1, 1), (0, 4, 4), (2, 1, 1)])
    # a later front point covers an earlier staircase entry
    @example([(0, 5, 5), (1, 2, 2), (2, 6, 3), (3, 5, 2)])
    def test_many_objectives_match_brute_force_property(self, vectors):
        # ids descend, so the lowest id of a duplicated vector is its last copy
        points = [
            DesignPoint(tuple(float(x) for x in v), len(vectors) - i)
            for i, v in enumerate(vectors)
        ]
        fast = [(p.values, p.configuration_id) for p in pareto_front(points)]
        assert fast == brute_force_front_lowest_id(points)

    @pytest.mark.parametrize("dim,n,seed", [(3, 200, 0), (3, 400, 1), (4, 400, 2)])
    def test_many_objectives_match_brute_force_random(self, dim, n, seed):
        # near a simplex, so that fronts are large and hold duplicated vectors
        rng = random.Random(seed)
        points = []
        for cid in rng.sample(range(10 * n), n):
            head = [rng.randint(0, 6) for _ in range(dim - 1)]
            last = 6 * (dim - 1) - sum(head) + rng.randint(0, 2)
            points.append(DesignPoint(tuple(float(x) for x in head + [last]), cid))
        fast = [(p.values, p.configuration_id) for p in pareto_front(points)]
        front_vectors = {v for v, _ in fast}
        assert sum(p.values in front_vectors for p in points) > len(fast)
        assert fast == brute_force_front_lowest_id(points)


class TestAdrs:
    def test_self_distance_zero(self):
        front = pts((1, 3), (2, 2), (3, 1))
        assert adrs(front, front) == 0.0

    def test_hand_value(self):
        ref = pts((1, 1))
        approx = pts((2, 1))
        assert adrs(ref, approx) == 1.0

    def test_superset_monotone(self):
        rng = random.Random(7)
        for _ in range(100):
            ref = pareto_front(
                [DesignPoint((rng.uniform(1, 10), rng.uniform(1, 10)), i)
                 for i in range(20)]
            )
            omega = [DesignPoint((rng.uniform(1, 10), rng.uniform(1, 10)), 100 + i)
                     for i in range(5)]
            extra = omega + [
                DesignPoint((rng.uniform(1, 10), rng.uniform(1, 10)), 200 + i)
                for i in range(5)
            ]
            assert adrs(ref, extra) <= adrs(ref, omega) + 1e-12

    def test_zero_component_rejected(self):
        with pytest.raises(AnalyticsError):
            adrs(pts((0, 1)), pts((1, 1)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(
            AnalyticsError, match="^dimension mismatch between reference and approximation$"
        ):
            adrs(pts((1, 1)), pts((1, 1, 1)))

    def test_zero_iff_weakly_dominated(self):
        ref = pts((2, 4), (4, 2))
        covered = pts((2, 4), (3, 2))  # improves second reference point
        assert adrs(ref, covered) == 0.0
        uncovered = pts((2.5, 4), (4, 2))
        assert adrs(ref, uncovered) > 0.0


class TestHypervolume:
    def test_unit_square(self):
        assert hypervolume_2d(pts((0, 0)), DesignPoint((1.0, 1.0))) == 1.0

    def test_two_point_front(self):
        value = hypervolume_2d(pts((0, 0.5), (0.5, 0)), DesignPoint((1.0, 1.0)))
        assert value == 0.75

    def test_dominated_point_no_effect(self):
        ref = DesignPoint((1.0, 1.0))
        base = hypervolume_2d(pts((0, 0.5), (0.5, 0)), ref)
        with_dominated = hypervolume_2d(pts((0, 0.5), (0.5, 0), (0.6, 0.6)), ref)
        assert base == with_dominated

    def test_monotone_under_added_points(self):
        rng = random.Random(9)
        ref = DesignPoint((1.0, 1.0))
        points = [DesignPoint((rng.random(), rng.random()), i) for i in range(10)]
        hv = hypervolume_2d(points, ref)
        more = points + [DesignPoint((rng.random(), rng.random()), 99)]
        assert hypervolume_2d(more, ref) >= hv - 1e-12

    def test_point_exceeding_reference_rejected(self):
        with pytest.raises(AnalyticsError):
            hypervolume_2d(pts((2, 0)), DesignPoint((1.0, 1.0)))

    @pytest.mark.parametrize(
        "points, ref",
        [(pts((0, 0, 0)), DesignPoint((1.0, 1.0))), (pts((0, 0)), DesignPoint((1.0, 1.0, 1.0)))],
        ids=["3-D-points", "3-D-reference"],
    )
    def test_three_dimensions_rejected(self, points, ref):
        with pytest.raises(AnalyticsError, match="^hypervolume_2d requires 2-D points$"):
            hypervolume_2d(points, ref)


def area_values(resources, weights):
    """The ``area`` objective that ``Store.fetch_points`` computes, the one
    resource scalarization, for results with the given (ff, lut, bram, dsp)."""
    csd = parse_csd("unroll;f;l1;{1,2,3,4}\nclock;{10}")
    with Store(":memory:") as store:
        store.init_schema()
        rec = store.register_space(store.ensure_design("b", "a", "d"), csd, "t")
        configs = store.add_configurations(rec.id, range(len(resources)))
        for cfg, (ff, lut, bram, dsp) in zip(configs, resources):
            store.record_result(
                cfg.id,
                ImplementationResult(
                    status="ok", ff=ff, lut=lut, bram=bram, dsp=dsp,
                    latency_cycles=1, achieved_period_ns=10.0,
                ),
                SynthesisInfo("t", Tool("mock-hls", "1.0", "mockpart"), 10.0),
            )
        return [p.values[0] for p in store.fetch_points(rec.id, ["area"], weights)]


class TestScalarizeArea:
    def test_projection(self):
        assert area_values([(10, 20, 1, 0)], (0, 1, 0, 0)) == [20]

    def test_sum(self):
        assert area_values([(10, 20, 1, 0)], (1, 1, 1, 1)) == [31]

    def test_all_zero_rejected(self):
        with pytest.raises(StoreError):
            area_values([(1, 1, 1, 1)], (0, 0, 0, 0))

    def test_negative_rejected(self):
        with pytest.raises(StoreError, match="non-negative"):
            area_values([(10, 20, 1, 0)], (-0.001, 1, 0, 0))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_rejected(self, weight):
        with pytest.raises(StoreError, match="finite non-negative"):
            area_values([(10, 20, 1, 0)], (weight, 1, 0, 0))

    def test_normalization_changes_argmin(self):
        # witness: weighting flips which point has smaller area
        a = (100, 10, 0, 0)  # ff-heavy
        b = (10, 100, 0, 0)  # lut-heavy
        area_a, area_b = area_values([a, b], (1, 0, 0, 0))
        assert area_a > area_b
        area_a, area_b = area_values([a, b], (0, 1, 0, 0))
        assert area_a < area_b


@pytest.fixture(scope="module")
def populated():
    st = Store(":memory:")
    st.init_schema()
    did = st.ensure_design("b", "a", "d")
    csd = parse_csd(
        "array_partition;f;arr;1;{cyclic,block};{1->8,pow_2}\n"
        "unroll;f;l1;{1->16,pow_2}\n"
        "clock;{10}"
    )
    rec = st.register_space(did, csd, "t")
    run_campaign(st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                              jobs=4, seed=11))
    yield st, rec
    st.close()


class TestEvaluateStrategy:
    def test_exhaustive_is_perfect(self, populated):
        st, rec = populated
        result = evaluate_strategy(
            st, rec.id, exhaustive_strategy, budget=rec.cardinality
        )
        assert result.adrs_value == 0.0
        assert result.queries_used == rec.cardinality

    def test_random_full_budget_is_perfect(self, populated):
        st, rec = populated
        result = evaluate_strategy(
            st, rec.id, random_strategy(3), budget=rec.cardinality
        )
        assert result.adrs_value == 0.0

    def test_budget_enforced_and_flagged(self, populated):
        st, rec = populated
        result = evaluate_strategy(st, rec.id, random_strategy(3), budget=5)
        assert result.queries_used == 5
        assert result.trace.truncated

    def test_reproducible_per_seed(self, populated):
        st, rec = populated
        a = evaluate_strategy(st, rec.id, random_strategy(42), budget=10)
        b = evaluate_strategy(st, rec.id, random_strategy(42), budget=10)
        assert a.adrs_value == b.adrs_value
        assert [c for c, _ in a.trace.queries] == [c for c, _ in b.trace.queries]

    def test_no_repeat_queries(self, populated):
        st, rec = populated
        result = evaluate_strategy(st, rec.id, greedy_neighbor_strategy(1), budget=20)
        ids = [c for c, _ in result.trace.queries]
        assert len(ids) == len(set(ids))
        assert result.queries_used <= 20

    def test_unknown_configuration_query(self, populated):
        st, rec = populated

        def bad(oracle):
            oracle.query(-1)

        with pytest.raises(AnalyticsError):
            evaluate_strategy(st, rec.id, bad, budget=5)

    def test_query_twice_rejected(self, populated):
        st, rec = populated

        def twice(oracle):
            oracle.query(oracle.configuration_ids[0])
            oracle.query(oracle.configuration_ids[0])

        with pytest.raises(AnalyticsError, match="^configuration 1 already queried$"):
            evaluate_strategy(st, rec.id, twice, budget=5)

    def test_strategy_querying_nothing_rejected(self, populated):
        st, rec = populated
        with pytest.raises(AnalyticsError, match="^strategy queried nothing$"):
            evaluate_strategy(st, rec.id, lambda oracle: None, budget=5)

    def test_space_without_ok_results_rejected(self):
        with Store(":memory:") as st:
            st.init_schema()
            rec = st.register_space(
                st.ensure_design("b", "a", "d"), parse_csd("unroll;f;l;{1,2}\nclock;{10}"), "t"
            )
            (cfg,) = st.add_configurations(rec.id, [0])
            st.record_result(cfg.id, ImplementationResult(status="timeout"), SynthesisInfo(
                "t", Tool("mock-hls", "1.0", "mockpart"), 10.0
            ))
            with pytest.raises(
                AnalyticsError, match=f"^space {rec.id} has no ok implementations$"
            ):
                evaluate_strategy(st, rec.id, exhaustive_strategy, budget=5)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected_before_any_read(self, budget):
        with pytest.raises(AnalyticsError, match=f"budget must be at least 1, got {budget}"):
            evaluate_strategy(None, 1, exhaustive_strategy, budget)


class TestMixedTools:
    def test_evaluate_strategy_names_the_tools(self):
        """Two campaigns on one space under different tools give two ok
        results per configuration, which no read may silently mix."""
        with Store(":memory:") as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            rec = st.register_space(did, parse_csd("unroll;f;l1;{1->16,pow_2}\nclock;{10}"), "t")
            for tool in ("tool-a", "tool-b"):
                backend = BackendSpec(kind="mock", tool=Tool(tool, "1.0", "mockpart"))
                run_campaign(st, Campaign(space_id=rec.id, backend=backend, seed=1))
            with pytest.raises(StoreError, match="tool-a 1.0 on .*, tool-b 1.0 on "):
                evaluate_strategy(st, rec.id, exhaustive_strategy, budget=10**6)

    def test_evaluate_strategy_refuses_disjoint_tools(self):
        """Two tools on disjoint points would make one reference front of
        results that no single tool gives."""
        with Store(":memory:") as st:
            st.init_schema()
            space_id = record_disjoint_tools(st)
            with pytest.raises(
                StoreError, match="from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart$"
            ):
                evaluate_strategy(st, space_id, random_strategy(1), budget=50)


class TestRegression:
    def test_random_ten_percent_pinned(self, local_scan_text):
        # fixed-seed regression: value computed once on first run and frozen
        st = Store(":memory:")
        st.init_schema()
        did = st.ensure_design("b", "a", "d")
        rec = st.register_space(did, parse_csd(local_scan_text), "t")
        run_campaign(
            st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                         jobs=4, seed=1)
        )
        result = evaluate_strategy(st, rec.id, random_strategy(42), budget=71)
        assert result.queries_used == 71
        assert result.adrs_value == pytest.approx(0.09834214245617126, rel=1e-12)
        st.close()


@pytest.fixture(scope="module")
def local_scan_campaign(local_scan_text):
    st = Store(":memory:")
    st.init_schema()
    did = st.ensure_design("b", "a", "d")
    rec = st.register_space(did, parse_csd(local_scan_text), "t")
    run_campaign(
        st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                     jobs=4, seed=1)
    )
    yield st, rec
    st.close()


# Frozen query-id sequences at budget 40 and the ADRS they score on
# (latency, lut) and (latency, lut, ff). The sequence does not depend on the
# objectives: both strategies read only the first objective, latency.
PINNED_TRACES = {
    ("random", 0): (
        [131, 182, 137, 211, 338, 439, 613, 400, 35, 259, 541, 375, 597, 18,
         501, 514, 272, 87, 424, 317, 212, 31, 183, 93, 386, 414, 284, 389,
         315, 116, 165, 507, 629, 36, 233, 236, 108, 55, 663, 273],
        0.11687638427425484,
        0.12321428943630112,
    ),
    ("random", 7): (
        [131, 697, 434, 154, 319, 346, 168, 234, 184, 369, 170, 685, 510, 91,
         456, 146, 329, 31, 143, 198, 583, 315, 233, 654, 653, 81, 615, 90,
         152, 666, 102, 249, 16, 669, 474, 428, 25, 7, 296, 151],
        0.12916146943153323,
        0.13803937002076444,
    ),
    ("greedy", 0): (
        [395, 394, 396, 397, 435, 434, 436, 437, 438, 439, 440, 441, 42, 41,
         43, 44, 45, 271, 270, 272, 273, 274, 275, 276, 548, 547, 549, 550,
         551, 522, 521, 523, 524, 525, 526, 527, 528, 529, 431, 430],
        0.10013557017154176,
        0.10900087572338592,
    ),
    ("greedy", 7): (
        [332, 331, 333, 334, 335, 336, 337, 338, 339, 340, 341, 342, 155, 154,
         153, 420, 419, 421, 422, 423, 424, 425, 426, 427, 428, 429, 430, 694,
         693, 692, 50, 49, 51, 52, 53, 54, 55, 56, 83, 82],
        0.7930588133066381,
        0.8703577254537307,
    ),
}

# sha256 of the comma-joined query ids of a full-budget greedy run, which
# restarts until every configuration is queried
PINNED_GREEDY_FULL = {
    0: "75b0c5cc127db674eaca90d5b93f2af5a157cbe6c7bd755bb13ab1d1ef3cdedd",
    7: "2b3a5fb7a1efe8c5c7921e03e8f8fd670e9b85901a5d88110bf5922eb6cb3db7",
}


class TestPinnedTraces:
    @pytest.mark.parametrize("name,seed", sorted(PINNED_TRACES))
    def test_trace_and_adrs(self, local_scan_campaign, name, seed):
        st, rec = local_scan_campaign
        ids, adrs_2d, adrs_3d = PINNED_TRACES[name, seed]
        for objectives, expected in (
            (("latency", "lut"), adrs_2d),
            (("latency", "lut", "ff"), adrs_3d),
        ):
            result = evaluate_strategy(
                st, rec.id, BUILTIN_STRATEGIES[name](seed), budget=40,
                objectives=objectives,
            )
            assert [c for c, _ in result.trace.queries] == ids
            assert result.trace.truncated
            assert result.adrs_value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", sorted(PINNED_GREEDY_FULL))
    def test_greedy_full_budget(self, local_scan_campaign, seed):
        st, rec = local_scan_campaign
        result = evaluate_strategy(
            st, rec.id, greedy_neighbor_strategy(seed), budget=rec.cardinality
        )
        ids = ",".join(str(c) for c, _ in result.trace.queries)
        assert result.queries_used == rec.cardinality
        assert not result.trace.truncated
        assert hashlib.sha256(ids.encode()).hexdigest() == PINNED_GREEDY_FULL[seed]


class TestKeptReferenceFront:
    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    @pytest.mark.parametrize(
        "objectives,weights",
        [
            (("latency", "lut"), (0.0, 1.0, 0.0, 0.0)),
            (("latency", "lut", "ff"), (0.0, 1.0, 0.0, 0.0)),
            (("latency", "area"), (1.0, 0.5, 0.0, 2.0)),
        ],
        ids=["2d", "3d", "area"],
    )
    def test_same_as_the_front_of_the_points(self, local_scan_campaign, name, objectives, weights):
        """Replayed by hand on ``pareto_front(fetch_points(...))``, a first
        and a second (kept) evaluation give the same result."""
        st, rec = local_scan_campaign
        points = st.fetch_points(rec.id, objectives, weights)
        trace = DSETrace(budget=40)
        oracle = SpaceOracle([p.configuration_id for p in points],
                             {p.configuration_id: p for p in points}, trace)
        try:
            BUILTIN_STRATEGIES[name](3)(oracle)
        except BudgetExceeded:
            trace.truncated = True
        reference = pareto_front(points)
        approx = pareto_front([p for _, p in trace.queries])
        for _ in range(2):
            result = evaluate_strategy(
                st, rec.id, BUILTIN_STRATEGIES[name](3), 40, objectives, weights
            )
            assert result.trace == trace
            assert result.approx_front == approx
            assert result.reference_front == reference
            assert result.adrs_value == adrs(reference, approx)
