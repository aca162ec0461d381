"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py``; a PASS/FAIL line per criterion
is printed in the terminal summary (see conftest hook).
"""

import json
import random
import time

import numpy as np
import pytest

from hlsdse.analytics import DesignPoint, adrs, evaluate_strategy, exhaustive_strategy, hypervolume_2d, pareto_front
from hlsdse.dsl import (
    DEFAULT_DIRECTIVES,
    CSD,
    ExplicitList,
    GeneratedRange,
    GeneratorKind,
    Knob,
    Value,
    expand_value_set,
    parse_csd,
)
from hlsdse.orchestrator import BackendSpec, Campaign, run_campaign
from hlsdse.space import cardinality, enumerate_space
from hlsdse.store import Store


def test_criterion_1_cardinality_reproduction(last_step_scan_text):
    """|CS| = 1600 for the shipped reference descriptor; 12800 without the
    bind decorators; under one second."""
    start = time.perf_counter()
    assert cardinality(parse_csd(last_step_scan_text)) == 1600
    unbound = last_step_scan_text.replace("@bind_a", "")
    assert cardinality(parse_csd(unbound)) == 12800
    assert time.perf_counter() - start < 1.0


def _random_csd(rng: random.Random) -> CSD:
    """<= 4 sweep knobs, <= 6 values per set, random bind groups."""

    def numeric_set():
        if rng.random() < 0.4:
            lo = rng.randint(1, 3)
            hi = rng.randint(lo, 64)
            gen = rng.choice(list(GeneratorKind))
            vs = GeneratedRange(lo, hi, gen)
            if expand_value_set(vs):
                return vs
        values = rng.sample(range(1, 100), rng.randint(1, 6))
        return ExplicitList(tuple(Value(v) for v in values))

    def categorical_set():
        tokens = rng.sample(["aa", "bb", "cc", "dd", "ee", "ff_"], rng.randint(1, 4))
        return ExplicitList(tuple(Value(t) for t in tokens))

    n = rng.randint(1, 4)
    shared = numeric_set()
    knobs = []
    for i in range(n):
        kind_token = rng.choice(["resource", "array_partition", "unroll", "pipeline"])
        kind = DEFAULT_DIRECTIVES[kind_token]
        bound = kind_token != "resource" and rng.random() < 0.4
        if kind_token == "resource":
            sets = (categorical_set(),)
        elif kind_token == "array_partition":
            sets = (categorical_set(), shared if bound else numeric_set())
        else:
            sets = (shared if bound else numeric_set(),)
        fixed = ("1",) if kind_token == "array_partition" else ()
        knobs.append(
            Knob(kind, "fn", f"t{i}", fixed, sets, "g" if bound else None)
        )
    knobs.append(
        Knob(DEFAULT_DIRECTIVES["clock"], None, None, (),
             (ExplicitList((Value(10),)),), None)
    )
    return CSD(tuple(knobs))


def test_criterion_2_enumeration_soundness():
    """200 random descriptors: enumeration length equals cardinality, all
    configurations distinct, every bind group holds equal values."""
    start = time.perf_counter()
    rng = random.Random(20260826)
    for trial in range(200):
        csd = _random_csd(rng)
        groups = csd.bind_groups()
        keys = set()
        count = 0
        for cfg in enumerate_space(csd):
            count += 1
            keys.add(cfg.config_key)
            for members in groups.values():
                vals = {cfg.assignments[m][-1].raw for m in members}
                assert len(vals) == 1, f"bind inequality in trial {trial}"
        assert count == cardinality(csd), f"count mismatch in trial {trial}"
        assert len(keys) == count, f"duplicate configurations in trial {trial}"
    assert time.perf_counter() - start < 30.0


def _brute_force_front_np(arr: np.ndarray) -> set:
    # every row against all rows, a block of rows at a time; comparing one
    # objective column at a time keeps the temporaries two-dimensional
    block = 256
    nondominated = []
    for start in range(0, arr.shape[0], block):
        rows = arr[start:start + block]
        le = np.ones((rows.shape[0], arr.shape[0]), dtype=bool)
        lt = np.zeros_like(le)
        for col in range(arr.shape[1]):
            mine, theirs = rows[:, col, None], arr[:, col]
            le &= theirs <= mine
            lt |= theirs < mine
        keep = ~(le & lt).any(axis=1)
        nondominated.extend(tuple(r) for r in rows[keep])
    return set(nondominated)


def test_criterion_3_pareto_oracle_equivalence():
    """100 random 2-D sets (up to 10^4 points): pareto_front matches the
    O(n^2) pairwise-dominance oracle exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    sizes = [int(x) for x in rng.integers(5, 2000, size=95)] + [10_000] * 5
    for n in sizes:
        arr = np.round(rng.uniform(0, 100, size=(n, 2)), 3)
        points = [DesignPoint((float(a), float(b)), i) for i, (a, b) in enumerate(arr)]
        fast = {p.values for p in pareto_front(points)}
        assert fast == _brute_force_front_np(arr)
    assert time.perf_counter() - start < 60.0


def test_criterion_4_indicator_identities():
    """ADRS self-distance is exactly 0; ADRS is monotone non-increasing under
    supersets on 100 random instances; hypervolume hand values are exact."""
    front = [DesignPoint((1.0, 3.0)), DesignPoint((2.0, 2.0)), DesignPoint((3.0, 1.0))]
    assert adrs(front, front) == 0.0

    rng = random.Random(13)
    for _ in range(100):
        ref = pareto_front(
            [DesignPoint((rng.uniform(1, 10), rng.uniform(1, 10)), i)
             for i in range(15)]
        )
        omega = [DesignPoint((rng.uniform(1, 10), rng.uniform(1, 10)), 50 + i)
                 for i in range(6)]
        superset = omega + [
            DesignPoint((rng.uniform(1, 10), rng.uniform(1, 10)), 90 + i)
            for i in range(6)
        ]
        assert adrs(ref, superset) <= adrs(ref, omega)

    ref_pt = DesignPoint((1.0, 1.0))
    assert hypervolume_2d([DesignPoint((0.0, 0.0))], ref_pt) == 1.0
    assert hypervolume_2d(
        [DesignPoint((0.0, 0.5)), DesignPoint((0.5, 0.0))], ref_pt
    ) == 0.75


@pytest.fixture
def campaign_store(local_scan_text):
    st = Store(":memory:")
    st.init_schema()
    did = st.ensure_design("radix_sort", "scan", "local_scan",
                           function_name="local_scan")
    rec = st.register_space(did, parse_csd(local_scan_text), "acceptance")
    assert rec.cardinality == 704
    yield st, rec
    st.close()


def test_criterion_5_end_to_end_mock_campaign(campaign_store):
    """A 704-configuration mock campaign with K=8 completes in under two
    minutes, fills the store, leaves nothing pending, and the exhaustive
    strategy scores ADRS 0 against its own front."""
    st, rec = campaign_store
    start = time.perf_counter()
    report = run_campaign(
        st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                     jobs=8, seed=1)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert report.max_in_flight <= 8
    assert st.count_implementations(rec.id) == 704
    assert st.pending_configurations(rec.id) == []
    result = evaluate_strategy(st, rec.id, exhaustive_strategy, budget=704)
    assert result.adrs_value == 0.0
    assert result.queries_used == 704


def test_criterion_6_crash_resume(campaign_store, tmp_path):
    """Interrupting a campaign at ~50% and rerunning attempts exactly the
    complement (per the campaign logs) and ends at 704 rows, no duplicates."""
    st, rec = campaign_store
    log1, log2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    run_campaign(
        st,
        Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"), jobs=8,
                 seed=1, limit=352, log_path=str(log1)),
    )
    assert st.count_implementations(rec.id) == 352
    run_campaign(
        st,
        Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"), jobs=8,
                 seed=1, log_path=str(log2)),
    )

    def attempted(path):
        ids = [
            json.loads(line)["config_id"]
            for line in path.read_text().splitlines()
            if json.loads(line)["event"] == "start"
        ]
        assert len(ids) == len(set(ids))
        return set(ids)

    first, second = attempted(log1), attempted(log2)
    all_ids = {c.id for c in st.configurations(rec.id)}
    assert first & second == set()
    assert first | second == all_ids
    assert st.count_implementations(rec.id) == 704
    (dups,) = st.conn.execute(
        "SELECT COUNT(*) FROM (SELECT configuration_id FROM implementation"
        " GROUP BY configuration_id HAVING COUNT(*) > 1)"
    ).fetchone()
    assert dups == 0


def test_criterion_7_persistence_round_trip(campaign_store):
    """Export then import into a fresh store reproduces identical per-table
    row counts and field-identical objective points."""
    st, rec = campaign_store
    run_campaign(
        st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                     jobs=8, seed=1)
    )
    payload = st.export_jsonl(rec.id)
    with Store(":memory:") as fresh:
        fresh.init_schema()
        fresh.import_jsonl(payload)
        for table in (
            "benchmark", "algorithm", "design", "configuration_space",
            "configuration", "implementation", "synthesis_info",
            "resource_usage", "performance",
        ):
            (n_src,) = st.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            (n_dst,) = fresh.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            assert n_src == n_dst, table
        (new_space,) = fresh.conn.execute(
            "SELECT id FROM configuration_space"
        ).fetchone()
        objectives = ["latency", "latency_ns", "ff", "lut", "bram", "dsp"]
        before = sorted(p.values for p in st.fetch_points(rec.id, objectives))
        after = sorted(p.values for p in fresh.fetch_points(new_space, objectives))
        assert before == after
