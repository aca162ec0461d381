import contextlib
import dataclasses
import json
import math
import os
import random
import sqlite3
import struct
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import hlsdse
from hlsdse.analytics import (
    AnalyticsError,
    DesignPoint,
    evaluate_strategy,
    exhaustive_strategy,
    pareto_front,
)
from hlsdse.cli import main
from hlsdse.dsl import parse_csd
from hlsdse.orchestrator import BackendSpec, Campaign, ImplementationResult, run_campaign
from hlsdse.space import build_index, cardinality
from hlsdse.store import (
    SCHEMA_VERSION,
    TABLES,
    DuplicateImplementationError,
    DuplicateSpaceError,
    ImportRejected,
    Store,
    StoreError,
    SynthesisInfo,
    Tool,
    VersionMismatchError,
)

from conftest import random_csds, record_disjoint_tools

INFO = SynthesisInfo(
    contributor="test",
    tool=Tool("mock-hls", "1.0", "mockpart"),
    clock_period_ns=10.0,
)

OK = ImplementationResult(
    status="ok", ff=10, lut=20, bram=1, dsp=0, latency_cycles=100,
    achieved_period_ns=9.5,
)

LOCAL_SCAN = Path(__file__).parent / "data" / "local_scan.csd"

# a store's schema objects, in an order that does not depend on how they
# were created
OBJECTS = "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY type, name"


def campaign_lines():
    """The export lines of a fresh seed-1 mock campaign of 20 ok results on
    local_scan.csd, space 1 of a new store."""
    with Store(":memory:") as st:
        st.init_schema()
        csd = parse_csd(LOCAL_SCAN.read_text())
        rec = st.register_space(st.ensure_design("b", "a", "d"), csd, "t")
        run_campaign(st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                                  seed=1, limit=20))
        return st.export_jsonl(rec.id).decode().splitlines()


def line_of(lines, table, row_id):
    """The index of the export line of ``table``'s row ``row_id``."""
    (k,) = [n for n, line in enumerate(lines)
            if json.loads(line)["table"] == table and json.loads(line).get("id") == row_id]
    return k


@pytest.fixture
def store():
    with Store(":memory:") as st:
        st.init_schema()
        yield st


def write_rows(store, rec, csd):
    """Write every configuration row of a space, as a full campaign does."""
    return store.add_configurations(rec.id, range(build_index(csd).total))


@pytest.fixture
def toy_space(store):
    csd = parse_csd("unroll;f;l1;{1,2,4}\nunroll;f;l2;{1,2}\nclock;{10}")
    design_id = store.ensure_design("bench", "alg", "design", function_name="f")
    return store.register_space(design_id, csd, "test"), csd


class TestSchema:
    def test_tables_and_views(self, store):
        """Results are stored only in implementation; the three result tables
        of earlier versions are views, which refuse an insert."""
        assert store.table_names() == sorted(TABLES)
        assert len(store.table_names()) == 7
        views = [r[0] for r in store.conn.execute(
            "SELECT name FROM sqlite_master WHERE type='view' ORDER BY name"
        )]
        assert views == ["performance", "resource_usage", "synthesis_info"]
        for view in views:
            with pytest.raises(sqlite3.OperationalError, match="because it is a view"):
                store.conn.execute(f"INSERT INTO {view} (implementation_id) VALUES (1)")

    def test_schema_facts_are_read_from_the_ddl(self):
        """The tables, their columns and their foreign keys come from
        SCHEMA_DDL: the tables parents first, each row keyed by its first
        column, id, and each table's keys in its column order."""
        assert TABLES == [
            "benchmark", "algorithm", "design", "configuration_space", "configuration",
            "tool", "implementation",
        ]
        for t in TABLES:
            assert hlsdse.store._EXPORT_COLS[t][0] == "id"
            assert all(TABLES.index(p) < TABLES.index(t) for p in hlsdse.store._PARENT[t].values())
        assert hlsdse.store._PARENT["benchmark"] == hlsdse.store._PARENT["tool"] == {}
        assert list(hlsdse.store._PARENT["implementation"].items()) == [
            ("configuration_id", "configuration"), ("tool_id", "tool")
        ]

    def test_space_record_fields_are_the_table_columns(self):
        """get_space builds a SpaceRecord from a row of SELECT *."""
        assert tuple(f.name for f in dataclasses.fields(hlsdse.store.SpaceRecord)) == (
            hlsdse.store._EXPORT_COLS["configuration_space"]
        )

    def test_every_table_is_exported(self):
        """A table added to SCHEMA_DDL needs an export query, or every export
        would leave it out."""
        assert [t for t, _, _ in hlsdse.store._EXPORT_QUERIES] == TABLES

    def test_idempotent_init(self, store):
        before = store.table_names()
        store.init_schema()
        assert store.table_names() == before

    def test_current_store_is_only_read(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with Store(path) as st:
            st.init_schema()
        with Store(path) as st:
            st.conn.execute("PRAGMA query_only = ON")
            st.init_schema()
            assert st.conn.execute("PRAGMA user_version").fetchone() == (5,)

    def test_current_store_gets_a_missing_object(self, store):
        before = store.conn.execute(OBJECTS).fetchall()
        store.conn.execute("DROP INDEX idx_implementation_config")
        store.init_schema()
        assert store.conn.execute(OBJECTS).fetchall() == before

    def test_file_that_is_not_a_database_is_closed(self, tmp_path, monkeypatch):
        """The constructor's first read fails on such a file, and the caller
        gets no store whose close would release the connection."""
        path = tmp_path / "notadb"
        path.write_bytes(b"not a database\n" * 100)
        opened = []
        real_connect = sqlite3.connect

        def connect(*args):
            opened.append(real_connect(*args))
            return opened[-1]

        monkeypatch.setattr(hlsdse.store.sqlite3, "connect", connect)
        with pytest.raises(sqlite3.DatabaseError, match="file is not a database"):
            Store(str(path))
        (conn,) = opened
        with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
            conn.execute("SELECT 1")

    def test_newer_version_rejected(self, tmp_path):
        path = str(tmp_path / "db.sqlite")
        with Store(path) as st:
            st.conn.execute("PRAGMA user_version = 99")
            st.conn.commit()
        with Store(path) as st:
            with pytest.raises(VersionMismatchError):
                st.init_schema()

    def test_space_lookups_use_the_unique_index(self, store, toy_space):
        """UNIQUE (space_id, idx) serves every space_id lookup, so no index
        on configuration(space_id) alone is created."""
        rec, _ = toy_space
        named = [r[0] for r in store.conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index' AND sql IS NOT NULL"
        )]
        assert named == ["idx_implementation_config", "one_ok_result_per_tool"]
        plan = " ".join(r[-1] for r in store.conn.execute(
            "EXPLAIN QUERY PLAN SELECT idx FROM configuration WHERE space_id=?", (rec.id,)
        ))
        assert "sqlite_autoindex_configuration_1" in plan

    @pytest.mark.parametrize("table", ["implementation", "configuration"])
    def test_inserts_build_no_ephemeral_table(self, store, table):
        """A CHECK of the form ``x IN (...)`` compiles to a temporary B-tree
        filled for every inserted row; an OR of equalities compiles to
        comparisons."""
        n = len(hlsdse.store._EXPORT_COLS[table])
        program = store.conn.execute(
            "EXPLAIN " + hlsdse.store._INSERT[table], [None] * n
        ).fetchall()
        assert "Insert" in {row[1] for row in program}
        assert "OpenEphemeral" not in {row[1] for row in program}

    def test_schema_fits_two_pages(self, store):
        """The DDL text, which sqlite_schema stores, fills two pages: a new
        store is one page per table and index plus those two."""
        (trees,) = store.conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE rootpage > 0"
        ).fetchone()
        assert store.conn.execute("PRAGMA page_count").fetchone() == (trees + 2,)


# A mock campaign on space 1 of the store named by argv[1], logging to
# argv[2]; each synthesis is slowed so that the campaign can be killed midway.
CRASH_CAMPAIGN = """
import sys, time
from hlsdse import orchestrator
from hlsdse.store import Store

synthesize = orchestrator.mock_synthesize

def slow(*args):
    time.sleep(0.005)
    return synthesize(*args)

orchestrator.mock_synthesize = slow
with Store(sys.argv[1]) as st:
    orchestrator.run_campaign(st, orchestrator.Campaign(
        space_id=1, backend=orchestrator.BackendSpec(kind="mock"), jobs=2,
        seed=1, log_path=sys.argv[2]))
"""


class TestWal:
    def test_file_store_settings(self, tmp_path):
        with Store(str(tmp_path / "db.sqlite")) as st:
            st.init_schema()
            assert st.conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert st.conn.execute("PRAGMA synchronous").fetchone() == (1,)

    def test_memory_store_ignores_them(self, store, toy_space):
        assert store.conn.execute("PRAGMA journal_mode").fetchone() == ("memory",)
        rec, _ = toy_space
        (cfg,) = store.add_configurations(rec.id, [0])
        store.record_result(cfg.id, OK, INFO)
        assert store.count_implementations(rec.id, "ok") == 1

    def test_process_crash_keeps_committed_results(self, tmp_path, local_scan_text):
        """A campaign SIGKILLed after 100 logged results loses none of them,
        and a resumed campaign ends with every point once."""
        db, log = tmp_path / "db.sqlite", tmp_path / "events.jsonl"
        with Store(str(db)) as st:
            st.init_schema()
            did = st.ensure_design("radix_sort", "scan", "local_scan")
            rec = st.register_space(did, parse_csd(local_scan_text), "test")

        def done_ids():
            """config ids of the complete `done` lines of the log."""
            text = log.read_text() if log.exists() else ""
            events = [json.loads(line) for line in text.split("\n")[:-1]]
            return [e["config_id"] for e in events if e["event"] == "done"]

        env = {**os.environ, "PYTHONPATH": str(Path(hlsdse.__file__).parent.parent)}
        proc = subprocess.Popen(
            [sys.executable, "-c", CRASH_CAMPAIGN, str(db), str(log)], env=env
        )
        try:
            deadline = time.monotonic() + 60
            while len(done_ids()) < 100:
                assert proc.poll() is None, "the campaign ended before the kill"
                assert time.monotonic() < deadline, "no 100 results in 60 s"
                time.sleep(0.005)
            proc.kill()
            proc.wait(timeout=10)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        # the killed writer left its uncheckpointed commits in the log file
        assert Path(f"{db}-wal").exists()
        done = done_ids()
        with Store(str(db)) as st:
            ok = {
                cid for (cid,) in st.conn.execute(
                    "SELECT configuration_id FROM implementation WHERE status='ok'"
                )
            }
            assert set(done) <= ok
            assert len(ok) < 704
            run_campaign(st, Campaign(space_id=rec.id, backend=BackendSpec(kind="mock"),
                                      jobs=2, seed=1))
            (n, distinct) = st.conn.execute(
                "SELECT COUNT(*), COUNT(DISTINCT configuration_id) FROM implementation"
            ).fetchone()
            assert n == distinct == 704
            assert st.pending_configurations(rec.id) == []
            assert [c.idx for c in st.configurations(rec.id)] == list(range(704))


class TestRegisterSpace:
    def test_reference_space_rows(self, store, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        did = store.ensure_design("radix_sort", "scan", "last_step_scan")
        rec = store.register_space(did, csd, "test")
        assert rec.cardinality == 1600
        assert store.pending_configurations(rec.id) == list(range(1600))
        assert store.configurations(rec.id) == []

    def test_constant_statements_whatever_the_size(self, store, last_step_scan_text):
        def statements(design, text):
            did = store.ensure_design("b", "a", design)
            seen = []
            store.conn.set_trace_callback(seen.append)
            try:
                store.register_space(did, parse_csd(text), "t")
            finally:
                store.conn.set_trace_callback(None)
            return len(seen)

        small = statements("small", "unroll;f;l1;{1,2}\nclock;{10}")
        assert statements("large", last_step_scan_text) == small

    def test_space_index_takes_the_callers_index(self, store, toy_space):
        rec, csd = toy_space
        index = build_index(csd)
        assert store.space_index(rec.id, index) is index
        other = build_index(parse_csd("unroll;f;l1;{1,2,4}\nclock;{10}"))
        with pytest.raises(StoreError, match="not that of space"):
            store.space_index(rec.id, other)

    def test_add_configurations_get_or_create(self, store, toy_space):
        rec, _ = toy_space
        (middle,) = store.add_configurations(rec.id, [2])
        first = store.add_configurations(rec.id, [1, 4])
        assert [c.idx for c in first] == [1, 4]
        again = store.add_configurations(rec.id, range(rec.cardinality))
        assert [c.idx for c in again] == list(range(rec.cardinality))
        assert [again[1], again[2], again[4]] == [first[0], middle, first[1]]
        assert store.configurations(rec.id) == again
        assert store.add_configurations(rec.id, []) == []

    def test_add_configurations_in_any_order(self, store, toy_space):
        """Indices given out of order, or more than once, each get one
        record, returned in idx order."""
        rec, _ = toy_space
        first = store.add_configurations(rec.id, [5, 3])
        assert [c.idx for c in first] == [3, 5]
        again = store.add_configurations(rec.id, [4, 3, 4, 0])
        assert [c.idx for c in again] == [0, 3, 4]
        assert again[1] == first[0]
        assert store.configurations(rec.id) == [*again, first[1]]

    @pytest.mark.parametrize("idxs", [[-1], [5, 6]])
    def test_add_configurations_out_of_range(self, store, toy_space, idxs):
        rec, _ = toy_space
        with pytest.raises(StoreError, match="configuration index out of range"):
            store.add_configurations(rec.id, idxs)
        assert store.configurations(rec.id) == []

    def test_duplicate_space_rejected(self, store, toy_space):
        (rec, csd) = toy_space
        with pytest.raises(DuplicateSpaceError):
            store.register_space(rec.design_id, csd, "test")

    def test_unknown_design(self, store):
        with pytest.raises(StoreError):
            store.register_space(999, parse_csd("clock;{10}"), "test")

    def test_rejected_value_is_store_error(self, store):
        did = store.ensure_design("b", "a", "d")
        with pytest.raises(StoreError, match="cannot register space for design 1"):
            store.register_space(did, parse_csd("clock;{10}"), None)

    @settings(max_examples=25, deadline=None)
    @given(random_csds(max_knobs=3, max_values=4))
    def test_row_count_matches_cardinality(self, csd):
        with Store(":memory:") as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            rec = st.register_space(did, csd, "t")
            assert len(st.pending_configurations(rec.id)) == cardinality(csd) == rec.cardinality
            assert st.configurations(rec.id) == []


class TestRecordResult:
    def test_ok_round_trip(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        points = store.fetch_points(rec.id, ["latency", "ff", "lut", "bram", "dsp"])
        assert len(points) == 1
        assert points[0].values == (100.0, 10.0, 20.0, 1.0, 0.0)
        assert points[0].configuration_id == cfg.id

    def test_synth_error_has_no_metric_rows(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(
            cfg.id, ImplementationResult(status="synth_error"), INFO
        )
        assert store.count_implementations(rec.id) == 1
        assert store.fetch_points(rec.id, ["latency", "lut"]) == []
        (n,) = store.conn.execute("SELECT COUNT(*) FROM resource_usage").fetchone()
        assert n == 0

    def test_duplicate_ok_rejected(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        with pytest.raises(DuplicateImplementationError):
            store.record_result(cfg.id, OK, INFO)

    def test_database_rejects_duplicate_ok(self, store, toy_space):
        """The one-ok-result-per-tool rule holds for any writer, not only
        record_result: it is a unique index over the ok rows alone."""
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        # a copy of the first row with another status and result columns
        copy = (
            "INSERT INTO implementation SELECT NULL, configuration_id, tool_id, {},"
            " timestamp, contributor, clock_period_ns, {} FROM implementation LIMIT 1"
        )
        with store.conn:
            store.conn.execute(copy.format("'timeout'", ", ".join(["NULL"] * 6)))
            with pytest.raises(
                sqlite3.IntegrityError,
                match="^UNIQUE constraint failed: implementation.configuration_id,"
                " implementation.tool_id$",
            ):
                store.conn.execute(copy.format(
                    "status", "ff, lut, bram, dsp, latency_cycles, achieved_period_ns"
                ))
        assert store.count_implementations(rec.id) == 2
        assert store.conn.execute(
            "SELECT type FROM sqlite_master WHERE name = 'one_ok_result_per_tool'"
        ).fetchone() == ("index",)

    def test_other_tool_allowed(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        other = SynthesisInfo("t", Tool("other-tool", "2.0", "mockpart"), 10.0)
        store.record_result(cfg.id, OK, other)

    def test_unknown_configuration(self, store):
        with pytest.raises(StoreError):
            store.record_result(12345, OK, INFO)

    @pytest.mark.parametrize("field", ["achieved_period_ns", "clock_period_ns"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
    def test_period_must_be_positive_and_finite(self, store, toy_space, field, value):
        """No export could write an infinite or NaN period back, and no
        synthesis achieves a period that is not positive."""
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        result, info = OK, INFO
        if field == "achieved_period_ns":
            result = dataclasses.replace(OK, achieved_period_ns=value)
        else:
            info = dataclasses.replace(INFO, clock_period_ns=value)
        with pytest.raises(StoreError, match=f"cannot record configuration id {cfg.id}"):
            store.record_result(cfg.id, result, info)
        assert store.count_implementations(rec.id) == 0
        assert store.conn.execute("SELECT COUNT(*) FROM tool").fetchone() == (0,)

    @pytest.mark.parametrize(
        "field, value",
        [("lut", "abc"), ("latency_cycles", "12x"), ("ff", 3.5), ("dsp", b"\x01"),
         ("bram", "")],
    )
    def test_result_counts_must_be_integers(self, store, toy_space, field, value):
        """SQLite holds text or a blob that is not a number, and a float that
        is not integral, as it is in an INTEGER column, and finds it >= 0;
        fetch_points would read "abc" as 0.0."""
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        with pytest.raises(
            StoreError, match=f"cannot record configuration id {cfg.id}: CHECK constraint"
            " failed: whole_result"
        ):
            store.record_result(cfg.id, dataclasses.replace(OK, **{field: value}), INFO)
        assert store.count_implementations(rec.id) == 0

    def test_numeric_text_is_stored_as_a_number(self, store, toy_space):
        """Column affinity converts text that reads as a number, and an
        integral float in a count, before the CHECKs see them."""
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, dataclasses.replace(
            OK, lut="171", ff=3.0, latency_cycles=" 12 ", achieved_period_ns="9.5"
        ), INFO)
        assert store.conn.execute(
            "SELECT typeof(lut), lut, typeof(ff), ff, latency_cycles,"
            " typeof(achieved_period_ns), achieved_period_ns FROM implementation"
        ).fetchone() == ("integer", 171, "integer", 3, 12, "real", 9.5)
        assert store.fetch_points(rec.id, ["lut", "latency"])[0].values == (171.0, 12.0)

    def test_tool_row_is_resolved_once(self, store, toy_space):
        """After a tool's first result, a result is three statements: BEGIN,
        the implementation INSERT and COMMIT."""
        rec, csd = toy_space
        configs = write_rows(store, rec, csd)

        def statements(cfg, info):
            seen = []
            store.conn.set_trace_callback(seen.append)
            try:
                store.record_result(cfg.id, OK, info)
            finally:
                store.conn.set_trace_callback(None)
            return seen

        other = dataclasses.replace(INFO, tool=INFO.tool._replace(name="other-tool"))
        counts = [len(statements(cfg, info)) for cfg, info in zip(
            configs, [INFO, INFO, INFO, other, other, INFO]
        )]
        assert counts == [5, 3, 3, 5, 3, 3]
        assert store.conn.execute("SELECT COUNT(*) FROM tool").fetchone() == (2,)

    def test_tool_of_a_refused_result_is_not_remembered(self, store, toy_space):
        """A refused result rolls back the tool row it created, so the next
        result of that tool creates it again rather than naming a row that
        does not exist."""
        rec, csd = toy_space
        first, second = write_rows(store, rec, csd)[:2]
        with pytest.raises(StoreError):
            store.record_result(first.id, dataclasses.replace(OK, lut="abc"), INFO)
        assert store.conn.execute("SELECT COUNT(*) FROM tool").fetchone() == (0,)
        store.record_result(second.id, OK, INFO)
        assert store.conn.execute("SELECT name FROM tool").fetchall() == [("mock-hls",)]
        assert store.check_integrity() == []


class TestPending:
    def test_fresh_space_all_pending(self, store, last_step_scan_text):
        did = store.ensure_design("b", "a", "d")
        rec = store.register_space(did, parse_csd(last_step_scan_text), "t")
        assert len(store.pending_configurations(rec.id)) == 1600

    def test_complement_of_recorded_subset(self, store, toy_space):
        rec, csd = toy_space
        configs = write_rows(store, rec, csd)
        rng = random.Random(3)
        done = rng.sample(configs, 3)
        for cfg in done:
            store.record_result(cfg.id, OK, INFO)
        pending = store.pending_configurations(rec.id, INFO.tool)
        assert set(pending) == {c.idx for c in configs} - {c.idx for c in done}
        assert pending == sorted(pending)

    def test_other_tool_leaves_all_pending(self, store, toy_space):
        rec, csd = toy_space
        for cfg in write_rows(store, rec, csd):
            store.record_result(cfg.id, OK, INFO)
        other = SynthesisInfo("t", Tool("other-tool", "2.0", "otherpart"), 10.0)
        assert store.pending_configurations(rec.id, other.tool) == list(range(rec.cardinality))
        assert store.pending_configurations(rec.id, INFO.tool) == []

    def test_all_recorded_leaves_none(self, store, toy_space):
        rec, csd = toy_space
        for cfg in write_rows(store, rec, csd):
            store.record_result(cfg.id, OK, INFO)
        assert store.pending_configurations(rec.id) == []

    def test_partition_is_exact(self, store, toy_space):
        rec, csd = toy_space
        configs = write_rows(store, rec, csd)
        for cfg in configs[:2]:
            store.record_result(cfg.id, OK, INFO)
        pending = set(store.pending_configurations(rec.id))
        done = {c.idx for c in configs} - pending
        assert pending | done == {c.idx for c in configs}
        assert pending & done == set()

    def test_unknown_space(self, store):
        with pytest.raises(StoreError):
            store.pending_configurations(999)

    def test_count_pending_of_unknown_space(self, store):
        with pytest.raises(StoreError, match="unknown space id 999"):
            store.count_pending(999)

    @pytest.mark.parametrize("state", ["fresh", "partial", "failed", "two tools"])
    def test_count_pending_is_length_of_pending(self, store, toy_space, state):
        """count_pending counts in SQL what pending_configurations lists; a
        point attempted twice counts once, and a space attempted by two
        tools is refused by both with one error."""
        rec, csd = toy_space
        configs = write_rows(store, rec, csd)
        failed = ImplementationResult(status="synth_error")
        if state == "partial":
            for cfg in configs[:3]:
                store.record_result(cfg.id, OK, INFO)
        elif state == "failed":
            for cfg in configs[:2]:
                store.record_result(cfg.id, failed, INFO)
                store.record_result(cfg.id, failed, INFO)
            store.record_result(configs[1].id, OK, INFO)
        elif state == "two tools":
            store.record_result(configs[0].id, OK, INFO)
            other = dataclasses.replace(INFO, tool=Tool("b", "1.0", "mockpart"))
            store.record_result(configs[1].id, failed, other)

        def outcome(read):
            try:
                return read(rec.id)
            except StoreError as e:
                return str(e)

        expected = {"fresh": 6, "partial": 3, "failed": 4, "two tools": (
            f"space {rec.id} has results of more than one tool,"
            " from b 1.0 on mockpart, mock-hls 1.0 on mockpart"
        )}[state]
        assert outcome(store.count_pending) == expected
        assert outcome(lambda s: len(store.pending_configurations(s))) == expected

    def test_count_pending_two_tools_fails(self, store, toy_space):
        """A point attempted by one tool is still pending for the other, so
        one count would be wrong for both; a failed attempt counts too."""
        rec, csd = toy_space
        configs = write_rows(store, rec, csd)
        other = SynthesisInfo("t", Tool("other-tool", "2.0", "otherpart"), 10.0)
        for cfg in configs[:4]:
            store.record_result(cfg.id, OK, INFO)
        store.record_result(configs[4].id, ImplementationResult(status="timeout"), other)
        with pytest.raises(StoreError, match=(
            f"^space {rec.id} has results of more than one tool,"
            " from mock-hls 1.0 on mockpart, other-tool 2.0 on otherpart$"
        )):
            store.count_pending(rec.id)

    def test_count_pending_disjoint_tools_fails(self, store):
        space_id = record_disjoint_tools(store)
        with pytest.raises(
            StoreError, match="from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart$"
        ):
            store.count_pending(space_id)

    def test_pending_disjoint_tools_fails(self, store):
        """Without a tool, a point attempted by any tool would read as done
        for all: unscoped, the disjoint store is refused as count_pending
        refuses it, while each tool has its own pending points."""
        space_id = record_disjoint_tools(store)
        with pytest.raises(StoreError) as counted:
            store.count_pending(space_id)
        with pytest.raises(StoreError) as listed:
            store.pending_configurations(space_id)
        assert str(listed.value) == str(counted.value)
        assert str(listed.value).endswith("from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart")
        assert store.pending_configurations(
            space_id, ("tool-a", "1.0", "mockpart")
        ) == list(range(300, 704))
        assert store.pending_configurations(
            space_id, ("tool-b", "1.0", "mockpart")
        ) == list(range(300))

    def test_iter_pending_reads_once_at_the_call(self, store):
        """iter_pending refuses a mixed-tool space before it yields, and a
        walk taken before a write yields the points pending at the call."""
        space_id = record_disjoint_tools(store)
        with pytest.raises(StoreError, match="from tool-a 1.0 on mockpart, tool-b 1.0 on"):
            store.iter_pending(space_id)
        tool_a = Tool("tool-a", "1.0", "mockpart")
        walk = store.iter_pending(space_id, tool_a)
        assert next(walk) == 300
        for cfg in store.add_configurations(space_id, [301, 500]):
            store.record_result(cfg.id, OK, SynthesisInfo("t", tool_a, 10.0))
        assert list(walk) == list(range(301, 704))
        assert store.count_pending(space_id, tool_a) == 402

    def test_count_pending_reads_one_count(self, store, toy_space):
        """The tool count rides in the attempted count's query."""
        rec, csd = toy_space
        store.record_result(write_rows(store, rec, csd)[0].id, OK, INFO)
        statements = []
        store.conn.set_trace_callback(statements.append)
        assert store.count_pending(rec.id) == 5
        assert len(statements) == 2  # the space row and the counts


class TestFetchPoints:
    def test_no_objectives(self, store, toy_space):
        rec, _ = toy_space
        with pytest.raises(StoreError, match="^objective list is empty$"):
            store.fetch_points(rec.id, [])

    def test_two_tools_fail_fast(self, store, toy_space):
        rec, csd = toy_space
        for cfg in write_rows(store, rec, csd)[:2]:
            store.record_result(cfg.id, OK, INFO)
            store.record_result(cfg.id, OK, dataclasses.replace(INFO, tool=INFO.tool._replace(name="other")))
        with pytest.raises(
            StoreError, match="from mock-hls 1.0 on mockpart, other 1.0 on mockpart$"
        ):
            store.fetch_points(rec.id, ["latency", "lut"])

    def test_disjoint_tools_fail_fast(self, store):
        """Results of two tools on disjoint points would read as one
        space's, each point once."""
        space_id = record_disjoint_tools(store)
        with pytest.raises(
            StoreError, match="from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart$"
        ):
            store.fetch_points(space_id, ["latency", "lut"])

    def test_weighted_area(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        points = store.fetch_points(rec.id, ["latency", "area"], (1, 1, 1, 1))
        assert points[0].values == (100.0, 10 + 20 + 1 + 0)

    def test_latency_ns(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        (p,) = store.fetch_points(rec.id, ["latency_ns"])
        assert p.values == (100 * 9.5,)

    @pytest.mark.parametrize("weights", [(1, 1, 1, 1), (0.25, 1.5, 3.1, 7.7)])
    def test_values_and_order_match_per_row_formula(self, store, weights):
        did = store.ensure_design("b", "a", "d")
        csd = parse_csd("unroll;f;l1;{1->32,pow_2}\nunroll;f;l2;{1,2,3,4}\nclock;{10}")
        rec = store.register_space(did, csd, "t")
        configs = write_rows(store, rec, csd)
        rng = random.Random(5)
        # recorded out of configuration order, so implementation ids are not
        rng.shuffle(configs)
        results = {}
        for cfg in configs:
            results[cfg.id] = ImplementationResult(
                status="ok",
                ff=rng.randint(0, 5000),
                lut=rng.randint(0, 9000),
                bram=rng.randint(0, 64),
                dsp=rng.randint(0, 32),
                latency_cycles=rng.randint(1, 10**6),
                achieved_period_ns=rng.uniform(5, 10),
            )
            store.record_result(cfg.id, results[cfg.id], INFO)
        formula = {
            "latency": lambda r: float(r.latency_cycles),
            "latency_ns": lambda r: float(r.latency_cycles) * r.achieved_period_ns,
            "ff": lambda r: float(r.ff),
            "lut": lambda r: float(r.lut),
            "bram": lambda r: float(r.bram),
            "dsp": lambda r: float(r.dsp),
            "area": lambda r: (
                weights[0] * r.ff + weights[1] * r.lut
                + weights[2] * r.bram + weights[3] * r.dsp
            ),
        }
        names = list(formula)
        for objectives in [[name] for name in names] + [names, names[::-1]]:
            points = store.fetch_points(rec.id, objectives, weights)
            assert all(type(p) is DesignPoint for p in points)
            expected = [
                (tuple(formula[o](results[cid]) for o in objectives), cid)
                for cid in sorted(results)
            ]
            # repr tells 31 from 31.0 and prints every float exactly
            assert repr([(p.values, p.configuration_id) for p in points]) == repr(
                expected
            )

    @pytest.mark.parametrize("latency,period", [(100, -9.5), (0, math.inf)])
    def test_invalid_objective_is_analytics_error(self, store, toy_space, latency, period):
        """fetch_points checks what it reads, also in a store written with
        its CHECK constraints off."""
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        bad = dataclasses.replace(OK, latency_cycles=latency, achieved_period_ns=period)
        store.conn.execute("PRAGMA ignore_check_constraints = ON")
        store.record_result(cfg.id, bad, INFO)
        assert store.fetch_points(rec.id, ["latency"])[0].values == (float(latency),)
        with pytest.raises(AnalyticsError):
            store.fetch_points(rec.id, ["latency_ns"])

    def test_unknown_objective(self, store, toy_space):
        rec, _ = toy_space
        with pytest.raises(StoreError):
            store.fetch_points(rec.id, ["watts"])

    def test_zero_weights_rejected(self, store, toy_space):
        rec, _ = toy_space
        with pytest.raises(StoreError):
            store.fetch_points(rec.id, ["area"], (0, 0, 0, 0))


# fetch_points' objective SELECT, as the trace callback reports it
OBJECTIVE_SELECT = "i.status='ok' ORDER BY i.configuration_id"


def objective_selects(statements):
    return [s for s in statements if OBJECTIVE_SELECT in s]


@pytest.fixture
def file_space(tmp_path):
    """A file store holding a 6-point space with ok results on its first
    three points; yields (store, space id, configuration records)."""
    with Store(str(tmp_path / "memo.sqlite")) as st:
        st.init_schema()
        csd = parse_csd("unroll;f;l1;{1,2,4}\nunroll;f;l2;{1,2}\nclock;{10}")
        rec = st.register_space(st.ensure_design("b", "a", "d"), csd, "t")
        configs = write_rows(st, rec, csd)
        for cfg in configs[:3]:
            st.record_result(cfg.id, OK, INFO)
        yield st, rec.id, configs


def copy_ok_row(store, configuration_id):
    """Insert a copy of the store's first ok row for ``configuration_id``,
    leaving the transaction open."""
    store.conn.execute(
        "INSERT INTO implementation SELECT NULL, ?, tool_id, status, timestamp,"
        " contributor, clock_period_ns, ff, lut, bram, dsp, latency_cycles,"
        " achieved_period_ns FROM implementation WHERE status = 'ok' LIMIT 1",
        (configuration_id,),
    )


class _CommitAfterSelect:
    """A connection that runs ``commit`` right after fetch_points' objective
    SELECT has read its rows, as a commit of another process could land."""

    def __init__(self, conn, commit):
        self._conn, self._commit = conn, commit

    def execute(self, sql, *args):
        cursor = self._conn.execute(sql, *args)
        if OBJECTIVE_SELECT not in sql or self._commit is None:
            return cursor
        rows = cursor.fetchall()
        self._commit()
        self._commit = None
        return types.SimpleNamespace(fetchall=lambda: rows)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestFetchPointsMemo:
    def test_hit_runs_only_the_stamp(self, file_space):
        st, space_id, _ = file_space
        first = st.fetch_points(space_id, ["latency", "lut"])
        statements = []
        st.conn.set_trace_callback(statements.append)
        again = st.fetch_points(space_id, ["latency", "lut"])
        st.conn.set_trace_callback(None)
        assert statements == ["PRAGMA data_version"]
        with Store(st.path) as fresh:
            assert again == first == fresh.fetch_points(space_id, ["latency", "lut"])
        assert len(again) == 3

    def test_returned_list_is_the_callers(self, file_space):
        st, space_id, _ = file_space
        points = st.fetch_points(space_id, ["latency"])
        expected = list(points)
        points.clear()
        assert st.fetch_points(space_id, ["latency"]) == expected

    def test_other_connection_commit_is_seen(self, file_space):
        st, space_id, configs = file_space
        assert len(st.fetch_points(space_id, ["latency", "lut"])) == 3
        with Store(st.path) as other:
            other.record_result(configs[3].id, OK, INFO)
        points = st.fetch_points(space_id, ["latency", "lut"])
        assert [p.configuration_id for p in points] == [c.id for c in configs[:4]]

    def test_commit_during_the_select_is_seen_next(self, file_space):
        """The stamp is read before the SELECT, so a commit that lands after
        the rows are read is not cached under its own stamp."""
        st, space_id, configs = file_space

        def commit():
            with Store(st.path) as other:
                other.record_result(configs[3].id, OK, INFO)

        st.conn = _CommitAfterSelect(st.conn, commit)
        assert len(st.fetch_points(space_id, ["latency"])) == 3
        assert len(st.fetch_points(space_id, ["latency"])) == 4

    def test_own_result_is_seen(self, file_space):
        st, space_id, configs = file_space
        assert len(st.fetch_points(space_id, ["latency"])) == 3
        st.record_result(configs[3].id, OK, INFO)
        assert len(st.fetch_points(space_id, ["latency"])) == 4

    def test_import_empties_the_memo(self, file_space):
        st, space_id, _ = file_space
        st.fetch_points(space_id, ["latency"])
        st.import_jsonl(("\n".join(campaign_lines()) + "\n").encode())
        statements = []
        st.conn.set_trace_callback(statements.append)
        assert len(st.fetch_points(space_id, ["latency"])) == 3
        assert len(objective_selects(statements)) == 1

    def test_rolled_back_write_empties_the_memo(self, file_space):
        st, space_id, configs = file_space
        st.fetch_points(space_id, ["latency"])
        copy_ok_row(st, configs[3].id)
        st.conn.rollback()
        statements = []
        st.conn.set_trace_callback(statements.append)
        assert len(st.fetch_points(space_id, ["latency"])) == 3
        assert len(objective_selects(statements)) == 1

    def test_fetch_inside_a_transaction_is_not_kept(self, file_space):
        """An uncommitted row that a fetch sees is gone after the rollback,
        which leaves the stamp where the fetch read it."""
        st, space_id, configs = file_space
        copy_ok_row(st, configs[3].id)
        assert st.conn.in_transaction
        assert len(st.fetch_points(space_id, ["latency"])) == 4
        st.conn.rollback()
        assert len(st.fetch_points(space_id, ["latency"])) == 3

    def test_failures_are_not_kept(self, store):
        space_id = record_disjoint_tools(store)
        for _ in range(2):
            with pytest.raises(StoreError, match="more than one tool"):
                store.fetch_points(space_id, ["latency"])

    def test_arguments_checked_before_the_memo(self, file_space):
        st, space_id, _ = file_space
        st.fetch_points(space_id, ["latency", "area"], (0, 1, 0, 0))
        with pytest.raises(StoreError, match="all zero"):
            st.fetch_points(space_id, ["latency", "area"], (0, 0, 0, 0))
        with pytest.raises(StoreError, match="unknown objective"):
            st.fetch_points(space_id, ["latency", "watts"])

    def test_oldest_fetch_goes_first(self, file_space):
        st, space_id, _ = file_space
        weights = [(0, 1, 0, w) for w in range(34)]
        for w in weights:
            st.fetch_points(space_id, ["area"], w)
        statements = []
        st.conn.set_trace_callback(statements.append)
        st.fetch_points(space_id, ["area"], weights[-1])
        assert objective_selects(statements) == []
        # the two oldest of 34 are gone, and reading one again drops the
        # oldest kept, the third
        st.fetch_points(space_id, ["area"], weights[1])
        st.fetch_points(space_id, ["area"], weights[2])
        assert len(objective_selects(statements)) == 2

    def test_integer_and_float_weights_kept_apart(self, file_space):
        """SQLite keeps an area of integer weights integer."""
        st, space_id, _ = file_space
        ints = st.fetch_points(space_id, ["area"], (1, 1, 1, 1))
        floats = st.fetch_points(space_id, ["area"], (1.0, 1.0, 1.0, 1.0))
        assert [type(v) for p in ints for v in p.values] == [int] * 3
        assert [type(v) for p in floats for v in p.values] == [float] * 3


@pytest.fixture
def front_builds(monkeypatch):
    """The point counts of the pareto_front calls that the store makes."""
    sizes = []

    def counted(points):
        sizes.append(len(points))
        return pareto_front(points)

    monkeypatch.setattr(hlsdse.store, "pareto_front", counted)
    return sizes


def record_point(store, configuration_id, latency):
    store.record_result(
        configuration_id, dataclasses.replace(OK, latency_cycles=latency, lut=1000), INFO
    )


class TestFetchFrontMemo:
    """The front of ``Store.point_set``, kept with its points."""

    def test_hit_runs_only_the_stamp(self, file_space, front_builds):
        st, space_id, configs = file_space
        record_point(st, configs[3].id, 50)
        first = st.point_set(space_id, ["latency", "lut"]).front
        assert front_builds == [4]
        statements = []
        st.conn.set_trace_callback(statements.append)
        again = st.point_set(space_id, ["latency", "lut"]).front
        st.conn.set_trace_callback(None)
        assert statements == ["PRAGMA data_version"] and front_builds == [4]
        assert again is first
        assert again == tuple(pareto_front(st.fetch_points(space_id, ["latency", "lut"])))
        assert [p.configuration_id for p in again] == [configs[3].id, configs[0].id]

    def test_points_and_front_share_one_fetch(self, file_space, front_builds):
        st, space_id, _ = file_space
        st.fetch_points(space_id, ["latency"])
        assert front_builds == []
        statements = []
        st.conn.set_trace_callback(statements.append)
        st.point_set(space_id, ["latency"]).front
        st.fetch_points(space_id, ["latency"])
        assert statements == ["PRAGMA data_version"] * 2 and front_builds == [3]

    def test_points_and_front_are_tuples(self, file_space):
        st, space_id, _ = file_space
        point_set = st.point_set(space_id, ["latency"])
        assert type(point_set.points) is type(point_set.front) is tuple

    def test_commit_before_the_front_is_built(self, file_space):
        """A point that another connection commits after the points are
        read is not in their front, and the next read sees it."""
        st, space_id, configs = file_space
        point_set = st.point_set(space_id, ["latency", "lut"])
        assert len(point_set.points) == 3
        with Store(st.path) as other:
            record_point(other, configs[3].id, 50)
        assert point_set.front == tuple(pareto_front(point_set.points))
        assert [p.configuration_id for p in point_set.front] == [configs[0].id]
        assert len(st.point_set(space_id, ["latency", "lut"]).points) == 4

    @pytest.mark.parametrize("write", ["other connection", "own result"])
    def test_a_new_point_is_seen(self, file_space, front_builds, write):
        st, space_id, configs = file_space
        assert len(st.point_set(space_id, ["latency", "lut"]).front) == 1
        if write == "own result":
            record_point(st, configs[3].id, 50)
        else:
            with Store(st.path) as other:
                record_point(other, configs[3].id, 50)
        front = st.point_set(space_id, ["latency", "lut"]).front
        assert [p.configuration_id for p in front] == [configs[3].id, configs[0].id]
        assert front_builds == [3, 4]

    def test_rolled_back_write_empties_the_memo(self, file_space, front_builds):
        st, space_id, configs = file_space
        st.point_set(space_id, ["latency"]).front
        copy_ok_row(st, configs[3].id)
        st.conn.rollback()
        assert len(st.point_set(space_id, ["latency"]).front) == 1
        assert front_builds == [3, 3]

    def test_fetch_inside_a_transaction_is_not_kept(self, file_space, front_builds):
        st, space_id, configs = file_space
        copy_ok_row(st, configs[3].id)
        st.point_set(space_id, ["latency"]).front
        st.point_set(space_id, ["latency"]).front
        assert front_builds == [4, 4]
        st.conn.rollback()
        st.point_set(space_id, ["latency"]).front
        st.point_set(space_id, ["latency"]).front
        assert front_builds == [4, 4, 3]

    def test_oldest_fetch_goes_first_with_its_front(self, file_space, front_builds):
        st, space_id, _ = file_space
        weights = [(0, 1, 0, w) for w in range(33)]
        for w in weights[:32]:
            st.fetch_points(space_id, ["area"], w)
        statements = []
        st.conn.set_trace_callback(statements.append)
        for w in weights[:32]:
            st.point_set(space_id, ["area"], w).front
        assert objective_selects(statements) == [] and len(front_builds) == 32
        # the 33rd fetch drops the first, points and front
        st.point_set(space_id, ["area"], weights[32]).front
        st.point_set(space_id, ["area"], weights[0]).front
        assert len(objective_selects(statements)) == 2 and len(front_builds) == 34

    def test_mixed_tools_refused(self, store):
        space_id = record_disjoint_tools(store)
        for _ in range(2):
            with pytest.raises(
                StoreError, match="from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart$"
            ):
                store.point_set(space_id, ["latency"])

    def test_space_without_ok_results(self, store):
        csd = parse_csd("unroll;f;l;{1,2}\nclock;{10}")
        rec = store.register_space(store.ensure_design("b", "a", "d"), csd, "t")
        with pytest.raises(AnalyticsError, match="^empty point set$"):
            store.point_set(rec.id, ["latency"]).front

    def test_evaluate_strategy_reads_objectives_once(self, file_space):
        st, space_id, _ = file_space
        objectives = (name for name in ["latency", "lut"])
        result = evaluate_strategy(st, space_id, exhaustive_strategy, 3, objectives)
        assert result.adrs_value == 0.0 and len(result.reference_front) == 1


class TestExportImport:
    def _populated(self, store, text):
        did = store.ensure_design("b", "a", "d", function_name="f")
        csd = parse_csd(text)
        rec = store.register_space(did, csd, "t")
        rng = random.Random(1)
        for cfg in write_rows(store, rec, csd):
            res = ImplementationResult(
                status="ok",
                ff=rng.randint(0, 500),
                lut=rng.randint(0, 900),
                bram=rng.randint(0, 8),
                dsp=rng.randint(0, 4),
                latency_cycles=rng.randint(1, 10000),
                achieved_period_ns=round(rng.uniform(5, 10), 2),
            )
            store.record_result(cfg.id, res, INFO)
        return rec

    def test_jsonl_round_trip(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2,4}\nclock;{10}")
        payload = store.export_jsonl(rec.id)
        with Store(":memory:") as other:
            other.init_schema()
            counts = other.import_jsonl(payload)
            assert counts["configuration"] == 3
            assert counts["implementation"] == 3
            before = sorted(
                p.values for p in store.fetch_points(rec.id, ["latency", "lut"])
            )
            new_space = other.conn.execute(
                "SELECT id FROM configuration_space"
            ).fetchone()[0]
            after = sorted(
                p.values for p in other.fetch_points(new_space, ["latency", "lut"])
            )
            assert before == after
            for table in counts:
                (n_src,) = store.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
                (n_dst,) = other.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
                assert n_src == n_dst
            assert other.check_integrity() == []

    def test_truncated_stream(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        payload = store.export_jsonl(rec.id)
        truncated = payload[: int(len(payload) * 0.6)]
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected) as exc:
                other.import_jsonl(truncated)
            assert exc.value.last_good >= 0

    def test_import_beside_other_space_of_same_design(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2,4}\nclock;{10}")
        payload = store.export_jsonl(rec.id)
        with Store(":memory:") as other:
            other.init_schema()
            did = other.ensure_design("b", "a", "d", function_name="f")
            other.register_space(did, parse_csd("unroll;f;l1;{1,2}\nclock;{10}"), "t")
            counts = other.import_jsonl(payload)
            assert counts["configuration_space"] == 1
            for table, n in [
                ("benchmark", 1), ("algorithm", 1), ("design", 1),
                ("configuration_space", 2),
            ]:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (n,)
            (space_id,) = other.conn.execute(
                "SELECT id FROM configuration_space WHERE design_id=? AND id != 1", (did,)
            ).fetchone()
            assert [p.values for p in other.fetch_points(space_id, ["latency", "lut"])] == [
                p.values for p in store.fetch_points(rec.id, ["latency", "lut"])
            ]
            assert other.check_integrity() == []

    def test_reimport_is_duplicate_space(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        payload = store.export_jsonl(rec.id)

        def rows():
            return [
                store.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() for t in TABLES
            ]

        before = rows()
        with pytest.raises(
            ImportRejected, match=rf"space already registered for design 1 \(id {rec.id}\)"
        ):
            store.import_jsonl(payload)
        assert rows() == before

    def test_import_offsets_ids_as_row_by_row_inserts_do(self, store):
        """Imported rows take the ids SQLite picks for one insert at a time:
        one past the largest id of each table."""
        rec = self._populated(store, "unroll;f;l1;{1,2,4}\nclock;{10}")
        first = store.configurations(rec.id)[0].id
        store.record_result(first, ImplementationResult(status="synth_error"), INFO)
        source = [json.loads(line) for line in store.export_jsonl(rec.id).splitlines()]
        with Store(":memory:") as other:
            other.init_schema()
            held = self._populated(other, "unroll;f;l1;{1,2}\nclock;{10}")
            other.record_result(
                other.configurations(held.id)[0].id,
                ImplementationResult(status="timeout"), INFO,
            )
            other.import_jsonl(store.export_jsonl(rec.id))
            (space_id,) = other.conn.execute(
                "SELECT MAX(id) FROM configuration_space"
            ).fetchone()
            imported = [
                json.loads(line) for line in other.export_jsonl(space_id).splitlines()
            ]
        # the store held 2 configuration and 3 implementation rows
        for obj in source:
            if obj["table"] == "configuration_space":
                obj["id"] = space_id
            elif obj["table"] == "configuration":
                obj["id"] += 2
                obj["space_id"] = space_id
            elif obj["table"] == "implementation":
                obj["id"] += 3
                obj["configuration_id"] += 2
            elif "implementation_id" in obj:
                obj["implementation_id"] += 3
        assert imported == source

    @pytest.mark.parametrize(
        "table, corrupt",
        [
            ("implementation", lambda obj: json.dumps({**obj, "ff": -1})),
            ("implementation", lambda obj: json.dumps({**obj, "configuration_id": 999})),
            ("configuration", lambda obj: json.dumps({**obj, "extra": 1})),
            ("implementation", lambda obj: json.dumps(obj)[:-5]),
            ("implementation", lambda obj: json.dumps({**obj, "table": [obj["table"]]})),
            ("configuration", lambda obj: json.dumps({**obj, "id": [obj["id"]]})),
            (
                "implementation",
                lambda obj: json.dumps({**obj, "configuration_id": {"id": 1}}),
            ),
            ("configuration", lambda obj: json.dumps({**obj, "idx": [1]})),
            ("implementation", lambda obj: json.dumps({**obj, "lut": 2**70})),
            ("configuration", lambda obj: json.dumps([obj["id"]])),
        ],
        ids=[
            "check-violation", "unknown-foreign-key", "bad-columns", "malformed-json",
            "list-table", "list-id", "object-foreign-key", "list-value", "int-beyond-64-bits",
            "not-an-object",
        ],
    )
    def test_failure_mid_table_names_previous_record(self, store, table, corrupt):
        rec = self._populated(store, "unroll;f;l1;{1,2,4,8,16}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = [n for n, line in enumerate(lines) if json.loads(line)["table"] == table][2]
        lines[k] = corrupt(json.loads(lines[k]))
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected) as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    def test_duplicate_ok_result_rejected(self, store):
        """An import obeys the rule that record_result obeys: one ok result
        per configuration and (tool, version, part)."""
        rec = self._populated(store, "unroll;f;l1;{1,2,4}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        objs = [json.loads(line) for line in lines[1:]]
        impls = [o for o in objs if o["table"] == "implementation"]
        # a second ok result for the first configuration, same tool
        lines.append(json.dumps({**impls[0], "id": 1 + max(o["id"] for o in impls)}))
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected, match="^duplicate ok implementation ") as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == len(lines) - 2
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cardinality", 10**6, "space cardinality 1000000 is not the size"),
            ("cardinality", 2, "space cardinality 2 is not the size"),
            ("csd_text", "unroll;f;l1;{1,2,4}\n", "MissingClock"),
            ("csd_text", "unroll;f;l1;{1,2,4\nclock;{10}\n", "line 1"),
            ("csd_text", "array_partition;f;l1;[exec touch pwned] 2;{cyclic};{1,2,4}\n"
             "clock;{10}\n", "line 1: array_partition: dim must be digits"),
        ],
        ids=["cardinality-too-large", "cardinality-too-small", "no-clock", "syntax",
             "tcl-in-fixed-parameter"],
    )
    def test_space_must_match_its_descriptor(self, store, field, value, message):
        """The idx range check rests on the space's cardinality, so an
        imported space row must be a valid descriptor of that size."""
        rec = self._populated(store, "unroll;f;l1;{1,2,4}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = next(n for n, line in enumerate(lines)
                 if json.loads(line)["table"] == "configuration_space")
        lines[k] = json.dumps({**json.loads(lines[k]), field: value})
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected, match=message) as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    @pytest.mark.parametrize("idx", [-1, 704, 10**6, "x"])
    @pytest.mark.parametrize("nth", [2, 3])
    def test_idx_out_of_range_rejected(self, store, idx, nth):
        """A configuration row's idx must name a point of its space; the
        rejection names the record before the ``nth`` configuration one as
        the last good."""
        lines = campaign_lines()
        k = [n for n, line in enumerate(lines)
             if json.loads(line)["table"] == "configuration"][nth]
        lines[k] = json.dumps({**json.loads(lines[k]), "idx": idx})
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected, match="configuration index out of range") as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1
            assert other.conn.execute("SELECT COUNT(*) FROM configuration").fetchone() == (0,)

    def test_metric_rows_of_failed_result_rejected(self, store):
        lines = campaign_lines()
        k = line_of(lines, "implementation", 2)
        lines[k] = json.dumps({**json.loads(lines[k]), "status": "synth_error"})
        with pytest.raises(ImportRejected) as exc:
            store.import_jsonl(("\n".join(lines) + "\n").encode())
        assert str(exc.value) == (
            "malformed implementation record: CHECK constraint failed: whole_result"
            f" (last good record index: {k - 1})"
        )
        for t in TABLES:
            assert store.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, store, number):
        """JSON's decoder reads these as floats, which SQLite stores but an
        SQL export cannot write back."""
        lines = campaign_lines()
        k = [n for n, line in enumerate(lines)
             if json.loads(line)["table"] == "implementation"][1]
        obj = {**json.loads(lines[k]), "achieved_period_ns": "@"}
        lines[k] = json.dumps(obj).replace('"@"', number)
        with pytest.raises(ImportRejected, match="malformed record") as exc:
            store.import_jsonl(("\n".join(lines) + "\n").encode())
        assert exc.value.last_good == k - 1
        for t in TABLES:
            assert store.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    def test_list_taxonomy_id(self, store):
        with pytest.raises(ImportRejected) as exc:
            store.import_jsonl(b'{"table": "benchmark", "id": [1], "name": "b"}\n')
        assert exc.value.last_good == -1
        assert store.conn.execute("SELECT COUNT(*) FROM benchmark").fetchone() == (0,)

    @pytest.mark.parametrize(
        "record",
        [
            b'{"table": "benchmark", "id": 1, "name": [1]}\n',
            b'{"table": "benchmark", "id": 1, "name": {"n": 1}}\n',
            b'{"table": "benchmark", "id": 1, "name": 18446744073709551616}\n',
        ],
        ids=["list-name", "object-name", "int-beyond-64-bits"],
    )
    def test_unbindable_taxonomy_value(self, store, record):
        with pytest.raises(ImportRejected, match="malformed benchmark record") as exc:
            store.import_jsonl(record)
        assert exc.value.last_good == -1
        assert store.conn.execute("SELECT COUNT(*) FROM benchmark").fetchone() == (0,)

    def test_unbindable_space_value_after_taxonomy(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = next(n for n, line in enumerate(lines)
                 if json.loads(line)["table"] == "configuration_space")
        lines[k] = json.dumps({**json.loads(lines[k]), "contributor": ["t"]})
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected, match="malformed configuration_space") as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1

    def test_version_mismatch_stream(self, store):
        bad = b'{"table": "_meta", "schema_version": 99}\n'
        with pytest.raises(ImportRejected):
            store.import_jsonl(bad)

    @pytest.mark.parametrize("version", ["1", "2", "3", "4.0", "true"])
    def test_unread_schema_version_rejected(self, store, version):
        """Exports of versions 1 to 3 are no longer read, and a version must
        be a JSON integer: 4.0 == 4 in Python, and true == 1."""
        header, *body = campaign_lines()
        meta = header.replace("5", version)
        assert json.loads(meta)["schema_version"] == json.loads(version)
        with pytest.raises(
            ImportRejected, match=f"^schema version mismatch: {json.loads(version)}"
        ) as exc:
            store.import_jsonl(("\n".join([meta, *body]) + "\n").encode())
        assert exc.value.last_good == -1
        for t in TABLES:
            assert store.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    @pytest.mark.parametrize(
        "table, change, message",
        [
            ("implementation", {"ff": -1},
             "malformed implementation record: CHECK constraint failed: ff >= 0"),
            ("implementation", {"timestamp": None},
             "malformed implementation record: NOT NULL constraint failed:"
             " implementation.timestamp"),
            ("implementation", {"configuration_id": 999},
             "implementation row references unknown configuration_id=999"),
            ("implementation", {"lut": "abc"},
             "malformed implementation record: CHECK constraint failed: whole_result"),
            ("implementation", {"latency_cycles": "12x"},
             "malformed implementation record: CHECK constraint failed: whole_result"),
            ("implementation", {"ff": 3.5},
             "malformed implementation record: CHECK constraint failed: whole_result"),
            ("implementation", {"latency_cycles": None},
             "malformed implementation record: CHECK constraint failed: whole_result"),
            ("implementation", {"status": "timeout"},
             "malformed implementation record: CHECK constraint failed: whole_result"),
        ],
        ids=["check", "not-null", "unknown-parent", "text-count", "text-latency",
             "fractional-count", "ok-null-metric", "failed-with-metrics"],
    )
    def test_rejection_names_its_cause(self, store, table, change, message):
        """Only a foreign key failure is a referential violation; a row that
        fails a CHECK or NOT NULL constraint is malformed."""
        rec = self._populated(store, "unroll;f;l1;{1,2,4,8,16}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = [n for n, line in enumerate(lines) if json.loads(line)["table"] == table][2]
        lines[k] = json.dumps({**json.loads(lines[k]), **change})
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected) as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert str(exc.value) == f"{message} (last good record index: {k - 1})"
            assert exc.value.last_good == k - 1
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    def test_two_unknown_keys_name_the_first_column(self, store):
        """An implementation record whose two foreign keys are both unknown is
        refused naming configuration_id, its first key column."""
        rec = self._populated(store, "unroll;f;l1;{1,2,4}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = [n for n, line in enumerate(lines)
             if json.loads(line)["table"] == "implementation"][0]
        lines[k] = json.dumps({**json.loads(lines[k]), "configuration_id": 998, "tool_id": 999})
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected) as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert str(exc.value) == (
                "implementation row references unknown configuration_id=998"
                f" (last good record index: {k - 1})"
            )

    def test_foreign_key_failure_is_referential_violation(self, store, monkeypatch):
        """Import remaps every foreign key to a row it wrote, so SQLite's own
        check fails only when a key is left as the payload has it: here the
        implementation rows' configuration ids."""
        rec = self._populated(store, "unroll;f;l1;{1,2,4,8,16}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = [n for n, line in enumerate(lines)
             if json.loads(line)["table"] == "implementation"][2]
        lines[k] = json.dumps({**json.loads(lines[k]), "configuration_id": 999})
        monkeypatch.delitem(hlsdse.store._PARENT, "implementation")
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(
                ImportRejected, match="^referential violation: FOREIGN KEY constraint failed"
            ) as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    def test_sql_export_loads(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        sql = store.export_sql(rec.id).decode()
        with Store(":memory:") as other:
            other.conn.executescript(sql)
            (n,) = other.conn.execute("SELECT COUNT(*) FROM configuration").fetchone()
            assert n == 2

    @pytest.mark.parametrize("period", [943680.456409765, 2.003663162736718e-299, 9.5])
    def test_sql_export_writes_doubles_exactly(self, store, toy_space, period):
        """SQLite 3.40 reads repr(943680.456409765) as 943680.4564097649; the
        SQL export writes each REAL so that it reads back bit for bit."""
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, dataclasses.replace(OK, achieved_period_ns=period), INFO)
        with Store(":memory:") as other:
            other.conn.executescript(store.export_sql(rec.id).decode())
            (value,) = other.conn.execute(
                "SELECT achieved_period_ns FROM implementation"
            ).fetchone()
            assert struct.pack("<d", value) == struct.pack("<d", period)

    def test_integrity_check_clean(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        assert store.check_integrity() == []

    def test_integrity_check_counts_orphans(self, store):
        self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        store.conn.execute("PRAGMA foreign_keys = OFF")
        with store.conn:
            store.conn.execute("DELETE FROM tool")
            store.conn.execute("DELETE FROM configuration_space")
        assert store.check_integrity() == [
            "2 orphan configuration row(s)",
            "2 orphan implementation row(s)",
        ]


# every ASCII character below DEL: quotes, backslash and all control characters
ASCII = "".join(map(chr, range(0x7F)))


def _text_store(store, text):
    """A space whose taxonomy names, contributors and provenance hold
    ``text``, with an ok and a failed result; returns the space id."""
    did = store.ensure_design(f"b{text}", f"a{text}", f"d{text}", source_ref=None,
                              function_name=text)
    csd = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
    rec = store.register_space(did, csd, f"c{text}")
    info = SynthesisInfo(
        contributor=text, tool=Tool(f"t{text}", text, text), clock_period_ns=10.0,
        timestamp=text,
    )
    ok, failed = write_rows(store, rec, csd)
    store.record_result(ok.id, OK, info)
    store.record_result(failed.id, ImplementationResult(status="synth_error"), info)
    return rec.id


def _stored_rows(store, space_id):
    """Every row of the space but the ids, which import remaps, with each
    float as its bit pattern."""
    def bits(v):
        return struct.pack("<d", v) if isinstance(v, float) else v

    return [
        (table, {k: bits(v) for k, v in row.items() if k != "id" and not k.endswith("_id")})
        for table, row in store._space_rows(space_id)
    ]


class TestJsonLines:
    """The lines SQLite renders are those json.dumps wrote."""

    def test_ascii_lines_are_json_dumps(self, store):
        space_id = _text_store(store, ASCII)
        lines = store.export_jsonl(space_id).decode().split("\n")
        assert lines[0] == json.dumps({"table": "_meta", "schema_version": 5})
        assert lines[-1] == ""
        assert lines[1:-1] == [
            json.dumps({"table": table, **row}, sort_keys=True)
            for table, row in store._space_rows(space_id)
        ]

    @pytest.mark.parametrize("text", [
        "\x7f", "é", "漢字", "\U0001f600", "a\x7fé\"\\\n",
        "\x85", "\u2028", "\u2029", "a\u2028é\x85b\u2029",
    ])
    def test_non_ascii_text_round_trips(self, store, text):
        """Characters at or above 0x7f are written as raw UTF-8, not \\u
        escapes, but for the three that str.splitlines breaks at, which are
        escaped as json.dumps escapes them; all read back to the same values."""
        space_id = _text_store(store, text)
        payload = store.export_jsonl(space_id)
        written = json.dumps(text, ensure_ascii=False).translate(
            {0x85: "\\u0085", 0x2028: "\\u2028", 0x2029: "\\u2029"}
        )
        assert written.encode() in payload
        lines = payload.decode().split("\n")
        assert lines[-1] == ""
        # a reader that splits with splitlines, as earlier imports did, sees
        # the same lines
        assert payload.decode().splitlines() == lines[:-1]
        assert [json.loads(line) for line in lines[1:-1]] == [
            {"table": table, **row} for table, row in store._space_rows(space_id)
        ]
        with Store(":memory:") as other:
            other.init_schema()
            other.import_jsonl(payload)
            assert _stored_rows(other, 1) == _stored_rows(store, space_id)

    @pytest.mark.parametrize("text", ["\x85", "\u2028", "\u2029"])
    def test_import_reads_raw_line_separators(self, store, text):
        """A record is one "\\n"-terminated line: a raw U+0085, U+2028 or
        U+2029 in a string, as json.dumps(..., ensure_ascii=False) writes
        it, does not cut the record."""
        space_id = _text_store(store, text)
        payload = "".join(
            json.dumps(obj, ensure_ascii=False) + "\n"
            for obj in [{"table": "_meta", "schema_version": 4}] + [
                {"table": table, **row} for table, row in store._space_rows(space_id)
            ]
        ).encode()
        assert text.encode() in payload
        with Store(":memory:") as other:
            other.init_schema()
            other.import_jsonl(payload)
            assert _stored_rows(other, 1) == _stored_rows(store, space_id)

    @settings(max_examples=60, deadline=None)
    @given(
        periods=hst.lists(hst.tuples(hst.floats(), hst.floats()), min_size=1, max_size=4),
        counts=hst.lists(hst.integers(0, 2**63 - 1), min_size=5, max_size=5),
    )
    def test_numbers_round_trip_bit_equal(self, periods, counts):
        """Every result that record_result stores, with any double for a
        period and any integer up to 2**63 - 1 for a count, comes back from
        both exports as the value stored; it refuses the others."""
        ff, lut, bram, dsp, latency = counts
        with Store(":memory:") as src:
            src.init_schema()
            did = src.ensure_design("b", "a", "d")
            values = ",".join(str(v) for v in range(len(periods)))
            csd = parse_csd(f"unroll;f;l1;{{{values}}}\nclock;{{10}}")
            rec = src.register_space(did, csd, "t")
            for cfg, (clock, achieved) in zip(write_rows(src, rec, csd), periods):
                result = dataclasses.replace(
                    OK, ff=ff, lut=lut, bram=bram, dsp=dsp, latency_cycles=latency,
                    achieved_period_ns=achieved,
                )
                info = dataclasses.replace(INFO, clock_period_ns=clock)
                if 0 < clock < math.inf and 0 < achieved < math.inf:
                    src.record_result(cfg.id, result, info)
                else:
                    with pytest.raises(StoreError):
                        src.record_result(cfg.id, result, info)
            with Store(":memory:") as dst:
                dst.init_schema()
                dst.import_jsonl(src.export_jsonl(rec.id))
                assert _stored_rows(dst, 1) == _stored_rows(src, rec.id)
            with Store(":memory:") as dst:
                dst.conn.executescript(src.export_sql(rec.id).decode())
                assert _stored_rows(dst, rec.id) == _stored_rows(src, rec.id)

    def test_infinite_period_is_refused_on_import(self, store):
        """JSON has no number for an infinity, which SQLite would store but
        no export could write back: import refuses a line that holds one."""
        space_id = _text_store(store, "t")
        lines = store.export_jsonl(space_id).decode().splitlines()
        (k,) = [n for n, line in enumerate(lines)
                if line.startswith('{"achieved_period_ns": 9.5,')]
        lines[k] = lines[k].replace("9.5", "inf", 1)
        assert lines[k].startswith('{"achieved_period_ns": inf,')
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportRejected, match="malformed record") as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)


# The schema of version 3, frozen: a result was an implementation row with
# its synthesis_info, resource_usage and performance rows, and a trigger
# refused a second ok result per tool.
V3_DDL = """
CREATE TABLE IF NOT EXISTS benchmark (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS algorithm (
    id INTEGER PRIMARY KEY,
    benchmark_id INTEGER NOT NULL REFERENCES benchmark(id),
    name TEXT NOT NULL,
    UNIQUE (benchmark_id, name)
);
CREATE TABLE IF NOT EXISTS design (
    id INTEGER PRIMARY KEY,
    algorithm_id INTEGER NOT NULL REFERENCES algorithm(id),
    name TEXT NOT NULL,
    source_ref TEXT,
    function_name TEXT,
    UNIQUE (algorithm_id, name)
);
CREATE TABLE IF NOT EXISTS configuration_space (
    id INTEGER PRIMARY KEY,
    design_id INTEGER NOT NULL REFERENCES design(id),
    csd_text TEXT NOT NULL,
    cardinality INTEGER NOT NULL,
    contributor TEXT NOT NULL,
    created_at TEXT NOT NULL,
    UNIQUE (design_id, csd_text)
);
CREATE TABLE IF NOT EXISTS configuration (
    id INTEGER PRIMARY KEY,
    space_id INTEGER NOT NULL REFERENCES configuration_space(id),
    idx INTEGER NOT NULL,
    UNIQUE (space_id, idx)
);
CREATE TABLE IF NOT EXISTS implementation (
    id INTEGER PRIMARY KEY,
    configuration_id INTEGER NOT NULL REFERENCES configuration(id),
    status TEXT NOT NULL CHECK (status IN ('ok','synth_error','timeout'))
);
CREATE TABLE IF NOT EXISTS synthesis_info (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    timestamp TEXT NOT NULL,
    contributor TEXT NOT NULL,
    tool_name TEXT NOT NULL,
    tool_version TEXT NOT NULL,
    fpga_part TEXT NOT NULL,
    clock_period_ns REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS resource_usage (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    ff INTEGER NOT NULL CHECK (ff >= 0),
    lut INTEGER NOT NULL CHECK (lut >= 0),
    bram INTEGER NOT NULL CHECK (bram >= 0),
    dsp INTEGER NOT NULL CHECK (dsp >= 0)
);
CREATE TABLE IF NOT EXISTS performance (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    latency_cycles INTEGER NOT NULL CHECK (latency_cycles >= 0),
    achieved_period_ns REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_implementation_config
    ON implementation(configuration_id);
CREATE TRIGGER IF NOT EXISTS configuration_idx_in_range
BEFORE INSERT ON configuration
WHEN NOT (typeof(NEW.idx) = 'integer' AND NEW.idx >= 0 AND NEW.idx <
    (SELECT cardinality FROM configuration_space WHERE id = NEW.space_id))
BEGIN
    SELECT RAISE(ABORT, 'configuration index out of range');
END;
CREATE TRIGGER IF NOT EXISTS one_ok_result_per_tool
BEFORE INSERT ON synthesis_info
WHEN EXISTS (
    SELECT 1 FROM implementation n
    JOIN implementation i ON i.configuration_id = n.configuration_id
    JOIN synthesis_info s ON s.implementation_id = i.id
    WHERE n.id = NEW.implementation_id AND n.status = 'ok' AND i.status = 'ok'
        AND s.tool_name = NEW.tool_name AND s.tool_version = NEW.tool_version
        AND s.fpga_part = NEW.fpga_part
)
BEGIN
    SELECT RAISE(ABORT, 'duplicate ok implementation');
END;
"""


def build_store(path, lines, ddl, version):
    """A store as schema ``version``, whose DDL is ``ddl``, left it, holding
    the rows of the export ``lines`` with their ids."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        conn.executescript(ddl)
        for line in lines[1:]:
            row = json.loads(line)
            table = row.pop("table")
            conn.execute(
                f"INSERT INTO {table} ({','.join(row)}) VALUES ({','.join('?' * len(row))})",
                list(row.values()),
            )
        conn.execute(f"PRAGMA user_version = {version}")
        conn.commit()


def dump(path):
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return list(conn.iterdump()), conn.execute("PRAGMA user_version").fetchone()


class TestSchemaV1To3:
    """Versions 1 to 3 kept results in a synthesis_info table, which is a
    view from version 4 on; a store of theirs is no longer read."""

    # user_version 0: a store loaded from an SQL export, which sets none;
    # 9: a store of a newer version, refused before its layout is read
    @pytest.mark.parametrize("version", [0, 1, 2, 3, 9])
    def test_store_is_refused_and_not_written(self, tmp_path, capsys, version):
        lines = [line for line in campaign_lines()
                 if json.loads(line)["table"] not in ("tool", "implementation")]
        refusal = (
            f"^store version {version} is newer than supported" if version > SCHEMA_VERSION
            else f"^store version {version} has the layout of versions 1 to 3,"
        )
        # wal as Store leaves a file store it accepts; delete as a store of
        # another program may be, whose header a switch to wal rewrites
        for journal in ("wal", "delete"):
            path = tmp_path / f"v3-{journal}.sqlite"
            build_store(str(path), lines, V3_DDL, version)
            with contextlib.closing(sqlite3.connect(path)) as conn:
                assert conn.execute(f"PRAGMA journal_mode = {journal}").fetchone() == (journal,)
            before = dump(path), path.read_bytes()
            with Store(str(path)) as st:
                with pytest.raises(VersionMismatchError, match=refusal):
                    st.init_schema()
            assert main(["--db", str(path), "query", "1"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: store version {version} ") and err.count("\n") == 1
            assert (dump(path), path.read_bytes()) == before


# The schema of version 4, frozen: its status CHECK was an IN list, and
# whole_result required the six result columns of an ok row to be non-null
# whatever their type.
V4_DDL = """
CREATE TABLE IF NOT EXISTS benchmark (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS algorithm (
    id INTEGER PRIMARY KEY,
    benchmark_id INTEGER NOT NULL REFERENCES benchmark(id),
    name TEXT NOT NULL,
    UNIQUE (benchmark_id, name)
);
CREATE TABLE IF NOT EXISTS design (
    id INTEGER PRIMARY KEY,
    algorithm_id INTEGER NOT NULL REFERENCES algorithm(id),
    name TEXT NOT NULL,
    source_ref TEXT,
    function_name TEXT,
    UNIQUE (algorithm_id, name)
);
CREATE TABLE IF NOT EXISTS configuration_space (
    id INTEGER PRIMARY KEY,
    design_id INTEGER NOT NULL REFERENCES design(id),
    csd_text TEXT NOT NULL,
    cardinality INTEGER NOT NULL,
    contributor TEXT NOT NULL,
    created_at TEXT NOT NULL,
    UNIQUE (design_id, csd_text)
);
CREATE TABLE IF NOT EXISTS configuration (
    id INTEGER PRIMARY KEY,
    space_id INTEGER NOT NULL REFERENCES configuration_space(id),
    idx INTEGER NOT NULL,
    UNIQUE (space_id, idx)
);
CREATE TABLE IF NOT EXISTS tool (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    version TEXT NOT NULL,
    part TEXT NOT NULL,
    UNIQUE (name, version, part)
);
CREATE TABLE IF NOT EXISTS implementation (
    id INTEGER PRIMARY KEY,
    configuration_id INTEGER NOT NULL REFERENCES configuration(id),
    tool_id INTEGER NOT NULL REFERENCES tool(id),
    status TEXT NOT NULL CHECK (status IN ('ok','synth_error','timeout')),
    timestamp TEXT NOT NULL,
    contributor TEXT NOT NULL,
    clock_period_ns REAL NOT NULL
        CHECK (clock_period_ns > 0 AND clock_period_ns < 9e999),
    ff INTEGER CHECK (ff >= 0),
    lut INTEGER CHECK (lut >= 0),
    bram INTEGER CHECK (bram >= 0),
    dsp INTEGER CHECK (dsp >= 0),
    latency_cycles INTEGER CHECK (latency_cycles >= 0),
    achieved_period_ns REAL
        CHECK (achieved_period_ns > 0 AND achieved_period_ns < 9e999),
    CONSTRAINT whole_result CHECK (CASE WHEN status = 'ok'
        THEN ff IS NOT NULL AND lut IS NOT NULL AND bram IS NOT NULL
            AND dsp IS NOT NULL AND latency_cycles IS NOT NULL
            AND achieved_period_ns IS NOT NULL
        ELSE coalesce(ff, lut, bram, dsp, latency_cycles, achieved_period_ns) IS NULL
    END)
);
CREATE INDEX IF NOT EXISTS idx_implementation_config
    ON implementation(configuration_id);
CREATE UNIQUE INDEX IF NOT EXISTS one_ok_result_per_tool
    ON implementation(configuration_id, tool_id) WHERE status = 'ok';
CREATE VIEW IF NOT EXISTS synthesis_info AS
    SELECT i.id AS implementation_id, i.timestamp, i.contributor,
        t.name AS tool_name, t.version AS tool_version, t.part AS fpga_part,
        i.clock_period_ns
    FROM implementation i JOIN tool t ON t.id = i.tool_id;
CREATE VIEW IF NOT EXISTS resource_usage AS
    SELECT id AS implementation_id, ff, lut, bram, dsp
    FROM implementation WHERE status = 'ok';
CREATE VIEW IF NOT EXISTS performance AS
    SELECT id AS implementation_id, latency_cycles, achieved_period_ns
    FROM implementation WHERE status = 'ok';
CREATE TRIGGER IF NOT EXISTS configuration_idx_in_range
BEFORE INSERT ON configuration
WHEN NOT (typeof(NEW.idx) = 'integer' AND NEW.idx >= 0 AND NEW.idx <
    (SELECT cardinality FROM configuration_space WHERE id = NEW.space_id))
BEGIN
    SELECT RAISE(ABORT, 'configuration index out of range');
END;
"""


class TestSchemaV4:
    # every column of every implementation row, with each value's type
    ROWS = "SELECT *, typeof(lut), typeof(achieved_period_ns) FROM implementation ORDER BY id"
    # every result of a store, through the views that keep the names of the
    # version 1 to 3 result tables
    RESULTS = """
        SELECT i.id, i.configuration_id, i.status, s.*, r.*, p.*
        FROM implementation i JOIN synthesis_info s ON s.implementation_id = i.id
        LEFT JOIN resource_usage r ON r.implementation_id = i.id
        LEFT JOIN performance p ON p.implementation_id = i.id ORDER BY i.id
    """

    @staticmethod
    def v4_lines(change=None):
        """The version-4 export of campaign_lines' campaign with a timeout
        on configuration 3, ``change`` made to implementation 7."""
        with Store(":memory:") as st:
            st.init_schema()
            st.import_jsonl(("\n".join(campaign_lines()) + "\n").encode())
            st.record_result(3, ImplementationResult(status="timeout"), INFO)
            lines = st.export_jsonl(1).decode().splitlines()
        lines[0] = json.dumps({"table": "_meta", "schema_version": 4})
        k = line_of(lines, "implementation", 7)
        lines[k] = json.dumps({**json.loads(lines[k]), **(change or {})})
        return lines

    def test_v4_export_imports_as_current(self, store):
        lines = self.v4_lines()
        counts = store.import_jsonl(("\n".join(lines) + "\n").encode())
        assert counts == {
            "benchmark": 1, "algorithm": 1, "design": 1, "configuration_space": 1,
            "configuration": 20, "tool": 1, "implementation": 21,
        }
        assert store.export_jsonl(1).decode().splitlines()[1:] == lines[1:]
        assert store.conn.execute("SELECT COUNT(*) FROM temp.sqlite_master").fetchone() == (0,)

    # user_version 0: a store loaded from a version-4 SQL export, which
    # holds the version-4 DDL and sets no version
    @pytest.mark.parametrize("version", [4, 0])
    def test_v4_store_rebuilds_in_place(self, tmp_path, store, version):
        path = str(tmp_path / "v4.sqlite")
        lines = self.v4_lines()
        build_store(path, lines, V4_DDL, version)
        with contextlib.closing(sqlite3.connect(path)) as conn:
            before = conn.execute(self.ROWS).fetchall()
            views = conn.execute(self.RESULTS).fetchall()
        store.import_jsonl(("\n".join(lines) + "\n").encode())
        objectives = ["latency", "latency_ns", "lut", "ff", "bram", "dsp"]
        with Store(path) as st:
            st.init_schema()
            assert st.conn.execute("PRAGMA user_version").fetchone() == (5,)
            assert st.conn.execute(
                "SELECT type, name, sql FROM sqlite_master ORDER BY name"
            ).fetchall() == store.conn.execute(
                "SELECT type, name, sql FROM sqlite_master ORDER BY name"
            ).fetchall()
            assert st.conn.execute(self.ROWS).fetchall() == before
            assert st.conn.execute(self.RESULTS).fetchall() == views
            assert st.fetch_points(1, objectives) == store.fetch_points(1, objectives)
            assert st.check_integrity() == []
            with pytest.raises(DuplicateImplementationError):
                st.record_result(1, OK, INFO)
            with pytest.raises(StoreError, match="whole_result"):
                st.record_result(3, dataclasses.replace(OK, lut="abc"), INFO)

    @pytest.mark.parametrize("change", [{"lut": "abc"}, {"latency_cycles": 2.5}])
    def test_v4_store_with_non_numeric_result_is_not_rebuilt(self, tmp_path, change):
        """Version 4 stored a count that is not an integer; the rebuild names
        its row and leaves the store as it was."""
        path = str(tmp_path / "v4.sqlite")
        build_store(path, self.v4_lines(change), V4_DDL, 4)
        before = dump(path)
        with Store(path) as st:
            with pytest.raises(
                StoreError, match=r"^cannot upgrade store: malformed implementation record:"
                r" CHECK constraint failed: whole_result \(implementation id 7\)$"
            ):
                st.init_schema()
            assert st.conn.execute("PRAGMA user_version").fetchone() == (4,)
        assert dump(path) == before

    def test_v4_store_with_orphan_is_not_rebuilt(self, tmp_path):
        path = str(tmp_path / "v4.sqlite")
        build_store(path, self.v4_lines(), V4_DDL, 4)
        with contextlib.closing(sqlite3.connect(path)) as conn:
            conn.execute("UPDATE implementation SET configuration_id = 99 WHERE id = 7")
            conn.commit()
        before = dump(path)
        with Store(path) as st:
            with pytest.raises(
                StoreError, match=r"^cannot upgrade store: 1 orphan implementation row\(s\)$"
            ):
                st.init_schema()
        assert dump(path) == before


class TestRebuild:
    """A version-4 store takes the one rebuild to a fresh store's schema."""

    # user_version 0: a store loaded from a version-4 SQL export
    @pytest.mark.parametrize("version", [4, 0])
    def test_rebuilt_store_has_a_fresh_stores_schema(self, tmp_path, store, version):
        path = str(tmp_path / "old.sqlite")
        build_store(path, TestSchemaV4.v4_lines(), V4_DDL, version)
        with Store(path) as st:
            st.init_schema()
            assert st.conn.execute("PRAGMA user_version").fetchone() == (5,)
            assert st.conn.execute(OBJECTS).fetchall() == store.conn.execute(OBJECTS).fetchall()
            assert st.conn.execute("PRAGMA foreign_key_check").fetchall() == []
            assert st.conn.execute("PRAGMA foreign_keys").fetchone() == (1,)


def test_shipped_ddl_matches_embedded():
    from pathlib import Path

    from hlsdse.store import SCHEMA_DDL

    shipped = (Path(__file__).parent.parent / "schema.sql").read_text()
    assert shipped.strip() == SCHEMA_DDL.strip()
