import dataclasses
import json
import math
import os
import random
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import hlsdse
from hlsdse.analytics import AnalyticsError, DesignPoint
from hlsdse.dsl import parse_csd, serialize_csd
from hlsdse.orchestrator import BackendSpec, Campaign, ImplementationResult, run_campaign
from hlsdse.space import build_index, cardinality, enumerate_space
from hlsdse.store import (
    SCHEMA_DDL,
    TABLES,
    DuplicateImplementationError,
    DuplicateSpaceError,
    ImportError_,
    Store,
    StoreError,
    SynthesisInfo,
    VersionMismatchError,
)

from conftest import random_csds

INFO = SynthesisInfo(
    contributor="test",
    tool_name="mock-hls",
    tool_version="1.0",
    fpga_part="mockpart",
    clock_period_ns=10.0,
)

OK = ImplementationResult(
    status="ok", ff=10, lut=20, bram=1, dsp=0, latency_cycles=100,
    achieved_period_ns=9.5,
)


@pytest.fixture
def store():
    with Store(":memory:") as st:
        st.init_schema()
        yield st


def write_rows(store, rec, csd):
    """Write every configuration row of a space, as a full campaign does."""
    index = build_index(csd)
    return store.add_configurations(
        rec.id, [(i, index.decode(i)) for i in range(index.total)]
    )


@pytest.fixture
def toy_space(store):
    csd = parse_csd("unroll;f;l1;{1,2,4}\nunroll;f;l2;{1,2}\nclock;{10}")
    design_id = store.ensure_design("bench", "alg", "design", function_name="f")
    return store.register_space(design_id, csd, "test"), csd


class TestSchema:
    def test_nine_tables(self, store):
        assert store.table_names() == sorted(TABLES)
        assert len(store.table_names()) == 9

    def test_idempotent_init(self, store):
        before = store.table_names()
        store.init_schema()
        assert store.table_names() == before

    def test_newer_version_rejected(self, tmp_path):
        path = str(tmp_path / "db.sqlite")
        with Store(path) as st:
            st.conn.execute("PRAGMA user_version = 99")
            st.conn.commit()
        with Store(path) as st:
            with pytest.raises(VersionMismatchError):
                st.init_schema()


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
            assert st.conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert st.conn.execute("PRAGMA synchronous").fetchone() == (1,)

    def test_memory_store_ignores_them(self, store, toy_space):
        assert store.conn.execute("PRAGMA journal_mode").fetchone() == ("memory",)
        rec, csd = toy_space
        (cfg,) = store.add_configurations(rec.id, [(0, build_index(csd).decode(0))])
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

    def test_add_configurations_get_or_create(self, store, toy_space):
        rec, csd = toy_space
        index = build_index(csd)
        (middle,) = store.add_configurations(rec.id, [(2, index.decode(2))])
        first = store.add_configurations(rec.id, [(i, index.decode(i)) for i in (1, 4)])
        assert [c.idx for c in first] == [1, 4]
        again = store.add_configurations(
            rec.id, [(i, index.decode(i)) for i in range(index.total)]
        )
        assert [c.idx for c in again] == list(range(index.total))
        assert [again[1], again[2], again[4]] == [first[0], middle, first[1]]
        assert store.configurations(rec.id) == again
        assert store.add_configurations(rec.id, []) == []

    def test_duplicate_space_rejected(self, store, toy_space):
        (rec, csd) = toy_space
        with pytest.raises(DuplicateSpaceError):
            store.register_space(rec.design_id, csd, "test")

    def test_unknown_design(self, store):
        with pytest.raises(StoreError):
            store.register_space(999, parse_csd("clock;{10}"), "test")

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

    def test_other_tool_allowed(self, store, toy_space):
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        store.record_result(cfg.id, OK, INFO)
        other = SynthesisInfo("t", "other-tool", "2.0", "mockpart", 10.0)
        store.record_result(cfg.id, OK, other)

    def test_unknown_configuration(self, store):
        with pytest.raises(StoreError):
            store.record_result(12345, OK, INFO)


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
        pending = store.pending_configurations(
            rec.id, INFO.tool_name, INFO.tool_version, INFO.fpga_part
        )
        assert set(pending) == {c.idx for c in configs} - {c.idx for c in done}
        assert pending == sorted(pending)

    def test_other_tool_leaves_all_pending(self, store, toy_space):
        rec, csd = toy_space
        for cfg in write_rows(store, rec, csd):
            store.record_result(cfg.id, OK, INFO)
        other = SynthesisInfo("t", "other-tool", "2.0", "otherpart", 10.0)
        assert store.pending_configurations(
            rec.id, other.tool_name, other.tool_version, other.fpga_part
        ) == list(range(rec.cardinality))
        assert store.pending_configurations(rec.id, fpga_part=INFO.fpga_part) == []

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


class TestFetchPoints:
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
        rec, csd = toy_space
        cfg = write_rows(store, rec, csd)[0]
        bad = dataclasses.replace(OK, latency_cycles=latency, achieved_period_ns=period)
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
            with pytest.raises(ImportError_) as exc:
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
            ImportError_, match=rf"space already registered for design 1 \(id {rec.id}\)"
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
            ("resource_usage", lambda obj: json.dumps({**obj, "ff": -1})),
            ("implementation", lambda obj: json.dumps({**obj, "configuration_id": 999})),
            ("configuration", lambda obj: json.dumps({**obj, "extra": 1})),
            ("synthesis_info", lambda obj: json.dumps(obj)[:-5]),
        ],
        ids=["check-violation", "unknown-foreign-key", "bad-columns", "malformed-json"],
    )
    def test_failure_mid_table_names_previous_record(self, store, table, corrupt):
        rec = self._populated(store, "unroll;f;l1;{1,2,4,8,16}\nclock;{10}")
        lines = store.export_jsonl(rec.id).decode().splitlines()
        k = [n for n, line in enumerate(lines) if json.loads(line)["table"] == table][2]
        lines[k] = corrupt(json.loads(lines[k]))
        with Store(":memory:") as other:
            other.init_schema()
            with pytest.raises(ImportError_) as exc:
                other.import_jsonl(("\n".join(lines) + "\n").encode())
            assert exc.value.last_good == k - 1
            for t in TABLES:
                assert other.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() == (0,)

    def test_version_mismatch_stream(self, store):
        bad = b'{"table": "_meta", "schema_version": 99}\n'
        with pytest.raises(ImportError_):
            store.import_jsonl(bad)

    def test_sql_export_loads(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        sql = store.export_sql(rec.id).decode()
        with Store(":memory:") as other:
            other.conn.executescript(sql)
            (n,) = other.conn.execute("SELECT COUNT(*) FROM configuration").fetchone()
            assert n == 2

    def test_integrity_check_clean(self, store):
        rec = self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        assert store.check_integrity() == []

    def test_integrity_check_counts_orphans(self, store):
        self._populated(store, "unroll;f;l1;{1,2}\nclock;{10}")
        store.conn.execute("PRAGMA foreign_keys = OFF")
        with store.conn:
            store.conn.execute("DELETE FROM implementation")
            store.conn.execute("DELETE FROM configuration_space")
        assert store.check_integrity() == [
            "2 orphan configuration row(s)",
            "2 orphan synthesis_info row(s)",
            "2 orphan resource_usage row(s)",
            "2 orphan performance row(s)",
        ]


def build_v1_store(path, csd):
    """A store as schema version 1 left it: every configuration row written
    at registration, and user_version 1."""
    conn = sqlite3.connect(path)
    conn.executescript(SCHEMA_DDL)
    conn.execute("INSERT INTO benchmark (name) VALUES ('b')")
    conn.execute("INSERT INTO algorithm (benchmark_id, name) VALUES (1, 'a')")
    conn.execute("INSERT INTO design (algorithm_id, name) VALUES (1, 'd')")
    conn.execute(
        "INSERT INTO configuration_space"
        " (design_id, csd_text, cardinality, contributor, created_at)"
        " VALUES (1, ?, ?, 'v1', '2021-01-01T00:00:00+00:00')",
        (serialize_csd(csd), cardinality(csd)),
    )
    conn.executemany(
        "INSERT INTO configuration"
        " (space_id, idx, config_key, key_text, directive_values)"
        " VALUES (1, ?, ?, ?, ?)",
        (
            (i, c.config_key, c.key_text,
             json.dumps([[v.raw for v in vals] for vals in c.assignments]))
            for i, c in enumerate(enumerate_space(csd))
        ),
    )
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()


class TestSchemaV1:
    MOCK = BackendSpec(kind="mock")

    @pytest.fixture
    def v1_store(self, tmp_path, local_scan_text):
        """A version-1 store whose campaign stopped after 100 results."""
        path = str(tmp_path / "v1.sqlite")
        build_v1_store(path, parse_csd(local_scan_text))
        with Store(path) as st:
            run_campaign(st, Campaign(space_id=1, backend=self.MOCK, jobs=4, limit=100))
            (version,) = st.conn.execute("PRAGMA user_version").fetchone()
            assert version == 1
        return path

    def test_migrates_and_resumes(self, v1_store, tmp_path):
        with Store(v1_store) as st:
            st.init_schema()
            (version,) = st.conn.execute("PRAGMA user_version").fetchone()
            assert version == 2
            before = st.configurations(1)
            assert len(before) == 704
            assert st.pending_configurations(1) == list(range(100, 704))
            log = tmp_path / "resume.jsonl"
            report = run_campaign(
                st, Campaign(space_id=1, backend=self.MOCK, jobs=4, log_path=str(log))
            )
            assert report.attempted == 604
            assert st.pending_configurations(1) == []
            assert st.configurations(1) == before
            started = [
                json.loads(line)["idx"] for line in log.read_text().splitlines()
                if json.loads(line)["event"] == "start"
            ]
            assert sorted(started) == list(range(100, 704))
            (n, distinct) = st.conn.execute(
                "SELECT COUNT(*), COUNT(DISTINCT configuration_id) FROM implementation"
            ).fetchone()
            assert n == distinct == 704

    def test_v1_payload_imports(self, v1_store):
        with Store(v1_store) as st:
            payload = st.export_jsonl(1)
            points = sorted(p.values for p in st.fetch_points(1, ["latency", "lut"]))
        header, body = payload.split(b"\n", 1)
        assert json.loads(header) == {"table": "_meta", "schema_version": 2}
        v1_payload = json.dumps({"table": "_meta", "schema_version": 1}).encode()
        with Store(":memory:") as other:
            other.init_schema()
            counts = other.import_jsonl(v1_payload + b"\n" + body)
            assert counts["configuration"] == 704
            assert counts["implementation"] == 100
            (space_id,) = other.conn.execute(
                "SELECT id FROM configuration_space"
            ).fetchone()
            assert other.pending_configurations(space_id) == list(range(100, 704))
            assert sorted(
                p.values for p in other.fetch_points(space_id, ["latency", "lut"])
            ) == points
            assert other.check_integrity() == []


def test_shipped_ddl_matches_embedded():
    from pathlib import Path

    from hlsdse.store import SCHEMA_DDL

    shipped = (Path(__file__).parent.parent / "schema.sql").read_text()
    assert shipped.strip() == SCHEMA_DDL.strip()
