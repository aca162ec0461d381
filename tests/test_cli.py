import contextlib
import io
import itertools
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import hlsdse
from hlsdse.analytics import pareto_front
from hlsdse.cli import EXIT_DOMAIN, EXIT_USAGE, build_parser, main
from hlsdse.dsl import parse_csd
from hlsdse.orchestrator import BackendSpec, Campaign, run_campaign
from hlsdse.space import configurations_json, enumerate_space
from hlsdse.store import TABLES, Store, Tool

from conftest import record_disjoint_tools

try:
    import resource
except ImportError:  # not a Unix
    resource = None

DATA = Path(__file__).parent / "data"
REF = str(DATA / "last_step_scan.csd")

TOY = "unroll;f;l1;{1->8,pow_2}\nunroll;f;l2;{1,2,3}\nresource;f;arr;{A,B}\nclock;{10}\n"  # 24 configs


@pytest.fixture
def toy_csd(tmp_path):
    p = tmp_path / "toy.csd"
    p.write_text(TOY)
    return str(p)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "test.sqlite")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_reference_ok(self, capsys):
        code, out, err = run(capsys, "validate", REF)
        assert code == 0
        assert err == ""

    def test_mismatched_bind(self, capsys, tmp_path):
        p = tmp_path / "bad.csd"
        p.write_text("unroll;f;l1;{1,2,4}@bind_a\nunroll;f;l2;{1,2,8}@bind_a\nclock;{10}\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 1
        assert err.count("MismatchedBindSets") == 1

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "validate", "/no/such/file.csd")
        assert code == 2

    def test_pow2_range_without_power_of_two(self, capsys, tmp_path):
        p = tmp_path / "empty.csd"
        p.write_text("unroll;f;l;{3->3,pow_2}\nclock;{10}\n")
        code, out, err = run(capsys, "validate", str(p))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: line 1: no power of two in 3->3\n"

    def test_categorical_clock(self, capsys, tmp_path):
        p = tmp_path / "clock.csd"
        p.write_text("unroll;f;l1;{1,2}\nclock;{fast}\n")
        code, out, err = run(capsys, "validate", str(p))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "CategoricalClock" in err

    def test_overlong_number(self, capsys, tmp_path):
        p = tmp_path / "long.csd"
        p.write_text("unroll;f;l;{1->" + "9" * 5000 + ",pow_2}\nclock;{10}\n")
        code, out, err = run(capsys, "validate", str(p))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: line 1: 5000-digit number is too long\n"


class TestCount:
    def test_reference(self, capsys):
        code, out, _ = run(capsys, "count", REF)
        assert code == 0
        assert out.strip() == "1600"

    def test_reference_without_binds(self, capsys, tmp_path):
        p = tmp_path / "nobind.csd"
        p.write_text(Path(REF).read_text().replace("@bind_a", ""))
        code, out, _ = run(capsys, "count", str(p))
        assert code == 0
        assert out.strip() == "12800"

    def test_clock_only(self, capsys, tmp_path):
        p = tmp_path / "c.csd"
        p.write_text("clock;{10}\n")
        code, out, _ = run(capsys, "count", str(p))
        assert (code, out.strip()) == (0, "1")

    def test_invalid_csd(self, capsys, tmp_path):
        p = tmp_path / "bad.csd"
        p.write_text("unroll;f;l1;{1,2}\n")
        code, out, err = run(capsys, "count", str(p))
        assert code == 1
        assert "MissingClock" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", REF)
        assert json.loads(out) == {"cardinality": 1600}


class TestExpand:
    def test_limit(self, capsys, toy_csd):
        code, out, _ = run(capsys, "expand", toy_csd, "--limit", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_json(self, capsys, toy_csd):
        code, out, _ = run(capsys, "--format", "json", "expand", toy_csd, "--limit", "2")
        data = json.loads(out)
        assert len(data) == 2
        assert all("knob" in obj and "values" in obj for obj in data[0])

    def test_negative_limit_fails_as_run_does(self, capsys, db, toy_csd):
        code, out, err = run(capsys, "expand", toy_csd, "--limit", "-1")
        assert (code, out, err) == (EXIT_DOMAIN, "", "error: limit must be >= 0\n")
        assert run(capsys, "--db", db, "run", toy_csd, "--limit", "-1") == (code, out, err)

    @pytest.mark.parametrize("limit", [None, 0, 1, 5, 100])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_is_that_of_the_whole_list(self, capsys, toy_csd, fmt, limit):
        """The streamed output is byte for byte what printing the list of
        every point at once gave."""
        csd = parse_csd(TOY)
        configs = list(itertools.islice(enumerate_space(csd), limit))
        if fmt == "json":
            expected = json.dumps([configurations_json(csd, c) for c in configs]) + "\n"
        else:
            expected = "".join(c.key_text + "\n" for c in configs)
        limit_args = [] if limit is None else ["--limit", str(limit)]
        assert run(capsys, "--format", fmt, "expand", toy_csd, *limit_args) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_point_is_written_as_it_is_enumerated(self, monkeypatch, toy_csd, fmt):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        written = []  # the output as each point is produced

        def watched(csd):
            for config in enumerate_space(csd):
                written.append(out.getvalue())
                yield config

        monkeypatch.setattr(hlsdse.cli, "enumerate_space", watched)
        assert main(["--format", fmt, "expand", toy_csd]) == 0
        csd = parse_csd(TOY)
        first = next(enumerate_space(csd))
        if fmt == "json":
            first_text = "[" + json.dumps(configurations_json(csd, first))
        else:
            first_text = first.key_text + "\n"
        assert written[:2] == ["", first_text]

    def test_json_of_unindexable_space_writes_nothing(self, capsys, tmp_path):
        p = tmp_path / "overflow.csd"
        p.write_text(OVERFLOW)
        code, out, err = run(capsys, "--format", "json", "expand", str(p))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: space size exceeds")


class TestInitDb:
    def test_creates_tables(self, capsys, db):
        code, out, _ = run(capsys, "--db", db, "--format", "json", "init-db")
        assert code == 0
        assert len(json.loads(out)["tables"]) == len(TABLES) == 7


class TestRun:
    def test_toy_campaign(self, capsys, db, toy_csd):
        code, out, _ = run(
            capsys, "--db", db, "--format", "json",
            "run", toy_csd, "--jobs", "4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] == 24
        assert report["pending_after"] == 0

    def test_rerun_is_noop(self, capsys, db, toy_csd):
        run(capsys, "--db", db, "run", toy_csd)
        code, out, _ = run(capsys, "--db", db, "--format", "json", "run", toy_csd)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] == 0
        assert report["attempted"] == 0
        assert report["pending_after"] == 0

    def test_limit_leaves_the_rest_pending(self, capsys, db, toy_csd):
        for pending in (19, 14):
            code, out, _ = run(
                capsys, "--db", db, "--format", "json", "run", toy_csd, "--limit", "5",
            )
            assert code == 0
            assert json.loads(out)["pending_after"] == pending

    @pytest.mark.skipif(
        sys.platform != "linux" or not hasattr(resource, "RLIMIT_AS"),
        reason="needs a Linux address-space limit",
    )
    def test_limit_on_a_huge_space_starts_in_flat_memory(self, db):
        """run --limit 10 on a 107,827,200-point space, in a process capped at
        1.5 GB of address space, which a list of its pending indices
        exceeds; a resumed run attempts the next ten."""
        n = 107_827_200
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))\n"
            "from hlsdse import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hlsdse.__file__).parents[1])}
        argv = [sys.executable, "-c", child, "--db", db, "--format", "json",
                "run", str(DATA / "capped_scan.csd"), "--limit", "10"]
        for pending in (n - 10, n - 20):
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(proc.stdout)["pending_after"] == pending

    def test_jobs_order_independent(self, capsys, tmp_path, toy_csd):
        outputs = []
        for jobs in ("1", "8"):
            db = str(tmp_path / f"db{jobs}.sqlite")
            run(capsys, "--db", db, "run", toy_csd, "--jobs", jobs)
            code, out, _ = run(
                capsys, "--db", db, "--format", "json",
                "analyze", "1", "--mode", "pareto",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("runs", [1, 2])
    def test_one_parse_and_one_index_per_run(self, capsys, monkeypatch, db, runs):
        """run parses its descriptor once and indexes it once, on a first run
        and on a resumed one alike."""
        csd = str(DATA / "local_scan.csd")
        for _ in range(runs - 1):
            assert run(capsys, "--db", db, "run", csd, "--limit", "1")[0] == 0
        parses = count_calls(monkeypatch, hlsdse.dsl.parse_csd)
        indexes = count_calls(monkeypatch, hlsdse.space.build_index)
        assert run(capsys, "--db", db, "run", csd, "--limit", "1")[0] == 0
        assert (len(parses), len(indexes)) == (1, 1)

    def test_log_that_cannot_be_opened_writes_no_row(self, capsys, db, tmp_path):
        code, out, err = run(
            capsys, "--db", db, "run", str(DATA / "local_scan.csd"), "--limit", "3",
            "--log", str(tmp_path / "missing" / "events.jsonl"),
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(db)


def count_calls(monkeypatch, func) -> list:
    """Count the calls of ``func`` through every hlsdse module that binds
    it; returns the list that each call appends to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hlsdse" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


class TestQuery:
    def test_summary(self, capsys, db, toy_csd):
        run(capsys, "--db", db, "run", toy_csd)
        code, out, _ = run(capsys, "--db", db, "--format", "json", "query", "1")
        data = json.loads(out)
        assert data["cardinality"] == 24
        assert data["ok"] == 24
        assert data["pending"] == 0

    def test_unknown_space(self, capsys, db):
        run(capsys, "--db", db, "init-db")
        code, _, err = run(capsys, "--db", db, "query", "7")
        assert code == 1

    def test_query_disjoint_tools_fails(self, capsys, db):
        """A point attempted by one tool is still pending for the other, so
        query refuses the space rather than report it complete."""
        with Store(db) as st:
            st.init_schema()
            space_id = record_disjoint_tools(st)
        code, out, err = run(capsys, "--db", db, "query", str(space_id))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == (
            f"error: space {space_id} has results of more than one tool,"
            " from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart\n"
        )


class TestAnalyze:
    @pytest.fixture
    def populated(self, capsys, db, toy_csd):
        run(capsys, "--db", db, "run", toy_csd, "--jobs", "4")
        return db

    def test_pareto(self, capsys, populated, tmp_path):
        csv_path = tmp_path / "points.csv"
        code, out, _ = run(
            capsys, "--db", populated, "analyze", "1",
            "--points-csv", str(csv_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n_points"] == 24
        assert summary["front_size"] >= 1
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 25  # header + points
        assert rows[0].endswith("on_front")

    def test_hv(self, capsys, monkeypatch, populated):
        """The hypervolume is taken over the kept front, so one pareto_front
        call sees all 24 points."""
        sizes = []

        def counted(points):
            sizes.append(len(points))
            return pareto_front(points)

        monkeypatch.setattr(hlsdse.analytics, "pareto_front", counted)
        monkeypatch.setattr(hlsdse.store, "pareto_front", counted)
        code, out, _ = run(capsys, "--db", populated, "analyze", "1", "--mode", "hv")
        assert code == 0 and json.loads(out)["hypervolume"] >= 0
        assert sizes.count(24) == 1

    def test_eval_budget_arithmetic(self, capsys, populated):
        budget = -(-24 // 10)  # ceil(10% of 24)
        code, out, _ = run(
            capsys, "--db", populated, "analyze", "1",
            "--mode", "eval", "--strategy", "random",
            "--budget", str(budget), "--seed", "5",
        )
        summary = json.loads(out)
        assert summary["queries"] == budget
        assert summary["adrs"] >= 0

    def test_eval_reads_the_points_once(self, capsys, monkeypatch, populated):
        """analyze --mode eval and the evaluation it runs share one fetch."""
        statements = []

        class TracedStore(Store):
            def __init__(self, *args):
                super().__init__(*args)
                self.conn.set_trace_callback(statements.append)

        monkeypatch.setattr(hlsdse.cli, "Store", TracedStore)
        code, out, _ = run(
            capsys, "--db", populated, "analyze", "1", "--mode", "eval", "--budget", "5",
        )
        assert code == 0 and json.loads(out)["queries"] == 5
        selects = [s for s in statements if "i.status='ok' ORDER BY i.configuration_id" in s]
        assert len(selects) == 1

    def test_eval_builds_the_reference_front_once(self, capsys, monkeypatch, populated):
        """The summary's front and the evaluation's reference front are one
        kept front, so one pareto_front call sees all 24 points."""
        sizes = []

        def counted(points):
            sizes.append(len(points))
            return pareto_front(points)

        monkeypatch.setattr(hlsdse.analytics, "pareto_front", counted)
        monkeypatch.setattr(hlsdse.store, "pareto_front", counted, raising=False)
        code, out, _ = run(
            capsys, "--db", populated, "analyze", "1", "--mode", "eval", "--budget", "5",
        )
        assert code == 0 and json.loads(out)["queries"] == 5
        assert sizes.count(24) == 1

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_eval_budget_below_one(self, capsys, populated, budget):
        code, out, err = run(
            capsys, "--db", populated, "analyze", "1",
            "--mode", "eval", "--strategy", "random", "--budget", budget,
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"budget must be at least 1, got {budget}" in err

    def test_eval_exhaustive_zero(self, capsys, populated):
        code, out, _ = run(
            capsys, "--db", populated, "analyze", "1",
            "--mode", "eval", "--strategy", "exhaustive",
        )
        summary = json.loads(out)
        assert summary["adrs"] == 0.0
        assert summary["queries"] == 24

    def test_plot_data(self, capsys, populated, tmp_path):
        plot = tmp_path / "plot.dat"
        run(capsys, "--db", populated, "analyze", "1", "--plot-data", str(plot))
        blocks = plot.read_text().split("\n\n")
        assert len(blocks) == 2

    def test_empty_space(self, capsys, db, toy_csd, tmp_path):
        # register without running any synthesis
        from hlsdse.dsl import parse_csd
        from hlsdse.store import Store

        with Store(db) as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            st.register_space(did, parse_csd(TOY), "t")
        code, _, err = run(capsys, "--db", db, "analyze", "1")
        assert code == 1


    def test_invalid_objective_is_one_domain_error(self, capsys, db):
        from hlsdse.dsl import parse_csd
        from hlsdse.orchestrator import ImplementationResult
        from hlsdse.store import Store, SynthesisInfo

        csd = parse_csd(TOY)
        with Store(db) as st:
            st.init_schema()
            rec = st.register_space(st.ensure_design("b", "a", "d"), csd, "t")
            (cfg,) = st.add_configurations(rec.id, [0])
            st.record_result(
                cfg.id,
                # a latency_ns of 2**62 cycles x 1e300 ns overflows to inf
                ImplementationResult(status="ok", latency_cycles=2**62, achieved_period_ns=1e300),
                SynthesisInfo("t", Tool("mock-hls", "1.0", "mockpart"), 10.0),
            )
        code, out, err = run(capsys, "--db", db, "analyze", "1", "--objectives", "latency_ns")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestExportImport:
    def test_round_trip(self, capsys, tmp_path, toy_csd):
        db1 = str(tmp_path / "a.sqlite")
        db2 = str(tmp_path / "b.sqlite")
        dump = tmp_path / "space.jsonl"
        run(capsys, "--db", db1, "run", toy_csd)
        code, _, _ = run(capsys, "--db", db1, "export", "1", "--out", str(dump))
        assert code == 0
        code, out, _ = run(capsys, "--db", db2, "--format", "json", "import", str(dump))
        assert code == 0
        counts = json.loads(out)
        assert counts["configuration"] == 24
        assert counts["implementation"] == 24
        code, out, _ = run(capsys, "--db", db2, "--format", "json", "query", "1")
        assert json.loads(out)["ok"] == 24

    def test_sql_export(self, capsys, tmp_path, toy_csd):
        db1 = str(tmp_path / "a.sqlite")
        dump = tmp_path / "space.sql"
        run(capsys, "--db", db1, "run", toy_csd)
        code, _, _ = run(
            capsys, "--db", db1, "export", "1",
            "--export-format", "sql", "--out", str(dump),
        )
        assert code == 0
        assert "INSERT INTO configuration" in dump.read_text()

    def test_import_missing_file(self, capsys, db):
        code, _, _ = run(capsys, "--db", db, "import", "/no/such.jsonl")
        assert code == 2


class TestJsonOutputs:
    def test_all_json_outputs_parse(self, capsys, db, toy_csd):
        for argv in (
            ["--db", db, "--format", "json", "init-db"],
            ["--format", "json", "count", REF],
            ["--format", "json", "validate", REF],
            ["--db", db, "--format", "json", "run", toy_csd],
            ["--db", db, "--format", "json", "query", "1"],
            ["--db", db, "--format", "json", "analyze", "1"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            json.loads(out)


# 11 knobs of 63 values each: 63**11 > 2**63 - 1
OVERFLOW = "clock;{10}\n" + "".join(
    f"unroll;f;l{i};{{1->4611686018427387904,pow_2}}\n" for i in range(11)
)


@pytest.fixture
def fault_files(tmp_path):
    """Inputs for the error table, by the placeholder names its argv use."""
    files = {
        "overflow": tmp_path / "overflow.csd",
        "latin1": tmp_path / "latin1.csd",
        "notdb": tmp_path / "notdb.sqlite",
        "badrecord": tmp_path / "bad.jsonl",
        "badvalue": tmp_path / "badvalue.jsonl",
        "db": tmp_path / "test.sqlite",
        "missing": tmp_path / "no" / "such",
    }
    files["overflow"].write_text(OVERFLOW)
    files["latin1"].write_bytes("unroll;f;l\xe9;{1,2}\nclock;{10}\n".encode("latin-1"))
    files["notdb"].write_text("not a database\n" * 100)
    files["badrecord"].write_text('{"table": [1]}\n')
    files["badvalue"].write_text('{"table": "benchmark", "id": 1, "name": [1]}\n')
    return {k: str(v) for k, v in files.items()}


class TestErrorPath:
    @pytest.mark.parametrize(
        "argv, code",
        [
            ("count {overflow}", EXIT_DOMAIN),
            ("expand {overflow}", EXIT_DOMAIN),
            ("--db {db} run {overflow}", EXIT_DOMAIN),
            ("--db {missing}/x.sqlite query 1", EXIT_USAGE),
            ("--db {notdb} query 1", EXIT_USAGE),
            ("count {latin1}", EXIT_DOMAIN),
            ("--db {db} analyze 1 --points-csv {missing}/points.csv", EXIT_USAGE),
            ("--db {db} query 7", EXIT_DOMAIN),
            ("--db {db} import {badrecord}", EXIT_DOMAIN),
            ("--db {db} analyze 1 --objectives latency,area --weights -1 1 0 0", EXIT_DOMAIN),
            ("count {missing}.csd", EXIT_USAGE),
            ("--db {db} import {badvalue}", EXIT_DOMAIN),
            ("--db {db} analyze 1 --mode hv --objectives latency,lut,ff", EXIT_DOMAIN),
        ],
        ids=[
            "overflow-count", "overflow-expand", "overflow-run", "db-missing-dir",
            "db-not-sqlite", "csd-not-utf8", "points-csv-missing-dir", "unknown-space",
            "import-list-table", "negative-weight", "csd-missing", "import-list-value",
            "hv-of-three-objectives",
        ],
    )
    def test_one_error_line(self, capsys, fault_files, toy_csd, argv, code):
        if "analyze" in argv:
            run(capsys, "--db", fault_files["db"], "run", toy_csd)
        got, out, err = run(capsys, *argv.format(**fault_files).split())
        assert got == code
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_overflow_run_writes_no_rows(self, capsys, fault_files):
        code, _, _ = run(capsys, "--db", fault_files["db"], "run", fault_files["overflow"])
        assert code == EXIT_DOMAIN
        with Store(fault_files["db"]) as st:
            st.init_schema()
            for table in ("benchmark", "algorithm", "design", "configuration_space"):
                assert st.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)

    @pytest.mark.parametrize("option", [("--jobs", "0"), ("--limit", "-1")])
    def test_bad_campaign_option_writes_no_rows(self, capsys, db, toy_csd, option):
        code, out, err = run(capsys, "--db", db, "run", toy_csd, *option)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        with Store(db) as st:
            st.init_schema()
            for table in ("benchmark", "algorithm", "design", "configuration_space"):
                assert st.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)

    def test_categorical_clock_run_writes_no_rows(self, capsys, db, tmp_path):
        p = tmp_path / "clock.csd"
        p.write_text("unroll;f;l1;{1,2}\nclock;{fast}\n")
        code, out, err = run(capsys, "--db", db, "run", str(p))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and "CategoricalClock" in err
        with Store(db) as st:
            st.init_schema()
            for table in ("benchmark", "algorithm", "design", "configuration_space",
                          "configuration", "implementation"):
                assert st.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)

    def test_clock_beyond_exact_floats_fails_every_command(self, capsys, db, tmp_path, toy_csd):
        """A clock period above 2**53 has no exact float, the type it is
        stored as; run refuses it before it writes a row."""
        p = tmp_path / "clock.csd"
        p.write_text("unroll;f;l1;{1,2}\nclock;{1" + "0" * 400 + "}\n")
        assert run(capsys, "--db", db, "run", toy_csd, "--limit", "5")[0] == 0

        def counts():
            with Store(db) as st:
                return [st.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone() for t in TABLES]

        before = counts()
        for argv in (["validate", str(p)], ["count", str(p)], ["--db", db, "run", str(p)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_DOMAIN, "")
            assert err == "error: ClockOutOfRange: knob 1: clock periods must be <= 2**53\n"
        assert counts() == before

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_names_the_weights(self, capsys, db, toy_csd, weight):
        run(capsys, "--db", db, "run", toy_csd)
        code, out, err = run(capsys, "--db", db, "analyze", "1", "--objectives",
                             "latency,area", "--weights", weight, "1", "0", "0")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: area weights must be four finite non-negative values\n"

    def test_run_on_space_larger_than_its_descriptor_writes_no_rows(self, capsys, db):
        """A space row whose cardinality is not its descriptor's size is
        refused before any configuration row is written."""
        csd = str(DATA / "local_scan.csd")
        assert run(capsys, "--db", db, "run", csd, "--limit", "1")[0] == 0
        with Store(db) as st:
            with st.conn:
                st.conn.execute("UPDATE configuration_space SET cardinality = 710")
        code, out, err = run(capsys, "--db", db, "run", csd)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: space cardinality 710 is not the size of its descriptor, 704\n"
        with Store(db) as st:
            assert st.conn.execute("SELECT COUNT(*) FROM configuration").fetchone() == (1,)

    def test_analyze_two_tools_fails(self, capsys, db, toy_csd):
        with Store(db) as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            rec = st.register_space(did, parse_csd(Path(toy_csd).read_text()), "t")
            for tool in ("tool-a", "tool-b"):
                backend = BackendSpec(kind="mock", tool=Tool(tool, "1.0", "mockpart"))
                run_campaign(st, Campaign(space_id=rec.id, backend=backend))
        code, out, err = run(capsys, "--db", db, "analyze", str(rec.id))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "tool-a 1.0 on" in err and "tool-b 1.0 on" in err

    def test_memory_error_is_one_line(self, capsys, monkeypatch, db, toy_csd):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(Store, "iter_pending", exhausted)
        code, out, err = run(capsys, "--db", db, "run", toy_csd)
        assert (code, out, err) == (EXIT_USAGE, "", "error: out of memory\n")

    def test_analyze_disjoint_tools_fails(self, capsys, db):
        with Store(db) as st:
            st.init_schema()
            space_id = record_disjoint_tools(st)
        code, out, err = run(capsys, "--db", db, "analyze", str(space_id))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == (
            f"error: space {space_id} has ok results of more than one tool,"
            " from tool-a 1.0 on mockpart, tool-b 1.0 on mockpart\n"
        )

    def test_reads_write_nothing(self, capsys, db, toy_csd, tmp_path):
        """query, export and analyze append no frame to a current store's
        write-ahead log."""
        assert run(capsys, "--db", db, "run", toy_csd)[0] == 0
        wal = Path(db + "-wal")
        # a second connection keeps the store open, so that no command's
        # close checkpoints the log or deletes it
        with contextlib.closing(sqlite3.connect(db)) as held:
            held.execute("SELECT COUNT(*) FROM implementation").fetchone()
            size = wal.stat().st_size
            for argv in (["query", "1"], ["export", "1", "--out", str(tmp_path / "e.jsonl")],
                         ["analyze", "1"]):
                assert run(capsys, "--db", db, *argv)[0] == 0
                assert wal.stat().st_size == size, argv

    def test_validate_diagnostics_are_error_lines(self, capsys, tmp_path):
        p = tmp_path / "bad.csd"
        p.write_text("unroll;f;l1;{1,2}\nunroll;f;l1;{1,2}\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == EXIT_DOMAIN and out == ""
        lines = err.splitlines()
        assert len(lines) >= 2 and all(line.startswith("error: ") for line in lines)

    def test_unknown_strategy_is_usage_error(self, capsys, db):
        code, out, err = run(capsys, "--db", db, "analyze", "1", "--mode", "eval",
                             "--strategy", "nope")
        assert code == EXIT_USAGE
        assert "invalid choice" in err

    def test_retired_adrs_mode_is_usage_error(self, capsys, db):
        code, out, err = run(capsys, "--db", db, "analyze", "1", "--mode", "adrs")
        assert (code, out) == (EXIT_USAGE, "")
        assert "invalid choice" in err and "adrs" in err

    def test_bad_jobs_env_fails_run_only(self, capsys, monkeypatch, toy_csd, db):
        monkeypatch.setenv("HLSDSE_JOBS", "many")
        code, out, _ = run(capsys, "count", REF)
        assert (code, out.strip()) == (0, "1600")
        code, out, err = run(capsys, "--db", db, "run", toy_csd)
        assert code == EXIT_USAGE
        assert "--jobs" in err and "Traceback" not in err
        monkeypatch.setenv("HLSDSE_JOBS", "3")
        assert build_parser().parse_args(["run", toy_csd]).jobs == 3

    def test_process_exit_code(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(hlsdse.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "hlsdse.cli", "--db", str(tmp_path / "no" / "x.sqlite"),
             "query", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == "error: unable to open database file\n"
