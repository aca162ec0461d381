import json
from pathlib import Path

import pytest

from hlsdse.cli import EXIT_DOMAIN, main

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


class TestInitDb:
    def test_creates_tables(self, capsys, db):
        code, out, _ = run(capsys, "--db", db, "--format", "json", "init-db")
        assert code == 0
        assert len(json.loads(out)["tables"]) == 9


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

    def test_adrs_self_zero(self, capsys, populated):
        code, out, _ = run(capsys, "--db", populated, "analyze", "1", "--mode", "adrs")
        assert json.loads(out)["adrs"] == 0.0

    def test_hv(self, capsys, populated):
        code, out, _ = run(capsys, "--db", populated, "analyze", "1", "--mode", "hv")
        assert json.loads(out)["hypervolume"] >= 0

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
        from hlsdse.space import build_index
        from hlsdse.store import Store, SynthesisInfo

        csd = parse_csd(TOY)
        with Store(db) as st:
            st.init_schema()
            rec = st.register_space(st.ensure_design("b", "a", "d"), csd, "t")
            (cfg,) = st.add_configurations(rec.id, [(0, build_index(csd).decode(0))])
            st.record_result(
                cfg.id,
                ImplementationResult(status="ok", latency_cycles=100, achieved_period_ns=-1.0),
                SynthesisInfo("t", "mock-hls", "1.0", "mockpart", 10.0),
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
