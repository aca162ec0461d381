import hashlib
import json
import os
import shlex
import signal
import subprocess
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from hlsdse import space
from hlsdse.dsl import parse_csd
from hlsdse.orchestrator import (
    BackendSpec,
    Campaign,
    generate_directive_script,
    mock_synthesize,
    parse_report,
    run_campaign,
)
from hlsdse.space import build_index, enumerate_space
from hlsdse.store import Store

from conftest import DATA, random_csds

MOCK = BackendSpec(kind="mock")
SAMPLE_REPORT = Path(__file__).parent / "data" / "sample_report.xml"
# a tool that leaves a background child behind, writes both pids to its
# sandbox, then outlives any short timeout
LINGERING_TOOL = (
    "sh -c 'sleep 30 & echo $$ $! > \"$0/pids\"; sleep 30'"
    " {config_dir} {design_src} {script}"
)
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")


def live(pid=None, pgid=None):
    """Processes, not zombies, with this pid or in this group."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        state, _, pgrp = text[text.rindex(")") + 2 :].split()[:3]
        p = int(stat.parent.name)
        if state not in "ZX" and (p == pid or int(pgrp) == pgid):
            found.append(p)
    return found


@pytest.fixture
def populated_store(local_scan_text):
    st = Store(":memory:")
    st.init_schema()
    did = st.ensure_design("radix_sort", "scan", "local_scan", function_name="local_scan")
    rec = st.register_space(did, parse_csd(local_scan_text), "test")
    yield st, rec
    st.close()


class TestDirectiveScript:
    def test_reference_script(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        index = build_index(csd)
        # pick the configuration whose bound factor is 8 and strategies cyclic
        for cfg in enumerate_space(csd):
            vals = [tuple(v.raw for v in a) for a in cfg.assignments]
            if (
                vals[2] == ("cyclic", 1)
                and vals[3] == ("cyclic", 8)
                and vals[5] == (1,)
            ):
                break
        script = generate_directive_script(cfg, csd)
        lines = script.splitlines()
        assert (
            'set_directive_unroll -factor 8 "last_step_scan/last_1"' in lines
        )
        assert (
            'set_directive_resource -core RAM_2P_BRAM "last_step_scan" bucket'
            in lines
        )
        assert (
            "set_directive_array_partition -type cyclic -factor 8 -dim 1"
            ' "last_step_scan" sum' in lines
        )
        assert "create_clock -period 10" in lines

    def test_clock_line(self):
        csd = parse_csd("clock;{10}")
        cfg = next(iter(enumerate_space(csd)))
        assert generate_directive_script(cfg, csd) == "create_clock -period 10\n"

    def test_deterministic(self, local_scan_text):
        csd = parse_csd(local_scan_text)
        cfg = build_index(csd).decode(17)
        assert generate_directive_script(cfg, csd) == generate_directive_script(cfg, csd)

    @pytest.mark.parametrize(
        "text, digest",
        [
            ((DATA / "last_step_scan.csd").read_text(),
             "a1fdda6b670c3d811fb1adafc79e4118d44357352e693ce896315f4202654d17"),
            ((DATA / "local_scan.csd").read_text(),
             "08f24ff7be026a4f6f4d65ab8d5ffeee3f483b90ee5bc52600fbe698c85f9a1e"),
            ("pipeline;f;l;{1,2,4}\n"
             "inline;f;g;{on,off}\n"
             "unroll;f;l;{1->8,pow_2}\n"
             "resource;f;a;{RAM_1P_BRAM,RAM_2P_BRAM}\n"
             "array_partition;f;b;2;{cyclic,block};{1->6,div}\n"
             "clock;{5,10}\n",
             "8e5c576d6c5b6e5d2028ebc7dd8fef18a9b1022339decbcccf71178c2ecfc260"),
        ],
        ids=["last_step_scan", "local_scan", "every-kind"],
    )
    def test_every_script_pinned(self, text, digest):
        """The sha256 of all scripts of a space, in index order, as rendered
        by the per-kind renderer that the directive table replaced."""
        csd = parse_csd(text)
        index = build_index(csd)
        scripts = "".join(generate_directive_script(index.decode(i), csd)
                          for i in range(index.total))
        assert hashlib.sha256(scripts.encode()).hexdigest() == digest

    def test_inline_modes_render_apart(self):
        csd = parse_csd("inline;f;g;{off,on,recursive,region}\nclock;{10}")
        assert [generate_directive_script(c, csd).splitlines()[0]
                for c in enumerate_space(csd)] == [
            'set_directive_inline -off "f"',
            'set_directive_inline "f"',
            'set_directive_inline -recursive "f"',
            'set_directive_inline -region "f"',
        ]

    @settings(max_examples=60, deadline=None)
    @given(random_csds(max_knobs=3, max_values=4))
    def test_configurations_render_distinct_scripts(self, csd):
        """Two points of a space are two different syntheses."""
        scripts = [generate_directive_script(c, csd) for c in enumerate_space(csd)]
        assert len(set(scripts)) == len(scripts)


class TestParseReport:
    def test_mock_json(self):
        raw = b'{"ff":10,"lut":20,"bram":1,"dsp":0,"lat":100,"period":9.5}'
        r = parse_report(raw, "json")
        assert r.status == "ok"
        assert (r.ff, r.lut, r.bram, r.dsp) == (10, 20, 1, 0)
        assert r.latency_cycles == 100
        assert r.achieved_period_ns == 9.5

    def test_truncated_xml(self):
        r = parse_report(b"<profile><AreaEst", "xml")
        assert r.status == "synth_error"
        assert "unparseable report" in r.diagnostic

    def test_golden_xml(self, sample_report_xml):
        r = parse_report(sample_report_xml, "xml")
        assert r.status == "ok"
        assert (r.ff, r.lut, r.bram, r.dsp) == (1287, 2634, 14, 3)
        assert r.latency_cycles == 4161
        assert r.achieved_period_ns == 8.51

    def test_xml_in_its_declared_encoding(self, sample_report_xml):
        """A report is parsed from its bytes, in the encoding it declares."""
        raw = sample_report_xml.replace(b'encoding="UTF-8"', b'encoding="ISO-8859-1"', 1)
        raw = raw.replace(b"<profile>", "<profile><!-- r\u00e9sum\u00e9 -->".encode("latin-1"), 1)
        assert b"\xe9" in raw
        r = parse_report(raw, "xml")
        assert (r.status, r.lut, r.latency_cycles) == ("ok", 2634, 4161)

    def test_missing_fields(self):
        r = parse_report(b"<profile></profile>", "xml")
        assert r.status == "synth_error"

    def test_bad_json(self):
        assert parse_report(b"{not json", "json").status == "synth_error"

    def test_unknown_format(self):
        """An unknown format is a failed report, not an exception."""
        r = parse_report(b"ff: 10", "yaml")
        assert r.status == "synth_error"
        assert r.diagnostic == "unparseable report: unknown report format 'yaml'"


def _xml_report(**values):
    """The sample report with some element texts replaced, by tag."""
    root = ET.fromstring(SAMPLE_REPORT.read_bytes())
    for tag, text in values.items():
        root.find(f".//{tag}").text = text
    return ET.tostring(root)


_JSON_OK = {"ff": 10, "lut": 20, "bram": 1, "dsp": 0, "lat": 100, "period": 9.5}


def _json_report(**values):
    return json.dumps({**_JSON_OK, **values}).encode()


# (format, JSON key or XML tag, bad value, result field named in the diagnostic)
_BAD_VALUES = [
    ("xml", "EstimatedClockPeriod", "nan", "achieved_period_ns"),
    ("xml", "EstimatedClockPeriod", "inf", "achieved_period_ns"),
    ("xml", "EstimatedClockPeriod", "-1", "achieved_period_ns"),
    ("xml", "EstimatedClockPeriod", "0", "achieved_period_ns"),
    ("xml", "FF", "-5", "ff"),
    ("xml", "Worst-caseLatency", "-3", "latency_cycles"),
    ("xml", "LUT", str(2**63), "lut"),
    ("json", "period", "nan", "achieved_period_ns"),
    ("json", "period", 1e400, "achieved_period_ns"),
    ("json", "period", 10**400, "achieved_period_ns"),
    ("json", "period", -2.5, "achieved_period_ns"),
    ("json", "ff", None, "ff"),
    ("json", "ff", 1.7, "ff"),
    ("json", "ff", True, "ff"),
    ("json", "dsp", [1], "dsp"),
    ("json", "bram", -1, "bram"),
    ("json", "lat", -1, "latency_cycles"),
    ("json", "lut", 2**63, "lut"),
]


class TestReportValues:
    """Counts must be integers in [0, 2**63) and the period finite and > 0;
    any other value is a synth_error naming the field, in either format."""

    @pytest.mark.parametrize(
        "fmt, key, value, field",
        _BAD_VALUES,
        ids=[f"{fmt}-{key}={value!r:.12}" for fmt, key, value, _ in _BAD_VALUES],
    )
    def test_bad_value_is_synth_error(self, fmt, key, value, field):
        report = _xml_report if fmt == "xml" else _json_report
        r = parse_report(report(**{key: value}), fmt)
        assert r.status == "synth_error"
        assert field in r.diagnostic

    @pytest.mark.parametrize("raw", [b"[1]", b"null", b'"ff"'])
    def test_json_not_an_object(self, raw):
        r = parse_report(raw, "json")
        assert r.status == "synth_error"
        assert "not a JSON object" in r.diagnostic

    @pytest.mark.parametrize(
        "raw, fmt",
        [
            pytest.param(_xml_report(FF=" 7 ", EstimatedClockPeriod="1e1"), "xml", id="xml"),
            pytest.param(_json_report(ff="7", period=10), "json", id="json"),
        ],
    )
    def test_number_forms(self, raw, fmt):
        r = parse_report(raw, fmt)
        assert (r.status, r.ff, r.achieved_period_ns) == ("ok", 7, 10.0)
        assert type(r.ff) is int and type(r.achieved_period_ns) is float


class TestMockBackend:
    def test_deterministic(self, local_scan_text):
        csd = parse_csd(local_scan_text)
        cfg = build_index(csd).decode(42)
        assert mock_synthesize(cfg, csd, 7) == mock_synthesize(cfg, csd, 7)

    def test_unroll_monotonicity(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        index = build_index(csd)
        by_unroll = {}
        for cfg in enumerate_space(csd):
            vals = [tuple(v.raw for v in a) for a in cfg.assignments]
            if vals[2] == ("cyclic", 1) and vals[3][0] == "cyclic" and vals[5] == (1,):
                by_unroll[vals[4][0]] = mock_synthesize(cfg, csd, 0)
        assert set(by_unroll) == {1, 2, 4, 8, 16, 32, 64, 128}
        assert by_unroll[128].latency_cycles <= by_unroll[1].latency_cycles
        assert by_unroll[128].lut >= by_unroll[1].lut
        factors = sorted(by_unroll)
        for a, b in zip(factors, factors[1:]):
            assert by_unroll[b].latency_cycles <= by_unroll[a].latency_cycles
            assert by_unroll[b].lut >= by_unroll[a].lut
            assert by_unroll[b].ff >= by_unroll[a].ff
            assert by_unroll[b].dsp >= by_unroll[a].dsp

    def test_pipeline_ii_monotonicity(self):
        """A new iteration starts every II cycles: latency rises with II,
        resources do not."""
        csd = parse_csd("pipeline;f;l;{1,2,4,8}\nclock;{10}")
        results = [mock_synthesize(cfg, csd, 0) for cfg in enumerate_space(csd)]
        assert len(results) == 4
        for a, b in zip(results, results[1:]):
            assert b.latency_cycles > a.latency_cycles
            assert b.lut <= a.lut
            assert b.ff <= a.ff
            assert b.dsp <= a.dsp

    def test_front_nondegenerate(self, local_scan_text):
        from hlsdse.analytics import DesignPoint, pareto_front

        csd = parse_csd(local_scan_text)
        points = []
        for i, cfg in enumerate(enumerate_space(csd)):
            r = mock_synthesize(cfg, csd, 3)
            points.append(DesignPoint((float(r.latency_cycles), float(r.lut)), i))
        assert len(pareto_front(points)) >= 2


class TestRunCampaign:
    def test_full_campaign(self, populated_store):
        st, rec = populated_store
        report = run_campaign(
            st, Campaign(space_id=rec.id, backend=MOCK, jobs=8, seed=1)
        )
        assert report.ok == 704
        assert report.failed == report.timeout == 0
        assert report.pending_after == 0
        assert report.max_in_flight <= 8
        assert st.count_implementations(rec.id, "ok") == 704

    def test_rows_written_on_attempt(self, populated_store):
        st, rec = populated_store

        def check_rows(n):
            rows = st.conn.execute(
                "SELECT id, idx FROM configuration WHERE space_id=? ORDER BY id",
                (rec.id,),
            ).fetchall()
            # ids follow idx order, and a row exists only once attempted
            assert [r[1] for r in rows] == list(range(n))
            assert [r[0] for r in rows] == list(range(1, n + 1))

        assert st.configurations(rec.id) == []
        run_campaign(st, Campaign(space_id=rec.id, backend=MOCK, jobs=4, limit=300))
        check_rows(300)
        run_campaign(st, Campaign(space_id=rec.id, backend=MOCK, jobs=4))
        check_rows(704)

    def test_jobs_independent_results(self, local_scan_text):
        results = []
        for jobs in (1, 8):
            with Store(":memory:") as st:
                st.init_schema()
                did = st.ensure_design("b", "a", "d")
                rec = st.register_space(did, parse_csd(local_scan_text), "t")
                run_campaign(
                    st, Campaign(space_id=rec.id, backend=MOCK, jobs=jobs, seed=5)
                )
                results.append(
                    sorted(
                        (p.configuration_id, p.values)
                        for p in st.fetch_points(rec.id, ["latency", "lut"])
                    )
                )
        assert results[0] == results[1]

    def test_resume_attempts_complement(self, populated_store, tmp_path):
        st, rec = populated_store
        log1 = tmp_path / "run1.jsonl"
        log2 = tmp_path / "run2.jsonl"
        run_campaign(
            st,
            Campaign(
                space_id=rec.id, backend=MOCK, jobs=4, seed=1,
                limit=352, log_path=str(log1),
            ),
        )
        assert len(st.pending_configurations(rec.id)) == 352
        run_campaign(
            st,
            Campaign(space_id=rec.id, backend=MOCK, jobs=4, seed=1, log_path=str(log2)),
        )

        def attempted(path):
            ids = set()
            for line in path.read_text().splitlines():
                obj = json.loads(line)
                if obj["event"] == "start":
                    ids.add(obj["config_id"])
            return ids

        first, second = attempted(log1), attempted(log2)
        all_ids = {c.id for c in st.configurations(rec.id)}
        assert first & second == set()
        assert first | second == all_ids
        assert st.count_implementations(rec.id) == 704
        assert st.pending_configurations(rec.id) == []

    def test_rerun_is_noop(self, populated_store):
        st, rec = populated_store
        run_campaign(st, Campaign(space_id=rec.id, backend=MOCK, jobs=4))
        report = run_campaign(st, Campaign(space_id=rec.id, backend=MOCK, jobs=4))
        assert report.attempted == 0
        assert st.count_implementations(rec.id) == 704

    def test_concurrency_cap(self, populated_store):
        st, rec = populated_store
        report = run_campaign(
            st, Campaign(space_id=rec.id, backend=MOCK, jobs=3, limit=50)
        )
        assert report.max_in_flight <= 3

    def test_clock_period_per_configuration(self, local_scan_text):
        text = local_scan_text.replace("clock;{10}", "clock;{5,10}")
        csd = parse_csd(text)
        st = Store(":memory:")
        st.init_schema()
        did = st.ensure_design("radix_sort", "scan", "local_scan")
        rec = st.register_space(did, csd, "test")
        run_campaign(st, Campaign(space_id=rec.id, backend=MOCK, jobs=4))
        rows = st.conn.execute(
            "SELECT c.idx, s.clock_period_ns FROM synthesis_info s"
            " JOIN implementation i ON i.id = s.implementation_id"
            " JOIN configuration c ON c.id = i.configuration_id"
            " WHERE c.space_id=?",
            (rec.id,),
        ).fetchall()
        st.close()
        index = build_index(csd)
        clock = next(i for i, k in enumerate(csd.knobs) if k.is_clock)
        assert len(rows) == 1408
        assert {period for _, period in rows} == {5.0, 10.0}
        for idx, period in rows:
            assert period == float(index.decode(idx).assignments[clock][0].raw)

    def test_mock_campaign_derives_no_key(self, populated_store, monkeypatch):
        # without an event log nothing reads a configuration's key, so
        # decoding a point must not hash it
        calls = []

        def sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(space, "hashlib", SimpleNamespace(sha256=sha256))
        st, rec = populated_store
        report = run_campaign(st, Campaign(space_id=rec.id, backend=MOCK, jobs=2))
        assert report.ok == 704
        assert calls == []

    @needs_proc
    def test_timeouts_end_every_tool_group(self, tmp_path):
        backend = BackendSpec(kind="external_tool", command=LINGERING_TOOL, timeout_s=0.3)
        log = tmp_path / "events.jsonl"
        with Store(":memory:") as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            rec = st.register_space(did, parse_csd("unroll;f;l1;{1,2,4,8}\nclock;{10}"), "t")
            campaign = Campaign(
                space_id=rec.id, backend=backend, jobs=2, work_dir=str(tmp_path),
                log_path=str(log),
            )
            report = run_campaign(st, campaign)
            groups = [
                [int(p) for p in pids.read_text().split()]
                for pids in (tmp_path / "sandboxes").glob("*/pids")
            ]
            try:
                assert len(groups) == 4
                assert [live(pid=child) + live(pgid=leader) for leader, child in groups] == [
                    [], [], [], []
                ]
            finally:
                for _, child in groups:
                    for p in live(pid=child):
                        os.kill(p, signal.SIGKILL)
            assert (report.attempted, report.timeout, report.ok, report.failed) == (4, 4, 0, 0)
            assert report.max_in_flight <= 2
            assert st.count_implementations(rec.id, "timeout") == 4
            assert run_campaign(st, campaign).attempted == 0
        events = [json.loads(line)["event"] for line in log.read_text().splitlines()]
        assert sorted(events) == ["start"] * 4 + ["timeout"] * 4

    def test_tool_that_cannot_start_fails_each_attempt(self, tmp_path):
        missing = tmp_path / "no-such-tool"
        backend = BackendSpec(
            kind="external_tool", command=f"{missing} {{config_dir}} {{design_src}} {{script}}"
        )
        log = tmp_path / "events.jsonl"
        with Store(":memory:") as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            rec = st.register_space(did, parse_csd("unroll;f;l1;{1,2,4}\nclock;{10}"), "t")
            report = run_campaign(st, Campaign(
                space_id=rec.id, backend=backend, jobs=2, work_dir=str(tmp_path),
                log_path=str(log),
            ))
            assert (report.attempted, report.failed, report.ok) == (3, 3, 0)
            assert st.count_implementations(rec.id, "synth_error") == 3
        fails = [json.loads(line) for line in log.read_text().splitlines()]
        fails = [e for e in fails if e["event"] == "fail"]
        assert len(fails) == 3
        assert all(str(missing) in e["diagnostic"] for e in fails)

    def test_bad_report_fails_the_attempt_not_the_campaign(self, tmp_path):
        nan_report = tmp_path / "nan_report.xml"
        nan_report.write_bytes(_xml_report(EstimatedClockPeriod="nan"))
        backend = BackendSpec(
            kind="external_tool",
            command=f"sh -c 'cp \"$0\" \"$1/report.xml\"' {shlex.quote(str(nan_report))}"
            " {config_dir} {design_src} {script}",
            timeout_s=30,
        )
        log = tmp_path / "events.jsonl"
        with Store(":memory:") as st:
            st.init_schema()
            did = st.ensure_design("b", "a", "d")
            rec = st.register_space(did, parse_csd("unroll;f;l1;{1,2,4}\nclock;{10}"), "t")
            report = run_campaign(st, Campaign(
                space_id=rec.id, backend=backend, jobs=2, work_dir=str(tmp_path),
                log_path=str(log),
            ))
            assert (report.attempted, report.failed, report.ok) == (3, 3, 0)
            assert st.count_implementations(rec.id, "synth_error") == rec.cardinality
        fails = [json.loads(line) for line in log.read_text().splitlines()]
        fails = [e for e in fails if e["event"] == "fail"]
        assert len(fails) == 3
        assert all("achieved_period_ns" in e["diagnostic"] for e in fails)


class TestBackendSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            BackendSpec(kind="bogus")

    def test_unknown_report_format_rejected(self):
        with pytest.raises(ValueError, match="csv"):
            BackendSpec(kind="mock", report_format="csv")

    def test_limit_not_negative(self):
        with pytest.raises(ValueError):
            Campaign(space_id=1, backend=MOCK, limit=-1)
        assert Campaign(space_id=1, backend=MOCK, limit=0).limit == 0

    def test_external_requires_command(self):
        with pytest.raises(ValueError, match="requires a command template"):
            BackendSpec(kind="external_tool")

    def test_external_requires_placeholders(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="external_tool", command="run_hls")
        BackendSpec(
            kind="external_tool",
            command="run_hls {config_dir} {design_src} {script}",
        )

    @pytest.mark.parametrize(
        "command",
        [
            'awk "{print}" {config_dir} {design_src} {script}',
            "run_hls {0} {config_dir} {design_src} {script}",
            "run_hls {} {config_dir} {design_src} {script}",
            "run_hls {config_dir} {config_dir.name} {design_src} {script}",
            "run_hls {config_dir} {design_src} {script} {script!r}",
            "run_hls {config_dir} {design_src} {script} {script:>40}",
            "run_hls {config_dir} {design_src} {script} }",
            "run_hls {config_dir} {design_src} {script} {",
            "run_hls '{config_dir} {design_src} {script}",
            'run_hls {config_dir} {design_src} "{script}',
        ],
        ids=["other-field", "positional", "auto-numbered", "attribute", "conversion",
             "format-spec", "stray-close", "stray-open", "open-single-quote",
             "open-double-quote"],
    )
    def test_bad_template_refused(self, command):
        """A template that no campaign could fill in fails when the backend is
        built, rather than as a synth_error of every point."""
        with pytest.raises(ValueError):
            BackendSpec(kind="external_tool", command=command)

    def test_template_escapes_and_repeats_accepted(self):
        BackendSpec(
            kind="external_tool",
            command="run_hls '{{x}}' {config_dir} -o {config_dir}/out {design_src} {script}",
        )

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="mock", timeout_s=0)

    def test_jobs_positive(self):
        with pytest.raises(ValueError):
            Campaign(space_id=1, backend=MOCK, jobs=0)


class TestExternalBackend:
    def test_script_backed_run(self, tmp_path):
        # fake tool: a shell script that writes the golden-style report
        import stat
        import textwrap

        from hlsdse.orchestrator import _run_external

        tool = tmp_path / "fake_hls.sh"
        tool.write_text(
            textwrap.dedent(
                """\
                #!/bin/sh
                cat > "$1/report.xml" <<'EOF'
                <profile>
                  <PerformanceEstimates>
                    <SummaryOfTimingAnalysis>
                      <EstimatedClockPeriod>9.0</EstimatedClockPeriod>
                    </SummaryOfTimingAnalysis>
                    <SummaryOfOverallLatency>
                      <Worst-caseLatency>50</Worst-caseLatency>
                    </SummaryOfOverallLatency>
                  </PerformanceEstimates>
                  <AreaEstimates>
                    <Resources>
                      <BRAM_18K>1</BRAM_18K><DSP48E>0</DSP48E>
                      <FF>5</FF><LUT>9</LUT>
                    </Resources>
                  </AreaEstimates>
                </profile>
                EOF
                """
            )
        )
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
        backend = BackendSpec(
            kind="external_tool",
            command=f"{tool} {{config_dir}} {{design_src}} {{script}}",
            timeout_s=30,
        )
        csd = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
        cfg = build_index(csd).decode(0)
        campaign = Campaign(
            space_id=1, backend=backend, design_src="design.c",
            work_dir=str(tmp_path),
        )
        result = _run_external(backend, cfg, csd, campaign)
        assert result.status == "ok"
        assert (result.ff, result.lut) == (5, 9)
        # directive script was materialized in the sandbox
        sandboxes = list((tmp_path / "sandboxes").iterdir())
        assert len(sandboxes) == 1
        assert (sandboxes[0] / "directives.tcl").read_text().startswith(
            "set_directive_unroll"
        )

    def test_each_placeholder_is_one_argument(self, tmp_path):
        """A work dir and a design source holding a space and a quote reach
        the tool as one argument each, as do literal braces."""
        from hlsdse.orchestrator import _run_external

        tool = tmp_path / "args.sh"
        tool.write_text(
            '#!/bin/sh\nprintf "%s\\n" "$#" "$@" > "$2/argv"\n'
            f'cp {shlex.quote(str(SAMPLE_REPORT))} "$2/report.xml"\n'
        )
        tool.chmod(0o755)
        backend = BackendSpec(
            kind="external_tool",
            command=shlex.quote(str(tool)) + " '{{x}}' {config_dir} {design_src} {script}",
            timeout_s=30,
        )
        work_dir = tmp_path / "ext test" / "it's work"
        design_src = str(tmp_path / "my design's top.c")
        csd = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
        cfg = build_index(csd).decode(0)
        campaign = Campaign(
            space_id=1, backend=backend, design_src=design_src, work_dir=str(work_dir)
        )
        result = _run_external(backend, cfg, csd, campaign)
        (config_dir,) = (work_dir / "sandboxes").iterdir()
        assert (config_dir / "argv").read_text().splitlines() == [
            "4", "{x}", str(config_dir), design_src, str(config_dir / "directives.tcl")
        ]
        assert (result.status, result.lut) == ("ok", 2634)

    def test_json_report_read_from_report_json(self, tmp_path):
        from hlsdse.orchestrator import _run_external

        report = tmp_path / "r.json"
        report.write_bytes(_json_report())
        backend = BackendSpec(
            kind="external_tool",
            command=f"sh -c 'cp \"$0\" \"$1/report.json\"' {shlex.quote(str(report))}"
            " {config_dir} {design_src} {script}",
            timeout_s=30,
            report_format="json",
        )
        csd = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
        cfg = build_index(csd).decode(0)
        campaign = Campaign(space_id=1, backend=backend, work_dir=str(tmp_path))
        result = _run_external(backend, cfg, csd, campaign)
        assert (result.status, result.ff, result.latency_cycles) == ("ok", 10, 100)
        assert result.raw_report_ref.endswith("report.json")

    def test_stale_report_not_reused(self, tmp_path):
        from hlsdse.orchestrator import _run_external

        csd = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
        cfg = build_index(csd).decode(0)

        def run(command):
            backend = BackendSpec(kind="external_tool", command=command, timeout_s=30)
            campaign = Campaign(
                space_id=1, backend=backend, design_src="design.c",
                work_dir=str(tmp_path),
            )
            return _run_external(backend, cfg, csd, campaign)

        first = run(
            f"sh -c 'cp \"$0\" \"$1/report.xml\"' {shlex.quote(str(SAMPLE_REPORT))}"
            " {config_dir} {design_src} {script}"
        )
        assert first.status == "ok"
        # same sandbox, but this tool exits 0 without writing a report
        second = run("true {config_dir} {design_src} {script}")
        assert second.status == "synth_error"

    @needs_proc
    def test_timeout_ends_process_group(self, tmp_path):
        from hlsdse.orchestrator import _run_external

        csd = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
        cfg = build_index(csd).decode(0)
        backend = BackendSpec(kind="external_tool", command=LINGERING_TOOL, timeout_s=0.5)
        campaign = Campaign(
            space_id=1, backend=backend, design_src="design.c", work_dir=str(tmp_path)
        )
        result = _run_external(backend, cfg, csd, campaign)
        (pids,) = (tmp_path / "sandboxes").glob("*/pids")
        leader, child = (int(p) for p in pids.read_text().split())
        try:
            assert result.status == "timeout"
            assert live(pid=child) == []
            assert live(pgid=leader) == []
        finally:
            for p in live(pid=child):
                os.kill(p, signal.SIGKILL)


@needs_proc
def test_group_alive_until_its_process_dies():
    """A group with a live process is alive; a killed one is dead once its
    process is a zombie, before it is reaped, and after."""
    from hlsdse.orchestrator import _KILL_WAIT_S, _group_alive, _wait_group_dead

    proc = subprocess.Popen(["sleep", "30"], start_new_session=True)
    try:
        assert _group_alive(proc.pid)
        os.killpg(proc.pid, signal.SIGKILL)
        start = time.monotonic()
        _wait_group_dead(proc.pid)
        assert time.monotonic() - start < _KILL_WAIT_S / 10
        stat = Path(f"/proc/{proc.pid}/stat").read_text()
        assert stat[stat.rindex(")") + 2] == "Z"
        assert not _group_alive(proc.pid)
    finally:
        proc.kill()
        proc.wait()
    assert not _group_alive(proc.pid)
