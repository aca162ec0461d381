"""Synthesis campaign orchestration.

A campaign drains the pending configurations of a registered space, a lazy
stream of indices from ``Store.iter_pending``: up to K backend instances run
concurrently, and each completed result is committed to the store before its
worker slot is reused, so an interrupted campaign resumes from the store
alone; an optional JSON-lines event log records each attempt.
Two backends are provided: a deterministic mock (for desk-scale testing and
strategy evaluation) and an external-tool adapter that renders a directive
script, invokes a user-supplied command, and parses the produced report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import signal
import string
import subprocess
import time
import xml.etree.ElementTree as ET
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Optional

from .dsl import CSD
from .space import Configuration, SpaceIndex
from .store import ConfigRecord, Store, SynthesisInfo, Tool


@dataclass(frozen=True)
class ImplementationResult:
    status: str  # ok | synth_error | timeout
    ff: int = 0
    lut: int = 0
    bram: int = 0
    dsp: int = 0
    latency_cycles: int = 0
    achieved_period_ns: float = 0.0
    duration_s: float = 0.0
    raw_report_ref: Optional[str] = None
    diagnostic: Optional[str] = None


@dataclass(frozen=True)
class BackendSpec:
    kind: str  # mock | external_tool
    tool: Tool = Tool("mock-hls", "1.0", "mockpart")
    command: Optional[str] = None  # placeholders: {config_dir} {design_src} {script}
    timeout_s: float = 4 * 3600.0
    report_format: str = "xml"  # xml | json; the tool writes report.<format>

    def __post_init__(self):
        if self.kind not in ("mock", "external_tool"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.report_format not in ("xml", "json"):
            raise ValueError(f"unknown report format {self.report_format!r}")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.kind == "external_tool":
            if not self.command:
                raise ValueError("external_tool backend requires a command template")
            # split and parsed as _run_external fills it in, so an unbalanced
            # quote or a stray brace raises ValueError here
            fields = {
                "{" + name + (f"!{conv}" if conv else "") + (f":{spec}" if spec else "") + "}"
                for token in shlex.split(self.command)
                for _, name, spec, conv in string.Formatter().parse(token) if name is not None
            }
            if fields != {"{config_dir}", "{design_src}", "{script}"}:
                raise ValueError(f"command template fields {', '.join(sorted(fields))} are not"
                                 " {config_dir}, {design_src} and {script}")


@dataclass
class Campaign:
    space_id: int
    backend: BackendSpec
    jobs: int = 1
    seed: int = 0
    contributor: str = "local"
    design_src: str = ""
    work_dir: Optional[str] = None
    log_path: Optional[str] = None
    limit: Optional[int] = None  # attempt at most this many configs this run

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be >= 0")


@dataclass
class CampaignReport:
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    timeout: int = 0
    pending_after: int = 0
    wall_time_s: float = 0.0
    max_in_flight: int = 0

    def as_dict(self) -> dict:
        return {**asdict(self), "wall_time_s": round(self.wall_time_s, 3)}


# -- directive script generation -----------------------------------------


def generate_directive_script(config: Configuration, csd: CSD) -> str:
    """Render the Tcl directive script for one configuration: each knob's
    ``tcl_line`` in descriptor order.

    Deterministic: the same configuration always yields byte-identical text.
    """
    return "".join(
        knob.tcl_line(values) + "\n" for knob, values in zip(csd.knobs, config.assignments)
    )


# -- report parsing -------------------------------------------------------


# result field -> (JSON key, XML path, type)
_REPORT_FIELDS = {
    "ff": ("ff", "./AreaEstimates/Resources/FF", int),
    "lut": ("lut", "./AreaEstimates/Resources/LUT", int),
    "bram": ("bram", "./AreaEstimates/Resources/BRAM_18K", int),
    "dsp": ("dsp", "./AreaEstimates/Resources/DSP48E", int),
    "latency_cycles": (
        "lat", "./PerformanceEstimates/SummaryOfOverallLatency/Worst-caseLatency", int
    ),
    "achieved_period_ns": (
        "period", "./PerformanceEstimates/SummaryOfTimingAnalysis/EstimatedClockPeriod", float
    ),
}


def _report_value(field: str, raw):
    """``raw``, a report's text or JSON value, as ``field``'s type: a count must
    be an integer in [0, 2**63), SQLite's range, a period a finite number > 0.
    Anything else, fractional counts, booleans and nulls too, raises ValueError."""
    typ = _REPORT_FIELDS[field][2]
    try:
        if type(raw) in (str, int, typ):
            value = typ(raw)
            if (0 <= value < 2**63) if typ is int else (0 < value < math.inf):
                return value
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"bad value for {field}: {raw!r}")


def parse_report(raw: bytes, fmt: str) -> ImplementationResult:
    """Extract resources and latency from a backend report.

    Malformed input, or a missing or out-of-range value, yields a
    synth_error result whose diagnostic names the field; this function never
    raises on bad report content.
    """
    try:
        if fmt == "json":
            data = json.loads(raw.decode())
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            found = {f: data.get(key) for f, (key, _, _) in _REPORT_FIELDS.items()}
        elif fmt == "xml":
            # the bytes, so that the parser honours a declared encoding
            root = ET.fromstring(raw)
            found = {f: root.findtext(path) for f, (_, path, _) in _REPORT_FIELDS.items()}
        else:
            raise ValueError(f"unknown report format {fmt!r}")
        values = {field: _report_value(field, value) for field, value in found.items()}
    except (ValueError, ET.ParseError, UnicodeDecodeError) as e:
        return ImplementationResult(
            status="synth_error", diagnostic=f"unparseable report: {e}"
        )
    return ImplementationResult(status="ok", **values)


# -- mock backend ---------------------------------------------------------

_MOCK_BASE_WORK = 1 << 16


def _stable_hash(*parts) -> int:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


def mock_synthesize(config: Configuration, csd: CSD, seed: int) -> ImplementationResult:
    """Deterministic synthetic synthesis outcome.

    Qualitative shape: latency falls (never rises) with larger unroll
    factors and grows with a pipeline's initiation interval II, since a new
    iteration starts every II cycles; LUT/FF/DSP grow (never shrink) with
    unroll and partition factors, and II leaves them unchanged. Noise is
    derived only from the categorical choices and the seed, so the
    monotonicity holds exactly.
    """
    unroll = 1
    partition = 1
    ii = 1
    categorical: list[str] = []
    for knob, values in zip(csd.knobs, config.assignments):
        kind = knob.directive.token
        if kind == "unroll":
            unroll *= int(values[0].raw)
        elif kind == "array_partition":
            categorical.append(values[0].render())
            partition *= int(values[1].raw)
        elif kind == "pipeline":
            ii *= max(1, int(values[0].raw))
        else:
            categorical.append(",".join(v.render() for v in values))
    noise = _stable_hash(seed, *sorted(categorical))
    lat_noise = noise % 97
    res_noise = (noise >> 8) % 53
    latency = -(-_MOCK_BASE_WORK // unroll) * ii + lat_noise
    lut = 200 + 40 * unroll + 15 * partition + res_noise
    ff = 120 + 25 * unroll + 10 * partition + (res_noise % 17)
    dsp = 2 + unroll // 4 + partition // 8
    bram = 4 + partition // 4
    period = 8.0 + (noise % 200) / 100.0  # within a 10 ns target
    return ImplementationResult(
        status="ok",
        ff=ff,
        lut=lut,
        bram=bram,
        dsp=dsp,
        latency_cycles=latency,
        achieved_period_ns=round(period, 2),
    )


# -- campaign execution ---------------------------------------------------


# how long a killed tool's process group may take to die before its slot
# is freed regardless
_KILL_WAIT_S = 5.0


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is alive; zombies are dead. Where
    there is no /proc, any process of the group, zombie or not, counts."""
    proc = Path("/proc")
    if not proc.is_dir():
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        return True
    for stat in proc.glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process has gone
            continue
        state, _, pgrp = text[text.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state not in "ZX":
            return True
    return False


def _wait_group_dead(pgid: int) -> None:
    """Wait, at most _KILL_WAIT_S, until no process of the killed group
    ``pgid`` is alive. SIGKILL takes effect when each process next runs, so
    an orphaned member can outlive the killpg and the reaped leader."""
    deadline = time.monotonic() + _KILL_WAIT_S
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.005)


def _run_external(
    backend: BackendSpec, config: Configuration, csd: CSD, campaign: Campaign
) -> ImplementationResult:
    work_root = Path(campaign.work_dir or ".") / "sandboxes"
    config_dir = work_root / config.config_key[:16]
    config_dir.mkdir(parents=True, exist_ok=True)
    script_path = config_dir / "directives.tcl"
    script_path.write_text(generate_directive_script(config, csd))
    # the sandbox is reused across runs: a report left by an earlier run must
    # not be scored as this run's
    report_path = config_dir / f"report.{backend.report_format}"
    report_path.unlink(missing_ok=True)
    # each field is filled in within its own argument, so a path holding a
    # space or a quote reaches the tool whole
    fields = {"config_dir": config_dir, "design_src": campaign.design_src, "script": script_path}
    argv = [token.format(**fields) for token in shlex.split(backend.command)]
    start = time.monotonic()
    # the tool leads its own process group, so a timeout ends every process
    # it started, not only the one it was launched as
    with subprocess.Popen(
        argv,
        cwd=config_dir,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            proc.communicate(timeout=backend.timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _wait_group_dead(proc.pid)
            return ImplementationResult(status="timeout", duration_s=time.monotonic() - start)
    duration = time.monotonic() - start
    if proc.returncode != 0 or not report_path.exists():
        return ImplementationResult(
            status="synth_error", duration_s=duration, diagnostic=f"tool exit {proc.returncode}"
        )
    result = parse_report(report_path.read_bytes(), backend.report_format)
    return replace(result, duration_s=duration, raw_report_ref=str(report_path))


def _synthesize_one(
    backend: BackendSpec, config: Configuration, csd: CSD, campaign: Campaign
) -> ImplementationResult:
    if backend.kind == "mock":
        return mock_synthesize(config, csd, campaign.seed)
    return _run_external(backend, config, csd, campaign)


def _emit(log, event: str, record: ConfigRecord, config: Configuration, **extra) -> None:
    """Append one event line about the attempt of ``config``, stored as
    ``record``, to the campaign's log file ``log``, if it keeps one."""
    if log is None:
        return
    obj = {
        "event": event,
        "config_id": record.id,
        "idx": record.idx,
        "config_key": config.config_key,
        "ts": time.time(),
        **extra,
    }
    log.write(json.dumps(obj) + "\n")
    log.flush()


# configuration rows written per transaction ahead of their attempts
_ROW_CHUNK = 256


def run_campaign(
    store: Store, campaign: Campaign, index: Optional[SpaceIndex] = None
) -> CampaignReport:
    """Attempt the space's pending configurations for the backend's tool,
    the first ``campaign.limit`` if set, in index order, at most K at a time.

    The indices come lazily from ``Store.iter_pending`` and their rows are
    written ``_ROW_CHUNK`` at a time, so start-up does not grow with the
    space. Each completed result is committed before a new job is submitted
    into the freed slot, so an interrupted campaign can resume from the store
    alone; ``pending_after`` is then counted in SQL. ``index`` is the space's
    index when the caller has built it already (see ``Store.space_index``).
    """
    backend = campaign.backend
    index = store.space_index(campaign.space_id, index)
    csd = index.csd
    todo = islice(store.iter_pending(campaign.space_id, backend.tool), campaign.limit)

    report = CampaignReport()
    log = open(campaign.log_path, "a") if campaign.log_path else None
    start = time.monotonic()
    in_flight: dict = {}  # future -> (record, configuration)

    def commit(done):
        """Record each finished attempt; only then may its slot be reused."""
        for fut in done:
            record, config = in_flight.pop(fut)
            try:
                result = fut.result()
            except Exception as e:  # backend invocation failure
                result = ImplementationResult(status="synth_error", diagnostic=str(e))
            info = SynthesisInfo(campaign.contributor, backend.tool, config.clock_period_ns)
            store.record_result(record.id, result, info)
            report.attempted += 1
            if result.status == "ok":
                report.ok += 1
                _emit(log, "done", record, config)
            elif result.status == "timeout":
                report.timeout += 1
                _emit(log, "timeout", record, config)
            else:
                report.failed += 1
                _emit(log, "fail", record, config, diagnostic=result.diagnostic)

    with log or nullcontext(), ThreadPoolExecutor(max_workers=campaign.jobs) as executor:
        # the rows of each chunk are written in one transaction just before
        # its first attempt
        for chunk in iter(lambda: list(islice(todo, _ROW_CHUNK)), []):
            records = store.add_configurations(campaign.space_id, chunk)
            for record in records:
                config = index.decode(record.idx)
                if len(in_flight) == campaign.jobs:
                    commit(wait(in_flight, return_when=FIRST_COMPLETED).done)
                _emit(log, "start", record, config)
                fut = executor.submit(_synthesize_one, backend, config, csd, campaign)
                in_flight[fut] = (record, config)
                report.max_in_flight = max(report.max_in_flight, len(in_flight))
        commit(wait(in_flight).done)

    report.pending_after = store.count_pending(campaign.space_id, backend.tool)
    report.wall_time_s = time.monotonic() - start
    return report
