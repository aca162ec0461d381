"""Synthesis campaign orchestration.

A campaign drains the pending configurations of a registered space: up to K
backend instances run concurrently, each completed result is committed to the
store before its worker slot is reused, and a JSON-lines event log makes runs
resumable after a crash. Two backends are provided: a deterministic mock
(for desk-scale testing and strategy evaluation) and an external-tool adapter
that renders a directive script, invokes a user-supplied command, and parses
the produced report.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import signal
import subprocess
import time
import xml.etree.ElementTree as ET
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .dsl import CSD
from .space import Configuration, build_index
from .store import ConfigRecord, Store, SynthesisInfo


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
    tool_name: str = "mock-hls"
    tool_version: str = "1.0"
    fpga_part: str = "mockpart"
    command: Optional[str] = None  # placeholders: {config_dir} {design_src} {script}
    timeout_s: float = 4 * 3600.0
    report_pattern: str = "report.xml"
    report_format: str = "xml"  # xml | json

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.kind == "external_tool":
            if not self.command:
                raise ValueError("external_tool backend requires a command template")
            for ph in ("{config_dir}", "{design_src}", "{script}"):
                if ph not in self.command:
                    raise ValueError(f"command template missing placeholder {ph}")


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
        return {
            "attempted": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "timeout": self.timeout,
            "pending_after": self.pending_after,
            "wall_time_s": round(self.wall_time_s, 3),
            "max_in_flight": self.max_in_flight,
        }


# -- directive script generation -----------------------------------------


def generate_directive_script(config: Configuration, csd: CSD) -> str:
    """Render the Tcl directive script for one configuration.

    Deterministic: the same configuration always yields byte-identical text.
    """
    lines = []
    for knob, values in zip(csd.knobs, config.assignments):
        kind = knob.directive.token
        fn, tgt = knob.function, knob.target
        if kind == "resource":
            (core,) = values
            lines.append(f'set_directive_resource -core {core.render()} "{fn}" {tgt}')
        elif kind == "array_partition":
            ptype, factor = values
            dim = knob.fixed_params[0]
            lines.append(
                f"set_directive_array_partition -type {ptype.render()}"
                f' -factor {factor.render()} -dim {dim} "{fn}" {tgt}'
            )
        elif kind == "unroll":
            (factor,) = values
            lines.append(f'set_directive_unroll -factor {factor.render()} "{fn}/{tgt}"')
        elif kind == "pipeline":
            (ii,) = values
            lines.append(f'set_directive_pipeline -II {ii.render()} "{fn}/{tgt}"')
        elif kind == "inline":
            (mode,) = values
            flag = " -off" if mode.render() == "off" else ""
            lines.append(f'set_directive_inline{flag} "{fn}"')
        elif kind == "clock":
            (period,) = values
            lines.append(f"create_clock -period {period.render()}")
        else:
            raise ValueError(f"no script renderer for directive {kind!r}")
    return "\n".join(lines) + "\n"


# -- report parsing -------------------------------------------------------


def parse_report(raw: bytes, fmt: str) -> ImplementationResult:
    """Extract resources and latency from a backend report.

    Malformed input yields a synth_error result with a diagnostic; this
    function never raises on bad report content.
    """
    try:
        if fmt == "json":
            data = json.loads(raw.decode())
            return ImplementationResult(
                status="ok",
                ff=int(data["ff"]),
                lut=int(data["lut"]),
                bram=int(data["bram"]),
                dsp=int(data["dsp"]),
                latency_cycles=int(data["lat"]),
                achieved_period_ns=float(data["period"]),
            )
        if fmt == "xml":
            root = ET.fromstring(raw.decode())

            def text(path):
                node = root.find(path)
                if node is None or node.text is None:
                    raise KeyError(path)
                return node.text.strip()

            return ImplementationResult(
                status="ok",
                ff=int(text("./AreaEstimates/Resources/FF")),
                lut=int(text("./AreaEstimates/Resources/LUT")),
                bram=int(text("./AreaEstimates/Resources/BRAM_18K")),
                dsp=int(text("./AreaEstimates/Resources/DSP48E")),
                latency_cycles=int(
                    text("./PerformanceEstimates/SummaryOfOverallLatency/Worst-caseLatency")
                ),
                achieved_period_ns=float(
                    text("./PerformanceEstimates/SummaryOfTimingAnalysis/EstimatedClockPeriod")
                ),
            )
        return ImplementationResult(
            status="synth_error", diagnostic=f"unknown report format {fmt!r}"
        )
    except (ValueError, KeyError, ET.ParseError, UnicodeDecodeError) as e:
        return ImplementationResult(
            status="synth_error", diagnostic=f"unparseable report: {e}"
        )


# -- mock backend ---------------------------------------------------------

_MOCK_BASE_WORK = 1 << 16


def _stable_hash(*parts) -> int:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


def mock_synthesize(config: Configuration, csd: CSD, seed: int) -> ImplementationResult:
    """Deterministic synthetic synthesis outcome.

    Qualitative shape: latency falls (never rises) with larger unroll
    factors; LUT/FF/DSP grow (never shrink) with unroll and partition
    factors. Noise is derived only from the categorical choices and the
    seed, so the monotonicity holds exactly.
    """
    unroll = 1
    partition = 1
    categorical: list[str] = []
    for knob, values in zip(csd.knobs, config.assignments):
        kind = knob.directive.token
        if kind == "unroll":
            unroll *= int(values[0].raw)
        elif kind == "array_partition":
            categorical.append(values[0].render())
            partition *= int(values[1].raw)
        elif kind == "pipeline":
            unroll *= max(1, int(values[0].raw))
        else:
            categorical.append(",".join(v.render() for v in values))
    noise = _stable_hash(seed, *sorted(categorical))
    lat_noise = noise % 97
    res_noise = (noise >> 8) % 53
    latency = -(-_MOCK_BASE_WORK // unroll) + lat_noise
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
    report_path = config_dir / backend.report_pattern
    report_path.unlink(missing_ok=True)
    cmd = backend.command.format(
        config_dir=str(config_dir),
        design_src=campaign.design_src,
        script=str(script_path),
    )
    start = time.monotonic()
    # the tool leads its own process group, so a timeout ends every process
    # it started, not only the one it was launched as
    with subprocess.Popen(
        shlex.split(cmd),
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
            return ImplementationResult(
                status="timeout", duration_s=time.monotonic() - start
            )
    duration = time.monotonic() - start
    if proc.returncode != 0 or not report_path.exists():
        return ImplementationResult(
            status="synth_error",
            duration_s=duration,
            diagnostic=f"tool exit {proc.returncode}",
        )
    result = parse_report(report_path.read_bytes(), backend.report_format)
    return ImplementationResult(
        **{
            **result.__dict__,
            "duration_s": duration,
            "raw_report_ref": str(report_path),
        }
    )


def _synthesize_one(
    backend: BackendSpec, config: Configuration, csd: CSD, campaign: Campaign
) -> ImplementationResult:
    if backend.kind == "mock":
        return mock_synthesize(config, csd, campaign.seed)
    return _run_external(backend, config, csd, campaign)


class _EventLog:
    def __init__(self, path: Optional[str]):
        self.path = path
        self._fh = open(path, "a") if path else None

    def emit(self, event: str, record: ConfigRecord, **extra):
        if self._fh is None:
            return
        obj = {
            "event": event,
            "config_id": record.id,
            "idx": record.idx,
            "config_key": record.config_key,
            "ts": time.time(),
            **extra,
        }
        self._fh.write(json.dumps(obj) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()


# configuration rows written per transaction ahead of their attempts
_ROW_CHUNK = 256


def run_campaign(store: Store, campaign: Campaign) -> CampaignReport:
    """Attempt every pending configuration of the space, at most K at a time.

    Each completed result is committed before a new job is submitted into the
    freed slot, so an interrupted campaign can resume from the store alone.
    """
    backend = campaign.backend
    csd = store.space_csd(campaign.space_id)
    index = build_index(csd)
    pending = store.pending_configurations(
        campaign.space_id, backend.tool_name, backend.tool_version, backend.fpga_part
    )
    if campaign.limit is not None:
        pending = pending[: campaign.limit]

    def attempts():
        """(row, configuration) per pending point; the rows of each chunk
        are written in one transaction just before its first attempt."""
        for lo in range(0, len(pending), _ROW_CHUNK):
            chunk = [(i, index.decode(i)) for i in pending[lo : lo + _ROW_CHUNK]]
            records = store.add_configurations(campaign.space_id, chunk)
            yield from zip(records, (config for _, config in chunk))

    clock_knob = next(i for i, knob in enumerate(csd.knobs) if knob.is_clock)

    report = CampaignReport()
    log = _EventLog(campaign.log_path)
    start = time.monotonic()
    queue = attempts()
    in_flight: dict = {}

    def submit(executor):
        record, config = next(queue, (None, None))
        if record is None:
            return False
        log.emit("start", record)
        fut = executor.submit(_synthesize_one, backend, config, csd, campaign)
        in_flight[fut] = (record, float(config.assignments[clock_knob][0].raw))
        report.max_in_flight = max(report.max_in_flight, len(in_flight))
        return True

    try:
        with ThreadPoolExecutor(max_workers=campaign.jobs) as executor:
            for _ in range(campaign.jobs):
                if not submit(executor):
                    break
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for fut in done:
                    record, clock_period = in_flight.pop(fut)
                    try:
                        result = fut.result()
                    except Exception as e:  # backend invocation failure
                        result = ImplementationResult(
                            status="synth_error", diagnostic=str(e)
                        )
                    info = SynthesisInfo(
                        contributor=campaign.contributor,
                        tool_name=backend.tool_name,
                        tool_version=backend.tool_version,
                        fpga_part=backend.fpga_part,
                        clock_period_ns=clock_period,
                    )
                    store.record_result(record.id, result, info)
                    report.attempted += 1
                    if result.status == "ok":
                        report.ok += 1
                        log.emit("done", record)
                    elif result.status == "timeout":
                        report.timeout += 1
                        log.emit("timeout", record)
                    else:
                        report.failed += 1
                        log.emit("fail", record, diagnostic=result.diagnostic)
                    submit(executor)
    finally:
        log.close()

    report.pending_after = len(
        store.pending_configurations(
            campaign.space_id,
            backend.tool_name,
            backend.tool_version,
            backend.fpga_part,
        )
    )
    report.wall_time_s = time.monotonic() - start
    return report
