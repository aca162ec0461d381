"""Per-layer timing for the traced run.

``Tracer.install`` swaps timing wrappers in for the public names that
callers look up: module functions under every name any ``hlsdse`` module
binds them to, and methods on their classes. ``uninstall`` puts the
originals back. SQL statements and commits inside ``Store.record_result``
are counted with ``Connection.set_trace_callback``, and bytes written by
campaigns are read as ``wchar`` from ``/proc/self/io``.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import hlsdse
from hlsdse import analytics, cli, dsl, orchestrator, space, store

MODULES = (hlsdse, dsl, space, store, orchestrator, analytics, cli)
PROC_IO = Path("/proc/self/io")


def _wchar() -> int:
    for line in PROC_IO.read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise RuntimeError("no wchar line in /proc/self/io")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.record_ms: list[float] = []
        self.statements = 0
        self.commits = 0
        self.wchar = 0
        self.pending_rows = 0
        self.registered_rows = 0
        self.imported_rows = 0
        self.export_bytes = 0
        self.active = False
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _add(self, name: str, dt: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.seconds[name] += dt

    def _wrap(self, name, fn, impl=None, after=None):
        """Time ``impl`` (default ``fn``) while recording, else call ``fn``."""
        tracer = self
        impl = impl or fn

        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = impl(*args, **kwargs)
            dt = time.perf_counter() - t0
            tracer._add(name(args) if callable(name) else name, dt)
            if after is not None:
                after(args, out, dt)
            return out

        return timed

    def _on_statement(self, sql: str) -> None:
        self.statements += 1
        if sql.lstrip().upper().startswith("COMMIT"):
            self.commits += 1

    # -- installing ----------------------------------------------------------

    def _patch_function(self, fn, name, impl=None, after=None) -> None:
        wrapper = self._wrap(name, fn, impl, after)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, name, impl=None, after=None) -> None:
        fn = getattr(cls, attr)
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, impl, after))

    def _count(self, field, measure):
        def after(args, out, dt):
            with self._lock:
                setattr(self, field, getattr(self, field) + measure(out))

        return after

    def install(self) -> None:
        tracer = self
        Store = store.Store
        record_result = Store.record_result
        run_campaign = orchestrator.run_campaign

        def counted_record(self_, *args, **kwargs):
            self_.conn.set_trace_callback(tracer._on_statement)
            try:
                return record_result(self_, *args, **kwargs)
            finally:
                self_.conn.set_trace_callback(None)

        def written_campaign(*args, **kwargs):
            before = _wchar()
            try:
                return run_campaign(*args, **kwargs)
            finally:
                tracer.wchar += _wchar() - before

        def record_time(args, out, dt):
            tracer.record_ms.append(dt * 1e3)

        def export_size(args, out, dt):
            tracer.export_bytes = len(out)

        def pareto_label(args):
            return f"analytics.pareto_front_{len(args[0][0].values)}d"

        self._patch_function(dsl.parse_csd, "dsl.parse_csd")
        self._patch_function(space.build_index, "space.build_index")
        self._patch_method(space.SpaceIndex, "decode", "space.decode")
        self._patch_method(
            Store, "register_space", "store.register_space",
            after=self._count("registered_rows", lambda rec: rec.cardinality),
        )
        self._patch_method(
            Store, "record_result", "store.record_result", counted_record, record_time
        )
        self._patch_method(
            Store, "pending_configurations", "store.pending_configurations",
            after=self._count("pending_rows", len),
        )
        self._patch_method(Store, "fetch_points", "store.fetch_points")
        self._patch_method(Store, "export_jsonl", "store.export_jsonl", after=export_size)
        self._patch_method(
            Store, "import_jsonl", "store.import_jsonl",
            after=self._count("imported_rows", lambda counts: sum(counts.values())),
        )
        self._patch_function(run_campaign, "orchestrator.run_campaign", written_campaign)
        self._patch_function(orchestrator.mock_synthesize, "orchestrator.mock_synthesize")
        self._patch_function(analytics.pareto_front, pareto_label)
        self._patch_function(analytics.adrs, "analytics.adrs")
        self._patch_function(analytics.hypervolume_2d, "analytics.hypervolume_2d")
        self._patch_function(analytics.evaluate_strategy, "analytics.evaluate_strategy")
        self._patch_method(analytics.SpaceOracle, "query", "analytics.oracle_query")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- reporting -----------------------------------------------------------

    def per_layer(self, rounds: int, cli_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer figures, each per traced round unless it is a ratio."""
        s, n = self.seconds, self.calls
        results = n["store.record_result"]
        quart = statistics.quantiles(self.record_ms, n=100)
        out = {
            "dsl.parse_csd_s": s["dsl.parse_csd"] / rounds,
            "space.build_index_s": s["space.build_index"] / rounds,
            "space.decode_calls": n["space.decode"] / rounds,
            "space.decode_s": s["space.decode"] / rounds,
            "store.register_space_s": s["store.register_space"] / rounds,
            "store.register_configs_per_s": self.registered_rows / s["store.register_space"],
            "store.record_result_calls": results / rounds,
            "store.record_result_s": s["store.record_result"] / rounds,
            "store.record_result_p50_ms": statistics.median(self.record_ms),
            "store.record_result_p99_ms": quart[98],
            "store.statements_per_result": self.statements / results,
            "store.commits_per_result": self.commits / results,
            "store.wchar_per_result": self.wchar / results,
            "orchestrator.run_campaign_s": s["orchestrator.run_campaign"] / rounds,
            "orchestrator.mock_synthesize_calls": n["orchestrator.mock_synthesize"] / rounds,
            "orchestrator.mock_synthesize_s": s["orchestrator.mock_synthesize"] / rounds,
            "orchestrator.commit_share": s["store.record_result"] / s["orchestrator.run_campaign"],
            "orchestrator.results_per_s": results / s["orchestrator.run_campaign"],
            "store.pending_configurations_s": s["store.pending_configurations"] / rounds,
            "store.pending_rows_returned": self.pending_rows / rounds,
            "store.fetch_points_s": s["store.fetch_points"] / rounds,
            "store.export_bytes": self.export_bytes,
            "store.import_rows_per_s": self.imported_rows / s["store.import_jsonl"],
            "analytics.pareto_front_2d_s": s["analytics.pareto_front_2d"] / rounds,
            "analytics.pareto_front_3d_s": s["analytics.pareto_front_3d"] / rounds,
            "analytics.pareto_front_calls": (
                n["analytics.pareto_front_2d"] + n["analytics.pareto_front_3d"]
            ) / rounds,
            "analytics.adrs_s": s["analytics.adrs"] / rounds,
            "analytics.hypervolume_2d_s": s["analytics.hypervolume_2d"] / rounds,
            "analytics.evaluate_strategy_s": s["analytics.evaluate_strategy"] / rounds,
            "analytics.oracle_query_calls": n["analytics.oracle_query"] / rounds,
            "analytics.oracle_query_s": s["analytics.oracle_query"] / rounds,
        }
        for command, secs in cli_seconds.items():
            out[f"cli.{command}_s"] = secs / rounds
        return out
