"""The DSE lifecycle of one workload, timed from outside the program.

A lifecycle is: register -> campaign -> analyze -> evaluate strategies ->
export -> import -> CLI pass, each on file-backed SQLite stores with the
mock backend. A measured run synthesizes the campaign once, then repeats
the stages that follow it, each only reading the campaign store, until its
time is up. The benchmark reaches ``hlsdse`` only through its public
functions, times those calls here, and checks their outputs between the
timed calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sqlite3
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from hlsdse import analytics, cli, dsl, orchestrator, space, store

import checks
from checks import require
from workloads import STAGES, Workload

# Every implementation row of one space, with what the campaign checks need.
RESULTS_SQL = """
SELECT i.configuration_id, c.idx, i.status, s.clock_period_ns,
       p.latency_cycles, p.achieved_period_ns, r.ff, r.lut, r.bram, r.dsp
FROM implementation i
JOIN configuration c ON c.id = i.configuration_id
JOIN synthesis_info s ON s.implementation_id = i.id
LEFT JOIN performance p ON p.implementation_id = i.id
LEFT JOIN resource_usage r ON r.implementation_id = i.id
WHERE c.space_id = ?
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def read_only(db: Path) -> sqlite3.Connection:
    return sqlite3.connect(f"{db.resolve().as_uri()}?mode=ro", uri=True)


def store_bytes(db: Path) -> int:
    """Main database file plus any WAL and shared-memory files."""
    return sum(
        p.stat().st_size
        for p in (db, Path(f"{db}-wal"), Path(f"{db}-shm"))
        if p.exists()
    )


def export_lines(payload: bytes) -> dict[str, int]:
    counts: Counter = Counter()
    for line in io.BytesIO(payload):
        if line.strip():
            counts[json.loads(line)["table"]] += 1
    del counts["_meta"]
    return dict(counts)


class Lifecycle:
    """Runs the lifecycle of one workload and keeps every timing sample."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.workdir = workdir
        self.jobs = nproc()
        rng = random.Random(f"{workload.name}/{seed}")
        self.mock_seed = rng.randrange(2**31)
        self.strategy_seeds = [rng.randrange(2**31) for _ in workload.evals]
        self.cli_seed = rng.randrange(2**31)
        self.cardinality = checks.space_size(workload.csd_text)
        self.clock_ns = checks.clock_value(workload.csd_text)
        self.kinds = [k.kind for k in checks.descriptor_knobs(workload.csd_text)]
        self.csd = dsl.parse_csd(workload.csd_text)
        self.index = space.build_index(self.csd)
        self.csd_path = workdir / "space.csd"
        self.csd_path.write_text(workload.csd_text)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # a tracing.Tracer while per-layer figures are taken

    def recording(self):
        """The tracer records only inside this block, never during checks."""
        return self.tracer.recording() if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def timed(self, metric: str):
        """Time the calls in the block as one sample of ``metric``."""
        with self.recording():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.samples[metric].append(time.perf_counter() - t0)

    # -- stages ---------------------------------------------------------------

    def setup(self, db: Path):
        with self.timed("setup_s"):
            st = store.Store(str(db))
            st.init_schema()
            design = st.ensure_design("bench", self.w.name, "design")
            rec = st.register_space(design, dsl.parse_csd(self.w.csd_text), "bench")
        checks.check_cardinality(
            self.w.csd_text,
            cardinality=space.cardinality(self.csd),
            stored=st.get_space(rec.id).cardinality,
        )
        return st, rec

    def campaign(self, st, db: Path, space_id: int) -> None:
        """The workload's resumed run_campaign calls, checked after each."""
        done = 0
        checked: dict[int, tuple] = {}
        for limit in self.w.campaign_limits:
            campaign = orchestrator.Campaign(
                space_id=space_id,
                backend=orchestrator.BackendSpec(kind="mock"),
                jobs=self.jobs,
                seed=self.mock_seed,
                contributor="bench",
                limit=limit,
            )
            # untimed: the commit rate follows the disk's flush latency too
            # closely to be bounded (see README); the traced run reports it
            with self.recording():
                report = orchestrator.run_campaign(st, campaign)
            require(report.attempted == limit, f"attempted {report.attempted} of {limit}")
            done += report.attempted
            self.attempted += report.attempted
            self.failed += report.attempted - report.ok
            self.check_results(db, space_id, done, report, checked)
        checks.check_mock_monotone(checked.values())

    def check_results(self, db: Path, space_id: int, done: int, report, checked) -> None:
        """Campaign checks over every stored result; the backend comparison
        only for results not in ``checked`` (idx -> shape row) yet."""
        with contextlib.closing(read_only(db)) as conn:
            rows = conn.execute(RESULTS_SQL, (space_id,)).fetchall()
        results = [checks.StoredResult(r[0], r[1], r[2], r[3], r[4:]) for r in rows]
        checks.check_campaign(
            results, done, report.pending_after, self.cardinality,
            report.max_in_flight, self.jobs, self.clock_ns,
        )
        for r in results:
            if r.idx in checked:
                continue
            config = self.index.decode(r.idx)
            want = orchestrator.mock_synthesize(config, self.csd, self.mock_seed)
            backend = (want.latency_cycles, want.achieved_period_ns,
                       want.ff, want.lut, want.bram, want.dsp)
            require(r.objectives == backend,
                    f"configuration {r.idx}: stored {r.objectives}, backend {backend}")
            checked[r.idx] = self.shape_row(config.assignments, want)

    def shape_row(self, assignments, result) -> tuple:
        """(categorical choices and partition product, unroll product,
        latency, lut) of one configuration."""
        unroll = partition = 1
        group = []
        for kind, values in zip(self.kinds, assignments):
            raw = [v.raw for v in values]
            if kind == "unroll":
                unroll *= raw[0]
            elif kind == "array_partition":
                group.append(raw[0])
                partition *= raw[1]
            else:
                group.extend(raw)
        return (tuple(group), partition), unroll, result.latency_cycles, result.lut

    def analyze(self, st, space_id: int) -> dict:
        """{objectives: (points, front, front of every other point, ADRS of
        that front, hypervolume, reference point)}.

        ``adrs(front, all points)``, which must be 0, is taken untimed in
        ``check_analysis``: its cost grows with the front size, which the
        mock seed sets, and would make the timing follow the seed.
        """
        out = {}
        with self.timed("analyze_s"):
            for objectives in self.w.objective_sets:
                points = [
                    analytics.DesignPoint(p.values, p.configuration_id)
                    for p in st.fetch_points(space_id, objectives)
                ]
                front = analytics.pareto_front(points)
                half = analytics.pareto_front(points[::2])
                score = analytics.adrs(front, half)
                hv = ref = None
                if len(objectives) == 2:
                    ref = analytics.DesignPoint(
                        tuple(max(p.values[i] for p in points) + 1 for i in range(2))
                    )
                    hv = analytics.hypervolume_2d(points, ref)
                out[objectives] = (points, front, half, score, hv, ref)
        return out

    def check_analysis(self, analysis: dict) -> dict:
        """Verified fronts: {objectives: (points, front vectors)}."""
        fronts = {}
        for objectives, (points, front, half, score, hv, ref) in analysis.items():
            vectors = [p.values for p in points]
            front_vectors = [p.values for p in front]
            half_vectors = [p.values for p in half]
            checks.check_front(front_vectors, vectors)
            checks.check_front(half_vectors, vectors[::2])
            to_all = analytics.adrs(front, points)
            require(to_all == 0, f"adrs(front, all points) = {to_all}")
            checks.require_close(
                score, checks.adrs_value(front_vectors, half_vectors), "ADRS"
            )
            if hv is not None:
                checks.require_close(
                    hv, checks.staircase_area(vectors, ref.values), "hypervolume"
                )
            fronts[objectives] = (points, front_vectors)
        return fronts

    def evaluate(self, st, space_id: int) -> list:
        with self.timed("eval_s"):
            results = [
                analytics.evaluate_strategy(
                    st, space_id,
                    analytics.BUILTIN_STRATEGIES[e.strategy](seed),
                    e.budget, e.objectives,
                )
                for e, seed in zip(self.w.evals, self.strategy_seeds)
            ]
        self.attempted += len(results)
        return results

    def check_evals(self, results: list, fronts: dict) -> None:
        for e, result in zip(self.w.evals, results):
            points, front = fronts[e.objectives]
            checks.check_eval(
                [(cid, p.values) for cid, p in result.trace.queries],
                e.budget, result.queries_used, result.adrs_value, front,
                {p.configuration_id: p.values for p in points},
            )

    def export(self, st, space_id: int) -> bytes:
        with self.timed("export_s"):
            payload = st.export_jsonl(space_id)
        self.attempted += 1
        return payload

    def import_(self, payload: bytes, db: Path) -> tuple[dict, dict]:
        """Per-table counts the import reports, and the imported store's
        objective vectors per objective set."""
        st = store.Store(str(db))
        st.init_schema()
        with self.timed("import_s"):
            counts = st.import_jsonl(payload)
        self.attempted += 1
        with contextlib.closing(read_only(db)) as conn:
            (space_id,) = conn.execute("SELECT id FROM configuration_space").fetchone()
        vectors = {
            objectives: [p.values for p in st.fetch_points(space_id, objectives)]
            for objectives in self.w.objective_sets
        }
        st.close()
        db.unlink()
        return counts, vectors

    def check_import(self, lines: dict, imported: tuple, fronts: dict) -> None:
        counts, vectors = imported
        checks.check_import(lines, counts)
        for objectives, (points, _) in fronts.items():
            checks.check_same_points(
                vectors[objectives], (p.values for p in points), f"import of {objectives}"
            )

    def cli_pass(self, db: Path) -> None:
        def hlsdse(command: str, *args) -> dict:
            out = io.StringIO()
            with self.timed(f"cli.{command}"), contextlib.redirect_stdout(out):
                code = cli.main(["--db", str(db), "--format", "json", command, *args])
            self.attempted += 1
            self.failed += code != 0
            require(code == 0, f"hlsdse {command} exited {code}")
            return json.loads(out.getvalue().splitlines()[-1])

        n = self.w.cli_limit
        ran = hlsdse(
            "run", str(self.csd_path), "--jobs", str(self.jobs), "--limit", str(n),
            "--seed", str(self.mock_seed), "--benchmark", "bench",
            "--algorithm", self.w.name, "--design", "cli",
        )
        sid = str(ran["space_id"])
        query = hlsdse("query", sid)
        analyzed = hlsdse(
            "analyze", sid, "--mode", "eval", "--objectives", "latency,lut,ff",
            "--strategy", "random", "--budget", str(self.w.cli_budget),
            "--seed", str(self.cli_seed),
        )
        self.samples["cli_s"].append(
            sum(self.samples[f"cli.{c}"][-1] for c in ("run", "query", "analyze"))
        )

        require(ran["attempted"] == ran["ok"] == n, f"hlsdse run: {ran}")
        with store.Store(str(db)) as st:
            space_id = ran["space_id"]
            library = {
                "cardinality": st.get_space(space_id).cardinality,
                "implementations": st.count_implementations(space_id),
                "ok": st.count_implementations(space_id, "ok"),
                "pending": len(st.pending_configurations(space_id)),
            }
            points = st.fetch_points(space_id, ["latency", "lut", "ff"])
            front = analytics.pareto_front(
                [analytics.DesignPoint(p.values, p.configuration_id) for p in points]
            )
        checks.check_cardinality(self.w.csd_text, query=query["cardinality"])
        require(library["ok"] == n and library["pending"] == self.cardinality - n,
                f"CLI store after run --limit {n}: {library}")
        require(all(query[key] == v for key, v in library.items()),
                f"hlsdse query {query} != library {library}")
        checks.check_front([p.values for p in front], [p.values for p in points])
        require(
            analyzed["n_points"] == len(points)
            and analyzed["front_size"] == len(front)
            and analyzed["queries"] == self.w.cli_budget,
            f"hlsdse analyze {analyzed}: library has {len(points)} points,"
            f" front of {len(front)}",
        )
        db.unlink()

    # -- one run ------------------------------------------------------------------

    def populate(self, k: int) -> None:
        """Register the space and synthesize the workload's campaign into
        a store that the later stages read, then analyze it once, checking
        everything."""
        self.db = self.workdir / f"r{k}-campaign.sqlite"
        self.st, rec = self.setup(self.db)
        self.space_id = rec.id
        self.campaign(self.st, self.db, self.space_id)
        analysis = self.analyze(self.st, self.space_id)
        self.fronts = self.check_analysis(analysis)
        self.verified_analysis = self.analysis_outputs(analysis)
        self.verified_export = None

    @staticmethod
    def analysis_outputs(analysis: dict) -> dict:
        return {
            objectives: ([(p.configuration_id, p.values) for p in points],
                         [p.values for p in front], [p.values for p in half], score, hv)
            for objectives, (points, front, half, score, hv, _) in analysis.items()
        }

    def stage_setup(self) -> None:
        db = self.workdir / "setup.sqlite"
        st, _ = self.setup(db)
        st.close()
        db.unlink()

    def stage_analyze(self) -> None:
        """Analyze the unchanged store again, checking the outputs in full
        whenever they differ from those already verified."""
        analysis = self.analyze(self.st, self.space_id)
        outputs = self.analysis_outputs(analysis)
        if outputs != self.verified_analysis:
            self.fronts = self.check_analysis(analysis)
            self.verified_analysis = outputs

    def stage_eval(self) -> None:
        self.check_evals(self.evaluate(self.st, self.space_id), self.fronts)

    def stage_export(self) -> None:
        """Export, import into a fresh store, and check the import. The
        export's lines per table are counted again whenever its bytes
        differ from those already counted."""
        payload = self.export(self.st, self.space_id)
        digest = hashlib.sha256(payload).digest()
        if self.verified_export is None or self.verified_export[0] != digest:
            self.verified_export = (digest, export_lines(payload))
        imported = self.import_(payload, self.workdir / "import.sqlite")
        del payload
        self.check_import(self.verified_export[1], imported, self.fronts)

    def stage_cli(self) -> None:
        self.cli_pass(self.workdir / "cli.sqlite")

    def finish(self) -> None:
        self.st.close()
        self.samples["db_bytes_per_config"].append(store_bytes(self.db) / self.cardinality)
        self.db.unlink()

    def cycle(self) -> list:
        """One cycle of the stages that follow the campaign: each stage
        ``repeats[stage]`` times, taking turns, so that the samples of each
        are spread over the run rather than bunched."""
        reps = self.w.repeats
        return [
            getattr(self, f"stage_{stage}")
            for rep in range(max(reps.values()))
            for stage in STAGES
            if rep < reps[stage]
        ]

    def round(self, k: int) -> None:
        """One whole lifecycle: the campaign and one cycle of stages."""
        self.populate(k)
        for stage in self.cycle():
            stage()
        self.finish()

    def run_until(self, deadline: float) -> None:
        """The campaign, then cycles of stages until the next stage, taking
        as long as it last did, would end after ``deadline``; every stage
        runs at least once."""
        self.populate(0)
        last: dict = {}
        while True:
            for stage in self.cycle():
                if stage in last and time.perf_counter() + last[stage] > deadline:
                    self.finish()
                    return
                t0 = time.perf_counter()
                stage()
                last[stage] = time.perf_counter() - t0

    def summary(self) -> dict[str, float]:
        """Each timing as the median of its samples in the run."""
        return {name: statistics.median(v) for name, v in self.samples.items()}
