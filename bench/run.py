"""DSE-lifecycle benchmark of hlsdse.

    python3 bench/run.py --workload strategy-replay --seed 1 --seconds 60 --trace 0

Runs one workload (see workloads.py) for ``--seconds``: its campaign,
then cycles of the stages that follow it, checks every output, and prints
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, each timing the median
of its samples in the run; with ``--trace 1`` they are the per-layer ones,
taken from traced rounds (a campaign and one cycle each) that follow one
untraced round, whose figures give the tracing overhead.

The program is imported from ``src/`` of the checkout holding this file;
the benchmark exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_OF = ("setup_s", "analyze_s", "eval_s", "export_s", "import_s", "cli_s")


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(life, deadline: float, k: int = 0) -> int:
    """Rounds numbered from ``k`` until the next would end after
    ``deadline``, at least one; returns how many ran."""
    first = k
    while True:
        t0 = time.perf_counter()
        life.round(k)
        k += 1
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return k - first


def measure(life, seconds: float) -> dict[str, float]:
    life.run_until(time.perf_counter() + seconds)
    values = life.summary()
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def measure_traced(life, seconds: float) -> dict[str, float]:
    from tracing import Tracer

    deadline = time.perf_counter() + seconds
    life.round(0)
    untraced = life.summary()
    life.samples.clear()
    life.tracer = Tracer()
    life.tracer.install()
    try:
        rounds = run_rounds(life, deadline, k=1)
    finally:
        life.tracer.uninstall()
    traced = life.summary()
    metrics = life.tracer.per_layer(
        rounds, {c: sum(life.samples[f"cli.{c}"]) for c in ("run", "query", "analyze")}
    )
    for name in OVERHEAD_OF:
        metrics[f"trace.overhead.{name}"] = traced[name] - untraced[name]
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hlsdse" / "__init__.py").is_file():
        print(f"error: no hlsdse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    from checks import CheckFailed
    from lifecycle import Lifecycle

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    correct, life = True, None
    try:
        life = Lifecycle(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            values, wanted = measure_traced(life, args.seconds), spec["per_layer"]
        else:
            values, wanted = measure(life, args.seconds), spec["end_to_end"]
    except CheckFailed:
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        attempted = life.attempted if life else 0
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": life.failed if life else 0, "metrics": {}}))
        return 1
    print("samples:", json.dumps(life.samples), file=sys.stderr)
    missing = set(wanted) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    print(json.dumps({"correct": True, "attempted": life.attempted,
                      "failed": life.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
