"""Steadiness check: two sets of benchmark runs on the same commit.

    python3 bench/steady.py [--runs 10] [--workload NAME ...]

Each of the two sets runs ``bench/run.py --trace 0`` ``--runs`` times on
every workload, each time with another seed, for BENCHMARK.json's
``run_seconds``; a set runs each workload's runs one after the other. For
each end-to-end metric on each workload it prints every set's median,
quartiles and spread, the spread being (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``. The sets agree when
every spread is within the metric's bound, when the two medians of every
metric differ by at most the bound, as a share of the first set's median,
and when both sets fail the same share of operations. Exit status 0 means
they agree. Every run's result line is written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("samples: "):
            result["samples"] = json.loads(line[len("samples: "):])
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sets: list[dict[str, list[dict]]] = []
    for s in range(SETS):
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for w in workloads:
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                t0 = time.monotonic()
                runs[w].append(run_once(w, seed, spec["run_seconds"]))
                print(f"set {s + 1} {w} seed {seed}: {time.monotonic() - t0:.1f} s",
                      file=sys.stderr)
        sets.append(runs)

    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (out / f"steady-{stamp}.json").write_text(json.dumps(sets, indent=1) + "\n")

    agree = True
    for w in workloads:
        shares = {
            sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
            for runs in sets
        }
        same_failed = len(shares) == 1
        agree &= same_failed and all(r["correct"] for runs in sets for r in runs[w])
        print(f"\n{w}: failed share per set {sorted(shares)}"
              f" {'equal' if same_failed else 'DIFFERS'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs[w]])
                     for runs in sets]
            first = stats[0][0]
            ok = all(st[3] <= bound for st in stats)
            ok &= all(abs(st[0] - first) / first <= bound for st in stats)
            agree &= ok
            cells = "  ".join(
                f"{med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}"
                for med, q1, q3, spread in stats
            )
            print(f"  {name:24s} {cells}  bound {bound}  {'ok' if ok else 'NOT STEADY'}")
    print("\nsets agree" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
