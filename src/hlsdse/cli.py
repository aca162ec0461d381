"""Command-line entry point.

Subcommands: validate | count | expand | init-db | run | query | analyze |
export | import. Exit codes: 0 success, 1 domain error, 2 usage/IO error.
Human output goes to stdout, diagnostics to stderr. ``HLSDSE_DB`` and
``HLSDSE_JOBS`` provide defaults for --db and --jobs.

Commands raise; ``main`` alone turns an exception into ``error:`` lines on
stderr and an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import sqlite3
import sys
from pathlib import Path

from . import analytics, orchestrator, space
from .dsl import CsdError, CsdValidationError, parse_csd
from .space import SpaceError, configurations_json, enumerate_space
from .store import Store, StoreError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _read_csd(args):
    """Parse and validate the descriptor file named by ``args.csd``."""
    return parse_csd(Path(args.csd).read_text(encoding="utf-8"))


@contextlib.contextmanager
def _open_store(args):
    with Store(args.db) as st:
        st.init_schema()
        yield st


def _emit(args, data, *lines) -> None:
    """Print ``data`` as one JSON line under ``--format json``, else ``lines``."""
    if args.format == "json":
        print(json.dumps(data))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> None:
    n = len(_read_csd(args).knobs)
    _emit(args, {"valid": True, "knobs": n}, f"ok: {n} knobs")


def cmd_count(args) -> None:
    n = space.cardinality(_read_csd(args))
    _emit(args, {"cardinality": n}, n)


def cmd_expand(args) -> None:
    if args.limit is not None and args.limit < 0:
        raise ValueError("limit must be >= 0")  # the message Campaign gives run
    csd = _read_csd(args)
    configs = itertools.islice(enumerate_space(csd), args.limit)
    if args.format != "json":
        for c in configs:
            print(c.key_text)
        return
    # each point is written as it is enumerated, in the bytes json.dumps
    # gives the whole list; "[" waits for the first point, so a space that
    # fails to index writes nothing
    sep = "["
    for c in configs:
        sys.stdout.write(sep + json.dumps(configurations_json(csd, c)))
        sep = ", "
    print("[]" if sep == "[" else "]")


def cmd_init_db(args) -> None:
    with _open_store(args) as st:
        tables = st.table_names()
    _emit(args, {"db": args.db, "tables": tables},
          f"initialized {args.db} ({len(tables)} tables)")


def cmd_run(args) -> None:
    csd = _read_csd(args)
    # a space too large to index, or a bad campaign option, fails before any
    # row is written; the space id is filled in once the space is registered
    index = space.build_index(csd)
    campaign = orchestrator.Campaign(
        space_id=0,
        backend=orchestrator.BackendSpec(kind=args.backend),
        jobs=args.jobs,
        seed=args.seed,
        contributor=args.contributor,
        log_path=args.log,
        limit=args.limit,
    )
    if args.log:  # a log that cannot be opened for appending writes no row either
        open(args.log, "a").close()
    with _open_store(args) as st:
        design_id = st.ensure_design(
            args.benchmark, args.algorithm, args.design, function_name=args.function
        )
        space_rec = st.find_space(design_id, csd) or st.register_space(
            design_id, csd, args.contributor, index
        )
        campaign = dataclasses.replace(campaign, space_id=space_rec.id)
        report = orchestrator.run_campaign(st, campaign, index)
    _emit(
        args,
        {"space_id": space_rec.id, **report.as_dict()},
        f"space {space_rec.id}: ok={report.ok} failed={report.failed}"
        f" timeout={report.timeout} pending={report.pending_after}",
    )


def cmd_query(args) -> None:
    with _open_store(args) as st:
        space_rec = st.get_space(args.space)
        summary = {
            "space_id": space_rec.id,
            "cardinality": space_rec.cardinality,
            "implementations": st.count_implementations(args.space),
            "ok": st.count_implementations(args.space, "ok"),
            "pending": st.count_pending(args.space),
        }
    _emit(args, summary, *(f"{k}: {v}" for k, v in summary.items()))


def _points_csv(points, front_ids) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    dim = len(points[0].values) if points else 0
    w.writerow([f"obj{i}" for i in range(dim)] + ["configuration_id", "on_front"])
    for p in points:
        w.writerow(list(p.values) + [p.configuration_id, int(p.configuration_id in front_ids)])
    return buf.getvalue()


def cmd_analyze(args) -> None:
    weights = tuple(args.weights)
    objectives = args.objectives.split(",")
    with _open_store(args) as st:
        point_set = st.point_set(args.space, objectives, weights)
        points = point_set.points
        if not points:
            raise analytics.AnalyticsError("space has no ok implementations")
        front = point_set.front
        summary = {"n_points": len(points), "front_size": len(front)}
        if args.mode == "hv":
            # dominated points add no area, so the front's is the points'
            ref = analytics.DesignPoint(
                tuple(max(p.values[i] for p in points) for i in range(len(points[0].values)))
            )
            summary["hypervolume"] = analytics.hypervolume_2d(front, ref)
            summary["reference_point"] = list(ref.values)
        elif args.mode == "eval":
            budget = len(points) if args.budget is None else args.budget
            result = analytics.evaluate_strategy(
                st, args.space, analytics.BUILTIN_STRATEGIES[args.strategy](args.seed),
                budget, objectives, weights,
            )
            summary.update(
                {
                    "strategy": args.strategy,
                    "budget": budget,
                    "queries": result.queries_used,
                    "adrs": result.adrs_value,
                    "approx_front_size": len(result.approx_front),
                    "truncated": result.trace.truncated,
                }
            )
    if args.points_csv:
        front_ids = {p.configuration_id for p in front}
        Path(args.points_csv).write_text(_points_csv(points, front_ids))
    if args.plot_data:
        # gnuplot-friendly: blank-line-separated blocks (all points, front)
        lines = [" ".join(str(v) for v in p.values) for p in points]
        lines.append("")
        lines.extend(" ".join(str(v) for v in p.values) for p in front)
        Path(args.plot_data).write_text("\n".join(lines) + "\n")
    print(json.dumps(summary))


def cmd_export(args) -> None:
    with _open_store(args) as st:
        if args.export_format == "jsonl":
            payload = st.export_jsonl(args.space)
        else:
            payload = st.export_sql(args.space)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)


def cmd_import(args) -> None:
    payload = Path(args.infile).read_bytes()
    with _open_store(args) as st:
        counts = st.import_jsonl(payload)
    _emit(args, counts, *(f"{table}: {n}" for table, n in counts.items()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlsdse",
        description="Define, expand, execute, store, and analyze HLS design"
        " space explorations.",
    )
    parser.add_argument(
        "--db",
        default=os.environ.get("HLSDSE_DB", "hlsdse.sqlite"),
        help="database path (default: $HLSDSE_DB or hlsdse.sqlite)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a descriptor file")
    p.add_argument("csd")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("count", help="print the configuration space size")
    p.add_argument("csd")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("expand", help="enumerate configurations")
    p.add_argument("csd")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("init-db", help="create the database schema")
    p.set_defaults(func=cmd_init_db)

    p = sub.add_parser("run", help="register a space and run a campaign")
    p.add_argument("csd")
    p.add_argument("--benchmark", default="local")
    p.add_argument("--algorithm", default="local")
    p.add_argument("--design", default="local")
    p.add_argument("--function", default=None)
    p.add_argument("--backend", choices=["mock"], default="mock")
    # a string default is converted by type=int only when run is parsed, so a
    # bad $HLSDSE_JOBS is a usage error of run alone
    p.add_argument(
        "--jobs",
        type=int,
        default=os.environ.get("HLSDSE_JOBS", "1"),
        help="max concurrent backend instances (default: $HLSDSE_JOBS or 1)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--contributor", default="cli")
    p.add_argument("--log", default=None, help="campaign event log (JSON lines)")
    p.add_argument("--limit", type=int, default=None, help="attempt at most N configs")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("query", help="summarize a stored space")
    p.add_argument("space", type=int)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("analyze", help="pareto / hv / eval")
    p.add_argument("space", type=int)
    p.add_argument("--mode", choices=["pareto", "hv", "eval"], default="pareto")
    p.add_argument("--objectives", default="latency,lut")
    p.add_argument(
        "--weights", type=float, nargs=4, default=[0.0, 1.0, 0.0, 0.0],
        metavar=("FF", "LUT", "BRAM", "DSP"),
    )
    p.add_argument(
        "--strategy", choices=sorted(analytics.BUILTIN_STRATEGIES), default="random"
    )
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points-csv", default=None)
    p.add_argument("--plot-data", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="dump a space")
    p.add_argument("space", type=int)
    p.add_argument("--export-format", choices=["jsonl", "sql"], default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="load a JSON-lines dump")
    p.add_argument("infile")
    p.set_defaults(func=cmd_import)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse: --help exits 0, a usage error 2
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        args.func(args)
    except CsdValidationError as e:
        for d in e.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_DOMAIN
    # ValueError includes a descriptor that is not UTF-8
    except (CsdError, SpaceError, StoreError, analytics.AnalyticsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, sqlite3.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
