"""Command-line entry point.

Subcommands: validate | count | expand | init-db | run | query | analyze |
export | import. Exit codes: 0 success, 1 domain error, 2 usage/IO error.
Human output goes to stdout, diagnostics to stderr. ``HLSDSE_DB`` and
``HLSDSE_JOBS`` provide defaults for --db and --jobs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import analytics, orchestrator, space
from .dsl import CsdSyntaxError, CsdValidationError, parse_csd, validate_csd
from .space import configurations_json, enumerate_space
from .store import Store, StoreError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _read_csd_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return p.read_text()


def _parse_or_exit(text: str):
    try:
        return parse_csd(text)
    except CsdSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)
    except CsdValidationError as e:
        for d in e.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)


def cmd_validate(args) -> int:
    text = _read_csd_file(args.csd)
    try:
        csd = parse_csd(text, validate=False)
    except CsdSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    diags = validate_csd(csd)
    for d in diags:
        print(str(d), file=sys.stderr)
    if not diags:
        if args.format == "json":
            print(json.dumps({"valid": True, "knobs": len(csd.knobs)}))
        else:
            print(f"ok: {len(csd.knobs)} knobs")
    return EXIT_OK if not diags else EXIT_DOMAIN


def cmd_count(args) -> int:
    csd = _parse_or_exit(_read_csd_file(args.csd))
    n = space.cardinality(csd)
    if args.format == "json":
        print(json.dumps({"cardinality": n}))
    else:
        print(n)
    return EXIT_OK


def cmd_expand(args) -> int:
    csd = _parse_or_exit(_read_csd_file(args.csd))
    limit = args.limit
    out = []
    for i, cfg in enumerate(enumerate_space(csd)):
        if limit is not None and i >= limit:
            break
        out.append(cfg)
    if args.format == "json":
        print(json.dumps([configurations_json(csd, c) for c in out]))
    else:
        for c in out:
            print(c.key_text)
    return EXIT_OK


def _open_store(args) -> Store:
    st = Store(args.db)
    try:
        st.init_schema()
    except StoreError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)
    return st


def cmd_init_db(args) -> int:
    st = _open_store(args)
    if args.format == "json":
        print(json.dumps({"db": args.db, "tables": st.table_names()}))
    else:
        print(f"initialized {args.db} ({len(st.table_names())} tables)")
    st.close()
    return EXIT_OK


def cmd_run(args) -> int:
    csd = _parse_or_exit(_read_csd_file(args.csd))
    st = _open_store(args)
    try:
        design_id = st.ensure_design(
            args.benchmark, args.algorithm, args.design, function_name=args.function
        )
        existing = st.find_space(design_id, csd)
        if existing is None:
            space_rec = st.register_space(design_id, csd, args.contributor)
        else:
            space_rec = existing
        backend = orchestrator.BackendSpec(kind=args.backend)
        campaign = orchestrator.Campaign(
            space_id=space_rec.id,
            backend=backend,
            jobs=args.jobs,
            seed=args.seed,
            contributor=args.contributor,
            log_path=args.log,
            limit=args.limit,
        )
        report = orchestrator.run_campaign(st, campaign)
    except (StoreError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        st.close()
        return EXIT_DOMAIN
    summary = {"space_id": space_rec.id, **report.as_dict()}
    if args.format == "json":
        print(json.dumps(summary))
    else:
        print(
            f"space {space_rec.id}: ok={report.ok} failed={report.failed}"
            f" timeout={report.timeout} pending={report.pending_after}"
        )
    st.close()
    return EXIT_OK


def cmd_query(args) -> int:
    st = _open_store(args)
    try:
        space_rec = st.get_space(args.space)
        pending = st.pending_configurations(args.space)
        done = st.count_implementations(args.space)
        ok = st.count_implementations(args.space, "ok")
    except StoreError as e:
        print(f"error: {e}", file=sys.stderr)
        st.close()
        return EXIT_DOMAIN
    summary = {
        "space_id": space_rec.id,
        "cardinality": space_rec.cardinality,
        "implementations": done,
        "ok": ok,
        "pending": len(pending),
    }
    if args.format == "json":
        print(json.dumps(summary))
    else:
        for k, v in summary.items():
            print(f"{k}: {v}")
    st.close()
    return EXIT_OK


def _points_csv(points, front_ids) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    dim = len(points[0].values) if points else 0
    w.writerow([f"obj{i}" for i in range(dim)] + ["configuration_id", "on_front"])
    for p in points:
        w.writerow(list(p.values) + [p.configuration_id, int(p.configuration_id in front_ids)])
    return buf.getvalue()


def cmd_analyze(args) -> int:
    st = _open_store(args)
    weights = tuple(args.weights)
    objectives = args.objectives.split(",")
    try:
        stored = st.fetch_points(args.space, objectives, weights)
        if not stored:
            print("error: space has no ok implementations", file=sys.stderr)
            st.close()
            return EXIT_DOMAIN
        points = [analytics.DesignPoint(p.values, p.configuration_id) for p in stored]
        front = analytics.pareto_front(points)
        front_ids = {p.configuration_id for p in front}
        summary = {"n_points": len(points), "front_size": len(front)}
        if args.mode == "adrs":
            summary["adrs"] = analytics.adrs(front, points)
        elif args.mode == "hv":
            ref = analytics.DesignPoint(
                tuple(max(p.values[i] for p in points) for i in range(len(points[0].values)))
            )
            summary["hypervolume"] = analytics.hypervolume_2d(points, ref)
            summary["reference_point"] = list(ref.values)
        elif args.mode == "eval":
            maker = analytics.BUILTIN_STRATEGIES.get(args.strategy)
            if maker is None:
                print(f"error: unknown strategy {args.strategy!r}", file=sys.stderr)
                st.close()
                return EXIT_DOMAIN
            budget = args.budget or len(points)
            result = analytics.evaluate_strategy(
                st, args.space, maker(args.seed), budget, objectives, weights
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
    except (analytics.AnalyticsError, StoreError) as e:
        print(f"error: {e}", file=sys.stderr)
        st.close()
        return EXIT_DOMAIN
    if args.points_csv:
        Path(args.points_csv).write_text(_points_csv(points, front_ids))
    if args.plot_data:
        # gnuplot-friendly: blank-line-separated blocks (all points, front)
        lines = [" ".join(str(v) for v in p.values) for p in points]
        lines.append("")
        lines.extend(" ".join(str(v) for v in p.values) for p in front)
        Path(args.plot_data).write_text("\n".join(lines) + "\n")
    print(json.dumps(summary))
    st.close()
    return EXIT_OK


def cmd_export(args) -> int:
    st = _open_store(args)
    try:
        if args.export_format == "jsonl":
            payload = st.export_jsonl(args.space)
        else:
            payload = st.export_sql(args.space)
    except StoreError as e:
        print(f"error: {e}", file=sys.stderr)
        st.close()
        return EXIT_DOMAIN
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    st.close()
    return EXIT_OK


def cmd_import(args) -> int:
    p = Path(args.infile)
    if not p.is_file():
        print(f"error: no such file: {args.infile}", file=sys.stderr)
        return EXIT_USAGE
    st = _open_store(args)
    try:
        counts = st.import_jsonl(p.read_bytes())
    except StoreError as e:
        print(f"error: {e}", file=sys.stderr)
        st.close()
        return EXIT_DOMAIN
    if args.format == "json":
        print(json.dumps(counts))
    else:
        for table, n in counts.items():
            print(f"{table}: {n}")
    st.close()
    return EXIT_OK


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
    p.add_argument(
        "--jobs",
        type=int,
        default=int(os.environ.get("HLSDSE_JOBS", "1")),
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

    p = sub.add_parser("analyze", help="pareto / adrs / hv / eval")
    p.add_argument("space", type=int)
    p.add_argument("--mode", choices=["pareto", "adrs", "hv", "eval"], default="pareto")
    p.add_argument("--objectives", default="latency,lut")
    p.add_argument(
        "--weights", type=float, nargs=4, default=[0.0, 1.0, 0.0, 0.0],
        metavar=("FF", "LUT", "BRAM", "DSP"),
    )
    p.add_argument("--strategy", default="random")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
