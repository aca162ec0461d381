"""Embedded relational store for design spaces and synthesis results.

Schema (nine tables): benchmark -> algorithm -> design form the design
taxonomy; configuration_space rows hold the canonical descriptor text and
its cardinality; a configuration row is written only when the point is
about to be attempted, since its key, key text and directive values are a
pure function of the descriptor text and the point's index; each synthesis
attempt is an implementation row with its synthesis_info provenance and, for
successful runs, resource_usage and performance rows. The DDL is shipped
verbatim in SCHEMA_DDL.

Schema version 2 differs from version 1 only in that meaning: a version-1
store holds a row for every point, and those rows stay valid, because the
pending points of a space are derived from its cardinality and the
attempted rows, never from which rows exist. Opening a version-1 store
bumps its version; imports accept exports of either version.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator, Optional, Sequence

from .dsl import CSD, parse_csd, serialize_csd
from .space import Configuration, build_index

SCHEMA_VERSION = 2
# export versions import_jsonl reads: their table layouts are identical
IMPORT_VERSIONS = (1, 2)

SCHEMA_DDL = """
CREATE TABLE IF NOT EXISTS benchmark (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS algorithm (
    id INTEGER PRIMARY KEY,
    benchmark_id INTEGER NOT NULL REFERENCES benchmark(id),
    name TEXT NOT NULL,
    UNIQUE (benchmark_id, name)
);
CREATE TABLE IF NOT EXISTS design (
    id INTEGER PRIMARY KEY,
    algorithm_id INTEGER NOT NULL REFERENCES algorithm(id),
    name TEXT NOT NULL,
    source_ref TEXT,
    function_name TEXT,
    UNIQUE (algorithm_id, name)
);
CREATE TABLE IF NOT EXISTS configuration_space (
    id INTEGER PRIMARY KEY,
    design_id INTEGER NOT NULL REFERENCES design(id),
    csd_text TEXT NOT NULL,
    cardinality INTEGER NOT NULL,
    contributor TEXT NOT NULL,
    created_at TEXT NOT NULL,
    UNIQUE (design_id, csd_text)
);
CREATE TABLE IF NOT EXISTS configuration (
    id INTEGER PRIMARY KEY,
    space_id INTEGER NOT NULL REFERENCES configuration_space(id),
    idx INTEGER NOT NULL,
    config_key TEXT NOT NULL,
    key_text TEXT NOT NULL,
    directive_values TEXT NOT NULL,
    UNIQUE (space_id, idx),
    UNIQUE (space_id, config_key)
);
CREATE TABLE IF NOT EXISTS implementation (
    id INTEGER PRIMARY KEY,
    configuration_id INTEGER NOT NULL REFERENCES configuration(id),
    status TEXT NOT NULL CHECK (status IN ('ok','synth_error','timeout'))
);
CREATE TABLE IF NOT EXISTS synthesis_info (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    timestamp TEXT NOT NULL,
    contributor TEXT NOT NULL,
    tool_name TEXT NOT NULL,
    tool_version TEXT NOT NULL,
    fpga_part TEXT NOT NULL,
    clock_period_ns REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS resource_usage (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    ff INTEGER NOT NULL CHECK (ff >= 0),
    lut INTEGER NOT NULL CHECK (lut >= 0),
    bram INTEGER NOT NULL CHECK (bram >= 0),
    dsp INTEGER NOT NULL CHECK (dsp >= 0)
);
CREATE TABLE IF NOT EXISTS performance (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    latency_cycles INTEGER NOT NULL CHECK (latency_cycles >= 0),
    achieved_period_ns REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_configuration_space_id
    ON configuration(space_id);
CREATE INDEX IF NOT EXISTS idx_implementation_config
    ON implementation(configuration_id);
"""

TABLES = [
    "benchmark",
    "algorithm",
    "design",
    "configuration_space",
    "configuration",
    "implementation",
    "synthesis_info",
    "resource_usage",
    "performance",
]


class StoreError(Exception):
    pass


class VersionMismatchError(StoreError):
    pass


class DuplicateSpaceError(StoreError):
    pass


class DuplicateImplementationError(StoreError):
    pass


class ImportError_(StoreError):
    """Import failure; carries the index of the last record applied cleanly."""

    def __init__(self, message: str, last_good: int):
        self.last_good = last_good
        super().__init__(f"{message} (last good record index: {last_good})")


@dataclass(frozen=True)
class SpaceRecord:
    id: int
    design_id: int
    csd_text: str
    cardinality: int
    contributor: str
    created_at: str


@dataclass(frozen=True)
class ConfigRecord:
    id: int
    space_id: int
    idx: int
    config_key: str
    key_text: str


@dataclass(frozen=True)
class SynthesisInfo:
    contributor: str
    tool_name: str
    tool_version: str
    fpga_part: str
    clock_period_ns: float
    timestamp: Optional[str] = None


@dataclass(frozen=True)
class StoredPoint:
    """Objective vector plus the configuration id it came from."""

    values: tuple[float, ...]
    configuration_id: int


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class Store:
    """Single-writer SQLite-backed store; readers see only committed data."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self.conn = sqlite3.connect(path)
        self.conn.execute("PRAGMA foreign_keys = ON")

    def close(self):
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- schema -----------------------------------------------------------

    def init_schema(self):
        """Create all tables; idempotent. Rejects stores written by a newer
        schema version; an older store is upgraded by the version bump alone
        (see the module docstring)."""
        (version,) = self.conn.execute("PRAGMA user_version").fetchone()
        if version > SCHEMA_VERSION:
            raise VersionMismatchError(
                f"store version {version} is newer than supported {SCHEMA_VERSION}"
            )
        with self.conn:
            self.conn.executescript(SCHEMA_DDL)
            self.conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def table_names(self) -> list[str]:
        rows = self.conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
            " AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        return sorted(r[0] for r in rows)

    # -- design taxonomy --------------------------------------------------

    def ensure_design(
        self,
        benchmark: str,
        algorithm: str,
        design: str,
        source_ref: Optional[str] = None,
        function_name: Optional[str] = None,
    ) -> int:
        """Insert-or-fetch the benchmark/algorithm/design chain; returns the
        design id."""
        with self.conn:
            self.conn.execute(
                "INSERT OR IGNORE INTO benchmark (name) VALUES (?)", (benchmark,)
            )
            (bid,) = self.conn.execute(
                "SELECT id FROM benchmark WHERE name=?", (benchmark,)
            ).fetchone()
            self.conn.execute(
                "INSERT OR IGNORE INTO algorithm (benchmark_id, name) VALUES (?,?)",
                (bid, algorithm),
            )
            (aid,) = self.conn.execute(
                "SELECT id FROM algorithm WHERE benchmark_id=? AND name=?",
                (bid, algorithm),
            ).fetchone()
            self.conn.execute(
                "INSERT OR IGNORE INTO design"
                " (algorithm_id, name, source_ref, function_name) VALUES (?,?,?,?)",
                (aid, design, source_ref, function_name),
            )
            (did,) = self.conn.execute(
                "SELECT id FROM design WHERE algorithm_id=? AND name=?",
                (aid, design),
            ).fetchone()
        return did

    # -- spaces and configurations ---------------------------------------

    def register_space(self, design_id: int, csd: CSD, contributor: str) -> SpaceRecord:
        """Insert the space row; its configuration rows are written as they
        are attempted (see add_configurations)."""
        canonical = serialize_csd(csd)
        total = build_index(csd).total
        created = _now()
        try:
            with self.conn:
                cur = self.conn.execute(
                    "INSERT INTO configuration_space"
                    " (design_id, csd_text, cardinality, contributor, created_at)"
                    " VALUES (?,?,?,?,?)",
                    (design_id, canonical, total, contributor, created),
                )
        except sqlite3.IntegrityError as e:
            existing = self.find_space(design_id, csd)
            if existing:
                raise DuplicateSpaceError(
                    f"space already registered for design {design_id}"
                    f" (id {existing.id})"
                ) from None
            raise StoreError(f"unknown design id {design_id}") from e
        return SpaceRecord(cur.lastrowid, design_id, canonical, total, contributor, created)

    def get_space(self, space_id: int) -> SpaceRecord:
        row = self.conn.execute(
            "SELECT id, design_id, csd_text, cardinality, contributor, created_at"
            " FROM configuration_space WHERE id=?",
            (space_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"unknown space id {space_id}")
        return SpaceRecord(*row)

    def find_space(self, design_id: int, csd: CSD) -> Optional[SpaceRecord]:
        row = self.conn.execute(
            "SELECT id FROM configuration_space WHERE design_id=? AND csd_text=?",
            (design_id, serialize_csd(csd)),
        ).fetchone()
        return self.get_space(row[0]) if row else None

    def space_csd(self, space_id: int) -> CSD:
        return parse_csd(self.get_space(space_id).csd_text)

    def configurations(self, space_id: int) -> list[ConfigRecord]:
        """The configuration rows written so far, in index order."""
        self.get_space(space_id)
        rows = self.conn.execute(
            "SELECT id, space_id, idx, config_key, key_text FROM configuration"
            " WHERE space_id=? ORDER BY idx",
            (space_id,),
        ).fetchall()
        return [ConfigRecord(*r) for r in rows]

    def add_configurations(
        self, space_id: int, configs: Sequence[tuple[int, Configuration]]
    ) -> list[ConfigRecord]:
        """Get-or-create the rows of ``configs``, (idx, decoded configuration)
        pairs in ascending idx order, in one transaction; returns their
        records in that order. Rows are created in the order given, so ids
        follow idx order whenever configurations are attempted in it."""
        if not configs:
            return []
        with self.conn:
            self.conn.executemany(
                "INSERT INTO configuration"
                " (space_id, idx, config_key, key_text, directive_values)"
                " VALUES (?,?,?,?,?) ON CONFLICT (space_id, idx) DO NOTHING",
                (
                    (
                        space_id,
                        idx,
                        cfg.config_key,
                        cfg.key_text,
                        json.dumps([[v.raw for v in vals] for vals in cfg.assignments]),
                    )
                    for idx, cfg in configs
                ),
            )
            rows = self.conn.execute(
                "SELECT id, space_id, idx, config_key, key_text FROM configuration"
                " WHERE space_id=? AND idx BETWEEN ? AND ? ORDER BY idx",
                (space_id, configs[0][0], configs[-1][0]),
            ).fetchall()
        wanted = {idx for idx, _ in configs}
        return [ConfigRecord(*r) for r in rows if r[2] in wanted]

    # -- results ----------------------------------------------------------

    def record_result(self, configuration_id: int, result, info: SynthesisInfo) -> int:
        """Commit one synthesis outcome (implementation + provenance and, for
        ok results, resources and performance) atomically; returns the
        implementation id.

        ``result`` is an orchestrator.ImplementationResult.
        """
        if result.status == "ok":
            dup = self.conn.execute(
                "SELECT i.id FROM implementation i"
                " JOIN synthesis_info s ON s.implementation_id = i.id"
                " WHERE i.configuration_id=? AND i.status='ok'"
                " AND s.tool_name=? AND s.tool_version=? AND s.fpga_part=?",
                (configuration_id, info.tool_name, info.tool_version, info.fpga_part),
            ).fetchone()
            if dup:
                raise DuplicateImplementationError(
                    f"configuration {configuration_id} already has an ok"
                    f" implementation for {info.tool_name} {info.tool_version}"
                    f" on {info.fpga_part}"
                )
        try:
            with self.conn:
                cur = self.conn.execute(
                    "INSERT INTO implementation (configuration_id, status)"
                    " VALUES (?,?)",
                    (configuration_id, result.status),
                )
                impl_id = cur.lastrowid
                self.conn.execute(
                    "INSERT INTO synthesis_info VALUES (?,?,?,?,?,?,?)",
                    (
                        impl_id,
                        info.timestamp or _now(),
                        info.contributor,
                        info.tool_name,
                        info.tool_version,
                        info.fpga_part,
                        info.clock_period_ns,
                    ),
                )
                if result.status == "ok":
                    self.conn.execute(
                        "INSERT INTO resource_usage VALUES (?,?,?,?,?)",
                        (impl_id, result.ff, result.lut, result.bram, result.dsp),
                    )
                    self.conn.execute(
                        "INSERT INTO performance VALUES (?,?,?)",
                        (impl_id, result.latency_cycles, result.achieved_period_ns),
                    )
        except sqlite3.IntegrityError as e:
            # an unknown configuration id fails the foreign key, a negative
            # resource count its CHECK
            raise StoreError(
                f"cannot record configuration id {configuration_id}: {e}"
            ) from None
        return impl_id

    def pending_configurations(
        self,
        space_id: int,
        tool_name: Optional[str] = None,
        tool_version: Optional[str] = None,
        fpga_part: Optional[str] = None,
    ) -> list[int]:
        """Indices of the points with no recorded attempt under the given
        tool/part filter, ascending. Derived from the space's cardinality
        and its attempted rows, so it does not depend on which rows exist."""
        cardinality = self.get_space(space_id).cardinality
        clauses, params = [], []
        for col, val in (
            ("tool_name", tool_name),
            ("tool_version", tool_version),
            ("fpga_part", fpga_part),
        ):
            if val is not None:
                clauses.append(f" AND s.{col}=?")
                params.append(val)
        attempted = {
            idx
            for (idx,) in self.conn.execute(
                "SELECT c.idx FROM configuration c"
                " JOIN implementation i ON i.configuration_id = c.id"
                " JOIN synthesis_info s ON s.implementation_id = i.id"
                " WHERE c.space_id=?" + "".join(clauses),
                [space_id] + params,
            )
        }
        return [i for i in range(cardinality) if i not in attempted]

    def count_implementations(self, space_id: int, status: Optional[str] = None) -> int:
        q = (
            "SELECT COUNT(*) FROM implementation i"
            " JOIN configuration c ON c.id = i.configuration_id"
            " WHERE c.space_id=?"
        )
        params: list = [space_id]
        if status:
            q += " AND i.status=?"
            params.append(status)
        (n,) = self.conn.execute(q, params).fetchone()
        return n

    OBJECTIVES = ("latency", "latency_ns", "ff", "lut", "bram", "dsp", "area")

    def fetch_points(
        self,
        space_id: int,
        objectives: Iterable[str],
        area_weights: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 0.0),
    ) -> list[StoredPoint]:
        """One objective vector per ok implementation of the space.

        Objective names: latency (cycles), latency_ns (cycles x achieved
        period), ff/lut/bram/dsp, and area (weighted resource sum using
        ``area_weights`` in ff/lut/bram/dsp order).
        """
        objectives = list(objectives)
        if not objectives:
            raise StoreError("objective list is empty")
        for name in objectives:
            if name not in self.OBJECTIVES:
                raise StoreError(f"unknown objective {name!r}")
        if "area" in objectives and all(w == 0 for w in area_weights):
            raise StoreError("area weights must not be all zero")
        self.get_space(space_id)
        rows = self.conn.execute(
            "SELECT i.configuration_id, p.latency_cycles, p.achieved_period_ns,"
            "       r.ff, r.lut, r.bram, r.dsp"
            " FROM implementation i"
            " JOIN configuration c ON c.id = i.configuration_id"
            " JOIN resource_usage r ON r.implementation_id = i.id"
            " JOIN performance p ON p.implementation_id = i.id"
            " WHERE c.space_id=? AND i.status='ok' ORDER BY i.configuration_id",
            (space_id,),
        ).fetchall()
        points = []
        for cid, lat, period, ff, lut, bram, dsp in rows:
            col = {
                "latency": float(lat),
                "latency_ns": float(lat) * period,
                "ff": float(ff),
                "lut": float(lut),
                "bram": float(bram),
                "dsp": float(dsp),
                "area": (
                    area_weights[0] * ff
                    + area_weights[1] * lut
                    + area_weights[2] * bram
                    + area_weights[3] * dsp
                ),
            }
            points.append(StoredPoint(tuple(col[o] for o in objectives), cid))
        return points

    # -- export / import --------------------------------------------------

    _EXPORT_COLS = {
        "benchmark": ("id", "name"),
        "algorithm": ("id", "benchmark_id", "name"),
        "design": ("id", "algorithm_id", "name", "source_ref", "function_name"),
        "configuration_space": (
            "id", "design_id", "csd_text", "cardinality", "contributor", "created_at",
        ),
        "configuration": (
            "id", "space_id", "idx", "config_key", "key_text", "directive_values",
        ),
        "implementation": ("id", "configuration_id", "status"),
        "synthesis_info": (
            "implementation_id", "timestamp", "contributor",
            "tool_name", "tool_version", "fpga_part", "clock_period_ns",
        ),
        "resource_usage": ("implementation_id", "ff", "lut", "bram", "dsp"),
        "performance": ("implementation_id", "latency_cycles", "achieved_period_ns"),
    }

    def _space_rows(self, space_id: int) -> Iterator[tuple[str, dict]]:
        space = self.get_space(space_id)
        did = space.design_id
        (alg_id, dname, sref, fname) = self.conn.execute(
            "SELECT algorithm_id, name, source_ref, function_name"
            " FROM design WHERE id=?",
            (did,),
        ).fetchone()
        (bid, aname) = self.conn.execute(
            "SELECT benchmark_id, name FROM algorithm WHERE id=?", (alg_id,)
        ).fetchone()
        (bname,) = self.conn.execute(
            "SELECT name FROM benchmark WHERE id=?", (bid,)
        ).fetchone()
        yield "benchmark", {"id": bid, "name": bname}
        yield "algorithm", {"id": alg_id, "benchmark_id": bid, "name": aname}
        yield "design", {
            "id": did, "algorithm_id": alg_id, "name": dname,
            "source_ref": sref, "function_name": fname,
        }
        yield "configuration_space", {
            "id": space.id, "design_id": did, "csd_text": space.csd_text,
            "cardinality": space.cardinality, "contributor": space.contributor,
            "created_at": space.created_at,
        }
        for table, query in [
            ("configuration",
             "SELECT * FROM configuration WHERE space_id=? ORDER BY idx"),
            ("implementation",
             "SELECT i.* FROM implementation i JOIN configuration c"
             " ON c.id=i.configuration_id WHERE c.space_id=? ORDER BY i.id"),
            ("synthesis_info",
             "SELECT s.* FROM synthesis_info s JOIN implementation i"
             " ON i.id=s.implementation_id JOIN configuration c"
             " ON c.id=i.configuration_id WHERE c.space_id=?"
             " ORDER BY s.implementation_id"),
            ("resource_usage",
             "SELECT r.* FROM resource_usage r JOIN implementation i"
             " ON i.id=r.implementation_id JOIN configuration c"
             " ON c.id=i.configuration_id WHERE c.space_id=?"
             " ORDER BY r.implementation_id"),
            ("performance",
             "SELECT p.* FROM performance p JOIN implementation i"
             " ON i.id=p.implementation_id JOIN configuration c"
             " ON c.id=i.configuration_id WHERE c.space_id=?"
             " ORDER BY p.implementation_id"),
        ]:
            cols = self._EXPORT_COLS[table]
            for row in self.conn.execute(query, (space_id,)):
                yield table, dict(zip(cols, row))

    def export_jsonl(self, space_id: int) -> bytes:
        """JSON-lines dump of every row belonging to a space; each object
        carries a "table" discriminator."""
        lines = [
            json.dumps({"table": table, **data}, sort_keys=True)
            for table, data in self._space_rows(space_id)
        ]
        header = json.dumps({"table": "_meta", "schema_version": SCHEMA_VERSION})
        return ("\n".join([header] + lines) + "\n").encode()

    def export_sql(self, space_id: int) -> bytes:
        """SQL dump (DDL plus INSERT statements) for one space."""

        def lit(v):
            if v is None:
                return "NULL"
            if isinstance(v, (int, float)):
                return repr(v)
            return "'" + str(v).replace("'", "''") + "'"

        out = [SCHEMA_DDL.strip(), ""]
        for table, data in self._space_rows(space_id):
            cols = ",".join(data.keys())
            vals = ",".join(lit(v) for v in data.values())
            out.append(f"INSERT INTO {table} ({cols}) VALUES ({vals});")
        return ("\n".join(out) + "\n").encode()

    def import_jsonl(self, payload: bytes) -> dict[str, int]:
        """Load a JSON-lines export into this store; returns per-table row
        counts. Ids are remapped; nothing is committed on failure."""
        lines = payload.decode().splitlines()
        id_maps: dict[str, dict[int, int]] = {t: {} for t in TABLES}
        counts: dict[str, int] = {}
        parent_key = {
            "algorithm": ("benchmark_id", "benchmark"),
            "design": ("algorithm_id", "algorithm"),
            "configuration_space": ("design_id", "design"),
            "configuration": ("space_id", "configuration_space"),
            "implementation": ("configuration_id", "configuration"),
            "synthesis_info": ("implementation_id", "implementation"),
            "resource_usage": ("implementation_id", "implementation"),
            "performance": ("implementation_id", "implementation"),
        }
        last_good = -1
        try:
            with self.conn:
                for n, line in enumerate(lines):
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as e:
                        raise ImportError_(f"malformed record: {e}", last_good)
                    table = obj.pop("table", None)
                    if table == "_meta":
                        if obj.get("schema_version") not in IMPORT_VERSIONS:
                            raise ImportError_(
                                f"schema version mismatch: {obj.get('schema_version')}",
                                last_good,
                            )
                        last_good = n
                        continue
                    if table not in self._EXPORT_COLS:
                        raise ImportError_(f"unknown table {table!r}", last_good)
                    cols = self._EXPORT_COLS[table]
                    if set(obj.keys()) != set(cols):
                        raise ImportError_(
                            f"bad columns for table {table}", last_good
                        )
                    if table in parent_key:
                        fk, parent = parent_key[table]
                        try:
                            obj[fk] = id_maps[parent][obj[fk]]
                        except KeyError:
                            raise ImportError_(
                                f"{table} row references unknown {fk}={obj[fk]}",
                                last_good,
                            ) from None
                    old_id = obj.pop("id", None)
                    if table == "benchmark":
                        new_id = self._import_benchmark(obj)
                    else:
                        insert_cols = [c for c in cols if c != "id"]
                        cur = self.conn.execute(
                            f"INSERT INTO {table} ({','.join(insert_cols)})"
                            f" VALUES ({','.join('?' * len(insert_cols))})",
                            [obj[c] for c in insert_cols],
                        )
                        new_id = cur.lastrowid
                    if old_id is not None:
                        id_maps[table][old_id] = new_id
                    counts[table] = counts.get(table, 0) + 1
                    last_good = n
        except sqlite3.IntegrityError as e:
            raise ImportError_(f"referential violation: {e}", last_good) from None
        return counts

    def _import_benchmark(self, obj: dict) -> int:
        self.conn.execute(
            "INSERT OR IGNORE INTO benchmark (name) VALUES (?)", (obj["name"],)
        )
        (bid,) = self.conn.execute(
            "SELECT id FROM benchmark WHERE name=?", (obj["name"],)
        ).fetchone()
        return bid

    def check_integrity(self) -> list[str]:
        """Full-scan referential check; returns human-readable violations."""
        orphans = Counter(
            table for table, *_ in self.conn.execute("PRAGMA foreign_key_check")
        )
        return [f"{orphans[t]} orphan {t} row(s)" for t in TABLES if orphans[t]]
