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

import contextlib
import json
import sqlite3
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator, Optional, Sequence

from .analytics import DesignPoint
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


def _table_columns() -> dict[str, tuple[str, ...]]:
    """Each table's columns in DDL order, read from SCHEMA_DDL itself."""
    with contextlib.closing(sqlite3.connect(":memory:")) as conn:
        conn.executescript(SCHEMA_DDL)
        return {
            t: tuple(row[1] for row in conn.execute(f"PRAGMA table_info({t})"))
            for t in TABLES
        }


# the columns export writes and import requires, per table
_EXPORT_COLS = _table_columns()
_COLUMN_SETS = {t: frozenset(cols) for t, cols in _EXPORT_COLS.items()}
# every column is listed, so an imported row's id is either chosen by the
# import or NULL, which lets SQLite pick it
_INSERT = {
    t: f"INSERT INTO {t} ({','.join(cols)}) VALUES ({','.join('?' * len(cols))})"
    for t, cols in _EXPORT_COLS.items()
}
# table -> (foreign key column, parent table), for the ids import remaps
_PARENT = {
    "algorithm": ("benchmark_id", "benchmark"),
    "design": ("algorithm_id", "algorithm"),
    "configuration_space": ("design_id", "design"),
    "configuration": ("space_id", "configuration_space"),
    "implementation": ("configuration_id", "configuration"),
    "synthesis_info": ("implementation_id", "implementation"),
    "resource_usage": ("implementation_id", "implementation"),
    "performance": ("implementation_id", "implementation"),
}
# taxonomy rows are got-or-created by their UNIQUE keys, as ensure_design
# does, so that spaces of one design share them
_TAXONOMY_KEY = {
    "benchmark": ("name",),
    "algorithm": ("benchmark_id", "name"),
    "design": ("algorithm_id", "name"),
}
# the rows import sends in runs, one executemany per run of one table
_BATCHED = frozenset(
    ["configuration", "implementation", "synthesis_info", "resource_usage", "performance"]
)
# rows per executemany: long enough to amortize the call, short enough
# that the parsed rows held in memory stay few
_RUN_ROWS = 256
# one coder for every line, rather than one built per json.dumps/loads call
_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()


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


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class Store:
    """Single-writer SQLite-backed store; readers see only committed data.

    A file store runs in write-ahead-log mode with ``synchronous=NORMAL``:
    a commit appends to ``<path>-wal`` without waiting for an fsync, so a
    committed result survives a crash of the writing process, but on power
    loss or an operating-system crash the commits since the last checkpoint
    may roll back; the database stays consistent either way. While a store
    is open it keeps ``<path>-wal`` and ``<path>-shm`` beside the file, so
    copy a store only while it is closed. ``:memory:`` stores ignore both
    settings.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self.conn = sqlite3.connect(path)
        self.conn.execute("PRAGMA foreign_keys = ON")
        self.conn.execute("PRAGMA journal_mode = WAL")
        self.conn.execute("PRAGMA synchronous = NORMAL")

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
        space_id = self._space_id(design_id, serialize_csd(csd))
        return self.get_space(space_id) if space_id else None

    def _space_id(self, design_id: int, csd_text: str) -> Optional[int]:
        row = self.conn.execute(
            "SELECT id FROM configuration_space WHERE design_id=? AND csd_text=?",
            (design_id, csd_text),
        ).fetchone()
        return row[0] if row else None

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

    # objective name -> SQL expression over one ok implementation's
    # performance (p) and resource_usage (r) rows; "area" binds the four
    # weights. SQLite evaluates these with the same IEEE operations, in the
    # same order, as float(latency) * period and w0*ff + w1*lut + w2*bram +
    # w3*dsp in Python, and keeps integer weights integer.
    OBJECTIVES = {
        "latency": "CAST(p.latency_cycles AS REAL)",
        "latency_ns": "p.latency_cycles * p.achieved_period_ns",
        "ff": "CAST(r.ff AS REAL)",
        "lut": "CAST(r.lut AS REAL)",
        "bram": "CAST(r.bram AS REAL)",
        "dsp": "CAST(r.dsp AS REAL)",
        "area": "? * r.ff + ? * r.lut + ? * r.bram + ? * r.dsp",
    }

    def fetch_points(
        self,
        space_id: int,
        objectives: Iterable[str],
        area_weights: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 0.0),
    ) -> list[DesignPoint]:
        """One validated objective vector per ok implementation of the
        space, in configuration id order.

        Objective names: latency (cycles), latency_ns (cycles x achieved
        period), ff/lut/bram/dsp, and area (weighted resource sum using
        ``area_weights`` in ff/lut/bram/dsp order). A stored value that
        yields a negative or non-finite objective raises AnalyticsError.
        """
        objectives = list(objectives)
        if not objectives:
            raise StoreError("objective list is empty")
        for name in objectives:
            if name not in self.OBJECTIVES:
                raise StoreError(f"unknown objective {name!r}")
        params: list = []
        if "area" in objectives:
            if len(area_weights) != 4:
                raise StoreError("area weights must be four values")
            if all(w == 0 for w in area_weights):
                raise StoreError("area weights must not be all zero")
            params = list(area_weights) * objectives.count("area")
        self.get_space(space_id)
        rows = self.conn.execute(
            "SELECT " + ", ".join(self.OBJECTIVES[o] for o in objectives)
            + ", i.configuration_id"
            " FROM implementation i"
            " JOIN configuration c ON c.id = i.configuration_id"
            " JOIN resource_usage r ON r.implementation_id = i.id"
            " JOIN performance p ON p.implementation_id = i.id"
            " WHERE c.space_id=? AND i.status='ok' ORDER BY i.configuration_id",
            params + [space_id],
        )
        return [DesignPoint(row[:-1], row[-1]) for row in rows]

    # -- export / import --------------------------------------------------

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
            cols = _EXPORT_COLS[table]
            for row in self.conn.execute(query, (space_id,)):
                yield table, dict(zip(cols, row))

    def export_jsonl(self, space_id: int) -> bytes:
        """JSON-lines dump of every row belonging to a space; each object
        carries a "table" discriminator."""
        lines = [
            _ENCODER.encode({"table": table, **data})
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
        counts. Ids are remapped; nothing is committed on failure.

        Taxonomy and space rows are written one at a time; each run of up
        to _RUN_ROWS consecutive rows of one other table goes in one
        executemany. Configuration and implementation rows carry the ids
        SQLite would pick, one past the table's largest, so children can be
        remapped before their parents are written."""
        id_maps: dict[str, dict[int, int]] = {t: {} for t in TABLES}
        next_id: dict[str, int] = {}
        counts: Counter = Counter()
        last_good = -1
        run_table, run = None, []  # the pending run: (record index, values)

        def flush():
            nonlocal last_good, run
            if not run:
                return
            before = self.conn.total_changes
            try:
                self.conn.executemany(_INSERT[run_table], (v for _, v in run))
            except sqlite3.IntegrityError as e:
                # each row inserted before the failing one counts one change
                applied = self.conn.total_changes - before
                if applied:
                    last_good = run[applied - 1][0]
                raise ImportError_(f"referential violation: {e}", last_good) from None
            counts[run_table] += len(run)
            last_good = run[-1][0]
            run = []

        def failure(message: str) -> ImportError_:
            """The error for the current record, once the records before it
            are applied, so that an earlier failure is the one raised."""
            flush()
            return ImportError_(message, last_good)

        with self.conn:
            for n, line in enumerate(payload.decode().splitlines()):
                if not line.strip():
                    continue
                try:
                    obj = _DECODER.decode(line)
                except json.JSONDecodeError as e:
                    raise failure(f"malformed record: {e}") from None
                if not isinstance(obj, dict):
                    raise failure("malformed record: not a JSON object")
                table = obj.pop("table", None)
                if table == "_meta":
                    if obj.get("schema_version") not in IMPORT_VERSIONS:
                        raise failure(
                            f"schema version mismatch: {obj.get('schema_version')}"
                        )
                    flush()
                    last_good = n
                    continue
                if table not in _COLUMN_SETS:
                    raise failure(f"unknown table {table!r}")
                if obj.keys() != _COLUMN_SETS[table]:
                    raise failure(f"bad columns for table {table}")
                if table in _PARENT:
                    fk, parent = _PARENT[table]
                    try:
                        obj[fk] = id_maps[parent][obj[fk]]
                    except KeyError:
                        raise failure(
                            f"{table} row references unknown {fk}={obj[fk]}"
                        ) from None
                if table in _BATCHED:
                    if table != run_table:
                        flush()
                        run_table = table
                    if "id" in obj:
                        if table not in next_id:
                            (top,) = self.conn.execute(
                                f"SELECT MAX(id) FROM {table}"
                            ).fetchone()
                            next_id[table] = (top or 0) + 1
                        old_id, obj["id"] = obj["id"], next_id[table]
                        next_id[table] += 1
                        if old_id is not None:
                            id_maps[table][old_id] = obj["id"]
                    run.append((n, [obj[c] for c in _EXPORT_COLS[table]]))
                    if len(run) == _RUN_ROWS:
                        flush()
                    continue
                flush()
                old_id, obj["id"] = obj["id"], None
                values = [obj[c] for c in _EXPORT_COLS[table]]
                try:
                    if table in _TAXONOMY_KEY:
                        keys = _TAXONOMY_KEY[table]
                        self.conn.execute(
                            f"{_INSERT[table]} ON CONFLICT ({','.join(keys)}) DO NOTHING",
                            values,
                        )
                        (new_id,) = self.conn.execute(
                            f"SELECT id FROM {table} WHERE "
                            + " AND ".join(f"{k}=?" for k in keys),
                            [obj[k] for k in keys],
                        ).fetchone()
                    else:
                        new_id = self.conn.execute(_INSERT[table], values).lastrowid
                except sqlite3.IntegrityError as e:
                    dup = table == "configuration_space" and self._space_id(
                        obj["design_id"], obj["csd_text"]
                    )
                    if dup:
                        raise failure(
                            f"space already registered for design"
                            f" {obj['design_id']} (id {dup})"
                        ) from None
                    raise failure(f"referential violation: {e}") from None
                if old_id is not None:
                    id_maps[table][old_id] = new_id
                counts[table] += 1
                last_good = n
            flush()
        return dict(counts)

    def check_integrity(self) -> list[str]:
        """Full-scan referential check; returns human-readable violations."""
        orphans = Counter(
            table for table, *_ in self.conn.execute("PRAGMA foreign_key_check")
        )
        return [f"{orphans[t]} orphan {t} row(s)" for t in TABLES if orphans[t]]
