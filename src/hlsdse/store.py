"""Embedded relational store for design spaces and synthesis results.

Schema (seven tables, three views): benchmark -> algorithm -> design form
the design taxonomy; configuration_space rows hold the canonical descriptor
text and its cardinality; a configuration row is (id, space_id, idx),
written only when the point is about to be attempted: its key, key text and
directive values are a pure function of the descriptor text and the index,
derived by ``SpaceIndex.decode`` and never stored. A tool row is one (name,
version, part). Each synthesis attempt is one implementation row: its
configuration, tool, status, provenance and clock period and, exactly when
the status is ok, its resource counts, latency and achieved period. The
read-only views synthesis_info, resource_usage and performance show them
under the table and column names of versions 1 to 3. The DDL is shipped
verbatim in SCHEMA_DDL; the tables, columns and foreign keys that export,
import and the rebuild use are read from it (see _schema). The database
itself rejects a configuration index outside [0, cardinality) (a trigger), a
partial result, a count that is not an integer, or a period that is not a
positive and finite REAL (CHECK constraints), and a second ok result for one
configuration and tool (a partial unique index), whoever writes the row. The
CHECKs test types with typeof, after column affinity has converted numeric
text, because SQLite finds text such as 'abc' >= 0. The status CHECK is an
OR of equalities: SQLite compiles an IN list into a temporary B-tree filled
for every row inserted, which cost more than every other CHECK together.

Every reader of a stored space goes through ``Store.space_index``, which
parses the descriptor and checks that its size is the row's cardinality, so
a campaign on a space that fails the check writes nothing.

Opening a store reads its sqlite_schema once. A store at this version that
holds every SCHEMA_DDL object with its text is not written, but for a switch
to write-ahead-log mode. One that holds a table of this schema whose CREATE
text is not SCHEMA_DDL's is copied whole into SCHEMA_DDL (see
``Store._rebuild``): a version-4 store, whose implementation table differed
only in its CHECKs, or one loaded from a version-4 SQL export. Versions 1 to
3 kept results in a synthesis_info table, which is a view from version 4 on;
a store holding that table is refused with one VersionMismatchError and not
written. Imports read exports of versions 4 and 5, which share one layout,
through SCHEMA_DDL's constraints. An import refuses a NaN, an infinity or a
float literal beyond the float range as a malformed record.

SQLite renders the lines of a JSON-lines export: its json_quote writes the
integers, text and NULLs, while REAL values come back to Python and are
written by float repr, as json writes them, because json_quote keeps only
15 significant digits. On ASCII text the lines are those of
``json.dumps(..., sort_keys=True)``. Characters at or above 0x7f are
written as raw UTF-8 rather than ``\\u`` escapes, except U+0085, U+2028 and
U+2029: str.splitlines breaks lines at them, so they stay escaped and
earlier imports, which split that way, read every export. Import splits
records at "\\n" only and reads both forms. The SQL export writes each REAL
as its integer significand scaled by powers of two, which SQLite evaluates
exactly: its parser reads some decimal literals, repr's and its own quote()'s
among them, as a neighbouring double.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sqlite3
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, count
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .analytics import DesignPoint, pareto_front
from .dsl import CSD, CsdError, parse_csd, serialize_csd
from .space import SpaceError, SpaceIndex, build_index

SCHEMA_VERSION = 5
# export versions import_jsonl reads: a version-4 export has the layout of
# this version's
IMPORT_VERSIONS = (4, 5)

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
    UNIQUE (space_id, idx)
);
CREATE TABLE IF NOT EXISTS tool (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    version TEXT NOT NULL,
    part TEXT NOT NULL,
    UNIQUE (name, version, part)
);
CREATE TABLE IF NOT EXISTS implementation (
    id INTEGER PRIMARY KEY,
    configuration_id INTEGER NOT NULL REFERENCES configuration(id),
    tool_id INTEGER NOT NULL REFERENCES tool(id),
    status TEXT NOT NULL CHECK (status = 'ok' OR status = 'synth_error' OR status = 'timeout'),
    timestamp TEXT NOT NULL,
    contributor TEXT NOT NULL,
    clock_period_ns REAL NOT NULL
        CHECK (clock_period_ns > 0 AND clock_period_ns < 9e999),
    ff INTEGER CHECK (ff >= 0),
    lut INTEGER CHECK (lut >= 0),
    bram INTEGER CHECK (bram >= 0),
    dsp INTEGER CHECK (dsp >= 0),
    latency_cycles INTEGER CHECK (latency_cycles >= 0),
    achieved_period_ns REAL
        CHECK (achieved_period_ns > 0 AND achieved_period_ns < 9e999),
    CONSTRAINT whole_result CHECK (CASE WHEN status = 'ok'
        THEN typeof(ff) = 'integer' AND typeof(lut) = 'integer' AND typeof(bram) = 'integer'
            AND typeof(dsp) = 'integer' AND typeof(latency_cycles) = 'integer'
            AND typeof(achieved_period_ns) = 'real'
        ELSE coalesce(ff, lut, bram, dsp, latency_cycles, achieved_period_ns) IS NULL
    END)
);
CREATE INDEX IF NOT EXISTS idx_implementation_config
    ON implementation(configuration_id);
CREATE UNIQUE INDEX IF NOT EXISTS one_ok_result_per_tool
    ON implementation(configuration_id, tool_id) WHERE status = 'ok';
CREATE VIEW IF NOT EXISTS synthesis_info AS
    SELECT i.id AS implementation_id, i.timestamp, i.contributor,
        t.name AS tool_name, t.version AS tool_version, t.part AS fpga_part,
        i.clock_period_ns
    FROM implementation i JOIN tool t ON t.id = i.tool_id;
CREATE VIEW IF NOT EXISTS resource_usage AS
    SELECT id AS implementation_id, ff, lut, bram, dsp
    FROM implementation WHERE status = 'ok';
CREATE VIEW IF NOT EXISTS performance AS
    SELECT id AS implementation_id, latency_cycles, achieved_period_ns
    FROM implementation WHERE status = 'ok';
CREATE TRIGGER IF NOT EXISTS configuration_idx_in_range
BEFORE INSERT ON configuration
WHEN NOT (typeof(NEW.idx) = 'integer' AND NEW.idx >= 0 AND NEW.idx <
    (SELECT cardinality FROM configuration_space WHERE id = NEW.space_id))
BEGIN
    SELECT RAISE(ABORT, 'configuration index out of range');
END;
"""

# a store's schema objects, as (type, name, CREATE text), in creation order;
# main's only, so sqlite_temp_schema does not count
_OBJECTS = "SELECT type, name, sql FROM main.sqlite_master ORDER BY rowid"


def _schema() -> tuple[list, dict, dict, frozenset]:
    """What SCHEMA_DDL states, read from SCHEMA_DDL itself: its table names
    in creation order, which puts every parent before its children; each
    table's columns in DDL order; each table's foreign keys, as {column:
    parent table} in column order; and its objects as _OBJECTS reads them."""
    with contextlib.closing(sqlite3.connect(":memory:")) as conn:
        conn.executescript(SCHEMA_DDL)
        objects = conn.execute(_OBJECTS).fetchall()
        tables = [name for kind, name, _ in objects if kind == "table"]
        cols, parents = {}, {}
        for t in tables:
            cols[t] = tuple(row[1] for row in conn.execute(f"PRAGMA table_info({t})"))
            fks = {row[3]: row[2] for row in conn.execute(f"PRAGMA foreign_key_list({t})")}
            parents[t] = {c: fks[c] for c in cols[t] if c in fks}
        return tables, cols, parents, frozenset(objects)


def _insert_sql(table: str, cols: Sequence[str]) -> str:
    return f"INSERT INTO {table} ({','.join(cols)}) VALUES ({','.join('?' * len(cols))})"


# the tables, parents first; the columns export writes and import requires,
# per table, id first; table -> {foreign key column: the record table whose
# ids import remaps it by}; and the objects of a store that init_schema
# leaves alone
TABLES, _EXPORT_COLS, _PARENT, _SCHEMA_OBJECTS = _schema()
# every column is listed, so an imported row's id is either chosen by the
# import or NULL, which lets SQLite pick it
_INSERT = {t: _insert_sql(t, cols) for t, cols in _EXPORT_COLS.items()}
# taxonomy and tool rows are got-or-created by their UNIQUE keys, by
# ensure_design, record_result and import alike, so that spaces of one
# design, and results of one tool, share them
_TAXONOMY_KEY = {
    "benchmark": ("name",),
    "algorithm": ("benchmark_id", "name"),
    "design": ("algorithm_id", "name"),
    "tool": ("name", "version", "part"),
}
# a space's configuration rows with idx in [lo, hi], as ConfigRecord fields
_CONFIG_RECORDS = (
    "SELECT id, space_id, idx FROM configuration"
    " WHERE space_id=? AND idx BETWEEN ? AND ? ORDER BY idx"
)
# the implementation rows of a space, joined as i and c
_OF_SPACE = (
    "FROM implementation i JOIN configuration c ON c.id=i.configuration_id"
    " WHERE c.space_id=?"
)
# (table, alias, FROM ... WHERE ... ORDER BY) per table, parents first: each
# clause binds the space id and reads that table's rows of the space, aliased
# as ``alias``; both exports build their SELECT lists on these
_EXPORT_QUERIES = [
    ("benchmark", "b",
     "FROM benchmark b JOIN algorithm a ON a.benchmark_id=b.id"
     " JOIN design d ON d.algorithm_id=a.id"
     " JOIN configuration_space s ON s.design_id=d.id WHERE s.id=?"),
    ("algorithm", "a",
     "FROM algorithm a JOIN design d ON d.algorithm_id=a.id"
     " JOIN configuration_space s ON s.design_id=d.id WHERE s.id=?"),
    ("design", "d",
     "FROM design d JOIN configuration_space s ON s.design_id=d.id WHERE s.id=?"),
    ("configuration_space", "s", "FROM configuration_space s WHERE s.id=?"),
    ("configuration", "c", "FROM configuration c WHERE c.space_id=? ORDER BY c.idx"),
    ("tool", "t",
     f"FROM tool t WHERE t.id IN (SELECT i.tool_id {_OF_SPACE}) ORDER BY t.id"),
    ("implementation", "i", f"{_OF_SPACE} ORDER BY i.id"),
]


# the characters above 0x7f that str.splitlines breaks a line at, with the
# escapes json.dumps writes for them. json_quote leaves them raw, so an
# export escapes them, as json_quote escapes those below 0x20, and a reader
# that splits with splitlines, as earlier imports did, reads each line whole.
_LINE_BREAKS = {c: f"\\u{ord(c):04x}" for c in "\x85\u2028\u2029"}


def _export_line(table: str, alias: str, clause: str) -> tuple[str, str]:
    """The query and the %-template of one table's JSON lines.

    The template holds the keys in sorted order, "table" among them, as
    ``json.dumps(..., sort_keys=True)`` writes them; the query selects one
    value per %s in that order. SQLite's json_quote renders integers, text
    and NULL; a REAL comes back as a Python float, which %s renders with
    float.__repr__ as json does, since json_quote keeps only 15 digits.
    """
    keys = sorted([*_EXPORT_COLS[table], "table"])
    template = "{" + ", ".join(
        f"{json.dumps(k)}: " + (json.dumps(table) if k == "table" else "%s") for k in keys
    ) + "}"
    select = ", ".join(
        f"CASE typeof({alias}.{c}) WHEN 'real' THEN {alias}.{c}"
        f" ELSE json_quote({alias}.{c}) END"
        for c in keys if c != "table"
    )
    return f"SELECT {select} {clause}", template


# (query, line template) per table, in _EXPORT_QUERIES order
_EXPORT_LINES = [_export_line(*q) for q in _EXPORT_QUERIES]
_EXPORT_HEADER = json.dumps({"table": "_meta", "schema_version": SCHEMA_VERSION})
# point_set results kept at once, each with its front once built; the
# oldest goes first
_POINT_SETS_KEPT = 32
# rows per executemany: long enough to amortize the call, short enough
# that the parsed rows held in memory stay few
_RUN_ROWS = 256


def _sql_real(v: float) -> str:
    """An SQL expression that SQLite evaluates to exactly ``v``, a finite
    double: an integer of at most 53 bits, cast to REAL, then multiplied or
    divided by powers of two of at most 2**62, each step exact."""
    n, d = v.as_integer_ratio()
    shift = d.bit_length() - 1  # v = n / 2**shift, n odd unless shift is 0
    if not shift and n:
        shift = 1 - (n & -n).bit_length()  # n = odd * 2**-shift
        n >>= -shift
    op = "/" if shift > 0 else "*"
    steps = [62] * (abs(shift) // 62) + [abs(shift) % 62]
    return f"CAST({n} AS REAL)" + "".join(f"{op}{1 << s}" for s in steps if s)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # a literal such as 1e999
        raise ValueError(f"number {text} out of range")
    return value


# one decoder for every line, rather than one built per json.loads call; it
# refuses NaN, Infinity, -Infinity and a float literal beyond the float
# range, which no SQL export could write back
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)
# SQLite's message for a second ok result of one configuration and tool
_DUPLICATE_OK = "UNIQUE constraint failed: implementation.configuration_id, implementation.tool_id"
# what SQLite raises for a row it rejects: a constraint, or a value it
# cannot bind (a JSON list or object, an integer beyond 64 bits); Python
# 3.10 raises InterfaceError where later versions raise ProgrammingError
_REJECTED = (
    sqlite3.IntegrityError, sqlite3.InterfaceError, sqlite3.ProgrammingError,
    OverflowError,
)


class StoreError(Exception):
    pass


class VersionMismatchError(StoreError):
    pass


class DuplicateSpaceError(StoreError):
    pass


class DuplicateImplementationError(StoreError):
    pass


class ImportRejected(StoreError):
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


class Tool(NamedTuple):
    """A synthesis tool version and the FPGA part it targets: one tool row."""
    name: str
    version: str
    part: str


@dataclass(frozen=True)
class SynthesisInfo:
    contributor: str
    tool: Tool
    clock_period_ns: float
    timestamp: Optional[str] = None


@dataclass(frozen=True)
class PointSet:
    """The ok points of one ``Store.point_set`` read and their Pareto front,
    which is built on first access only and kept with the points."""

    points: tuple[DesignPoint, ...]

    @functools.cached_property
    def front(self) -> tuple[DesignPoint, ...]:
        """``pareto_front(self.points)``; AnalyticsError for no points."""
        return tuple(pareto_front(self.points))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _rejection(table: str, e: Exception) -> str:
    """The import diagnostic for a ``table`` row that SQLite rejected: the
    trigger's own message, a duplicate ok implementation, a referential
    violation for a foreign key, else a malformed record (a CHECK, NOT NULL
    or UNIQUE failure, or an unbindable value)."""
    if str(e) == "configuration index out of range":
        return str(e)
    if str(e) == _DUPLICATE_OK:
        return "duplicate ok implementation"
    if str(e) == "FOREIGN KEY constraint failed":
        return f"referential violation: {e}"
    return f"malformed {table} record: {e}"


class Store:
    """Single-writer SQLite-backed store; readers see only committed data.

    A file store runs with ``synchronous=NORMAL`` and, once ``init_schema``
    accepts it, in write-ahead-log mode; a store it refuses keeps its
    journal mode and every byte. A commit appends to ``<path>-wal`` without
    waiting for an fsync, so a committed result survives a crash of the
    writing process, but on power loss or an operating-system crash the
    commits since the last checkpoint may roll back; the database stays
    consistent either way. While a store is open it keeps ``<path>-wal`` and
    ``<path>-shm`` beside the file, so copy a store only while it is closed.
    ``:memory:`` stores ignore both settings.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self.conn = sqlite3.connect(path)
        # Tool -> id of the tool row that record_result read or created,
        # once that transaction has committed
        self._tool_ids: dict[Tool, int] = {}
        # point_set's results per (space id, objectives, bound weights),
        # valid while the store's state is _points_stamp (see point_set)
        self._points: dict[tuple, PointSet] = {}
        self._points_stamp: Optional[tuple[int, int]] = None
        try:
            self.conn.execute("PRAGMA foreign_keys = ON")
            # the first statement that reads the file: one that is not a
            # database fails here, and the caller gets no store to close
            self.conn.execute("PRAGMA user_version")
            self.conn.execute("PRAGMA synchronous = NORMAL")
        except sqlite3.Error:
            self.conn.close()
            raise

    def close(self):
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- schema -----------------------------------------------------------

    def init_schema(self):
        """Bring the store to SCHEMA_DDL, with no write to a current store
        in write-ahead-log mode and one _rebuild for a version-4 layout (see
        the module docstring); idempotent. Rejects, writing nothing, a store
        of a newer schema version and one of versions 1 to 3, whose
        synthesis_info is a table; switches a file store it accepts to
        write-ahead-log mode."""
        (version,) = self.conn.execute("PRAGMA user_version").fetchone()
        if version > SCHEMA_VERSION:
            raise VersionMismatchError(
                f"store version {version} is newer than supported {SCHEMA_VERSION}"
            )
        objects = set(self.conn.execute(_OBJECTS))
        if any(kind == "table" and name == "synthesis_info" for kind, name, _ in objects):
            raise VersionMismatchError(
                f"store version {version} has the layout of versions 1 to 3,"
                " which is no longer read; the oldest supported is 4"
            )
        # only once the store is accepted: switching the journal mode of a
        # rollback-journal file rewrites its header
        self.conn.execute("PRAGMA journal_mode = WAL")
        if version == SCHEMA_VERSION and objects >= _SCHEMA_OBJECTS:
            return
        if any(kind == "table" and name in TABLES for kind, name, _ in objects - _SCHEMA_OBJECTS):
            self._rebuild(objects)
        with self.conn:
            self.conn.executescript(
                f"BEGIN; {SCHEMA_DDL} PRAGMA user_version = {SCHEMA_VERSION}; COMMIT;"
            )

    def _rebuild(self, objects: set):
        """Copy the store, whose schema objects are ``objects`` as _OBJECTS
        reads them, into SCHEMA_DDL in one transaction that keeps every id,
        with foreign keys off: drop every view, index and trigger, as a
        renamed table keeps its own and a view is rewritten to read it; rename
        every table of TABLES legacy_<table>, as SQLite rewrites a child's
        REFERENCES to a renamed parent; create SCHEMA_DDL; and copy each table
        in TABLES order through the columns it shares with SCHEMA_DDL, then
        drop its legacy_ table. A store holding an orphan row, or a row that
        SCHEMA_DDL rejects, raises StoreError naming it and is left as it was.
        No copied row is a second ok result for one configuration and tool: a
        version-4 store holds SCHEMA_DDL's one_ok_result_per_tool index."""
        conn = self.conn
        problems = self.check_integrity()
        if problems:
            raise StoreError("cannot upgrade store: " + ", ".join(problems))
        tables = [t for t in TABLES if any(o[:2] == ("table", t) for o in objects)]
        # foreign keys can only be switched outside a transaction
        conn.commit()
        conn.execute("PRAGMA foreign_keys = OFF")
        try:
            with conn:
                # not SQLite's sqlite_* objects, which go with their tables;
                # sorted, so that a view's INSTEAD OF triggers go before it
                conn.executescript(
                    "BEGIN;"
                    + "".join(
                        f"DROP {kind} {name};" for kind, name, _ in sorted(objects)
                        if kind != "table" and not name.startswith("sqlite_")
                    )
                    + "".join(f"ALTER TABLE {t} RENAME TO legacy_{t};" for t in tables)
                    + SCHEMA_DDL
                )
                for t in tables:
                    self._copy_table(t)
                    conn.execute(f"DROP TABLE legacy_{t}")
        finally:
            conn.execute("PRAGMA foreign_keys = ON")

    def _insert_rows(self, insert: str, rows: Iterable) -> Optional[tuple[int, Exception]]:
        """Run the statement ``insert`` over ``rows``; returns None, or the
        number of rows applied before the one that SQLite refused and its
        error (see _REJECTED)."""
        before = self.conn.total_changes
        try:
            self.conn.executemany(insert, rows)
        except _REJECTED as e:
            # each row inserted before the refused one counts one change
            return self.conn.total_changes - before, e
        return None

    def _copy_table(self, table: str):
        """Insert the rows of legacy_<table> into ``table`` in id order,
        through the columns the two share; raises StoreError naming the
        first row that SQLite refuses."""
        old = {row[1] for row in self.conn.execute(f"PRAGMA table_info(legacy_{table})")}
        cols = [c for c in _EXPORT_COLS[table] if c in old]
        select = f"SELECT {','.join(cols)} FROM legacy_{table} ORDER BY id"
        rows = self.conn.execute(select)
        try:
            refused = self._insert_rows(_insert_sql(table, cols), rows)
        finally:
            rows.close()
        if refused:
            applied, e = refused
            (row_id, *_) = self.conn.execute(f"{select} LIMIT 1 OFFSET ?", (applied,)).fetchone()
            raise StoreError(
                f"cannot upgrade store: {_rejection(table, e)} ({table} id {row_id})"
            )

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
            bid = self._get_or_create("benchmark", {"name": benchmark})
            aid = self._get_or_create("algorithm", {"benchmark_id": bid, "name": algorithm})
            return self._get_or_create("design", {
                "algorithm_id": aid, "name": design,
                "source_ref": source_ref, "function_name": function_name,
            })

    def _get_or_create(self, table: str, row: dict) -> int:
        """Id of the taxonomy row with ``row``'s key, inserting ``row`` (column
        -> value, no id) when the table has none."""
        keys = _TAXONOMY_KEY[table]
        self.conn.execute(
            f"{_INSERT[table]} ON CONFLICT ({','.join(keys)}) DO NOTHING",
            [row.get(c) for c in _EXPORT_COLS[table]],
        )
        (row_id,) = self.conn.execute(
            f"SELECT id FROM {table} WHERE " + " AND ".join(f"{k}=?" for k in keys),
            [row[k] for k in keys],
        ).fetchone()
        return row_id

    # -- spaces and configurations ---------------------------------------

    def register_space(
        self, design_id: int, csd: CSD, contributor: str, index: Optional[SpaceIndex] = None
    ) -> SpaceRecord:
        """Insert the space row; its configuration rows are written as they
        are attempted (see add_configurations). ``index`` is
        ``build_index(csd)`` when the caller has built it already."""
        canonical = serialize_csd(csd)
        total = (index or build_index(csd)).total
        created = _now()
        with self.conn:
            space_id = self._insert_space([
                None, design_id, canonical, total, contributor, created
            ])
        return SpaceRecord(space_id, design_id, canonical, total, contributor, created)

    def _insert_space(self, values: list) -> int:
        """Insert a configuration_space row, ``values`` in column order with a
        None id; returns its id. A design that already holds the descriptor
        raises DuplicateSpaceError, an unknown design or a rejected value
        StoreError."""
        try:
            return self.conn.execute(_INSERT["configuration_space"], values).lastrowid
        except sqlite3.IntegrityError as e:
            _, design_id, csd_text, *_ = values
            dup = self._space_id(design_id, csd_text)
            if dup:
                raise DuplicateSpaceError(
                    f"space already registered for design {design_id} (id {dup})"
                ) from None
            if self.conn.execute(
                "SELECT 1 FROM design WHERE id=?", (design_id,)
            ).fetchone():
                raise StoreError(f"cannot register space for design {design_id}: {e}") from None
            raise StoreError(f"unknown design id {design_id}") from e

    def space_index(self, space_id: int, index: Optional[SpaceIndex] = None) -> SpaceIndex:
        """The index of a space row's descriptor, whose size must be the
        row's cardinality, since configuration indices are checked against
        it; raises StoreError, CsdError or SpaceError. ``index``, when
        given, is used in place of parsing the stored text again, and must
        index that descriptor."""
        space = self.get_space(space_id)
        if index is None:
            index = build_index(parse_csd(space.csd_text))
        elif serialize_csd(index.csd) != space.csd_text:
            raise StoreError(f"the index given is not that of space {space_id}'s descriptor")
        if index.total != space.cardinality:
            raise StoreError(
                f"space cardinality {space.cardinality!r} is not the size of its"
                f" descriptor, {index.total}"
            )
        return index

    def get_space(self, space_id: int) -> SpaceRecord:
        row = self.conn.execute(
            "SELECT * FROM configuration_space WHERE id=?", (space_id,)
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

    def configurations(self, space_id: int) -> list[ConfigRecord]:
        """The configuration rows written so far, in index order."""
        cardinality = self.get_space(space_id).cardinality
        rows = self.conn.execute(_CONFIG_RECORDS, (space_id, 0, cardinality - 1))
        return [ConfigRecord(*r) for r in rows]

    def add_configurations(self, space_id: int, idxs: Sequence[int]) -> list[ConfigRecord]:
        """Get-or-create the rows of the indices ``idxs`` in one transaction;
        returns their records in idx order, one per distinct index. Rows are
        created in the order given, so ids follow idx order whenever
        configurations are attempted in it. An index outside the space
        raises StoreError."""
        if not idxs:
            return []
        try:
            with self.conn:
                self.conn.executemany(
                    _INSERT["configuration"] + " ON CONFLICT (space_id, idx) DO NOTHING",
                    ((None, space_id, idx) for idx in idxs),
                )
                rows = self.conn.execute(
                    _CONFIG_RECORDS, (space_id, min(idxs), max(idxs))
                ).fetchall()
        except sqlite3.IntegrityError as e:
            raise StoreError(f"cannot add configurations to space {space_id}: {e}") from None
        wanted = set(idxs)
        return [ConfigRecord(*r) for r in rows if r[2] in wanted]

    # -- results ----------------------------------------------------------

    def record_result(self, configuration_id: int, result, info: SynthesisInfo) -> int:
        """Commit one synthesis outcome, an orchestrator.ImplementationResult
        whose metrics are stored only when it is ok, as one implementation
        row, getting or creating its tool row; returns the implementation id.
        A second ok result for the configuration and tool raises
        DuplicateImplementationError, a row that SCHEMA_DDL rejects (such as
        a period that is not positive and finite) StoreError; neither writes.
        """
        metrics = (result.ff, result.lut, result.bram, result.dsp,
                   result.latency_cycles, result.achieved_period_ns)
        tool_id = self._tool_ids.get(info.tool)
        try:
            with self.conn:
                if tool_id is None:
                    tool_id = self._get_or_create("tool", info.tool._asdict())
                row_id = self.conn.execute(_INSERT["implementation"], (
                    None, configuration_id, tool_id, result.status,
                    info.timestamp or _now(), info.contributor, info.clock_period_ns,
                    *(metrics if result.status == "ok" else (None,) * len(metrics)),
                )).lastrowid
        except sqlite3.IntegrityError as e:
            if str(e) == _DUPLICATE_OK:
                raise DuplicateImplementationError(
                    f"configuration {configuration_id} already has an ok"
                    f" implementation for {info.tool.name} {info.tool.version}"
                    f" on {info.tool.part}"
                ) from None
            # an unknown configuration id fails the foreign key, a negative
            # resource count or an infinite period a CHECK, a NaN period
            # (which SQLite binds as NULL) NOT NULL or whole_result
            raise StoreError(
                f"cannot record configuration id {configuration_id}: {e}"
            ) from None
        # committed, so the tool row stays: no writer updates or deletes one
        self._tool_ids[info.tool] = tool_id
        return row_id

    def _attempted(self, select: str, space_id: int, tool: Optional[Tool] = None, order=""):
        """Run ``SELECT <select>`` over the space's attempts, joined as c and
        i, only those of ``tool`` if given, followed by ``order``."""
        q = f"SELECT {select} {_OF_SPACE}"
        params: tuple = (space_id,)
        if tool is not None:
            q += " AND i.tool_id = (SELECT id FROM tool WHERE name=? AND version=? AND part=?)"
            params += tuple(tool)
        return self.conn.execute(q + order, params)

    def iter_pending(self, space_id: int, tool: Optional[Tool] = None) -> Iterator[int]:
        """The indices of the points with no recorded attempt of ``tool``,
        ascending: a lazy walk over the gaps between the attempted indices,
        which are read here, in one query, so the walk holds no cursor and
        its memory grows with the attempts, not with the space. Without
        ``tool``, a space with attempts of more than one tool raises
        StoreError here, as count_pending does."""
        cardinality = self.get_space(space_id).cardinality
        # one tool, so its distinct (idx, tool) pairs have distinct indices
        q = self._attempted("DISTINCT c.idx, i.tool_id", space_id, tool, " ORDER BY c.idx")
        rows = q.fetchall()
        if len({tool_id for _, tool_id in rows}) > 1:
            raise self._mixed_tools(space_id, ok=False)
        done = [idx for idx, _ in rows]
        starts = [0] + [idx + 1 for idx in done]
        return chain.from_iterable(map(range, starts, done + [cardinality]))

    def pending_configurations(self, space_id: int, tool: Optional[Tool] = None) -> list[int]:
        """``list(iter_pending(space_id, tool))``. Derived from the space's
        cardinality and its attempted rows, so it does not depend on which
        rows exist."""
        return list(self.iter_pending(space_id, tool))

    def count_pending(self, space_id: int, tool: Optional[Tool] = None) -> int:
        """``len(pending_configurations(space_id, tool))``, counted in SQL.
        Without ``tool``, a space with attempts of more than one tool or
        part, whose points are pending for one tool and not for another,
        raises StoreError naming its (tool, version, part) tuples."""
        cardinality = self.get_space(space_id).cardinality
        ((attempted, tools),) = self._attempted(
            "COUNT(DISTINCT c.idx), COUNT(DISTINCT i.tool_id)", space_id, tool
        )
        if tools > 1:
            raise self._mixed_tools(space_id, ok=False)
        return cardinality - attempted

    def _mixed_tools(self, space_id: int, ok: bool) -> StoreError:
        """The error for a space whose attempts (its ok ones, if ``ok``)
        come from more than one tool or part, naming their (tool, version,
        part) tuples."""
        where = " AND i.status='ok'" if ok else ""
        tools = self.conn.execute(
            "SELECT name, version, part FROM tool WHERE id IN"
            f" (SELECT i.tool_id {_OF_SPACE}{where}) ORDER BY 1, 2, 3",
            (space_id,),
        )
        return StoreError(
            f"space {space_id} has {'ok ' if ok else ''}results of more than one tool,"
            " from " + ", ".join(f"{n} {v} on {part}" for n, v, part in tools)
        )

    def count_implementations(self, space_id: int, status: Optional[str] = None) -> int:
        q = f"SELECT COUNT(*) {_OF_SPACE}"
        params: list = [space_id]
        if status:
            q += " AND i.status=?"
            params.append(status)
        (n,) = self.conn.execute(q, params).fetchone()
        return n

    # objective name -> SQL expression over one ok implementation row (i);
    # "area" binds the four weights. SQLite evaluates these with the same
    # IEEE operations, in the same order, as float(latency) * period and
    # w0*ff + w1*lut + w2*bram + w3*dsp in Python, and keeps integer weights
    # integer.
    OBJECTIVES = {
        "latency": "CAST(i.latency_cycles AS REAL)",
        "latency_ns": "i.latency_cycles * i.achieved_period_ns",
        "ff": "CAST(i.ff AS REAL)",
        "lut": "CAST(i.lut AS REAL)",
        "bram": "CAST(i.bram AS REAL)",
        "dsp": "CAST(i.dsp AS REAL)",
        "area": "? * i.ff + ? * i.lut + ? * i.bram + ? * i.dsp",
    }

    def fetch_points(
        self,
        space_id: int,
        objectives: Iterable[str],
        area_weights: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 0.0),
    ) -> list[DesignPoint]:
        """A new list of ``point_set(...).points`` for these arguments."""
        return list(self.point_set(space_id, objectives, area_weights).points)

    def point_set(
        self,
        space_id: int,
        objectives: Iterable[str],
        area_weights: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 0.0),
    ) -> PointSet:
        """One validated objective vector per ok implementation of the
        space, in configuration id order, with their front (see PointSet).
        A space with ok results of more than one tool or part, on the same
        configurations or on others, raises StoreError naming its (tool,
        version, part) tuples.

        Objective names: latency (cycles), latency_ns (cycles x achieved
        period), ff/lut/bram/dsp, and area (weighted resource sum using
        ``area_weights`` in ff/lut/bram/dsp order: four finite non-negative
        values, not all zero, else StoreError). A stored value that yields a
        negative or non-finite objective raises AnalyticsError.

        The points are read once per store state: a set read outside a
        transaction is kept, per space, objectives and weights, and later
        calls return that same set, front and all, while the state stamp,
        ``(PRAGMA data_version, total_changes)``, is the one read before
        its SELECT. Any commit of another connection moves the first, and
        any row this connection inserts, updates or deletes, rolled back or
        not, the second; either empties every kept set. At most 32 sets are
        kept, and the oldest goes first. Arguments are checked before the
        stamp, and a read that raises is not kept.
        """
        objectives = tuple(objectives)
        if not objectives:
            raise StoreError("objective list is empty")
        for name in objectives:
            if name not in self.OBJECTIVES:
                raise StoreError(f"unknown objective {name!r}")
        params: list = []
        if "area" in objectives:
            if len(area_weights) != 4 or not all(0 <= w < math.inf for w in area_weights):
                raise StoreError("area weights must be four finite non-negative values")
            if all(w == 0 for w in area_weights):
                raise StoreError("area weights must not be all zero")
            params = list(area_weights) * objectives.count("area")
        # read before the SELECT, so that a commit landing between the two
        # empties the kept points at the next call
        (data_version,) = self.conn.execute("PRAGMA data_version").fetchone()
        stamp = (data_version, self.conn.total_changes)
        if stamp != self._points_stamp:
            self._points.clear()
            self._points_stamp = stamp
        # SQLite keeps an integer weight's area integer, so 1 and 1.0 differ
        key = (space_id, objectives, tuple((type(w), w) for w in params))
        kept = self._points.get(key)
        if kept is not None:
            return kept
        self.get_space(space_id)
        rows = self.conn.execute(
            "SELECT " + ", ".join(self.OBJECTIVES[o] for o in objectives)
            + ", i.configuration_id, i.tool_id"
            f" {_OF_SPACE} AND i.status='ok' ORDER BY i.configuration_id",
            params + [space_id],
        ).fetchall()
        # one ok result per configuration and tool (one_ok_result_per_tool),
        # so one tool also means one result per configuration
        if len({row[-1] for row in rows}) > 1:
            raise self._mixed_tools(space_id, ok=True)
        kept = PointSet(tuple(DesignPoint(row[:-2], row[-2]) for row in rows))
        # inside a transaction the SELECT may see rows that a rollback
        # takes back without moving the stamp
        if not self.conn.in_transaction:
            if len(self._points) == _POINT_SETS_KEPT:
                del self._points[next(iter(self._points))]
            self._points[key] = kept
        return kept

    # -- export / import --------------------------------------------------

    def _space_rows(self, space_id: int) -> Iterator[tuple[str, dict]]:
        self.get_space(space_id)
        for table, alias, clause in _EXPORT_QUERIES:
            cols = _EXPORT_COLS[table]
            for row in self.conn.execute(f"SELECT {alias}.* {clause}", (space_id,)):
                yield table, dict(zip(cols, row))

    def export_jsonl(self, space_id: int) -> bytes:
        """JSON-lines dump of every row belonging to a space; each object
        carries a "table" discriminator. SQLite renders each line (see
        _export_line), so text is written as raw UTF-8 but for the
        characters in _LINE_BREAKS."""
        self.get_space(space_id)
        lines = [_EXPORT_HEADER]
        for query, template in _EXPORT_LINES:
            lines.extend(map(template.__mod__, self.conn.execute(query, (space_id,))))
        text = "\n".join(lines) + "\n"
        # they occur only in strings, where the escape reads back the same
        for c, escape in _LINE_BREAKS.items():
            if c in text:
                text = text.replace(c, escape)
        return text.encode()

    def export_sql(self, space_id: int) -> bytes:
        """SQL dump (DDL plus INSERT statements) for one space, which
        SQLite loads back to the same values (see _sql_real)."""

        def lit(v):
            if v is None:
                return "NULL"
            if isinstance(v, float):
                return _sql_real(v)
            if isinstance(v, int):
                return repr(v)
            return "'" + str(v).replace("'", "''") + "'"

        out = [SCHEMA_DDL.strip(), ""]
        for table, data in self._space_rows(space_id):
            cols = ",".join(data.keys())
            vals = ",".join(lit(v) for v in data.values())
            out.append(f"INSERT INTO {table} ({cols}) VALUES ({vals});")
        return ("\n".join(out) + "\n").encode()

    def import_jsonl(self, payload: bytes) -> dict[str, int]:
        """Load a JSON-lines export into this store; returns the number of
        records applied per table. Ids are remapped; nothing is committed on
        failure. Taxonomy, tool and space rows are written one at a time;
        each run of up to _RUN_ROWS consecutive rows of one other table goes
        in one executemany. Configuration and implementation rows carry the
        ids SQLite would pick, one past the table's largest, so children can
        be remapped before their parents are written. The export's header
        must name a version of IMPORT_VERSIONS."""
        id_maps: dict[str, dict] = defaultdict(dict)  # record table -> old id -> new id
        next_id: dict[str, Iterator[int]] = {}  # table -> the ids its rows take
        counts: Counter = Counter()
        last_good = -1
        run_table, run = None, []  # the pending run: (record index, values)
        # table -> (the keys of its records, a getter of a record's values in
        # column order, id first, (position, column, parent record table) per
        # foreign key, and whether its rows go in runs); built here, from
        # _EXPORT_COLS and _PARENT as they are when the import runs
        plans = {
            t: (
                frozenset((*cols, "table")), itemgetter(*cols),
                [(cols.index(fk), fk, parent) for fk, parent in _PARENT.get(t, {}).items()],
                t not in _TAXONOMY_KEY and t != "configuration_space",
            )
            for t, cols in _EXPORT_COLS.items()
        }

        def flush():
            nonlocal last_good, run
            if not run:
                return
            refused = self._insert_rows(_INSERT[run_table], (v for _, v in run))
            if refused:
                applied, e = refused
                if applied:
                    last_good = run[applied - 1][0]
                raise ImportRejected(_rejection(run_table, e), last_good)
            counts[run_table] += len(run)
            last_good = run[-1][0]
            run = []

        def failure(message: str) -> ImportRejected:
            """The error for the current record, once the records before it
            are applied, so that an earlier failure is the one raised."""
            flush()
            return ImportRejected(message, last_good)

        with self.conn:
            # one transaction from the first statement, the reads of MAX(id)
            # among them
            self.conn.execute("BEGIN")
            for n, line in enumerate(payload.decode().split("\n")):
                if not line.strip():
                    continue
                # raw_decode reads a line without whitespace around its value,
                # as exports write it, without the two whitespace scans of
                # decode, which reads any other line and words every error
                try:
                    obj, end = _DECODER.raw_decode(line)
                except ValueError:
                    end = None
                if end != len(line):
                    try:
                        obj = _DECODER.decode(line)
                    except ValueError as e:  # JSONDecodeError or a non-finite number
                        raise failure(f"malformed record: {e}") from None
                if not isinstance(obj, dict):
                    raise failure("malformed record: not a JSON object")
                table = obj.get("table")
                if table == "_meta":
                    version = obj.get("schema_version")
                    # 4.0 == 4, but it is not a version
                    if type(version) is not int or version not in IMPORT_VERSIONS:
                        raise failure(f"schema version mismatch: {version}")
                    flush()
                    last_good = n
                    continue
                # a table name or foreign key that is a JSON list or object
                # cannot key a dict, which raises TypeError below
                try:
                    keys, get, fks, runs = plans[table]
                except (KeyError, TypeError):
                    raise failure(f"unknown table {table!r}") from None
                if obj.keys() != keys:
                    raise failure(f"bad columns for table {table}")
                old_id = obj["id"]
                if isinstance(old_id, (list, dict)):  # cannot key id_maps
                    raise failure(f"malformed {table} id {old_id!r}")
                values = list(get(obj))
                for pos, fk, parent in fks:
                    try:
                        values[pos] = id_maps[parent][values[pos]]
                    except (KeyError, TypeError):
                        raise failure(
                            f"{table} row references unknown {fk}={values[pos]}"
                        ) from None
                if runs:
                    if table != run_table:
                        flush()
                        run_table = table
                    if table not in next_id:
                        (top,) = self.conn.execute(f"SELECT MAX(id) FROM {table}").fetchone()
                        next_id[table] = count((top or 0) + 1)
                    new_id = values[0] = next(next_id[table])
                    run.append((n, values))
                else:
                    # the taxonomy, tool and space rows, written as
                    # ensure_design, record_result and register_space write them
                    flush()
                    values[0] = None
                    try:
                        if table in _TAXONOMY_KEY:
                            new_id = self._get_or_create(
                                table, dict(zip(_EXPORT_COLS[table], values))
                            )
                        else:
                            new_id = self._insert_space(values)
                            self.space_index(new_id)
                    except StoreError as e:
                        raise failure(str(e)) from None
                    except _REJECTED as e:
                        raise failure(_rejection(table, e)) from None
                    except (CsdError, SpaceError) as e:
                        raise failure(f"configuration_space descriptor: {e}") from None
                    counts[table] += 1
                    last_good = n
                if old_id is not None:
                    id_maps[table][old_id] = new_id
                if len(run) == _RUN_ROWS:
                    flush()
            flush()
        return dict(counts)

    def check_integrity(self) -> list[str]:
        """Full-scan referential check; returns human-readable violations."""
        orphans = Counter(
            table for table, *_ in self.conn.execute("PRAGMA foreign_key_check")
        )
        return [f"{n} orphan {t} row(s)" for t, n in orphans.items()]
