"""Output checks of the DSE-lifecycle benchmark.

Every check compares the program's outputs with a computation made here,
apart from the program, or with a property the method must have. None of
them compares with a stored copy of an earlier output. Each raises
``CheckFailed`` with a message naming what disagreed.

Objective vectors are plain tuples of numbers, all minimized.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Vector = tuple


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own figure."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(got: float, want: float, what: str, rel: float = 1e-9) -> None:
    require(
        math.isclose(got, want, rel_tol=rel, abs_tol=1e-12),
        f"{what}: program gives {got!r}, benchmark computes {want!r}",
    )


# -- descriptor arithmetic ------------------------------------------------

_RANGE = re.compile(r"^(\d+)\s*->\s*(\d+)\s*,\s*(pow_2|div)$")
_BIND = re.compile(r"@bind_(\w+)$")


@dataclass(frozen=True)
class KnobText:
    """One descriptor line: its directive kind, value lists and bind tag."""

    kind: str
    value_sets: tuple[tuple, ...]
    bind_tag: Optional[str]


def expand_set(text: str) -> tuple:
    """Values of one brace-delimited value set, in written order."""
    body = text.strip()[1:-1].strip()
    m = _RANGE.match(body)
    if m:
        lo, hi, gen = int(m.group(1)), int(m.group(2)), m.group(3)
        if gen == "pow_2":
            return tuple(2**e for e in range(hi.bit_length()) if lo <= 2**e <= hi)
        return tuple(d for d in range(lo, hi + 1) if hi % d == 0)
    return tuple(int(t) if t.strip().isdigit() else t.strip() for t in body.split(","))


def descriptor_knobs(text: str) -> list[KnobText]:
    """Knobs of a descriptor: value sets are the brace-delimited fields."""
    knobs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tag = None
        m = _BIND.search(line)
        if m:
            tag, line = m.group(1), line[: m.start()]
        fields = line.split(";")
        sets = tuple(expand_set(f) for f in fields if f.strip().startswith("{"))
        knobs.append(KnobText(fields[0].strip(), sets, tag))
    return knobs


def space_size(text: str) -> int:
    """|CS|: product of every value-set size, each bind group counted once."""
    size = 1
    groups: dict[str, int] = {}
    for knob in descriptor_knobs(text):
        sets = knob.value_sets
        if knob.bind_tag is not None:
            groups[knob.bind_tag] = len(sets[-1])
            sets = sets[:-1]
        for s in sets:
            size *= len(s)
    for n in groups.values():
        size *= n
    return size


def clock_value(text: str) -> float:
    """The single clock period a descriptor fixes."""
    (clock,) = [k for k in descriptor_knobs(text) if k.kind == "clock"]
    (values,) = clock.value_sets
    require(len(values) == 1, f"clock knob must be single-valued, has {values}")
    return float(values[0])


def check_cardinality(text: str, **reported: int) -> int:
    """Every reported |CS| equals the descriptor arithmetic above."""
    want = space_size(text)
    for what, got in reported.items():
        require(got == want, f"{what} = {got}, descriptor arithmetic gives {want}")
    return want


# -- campaign -------------------------------------------------------------


@dataclass(frozen=True)
class StoredResult:
    """One implementation row of the campaign store."""

    configuration_id: int
    idx: int
    status: str
    clock_period_ns: float
    objectives: Optional[tuple]  # latency, period, ff, lut, bram, dsp


def check_campaign(
    results: Sequence[StoredResult],
    attempted: int,
    pending: int,
    cardinality: int,
    max_in_flight: int,
    jobs: int,
    clock_ns: float,
) -> None:
    """Store contents after ``attempted`` results in total have been run."""
    ok = sum(r.status == "ok" for r in results)
    require(ok == attempted, f"{ok} ok results stored, {attempted} attempted")
    require(
        len(results) == attempted,
        f"{len(results)} implementations stored, {attempted} attempted",
    )
    require(
        pending == cardinality - attempted,
        f"pending {pending}, expected {cardinality} - {attempted}",
    )
    dup = [c for c, n in Counter(r.configuration_id for r in results).items() if n > 1]
    require(not dup, f"configurations with two implementations: {dup[:5]}")
    require(max_in_flight <= jobs, f"max_in_flight {max_in_flight} > jobs {jobs}")
    bad = [r for r in results if r.clock_period_ns != clock_ns]
    require(not bad, f"{len(bad)} results record a clock other than {clock_ns} ns")


def check_mock_monotone(rows: Iterable[tuple]) -> None:
    """Rows are (group, unroll product, latency, lut).

    Within a group (fixed categorical choices and partition product) latency
    must not rise and LUT must not fall as the unroll product grows.
    """
    by_group: dict = defaultdict(lambda: defaultdict(list))
    for group, unroll, latency, lut in rows:
        by_group[group][unroll].append((latency, lut))
    for group, by_unroll in by_group.items():
        prev = None
        for unroll in sorted(by_unroll):
            lats = [lat for lat, _ in by_unroll[unroll]]
            luts = [lut for _, lut in by_unroll[unroll]]
            if prev is not None:
                require(
                    max(lats) <= prev[0] and min(luts) >= prev[1],
                    f"mock shape broken in group {group} at unroll {unroll}",
                )
            prev = (min(lats), max(luts))


# -- Pareto fronts and indicators ------------------------------------------


def dominates(a: Vector, b: Vector) -> bool:
    """a is no worse than b in every objective and better in one."""
    return all(x <= y for x, y in zip(a, b)) and a != b


def nondominated(points: Iterable[Vector]) -> list[Vector]:
    """Distinct non-dominated vectors, ascending.

    A dominator precedes what it dominates in lexicographic order, and a
    dominated dominator has a non-dominated one of its own, so each point
    needs testing only against the vectors kept before it.
    """
    kept: list[Vector] = []
    for p in sorted(set(points)):
        if not any(dominates(q, p) for q in kept):
            kept.append(p)
    return kept


def check_front(front: Sequence[Vector], points: Sequence[Vector]) -> None:
    """``front`` is the Pareto front of ``points``.

    It is sorted, no front point is dominated by a stored point, and every
    stored point is dominated by or equal to a front point. A point dominated
    by anything is dominated by a non-dominated point, so the second test
    runs against ``nondominated(points)``.
    """
    require(list(front) == sorted(front), "front is not sorted")
    require(len(set(front)) == len(front), "front repeats a vector")
    stored = set(points)
    best = nondominated(points)
    for q in front:
        require(q in stored, f"front point {q} is not a stored point")
        require(
            not any(dominates(p, q) for p in best),
            f"front point {q} is dominated by a stored point",
        )
    for p in stored:
        require(
            any(q == p or dominates(q, p) for q in front),
            f"stored point {p} is neither on nor dominated by the front",
        )


def adrs_value(reference: Sequence[Vector], approx: Sequence[Vector]) -> float:
    """Mean over the reference of the least worst-case relative deviation.

    The deviation never falls when an approximating point gets worse, so
    only non-dominated approximating points need scanning.
    """
    candidates = nondominated(approx)
    total = 0.0
    for g in reference:
        total += min(
            max(max(0.0, (w - gv) / gv) for gv, w in zip(g, o)) for o in candidates
        )
    return total / len(reference)


def staircase_area(points: Sequence[Vector], ref: Vector) -> float:
    """Area dominated by 2-D points and bounded by ``ref``, summed in strips
    of the union's lower staircase from left to right."""
    steps: list[Vector] = []
    for x, y in sorted(points):
        if not steps or y < steps[-1][1]:
            steps.append((x, y))
    area = 0.0
    for i, (x, y) in enumerate(steps):
        right = steps[i + 1][0] if i + 1 < len(steps) else ref[0]
        area += (right - x) * (ref[1] - y)
    return area


def check_eval(
    trace: Sequence[tuple[int, Vector]],
    budget: int,
    queries_used: int,
    reported_adrs: float,
    reference_front: Sequence[Vector],
    lookup: dict,
) -> None:
    """A strategy evaluation used exactly its budget on distinct stored
    configurations, saw their stored objectives, and reports the ADRS
    recomputed here from its trace against the verified reference front."""
    ids = [cid for cid, _ in trace]
    require(
        len(ids) == budget == queries_used,
        f"budget {budget}, trace has {len(ids)}, reported {queries_used}",
    )
    require(len(set(ids)) == budget, "trace repeats a configuration")
    wrong = [cid for cid, v in trace if lookup.get(cid) != v]
    require(not wrong, f"trace disagrees with the store on {wrong[:5]}")
    want = adrs_value(reference_front, [v for _, v in trace])
    require_close(reported_adrs, want, "strategy ADRS")


# -- export / import -------------------------------------------------------


def check_import(export_lines: dict[str, int], imported: dict[str, int]) -> None:
    """The import applied one row for every exported line, table by table."""
    require(
        export_lines == imported,
        f"export lines per table {export_lines} != imported rows {imported}",
    )


def check_same_points(a: Iterable[Vector], b: Iterable[Vector], what: str) -> None:
    """Two stores hold the same multiset of objective vectors."""
    ca, cb = Counter(a), Counter(b)
    require(ca == cb, f"{what}: objective multisets differ by {(ca - cb) + (cb - ca)}")
