from pathlib import Path

import pytest
from hypothesis import strategies as st

from hlsdse.dsl import (
    CSD,
    DEFAULT_DIRECTIVES,
    ExplicitList,
    GeneratedRange,
    GeneratorKind,
    Knob,
    Value,
    expand_value_set,
    parse_csd,
)
from hlsdse.orchestrator import mock_synthesize
from hlsdse.space import build_index
from hlsdse.store import SynthesisInfo, Tool

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def last_step_scan_text() -> str:
    return (DATA / "last_step_scan.csd").read_text()


@pytest.fixture(scope="session")
def local_scan_text() -> str:
    return (DATA / "local_scan.csd").read_text()


def record_disjoint_tools(store) -> int:
    """Register local_scan.csd in ``store`` and record a seed-0 mock ok
    result of tool-a on each idx in 0-299 and of tool-b on each in 300-703,
    so that no point has results of both; returns the space id."""
    csd = parse_csd((DATA / "local_scan.csd").read_text())
    index = build_index(csd)
    rec = store.register_space(store.ensure_design("b", "a", "d"), csd, "t")
    for cfg in store.add_configurations(rec.id, range(index.total)):
        tool = "tool-a" if cfg.idx < 300 else "tool-b"
        info = SynthesisInfo("t", Tool(tool, "1.0", "mockpart"), 10.0)
        store.record_result(cfg.id, mock_synthesize(index.decode(cfg.idx), csd, 0), info)
    return rec.id


@pytest.fixture(scope="session")
def sample_report_xml() -> bytes:
    return (DATA / "sample_report.xml").read_bytes()


# ---------------------------------------------------------------------------
# Random CSD generation (hypothesis), used by round-trip and enumeration
# property tests. Generated descriptors are small (<= 4 sweep knobs, <= 6
# values per set) but exercise every directive kind and bind groups.
# ---------------------------------------------------------------------------

idents = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def numeric_sets(draw, max_values=6):
    if draw(st.booleans()):
        lo = draw(st.integers(1, 4))
        hi = draw(st.integers(lo, 64))
        gen = draw(st.sampled_from(list(GeneratorKind)))
        rng = GeneratedRange(lo, hi, gen)
        if not expand_value_set(rng):
            rng = GeneratedRange(1, hi, gen)
        return rng
    values = draw(
        st.lists(st.integers(1, 99), min_size=1, max_size=max_values, unique=True)
    )
    return ExplicitList(tuple(Value(v) for v in values))


@st.composite
def categorical_sets(draw, max_values=4):
    tokens = draw(st.lists(idents, min_size=1, max_size=max_values, unique=True))
    return ExplicitList(tuple(Value(t) for t in tokens))


@st.composite
def random_csds(draw, max_knobs=4, max_values=6):
    """A valid CSD with a clock knob, random sweep knobs on one function (at
    most one of them inline), and optionally one bind group sharing an
    identical numeric set."""
    n = draw(st.integers(1, max_knobs))
    fn = draw(idents)
    knobs = []
    bind_members = []
    shared_set = draw(numeric_sets(max_values))
    kinds = ["resource", "array_partition", "unroll", "pipeline", "inline"]
    for i in range(n):
        kind_token = draw(st.sampled_from(kinds))
        if kind_token == "inline":
            # an inline directive names the function alone, so one per function
            kinds.remove("inline")
        kind = DEFAULT_DIRECTIVES[kind_token]
        target = f"t{i}"
        bindable = draw(st.booleans())
        if kind_token == "resource":
            sets = (draw(categorical_sets()),)
            bindable = False
        elif kind_token == "inline":
            modes = draw(st.lists(st.sampled_from([t for t, _ in kind.tokens]),
                                  min_size=1, unique=True))
            sets = (ExplicitList(tuple(Value(m) for m in modes)),)
            bindable = False
        elif kind_token == "array_partition":
            last = shared_set if bindable else draw(numeric_sets(max_values))
            sets = (draw(categorical_sets()), last)
        else:
            sets = (shared_set if bindable else draw(numeric_sets(max_values)),)
        tag = "a" if bindable else None
        if tag:
            bind_members.append(i)
        fixed = ("1",) if kind_token == "array_partition" else ()
        knobs.append(Knob(kind, fn, target, fixed, sets, tag))
    if len(bind_members) == 1:
        # a singleton bind group is legal but boring; keep it anyway
        pass
    knobs.append(
        Knob(DEFAULT_DIRECTIVES["clock"], None, None, (),
             (ExplicitList((Value(10),)),), None)
    )
    return CSD(tuple(knobs))


# ---------------------------------------------------------------------------
# Acceptance reporting: one PASS/FAIL line per criterion in the summary.
# ---------------------------------------------------------------------------

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name].upper()
        outcome = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{name}: {outcome}")
