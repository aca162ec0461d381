"""Configuration space descriptor (CSD) language.

A descriptor is a UTF-8 text file with one knob per line. Each knob names an
HLS directive, the function (and array/loop label) it applies to, any fixed
parameters, and one or more value sets to sweep. Value sets are brace
delimited; a generated range is written ``{lo->hi,pow_2}`` or ``{lo->hi,div}``.
A ``@bind_<tag>`` decorator appended to a knob's last value set forces equal
values across all knobs carrying the same tag.

Blank lines and lines starting with ``#`` are ignored.

A ``Knob`` checks its fields, and a ``CSD`` the invariants of
``validate_csd``, whenever one is built, by ``parse_csd`` or in Python; a
parsed knob's error carries its line. Two knobs of one kind may not agree on
the location fields that the kind's Tcl line names (for inline, the function).
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
BIND_RE = re.compile(r"@bind_([A-Za-z_][A-Za-z0-9_]*)$")
NUMBER_RE = re.compile(r"[0-9]+")
RANGE_RE = re.compile(r"([0-9]+)\s*->\s*([0-9]+)\s*,\s*([A-Za-z_][A-Za-z0-9_]*)$")
# the largest ``hi`` of a div range, which bounds its divisor scan at 2**20
# trial divisions; HLS factor arguments are far smaller
MAX_DIV_HI = 2**40
# the largest clock period: up to it every integer is an exact float, the
# type of the period's stored column
MAX_CLOCK = 2**53


class CsdError(Exception):
    """Base class for descriptor errors."""


class CsdSyntaxError(CsdError):
    """Raised when a descriptor line cannot be parsed.

    Carries the 1-based line number and, when known, the column.
    """

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        self.line = line
        self.column = column
        loc = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{loc}: {message}")


class CsdValidationError(CsdError):
    """Raised when a CSD is built that violates a structural invariant."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class GeneratorKind(Enum):
    POW2 = "pow_2"
    DIV = "div"


@dataclass(frozen=True)
class Value:
    """A single knob value: an integer or a categorical token."""

    raw: Union[int, str]

    def __post_init__(self):
        if isinstance(self.raw, str) and not IDENT_RE.match(self.raw):
            raise ValueError(f"invalid categorical token: {self.raw!r}")

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.raw, int)

    def render(self) -> str:
        return str(self.raw)


@dataclass(frozen=True)
class ExplicitList:
    values: tuple[Value, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("explicit value set must be non-empty")
        if len(set(v.raw for v in self.values)) != len(self.values):
            raise ValueError("explicit value set contains duplicates")

    @property
    def is_numeric(self) -> bool:
        return all(v.is_numeric for v in self.values)

    def render(self) -> str:
        return "{" + ",".join(v.render() for v in self.values) + "}"


@dataclass(frozen=True)
class GeneratedRange:
    lo: int
    hi: int
    generator: GeneratorKind

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"invalid range bounds {self.lo}->{self.hi}")
        if self.generator is GeneratorKind.DIV and self.hi > MAX_DIV_HI:
            raise ValueError(f"div range bound {self.hi} exceeds {MAX_DIV_HI}")

    @property
    def is_numeric(self) -> bool:
        return True

    def render(self) -> str:
        return "{%d->%d,%s}" % (self.lo, self.hi, self.generator.value)


ValueSet = Union[ExplicitList, GeneratedRange]


def expand_value_set(vs: ValueSet) -> list[Value]:
    """Expand a value set to its ordered list of values.

    Explicit lists keep their written order; generated ranges expand to a
    strictly increasing sequence (powers of two in [lo, hi], or the divisors
    of hi that are >= lo).
    """
    if isinstance(vs, ExplicitList):
        return list(vs.values)
    if vs.generator is GeneratorKind.POW2:
        out, v = [], 1
        while v <= vs.hi:
            if v >= vs.lo:
                out.append(Value(v))
            v *= 2
        return out
    # divisors of hi within [lo, hi], ascending: each d <= sqrt(hi) pairs
    # with hi // d, so the scan is O(sqrt(hi)) rather than O(hi)
    small = [d for d in range(1, math.isqrt(vs.hi) + 1) if vs.hi % d == 0]
    large = [vs.hi // d for d in reversed(small) if d * d != vs.hi]
    return [Value(d) for d in small + large if d >= vs.lo]


@dataclass(frozen=True)
class DirectiveKind:
    """Entry of the fixed directive table, one per directive token.

    ``takes_location`` controls whether the line carries function and target
    fields; ``fixed_params`` names the constant fields between the location
    and the value sets; ``set_names`` fixes the value-set arity. ``tcl`` is
    the kind's line of a directive script, a ``str.format`` template over
    ``function``, ``target``, the fixed parameters and the set names.
    ``tokens``, unless empty, is the closed vocabulary of the kind's values,
    each with the text it puts into ``tcl``.
    """

    token: str
    takes_location: bool
    fixed_params: tuple[str, ...]
    set_names: tuple[str, ...]
    tcl: str
    tokens: tuple[tuple[str, str], ...] = ()

    @property
    def located_by(self) -> tuple[str, ...]:
        """The location fields, of ``function`` and ``target``, that ``tcl`` names."""
        named = {field for _, field, _, _ in string.Formatter().parse(self.tcl)}
        return tuple(f for f in ("function", "target") if f in named)


DEFAULT_DIRECTIVES: dict[str, DirectiveKind] = {
    d.token: d
    for d in [
        DirectiveKind("resource", True, (), ("core",),
                      'set_directive_resource -core {core} "{function}" {target}'),
        DirectiveKind("array_partition", True, ("dim",), ("type", "factor"),
                      "set_directive_array_partition -type {type} -factor {factor}"
                      ' -dim {dim} "{function}" {target}'),
        DirectiveKind("unroll", True, (), ("factor",),
                      'set_directive_unroll -factor {factor} "{function}/{target}"'),
        DirectiveKind("pipeline", True, (), ("ii",),
                      'set_directive_pipeline -II {ii} "{function}/{target}"'),
        DirectiveKind("inline", True, (), ("mode",), 'set_directive_inline{mode} "{function}"',
                      (("on", ""), ("off", " -off"), ("recursive", " -recursive"),
                       ("region", " -region"))),
        DirectiveKind("clock", False, (), ("period",), "create_clock -period {period}"),
    ]
}


@dataclass(frozen=True)
class Knob:
    directive: DirectiveKind
    function: Optional[str]
    target: Optional[str]
    fixed_params: tuple[str, ...]
    value_sets: tuple[ValueSet, ...]
    bind_tag: Optional[str] = None

    def __post_init__(self):
        kind = self.directive
        if kind.takes_location:
            for name, val in (("function", self.function), ("target", self.target)):
                if not (isinstance(val, str) and IDENT_RE.match(val)):
                    raise ValueError(f"invalid {name} identifier {val!r}")
        if len(self.fixed_params) != len(kind.fixed_params):
            raise ValueError(f"{kind.token}: expected fixed parameters {kind.fixed_params}")
        for name, val in zip(kind.fixed_params, self.fixed_params):
            if not (isinstance(val, str) and NUMBER_RE.fullmatch(val)):
                raise ValueError(f"{kind.token}: {name} must be digits, got {val!r}")
        if len(self.value_sets) != len(kind.set_names):
            raise ValueError(f"{kind.token}: expected {len(kind.set_names)} value set(s),"
                             f" got {len(self.value_sets)}")
        if self.bind_tag is not None and not IDENT_RE.match(self.bind_tag):
            raise ValueError(f"invalid bind tag {self.bind_tag!r}")

    @property
    def is_clock(self) -> bool:
        return self.directive.token == "clock"

    @property
    def location(self) -> tuple[str, ...]:
        """The knob line's fields before its value sets; duplicates share it."""
        where = (self.function, self.target) if self.directive.takes_location else ()
        return (self.directive.token, *where, *self.fixed_params)

    def tcl_line(self, values: tuple[Value, ...]) -> str:
        """The kind's Tcl line for this knob set to ``values``, one per value set."""
        kind, texts = self.directive, dict(self.directive.tokens)
        sets = {n: texts[v.raw] if texts else v.render() for n, v in zip(kind.set_names, values)}
        fixed = dict(zip(kind.fixed_params, self.fixed_params))
        return kind.tcl.format(function=self.function, target=self.target, **fixed, **sets)

    def render(self) -> str:
        line = ";".join((*self.location, *(vs.render() for vs in self.value_sets)))
        if self.bind_tag:
            line += f"@bind_{self.bind_tag}"
        return line


@dataclass
class Diagnostic:
    code: str
    knob_index: Optional[int]
    message: str

    def __str__(self):
        where = "" if self.knob_index is None else f"knob {self.knob_index}: "
        return f"{self.code}: {where}{self.message}"


@dataclass(frozen=True)
class CSD:
    knobs: tuple[Knob, ...]

    def bind_groups(self) -> dict[str, list[int]]:
        """Map each bind tag to the indices of its member knobs, in order."""
        groups: dict[str, list[int]] = {}
        for i, k in enumerate(self.knobs):
            if k.bind_tag:
                groups.setdefault(k.bind_tag, []).append(i)
        return groups

    def __post_init__(self):
        diags = validate_csd(self)
        if diags:
            raise CsdValidationError(diags)


def _parse_number(token: str, lineno: int) -> int:
    """A token of ASCII digits as an int; Python refuses to convert one of
    more than 4300 digits (sys.int_info.default_max_str_digits)."""
    try:
        return int(token)
    except ValueError:
        raise CsdSyntaxError(f"{len(token)}-digit number is too long", lineno) from None


def _parse_value_set(text: str, lineno: int) -> ValueSet:
    if not (text.startswith("{") and text.endswith("}")):
        raise CsdSyntaxError(f"value set must be brace-delimited: {text!r}", lineno)
    body = text[1:-1].strip()
    if not body:
        raise CsdSyntaxError("empty value set", lineno)
    m = RANGE_RE.match(body)
    if m:
        lo, hi = (_parse_number(m.group(g), lineno) for g in (1, 2))
        gen = m.group(3)
        try:
            kind = GeneratorKind(gen)
        except ValueError:
            raise CsdSyntaxError(f"unknown range generator {gen!r}", lineno) from None
        try:
            rng = GeneratedRange(lo, hi, kind)
        except ValueError as e:
            raise CsdSyntaxError(str(e), lineno) from None
        # a div range always holds hi; a pow_2 range may hold nothing
        if kind is GeneratorKind.POW2 and not expand_value_set(rng):
            raise CsdSyntaxError(f"no power of two in {lo}->{hi}", lineno)
        return rng
    if "->" in body:
        raise CsdSyntaxError(f"malformed range set: {{{body}}}", lineno)
    values = []
    for tok in body.split(","):
        tok = tok.strip()
        if not tok:
            raise CsdSyntaxError("empty value in set", lineno)
        if NUMBER_RE.fullmatch(tok):
            values.append(Value(_parse_number(tok, lineno)))
        elif IDENT_RE.match(tok):
            values.append(Value(tok))
        else:
            raise CsdSyntaxError(f"malformed value {tok!r}", lineno)
    try:
        return ExplicitList(tuple(values))
    except ValueError as e:
        raise CsdSyntaxError(str(e), lineno) from None


def _parse_line(line: str, lineno: int) -> Knob:
    bind_tag = None
    m = BIND_RE.search(line)
    if m:
        bind_tag = m.group(1)
        line = line[: m.start()]
    elif "@" in line:
        raise CsdSyntaxError("malformed @bind decorator", lineno, line.index("@") + 1)

    fields = [f.strip() for f in line.split(";")]
    if not fields or not fields[0]:
        raise CsdSyntaxError("missing directive kind", lineno, 1)
    kind = DEFAULT_DIRECTIVES.get(fields[0])
    if kind is None:
        raise CsdSyntaxError(f"unknown directive kind {fields[0]!r}", lineno, 1)

    pos = 1
    function = target = None
    if kind.takes_location:
        if len(fields) < 3:
            raise CsdSyntaxError(f"{kind.token}: missing function/target fields", lineno)
        function, target = fields[1], fields[2]
        pos = 3
    end = pos + len(kind.fixed_params)
    value_sets = tuple(_parse_value_set(f, lineno) for f in fields[end:])
    try:
        return Knob(kind, function, target, tuple(fields[pos:end]), value_sets, bind_tag)
    except ValueError as e:
        raise CsdSyntaxError(str(e), lineno) from None


def validate_csd(csd: CSD) -> list[Diagnostic]:
    """Check every structural invariant; returns one diagnostic per violation."""
    diags: list[Diagnostic] = []
    seen: dict[tuple, int] = {}
    clock_indices = []
    for i, knob in enumerate(csd.knobs):
        # two knobs that agree on what their Tcl lines name direct the same object
        kind = knob.directive
        ident = (kind.token, *(getattr(knob, f) for f in kind.located_by), *knob.fixed_params)
        if ident in seen:
            diags.append(
                Diagnostic(
                    "DuplicateKnob", i, f"same directive/location as knob {seen[ident]}"
                )
            )
        else:
            seen[ident] = i
        if knob.is_clock:
            clock_indices.append(i)
            if not knob.value_sets[0].is_numeric:
                diags.append(
                    Diagnostic("CategoricalClock", i, "clock periods must be numbers")
                )
            elif any(v.raw > MAX_CLOCK for v in expand_value_set(knob.value_sets[0])):
                diags.append(
                    Diagnostic("ClockOutOfRange", i, "clock periods must be <= 2**53")
                )
        tokens = dict(knob.directive.tokens)
        unknown = tokens and {v.render() for vs in knob.value_sets
                              for v in expand_value_set(vs)} - tokens.keys()
        if unknown:
            listed = ", ".join(sorted(unknown))
            diags.append(Diagnostic("UnknownToken", i, f"{listed}: not one of {', '.join(tokens)}"))
        if knob.bind_tag is not None and not knob.value_sets[-1].is_numeric:
            diags.append(
                Diagnostic("BindOnCategoricalSet", i, f"tag {knob.bind_tag!r}")
            )
    if not clock_indices:
        diags.append(Diagnostic("MissingClock", None, "exactly one clock knob required"))
    elif len(clock_indices) > 1:
        for i in clock_indices[1:]:
            diags.append(Diagnostic("DuplicateClock", i, "more than one clock knob"))

    for tag, members in csd.bind_groups().items():
        expansions = []
        for i in members:
            vs = csd.knobs[i].value_sets[-1]
            if vs.is_numeric:
                expansions.append([v.raw for v in expand_value_set(vs)])
        if expansions and any(e != expansions[0] for e in expansions[1:]):
            diags.append(
                Diagnostic(
                    "MismatchedBindSets",
                    members[0],
                    f"tag {tag!r}: bound sets expand to different values",
                )
            )
    return diags


def parse_csd(text: str) -> CSD:
    """Parse descriptor text into a CSD.

    Raises CsdSyntaxError on malformed lines and CsdValidationError when
    structural invariants fail.
    """
    if not text.strip():
        raise CsdSyntaxError("empty descriptor", 1)
    knobs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        knobs.append(_parse_line(line, lineno))
    return CSD(tuple(knobs))


def serialize_csd(csd: CSD) -> str:
    """Render a CSD in canonical form; reparsing yields an equal structure."""
    return "".join(k.render() + "\n" for k in csd.knobs)
