import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlsdse.dsl
from hlsdse.dsl import (
    CSD,
    DEFAULT_DIRECTIVES,
    MAX_DIV_HI,
    CsdSyntaxError,
    CsdValidationError,
    ExplicitList,
    GeneratedRange,
    GeneratorKind,
    Knob,
    Value,
    expand_value_set,
    parse_csd,
    serialize_csd,
    validate_csd,
)
from hlsdse.space import build_index

from conftest import random_csds


def divisors(n):
    # trial-division oracle
    return [d for d in range(1, n + 1) if n % d == 0]


class TestExpansion:
    def test_pow2_1_to_512(self):
        vs = GeneratedRange(1, 512, GeneratorKind.POW2)
        assert [v.raw for v in expand_value_set(vs)] == [
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
        ]

    def test_explicit_order_preserved(self):
        vs = ExplicitList(tuple(Value(v) for v in (1, 2, 4, 8, 16)))
        assert [v.raw for v in expand_value_set(vs)] == [1, 2, 4, 8, 16]

    def test_degenerate_range(self):
        assert [v.raw for v in expand_value_set(GeneratedRange(1, 1, GeneratorKind.POW2))] == [1]

    @pytest.mark.parametrize("hi", [1, 2, 12, 48, 97, 128])
    def test_div_matches_trial_division(self, hi):
        vs = GeneratedRange(1, hi, GeneratorKind.DIV)
        assert [v.raw for v in expand_value_set(vs)] == divisors(hi)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10**4).flatmap(
            lambda hi: st.tuples(st.integers(1, hi), st.just(hi))
        )
    )
    def test_div_matches_definition_property(self, bounds):
        lo, hi = bounds
        vs = GeneratedRange(lo, hi, GeneratorKind.DIV)
        assert [v.raw for v in expand_value_set(vs)] == [
            d for d in range(lo, hi + 1) if hi % d == 0
        ]

    def test_div_of_large_power_of_two(self, monkeypatch):
        """The divisor scan of {1->2**40,div} tries at most sqrt(2**40)
        divisors: a spy on the module's ``range`` stops an O(hi) scan at once."""

        def bounded_range(*args):
            r = range(*args)
            assert len(r) <= 2**20 + 1, f"a scan of {len(r)} trial divisors"
            return r

        monkeypatch.setattr(hlsdse.dsl, "range", bounded_range, raising=False)
        (knob, _) = parse_csd(f"unroll;f;l;{{1->{2**40},div}}\nclock;{{10}}").knobs
        values = [v.raw for v in expand_value_set(knob.value_sets[0])]
        assert values == [2**k for k in range(41)]

    def test_div_1_to_12(self):
        vs = GeneratedRange(1, 12, GeneratorKind.DIV)
        assert [v.raw for v in expand_value_set(vs)] == [1, 2, 3, 4, 6, 12]

    @pytest.mark.parametrize("k", range(0, 10))
    def test_pow2_length(self, k):
        vs = GeneratedRange(1, 2**k, GeneratorKind.POW2)
        assert len(expand_value_set(vs)) == k + 1

    def test_range_bounds_validated(self):
        with pytest.raises(ValueError):
            GeneratedRange(0, 8, GeneratorKind.POW2)
        with pytest.raises(ValueError):
            GeneratedRange(9, 8, GeneratorKind.POW2)

    def test_explicit_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ExplicitList((Value(1), Value(1)))


class TestParse:
    def test_reference_descriptor(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        assert len(csd.knobs) == 7
        assert csd.knobs[3].bind_tag == "a"
        assert csd.knobs[4].bind_tag == "a"
        assert [k.bind_tag for k in csd.knobs].count("a") == 2
        kinds = [k.directive.token for k in csd.knobs]
        assert kinds == [
            "resource", "resource", "array_partition",
            "array_partition", "unroll", "unroll", "clock",
        ]

    def test_clock_fragment(self):
        csd = parse_csd("clock;{10}")
        assert len(csd.knobs) == 1
        assert csd.knobs[0].is_clock
        assert [v.raw for v in expand_value_set(csd.knobs[0].value_sets[0])] == [10]

    def test_missing_clock_is_error(self):
        with pytest.raises(CsdValidationError) as exc:
            parse_csd("unroll;f;l1;{1->8,pow_2}")
        assert any(d.code == "MissingClock" for d in exc.value.diagnostics)

    def test_comments_and_blanks_ignored(self):
        csd = parse_csd("# header\n\nclock;{10}\n# trailer\n")
        assert len(csd.knobs) == 1

    def test_unknown_directive(self):
        with pytest.raises(CsdSyntaxError) as exc:
            parse_csd("frobnicate;f;l;{1}\nclock;{10}")
        assert exc.value.line == 1

    def test_arity_mismatch(self):
        with pytest.raises(CsdSyntaxError):
            parse_csd("unroll;f;l;{1};{2}\nclock;{10}")

    def test_malformed_value_set(self):
        with pytest.raises(CsdSyntaxError):
            parse_csd("unroll;f;l;{1->}\nclock;{10}")

    def test_unknown_generator(self):
        with pytest.raises(CsdSyntaxError):
            parse_csd("unroll;f;l;{1->8,fib}\nclock;{10}")

    def test_pow2_range_without_power_of_two_rejected(self):
        with pytest.raises(CsdSyntaxError) as e:
            parse_csd("clock;{10}\nunroll;f;l;{3->3,pow_2}")
        assert e.value.line == 2
        assert "no power of two" in str(e.value)
        # a range holding one power of two is fine
        (_, knob) = parse_csd("clock;{10}\nunroll;f;l;{3->4,pow_2}").knobs
        assert [v.raw for v in expand_value_set(knob.value_sets[0])] == [4]

    def test_huge_div_range_rejected_before_expansion(self):
        start = time.perf_counter()
        with pytest.raises(CsdSyntaxError) as e:
            parse_csd(f"clock;{{10}}\nunroll;f;l;{{1->{2**62},div}}")
        assert time.perf_counter() - start < 0.1
        assert e.value.line == 2
        with pytest.raises(ValueError):
            GeneratedRange(1, MAX_DIV_HI + 1, GeneratorKind.DIV)
        # the cap holds for div ranges only
        GeneratedRange(1, MAX_DIV_HI + 1, GeneratorKind.POW2)

    def test_empty_text(self):
        with pytest.raises(CsdSyntaxError):
            parse_csd("   \n  ")

    def test_bind_on_categorical_rejected(self):
        with pytest.raises(CsdValidationError) as exc:
            parse_csd("resource;f;arr;{A,B}@bind_a\nclock;{10}")
        assert any(d.code == "BindOnCategoricalSet" for d in exc.value.diagnostics)

    @pytest.mark.parametrize("token", ["-4", "\u00b2", "\u0663"])
    def test_numeric_values_are_ascii_digits(self, token):
        with pytest.raises(CsdSyntaxError, match="malformed value") as exc:
            parse_csd(f"clock;{{10}}\nunroll;f;l;{{{token},1}}")
        assert exc.value.line == 2

    def test_range_bounds_are_ascii_digits(self):
        with pytest.raises(CsdSyntaxError, match="malformed range") as exc:
            parse_csd("clock;{10}\nunroll;f;l;{1->\u0668,pow_2}")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "value_set", ["{" + "9" * 5000 + "}", "{1->" + "9" * 5000 + ",pow_2}"],
        ids=["list-value", "range-bound"],
    )
    def test_overlong_number_is_syntax_error(self, value_set):
        """A token beyond Python's int conversion limit (4300 digits) is a
        descriptor error with its line, not the interpreter's ValueError."""
        with pytest.raises(CsdSyntaxError, match="5000-digit number") as exc:
            parse_csd(f"clock;{{10}}\nunroll;f;l;{value_set}")
        assert exc.value.line == 2

    @pytest.mark.parametrize("dim", ["[exec touch pwned] 2", "x", "-1", "1 2", "\u0663", ""])
    def test_fixed_parameter_is_ascii_digits(self, dim):
        """A fixed parameter goes into the directive script as it is written,
        so anything but digits, Tcl command substitution too, is refused."""
        with pytest.raises(CsdSyntaxError, match="dim must be digits") as exc:
            parse_csd(f"clock;{{10}}\narray_partition;f;a;{dim};{{cyclic}};{{1}}")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "line, message, column",
        [
            ("unroll;f;l;{ }", "empty value set", None),
            ("unroll;f;l;{1,,2}", "empty value in set", None),
            ("unroll;f;l;{1,1}", "explicit value set contains duplicates", None),
            ("unroll;f;l;{1,2}@foo", "malformed @bind decorator", 17),
            (";f;l;{1}", "missing directive kind", 1),
            ("unroll;f", "unroll: missing function/target fields", None),
        ],
        ids=["blank-set", "empty-value", "duplicate-value", "bad-bind", "no-kind",
             "no-target"],
    )
    def test_malformed_line_is_located(self, line, message, column):
        with pytest.raises(CsdSyntaxError) as exc:
            parse_csd(f"clock;{{10}}\n{line}")
        assert (exc.value.line, exc.value.column) == (2, column)
        loc = "line 2" if column is None else f"line 2, col {column}"
        assert str(exc.value) == f"{loc}: {message}"

    def test_categorical_clock_rejected(self):
        with pytest.raises(CsdValidationError) as exc:
            parse_csd("unroll;f;l;{1,2}\nclock;{fast}")
        assert [(d.code, d.knob_index) for d in exc.value.diagnostics] == [
            ("CategoricalClock", 1)
        ]

    @pytest.mark.parametrize(
        "clock",
        ["{9007199254740993}", "{1->18014398509481984,pow_2}", "{10,1" + "0" * 400 + "}"],
        ids=["2**53+1", "pow_2-range", "401-digits"],
    )
    def test_clock_beyond_exact_floats_rejected(self, clock):
        # the period is stored as a float: above 2**53 an integer may have none
        with pytest.raises(CsdValidationError) as exc:
            parse_csd(f"unroll;f;l;{{1,2}}\nclock;{clock}")
        assert [(d.code, d.knob_index) for d in exc.value.diagnostics] == [
            ("ClockOutOfRange", 1)
        ]

    def test_clock_of_two_to_the_53_accepted(self):
        csd = parse_csd("clock;{9007199254740992}")
        assert build_index(csd).decode(0).clock_period_ns == 2.0**53

    def test_duplicate_knob_rejected(self):
        text = "unroll;f;l1;{1,2}\nunroll;f;l1;{1,2}\nclock;{10}"
        with pytest.raises(CsdValidationError) as exc:
            parse_csd(text)
        assert any(d.code == "DuplicateKnob" for d in exc.value.diagnostics)


class TestValidate:
    def test_reference_descriptor_clean(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        assert validate_csd(csd) == []

    def test_mismatched_bind_sets(self):
        text = "unroll;f;l1;{1,2,4}@bind_a\nunroll;f;l2;{1,2,8}@bind_a\nclock;{10}"
        with pytest.raises(CsdValidationError) as exc:
            parse_csd(text)
        diags = exc.value.diagnostics
        assert [d.code for d in diags] == ["MismatchedBindSets"]
        assert diags[0].knob_index == 0

    def test_two_clock_lines(self):
        with pytest.raises(CsdValidationError) as exc:
            parse_csd("clock;{10}\nclock;{5}")
        diags = exc.value.diagnostics
        codes = [d.code for d in diags]
        assert "DuplicateClock" in codes
        assert all(d.knob_index == 1 for d in diags)

    def test_diagnostics_name_knob_index(self):
        text = "unroll;f;l1;{1,2}\nunroll;f;l1;{1,2}\nclock;{10}"
        with pytest.raises(CsdValidationError) as exc:
            parse_csd(text)
        (diag,) = exc.value.diagnostics
        assert diag.knob_index == 1

    @pytest.mark.parametrize("modes", ["{on,always}", "{off,1}", "{1->4,pow_2}"])
    def test_unknown_inline_mode(self, modes):
        with pytest.raises(CsdValidationError, match="not one of on, off") as exc:
            parse_csd(f"inline;f;g;{modes}\nclock;{{10}}")
        assert [(d.code, d.knob_index) for d in exc.value.diagnostics] == [("UnknownToken", 0)]


ARRAY_PARTITION = DEFAULT_DIRECTIVES["array_partition"]
UNROLL = DEFAULT_DIRECTIVES["unroll"]
ONE = ExplicitList((Value(1),))
CYCLIC = ExplicitList((Value("cyclic"),))
CLOCK = Knob(DEFAULT_DIRECTIVES["clock"], None, None, (), (ExplicitList((Value(10),)),))


class TestValidByConstruction:
    """A Knob or CSD made in Python obeys the rules of a parsed line."""

    @pytest.mark.parametrize(
        "args, message",
        [
            ((ARRAY_PARTITION, "f", "t", ("1 [exec touch pwned]",), (CYCLIC, ONE)),
             "array_partition: dim must be digits, got '1 \\[exec"),
            ((ARRAY_PARTITION, "f", "t", (), (CYCLIC, ONE)),
             "array_partition: expected fixed parameters \\('dim',\\)"),
            ((ARRAY_PARTITION, "f", "t", (1,), (CYCLIC, ONE)), "dim must be digits, got 1"),
            ((UNROLL, 'f"', "l", (), (ONE,)), "invalid function identifier 'f\""),
            ((UNROLL, "f\n", "l", (), (ONE,)), "invalid function identifier"),
            ((UNROLL, "f", None, (), (ONE,)), "invalid target identifier None"),
            ((UNROLL, "f", "l", (), ()), "unroll: expected 1 value set\\(s\\), got 0"),
            ((UNROLL, "f", "l", (), (ONE, ONE)), "unroll: expected 1 value set\\(s\\), got 2"),
            ((UNROLL, "f", "l", (), (ONE,), "a b"), "invalid bind tag 'a b'"),
        ],
        ids=["tcl-in-fixed-parameter", "missing-fixed-parameter", "int-fixed-parameter",
             "quote-in-function", "newline-in-function", "no-target", "no-value-set",
             "two-value-sets", "bind-tag"],
    )
    def test_knob_checks_its_fields(self, args, message):
        with pytest.raises(ValueError, match=message):
            Knob(*args)

    def test_categorical_value_is_one_identifier(self):
        with pytest.raises(ValueError, match="invalid categorical token"):
            Value("cyclic\nexec")

    def test_csd_without_clock(self):
        with pytest.raises(CsdValidationError) as exc:
            CSD((Knob(UNROLL, "f", "l", (), (ONE,)),))
        assert [(d.code, d.knob_index) for d in exc.value.diagnostics] == [
            ("MissingClock", None)
        ]

    def test_valid_knobs_build(self):
        csd = CSD((Knob(ARRAY_PARTITION, "f", "t", ("1",), (CYCLIC, ONE)), CLOCK))
        assert parse_csd(serialize_csd(csd)) == csd

    def test_two_inline_knobs_on_one_function(self):
        """An inline directive names the function alone, so a second inline
        knob on it, whatever its target, would direct the same object."""
        with pytest.raises(CsdValidationError) as exc:
            parse_csd("inline;f;g;{on,off}\ninline;f;h;{on,off}\nclock;{10}")
        assert [(d.code, d.knob_index) for d in exc.value.diagnostics] == [
            ("DuplicateKnob", 1)
        ]

    def test_inline_knobs_on_two_functions(self):
        csd = parse_csd("inline;f;g;{on,off}\ninline;k;g;{on,off}\nclock;{10}")
        assert [k.location for k in csd.knobs] == [
            ("inline", "f", "g"), ("inline", "k", "g"), ("clock",)
        ]


class TestDirectiveTable:
    @pytest.mark.parametrize("kind", DEFAULT_DIRECTIVES.values(), ids=DEFAULT_DIRECTIVES)
    def test_template_fields(self, kind):
        """Each value set and fixed parameter is a field of the kind's Tcl
        line, and the line names nothing else but the knob's location."""
        fields = {name for _, name, _, _ in string.Formatter().parse(kind.tcl) if name}
        named = {*kind.fixed_params, *kind.set_names}
        assert named <= fields <= named | {"function", "target"}
        assert ("function" in fields) == kind.takes_location


class TestSerialize:
    def test_reference_round_trip(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        again = parse_csd(serialize_csd(csd))
        assert csd.knobs == again.knobs

    def test_reference_canonical_identity(self, last_step_scan_text):
        # the fixture is already canonical
        assert serialize_csd(parse_csd(last_step_scan_text)) == last_step_scan_text

    def test_clock_only(self):
        assert serialize_csd(parse_csd("clock;{10}")) == "clock;{10}\n"

    @settings(max_examples=100, deadline=None)
    @given(random_csds())
    def test_round_trip_property(self, csd):
        assert parse_csd(serialize_csd(csd)).knobs == csd.knobs

    def test_whitespace_insensitive(self):
        a = parse_csd("unroll ; f ; l1 ; { 1 , 2 }\nclock;{10}")
        b = parse_csd("unroll;f;l1;{1,2}\nclock;{10}")
        assert a.knobs == b.knobs
