import dataclasses
import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings

from hlsdse.dsl import CsdValidationError, expand_value_set, parse_csd
from hlsdse.space import (
    CardinalityOverflowError,
    Configuration,
    SpaceError,
    build_index,
    cardinality,
    enumerate_space,
    sample,
)

from conftest import random_csds


def brute_force_keys(csd):
    """Nested-loop oracle: product over all sets, then filter bind equality."""
    per_knob = [
        [tuple(combo) for combo in itertools.product(
            *[expand_value_set(vs) for vs in knob.value_sets]
        )]
        for knob in csd.knobs
    ]
    groups = csd.bind_groups()
    out = []
    for assignment in itertools.product(*per_knob):
        ok = True
        for members in groups.values():
            vals = {assignment[m][-1].raw for m in members}
            if len(vals) != 1:
                ok = False
                break
        if ok:
            out.append(tuple(tuple(v.raw for v in vals_) for vals_ in assignment))
    return out


class TestCardinality:
    def test_reference_space(self, last_step_scan_text):
        assert cardinality(parse_csd(last_step_scan_text)) == 1600

    def test_reference_space_without_binds(self, last_step_scan_text):
        unbound = last_step_scan_text.replace("@bind_a", "")
        assert cardinality(parse_csd(unbound)) == 12800

    def test_clock_only(self):
        assert cardinality(parse_csd("clock;{10}")) == 1

    def test_campaign_fixture(self, local_scan_text):
        assert cardinality(parse_csd(local_scan_text)) == 704

    def test_invalid_csd_rejected(self):
        with pytest.raises(CsdValidationError) as exc:
            parse_csd("unroll;f;l;{1,2}")
        assert [d.code for d in exc.value.diagnostics] == ["MissingClock"]

    def test_overflow_found_before_materializing(self, monkeypatch):
        # ten 63-value knobs stay under the bound; the next knob's type and
        # factor sets cross it, and no product of value sets is ever built
        pow2 = "{1->4611686018427387904,pow_2}"
        lines = ["clock;{10}"] + [f"unroll;f;l{i};{pow2}" for i in range(10)]
        lines.append(f"array_partition;f;a;1;{{cyclic,block}};{pow2}")
        csd = parse_csd("\n".join(lines))
        built = []
        product = itertools.product

        def recording_product(*sets):
            built.append(math.prod(len(s) for s in sets))
            return product(*sets)

        monkeypatch.setattr(itertools, "product", recording_product)
        with pytest.raises(CardinalityOverflowError):
            build_index(csd)
        assert built == []


class TestIndex:
    def test_reference_radices(self, last_step_scan_text):
        index = build_index(parse_csd(last_step_scan_text))
        assert index.total == 1600
        assert math.prod(index.radices) == 1600
        nontrivial = sorted(r for r in index.radices if r > 1)
        assert nontrivial == [2, 2, 5, 8, 10]
        shared = [a for a in index.axes if a.tag]
        assert len(shared) == 1
        assert shared[0].tag == "a"
        assert shared[0].slots == ((3, 1), (4, 0))
        assert [v.raw for v in shared[0].values] == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_unbound_two_knob_space(self):
        csd = parse_csd("unroll;f;l1;{1,2}\nresource;f;arr;{a,b}\nclock;{10}")
        index = build_index(csd)
        assert index.total == 4
        assert sorted(index.radices) == [1, 2, 2]

    def test_decode_zero_is_first(self, local_scan_text):
        csd = parse_csd(local_scan_text)
        index = build_index(csd)
        first = next(iter(enumerate_space(csd)))
        assert index.decode(0).config_key == first.config_key

    def test_decode_out_of_range(self, local_scan_text):
        index = build_index(parse_csd(local_scan_text))
        with pytest.raises(IndexError):
            index.decode(index.total)
        with pytest.raises(IndexError):
            index.decode(-1)

    def test_decode_matches_enumeration_order(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        index = build_index(csd)
        for i, cfg in enumerate(enumerate_space(csd)):
            assert index.decode(i).config_key == cfg.config_key

    def test_encode_decode_identity(self, local_scan_text):
        index = build_index(parse_csd(local_scan_text))
        for i in range(index.total):
            assert index.encode(index.decode(i)) == i


class TestConfiguration:
    def test_stores_only_descriptor_and_assignments(self):
        assert [f.name for f in dataclasses.fields(Configuration)] == ["csd", "assignments"]
        for name in ("key_text", "config_key", "clock_period_ns"):
            assert isinstance(getattr(Configuration, name), property), name

    def test_descriptor_left_out_of_repr_and_equality(self):
        a = build_index(parse_csd("unroll;f;l1;{1,2}\nclock;{10}")).decode(0)
        b = build_index(parse_csd("unroll;f;l1;{1,2,4}\nclock;{10}")).decode(0)
        assert a.csd != b.csd
        assert a == b and hash(a) == hash(b)
        assert "csd" not in repr(a) and "assignments" in repr(a)

    def test_derived_fields(self):
        index = build_index(parse_csd("unroll;f;l1;{1,2}\nclock;{5,10}"))
        config = index.decode(3)
        assert config.key_text == "unroll;f;l1;2|clock;10"
        assert config.config_key == hashlib.sha256(b"unroll;f;l1;2|clock;10").hexdigest()
        assert [index.decode(i).clock_period_ns for i in range(4)] == [5.0, 10.0, 5.0, 10.0]


class TestEnumerate:
    def test_reference_distinct_keys(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        keys = [c.config_key for c in enumerate_space(csd)]
        assert len(keys) == 1600
        assert len(set(keys)) == 1600

    def test_bind_equality_holds(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        for cfg in enumerate_space(csd):
            assert cfg.assignments[3][-1].raw == cfg.assignments[4][-1].raw

    def test_matches_brute_force_toy(self):
        text = (
            "array_partition;f;arr;1;{cyclic,block};{1,2,4}@bind_a\n"
            "unroll;f;l1;{1,2,4}@bind_a\n"
            "unroll;f;l2;{1->4,pow_2}\n"
            "clock;{10}"
        )
        csd = parse_csd(text)
        expected = {
            tuple(tuple(v.raw for v in vals) for vals in c.assignments)
            for c in enumerate_space(csd)
        }
        assert expected == set(brute_force_keys(csd))
        assert len(expected) == cardinality(csd) == 2 * 3 * 3

    @settings(max_examples=60, deadline=None)
    @given(random_csds())
    def test_count_equals_enumeration(self, csd):
        configs = list(enumerate_space(csd))
        assert len(configs) == cardinality(csd)
        keys = {c.config_key for c in configs}
        assert len(keys) == len(configs)

    @settings(max_examples=40, deadline=None)
    @given(random_csds(max_knobs=3, max_values=4))
    def test_matches_brute_force_property(self, csd):
        got = {
            tuple(tuple(v.raw for v in vals) for vals in c.assignments)
            for c in enumerate_space(csd)
        }
        assert got == set(brute_force_keys(csd))

    def test_unbound_cardinality_is_full_product(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text.replace("@bind_a", ""))
        expected = math.prod(
            math.prod(len(expand_value_set(vs)) for vs in k.value_sets)
            for k in csd.knobs
        )
        assert cardinality(csd) == expected

    def test_bound_cardinality_divides_unbound(self, last_step_scan_text):
        bound = cardinality(parse_csd(last_step_scan_text))
        unbound = cardinality(parse_csd(last_step_scan_text.replace("@bind_a", "")))
        assert unbound % bound == 0

    def test_axis_balance(self, local_scan_text):
        # each unbound axis value appears exactly total/|axis| times
        csd = parse_csd(local_scan_text)
        index = build_index(csd)
        configs = list(enumerate_space(csd))
        unroll_counts = {}
        for c in configs:
            v = c.assignments[2][0].raw
            unroll_counts[v] = unroll_counts.get(v, 0) + 1
        sizes = set(unroll_counts.values())
        assert sizes == {index.total // 8}


class TestSample:
    def test_full_sample_covers_space(self, last_step_scan_text):
        csd = parse_csd(last_step_scan_text)
        picked = sample(csd, 1600, seed=7)
        assert {c.config_key for c in picked} == {
            c.config_key for c in enumerate_space(csd)
        }

    def test_deterministic_per_seed(self, local_scan_text):
        csd = parse_csd(local_scan_text)
        a = sample(csd, 10, seed=42)
        b = sample(csd, 10, seed=42)
        assert [c.config_key for c in a] == [c.config_key for c in b]

    def test_oversample_rejected(self):
        csd = parse_csd("clock;{10}")
        with pytest.raises(SpaceError):
            sample(csd, 2, seed=0)

    def test_axis_frequency_roughly_uniform(self, local_scan_text):
        # unroll axis of 8 values; over many seeds each value's draw count
        # should stay within 3 sigma of the binomial expectation
        csd = parse_csd(local_scan_text)
        counts = {}
        draws = 0
        for seed in range(60):
            for cfg in sample(csd, 20, seed=seed):
                v = cfg.assignments[2][0].raw
                counts[v] = counts.get(v, 0) + 1
                draws += 1
        p = 1 / 8
        mean = draws * p
        sigma = (draws * p * (1 - p)) ** 0.5
        for v, n in counts.items():
            assert abs(n - mean) <= 3 * sigma, (v, n, mean, sigma)


def _last_step_key(bucket, sum_, last_1, last_2):
    """key_text of a last_step_scan.csd point from its swept values."""
    return (
        "resource;last_step_scan;bucket;RAM_2P_BRAM"
        "|resource;last_step_scan;sum;RAM_2P_BRAM"
        f"|array_partition;last_step_scan;bucket;1;{bucket}"
        f"|array_partition;last_step_scan;sum;1;{sum_}"
        f"|unroll;last_step_scan;last_1;{last_1}"
        f"|unroll;last_step_scan;last_2;{last_2}"
        "|clock;10"
    )


class TestPinnedMapping:
    """The index -> configuration map is stored (idx, config_key), so it must
    not change between versions: resumed campaigns and imports rely on it."""

    @pytest.mark.parametrize(
        "fixture, total, digest",
        [
            (
                "last_step_scan_text",
                1600,
                "de250b30fa9c66823c10fe7571bbee921788aac2de1bc4dc3a4bb953a532e9f6",
            ),
            (
                "local_scan_text",
                704,
                "0e046a61a0d75294d5ddf12a8ebb9a52be67dbb6246138ef8101decfcc33083c",
            ),
        ],
    )
    def test_key_text_digest(self, request, fixture, total, digest):
        index = build_index(parse_csd(request.getfixturevalue(fixture)))
        assert index.total == total
        text = "\n".join(index.decode(i).key_text for i in range(total))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "idx, values",
        [
            (0, ("cyclic,1", "cyclic,1", 1, 1)),
            (1, ("cyclic,1", "cyclic,1", 1, 2)),
            # either side of a step of the bind group's digit
            (9, ("cyclic,1", "block,1", 1, 16)),
            (10, ("cyclic,1", "cyclic,2", 2, 1)),
            # the bind group's digit wraps
            (79, ("cyclic,1", "block,128", 128, 16)),
            (80, ("cyclic,2", "cyclic,1", 1, 1)),
            # one knob's type and factor sets both step
            (799, ("cyclic,512", "block,128", 128, 16)),
            (800, ("block,1", "cyclic,1", 1, 1)),
            (1599, ("block,512", "block,128", 128, 16)),
        ],
    )
    def test_explicit_points(self, last_step_scan_text, idx, values):
        index = build_index(parse_csd(last_step_scan_text))
        config = index.decode(idx)
        assert config.key_text == _last_step_key(*values)
        assert index.encode(config) == idx
