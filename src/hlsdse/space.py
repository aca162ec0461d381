"""Configuration space cardinality, enumeration, and mixed-radix indexing.

The space of a descriptor is the Cartesian product of its knob value sets.
Bind groups are factored out as shared axes: each group contributes a single
axis holding the common value list, placed at the first member knob's
position, and the bound set of every member knob is excluded from that knob's
own axis. Cardinality and point decoding are then plain mixed-radix
arithmetic over the axis sizes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .dsl import CSD, Value, expand_value_set, validate_csd

MAX_CARDINALITY = 2**63 - 1


class SpaceError(Exception):
    pass


class CardinalityOverflowError(SpaceError):
    pass


@dataclass(frozen=True)
class KnobAxis:
    """Product of one knob's unbound value sets (unit axis when all bound)."""

    knob_index: int
    set_positions: tuple[int, ...]
    values: tuple[tuple[Value, ...], ...]


@dataclass(frozen=True)
class SharedAxis:
    """One bind group: a common numeric value list shared by member knobs."""

    tag: str
    values: tuple[Value, ...]
    members: tuple[int, ...]  # knob indices; the bound set is always the last


Axis = Union[KnobAxis, SharedAxis]


@dataclass(frozen=True)
class Configuration:
    """One point of a configuration space.

    ``assignments`` holds one value tuple per knob (arity matching the knob's
    value sets). ``key_text`` is the canonical rendering and ``config_key``
    its hash, a stable identity across runs.
    """

    assignments: tuple[tuple[Value, ...], ...]
    key_text: str
    config_key: str


def _render_key(csd: CSD, assignments) -> str:
    parts = []
    for knob, values in zip(csd.knobs, assignments):
        loc = [knob.directive.token]
        if knob.function:
            loc.append(knob.function)
        if knob.target:
            loc.append(knob.target)
        loc.extend(knob.fixed_params)
        loc.append(",".join(v.render() for v in values))
        parts.append(";".join(loc))
    return "|".join(parts)


def _make_configuration(csd: CSD, assignments) -> Configuration:
    key_text = _render_key(csd, assignments)
    digest = hashlib.sha256(key_text.encode()).hexdigest()
    return Configuration(tuple(assignments), key_text, digest)


@dataclass(frozen=True)
class SpaceIndex:
    """Factored space: ordered axes, their radices, and the total count."""

    csd: CSD
    axes: tuple[Axis, ...]
    radices: tuple[int, ...]
    total: int

    def decode(self, i: int) -> Configuration:
        """Map an index in [0, total) to its configuration (bijective)."""
        if not (0 <= i < self.total):
            raise IndexError(f"configuration index {i} out of range [0, {self.total})")
        digits = []
        for radix in reversed(self.radices):
            digits.append(i % radix)
            i //= radix
        digits.reverse()
        return self._assemble(digits)

    def _assemble(self, digits) -> Configuration:
        n_knobs = len(self.csd.knobs)
        slots: list[list[Optional[Value]]] = [
            [None] * len(k.value_sets) for k in self.csd.knobs
        ]
        for axis, d in zip(self.axes, digits):
            if isinstance(axis, SharedAxis):
                v = axis.values[d]
                for m in axis.members:
                    slots[m][-1] = v
            else:
                for pos, v in zip(axis.set_positions, axis.values[d]):
                    slots[axis.knob_index][pos] = v
        assignments = [tuple(s) for s in slots]
        return _make_configuration(self.csd, assignments)

    def encode(self, config: Configuration) -> int:
        """Inverse of decode."""
        i = 0
        for axis, radix in zip(self.axes, self.radices):
            if isinstance(axis, SharedAxis):
                v = config.assignments[axis.members[0]][-1]
                d = next(j for j, av in enumerate(axis.values) if av == v)
            else:
                picked = tuple(
                    config.assignments[axis.knob_index][p] for p in axis.set_positions
                )
                d = next(j for j, av in enumerate(axis.values) if av == picked)
            i = i * radix + d
        return i


def build_index(csd: CSD) -> SpaceIndex:
    """Factor a valid CSD into axes and compute the space size."""
    diags = validate_csd(csd)
    if diags:
        raise SpaceError(f"invalid CSD: {diags[0]}")

    groups = csd.bind_groups()
    first_member = {tag: members[0] for tag, members in groups.items()}
    axes: list[Axis] = []
    total = 1

    def grow(radix: int) -> None:
        # checked before the axis's values are materialized
        nonlocal total
        total *= radix
        if total > MAX_CARDINALITY:
            raise CardinalityOverflowError(f"space size exceeds {MAX_CARDINALITY}")

    for i, knob in enumerate(csd.knobs):
        if knob.bind_tag and first_member[knob.bind_tag] == i:
            vs = expand_value_set(knob.value_sets[-1])
            grow(len(vs))
            axes.append(
                SharedAxis(knob.bind_tag, tuple(vs), tuple(groups[knob.bind_tag]))
            )
        n_sets = len(knob.value_sets)
        positions = tuple(
            p for p in range(n_sets) if not (knob.bind_tag and p == n_sets - 1)
        )
        expanded = [expand_value_set(knob.value_sets[p]) for p in positions]
        grow(math.prod(len(e) for e in expanded))
        combos = tuple(itertools.product(*expanded)) if expanded else ((),)
        axes.append(KnobAxis(i, positions, combos))

    return SpaceIndex(csd, tuple(axes), tuple(len(a.values) for a in axes), total)


def cardinality(csd: CSD) -> int:
    """Size of the configuration space under bind constraints."""
    return build_index(csd).total


def enumerate_space(csd: CSD) -> Iterator[Configuration]:
    """Yield every configuration in index order; O(1) memory in the total."""
    index = build_index(csd)
    for digits in itertools.product(*(range(r) for r in index.radices)):
        yield index._assemble(list(digits))


def sample(csd: CSD, n: int, seed: int) -> list[Configuration]:
    """n distinct configurations, uniform without replacement, seeded."""
    index = build_index(csd)
    if n > index.total:
        raise SpaceError(f"cannot sample {n} from a space of {index.total}")
    rng = random.Random(seed)
    picks = rng.sample(range(index.total), n)
    return [index.decode(i) for i in picks]


def configurations_json(csd: CSD, config: Configuration) -> list[dict]:
    """JSON export shape: one {knob, values[]} object per knob."""
    return [
        {"knob": knob.render(), "values": [v.raw for v in values]}
        for knob, values in zip(csd.knobs, config.assignments)
    ]
