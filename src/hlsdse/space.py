"""Configuration space cardinality, enumeration, and mixed-radix indexing.

The space of a descriptor is the Cartesian product of its knob value sets.
Each value set is one axis of the index, in knob order and then set order.
A bind group is one axis too: it holds the common value list, comes first
among its first member knob's axes, and writes its value to the last set of
every member knob, whose own set gets no axis. Cardinality and point decoding
are then plain mixed-radix arithmetic over the axis sizes.

``SpaceIndex.decode`` is the one constructor of a ``Configuration``, which
holds its descriptor and assignments and derives its key, digest and clock
period on each access; ``enumerate_space`` and ``sample`` decode indices.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .dsl import CSD, Value, expand_value_set

MAX_CARDINALITY = 2**63 - 1


class SpaceError(Exception):
    pass


class CardinalityOverflowError(SpaceError):
    pass


@dataclass(frozen=True)
class Axis:
    """One value list and the (knob index, set position) slots it fills.

    An unbound value set has one slot; a bind group, tagged ``tag``, has one
    slot per member knob, always that knob's last set.
    """

    values: tuple[Value, ...]
    slots: tuple[tuple[int, int], ...]
    tag: Optional[str] = None


@dataclass(frozen=True)
class Configuration:
    """One point of a configuration space, built by ``SpaceIndex.decode``.

    ``assignments`` holds one value tuple per knob (arity matching the knob's
    value sets). The rest is derived on each access: ``key_text``, the
    canonical rendering; ``config_key``, its hash, a stable identity across
    runs; and ``clock_period_ns``, the clock knob's value.
    """

    csd: CSD = field(repr=False, compare=False)
    assignments: tuple[tuple[Value, ...], ...]

    @property
    def key_text(self) -> str:
        return "|".join(
            ";".join((*knob.location, ",".join(v.render() for v in values)))
            for knob, values in zip(self.csd.knobs, self.assignments)
        )

    @property
    def config_key(self) -> str:
        return hashlib.sha256(self.key_text.encode()).hexdigest()

    @property
    def clock_period_ns(self) -> float:
        clock = next(i for i, knob in enumerate(self.csd.knobs) if knob.is_clock)
        return float(self.assignments[clock][0].raw)


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
        slots: list[list[Optional[Value]]] = [[None] * len(k.value_sets) for k in self.csd.knobs]
        for axis, radix in zip(reversed(self.axes), reversed(self.radices)):
            i, d = divmod(i, radix)
            for k, p in axis.slots:
                slots[k][p] = axis.values[d]
        return Configuration(self.csd, tuple(map(tuple, slots)))

    def encode(self, config: Configuration) -> int:
        """Inverse of decode."""
        i = 0
        for axis, radix in zip(self.axes, self.radices):
            k, p = axis.slots[0]
            i = i * radix + axis.values.index(config.assignments[k][p])
        return i


def build_index(csd: CSD) -> SpaceIndex:
    """Factor a CSD into one axis per value set and bind group."""
    groups = csd.bind_groups()
    axes: list[Axis] = []
    for i, knob in enumerate(csd.knobs):
        bound = len(knob.value_sets) - 1 if knob.bind_tag else None
        if knob.bind_tag and groups[knob.bind_tag][0] == i:
            slots = tuple(
                (m, len(csd.knobs[m].value_sets) - 1) for m in groups[knob.bind_tag]
            )
            values = tuple(expand_value_set(knob.value_sets[-1]))
            axes.append(Axis(values, slots, knob.bind_tag))
        axes.extend(
            Axis(tuple(expand_value_set(vs)), ((i, p),))
            for p, vs in enumerate(knob.value_sets)
            if p != bound
        )

    radices = tuple(len(a.values) for a in axes)
    total = 1
    for radix in radices:
        total *= radix
        if total > MAX_CARDINALITY:
            raise CardinalityOverflowError(f"space size exceeds {MAX_CARDINALITY}")
    return SpaceIndex(csd, tuple(axes), radices, total)


def cardinality(csd: CSD) -> int:
    """Size of the configuration space under bind constraints."""
    return build_index(csd).total


def enumerate_space(csd: CSD) -> Iterator[Configuration]:
    """Yield every configuration in index order; O(1) memory in the total."""
    index = build_index(csd)
    for i in range(index.total):
        yield index.decode(i)


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
