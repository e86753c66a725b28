"""Sequential assembly of composite toys and deterministic toy-set generation.

A toy is 1-5 placed primitives. The first part sits at the origin with a
random rotation; the centroid of each later part is a uniform point inside a
uniformly chosen earlier part, which guarantees every part overlaps at least
one predecessor. Each toy in a set owns an independent random stream derived
from the master seed, so any toy can be regenerated in isolation.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidComposition
from .primitives import (
    KIND_ORDER,
    DimensionRanges,
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    contains,
    sample_point_in,
    sample_primitive,
    sample_rotation,
)


class Color(enum.Enum):
    BLUE = "blue"
    RED = "red"
    GREEN = "green"
    YELLOW = "yellow"


DEFAULT_PALETTE: tuple[Color, ...] = (Color.BLUE, Color.RED, Color.GREEN, Color.YELLOW)

#: Most toys one set may hold: 40 times the default 250, and the most that
#: the four-digit ids `toy_0000` to `toy_9999` number in sorted order.
MAX_TOYS = 10_000


@dataclass(frozen=True, eq=False)
class ToySpec:
    """A fully reproducible composite toy."""

    id: str
    seed: int
    parts: tuple[PlacedPrimitive, ...]
    color: Color

    def __post_init__(self) -> None:
        if not 1 <= len(self.parts) <= 5:
            raise ValueError(f"toy must have 1-5 parts, got {len(self.parts)}")
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class SetComposition:
    """Counts per toy category: four single-primitive kinds plus sizes 2-5."""

    cuboids: int = 46
    spheres: int = 18
    cylinders: int = 20
    rings: int = 19
    two_part: int = 27
    three_part: int = 35
    four_part: int = 38
    five_part: int = 47

    def __post_init__(self) -> None:
        for name, count in self.counts().items():
            if count < 0:
                raise InvalidComposition(f"negative count for {name}: {count}")
        total = sum(self.counts().values())
        if total > MAX_TOYS:
            raise InvalidComposition(
                f"composition total = {total} toys is above the limit of {MAX_TOYS}"
            )

    def counts(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class GenerationConfig:
    ranges: DimensionRanges = field(default_factory=DimensionRanges.default)
    composition: SetComposition = field(default_factory=SetComposition)
    palette: tuple[Color, ...] = DEFAULT_PALETTE
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.palette:
            raise ValueError("palette must be nonempty")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")


_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit splitmix mix of (master_seed, index).

    Toy k's stream is seeded with derive_seed(master_seed, k), so a single
    toy can be regenerated without replaying the whole set.
    """
    z = (master_seed + (index + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def assemble_toy(
    n_parts: int,
    config: GenerationConfig,
    rng: np.random.Generator,
    *,
    kinds: Sequence[PrimitiveKind] | None = None,
    toy_id: str = "toy_0000",
    seed: int = 0,
) -> ToySpec:
    """Build one toy by sequential placement.

    Kinds are drawn uniformly with repetition unless `kinds` pins them
    (used for single-primitive categories). Draw order per part is fixed:
    kind, dimensions, anchor part, anchor point, rotation; the color is
    drawn last.
    """
    if not 1 <= n_parts <= 5:
        raise ValueError(f"n_parts must be 1-5, got {n_parts}")
    if kinds is not None and len(kinds) != n_parts:
        raise ValueError("kinds, when given, must have length n_parts")

    parts: list[PlacedPrimitive] = []
    for k in range(n_parts):
        kind = kinds[k] if kinds is not None else KIND_ORDER[int(rng.integers(0, len(KIND_ORDER)))]
        spec = sample_primitive(kind, config.ranges, rng)
        if k == 0:
            translation = np.zeros(3)
        else:
            anchor = parts[int(rng.integers(0, k))]
            local_point = sample_point_in(anchor.spec, rng)
            translation = anchor.pose.apply(local_point)
        rotation = sample_rotation(rng)
        parts.append(PlacedPrimitive(spec, Pose(rotation, translation)))

    color = config.palette[int(rng.integers(0, len(config.palette)))]
    return ToySpec(id=toy_id, seed=seed, parts=tuple(parts), color=color)


#: Containment slack of `connectivity_check`: it absorbs the float rounding
#: of mapping the sampled anchor point out to world coordinates and back.
CONNECTIVITY_TOL = 1e-12


def connectivity_check(toy: ToySpec) -> bool:
    """True iff every part's centroid lies inside some earlier part."""
    for k in range(1, len(toy.parts)):
        centroid = toy.parts[k].pose.translation
        if not any(contains(toy.parts[j], centroid, CONNECTIVITY_TOL) for j in range(k)):
            return False
    return True


def category_plan(
    composition: SetComposition,
) -> list[tuple[int, tuple[PrimitiveKind, ...] | None]]:
    """Expand a composition into per-toy (n_parts, pinned kinds) in set order.

    Order is fixed: single cuboids, spheres, cylinders, rings, then 2-5 part
    toys. This order defines toy indices (and therefore per-toy seeds).
    """
    plan: list[tuple[int, tuple[PrimitiveKind, ...] | None]] = []
    plan += [(1, (PrimitiveKind.CUBOID,))] * composition.cuboids
    plan += [(1, (PrimitiveKind.SPHERE,))] * composition.spheres
    plan += [(1, (PrimitiveKind.CYLINDER,))] * composition.cylinders
    plan += [(1, (PrimitiveKind.RING,))] * composition.rings
    plan += [(2, None)] * composition.two_part
    plan += [(3, None)] * composition.three_part
    plan += [(4, None)] * composition.four_part
    plan += [(5, None)] * composition.five_part
    return plan


def generate_set(config: GenerationConfig) -> list[ToySpec]:
    """Generate the full toy set for a composition, deterministically."""
    toys = []
    for index, (n_parts, kinds) in enumerate(category_plan(config.composition)):
        seed = derive_seed(config.master_seed, index)
        rng = np.random.default_rng(seed)
        toys.append(
            assemble_toy(
                n_parts,
                config,
                rng,
                kinds=kinds,
                toy_id=f"toy_{index:04d}",
                seed=seed,
            )
        )
    return toys
