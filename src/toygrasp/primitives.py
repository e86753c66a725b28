"""Parametric shape primitives: sampling, rigid poses, and analytic containment.

All lengths are meters. The four primitive kinds are the complete vocabulary;
each is described by a small set of named dimensions and admits closed-form
containment tests and uniform interior-point sampling in its local frame.

Local frame conventions (shared with meshing):
    cuboid    x spans width, y spans length, z spans height, centered at origin
    sphere    centered at origin
    cylinder  axis along z, centered at origin
    ring      annular cylinder, axis along z, centered at origin
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidRanges


class PrimitiveKind(enum.Enum):
    CUBOID = "cuboid"
    SPHERE = "sphere"
    CYLINDER = "cylinder"
    RING = "ring"


#: Canonical kind order used for uniform kind draws and serialization.
KIND_ORDER: tuple[PrimitiveKind, ...] = (
    PrimitiveKind.CUBOID,
    PrimitiveKind.SPHERE,
    PrimitiveKind.CYLINDER,
    PrimitiveKind.RING,
)

#: Dimension names per kind, in the order they are sampled.
DIM_NAMES: dict[PrimitiveKind, tuple[str, ...]] = {
    PrimitiveKind.CUBOID: ("width", "height", "length"),
    PrimitiveKind.SPHERE: ("diameter",),
    PrimitiveKind.CYLINDER: ("diameter", "height"),
    PrimitiveKind.RING: ("outer_diameter", "wall_thickness", "height"),
}


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z convention)
# ---------------------------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = math.sqrt(float(q @ q))
    if n == 0.0:
        raise ValueError("zero quaternion cannot be normalized")
    return q / n


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is nonnegative."""
    q = np.asarray(q, dtype=np.float64)
    return -q if q[0] < 0.0 else q


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) `v` (shape (3,) or (n, 3)) by unit quaternion `q`."""
    m = quat_to_matrix(q)
    v = np.asarray(v, dtype=np.float64)
    return v @ m.T


def sample_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation on SO(3) as a unit quaternion (w, x, y, z).

    Subgroup-algorithm construction from three uniform variates; normalized
    and sign-canonicalized (w >= 0).
    """
    u1 = rng.uniform()
    u2 = rng.uniform()
    u3 = rng.uniform()
    s1 = math.sqrt(1.0 - u1)
    s2 = math.sqrt(u1)
    q = np.array(
        [
            s2 * math.cos(2.0 * math.pi * u3),
            s1 * math.sin(2.0 * math.pi * u2),
            s1 * math.cos(2.0 * math.pi * u2),
            s2 * math.sin(2.0 * math.pi * u3),
        ]
    )
    return quat_canonical(quat_normalize(q))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionRanges:
    """Closed per-dimension sampling intervals in meters, keyed by kind."""

    intervals: Mapping[PrimitiveKind, Mapping[str, tuple[float, float]]]

    def __post_init__(self) -> None:
        for kind in KIND_ORDER:
            if kind not in self.intervals:
                raise InvalidRanges(f"missing ranges for {kind.value}")
            dims = self.intervals[kind]
            expected = set(DIM_NAMES[kind])
            if set(dims) != expected:
                raise InvalidRanges(
                    f"{kind.value} ranges must have dims {sorted(expected)}, got {sorted(dims)}"
                )
            for name, interval in dims.items():
                if len(interval) != 2:
                    raise InvalidRanges(
                        f"{kind.value}.{name} interval must have exactly 2 entries "
                        f"[lo, hi], got {len(interval)}"
                    )
                lo, hi = interval
                if not (0.0 < lo <= hi):
                    raise InvalidRanges(
                        f"{kind.value}.{name} interval [{lo}, {hi}] must be positive and ordered"
                    )
        ring = self.intervals[PrimitiveKind.RING]
        min_outer_radius = ring["outer_diameter"][0] / 2.0
        max_wall = ring["wall_thickness"][1]
        if min_outer_radius <= max_wall:
            raise InvalidRanges(
                "ring inner radius can be nonpositive: "
                f"min outer radius {min_outer_radius} <= max wall {max_wall}"
            )

    def interval(self, kind: PrimitiveKind, name: str) -> tuple[float, float]:
        return self.intervals[kind][name]

    @staticmethod
    def default() -> "DimensionRanges":
        """Production ranges (converted from centimeters at this boundary)."""
        return DimensionRanges(
            {
                PrimitiveKind.CUBOID: {
                    "width": (0.02, 0.072),
                    "height": (0.01, 0.20),
                    "length": (0.02, 0.28),
                },
                PrimitiveKind.SPHERE: {"diameter": (0.01, 0.08)},
                PrimitiveKind.CYLINDER: {
                    "diameter": (0.04, 0.07),
                    "height": (0.04, 0.12),
                },
                PrimitiveKind.RING: {
                    "outer_diameter": (0.06, 0.20),
                    "wall_thickness": (0.006, 0.018),
                    "height": (0.02, 0.06),
                },
            }
        )


@dataclass(frozen=True)
class PrimitiveSpec:
    """One parametric shape: a kind plus its named dimensions in meters."""

    kind: PrimitiveKind
    dims: dict[str, float]

    def __post_init__(self) -> None:
        expected = DIM_NAMES[self.kind]
        if tuple(self.dims) != expected and set(self.dims) != set(expected):
            raise ValueError(
                f"{self.kind.value} requires dims {expected}, got {tuple(self.dims)}"
            )
        for name, value in self.dims.items():
            if not value > 0.0:
                raise ValueError(f"{self.kind.value}.{name} must be positive, got {value}")
        if self.kind is PrimitiveKind.RING:
            if not self.dims["wall_thickness"] < self.dims["outer_diameter"] / 2.0:
                raise ValueError("ring wall thickness must be below the outer radius")


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: unit quaternion (w >= 0) plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if q.shape != (4,) or t.shape != (3,):
            raise ValueError("pose requires a 4-quaternion and a 3-translation")
        with np.errstate(over="ignore"):  # a huge quaternion's norm reads inf
            norm2 = float(q @ q)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"quaternion norm {math.sqrt(norm2)} is not 1 within 1e-12")
        object.__setattr__(self, "rotation", quat_canonical(q))
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map local-frame point(s) to the world frame."""
        return quat_rotate(self.rotation, points) + self.translation

    def apply_inverse(self, points: np.ndarray) -> np.ndarray:
        """Map world-frame point(s) to the local frame."""
        p = np.asarray(points, dtype=np.float64) - self.translation
        return quat_rotate(quat_conjugate(self.rotation), p)


@dataclass(frozen=True, eq=False)
class PlacedPrimitive:
    """A primitive together with its rigid pose inside a toy."""

    spec: PrimitiveSpec
    pose: Pose


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def sample_primitive(
    kind: PrimitiveKind, ranges: DimensionRanges, rng: np.random.Generator
) -> PrimitiveSpec:
    """Draw each dimension independently and uniformly from its interval.

    Draws happen in DIM_NAMES order, so results are reproducible for a
    given generator state.
    """
    dims = {
        name: float(rng.uniform(*ranges.interval(kind, name)))
        for name in DIM_NAMES[kind]
    }
    return PrimitiveSpec(kind, dims)


def contains_local(spec: PrimitiveSpec, point: np.ndarray, tol: float = 0.0) -> bool:
    """Analytic solid test in the primitive's local frame; boundary is inside."""
    x, y, z = np.asarray(point, dtype=np.float64)
    d = spec.dims
    if spec.kind is PrimitiveKind.CUBOID:
        return (
            abs(x) <= d["width"] / 2.0 + tol
            and abs(y) <= d["length"] / 2.0 + tol
            and abs(z) <= d["height"] / 2.0 + tol
        )
    if spec.kind is PrimitiveKind.SPHERE:
        return math.sqrt(x * x + y * y + z * z) <= d["diameter"] / 2.0 + tol
    if spec.kind is PrimitiveKind.CYLINDER:
        return (
            math.hypot(x, y) <= d["diameter"] / 2.0 + tol
            and abs(z) <= d["height"] / 2.0 + tol
        )
    r_outer = d["outer_diameter"] / 2.0
    r_inner = r_outer - d["wall_thickness"]
    radial = math.hypot(x, y)
    return (
        r_inner - tol <= radial <= r_outer + tol
        and abs(z) <= d["height"] / 2.0 + tol
    )


def contains(placed: PlacedPrimitive, point: np.ndarray, tol: float = 0.0) -> bool:
    """World-frame containment: transform into the local frame, then test."""
    return contains_local(placed.spec, placed.pose.apply_inverse(point), tol)


def sample_point_in(spec: PrimitiveSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform point over the solid volume, in the local frame.

    Constructions guarantee membership: per-axis uniform (cuboid), cube-root
    radius (sphere), square-root radius (cylinder), and annular radius
    sqrt(r_i^2 + u (r_o^2 - r_i^2)) (ring).
    """
    d = spec.dims
    if spec.kind is PrimitiveKind.CUBOID:
        return np.array(
            [
                rng.uniform(-d["width"] / 2.0, d["width"] / 2.0),
                rng.uniform(-d["length"] / 2.0, d["length"] / 2.0),
                rng.uniform(-d["height"] / 2.0, d["height"] / 2.0),
            ]
        )
    if spec.kind is PrimitiveKind.SPHERE:
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
        while norm == 0.0:
            direction = rng.normal(size=3)
            norm = np.linalg.norm(direction)
        radius = (d["diameter"] / 2.0) * rng.uniform() ** (1.0 / 3.0)
        return direction * (radius / norm)
    if spec.kind is PrimitiveKind.CYLINDER:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = (d["diameter"] / 2.0) * math.sqrt(rng.uniform())
        z = rng.uniform(-d["height"] / 2.0, d["height"] / 2.0)
        return np.array([radius * math.cos(theta), radius * math.sin(theta), z])
    r_outer = d["outer_diameter"] / 2.0
    r_inner = r_outer - d["wall_thickness"]
    theta = rng.uniform(0.0, 2.0 * math.pi)
    radius = math.sqrt(r_inner**2 + rng.uniform() * (r_outer**2 - r_inner**2))
    z = rng.uniform(-d["height"] / 2.0, d["height"] / 2.0)
    return np.array([radius * math.cos(theta), radius * math.sin(theta), z])
