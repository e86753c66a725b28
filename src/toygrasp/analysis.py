"""Graspability and print-feasibility analysis of toy meshes.

Widths are support-function (caliper) widths: the extent of the vertex set
along a direction, which is the closure width a parallel-jaw gripper sees
when spanning the whole object. `min_caliper_width` is the exact minimum of
that width over all directions, taken on the Qhull convex hull (Barber,
Dobkin & Huhdanpaa 1996) from its antipodal face-vertex and edge-edge pairs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembler import ToySpec
from .errors import EmptyMesh
from .mesh import TriMesh
from .primitives import PrimitiveKind


@dataclass(frozen=True)
class GripperModel:
    """Parallel-jaw opening limits in meters (default: 85 mm stroke)."""

    max_opening: float = 0.085
    min_opening: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_opening < self.max_opening:
            raise ValueError("need 0 <= min_opening < max_opening")


@dataclass(frozen=True)
class FeasibilityReport:
    fits_build_volume: bool
    suggested_scale: float
    min_ring_wall: float | None
    thin_wall: bool
    min_caliper_width: float
    graspable: bool


def directional_width(mesh: TriMesh, direction: np.ndarray) -> float:
    """Max minus min vertex projection onto a unit direction."""
    if mesh.n_vertices == 0:
        raise EmptyMesh("directional width of an empty mesh")
    d = np.asarray(direction, dtype=np.float64)
    if abs(float(d @ d) - 1.0) > 2e-9:
        raise ValueError("direction must be a unit vector within 1e-9")
    proj = mesh.vertices @ d
    return float(proj.max() - proj.min())


# Gauss arcs with half-angles up to this (rad) are paired through a KD-tree
# on their midpoints; longer ones go through a dense straddle test. Only
# speed depends on it: default-set widths are bit-identical from 0.05 to 0.4.
_SHORT_ARC = 0.1
# Directions scored per projection block, so memory stays O(hull vertices).
_BLOCK = 128


def min_caliper_width(mesh: TriMesh) -> tuple[float, np.ndarray]:
    """Exact minimum width of the mesh's convex hull, and its unit direction.

    The minimum lies along a hull facet normal (a face-vertex pair) or along
    the cross product of an antipodal edge pair (Houle & Toussaint 1988).
    Every candidate is scored by projecting the hull vertices, and the width
    returned is `directional_width(mesh, direction)` exactly. Flat input
    (fewer than four points, or all coplanar) is measured along the smallest
    right-singular vector of the centred vertices.
    """
    if mesh.n_vertices == 0:
        raise EmptyMesh("min caliper width of an empty mesh")
    # Imported here: scipy.spatial costs ~11 MB RSS that other commands never use.
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(mesh.vertices)
    except QhullError:
        centred = mesh.vertices - mesh.vertices.mean(axis=0)
        direction = np.linalg.svd(centred, full_matrices=False)[2][-1]
        return directional_width(mesh, direction), direction

    candidates = np.concatenate(
        [hull.equations[:, :3], _antipodal_edge_directions(hull)]
    )
    points = hull.points[hull.vertices]
    best_width, best_direction = math.inf, candidates[0]
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start : start + _BLOCK]
        proj = points @ block.T
        widths = proj.max(axis=0) - proj.min(axis=0)
        k = int(np.argmin(widths))
        if widths[k] < best_width:
            best_width, best_direction = float(widths[k]), block[k]
    return directional_width(mesh, best_direction), best_direction


def _antipodal_edge_directions(hull) -> np.ndarray:
    """Unit directions u1 x u2 of hull edge pairs with antipodal Gauss arcs.

    An edge's Gauss arc runs between the normals of its two facets; a pair
    counts when d lies on edge 1's arc and -d on edge 2's. Near-parallel
    edges can give a direction that is rounding noise. Projection scoring
    makes that harmless, since no direction is narrower than the minimum.
    """
    from scipy.spatial import cKDTree

    normals = hull.equations[:, :3]
    # The edge opposite corner k of facet f is shared with facet neighbors[f, k].
    f = np.repeat(np.arange(len(hull.simplices)), 3)
    g = hull.neighbors.reshape(-1)
    a = hull.simplices[:, [1, 2, 0]].reshape(-1)
    b = hull.simplices[:, [2, 0, 1]].reshape(-1)
    # Each edge once; an edge inside a triangulated planar facet has no arc.
    keep = (f < g) & np.any(normals[f] != normals[g], axis=1)
    n1, n2 = normals[f[keep]], normals[g[keep]]
    edges = hull.points[b[keep]] - hull.points[a[keep]]
    mid = n1 + n2
    half = 0.5 * np.arccos(np.clip(np.einsum("ij,ij->i", n1, n2), -1.0, 1.0))

    # Arc i meets -arc j only if each arc has its endpoints strictly on
    # opposite sides of the other's great circle (the plane normal to its
    # edge). Two short arcs can meet only if their midpoints are at most
    # twice the longest short half-angle apart, so a KD-tree finds them.
    short = np.flatnonzero(half <= _SHORT_ARC)
    unit_mid = mid[short] / np.linalg.norm(mid[short], axis=1, keepdims=True)
    reach = float(half[short].max()) if len(short) else 0.0
    near = cKDTree(unit_mid).sparse_distance_matrix(
        cKDTree(-unit_mid), 2.0 * math.sin(reach) + 1e-12, output_type="ndarray"
    )
    i, j = short[near["i"]], short[near["j"]]
    i, j = i[i < j], j[i < j]
    across = (
        np.einsum("ij,ij->i", edges[j], n1[i]) * np.einsum("ij,ij->i", edges[j], n2[i]) < 0
    ) & (
        np.einsum("ij,ij->i", edges[i], n1[j]) * np.einsum("ij,ij->i", edges[i], n2[j]) < 0
    )
    firsts, seconds = [i[across]], [j[across]]
    # Each long arc is tested against every edge, in row blocks of ~64k pairs.
    long_arcs = np.flatnonzero(half > _SHORT_ARC)
    step = max(1, 65536 // len(edges))
    for start in range(0, len(long_arcs), step):
        rows = long_arcs[start : start + step]
        across = ((n1[rows] @ edges.T) * (n2[rows] @ edges.T) < 0) & (
            (edges[rows] @ n1.T) * (edges[rows] @ n2.T) < 0
        )
        r, c = np.nonzero(across)
        firsts.append(rows[r])
        seconds.append(c)
    i, j = np.concatenate(firsts), np.concatenate(seconds)

    d = np.cross(edges[i], edges[j])
    length = np.linalg.norm(d, axis=1)
    ok = length > 0.0
    d, i, j = d[ok] / length[ok, None], i[ok], j[ok]
    # With both straddles, +-d are the arcs' only crossings: d lies on arc i
    # and -d on arc j iff d meets the two arc midpoints with opposite signs.
    on_arcs = np.einsum("ij,ij->i", d, mid[i]) * np.einsum("ij,ij->i", d, mid[j]) < 0
    return d[on_arcs]


def analyze_toy(
    toy: ToySpec,
    mesh: TriMesh,
    gripper: GripperModel | None = None,
    *,
    build_edge: float,
    min_wall: float,
) -> FeasibilityReport:
    """Build-volume fit, downscale suggestion, thin-ring-wall flag, caliper
    width and graspability."""
    gripper = gripper or GripperModel()
    lo, hi = mesh.aabb()
    extents = hi - lo
    max_extent = float(extents.max())
    scale = min(1.0, build_edge / max_extent) if max_extent > 0.0 else 1.0

    walls = [
        p.spec.dims["wall_thickness"]
        for p in toy.parts
        if p.spec.kind is PrimitiveKind.RING
    ]
    min_ring_wall = min(walls) if walls else None
    width, _ = min_caliper_width(mesh)
    return FeasibilityReport(
        fits_build_volume=bool((extents <= build_edge).all()),
        suggested_scale=float(scale),
        min_ring_wall=min_ring_wall,
        thin_wall=min_ring_wall is not None and min_ring_wall < min_wall,
        min_caliper_width=width,
        graspable=gripper.min_opening <= width <= gripper.max_opening,
    )


def write_feasibility_csv(
    rows: list[tuple[str, FeasibilityReport]], path: str | Path
) -> None:
    """One row per toy: id, min width, graspable, fits, scale, wall flags."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "id",
                "min_caliper_width",
                "graspable",
                "fits_build_volume",
                "suggested_scale",
                "min_ring_wall",
                "thin_wall",
            ]
        )
        for toy_id, report in rows:
            writer.writerow(
                [
                    toy_id,
                    repr(report.min_caliper_width),
                    str(report.graspable).lower(),
                    str(report.fits_build_volume).lower(),
                    repr(report.suggested_scale),
                    repr(report.min_ring_wall) if report.min_ring_wall is not None else "",
                    str(report.thin_wall).lower(),
                ]
            )
