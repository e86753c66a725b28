"""Graspability and print-feasibility analysis of toy meshes.

Widths are support-function (caliper) widths: the extent of the vertex set
along a direction, which is the closure width a parallel-jaw gripper sees
when spanning the whole object. `min_caliper_width` is the exact minimum of
that width over all directions, taken on the Qhull convex hull (Barber,
Dobkin & Huhdanpaa 1996). Projecting the hull vertices along every facet
normal gives the face-vertex widths and each facet's antipodal vertex;
those vertices bound the width along each edge's Gauss arc, and only the
edges that may beat the best facet enter one pairwise antipodal edge-edge
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembler import ToySpec
from .errors import InvalidInput
from .io import csv_chunks, write_output
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
        raise InvalidInput("directional width of an empty mesh")
    d = np.asarray(direction, dtype=np.float64)
    if abs(float(d @ d) - 1.0) > 2e-9:
        raise ValueError("direction must be a unit vector within 1e-9")
    proj = mesh.vertices @ d
    return float(proj.max() - proj.min())


#: Budget of each float64 temporary of a pair-search or projection block,
#: 64 KB or 8,192 entries, so that on a default toy's hull a block's
#: temporaries are a few such pieces, not megabytes that the allocator maps
#: and faults in.
_BLOCK_ENTRIES = (1 << 16) // 8


def _block_rows(columns: int) -> int:
    """Rows of a block of `columns` entries each: as many as the budget
    holds, but at least 16. A one-row block would be a matrix-vector
    product, which may round differently, and on a fine tessellation's hull
    the loop would run once per direction."""
    return max(16, _BLOCK_ENTRIES // max(1, columns))


def min_caliper_width(mesh: TriMesh) -> tuple[float, np.ndarray]:
    """Exact minimum width of the mesh's convex hull, and its unit direction.

    The minimum lies along a hull facet normal (a face-vertex pair) or along
    the cross product u1 x u2 of an antipodal edge pair (Houle & Toussaint
    1988): edges whose Gauss arcs, which run between the normals of each
    edge's two facets, hold d and -d. Every candidate is scored by
    projecting the hull vertices, and the width returned is
    `directional_width(mesh, direction)` exactly. Flat input (fewer than four
    points, or all coplanar) is measured along the smallest right-singular
    vector of the centred vertices.
    """
    if mesh.n_vertices == 0:
        raise InvalidInput("min caliper width of an empty mesh")
    # Imported here: scipy.spatial loads 175 modules in about 0.26 s and adds
    # about 36 MB to peak RSS, which other commands never use.
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(mesh.vertices)
    except QhullError:
        centred = mesh.vertices - mesh.vertices.mean(axis=0)
        direction = np.linalg.svd(centred, full_matrices=False)[2][-1]
        return directional_width(mesh, direction), direction

    points = hull.points[hull.vertices]
    normals = hull.equations[:, :3]
    facet_widths, antipode = _projected_widths(normals, points)
    # The edge opposite corner k of facet f is shared with facet neighbors[f, k];
    # its Gauss arc runs between the two facets' normals.
    f = np.repeat(np.arange(len(hull.simplices)), 3)
    g = hull.neighbors.reshape(-1)
    a = hull.points[hull.simplices[:, [1, 2, 0]].reshape(-1)]
    edges = hull.points[hull.simplices[:, [2, 0, 1]].reshape(-1)] - a
    # Along its arc an edge's width is at least max(d.(a - v1), d.(a - v2)),
    # for its endpoint a and its facets' antipodal (lowest) vertices v1, v2.
    # That bound is least at an arc end, a facet normal, or where the terms
    # meet, at d = +-(e x (v2 - v1)); |.| gives its value at the sign on the
    # arc. Keep each edge once, and only if that value is below the best
    # facet width plus a 1e-9 share of it, for rounding. Facets that share
    # v1 = v2 give e x 0 = 0 and drop the edge: its arc stays in v1's
    # normal cone.
    v1 = points[antipode[f]]
    meet = np.cross(edges, points[antipode[g]] - v1)
    bound = np.abs(np.einsum("ij,ij->i", meet, a - v1))
    best = facet_widths.min() * (1.0 + 1e-9)
    keep = (f < g) & (bound < best * np.linalg.norm(meet, axis=1))
    n1, n2, edges = normals[f[keep]], normals[g[keep]], edges[keep]

    # Arc i meets -arc j only if each arc has its endpoints strictly on
    # opposite sides of the other's great circle (the plane normal to its
    # edge). Each pair i < j is tested once, in row blocks (`_block_rows`).
    pairs = [np.empty((0, 2), dtype=np.intp)]
    step = _block_rows(len(edges))
    for start in range(0, len(edges), step):
        rows, cols = slice(start, start + step), slice(start, None)
        across = (n1[rows] @ edges[cols].T) * (n2[rows] @ edges[cols].T) < 0
        across &= (edges[rows] @ n1[cols].T) * (edges[rows] @ n2[cols].T) < 0
        pairs.append(np.argwhere(np.triu(across, 1)) + start)
    i, j = np.concatenate(pairs).T
    d = np.cross(edges[i], edges[j])
    length = np.linalg.norm(d, axis=1)
    ok = length > 0.0
    d, i, j = d[ok] / length[ok, None], i[ok], j[ok]
    # With both straddles, +-d are the arcs' only crossings: d lies on arc i
    # and -d on arc j iff d meets the two arc midpoints with opposite signs.
    # Near-parallel edges can give a direction that is rounding noise;
    # projection scoring makes that harmless, as no direction is narrower
    # than the minimum.
    mid = n1 + n2
    d = d[np.einsum("ij,ij->i", d, mid[i]) * np.einsum("ij,ij->i", d, mid[j]) < 0]

    candidates = np.concatenate([normals, d])
    widths = np.concatenate([facet_widths, _projected_widths(d, points)[0]])
    direction = candidates[int(np.argmin(widths))]
    return directional_width(mesh, direction), direction


def _projected_widths(directions: np.ndarray, points: np.ndarray):
    """Width of the points along each direction, and the index of the point
    lowest along it, projected in row blocks (`_block_rows`)."""
    widths = np.empty(len(directions))
    lowest = np.empty(len(directions), dtype=np.intp)
    step = _block_rows(len(points))
    for start in range(0, len(directions), step):
        proj = directions[start : start + step] @ points.T
        rows = slice(start, start + len(proj))
        lowest[rows] = proj.argmin(axis=1)
        widths[rows] = proj.max(axis=1) - proj[np.arange(len(proj)), lowest[rows]]
    return widths, lowest


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
) -> str:
    """One row per toy: id, min width, graspable, fits, scale, wall flags.
    Returns the SHA-256 of the bytes written."""
    header = [
        "id",
        "min_caliper_width",
        "graspable",
        "fits_build_volume",
        "suggested_scale",
        "min_ring_wall",
        "thin_wall",
    ]
    cells = [header] + [
        [
            toy_id,
            repr(report.min_caliper_width),
            str(report.graspable).lower(),
            str(report.fits_build_volume).lower(),
            repr(report.suggested_scale),
            repr(report.min_ring_wall) if report.min_ring_wall is not None else "",
            str(report.thin_wall).lower(),
        ]
        for toy_id, report in rows
    ]
    return write_output(path, csv_chunks(cells), "feasibility CSV")
