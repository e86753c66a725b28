"""Triangle meshing of primitives and toys, plus signed-volume computation.

Per-primitive meshes are watertight and consistently outward-oriented.
Toy meshes are labeled concatenations of per-part meshes; no boolean union
is performed, so overlapping interiors are permitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .assembler import ToySpec
from .errors import InvalidInput
from .primitives import PrimitiveKind, PrimitiveSpec


#: Finest tessellation a config may ask for: a sphere has 20 * 4^s triangles
#: (a 1-sphere `generate` took 3.1 s at 7, 15 s at 8), a ring 8 per segment.
MAX_SPHERE_SUBDIVISIONS = 7
MAX_RADIAL_SEGMENTS = 65536


@dataclass(frozen=True)
class Tessellation:
    sphere_subdivisions: int = 3
    radial_segments: int = 64

    def __post_init__(self) -> None:
        if not 0 <= self.sphere_subdivisions <= MAX_SPHERE_SUBDIVISIONS:
            raise ValueError(f"sphere_subdivisions must be from 0 to {MAX_SPHERE_SUBDIVISIONS}")
        if not 8 <= self.radial_segments <= MAX_RADIAL_SEGMENTS:
            raise ValueError(f"radial_segments must be from 8 to {MAX_RADIAL_SEGMENTS}")


@dataclass(eq=False)
class TriMesh:
    """Indexed triangle mesh in meters with optional per-triangle part labels."""

    vertices: np.ndarray
    triangles: np.ndarray
    part_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ValueError("triangle index out of range")
        if self.part_labels is not None:
            self.part_labels = np.asarray(self.part_labels, dtype=np.int64).reshape(-1)
            if len(self.part_labels) != len(self.triangles):
                raise ValueError("part_labels must have one entry per triangle")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_vertices == 0:
            raise ValueError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


# ---------------------------------------------------------------------------
# primitive meshing
# ---------------------------------------------------------------------------

_CUBOID_TRIANGLES = np.array(
    [
        (0, 2, 1), (0, 3, 2),  # bottom, -z
        (4, 5, 6), (4, 6, 7),  # top, +z
        (0, 1, 5), (0, 5, 4),  # -y
        (3, 7, 6), (3, 6, 2),  # +y
        (0, 4, 7), (0, 7, 3),  # -x
        (1, 2, 6), (1, 6, 5),  # +x
    ],
    dtype=np.int64,
)

_ICOSAHEDRON_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def _icosahedron_vertices() -> np.ndarray:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=np.float64,
    )
    return verts / np.linalg.norm(verts, axis=1, keepdims=True)


@lru_cache(maxsize=8)
def _unit_icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-radius icosphere; midpoints are shared so the result is watertight."""
    verts = list(_icosahedron_vertices())
    faces = [tuple(f) for f in _ICOSAHEDRON_FACES]
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            idx = midpoint.get(key)
            if idx is None:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                idx = len(verts) - 1
                midpoint[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts, dtype=np.float64)
    f = np.array(faces, dtype=np.int64)
    v.setflags(write=False)
    f.setflags(write=False)
    return v, f


def _ring_angles(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def _mesh_cuboid(dims: dict[str, float]) -> TriMesh:
    hx, hy, hz = dims["width"] / 2.0, dims["length"] / 2.0, dims["height"] / 2.0
    verts = np.array(
        [
            (-hx, -hy, -hz), (hx, -hy, -hz), (hx, hy, -hz), (-hx, hy, -hz),
            (-hx, -hy, hz), (hx, -hy, hz), (hx, hy, hz), (-hx, hy, hz),
        ]
    )
    return TriMesh(verts, _CUBOID_TRIANGLES.copy())


def _mesh_sphere(dims: dict[str, float], subdivisions: int) -> TriMesh:
    verts, faces = _unit_icosphere(subdivisions)
    return TriMesh(verts * (dims["diameter"] / 2.0), faces.copy())


def _mesh_cylinder(dims: dict[str, float], n: int) -> TriMesh:
    r = dims["diameter"] / 2.0
    hz = dims["height"] / 2.0
    theta = _ring_angles(n)
    ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    bottom = np.column_stack([ring, np.full(n, -hz)])
    top = np.column_stack([ring, np.full(n, hz)])
    verts = np.vstack([bottom, top, [(0.0, 0.0, -hz)], [(0.0, 0.0, hz)]])
    i = np.arange(n)
    j = (i + 1) % n
    c_bot, c_top = np.full(n, 2 * n), np.full(n, 2 * n + 1)
    # Axes (triangle within segment, corner, segment i); segment-major order.
    tris = np.array(
        [
            (i, j, n + j), (i, n + j, n + i),  # side wall
            (c_top, n + i, n + j),             # top cap fan
            (c_bot, j, i),                     # bottom cap fan
        ]
    )
    return TriMesh(verts, tris.transpose(2, 0, 1).reshape(-1, 3))


def _mesh_ring(dims: dict[str, float], n: int) -> TriMesh:
    r_o = dims["outer_diameter"] / 2.0
    r_i = r_o - dims["wall_thickness"]
    hz = dims["height"] / 2.0
    theta = _ring_angles(n)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    def circle(radius: float, z: float) -> np.ndarray:
        return np.column_stack([radius * cos_t, radius * sin_t, np.full(n, z)])

    verts = np.vstack(
        [circle(r_o, -hz), circle(r_o, hz), circle(r_i, -hz), circle(r_i, hz)]
    )
    BO, TO, BI, TI = 0, n, 2 * n, 3 * n

    i = np.arange(n)
    j = (i + 1) % n
    # Axes (triangle within segment, corner, segment i); segment-major order.
    tris = np.array(
        [
            (BO + i, BO + j, TO + j), (BO + i, TO + j, TO + i),  # outer wall
            (BI + i, TI + j, BI + j), (BI + i, TI + i, TI + j),  # inner wall
            (TO + i, TO + j, TI + j), (TO + i, TI + j, TI + i),  # top cap
            (BO + i, BI + j, BO + j), (BO + i, BI + i, BI + j),  # bottom cap
        ]
    )
    return TriMesh(verts, tris.transpose(2, 0, 1).reshape(-1, 3))


def mesh_primitive(spec: PrimitiveSpec, tess: Tessellation | None = None) -> TriMesh:
    """Watertight, outward-oriented mesh of a primitive in its local frame."""
    tess = tess or Tessellation()
    if spec.kind is PrimitiveKind.CUBOID:
        return _mesh_cuboid(spec.dims)
    if spec.kind is PrimitiveKind.SPHERE:
        return _mesh_sphere(spec.dims, tess.sphere_subdivisions)
    if spec.kind is PrimitiveKind.CYLINDER:
        return _mesh_cylinder(spec.dims, tess.radial_segments)
    return _mesh_ring(spec.dims, tess.radial_segments)


def mesh_toy(toy: ToySpec, tess: Tessellation | None = None) -> TriMesh:
    """Concatenate the posed part meshes, labeling triangles by part index."""
    tess = tess or Tessellation()
    verts_parts, tris_parts, labels = [], [], []
    offset = 0
    for index, part in enumerate(toy.parts):
        part_mesh = mesh_primitive(part.spec, tess)
        verts_parts.append(part.pose.apply(part_mesh.vertices))
        tris_parts.append(part_mesh.triangles + offset)
        labels.append(np.full(part_mesh.n_triangles, index, dtype=np.int64))
        offset += part_mesh.n_vertices
    return TriMesh(
        np.vstack(verts_parts), np.vstack(tris_parts), np.concatenate(labels)
    )


# ---------------------------------------------------------------------------
# integrity and volume
# ---------------------------------------------------------------------------

def is_watertight(mesh: TriMesh) -> bool:
    """Every undirected edge borders exactly two consistently oriented triangles."""
    if mesh.n_triangles == 0:
        return False
    # Edge (a, b) is the 1-D key a * n + b, unique for 0 <= a, b < n.
    n = mesh.n_vertices
    starts = mesh.triangles.reshape(-1)
    ends = mesh.triangles[:, [1, 2, 0]].reshape(-1)
    directed = starts * n + ends
    if len(np.unique(directed)) != len(directed):
        return False
    undirected = np.minimum(starts, ends) * n + np.maximum(starts, ends)
    _, undirected_counts = np.unique(undirected, return_counts=True)
    return bool((undirected_counts == 2).all())


def mesh_volume(mesh: TriMesh) -> float:
    """Signed volume via the divergence theorem; positive when outward-oriented.

    Requires a watertight mesh (for toy concatenations this holds per part, so
    overlapping interiors are double counted).
    """
    if not is_watertight(mesh):
        raise InvalidInput("an edge is not shared by exactly 2 triangles")
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    return float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum() / 6.0)
