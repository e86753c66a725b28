import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec
from toygrasp.assembler import GenerationConfig, assemble_toy, generate_set
from toygrasp.errors import InvalidInput
from toygrasp.io import stl_bytes
from toygrasp.mesh import (
    MAX_RADIAL_SEGMENTS,
    MAX_SPHERE_SUBDIVISIONS,
    Tessellation,
    TriMesh,
    _mesh_cylinder,
    _mesh_ring,
    is_watertight,
    mesh_primitive,
    mesh_toy,
    mesh_volume,
)
from toygrasp.primitives import (
    KIND_ORDER,
    PrimitiveKind,
    PrimitiveSpec,
    contains_local,
)


def analytic_volume(spec: PrimitiveSpec) -> float:
    d = spec.dims
    if spec.kind is PrimitiveKind.CUBOID:
        return d["width"] * d["length"] * d["height"]
    if spec.kind is PrimitiveKind.SPHERE:
        return 4.0 / 3.0 * math.pi * (d["diameter"] / 2) ** 3
    if spec.kind is PrimitiveKind.CYLINDER:
        return math.pi * (d["diameter"] / 2) ** 2 * d["height"]
    r_o = d["outer_diameter"] / 2
    r_i = r_o - d["wall_thickness"]
    return math.pi * (r_o**2 - r_i**2) * d["height"]


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)


class TestMeshPrimitive:
    def test_cuboid_counts_and_exact_volume(self):
        spec = PrimitiveSpec(
            PrimitiveKind.CUBOID, {"width": 0.02, "length": 0.28, "height": 0.20}
        )
        mesh = mesh_primitive(spec)
        assert mesh.n_vertices == 8
        assert mesh.n_triangles == 12
        assert mesh_volume(mesh) == pytest.approx(0.00112, rel=1e-12)

    def test_sphere_volume_within_2_percent(self):
        spec = PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.08})
        mesh = mesh_primitive(spec, Tessellation(sphere_subdivisions=3))
        expected = analytic_volume(spec)
        volume = mesh_volume(mesh)
        assert volume < expected  # inscribed polyhedron under-approximates
        assert abs(volume - expected) / expected < 0.02

    def test_ring_volume_within_2_percent(self):
        spec = PrimitiveSpec(
            PrimitiveKind.RING,
            {"outer_diameter": 0.10, "wall_thickness": 0.01, "height": 0.04},
        )
        mesh = mesh_primitive(spec, Tessellation(radial_segments=64))
        expected = analytic_volume(spec)
        assert abs(mesh_volume(mesh) - expected) / expected < 0.02

    def test_cylinder_volume_within_half_percent_at_128(self):
        spec = PrimitiveSpec(PrimitiveKind.CYLINDER, {"diameter": 0.06, "height": 0.10})
        mesh = mesh_primitive(spec, Tessellation(radial_segments=128))
        expected = analytic_volume(spec)
        assert abs(mesh_volume(mesh) - expected) / expected < 0.005

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_watertight_positive_volume_no_degenerate(self, kind):
        rng = np.random.default_rng(200 + KIND_ORDER.index(kind))
        for _ in range(25):
            mesh = mesh_primitive(random_spec(kind, rng))
            assert is_watertight(mesh)
            assert mesh_volume(mesh) > 0.0
            assert (triangle_areas(mesh) > 1e-15).all()

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_vertices_contained_at_boundary_tolerance(self, kind):
        rng = np.random.default_rng(300 + KIND_ORDER.index(kind))
        for _ in range(10):
            spec = random_spec(kind, rng)
            mesh = mesh_primitive(spec)
            for vertex in mesh.vertices:
                assert contains_local(spec, vertex, tol=1e-9)

    def test_volume_converges_monotonically(self):
        sphere = PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.06})
        sphere_volumes = [
            mesh_volume(mesh_primitive(sphere, Tessellation(sphere_subdivisions=s)))
            for s in (1, 2, 3)
        ]
        assert sphere_volumes[0] < sphere_volumes[1] < sphere_volumes[2] < analytic_volume(sphere)

        for kind, dims in (
            (PrimitiveKind.CYLINDER, {"diameter": 0.06, "height": 0.10}),
            (PrimitiveKind.RING, {"outer_diameter": 0.10, "wall_thickness": 0.01, "height": 0.04}),
        ):
            spec = PrimitiveSpec(kind, dims)
            volumes = [
                mesh_volume(mesh_primitive(spec, Tessellation(radial_segments=n)))
                for n in (16, 32, 64)
            ]
            assert volumes[0] < volumes[1] < volumes[2] < analytic_volume(spec)


def loop_cylinder_triangles(n: int) -> np.ndarray:
    """Reference: the cylinder index builder written as a per-segment loop."""
    c_bot, c_top = 2 * n, 2 * n + 1
    tris = []
    for i in range(n):
        j = (i + 1) % n
        tris += [(i, j, n + j), (i, n + j, n + i)]
        tris += [(c_top, n + i, n + j)]
        tris += [(c_bot, j, i)]
    return np.array(tris, dtype=np.int64)


def loop_ring_triangles(n: int) -> np.ndarray:
    """Reference: the ring index builder written as a per-segment loop."""
    BO, TO, BI, TI = 0, n, 2 * n, 3 * n
    tris = []
    for i in range(n):
        j = (i + 1) % n
        tris += [(BO + i, BO + j, TO + j), (BO + i, TO + j, TO + i)]
        tris += [(BI + i, TI + j, BI + j), (BI + i, TI + i, TI + j)]
        tris += [(TO + i, TO + j, TI + j), (TO + i, TI + j, TI + i)]
        tris += [(BO + i, BI + j, BO + j), (BO + i, BI + i, BI + j)]
    return np.array(tris, dtype=np.int64)


class TestIndexBuilders:
    @pytest.mark.parametrize("n", [8, 9, 64])
    def test_cylinder_matches_loop_order(self, n):
        mesh = _mesh_cylinder({"diameter": 0.06, "height": 0.10}, n)
        np.testing.assert_array_equal(mesh.triangles, loop_cylinder_triangles(n))

    @pytest.mark.parametrize("n", [8, 9, 64])
    def test_ring_matches_loop_order(self, n):
        mesh = _mesh_ring(
            {"outer_diameter": 0.10, "wall_thickness": 0.01, "height": 0.04}, n
        )
        np.testing.assert_array_equal(mesh.triangles, loop_ring_triangles(n))


class TestMeshToy:
    def test_single_part_equals_transformed_primitive(self):
        toy = assemble_toy(1, GenerationConfig(), np.random.default_rng(2))
        toy_mesh = mesh_toy(toy)
        part = toy.parts[0]
        part_mesh = mesh_primitive(part.spec)
        np.testing.assert_array_equal(
            toy_mesh.vertices, part.pose.apply(part_mesh.vertices)
        )
        np.testing.assert_array_equal(toy_mesh.triangles, part_mesh.triangles)

    def test_two_part_concatenation(self):
        toy = assemble_toy(2, GenerationConfig(), np.random.default_rng(3))
        toy_mesh = mesh_toy(toy)
        expected = sum(mesh_primitive(p.spec).n_triangles for p in toy.parts)
        assert toy_mesh.n_triangles == expected
        assert set(np.unique(toy_mesh.part_labels)) == {0, 1}

    def test_deterministic_bytes(self):
        config = GenerationConfig()
        a = mesh_toy(assemble_toy(3, config, np.random.default_rng(7)))
        b = mesh_toy(assemble_toy(3, config, np.random.default_rng(7)))
        assert stl_bytes(a) == stl_bytes(b)

    def test_toy_volume_is_sum_of_parts(self):
        toy = assemble_toy(3, GenerationConfig(), np.random.default_rng(11))
        total = mesh_volume(mesh_toy(toy))
        parts = sum(
            mesh_volume(
                TriMesh(
                    p.pose.apply(mesh_primitive(p.spec).vertices),
                    mesh_primitive(p.spec).triangles,
                )
            )
            for p in toy.parts
        )
        assert total == pytest.approx(parts, rel=1e-9)

    @pytest.mark.parametrize("radial_segments", [8, 9, 64])
    def test_toy_watertight_iff_each_part_kind_is(self, default_toys, radial_segments):
        # `generate` checks one mesh per part kind in place of every toy mesh.
        specs = {p.spec.kind: p.spec for toy in default_toys for p in toy.parts}
        for subdivisions in range(4):
            tess = Tessellation(sphere_subdivisions=subdivisions, radial_segments=radial_segments)
            verdicts = {kind: is_watertight(mesh_primitive(s, tess)) for kind, s in specs.items()}
            for toy in default_toys:
                expected = all(verdicts[p.spec.kind] for p in toy.parts)
                assert is_watertight(mesh_toy(toy, tess)) == expected, (toy.id, tess)


@pytest.fixture(scope="module")
def default_toys():
    return generate_set(GenerationConfig())


class TestMeshVolume:
    def test_unit_scale_cuboid(self):
        spec = PrimitiveSpec(
            PrimitiveKind.CUBOID, {"width": 0.1, "length": 0.1, "height": 0.1}
        )
        assert mesh_volume(mesh_primitive(spec)) == pytest.approx(1e-3, rel=1e-12)

    def test_deleted_triangle_raises(self):
        mesh = mesh_primitive(
            PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.05}),
            Tessellation(sphere_subdivisions=1),
        )
        broken = TriMesh(mesh.vertices, mesh.triangles[:-1])
        with pytest.raises(InvalidInput, match="not shared by exactly 2 triangles"):
            mesh_volume(broken)


def watertight_oracle(triangles: np.ndarray) -> bool:
    """Reference: each directed edge occurs once, each undirected edge twice."""
    edges = [(t[k], t[(k + 1) % 3]) for t in triangles.tolist() for k in range(3)]
    directed = Counter(edges)
    undirected = Counter(tuple(sorted(edge)) for edge in edges)
    return bool(edges) and max(directed.values()) == 1 and set(undirected.values()) == {2}


CLOSED_TRIANGLES = [
    mesh_primitive(spec, Tessellation(sphere_subdivisions=1, radial_segments=8)).triangles
    for spec in (
        PrimitiveSpec(PrimitiveKind.CUBOID, {"width": 0.02, "length": 0.03, "height": 0.04}),
        PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.05}),
        PrimitiveSpec(PrimitiveKind.CYLINDER, {"diameter": 0.06, "height": 0.10}),
        PrimitiveSpec(
            PrimitiveKind.RING,
            {"outer_diameter": 0.10, "wall_thickness": 0.01, "height": 0.04},
        ),
    )
]
LARGE_N_VERTICES = 3_000_000  # edge keys a * n + b exceed 2**32


def mesh_over(triangles: np.ndarray, n_vertices: int) -> TriMesh:
    return TriMesh(np.zeros((n_vertices, 3)), triangles)


class TestIsWatertight:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_closed_mesh_matches_oracle(self, data):
        triangles = data.draw(st.sampled_from(CLOSED_TRIANGLES)).copy()
        index = data.draw(st.integers(0, len(triangles) - 1))
        mutation = data.draw(st.sampled_from(["none", "flip", "duplicate", "delete"]))
        if mutation == "flip":
            triangles[index] = triangles[index, ::-1]
        elif mutation == "duplicate":
            triangles = np.vstack([triangles, triangles[index : index + 1]])
        elif mutation == "delete":
            triangles = np.delete(triangles, index, axis=0)
        # Relabel the vertices into a large index space.
        n_used = int(triangles.max()) + 1
        labels = data.draw(
            st.lists(
                st.integers(0, LARGE_N_VERTICES - 1),
                min_size=n_used,
                max_size=n_used,
                unique=True,
            )
        )
        triangles = np.array(labels)[triangles]
        expected = watertight_oracle(triangles)
        assert expected == (mutation == "none")
        assert is_watertight(mesh_over(triangles, LARGE_N_VERTICES)) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        n_vertices=st.integers(3, LARGE_N_VERTICES),
        data=st.data(),
    )
    def test_random_indices_match_oracle(self, n_vertices, data):
        triangles = np.array(
            data.draw(
                st.lists(
                    st.tuples(*[st.integers(0, n_vertices - 1)] * 3),
                    min_size=1,
                    max_size=12,
                )
            )
        )
        assert is_watertight(mesh_over(triangles, n_vertices)) == watertight_oracle(triangles)

    def test_edge_shared_by_four_triangles(self):
        # Two closed tetrahedra glued along the edge (0, 1) only.
        tetra = np.array([(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)])
        relabel = np.array([0, 1, 4, 5])
        triangles = np.vstack([tetra, relabel[tetra]])
        assert is_watertight(mesh_over(tetra, 4))
        assert not watertight_oracle(triangles)
        assert not is_watertight(mesh_over(triangles, 6))


class TestTriMeshValidation:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            TriMesh(np.eye(3), np.array([[0, 1, 2]]), part_labels=np.array([0, 1]))

    def test_tessellation_validation(self):
        with pytest.raises(ValueError):
            Tessellation(sphere_subdivisions=-1)
        with pytest.raises(ValueError):
            Tessellation(radial_segments=4)

    def test_tessellation_limits(self):
        # Checked on construction; no mesh is built at these sizes.
        Tessellation(MAX_SPHERE_SUBDIVISIONS, MAX_RADIAL_SEGMENTS)
        message = f"sphere_subdivisions must be from 0 to {MAX_SPHERE_SUBDIVISIONS}"
        with pytest.raises(ValueError, match=message):
            Tessellation(sphere_subdivisions=MAX_SPHERE_SUBDIVISIONS + 1)
        message = f"radial_segments must be from 8 to {MAX_RADIAL_SEGMENTS}"
        with pytest.raises(ValueError, match=message):
            Tessellation(radial_segments=MAX_RADIAL_SEGMENTS + 1)
        with pytest.raises(ValueError, match="radial_segments"):
            Tessellation(radial_segments=400_000_000)
