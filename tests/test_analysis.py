import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    analytic_min_width,
    fibonacci_directions,
    grasp_feasibility,
    identity_pose,
    random_spec,
)
from toygrasp.analysis import (
    GripperModel,
    analyze_toy,
    directional_width,
    min_caliper_width,
    write_feasibility_csv,
)
from toygrasp.assembler import GenerationConfig, assemble_toy
from toygrasp.errors import InvalidInput
from toygrasp.mesh import Tessellation, TriMesh, mesh_primitive, mesh_toy
from toygrasp.primitives import (
    KIND_ORDER,
    PrimitiveKind,
    PrimitiveSpec,
    quat_to_matrix,
    sample_rotation,
)


def brute_force_width(vertices, direction):
    # Independent scalar-loop projection oracle.
    lo = math.inf
    hi = -math.inf
    for vx, vy, vz in vertices:
        p = vx * direction[0] + vy * direction[1] + vz * direction[2]
        lo = min(lo, p)
        hi = max(hi, p)
    return hi - lo


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestDirectionalWidth:
    def test_sphere_width_is_diameter(self):
        mesh = mesh_primitive(PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.05}))
        for direction in (unit([1, 0, 0]), unit([1, 1, 1]), unit([0.3, -0.7, 0.2])):
            assert directional_width(mesh, direction) == pytest.approx(0.05, rel=0.01)

    def test_axis_aligned_cuboid_exact(self):
        mesh = mesh_primitive(
            PrimitiveSpec(
                PrimitiveKind.CUBOID, {"width": 0.02, "length": 0.10, "height": 0.28}
            )
        )
        assert directional_width(mesh, np.array([1.0, 0.0, 0.0])) == 0.02

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(400)
        for _ in range(30):
            toy = assemble_toy(
                int(rng.integers(1, 6)), GenerationConfig(), rng
            )
            mesh = mesh_toy(toy, Tessellation(sphere_subdivisions=1, radial_segments=16))
            direction = unit(rng.normal(size=3))
            fast = directional_width(mesh, direction)
            slow = brute_force_width(mesh.vertices, direction)
            assert abs(fast - slow) <= 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(401)
        mesh = mesh_toy(assemble_toy(3, GenerationConfig(), rng))
        for _ in range(20):
            d = unit(rng.normal(size=3))
            assert directional_width(mesh, d) == directional_width(mesh, -d)

    def test_translation_invariance(self):
        rng = np.random.default_rng(402)
        mesh = mesh_toy(assemble_toy(2, GenerationConfig(), rng))
        shifted = TriMesh(mesh.vertices + np.array([0.4, -0.2, 0.1]), mesh.triangles)
        for _ in range(20):
            d = unit(rng.normal(size=3))
            assert directional_width(mesh, d) == pytest.approx(
                directional_width(shifted, d), abs=1e-12
            )

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(403)
        mesh = mesh_toy(assemble_toy(2, GenerationConfig(), rng))
        for _ in range(20):
            q = sample_rotation(rng)
            rotation = quat_to_matrix(q)
            rotated = TriMesh(mesh.vertices @ rotation.T, mesh.triangles)
            d = unit(rng.normal(size=3))
            assert directional_width(rotated, unit(rotation @ d)) == pytest.approx(
                directional_width(mesh, d), abs=1e-9
            )

    def test_empty_mesh_raises(self):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(InvalidInput, match="directional width of an empty mesh"):
            directional_width(empty, np.array([1.0, 0.0, 0.0]))

    def test_non_unit_direction_rejected(self):
        mesh = mesh_primitive(PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.05}))
        with pytest.raises(ValueError):
            directional_width(mesh, np.array([1.0, 1.0, 0.0]))


class TestMinCaliperWidth:
    def test_sphere_isotropic(self):
        mesh = mesh_primitive(PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.05}))
        width, _ = min_caliper_width(mesh)
        assert width == pytest.approx(0.05, rel=0.01)

    def test_cuboid_min_extent_high_precision(self):
        mesh = mesh_primitive(
            PrimitiveSpec(
                PrimitiveKind.CUBOID, {"width": 0.02, "length": 0.10, "height": 0.28}
            )
        )
        width, direction = min_caliper_width(mesh)
        assert width == pytest.approx(0.02, abs=1e-6)
        assert abs(abs(direction[0]) - 1.0) < 1e-3

    def test_flat_cylinder_height(self):
        mesh = mesh_primitive(
            PrimitiveSpec(PrimitiveKind.CYLINDER, {"diameter": 0.06, "height": 0.04})
        )
        width, _ = min_caliper_width(mesh)
        assert width == pytest.approx(0.04, rel=0.01)

    def test_never_above_sampled_widths(self):
        rng = np.random.default_rng(404)
        for _ in range(5):
            mesh = mesh_toy(assemble_toy(int(rng.integers(1, 6)), GenerationConfig(), rng))
            n = 64
            width, _ = min_caliper_width(mesh)
            proj = mesh.vertices @ fibonacci_directions(n).T
            sampled = (proj.max(axis=0) - proj.min(axis=0)).min()
            assert width <= sampled + 1e-15

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_matches_analytic_minimum(self, kind):
        rng = np.random.default_rng(500 + KIND_ORDER.index(kind))
        for _ in range(5):
            spec = random_spec(kind, rng)
            # Random rotation should not change the minimal caliper width.
            mesh = mesh_primitive(spec)
            rotated = TriMesh(
                mesh.vertices @ quat_to_matrix(sample_rotation(rng)).T, mesh.triangles
            )
            width, _ = min_caliper_width(rotated)
            assert width == pytest.approx(analytic_min_width(spec), rel=0.01)


def all_edge_pairs_width(mesh):
    # Oracle: score every hull facet normal and the cross product of every
    # pair of hull edges, antipodal or not. No direction is narrower than the
    # minimum, and the minimising direction is among these candidates.
    from scipy.spatial import ConvexHull

    hull = ConvexHull(mesh.vertices)
    simplices = hull.simplices
    edges = np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    vectors = hull.points[edges[:, 1]] - hull.points[edges[:, 0]]
    first, second = np.triu_indices(len(vectors), 1)
    crosses = np.cross(vectors[first], vectors[second])
    lengths = np.linalg.norm(crosses, axis=1)
    crosses = crosses[lengths > 0] / lengths[lengths > 0, None]
    candidates = np.concatenate([hull.equations[:, :3], crosses])
    points = hull.points[hull.vertices]
    best = math.inf
    for start in range(0, len(candidates), 4096):
        proj = points @ candidates[start : start + 4096].T
        best = min(best, float((proj.max(axis=0) - proj.min(axis=0)).min()))
    return best


def tessellated_min_width(spec, mesh, n):
    # Closed forms of the tessellated primitives (n radial segments, even).
    d = spec.dims
    if spec.kind is PrimitiveKind.CUBOID:
        return min(d["width"], d["length"], d["height"])
    if spec.kind is PrimitiveKind.CYLINDER:
        return min(d["height"], d["diameter"] * math.cos(math.pi / n))
    if spec.kind is PrimitiveKind.RING:
        return min(d["height"], d["outer_diameter"] * math.cos(math.pi / n))
    # The centred icosphere is centrally symmetric: twice its inradius.
    v0, v1, v2 = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    normals = np.cross(v1 - v0, v2 - v0)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return 2.0 * float(np.abs(np.einsum("ij,ij->i", normals, v0)).min())


class TestExactMinWidth:
    @pytest.mark.parametrize(
        "tess, stride",
        [(Tessellation(1, 16), 2), (Tessellation(2, 64), 10)],
        ids=["coarse", "fine"],
    )
    def test_matches_all_edge_pairs_oracle(self, tess, stride):
        # Default toys, incl. single cylinders such as toy_0066 whose parallel
        # side edges give near-zero cross products. Coarse Gauss arcs are
        # mostly long, fine ones mostly short; both go through the edge
        # bound and the one pair test.
        from toygrasp.assembler import generate_set

        toys = generate_set(GenerationConfig())[::stride]
        assert sum(
            len(t.parts) == 1 and t.parts[0].spec.kind is PrimitiveKind.CYLINDER
            for t in toys
        ) >= 2
        for toy in toys:
            mesh = mesh_toy(toy, tess)
            width, direction = min_caliper_width(mesh)
            assert abs(width - all_edge_pairs_width(mesh)) <= 1e-12, toy.id
            assert width == directional_width(mesh, direction)
            assert abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 60),
        seed=st.integers(0, 2**32 - 1),
        scales=st.tuples(*[st.floats(0.005, 0.1)] * 3),
    )
    def test_random_clouds_match_all_edge_pairs_oracle(self, n, seed, scales):
        # Gaussian clouds are in general position almost surely, and on about
        # two thirds of them the minimum lies along an edge-edge direction.
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 3)) * scales @ quat_to_matrix(sample_rotation(rng)).T
        mesh = TriMesh(points, np.empty((0, 3), dtype=np.int64))
        width, direction = min_caliper_width(mesh)
        assert abs(width - all_edge_pairs_width(mesh)) <= 1e-12
        assert width == directional_width(mesh, direction)

    @pytest.mark.parametrize("kind", KIND_ORDER)
    @pytest.mark.parametrize(
        "tess",
        [Tessellation(), Tessellation(1, 16), Tessellation(3, 256)],
        ids=["default", "coarse", "fine"],
    )
    def test_closed_forms_under_rotation(self, kind, tess):
        # At 256 segments hundreds of near-tied prism edges pass the edge bound.
        rng = np.random.default_rng(600 + KIND_ORDER.index(kind))
        for _ in range(30):
            spec = random_spec(kind, rng)
            base = mesh_primitive(spec, tess)
            rotated = TriMesh(
                base.vertices @ quat_to_matrix(sample_rotation(rng)).T, base.triangles
            )
            width, direction = min_caliper_width(rotated)
            expected = tessellated_min_width(spec, base, tess.radial_segments)
            assert abs(width - expected) <= 1e-12
            assert width == directional_width(rotated, direction)

    def test_default_toy_0073_is_its_cylinder_height(self):
        # The sampled search overstated this single cylinder by 4.4 mm.
        from toygrasp.assembler import generate_set

        toy = generate_set(GenerationConfig())[73]
        (part,) = toy.parts
        assert part.spec.kind is PrimitiveKind.CYLINDER
        width, _ = min_caliper_width(mesh_toy(toy))
        assert abs(width - part.spec.dims["height"]) <= 1e-12

    @pytest.mark.parametrize(
        "vertices",
        [
            [[0.1, -0.2, 0.3]],
            [[0.0, 0.0, 0.0], [0.01, 0.02, 0.03], [0.02, 0.04, 0.06]],
            [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, 0.03, 0.01]],
        ],
        ids=["point", "collinear", "triangle"],
    )
    def test_flat_input_has_zero_width(self, vertices):
        triangles = [[0, 1, 2]] if len(vertices) == 3 else []
        mesh = TriMesh(np.array(vertices), np.array(triangles, dtype=np.int64))
        width, direction = min_caliper_width(mesh)
        assert width <= 1e-12
        assert abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-12

class TestGraspFeasibility:
    def test_small_sphere_graspable(self):
        mesh = mesh_primitive(PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.05}))
        assert grasp_feasibility(mesh, GripperModel(max_opening=0.085))

    def test_large_sphere_not_graspable(self):
        mesh = mesh_primitive(PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.09}))
        assert not grasp_feasibility(mesh, GripperModel(max_opening=0.085))

    def test_matches_dense_direction_oracle(self):
        rng = np.random.default_rng(405)
        gripper = GripperModel()
        for _ in range(6):
            mesh = mesh_toy(
                assemble_toy(int(rng.integers(1, 6)), GenerationConfig(), rng),
                Tessellation(sphere_subdivisions=2, radial_segments=32),
            )
            fast = grasp_feasibility(mesh, gripper)
            proj = mesh.vertices @ fibonacci_directions(10**4).T
            dense = float((proj.max(axis=0) - proj.min(axis=0)).min())
            expected = gripper.min_opening <= dense <= gripper.max_opening
            assert fast == expected

    def test_full_default_set_matches_dense_oracle(self):
        # Per-toy graspable booleans over the whole default composition must
        # agree with a brute-force 10^4-direction recomputation. Both routes
        # upper-bound the true minimum; the unrefined oracle's bound is looser
        # by at most its angular resolution, so disagreement is only tolerated
        # when the oracle's width sits inside that band around the threshold.
        from toygrasp.assembler import generate_set

        gripper = GripperModel()
        dense_dirs = fibonacci_directions(10**4)
        tess = Tessellation(sphere_subdivisions=2, radial_segments=32)
        # At 10^4 directions the covering radius is ~0.02 rad; on a width
        # groove of slope ~0.3 m/rad the unrefined estimate can sit ~6e-3
        # above the true minimum.
        resolution_band = 6e-3
        boundary_cases = 0
        for toy in generate_set(GenerationConfig()):
            mesh = mesh_toy(toy, tess)
            fast_width, _ = min_caliper_width(mesh)
            proj = mesh.vertices @ dense_dirs.T
            dense = float((proj.max(axis=0) - proj.min(axis=0)).min())
            # Both routes upper-bound the true minimum; they may land in
            # marginally different local basins, but never far apart.
            assert abs(fast_width - dense) < resolution_band, toy.id
            fast = gripper.min_opening <= fast_width <= gripper.max_opening
            expected = gripper.min_opening <= dense <= gripper.max_opening
            if fast != expected:
                assert abs(dense - gripper.max_opening) < resolution_band, (
                    toy.id,
                    fast_width,
                    dense,
                )
                boundary_cases += 1
        assert boundary_cases <= 3

    def test_single_spheres_all_graspable_at_default_opening(self):
        # Sphere diameters top out at 0.08 < 0.085 stroke.
        rng = np.random.default_rng(408)
        gripper = GripperModel(max_opening=0.085)
        for _ in range(20):
            spec = random_spec(PrimitiveKind.SPHERE, rng)
            assert grasp_feasibility(mesh_primitive(spec), gripper)

    def test_gripper_validation(self):
        with pytest.raises(ValueError):
            GripperModel(max_opening=0.0)


class TestPrintFeasibility:
    def _box_toy(self, width, length, height):
        spec = PrimitiveSpec(
            PrimitiveKind.CUBOID, {"width": width, "length": length, "height": height}
        )
        from toygrasp.assembler import Color, ToySpec
        from toygrasp.primitives import PlacedPrimitive

        toy = ToySpec(
            "toy_test", 0, (PlacedPrimitive(spec, identity_pose()),), Color.BLUE
        )
        return toy, mesh_toy(toy)

    def test_oversize_toy_downscaled(self):
        toy, mesh = self._box_toy(0.10, 0.30, 0.10)
        report = analyze_toy(toy, mesh, build_edge=0.256, min_wall=0.0)
        assert not report.fits_build_volume
        assert report.suggested_scale == pytest.approx(0.256 / 0.30, abs=1e-4)

    def test_fitting_toy_scale_one(self):
        toy, mesh = self._box_toy(0.10, 0.20, 0.10)
        report = analyze_toy(toy, mesh, build_edge=0.256, min_wall=0.0)
        assert report.fits_build_volume
        assert report.suggested_scale == 1.0

    def test_thin_ring_wall_flagged(self):
        from toygrasp.assembler import Color, ToySpec
        from toygrasp.primitives import PlacedPrimitive

        spec = PrimitiveSpec(
            PrimitiveKind.RING,
            {"outer_diameter": 0.08, "wall_thickness": 0.006, "height": 0.03},
        )
        toy = ToySpec("t", 0, (PlacedPrimitive(spec, identity_pose()),), Color.RED)
        report = analyze_toy(toy, mesh_toy(toy), build_edge=0.256, min_wall=0.008)
        assert report.min_ring_wall == 0.006
        assert report.thin_wall

    def test_no_rings_no_wall_stat(self):
        toy, mesh = self._box_toy(0.05, 0.05, 0.05)
        report = analyze_toy(toy, mesh, build_edge=0.256, min_wall=0.008)
        assert report.min_ring_wall is None
        assert not report.thin_wall


class TestReportsAndCsv:
    def test_analyze_toy_full_report(self):
        rng = np.random.default_rng(406)
        toy = assemble_toy(2, GenerationConfig(), rng)
        mesh = mesh_toy(toy)
        report = analyze_toy(toy, mesh, GripperModel(), build_edge=0.256, min_wall=0.008)
        assert report.min_caliper_width is not None
        assert report.graspable == (0.0 <= report.min_caliper_width <= 0.085)
        assert report.suggested_scale <= 1.0

    def test_csv_rows(self, tmp_path):
        rng = np.random.default_rng(407)
        rows = []
        for i in range(3):
            toy = assemble_toy(1, GenerationConfig(), rng)
            mesh = mesh_toy(toy)
            report = analyze_toy(toy, mesh, GripperModel(), build_edge=0.256, min_wall=0.0)
            rows.append((f"toy_{i:04d}", report))
        path = tmp_path / "feasibility.csv"
        write_feasibility_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("id,min_caliper_width,graspable")
