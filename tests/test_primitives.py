import numpy as np
import pytest
from scipy import stats
from scipy.spatial.transform import Rotation

from conftest import (
    analytic_boundary_distance,
    compose,
    identity_pose,
    ray_parity_inside,
    within_ranges,
)
from toygrasp.errors import InvalidRanges
from toygrasp.mesh import Tessellation, mesh_primitive
from toygrasp.primitives import (
    DIM_NAMES,
    KIND_ORDER,
    DimensionRanges,
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    PrimitiveSpec,
    contains,
    contains_local,
    quat_to_matrix,
    sample_point_in,
    sample_primitive,
    sample_rotation,
)


class TestDimensionRanges:
    def test_default_values(self):
        r = DimensionRanges.default()
        assert r.interval(PrimitiveKind.CUBOID, "width") == (0.02, 0.072)
        assert r.interval(PrimitiveKind.SPHERE, "diameter") == (0.01, 0.08)
        assert r.interval(PrimitiveKind.CYLINDER, "height") == (0.04, 0.12)
        assert r.interval(PrimitiveKind.RING, "wall_thickness") == (0.006, 0.018)

    def test_inverted_interval_rejected(self):
        bad = {k: dict(DimensionRanges.default().intervals[k]) for k in KIND_ORDER}
        bad[PrimitiveKind.SPHERE] = {"diameter": (0.08, 0.01)}
        with pytest.raises(InvalidRanges):
            DimensionRanges(bad)

    def test_nonpositive_interval_rejected(self):
        bad = {k: dict(DimensionRanges.default().intervals[k]) for k in KIND_ORDER}
        bad[PrimitiveKind.SPHERE] = {"diameter": (0.0, 0.08)}
        with pytest.raises(InvalidRanges):
            DimensionRanges(bad)

    def test_ring_inner_radius_must_stay_positive(self):
        bad = {k: dict(DimensionRanges.default().intervals[k]) for k in KIND_ORDER}
        bad[PrimitiveKind.RING] = {
            "outer_diameter": (0.02, 0.20),
            "wall_thickness": (0.006, 0.018),
            "height": (0.02, 0.06),
        }
        with pytest.raises(InvalidRanges):
            DimensionRanges(bad)

    def test_default_ring_inner_radius_positive(self):
        # min outer radius 0.03 > max wall 0.018
        r = DimensionRanges.default()
        assert r.interval(PrimitiveKind.RING, "outer_diameter")[0] / 2 > r.interval(
            PrimitiveKind.RING, "wall_thickness"
        )[1]


class TestSamplePrimitive:
    def test_sphere_within_paper_range(self):
        rng = np.random.default_rng(7)
        spec = sample_primitive(PrimitiveKind.SPHERE, DimensionRanges.default(), rng)
        assert 0.01 <= spec.dims["diameter"] <= 0.08

    def test_degenerate_ranges_force_value(self):
        ranges = DimensionRanges(
            {
                **DimensionRanges.default().intervals,
                PrimitiveKind.CUBOID: {
                    "width": (0.05, 0.05),
                    "height": (0.05, 0.05),
                    "length": (0.05, 0.05),
                },
            }
        )
        for seed in (0, 1, 99):
            spec = sample_primitive(
                PrimitiveKind.CUBOID, ranges, np.random.default_rng(seed)
            )
            assert spec.dims == {"width": 0.05, "height": 0.05, "length": 0.05}

    def test_all_kinds_within_ranges(self):
        ranges = DimensionRanges.default()
        rng = np.random.default_rng(11)
        for kind in KIND_ORDER:
            for _ in range(2000):
                assert within_ranges(sample_primitive(kind, ranges, rng), ranges)

    def test_ring_dimensions_ks_uniform(self):
        # One sample per seed; each dimension against its uniform CDF.
        ranges = DimensionRanges.default()
        n = 10**5
        values = {name: np.empty(n) for name in DIM_NAMES[PrimitiveKind.RING]}
        for seed in range(n):
            spec = sample_primitive(
                PrimitiveKind.RING, ranges, np.random.default_rng(seed)
            )
            for name in values:
                values[name][seed] = spec.dims[name]
        for name, samples in values.items():
            lo, hi = ranges.interval(PrimitiveKind.RING, name)
            result = stats.kstest(samples, "uniform", args=(lo, hi - lo))
            assert result.pvalue > 0.01, f"{name}: p={result.pvalue}"

    def test_determinism(self):
        ranges = DimensionRanges.default()
        a = sample_primitive(PrimitiveKind.RING, ranges, np.random.default_rng(5))
        b = sample_primitive(PrimitiveKind.RING, ranges, np.random.default_rng(5))
        assert a == b


class TestContains:
    def test_sphere_inside_and_outside(self):
        sphere = PlacedPrimitive(
            PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.08}), identity_pose()
        )
        assert contains(sphere, np.array([0.0, 0.0, 0.039]))
        assert not contains(sphere, np.array([0.0, 0.0, 0.041]))

    def test_sphere_boundary_counts_as_inside(self):
        sphere = PlacedPrimitive(
            PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.08}), identity_pose()
        )
        assert contains(sphere, np.array([0.04, 0.0, 0.0]))

    def test_ring_radial_band(self):
        ring = PlacedPrimitive(
            PrimitiveSpec(
                PrimitiveKind.RING,
                {"outer_diameter": 0.10, "wall_thickness": 0.01, "height": 0.04},
            ),
            identity_pose(),
        )
        # 0.04 <= 0.043 <= 0.05 and |0.01| <= 0.02
        assert contains(ring, np.array([0.043, 0.0, 0.01]))
        assert not contains(ring, np.array([0.039, 0.0, 0.01]))  # inside the hole
        assert not contains(ring, np.array([0.051, 0.0, 0.01]))

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_against_mesh_ray_parity_oracle(self, kind):
        # Classify random points twice: analytically and by ray casting
        # against the meshed solid. Points closer to the boundary than the
        # tessellation chord sag are skipped.
        rng = np.random.default_rng(100 + KIND_ORDER.index(kind))
        spec = sample_primitive(kind, DimensionRanges.default(), rng)
        mesh = mesh_primitive(spec, Tessellation())
        lo, hi = mesh.aabb()
        span = hi - lo
        margin = 0.004 * float(span.max())
        checked = 0
        for _ in range(400):
            point = lo - 0.1 * span + rng.uniform(size=3) * 1.2 * span
            if abs(analytic_boundary_distance(spec, point)) < margin:
                continue
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            expected = ray_parity_inside(mesh.vertices, mesh.triangles, point, direction)
            assert contains_local(spec, point) == expected
            checked += 1
        assert checked > 200

    def test_rigid_invariance(self):
        # Applying one rigid transform to both pose and point keeps the
        # answer, away from the boundary.
        rng = np.random.default_rng(21)
        ranges = DimensionRanges.default()
        checked = 0
        for _ in range(1100):
            kind = KIND_ORDER[int(rng.integers(0, 4))]
            spec = sample_primitive(kind, ranges, rng)
            pose = Pose(sample_rotation(rng), rng.uniform(-0.3, 0.3, 3))
            placed = PlacedPrimitive(spec, pose)
            local = sample_point_in(spec, rng) * rng.uniform(0.0, 1.6)
            if abs(analytic_boundary_distance(spec, local)) < 1e-7:
                continue
            point = pose.apply(local)
            extra = Pose(sample_rotation(rng), rng.uniform(-0.5, 0.5, 3))
            moved = PlacedPrimitive(spec, compose(extra, pose))
            assert contains(placed, point, tol=1e-9) == contains(
                moved, extra.apply(point), tol=1e-9
            )
            checked += 1
        assert checked >= 1000


class TestSamplePointIn:
    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_membership_property(self, kind):
        rng = np.random.default_rng(31)
        ranges = DimensionRanges.default()
        for _ in range(100):
            spec = sample_primitive(kind, ranges, rng)
            for _ in range(100):
                assert contains_local(spec, sample_point_in(spec, rng))

    def test_sphere_radius_fraction(self):
        # Volume-ratio oracle: P(r <= d/4) = (1/2)^3 = 0.125.
        spec = PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.08})
        rng = np.random.default_rng(41)
        n = 10**5
        inside = 0
        for _ in range(n):
            if np.linalg.norm(sample_point_in(spec, rng)) <= 0.02:
                inside += 1
        assert abs(inside / n - 0.125) < 0.01

    def test_cuboid_octant_chi_square(self):
        spec = PrimitiveSpec(
            PrimitiveKind.CUBOID, {"width": 0.04, "height": 0.04, "length": 0.04}
        )
        rng = np.random.default_rng(43)
        counts = np.zeros(8)
        n = 10**5
        for _ in range(n):
            x, y, z = sample_point_in(spec, rng)
            counts[(x > 0) * 4 + (y > 0) * 2 + (z > 0)] += 1
        assert stats.chisquare(counts).pvalue > 0.01


class TestSampleRotation:
    def test_unit_norm(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            q = sample_rotation(rng)
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
            assert q[0] >= 0.0

    def test_determinism(self):
        a = sample_rotation(np.random.default_rng(6))
        b = sample_rotation(np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_rotated_axis_octant_uniformity(self):
        rng = np.random.default_rng(61)
        counts = np.zeros(8)
        z = np.array([0.0, 0.0, 1.0])
        for _ in range(10**5):
            x, y, w = quat_to_matrix(sample_rotation(rng)) @ z
            counts[(x > 0) * 4 + (y > 0) * 2 + (w > 0)] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_matrix_matches_scipy(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            q = sample_rotation(rng)
            ours = quat_to_matrix(q)
            theirs = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
            np.testing.assert_allclose(ours, theirs, atol=1e-12)


class TestPose:
    def test_identity(self):
        p = identity_pose()
        v = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(p.apply(v), v)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 0.0, 0.1, 0.0]), np.zeros(3))

    def test_canonical_sign(self):
        q = -sample_rotation(np.random.default_rng(8))
        pose = Pose(q, np.zeros(3))
        assert pose.rotation[0] >= 0.0

    def test_apply_inverse_roundtrip(self):
        rng = np.random.default_rng(81)
        pose = Pose(sample_rotation(rng), rng.uniform(-1, 1, 3))
        points = rng.uniform(-1, 1, (50, 3))
        np.testing.assert_allclose(pose.apply_inverse(pose.apply(points)), points, atol=1e-12)

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(91)
        a = Pose(sample_rotation(rng), rng.uniform(-1, 1, 3))
        b = Pose(sample_rotation(rng), rng.uniform(-1, 1, 3))
        point = rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(
            compose(a, b).apply(point), a.apply(b.apply(point)), atol=1e-12
        )


class TestPrimitiveSpecValidation:
    def test_wrong_dim_names_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveSpec(PrimitiveKind.SPHERE, {"radius": 0.04})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveSpec(PrimitiveKind.SPHERE, {"diameter": 0.0})

    def test_ring_wall_vs_outer_radius(self):
        with pytest.raises(ValueError):
            PrimitiveSpec(
                PrimitiveKind.RING,
                {"outer_diameter": 0.06, "wall_thickness": 0.03, "height": 0.02},
            )
