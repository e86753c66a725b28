"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from toygrasp import _nn
from toygrasp.analysis import (
    analytic_min_width,
    directional_width,
    min_caliper_width,
    print_feasibility,
)
from toygrasp.assembler import (
    GenerationConfig,
    assemble_toy,
    connectivity_check,
    derive_seed,
    generate_set,
)
from toygrasp.checks import (
    GRADIENT_CHECK_CONFIG,
    check_background_invariance,
    check_gradients,
    check_pooling_contrast,
    default_check_mask,
    flags_to_pixel_region,
)
from toygrasp.detpool import EncoderConfig, PoolingMode, encode_grad, init_encoder, mask_to_flags
from toygrasp.evalharness import SIM_AXIS_VALUES, Protocol, aggregate, make_schedule
from toygrasp.io import build_manifest, manifest_json_bytes, stl_bytes
from toygrasp.mesh import Tessellation, mesh_primitive, mesh_toy, mesh_volume, is_watertight
from toygrasp.policy import (
    OptimizerConfig,
    PolicyConfig,
    StepObservation,
    bc_l1_loss,
    init_policy,
    policy_forward,
    policy_grad,
    train_step,
)
from toygrasp.primitives import (
    KIND_ORDER,
    DimensionRanges,
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    PrimitiveSpec,
    quat_to_matrix,
    sample_primitive,
    sample_rotation,
)


def report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


def test_01_composition_reproduction():
    start = time.perf_counter()
    toys = generate_set(GenerationConfig())
    elapsed = time.perf_counter() - start

    assert len(toys) == 250
    singles = [t for t in toys if len(t.parts) == 1]
    by_kind = {
        kind: sum(1 for t in singles if t.parts[0].spec.kind is kind)
        for kind in KIND_ORDER
    }
    assert by_kind[PrimitiveKind.CUBOID] == 46
    assert by_kind[PrimitiveKind.SPHERE] == 18
    assert by_kind[PrimitiveKind.CYLINDER] == 20
    assert by_kind[PrimitiveKind.RING] == 19
    sizes = {n: sum(1 for t in toys if len(t.parts) == n) for n in (2, 3, 4, 5)}
    assert sizes == {2: 27, 3: 35, 4: 38, 5: 47}
    assert elapsed < 60.0
    report(1, f"250 toys with category counts 46/18/20/19 + 27/35/38/47 in {elapsed:.2f}s")


def test_02_range_conformance():
    ranges = DimensionRanges.default()
    rng = np.random.default_rng(12345)
    violations = 0
    for kind in KIND_ORDER:
        for _ in range(10**4):
            if not sample_primitive(kind, ranges, rng).within_ranges(ranges):
                violations += 1
    assert violations == 0
    report(2, "4 x 10^4 sampled primitives inside the configured ranges, 0 violations")


def test_03_connectivity():
    config = GenerationConfig()
    failures = 0
    for i in range(10**4):
        seed = derive_seed(987654321, i)
        toy = assemble_toy(
            i % 5 + 1, config, np.random.default_rng(seed), seed=seed
        )
        if not connectivity_check(toy):
            failures += 1
    assert failures == 0
    report(3, "10^4 generated toys pass connectivity_check (100%)")


def test_04_determinism():
    def run():
        config = GenerationConfig(master_seed=7)
        toys = generate_set(config)
        manifest = manifest_json_bytes(
            build_manifest(toys, config, Tessellation())
        )
        stl_digests = [
            hashlib.sha256(stl_bytes(mesh_toy(toy))).hexdigest() for toy in toys
        ]
        return hashlib.sha256(manifest).hexdigest(), stl_digests

    manifest_a, stls_a = run()
    manifest_b, stls_b = run()
    assert manifest_a == manifest_b
    assert stls_a == stls_b
    report(4, f"two master-seed-7 runs: manifest digest {manifest_a[:12]}.. and all 250 STL digests identical")


def test_05_mesh_correctness():
    rng = np.random.default_rng(55)
    ranges = DimensionRanges.default()
    tess = Tessellation()  # defaults: subdivisions=3, segments=64
    worst = 0.0
    for kind in KIND_ORDER:
        for _ in range(30):
            spec = sample_primitive(kind, ranges, rng)
            mesh = mesh_primitive(spec, tess)
            assert is_watertight(mesh)
            volume = mesh_volume(mesh)
            d = spec.dims
            if kind is PrimitiveKind.CUBOID:
                expected = d["width"] * d["length"] * d["height"]
                assert volume == pytest.approx(expected, rel=1e-12)
            else:
                if kind is PrimitiveKind.SPHERE:
                    expected = 4.0 / 3.0 * math.pi * (d["diameter"] / 2) ** 3
                elif kind is PrimitiveKind.CYLINDER:
                    expected = math.pi * (d["diameter"] / 2) ** 2 * d["height"]
                else:
                    r_o = d["outer_diameter"] / 2
                    r_i = r_o - d["wall_thickness"]
                    expected = math.pi * (r_o**2 - r_i**2) * d["height"]
                error = abs(volume - expected) / expected
                worst = max(worst, error)
                assert error < 0.02
    report(5, f"120 primitive meshes watertight; volumes exact (cuboid) / within 2% (worst {worst:.4%})")


def test_06_caliper_oracle():
    rng = np.random.default_rng(66)
    worst_delta = 0.0
    for _ in range(100):
        toy = assemble_toy(int(rng.integers(1, 6)), GenerationConfig(), rng)
        mesh = mesh_toy(toy, Tessellation(sphere_subdivisions=1, radial_segments=16))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        fast = directional_width(mesh, direction)
        lo, hi = math.inf, -math.inf
        for vx, vy, vz in mesh.vertices:
            p = vx * direction[0] + vy * direction[1] + vz * direction[2]
            lo, hi = min(lo, p), max(hi, p)
        worst_delta = max(worst_delta, abs(fast - (hi - lo)))
        assert worst_delta <= 1e-12

    worst_rel = 0.0
    for kind in KIND_ORDER:
        for _ in range(8):
            spec = sample_primitive(kind, DimensionRanges.default(), rng)
            base = mesh_primitive(spec)
            rotated = base.vertices @ quat_to_matrix(sample_rotation(rng)).T
            from toygrasp.mesh import TriMesh

            width, _ = min_caliper_width(TriMesh(rotated, base.triangles))
            expected = analytic_min_width(spec)
            rel = abs(width - expected) / expected
            worst_rel = max(worst_rel, rel)
            assert rel < 0.01
    report(6, f"directional widths match brute force within {worst_delta:.1e}; min calipers within {worst_rel:.3%} of analytic")


def test_07_detpool_background_invariance():
    state = init_encoder(EncoderConfig(), seed=0)  # 32x32, d_e=64, 2 layers
    mask = default_check_mask(state.config, 0)
    invariance = check_background_invariance(state, mask, n_perturbations=100, tol=1e-12)
    contrast = check_pooling_contrast(state, mask, n_perturbations=100, threshold=1e-6)
    assert invariance.passed, invariance.detail
    assert contrast.passed, contrast.detail
    report(7, f"Det: {invariance.detail}; Mean: {contrast.detail}")


def test_08_gradient_exactness():
    encoder_result = check_gradients(max_entries_per_tensor=None)
    assert encoder_result.passed, encoder_result.detail

    # Policy: full sweep of <upstream, forward> gradients at the tiny config.
    config = PolicyConfig.tiny()
    state = init_policy(config, 88)
    rng = np.random.default_rng(89)
    history = [
        StepObservation(
            rng.normal(size=(config.cameras, config.embed_dim)),
            rng.normal(size=config.proprio_dim),
        )
        for _ in range(config.history_len)
    ]
    upstream = rng.normal(size=(config.chunk_len, config.action_dim))
    grads = policy_grad(history, state, upstream)

    def loss():
        return float((upstream * policy_forward(history, state)).sum())

    checked, worst, failures, _ = _nn.finite_difference_check(loss, state.params, grads)
    assert not failures, failures[:3]

    # Det-mode background-pixel gradients are exactly zero.
    det_config = GRADIENT_CHECK_CONFIG
    det_state = init_encoder(det_config, 90)
    mask = default_check_mask(det_config, 91)
    flags = mask_to_flags(mask, det_config)
    image = np.random.default_rng(92).uniform(0, 1, (16, 16, 3))
    _, image_grad = encode_grad(
        image, det_state, PoolingMode.DET, flags,
        np.random.default_rng(93).normal(size=det_config.embed_dim),
    )
    background = ~flags_to_pixel_region(flags, det_config)
    assert (image_grad[background] == 0.0).all()
    report(
        8,
        f"encoder: {encoder_result.detail}; policy: {checked} entries, worst at "
        f"{worst:.3f} of tolerance; Det background-pixel gradients exactly 0",
    )


def test_09_loss_and_training():
    rng = np.random.default_rng(99)
    for _ in range(50):
        pred = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 4))
        slow = sum(
            abs(pred[i, j] - target[i, j]) for i in range(6) for j in range(4)
        ) / 24.0
        assert abs(bc_l1_loss(pred, target) - slow) <= 1e-12

    config = PolicyConfig.tiny()
    matrix = np.random.default_rng(3).normal(
        size=(config.proprio_dim, config.chunk_len * config.action_dim)
    ) * 0.5
    drng = np.random.default_rng(4)
    data = []
    for _ in range(16):
        history = [
            StepObservation(
                drng.normal(size=(config.cameras, config.embed_dim)),
                drng.uniform(-1, 1, config.proprio_dim),
            )
            for _ in range(config.history_len)
        ]
        target = (history[-1].proprio @ matrix).reshape(
            config.chunk_len, config.action_dim
        )
        data.append((history, target))

    state = init_policy(config, 0)
    opt = OptimizerConfig(learning_rate=1e-3)
    start = time.perf_counter()
    _, initial = train_step(data, state, opt)
    final = initial
    for _ in range(499):
        _, final = train_step(data, state, opt)
    elapsed = time.perf_counter() - start
    assert final < 0.10 * initial
    assert elapsed < 300.0
    report(9, f"L1 matches scalar loop; loss {initial:.4f} -> {final:.4f} ({final/initial:.1%}) in 500 steps, {elapsed:.1f}s")


def test_10_evaluation_arithmetic():
    schedule = make_schedule(Protocol.SIM_MANISKILL, ["obj"], seed=1)
    placements = [(t.x, t.y) for t in schedule.trials]
    assert placements == [(x, y) for x in SIM_AXIS_VALUES for y in SIM_AXIS_VALUES]

    def from_rates(rates):
        return {
            f"o{i}": [1] * (r // 20) + [0] * (5 - r // 20) for i, r in enumerate(rates)
        }

    oft = aggregate(from_rates([0, 0, 40, 20, 20, 0, 40, 60, 0, 0, 60, 0, 0]))
    ours = aggregate(from_rates([60, 40, 60, 40, 60, 60, 60, 60, 60, 20, 60, 60, 20]))
    assert oft.overall_display == "18.46"
    assert ours.overall_display == "50.77"
    report(10, "placement grid exact; 13-object averages reproduce 18.46 and 50.77")


def test_11_print_feasibility():
    from toygrasp.assembler import Color, ToySpec

    spec = PrimitiveSpec(
        PrimitiveKind.CUBOID, {"width": 0.30, "length": 0.10, "height": 0.10}
    )
    toy = ToySpec("toy_big", 0, (PlacedPrimitive(spec, Pose.identity()),), Color.BLUE)
    result = print_feasibility(toy, mesh_toy(toy), build_edge=0.256)
    assert not result.fits_build_volume
    assert result.suggested_scale == pytest.approx(0.256 / 0.30, abs=1e-4)
    report(11, f"0.30 m toy flagged oversize, suggested_scale {result.suggested_scale:.4f} (0.8533 +/- 1e-4)")
