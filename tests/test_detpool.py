import numpy as np
import pytest

from toygrasp import _nn
from toygrasp.checks import (
    check_background_invariance,
    check_gradients,
    check_pooling_contrast,
    check_single_token_oracle,
    default_check_mask,
    flags_to_pixel_region,
    run_detpool_checks,
)
from toygrasp.detpool import (
    EncoderConfig,
    PoolingMode,
    attention_weights,
    build_attention_mask,
    encode,
    encode_grad,
    init_encoder,
    load_encoder_state,
    mask_to_flags,
    save_encoder_state,
)
from toygrasp.errors import (
    DimensionMismatch,
    EmptyObject,
    NonFiniteActivation,
)

TINY = EncoderConfig(
    image_height=16, image_width=16, patch_size=4, embed_dim=32, layers=2, heads=4,
    mlp_ratio=2.0,
)


def tiny_state(seed=0, **overrides):
    config = EncoderConfig(**{**TINY.to_dict(), **overrides})
    return init_encoder(config, seed)


def random_image(config, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, scale, (config.image_height, config.image_width, 3))


def mixed_flags(config, seed=0, n_true=5):
    rng = np.random.default_rng(seed)
    flags = np.zeros(config.n_patches, dtype=bool)
    flags[rng.choice(config.n_patches, n_true, replace=False)] = True
    return flags


class TestMaskToFlags:
    def test_all_false(self):
        config = TINY
        mask = np.zeros((16, 16), dtype=bool)
        assert not mask_to_flags(mask, config).any()

    def test_single_pixel_flags_one_patch(self):
        config = TINY
        mask = np.zeros((16, 16), dtype=bool)
        mask[0, 0] = True
        flags = mask_to_flags(mask, config)
        assert flags[0]
        assert flags.sum() == 1

    def test_matches_per_block_or_oracle(self):
        config = EncoderConfig()
        rng = np.random.default_rng(9)
        mask = rng.uniform(size=(32, 32)) < 0.1
        flags = mask_to_flags(mask, config)
        p = config.patch_size
        for r in range(config.n_rows):
            for c in range(config.n_cols):
                block = mask[r * p : (r + 1) * p, c * p : (c + 1) * p]
                assert flags[r * config.n_cols + c] == bool(block.any())

    def test_coverage_threshold(self):
        config = TINY
        mask = np.zeros((16, 16), dtype=bool)
        mask[0:2, 0:4] = True  # patch 0 coverage = 8/16
        assert mask_to_flags(mask, config, min_coverage=0.4)[0]
        assert not mask_to_flags(mask, config, min_coverage=0.6)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mask_to_flags(np.zeros((8, 8), dtype=bool), TINY)


class TestBuildAttentionMask:
    def test_all_true_allows_everything(self):
        allowed = build_attention_mask(np.ones(8, dtype=bool), include_cls=False)
        assert allowed.all()

    def test_single_object_token_attends_itself_only(self):
        flags = np.zeros(8, dtype=bool)
        flags[3] = True
        allowed = build_attention_mask(flags, include_cls=False)
        assert allowed[3, 3]
        assert allowed[3].sum() == 1
        assert allowed[:, 3].sum() == 1

    def test_mixed_equals_outer_equality(self):
        rng = np.random.default_rng(5)
        flags = rng.uniform(size=16) < 0.5
        flags[0] = True  # keep nonempty
        allowed = build_attention_mask(flags, include_cls=False)
        expected = np.equal.outer(flags, flags)
        np.testing.assert_array_equal(allowed, expected)

    def test_cls_is_non_object(self):
        flags = np.array([True, False, True])
        allowed = build_attention_mask(flags, include_cls=True)
        assert allowed.shape == (4, 4)
        assert allowed[0, 2] and allowed[2, 0]  # cls with non-object patch
        assert not allowed[0, 1] and not allowed[1, 0]  # cls never with object

    def test_empty_object_raises(self):
        with pytest.raises(EmptyObject):
            build_attention_mask(np.zeros(4, dtype=bool), include_cls=False)


class TestEncode:
    def test_det_with_all_flags_equals_mean_bitwise(self):
        state = tiny_state()
        image = random_image(state.config, 1)
        flags = np.ones(state.config.n_patches, dtype=bool)
        det = encode(image, state, PoolingMode.DET, flags)
        mean = encode(image, state, PoolingMode.MEAN)
        assert np.array_equal(det, mean)

    def test_single_token_oracle(self):
        result = check_single_token_oracle(tiny_state())
        assert result.passed, result.detail

    def test_background_invariance_well_below_tolerance(self):
        state = tiny_state()
        mask = default_check_mask(state.config, 3)
        result = check_background_invariance(state, mask, n_perturbations=50)
        assert result.passed, result.detail

    def test_background_invariance_is_exact(self):
        # The object stream never reads background values, so the outputs
        # are not merely close: they are identical.
        state = tiny_state()
        config = state.config
        flags = mixed_flags(config, 4)
        pixel_region = flags_to_pixel_region(flags, config)
        image = random_image(config, 5)
        reference = encode(image, state, PoolingMode.DET, flags)
        rng = np.random.default_rng(6)
        for _ in range(10):
            perturbed = image.copy()
            perturbed[~pixel_region] = rng.uniform(-100, 100, ((~pixel_region).sum(), 3))
            out = encode(perturbed, state, PoolingMode.DET, flags)
            assert np.array_equal(out, reference)

    def test_mean_mode_leaks_background(self):
        state = tiny_state()
        mask = default_check_mask(state.config, 3)
        result = check_pooling_contrast(state, mask, n_perturbations=20)
        assert result.passed, result.detail

    def test_debug_disable_mask_breaks_invariance(self):
        state = tiny_state(debug_disable_attention_mask=True)
        mask = default_check_mask(state.config, 3)
        result = check_background_invariance(state, mask, n_perturbations=20)
        assert not result.passed

    def test_position_sensitivity(self):
        # Same object content one patch to the right changes the embedding.
        config = TINY
        p = config.patch_size
        changed = 0
        for trial in range(100):
            state = init_encoder(config, seed=trial)
            image = random_image(config, seed=1000 + trial)
            flags = np.zeros((config.n_rows, config.n_cols), dtype=bool)
            flags[1:3, 0:2] = True
            shifted_flags = np.roll(flags, 1, axis=1)
            shifted_image = np.roll(image, p, axis=1)
            a = encode(image, state, PoolingMode.DET, flags.reshape(-1))
            b = encode(shifted_image, state, PoolingMode.DET, shifted_flags.reshape(-1))
            if np.abs(a - b).max() > 1e-9:
                changed += 1
        assert changed >= 95

    def test_attention_rows_sum_to_one_and_disallowed_exactly_zero(self):
        state = tiny_state()
        config = state.config
        flags = mixed_flags(config, 7)
        image = random_image(config, 8)
        allowed = build_attention_mask(flags, include_cls=False)
        for layer_attn in attention_weights(image, state, PoolingMode.DET, flags):
            sums = layer_attn.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert (layer_attn[:, ~allowed] == 0.0).all()

    def test_cls_mode(self):
        state = tiny_state(include_cls=True)
        image = random_image(state.config, 9)
        out = encode(image, state, PoolingMode.CLS)
        assert out.shape == (state.config.embed_dim,)
        assert np.isfinite(out).all()

    def test_cls_requires_config(self):
        state = tiny_state()
        with pytest.raises(ValueError):
            encode(random_image(state.config), state, PoolingMode.CLS)

    def test_attention_mode(self):
        state = tiny_state()
        out = encode(random_image(state.config, 10), state, PoolingMode.ATTENTION)
        assert out.shape == (state.config.embed_dim,)

    def test_det_requires_nonempty_flags(self):
        state = tiny_state()
        with pytest.raises(EmptyObject):
            encode(
                random_image(state.config),
                state,
                PoolingMode.DET,
                np.zeros(state.config.n_patches, dtype=bool),
            )
        with pytest.raises(EmptyObject):
            encode(random_image(state.config), state, PoolingMode.DET, None)

    def test_non_finite_image_rejected(self):
        state = tiny_state()
        image = random_image(state.config)
        image[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteActivation):
            encode(image, state, PoolingMode.MEAN)

    def test_det_cls_combination(self):
        # CLS present but classed non-object: output must stay invariant.
        state = tiny_state(include_cls=True)
        config = state.config
        flags = mixed_flags(config, 11)
        region = flags_to_pixel_region(flags, config)
        image = random_image(config, 12)
        reference = encode(image, state, PoolingMode.DET, flags)
        perturbed = image.copy()
        perturbed[~region] += 3.0
        assert np.array_equal(
            encode(perturbed, state, PoolingMode.DET, flags), reference
        )


class TestEncodeGrad:
    @pytest.mark.parametrize("mode", list(PoolingMode))
    def test_finite_difference_spot_check(self, mode):
        config = TINY if mode is not PoolingMode.CLS else EncoderConfig(
            **{**TINY.to_dict(), "include_cls": True}
        )
        state = init_encoder(config, 20)
        rng = np.random.default_rng(21)
        image = random_image(config, 22)
        flags = mixed_flags(config, 23) if mode is PoolingMode.DET else None
        upstream = rng.normal(size=config.embed_dim)
        grads, image_grad = encode_grad(image, state, mode, flags, upstream)
        arrays = dict(state.params)
        arrays["image"] = image
        analytic = dict(grads)
        analytic["image"] = image_grad

        def loss():
            return float(upstream @ encode(image, state, mode, flags))

        checked, worst, failures, _ = _nn.finite_difference_check(
            loss, arrays, analytic, max_entries_per_tensor=5, rng=rng
        )
        assert not failures, failures[:3]
        assert checked > 100

    def test_zero_upstream_gives_zero_grads(self):
        state = tiny_state()
        flags = mixed_flags(state.config, 24)
        grads, image_grad = encode_grad(
            random_image(state.config, 25),
            state,
            PoolingMode.DET,
            flags,
            np.zeros(state.config.embed_dim),
        )
        assert (image_grad == 0.0).all()
        for value in grads.values():
            assert (value == 0.0).all()

    def test_det_background_pixel_grads_exactly_zero(self):
        state = tiny_state()
        config = state.config
        flags = mixed_flags(config, 26)
        rng = np.random.default_rng(27)
        _, image_grad = encode_grad(
            random_image(config, 28),
            state,
            PoolingMode.DET,
            flags,
            rng.normal(size=config.embed_dim),
        )
        background = ~flags_to_pixel_region(flags, config)
        assert (image_grad[background] == 0.0).all()
        assert np.abs(image_grad[~background]).max() > 0.0

    def test_grad_shapes_mirror_params(self):
        state = tiny_state()
        grads, image_grad = encode_grad(
            random_image(state.config, 29),
            state,
            PoolingMode.MEAN,
            None,
            np.ones(state.config.embed_dim),
        )
        assert set(grads) == set(state.params)
        for name, value in grads.items():
            assert value.shape == state.params[name].shape
        assert image_grad.shape == (16, 16, 3)


class TestStateSerialization:
    def test_roundtrip_preserves_encoding(self, tmp_path):
        state = tiny_state(seed=30)
        image = random_image(state.config, 31)
        before = encode(image, state, PoolingMode.MEAN)
        path = tmp_path / "encoder.bin"
        save_encoder_state(state, path)
        loaded = load_encoder_state(path)
        assert loaded.config == state.config
        assert loaded.seed == state.seed
        after = encode(image, loaded, PoolingMode.MEAN)
        assert np.array_equal(before, after)


class TestCheckSuites:
    def test_all_pass_at_default_config(self):
        results = run_detpool_checks(TINY, seed=0, fd_entries_per_tensor=4)
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"
        assert [r.name for r in results] == [
            "background-invariance",
            "single-token-oracle",
            "gradient-exactness",
            "pooling-contrast",
        ]

    def test_gradient_check_passes_sampled(self):
        result = check_gradients(max_entries_per_tensor=3, seed=33)
        assert result.passed, result.detail


class TestEncoderConfigValidation:
    def test_patch_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(image_height=30, image_width=32, patch_size=4)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=30, heads=4)

    def test_sincos_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=6, heads=2)
