import hashlib
import re
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REORDER_C,
    U,
    attention_weights,
    record_forward_keeps,
    record_sublayer_rows,
)
from toygrasp import _nn, checks, detpool
from toygrasp.checks import (
    GRADIENT_CHECK_CONFIG,
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
    _backward,
    _embed,
    _forward,
    _pool,
    build_attention_mask,
    encode,
    encode_grad,
    init_encoder,
    mask_to_flags,
)
from toygrasp.errors import InvalidInput

TINY = EncoderConfig(
    image_height=16, image_width=16, patch_size=4, embed_dim=32, layers=2, heads=4,
    mlp_ratio=2.0,
)


def tiny_state(seed=0, **overrides):
    config = replace(TINY, **overrides)
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

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput, match="mask shape .* does not match image"):
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
        with pytest.raises(InvalidInput, match="no object patch is flagged"):
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
        result = check_background_invariance(state, mask)
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
        result = check_pooling_contrast(state, mask)
        assert result.passed, result.detail

    def test_debug_disable_mask_breaks_invariance(self, monkeypatch):
        # Negative control: with full attention in place of the flag mask,
        # the check must see background leak into Det pooling.
        monkeypatch.setattr(detpool, "build_attention_mask", lambda flags, include_cls: None)
        state = tiny_state()
        mask = default_check_mask(state.config, 3)
        result = check_background_invariance(state, mask)
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
        with pytest.raises(InvalidInput, match="Det pooling with no object patches"):
            encode(
                random_image(state.config),
                state,
                PoolingMode.DET,
                np.zeros(state.config.n_patches, dtype=bool),
            )
        with pytest.raises(InvalidInput, match="Det pooling requires patch flags"):
            encode(random_image(state.config), state, PoolingMode.DET, None)

    def test_non_finite_image_rejected(self):
        state = tiny_state()
        image = random_image(state.config)
        image[0, 0, 0] = np.nan
        with pytest.raises(InvalidInput, match="input image contains non-finite values"):
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
        config = TINY if mode is not PoolingMode.CLS else replace(TINY, include_cls=True)
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

    @pytest.mark.parametrize(
        "mode, include_cls",
        [(mode, False) for mode in PoolingMode if mode is not PoolingMode.CLS]
        + [(mode, True) for mode in PoolingMode],
    )
    def test_one_gradient_per_parameter_in_table_order(self, mode, include_cls):
        state = tiny_state(28, include_cls=include_cls)
        flags = mixed_flags(state.config, 29) if mode is PoolingMode.DET else None
        grads, _ = encode_grad(
            random_image(state.config, 30), state, mode, flags,
            np.random.default_rng(31).normal(size=state.config.embed_dim),
        )
        assert list(grads) == list(state.params)
        for name, value in state.params.items():
            assert grads[name].shape == value.shape and grads[name].dtype == np.float64
        # No gradient reaches Det's CLS token, or the pooling query outside
        # attention pooling: those entries are exact positive zeros.
        unreached = [name for name, reached in (
            ("cls_token", include_cls and mode is not PoolingMode.DET),
            ("pool_query", mode is PoolingMode.ATTENTION),
        ) if name in grads and not reached]
        for name in unreached:
            assert (grads[name] == 0.0).all() and not np.signbit(grads[name]).any()
        assert all((grads[name] != 0.0).any() for name in grads if name not in unreached)

    def test_added_gradients_sum_into_zeros_bit_for_bit(self, monkeypatch):
        # The gradients `_backward` adds into have always been sums into
        # zeros, so a -0.0 term reads +0.0 there, while the entries that
        # `transformer_bwd` sets keep their bits. BLAS products never give
        # -0.0 here, so every `linear_bwd` is made to return one.
        original = _nn.linear_bwd

        def signed_zeros(dy, cache):
            dx, dw, db = original(dy, cache)
            dw.flat[0] = db[0] = -0.0
            return dx, dw, db

        monkeypatch.setattr(_nn, "linear_bwd", signed_zeros)
        state = tiny_state(32)
        grads, _ = encode_grad(
            random_image(state.config, 33), state, PoolingMode.MEAN, None,
            np.random.default_rng(34).normal(size=state.config.embed_dim),
        )
        first = {name: grads[name].flat[0] for name in grads}
        assert first["patch_embed.weight"] == 0.0 and not np.signbit(first["patch_embed.weight"])
        assert first["patch_embed.bias"] == 0.0 and not np.signbit(first["patch_embed.bias"])
        assert first["blocks.0.mlp.w1"] == 0.0 and np.signbit(first["blocks.0.mlp.w1"])

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

    def test_det_cls_token_grad_exactly_zero(self):
        state = tiny_state(seed=40, include_cls=True)
        config = state.config
        rng = np.random.default_rng(41)
        grads, _ = encode_grad(
            random_image(config, 42),
            state,
            PoolingMode.DET,
            mixed_flags(config, 43),
            rng.normal(size=config.embed_dim),
        )
        assert (grads["cls_token"] == 0.0).all()
        assert np.abs(grads["patch_embed.weight"]).max() > 0.0

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


@cache
def _det_state(size, include_cls):
    config = TINY if size == "tiny" else EncoderConfig()
    return init_encoder(replace(config, include_cls=include_cls), seed=50)


class TestCompactDet:
    """Det mode runs the blocks on the flagged tokens alone; it must agree
    with the masked full-sequence pass it replaces."""

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.sampled_from(["tiny", "default"]),
        include_cls=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_masked_reference(self, size, include_cls, seed, data):
        state = _det_state(size, include_cls)
        config = state.config
        flags = np.array(
            data.draw(
                st.lists(
                    st.booleans(), min_size=config.n_patches, max_size=config.n_patches
                ).filter(any),
                label="flags",
            )
        )
        rng = np.random.default_rng(seed)
        image = random_image(config, seed)
        upstream = rng.normal(size=config.embed_dim)

        compact = encode(image, state, PoolingMode.DET, flags)
        reference, ref_cache = _forward(
            image, state, PoolingMode.DET, flags, masked_reference=True, keep=True
        )
        np.testing.assert_allclose(compact, reference, rtol=0, atol=1e-12)

        grads, image_grad = encode_grad(image, state, PoolingMode.DET, flags, upstream)
        ref_grads, ref_image_grad = _backward(ref_cache, state, upstream)
        np.testing.assert_allclose(image_grad, ref_image_grad, rtol=0, atol=1e-12)
        assert set(grads) == set(ref_grads)
        for name, value in grads.items():
            np.testing.assert_allclose(value, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)
        assert (image_grad[~flags_to_pixel_region(flags, config)] == 0.0).all()


def _old_default_mask(config, seed):
    """`default_check_mask` before it trimmed a rectangle that flags every patch."""
    rng = np.random.default_rng(seed)
    h, w = config.image_height, config.image_width
    top = int(rng.integers(0, max(1, h // 2)))
    left = int(rng.integers(0, max(1, w // 2)))
    mask = np.zeros((h, w), dtype=bool)
    mask[top : top + h // 4 + 1, left : left + w // 4 + 1] = True
    return mask


class TestDefaultCheckMask:
    @pytest.mark.parametrize(
        "height, width, patch",
        [(8, 8, 4), (16, 16, 8), (32, 32, 16), (4, 4, 2), (2, 2, 1), (8, 4, 4), (4, 8, 4),
         (12, 8, 4), (8, 8, 2), (2, 4, 2), (1, 2, 1), (6, 6, 3)],
    )
    def test_a_grid_of_two_patches_or_more_keeps_a_background_patch(self, height, width, patch):
        config = EncoderConfig(
            image_height=height, image_width=width, patch_size=patch, embed_dim=8, heads=1
        )
        for seed in range(20):
            flags = mask_to_flags(default_check_mask(config, seed), config)
            assert flags.any() and not flags.all(), seed

    def test_a_trimmed_rectangle_keeps_the_patch_of_its_corner(self):
        config = EncoderConfig(image_height=8, image_width=8, embed_dim=8, heads=1)
        trimmed = [
            s for s in range(20) if mask_to_flags(_old_default_mask(config, s), config).all()
        ]
        assert trimmed
        for seed in trimmed:
            old, new = _old_default_mask(config, seed), default_check_mask(config, seed)
            top, left = np.argwhere(old)[0]
            assert new[top, left] and (new <= old).all()
            assert mask_to_flags(new, config).sum() == 1

    def test_masks_that_left_background_are_unchanged(self):
        for config in (EncoderConfig(), TINY):
            for seed in range(10):
                old = _old_default_mask(config, seed)
                assert np.array_equal(default_check_mask(config, seed), old), seed

    def test_a_one_patch_encoder_has_no_background_to_perturb(self):
        config = EncoderConfig(image_height=4, image_width=4, embed_dim=8, heads=1)
        with pytest.raises(ValueError, match="1 patch, so no background patch"):
            run_detpool_checks(config)


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
            "det-compact-equivalence",
        ]

    def test_gradient_check_passes_sampled(self):
        result = check_gradients(max_entries_per_tensor=3, seed=33)
        assert result.passed, result.detail

    @staticmethod
    def _count_passes(monkeypatch):
        """The list that gains one entry per masked full-sequence pass."""
        calls = []
        masked_encode = checks._masked_encode

        def counted(*args, **kwargs):
            calls.append(1)
            return masked_encode(*args, **kwargs)

        monkeypatch.setattr(checks, "_masked_encode", counted)
        return calls

    def test_contrast_stops_at_its_first_witness(self, monkeypatch):
        # One redraw that reaches mean pooling decides the contrast check, so
        # it runs the reference and redraw 1; invariance must hold for every
        # redraw, so it runs the reference and all 100.
        state = init_encoder(EncoderConfig(), 0)
        mask = default_check_mask(state.config, 0)
        calls = self._count_passes(monkeypatch)
        contrast = check_pooling_contrast(state, mask)
        assert contrast.passed and len(calls) == 2, (contrast, len(calls))
        assert re.fullmatch(
            r"mean-pool \|delta\| = \d\.\d{3}e[+-]\d{2} at redraw 1 of 100 \(must exceed 1e-06\)",
            contrast.detail,
        ), contrast.detail
        calls.clear()
        invariance = check_background_invariance(state, mask)
        assert invariance.passed and len(calls) == 101, (invariance, len(calls))

    def test_contrast_without_a_witness_reads_every_redraw_and_fails(self, monkeypatch):
        # With every pixel counted as object, no redraw changes the image.
        state = init_encoder(EncoderConfig(), 0)
        mask = default_check_mask(state.config, 0)
        monkeypatch.setattr(
            checks,
            "flags_to_pixel_region",
            lambda flags, config: np.ones((config.image_height, config.image_width), bool),
        )
        calls = self._count_passes(monkeypatch)
        contrast = check_pooling_contrast(state, mask)
        assert len(calls) == 101
        assert not contrast.passed
        assert contrast.detail == (
            "max mean-pool |delta| = 0.000e+00 over 100 redraws (must exceed 1e-06)"
        )


class TestStagedGradientSweep:
    """`check_gradients` makes one `_nn.finite_difference_check` call per
    pooling mode; the benchmark's tracer wraps the zero-argument `loss_fn` it
    passes."""

    def test_two_loss_evaluations_per_entry(self, monkeypatch):
        finite_difference_check = _nn.finite_difference_check
        counts = {"calls": 0, "loss_evals": 0, "entries": 0}

        def counted(loss_fn, *args, batched_loss, **kwargs):
            def loss(name, stack):
                counts["loss_evals"] += len(stack)
                return batched_loss(name, stack)

            counts["calls"] += 1
            result = finite_difference_check(loss_fn, *args, batched_loss=loss, **kwargs)
            counts["entries"] += result[0]
            return result

        monkeypatch.setattr(_nn, "finite_difference_check", counted)
        result = check_gradients(max_entries_per_tensor=8, seed=3)
        assert result.passed, result.detail
        total = int(re.match(r"(\d+) entries checked", result.detail).group(1))
        assert counts["entries"] == total
        assert counts["loss_evals"] == 2 * total
        assert counts["calls"] == len(PoolingMode)


def _checked_entries(seed, batched=True):
    """Run the sampled `check_gradients` sweep at `seed` and record each
    entry it perturbs as (mode, tensor, flat index), once per perturbed copy.
    With `batched=False`, `_nn.finite_difference_check` is replaced by the
    serial sweep it batches: one entry at a time, perturbed in place, each
    loss the zero-argument one. Returns (result, entries)."""
    finite_difference_check = _nn.finite_difference_check
    entries = []
    current = {}

    def recording_encode_grad(image, state, mode, flags, upstream):
        current["mode"] = mode.value
        return encode_grad(image, state, mode, flags, upstream)

    def serial(loss_fn, arrays, analytic, max_entries_per_tensor, rng, batched_loss):
        checked, worst, failures, worst_entry = 0, 0.0, [], None
        for name, array in arrays.items():
            flat = array.reshape(-1)
            indices = range(flat.size)
            if flat.size > max_entries_per_tensor:
                indices = rng.choice(flat.size, size=max_entries_per_tensor, replace=False)
            for i in indices:
                original = flat[i]
                flat[i] = original + _nn.FD_STEP
                f_plus = loss_fn()
                flat[i] = original - _nn.FD_STEP
                f_minus = loss_fn()
                flat[i] = original
                entries.extend([(current["mode"], name, int(i))] * 2)
                g_fd = (f_plus - f_minus) / (2.0 * _nn.FD_STEP)
                g_an = float(analytic[name].reshape(-1)[i])
                tolerance = max(_nn.FD_REL_TOL * max(abs(g_fd), abs(g_an)), _nn.FD_ABS_FLOOR)
                ratio = abs(g_fd - g_an) / tolerance
                if worst_entry is None or ratio > worst:
                    worst, worst_entry = ratio, (name, int(i))
                if ratio > 1.0:
                    failures.append((name, int(i), g_an, g_fd))
                checked += 1
        return checked, worst, failures, worst_entry

    def recording(loss_fn, arrays, analytic, batched_loss, **kwargs):
        def loss(name, stack):
            for copy in stack:
                changed = np.flatnonzero(copy != arrays[name])
                entries.extend((current["mode"], name, int(i)) for i in changed)
            return batched_loss(name, stack)

        return finite_difference_check(loss_fn, arrays, analytic, batched_loss=loss, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "encode_grad", recording_encode_grad)
        patch.setattr(_nn, "finite_difference_check", recording if batched else serial)
        result = check_gradients(max_entries_per_tensor=8, seed=seed)
    return result, entries


class TestBatchedGradientSweep:
    """`check_gradients` evaluates all perturbed copies of one tensor in one
    batched pass per chunk, resumed at the tensor's first stage."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"layers": 1},
            {"layers": 2},
            {"layers": 3},
            {"include_cls": True},
        ],
        ids=["layers1", "layers2", "layers3", "cls"],
    )
    def test_batched_rows_equal_serial_loss(self, monkeypatch, overrides):
        # Each row of the batched loss runs the operations of the zero-argument
        # loss on that copy: a product with leading axes runs one product per
        # copy, reductions run along the last axis, and the rest is
        # elementwise, so no sum mixes copies and the B embeddings are the
        # serial ones. The one sum whose order the batch may change is the
        # final contraction with `upstream` (d terms: a matrix-vector product
        # in place of a dot product). Two evaluations of one d-term dot
        # product differ by at most 2 * gamma_d * sum|e_j * upstream_j| <=
        # REORDER_C * d * U * sum|e_j * upstream_j| (the reordered-sum bound,
        # derived in test_nn.py), with e the serial embedding.
        config = replace(GRADIENT_CHECK_CONFIG, **overrides)
        rng = np.random.default_rng(10 + config.layers)
        mode_inputs = {}
        seen = []

        def recording_encode_grad(image, state, mode, flags, upstream):
            mode_inputs.update(args=(image, state, mode, flags), upstream=upstream)
            return encode_grad(image, state, mode, flags, upstream)

        def compare_rows(loss_fn, arrays, analytic, batched_loss, **kwargs):
            upstream = mode_inputs["upstream"]
            for name, array in arrays.items():
                seen.append(name)
                copies = np.repeat(array[None], 4, axis=0)
                flat = copies.reshape(4, -1)
                flat[np.arange(4), rng.integers(flat.shape[1], size=4)] += [
                    _nn.FD_STEP, -_nn.FD_STEP, 1e-2, -1e-2,
                ]
                batched = batched_loss(name, copies)
                assert batched.shape == (4,)
                original = array.copy()
                for copy, got in zip(copies, batched):
                    array[...] = copy
                    serial = loss_fn()
                    embedding = encode(*mode_inputs["args"])
                    bound = REORDER_C * len(upstream) * U * (np.abs(embedding) @ np.abs(upstream))
                    assert abs(got - serial) <= bound, name
                array[...] = original
            return 0, 0.0, [], None

        monkeypatch.setattr(checks, "encode_grad", recording_encode_grad)
        monkeypatch.setattr(_nn, "finite_difference_check", compare_rows)
        monkeypatch.setattr(checks, "GRADIENT_CHECK_CONFIG", config)
        check_gradients()
        # Every tensor of every mode, the embedding step's and pool_query too.
        expected = []
        for mode in PoolingMode:
            mode_config = replace(config, include_cls=True) if mode is PoolingMode.CLS else config
            expected += [*init_encoder(mode_config).params, "image"]
        assert seen == expected

    @pytest.mark.parametrize("seed", [3, 33])
    def test_batched_and_serial_sweeps_check_the_same_entries(self, seed):
        batched_result, batched = _checked_entries(seed)
        serial_result, serial = _checked_entries(seed, batched=False)
        assert batched_result.passed and serial_result.passed
        assert batched == serial
        counts = re.match(r"(\d+ entries checked \([^)]*\))", batched_result.detail).group(1)
        assert serial_result.detail.startswith(counts)
        assert len(batched) == 2 * int(counts.split()[0])

    @pytest.mark.parametrize(
        "mode, name",
        [
            ("mean", "patch_embed.weight"),
            ("cls", "cls_token"),
            ("attention", "pool_query"),
            ("det", "blocks.1.mlp.w2"),
            ("mean", "image"),
        ],
    )
    def test_corrupted_analytic_entry_fails_by_name(self, monkeypatch, mode, name):
        # Negative control: an analytic gradient entry off by 1 must fail the
        # batched sweep, and the failure must name that entry alone.
        _, entries = _checked_entries(3)
        index = next(i for m, n, i in entries if (m, n) == (mode, name))

        def corrupted_encode_grad(image, state, mode_, flags, upstream):
            grads, image_grad = encode_grad(image, state, mode_, flags, upstream)
            if mode_.value == mode:
                target = image_grad if name == "image" else grads[name]
                target.reshape(-1)[index] += 1.0
            return grads, image_grad

        monkeypatch.setattr(checks, "encode_grad", corrupted_encode_grad)
        result = check_gradients(max_entries_per_tensor=8, seed=3)
        assert not result.passed
        assert result.detail == f"failures: ['{mode}:{name}[{index}]'] (1 total)"


def _encoder_outputs_digest(base):
    """SHA-256 over `encode` and `encode_grad` of every mode, and over the
    masked full-sequence Det pass and its gradients, with and without CLS."""
    digest = hashlib.sha256()
    for include_cls in (False, True):
        config = replace(base, include_cls=include_cls)
        state = init_encoder(config, 60)
        rng = np.random.default_rng(61)
        image = rng.uniform(0, 1, (config.image_height, config.image_width, 3))
        flags = np.zeros(config.n_patches, dtype=bool)
        flags[rng.choice(config.n_patches, config.n_patches // 3, replace=False)] = True
        upstream = rng.normal(size=config.embed_dim)
        for mode in PoolingMode:
            if mode is PoolingMode.CLS and not include_cls:
                continue
            mode_flags = flags if mode is PoolingMode.DET else None
            digest.update(encode(image, state, mode, mode_flags).tobytes())
            grads, image_grad = encode_grad(image, state, mode, mode_flags, upstream)
            for name in sorted(grads):
                digest.update(grads[name].tobytes())
            digest.update(image_grad.tobytes())
        embedding, cache = _forward(
            image, state, PoolingMode.DET, flags, masked_reference=True, keep=True
        )
        digest.update(embedding.tobytes())
        grads, image_grad = _backward(cache, state, upstream)
        for name in sorted(grads):
            digest.update(grads[name].tobytes())
        digest.update(image_grad.tobytes())
    return digest.hexdigest()


class TestLeadingBatchAxis:
    """`_patchify`, `_embed` and `_pool` accept leading batch axes; the
    unbatched path they share with `encode` must not change."""

    @pytest.mark.parametrize(
        "size, expected",
        [
            ("tiny", "8a58b254c7b97ad628cd5e38033e1a1bee81a1052f283968d40a040c5682664a"),
            ("default", "49d9e7659fffd3aca1c93a0e732bcbce399a7317df038895bec256eca348f344"),
        ],
    )
    def test_unbatched_outputs_are_bitwise_unchanged(self, size, expected):
        # The digests were taken before the steps accepted leading axes.
        assert _encoder_outputs_digest(TINY if size == "tiny" else EncoderConfig()) == expected

    @pytest.mark.parametrize("masked_reference", [False, True], ids=["compact", "masked"])
    @pytest.mark.parametrize("mode", list(PoolingMode))
    def test_image_stack_rows_equal_single_encodes(self, mode, masked_reference):
        # Each row runs the single-copy operations (see
        # TestBatchedGradientSweep.test_batched_rows_equal_serial_loss), so
        # each embedding row is the single-copy `encode`'s, and each loss row
        # is within the reordered-sum bound of the d-term final contraction.
        state = tiny_state(61, include_cls=mode is PoolingMode.CLS)
        config = state.config
        rng = np.random.default_rng(62)
        images = rng.uniform(0, 1, (5, config.image_height, config.image_width, 3))
        flags = mixed_flags(config, 63) if mode is PoolingMode.DET else None
        upstream = rng.normal(size=config.embed_dim)

        tokens, allowed, rows, _ = _embed(images, state, mode, flags, masked_reference)
        hidden, _ = _nn.transformer_fwd(tokens, state.params, config.layers, config.heads, allowed)
        embeddings = _pool(hidden, state, mode, rows)[0]
        assert embeddings.shape == (5, config.embed_dim)
        losses = embeddings @ upstream
        for image, row, loss in zip(images, embeddings, losses):
            single = _forward(image, state, mode, flags, masked_reference, keep=True)[0]
            assert np.array_equal(row, single)
            bound = REORDER_C * config.embed_dim * U * (np.abs(single) @ np.abs(upstream))
            assert abs(loss - upstream @ single) <= bound


class TestForwardOnly:
    """`encode` and the checks' masked passes run `_forward` with
    `keep=False`, building no backward cache; their embeddings must be the
    `keep=True` pass's bit for bit, and no path outside the gradients may
    keep a cache."""

    @pytest.mark.parametrize("masked_reference", [False, True], ids=["compact", "masked"])
    @pytest.mark.parametrize(
        "mode, include_cls",
        [(mode, False) for mode in PoolingMode if mode is not PoolingMode.CLS]
        + [(mode, True) for mode in PoolingMode],
        ids=lambda v: v.value if isinstance(v, PoolingMode) else ("cls" if v else "no-cls"),
    )
    def test_equals_cached_embedding_bitwise(self, mode, include_cls, masked_reference):
        state = tiny_state(64, include_cls=include_cls)
        image = random_image(state.config, 65)
        flags = mixed_flags(state.config, 66) if mode is PoolingMode.DET else None
        cached = _forward(image, state, mode, flags, masked_reference, keep=True)[0]
        embedding, cache = _forward(image, state, mode, flags, masked_reference, keep=False)
        assert np.array_equal(embedding, cached) and cache is None
        if masked_reference:
            assert np.array_equal(checks._masked_encode(image, state, mode, flags), cached)
        else:
            assert np.array_equal(encode(image, state, mode, flags), cached)

    def test_no_path_but_the_gradients_runs_the_cached_pass(self, monkeypatch):
        keeps = record_forward_keeps(monkeypatch)
        state = tiny_state(67)
        mask = default_check_mask(state.config, 67)
        flags = mask_to_flags(mask, state.config)
        image = random_image(state.config, 68)
        for mode in (PoolingMode.MEAN, PoolingMode.ATTENTION, PoolingMode.DET):
            encode(image, state, mode, flags if mode is PoolingMode.DET else None)
        results = [
            check_background_invariance(state, mask),
            check_single_token_oracle(state),
            check_pooling_contrast(state, mask),
            checks.check_det_compact_equivalence(state),
        ]
        assert all(r.passed for r in results), results
        assert keeps and not any(keeps), keeps


class TestReadRows:
    """Every pass without a backward cache computes, in its last block, only
    the rows its pooling reads (see `_nn.transformer_fwd`)."""

    def test_the_last_mlp_sees_the_object_rows_alone(self, monkeypatch):
        state = init_encoder(EncoderConfig(), 0)
        mask = default_check_mask(state.config, 0)
        assert int(mask_to_flags(mask, state.config).sum()) == 9
        rows = {"blocks.0.mlp.": [], "blocks.1.mlp.": []}
        mlp_fwd = _nn.mlp_fwd

        def counted(x, params, prefix, keep=True):
            rows[prefix].append(x.shape[-2])
            return mlp_fwd(x, params, prefix, keep=keep)

        monkeypatch.setattr(_nn, "mlp_fwd", counted)
        assert check_background_invariance(state, mask).passed
        assert rows == {"blocks.0.mlp.": [64] * 101, "blocks.1.mlp.": [9] * 101}

    def test_dropping_the_mask_in_the_last_attention_breaks_invariance(self, monkeypatch):
        # Negative control for the pruned last block: its read rows still
        # attend every row's keys and values, so with the flag mask dropped
        # there alone, background must leak into Det pooling.
        state = init_encoder(EncoderConfig(), 0)
        mask = default_check_mask(state.config, 0)
        last = 2 * state.config.layers - 2
        sublayer_fwd = _nn.sublayer_fwd

        def unmasked_last(s, x, params, heads, allowed, keep=True, rows=None):
            allowed = None if s == last else allowed
            return sublayer_fwd(s, x, params, heads, allowed, keep=keep, rows=rows)

        monkeypatch.setattr(_nn, "sublayer_fwd", unmasked_last)
        result = check_background_invariance(state, mask)
        assert not result.passed, result.detail

    @pytest.mark.parametrize("mode", list(PoolingMode))
    def test_encode_and_the_reference_pass_run_every_row(self, monkeypatch, mode):
        # Their outputs are compared with other passes' (and with
        # `encode_grad`'s), so they keep the full pass's bits.
        state = init_encoder(replace(TINY, include_cls=True), 5)
        image = random_image(state.config, 6)
        flags = mask_to_flags(default_check_mask(state.config, 0), state.config)
        flags = flags if mode is PoolingMode.DET else None
        seen = record_sublayer_rows(monkeypatch)
        encode(image, state, mode, flags)
        checks._masked_encode(image, state, mode, flags)
        assert seen == [None] * (4 * state.config.layers)


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

    @pytest.mark.parametrize("ratio", [0.0, -1.0, 1e-300, 0.01, float("nan")])
    def test_mlp_width_must_be_at_least_one(self, ratio):
        with pytest.raises(ValueError, match="mlp_ratio"):
            EncoderConfig(embed_dim=64, mlp_ratio=ratio)
        assert EncoderConfig(embed_dim=64, mlp_ratio=1 / 64).mlp_hidden == 1

    @pytest.mark.parametrize("ratio", [1e6, 1e300, float("inf"), (_nn.MAX_MLP_HIDDEN + 1) / 64])
    def test_mlp_width_is_bounded(self, ratio):
        # A config is checked before any array is built, so this allocates nothing.
        with pytest.raises(ValueError, match="mlp_ratio"):
            EncoderConfig(embed_dim=64, mlp_ratio=ratio)
        limit = EncoderConfig(embed_dim=64, mlp_ratio=_nn.MAX_MLP_HIDDEN / 64)
        assert limit.mlp_hidden == _nn.MAX_MLP_HIDDEN

    @pytest.mark.parametrize(
        "name", ["image_height", "image_width", "patch_size", "embed_dim", "layers", "heads"]
    )
    def test_sizes_checked_before_modulo(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            EncoderConfig(**{name: 0})
