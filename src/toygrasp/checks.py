"""Runnable verification suites for the masked-attention encoder.

These are the checks behind the `detpool-check` CLI command: background
invariance, the single-token oracle, finite-difference gradient
verification, and the pooling contrast control. Each returns a CheckResult
so callers can print one pass/fail line per property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _nn
from .detpool import (
    EncoderConfig,
    EncoderState,
    PoolingMode,
    _patchify,
    encode,
    encode_grad,
    init_encoder,
    mask_to_flags,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def default_check_mask(config: EncoderConfig, seed: int = 0) -> np.ndarray:
    """Deterministic rectangular object mask leaving ample background."""
    rng = np.random.default_rng(seed)
    h, w = config.image_height, config.image_width
    top = int(rng.integers(0, h // 2))
    left = int(rng.integers(0, w // 2))
    mask = np.zeros((h, w), dtype=bool)
    mask[top : top + h // 4 + 1, left : left + w // 4 + 1] = True
    return mask


def flags_to_pixel_region(flags: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Expand patch flags to the pixel grid (True = pixel of an object patch)."""
    grid = np.asarray(flags, dtype=bool).reshape(config.n_rows, config.n_cols)
    return np.kron(grid, np.ones((config.patch_size, config.patch_size), dtype=bool))


def _perturbed_backgrounds(image, object_pixels, n, seed, scale):
    rng = np.random.default_rng(seed)
    background = ~object_pixels
    for _ in range(n):
        perturbed = image.copy()
        perturbed[background] = rng.uniform(-scale, scale, size=(int(background.sum()), 3))
        yield perturbed


def check_background_invariance(
    state: EncoderState,
    mask: np.ndarray,
    n_perturbations: int = 100,
    tol: float = 1e-12,
    seed: int = 1,
    perturb_scale: float = 50.0,
) -> CheckResult:
    """Det-mode output must not move when non-object-patch pixels change."""
    config = state.config
    flags = mask_to_flags(mask, config)
    object_pixels = flags_to_pixel_region(flags, config)
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 1.0, (config.image_height, config.image_width, 3))
    reference = encode(image, state, PoolingMode.DET, flags)
    worst = 0.0
    for perturbed in _perturbed_backgrounds(
        image, object_pixels, n_perturbations, seed + 1, perturb_scale
    ):
        out = encode(perturbed, state, PoolingMode.DET, flags)
        worst = max(worst, float(np.abs(out - reference).max()))
    passed = worst <= tol
    return CheckResult(
        "background-invariance",
        passed,
        f"max |delta| = {worst:.3e} over {n_perturbations} perturbations (tol {tol:.0e})",
    )


def check_pooling_contrast(
    state: EncoderState,
    mask: np.ndarray,
    n_perturbations: int = 100,
    threshold: float = 1e-6,
    seed: int = 1,
    perturb_scale: float = 50.0,
) -> CheckResult:
    """Mean pooling must leak background: some perturbation moves the output."""
    config = state.config
    flags = mask_to_flags(mask, config)
    object_pixels = flags_to_pixel_region(flags, config)
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 1.0, (config.image_height, config.image_width, 3))
    reference = encode(image, state, PoolingMode.MEAN)
    best = 0.0
    for perturbed in _perturbed_backgrounds(
        image, object_pixels, n_perturbations, seed + 1, perturb_scale
    ):
        out = encode(perturbed, state, PoolingMode.MEAN)
        best = max(best, float(np.abs(out - reference).max()))
    passed = best > threshold
    return CheckResult(
        "pooling-contrast",
        passed,
        f"max mean-pool |delta| = {best:.3e} (must exceed {threshold:.0e})",
    )


def check_single_token_oracle(
    state: EncoderState, tol: float = 1e-12, seed: int = 2
) -> CheckResult:
    """Det with one object patch must equal running that token alone.

    The oracle path feeds a length-1 sequence (patch embedding plus its
    positional term) through the same blocks with full attention; softmax
    over a single element is the identity. Valid with or without CLS, since
    the object token never attends the (non-object) CLS token.
    """
    config = state.config
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 1.0, (config.image_height, config.image_width, 3))
    index = config.n_cols + 1 if config.n_patches > config.n_cols + 1 else 0
    flags = np.zeros(config.n_patches, dtype=bool)
    flags[index] = True
    full = encode(image, state, PoolingMode.DET, flags)

    patches = _patchify(image, config)
    tokens0, _ = _nn.linear_fwd(
        patches, state.params["patch_embed.weight"], state.params["patch_embed.bias"]
    )
    pe = _nn.sincos_2d(config.n_rows, config.n_cols, config.embed_dim)
    token = (tokens0[index] + pe[index])[None, :]
    hidden, _ = _nn.transformer_fwd(token, state.params, config.layers, config.heads)
    reference = hidden.mean(axis=0)

    deviation = float(np.abs(full - reference).max())
    return CheckResult(
        "single-token-oracle",
        deviation <= tol,
        f"max |delta| = {deviation:.3e} vs length-1 run (tol {tol:.0e})",
    )


GRADIENT_CHECK_CONFIG = EncoderConfig(
    image_height=16, image_width=16, patch_size=4, embed_dim=32, layers=2, heads=4,
    mlp_ratio=2.0,
)


def check_gradients(
    config: EncoderConfig | None = None,
    seed: int = 3,
    max_entries_per_tensor: int | None = None,
    step: float = 1e-5,
    rel_tol: float = 1e-5,
    abs_floor: float = 1e-8,
) -> CheckResult:
    """Analytic vs central-difference gradients for all four pooling modes,
    including the input image; Det background-pixel gradients must be 0.
    """
    base = config or GRADIENT_CHECK_CONFIG
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_at = ""
    checked: dict[str, int] = {}
    failures: list[str] = []

    for mode in PoolingMode:
        mode_config = base
        if mode is PoolingMode.CLS:
            mode_config = EncoderConfig(**{**base.to_dict(), "include_cls": True})
        state = init_encoder(mode_config, seed)
        image = rng.uniform(0.0, 1.0, (mode_config.image_height, mode_config.image_width, 3))
        flags = None
        if mode is PoolingMode.DET:
            flags = np.zeros(mode_config.n_patches, dtype=bool)
            flags[rng.choice(mode_config.n_patches, mode_config.n_patches // 3, replace=False)] = True
        upstream = rng.normal(size=mode_config.embed_dim)

        grads, image_grad = encode_grad(image, state, mode, flags, upstream)
        arrays = dict(state.params)
        arrays["image"] = image
        analytic = dict(grads)
        analytic["image"] = image_grad

        def loss() -> float:
            return float(upstream @ encode(image, state, mode, flags))

        n, w, fails, w_entry = _nn.finite_difference_check(
            loss,
            arrays,
            analytic,
            step=step,
            rel_tol=rel_tol,
            abs_floor=abs_floor,
            max_entries_per_tensor=max_entries_per_tensor,
            rng=rng,
        )
        checked[mode.value] = n
        if w_entry is not None and (not worst_at or w > worst):
            worst, worst_at = w, f"{mode.value}:{w_entry[0]}[{w_entry[1]}]"
        failures += [f"{mode.value}:{name}[{i}]" for name, i, _, _ in fails]

        if mode is PoolingMode.DET:
            background = ~flags_to_pixel_region(flags, mode_config)
            if np.any(image_grad[background] != 0.0):
                failures.append("det background-pixel gradient is not exactly 0")

    passed = not failures
    per_mode = ", ".join(f"{mode} {n}" for mode, n in checked.items())
    detail = (
        f"{sum(checked.values())} entries checked ({per_mode}), "
        f"worst error at {worst:.3f} of tolerance at {worst_at}"
        if passed
        else f"failures: {failures[:5]} ({len(failures)} total)"
    )
    return CheckResult("gradient-exactness", passed, detail)


def run_detpool_checks(
    config: EncoderConfig | None = None,
    seed: int = 0,
    mask: np.ndarray | None = None,
    fd_entries_per_tensor: int | None = 8,
) -> list[CheckResult]:
    """The four suites in a stable order.

    Invariance, oracle, and contrast run at the given configuration; the
    finite-difference gradient suite always runs at the small pinned
    GRADIENT_CHECK_CONFIG, where sweeping every parameter is tractable.
    """
    config = config or EncoderConfig()
    state = init_encoder(config, seed)
    if mask is None:
        mask = default_check_mask(config, seed)
    results = [
        check_background_invariance(state, mask),
        check_single_token_oracle(state),
        check_gradients(max_entries_per_tensor=fd_entries_per_tensor, seed=seed + 3),
        check_pooling_contrast(state, mask),
    ]
    return results
