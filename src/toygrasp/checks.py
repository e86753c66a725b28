"""Runnable verification suites for the masked-attention encoder.

These are the checks behind the `detpool-check` CLI command: background
invariance, the single-token oracle, finite-difference gradient
verification, the pooling contrast control, and the equivalence of the
compact Det pass with the masked full-sequence pass. Invariance and the
oracle run on the masked full-sequence pass, where they test the attention
mask; on the compact pass they would hold by construction. Each returns a
CheckResult so callers can print one pass/fail line per property.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _nn
from .detpool import (
    EncoderConfig,
    EncoderState,
    PoolingMode,
    _embed,
    _forward,
    _patchify,
    _pool,
    encode,
    encode_grad,
    init_encoder,
    mask_to_flags,
)

#: Background redraws per invariance and contrast check, and the half-width
#: of the uniform range each background pixel is redrawn from (the image
#: itself is drawn from [0, 1)).
N_PERTURBATIONS = 100
PERTURB_SCALE = 50.0
#: Largest deviation the invariance, oracle and compact-equivalence checks
#: accept: exact up to float rounding.
DET_TOL = 1e-12
#: Smallest mean-pooling change that shows background leaking in.
CONTRAST_THRESHOLD = 1e-6
#: Entries per tensor that the finite-difference gradient suite samples,
#: unless `detpool-check --full-gradients` asks for every entry.
FD_ENTRIES_PER_TENSOR = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def default_check_mask(config: EncoderConfig, seed: int = 0) -> np.ndarray:
    """Deterministic rectangular object mask leaving ample background. Its
    corner lies in the top-left quarter, or on the first row or column of a
    side 1 pixel long. A rectangle that would flag every patch (on a 2 x 2
    patch grid, say) is trimmed to the patch that holds its corner, so any
    grid of two or more patches keeps a background patch."""
    rng = np.random.default_rng(seed)
    h, w = config.image_height, config.image_width
    top = int(rng.integers(0, max(1, h // 2)))
    left = int(rng.integers(0, max(1, w // 2)))
    mask = np.zeros((h, w), dtype=bool)
    mask[top : top + h // 4 + 1, left : left + w // 4 + 1] = True
    if mask_to_flags(mask, config).all():
        p = config.patch_size
        mask[(top // p + 1) * p :] = False
        mask[:, (left // p + 1) * p :] = False
    return mask


def flags_to_pixel_region(flags: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Expand patch flags to the pixel grid (True = pixel of an object patch)."""
    grid = np.asarray(flags, dtype=bool).reshape(config.n_rows, config.n_cols)
    return np.kron(grid, np.ones((config.patch_size, config.patch_size), dtype=bool))


def _masked_encode(image, state, mode, flags=None, read_rows_only=False) -> np.ndarray:
    """`encode` through the full-sequence pass, Det under its flag mask (see
    `detpool._forward` for `read_rows_only`)."""
    return _forward(
        image, state, mode, flags, masked_reference=True, keep=False,
        read_rows_only=read_rows_only,
    )[0]


def _background_deltas(state, mask, mode):
    """Yield, for each of N_PERTURBATIONS seeded redraws of the pixels
    outside the mask's object patches, the largest |change| of `mode`'s
    embedding of one seeded image. Each value costs one pass, so a caller
    that stops early runs no more passes than the values it reads, plus
    the reference. These passes are compared only with each other, so
    their last block computes only the rows the pooling reads.
    """
    config = state.config
    flags = mask_to_flags(mask, config)
    background = ~flags_to_pixel_region(flags, config)
    if mode is not PoolingMode.DET:
        flags = None
    rng = np.random.default_rng(1)
    image = rng.uniform(0.0, 1.0, (config.image_height, config.image_width, 3))
    reference = _masked_encode(image, state, mode, flags, read_rows_only=True)
    rng = np.random.default_rng(2)
    for _ in range(N_PERTURBATIONS):
        perturbed = image.copy()
        perturbed[background] = rng.uniform(
            -PERTURB_SCALE, PERTURB_SCALE, size=(int(background.sum()), 3)
        )
        out = _masked_encode(perturbed, state, mode, flags, read_rows_only=True)
        yield float(np.abs(out - reference).max())


def check_background_invariance(state: EncoderState, mask: np.ndarray) -> CheckResult:
    """Det-mode output must not move when non-object-patch pixels change:
    a property of every redraw, so all N_PERTURBATIONS run."""
    worst = max(0.0, *_background_deltas(state, mask, PoolingMode.DET))
    return CheckResult(
        "background-invariance",
        worst <= DET_TOL,
        f"max |delta| = {worst:.3e} over {N_PERTURBATIONS} perturbations (tol {DET_TOL:.0e})",
    )


def check_pooling_contrast(state: EncoderState, mask: np.ndarray) -> CheckResult:
    """Mean pooling must leak background: some redraw moves the output. The
    first redraw that does decides the check, so it stops there; only a
    failing check runs all N_PERTURBATIONS."""
    must = f"(must exceed {CONTRAST_THRESHOLD:.0e})"
    best = 0.0
    for k, delta in enumerate(_background_deltas(state, mask, PoolingMode.MEAN), 1):
        if delta > CONTRAST_THRESHOLD:
            return CheckResult(
                "pooling-contrast",
                True,
                f"mean-pool |delta| = {delta:.3e} at redraw {k} of {N_PERTURBATIONS} {must}",
            )
        best = max(best, delta)
    return CheckResult(
        "pooling-contrast",
        False,
        f"max mean-pool |delta| = {best:.3e} over {N_PERTURBATIONS} redraws {must}",
    )


def check_single_token_oracle(state: EncoderState) -> CheckResult:
    """Det with one object patch must equal running that token alone.

    The oracle path feeds a length-1 sequence (patch embedding plus its
    positional term) through the same blocks with full attention; softmax
    over a single element is the identity. Valid with or without CLS, since
    the object token never attends the (non-object) CLS token.
    """
    config = state.config
    rng = np.random.default_rng(2)
    image = rng.uniform(0.0, 1.0, (config.image_height, config.image_width, 3))
    index = config.n_cols + 1 if config.n_patches > config.n_cols + 1 else 0
    flags = np.zeros(config.n_patches, dtype=bool)
    flags[index] = True
    full = _masked_encode(image, state, PoolingMode.DET, flags)

    patches = _patchify(image, config)
    tokens0, _ = _nn.linear_fwd(
        patches, state.params["patch_embed.weight"], state.params["patch_embed.bias"]
    )
    pe = _nn.sincos_2d(config.n_rows, config.n_cols, config.embed_dim)
    token = (tokens0[index] + pe[index])[None, :]
    hidden, _ = _nn.transformer_fwd(token, state.params, config.layers, config.heads, keep=False)
    reference = hidden.mean(axis=0)

    deviation = float(np.abs(full - reference).max())
    return CheckResult(
        "single-token-oracle",
        deviation <= DET_TOL,
        f"max |delta| = {deviation:.3e} vs length-1 run (tol {DET_TOL:.0e})",
    )


def check_det_compact_equivalence(state: EncoderState) -> CheckResult:
    """Det `encode`, which runs the object tokens alone, must equal the
    masked full-sequence pass: 8 seeded flag sets without CLS and as many
    with it, each flagging a random number of patches.
    """
    n_patterns = 8
    rng = np.random.default_rng(4)
    worst = 0.0
    for include_cls in (False, True):
        # Both variants share the state's tensors; only the CLS token differs.
        config = replace(state.config, include_cls=include_cls)
        params = {k: v for k, v in state.params.items() if k != "cls_token"}
        if include_cls:
            params["cls_token"] = state.params.get("cls_token", rng.normal(size=config.embed_dim))
        variant = EncoderState(config, params)
        for _ in range(n_patterns):
            image = rng.uniform(0.0, 1.0, (config.image_height, config.image_width, 3))
            flags = np.zeros(config.n_patches, dtype=bool)
            count = int(rng.integers(1, config.n_patches + 1))
            flags[rng.choice(config.n_patches, count, replace=False)] = True
            det = encode(image, variant, PoolingMode.DET, flags)
            reference = _masked_encode(image, variant, PoolingMode.DET, flags)
            worst = max(worst, float(np.abs(det - reference).max()))
    return CheckResult(
        "det-compact-equivalence",
        worst <= DET_TOL,
        f"max |delta| = {worst:.3e} vs masked full sequence over {2 * n_patterns} "
        f"flag patterns, with and without CLS (tol {DET_TOL:.0e})",
    )


GRADIENT_CHECK_CONFIG = EncoderConfig(
    image_height=16, image_width=16, patch_size=4, embed_dim=32, layers=2, heads=4,
    mlp_ratio=2.0,
)


def _first_stage(name: str, layers: int) -> int | None:
    """The first stage of the encoder that tensor `name` feeds: the sublayer
    whose `_nn.sublayer_prefixes` it starts with, 2 * layers (pooling alone)
    for `pool_query`, and None (the embedding step) for any other tensor."""
    if name == "pool_query":
        return 2 * layers
    stages = (s for s in range(2 * layers) if name.startswith(_nn.sublayer_prefixes(s)))
    return next(stages, None)


def _fd_losses(image, state, mode, flags, upstream):
    """The pair (loss, batched_loss) of <upstream, encode(...)> for
    `_nn.finite_difference_check`. The zero-argument loss is the whole
    `encode`, reading the tensors and the image in place. The batched loss
    runs a (B, *shape) stack of copies of one tensor, or of the image, in one
    forward-only pass resumed at the tensor's first stage, and returns the B
    losses. Each stage's input is computed once, from the unperturbed
    tensors, with `encode`'s own attention mask and pooled rows."""
    config = state.config
    tokens, allowed, rows, _ = _embed(image, state, mode, flags)
    inputs = [tokens]
    for s in range(2 * config.layers):
        inputs.append(
            _nn.sublayer_fwd(s, inputs[-1], state.params, config.heads, allowed, keep=False)[0]
        )

    def loss() -> float:
        return float(upstream @ encode(image, state, mode, flags))

    def batched_loss(name, stack):
        params, batch_image = state.params, image
        if name == "image":
            batch_image = stack
        else:  # vectors as (B, 1, d)
            params = {**params, name: stack[:, None, :] if stack.ndim == 2 else stack}
        variant = replace(state, params=params)
        stage = _first_stage(name, config.layers)
        if stage is None:
            x, stage = _embed(batch_image, variant, mode, flags)[0], 0
        else:
            x = inputs[stage]
        x, _ = _nn.transformer_fwd(
            x, params, config.layers, config.heads, allowed, start=stage, keep=False
        )
        # A tensor the mode never reads (Det's `cls_token`, a non-attention
        # mode's `pool_query`) leaves one unbatched loss.
        return np.broadcast_to(_pool(x, variant, mode, rows)[0] @ upstream, (len(stack),))

    return loss, batched_loss


def check_gradients(seed: int = 3, max_entries_per_tensor: int | None = None) -> CheckResult:
    """Analytic vs central-difference gradients at GRADIENT_CHECK_CONFIG for
    all four pooling modes, including the input image; Det background-pixel
    gradients must be 0.
    """
    base = GRADIENT_CHECK_CONFIG
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_at = ""
    checked: dict[str, int] = {}
    failures: list[str] = []

    for mode in PoolingMode:
        mode_config = base
        if mode is PoolingMode.CLS:
            mode_config = replace(base, include_cls=True)
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

        loss, batched_loss = _fd_losses(image, state, mode, flags, upstream)
        n, w, fails, w_entry = _nn.finite_difference_check(
            loss, arrays, analytic, max_entries_per_tensor=max_entries_per_tensor, rng=rng,
            batched_loss=batched_loss,
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
    fd_entries_per_tensor: int | None = FD_ENTRIES_PER_TENSOR,
) -> list[CheckResult]:
    """The five suites in a stable order.

    Invariance, oracle, contrast and compact equivalence run at the given
    configuration; the finite-difference gradient suite always runs at the
    small pinned GRADIENT_CHECK_CONFIG, where sweeping every parameter is
    tractable. A mask must leave a background patch to perturb.
    """
    config = config or EncoderConfig()
    if config.n_patches == 1:
        raise ValueError("the encoder has 1 patch, so no background patch is left to perturb")
    state = init_encoder(config, seed)
    if mask is None:
        mask = default_check_mask(config, seed)
    if mask_to_flags(mask, config).all():
        raise ValueError(f"mask flags all {config.n_patches} patches, leaving no background")
    results = [
        check_background_invariance(state, mask),
        check_single_token_oracle(state),
        check_gradients(max_entries_per_tensor=fd_entries_per_tensor, seed=seed + 3),
        check_pooling_contrast(state, mask),
        check_det_compact_equivalence(state),
    ]
    return results
