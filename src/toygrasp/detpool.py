"""Segmentation-restricted attention encoder with four pooling variants.

A small vision transformer whose attention can be restricted so that object
patch tokens and non-object patch tokens never attend each other. Pooling the
object tokens then yields an embedding that depends only on the object's
pixels and the flag geometry: background content cannot leak in, which is the
checkable claim this module exists to demonstrate. Because of that, Det mode
runs the blocks on the object tokens alone; the masked full-sequence pass is
kept as the reference the verification checks run on. One `_forward`
serves every pass: `encode` and the checks' masked passes call it with
`keep=False`, building no backward cache; `encode_grad` alone keeps one.
The checks' perturbation passes, which are compared only with each other,
also compute only the rows the pooling reads in the last block.
Gradients are exact reverse-mode; everything runs in float64.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _nn
from .errors import InvalidInput

CHANNELS = 3

#: Upper bounds of the encoder's sizes, far above the 32 x 32 image, 64-wide,
#: 2-layer, 4-head default. Each bounds one field; the two budgets below
#: bound their products, so a config near several limits at once is refused.
MAX_IMAGE_SIDE = 1024
MAX_EMBED_DIM = 1024
MAX_LAYERS = 64
MAX_HEADS = 64
#: heads x tokens^2 (CLS included): one float64 attention tensor is 128 MB.
MAX_ATTENTION_ENTRIES = 2**24
#: Learnable entries, 256 MB as float64 (a 1024-wide 2-layer encoder has 25.2M).
MAX_PARAMETERS = 2**25
_SIZE_LIMITS = {
    "image_height": MAX_IMAGE_SIDE,
    "image_width": MAX_IMAGE_SIDE,
    "embed_dim": MAX_EMBED_DIM,
    "layers": MAX_LAYERS,
    "heads": MAX_HEADS,
}


@dataclass(frozen=True)
class EncoderConfig:
    image_height: int = 32
    image_width: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    layers: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0
    include_cls: bool = False

    def __post_init__(self) -> None:
        for name in ("image_height", "image_width", "patch_size", "embed_dim", "layers", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, limit in _SIZE_LIMITS.items():
            if getattr(self, name) > limit:
                raise ValueError(f"{name} = {getattr(self, name)} is above the limit of {limit}")
        _nn.check_mlp_ratio("embed_dim", self.embed_dim, self.mlp_ratio)
        if self.image_height % self.patch_size or self.image_width % self.patch_size:
            raise ValueError("image size must be divisible by patch_size")
        if self.embed_dim % self.heads:
            raise ValueError("embed_dim must be divisible by heads")
        if self.embed_dim % 4:
            raise ValueError("embed_dim must be divisible by 4 (2-D sinusoidal encoding)")
        tokens = self.n_patches + self.include_cls
        if self.heads * tokens**2 > MAX_ATTENTION_ENTRIES:
            raise ValueError(
                f"heads x tokens^2 = {self.heads} x {tokens}^2 = {self.heads * tokens**2} is "
                f"above the limit of {MAX_ATTENTION_ENTRIES} attention entries (tokens from "
                "image_height, image_width, patch_size and include_cls)"
            )
        count = sum(math.prod(shape) for shape, _ in _param_table(self).values())
        if count > MAX_PARAMETERS:
            raise ValueError(
                f"parameter count = {count} is above the limit of {MAX_PARAMETERS} (from "
                "embed_dim, layers, mlp_ratio, patch_size and include_cls)"
            )

    @property
    def n_rows(self) -> int:
        return self.image_height // self.patch_size

    @property
    def n_cols(self) -> int:
        return self.image_width // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


class PoolingMode(enum.Enum):
    MEAN = "mean"
    CLS = "cls"
    ATTENTION = "attention"
    DET = "det"


@dataclass(eq=False)
class EncoderState:
    """All learnable tensors as a flat named table."""

    config: EncoderConfig
    params: dict[str, np.ndarray] = field(repr=False)


def _param_table(config: EncoderConfig) -> dict:
    """Every parameter's name -> (shape, fill), in order (see `_nn.init_params`)."""
    dim = config.embed_dim
    table = {
        "patch_embed.weight": ((config.patch_size * config.patch_size * CHANNELS, dim), None),
        "patch_embed.bias": ((dim,), 0.0),
    }
    if config.include_cls:
        table["cls_token"] = ((dim,), None)
    table.update(_nn.transformer_shapes(config.layers, dim, config.mlp_hidden))
    table["pool_query"] = ((dim,), None)
    return table


def init_encoder(config: EncoderConfig, seed: int = 0) -> EncoderState:
    params = _nn.init_params(np.random.default_rng(seed), _param_table(config))
    return EncoderState(config=config, params=params)


# ---------------------------------------------------------------------------
# masks and flags
# ---------------------------------------------------------------------------

def mask_to_flags(mask: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Per-patch object flags: a patch is flagged when any pixel of its block is set."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (config.image_height, config.image_width):
        raise InvalidInput(
            f"mask shape {mask.shape} does not match image "
            f"({config.image_height}, {config.image_width})"
        )
    p = config.patch_size
    return mask.reshape(config.n_rows, p, config.n_cols, p).any(axis=(1, 3)).reshape(-1)


def build_attention_mask(flags: np.ndarray, include_cls: bool) -> np.ndarray:
    """Allowed-pair matrix: attend(i -> j) iff flag[i] == flag[j].

    The CLS token, when present, is prepended and classed non-object, so
    object tokens never read it and the pooled embedding stays a function of
    object content alone.
    """
    flags = np.asarray(flags, dtype=bool)
    if not flags.any():
        raise InvalidInput("no object patch is flagged")
    if include_cls:
        flags = np.concatenate([[False], flags])
    return flags[:, None] == flags[None, :]


def _patchify(image: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """(..., H, W, C) images -> (..., patches, p * p * C) rows, row-major
    over the patch grid."""
    p = config.patch_size
    lead = image.shape[:-3]
    return (
        image.reshape(*lead, config.n_rows, p, config.n_cols, p, CHANNELS)
        .swapaxes(-4, -3)
        .reshape(*lead, config.n_patches, p * p * CHANNELS)
    )


def _unpatchify(dpatches: np.ndarray, config: EncoderConfig) -> np.ndarray:
    p = config.patch_size
    return (
        dpatches.reshape(config.n_rows, config.n_cols, p, p, CHANNELS)
        .transpose(0, 2, 1, 3, 4)
        .reshape(config.image_height, config.image_width, CHANNELS)
    )


def _check_inputs(image, state, mode, flags):
    config = state.config
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (config.image_height, config.image_width, CHANNELS):
        raise InvalidInput(f"image shape {image.shape} does not match config")
    if not np.isfinite(image).all():
        raise InvalidInput("input image contains non-finite values")
    if mode is PoolingMode.CLS and not config.include_cls:
        raise ValueError("CLS pooling requires include_cls=True")
    if mode is PoolingMode.DET:
        if flags is None:
            raise InvalidInput("Det pooling requires patch flags")
        flags = np.asarray(flags, dtype=bool)
        if flags.shape != (config.n_patches,):
            raise InvalidInput(
                f"flags length {flags.shape} does not match {config.n_patches} patches"
            )
        if not flags.any():
            raise InvalidInput("Det pooling with no object patches")
    return image, flags


def _embed(image, state, mode, flags, masked_reference=False):
    """Embedding step: the token sequence the blocks run on, its attention
    mask (None for full attention), the rows of the blocks' output that the
    pooling reads, and the cache for backward: the projection cache, the
    flags the sequence was compacted to (or None) and the CLS offset.

    Det mode keeps the flagged patch tokens alone (the compact path):
    object tokens attend only to object tokens and Det pools only them, so
    the background and CLS tokens cannot reach the embedding.
    `masked_reference=True` keeps the full sequence under the attention mask
    instead; the verification checks use it, and so does the attention
    probe `tests/conftest.py::attention_weights`, since on the compact path
    invariance holds by construction.

    The image and the embedding tensors may carry leading batch axes, as
    `_nn` activations do: a (B, H, W, C) image stack, a (B, d_in, d)
    weight stack or a (B, 1, d) vector stack gives (B, T, d) tokens.
    """
    config = state.config
    params = state.params
    compact = flags if mode is PoolingMode.DET and not masked_reference else None
    offset = 1 if config.include_cls and compact is None else 0

    patches = _patchify(image, config)
    pe = _nn.sincos_2d(config.n_rows, config.n_cols, config.embed_dim)
    if compact is not None:
        patches, pe = patches[..., compact, :], pe[compact]
    tokens0, c_embed = _nn.linear_fwd(
        patches, params["patch_embed.weight"], params["patch_embed.bias"]
    )
    tokens = tokens0 + pe
    if offset:
        # CLS carries no spatial position, so no positional term is added.
        cls = params["cls_token"]
        lead = np.broadcast_shapes(tokens.shape[:-2], cls.shape[:-2])
        tokens = np.concatenate(
            [
                np.broadcast_to(cls, (*lead, 1, config.embed_dim)),
                np.broadcast_to(tokens, (*lead, *tokens.shape[-2:])),
            ],
            axis=-2,
        )

    allowed = None
    rows = slice(offset, None)
    if mode is PoolingMode.CLS:
        rows = slice(0, 1)
    elif mode is PoolingMode.DET and masked_reference:
        allowed = build_attention_mask(flags, config.include_cls)
        rows = np.flatnonzero(flags) + offset
    return tokens, allowed, rows, (c_embed, compact, offset)


def _pool(hidden, state, mode, rows):
    """Pooling step: the embedding of the blocks' output `hidden`, read from
    its token `rows` (see `_embed`), and the cache for backward. `hidden`
    and `pool_query` may carry leading batch axes (see `_embed`); the
    embedding then has shape (B, d)."""
    tokens = hidden[..., rows, :]
    if mode is not PoolingMode.ATTENTION:
        return tokens.mean(axis=-2), None
    # The query as a column: (d, 1), or (B, d, 1) for a (B, 1, d) stack.
    query = np.atleast_2d(state.params["pool_query"]).swapaxes(-1, -2)
    weights = _nn.masked_softmax((tokens @ query)[..., 0], None)
    return (weights[..., None, :] @ tokens)[..., 0, :], (weights, tokens)


def _forward(image, state, mode, flags, masked_reference, keep, read_rows_only=False):
    """Forward pass, as embedding, blocks and pooling steps (see `_embed`);
    returns (embedding, cache) for backward and probes. With `keep` false
    the blocks build no backward cache and the cache is None; the embedding
    is the same bit for bit. `read_rows_only` (with `keep` false) has the
    last block compute only the rows the pooling reads; the embedding may
    then differ from the full pass's in the last bits (see `_nn`), so only
    passes compared with each other use it."""
    config = state.config
    image, flags = _check_inputs(image, state, mode, flags)
    tokens, allowed, rows, embed_cache = _embed(image, state, mode, flags, masked_reference)
    hidden, block_caches = _nn.transformer_fwd(
        tokens, state.params, config.layers, config.heads, allowed, keep=keep,
        rows=rows if read_rows_only else None,
    )
    embedding, pool_cache = _pool(hidden, state, mode, slice(None) if read_rows_only else rows)
    if not np.isfinite(embedding).all():
        raise InvalidInput("encoder produced non-finite values")
    if not keep:
        return embedding, None
    return embedding, (config, embed_cache, rows, block_caches, hidden, pool_cache)


#: The parameters `_backward` adds gradients into; `transformer_bwd` sets
#: every block parameter's gradient itself.
_ADDED_INTO = ("pool_query", "cls_token", "patch_embed.weight", "patch_embed.bias")


def _backward(cache, state, upstream):
    """Exact gradients of <upstream, embedding> from a `_forward` cache,
    one per `state.params` entry in its order; an entry no gradient reaches
    (Det's `cls_token`, `pool_query` outside attention pooling) is zeros."""
    config, (c_embed, compact, offset), rows, block_caches, hidden, pool_cache = cache

    grads = {
        name: np.zeros_like(state.params[name]) for name in _ADDED_INTO if name in state.params
    }
    dhidden = np.zeros_like(hidden)
    if pool_cache is None:
        dhidden[rows] += upstream / len(hidden[rows])
    else:  # attention
        weights, tokens = pool_cache
        dweights = tokens @ upstream
        dhidden[rows] += np.outer(weights, upstream)
        dscores = _nn.softmax_bwd(dweights, weights)
        grads["pool_query"] += tokens.T @ dscores
        dhidden[rows] += np.outer(dscores, state.params["pool_query"])

    dtokens = _nn.transformer_bwd(dhidden, block_caches, grads)
    if offset:
        grads["cls_token"] += dtokens[0]
        dtokens = dtokens[1:]
    dpatches, dw, db = _nn.linear_bwd(dtokens, c_embed)
    grads["patch_embed.weight"] += dw
    grads["patch_embed.bias"] += db
    if compact is not None:
        # Background patches never entered the compact pass: their pixel
        # gradients are exactly 0.
        dpatches_all = np.zeros((config.n_patches, dpatches.shape[1]))
        dpatches_all[compact] = dpatches
        dpatches = dpatches_all
    return {name: grads[name] for name in state.params}, _unpatchify(dpatches, config)


def encode(
    image: np.ndarray,
    state: EncoderState,
    mode: PoolingMode,
    flags: np.ndarray | None = None,
) -> np.ndarray:
    """Embed one image: patchify, add positional encoding, run the blocks,
    pool per `mode`. Det mode runs the blocks on the flagged patches alone
    and returns the mean of their outputs; this equals the full sequence
    under the flag attention mask, whose object tokens never read the
    background or CLS tokens (to within float rounding, ~1e-16).
    """
    return _forward(image, state, mode, flags, masked_reference=False, keep=False)[0]


def encode_grad(
    image: np.ndarray,
    state: EncoderState,
    mode: PoolingMode,
    flags: np.ndarray | None,
    upstream: np.ndarray,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of <upstream, encode(...)> for every parameter and
    the input image. In Det mode the background pixels' and `cls_token`'s
    gradients are exactly 0.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (state.config.embed_dim,):
        raise InvalidInput("upstream must match the embedding dimension")
    _, cache = _forward(image, state, mode, flags, masked_reference=False, keep=True)
    return _backward(cache, state, upstream)
