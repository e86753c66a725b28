"""History-conditioned action-chunk policy with behavior-cloning training.

Each timestep's camera embeddings and proprioception concatenate into one
token; a small pre-norm transformer reads the C-token history with full
attention and a linear head maps the last position to the next K actions.
Training minimizes the mean absolute error over the chunk with decoupled
weight decay; gradients are exact reverse-mode in float64. One `_forward`
serves every pass: `policy_forward` calls it with `keep=False`, building no
backward cache.

A `PolicyState` owns three float64 vectors in table order: the parameters
and AdamW's two moments, exposed as read-only mappings of views built once.
The moments are calloc'd, so a state that never trains keeps none resident
(1.9 MB at the default config). `train_step` gathers the gradients into
that layout with one concatenate and runs AdamW as a few in-place
operations over whole vectors, with two scratch vectors allocated on its
first step and kept: fresh temporaries on every step, or scratch made with
the state, each made training measurably slower.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import _nn
from .errors import NonFiniteActivation, ShapeMismatch


@dataclass(frozen=True)
class PolicyConfig:
    history_len: int = 16
    chunk_len: int = 16
    action_dim: int = 8
    proprio_dim: int = 8
    cameras: int = 2
    embed_dim: int = 64
    layers: int = 2
    width: int = 64
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "history_len", "chunk_len", "action_dim", "proprio_dim", "cameras",
            "embed_dim", "layers", "width", "heads",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        _nn.check_mlp_ratio("width", self.width, self.mlp_ratio)
        if self.width % self.heads:
            raise ValueError("width must be divisible by heads")
        if self.width % 2:
            raise ValueError("width must be even (sinusoidal encoding)")

    @property
    def token_in_dim(self) -> int:
        return self.cameras * self.embed_dim + self.proprio_dim

    @property
    def mlp_hidden(self) -> int:
        return int(self.width * self.mlp_ratio)

    @staticmethod
    def tiny() -> "PolicyConfig":
        """Small configuration for tests and verification runs."""
        return PolicyConfig(
            history_len=4,
            chunk_len=4,
            action_dim=4,
            proprio_dim=4,
            cameras=1,
            embed_dim=8,
            layers=2,
            width=32,
            heads=4,
            mlp_ratio=2.0,
        )


@dataclass(frozen=True, eq=False)
class StepObservation:
    """Per-step input: one embedding per camera plus the proprioceptive state."""

    embeddings: np.ndarray  # (cameras, embed_dim)
    proprio: np.ndarray  # (proprio_dim,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "embeddings", np.asarray(self.embeddings, dtype=np.float64))
        object.__setattr__(self, "proprio", np.asarray(self.proprio, dtype=np.float64))
        if not (np.isfinite(self.embeddings).all() and np.isfinite(self.proprio).all()):
            raise NonFiniteActivation("observation contains non-finite values")


@dataclass(eq=False)
class PolicyState:
    """The parameters and AdamW's two moments as three float64 vectors
    (params, opt_m, opt_v) in `_param_table` order, and AdamW's step count.
    Of these, only the step count can be rebound after construction."""

    config: PolicyConfig
    vectors: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    opt_step: int = 0
    params: Mapping[str, np.ndarray] = field(init=False, repr=False)
    opt_m: Mapping[str, np.ndarray] = field(init=False, repr=False)
    opt_v: Mapping[str, np.ndarray] = field(init=False, repr=False)
    #: `train_step`'s two scratch vectors; None until its first step.
    _scratch: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        table = _param_table(self.config)
        size = sum(math.prod(shape) for shape, _ in table.values())
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if len(vectors) != 3:
            raise ShapeMismatch(f"expected 3 vectors (params, opt_m, opt_v), got {len(vectors)}")
        want = f"a contiguous float64 vector of {size} entries"
        for name, array in zip(("params", "opt_m", "opt_v"), vectors):
            if not isinstance(array, np.ndarray):
                raise ShapeMismatch(f"{name}: expected {want}, got {type(array).__name__}")
            if array.shape != (size,) or array.dtype != np.float64 or not array.flags.c_contiguous:
                raise ShapeMismatch(f"{name}: expected {want}, got {array.dtype} {array.shape}")
            setattr(self, name, MappingProxyType(_nn.views(array, table)))

    def __setattr__(self, name: str, value) -> None:
        # The tables view the vectors they were built from, so rebinding any
        # of these would split what `train_step` updates from what
        # `policy_forward` reads; `opt_step` and the scratch stay settable.
        if name in ("config", "vectors", "params", "opt_m", "opt_v") and name in self.__dict__:
            raise FrozenInstanceError(f"cannot rebind PolicyState.{name}; build a new PolicyState")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return PolicyState, (self.config, self.vectors, self.opt_step)


#: AdamW's decoupled weight decay, moment decay rates and denominator floor.
WEIGHT_DECAY = 0.01
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam with decoupled weight decay (see WEIGHT_DECAY, BETA1, BETA2, EPS)."""

    learning_rate: float = 5e-4


def _param_table(config: PolicyConfig) -> dict:
    """Every parameter's name -> (shape, fill), in order (see `_nn.init_params`)."""
    table = _nn.mlp_shapes("proj.", config.token_in_dim, config.width, config.width)
    table.update(_nn.transformer_shapes(config.layers, config.width, config.mlp_hidden))
    out = config.chunk_len * config.action_dim
    table["head.weight"] = ((config.width, out), None)
    table["head.bias"] = ((out,), 0.0)
    return table


def init_policy(config: PolicyConfig, seed: int = 0) -> PolicyState:
    params = _nn.init_params(np.random.default_rng(seed), _param_table(config))
    vector = next(iter(params.values())).base  # the one vector every tensor views
    return PolicyState(config, (vector, np.zeros(vector.size), np.zeros(vector.size)))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def concat_observation(obs: StepObservation, config: PolicyConfig) -> np.ndarray:
    """Channel concatenation (e^1, ..., e^N, s) before projection."""
    if obs.embeddings.shape != (config.cameras, config.embed_dim):
        raise ShapeMismatch(
            f"embeddings shape {obs.embeddings.shape} != "
            f"({config.cameras}, {config.embed_dim})"
        )
    if obs.proprio.shape != (config.proprio_dim,):
        raise ShapeMismatch(f"proprio shape {obs.proprio.shape} != ({config.proprio_dim},)")
    return np.concatenate([obs.embeddings.reshape(-1), obs.proprio])


def _stack_histories(histories, config):
    """Histories as their (len(histories), C, token_in_dim) stack of
    concatenated inputs, checked and then joined by one concatenate."""
    for history in histories:
        if len(history) != config.history_len:
            raise ShapeMismatch(f"history must have exactly {config.history_len} steps")
    tokens = [concat_observation(o, config) for history in histories for o in history]
    return np.concatenate(tokens).reshape(len(histories), config.history_len, config.token_in_dim)


def _forward(stacked, state, keep):
    """Stacked inputs (..., C, token_in_dim) -> chunks (..., K, action_dim),
    and the cache for `_backward` (None with `keep` false, which builds none
    and gives the same chunks bit for bit).

    The leading axes of the result are those of the inputs broadcast against
    any leading axes of the parameters, so a (B, *shape) stack of one
    weight, or a (B, 1, d) stack of one vector, gives B chunks."""
    config = state.config
    params = state.params
    projected, c_proj = _nn.mlp_fwd(stacked, params, "proj.", keep=keep)
    tokens = projected + _nn.sincos_1d(config.history_len, config.width)
    hidden, block_caches = _nn.transformer_fwd(
        tokens, params, config.layers, config.heads, keep=keep
    )
    flat, c_head = _nn.linear_fwd(hidden[..., -1:, :], params["head.weight"], params["head.bias"])
    chunk = flat.reshape(*flat.shape[:-2], config.chunk_len, config.action_dim)
    if not np.isfinite(chunk).all():
        raise NonFiniteActivation("policy produced non-finite values")
    return chunk, ((c_proj, block_caches, c_head) if keep else None)


def _backward(dchunk, cache, state):
    """Parameter gradients of <dchunk, chunk>, summed over the leading axes."""
    config = state.config
    c_proj, block_caches, c_head = cache
    lead = dchunk.shape[:-2]
    grads = {}
    dflat = dchunk.reshape(*lead, 1, config.chunk_len * config.action_dim)
    dlast, grads["head.weight"], grads["head.bias"] = _nn.linear_bwd(dflat, c_head)
    dhidden = np.zeros((*lead, config.history_len, config.width))
    dhidden[..., -1:, :] = dlast
    dtokens = _nn.transformer_bwd(dhidden, block_caches, grads)
    _nn.mlp_bwd(dtokens, c_proj, "proj.", grads)
    return grads


def policy_forward(history: Sequence[StepObservation], state: PolicyState) -> np.ndarray:
    """Predict the next K actions (K x action_dim) from the last C steps."""
    return _forward(_stack_histories([history], state.config)[0], state, keep=False)[0]


# ---------------------------------------------------------------------------
# loss and training
# ---------------------------------------------------------------------------

def bc_l1_loss(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mean absolute difference over the K * action_dim entries of each
    (..., K, action_dim) chunk: an array of the leading shape, a float64
    scalar for one chunk."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"chunk shapes differ: {pred.shape} vs {target.shape}")
    diff = np.abs(pred - target)
    return diff.reshape(*diff.shape[:-2], -1).mean(axis=-1)


def train_step(
    batch: Sequence[tuple[Sequence[StepObservation], np.ndarray]],
    state: PolicyState,
    opt: OptimizerConfig | None = None,
) -> tuple[PolicyState, float]:
    """One AdamW update on the mean batch loss; returns the pre-update loss.

    Every history and target is validated first; the whole batch then runs
    as one forward and one backward pass over a (B, C, token_in_dim) stack.
    The state's three vectors are updated in place, and the state is
    returned for chaining.
    """
    if not batch:
        raise ValueError("train_step requires a nonempty batch")
    opt = opt or OptimizerConfig()
    config = state.config
    chunk_shape = (config.chunk_len, config.action_dim)
    stacked = _stack_histories([history for history, _ in batch], config)
    targets = [np.asarray(target, dtype=np.float64) for _, target in batch]
    for target in targets:
        if target.shape != chunk_shape:
            raise ShapeMismatch(f"target shape {target.shape} != chunk {chunk_shape}")
    targets = np.stack(targets)

    chunks, cache = _forward(stacked, state, keep=True)
    total_loss = sum(bc_l1_loss(chunks, targets).tolist())  # in batch order
    scale = 1.0 / (len(batch) * config.chunk_len * config.action_dim)
    grads = _backward(np.sign(chunks - targets) * scale, cache, state)

    p, m, v = state.vectors
    if state._scratch is None:
        state._scratch = (np.empty(p.size), np.empty(p.size))
    g, a = state._scratch
    state.opt_step += 1
    t = state.opt_step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    # AdamW over whole vectors, in place, in the operation order of
    #   m = BETA1 * m + (1 - BETA1) * g
    #   v = BETA2 * v + (1 - BETA2) * g * g
    #   p -= lr * (m / bias1 / (sqrt(v / bias2) + EPS) + WEIGHT_DECAY * p),
    # so every entry gets the bits a per-tensor update gives it.
    np.concatenate([grads[name] for name in state.params], axis=None, out=g)
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=a)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=a)
    a *= g
    v += a
    np.divide(v, bias2, out=a)
    np.sqrt(a, out=a)
    a += EPS
    np.divide(m, bias1, out=g)
    g /= a
    g += np.multiply(p, WEIGHT_DECAY, out=a)
    g *= opt.learning_rate
    p -= g
    return state, total_loss / len(batch)

