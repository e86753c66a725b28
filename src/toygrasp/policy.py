"""History-conditioned action-chunk policy with behavior-cloning training.

Each timestep's camera embeddings and proprioception concatenate into one
token; a small pre-norm transformer reads the C-token history with full
attention and a linear head maps the last position to the next K actions.
Training minimizes the mean absolute error over the chunk with decoupled
weight decay; gradients are exact reverse-mode in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _nn
from .errors import NonFiniteActivation, SchemaViolation, ShapeMismatch
from .io import load_tensors, save_tensors

#: An action chunk is a (chunk_len, action_dim) float64 array of absolute
#: joint targets.
ActionChunk = np.ndarray


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
        for name in ("history_len", "chunk_len", "action_dim", "proprio_dim", "cameras"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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

    def to_dict(self) -> dict:
        return {
            "history_len": self.history_len,
            "chunk_len": self.chunk_len,
            "action_dim": self.action_dim,
            "proprio_dim": self.proprio_dim,
            "cameras": self.cameras,
            "embed_dim": self.embed_dim,
            "layers": self.layers,
            "width": self.width,
            "heads": self.heads,
            "mlp_ratio": self.mlp_ratio,
        }


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
    config: PolicyConfig
    seed: int
    params: dict[str, np.ndarray] = field(repr=False)
    opt_m: dict[str, np.ndarray] = field(repr=False)
    opt_v: dict[str, np.ndarray] = field(repr=False)
    opt_step: int = 0


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam with decoupled weight decay."""

    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_policy(config: PolicyConfig, seed: int = 0) -> PolicyState:
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    params["proj.w1"] = rng.normal(0.0, _nn.INIT_STD, (config.token_in_dim, config.width))
    params["proj.b1"] = np.zeros(config.width)
    params["proj.w2"] = rng.normal(0.0, _nn.INIT_STD, (config.width, config.width))
    params["proj.b2"] = np.zeros(config.width)
    for i in range(config.layers):
        _nn.init_block(rng, params, f"blocks.{i}.", config.width, config.mlp_hidden)
    params["head.weight"] = rng.normal(
        0.0, _nn.INIT_STD, (config.width, config.chunk_len * config.action_dim)
    )
    params["head.bias"] = np.zeros(config.chunk_len * config.action_dim)
    return PolicyState(
        config=config,
        seed=seed,
        params=params,
        opt_m={k: np.zeros_like(v) for k, v in params.items()},
        opt_v={k: np.zeros_like(v) for k, v in params.items()},
    )


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


def _project(x, params):
    h1, c1 = _nn.linear_fwd(x, params["proj.w1"], params["proj.b1"])
    g, cg = _nn.gelu_fwd(h1)
    out, c2 = _nn.linear_fwd(g, params["proj.w2"], params["proj.b2"])
    return out, (c1, cg, c2)


def _project_bwd(dout, cache, grads):
    c1, cg, c2 = cache
    dg, grads["proj.w2"], grads["proj.b2"] = _nn.linear_bwd(dout, c2)
    dh1 = _nn.gelu_bwd(dg, cg)
    dx, grads["proj.w1"], grads["proj.b1"] = _nn.linear_bwd(dh1, c1)
    return dx


def assemble_token(obs: StepObservation, state: PolicyState) -> np.ndarray:
    """Concatenate one step's inputs and project into the backbone width."""
    x = concat_observation(obs, state.config)[None, :]
    out, _ = _project(x, state.params)
    return out[0]


def _stack_history(history, config):
    """One history as its (C, token_in_dim) stack of concatenated inputs."""
    if len(history) != config.history_len:
        raise ShapeMismatch(f"history must have exactly {config.history_len} steps")
    return np.stack([concat_observation(o, config) for o in history])


def _forward(stacked, state):
    """Stacked inputs (..., C, token_in_dim) -> chunks (..., K, action_dim)."""
    config = state.config
    projected, c_proj = _project(stacked, state.params)
    tokens = projected + _nn.sincos_1d(np.arange(config.history_len), config.width)
    hidden, block_caches = _nn.transformer_fwd(
        tokens, state.params, config.layers, config.heads, allowed=None
    )
    last = hidden[..., -1:, :]
    flat, c_head = _nn.linear_fwd(last, state.params["head.weight"], state.params["head.bias"])
    chunk = flat.reshape(*stacked.shape[:-2], config.chunk_len, config.action_dim)
    if not np.isfinite(chunk).all():
        raise NonFiniteActivation("policy produced non-finite values")
    return chunk, (c_proj, block_caches, c_head)


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
    dtokens = _nn.transformer_bwd(dhidden, block_caches, config.layers, config.heads, grads)
    _project_bwd(dtokens, c_proj, grads)
    return grads


def policy_forward(history: Sequence[StepObservation], state: PolicyState) -> np.ndarray:
    """Predict the next K actions (K x action_dim) from the last C steps."""
    chunk, _ = _forward(_stack_history(history, state.config), state)
    return chunk


def policy_grad(
    history: Sequence[StepObservation],
    state: PolicyState,
    upstream: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact gradients of <upstream, policy_forward(...)> for all parameters."""
    upstream = np.asarray(upstream, dtype=np.float64)
    config = state.config
    if upstream.shape != (config.chunk_len, config.action_dim):
        raise ShapeMismatch("upstream must match the chunk shape")
    _, cache = _forward(_stack_history(history, config), state)
    return _backward(upstream, cache, state)


# ---------------------------------------------------------------------------
# loss and training
# ---------------------------------------------------------------------------

def bc_l1_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute difference over all K * action_dim entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"chunk shapes differ: {pred.shape} vs {target.shape}")
    return float(np.abs(pred - target).mean())


def train_step(
    batch: Sequence[tuple[Sequence[StepObservation], np.ndarray]],
    state: PolicyState,
    opt: OptimizerConfig | None = None,
) -> tuple[PolicyState, float]:
    """One AdamW update on the mean batch loss; returns the pre-update loss.

    Every history and target is validated first; the whole batch then runs
    as one forward and one backward pass over a (B, C, token_in_dim) stack.
    The state is updated in place and returned for chaining.
    """
    if not batch:
        raise ValueError("train_step requires a nonempty batch")
    opt = opt or OptimizerConfig()
    config = state.config
    chunk_shape = (config.chunk_len, config.action_dim)
    stacked = np.stack([_stack_history(history, config) for history, _ in batch])
    targets = [np.asarray(target, dtype=np.float64) for _, target in batch]
    for target in targets:
        if target.shape != chunk_shape:
            raise ShapeMismatch(f"target shape {target.shape} != chunk {chunk_shape}")
    targets = np.stack(targets)

    chunks, cache = _forward(stacked, state)
    total_loss = sum(bc_l1_loss(chunk, target) for chunk, target in zip(chunks, targets))
    scale = 1.0 / (len(batch) * config.chunk_len * config.action_dim)
    grads = _backward(np.sign(chunks - targets) * scale, cache, state)

    state.opt_step += 1
    t = state.opt_step
    bias1 = 1.0 - opt.beta1**t
    bias2 = 1.0 - opt.beta2**t
    for name, param in state.params.items():
        g = grads[name]
        state.opt_m[name] = opt.beta1 * state.opt_m[name] + (1.0 - opt.beta1) * g
        state.opt_v[name] = opt.beta2 * state.opt_v[name] + (1.0 - opt.beta2) * g * g
        m_hat = state.opt_m[name] / bias1
        v_hat = state.opt_v[name] / bias2
        param -= opt.learning_rate * (
            m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * param
        )
    return state, total_loss / len(batch)


# ---------------------------------------------------------------------------
# serialization and training curves
# ---------------------------------------------------------------------------

def save_policy_state(state: PolicyState, path) -> None:
    tensors = dict(state.params)
    for name, value in state.opt_m.items():
        tensors[f"opt.m.{name}"] = value
    for name, value in state.opt_v.items():
        tensors[f"opt.v.{name}"] = value
    meta = {
        "kind": "policy",
        "seed": state.seed,
        "opt_step": state.opt_step,
        "config": state.config.to_dict(),
    }
    save_tensors(path, tensors, meta)


def load_policy_state(path) -> PolicyState:
    tensors, meta = load_tensors(path)
    if meta.get("kind") != "policy":
        raise SchemaViolation(f"blob is not a policy state: kind={meta.get('kind')!r}")
    config = PolicyConfig(**meta["config"])
    params = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    opt_m = {k[len("opt.m."):]: v for k, v in tensors.items() if k.startswith("opt.m.")}
    opt_v = {k[len("opt.v."):]: v for k, v in tensors.items() if k.startswith("opt.v.")}
    return PolicyState(
        config=config,
        seed=meta["seed"],
        params=params,
        opt_m=opt_m,
        opt_v=opt_v,
        opt_step=meta["opt_step"],
    )


def write_training_curve(rows: Sequence[tuple[int, float]], path) -> None:
    """CSV of (step, loss), one row per recorded step."""
    lines = ["step,loss"] + [f"{step},{loss!r}" for step, loss in rows]
    Path(path).write_text("\n".join(lines) + "\n")
