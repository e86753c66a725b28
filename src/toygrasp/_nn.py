"""Float64 transformer building blocks with hand-derived backward passes.

Forward functions return (output, cache); backward functions consume the
cache and upstream gradient. Activations have shape (..., T, d): any number
of leading batch axes, T tokens, d channels; a single sequence is (T, d).
Parameters are never batched, and a backward pass returns each parameter
gradient summed over every leading axis. Attention supports a boolean
(T, T) allowed-pair matrix, shared by every sequence in a batch: disallowed
logits are replaced by the most negative finite float before the softmax,
so their weights underflow to exactly zero and no gradient crosses a
disallowed pair.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
NEG_LIMIT = float(np.finfo(np.float64).min)
LN_EPS = 1e-6
INIT_STD = 0.02


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def linear_fwd(x, w, b):
    return x @ w + b, (x, w)


def linear_bwd(dy, cache):
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, x2.T @ dy2, dy2.sum(axis=0)


def layernorm_fwd(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    d = dy.shape[-1]
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def gelu_fwd(x):
    return 0.5 * x * (1.0 + erf(x / _SQRT2)), x


def gelu_bwd(dy, x):
    return dy * (
        0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    )


def masked_softmax(logits, allowed):
    """Row softmax over the last axis; disallowed entries get weight exactly 0."""
    if allowed is not None:
        logits = np.where(allowed, logits, NEG_LIMIT)
    m = logits.max(axis=-1, keepdims=True)
    w = np.exp(logits - m)
    return w / w.sum(axis=-1, keepdims=True)


def softmax_bwd(da, a):
    inner = (da * a).sum(axis=-1, keepdims=True)
    return a * (da - inner)


def _split_heads(x, heads):
    """(..., T, d) -> (..., heads, T, d / heads)."""
    *lead, T, d = x.shape
    return x.reshape(*lead, T, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(xh):
    """(..., heads, T, dh) -> (..., T, heads * dh)."""
    *lead, heads, T, dh = xh.shape
    return xh.swapaxes(-2, -3).reshape(*lead, T, heads * dh)


def mha_fwd(x, params, prefix, heads, allowed):
    scale = 1.0 / math.sqrt(x.shape[-1] // heads)
    q, cq = linear_fwd(x, params[prefix + "w_q"], params[prefix + "b_q"])
    k, ck = linear_fwd(x, params[prefix + "w_k"], params[prefix + "b_k"])
    v, cv = linear_fwd(x, params[prefix + "w_v"], params[prefix + "b_v"])
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    logits = (qh @ kh.swapaxes(-1, -2)) * scale
    attn = masked_softmax(logits, allowed)
    o = _merge_heads(attn @ vh)
    y, co = linear_fwd(o, params[prefix + "w_o"], params[prefix + "b_o"])
    return y, (cq, ck, cv, co, qh, kh, vh, attn, scale, heads)


def mha_bwd(dy, cache, prefix, grads):
    cq, ck, cv, co, qh, kh, vh, attn, scale, heads = cache
    do, grads[prefix + "w_o"], grads[prefix + "b_o"] = linear_bwd(dy, co)
    doh = _split_heads(do, heads)
    dattn = doh @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ doh
    dlogits = softmax_bwd(dattn, attn) * scale
    dqh = dlogits @ kh
    dkh = dlogits.swapaxes(-1, -2) @ qh
    dx_q, grads[prefix + "w_q"], grads[prefix + "b_q"] = linear_bwd(_merge_heads(dqh), cq)
    dx_k, grads[prefix + "w_k"], grads[prefix + "b_k"] = linear_bwd(_merge_heads(dkh), ck)
    dx_v, grads[prefix + "w_v"], grads[prefix + "b_v"] = linear_bwd(_merge_heads(dvh), cv)
    return dx_q + dx_k + dx_v


def block_fwd(x, params, prefix, heads, allowed):
    """Pre-norm transformer block: x + attn(LN(x)), then x + mlp(LN(x))."""
    h1, c_ln1 = layernorm_fwd(x, params[prefix + "ln1.gamma"], params[prefix + "ln1.beta"])
    a, c_att = mha_fwd(h1, params, prefix + "attn.", heads, allowed)
    x1 = x + a
    h2, c_ln2 = layernorm_fwd(x1, params[prefix + "ln2.gamma"], params[prefix + "ln2.beta"])
    m1, c_fc1 = linear_fwd(h2, params[prefix + "mlp.w1"], params[prefix + "mlp.b1"])
    g, c_gelu = gelu_fwd(m1)
    m2, c_fc2 = linear_fwd(g, params[prefix + "mlp.w2"], params[prefix + "mlp.b2"])
    return x1 + m2, (c_ln1, c_att, c_ln2, c_fc1, c_gelu, c_fc2)


def block_bwd(dout, cache, prefix, grads):
    c_ln1, c_att, c_ln2, c_fc1, c_gelu, c_fc2 = cache
    dg, grads[prefix + "mlp.w2"], grads[prefix + "mlp.b2"] = linear_bwd(dout, c_fc2)
    dm1 = gelu_bwd(dg, c_gelu)
    dh2, grads[prefix + "mlp.w1"], grads[prefix + "mlp.b1"] = linear_bwd(dm1, c_fc1)
    dx1_ln, grads[prefix + "ln2.gamma"], grads[prefix + "ln2.beta"] = layernorm_bwd(dh2, c_ln2)
    dx1 = dout + dx1_ln
    dh1 = mha_bwd(dx1, c_att, prefix + "attn.", grads)
    dx_ln, grads[prefix + "ln1.gamma"], grads[prefix + "ln1.beta"] = layernorm_bwd(dh1, c_ln1)
    return dx1 + dx_ln


def transformer_fwd(tokens, params, layers, heads, allowed=None, prefix=""):
    caches = []
    x = tokens
    for i in range(layers):
        x, cache = block_fwd(x, params, f"{prefix}blocks.{i}.", heads, allowed)
        caches.append(cache)
    return x, caches


def transformer_bwd(dout, caches, layers, heads, grads, prefix=""):
    dx = dout
    for i in reversed(range(layers)):
        dx = block_bwd(dx, caches[i], f"{prefix}blocks.{i}.", grads)
    return dx


# ---------------------------------------------------------------------------
# fixed positional encodings and parameter init
# ---------------------------------------------------------------------------

def sincos_1d(positions, dim):
    """Fixed sinusoidal encoding; first half sines, second half cosines."""
    if dim % 2 != 0:
        raise ValueError("sinusoidal encoding needs an even dimension")
    half = dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half, dtype=np.float64) / half))
    args = np.outer(np.asarray(positions, dtype=np.float64), freqs)
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def sincos_2d(n_rows, n_cols, dim):
    """2-D grid encoding: half the channels encode the row, half the column."""
    if dim % 4 != 0:
        raise ValueError("2-D sinusoidal encoding needs dim divisible by 4")
    rows = np.repeat(np.arange(n_rows), n_cols)
    cols = np.tile(np.arange(n_cols), n_rows)
    return np.concatenate([sincos_1d(rows, dim // 2), sincos_1d(cols, dim // 2)], axis=1)


def init_block(rng, params, prefix, dim, mlp_hidden):
    params[prefix + "ln1.gamma"] = np.ones(dim)
    params[prefix + "ln1.beta"] = np.zeros(dim)
    for name in ("w_q", "w_k", "w_v", "w_o"):
        params[prefix + "attn." + name] = rng.normal(0.0, INIT_STD, (dim, dim))
    for name in ("b_q", "b_k", "b_v", "b_o"):
        params[prefix + "attn." + name] = np.zeros(dim)
    params[prefix + "ln2.gamma"] = np.ones(dim)
    params[prefix + "ln2.beta"] = np.zeros(dim)
    params[prefix + "mlp.w1"] = rng.normal(0.0, INIT_STD, (dim, mlp_hidden))
    params[prefix + "mlp.b1"] = np.zeros(mlp_hidden)
    params[prefix + "mlp.w2"] = rng.normal(0.0, INIT_STD, (mlp_hidden, dim))
    params[prefix + "mlp.b2"] = np.zeros(dim)


def zero_grads(params):
    return {name: np.zeros_like(value) for name, value in params.items()}


# ---------------------------------------------------------------------------
# finite-difference gradient verification
# ---------------------------------------------------------------------------

def finite_difference_check(
    loss_fn,
    arrays,
    analytic,
    step=1e-5,
    rel_tol=1e-5,
    abs_floor=1e-8,
    max_entries_per_tensor=None,
    rng=None,
):
    """Central-difference check of analytic gradients.

    `arrays` maps names to ndarrays that `loss_fn()` reads; entries are
    perturbed in place and restored. An entry passes when
    |fd - analytic| <= max(rel_tol * max(|fd|, |analytic|), abs_floor).

    Returns (entries_checked, worst_excess, failures, worst_entry):
    worst_excess is the largest ratio of |fd - analytic| to its allowed
    tolerance (< 1 passes), failures lists (name, flat_index, analytic, fd),
    and worst_entry is the (name, flat_index) of the worst ratio, or None
    when no entry was checked.
    """
    failures = []
    worst = 0.0
    worst_entry = None
    checked = 0
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        if max_entries_per_tensor is not None and flat.size > max_entries_per_tensor:
            picker = rng if rng is not None else np.random.default_rng(0)
            indices = picker.choice(flat.size, size=max_entries_per_tensor, replace=False)
        else:
            indices = range(flat.size)
        for i in indices:
            original = flat[i]
            flat[i] = original + step
            f_plus = loss_fn()
            flat[i] = original - step
            f_minus = loss_fn()
            flat[i] = original
            g_fd = (f_plus - f_minus) / (2.0 * step)
            g_an = float(grad_flat[i])
            err = abs(g_fd - g_an)
            tolerance = max(rel_tol * max(abs(g_fd), abs(g_an)), abs_floor)
            if worst_entry is None or err / tolerance > worst:
                worst, worst_entry = err / tolerance, (name, int(i))
            checked += 1
            if err > tolerance:
                failures.append((name, int(i), g_an, g_fd))
    return checked, worst, failures, worst_entry
