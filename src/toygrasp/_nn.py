"""Float64 transformer building blocks with hand-derived backward passes.

A block stack of `layers` pre-norm blocks is 2 * layers residual
sublayers x + f(LN(x)), attention and MLP in turn (Xiong et al., "On Layer
Normalization in the Transformer Architecture", ICML 2020).
`sublayer_prefixes` alone names each sublayer's parameters, and
`transformer_shapes` lays them out. Forward functions return (output,
cache); backward functions consume the cache and upstream gradient, so a
backward pass runs over the caches of any forward run, resumed or not.
Each forward function takes `keep`: where no backward pass follows,
`keep=False` builds no cache (None stands in its place), frees each
sublayer's temporaries as soon as it returns, and overwrites in place the
ones a cache would have held. The output is the same bit for bit either
way; the two differ only in where they write. A pass without a cache may
also name the output rows its caller reads (`transformer_fwd`'s `rows`):
the last block then computes only those, over the keys and values of every
row, and the output holds only them. A row so computed may differ from the
full pass's in the last bits, since the BLAS may round a row of a short
matrix product differently from the same row of a long one; compare such
a pass only with passes that name the same rows.
`init_params` lays a model's parameter table out in one float64 vector, in
table order, and returns each tensor as a view of it (`views`), so an
optimizer can update whole vectors.
Activations have shape (..., T, d): any number of leading batch axes, T
tokens, d channels; a single sequence is (T, d).
A forward pass also accepts one batched parameter: a (B, d_in, d_out)
stack of weights or a (B, 1, d) stack of vectors broadcasts like a leading
batch axis, so B perturbed copies of one tensor run in one pass (the
finite-difference sweep does this). Backward passes stay unbatched in the
parameters, and return each parameter gradient summed over every leading
axis of the activations. Attention supports a boolean
(T, T) allowed-pair matrix, shared by every sequence in a batch: disallowed
logits are replaced by the most negative finite float before the softmax,
so their weights underflow to exactly zero and no gradient crosses a
disallowed pair.

GELU's erf is computed here, not imported from scipy, so that only the
commands that need scipy load it. It is Cephes' `ndtr.c` erf (Moshier,
*Methods and Programs for Mathematical Functions*, 1989), step for step
as scipy.special evaluates it, and gives scipy's bits: t P(t^2) / Q(t^2)
for |t| <= 1, 1 - exp(-t^2) P(|t|) / Q(|t|) with the sign of t below 6,
exactly ±1 from 6 on (erfc(6) < 2^-54), and NaN for NaN. The exp is the C
library's (`math.exp`), as in scipy; numpy's vectorised exp differs from
it in the last bit on a few percent of arguments. erf keeps two
module-level scratch buffers, grown to the largest input seen, because the
allocator maps and unmaps fresh full-size temporaries on every call. The
buffers make erf non-reentrant; toygrasp is single-threaded.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
NEG_LIMIT = float(np.finfo(np.float64).min)
LN_EPS = 1e-6
INIT_STD = 0.02
#: Widest MLP hidden layer a model config may ask for: 64 times the default
#: encoder's and policy's 256, so a (64, MAX_MLP_HIDDEN) weight is 8 MB.
MAX_MLP_HIDDEN = 16384


def check_mlp_ratio(dim_name, dim, ratio):
    """Reject an `mlp_ratio` for which int(dim * ratio), the MLP's hidden
    width, is not from 1 to MAX_MLP_HIDDEN; NaN is rejected too."""
    if not 1 <= dim * ratio < MAX_MLP_HIDDEN + 1:
        raise ValueError(
            f"mlp_ratio {ratio!r} must make int({dim_name} * mlp_ratio) "
            f"from 1 to {MAX_MLP_HIDDEN}"
        )


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _into(op, fresh, other):
    """`op(fresh, other)` for a binary ufunc `op`, written into `fresh`, a
    temporary the caller owns, when the result has its shape. The forward
    passes work in place where they can: each temporary of a batched pass is
    large enough that the allocator maps it fresh, and a full
    finite-difference sweep spent about a third of its time in the page
    faults that followed."""
    try:
        return op(fresh, other, out=fresh)
    except ValueError:  # `other` carries a batch axis that `fresh` lacks
        return op(fresh, other)


def linear_fwd(x, w, b):
    return _into(np.add, x @ w, b), (x, w)


def linear_bwd(dy, cache):
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, x2.T @ dy2, dy2.sum(axis=0)


def _last_axis_mean(x):
    """`x.mean(axis=-1, keepdims=True)`, bit for bit: the same sum and
    divide without numpy's Python-level `_mean` wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layernorm_fwd(x, gamma, beta, keep=True):
    """gamma * xhat + beta; with `keep` false the product overwrites xhat,
    which no cache then holds."""
    mu = _last_axis_mean(x)
    xc = x - mu
    var = _last_axis_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xc *= inv
    xhat = xc
    if not keep:
        return _into(np.add, _into(np.multiply, xhat, gamma), beta), None
    return _into(np.add, gamma * xhat, beta), (xhat, inv, gamma)


def layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    d = dy.shape[-1]
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gamma
    m1 = _last_axis_mean(dxhat)
    m2 = _last_axis_mean(dxhat * xhat)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


# Cephes `ndtr.c` coefficients, leading first. A monic polynomial's
# leading 1 is written out: 1 * x is exact, so Horner's rule on it is
# Cephes' p1evl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_ONE_FROM = 6.0
_scratch = [np.empty(0), np.empty(0)]


def _polevl(x, coefs, out):
    """Cephes' polevl: the polynomial by Horner's rule, leading coefficient
    first, written into `out` (a new array when None)."""
    out = np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf_tail(t):
    """erf of elements with |t| > 1, as Cephes gets it: 1 - erfc(|t|) with
    the sign of `t`, where erfc(a) = exp(-a^2) P(a) / Q(a) below 6."""
    result = np.abs(t)
    mid = result < _ERF_ONE_FROM
    a = result[mid]
    result[~mid] = 1.0
    exp = np.fromiter(map(math.exp, -(a * a)), np.float64, a.size)
    erfc = _polevl(a, _ERFC_P, None)
    erfc *= exp
    erfc /= _polevl(a, _ERFC_Q, exp)
    result[mid] = np.subtract(1.0, erfc, out=erfc)
    return np.copysign(result, t, out=result)


def erf(t, out):
    """scipy.special.erf of float64 `t`, bit for bit, written into `out`
    (which may be `t`); see the module docstring."""
    n = t.size
    if _scratch[0].size < n:
        _scratch[:] = [np.empty(n), np.empty(n)]
    z, poly = (buffer[:n].reshape(t.shape) for buffer in _scratch)
    np.absolute(t, out=z)
    big = None
    if n and not z.max() <= 1.0:  # a NaN anywhere makes the max NaN
        big = z > 1.0  # a NaN, not among them, stays NaN in the |t| <= 1 formula
        tail = _erf_tail(t[big])
        # Zeros keep the |t| <= 1 formula finite where its result is unused.
        np.copyto(out, t)
        t = out
        t[big] = z[big] = 0.0
    z *= z  # t * t, bit for bit
    np.multiply(t, _polevl(z, _ERF_T, poly), out=out)
    out /= _polevl(z, _ERF_U, poly)
    if big is not None:
        out[big] = tail
    return out


def gelu_fwd(x, keep=True):
    """0.5 * x * (1 + erf(x / sqrt 2)), in that order. The cache holds `x`
    and the `1 + erf` factor, so `gelu_bwd` computes no erf; with `keep`
    false the output overwrites `x`, and the factor is the one temporary."""
    t = x / _SQRT2
    erf(t, out=t)
    t += 1.0
    y = 0.5 * x if keep else np.multiply(x, 0.5, out=x)
    y *= t
    return y, ((x, t) if keep else None)


def gelu_bwd(dy, cache):
    x, one_plus_erf = cache
    return dy * (0.5 * one_plus_erf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI)


def masked_softmax(logits, allowed):
    """Row softmax over the last axis, written over `logits`, a temporary the
    caller owns; disallowed entries get weight exactly 0."""
    if allowed is not None:
        np.copyto(logits, NEG_LIMIT, where=~allowed)
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


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


def mha_fwd(x, params, prefix, heads, allowed, keep=True, rows=None):
    """Multi-head attention over `x`. With `rows` (an index array over the T
    axis), only those rows of the output are computed: their queries attend
    the keys and values of every row of `x` through `allowed[rows]`."""
    scale = 1.0 / math.sqrt(x.shape[-1] // heads)
    x_q = x
    if rows is not None:
        x_q = x[..., rows, :]
        allowed = None if allowed is None else allowed[rows]
    q, cq = linear_fwd(x_q, params[prefix + "w_q"], params[prefix + "b_q"])
    # No key bias: it would add one constant to each query's logits, which
    # the softmax removes, so its exact gradient is 0.
    w_k = params[prefix + "w_k"]
    k, ck = x @ w_k, (x, w_k)
    v, cv = linear_fwd(x, params[prefix + "w_v"], params[prefix + "b_v"])
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    logits = qh @ kh.swapaxes(-1, -2)
    logits *= scale
    attn = masked_softmax(logits, allowed)
    o = _merge_heads(attn @ vh)
    y, co = linear_fwd(o, params[prefix + "w_o"], params[prefix + "b_o"])
    return y, ((cq, ck, cv, co, qh, kh, vh, attn, scale, heads) if keep else None)


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
    dx_k, grads[prefix + "w_k"], _ = linear_bwd(_merge_heads(dkh), ck)
    dx_v, grads[prefix + "w_v"], grads[prefix + "b_v"] = linear_bwd(_merge_heads(dvh), cv)
    return dx_q + dx_k + dx_v


def mlp_fwd(x, params, prefix, keep=True):
    """Linear, GELU, linear, with parameters `<prefix>w1`, `b1`, `w2`, `b2`."""
    h, c_fc1 = linear_fwd(x, params[prefix + "w1"], params[prefix + "b1"])
    g, c_gelu = gelu_fwd(h, keep=keep)
    y, c_fc2 = linear_fwd(g, params[prefix + "w2"], params[prefix + "b2"])
    return y, ((c_fc1, c_gelu, c_fc2) if keep else None)


def mlp_bwd(dy, cache, prefix, grads):
    c_fc1, c_gelu, c_fc2 = cache
    dg, grads[prefix + "w2"], grads[prefix + "b2"] = linear_bwd(dy, c_fc2)
    dh = gelu_bwd(dg, c_gelu)
    dx, grads[prefix + "w1"], grads[prefix + "b1"] = linear_bwd(dh, c_fc1)
    return dx


def sublayer_prefixes(s):
    """The parameter-name prefixes of residual sublayer `s` of a block stack,
    its layer norm's and then its function's: block s // 2's `ln1.` and
    `attn.` for even `s`, its `ln2.` and `mlp.` for odd `s`. No other code
    names a block's parameters."""
    block = f"blocks.{s // 2}."
    return (block + "ln2.", block + "mlp.") if s % 2 else (block + "ln1.", block + "attn.")


def sublayer_fwd(s, x, params, heads, allowed, keep=True, rows=None):
    """Residual sublayer `s` of a block stack, x + f(LN(x)), where f is
    attention for even `s` and the MLP for odd `s`; `x` is not written. The
    cache starts with `s`, so `sublayer_bwd` needs nothing else. With `rows`
    (an index array over the T axis) the output holds only those rows: the
    MLP sublayer, which works row by row, runs on them alone, and attention
    computes only their queries, over the keys and values of every row."""
    ln, f = sublayer_prefixes(s)
    residual = x if rows is None else x[..., rows, :]
    h, c_ln = layernorm_fwd(
        residual if s % 2 else x, params[ln + "gamma"], params[ln + "beta"], keep=keep
    )
    if s % 2:
        y, c_f = mlp_fwd(h, params, f, keep=keep)
    else:
        y, c_f = mha_fwd(h, params, f, heads, allowed, keep=keep, rows=rows)
    return _into(np.add, y, residual), ((s, c_ln, c_f) if keep else None)


def sublayer_bwd(dout, cache, grads):
    """Backward through one `sublayer_fwd`; writes its parameters' gradients
    into `grads` and returns the input's."""
    s, c_ln, c_f = cache
    ln, f = sublayer_prefixes(s)
    dh = (mlp_bwd if s % 2 else mha_bwd)(dout, c_f, f, grads)
    dx, grads[ln + "gamma"], grads[ln + "beta"] = layernorm_bwd(dh, c_ln)
    return dout + dx


def transformer_fwd(x, params, layers, heads, allowed=None, start=0, keep=True, rows=None):
    """Run sublayers `start` onward on `x`; a later `start` resumes a pass at
    that sublayer's input. Returns the output and, with `keep`, one cache per
    sublayer run for `transformer_bwd`; without `keep` it returns None for
    the caches. `x` is never written.

    `rows` (an index array or a slice over the T axis) names the rows of the
    output that the caller reads, and the output then holds only those
    rows. The last block computes only them: its attention queries,
    softmax, value mix and output projection, and its whole MLP sublayer.
    Its first layer norm, keys and values still cover every row, so each
    read row attends the full sequence through `allowed`, and every earlier
    block runs on every row. A read row may differ from the full pass's in
    the last bits (see the module docstring). `rows` needs `keep` false: a
    backward pass reads every row's cache."""
    if rows is not None and keep:
        raise ValueError("rows needs keep=False: a backward pass reads every row's cache")
    if rows is not None and start == 2 * layers:
        x = x[..., rows, :]
    prune_at = max(start, 2 * layers - 2)
    caches = []
    for s in range(start, 2 * layers):
        x, cache = sublayer_fwd(
            s, x, params, heads, allowed, keep=keep, rows=rows if s == prune_at else None
        )
        caches.append(cache)
    return x, (caches if keep else None)


def transformer_bwd(dout, caches, grads):
    """Backward through the sublayers of a `transformer_fwd` run, last first."""
    for cache in reversed(caches):
        dout = sublayer_bwd(dout, cache, grads)
    return dout


# ---------------------------------------------------------------------------
# fixed positional encodings and parameter init
# ---------------------------------------------------------------------------

def _read_only(table):
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def sincos_1d(n, dim):
    """Fixed sinusoidal encoding of positions 0 to n - 1, first half sines,
    second half cosines. Each table is built once per shape and shared
    read-only: building the 2-D one took about a fifth of a compact Det
    `encode` at the default size."""
    if dim % 2 != 0:
        raise ValueError("sinusoidal encoding needs an even dimension")
    half = dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half, dtype=np.float64) / half))
    args = np.outer(np.arange(n, dtype=np.float64), freqs)
    return _read_only(np.concatenate([np.sin(args), np.cos(args)], axis=1))


@lru_cache(maxsize=8)
def sincos_2d(n_rows, n_cols, dim):
    """Row-major grid encoding, cached and read-only like `sincos_1d`: half
    the channels encode the row, half the column."""
    if dim % 4 != 0:
        raise ValueError("2-D sinusoidal encoding needs dim divisible by 4")
    rows = np.repeat(sincos_1d(n_rows, dim // 2), n_cols, axis=0)
    cols = np.tile(sincos_1d(n_cols, dim // 2), (n_rows, 1))
    return _read_only(np.concatenate([rows, cols], axis=1))


def mlp_shapes(prefix, dim_in, hidden, dim_out):
    """Parameter table of an `mlp_fwd`: name -> (shape, fill); see `init_params`."""
    return {
        prefix + "w1": ((dim_in, hidden), None),
        prefix + "b1": ((hidden,), 0.0),
        prefix + "w2": ((hidden, dim_out), None),
        prefix + "b2": ((dim_out,), 0.0),
    }


def transformer_shapes(layers, dim, hidden):
    """Parameter table of a stack of `layers` pre-norm blocks of width `dim`
    and MLP width `hidden`: name -> (shape, fill), block by block."""
    table = {}
    for s in range(2 * layers):
        ln, f = sublayer_prefixes(s)
        table[ln + "gamma"] = ((dim,), 1.0)
        table[ln + "beta"] = ((dim,), 0.0)
        if s % 2:
            table.update(mlp_shapes(f, dim, hidden, dim))
        else:
            table.update({f + name: ((dim, dim), None) for name in ("w_q", "w_k", "w_v", "w_o")})
            table.update({f + name: ((dim,), 0.0) for name in ("b_q", "b_v", "b_o")})
    return table


def views(vector, table):
    """Consecutive views of `vector`, one per name of a (shape, fill) table."""
    out, start = {}, 0
    for name, (shape, _) in table.items():
        size = math.prod(shape)
        out[name] = vector[start : start + size].reshape(shape)
        start += size
    return out


def init_params(rng, table):
    """Parameters of a name -> (shape, fill) table, in table order: a tensor
    with fill None is drawn from N(0, INIT_STD^2), in that order, and any
    other is filled with its constant. The tensors are the `views` of one
    float64 vector, which is each tensor's `base`."""
    params = views(np.empty(sum(math.prod(shape) for shape, _ in table.values())), table)
    for name, (shape, fill) in table.items():
        params[name][...] = rng.normal(0.0, INIT_STD, shape) if fill is None else fill
    return params


# ---------------------------------------------------------------------------
# finite-difference gradient verification
# ---------------------------------------------------------------------------

#: Central-difference step, and the relative tolerance and absolute floor
#: an entry's error is held to (see `finite_difference_check`).
FD_STEP = 1e-5
FD_REL_TOL = 1e-5
FD_ABS_FLOOR = 1e-8
#: Entries per batched loss call: each call evaluates 2 * FD_CHUNK
#: perturbed copies of one tensor, which bounds the sweep's memory.
FD_CHUNK = 32


def _one_copy_at_a_time(loss_fn, arrays):
    """A zero-argument `loss_fn` as a batched loss: each copy is written
    into `arrays[name]` in turn, and the array is restored afterwards."""

    def batched_loss(name, stack):
        array = arrays[name]
        original = array.copy()
        try:
            losses = []
            for copy in stack:
                array[...] = copy
                losses.append(loss_fn())
        finally:
            array[...] = original
        return losses

    return batched_loss


def finite_difference_check(
    loss_fn, arrays, analytic, max_entries_per_tensor=None, rng=None, batched_loss=None
):
    """Central-difference check of analytic gradients.

    `arrays` maps names to ndarrays that `loss_fn()` reads. `batched_loss`,
    when given, is used in place of `loss_fn`: `batched_loss(name, stack)`
    gets a (B, *shape) stack of perturbed copies of `arrays[name]` and
    returns the B losses. Without it, `loss_fn` sees each copy in place and
    the array is restored. Entries go through in chunks of FD_CHUNK, the
    copies of entry i holding its value +FD_STEP and -FD_STEP. An entry
    passes when |fd - analytic| <= max(FD_REL_TOL * max(|fd|, |analytic|),
    FD_ABS_FLOOR), so a non-finite loss fails. With
    `max_entries_per_tensor` set, `rng` picks that many entries of each
    larger tensor.

    Returns (entries_checked, worst_excess, failures, worst_entry):
    worst_excess is the largest ratio of |fd - analytic| to its allowed
    tolerance (< 1 passes), failures lists (name, flat_index, analytic, fd),
    and worst_entry is the (name, flat_index) of the worst ratio, or None
    when no entry was checked.
    """
    if batched_loss is None:
        batched_loss = _one_copy_at_a_time(loss_fn, arrays)
    failures = []
    worst = 0.0
    worst_entry = None
    checked = 0
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        if max_entries_per_tensor is not None and flat.size > max_entries_per_tensor:
            indices = rng.choice(flat.size, size=max_entries_per_tensor, replace=False)
        else:
            indices = np.arange(flat.size)
        for start in range(0, len(indices), FD_CHUNK):
            chunk = indices[start : start + FD_CHUNK]
            rows = np.arange(len(chunk))
            stack = np.repeat(arr[None], 2 * len(chunk), axis=0)
            copies = stack.reshape(2 * len(chunk), -1)
            copies[2 * rows, chunk] = flat[chunk] + FD_STEP
            copies[2 * rows + 1, chunk] = flat[chunk] - FD_STEP
            losses = np.asarray(batched_loss(name, stack), dtype=np.float64)
            g_fd = (losses[0::2] - losses[1::2]) / (2.0 * FD_STEP)
            g_an = grad_flat[chunk]
            err = np.abs(g_fd - g_an)
            tolerance = np.maximum(
                FD_REL_TOL * np.maximum(np.abs(g_fd), np.abs(g_an)), FD_ABS_FLOOR
            )
            ratio = err / tolerance
            j = int(np.argmax(ratio))
            if worst_entry is None or ratio[j] > worst:
                worst, worst_entry = float(ratio[j]), (name, int(chunk[j]))
            checked += len(chunk)
            failures += [
                (name, int(chunk[k]), float(g_an[k]), float(g_fd[k]))
                for k in np.flatnonzero(~(err <= tolerance))  # a NaN error fails too
            ]
    return checked, worst, failures, worst_entry
