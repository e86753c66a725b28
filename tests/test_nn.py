import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf as scipy_erf  # the oracle; `_nn` does not import scipy

from conftest import REORDER_C, U
from toygrasp import _nn

DIM = 8
MLP_HIDDEN = 16
LAYERS = 2


def random_params(rng):
    # Unit-scale weights, so the blocks mix strongly and any batching slip shows.
    params = _nn.init_params(rng, _nn.transformer_shapes(LAYERS, DIM, MLP_HIDDEN))
    return {name: rng.normal(size=value.shape) for name, value in params.items()}


class TestTransformerShapes:
    """The parameter layout, pinned without any matrix product: the order
    fixes `init_params`' draws, so every model's initial tensors."""

    def test_equals_the_literal_block_layout(self):
        d, h = 8, 16
        expected = []
        for i in range(2):
            b = f"blocks.{i}."
            expected += [
                (b + "ln1.gamma", (d,), 1.0),
                (b + "ln1.beta", (d,), 0.0),
                (b + "attn.w_q", (d, d), None),
                (b + "attn.w_k", (d, d), None),
                (b + "attn.w_v", (d, d), None),
                (b + "attn.w_o", (d, d), None),
                (b + "attn.b_q", (d,), 0.0),
                (b + "attn.b_v", (d,), 0.0),
                (b + "attn.b_o", (d,), 0.0),
                (b + "ln2.gamma", (d,), 1.0),
                (b + "ln2.beta", (d,), 0.0),
                (b + "mlp.w1", (d, h), None),
                (b + "mlp.b1", (h,), 0.0),
                (b + "mlp.w2", (h, d), None),
                (b + "mlp.b2", (d,), 0.0),
            ]
        table = _nn.transformer_shapes(2, d, h)
        assert [(name, shape, fill) for name, (shape, fill) in table.items()] == expected

    def test_sublayer_prefixes_cover_the_table(self):
        # Every tensor starts with exactly one sublayer's prefixes.
        for name in _nn.transformer_shapes(3, 8, 16):
            owners = [s for s in range(6) if name.startswith(_nn.sublayer_prefixes(s))]
            assert len(owners) == 1, name
        assert _nn.sublayer_prefixes(2) == ("blocks.1.ln1.", "blocks.1.attn.")
        assert _nn.sublayer_prefixes(5) == ("blocks.2.ln2.", "blocks.2.mlp.")


def reference_layernorm_fwd(x, gamma, beta):
    # The formula with numpy's `.mean`, as `_nn` computed it before.
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _nn.LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def reference_layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    d = dy.shape[-1]
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def assert_close_to(actual, expected, scale=None):
    # Within 1e-14 of the tensor's largest magnitude (or of `scale`).
    scale = float(np.abs(expected).max()) if scale is None else scale
    assert np.abs(actual - expected).max() <= 1e-14 * scale


def absolute_gradient_sums(dout, caches):
    """Per parameter entry, the sum of |term| over every term the backward
    pass adds into that entry's gradient: |x|^T |dy| for a weight, sum |dy|
    for a bias or beta, sum |dy * xhat| for a gamma. The flow of dx is the
    real backward pass's."""
    linear_bwd, layernorm_bwd = _nn.linear_bwd, _nn.layernorm_bwd

    def abs_linear_bwd(dy, cache):
        x = cache[0]
        x2 = np.abs(x.reshape(-1, x.shape[-1]))
        dy2 = np.abs(dy.reshape(-1, dy.shape[-1]))
        return linear_bwd(dy, cache)[0], x2.T @ dy2, dy2.sum(axis=0)

    def abs_layernorm_bwd(dy, cache):
        d = dy.shape[-1]
        dy2 = np.abs(dy.reshape(-1, d))
        xhat2 = np.abs(cache[0].reshape(-1, d))
        return layernorm_bwd(dy, cache)[0], (dy2 * xhat2).sum(axis=0), dy2.sum(axis=0)

    sums = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_nn, "linear_bwd", abs_linear_bwd)
        patch.setattr(_nn, "layernorm_bwd", abs_layernorm_bwd)
        _nn.transformer_bwd(dout, caches, sums)
    return sums


class TestLeadingBatchAxis:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 5),
        tokens=st.integers(1, 6),
        heads=st.sampled_from([1, 2, 4]),
        masked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_per_sample(self, batch, tokens, heads, masked, seed):
        # Each batched parameter gradient is one sum over the n = batch *
        # tokens terms of every sample (x[b, t, i] * dy[b, t, j] for a
        # weight, dy[b, t, j] for a bias, dy * xhat for a gamma); the
        # per-sample path sums the same n terms, T per sample and then over
        # the samples. The rows of every activation and of dy are the same in
        # both paths: a product with leading axes runs one product per
        # sample, and reductions run along the last axis (the out and dx
        # assertions check this). Summed in any order, n terms carry at most
        # n roundings each, so each result is within gamma_n * sum|terms| of
        # the exact sum, gamma_n = n * u / (1 - n * u), u = 2^-53 (Higham,
        # "Accuracy and Stability of Numerical Algorithms", 2nd ed., 2002,
        # eq. 3.5 and Lemma 3.1). Hence, per entry,
        #   |batched - sum of per-sample| <= 2 * gamma_n * sum|terms|.
        # With n * u < 1e-13 here, 2 * gamma_n, over the rounding of the
        # computed (all non-negative) sum|terms|, is below REORDER_C * n * u.
        rng = np.random.default_rng(seed)
        params = random_params(rng)
        allowed = rng.random((tokens, tokens)) < 0.6 if masked else None
        x = rng.normal(size=(batch, tokens, DIM))
        dout = rng.normal(size=(batch, tokens, DIM))

        out, caches = _nn.transformer_fwd(x, params, LAYERS, heads, allowed)
        grads = {}
        dx = _nn.transformer_bwd(dout, caches, grads)
        assert out.shape == dx.shape == (batch, tokens, DIM)
        assert set(grads) == set(params)

        summed = {name: np.zeros_like(value) for name, value in params.items()}
        for b in range(batch):
            out_b, caches_b = _nn.transformer_fwd(x[b], params, LAYERS, heads, allowed)
            grads_b = {}
            dx_b = _nn.transformer_bwd(dout[b], caches_b, grads_b)
            assert np.abs(out[b] - out_b).max() <= 1e-14
            assert_close_to(dx[b], dx_b)
            for name, value in grads_b.items():
                summed[name] += value
        n = batch * tokens
        abs_sums = absolute_gradient_sums(dout, caches)
        for name in params:
            assert grads[name].shape == params[name].shape
            bound = REORDER_C * n * U * abs_sums[name]
            assert (np.abs(grads[name] - summed[name]) <= bound).all(), name

    def test_two_leading_axes(self):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        x = rng.normal(size=(2, 3, 4, DIM))
        out, _ = _nn.transformer_fwd(x, params, LAYERS, 2)
        flat, _ = _nn.transformer_fwd(x.reshape(6, 4, DIM), params, LAYERS, 2)
        assert np.abs(out.reshape(6, 4, DIM) - flat).max() <= 1e-14


class TestForwardOnly:
    """With `keep=False`, `transformer_fwd` builds no cache and overwrites its
    own temporaries, but its output must equal the `keep=True` output bit for
    bit, from every resume point, and it must leave its input as it was."""

    @pytest.mark.parametrize(
        "stacked",
        [None, "blocks.1.mlp.w1", "blocks.0.ln2.gamma"],
        ids=["unbatched", "weight-stack", "vector-stack"],
    )
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    @pytest.mark.parametrize(
        "dim, hidden, heads, tokens",
        [(DIM, MLP_HIDDEN, 2, 6), (64, 256, 4, 64)],
        ids=["tiny", "default"],
    )
    def test_equals_cached_output_bitwise(self, dim, hidden, heads, tokens, masked, stacked):
        rng = np.random.default_rng(7)
        table = _nn.transformer_shapes(LAYERS, dim, hidden)
        params = {name: rng.normal(size=shape) for name, (shape, _) in table.items()}
        if stacked is not None:
            # (B, d_in, d_out) for a weight, (B, 1, d) for a vector.
            shape = params[stacked].shape
            params[stacked] = rng.normal(size=(3, *shape) if len(shape) == 2 else (3, 1, *shape))
        allowed = rng.random((tokens, tokens)) < 0.6 if masked else None
        x = rng.normal(size=(tokens, dim))

        out, _ = _nn.transformer_fwd(x, params, LAYERS, heads, allowed)
        inputs = [x]
        for s in range(2 * LAYERS):
            inputs.append(_nn.sublayer_fwd(s, inputs[-1], params, heads, allowed)[0])
        assert np.array_equal(inputs[-1], out)
        for start, resumed in enumerate(inputs):
            before = resumed.copy()
            kept, caches = _nn.transformer_fwd(resumed, params, LAYERS, heads, allowed, start)
            got, no_caches = _nn.transformer_fwd(
                resumed, params, LAYERS, heads, allowed, start, keep=False
            )
            assert np.array_equal(kept, out), start
            assert np.array_equal(got, out), start
            assert len(caches) == 2 * LAYERS - start and no_caches is None, start
            assert np.array_equal(resumed, before), start


class TestResumedBackward:
    def test_resumed_pass_backward_equals_the_full_pass_tail_bitwise(self):
        # `transformer_bwd` walks whatever caches it is given, so a pass
        # resumed at sublayer `start` has the full pass's gradients for the
        # sublayers from `start` on, and for that sublayer's input.
        rng = np.random.default_rng(3)
        params = random_params(rng)
        x = rng.normal(size=(2, 5, DIM))
        dout = rng.normal(size=(2, 5, DIM))
        _, caches = _nn.transformer_fwd(x, params, LAYERS, 2)
        for start in range(2 * LAYERS + 1):
            full = {}
            dx_full = _nn.transformer_bwd(dout, caches[start:], full)
            resumed_input = x
            for s in range(start):
                resumed_input = _nn.sublayer_fwd(s, resumed_input, params, 2, None)[0]
            _, resumed_caches = _nn.transformer_fwd(resumed_input, params, LAYERS, 2, start=start)
            grads = {}
            dx = _nn.transformer_bwd(dout, resumed_caches, grads)
            assert dx.tobytes() == dx_full.tobytes(), start
            run = [_nn.sublayer_prefixes(s) for s in range(start, 2 * LAYERS)]
            assert set(grads) == {n for n in params if n.startswith(sum(run, ()))}, start
            assert grads.keys() == full.keys(), start
            for name in grads:
                assert grads[name].tobytes() == full[name].tobytes(), (start, name)


#: (width, MLP width, heads, tokens) of the models toygrasp builds: the
#: default encoder (64 patches, 65 with CLS), the gradient suite's encoder
#: (16 patches, 17 with CLS), a 1-head 16-wide encoder, a 1 x 8 image in
#: 1-pixel patches, and the default and tiny policies.
MODEL_SHAPES = [
    (64, 256, 4, 65), (32, 64, 4, 17), (16, 64, 1, 64), (8, 32, 1, 8), (64, 256, 4, 16),
    (32, 64, 4, 4),
]


def model_params(rng, dim, hidden):
    table = _nn.transformer_shapes(LAYERS, dim, hidden)
    return {name: rng.normal(size=shape) for name, (shape, _) in table.items()}


class TestReadRows:
    """With `rows`, `transformer_fwd` returns only the rows the caller reads,
    and its last block computes only those. Each equals the full pass's row
    to rounding: the BLAS may round a row of a short product differently
    from the same row of a long one (a one-row product runs through gemv,
    for one), so the bits are not held."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from(MODEL_SHAPES),
        batched_x=st.booleans(),
        stacked=st.sampled_from(
            [None, "blocks.0.attn.w_v", "blocks.1.ln1.gamma", "blocks.1.attn.b_q",
             "blocks.1.mlp.w1", "blocks.1.mlp.b2"]
        ),
        masked=st.booleans(),
        data=st.data(),
    )
    def test_equal_the_full_pass_rows(self, shape, batched_x, stacked, masked, data):
        dim, hidden, heads, max_tokens = shape
        tokens = data.draw(st.integers(1, max_tokens), label="tokens")
        start = data.draw(st.integers(0, 2 * LAYERS), label="start")
        rows = data.draw(
            st.lists(st.integers(0, tokens - 1), min_size=1, max_size=tokens, unique=True),
            label="rows",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = model_params(rng, dim, hidden)
        if stacked is not None:
            # (B, d_in, d_out) for a weight, (B, 1, d) for a vector.
            size = params[stacked].shape
            params[stacked] = rng.normal(size=(3, *size) if len(size) == 2 else (3, 1, *size))
        # Random pairs: read rows attend unread ones, and are attended by them.
        allowed = rng.random((tokens, tokens)) < 0.5 if masked else None
        x = rng.normal(size=(3, tokens, dim) if batched_x else (tokens, dim))
        before = x.copy()

        full, _ = _nn.transformer_fwd(x, params, LAYERS, heads, allowed, start, keep=False)
        got, caches = _nn.transformer_fwd(
            x, params, LAYERS, heads, allowed, start, keep=False, rows=np.array(rows)
        )
        want = full[..., rows, :]
        assert got.shape == want.shape and caches is None
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
        assert np.array_equal(x, before)

    def test_a_slice_reads_its_rows(self):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        x = rng.normal(size=(6, DIM))
        full, _ = _nn.transformer_fwd(x, params, LAYERS, 2, keep=False)
        for rows in (slice(0, 1), slice(-1, None), slice(1, None)):
            got, _ = _nn.transformer_fwd(x, params, LAYERS, 2, keep=False, rows=rows)
            assert got.shape == full[rows].shape
            np.testing.assert_allclose(got, full[rows], rtol=0, atol=1e-12)

    def test_rows_need_the_pass_without_caches(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, DIM))
        with pytest.raises(ValueError, match="keep=False"):
            _nn.transformer_fwd(x, random_params(rng), LAYERS, 2, rows=[0, 1])

    def test_only_the_last_block_runs_on_the_read_rows(self, monkeypatch):
        # Every sublayer before the last block sees every row, the last
        # block's attention every row of its keys and values, and its MLP the
        # read rows alone.
        rng = np.random.default_rng(10)
        params = random_params(rng)
        x = rng.normal(size=(6, DIM))
        seen = []
        original = _nn.sublayer_fwd

        def recording(s, x, params, heads, allowed, keep=True, rows=None):
            out = original(s, x, params, heads, allowed, keep=keep, rows=rows)[0]
            seen.append((s, len(x), None if rows is None else list(rows), len(out)))
            return out, None

        monkeypatch.setattr(_nn, "sublayer_fwd", recording)
        _nn.transformer_fwd(x, params, LAYERS, 2, keep=False, rows=[4, 1, 2])
        assert seen == [(0, 6, None, 6), (1, 6, None, 6), (2, 6, [4, 1, 2], 3), (3, 3, None, 3)]
        seen.clear()
        _nn.transformer_fwd(x, params, LAYERS, 2, start=3, keep=False, rows=[5])
        assert seen == [(3, 6, [5], 1)]


class TestLayerNorm:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=9),
        width=st.integers(1, 70),
        scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_mean_formula_bitwise(self, shape, width, scale, seed):
        rng = np.random.default_rng(seed)
        shape = (*shape[:-1], width)
        x = rng.normal(size=shape) * scale + rng.normal() * scale
        gamma, beta = rng.normal(size=width), rng.normal(size=width)
        dy = rng.normal(size=shape)

        out, cache = _nn.layernorm_fwd(x, gamma, beta)
        ref_out, ref_cache = reference_layernorm_fwd(x, gamma, beta)
        assert np.array_equal(out, ref_out)
        for got, want in zip(cache, ref_cache):
            assert np.array_equal(got, want)
        for got, want in zip(_nn.layernorm_bwd(dy, cache), reference_layernorm_bwd(dy, ref_cache)):
            assert np.array_equal(got, want)


def assert_same_bits(got, want):
    """Equal float64 bit patterns, with any NaN standing for any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def erf(t):
    return _nn.erf(t, np.empty_like(t))


class TestErf:
    """`_nn.erf` gives scipy.special.erf's bits on every float64."""

    def test_dense_grid(self):
        t = np.linspace(-8.0, 8.0, 2_000_001)
        assert_same_bits(erf(t), scipy_erf(t))

    @pytest.mark.parametrize("scale", [0.3, 1.5, 2.0])
    def test_random_arguments(self, scale):
        t = np.random.default_rng(int(scale * 10)).normal(size=500_000) * scale
        assert_same_bits(erf(t), scipy_erf(t))

    @settings(max_examples=300, deadline=None)
    @given(t=hnp.arrays(np.float64, st.integers(0, 50), elements=st.floats(width=64)))
    def test_any_floats(self, t):
        # st.floats draws NaN, ±inf and subnormals too.
        assert_same_bits(erf(t), scipy_erf(t))

    def test_neighbours_of_each_branch_point(self):
        points = []
        for edge in (1.0, _nn._ERF_ONE_FROM, 8.0):
            for value in (edge, -edge):
                points += [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]
        tiny = np.finfo(np.float64).tiny
        points += [tiny, -tiny, 5e-324, -5e-324, np.inf, -np.inf]
        t = np.array(points)
        assert_same_bits(erf(t), scipy_erf(t))

    def test_signed_zero_and_nan(self):
        got = erf(np.array([0.0, -0.0, np.nan]))
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert np.isnan(got[2])

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (), (5, 7, 3)])
    def test_in_place_and_any_shape(self, shape):
        t = np.asarray(np.random.default_rng(4).normal(size=shape) * 2.0)
        want = scipy_erf(t)
        assert _nn.erf(t, t) is t
        assert_same_bits(t, want)


def scipy_gelu_fwd(x):
    # `_nn.gelu_fwd` as it was written on scipy.special.erf.
    t = x / math.sqrt(2.0)
    scipy_erf(t, out=t)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def scipy_gelu_bwd(dy, x):
    return dy * (
        0.5 * (1.0 + scipy_erf(x / math.sqrt(2.0)))
        + x * np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    )


class TestGelu:
    @pytest.mark.parametrize("scale", [0.05, 1.0, 4.0])
    def test_equals_scipy_formula_bitwise(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        x = rng.normal(size=(3, 64, 256)) * scale
        dy = rng.normal(size=x.shape)
        kept, cache = _nn.gelu_fwd(x.copy())
        assert_same_bits(kept, scipy_gelu_fwd(x))
        assert_same_bits(_nn.gelu_bwd(dy, cache), scipy_gelu_bwd(dy, x))
        overwritten = x.copy()
        got, no_cache = _nn.gelu_fwd(overwritten, keep=False)
        assert got is overwritten and no_cache is None
        assert_same_bits(got, scipy_gelu_fwd(x))

    @pytest.mark.parametrize(
        "scale, bound",
        [(0.2, lambda x: x.nbytes + 4096), (1.0, lambda x: 2 * x.nbytes)],
        ids=["inner-branch", "mixed-branches"],
    )
    def test_forward_only_allocates_one_temporary(self, scale, bound):
        # erf works in its scratch buffers, so a forward-only GELU makes only
        # its 1 + erf factor at full size: a second full-size temporary per
        # call is what the allocator maps and unmaps call after call.
        x = np.random.default_rng(5).normal(size=(64, 256)) * scale
        _nn.gelu_fwd(x.copy(), keep=False)  # grows the scratch buffers
        tracemalloc.start()
        try:
            _nn.gelu_fwd(x, keep=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound(x)


class TestMlpRatio:
    @pytest.mark.parametrize("ratio", [0.0, 1e-300, float("nan"), 1e6, 1e300, float("inf")])
    def test_hidden_width_outside_the_limit_is_rejected(self, ratio):
        with pytest.raises(ValueError, match="mlp_ratio"):
            _nn.check_mlp_ratio("embed_dim", 64, ratio)

    def test_limit_is_inclusive(self):
        _nn.check_mlp_ratio("width", 64, _nn.MAX_MLP_HIDDEN / 64)
        _nn.check_mlp_ratio("width", 64, (_nn.MAX_MLP_HIDDEN + 0.99) / 64)
        with pytest.raises(ValueError, match=f"from 1 to {_nn.MAX_MLP_HIDDEN}"):
            _nn.check_mlp_ratio("width", 64, (_nn.MAX_MLP_HIDDEN + 1) / 64)


class TestFiniteDifferenceCheck:
    """`finite_difference_check` on a separable loss with a known gradient:
    sum_k c_k * sin(x_k) over the entries of two tensors."""

    @staticmethod
    def problem(rng):
        arrays = {"w": rng.normal(size=(5, 13)), "v": rng.normal(size=3)}
        coefficients = {name: rng.normal(size=a.shape) for name, a in arrays.items()}
        analytic = {name: coefficients[name] * np.cos(a) for name, a in arrays.items()}

        def loss():
            return sum(float((coefficients[n] * np.sin(a)).sum()) for n, a in arrays.items())

        def batched_loss(name, stack):
            rest = sum(float((coefficients[n] * np.sin(a)).sum()) for n, a in arrays.items() if n != name)
            axes = tuple(range(1, stack.ndim))
            return (coefficients[name] * np.sin(stack)).sum(axis=axes) + rest

        return arrays, analytic, loss, batched_loss

    def test_chunks_cover_every_entry_once(self):
        arrays, analytic, loss, batched_loss = self.problem(np.random.default_rng(0))
        originals = {name: a.copy() for name, a in arrays.items()}
        seen, sizes = [], []

        def recording(name, stack):
            sizes.append((name, len(stack)))
            for sign, copy in zip([1.0, -1.0] * len(stack), stack):
                (i,) = np.flatnonzero(copy != arrays[name])
                assert copy.reshape(-1)[i] == arrays[name].reshape(-1)[i] + sign * _nn.FD_STEP
                seen.append((name, int(i)))
            return batched_loss(name, stack)

        checked, worst, failures, _ = _nn.finite_difference_check(
            loss, arrays, analytic, batched_loss=recording
        )
        assert checked == 65 + 3 and not failures and worst < 1.0
        assert seen[0::2] == seen[1::2]
        assert seen[0::2] == [("w", i) for i in range(65)] + [("v", i) for i in range(3)]
        chunk = 2 * _nn.FD_CHUNK
        assert sizes == [("w", chunk), ("w", chunk), ("w", 2 * 65 - 2 * chunk), ("v", 6)]
        for name, a in arrays.items():
            assert np.array_equal(a, originals[name])

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "zero-argument"])
    def test_corrupted_entry_is_the_one_failure(self, batched):
        rng = np.random.default_rng(1)
        arrays, analytic, loss, batched_loss = self.problem(rng)
        originals = {name: a.copy() for name, a in arrays.items()}
        analytic["w"].reshape(-1)[40] += 1e-3
        checked, worst, failures, worst_entry = _nn.finite_difference_check(
            loss, arrays, analytic, max_entries_per_tensor=50,
            rng=np.random.default_rng(2), batched_loss=batched_loss if batched else None,
        )
        sampled = np.random.default_rng(2).choice(65, size=50, replace=False)
        assert 40 in sampled and checked == 53
        assert [f[:2] for f in failures] == [("w", 40)] and worst_entry == ("w", 40)
        assert worst > 1.0
        for name, a in arrays.items():
            assert np.array_equal(a, originals[name])

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "zero-argument"])
    def test_non_finite_loss_fails_every_entry(self, batched):
        arrays, analytic, _, _ = self.problem(np.random.default_rng(3))
        with np.errstate(invalid="ignore"):
            checked, _, failures, _ = _nn.finite_difference_check(
                lambda: float("nan"), arrays, analytic,
                batched_loss=(lambda name, stack: np.full(len(stack), np.inf)) if batched else None,
            )
        assert checked == 68 and len(failures) == 68
