import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from toygrasp import _nn

DIM = 8
MLP_HIDDEN = 16
LAYERS = 2


def random_params(rng):
    # Unit-scale weights, so the blocks mix strongly and any batching slip shows.
    params = {}
    for i in range(LAYERS):
        params.update(_nn.init_params(rng, _nn.block_shapes(f"blocks.{i}.", DIM, MLP_HIDDEN)))
    return {name: rng.normal(size=value.shape) for name, value in params.items()}


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
        for name in params:
            assert grads[name].shape == params[name].shape
            assert_close_to(grads[name], summed[name])

    def test_two_leading_axes(self):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        x = rng.normal(size=(2, 3, 4, DIM))
        out, _ = _nn.transformer_fwd(x, params, LAYERS, 2)
        flat, _ = _nn.transformer_fwd(x.reshape(6, 4, DIM), params, LAYERS, 2)
        assert np.abs(out.reshape(6, 4, DIM) - flat).max() <= 1e-14


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
