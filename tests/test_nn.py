import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toygrasp import _nn

DIM = 8
MLP_HIDDEN = 16
LAYERS = 2


def random_params(rng):
    # Unit-scale weights, so the blocks mix strongly and any batching slip shows.
    params = {}
    for i in range(LAYERS):
        _nn.init_block(rng, params, f"blocks.{i}.", DIM, MLP_HIDDEN)
    return {name: rng.normal(size=value.shape) for name, value in params.items()}


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
        dx = _nn.transformer_bwd(dout, caches, LAYERS, heads, grads)
        assert out.shape == dx.shape == (batch, tokens, DIM)
        assert set(grads) == set(params)

        summed = {name: np.zeros_like(value) for name, value in params.items()}
        for b in range(batch):
            out_b, caches_b = _nn.transformer_fwd(x[b], params, LAYERS, heads, allowed)
            grads_b = {}
            dx_b = _nn.transformer_bwd(dout[b], caches_b, LAYERS, heads, grads_b)
            assert np.abs(out[b] - out_b).max() <= 1e-14
            assert_close_to(dx[b], dx_b)
            for name, value in grads_b.items():
                summed[name] += value
        # The key bias shifts each query's logits by a constant, which the
        # softmax ignores: its exact gradient is 0 and only rounding noise is
        # left, so it is held to the scale of the whole gradient instead.
        overall = max(float(np.abs(value).max()) for value in summed.values())
        for name in params:
            assert grads[name].shape == params[name].shape
            scale = overall if name.endswith("attn.b_k") else None
            assert_close_to(grads[name], summed[name], scale)

    def test_two_leading_axes(self):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        x = rng.normal(size=(2, 3, 4, DIM))
        out, _ = _nn.transformer_fwd(x, params, LAYERS, 2)
        flat, _ = _nn.transformer_fwd(x.reshape(6, 4, DIM), params, LAYERS, 2)
        assert np.abs(out.reshape(6, 4, DIM) - flat).max() <= 1e-14
