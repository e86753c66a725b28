import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import (
    assemble_token,
    policy_fd_losses,
    policy_grad,
    record_forward_keeps,
    reference_train_step,
)
from toygrasp import _nn
from toygrasp import detpool, policy as policy_mod
from toygrasp.detpool import EncoderConfig, PoolingMode, encode, init_encoder
from toygrasp.checks import flags_to_pixel_region
from toygrasp.errors import InvalidInput
from toygrasp.policy import (
    BETA1,
    OptimizerConfig,
    PolicyConfig,
    PolicyState,
    StepObservation,
    _backward,
    _forward,
    _stack_histories,
    bc_l1_loss,
    concat_observation,
    init_policy,
    policy_forward,
    train_step,
)

TINY = PolicyConfig.tiny()
#: Small enough that a full serial finite-difference sweep takes well under a second.
MICRO = PolicyConfig(
    history_len=2, chunk_len=2, action_dim=2, proprio_dim=2, cameras=1,
    embed_dim=2, layers=1, width=4, heads=2, mlp_ratio=1.0,
)


def outer_product_sincos(positions, dim):
    # The sinusoidal encoding as it was built before its tables were cached:
    # the sines, then the cosines, of the positions' outer product with the
    # frequencies 10000^(-i / half).
    half = dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half, dtype=np.float64) / half))
    args = np.outer(np.asarray(positions, dtype=np.float64), freqs)
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


class TestSinCosTables:
    """The cached tables equal the outer-product formula bit for bit; these
    pins hold on any BLAS kernel, since no matrix product is involved."""

    @pytest.mark.parametrize("n, dim", [(1, 2), (4, 32), (16, 64), (37, 10)])
    def test_1d_equals_outer_product_bitwise(self, n, dim):
        table = _nn.sincos_1d(n, dim)
        assert _nn.sincos_1d(n, dim) is table and not table.flags.writeable
        assert table.tobytes() == outer_product_sincos(np.arange(n), dim).tobytes()

    @pytest.mark.parametrize("n_rows, n_cols, dim", [(1, 1, 4), (8, 8, 64), (4, 4, 32), (3, 5, 8)])
    def test_2d_equals_repeated_positions_bitwise(self, n_rows, n_cols, dim):
        # The encoder's grid: each row-major patch's row position encoded in
        # the first half of the channels, its column position in the second.
        table = _nn.sincos_2d(n_rows, n_cols, dim)
        assert _nn.sincos_2d(n_rows, n_cols, dim) is table and not table.flags.writeable
        rows = np.repeat(np.arange(n_rows), n_cols)
        cols = np.tile(np.arange(n_cols), n_rows)
        expected = np.concatenate(
            [outer_product_sincos(rows, dim // 2), outer_product_sincos(cols, dim // 2)], axis=1
        )
        assert table.tobytes() == expected.tobytes()

    def test_odd_widths_rejected(self):
        with pytest.raises(ValueError):
            _nn.sincos_1d(4, 7)
        with pytest.raises(ValueError):
            _nn.sincos_2d(2, 2, 6)


def random_history(config, rng):
    return [
        StepObservation(
            rng.normal(size=(config.cameras, config.embed_dim)),
            rng.normal(size=config.proprio_dim),
        )
        for _ in range(config.history_len)
    ]


def linear_task_data(config, n_samples, seed):
    # Targets are a fixed linear function of the last proprio vector.
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(config.proprio_dim, config.chunk_len * config.action_dim)) * 0.5
    data = []
    for _ in range(n_samples):
        history = [
            StepObservation(
                rng.normal(size=(config.cameras, config.embed_dim)),
                rng.uniform(-1, 1, config.proprio_dim),
            )
            for _ in range(config.history_len)
        ]
        target = (history[-1].proprio @ matrix).reshape(
            config.chunk_len, config.action_dim
        )
        data.append((history, target))
    return data


class TestAssembleToken:
    def test_concat_order(self):
        config = PolicyConfig(
            history_len=1, chunk_len=1, action_dim=1, proprio_dim=2,
            cameras=2, embed_dim=3, layers=1, width=8, heads=2,
        )
        obs = StepObservation(
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([7.0, 8.0])
        )
        flat = concat_observation(obs, config)
        assert flat.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_zero_observation_zero_bias_init(self):
        state = init_policy(TINY, 0)
        obs = StepObservation(
            np.zeros((TINY.cameras, TINY.embed_dim)), np.zeros(TINY.proprio_dim)
        )
        # Biases initialize to zero, so a zero input maps to exactly zero.
        assert (assemble_token(obs, state) == 0.0).all()

    def test_matches_independent_recomputation(self):
        state = init_policy(TINY, 1)
        rng = np.random.default_rng(2)
        obs = StepObservation(
            rng.normal(size=(TINY.cameras, TINY.embed_dim)),
            rng.normal(size=TINY.proprio_dim),
        )
        token = assemble_token(obs, state)
        x = np.concatenate([obs.embeddings.reshape(-1), obs.proprio])
        h = x @ state.params["proj.w1"] + state.params["proj.b1"]
        g = 0.5 * h * (1.0 + erf(h / math.sqrt(2.0)))
        expected = g @ state.params["proj.w2"] + state.params["proj.b2"]
        np.testing.assert_allclose(token, expected, atol=1e-12)

    def test_shape_mismatch(self):
        state = init_policy(TINY, 0)
        with pytest.raises(InvalidInput, match="embeddings shape"):
            assemble_token(
                StepObservation(np.zeros((2, TINY.embed_dim)), np.zeros(TINY.proprio_dim)),
                state,
            )


class TestPolicyForward:
    @pytest.mark.parametrize("config", [TINY, PolicyConfig()], ids=["tiny", "default"])
    def test_equals_cached_chunk_bitwise(self, config):
        state = init_policy(config, 9)
        history = random_history(config, np.random.default_rng(10))
        stacked = _stack_histories([history], config)[0]
        cached = _forward(stacked, state, keep=True)[0]
        chunk, cache = _forward(stacked, state, keep=False)
        assert np.array_equal(chunk, cached) and cache is None
        assert np.array_equal(policy_forward(history, state), cached)

    def test_runs_without_the_cached_pass(self, monkeypatch):
        keeps = record_forward_keeps(monkeypatch)
        state = init_policy(TINY, 11)
        history = random_history(TINY, np.random.default_rng(12))
        assert np.isfinite(policy_forward(history, state)).all()
        assert keeps == [False]

    def test_positional_table_is_built_once_and_read_only(self):
        table = _nn.sincos_1d(TINY.history_len, TINY.width)
        assert _nn.sincos_1d(TINY.history_len, TINY.width) is table
        assert not table.flags.writeable
        expected = outer_product_sincos(np.arange(TINY.history_len), TINY.width)
        assert table.tobytes() == expected.tobytes()

    def test_output_shape_and_determinism(self):
        state = init_policy(TINY, 3)
        history = random_history(TINY, np.random.default_rng(4))
        a = policy_forward(history, state)
        b = policy_forward(history, state)
        assert a.shape == (TINY.chunk_len, TINY.action_dim)
        assert np.array_equal(a, b)

    def test_single_step_history(self):
        config = PolicyConfig(
            history_len=1, chunk_len=2, action_dim=3, proprio_dim=2,
            cameras=1, embed_dim=4, layers=1, width=8, heads=2,
        )
        state = init_policy(config, 5)
        out = policy_forward(random_history(config, np.random.default_rng(6)), state)
        assert out.shape == (2, 3)
        assert np.isfinite(out).all()

    def test_history_permutation_sensitivity(self):
        changed = 0
        for trial in range(100):
            state = init_policy(TINY, seed=trial)
            rng = np.random.default_rng(2000 + trial)
            history = random_history(TINY, rng)
            permuted = [history[2], history[0], history[1], history[3]]
            a = policy_forward(history, state)
            b = policy_forward(permuted, state)
            if np.abs(a - b).max() > 1e-9:
                changed += 1
        assert changed >= 95

    def test_wrong_history_length(self):
        state = init_policy(TINY, 0)
        with pytest.raises(InvalidInput, match="history must have exactly"):
            policy_forward(random_history(TINY, np.random.default_rng(0))[:-1], state)


class TestBcL1Loss:
    def test_identical_chunks(self):
        chunk = np.ones((4, 4))
        assert bc_l1_loss(chunk, chunk) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(7)
        target = rng.normal(size=(4, 4))
        assert bc_l1_loss(target + 0.3, target) == pytest.approx(0.3, abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 3))
        expected = 0.0
        for i in range(5):
            for j in range(3):
                expected += abs(pred[i, j] - target[i, j])
        expected /= 15.0
        assert bc_l1_loss(pred, target) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="chunk shapes differ"):
            bc_l1_loss(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_leading_axes_give_each_chunks_mean_bitwise(self):
        rng = np.random.default_rng(9)
        pred, target = rng.normal(size=(2, 2, 3, 16, 8))
        losses = bc_l1_loss(pred, target)
        assert losses.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert losses[index] == float(np.abs(pred[index] - target[index]).mean())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(3, 2)) for _ in range(3))
        assert bc_l1_loss(a, b) >= 0.0
        assert bc_l1_loss(a, a) == 0.0
        assert bc_l1_loss(a, b) == bc_l1_loss(b, a)
        assert bc_l1_loss(a, c) <= bc_l1_loss(a, b) + bc_l1_loss(b, c) + 1e-12


class TestPolicyGrad:
    def test_finite_difference_spot_check(self):
        state = init_policy(TINY, 9)
        rng = np.random.default_rng(10)
        history = random_history(TINY, rng)
        upstream = rng.normal(size=(TINY.chunk_len, TINY.action_dim))
        grads = policy_grad(history, state, upstream)

        def loss():
            return float((upstream * policy_forward(history, state)).sum())

        checked, worst, failures, _ = _nn.finite_difference_check(
            loss, state.params, grads, max_entries_per_tensor=5, rng=rng
        )
        assert not failures, failures[:3]
        assert checked > 100

    def test_grad_shapes(self):
        state = init_policy(TINY, 11)
        grads = policy_grad(
            random_history(TINY, np.random.default_rng(12)),
            state,
            np.ones((TINY.chunk_len, TINY.action_dim)),
        )
        assert set(grads) == set(state.params)
        for name in grads:
            assert grads[name].shape == state.params[name].shape


def fd_problem(config, seed):
    """A policy, one history and an upstream chunk for a gradient sweep."""
    state = init_policy(config, seed)
    rng = np.random.default_rng(seed + 1)
    history = random_history(config, rng)
    return state, history, rng.normal(size=(config.chunk_len, config.action_dim))


class TestBatchedGradientSweep:
    """The policy sweep of test_08 evaluates all perturbed copies of one
    parameter in one forward pass per chunk (`conftest.policy_fd_losses`)."""

    @pytest.mark.parametrize("config", [TINY, PolicyConfig()], ids=["tiny", "default"])
    def test_batched_rows_equal_serial_loss(self, config):
        # Every product with leading axes runs one product per copy, every
        # reduction runs along the last axis, and each row's loss sums the
        # same K * action_dim products as the zero-argument loss, so each
        # row must equal that loss on its copy bitwise.
        state, history, upstream = fd_problem(config, 40)
        loss, batched_loss = policy_fd_losses(history, state, upstream)
        rng = np.random.default_rng(41)
        for name, array in state.params.items():
            copies = np.repeat(array[None], 4, axis=0)
            flat = copies.reshape(4, -1)
            flat[np.arange(4), rng.integers(flat.shape[1], size=4)] += [
                _nn.FD_STEP, -_nn.FD_STEP, 1e-2, -1e-2,
            ]
            batched = batched_loss(name, copies)
            assert batched.shape == (4,)
            original = array.copy()
            serial = []
            for copy in copies:
                array[...] = copy
                serial.append(loss())
            array[...] = original
            assert batched.tolist() == serial, name

    @pytest.mark.parametrize(
        "config, entries", [(TINY, 8), (MICRO, None)], ids=["tiny-sampled", "micro-full"]
    )
    def test_batched_and_serial_sweeps_check_the_same_entries(self, config, entries):
        state, history, upstream = fd_problem(config, 42)
        grads = policy_grad(history, state, upstream)
        loss, batched_loss = policy_fd_losses(history, state, upstream)
        perturbed = []

        def recording(name, stack):
            for copy in stack:
                changed = np.flatnonzero(copy != state.params[name])
                perturbed.extend((name, int(i)) for i in changed)
            return batched_loss(name, stack)

        checked, worst, failures, worst_entry = _nn.finite_difference_check(
            loss, state.params, grads, entries, np.random.default_rng(43), recording
        )

        # The serial sweep, written out: one entry at a time, perturbed in place.
        rng = np.random.default_rng(43)
        serial_perturbed, serial_checked, serial_worst, serial_entry = [], 0, 0.0, None
        for name, array in state.params.items():
            flat = array.reshape(-1)
            indices = range(flat.size)
            if entries is not None and flat.size > entries:
                indices = rng.choice(flat.size, size=entries, replace=False)
            for i in indices:
                original = flat[i]
                flat[i] = original + _nn.FD_STEP
                f_plus = loss()
                flat[i] = original - _nn.FD_STEP
                f_minus = loss()
                flat[i] = original
                serial_perturbed += [(name, int(i))] * 2
                g_fd = (f_plus - f_minus) / (2.0 * _nn.FD_STEP)
                g_an = float(grads[name].reshape(-1)[i])
                tolerance = max(_nn.FD_REL_TOL * max(abs(g_fd), abs(g_an)), _nn.FD_ABS_FLOOR)
                ratio = abs(g_fd - g_an) / tolerance
                if serial_entry is None or ratio > serial_worst:
                    serial_worst, serial_entry = ratio, (name, int(i))
                serial_checked += 1
        assert perturbed == serial_perturbed
        assert (checked, worst, worst_entry) == (serial_checked, serial_worst, serial_entry)
        assert failures == [] and serial_worst < 1.0

    @pytest.mark.parametrize("name", ["proj.b1", "blocks.1.attn.w_k", "head.weight"])
    def test_corrupted_analytic_entry_fails_by_name(self, name):
        # Negative control: one analytic entry off by 1 fails the batched
        # sweep of test_08, and the failure names that entry alone.
        state, history, upstream = fd_problem(TINY, 88)
        grads = policy_grad(history, state, upstream)
        index = grads[name].size // 2
        grads[name].flat[index] += 1.0
        loss, batched_loss = policy_fd_losses(history, state, upstream)
        _, _, failures, _ = _nn.finite_difference_check(
            loss, state.params, grads, batched_loss=batched_loss
        )
        assert [(n, i) for n, i, _, _ in failures] == [(name, index)]


class TestTrainStep:
    def test_batch_loss_gradient_finite_difference(self):
        # The training gradient is d(mean batch L1)/d(params); verify by
        # differencing the loss computed from fresh forward passes.
        state = init_policy(TINY, 13)
        data = linear_task_data(TINY, 4, 14)

        grads = {name: np.zeros_like(value) for name, value in state.params.items()}
        scale = 1.0 / (len(data) * TINY.chunk_len * TINY.action_dim)
        for history, target in data:
            chunk, cache = _forward(_stack_histories([history], TINY)[0], state, keep=True)
            for name, g in _backward(np.sign(chunk - target) * scale, cache, state).items():
                grads[name] += g

        def loss():
            return float(
                np.mean([bc_l1_loss(policy_forward(h, state), t) for h, t in data])
            )

        checked, worst, failures, _ = _nn.finite_difference_check(
            loss, state.params, grads, max_entries_per_tensor=4,
            rng=np.random.default_rng(15),
        )
        assert not failures, failures[:3]

    def test_zero_learning_rate_freezes_params(self):
        state = init_policy(TINY, 16)
        before = {k: v.copy() for k, v in state.params.items()}
        data = linear_task_data(TINY, 2, 17)
        opt = OptimizerConfig(learning_rate=0.0)
        _, loss1 = train_step(data, state, opt)
        _, loss2 = train_step(data, state, opt)
        assert loss1 == loss2
        for name in before:
            assert np.array_equal(state.params[name], before[name])
        assert any((state.opt_m[name] != 0.0).any() for name in state.opt_m)

    def test_returns_pre_update_loss(self):
        state = init_policy(TINY, 18)
        data = linear_task_data(TINY, 2, 19)
        expected = float(
            np.mean([bc_l1_loss(policy_forward(h, state), t) for h, t in data])
        )
        _, loss = train_step(data, state, OptimizerConfig())
        assert loss == pytest.approx(expected, abs=1e-15)

    def test_deterministic_training_bitwise(self):
        def run():
            state = init_policy(TINY, 20)
            data = linear_task_data(TINY, 4, 21)
            for _ in range(20):
                train_step(data, state, OptimizerConfig())
            return state

        a, b = run(), run()
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_loss_decreases_on_synthetic_task(self):
        state = init_policy(TINY, 22)
        data = linear_task_data(TINY, 8, 23)
        opt = OptimizerConfig(learning_rate=1e-3)
        _, initial = train_step(data, state, opt)
        loss = initial
        for _ in range(99):
            _, loss = train_step(data, state, opt)
        assert loss < 0.6 * initial

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            train_step([], init_policy(TINY, 0), OptimizerConfig())

    def test_batched_gradient_equals_per_sample_sum(self):
        # With lr 0, the first step leaves (1 - beta1) * gradient in opt_m; the
        # gradient must be the sum of per-sample policy_grad calls.
        state = init_policy(TINY, 30)
        data = linear_task_data(TINY, 5, 31)
        scale = 1.0 / (len(data) * TINY.chunk_len * TINY.action_dim)
        expected = {name: np.zeros_like(value) for name, value in state.params.items()}
        for history, target in data:
            upstream = np.sign(policy_forward(history, state) - target) * scale
            for name, g in policy_grad(history, state, upstream).items():
                expected[name] += g
        opt = OptimizerConfig(learning_rate=0.0)
        train_step(data, state, opt)
        for name, value in expected.items():
            got = state.opt_m[name] / (1.0 - BETA1)
            assert np.abs(got - value).max() <= 1e-14 * np.abs(value).max(), name

    def test_loss_is_the_batch_order_mean_bitwise(self):
        state = init_policy(TINY, 34)
        data = linear_task_data(TINY, 6, 35)
        stacked = np.stack([_stack_histories([history], TINY)[0] for history, _ in data])
        chunks, _ = _forward(stacked, state, keep=False)
        total = 0.0
        for chunk, (_, target) in zip(chunks, data):
            total += float(np.abs(chunk - target).mean())
        _, loss = train_step(data, state, OptimizerConfig())
        assert loss == total / len(data)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda h: h[:-1], f"history must have exactly {TINY.history_len} steps"),
            (lambda h: h[:-1] + [StepObservation(np.zeros((2, TINY.embed_dim)), h[-1].proprio)],
             rf"embeddings shape \(2, {TINY.embed_dim}\) != \({TINY.cameras}, {TINY.embed_dim}\)"),
            (lambda h: h[:-1] + [StepObservation(h[-1].embeddings, np.zeros(TINY.proprio_dim + 1))],
             rf"proprio shape \({TINY.proprio_dim + 1},\) != \({TINY.proprio_dim},\)"),
        ],
        ids=["history-length", "embeddings", "proprio"],
    )
    def test_bad_observation_in_last_slot_is_named(self, damage, message):
        state = init_policy(TINY, 36)
        data = linear_task_data(TINY, 3, 37)
        history, target = data[-1]
        bad = data[:-1] + [(damage(list(history)), target)]
        with pytest.raises(InvalidInput, match=message):
            policy_forward(bad[-1][0], state)
        with pytest.raises(InvalidInput, match=message):
            train_step(bad, state, OptimizerConfig())
        assert state.opt_step == 0

    def test_bad_target_in_last_slot_leaves_state_unchanged(self):
        state = init_policy(TINY, 32)
        data = linear_task_data(TINY, 4, 33)
        train_step(data, state, OptimizerConfig())
        snapshot = [
            {k: v.copy() for k, v in table.items()}
            for table in (state.params, state.opt_m, state.opt_v)
        ]
        history, target = data[-1]
        bad = data[:-1] + [(history, target[:, :-1])]
        with pytest.raises(InvalidInput, match="target shape .* != chunk"):
            train_step(bad, state, OptimizerConfig())
        assert state.opt_step == 1
        for table, before in zip((state.params, state.opt_m, state.opt_v), snapshot):
            for name in before:
                assert np.array_equal(table[name], before[name])


def assert_tables_bitwise_equal(a, b):
    for table_a, table_b in zip((a.params, a.opt_m, a.opt_v), (b.params, b.opt_m, b.opt_v)):
        assert list(table_a) == list(table_b)
        for name in table_a:
            assert table_a[name].tobytes() == table_b[name].tobytes(), name
    assert a.opt_step == b.opt_step


TABLES = ["params", "opt_m", "opt_v"]


def copied_vectors(state):
    vectors = tuple(vector.copy() for vector in state.vectors)
    return PolicyState(state.config, vectors, state.opt_step)


def pickled(state):
    return pickle.loads(pickle.dumps(state))


def assert_entries_view_the_vectors(state):
    table = policy_mod._param_table(state.config)
    for mapping, vector in zip((state.params, state.opt_m, state.opt_v), state.vectors):
        assert list(mapping) == list(table)
        address = vector.ctypes.data
        for name, value in mapping.items():
            assert value.base is vector and value.flags.c_contiguous, name
            assert value.shape == table[name][0] and value.ctypes.data == address, name
            address += value.nbytes
        assert address == vector.ctypes.data + vector.nbytes


class TestFlatLayout:
    """A `PolicyState` owns three vectors, and `train_step` runs AdamW over
    them whole; `conftest.reference_train_step` is the per-tensor update it
    must match bit for bit."""

    @pytest.mark.parametrize(
        "table",
        [
            policy_mod._param_table(TINY),
            policy_mod._param_table(PolicyConfig()),
            detpool._param_table(EncoderConfig()),
            detpool._param_table(EncoderConfig(include_cls=True)),
        ],
        ids=["policy-tiny", "policy-default", "encoder", "encoder-cls"],
    )
    def test_init_params_views_one_vector_in_table_order(self, table):
        params = _nn.init_params(np.random.default_rng(7), table)
        rng = np.random.default_rng(7)
        drawn = {  # the tensors drawn one at a time, in table order
            name: rng.normal(0.0, _nn.INIT_STD, shape) if fill is None else np.full(shape, fill)
            for name, (shape, fill) in table.items()
        }
        assert list(params) == list(table)
        vector = next(iter(params.values())).base
        assert vector.ndim == 1 and vector.size == sum(value.size for value in drawn.values())
        address = vector.ctypes.data
        for name, value in params.items():
            assert value.base is vector and value.flags.c_contiguous, name
            assert value.ctypes.data == address, name
            address += value.nbytes
            assert value.tobytes() == drawn[name].tobytes(), name

    @pytest.mark.parametrize("config", [TINY, PolicyConfig()], ids=["tiny", "default"])
    def test_every_entry_views_its_vector_in_table_order(self, config):
        state = init_policy(config, 8)
        assert_entries_view_the_vectors(state)
        params, opt_m, opt_v = state.vectors
        assert not opt_m.any() and not opt_v.any()
        pairs = [(params, opt_m), (params, opt_v), (opt_m, opt_v)]
        assert not any(np.shares_memory(a, b) for a, b in pairs)

    @pytest.mark.parametrize(
        "config, steps", [(TINY, 400), (PolicyConfig(), 5)], ids=["tiny-400", "default-5"]
    )
    def test_matches_per_tensor_reference_bitwise(self, config, steps):
        data = linear_task_data(config, 4, 50)
        opt = OptimizerConfig(learning_rate=1e-3)
        flat, reference = init_policy(config, 51), init_policy(config, 51)
        losses = [train_step(data, flat, opt)[1] for _ in range(steps)]
        expected = [reference_train_step(data, reference, opt)[1] for _ in range(steps)]
        assert losses == expected
        assert_tables_bitwise_equal(flat, reference)

    @pytest.mark.parametrize("index, table", enumerate(TABLES), ids=TABLES)
    def test_rebinding_an_entry_raises(self, index, table):
        state = init_policy(TINY, 9)
        train_step(linear_task_data(TINY, 2, 10), state, OptimizerConfig())
        before = [vector.copy() for vector in state.vectors]
        mapping = getattr(state, table)
        with pytest.raises(TypeError):
            mapping["head.bias"] = mapping["head.bias"] + 0.25
        with pytest.raises(TypeError):
            del mapping["proj.w1"]
        for vector, copy_before in zip(state.vectors, before):
            assert vector.tobytes() == copy_before.tobytes()
        assert mapping["head.bias"].base is state.vectors[index]
        assert_entries_view_the_vectors(state)

    @pytest.mark.parametrize("name", ["config", "vectors", "params", "opt_m", "opt_v"])
    def test_rebinding_an_attribute_raises(self, name):
        state = init_policy(TINY, 9)
        train_step(linear_task_data(TINY, 2, 10), state, OptimizerConfig())
        before = [vector.copy() for vector in state.vectors]
        value = getattr(state, name)
        if name == "config":
            replacement = PolicyConfig.tiny()
        elif name == "vectors":
            replacement = tuple(vector.copy() for vector in value)
        else:
            replacement = {key: entry.copy() for key, entry in value.items()}
        with pytest.raises(AttributeError, match=re.escape(f"PolicyState.{name}")):
            setattr(state, name, replacement)
        assert getattr(state, name) is value
        train_step(linear_task_data(TINY, 2, 10), state, OptimizerConfig())
        assert state.opt_step == 2
        assert any(v.tobytes() != b.tobytes() for v, b in zip(state.vectors, before))
        assert_entries_view_the_vectors(state)

    @pytest.mark.parametrize("name", ["config", "vectors", "params", "opt_m", "opt_v"])
    def test_deleting_an_attribute_raises(self, name):
        # Deleting first must not open the way to a rebinding.
        data = linear_task_data(TINY, 4, 54)
        opt = OptimizerConfig(learning_rate=1e-3)
        state, reference = init_policy(TINY, 55), init_policy(TINY, 55)
        train_step(data, state, opt)
        reference_train_step(data, reference, opt)
        value = getattr(state, name)
        with pytest.raises(AttributeError, match=re.escape(f"cannot delete PolicyState.{name}")):
            delattr(state, name)
        assert getattr(state, name) is value
        losses = [train_step(data, state, opt)[1] for _ in range(3)]
        expected = [reference_train_step(data, reference, opt)[1] for _ in range(3)]
        assert losses == expected
        assert_tables_bitwise_equal(state, reference)
        assert_entries_view_the_vectors(state)

    @pytest.mark.parametrize(
        "change",
        [copied_vectors, pickled, copy.deepcopy],
        ids=["copied-vectors", "pickle", "deepcopy"],
    )
    def test_a_copied_state_trains_like_the_reference_bitwise(self, change):
        data = linear_task_data(TINY, 4, 52)
        opt = OptimizerConfig(learning_rate=1e-3)
        state, reference = init_policy(TINY, 53), init_policy(TINY, 53)
        for _ in range(3):
            train_step(data, state, opt)
            reference_train_step(data, reference, opt)
        before = [vector.copy() for vector in state.vectors]
        copied = change(state)
        assert copied.opt_step == 3
        assert_entries_view_the_vectors(copied)
        assert not any(map(np.shares_memory, copied.vectors, state.vectors))
        losses = [train_step(data, copied, opt)[1] for _ in range(3)]
        expected = [reference_train_step(data, reference, opt)[1] for _ in range(3)]
        assert losses == expected
        assert_tables_bitwise_equal(copied, reference)
        for vector, copy_before in zip(state.vectors, before):  # the original is untouched
            assert vector.tobytes() == copy_before.tobytes()

    @pytest.mark.parametrize("index, name", enumerate(TABLES), ids=TABLES)
    @pytest.mark.parametrize(
        "damage, got",
        [
            (lambda v: v[:-1], lambda n: f"float64 ({n - 1},)"),
            (lambda v: np.append(v, 0.0), lambda n: f"float64 ({n + 1},)"),
            (lambda v: v.astype(np.float32), lambda n: f"float32 ({n},)"),
            (lambda v: v.reshape(1, -1), lambda n: f"float64 (1, {n})"),
            (lambda v: np.repeat(v, 2)[::2], lambda n: f"float64 ({n},)"),
            (lambda v: v.tolist(), lambda n: "list"),
        ],
        ids=["short", "long", "float32", "2-d", "strided", "list"],
    )
    def test_constructor_names_a_bad_vector(self, index, name, damage, got):
        state = init_policy(TINY, 11)
        n = state.vectors[0].size
        vectors = list(state.vectors)
        vectors[index] = damage(vectors[index])
        message = f"{name}: expected a contiguous float64 vector of {n} entries, got {got(n)}"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            PolicyState(TINY, vectors)

    def test_constructor_needs_three_vectors(self):
        vectors = init_policy(TINY, 12).vectors
        for count in (2, 4):
            with pytest.raises(InvalidInput, match=f"expected 3 vectors .*, got {count}"):
                PolicyState(TINY, (vectors * 2)[:count])


class TestEndToEndDetPipeline:
    def test_background_perturbation_leaves_actions_unchanged(self):
        encoder_config = EncoderConfig(
            image_height=16, image_width=16, patch_size=4, embed_dim=32, layers=2,
            heads=4, mlp_ratio=2.0,
        )
        encoder = init_encoder(encoder_config, 24)
        policy_config = PolicyConfig(
            history_len=3, chunk_len=2, action_dim=3, proprio_dim=2,
            cameras=1, embed_dim=32, layers=2, width=32, heads=4, mlp_ratio=2.0,
        )
        policy = init_policy(policy_config, 25)
        rng = np.random.default_rng(26)

        flags = np.zeros(encoder_config.n_patches, dtype=bool)
        flags[[2, 5, 6]] = True
        region = flags_to_pixel_region(flags, encoder_config)
        images = [rng.uniform(0, 1, (16, 16, 3)) for _ in range(3)]
        proprios = [rng.normal(size=2) for _ in range(3)]

        def actions(frames):
            history = [
                StepObservation(
                    encode(frame, encoder, PoolingMode.DET, flags)[None, :], proprio
                )
                for frame, proprio in zip(frames, proprios)
            ]
            return policy_forward(history, policy)

        reference = actions(images)
        perturbed = [img.copy() for img in images]
        for img in perturbed:
            img[~region] = rng.uniform(-10, 10, ((~region).sum(), 3))
        np.testing.assert_allclose(actions(perturbed), reference, atol=1e-12)


class TestPolicyConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            PolicyConfig(history_len=0)

    def test_width_head_divisibility(self):
        with pytest.raises(ValueError):
            PolicyConfig(width=30, heads=4)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, 1e-300, 0.01, float("nan")])
    def test_mlp_width_must_be_at_least_one(self, ratio):
        with pytest.raises(ValueError, match="mlp_ratio"):
            PolicyConfig(width=64, mlp_ratio=ratio)
        assert PolicyConfig(width=64, mlp_ratio=1 / 64).mlp_hidden == 1

    @pytest.mark.parametrize("ratio", [1e6, 1e300, float("inf"), (_nn.MAX_MLP_HIDDEN + 1) / 64])
    def test_mlp_width_is_bounded(self, ratio):
        # A config is checked before any array is built, so this allocates nothing.
        with pytest.raises(ValueError, match="mlp_ratio"):
            PolicyConfig(width=64, mlp_ratio=ratio)
        limit = PolicyConfig(width=64, mlp_ratio=_nn.MAX_MLP_HIDDEN / 64)
        assert limit.mlp_hidden == _nn.MAX_MLP_HIDDEN

    @pytest.mark.parametrize("name", ["width", "heads", "layers", "embed_dim"])
    def test_sizes_checked_before_modulo(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            PolicyConfig(**{name: 0})
