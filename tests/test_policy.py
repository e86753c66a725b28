import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from toygrasp import _nn
from toygrasp.detpool import EncoderConfig, PoolingMode, encode, init_encoder
from toygrasp.checks import flags_to_pixel_region
from toygrasp.errors import ShapeMismatch
from toygrasp.policy import (
    OptimizerConfig,
    PolicyConfig,
    StepObservation,
    assemble_token,
    bc_l1_loss,
    concat_observation,
    init_policy,
    load_policy_state,
    policy_forward,
    policy_grad,
    save_policy_state,
    train_step,
    write_training_curve,
)

TINY = PolicyConfig.tiny()


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
        with pytest.raises(ShapeMismatch):
            assemble_token(
                StepObservation(np.zeros((2, TINY.embed_dim)), np.zeros(TINY.proprio_dim)),
                state,
            )


class TestPolicyForward:
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
        with pytest.raises(ShapeMismatch):
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
        with pytest.raises(ShapeMismatch):
            bc_l1_loss(np.zeros((2, 2)), np.zeros((2, 3)))

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


class TestTrainStep:
    def test_batch_loss_gradient_finite_difference(self):
        # The training gradient is d(mean batch L1)/d(params); verify by
        # differencing the loss computed from fresh forward passes.
        state = init_policy(TINY, 13)
        data = linear_task_data(TINY, 4, 14)

        grads = _nn.zero_grads(state.params)
        scale = 1.0 / (len(data) * TINY.chunk_len * TINY.action_dim)
        from toygrasp.policy import _backward, _forward, _stack_history

        for history, target in data:
            chunk, cache = _forward(_stack_history(history, TINY), state)
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
        overall = max(float(np.abs(value).max()) for value in expected.values())
        for name, value in expected.items():
            got = state.opt_m[name] / (1.0 - opt.beta1)
            # Key-bias gradients are exactly 0 up to rounding (softmax shift
            # invariance), so they are held to the whole gradient's scale.
            bound = overall if name.endswith("attn.b_k") else np.abs(value).max()
            assert np.abs(got - value).max() <= 1e-14 * bound, name

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
        with pytest.raises(ShapeMismatch):
            train_step(bad, state, OptimizerConfig())
        assert state.opt_step == 1
        for table, before in zip((state.params, state.opt_m, state.opt_v), snapshot):
            for name in before:
                assert np.array_equal(table[name], before[name])


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


class TestPolicySerialization:
    def test_roundtrip_and_resume(self, tmp_path):
        state = init_policy(TINY, 27)
        data = linear_task_data(TINY, 4, 28)
        for _ in range(3):
            train_step(data, state, OptimizerConfig())
        path = tmp_path / "policy.bin"
        save_policy_state(state, path)
        loaded = load_policy_state(path)
        assert loaded.config == state.config
        assert loaded.opt_step == state.opt_step
        # One more identical step from each must agree bitwise.
        _, loss_a = train_step(data, state, OptimizerConfig())
        _, loss_b = train_step(data, loaded, OptimizerConfig())
        assert loss_a == loss_b
        for name in state.params:
            assert np.array_equal(state.params[name], loaded.params[name])

    def test_training_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_training_curve([(0, 0.5), (1, 0.25)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3


class TestPolicyConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            PolicyConfig(history_len=0)

    def test_width_head_divisibility(self):
        with pytest.raises(ValueError):
            PolicyConfig(width=30, heads=4)
