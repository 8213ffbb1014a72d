"""Tests for the toy flow-matching trainer and its hand-written gradients."""

import json
import math
import struct

import numpy as np
import pytest

from tqd.errors import CheckpointError, DataError, NumericError
from tqd.sampler import SamplerConfig
from tqd.synth import MAX_CLIP_PIXELS, DegradationSpec, ToyVideo, degrade, generate_moving_shape
from tqd.trainer import (
    _ADAM_CHUNK,
    _PROBE_BLOCK_BYTES,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MAX_HIDDEN_WIDTH,
    N_FREQS,
    TrainerConfig,
    VelocityModel,
    adam_update,
    final_loss,
    grad_at_timestep,
    gradient_distances,
    load_checkpoint,
    loss_and_grad,
    param_count,
    save_checkpoint,
    time_features,
    train,
    write_training_log,
)


def _video(seed=4, frames=2, height=5, width=5, speed=1.0, tex=0.05):
    return generate_moving_shape(motion_speed=speed, texture_noise=tex, seed=seed,
                                 frames=frames, height=height, width=width)


# --- time features --------------------------------------------------------


def test_time_features_match_direct_trig():
    t = np.array([0.0, 0.25, 0.7])
    feats = time_features(t)
    assert feats.shape == (3, 2 * N_FREQS)
    freqs = 2.0 * np.pi * 2.0 ** np.arange(N_FREQS)
    np.testing.assert_allclose(feats[:, :N_FREQS], np.sin(t[:, None] * freqs), atol=1e-15)
    np.testing.assert_allclose(feats[:, N_FREQS:], np.cos(t[:, None] * freqs), atol=1e-15)


def test_time_features_scalar_input():
    feats = time_features(0.0)
    np.testing.assert_allclose(feats, [0.0] * N_FREQS + [1.0] * N_FREQS, atol=1e-15)


# --- model init and views ---------------------------------------------------


def test_param_count_matches_layer_arithmetic():
    d, h = 12, 16
    in_dim = d + 2 * N_FREQS
    expected = in_dim * h + h + h * h + h + h * d + d
    assert param_count(d, h) == expected


def test_init_zero_final_gives_zero_velocity_field():
    # a zero prediction leaves the whole target x1 - x0 as the residual
    model = VelocityModel.init((2, 3, 3), seed=0, hidden_width=8)
    x0, x1 = np.random.default_rng(1).normal(size=(2, 1, 18))
    loss, _ = loss_and_grad(model, x0, x1, np.array([0.4]))
    np.testing.assert_allclose(loss, np.mean((x1 - x0) ** 2), rtol=1e-14)


def test_init_is_deterministic():
    a = VelocityModel.init((1, 4, 4), seed=9, hidden_width=8, zero_final=False)
    b = VelocityModel.init((1, 4, 4), seed=9, hidden_width=8, zero_final=False)
    np.testing.assert_array_equal(a.theta, b.theta)
    c = VelocityModel.init((1, 4, 4), seed=10, hidden_width=8, zero_final=False)
    assert not np.array_equal(a.theta, c.theta)


def test_views_alias_the_flat_vector():
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4)
    views = model.views()
    views["b1"][0] = 7.5
    assert 7.5 in model.theta


def test_views_reject_wrong_sized_theta():
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4)
    bad = VelocityModel(data_shape=(1, 2, 2), hidden_width=4, theta=model.theta[:-1].copy())
    with pytest.raises(DataError, match="layout"):
        bad.views()


def test_init_validates_shape_and_widths():
    with pytest.raises(DataError, match="three positive dims"):
        VelocityModel.init((2, 3), seed=0)
    with pytest.raises(DataError, match="three positive dims"):
        VelocityModel.init((2, 0, 3), seed=0)
    with pytest.raises(DataError):
        VelocityModel.init((1, 2, 2), seed=0, hidden_width=0)
    with pytest.raises(DataError, match=f"more than {MAX_CLIP_PIXELS} pixels"):
        VelocityModel.init((1, 256, 257), seed=0)
    with pytest.raises(DataError, match=f"at most {MAX_HIDDEN_WIDTH}"):
        VelocityModel.init((1, 2, 2), seed=0, hidden_width=MAX_HIDDEN_WIDTH + 1)


def test_non_finite_parameters_raise_numeric_error():
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4, zero_final=False)
    model.theta[0] = np.nan
    with pytest.raises(NumericError, match="layer 1"):
        loss_and_grad(model, np.zeros((1, 4)), np.zeros((1, 4)), np.array([0.5]))


# --- loss and gradient -------------------------------------------------------


def test_matching_endpoints_give_zero_loss_and_grad():
    # zero-init output layer predicts zero velocity; x0 == x1 makes the
    # target zero too, so the residual vanishes identically
    model = VelocityModel.init((1, 3, 3), seed=1, hidden_width=8)
    x = np.random.default_rng(3).normal(size=(4, 9))
    loss, grad = loss_and_grad(model, x, x, np.full(4, 0.5))
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_zero_output_layer_loss_has_closed_form():
    # out == 0 makes the loss the mean squared target
    model = VelocityModel.init((1, 2, 2), seed=1, hidden_width=8)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(3, 4))
    x1 = rng.normal(size=(3, 4))
    loss, _ = loss_and_grad(model, x0, x1, np.full(3, 0.3))
    np.testing.assert_allclose(loss, np.mean((x1 - x0) ** 2), rtol=1e-14)


def test_zero_output_layer_confines_gradient_to_final_layer():
    # with W3 == 0 nothing propagates back past the output layer, and the
    # output-bias gradient reduces to -2/D times the mean residual target
    model = VelocityModel.init((1, 2, 2), seed=1, hidden_width=8)
    d = model.data_dim
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(5, d))
    x1 = rng.normal(size=(5, d))
    _, grad = loss_and_grad(model, x0, x1, np.full(5, 0.4))
    hidden_params = model.input_dim * 8 + 8 + 8 * 8 + 8
    np.testing.assert_array_equal(grad[:hidden_params], 0.0)
    np.testing.assert_allclose(grad[-d:], -2.0 / d * np.mean(x1 - x0, axis=0),
                               rtol=1e-13)


def test_gradient_matches_central_finite_differences():
    # the load-bearing check: every coordinate of the hand-written
    # backward pass against an independent numeric derivative
    model = VelocityModel.init((1, 3, 3), seed=5, hidden_width=8, zero_final=False)
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, model.data_dim))
    x1 = rng.normal(size=(4, model.data_dim))
    t = rng.uniform(0.1, 0.9, size=4)
    _, grad = loss_and_grad(model, x0, x1, t)
    h = 1e-5
    for i in range(model.param_count):
        orig = model.theta[i]
        model.theta[i] = orig + h
        lp, _ = loss_and_grad(model, x0, x1, t)
        model.theta[i] = orig - h
        lm, _ = loss_and_grad(model, x0, x1, t)
        model.theta[i] = orig
        fd = (lp - lm) / (2.0 * h)
        assert abs(grad[i] - fd) <= 1e-7 + 1e-5 * abs(fd), f"coordinate {i}"


def test_loss_is_batch_order_invariant():
    model = VelocityModel.init((1, 3, 3), seed=5, hidden_width=8, zero_final=False)
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(6, 9))
    x1 = rng.normal(size=(6, 9))
    t = rng.uniform(0.1, 0.9, size=6)
    perm = rng.permutation(6)
    loss_a, grad_a = loss_and_grad(model, x0, x1, t)
    loss_b, grad_b = loss_and_grad(model, x0[perm], x1[perm], t[perm])
    np.testing.assert_allclose(loss_a, loss_b, rtol=1e-12)
    np.testing.assert_allclose(grad_a, grad_b, rtol=1e-9, atol=1e-12)


def test_loss_and_grad_validates_inputs():
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4)
    x = np.zeros((2, 4))
    with pytest.raises(DataError, match="batch mismatch"):
        loss_and_grad(model, x, np.zeros((3, 4)), np.full(2, 0.5))
    with pytest.raises(DataError, match="t has shape"):
        loss_and_grad(model, x, x, np.full(3, 0.5))
    with pytest.raises(DataError, match="lie in"):
        loss_and_grad(model, x, x, np.array([0.5, 1.5]))
    with pytest.raises(DataError, match="does not match"):
        loss_and_grad(model, np.zeros((1, 9)), np.zeros((1, 9)), np.array([0.5]))
    with pytest.raises(DataError, match="does not match"):
        loss_and_grad(model, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), np.array([0.5]))
    with pytest.raises(DataError, match="t has shape"):
        loss_and_grad(model, np.zeros((1, 4)), np.zeros((1, 4)), 0.5)


def test_gradient_equals_concatenated_layer_products_bit_for_bit():
    # reference: each layer's A.T @ B and bias sum, joined by concatenate
    model = VelocityModel.init((2, 4, 4), seed=5, hidden_width=48, zero_final=False)
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(6, 32))
    x1 = rng.normal(size=(6, 32))
    t = rng.uniform(0.1, 0.9, size=6)
    _, grad = loss_and_grad(model, x0, x1, t)

    w = model.views()
    xt = t[:, None] * x1 + (1.0 - t[:, None]) * x0
    x = np.concatenate([xt, time_features(t)], axis=1)
    a1 = np.tanh(x @ w["W1"] + w["b1"])
    a2 = np.tanh(a1 @ w["W2"] + w["b2"])
    d_out = (2.0 / x0.size) * (a2 @ w["W3"] + w["b3"] - (x1 - x0))
    d_z2 = (d_out @ w["W3"].T) * (1.0 - a2 * a2)
    d_z1 = (d_z2 @ w["W2"].T) * (1.0 - a1 * a1)
    expected = np.concatenate([
        (x.T @ d_z1).ravel(), d_z1.sum(axis=0),
        (a1.T @ d_z2).ravel(), d_z2.sum(axis=0),
        (a2.T @ d_out).ravel(), d_out.sum(axis=0)])
    assert np.array_equal(grad, expected)


# --- gradients at fixed timesteps ---------------------------------------------


def test_grad_at_timestep_is_deterministic_in_seed():
    model = VelocityModel.init((1, 3, 3), seed=2, hidden_width=8, zero_final=False)
    x0 = ToyVideo(np.random.default_rng(0).normal(size=(1, 3, 3)))
    a = grad_at_timestep(model, x0, 0.3, noise_seed=11, n_noise=8)
    b = grad_at_timestep(model, x0, 0.3, noise_seed=11, n_noise=8)
    np.testing.assert_array_equal(a, b)
    c = grad_at_timestep(model, x0, 0.3, noise_seed=12, n_noise=8)
    assert not np.array_equal(a, c)


def test_common_noise_cancels_in_gradient_differences():
    # zero output layer: output-bias gradient is -2/D * (mean_x1 - x0), so
    # same-seed calls on two samples must cancel mean_x1 exactly
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=8)
    d = model.data_dim
    rng = np.random.default_rng(2)
    x0a = rng.normal(size=d)
    x0b = rng.normal(size=d)
    ga = grad_at_timestep(model, ToyVideo(x0a.reshape(1, 2, 2)), 0.3, noise_seed=9, n_noise=8)
    gb = grad_at_timestep(model, ToyVideo(x0b.reshape(1, 2, 2)), 0.3, noise_seed=9, n_noise=8)
    np.testing.assert_allclose((ga - gb)[-d:], 2.0 / d * (x0a - x0b), rtol=1e-12)


def test_noise_averaging_shrinks_gradient_scatter():
    # variance over noise seeds should drop roughly with n_noise
    model = VelocityModel.init((2, 4, 4), seed=3, hidden_width=16, zero_final=False)
    x0 = ToyVideo(np.random.default_rng(1).normal(size=(2, 4, 4)))

    def scatter(n_noise):
        grads = np.stack([grad_at_timestep(model, x0, 0.5, noise_seed=s, n_noise=n_noise)
                          for s in range(12)])
        return float(np.mean(np.var(grads, axis=0)))

    assert scatter(64) < 0.25 * scatter(1)


def test_grad_at_timestep_validates_arguments():
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4)
    x0 = ToyVideo(np.zeros((1, 2, 2)))
    with pytest.raises(DataError, match="open interval"):
        grad_at_timestep(model, x0, 0.0, noise_seed=0, n_noise=4)
    with pytest.raises(DataError, match="open interval"):
        grad_at_timestep(model, x0, 1.0, noise_seed=0, n_noise=4)
    with pytest.raises(DataError, match="n_noise"):
        grad_at_timestep(model, x0, 0.5, noise_seed=0, n_noise=0)
    with pytest.raises(DataError, match="does not match"):
        grad_at_timestep(model, ToyVideo(np.zeros((2, 2, 2))), 0.5, noise_seed=0, n_noise=4)
    # the probe's Gram path keeps the same checks, on the video and each copy
    with pytest.raises(DataError, match="open interval"):
        gradient_distances(model, [(x0, [x0], [0])], [0.0], n_noise=4)
    with pytest.raises(DataError, match="open interval"):
        gradient_distances(model, [(x0, [x0], [0])], [1.0], n_noise=4)
    with pytest.raises(DataError, match="n_noise"):
        gradient_distances(model, [(x0, [x0], [0])], [0.5], n_noise=0)
    with pytest.raises(DataError, match="does not match"):
        gradient_distances(model, [(x0, [ToyVideo(np.zeros((2, 2, 2)))], [0])], [0.5],
                           n_noise=4)
    with pytest.raises(DataError, match="does not match"):
        gradient_distances(model, [(ToyVideo(np.zeros((2, 2, 2))), [x0], [0])], [0.5],
                           n_noise=4)


def test_gradient_distances_checks_each_video_when_it_reaches_it():
    # the items stream: the second video's bad copy is found when its item
    # is taken, and the third item is never asked for
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4)
    x0, bad = ToyVideo(np.zeros((1, 2, 2))), ToyVideo(np.zeros((2, 2, 2)))
    asked = []

    def items():
        for i, clip in enumerate([x0, bad, x0]):
            asked.append(i)
            yield x0, [clip], [i]

    with pytest.raises(DataError, match="does not match"):
        gradient_distances(model, items(), [0.5], n_noise=4)
    assert asked == [0, 1]
    # K is read from the first item's copies
    with pytest.raises(DataError, match="video 1 has 2 copies, the first has 1"):
        gradient_distances(model, [(x0, [x0], [0]), (x0, [x0, x0], [1])], [0.5], n_noise=4)
    # no items give an empty result
    assert gradient_distances(model, iter([]), [0.5], n_noise=4).shape == (0, 0, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("layer, name", [(1, "W1"), (3, "W3")])
def test_non_finite_layer_stops_both_gradient_paths(layer, name):
    model = VelocityModel.init((1, 2, 2), seed=0, hidden_width=4, zero_final=False)
    model.views()[name][0, 0] = np.inf
    x0 = ToyVideo(np.ones((1, 2, 2)))
    with pytest.raises(NumericError, match=f"layer {layer}"):
        grad_at_timestep(model, x0, 0.5, noise_seed=0, n_noise=2)
    with pytest.raises(NumericError, match=f"layer {layer}"):
        gradient_distances(model, [(x0, [x0], [0])], [0.5], n_noise=2)


# --- optimizer ----------------------------------------------------------------


def test_adam_first_step_displacement_is_lr_over_one_plus_eps():
    theta = np.zeros(4)
    grad = np.ones(4)
    m = np.zeros(4)
    v = np.zeros(4)
    adam_update(theta, grad, m, v, step=1, lr=0.01)
    np.testing.assert_allclose(theta, -0.01 / (1.0 + 1e-8), rtol=1e-14)


def test_adam_first_step_is_sign_descent_up_to_eps():
    theta = np.zeros(3)
    grad = np.array([5.0, -0.2, 1e3])
    m = np.zeros(3)
    v = np.zeros(3)
    adam_update(theta, grad, m, v, step=1, lr=0.1)
    expected = -0.1 * np.sign(grad) * np.abs(grad) / (np.abs(grad) + 1e-8)
    np.testing.assert_allclose(theta, expected, rtol=1e-12)


def test_adam_updates_moments_in_place():
    theta = np.zeros(2)
    grad = np.array([1.0, 2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    adam_update(theta, grad, m, v, step=1, lr=0.01)
    np.testing.assert_allclose(m, (1.0 - ADAM_BETA1) * grad, rtol=1e-14)
    np.testing.assert_allclose(v, (1.0 - ADAM_BETA2) * grad * grad, rtol=1e-14)


def _whole_array_adam(theta, grad, m, v, step, lr):
    # the unchunked form adam_update must reproduce bit for bit
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    root_c2 = math.sqrt(1.0 - ADAM_BETA2 ** step)
    step_size = lr * root_c2 / (1.0 - ADAM_BETA1 ** step)
    theta -= m / (np.sqrt(v) + ADAM_EPS * root_c2) * step_size


@pytest.mark.parametrize("n", [1, _ADAM_CHUNK - 1, _ADAM_CHUNK, 2 * _ADAM_CHUNK + 7])
def test_chunked_adam_is_bit_identical_to_whole_array_formula(n):
    rng = np.random.default_rng(n)
    theta = rng.normal(size=n)
    ref_theta, ref_m, ref_v = theta.copy(), np.zeros(n), np.zeros(n)
    m, v = np.zeros(n), np.zeros(n)
    for step in range(1, 21):
        # gradients spanning many magnitudes, with exact zeros
        grad = rng.normal(size=n) * 10.0 ** rng.integers(-6, 4, size=n)
        grad[rng.random(n) < 0.05] = 0.0
        adam_update(theta, grad, m, v, step, 3e-3)
        _whole_array_adam(ref_theta, grad, ref_m, ref_v, step, 3e-3)
    assert np.array_equal(theta, ref_theta)
    assert np.array_equal(m, ref_m)
    assert np.array_equal(v, ref_v)


def test_adam_update_matches_algorithm_1():
    # Kingma & Ba's Algorithm 1 as written: moments, bias corrections,
    # then lr * m_hat / (sqrt(v_hat) + eps)
    n, lr = 20000, 3e-3
    rng = np.random.default_rng(7)
    m, v = np.zeros(n), np.zeros(n)
    # the first 100 entries never see a gradient: zero state, zero gradient
    dead = np.arange(n) < 100
    for step in range(1, 1001):
        grad = rng.normal(size=n) * 10.0 ** rng.integers(-6, 5, size=n)
        grad[rng.random(n) < 0.05] = 0.0
        grad[dead] = 0.0
        ref_m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        ref_v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = ref_m / (1.0 - ADAM_BETA1 ** step)
        v_hat = ref_v / (1.0 - ADAM_BETA2 ** step)
        ref_step = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # theta starts at 0, so -theta afterwards is the displacement exactly
        theta = np.zeros(n)
        adam_update(theta, grad, m, v, step, lr)
        np.testing.assert_allclose(-theta, ref_step, rtol=4e-15, atol=0.0)
        assert np.array_equal(m, ref_m)
        assert np.array_equal(v, ref_v)
        assert not np.any(theta[dead])


def _adam_state(n=20000):
    rng = np.random.default_rng(3)
    return [rng.normal(size=n) for _ in range(4)]


def _assert_adam_refuses(args, match):
    arrays = [a for a in args[:4] if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    with pytest.raises(DataError, match=match):
        adam_update(*args)
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("which, bad", [
    (1, lambda a: a[:-5].copy()),
    (1, lambda a: a.astype(np.float32)),
    (2, lambda a: a.reshape(100, 200)),
    (3, lambda a: a.tolist()),
    (0, lambda a: a[:10].copy()),
])
def test_adam_update_rejects_bad_arrays(which, bad):
    # checked before any write: on its own, numpy refuses a short gradient
    # only at the chunk where it runs out, after the chunks before it
    args = _adam_state() + [1, 1e-3]
    args[which] = bad(args[which])
    _assert_adam_refuses(args, "1-D float64 array|one size")


@pytest.mark.parametrize("step", [0, -1, 1.0, 2.5, True, None])
def test_adam_update_rejects_bad_step(step):
    # at step 0 the bias corrections are 0, which would make every parameter NaN
    _assert_adam_refuses(_adam_state() + [step, 1e-3], "step must be an integer")


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3, "0.1", None])
def test_adam_update_rejects_bad_lr(lr):
    _assert_adam_refuses(_adam_state() + [1, lr], "lr must be finite")


# --- training loop -------------------------------------------------------------


def test_train_zero_steps_returns_untouched_state():
    state = train([_video()], [0.5], [0.5], SamplerConfig(batch_size=4),
                  TrainerConfig(steps=0, seed=0))
    assert state.step == 0
    assert state.loss_history == []
    assert state.mean_t_history == []
    assert state.acceptance_history == []


def test_train_is_deterministic_in_seed():
    dataset = ([_video()], [0.5], [0.5])
    cfg = TrainerConfig(steps=40, hidden_width=32, seed=7)
    a = train(*dataset, SamplerConfig(batch_size=4), cfg)
    b = train(*dataset, SamplerConfig(batch_size=4), cfg)
    assert a.loss_history == b.loss_history
    assert a.mean_t_history == b.mean_t_history
    np.testing.assert_array_equal(a.model.theta, b.model.theta)
    c = train(*dataset, SamplerConfig(batch_size=4), TrainerConfig(steps=40, hidden_width=32, seed=8))
    assert a.loss_history != c.loss_history


def test_train_is_prefix_deterministic():
    # a run of k steps is the first k steps of a longer run with the same
    # seed, so snapshots at step k can be taken by training for k steps
    dataset = ([_video(seed=i) for i in range(4)], [0.2 + 0.2 * i for i in range(4)],
               [0.8 - 0.15 * i for i in range(4)])
    short, long = (train(*dataset, SamplerConfig(batch_size=4),
                         TrainerConfig(steps=steps, hidden_width=16, seed=3))
                   for steps in (7, 20))
    assert short.loss_history == long.loss_history[:7]
    assert short.mean_t_history == long.mean_t_history[:7]
    assert short.acceptance_history == long.acceptance_history[:7]
    assert min(long.acceptance_history) < 1.0


def test_train_single_sample_reduces_loss():
    state = train([_video()], [0.5], [0.5], SamplerConfig(batch_size=8),
                  TrainerConfig(steps=400, learning_rate=5e-3, hidden_width=64, seed=0))
    assert state.step == 400
    assert len(state.loss_history) == 400
    assert final_loss(state) < 0.5 * state.loss_history[0]


def test_baseline_arm_accepts_everything():
    # dropout would reject this low-quality record most of the time
    state = train([_video()], [0.1], [0.1], SamplerConfig(batch_size=4),
                  TrainerConfig(steps=20, seed=0, baseline=True))
    assert state.acceptance_history == [1.0] * 20


def test_baseline_arm_is_the_sampler_at_equal_full_scores():
    # the baseline flag only swaps the scores for ones: the same bits as
    # training the quality-aware arm on mq = vq = 1
    videos = [_video(seed=i) for i in range(3)]
    sampler_cfg = SamplerConfig(batch_size=4)
    base = train(videos, [0.1, 0.9, 0.4], [0.7, 0.0, 0.4], sampler_cfg,
                 TrainerConfig(steps=12, hidden_width=16, seed=5, baseline=True))
    ones = train(videos, np.ones(3), np.ones(3), sampler_cfg,
                 TrainerConfig(steps=12, hidden_width=16, seed=5))
    assert base.loss_history == ones.loss_history
    assert base.mean_t_history == ones.mean_t_history
    assert base.acceptance_history == ones.acceptance_history
    assert np.array_equal(base.model.theta.view(np.uint64), ones.model.theta.view(np.uint64))


@pytest.mark.parametrize("baseline", [False, True])
@pytest.mark.parametrize("mq, vq, name", [
    ([0.5, 1.5], [0.5, 0.5], "mq_norm"),
    ([0.5, 0.5], [-0.1, 0.5], "vq_norm"),
    ([0.5, float("nan")], [0.5, 0.5], "mq_norm"),
])
def test_out_of_range_scores_are_data_errors_in_both_arms(mq, vq, name, baseline):
    with pytest.raises(DataError, match=f"{name} must be in \\[0, 1\\]"):
        train([_video(), _video(seed=5)], mq, vq, SamplerConfig(batch_size=4),
              TrainerConfig(steps=1, seed=0, baseline=baseline))


def test_quality_arm_skews_timesteps_toward_motion():
    # a single high-motion low-visual record puts most timestep mass
    # above one half; the baseline flat law stays centered
    dataset = ([_video()], [1.0], [0.2])
    tqd = train(*dataset, SamplerConfig(batch_size=16),
                TrainerConfig(steps=30, seed=3))
    base = train(*dataset, SamplerConfig(batch_size=16),
                 TrainerConfig(steps=30, seed=3, baseline=True))
    assert np.mean(tqd.mean_t_history) > 0.7
    assert 0.4 < np.mean(base.mean_t_history) < 0.6


def test_train_validates_dataset():
    with pytest.raises(DataError, match="empty"):
        train([], [], [], SamplerConfig(), TrainerConfig(steps=1))
    for mq, vq in (([0.5], [0.5, 0.5]), ([0.5, 0.5], [0.5]), ([0.5, 0.5], [0.5, 0.5])):
        with pytest.raises(DataError, match="videos, mq and vq must have one length"):
            train([_video()], mq, vq, SamplerConfig(), TrainerConfig(steps=1))
    with pytest.raises(DataError, match="video shape mismatch: video 1 has"):
        train([_video(height=5), _video(height=6)], [0.5, 0.5], [0.5, 0.5],
              SamplerConfig(), TrainerConfig(steps=1))
    for videos in (["x"], [_video(), None]):
        with pytest.raises(DataError, match=f"video {len(videos) - 1} must be a ToyVideo"):
            train(videos, [0.5] * len(videos), [0.5] * len(videos),
                  SamplerConfig(), TrainerConfig(steps=1))
    with pytest.raises(DataError, match="1-D arrays"):
        train([_video()], [[0.5]], [[0.5]], SamplerConfig(), TrainerConfig(steps=1))
    with pytest.raises(DataError, match="mq_norm must be in"):
        train([_video()], [1.5], [0.5], SamplerConfig(), TrainerConfig(steps=1))


def test_final_loss_trailing_window():
    state = train([_video()], [0.5], [0.5], SamplerConfig(batch_size=4),
                  TrainerConfig(steps=20, seed=0))
    np.testing.assert_allclose(final_loss(state), np.mean(state.loss_history[-2:]))
    empty = train([_video()], [0.5], [0.5], SamplerConfig(batch_size=4),
                  TrainerConfig(steps=0, seed=0))
    with pytest.raises(DataError, match="empty loss history"):
        final_loss(empty)


# --- trainer config -------------------------------------------------------------


def test_trainer_config_validation():
    with pytest.raises(DataError, match="steps"):
        TrainerConfig(steps=-1)
    with pytest.raises(DataError, match="learning_rate"):
        TrainerConfig(learning_rate=0.0)
    with pytest.raises(DataError, match="hidden_width"):
        TrainerConfig(hidden_width=0)
    TrainerConfig(hidden_width=MAX_HIDDEN_WIDTH)
    with pytest.raises(DataError, match="hidden_width"):
        TrainerConfig(hidden_width=MAX_HIDDEN_WIDTH + 1)
    with pytest.raises(DataError, match="seed"):
        TrainerConfig(seed=-2)


# --- artifacts -------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = VelocityModel.init((2, 4, 4), seed=6, hidden_width=16, zero_final=False)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, step=123, seed=6)
    loaded, header = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.theta, model.theta)
    assert loaded.data_shape == model.data_shape
    assert loaded.hidden_width == model.hidden_width
    assert header["step"] == 123
    assert header["seed"] == 6


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_param_mismatch(tmp_path):
    model = VelocityModel.init((1, 3, 3), seed=0, hidden_width=8)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(short)
    chopped = tmp_path / "chopped.bin"
    chopped.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="parameters"):
        load_checkpoint(chopped)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.bin")


@pytest.mark.parametrize("case, match", [
    ("trailing-bytes", "parameters"),
    ("header-past-eof", "truncated"),
    ("one-double-short", "parameters"),
    ("non-json-header", "malformed checkpoint header"),
    ("list-header", "malformed checkpoint header"),
    ("empty-header", "malformed checkpoint header"),
])
def test_checkpoint_rejects_a_payload_off_its_header(tmp_path, case, match):
    # every size is compared with the file's before the parameters are read,
    # and so is a header that is not an object holding the architecture
    model = VelocityModel.init((1, 3, 3), seed=0, hidden_width=8)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    if case == "trailing-bytes":
        raw += bytes(8)
    elif case == "header-past-eof":
        raw = raw[:4] + struct.pack("<I", len(raw)) + raw[8:]
    elif case == "one-double-short":
        raw = raw[:-8]
    else:
        header = {"non-json-header": b"{not json", "list-header": b"[1]",
                  "empty-header": b"{}"}[case]
        (hlen,) = struct.unpack("<I", raw[4:8])
        raw = raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + hlen:]
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_gradient_distances_holds_one_block_of_timesteps(traced_peak):
    # At the probe's default shape a timestep's noise and activations take
    # 416 KiB, so a 64-point grid held at once would take 27 MB. In blocks
    # the peak stays within the cap plus a 2 MiB slack for one timestep's
    # temporaries (its D-wide output rows, the backward's (1+K, n, H) arrays)
    # and the block's H-wide products.
    model = VelocityModel.init((8, 16, 16), seed=0, hidden_width=128, zero_final=False)
    videos = [_video(seed=s, frames=8, height=16, width=16, speed=2.0) for s in range(2)]
    t_grid = [(j + 1) / 65 for j in range(64)]
    items = [(video,
              [degrade(video, DegradationSpec(kind, strength, seed=1))
               for kind, strength in (("blur", 2.0), ("compression", 8.0), ("noise", 0.1),
                                      ("shuffle", 1.0))],
              [64 * i + j for j in range(64)])
             for i, video in enumerate(videos)]
    peak = traced_peak(lambda: gradient_distances(model, items, t_grid, n_noise=16))
    assert peak <= _PROBE_BLOCK_BYTES + 2 * 2**20


def test_save_checkpoint_copies_no_parameters(tmp_path, traced_peak):
    # save writes theta's own buffer
    model = VelocityModel.init((2, 10, 10), seed=0, hidden_width=512)
    peak = traced_peak(lambda: save_checkpoint(model, tmp_path / "model.bin"))
    assert peak < 0.01 * model.theta.nbytes


def test_load_checkpoint_holds_theta_once(tmp_path, traced_peak):
    # load reads straight into the one array it returns
    model = VelocityModel.init((2, 10, 10), seed=0, hidden_width=512)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    assert traced_peak(lambda: load_checkpoint(path)) < 1.05 * model.theta.nbytes


def test_train_holds_one_gradient_per_step(traced_peak):
    # theta, the two Adam moments and one gradient make 4 parameter-sized
    # arrays; the last step's gradient kept alive through the next
    # loss_and_grad would make 5
    videos = [_video(seed=i, frames=2, height=10, width=10) for i in range(20)]
    mq, vq = [0.05 * i for i in range(20)], [1.0 - 0.05 * i for i in range(20)]
    size = 8 * param_count(200, 512)
    peak = traced_peak(lambda: train(videos, mq, vq, SamplerConfig(batch_size=16),
                                      TrainerConfig(steps=3, hidden_width=512)))
    assert peak < 4.5 * size


@pytest.mark.parametrize("data_shape, hidden_width, n_params, match", [
    # the pixel count wraps to 0 in int64, where 5 parameters would fit
    ([2**32, 2**32, 1], 1, 5, f"more than {MAX_CLIP_PIXELS} pixels"),
    ([1, 256, 257], 1, 8, f"more than {MAX_CLIP_PIXELS} pixels"),
    ([1, 1, 1], MAX_HIDDEN_WIDTH + 1, 8, f"at most {MAX_HIDDEN_WIDTH}"),
], ids=["wrapping-pixel-count", "pixels-over-limit", "width-over-limit"])
def test_checkpoint_rejects_oversized_architecture(tmp_path, data_shape, hidden_width,
                                                   n_params, match):
    # the size checks come before the payload-length check
    header = json.dumps({"data_shape": data_shape, "hidden_width": hidden_width,
                         "n_freqs": 1, "param_count": n_params}).encode()
    path = tmp_path / "model.bin"
    path.write_bytes(b"TQDC" + struct.pack("<I", len(header)) + header
                     + np.zeros(n_params).tobytes())
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_training_log_round_trips_floats(tmp_path):
    state = train([_video()], [0.5], [0.5], SamplerConfig(batch_size=4),
                  TrainerConfig(steps=5, seed=0))
    path = tmp_path / "log.csv"
    write_training_log(state, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,loss,mean_t,batch_acceptance_rate"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:]):
        step, loss, mean_t, acc = line.split(",")
        assert int(step) == i + 1
        assert float(loss) == state.loss_history[i]
        assert float(mean_t) == state.mean_t_history[i]
        assert float(acc) == state.acceptance_history[i]
