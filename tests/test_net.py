import numpy as np
import pytest

from comotion.errors import NumericalError
from comotion.net import (
    AdamState,
    Mlp,
    adam_step,
    mlp_backward,
    mlp_forward,
    xavier_init,
)


def grad_check(loss, params: list[np.ndarray], h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss(params)`` must return ``(value, grads)`` with grads ordered like
    ``params`` and must be deterministic (freeze any sampling noise). The
    relative scale is floored at 1e-3 so near-zero gradients compare
    absolutely.
    """
    _, analytic = loss(params)
    worst = 0.0
    for i, p in enumerate(params):
        flat = p.reshape(-1)
        a_flat = analytic[i].reshape(-1)
        for j in range(flat.shape[0]):
            orig = flat[j]
            flat[j] = orig + h
            f_plus, _ = loss(params)
            flat[j] = orig - h
            f_minus, _ = loss(params)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(a_flat[j]), abs(numeric), 1e-3)
            worst = max(worst, abs(a_flat[j] - numeric) / denom)
    return worst


def test_forward_zero_network():
    m = Mlp([np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])
    out, _ = mlp_forward(m, np.ones(2))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_forward_single_linear_layer_exact():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    m = Mlp([w], [b])
    x = rng.standard_normal(4)
    out, _ = mlp_forward(m, x)
    np.testing.assert_allclose(out, w @ x + b, rtol=0, atol=0)


def test_forward_matches_manual_composition():
    rng = np.random.default_rng(1)
    m = Mlp.create([4, 6, 3], rng)
    x = rng.standard_normal(4)
    z1 = m.weights[0] @ x + m.biases[0]
    a1 = np.where(z1 > 0, z1, 0.01 * z1)
    expected = m.weights[1] @ a1 + m.biases[1]
    out, _ = mlp_forward(m, x)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(2)
    m = Mlp.create([5, 8, 8, 2], rng)
    x = rng.standard_normal((7, 5))
    a, _ = mlp_forward(m, x)
    b, _ = mlp_forward(m, x)
    np.testing.assert_array_equal(a, b)


def test_forward_shape_mismatch():
    m = Mlp.create([4, 3], np.random.default_rng(0))
    with pytest.raises(ValueError, match="width"):
        mlp_forward(m, np.zeros(5))


def test_backward_zero_out_grad():
    rng = np.random.default_rng(3)
    m = Mlp.create([3, 5, 2], rng)
    out, tape = mlp_forward(m, rng.standard_normal(3))
    grads, dx = mlp_backward(m, tape, np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads)
    np.testing.assert_array_equal(dx, np.zeros(3))


def test_backward_linear_layer_outer_product():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 4))
    m = Mlp([w], [np.zeros(3)])
    x = rng.standard_normal(4)
    _, tape = mlp_forward(m, x)
    out_grad = rng.standard_normal(3)
    grads, _ = mlp_backward(m, tape, out_grad)
    np.testing.assert_allclose(grads[0], np.outer(out_grad, x), atol=1e-14)
    np.testing.assert_allclose(grads[1], out_grad, atol=1e-14)


def test_backward_finite_difference_oracle():
    rng = np.random.default_rng(5)
    m = Mlp.create([4, 7, 5, 3], rng)
    x = rng.standard_normal((2, 4))

    def loss(params):
        out, tape = mlp_forward(m, x)
        value = 0.5 * float((out * out).sum())
        grads, _ = mlp_backward(m, tape, out)
        return value, grads

    assert grad_check(loss, m.params) < 1e-4


def test_backward_leaves_out_grad_unchanged():
    rng = np.random.default_rng(7)
    m = Mlp.create([4, 7, 5, 3], rng)
    out, tape = mlp_forward(m, rng.standard_normal((6, 4)))
    out_grad = rng.standard_normal(out.shape)
    kept = out_grad.copy()
    mlp_backward(m, tape, out_grad)
    np.testing.assert_array_equal(out_grad, kept)


def test_backward_stale_tape():
    rng = np.random.default_rng(6)
    m1 = Mlp.create([3, 4, 2], rng)
    m2 = Mlp.create([5, 2], rng)
    _, tape = mlp_forward(m1, np.zeros(3))
    with pytest.raises(ValueError, match="tape"):
        mlp_backward(m2, tape, np.zeros(2))


def test_xavier_bound():
    w = xavier_init((40, 20), np.random.default_rng(0))
    bound = np.sqrt(6.0 / 60.0)
    assert np.all(np.abs(w) <= bound)


def test_xavier_variance():
    w = xavier_init((100, 100), np.random.default_rng(1))
    target = 2.0 / 200.0
    assert abs(w.var() - target) / target < 0.15


def test_xavier_deterministic():
    a = xavier_init((10, 10), np.random.default_rng(3))
    b = xavier_init((10, 10), np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_adam_zero_gradient_is_identity():
    p = [np.ones(3)]
    st = AdamState.for_params(p)
    adam_step(p, [np.zeros(3)], st)
    np.testing.assert_array_equal(p[0], np.ones(3))


def test_adam_first_step_hand_computed():
    p = [np.array([1.0])]
    st = AdamState.for_params(p, lr=5e-4)
    adam_step(p, [np.array([1.0])], st)
    expected = 1.0 - 5e-4 * (1.0 / (1.0 + 1e-8))
    assert p[0][0] == pytest.approx(expected, abs=1e-15)


def test_adam_decoupled_decay_alone():
    p = [np.array([2.0])]
    st = AdamState.for_params(p, lr=1e-2, weight_decay=0.1)
    for _ in range(3):
        adam_step(p, [np.zeros(1)], st)
    assert p[0][0] == pytest.approx(2.0 * (1 - 1e-2 * 0.1) ** 3, abs=1e-14)


def test_adam_zero_lr_is_identity():
    rng = np.random.default_rng(7)
    p = [rng.standard_normal((3, 3))]
    orig = p[0].copy()
    st = AdamState.for_params(p, lr=0.0, weight_decay=0.5)
    adam_step(p, [rng.standard_normal((3, 3))], st)
    np.testing.assert_array_equal(p[0], orig)


def test_adam_rejects_non_finite_gradient():
    p = [np.ones(2), np.ones(2)]
    st = AdamState.for_params(p)
    with pytest.raises(NumericalError, match="block 1"):
        adam_step(p, [np.zeros(2), np.array([np.nan, 0.0])], st)


def test_grad_check_quadratic():
    rng = np.random.default_rng(8)
    p = [rng.standard_normal(4), rng.standard_normal((2, 3))]

    def loss(params):
        value = 0.5 * sum(float((x * x).sum()) for x in params)
        return value, [x.copy() for x in params]

    assert grad_check(loss, p) < 1e-8


def test_mlp_json_round_trip():
    rng = np.random.default_rng(9)
    m = Mlp.create([6, 5, 4], rng)
    m2 = Mlp.from_dict(m.to_dict())
    for a, b in zip(m.params, m2.params):
        np.testing.assert_array_equal(a, b)
