import numpy as np
import pytest

from routelock.errors import NumericError
from routelock.params import (
    CHUNK_POINTS,
    ParamVector,
    finite_diff_grad,
    max_relative_error,
    sampled_cross_hessian_max,
    value_and_grad,
)
from routelock.tensor import add, matmul, mul, sum_all


def pv(**kw):
    return ParamVector(kw.items())


def quad_loss(leaves, _batch):
    # 0.5 * |p|^2 over every segment
    total = None
    for t in leaves.values():
        term = mul(sum_all(mul(t, t)), 0.5)
        total = term if total is None else total + term
    return total


def test_flatten_roundtrip_identity():
    rng = np.random.default_rng(0)
    p = pv(a=rng.normal(size=(3, 4)), b=rng.normal(size=7), c=rng.normal(size=(2, 2, 2)))
    again = p.from_flat(p.flatten())
    for name, arr in p.items():
        assert np.array_equal(arr, again[name])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        ParamVector([("a", np.zeros(2)), ("a", np.zeros(2))])


def test_segment_slice():
    p = pv(a=np.zeros((2, 3)), b=np.zeros(4))
    assert p.segment_slice("a") == (0, 6)
    assert p.segment_slice("b") == (6, 10)


def test_value_and_grad_quadratic():
    rng = np.random.default_rng(1)
    p = pv(a=rng.normal(size=5), b=rng.normal(size=(2, 3)))
    loss, grads = value_and_grad(quad_loss, p, None)
    assert abs(loss - 0.5 * float(np.sum(p.flatten() ** 2))) < 1e-12
    for name, arr in p.items():
        assert np.allclose(grads[name], arr, atol=1e-14)


def test_untouched_segment_grad_is_bitwise_zero():
    p = pv(used=np.ones(3), unused=np.ones(4))

    def loss_fn(leaves, _):
        return sum_all(mul(leaves["used"], leaves["used"]))

    _, grads = value_and_grad(loss_fn, p, None)
    assert np.array_equal(grads["unused"], np.zeros(4))
    assert grads["unused"].tobytes() == np.zeros(4).tobytes()


def test_nonfinite_loss_names_operation():
    p = pv(a=np.array([1e200]))

    def loss_fn(leaves, _):
        big = mul(leaves["a"], leaves["a"])  # overflows to inf
        return sum_all(big)

    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="mul"):
            value_and_grad(loss_fn, p, None)


def test_nonfinite_gradient_names_segment():
    # at a = 1e-300 the loss a * 1e200 * 1e200 is 1e100, finite, but its gradient 1e400 overflows
    p = pv(ok=np.array([1.0]), a=np.array([1e-300]), also=np.array([1e-300]))

    def loss_fn(leaves, _):
        scaled = add(mul(mul(leaves["a"], 1e200), 1e200), mul(mul(leaves["also"], 1e200), 1e200))
        return add(sum_all(leaves["ok"]), sum_all(scaled))

    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="non-finite gradient .* segment 'a'"):
            value_and_grad(loss_fn, p, None)


def test_finite_diff_simple_quadratic():
    p = pv(a=np.array([3.0]))

    def loss_fn(leaves, _):
        return mul(sum_all(mul(leaves["a"], leaves["a"])), 0.5)

    g = finite_diff_grad(loss_fn, p, None, step=1e-4)
    assert abs(g["a"][0] - 3.0) <= 1e-7


def test_finite_diff_constant_loss():
    p = pv(a=np.ones(4))

    def loss_fn(leaves, _):
        return sum_all(mul(leaves["a"], np.zeros(4)))

    g = finite_diff_grad(loss_fn, p, None)
    assert np.array_equal(g["a"], np.zeros(4))


def test_finite_diff_unread_segment_is_exact_zero():
    # "unread" spans whole chunks of points, so some chunks perturb nothing the
    # loss reads and get back an unpointed loss
    p = pv(read=np.array([0.5, -1.5, 2.0]), unread=np.linspace(-1.0, 1.0, CHUNK_POINTS))

    def loss_fn(leaves, _):
        return mul(sum_all(mul(leaves["read"], leaves["read"])), 0.5)

    g = finite_diff_grad(loss_fn, p, None)
    assert g["unread"].tobytes() == np.zeros(CHUNK_POINTS).tobytes()
    assert np.allclose(g["read"], p["read"], atol=1e-9)


def test_finite_diff_agrees_with_reverse_mode():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(4, 4))
    p = pv(x=rng.normal(size=(3, 4)))

    def loss_fn(leaves, _):
        y = matmul(leaves["x"], w)
        return sum_all(mul(y, y))

    _, rev = value_and_grad(loss_fn, p, None)
    fd = finite_diff_grad(loss_fn, p, None)
    assert max_relative_error(rev.flatten(), fd.flatten()) <= 1e-5


def test_hessian_block_separable():
    p = pv(a=np.array([1.0, 2.0]), b=np.array([0.5]))

    def loss_fn(leaves, _):
        return sum_all(mul(leaves["a"], leaves["a"])) + sum_all(mul(leaves["b"], leaves["b"]))

    [worst] = sampled_cross_hessian_max(loss_fn, p, None, [(["a"], ["b"], 0)], probes=8)
    assert worst <= 1e-6


def test_hessian_block_bilinear():
    p = pv(a=np.array([1.3]), b=np.array([-0.7]))

    def loss_fn(leaves, _):
        return sum_all(mul(leaves["a"], leaves["b"]))

    [worst] = sampled_cross_hessian_max(loss_fn, p, None, [(["a"], ["b"], 0)], probes=4)
    assert abs(worst - 1.0) <= 1e-4


def test_hessian_block_nan_entry_is_not_zero():
    p = pv(w=np.array([0.5, -1.0]))

    def loss_fn(leaves, _):
        return mul(sum_all(mul(leaves["w"], leaves["w"])), float("nan"))

    [worst] = sampled_cross_hessian_max(loss_fn, p, None, [(["w"], ["w"], 0)], probes=4)
    assert np.isnan(worst)


def test_hessian_block_bad_probes():
    p = pv(a=np.zeros(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        sampled_cross_hessian_max(lambda l, _: sum_all(l["a"]), p, None, [(["a"], ["b"], 0)], probes=0)


def test_add_scaled():
    p = pv(a=np.array([1.0, 2.0]))
    q = pv(a=np.array([10.0, 20.0]))
    out = p.add_scaled(q, -0.1)
    assert np.allclose(out["a"], [0.0, 0.0])
