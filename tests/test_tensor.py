import itertools
import math

import numpy as np
import pytest

from routelock.errors import ShapeError
from routelock.tensor import (
    Tensor,
    _sigmoid,
    add,
    backward,
    embedding,
    matmul,
    mean_all,
    mul,
    no_grad,
    reshape,
    rms_norm,
    rope_rotate,
    silu,
    softmax,
    softmax_cross_entropy,
    sum_all,
    swap_last2,
    transpose,
)

from conftest import fd_grad, rel_err

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


def grad_of(build, *arrays, step=1e-5):
    """Reverse-mode grads of scalar build(*tensors) next to FD grads per input."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*tensors)
    backward(loss)
    rev = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    fds = []
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = [Tensor(arr) for arr in arrays]
            args[i] = Tensor(x)
            with no_grad():
                return float(build(*args).data)
        fds.append(fd_grad(f, a.copy(), step=step))
    return rev, fds


def check_grads(build, *arrays, tol=1e-6):
    rev, fds = grad_of(build, *arrays)
    for r, f in zip(rev, fds):
        assert rel_err(r, f) <= tol


def test_matmul_identity():
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_zero():
    out = matmul(Tensor(np.array([[1.0, 2.0]])), Tensor(np.zeros((2, 1))))
    assert np.array_equal(out.data, np.array([[0.0]]))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_matmul_grad_vs_fd():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    check_grads(lambda x, y: sum_all(mul(matmul(x, y), matmul(x, y))), a, b)


def test_matmul_stacked_grad():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))
    check_grads(lambda x, y: sum_all(matmul(x, y)), a, b)


def test_matmul_broadcast_weight_grad():
    rng = np.random.default_rng(2)
    x, w = rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4))
    check_grads(lambda a, b: sum_all(mul(matmul(a, b), matmul(a, b))), x, w)


def test_silu_values():
    assert silu(Tensor(np.array([0.0]))).data[0] == 0.0
    assert abs(silu(Tensor(np.array([1.0]))).data[0] - SIGMOID_1) < 1e-12


def test_silu_grad_vs_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5)) * 2
    check_grads(lambda t: sum_all(mul(silu(t), silu(t))), x)


def test_rms_norm_constant_vector():
    for c in (2.5, -0.3):
        x = np.full(6, c)
        out = rms_norm(Tensor(x), Tensor(np.ones(6)))
        assert np.allclose(out.data, np.sign(c), atol=1e-5)


def test_rms_norm_zero_vector():
    out = rms_norm(Tensor(np.zeros(5)), Tensor(np.ones(5)))
    assert np.array_equal(out.data, np.zeros(5))


def test_rms_norm_gain_mismatch():
    with pytest.raises(ShapeError):
        rms_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)))


def test_rms_norm_grad_vs_fd():
    rng = np.random.default_rng(4)
    x, g = rng.normal(size=(3, 6)), rng.normal(size=6)
    check_grads(lambda a, b: sum_all(mul(rms_norm(a, b), rms_norm(a, b))), x, g)


def test_softmax_grad_vs_fd():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4))
    check_grads(lambda t: sum_all(mul(softmax(t), softmax(t))), x)


def test_rope_grad_vs_fd():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 5, 4))
    ang = np.outer(np.arange(5), [1.0, 0.1])
    cos, sin = np.cos(ang), np.sin(ang)
    check_grads(lambda t: sum_all(mul(rope_rotate(t, cos, sin), rope_rotate(t, cos, sin))), x)


def test_embedding_grad_rows():
    table = np.arange(12.0).reshape(4, 3)
    t = Tensor(table, requires_grad=True)
    out = sum_all(embedding(t, np.array([1, 1, 3])))
    backward(out)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(t.grad, expected)


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 8))
    loss = softmax_cross_entropy(Tensor(logits), np.array([0, 3, 7]))
    assert abs(loss.item() - math.log(8)) < 1e-12


def test_cross_entropy_confident_logit():
    logits = np.zeros((1, 6))
    logits[0, 2] = 50.0
    loss = softmax_cross_entropy(Tensor(logits), np.array([2]))
    assert loss.item() < 1e-12


def test_cross_entropy_vs_logsumexp_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(5, 9)) * 3
    targets = rng.integers(0, 9, size=5)
    expected = 0.0
    for t in range(5):
        row = logits[t]
        m = row.max()
        expected += (m + math.log(np.sum(np.exp(row - m)))) - row[targets[t]]
    expected /= 5
    loss = softmax_cross_entropy(Tensor(logits), targets)
    assert abs(loss.item() - expected) <= 1e-9


def test_cross_entropy_out_of_range_target():
    with pytest.raises(IndexError):
        softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([1, 4]))


def test_cross_entropy_masked_mean():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 5))
    targets = np.array([0, 1, 2, 3])
    mask = np.array([True, False, True, False])
    loss = softmax_cross_entropy(Tensor(logits), targets, mask)
    manual = softmax_cross_entropy(Tensor(logits[[0, 2]]), targets[[0, 2]])
    assert abs(loss.item() - manual.item()) < 1e-12


def test_cross_entropy_grad_vs_fd():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(2, 4, 6))
    targets = rng.integers(0, 6, size=(2, 4))
    mask = rng.random((2, 4)) > 0.3
    mask[:, 0] = True
    for reduction in ("mean", "sum", "example_mean"):
        check_grads(
            lambda t: softmax_cross_entropy(t, targets, mask, reduction=reduction),
            logits.copy(),
            tol=1e-5,
        )


def test_gradient_oracle_many_seeds():
    # composite expression mixing every differentiable op, 20 seeds
    ang = np.outer(np.arange(3), [1.0, 0.37])
    cos, sin = np.cos(ang), np.sin(ang)

    def build(x, w, g):
        y = rms_norm(x, g)
        y = matmul(y, w)
        y = rope_rotate(y, cos, sin)
        y = silu(y)
        return softmax_cross_entropy(softmax(y), np.array([0, 1, 2]))

    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, w, g = rng.normal(size=(3, 5)), rng.normal(size=(5, 4)), rng.normal(size=5)
        rev, fds = grad_of(build, x, w, g)
        for r, f in zip(rev, fds):
            assert rel_err(r, f) <= 1e-5


def test_no_grad_matches_grad_forward_bitwise():
    rng = np.random.default_rng(10)
    x, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))

    def run():
        return silu(matmul(rms_norm(Tensor(x), Tensor(np.ones(4))), Tensor(w))).data

    with no_grad():
        a = run()
    b = run()
    assert np.array_equal(a, b)


def test_backward_determinism_bitwise():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4))

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        loss = softmax_cross_entropy(matmul(t, t), np.array([0, 1, 2, 3]))
        backward(loss)
        return loss.data.copy(), t.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def masked_sigmoid(x):
    """The two-branch logistic _sigmoid must match bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_form():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000123, 0xFFF8000000000456],
                    dtype=np.uint64).view(np.float64)
    special = np.array([np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                        709.0, -745.0, 800.0, -800.0, 1e308, -1e308])
    rng = np.random.default_rng(12)
    pool = np.concatenate([nans, special, rng.normal(scale=20.0, size=40)])
    for n in (1, 7, 8, 9, 33, 200):
        x = rng.choice(pool, size=n)
        for arr in (x, x[::2], x.reshape(1, -1)):
            assert _sigmoid(arr).tobytes() == masked_sigmoid(arr).tobytes()
    x = rng.normal(scale=10.0, size=(25, 21, 128))
    assert _sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()


def test_pointed_tensor_raises_while_recording():
    with pytest.raises(RuntimeError, match="forward-only"):
        Tensor(np.zeros((2, 3)), pointed=True)
    with no_grad():
        p = Tensor(np.zeros((2, 3)), pointed=True)
    with pytest.raises(RuntimeError, match="forward-only"):
        add(p, Tensor(np.ones(3), requires_grad=True))


def test_pointed_reshape_transpose_keep_point_axis_leading():
    with no_grad():
        p = Tensor(np.arange(24.0).reshape(2, 3, 4), pointed=True)
        assert swap_last2(p).shape == (2, 4, 3) and swap_last2(p).pointed
        with pytest.raises(ShapeError):
            transpose(p)
        with pytest.raises(ShapeError):
            transpose(p, (1, 0, 2))
        with pytest.raises(ShapeError):
            reshape(p, (6, 4))
        assert reshape(p, (2, 12)).pointed


def test_pointed_ops_match_per_point_bitwise():
    # every mix of pointed and unpointed operands, against one point at a time
    ang = np.outer(np.arange(3), [1.0, 0.37])
    cos, sin = np.cos(ang), np.sin(ang)
    ids = np.array([[1, 0, 3], [2, 2, 0]])

    def build(table, w, g):
        y = rms_norm(embedding(table, ids), g)
        y = silu(rope_rotate(matmul(y, swap_last2(w)), cos, sin))
        xent = softmax_cross_entropy(softmax(y), np.array([[0, 1, 2], [3, 3, 1]]), reduction="example_mean")
        return add(mul(xent, 0.5), add(mean_all(mul(y, y)), sum_all(y)))

    rng = np.random.default_rng(13)
    k = 3
    arrays = [rng.normal(size=(k, 4, 5)), rng.normal(size=(k, 4, 5)), rng.normal(size=(k, 5))]
    with no_grad():
        for pointed in itertools.product((False, True), repeat=3):
            out = build(*(Tensor(a, pointed=True) if p else Tensor(a[0]) for a, p in zip(arrays, pointed)))
            assert out.pointed == any(pointed)
            assert out.shape == ((k,) if any(pointed) else ())
            for i in range(k if any(pointed) else 1):
                ref = build(*(Tensor(a[i] if p else a[0]) for a, p in zip(arrays, pointed)))
                assert out.data.reshape(-1)[i].tobytes() == ref.data.tobytes()
