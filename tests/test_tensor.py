import itertools
import math

import numpy as np
import pytest

from routelock.errors import ShapeError
from routelock.model import causal_mask, rope_tables
from routelock.tensor import (
    RMS_EPS,
    Tensor,
    _rms_scale,
    _rotate,
    _sigmoid,
    _softmax,
    _weight_grad,
    add,
    attention,
    backward,
    embedding,
    linear,
    matmul,
    mean_all,
    mul,
    no_grad,
    reshape,
    rms_norm,
    rope_rotate,
    rotary_tables,
    silu,
    softmax,
    softmax_cross_entropy,
    sum_all,
    swiglu,
    tail,
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
    assert silu(Tensor(1.0)).data.tobytes() == silu(Tensor(np.array([1.0]))).data.tobytes()  # a 0-d input


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
    cos, sin = rotary_tables(np.cos(ang), np.sin(ang), 1)
    check_grads(lambda t: sum_all(mul(rope_rotate(t, cos, sin), rope_rotate(t, cos, sin))), x)
    # two heads of width 2, each rotated by its own copy of one angle per position
    cos, sin = rotary_tables(np.cos(ang[:, :1]), np.sin(ang[:, :1]), 2)
    check_grads(lambda t: sum_all(mul(rope_rotate(t, cos, sin, 2), rope_rotate(t, cos, sin, 2))), x)


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
    for reduction in ("token_sum", "example_mean"):
        check_grads(
            lambda t: softmax_cross_entropy(t, targets, mask, reduction=reduction),
            logits.copy(),
            tol=1e-5,
        )


def test_gradient_oracle_many_seeds():
    # composite expression mixing every differentiable op, 20 seeds
    ang = np.outer(np.arange(3), [1.0, 0.37])
    cos, sin = rotary_tables(np.cos(ang), np.sin(ang), 1)

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


NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000123, 0xFFF8000000000456],
                    dtype=np.uint64).view(np.float64)
SPECIAL = np.array([np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308, 1e200])


def special_draws(rng, shape):
    """Normal draws with about a quarter replaced by NaNs, infinities, zeros and extremes."""
    x = rng.normal(scale=5.0, size=shape)
    hit = rng.random(shape) < 0.25
    x[hit] = rng.choice(np.concatenate([NAN_BITS, SPECIAL]), size=int(hit.sum()))
    return x


def assert_bitwise_where_not_nan(a, b):
    """Equal bits everywhere except inside NaNs, whose sign and payload may differ."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def explicit_rope(x, cos, sin, n_heads, inverse=False):
    """The half-split rotation (x1 cos - x2 sin, x1 sin + x2 cos) of each head's feature halves
    by one head's (..., T, hd/2) tables, or by -angle: (x1 cos + x2 sin, -x1 sin + x2 cos)."""
    halves = x.reshape(x.shape[:-1] + (n_heads, 2, -1))
    x1, x2 = halves[..., 0, :], halves[..., 1, :]
    c, s = cos[..., None, :], sin[..., None, :]  # shared by every head
    if inverse:
        return np.stack((x1 * c + x2 * s, -x1 * s + x2 * c), axis=-2).reshape(x.shape)
    return np.stack((x1 * c - x2 * s, x1 * s + x2 * c), axis=-2).reshape(x.shape)


def explicit_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def explicit_cross_entropy_vjp(logits, targets, coeff, g):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    grad = p * coeff[..., None]
    picked = np.take_along_axis(grad, targets[..., None], axis=-1)
    np.put_along_axis(grad, targets[..., None], picked - coeff[..., None], axis=-1)
    return grad * g


# (input shape, heads, leading shape of the angle tables)
ROPE_CASES = {
    "one head": ((5, 4), 1, (5,)),
    "one head, batched": ((2, 3, 6, 8), 1, (6,)),
    "one position": ((3, 1, 2), 1, (1,)),
    "pointed oracle": ((64, 2, 9, 8), 2, (9,)),  # K points x B examples x T x D at the C1 config
    "demo training": ((25, 20, 64), 4, (20,)),
    "decode step": ((1, 1, 128), 8, (1,)),  # one row's q|k side by side (2 x 4 heads), one new position
    "ragged rows": ((3, 5, 32), 4, (3, 5)),  # per-row tables, as ragged decode chunks gather them
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rope_vjp_kernel_matches_explicit_formula_bitwise():
    # the unsplit kernel x * C + x[..., swap] * S against the half-split formula, forward and inverse
    rng = np.random.default_rng(21)
    for shape, heads, lead in ROPE_CASES.values():
        half = shape[-1] // heads // 2
        for draw in (rng.normal, lambda size: special_draws(rng, size)):
            x, g, cos, sin = draw(size=shape), draw(size=shape), draw(size=lead + (half,)), draw(size=lead + (half,))
            c, s = rotary_tables(cos, sin, heads)
            fwd, inv = explicit_rope(x, cos, sin, heads), explicit_rope(g, cos, sin, heads, inverse=True)
            assert_bitwise_where_not_nan(_rotate(x, c, s, heads), fwd)
            assert_bitwise_where_not_nan(_rotate(g, c, -s, heads), inv)
            a = rope_rotate(Tensor(x, requires_grad=True), c, s, heads)
            assert_bitwise_where_not_nan(a.data, fwd)
            assert_bitwise_where_not_nan(a._vjp(g)[0], inv)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rms_scale_kernel_matches_np_mean_bitwise():
    rng = np.random.default_rng(24)
    for shape in ((1, 1, 64), (64, 1, 64), (4, 9), (7,), (2, 3, 5, 16)):
        for x in (rng.normal(size=shape), special_draws(rng, shape)):
            ref = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
            assert_bitwise_where_not_nan(_rms_scale(x), ref)
            assert_bitwise_where_not_nan(rms_norm(Tensor(x), np.ones(shape[-1])).data, x / ref * 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_softmax_kernel_matches_explicit_formulas_bitwise():
    rng = np.random.default_rng(22)
    for shape in ((7,), (4, 9), (2, 3, 5, 5)):
        for x in (rng.normal(scale=30.0, size=shape), special_draws(rng, shape)):
            assert_bitwise_where_not_nan(_softmax(x), explicit_softmax(x))
            a = Tensor(x)
            assert_bitwise_where_not_nan(softmax(a).data, explicit_softmax(x))
    # temperature sampling's probabilities over one logit row
    for temperature in (0.3, 1.0, 2.5):
        for row in (rng.normal(scale=10.0, size=40), special_draws(rng, 40)):
            z = row / temperature
            z = z - z.max()
            p = np.exp(z)
            p /= p.sum()
            assert_bitwise_where_not_nan(_softmax(row / temperature), p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cross_entropy_vjp_matches_explicit_formula_bitwise():
    rng = np.random.default_rng(23)
    for draw in (lambda size: rng.normal(scale=20.0, size=size), lambda size: special_draws(rng, size)):
        logits = Tensor(draw((3, 6, 11)), requires_grad=True)
        targets = rng.integers(0, 11, size=(3, 6))
        mask = rng.random((3, 6)) < 0.7
        mask[:, 0] = True
        loss = softmax_cross_entropy(logits, targets, mask, reduction="example_mean")
        coeff = mask / mask.sum(axis=-1, keepdims=True) / 3
        g = np.float64(0.75)
        ref = explicit_cross_entropy_vjp(logits.data, targets, coeff, g)
        assert_bitwise_where_not_nan(loss._vjp(g)[0], ref)


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
        assert transpose(p, (0, 2, 1)).shape == (2, 4, 3) and transpose(p, (0, 2, 1)).pointed
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
    cos, sin = rotary_tables(np.cos(ang), np.sin(ang), 1)
    ids = np.array([[1, 0, 3], [2, 2, 0]])

    def build(table, w, g):
        y = rms_norm(embedding(table, ids), g)
        y = silu(rope_rotate(matmul(y, w), cos, sin))
        xent = softmax_cross_entropy(softmax(y), np.array([[0, 1, 2], [3, 3, 1]]), reduction="example_mean")
        return add(mul(xent, 0.5), add(mean_all(mul(y, y)), sum_all(y)))

    rng = np.random.default_rng(13)
    k = 3
    arrays = [rng.normal(size=(k, 4, 5)), rng.normal(size=(k, 5, 4)), rng.normal(size=(k, 5))]
    with no_grad():
        for pointed in itertools.product((False, True), repeat=3):
            out = build(*(Tensor(a, pointed=True) if p else Tensor(a[0]) for a, p in zip(arrays, pointed)))
            assert out.pointed == any(pointed)
            assert out.shape == ((k,) if any(pointed) else ())
            for i in range(k if any(pointed) else 1):
                ref = build(*(Tensor(a[i] if p else a[0]) for a, p in zip(arrays, pointed)))
                assert out.data.reshape(-1)[i].tobytes() == ref.data.tobytes()


# ---------------------------------------------------------------------------
# fused nodes against the composed graphs they replace
# ---------------------------------------------------------------------------


def swapped(t, i, j):
    """``t`` with axes i and j exchanged, as a transpose node."""
    axes = list(range(t.ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return transpose(t, tuple(axes))


def composed_linear(x, w):
    return matmul(x, swapped(w, -1, -2))


def composed_swiglu(x, wg, wu, wd):
    return composed_linear(mul(silu(composed_linear(x, wg)), composed_linear(x, wu)), wd)


def composed_attention(q, k, v, n_heads, cos, sin, mask, first=0):
    def heads(t):
        lead, (seq, d) = t.shape[:-2], t.shape[-2:]
        return swapped(reshape(t, lead + (seq, n_heads, d // n_heads)), -3, -2)

    qh = heads(rope_rotate(tail(q, first), cos[first:], sin[first:], n_heads))
    kh, vh = heads(rope_rotate(k, cos, sin, n_heads)), heads(v)
    scores = mul(matmul(qh, swapped(kh, -1, -2)), 1.0 / math.sqrt(q.shape[-1] // n_heads))
    ctx = swapped(matmul(softmax(add(scores, mask[first:])), vh), -3, -2)
    return reshape(ctx, ctx.shape[:-2] + (q.shape[-1],))


SEQ, WIDTH, HEADS = 4, 8, 2
COS, SIN = rotary_tables(*rope_tables(0, SEQ, WIDTH // HEADS, 10000.0), HEADS)


def fused_cases(rng, lead, width=None):
    """(name, fused op, composed op, input arrays) for inputs with leading shape ``lead``.

    Without ``width`` every op gets small trailing axes; with it, ``lead`` is a (batch, positions)
    shape over ``width`` features, as in the demo model: 4 heads, d_ff twice the width.
    """
    if width is None:
        seq, d, f, heads, cos, sin = SEQ, 3, (4, 6), HEADS, COS, SIN
        x_shape, qkv_shape = lead + (5, d), lead + (SEQ, WIDTH)
    else:
        seq, d, f, heads = lead[-1], width, (width, 2 * width), 4
        cos, sin = rotary_tables(*rope_tables(0, seq, width // heads, 10000.0), heads)
        x_shape = qkv_shape = lead + (width,)

    def attn(fn):
        return lambda q, k, v: fn(q, k, v, heads, cos, sin, causal_mask(seq))

    qkv = [rng.normal(size=qkv_shape) for _ in range(3)]
    return [
        ("linear", linear, composed_linear, [rng.normal(size=x_shape), rng.normal(size=(f[0], d))]),
        ("swiglu", swiglu, composed_swiglu,
         [rng.normal(size=x_shape), rng.normal(size=(f[1], d)), rng.normal(size=(f[1], d)),
          rng.normal(size=(d, f[1]))]),
        ("attention", attn(attention), attn(composed_attention), qkv),
    ]


@pytest.mark.parametrize("lead", [(), (2,)])
def test_fused_ops_grad_vs_fd(lead):
    rng = np.random.default_rng(31)
    for _, fused, _, arrays in fused_cases(rng, lead):
        check_grads(lambda *t: sum_all(mul(fused(*t), fused(*t))), *arrays)


# "demo" is a demo training batch: 25 sequences of 21 positions over width 64
@pytest.mark.parametrize("lead, width", [((), None), ((2,), None), ((3, 2), None), ((25, 21), 64)],
                         ids=["lead0", "lead1", "lead2", "demo"])
def test_fused_ops_forward_and_grads_bitwise_equal_composed(lead, width):
    rng = np.random.default_rng(32)
    for name, fused, composed, arrays in fused_cases(rng, lead, width):
        cot = None
        grads = []
        for op in (fused, composed):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*tensors)
            cot = rng.normal(size=out.shape) if cot is None else cot
            backward(sum_all(mul(out, cot)))
            grads.append((out.data, [t.grad for t in tensors]))
        (a, ga), (b, gb) = grads
        assert a.tobytes() == b.tobytes(), name
        for x, y in zip(ga, gb):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("first", [1, SEQ - 1])
def test_attention_query_start_bitwise_equal_composed(first):
    # queries from position ``first`` on: the composed graph slices q's rows with a tail node
    rng = np.random.default_rng(34)
    arrays = [rng.normal(size=(2, SEQ, WIDTH)) for _ in range(3)]
    cot = rng.normal(size=(2, SEQ - first, WIDTH))
    results = []
    for op in (attention, composed_attention):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*tensors, HEADS, COS, SIN, causal_mask(SEQ), first)
        backward(sum_all(mul(out, cot)))
        results.append((out.data, [t.grad for t in tensors]))
    (a, ga), (b, gb) = results
    assert a.shape == (2, SEQ - first, WIDTH) and a.tobytes() == b.tobytes()
    for x, y in zip(ga, gb):
        assert x.shape == y.shape == (2, SEQ, WIDTH) and x.tobytes() == y.tobytes()
    assert ga[0][:, :first].tobytes() == np.zeros((2, first, WIDTH)).tobytes()
    # a pointed q, k or v: each point is bitwise the composed graph at that point alone
    k = 3
    points = [rng.normal(size=(k, 2, SEQ, WIDTH)) for _ in range(3)]
    with no_grad():
        for i in range(3):
            pointed = [Tensor(p, pointed=True) if j == i else Tensor(p[0]) for j, p in enumerate(points)]
            out = attention(*pointed, HEADS, COS, SIN, causal_mask(SEQ), first)
            assert out.pointed and out.shape == (k, 2, SEQ - first, WIDTH)
            for point in range(k):
                alone = [Tensor(p[point] if j == i else p[0]) for j, p in enumerate(points)]
                ref = composed_attention(*alone, HEADS, COS, SIN, causal_mask(SEQ), first)
                assert out.data[point].tobytes() == ref.data.tobytes()


def test_tail_slices_rows_and_scatters_its_gradient():
    rng = np.random.default_rng(35)
    x = rng.normal(size=(2, 5, 3))
    t = Tensor(x, requires_grad=True)
    assert tail(t, 0) is t
    out = tail(t, 2)
    assert out.shape == (2, 3, 3) and out.data.tobytes() == x[:, 2:].tobytes()
    g = rng.normal(size=out.shape)
    backward(sum_all(mul(out, g)))
    expected = np.zeros_like(x)
    expected[:, 2:] = g
    assert t.grad.tobytes() == expected.tobytes()
    with no_grad():
        assert tail(Tensor(np.stack([x, -x]), pointed=True), 4).data.tobytes() == np.stack([x, -x])[:, :, 4:].tobytes()


def row_chunk_weight_grad(a, g):
    """The (f, d) weight gradient of a @ w.T: g[i:i+256].T @ a[i:i+256] over the flattened rows, summed in chunk order."""
    a, g = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
    gw = g[:256].T @ a[:256]
    for i in range(256, len(a), 256):
        gw = gw + g[i : i + 256].T @ a[i : i + 256]
    return gw


def test_weight_grad_is_256_row_chunks_whatever_the_sequence_shape():
    # a demo batch: 525 token rows, so two full chunks and a 13-row one
    rng = np.random.default_rng(41)
    x, g = rng.normal(size=(25, 21, 64)), rng.normal(size=(25, 21, 128))
    got = _weight_grad(x, g)
    assert got.shape == (128, 64) and got.flags.c_contiguous
    assert got.tobytes() == row_chunk_weight_grad(x, g).tobytes()
    for lead in ((525, 1), (105, 5)):
        assert _weight_grad(x.reshape(lead + (64,)), g.reshape(lead + (128,))).tobytes() == got.tobytes()


def test_linear_layout_flat_rows_chunked_weight_grad():
    # at a demo shape, where one GEMM over all rows rounds the forward differently from one GEMM per sequence
    rng = np.random.default_rng(33)
    x, w = rng.normal(size=(25, 10, 64)), rng.normal(size=(64, 64))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = linear(xt, wt)
    g = rng.normal(size=out.shape)
    backward(sum_all(mul(out, g)))
    # forward and input gradient: one GEMM over the 250 token rows
    assert out.data.tobytes() == (x.reshape(-1, 64) @ w.T).reshape(x.shape).tobytes()
    assert xt.grad.tobytes() == (g.reshape(-1, 64) @ w).reshape(x.shape).tobytes()
    # weight gradient: one GEMM per 256 token rows, summed in chunk order
    assert wt.grad.tobytes() == row_chunk_weight_grad(x, g).tobytes()
    # pointed: the same GEMM once per point, so each point is bitwise the unpointed forward at that point
    xk, wk = x + 1e-3 * rng.normal(size=(3,) + x.shape), w + 1e-3 * rng.normal(size=(3,) + w.shape)
    with no_grad():
        for k in range(3):
            alone = linear(Tensor(x), Tensor(wk[k])).data
            assert linear(Tensor(x), Tensor(wk, pointed=True)).data[k].tobytes() == alone.tobytes()
            alone = linear(Tensor(xk[k]), Tensor(w)).data
            assert linear(Tensor(xk, pointed=True), Tensor(w)).data[k].tobytes() == alone.tobytes()


def test_fused_ops_reject_mismatched_shapes():
    with pytest.raises(ShapeError, match="linear"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="swiglu"):
        swiglu(Tensor(np.ones((2, 3))), np.ones((4, 3)), np.ones((4, 3)), np.ones((4, 3)))
    q = Tensor(np.ones((SEQ, WIDTH)))
    with pytest.raises(ShapeError, match="attention"):
        attention(q, q, Tensor(np.ones((SEQ + 1, WIDTH))), HEADS, COS, SIN, causal_mask(SEQ))
    with pytest.raises(ShapeError, match="heads"):
        attention(q, q, q, 3, COS, SIN, causal_mask(SEQ))
    for first in (-1, SEQ):
        with pytest.raises(ShapeError, match=f"query start {first} is outside positions 0 .. {SEQ - 1}"):
            attention(q, q, q, HEADS, COS, SIN, causal_mask(SEQ), first)


# ---------------------------------------------------------------------------
# kernel buffers: what a chain may write into, and the bits of its in-place chains
# ---------------------------------------------------------------------------


def read_only(a):
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def test_kernels_write_into_nothing_they_were_given():
    # every input, every upstream gradient and every forward output is read-only, so an
    # in-place write into any of them raises; a second vjp call equal to the first shows
    # that the vjp left the values it kept from the forward as they were
    rng = np.random.default_rng(36)
    b, d, f, v = 2, WIDTH, 12, 5
    mask, cos, sin = read_only(causal_mask(SEQ)), read_only(COS), read_only(SIN)
    ids, targets = rng.integers(0, v, size=(b, SEQ)), rng.integers(0, v, size=(b, SEQ))
    ids.flags.writeable = targets.flags.writeable = False
    label_mask = read_only(rng.random((b, SEQ)) < 0.7)
    x = (b, SEQ, d)
    cases = {
        "linear": (linear, [x, (f, d)]),
        "swiglu": (swiglu, [x, (f, d), (f, d), (d, f)]),
        "attention": (lambda q, k, w: attention(q, k, w, HEADS, cos, sin, mask), [x, x, x]),
        "attention from 2": (lambda q, k, w: attention(q, k, w, HEADS, cos, sin, mask, 2), [x, x, x]),
        "rms_norm": (rms_norm, [x, (d,)]),
        "softmax_cross_entropy": (lambda z: softmax_cross_entropy(z, targets, label_mask), [(b, SEQ, v)]),
        "embedding": (lambda table: embedding(table, ids), [(v, d)]),
        "tail": (lambda t: tail(t, 2), [x]),
    }
    for name, (op, shapes) in cases.items():
        arrays = [read_only(rng.normal(size=shape)) for shape in shapes]
        out = op(*(Tensor(a, requires_grad=True) for a in arrays))
        out.data.flags.writeable = False
        g = read_only(rng.normal(size=out.shape))
        first, again = out._vjp(g), out._vjp(g)
        for x1, x2 in zip(first, again):
            assert x1.tobytes() == x2.tobytes(), name
        # pointed forwards: each operand in turn carries 3 points, the others are shared
        with no_grad():
            for i in range(len(arrays)):
                pointed = [Tensor(read_only(rng.normal(size=(3,) + a.shape)), pointed=True) if j == i else Tensor(a)
                           for j, a in enumerate(arrays)]
                assert op(*pointed).pointed, name


def rows_product(a, w):
    """a @ w over all of a's rows in one GEMM, as the fused nodes project."""
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(a.shape[:-1] + (w.shape[-1],))


def explicit_swiglu_vjp(x, wg, wu, wd, g):
    gate, up = rows_product(x, wg.T), rows_product(x, wu.T)
    s = masked_sigmoid(gate)
    g_hidden = rows_product(g, wd)
    g_up = g_hidden * (gate * s)
    g_gate = (g_hidden * up) * (s * (1.0 + gate * (1.0 - s)))
    gx = rows_product(g_gate, wg) + rows_product(g_up, wu)
    return (gx, row_chunk_weight_grad(x, g_gate), row_chunk_weight_grad(x, g_up),
            row_chunk_weight_grad(gate * s * up, g))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_swiglu_vjp_matches_explicit_formula_bitwise():
    # d = 1 makes each projection entry one product, so special values reach the elementwise chain one by one
    rng = np.random.default_rng(37)
    for d, f, lead in ((1, 6, (3, 5)), (1, 4, (7,)), (8, 16, (25, 21))):
        for draw in (lambda size: rng.normal(scale=6.0, size=size), lambda size: special_draws(rng, size)):
            x, wg, wu, wd = draw(lead + (d,)), draw((f, d)), draw((f, d)), draw((d, f))
            out = swiglu(*(Tensor(a, requires_grad=True) for a in (x, wg, wu, wd)))
            g = draw(out.shape)
            for got, ref in zip(out._vjp(g), explicit_swiglu_vjp(x, wg, wu, wd, g)):
                assert_bitwise_where_not_nan(got, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rms_norm_forward_and_vjp_match_explicit_formulas_bitwise():
    rng = np.random.default_rng(38)
    for shape in ((1, 1, 64), (4, 9), (7,), (2, 3, 5, 16)):
        d = shape[-1]
        for draw in (rng.normal, lambda size: special_draws(rng, size)):
            x, gain, g = draw(size=shape), draw(size=(d,)), draw(size=shape)
            out = rms_norm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True))
            s = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
            assert_bitwise_where_not_nan(out.data, x / s * gain)
            t = g * gain
            dot = np.sum(t * x, axis=-1, keepdims=True)
            dx, dgain = out._vjp(g)
            assert_bitwise_where_not_nan(dx, t / s - x * (dot / (d * s**3)))
            assert_bitwise_where_not_nan(dgain, (g * (x / s)).reshape(-1, d).sum(axis=0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("first", [0, 2])
def test_attention_scores_and_softmax_gradient_match_explicit_formulas_bitwise(first):
    # heads of width 2: each score sums two products, so special values stay near where they were drawn
    rng = np.random.default_rng(39)
    heads, width = 4, 8
    half = rope_tables(0, SEQ, width // heads, 10000.0)
    cos, sin = rotary_tables(*half, heads)
    mask, scale = causal_mask(SEQ), 1.0 / math.sqrt(width // heads)

    def split(t):
        return t.reshape(t.shape[:-1] + (heads, -1)).swapaxes(-3, -2)

    def merge(t):
        return t.swapaxes(-3, -2).reshape(t.shape[:-3] + (t.shape[-2], width))

    for draw in (lambda size: rng.normal(scale=3.0, size=size), lambda size: special_draws(rng, size)):
        q, k, v = (draw((2, SEQ, width)) for _ in range(3))
        out = attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), heads, cos, sin, mask, first)
        rq = split(explicit_rope(q[:, first:], half[0][first:], half[1][first:], heads))
        rk, vh = split(explicit_rope(k, *half, heads)), split(v)
        p = explicit_softmax((rq @ rk.swapaxes(-1, -2)) * scale + mask[first:])
        assert_bitwise_where_not_nan(out.data, merge(p @ vh))
        g = draw(out.shape)
        g_ctx = split(g)
        g_p = g_ctx @ vh.swapaxes(-1, -2)
        g_scores = (p * (g_p - np.sum(g_p * p, axis=-1, keepdims=True))) * scale
        gq = np.zeros_like(q)
        gq[:, first:] = explicit_rope(merge(g_scores @ rk), half[0][first:], half[1][first:], heads, inverse=True)
        gk = explicit_rope(merge((rq.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)), *half, heads, inverse=True)
        for got, ref in zip(out._vjp(g), (gq, gk, merge(p.swapaxes(-1, -2) @ g_ctx))):
            assert_bitwise_where_not_nan(got, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_embedding_vjp_matches_add_at_bitwise():
    # repeated ids sum their rows in order of appearance; where two NaNs meet, which payload
    # survives may differ, as np.add.at and np.bincount put the operands of their adds in different slots
    rng = np.random.default_rng(40)
    for v, d, lead in ((5, 3, (4, 6)), (24, 8, (2, 9)), (30, 64, (25, 21))):
        for draw in (rng.normal, lambda size: special_draws(rng, size)):
            ids, g = rng.integers(0, v, size=lead), draw(size=lead + (d,))
            ref = np.zeros((v, d))
            np.add.at(ref, ids, g)
            got = embedding(Tensor(draw(size=(v, d)), requires_grad=True), ids)._vjp(g)[0]
            assert_bitwise_where_not_nan(got, ref)
