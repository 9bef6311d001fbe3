"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every operation records its inputs and a vector-Jacobian closure on the
node it produces; ``backward`` replays the graph in reverse topological
order from a scalar. The graph (the tape) is rebuilt on every forward
pass and freed with the tensors that hold it. Inside a ``no_grad`` block
the same functions run the identical forward arithmetic but record
nothing, so values are bitwise equal with and without recording.

All data is float64. Leading batch dimensions are supported throughout;
reductions and normalization act over the trailing axis.

A *pointed* tensor carries one more leading axis, the point axis: row k
of its data is its value at the k-th of K parameter points, so one no-grad
forward evaluates K parameter vectors at once. Where a pointed operand
meets an unpointed one, the unpointed one is shared by every point, with
its axes right-aligned to the pointed operand's non-point axes: a pointed
(K, f, d) weight meets an unpointed (B, T, d) activation as K copies of a
(f, d) weight. Each point's values are bitwise equal to evaluating that
point on its own. Pointed tensors are forward-only: creating or using one
while recording raises.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

RMS_EPS = 1e-6  # added to the mean square before the root; keeps x=0 finite

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        self._saved = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._saved
        return False


class Tensor:
    """A float64 array plus the bookkeeping needed for the reverse pass.

    ``data`` is row-major storage; ``grad`` stays None until backward
    reaches the node. Leaves created with ``requires_grad=True`` collect
    parameter gradients; everything else participates only as needed.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp", "pointed")

    def __init__(self, data, requires_grad: bool = False, pointed: bool = False):
        if pointed and _GRAD_ENABLED[0]:
            raise RuntimeError("pointed tensors are forward-only; create them under no_grad")
        self.data = np.asarray(data, dtype=np.float64)
        self.pointed = pointed
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def points(self) -> int:
        """Parameter points carried: the point-axis length, or 1 when unpointed."""
        return self.data.shape[0] if self.pointed else 1

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op})"

    # operator sugar; all arithmetic goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Wrap a result; record the edge only if recording is on and useful."""
    out = Tensor(data)
    if any(p.pointed for p in parents):
        if _GRAD_ENABLED[0]:
            raise RuntimeError(f"{op} got a pointed tensor while recording; pointed tensors are forward-only")
        out.pointed = True
    elif _GRAD_ENABLED[0] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out._parents = parents
        out._vjp = vjp
    return out


def _lift(d: np.ndarray, pointed: bool, n: int) -> np.ndarray:
    """``d`` with at least ``n`` non-point axes, padded after the point axis if ``pointed``."""
    if not pointed or d.ndim > n:
        return d
    return d.reshape(d.shape[:1] + (1,) * (n + 1 - d.ndim) + d.shape[1:])


def _pair(a: np.ndarray, a_pointed: bool, b: np.ndarray, b_pointed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Operand arrays that numpy broadcasts with the point axis kept apart."""
    if not (a_pointed or b_pointed):
        return a, b
    n = max(a.ndim - a_pointed, b.ndim - b_pointed)
    return _lift(a, a_pointed, n), _lift(b, b_pointed, n)


def _aligned(a: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """``_pair`` of two tensors' data."""
    return _pair(a.data, a.pointed, b.data, b.pointed)


def _reduce(x: np.ndarray, pointed: bool, fn=np.sum) -> np.ndarray:
    """Reduce over every axis except a leading point axis."""
    return fn(x.reshape(x.shape[0], -1), axis=1) if pointed else np.asarray(fn(x))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(root: Tensor) -> None:
    """Run the reverse pass from a scalar, accumulating leaf gradients."""
    if root.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def find_nonfinite(root: Tensor) -> str | None:
    """Name of the first op (graph order) whose value is non-finite."""
    stack, seen = [root], set()
    bad: list[Tensor] = []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not np.all(np.isfinite(node.data)):
            bad.append(node)
        stack.extend(node._parents)
    if not bad:
        return None
    # prefer the deepest offender: one with no non-finite parent
    for node in bad:
        if not any(not np.all(np.isfinite(p.data)) for p in node._parents):
            return node.op
    return bad[-1].op


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    ad, bd = _aligned(a, b)
    data = ad + bd

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), vjp, "add")


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    ad, bd = _aligned(a, b)
    data = ad * bd

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(data, (a, b), vjp, "mul")


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim - a.pointed < 2 or b.ndim - b.pointed < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    ad, bd = _aligned(a, b)
    data = ad @ bd

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _node(data, (a, b), vjp, "matmul")


def _linear(x: np.ndarray, x_pointed: bool, w: np.ndarray, w_pointed: bool) -> np.ndarray:
    """x @ w.T as a stacked matmul, the point axis kept apart: ``linear``'s forward on arrays."""
    xd, wt = _pair(x, x_pointed, np.swapaxes(w, -1, -2), w_pointed)
    return xd @ wt


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The (f, d) gradient of a weight w in x @ w.T, given that product's gradient g (..., f)."""
    return _unbroadcast(np.swapaxes(x, -1, -2) @ g, (x.shape[-1], g.shape[-1])).T


def linear(x, w) -> Tensor:
    """x @ w.T for a (f, d) weight: a projection of x's trailing axis from d to f features.

    One node for ``matmul(x, transpose(w))``, with its arithmetic: the forward is a stacked
    matmul, one GEMM per leading index, so each row of x is bitwise the row alone, and the
    vjp makes one GEMM per leading index and sums the weight's share.
    """
    x, w = _coerce(x), _coerce(w)
    if w.ndim - w.pointed != 2 or x.ndim - x.pointed < 1 or x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"linear needs x (..., d) and a weight (f, d), got shapes {x.shape} and {w.shape}")

    def vjp(g):
        return g @ w.data, _weight_grad(x.data, g)

    return _node(_linear(x.data, x.pointed, w.data, w.pointed), (x, w), vjp, "linear")


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _coerce(a)
    old = a.shape
    if a.pointed and (not shape or shape[0] != old[0]):
        raise ShapeError(f"reshape of pointed {old} to {shape} must keep the point axis leading")
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),), "reshape")


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _coerce(a)
    if axes is None:
        axes = tuple(range(a.ndim - 1, -1, -1))
    if a.pointed and axes[0] != 0:
        raise ShapeError(f"transpose {axes} of a pointed tensor must keep the point axis leading")
    inv = tuple(int(i) for i in np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),), "transpose")


def sum_all(a) -> Tensor:
    """Sum of every entry; per point for a pointed tensor."""
    a = _coerce(a)
    shape = a.shape
    return _node(_reduce(a.data, a.pointed), (a,), lambda g: (np.full(shape, g),), "sum")


def mean_all(a) -> Tensor:
    """Mean of every entry; per point for a pointed tensor."""
    a = _coerce(a)
    shape, n = a.shape, a.size
    return _node(_reduce(a.data, a.pointed, np.mean), (a,), lambda g: (np.full(shape, g / n),), "mean")


# ---------------------------------------------------------------------------
# nonlinearities and fused layers
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # overflow-safe logistic: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below.
    # minimum(x, -x) is -|x| except that it passes a NaN through with its sign,
    # which keeps the result bitwise equal to the masked two-branch form.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _rms_scale(x: np.ndarray) -> np.ndarray:
    """sqrt(mean(x^2, last axis) + eps), kept as a trailing axis of 1."""
    # np.mean's own arithmetic (a sum, then a true divide by the count) without its Python wrapper
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + RMS_EPS)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis, shifted by the row max so exp cannot overflow."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the feature halves (x1, x2) of the trailing axis by the angles of cos/sin."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate((x1 * cos - x2 * sin, x1 * sin + x2 * cos), axis=-1)


def silu(a) -> Tensor:
    a = _coerce(a)
    s = _sigmoid(a.data)
    data = a.data * s

    def vjp(g):
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return _node(data, (a,), vjp, "silu")


def rms_norm(a, gain) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps), scaled per-feature by gain."""
    a, gain = _coerce(a), _coerce(gain)
    if gain.ndim - gain.pointed != 1 or gain.shape[-1] != a.shape[-1]:
        raise ShapeError(f"rms_norm gain shape {gain.shape} does not match last dim of {a.shape}")
    d = a.shape[-1]
    s = _rms_scale(a.data)
    normed = a.data / s
    data = normed * _lift(gain.data, gain.pointed, a.ndim - a.pointed)

    def vjp(g):
        t = g * gain.data
        dot = np.sum(t * a.data, axis=-1, keepdims=True)
        da = t / s - a.data * (dot / (d * s**3))
        dgain = (g * normed).reshape(-1, d).sum(axis=0)
        return da, dgain

    return _node(data, (a, gain), vjp, "rms_norm")


def softmax(a) -> Tensor:
    """Softmax over the trailing axis."""
    a = _coerce(a)
    p = _softmax(a.data)

    def vjp(g):
        return (p * (g - np.sum(g * p, axis=-1, keepdims=True)),)

    return _node(p, (a,), vjp, "softmax")


def embedding(table, ids) -> Tensor:
    """Row gather: table[(V, d)] indexed by an integer id array."""
    table = _coerce(table)
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.shape[-2]
    if np.any(ids < 0) or np.any(ids >= rows):
        raise IndexError(f"token id out of range for table with {rows} rows")
    data = table.data[:, ids] if table.pointed else table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _node(data, (table,), vjp, "embedding")


def rope_rotate(a, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position mixing on the trailing feature axis (half-split form).

    ``a`` is (..., T, h) with h even; cos/sin are (T, h/2) position tables
    treated as constants.
    """
    a = _coerce(a)
    h = a.shape[-1]
    if h % 2 != 0:
        raise ShapeError(f"rotary features must be even, got {h}")
    # the rotation by -angle is the inverse and, being orthogonal, the transpose
    return _node(_rope(a.data, cos, sin), (a,), lambda g: (_rope(g, cos, -sin),), "rope_rotate")


def softmax_cross_entropy(logits, targets, mask=None, reduction: str = "example_mean") -> Tensor:
    """Negative log-softmax at target ids over unmasked positions.

    ``logits`` is (T, V) or (B, T, V); ``targets`` and ``mask`` match the
    leading shape. Reductions: "example_mean" (per-example token mean, then
    mean over examples; a 2-d input counts as one example) or "token_sum".
    Pointed logits give one loss per point; targets and mask are shared by
    every point.
    """
    logits = _coerce(logits)
    v = logits.shape[-1]
    lead = logits.shape[1:-1] if logits.pointed else logits.shape[:-1]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != lead:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if np.any(targets < 0) or np.any(targets >= v):
        raise IndexError(f"target id out of range for vocabulary of size {v}")
    if mask is None:
        w = np.ones(targets.shape, dtype=np.float64)
    else:
        w = np.asarray(mask, dtype=np.float64)
        if w.shape != targets.shape:
            raise ShapeError(f"mask shape {w.shape} does not match targets {targets.shape}")

    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=-1))
    idx = targets.reshape((1,) * logits.pointed + targets.shape + (1,))
    picked = np.take_along_axis(z, idx, axis=-1)[..., 0]
    nll = lse - picked

    if reduction == "token_sum":
        coeff = w
    elif reduction == "example_mean":
        per_ex = w.sum(axis=-1, keepdims=True)
        if np.any(per_ex == 0.0):
            raise ValueError("an example has no unmasked positions")
        coeff = w / per_ex / (w.size // w.shape[-1])
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    loss = _reduce(nll * coeff, logits.pointed)

    def vjp(g):
        grad = _softmax(logits.data) * coeff[..., None]
        np.put_along_axis(
            grad,
            targets[..., None],
            np.take_along_axis(grad, targets[..., None], axis=-1) - coeff[..., None],
            axis=-1,
        )
        return (grad * g,)

    return _node(loss, (logits,), vjp, "softmax_cross_entropy")


def swiglu(x, w_gate, w_up, w_down) -> Tensor:
    """The gated feed-forward (silu(x @ w_gate.T) * (x @ w_up.T)) @ w_down.T as one node.

    Weights are (f, d), (f, d) and (d, f). Forward and vjp run the arithmetic of the
    composed ``linear``, ``silu`` and ``mul`` nodes, so both are bitwise theirs.
    """
    x, wg, wu, wd = (_coerce(t) for t in (x, w_gate, w_up, w_down))
    d = x.shape[-1]
    f = wg.shape[-2]
    if any(t.ndim - t.pointed != 2 for t in (wg, wu, wd)) or not (
        wg.shape[-2:] == wu.shape[-2:] == (f, d) and wd.shape[-2:] == (d, f)
    ):
        raise ShapeError(
            f"swiglu weights {wg.shape}, {wu.shape}, {wd.shape} do not fit (f, d), (f, d), (d, f) for x {x.shape}"
        )
    gate = _linear(x.data, x.pointed, wg.data, wg.pointed)
    up = _linear(x.data, x.pointed, wu.data, wu.pointed)
    s = _sigmoid(gate)
    act = gate * s
    # gate and up share their non-point shape, so numpy aligns a pointed one with the other
    hidden = act * up
    data = _linear(hidden, x.pointed or wg.pointed or wu.pointed, wd.data, wd.pointed)

    def vjp(g):
        g_hidden = g @ wd.data
        g_up = g_hidden * act
        g_gate = (g_hidden * up) * (s * (1.0 + gate * (1.0 - s)))
        gx = g_gate @ wg.data + g_up @ wu.data
        return gx, _weight_grad(x.data, g_gate), _weight_grad(x.data, g_up), _weight_grad(hidden, g)

    return _node(data, (x, wg, wu, wd), vjp, "swiglu")


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, n_heads * hd) -> (..., n_heads, T, hd), a view."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)), -3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., n_heads, T, hd) -> (..., T, n_heads * hd)."""
    h, t, hd = x.shape[-3:]
    return np.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (t, h * hd))


def attention(q, k, v, n_heads: int, cos: np.ndarray, sin: np.ndarray, mask: np.ndarray) -> Tensor:
    """Multi-head attention of projected q, k, v (..., T, D) as one node, heads merged back.

    Per head of width hd = D / n_heads: rotary mixing of q and k by the (T, hd/2) tables
    cos/sin, scores q k^T * (1/sqrt(hd)) + mask (an additive (T, T) constant), the softmax
    and its weighted sum of v. q, k and v share their non-point shape, so a pointed one
    broadcasts against the others as ``_pair`` would align it. Forward and vjp run the
    arithmetic of the composed head reshapes, ``rope_rotate``, ``matmul``, ``mul``, ``add``
    and ``softmax`` nodes, so both are bitwise theirs.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    shape = q.shape[q.pointed :]
    if k.shape[k.pointed :] != shape or v.shape[v.pointed :] != shape or len(shape) < 2:
        raise ShapeError(f"attention needs q, k, v of one shape (..., T, D), got {q.shape}, {k.shape}, {v.shape}")
    if shape[-1] % n_heads != 0 or (shape[-1] // n_heads) % 2 != 0:
        raise ShapeError(f"attention width {shape[-1]} does not split into {n_heads} heads of even width")
    scale = 1.0 / math.sqrt(shape[-1] // n_heads)
    qh = _rope(_split_heads(q.data, n_heads), cos, sin)
    kh = _rope(_split_heads(k.data, n_heads), cos, sin)
    vh = _split_heads(v.data, n_heads)
    p = _softmax((qh @ np.swapaxes(kh, -1, -2)) * scale + mask)
    data = _merge_heads(p @ vh)

    def vjp(g):
        g_ctx = _split_heads(g, n_heads)
        g_p = g_ctx @ np.swapaxes(vh, -1, -2)
        g_scores = (p * (g_p - np.sum(g_p * p, axis=-1, keepdims=True))) * scale
        gq = _rope(g_scores @ kh, cos, -sin)
        gk = _rope(np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2), cos, -sin)
        return _merge_heads(gq), _merge_heads(gk), _merge_heads(np.swapaxes(p, -1, -2) @ g_ctx)

    return _node(data, (q, k, v), vjp, "attention")
