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


def _lift(t: Tensor, n: int) -> np.ndarray:
    """``t``'s data with at least ``n`` non-point axes, padded after the point axis."""
    d = t.data
    if not t.pointed or d.ndim > n:
        return d
    return d.reshape(d.shape[:1] + (1,) * (n + 1 - d.ndim) + d.shape[1:])


def _aligned(a: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Operand data that numpy broadcasts with the point axis kept apart."""
    if not (a.pointed or b.pointed):
        return a.data, b.data
    n = max(a.ndim - a.pointed, b.ndim - b.pointed)
    return _lift(a, n), _lift(b, n)


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


def swap_last2(a) -> Tensor:
    a = _coerce(a)
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


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
    return np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)


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
    data = normed * _lift(gain, a.ndim - a.pointed)

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


def softmax_cross_entropy(logits, targets, mask=None, reduction: str = "mean") -> Tensor:
    """Negative log-softmax at target ids over unmasked positions.

    ``logits`` is (T, V) or (B, T, V); ``targets`` and ``mask`` match the
    leading shape. Reductions: "mean" over unmasked positions, "sum",
    or "example_mean" (per-example token mean, then mean over examples;
    a 2-d input counts as one example). Pointed logits give one loss per
    point; targets and mask are shared by every point.
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

    if reduction == "mean":
        denom = w.sum()
        if denom == 0.0:
            raise ValueError("no unmasked positions")
        coeff = w / denom
    elif reduction == "sum":
        coeff = w
    elif reduction == "example_mean":
        if len(lead) == 1:
            denom = w.sum()
            if denom == 0.0:
                raise ValueError("no unmasked positions")
            coeff = w / denom
        else:
            per_ex = w.sum(axis=-1)
            if np.any(per_ex == 0.0):
                raise ValueError("an example has no unmasked positions")
            coeff = w / per_ex[..., None] / w.shape[0]
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
