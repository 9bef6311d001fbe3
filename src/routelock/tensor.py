"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every operation records its inputs and a vector-Jacobian closure on the
node it produces; ``backward`` replays the graph in reverse topological
order from a scalar. The graph (the tape) is rebuilt on every forward
pass, and ``backward`` consumes it: each node drops its gradient, its
closure and its edges once its vjp has run, so what the node kept is
freed as the pass moves on; leaves keep their gradients. One rule
decides what is recorded: an op records its node exactly when one of
its inputs requires grad. A forward over leaves that require no grad
runs the identical arithmetic and records nothing, so values are
bitwise equal either way.

All data is float64. Leading batch dimensions are supported throughout;
reductions and normalization act over the trailing axis.

A *pointed* tensor carries one more leading axis, the point axis: row k
of its data is its value at the k-th of K parameter points, so one
unrecorded forward evaluates K parameter vectors at once. Where a pointed
operand meets an unpointed one, the unpointed one is shared by every point,
with its axes right-aligned to the pointed operand's non-point axes: a
pointed (K, f, d) weight meets an unpointed (B, T, d) activation as K copies
of a (f, d) weight. Each point's values are bitwise equal to evaluating that
point on its own. Pointed tensors are forward-only: one that requires grad,
or an op given one and a tensor that requires grad, raises.

Kernels write only into arrays they allocate: no input, kept value or ``g``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

RMS_EPS = 1e-6  # added to the mean square before the root; keeps x=0 finite

class Tensor:
    """A float64 array plus the bookkeeping needed for the reverse pass.

    ``data`` is row-major storage; ``grad`` stays None until backward
    reaches the node. Leaves created with ``requires_grad=True`` collect
    parameter gradients and keep them; every other node drops its gradient
    and its edges once backward is past it.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp", "pointed")

    def __init__(self, data, requires_grad: bool = False, pointed: bool = False):
        if pointed and requires_grad:
            raise RuntimeError("pointed tensors are forward-only; one cannot require grad")
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


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Wrap a result; record the edge exactly when a parent requires grad."""
    out = Tensor(data)
    grad = pointed = False
    for p in parents:
        grad = grad or p.requires_grad
        pointed = pointed or p.pointed
    if pointed:
        if grad:
            raise RuntimeError(f"{op} got a pointed input and one that requires grad; pointed tensors are forward-only")
        out.pointed = True
    elif grad:
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


def _aligned(a: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Two tensors' data as operands that numpy broadcasts with the point axis kept apart."""
    if not (a.pointed or b.pointed):
        return a.data, b.data
    n = max(a.ndim - a.pointed, b.ndim - b.pointed)
    return _lift(a.data, a.pointed, n), _lift(b.data, b.pointed, n)


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
    """Run the reverse pass from a scalar, accumulating leaf gradients, and consume the tape.

    Once a node's vjp has handed its gradients to its parents, the node drops its ``grad``,
    ``_vjp`` and ``_parents``, so each interior gradient and each array a vjp kept is freed as
    soon as the pass is past it; leaves keep ``grad`` and every node its ``data``. A second
    backward through a consumed node raises RuntimeError."""
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
        if node._vjp is None and node.op != "leaf":
            raise RuntimeError(f"backward reached a {node.op} node that an earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._vjp is None:  # a leaf keeps its gradient
            continue
        if node.grad is not None:
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is not None and parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g
        node.grad = node._vjp = None
        node._parents = ()


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
    # the deepest offender: one with no non-finite parent. Every visited node's parents are
    # visited and the graph is acyclic, so when any node is non-finite, one of them has none.
    return next((n.op for n in bad if all(np.all(np.isfinite(p.data)) for p in n._parents)), None)


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
    # a (k, n) right operand takes linear's layout: per point, one GEMM over all of a's rows
    rows = b.ndim - b.pointed == 2
    data = _rows(a.data, b.data, a.pointed, b.pointed) if rows else np.matmul(*_aligned(a, b))

    def vjp(g):
        bt = np.swapaxes(b.data, -1, -2)
        if rows:  # linear's kernels, so that a composed linear is bitwise the fused node
            return _rows(g, bt), _weight_grad(a.data, g).T
        return _unbroadcast(g @ bt, a.shape), _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _node(data, (a, b), vjp, "matmul")


def _rows(a: np.ndarray, w: np.ndarray, a_pointed: bool = False, w_pointed: bool = False) -> np.ndarray:
    """a @ w for a (..., k) and a (k, n) w, either one pointed: per point, one GEMM over all of a's rows.

    Unpointed, that is one GEMM. Pointed, numpy's stacked matmul makes that same GEMM once per
    point, so each point is bitwise the unpointed product at that point."""
    rows = a.reshape((a.shape[0], -1, a.shape[-1]) if a_pointed else (-1, a.shape[-1]))
    lead = a.shape[:-1] if a_pointed or not w_pointed else w.shape[:1] + a.shape[:-1]
    return (rows @ w).reshape(lead + (w.shape[-1],))


def _linear(x: np.ndarray, x_pointed: bool, w: np.ndarray, w_pointed: bool) -> np.ndarray:
    """x @ w.T, ``linear``'s forward on arrays."""
    return _rows(x, np.swapaxes(w, -1, -2), x_pointed, w_pointed)


# Rows per weight-gradient GEMM. On OpenBLAS 0.3.31, g.T @ x has the same bits under 1 and 2
# threads up to 384 rows at (d, f) = (64, 64), (64, 128) and (128, 64), and differs from 386 on.
WEIGHT_GRAD_ROWS = 256


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The contiguous (f, d) gradient of a weight w in x @ w.T, given that product's gradient g (..., f).

    One GEMM g[i:i+R].T @ x[i:i+R] per chunk of R = WEIGHT_GRAD_ROWS flattened rows, summed in
    chunk order: no GEMM sums over more rows than the BLAS thread count leaves bitwise alone, and
    the bits depend only on the row sequence, not on how the rows group into sequences."""
    x, g, r = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1]), WEIGHT_GRAD_ROWS
    out = g[:r].T @ x[:r]
    for i in range(r, len(x), r):
        out += g[i : i + r].T @ x[i : i + r]
    return out


def linear(x, w) -> Tensor:
    """x @ w.T for a (f, d) weight: a projection of x's trailing axis from d to f features.

    One node for ``matmul(x, transpose(w))``, with its arithmetic. Unpointed, the forward and the
    input gradient are each one GEMM over all of x's rows, which sum over d or f only; the weight
    gradient sums over rows, so it is one GEMM per fixed chunk of rows (``_weight_grad``), as one
    GEMM over every row would round differently with the BLAS thread count. So a one-sequence
    forward is bitwise the numpy decoder's, but a row of a batch is not bitwise the row alone.
    Pointed, the forward makes that same GEMM once per point, so each point is bitwise the
    unpointed forward at that point.
    """
    x, w = _coerce(x), _coerce(w)
    if w.ndim - w.pointed != 2 or x.ndim - x.pointed < 1 or x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"linear needs x (..., d) and a weight (f, d), got shapes {x.shape} and {w.shape}")

    def vjp(g):
        return _rows(g, w.data), _weight_grad(x.data, g)

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


def _scatter_rows(g: np.ndarray, shape: tuple[int, ...], first: int) -> np.ndarray:
    """The gradient of x[..., first:, :] for x of ``shape`` (..., T, d): zeros, and ``g`` from row ``first`` on."""
    if first == 0:
        return g
    out = np.zeros(shape)
    out[..., first:, :] = g
    return out


def tail(x, first: int) -> Tensor:
    """x[..., first:, :], the rows of a (..., T, d) x from ``first`` on (x itself for 0); the vjp pads with zeros."""
    x = _coerce(x)
    if first == 0:
        return x
    return _node(x.data[..., first:, :], (x,), lambda g: (_scatter_rows(g, x.shape, first),), "tail")


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
    e = np.negative(x)
    np.exp(np.minimum(x, e, out=e), out=e)
    out = np.maximum(e, x >= 0)  # 1.0 where x >= 0; e (>= 0, or NaN) below
    e += 1.0
    out /= e
    return out


def _gated(gate: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """silu(gate) * up as gate * s * up, and s = sigmoid(gate); in place unless a pointed up has more axes than gate."""
    s = _sigmoid(gate)
    hidden = gate * s
    return np.multiply(hidden, up, out=None if up.ndim > gate.ndim else hidden), s


def _rms_scale(x: np.ndarray) -> np.ndarray:
    """sqrt(mean(x^2, last axis) + eps), kept as a trailing axis of 1."""
    # np.mean's own arithmetic (a sum, then a true divide by the count) without its Python wrapper
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + RMS_EPS)


def _rms_normed(x: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / s * gain, and s = ``_rms_scale(x)``, for a gain ``_aligned`` with x; in place unless gain has more axes."""
    s = _rms_scale(x)
    out = x / s
    return np.multiply(out, gain, out=None if gain.ndim > x.ndim else out), s


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis, shifted by the row max so exp cannot overflow."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def rotary_tables(cos: np.ndarray, sin: np.ndarray, n_heads: int) -> tuple[np.ndarray, np.ndarray]:
    """One head's (..., T, hd/2) angle tables in the unsplit layout: [cos | cos] and [-sin | sin]
    per head, tiled over ``n_heads`` heads to (..., T, n_heads * hd)."""
    return (
        np.tile(np.concatenate((cos, cos), axis=-1), n_heads),
        np.tile(np.concatenate((-sin, sin), axis=-1), n_heads),
    )


@functools.lru_cache(maxsize=16)
def _half_swap(width: int, n_heads: int) -> np.ndarray:
    """Read-only feature index that swaps the two halves inside each of the ``n_heads`` heads of ``width``."""
    hd = width // n_heads
    i = np.arange(width)
    swap = i - i % hd + (i + hd // 2) % hd
    swap.flags.writeable = False
    return swap


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, n_heads: int) -> np.ndarray:
    """Rotary mixing of every head's feature halves (x1, x2) on the unsplit (..., T, n_heads * hd)
    layout, by ``rotary_tables`` cos/sin: x * cos + x[..., swap] * sin, which is (x1 cos - x2 sin,
    x2 cos + x1 sin) bitwise, as negation is exact and addition commutes. With -sin it is the
    inverse rotation (by -angle), which, being orthogonal, is also the transpose."""
    out = x * cos
    swapped = x.take(_half_swap(x.shape[-1], n_heads), axis=-1)
    swapped *= sin
    out += swapped
    return out


def silu(a) -> Tensor:
    a = _coerce(a)
    s = _sigmoid(a.data.reshape(a.shape or (1,))).reshape(a.shape)  # _sigmoid works in place on an axis
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
    data, s = _rms_normed(*_aligned(a, gain))

    def vjp(g):
        t = g * gain.data
        tx = t * a.data
        dot = np.sum(tx, axis=-1, keepdims=True)
        t /= s  # becomes da = t / s - x * (dot / (d * s**3))
        t -= np.multiply(a.data, dot / (d * s**3), out=tx)
        normed = np.divide(a.data, s, out=tx)  # the forward's normed x, recomputed
        normed *= g
        return t, normed.reshape(-1, d).sum(axis=0)

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
        # entry (id, j) sums its rows' g[..., j] in order of appearance, as np.add.at would
        d = table.shape[-1]
        bins = (ids[..., None] * d + np.arange(d)).ravel()
        return (np.bincount(bins, weights=g.ravel(), minlength=table.size).reshape(table.shape),)

    return _node(data, (table,), vjp, "embedding")


def rope_rotate(a, cos: np.ndarray, sin: np.ndarray, n_heads: int = 1) -> Tensor:
    """Rotary position mixing on the trailing feature axis, split into ``n_heads`` heads.

    ``a`` is (..., T, n_heads * hd) with hd even; cos/sin are its (T, n_heads * hd)
    ``rotary_tables``, treated as constants.
    """
    a = _coerce(a)
    width = a.shape[-1]
    if width % n_heads != 0 or (width // n_heads) % 2 != 0 or cos.shape[-1] != width:
        raise ShapeError(f"rotary width {width} does not split into {n_heads} heads of even width "
                         f"matching tables of width {cos.shape[-1]}")
    return _node(_rotate(a.data, cos, sin, n_heads), (a,), lambda g: (_rotate(g, cos, -sin, n_heads),),
                 "rope_rotate")


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
        grad = _softmax(logits.data)
        grad *= coeff[..., None]
        np.put_along_axis(
            grad,
            targets[..., None],
            np.take_along_axis(grad, targets[..., None], axis=-1) - coeff[..., None],
            axis=-1,
        )
        return (np.multiply(grad, g, out=grad),)

    return _node(loss, (logits,), vjp, "softmax_cross_entropy")


def swiglu(x, w_gate, w_up, w_down) -> Tensor:
    """The gated feed-forward (silu(x @ w_gate.T) * (x @ w_up.T)) @ w_down.T as one node.

    Weights are (f, d), (f, d) and (d, f). Forward and vjp run the arithmetic of the
    composed ``linear``, ``silu`` and ``mul`` nodes, so both are bitwise theirs. The vjp
    keeps gate, up and the sigmoid s, and recomputes silu(gate) = gate * s and the hidden
    product from them by the forward's own expressions, so it holds two fewer (..., f) arrays.
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
    hidden, s = _gated(gate, up)
    data = _linear(hidden, x.pointed or wg.pointed or wu.pointed, wd.data, wd.pointed)

    def vjp(g):
        # the hidden product's weight gradient comes first, as its buffer h then holds silu's
        # derivative; as in linear, input gradients are one GEMM over all rows and weight
        # gradients one GEMM per chunk of WEIGHT_GRAD_ROWS rows
        silu_gate = gate * s
        h = silu_gate * up
        g_down = _weight_grad(h, g)
        g_hidden = _rows(g, wd.data)
        g_up = np.multiply(g_hidden, silu_gate, out=silu_gate)
        # silu's derivative s * (1 + gate * (1 - s)), built in h
        np.subtract(1.0, s, out=h)
        np.multiply(gate, h, out=h)
        h += 1.0
        np.multiply(s, h, out=h)
        g_hidden *= up
        g_gate = np.multiply(g_hidden, h, out=g_hidden)
        gx = _rows(g_gate, wg.data)
        gx += _rows(g_up, wu.data)
        return gx, _weight_grad(x.data, g_gate), _weight_grad(x.data, g_up), g_down

    return _node(data, (x, wg, wu, wd), vjp, "swiglu")


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, n_heads * hd) -> (..., n_heads, T, hd), a view."""
    return x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., n_heads, T, hd) -> (..., T, n_heads * hd)."""
    h, t, hd = x.shape[-3:]
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (t, h * hd))


def _attend(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The attention core on split heads (..., heads, T, hd): the weights p = softmax(qh kh^T * (1/sqrt(hd)) + mask),
    with no mask added for None, and their weighted sum of vh with the heads merged, (..., T, heads * hd)."""
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= 1.0 / math.sqrt(qh.shape[-1])
    if mask is not None:
        scores += mask
    p = _softmax(scores)
    return p, _merge_heads(p @ vh)


def attention(q, k, v, n_heads: int, cos: np.ndarray, sin: np.ndarray, mask: np.ndarray, first: int = 0) -> Tensor:
    """Multi-head attention of projected q, k, v (..., T, D) as one node, heads merged back:
    the (..., T - first, D) outputs of the queries at positions ``first`` .. T-1.

    Rotary mixing of q[..., first:, :] by cos/sin[first:] and of k by their (T, D)
    ``rotary_tables`` cos/sin, then per head of width hd = D / n_heads: scores
    q k^T * (1/sqrt(hd)) + mask[first:] (an additive (T, T) constant), the softmax and its
    weighted sum of v. q, k and v share their non-point shape, so a pointed one broadcasts
    against the others as ``_aligned`` aligns two tensors. Forward and vjp run the arithmetic of the
    composed row slice of q, ``rope_rotate``, head reshapes, ``matmul``, ``mul``, ``add`` and
    ``softmax`` nodes, so both are bitwise theirs; q's rows before ``first`` get a zero
    gradient. The vjp keeps the attention weights and recomputes the rotated q and k heads
    from q and k, as the forward made them, each only for the one product that needs it.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    shape = q.shape[q.pointed :]
    if k.shape[k.pointed :] != shape or v.shape[v.pointed :] != shape or len(shape) < 2:
        raise ShapeError(f"attention needs q, k, v of one shape (..., T, D), got {q.shape}, {k.shape}, {v.shape}")
    if shape[-1] % n_heads != 0 or (shape[-1] // n_heads) % 2 != 0:
        raise ShapeError(f"attention width {shape[-1]} does not split into {n_heads} heads of even width")
    if not 0 <= first < shape[-2]:
        raise ShapeError(f"attention query start {first} is outside positions 0 .. {shape[-2] - 1}")

    def rotated_heads(t: Tensor, start: int) -> np.ndarray:
        return _split_heads(_rotate(t.data[..., start:, :], cos[start:], sin[start:], n_heads), n_heads)

    vh = _split_heads(v.data, n_heads)
    p, data = _attend(rotated_heads(q, first), rotated_heads(k, 0), vh, mask[first:])

    def vjp(g):
        g_ctx = _split_heads(g, n_heads)
        g_p = g_ctx @ np.swapaxes(vh, -1, -2)
        g_p -= np.sum(g_p * p, axis=-1, keepdims=True)
        g_p *= p
        g_scores = np.multiply(g_p, 1.0 / math.sqrt(vh.shape[-1]), out=g_p)
        gq = _rotate(_merge_heads(g_scores @ rotated_heads(k, 0)), cos[first:], -sin[first:], n_heads)
        gk = _merge_heads(np.swapaxes(np.swapaxes(rotated_heads(q, first), -1, -2) @ g_scores, -1, -2))
        gv = _merge_heads(np.swapaxes(p, -1, -2) @ g_ctx)
        return _scatter_rows(gq, q.shape, first), _rotate(gk, cos, -sin, n_heads), gv

    return _node(data, (q, k, v), vjp, "attention")
