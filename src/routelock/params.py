"""Named parameter segments, reverse-mode gradients, finite-difference oracles.

A ParamVector is an ordered list of (name, float64 array) segments with a
flat view; flatten followed by from_flat is the identity. Gradients come
back ParamVector-shaped, and any segment the forward graph never touched
is an exact zeros array. The finite-difference oracles evaluate their
perturbed parameter points in chunks of consecutive points, one unrecorded
forward over pointed leaves per chunk (see ``tensor``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NumericError
from .tensor import Tensor, backward, find_nonfinite

LossFn = Callable[[Mapping[str, Tensor], object], Tensor]


class ParamVector:
    """Ordered, uniquely named float64 segments; each one's start in the flat view is recorded at construction."""

    def __init__(self, segments: Iterable[tuple[str, np.ndarray]]):
        self._names: list[str] = []
        self._seg: dict[str, np.ndarray] = {}
        self._start: dict[str, int] = {}
        size = 0
        for name, arr in segments:
            if name in self._seg:
                raise ValueError(f"duplicate segment name {name!r}")
            self._names.append(name)
            self._seg[name] = a = np.ascontiguousarray(arr, dtype=np.float64)
            self._start[name] = size
            size += a.size
        self._size = size

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._seg[name]

    def __contains__(self, name: str) -> bool:
        return name in self._seg

    def __len__(self) -> int:
        return len(self._names)

    def items(self):
        for name in self._names:
            yield name, self._seg[name]

    @property
    def size(self) -> int:
        return self._size

    def copy(self) -> "ParamVector":
        return ParamVector((n, a.copy()) for n, a in self.items())

    def zeros_like(self) -> "ParamVector":
        return ParamVector((n, np.zeros_like(a)) for n, a in self.items())

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.reshape(-1) for _, a in self.items()])

    def from_flat(self, flat: np.ndarray) -> "ParamVector":
        if flat.size != self.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {self.size}")
        return ParamVector((n, flat[slice(*self.segment_slice(n))].reshape(a.shape)) for n, a in self.items())

    def segment_slice(self, name: str) -> tuple[int, int]:
        """(start, stop) of a segment inside the flat view; KeyError for an unknown name."""
        start = self._start[name]
        return start, start + self._seg[name].size

    def add_scaled(self, other: "ParamVector", c: float) -> "ParamVector":
        """self + c * other, segmentwise."""
        return ParamVector((n, a + c * other[n]) for n, a in self.items())

    def restricted(self, names: Iterable[str]) -> "ParamVector":
        wanted = set(names)
        return ParamVector((n, a) for n, a in self.items() if n in wanted)

    def norm(self) -> float:
        return euclidean_norm(a for _, a in self.items())

    def first_nonfinite(self) -> str | None:
        """Name of the first segment that holds a NaN or inf; None when every entry is finite."""
        return next((n for n, a in self.items() if not np.isfinite(a).all()), None)


def euclidean_norm(arrays: Iterable[np.ndarray]) -> float:
    """sqrt of the sum of squares over all entries of ``arrays``, summed array by array; 0.0 when there are none."""
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def as_leaves(params: ParamVector, requires_grad: bool = False) -> dict[str, Tensor]:
    return {n: Tensor(a, requires_grad=requires_grad) for n, a in params.items()}


def value_and_grad(loss_fn: LossFn, params: ParamVector, batch) -> tuple[float, ParamVector]:
    """Loss value and ParamVector-shaped reverse-mode gradients.

    Segments that never entered the forward graph come back as exact
    zeros (their leaves are never visited by the reverse pass). A
    non-finite loss or gradient raises NumericError, so no caller can
    apply a NaN or inf update.
    """
    leaves = as_leaves(params, requires_grad=True)
    loss = loss_fn(leaves, batch)
    if loss.size != 1:
        raise ValueError(f"loss_fn must return a scalar, got shape {loss.shape}")
    if not np.all(np.isfinite(loss.data)):
        op = find_nonfinite(loss) or "loss"
        raise NumericError(f"non-finite loss; first offending operation: {op}")
    backward(loss)
    grads = ParamVector(
        (n, leaves[n].grad if leaves[n].grad is not None else np.zeros_like(a))
        for n, a in params.items()
    )
    if (bad := grads.first_nonfinite()) is not None:
        raise NumericError(f"non-finite gradient (NaN or inf) in segment {bad!r}")
    return float(loss.data), grads


CHUNK_POINTS = 256  # most parameter points per batched unrecorded forward
POINTED_BYTES = 16 << 20  # most bytes of pointed segment copies per forward of two or more points


def _loss_at(loss_fn: LossFn, params: ParamVector, batch, coords: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Loss at n parameter points, one unrecorded forward per chunk of consecutive points.

    Point p is ``params`` with ``deltas[p, m]`` added in place at flat
    coordinate ``coords[p, m]``, for m in order. Within a chunk only the
    segments its points perturb carry the point axis; every other segment
    enters once, unbatched. A chunk holds up to CHUNK_POINTS points, and its
    pointed copies (points x the summed nbytes of the segments it perturbs)
    stay within POINTED_BYTES unless it is one point. A loss that comes back
    unpointed (the chunk perturbs nothing the loss reads) is the loss at
    every point of the chunk.
    """
    outside = coords[(coords < 0) | (coords >= params.size)]
    if outside.size:
        raise ValueError(f"coordinate {outside[0]} is outside a parameter vector of size {params.size}")
    names = params.names
    starts = np.array([params.segment_slice(n)[0] for n in names])
    nbytes = np.array([params[n].nbytes for n in names])
    owner = np.searchsorted(starts, coords, side="right") - 1
    base = as_leaves(params)
    values = np.empty(len(coords))
    lo = 0
    while lo < len(coords):
        hi = min(lo + CHUNK_POINTS, len(coords))
        while (hi - lo) * nbytes[used := np.unique(owner[lo:hi])].sum() > POINTED_BYTES and hi - lo > 1:
            hi = lo + max(1, POINTED_BYTES // nbytes[used].sum())
        c, d = coords[lo:hi], deltas[lo:hi]
        rows = np.arange(len(c))
        leaves = dict(base)
        for s in used:
            seg = params[names[s]]
            start, stop = params.segment_slice(names[s])
            pts = np.tile(seg.reshape(-1), (len(c), 1))
            for m in range(c.shape[1]):
                hit = (c[:, m] >= start) & (c[:, m] < stop)
                pts[rows[hit], c[hit, m] - start] += d[hit, m]
            leaves[names[s]] = Tensor(pts.reshape((len(c),) + seg.shape), pointed=True)
        loss = loss_fn(leaves, batch)
        if loss.size != loss.points:
            raise ValueError(f"loss_fn must return one scalar per point, got shape {loss.shape}")
        values[lo:hi] = loss.data.reshape(-1)
        lo = hi
    return values


def central_differences(
    loss_fn: LossFn, params: ParamVector, batch, coords, step: float = 1e-5
) -> np.ndarray:
    """(L(p + step e_i) - L(p - step e_i)) / (2 step) at each flat coordinate i in ``coords``."""
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    coords = np.asarray(coords)
    if coords.ndim != 1:
        raise ValueError(f"coordinates must be one-dimensional, got shape {coords.shape}")
    if coords.size and coords.dtype.kind not in "iu":
        raise ValueError(f"coordinates must be integers, got {coords.dtype} values such as {coords.flat[0]}")
    coords = coords.astype(np.int64)
    values = _loss_at(
        loss_fn, params, batch, np.repeat(coords, 2)[:, None], np.tile([step, -step], coords.size)[:, None]
    )
    return (values[0::2] - values[1::2]) / (2.0 * step)


def finite_diff_grad(
    loss_fn: LossFn, params: ParamVector, batch, step: float = 1e-5
) -> ParamVector:
    """Central-difference gradient over every coordinate."""
    return params.from_flat(central_differences(loss_fn, params, batch, np.arange(params.size), step))


def _flat_indices(params: ParamVector, names: Iterable[str]) -> np.ndarray:
    return np.concatenate([np.arange(*params.segment_slice(n)) for n in names])


def sampled_cross_hessian_max(
    loss_fn: LossFn,
    params: ParamVector,
    batch,
    blocks: Sequence[tuple[Sequence[str], Sequence[str], int]],
    step: float = 1e-3,
    probes: int = 64,
) -> list[float]:
    """Max |second cross-partial| over sampled coordinate pairs, for each block in one pass.

    Block ``(names_a, names_b, seed)`` draws ``probes`` pairs from its own
    ``default_rng(seed)``; when both name sets coincide, half the draws are
    forced onto the diagonal (i == j) so the probe sees pure second
    derivatives too. Each entry is the nested central difference on the four
    points (p + di e_i) + dj e_j with di, dj = +-step; the stencil is also
    correct when i == j, where it reduces to the (2 step) pure second difference.
    """
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if isinstance(probes, bool) or not isinstance(probes, (int, np.integer)) or probes < 1:
        raise ValueError(f"probes must be an integer >= 1, got {probes!r}")
    pairs = []
    for b, (names_a, names_b, seed) in enumerate(blocks):
        if not names_a or not names_b:
            raise ValueError(f"Hessian block {b} ({list(names_a)} x {list(names_b)}) has an empty name list")
        idx_a = _flat_indices(params, names_a)
        idx_b = _flat_indices(params, names_b)
        same_block = set(names_a) == set(names_b)
        rng = np.random.default_rng(seed)
        for k in range(probes):
            i = int(rng.choice(idx_a))
            j = i if (same_block and k % 2 == 0) else int(rng.choice(idx_b))
            pairs.append((i, j))
    stencil = np.tile([[step, step], [step, -step], [-step, step], [-step, -step]], (len(pairs), 1))
    at = _loss_at(loss_fn, params, batch, np.repeat(pairs, 4, axis=0), stencil).reshape(len(blocks), probes, 4)
    entries = (at[..., 0] - at[..., 1] - at[..., 2] + at[..., 3]) / (4.0 * step * step)
    return np.abs(entries).max(axis=1).tolist()  # np.max, unlike Python's max, propagates a NaN entry


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """max |a-b| / max(|a|, |b|, floor), elementwise.

    The floor keeps finite-difference rounding noise on near-zero
    coordinates from dominating the ratio; any absolute disagreement
    above floor * tolerance still registers.
    """
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))

