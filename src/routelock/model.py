"""Route-locked dual-expert decoder.

A causal pre-norm transformer whose per-layer MLP exists in two
structurally identical copies, indexed by the route resolved once from
the prompt's control tokens. Attention projections, norm gains, the
embedding table and the LM head are shared; only the gated feed-forward
weights are duplicated. Cloning from a dense source copies the single
MLP into both experts bitwise, so the two routes are indistinguishable
until training separates them.

Parameter segments are named ``embed``, ``layer{i}.ln1``, ``layer{i}.wq``
.. ``layer{i}.wo``, ``layer{i}.ln2``, then ``layer{i}.mlp.*`` for the
dense model or ``layer{i}.expert0.*`` / ``layer{i}.expert1.*`` for the
routed one, and finally ``final_norm`` (when enabled) and ``lm_head``.
Expert segments form the beta0/beta1 partitions; everything else is alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConfigError
from .params import ParamVector, as_leaves
from .tensor import (
    Tensor,
    _rms_scale,
    _rope,
    _sigmoid,
    _softmax,
    add,
    attention,
    embedding,
    linear,
    matmul,  # noqa: F401  (kept bound here: perfbench's tracer tests read routelock.model.matmul)
    no_grad,
    rms_norm,
    swiglu,
)
from .tokenizer import EOS_ID, Route, resolve_route

MASK_NEG = -1e30  # finite stand-in for -inf; exp underflows to exactly 0.0


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq: int
    rope_base: float = 10000.0
    final_norm: bool = True

    def __post_init__(self):
        for field in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dimension must be even for rotary mixing")
        if self.rope_base <= 0:
            raise ConfigError("rope_base must be positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def _mlp_shapes(cfg: ModelConfig) -> tuple[tuple[str, tuple[int, int]], ...]:
    return (
        ("w_gate", (cfg.d_ff, cfg.d_model)),
        ("w_up", (cfg.d_ff, cfg.d_model)),
        ("w_down", (cfg.d_model, cfg.d_ff)),
    )


def _layout(cfg: ModelConfig, mlp_prefixes: tuple[str, ...]) -> list[tuple[str, tuple[int, ...]]]:
    d = cfg.d_model
    out: list[tuple[str, tuple[int, ...]]] = [("embed", (cfg.vocab_size, d))]
    for i in range(cfg.n_layers):
        out.append((f"layer{i}.ln1", (d,)))
        for w in ("wq", "wk", "wv", "wo"):
            out.append((f"layer{i}.{w}", (d, d)))
        out.append((f"layer{i}.ln2", (d,)))
        for prefix in mlp_prefixes:
            for name, shape in _mlp_shapes(cfg):
                out.append((f"layer{i}.{prefix}.{name}", shape))
    if cfg.final_norm:
        out.append(("final_norm", (d,)))
    out.append(("lm_head", (cfg.vocab_size, d)))
    return out


def dense_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    return _layout(cfg, ("mlp",))


def routed_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    return _layout(cfg, ("expert0", "expert1"))


def mlp_prefix(layer: int, expert: int | None) -> str:
    """Segment prefix of layer ``layer``'s MLP: expert ``expert``, or the dense MLP for None."""
    return f"layer{layer}.mlp" if expert is None else f"layer{layer}.expert{expert}"


def segment_group(name: str) -> str:
    """Partition label: every parameter is exactly one of alpha/beta0/beta1."""
    if ".expert0." in name:
        return "beta0"
    if ".expert1." in name:
        return "beta1"
    return "alpha"


def _init_params(cfg: ModelConfig, layout, seed: int, init_scale: float) -> ParamVector:
    rng = np.random.default_rng(seed)
    segments = []
    for name, shape in layout:
        if name.endswith((".ln1", ".ln2")) or name == "final_norm":
            arr = np.ones(shape)
        elif name == "embed":
            arr = rng.normal(0.0, init_scale, shape)
        else:
            fan_in = shape[-1]
            arr = rng.normal(0.0, init_scale / math.sqrt(fan_in), shape)
        segments.append((name, arr))
    return ParamVector(segments)


@dataclass
class DenseModel:
    """Single-MLP baseline; source for cloning and demo comparison."""

    config: ModelConfig
    params: ParamVector

    @classmethod
    def init_random(cls, cfg: ModelConfig, seed: int, init_scale: float = 1.0) -> "DenseModel":
        return cls(cfg, _init_params(cfg, dense_layout(cfg), seed, init_scale))

    def with_params(self, pv: ParamVector) -> "DenseModel":
        return replace(self, params=pv)

    def expert_index(self, route: Route | int | None) -> None:
        """The dense model has no experts: every route runs its one MLP."""
        return None


@dataclass
class ModelParams:
    """Dual-expert model: config plus the alpha/beta0/beta1-partitioned parameters."""

    config: ModelConfig
    params: ParamVector

    @classmethod
    def clone_from_dense(cls, dense: DenseModel) -> "ModelParams":
        """Duplicate the source MLP into both experts, bitwise; share the rest."""
        cfg = dense.config
        expected = dict(dense_layout(cfg))
        for name, arr in dense.params.items():
            if name not in expected or expected[name] != arr.shape:
                raise ConfigError(f"dense segment {name!r} with shape {arr.shape} does not match config")
        segments = []
        for name, shape in routed_layout(cfg):
            if ".expert0." in name or ".expert1." in name:
                src = name.replace(".expert0.", ".mlp.").replace(".expert1.", ".mlp.")
                segments.append((name, dense.params[src].copy()))
            else:
                segments.append((name, dense.params[name].copy()))
        return cls(cfg, ParamVector(segments))

    @classmethod
    def init_random(cls, cfg: ModelConfig, seed: int, init_scale: float = 1.0) -> "ModelParams":
        return cls.clone_from_dense(DenseModel.init_random(cfg, seed, init_scale))

    def with_params(self, pv: ParamVector) -> "ModelParams":
        return replace(self, params=pv)

    def expert_index(self, route: Route | int | None) -> int:
        """The expert ``route`` selects; the dual-expert model requires a route."""
        if route is None:
            raise ValueError("route is required for the dual-expert model")
        r = int(route)
        if r not in (0, 1):
            raise ValueError(f"route must be 0 or 1, got {route!r}")
        return r

    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {"alpha": [], "beta0": [], "beta1": []}
        for name, _ in self.params.items():
            out[segment_group(name)].append(name)
        return out


def _swiglu_at(leaves: Mapping[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """down(silu(gate x) * (up x)) with the MLP weights named ``prefix``.w_gate/w_up/w_down."""
    return swiglu(x, leaves[f"{prefix}.w_gate"], leaves[f"{prefix}.w_up"], leaves[f"{prefix}.w_down"])


# ---------------------------------------------------------------------------
# expert-call instrumentation
# ---------------------------------------------------------------------------

_RECORDERS: list["ExpertCallRecorder"] = []


class ExpertCallRecorder:
    """Context manager logging (layer, route, positions) per expert application.

    A forward over K parameter points logs the positions of all K points. A
    batched generation chunk logs (layer, route, rows x n) once per route
    group, so totals per route equal the sums over one-prompt calls.
    """

    def __init__(self):
        self.calls: list[tuple[int, int, int]] = []

    def __enter__(self):
        _RECORDERS.append(self)
        return self

    def __exit__(self, *exc):
        _RECORDERS.remove(self)
        return False

    @property
    def total_positions(self) -> int:
        return sum(n for _, _, n in self.calls)

    @property
    def routes_used(self) -> set[int]:
        return {r for _, r, _ in self.calls}


def _notify(layer: int, route: int, positions: int) -> None:
    for rec in _RECORDERS:
        rec.calls.append((layer, route, positions))


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------


def rope_tables(pos0: int, n: int, head_dim: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for absolute positions pos0 .. pos0+n-1, shape (n, head_dim/2)."""
    inv = base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    ang = np.arange(pos0, pos0 + n, dtype=np.float64)[:, None] * inv[None, :]
    return np.cos(ang), np.sin(ang)


def causal_mask(n: int) -> np.ndarray:
    """(n, n) additive mask: MASK_NEG where the column is a later position than the row, else 0."""
    pos = np.arange(n)
    return np.where(pos[None, :] > pos[:, None], MASK_NEG, 0.0)


def attn_sublayer(
    cfg: ModelConfig,
    leaves: Mapping[str, Tensor],
    layer: int,
    x: Tensor,
    cos: np.ndarray,
    sin: np.ndarray,
    mask: np.ndarray,
) -> Tensor:
    h = rms_norm(x, leaves[f"layer{layer}.ln1"])
    q, k, v = (linear(h, leaves[f"layer{layer}.{w}"]) for w in ("wq", "wk", "wv"))
    ctx = attention(q, k, v, cfg.n_heads, cos, sin, mask)
    return add(x, linear(ctx, leaves[f"layer{layer}.wo"]))


def _positions(h: Tensor, points: int) -> int:
    """Positions an expert runs on, counted for each of ``points`` parameter points.

    A pointed ``h`` already holds every point's positions; an unpointed one
    is shared by all of them.
    """
    n = h.size // h.shape[-1]
    return n if h.pointed else n * points


def mlp_dispatch(model: ModelParams | DenseModel, leaves: Mapping[str, Tensor], route: Route | int | None):
    """The ``(layer, h) -> MLP output`` closure of ``model`` on ``route``.

    The model names the MLP each layer runs: the routed model one expert,
    the dense model its single MLP. Expert calls are logged to every open
    ExpertCallRecorder.
    """
    r = model.expert_index(route)
    points = max((t.points for t in leaves.values()), default=1)

    def apply(layer: int, h: Tensor) -> Tensor:
        if r is not None:
            _notify(layer, r, _positions(h, points))
        return _swiglu_at(leaves, mlp_prefix(layer, r), h)

    return apply


def decoder_logits(
    cfg: ModelConfig,
    leaves: Mapping[str, Tensor],
    tokens,
    mlp_apply: Callable[[int, Tensor], Tensor],
) -> Tensor:
    """Causal decoder logits (..., T, V) for int token ids (T,) or (B, T).

    ``mlp_apply(layer, h)`` is the MLP output for layer ``layer``'s
    normalized input ``h``; ``mlp_dispatch`` builds the one a model runs.
    """
    ids = np.asarray(tokens, dtype=np.int64)
    seq = ids.shape[-1]
    if seq > cfg.max_seq:
        raise CapacityError(f"sequence length {seq} exceeds max_seq {cfg.max_seq}")
    cos, sin = rope_tables(0, seq, cfg.head_dim, cfg.rope_base)
    mask = causal_mask(seq)
    x = embedding(leaves["embed"], ids)
    for layer in range(cfg.n_layers):
        x = attn_sublayer(cfg, leaves, layer, x, cos, sin, mask)
        x = add(x, mlp_apply(layer, rms_norm(x, leaves[f"layer{layer}.ln2"])))
    if cfg.final_norm:
        x = rms_norm(x, leaves["final_norm"])
    return linear(x, leaves["lm_head"])


def forward(model: ModelParams | DenseModel, tokens, route: Route | int | None = None) -> Tensor:
    """Full-sequence logits; the route is fixed for the whole call.

    For the dual-expert model exactly one expert runs per layer; the
    dense baseline ignores ``route``.
    """
    leaves = as_leaves(model.params)
    return decoder_logits(model.config, leaves, tokens, mlp_dispatch(model, leaves, route))


def route_logit_gap(model: ModelParams, tokens) -> np.ndarray:
    """Per-position max |logits(route 1) - logits(route 0)|, two exact forwards."""
    with no_grad():
        l0 = forward(model, tokens, Route.NO_THINK).data
        l1 = forward(model, tokens, Route.THINK).data
    return np.max(np.abs(l1 - l0), axis=-1)


# ---------------------------------------------------------------------------
# generation (plain numpy, batched by route and position, with an optional KV cache)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _position_tables(max_seq: int, head_dim: int, base: float) -> tuple[np.ndarray, ...]:
    """Read-only rope tables and causal mask of max_seq positions; slices equal the per-chunk ones bitwise."""
    tables = (*rope_tables(0, max_seq, head_dim, base), causal_mask(max_seq))
    for t in tables:
        t.flags.writeable = False
    return tables


class _KVCache:
    """Keys and values of ``rows`` sequences as (layers, rows, heads, max_seq, head_dim); position tables."""

    def __init__(self, cfg: ModelConfig, rows: int):
        shape = (cfg.n_layers, rows, cfg.n_heads, cfg.max_seq, cfg.head_dim)
        self.k, self.v = np.empty(shape), np.empty(shape)
        self.cos, self.sin, self.mask = _position_tables(cfg.max_seq, cfg.head_dim, cfg.rope_base)

    def keep(self, rows: list[int], filled: int) -> None:
        """Move rows ``rows`` (their first ``filled`` positions) to the front, in that order."""
        self.k[:, : len(rows), :, :filled] = self.k[:, rows, :, :filled]
        self.v[:, : len(rows), :, :filled] = self.v[:, rows, :, :filled]


def _swiglu_np(pv: ParamVector, layer: int, expert: int | None, h: np.ndarray) -> np.ndarray:
    """``_swiglu_at`` on plain arrays, logged as ``mlp_dispatch`` logs it: (layer, expert, rows x n)."""
    if expert is not None:
        _notify(layer, expert, h.size // h.shape[-1])
    mlp = mlp_prefix(layer, expert)
    gate = h @ pv[f"{mlp}.w_gate"].T
    return (gate * _sigmoid(gate) * (h @ pv[f"{mlp}.w_up"].T)) @ pv[f"{mlp}.w_down"].T


def _np_chunk(
    model: ModelParams | DenseModel,
    ids: np.ndarray,
    experts: Sequence[int | None],
    cache: _KVCache,
    pos0: Sequence[int],
    row0: int = 0,
) -> np.ndarray:
    """Logits (R, n, V) for ids (R, n): ``decoder_logits`` on plain arrays, row r at positions
    pos0[r] .. pos0[r]+n-1 (a prefix from 0, or one token) in cache row row0+r, on MLP experts[r].

    Every op acts per element, reduces a row's own last axis, or is a stacked matmul (one
    BLAS call per row), so each row is bitwise a one-row call, and the tape. Rows at equal
    positions (contiguous: ``pos0`` is nondecreasing) share attention calls; ragged rows are
    not padded into one, as a longer softmax or ``weights @ V`` sum regroups its pairwise sum.
    """
    cfg, pv = model.config, model.params
    rows, n = ids.shape
    h_heads, hd = cfg.n_heads, cfg.head_dim
    cuts = [r for r in range(1, rows) if pos0[r] != pos0[r - 1]]
    runs = [(a, b, pos0[a]) for a, b in zip([0] + cuts, cuts + [rows])]
    if cuts:
        at = np.add.outer(pos0, np.arange(n))[:, None]
        cos, sin = cache.cos[at], cache.sin[at]
    else:
        cos, sin = cache.cos[pos0[0] : pos0[0] + n], cache.sin[pos0[0] : pos0[0] + n]
    if len(set(experts)) == 1:
        groups = [(experts[0], slice(None))]
    else:
        groups = [(e, np.flatnonzero(np.asarray(experts) == e)) for e in sorted(set(experts))]
    kc, vc = cache.k[:, row0 : row0 + rows], cache.v[:, row0 : row0 + rows]
    mask = cache.mask[:n, :n] if n > 1 else None
    x = pv["embed"][ids]
    for layer in range(cfg.n_layers):
        h = x / _rms_scale(x) * pv[f"layer{layer}.ln1"]
        # q and k heads are rotated in one call: rope acts per element
        qk = np.concatenate((h @ pv[f"layer{layer}.wq"].T, h @ pv[f"layer{layer}.wk"].T), axis=-1)
        qk = _rope(qk.reshape(rows, n, 2 * h_heads, hd).transpose(0, 2, 1, 3), cos, sin)
        q, k = qk[:, :h_heads], qk[:, h_heads:]
        v = (h @ pv[f"layer{layer}.wv"].T).reshape(rows, n, h_heads, hd).transpose(0, 2, 1, 3)
        ctx = []
        for a, b, p in runs:
            kc[layer, a:b, :, p : p + n], vc[layer, a:b, :, p : p + n] = k[a:b], v[a:b]
            scores = (q[a:b] @ np.swapaxes(kc[layer, a:b, :, : p + n], -1, -2)) * (1.0 / math.sqrt(hd))
            if mask is not None:
                scores = scores + mask
            ctx.append(_softmax(scores) @ vc[layer, a:b, :, : p + n])
        ctx = np.concatenate(ctx) if cuts else ctx[0]
        x = x + ctx.transpose(0, 2, 1, 3).reshape(rows, n, cfg.d_model) @ pv[f"layer{layer}.wo"].T
        h = x / _rms_scale(x) * pv[f"layer{layer}.ln2"]
        if len(groups) == 1:
            x = x + _swiglu_np(pv, layer, groups[0][0], h)
        else:
            y = np.empty_like(x)
            for e, sel in groups:
                y[sel] = _swiglu_np(pv, layer, e, h[sel])
            x = x + y
    if cfg.final_norm:
        x = x / _rms_scale(x) * pv["final_norm"]
    return x @ pv["lm_head"].T


def _feed(model, rows: list[list[int]], experts: list, cache: _KVCache, fed: list[int]) -> np.ndarray:
    """Last-position logits (R, V) of rows sorted by length whose first fed[r] tokens are
    in the cache: one chunk per run of rows with equal unfed lengths."""
    out, a = [], 0
    while a < len(rows):
        n, b = len(rows[a]) - fed[a], a + 1
        while b < len(rows) and len(rows[b]) - fed[b] == n:
            b += 1
        ids = np.asarray([t for row in rows[a:b] for t in row[-n:]], np.int64).reshape(b - a, n)
        out.append(_np_chunk(model, ids, experts[a:b], cache, fed[a:b], a)[:, -1])
        a = b
    return out[0] if len(out) == 1 else np.concatenate(out)


def _sample(logits: np.ndarray, sampler: str, temperature: float, rngs) -> list[int]:
    """One token per row of logits (R, V); temperature sampling draws row r from ``rngs[r]``."""
    if sampler == "greedy":
        return logits.argmax(axis=-1).tolist()
    return [int(rng.choice(row.size, p=_softmax(row / temperature))) for row, rng in zip(logits, rngs)]


def check_prompt(cfg: ModelConfig, prompt_ids: Sequence[int]) -> list[int]:
    """The prompt as a list of ints; an empty one raises ValueError, one past max_seq CapacityError."""
    prompt = [int(t) for t in prompt_ids]
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if len(prompt) > cfg.max_seq:
        raise CapacityError(f"prompt length {len(prompt)} exceeds max_seq {cfg.max_seq}")
    return prompt


def generate_batch(
    model: ModelParams | DenseModel,
    prompts: Sequence[Sequence[int]],
    max_new: int,
    sampler: str = "greedy",
    temperature: float = 1.0,
    seed: int | None = None,
    use_cache: bool = True,
) -> list[tuple[list[int], Route]]:
    """One (completion, route) per prompt, each bitwise what ``generate`` gives it alone.

    Rows run in order of prompt length, each on the route its own prompt locks, and leave
    the batch at EOS (not returned), after ``max_new`` tokens or at max_seq. Each row samples
    from its own ``default_rng(seed)``; without the cache, live rows recompute from position 0.
    """
    cfg = model.config
    seqs = [check_prompt(cfg, p) for p in prompts]
    if max_new < 0:
        raise ValueError("max_new must be >= 0")
    if sampler not in ("greedy", "temperature"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if sampler == "temperature" and seed is None:
        raise ValueError("temperature sampling requires a seed")
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    routes = [resolve_route(p) for p in seqs]
    starts = [len(p) for p in seqs]
    # live rows by length: tokens (aliasing seqs), expert, rng, prompt length, tokens in the cache
    order = sorted(range(len(seqs)), key=starts.__getitem__) if max_new else []
    live = [
        [seqs[i] for i in order],
        [model.expert_index(routes[i]) for i in order],
        [np.random.default_rng(seed) if sampler == "temperature" else None for _ in order],
        [starts[i] for i in order],
        [0] * len(order),
    ]
    cache = _KVCache(cfg, len(order))
    while live[0]:
        rows, experts, rngs, start, fed = live
        keep = []
        for j, t in enumerate(_sample(_feed(model, rows, experts, cache, fed), sampler, temperature, rngs)):
            fed[j] = len(rows[j]) if use_cache else 0
            if t != EOS_ID:
                rows[j].append(t)
                if len(rows[j]) - start[j] < max_new and len(rows[j]) < cfg.max_seq:
                    keep.append(j)
        if len(keep) < len(rows):
            if use_cache and keep:
                cache.keep(keep, fed[keep[-1]])
            live = [[col[j] for j in keep] for col in live]
    return [(seq[n:], route) for seq, n, route in zip(seqs, starts, routes)]


def generate(
    model: ModelParams | DenseModel,
    prompt_ids: Sequence[int],
    max_new: int,
    sampler: str = "greedy",
    temperature: float = 1.0,
    seed: int | None = None,
    use_cache: bool = True,
) -> tuple[list[int], Route]:
    """Autoregressive decoding with the route resolved once and locked: the
    one-row ``generate_batch``. Returns (completion ids, route used)."""
    return generate_batch(model, [prompt_ids], max_new, sampler, temperature, seed, use_cache)[0]
