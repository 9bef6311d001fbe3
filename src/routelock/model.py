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

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .params import ParamVector, as_leaves
from .tensor import (
    Tensor,
    _rms_scale,
    _rope,
    _sigmoid,
    _softmax,
    add,
    embedding,
    matmul,
    mul,
    no_grad,
    rms_norm,
    rope_rotate,
    silu,
    softmax,
    swap_last2,
    transpose,
    reshape,
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

    def expert(self, layer: int, route: Route | int) -> "ExpertMlp":
        prefix = mlp_prefix(layer, int(route))
        return ExpertMlp(
            self.params[f"{prefix}.w_gate"],
            self.params[f"{prefix}.w_up"],
            self.params[f"{prefix}.w_down"],
        )


@dataclass
class ExpertMlp:
    """One gated feed-forward expert: down(silu(gate x) * (up x))."""

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray

    def __post_init__(self):
        if (
            self.w_gate.shape != self.w_up.shape
            or self.w_down.shape != (self.w_gate.shape[1], self.w_gate.shape[0])
        ):
            raise ShapeError(
                f"inconsistent expert shapes {self.w_gate.shape}, {self.w_up.shape}, {self.w_down.shape}"
            )


def _swiglu(w_gate: Tensor, w_up: Tensor, w_down: Tensor, x: Tensor) -> Tensor:
    gate = matmul(x, swap_last2(w_gate))
    up = matmul(x, swap_last2(w_up))
    return matmul(mul(silu(gate), up), swap_last2(w_down))


def _swiglu_at(leaves: Mapping[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """``_swiglu`` with the MLP weights named ``prefix``.w_gate/w_up/w_down."""
    return _swiglu(leaves[f"{prefix}.w_gate"], leaves[f"{prefix}.w_up"], leaves[f"{prefix}.w_down"], x)


def mlp_expert(expert: ExpertMlp, x) -> np.ndarray:
    """Apply one expert to a feature vector or a stack of them."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != expert.w_gate.shape[1]:
        raise ShapeError(f"input width {arr.shape[-1]} does not match expert width {expert.w_gate.shape[1]}")
    vec = arr.ndim == 1
    if vec:
        arr = arr[None, :]
    with no_grad():
        out = _swiglu(Tensor(expert.w_gate), Tensor(expert.w_up), Tensor(expert.w_down), Tensor(arr))
    return out.data[0] if vec else out.data


# ---------------------------------------------------------------------------
# expert-call instrumentation
# ---------------------------------------------------------------------------

_RECORDERS: list["ExpertCallRecorder"] = []


class ExpertCallRecorder:
    """Context manager logging (layer, route, positions) per expert application.

    A forward over K parameter points logs the positions of all K points.
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
    return np.triu(np.full((n, n), MASK_NEG), k=1)


def _to_heads(t: Tensor, n_heads: int) -> Tensor:
    lead = t.shape[:-2]
    seq, d = t.shape[-2], t.shape[-1]
    t = reshape(t, lead + (seq, n_heads, d // n_heads))
    axes = tuple(range(len(lead))) + (t.ndim - 2, t.ndim - 3, t.ndim - 1)
    return transpose(t, axes)


def _from_heads(t: Tensor) -> Tensor:
    lead = t.shape[:-3]
    h, seq, hd = t.shape[-3], t.shape[-2], t.shape[-1]
    axes = tuple(range(len(lead))) + (t.ndim - 2, t.ndim - 3, t.ndim - 1)
    return reshape(transpose(t, axes), lead + (seq, h * hd))


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
    q = matmul(h, swap_last2(leaves[f"layer{layer}.wq"]))
    k = matmul(h, swap_last2(leaves[f"layer{layer}.wk"]))
    v = matmul(h, swap_last2(leaves[f"layer{layer}.wv"]))
    qh = rope_rotate(_to_heads(q, cfg.n_heads), cos, sin)
    kh = rope_rotate(_to_heads(k, cfg.n_heads), cos, sin)
    vh = _to_heads(v, cfg.n_heads)
    scores = mul(matmul(qh, swap_last2(kh)), 1.0 / math.sqrt(cfg.head_dim))
    weights = softmax(add(scores, mask))
    ctx = _from_heads(matmul(weights, vh))
    return add(x, matmul(ctx, swap_last2(leaves[f"layer{layer}.wo"])))


def mlp_sublayer(
    cfg: ModelConfig,
    leaves: Mapping[str, Tensor],
    layer: int,
    x: Tensor,
    mlp_apply: Callable[[int, Tensor], Tensor],
) -> Tensor:
    h = rms_norm(x, leaves[f"layer{layer}.ln2"])
    return add(x, mlp_apply(layer, h))


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


def _seq_tables(cfg: ModelConfig, seq: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos, sin and causal mask for a length-``seq`` sequence from position 0."""
    if seq > cfg.max_seq:
        raise CapacityError(f"sequence length {seq} exceeds max_seq {cfg.max_seq}")
    cos, sin = rope_tables(0, seq, cfg.head_dim, cfg.rope_base)
    return cos, sin, causal_mask(seq)


def _layers(cfg: ModelConfig, leaves, x: Tensor, layers: range, mlp_apply, tables) -> Tensor:
    for layer in layers:
        x = attn_sublayer(cfg, leaves, layer, x, *tables)
        x = mlp_sublayer(cfg, leaves, layer, x, mlp_apply)
    return x


def _lm_head(cfg: ModelConfig, leaves, x: Tensor) -> Tensor:
    if cfg.final_norm:
        x = rms_norm(x, leaves["final_norm"])
    return matmul(x, swap_last2(leaves["lm_head"]))


def decoder_logits(
    cfg: ModelConfig,
    leaves: Mapping[str, Tensor],
    tokens,
    mlp_apply: Callable[[int, Tensor], Tensor],
) -> Tensor:
    """Causal decoder logits (..., T, V) for int token ids (T,) or (B, T)."""
    ids = np.asarray(tokens, dtype=np.int64)
    tables = _seq_tables(cfg, ids.shape[-1])
    x = embedding(leaves["embed"], ids)
    return _lm_head(cfg, leaves, _layers(cfg, leaves, x, range(cfg.n_layers), mlp_apply, tables))


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


def forward_parts(model: ModelParams, tokens, route: Route | int, split_layer: int):
    """Split the route-``route`` forward around layer ``split_layer``'s MLP.

    Returns (u, x_norm, downstream): ``u`` is the residual stream after
    the split layer's attention, ``x_norm`` its normalized MLP input, and
    ``downstream(resid)`` maps a post-MLP residual stream to logits
    through the remaining layers.
    """
    cfg = model.config
    if not 0 <= split_layer < cfg.n_layers:
        raise ValueError(f"split_layer {split_layer} outside 0..{cfg.n_layers - 1}")
    ids = np.asarray(tokens, dtype=np.int64)
    tables = _seq_tables(cfg, ids.shape[-1])
    leaves = as_leaves(model.params)
    apply = mlp_dispatch(model, leaves, route)
    with no_grad():
        x = _layers(cfg, leaves, embedding(leaves["embed"], ids), range(split_layer), apply, tables)
        u = attn_sublayer(cfg, leaves, split_layer, x, *tables)
        x_norm = rms_norm(u, leaves[f"layer{split_layer}.ln2"])

    def downstream(resid: np.ndarray) -> np.ndarray:
        with no_grad():
            y = Tensor(np.asarray(resid, dtype=np.float64))
            y = _layers(cfg, leaves, y, range(split_layer + 1, cfg.n_layers), apply, tables)
            return _lm_head(cfg, leaves, y).data

    return u.data, x_norm.data, downstream


# ---------------------------------------------------------------------------
# generation (plain numpy, with an optional KV cache)
# ---------------------------------------------------------------------------


class _KVCache:
    def __init__(self, n_layers: int):
        self.k: list[np.ndarray | None] = [None] * n_layers
        self.v: list[np.ndarray | None] = [None] * n_layers

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        if self.k[layer] is None:
            self.k[layer], self.v[layer] = k, v
        else:
            self.k[layer] = np.concatenate((self.k[layer], k), axis=1)
            self.v[layer] = np.concatenate((self.v[layer], v), axis=1)


def _np_chunk(
    cfg: ModelConfig,
    pv: ParamVector,
    ids: np.ndarray,
    prefix_for_layer: Callable[[int], str],
    cache: _KVCache,
    pos0: int,
    route_for_count: int | None,
) -> np.ndarray:
    """Process a chunk of ids starting at absolute position pos0; returns (n, V) logits."""
    n = ids.shape[0]
    h_heads, hd = cfg.n_heads, cfg.head_dim
    x = pv["embed"][ids]
    cos, sin = rope_tables(pos0, n, hd, cfg.rope_base)
    for layer in range(cfg.n_layers):
        h = x / _rms_scale(x) * pv[f"layer{layer}.ln1"]
        q = (h @ pv[f"layer{layer}.wq"].T).reshape(n, h_heads, hd).transpose(1, 0, 2)
        k = (h @ pv[f"layer{layer}.wk"].T).reshape(n, h_heads, hd).transpose(1, 0, 2)
        v = (h @ pv[f"layer{layer}.wv"].T).reshape(n, h_heads, hd).transpose(1, 0, 2)
        q = _rope(q, cos, sin)
        k = _rope(k, cos, sin)
        cache.append(layer, k, v)
        scores = q @ np.swapaxes(cache.k[layer], -1, -2) / math.sqrt(hd)
        total = cache.k[layer].shape[1]
        if n > 1:
            # rows are positions pos0..pos0+n-1; column j allowed iff j <= pos0+row
            col = np.arange(total)[None, :]
            row = np.arange(pos0, pos0 + n)[:, None]
            scores = scores + np.where(col > row, MASK_NEG, 0.0)
        ctx = (_softmax(scores) @ cache.v[layer]).transpose(1, 0, 2).reshape(n, cfg.d_model)
        x = x + ctx @ pv[f"layer{layer}.wo"].T
        h2 = x / _rms_scale(x) * pv[f"layer{layer}.ln2"]
        if route_for_count is not None:
            _notify(layer, route_for_count, n)
        mlp = prefix_for_layer(layer)
        gate = h2 @ pv[f"{mlp}.w_gate"].T
        x = x + (gate * _sigmoid(gate) * (h2 @ pv[f"{mlp}.w_up"].T)) @ pv[f"{mlp}.w_down"].T
    if cfg.final_norm:
        x = x / _rms_scale(x) * pv["final_norm"]
    return x @ pv["lm_head"].T


def _sample(logits: np.ndarray, sampler: str, temperature: float, rng) -> int:
    if sampler == "greedy":
        return int(np.argmax(logits))
    if sampler == "temperature":
        p = _softmax(logits / temperature)
        return int(rng.choice(p.size, p=p))
    raise ValueError(f"unknown sampler {sampler!r}")


def generate(
    model: ModelParams | DenseModel,
    prompt_ids: Sequence[int],
    max_new: int,
    sampler: str = "greedy",
    temperature: float = 1.0,
    seed: int | None = None,
    use_cache: bool = True,
) -> tuple[list[int], Route]:
    """Autoregressive decoding with the route resolved once and locked.

    Stops at EOS (not included in the returned completion) or after
    ``max_new`` tokens; generation also stops at the model's max_seq
    capacity. Returns (completion ids, route used).
    """
    cfg = model.config
    prompt = list(int(t) for t in prompt_ids)
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if len(prompt) > cfg.max_seq:
        raise CapacityError(f"prompt length {len(prompt)} exceeds max_seq {cfg.max_seq}")
    if max_new < 0:
        raise ValueError("max_new must be >= 0")
    if sampler == "temperature" and seed is None:
        raise ValueError("temperature sampling requires a seed")
    rng = np.random.default_rng(seed) if seed is not None else None

    route = resolve_route(prompt)
    expert = model.expert_index(route)
    prefix_for_layer = lambda layer: mlp_prefix(layer, expert)

    pv = model.params
    out: list[int] = []
    if use_cache:
        cache = _KVCache(cfg.n_layers)
        logits = _np_chunk(cfg, pv, np.asarray(prompt, np.int64), prefix_for_layer, cache, 0, expert)
        while len(out) < max_new:
            nxt = _sample(logits[-1], sampler, temperature, rng)
            if nxt == EOS_ID:
                break
            out.append(nxt)
            if len(out) == max_new or len(prompt) + len(out) >= cfg.max_seq:
                break
            logits = _np_chunk(
                cfg,
                pv,
                np.asarray([nxt], np.int64),
                prefix_for_layer,
                cache,
                len(prompt) + len(out) - 1,
                expert,
            )
    else:
        for _ in range(max_new):
            seq = np.asarray(prompt + out, np.int64)
            logits = _np_chunk(cfg, pv, seq, prefix_for_layer, _KVCache(cfg.n_layers), 0, expert)
            nxt = _sample(logits[-1], sampler, temperature, rng)
            if nxt == EOS_ID:
                break
            out.append(nxt)
            if len(prompt) + len(out) >= cfg.max_seq:
                break
    return out, route
