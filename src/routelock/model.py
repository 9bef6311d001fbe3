"""Route-locked dual-expert decoder.

A causal pre-norm transformer whose per-layer MLP exists in two
structurally identical copies, indexed by the route resolved once from
the prompt's control tokens. Attention projections, norm gains, the
embedding table and the LM head are shared; only the gated feed-forward
weights are duplicated. Cloning from a dense source copies the single
MLP into both experts bitwise, so the two routes are indistinguishable
until training separates them.

Parameter segments are named ``embed``, ``layer{i}.ln1``, ``layer{i}.wq``
.. ``layer{i}.wo``, ``layer{i}.ln2``, then ``layer{i}.mlp.*`` in the
dense layout or ``layer{i}.expert0.*`` / ``layer{i}.expert1.*`` in the
routed one, and finally ``final_norm`` (when enabled) and ``lm_head``.
Expert segments form the beta0/beta1 partitions; everything else is alpha.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, check_field
from .params import ParamVector, as_leaves
from .tensor import (
    Tensor,
    _attend,
    _gated,
    _rms_normed,
    _rotate,
    _softmax,
    _split_heads,
    add,
    attention,
    embedding,
    linear,
    matmul,  # noqa: F401  (kept bound here: perfbench's tracer tests read routelock.model.matmul)
    rms_norm,
    rotary_tables,
    swiglu,
    tail,
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
            check_field(self, field, numbers.Integral, lambda v: v >= 1, "an integer >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dimension must be even for rotary mixing")
        check_field(self, "rope_base", numbers.Real, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
        if not isinstance(self.final_norm, bool):
            raise ConfigError(f"final_norm must be true or false, got {self.final_norm!r}")

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


def _init_params(cfg: ModelConfig, layout, seed: int) -> ParamVector:
    rng = np.random.default_rng(seed)
    segments = []
    for name, shape in layout:
        if name.endswith((".ln1", ".ln2")) or name == "final_norm":
            arr = np.ones(shape)
        elif name == "embed":
            arr = rng.normal(0.0, 1.0, shape)
        else:
            fan_in = shape[-1]
            arr = rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)
        segments.append((name, arr))
    return ParamVector(segments)


@dataclass
class ModelParams:
    """Decoder model: config plus parameters in the dense layout (``layer{i}.mlp.*``, one MLP
    for every route) or the routed one (two experts, partitioned alpha/beta0/beta1)."""

    config: ModelConfig
    params: ParamVector

    @classmethod
    def init_dense(cls, cfg: ModelConfig, seed: int) -> "ModelParams":
        return cls(cfg, _init_params(cfg, dense_layout(cfg), seed))

    @classmethod
    def clone_from_dense(cls, dense: "ModelParams") -> "ModelParams":
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
    def init_random(cls, cfg: ModelConfig, seed: int) -> "ModelParams":
        return cls.clone_from_dense(cls.init_dense(cfg, seed))

    def with_params(self, pv: ParamVector) -> "ModelParams":
        return replace(self, params=pv)

    def route0_twin(self) -> "ModelParams":
        """This model with each expert 1 segment a copy of its expert 0 segment: the equal-experts
        state a clone starts in, so a clone's twin is the clone bitwise."""
        pv = self.params
        return self.with_params(ParamVector((n, pv[n.replace(".expert1.", ".expert0.")].copy()) for n in pv.names))

    def expert_index(self, route: Route | int | None) -> int | None:
        """The expert ``route`` selects: None in the dense layout, whose one MLP runs for every
        route; in the routed layout, the route, which is required."""
        if "layer0.mlp.w_gate" in self.params:
            return None
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

    Positions are those the MLP ran on: the last layer runs only where logits
    are read, B x (T - first) in a ``decoder_logits`` forward and rows x 1 in a
    generation prefill. A forward over K parameter points logs the positions of
    all K points. A batched generation chunk runs one expert and logs (layer,
    route, rows x n) once per layer, so totals per route equal the sums over
    one-prompt calls.
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


def _notify(layer: int, route: int | None, positions: int) -> None:
    """Log an expert call to every open recorder; the dense layout's MLP (route None) is no expert."""
    if route is not None:
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


@functools.lru_cache(maxsize=8)
def _position_tables(max_seq: int, head_dim: int, n_heads: int, base: float) -> tuple[np.ndarray, ...]:
    """Read-only ``rotary_tables`` of n_heads heads and causal mask of max_seq positions, built
    once; slices equal the per-chunk tables bitwise."""
    tables = (*rotary_tables(*rope_tables(0, max_seq, head_dim, base), n_heads), causal_mask(max_seq))
    for t in tables:
        t.flags.writeable = False
    return tables


def mlp_dispatch(model: ModelParams, leaves: Mapping[str, Tensor], route: Route | int | None):
    """The ``(layer, h) -> MLP output`` closure of ``model`` on ``route``.

    The model's layout names the MLP each layer runs: one expert in the
    routed layout, the single MLP in the dense one. Expert calls are
    logged to every open ExpertCallRecorder.
    """
    r = model.expert_index(route)
    points = max((t.points for t in leaves.values()), default=1)

    def apply(layer: int, h: Tensor) -> Tensor:
        # positions counted for each parameter point: a pointed h holds every point's, an unpointed one is shared
        _notify(layer, r, h.size // h.shape[-1] * (1 if h.pointed else points))
        return _swiglu_at(leaves, mlp_prefix(layer, r), h)

    return apply


def decoder_logits(
    cfg: ModelConfig,
    leaves: Mapping[str, Tensor],
    tokens,
    mlp_apply: Callable[[int, Tensor], Tensor],
    first: int = 0,
) -> Tensor:
    """Causal decoder logits (..., T - first, V) at positions ``first`` .. T-1, for int token
    ids (T,) or (B, T).

    Every layer but the last, and the last layer's k and v, run at all T positions, as later
    positions attend to them; the last layer's queries, and all that follows its attention,
    run only from ``first`` on. ``mlp_apply(layer, h)`` is the MLP output for layer
    ``layer``'s normalized input ``h``; ``mlp_dispatch`` builds the one a model runs.
    """
    ids = np.asarray(tokens, dtype=np.int64)
    seq = ids.shape[-1]
    if seq > cfg.max_seq:
        raise CapacityError(f"sequence length {seq} exceeds max_seq {cfg.max_seq}")
    cos, sin, mask = _position_tables(cfg.max_seq, cfg.head_dim, cfg.n_heads, cfg.rope_base)
    cos, sin, mask = cos[:seq], sin[:seq], mask[:seq, :seq]
    x = embedding(leaves["embed"], ids)
    for layer in range(cfg.n_layers):
        h = rms_norm(x, leaves[f"layer{layer}.ln1"])
        q, k, v = (linear(h, leaves[f"layer{layer}.{w}"]) for w in ("wq", "wk", "wv"))
        start = first if layer == cfg.n_layers - 1 else 0
        ctx = attention(q, k, v, cfg.n_heads, cos, sin, mask, start)
        x = add(tail(x, start), linear(ctx, leaves[f"layer{layer}.wo"]))
        x = add(x, mlp_apply(layer, rms_norm(x, leaves[f"layer{layer}.ln2"])))
    if cfg.final_norm:
        x = rms_norm(x, leaves["final_norm"])
    return linear(x, leaves["lm_head"])


def forward(model: ModelParams, tokens, route: Route | int | None = None) -> Tensor:
    """Full-sequence logits; the route is fixed for the whole call.

    In the routed layout exactly one expert runs per layer; a model in
    the dense layout ignores ``route``.
    """
    leaves = as_leaves(model.params)
    return decoder_logits(model.config, leaves, tokens, mlp_dispatch(model, leaves, route))


def route_logit_gap(model: ModelParams, tokens) -> np.ndarray:
    """Per-position max |logits(route 1) - logits(route 0)|, two exact forwards."""
    l0 = forward(model, tokens, Route.NO_THINK).data
    l1 = forward(model, tokens, Route.THINK).data
    return np.max(np.abs(l1 - l0), axis=-1)


# ---------------------------------------------------------------------------
# generation (plain numpy, one rectangle per (expert, prompt length) group, with an optional KV cache)
# ---------------------------------------------------------------------------


class _KVCache:
    """Keys and values of one group's ``rows`` sequences, all filled to the same position, as
    (layers, rows, heads, max_seq, head_dim); position tables, the rotary ones for q|k side by
    side (2 * n_heads heads)."""

    def __init__(self, cfg: ModelConfig, rows: int):
        shape = (cfg.n_layers, rows, cfg.n_heads, cfg.max_seq, cfg.head_dim)
        self.k, self.v = np.empty(shape), np.empty(shape)
        self.cos, self.sin, self.mask = _position_tables(cfg.max_seq, cfg.head_dim, 2 * cfg.n_heads, cfg.rope_base)

    def keep(self, rows: list[int], filled: int) -> None:
        """Move rows ``rows`` (their first ``filled`` positions) to the front, in that order."""
        self.k[:, : len(rows), :, :filled] = self.k[:, rows, :, :filled]
        self.v[:, : len(rows), :, :filled] = self.v[:, rows, :, :filled]


def _np_chunk(
    model: ModelParams, ids: np.ndarray, expert: int | None, cache: _KVCache, pos0: int
) -> np.ndarray:
    """Logits (R, 1, V) at the last position for ids (R, n): ``decoder_logits`` on plain arrays with
    MLP ``expert`` and ``first`` n-1, every row at positions pos0 .. pos0+n-1 (a prefix from 0,
    or one token) in the first R cache rows; expert calls are logged as ``mlp_dispatch`` logs them.

    Every layer writes k and v of all n positions into the cache; the last layer then runs its
    query, and all that follows its attention, at the last position only. Norms, the gated MLP
    product and the attention core are the tape's kernels (``_rms_normed``, ``_gated``, ``_attend``).
    Only the projections differ, by design: the tape runs one GEMM over all its token rows, and here
    each is a stacked matmul, one BLAS call per row. So each row is bitwise a one-row call, and that
    is bitwise the tape's forward of the one sequence from ``first`` n-1; a tape batch's row is not.
    """
    cfg, pv = model.config, model.params
    heads, end = cfg.n_heads, pos0 + ids.shape[1]
    cos, sin = cache.cos[pos0:end], cache.sin[pos0:end]
    kc, vc = cache.k[:, : len(ids)], cache.v[:, : len(ids)]
    mask = cache.mask[pos0:end, :end] if end - pos0 > 1 else None
    x = pv["embed"][ids]
    for layer in range(cfg.n_layers):
        h = _rms_normed(x, pv[f"layer{layer}.ln1"])[0]
        # q and k are rotated in one call, as 2 * heads heads side by side: rotary mixing acts per element
        qk = np.concatenate((h @ pv[f"layer{layer}.wq"].T, h @ pv[f"layer{layer}.wk"].T), axis=-1)
        qk = _split_heads(_rotate(qk, cos, sin, 2 * heads), 2 * heads)
        kc[layer, :, :, pos0:end] = qk[:, heads:]
        vc[layer, :, :, pos0:end] = _split_heads(h @ pv[f"layer{layer}.wv"].T, heads)
        q = qk[:, :heads]
        if layer == cfg.n_layers - 1:  # only the last position's logits are read; its mask row is all 0
            q, x, mask = q[:, :, -1:], x[:, -1:], None
        x = x + _attend(q, kc[layer, :, :, :end], vc[layer, :, :, :end], mask)[1] @ pv[f"layer{layer}.wo"].T
        h = _rms_normed(x, pv[f"layer{layer}.ln2"])[0]
        _notify(layer, expert, h.size // h.shape[-1])
        mlp = mlp_prefix(layer, expert)
        x = x + _gated(h @ pv[f"{mlp}.w_gate"].T, h @ pv[f"{mlp}.w_up"].T)[0] @ pv[f"{mlp}.w_down"].T
    if cfg.final_norm:
        x = _rms_normed(x, pv["final_norm"])[0]
    return x @ pv["lm_head"].T


def _sample(logits: np.ndarray, temperature: float | None, rngs) -> list[int]:
    """One token per row of logits (R, V): the argmax for ``temperature`` None, else a draw
    from row r's softmax of logits / temperature with ``rngs[r]``. A temperature so small that
    logits / temperature overflows raises ValueError."""
    if temperature is None:
        return logits.argmax(axis=-1).tolist()
    with np.errstate(over="ignore"):
        scaled = logits / temperature
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"temperature {temperature!r} is too small: logits / temperature overflow")
    return [int(rng.choice(row.size, p=_softmax(row))) for row, rng in zip(scaled, rngs)]


def check_prompt_length(cfg: ModelConfig, prompt_ids: Sequence[int]) -> Sequence[int]:
    """``prompt_ids`` unchanged; CapacityError if it is longer than max_seq."""
    if len(prompt_ids) > cfg.max_seq:
        raise CapacityError(f"prompt length {len(prompt_ids)} exceeds max_seq {cfg.max_seq}")
    return prompt_ids


def check_prompt(cfg: ModelConfig, prompt_ids: Sequence[int]) -> list[int]:
    """The prompt as ints; ValueError if empty or an id is not in [0, vocab_size), CapacityError past max_seq."""
    prompt = check_prompt_length(cfg, list(prompt_ids))
    if not prompt:
        raise ValueError("prompt must be non-empty")
    ids = [operator.index(t) for t in prompt if hasattr(t, "__index__")]  # ints: no float or string passes
    if len(ids) < len(prompt) or min(ids) < 0 or max(ids) >= cfg.vocab_size:
        bad = next(t for t in prompt if not hasattr(t, "__index__") or not 0 <= t < cfg.vocab_size)
        raise ValueError(f"token id {bad!r} is not an integer in [0, {cfg.vocab_size})")
    return ids


def generate_batch(
    model: ModelParams,
    prompts: Sequence[Sequence[int]],
    max_new: int,
    temperature: float | None = None,
    seed: int | None = None,
    use_cache: bool = True,
) -> list[tuple[list[int], Route]]:
    """One (completion, route) per prompt, each bitwise what ``generate`` gives it alone.

    Prompts of one (expert, length) group decode together as one rectangle, each row on the
    route its own prompt locks, and leave it at EOS (not returned), after ``max_new`` tokens or
    at max_seq. Decoding is greedy for ``temperature`` None; otherwise each row samples from its
    own ``default_rng(seed)``. Without the cache, live rows recompute from position 0.
    """
    cfg = model.config
    seqs = [check_prompt(cfg, p) for p in prompts]
    if isinstance(max_new, bool) or not isinstance(max_new, numbers.Integral) or max_new < 0:
        raise ValueError(f"max_new must be an integer >= 0, got {max_new!r}")
    if temperature is not None and seed is None:
        raise ValueError("temperature sampling requires a seed")
    if temperature is not None and not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be a finite number > 0, got {temperature!r}")
    routes = [resolve_route(p) for p in seqs]
    starts = [len(p) for p in seqs]
    groups: dict[tuple[int | None, int], list[list[int]]] = {}
    for seq, route in zip(seqs, routes):
        groups.setdefault((model.expert_index(route), len(seq)), []).append(seq)
    for (expert, start), rows in groups.items() if max_new else ():
        # live rows (aliasing seqs) all hold n tokens, the first fed of them in the cache
        rngs = [None if temperature is None else np.random.default_rng(seed) for _ in rows]
        cache, n, fed = _KVCache(cfg, len(rows)), start, 0
        while rows:
            ids = np.asarray([row[fed:] for row in rows], np.int64)
            tokens = _sample(_np_chunk(model, ids, expert, cache, fed)[:, -1], temperature, rngs)
            keep = [j for j, t in enumerate(tokens) if t != EOS_ID]
            for j in keep:
                rows[j].append(tokens[j])
            n += 1
            if n - start == max_new or n >= cfg.max_seq:
                break
            fed = n - 1 if use_cache else 0
            if len(keep) < len(rows):
                cache.keep(keep, fed)
                rows, rngs = [rows[j] for j in keep], [rngs[j] for j in keep]
    return [(seq[n:], route) for seq, n, route in zip(seqs, starts, routes)]


def generate(
    model: ModelParams,
    prompt_ids: Sequence[int],
    max_new: int,
    temperature: float | None = None,
    seed: int | None = None,
    use_cache: bool = True,
) -> tuple[list[int], Route]:
    """Autoregressive decoding with the route resolved once and locked: the
    one-row ``generate_batch``. Returns (completion ids, route used)."""
    return generate_batch(model, [prompt_ids], max_new, temperature, seed, use_cache)[0]
