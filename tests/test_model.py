import numpy as np
import pytest

from routelock.errors import CapacityError, ConfigError
from routelock.model import (
    ExpertCallRecorder,
    ModelConfig,
    ModelParams,
    _KVCache,
    _np_chunk,
    _position_tables,
    _swiglu_at,
    causal_mask,
    decoder_logits,
    forward,
    generate,
    generate_batch,
    mlp_dispatch,
    rope_tables,
    route_logit_gap,
    segment_group,
)
from routelock.params import ParamVector, as_leaves
from routelock.tensor import Tensor, _sigmoid, rotary_tables
from routelock.tokenizer import CTRL_NOTHINK_ID, CTRL_THINK_ID, EOS_ID, Route

from conftest import TINY_CFG, tiny_dense, tiny_model

TOKENS = [1, 8, 9, CTRL_NOTHINK_ID, 10, 11, 12]


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, d_model=9, n_layers=1, n_heads=2, d_ff=8, max_seq=8)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, d_model=8, n_layers=0, n_heads=2, d_ff=8, max_seq=8)
    with pytest.raises(ConfigError):
        # head_dim 1 is odd, unusable for rotary mixing
        ModelConfig(vocab_size=10, d_model=2, n_layers=1, n_heads=2, d_ff=8, max_seq=8)
    bad = [("rope_base", v) for v in (float("nan"), float("inf"), 0.0, -1.0, True, "10000")]
    for field, value in bad + [("final_norm", "no"), ("final_norm", 1), ("d_ff", 8.0)]:
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{**dict(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq=8), field: value})


def test_clone_experts_bitwise_equal(tiny):
    for name, arr in tiny.params.items():
        if ".expert0." in name:
            twin = name.replace(".expert0.", ".expert1.")
            assert np.array_equal(arr, tiny.params[twin])
            assert arr.tobytes() == tiny.params[twin].tobytes()


@pytest.mark.parametrize("seed", [0, 3])
def test_route0_twin_of_a_clone_is_the_model_bitwise(seed):
    model = ModelParams.init_random(TINY_CFG, seed)
    twin = model.route0_twin()
    assert twin.config == model.config and twin.params.names == model.params.names
    assert twin.params.flatten().tobytes() == model.params.flatten().tobytes()


def test_route0_twin_copies_expert0_over_expert1():
    model = tiny_model()
    moved = model.with_params(ParamVector((n, a * 3 if ".expert1." in n else a) for n, a in model.params.items()))
    twin = moved.route0_twin()
    for name, arr in twin.params.items():
        source = name.replace(".expert1.", ".expert0.")
        assert arr.tobytes() == moved.params[source].tobytes()
        assert arr is not moved.params[source]
    assert tiny_dense().route0_twin().params.flatten().tobytes() == tiny_dense().params.flatten().tobytes()


def test_parameter_count_identity():
    cfg = ModelConfig(vocab_size=64, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=16)
    dense = ModelParams.init_dense(cfg, seed=0)
    routed = ModelParams.clone_from_dense(dense)
    expert_size = 3 * 16 * 32
    assert routed.params.size == dense.params.size + cfg.n_layers * expert_size


def test_clone_rejects_mismatched_shapes():
    dense = tiny_dense()
    broken = ParamVector(
        (n, a[:-1] if n == "layer0.mlp.w_gate" else a) for n, a in dense.params.items()
    )
    with pytest.raises(ConfigError):
        ModelParams.clone_from_dense(ModelParams(dense.config, broken))


@pytest.mark.parametrize("change", ["missing", "extra", "reordered"])
def test_clone_rejects_a_source_not_in_the_dense_layout(change):
    segments = list(tiny_dense().params.items())
    if change == "missing":
        segments = [(n, a) for n, a in segments if n != "lm_head"]
    elif change == "extra":
        segments.append(("layer0.mlp.bias", np.zeros(12)))
    else:
        segments[1], segments[2] = segments[2], segments[1]
    with pytest.raises(ConfigError, match="dense layout"):
        ModelParams.clone_from_dense(ModelParams(TINY_CFG, ParamVector(segments)))


def test_partition_covers_everything(tiny):
    groups = tiny.groups()
    all_names = set(tiny.params.names)
    assert set(groups["alpha"]) | set(groups["beta0"]) | set(groups["beta1"]) == all_names
    assert not set(groups["beta0"]) & set(groups["beta1"])
    assert all(".expert0." in n for n in groups["beta0"])
    for name in ("embed", "lm_head", "layer0.wq", "layer0.ln2", "final_norm"):
        assert segment_group(name) == "alpha"


def test_identical_init_route_equivalence_exact(tiny):
    l0 = forward(tiny, TOKENS, Route.NO_THINK)
    l1 = forward(tiny, TOKENS, Route.THINK)
    assert np.max(np.abs(l0.data - l1.data)) == 0.0


def test_route0_matches_dense_source_bitwise():
    dense = tiny_dense()
    routed = ModelParams.clone_from_dense(dense)
    a = forward(routed, TOKENS, Route.NO_THINK).data
    b = forward(dense, TOKENS).data
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def perturbed_beta1(model, scale=0.05, seed=0):
    rng = np.random.default_rng(seed)
    pv = ParamVector(
        (n, a + scale * rng.normal(size=a.shape) if ".expert1." in n else a.copy())
        for n, a in model.params.items()
    )
    return model.with_params(pv)


def test_route0_invariant_to_beta1_changes(tiny):
    before = forward(tiny, TOKENS, Route.NO_THINK).data
    pert = perturbed_beta1(tiny)
    after = forward(pert, TOKENS, Route.NO_THINK).data
    assert np.array_equal(before, after)
    assert not np.array_equal(forward(pert, TOKENS, Route.THINK).data, before)


def test_expert_call_count_is_layers_times_positions(tiny):
    with ExpertCallRecorder() as rec:
        forward(tiny, TOKENS, Route.THINK)
    assert rec.total_positions == TINY_CFG.n_layers * len(TOKENS)
    assert rec.routes_used == {1}


def test_causality(tiny):
    base = forward(tiny, TOKENS, Route.NO_THINK).data
    changed = list(TOKENS)
    changed[-1] = 5
    out = forward(tiny, changed, Route.NO_THINK).data
    assert np.array_equal(base[:-1], out[:-1])
    assert not np.array_equal(base[-1], out[-1])


def test_sequence_too_long(tiny):
    with pytest.raises(CapacityError):
        forward(tiny, list(range(TINY_CFG.max_seq + 1)), Route.NO_THINK)


def test_route_logit_gap_cloned_zero(tiny):
    assert np.all(route_logit_gap(tiny, TOKENS) == 0.0)


def test_route_logit_gap_scales_linearly(tiny):
    rng = np.random.default_rng(3)
    direction = {
        n: rng.normal(size=a.shape)
        for n, a in tiny.params.items()
        if n.startswith(f"layer{TINY_CFG.n_layers - 1}.expert1.")
    }

    def gap_at(eps):
        pv = ParamVector(
            (n, a + eps * direction[n] if n in direction else a.copy())
            for n, a in tiny.params.items()
        )
        return float(np.max(route_logit_gap(tiny.with_params(pv), TOKENS)))

    g1, g2 = gap_at(1e-4), gap_at(5e-5)
    assert 1.9 <= g1 / g2 <= 2.1


def test_same_route_forward_is_deterministic(tiny):
    a = forward(tiny, TOKENS, Route.NO_THINK).data
    b = forward(tiny, TOKENS, Route.NO_THINK).data
    assert np.array_equal(a, b)


# --- expert MLP -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["zero", "random"])
def test_swiglu_at_matches_reference(tiny, kind):
    x = np.zeros(TINY_CFG.d_model) if kind == "zero" else np.random.default_rng(4).normal(size=TINY_CFG.d_model)
    w = {name: tiny.params[f"layer1.expert1.{name}"] for name in ("w_gate", "w_up", "w_down")}
    # straight-line reference
    gate = w["w_gate"] @ x
    ref = w["w_down"] @ ((gate * _sigmoid(gate)) * (w["w_up"] @ x))
    out = _swiglu_at(as_leaves(tiny.params), "layer1.expert1", Tensor(x[None, :])).data[0]
    assert np.max(np.abs(out - ref)) <= 1e-12


def last_position_logits(model, tokens, route):
    """The tape's logits of ``tokens`` at their last position only: ``decoder_logits`` from ``first`` n-1."""
    leaves = as_leaves(model.params)
    return decoder_logits(model.config, leaves, tokens, mlp_dispatch(model, leaves, route), len(tokens) - 1).data


# head dims 4, 6 and 8 at depths 1, 2 and 3; the 2-layer cases keep their bare d_model ids
DEPTHS = [pytest.param(d, n, id=str(d) if n == 2 else f"{d}-{n}layers") for n in (2, 1, 3) for d in (8, 12, 16)]


@pytest.mark.parametrize("d_model, n_layers", DEPTHS)
def test_graph_forward_matches_numpy_prefill_bitwise(d_model, n_layers):
    # the generation path is a second, plain-array forward; a prefill of every prompt length
    # must give exactly the tape's logits at its last position, at every head dimension and depth
    cfg = ModelConfig(vocab_size=24, d_model=d_model, n_layers=n_layers, n_heads=2, d_ff=12, max_seq=24)
    model = tiny_model(seed=0, cfg=cfg)
    expert = model.expert_index(Route.NO_THINK)
    for n in range(1, len(TOKENS) + 1):
        a = last_position_logits(model, TOKENS[:n], Route.NO_THINK)
        b = _np_chunk(model, np.asarray([TOKENS[:n]], np.int64), expert, _KVCache(cfg, 1), 0)[0]
        assert a.shape == b.shape == (1, cfg.vocab_size)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d_model, n_layers", DEPTHS)
def test_multi_row_prefill_rows_match_forward_bitwise(d_model, n_layers):
    # rows of one chunk run on one expert and share attention calls; each row's logits
    # are still those of the tape forward on that row alone, at its last position
    cfg = ModelConfig(vocab_size=24, d_model=d_model, n_layers=n_layers, n_heads=2, d_ff=12, max_seq=24)
    model = perturbed_beta1(tiny_model(seed=0, cfg=cfg), scale=0.5)
    rows = [TOKENS, [1, 9, 8, 7, 6, 5, CTRL_THINK_ID], [1, 10, 12, 14, 16, 18, 20], TOKENS]
    ids, out = np.asarray(rows, np.int64), {}
    for route in Route:
        out[route] = _np_chunk(model, ids, model.expert_index(route), _KVCache(cfg, len(rows)), 0)
        assert out[route].shape == (len(rows), 1, cfg.vocab_size)
        for row, logits in zip(rows, out[route]):
            assert logits.tobytes() == last_position_logits(model, row, route).tobytes()
    assert not np.array_equal(out[Route.NO_THINK][0], out[Route.THINK][3])


def test_position_table_slices_match_per_chunk_tables_bitwise():
    cfg = TINY_CFG
    # the tape's tables, and the decoder's for q|k side by side
    for heads in (cfg.n_heads, 2 * cfg.n_heads):
        cos, sin, mask = _position_tables(cfg.max_seq, cfg.head_dim, heads, cfg.rope_base)
        assert cos.shape == sin.shape == (cfg.max_seq, heads * cfg.head_dim)
        for p in range(cfg.max_seq):
            for n in (1, cfg.max_seq - p):
                c, s = rotary_tables(*rope_tables(p, n, cfg.head_dim, cfg.rope_base), heads)
                assert np.array_equal(cos[p : p + n], c) and np.array_equal(sin[p : p + n], s)
            assert np.array_equal(mask[: p + 1, : p + 1], causal_mask(p + 1))


# --- generation -------------------------------------------------------------


def test_generate_routes_from_prompt(tiny):
    _, route = generate(tiny, [1, 8, CTRL_NOTHINK_ID], max_new=3)
    assert route is Route.NO_THINK
    _, route = generate(tiny, [1, 8, CTRL_THINK_ID], max_new=3)
    assert route is Route.THINK
    _, route = generate(tiny, [1, 8], max_new=3)
    assert route is Route.NO_THINK  # default


def test_generate_route_locked_even_if_control_emitted(tiny):
    # force the model to emit the think control token under route 0
    pv = tiny.params.copy()
    head = np.zeros_like(pv["lm_head"])
    head[CTRL_THINK_ID] = 1.0  # argmax is always /think
    pv = ParamVector((n, head if n == "lm_head" else a) for n, a in pv.items())
    model = tiny.with_params(pv)
    with ExpertCallRecorder() as rec:
        out, route = generate(model, [1, 8, CTRL_NOTHINK_ID], max_new=4)
    assert route is Route.NO_THINK
    assert CTRL_THINK_ID in out
    assert rec.routes_used == {0}


def test_generate_greedy_deterministic(tiny):
    a, _ = generate(tiny, TOKENS, max_new=6)
    b, _ = generate(tiny, TOKENS, max_new=6)
    assert a == b


def test_generate_max_new_zero(tiny):
    out, _ = generate(tiny, TOKENS, max_new=0)
    assert out == []


def test_generate_capacity_error(tiny):
    with pytest.raises(CapacityError):
        generate(tiny, list(range(TINY_CFG.max_seq + 1)), max_new=1)


def test_generate_empty_prompt_rejected(tiny):
    with pytest.raises(ValueError):
        generate(tiny, [], max_new=1)


def test_kv_cache_matches_full_recompute():
    # at depths 1, 2 and 3: the last layer runs its query at the last fed position only
    for n_layers in (1, 2, 3):
        cfg = ModelConfig(vocab_size=24, d_model=8, n_layers=n_layers, n_heads=2, d_ff=12, max_seq=24)
        for seed in range(5):
            model = tiny_model(seed=seed, cfg=cfg)
            cached, _ = generate(model, TOKENS, max_new=8, use_cache=True)
            full, _ = generate(model, TOKENS, max_new=8, use_cache=False)
            assert cached == full


def test_generate_per_token_expert_calls(tiny):
    prompt = [1, 8, CTRL_NOTHINK_ID]
    with ExpertCallRecorder() as rec:
        out, _ = generate(tiny, prompt, max_new=5, use_cache=True)
    assert len(out) == 5  # no EOS: a prefill and four one-token steps
    last = TINY_CFG.n_layers - 1
    # the prefill runs every layer but the last on the whole prompt, and the last on its final position
    prefill = [(layer, 0, len(prompt)) for layer in range(last)] + [(last, 0, 1)]
    step = [(layer, 0, 1) for layer in range(TINY_CFG.n_layers)]
    assert rec.calls == prefill + step * (len(out) - 1)


def test_temperature_sampling_needs_seed(tiny):
    with pytest.raises(ValueError):
        generate(tiny, TOKENS, max_new=2, temperature=1.0)
    a, _ = generate(tiny, TOKENS, max_new=5, temperature=1.3, seed=9)
    b, _ = generate(tiny, TOKENS, max_new=5, temperature=1.3, seed=9)
    assert a == b


def test_generate_stops_at_eos(tiny):
    # read the final hidden state, then aim the EOS head row along it
    probe = np.zeros_like(tiny.params["lm_head"])
    probe[: TINY_CFG.d_model] = np.eye(TINY_CFG.d_model)
    pv = ParamVector((n, probe if n == "lm_head" else a) for n, a in tiny.params.items())
    hidden = forward(tiny.with_params(pv), TOKENS, Route.NO_THINK).data[-1, : TINY_CFG.d_model]
    head = np.zeros_like(tiny.params["lm_head"])
    head[EOS_ID] = hidden
    pv = ParamVector((n, head if n == "lm_head" else a) for n, a in tiny.params.items())
    out, _ = generate(tiny.with_params(pv), TOKENS, max_new=5)
    assert out == []


# --- batched generation -------------------------------------------------------

# prompt lengths 3, 5 and 8 on both routes, and one 20-token prompt that
# reaches max_seq (24) after 4 tokens
RAGGED = [
    [1, 8, CTRL_NOTHINK_ID],
    [1, 9, 10, 11, CTRL_THINK_ID],
    [1, 8, 9, 10, 11, 12, 13, CTRL_NOTHINK_ID],
    [1, 12, CTRL_THINK_ID],
    [1, 13, 14, 15, CTRL_NOTHINK_ID],
    [1, 6, 7, 8, 9, 10, 11, CTRL_THINK_ID],
    [1] + list(range(6, 24)) + [CTRL_THINK_ID],
    [1, 7, 9, CTRL_NOTHINK_ID],
    [1, 11, 10, 9, 8, 7, 6, CTRL_THINK_ID],
]


def split_model():
    """Experts that differ, and an EOS head row scaled so that rows stop at different steps."""
    model = perturbed_beta1(tiny_model(seed=3), scale=0.5)
    head = model.params["lm_head"].copy()
    head[EOS_ID] *= 1.5
    return model.with_params(ParamVector((n, head if n == "lm_head" else a) for n, a in model.params.items()))


def shuffled(prompts, seed=0):
    return [prompts[i] for i in np.random.default_rng(seed).permutation(len(prompts))]


@pytest.mark.parametrize("use_cache", [True, False])
def test_generate_batch_rows_equal_generate(use_cache):
    model = split_model()
    prompts = shuffled(RAGGED)
    rows = generate_batch(model, prompts, max_new=8, use_cache=use_cache)
    assert rows == [generate(model, p, max_new=8, use_cache=use_cache) for p in prompts]
    # the batch covers both routes and all three ways a row stops, at several steps
    assert {route for _, route in rows} == {Route.NO_THINK, Route.THINK}
    stops = {
        "max_seq" if len(p) + len(c) == TINY_CFG.max_seq else "max_new" if len(c) == 8 else f"eos@{len(c)}"
        for p, (c, _) in zip(prompts, rows)
    }
    assert {"max_seq", "max_new"} < stops and len(stops) >= 5


def test_mixed_route_batch_rows_equal_pure_batches():
    model = split_model()
    prompts = shuffled(RAGGED, seed=1)
    rows = generate_batch(model, prompts, max_new=8)
    for route in Route:
        pure = [p for p, (_, r) in zip(prompts, rows) if r is route]
        assert generate_batch(model, pure, max_new=8) == [row for row in rows if row[1] is route]


def test_generate_batch_row_moving_up_keeps_its_whole_cache():
    # rows sort by (expert, length): when the short no-think row leaves, the long no-think
    # row moves up with all its cached positions, though the think row sorted last is shorter
    model = split_model()
    prompts = [
        [1, 22, CTRL_NOTHINK_ID],
        [1, 19, 23, 17, 18, 21, 23, 15, 16, CTRL_THINK_ID],
        [1, 14, 21, 11, 20, 8, 21, 12, 17, 8, 12, 7, 15, 23, CTRL_NOTHINK_ID],
    ]
    rows = generate_batch(model, prompts, max_new=8)
    assert rows == [generate(model, p, max_new=8) for p in prompts]
    assert [len(c) for c, _ in rows] == [2, 8, 4]


def test_generate_batch_temperature_rows_equal_generate():
    model = split_model()
    prompts = shuffled(RAGGED, seed=2)
    kw = dict(max_new=8, temperature=1.3, seed=9)
    assert generate_batch(model, prompts, **kw) == [generate(model, p, **kw) for p in prompts]


def test_generate_batch_edge_sizes(tiny):
    assert generate_batch(tiny, [], max_new=4) == []
    assert generate_batch(tiny, RAGGED, max_new=0) == [generate(tiny, p, max_new=0) for p in RAGGED]
    assert generate_batch(tiny, [[1, 8], [1, 9, CTRL_THINK_ID]], max_new=0) == [
        ([], Route.NO_THINK),
        ([], Route.THINK),
    ]


def test_generate_batch_rejects_bad_prompts_as_generate_does(tiny):
    with pytest.raises(CapacityError):
        generate_batch(tiny, [TOKENS, list(range(TINY_CFG.max_seq + 1))], max_new=1)
    with pytest.raises(ValueError, match="non-empty"):
        generate_batch(tiny, [TOKENS, []], max_new=1)


def test_generate_batch_expert_positions_equal_one_prompt_sums():
    model = split_model()
    prompts = shuffled(RAGGED, seed=3)
    with ExpertCallRecorder() as batch:
        generate_batch(model, prompts, max_new=8)
    singles = []
    for p in prompts:
        with ExpertCallRecorder() as rec:
            generate(model, p, max_new=8)
        singles.append(rec)
    assert batch.total_positions == sum(rec.total_positions for rec in singles)
    assert batch.routes_used == set().union(*(rec.routes_used for rec in singles)) == {0, 1}
    for route in (0, 1):
        per_route = [sum(n for _, r, n in rec.calls if r == route) for rec in (batch, *singles)]
        assert per_route[0] == sum(per_route[1:])
