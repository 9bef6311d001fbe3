import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import routelock
from routelock.errors import ConfigError, DataError, NumericError
from routelock.model import ModelConfig, ModelParams, decoder_logits, mlp_dispatch
from routelock.params import ParamVector, as_leaves, value_and_grad
from routelock.synth import SynthTaskSpec, generate_synth_dataset
from routelock.tensor import add, mul, softmax_cross_entropy
from routelock.tokenizer import (
    CTRL_NOTHINK_ID,
    CTRL_THINK_ID,
    Route,
    Vocabulary,
)
from routelock.trainer import (
    ChatExample,
    TrainConfig,
    batch_loss_fn,
    expert_gap,
    example_from_record,
    make_batch,
    mode_loss,
    mode_loss_grad,
    mode_weights,
    read_jsonl,
    sgd_step,
    split_by_mode,
    token_level_route_variant,
    train,
    two_mode_loss_fn,
)

from conftest import TINY_CFG, tiny_dense, tiny_model
from test_acceptance import GRAD_CFG, grad_dataset


def ex(prompt, target, mode):
    return ChatExample.build(prompt, target, mode)


def tiny_dataset():
    e0 = [
        ex([1, 8, CTRL_NOTHINK_ID], [10, 11, 2], Route.NO_THINK),
        ex([1, 9, CTRL_NOTHINK_ID], [12, 2], Route.NO_THINK),
    ]
    e1 = [
        ex([1, 8, CTRL_THINK_ID], [13, 14, 15, 2], Route.THINK),
        ex([1, 9, CTRL_THINK_ID], [16, 17, 2], Route.THINK),
    ]
    return e0 + e1


def test_mode_loss_uniform_logits(tiny):
    pv = ParamVector(
        (n, np.zeros_like(a) if n == "lm_head" else a) for n, a in tiny.params.items()
    )
    uniform = tiny.with_params(pv)
    loss = mode_loss(uniform, tiny_dataset()[:2])
    assert abs(loss - math.log(TINY_CFG.vocab_size)) < 1e-12


@pytest.mark.parametrize("reduction", ["example_mean", "token_sum"])
def test_mode_loss_is_bitwise_the_recorded_loss(tiny, reduction):
    # the unrecorded forward (no leaf requires grad) and the one value_and_grad records give the same bits
    data = tiny_dataset()
    value, grads = mode_loss_grad(tiny, data, reduction)
    assert np.float64(mode_loss(tiny, data, reduction)).tobytes() == np.float64(value).tobytes()
    assert np.any(grads.flatten() != 0.0)


def test_train_stops_at_the_step_whose_gradient_is_non_finite():
    # step 8 of this run makes a non-finite gradient in embed and others from a finite loss;
    # applying it would only surface at step 9, as a non-finite loss with no op to name
    data, vocab = generate_synth_dataset(SynthTaskSpec(10, 300, seed=5))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32,
                      final_norm=False)
    tc = TrainConfig(learning_rate=0.005, batch_size=25, reduction="token_sum", seed=1)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite gradient .* segment 'embed'"):
        train(ModelParams.init_random(cfg, 3), data, tc)


def test_inactive_expert_gradient_bitwise_zero(tiny):
    data = tiny_dataset()
    for mode_examples, inactive in (((data[:2]), ".expert1."), ((data[2:]), ".expert0.")):
        _, grads = mode_loss_grad(tiny, mode_examples)
        for name in grads.names:
            if inactive in name:
                assert grads[name].tobytes() == np.zeros_like(grads[name]).tobytes()


def test_gradient_decomposition(tiny):
    data = tiny_dataset()
    pi0, pi1 = mode_weights(data)
    d0, d1 = split_by_mode(data)
    _, g0 = mode_loss_grad(tiny, d0)
    _, g1 = mode_loss_grad(tiny, d1)
    _, gfull = mode_loss_grad(tiny, data)
    for name in gfull.names:
        combined = pi0 * g0[name] + pi1 * g1[name]
        assert np.max(np.abs(gfull[name] - combined)) <= 1e-12


def test_full_objective_single_mode_equals_mode_loss(tiny):
    # on one mode's examples pi is 1.0, so the objective is that mode's batch loss, bitwise
    for part, route in zip(split_by_mode(tiny_dataset()), (Route.NO_THINK, Route.THINK)):
        for reduction in ("example_mean", "token_sum"):
            loss, grads = mode_loss_grad(tiny, part, reduction)
            ref_loss, ref_grads = value_and_grad(batch_loss_fn(tiny, route, reduction), tiny.params, make_batch(part))
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grads.flatten().tobytes() == ref_grads.flatten().tobytes()


def test_full_objective_balanced_split_is_mean(tiny):
    data = tiny_dataset()
    d0, d1 = split_by_mode(data)
    expected = 0.5 * (mode_loss(tiny, d0) + mode_loss(tiny, d1))
    assert abs(mode_loss(tiny, data) - expected) < 1e-15


def test_full_objective_matches_per_example_average(tiny):
    data = tiny_dataset()
    naive = sum(mode_loss(tiny, [e]) for e in data) / len(data)
    assert abs(mode_loss(tiny, data) - naive) <= 1e-12


def full_position_loss_fn(model, route, reduction):
    """``batch_loss_fn`` as it was: logits at every input position, masked columns included."""

    def loss_fn(leaves, batch):
        logits = decoder_logits(model.config, leaves, batch["inputs"], mlp_dispatch(model, leaves, route))
        return softmax_cross_entropy(logits, batch["labels"], batch["label_mask"], reduction=reduction)

    return loss_fn


# prompts of 3, 5 and 6 tokens padded to one rectangle; the 1-token prompts put loss on column 0
RAGGED = {
    "ragged": [
        ex([1, 8, CTRL_THINK_ID], [13, 14, 15, 2], Route.THINK),
        ex([1, 9, 10, 11, CTRL_THINK_ID], [16, 2], Route.THINK),
        ex([1, 12, 6, 7, 8, CTRL_THINK_ID], [17, 18, 19, 20, 2], Route.THINK),
    ],
    "column-0": [
        ex([CTRL_THINK_ID], [13, 14, 2], Route.THINK),
        ex([1, 9, 10, CTRL_THINK_ID], [16, 2], Route.THINK),
    ],
}


@pytest.mark.parametrize("data", list(RAGGED))
@pytest.mark.parametrize("reduction", ["example_mean", "token_sum"])
@pytest.mark.parametrize("kind", ["dense", "routed"])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_restricted_loss_is_the_full_position_objective(data, reduction, kind, n_layers):
    cfg = ModelConfig(vocab_size=24, d_model=8, n_layers=n_layers, n_heads=2, d_ff=12, max_seq=24)
    model = tiny_dense(seed=4, cfg=cfg) if kind == "dense" else tiny_model(seed=4, cfg=cfg)
    batch = make_batch(RAGGED[data])
    first = int(np.argmax(batch["label_mask"].any(axis=0)))
    assert first == (0 if data == "column-0" else 2)
    loss, grads = value_and_grad(batch_loss_fn(model, Route.THINK, reduction), model.params, batch)
    ref_loss, ref_grads = value_and_grad(full_position_loss_fn(model, Route.THINK, reduction), model.params, batch)
    if first == 0:
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grads.flatten().tobytes() == ref_grads.flatten().tobytes()
    # relative to each entry: an entry that is 0.0 in one must be 0.0 in the other
    got, ref = np.append(grads.flatten(), loss), np.append(ref_grads.flatten(), ref_loss)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(got), np.abs(ref)))


def test_restricted_loss_without_target_positions_raises_cross_entropy_error(tiny):
    # the batch make_batch would build from two prompts without targets, which ChatExample rejects
    batch = {"inputs": np.array([[1, 8], [1, 9]]), "labels": np.array([[8, CTRL_THINK_ID], [9, CTRL_THINK_ID]]),
             "label_mask": np.zeros((2, 2), dtype=bool)}
    assert batch["inputs"].shape == (2, 2) and not batch["label_mask"].any()
    with pytest.raises(ValueError, match="an example has no unmasked positions"):
        batch_loss_fn(tiny, Route.THINK, "example_mean")(as_leaves(tiny.params), batch)


@pytest.mark.parametrize("seed", range(5))
def test_two_mode_loss_fn_matches_reference_bitwise(seed):
    model = tiny_model(seed, GRAD_CFG)
    dataset = grad_dataset(np.random.default_rng(seed))
    # the pi-weighted objective built by hand: both modes present, one graph
    (pi0, pi1), (b0, b1) = mode_weights(dataset), map(make_batch, split_by_mode(dataset))
    f0, f1 = (batch_loss_fn(model, route, "example_mean") for route in (Route.NO_THINK, Route.THINK))

    def reference(leaves, _batch):
        return add(mul(f0(leaves, b0), pi0), mul(f1(leaves, b1), pi1))

    ref_loss, ref_grads = value_and_grad(reference, model.params, None)
    loss, grads = value_and_grad(two_mode_loss_fn(model, dataset), model.params, None)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grads.flatten().tobytes() == ref_grads.flatten().tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_full_objective_equals_weighted_mode_loss_sum_bitwise(seed):
    model = tiny_model(seed, GRAD_CFG)
    dataset = grad_dataset(np.random.default_rng(seed))
    for data in (dataset, dataset[:3], dataset[1:], dataset[:2]):
        for reduction in ("example_mean", "token_sum"):
            pi0, pi1 = mode_weights(data)
            d0, d1 = split_by_mode(data)
            total = 0.0
            if d0:
                total += pi0 * mode_loss(model, d0, reduction)
            if d1:
                total += pi1 * mode_loss(model, d1, reduction)
            value = mode_loss(model, data, reduction)
            assert np.float64(value).tobytes() == np.float64(total).tobytes()


def test_full_objective_empty_dataset(tiny):
    with pytest.raises(ValueError):
        mode_loss(tiny, [])


def test_sgd_step_zero_gradient_bitwise_noop(tiny):
    zeros = tiny.params.zeros_like()
    after = sgd_step(tiny.params, zeros, 0.1)
    for name, arr in tiny.params.items():
        assert arr.tobytes() == after[name].tobytes()


def test_sgd_step_scalar_arithmetic():
    p = ParamVector([("w", np.array([1.0]))])
    g = ParamVector([("w", np.array([2.0]))])
    assert sgd_step(p, g, 0.1)["w"][0] == pytest.approx(0.8, abs=1e-15)


def test_mode0_step_leaves_beta1_bitwise(tiny):
    _, grads = mode_loss_grad(tiny, tiny_dataset()[:2])
    after = sgd_step(tiny.params, grads, 0.05)
    for name, arr in tiny.params.items():
        if ".expert1." in name:
            assert arr.tobytes() == after[name].tobytes()


def test_single_paired_step_identity(tiny):
    data = tiny_dataset()
    cfg = TrainConfig(learning_rate=0.07, epochs=1, batch_size=4, seed=0)
    trained, log = train(tiny, data, cfg)
    assert [r.mode for r in log.records] == [0, 1]
    gap = expert_gap(trained.params)
    predicted = log.predicted_expert_gap()
    for suffix, actual in gap.items():
        assert np.max(np.abs(actual - predicted[suffix])) <= 1e-12


def test_trajectory_identity_many_paired_steps(tiny):
    data = tiny_dataset()
    cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=1, seed=1)
    trained, log = train(tiny, data, cfg)
    assert [r.mode for r in log.records] == [0, 1] * 20
    gap = expert_gap(trained.params)
    predicted = log.predicted_expert_gap()
    for suffix, actual in gap.items():
        assert np.max(np.abs(actual - predicted[suffix])) <= 1e-10


def random_examples(rng, mode, n):
    ctrl = CTRL_THINK_ID if mode is Route.THINK else CTRL_NOTHINK_ID
    return [ex([1, int(rng.integers(6, 24)), ctrl], [int(rng.integers(6, 24)), 2], mode) for _ in range(n)]


@pytest.mark.parametrize(
    "n_no_think, n_think", [(3, 24), (12, 0), (6, 6)], ids=["think-heavy", "no-think-only", "equal"]
)
def test_divergence_identity_holds_after_every_step(n_no_think, n_think):
    # unpaired steps move one expert too: the sum takes every step, so from a clone
    # gap = -lr * sum holds at the end and, in norm, on every logged row
    rng = np.random.default_rng(11)
    data = random_examples(rng, Route.NO_THINK, n_no_think) + random_examples(rng, Route.THINK, n_think)
    cfg = TrainConfig(learning_rate=0.02, epochs=2, batch_size=3, seed=4)
    trained, log = train(tiny_model(seed=2), data, cfg)
    gap, predicted = expert_gap(trained.params), log.predicted_expert_gap()
    assert max(float(np.max(np.abs(gap[s] - predicted[s]))) for s in gap) <= 1e-10
    assert all(abs(r.expert_gap_norm - cfg.learning_rate * r.cum_grad_diff_norm) <= 1e-10 for r in log.records)


def test_training_only_mode0_leaves_beta1_bitwise(tiny):
    d0, _ = split_by_mode(tiny_dataset())
    cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=2, seed=2)
    trained, _ = train(tiny, d0, cfg)
    for name, arr in tiny.params.items():
        if ".expert1." in name:
            assert arr.tobytes() == trained.params[name].tobytes()
        elif ".expert0." in name:
            assert not np.array_equal(arr, trained.params[name])


def test_training_only_mode0_with_momentum_leaves_beta1_bitwise(tiny):
    d0, _ = split_by_mode(tiny_dataset())
    cfg = TrainConfig(
        learning_rate=0.05, epochs=2, batch_size=2, seed=2, optimizer="sgd_momentum"
    )
    trained, _ = train(tiny, d0, cfg)
    for name, arr in tiny.params.items():
        if ".expert1." in name:
            assert arr.tobytes() == trained.params[name].tobytes()


def test_mode_losses_non_increasing_first_epoch(tiny, synth_small):
    _, data, _ = synth_small
    from routelock.model import ModelConfig, ModelParams

    cfg = ModelConfig(vocab_size=40, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=32)
    model = ModelParams.clone_from_dense(ModelParams.init_dense(cfg, seed=1))
    d0, d1 = split_by_mode(data)
    before0, before1 = mode_loss(model, d0), mode_loss(model, d1)
    tc = TrainConfig(learning_rate=0.02, epochs=1, batch_size=4, seed=5)
    trained, _ = train(model, data, tc)
    assert mode_loss(trained, d0) <= before0
    assert mode_loss(trained, d1) <= before1


def test_train_rejects_route_inconsistent_example():
    # a prompt that routes to the other mode fails where the example is built, so neither
    # train nor any loss outside it can move the other expert on it
    with pytest.raises(DataError, match="routes to 1 but is tagged mode 0"):
        ChatExample.build([1, 8, CTRL_THINK_ID], [10, 2], Route.NO_THINK)
    with pytest.raises(DataError, match="routes to 0 but is tagged mode 1"):
        ChatExample.build([1, 8], [10, 2], Route.THINK)


def test_train_seed_determinism(tmp_path, tiny):
    data = tiny_dataset() * 3
    cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=2, seed=9)
    _, log1 = train(tiny, data, cfg)
    _, log2 = train(tiny, data, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log1.to_csv(p1)
    log2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dense_training_logs_full_gradients_and_no_pairs():
    dense, data = tiny_dense(), tiny_dataset() * 2
    cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=2, seed=0)
    trained, log = train(dense, data, cfg)
    assert trained.params.names == dense.params.names
    assert log.cum_grad_diff == {}
    assert [r.mode for r in log.records] == [0, 1, 0, 1] * 2
    assert all(r.expert_gap_norm == 0.0 and r.cum_grad_diff_norm == 0.0 for r in log.records)
    # no experts: the logged norm is the whole first batch's gradient norm, that batch drawn by
    # the no-think pool's seeded shuffle
    first = list(split_by_mode(data)[0])
    np.random.default_rng([cfg.seed, 0]).shuffle(first)
    _, grads = mode_loss_grad(dense, first[:2])
    assert log.records[0].active_grad_norm == grads.norm()


def test_trajectory_csv_column_order(tmp_path, tiny):
    cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=4, seed=0)
    _, log = train(tiny, tiny_dataset(), cfg)
    path = tmp_path / "t.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "step,mode,loss,active_grad_norm,expert_gap_norm,cum_grad_diff_norm"


# --- token-level routing contrast -------------------------------------------


def test_token_level_constant_routes_match_sequence_level(tiny):
    example = tiny_dataset()[0]
    n_inputs = len(example.tokens) - 1
    tok_loss, tok_grads = token_level_route_variant(tiny, example, [0] * n_inputs)
    seq_loss, seq_grads = mode_loss_grad(tiny, [example])
    assert abs(tok_loss - seq_loss) <= 1e-12
    for name in seq_grads.names:
        assert np.max(np.abs(tok_grads[name] - seq_grads[name])) <= 1e-12


def test_token_level_alternating_routes_update_both_experts(tiny):
    example = tiny_dataset()[0]
    n_inputs = len(example.tokens) - 1
    routes = [i % 2 for i in range(n_inputs)]
    _, grads = token_level_route_variant(tiny, example, routes)
    nonzero0 = any(np.any(grads[n] != 0) for n in grads.names if ".expert0." in n)
    nonzero1 = any(np.any(grads[n] != 0) for n in grads.names if ".expert1." in n)
    assert nonzero0 and nonzero1


def test_padding_neutral_for_example_mean(tiny):
    # each example contributes its own token-mean regardless of batch padding
    short = ex([1, 8, CTRL_NOTHINK_ID], [10, 2], Route.NO_THINK)
    long_ = ex([1, 9, 8, 7, CTRL_NOTHINK_ID], [12, 13, 14, 15, 2], Route.NO_THINK)
    batched = mode_loss(tiny, [short, long_])
    individual = 0.5 * (mode_loss(tiny, [short]) + mode_loss(tiny, [long_]))
    assert abs(batched - individual) <= 1e-12


def test_padding_neutral_for_gradients(tiny):
    short = ex([1, 8, CTRL_NOTHINK_ID], [10, 2], Route.NO_THINK)
    long_ = ex([1, 9, 8, 7, CTRL_NOTHINK_ID], [12, 13, 14, 15, 2], Route.NO_THINK)
    _, batched = mode_loss_grad(tiny, [short, long_])
    _, g_short = mode_loss_grad(tiny, [short])
    _, g_long = mode_loss_grad(tiny, [long_])
    for name in batched.names:
        combined = 0.5 * (g_short[name] + g_long[name])
        assert np.max(np.abs(batched[name] - combined)) <= 1e-12


def test_trajectory_identity_holds_under_token_sum(tiny):
    data = tiny_dataset()
    cfg = TrainConfig(learning_rate=0.01, epochs=4, batch_size=1, seed=3, reduction="token_sum")
    trained, log = train(tiny, data, cfg)
    assert [r.mode for r in log.records] == [0, 1] * 8
    gap = expert_gap(trained.params)
    predicted = log.predicted_expert_gap()
    for suffix, actual in gap.items():
        assert np.max(np.abs(actual - predicted[suffix])) <= 1e-10


# --- dataset file loading ----------------------------------------------------


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def test_loader_appends_control_token(tmp_path):
    vocab = Vocabulary(["q", "x"])
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"prompt": "q", "target": "x", "mode": "think", "answer": "x"}])
    pairs = [example_from_record(record, vocab, where) for where, record in read_jsonl(path)]
    assert pairs[0][0].prompt_ids[-1] == CTRL_THINK_ID
    assert pairs[0][0].mode is Route.THINK
    assert [answer for _, answer in pairs] == ["x"]


def test_loader_rejects_route_conflict_with_line(tmp_path):
    vocab = Vocabulary(["q", "x"])
    path = tmp_path / "d.jsonl"
    write_jsonl(
        path,
        [
            {"prompt": "q /think", "target": "x", "mode": "think"},
            {"prompt": "q /think", "target": "x", "mode": "no_think"},
        ],
    )
    with pytest.raises(DataError, match=":2"):
        [example_from_record(record, vocab, where) for where, record in read_jsonl(path)]


def test_loader_rejects_bad_json_with_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"prompt": "q", "target": "x", "mode": "think"}\nnot json\n')
    with pytest.raises(DataError, match=":2"):
        [example_from_record(record, Vocabulary(["q", "x"]), where) for where, record in read_jsonl(path)]


@pytest.mark.parametrize(
    "line, message",
    [
        ('[1, 2]', "must be a JSON object"),
        ('"text"', "must be a JSON object"),
        ('{"prompt": "q", "mode": "think"}', "'target' must be a string"),
        ('{"target": "x", "mode": "think"}', "'prompt' must be a string"),
        ('{"prompt": 3, "target": "x", "mode": "think"}', "'prompt' must be a string"),
        ('{"prompt": "q", "target": "x", "mode": ["think"]}', "mode must be one of"),
    ],
)
def test_loader_rejects_malformed_record_with_line(tmp_path, line, message):
    path = tmp_path / "d.jsonl"
    path.write_text('{"prompt": "q", "target": "x", "mode": "think"}\n\n' + line + "\n")
    with pytest.raises(DataError, match=f":3: .*{message}"):
        [example_from_record(record, Vocabulary(["q", "x"]), where) for where, record in read_jsonl(path)]


def test_loss_mask_covers_target_only():
    e = ChatExample.build([1, 8, CTRL_NOTHINK_ID], [10, 11, 2], Route.NO_THINK)
    assert e.loss_mask == (False, False, False, True, True, True)


def demo_training_tape(route: Route) -> tuple[dict, tuple[int, ...]]:
    """The non-leaf nodes of a demo-size training forward's tape, walked from the loss of its
    first batch of 25 ``route`` examples, and that batch's (B, T) input shape."""
    data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=10, n_problems=40, seed=7))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32)
    model = ModelParams.init_random(cfg, seed=7)
    examples = split_by_mode(data)[int(route)]
    leaves = as_leaves(model.params, requires_grad=True)
    batch = make_batch(examples[:25])
    loss = batch_loss_fn(model, route, "example_mean")(leaves, batch)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node.op != "leaf" and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return nodes, batch["inputs"].shape


def test_demo_training_forward_has_at_most_25_tape_nodes():
    nodes, _ = demo_training_tape(Route.NO_THINK)
    # embedding; per layer: rms_norm, q/k/v/o linear, attention, add, rms_norm, swiglu, add;
    # final rms_norm, lm_head linear, cross-entropy
    assert len(nodes) <= 25, sorted(n.op for n in nodes.values())


def test_demo_training_tape_holds_at_most_11_mib():
    # each vjp keeps only what it cannot cheaply recompute (9.6 MiB); also keeping silu(gate), the
    # hidden product, the normed x and the rotated q/k heads would hold 13.9 MiB
    nodes, shape = demo_training_tape(Route.THINK)
    assert shape == (25, 21)
    buffers: dict[int, int] = {}

    def hold(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            buffers[id(value)] = value.nbytes
        elif callable(value):  # a closure's helper closure holds arrays too
            for cell in getattr(value, "__closure__", None) or ():
                hold(cell.cell_contents)

    for node in nodes.values():
        hold(node.data)
        hold(node._vjp)
    assert sum(buffers.values()) <= 11 * 2**20, sum(buffers.values()) / 2**20


@pytest.mark.parametrize(
    "fields, word",
    [
        ({"learning_rate": True}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"momentum": 1.0}, "momentum"),
        ({"batch_size": 2.0}, "batch_size"),
        ({"seed": -1}, "seed"),
    ],
)
def test_train_config_names_the_bad_field(fields, word):
    with pytest.raises(ConfigError, match=word):
        TrainConfig(**{"learning_rate": 0.1, **fields})


# trains a demo-size model (d_model 64, batch 25) for four momentum steps and prints its parameter digest
THREADS_SCRIPT = """
import hashlib
from routelock.model import ModelConfig, ModelParams, decoder_logits, mlp_dispatch
from routelock.synth import SynthTaskSpec, generate_synth_dataset
from routelock.trainer import TrainConfig, train
data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=10, n_problems=50, seed=0))
cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32)
trained, _ = train(ModelParams.init_random(cfg, seed=0), data,
                   TrainConfig(learning_rate=0.05, batch_size=25, optimizer="sgd_momentum"))
print(hashlib.sha256(trained.params.flatten().tobytes()).hexdigest())
"""


def test_trained_parameters_are_bitwise_equal_under_1_and_2_blas_threads():
    # the thread count is read when BLAS loads, so each count gets its own process. A weight
    # gradient taken as one GEMM over all B*T token rows fails this: its bits change with the count.
    # The claim has a length limit, which this demo (at most 31 positions) stays far below: at width
    # 64 and 4 heads, attention's forward and vjp on 2 sequences have the same bits under 1 and 2
    # threads at every length from 8 to 203 positions, but not at 204-207, 228-231, 252-255, 300 or
    # 390, nor for k's gradient at 260, 310 or 380; two 310-position sequences train to other bits
    src = str(Path(routelock.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        env.update({var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        run = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


# trains 200 demo-size examples once to warm up, then again, and prints the minor page faults of the second run
FAULTS_SCRIPT = """
import resource
from routelock.model import ModelConfig, ModelParams
from routelock.synth import SynthTaskSpec, generate_synth_dataset
from routelock.trainer import TrainConfig, train
data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=10, n_problems=100, seed=0))
cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32)
model, config = ModelParams.init_random(cfg, seed=0), TrainConfig(learning_rate=0.05, batch_size=25)
train(model, data, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(model, data, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc pin needs glibc's mallopt")
def test_pinned_malloc_keeps_training_off_the_page_fault_path():
    # with glibc's dynamic thresholds the heap top is trimmed after a step and faulted back in the
    # next: 2,400-8,000 minor faults, depending on the heap's layout; pinned on import, 21-52
    # (2 vCPU, glibc 2.36, OpenBLAS 0.3.31)
    src = str(Path(routelock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.update({var: "2" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    run = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1000
