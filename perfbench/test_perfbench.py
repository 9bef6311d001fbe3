"""Tests of the benchmark's own machinery: span arithmetic, rebinding, metric lists.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import routelock  # noqa: E402
from routelock import model as rl_model, params, trainer  # noqa: E402

import phases  # noqa: E402
import workload  # noqa: E402
from spans import SpanLog, Tracer, self_times, summarize  # noqa: E402


def hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [12, 13] is a second root
    names = ["root", "a", "b", "c", "d"]
    name = np.array([0, 1, 2, 3, 4], dtype=np.int32)
    parent = np.array([-1, 0, 0, 2, -1], dtype=np.int32)
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 13.0])
    return names, name, parent, start, end


def test_self_time_subtracts_direct_children_only():
    _, _, parent, start, end = hand_built_tree()
    assert self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_summary_groups_spans_by_name():
    _, _, parent, start, end = hand_built_tree()
    name = np.array([0, 1, 1, 2, 0], dtype=np.int32)  # two "a" spans, two "root" spans
    summary = summarize(["root", "a", "c"], name, parent, start, end)
    assert summary["root"] == {"calls": 2, "total_s": 11.0, "self_s": 4.0}
    assert summary["a"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert summary["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_span_log_nests_by_call_order():
    log = SpanLog()
    outer = log.open(log.name_id("outer"))
    inner = log.open(log.name_id("inner"))
    assert log.inside("outer") and log.inside("inner")
    log.close(inner)
    log.close(outer)
    arrays = log.arrays()
    assert arrays["parent"].tolist() == [-1, 0]
    assert np.all(arrays["end"] >= arrays["start"])
    assert not log.inside("outer")


def routelock_bindings():
    mods = {n: m for n, m in sys.modules.items() if n == "routelock" or n.startswith("routelock.")}
    snap = {n: dict(vars(m)) for n, m in mods.items()}
    snap["ParamVector"] = dict(vars(params.ParamVector))
    return snap


def assert_same_bindings(before):
    after = routelock_bindings()
    assert before.keys() == after.keys()
    for mod, attrs in before.items():
        assert attrs.keys() == after[mod].keys(), mod
        for attr, value in attrs.items():
            assert after[mod][attr] is value, f"{mod}.{attr} was not restored"


def tiny_loss():
    model = rl_model.ModelParams.init_random(phases.GRAD_CFG, seed=0)
    dataset = phases.grad_dataset(np.random.default_rng(0))
    return model, phases.two_mode_loss(model, dataset)


def test_tracer_restores_every_binding():
    before = routelock_bindings()
    matmul, value_and_grad = routelock.model.matmul, routelock.trainer.value_and_grad
    model, loss_fn = tiny_loss()
    with Tracer() as tr:
        assert routelock.model.matmul is not matmul
        assert routelock.trainer.value_and_grad is not value_and_grad
        params.value_and_grad(loss_fn, model.params, None)
    assert tr.log.arrays()["start"].size > 0
    assert_same_bindings(before)


def test_tracer_restores_bindings_when_the_body_raises():
    before = routelock_bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert_same_bindings(before)


def test_traced_gradient_is_bitwise_equal_and_attributed_per_op():
    model, loss_fn = tiny_loss()
    loss, grads = params.value_and_grad(loss_fn, model.params, None)
    with Tracer() as tr:
        traced_loss, traced_grads = params.value_and_grad(loss_fn, model.params, None)
    assert traced_loss == loss
    assert traced_grads.flatten().tobytes() == grads.flatten().tobytes()
    s = summarize(tr.log.names, **tr.log.arrays())
    assert s["params.value_and_grad"]["calls"] == 1
    assert s["model.decoder_logits"]["calls"] == 2  # one forward per mode
    assert s["tensor.matmul"]["calls"] == s["tensor.matmul.vjp"]["calls"] > 0
    backward = s["tensor.backward"]
    vjp_total = sum(v["total_s"] for k, v in s.items() if k.endswith(".vjp"))
    assert backward["self_s"] == pytest.approx(backward["total_s"] - vjp_total, abs=1e-9)


def test_oracle_loss_evaluations_are_counted():
    model, loss_fn = tiny_loss()
    subset = model.params.restricted(["final_norm"])
    fixed = params.as_leaves(model.params)
    with Tracer() as tr:
        params.finite_diff_grad(lambda leaves, b: loss_fn({**fixed, **leaves}, b), subset, None)
    s = summarize(tr.log.names, **tr.log.arrays())
    assert s["params.loss_eval"]["calls"] == 2 * subset.size


def test_make_batch_positions_counted_only_under_train():
    data = phases.grad_dataset(np.random.default_rng(1))
    model = rl_model.ModelParams.init_random(phases.GRAD_CFG, seed=1)
    with Tracer() as tr:
        trainer.make_batch(data[:2])
        assert tr.logit_positions == 0
        trainer.train(model, data, trainer.TrainConfig(learning_rate=0.01, batch_size=2))
    assert 0 < tr.label_positions < tr.logit_positions


def test_segment_groups_cover_each_segment_once():
    model = rl_model.ModelParams.init_random(phases.GRAD_CFG, seed=0)
    groups = phases.segment_groups(model.params, phases.FD_GROUP)
    assert [n for g in groups for n in g] == list(model.params.names)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workload.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workload.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(phases.PHASES)
