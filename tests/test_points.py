"""Point-batched unrecorded forwards on the C1 model, and once at demo size.

One forward over pointed leaves evaluates K parameter points; each point's
loss must equal, bit for bit, a forward at that point alone. The batched
oracles must equal their one-point-per-forward loops bit for bit, and the
Hessian audit's one pass over its four blocks must equal the blocks probed
one at a time. However ``_loss_at`` splits points into chunks, the oracles
return the same bytes, and no chunk of two or more points holds more than
POINTED_BYTES of pointed segment copies.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from routelock import params, theory
from routelock.model import ExpertCallRecorder, ModelConfig, ModelParams, causal_mask, rope_tables
from routelock.params import (
    CHUNK_POINTS,
    POINTED_BYTES,
    _loss_at,
    as_leaves,
    central_differences,
    finite_diff_grad,
    sampled_cross_hessian_max,
)
from routelock.synth import SynthTaskSpec, generate_synth_dataset
from routelock.tensor import Tensor, attention, linear, rotary_tables, swiglu
from routelock.trainer import split_by_mode, two_mode_loss_fn

from test_acceptance import GRAD_CFG, grad_dataset

K = 5


def c1_setup(seed):
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=seed))
    return model, two_mode_loss_fn(model, grad_dataset(np.random.default_rng(seed)))


def loss_value(loss_fn, params):
    return float(loss_fn(as_leaves(params), None).data)


@pytest.mark.parametrize("seed", range(5))
def test_pointed_loss_matches_per_point_bitwise(seed):
    model, loss_fn = c1_setup(seed)
    pv = model.params
    rng = np.random.default_rng(100 + seed)
    groups = model.groups()
    for names in (pv.names, groups["alpha"], groups["beta0"], groups["beta1"]):
        points = {n: pv[n] + 1e-3 * rng.normal(size=(K,) + pv[n].shape) for n in names}
        with ExpertCallRecorder() as batched_rec:
            batched = loss_fn({**as_leaves(pv), **{n: Tensor(a, pointed=True) for n, a in points.items()}}, None)
        with ExpertCallRecorder() as single_rec:
            single = [
                loss_fn({**as_leaves(pv), **{n: Tensor(a[k]) for n, a in points.items()}}, None).data
                for k in range(K)
            ]
        assert batched.pointed and batched.shape == (K,)
        assert batched.data.tobytes() == np.array(single).tobytes()
        assert batched_rec.total_positions == single_rec.total_positions


def test_pointed_loss_matches_per_point_bitwise_at_demo_size():
    # d_model 64 over 50 sequences: one GEMM per sequence would round these projections
    # differently from the unpointed forward's one GEMM over all token rows
    data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=10, n_problems=25, seed=0))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32)
    model = ModelParams.init_random(cfg, seed=0)
    loss_fn, pv = two_mode_loss_fn(model, data), model.params
    rng = np.random.default_rng(7)
    for names in (["embed"], ["layer0.wq"], ["layer1.expert0.w_up", "lm_head"]):
        points = {n: pv[n] + 1e-3 * rng.normal(size=(3,) + pv[n].shape) for n in names}
        batched = loss_fn({**as_leaves(pv), **{n: Tensor(a, pointed=True) for n, a in points.items()}}, None)
        single = [loss_fn({**as_leaves(pv), **{n: Tensor(a[k]) for n, a in points.items()}}, None).data
                  for k in range(3)]
        assert batched.data.tobytes() == np.array(single).tobytes(), names


def test_finite_diff_matches_per_point_loop_bitwise():
    model, loss_fn = c1_setup(0)
    fixed = as_leaves(model.params)
    subset = model.params.restricted(["layer0.ln2", "layer1.expert1.w_down", "final_norm"])

    def subset_loss(leaves, batch):
        return loss_fn({**fixed, **leaves}, batch)

    step = 1e-5
    flat = subset.flatten()
    ref = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = loss_value(subset_loss, subset.from_flat(flat))
        flat[i] = orig - step
        lm = loss_value(subset_loss, subset.from_flat(flat))
        flat[i] = orig
        ref[i] = (lp - lm) / (2.0 * step)
    assert finite_diff_grad(subset_loss, subset, None, step=step).flatten().tobytes() == ref.tobytes()


def test_cross_hessian_matches_per_point_stencil_bitwise():
    model, loss_fn = c1_setup(1)
    pv = model.params
    flat = pv.flatten()
    groups = model.groups()
    step, probes = 1e-3, 6

    def flat_indices(names):
        return np.concatenate([np.arange(*pv.segment_slice(n)) for n in names])

    for names_a, names_b, seed in ((groups["beta0"], groups["beta1"], 0), (groups["beta0"], groups["beta0"], 1)):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for k in range(probes):
            i = int(rng.choice(flat_indices(names_a)))
            j = i if (names_a == names_b and k % 2 == 0) else int(rng.choice(flat_indices(names_b)))

            def at(di, dj):
                f = flat.copy()
                f[i] += di
                f[j] += dj
                return loss_value(loss_fn, pv.from_flat(f))

            entry = (at(step, step) - at(step, -step) - at(-step, step) + at(-step, -step)) / (4.0 * step * step)
            worst = max(worst, abs(entry))
        [got] = sampled_cross_hessian_max(loss_fn, pv, None, [(names_a, names_b, seed)], step=step, probes=probes)
        assert got == worst


def test_loss_at_values_follow_their_points_bitwise():
    # 96 shuffled two-coordinate points over embed, an expert weight and lm_head, so that
    # both chunks mix all three segments; permuting the points permutes their losses
    model, loss_fn = c1_setup(2)
    pv = model.params
    rng = np.random.default_rng(7)
    flat = np.concatenate([np.arange(*pv.segment_slice(n)) for n in ("embed", "layer1.expert0.w_up", "lm_head")])
    coords, deltas = rng.choice(flat, size=(96, 2)), 1e-3 * rng.normal(size=(96, 2))
    values = _loss_at(loss_fn, pv, None, coords, deltas)
    perm = rng.permutation(96)
    assert _loss_at(loss_fn, pv, None, coords[perm], deltas[perm]).tobytes() == values[perm].tobytes()


def audit_setup(seed):
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=seed))
    d0, d1 = split_by_mode(grad_dataset(np.random.default_rng(200 + seed)))
    return model, d0, d1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("probes", [1, 4, 16, 24])
def test_audit_equals_its_blocks_probed_alone_bitwise(probes, seed):
    model, d0, d1 = audit_setup(seed)
    loss_fn = two_mode_loss_fn(model, d0 + d1)
    g = model.groups()
    rep = theory.hessian_block_audit(model, d0, d1, probes=probes, seed=seed)
    for got, block in (
        (rep.cross_beta0_beta1, (g["beta0"], g["beta1"], seed)),
        (rep.alpha_beta0, (g["alpha"], g["beta0"], seed + 1)),
        (rep.alpha_beta1, (g["alpha"], g["beta1"], seed + 2)),
        (rep.beta0_beta0, (g["beta0"], g["beta0"], seed + 3)),
    ):
        [alone] = sampled_cross_hessian_max(loss_fn, model.params, None, [block], step=theory.HESSIAN_STEP, probes=probes)
        assert np.float64(got).tobytes() == np.float64(alone).tobytes()


class PointedCalls:
    """Records (points, bytes of pointed leaves) for each call of the loss_fns it wraps."""

    def __init__(self, monkeypatch=None):
        self.calls = []
        if monkeypatch is not None:  # the Hessian audit builds its loss_fn inside theory
            monkeypatch.setattr(theory, "two_mode_loss_fn", lambda m, data: self.wrap(two_mode_loss_fn(m, data)))

    def wrap(self, loss_fn):
        def recorded(leaves, batch):
            pointed = [t for t in leaves.values() if t.pointed]
            self.calls.append((pointed[0].shape[0] if pointed else 0, sum(t.data.nbytes for t in pointed)))
            return loss_fn(leaves, batch)

        return recorded


@pytest.mark.parametrize("probes, forwards", [(1, 1), (4, 1), (16, 1), (24, 2)])
def test_audit_is_one_batched_pass(monkeypatch, probes, forwards):
    # four blocks x probes x a 4-point stencil, CHUNK_POINTS points per loss_fn call
    # (at C1 size no chunk reaches POINTED_BYTES)
    rec = PointedCalls(monkeypatch)
    theory.hessian_block_audit(*audit_setup(0), probes=probes, seed=0)
    assert len(rec.calls) == forwards == math.ceil(16 * probes / CHUNK_POINTS)


def demo_oracle_setup():
    """A demo-width model (d_model 64) over 4 synthetic examples, split by mode."""
    data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=10, n_problems=2, seed=0))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32)
    return (ModelParams.init_random(cfg, seed=0), *split_by_mode(data))


def oracle_bytes(model, d0, d1, fd_names, coords, probes):
    """finite_diff_grad over ``fd_names``, central_differences at ``coords`` and the Hessian audit, as bytes."""
    loss_fn, pv = theory.two_mode_loss_fn(model, d0 + d1), model.params  # theory's name, as PointedCalls patches it
    fixed = as_leaves(pv)
    fd = finite_diff_grad(lambda leaves, batch: loss_fn({**fixed, **leaves}, batch), pv.restricted(fd_names), None)
    cd = central_differences(loss_fn, pv, None, coords)
    audit = theory.hessian_block_audit(model, d0, d1, probes=probes, seed=0)
    return fd.flatten().tobytes(), cd.tobytes(), np.array(dataclasses.astuple(audit)).tobytes()


@pytest.mark.parametrize(
    "setup, fd_names, n_coords, probes",
    [
        # the 300 central-difference points take more than one chunk at every cap
        (lambda: audit_setup(0), ["layer0.ln2", "final_norm"], 150, 4),
        # the byte bound shrinks the chunks of the random coordinates and of the audit's alpha blocks
        (demo_oracle_setup, ["final_norm"], 48, 2),
    ],
    ids=["c1", "demo"],
)
def test_oracles_do_not_depend_on_the_chunk_rule(monkeypatch, setup, fd_names, n_coords, probes):
    model, d0, d1 = setup()
    coords = np.random.default_rng(3).choice(model.params.size, size=n_coords, replace=False)
    ref = oracle_bytes(model, d0, d1, fd_names, coords, probes)
    for cap, limit in ((1, POINTED_BYTES), (7, POINTED_BYTES), (256, POINTED_BYTES), (256, 1)):
        monkeypatch.setattr(params, "CHUNK_POINTS", cap)
        monkeypatch.setattr(params, "POINTED_BYTES", limit)
        rec = PointedCalls(monkeypatch)
        assert oracle_bytes(model, d0, d1, fd_names, coords, probes) == ref, (cap, limit)
        assert max(points for points, _ in rec.calls) <= (1 if limit == 1 else cap)


def test_demo_width_forwards_hold_at_most_pointed_bytes(monkeypatch):
    # random coordinates over every segment, then the hessian claim's 16 probes (256 points):
    # each chunk of two or more points stays within the bound, and the bound, not the cap, sets them
    model, d0, d1 = demo_oracle_setup()
    rec = PointedCalls(monkeypatch)
    coords = np.random.default_rng(5).choice(model.params.size, size=64, replace=False)
    central_differences(rec.wrap(two_mode_loss_fn(model, d0 + d1)), model.params, None, coords)
    theory.hessian_block_audit(model, d0, d1, probes=16, seed=0)
    points = [p for p, _ in rec.calls]
    assert sum(points) == 2 * 64 + 16 * 16
    assert all(nbytes <= POINTED_BYTES for p, nbytes in rec.calls if p > 1)
    assert len(rec.calls) > 2  # the cap alone would make one forward of each


SEQ, WIDTH, HEADS = 5, 8, 2
COS, SIN = rotary_tables(*rope_tables(0, SEQ, WIDTH // HEADS, 10000.0), HEADS)


def attend(q, k, v):
    return attention(q, k, v, HEADS, COS, SIN, causal_mask(SEQ))


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize(
    "op, shapes",
    [
        (linear, [(SEQ, 3), (4, 3)]),
        (swiglu, [(SEQ, 3), (6, 3), (6, 3), (3, 6)]),
        (attend, [(SEQ, WIDTH)] * 3),
    ],
    ids=["linear", "swiglu", "attention"],
)
def test_fused_op_points_match_per_point_bitwise(op, shapes, lead):
    # every mix of pointed and unpointed operands, e.g. a pointed weight with an unpointed
    # input, or a pointed q with an unpointed k and v, against one point at a time
    rng = np.random.default_rng(41)
    arrays = [rng.normal(size=(K,) + (lead if i == 0 or op is attend else ()) + s) for i, s in enumerate(shapes)]
    for pointed in itertools.product((False, True), repeat=len(arrays)):
        if not any(pointed):
            continue
        out = op(*(Tensor(a, pointed=True) if p else Tensor(a[0]) for a, p in zip(arrays, pointed)))
        assert out.pointed and out.shape[0] == K
        for k in range(K):
            ref = op(*(Tensor(a[k] if p else a[0]) for a, p in zip(arrays, pointed)))
            assert out.data[k].tobytes() == ref.data.tobytes()
