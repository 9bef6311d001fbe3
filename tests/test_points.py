"""Point-batched no-grad forwards on the C1 model.

One forward over pointed leaves evaluates K parameter points; each point's
loss must equal, bit for bit, a forward at that point alone. The batched
oracles must equal their one-point-per-forward loops bit for bit.
"""

import itertools

import numpy as np
import pytest

from routelock.model import DenseModel, ExpertCallRecorder, ModelParams, causal_mask, rope_tables
from routelock.params import as_leaves, finite_diff_grad, sampled_cross_hessian_max
from routelock.tensor import Tensor, attention, linear, no_grad, rotary_tables, swiglu

from test_acceptance import GRAD_CFG, full_loss_fn, grad_dataset

K = 5


def c1_setup(seed):
    model = ModelParams.clone_from_dense(DenseModel.init_random(GRAD_CFG, seed=seed))
    return model, full_loss_fn(model, grad_dataset(np.random.default_rng(seed)))


def loss_value(loss_fn, params):
    with no_grad():
        return float(loss_fn(as_leaves(params), None).data)


@pytest.mark.parametrize("seed", range(5))
def test_pointed_loss_matches_per_point_bitwise(seed):
    model, loss_fn = c1_setup(seed)
    pv = model.params
    rng = np.random.default_rng(100 + seed)
    groups = model.groups()
    for names in (pv.names, groups["alpha"], groups["beta0"], groups["beta1"]):
        points = {n: pv[n] + 1e-3 * rng.normal(size=(K,) + pv[n].shape) for n in names}
        with no_grad():
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
        got = sampled_cross_hessian_max(loss_fn, pv, None, names_a, names_b, step=step, probes=probes, seed=seed)
        assert got == worst


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
    with no_grad():
        for pointed in itertools.product((False, True), repeat=len(arrays)):
            if not any(pointed):
                continue
            out = op(*(Tensor(a, pointed=True) if p else Tensor(a[0]) for a, p in zip(arrays, pointed)))
            assert out.pointed and out.shape[0] == K
            for k in range(K):
                ref = op(*(Tensor(a[k] if p else a[0]) for a, p in zip(arrays, pointed)))
                assert out.data[k].tobytes() == ref.data.tobytes()
