import dataclasses

import numpy as np
import pytest

import routelock.model
import routelock.theory
from routelock.errors import DegenerateInputError, SingularityError
from routelock.model import ModelConfig, ModelParams, decoder_logits, mlp_dispatch, segment_group
from routelock.params import ParamVector, as_leaves, value_and_grad
from routelock.tensor import add, swiglu
from routelock.theory import (
    CLOSED_FORM_TOL,
    DOMINANCE_TOL,
    FD_STEP,
    INTERFERENCE_ETA,
    INTERFERENCE_SLACK,
    LINEARIZATION_RATIO,
    GradientPair,
    InterferenceReport,
    QuadraticMode,
    audit_subject,
    conflict_gap,
    dense_optimum,
    equal_curvature_gap,
    fixed_backbone_dominance,
    interference_predicate,
    LinearizationRow,
    linearization_residual,
    measure_decoupling,
    measure_dominance,
    measure_grad_vs_fd,
    measure_hessian,
    measure_stationarity,
    random_expert_direction,
    random_quadratic_pair,
    verify_interference_on_quadratic,
    weighted_objective,
)
from routelock.tokenizer import CTRL_NOTHINK_ID, CTRL_THINK_ID, Route
from routelock.trainer import ChatExample, TrainConfig, mode_loss_grad, train, two_mode_loss_fn

from conftest import mode_batches


def gd_minimize(m0, m1, dim, lr=0.02, steps=20000, tol=1e-12):
    """Independent oracle: gradient descent on the weighted surrogate."""
    beta = np.zeros(dim)
    for _ in range(steps):
        g = m0.pi * m0.grad(beta) + m1.pi * m1.grad(beta)
        beta = beta - lr * g
        if np.linalg.norm(g) < tol:
            break
    return beta


def test_dense_optimum_identity_curvature():
    m0 = QuadraticMode(np.eye(2), np.array([1.0, 0.0]), 0.5)
    m1 = QuadraticMode(np.eye(2), np.array([0.0, 1.0]), 0.5)
    assert np.allclose(dense_optimum(m0, m1), [0.5, 0.5], atol=1e-14)


def test_dense_optimum_coincident():
    b = np.array([0.3, -1.2, 2.0])
    m0 = QuadraticMode(np.diag([1.0, 2.0, 3.0]), b, 0.25)
    m1 = QuadraticMode(np.eye(3), b, 0.75)
    assert np.allclose(dense_optimum(m0, m1), b, atol=1e-12)


def test_dense_optimum_diag_vs_gd_oracle():
    m0 = QuadraticMode(np.diag([2.0, 1.0]), np.array([1.0, 0.0]), 0.5)
    m1 = QuadraticMode(np.diag([1.0, 2.0]), np.array([0.0, 1.0]), 0.5)
    closed = dense_optimum(m0, m1)
    oracle = gd_minimize(m0, m1, 2)
    assert np.max(np.abs(closed - oracle)) <= 1e-10
    assert np.allclose(closed, [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_dense_optimum_singular():
    z = np.zeros((2, 2))
    m0 = QuadraticMode(z, np.zeros(2), 0.5)
    m1 = QuadraticMode(z, np.zeros(2), 0.5)
    with pytest.raises(SingularityError, match="eigenvalue"):
        dense_optimum(m0, m1)


def test_dense_optimum_is_stationary_random():
    for seed in range(30):
        measured, bound, _ = measure_stationarity(*random_quadratic_pair(6, seed), seed, 0)
        assert measured <= bound


def test_conflict_gap_coincident_zero():
    b = np.array([1.0, 2.0])
    m0 = QuadraticMode(np.eye(2), b, 0.4)
    m1 = QuadraticMode(np.diag([3.0, 1.0]), b, 0.6)
    assert abs(conflict_gap(m0, m1)) <= 1e-14


def test_conflict_gap_equal_curvature_cross_check():
    # evaluate both surrogate objectives directly: dense at its optimum,
    # split at the per-mode optima; the gap is their difference
    m0 = QuadraticMode(np.eye(2), np.array([1.0, -1.0]), 0.5)
    m1 = QuadraticMode(np.eye(2), np.array([0.0, 0.0]), 0.5)
    bd = dense_optimum(m0, m1)
    dense_val = weighted_objective(m0, m1, bd)
    split_val = m0.pi * m0.loss(m0.beta_star) + m1.pi * m1.loss(m1.beta_star)
    gap = conflict_gap(m0, m1)
    assert abs(gap - (dense_val - split_val)) <= 1e-12
    assert abs(gap - 0.25) <= 1e-12


def test_conflict_gap_nonnegative_random():
    for seed in range(100):
        m0, m1 = random_quadratic_pair(5, seed)
        assert conflict_gap(m0, m1) >= -DOMINANCE_TOL


def test_conflict_gap_equals_dense_minus_split_random():
    for seed in range(100):
        m0, m1 = random_quadratic_pair(5, seed)
        gap = conflict_gap(m0, m1)
        split_val, dense_val = fixed_backbone_dominance(m0, m1)
        assert abs(gap - (dense_val - split_val)) <= CLOSED_FORM_TOL


def test_equal_curvature_gap_degenerate_weights():
    H = np.diag([2.0, 1.0])
    b0, b1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert equal_curvature_gap(H, b0, b1, 0.0) == 0.0
    assert equal_curvature_gap(H, b0, b1, 1.0) == 0.0


def test_equal_curvature_gap_closed_form_value():
    assert abs(equal_curvature_gap(np.eye(2), np.array([1.0, -1.0]), np.zeros(2), 0.5) - 0.25) <= 1e-15


def test_equal_curvature_matches_general_gap():
    for seed in range(100):
        m0, m1 = random_quadratic_pair(5, seed, equal_curvature=True)
        closed = equal_curvature_gap(m0.H, m0.beta_star, m1.beta_star, m0.pi)
        assert abs(closed - conflict_gap(m0, m1)) <= CLOSED_FORM_TOL


def test_gap_scales_quadratically_with_separation():
    H = np.diag([1.0, 3.0])
    b0, b1 = np.array([1.0, -0.5]), np.array([-0.2, 0.8])
    base = equal_curvature_gap(H, b0, b1, 0.3)
    for c in (2.0, 4.0):
        scaled = equal_curvature_gap(H, c * b0, c * b1, 0.3)
        assert abs(scaled - c * c * base) <= 1e-12


def test_dominance_random():
    for seed in range(100):
        measured, bound, _ = measure_dominance(*random_quadratic_pair(4, seed), seed, 0)
        assert measured <= bound


def test_dominance_equality_when_coincident():
    b = np.array([0.5, 0.5])
    m0 = QuadraticMode(np.eye(2), b, 0.5)
    m1 = QuadraticMode(np.eye(2), b, 0.5)
    split_val, dense_val = fixed_backbone_dominance(m0, m1)
    assert abs(split_val - dense_val) <= 1e-14


# --- interference -------------------------------------------------------------


def test_interference_predicate_examples():
    assert interference_predicate(GradientPair([1.0, 0.0], [-3.0, 0.0], 0.5, 0.5))[0] is True
    g = np.array([0.7, -0.4])
    assert interference_predicate(GradientPair(g, g, 0.5, 0.5))[0] is False
    assert interference_predicate(GradientPair([1.0, 0.0], [0.0, 2.0], 0.5, 0.5))[0] is False


def test_interference_predicate_degenerate():
    with pytest.raises(DegenerateInputError):
        interference_predicate(GradientPair([0.0, 0.0], [1.0, 0.0], 1.0, 0.0))


def test_interference_constructed_conflict():
    # mode-1 optimum far on the other side: shared step climbs mode-0 loss
    m0 = QuadraticMode(np.eye(1), np.array([0.0]), 0.2)
    m1 = QuadraticMode(np.eye(1), np.array([10.0]), 0.8)
    rep = verify_interference_on_quadratic(m0, m1, np.array([0.1]), eta=1e-3)
    assert rep.predicate is True
    assert rep.dense_change > 0
    assert rep.sign_consistent


def test_interference_aligned_gradients_descend():
    b = np.array([1.0, 1.0])
    m0 = QuadraticMode(np.eye(2), b, 0.5)
    m1 = QuadraticMode(np.eye(2), b, 0.5)
    rep = verify_interference_on_quadratic(m0, m1, np.array([3.0, -2.0]), eta=1e-3)
    assert rep.predicate is False
    assert rep.dense_change < 0


def test_interference_sign_too_close_to_call():
    # a first-order change inside the second-order bound decides nothing, whatever the exact sign
    close = InterferenceReport(eta=1e-3, first_order=1e-9, second_order_bound=1e-8, dense_change=-1e-8,
                               split_change=0.0, split_second_order=0.0, predicate=False)
    assert close.sign_consistent
    assert not dataclasses.replace(close, second_order_bound=1e-10).sign_consistent


def test_split_step_never_increases_l0_beyond_bound():
    for seed in range(100):
        m0, m1 = random_quadratic_pair(4, seed)
        rng = np.random.default_rng(seed + 500)
        rep = verify_interference_on_quadratic(m0, m1, rng.normal(size=4), eta=INTERFERENCE_ETA)
        assert rep.split_change <= rep.split_second_order + INTERFERENCE_SLACK
        assert rep.sign_consistent


# --- model-level audits -------------------------------------------------------


def test_hessian_block_audit_thresholds(synth_model, synth_small):
    _, data, _ = synth_small
    b0, b1 = mode_batches(data, 3)
    measured, bound, cross_and_controls = measure_hessian(synth_model, b0, b1, 0, probes=24)
    assert measured <= bound and cross_and_controls


def test_grad_vs_fd_objective_reaches_both_experts(monkeypatch):
    # the claim's loss covers both modes, so its sampled coordinates in either expert see a gradient
    model, d0, d1 = audit_subject(0)
    objectives = []

    def recorded(*args, **kwargs):
        objectives.append(two_mode_loss_fn(*args, **kwargs))
        return objectives[-1]

    monkeypatch.setattr(routelock.theory, "two_mode_loss_fn", recorded)
    measure_grad_vs_fd(model, d0, d1, 0, 8)
    _, grads = value_and_grad(objectives[0], model.params, None)
    for expert in (".expert0.", ".expert1."):
        assert any(np.any(grads[n]) for n in grads.names if expert in n)


@pytest.mark.parametrize(
    "route, inactive", [(Route.NO_THINK, ".expert1."), (Route.THINK, ".expert0.")], ids=["no_think", "think"]
)
def test_decoupling_fails_on_any_bit_in_the_inactive_expert(monkeypatch, route, inactive):
    # the claim checks both batches, and a subnormal or a negative zero in one inactive entry breaks it
    model, d0, d1 = audit_subject(0)
    assert measure_decoupling(model, d0, d1, 0) == (0.0, 0.0, True)
    for leak in (5e-324, -0.0):

        def leaking(model, batch):
            value, grads = mode_loss_grad(model, batch)
            if batch[0].mode is route:
                grads[next(n for n in grads.names if inactive in n)].flat[0] = leak
            return value, grads

        monkeypatch.setattr(routelock.theory, "mode_loss_grad", leaking)
        measured, bound, bitwise_zero = measure_decoupling(model, d0, d1, 0)
        assert measured == abs(leak) and bound == 0.0 and not bitwise_zero


def test_linearization_zero_eps(synth_model, synth_small):
    _, data, _ = synth_small
    tokens = list(data[0].tokens)
    direction = random_expert_direction(synth_model, 1, seed=3)
    rows = linearization_residual(synth_model, tokens, direction, [0.0])
    assert rows[0].gap_norm == 0.0 and rows[0].prediction_norm == 0.0


def test_linearization_residual_shrinks_superlinearly(synth_model, synth_small):
    _, data, _ = synth_small
    tokens = list(data[0].tokens)
    direction = random_expert_direction(synth_model, synth_model.config.n_layers - 1, seed=4)
    rows = linearization_residual(
        synth_model, tokens, direction, [1e-1, 5e-2, 2.5e-2, 1.25e-2]
    )
    rels = [r.rel_residual for r in rows]
    assert all(rels[i + 1] < rels[i] for i in range(len(rels) - 1))
    for i in range(len(rels) - 1):
        assert rels[i + 1] / rels[i] <= LINEARIZATION_RATIO


def test_linearization_follows_the_direction_layer(synth_model, synth_small):
    # a first-layer direction on the two-layer model: its gap passes through the second layer
    _, data, _ = synth_small
    direction = random_expert_direction(synth_model, 0, seed=4)
    rows = linearization_residual(synth_model, list(data[0].tokens), direction, [1e-1, 5e-2, 2.5e-2, 1.25e-2])
    assert all(r.gap_norm > 0 for r in rows)
    rels = [r.rel_residual for r in rows]
    assert all(b / a <= LINEARIZATION_RATIO for a, b in zip(rels, rels[1:]))


@pytest.mark.parametrize(
    "names",
    [[], ["embed"], ["layer5.expert1.w_up"], ["layer0.expert1.w_up", "layer1.expert1.w_up"]],
    ids=["empty", "backbone", "no-such-layer", "two-layers"],
)
def test_linearization_direction_must_move_one_layers_experts(synth_model, names):
    shapes = {n: a.shape for n, a in synth_model.params.items()}
    direction = {n: np.ones(shapes.get(n, (1,))) for n in names}
    with pytest.raises(ValueError, match="exactly one layer"):
        linearization_residual(synth_model, [1, 7, 9, 4], direction, [1e-1])


def test_linearization_affine_downstream_exact():
    # one layer, no trailing normalization: after the routed MLP the map to
    # logits is a single matmul, so the linearization is exact
    cfg = ModelConfig(
        vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq=16, final_norm=False
    )
    model = ModelParams.clone_from_dense(ModelParams.init_dense(cfg, seed=2))
    direction = random_expert_direction(model, 0, seed=5)
    rows = linearization_residual(model, [1, 7, 9, 4, 11], direction, [1e-1, 1e-2])
    for row in rows:
        assert row.residual <= 1e-10


def per_run_linearization_rows(model, tokens, direction, epsilons):
    """``linearization_residual`` as one perturbed copy of the model and four unpointed forwards per eps:
    route 1, route 0, and route 0 with the layer's MLP output moved by +FD_STEP and -FD_STEP along f1 - f0."""
    cfg = model.config
    layer = int(next(n for n in direction if segment_group(n) != "alpha").split(".")[0].removeprefix("layer"))
    rows = []
    for eps in epsilons:
        pert = ParamVector((n, a + eps * direction[n] if n in direction else a.copy()) for n, a in model.params.items())
        leaves = as_leaves(pert)
        route0 = mlp_dispatch(model, leaves, 0)
        seen = []

        def run(delta=None):
            def apply(at, h):
                out = route0(at, h)
                if at != layer:
                    return out
                seen.append(h)
                return out if delta is None else add(out, delta)

            return decoder_logits(cfg, leaves, tokens, apply).data

        gap = decoder_logits(cfg, leaves, tokens, mlp_dispatch(model, leaves, 1)).data - run()
        f0, f1 = (swiglu(seen[0], *(leaves[f"layer{layer}.expert{r}.{w}"] for w in ("w_gate", "w_up", "w_down")))
                  .data for r in (0, 1))
        df = f1 - f0
        scale = float(np.sqrt(np.sum(df * df)))
        if scale == 0.0:
            rows.append(LinearizationRow(eps, 0.0, 0.0, 0.0, 0.0))
            continue
        unit = df / scale
        pred = (run(FD_STEP * unit) - run(-FD_STEP * unit)) * (scale / (2.0 * FD_STEP))
        gap_n = float(np.sqrt(np.sum(gap * gap)))
        res = float(np.sqrt(np.sum((gap - pred) ** 2)))
        rows.append(LinearizationRow(eps, gap_n, float(np.sqrt(np.sum(pred * pred))), res,
                                     res / gap_n if gap_n > 0 else 0.0))
    return rows


@pytest.mark.parametrize("apart", [False, True], ids=["clone", "apart"])
@pytest.mark.parametrize("moves", ["expert1", "expert0", "embed+expert1"])
@pytest.mark.parametrize("final_norm", [True, False], ids=["final-norm", "no-final-norm"])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_linearization_runs_two_forwards_per_eps_bitwise_the_per_run_rows(
    monkeypatch, n_layers, final_norm, moves, apart
):
    cfg = ModelConfig(vocab_size=16, d_model=8, n_layers=n_layers, n_heads=2, d_ff=12, max_seq=16,
                      final_norm=final_norm)
    rng = np.random.default_rng(n_layers)
    model = ModelParams.init_random(cfg, seed=n_layers)
    if apart:  # the experts differ, so f1 - f0 is nonzero at eps 0 too
        model = model.with_params(ParamVector((n, a + 0.1 * rng.normal(size=a.shape) if segment_group(n) == "beta1"
                                               else a) for n, a in model.params.items()))
    epsilons = [0.0, 1e-1, 5e-2, 2.5e-2]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return decoder_logits(*args, **kwargs)

    for layer in range(n_layers):
        direction = random_expert_direction(model, layer, seed=layer)
        if moves == "expert0":
            direction = {n.replace(".expert1.", ".expert0."): d for n, d in direction.items()}
        if moves == "embed+expert1":
            direction["embed"] = 0.3 * rng.normal(size=model.params["embed"].shape)
        tokens = [1, 7, 9, 4, 11][: 2 + layer]
        expected = per_run_linearization_rows(model, tokens, direction, epsilons)
        with monkeypatch.context() as patch:
            for module in (routelock.model, routelock.theory):
                patch.setattr(module, "decoder_logits", counted)
            calls.clear()
            rows = linearization_residual(model, tokens, direction, epsilons)
        assert len(calls) == 2 * len(epsilons)
        assert [[float(v).hex() for v in dataclasses.astuple(r)] for r in rows] == [
            [float(v).hex() for v in dataclasses.astuple(r)] for r in expected]
        assert apart or rows[0] == LinearizationRow(0.0, 0.0, 0.0, 0.0, 0.0)
        assert any(r.gap_norm > 0 for r in rows)


# --- route locking under a token-summed objective -----------------------------


def make_dataset(think_len):
    e0, e1 = [], []
    for i in range(4):
        e0.append(ChatExample.build([1, 8 + i, CTRL_NOTHINK_ID], [10, 2], Route.NO_THINK))
        target = [11 + (i + j) % 5 for j in range(think_len)] + [2]
        e1.append(ChatExample.build([1, 8 + i, CTRL_THINK_ID], target, Route.THINK))
    return e0 + e1


def test_beta0_trajectory_invariant_to_think_lengths(tiny):
    # fixed backbone: doubling think-target length must not move beta0 at all
    cfg = TrainConfig(
        learning_rate=0.05,
        epochs=2,
        batch_size=2,
        seed=7,
        reduction="token_sum",
        update_segments="experts_only",
    )
    short, _ = train(tiny, make_dataset(4), cfg)
    long, _ = train(tiny, make_dataset(8), cfg)
    for name, arr in short.params.items():
        if ".expert0." in name:
            assert arr.tobytes() == long.params[name].tobytes()
        if ".expert1." in name:
            assert not np.array_equal(arr, long.params[name])
