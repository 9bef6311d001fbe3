"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import numpy as np
import pytest

from routelock.checkpoint import load_checkpoint, save_checkpoint
from routelock.leakage import evaluate, filter_no_think_candidates
from routelock.model import (
    ExpertCallRecorder,
    ModelConfig,
    ModelParams,
    forward,
    generate,
    route_logit_gap,
)
from routelock.params import (
    ParamVector,
    finite_diff_grad,
    grads_max_relative_error,
    value_and_grad,
)
from routelock.synth import SynthTaskSpec, eval_prompts, generate_synth_dataset
from routelock.theory import (
    conflict_gap,
    dense_optimum,
    equal_curvature_gap,
    fixed_backbone_dominance,
    hessian_block_audit,
    linearization_residual,
    random_expert_direction,
    random_quadratic_pair,
    verify_interference_on_quadratic,
)
from routelock.tokenizer import CTRL_NOTHINK_ID, CTRL_THINK_ID, Route
from routelock.trainer import (
    ChatExample,
    TrainConfig,
    expert_gap,
    mode_loss_grad,
    mode_weights,
    split_by_mode,
    token_level_route_variant,
    train,
    two_mode_loss_fn,
)

GRAD_CFG = ModelConfig(vocab_size=24, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=24)


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def grad_dataset(rng):
    def seq(lo, n):
        return [int(t) for t in rng.integers(lo, GRAD_CFG.vocab_size, size=n)]

    d0 = [
        ChatExample.build([1] + seq(6, 2) + [CTRL_NOTHINK_ID], seq(6, 3) + [2], Route.NO_THINK)
        for _ in range(2)
    ]
    d1 = [
        ChatExample.build([1] + seq(6, 2) + [CTRL_THINK_ID], seq(6, 4) + [2], Route.THINK)
        for _ in range(2)
    ]
    return d0 + d1


def test_c01_gradient_oracle():
    """Reverse-mode vs central differences on the full two-mode loss, 20 seeds."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=seed))
        dataset = grad_dataset(rng)
        loss_fn = two_mode_loss_fn(model, dataset)
        _, rev = value_and_grad(loss_fn, model.params, None)
        fd = finite_diff_grad(loss_fn, model.params, None, step=1e-5)
        worst = max(worst, grads_max_relative_error(rev, fd))
    assert worst <= 1e-5
    report("C1 gradient-oracle", f"max rel err {worst:.2e} <= 1e-5 over 20 seeds")


def test_c02_exact_decoupling():
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=1))
    dataset = grad_dataset(np.random.default_rng(1))
    d0, d1 = split_by_mode(dataset)
    zeros = {}
    for examples, inactive in ((d0, ".expert1."), (d1, ".expert0.")):
        _, grads = mode_loss_grad(model, examples)
        for name in grads.names:
            if inactive in name:
                assert grads[name].tobytes() == np.zeros_like(grads[name]).tobytes()
                zeros[name] = True
    trained, _ = train(model, d0, TrainConfig(learning_rate=0.1, epochs=2, batch_size=2, seed=0))
    for name, arr in model.params.items():
        if ".expert1." in name:
            assert arr.tobytes() == trained.params[name].tobytes()
    report("C2 exact-decoupling", f"{len(zeros)} inactive segments bitwise zero; beta1 untouched by mode-0 training")


def test_c03_gradient_decomposition():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=seed))
        dataset = grad_dataset(rng)
        pi0, pi1 = mode_weights(dataset)
        d0, d1 = split_by_mode(dataset)
        _, g0 = mode_loss_grad(model, d0)
        _, g1 = mode_loss_grad(model, d1)
        _, gfull = mode_loss_grad(model, dataset)
        for name in gfull.names:
            worst = max(worst, float(np.max(np.abs(gfull[name] - (pi0 * g0[name] + pi1 * g1[name])))))
    assert worst <= 1e-12
    report("C3 gradient-decomposition", f"max |full - pi-weighted| {worst:.2e} <= 1e-12, 5 random datasets")


def test_c04_hessian_block_structure():
    worst_cross = 0.0
    for seed in range(5):
        model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=seed))
        dataset = grad_dataset(np.random.default_rng(200 + seed))
        d0, d1 = split_by_mode(dataset)
        rep = hessian_block_audit(model, d0, d1, probes=64, seed=seed)
        worst_cross = max(worst_cross, rep.cross_beta0_beta1)
        assert rep.beta0_beta0 > 1e-4
        assert rep.alpha_beta0 > 1e-4
        assert rep.alpha_beta1 > 1e-4
    assert worst_cross <= 1e-6
    report(
        "C4 hessian-blocks",
        f"cross max {worst_cross:.2e} <= 1e-6 over 64 probes x 5 seeds; controls > 1e-4",
    )


def test_c05_identical_init_route_equivalence():
    dense = ModelParams.init_dense(GRAD_CFG, seed=3)
    model = ModelParams.clone_from_dense(dense)
    tokens = [1, 7, 9, CTRL_NOTHINK_ID, 11, 13]
    gap = route_logit_gap(model, tokens)
    assert np.max(gap) == 0.0
    a = forward(model, tokens, Route.NO_THINK).data
    b = forward(dense, tokens).data
    assert a.tobytes() == b.tobytes()
    report("C5 identical-init", "route gap exactly 0.0; route-0 logits bitwise equal dense source")


def test_c06_specialization_trajectory():
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=4))
    rng = np.random.default_rng(42)
    d0 = [
        ChatExample.build([1, int(rng.integers(6, 24)), CTRL_NOTHINK_ID],
                          [int(rng.integers(6, 24)), 2], Route.NO_THINK)
        for _ in range(5)
    ]
    d1 = [
        ChatExample.build([1, int(rng.integers(6, 24)), CTRL_THINK_ID],
                          [int(rng.integers(6, 24)), int(rng.integers(6, 24)), 2], Route.THINK)
        for _ in range(5)
    ]
    cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=1, seed=5)
    trained, log = train(model, d0 + d1, cfg)
    assert [r.mode for r in log.records] == [0, 1] * 50
    gap = expert_gap(trained.params)
    predicted = log.predicted_expert_gap()
    worst = max(float(np.max(np.abs(gap[s] - predicted[s]))) for s in gap)
    assert worst <= 1e-10
    report("C6 specialization-trajectory", f"100 alternating steps, max coord error {worst:.2e} <= 1e-10")


def test_c07_quadratic_closed_forms():
    worst_stat, worst_eq, worst_ecg = 0.0, 0.0, 0.0
    for seed in range(100):
        m0, m1 = random_quadratic_pair(6, seed)
        bd = dense_optimum(m0, m1)
        g = m0.pi * m0.grad(bd) + m1.pi * m1.grad(bd)
        worst_stat = max(worst_stat, float(np.linalg.norm(g)))
        gap = conflict_gap(m0, m1)
        split_val, dense_val, dom = fixed_backbone_dominance(m0, m1)
        worst_eq = max(worst_eq, abs(gap - (dense_val - split_val)))
        assert gap >= -1e-12
        assert dom
        e0, e1 = random_quadratic_pair(6, 1000 + seed, equal_curvature=True)
        closed = equal_curvature_gap(e0.H, e0.beta_star, e1.beta_star, e0.pi)
        worst_ecg = max(worst_ecg, abs(closed - conflict_gap(e0, e1)))
    assert worst_stat <= 1e-10
    assert worst_eq <= 1e-10
    assert worst_ecg <= 1e-10
    report(
        "C7 quadratic-closed-forms",
        f"stationarity {worst_stat:.1e}, gap-equality {worst_eq:.1e}, equal-curvature {worst_ecg:.1e}, "
        "dominance and gap >= 0 on 100 instances",
    )


def test_c08_interference_criterion():
    checked = 0
    for seed in range(100):
        m0, m1 = random_quadratic_pair(5, seed)
        rng = np.random.default_rng(3000 + seed)
        rep = verify_interference_on_quadratic(m0, m1, rng.normal(size=5), eta=1e-4)
        if abs(rep.first_order) > rep.second_order_bound:
            assert (rep.dense_change > 0) == (rep.first_order > 0)
            checked += 1
        assert rep.split_change <= rep.split_second_order + 1e-15
    assert checked > 50  # the first-order term dominates in most draws
    report("C8 interference", f"sign consistent on {checked}/100 decisive instances; split step bounded")


def test_c09_sequence_vs_token_routing():
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=6))
    example = ChatExample.build([1, 7, CTRL_NOTHINK_ID], [9, 11, 2], Route.NO_THINK)
    n = len(example.tokens) - 1
    tok_loss, tok_grads = token_level_route_variant(model, example, [0] * n)
    seq_loss, seq_grads = mode_loss_grad(model, [example])
    assert abs(tok_loss - seq_loss) <= 1e-12
    worst = max(float(np.max(np.abs(tok_grads[name] - seq_grads[name]))) for name in seq_grads.names)
    assert worst <= 1e-12
    _, mixed = token_level_route_variant(model, example, [i % 2 for i in range(n)])
    assert any(np.any(mixed[n_] != 0) for n_ in mixed.names if ".expert0." in n_)
    assert any(np.any(mixed[n_] != 0) for n_ in mixed.names if ".expert1." in n_)
    report("C9 token-vs-sequence", f"constant-route match {worst:.2e} <= 1e-12; mixed routes hit both experts")


def test_c10_route_lock_generation():
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=7))
    prompt = [1, 7, CTRL_NOTHINK_ID]
    # aim the /think head row along the final hidden state so the first
    # generated token is the think control token
    probe = np.zeros_like(model.params["lm_head"])
    probe[: GRAD_CFG.d_model] = np.eye(GRAD_CFG.d_model)
    pv = ParamVector((n, probe if n == "lm_head" else a) for n, a in model.params.items())
    hidden = forward(model.with_params(pv), prompt, Route.NO_THINK).data[-1, : GRAD_CFG.d_model]
    head = np.zeros_like(model.params["lm_head"])
    head[CTRL_THINK_ID] = hidden
    pv = ParamVector((n, head if n == "lm_head" else a) for n, a in model.params.items())
    model = model.with_params(pv)
    with ExpertCallRecorder() as rec:
        out, route = generate(model, prompt, max_new=6, use_cache=True)
    assert route is Route.NO_THINK
    assert CTRL_THINK_ID in out
    assert all(r == 0 for _, r, _ in rec.calls)
    # one chunk per generated token, each logging one call per layer in layer order; the
    # prefill's last layer runs only at the prompt's final position, every later chunk at one
    layers = model.config.n_layers
    chunks = [rec.calls[i : i + layers] for i in range(0, len(rec.calls), layers)]
    assert len(chunks) == len(out) and len(rec.calls) == len(out) * layers
    assert all([c[0] for c in chunk] == [0, 1] for chunk in chunks)
    assert [c[2] for c in chunks[0]] == [len(prompt), 1]
    assert all(c[2] == 1 for chunk in chunks[1:] for c in chunk)
    report(
        "C10 route-lock",
        f"emitted {out.count(CTRL_THINK_ID)} /think tokens under route 0; "
        f"{model.config.n_layers} expert calls per generated token",
    )


def test_c11_linearization_scaling():
    spec = SynthTaskSpec(modulus=5, n_problems=6, seed=9)
    data, vocab = generate_synth_dataset(spec)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=32)
    model = ModelParams.clone_from_dense(ModelParams.init_dense(cfg, seed=9))
    direction = random_expert_direction(model, cfg.n_layers - 1, seed=10)
    rows = linearization_residual(model, list(data[0].tokens), direction, [1e-1, 5e-2, 2.5e-2])
    rels = [r.rel_residual for r in rows]
    for i in range(len(rels) - 1):
        assert rels[i + 1] / rels[i] <= 0.6
    affine_cfg = ModelConfig(
        vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq=16, final_norm=False
    )
    affine = ModelParams.clone_from_dense(ModelParams.init_dense(affine_cfg, seed=11))
    adir = random_expert_direction(affine, 0, seed=12)
    arows = linearization_residual(affine, [1, 7, 9, 4], adir, [1e-1, 2.5e-2])
    assert all(r.residual <= 1e-10 for r in arows)
    report(
        "C11 linearization",
        f"relative residuals {[f'{r:.1e}' for r in rels]} (each halving cuts >= 40%); "
        f"affine residual {max(r.residual for r in arows):.1e} <= 1e-10",
    )


DEMO_SPEC = SynthTaskSpec(modulus=10, n_problems=1000, seed=11)
DEMO_TRAIN = TrainConfig(
    learning_rate=0.05, epochs=6, batch_size=25, seed=1, optimizer="sgd_momentum", momentum=0.9
)


def test_c12_end_to_end_demo():
    data, vocab = generate_synth_dataset(DEMO_SPEC)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32)
    model = ModelParams.clone_from_dense(ModelParams.init_dense(cfg, seed=0))
    trained, _ = train(model, data, DEMO_TRAIN)

    held0 = eval_prompts(DEMO_SPEC, 100, 777, Route.NO_THINK, vocab)
    held1 = eval_prompts(DEMO_SPEC, 100, 777, Route.THINK, vocab)
    rep0 = evaluate(trained, held0, Route.NO_THINK, vocab, max_new=24)
    rep1 = evaluate(trained, held1, Route.THINK, vocab, max_new=24)

    assert rep1.accuracy >= 0.95
    assert rep0.refl_per_answer <= 0.05
    assert rep0.mean_length <= 0.5 * rep1.mean_length
    assert rep0.accuracy >= 0.90

    report(
        "C12 end-to-end-demo",
        f"routed: think acc {rep1.accuracy:.2f} len {rep1.mean_length:.1f} refl {rep1.refl_per_answer:.2f} | "
        f"no-think acc {rep0.accuracy:.2f} len {rep0.mean_length:.1f} refl {rep0.refl_per_answer:.3f}",
    )


def test_c13_filter_pipeline():
    rng = np.random.default_rng(13)
    candidates, expected = [], []
    for i in range(100):
        candidates.append((f"p{i}", f"answer: {int(rng.integers(1, 9))}", "0"))
        expected.append("correctness")
    for i in range(100):
        candidates.append((f"q{i}", "hmm answer: 0", "0"))
        expected.append("style")
    for i in range(100):
        candidates.append((f"r{i}", "answer: 0", "0"))
        expected.append(None)
    order = rng.permutation(len(candidates))
    shuffled = [candidates[i] for i in order]
    expected = [expected[i] for i in order]
    reasons = filter_no_think_candidates(shuffled, max_len=8)
    kept = [c for c, r in zip(shuffled, reasons) if r is None]
    rejected = [(idx, r) for idx, r in enumerate(reasons) if r is not None]
    assert len(kept) == 100
    assert all(resp == "answer: 0" for _, resp, _ in kept)
    assert len(rejected) == 200
    for idx, reason in rejected:
        assert expected[idx] == reason
    report("C13 filter-pipeline", "kept exactly the 100 clean candidates; all 200 rejection reasons match")


def test_c14_bit_exact_persistence(tmp_path):
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=14))
    tokens = [1, 7, 9, CTRL_NOTHINK_ID, 11]
    before = forward(model, tokens, Route.THINK).data
    p1, p2 = tmp_path / "a.ple", tmp_path / "b.ple"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    after = forward(loaded, tokens, Route.THINK).data
    assert before.tobytes() == after.tobytes()
    report("C14 bit-exact-persistence", "save->load->save identical bytes; logits reproduced bitwise")
