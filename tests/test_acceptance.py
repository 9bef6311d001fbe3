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
from routelock.params import ParamVector
from routelock.synth import SynthTaskSpec, eval_prompts, generate_synth_dataset
from routelock.theory import (
    CLAIMS,
    INTERFERENCE_ETA,
    conflict_gap,
    linearization_residual,
    measure_decoupling,
    measure_grad_vs_fd,
    measure_hessian,
    measure_interference,
    measure_linearization,
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
    """Reverse-mode vs central differences on the full two-mode loss at every coordinate, 20 seeds."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=seed))
        d0, d1 = split_by_mode(grad_dataset(rng))
        measured, bound, _ = measure_grad_vs_fd(model, d0, d1, seed, probes=model.params.size)
        assert measured <= bound
        worst = max(worst, measured)
    report("C1 gradient-oracle", f"max rel err {worst:.2e} <= {bound:g} over 20 seeds")


def test_c02_exact_decoupling():
    model = ModelParams.clone_from_dense(ModelParams.init_dense(GRAD_CFG, seed=1))
    d0, d1 = split_by_mode(grad_dataset(np.random.default_rng(1)))
    measured, bound, bitwise_zero = measure_decoupling(model, d0, d1, 1)
    assert measured <= bound and bitwise_zero
    trained, _ = train(model, d0, TrainConfig(learning_rate=0.1, epochs=2, batch_size=2, seed=0))
    for name, arr in model.params.items():
        if ".expert1." in name:
            assert arr.tobytes() == trained.params[name].tobytes()
    report("C2 exact-decoupling", "inactive expert bitwise zero on both modes' batches; beta1 untouched by mode-0 training")


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
        d0, d1 = split_by_mode(grad_dataset(np.random.default_rng(200 + seed)))
        measured, bound, cross_and_controls = measure_hessian(model, d0, d1, seed, probes=64)
        assert cross_and_controls
        worst_cross = max(worst_cross, measured)
    report(
        "C4 hessian-blocks",
        f"cross max {worst_cross:.2e} <= {bound:g} over 64 probes x 5 seeds; controls above their floor",
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
    worst = {}
    for seed in range(100):
        m0, m1 = random_quadratic_pair(6, seed)
        e0, e1 = random_quadratic_pair(6, 1000 + seed, equal_curvature=True)
        for name in ("stationarity", "conflict-gap", "dominance", "equal-curvature"):
            kind, measure = CLAIMS[name]
            measured, bound, _ = measure(*((e0, e1) if kind == "equal-curvature" else (m0, m1)), seed, 0)
            assert measured <= bound
            worst[name] = max(worst.get(name, -np.inf), measured)
        assert conflict_gap(m0, m1) >= -1e-12  # stricter on a negative gap than the conflict-gap bound
    report(
        "C7 quadratic-closed-forms",
        ", ".join(f"{name} {value:.1e}" for name, value in worst.items()) + "; gap >= 0 on 100 instances",
    )


def test_c08_interference_criterion():
    checked = 0
    for seed in range(100):
        m0, m1 = random_quadratic_pair(5, seed)
        # the measure steps from default_rng(2000 + 1000 + seed).normal(size=5)
        _, _, sign_and_split_ok = measure_interference(m0, m1, 2000, seed)
        assert sign_and_split_ok
        beta = np.random.default_rng(3000 + seed).normal(size=5)
        rep = verify_interference_on_quadratic(m0, m1, beta, eta=INTERFERENCE_ETA)
        checked += abs(rep.first_order) > rep.second_order_bound
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
    # the last layer's direction drawn at seed 10, on data[0]'s tokens
    measured, bound, _ = measure_linearization(model, data[:1], [], 10)
    assert 0 < measured <= bound
    affine_cfg = ModelConfig(
        vocab_size=20, d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq=16, final_norm=False
    )
    affine = ModelParams.clone_from_dense(ModelParams.init_dense(affine_cfg, seed=11))
    adir = random_expert_direction(affine, 0, seed=12)
    arows = linearization_residual(affine, [1, 7, 9, 4], adir, [1e-1, 2.5e-2])
    assert all(r.residual <= 1e-10 for r in arows)
    report(
        "C11 linearization",
        f"each halving of eps cuts the relative residual to <= {measured:.2f} of the last (bound {bound}); "
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
    # every file that loads re-saves to its own bytes: flip the low bit of each preamble and header byte,
    # and of every 64th payload byte; each variant is refused or round-trips
    blob = p1.read_bytes()
    hlen, loads = int.from_bytes(blob[8:16], "little"), 0
    for i in [*range(16 + hlen), *range(16 + hlen, len(blob), 64)]:
        p1.write_bytes(variant := blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1 :])
        try:
            save_checkpoint(load_checkpoint(p1), p2)
        except ValueError:
            continue
        assert p2.read_bytes() == variant, i
        loads += 1
    assert loads > (len(blob) - 16 - hlen) // 64  # every payload variant and a few header ones (max_seq, rope_base)
    report("C14 bit-exact-persistence", "save->load->save identical bytes; logits reproduced bitwise; "
           f"{loads} one-bit variants loaded and each re-saved to its own bytes")
