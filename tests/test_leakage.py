import numpy as np
import pytest

from routelock.leakage import (
    LeakageReport,
    ReflectiveLexicon,
    count_reflective,
    extract_answer,
    evaluate,
    filter_no_think_candidates,
    leakage_delta_table,
    reports_to_csv,
    score_completions,
)
from routelock import leakage
from routelock import model as model_module
from routelock.model import check_prompt, generate
from routelock.params import ParamVector
from routelock.synth import SynthTaskSpec, eval_prompts, generate_synth_dataset
from routelock.tokenizer import EOS_ID, Route, decode, encode, resolve_route


def test_count_reflective_basic():
    assert count_reflective("Wait hmm the answer is 4") == 2
    assert count_reflective("") == 0
    assert count_reflective("waiting") == 0


def test_count_reflective_case_insensitive():
    assert count_reflective("WAIT Hmm ALTERNATIVELY") == 3


def test_count_reflective_additive_under_concatenation():
    rng = np.random.default_rng(0)
    words = ["wait", "the", "hmm", "sum", "alternatively", "ok"]
    for _ in range(20):
        a = " ".join(rng.choice(words, size=rng.integers(0, 6)))
        b = " ".join(rng.choice(words, size=rng.integers(0, 6)))
        joined = a + " . " + b
        assert count_reflective(joined) == count_reflective(a) + count_reflective(b)


def test_lexicon_must_be_nonempty():
    with pytest.raises(ValueError):
        ReflectiveLexicon(())


def test_lexicon_from_file(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("Wait\nurk\n")
    lex = ReflectiveLexicon.load(path)
    assert count_reflective("wait urk hmm", lex) == 2


def test_extract_answer():
    assert extract_answer("so the answer: 7") == "7"
    assert extract_answer("no marker here") is None
    assert extract_answer("answer: 3 then answer: 9") == "9"
    assert extract_answer("trailing answer:") is None


def test_evaluate_always_correct_stub(synth_small):
    _, _, vocab = synth_small
    spec = SynthTaskSpec(modulus=5, n_problems=4, seed=1)
    prompts = eval_prompts(spec, 10, 5, Route.NO_THINK, vocab)
    golds = {tuple(ids): gold for ids, gold in prompts}

    def stub(prompt_ids):
        return encode(f"answer: {golds[tuple(prompt_ids)]}", vocab)

    rep = score_completions([(stub(ids), gold) for ids, gold in prompts], Route.NO_THINK, vocab)
    assert rep.accuracy == 1.0
    assert rep.refl_per_answer == 0.0
    assert rep.mean_length == 2.0


def test_evaluate_always_wrong_reflective_stub(synth_small):
    _, _, vocab = synth_small
    spec = SynthTaskSpec(modulus=5, n_problems=4, seed=2)
    prompts = [(ids, gold) for ids, gold in eval_prompts(spec, 20, 6, Route.NO_THINK, vocab) if gold != "0"]

    def stub(_prompt_ids):
        return encode("wait wait answer: 0", vocab)

    rep = score_completions([(stub(ids), gold) for ids, gold in prompts], Route.NO_THINK, vocab)
    assert rep.accuracy == 0.0
    assert rep.refl_per_answer == 2.0


def test_evaluate_invariant_under_expert_swap(synth_model, synth_small):
    # at identical init the route's expert choice contributes nothing:
    # swapping the two experts' parameters leaves every report unchanged
    spec, _, vocab = synth_small
    model = synth_model
    swapped = model.with_params(
        ParamVector(
            (
                n.replace(".expert0.", ".expertX.").replace(".expert1.", ".expert0.").replace(
                    ".expertX.", ".expert1."
                ),
                a.copy(),
            )
            for n, a in model.params.items()
        )
    )
    assert swapped.params.names != model.params.names or all(
        np.array_equal(model.params[n], swapped.params[n]) for n in model.params.names
    )
    for mode in (Route.NO_THINK, Route.THINK):
        prompts = eval_prompts(spec, 12, 9, mode, vocab)
        a = evaluate(model, prompts, mode, vocab, max_new=10)
        b = evaluate(swapped, prompts, mode, vocab, max_new=10)
        assert a == b


def test_evaluate_deterministic_greedy(synth_model, synth_small):
    spec, _, vocab = synth_small
    prompts = eval_prompts(spec, 8, 11, Route.THINK, vocab)
    a = evaluate(synth_model, prompts, Route.THINK, vocab, max_new=8)
    b = evaluate(synth_model, prompts, Route.THINK, vocab, max_new=8)
    assert a == b


# --- filtering ----------------------------------------------------------------


def test_filter_labels_first_failing_predicate():
    candidates = [
        ("q", "answer: 4", "4"),  # kept
        ("q", "answer: 9", "4"),  # wrong answer
        ("q", "wait answer: 4", "4"),  # reflective
        ("q", "a b c d e f g h answer: 4", "4"),  # too long (10 tokens)
        ("q", "wait answer: 9", "4"),  # wrong answer AND reflective: correctness first
    ]
    reasons = filter_no_think_candidates(candidates, max_len=8)
    assert [c for c, r in zip(candidates, reasons) if r is None] == [candidates[0]]
    assert {i: r for i, r in enumerate(reasons) if r is not None} == {
        1: "correctness", 2: "style", 3: "length", 4: "correctness"
    }


def test_filter_partition_property():
    rng = np.random.default_rng(1)
    candidates = []
    for i in range(50):
        good = rng.random() < 0.5
        resp = f"answer: {i}" if good else "hmm answer: 0"
        candidates.append((f"p{i}", resp, str(i)))
    reasons = filter_no_think_candidates(candidates, max_len=8)
    kept = [c for c, r in zip(candidates, reasons) if r is None]
    rejected_idx = {i for i, r in enumerate(reasons) if r is not None}
    assert len(kept) + len(rejected_idx) == len(candidates)
    kept_set = {c for c in kept}
    for i, c in enumerate(candidates):
        assert (c in kept_set) != (i in rejected_idx)
    for prompt, resp, gold in kept:
        assert extract_answer(resp) == gold
        assert len(resp.split()) <= 8
        assert count_reflective(resp) == 0


def test_evaluate_skips_overlong_prompts_with_warning(synth_model, synth_small, capsys):
    spec, _, vocab = synth_small
    prompts = eval_prompts(spec, 3, 21, Route.NO_THINK, vocab)
    too_long = ([5] * (synth_model.config.max_seq + 1), "0")
    rep = evaluate(synth_model, prompts + [too_long], Route.NO_THINK, vocab, max_new=4)
    assert rep.n_prompts == 3
    assert rep.n_skipped == 1
    captured = capsys.readouterr()
    assert "skipping prompt" in captured.err
    assert captured.out == ""


def test_evaluate_checks_each_prompt_once(synth_model, synth_small, monkeypatch, capsys):
    spec, _, vocab = synth_small
    prompts = eval_prompts(spec, 3, 21, Route.NO_THINK, vocab)
    too_long = ([5] * (synth_model.config.max_seq + 1), "0")
    calls = []

    def counting(cfg, prompt_ids):
        calls.append(list(prompt_ids))
        return check_prompt(cfg, prompt_ids)

    for module in (model_module, leakage):
        monkeypatch.setattr(module, "check_prompt", counting, raising=False)
    rep = evaluate(synth_model, prompts + [too_long], Route.NO_THINK, vocab, max_new=4)
    assert calls == [list(p) for p, _ in prompts]
    assert rep.n_skipped == 1
    assert capsys.readouterr().err.count("warning: skipping prompt") == 1


@pytest.mark.parametrize("mode", [Route.NO_THINK, Route.THINK])
def test_evaluate_batches_equal_one_prompt_generate(synth_model, synth_small, monkeypatch, mode):
    # several generate_batch calls, the last one short, score what per-prompt generate scores
    spec, _, vocab = synth_small
    prompts = eval_prompts(spec, 8, 13, mode, vocab)
    monkeypatch.setattr(leakage, "EVAL_BATCH", 3)
    batched = evaluate(synth_model, prompts, mode, vocab, max_new=10)
    one_by_one = score_completions([(generate(synth_model, ids, 10)[0], gold) for ids, gold in prompts], mode, vocab)
    assert batched == one_by_one
    assert batched.n_prompts == 8


def test_evaluate_propagates_non_capacity_errors(synth_model, synth_small):
    spec, _, vocab = synth_small
    prompts = eval_prompts(spec, 2, 21, Route.NO_THINK, vocab)
    with pytest.raises(ValueError, match="temperature sampling requires a seed"):
        evaluate(synth_model, prompts, Route.NO_THINK, vocab, max_new=4, temperature=1.0)


def test_filter_max_len_validation():
    with pytest.raises(ValueError):
        filter_no_think_candidates([], max_len=0)


# --- synthetic task -----------------------------------------------------------


def test_synth_dataset_counts_and_pairing():
    spec = SynthTaskSpec(modulus=7, n_problems=100, seed=5)
    data, vocab = generate_synth_dataset(spec)
    assert len(data) == 200
    assert sum(1 for e in data if e.mode is Route.THINK) == 100
    assert sum(1 for e in data if e.mode is Route.NO_THINK) == 100


def test_synth_targets_reflective_content():
    spec = SynthTaskSpec(modulus=6, n_problems=40, seed=6)
    data, vocab = generate_synth_dataset(spec)
    for e in data:
        text = decode(list(e.target_ids), vocab)
        if e.mode is Route.NO_THINK:
            assert count_reflective(text) == 0
        else:
            assert count_reflective(text) >= 1


def test_synth_route_consistency():
    spec = SynthTaskSpec(modulus=5, n_problems=30, seed=7)
    data, _ = generate_synth_dataset(spec)
    for e in data:
        assert resolve_route(e.prompt_ids) is e.mode


def test_synth_answers_are_correct():
    spec = SynthTaskSpec(modulus=9, n_problems=25, seed=8)
    data, vocab = generate_synth_dataset(spec)
    for e in data:
        text = decode(list(e.prompt_ids), vocab)
        words = text.split()
        a, b, m = int(words[2]), int(words[4]), int(words[6])
        target_text = decode(list(e.target_ids), vocab)
        assert extract_answer(target_text) == str((a + b) % m)


def test_synth_deterministic_under_seed():
    spec = SynthTaskSpec(modulus=5, n_problems=20, seed=9)
    d1, _ = generate_synth_dataset(spec)
    d2, _ = generate_synth_dataset(spec)
    assert d1 == d2


def test_synth_targets_end_with_eos():
    spec = SynthTaskSpec(modulus=5, n_problems=5, seed=10)
    data, _ = generate_synth_dataset(spec)
    assert all(e.target_ids[-1] == EOS_ID for e in data)


def test_synth_matches_jsonl_loader_roundtrip(tmp_path):
    # writing the records to disk and loading them back must produce the
    # same examples the in-memory generator yields
    import json

    from routelock.synth import synth_records
    from routelock.trainer import example_from_record, read_jsonl

    spec = SynthTaskSpec(modulus=5, n_problems=10, seed=12)
    direct, vocab = generate_synth_dataset(spec)
    path = tmp_path / "d.jsonl"
    with open(path, "w") as fh:
        for r in synth_records(spec):
            fh.write(json.dumps(r) + "\n")
    pairs = [example_from_record(record, vocab, where) for where, record in read_jsonl(path)]
    assert [example for example, _ in pairs] == direct
    assert all(answer is not None for _, answer in pairs)


# --- report tables ------------------------------------------------------------


def rep(mode, acc, length, refl):
    return LeakageReport(mode=mode, accuracy=acc, mean_length=length, refl_per_answer=refl)


def test_delta_table_self_baseline_zero():
    reports = {("base", "no_think"): rep(0, 0.6, 703.0, 0.0)}
    csv_text, table = leakage_delta_table(reports, "base")
    assert "+0" in csv_text
    row = csv_text.splitlines()[1].split(",")
    assert float(row[-1]) == 0.0 and float(row[-2]) == 0.0 and float(row[-3]) == 0.0


def test_delta_table_reference_values():
    reports = {
        ("instruct", "no_think"): rep(0, 0.0667, 703.0, 0.0),
        ("hybrid", "no_think"): rep(0, 0.24, 958.0, 0.61),
    }
    csv_text, table = leakage_delta_table(reports, "instruct")
    hybrid_row = csv_text.splitlines()[2].split(",")
    assert float(hybrid_row[-1]) == pytest.approx(0.61)
    assert float(hybrid_row[-2]) == pytest.approx(255.0)


def test_delta_table_missing_baseline():
    with pytest.raises(ValueError):
        leakage_delta_table({("m", "think"): rep(1, 1.0, 1.0, 0.0)}, "nope")


def test_delta_table_row_without_baseline_mode_has_empty_deltas():
    reports = {("model", "think"): rep(1, 0.5, 9.0, 1.0), ("base", "no_think"): rep(0, 0.5, 3.0, 0.0)}
    csv_text, table = leakage_delta_table(reports, "base")
    assert csv_text.splitlines()[1].split(",")[-3:] == ["", "", ""]
    assert table.splitlines()[1].rstrip().endswith("1.00")


def test_reports_csv_columns():
    text = reports_to_csv({("m", "think"): rep(1, 0.5, 10.0, 0.1)})
    assert text.splitlines()[0] == "model,mode,accuracy,mean_length,refl_per_answer"
