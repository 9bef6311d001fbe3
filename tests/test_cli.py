import json

import numpy as np
import pytest

from routelock import cli
from routelock.checkpoint import load_checkpoint, save_checkpoint
from routelock.cli import main
from routelock.model import ModelConfig, ModelParams
from routelock.synth import SynthTaskSpec, eval_prompts, synth_records, task_vocabulary
from routelock.theory import CLAIMS
from routelock.tokenizer import BOS_ID, SPECIAL_TOKENS, Route, Vocabulary, decode
from routelock.trainer import MODE_NAMES, example_from_record

from conftest import write_into_payload

CFG = {
    "model": {"d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 24, "max_seq": 32},
    "train": {"learning_rate": 0.2, "epochs": 1, "batch_size": 6},
    "seed": 7,
}


def write_dataset(path, n_problems=8, seed=1, modulus=5):
    records = synth_records(SynthTaskSpec(modulus=modulus, n_problems=n_problems, seed=seed))
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return records


@pytest.fixture
def trained(tmp_path):
    data = tmp_path / "data.jsonl"
    write_dataset(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG))
    out = tmp_path / "run"
    ckpt = out / "model.ple"
    rc = main(
        [
            "train",
            "--config",
            str(cfg_path),
            "--dataset",
            str(data),
            "--out",
            str(out),
            "--checkpoint",
            str(ckpt),
        ]
    )
    assert rc == 0
    return tmp_path, out, ckpt


def test_train_checkpoint_roundtrips_bitwise(trained, tmp_path):
    _, out, ckpt = trained
    assert ckpt.exists()
    model = load_checkpoint(ckpt)
    again = tmp_path / "again.ple"
    save_checkpoint(model, again)
    assert ckpt.read_bytes() == again.read_bytes()


def test_train_missing_seed_fails(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    write_dataset(data)
    cfg = {k: v for k, v in CFG.items() if k != "seed"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(cfg_path), "--dataset", str(data), "--out", str(tmp_path / "o")])
    assert rc != 0
    assert "seed" in capsys.readouterr().err


def test_train_rejects_conflicting_mode_naming_line(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    records = write_dataset(tmp_path / "tmp.jsonl")
    records[3] = dict(records[3], prompt=records[3]["prompt"] + " /think", mode="no_think")
    with open(data, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG))
    rc = main(["train", "--config", str(cfg_path), "--dataset", str(data), "--out", str(tmp_path / "o")])
    assert rc != 0
    err = capsys.readouterr().err
    assert ":4" in err
    assert "routes to 1 but is tagged mode 0" in err


def test_train_rerun_identical_trajectory(tmp_path):
    data = tmp_path / "data.jsonl"
    write_dataset(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data), "--out", str(out),
                   "--checkpoint", str(out / "m.ple")])
        assert rc == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_generate_prints_route(trained, capsys):
    _, _, ckpt = trained
    rc = main(["generate", "--checkpoint", str(ckpt), "--prompt", "compute 1 plus 2 mod 5 /no_think",
               "--max-new", "4"])
    assert rc == 0
    assert "route=0" in capsys.readouterr().out


def test_generate_default_route_without_control(trained, capsys):
    _, _, ckpt = trained
    rc = main(["generate", "--checkpoint", str(ckpt), "--prompt", "compute 1 plus 2 mod 5",
               "--max-new", "2"])
    assert rc == 0
    assert "route=0" in capsys.readouterr().out


def test_generate_max_new_zero(trained, capsys):
    _, _, ckpt = trained
    rc = main(["generate", "--checkpoint", str(ckpt), "--prompt", "compute 1 plus 2 mod 5 /think",
               "--max-new", "0"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ""
    assert out[1] == "route=1"


def test_generate_warns_on_unknown_tokens(trained, capsys):
    _, _, ckpt = trained
    rc = main(["generate", "--checkpoint", str(ckpt), "--prompt", "frobnicate 1 /no_think",
               "--max-new", "2"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "unknown tokens" in err and "frobnicate" in err


def test_theory_default_suite_passes(tmp_path):
    rc = main(["theory", "--seed", "3", "--instances", "25", "--out", str(tmp_path / "t")])
    assert rc == 0


def test_theory_record_count_contract(tmp_path):
    out = tmp_path / "t"
    rc = main(["theory", "--seed", "3", "--checks", "conflict-gap", "--instances", "100",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "theory_conflict-gap.jsonl").read_text().splitlines()
    assert len(lines) == 100
    record = json.loads(lines[0])
    assert set(record) == {"check", "inputs_digest", "measured", "threshold", "pass"}


MODEL_AUDIT = ["--checks", "grad-vs-fd,decoupling,hessian"]


@pytest.mark.parametrize(
    "argv, files",
    [
        (["theory", "--seed", "3", "--instances", "5"], 9),
        (["theory", "--seed", "2", "--probes", "8", *MODEL_AUDIT], 3),
    ],
    ids=["theory", "model-audit"],
)
def test_inject_error_fails_every_record(tmp_path, argv, files):
    out = tmp_path / "o"
    assert main([*argv, "--inject-error", "--out", str(out)]) == 1
    paths = sorted(out.glob("theory_*.jsonl"))
    assert len(paths) == files
    records = [json.loads(line) for path in paths for line in path.read_text().splitlines()]
    assert records and all(r["pass"] is False for r in records)


def test_theory_checkpoint_passes_every_claim(tmp_path):
    """Every claim, the linearization included, holds on a trained checkpoint of CI's smoke size."""
    write_dataset(tmp_path / "data.jsonl", n_problems=20)
    cfg = {"model": {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 12, "max_seq": 32},
           "train": {"learning_rate": 0.1, "batch_size": 8}, "seed": 3}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    ckpt = tmp_path / "run" / "model.ple"
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--dataset", str(tmp_path / "data.jsonl"),
                 "--out", str(tmp_path / "run")]) == 0
    # training separated the experts, which the linearization claim assumes equal
    model = load_checkpoint(ckpt)
    assert model.route0_twin().params.flatten().tobytes() != model.params.flatten().tobytes()
    out = tmp_path / "t"
    assert main(["theory", "--seed", "0", "--instances", "5", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    records = {p.stem: [json.loads(line) for line in p.read_text().splitlines()] for p in out.glob("theory_*.jsonl")}
    assert sorted(records) == sorted(f"theory_{c}" for c in CLAIMS)
    assert all(r["pass"] for rows in records.values() for r in rows)


@pytest.mark.parametrize("instances", ["0", "-2"])
def test_theory_instances_validation(tmp_path, capsys, instances):
    out = tmp_path / "t"
    rc = main(["theory", "--seed", "3", "--checks", "stationarity", "--instances", instances,
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --instances must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [[1], True, 1.5], ids=["list", "bool", "float"])
def test_config_seed_must_be_an_integer(tmp_path, capsys, seed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": seed}))
    rc = main(["theory", "--config", str(cfg_path), "--checks", "stationarity", "--instances", "1",
               "--out", str(tmp_path / "t")])
    assert rc == 1
    assert "seed" in one_error_line(capsys)


def test_theory_unknown_check(tmp_path):
    rc = main(["theory", "--seed", "3", "--checks", "nonsense", "--out", str(tmp_path / "t")])
    assert rc != 0


def test_eval_both_modes(trained, capsys):
    tmp_path, out, ckpt = trained
    eval_path = tmp_path / "eval.jsonl"
    records = synth_records(SynthTaskSpec(modulus=5, n_problems=4, seed=42))[::2]
    with open(eval_path, "w") as fh:
        for r in records:
            fh.write(json.dumps({"prompt": r["prompt"], "answer": r["answer"]}) + "\n")
    edir = tmp_path / "ev"
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(eval_path), "--mode", "both",
               "--out", str(edir), "--max-new", "8"])
    assert rc == 0
    csv_lines = (edir / "leakage_report.csv").read_text().splitlines()
    assert csv_lines[0] == "model,mode,accuracy,mean_length,refl_per_answer"
    assert len(csv_lines) == 3  # header + one row per mode
    # greedy rerun reproduces the report bitwise
    first = (edir / "leakage_report.csv").read_bytes()
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(eval_path), "--mode", "both",
               "--out", str(edir), "--max-new", "8"])
    assert rc == 0
    assert (edir / "leakage_report.csv").read_bytes() == first


def test_filter_command(tmp_path, capsys):
    cand = tmp_path / "cand.jsonl"
    gold = tmp_path / "gold.txt"
    rows = [
        {"prompt": "p0", "response": "answer: 0"},
        {"prompt": "p1", "response": "wait answer: 1"},
        {"prompt": "p2", "response": "answer: 7"},
    ]
    with open(cand, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    gold.write_text("0\n1\n2\n")
    out = tmp_path / "f"
    rc = main(["filter", "--candidates", str(cand), "--gold", str(gold), "--max-len", "8",
               "--out", str(out)])
    assert rc == 0
    audit = [json.loads(l) for l in (out / "filter_audit.jsonl").read_text().splitlines()]
    assert len(audit) == 3
    assert [a["verdict"] for a in audit] == ["kept", "rejected", "rejected"]
    assert audit[1]["reason"] == "style"
    assert audit[2]["reason"] == "correctness"
    kept = (out / "kept.jsonl").read_text().splitlines()
    assert len(kept) == 1


def test_filter_parse_error_names_line(tmp_path, capsys):
    cand = tmp_path / "cand.jsonl"
    cand.write_text('{"prompt": "p", "response": "answer: 1"}\ngarbage\n')
    gold = tmp_path / "gold.txt"
    gold.write_text("1\n1\n")
    rc = main(["filter", "--candidates", str(cand), "--gold", str(gold), "--out", str(tmp_path / "f")])
    assert rc != 0
    assert ":2" in capsys.readouterr().err


def test_theory_model_audit_passes(tmp_path):
    rc = main(["theory", "--seed", "2", "--probes", "16", *MODEL_AUDIT, "--out", str(tmp_path / "g")])
    assert rc == 0


def test_theory_probe_validation(tmp_path, capsys):
    rc = main(["theory", "--seed", "2", "--probes", "0", *MODEL_AUDIT, "--out", str(tmp_path / "g")])
    assert rc != 0


def test_commands_echo_config(trained):
    _, out, _ = trained
    resolved = json.loads((out / "train_config.json").read_text())
    assert resolved["seed"] == 7
    assert resolved["train"]["learning_rate"] == 0.2


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def run_train(tmp_path, cfg, records):
    data = tmp_path / "data.jsonl"
    with open(data, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(["train", "--config", str(cfg_path), "--dataset", str(data), "--out", str(tmp_path / "o")])


def test_train_record_missing_target_names_line(tmp_path, capsys):
    records = synth_records(SynthTaskSpec(modulus=5, n_problems=3, seed=1))
    del records[3]["target"]
    assert run_train(tmp_path, CFG, records) == 1
    line = one_error_line(capsys)
    assert "data.jsonl:4" in line and "target" in line


@pytest.mark.parametrize(
    "section, change, word",
    [
        ("train", {"learning_rate": None}, "learning_rate"),
        ("train", {"learnig_rate": 0.1}, "learnig_rate"),
        ("model", {"d_modle": 16}, "d_modle"),
        ("train", {"epochs": 2.5}, "epochs"),
        ("train", {"batch_size": 2.5}, "batch_size"),
        ("model", {"d_model": 8.0}, "d_model"),
    ],
)
def test_train_bad_config_field_is_one_error_line(tmp_path, capsys, section, change, word):
    fields = {k: v for k, v in {**CFG[section], **change}.items() if v is not None}
    cfg = {**CFG, section: fields}
    records = synth_records(SynthTaskSpec(modulus=5, n_problems=3, seed=1))
    assert run_train(tmp_path, cfg, records) == 1
    line = one_error_line(capsys)
    assert section in line and word in line


def test_eval_baseline_rows_do_not_replace_current_rows(trained, capsys):
    tmp_path, out, ckpt = trained
    eval_path = tmp_path / "eval.jsonl"
    records = synth_records(SynthTaskSpec(modulus=5, n_problems=4, seed=42))[::2]
    with open(eval_path, "w") as fh:
        for r in records:
            fh.write(json.dumps({"prompt": r["prompt"], "answer": r["answer"]}) + "\n")
    base = {f"model/{m}": {"mode": i, "accuracy": 0.5, "mean_length": 99.0, "refl_per_answer": 7.0,
                           "n_prompts": 4, "n_skipped": 0} for i, m in enumerate(("no_think", "think"))}
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base))
    edir = tmp_path / "ev"
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(eval_path),
               "--out", str(edir), "--max-new", "8", "--baseline", str(base_path)])
    assert rc == 0
    current = json.loads((edir / "leakage_report.json").read_text())
    rows = {(r[0], r[1]): r for r in (line.split(",") for line in
                                      (edir / "leakage_delta.csv").read_text().splitlines()[1:])}
    assert set(rows) == {(name, mode) for name in ("model", "baseline") for mode in ("no_think", "think")}
    for mode in ("no_think", "think"):
        length = current[f"model/{mode}"]["mean_length"]
        assert float(rows[("model", mode)][3]) == pytest.approx(length, abs=1e-5)
        assert float(rows[("model", mode)][6]) == pytest.approx(length - 99.0, abs=1e-4)
        assert float(rows[("baseline", mode)][3]) == 99.0


def test_eval_scores_an_integer_answer_as_its_string(tmp_path):
    small_checkpoint(tmp_path / "small.ple")
    reports = []
    for answer in (1, "1"):
        (tmp_path / "eval.jsonl").write_text(json.dumps({"prompt": "compute", "answer": answer}) + "\n")
        out = tmp_path / f"ev{answer!r}"
        assert main(["eval", "--checkpoint", str(tmp_path / "small.ple"), "--dataset", str(tmp_path / "eval.jsonl"),
                     "--max-new", "4", "--out", str(out)]) == 0
        reports.append((out / "leakage_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_eval_baseline_deltas_compare_like_modes(tmp_path):
    small_checkpoint(tmp_path / "small.ple")
    (tmp_path / "eval.jsonl").write_text(json.dumps({"prompt": "compute", "answer": "1"}) + "\n")
    base = {f"model/{m}": {"mode": i, "accuracy": 0.0, "mean_length": length, "refl_per_answer": 0.0}
            for i, (m, length) in enumerate((("no_think", 1.0), ("think", 50.0)))}
    (tmp_path / "base.json").write_text(json.dumps(base))
    rc = main(["eval", "--checkpoint", str(tmp_path / "small.ple"), "--dataset", str(tmp_path / "eval.jsonl"),
               "--max-new", "4", "--out", str(tmp_path / "ev"),
               "--baseline", str(tmp_path / "base.json")])
    assert rc == 0
    current = json.loads((tmp_path / "ev" / "leakage_report.json").read_text())
    rows = {(r[0], r[1]): r for r in (line.split(",") for line in
                                      (tmp_path / "ev" / "leakage_delta.csv").read_text().splitlines()[1:])}
    for mode, base_length in (("no_think", 1.0), ("think", 50.0)):
        length = current[f"model/{mode}"]["mean_length"]
        assert float(rows[("model", mode)][6]) == pytest.approx(length - base_length, abs=1e-4)


def test_theory_checkpoint_uses_checkpoint_vocabulary(tmp_path):
    vocab = Vocabulary(["compute", "plus", "mod"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=32)
    ckpt = tmp_path / "small.ple"
    save_checkpoint(ModelParams.init_random(cfg, seed=4), ckpt)
    vocab.save(tmp_path / "small.vocab.txt")
    assert len(vocab) == 9
    rc = main(["theory", "--seed", "2", "--probes", "8", *MODEL_AUDIT, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "g")])
    assert rc == 0


def small_checkpoint(path):
    """An untrained one-layer checkpoint at ``path`` with its vocabulary beside it."""
    vocab = Vocabulary(["compute", "plus", "mod"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq=16)
    save_checkpoint(ModelParams.init_random(cfg, seed=0), path)
    vocab.save(path.with_suffix(".vocab.txt"))


def test_generate_non_finite_checkpoint_is_one_error_line(tmp_path, capsys):
    ckpt = tmp_path / "nan.ple"
    small_checkpoint(ckpt)
    write_into_payload(ckpt, "lm_head", (3, 1), np.nan)
    assert main(["generate", "--checkpoint", str(ckpt), "--prompt", "compute"]) == 1
    line = one_error_line(capsys)
    assert "nan.ple" in line and "non-finite" in line and "lm_head" in line


def first_digests(out) -> dict[str, str]:
    return {p.stem: json.loads(p.read_text().splitlines()[0])["inputs_digest"] for p in out.glob("theory_*.jsonl")}


def test_theory_digests_name_the_model_and_probes(tmp_path):
    ckpt = tmp_path / "small.ple"
    save_checkpoint(ModelParams.init_random(ModelConfig(9, 8, 2, 2, 12, 32), seed=4), ckpt)
    Vocabulary(["compute", "plus", "mod"]).save(tmp_path / "small.vocab.txt")
    runs = {
        "tiny16": ["--probes", "16"],
        "tiny64": ["--probes", "64"],
        "ckpt16": ["--probes", "16", "--checkpoint", str(ckpt)],
    }
    for name, flags in runs.items():
        main(["theory", "--seed", "2", *MODEL_AUDIT, *flags, "--out", str(tmp_path / name)])
    tiny16, tiny64, ckpt16 = (first_digests(tmp_path / name) for name in runs)
    assert len(tiny16) == 3
    # another model at the same seed: every record's inputs differ
    assert all(ckpt16[check] != digest for check, digest in tiny16.items())
    # --probes is an input of the gradient check only
    assert tiny64["theory_grad-vs-fd"] != tiny16["theory_grad-vs-fd"]
    assert {c: d for c, d in tiny64.items() if c != "theory_grad-vs-fd"} == {
        c: d for c, d in tiny16.items() if c != "theory_grad-vs-fd"
    }


def test_generate_truncated_checkpoint_is_one_error_line(tmp_path, capsys):
    ckpt = tmp_path / "cut.ple"
    small_checkpoint(ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:6])
    assert main(["generate", "--checkpoint", str(ckpt), "--prompt", "compute"]) == 1
    line = one_error_line(capsys)
    assert "cut.ple" in line and "truncated" in line


@pytest.mark.parametrize(
    "baseline, word",
    [
        ({}, "no reports"),
        ([1], "object"),
        ({"model/think": 3}, "model/think"),
        ({"model/think": {"mode": 1, "accuracy": 0.5, "mean_length": 2.0, "refl_per_answer": 0.0,
                          "colour": "red"}}, "colour"),
        ({"model/think": {"mode": 1, "accuracy": "high", "mean_length": 2.0, "refl_per_answer": 0.0}},
         "accuracy"),
        ({"model/thinking": {"mode": 1, "accuracy": 0.5, "mean_length": 2.0, "refl_per_answer": 0.0}},
         "'thinking'"),
    ],
)
def test_eval_bad_baseline_is_one_error_line(tmp_path, capsys, baseline, word):
    ckpt = tmp_path / "small.ple"
    small_checkpoint(ckpt)
    data = tmp_path / "eval.jsonl"
    data.write_text(json.dumps({"prompt": "compute", "answer": "1"}) + "\n")
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(baseline))
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
               "--out", str(tmp_path / "ev"), "--max-new", "2", "--baseline", str(base_path)])
    assert rc == 1
    line = one_error_line(capsys)
    assert "base.json" in line and word in line


@pytest.mark.parametrize(
    "cfg, word",
    [
        ([1], "object"),
        ({**CFG, "model": 3}, "model"),
        ({**CFG, "train": ["learning_rate", 0.2]}, "train"),
    ],
)
def test_train_config_not_an_object_is_one_error_line(tmp_path, capsys, cfg, word):
    records = synth_records(SynthTaskSpec(modulus=5, n_problems=3, seed=1))
    assert run_train(tmp_path, cfg, records) == 1
    line = one_error_line(capsys)
    assert word in line and "object" in line


def diverging_train(tmp_path):
    write_dataset(tmp_path / "data.jsonl")
    cfg = {**CFG, "train": {**CFG["train"], "learning_rate": 1e200}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return ["train", "--config", str(tmp_path / "cfg.json"), "--dataset", str(tmp_path / "data.jsonl"),
            "--out", str(tmp_path / "o")]


def train_with(section="train", **fields):
    """train on a small dataset with CFG's ``section`` ("train" or "model") updated by ``fields``."""
    def build(tmp_path):
        write_dataset(tmp_path / "data.jsonl")
        cfg = {**CFG, section: {**CFG[section], **fields}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        return ["train", "--config", str(tmp_path / "cfg.json"), "--dataset", str(tmp_path / "data.jsonl"),
                "--out", str(tmp_path / "o")]
    return build


def train_on_line_2(line):
    """train on a small dataset whose second line is ``line``."""
    def build(tmp_path):
        records = write_dataset(tmp_path / "data.jsonl")
        (tmp_path / "data.jsonl").write_text(json.dumps(records[0]) + "\n" + line + "\n")
        (tmp_path / "cfg.json").write_text(json.dumps(CFG))
        return ["train", "--config", str(tmp_path / "cfg.json"), "--dataset", str(tmp_path / "data.jsonl"),
                "--out", str(tmp_path / "o")]
    return build


def train_over(existing, *flags):
    """train with CFG and ``flags`` ({dir} expanded) where ``{dir}/existing`` already exists: a
    directory when its name ends in "/", else a file."""
    def build(tmp_path):
        write_dataset(tmp_path / "data.jsonl")
        (tmp_path / "cfg.json").write_text(json.dumps(CFG))
        path = tmp_path / existing
        path.mkdir() if existing.endswith("/") else path.write_text("")
        return ["train", "--config", str(tmp_path / "cfg.json"), "--dataset", str(tmp_path / "data.jsonl"),
                *(f.replace("{dir}", str(tmp_path)) for f in flags)]
    return build


def with_file(name, text, *argv):
    """A command given a file ``{dir}/name`` holding ``text`` and a one-record ``{dir}/eval.jsonl``."""
    def build(tmp_path):
        (tmp_path / name).write_text(text)
        (tmp_path / "eval.jsonl").write_text(json.dumps({"prompt": "compute", "answer": "1"}) + "\n")
        return [a.replace("{dir}", str(tmp_path)) for a in argv]
    return build


def with_vocab(words, *argv):
    """A command on small.ple, given a vocabulary file ``other.vocab.txt``: the specials, then ``words``."""
    return with_file("other.vocab.txt", "".join(t + "\n" for t in (*SPECIAL_TOKENS, *words)), *argv)


def generate_on_edited_checkpoint(edit):
    """generate from small.ple after replacing its bytes ``b`` with ``edit(b)``."""
    def build(tmp_path):
        ckpt = tmp_path / "small.ple"
        ckpt.write_bytes(edit(ckpt.read_bytes()))
        return ["generate", "--checkpoint", str(ckpt), "--prompt", "compute"]
    return build


def generate_with(*flags, config=None):
    def build(tmp_path):
        argv = ["generate", "--checkpoint", str(tmp_path / "small.ple"), "--prompt", "compute", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        return argv
    return build


def eval_with(mode, *flags, records=1, prompt="compute", record=None):
    """eval on small.ple over ``records`` records of ``prompt`` whose "mode" is ``mode``, or of ``record``."""
    def build(tmp_path):
        line = json.dumps(record or {"prompt": prompt, "answer": "1", "mode": mode}) + "\n"
        (tmp_path / "eval.jsonl").write_text(line * records)
        return ["eval", "--checkpoint", str(tmp_path / "small.ple"), "--dataset", str(tmp_path / "eval.jsonl"),
                "--max-new", "2", "--out", str(tmp_path / "ev"), *flags]
    return build


def filter_with(*flags, gold="0\n1\n", first="answer: 0"):
    """filter on two candidates, the first responding ``first``, against ``gold``; ``{dir}/empty.txt``
    is an empty file."""
    def build(tmp_path):
        rows = [{"prompt": "p0", "response": first}, {"prompt": "p1", "response": "answer: 1"}]
        (tmp_path / "cand.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        (tmp_path / "gold.txt").write_text(gold)
        (tmp_path / "empty.txt").write_text("\n")
        return ["filter", "--candidates", str(tmp_path / "cand.jsonl"), "--gold", str(tmp_path / "gold.txt"),
                "--out", str(tmp_path / "f"), *(f.replace("{dir}", str(tmp_path)) for f in flags)]
    return build


def with_lexicon(text, build):
    """``build``'s command, given a lexicon file ``{dir}/lex.txt`` holding ``text``."""
    def wrapped(tmp_path):
        (tmp_path / "lex.txt").write_text(text)
        return build(tmp_path)
    return wrapped


def not_utf8(name, build):
    """``build``'s command with ``{dir}/name`` overwritten by 7 bytes that are not UTF-8 (the first is 0xff)."""
    def wrapped(tmp_path):
        argv = build(tmp_path)
        (tmp_path / name).write_bytes(b"\xffabcdef")
        return argv
    return wrapped


LARGE = ["compute", "plus", "mod", "x", "y"]  # 11 tokens; "y" is id 10
OPERATOR_ERRORS = {
    "train-diverges": (diverging_train, ["non-finite loss"]),
    # batches are always shuffled with the seeded generator, and gradients are never clipped
    "train-grad-clip": (train_with(grad_clip=1.0), ['section "train"', "grad_clip"]),
    "train-shuffle": (train_with(shuffle=False), ['section "train"', "shuffle"]),
    "train-momentum-not-a-number": (train_with(optimizer="sgd_momentum", momentum="a"), ["momentum", "'a'"]),
    "train-epochs-zero": (train_with(epochs=0), ["epochs", "got 0"]),
    "train-learning-rate-nan": (train_with(learning_rate=float("nan")), ["learning_rate", "nan"]),
    "train-learning-rate-string": (train_with(learning_rate="0.1"), ["learning_rate", "'0.1'"]),
    "train-rope-base-nan": (train_with("model", rope_base=float("nan")), ["rope_base", "nan"]),
    "train-rope-base-inf": (train_with("model", rope_base=float("inf")), ["rope_base", "inf"]),
    "train-final-norm-string": (train_with("model", final_norm="no"), ["final_norm", "'no'"]),
    "train-optimizer-unknown": (train_with(optimizer="adam"),
                                ['section "train"', "optimizer", "'adam'", "'sgd', 'sgd_momentum'"]),
    "train-reduction-unknown": (train_with(reduction="mean"),
                                ['section "train"', "reduction", "'mean'", "'example_mean', 'token_sum'"]),
    "train-update-segments-unknown": (train_with(update_segments=["all"]),
                                      ['section "train"', "update_segments", "['all']", "'all', 'experts_only'"]),
    # the dataset's vocabulary has 22 tokens
    "train-vocab-size-3": (train_with("model", vocab_size=3), ['section "model"', "vocab_size 3", "22 tokens"]),
    "train-vocab-size-7": (train_with("model", vocab_size=7), ['section "model"', "vocab_size 7", "22 tokens"]),
    "train-vocab-size-100": (train_with("model", vocab_size=100),
                             ['section "model"', "vocab_size 100", "22 tokens"]),
    # 2**55 features: 22 x 2**55 float64 embedding rows are 5.5 EiB, a byte count that fits in int64
    # but not in any address space, so the allocation fails before any memory is touched
    "train-d-model-unallocatable": (train_with("model", d_model=2**55), ["Unable to allocate", "EiB"]),
    # CFG's run seed is 7
    "train-seed-contradicts-run-seed": (train_with(seed=5), ['section "train"', "seed 5", "seed 7"]),
    "train-empty-dataset": (with_file("data.jsonl", "", "train", "--seed", "7", "--dataset", "{dir}/data.jsonl",
                                      "--out", "{dir}/o"), ["data.jsonl", "no records"]),
    "train-out-is-a-file": (train_over("outfile", "--out", "{dir}/outfile", "--checkpoint", "{dir}/elsewhere.ple"),
                            ["outfile", "not a directory"]),
    "train-out-under-a-file": (train_over("afile", "--out", "{dir}/afile/sub", "--checkpoint", "{dir}/elsewhere.ple"),
                               ["afile/sub", "afile is not a directory"]),
    "train-vocabulary-path-is-a-directory": (
        train_over("elsewhere.vocab.txt/", "--out", "{dir}/o", "--checkpoint", "{dir}/elsewhere.ple"),
        ["elsewhere.vocab.txt", "is a directory"]),
    "train-record-a-json-array": (train_on_line_2('["compute", "answer: 1"]'), ["data.jsonl:2", "JSON object"]),
    "train-record-without-target": (train_on_line_2('{"prompt": "compute 1", "mode": "think"}'),
                                    ["data.jsonl:2", "'target'"]),
    "generate-vocab-larger": (with_vocab(LARGE, "generate", "--checkpoint", "{dir}/small.ple", "--prompt",
                                         "compute y", "--vocab", "{dir}/other.vocab.txt"),
                              ["other.vocab.txt", "small.ple", "11", "9"]),
    "generate-vocab-smaller": (with_vocab([], "generate", "--checkpoint", "{dir}/small.ple", "--prompt",
                                          "compute", "--vocab", "{dir}/other.vocab.txt"),
                               ["other.vocab.txt", "small.ple", "6", "9"]),
    "eval-vocab-larger": (with_vocab(LARGE, "eval", "--checkpoint", "{dir}/small.ple", "--dataset",
                                     "{dir}/eval.jsonl", "--out", "{dir}/ev",
                                     "--vocab", "{dir}/other.vocab.txt"),
                          ["other.vocab.txt", "small.ple"]),
    "generate-vocab-duplicate-token": (with_vocab(["compute", "plus", "compute"], "generate", "--checkpoint",
                                                  "{dir}/small.ple", "--prompt", "compute",
                                                  "--vocab", "{dir}/other.vocab.txt"),
                                       ["other.vocab.txt", "duplicate"]),
    "eval-vocab-empty-line": (with_vocab(["compute", "", "plus"], "eval", "--checkpoint", "{dir}/small.ple",
                                         "--dataset", "{dir}/eval.jsonl", "--out", "{dir}/ev",
                                         "--vocab", "{dir}/other.vocab.txt"),
                              ["other.vocab.txt", "invalid token"]),
    "eval-unknown-mode": (eval_with("thinking"), ["eval.jsonl:1", "mode", "'no_think', 'think'"]),
    "eval-mode-not-a-name": (eval_with(7), ["eval.jsonl:1", "mode", "'no_think', 'think'"]),
    "eval-empty-file": (eval_with(None, records=0), ["eval.jsonl", "no prompts", "mode no_think"]),
    "eval-mode-without-prompts": (eval_with("no_think", "--mode", "think"),
                                  ["eval.jsonl", "no prompts", "mode think"]),
    # BOS, 18 words and the mode's control token: 20 tokens on a max_seq 16 checkpoint
    "eval-every-prompt-too-long": (eval_with(None, prompt=" ".join(["compute"] * 18)),
                                   ["eval.jsonl", "mode no_think", "max_seq 16"]),
    "eval-record-without-answer": (eval_with(None, record={"prompt": "compute"}), ["eval.jsonl:1", '"answer"']),
    "eval-prompt-not-a-string": (eval_with(None, record={"prompt": 3, "answer": "1"}),
                                 ["eval.jsonl:1", "'prompt'", "string"]),
    # str() of these would be scored as "None", "True", "['2']", "{'a': 2}" and "2.0", which no completion matches
    "eval-answer-null": (eval_with(None, record={"prompt": "compute", "answer": None}),
                         ["eval.jsonl:1", '"answer"', "None"]),
    "eval-answer-bool": (eval_with(None, record={"prompt": "compute", "answer": True}),
                         ["eval.jsonl:1", '"answer"', "True"]),
    "eval-answer-list": (eval_with(None, record={"prompt": "compute", "answer": ["2"]}),
                         ["eval.jsonl:1", '"answer"', "['2']"]),
    "eval-answer-object": (eval_with(None, record={"prompt": "compute", "answer": {"a": 2}}),
                           ["eval.jsonl:1", '"answer"', "{'a': 2}"]),
    "eval-answer-float": (eval_with(None, record={"prompt": "compute", "answer": 2.0}),
                          ["eval.jsonl:1", '"answer"', "2.0"]),
    "eval-baseline-invalid-json": (with_file("base.json", "{", "eval", "--checkpoint", "{dir}/small.ple",
                                             "--dataset", "{dir}/eval.jsonl", "--out", "{dir}/ev",
                                             "--baseline", "{dir}/base.json"),
                                   ["base.json", "invalid JSON"]),
    "generate-config-invalid-json": (with_file("cfg.json", "{", "generate", "--checkpoint", "{dir}/small.ple",
                                               "--prompt", "compute", "--config", "{dir}/cfg.json"),
                                     ["cfg.json", "invalid JSON"]),
    # the format version is the little-endian uint32 after the 4-byte magic
    "generate-checkpoint-version-2": (
        generate_on_edited_checkpoint(lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:]),
        ["small.ple", "format version 2"]),
    "generate-checkpoint-renamed-segment": (
        generate_on_edited_checkpoint(lambda b: b.replace(b'"lm_head"', b'"lm_hexd"')), ["small.ple", "manifest"]),
    "generate-max-new-negative": (generate_with("--max-new", "-1"), ["max_new", ">= 0"]),
    "theory-vocab-smaller": (with_vocab(["compute"], "theory", "--seed", "2", "--probes", "8",
                                        "--checkpoint", "{dir}/other.ple", "--out", "{dir}/g"),
                             ["other.vocab.txt", "other.ple", "7", "9"]),
    "generate-seed-not-an-integer": (generate_with("--temp", "1.0", config={"seed": "abc"}),
                                     ["seed", "'abc'"]),
    "generate-temperature-zero": (generate_with("--temp", "0", "--seed", "1"), ["temperature", "0.0"]),
    "generate-temperature-negative": (generate_with("--temp", "-1", "--seed", "1"), ["temperature", "-1.0"]),
    "generate-temperature-nan": (generate_with("--temp", "nan", "--seed", "1"), ["temperature", "nan"]),
    "generate-temperature-inf": (generate_with("--temp", "inf", "--seed", "1"), ["temperature", "finite", "inf"]),
    "generate-temperature-overflows": (generate_with("--temp", "1e-320", "--seed", "1"),
                                       ["temperature", "1e-320", "overflow"]),
    # the checkpoint is read and checked even when no model claim runs
    "theory-checkpoint-missing": (lambda d: ["theory", "--seed", "3", "--checks", "stationarity", "--checkpoint",
                                             str(d / "missing.ple"), "--out", str(d / "t")], ["missing.ple"]),
    "theory-unknown-check": (lambda d: ["theory", "--seed", "3", "--checks", "nope", "--out", str(d / "t")],
                             ["'nope'", "stationarity"]),
    "filter-max-len-zero": (filter_with("--max-len", "0"), ["max_len"]),
    "filter-fewer-gold-lines": (filter_with(gold="0\n"), ["gold.txt", "2 candidates", "1 gold"]),
    "filter-empty-lexicon": (filter_with("--lexicon", "{dir}/empty.txt"), ["empty.txt", "nonempty"]),
    "eval-lexicon-marker-with-space": (with_file("lex.txt", "wait\nwait now\n", "eval", "--checkpoint",
                                                 "{dir}/small.ple", "--dataset", "{dir}/eval.jsonl", "--out",
                                                 "{dir}/ev", "--lexicon", "{dir}/lex.txt"),
                                       ["lex.txt", "'wait now'", "token"]),
    "filter-lexicon-marker-with-space": (with_lexicon("wait\nwait now\n", filter_with("--lexicon", "{dir}/lex.txt")),
                                         ["lex.txt", "'wait now'", "token"]),
    "filter-response-not-a-string": (filter_with(first=0), ["cand.jsonl:1", '"response"', "string"]),
    # each text reader names the file it cannot decode
    "train-dataset-not-utf8": (not_utf8("data.jsonl", train_with()), ["data.jsonl", "not UTF-8"]),
    "train-config-not-utf8": (not_utf8("cfg.json", train_with()), ["cfg.json", "not UTF-8"]),
    "generate-vocab-not-utf8": (not_utf8("other.vocab.txt", with_vocab([], "generate", "--checkpoint",
                                                                       "{dir}/small.ple", "--prompt", "compute",
                                                                       "--vocab", "{dir}/other.vocab.txt")),
                                ["other.vocab.txt", "not UTF-8"]),
    "eval-lexicon-not-utf8": (not_utf8("lex.txt", with_file("lex.txt", "", "eval", "--checkpoint", "{dir}/small.ple",
                                                            "--dataset", "{dir}/eval.jsonl", "--out", "{dir}/ev",
                                                            "--lexicon", "{dir}/lex.txt")),
                              ["lex.txt", "not UTF-8"]),
    "filter-gold-not-utf8": (not_utf8("gold.txt", filter_with()), ["gold.txt", "not UTF-8"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", list(OPERATOR_ERRORS))
def test_operator_error_is_one_error_line(tmp_path, capsys, row):
    build, words = OPERATOR_ERRORS[row]
    small_checkpoint(tmp_path / "small.ple")
    small_checkpoint(tmp_path / "other.ple")  # its own vocabulary is replaced by with_vocab's file
    argv = build(tmp_path)
    before = set(tmp_path.rglob("*"))
    rc = main(argv)
    line = one_error_line(capsys)
    assert rc == 1 and all(word in line for word in words), line
    # a failed command writes nothing: not at its --out path, nor a checkpoint or its vocabulary
    assert set(tmp_path.rglob("*")) == before


def test_eval_config_records_lexicon_vocab_and_baseline(tmp_path):
    small_checkpoint(tmp_path / "small.ple")
    (tmp_path / "eval.jsonl").write_text(json.dumps({"prompt": "compute", "answer": "1"}) + "\n")
    (tmp_path / "lex.txt").write_text("wait\n")
    base = {"model/think": {"mode": 1, "accuracy": 0.5, "mean_length": 2.0, "refl_per_answer": 0.0,
                            "n_prompts": 1, "n_skipped": 0}}
    (tmp_path / "base.json").write_text(json.dumps(base))
    inputs = {"lexicon": str(tmp_path / "lex.txt"), "vocab": str(tmp_path / "small.vocab.txt"),
              "baseline": str(tmp_path / "base.json")}
    rc = main(["eval", "--checkpoint", str(tmp_path / "small.ple"), "--dataset", str(tmp_path / "eval.jsonl"),
               "--max-new", "2", "--out", str(tmp_path / "ev"),
               *(arg for name, path in inputs.items() for arg in (f"--{name}", path))])
    assert rc == 0
    resolved = json.loads((tmp_path / "ev" / "eval_config.json").read_text())
    assert {name: resolved.get(name) for name in inputs} == inputs


def synth_checkpoint(path):
    """An untrained one-layer checkpoint at ``path`` over the modulus-5 task vocabulary."""
    vocab = task_vocabulary(SynthTaskSpec(modulus=5))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq=16)
    save_checkpoint(ModelParams.init_random(cfg, seed=0), path)
    vocab.save(path.with_suffix(".vocab.txt"))
    return vocab


def test_generate_encodes_prompt_as_in_training(tmp_path, monkeypatch):
    synth_checkpoint(tmp_path / "m.ple")
    seen, real = [], cli.generate

    def spy(model, ids, **kw):
        seen.append(list(ids))
        return real(model, ids, **kw)

    monkeypatch.setattr(cli, "generate", spy)
    text = "compute 1 plus 2 mod 5 /think"
    assert main(["generate", "--checkpoint", str(tmp_path / "m.ple"), "--prompt", text, "--max-new", "2"]) == 0
    vocab = Vocabulary.load(tmp_path / "m.vocab.txt")
    example, _ = example_from_record({"prompt": text, "target": "answer: 3", "mode": "think"}, vocab)
    assert seen == [list(example.prompt_ids)]
    assert seen[0][0] == BOS_ID


@pytest.mark.parametrize("mode", [Route.NO_THINK, Route.THINK])
def test_train_eval_and_synth_prompts_share_one_encoding_and_eval_reads_once(tmp_path, monkeypatch, mode):
    vocab = synth_checkpoint(tmp_path / "m.ple")
    spec = SynthTaskSpec(modulus=5, n_problems=4, seed=1)
    synth = eval_prompts(spec, 6, 3, mode, vocab)
    texts = [decode(ids[1:-1], vocab) for ids, _ in synth]
    name = {v: k for k, v in MODE_NAMES.items()}[mode]
    train = [example_from_record({"prompt": t, "target": "answer: 1", "mode": name}, vocab)[0].prompt_ids
             for t in texts]
    (tmp_path / "eval.jsonl").write_text("".join(json.dumps({"prompt": t, "answer": g}) + "\n"
                                                 for t, (_, g) in zip(texts, synth)))
    seen, reads = {}, []
    real_evaluate, real_read = cli.evaluate, cli.read_jsonl

    def evaluate_spy(model, prompts, m, *args, **kw):
        seen[m] = prompts
        return real_evaluate(model, prompts, m, *args, **kw)

    def read_spy(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(cli, "evaluate", evaluate_spy)
    monkeypatch.setattr(cli, "read_jsonl", read_spy)
    rc = main(["eval", "--checkpoint", str(tmp_path / "m.ple"), "--dataset", str(tmp_path / "eval.jsonl"),
               "--mode", "both", "--max-new", "2", "--out", str(tmp_path / "ev")])
    assert rc == 0
    assert len(reads) == 1
    assert [list(ids) for ids in train] == [ids for ids, _ in seen[mode]] == [ids for ids, _ in synth]


def test_eval_takes_no_seed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    assert "--seed" not in capsys.readouterr().out
    small_checkpoint(tmp_path / "small.ple")
    argv = eval_with(None)(tmp_path)
    with pytest.raises(SystemExit):
        main([*argv, "--seed", "5"])
    assert main(argv) == 0
    assert "seed" not in json.loads((tmp_path / "ev" / "eval_config.json").read_text())


def test_train_config_echo_reruns_bitwise(trained):
    tmp_path, out, ckpt = trained
    again = tmp_path / "again"
    rc = main(["train", "--config", str(out / "train_config.json"), "--out", str(again),
               "--checkpoint", str(again / "model.ple")])
    assert rc == 0
    assert (again / "model.ple").read_bytes() == ckpt.read_bytes()


def test_filter_takes_no_seed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["filter", "--help"])
    assert "--seed" not in capsys.readouterr().out
    argv = filter_with()(tmp_path)
    assert main(argv) == 0
    assert "seed" not in json.loads((tmp_path / "f" / "filter_config.json").read_text())
