import json

import numpy as np
import pytest

from routelock.checkpoint import load_checkpoint, save_checkpoint
from routelock.cli import main
from routelock.model import ModelConfig, ModelParams
from routelock.synth import SynthTaskSpec, synth_records
from routelock.tokenizer import Vocabulary

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
    assert ":4" in capsys.readouterr().err


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


def test_theory_negative_control(tmp_path):
    rc = main(["theory", "--seed", "3", "--checks", "decoupling", "--inject-error",
               "--out", str(tmp_path / "t")])
    assert rc != 0


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
               "--seed", "5", "--out", str(edir), "--max-new", "8"])
    assert rc == 0
    csv_lines = (edir / "leakage_report.csv").read_text().splitlines()
    assert csv_lines[0] == "model,mode,accuracy,mean_length,refl_per_answer"
    assert len(csv_lines) == 3  # header + one row per mode
    # greedy rerun reproduces the report bitwise
    first = (edir / "leakage_report.csv").read_bytes()
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(eval_path), "--mode", "both",
               "--seed", "5", "--out", str(edir), "--max-new", "8"])
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


def test_gradcheck_passes(tmp_path):
    rc = main(["gradcheck", "--seed", "2", "--probes", "16", "--out", str(tmp_path / "g")])
    assert rc == 0


def test_gradcheck_probe_validation(tmp_path, capsys):
    rc = main(["gradcheck", "--seed", "2", "--probes", "0", "--out", str(tmp_path / "g")])
    assert rc != 0


def test_gradcheck_negative_control(tmp_path):
    rc = main(["gradcheck", "--seed", "2", "--probes", "8", "--inject-error",
               "--out", str(tmp_path / "g")])
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
    rc = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(eval_path), "--seed", "5",
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


def test_gradcheck_checkpoint_uses_checkpoint_vocabulary(tmp_path):
    vocab = Vocabulary(["compute", "plus", "mod"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=32)
    ckpt = tmp_path / "small.ple"
    save_checkpoint(ModelParams.init_random(cfg, seed=4), ckpt)
    vocab.save(tmp_path / "small.vocab.txt")
    assert len(vocab) == 9
    rc = main(["gradcheck", "--seed", "2", "--probes", "8", "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "g")])
    assert rc == 0
