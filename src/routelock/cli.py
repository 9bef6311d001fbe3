"""Operator surface: subcommands wiring the modules into runnable experiments.

Subcommands: train, generate, theory, eval, filter, gradcheck. One JSON
config document drives a run; command-line flags override config fields
(flag > config > built-in default). ``train``, ``theory`` and ``gradcheck``
need a seed, as does temperature sampling in ``generate``; greedy
``generate``, ``eval`` and ``filter`` take none. ``main`` resolves a command's
inputs before the command runs; each command checks its inputs, computes,
and only then writes, so a command that fails writes nothing. Every command
with an output directory echoes its resolved inputs there, so greedy-path
artifacts reproduce bitwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError
from .leakage import (
    LeakageReport,
    ReflectiveLexicon,
    evaluate,
    filter_no_think_candidates,
    leakage_delta_table,
    reports_to_csv,
)
from .model import ModelConfig, ModelParams, generate
from .params import central_differences, max_relative_error, value_and_grad
from .theory import (
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
from .tokenizer import Route, UNK_ID, Vocabulary, decode, encode_prompt
from .trainer import (
    MODE_NAMES,
    TrainConfig,
    example_from_record,
    mode_loss_grad,
    read_jsonl,
    record_fields,
    record_mode,
    split_by_mode,
    train,
    two_mode_loss_fn,
)
from .synth import SynthTaskSpec, generate_synth_dataset


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:12]


def _params_digest(model) -> str:
    """sha256 over every parameter segment's name, shape and bytes."""
    return hashlib.sha256(b"".join(f"{n}{a.shape}".encode() + a.tobytes() for n, a in model.params.items())).hexdigest()


def _read_json(path, error: type[ValueError]):
    """The JSON document at ``path``; invalid JSON raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = _read_json(path, ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: a config must be a JSON object, got {type(config).__name__}")
    return config


def _section(config: dict, section: str) -> dict:
    fields = config.get(section, {})
    if not isinstance(fields, dict):
        raise ConfigError(f"config section \"{section}\" must be a JSON object, got {type(fields).__name__}")
    return fields


def _from_config(cls, section: str, fields: dict):
    """``cls(**fields)``; a missing, unknown or invalid field is a ConfigError naming ``section``."""
    try:
        return cls(**fields)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"config section \"{section}\": {exc}") from exc


def _load_vocab(checkpoint, model, path=None) -> Vocabulary:
    """The vocabulary at ``path``, by default the one saved beside ``checkpoint``; it must fit ``model``."""
    path = path or Path(checkpoint).with_suffix(".vocab.txt")
    vocab = Vocabulary.load(path)
    if len(vocab) != model.config.vocab_size:
        raise DataError(f"{path}: {len(vocab)} tokens, but checkpoint {checkpoint} has vocab_size "
                        f"{model.config.vocab_size}")
    return vocab


# Per command, the inputs a config document may supply and their defaults; the field for
# --out is "report_dir". Each input resolves as its flag, then its config field, then its
# default, and a REQUIRED one must come from the flag or the config.
REQUIRED = object()
CONFIG_INPUTS = {
    "train": {"seed": REQUIRED, "out": "runs/train", "dataset": REQUIRED, "checkpoint": None},
    "generate": {"seed": None, "checkpoint": REQUIRED},
    "theory": {"seed": REQUIRED, "out": "runs/theory"},
    "eval": {"out": "runs/eval", "lexicon": None},
    "filter": {"out": "runs/filter", "lexicon": None},
    "gradcheck": {"seed": REQUIRED, "out": "runs/gradcheck"},
}


def _resolve(args) -> argparse.Namespace:
    """``args`` with every config-backed input resolved and ``args.config`` the loaded document
    (which only ``train`` reads further, for its model and train sections); creates nothing."""
    config = args.config = _load_config(args.config)
    for name, default in CONFIG_INPUTS[args.command].items():
        field = "report_dir" if name == "out" else name
        value = next((v for v in (getattr(args, name), config.get(field)) if v is not None), default)
        if value is REQUIRED:
            raise ConfigError(f"{args.command} needs a {name} (flag --{name} or config field \"{field}\")")
        kind = int if name == "seed" else str
        if value is not None and type(value) is not kind:
            raise ConfigError(f"config field \"{field}\" must be {'an integer' if kind is int else 'a string'}, "
                              f"got {value!r}")
        setattr(args, name, value)
    return args


def _out_dir(args) -> Path:
    """The resolved output directory, created at a command's first write."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_config(args, **derived) -> None:
    """``<command>_config.json``: every resolved input, then what the command derived from them."""
    resolved = {k: v for k, v in vars(args).items() if k not in ("fn", "command", "config")}
    path = _out_dir(args) / f"{args.command}_config.json"
    path.write_text(json.dumps({**resolved, **derived}, indent=2, sort_keys=True) + "\n")
    print(f"resolved config -> {path}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    ckpt_path = Path(args.checkpoint or Path(args.out, "model.ple"))
    vocab_path = ckpt_path.with_suffix(".vocab.txt")
    # each written path's nearest existing self-or-parent is a directory, or a file it writes over
    for path, is_dir in ((Path(args.out), True), (ckpt_path, False), (vocab_path, False)):
        found = next(p for p in (path, *path.parents) if p.exists())
        if found.is_dir() != (is_dir or found != path):
            raise ConfigError(f"cannot write {path}: {found} is {'' if found.is_dir() else 'not '}a directory")
    records = list(read_jsonl(args.dataset))
    if not records:
        raise DataError(f"{args.dataset}: the dataset holds no records")
    vocab = Vocabulary.from_texts(
        text for where, record in records for text in record_fields(record, where)[1:]
    )
    defaults = dict(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=64)
    cfg = _from_config(ModelConfig, "model", {**defaults, **_section(args.config, "model")})
    # a config may repeat the vocabulary's size, as train_config.json does, but not contradict it
    if cfg.vocab_size != len(vocab):
        raise ConfigError(f"config section \"model\": vocab_size {cfg.vocab_size} differs from the "
                          f"{len(vocab)} tokens of {args.dataset}'s vocabulary")
    train_fields = _section(args.config, "train")
    # likewise train.seed may repeat the run's seed, as train_config.json does, but not contradict it
    if train_fields.get("seed", args.seed) != args.seed:
        raise ConfigError(f"config section \"train\": seed {train_fields['seed']!r} differs from the run's "
                          f"seed {args.seed}")
    train_cfg = _from_config(TrainConfig, "train", {**train_fields, "seed": args.seed})
    dataset = [example_from_record(record, vocab, where)[0] for where, record in records]

    model = ModelParams.init_random(cfg, args.seed)

    def on_epoch(epoch: int, l0: float, l1: float) -> None:
        print(f"epoch {epoch}: no_think loss {l0:.6f}  think loss {l1:.6f}")

    # a diverging run overflows on its way to a non-finite loss, which value_and_grad then
    # reports as the run's one error; numpy's warnings along the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        trained, log = train(model, dataset, train_cfg, epoch_callback=on_epoch)

    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(trained, ckpt_path)
    vocab.save(vocab_path)
    log_path = _out_dir(args) / "trajectory.csv"
    log.to_csv(log_path)
    _write_config(args, checkpoint=str(ckpt_path), vocab=str(vocab_path), model=asdict(cfg),
                  train=asdict(train_cfg))
    print(f"checkpoint -> {ckpt_path}")
    print(f"vocabulary -> {vocab_path}")
    print(f"trajectory -> {log_path}")
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    vocab = _load_vocab(args.checkpoint, model, args.vocab)
    prompt_ids = encode_prompt(args.prompt, vocab)
    completion, route = generate(model, prompt_ids, max_new=args.max_new, temperature=args.temp, seed=args.seed)
    if UNK_ID in prompt_ids:
        unknown = [tok for tok in args.prompt.split() if tok not in vocab]
        print(f"warning: unknown tokens mapped to <unk>: {unknown}", file=sys.stderr)
    print(
        f"resolved: checkpoint={args.checkpoint} sampler={'greedy' if args.temp is None else 'temperature'} "
        f"max_new={args.max_new} seed={args.seed}",
        file=sys.stderr,
    )
    print(decode(completion, vocab))
    print(f"route={int(route)}")
    return 0


# ---------------------------------------------------------------------------
# claims: theory and gradcheck
# ---------------------------------------------------------------------------

QUAD_DIM = 8


def _stationarity(m0, m1, seed, i):
    bd = dense_optimum(m0, m1)
    return np.linalg.norm(m0.pi * m0.grad(bd) + m1.pi * m1.grad(bd)), 1e-10, None


def _conflict_gap(m0, m1, seed, i):
    gap = conflict_gap(m0, m1)
    split, dense, _ = fixed_backbone_dominance(m0, m1)
    return max(abs(gap - (dense - split)), -min(gap, 0.0)), 1e-10, None


def _equal_curvature(m0, m1, seed, i):
    closed = equal_curvature_gap(m0.H, m0.beta_star, m1.beta_star, m0.pi)
    return abs(conflict_gap(m0, m1) - closed), 1e-10, None


def _dominance(m0, m1, seed, i):
    split, dense, _ = fixed_backbone_dominance(m0, m1)
    return split - dense, 1e-12, None


def _interference(m0, m1, seed, i):
    beta = np.random.default_rng(seed + 1000 + i).normal(size=QUAD_DIM)
    rep = verify_interference_on_quadratic(m0, m1, beta, eta=1e-4)
    ok = rep.sign_consistent and rep.split_change <= rep.split_second_order + 1e-15
    return rep.dense_change - rep.first_order, rep.second_order_bound, ok


def _grad_vs_fd(model, d0, d1, seed, probes):
    """Reverse mode against central differences on ``probes`` sampled coordinates."""
    loss_fn = two_mode_loss_fn(model, d0[:4])
    _, grads = value_and_grad(loss_fn, model.params, None)
    size = model.params.size
    coords = np.random.default_rng(seed).choice(size, size=min(probes, size), replace=False)
    fd = central_differences(loss_fn, model.params, None, coords, step=1e-5)
    return max_relative_error(grads.flatten()[coords], fd), 1e-5, None


def _decoupling(model, d0, d1, seed, probes):
    """The inactive (think) expert's gradient on a no-think batch is exactly zero."""
    _, grads = mode_loss_grad(model, d0[:4])
    worst = max(float(np.max(np.abs(grads[n]))) for n in grads.names if ".expert1." in n)
    return worst, 0.0, None


def _hessian(model, d0, d1, seed, probes):
    """The cross-expert curvature vanishes; the alpha-expert and within-expert controls do not."""
    rep = hessian_block_audit(model, d0[:4], d1[:4], probes=16, seed=seed)
    ok = rep.cross_beta0_beta1 <= 1e-6 and rep.beta0_beta0 > 1e-4 and rep.alpha_beta0 > 1e-4
    return rep.cross_beta0_beta1, 1e-6, ok


def _linearization(model, d0, d1, seed, probes):
    direction = random_expert_direction(model, model.config.n_layers - 1, seed)
    rows = linearization_residual(model, list(d0[0].tokens), direction, [1e-1, 5e-2, 2.5e-2])
    ratios = [b.rel_residual / a.rel_residual for a, b in zip(rows, rows[1:]) if a.rel_residual > 0]
    return max(ratios) if ratios else 0.0, 0.6, None


# Each claim: (subject, measure). A measure returns (measured, threshold, ok), where
# ok None means measured <= threshold. Quadratic measures take (m0, m1, seed, i) and
# run once per random instance, drawn with equal curvature for "equal-curvature";
# model measures take the audit setup (model, d0, d1, seed, probes) and run once.
CLAIMS = {
    "stationarity": ("quadratic", _stationarity),
    "conflict-gap": ("quadratic", _conflict_gap),
    "equal-curvature": ("equal-curvature", _equal_curvature),
    "dominance": ("quadratic", _dominance),
    "interference": ("quadratic", _interference),
    "grad-vs-fd": ("model", _grad_vs_fd),
    "decoupling": ("model", _decoupling),
    "hessian": ("model", _hessian),
    "linearization": ("model", _linearization),
}
THEORY_CHECKS = tuple(name for name in CLAIMS if name != "grad-vs-fd")
GRADCHECK_CHECKS = ("grad-vs-fd", "decoupling", "hessian")


def _audit_setup(seed: int, probes: int | None, checkpoint=None):
    """(model, d0, d1, seed, probes) on a fresh tiny model, or on ``checkpoint``
    with synthetic data in its vocabulary."""
    if checkpoint:
        model = load_checkpoint(checkpoint)
        spec = SynthTaskSpec(modulus=5, n_problems=4, seed=seed)
        data, _ = generate_synth_dataset(spec, _load_vocab(checkpoint, model))
    else:
        data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=5, n_problems=6, seed=seed))
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=24)
        model = ModelParams.init_random(cfg, seed)
    return (model, *split_by_mode(data), seed, probes)


def _run_claims(args, checks, setup, instances: int = 0) -> int:
    """Write ``<command>_<check>.jsonl`` records {check, inputs_digest, measured, threshold, pass}
    and one table row per check, ``instances`` records per quadratic claim and one per model
    claim on the subject ``setup()`` builds; 1 if any record fails. Every claim is measured
    before anything is written."""
    subject = setup() if any(CLAIMS[c][0] == "model" for c in checks) else None
    results = {}
    for check in checks:
        kind, measure = CLAIMS[check]
        if kind == "model":
            model, probes = subject[0], subject[-1]
            # the subject's parameters are an input of every model claim; --probes only of grad-vs-fd
            key = (check, args.seed, _params_digest(model)) + ((probes,) if check == "grad-vs-fd" else ())
            runs = [(key, measure(*subject))]
        else:
            runs = [
                ((check, args.seed, i), measure(*random_quadratic_pair(
                    QUAD_DIM, args.seed + i, equal_curvature=kind == "equal-curvature"), args.seed, i))
                for i in range(instances)
            ]
        results[check] = [
            {
                "check": check,
                "inputs_digest": _digest(*key),
                "measured": float(measured),
                "threshold": float(threshold),
                "pass": bool(measured <= threshold if ok is None else ok) and not args.inject_error,
            }
            for key, (measured, threshold, ok) in runs
        ]
    out = _out_dir(args)
    _write_config(args)
    all_ok = True
    print(f"{'check':<18}{'records':>8}{'worst measured':>18}{'pass':>7}")
    for check, records in results.items():
        _write_jsonl(out / f"{args.command}_{check}.jsonl", records)
        ok = all(r["pass"] for r in records)
        all_ok &= ok
        worst = max(r["measured"] for r in records)
        print(f"{check:<18}{len(records):>8}{worst:>18.3e}{str(ok):>7}")
    if not all_ok:
        print("FAILED checks present", file=sys.stderr)
        return 1
    return 0


def cmd_theory(args) -> int:
    if args.instances < 1:
        raise ConfigError("--instances must be >= 1")
    args.checks = args.checks.split(",") if args.checks else list(THEORY_CHECKS)
    for c in args.checks:
        if c not in THEORY_CHECKS:
            raise ConfigError(f"unknown check {c!r}; available: {', '.join(THEORY_CHECKS)}")
    return _run_claims(args, args.checks, lambda: _audit_setup(args.seed, None), args.instances)


def cmd_gradcheck(args) -> int:
    if args.probes < 1:
        raise ConfigError("--probes must be >= 1")
    return _run_claims(args, GRADCHECK_CHECKS, lambda: _audit_setup(args.seed, args.probes, args.checkpoint))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_records(path) -> list[tuple[Route | None, str, str]]:
    """(mode, prompt, gold) per record of an eval file; mode None means the record runs in every mode."""
    out = []
    for where, record in read_jsonl(path):
        if "answer" not in record:
            raise DataError(f"{where}: eval records need an \"answer\" field")
        if not isinstance(record.get("prompt"), str):
            raise DataError(f"{where}: 'prompt' must be a string")
        mode = None if record.get("mode") is None else record_mode(record, where)
        out.append((mode, record["prompt"], str(record["answer"])))
    return out


def _load_baseline(path) -> dict[tuple[str, str], LeakageReport]:
    """A prior leakage_report.json, its rows keyed ("baseline", mode) so they cannot replace this run's."""
    rows = _read_json(path, DataError)
    if not isinstance(rows, dict):
        raise DataError(f"{path}: a baseline must be a JSON object of leakage reports")
    if not rows:
        raise DataError(f"{path}: the baseline holds no reports")
    base = {}
    for key, rec in rows.items():
        try:
            rep = LeakageReport(**rec)
        except TypeError as exc:
            raise DataError(f"{path}: report {key!r} is not a leakage report: {exc}") from exc
        for field, value in asdict(rep).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(f"{path}: report {key!r}: {field} must be a number, got {value!r}")
        mode = key.split("/")[-1]
        if mode not in MODE_NAMES:
            raise DataError(f"{path}: report {key!r} names mode {mode!r}, not one of {', '.join(MODE_NAMES)}")
        base[("baseline", mode)] = rep
    return base


def cmd_eval(args) -> int:
    base = _load_baseline(args.baseline) if args.baseline else {}
    model = load_checkpoint(args.checkpoint)
    vocab = _load_vocab(args.checkpoint, model, args.vocab)
    lexicon = ReflectiveLexicon.load(args.lexicon) if args.lexicon else ReflectiveLexicon()
    records = _eval_records(args.dataset)
    prompts = {}
    for name in MODE_NAMES if args.mode == "both" else [args.mode]:
        mode = MODE_NAMES[name]
        prompts[name] = [(encode_prompt(text, vocab, mode), gold) for route, text, gold in records
                         if route in (None, mode)]
        if not prompts[name]:
            raise DataError(f"{args.dataset}: no prompts for mode {name}")
        if all(len(ids) > model.config.max_seq for ids, _ in prompts[name]):
            raise DataError(f"{args.dataset}: every mode {name} prompt exceeds the checkpoint's max_seq "
                            f"{model.config.max_seq}")

    reports: dict[tuple[str, str], LeakageReport] = {}
    for name, mode_prompts in prompts.items():
        rep = evaluate(model, mode_prompts, MODE_NAMES[name], vocab, lexicon, max_new=args.max_new)
        reports[("model", name)] = rep
        print(
            f"mode {name}: accuracy {rep.accuracy:.4f}  mean length {rep.mean_length:.2f}  "
            f"refl/answer {rep.refl_per_answer:.4f}  ({rep.n_prompts} prompts, {rep.n_skipped} skipped)"
        )

    out = _out_dir(args)
    (out / "leakage_report.csv").write_text(reports_to_csv(reports))
    (out / "leakage_report.json").write_text(
        json.dumps(
            {f"{k[0]}/{k[1]}": asdict(v) for k, v in reports.items()}, indent=2, sort_keys=True
        )
        + "\n"
    )
    if base:
        csv_delta, table = leakage_delta_table({**reports, **base}, "baseline")
        (out / "leakage_delta.csv").write_text(csv_delta)
        print(table)
    _write_config(args)
    return 0


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def cmd_filter(args) -> int:
    lexicon = ReflectiveLexicon.load(args.lexicon) if args.lexicon else ReflectiveLexicon()
    candidates = []
    for where, rec in read_jsonl(args.candidates):
        if not all(isinstance(rec.get(key), str) for key in ("prompt", "response")):
            raise DataError(f"{where}: candidate records need string \"prompt\" and \"response\" fields")
        candidates.append((rec["prompt"], rec["response"]))
    with open(args.gold, encoding="utf-8") as fh:
        golds = [line.strip() for line in fh if line.strip()]
    if len(golds) != len(candidates):
        raise DataError(f"{args.gold}: {len(candidates)} candidates but {len(golds)} gold answers")

    triples = [(p, r, g) for (p, r), g in zip(candidates, golds)]
    reasons = filter_no_think_candidates(triples, args.max_len, lexicon)
    kept = [
        {"prompt": prompt, "target": response, "mode": "no_think", "answer": gold}
        for (prompt, response, gold), reason in zip(triples, reasons)
        if reason is None
    ]

    out = _out_dir(args)
    kept_path = out / "kept.jsonl"
    _write_jsonl(kept_path, kept)
    audit_path = out / "filter_audit.jsonl"
    verdicts = [{"index": i, "verdict": "kept" if reason is None else "rejected", "reason": reason}
                for i, reason in enumerate(reasons)]
    _write_jsonl(audit_path, verdicts)
    _write_config(args)
    print(f"kept {len(kept)} of {len(triples)} -> {kept_path}")
    print(f"audit -> {audit_path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routelock",
        description="Route-locked dual-expert decoder: training, generation, theory checks, leakage eval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        if seed:
            p.add_argument("--seed", type=int, help="seed (mandatory here or in the config)")
        p.add_argument("--out", help="output directory for artifacts")

    p = sub.add_parser("train", help="train a cloned dual-expert model on a JSONL dataset")
    common(p)
    p.add_argument("--dataset", help="line-delimited JSON dataset")
    p.add_argument("--checkpoint", help="output checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="decode a completion from a checkpoint")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab", help="vocabulary file (default: <checkpoint>.vocab.txt)")
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--temp", type=float, help="temperature sampling (default greedy)")
    p.add_argument("--seed", type=int, help="required for temperature sampling")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("theory", help="run the quadratic-surrogate and curvature checks")
    common(p)
    p.add_argument("--checks", help=f"comma list from: {', '.join(THEORY_CHECKS)}")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--inject-error", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("eval", help="leakage report for a checkpoint on an eval set")
    common(p, seed=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--dataset", required=True, help="JSONL with prompt/answer records")
    p.add_argument("--mode", choices=["both", *MODE_NAMES], default="both")
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--lexicon", help="marker list, one per line")
    p.add_argument("--baseline", help="prior leakage_report.json to diff against")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("filter", help="apply the correctness/length/style filters")
    common(p, seed=False)
    p.add_argument("--candidates", required=True, help="JSONL with prompt/response records")
    p.add_argument("--gold", required=True, help="one gold answer per line")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--lexicon")
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("gradcheck", help="gradient, decoupling, and curvature audits")
    common(p)
    p.add_argument("--checkpoint", help="audit this checkpoint instead of a fresh tiny model")
    p.add_argument("--probes", type=int, default=64,
                   help="coordinates the gradient check samples (default 64)")
    p.add_argument("--inject-error", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(_resolve(args))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
