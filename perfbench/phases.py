"""The benchmark's three phases: set-up, a cycle of short measured tasks, gates.

Each phase builds its inputs from the run seed and splits its work into
tasks of 20-400 ms, so that the scheduler in ``workload.py`` can interleave
the phases over the whole run and every metric is a median over many
samples taken across it. A task returns timing samples; gates that need
the whole cycle run in ``finish``. Calls go through module attributes
(``trainer.train``, not a local import) so the tracer's rebinding reaches
them.

- ``train_demo``: plain-SGD ``trainer.train`` on the synthetic modular-
  addition task at demo size, 50 examples (two steps) per call, each
  call continuing from the last; one cycle is two epochs of 2,000 examples.
- ``decode_demo``: a one-epoch momentum model saved and reloaded through
  ``checkpoint``; ``leakage.evaluate`` on slices of 25 held-out prompts per
  mode (phase A) and ``model.generate`` one prompt at a time (phase B).
- ``oracle_tiny``: the two-mode loss at C1 size: ``params.value_and_grad``,
  a full ``params.finite_diff_grad`` sweep taken one segment group per call,
  and ``theory.hessian_block_audit`` in calls of 4 probes per block.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Callable

import numpy as np

from routelock import checkpoint, leakage, params, synth, tensor, theory, trainer
from routelock import model as rl_model
from routelock.tokenizer import CTRL_NOTHINK_ID, CTRL_THINK_ID, Route, Vocabulary

DEMO_MODULUS = 10
DEMO_PROBLEMS = 1000  # 2,000 examples: one think and one no-think per problem
LEARNING_RATE = 0.05
BATCH_SIZE = 25
TRAIN_CHUNK = 50  # examples per trainer.train call: one batch per mode
TRAIN_EPOCHS = 2  # per cycle, so that even one cycle gives 80 samples
EVAL_PROMPTS = 500  # held-out prompts per mode
EVAL_SLICE = 25  # prompts per leakage.evaluate call
GENERATE_CHUNK = 25  # generate calls per task
GENERATE_PASSES = 4  # phase B covers the held-out prompts four times: 2,000 samples per mode
MAX_NEW = 32  # the `routelock eval` default
CACHE_CHECKS = 8  # prompts per mode decoded with and without the KV cache
FD_STEP = 1e-5
FD_GROUP = 64  # coordinates per finite_diff_grad call, whole segments
HESSIAN_PROBES = 64  # per block, over a cycle; the audit probes four blocks
HESSIAN_CHUNK = 4  # probes per block per hessian_block_audit call
GRAD_CFG = rl_model.ModelConfig(vocab_size=24, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=24)

MODE_NAMES = {Route.NO_THINK: "no_think", Route.THINK: "think"}

Task = Callable[["Tally"], dict]


def demo_config(vocab_size: int) -> rl_model.ModelConfig:
    return rl_model.ModelConfig(
        vocab_size=vocab_size, d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq=32
    )


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class Tally:
    """Attempted and failed operations; a failed gate or a raised call is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates: list[dict] = []

    def ops(self, n: int = 1, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        if not ok or not any(g["gate"] == name for g in self.gates):
            self.gates.append({"gate": name, "ok": bool(ok), "detail": detail})


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# train_demo
# ---------------------------------------------------------------------------


class TrainDemo:
    name = "train_demo"
    setup_every = 10  # as the workload's own phase: one set-up sample per ten tasks

    def setup(self, seed: int, workdir: Path, tally: Tally) -> dict:
        spec = synth.SynthTaskSpec(modulus=DEMO_MODULUS, n_problems=DEMO_PROBLEMS, seed=seed)
        data, vocab = synth.generate_synth_dataset(spec)
        model = rl_model.ModelParams.init_random(demo_config(len(vocab)), seed=seed)
        cfg = trainer.TrainConfig(learning_rate=LEARNING_RATE, epochs=1, batch_size=BATCH_SIZE, seed=seed)
        return {"data": data, "model": model, "cfg": cfg, "losses": []}

    def cycle(self, st: dict) -> list[Task]:
        data = st["data"]
        epoch = [self._task(st, data[i : i + TRAIN_CHUNK]) for i in range(0, len(data), TRAIN_CHUNK)]
        return epoch * TRAIN_EPOCHS

    @staticmethod
    def _task(st: dict, chunk: list) -> Task:
        def run(tally: Tally) -> dict:
            before = trainer.expert_gap(st["model"].params)
            (trained, log), dt = _timed(trainer.train, st["model"], chunk, st["cfg"])
            tally.ops()
            st["model"] = trained
            losses = [r.loss for r in log.records]
            st["losses"] += losses
            tally.gate("train.loss_finite", bool(np.all(np.isfinite(losses))), f"{len(losses)} steps")
            after = trainer.expert_gap(trained.params)
            predicted = log.predicted_expert_gap()
            err = max(float(np.max(np.abs(after[s] - before[s] - predicted[s]))) for s in after)
            tally.gate("train.c6_divergence_identity", err <= 1e-10, f"max coord error {err:.2e} <= 1e-10")
            return {"train_examples_per_s": [len(chunk) / dt]}

        return run

    def finish(self, st: dict, tally: Tally) -> tuple[dict, dict]:
        losses = np.asarray(st["losses"])
        return {"train.losses": digest(losses)}, {"steps": int(losses.size)}


# ---------------------------------------------------------------------------
# decode_demo
# ---------------------------------------------------------------------------


class DecodeDemo:
    name = "decode_demo"
    setup_every = 90  # twice per cycle

    def setup(self, seed: int, workdir: Path, tally: Tally) -> dict:
        spec = synth.SynthTaskSpec(modulus=DEMO_MODULUS, n_problems=DEMO_PROBLEMS, seed=seed)
        data, vocab = synth.generate_synth_dataset(spec)
        model = rl_model.ModelParams.init_random(demo_config(len(vocab)), seed=seed)
        cfg = trainer.TrainConfig(
            learning_rate=LEARNING_RATE, epochs=1, batch_size=BATCH_SIZE, seed=seed,
            optimizer="sgd_momentum", momentum=0.9,
        )
        trained, _ = trainer.train(model, data, cfg)
        path = workdir / "decode.ple"
        vocab_path = path.with_suffix(".vocab.txt")
        checkpoint.save_checkpoint(trained, path)
        vocab.save(vocab_path)
        loaded = checkpoint.load_checkpoint(path)
        vocab = Vocabulary.load(vocab_path)
        same = all(a.tobytes() == loaded.params[n].tobytes() for n, a in trained.params.items())
        tally.gate("decode.checkpoint_bitwise", same)
        prompts = {mode: synth.eval_prompts(spec, EVAL_PROMPTS, seed + 777, mode, vocab) for mode in MODE_NAMES}
        return {
            "model": loaded, "vocab": vocab, "prompts": prompts, "seed": seed,
            "reports": {mode: {} for mode in MODE_NAMES},  # slice start -> first LeakageReport
            "evaluated": 0, "skipped": 0,  # over every evaluate call
            "completions": {mode: {} for mode in MODE_NAMES},  # prompt index -> completion
            "calls": [],  # (mode, prompt index, ms, tokens) per phase-B generate call
        }

    def cycle(self, st: dict) -> list[Task]:
        n_gen = GENERATE_PASSES * EVAL_PROMPTS // GENERATE_CHUNK
        every = n_gen // (EVAL_PROMPTS // EVAL_SLICE)
        tasks: list[Task] = []
        for j in range(n_gen):
            for mode in MODE_NAMES:
                tasks.append(self._generate(st, mode, (j * GENERATE_CHUNK) % EVAL_PROMPTS))
                if j % every == 0:
                    tasks.append(self._evaluate(st, mode, (j // every) * EVAL_SLICE))
        tasks.append(_cache_task(st))
        return tasks

    @staticmethod
    def _evaluate(st: dict, mode: Route, start: int) -> Task:
        def run(tally: Tally) -> dict:
            chunk = st["prompts"][mode][start : start + EVAL_SLICE]
            rep, dt = _timed(
                leakage.evaluate, st["model"], chunk, mode, st["vocab"], max_new=MAX_NEW, seed=st["seed"]
            )
            tally.ops(len(chunk), failed=rep.n_skipped)
            st["evaluated"] += rep.n_prompts
            st["skipped"] += rep.n_skipped
            st["reports"][mode].setdefault(start, rep)
            if mode is Route.THINK:
                return {"eval_think_tokens_per_s": [round(rep.mean_length * rep.n_prompts) / dt]}
            return {"eval_no_think_prompts_per_s": [rep.n_prompts / dt]}

        return run

    @staticmethod
    def _generate(st: dict, mode: Route, start: int) -> Task:
        name = MODE_NAMES[mode]

        def run(tally: Tally) -> dict:
            lat = []
            for idx in range(start, start + GENERATE_CHUNK):
                ids = st["prompts"][mode][idx][0]
                t0 = time.perf_counter()
                out, _ = rl_model.generate(st["model"], ids, MAX_NEW)
                ms = (time.perf_counter() - t0) * 1e3
                lat.append(ms)
                st["completions"][mode].setdefault(idx, tuple(out))
                st["calls"].append((mode, idx, ms, len(out)))
            tally.ops(len(lat))
            return {f"generate_{name}_ms": lat}

        return run

    def finish(self, st: dict, tally: Tally) -> tuple[dict, dict]:
        outputs, info = {}, {"prompts": st["evaluated"], "skipped": st["skipped"]}
        for mode, name in MODE_NAMES.items():
            done = st["completions"][mode]
            order = [done[i] for i in sorted(done)]
            outputs[f"decode.{name}.completions"] = digest(
                np.array([len(c) for c in order]), np.array([t for c in order for t in c], dtype=np.int64)
            )
            for start, rep in sorted(st["reports"][mode].items()):
                lengths = [len(done[i]) for i in range(start, start + EVAL_SLICE) if i in done]
                if len(lengths) == EVAL_SLICE:
                    mean_b = float(np.mean(lengths))
                    tally.gate(f"decode.{name}.evaluate_matches_generate", mean_b == rep.mean_length,
                               f"slice {start}: mean length {mean_b:.3f} vs {rep.mean_length:.3f}")
            info[f"{name}_mean_length"] = float(np.mean([len(c) for c in order])) if order else 0.0
        return outputs, info

    def prefill_probe(self, st: dict) -> dict:
        """Prefill cost (generate with max_new=1) per prompt, and decode cost per later token."""
        prefill = {
            (mode, idx): _timed(rl_model.generate, st["model"], st["prompts"][mode][idx][0], 1)[1] * 1e3
            for mode in MODE_NAMES for idx in range(EVAL_PROMPTS)
        }
        total = sum(ms - prefill[(mode, idx)] for mode, idx, ms, _ in st["calls"])
        later_tokens = sum(max(n - 1, 0) for *_, n in st["calls"])
        return {
            "prefill_ms_p50": float(np.median(list(prefill.values()))),
            "decode_ms_per_token": total / max(later_tokens, 1),
        }


def _cache_task(st: dict) -> Task:
    """Cached and recomputed decoding agree, and only the prompt's expert runs."""

    def run(tally: Tally) -> dict:
        model = st["model"]
        layers = model.config.n_layers
        for mode, name in MODE_NAMES.items():
            for ids, _ in st["prompts"][mode][:CACHE_CHECKS]:
                with rl_model.ExpertCallRecorder() as rec:
                    cached, route = rl_model.generate(model, ids, MAX_NEW, use_cache=True)
                full, _ = rl_model.generate(model, ids, MAX_NEW, use_cache=False)
                tally.ops(2)
                tally.gate(f"decode.{name}.cache_equals_recompute", cached == full, f"{len(cached)} tokens")
                chunks = len(rec.calls) // layers
                route_ok = (
                    route is mode
                    and rec.routes_used == {int(mode)}
                    and len(rec.calls) == chunks * layers
                    and [c[0] for c in rec.calls] == list(range(layers)) * chunks
                    and [c[2] for c in rec.calls[::layers]] == [len(ids)] + [1] * (chunks - 1)
                )
                tally.gate(f"decode.{name}.expert_calls", route_ok, f"{chunks} chunks x {layers} layers")
        return {}

    return run


# ---------------------------------------------------------------------------
# oracle_tiny
# ---------------------------------------------------------------------------


def grad_dataset(rng: np.random.Generator) -> list[trainer.ChatExample]:
    """Two no-think and two think examples of random tokens (the C1 data shape)."""

    def seq(lo: int, n: int) -> list[int]:
        return [int(t) for t in rng.integers(lo, GRAD_CFG.vocab_size, size=n)]

    d0 = [
        trainer.ChatExample.build([1] + seq(6, 2) + [CTRL_NOTHINK_ID], seq(6, 3) + [2], Route.NO_THINK)
        for _ in range(2)
    ]
    d1 = [
        trainer.ChatExample.build([1] + seq(6, 2) + [CTRL_THINK_ID], seq(6, 4) + [2], Route.THINK)
        for _ in range(2)
    ]
    return d0 + d1


def two_mode_loss(model, dataset):
    """The pi-weighted two-mode objective as one graph closure."""
    pi0, pi1 = trainer.mode_weights(dataset)
    d0, d1 = trainer.split_by_mode(dataset)
    b0, b1 = trainer.make_batch(d0), trainer.make_batch(d1)
    f0 = trainer.batch_loss_fn(model, Route.NO_THINK, "example_mean")
    f1 = trainer.batch_loss_fn(model, Route.THINK, "example_mean")

    def loss_fn(leaves, _batch):
        return tensor.add(tensor.mul(f0(leaves, b0), pi0), tensor.mul(f1(leaves, b1), pi1))

    return loss_fn


def segment_groups(pv: params.ParamVector, size: int) -> list[list[str]]:
    """Consecutive whole segments packed into groups of about ``size`` coordinates."""
    groups, current, count = [], [], 0
    for name, arr in pv.items():
        if current and count + arr.size > size:
            groups.append(current)
            current, count = [], 0
        current.append(name)
        count += arr.size
    return groups + [current]


class OracleTiny:
    name = "oracle_tiny"
    setup_every = 1

    def setup(self, seed: int, workdir: Path, tally: Tally) -> dict:
        model = rl_model.ModelParams.init_random(GRAD_CFG, seed=seed)
        dataset = grad_dataset(np.random.default_rng(seed))
        d0, d1 = trainer.split_by_mode(dataset)
        return {
            "model": model, "loss_fn": two_mode_loss(model, dataset), "d0": d0, "d1": d1, "seed": seed,
            "rev": None, "fd": {}, "audit": {},
        }

    def cycle(self, st: dict) -> list[Task]:
        groups = [self._fd(st, g) for g in segment_groups(st["model"].params, FD_GROUP)]
        audits = [self._audit(st, k) for k in range(HESSIAN_PROBES // HESSIAN_CHUNK)]
        tasks: list[Task] = [self._value_and_grad(st)]
        for i, task in enumerate(groups):
            tasks.append(task)
            if i % 2 == 1 and audits:
                tasks.append(audits.pop(0))
        return tasks + audits

    @staticmethod
    def _value_and_grad(st: dict) -> Task:
        def run(tally: Tally) -> dict:
            _, st["rev"] = params.value_and_grad(st["loss_fn"], st["model"].params, None)
            tally.ops()
            return {}

        return run

    @staticmethod
    def _fd(st: dict, names: list[str]) -> Task:
        """Central differences over one group of segments; the rest of the model stays fixed."""
        full = st["model"].params
        subset = full.restricted(names)
        fixed = params.as_leaves(full)
        loss_fn = st["loss_fn"]

        def group_loss(leaves, batch):
            return loss_fn({**fixed, **leaves}, batch)

        def run(tally: Tally) -> dict:
            fd, dt = _timed(params.finite_diff_grad, group_loss, subset, None, step=FD_STEP)
            tally.ops()
            st["fd"].setdefault(tuple(names), fd)
            return {"oracle_coords_per_s": [subset.size / dt]}

        return run

    @staticmethod
    def _audit(st: dict, k: int) -> Task:
        def run(tally: Tally) -> dict:
            seed = st["seed"] + 4 * k  # the audit seeds its four blocks seed .. seed+3
            rep, dt = _timed(
                theory.hessian_block_audit, st["model"], st["d0"], st["d1"], probes=HESSIAN_CHUNK, seed=seed
            )
            tally.ops()
            st["audit"].setdefault(k, rep)
            return {"hessian_probes_per_s": [4 * HESSIAN_CHUNK / dt]}

        return run

    def finish(self, st: dict, tally: Tally) -> tuple[dict, dict]:
        rev, fd = st["rev"], st["fd"]
        order = sorted(fd, key=lambda group: st["model"].params.names.index(group[0]))
        swept = [fd[g][n].reshape(-1) for g in order for n in g]
        outputs = {"oracle.fd_grad": digest(*swept)}
        if rev is not None:
            outputs["oracle.reverse_grad"] = digest(rev.flatten())
            if swept:
                ref = np.concatenate([rev[n].reshape(-1) for g in order for n in g])
                err = params.max_relative_error(ref, np.concatenate(swept))
                tally.gate("oracle.c1_fd_vs_reverse", err <= 1e-5,
                           f"max rel err {err:.2e} <= 1e-5 over {ref.size} coords")
        reports = list(st["audit"].values())
        if reports:
            cross = max(r.cross_beta0_beta1 for r in reports)
            tally.gate("oracle.c4_cross_block", cross <= 1e-6, f"{cross:.2e} <= 1e-6")
            for control in ("alpha_beta0", "alpha_beta1", "beta0_beta0"):
                value = max(getattr(r, control) for r in reports)
                tally.gate(f"oracle.c4_control_{control}", value > 1e-4, f"{value:.2e} > 1e-4")
        info = {"coords_swept": sum(p.size for p in swept), "probes": 4 * HESSIAN_CHUNK * len(reports)}
        return outputs, info


PHASES = {p.name: p for p in (TrainDemo, DecodeDemo, OracleTiny)}
