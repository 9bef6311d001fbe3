"""One workload in this process: a measured or a traced run, then the result line.

Imported by ``run.py`` after it has fixed the BLAS thread count and put the
repository's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import routelock
from routelock import model as rl_model

from phases import PHASES, Tally
from spans import TENSOR_OPS, VJP_OPS, SpanLog, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# (name, unit); bounds and directions live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train_examples_per_s", "examples/s"),
    ("eval_think_tokens_per_s", "tokens/s"),
    ("eval_no_think_prompts_per_s", "prompts/s"),
    ("generate_think_ms_p50", "ms"),
    ("generate_think_ms_p99", "ms"),
    ("generate_no_think_ms_p50", "ms"),
    ("generate_no_think_ms_p99", "ms"),
    ("oracle_coords_per_s", "coords/s"),
    ("hessian_probes_per_s", "probes/s"),
)
RATES = ("train_examples_per_s", "eval_think_tokens_per_s", "eval_no_think_prompts_per_s",
         "oracle_coords_per_s", "hessian_probes_per_s")

PER_LAYER = (
    [(f"tensor.{op}.calls", "count") for op in TENSOR_OPS]
    + [(f"tensor.{op}.fwd_ms", "ms") for op in TENSOR_OPS]
    + [(f"tensor.{op}.vjp_ms", "ms") for op in VJP_OPS]
    + [
        ("tensor.backward_ms", "ms"), ("tensor.backward_self_ms", "ms"), ("tensor.nodes_per_forward", "count"),
        ("params.value_and_grad_ms", "ms"), ("params.value_and_grad_self_ms", "ms"),
        ("params.finite_diff_grad_ms", "ms"), ("params.loss_evals", "count"),
        ("params.loss_eval_ms_mean", "ms"), ("params.from_flat_ms", "ms"),
        ("params.sampled_cross_hessian_max_ms", "ms"),
        ("model.decoder_logits.calls", "count"), ("model.decoder_logits_ms", "ms"),
        ("model.generate.calls", "count"), ("model.generate_ms", "ms"),
        ("model.prefill_ms_p50", "ms"), ("model.decode_ms_per_token", "ms"),
        ("model.expert_positions.route0", "count"), ("model.expert_positions.route1", "count"),
        ("trainer.train_ms", "ms"), ("trainer.steps", "count"), ("trainer.make_batch_ms", "ms"),
        ("trainer.mode_loss_grad_ms", "ms"), ("trainer.sgd_step_ms", "ms"), ("trainer.self_ms", "ms"),
        ("trainer.loss_positions_share", "ratio"),
        ("leakage.evaluate_ms", "ms"), ("leakage.self_ms", "ms"), ("leakage.prompts", "count"),
        ("leakage.skipped", "count"),
        ("theory.hessian_block_audit_ms", "ms"), ("theory.probes", "count"),
        ("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms"),
        ("synth.generate_synth_dataset_ms", "ms"), ("synth.eval_prompts_ms", "ms"),
        ("trace.overhead_share", "ratio"),
    ]
)


def phase_order(workload: str) -> list[str]:
    """The workload's own phase first, then the other two."""
    return [workload] + [name for name in PHASES if name != workload]


def guarded(tally: Tally, label: str, fn, *args):
    """Call fn; a raised exception is reported and counted as one failed operation."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        print(f"error: {label} raised", file=sys.stderr)
        tally.ops(1, failed=1)
        return None


# The machine's speed drifts by tens of percent over seconds on a shared host,
# and every timing here drifts with it. A fixed numpy reference loop is timed
# before and after each task, and the task's samples are scaled to the speed
# at which that loop takes PROBE_NOMINAL_S (its 5th-percentile time on a
# 2-vCPU x86-64 host, numpy 2.4 with OpenBLAS 0.3.31). Raw figures are kept too.
PROBE_NOMINAL_S = 0.7e-3
_PROBE_A = np.random.default_rng(0).random((8, 64))
_PROBE_B = np.random.default_rng(1).random((64, 64))


def reference_probe() -> float:
    """Seconds for a fixed loop of small numpy ops, the kind routelock runs."""
    t0 = time.perf_counter()
    for _ in range(60):
        c = _PROBE_A @ _PROBE_B
        e = np.exp(c - c.max(axis=-1, keepdims=True))
        e / e.sum(axis=-1, keepdims=True)
    return time.perf_counter() - t0


def speed_corrected(key: str, values: list[float], slowdown: float) -> list[float]:
    """Rates scale up and times scale down by how much slower than nominal the machine ran."""
    return [v * slowdown for v in values] if key in RATES else [v / slowdown for v in values]


class Entry:
    """One phase in a run: its state, its task cycle, its samples and its progress."""

    def __init__(self, phase, state, tasks, target, ctx):
        self.phase, self.state, self.tasks, self.ctx = phase, state, tasks, ctx
        self.target = target  # ("cycles", n) or ("seconds", s): when the phase is done
        self.samples: dict[str, list[float]] = {}  # speed-corrected
        self.raw: dict[str, list[float]] = {}
        self.done = 0
        self.busy_s = 0.0

    def progress(self) -> float:
        cycles = self.done / len(self.tasks)
        kind, amount = self.target
        return cycles / amount if kind == "cycles" else min(cycles, self.busy_s / amount)

    def run_next(self, tally: Tally) -> None:
        task = self.tasks[self.done % len(self.tasks)]
        before = reference_probe()
        with self.ctx():
            t0 = time.perf_counter()
            out = guarded(tally, f"{self.phase.name} task", task, tally)
            self.busy_s += time.perf_counter() - t0
        slowdown = (before + reference_probe()) / (2 * PROBE_NOMINAL_S)
        self.done += 1
        for key, values in (out or {}).items():
            self.raw.setdefault(key, []).extend(values)
            self.samples.setdefault(key, []).extend(speed_corrected(key, values, slowdown))
        self.raw.setdefault("probe_slowdown", []).append(slowdown)


def with_setups(phase, seed: int, workdir: Path, tasks: list) -> list:
    """Interleave a timed re-run of the phase's set-up after every ``setup_every`` tasks."""

    def setup_task(t: Tally) -> dict:
        t0 = time.perf_counter()
        phase.setup(seed, workdir, t)
        return {"setup_s": [time.perf_counter() - t0]}

    out = []
    for i, task in enumerate(tasks, start=1):
        out.append(task)
        if i % phase.setup_every == 0:
            out.append(setup_task)
    return out


def start_phases(workload: str, seed: int, workdir: Path, tally: Tally, seconds: float | None,
                 ctx=contextlib.nullcontext) -> list[Entry]:
    """Set up every phase (the workload's own first) and plan its tasks.

    With ``seconds`` the workload's own phase runs until it has been busy
    that long (and at least one cycle) and re-times its set-up as it goes;
    without it the work is fixed: two cycles of the own phase, one of the
    others.
    """
    entries = []
    for name in phase_order(workload):
        phase = PHASES[name]()
        before = reference_probe()
        with ctx():
            t0 = time.perf_counter()
            state = guarded(tally, f"{name} set-up", phase.setup, seed, workdir, tally)
            setup_s = time.perf_counter() - t0
        slowdown = (before + reference_probe()) / (2 * PROBE_NOMINAL_S)
        if state is None:
            continue
        own = name == workload
        tasks = phase.cycle(state)
        if own and seconds is not None:
            tasks = with_setups(phase, seed, workdir, tasks)
        target = ("seconds", seconds) if own and seconds is not None else ("cycles", 2 if own else 1)
        entry = Entry(phase, state, tasks, target, ctx)
        if own:
            entry.raw["setup_s"] = [setup_s]
            entry.samples["setup_s"] = speed_corrected("setup_s", [setup_s], slowdown)
        entries.append(entry)
    return entries


def run_schedule(entries: list[Entry], tally: Tally) -> None:
    """Run the next task of the entry least far along until every entry is done.

    The phases thus share the machine evenly in time, and each metric's
    samples spread over the whole run. Ties go to the earlier entry.
    """
    active = list(entries)
    while active:
        min(active, key=Entry.progress).run_next(tally)
        active = [e for e in active if e.progress() < 1.0]


def finish_phases(entries: list[Entry], tally: Tally):
    """Run each phase's end-of-run gates; merge samples (speed-corrected and raw)."""
    samples, raw, outputs, info = {}, {}, {}, {}
    for entry in entries:
        for merged, own in ((samples, entry.samples), (raw, entry.raw)):
            for key, values in own.items():
                merged.setdefault(key, []).extend(values)
        out, inf = guarded(tally, f"{entry.phase.name} finish", entry.phase.finish, entry.state, tally) or ({}, {})
        outputs.update(out)
        info[entry.phase.name] = dict(inf, tasks=entry.done, busy_s=entry.busy_s)
    return samples, raw, outputs, info


def e2e_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    """Medians of the task samples; generate latency as percentiles over every call."""
    out = {name: float(statistics.median(samples[name])) for name in RATES + ("setup_s",) if name in samples}
    for mode in ("think", "no_think"):
        lat = samples.get(f"generate_{mode}_ms")
        if lat:
            out[f"generate_{mode}_ms_p50"] = float(np.percentile(lat, 50))
            out[f"generate_{mode}_ms_p99"] = float(np.percentile(lat, 99))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_run(workload: str, seed: int, seconds: float, workdir: Path):
    tally = Tally()
    entries = start_phases(workload, seed, workdir, tally, seconds)
    run_schedule(entries, tally)
    samples, raw, outputs, info = finish_phases(entries, tally)
    metrics = e2e_metrics(samples)
    metrics["peak_rss_mb"] = peak_rss_mb()
    extra = {
        "raw": e2e_metrics(raw), "probe_slowdown_median": float(statistics.median(raw["probe_slowdown"])),
        "sample_counts": {key: len(values) for key, values in raw.items()},
        "samples": samples, "raw_samples": raw, "digests": outputs, "phases": info,
    }
    return tally, metrics, extra


def tracing_cost(name: str, untraced: float, traced: float) -> float:
    """Relative cost of tracing for one metric: > 0 means the traced run was slower."""
    return untraced / traced - 1.0 if name in RATES else traced / untraced - 1.0


def traced_run(workload: str, seed: int, workdir: Path):
    """The same fixed work twice, untraced and traced, alternating task by task.

    Alternating makes both passes see the same machine, so the difference
    in their end-to-end figures is the tracing overhead; their outputs must
    match bitwise.
    """
    tally = Tally()
    log = SpanLog()
    tracer = Tracer(log)
    recorder = rl_model.ExpertCallRecorder()

    @contextlib.contextmanager
    def traced():
        with recorder, tracer:
            yield

    ref = start_phases(workload, seed, workdir, tally, None)
    tr = start_phases(workload, seed, workdir, tally, None, ctx=traced)
    run_schedule([e for pair in zip(ref, tr) for e in pair], tally)
    ref_samples, _, ref_outputs, _ = finish_phases(ref, tally)
    samples, _, outputs, info = finish_phases(tr, tally)
    for key, value in ref_outputs.items():
        tally.gate(f"trace.bitwise.{key}", outputs.get(key) == value, f"{value} vs {outputs.get(key)}")
    decode = next((e for e in ref if e.phase.name == "decode_demo"), None)
    probe = guarded(tally, "prefill probe", decode.phase.prefill_probe, decode.state) if decode else None
    untraced_m, traced_m = e2e_metrics(ref_samples), e2e_metrics(samples)
    overhead = {k: tracing_cost(k, untraced_m[k], traced_m[k]) for k in untraced_m if k in traced_m}

    arrays = log.arrays()
    RESULTS.mkdir(exist_ok=True)
    log.save(RESULTS / f"spans-{workload}.npz")
    metrics = layer_metrics(log.names, arrays, tracer, recorder, probe or {}, info.get("decode_demo", {}))
    metrics["trace.overhead_share"] = sum(e.busy_s for e in tr) / sum(e.busy_s for e in ref) - 1.0
    extra = {"overhead": overhead, "untraced": untraced_m, "traced": traced_m, "spans": len(arrays["start"]),
             "digests": outputs, "phases": info}
    return tally, metrics, extra


def layer_metrics(names, arrays, tracer: Tracer, rec, probe: dict, decode_info: dict) -> dict[str, float]:
    summary = summarize(names, **arrays)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def calls(span: str) -> int:
        return summary.get(span, empty)["calls"]

    def ms(span: str, key: str = "total_s") -> float:
        return summary.get(span, empty)[key] * 1e3

    m: dict[str, float] = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        m[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
    for op in VJP_OPS:
        m[f"tensor.{op}.vjp_ms"] = ms(f"tensor.{op}.vjp")
    forwards = calls("model.decoder_logits")
    m["tensor.backward_ms"] = ms("tensor.backward")
    m["tensor.backward_self_ms"] = ms("tensor.backward", "self_s")
    m["tensor.nodes_per_forward"] = sum(calls(f"tensor.{op}") for op in TENSOR_OPS) / max(forwards, 1)

    loss_evals = calls("params.loss_eval")
    m["params.value_and_grad_ms"] = ms("params.value_and_grad")
    m["params.value_and_grad_self_ms"] = ms("params.value_and_grad", "self_s")
    m["params.finite_diff_grad_ms"] = ms("params.finite_diff_grad")
    m["params.loss_evals"] = loss_evals
    m["params.loss_eval_ms_mean"] = ms("params.loss_eval") / max(loss_evals, 1)
    m["params.from_flat_ms"] = ms("params.from_flat")
    m["params.sampled_cross_hessian_max_ms"] = ms("params.sampled_cross_hessian_max")

    m["model.decoder_logits.calls"] = forwards
    m["model.decoder_logits_ms"] = ms("model.decoder_logits")
    m["model.generate.calls"] = calls("model.generate")
    m["model.generate_ms"] = ms("model.generate")
    m["model.prefill_ms_p50"] = probe.get("prefill_ms_p50", 0.0)
    m["model.decode_ms_per_token"] = probe.get("decode_ms_per_token", 0.0)
    for route in (0, 1):
        m[f"model.expert_positions.route{route}"] = sum(n for _, r, n in rec.calls if r == route)

    m["trainer.train_ms"] = ms("trainer.train")
    m["trainer.steps"] = calls("trainer.mode_loss_grad")
    m["trainer.make_batch_ms"] = ms("trainer.make_batch")
    m["trainer.mode_loss_grad_ms"] = ms("trainer.mode_loss_grad")
    m["trainer.sgd_step_ms"] = ms("trainer.sgd_step")
    m["trainer.self_ms"] = ms("trainer.train", "self_s")
    m["trainer.loss_positions_share"] = tracer.label_positions / max(tracer.logit_positions, 1)

    m["leakage.evaluate_ms"] = ms("leakage.evaluate")
    m["leakage.self_ms"] = ms("leakage.evaluate", "self_s")
    m["leakage.prompts"] = decode_info.get("prompts", 0)
    m["leakage.skipped"] = decode_info.get("skipped", 0)

    ids = {name: i for i, name in enumerate(names)}
    name, parent = arrays["name"], arrays["parent"]
    if "params.loss_eval" in ids and "params.sampled_cross_hessian_max" in ids:
        is_eval = (name == ids["params.loss_eval"]) & (parent >= 0)
        under_probe = name[parent[is_eval]] == ids["params.sampled_cross_hessian_max"]
        m["theory.probes"] = int(under_probe.sum()) // 4  # four stencil forwards per probe
    else:
        m["theory.probes"] = 0
    m["theory.hessian_block_audit_ms"] = ms("theory.hessian_block_audit")

    m["checkpoint.save_ms"] = ms("checkpoint.save_checkpoint")
    m["checkpoint.load_ms"] = ms("checkpoint.load_checkpoint")
    m["synth.generate_synth_dataset_ms"] = ms("synth.generate_synth_dataset")
    m["synth.eval_prompts_ms"] = ms("synth.eval_prompts")
    return m


# ---------------------------------------------------------------------------
# manifest and output
# ---------------------------------------------------------------------------


def _openblas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads() or int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def main(args, import_s: float) -> int:
    src = (ROOT / "src").resolve()
    if src not in Path(routelock.__file__).resolve().parents:
        print(f"error: routelock was imported from {routelock.__file__}, not {src}", file=sys.stderr)
        return 2
    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        if args.trace:
            tally, metrics, extra = traced_run(args.workload, args.seed, workdir)
            specs = PER_LAYER
        else:
            tally, metrics, extra = measured_run(args.workload, args.seed, args.seconds, workdir)
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_share = tally.failed / max(tally.attempted, 1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if "raw" in extra:
        print(f"  speed-corrected; the machine ran {extra['probe_slowdown_median']:.2f}x slower than nominal")
    for name, unit in specs:
        value = metrics.get(name)
        raw = extra.get("raw", {}).get(name)
        print(f"  {name:<40} {'missing' if value is None else f'{value:.6g}'} {unit}"
              + ("" if raw is None else f"  (raw {raw:.6g})"))
    print(f"  {'fail_share':<40} {fail_share:.6g} ratio ({tally.failed} of {tally.attempted})")
    for g in tally.gates:
        if not g["ok"]:
            print(f"  FAILED gate {g['gate']}: {g['detail']}")
    if args.trace:
        for name, share in extra["overhead"].items():
            print(f"  tracing overhead {name:<32} {share:+.1%}")
    complete = all(name in metrics for name, _ in specs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "manifest": manifest(args.seed), "import_s": import_s, "fail_share": fail_share,
        "metrics": metrics, "gates": tally.gates, **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs if name in metrics},
    }))
    return 0
