"""In-memory spans and a tracer that rebinds routelock functions from outside.

A span is (name, parent, start, end). Spans live in flat arrays while a
run is traced and are summarised (calls, total and self time per name)
or written out when it ends. Self time is a span's duration minus the
time its child spans cover; spans are strictly nested on one thread, so
that is the duration minus the sum of the children's durations.

``Tracer`` wraps the public functions listed in ``TRACED`` by rebinding
each name in every ``routelock`` module that holds it (``routelock.model``
and ``routelock.trainer`` each have their own binding of ``matmul``, for
example) and restores every binding on exit. Nothing under ``src/`` is
edited. Tensor ops also wrap the ``_vjp`` of the node they return, so
backward time is attributed per op.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable

import numpy as np

# ops whose forward calls are counted and timed; vjp time is kept for the first nine
TENSOR_OPS = (
    "matmul",
    "silu",
    "rms_norm",
    "softmax",
    "rope_rotate",
    "embedding",
    "softmax_cross_entropy",
    "add",
    "mul",
    "transpose",
    "reshape",
)
VJP_OPS = TENSOR_OPS[:9]

TRACED = {
    "tensor": TENSOR_OPS + ("backward",),
    "params": ("value_and_grad", "finite_diff_grad", "sampled_cross_hessian_max"),
    "model": ("decoder_logits", "generate"),
    "trainer": ("train", "make_batch", "mode_loss_grad", "sgd_step"),
    "leakage": ("evaluate",),
    "theory": ("hessian_block_audit",),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "synth": ("generate_synth_dataset", "eval_prompts"),
}
ORACLES = ("params.finite_diff_grad", "params.sampled_cross_hessian_max")


class SpanLog:
    """Append-only span storage with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(float("nan"))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self.stack)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def summarize(names: list[str], name: np.ndarray, parent: np.ndarray, start: np.ndarray,
              end: np.ndarray) -> dict[str, dict[str, float]]:
    """{span name: {"calls", "total_s", "self_s"}} over every recorded span."""
    dur = end - start
    own = self_times(parent, start, end)
    n = len(names)
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur, minlength=n)
    self_s = np.bincount(name, weights=own, minlength=n)
    return {
        nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, nm in enumerate(names)
    }


def _timed(log: SpanLog, name: str, fn: Callable) -> Callable:
    nid = log.name_id(name)

    def wrapper(*args, **kwargs):
        idx = log.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(idx)

    return wrapper


class Tracer:
    """Context manager: while open, traced functions record spans into ``log``."""

    def __init__(self, log: SpanLog | None = None):
        self.log = log or SpanLog()
        self.label_positions = 0  # unmasked label positions in batches built under trainer.train
        self.logit_positions = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, fns in TRACED.items():
                mod = importlib.import_module(f"routelock.{layer}")
                for fn_name in fns:
                    fn = getattr(mod, fn_name)
                    self._rebind(fn, self._wrap(f"{layer}.{fn_name}", fn))
            cls = importlib.import_module("routelock.params").ParamVector
            self._set(cls, "from_flat", _timed(self.log, "params.from_flat", cls.from_flat))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every routelock module binding of ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "routelock" or mod_name.startswith("routelock.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        log = self.log
        timed = _timed(log, name, fn)
        layer, fn_name = name.split(".", 1)
        if layer == "tensor" and fn_name in TENSOR_OPS:
            vjp_name = f"{name}.vjp"

            def op(*args, **kwargs):
                out = timed(*args, **kwargs)
                if out._vjp is not None:
                    out._vjp = _timed(log, vjp_name, out._vjp)
                return out

            return op
        if name in ORACLES:
            def oracle(loss_fn, *args, **kwargs):
                return timed(_timed(log, "params.loss_eval", loss_fn), *args, **kwargs)

            return oracle
        if name == "trainer.make_batch":
            def make_batch(*args, **kwargs):
                batch = timed(*args, **kwargs)
                if log.inside("trainer.train"):
                    self.label_positions += int(batch["label_mask"].sum())
                    self.logit_positions += int(batch["label_mask"].size)
                return batch

            return make_batch
        return timed
