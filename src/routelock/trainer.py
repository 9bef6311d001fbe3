"""Routing-conditioned supervised fine-tuning.

Batches are mode-pure (the decoder takes a single route per forward
pass) and the schedule alternates no-think/think batches while both
pools have work left. Each step moves only its mode's expert, which makes
the divergence identity exact: under plain SGD the expert gap
beta1 - beta0 equals minus the learning rate times the sum, over every
step so far, of the think steps' expert gradients minus the no-think
steps' ones. Momentum is available for convergence speed but breaks that
identity, so the log only sums it for plain SGD.

Loss is per-token mean within an example and example-mean within a
batch by default; ``token_sum`` is exposed for the length-asymmetry
study. The loss mask covers the full target including the end token;
prompt and control tokens contribute no loss.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_field
from .model import (
    DenseModel,
    ModelParams,
    _swiglu_at,
    decoder_logits,
    mlp_dispatch,
    mlp_prefix,
    segment_group,
)
from .params import ParamVector, as_leaves, value_and_grad
from .tensor import Tensor, add, mul, no_grad, softmax_cross_entropy
from .tokenizer import (
    CTRL_NOTHINK_ID,
    CTRL_THINK_ID,
    EOS_ID,
    PAD_ID,
    Route,
    Vocabulary,
    control_token_id,
    encode,
    encode_prompt,
    resolve_route,
)


@dataclass(frozen=True)
class ChatExample:
    """One supervised example: prompt ids ending in a control token, target ids, and the mode
    the prompt routes to; a prompt that routes to the other mode, or empty target ids, raise DataError."""

    prompt_ids: tuple[int, ...]
    target_ids: tuple[int, ...]
    mode: Route

    def __post_init__(self):
        route = resolve_route(self.prompt_ids)
        if route is not self.mode:
            raise DataError(f"prompt routes to {int(route)} but is tagged mode {int(self.mode)}")
        if not self.target_ids:
            raise DataError("target_ids is empty: an example needs at least one target token to train on")

    @classmethod
    def build(cls, prompt_ids: Sequence[int], target_ids: Sequence[int], mode: Route) -> "ChatExample":
        return cls(tuple(prompt_ids), tuple(target_ids), Route(mode))

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.prompt_ids + self.target_ids

    @property
    def loss_mask(self) -> tuple[bool, ...]:
        """True on the target's positions: the prompt and its control token carry no loss."""
        return (False,) * len(self.prompt_ids) + (True,) * len(self.target_ids)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int = 1
    batch_size: int = 8
    seed: int = 0
    optimizer: str = "sgd"  # sgd | sgd_momentum
    momentum: float = 0.9
    reduction: str = "example_mean"  # example_mean | token_sum
    shuffle: bool = True
    update_segments: str = "all"  # all | experts_only (freezes the shared backbone)
    grad_clip: float | None = None  # global-norm clip; breaks the exact step identities

    def __post_init__(self):
        check_field(self, "learning_rate", numbers.Real, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
        check_field(self, "momentum", numbers.Real, lambda v: 0 <= v < 1, "a number in [0, 1)")
        if self.grad_clip is not None:
            check_field(self, "grad_clip", numbers.Real, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
        check_field(self, "epochs", numbers.Integral, lambda v: v >= 1, "an integer >= 1")
        check_field(self, "batch_size", numbers.Integral, lambda v: v >= 1, "an integer >= 1")
        check_field(self, "seed", numbers.Integral, lambda v: v >= 0, "an integer >= 0")
        if not isinstance(self.shuffle, bool):
            raise ConfigError(f"shuffle must be true or false, got {self.shuffle!r}")
        for name, choices in (("optimizer", ("sgd", "sgd_momentum")), ("reduction", ("example_mean", "token_sum")),
                              ("update_segments", ("all", "experts_only"))):
            check_field(self, name, str, lambda v: v in choices, "one of " + ", ".join(map(repr, choices)))


def make_batch(examples: Sequence[ChatExample]) -> dict:
    """Pad to a rectangle and shift: inputs predict the next token."""
    width = max(len(ex.tokens) for ex in examples)
    n = len(examples)
    tokens = np.full((n, width), PAD_ID, dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    for i, ex in enumerate(examples):
        seq = ex.tokens
        tokens[i, : len(seq)] = seq
        mask[i, : len(seq)] = ex.loss_mask
    return {
        "inputs": tokens[:, :-1],
        "labels": tokens[:, 1:],
        "label_mask": mask[:, 1:],
    }


def batch_loss_fn(model: ModelParams | DenseModel, route: Route | None, reduction: str):
    """Loss closure over parameter leaves, for value_and_grad. Logits start at the batch's first
    column with loss: earlier columns weigh 0 in every reduction, so the objective is unchanged."""
    cfg = model.config

    def loss_fn(leaves: Mapping[str, Tensor], batch: dict) -> Tensor:
        mask = batch["label_mask"]
        # argmax finds the first True; with no loss column at all it is 0, and cross-entropy raises
        first = int(np.argmax(np.any(mask, axis=0))) if mask.size else 0
        logits = decoder_logits(cfg, leaves, batch["inputs"], mlp_dispatch(model, leaves, route), first)
        return softmax_cross_entropy(logits, batch["labels"][:, first:], mask[:, first:], reduction=reduction)

    return loss_fn


def split_by_mode(dataset: Sequence[ChatExample]) -> tuple[list[ChatExample], list[ChatExample]]:
    d0 = [ex for ex in dataset if ex.mode is Route.NO_THINK]
    d1 = [ex for ex in dataset if ex.mode is Route.THINK]
    return d0, d1


def mode_weights(dataset: Sequence[ChatExample]) -> tuple[float, float]:
    if not dataset:
        raise ValueError("dataset is empty")
    d0, d1 = split_by_mode(dataset)
    return len(d0) / len(dataset), len(d1) / len(dataset)


def two_mode_loss_fn(
    model: ModelParams | DenseModel,
    dataset: Sequence[ChatExample],
    reduction: str = "example_mean",
):
    """The training objective pi0 * L0 + pi1 * L1 as one closure over parameter leaves.

    pi_m is mode m's share of the examples and L_m the loss of all of
    mode m's examples as one batch; a mode with no examples has no term.
    The closure ignores its batch argument.
    """
    terms = [(batch_loss_fn(model, Route(r), reduction), make_batch(part), pi)
             for r, (part, pi) in enumerate(zip(split_by_mode(dataset), mode_weights(dataset))) if part]

    def loss_fn(leaves: Mapping[str, Tensor], _batch) -> Tensor:
        return functools.reduce(add, (mul(mode_fn(leaves, batch), pi) for mode_fn, batch, pi in terms))

    return loss_fn


def mode_loss(
    model: ModelParams | DenseModel,
    dataset: Sequence[ChatExample],
    reduction: str = "example_mean",
) -> float:
    """Value of the two-mode objective; on one mode's examples, that mode's batch loss."""
    with no_grad():
        return float(two_mode_loss_fn(model, dataset, reduction)(as_leaves(model.params), None).data)


def mode_loss_grad(
    model: ModelParams | DenseModel,
    dataset: Sequence[ChatExample],
    reduction: str = "example_mean",
) -> tuple[float, ParamVector]:
    """Value and gradient of the two-mode objective through a single graph."""
    return value_and_grad(two_mode_loss_fn(model, dataset, reduction), model.params, None)


def sgd_step(params: ParamVector, grads: ParamVector, learning_rate: float) -> ParamVector:
    """p <- p - lr * g per coordinate."""
    return params.add_scaled(grads, -learning_rate)


# ---------------------------------------------------------------------------
# trajectory log
# ---------------------------------------------------------------------------


@dataclass
class StepRecord:
    step: int
    mode: int
    loss: float
    active_grad_norm: float
    expert_gap_norm: float
    cum_grad_diff_norm: float


@dataclass
class TrajectoryLog:
    """Per-step training records plus the running sum of signed expert gradients.

    ``cum_grad_diff`` maps expert-local segment suffixes (e.g.
    ``layer0.w_gate``) to the running sum of the active expert's batch
    gradient, added on think steps and subtracted on no-think steps, over
    every plain-SGD step. Trained from a clone (gap 0) under plain SGD,
    beta1 - beta0 equals -learning_rate times that sum after every step.
    """

    learning_rate: float
    records: list[StepRecord] = field(default_factory=list)
    cum_grad_diff: dict[str, np.ndarray] = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            names = [f.name for f in fields(StepRecord)]
            writer.writerow(names)
            for r in self.records:
                values = (getattr(r, n) for n in names)
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in values])

    def predicted_expert_gap(self) -> dict[str, np.ndarray]:
        """-lr * cumulative (g1 - g0), per expert-local suffix."""
        return {k: -self.learning_rate * v for k, v in self.cum_grad_diff.items()}


def _norm(arrays) -> float:
    """Euclidean norm over all entries of ``arrays``; 0.0 when there are none."""
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def _expert_slice(pv: ParamVector, expert: int) -> dict[str, np.ndarray]:
    """Expert ``expert``'s segments, keyed by expert-local suffix (e.g. ``layer0.w_gate``)."""
    tag = f".expert{expert}."
    return {n.replace(tag, "."): a for n, a in pv.items() if tag in n}


def expert_gap(params: ParamVector) -> dict[str, np.ndarray]:
    """beta1 - beta0, keyed by expert-local suffix."""
    beta0 = _expert_slice(params, 0)
    return {k: b1 - beta0[k] for k, b1 in _expert_slice(params, 1).items()}


def train(
    model: ModelParams | DenseModel,
    dataset: Sequence[ChatExample],
    cfg: TrainConfig,
    epoch_callback: Callable[[int, float, float], None] | None = None,
) -> tuple[ModelParams | DenseModel, TrajectoryLog]:
    """Mode-pure alternating-batch training; deterministic under the seed.

    Returns a new model of the same kind plus the trajectory log. When
    both mode pools are nonempty the schedule strictly alternates
    no-think/think batches; leftover batches of the larger pool follow.
    Each step logs the norm of the active expert's gradient (of every
    gradient for the dense model, which has no experts); under plain SGD
    a routed model also adds the step's expert gradient to the log's sum,
    with sign + on think steps and - on no-think steps.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    params = model.params.copy()
    log = TrajectoryLog(learning_rate=cfg.learning_rate)
    velocity = params.zeros_like() if cfg.optimizer == "sgd_momentum" else None
    pools = split_by_mode(dataset)
    rngs = [np.random.default_rng([cfg.seed, m]) for m in (0, 1)]
    for epoch in range(cfg.epochs):
        chunks = []
        for pool, rng in zip(pools, rngs):
            pool = list(pool)
            if cfg.shuffle:
                rng.shuffle(pool)
            chunks.append([pool[i : i + cfg.batch_size] for i in range(0, len(pool), cfg.batch_size)])
        for batch in (b for pair in itertools.zip_longest(*chunks) for b in pair if b):
            route = batch[0].mode
            loss, grads = mode_loss_grad(model.with_params(params), batch, cfg.reduction)
            if cfg.grad_clip is not None and (gnorm := grads.norm()) > cfg.grad_clip:
                grads = ParamVector((n, g * (cfg.grad_clip / gnorm)) for n, g in grads.items())

            expert = model.expert_index(route)
            active = dict(grads.items()) if expert is None else _expert_slice(grads, expert)
            if cfg.optimizer == "sgd" and expert is not None:
                sign = 1.0 if route is Route.THINK else -1.0
                for suffix, g in active.items():
                    log.cum_grad_diff[suffix] = log.cum_grad_diff.get(suffix, 0.0) + sign * g

            if cfg.update_segments == "experts_only":
                grads = ParamVector(
                    (n, g if segment_group(n) != "alpha" else np.zeros_like(g)) for n, g in grads.items()
                )
            if velocity is not None:
                grads = velocity = grads.add_scaled(velocity, cfg.momentum)
            params = sgd_step(params, grads, cfg.learning_rate)
            log.records.append(
                StepRecord(
                    step=len(log.records),
                    mode=int(route),
                    loss=loss,
                    active_grad_norm=_norm(active.values()),
                    expert_gap_norm=_norm(expert_gap(params).values()),
                    cum_grad_diff_norm=_norm(log.cum_grad_diff.values()),
                )
            )

        if epoch_callback is not None:
            final = model.with_params(params)
            epoch_callback(epoch, *(mode_loss(final, p, cfg.reduction) if p else float("nan") for p in pools))

    return model.with_params(params), log


# ---------------------------------------------------------------------------
# token-level routing contrast
# ---------------------------------------------------------------------------


def token_level_route_variant(
    model: ModelParams, example: ChatExample, token_routes: Sequence[int]
) -> tuple[float, ParamVector]:
    """Gradients when each input position picks its own expert.

    ``token_routes`` aligns with the shifted input positions (length
    len(tokens) - 1). With a constant route this reproduces the
    sequence-level gradients; with mixed routes both expert partitions
    receive gradient, which is exactly the contrast the sequence-level
    design avoids.
    """
    batch = make_batch([example])
    routes = np.asarray(token_routes, dtype=np.int64)
    if routes.shape != (batch["inputs"].shape[1],):
        raise ValueError(
            f"token_routes must have length {batch['inputs'].shape[1]}, got {routes.shape}"
        )
    m1 = (routes == 1).astype(np.float64)[None, :, None]
    m0 = 1.0 - m1
    cfg = model.config

    def loss_fn(leaves: Mapping[str, Tensor], batch: dict) -> Tensor:
        def apply(layer: int, h: Tensor) -> Tensor:
            f0, f1 = (_swiglu_at(leaves, mlp_prefix(layer, r), h) for r in (0, 1))
            return add(mul(f0, m0), mul(f1, m1))

        logits = decoder_logits(cfg, leaves, batch["inputs"], apply)
        return softmax_cross_entropy(
            logits, batch["labels"], batch["label_mask"], reduction="example_mean"
        )

    return value_and_grad(loss_fn, model.params, batch)


# ---------------------------------------------------------------------------
# dataset file format
# ---------------------------------------------------------------------------

MODE_NAMES = {"no_think": Route.NO_THINK, "think": Route.THINK}


def read_jsonl(path):
    """Yield (f"{path}:{line}", record) for each non-blank line of a JSONL file.

    Raises DataError, naming the line, on invalid JSON or a record that is
    not a JSON object.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{where}: record must be a JSON object")
            yield where, record


def record_mode(record: dict, where: str = "record") -> Route:
    """The route a record's "mode" names; anything but a name in MODE_NAMES is a DataError."""
    try:
        return MODE_NAMES[record.get("mode")]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{where}: mode must be one of {sorted(MODE_NAMES)}") from exc


def record_fields(record: dict, where: str = "record") -> tuple[Route, str, str]:
    """(mode, prompt, target) of a {"prompt","target","mode",["answer"]} record, checked."""
    mode = record_mode(record, where)
    for key in ("prompt", "target"):
        if not isinstance(record.get(key), str):
            raise DataError(f"{where}: {key!r} must be a string")
    return mode, record["prompt"], record["target"]


def example_from_record(
    record: dict, vocab: Vocabulary, where: str = "record"
) -> tuple[ChatExample, str | None]:
    """Build a ChatExample from one {"prompt","target","mode",["answer"]} record.

    Prompts get a leading BOS; the mode's control token is appended when
    no control token is present, and prompts that route differently than
    tagged are rejected.
    """
    mode, prompt_text, target_text = record_fields(record, where)
    prompt = encode_prompt(prompt_text, vocab)
    if not any(t in (CTRL_THINK_ID, CTRL_NOTHINK_ID) for t in prompt):
        prompt.append(control_token_id(mode))
    target = encode(target_text, vocab) + [EOS_ID]
    try:
        return ChatExample.build(prompt, target, mode), record.get("answer")
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def load_dataset_jsonl(path, vocab: Vocabulary) -> tuple[list[ChatExample], list[str | None]]:
    """Examples and gold answers (None where absent) of a JSONL dataset file."""
    pairs = [example_from_record(record, vocab, where) for where, record in read_jsonl(path)]
    return [ex for ex, _ in pairs], [answer for _, answer in pairs]
