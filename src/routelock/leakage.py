"""Leakage measurement: reflective-marker counting, accuracy, length, filtering.

The leakage metric is the mean count of reflective markers per answer
(whole-token, case-insensitive), reported alongside exact-match accuracy
and mean output length, per mode. The no-think data filter applies three
predicates in order — correctness, length, style — and labels each
rejection with the first predicate it failed.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError
from .model import DenseModel, ModelParams, check_prompt, generate_batch
from .tokenizer import Route, Vocabulary, decode

DEFAULT_MARKERS = ("wait", "hmm", "alternatively")
ANSWER_MARKER = "answer:"
EVAL_BATCH = 64  # prompts per generate_batch call; bounds the KV cache's rows


@dataclass(frozen=True)
class ReflectiveLexicon:
    """Marker words counted as reflective; matched per whole token, case-insensitively."""

    markers: tuple[str, ...] = DEFAULT_MARKERS

    def __post_init__(self):
        if not self.markers:
            raise ValueError("lexicon must be nonempty")
        object.__setattr__(self, "markers", tuple(m.lower() for m in self.markers))

    @classmethod
    def load(cls, path) -> "ReflectiveLexicon":
        with open(path, encoding="utf-8") as fh:
            markers = [line.strip() for line in fh if line.strip()]
        if not markers:
            raise ValueError(f"{path}: lexicon must be nonempty")
        return cls(tuple(markers))


def count_reflective(text: str, lexicon: ReflectiveLexicon | None = None) -> int:
    """Whole-token, case-insensitive marker occurrences ("waiting" never counts)."""
    lexicon = lexicon or ReflectiveLexicon()
    wanted = set(lexicon.markers)
    return sum(1 for tok in text.split() if tok.lower() in wanted)


def extract_answer(text: str) -> str | None:
    """Token following the final "answer:" marker, if any (final marker wins)."""
    tokens = text.split()
    for i in range(len(tokens) - 1, -1, -1):
        if tokens[i] == ANSWER_MARKER:
            return tokens[i + 1] if i + 1 < len(tokens) else None
    return None


@dataclass(frozen=True)
class LeakageReport:
    """Accuracy / mean length / reflective-per-answer triple for one mode."""

    mode: int
    accuracy: float
    mean_length: float
    refl_per_answer: float
    n_prompts: int = 0
    n_skipped: int = 0


def evaluate(
    model: ModelParams | DenseModel | Callable[[Sequence[int]], list[int]],
    prompts_with_gold: Sequence[tuple[Sequence[int], str]],
    mode: Route,
    vocab: Vocabulary,
    lexicon: ReflectiveLexicon | None = None,
    max_new: int = 32,
    sampler: str = "greedy",
    temperature: float = 1.0,
    seed: int | None = None,
) -> LeakageReport:
    """Generate per prompt and score exact-match accuracy, length, leakage.

    Prompts are decoded ``EVAL_BATCH`` at a time by ``generate_batch``; ``model`` may
    also be a callable prompt_ids -> completion ids (stub models for tests). Prompts
    longer than the model's capacity are skipped with a warning on stderr and
    counted in ``n_skipped``; any other error propagates.
    """
    lexicon = lexicon or ReflectiveLexicon()
    if callable(model):
        scored = [(model(prompt_ids), gold) for prompt_ids, gold in prompts_with_gold]
    else:
        kept = []
        for prompt_ids, gold in prompts_with_gold:
            try:
                kept.append((check_prompt(model.config, prompt_ids), gold))
            except CapacityError as exc:
                print(f"warning: skipping prompt ({exc})", file=sys.stderr)
        scored = []
        for a in range(0, len(kept), EVAL_BATCH):
            batch = kept[a : a + EVAL_BATCH]
            rows = generate_batch(model, [p for p, _ in batch], max_new, sampler, temperature, seed)
            scored += [(completion, gold) for (completion, _), (_, gold) in zip(rows, batch)]
    correct, lengths, refl = 0, [], []
    for completion, gold in scored:
        text = decode(completion, vocab)
        lengths.append(len(completion))
        refl.append(count_reflective(text, lexicon))
        answer = extract_answer(text)
        if answer is not None and answer.strip() == str(gold).strip():
            correct += 1
    n = len(lengths)
    return LeakageReport(
        mode=int(mode),
        accuracy=correct / n if n else 0.0,
        mean_length=float(np.mean(lengths)) if lengths else 0.0,
        refl_per_answer=float(np.mean(refl)) if refl else 0.0,
        n_prompts=n,
        n_skipped=len(prompts_with_gold) - n,
    )


# ---------------------------------------------------------------------------
# no-think candidate filtering
# ---------------------------------------------------------------------------

REJECT_CORRECTNESS = "correctness"
REJECT_LENGTH = "length"
REJECT_STYLE = "style"


@dataclass(frozen=True)
class FilterVerdict:
    index: int
    kept: bool
    reason: str | None

    def as_dict(self) -> dict:
        return {"index": self.index, "verdict": "kept" if self.kept else "rejected", "reason": self.reason}


def filter_no_think_candidates(
    candidates: Sequence[tuple[str, str, str]],
    max_len: int,
    lexicon: ReflectiveLexicon | None = None,
) -> tuple[list[tuple[str, str, str]], list[tuple[int, tuple[str, str, str], str]]]:
    """Keep (prompt, response, gold) triples passing all three filters.

    Filter order is correctness (extracted answer matches gold), length
    (token count <= max_len), then style (no reflective markers); a
    rejection is labeled with the first filter it failed.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    lexicon = lexicon or ReflectiveLexicon()
    kept, rejected = [], []
    for i, triple in enumerate(candidates):
        prompt, response, gold = triple
        answer = extract_answer(response)
        if answer is None or answer.strip() != str(gold).strip():
            rejected.append((i, triple, REJECT_CORRECTNESS))
        elif len(response.split()) > max_len:
            rejected.append((i, triple, REJECT_LENGTH))
        elif count_reflective(response, lexicon) > 0:
            rejected.append((i, triple, REJECT_STYLE))
        else:
            kept.append(triple)
    return kept, rejected


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("model", "mode", "accuracy", "mean_length", "refl_per_answer")


def reports_to_csv(reports: dict[tuple[str, str], LeakageReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS)
    for (model_name, mode_name), rep in reports.items():
        writer.writerow(
            [model_name, mode_name, f"{rep.accuracy:.6g}", f"{rep.mean_length:.6g}", f"{rep.refl_per_answer:.6g}"]
        )
    return buf.getvalue()


def leakage_delta_table(
    reports: dict[tuple[str, str], LeakageReport], baseline: tuple[str, str]
) -> tuple[str, str]:
    """Per-metric deltas against a designated baseline report.

    Returns (csv_text, aligned_text). Raises if the baseline key is missing.
    """
    if baseline not in reports:
        raise ValueError(f"baseline {baseline!r} not among reports")
    base = reports[baseline]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS + ("d_accuracy", "d_mean_length", "d_refl_per_answer"))
    lines = [
        f"{'model':<16}{'mode':<10}{'acc':>8}{'len':>9}{'refl':>8}{'d_acc':>9}{'d_len':>9}{'d_refl':>9}"
    ]
    for (model_name, mode_name), rep in reports.items():
        da = rep.accuracy - base.accuracy
        dl = rep.mean_length - base.mean_length
        dr = rep.refl_per_answer - base.refl_per_answer
        writer.writerow(
            [
                model_name,
                mode_name,
                f"{rep.accuracy:.6g}",
                f"{rep.mean_length:.6g}",
                f"{rep.refl_per_answer:.6g}",
                f"{da:+.6g}",
                f"{dl:+.6g}",
                f"{dr:+.6g}",
            ]
        )
        lines.append(
            f"{model_name:<16}{mode_name:<10}{rep.accuracy:>8.3f}{rep.mean_length:>9.2f}"
            f"{rep.refl_per_answer:>8.2f}{da:>+9.3f}{dl:>+9.2f}{dr:>+9.2f}"
        )
    return buf.getvalue(), "\n".join(lines)


def write_filter_audit(path, verdicts: Sequence[FilterVerdict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(json.dumps(v.as_dict(), sort_keys=True) + "\n")
