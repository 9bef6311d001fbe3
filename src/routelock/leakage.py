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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .model import ModelParams, check_prompt_length, generate_batch
from .tokenizer import Route, Vocabulary, decode

DEFAULT_MARKERS = ("wait", "hmm", "alternatively")
ANSWER_MARKER = "answer:"
EVAL_BATCH = 64  # prompts per generate_batch call; bounds the KV cache's rows


@dataclass(frozen=True)
class ReflectiveLexicon:
    """Marker words counted as reflective; matched per whole token, case-insensitively."""

    markers: tuple[str, ...] = DEFAULT_MARKERS

    def __post_init__(self):
        if isinstance(self.markers, str):
            raise ValueError(f"lexicon markers must be a sequence of strings, got the single string {self.markers!r}")
        if not self.markers:
            raise ValueError("lexicon must be nonempty")
        for m in self.markers:
            if not isinstance(m, str):
                raise ValueError(f"lexicon marker {m!r} is not a string")
            if m.split() != [m]:
                raise ValueError(f"lexicon marker {m!r} is not one whitespace-free token, so it can never match")
        object.__setattr__(self, "markers", tuple(m.lower() for m in self.markers))

    @classmethod
    def load(cls, path) -> "ReflectiveLexicon":
        """The markers of ``path``, one per non-blank line; a bad lexicon raises ValueError naming the file."""
        with open(path, encoding="utf-8") as fh:
            markers = [line.strip() for line in fh if line.strip()]
        try:
            return cls(tuple(markers))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


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


def score_completions(
    pairs: Sequence[tuple[Sequence[int], str]],
    mode: Route,
    vocab: Vocabulary,
    lexicon: ReflectiveLexicon | None = None,
    n_skipped: int = 0,
) -> LeakageReport:
    """Exact-match accuracy, mean length and leakage over (completion ids, gold) pairs."""
    lexicon = lexicon or ReflectiveLexicon()
    correct, lengths, refl = 0, [], []
    for completion, gold in pairs:
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
        n_skipped=n_skipped,
    )


def evaluate(
    model: ModelParams,
    prompts_with_gold: Sequence[tuple[Sequence[int], str]],
    mode: Route,
    vocab: Vocabulary,
    lexicon: ReflectiveLexicon | None = None,
    max_new: int = 32,
    temperature: float | None = None,
    seed: int | None = None,
) -> LeakageReport:
    """Generate per prompt (greedy for ``temperature`` None) and score the completions with
    ``score_completions``.

    Prompts longer than max_seq are skipped with a warning on stderr and counted in
    ``n_skipped``; the rest are decoded ``EVAL_BATCH`` at a time by ``generate_batch``,
    which checks them, so any other bad prompt raises when its batch is reached.
    """
    kept = []
    for prompt_ids, gold in prompts_with_gold:
        try:
            kept.append((check_prompt_length(model.config, prompt_ids), gold))
        except CapacityError as exc:
            print(f"warning: skipping prompt ({exc})", file=sys.stderr)
    scored = []
    for a in range(0, len(kept), EVAL_BATCH):
        batch = kept[a : a + EVAL_BATCH]
        rows = generate_batch(model, [p for p, _ in batch], max_new, temperature, seed)
        scored += [(completion, gold) for (completion, _), (_, gold) in zip(rows, batch)]
    return score_completions(scored, mode, vocab, lexicon, n_skipped=len(prompts_with_gold) - len(kept))


# ---------------------------------------------------------------------------
# no-think candidate filtering
# ---------------------------------------------------------------------------

REJECT_CORRECTNESS = "correctness"
REJECT_LENGTH = "length"
REJECT_STYLE = "style"


def filter_no_think_candidates(
    candidates: Sequence[tuple[str, str, str]],
    max_len: int,
    lexicon: ReflectiveLexicon | None = None,
) -> list[str | None]:
    """Per (prompt, response, gold) triple, the first filter it fails, None if it passes all three.

    Filter order is correctness (extracted answer matches gold), length
    (token count <= max_len), then style (no reflective markers).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    lexicon = lexicon or ReflectiveLexicon()
    reasons = []
    for _, response, gold in candidates:
        answer = extract_answer(response)
        if answer is None or answer.strip() != str(gold).strip():
            reasons.append(REJECT_CORRECTNESS)
        elif len(response.split()) > max_len:
            reasons.append(REJECT_LENGTH)
        elif count_reflective(response, lexicon) > 0:
            reasons.append(REJECT_STYLE)
        else:
            reasons.append(None)
    return reasons


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------

METRICS = ("accuracy", "mean_length", "refl_per_answer")
REPORT_COLUMNS = ("model", "mode") + METRICS


def _report_cells(key: tuple[str, str], rep: LeakageReport) -> list[str]:
    """A report's CSV cells: its model and mode names, then each metric."""
    return [*key, *(f"{getattr(rep, m):.6g}" for m in METRICS)]


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: dict[tuple[str, str], LeakageReport]) -> str:
    return _csv_text(REPORT_COLUMNS, (_report_cells(key, rep) for key, rep in reports.items()))


def leakage_delta_table(reports: dict[tuple[str, str], LeakageReport], baseline: str) -> tuple[str, str]:
    """Per-metric deltas of each report against model ``baseline``'s report of the same mode.

    Returns (csv_text, aligned_text); a row whose mode has no baseline report gets empty
    delta cells. Raises if no report belongs to ``baseline``.
    """
    base = {mode_name: rep for (model_name, mode_name), rep in reports.items() if model_name == baseline}
    if not base:
        raise ValueError(f"baseline {baseline!r} not among reports")
    rows = []
    lines = [
        f"{'model':<16}{'mode':<10}{'acc':>8}{'len':>9}{'refl':>8}{'d_acc':>9}{'d_len':>9}{'d_refl':>9}"
    ]
    for (model_name, mode_name), rep in reports.items():
        cells, text = [""] * len(METRICS), ""
        if mode_name in base:
            da, dl, dr = deltas = [getattr(rep, m) - getattr(base[mode_name], m) for m in METRICS]
            cells, text = [f"{d:+.6g}" for d in deltas], f"{da:>+9.3f}{dl:>+9.2f}{dr:>+9.2f}"
        rows.append(_report_cells((model_name, mode_name), rep) + cells)
        lines.append(
            f"{model_name:<16}{mode_name:<10}{rep.accuracy:>8.3f}{rep.mean_length:>9.2f}"
            f"{rep.refl_per_answer:>8.2f}{text}"
        )
    return _csv_text(REPORT_COLUMNS + tuple(f"d_{m}" for m in METRICS), rows), "\n".join(lines)
