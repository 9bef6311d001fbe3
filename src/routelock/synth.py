"""Seeded modular-arithmetic task: paired think / no-think supervision.

Each problem asks for (a + b) mod m. The think target walks through the
sum with reflective markers before stating the answer; the no-think
target states the answer directly. Problems are sampled with
replacement from the full (a, b) grid, so evaluation sets drawn with a
different seed are fresh prompts from the same family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leakage import ANSWER_MARKER, DEFAULT_MARKERS
from .tokenizer import Route, Vocabulary, encode_prompt
from .trainer import ChatExample, example_from_record


@dataclass(frozen=True)
class SynthTaskSpec:
    """Modular-addition QA family; every example has a checkable gold answer."""

    modulus: int = 10
    n_problems: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.n_problems < 1:
            raise ValueError("n_problems must be >= 1")


def task_vocabulary(spec: SynthTaskSpec) -> Vocabulary:
    numbers = [str(i) for i in range(2 * spec.modulus - 1)]
    words = ["compute", "plus", "mod", "is", "gives", ANSWER_MARKER, *DEFAULT_MARKERS]
    return Vocabulary(sorted(set(numbers + words)))


def _problem(rng: np.random.Generator, m: int) -> tuple[int, int, int, int]:
    a = int(rng.integers(0, m))
    b = int(rng.integers(0, m))
    return a, b, a + b, (a + b) % m


def prompt_text(a: int, b: int, m: int) -> str:
    return f"compute {a} plus {b} mod {m}"


def think_target_text(a: int, b: int, s: int, r: int, m: int, rng: np.random.Generator) -> str:
    # the indices rng.choice(DEFAULT_MARKERS, size=2) draws, without making an array of the tuple
    i, j = rng.integers(0, len(DEFAULT_MARKERS), size=2)
    return f"{DEFAULT_MARKERS[i]} {a} plus {b} is {s} {DEFAULT_MARKERS[j]} mod {m} gives {r} {ANSWER_MARKER} {r}"


def no_think_target_text(r: int) -> str:
    return f"{ANSWER_MARKER} {r}"


def synth_records(spec: SynthTaskSpec) -> list[dict]:
    """Paired JSONL-style records, one think and one no-think per problem."""
    rng = np.random.default_rng(spec.seed)
    records = []
    for _ in range(spec.n_problems):
        a, b, s, r = _problem(rng, spec.modulus)
        prompt = prompt_text(a, b, spec.modulus)
        records.append(
            {
                "prompt": prompt,
                "target": think_target_text(a, b, s, r, spec.modulus, rng),
                "mode": "think",
                "answer": str(r),
            }
        )
        records.append(
            {"prompt": prompt, "target": no_think_target_text(r), "mode": "no_think", "answer": str(r)}
        )
    return records


def generate_synth_dataset(
    spec: SynthTaskSpec, vocab: Vocabulary | None = None
) -> tuple[list[ChatExample], Vocabulary]:
    """Paired ChatExamples (1:1 mode ratio), deterministic under the seed."""
    vocab = vocab or task_vocabulary(spec)
    examples = []
    for i, record in enumerate(synth_records(spec)):
        ex, _ = example_from_record(record, vocab, where=f"synth[{i}]")
        examples.append(ex)
    return examples, vocab


def eval_prompts(
    spec: SynthTaskSpec, n: int, seed: int, mode: Route, vocab: Vocabulary
) -> list[tuple[list[int], str]]:
    """Fresh (prompt ids, gold answer) pairs for one mode."""
    rng = np.random.default_rng(seed)
    problems = [_problem(rng, spec.modulus) for _ in range(n)]
    return [(encode_prompt(prompt_text(a, b, spec.modulus), vocab, mode), str(r)) for a, b, _, r in problems]
