"""Whitespace tokenizer with reserved control tokens, and deterministic routing.

The vocabulary file format is one token per line, line number = id. The
five reserved specials occupy lines 0-4 in this order: <pad>, <bos>,
<eos>, /think, /no_think. Line 5 holds <unk>, the reserved id unknown
words map to. Control tokens are ordinary members of the base vocabulary
(present before any expert cloning), each a single id.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence

from .errors import read_lines

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
CTRL_THINK_TOKEN = "/think"
CTRL_NOTHINK_TOKEN = "/no_think"
UNK_TOKEN = "<unk>"

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
CTRL_THINK_ID = 3
CTRL_NOTHINK_ID = 4
UNK_ID = 5

SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, CTRL_THINK_TOKEN, CTRL_NOTHINK_TOKEN, UNK_TOKEN)


class Route(IntEnum):
    """Observed mode variable: 0 routes no-think, 1 routes think."""

    NO_THINK = 0
    THINK = 1


class Vocabulary:
    """Bijective token<->id map over a closed word-level vocabulary: the reserved tokens, then
    ``extra_tokens`` in order; an extra token that repeats one before it raises ValueError."""

    def __init__(self, extra_tokens: Sequence[str] = ()):
        tokens = [*SPECIAL_TOKENS, *extra_tokens]
        for tok in extra_tokens:
            if not tok or any(c.isspace() for c in tok):
                raise ValueError(f"invalid token {tok!r}: empty or contains whitespace")
        self.id_to_token: list[str] = tokens
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        """Closed vocabulary over every whitespace token in the corpus that is not reserved, sorted."""
        words = set()
        for text in texts:
            words.update(text.split())
        return cls(sorted(words.difference(SPECIAL_TOKENS)))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = [line.rstrip("\n") for line in read_lines(path)]
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError(f"{path}: reserved specials missing or out of order")
        try:
            return cls(tokens[len(SPECIAL_TOKENS) :])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def encode(text: str, vocab: Vocabulary) -> list[int]:
    """Whitespace-split tokens to ids; unknown words map to UNK_ID."""
    return [vocab.token_to_id.get(tok, UNK_ID) for tok in text.split()]


def encode_prompt(text: str, vocab: Vocabulary, route: Route | None = None) -> list[int]:
    """A prompt's ids: BOS, the text's ids, then ``route``'s control token when one is given."""
    ids = [BOS_ID] + encode(text, vocab)
    return ids if route is None else ids + [control_token_id(route)]


def decode(ids: Sequence[int], vocab: Vocabulary) -> str:
    """Space-joined tokens; raises IndexError on an invalid id."""
    out = []
    for i in ids:
        if i < 0 or i >= len(vocab.id_to_token):
            raise IndexError(f"token id {i} outside vocabulary of size {len(vocab)}")
        out.append(vocab.id_to_token[i])
    return " ".join(out)


def resolve_route(prompt_ids: Sequence[int]) -> Route:
    """Route selected by the last control token in the prompt; NO_THINK if none.

    Depends only on the subsequence of control-token ids, so inserting or
    removing other tokens never changes the result.
    """
    for i in reversed(prompt_ids):
        if i == CTRL_THINK_ID:
            return Route.THINK
        if i == CTRL_NOTHINK_ID:
            return Route.NO_THINK
    return Route.NO_THINK


def control_token_id(route: Route) -> int:
    return CTRL_THINK_ID if route is Route.THINK else CTRL_NOTHINK_ID
