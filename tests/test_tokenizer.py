import numpy as np
import pytest

from routelock.tokenizer import (
    CTRL_NOTHINK_ID,
    CTRL_NOTHINK_TOKEN,
    CTRL_THINK_ID,
    CTRL_THINK_TOKEN,
    SPECIAL_TOKENS,
    UNK_ID,
    Route,
    Vocabulary,
    decode,
    encode,
    resolve_route,
)


@pytest.fixture
def vocab():
    return Vocabulary(["a", "b", "c", "hello", "world"])


def test_encode_with_control_token(vocab):
    ids = encode("a b /think", vocab)
    assert ids == [vocab.token_to_id["a"], vocab.token_to_id["b"], CTRL_THINK_ID]


def test_encode_empty(vocab):
    assert encode("", vocab) == []


def test_encode_unknown_maps_to_unk(vocab):
    assert encode("zzz", vocab) == [UNK_ID]


def test_decode_empty(vocab):
    assert decode([], vocab) == ""


def test_decode_control_token(vocab):
    assert decode([CTRL_NOTHINK_ID], vocab) == CTRL_NOTHINK_TOKEN


def test_decode_invalid_id(vocab):
    with pytest.raises(IndexError):
        decode([len(vocab)], vocab)


def test_roundtrip_on_corpus(vocab):
    corpus = ["a b c", "hello world /think", "  a   hello ", "/no_think b"]
    for text in corpus:
        normalized = " ".join(text.split())
        assert decode(encode(text, vocab), vocab) == normalized


def test_roundtrip_on_generated_corpus():
    from routelock.synth import SynthTaskSpec, synth_records, task_vocabulary

    spec = SynthTaskSpec(modulus=8, n_problems=25, seed=4)
    task_vocab = task_vocabulary(spec)
    for record in synth_records(spec):
        for text in (record["prompt"], record["target"]):
            assert decode(encode(text, task_vocab), task_vocab) == " ".join(text.split())


def test_resolve_route_final_think(vocab):
    w = vocab.token_to_id["a"]
    assert resolve_route([w, w, CTRL_THINK_ID]) is Route.THINK


def test_resolve_route_default_no_think(vocab):
    w = vocab.token_to_id["a"]
    assert resolve_route([w, w]) is Route.NO_THINK
    assert resolve_route([]) is Route.NO_THINK


def test_resolve_route_last_wins(vocab):
    w = vocab.token_to_id["b"]
    assert resolve_route([CTRL_THINK_ID, w, CTRL_NOTHINK_ID, w]) is Route.NO_THINK
    assert resolve_route([CTRL_NOTHINK_ID, w, CTRL_THINK_ID]) is Route.THINK


def test_route_depends_only_on_control_subsequence(vocab):
    rng = np.random.default_rng(0)
    words = [vocab.token_to_id[t] for t in ("a", "b", "c")]
    for _ in range(50):
        ctrl = list(rng.choice([CTRL_THINK_ID, CTRL_NOTHINK_ID], size=rng.integers(0, 4)))
        padded = []
        for c in ctrl:
            padded.extend(rng.choice(words, size=rng.integers(0, 3)))
            padded.append(c)
        padded.extend(rng.choice(words, size=rng.integers(0, 3)))
        assert resolve_route(padded) == resolve_route(ctrl)


def test_append_think_then_nothink_always_zero(vocab):
    prefixes = [[], [CTRL_THINK_ID], [vocab.token_to_id["a"], CTRL_NOTHINK_ID]]
    for prefix in prefixes:
        assert resolve_route(prefix + [CTRL_THINK_ID, CTRL_NOTHINK_ID]) is Route.NO_THINK


def test_appending_non_control_is_idempotent(vocab):
    w = vocab.token_to_id["c"]
    for seq in ([CTRL_THINK_ID], [w], [CTRL_NOTHINK_ID, w]):
        assert resolve_route(seq + [w, w]) == resolve_route(seq)


def test_vocab_file_roundtrip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert tuple(lines[: len(SPECIAL_TOKENS)]) == SPECIAL_TOKENS
    again = Vocabulary.load(path)
    assert again.id_to_token == vocab.id_to_token


def test_vocab_load_rejects_bad_specials(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\nc\nd\ne\nf\n")
    with pytest.raises(ValueError, match="reserved"):
        Vocabulary.load(path)


def test_vocab_load_rejects_a_repeated_reserved_token(tmp_path):
    # line number = id, so "b" on line 8 cannot load as id 7 with the repeated "<pad>" dropped
    path = tmp_path / "vocab.txt"
    path.write_text("".join(t + "\n" for t in (*SPECIAL_TOKENS, "a", "<pad>", "b")))
    with pytest.raises(ValueError, match=r"vocab\.txt: duplicate"):
        Vocabulary.load(path)


def test_vocab_from_texts_leaves_reserved_tokens_at_their_ids():
    v = Vocabulary.from_texts(["x /think y", "<unk> z /no_think", "<pad> y"])
    assert v.id_to_token == [*SPECIAL_TOKENS, "x", "y", "z"]


def test_vocab_from_texts_is_sorted_and_closed():
    v = Vocabulary.from_texts(["b a", "c a"])
    extras = v.id_to_token[len(SPECIAL_TOKENS):]
    assert extras == sorted(extras)
    assert "a" in v and "c" in v


def test_control_tokens_are_single_ids(vocab):
    assert vocab.token_to_id[CTRL_THINK_TOKEN] == CTRL_THINK_ID
    assert vocab.token_to_id[CTRL_NOTHINK_TOKEN] == CTRL_NOTHINK_ID


def test_vocab_rejects_whitespace_tokens():
    with pytest.raises(ValueError):
        Vocabulary(["a b"])
