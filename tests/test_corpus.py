"""Normalization, tokenization, vocabulary and batching tests."""

import ast
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrg import corpus
from fcrg.corpus import (
    BOS,
    EOS,
    PAD,
    UNK,
    EncodedPair,
    RawPair,
    SplitSpec,
    Vocabulary,
    batches,
    build_vocabulary,
    corpus_statistics,
    encode_pair,
    make_batch,
    normalize,
    read_dataset,
    read_lines,
    split_dataset,
    tokenize,
    write_dataset,
    write_text,
)

GAZ = frozenset({"Obama", "Barack", "Clinton"})


# ---------------------------------------------------------------- normalize


def test_normalize_url():
    assert normalize("see https://t.co/abc123 now") == "see url now"
    assert normalize("at www.snopes.com/fact") == "at url"


def test_normalize_mention():
    assert normalize("@realDonald said so") == "@user said so"


def test_normalize_person_run_collapses():
    assert normalize("Barack Obama spoke", GAZ) == "<person> spoke"


def test_normalize_person_requires_gazetteer_and_capital():
    assert normalize("Barack Obama spoke") == "barack obama spoke"
    assert normalize("obama spoke", GAZ) == "obama spoke"


def test_normalize_person_keeps_surrounding_punctuation():
    assert normalize('"Obama," they said', GAZ) == '"<person>," they said'.replace('"', "")


def test_normalize_numbers():
    assert normalize("over 1,000 people") == "over <number> people"
    assert normalize("3.5% rise in 2016.") == "<number> rise in <number>."


def test_normalize_strips_disallowed_chars():
    assert normalize("so cool ❤️ #tag") == "so cool tag"


def test_normalize_lowercases():
    assert normalize("FAKE News") == "fake news"


def test_normalize_idempotent_on_fixtures():
    samples = [
        "RT @user: Obama gave 150% https://t.co/x — FALSE!",
        "it's been debunked, see www.snopes.com",
        "100,000 shares?!",
    ]
    for s in samples:
        once = normalize(s, GAZ)
        assert normalize(once, GAZ) == once


# Fragments that rewrite rules can glue into a fresh match on a second pass:
# a number glued to a t.co link became "<number>t.co/..." and then "<number> url".
_GLUE = ["3.14", "7", ",5", "t.co/", "T.CO/x", "www.", "http://", "@", "ab", "Obama", " ", ".", "<", ">", "\u00e9"]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=80), st.lists(st.sampled_from(_GLUE), max_size=12).map("".join)))
@example("3.14t.co/abc")
@example("@3t.co/x 1,5t.co/y")
def test_normalize_idempotent(text):
    once = normalize(text, GAZ)
    assert normalize(once, GAZ) == once


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_normalize_output_alphabet(text):
    allowed = set("abcdefghijklmnopqrstuvwxyz0123456789 .,!?':;-@<>/")
    assert set(normalize(text)) <= allowed


# ---------------------------------------------------------------- tokenize


def test_tokenize_detaches_punctuation():
    assert tokenize("really? yes.") == ["really", "?", "yes", "."]


def test_tokenize_keeps_internal_apostrophe():
    assert tokenize("it's fake") == ["it's", "fake"]


def test_tokenize_placeholders_survive():
    text = normalize("@who shared https://x.co 42 times", frozenset())
    toks = tokenize(text)
    assert "@user" in toks and "url" in toks and "<number>" in toks


def test_tokenize_leading_and_trailing_runs():
    assert tokenize("...wow!!") == [".", ".", ".", "wow", "!", "!"]


def test_tokenize_empty():
    assert tokenize("") == []


# ---------------------------------------------------------------- vocabulary


def make_vocab():
    docs = [["a", "b", "a"], ["a", "b", "c"], ["a", "b", "c"], ["d"]]
    return build_vocabulary(docs, min_count=3)


def test_vocabulary_reserved_ids():
    v = make_vocab()
    assert v.id_to_token[:4] == ["<pad>", "<s>", "</s>", "<unk>"]
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)


def test_vocabulary_frequency_order():
    v = make_vocab()
    # a:4, b:3 kept; c:2, d:1 dropped
    assert v.id_to_token[4:] == ["a", "b"]


def test_vocabulary_tie_breaks_lexicographic():
    docs = [["z", "a"]] * 3
    v = build_vocabulary(docs, min_count=3)
    assert v.id_to_token[4:] == ["a", "z"]


def test_vocabulary_min_count_boundary():
    docs = [["x"], ["x"], ["x"]]
    assert "x" in build_vocabulary(docs, min_count=3)
    assert "x" not in build_vocabulary(docs + [["y"]], min_count=4)


def test_encode_unknown_maps_to_unk():
    v = make_vocab()
    assert v.encode(["a", "zzz"]) == [v.token_to_id["a"], UNK]


def test_vocabulary_roundtrip(tmp_path):
    v = make_vocab()
    path = tmp_path / "vocab.tsv"
    v.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.token_to_id == v.token_to_id
    assert loaded.counts == v.counts


def test_vocabulary_load_rejects_sparse_ids(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("<pad>\t0\t0\n<s>\t5\t0\n")
    with pytest.raises(ValueError, match="line 2"):
        Vocabulary.load(path)


@pytest.mark.parametrize("line", ["<s>\tx\t0", "<s>\t1\tmany"])
def test_vocabulary_load_names_line_of_bad_integer(tmp_path, line):
    path = tmp_path / "bad.tsv"
    path.write_text(f"<pad>\t0\t0\n{line}\n")
    with pytest.raises(ValueError, match=r"bad\.tsv: line 2: id and count must be integers"):
        Vocabulary.load(path)


def test_vocabulary_load_rejects_duplicate_token(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("<pad>\t0\t0\n<s>\t1\t0\n</s>\t2\t0\n<unk>\t3\t0\nfoo\t4\t2\nfoo\t5\t1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 6: duplicate token 'foo'$"):
        Vocabulary.load(path)


RESERVED_ROWS = "<pad>\t0\t0\n<s>\t1\t0\n</s>\t2\t0\n<unk>\t3\t0\n"


@pytest.mark.parametrize("body, message", [
    (RESERVED_ROWS + "\nfoo\t4\n", "line 6: expected 3 tab-separated fields"),
    (RESERVED_ROWS + "\nfoo\t4\t1\textra\n", "line 6: expected 3 tab-separated fields"),
    (RESERVED_ROWS + "\nfoo\tfour\t1\n", "line 6: id and count must be integers, got 'four' and '1'"),
    (RESERVED_ROWS + "\nfoo\t4\t1.5\n", "line 6: id and count must be integers, got '4' and '1.5'"),
    (RESERVED_ROWS + "\nfoo\t5\t1\n", "line 6: ids must be dense and in order"),
    (RESERVED_ROWS + "\n<s>\t4\t1\n", "line 6: duplicate token '<s>'"),
    ("<pad>\t0\t0\n\n</s>\t1\t0\n<s>\t2\t0\n<unk>\t3\t0\n", "reserved tokens missing or out of order"),
    ("\nfoo\t0\t1\n", "reserved tokens missing or out of order"),
], ids=["two_fields", "four_fields", "bad_id", "bad_count", "sparse_id", "duplicate", "reserved_order", "reserved_missing"])
def test_vocabulary_load_names_the_fault_and_its_line(tmp_path, body, message):
    # A blank line precedes each fault: line numbers count blank lines too.
    path = tmp_path / "bad.tsv"
    path.write_text(body)
    with pytest.raises(ValueError) as excinfo:
        Vocabulary.load(path)
    assert str(excinfo.value) == f"{path}: {message}"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=20))
def test_encode_decode_roundtrip_in_vocab(tokens):
    v = build_vocabulary([tokens] * 3, min_count=3)
    assert v.decode(v.encode(tokens)) == tokens


# ---------------------------------------------------------------- pairs and encoding


def test_raw_pair_validation():
    with pytest.raises(ValueError):
        RawPair("", "reply")
    with pytest.raises(ValueError):
        RawPair("orig", "reply", share_count=-1)
    with pytest.raises(ValueError):
        RawPair("orig", "reply", label="maybe")


def test_encode_pair_wraps_target():
    v = build_vocabulary([["fake", "news", "debunked"]] * 3, min_count=3)
    pair = encode_pair(RawPair("fake news", "debunked"), v)
    assert pair.target_ids[0] == BOS and pair.target_ids[-1] == EOS
    assert pair.source_ids == v.encode(["fake", "news"])


def test_encode_pair_truncates():
    v = build_vocabulary([["w"]] * 3, min_count=3)
    raw = RawPair(" ".join(["w"] * 200), " ".join(["w"] * 200))
    pair = encode_pair(raw, v, max_source_len=89, max_target_len=64)
    assert len(pair.source_ids) == 89
    assert len(pair.target_ids) == 64 + 2


def test_encode_pair_rejects_empty_after_normalize():
    v = make_vocab()
    with pytest.raises(ValueError):
        encode_pair(RawPair("❤", "fine"), v)


# ---------------------------------------------------------------- splits


def test_split_sizes_and_disjointness():
    pairs = list(range(103))
    train, val, test = split_dataset(pairs, SplitSpec(seed=1))
    assert len(train) == 82 and len(val) == 10 and len(test) == 11
    assert sorted(train + val + test) == pairs


def test_split_deterministic():
    pairs = list(range(50))
    a = split_dataset(pairs, SplitSpec(seed=7))
    b = split_dataset(pairs, SplitSpec(seed=7))
    assert a == b
    c = split_dataset(pairs, SplitSpec(seed=8))
    assert a != c


def test_split_matches_stdlib_shuffle():
    pairs = list(range(20))
    order = list(range(20))
    random.Random(3).shuffle(order)
    train, val, test = split_dataset(pairs, SplitSpec(seed=3))
    assert train == order[:16] and val == order[16:18] and test == order[18:]


def test_split_rejects_ratios_that_leave_a_part_empty():
    # 0.05 of 10 pairs rounds down to an empty validation split.
    with pytest.raises(ValueError, match="^split ratios leave the validation split empty for 10 pairs$"):
        split_dataset(list(range(10)), SplitSpec(train=0.85, validation=0.05, test=0.1))


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        SplitSpec(train=0.9, validation=0.2, test=0.1)


# ---------------------------------------------------------------- batching


def test_make_batch_pads_and_records_lengths():
    batch = make_batch([EncodedPair([4, 5, 6], [1, 7, 2]), EncodedPair([8], [1, 9, 10, 2])])
    assert batch.source.shape == (2, 3)
    assert batch.source[1].tolist() == [8, PAD, PAD]
    assert batch.source_lengths.tolist() == [3, 1]
    assert batch.target.shape == (2, 4)
    assert batch.target[0].tolist() == [1, 7, 2, PAD]


def test_batches_cover_every_pair_once():
    pairs = [EncodedPair([4 + i], [1, 4 + i, 2]) for i in range(10)]
    seen = []
    for batch in batches(pairs, batch_size=3, shuffle_seed=5):
        assert batch.source.shape[0] <= 3
        seen.extend(batch.source[:, 0].tolist())
    assert sorted(seen) == sorted(p.source_ids[0] for p in pairs)


def test_batches_deterministic_under_seed():
    pairs = [EncodedPair([4 + i], [1, 4 + i, 2]) for i in range(10)]
    a = [b.source.tolist() for b in batches(pairs, 4, shuffle_seed=2)]
    b = [b.source.tolist() for b in batches(pairs, 4, shuffle_seed=2)]
    assert a == b


# ---------------------------------------------------------------- io and statistics


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab \t\n\r\x0c\x0b\x1c\x85\u2028\u00e9")))
def test_read_lines_matches_text_mode_iteration(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert list(read_lines(path)) == [line.rstrip("\n") for line in fh]


def _line_at_a_time_read_lines(path):
    """The reader read_lines replaced: one binary line at a time, each decoded on its own."""
    lineno = 0
    with open(path, "rb") as fh:
        for raw in fh:
            for piece in raw.removesuffix(b"\n").removesuffix(b"\r").split(b"\r"):
                lineno += 1
                try:
                    yield piece.decode("utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None


def _lines_then_error(reader, path):
    """Every line the reader yields, and the text of the ValueError it ends with, if any."""
    lines = []
    try:
        for line in reader(path):
            lines.append(line)
    except ValueError as exc:
        return lines, str(exc)
    return lines, None


LINE_PIECES = st.sampled_from(
    [b"\n", b"\r\n", b"\r", "\x85".encode(), "\u2028".encode(), "caf\u00e9".encode(), b"a", b" ", b"\t",
     b"\x80", b"\xc3", b"\xe9", b"\xff", b"\xed\xa0\x80", b"\xe2\x80"]
)


@settings(max_examples=300, deadline=None)
@given(data=st.lists(st.one_of(LINE_PIECES, st.binary(max_size=3)), max_size=30).map(b"".join))
def test_read_lines_equals_the_line_at_a_time_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(data)
    assert _lines_then_error(read_lines, path) == _lines_then_error(_line_at_a_time_read_lines, path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_read_lines_names_the_line_of_a_bad_byte(tmp_path, newline):
    path = tmp_path / "input.txt"
    path.write_bytes(newline.join([b"caf\xc3\xa9", b"\x0c ok", b"caf\xe9", b"later \xff"]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not valid UTF-8$"):
        list(read_lines(path))


def test_dataset_roundtrip(tmp_path):
    pairs = [
        RawPair("fake claim", "debunk reply", 12, "false"),
        RawPair("other claim", "reply two"),
        RawPair("third", "reply", None, "true"),
    ]
    path = tmp_path / "data.tsv"
    write_dataset(path, pairs)
    assert read_dataset(path) == pairs


def test_read_dataset_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\nonly-one-field\n")
    with pytest.raises(ValueError, match="line 2"):
        read_dataset(path)


def test_read_dataset_bad_extra_field(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tnot-a-number\n")
    with pytest.raises(ValueError, match="line 1"):
        read_dataset(path)


@pytest.mark.parametrize("extras, kind", [("5\t7", "share count"), ("true\tfalse", "label")], ids=["shares", "labels"])
def test_read_dataset_rejects_repeated_field(tmp_path, extras, kind):
    path = tmp_path / "bad.tsv"
    path.write_text(f"a\tb\t3\ntrue claim\treply\t{extras}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: repeated {kind}")):
        read_dataset(path)


def test_corpus_statistics():
    pairs = [
        RawPair("one two three", "a b"),
        RawPair("one two", "a b c d"),
        RawPair("one", "a"),
    ]
    stats = corpus_statistics(pairs, min_count=3)
    assert stats["source_tokens_min"] == 1
    assert stats["source_tokens_max"] == 3
    assert stats["source_tokens_mean"] == pytest.approx(2.0)
    assert stats["reply_tokens_mean"] == pytest.approx(7 / 3)
    # one:3 and a:3 meet min_count; 4 reserved + 2
    assert stats["vocab_size"] == 6


# ---------------------------------------------------------------- atomic writes


class HalfWrite:
    """A file whose every write stores the first half of its bytes and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def fail_writes_midway(monkeypatch, name_part: str) -> None:
    """Make ``fcrg.corpus`` open files whose path contains ``name_part`` as ``HalfWrite`` files."""
    real_open = open

    def opener(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfWrite(fh) if name_part in os.fspath(path) else fh

    monkeypatch.setattr(corpus, "open", opener, raising=False)


WRITERS = {
    "write_text": lambda path: write_text(path, "a\tb\n" * 50),
    "write_dataset": lambda path: write_dataset(path, [RawPair("x y", "z", 3, "true")] * 50),
    "vocabulary": lambda path: build_vocabulary([["x", "y"], ["y"]], min_count=1).save(path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"previous\ncontent\n")
    fail_writes_midway(monkeypatch, "out.tsv")
    with pytest.raises(OSError, match="No space"):
        WRITERS[writer](path)
    assert path.read_bytes() == b"previous\ncontent\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]

    monkeypatch.undo()
    WRITERS[writer](path)
    assert path.read_bytes() != b"previous\ncontent\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


def test_interrupted_write_removes_the_temp_file(tmp_path):
    path = tmp_path / "out.tsv"
    with pytest.raises(KeyboardInterrupt):
        with corpus.atomic_write(path) as fh:
            fh.write(b"half")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_every_file_written_by_fcrg_goes_through_atomic_write():
    """No ``open`` for writing, ``write_text`` or ``write_bytes`` outside ``corpus.atomic_write``."""
    package = Path(corpus.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "atomic_write":
                skip |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in skip:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            modes = [a.value for a in node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                     if isinstance(a, ast.Constant)]
            if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute) or (
                name == "open" and any(set(m) & set("wax+") for m in modes)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"files written without atomic_write: {found}"
