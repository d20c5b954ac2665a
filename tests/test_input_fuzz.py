"""Fuzzed inputs to the text file readers.

Whatever a file holds, valid UTF-8 or not, a reader either returns or raises
``ValueError`` with a message that starts with the file's path.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrg.analysis import Lexicon
from fcrg.cli import _read_generations, _read_references, load_run_config
from fcrg.corpus import Vocabulary, read_dataset, read_gazetteer
from fcrg.metrics import load_embedding_table

READERS = {
    "generations": _read_generations,
    "references": _read_references,
    "word_vectors": load_embedding_table,
    "lexicon": Lexicon.load,
    "dataset": read_dataset,
    "vocab": Vocabulary.load,
    "gazetteer": read_gazetteer,
    "config": lambda path: load_run_config(str(path), []),
}

# Pieces that reach the readers' branches: fields, separators, numbers
# (finite or not), lexicon, vocabulary, dataset and config syntax, and
# characters str.splitlines breaks on.
PIECES = st.sampled_from(
    ["0", "1", "7", "-2.5", "1e3", "nan", "inf", "1e999", "a", "word*", "de*b", "1,2", ",",
     "%", "#", "\t", " ", "\n", "\r", "\x0c", "\x85", "\u2028", "",
     "true", "false", "<pad>", "<s>", "</s>", "<unk>", "=", "beam_size", "attention", "lr"]
)
TEXT = st.one_of(st.lists(st.one_of(PIECES, st.text(max_size=3)), max_size=40).map("".join), st.text())
# Bytes that are not UTF-8 on their own: a stray continuation byte, a lead
# byte without its continuation, a never-valid byte, an encoded surrogate.
BAD_BYTES = st.sampled_from([b"\x80", b"\xc3", b"\xe9", b"\xff", b"\xed\xa0\x80"])
DATA = st.one_of(
    TEXT.map(str.encode),
    st.lists(st.one_of(PIECES.map(str.encode), BAD_BYTES, st.binary(max_size=3)), max_size=40).map(b"".join),
)


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@settings(max_examples=150, deadline=None)
@given(data=DATA)
@example(data=b"")
@example(data=b"0\t1\t-1.0\ta\nb 1 nan\n")
@example(data=b"x\t\xe9\n")
def test_reader_errors_name_the_file(reader, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        try:
            reader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), f"{type(exc).__name__}: {exc}"
