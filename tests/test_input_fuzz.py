"""Fuzzed text inputs to the readers behind ``evaluate`` and ``analyze``.

Whatever a file holds, a reader either returns or raises ``ValueError`` or
``CLIError`` with a message that starts with the file's path.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrg.analysis import Lexicon
from fcrg.cli import CLIError, _read_generations, _read_references
from fcrg.metrics import load_embedding_table

READERS = {
    "generations": _read_generations,
    "references": _read_references,
    "word_vectors": load_embedding_table,
    "lexicon": Lexicon.load,
}

# Pieces that reach the readers' branches: fields, separators, numbers
# (finite or not), lexicon syntax and characters str.splitlines breaks on.
PIECES = st.sampled_from(
    ["0", "1", "7", "-2.5", "1e3", "nan", "inf", "1e999", "a", "word*", "de*b", "1,2", ",",
     "%", "#", "\t", " ", "\n", "\r", "\x0c", "\x85", "\u2028", ""]
)
TEXT = st.one_of(st.lists(st.one_of(PIECES, st.text(max_size=3)), max_size=40).map("".join), st.text())


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@settings(max_examples=150, deadline=None)
@given(text=TEXT)
@example(text="")
@example(text="0\t1\t-1.0\ta\nb 1 nan\n")
def test_reader_errors_name_the_file(reader, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            reader(path)
        except (ValueError, CLIError) as exc:
            assert str(exc).startswith(f"{path}: "), f"{type(exc).__name__}: {exc}"
