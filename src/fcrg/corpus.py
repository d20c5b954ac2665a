"""Corpus ingestion: text normalization, tokenization, vocabulary and batching.

The input is a tab-separated file of (original tweet, reply) pairs with
optional share counts and true/false verdict labels.  Everything downstream
(model training, decoding, analysis) consumes the id-encoded form produced
here.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<s>", "</s>", "<unk>")

# Tokens produced by normalization that must survive tokenization intact.
PLACEHOLDERS = frozenset({"<number>", "<person>", "url", "@user"})

MAX_SOURCE_LEN = 89
MAX_TARGET_LEN = 64
MIN_COUNT = 3  # vocabulary frequency threshold

# A t.co link may follow anything but a letter: a digit glued before it must
# not hide it until the number rule has put "<number>" there.
_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+|(?<![a-z])t\.co/\S+)", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
# Digit runs with internal ./, separators.  Separators must be followed by a
# digit so sentence-final punctuation ("in 2016.") stays outside the match.
_NUMBER_RE = re.compile(r"\d+(?:[.,]\d+)*")
_DISALLOWED_RE = re.compile(r"[^a-zA-Z0-9 .,!?':;\-@<>/]")
_PUNCT = frozenset(".,!?':;-@<>/")


def _split_affixes(token: str) -> tuple[str, str, str]:
    """Split a whitespace token into (leading punct, core, trailing punct)."""
    start, end = 0, len(token)
    while start < end and not (token[start].isalnum() or token[start] in "<@"):
        start += 1
    while end > start and not (token[end - 1].isalnum() or token[end - 1] == ">"):
        end -= 1
    return token[:start], token[start:end], token[end:]


def _replace_person_runs(text: str, gazetteer: frozenset[str]) -> str:
    """Collapse maximal runs of gazetteer-listed capitalized tokens to <person>.

    Matching is case-sensitive on the token core (surrounding punctuation is
    ignored); the run keeps the leading punctuation of its first token and the
    trailing punctuation of its last.
    """
    out: list[str] = []
    run: list[tuple[str, str]] = []  # (leading punct, trailing punct)
    for raw in text.split():
        pre, core, post = _split_affixes(raw)
        if core and core[0].isupper() and core in gazetteer:
            run.append((pre, post))
            continue
        if run:
            out.append(run[0][0] + "<person>" + run[-1][1])
            run = []
        out.append(raw)
    if run:
        out.append(run[0][0] + "<person>" + run[-1][1])
    return " ".join(out)


def normalize(text: str, gazetteer: frozenset[str] = frozenset()) -> str:
    """Apply the canonical rewrite rules and lowercase the result.

    URLs become "url", @-mentions become "@user", gazetteer-matched
    capitalized name runs become "<person>", digit runs become "<number>",
    and characters outside the letters/punctuation allow-list are removed.
    Total and idempotent; may return an empty string.
    """
    # Strip disallowed characters first so later rules see their final
    # neighborhoods (removal could otherwise fuse text into a fresh mention
    # or URL on a second pass, breaking idempotence).
    s = _DISALLOWED_RE.sub("", text)
    s = _URL_RE.sub(" url ", s)
    s = _MENTION_RE.sub("@user", s)
    if gazetteer:
        s = _replace_person_runs(s, frozenset(gazetteer))
    s = _NUMBER_RE.sub("<number>", s)
    s = " ".join(s.split())
    return s.lower()


def tokenize(text: str) -> list[str]:
    """Whitespace split, then detach leading/trailing punctuation.

    Apostrophes stay word-internal ("it's" is one token) and placeholder
    tokens are never split.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk in PLACEHOLDERS:
            tokens.append(chunk)
            continue
        pre: list[str] = []
        while chunk and chunk not in PLACEHOLDERS and chunk[0] in _PUNCT:
            pre.append(chunk[0])
            chunk = chunk[1:]
        post: list[str] = []
        while chunk and chunk not in PLACEHOLDERS and chunk[-1] in _PUNCT:
            post.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(pre)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(post))
    return tokens


@dataclass
class RawPair:
    """A text-level (original tweet, fact-checking reply) pair."""

    original_text: str
    reply_text: str
    share_count: Optional[int] = None
    label: Optional[str] = None  # "true" | "false"

    def __post_init__(self):
        if not self.original_text.strip() or not self.reply_text.strip():
            raise ValueError("both texts must be non-empty after trimming")
        if self.share_count is not None and self.share_count < 0:
            raise ValueError("share_count must be non-negative")
        if self.label is not None and self.label not in ("true", "false"):
            raise ValueError(f"label must be 'true' or 'false', got {self.label!r}")


@dataclass
class Vocabulary:
    """Bidirectional token/id map with reserved ids 0..3 and frequency counts."""

    token_to_id: dict[str, int]
    id_to_token: list[str]
    counts: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            for idx, token in enumerate(self.id_to_token):
                fh.write(f"{token}\t{idx}\t{self.counts.get(token, 0)}\n".encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Parse a ``token<TAB>id<TAB>count`` file; blank lines are skipped.

        The whole file is read first, so bad UTF-8 is reported before any other
        fault; then the first line at fault is named.
        """
        lines = list(read_lines(path))
        counts: dict[str, int] = {}
        for lineno, line in enumerate(lines, 1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            token, idx_text, count_text = parts
            try:
                idx, count = int(idx_text), int(count_text)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: id and count must be integers, got {idx_text!r} and {count_text!r}"
                ) from None
            if idx != len(counts):
                raise ValueError(f"{path}: line {lineno}: ids must be dense and in order")
            if token in counts:
                raise ValueError(f"{path}: line {lineno}: duplicate token {token!r}")
            counts[token] = count
        id_to_token = list(counts)
        if tuple(id_to_token[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError(f"{path}: reserved tokens missing or out of order")
        return cls({token: idx for idx, token in enumerate(id_to_token)}, id_to_token, counts)


def build_vocabulary(corpus: Iterable[Sequence[str]], min_count: int = MIN_COUNT) -> Vocabulary:
    """Build a vocabulary keeping tokens seen at least ``min_count`` times.

    Ids are assigned after the reserved ids, in descending frequency order
    with lexicographic tie-break.  Everything below the threshold encodes to
    <unk>.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: dict[str, int] = {}
    seen_any = False
    for tokens in corpus:
        seen_any = True
        for t in tokens:
            if t in RESERVED_TOKENS:
                continue
            counts[t] = counts.get(t, 0) + 1
    if not seen_any:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    id_to_token = list(RESERVED_TOKENS) + kept
    token_to_id = {t: i for i, t in enumerate(id_to_token)}
    vocab_counts = {t: counts.get(t, 0) for t in id_to_token}
    return Vocabulary(token_to_id, id_to_token, vocab_counts)


@dataclass
class EncodedPair:
    """Id-encoded training example; target wrapped with <s> ... </s>."""

    source_ids: list[int]
    target_ids: list[int]


def encode_pair(
    raw: RawPair,
    vocab: Vocabulary,
    max_source_len: int = MAX_SOURCE_LEN,
    max_target_len: int = MAX_TARGET_LEN,
) -> EncodedPair:
    """normalize -> tokenize -> map to ids, truncating over-length sequences."""
    source_tokens = tokenize(normalize(raw.original_text))
    target_tokens = tokenize(normalize(raw.reply_text))
    if not source_tokens:
        raise ValueError("original tweet tokenizes to zero tokens")
    if not target_tokens:
        raise ValueError("reply tokenizes to zero tokens")
    source_ids = vocab.encode(source_tokens[:max_source_len])
    target_ids = [BOS] + vocab.encode(target_tokens[:max_target_len]) + [EOS]
    return EncodedPair(source_ids, target_ids)


@dataclass
class SplitSpec:
    """Train/validation/test ratios plus the shuffle seed."""

    train: float = 0.8
    validation: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not all(ratio > 0 for ratio in (self.train, self.validation, self.test)):  # NaN fails too
            raise ValueError("split ratios must be positive")
        if abs(self.train + self.validation + self.test - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")
        if self.seed < 0:  # random.Random(-n) shuffles as random.Random(n)
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def split_dataset(pairs: Sequence, spec: SplitSpec) -> tuple[list, list, list]:
    """Deterministic shuffled split into disjoint, exhaustive parts."""
    if len(pairs) < 10:
        raise ValueError("need at least 10 pairs to split")
    order = list(range(len(pairs)))
    random.Random(spec.seed).shuffle(order)
    n = len(pairs)
    n_train = int(spec.train * n)
    n_val = int(spec.validation * n)
    for part, size in (("train", n_train), ("validation", n_val), ("test", n - n_train - n_val)):
        if size == 0:
            raise ValueError(f"split ratios leave the {part} split empty for {n} pairs")
    train = [pairs[i] for i in order[:n_train]]
    val = [pairs[i] for i in order[n_train : n_train + n_val]]
    test = [pairs[i] for i in order[n_train + n_val :]]
    return train, val, test


@dataclass
class Batch:
    """Padded id matrices plus the true lengths of every row."""

    source: np.ndarray  # (b, max source len) int64, PAD filled
    target: np.ndarray  # (b, max target len incl <s>/</s>) int64, PAD filled
    source_lengths: np.ndarray


def _pad_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def make_batch(pairs: Sequence[EncodedPair]) -> Batch:
    return Batch(
        source=_pad_matrix([p.source_ids for p in pairs]),
        target=_pad_matrix([p.target_ids for p in pairs]),
        source_lengths=np.array([len(p.source_ids) for p in pairs], dtype=np.int64),
    )


def batches(
    split: Sequence[EncodedPair],
    batch_size: int,
    shuffle_seed: Optional[int] = None,
) -> Iterator[Batch]:
    """Yield every pair exactly once, in fixed order under a fixed seed."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = list(range(len(split)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = [split[i] for i in order[start : start + batch_size]]
        if chunk:
            yield make_batch(chunk)


def read_lines(path) -> Iterator[str]:
    """Lines of a UTF-8 file, split at "\\n", "\\r\\n" or "\\r" only, without their ends.

    The file is read and decoded whole.  If it is not valid UTF-8, the lines
    before the first bad one are yielded, then ``ValueError`` names the path
    and the bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, bad = data.decode("utf-8"), False
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode, and end inside the bad line.
        text, bad = data[: exc.start].decode("utf-8"), True
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    last = lines.pop()  # "" when the text is empty or ends with a line break
    yield from lines
    if bad:
        raise ValueError(f"{path}: line {len(lines) + 1}: not valid UTF-8")
    if last:
        yield last


@contextlib.contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """A binary file that takes the place of ``path`` only once it is fully written.

    The bytes go to a temp file beside ``path``, renamed over it with
    ``os.replace`` when the block ends without an exception.  A write that
    fails or is interrupted leaves any previous file at ``path`` as it was,
    and the temp file is removed.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, through ``atomic_write``."""
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def read_dataset(path) -> list[RawPair]:
    """Read tab-separated ``original <TAB> reply [<TAB> shares] [<TAB> label]`` lines."""
    pairs: list[RawPair] = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(f"{path}: line {lineno}: expected 2-4 tab-separated fields")
        extras: dict[str, object] = {}
        for extra in parts[2:]:
            if extra in ("true", "false"):
                kind, value = "label", extra
            else:
                try:
                    kind, value = "share count", int(extra)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: field {extra!r} is neither a share count nor a label"
                    ) from None
            if kind in extras:
                raise ValueError(f"{path}: line {lineno}: repeated {kind} {extra!r}")
            extras[kind] = value
        try:
            pairs.append(RawPair(parts[0], parts[1], extras.get("share count"), extras.get("label")))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return pairs


def write_dataset(path, pairs: Sequence[RawPair]) -> None:
    with atomic_write(path) as fh:
        for p in pairs:
            fields = [p.original_text, p.reply_text]
            if p.share_count is not None:
                fields.append(str(p.share_count))
            if p.label is not None:
                fields.append(p.label)
            fh.write(("\t".join(fields) + "\n").encode("utf-8"))


def read_gazetteer(path) -> frozenset[str]:
    """One name per line; blank lines ignored."""
    return frozenset(line.strip() for line in read_lines(path) if line.strip())


def corpus_statistics(pairs: Sequence[RawPair], min_count: int = MIN_COUNT) -> dict:
    """Vocabulary size and token-count statistics of a normalized corpus."""
    source_lens: list[int] = []
    reply_lens: list[int] = []
    all_token_lists: list[list[str]] = []
    for p in pairs:
        s = tokenize(p.original_text)
        r = tokenize(p.reply_text)
        source_lens.append(len(s))
        reply_lens.append(len(r))
        all_token_lists.append(s)
        all_token_lists.append(r)
    vocab = build_vocabulary(all_token_lists, min_count=min_count)
    return {
        "vocab_size": vocab.size,
        "source_tokens_min": min(source_lens),
        "source_tokens_max": max(source_lens),
        "source_tokens_mean": sum(source_lens) / len(source_lens),
        "reply_tokens_min": min(reply_lens),
        "reply_tokens_max": max(reply_lens),
        "reply_tokens_mean": sum(reply_lens) / len(reply_lens),
    }
