"""Corpus-linguistic toolkit: lexicon category scoring, LDA topics,
nonparametric significance tests, and the length-vs-shares analysis.

The lexicon format follows the LIWC convention of literal tokens and
pattern-final prefix wildcards (``debunk*``) mapped to named categories; a
document's score for a category is the fraction of its tokens matching that
category.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._stats import midranks, normal_sf, rank_sum_counts, tie_groups
from .corpus import RawPair, normalize, read_lines, tokenize

Tokens = Sequence[str]


# ---------------------------------------------------------------- lexicon


@dataclass
class Lexicon:
    """Category names plus literal and prefix-wildcard patterns."""

    categories: list[str]
    literals: dict[str, frozenset[int]]
    prefixes: list[tuple[str, frozenset[int]]]

    def match(self, token: str) -> set[str]:
        hits: set[int] = set(self.literals.get(token, ()))
        for prefix, cats in self.prefixes:
            if token.startswith(prefix):
                hits |= cats
        return {self.categories[i] for i in hits}

    @classmethod
    def parse(cls, text: str, origin: str = "<lexicon>") -> "Lexicon":
        """Parse the two-section format: ``id <TAB> name`` lines, a ``%``
        separator, then ``pattern <TAB> id[,id...]`` entries."""
        id_to_index: dict[str, int] = {}
        categories: list[str] = []
        literals: dict[str, set[int]] = {}
        prefixes: dict[str, set[int]] = {}
        in_entries = False
        for lineno, line in enumerate(text.split("\n"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "%":
                in_entries = True
                continue
            parts = line.split("\t")
            if not in_entries:
                if len(parts) != 2:
                    raise ValueError(f"{origin}: line {lineno}: expected 'id <TAB> name'")
                cat_id, name = parts
                if cat_id in id_to_index:
                    raise ValueError(f"{origin}: line {lineno}: duplicate category id {cat_id!r}")
                if name in categories:
                    raise ValueError(f"{origin}: line {lineno}: duplicate category name {name!r}")
                id_to_index[cat_id] = len(categories)
                categories.append(name)
            else:
                if len(parts) != 2 or not parts[0]:
                    raise ValueError(f"{origin}: line {lineno}: expected 'pattern <TAB> id[,id...]'")
                pattern, ids = parts
                if "*" in pattern[:-1]:
                    raise ValueError(f"{origin}: line {lineno}: '*' is only allowed pattern-final")
                try:
                    indices = {id_to_index[i] for i in ids.split(",")}
                except KeyError as exc:
                    raise ValueError(f"{origin}: line {lineno}: undeclared category id {exc}") from None
                if pattern.endswith("*"):
                    prefixes.setdefault(pattern[:-1], set()).update(indices)
                else:
                    literals.setdefault(pattern, set()).update(indices)
        if not categories:
            raise ValueError(f"{origin}: no categories declared")
        return cls(
            categories=categories,
            literals={t: frozenset(s) for t, s in literals.items()},
            prefixes=sorted((p, frozenset(s)) for p, s in prefixes.items()),
        )

    @classmethod
    def load(cls, path) -> "Lexicon":
        return cls.parse("\n".join(read_lines(path)), origin=str(path))


def category_score(tokens: Tokens, lexicon: Lexicon) -> dict[str, float]:
    """Per-category fraction of tokens matching the category.

    A token may hit several categories.  Raises on an empty document (scores
    undefined).
    """
    if not tokens:
        raise ValueError("empty document: category scores undefined")
    counts = Counter()
    for token in tokens:
        for category in lexicon.match(token):
            counts[category] += 1
    return {c: counts[c] / len(tokens) for c in lexicon.categories}


@dataclass
class CategoryStats:
    """Mean and population variance per category over a document group."""

    means: dict[str, float]
    variances: dict[str, float]
    sample_size: int


def group_stats(documents: Sequence[Tokens], lexicon: Lexicon) -> CategoryStats:
    """Raises on fewer than 2 documents, and, like ``category_score``, on an empty one."""
    if len(documents) < 2:
        raise ValueError("need at least 2 documents")
    scored = [category_score(doc, lexicon) for doc in documents]
    means: dict[str, float] = {}
    variances: dict[str, float] = {}
    for category in lexicon.categories:
        values = np.array([s[category] for s in scored])
        means[category] = float(values.mean())
        variances[category] = float(values.var())  # population variance
    return CategoryStats(means, variances, len(scored))


# ---------------------------------------------------------------- LDA


@dataclass
class TopicModel:
    num_topics: int
    alpha: float
    beta: float
    iterations: int
    seed: int
    vocab: list[str]
    doc_topic: np.ndarray  # (D, K) counts
    topic_word: np.ndarray  # (K, V) counts
    topic_totals: np.ndarray  # (K,)
    assignments: list[np.ndarray]
    doc_tokens: list[np.ndarray]


def check_lda_settings(num_topics: int, alpha: Optional[float], beta: float, iterations: int, seed: int) -> float:
    """Raise on a setting ``lda_fit`` rejects whatever the documents; return alpha, None meaning 50/K."""
    if num_topics < 1:
        raise ValueError("num_topics must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if alpha is None:
        alpha = 50.0 / num_topics
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value}")
    return alpha


def lda_fit(
    documents: Sequence[Tokens],
    num_topics: int = 5,
    alpha: Optional[float] = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
    on_sweep=None,
) -> TopicModel:
    """Collapsed Gibbs sampling over token-topic assignments.

    ``alpha`` defaults to 50/K.  Deterministic under the seed.  ``on_sweep``
    (if given) is called with the partially fitted model after every sweep.

    The counts live in Python lists while sampling (a site reads K ints of
    its document, K of its word and the K topic denominators), since numpy
    call overhead dominates on length-K arrays.  Each sweep draws its
    uniforms in one ``rng.random(n_sites)`` block, the same PCG64 stream as
    one ``rng.random()`` per site.  A site's weights
    (n_dk + alpha)(n_kw + beta)/(n_k + V beta), own count removed, are summed
    in topic order in one loop, and the new topic is the first whose running
    sum exceeds u times the total.

    The three factors are read from float tables rather than added per
    topic: ``doc_alpha[n]`` is ``n + alpha`` and ``word_beta[n]`` is
    ``n + beta``, each the very float the int + float add gives, and
    ``denominators[k]`` is reset to ``topic_totals[k] + V beta`` whenever
    that total changes.  Every product, quotient and partial sum is the same
    float operation in the same order as summing the weights one by one (the
    running total starts at 0.0, and 0.0 + w is w), so the sampled state is
    bit-identical to the per-site sampler's.  The site's own token is out of
    the counts when they are read, so a document count is below the longest
    document's length and a word count below the most frequent word's count:
    the two tables hold that many floats, however many sites there are.
    """
    alpha = check_lda_settings(num_topics, alpha, beta, iterations, seed)
    if any(len(d) == 0 for d in documents):
        raise ValueError("every document must be non-empty")
    vocab = sorted({t for doc in documents for t in doc})
    if not vocab:
        raise ValueError("vocabulary of size 0")
    token_to_id = {t: i for i, t in enumerate(vocab)}
    vocab_size = len(vocab)
    n_sites = sum(len(doc) for doc in documents)
    vocab_beta = vocab_size * beta
    # No site weight is below this one; if it is 0 or subnormal, every weight
    # of a site may round to 0, leaving nothing to sample from.
    if not alpha * beta / (n_sites + vocab_beta) >= sys.float_info.min:
        raise ValueError(
            f"alpha={alpha} and beta={beta} underflow: the smallest site weight "
            f"alpha*beta/(tokens + V*beta) is not a normal float"
        )
    doc_ids = [[token_to_id[t] for t in doc] for doc in documents]

    rng = np.random.default_rng(seed)
    doc_topic = [[0] * num_topics for _ in doc_ids]
    word_topic = [[0] * num_topics for _ in vocab]
    topic_totals = [0] * num_topics
    assignments = [rng.integers(0, num_topics, size=len(ids)).tolist() for ids in doc_ids]
    for ids, z, row in zip(doc_ids, assignments, doc_topic):
        for w, k in zip(ids, z):
            row[k] += 1
            word_topic[w][k] += 1
            topic_totals[k] += 1
    doc_tokens = [np.array(ids, dtype=np.int64) for ids in doc_ids]
    doc_alpha = [n + alpha for n in range(max(map(len, doc_ids)))]
    word_beta = [n + beta for n in range(max(map(sum, word_topic)))]
    denominators = [t + vocab_beta for t in topic_totals]

    def topic_model() -> TopicModel:
        """The counts as arrays (``word_topic`` is word-major, ``topic_word`` topic-major)."""
        return TopicModel(num_topics, alpha, beta, iterations, seed, vocab, np.array(doc_topic, dtype=np.int64),
                          np.array(word_topic, dtype=np.int64).T.copy(), np.array(topic_totals, dtype=np.int64),
                          [np.array(z, dtype=np.int64) for z in assignments], doc_tokens)

    for _ in range(iterations):
        draws = iter(rng.random(n_sites).tolist())
        for ids, z, row in zip(doc_ids, assignments, doc_topic):
            for pos, (w, u) in enumerate(zip(ids, draws)):
                col = word_topic[w]
                k = z[pos]
                row[k] -= 1
                col[k] -= 1
                topic_totals[k] -= 1
                denominators[k] = topic_totals[k] + vocab_beta
                cdf = []
                total = 0.0
                for r, c, d in zip(row, col, denominators):
                    total += doc_alpha[r] * word_beta[c] / d
                    cdf.append(total)
                k = bisect_right(cdf, u * total)
                z[pos] = k
                row[k] += 1
                col[k] += 1
                topic_totals[k] += 1
                denominators[k] = topic_totals[k] + vocab_beta
        if on_sweep is not None:
            on_sweep(topic_model())
    return topic_model()


def lda_top_words(model: TopicModel, m: int) -> list[list[str]]:
    """Top-m words per topic by smoothed topic-word probability, ties by id."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    result = []
    for k in range(model.num_topics):
        probs = (model.topic_word[k] + model.beta) / (model.topic_totals[k] + len(model.vocab) * model.beta)
        # A stable sort of the ids on -p keeps tied ids in ascending order.
        order = sorted(range(len(model.vocab)), key=(-probs).tolist().__getitem__)
        result.append([model.vocab[w] for w in order[:m]])
    return result


# ---------------------------------------------------------------- rank tests


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float], alternative: str = "a_greater") -> tuple[float, float]:
    """One-sided Mann-Whitney U test.

    For at most 12 observations in all, the p-value is exact with ties: the
    share of the C(n, n_a) subsets of the midranks summing to at least sample
    a's, counted by ``rank_sum_counts``.  Otherwise it is the normal approximation
    with tie-corrected variance and continuity correction.  Returns (U of sample a, p).
    """
    if alternative not in ("a_greater", "b_greater"):
        raise ValueError(f"alternative must be 'a_greater' or 'b_greater', got {alternative!r}")
    if alternative == "b_greater":
        u_b, p = mann_whitney_u(sample_b, sample_a, "a_greater")
        n_a, n_b = len(sample_a), len(sample_b)
        return n_a * n_b - u_b, p
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    combined = np.concatenate([a, b])
    ranks = midranks(combined)
    rank_sum_a = float(ranks[:n_a].sum())
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0
    if n <= 12:
        counts = rank_sum_counts(ranks)[n_a]
        return u_a, int(counts[round(2 * rank_sum_a) :].sum()) / int(counts.sum())
    mean = n_a * n_b / 2.0
    tie_term = sum(t**3 - t for t in tie_groups(combined)) / (n * (n - 1))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var == 0:
        return u_a, 1.0
    z = (u_a - mean - 0.5) / math.sqrt(var)
    return u_a, normal_sf(z)


# ---------------------------------------------------------------- document analyses


SHORT_BUCKET = (0, 9)
LONG_BUCKET = (10, 20)


def reply_tokens(pairs: Sequence[RawPair], gazetteer: frozenset[str] = frozenset()) -> list[list[str]]:
    """Each pair's reply, normalized and tokenized: the documents the reply analyses read."""
    return [tokenize(normalize(pair.reply_text, gazetteer)) for pair in pairs]


def length_share_test(pairs: Sequence[RawPair], replies: Sequence[Sequence[str]]) -> tuple[float, float]:
    """Mann-Whitney test that longer replies (10-20 tokens) get more shares
    than short ones (0-9 tokens).  ``replies`` holds each pair's reply tokens,
    as ``reply_tokens`` gives them.  Bucket bounds are inclusive; pairs
    without a share count or beyond 20 tokens are ignored."""
    short_shares: list[float] = []
    long_shares: list[float] = []
    for pair, reply in zip(pairs, replies, strict=True):
        if pair.share_count is None:
            continue
        length = len(reply)
        if SHORT_BUCKET[0] <= length <= SHORT_BUCKET[1]:
            short_shares.append(pair.share_count)
        elif LONG_BUCKET[0] <= length <= LONG_BUCKET[1]:
            long_shares.append(pair.share_count)
    if not long_shares:
        raise ValueError("long bucket (10-20 tokens) is empty")
    if not short_shares:
        raise ValueError("short bucket (0-9 tokens) is empty")
    return mann_whitney_u(long_shares, short_shares, "a_greater")
