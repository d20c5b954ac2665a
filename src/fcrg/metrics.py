"""Generation evaluation: word-overlap metrics, embedding metrics, significance.

Implements corpus-level BLEU (clipped n-gram precision, brevity penalty),
ROUGE-L (LCS F1), a METEOR-style exact+stem unigram metric with a
fragmentation penalty ("METEOR-lite": no synonym stage), Greedy Matching and
Vector Extrema over a word-vector table, and the one-sided Wilcoxon
signed-rank test for paired score comparisons.

All scores live in [0, 1]; reports scale them by 100.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import gt
from typing import Mapping, Optional, Sequence

import numpy as np

from ._stats import cosine_matrix, midranks, normal_sf, rank_sum_counts, tie_groups
from .corpus import RESERVED_TOKENS, read_lines
from .stemmer import porter_stem

Tokens = Sequence[str]

METRIC_NAMES = ("bleu2", "bleu3", "bleu4", "rouge_l", "meteor_lite", "greedy_matching", "vector_extrema")


# ---------------------------------------------------------------- BLEU


def _ngram_counts(tokens: Tokens, n: int) -> list[Counter]:
    """Counts of the n-grams of each order 1..n, as tuples."""
    return [Counter(zip(*(tokens[k:] for k in range(order)))) for order in range(1, n + 1)]


def _clipped_counts(cand: Tokens, ref_counts: Sequence[Counter]) -> tuple[list[int], list[int]]:
    """Per order: the candidate's n-grams clipped by the reference's counts, and its n-gram total."""
    matched = [
        sum(map(min, cand_counts.values(), map(ref.__getitem__, cand_counts)))  # a missing gram counts 0
        for cand_counts, ref in zip(_ngram_counts(cand, len(ref_counts)), ref_counts)
    ]
    return matched, [max(len(cand) - order + 1, 0) for order in range(1, len(ref_counts) + 1)]


def _bleu_from_counts(matched: Sequence[int], total: Sequence[int], n: int, cand_len: int, ref_len: int) -> float:
    """Geometric mean of the order 1..n precisions times the brevity penalty exp(1 - r/c) for c < r."""
    log_sum = 0.0
    for order in range(n):
        num, den = matched[order], total[order]
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    precision = math.exp(log_sum / n)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    return precision * brevity


def bleu_n(candidates: Sequence[Tokens], references: Sequence[Tokens], n: int) -> float:
    """Corpus-level BLEU-n over a parallel corpus.

    Clipped n-gram counts for orders 1..n are pooled over all pairs before
    the geometric mean and the brevity penalty exp(1 - r/c) for c < r.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"BLEU order must be in 1..4, got {n}")
    if len(candidates) != len(references):
        raise ValueError(f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}")
    if not candidates:
        raise ValueError("empty corpus")
    matched = [0] * n
    total = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        pair_matched, pair_total = _clipped_counts(cand, _ngram_counts(ref, n))
        for order in range(n):
            matched[order] += pair_matched[order]
            total[order] += pair_total[order]
    return _bleu_from_counts(matched, total, n, cand_len, ref_len)


# ---------------------------------------------------------------- ROUGE-L


def _lcs_length(a: Tokens, b: Tokens) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: Tokens, reference: Tokens) -> float:
    """LCS-based F1 between a candidate and a reference."""
    if not reference:
        raise ValueError("reference must be non-empty")
    lcs = _lcs_length(candidate, reference) if candidate else 0
    if lcs == 0:
        return 0.0
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------- METEOR-lite


def _stage_quotas(cand: Tokens, ref: Tokens, stems: Mapping[str, str]) -> tuple[Counter, Counter]:
    """Exact-match quota per word, then stem-match quota on the residual."""
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    exact = Counter({w: min(c, ref_counts[w]) for w, c in cand_counts.items() if min(c, ref_counts[w]) > 0})
    residual_cand = Counter({w: c - exact[w] for w, c in cand_counts.items() if c - exact[w] > 0})
    residual_ref = Counter({w: c - exact[w] for w, c in ref_counts.items() if c - exact[w] > 0})
    cand_stems = Counter()
    for w, c in residual_cand.items():
        cand_stems[stems[w]] += c
    ref_stems = Counter()
    for w, c in residual_ref.items():
        ref_stems[stems[w]] += c
    stem = Counter({s: min(c, ref_stems[s]) for s, c in cand_stems.items() if min(c, ref_stems[s]) > 0})
    return exact, stem


# Search nodes ``_min_chunks`` may visit before it settles for the best alignment found.
_NODE_BUDGET = 500_000


def _min_chunks(cand: Tokens, ref: Tokens, stems: Mapping[str, str], exact: Counter, stem: Counter) -> tuple[int, bool]:
    """Fewest chunks over alignments realizing the stage-wise maximum matching.

    Branch-and-bound over candidate positions.  ``_NODE_BUDGET`` caps the
    search on adversarial inputs; the best alignment found so far is returned
    once exhausted (tweets stay far below the cap).  Returns the chunk count
    and whether the budget ran out.

    The quotas are one list: the exact-match words' keys, then the stems'.
    Before the search, each candidate position gets the quota keys it draws
    from and the reference positions it may take exactly or by stem, and the
    quota keys get their counts over each candidate suffix.
    """
    total = sum(exact.values()) + sum(stem.values())
    exact_key = {w: k for k, w in enumerate(exact)}
    stem_key = {s: k for k, s in enumerate(stem, len(exact))}
    ref_stems = [stems[w] for w in ref]
    # Per candidate position: (exact key, its reference positions, stem key,
    # its reference positions), a key of -1 where the position has no quota.
    # Stem matches pair residual tokens only; same-word pairs are impossible
    # in the residual, so they are excluded.
    moves = []
    for word in cand:
        s = stems[word]
        ek, sk = exact_key.get(word, -1), stem_key.get(s, -1)
        moves.append((
            ek, [j for j, r in enumerate(ref) if r == word] if ek >= 0 else [],
            sk, [j for j, r in enumerate(ref) if ref_stems[j] == s and r != word] if sk >= 0 else [],
        ))
    # Suffix counts of the quota keys for feasibility pruning on the candidate side.
    suffix = [[0] * (len(exact) + len(stem))]
    for ek, _, sk, _ in reversed(moves):
        counts = suffix[-1].copy()
        for k in (ek, sk):
            if k >= 0:
                counts[k] += 1
        suffix.append(counts)
    suffix.reverse()
    best = total + 1  # any valid alignment has at most `total` chunks
    nodes = 0

    def dfs(i: int, used: int, left: list[int], last: Optional[tuple[int, int]], chunks: int):
        nonlocal best, nodes
        nodes += 1
        if chunks >= best or nodes > _NODE_BUDGET:
            return
        if i == len(cand):
            if not any(left):
                best = min(best, chunks)
            return
        if any(map(gt, left, suffix[i])):
            return
        ek, exact_js, sk, stem_js = moves[i]
        options: list[tuple[int, int]] = []
        if ek >= 0 and left[ek] > 0:
            options.extend((j, ek) for j in exact_js if not used >> j & 1)
        if sk >= 0 and left[sk] > 0:
            options.extend((j, sk) for j in stem_js if not used >> j & 1)
        # Prefer chunk-continuing matches so good bounds appear early.
        if last is not None:
            options.sort(key=lambda opt: (opt[0] != last[1] + 1,))
        for j, k in options:
            cont = last is not None and last[0] == i - 1 and last[1] == j - 1
            left[k] -= 1
            dfs(i + 1, used | 1 << j, left, (i, j), chunks + (0 if cont else 1))
            left[k] += 1
        dfs(i + 1, used, left, last, chunks)

    dfs(0, 0, [*exact.values(), *stem.values()], None, 0)
    # Budget exhausted before any complete alignment: fall back to the
    # worst case of one chunk per match.
    return min(best, total), nodes > _NODE_BUDGET


def meteor_lite(
    candidate: Tokens,
    reference: Tokens,
    stems: Optional[Mapping[str, str]] = None,
    budget_flags: Optional[list[bool]] = None,
) -> float:
    """Exact+stem unigram F-mean with a fragmentation penalty.

    Alignments maximize matches stage-wise (exact first, then Porter stems)
    with the fewest chunks; score = F_mean * (1 - 0.5 * (chunks/m)^3).
    ``stems`` maps every word of the pair to its Porter stem; without it each
    distinct word of the pair is stemmed here.  ``budget_flags``, when given,
    receives one flag per chunk search: whether it ran out of ``_NODE_BUDGET``.
    """
    if not candidate or not reference:
        raise ValueError("candidate and reference must be non-empty")
    if stems is None:
        stems = {w: porter_stem(w) for w in {*candidate, *reference}}  # each distinct word stemmed once
    exact, stem = _stage_quotas(candidate, reference, stems)
    m = sum(exact.values()) + sum(stem.values())
    if m == 0:
        return 0.0
    chunks, exhausted = _min_chunks(candidate, reference, stems, exact, stem)
    if budget_flags is not None:
        budget_flags.append(exhausted)
    precision = m / len(candidate)
    recall = m / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


# ---------------------------------------------------------------- embedding metrics


class EmbeddingTable:
    """Token -> fixed-dimension vector map; out-of-table tokens are skipped.

    The vectors are stacked into one (n, dim) matrix, a copy that never aliases
    the caller's arrays; floating values keep their dtype and others become
    float64.  Lookups return float64.
    """

    def __init__(self, vectors: Mapping[str, Sequence[float] | np.ndarray]):
        dims = {len(v) for v in vectors.values()}
        if len(dims) > 1:
            raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
        self._assign(list(vectors), np.array(list(vectors.values())))

    @classmethod
    def _from_rows(cls, tokens: Sequence[str], matrix: np.ndarray) -> EmbeddingTable:
        """A table whose row i is token i's vector; ``matrix`` must be the caller's own copy."""
        table = cls.__new__(cls)
        table._assign(tokens, matrix)
        return table

    def _assign(self, tokens: Sequence[str], matrix: np.ndarray) -> None:
        if not tokens:
            raise ValueError("embedding table is empty")
        self._matrix = matrix if matrix.dtype.kind == "f" else matrix.astype(np.float64)
        self._rows = {t: i for i, t in enumerate(tokens)}
        self.dim = self._matrix.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self._rows

    def __getitem__(self, token: str) -> np.ndarray:
        return self._matrix[self._rows[token]].astype(np.float64)

    def lookup(self, tokens: Tokens) -> np.ndarray:
        """(k, dim) float64 vectors of the k in-table tokens; k may be 0."""
        return self._matrix[[self._rows[t] for t in tokens if t in self._rows]].astype(np.float64)

    def lookup_pair(self, a: Tokens, b: Tokens) -> tuple[np.ndarray, np.ndarray]:
        """``lookup`` of both sides; raises ValueError when either has no in-table token."""
        vectors_a, vectors_b = self.lookup(a), self.lookup(b)
        if vectors_a.shape[0] == 0 or vectors_b.shape[0] == 0:
            raise ValueError("no in-table tokens on one side; pair skipped")
        return vectors_a, vectors_b


def load_embedding_table(path) -> EmbeddingTable:
    """One ``token v1 v2 ... vd`` line per token: d finite decimals, the same d on every line.

    A token may have one line only: a repeated token raises ``ValueError``.
    """
    vectors: list[list[float]] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path), 1):
        parts = line.split(" ")
        if len(parts) < 2:
            raise ValueError(f"{path}: line {lineno}: expected a token and at least one value")
        token = parts[0]
        if token in first_line:
            raise ValueError(f"{path}: line {lineno}: duplicate token {token!r} (first on line {first_line[token]})")
        first_line[token] = lineno
        try:
            vector = [float(x) for x in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed vector") from None
        dim = len(vector) if lineno == 1 else dim
        if len(vector) != dim or not all(map(math.isfinite, vector)):
            raise ValueError(f"{path}: line {lineno}: expected {dim} finite values")
        vectors.append(vector)
    if not vectors:
        raise ValueError(f"{path}: embedding table is empty")
    return EmbeddingTable._from_rows(list(first_line), np.array(vectors))


def embedding_table_from_model(embedding: np.ndarray, vocab) -> EmbeddingTable:
    """Word vectors from a trained model's shared (dim, vocab) embedding, a column per id (reserved ids excluded)."""
    reserved = len(RESERVED_TOKENS)
    tokens = vocab.id_to_token[reserved:]
    if len(tokens) != embedding.shape[1] - reserved:
        raise ValueError(f"embedding has {embedding.shape[1]} columns for a vocabulary of {vocab.size}")
    # np.array copies even where the transposed slice is already C-contiguous (dim 1).
    return EmbeddingTable._from_rows(tokens, np.array(embedding.T[reserved:], order="C"))


def greedy_matching(candidate: Tokens, reference: Tokens, table: EmbeddingTable) -> float:
    """Symmetric mean of per-token maximal cosines between the two sides."""
    cand, ref = table.lookup_pair(candidate, reference)
    cosines = cosine_matrix(cand, ref)
    return 0.5 * (float(cosines.max(axis=1).mean()) + float(cosines.max(axis=0).mean()))


def extrema_vector(vectors: np.ndarray) -> np.ndarray:
    """Per dimension, the entry of maximum absolute magnitude (sign kept)."""
    maxima = vectors.max(axis=0)
    minima = vectors.min(axis=0)
    return np.where(np.abs(maxima) >= np.abs(minima), maxima, minima)


def vector_extrema(candidate: Tokens, reference: Tokens, table: EmbeddingTable) -> float:
    """Cosine between the extrema-pooled sentence vectors.

    Returns 0.0 when an extrema vector is all zero (degenerate input).  The
    raw cosine may be negative; reporting clamps to [0, 1].
    """
    cand, ref = table.lookup_pair(candidate, reference)
    return float(cosine_matrix(extrema_vector(cand)[None], extrema_vector(ref)[None])[0, 0])


# ---------------------------------------------------------------- evaluation driver


@dataclass
class MetricReport:
    """Per-source and corpus-aggregate scores for the metric suite."""

    corpus: dict[str, float]
    per_source: dict[str, dict[int, float]]
    skipped: dict[str, int] = field(default_factory=dict)
    negative_extrema: int = 0
    meteor_budget_exhausted: int = 0  # pairs whose chunk search ran out of ``_NODE_BUDGET``

    def to_tsv(self) -> str:
        """Tab-separated corpus scores on the x100 scale."""
        names = [n for n in METRIC_NAMES if n in self.corpus]
        header = "\t".join(names)
        row = "\t".join(f"{self.corpus[n] * 100.0:.3f}" for n in names)
        return header + "\n" + row + "\n"


def evaluate(
    generations: Mapping[int, Sequence[Tokens]],
    references: Mapping[int, Tokens],
    table: Optional[EmbeddingTable] = None,
) -> MetricReport:
    """Score every generated response against its source's ground truth.

    Per-source scores average over that source's responses; corpus scores
    average over sources.  Corpus BLEU instead pools n-gram counts over all
    (response, reference) pairs.  Embedding metrics run only when a table is
    given; pairs without in-table tokens are skipped and counted.
    """
    missing = [idx for idx in generations if idx not in references]
    if missing:
        raise ValueError(f"missing references for source indices {missing[:5]}")
    if any(len(responses) == 0 for responses in generations.values()):
        raise ValueError("every source needs at least one generated response")

    all_cands: list[Tokens] = []
    all_refs: list[Tokens] = []
    per_source: dict[str, dict[int, float]] = {name: {} for name in METRIC_NAMES}
    skipped = {"greedy_matching": 0, "vector_extrema": 0}
    negative_extrema = 0
    budget_flags: list[bool] = []
    words = {w for idx, responses in generations.items() for tokens in (*responses, references[idx]) for w in tokens}
    stems = {w: porter_stem(w) for w in words}  # each distinct word stemmed once per call

    for idx in sorted(generations):
        responses = generations[idx]
        ref = references[idx]
        ref_counts = _ngram_counts(ref, 4)
        buckets: dict[str, list[float]] = {name: [] for name in METRIC_NAMES}
        for response in responses:
            all_cands.append(response)
            all_refs.append(ref)
            buckets["rouge_l"].append(rouge_l(response, ref))
            buckets["meteor_lite"].append(meteor_lite(response, ref, stems, budget_flags) if response else 0.0)
            matched, total = _clipped_counts(response, ref_counts)
            for n in (2, 3, 4):
                buckets[f"bleu{n}"].append(_bleu_from_counts(matched, total, n, len(response), len(ref)))
            if table is not None:
                try:
                    buckets["greedy_matching"].append(greedy_matching(response, ref, table))
                except ValueError:
                    skipped["greedy_matching"] += 1
                try:
                    raw = vector_extrema(response, ref, table)
                    if raw < 0:
                        negative_extrema += 1
                    buckets["vector_extrema"].append(max(raw, 0.0))
                except ValueError:
                    skipped["vector_extrema"] += 1
        for name, values in buckets.items():
            if values:
                per_source[name][idx] = float(np.mean(values))

    corpus: dict[str, float] = {}
    for n in (2, 3, 4):
        corpus[f"bleu{n}"] = bleu_n(all_cands, all_refs, n)
    for name in ("rouge_l", "meteor_lite", "greedy_matching", "vector_extrema"):
        scores = per_source[name]
        if scores:
            corpus[name] = float(np.mean(list(scores.values())))
    return MetricReport(
        corpus=corpus,
        per_source=per_source,
        skipped=skipped,
        negative_extrema=negative_extrema,
        meteor_budget_exhausted=sum(budget_flags),
    )


# ---------------------------------------------------------------- significance


@dataclass
class SignificanceResult:
    statistic: float
    p_value: float
    degenerate: bool = False


def wilcoxon_one_sided(scores_a: Sequence[float], scores_b: Sequence[float]) -> SignificanceResult:
    """Paired signed-rank test of a > b.

    Zero differences are dropped.  For n <= 15 the p-value is exact with ties:
    the share of the 2^n sign patterns with a positive-rank sum at least the
    observed one, counted by ``rank_sum_counts``.  Otherwise it is the normal
    approximation with tie and continuity corrections.  All-zero differences
    yield p = 1 with the degenerate flag set.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError(f"paired samples must have equal length: {len(scores_a)} vs {len(scores_b)}")
    diffs = np.asarray(scores_a, dtype=np.float64) - np.asarray(scores_b, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return SignificanceResult(0.0, 1.0, degenerate=True)
    ranks = midranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    if n <= 15:
        count = int(rank_sum_counts(ranks)[:, round(2 * w_plus) :].sum())
        return SignificanceResult(w_plus, count / 2.0**n)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= sum(t**3 - t for t in tie_groups(np.abs(diffs))) / 48.0
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return SignificanceResult(w_plus, normal_sf(z))
