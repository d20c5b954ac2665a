"""Length-constrained beam search and greedy decoding.

Raw cumulative log-probabilities rank hypotheses (no length normalization);
short outputs are controlled instead through the minimum-token constraint,
which suppresses the end token until a hypothesis has enough content tokens.
<pad> and <s> are always suppressed, and probabilities renormalize over the
remaining tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import BOS, EOS, MAX_TARGET_LEN, PAD
from .model import FCRGModel, encode_single
from .tensor import Tensor


@dataclass
class DecodeConfig:
    beam_size: int = 15
    min_tokens: int = 0
    max_len: int = MAX_TARGET_LEN

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 0 <= self.min_tokens < self.max_len:
            raise ValueError("min_tokens must satisfy 0 <= min_tokens < max_len")


@dataclass
class DecodedResponse:
    ids: list[int]
    log_prob: float
    forced: bool = False


def _best_extensions(
    logits: np.ndarray, scores: np.ndarray, ban_eos: bool, beam_size: int, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parent rows, tokens and scores of the ``beam_size`` best extensions of a beam.

    Each extension scores ``scores[parent]`` plus the token's log-probability
    under the row's softmax with <pad>/<s> banned, and </s> too when
    ``ban_eos``.  Ranked by score, ties broken by the lower token id, then the
    lower parent rank; only finite scores compete.  A row whose logits hold a
    NaN or +inf, or are -inf at every token not banned, scores NaN throughout
    and takes no part.

    The (k, V) block is built in ``work[0]``, with ``exp`` in ``work[1]``
    (float64, at least k rows each), one operation at a time in the order
    ``(x - max) - log(sum(exp(x - max)))`` then ``+ score``.  A row's best
    extension scores exactly ``(0 - log_z) + score``, so with K finite rows
    the K-th best of those row bests bounds the K-th best score from below:
    only the entries at or above it are partitioned, and only those at or
    above the K-th best are sorted.
    """
    k, vocab = logits.shape
    x, e = work[0, :k], work[1, :k]
    x[...] = logits
    x[:, [PAD, BOS]] = -np.inf
    if ban_eos:
        x[:, EOS] = -np.inf
    row_max = x.max(axis=1, keepdims=True)
    x -= row_max
    log_z = np.log(np.exp(x, out=e).sum(axis=1, keepdims=True))
    x -= log_z
    x += scores[:, None]
    # A row is NaN exactly when its max is not finite; as -inf it drops out
    # of the partitions too, so the K-th value is the K-th best finite score.
    dead = ~np.isfinite(row_max[:, 0])
    x[dead] = -np.inf
    best = (0.0 - log_z[:, 0]) + scores
    best[dead] = -np.inf
    flat = x.ravel()
    # With fewer than K finite rows there is no K-th row best (or it is -inf);
    # the lowest finite bound then keeps every finite score.
    cut = k - beam_size
    bound = np.partition(best, cut)[cut] if cut >= 0 else -np.inf
    index = np.flatnonzero(flat >= max(bound, -np.finfo(np.float64).max))
    if index.size > beam_size:
        cut = index.size - beam_size
        index = index[flat[index] >= np.partition(flat[index], cut)[cut]]
    parent, token = np.divmod(index, vocab)
    order = np.lexsort((parent, token, -flat[index]))[:beam_size]
    return parent[order], token[order], flat[index[order]]


def beam_search(source_ids: Sequence[int], model: FCRGModel, config: DecodeConfig) -> list[DecodedResponse]:
    """Top-K responses by cumulative log-probability.

    Every live hypothesis is extended by all tokens each step; the K best
    extensions survive.  Extensions emitting </s> move to a completed pool
    and are not extended further; hypotheses reaching max_len are
    force-finished.  The pool is ranked by log-probability with ties broken
    by shorter length, then lexicographic ids.

    All live hypotheses have the same length, so the beam is held as arrays:
    ``ids`` (k, 1 + t) with <s> in column 0, ``scores`` (k,) and ``hidden`` (k, H).
    """
    encoded = encode_single(model, source_ids)
    gru = model.gru_weights("dec")
    ids = np.full((1, 1), BOS, dtype=np.int64)
    scores = np.zeros(1)
    hidden = encoded.final.data
    work = np.empty((2, 0, model.config.vocab_size))  # grown to the most live rows seen, at most K
    completed: list[DecodedResponse] = []
    for t in range(config.max_len):
        out = model.decode_step(ids[:, -1], Tensor(hidden), encoded, gru, train=False)
        if work.shape[1] < len(ids):
            work = np.empty((2, len(ids), work.shape[2]))
        parent, token, scores = _best_extensions(out.logits.data, scores, t < config.min_tokens, config.beam_size, work)
        ends = token == EOS
        completed += [DecodedResponse(ids[p, 1:].tolist(), s) for p, s in zip(parent[ends], scores[ends])]
        parent, token, scores = parent[~ends], token[~ends], scores[~ends]
        ids = np.column_stack([ids[parent], token])
        hidden = out.hidden.data[parent]
        if not len(ids):
            break
    completed += [DecodedResponse(row[1:].tolist(), s, forced=True) for row, s in zip(ids, scores)]
    completed.sort(key=lambda r: (-r.log_prob, len(r.ids), r.ids))
    return completed[: config.beam_size]


def greedy_decode(
    source_ids: Sequence[int],
    model: FCRGModel,
    min_tokens: int = DecodeConfig.min_tokens,
    max_len: int = DecodeConfig.max_len,
) -> DecodedResponse:
    """Beam search with beam size 1: argmax decoding, ties break to the lowest id."""
    return beam_search(source_ids, model, DecodeConfig(1, min_tokens, max_len))[0]
