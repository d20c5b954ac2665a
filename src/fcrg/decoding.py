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
from .tensor import Tensor, row_log_softmax


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


def _masked_log_probs(logits: np.ndarray, ban_eos: bool) -> np.ndarray:
    """Log-probabilities with <pad>/<s> banned, and </s> too when ``ban_eos``."""
    scores = logits.astype(np.float64, copy=True)
    scores[:, [PAD, BOS]] = -np.inf
    if ban_eos:
        scores[:, EOS] = -np.inf
    return row_log_softmax(scores)


def _select(scores: np.ndarray, beam_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Parent rows and tokens of the ``beam_size`` best finite entries of (k, V) ``scores``.

    Ranked by score, ties broken by the lower token id, then the lower parent
    rank.  Only the entries at or above the K-th best score are sorted.
    """
    flat = scores.ravel()
    index = np.flatnonzero(np.isfinite(flat))
    if len(index) > beam_size:
        cut = len(index) - beam_size
        index = index[flat[index] >= np.partition(flat[index], cut)[cut]]
    parent, token = np.divmod(index, scores.shape[1])
    order = np.lexsort((parent, token, -flat[index]))[:beam_size]
    return parent[order], token[order]


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
    completed: list[DecodedResponse] = []
    for t in range(config.max_len):
        out = model.decode_step(ids[:, -1], Tensor(hidden), encoded, gru, train=False)
        candidates = scores[:, None] + _masked_log_probs(out.logits.data, t < config.min_tokens)
        parent, token = _select(candidates, config.beam_size)
        scores = candidates[parent, token]
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
