"""Length-constrained beam search and greedy decoding.

Raw cumulative log-probabilities rank hypotheses (no length normalization);
short outputs are controlled instead through the minimum-token constraint,
which suppresses the end token until a hypothesis has enough content tokens.
<pad> and <s> are always suppressed, and probabilities renormalize over the
remaining tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import BOS, EOS, MAX_TARGET_LEN, PAD
from .model import EncoderOutput, FCRGModel, encode_single
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
class Hypothesis:
    """Partial decode state; ``ids`` holds content tokens only (no <s>/</s>)."""

    ids: list[int]
    log_prob: float
    hidden: np.ndarray  # (H,) detached decoder state
    finished: bool = False
    forced: bool = False  # reached max_len without emitting </s>


@dataclass
class DecodedResponse:
    ids: list[int]
    log_prob: float
    forced: bool = False


def _masked_log_probs(logits: np.ndarray, token_counts: Sequence[int], min_tokens: int) -> np.ndarray:
    """Log-probabilities with <pad>/<s> banned and </s> banned below min_tokens."""
    scores = logits.astype(np.float64, copy=True)
    scores[:, PAD] = -np.inf
    scores[:, BOS] = -np.inf
    for row, count in enumerate(token_counts):
        if count < min_tokens:
            scores[row, EOS] = -np.inf
    shifted = scores - scores.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _step(model: FCRGModel, hyps: Sequence[Hypothesis], encoded: EncoderOutput, min_tokens: int) -> np.ndarray:
    """Advance every live hypothesis one step; updates hidden states in place.

    Returns the (k, V) masked log-probability matrix.
    """
    prev_ids = np.array([h.ids[-1] if h.ids else BOS for h in hyps], dtype=np.int64)
    h_prev = Tensor(np.stack([h.hidden for h in hyps]))
    out = model.decode_step(prev_ids, h_prev, encoded, train=False)
    hidden = out.hidden.data
    for i, h in enumerate(hyps):
        h.hidden = hidden[i].copy()
    return _masked_log_probs(out.logits.data, [len(h.ids) for h in hyps], min_tokens)


def beam_search(source_ids: Sequence[int], model: FCRGModel, config: DecodeConfig) -> list[DecodedResponse]:
    """Top-K responses by cumulative log-probability.

    Every live hypothesis is extended by all tokens each step; the K best
    extensions survive.  Extensions emitting </s> move to a completed pool
    and are not extended further; hypotheses reaching max_len are
    force-finished.  The pool is ranked by log-probability with ties broken
    by shorter length, then lexicographic ids.
    """
    encoded = encode_single(model, source_ids)
    start = Hypothesis(ids=[], log_prob=0.0, hidden=encoded.final.data[0].copy())
    live = [start]
    completed: list[Hypothesis] = []
    while live:
        log_probs = _step(model, live, encoded, config.min_tokens)
        candidates: list[tuple[float, int, int]] = []  # (score, token, hyp index)
        for i, hyp in enumerate(live):
            row = log_probs[i]
            for token in np.flatnonzero(np.isfinite(row)):
                candidates.append((hyp.log_prob + row[token], int(token), i))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        survivors = candidates[: config.beam_size]
        next_live: list[Hypothesis] = []
        for score, token, i in survivors:
            parent = live[i]
            if token == EOS:
                completed.append(Hypothesis(list(parent.ids), score, parent.hidden, finished=True))
            else:
                child = Hypothesis(parent.ids + [token], score, parent.hidden.copy())
                if len(child.ids) >= config.max_len:
                    child.finished = True
                    child.forced = True
                    completed.append(child)
                else:
                    next_live.append(child)
        live = next_live
    completed.sort(key=lambda h: (-h.log_prob, len(h.ids), h.ids))
    return [DecodedResponse(h.ids, h.log_prob, h.forced) for h in completed[: config.beam_size]]


def greedy_decode(
    source_ids: Sequence[int],
    model: FCRGModel,
    min_tokens: int = DecodeConfig.min_tokens,
    max_len: int = DecodeConfig.max_len,
) -> DecodedResponse:
    """Argmax decoding with the same masking rules; ties break to the lowest id."""
    encoded = encode_single(model, source_ids)
    hyp = Hypothesis(ids=[], log_prob=0.0, hidden=encoded.final.data[0].copy())
    while True:
        log_probs = _step(model, [hyp], encoded, min_tokens)[0]
        token = int(np.argmax(log_probs))  # argmax returns the first (lowest-id) maximum
        hyp.log_prob += float(log_probs[token])
        if token == EOS:
            return DecodedResponse(hyp.ids, hyp.log_prob)
        hyp.ids.append(token)
        if len(hyp.ids) >= max_len:
            return DecodedResponse(hyp.ids, hyp.log_prob, forced=True)
