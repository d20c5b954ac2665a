"""Decoding tests: beam search against exhaustive enumeration, constraints."""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrg.corpus import BOS, EOS, PAD
from fcrg.decoding import DecodeConfig, DecodedResponse, _best_extensions, beam_search, greedy_decode
from fcrg.model import EncoderOutput, FCRGModel, ModelConfig, encode_single
from fcrg.tensor import Tensor


def small_model(vocab_size=5, seed=0, attention="dot", dtype="float64"):
    return FCRGModel(ModelConfig(
        vocab_size=vocab_size, embed_dim=3, hidden_size=4, output_size=4,
        max_source_len=6, max_target_len=8, attention=attention,
        dropout=0.0, seed=seed, dtype=dtype,
    ))


# ---------------------------------------------------------------- reference beam search
#
# The per-hypothesis implementation with an explicit sorted candidate list.
# It is the oracle for beam_search's exact order, ties included: candidates
# rank by (-score, token, parent rank), completed hypotheses by
# (-log_prob, length, ids).


@dataclass
class Hypothesis:
    """Partial decode state; ``ids`` holds content tokens only (no <s>/</s>)."""

    ids: list[int]
    log_prob: float
    hidden: np.ndarray  # (H,) detached decoder state
    finished: bool = False
    forced: bool = False  # reached max_len without emitting </s>


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
    out = model.decode_step(prev_ids, h_prev, encoded, model.gru_weights("dec"), train=False)
    hidden = out.hidden.data
    for i, h in enumerate(hyps):
        h.hidden = hidden[i].copy()
    return _masked_log_probs(out.logits.data, [len(h.ids) for h in hyps], min_tokens)


def reference_beam_search(source_ids: Sequence[int], model: FCRGModel, config: DecodeConfig) -> list[DecodedResponse]:
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


@st.composite
def decode_cases(draw):
    vocab_size = draw(st.integers(5, 30))
    max_len = draw(st.integers(1, 8))
    model = small_model(
        vocab_size=vocab_size,
        seed=draw(st.integers(0, 2**16)),
        attention=draw(st.sampled_from(["dot", "bilinear"])),
        dtype=draw(st.sampled_from(["float32", "float64"])),
    )
    source = draw(st.lists(st.integers(4, vocab_size - 1), min_size=1, max_size=6))
    config = DecodeConfig(
        beam_size=draw(st.integers(1, 20)),
        min_tokens=draw(st.integers(0, max_len - 1)),
        max_len=max_len,
    )
    return model, source, config


def _as_tuples(responses):
    return [(r.ids, r.log_prob, r.forced) for r in responses]


@pytest.mark.parametrize("tied", [False, True])
@settings(max_examples=100, deadline=None)
@given(case=decode_cases())
def test_beam_search_equals_reference_exactly(tied, case):
    model, source, config = case
    if tied:
        model.params["out_vocab"].data[:] = 0.0  # uniform logits: only the tie-break orders candidates
    # log_prob compares with ==: the selection must be bit-for-bit the same
    assert _as_tuples(beam_search(source, model, config)) == _as_tuples(reference_beam_search(source, model, config))


# ---------------------------------------------------------------- candidate selection
#
# The two-pass selection that _best_extensions fuses: the masked row
# log-softmax as its own array, the scores added, then the finite entries
# gathered and partitioned.  It is the oracle for every bit of the result.


def _two_pass_log_probs(logits: np.ndarray, ban_eos: bool) -> np.ndarray:
    scores = logits.astype(np.float64, copy=True)
    scores[:, [PAD, BOS]] = -np.inf
    if ban_eos:
        scores[:, EOS] = -np.inf
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _two_pass_select(scores: np.ndarray, beam_size: int) -> tuple[np.ndarray, np.ndarray]:
    flat = scores.ravel()
    index = np.flatnonzero(np.isfinite(flat))
    if len(index) > beam_size:
        cut = len(index) - beam_size
        index = index[flat[index] >= np.partition(flat[index], cut)[cut]]
    parent, token = np.divmod(index, scores.shape[1])
    order = np.lexsort((parent, token, -flat[index]))[:beam_size]
    return parent[order], token[order]


# A few values, so ties are common.  Each row draws from one of three pools:
# finite only, with -inf (fewer finite entries than the beam), or with NaN
# and +inf too (the row drops out).
FINITE = [0.0, 0.5, -1.25, 3.0, 1e-30]
ROW_POOLS = (FINITE, FINITE + [-np.inf], FINITE + [-np.inf, np.nan, np.inf])


@st.composite
def selection_cases(draw):
    k, vocab = draw(st.integers(1, 20)), draw(st.integers(4, 60))
    pools = draw(st.lists(st.sampled_from(ROW_POOLS), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    logits = np.array([rng.choice(pool, size=vocab) for pool in pools], dtype=dtype)
    scores = rng.choice([0.0, -0.5, -1.25, -7.0], size=k)
    return logits, scores, draw(st.booleans()), draw(st.integers(1, 20))


@settings(max_examples=300, deadline=None)
@given(case=selection_cases())
@example(case=(np.zeros((1, 4), np.float32), np.zeros(1), True, 20))  # fewer candidates than the beam
@example(case=(np.array([[0.0, 0.0, 0.0, np.nan, 1.0]]), np.zeros(1), False, 2))  # the one row is NaN
def test_best_extensions_bit_equal_to_two_pass_selection(case):
    logits, scores, ban_eos, beam_size = case
    with np.errstate(invalid="ignore"):
        candidates = scores[:, None] + _two_pass_log_probs(logits, ban_eos)
        parent, token = _two_pass_select(candidates, beam_size)
        got = _best_extensions(logits, scores, ban_eos, beam_size, np.full((2, len(logits) + 2, logits.shape[1]), np.nan))
    for fused, oracle in zip(got, (parent, token, candidates[parent, token])):
        assert fused.dtype == oracle.dtype
        assert fused.tobytes() == oracle.tobytes()


# ---------------------------------------------------------------- exhaustive oracle


def oracle_scores(model, source_ids, min_tokens, max_len):
    """Log-probability of every reachable output sequence, by brute force.

    Mirrors the decoding contract: <pad>/<s> always banned, </s> banned below
    min_tokens, probabilities renormalized over the remaining tokens, and
    sequences cut off at max_len score only their content tokens.
    """
    V = model.config.vocab_size
    encoded = encode_single(model, source_ids)

    def masked_log_probs(prev_id, hidden, n_content):
        out = model.decode_step(np.array([prev_id]), Tensor(hidden[None, :]), encoded, model.gru_weights("dec"), train=False)
        scores = out.logits.data[0].astype(np.float64).copy()
        scores[PAD] = -np.inf
        scores[BOS] = -np.inf
        if n_content < min_tokens:
            scores[EOS] = -np.inf
        shifted = scores - np.nanmax(np.where(np.isfinite(scores), scores, -np.inf))
        log_z = np.log(np.exp(np.where(np.isfinite(shifted), shifted, -np.inf)).sum())
        return shifted - log_z, out.hidden.data[0]

    results = {}

    def walk(prefix, log_prob, hidden):
        lp, h_next = masked_log_probs(prefix[-1] if prefix else BOS, hidden, len(prefix))
        for token in range(V):
            if not np.isfinite(lp[token]):
                continue
            if token == EOS:
                results[tuple(prefix)] = log_prob + lp[token]
            else:
                child = prefix + [token]
                if len(child) >= max_len:
                    # forced finish: no end-token factor
                    results[tuple(child)] = log_prob + lp[token]
                else:
                    walk(child, log_prob + lp[token], h_next)

    walk([], 0.0, encoded.final.data[0].copy())
    return results


@pytest.mark.parametrize("attention", ["dot", "bilinear"])
@pytest.mark.parametrize("min_tokens", [0, 2])
def test_beam_equals_exhaustive_when_wide_enough(attention, min_tokens):
    model = small_model(seed=4, attention=attention)
    source = [4, 3, 4]
    max_len = 4
    oracle = oracle_scores(model, source, min_tokens, max_len)
    ranked = sorted(oracle.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))

    config = DecodeConfig(beam_size=len(oracle), min_tokens=min_tokens, max_len=max_len)
    responses = beam_search(source, model, config)
    assert len(responses) == len(oracle)
    for resp, (ids, score) in zip(responses, ranked):
        assert tuple(resp.ids) == ids
        assert resp.log_prob == pytest.approx(score, abs=1e-9)


def test_narrow_beam_is_prefix_consistent():
    # the top-1 of a narrow beam can't beat the exhaustive optimum
    model = small_model(seed=8)
    source = [4, 4]
    oracle = oracle_scores(model, source, 0, 4)
    best = max(oracle.values())
    top = beam_search(source, model, DecodeConfig(beam_size=3, min_tokens=0, max_len=4))[0]
    assert top.log_prob <= best + 1e-12


@pytest.mark.parametrize("min_tokens", [1, 3, 5])
def test_min_tokens_enforced(min_tokens):
    for seed in range(5):
        model = small_model(vocab_size=7, seed=seed)
        responses = beam_search([4, 5], model, DecodeConfig(beam_size=4, min_tokens=min_tokens, max_len=8))
        for r in responses:
            assert len(r.ids) >= min_tokens
            assert all(t not in (PAD, BOS, EOS) for t in r.ids)


def test_max_len_enforced_and_forced_flagged():
    model = small_model(seed=2)
    responses = beam_search([4], model, DecodeConfig(beam_size=6, min_tokens=0, max_len=3))
    assert all(len(r.ids) <= 3 for r in responses)
    for r in responses:
        assert r.forced == (len(r.ids) == 3 and tuple(r.ids) not in _eos_finished(model))


def _eos_finished(model):
    # helper for the assertion above: sequences of length 3 that ended by </s>
    oracle = oracle_scores(model, [4], 0, 3)
    finished = set()
    for ids in oracle:
        if len(ids) < 3:
            finished.add(ids)
    return finished


def test_ranking_is_monotone_and_ties_break_short_then_lexicographic():
    model = small_model(seed=1)
    responses = beam_search([4, 3], model, DecodeConfig(beam_size=10, min_tokens=0, max_len=4))
    for a, b in zip(responses, responses[1:]):
        assert a.log_prob >= b.log_prob
        if a.log_prob == b.log_prob:
            assert (len(a.ids), a.ids) <= (len(b.ids), b.ids)


def test_beam_deterministic():
    model = small_model(seed=6)
    config = DecodeConfig(beam_size=5, min_tokens=1, max_len=5)
    a = beam_search([4, 3, 4], model, config)
    b = beam_search([4, 3, 4], model, config)
    assert [(r.ids, r.log_prob) for r in a] == [(r.ids, r.log_prob) for r in b]


def test_log_prob_matches_step_rescoring():
    # re-run the decoder over the winning sequence and re-add its step scores
    model = small_model(seed=9)
    source = [4, 3]
    top = beam_search(source, model, DecodeConfig(beam_size=4, min_tokens=0, max_len=5))[0]
    oracle = oracle_scores(model, source, 0, 5)
    assert top.log_prob == pytest.approx(oracle[tuple(top.ids)], abs=1e-9)


def test_beam_one_equals_greedy():
    for seed in range(4):
        model = small_model(vocab_size=8, seed=seed)
        beam = beam_search([4, 5], model, DecodeConfig(beam_size=1, min_tokens=1, max_len=6))[0]
        greedy = greedy_decode([4, 5], model, min_tokens=1, max_len=6)
        assert beam.ids == greedy.ids
        assert beam.log_prob == pytest.approx(greedy.log_prob, abs=1e-9)


def test_greedy_respects_constraints():
    model = small_model(seed=3)
    out = greedy_decode([4], model, min_tokens=2, max_len=4)
    assert 2 <= len(out.ids) <= 4
    assert all(t not in (PAD, BOS, EOS) for t in out.ids)


def test_greedy_validates_through_decode_config():
    model = small_model(seed=3)
    with pytest.raises(ValueError):
        greedy_decode([4], model, min_tokens=4, max_len=4)


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(min_tokens=5, max_len=5)
    with pytest.raises(ValueError):
        DecodeConfig(min_tokens=-1)
