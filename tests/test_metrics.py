"""Metric tests against independent brute-force oracles."""

import itertools
import math
import re
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fcrg.metrics import (
    EmbeddingTable,
    bleu_n,
    embedding_table_from_model,
    evaluate,
    extrema_vector,
    greedy_matching,
    load_embedding_table,
    meteor_lite,
    rouge_l,
    vector_extrema,
    wilcoxon_one_sided,
)
from fcrg.corpus import RESERVED_TOKENS, build_vocabulary
from fcrg.model import FCRGModel, ModelConfig
from fcrg.stemmer import porter_stem

WORDS = ["the", "cat", "sat", "down", "fake", "news", "url", "a", "dog", "ran"]


def random_sentences(rng, n_pairs, max_len=12, vocab=WORDS):
    pairs = []
    for _ in range(n_pairs):
        la, lb = rng.integers(1, max_len + 1, size=2)
        pairs.append((
            [vocab[i] for i in rng.integers(0, len(vocab), size=la)],
            [vocab[i] for i in rng.integers(0, len(vocab), size=lb)],
        ))
    return pairs


# ---------------------------------------------------------------- BLEU oracle


def bleu_oracle(cands, refs, n):
    """Direct pooled clipped n-gram counting, written independently."""
    logs = []
    for order in range(1, n + 1):
        num = den = 0
        for cand, ref in zip(cands, refs):
            cgrams = [tuple(cand[i:i + order]) for i in range(len(cand) - order + 1)]
            rgrams = [tuple(ref[i:i + order]) for i in range(len(ref) - order + 1)]
            for gram in set(cgrams):
                num += min(cgrams.count(gram), rgrams.count(gram))
            den += len(cgrams)
        if num == 0 or den == 0:
            return 0.0
        logs.append(math.log(num / den))
    c = sum(len(x) for x in cands)
    r = sum(len(x) for x in refs)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return bp * math.exp(sum(logs) / n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bleu_matches_oracle_on_random_corpora(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(20):
        pairs = random_sentences(rng, rng.integers(1, 6))
        cands = [p[0] for p in pairs]
        refs = [p[1] for p in pairs]
        assert bleu_n(cands, refs, n) == pytest.approx(bleu_oracle(cands, refs, n), abs=1e-12)


def test_bleu_worked_example():
    # p1 = 3/3, p2 = 2/2, brevity exp(1 - 4/3)
    score = bleu_n([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]], 2)
    assert score == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-12)


def test_bleu_identity_and_disjoint():
    sents = [["a", "b", "c"], ["fake", "news"]]
    assert bleu_n(sents, sents, 2) == pytest.approx(1.0)
    assert bleu_n([["a", "b"]], [["c", "d"]], 2) == 0.0
    # unigrams overlap but bigrams do not: no smoothing, so the score is 0
    assert bleu_n([["a", "dog", "ran"]], [["a", "cat", "sat"]], 2) == 0.0


def test_bleu_clipping():
    # "the the the" vs "the cat": unigram matches clipped at ref count 1
    score1 = bleu_n([["the", "the", "the"]], [["the", "cat", "sat"]], 1)
    assert score1 == pytest.approx(1.0 / 3.0)


def test_bleu_order_invariance():
    rng = np.random.default_rng(3)
    pairs = random_sentences(rng, 6)
    cands = [p[0] for p in pairs]
    refs = [p[1] for p in pairs]
    fwd = bleu_n(cands, refs, 3)
    rev = bleu_n(cands[::-1], refs[::-1], 3)
    assert fwd == pytest.approx(rev, abs=1e-12)


def test_bleu_validation():
    with pytest.raises(ValueError):
        bleu_n([], [], 2)
    with pytest.raises(ValueError):
        bleu_n([["a"]], [], 2)
    with pytest.raises(ValueError):
        bleu_n([["a"]], [["a"]], 5)


# ---------------------------------------------------------------- ROUGE-L oracle


def lcs_oracle(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def test_rouge_matches_memoized_oracle():
    rng = np.random.default_rng(20)
    for cand, ref in random_sentences(rng, 100):
        lcs = lcs_oracle(tuple(cand), tuple(ref))
        if lcs == 0:
            expected = 0.0
        else:
            p, r = lcs / len(cand), lcs / len(ref)
            expected = 2 * p * r / (p + r)
        assert rouge_l(cand, ref) == pytest.approx(expected, abs=1e-12)


def test_rouge_worked_example():
    assert rouge_l(list("abcd"), list("acbd")) == pytest.approx(0.75, abs=1e-12)


def test_rouge_identity_disjoint():
    assert rouge_l(["x", "y"], ["x", "y"]) == 1.0
    assert rouge_l(["x"], ["y"]) == 0.0


# ---------------------------------------------------------------- METEOR oracle


def meteor_oracle(cand, ref):
    """Exhaustive alignment enumeration for short sentences.

    Stage-wise maximum matching: as many exact word matches as possible,
    then as many stem matches as possible on what's left; the fragmentation
    penalty uses the fewest chunks over all such alignments.
    """
    cstem = [porter_stem(w) for w in cand]
    rstem = [porter_stem(w) for w in ref]

    best = {"exact": -1, "total": -1, "chunks": None}

    def chunks_of(pairs):
        pairs = sorted(pairs)
        n = 0
        prev = None
        for i, j in pairs:
            if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
                n += 1
            prev = (i, j)
        return n

    def rec(i, used, pairs, n_exact):
        if i == len(cand):
            total = len(pairs)
            key = (n_exact, total)
            if key > (best["exact"], best["total"]):
                best.update(exact=n_exact, total=total, chunks=chunks_of(pairs))
            elif key == (best["exact"], best["total"]):
                best["chunks"] = min(best["chunks"], chunks_of(pairs))
            return
        rec(i + 1, used, pairs, n_exact)  # leave i unmatched
        for j in range(len(ref)):
            if used >> j & 1:
                continue
            if cand[i] == ref[j]:
                rec(i + 1, used | 1 << j, pairs + [(i, j)], n_exact + 1)
            elif cstem[i] == rstem[j]:
                rec(i + 1, used | 1 << j, pairs + [(i, j)], n_exact)

    rec(0, 0, [], 0)
    m = best["total"]
    if m == 0:
        return 0.0
    p, r = m / len(cand), m / len(ref)
    f_mean = 10 * p * r / (r + 9 * p)
    return f_mean * (1 - 0.5 * (best["chunks"] / m) ** 3)


def test_meteor_matches_exhaustive_oracle():
    vocab = ["cat", "cats", "run", "running", "fake", "news", "dog"]
    rng = np.random.default_rng(30)
    for cand, ref in random_sentences(rng, 100, max_len=6, vocab=vocab):
        assert meteor_lite(cand, ref) == pytest.approx(meteor_oracle(cand, ref), abs=1e-9)


def test_meteor_worked_example():
    # m=2 in one chunk: P=R=2/3, F=2/3, penalty=0.0625
    score = meteor_lite(["the", "cat", "sat"], ["the", "cat", "ran"])
    assert score == pytest.approx((2.0 / 3.0) * (1 - 0.0625), abs=1e-12)


def test_meteor_single_identical_word():
    assert meteor_lite(["fake"], ["fake"]) == pytest.approx(0.5)


def test_meteor_no_matches():
    assert meteor_lite(["aardvark"], ["zebra"]) == 0.0


def test_meteor_stem_stage_matches_inflections():
    # "cats" aligns with "cat" through the stemmer
    assert meteor_lite(["cats"], ["cat"]) > 0.0


def test_meteor_fragmentation_increases_penalty():
    contiguous = meteor_lite(["a", "b", "c", "d"], ["a", "b", "c", "d"])
    scattered = meteor_lite(["a", "x", "b", "y"], ["a", "b", "u", "v"])
    assert contiguous > scattered


def test_meteor_rejects_empty():
    with pytest.raises(ValueError):
        meteor_lite([], ["a"])


# ---------------------------------------------------------------- embedding metrics


def table_from(mapping):
    return EmbeddingTable({k: np.array(v, dtype=float) for k, v in mapping.items()})


ORTHO = table_from({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})


def test_greedy_identity_and_orthogonal():
    assert greedy_matching(["a", "b"], ["a", "b"], ORTHO) == pytest.approx(1.0)
    assert greedy_matching(["a"], ["b"], ORTHO) == pytest.approx(0.0)


def test_greedy_matches_brute_force():
    rng = np.random.default_rng(40)
    vocab = {f"w{i}": rng.standard_normal(4) for i in range(12)}
    table = EmbeddingTable(vocab)
    names = list(vocab)
    for _ in range(100):
        cand = [names[i] for i in rng.integers(0, 12, size=rng.integers(1, 6))]
        ref = [names[i] for i in rng.integers(0, 12, size=rng.integers(1, 6))]

        def cos(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

        g1 = np.mean([max(cos(vocab[c], vocab[r]) for r in ref) for c in cand])
        g2 = np.mean([max(cos(vocab[r], vocab[c]) for c in cand) for r in ref])
        assert greedy_matching(cand, ref, table) == pytest.approx((g1 + g2) / 2, abs=1e-9)
        # symmetry
        assert greedy_matching(cand, ref, table) == pytest.approx(
            greedy_matching(ref, cand, table), abs=1e-12
        )


def test_greedy_skips_pair_without_in_table_tokens():
    with pytest.raises(ValueError, match="skipped"):
        greedy_matching(["zzz"], ["a"], ORTHO)


def test_extrema_vector_rule():
    assert extrema_vector(np.array([[1.0, -3.0], [2.0, 1.0]])).tolist() == [2.0, -3.0]


def test_vector_extrema_identity_orthogonal():
    assert vector_extrema(["a", "b"], ["a", "b"], ORTHO) == pytest.approx(1.0)
    assert vector_extrema(["a"], ["b"], ORTHO) == pytest.approx(0.0)


def test_vector_extrema_can_be_negative():
    table = table_from({"p": [1, 0], "q": [-1, 0]})
    assert vector_extrema(["p"], ["q"], table) == pytest.approx(-1.0)


# ---------------------------------------------------------------- cosine oracle


def _cosine(a, b):
    """One cosine from two norms; 0 when either vector is zero."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def _greedy_oracle(cand, ref):
    def directed(a, b):
        return float(np.mean([max(_cosine(x, y) for y in b) for x in a]))

    return 0.5 * (directed(cand, ref) + directed(ref, cand))


@st.composite
def embedding_pairs(draw):
    """A table over a few words (some all-zero) and two 1-20 token sides drawn from it."""
    dim = draw(st.integers(1, 50))
    n_words = draw(st.integers(1, 6))
    # Entries below 1e-6 are zeroed so that no product of norms underflows;
    # there the loop divides 0 by 0 where the matrix form returns 0.
    elements = st.floats(-10, 10, allow_subnormal=False).map(lambda x: x if abs(x) >= 1e-6 else 0.0)
    vectors = draw(hnp.arrays(np.float64, (n_words, dim), elements=elements))
    zero_rows = draw(st.lists(st.booleans(), min_size=n_words, max_size=n_words))
    vectors[np.array(zero_rows)] = 0.0
    table = EmbeddingTable({f"w{i}": vectors[i] for i in range(n_words)})
    side = st.lists(st.sampled_from([f"w{i}" for i in range(n_words)]), min_size=1, max_size=20)
    return table, draw(side), draw(side)


@settings(max_examples=300, deadline=None)
@given(embedding_pairs())
def test_embedding_metrics_match_the_cosine_loop(case):
    table, cand_tokens, ref_tokens = case
    cand, ref = table.lookup(cand_tokens), table.lookup(ref_tokens)
    assert greedy_matching(cand_tokens, ref_tokens, table) == pytest.approx(_greedy_oracle(cand, ref), abs=1e-12)
    expected = _cosine(extrema_vector(cand), extrema_vector(ref))
    assert vector_extrema(cand_tokens, ref_tokens, table) == pytest.approx(expected, abs=1e-12)


def test_embedding_table_validation(tmp_path):
    # bad values are rejected when the table is built, not at its first lookup
    with pytest.raises(ValueError, match="empty"):
        EmbeddingTable({})
    with pytest.raises(ValueError, match="dimension"):
        table_from({"a": [1, 2], "b": [1, 2, 3]})
    with pytest.raises(ValueError, match="could not convert"):
        EmbeddingTable({"a": ["x", "y"]})
    path = tmp_path / "vec.txt"
    path.write_text("a 1.0 2.0\nb nope 2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_embedding_table(path)


def test_embedding_file_empty_names_the_path(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: embedding table is empty$"):
        load_embedding_table(path)


def test_embedding_file_dimension_mismatch_names_the_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1.0 2.0\nb 1.0 2.0\nc 1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: expected 2 finite values$"):
        load_embedding_table(path)


def test_embedding_file_rejects_a_repeated_token(tmp_path):
    # A second line for 'a' would silently replace its first vector.
    path = tmp_path / "vec.txt"
    path.write_text("a 1 0\nb 0 1\na 0.5 0.5\n")
    message = f"{path}: line 3: duplicate token 'a' (first on line 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_embedding_table(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_embedding_file_non_finite_value_names_the_line(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"a 1.0 2.0\nb 1.0 {value}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: expected 2 finite values$"):
        load_embedding_table(path)


def test_embedding_table_file_roundtrip(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    table = load_embedding_table(path)
    assert table.dim == 2
    assert np.allclose(table["a"], [1.0, 0.0])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_embedding_table_from_model_returns_every_column_as_float64(dtype):
    vocab = build_vocabulary([[f"w{i}" for i in range(40)]], min_count=1)
    model = FCRGModel(ModelConfig(vocab_size=vocab.size, embed_dim=5, hidden_size=2, output_size=2, dtype=dtype))
    emb = model.params["embedding"].data
    table = embedding_table_from_model(emb, vocab)
    tokens = vocab.id_to_token[len(RESERVED_TOKENS) :]
    vectors = table.lookup(tokens)
    assert vectors.dtype == np.float64
    assert np.array_equal(vectors, emb[:, len(RESERVED_TOKENS) :].T.astype(np.float64))
    assert not any(token in table for token in RESERVED_TOKENS)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_embedding_table_from_model_does_not_alias_the_parameter(dtype):
    vocab = build_vocabulary([["fake", "news", "hoax", "news"]], min_count=1)
    model = FCRGModel(ModelConfig(vocab_size=vocab.size, embed_dim=3, hidden_size=2, output_size=2, dtype=dtype))
    emb = model.params["embedding"].data
    table = embedding_table_from_model(emb, vocab)
    expected = {t: emb[:, vocab.token_to_id[t]].astype(np.float64) for t in ("fake", "news", "hoax")}
    emb += 1.0  # the table must not alias the parameter, a float64 one included
    for token, vector in expected.items():
        assert table[token].dtype == np.float64
        assert np.array_equal(table[token], vector)
    assert "<unk>" not in table


def test_lookup_without_in_table_tokens_has_zero_rows():
    for tokens in ([], ["zzz"], ["zzz", "yyy"]):
        vectors = ORTHO.lookup(tokens)
        assert vectors.shape == (0, 3) and vectors.dtype == np.float64


# ---------------------------------------------------------------- evaluate driver


def test_evaluate_identity_scores():
    refs = {0: ["the", "cat", "sat"], 1: ["fake", "news", "url", "down"]}
    gens = {i: [list(r)] for i, r in refs.items()}
    report = evaluate(gens, refs)
    for name in ("bleu2", "bleu3", "rouge_l"):
        assert report.corpus[name] == pytest.approx(1.0)
    # METEOR keeps its fragmentation penalty even on identical pairs
    assert 0.9 < report.corpus["meteor_lite"] < 1.0


def test_evaluate_duplicating_responses_keeps_averages():
    refs = {0: ["a", "b"], 1: ["c", "a"]}
    gens = {0: [["a", "x"]], 1: [["c", "a"]]}
    doubled = {i: rs + rs for i, rs in gens.items()}
    r1 = evaluate(gens, refs)
    r2 = evaluate(doubled, refs)
    for name in ("rouge_l", "meteor_lite"):
        assert r1.corpus[name] == pytest.approx(r2.corpus[name], abs=1e-12)


def test_evaluate_per_source_then_corpus_mean():
    refs = {0: ["a", "b", "c"], 1: ["a", "b", "c"]}
    gens = {0: [["a", "b", "c"], ["x", "y", "z"]], 1: [["a", "b", "c"]]}
    report = evaluate(gens, refs)
    # source 0 rouge: mean(1.0, 0.0) = 0.5; corpus: mean(0.5, 1.0)
    assert report.per_source["rouge_l"][0] == pytest.approx(0.5)
    assert report.corpus["rouge_l"] == pytest.approx(0.75)


def test_evaluate_embedding_skips_counted():
    refs = {0: ["a"], 1: ["zzz"]}
    gens = {0: [["a"]], 1: [["zzz"]]}
    report = evaluate(gens, refs, ORTHO)
    assert report.skipped["greedy_matching"] == 1
    assert report.corpus["greedy_matching"] == pytest.approx(1.0)  # only source 0 scored


def test_evaluate_missing_reference_raises():
    with pytest.raises(ValueError, match="missing references"):
        evaluate({0: [["a"]], 5: [["b"]]}, {0: ["a"]})


def test_report_tsv_scale():
    refs = {0: ["a", "b"]}
    report = evaluate({0: [["a", "b"]]}, refs)
    lines = report.to_tsv().strip().split("\n")
    header, row = lines[0].split("\t"), lines[1].split("\t")
    assert dict(zip(header, row))["bleu2"] == "100.000"


# ---------------------------------------------------------------- Wilcoxon


def wilcoxon_oracle(a, b):
    """Exact one-sided p by full 2^n sign enumeration (midranks for ties)."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    absd = np.abs(diffs)
    # midranks
    ranks = np.empty(n)
    sorted_abs = np.sort(absd)
    for i, v in enumerate(absd):
        eq = sorted_abs == v
        ranks[i] = np.mean(np.nonzero(eq)[0] + 1)
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    count = sum(
        1
        for signs in itertools.product([0, 1], repeat=n)
        if sum(r for r, s in zip(ranks, signs) if s) >= w_obs - 1e-12
    )
    return count / 2**n


def test_wilcoxon_all_positive_five():
    res = wilcoxon_one_sided([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
    assert res.p_value == pytest.approx(0.03125, abs=1e-12)
    assert not res.degenerate


def test_wilcoxon_degenerate():
    res = wilcoxon_one_sided([1.0, 2.0], [1.0, 2.0])
    assert res.p_value == 1.0 and res.degenerate


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(50)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        a = rng.normal(0.3, 1.0, size=n).round(2)
        b = rng.normal(0.0, 1.0, size=n).round(2)
        got = wilcoxon_one_sided(a.tolist(), b.tolist())
        if got.degenerate:
            continue
        assert got.p_value == pytest.approx(wilcoxon_oracle(a, b), abs=1e-12)


def test_wilcoxon_with_ties_at_fifteen_matches_the_oracle():
    # n = 15, the largest exact case; magnitudes 1, 2 and 3 leave three tie groups.
    diffs = [1, -1, 2, 2, -2, 3, 1, 3, -3, 2, 1, -1, 3, 2, 1]
    a, b = np.array(diffs, dtype=np.float64), np.zeros(15)
    assert wilcoxon_one_sided(a.tolist(), b.tolist()).p_value == wilcoxon_oracle(a, b)


def test_wilcoxon_swap_relationship():
    a = [3.0, 5.0, 2.0, 8.0, 1.0, 9.0]
    b = [1.0, 4.0, 4.0, 2.0, 0.5, 3.0]
    p_ab = wilcoxon_one_sided(a, b).p_value
    p_ba = wilcoxon_one_sided(b, a).p_value
    # one-sided halves overlap exactly on the observed point mass
    assert p_ab + p_ba > 1.0  # both include P[W = w_obs]
    assert p_ab < 0.5 < p_ba


def test_wilcoxon_normal_approximation_close_to_exact():
    rng = np.random.default_rng(60)
    a = rng.normal(0.5, 1.0, size=20)
    b = rng.normal(0.0, 1.0, size=20)
    approx = wilcoxon_one_sided(a.tolist(), b.tolist()).p_value
    # exact via enumeration on the same diffs (2^20 is too big; use n=14 slice)
    a14, b14 = a[:14], b[:14]
    exact = wilcoxon_oracle(a14, b14)
    got = wilcoxon_one_sided(a14.tolist(), b14.tolist()).p_value
    assert got == pytest.approx(exact, abs=1e-12)
    assert 0.0 <= approx <= 1.0


def test_wilcoxon_length_mismatch():
    with pytest.raises(ValueError):
        wilcoxon_one_sided([1.0], [1.0, 2.0])
