"""Lexicon scoring, LDA, rank tests and corpus analyses."""

import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrg import analysis
from fcrg.analysis import (
    Lexicon,
    category_score,
    group_stats,
    lda_fit,
    lda_top_words,
    length_share_test,
    mann_whitney_u,
    reply_tokens,
)
from fcrg.corpus import RawPair

LEXICON_TEXT = """\
1\tipron
2\tnegate
3\tpast
%
it\t1
that\t1
no\t2
not\t2
nothing\t1,2
debunk*\t3
was\t3
"""


@pytest.fixture
def lex():
    return Lexicon.parse(LEXICON_TEXT)


# ---------------------------------------------------------------- lexicon


def test_parse_categories_and_patterns(lex):
    assert lex.categories == ["ipron", "negate", "past"]
    assert lex.match("it") == {"ipron"}
    assert lex.match("nothing") == {"ipron", "negate"}
    assert lex.match("debunked") == {"past"}
    assert lex.match("zzz") == set()


def test_parse_rejects_nonfinal_wildcard():
    with pytest.raises(ValueError, match="pattern-final"):
        Lexicon.parse("1\ta\n%\nde*bunk\t1\n")


def test_parse_rejects_undeclared_category():
    with pytest.raises(ValueError, match="undeclared"):
        Lexicon.parse("1\ta\n%\nword\t9\n")


def test_parse_rejects_a_duplicate_category_name():
    # Two ids for one name would make analyze write the same category's rows twice.
    with pytest.raises(ValueError, match="^<lexicon>: line 2: duplicate category name 'negation'$"):
        Lexicon.parse("1\tnegation\n2\tnegation\n%\nnot\t1,2\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ValueError, match="line 2"):
        Lexicon.parse("1\ta\nbadline\n%\n")


def test_parse_splits_lines_on_newline_only():
    # A form feed inside a comment is not a line break: the error is on line 5.
    with pytest.raises(ValueError, match="line 5: expected 'pattern"):
        Lexicon.parse("1\ta\n# comment\x0cwith a form feed\n%\nword\t1\nbadline\n")
    assert Lexicon.parse("1\ta\n# comment\x0c\x85\u2028end\n%\nword\t1\n").match("word") == {"a"}


def test_bundled_demo_lexicon_loads():
    path = Path(analysis.__file__).parent / "data" / "demo_lexicon.tsv"
    demo = Lexicon.load(path)
    assert set(demo.categories) == {"ipron", "negate", "swear", "focuspast"}
    assert "focuspast" in demo.match("was")
    assert "swear" in demo.match("damnit")  # damn* wildcard


def test_category_score_counts_fraction(lex):
    scores = category_score(["it", "is", "fake"], lex)
    assert scores == {"ipron": pytest.approx(1 / 3), "negate": 0.0, "past": 0.0}


def test_category_score_multi_category_token(lex):
    scores = category_score(["nothing"], lex)
    assert scores["ipron"] == 1.0 and scores["negate"] == 1.0


def test_category_score_rejects_empty(lex):
    with pytest.raises(ValueError, match="empty"):
        category_score([], lex)


def test_group_stats_two_point_variance(lex):
    # one all-match doc, one no-match doc: scores {1, 0}
    stats = group_stats([["it"], ["fake"]], lex)
    assert stats.means["ipron"] == pytest.approx(0.5)
    assert stats.variances["ipron"] == pytest.approx(0.25)  # population variance


def test_group_stats_identical_docs_zero_variance(lex):
    stats = group_stats([["it", "was"]] * 4, lex)
    assert all(v == 0.0 for v in stats.variances.values())


def test_group_stats_rejects_an_empty_document(lex):
    # Dropping empty replies is the caller's job (``fcrg analyze`` does it).
    with pytest.raises(ValueError, match="empty document"):
        group_stats([["it"], [], ["fake"]], lex)


def test_group_stats_matches_two_pass_oracle(lex):
    rng = np.random.default_rng(5)
    vocab = ["it", "that", "no", "was", "fake", "news"]
    docs = [[vocab[i] for i in rng.integers(0, 6, size=rng.integers(1, 8))] for _ in range(30)]
    stats = group_stats(docs, lex)
    for cat in lex.categories:
        scores = [category_score(d, lex)[cat] for d in docs]
        mean = sum(scores) / len(scores)
        var = sum((s - mean) ** 2 for s in scores) / len(scores)
        assert stats.means[cat] == pytest.approx(mean, abs=1e-12)
        assert stats.variances[cat] == pytest.approx(var, abs=1e-12)


# ---------------------------------------------------------------- LDA


# Oracle: the per-site numpy sampler, which ``lda_fit`` must reproduce exactly
# (the same draws and the same float operations in the same order).
def _site_weights(doc_topic_row: np.ndarray, word_column: np.ndarray, topic_totals: np.ndarray,
                  alpha: float, beta: float, vocab_size: int) -> np.ndarray:
    """Unnormalized collapsed-Gibbs weights p(z=k) with own count removed."""
    return (doc_topic_row + alpha) * (word_column + beta) / (topic_totals + vocab_size * beta)


def _reference_lda_fit(documents, num_topics, alpha=None, beta=0.01, iterations=1000, seed=0, on_sweep=None):
    if alpha is None:
        alpha = 50.0 / num_topics
    vocab = sorted({t for doc in documents for t in doc})
    token_to_id = {t: i for i, t in enumerate(vocab)}
    vocab_size = len(vocab)
    doc_tokens = [np.array([token_to_id[t] for t in doc], dtype=np.int64) for doc in documents]

    rng = np.random.default_rng(seed)
    doc_topic = np.zeros((len(documents), num_topics), dtype=np.int64)
    topic_word = np.zeros((num_topics, vocab_size), dtype=np.int64)
    topic_totals = np.zeros(num_topics, dtype=np.int64)
    assignments = []
    for d, ids in enumerate(doc_tokens):
        z = rng.integers(0, num_topics, size=len(ids))
        assignments.append(z)
        for w, k in zip(ids, z):
            doc_topic[d, k] += 1
            topic_word[k, w] += 1
            topic_totals[k] += 1

    model = analysis.TopicModel(num_topics, alpha, beta, iterations, seed, vocab,
                                doc_topic, topic_word, topic_totals, assignments, doc_tokens)
    for _ in range(iterations):
        for d, ids in enumerate(doc_tokens):
            z = assignments[d]
            for pos, w in enumerate(ids):
                k_old = z[pos]
                doc_topic[d, k_old] -= 1
                topic_word[k_old, w] -= 1
                topic_totals[k_old] -= 1
                weights = _site_weights(doc_topic[d], topic_word[:, w], topic_totals, alpha, beta, vocab_size)
                cdf = np.cumsum(weights)
                k_new = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
                z[pos] = k_new
                doc_topic[d, k_new] += 1
                topic_word[k_new, w] += 1
                topic_totals[k_new] += 1
        if on_sweep is not None:
            on_sweep(model)
    return model


def _lda_state(model):
    """Copies of the sampled state, with dtypes, for exact comparison."""
    arrays = [model.doc_topic, model.topic_word, model.topic_totals, *model.assignments, *model.doc_tokens]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


_hyperparameter = st.one_of(
    st.integers(-3, 2).flatmap(lambda e: st.floats(10.0 ** e, 10.0 ** (e + 1))),
    st.integers(1, 20),
)


@settings(max_examples=150, deadline=None)
@given(
    docs=st.integers(1, 12).flatmap(
        lambda v: st.lists(st.lists(st.integers(0, v - 1).map(lambda i: f"w{i}"), min_size=1, max_size=12),
                           min_size=1, max_size=30)),
    num_topics=st.integers(1, 8),
    alpha=st.one_of(st.none(), _hyperparameter),
    beta=_hyperparameter,
    iterations=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_lda_fit_equals_the_per_site_numpy_sampler(docs, num_topics, alpha, beta, iterations, seed):
    sweeps = {"kernel": [], "reference": []}
    args = dict(num_topics=num_topics, alpha=alpha, beta=beta, iterations=iterations, seed=seed)
    model = lda_fit(docs, **args, on_sweep=lambda m: sweeps["kernel"].append(_lda_state(m)))
    reference = _reference_lda_fit(docs, **args, on_sweep=lambda m: sweeps["reference"].append(_lda_state(m)))
    assert len(sweeps["kernel"]) == iterations
    assert sweeps["kernel"] == sweeps["reference"]
    assert _lda_state(model) == _lda_state(reference)
    assert model.vocab == reference.vocab and model.alpha == reference.alpha


@pytest.mark.parametrize("num_topics", [5, 1])
def test_lda_fit_equals_the_per_site_numpy_sampler_at_workload_scale(num_topics):
    # A Zipfian corpus with documents of up to 20 tokens and a most frequent word
    # counted hundreds of times.  At K=1 every site reads its document's and its
    # word's whole count less its own token: the tops of the kernel's float tables.
    rng = np.random.default_rng(30)
    ranks = np.arange(1, 401)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    lengths = np.concatenate([np.full(20, 20), rng.integers(1, 21, size=280)])
    docs = [[f"w{i}" for i in rng.choice(len(ranks), size=n, p=probs)] for n in lengths]
    assert max(map(len, docs)) == 20
    assert max(Counter(t for doc in docs for t in doc).values()) >= 200
    model = lda_fit(docs, num_topics=num_topics, iterations=2, seed=7)
    assert _lda_state(model) == _lda_state(_reference_lda_fit(docs, num_topics, iterations=2, seed=7))


def test_lda_fit_without_on_sweep_equals_the_per_site_numpy_sampler():
    docs, _ = synthetic_two_topic_corpus(n_docs=40, seed=5)
    docs += [["sport0"], ["polit3", "polit3", "polit3"]]
    model = lda_fit(docs, num_topics=3, alpha=0.1, iterations=5, seed=11)
    assert _lda_state(model) == _lda_state(_reference_lda_fit(docs, 3, alpha=0.1, iterations=5, seed=11))


def test_lda_single_topic_is_smoothed_unigram():
    docs = [["a", "b", "a"], ["b", "c"], ["a"]]
    model = lda_fit(docs, num_topics=1, iterations=2, seed=0)
    counts = {"a": 3, "b": 2, "c": 1}
    beta, V, n = model.beta, 3, 6
    probs = (model.topic_word[0] + beta) / (model.topic_totals[0] + V * beta)
    for w, word in enumerate(model.vocab):
        assert probs[w] == pytest.approx((counts[word] + beta) / (n + V * beta))


def test_lda_count_invariants_every_sweep():
    rng = np.random.default_rng(1)
    docs = [[f"w{i}" for i in rng.integers(0, 10, size=rng.integers(2, 8))] for _ in range(20)]

    def check(model):
        assert (model.doc_topic >= 0).all() and (model.topic_word >= 0).all()
        for d, doc in enumerate(model.doc_tokens):
            assert model.doc_topic[d].sum() == len(doc)
        assert np.array_equal(model.topic_word.sum(axis=1), model.topic_totals)

    lda_fit(docs, num_topics=3, iterations=10, seed=2, on_sweep=check)


def test_lda_deterministic_under_seed():
    docs = [["a", "b"], ["b", "c"], ["c", "a"]]
    m1 = lda_fit(docs, 2, iterations=20, seed=9)
    m2 = lda_fit(docs, 2, iterations=20, seed=9)
    assert np.array_equal(m1.topic_word, m2.topic_word)


def synthetic_two_topic_corpus(n_docs=200, seed=0):
    """Documents drawn from two disjoint-vocabulary topics."""
    rng = np.random.default_rng(seed)
    topics = [[f"sport{i}" for i in range(8)], [f"polit{i}" for i in range(8)]]
    docs = []
    for _ in range(n_docs):
        words = topics[int(rng.integers(0, 2))]
        docs.append([words[i] for i in rng.integers(0, 8, size=12)])
    return docs, topics


def test_lda_recovers_disjoint_topics():
    docs, topics = synthetic_two_topic_corpus()
    model = lda_fit(docs, num_topics=2, alpha=0.1, iterations=100, seed=3)
    tops = [set(words) for words in lda_top_words(model, 5)]
    truth = [set(t) for t in topics]
    direct = tops[0] <= truth[0] and tops[1] <= truth[1]
    swapped = tops[0] <= truth[1] and tops[1] <= truth[0]
    assert direct or swapped


def test_lda_top_words_ties_break_by_id():
    docs = [["a", "b"]] * 3
    model = lda_fit(docs, 1, iterations=1, seed=0)
    assert lda_top_words(model, 2)[0] == ["a", "b"]


@pytest.mark.parametrize("m", [0, -1])
def test_lda_top_words_rejects_m_below_1(m):
    model = lda_fit([["a", "b"], ["b", "c"]], 2, iterations=1, seed=0)
    with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
        lda_top_words(model, m)


def test_lda_site_weights_hand_calculation():
    # one site with K=2: weights (n_dk+a)(n_kw+b)/(n_k+Vb), own count excluded
    doc_topic_row = np.array([2, 1])
    word_column = np.array([3, 0])
    topic_totals = np.array([10, 5])
    w = _site_weights(doc_topic_row, word_column, topic_totals, alpha=0.5, beta=0.01, vocab_size=4)
    expected0 = (2 + 0.5) * (3 + 0.01) / (10 + 4 * 0.01)
    expected1 = (1 + 0.5) * (0 + 0.01) / (5 + 4 * 0.01)
    assert w[0] == pytest.approx(expected0, abs=1e-15)
    assert w[1] == pytest.approx(expected1, abs=1e-15)


def test_lda_default_alpha_is_50_over_k():
    model = lda_fit([["a", "b"]], num_topics=5, iterations=1)
    assert model.alpha == pytest.approx(10.0)


def test_lda_validation():
    with pytest.raises(ValueError):
        lda_fit([["a"], []], 2)
    with pytest.raises(ValueError):
        lda_fit([["a"]], 0)
    with pytest.raises(ValueError):
        lda_fit([["a"]], 2, iterations=0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        lda_fit([["a", "b"], ["c"]], 2, seed=-1)


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", [0, 0.0, -0.5, float("nan"), float("inf"), -float("inf")])
def test_lda_rejects_non_positive_or_non_finite_hyperparameters(name, value):
    # alpha=0 makes every weight 0 at the one-token document, an all-zero cdf
    with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got {value}$"):
        lda_fit([["a", "b"], ["c"]], 3, **{name: value})


@pytest.mark.parametrize("alpha, beta", [(1e-200, 1e-200), (1e-300, 1e-10), (1e-10, 1e-300), (1.0, 1e308)])
def test_lda_rejects_hyperparameters_whose_site_weights_underflow(alpha, beta):
    # At (1e-200, 1e-200) every weight of the one-token document's site rounded to 0;
    # at beta=1e308, V*beta overflows and every weight is 0.
    message = re.escape(f"alpha={alpha} and beta={beta} underflow: the smallest site weight "
                        "alpha*beta/(tokens + V*beta) is not a normal float")
    with pytest.raises(ValueError, match=f"^{message}$"):
        lda_fit([["a"], ["b", "c"]], 2, alpha=alpha, beta=beta, iterations=1)


def test_lda_accepts_the_smallest_hyperparameters_with_normal_site_weights():
    # alpha*beta/(3 tokens + 3*beta) is about 3.3e-301, a normal float.
    model = lda_fit([["a"], ["b", "c"]], 2, alpha=1e-150, beta=1e-150, iterations=3)
    assert model.topic_totals.sum() == 3


# ---------------------------------------------------------------- Mann-Whitney


def mw_exact_oracle(a, b):
    """Exact one-sided p: enumerate all rank arrangements (tie-free only)."""
    n_a, n = len(a), len(a) + len(b)
    combined = sorted(a + b)
    ranks_a = sum(combined.index(x) + 1 for x in a)
    u_obs = ranks_a - n_a * (n_a + 1) / 2
    count = total = 0
    for pos in itertools.combinations(range(1, n + 1), n_a):
        u = sum(pos) - n_a * (n_a + 1) / 2
        total += 1
        if u >= u_obs - 1e-12:
            count += 1
    return count / total


def mw_tied_oracle(a, b):
    """Exact one-sided p with ties: enumerate every n_a-subset of the midranks."""
    values = a + b
    ranks = np.array([sum(u < v for u in values) + (values.count(v) + 1) / 2 for v in values])
    observed = ranks[: len(a)].sum()
    sums = [ranks[list(pos)].sum() for pos in itertools.combinations(range(len(ranks)), len(a))]
    return sum(s >= observed - 1e-12 for s in sums) / len(sums)


def test_mw_worked_example():
    u, p = mann_whitney_u([4, 5, 6], [1, 2, 3])
    assert u == 9.0
    assert p == pytest.approx(0.05, abs=1e-12)  # 1 / C(6,3)


def test_mw_identical_samples_not_significant():
    _, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert p >= 0.5


def test_mw_u_sum_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=rng.integers(2, 8)).tolist()
        b = rng.normal(size=rng.integers(2, 8)).tolist()
        u_a, _ = mann_whitney_u(a, b, "a_greater")
        u_b, _ = mann_whitney_u(b, a, "a_greater")
        assert u_a + u_b == pytest.approx(len(a) * len(b))


def test_mw_matches_enumeration_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(0.5, 1, size=5).round(3).tolist()
        b = rng.normal(0.0, 1, size=5).round(3).tolist()
        _, p = mann_whitney_u(a, b)
        if len(set(a + b)) < 10:
            assert p == mw_tied_oracle(a, b)
        else:
            assert p == pytest.approx(mw_exact_oracle(a, b), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 11).flatmap(lambda n_a: st.tuples(
    st.lists(st.integers(0, 4).map(float), min_size=n_a, max_size=n_a),
    st.lists(st.integers(0, 4).map(float), min_size=1, max_size=12 - n_a),
)))
def test_mw_with_ties_matches_the_tied_oracle(samples):
    # Five values over up to 12 observations: nearly every draw has ties.
    a, b = samples
    for alternative, (first, second) in (("a_greater", (a, b)), ("b_greater", (b, a))):
        _, p = mann_whitney_u(a, b, alternative)
        assert p == mw_tied_oracle(first, second)


def test_mw_normal_close_to_exact_8_plus_8():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(0.4, 1, size=8).tolist()
        b = rng.normal(0.0, 1, size=8).tolist()
        if len(set(a + b)) < 16:
            continue
        exact = mw_exact_oracle(a, b)
        # force the approximation path by padding? no: compute directly
        u, _ = mann_whitney_u(a, b)
        n_a = n_b = 8
        n = 16
        mean = n_a * n_b / 2
        var = n_a * n_b * (n + 1) / 12
        approx = 0.5 * math.erfc((u - mean - 0.5) / math.sqrt(2 * var))
        assert abs(approx - exact) < 0.02


def test_mw_b_greater_alternative():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6], alternative="b_greater")
    assert p == pytest.approx(0.05, abs=1e-12)
    assert u == 0.0


def test_mw_validation():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1])
    with pytest.raises(ValueError):
        mann_whitney_u([1], [2], alternative="two_sided")


# ---------------------------------------------------------------- document analyses


def make_share_pairs(short_shares, long_shares):
    pairs = []
    for s in short_shares:
        pairs.append(RawPair("claim", "short reply here", s))  # 3 tokens
    for s in long_shares:
        reply = " ".join(["token"] * 12)
        pairs.append(RawPair("claim", reply, s))
    return pairs


def test_length_share_test_long_bucket_dominates():
    pairs = make_share_pairs([1, 2, 3], [10, 11, 12])
    u, p = length_share_test(pairs, reply_tokens(pairs))
    assert p == pytest.approx(0.05, abs=1e-12)


def test_length_share_test_identical_distributions():
    pairs = make_share_pairs([5, 6, 7], [5, 6, 7])
    _, p = length_share_test(pairs, reply_tokens(pairs))
    assert p >= 0.5


def test_length_share_test_ignores_unbucketed_and_unshared():
    pairs = make_share_pairs([1], [9])
    pairs.append(RawPair("claim", " ".join(["w"] * 30), 1000))  # 30 tokens: outside buckets
    pairs.append(RawPair("claim", "no share count"))
    u, p = length_share_test(pairs, reply_tokens(pairs))
    assert u == 1.0  # only the 1-vs-1 comparison remains


def test_length_share_test_names_empty_bucket():
    pairs = make_share_pairs([], [5])
    with pytest.raises(ValueError, match="short bucket"):
        length_share_test(pairs, reply_tokens(pairs))
    pairs = make_share_pairs([5], [])
    with pytest.raises(ValueError, match="long bucket"):
        length_share_test(pairs, reply_tokens(pairs))


def test_length_share_bucket_bounds_inclusive():
    # 9-token reply is short; 10-token reply is long
    nine = RawPair("c", " ".join(["w"] * 9), 1)
    ten = RawPair("c", " ".join(["w"] * 10), 2)
    u, _ = length_share_test([nine, ten], reply_tokens([nine, ten]))
    assert u == 1.0
