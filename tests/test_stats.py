"""Shared statistics helpers against their definitions."""

import ast
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fcrg import _stats
from fcrg._stats import cosine_matrix, midranks, rank_sum_counts, tie_groups

# Few distinct values, so ties are common.
VALUES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), max_size=25)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_midranks_match_definition(values):
    # The midrank of v: values below it, plus the mean position 1..k among its k ties.
    expected = [sum(u < v for u in values) + (values.count(v) + 1) / 2.0 for v in values]
    assert midranks(values).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_tie_groups_match_definition(values):
    counts = Counter(values)
    assert tie_groups(values) == [counts[v] for v in sorted(counts)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), max_size=10))
def test_rank_sum_counts_match_the_subsets(values):
    ranks = midranks(values).tolist()
    table = rank_sum_counts(ranks)
    expected = np.zeros((len(ranks) + 1, int(2 * sum(ranks)) + 1), dtype=np.int64)
    for subset in itertools.product((False, True), repeat=len(ranks)):
        expected[sum(subset), int(2 * sum(r for r, chosen in zip(ranks, subset) if chosen))] += 1
    assert table.dtype == np.int64 and table.tolist() == expected.tolist()


@st.composite
def row_pairs(draw):
    """Two row matrices of one width; small integers make zero and parallel rows common."""
    dim = draw(st.integers(1, 5))
    elements = st.integers(-3, 3).map(float)
    a = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), dim), elements=elements))
    b = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), dim), elements=elements))
    return a, b


@settings(max_examples=200, deadline=None)
@given(row_pairs())
def test_cosine_matrix_is_bounded_and_zero_at_zero_rows(pair):
    a, b = pair
    cosines = cosine_matrix(a, b)
    assert cosines.shape == (len(a), len(b))
    assert ((cosines >= -1.0) & (cosines <= 1.0)).all()
    zero = (a == 0.0).all(axis=1)[:, None] | (b == 0.0).all(axis=1)[None, :]
    assert (cosines[zero] == 0.0).all()


def test_cosine_matrix_clips_parallel_rows():
    # Unclipped, this pair's cosine rounds to 1 + 2.2e-16.
    a = np.array([[1.801634869866125, 1.31510376473437, 0.357380410658956]])
    assert cosine_matrix(a, a * 2.4697574856302267)[0, 0] == 1.0


FLOATS = st.floats(-10, 10, allow_subnormal=False).map(lambda x: x if abs(x) >= 1e-6 else 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 50).flatmap(lambda d: st.tuples(*[hnp.arrays(np.float64, d, elements=FLOATS)] * 2)))
def test_cosine_matrix_of_single_rows_is_the_scalar_cosine(pair):
    a, b = pair
    norms = math.sqrt(a @ a) * math.sqrt(b @ b)
    expected = min(max(a @ b / norms, -1.0), 1.0) if norms else 0.0
    assert cosine_matrix(a[None], b[None])[0, 0] == pytest.approx(expected, abs=1e-12)


def _calls_norm(tree: ast.AST) -> bool:
    """Whether ``tree`` calls ``norm`` by any spelling: ``np.linalg.norm``, ``linalg.norm`` or ``norm``."""
    return any(
        isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "norm" for node in ast.walk(tree)
    )


def test_only_stats_computes_norms():
    package = Path(_stats.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    callers = [name for name, tree in trees.items() if _calls_norm(tree)]
    assert callers == ["_stats.py"], f"modules of src/fcrg computing a norm outside _stats.cosine_matrix: {callers}"
