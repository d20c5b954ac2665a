"""Rank helpers against their definitions."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrg._stats import midranks, tie_groups

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
