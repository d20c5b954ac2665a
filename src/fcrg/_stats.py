"""Small shared statistics helpers."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def midranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with tied values receiving the mean of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last_rank = np.cumsum(counts)
    return (last_rank - (counts - 1) / 2.0)[inverse]


def tie_groups(values: Sequence[float]) -> list[int]:
    """Sizes of groups of tied values."""
    return np.unique(values, return_counts=True)[1].tolist()


def rank_sum_counts(ranks: Sequence[float]) -> np.ndarray:
    """``table[k, s]``: how many k-subsets of ``ranks`` have doubled rank sum s.

    Doubled midranks are integers, so the counts are exact with ties.  Shift
    algorithm (Streitberg & Röhmel 1986): each rank r >= 1 adds every subset
    counted so far, one larger and 2r higher.  int64 counts are exact while C(n, k) < 2**63.
    """
    doubled = np.rint(2.0 * np.asarray(ranks, dtype=np.float64)).astype(np.int64)
    table = np.zeros((len(doubled) + 1, int(doubled.sum()) + 1), dtype=np.int64)
    table[0, 0] = 1
    for r in doubled:
        table[1:, r:] += table[:-1, :-r]
    return table


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines between the rows of ``a`` (n, d) and ``b`` (m, d), as (n, m).

    A pair with a zero-norm row has cosine 0; values are clipped to [-1, 1].
    """
    norms = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    dots = a @ b.T
    cosines = np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0.0)
    return np.clip(cosines, -1.0, 1.0)
