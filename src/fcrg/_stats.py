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


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines between the rows of ``a`` (n, d) and ``b`` (m, d), as (n, m).

    A pair with a zero-norm row has cosine 0; values are clipped to [-1, 1].
    """
    norms = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    dots = a @ b.T
    cosines = np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0.0)
    return np.clip(cosines, -1.0, 1.0)
