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
