"""Converse bounds on the delivery rate.

A cut-set argument over any s of the L distinctly-requested files gives

    rate >= s - s * M / floor(N / s)    for s = 1..L

with M the per-cache capacity in file units: a server message plus s
cache contents must reconstruct s files, and the caches can be reused
floor(N / s) times across disjoint file batches.  ``cutset_bound``
returns the best such cut, clamped at zero, as a float, and
``average_bound`` averages it over the rows of a demand array.
``gap_reduction`` measures how much of the distance between the
nonadaptive rate and this bound a scheme closes.
"""

from __future__ import annotations

import numpy as np

from .core import distinct_counts

__all__ = ["average_bound", "cutset_bound", "gap_reduction"]

GAP_TOL = 1e-12


def cutset_bound(K: int, L: int, N: int, M: float) -> float:
    """Best cut-set lower bound over cut sizes 1..L.  M in file units."""
    if not 1 <= L <= K:
        raise ValueError("need 1 <= L <= K")
    if N < K:
        raise ValueError("need N >= K")
    if not 0 <= M <= N:
        raise ValueError("need 0 <= M <= N")
    return max(max(s - s * M / (N // s) for s in range(1, L + 1)), 0.0)


def average_bound(demands, N: int, M: float, K: int) -> float:
    """Mean cut-set bound over the rows of a (..., K) int demand array.

    Each row's bound is the cut-set bound at its number of distinct files
    L, and the rows' values are summed left to right, in row order.
    """
    demands = np.asarray(demands)
    if demands.size == 0:
        raise ValueError("need at least one demand vector")
    if demands.shape[-1] != K:
        raise ValueError("demand length disagrees with K")
    by_L = np.array([0.0] + [cutset_bound(K, L, N, M) for L in range(1, K + 1)])
    values = by_L[distinct_counts(demands).ravel()]
    # np.cumsum adds in order, one element at a time
    return float(np.cumsum(values)[-1]) / values.size


def gap_reduction(r_na: float, r_scheme: float, bound: float) -> float:
    """Fraction of the nonadaptive-to-bound gap closed by a scheme.

    Defined as (r_na - r_scheme) / (r_na - bound); requires the
    nonadaptive rate to sit strictly above the bound.
    """
    if r_na <= bound + GAP_TOL:
        raise ValueError("gap reduction undefined: nonadaptive rate does not exceed the bound")
    return (r_na - r_scheme) / (r_na - bound)
