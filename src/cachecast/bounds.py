"""Converse bounds on the delivery rate.

A cut-set argument over any s of the L distinctly-requested files gives

    rate >= s - s * M / floor(N / s)    for s = 1..L

with M the per-cache capacity in file units: a server message plus s
cache contents must reconstruct s files, and the caches can be reused
floor(N / s) times across disjoint file batches.  The bound is the best
such cut, clamped at zero.  ``gap_reduction`` measures how much of the
distance between the nonadaptive rate and this bound a scheme closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DemandVector

GAP_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Cut-set bound value and the cut size that attains it."""

    value: float
    argmax_s: int


def cutset_bound(K: int, L: int, N: int, M: float) -> BoundReport:
    """Best cut-set lower bound over cut sizes 1..L.  M in file units."""
    if not 1 <= L <= K:
        raise ValueError("need 1 <= L <= K")
    if N < K:
        raise ValueError("need N >= K")
    if M < 0 or M > N:
        raise ValueError("need 0 <= M <= N")
    best_val = -float("inf")
    best_s = 1
    for s in range(1, L + 1):
        val = s - s * M / (N // s)
        if val > best_val:
            best_val = val
            best_s = s
    return BoundReport(value=max(best_val, 0.0), argmax_s=best_s)


def average_bound(demands: list[DemandVector], N: int, M: float, K: int) -> float:
    """Mean cut-set bound over sampled demand vectors, one cut-set per distinct L."""
    if not demands:
        raise ValueError("need at least one demand vector")
    by_L = {}
    total = 0.0
    for d in demands:
        if d.K != K:
            raise ValueError("demand length disagrees with K")
        L = len(set(d.requests))
        if L not in by_L:
            by_L[L] = cutset_bound(K, L, N, M).value
        total += by_L[L]
    return total / len(demands)


def gap_reduction(r_na: float, r_scheme: float, bound: float) -> float:
    """Fraction of the nonadaptive-to-bound gap closed by a scheme.

    Defined as (r_na - r_scheme) / (r_na - bound); requires the
    nonadaptive rate to sit strictly above the bound.
    """
    if r_na <= bound + GAP_TOL:
        raise ValueError("gap reduction undefined: nonadaptive rate does not exceed the bound")
    return (r_na - r_scheme) / (r_na - bound)
