"""Cache placement: what fraction of every file sits on which caches.

A symmetric placement is summarized by fractions x_0..x_K where x_s is
the share of each file stored exactly at every size-s subset of caches.
Three constructions are provided:

* ``centralized_profile`` -- the optimal coordinated placement.  With
  t = K * m_ratio, all mass goes on subset size t when t is an integer,
  and splits linearly over floor(t) and ceil(t) otherwise.  This is the
  closed form of the placement linear program below.
* ``decentralized_profile`` -- uncoordinated random caching where every
  cache grabs an m_ratio fraction of each file on its own; a symbol
  lands on a given size-s subset with probability q^s (1-q)^(K-s) for
  q = m_ratio.  (This exponent pairing is the one consistent with the
  standard uncoordinated peak rate (1-q)/q (1 - (1-q)^K), which
  rate_nonadaptive meets at L = K; tests/oracles.py holds that closed
  form.)
* ``solve_placement_lp`` -- the worst-case-rate LP solved numerically,
  used to cross-check the closed form.

``materialize_partition`` turns a profile into an actual symbol-level
partition of each file for bit-level delivery experiments, along with
deterministic pseudo-random file contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .lp import LinearProgram, LpNumericalError, solve

__all__ = ["PartitionMap", "PlacementProfile", "centralized_profile", "decentralized_profile",
           "materialize_partition", "solve_placement_lp"]

# bit-level work enumerates all 2^K subsets; masks are uint8 up to K = 8
# and uint16 up to this cap
SUBSET_ENUM_CAP = 12


@dataclass
class PlacementProfile:
    """Subset-size storage fractions x_0..x_K plus the scheme label."""

    fractions: np.ndarray
    scheme: str

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=float).reshape(-1)
        if self.fractions.shape[0] < 2:
            raise ValueError("profile needs entries for sizes 0..K with K >= 1")
        if not np.all(np.isfinite(self.fractions)):
            raise ValueError("profile fractions must be finite")
        if np.any(self.fractions < 0):
            raise ValueError("profile fractions must be nonnegative")

    @property
    def K(self) -> int:
        return self.fractions.shape[0] - 1


def centralized_profile(K: int, m_ratio: float) -> PlacementProfile:
    """Optimal coordinated placement for cache budget m_ratio.

    Closed form: with t = K * m_ratio, x_t = 1 / C(K, t) for integer t;
    otherwise mass splits over floor(t) and ceil(t) with weights
    (ceil(t) - t) and (t - floor(t)).
    """
    if not 0.0 <= m_ratio <= 1.0:
        raise ValueError("m_ratio must lie in [0, 1]")
    t = K * m_ratio
    x = np.zeros(K + 1)
    tr = round(t)
    if abs(t - tr) <= 1e-9:
        x[tr] = 1.0 / comb(K, tr)
    else:
        lo = int(np.floor(t))
        x[lo] = (lo + 1 - t) / comb(K, lo)
        x[lo + 1] = (t - lo) / comb(K, lo + 1)
    return PlacementProfile(x, "centralized")


def decentralized_profile(K: int, m_ratio: float) -> PlacementProfile:
    """Uncoordinated random placement: x_s = q^s (1-q)^(K-s), q = m_ratio."""
    if not 0.0 <= m_ratio <= 1.0:
        raise ValueError("m_ratio must lie in [0, 1]")
    q = m_ratio
    s = np.arange(K + 1)
    return PlacementProfile(q ** s * (1.0 - q) ** (K - s), "decentralized")


def solve_placement_lp(K: int, m_ratio: float) -> PlacementProfile:
    """Worst-case delivery rate placement LP, solved numerically.

    min sum_{s=0}^{K-1} C(K, s+1) x_s
    s.t. sum_s C(K, s) x_s = 1          (files fully partitioned)
         sum_{s>=1} C(K-1, s-1) x_s <= m_ratio   (per-cache capacity)
         x_s >= 0
    """
    if not 0.0 <= m_ratio <= 1.0:
        raise ValueError("m_ratio must lie in [0, 1]")
    n = K + 1
    c = np.array([float(comb(K, s + 1)) for s in range(n)])
    E = np.array([[float(comb(K, s)) for s in range(n)]])
    A = np.array([[float(comb(K - 1, s - 1)) if s >= 1 else 0.0 for s in range(n)]])
    lp = LinearProgram(c=c, E=E, f=[1.0], A=A, b=[m_ratio],
                       lo=np.zeros(n), hi=np.ones(n))
    sol = solve(lp)
    if sol.status != "optimal":
        raise LpNumericalError(f"placement LP ended with status {sol.status}")
    return PlacementProfile(sol.assignment, "lp")


def apportion(targets: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    """Round nonnegative targets to integers summing to ``total``.

    Largest-remainder rule with per-entry caps and deterministic
    tie-breaking (larger remainder first, then lower index).  Requires
    sum(caps) >= total and sum(targets) ~ total.
    """
    targets = np.asarray(targets, dtype=float)
    caps = np.asarray(caps, dtype=np.int64)
    if int(caps.sum()) < total:
        raise ValueError("caps cannot absorb the requested total")
    base = np.minimum(np.floor(targets + 1e-9).astype(np.int64), caps)
    deficit = total - int(base.sum())
    if deficit < 0:
        raise ValueError("targets overshoot the total by more than rounding")
    if deficit:
        order = np.lexsort((np.arange(targets.shape[0]), -(targets - base)))
        while deficit:
            # one pass: a unit each to the first entries in order with room;
            # sum(caps) >= total leaves room for the whole deficit
            room = order[base[order] < caps[order]][:deficit]
            base[room] += 1
            deficit -= room.size
    return base


@dataclass
class PartitionMap:
    """Symbol-level realization of a profile for bit-level delivery.

    ``holder`` has shape (N, F): ``holder[file - 1, i]`` is the bitmask of
    the cache subset that stores symbol i of that file (0: no cache), in
    the narrowest unsigned type that holds every K-bit mask
    (``np.min_scalar_type((1 << K) - 1)``: uint8 up to K = 8, uint16
    above).  Under a shared (non-decentralized) placement it is a
    read-only view of one row.  ``data`` holds the pseudo-random file
    contents, one row per file, so ``data.shape`` is (N, F).  K is the
    number of caches.
    """

    K: int
    holder: np.ndarray
    data: np.ndarray

    def cache_view(self, cache: int, files):
        """What one cache holds of each of ``files``: per file, (held flags,
        values with the symbols it does not hold zeroed)."""
        out = {}
        for n in files:
            held = ((self.holder[n - 1] >> (cache - 1)) & 1).astype(bool)
            out[n] = (held, self.data[n - 1] * held)
        return out


def materialize_partition(p: PlacementProfile, N: int, F: int, seed: int) -> PartitionMap:
    """Assign every symbol of each of N files of F symbols to exactly one
    cache subset, for the profile's K caches.

    Subset sizes follow the profile fractions, rounded by largest
    remainder so each file's pieces partition its F symbols exactly.
    The layout lists each mask once per symbol, in ascending-mask order.
    Every file shares it as contiguous slices, except under the
    decentralized scheme, where each file scatters it over a seeded
    random permutation of its symbols: which symbols land where is
    random while the piece sizes stay exact.
    """
    K = p.K
    if K > SUBSET_ENUM_CAP:
        raise ValueError(f"K > {SUBSET_ENUM_CAP} exceeds the subset enumeration cap")
    if N < K:
        raise ValueError("N must be at least K (nonredundant library)")
    if F < 1:
        raise ValueError("F must be a positive integer")

    masks = np.arange(1 << K)
    sizes = np.array([int(m).bit_count() for m in masks])
    targets = p.fractions[sizes] * F
    caps = np.full(masks.shape[0], F, dtype=np.int64)
    counts = apportion(targets, F, caps)

    ss = np.random.SeedSequence(seed)
    children = ss.spawn(N + 1)
    data = np.random.default_rng(children[0]).integers(0, 256, size=(N, F), dtype=np.uint8)

    layout = np.repeat(masks, counts).astype(np.min_scalar_type((1 << K) - 1))
    if p.scheme == "decentralized":
        holder = np.empty((N, F), dtype=layout.dtype)
        for fi in range(N):
            holder[fi, np.random.default_rng(children[fi + 1]).permutation(F)] = layout
    else:
        holder = np.broadcast_to(layout, (N, F))
    return PartitionMap(K=K, holder=holder, data=data)
