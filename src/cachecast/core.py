"""Shared vocabulary for broadcast cache networks.

A delivery round involves a server holding N files of F symbols each, K
caches that each store an m_ratio fraction of the library, and multicast
messages addressed to subsets of caches.  This module holds the small
pieces everything else builds on: demand vectors, and the integer
partitions that classify how K requests split over the distinct files
(the redundancy pattern of a demand vector).

Conventions used throughout the package:

* cache indices and file indices are 1-based,
* a subset of caches is a bitmask where bit ``i - 1`` stands
  for cache ``i``, and subsets are ordered by ascending mask value,
* redundancy patterns are non-increasing tuples of positive counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["DemandVector", "RedundancyPattern", "partitions_into_parts", "redundancy_pattern",
           "redundancy_patterns"]


@dataclass(frozen=True)
class DemandVector:
    """One request per cache; entry i is the file index cache i wants."""

    requests: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(int(r) for r in self.requests))
        if len(self.requests) < 1:
            raise ValueError("demand vector needs at least one request")
        if any(r < 1 for r in self.requests):
            raise ValueError("file indices are 1-based and positive")

    @property
    def K(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class RedundancyPattern:
    """How K requests split over distinct files: non-increasing counts."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) < 1:
            raise ValueError("pattern needs at least one part")
        if any(c < 1 for c in self.counts):
            raise ValueError("pattern counts must be positive")
        if any(a < b for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("pattern counts must be non-increasing")

    @property
    def K(self) -> int:
        return sum(self.counts)

    @property
    def L(self) -> int:
        return len(self.counts)

    def __str__(self) -> str:
        return "-".join(str(c) for c in self.counts)


def redundancy_pattern(d: DemandVector) -> RedundancyPattern:
    """The non-increasing multiplicity pattern of a demand vector; its L
    is the number of distinct requested files."""
    counts = Counter(d.requests)
    return RedundancyPattern(tuple(sorted(counts.values(), reverse=True)))


# Rows taken at a time by every row-wise pass over a sample array (the
# sorts here and the samples CSV), so that the sorted copy, the Python
# tuples or the text of one block, not of every row, are alive at once.
_BLOCK_ROWS = 1 << 8


def distinct_counts(samples) -> np.ndarray:
    """Number of distinct files in each row of a (..., K) int demand array."""
    samples = np.asarray(samples)
    rows = samples.reshape(-1, samples.shape[-1])
    out = np.empty(rows.shape[0], dtype=np.intp)
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = np.sort(rows[start:start + _BLOCK_ROWS], axis=1)
        steps = block[:, 1:] != block[:, :-1]
        out[start:start + block.shape[0]] = 1 + np.count_nonzero(steps, axis=1)
    return out.reshape(samples.shape[:-1])


def redundancy_patterns(samples) -> tuple[list[RedundancyPattern], np.ndarray]:
    """Classify every row of a (..., K) int demand array, with one row sort.

    Returns the distinct patterns, in order of first appearance, and for
    each row (in C order) the index of its pattern in that list.
    """
    rows = np.reshape(samples, (-1, np.shape(samples)[-1]))
    index: dict = {}
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = np.sort(rows[start:start + _BLOCK_ROWS], axis=1)
        new = np.ones(block.shape, dtype=bool)
        new[:, 1:] = block[:, 1:] != block[:, :-1]
        starts = np.flatnonzero(new)  # each row starts a run, so no run spans two rows
        runs = np.zeros(block.size, dtype=np.int64)
        runs[starts] = np.diff(starts, append=block.size)
        # per row: zeros, then the run lengths in ascending order
        keys = np.sort(runs.reshape(block.shape), axis=1).tolist()
        inverse[start:start + block.shape[0]] = [index.setdefault(key, len(index))
                                                 for key in map(tuple, keys)]
    return [RedundancyPattern(tuple(c for c in reversed(key) if c)) for key in index], inverse


def partitions_into_parts(K: int, L: int) -> list[RedundancyPattern]:
    """Integer partitions of K into exactly L positive parts.

    Deterministic order: descending lexicographic on the count tuples,
    e.g. (9, 3) -> (7,1,1), (6,2,1), (5,3,1), (5,2,2), (4,4,1), (4,3,2),
    (3,3,3).
    """
    if K < 1 or L < 1:
        raise ValueError("partitions_into_parts needs K, L >= 1")
    if L > K:
        return []

    out: list[RedundancyPattern] = []

    def rec(remaining, parts_left, max_part, prefix):
        if parts_left == 1:
            if remaining <= max_part:
                out.append(RedundancyPattern(prefix + (remaining,)))
            return
        # each remaining part is >= 1, so the next one is bounded below
        lo = -(-remaining // parts_left)  # ceil: keep non-increasing feasible
        for first in range(min(max_part, remaining - (parts_left - 1)), lo - 1, -1):
            rec(remaining - first, parts_left - 1, first, prefix + (first,))

    rec(K, L, K, ())
    return out
