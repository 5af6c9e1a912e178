"""Domain types and combinatorial helpers."""

import math

import numpy as np
import pytest

import cachecast.core as core
from cachecast.core import (
    DemandVector,
    RedundancyPattern,
    SystemConfig,
    binomial,
    distinct_counts,
    partitions_into_parts,
    redundancy_pattern,
    redundancy_patterns,
)


def test_system_config_validation():
    cfg = SystemConfig(K=4, N=10, m_ratio=0.3)
    assert cfg.F is None
    with pytest.raises(ValueError):
        SystemConfig(K=0, N=10, m_ratio=0.3)
    with pytest.raises(ValueError):
        SystemConfig(K=4, N=3, m_ratio=0.3)  # fewer files than caches
    with pytest.raises(ValueError):
        SystemConfig(K=4, N=10, m_ratio=1.2)
    with pytest.raises(ValueError):
        SystemConfig(K=4, N=10, m_ratio=0.3, F=0)


def test_demand_vector():
    d = DemandVector((2, 1, 2, 5))
    assert d.K == 4
    assert d.distinct() == frozenset({1, 2, 5})
    with pytest.raises(ValueError):
        DemandVector(())
    with pytest.raises(ValueError):
        DemandVector((1, 0, 2))


def test_redundancy_pattern():
    p = RedundancyPattern((3, 2, 2, 1))
    assert p.K == 8
    assert p.L == 4
    assert not p.is_symmetric()
    assert RedundancyPattern((2, 2)).is_symmetric()
    assert str(p) == "3-2-2-1"
    with pytest.raises(ValueError):
        RedundancyPattern((2, 3))  # must be non-increasing
    with pytest.raises(ValueError):
        RedundancyPattern((2, 0))


def test_redundancy_pattern_of_demand():
    pattern, L, files = redundancy_pattern(DemandVector((4, 1, 4, 4, 1, 7)))
    assert pattern.counts == (3, 2, 1)
    assert L == 3
    assert files == frozenset({1, 4, 7})

    pattern, L, files = redundancy_pattern(DemandVector((5, 5, 5)))
    assert pattern.counts == (3,)
    assert L == 1


def test_redundancy_patterns_of_sample_rows():
    rows = np.array([[4, 1, 4, 4, 1, 7], [5, 5, 5, 5, 5, 5], [1, 4, 1, 4, 4, 9], [1, 2, 3, 4, 5, 6]])
    patterns, inverse = redundancy_patterns(rows)
    assert [p.counts for p in patterns] == [(3, 2, 1), (6,), (1, 1, 1, 1, 1, 1)]
    assert inverse.tolist() == [0, 1, 0, 2]
    assert distinct_counts(rows).tolist() == [3, 1, 3, 6]
    # any leading shape: rows in C order
    patterns, inverse = redundancy_patterns(rows.reshape(2, 2, 6))
    assert inverse.tolist() == [0, 1, 0, 2]
    assert distinct_counts(rows.reshape(2, 2, 6)).tolist() == [[3, 1], [3, 6]]


def test_redundancy_patterns_in_blocks_match_one_block(monkeypatch):
    # rows are keyed a block at a time; blocks of 3 over 20 rows, with
    # patterns first seen on either side of a boundary, keep the order
    # of first appearance and every index
    rows = np.random.default_rng(5).integers(1, 5, size=(20, 4))
    whole = redundancy_patterns(rows)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 3)
    patterns, inverse = redundancy_patterns(rows)
    assert patterns == whole[0] and len(patterns) >= 4
    assert inverse.dtype == whole[1].dtype and inverse.tolist() == whole[1].tolist()
    assert redundancy_patterns(rows[:0])[1].shape == (0,)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    assert binomial(3, 7) == 0
    # exact big integers, no float overflow
    assert binomial(60, 30) == math.comb(60, 30)
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_partitions_into_parts_enumeration():
    nine_three = [p.counts for p in partitions_into_parts(9, 3)]
    assert nine_three == [
        (7, 1, 1),
        (6, 2, 1),
        (5, 3, 1),
        (5, 2, 2),
        (4, 4, 1),
        (4, 3, 2),
        (3, 3, 3),
    ]


def test_partitions_into_parts_counts():
    # partition numbers p(K, L) for spot checks
    for K, L, expect in ((8, 1, 1), (8, 8, 1), (8, 4, 5), (10, 5, 7), (6, 3, 3)):
        got = partitions_into_parts(K, L)
        assert len(got) == expect
        for p in got:
            assert sum(p.counts) == K
            assert p.L == L


def test_partitions_total_matches_partition_function():
    # sum over L of p(K, L) equals the partition number p(K)
    totals = {5: 7, 7: 15, 9: 30}
    for K, pk in totals.items():
        assert sum(len(partitions_into_parts(K, L)) for L in range(1, K + 1)) == pk
