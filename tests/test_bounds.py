"""Converse bounds: cut-set hand values, clamping and demand averaging,
and the uncoded-placement converse as an oracle under every scheme."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachecast.bounds import average_bound, cutset_bound
from cachecast.core import partitions_into_parts
from cachecast.delivery import adaptive_plan, canonical_demand, rate_nonadaptive, simplified_plan
from cachecast.placement import PlacementProfile, centralized_profile, decentralized_profile


def uncoded_converse(x, K: int, L: int) -> float:
    """Lowest rate any delivery can reach over a symmetric uncoded placement x
    for a demand with L distinct files (Yu, Maddah-Ali and Avestimehr):

        U(x, L) = sum_{s<K} x_s (C(K, s+1) - C(K-L, s+1)).
    """
    return sum(float(x[s]) * (comb(K, s + 1) - comb(K - L, s + 1)) for s in range(K))


def test_hand_values():
    # K=4, N=50, M=5, L=2: s=1 gives 1 - 5/50 = 0.9, s=2 gives 2 - 10/25 = 1.6
    assert cutset_bound(4, 2, 50, 5.0) == pytest.approx(1.6)

    # s=1 can win when capacity is large relative to floor(N/s)
    bound = cutset_bound(4, 2, 50, 20.0)
    assert bound == pytest.approx(max(1 - 20 / 50, 2 - 40 / 25, 0.0))
    assert bound == pytest.approx(0.6)

    # L=1 always reduces to 1 - M/N
    assert cutset_bound(8, 1, 1000, 100.0) == pytest.approx(0.9)


def test_floor_matters():
    # N=7, s=2: caches reused floor(7/2)=3 times, not 3.5
    bound = cutset_bound(3, 2, 7, 1.5)
    assert bound == pytest.approx(max(1 - 1.5 / 7, 2 - 3.0 / 3))
    assert bound == pytest.approx(1.0)


def test_clamped_at_zero():
    bound = cutset_bound(3, 3, 9, 9.0)
    assert type(bound) is float
    assert bound == 0.0
    # and stays zero for anything with full caches
    for L in (1, 2, 3):
        assert cutset_bound(3, L, 12, 12.0) == 0.0


def test_bound_at_empty_and_full_caches():
    # M=0 makes every cut worth s, so the largest cut, L, is the bound;
    # M=N pushes every cut negative
    assert cutset_bound(5, 4, 20, 0.0) == 4.0
    assert cutset_bound(2, 2, 10, 10.0) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        cutset_bound(4, 0, 50, 1.0)
    with pytest.raises(ValueError):
        cutset_bound(4, 5, 50, 1.0)
    with pytest.raises(ValueError):
        cutset_bound(4, 2, 3, 1.0)  # N < K
    with pytest.raises(ValueError):
        cutset_bound(4, 2, 50, -0.5)
    with pytest.raises(ValueError):
        cutset_bound(4, 2, 50, 51.0)
    with pytest.raises(ValueError):
        cutset_bound(4, 2, 50, float("nan"))


def test_average_bound():
    demands = np.array([[1, 1, 2], [3, 3, 3]])
    # L=2 and L=1 at K=3, N=30, M=3
    v2 = cutset_bound(3, 2, 30, 3.0)
    v1 = cutset_bound(3, 1, 30, 3.0)
    assert average_bound(demands, 30, 3.0, 3) == pytest.approx((v1 + v2) / 2)

    with pytest.raises(ValueError):
        average_bound(np.zeros((0, 3), dtype=int), 30, 3.0, 3)
    with pytest.raises(ValueError):
        average_bound(np.array([[1, 2]]), 30, 3.0, 3)


def test_uncoded_converse_closed_form_at_integer_t():
    # at integer t it is (C(K, t+1) - C(K-L, t+1)) / C(K, t)
    for K in range(1, 8):
        for t in range(K + 1):
            x = centralized_profile(K, t / K).fractions
            for L in range(1, K + 1):
                expect = (comb(K, t + 1) - comb(K - L, t + 1)) / comb(K, t)
                assert uncoded_converse(x, K, L) == pytest.approx(expect, abs=1e-12)


_weight = st.one_of(st.just(0.0), st.floats(1e-2, 1.0))


@pytest.mark.parametrize("K", range(1, 8))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["centralized", "decentralized", "random"]),
       m=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       weights=st.lists(_weight, min_size=8, max_size=8).filter(any))
def test_converse_chain_over_every_pattern(K, kind, m, weights):
    if kind == "centralized":
        prof = centralized_profile(K, m)
    elif kind == "decentralized":
        prof = decentralized_profile(K, m)
    else:  # any symmetric profile that partitions the file
        w = np.array(weights[: K + 1])
        if not w.any():
            w[0] = 1.0
        sizes = np.array([float(comb(K, s)) for s in range(K + 1)])
        prof = PlacementProfile(w / (sizes @ w), "random")
        m = min(1.0, sum(comb(K - 1, s - 1) * prof.fractions[s] for s in range(1, K + 1)))
    x = prof.fractions
    N = max(K, 10)
    for L in range(1, K + 1):
        bound = cutset_bound(K, L, N, m * N)
        converse = uncoded_converse(x, K, L)
        _, simplified = simplified_plan(prof, L, K)
        nonadaptive = rate_nonadaptive(prof, L, K)
        assert bound <= converse + 1e-9
        assert simplified <= nonadaptive + 1e-9
        for pattern in partitions_into_parts(K, L):
            _, adaptive = adaptive_plan(prof, canonical_demand(pattern))
            assert converse <= adaptive + 1e-9, pattern
            assert adaptive <= simplified + 1e-9, pattern
