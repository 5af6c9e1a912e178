"""Placement profiles, the placement LP, and bit-level materialization."""

import re
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachecast.placement import (
    SUBSET_ENUM_CAP,
    PlacementProfile,
    apportion,
    centralized_profile,
    decentralized_profile,
    materialize_partition,
    solve_placement_lp,
)

from oracles import pieces, stored_symbols

PLACEMENTS = (centralized_profile, decentralized_profile, solve_placement_lp)
PROFILE_TOL = 1e-9
_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class ProfileCheck:
    """Residuals of the three placement constraints, plus verdicts."""

    partition_residual: float
    capacity_used: float
    capacity_excess: float
    min_fraction: float
    partition_ok: bool
    capacity_ok: bool
    nonnegative_ok: bool


def validate_profile(p, K: int, m_ratio: float) -> ProfileCheck:
    """Check partition, capacity and nonnegativity; returns residuals."""
    if p.K != K:
        raise ValueError("profile length disagrees with K")
    x = p.fractions
    weights = np.array([float(comb(K, s)) for s in range(K + 1)])
    cap_w = np.array([float(comb(K - 1, s - 1)) if s >= 1 else 0.0 for s in range(K + 1)])
    partition_residual = abs(float(weights @ x) - 1.0)
    capacity_used = float(cap_w @ x)
    capacity_excess = max(0.0, capacity_used - m_ratio)
    min_fraction = float(np.min(x))
    return ProfileCheck(
        partition_residual=partition_residual,
        capacity_used=capacity_used,
        capacity_excess=capacity_excess,
        min_fraction=min_fraction,
        partition_ok=partition_residual <= PROFILE_TOL,
        capacity_ok=capacity_excess <= PROFILE_TOL,
        nonnegative_ok=min_fraction >= -PROFILE_TOL,
    )


def eager_pieces(p, N: int, F: int, seed: int) -> list[dict]:
    """Reference partition: per file, {mask: ascending symbol indices} over
    the nonempty masks, built slice by slice from the rounded subset counts.

    Shared placements cut every file into the same contiguous slices in
    ascending-mask order; the decentralized one cuts a seeded permutation
    of each file's symbols, one spawned stream per file.
    """
    K = p.K
    masks = np.arange(1 << K)
    sizes = np.array([int(m).bit_count() for m in masks])
    counts = apportion(p.fractions[sizes] * F, F, np.full(masks.shape[0], F, dtype=np.int64))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    children = np.random.SeedSequence(seed).spawn(N + 1)
    pieces = []
    for fi in range(N):
        order = np.arange(F)
        if p.scheme == "decentralized":
            order = np.random.default_rng(children[fi + 1]).permutation(F)
        pieces.append({int(masks[i]): np.sort(order[bounds[i]:bounds[i + 1]])
                       for i in range(masks.shape[0]) if counts[i]})
    return pieces

# optimal centralized fractions for K=5: valued entries are (size, fraction)
FIVE_CACHE_PROFILES = {
    0.1: {0: 0.5, 1: 0.1},
    0.2: {1: 0.2},
    0.3: {1: 0.1, 2: 0.05},
    0.5: {2: 0.05, 3: 0.05},
    0.8: {4: 0.2},
    0.9: {4: 0.1, 5: 0.5},
}


def test_centralized_profile_five_caches_exact():
    for m, expect in FIVE_CACHE_PROFILES.items():
        p = centralized_profile(5, m)
        for s in range(6):
            assert p.fractions[s] == pytest.approx(expect.get(s, 0.0), abs=1e-12), (m, s)


def test_centralized_integer_t_single_size():
    p = centralized_profile(4, 0.5)  # t = 2
    assert p.fractions[2] == pytest.approx(1.0 / comb(4, 2), abs=1e-15)
    assert np.sum(p.fractions != 0) == 1


def test_centralized_edges():
    p0 = centralized_profile(3, 0.0)
    assert p0.fractions[0] == pytest.approx(1.0)
    p1 = centralized_profile(3, 1.0)
    assert p1.fractions[3] == pytest.approx(1.0)


def test_decentralized_profile_matches_power_form():
    K, q = 6, 0.35
    p = decentralized_profile(K, q)
    for s in range(K + 1):
        assert p.fractions[s] == pytest.approx(q**s * (1 - q) ** (K - s), rel=1e-12)


def test_decentralized_edges():
    assert decentralized_profile(4, 0.0).fractions[0] == pytest.approx(1.0)
    assert decentralized_profile(4, 1.0).fractions[4] == pytest.approx(1.0)
    # the power form puts all mass at one end, exactly and with +0.0 elsewhere
    for K in range(1, SUBSET_ENUM_CAP + 1):
        for q, end in ((0.0, 0), (1.0, K)):
            x = decentralized_profile(K, q).fractions
            assert x.tobytes() == np.eye(K + 1)[end].tobytes(), (K, q)


@pytest.mark.parametrize("fractions, message", [
    ([1.0], "profile needs entries for sizes 0..K with K >= 1"),
    ([0.5, np.nan, 0.25], "profile fractions must be finite"),
    # kept as given by the adaptive plan, while its LP clipped it at 0:
    # rate 0.5 for demand (1, 1, 2), against 1.05 for the other schemes
    ([0.5, -0.05, 0.2, 0.25], "profile fractions must be nonnegative"),
])
def test_profile_checks(fractions, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PlacementProfile(fractions, "x")


def test_profile_accepts_negative_zero():
    # the LP's clip at 0 may leave -0.0, which is no negative fraction
    assert PlacementProfile([1.0, -0.0, 0.0], "lp").K == 2


def test_profiles_validate():
    for K in (2, 5, 9):
        for m in (0.0, 0.13, 0.5, 0.77, 1.0):
            for p in (centralized_profile(K, m), decentralized_profile(K, m)):
                check = validate_profile(p, K, m)
                assert check.partition_ok and check.capacity_ok and check.nonnegative_ok
                assert check.partition_residual == pytest.approx(0.0, abs=1e-9)


def test_placement_lp_matches_closed_form():
    # the closed form solves the same optimization; spot-check a subgrid
    for K in (3, 5, 8):
        for m in (0.1, 0.28, 0.66, 0.9):
            lp_p = solve_placement_lp(K, m)
            closed = centralized_profile(K, m)
            costs = np.array([comb(K, s + 1) for s in range(K + 1)], dtype=float)
            assert float(costs @ lp_p.fractions) == pytest.approx(
                float(costs @ closed.fractions), abs=1e-9
            )
            check = validate_profile(lp_p, K, m)
            assert check.partition_ok and check.capacity_ok


def test_apportion_exact_and_deterministic():
    targets = np.array([2.5, 1.25, 1.25, 0.0])
    caps = np.array([10, 10, 10, 10])
    got = apportion(targets, 5, caps)
    assert got.sum() == 5
    assert np.array_equal(got, apportion(targets, 5, caps))
    # caps respected
    got2 = apportion(np.array([4.0, 4.0]), 8, np.array([3, 10]))
    assert got2[0] == 3 and got2[1] == 5
    with pytest.raises(ValueError):
        apportion(np.array([1.0, 1.0]), 10, np.array([2, 2]))


def apportion_reference(targets, total: int, caps) -> np.ndarray:
    """Reference for ``apportion``: the per-entry loop it ran before each
    pass of the deficit became one array operation."""
    targets = np.asarray(targets, dtype=float)
    caps = np.asarray(caps, dtype=np.int64)
    if int(caps.sum()) < total:
        raise ValueError("caps cannot absorb the requested total")
    base = np.minimum(np.floor(targets + 1e-9).astype(np.int64), caps)
    deficit = total - int(base.sum())
    if deficit < 0:
        raise ValueError("targets overshoot the total by more than rounding")
    if deficit:
        rem = targets - base
        order = np.lexsort((np.arange(targets.shape[0]), -rem))
        while deficit:
            progressed = False
            for idx in order:
                if deficit == 0:
                    break
                if base[idx] < caps[idx]:
                    base[idx] += 1
                    deficit -= 1
                    progressed = True
            if not progressed:
                raise ValueError("caps cannot absorb the requested total")
    return base


def _apportion_outcome(fn, targets, total, caps):
    try:
        return "ok", fn(targets, total, caps).tolist()
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_apportion_matches_the_per_entry_loop(data):
    # capped and uncapped entries, totals far above the targets (several
    # passes of the deficit) and infeasible caps or overshooting targets
    n = data.draw(st.integers(1, 8), label="n")
    targets = data.draw(st.lists(st.one_of(st.floats(0.0, 20.0), st.integers(0, 20).map(float),
                                           st.integers(0, 40).map(lambda v: v / 4)),
                                 min_size=n, max_size=n), label="targets")
    total = data.draw(st.one_of(st.just(round(sum(targets))), st.integers(0, 80)), label="total")
    caps = data.draw(st.one_of(st.just([total] * n),
                               st.lists(st.integers(0, 25), min_size=n, max_size=n)), label="caps")
    assert (_apportion_outcome(apportion, targets, total, caps)
            == _apportion_outcome(apportion_reference, targets, total, caps))


def test_apportion_largest_remainder_tie_break():
    # equal remainders resolve by lowest index, so the outcome is stable
    got = apportion(np.array([1.5, 1.5]), 3, np.array([5, 5]))
    assert got[0] == 2 and got[1] == 1


def test_materialize_two_caches_half():
    # K=2, m=1/2, F=2: one symbol per cache, nothing uncached
    pm = materialize_partition(centralized_profile(2, 0.5), 2, 2, seed=0)
    for file in (1, 2):
        by_mask = pieces(pm, file)
        assert list(by_mask[0b01]) == [0]
        assert list(by_mask[0b10]) == [1]
        assert by_mask[0].size == 0


def test_materialize_three_caches_third():
    # K=3, m=1/3, F=6: two symbols per singleton subset
    pm = materialize_partition(centralized_profile(3, 1 / 3), 3, 6, seed=0)
    for file in (1, 2, 3):
        sizes = {mask: pieces(pm, file)[mask].size for mask in (1, 2, 4)}
        assert sizes == {1: 2, 2: 2, 4: 2}


def test_materialize_partitions_every_symbol_once():
    for scheme, profile in (
        ("centralized", centralized_profile(4, 0.37)),
        ("decentralized", decentralized_profile(4, 0.37)),
    ):
        pm = materialize_partition(profile, 5, 500, seed=9)
        for file in range(1, 6):
            seen = np.zeros(500, dtype=int)
            for idx in pieces(pm, file):
                seen[idx] += 1
                assert np.all(np.diff(idx) > 0)  # ascending, unique
            assert np.all(seen == 1)


def test_materialize_sizes_track_fractions():
    K, F = 5, 10_000
    for profile in (centralized_profile(K, 0.42), decentralized_profile(K, 0.42)):
        pm = materialize_partition(profile, 5, F, seed=3)
        for file in (1, 4):
            by_size = np.zeros(K + 1)
            for mask, idx in enumerate(pieces(pm, file)):
                by_size[bin(mask).count("1")] += idx.size
            for s in range(K + 1):
                share = profile.fractions[s] * comb(K, s)
                assert by_size[s] / F == pytest.approx(share, abs=2**K / F)


def test_materialize_capacity():
    K, N, F = 5, 6, 2000
    for profile in (centralized_profile(K, 0.3), decentralized_profile(K, 0.3)):
        pm = materialize_partition(profile, N, F, seed=1)
        for cache in range(1, K + 1):
            # rounding can move at most one symbol per subset per file
            assert stored_symbols(pm, cache) <= 0.3 * N * F + N * 2**K


def test_materialize_centralized_shared_slices():
    # every file is cut identically, so coded pieces align symbol-for-symbol
    pm = materialize_partition(centralized_profile(3, 0.4), 4, 300, seed=5)
    ref = pieces(pm, 1)
    for file in (2, 3, 4):
        for mask, idx in enumerate(pieces(pm, file)):
            assert np.array_equal(idx, ref[mask])


def test_materialize_decentralized_files_differ():
    pm = materialize_partition(decentralized_profile(4, 0.5), 4, 4000, seed=7)
    differing = sum(
        1
        for a, b in zip(pieces(pm, 1), pieces(pm, 2))
        if a.size and not np.array_equal(a, b)
    )
    assert differing > 0


def test_materialize_partition_validation():
    pm = materialize_partition(centralized_profile(4, 0.3), 4, 1, seed=0)
    assert pm.K == 4 and pm.data.shape == (4, 1)
    with pytest.raises(ValueError, match="N must be at least K"):
        materialize_partition(centralized_profile(4, 0.3), 3, 10, seed=0)
    with pytest.raises(ValueError, match="F must be"):
        materialize_partition(centralized_profile(4, 0.3), 10, 0, seed=0)
    with pytest.raises(ValueError, match="enumeration cap"):
        materialize_partition(centralized_profile(SUBSET_ENUM_CAP + 1, 0.3), 20, 10, seed=0)
    # the rest of what a system needs, K >= 1 and m_ratio in [0, 1], the
    # profile checks
    with pytest.raises(ValueError, match="K >= 1"):
        centralized_profile(0, 0.3)
    for maker in PLACEMENTS:
        with pytest.raises(ValueError, match="m_ratio"):
            maker(4, 1.2)


def test_materialize_deterministic_in_seed():
    a = materialize_partition(decentralized_profile(4, 0.5), 4, 1000, seed=11)
    b = materialize_partition(decentralized_profile(4, 0.5), 4, 1000, seed=11)
    c = materialize_partition(decentralized_profile(4, 0.5), 4, 1000, seed=12)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.holder, b.holder)
    assert any(not np.array_equal(x, y) for x, y in zip(pieces(a, 2), pieces(c, 2)))


def test_pieces_match_eager_dicts():
    for K in range(1, 8):
        for F in sorted({1, 2**K - 1, 500}):
            for maker in PLACEMENTS:
                for m in (0.0, 0.3, 1.0):
                    profile = maker(K, m)
                    pm = materialize_partition(profile, K, F, seed=K * F)
                    ref = eager_pieces(profile, K, F, seed=K * F)
                    for file in range(1, K + 1):
                        got = pieces(pm, file)
                        assert len(got) == 2**K
                        for mask, idx in enumerate(got):
                            expect = ref[file - 1].get(mask, _EMPTY)
                            assert np.array_equal(idx, expect), (K, F, maker.__name__, m, mask)


def test_shared_holder_is_one_read_only_row():
    for maker in (centralized_profile, solve_placement_lp):
        pm = materialize_partition(maker(4, 0.3), 50, 2000, seed=1)
        assert pm.holder.shape == (50, 2000) and pm.holder.dtype == np.uint8
        assert not pm.holder.flags.writeable
        assert pm.holder.strides[0] == 0  # every file shares the same row
    pm = materialize_partition(decentralized_profile(4, 0.3), 50, 2000, seed=1)
    assert pm.holder.flags.writeable and pm.holder.flags.owndata


@pytest.mark.parametrize("K", [8, 9, 12])
@pytest.mark.parametrize("maker", PLACEMENTS)
def test_holder_is_the_narrowest_mask_type(K, maker):
    # uint8 holds every mask up to K = 8, uint16 beyond, up to the cap
    pm = materialize_partition(maker(K, 0.3), K, 1 << K, seed=K)
    assert pm.holder.dtype == np.min_scalar_type((1 << K) - 1)
    assert pm.holder.dtype == (np.uint8 if K <= 8 else np.uint16)
    assert 1 << (K - 1) <= int(pm.holder.max()) < 1 << K  # cache K's bit survives


def test_cache_view_consistent_with_pieces():
    for maker in PLACEMENTS:
        profile = maker(3, 0.4)
        pm = materialize_partition(profile, 3, 200, seed=2)
        ref = eager_pieces(profile, 3, 200, seed=2)
        for cache in (1, 2, 3):
            bit = 1 << (cache - 1)
            view = pm.cache_view(cache, {1, 3})
            assert set(view) == {1, 3}  # only the files asked for
            stored = 0
            for file in (1, 2, 3):
                expect = np.zeros(200, dtype=bool)
                for mask, idx in ref[file - 1].items():
                    if mask & bit:
                        expect[idx] = True
                stored += int(expect.sum())
                held, vals = pm.cache_view(cache, [file])[file]
                assert held.dtype == bool and vals.dtype == np.uint8
                assert np.array_equal(held, expect)
                assert np.array_equal(vals[held], pm.data[file - 1][held])
                assert np.all(vals[~held] == 0)
            assert stored_symbols(pm, cache) == stored


_weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_weights.filter(any), st.integers(0, 5000))
def test_apportion_uncapped_within_one_of_target(weights, total):
    targets = np.array(weights) / sum(weights) * total
    caps = np.floor(targets).astype(np.int64) + 1  # room for one more above every floor
    got = apportion(targets, total, caps)
    assert int(got.sum()) == total
    assert np.all(np.abs(got - targets) <= 1.0 + 1e-9)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_weights.filter(any), st.integers(0, 5000), st.data())
def test_apportion_capped_sums_exactly(weights, total, data):
    targets = np.array(weights) / sum(weights) * total
    caps = np.array(data.draw(st.lists(st.integers(0, total), min_size=len(weights),
                                       max_size=len(weights))), dtype=np.int64)
    if int(caps.sum()) < total:
        with pytest.raises(ValueError):
            apportion(targets, total, caps)
        return
    got = apportion(targets, total, caps)
    assert int(got.sum()) == total
    assert np.all(got >= 0) and np.all(got <= caps)
