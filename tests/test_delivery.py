"""Delivery rates: closed forms, transfer plans, and bit-level schedules."""

import itertools
import re
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from cachecast import delivery
from cachecast.cli import SCHEMES, _message_failures, _scheme_plan
from cachecast.core import (
    DemandVector,
    RedundancyPattern,
    partitions_into_parts,
    redundancy_pattern,
)
from cachecast.delivery import (
    DecodeError,
    MessageSchedule,
    TransferPlan,
    adaptive_plan,
    build_messages,
    canonical_demand,
    decode,
    rate_nonadaptive,
    rate_of_schedule,
    simplified_plan,
    transfer_cutoff,
    _demand_groups,
    _plan_accessor,
)
from cachecast.lp import LinearProgram, LpNumericalError, solve
from cachecast.placement import (
    PlacementProfile,
    centralized_profile,
    decentralized_profile,
    materialize_partition,
    solve_placement_lp,
)

from oracles import (
    adaptive_coefficients,
    adaptive_coefficients_dp,
    adaptive_kept,
    coefficient_states,
    hand_reduced,
    peak_rate_centralized,
    peak_rate_decentralized,
    pieces,
    split_cost,
)


def adaptive_lp_direct(p: PlacementProfile, d: DemandVector) -> LinearProgram:
    """The unreduced adaptive LP over all subsets, whose optimum is the
    adaptive rate.

    Exponential in K; exists to verify the symmetry-reduced solver.
    """
    K = d.K
    if p.K != K:
        raise ValueError("profile length disagrees with demand length")
    x = np.maximum(np.asarray(p.fractions, dtype=float), 0.0)
    files, _ = _demand_groups(d)
    L = len(files)
    file_of = {n: i for i, n in enumerate(files)}
    nmask = 1 << K

    def y_id(i, mask):
        return i * nmask + mask

    n_y = L * nmask
    zmasks = [m for m in range(nmask) if m.bit_count() >= 2]
    z_of = {m: n_y + j for j, m in enumerate(zmasks)}
    n = n_y + len(zmasks)

    c = np.zeros(n)
    for i in range(L):
        c[y_id(i, 0)] = 1.0
    for m in zmasks:
        c[z_of[m]] = 1.0
    lo = np.zeros(n)
    hi = np.empty(n)
    for i in range(L):
        for mask in range(nmask):
            hi[y_id(i, mask)] = 1.0 if mask == 0 else float(x[mask.bit_count()])
    hi[n_y:] = float(np.max(x)) if np.max(x) > 0 else 0.0
    E = np.zeros((L, n))
    for i in range(L):
        E[i, y_id(i, 0):y_id(i, nmask - 1) + 1] = 1.0
    f = np.ones(L)
    rows = []
    for m in zmasks:
        for k in range(1, K + 1):
            bit = 1 << (k - 1)
            if not m & bit:
                continue
            i = file_of[d.requests[k - 1]]
            row = np.zeros(n)
            row[y_id(i, m & ~bit)] = 1.0
            row[z_of[m]] = -1.0
            rows.append(row)
    A = np.array(rows)
    b = np.zeros(A.shape[0])
    return LinearProgram(c=c, E=E, f=f, A=A, b=b, lo=lo, hi=hi)


def adaptive_rate_direct(p: PlacementProfile, d: DemandVector) -> float:
    """Reference adaptive rate: adaptive_lp_direct solved by lp.solve."""
    sol = solve(adaptive_lp_direct(p, d))
    if sol.status != "optimal":
        raise LpNumericalError(f"direct adaptive LP ended with status {sol.status}")
    return float(sol.value)


def full_adaptive_lp(p: PlacementProfile, d: DemandVector):
    """The symmetry-reduced adaptive LP built one composition at a time.

    Returns (LinearProgram, orbit key -> column).  This is the builder
    ``adaptive_plan`` used before its layout was cached per demand shape;
    it walks every composition of every class row and epigraph orbit and
    registers columns in first-seen order, so it pins the cached layout's
    column order, coefficients and bounds.
    """
    K = d.K
    x = np.maximum(np.asarray(p.fractions, dtype=float), 0.0)

    _, ks = _demand_groups(d)
    L = len(ks)

    var_index: dict[tuple, int] = {}
    var_hi: list[float] = []

    def var_id(i, a, size):
        key = reference_orbit_key(ks, i, a)
        idx = var_index.get(key)
        if idx is None:
            idx = len(var_index)
            var_index[key] = idx
            var_hi.append(1.0 if size == 0 else float(x[size]))
        return idx

    all_types = list(itertools.product(*[range(k + 1) for k in ks]))
    type_weight = {a: _composition_weight(ks, a) for a in all_types}

    # one partition row per distinct group size; groups of equal size are
    # interchangeable so their rows coincide
    class_rep: dict[int, int] = {}
    class_mult: dict[int, int] = {}
    for i, k in enumerate(ks):
        class_rep.setdefault(k, i)
        class_mult[k] = class_mult.get(k, 0) + 1

    rows = []
    for k, rep in sorted(class_rep.items()):
        coeffs: dict[int, float] = {}
        for a in all_types:
            idx = var_id(rep, a, sum(a))
            coeffs[idx] = coeffs.get(idx, 0.0) + type_weight[a]
        rows.append(coeffs)

    # message-cost epigraph: one z per orbit of compositions with |a| >= 2
    orbit_weight: dict[tuple, float] = {}
    orbit_members: dict[tuple, list[int]] = {}
    for a in all_types:
        size = sum(a)
        if size < 2:
            continue
        okey = tuple(sorted(zip(ks, a)))
        w = type_weight[a]
        if okey in orbit_weight:
            orbit_weight[okey] += w
            continue
        orbit_weight[okey] = w
        members = set()
        for i in range(L):
            if a[i] >= 1:
                reduced = tuple(a[j] - (j == i) for j in range(L))
                members.add(var_id(i, reduced, size - 1))
        orbit_members[okey] = sorted(members)

    n_y = len(var_index)
    orbits = sorted(orbit_members)
    n = n_y + len(orbits)
    c = np.zeros(n)
    for k, rep in class_rep.items():
        zero = tuple(0 for _ in ks)
        c[var_id(rep, zero, 0)] += class_mult[k]
    lo = np.zeros(n)
    hi = np.empty(n)
    hi[:n_y] = var_hi
    E = np.zeros((len(rows), n))
    f = np.ones(len(rows))
    for r, coeffs in enumerate(rows):
        for idx, w in coeffs.items():
            E[r, idx] = w
    ineq_rows = []
    for zi, okey in enumerate(orbits):
        c[n_y + zi] = orbit_weight[okey]
        members = orbit_members[okey]
        hi[n_y + zi] = max(var_hi[m] for m in members)
        for midx in members:
            row = np.zeros(n)
            row[midx] = 1.0
            row[n_y + zi] = -1.0
            ineq_rows.append(row)
    A = np.array(ineq_rows) if ineq_rows else np.zeros((0, n))
    b = np.zeros(A.shape[0])
    return LinearProgram(c=c, E=E, f=f, A=A, b=b, lo=lo, hi=hi), var_index


def _composition_weight(ks, a) -> float:
    w = 1
    for k, ai in zip(ks, a):
        w *= comb(k, ai)
    return float(w)


def reference_orbit_key(ks, i, a) -> tuple:
    """Orbit of group i's kept fraction at composition a: (own group size,
    own count, sorted multiset of the other groups' (size, count) pairs)."""
    others = sorted((ks[j], a[j]) for j in range(len(ks)) if j != i)
    return (ks[i], a[i], tuple(others))


def eager_fractions(prof: PlacementProfile, d: DemandVector) -> dict:
    """Every (file, mask) kept fraction of the adaptive plan, expanded eagerly.

    The reference for the lazy ``kept``, written out pair by pair from the
    full builder's solution: the mask's composition over the requester
    groups, its orbit key (by ``reference_orbit_key``), and the value of
    that orbit's column clipped to the pair's cap.  A pair capped at 0
    keeps exactly nothing.
    """
    ref, var_index = full_adaptive_lp(prof, d)
    y = solve(ref).assignment
    files, ks = _demand_groups(d)
    gmasks = [sum(1 << k for k, r in enumerate(d.requests) if r == n) for n in files]
    x = np.maximum(np.asarray(prof.fractions, dtype=float), 0.0)

    fractions = {}
    for gi, file in enumerate(files):
        for mask in range(1 << d.K):
            a = tuple((mask & g).bit_count() for g in gmasks)
            size = mask.bit_count()
            cap = 1.0 if size == 0 else float(x[size])
            kept = min(max(float(y[var_index[reference_orbit_key(ks, gi, a)]]), 0.0), cap)
            assert cap > 0.0 or kept == 0.0, (file, mask)
            fractions[(file, mask)] = kept
    return fractions


def rounding_bound(K, L, F):
    """Largest |achieved - analytic| rate a schedule may show at F symbols.

    apportion rounds each of the 2^K - K - 1 coded messages and each of
    the L distinct files' uncoded parts to within one symbol.
    """
    return (2**K - K - 1 + L) / F


def brute_force_simplified(profile, L, K):
    """Best rate over per-size-class binary transfer choices."""
    x = profile.fractions
    best = None
    for picks in itertools.product((False, True), repeat=K - 1):
        uncoded = x[0] + sum(comb(K, s) * x[s] for s in range(1, K) if picks[s - 1])
        coded = sum(comb(K, s + 1) * x[s] for s in range(1, K) if not picks[s - 1])
        val = L * uncoded + coded
        if best is None or val < best:
            best = val
    return best


def test_rate_nonadaptive_hand_values():
    # K=2, half the library cached: one coded message of half a file
    assert rate_nonadaptive(centralized_profile(2, 0.5), 2, 2) == pytest.approx(0.5)
    # nothing cached: L whole files go out uncoded
    assert rate_nonadaptive(centralized_profile(4, 0.0), 3, 4) == pytest.approx(3.0)
    # everything cached: nothing to send
    assert rate_nonadaptive(centralized_profile(4, 1.0), 4, 4) == pytest.approx(0.0)


def test_peak_rate_centralized_formula():
    for K in (3, 5, 8):
        for t in range(0, K + 1):
            m = t / K
            expect = K * (1 - m) / (1 + K * m)
            assert peak_rate_centralized(K, m) == pytest.approx(expect, abs=1e-12)
            got = rate_nonadaptive(centralized_profile(K, m), K, K)
            assert got == pytest.approx(expect, abs=1e-9)


def test_peak_rate_decentralized_formula():
    for K in (2, 6, 9):
        for q in (0.15, 0.4, 0.85):
            expect = K * (1 - q) * (1 - (1 - q) ** K) / (K * q)
            assert peak_rate_decentralized(K, q) == pytest.approx(expect, rel=1e-12)
            got = rate_nonadaptive(decentralized_profile(K, q), K, K)
            assert got == pytest.approx(expect, abs=1e-9)
    assert peak_rate_decentralized(5, 0.0) == pytest.approx(5.0)
    assert peak_rate_decentralized(5, 1.0) == pytest.approx(0.0)


def test_transfer_cutoff_values():
    assert transfer_cutoff(9, 3) == 1
    assert transfer_cutoff(8, 2) == 2
    assert transfer_cutoff(5, 5) == 0
    assert transfer_cutoff(12, 1) == 5
    # never reaches the class stored everywhere
    for K in range(2, 10):
        for L in range(1, K + 1):
            assert 0 <= transfer_cutoff(K, L) < K


def test_simplified_matches_brute_force():
    for K in (2, 3, 4):
        for maker in (centralized_profile, decentralized_profile):
            for m in (0.1, 0.3, 0.5, 0.7, 0.9):
                profile = maker(K, m)
                for L in range(1, K + 1):
                    _, rate = simplified_plan(profile, L, K)
                    assert rate == pytest.approx(
                        brute_force_simplified(profile, L, K), abs=1e-9
                    ), (K, maker.__name__, m, L)


def test_adaptive_reduced_equals_direct():
    rng = np.random.default_rng(77)
    for K in (3, 4, 5, 6):
        for _ in range(6):
            m = float(rng.uniform(0.05, 0.95))
            prof = centralized_profile(K, m) if rng.random() < 0.5 else decentralized_profile(K, m)
            d = DemandVector(tuple(int(v) for v in rng.integers(1, K + 1, size=K)))
            _, rate = adaptive_plan(prof, d)
            assert rate == pytest.approx(adaptive_rate_direct(prof, d), abs=1e-8)


def test_dominance_chain():
    rng = np.random.default_rng(5150)
    for _ in range(40):
        K = int(rng.integers(2, 8))
        m = float(rng.uniform(0.02, 0.98))
        prof = centralized_profile(K, m) if rng.random() < 0.5 else decentralized_profile(K, m)
        d = DemandVector(tuple(int(v) for v in rng.integers(1, K + 1, size=K)))
        L = redundancy_pattern(d).L
        r_na = rate_nonadaptive(prof, L, K)
        _, r_sp = simplified_plan(prof, L, K)
        _, r_ad = adaptive_plan(prof, d)
        assert r_ad <= r_sp + 1e-7
        assert r_sp <= r_na + 1e-7


def test_all_distinct_collapses_to_nonadaptive():
    for K in (2, 4, 6):
        d = DemandVector(tuple(range(1, K + 1)))
        for m in (0.2, 0.55):
            for prof in (centralized_profile(K, m), decentralized_profile(K, m)):
                r_na = rate_nonadaptive(prof, K, K)
                assert simplified_plan(prof, K, K)[1] == pytest.approx(r_na, abs=1e-12)
                _, r_ad = adaptive_plan(prof, d)
                assert r_ad == pytest.approx(r_na, abs=1e-9)


def test_rate_invariant_under_demand_permutation():
    rng = np.random.default_rng(31)
    base = DemandVector((4, 1, 1, 2, 1, 2))
    prof = decentralized_profile(6, 0.3)
    _, ref = adaptive_plan(prof, base)
    for _ in range(4):
        perm = rng.permutation(6)
        scrambled = DemandVector(tuple(base.requests[i] for i in perm))
        relabeled = DemandVector(tuple({4: 7, 1: 3, 2: 9}[f] for f in scrambled.requests))
        _, got = adaptive_plan(prof, relabeled)
        assert got == pytest.approx(ref, abs=1e-9)


def test_adaptive_beats_sizewise_rule_on_balanced_split():
    # Two files each requested by four of eight caches: the full plan keeps
    # pairs whose members want the same file while releasing mixed pairs,
    # a composition-level choice the size-uniform rule cannot express. The
    # values pin this known strict improvement.
    prof = centralized_profile(8, 0.25)
    d = canonical_demand(RedundancyPattern((4, 4)))
    _, r_ad = adaptive_plan(prof, d)
    _, r_sp = simplified_plan(prof, 2, 8)
    assert r_ad == pytest.approx(adaptive_rate_direct(prof, d), abs=1e-8)
    assert r_sp - r_ad > 0.14  # strict gap, about 0.143 at this m
    # while for instance three-way balanced splits show no gap at all
    prof9 = centralized_profile(9, 0.25)
    d9 = canonical_demand(RedundancyPattern((3, 3, 3)))
    _, r_ad9 = adaptive_plan(prof9, d9)
    assert r_ad9 == pytest.approx(simplified_plan(prof9, 3, 9)[1], abs=1e-7)


def test_asymmetry_ordering_nine_caches():
    for m in (0.025, 0.1):
        prof = centralized_profile(9, m)
        rates = {}
        for counts in ((7, 1, 1), (4, 4, 1), (5, 2, 2), (3, 3, 3)):
            d = canonical_demand(RedundancyPattern(counts))
            _, rates[counts] = adaptive_plan(prof, d)
        assert rates[(7, 1, 1)] <= rates[(4, 4, 1)] + 1e-9
        assert rates[(4, 4, 1)] <= rates[(5, 2, 2)] + 1e-9
        assert rates[(5, 2, 2)] <= rates[(3, 3, 3)] + 1e-9


def test_canonical_demand():
    d = canonical_demand(RedundancyPattern((3, 2, 1)))
    assert d.requests == (1, 1, 1, 2, 2, 3)
    assert redundancy_pattern(d).counts == (3, 2, 1)


def check_plan_against_lp(prof, d, where):
    """The plan of adaptive_plan(prof, d) is the t(a) >= 1 keep rule: bit
    for bit the exact oracle's (oracles.adaptive_kept), within 1e-9 of the
    unreduced LP's own optimum pair by pair, a partition of every file
    within the caps, and it costs the LP's rate to 1e-9 pair by pair."""
    K = d.K
    plan, rate = adaptive_plan(prof, d)
    x = prof.fractions
    files = set(d.requests)
    kept = {file: plan.kept(file) for file in files}
    for file in files:
        assert np.array_equal(kept[file], adaptive_kept(x.tolist(), d.requests, file)), \
            (where, file)
        assert abs(kept[file].sum() - 1.0) <= 1e-9, (where, file)
    for (file, mask), y in eager_fractions(prof, d).items():
        assert abs(kept[file][mask] - y) <= 1e-9, (where, file, mask)
        cap = 1.0 if mask == 0 else float(x[mask.bit_count()])
        assert 0.0 <= kept[file][mask] <= cap + 1e-9, (where, file, mask)
    # each coded message costs its longest part
    masks = np.arange(1 << K)
    member = (masks[:, None] >> np.arange(K) & 1).astype(bool)
    parts = np.stack([kept[n][masks ^ (1 << k)] for k, n in enumerate(d.requests)], axis=1)
    longest = np.where(member, parts, 0.0).max(axis=1)
    cost = sum(kept[file][0] for file in files) + longest[member.sum(axis=1) >= 2].sum()
    assert cost == pytest.approx(rate, abs=1e-9), where


def test_lazy_plan_matches_eager_expansion():
    # The LP is not the plan's source, so the plan meets the LP's optimum
    # to rounding (1e-9) and the exact oracle bit for bit.
    rng = np.random.default_rng(2024)
    makers = (centralized_profile, decentralized_profile, solve_placement_lp)
    for K in range(1, 9):
        # 0 and 1 are the edges, 2/K an integer t, 0.3 a non-integer one
        for m in sorted({0.0, 0.3, min(2 / K, 1.0), 1.0}):
            for maker in makers:
                prof = maker(K, m)
                for L in range(1, K + 1):
                    for pattern in partitions_into_parts(K, L):
                        # scattered requester groups and file labels
                        reqs = [f + 10 for f in canonical_demand(pattern).requests]
                        d = DemandVector(tuple(reqs[i] for i in rng.permutation(K)))
                        check_plan_against_lp(prof, d, (K, m, maker.__name__, pattern.counts))


def test_keep_rule_matches_the_lp_at_the_cap():
    rng = np.random.default_rng(12)
    patterns = [pattern for L in range(1, 13) for pattern in partitions_into_parts(12, L)]
    for pick in rng.choice(len(patterns), size=6, replace=False).tolist():
        pattern = patterns[pick]
        d = DemandVector(tuple(rng.permutation(canonical_demand(pattern).requests).tolist()))
        for prof in (centralized_profile(12, 0.1), decentralized_profile(12, 0.3)):
            check_plan_against_lp(prof, d, (prof.scheme, pattern.counts))


def test_keep_rule_integer_test_equals_the_exact_one():
    # t(a) >= 1 on every composition of every pattern with K <= 12
    seen = 0
    for pattern in _patterns_up_to(12):
        ks = pattern.counts
        comps = np.indices([k + 1 for k in ks]).reshape(len(ks), -1).T
        coded = delivery._coded(np.array(ks), comps).tolist()
        assert coded == [split_cost(ks, a) >= 1 for a in comps.tolist()], ks
        seen += len(coded)
    assert seen > 20_000


def test_keep_rule_ties_keep():
    # pattern (2, 2): a = (1, 1) has t = 1/2 + 1/2 = 1, a tie, and keeps
    prof = centralized_profile(4, 0.25)  # x_1 = 1/4, all else 0
    plan, _ = adaptive_plan(prof, DemandVector((1, 1, 2, 2)))
    assert delivery._coded(np.array([2, 2]), np.array([[1, 1]])).tolist() == [True]
    # file 1's piece at cache 3's bit serves message {1, 3} or {2, 3}
    assert plan.kept(1)[0b0100] == plan.kept(2)[0b0001] == 0.25
    assert plan.kept(1)[0] == 0.0
    # pattern (4, 4): a = (2, 0) has t = 2/3, so file 1's piece at one of
    # its own requesters moves to the uncoded part, while at two of them
    # a = (3, 0) has t = 3/2 and the piece keeps x_2
    prof = decentralized_profile(8, 0.3)  # every x_s > 0
    plan, _ = adaptive_plan(prof, canonical_demand(RedundancyPattern((4, 4))))
    assert delivery._coded(np.array([4, 4]), np.array([[2, 0], [3, 0]])).tolist() == [False, True]
    kept = plan.kept(1)
    assert kept[0b0000_0001] == 0.0
    assert kept[0b0000_0011] == prof.fractions[2]


def test_adaptive_plan_keeps_the_profile_where_every_message_is_sent():
    # Where every message orbit has t(a) >= 1 (as at L = K), the plan moves
    # nothing and its fractions are the profile's, bit for bit, so verify
    # shares one schedule between the adaptive and the nonadaptive plan.
    sent = [pattern for pattern in _patterns_up_to(8)
            if all(split_cost(pattern.counts, a) >= 1
                   for a in itertools.product(*(range(k + 1) for k in pattern.counts))
                   if sum(a) >= 2)]
    assert {(1,) * K for K in range(1, 9)} < {p.counts for p in sent}
    assert (4, 4) not in {p.counts for p in sent}
    makers = (centralized_profile, decentralized_profile, solve_placement_lp)
    for pattern in sent:
        K = pattern.K
        d = canonical_demand(pattern)
        for prof in [maker(K, m) for maker in makers for m in (0.1, 0.3, 0.55, 0.8)]:
            plan, _ = adaptive_plan(prof, d)
            by_mask = prof.fractions[[mask.bit_count() for mask in range(1 << K)]]
            for file in set(d.requests):
                assert np.array_equal(plan.kept(file), by_mask), (pattern.counts, prof.scheme)


def _capture_solves(monkeypatch):
    """Record every (LinearProgram, LpSolution) that delivery hands to solve."""
    seen = []

    def recording(lp):
        sol = solve(lp)
        seen.append((lp, sol))
        return sol

    monkeypatch.setattr(delivery, "solve", recording)
    return seen


def check_against_full_lp(seen, prof, d):
    """adaptive_plan hands solve the full builder's LP without its fixed
    columns, emptied rows and implied singleton rows, and its value equals
    that of the unreduced full LP, solved as it is."""
    seen.clear()
    _, rate = adaptive_plan(prof, d)
    assert len(seen) == 1  # one solve per plan
    lp, sol = seen[0]
    ref, _ = full_adaptive_lp(prof, d)
    reduced = hand_reduced(ref)
    for name in ("c", "E", "f", "A", "b", "lo", "hi"):
        assert np.array_equal(getattr(lp, name), getattr(reduced, name)), name
    ref_sol = solve(ref)
    assert rate == ref_sol.value  # bit-equal
    assert np.array_equal(sol.assignment, ref_sol.assignment[ref.lo != ref.hi])


@pytest.mark.parametrize("K", range(1, 9))
def test_adaptive_lp_equals_full_build(K, monkeypatch):
    seen = _capture_solves(monkeypatch)
    makers = (centralized_profile, decentralized_profile, solve_placement_lp)
    for m in sorted({0.0, 0.1, 0.3, min(2 / K, 1.0), 1.0}):
        for maker in makers:
            prof = maker(K, m)
            for L in range(1, K + 1):
                for pattern in partitions_into_parts(K, L):
                    check_against_full_lp(seen, prof, canonical_demand(pattern))


def test_adaptive_lp_equals_full_build_at_the_cap(monkeypatch):
    seen = _capture_solves(monkeypatch)
    prof = centralized_profile(12, 0.1)
    patterns = [pattern for L in range(1, 13) for pattern in partitions_into_parts(12, L)]
    assert len(patterns) == 77
    for pattern in patterns:
        check_against_full_lp(seen, prof, canonical_demand(pattern))


def unique_row_numbers(rows):
    """The orbit numbering ``_layout`` used before its lexsort: np.unique
    over whole rows sorts them lexicographically and returns each distinct
    row's first occurrence and every row's number."""
    _, first, number = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, number.reshape(-1)


def test_layout_orbit_numbering_matches_unique(monkeypatch):
    rng = np.random.default_rng(3)
    for shape in ((1, 1), (7, 1), (40, 3), (200, 5)):
        rows = rng.integers(-2, 3, size=shape)
        first, number = delivery._row_numbers(rows)
        ref_first, ref_number = unique_row_numbers(rows)
        assert np.array_equal(first, ref_first) and np.array_equal(number, ref_number)
    shapes = [tuple(pattern.counts) for K in range(1, 13) for L in range(1, K + 1)
              for pattern in partitions_into_parts(K, L)]
    assert len(shapes) == 271
    built = {ks: delivery._layout(ks) for ks in shapes}
    monkeypatch.setattr(delivery, "_row_numbers", unique_row_numbers)
    for ks in shapes:
        for name, ref in vars(delivery._layout.__wrapped__(ks)).items():
            assert np.array_equal(getattr(built[ks], name), ref), (ks, name)


def _random_symmetric_profile(K, weights):
    """Any symmetric profile that partitions the file: x_s in proportion to
    the weights, scaled so that sum_s C(K, s) x_s = 1."""
    w = np.array(weights[: K + 1])
    if not w.any():
        w[0] = 1.0
    sizes = np.array([float(comb(K, s)) for s in range(K + 1)])
    return PlacementProfile(w / (sizes @ w), "random")


# one weight of _random_symmetric_profile: some size classes stay empty
_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-2, 1.0))
HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_adaptive_rate_equals_direct_lp_property(data):
    K = data.draw(st.integers(1, 5), label="K")
    kind = data.draw(st.sampled_from(["centralized", "decentralized", "random"]), label="kind")
    if kind == "random":
        prof = _random_symmetric_profile(
            K, data.draw(st.lists(_WEIGHT, min_size=K + 1, max_size=K + 1), label="weights"))
    else:
        m = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), label="m")
        prof = (centralized_profile if kind == "centralized" else decentralized_profile)(K, m)
    # scattered file labels, not 1..L in request order
    labels = data.draw(st.lists(st.integers(1, 10**6), min_size=K, max_size=K, unique=True),
                       label="labels")
    picks = data.draw(st.lists(st.integers(0, K - 1), min_size=K, max_size=K), label="demand")
    d = DemandVector(tuple(labels[i] for i in picks))
    _, rate = adaptive_plan(prof, d)
    assert abs(rate - adaptive_rate_direct(prof, d)) <= 1e-8, (prof.fractions, d.requests)
    # and by HiGHS, so that a simplex defect cannot pass on both sides; at
    # its default 1e-7 feasibility tolerance HiGHS may drop a piece x_s
    # below 1e-7 and undercut the rate by as much
    lp = adaptive_lp_direct(prof, d)
    ref = linprog(lp.c, A_ub=lp.A if lp.A.size else None, b_ub=lp.b if lp.A.size else None,
                  A_eq=lp.E, b_eq=lp.f, bounds=list(zip(lp.lo, lp.hi)), method="highs",
                  options=HIGHS_TIGHT)
    assert ref.status == 0 and abs(rate - ref.fun) <= 1e-9, (prof.fractions, d.requests)


def _patterns_up_to(K_max):
    return [p for K in range(1, K_max + 1) for L in range(1, K + 1)
            for p in partitions_into_parts(K, L)]


def _assert_rate_is_coefficient_row(profiles, patterns):
    for pattern in patterns:
        coeff = np.array([float(c) for c in adaptive_coefficients(pattern.counts)])
        d = canonical_demand(pattern)
        for prof in profiles(pattern.K):
            rate = adaptive_plan(prof, d)[1]
            assert abs(rate - prof.fractions @ coeff) <= 1e-9, (pattern.counts, prof.fractions)


def test_adaptive_rate_is_linear_in_the_profile():
    # The adaptive LP's optimum is x @ coeff with coefficients that depend
    # on the pattern alone (oracles.adaptive_coefficients), for every one
    # of the 66 patterns with K <= 8.
    patterns = _patterns_up_to(8)
    assert len(patterns) == 66
    _assert_rate_is_coefficient_row(
        lambda K: [maker(K, m) for maker in (centralized_profile, decentralized_profile)
                   for m in (0.1, 0.3, 0.55, 0.8)], patterns)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(weights=st.lists(_WEIGHT, min_size=9, max_size=9))
def test_adaptive_rate_is_linear_in_random_profiles(weights):
    _assert_rate_is_coefficient_row(lambda K: [_random_symmetric_profile(K, weights)],
                                    _patterns_up_to(8))


def test_adaptive_coefficients_equal_the_nonadaptive_row_where_every_message_is_sent():
    # Every t(a) >= 1 for |a| >= 2, as at L = K, where t(a) = |a|, so no
    # message is worth splitting: L at s = 0, then C(K, s + 1), exactly.
    def nonadaptive_row(K, L):
        return [L] + [comb(K, s + 1) for s in range(1, K + 1)]

    for K in range(1, 9):
        assert adaptive_coefficients((1,) * K) == nonadaptive_row(K, K)
    assert adaptive_coefficients((2, 1)) == nonadaptive_row(3, 2)
    assert adaptive_coefficients((3,)) == nonadaptive_row(3, 1)
    # while two groups of four split some pairs: t((2, 0)) = 2/3
    assert adaptive_coefficients((4, 4))[1] < comb(8, 2)


def test_adaptive_coefficients_dp_equals_the_message_sum():
    # The DP over requester groups in order, whose state is (members so
    # far, t capped at 1), gives the exact coefficients of the sum over
    # every message composition, for all 138 patterns with K <= 10; at the
    # K = 12 cap no prefix has more than 24 states (pattern 7, 3, 2).
    patterns = _patterns_up_to(10)
    assert len(patterns) == 138
    for pattern in patterns:
        assert adaptive_coefficients_dp(pattern.counts) == adaptive_coefficients(pattern.counts), \
            pattern.counts
    sizes = {p.counts: max(map(len, coefficient_states(p.counts)))
             for L in range(1, 13) for p in partitions_into_parts(12, L)}
    assert max(sizes.values()) == 24 and sizes[(7, 3, 2)] == 24


def test_transfer_plan_validation():
    prof = centralized_profile(3, 1 / 3)
    d = DemandVector((1, 1, 2))  # file 1 by a group of two, file 2 by one cache
    x1 = float(prof.fractions[1])
    # every message is worth sending, so each file keeps its three
    # singleton subsets whole and nothing else
    plan = TransferPlan(demand=d, profile=prof)
    kept1, kept2 = plan.kept(1), plan.kept(2)
    assert kept1[0b001] == kept1[0b010] == kept1[0b100] == x1
    assert kept2[0b001] == kept2[0b010] == kept2[0b100] == x1
    assert kept1[0] == 0.0
    assert kept2[0b011] == 0.0
    assert not plan.kept(3).any() and plan.kept(3).shape == (8,)  # file nobody requested


def schedule_parts(schedule: MessageSchedule, mask: int) -> list:
    """The (cache, file, symbol indices) parts of the message at mask, in
    member order: member k carries its requested file's kept symbols at
    mask without k's bit, read from the kept table."""
    parts = []
    for k, file in enumerate(schedule.demand.requests, start=1):
        bit = 1 << (k - 1)
        if mask & bit:
            indices, counts = schedule.kept[file]
            start = int(sum(counts[:mask ^ bit]))
            parts.append((k, file, indices[start:start + counts[mask ^ bit]]))
    return parts


def set_piece(schedule: MessageSchedule, file: int, mask: int, symbols) -> None:
    """Make ``symbols`` the file's kept symbols at mask in the kept table."""
    indices, counts = schedule.kept[file]
    start = int(counts[:mask].sum())
    indices = np.concatenate([indices[:start], symbols, indices[start + counts[mask]:]])
    counts = counts.copy()
    counts[mask] = len(symbols)
    schedule.kept[file] = (indices, counts)


def decode_reference(cache: int, cached, schedule: MessageSchedule) -> np.ndarray:
    """Reference decoder: the per-part loop ``decode`` ran before it was
    vectorized, one fill and one side-information check per message part.

    Pins ``decode``'s output bytes and the text and order of its errors.
    """
    d = schedule.demand
    if not 1 <= cache <= d.K:
        raise ValueError("cache index out of range")
    want = d.requests[cache - 1]
    F = schedule.F
    recon = np.zeros(F, dtype=np.uint8)
    have = np.zeros(F, dtype=bool)

    def fill(indices, values):
        seen = have[indices]
        if np.any(seen):
            clash = recon[indices[seen]] != values[seen]
            if np.any(clash):
                where = int(indices[seen][np.argmax(clash)])
                raise DecodeError(f"conflicting reconstruction at symbol {where}")
        recon[indices] = values
        have[indices] = True

    held, vals = cached[want]
    recon[held] = vals[held]
    have |= held

    if want in schedule.uncoded:
        payload, idx = schedule.uncoded[want]
        fill(idx, payload)

    bit = 1 << (cache - 1)
    for mask, msg in schedule.coded.items():
        if not mask & bit:
            continue
        mine = None
        interference = np.zeros(msg.payload.shape[0], dtype=np.uint8)
        for k, file, idx in schedule_parts(schedule, mask):
            if k == cache:
                mine = idx
                continue
            fheld, fvals = cached[file]
            if not np.all(fheld[idx]):
                raise DecodeError(
                    f"cache {cache} lacks side information for message {mask}")
            interference[:idx.shape[0]] ^= fvals[idx]
        if mine is None or mine.shape[0] == 0:
            continue
        recovered = (msg.payload ^ interference)[:mine.shape[0]]
        fill(mine, recovered)

    if not np.all(have):
        missing = int(np.argmin(have))
        raise DecodeError(f"coverage gap at symbol {missing}")
    return recon


def roundtrip(pm, plan, d):
    schedule = build_messages(pm, plan, d)
    for k in range(1, pm.K + 1):
        got = decode(k, pm.cache_view(k, set(d.requests)), schedule)
        want = pm.data[d.requests[k - 1] - 1]
        assert np.array_equal(got, want), f"cache {k} mismatch"
    return schedule


@pytest.mark.parametrize("K", range(1, 7))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bit_level_round_trip_property(K, data):
    N = data.draw(st.integers(K, K + 3), label="N")
    F = data.draw(st.one_of(st.integers(1, 2**K), st.integers(2**K, 400)), label="F")
    m = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), label="m")
    maker = data.draw(st.sampled_from([centralized_profile, decentralized_profile,
                                       solve_placement_lp]), label="placement")
    requests = data.draw(st.lists(st.integers(1, N), min_size=K, max_size=K), label="demand")
    prof = maker(K, m)
    pm = materialize_partition(prof, N, F, seed=data.draw(st.integers(0, 2**16), label="seed"))
    d = DemandVector(tuple(requests))
    L = redundancy_pattern(d).L
    for scheme in SCHEMES:
        plan, _ = _scheme_plan(prof, scheme, d, L)
        schedule = roundtrip(pm, plan, d)
        kept = _plan_accessor(plan, d, K)
        assert _message_failures(schedule, {n: kept(n) for n in set(requests)})[1] == []


def test_roundtrip_identity_plan_matches_nonadaptive_rate():
    K, F = 4, 5000
    for maker in (centralized_profile, decentralized_profile):
        prof = maker(K, 0.35)
        pm = materialize_partition(prof, 5, F, seed=21)
        d = DemandVector((2, 1, 2, 5))
        schedule = roundtrip(pm, prof.fractions, d)
        analytic = rate_nonadaptive(prof, 3, K)
        assert abs(rate_of_schedule(schedule) - analytic) <= rounding_bound(K, 3, F)


def test_roundtrip_simplified_and_adaptive_plans():
    K, F = 5, 10_000
    prof = decentralized_profile(K, 0.22)
    pm = materialize_partition(prof, 5, F, seed=4)
    d = DemandVector((3, 3, 1, 3, 1))
    pattern = redundancy_pattern(d)
    L = pattern.L

    plan, rate = simplified_plan(prof, L, K)
    schedule = roundtrip(pm, plan, d)
    assert abs(rate_of_schedule(schedule) - rate) <= rounding_bound(K, L, F)

    full, rate = adaptive_plan(prof, d)
    schedule = roundtrip(pm, full, d)
    assert abs(rate_of_schedule(schedule) - rate) <= rounding_bound(K, L, F)


def test_roundtrip_balanced_split_adaptive():
    # bit-level certificate for the strict-improvement case above
    K, F = 8, 10_000
    prof = centralized_profile(K, 0.25)
    pm = materialize_partition(prof, 8, F, seed=13)
    d = canonical_demand(RedundancyPattern((4, 4)))
    plan, rate = adaptive_plan(prof, d)
    schedule = roundtrip(pm, plan, d)
    assert abs(rate_of_schedule(schedule) - rate) <= rounding_bound(K, 2, F)
    assert rate_of_schedule(schedule) < simplified_plan(prof, 2, K)[1]


def test_decode_detects_corruption():
    K, F = 3, 600
    prof = centralized_profile(K, 1 / 3)
    pm = materialize_partition(prof, 4, F, seed=8)
    d = DemandVector((1, 2, 3))
    schedule = build_messages(pm, prof.fractions, d)
    mask, msg = next(iter(schedule.coded.items()))
    msg.payload[0] ^= 0xFF
    corrupted = []
    for k in range(1, K + 1):
        try:
            got = decode(k, pm.cache_view(k, set(d.requests)), schedule)
        except DecodeError:
            corrupted.append(k)
            continue
        if not np.array_equal(got, pm.data[d.requests[k - 1] - 1]):
            corrupted.append(k)
    assert corrupted  # at least one member of the tampered message suffers


def test_decode_missing_message_reports_gap():
    K, F = 3, 600
    prof = centralized_profile(K, 1 / 3)
    pm = materialize_partition(prof, 4, F, seed=8)
    d = DemandVector((1, 2, 3))
    schedule = build_messages(pm, prof.fractions, d)
    assert schedule.coded  # precondition for the deletion below
    mask = next(iter(schedule.coded))
    del schedule.coded[mask]
    with pytest.raises(DecodeError, match=r"^coverage gap at symbol \d+$"):
        for k in range(1, K + 1):
            decode(k, pm.cache_view(k, set(d.requests)), schedule)


def _one_third_schedule():
    """K = 3 caches at t = 1 requesting files 1, 2, 3: message 0b011
    carries file 1 at cache 2's piece and file 2 at cache 1's."""
    prof = centralized_profile(3, 1 / 3)
    pm = materialize_partition(prof, 4, 600, seed=8)
    d = DemandVector((1, 2, 3))
    return pm, d, build_messages(pm, prof.fractions, d)


def assert_decode_error(pm, d, schedule, cache, text):
    """Both decoders raise DecodeError with exactly this text."""
    view = pm.cache_view(cache, set(d.requests))
    for decoder in (decode, decode_reference):
        with pytest.raises(DecodeError) as info:
            decoder(cache, view, schedule)
        assert str(info.value) == text, decoder.__name__


def test_decode_error_texts():
    pm, d, schedule = _one_third_schedule()
    (k1, n1, own), (k2, n2, other) = schedule_parts(schedule, 0b011)
    assert (k1, n1, k2, n2) == (1, 1, 2, 2)
    kept = dict(schedule.kept)

    # the part at cache 1 gone: every symbol of file 1 at cache 2's piece
    msg = schedule.coded.pop(0b011)
    assert_decode_error(pm, d, schedule, 1, f"coverage gap at symbol {int(own.min())}")
    schedule.coded[0b011] = msg

    # cache 2's part pointed at file 2's symbols stored only at cache 3
    set_piece(schedule, 2, 0b001, pieces(pm, 2)[0b100][:other.shape[0]])
    assert_decode_error(pm, d, schedule, 1, "cache 1 lacks side information for message 3")
    schedule.kept[2] = kept[2]

    # cache 1's part pointed at symbols it stores: the recovered values
    # differ from the stored ones at the first symbol whose data differs
    stored = pieces(pm, 1)[0b001][:own.shape[0]]
    first = int(stored[np.argmax(pm.data[0][stored] != pm.data[0][own])])
    set_piece(schedule, 1, 0b010, stored)
    assert_decode_error(pm, d, schedule, 1, f"conflicting reconstruction at symbol {first}")


def test_decode_error_order():
    # a conflict counts after all parts of its message, so a missing piece of
    # side information in the same message comes first; an error in an
    # earlier message beats one in a later message
    pm, d, schedule = _one_third_schedule()
    (_, _, own), (_, _, other) = schedule_parts(schedule, 0b011)
    kept = dict(schedule.kept)
    stored = pieces(pm, 1)[0b001][:own.shape[0]]
    set_piece(schedule, 1, 0b010, stored)
    set_piece(schedule, 2, 0b001, pieces(pm, 2)[0b100][:other.shape[0]])
    assert_decode_error(pm, d, schedule, 1, "cache 1 lacks side information for message 3")
    # message 5's part at cache 3 pointed at file 3's symbols stored only at cache 2
    (k, _, _), (_, n3, later) = schedule_parts(schedule, 0b101)
    assert (k, n3) == (1, 3)
    set_piece(schedule, 3, 0b001, pieces(pm, 3)[0b010][:later.shape[0]])
    assert_decode_error(pm, d, schedule, 1, "cache 1 lacks side information for message 3")
    schedule.kept[2] = kept[2]
    first = int(stored[np.argmax(pm.data[0][stored] != pm.data[0][own])])
    assert_decode_error(pm, d, schedule, 1, f"conflicting reconstruction at symbol {first}")
    schedule.kept[1] = kept[1]
    assert_decode_error(pm, d, schedule, 1, "cache 1 lacks side information for message 5")


@pytest.mark.parametrize("call, message", [
    (lambda: transfer_cutoff(3, 0), "need 1 <= L <= K"),
    (lambda: rate_nonadaptive(centralized_profile(3, 0.5), 2, 4), "profile length disagrees with K"),
    (lambda: simplified_plan(centralized_profile(3, 0.5), 4, 3), "need 1 <= L <= K"),
    (lambda: adaptive_plan(centralized_profile(3, 0.5), DemandVector((1, 2))),
     "profile length disagrees with demand length"),
    (lambda: adaptive_plan(centralized_profile(13, 0.1), DemandVector(tuple(range(1, 14)))),
     "K > 12 exceeds the subset enumeration cap"),
    (lambda: _plan_accessor(TransferPlan(DemandVector((1, 1, 2)), centralized_profile(3, 0.5)),
                            DemandVector((1, 2, 2)), 3),
     "transfer plan was built for a different demand vector"),
    (lambda: _plan_accessor(np.ones(3), DemandVector((1, 2, 2)), 3),
     "per-size plan needs one fraction per subset size 0..K"),
    (lambda: build_messages(_one_third_schedule()[0], np.ones(4), DemandVector((1, 2))),
     "demand length disagrees with the partition map"),
    (lambda: build_messages(_one_third_schedule()[0], np.ones(4), DemandVector((1, 2, 5))),
     "demand requests a file beyond the library"),
    (lambda: decode(4, {}, _one_third_schedule()[2]), "cache index out of range"),
], ids=["cutoff-L", "rate-K", "simplified-L", "adaptive-K", "adaptive-cap", "plan-demand",
        "per-size-length", "build-K", "build-library", "decode-cache"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_decode_rejects_a_part_longer_than_its_payload():
    pm, d, schedule = _one_third_schedule()
    set_piece(schedule, 2, 0b001, np.arange(len(schedule.coded[0b011].payload) + 1))
    with pytest.raises(ValueError, match="longer than its payload"):
        decode(1, pm.cache_view(1, set(d.requests)), schedule)


@pytest.mark.parametrize("K", range(1, 9))
def test_schedule_parts_are_the_kept_prefixes_of_the_pieces(K):
    # member k of message S carries pieces(d_k)[S ^ bit_k] cut at its kept
    # count, as decode derives it and as the reference reads it; a file's
    # kept symbols are its pieces' kept prefixes in mask order, and its
    # uncoded part the rest of every piece in mask order
    rng = np.random.default_rng(K)
    for F, maker in itertools.product((300, 3),  # F < 2^K leaves pieces empty
                                      (centralized_profile, decentralized_profile,
                                       solve_placement_lp)):
        prof = maker(K, 0.3)
        pm = materialize_partition(prof, K + 1, F, seed=K)
        for _ in range(2):
            d = DemandVector(tuple(int(r) for r in rng.integers(1, K + 2, size=K)))
            by_file = {n: pieces(pm, n) for n in set(d.requests)}
            for scheme in SCHEMES:
                plan, _ = _scheme_plan(prof, scheme, d, redundancy_pattern(d).L)
                schedule = build_messages(pm, plan, d)
                for n, (indices, counts) in schedule.kept.items():
                    cut = counts.tolist()
                    assert np.array_equal(indices, np.concatenate(
                        [p[:c] for p, c in zip(by_file[n], cut)]))
                    payload, idx = schedule.uncoded[n]
                    assert np.array_equal(idx, np.concatenate(
                        [p[c:] for p, c in zip(by_file[n], cut)]))
                    assert np.array_equal(payload, pm.data[n - 1][idx])
                masks = np.array(sorted(schedule.coded), dtype=np.int64)
                derived = delivery._parts(d, schedule.kept, masks)
                at = 0
                for mask in masks.tolist():
                    parts = schedule_parts(schedule, mask)
                    assert [k for k, _, _ in parts] == [k for k in range(1, K + 1)
                                                        if mask >> (k - 1) & 1]
                    for k, n, idx in parts:
                        piece = mask ^ (1 << (k - 1))
                        count = schedule.kept[n][1][piece]
                        assert n == d.requests[k - 1] and idx.shape[0] == count
                        assert np.array_equal(idx, by_file[n][piece][:count])
                        _, bit, start, length = (a[at] for a in derived)
                        assert bit == k - 1
                        assert np.array_equal(schedule.kept[n][0][start:start + length], idx)
                        at += 1
                    assert schedule.coded[mask].payload.shape[0] == max(
                        idx.shape[0] for _, _, idx in parts)
                assert at == derived[0].shape[0]


def _outcome(decoder, cache, view, schedule):
    try:
        return "ok", decoder(cache, view, schedule).tobytes()
    except Exception as exc:  # any difference in kind or text fails the comparison
        return type(exc).__name__, str(exc)


def _tamper(schedule, F, kind, rng):
    """Flip a payload byte, delete a message, or re-point the kept-table
    entry behind one part of a message, or one file's uncoded part, at
    other symbols."""
    if kind == "repoint-uncoded":
        files = sorted(schedule.uncoded)
        n = files[rng.integers(len(files))]
        payload, idx = schedule.uncoded[n]
        schedule.uncoded[n] = (payload, rng.integers(0, F, idx.shape[0]))
        return
    if not schedule.coded:
        return
    masks = sorted(schedule.coded)
    mask = masks[rng.integers(len(masks))]
    msg = schedule.coded[mask]
    if kind == "flip":
        msg.payload[rng.integers(msg.payload.shape[0])] ^= rng.integers(1, 256, dtype=np.uint8)
    elif kind == "delete":
        del schedule.coded[mask]
    else:
        parts = schedule_parts(schedule, mask)
        k, n, idx = parts[rng.integers(len(parts))]
        set_piece(schedule, n, mask ^ (1 << (k - 1)), rng.integers(0, F, idx.shape[0]))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_decode_matches_reference_on_tampered_schedules(data):
    K = data.draw(st.integers(1, 5), label="K")
    N = data.draw(st.integers(K, K + 2), label="N")
    F = data.draw(st.integers(1, 300), label="F")
    m = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), label="m")
    maker = data.draw(st.sampled_from([centralized_profile, decentralized_profile,
                                       solve_placement_lp]), label="placement")
    d = DemandVector(tuple(data.draw(st.lists(st.integers(1, N), min_size=K, max_size=K),
                                     label="demand")))
    scheme = data.draw(st.sampled_from(SCHEMES), label="scheme")
    kinds = data.draw(st.lists(st.sampled_from(
        ["flip", "delete", "repoint", "repoint-uncoded"]), min_size=1, max_size=3),
        label="tamper")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    prof = maker(K, m)
    pm = materialize_partition(prof, N, F, seed=K + F)
    plan, _ = _scheme_plan(prof, scheme, d, redundancy_pattern(d).L)
    schedule = build_messages(pm, plan, d)
    for kind in kinds:
        _tamper(schedule, F, kind, rng)
    for k in range(1, K + 1):
        view = pm.cache_view(k, set(d.requests))
        assert (_outcome(decode, k, view, schedule)
                == _outcome(decode_reference, k, view, schedule)), (k, kinds)


def test_decode_matches_reference_on_missing_side_information():
    # every coded message, every member cache k and every other member j
    # with a nonempty part: j's first kept symbol re-pointed at the lowest
    # symbol of j's file that cache k does not store.  Both decoders raise
    # the side-information error, at this message or at an earlier one that
    # reads the same kept entry (1,209 and 117 of 1,326 cases).
    named = Counter()  # does the error name the tampered message?
    for K in range(2, 6):
        for maker in (centralized_profile, decentralized_profile, solve_placement_lp):
            prof = maker(K, 0.4)
            pm = materialize_partition(prof, K + 1, 90, seed=K)
            d = DemandVector(tuple(1 + k % (K - 1) for k in range(K)))  # one file twice
            for scheme in SCHEMES:
                plan, _ = _scheme_plan(prof, scheme, d, redundancy_pattern(d).L)
                schedule = build_messages(pm, plan, d)
                for mask in sorted(schedule.coded):
                    parts = schedule_parts(schedule, mask)
                    for k, _, _ in parts:
                        view = pm.cache_view(k, set(d.requests))
                        for j, n, idx in parts:
                            missing = np.flatnonzero((pm.holder[n - 1] >> (k - 1) & 1) == 0)
                            if j == k or not idx.size or not missing.size:
                                continue
                            saved = schedule.kept[n]
                            set_piece(schedule, n, mask ^ (1 << (j - 1)),
                                      np.concatenate([missing[:1], idx[1:]]))
                            got = _outcome(decode, k, view, schedule)
                            assert got == _outcome(decode_reference, k, view, schedule), (K, mask, k, j)
                            assert got[0] == "DecodeError"
                            assert got[1].startswith(f"cache {k} lacks side information for message ")
                            named[int(got[1].rsplit(" ", 1)[1]) == mask] += 1
                            schedule.kept[n] = saved
    assert named[True] > 0 and named[False] > 0


def test_schedule_rate_accounts_uncoded_once_per_file():
    # two caches wanting the same uncached file share one uncoded message
    K, F = 2, 1000
    prof = centralized_profile(K, 0.0)
    pm = materialize_partition(prof, 3, F, seed=0)
    d = DemandVector((2, 2))
    schedule = roundtrip(pm, prof.fractions, d)
    assert rate_of_schedule(schedule) == pytest.approx(1.0)
