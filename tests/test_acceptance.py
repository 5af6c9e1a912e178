"""Acceptance suite: the nine gates the package is judged against.

Each test prints one summary line (run pytest with -s to see them all;
failures show theirs automatically) and then asserts its gate. The
stochastic gates pin their seeds, so every run sees identical numbers.
"""

import itertools
import time
from math import comb

import numpy as np
import pytest

from cachecast.bounds import average_bound, cutset_bound
from cachecast.core import (
    DemandVector,
    RedundancyPattern,
    redundancy_pattern,
    redundancy_patterns,
)
from cachecast.delivery import (
    adaptive_plan,
    build_messages,
    canonical_demand,
    decode,
    rate_nonadaptive,
    rate_of_schedule,
    simplified_plan,
)
from cachecast.demand import (
    CorrelationModel,
    complete_graph,
    empirical_stats,
    epsr,
    mean_request_index,
    sample_chains,
    zipf_pmf,
)
from cachecast.placement import (
    centralized_profile,
    decentralized_profile,
    materialize_partition,
    solve_placement_lp,
)

from oracles import peak_rate_centralized, peak_rate_decentralized

M_GRID = [0.025 * j for j in range(1, 40)]


def verdict(num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")


def test_acceptance_1_five_cache_profiles():
    expected = {
        0.1: {0: 0.5, 1: 0.1},
        0.2: {1: 0.2},
        0.3: {1: 0.1, 2: 0.05},
        0.5: {2: 0.05, 3: 0.05},
        0.8: {4: 0.2},
        0.9: {4: 0.1, 5: 0.5},
    }
    t0 = time.perf_counter()
    worst = 0.0
    for m, nonzero in expected.items():
        profile = centralized_profile(5, m)
        for s in range(6):
            worst = max(worst, abs(float(profile.fractions[s]) - nonzero.get(s, 0.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(1, "five-cache profile table", ok, f"worst dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_acceptance_2_lp_equals_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for K in range(2, 11):
        for m in M_GRID:
            lp_rate = rate_nonadaptive(solve_placement_lp(K, m), K, K)
            closed = rate_nonadaptive(centralized_profile(K, m), K, K)
            worst = max(worst, abs(lp_rate - closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 60.0
    verdict(2, "placement LP vs closed form", ok, f"worst dev {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-7
    assert elapsed < 60.0


def test_acceptance_3_peak_rate_formulas():
    worst = 0.0
    for K in range(2, 11):
        for t in range(0, K + 1):
            m = t / K
            got = rate_nonadaptive(centralized_profile(K, m), K, K)
            worst = max(worst, abs(got - peak_rate_centralized(K, m)))
        for m in M_GRID:
            got = rate_nonadaptive(decentralized_profile(K, m), K, K)
            worst = max(worst, abs(got - peak_rate_decentralized(K, m)))
    verdict(3, "peak-rate closed forms", worst <= 1e-9, f"worst dev {worst:.2e}")
    assert worst <= 1e-9


def test_acceptance_4_gap_reduction_table_nine_caches():
    K, N, L = 9, 1000, 3
    ms = (0.025, 0.1, 0.15, 0.2)
    table_simplified = (49, 52, 37, 13)
    table_adaptive = {
        (3, 3, 3): (49, 52, 37, 13),
        (5, 2, 2): (61, 61, 45, 17),
        (4, 4, 1): (66, 66, 51, 25),
        (7, 1, 1): (78, 76, 64, 43),
    }
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for mi, m in enumerate(ms):
        profile = centralized_profile(K, m)
        bound = cutset_bound(K, L, N, m * N)
        r_na = rate_nonadaptive(profile, L, K)

        pct = 100.0 * (r_na - simplified_plan(profile, L, K)[1]) / (r_na - bound)
        worst = max(worst, abs(pct - table_simplified[mi]))
        if abs(pct - table_simplified[mi]) > 3.0:
            failures.append(f"simplified m={m}: {pct:.1f} vs {table_simplified[mi]}")

        for counts, row in table_adaptive.items():
            d = canonical_demand(RedundancyPattern(counts))
            _, r_ad = adaptive_plan(profile, d)
            pct = 100.0 * (r_na - r_ad) / (r_na - bound)
            worst = max(worst, abs(pct - row[mi]))
            if abs(pct - row[mi]) > 3.0:
                failures.append(f"adaptive {counts} m={m}: {pct:.1f} vs {row[mi]}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    verdict(4, "nine-cache gap-reduction table", ok,
            f"20 cells, worst dev {worst:.2f}pp, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0


def test_acceptance_5_dominance_and_symmetric_equality():
    rng = np.random.default_rng(0)
    failures = []
    symmetric_cases = 0
    worst_chain = 0.0
    for i in range(200):
        K = int(rng.integers(2, 10))
        N = K + int(rng.integers(0, 3))
        m = float(rng.uniform(0.02, 0.98))
        maker = centralized_profile if rng.random() < 0.5 else decentralized_profile
        profile = maker(K, m)
        d = DemandVector(tuple(int(v) for v in rng.integers(1, N + 1, size=K)))
        pattern = redundancy_pattern(d)
        L = pattern.L

        bound = cutset_bound(K, L, N, m * N)
        r_na = rate_nonadaptive(profile, L, K)
        _, r_sp = simplified_plan(profile, L, K)
        _, r_ad = adaptive_plan(profile, d)

        worst_chain = max(worst_chain, bound - r_ad, r_ad - r_sp, r_sp - r_na)
        for low, high, names in ((bound, r_ad, "bound<=adaptive"),
                                 (r_ad, r_sp, "adaptive<=simplified"),
                                 (r_sp, r_na, "simplified<=nonadaptive")):
            if low > high + 1e-7:
                failures.append(f"config {i} (K={K}, m={m:.3f}): {names} violated")
        if len(set(pattern.counts)) == 1:
            symmetric_cases += 1
            if abs(r_ad - r_sp) > 1e-7:
                failures.append(
                    f"config {i}: symmetric pattern {pattern.counts} at m={m:.3f} "
                    f"({maker.__name__}): adaptive {r_ad:.6f} != simplified {r_sp:.6f}")
    verdict(5, "dominance chain on 200 random configs", not failures,
            f"{symmetric_cases} symmetric cases, worst slack {worst_chain:.2e}")
    assert not failures, failures


def test_acceptance_6_sizewise_rule_optimality():
    worst = 0.0
    for K in range(2, 7):
        for maker in (centralized_profile, decentralized_profile):
            for m in (0.1, 0.3, 0.5, 0.7, 0.9):
                profile = maker(K, m)
                x = profile.fractions
                for L in range(1, K + 1):
                    best = min(
                        L * (x[0] + sum(comb(K, s) * x[s]
                                        for s in range(1, K) if picks[s - 1]))
                        + sum(comb(K, s + 1) * x[s]
                              for s in range(1, K) if not picks[s - 1])
                        for picks in itertools.product((False, True), repeat=K - 1)
                    )
                    worst = max(worst, abs(simplified_plan(profile, L, K)[1] - best))
    verdict(6, "size-class rule vs exhaustive search", worst <= 1e-9,
            f"worst dev {worst:.2e}")
    assert worst <= 1e-9


def test_acceptance_7_bit_level_decodability():
    F, N = 10_000, 6
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    failures = []
    checked = 0
    for K in (2, 3, 4, 5):
        for maker in (centralized_profile, decentralized_profile):
            for m in (0.2, 0.45):
                profile = maker(K, m)
                pm = materialize_partition(profile, N, F, seed=17)
                for _ in range(100):
                    d = DemandVector(tuple(int(v) for v in rng.integers(1, N + 1, size=K)))
                    L = redundancy_pattern(d).L
                    schedule = build_messages(pm, profile.fractions, d)
                    for k in range(1, K + 1):
                        got = decode(k, pm.cache_view(k, set(d.requests)), schedule)
                        if not np.array_equal(got, pm.data[d.requests[k - 1] - 1]):
                            failures.append(f"K={K} {maker.__name__} m={m} {d.requests}: cache {k}")
                    gap = abs(rate_of_schedule(schedule) - rate_nonadaptive(profile, L, K))
                    # apportion rounds each coded message and uncoded part to one symbol
                    if gap > (2**K - K - 1 + L) / F:
                        failures.append(f"K={K} {maker.__name__} m={m} {d.requests}: rate gap {gap:.2e}")
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    verdict(7, "bit-level decode round-trips", ok, f"{checked} demands, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_acceptance_8_correlated_demand_statistics():
    K, N = 8, 1000
    targets = (  # (r, theta, L_avg, rho_avg)
        (0.7, 0.0, 4.80, 0.16),
        (0.9, 0.0, 3.41, 0.32),
        (0.9, 0.75, 3.18, 0.31),
    )
    t0 = time.perf_counter()
    failures = []
    summary = []
    for r, theta, L_tab, rho_tab in targets:
        model = CorrelationModel(adjacency=complete_graph(K), r=r,
                                 popularity=zipf_pmf(N, theta))
        chains = sample_chains(model, chains=5, count=1000, burn_in=150, seed=0)
        stats = empirical_stats(chains)
        rhat = epsr(mean_request_index(chains))
        summary.append(f"r={r} theta={theta}: L={stats.L_avg:.3f} "
                       f"rho_avg={stats.rho_avg:.3f} rho_max={stats.rho_max:.3f} "
                       f"epsr={rhat:.4f}")
        if abs(stats.L_avg - L_tab) > 0.3:
            failures.append(f"r={r} theta={theta}: L_avg {stats.L_avg:.3f} vs {L_tab}")
        if abs(stats.rho_avg - rho_tab) > 0.05:
            failures.append(f"r={r} theta={theta}: rho_avg {stats.rho_avg:.3f} vs {rho_tab}")
        if abs(rhat - 1.0) > 0.01:
            failures.append(f"r={r} theta={theta}: epsr {rhat:.4f}")
    elapsed = time.perf_counter() - t0
    for line in summary:
        print(line)
    ok = not failures and elapsed < 300.0
    verdict(8, "correlated demand statistics", ok, f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0


def test_acceptance_9_average_gap_reductions():
    K, N = 8, 1000
    settings = ((0.7, 0.0), (0.9, 0.0), (0.9, 0.75))
    ms = (0.075, 0.125)
    table = {
        (0.075, "adaptive"): (14, 41, 47),
        (0.075, "simplified"): (5, 28, 36),
        (0.125, "adaptive"): (16, 41, 48),
        (0.125, "simplified"): (5, 28, 36),
    }
    profiles = {m: centralized_profile(K, m) for m in ms}
    adaptive_cache = {}
    simplified_cache = {}

    def scheme_rates(m, pattern):
        key_a = (m, pattern.counts)
        if key_a not in adaptive_cache:
            _, adaptive_cache[key_a] = adaptive_plan(profiles[m], canonical_demand(pattern))
        key_s = (m, pattern.L)
        if key_s not in simplified_cache:
            _, simplified_cache[key_s] = simplified_plan(profiles[m], pattern.L, K)
        return adaptive_cache[key_a], simplified_cache[key_s]

    cells = {}
    for seed in range(5):
        for si, (r, theta) in enumerate(settings):
            model = CorrelationModel(adjacency=complete_graph(K), r=r,
                                     popularity=zipf_pmf(N, theta))
            chains = sample_chains(model, chains=5, count=1000, burn_in=150, seed=seed)
            samples = chains.reshape(-1, K)
            distinct, inverse = redundancy_patterns(samples)
            patterns = [distinct[i] for i in inverse]
            for m in ms:
                profile = profiles[m]
                r_na = float(np.mean([rate_nonadaptive(profile, p.L, K) for p in patterns]))
                bound = average_bound(samples, N, m * N, K)
                pairs = [scheme_rates(m, p) for p in patterns]
                for scheme, avg in (("adaptive", float(np.mean([a for a, _ in pairs]))),
                                    ("simplified", float(np.mean([s for _, s in pairs])))):
                    pct = 100.0 * (r_na - avg) / (r_na - bound)
                    cells.setdefault((m, scheme, si), []).append(pct)

    failures = []
    for (m, scheme), row in table.items():
        for si, (r, theta) in enumerate(settings):
            vals = np.array(cells[(m, scheme, si)])
            mean = float(vals.mean())
            half = 1.96 * float(vals.std(ddof=1)) / np.sqrt(len(vals))
            dev = abs(mean - row[si])
            print(f"m={m} {scheme:10s} r={r} theta={theta}: "
                  f"{mean:5.1f}% +/- {half:.2f} (target {row[si]}%, dev {dev:.1f}pp)")
            if dev > 5.0:
                failures.append(
                    f"m={m} {scheme} r={r} theta={theta}: {mean:.1f}% vs {row[si]}%")
    verdict(9, "average gap reductions under correlated demands", not failures,
            f"{len(failures)} of 12 cells outside +/-5pp")
    assert not failures, failures
