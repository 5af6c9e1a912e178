#!/usr/bin/env python3
"""
Shows how much the delivery rate drops when the server adapts its
messages to demand redundancy. Nine caches request three distinct files
under several redundancy patterns; the more lopsided the pattern, the
bigger the win. The last section shows the one place the full
plan beats the per-size-class rule: a perfectly balanced two-file split,
where the best plan keeps coded pairs whose members want the same file.
"""

from cachecast import (
    RedundancyPattern,
    adaptive_plan,
    canonical_demand,
    centralized_profile,
    cutset_bound,
    gap_reduction,
    rate_nonadaptive,
    simplified_plan,
)

K, N, L = 9, 1000, 3
PATTERNS = ((3, 3, 3), (5, 2, 2), (4, 4, 1), (7, 1, 1))
M_VALUES = (0.025, 0.1, 0.15, 0.2)

for m in M_VALUES:
    profile = centralized_profile(K, m)
    bound = cutset_bound(K, L, N, m * N)
    r_na = rate_nonadaptive(profile, L, K)
    _, r_sp = simplified_plan(profile, L, K)
    print(f"m={m}: nonadaptive {r_na:.3f}, size-class rule {r_sp:.3f} "
          f"(closes {100 * gap_reduction(r_na, r_sp, bound):.0f}% of the gap), "
          f"bound {bound:.3f}")
    for counts in PATTERNS:
        demand = canonical_demand(RedundancyPattern(counts))
        _, r_ad = adaptive_plan(profile, demand)
        pct = 100 * gap_reduction(r_na, r_ad, bound)
        print(f"  pattern {counts}: adaptive {r_ad:.3f} ({pct:.0f}% of gap closed)")
    print()

print("balanced split, eight caches, two files wanted by four caches each:")
profile = centralized_profile(8, 0.25)
demand = canonical_demand(RedundancyPattern((4, 4)))
_, r_ad = adaptive_plan(profile, demand)
_, r_sp = simplified_plan(profile, 2, 8)
print(f"  size-class rule {r_sp:.4f} vs full plan {r_ad:.4f} "
      f"(strictly better by {r_sp - r_ad:.4f});")
print("  the full plan transfers only the coded pairs that mix the two")
print("  request groups and keeps the within-group pairs coded.")
