#!/usr/bin/env python3
"""
Prints the optimal cache-content profiles for a small system and checks
them against the placement LP. Each profile lists x_s, the fraction of
every file stored on each subset of exactly s caches. The worst-case
delivery rate of a profile drops steeply as the per-cache budget grows.
"""

from cachecast import (
    centralized_profile,
    decentralized_profile,
    rate_nonadaptive,
    solve_placement_lp,
)

K = 5
M_VALUES = (0.1, 0.2, 0.3, 0.5, 0.8, 0.9)

print(f"optimal deterministic profiles, K={K}")
print("m      " + "".join(f"x_{s}     " for s in range(K + 1)) + "rate")
for m in M_VALUES:
    profile = centralized_profile(K, m)
    rate = rate_nonadaptive(profile, K, K)
    cells = "".join(f"{float(x):7.4f} " for x in profile.fractions)
    print(f"{m:<6.2f} {cells}{rate:7.4f}")

print()
print("LP agreement on the same grid:")
for m in M_VALUES:
    lp_rate = rate_nonadaptive(solve_placement_lp(K, m), K, K)
    closed = rate_nonadaptive(centralized_profile(K, m), K, K)
    print(f"  m={m:.2f}: LP {lp_rate:.6f} vs closed form {closed:.6f} "
          f"(diff {abs(lp_rate - closed):.1e})")

print()
print("independent (decentralized) placement pays a modest price:")
print("m      coordinated  independent")
for m in M_VALUES:
    cen = rate_nonadaptive(centralized_profile(K, m), K, K)
    dec = rate_nonadaptive(decentralized_profile(K, m), K, K)
    print(f"{m:<6.2f} {cen:11.4f}  {dec:11.4f}")
    # the independent placement's worst-case rate in closed form
    assert abs(dec - (1 - m) / m * (1 - (1 - m) ** K)) < 1e-9

# at integer t = K m the coordinated rate is K (1 - m) / (1 + t)
assert abs(rate_nonadaptive(centralized_profile(K, 0.2), K, K)
           - K * (1 - 0.2) / (1 + K * 0.2)) < 1e-9
