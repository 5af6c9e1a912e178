#!/usr/bin/env python3
"""
End-to-end check that the analytic rates are actually achievable:
materialize a random library at the symbol level, fill the caches, build
the broadcast schedule for one demand vector, decode at every cache, and
compare the traffic actually sent against the closed-form rate.
"""

import numpy as np

from cachecast import (
    DemandVector,
    adaptive_plan,
    build_messages,
    decode,
    decentralized_profile,
    materialize_partition,
    rate_of_schedule,
    redundancy_pattern,
)

K, N, F = 4, 6, 10_000
M_RATIO = 0.3
DEMAND = DemandVector((2, 5, 2, 2))

profile = decentralized_profile(K, M_RATIO)
partition = materialize_partition(profile, N, F, seed=42)

pattern = redundancy_pattern(DEMAND)
L = pattern.L
print(f"K={K} caches, N={N} files of F={F} symbols, m={M_RATIO}")
print(f"demand {DEMAND.requests}: {L} distinct files, pattern {pattern}")

stored = np.count_nonzero(partition.holder & 1)  # symbols whose subset mask names cache 1
print(f"cache 1 stores {stored} symbols = {stored / F:.3f} file units "
      f"(budget {M_RATIO * N:.1f})")

plan, analytic = adaptive_plan(profile, DEMAND)
schedule = build_messages(partition, plan, DEMAND)
achieved = rate_of_schedule(schedule)
print(f"schedule: {len(schedule.coded)} coded messages, "
      f"{len(schedule.uncoded)} uncoded file remainders")
print(f"rate: achieved {achieved:.4f} vs analytic {analytic:.4f} "
      f"(rounding bound {(2**K - K - 1 + L) / F:.4f})")

for k in range(1, K + 1):
    got = decode(k, partition.cache_view(k, set(DEMAND.requests)), schedule)
    want = partition.data[DEMAND.requests[k - 1] - 1]
    status = "ok" if np.array_equal(got, want) else "MISMATCH"
    print(f"cache {k} reconstructs file {DEMAND.requests[k - 1]}: {status}")
