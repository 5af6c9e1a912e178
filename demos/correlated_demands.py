#!/usr/bin/env python3
"""
Samples correlated demand vectors with the neighbourhood-copy Gibbs
chain and shows what the induced redundancy is worth. Each cache copies
a file from its neighbourhood with probability r, so high r concentrates
requests on few files, and the adaptive schemes convert that into
delivery-rate savings.
"""

import numpy as np

from cachecast import (
    CorrelationModel,
    adaptive_plan,
    average_bound,
    canonical_demand,
    centralized_profile,
    complete_graph,
    empirical_stats,
    epsr,
    gap_reduction,
    mean_request_index,
    rate_nonadaptive,
    sample_chains,
    redundancy_patterns,
    simplified_plan,
    zipf_pmf,
)

K, N = 8, 1000
R, THETA = 0.9, 0.0
M_RATIO = 0.075

model = CorrelationModel(adjacency=complete_graph(K), r=R,
                         popularity=zipf_pmf(N, THETA))
chains = sample_chains(model, chains=5, count=1000, burn_in=150, seed=0)
samples = chains.reshape(-1, K)  # one demand vector per row

stats = empirical_stats(samples)
rhat = epsr(mean_request_index(chains))
print(f"r={R}, theta={THETA}, {len(samples)} samples from 5 chains")
print(f"distinct files per demand: {stats.L_avg:.2f} on average (iid would give "
      f"{N * (1 - (1 - 1 / N) ** K):.2f})")
print(f"pairwise correlation: avg {stats.rho_avg:.2f}, max {stats.rho_max:.2f}")
print(f"convergence diagnostic: {rhat:.4f} (1 means fully mixed)")

profile = centralized_profile(K, M_RATIO)
patterns, inverse = redundancy_patterns(samples)  # distinct patterns, one index per row
rates = np.array([(rate_nonadaptive(profile, p.L, K), simplified_plan(profile, p.L, K)[1],
                   adaptive_plan(profile, canonical_demand(p))[1]) for p in patterns])
r_na, r_sp, r_ad = (float(v) for v in rates[inverse].mean(axis=0))
bound = average_bound(samples, N, M_RATIO * N, K)
print()
print(f"average rates at m={M_RATIO}:")
print(f"  nonadaptive {r_na:.3f}, size-class rule {r_sp:.3f}, full plan {r_ad:.3f}, "
      f"bound {bound:.3f}")
print(f"  gap closed: {100 * gap_reduction(r_na, r_sp, bound):.0f}% by the "
      f"size-class rule, {100 * gap_reduction(r_na, r_ad, bound):.0f}% by the full plan")
