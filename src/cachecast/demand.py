"""Correlated demand generation for cache networks.

Requests in a real network are not independent: users who are close to
each other tend to ask for the same content. This module models that with
a Markov random field over the demand vector. Each cache sits on a vertex
of an undirected graph, and when cache k redraws its request it copies,
with probability r, one of the distinct files in its closed neighbourhood
(its neighbours' current requests plus its own last request), or falls
back to the base popularity distribution with probability 1 - r. Sweeping
the caches in ascending order with this conditional is Gibbs sampling;
after a burn-in the sweeps give (dependent) draws from the joint
stationary law.

conditional_pmf is the specification of one draw: invert the cdf of the
conditional pmf at one uniform. The sampler does not build that pmf. Its
cdf is (1 - r) times the base cdf plus r / s for each of the s copy-set
files at or below the index. The model builds that scaled base cdf and
the other products and sums once, on its first draw, so a bisection of
the scaled base cdf per run of indices between copy-set files finds the
draw in O(K log N), for any r. The answer is kept only when the uniform
lies farther than a rounding guard of order N * 2**-53 from the cdf on
both sides of it; otherwise the draw is redone on the exact path with
the same uniform. The samples are therefore those of the plain
inverse-cdf sampler, bit for bit. One loop runs a whole chain with the
draw inlined, taking its uniforms from the generator a bounded block at
a time and writing the kept sweeps into an int array, one row per demand
vector. Caches with equal closed neighbourhoods share one copy set, and
the loop keeps each such set sorted as the chain runs: a draw that
changes a request updates the sets that contain its cache, instead of
every draw rebuilding its own.

The base popularity is Zipf with exponent theta (theta = 0 is uniform).
Convergence of the chains is monitored with the estimated potential scale
reduction (R-hat) computed over several independently seeded chains, and
the samples are summarised by pairwise Pearson correlations of the file
index sequences plus the average number of distinct files per demand
vector. Those summaries are what the delivery schemes respond to: fewer
distinct files means more demand redundancy for an adaptive plan to
exploit.

All randomness flows through numpy Generators seeded from a single
SeedSequence, with one spawned child per chain, so every experiment is
reproducible bit for bit from one integer seed.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain, cycle
from types import SimpleNamespace

import numpy as np

from .core import DemandVector, distinct_counts

__all__ = ["CorrelationModel", "DemandStats", "complete_graph", "empirical_stats", "epsr",
           "load_edge_list", "mean_request_index", "sample_chains", "zipf_pmf"]

PMF_TOL = 1e-12
BLOCK = 1 << 10  # uniforms per rng.random call of the chain kernel


def zipf_pmf(N: int, theta: float) -> np.ndarray:
    """Zipf popularity with p_n proportional to (1/n)**theta, as the pmf
    array whose entry n - 1 is the probability of file n.

    theta = 0 gives the uniform distribution. The pmf is non-increasing
    in the file index, so file 1 is always the most popular.
    """
    if N < 1:
        raise ValueError("library size must be at least 1")
    if not theta >= 0:
        raise ValueError("Zipf exponent must be nonnegative")
    weights = np.arange(1, N + 1, dtype=float) ** (-theta)
    return weights / weights.sum()


@dataclass(frozen=True)
class CorrelationModel:
    """Neighbourhood-copy request model on an undirected graph.

    adjacency is a K x K boolean matrix, symmetric with a zero diagonal.
    r is the probability that a cache copies one of its neighbours'
    distinct current files instead of sampling from the base popularity,
    a pmf array whose entry n - 1 is the probability of file n.
    """

    adjacency: np.ndarray
    r: float
    popularity: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] < 1:
            raise ValueError("need at least one cache")
        if np.any(np.diag(adj)):
            raise ValueError("adjacency must have a zero diagonal")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("copy probability r must lie in [0, 1]")
        pmf = np.asarray(self.popularity, dtype=float)
        if pmf.ndim != 1 or pmf.shape[0] < 1:
            raise ValueError("popularity must be a 1-d pmf over at least one file")
        if not np.all((pmf >= 0) & (pmf < np.inf)):
            raise ValueError("popularity entries must be finite and nonnegative")
        if abs(float(pmf.sum()) - 1.0) > PMF_TOL:
            raise ValueError("popularity must sum to 1")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "popularity", pmf)

    @property
    def K(self) -> int:
        return self.adjacency.shape[0]

    @functools.cached_property
    def _tables(self):
        """The sampler's tables, built on first use: the base cdf as a
        list, a times it (a = 1 - r), and for each copy-set size s the
        products (r / s) * t, t = 0..s, and the total mass
        a * cdf[-1] + (r / s) * s; the neighbourhood groups, one per
        distinct closed neighbourhood (all K caches of the complete graph
        form one), as each cache's group (None where it draws from the
        base law: no neighbours, or r = 0), each group's member caches
        and, per cache, the groups that contain it; and the rounding guard
        of the fast draw."""
        adj = self.adjacency
        cdf = np.cumsum(self.popularity).tolist()
        a, r = 1.0 - self.r, self.r
        acdf = [a * c for c in cdf]
        rts = [[r / s * t for t in range(s + 1)] for s in range(1, self.K + 1)]
        groups = {}  # closed neighbourhood -> group index, in first-seen order
        closed = adj | np.eye(self.K, dtype=bool)
        group = tuple(groups.setdefault(tuple(np.flatnonzero(row).tolist()), len(groups))
                      if r > 0.0 and adj[k].any() else None
                      for k, row in enumerate(closed))
        return SimpleNamespace(
            cdf=cdf, acdf=acdf, mass=(None,) + tuple((rt, acdf[-1] + rt[-1]) for rt in rts),
            group=group, members=tuple(groups),
            touch=tuple(tuple(g for g, members in enumerate(groups) if k in members)
                        for k in range(self.K)),
            guard=10 * (len(cdf) + 3) * 2.0**-53)


def complete_graph(K: int) -> np.ndarray:
    """Adjacency matrix of the complete graph on K caches."""
    if K < 1:
        raise ValueError("need at least one cache")
    adj = np.ones((K, K), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def load_edge_list(path, K: int) -> np.ndarray:
    """Read an undirected edge list file into a K x K adjacency matrix.

    Each non-empty, non-comment line holds two 1-based cache indices
    separated by whitespace or a comma. Caches the list never names have
    no edges; a line naming a cache above K is an error.
    """
    adj = np.zeros((K, K), dtype=bool)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two cache indices")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cache indices must be integers") from None
            if a < 1 or b < 1:
                raise ValueError(f"{path}:{lineno}: cache indices are 1-based")
            if max(a, b) > K:
                raise ValueError(f"{path}:{lineno}: edge list names cache {max(a, b)} but K={K}")
            if a == b:
                raise ValueError(f"{path}:{lineno}: self-loops are not allowed")
            adj[a - 1, b - 1] = adj[b - 1, a - 1] = True
    if not adj.any():
        raise ValueError(f"{path}: no edges found")
    return adj


def conditional_pmf(k: int, current: DemandVector, model: CorrelationModel) -> np.ndarray:
    """Resampling distribution for cache k given everyone else's requests.

    Mass r is spread uniformly over the copy set of cache k: the distinct
    files in its closed neighbourhood, i.e. its neighbours' current
    requests together with its own last request. The remaining 1 - r
    follows the base popularity. Keeping the cache's own file in the copy
    set gives requests the inertia seen in real traces; dropping it makes
    consensus form noticeably faster and leaves too few distinct files
    per demand vector. A cache with no neighbours (or r = 0) just samples
    the base law.
    """
    if not 1 <= k <= model.K:
        raise ValueError(f"cache index {k} out of range 1..{model.K}")
    if current.K != model.K:
        raise ValueError(f"demand vector has {current.K} requests, model has {model.K} caches")
    base = model.popularity
    if model.r == 0.0:
        return base.copy()
    row = model.adjacency[k - 1]
    files = {current.requests[j] for j in range(model.K) if row[j]}
    if not files:
        return base.copy()
    files.add(current.requests[k - 1])
    out = base * (1.0 - model.r)
    idx = np.fromiter(files, dtype=np.intp) - 1
    out[idx] += model.r / len(files)
    return out


def _draw_index(pmf: np.ndarray, u: float) -> int:
    """Inverse-CDF draw of a 1-based file index from the uniform u in [0, 1)."""
    cdf = np.cumsum(pmf)
    return int(min(np.searchsorted(cdf, u * cdf[-1], side="right"), len(pmf) - 1)) + 1


# Guard of the fast conditional draw.  With a = 1 - r and rho = r / s both
# paths use the same two floats, and the exact cdf of the mixture is
# M(i) = a * sum_{j<=i} base_j + rho * c(i), c(i) the copy-set files at
# indices <= i; M(N-1) <= 1.01, since the base law sums to 1 within
# PMF_TOL.  With eps = 2**-53 and gamma_n = n eps / (1 - n eps):
#   - the exact path rounds each pmf entry twice (gamma_2) and sums
#     sequentially in np.cumsum (gamma_i), so |cdf[i] - M(i)| <= gamma_{N+2} M(i);
#   - the fast path C(i) = a * B[i] + rho * c(i), B the base cumsum,
#     rounds the same number of times, so |C(i) - M(i)| <= gamma_{N+2} M(i);
#   - the scaled uniforms u * cdf[N-1] and u * C(N-1) then differ by at
#     most the sum of both bounds plus two roundings.
# The first two are below 1.02 (N + 2) eps each, so the error the guard
# must absorb, |cdf[i] - M(i)| + |C(i) - M(i)| + the uniforms' difference,
# is below 4.1 (N + 3) eps.  The guard, 10 (N + 3) eps, is more than twice
# that; the margin also covers the rounding of the guard comparisons, and
# underflow adds at most 2**-1074 per operation.  If the fast threshold
# lies more than the guard above C(i - 1) and below C(i), the exact path's
# cdf, which is non-decreasing, crosses its threshold between i - 1 and i
# as well, so both paths return i; the exact path's clamp to N - 1 never
# applies, since its cdf at i <= N - 1 exceeds its threshold.  The fast
# path bisects the acdf floats a * B[i] its guard reads and never divides
# by a, so no step needs a > 0: r = 1 (a = 0) is inside the proof.


def _uniforms(rng: np.random.Generator, n: int):
    """n uniforms from rng, taken BLOCK at a time.

    On PCG64, rng.random(n) yields the numbers of n scalar calls, so the
    blocks join into the stream one scalar call per draw would see, with
    at most one block in memory.
    """
    return chain.from_iterable(rng.random(min(BLOCK, n - i)).tolist()
                               for i in range(0, n, BLOCK))


def _chain(model: CorrelationModel, requests: list, uniforms, first: int = 0,
           out: np.ndarray | None = None, skip: int = 0) -> None:
    """Run the Gibbs chain in place on requests, one draw per uniform.

    Cache first + 1 draws first, then the caches follow in ascending order
    and wrap around, each from its conditional given the latest requests.
    Each time cache K has drawn, one sweep ends; the sweeps after the
    first `skip` are written to the rows of out, in order, while rows
    remain. A draw is _draw_index(conditional_pmf(...), u): it bisects
    the scaled base cdf per run of indices between copy-set files and
    keeps the index when the uniform clears the rounding guard on both
    sides; otherwise it takes the exact path.

    Each neighbourhood group's copy set lives in this call only: a
    request count per file and the sorted distinct files, with the
    sentinel N + 1 last, built from requests at the start. A draw that
    changes cache k's request updates the groups that contain k.
    """
    tables = model._tables
    cdf, acdf, mass, group, touch = tables.cdf, tables.acdf, tables.mass, tables.group, tables.touch
    top, guard = cdf[-1], tables.guard
    last, N1 = model.K - 1, len(cdf) - 1
    counts, copies = [], []
    for members in tables.members:
        count = {}
        for j in members:
            count[requests[j]] = count.get(requests[j], 0) + 1
        counts.append(count)
        copies.append(sorted(count) + [N1 + 2])
    row = -skip
    rows = 0 if out is None else out.shape[0]
    for u, k in zip(uniforms, chain(range(first, model.K), cycle(range(model.K)))):
        g = group[k]
        if g is None:
            requests[k] = min(bisect_right(cdf, u * top), N1) + 1
        else:
            files = copies[g]
            rt, total = mass[len(files) - 1]
            x = u * total
            i = None
            lo = t = 0
            # indices lo .. hi - 1 see t copy-set files; file f sits at index f - 1
            for hi in files:
                hi -= 1
                if lo < hi and acdf[hi - 1] + rt[t] > x:
                    i = bisect_right(acdf, x - rt[t], lo, hi - 1)
                    if not (acdf[i] + rt[t] - x > guard and (
                            i == 0 or x - (acdf[i - 1] + rt[t - (i == lo)]) > guard)):
                        i = None
                    break
                lo = hi
                t += 1
            if i is None:
                i = _draw_index(conditional_pmf(k + 1, DemandVector(tuple(requests)), model), u) - 1
            old, new = requests[k], i + 1
            if new != old:
                requests[k] = new
                for h in touch[k]:
                    count, files = counts[h], copies[h]
                    if count[old] == 1:
                        del count[old]
                        del files[bisect_left(files, old)]
                    else:
                        count[old] -= 1
                    if new in count:
                        count[new] += 1
                    else:
                        count[new] = 1
                        insort(files, new)
        if k == last:
            if 0 <= row < rows:
                out[row] = requests
            row += 1


def gibbs_sweep(current: DemandVector, model: CorrelationModel,
                rng: np.random.Generator) -> DemandVector:
    """Resample every cache once, in ascending index order.

    Each cache draws from its conditional given the latest values of all
    other coordinates, so updates within a sweep see the sweep's earlier
    redraws. Returns the new demand vector. This is the one-sweep case of
    the chain kernel that sample_chains runs: the same K uniforms, the
    same draws, bit for bit those of the exact path, conditional_pmf plus
    np.cumsum.
    """
    requests = list(current.requests)
    _chain(model, requests, _uniforms(rng, model.K))
    return DemandVector(tuple(requests))


def _sample(model: CorrelationModel, count: int, burn_in: int, seeds) -> np.ndarray:
    """One chain per seed, as the rows of a (len(seeds), count, K) int array.

    Each chain starts from K base-law draws, then runs burn_in sweeps and
    keeps the next count.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    out = np.empty((len(seeds), count, model.K), dtype=np.int64)
    for rows, seed in zip(out, seeds):
        rng = np.random.default_rng(seed)
        requests = [_draw_index(model.popularity, u) for u in rng.random(model.K).tolist()]
        _chain(model, requests, _uniforms(rng, (burn_in + count) * model.K), out=rows, skip=burn_in)
    return out


def sample_chains(model: CorrelationModel, chains: int, count: int, burn_in: int,
                  seed) -> np.ndarray:
    """Run several independent chains from spawned substreams of one seed.

    Returns a (chains, count, K) int array whose [i] holds chain i's
    demand vectors. Chain i draws from the i-th spawned SeedSequence, so
    its rows do not depend on the order the chains run in. Each chain
    starts from K base-popularity draws, discards burn_in sweeps and
    keeps the next count.
    """
    if chains < 1:
        raise ValueError("need at least one chain")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return _sample(model, count, burn_in, seed.spawn(chains))


def mean_request_index(samples) -> np.ndarray:
    """Scalar summary per demand vector: the mean requested file index.

    samples is a (..., K) int array, one demand vector per row; the
    result has one value per row, shape (...). This is the statistic the
    convergence diagnostic runs on; it folds all K coordinates into one
    number per sweep.
    """
    samples = np.asarray(samples)
    return samples.sum(axis=-1) / samples.shape[-1]


def epsr(chains) -> float:
    """Estimated potential scale reduction (R-hat) across parallel chains.

    chains is an m x T array of a scalar statistic, one row per chain.
    With W the mean within-chain sample variance and B/T the variance of
    the chain means, the pooled posterior variance estimate is
    V = ((T - 1) / T) W + B / T and R-hat is sqrt(V / W). Values near 1
    indicate the chains have forgotten their starting points. When every
    chain holds one value (e.g. at consensus) W is 0 and R-hat undefined,
    so the result is NaN.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2:
        raise ValueError("chains must be a 2-d array, one row per chain")
    m, T = arr.shape
    if m < 2 or T < 2:
        raise ValueError("need at least 2 chains and 2 samples per chain")
    if not np.ptp(arr, axis=1).any():
        return float("nan")
    within = float(np.mean(np.var(arr, axis=1, ddof=1)))
    means_var = float(np.var(np.mean(arr, axis=1), ddof=1))
    pooled = (T - 1) / T * within + means_var
    return float(np.sqrt(pooled / within))


@dataclass(frozen=True)
class DemandStats:
    """Pairwise correlation and redundancy summary of a sample set."""

    rho_max: float
    rho_avg: float
    L_avg: float
    dropped_pairs: int


def empirical_stats(samples) -> DemandStats:
    """Pearson correlations between caches plus the mean distinct-file count.

    samples is a (..., K) int array, one demand vector per row. The file
    index sequence of each cache is correlated against every other cache's
    sequence; rho_max and rho_avg summarise the unordered pairs. Pairs
    where either sequence is constant have no defined correlation and are
    excluded (counted in dropped_pairs); if every pair is, both are NaN.
    L_avg is the average number of distinct files per demand vector, the
    quantity that drives adaptive delivery gains.
    """
    samples = np.asarray(samples)
    rows = samples.reshape(-1, samples.shape[-1])
    if rows.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    K = rows.shape[1]
    L_avg = float(np.mean(distinct_counts(samples)))
    # one float row per cache, centred in place: at most it and centered**2
    # are alive at once
    centered = rows.T.astype(float)
    centered -= centered.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered**2).sum(axis=1))
    rhos = []
    dropped = 0
    for i in range(K):
        for j in range(i + 1, K):
            if scale[i] == 0.0 or scale[j] == 0.0:
                dropped += 1
                continue
            rhos.append(float(centered[i] @ centered[j] / (scale[i] * scale[j])))
    return DemandStats(
        rho_max=max(rhos, default=float("nan")),
        rho_avg=float(np.mean(rhos)) if rhos else float("nan"),
        L_avg=L_avg,
        dropped_pairs=dropped,
    )
