"""Reference implementations shared by several test modules."""

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from cachecast.bounds import cutset_bound
from cachecast.core import DemandVector, partitions_into_parts
from cachecast.demand import DemandStats, _sample
from cachecast.lp import FEAS_TOL, LinearProgram


def peak_rate_centralized(K: int, m_ratio: float) -> float:
    """Worst-case rate of the coordinated placement at integer t = K * m_ratio."""
    t = K * m_ratio
    if abs(t - round(t)) > 1e-9:
        raise ValueError("centralized peak-rate formula needs integer K * m_ratio")
    return K * (1.0 - m_ratio) / (1.0 + K * m_ratio)


def peak_rate_decentralized(K: int, m_ratio: float) -> float:
    """Worst-case rate of the uncoordinated placement; K in the q -> 0 limit."""
    q = m_ratio
    if q == 0.0:
        return float(K)
    return K * (1.0 - q) * (1.0 - (1.0 - q) ** K) / (K * q)


def split_cost(ks, a) -> Fraction:
    """t(a) = sum_i a_i / (k_i - a_i + 1), exactly: what a coded message
    with a_i members in requester group i (of size k_i) costs when its
    pieces go uncoded instead, as piece (i, a - e_i) serves the
    k_i - a_i + 1 members of group i outside its subset."""
    return sum((Fraction(ai, k - ai + 1) for k, ai in zip(ks, a)), Fraction(0))


@functools.cache
def _sent(ks: tuple, a: tuple) -> bool:
    return split_cost(ks, a) >= 1


def adaptive_coefficients(ks) -> list[Fraction]:
    """Exact coefficients of the adaptive rate, sum_s x_s coeff[s] over
    subset sizes s = 0..K, for requester group sizes ks.

    A coded message to s + 1 caches with a_j members in group j, one of
    prod_j C(k_j, a_j) such messages, is either sent (cost 1) or its pieces
    go uncoded (cost ``split_cost``).  Each message costs the cheaper of
    the two.
    """
    coeff = [Fraction(0)] * (sum(ks) + 1)
    for a in itertools.product(*(range(k + 1) for k in ks)):
        if any(a):
            coeff[sum(a) - 1] += (prod(comb(k, ai) for k, ai in zip(ks, a))
                                  * min(Fraction(1), split_cost(ks, a)))
    return coeff


def coefficient_states(ks) -> list[dict]:
    """The state tables of the DP form of adaptive_coefficients, one per
    prefix of the requester groups, in order (the empty prefix first).

    A state (n, t) is n members taken from the groups so far with partial
    split cost t capped at 1, and it holds the number of member choices
    that reach it, prod_j C(k_j, a_j).  A group only adds to t, so the
    min(1, t(a)) of a whole message depends on its capped prefix sums
    alone.
    """
    tables = [{(0, Fraction(0)): 1}]
    for k in ks:
        nxt = {}
        for (n, t), w in tables[-1].items():
            for ai in range(k + 1):
                key = (n + ai, min(Fraction(1), t + Fraction(ai, k - ai + 1)))
                nxt[key] = nxt.get(key, 0) + w * comb(k, ai)
        tables.append(nxt)
    return tables


def adaptive_coefficients_dp(ks) -> list[Fraction]:
    """adaptive_coefficients by the DP over the requester groups: a
    message of n members adds (choices) * min(1, t) to coeff[n - 1]."""
    coeff = [Fraction(0)] * (sum(ks) + 1)
    for (n, t), w in coefficient_states(ks)[-1].items():
        if n:
            coeff[n - 1] += w * t
    return coeff


def adaptive_kept(x, requests, file) -> list[float]:
    """The adaptive plan's kept fractions of file over masks 0..2^K - 1,
    mask by mask: the piece at mask S keeps x_|S| if no message uses it
    (every requester of file is in S) or its message orbit, the
    composition of S plus the piece's own requester, has split_cost >= 1;
    otherwise it keeps 0.  Mask 0 keeps x_0 plus, over sizes s ascending,
    the number of moved masks of size s times x_s.  x is a list of floats.
    """
    K = len(requests)
    groups = sorted(set(requests))
    ks = [requests.count(n) for n in groups]
    gmasks = [sum(1 << k for k, r in enumerate(requests) if r == n) for n in groups]
    kept = [0.0] * (1 << K)
    if file not in groups:
        return kept
    i = groups.index(file)
    moved = [0] * (K + 1)
    for mask in range(1, 1 << K):
        a = [(mask & g).bit_count() for g in gmasks]
        a[i] += 1
        size = mask.bit_count()
        if a[i] > ks[i] or _sent(tuple(ks), tuple(a)):
            kept[mask] = x[size]
        else:
            moved[size] += 1
    kept[0] = x[0]
    for s in range(1, K + 1):
        kept[0] += moved[s] * x[s]
    return kept


def iid_pattern_law(K: int, pmf) -> dict[tuple, float]:
    """P(pattern) of K i.i.d. requests from pmf, for every partition of K.

    A pattern (l_1, .., l_L) has probability K! / prod_i l_i! times the
    monomial symmetric sum over distinct-file assignments of its parts,
    sum prod_i pmf[f_i] ** l_i.  The sum is a DP over files whose state is
    the multiset of parts not yet placed: each file takes no part or one
    part of a value still left, so every assignment is counted once.  A
    pattern with more parts than files has probability 0.
    """
    pmf = np.asarray(pmf, dtype=float).tolist()
    law = {}
    for L in range(1, K + 1):
        for pattern in partitions_into_parts(K, L):
            parts = pattern.counts
            states = {parts: 1.0}
            for p in pmf:
                nxt = dict(states)
                for left, w in states.items():
                    for v in set(left):
                        i = left.index(v)
                        rest = left[:i] + left[i + 1:]
                        nxt[rest] = nxt.get(rest, 0.0) + w * p**v
                states = nxt
            law[parts] = (factorial(K) / prod(factorial(v) for v in parts)
                          * states.get((), 0.0))
    return law


def sample_demands(model, count: int, burn_in: int, seed) -> np.ndarray:
    """One Gibbs chain's count post-burn-in demand vectors, as a (count, K)
    int array: the stream sample_chains runs for each spawned seed.  seed
    may be an integer or a SeedSequence."""
    return _sample(model, count, burn_in, [seed])[0]


def pieces(pm, file: int) -> list[np.ndarray]:
    """Per mask 0..2^K-1, the ascending indices of the symbols of file
    that pm stores exactly at that cache subset."""
    row = pm.holder[file - 1]
    order = np.argsort(row, kind="stable")
    ends = np.cumsum(np.bincount(row, minlength=1 << pm.K)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def stored_symbols(pm, cache: int) -> int:
    """How many symbols, over all files, pm stores at cache."""
    return int(np.count_nonzero(pm.holder & (1 << (cache - 1))))


def hand_reduced(lp):
    """lp without fixed variables, emptied rows and implied singleton
    inequality rows, or None if an emptied row is violated."""
    fixed = lp.lo == lp.hi
    free = ~fixed
    lo, hi = lp.lo[free], lp.hi[free]
    rows = {"E": [], "f": [], "A": [], "b": []}
    for kind, M, rhs in (("E", lp.E, lp.f), ("A", lp.A, lp.b)):
        for row, r in zip(M, rhs):
            r = r - row[fixed] @ lp.lo[fixed]
            live = row[free]
            nz = np.flatnonzero(live)
            if nz.size == 0:
                if (abs(r) if kind == "E" else -r) > FEAS_TOL:
                    return None
                continue
            if kind == "A" and nz.size == 1:
                a = live[nz[0]]
                if a * (hi[nz[0]] if a > 0 else lo[nz[0]]) <= r:
                    continue
            rows[kind].append(live)
            rows["f" if kind == "E" else "b"].append(r)
    k = int(free.sum())
    E = np.array(rows["E"], dtype=float).reshape(len(rows["E"]), k)
    A = np.array(rows["A"], dtype=float).reshape(len(rows["A"]), k)
    return LinearProgram(c=lp.c[free], E=E, f=rows["f"], A=A, b=rows["b"], lo=lo, hi=hi)


# Per-demand-vector summaries of a sample set, as the library computed them
# before it summarised int arrays; the array versions must equal them exactly.

def demand_vectors(samples) -> list[DemandVector]:
    """The rows of a (..., K) int array as demand vectors."""
    samples = np.asarray(samples)
    return [DemandVector(tuple(row)) for row in samples.reshape(-1, samples.shape[-1]).tolist()]


def set_distinct_counts(demands) -> list[int]:
    return [len(set(d.requests)) for d in demands]


def sequential_average_bound(demands, N: int, M: float, K: int) -> float:
    """Mean cut-set bound, summed one demand at a time from 0.0."""
    total = 0.0
    for L in set_distinct_counts(demands):
        total += cutset_bound(K, L, N, M)
    return total / len(demands)


def tuple_mean_request_index(demands) -> np.ndarray:
    return np.array([sum(d.requests) / d.K for d in demands], dtype=float)


def tuple_empirical_stats(demands) -> DemandStats:
    """Pearson correlations between caches and L_avg, from request tuples."""
    X = np.array([d.requests for d in demands], dtype=float).T
    K = X.shape[0]
    centered = X - X.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered**2).sum(axis=1))
    rhos = []
    dropped = 0
    for i in range(K):
        for j in range(i + 1, K):
            if scale[i] == 0.0 or scale[j] == 0.0:
                dropped += 1
                continue
            rhos.append(float(centered[i] @ centered[j] / (scale[i] * scale[j])))
    nan = float("nan")  # every pair constant: no correlation is defined
    return DemandStats(rho_max=max(rhos) if rhos else nan,
                       rho_avg=float(np.mean(rhos)) if rhos else nan,
                       L_avg=float(np.mean(set_distinct_counts(demands))), dropped_pairs=dropped)
