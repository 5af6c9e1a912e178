"""Correlated demand sampling: conditionals, chains, and diagnostics."""

import itertools
from dataclasses import astuple, fields, replace
from math import prod, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachecast import demand
from cachecast.bounds import average_bound
from cachecast.cli import main
from cachecast.core import (
    DemandVector,
    RedundancyPattern,
    redundancy_pattern,
    redundancy_patterns,
)
from cachecast.delivery import adaptive_plan, canonical_demand
from cachecast.demand import (
    BLOCK,
    CorrelationModel,
    DemandStats,
    _chain,
    _draw_index,
    _uniforms,
    complete_graph,
    conditional_pmf,
    empirical_stats,
    epsr,
    gibbs_sweep,
    load_edge_list,
    mean_request_index,
    sample_chains,
    zipf_pmf,
)
from cachecast.placement import centralized_profile
from oracles import (
    demand_vectors,
    iid_pattern_law,
    sample_demands,
    sequential_average_bound,
    set_distinct_counts,
    tuple_empirical_stats,
    tuple_mean_request_index,
)

CHI2_99_DF19 = 36.1909  # upper 1% point of chi-square with 19 degrees of freedom


def uniform_model(K, N, r, adjacency=None):
    adj = complete_graph(K) if adjacency is None else adjacency
    return CorrelationModel(adjacency=adj, r=r, popularity=zipf_pmf(N, 0.0))


def test_zipf_pmf_values():
    uni = zipf_pmf(7, 0.0)
    assert np.allclose(uni, np.full(7, 1 / 7))

    two = zipf_pmf(2, 1.0)
    assert two[0] == pytest.approx(2 / 3)
    assert two[1] == pytest.approx(1 / 3)

    big = zipf_pmf(1000, 0.75)
    assert big[0] / big[-1] == pytest.approx(177.8279410038923, rel=1e-12)
    assert np.all(np.diff(big) <= 0)
    assert big.sum() == pytest.approx(1.0)


def test_popularity_validation():
    with pytest.raises(ValueError):
        zipf_pmf(0, 1.0)
    with pytest.raises(ValueError):
        zipf_pmf(5, -0.2)
    with pytest.raises(ValueError, match="nonnegative"):
        zipf_pmf(5, float("nan"))
    good = complete_graph(2)
    model = CorrelationModel(adjacency=good, r=0.5, popularity=[0.25, 0.75])
    assert model.popularity.dtype == float and model.popularity.shape == (2,)
    for pmf, text in (([0.5, 0.4, 0.2], "sum to 1"),
                      ([0.5, 0.6, -0.1], "nonnegative"),
                      ([0.5, np.nan, 0.5], "finite"),
                      ([0.5, np.inf, -np.inf], "finite"),
                      ([np.nan] * 3, "finite"),
                      ([], "1-d"),
                      ([[0.5, 0.5]], "1-d"),
                      ([[0.5], [0.5]], "1-d")):
        with pytest.raises(ValueError, match=text):
            CorrelationModel(adjacency=good, r=0.5, popularity=np.array(pmf))


@pytest.mark.parametrize("call", [
    lambda: complete_graph(0),
    lambda: CorrelationModel(adjacency=np.zeros((0, 0), dtype=bool), r=0.5,
                             popularity=zipf_pmf(4, 0.0)),
], ids=["graph", "model"])
def test_no_caches_is_refused(call):
    with pytest.raises(ValueError, match="^need at least one cache$"):
        call()


def test_correlation_model_validation():
    pop = zipf_pmf(4, 0.0)
    good = complete_graph(3)
    CorrelationModel(adjacency=good, r=0.5, popularity=pop)

    loop = good.copy()
    loop[0, 0] = True
    with pytest.raises(ValueError):
        CorrelationModel(adjacency=loop, r=0.5, popularity=pop)

    lop = good.copy()
    lop[0, 1] = False
    with pytest.raises(ValueError):
        CorrelationModel(adjacency=lop, r=0.5, popularity=pop)

    with pytest.raises(ValueError):
        CorrelationModel(adjacency=good, r=1.2, popularity=pop)
    with pytest.raises(ValueError):
        CorrelationModel(adjacency=np.ones((2, 3), dtype=bool), r=0.5, popularity=pop)


def test_correlation_model_is_its_three_inputs():
    assert [f.name for f in fields(CorrelationModel)] == ["adjacency", "r", "popularity"]
    model = uniform_model(3, 4, 0.5)
    assert "_tables" not in vars(model)  # a model never sampled builds no tables
    tables = model._tables
    assert model._tables is tables and vars(model)["_tables"] is tables
    # a replaced input gets tables of its own, those of a model built anew
    quarter = replace(model, r=0.25)
    assert "_tables" not in vars(quarter)
    assert vars(quarter._tables) == vars(uniform_model(3, 4, 0.25)._tables)
    assert quarter._tables.acdf == [0.75 * c for c in quarter._tables.cdf]
    assert quarter._tables.mass[2] == ([0.0, 0.125, 0.25], 0.75 * quarter._tables.cdf[-1] + 0.25)
    assert replace(model, r=0.0)._tables.group == (None, None, None)
    assert model._tables is tables and tables.acdf == [0.5 * c for c in tables.cdf]


def test_conditional_pmf_basics():
    model = uniform_model(4, 10, 0.0)
    d = DemandVector((1, 2, 3, 4))
    out = conditional_pmf(1, d, model)
    assert np.allclose(out, model.popularity)
    out[0] = 99.0  # must be a copy, not a view into the model
    assert model.popularity[0] == pytest.approx(0.1)

    rng = np.random.default_rng(3)
    model = uniform_model(5, 12, 0.6)
    for _ in range(10):
        d = DemandVector(tuple(int(v) for v in rng.integers(1, 13, size=5)))
        for k in range(1, 6):
            pmf = conditional_pmf(k, d, model)
            assert np.all(pmf >= 0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_pmf_checks_its_arguments_first():
    # at r = 0 too, where the answer is the base law whatever the demand
    for r in (0.0, 0.6):
        model = uniform_model(3, 5, r)
        for k in (0, 4, 99):
            with pytest.raises(ValueError, match="out of range"):
                conditional_pmf(k, DemandVector((1, 2, 3)), model)
        for requests in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="requests, model has 3 caches"):
                conditional_pmf(1, DemandVector(requests), model)


def test_conditional_pmf_consensus_absorbs_at_full_copying():
    model = uniform_model(4, 10, 1.0)
    d = DemandVector((5, 5, 5, 5))
    for k in range(1, 5):
        pmf = conditional_pmf(k, d, model)
        assert pmf[4] == pytest.approx(1.0)
        assert pmf.sum() == pytest.approx(1.0)


def test_conditional_pmf_copy_set_includes_own_request():
    # cache 1 neighbours caches 2 and 3; its own request joins the copy set
    adj = np.zeros((4, 4), dtype=bool)
    for a, b in ((0, 1), (0, 2), (1, 3)):
        adj[a, b] = adj[b, a] = True
    model = uniform_model(4, 1000, 0.9, adjacency=adj)
    d = DemandVector((4, 2, 7, 9))
    pmf = conditional_pmf(1, d, model)
    member = 0.9 / 3 + 0.1 / 1000
    outsider = 0.1 / 1000
    for f in (2, 4, 7):
        assert pmf[f - 1] == pytest.approx(member, abs=1e-15)
    assert pmf[9 - 1] == pytest.approx(outsider, abs=1e-15)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_pmf_isolated_cache_uses_base_law():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True  # cache 3 has no neighbours
    model = uniform_model(3, 8, 0.9, adjacency=adj)
    pmf = conditional_pmf(3, DemandVector((1, 1, 5)), model)
    assert np.allclose(pmf, model.popularity)


def two_cache_consensus_probability(r, N):
    """Stationary probability both caches request the same file.

    With uniform popularity the sweep kernel collapses to a two state
    chain on {equal, unequal}. A cache whose copy set is a single file
    picks it with probability a = r + (1 - r)/N; a two file copy set
    gives each member b = r/2 + (1 - r)/N. Conditioning on the state
    before a sweep and following the two in-order redraws gives the
    transition probabilities below.
    """
    a = r + (1 - r) / N
    b = r / 2 + (1 - r) / N
    t_stay = a * a + (1 - a) * b
    t_enter = b * a + (1 - b) * b
    return t_enter / (1 - t_stay + t_enter)


def test_two_cache_stationary_consensus():
    cases = {(0.9, 20): 0.82727, (0.6, 7): 0.51020, (0.3, 15): 0.23137}
    for (r, N), frozen in cases.items():
        assert two_cache_consensus_probability(r, N) == pytest.approx(frozen, abs=5e-6)
        model = uniform_model(2, N, r)
        samples = sample_demands(model, count=40_000, burn_in=300, seed=2024)
        hit = np.mean(samples[:, 0] == samples[:, 1])
        assert hit == pytest.approx(two_cache_consensus_probability(r, N), abs=0.015), (r, N)


def test_three_cache_stationary_matches_exact_kernel():
    # exact stationary distribution of the sweep kernel on a small library
    N, K, r = 4, 3, 0.7
    model = uniform_model(K, N, r)
    states = list(itertools.product(range(1, N + 1), repeat=K))
    index = {s: i for i, s in enumerate(states)}
    kernel = np.eye(len(states))
    for k in range(1, K + 1):
        step = np.zeros((len(states), len(states)))
        for s in states:
            pmf = conditional_pmf(k, DemandVector(s), model)
            for f in range(1, N + 1):
                t = list(s)
                t[k - 1] = f
                step[index[s], index[tuple(t)]] = pmf[f - 1]
        kernel = kernel @ step
    # power iteration to the stationary row vector
    pi = np.full(len(states), 1 / len(states))
    for _ in range(400):
        pi = pi @ kernel
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    exact_L = float(sum(p * len(set(s)) for p, s in zip(pi, states)))

    samples = sample_demands(model, count=30_000, burn_in=300, seed=11)
    sim_L = np.mean([len(set(row)) for row in samples.tolist()])
    assert sim_L == pytest.approx(exact_L, abs=0.025)


def test_sampling_is_deterministic_per_seed():
    model = uniform_model(4, 30, 0.5)
    a = sample_demands(model, count=50, burn_in=20, seed=9)
    b = sample_demands(model, count=50, burn_in=20, seed=9)
    assert a.shape == (50, 4) and a.dtype == np.int64
    assert np.array_equal(a, b)
    c = sample_demands(model, count=50, burn_in=20, seed=10)
    assert not np.array_equal(a, c)
    # the copy sets a chain keeps belong to that chain alone: a sweep run
    # between two runs of the same chains leaves no trace in the model
    first = sample_chains(model, chains=3, count=50, burn_in=20, seed=9)
    gibbs_sweep(DemandVector((1, 1, 2, 3)), model, np.random.default_rng(0))
    assert np.array_equal(sample_chains(model, chains=3, count=50, burn_in=20, seed=9), first)
    tables = model._tables
    for table in (tables.group, tables.members, tables.touch):
        assert isinstance(table, tuple)
    assert all(isinstance(t, tuple) for t in tables.members + tables.touch)


def test_sample_chains_spawns_independent_streams():
    model = uniform_model(3, 25, 0.4)
    chains = sample_chains(model, chains=3, count=40, burn_in=10, seed=7)
    assert chains.shape == (3, 40, 3) and chains.dtype == np.int64
    assert not np.array_equal(chains[0], chains[1])
    again = sample_chains(model, chains=3, count=40, burn_in=10, seed=7)
    assert np.array_equal(chains, again)
    # chain i is sample_demands on the i-th spawned substream
    child = np.random.SeedSequence(7).spawn(3)[2]
    assert np.array_equal(chains[2], sample_demands(model, count=40, burn_in=10, seed=child))


def test_independent_draws_pass_chi_square():
    # r = 0 must reduce to iid draws from the base popularity
    model = uniform_model(4, 20, 0.0)
    samples = sample_demands(model, count=3000, burn_in=0, seed=123)
    draws = samples.ravel()
    observed = np.bincount(draws, minlength=21)[1:]
    expected = len(draws) / 20
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_99_DF19


def test_iid_pattern_law_matches_enumeration():
    rng = np.random.default_rng(7)
    partition_counts = {3: 3, 4: 5}
    for K, N in [(3, 4), (4, 3), (4, 5)]:
        pmf = rng.random(N)
        pmf /= pmf.sum()
        want = {}
        for d in itertools.product(range(1, N + 1), repeat=K):
            key = redundancy_pattern(DemandVector(d)).counts
            want[key] = want.get(key, 0.0) + prod(pmf[f - 1] for f in d)
        law = iid_pattern_law(K, pmf)
        assert len(law) == partition_counts[K]
        for parts, P in law.items():
            if len(parts) > N:
                assert P == 0.0 and parts not in want
            else:
                assert abs(P - want[parts]) <= 1e-12, (K, N, parts)


@pytest.mark.parametrize("theta", [0.0, 1.2])
def test_iid_samples_follow_the_exact_pattern_law(theta, tmp_path):
    # at r = 0 every request is an independent base-law draw, so the
    # 5 x 1000 demand vectors are i.i.d. and each statistic below has an
    # exact mean and variance; every bound is 4 standard deviations
    K, N, n = 8, 1000, 5000
    pmf = zipf_pmf(N, theta)
    law = iid_pattern_law(K, pmf)
    P = np.array(list(law.values()))
    samples = sample_chains(CorrelationModel(complete_graph(K), 0.0, pmf), 5, 1000, 150, 0)
    patterns, inverse = redundancy_patterns(samples)
    seen = dict(zip((p.counts for p in patterns), np.bincount(inverse).tolist()))
    checked = 0
    for parts, p in law.items():
        if n * p >= 20:
            assert abs(seen.get(parts, 0) - n * p) <= 4 * sqrt(n * p * (1 - p)), parts
            checked += 1
    assert checked >= 2

    def within_4_se(observed, values, slack=0.0):
        mean = P @ values
        return abs(observed - mean) <= 4 * sqrt(P @ (values - mean) ** 2 / n) + slack

    assert within_4_se(empirical_stats(samples).L_avg, np.array([len(q) for q in law]))
    # the same samples through simulate; its CSV prints 12 significant digits
    assert main(["simulate", "--K", str(K), "--N", str(N), "--r", "0", "--theta", str(theta),
                 "--chains", "5", "--samples", "1000", "--burn-in", "150", "--seed", "0",
                 "--m-ratio", "0.25", "--delivery", "adaptive",
                 "--out", str(tmp_path / "sim")]) == 0
    row = (tmp_path / "sim_rates.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "adaptive"
    profile = centralized_profile(K, 0.25)
    rates = np.array([adaptive_plan(profile, canonical_demand(RedundancyPattern(q)))[1]
                      for q in law])
    assert within_4_se(float(row[4]), rates, slack=1e-9)


def test_redundancy_grows_with_copy_probability():
    weak = uniform_model(6, 50, 0.35)
    strong = uniform_model(6, 50, 0.9)
    L_weak = empirical_stats(sample_demands(weak, 4000, 200, seed=5)).L_avg
    L_strong = empirical_stats(sample_demands(strong, 4000, 200, seed=5)).L_avg
    assert L_strong < L_weak - 0.3


def test_chain_bookkeeping():
    model = uniform_model(3, 10, 0.5)
    start = DemandVector((1, 2, 3))
    after = gibbs_sweep(start, model, np.random.default_rng(0))
    assert start.requests == (1, 2, 3) and after.K == 3
    assert all(1 <= f <= 10 for f in after.requests)
    # one sweep per sample after the burn-in: a shorter burn-in returns
    # the same chain's earlier sweeps, and the count is exact
    chain = sample_demands(model, count=7, burn_in=0, seed=1)
    assert len(chain) == 7
    assert np.array_equal(sample_demands(model, count=5, burn_in=2, seed=1), chain[2:])
    assert np.array_equal(sample_demands(model, count=1, burn_in=6, seed=1), chain[6:])

    with pytest.raises(ValueError):
        sample_demands(model, count=0, burn_in=5, seed=1)
    with pytest.raises(ValueError):
        sample_demands(model, count=5, burn_in=-1, seed=1)
    with pytest.raises(ValueError):
        sample_chains(model, chains=0, count=5, burn_in=1, seed=1)
    with pytest.raises(ValueError):
        sample_chains(model, chains=2, count=0, burn_in=1, seed=1)


def test_batched_uniforms_equal_scalar_draws():
    # the chain kernel takes its uniforms BLOCK at a time; the stream must
    # be the one scalar calls would see, also after scalar draws
    for seed in (0, 1, 2024):
        for size in (1, 2, 6, 8):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert batched.random(size).tolist() == [scalar.random() for _ in range(size)]
                assert batched.random() == scalar.random()
    child = np.random.SeedSequence(7).spawn(3)[2]
    for n in (1000, BLOCK, BLOCK + 1, 2 * BLOCK + 5):
        batched, scalar = np.random.default_rng(child), np.random.default_rng(child)
        assert batched.random(8).tolist() == [scalar.random() for _ in range(8)]
        assert list(_uniforms(batched, n)) == [scalar.random() for _ in range(n)]
        assert batched.random() == scalar.random()
    # at K = 3 the chain's block boundaries fall inside sweeps: the first
    # after the K base draws and BLOCK // 3 sweeps, with BLOCK % 3 caches drawn
    assert BLOCK % 3
    model = uniform_model(3, 50, 0.7)
    count = (2 * BLOCK) // 3 + 20
    got = sample_demands(model, count=count, burn_in=0, seed=5)
    assert np.array_equal(got, reference_sample(model, count=count, burn_in=0, seed=5))


def test_chain_uniforms_come_in_lazy_bounded_blocks(monkeypatch):
    sizes = []

    class Recorder:
        def random(self, n):
            sizes.append(n)
            return np.full(n, 0.5)

    us = _uniforms(Recorder(), 3 * BLOCK + 7)
    assert sizes == []  # nothing is drawn before it is needed
    next(us)
    assert sizes == [BLOCK]
    for _ in range(BLOCK):
        next(us)
    assert sizes == [BLOCK, BLOCK]
    assert sum(1 for _ in us) == 2 * BLOCK + 6
    assert sizes == [BLOCK, BLOCK, BLOCK, 7]

    # a chain draws all its sweeps' uniforms through one such stream
    streams = []

    def spy(rng, n):
        streams.append(n)
        return _uniforms(rng, n)

    monkeypatch.setattr(demand, "_uniforms", spy)
    sample_demands(uniform_model(3, 10, 0.5), count=3000, burn_in=5, seed=1)
    assert streams == [3005 * 3]


def reference_sample(model, count, burn_in, seed):
    """The sampler as specified: one scalar uniform per cache, inverted on
    np.cumsum(conditional_pmf(...)), and a DemandVector per draw; the last
    count sweeps as a (count, K) array."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    current = DemandVector(tuple(_draw_index(model.popularity, rng.random())
                                 for _ in range(model.K)))
    history = [current]
    for _ in range(burn_in + count):
        requests = list(current.requests)
        for k in range(1, model.K + 1):
            pmf = conditional_pmf(k, DemandVector(tuple(requests)), model)
            requests[k - 1] = _draw_index(pmf, rng.random())
        current = DemandVector(tuple(requests))
        history.append(current)
    return np.array([d.requests for d in history[-count:]])


def test_sampler_matches_reference_sweep():
    star = np.zeros((6, 6), dtype=bool)
    star[0, 1:4] = star[1:4, 0] = True  # caches 5 and 6 are isolated
    cases = [(complete_graph(8), 1000, r, theta)
             for r, theta in ((0.7, 0.0), (0.9, 0.0), (0.9, 0.75), (0.5, 1.2),
                              (0.0, 0.0), (1.0, 0.5), (0.99, 0.3))]
    path = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        path[a, b] = path[b, a] = True  # cache 5 is isolated
    cases += [(star, 40, 0.8, 2.0), (complete_graph(3), 3, 0.6, 0.0), (complete_graph(4), 1, 0.5, 0.0)]
    cases += [(complete_graph(1), 30, 0.8, 0.5), (path, 25, 0.6, 0.75), (path, 25, 1.0, 0.0)]
    # caches that share a closed neighbourhood share one copy set, and
    # others do not; with N in {2, 3} the copy sets empty and refill often
    triangles = np.zeros((6, 6), dtype=bool)
    triangles[:3, :3] = triangles[3:, 3:] = complete_graph(3)
    k4_less = complete_graph(4)
    k4_less[0, 1] = k4_less[1, 0] = False  # caches 3 and 4 see every cache, 1 and 2 do not
    cases += [(g, N, r, theta) for g in (triangles, k4_less) for N in (2, 3, 40)
              for r, theta in ((0.7, 0.0), (0.9, 1.2), (1.0, 0.0))]
    for adj, N, r, theta in cases:
        model = CorrelationModel(adjacency=adj, r=r, popularity=zipf_pmf(N, theta))
        got = sample_demands(model, count=150, burn_in=30, seed=31)
        want = reference_sample(model, count=150, burn_in=30, seed=31)
        assert np.array_equal(got, want), (adj.shape[0], N, r, theta)
    pop = zipf_pmf(2, 0.0)
    assert CorrelationModel(adjacency=triangles, r=0.5, popularity=pop)._tables.group \
        == (0, 0, 0, 1, 1, 1)
    assert CorrelationModel(adjacency=k4_less, r=0.5, popularity=pop)._tables.group \
        == (0, 1, 2, 2)


def test_full_copying_never_falls_back():
    # at r = 1 the base law has no mass and the copy sets carry it all;
    # the draws still bisect the scaled base cdf, and no uniform of this
    # seeded chain lies within the rounding guard of a cdf step
    model = CorrelationModel(adjacency=complete_graph(8), r=1.0, popularity=zipf_pmf(1000, 0.0))
    want = reference_sample(model, count=200, burn_in=50, seed=7)
    with mock.patch.object(demand, "conditional_pmf", wraps=conditional_pmf) as spy:
        got = sample_demands(model, count=200, burn_in=50, seed=7)
    assert np.array_equal(got, want)
    assert spy.call_count == 0


def draw_graph(draw, K):
    """A random symmetric K x K adjacency with one cache cut off, or none."""
    adj = np.zeros((K, K), dtype=bool)
    for a, b in itertools.combinations(range(K), 2):
        adj[a, b] = adj[b, a] = draw(st.booleans())
    lonely = draw(st.integers(0, K))  # cut every edge of this cache (0: none)
    if lonely:
        adj[lonely - 1, :] = adj[:, lonely - 1] = False
    return adj


@st.composite
def chain_cases(draw):
    K = draw(st.integers(1, 6))
    adj = draw_graph(draw, K)
    N = draw(st.sampled_from([1, 2, 3, 7, 200]))
    r = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    theta = draw(st.sampled_from([0.0, 0.75]))
    return CorrelationModel(adjacency=adj, r=r, popularity=zipf_pmf(N, theta)), draw(st.integers(0, 99))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain_cases())
def test_sampler_matches_reference_on_random_graphs(case):
    model, seed = case
    got = sample_demands(model, count=40, burn_in=5, seed=seed)
    assert np.array_equal(got, reference_sample(model, count=40, burn_in=5, seed=seed))


@st.composite
def draw_cases(draw):
    K = draw(st.integers(1, 6))
    N = draw(st.sampled_from(sorted({1, 2, K, 1000})))
    adj = draw_graph(draw, K)
    r = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-9, 1 - 1e-9)))
    theta = draw(st.sampled_from([0.0, 0.75, 2.0]))
    requests = draw(st.lists(st.integers(1, N), min_size=K, max_size=K))
    uniforms = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4))
    spots = draw(st.lists(st.integers(0, N - 1), max_size=4))
    model = CorrelationModel(adjacency=adj, r=r, popularity=zipf_pmf(N, theta))
    return model, requests, uniforms, spots


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(draw_cases())
def test_fast_draw_matches_exact_path(case):
    model, requests, uniforms, spots = case
    for k in range(1, model.K + 1):
        pmf = conditional_pmf(k, DemandVector(tuple(requests)), model)
        cdf = np.cumsum(pmf)
        # uniforms that put the exact path's threshold on (or next to) a
        # cdf step: near the copy-set files, the ends, and random spots
        steps = {0, model.popularity.shape[0] - 2} | set(spots)
        for f in set(requests):
            steps |= {f - 2, f - 1, f}
        edge = set()
        for i in steps:
            if 0 <= i < model.popularity.shape[0] - 1:
                U = float(cdf[i] / cdf[-1])
                edge |= {U, float(np.nextafter(U, 0.0)), float(np.nextafter(U, 1.0))}
        edge = sorted(u for u in edge if u < 1.0)
        isolated = not model.adjacency[k - 1].any()
        for U in uniforms + edge:
            # the chain kernel, started at cache k with these requests and
            # one uniform, draws once and leaves the other caches alone
            drawn = list(requests)
            with mock.patch.object(demand, "conditional_pmf", wraps=conditional_pmf) as spy:
                _chain(model, drawn, [U], first=k - 1)
            assert drawn[:k - 1] + drawn[k:] == requests[:k - 1] + requests[k:]
            assert drawn[k - 1] == _draw_index(pmf, U), (k, U)
            if model.r == 0.0 or isolated:
                assert spy.call_count == 0  # the base cdf itself, no fallback
            elif U in edge:
                # within the rounding guard of a cdf step: the fallback must
                # decide, or the check above proves nothing there
                assert spy.call_count == 1, (k, U)


def test_mean_request_index():
    samples = np.array([[1, 3, 5], [2, 2, 2]])
    assert mean_request_index(samples).tolist() == [3.0, 2.0]
    assert mean_request_index(np.stack([samples, samples[::-1]])).tolist() == [[3.0, 2.0], [2.0, 3.0]]


def test_epsr_oracle_and_invariance():
    identical = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert epsr(identical) == pytest.approx(0.816496580927726, abs=1e-12)

    rng = np.random.default_rng(42)
    X = rng.normal(size=(4, 50))
    assert epsr(3.5 * X - 2.0) == pytest.approx(epsr(X), rel=1e-12)

    # every chain constant: zero within-chain variance leaves R-hat
    # undefined, whatever rounding np.var does on the constant
    assert np.isnan(epsr(np.ones((3, 10))))
    for shape in ((2, 3), (3, 10), (2, 1000)):
        assert np.isnan(epsr(np.full(shape, 0.1)))
    with pytest.raises(ValueError):
        epsr(np.arange(5.0))  # not 2-d
    with pytest.raises(ValueError):
        epsr(np.array([[1.0, 2.0]]))  # single chain


def test_empirical_stats_hand_case():
    samples = np.array([[1, 1, 2], [2, 2, 2], [3, 3, 2], [4, 4, 2]])
    stats = empirical_stats(samples)
    assert isinstance(stats, DemandStats)
    assert stats.rho_max == pytest.approx(1.0)
    assert stats.rho_avg == pytest.approx(1.0)
    assert stats.dropped_pairs == 2  # cache 3 is constant
    assert stats.L_avg == pytest.approx((2 + 1 + 2 + 2) / 4)

    with pytest.raises(ValueError):
        empirical_stats(np.array([[1, 2]]))
    # every pair constant: the correlations are undefined, not an error
    stats = empirical_stats(np.array([[1, 1], [1, 1]]))
    assert np.isnan(stats.rho_max) and np.isnan(stats.rho_avg)
    assert stats.dropped_pairs == 1 and stats.L_avg == 1.0


@st.composite
def sample_arrays(draw):
    """(chains, T, K) int arrays with many repeats: K = 2 and up, constant
    columns (pairs the statistics drop) and rows of one file."""
    K = draw(st.integers(2, 6))
    chains, T = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    N = draw(st.sampled_from([1, 2, 3, 9, 1000]))
    arr = np.array(draw(st.lists(st.integers(1, N), min_size=chains * T * K,
                                 max_size=chains * T * K))).reshape(chains, T, K)
    for k in draw(st.lists(st.integers(0, K - 1), max_size=K)):
        arr[..., k] = draw(st.integers(1, N))
    for row in draw(st.lists(st.integers(0, chains * T - 1), max_size=4)):
        arr.reshape(-1, K)[row] = draw(st.integers(1, N))
    return arr


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sample_arrays(), st.sampled_from([0.0, 0.075, 0.3, 1.0]))
def test_array_summaries_equal_per_vector_oracles(arr, m):
    chains, T, K = arr.shape
    N = 1000
    flat = arr.reshape(-1, K)
    demands = demand_vectors(flat)
    patterns, inverse = redundancy_patterns(flat)
    assert [patterns[i] for i in inverse] == [redundancy_pattern(d) for d in demands]
    assert len(set(patterns)) == len(patterns)
    assert (np.array([p.L for p in patterns])[inverse] == set_distinct_counts(demands)).all()
    assert average_bound(flat, N, m * N, K) == sequential_average_bound(demands, N, m * N, K)
    assert average_bound(arr, N, m * N, K) == sequential_average_bound(demands, N, m * N, K)
    stat = mean_request_index(arr)
    want = np.array([tuple_mean_request_index(demand_vectors(chain)) for chain in arr])
    assert stat.tolist() == want.tolist()
    if chains >= 2 and T >= 2 and np.var(stat, axis=1, ddof=1).mean() > 0:
        assert epsr(stat) == epsr(want)
    if flat.shape[0] < 2:
        return
    want_stats = astuple(tuple_empirical_stats(demands))
    for got in (empirical_stats(flat), empirical_stats(arr)):
        # exactly equal, NaN (every pair constant) included
        assert np.array_equal(astuple(got), want_stats, equal_nan=True)


def test_load_edge_list(tmp_path):
    path = tmp_path / "ring.txt"
    path.write_text("# three cache ring\n1 2\n2,3\n3 1  # closing edge\n\n")
    adj = load_edge_list(path, 3)
    assert adj.shape == (3, 3)
    assert np.array_equal(adj, complete_graph(3))
    # caches the list never names have no edges
    adj = load_edge_list(path, 5)
    assert adj.shape == (5, 5)
    assert np.array_equal(adj[:3, :3], complete_graph(3)) and not adj[3:].any()
    with pytest.raises(ValueError, match="ring.txt:3: edge list names cache 3 but K=2"):
        load_edge_list(path, 2)

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_edge_list(bad, 3)

    bad.write_text("0 2\n")
    with pytest.raises(ValueError, match="1-based"):
        load_edge_list(bad, 3)

    bad.write_text("2 2\n")
    with pytest.raises(ValueError, match="self-loop"):
        load_edge_list(bad, 3)

    bad.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no edges"):
        load_edge_list(bad, 3)
