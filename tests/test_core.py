"""Domain types and combinatorial helpers, and the package's public names."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import cachecast
import cachecast.core as core
from cachecast import delivery
from cachecast.core import (
    DemandVector,
    RedundancyPattern,
    distinct_counts,
    partitions_into_parts,
    redundancy_pattern,
    redundancy_patterns,
)


def test_demand_vector():
    d = DemandVector((2, 1, 2, 5))
    assert d.K == 4
    with pytest.raises(ValueError):
        DemandVector(())
    with pytest.raises(ValueError):
        DemandVector((1, 0, 2))


def test_redundancy_pattern():
    p = RedundancyPattern((3, 2, 2, 1))
    assert p.K == 8
    assert p.L == 4
    assert str(p) == "3-2-2-1"
    with pytest.raises(ValueError):
        RedundancyPattern((2, 3))  # must be non-increasing
    with pytest.raises(ValueError):
        RedundancyPattern((2, 0))


def test_redundancy_pattern_of_demand():
    pattern = redundancy_pattern(DemandVector((4, 1, 4, 4, 1, 7)))
    assert pattern.counts == (3, 2, 1)
    assert pattern.L == 3

    pattern = redundancy_pattern(DemandVector((5, 5, 5)))
    assert pattern.counts == (3,)
    assert pattern.L == 1


def test_redundancy_patterns_of_sample_rows():
    rows = np.array([[4, 1, 4, 4, 1, 7], [5, 5, 5, 5, 5, 5], [1, 4, 1, 4, 4, 9], [1, 2, 3, 4, 5, 6]])
    patterns, inverse = redundancy_patterns(rows)
    assert [p.counts for p in patterns] == [(3, 2, 1), (6,), (1, 1, 1, 1, 1, 1)]
    assert inverse.tolist() == [0, 1, 0, 2]
    assert distinct_counts(rows).tolist() == [3, 1, 3, 6]
    # any leading shape: rows in C order
    patterns, inverse = redundancy_patterns(rows.reshape(2, 2, 6))
    assert inverse.tolist() == [0, 1, 0, 2]
    assert distinct_counts(rows.reshape(2, 2, 6)).tolist() == [[3, 1], [3, 6]]


def test_redundancy_patterns_in_blocks_match_one_block(monkeypatch):
    # rows are keyed a block at a time; blocks of 3 over 20 rows, with
    # patterns first seen on either side of a boundary, keep the order
    # of first appearance and every index
    rows = np.random.default_rng(5).integers(1, 5, size=(20, 4))
    whole = redundancy_patterns(rows)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 3)
    patterns, inverse = redundancy_patterns(rows)
    assert patterns == whole[0] and len(patterns) >= 4
    assert inverse.dtype == whole[1].dtype and inverse.tolist() == whole[1].tolist()
    assert redundancy_patterns(rows[:0])[1].shape == (0,)


def test_distinct_counts_in_blocks_match_one_block(monkeypatch):
    # rows are counted a block at a time into one array of the input's
    # leading shape; blocks of 3 split every input below but the last two
    rows = np.random.default_rng(5).integers(1, 5, size=(20, 4))
    inputs = [rows, rows[:6].reshape(2, 2, 6), rows[7], rows[:0]]
    whole = [distinct_counts(a) for a in inputs]
    monkeypatch.setattr(core, "_BLOCK_ROWS", 3)
    for a, want in zip(inputs, whole):
        got = distinct_counts(a)
        assert got.dtype == np.intp and got.shape == a.shape[:-1]
        assert np.array_equal(got, want)
    assert whole[2].shape == () and whole[3].shape == (0,)


@pytest.mark.parametrize("call, message", [
    (lambda: RedundancyPattern(()), "pattern needs at least one part"),
    (lambda: partitions_into_parts(0, 1), "partitions_into_parts needs K, L >= 1"),
    (lambda: partitions_into_parts(3, 0), "partitions_into_parts needs K, L >= 1"),
])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_partitions_into_parts_enumeration():
    nine_three = [p.counts for p in partitions_into_parts(9, 3)]
    assert nine_three == [
        (7, 1, 1),
        (6, 2, 1),
        (5, 3, 1),
        (5, 2, 2),
        (4, 4, 1),
        (4, 3, 2),
        (3, 3, 3),
    ]
    assert partitions_into_parts(2, 3) == []  # more parts than units


def test_partitions_into_parts_counts():
    # partition numbers p(K, L) for spot checks
    for K, L, expect in ((8, 1, 1), (8, 8, 1), (8, 4, 5), (10, 5, 7), (6, 3, 3)):
        got = partitions_into_parts(K, L)
        assert len(got) == expect
        for p in got:
            assert sum(p.counts) == K
            assert p.L == L


def test_partitions_total_matches_partition_function():
    # sum over L of p(K, L) equals the partition number p(K)
    totals = {5: 7, 7: 15, 9: 30}
    for K, pk in totals.items():
        assert sum(len(partitions_into_parts(K, L)) for L in range(1, K + 1)) == pk


def test_public_names_are_pinned():
    # what the CLI and the paper's experiments need, and nothing kept
    # only for tests
    assert sorted(cachecast.__all__) == [
        "CorrelationModel", "DecodeError", "DemandStats", "DemandVector",
        "LpNumericalError", "Message", "MessageSchedule", "PartitionMap",
        "PlacementProfile", "RedundancyPattern", "TransferPlan",
        "adaptive_plan", "average_bound", "build_messages",
        "canonical_demand", "centralized_profile", "complete_graph",
        "cutset_bound", "decentralized_profile", "decode",
        "empirical_stats", "epsr", "gap_reduction",
        "load_edge_list", "materialize_partition", "mean_request_index",
        "partitions_into_parts", "rate_nonadaptive", "rate_of_schedule",
        "redundancy_pattern", "redundancy_patterns", "sample_chains",
        "simplified_plan", "solve_placement_lp", "transfer_cutoff",
        "zipf_pmf",
    ]
    assert all(hasattr(cachecast, name) for name in cachecast.__all__)


def test_package_api_is_the_union_of_module_lists():
    # each module declares its share once; the package adds no name of its
    # own, and names a module keeps for its siblings and tests stay out
    modules = {m: importlib.import_module(f"cachecast.{m}")
               for m in ("bounds", "core", "delivery", "demand", "lp", "placement")}
    shares = [name for mod in modules.values() for name in mod.__all__]
    assert sorted(shares) == cachecast.__all__
    assert len(set(shares)) == len(shares)
    internal = {"lp": ("LinearProgram", "LpSolution", "solve"),
                "demand": ("gibbs_sweep", "conditional_pmf"), "placement": ("apportion",)}
    for m, names in internal.items():
        for name in names:
            assert hasattr(modules[m], name) and not hasattr(cachecast, name), name


def test_traced_names_stay_plain_functions():
    # perfbench's tracer wraps these attributes from outside and refuses
    # anything but a plain function, so a src/ change that turns one into
    # a class, a partial or a bound method breaks every traced benchmark
    # run; TransferPlan must stay a class for _plan_accessor's isinstance
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert inspect.isfunction(inspect.getattr_static(owner, attr)), (owner, attr, name)
    assert isinstance(inspect.getattr_static(delivery, "TransferPlan"), type)
