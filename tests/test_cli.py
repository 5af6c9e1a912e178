"""Command-line interface: subcommands, config handling, and exit codes."""

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import itertools
import json
import shlex
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cachecast.cli as cli
import cachecast.core as core
from cachecast import delivery
from cachecast.bounds import average_bound, cutset_bound, gap_reduction
from cachecast.cli import (
    ConfigError,
    ScenarioConfig,
    main,
    parse_m_ratio,
    run_scenario,
)
from cachecast.core import DemandVector
from cachecast.demand import CorrelationModel, complete_graph, sample_chains, zipf_pmf
from cachecast.lp import LpNumericalError, solve
from cachecast.placement import PartitionMap, centralized_profile, materialize_partition

ROOT = Path(__file__).resolve().parent.parent


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_gap_reduction_examples():
    assert gap_reduction(3.225, 3.0, 2.775) == pytest.approx(0.5)
    assert gap_reduction(2.0, 2.0, 1.5) == pytest.approx(0.0)
    assert gap_reduction(2.0, 1.5, 1.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gap_reduction(1.5, 1.0, 1.5)
    with pytest.raises(ValueError):
        gap_reduction(1.0, 0.5, 1.5)


def test_parse_m_ratio():
    assert parse_m_ratio("0.3") == [0.3]
    assert parse_m_ratio("0.1:0.1:0.5") == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert parse_m_ratio("0.2:0.5:0.2") == [0.2]
    with pytest.raises(ConfigError):
        parse_m_ratio("0.1:0.5")
    with pytest.raises(ConfigError):
        parse_m_ratio("0.1:0:0.5")
    for text in ("0,1", "a:b:c"):
        with pytest.raises(ConfigError, match="m_ratio:.*start:step:end"):
            parse_m_ratio(text)
    with pytest.raises(ConfigError, match="m_ratio: empty grid"):
        parse_m_ratio("0.5:0.1:0.2")


def test_parse_m_ratio_refuses_non_finite_grids(tmp_path, capsys, monkeypatch):
    # a NaN or infinite step ended the grid after its first point
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--K", "3", "--m-ratio", "0:nan:1", "--pattern", "2,1", "--out", out]) == 1
    assert "m_ratio:" in capsys.readouterr().err
    # an infinite end or start never ended it; past 10,000 points the
    # grid fails here instead of growing until memory runs out
    points = itertools.count()

    def bounded_round(value, digits):
        assert next(points) < 10_000, "the grid never ends"
        return round(value, digits)

    monkeypatch.setattr(cli, "round", bounded_round, raising=False)
    for text in ("nan:0.1:1", "0:inf:1", "0:0.1:inf", "-inf:0.1:1"):
        with pytest.raises(ConfigError, match="m_ratio:.*finite"):
            parse_m_ratio(text)


def test_negative_seed_is_refused(tmp_path, capsys):
    # numpy refused it with a bare message in simulate and verify, and
    # sweep, which draws nothing, ran
    for command in ("sweep", "simulate", "verify"):
        assert main([command, "--K", "3", "--N", "30", "--m-ratio", "0.2", "--seed", "-1",
                     "--out", str(tmp_path / command)]) == 1
        assert "seed: must be nonnegative" in capsys.readouterr().err


def test_scenario_validation_aggregates_field_errors():
    cfg = ScenarioConfig(K=0, m_ratio=[1.5], delivery=("warp",), jobs=0)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    text = str(exc.value)
    for field in ("K:", "m_ratio:", "delivery:", "jobs:"):
        assert field in text

    cfg = ScenarioConfig(K=4, N=2, m_ratio=[0.5], pattern=(2, 2), jobs=0)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert "N: must be at least K=4" in str(exc.value)
    assert "jobs:" in str(exc.value)

    cfg = ScenarioConfig(K=3, m_ratio=[0.2], pattern=(2, 2))
    with pytest.raises(ConfigError, match="sum to K"):
        cfg.validate()

    cfg = ScenarioConfig(K=3, m_ratio=[0.2], demands=(1, 2))
    with pytest.raises(ConfigError, match="expected 3 entries"):
        cfg.validate()

    cfg = ScenarioConfig(K=20, m_ratio=[0.2], pattern=tuple([1] * 20))
    with pytest.raises(ConfigError, match="adaptive delivery requires"):
        run_scenario(cfg, "rate")


@pytest.mark.parametrize("change, message", [
    ({"N": 0}, "N: must be at least 1"),
    ({"m_ratio": []}, "m_ratio: required"),
    ({"placement": "sideways"}, "placement: must be one of centralized/decentralized/lp"),
    ({"delivery": ()}, "delivery: need at least one scheme"),
    ({"demands": (1, 31, 2)}, "demands: file indices must lie in 1..30"),
    ({"pattern": (3, 0)}, "pattern: counts must be positive"),
    ({"r": 1.5}, "r: must lie in [0, 1]"),
    ({"chains": 0}, "chains: must be at least 1"),
    ({"burn_in": -1}, "burn_in: must be nonnegative"),
    ({"samples": 0}, "samples: must be at least 1"),
    ({"F": 0}, "F: must be at least 1"),
])
def test_validation_names_the_field(change, message):
    cfg = ScenarioConfig(**{"K": 3, "N": 30, "m_ratio": [0.2], **change})
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert str(exc.value) == message


def test_run_scenario_refuses_an_unknown_command():
    with pytest.raises(ConfigError, match="^command: unknown subcommand warp$"):
        run_scenario(ScenarioConfig(K=3, m_ratio=[0.2]), "warp")


def test_every_config_field_has_a_flag():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    want = {f.name for f in fields(ScenarioConfig)}
    for name, parser in sub.choices.items():
        assert {a.dest for a in parser._actions} - {"help", "config"} == want, name

    # the flags, their conversions and their help as the command line has
    # always had them, read off ScenarioConfig's fields
    assert list(sub.choices) == list(cli._COMMANDS)
    assert [a.help for a in sub._choices_actions] == [
        "cache-content profiles over an m-ratio grid",
        "delivery rates for one demand vector or pattern", "cutset lower bounds",
        "rate curves over an m-ratio grid", "Gibbs-sampled correlated demands and average rates",
        "bit-level build/decode round-trip"]
    ints = {"K", "N", "chains", "burn_in", "samples", "seed", "F", "jobs"}
    helps = {"m_ratio": "value or start:step:end grid",
             "placement": "centralized/decentralized/lp",
             "delivery": "comma-separated subset of nonadaptive,simplified,adaptive",
             "demands": "comma-separated requested file indices",
             "pattern": "comma-separated distinct-file request counts",
             "graph": "complete, or path to an edge-list file",
             "out": "output CSV path (simulate: path prefix)",
             "jobs": "must be 1: grid points run serially"}
    for parser in sub.choices.values():
        flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
        for dest, action in flags.items():
            assert action.option_strings == ["--" + dest.replace("_", "-")]
            kind = int if dest in ints else float if dest in ("r", "theta") else None
            assert action.type is kind, dest
            assert action.help == helps.get(dest) and action.choices is None, dest
            assert action.default is None, dest


@pytest.mark.parametrize("source", ["flag", "json"])
def test_placement_is_checked_by_validate_alone(tmp_path, capsys, source):
    # a flag and a config file get the same message for the same bad value
    if source == "flag":
        args = ["--K", "3", "--m-ratio", "0.2", "--placement", "sideways"]
    else:
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"K": 3, "m_ratio": 0.2, "placement": "sideways"}))
        args = ["--config", str(conf)]
    assert main(["sweep", *args]) == 1
    assert capsys.readouterr().err == (
        "error: placement: must be one of centralized/decentralized/lp\n")


def _documented_command_lines(source):
    """The cachecast argument lists of README's "Command line" section, or
    of every perfbench workload job at each of its program seeds."""
    if source == "README":
        text = (ROOT / "README.md").read_text()
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        return [shlex.split(line)[1:] for line in section.replace("\\\n", " ").splitlines()
                if line.startswith("cachecast ")]
    run = _perfbench_run()
    return [argv for w in run.WORKLOADS.values() for seed in range(run.SEED_POOL)
            for argv in w.argvs(run.program_seed(w, seed))]


@functools.cache
def _perfbench_run():
    """perfbench/run.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    return run


@pytest.mark.parametrize("source", ["README", "perfbench"])
def test_documented_command_lines_parse_and_validate(source):
    # parsed and validated, not run, so a CLI change that breaks one of
    # them fails here and not first in the benchmark or a reader's shell
    argvs = _documented_command_lines(source)
    assert len(argvs) >= (6 if source == "README" else 3)
    for argv in argvs:
        args = cli._build_parser().parse_args(argv)
        assert args.command in cli._COMMANDS
        cli._config_from_args(args).validate()


BENCH_REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("workload, seed", [
    (name, seed) for name, digests in BENCH_REFERENCE.items() if isinstance(digests, dict)
    for seed in digests])
def test_benchmark_outputs_match_reference(workload, seed, tmp_path, monkeypatch):
    # every benchmark job, run in-process as perfbench runs it in a child
    # (stderr to call{i}.err), must reproduce its recorded output digest
    # and pass its workload's output checks
    run = _perfbench_run()
    w = run.WORKLOADS[workload]
    monkeypatch.chdir(tmp_path)
    for i, argv in enumerate(w.argvs(None if seed == "None" else int(seed))):
        with open(tmp_path / f"call{i}.err", "w") as err, contextlib.redirect_stderr(err):
            assert main(argv) == 0, argv
    assert run.output_digest(tmp_path, w.outputs) == BENCH_REFERENCE[workload][seed]
    if w.check is not None:
        assert w.check(tmp_path) == []


def test_placement_subcommand_writes_profile(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(["placement", "--K", "5", "--m-ratio", "0.2", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["scheme", "K", "m_ratio", "x_0", "x_1", "x_2", "x_3", "x_4", "x_5"]
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "centralized"
    assert float(row["x_1"]) == pytest.approx(0.2)
    for s in (0, 2, 3, 4, 5):
        assert float(row[f"x_{s}"]) == pytest.approx(0.0)


def test_placement_to_stdout(capsys):
    assert main(["placement", "--K", "2", "--m-ratio", "0.5"]) == 0
    outp = capsys.readouterr().out
    assert outp.splitlines()[0] == "scheme,K,m_ratio,x_0,x_1,x_2"


def test_rate_subcommand_orders_schemes(tmp_path):
    out = tmp_path / "rate.csv"
    code = main(["rate", "--K", "3", "--N", "30", "--demands", "1,1,2",
                 "--m-ratio", "0.25", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == list(cli.RATE_HEADER)
    by_scheme = {row["scheme"]: row for row in rows}
    assert set(by_scheme) == {"nonadaptive", "simplified", "adaptive"}
    r_na = float(by_scheme["nonadaptive"]["rate"])
    r_sp = float(by_scheme["simplified"]["rate"])
    r_ad = float(by_scheme["adaptive"]["rate"])
    assert r_ad <= r_sp + 1e-9 <= r_na + 2e-9
    expect_bound = cutset_bound(3, 2, 30, 0.25 * 30)
    assert float(rows[0]["bound"]) == pytest.approx(expect_bound)
    assert rows[0]["L"] == "2"
    gap = float(by_scheme["adaptive"]["gap_reduction"])
    assert gap == pytest.approx((r_na - r_ad) / (r_na - expect_bound))


def test_rate_requires_demands_or_pattern(capsys):
    assert main(["rate", "--K", "3", "--m-ratio", "0.2"]) == 1
    assert "demands" in capsys.readouterr().err


def test_sweep_reruns_are_byte_identical(tmp_path):
    a, b = (tmp_path / name for name in ("a.csv", "b.csv"))
    args = ["sweep", "--K", "4", "--N", "40", "--m-ratio", "0.1:0.2:0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = read_csv(a)
    # 3 grid points x L in 1..4 x 3 schemes, pattern-averaged
    assert len(rows) == 36
    assert all(row["pattern"] == "avg" for row in rows)


def test_jobs_other_than_one_is_refused(tmp_path, capsys):
    args = ["sweep", "--K", "3", "--N", "30", "--m-ratio", "0.2"]
    assert main(args + ["--jobs", "2"]) == 1
    assert "jobs:" in capsys.readouterr().err
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"K": 3, "N": 30, "m_ratio": 0.2, "jobs": 2}))
    assert main(["sweep", "--config", str(conf)]) == 1
    assert "jobs:" in capsys.readouterr().err
    assert main(args + ["--jobs", "1"]) == 0


def test_sweep_bytes_are_pinned(tmp_path):
    # Non-integer t (K m = 0.8 and 3.2), where the adaptive LP carries
    # fixed variables that adaptive_plan drops. The digest was recorded at
    # commit 27d3f24, before any LP reduction, so last-ulp drift in the
    # planner fails here.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--K", "8", "--N", "1000", "--m-ratio", "0.1:0.3:0.4",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9d389f6d3a618d9c7ca9cfb2ba1e96f5d95c8c818e21477ed9ba93630f90ce24")


def test_sweep_pivot_count_is_pinned(tmp_path, monkeypatch):
    # The CSV bytes can survive a change of simplex path; the pivot count
    # over the same sweep's 44 adaptive LPs, recorded at commit 41317ce,
    # pins the path itself.
    iterations = []

    def counting(lp):
        sol = solve(lp)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(delivery, "solve", counting)
    assert main(["sweep", "--K", "8", "--N", "1000", "--m-ratio", "0.1:0.3:0.4",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(iterations) == 44
    assert sum(iterations) == 1236


def test_decentralized_sweep_bytes_and_pivots_are_pinned(tmp_path, monkeypatch):
    # Decentralized placement keeps every size class, so the LPs are larger:
    # two of their simplex phases run 536 iterations, where no phase of the
    # centralized sweep above runs more than 82. The digest and the
    # iteration count were recorded at commit d3263bb, before the simplex
    # loop went sparse.
    iterations = []

    def counting(lp):
        sol = solve(lp)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(delivery, "solve", counting)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--K", "10", "--N", "1000", "--m-ratio", "0.1:0.3:0.4",
                 "--placement", "decentralized", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "520b2d6d83d72e10960e8a135e262714c673bcba3ec3cc47abaa89889cd40c58")
    assert len(iterations) == 84
    assert sum(iterations) == 18246


def test_sweep_with_pattern_column(tmp_path):
    out = tmp_path / "pat.csv"
    assert main(["sweep", "--K", "4", "--N", "40", "--pattern", "2,2",
                 "--m-ratio", "0.3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    assert all(row["pattern"] == "2-2" for row in rows)
    assert all(row["L"] == "2" for row in rows)


def test_sweep_writes_only_the_schemes_asked_for(tmp_path):
    # in SCHEMES order, whatever the order of --delivery
    out = tmp_path / "sub.csv"
    assert main(["sweep", "--K", "4", "--N", "40", "--m-ratio", "0.1:0.2:0.3",
                 "--delivery", "adaptive,nonadaptive", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row["scheme"] for row in rows] == ["nonadaptive", "adaptive"] * 2 * 4


def test_gap_cell_is_blank_where_the_bound_meets_the_nonadaptive_rate(tmp_path):
    # at m_ratio 0 every scheme sends L whole files, at 1 nothing, and in
    # both the bound is the nonadaptive rate; integer grid points print as given
    out = tmp_path / "edges.csv"
    run_scenario(ScenarioConfig(K=3, N=30, m_ratio=[0, 1], pattern=(2, 1), out=str(out)), "sweep")
    _, rows = read_csv(out)
    assert [(row["m_ratio"], row["rate"], row["bound"]) for row in rows] == (
        [("0", "2", "2")] * 3 + [("1", "0", "0")] * 3)
    assert all(row["gap_reduction"] == "" for row in rows)


def test_sweep_and_rate_agree_on_one_pattern(tmp_path):
    # sweep reads --demands as rate does, not as a request for the average
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    common = ["--K", "3", "--N", "30", "--m-ratio", "0.1:0.2:0.5"]
    for out, flags in zip(outs, (["sweep", "--demands", "1,1,2"], ["sweep", "--pattern", "2,1"],
                                 ["rate", "--demands", "1,1,2"])):
        assert main(flags + common + ["--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    _, rows = read_csv(outs[0])
    assert len(rows) == 9 and all(row["pattern"] == "2-1" for row in rows)


def test_adaptive_cap_binds_only_commands_that_plan_delivery(tmp_path, capsys):
    grid = ["--K", "13", "--N", "500", "--m-ratio", "0.1"]
    assert main(["bound", *grid, "--out", str(tmp_path / "b.csv")]) == 0
    assert main(["placement", *grid, "--out", str(tmp_path / "p.csv")]) == 0
    _, rows = read_csv(tmp_path / "b.csv")
    assert [row["L"] for row in rows] == [str(L) for L in range(1, 14)]
    capsys.readouterr()
    for command, extra in (("rate", ["--pattern", "13"]), ("sweep", []),
                           ("simulate", ["--out", str(tmp_path / "sim")]),
                           ("verify", ["--F", "100"])):
        assert main([command, *grid, *extra]) == 1
        assert "K: adaptive delivery requires K <= 12" in capsys.readouterr().err
    # simulate refuses before it samples
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "p.csv"]


def test_verify_beyond_the_subset_cap_is_a_K_error(tmp_path, capsys):
    # no adaptive scheme, so only the bit-level cap applies
    out = tmp_path / "v.txt"
    assert main(["verify", "--K", "13", "--N", "50", "--m-ratio", "0.1", "--F", "100",
                 "--delivery", "nonadaptive", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: K: ") and "K <= 12" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, field", [
    ("simulate", ["--demands", "1,1,2"], "demands"),
    ("simulate", ["--pattern", "2,1"], "pattern"),
    ("placement", ["--demands", "1,1,2"], "demands"),
    ("placement", ["--pattern", "2,1"], "pattern"),
    ("verify", ["--pattern", "2,1"], "pattern"),
])
def test_demand_flags_a_command_ignores_are_refused(tmp_path, capsys, command, flags, field):
    assert main([command, "--K", "3", "--N", "30", "--m-ratio", "0.2", "--F", "50",
                 *flags, "--out", str(tmp_path / "x")]) == 1
    assert f"error: {field}: {command}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bound_subcommand(tmp_path):
    out = tmp_path / "bound.csv"
    assert main(["bound", "--K", "4", "--N", "50", "--m-ratio", "0.1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row["L"] for row in rows] == ["1", "2", "3", "4"]
    assert all(row["scheme"] == "bound" for row in rows)
    assert float(rows[1]["rate"]) == pytest.approx(1.6)
    assert rows[0]["gap_reduction"] == ""


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "K": 3, "N": 30, "m_ratio": 0.2, "placement": "decentralized",
    }))
    out = tmp_path / "prof.csv"
    assert main(["placement", "--config", str(cfg_path),
                 "--placement", "centralized", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0]["scheme"] == "centralized"
    assert rows[0]["K"] == "3"

    cfg_path.write_text(json.dumps({"K": 3, "m_ratio": 0.2, "warp_drive": True}))
    assert main(["placement", "--config", str(cfg_path)]) == 1


def test_config_file_rejects_demand_mode(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"K": 3, "m_ratio": 0.2, "demand_mode": "gibbs"}))
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert "unknown field demand_mode" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "config: cannot read {path}: "),
    ('{"K": 3,', "config: invalid JSON: "),
    ("[3, 0.2]", "config: top-level JSON value must be an object\n"),
], ids=["unreadable", "invalid", "not-an-object"])
def test_config_file_errors(tmp_path, capsys, content, message):
    conf = tmp_path / "c.json"
    if content is not None:
        conf.write_text(content)
    assert main(["sweep", "--config", str(conf)]) == 1
    assert capsys.readouterr().err.startswith("error: " + message.format(path=conf))


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["sweep", "--m-ratio", "0.2"]) == 1  # K missing
    assert "K: required" in capsys.readouterr().err
    assert main(["bogus"]) == 1
    assert main(["sweep", "--K", "3", "--m-ratio", "0.2", "--placement", "sideways"]) == 1
    assert main(["sweep", "--K", "3", "--m-ratio", "1.7"]) == 1
    assert main(["rate", "--K", "3", "--m-ratio", "0.2", "--demands", "1,x,2"]) == 1
    capsys.readouterr()
    assert main(["rate", "--K", "4", "--N", "2", "--pattern", "2,2", "--m-ratio", "0.5"]) == 1
    assert "N: must be at least K=4" in capsys.readouterr().err
    assert main(["sweep", "--K", "3", "--m-ratio", "0,1"]) == 1
    assert "start:step:end" in capsys.readouterr().err
    # wrongly typed JSON fields are field errors, not tracebacks
    conf = tmp_path / "c.json"
    for raw, where in (({"K": 3, "m_ratio": 0.2, "demands": 5}, ["demands: expected a list"]),
                       ({"K": "3", "m_ratio": 0.2, "demands": [1, 2, 2]}, ["K: expected an integer"]),
                       ({"K": 3, "m_ratio": [0.2, "x"], "pattern": [2, 1.5], "r": True},
                        ["m_ratio: expected", "pattern: expected", "r: expected a number"])):
        conf.write_text(json.dumps(raw))
        assert main(["rate", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(w in err for w in where), err
    # a scheme listed twice, and demands given together with a pattern
    assert main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5", "--F", "100",
                 "--delivery", "adaptive,adaptive"]) == 1
    assert "delivery: scheme adaptive listed twice" in capsys.readouterr().err
    for command in ("rate", "bound"):
        assert main([command, "--K", "3", "--m-ratio", "0.2", "--demands", "1,1,2",
                     "--pattern", "1,1,1"]) == 1
        assert "pattern: give demands or pattern, not both" in capsys.readouterr().err


def test_simulate_rejects_too_few_caches_or_samples(tmp_path, capsys):
    prefix = str(tmp_path / "sim")
    for flags, field in ((["--K", "1", "--N", "5"], "K: simulate"),
                         (["--K", "3", "--chains", "2", "--samples", "1"], "samples: simulate")):
        assert main(["simulate", *flags, "--m-ratio", "0.2", "--out", prefix]) == 1
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_numerical_failure_exits_two(tmp_path, monkeypatch):
    def explode(K, m):
        raise LpNumericalError("synthetic pivot breakdown")

    monkeypatch.setattr(cli, "solve_placement_lp", explode)
    code = main(["placement", "--K", "3", "--m-ratio", "0.5",
                 "--placement", "lp", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_verify_round_trip_passes(tmp_path):
    report = tmp_path / "verify.txt"
    code = main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5",
                 "--F", "1000", "--demands", "1,2", "--out", str(report)])
    assert code == 0
    text = report.read_text()
    assert text.strip().endswith("PASS")
    assert "nonadaptive demand (1, 2)" in text


def test_verify_defaults_to_twenty_spot_checks(tmp_path):
    report = tmp_path / "verify.txt"
    code = main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5",
                 "--F", "500", "--seed", "3", "--out", str(report)])
    assert code == 0
    lines = report.read_text().strip().split("\n")
    assert lines[-1] == "PASS"
    assert len(lines) == 20 * 3 + 1  # 20 demands x 3 schemes, then the verdict


def test_verify_default_holds_through_run_scenario(tmp_path, monkeypatch):
    # A config built in code gets verify's 20 demands too, not simulate's
    # 1000 samples: run_scenario and main write the same report
    api, flags = tmp_path / "api.txt", tmp_path / "flags.txt"
    run_scenario(ScenarioConfig(K=3, N=6, m_ratio=[0.3], F=50, out=str(api)), "verify")
    assert main(["verify", "--K", "3", "--N", "6", "--m-ratio", "0.3", "--F", "50",
                 "--out", str(flags)]) == 0
    assert api.read_bytes() == flags.read_bytes()
    assert len(api.read_text().splitlines()) == 20 * 3 + 1

    # simulate keeps its 1000 samples per chain on both paths
    class Sampled(Exception):
        pass

    def stop(model, chains, count, burn_in, seed):
        raise Sampled(count)

    monkeypatch.setattr(cli, "sample_chains", stop)
    for run in (lambda: run_scenario(ScenarioConfig(K=3, N=6, m_ratio=[0.3]), "simulate"),
                lambda: main(["simulate", "--K", "3", "--N", "6", "--m-ratio", "0.3"])):
        with pytest.raises(Sampled) as exc:
            run()
        assert exc.value.args == (1000,)


@pytest.mark.parametrize("flags, digest, builds", [
    (["--K", "6", "--N", "10", "--m-ratio", "0.35", "--F", "500",
      "--placement", "centralized", "--seed", "0"],
     "754eb68c11fe7c56ea8401c6553e1677f46ef735b79aefbf81620cf80951f425", 20),
    (["--K", "5", "--N", "8", "--m-ratio", "0.3", "--F", "20", "--placement", "lp", "--seed", "1"],
     "9e9e55a5401580b948b7d2c5ae0ac6830c02b52506fe14988cc9e40fea3e4e4d", 22),
    (["--K", "4", "--N", "6", "--m-ratio", "0.3", "--F", "3",
      "--placement", "decentralized", "--seed", "2"],
     "cf7c2fc9cd3eea0464d905cb62311b790d5168e4c90a9a44e7ab169ca4d48268", 20),
], ids=["centralized", "lp", "decentralized"])
def test_verify_bytes_are_pinned(tmp_path, monkeypatch, flags, digest, builds):
    # Twenty demands under all three schemes per placement, with F from
    # well above 2^K down to F < 2^K. The digests were recorded at commit
    # 8f8e186, so a plan or schedule change that moves one symbol fails here.
    # The build counts pin, summed over the demands, how many of each
    # demand's three plans are distinct: an adaptive plan that moves
    # nothing is the profile's, bit for bit, and shares its schedule.
    built = []
    build = cli.build_messages

    def counting_build(pm, plan, d):
        built.append(d)
        return build(pm, plan, d)

    monkeypatch.setattr(cli, "build_messages", counting_build)
    report = tmp_path / "verify.txt"
    assert main(["verify", *flags, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert len(built) == builds


def test_verify_requires_symbol_count(capsys):
    assert main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5"]) == 1
    assert "F:" in capsys.readouterr().err


def test_verify_decode_failure_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "decode", lambda *a, **k: np.zeros(1, dtype=np.uint8))
    report = tmp_path / "verify.txt"
    code = main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5",
                 "--F", "200", "--demands", "1,2", "--out", str(report)])
    assert code == 3
    assert "FAIL:" in report.read_text()
    assert "verification failed" in capsys.readouterr().err
    # five padding symbols also fail message 3's length and the rate slack
    # (5/200 > 3/200); the three schemes share one schedule here, yet each
    # reports its own failures under its own label, in the order message
    # lengths, decodes by cache, rate slack
    exact = cli.build_messages

    def padded(pm, plan, d):
        schedule = exact(pm, plan, d)
        msg = schedule.coded[3]
        msg.payload = np.concatenate([msg.payload, np.zeros(5, dtype=np.uint8)])
        return schedule

    monkeypatch.setattr(cli, "build_messages", padded)
    assert main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5",
                 "--F", "200", "--demands", "1,2", "--out", str(report)]) == 3
    lines = report.read_text().splitlines()
    assert lines[3:] == ["FAIL:"] + [
        f"{scheme} demand (1, 2): {text}" for scheme in cli.SCHEMES for text in (
            "coded message 3 has 105 symbols vs analytic 100",
            "cache 1 reconstructed wrong bits",
            "cache 2 reconstructed wrong bits",
            "schedule rate 0.525 vs analytic 0.5 exceeds slack 0.015")]


def test_verify_checks_each_message_length(tmp_path, monkeypatch):
    # At F=3 the total-rate slack (2^K - K - 1 + L) / F = 1 exceeds the rate
    # itself, so only a per-message check sees one coded message padded by
    # a symbol; decoding ignores the padding.
    exact = cli.build_messages

    def padded(pm, plan, d):
        schedule = exact(pm, plan, d)
        msg = schedule.coded[3]
        msg.payload = np.concatenate([msg.payload, np.zeros(1, dtype=np.uint8)])
        return schedule

    monkeypatch.setattr(cli, "build_messages", padded)
    report = tmp_path / "verify.txt"
    code = main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5",
                 "--F", "3", "--demands", "1,2", "--out", str(report)])
    assert code == 3
    text = report.read_text()
    # all three schemes keep the same fractions at L = K = 2, so they
    # share the padded schedule, and each reports it
    for scheme in cli.SCHEMES:
        assert f"{scheme} demand (1, 2): coded message 3 has 3 symbols vs analytic 1.5" in text
    assert "exceeds slack" not in text


def test_message_check_reads_each_uncoded_part():
    # three symbols too many in file 1's uncoded part; the plan's cost,
    # x_1 for the one coded message, does not see the schedule
    prof = centralized_profile(2, 0.5)
    d = DemandVector((1, 2))
    schedule = cli.build_messages(materialize_partition(prof, 4, 200, 0), prof.fractions, d)
    payload, idx = schedule.uncoded[1]
    schedule.uncoded[1] = (np.concatenate([payload, np.zeros(3, dtype=np.uint8)]),
                           np.concatenate([idx, np.arange(3)]))
    kept = delivery._plan_accessor(prof.fractions, d, 2)
    assert cli._message_failures(schedule, {1: kept(1), 2: kept(2)}) == (
        0.5, ["uncoded part of file 1 has 3 symbols vs analytic 0"])


def test_verify_certifies_each_plan_cost_at_any_F(tmp_path, monkeypatch):
    # at F=3 < 2^K the rate slack (2^K - K - 1 + L) / F exceeds every rate,
    # so only the plan's cost sees an analytic rate one file too high
    exact = cli.adaptive_plan

    def inflated(profile, d):
        plan, rate = exact(profile, d)
        return plan, rate + 1.0

    monkeypatch.setattr(cli, "adaptive_plan", inflated)
    report = tmp_path / "verify.txt"
    assert main(["verify", "--K", "4", "--N", "6", "--m-ratio", "0.3", "--F", "3",
                 "--placement", "decentralized", "--seed", "2", "--out", str(report)]) == 3
    lines = report.read_text().splitlines()
    failures = lines[lines.index("FAIL:") + 1:]
    assert len(failures) == 20
    assert failures[0] == "adaptive demand (6, 2, 1, 2): plan cost 1.533 vs analytic 2.533"
    for line in failures:
        label, text = line.split(": ")
        cost, analytic = (float(v) for v in text.split()[2::3])
        assert label.startswith("adaptive demand ") and analytic - cost == pytest.approx(1.0)


def test_verify_refuses_an_m_ratio_grid(tmp_path, capsys):
    # verify runs one placement; a grid used to verify its first point only
    report = tmp_path / "verify.txt"
    args = ["verify", "--K", "2", "--N", "4", "--F", "100", "--out", str(report)]
    assert main([*args, "--m-ratio", "0.1:0.1:0.3"]) == 1
    assert "m_ratio: verify checks one point, got a grid of 3" in capsys.readouterr().err
    assert not report.exists()
    assert main([*args, "--m-ratio", "0.5:0.1:0.5"]) == 0  # a one-point grid runs


def _kept_fractions(plan, d):
    kept = delivery._plan_accessor(plan, d, d.K)
    return [kept(n) for n in sorted(set(d.requests))]


def _same_plan(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("flags, shared", [
    # L = K: every scheme keeps the profile's fractions
    (["--K", "4", "--m-ratio", "0.5", "--demands", "1,2,3,4"], [1]),
    # L = 2 < K/2: the three schemes keep three different plans
    (["--K", "5", "--m-ratio", "0.3", "--demands", "1,1,1,1,2"], [3]),
    # twenty random demands of both kinds: where every message is worth
    # sending, the adaptive plan is the profile's fractions bit for bit
    (["--K", "5", "--m-ratio", "0.3", "--seed", "0"], None),
], ids=["shared", "distinct", "seeded"])
@pytest.mark.parametrize("broken", [False, True], ids=["pass", "fail"])
def test_verify_builds_and_decodes_each_distinct_plan_once(tmp_path, monkeypatch, flags,
                                                           shared, broken):
    base = ["verify", "--N", "6", "--F", "200", "--placement", "centralized", *flags]
    K = int(flags[1])
    if broken:
        # a failure at every odd cache, so the FAIL lines are compared too
        exact_decode = cli.decode

        def failing(k, view, schedule):
            if k % 2:
                raise delivery.DecodeError(f"synthetic failure at cache {k}")
            return exact_decode(k, view, schedule)

        monkeypatch.setattr(cli, "decode", failing)
    alone = {}
    for scheme in cli.SCHEMES:
        path = tmp_path / f"{scheme}.txt"
        assert main([*base, "--delivery", scheme, "--out", str(path)]) == (3 if broken else 0)
        alone[scheme] = path.read_text().splitlines()

    # each build and decode is tagged with the demand being planned, by
    # position, as a random demand may repeat
    built, decodes, plans = [], [], []
    build, decode, scheme_plan = cli.build_messages, cli.decode, cli._scheme_plan
    per_demand = len(cli.SCHEMES)

    def counting_build(pm, plan, d):
        built.append(((len(plans) - 1) // per_demand, _kept_fractions(plan, d)))
        return build(pm, plan, d)

    def counting_decode(k, view, schedule):
        decodes.append((len(plans) - 1) // per_demand)
        return decode(k, view, schedule)

    def recording_plan(profile, scheme, d, L):
        plan = scheme_plan(profile, scheme, d, L)
        plans.append(_kept_fractions(plan[0], d))
        return plan

    monkeypatch.setattr(cli, "build_messages", counting_build)
    monkeypatch.setattr(cli, "decode", counting_decode)
    monkeypatch.setattr(cli, "_scheme_plan", recording_plan)
    report = tmp_path / "all.txt"
    assert main([*base, "--out", str(report)]) == (3 if broken else 0)
    lines = report.read_text().splitlines()

    # line for line, each scheme reports (rates, then failures) what it
    # reports alone
    assert ("FAIL:" in lines) == broken and (lines[-1] == "PASS") != broken
    for scheme, own in alone.items():
        mine = [line for line in lines if line.startswith(f"{scheme} demand ")]
        assert mine == [line for line in own if line.startswith(f"{scheme} demand ")]
        assert len(mine) > 0

    # per demand, one build for each distinct plan, and K decodes of each
    distinct_counts = []
    for i in range(len(plans) // per_demand):
        distinct = []
        for kept in plans[i * per_demand:(i + 1) * per_demand]:
            if not any(_same_plan(kept, seen) for seen in distinct):
                distinct.append(kept)
        mine = [kept for at, kept in built if at == i]
        assert len(mine) == len(distinct)
        assert all(any(_same_plan(kept, seen) for seen in mine) for kept in distinct)
        assert decodes.count(i) == K * len(distinct)
        distinct_counts.append(len(distinct))
    assert len(built) == sum(distinct_counts) and len(decodes) == K * len(built)
    if shared is not None:
        assert distinct_counts == shared
    else:
        assert min(distinct_counts) == 1 and max(distinct_counts) > 1


def test_verify_keeps_one_cache_view_alive_at_a_time(tmp_path, monkeypatch):
    # within each schedule, cache k's view is built just before its decode
    # and is gone before cache k + 1's view is built
    K = 4
    events, views = [], []
    build, decode, cache_view = cli.build_messages, cli.decode, PartitionMap.cache_view

    def spied_build(pm, plan, d):
        events.append("build")
        return build(pm, plan, d)

    def spied_view(self, cache, files):
        assert all(ref() is None for ref in views)  # every earlier view is freed
        view = cache_view(self, cache, files)
        views.append(weakref.ref(next(iter(view.values()))[0]))
        events.append(("view", cache))
        return view

    def spied_decode(k, view, schedule):
        events.append(("decode", k))
        return decode(k, view, schedule)

    monkeypatch.setattr(cli, "build_messages", spied_build)
    monkeypatch.setattr(PartitionMap, "cache_view", spied_view)
    monkeypatch.setattr(cli, "decode", spied_decode)
    report = tmp_path / "verify.txt"
    assert main(["verify", "--K", str(K), "--N", "6", "--m-ratio", "0.3", "--F", "200",
                 "--placement", "decentralized", "--samples", "4", "--seed", "1",
                 "--out", str(report)]) == 0
    assert report.read_text().endswith("PASS\n")
    per_schedule = [e for k in range(1, K + 1) for e in (("view", k), ("decode", k))]
    builds = events.count("build")
    assert builds >= 4 and events == (["build"] + per_schedule) * builds


@pytest.mark.parametrize("K", [9, 12])
@pytest.mark.parametrize("placement", ["centralized", "decentralized", "lp"])
def test_verify_round_trip_with_uint16_masks(tmp_path, K, placement):
    # above K = 8 the subset masks no longer fit a byte
    report = tmp_path / "verify.txt"
    assert main(["verify", "--K", str(K), "--N", str(K + 2), "--m-ratio", "0.3",
                 "--F", "300", "--placement", placement, "--samples", "3", "--seed", "5",
                 "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[-1] == "PASS" and len(lines) == 3 * len(cli.SCHEMES) + 1


def test_verify_rate_slack_is_the_rounding_bound(tmp_path, monkeypatch):
    # five surplus symbols at F=1000 exceed (2^K - K - 1 + L) / F = 0.003
    exact = cli.rate_of_schedule
    monkeypatch.setattr(cli, "rate_of_schedule", lambda s: exact(s) + 5 / s.F)
    report = tmp_path / "verify.txt"
    code = main(["verify", "--K", "2", "--N", "4", "--m-ratio", "0.5",
                 "--F", "1000", "--demands", "1,2", "--out", str(report)])
    assert code == 3
    assert "exceeds slack 0.003" in report.read_text()


def test_simulate_without_out_writes_into_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--K", "3", "--N", "12", "--chains", "1", "--burn-in", "5",
                 "--samples", "10", "--m-ratio", "0.2"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "simulate_rates.csv", "simulate_samples.csv", "simulate_stats.csv"]


def test_simulate_writes_three_artifacts(tmp_path, capsys):
    prefix = tmp_path / "sim"
    args = ["simulate", "--K", "3", "--N", "12", "--r", "0.6", "--chains", "2",
            "--burn-in", "30", "--samples", "80", "--m-ratio", "0.25",
            "--seed", "1", "--out", str(prefix)]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "epsr:" in err

    samples_path = tmp_path / "sim_samples.csv"
    stats_path = tmp_path / "sim_stats.csv"
    rates_path = tmp_path / "sim_rates.csv"
    header, rows = read_csv(samples_path)
    assert header == ["sample_index", "d_1", "d_2", "d_3"]
    assert len(rows) == 160  # two chains of eighty
    assert all(1 <= int(rows[i][f"d_{k}"]) <= 12 for i in (0, 159) for k in (1, 2, 3))

    header, rows = read_csv(stats_path)
    assert header == ["r", "theta", "rho_max", "rho_avg", "L_avg"]
    assert len(rows) == 1
    assert float(rows[0]["r"]) == pytest.approx(0.6)
    assert 1.0 <= float(rows[0]["L_avg"]) <= 3.0

    header, rows = read_csv(rates_path)
    assert header == list(cli.RATE_HEADER)
    assert len(rows) == 3
    assert all(row["pattern"] == "avg" for row in rows)
    rates = {row["scheme"]: float(row["rate"]) for row in rows}
    assert rates["adaptive"] <= rates["simplified"] + 1e-9 <= rates["nonadaptive"] + 2e-9

    # identical rerun, and a .csv suffix on the prefix is stripped
    again = tmp_path / "again"
    assert main(args[:-1] + [str(again) + ".csv"]) == 0
    assert (tmp_path / "again_rates.csv").read_bytes() == rates_path.read_bytes()
    assert (tmp_path / "again_samples.csv").read_bytes() == samples_path.read_bytes()


def test_simulate_bytes_are_pinned(tmp_path, capsys):
    # The digests were recorded at commit c9fde36, where every draw still
    # built its conditional pmf and cumsum, so a sampler or post-processing
    # change that moves one request or one last ulp fails here.
    prefix = tmp_path / "pin"
    assert main(["simulate", "--K", "6", "--N", "200", "--chains", "3", "--burn-in", "20",
                 "--samples", "300", "--m-ratio", "0.1:0.2:0.5", "--r", "0.9",
                 "--theta", "0.75", "--seed", "3", "--out", str(prefix)]) == 0
    assert capsys.readouterr().err == "epsr: 1.06962\n"
    digests = {part: hashlib.sha256((tmp_path / f"pin_{part}.csv").read_bytes()).hexdigest()
               for part in ("samples", "stats", "rates")}
    assert digests == {
        "samples": "aa65943984e815a8b9bd8623ba54528ad18ad10e65ec3eeaf8ac9311abeffe66",
        "stats": "639130caa6c5389561624dbca652d4177f66b11fdce330c07cb708d77bf987a2",
        "rates": "7b96fee78eec857047a62bf691ebf6af322d83cfa2f8e6fbc9b2b961d655a07a",
    }


def test_simulate_bytes_do_not_depend_on_the_row_block(tmp_path, capsys, monkeypatch):
    # The samples CSV is written, and the sample rows counted and keyed
    # into patterns, a block of rows at a time; 7-row blocks cross 128
    # block boundaries over these 900 rows, and no output byte may move.
    def run(name):
        assert main(["simulate", "--K", "6", "--N", "200", "--chains", "3", "--burn-in", "20",
                     "--samples", "300", "--m-ratio", "0.1:0.2:0.5", "--r", "0.9",
                     "--theta", "0.75", "--seed", "3", "--out", str(tmp_path / name)]) == 0
        return {part: (tmp_path / f"{name}_{part}.csv").read_bytes()
                for part in ("samples", "stats", "rates")}

    whole = run("whole")
    monkeypatch.setattr(core, "_BLOCK_ROWS", 7)
    assert run("blocks") == whole


def test_simulate_passes_over_the_samples_hold_one_block():
    # At simulate's default size, 5 chains x 1,000 samples at K = 8, the
    # samples CSV, the pattern pass and the mean bound each hold one block
    # of rows at a time; over the whole array at once they peaked at 2.1,
    # 1.8 and 0.5 MiB.
    model = CorrelationModel(adjacency=complete_graph(8), r=0.9, popularity=zipf_pmf(1000, 0.0))
    samples = sample_chains(model, chains=5, count=1000, burn_in=150, seed=0).reshape(-1, 8)
    passes = {"samples CSV": lambda: sum(map(len, cli._sample_csv(samples))),
              "patterns": lambda: core.redundancy_patterns(samples),
              "mean bound": lambda: average_bound(samples, 1000, 75.0, 8)}
    for name, run in passes.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2**20, (name, peak)


def test_sparse_graph_simulate_bytes_are_pinned(tmp_path, capsys):
    # The digests were recorded at commit 6ab227a, before the chain kernel,
    # on a graph where cache 5 has one neighbour and cache 6 none: the
    # closed-neighbourhood lookups and the isolated cache's base-law draws.
    graph = tmp_path / "graph.txt"
    graph.write_text("# path 1-2-3-4 plus a chord; cache 5 hangs off 4, cache 6 has no edge\n"
                     "1 2\n2 3\n3 4\n1 3\n4 5\n")
    prefix = tmp_path / "sp"
    assert main(["simulate", "--K", "6", "--N", "200", "--chains", "3", "--burn-in", "20",
                 "--samples", "300", "--m-ratio", "0.1:0.2:0.5", "--r", "0.8",
                 "--theta", "0.75", "--seed", "5", "--graph", str(graph),
                 "--out", str(prefix)]) == 0
    assert capsys.readouterr().err == "epsr: 1.00187\n"
    digests = {part: hashlib.sha256((tmp_path / f"sp_{part}.csv").read_bytes()).hexdigest()
               for part in ("samples", "stats", "rates")}
    assert digests == {
        "samples": "90d84c24e5754edef822dfd87681103d5ecfa7b7332e498d82c178c861d13f2e",
        "stats": "597a5e20e4dabb157f286be14263fe3348e6c1b75f2d85781deb73fd1f8dd4a1",
        "rates": "99541aaa7e59a49d8a3cefa491391b374c46ca60b17da785a5292f314c594aad",
    }


def test_simulate_collapsed_chains_report_nan_epsr(tmp_path, capsys):
    # r = 1 on the complete graph: both chains reach consensus on one file,
    # so every chain is constant and R-hat is undefined, not an error
    prefix = tmp_path / "c"
    assert main(["simulate", "--K", "3", "--N", "5", "--r", "1", "--chains", "2",
                 "--samples", "20", "--burn-in", "10", "--m-ratio", "0.2",
                 "--out", str(prefix)]) == 0
    assert capsys.readouterr().err == "epsr: nan\n"
    _, rows = read_csv(tmp_path / "c_samples.csv")
    assert len(rows) == 40 and len({tuple(r.values())[1:] for r in rows}) <= 2
    _, rows = read_csv(tmp_path / "c_stats.csv")
    assert all(np.isfinite(float(rows[0][k])) for k in ("rho_max", "rho_avg", "L_avg"))
    _, rows = read_csv(tmp_path / "c_rates.csv")
    assert len(rows) == 3 and all(np.isfinite(float(r["rate"])) for r in rows)


@pytest.mark.parametrize("seed", [1, 3, 5, 8])
def test_simulate_consensus_on_one_file_reports_nan_correlations(tmp_path, capsys, seed):
    # both chains settle on the same file, so every cache pair is constant
    # and the correlations are undefined: NaN cells, not a failed run
    prefix = tmp_path / "c"
    assert main(["simulate", "--K", "3", "--N", "3", "--r", "1", "--chains", "2",
                 "--samples", "20", "--burn-in", "10", "--m-ratio", "0.2",
                 "--seed", str(seed), "--out", str(prefix)]) == 0
    assert capsys.readouterr().err == "epsr: nan\n"
    _, rows = read_csv(tmp_path / "c_stats.csv")
    assert (rows[0]["rho_max"], rows[0]["rho_avg"], rows[0]["L_avg"]) == ("nan", "nan", "1")
    _, rows = read_csv(tmp_path / "c_rates.csv")
    assert [r["scheme"] for r in rows] == list(cli.SCHEMES)
    assert all(r["rate"] == "1" for r in rows)


@pytest.mark.parametrize("source", ["flag", "json"])
def test_nan_zipf_exponent_is_refused(tmp_path, capsys, source):
    prefix = str(tmp_path / "sim")
    if source == "flag":
        args = ["--K", "3", "--theta", "nan", "--m-ratio", "0.2"]
    else:
        conf = tmp_path / "c.json"
        conf.write_text('{"K": 3, "theta": NaN, "m_ratio": 0.2}')
        args = ["--config", str(conf)]
    assert main(["simulate", *args, "--out", prefix]) == 1
    assert capsys.readouterr().err == "error: theta: must be nonnegative\n"
    assert [p.name for p in tmp_path.iterdir()] == (["c.json"] if source == "json" else [])


def test_simulate_accepts_edge_list_graph(tmp_path):
    graph = tmp_path / "line.txt"
    graph.write_text("1 2\n2 3\n")
    prefix = tmp_path / "g"
    assert main(["simulate", "--K", "4", "--N", "10", "--r", "0.5", "--chains", "1",
                 "--burn-in", "10", "--samples", "30", "--m-ratio", "0.2",
                 "--graph", str(graph), "--out", str(prefix)]) == 0
    _, rows = read_csv(tmp_path / "g_samples.csv")
    assert len(rows) == 30

    # an edge list naming a cache beyond K is a configuration error
    graph.write_text("1 5\n")
    assert main(["simulate", "--K", "4", "--N", "10", "--m-ratio", "0.2",
                 "--graph", str(graph), "--out", str(prefix)]) == 1


def test_edge_list_beyond_K_is_refused_before_allocation(tmp_path, capsys):
    # the index on line 2 would need an exabyte-sized matrix if the list
    # were sized by its largest index before the check against K
    graph = tmp_path / "far.txt"
    graph.write_text("1 2\n2 1000000000\n")
    assert main(["simulate", "--K", "4", "--N", "10", "--m-ratio", "0.2",
                 "--graph", str(graph), "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {graph}:2: edge list names cache 1000000000 but K=4\n"
    assert "Traceback" not in err and list(tmp_path.iterdir()) == [graph]


@pytest.mark.parametrize("case", ["missing", "not-an-integer"])
def test_unreadable_graph_is_a_configuration_error(tmp_path, capsys, case):
    graph = tmp_path / "edges.txt"
    if case == "not-an-integer":
        graph.write_text("1 2\n2 x\n")
    assert main(["simulate", "--K", "4", "--N", "10", "--m-ratio", "0.2",
                 "--graph", str(graph), "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(graph) in err and "Traceback" not in err
    if case == "missing":
        assert err.startswith(f"error: graph: cannot read {graph}: ")
    else:
        assert err == f"error: {graph}:2: cache indices must be integers\n"
