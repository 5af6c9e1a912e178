"""Scenario runner and command-line interface.

This module turns the library's pieces (placement profiles, delivery
plans, bounds, demand sampling) into reproducible experiments that emit
CSV artifacts. A scenario is described either by command-line flags or by
a JSON config file mirroring ScenarioConfig; flags override file values.

Subcommands:

  placement   cache-content profiles over an m-ratio grid
  rate        delivery rates for one explicit demand or pattern
  bound       cutset lower bounds over an m-ratio grid
  sweep       rate curves over an m-ratio grid, for the one pattern of
              --demands or --pattern, or averaged uniformly over all
              redundancy patterns with each number of distinct files
  simulate    Gibbs-sampled correlated demands: sample dump, empirical
              statistics, and average rates per scheme
  verify      bit-level build/decode round-trip against analytic rates

Output files are plain CSV with fixed column schemas (see the _write_*
helpers) and deterministic float formatting, so re-running a scenario
with the same seed reproduces byte-identical artifacts. Exit codes:
0 success, 1 invalid configuration, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import core
from .bounds import GAP_TOL, average_bound, cutset_bound, gap_reduction
from .core import (
    DemandVector,
    RedundancyPattern,
    partitions_into_parts,
    redundancy_pattern,
    redundancy_patterns,
)
from .delivery import (
    DecodeError,
    _plan_accessor,
    adaptive_plan,
    build_messages,
    canonical_demand,
    decode,
    rate_nonadaptive,
    rate_of_schedule,
    simplified_plan,
)
from .lp import LpNumericalError
from .placement import (
    SUBSET_ENUM_CAP,
    centralized_profile,
    decentralized_profile,
    materialize_partition,
    solve_placement_lp,
)
from .demand import (
    CorrelationModel,
    complete_graph,
    empirical_stats,
    epsr,
    load_edge_list,
    mean_request_index,
    sample_chains,
    zipf_pmf,
)

PLACEMENTS = ("centralized", "decentralized", "lp")
SCHEMES = ("nonadaptive", "simplified", "adaptive")


class ConfigError(ValueError):
    """Invalid scenario configuration; messages carry the field path."""


@dataclass
class ScenarioConfig:
    """Everything needed to run one experiment.

    m_ratio is a list (a one-point grid for single values). Every field
    has a command-line flag of the same name (underscores as dashes),
    with the help text of its metadata.
    """

    K: int
    N: int = 1000
    m_ratio: list = field(default_factory=list, metadata={"help": "value or start:step:end grid"})
    placement: str = field(default="centralized", metadata={"help": "/".join(PLACEMENTS)})
    delivery: tuple = field(default=SCHEMES,
                            metadata={"help": "comma-separated subset of " + ",".join(SCHEMES)})
    demands: tuple | None = field(default=None,
                                  metadata={"help": "comma-separated requested file indices"})
    pattern: tuple | None = field(default=None,
                                  metadata={"help": "comma-separated distinct-file request counts"})
    r: float = 0.0
    theta: float = 0.0
    chains: int = 5
    burn_in: int = 150
    # per chain for simulate, demands for verify; None: 1000 for simulate
    # and 20 for verify, a quick spot check (see run_scenario)
    samples: int | None = None
    graph: str = field(default="complete", metadata={"help": "complete, or path to an edge-list file"})
    seed: int = 0
    F: int | None = None
    out: str | None = field(default=None, metadata={"help": "output CSV path (simulate: path prefix)"})
    # only 1, so that old command lines still parse
    jobs: int = field(default=1, metadata={"help": "must be 1: grid points run serially"})

    def validate(self) -> None:
        errors = [e for e in (_type_error(f, getattr(self, f.name)) for f in fields(self)) if e]
        if errors:
            raise ConfigError("; ".join(errors))
        if self.K < 1:
            errors.append("K: must be at least 1")
        if self.N < 1:
            errors.append("N: must be at least 1")
        elif self.N < self.K:
            errors.append(f"N: must be at least K={self.K}")
        if not self.m_ratio:
            errors.append("m_ratio: required")
        for m in self.m_ratio:
            if not 0.0 <= m <= 1.0:
                errors.append(f"m_ratio: value {m:g} outside [0, 1]")
                break
        if self.placement not in PLACEMENTS:
            errors.append(f"placement: must be one of {'/'.join(PLACEMENTS)}")
        bad = [s for s in self.delivery if s not in SCHEMES]
        if bad:
            errors.append(f"delivery: unknown scheme {bad[0]}")
        if not self.delivery:
            errors.append("delivery: need at least one scheme")
        twice = [s for i, s in enumerate(self.delivery) if s in self.delivery[:i]]
        if twice:
            errors.append(f"delivery: scheme {twice[0]} listed twice")
        if self.demands is not None:
            if len(self.demands) != self.K:
                errors.append(f"demands: expected {self.K} entries, got {len(self.demands)}")
            elif any(not 1 <= d <= self.N for d in self.demands):
                errors.append(f"demands: file indices must lie in 1..{self.N}")
        if self.demands is not None and self.pattern is not None:
            errors.append("pattern: give demands or pattern, not both")
        if self.pattern is not None:
            if sum(self.pattern) != self.K:
                errors.append(f"pattern: counts must sum to K={self.K}")
            elif any(c < 1 for c in self.pattern):
                errors.append("pattern: counts must be positive")
        if not 0.0 <= self.r <= 1.0:
            errors.append("r: must lie in [0, 1]")
        if not self.theta >= 0.0:
            errors.append("theta: must be nonnegative")
        if self.chains < 1:
            errors.append("chains: must be at least 1")
        if self.burn_in < 0:
            errors.append("burn_in: must be nonnegative")
        if self.samples is not None and self.samples < 1:
            errors.append("samples: must be at least 1")
        if self.seed < 0:
            errors.append("seed: must be nonnegative")
        if self.F is not None and self.F < 1:
            errors.append("F: must be at least 1")
        if self.jobs != 1:
            errors.append("jobs: must be 1; grid points run serially")
        if errors:
            raise ConfigError("; ".join(errors))


_ELEMENT_TYPES = {"m_ratio": float, "delivery": str, "demands": int, "pattern": int}
_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings")}


def _has_type(value, kind) -> bool:
    """isinstance, except that bools are not numbers and ints are floats."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _kinds(f) -> list:
    """The type names of a field's annotation, such as ['int', 'None']."""
    return [k.strip() for k in f.type.split("|")]


_NUMBERS = {"int": int, "float": float}


def _type_error(f, value) -> str | None:
    """'field: expected ...' if value does not match the field's annotation."""
    kinds = _kinds(f)
    if value is None and "None" in kinds:
        return None
    if kinds[0] in ("list", "tuple"):
        elem = _ELEMENT_TYPES[f.name]
        if isinstance(value, (list, tuple)) and all(_has_type(v, elem) for v in value):
            return None
        want = f"a list of {_TYPE_NAMES[elem][1]}"
    else:
        kind = _NUMBERS.get(kinds[0], str)
        if _has_type(value, kind):
            return None
        want = _TYPE_NAMES[kind][0]
    return f"{f.name}: expected {want}, got {value!r}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(path, chunks) -> str:
    """Write the strings of chunks, in order, to path, or stdout if None;
    returns where it went."""
    if path is None:
        sys.stdout.writelines(chunks)
        return "<stdout>"
    with open(path, "w") as fh:
        fh.writelines(chunks)
    return str(path)


def _emit_csv(path, header, rows) -> str:
    """Write rows (already formatted) as CSV to path, or stdout if None."""
    return _emit(path, [",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)])


def _profile_for(cfg: ScenarioConfig, m: float):
    if cfg.placement == "centralized":
        return centralized_profile(cfg.K, m)
    if cfg.placement == "decentralized":
        return decentralized_profile(cfg.K, m)
    return solve_placement_lp(cfg.K, m)


def _scheme_plan(profile, scheme: str, d: DemandVector, L: int):
    """(plan, analytic rate) of one delivery scheme for demand d with L distinct files."""
    if scheme == "nonadaptive":
        return profile.fractions, rate_nonadaptive(profile, L, d.K)
    if scheme == "simplified":
        return simplified_plan(profile, L, d.K)
    return adaptive_plan(profile, d)


def _gap_cell(r_na: float, rate: float, bound: float) -> str:
    if r_na <= bound + GAP_TOL:
        return ""
    return _fmt(gap_reduction(r_na, rate, bound))


RATE_HEADER = ("m_ratio", "scheme", "pattern", "L", "rate", "bound", "gap_reduction")


def _refuse(errors) -> None:
    if errors:
        raise ConfigError("; ".join(errors))


def _unused(cfg: ScenarioConfig, command: str, *names) -> list:
    """Errors for the demand fields a command would otherwise ignore."""
    return [f"{name}: {command} does not use it" for name in names
            if getattr(cfg, name) is not None]


def _cap(cfg: ScenarioConfig) -> list:
    """The adaptive planner's K cap, for the commands that plan delivery."""
    if "adaptive" in cfg.delivery and cfg.K > SUBSET_ENUM_CAP:
        return [f"K: adaptive delivery requires K <= {SUBSET_ENUM_CAP}"]
    return []


def _pattern(cfg: ScenarioConfig) -> RedundancyPattern | None:
    """The pattern of --demands, or --pattern, or None."""
    if cfg.demands is not None:
        return redundancy_pattern(DemandVector(cfg.demands))
    if cfg.pattern is not None:
        return RedundancyPattern(cfg.pattern)
    return None


def _rate_rows(cfg: ScenarioConfig, profile, m: float, patterns, inverse, label: str,
               L_cell: str, bound: float, r_na: float):
    """Rate CSV rows for one grid point: each scheme's rate averaged over
    the sequence patterns[inverse], planning each distinct pattern once."""
    rows = []
    for scheme in SCHEMES:
        if scheme not in cfg.delivery:
            continue
        rates = np.array([_scheme_plan(profile, scheme, canonical_demand(p), p.L)[1]
                          for p in patterns])
        rate = float(np.mean(rates[inverse]))
        rows.append((_fmt(m), scheme, label, L_cell, _fmt(rate),
                     _fmt(bound), _gap_cell(r_na, rate, bound)))
    return rows


def _run_placement(cfg: ScenarioConfig):
    _refuse(_unused(cfg, "placement", "demands", "pattern"))
    header = ["scheme", "K", "m_ratio"] + [f"x_{s}" for s in range(cfg.K + 1)]
    rows = []
    for m in cfg.m_ratio:
        profile = _profile_for(cfg, m)
        rows.append([cfg.placement, str(cfg.K), _fmt(m)] + [_fmt(float(x)) for x in profile.fractions])
    return [_emit_csv(cfg.out, header, rows)]


def _run_bound(cfg: ScenarioConfig):
    pattern = _pattern(cfg)
    rows = []
    for m in cfg.m_ratio:
        for L in [pattern.L] if pattern else range(1, cfg.K + 1):
            b = cutset_bound(cfg.K, L, cfg.N, m * cfg.N)
            rows.append((_fmt(m), "bound", "", str(L), _fmt(b), _fmt(b), ""))
    return [_emit_csv(cfg.out, RATE_HEADER, rows)]


def _run_rate(cfg: ScenarioConfig):
    if _pattern(cfg) is None:
        raise ConfigError("demands: rate needs an explicit demand vector or a pattern")
    return _run_sweep(cfg)


def _run_sweep(cfg: ScenarioConfig):
    _refuse(_cap(cfg))
    pattern = _pattern(cfg)
    groups = ([(pattern.L, [pattern], str(pattern))] if pattern else
              [(L, partitions_into_parts(cfg.K, L), "avg") for L in range(1, cfg.K + 1)])
    rows = []
    for m in cfg.m_ratio:
        profile = _profile_for(cfg, m)
        for L, patterns, label in groups:
            rows += _rate_rows(cfg, profile, m, patterns, np.arange(len(patterns)), label,
                               str(L), cutset_bound(cfg.K, L, cfg.N, m * cfg.N),
                               rate_nonadaptive(profile, L, cfg.K))
    return [_emit_csv(cfg.out, RATE_HEADER, rows)]


def _graph_for(cfg: ScenarioConfig) -> np.ndarray:
    if cfg.graph == "complete":
        return complete_graph(cfg.K)
    try:
        return load_edge_list(cfg.graph, cfg.K)
    except OSError as exc:
        raise ConfigError(f"graph: cannot read {cfg.graph}: {exc}") from None


def _out_prefix(out: str | None, fallback: str) -> str:
    if out is None:
        return fallback
    return out[:-4] if out.endswith(".csv") else out


def _sample_csv(samples):
    """The samples CSV of an (n, K) request array, in blocks of
    ``core._BLOCK_ROWS`` rows of text."""
    K = samples.shape[1]
    yield ",".join(["sample_index"] + [f"d_{k}" for k in range(1, K + 1)]) + "\n"
    line = ",".join(["%d"] * (K + 1)) + "\n"  # sample index, then the K requests
    rows = core._BLOCK_ROWS
    for start in range(0, samples.shape[0], rows):
        block = samples[start:start + rows].tolist()
        yield "".join([line % (i, *d) for i, d in enumerate(block, start=start + 1)])


def _run_simulate(cfg: ScenarioConfig):
    errors = _unused(cfg, "simulate", "demands", "pattern") + _cap(cfg)
    if cfg.K < 2:
        errors.append("K: simulate correlates pairs of caches, so needs at least 2")
    if cfg.samples < 2:
        errors.append("samples: simulate needs at least 2 per chain for its statistics")
    _refuse(errors)
    model = CorrelationModel(adjacency=_graph_for(cfg), r=cfg.r,
                             popularity=zipf_pmf(cfg.N, cfg.theta))
    chain_samples = sample_chains(model, cfg.chains, cfg.samples, cfg.burn_in, cfg.seed)
    samples = chain_samples.reshape(-1, cfg.K)
    prefix = _out_prefix(cfg.out, "simulate")

    sample_path = _emit(f"{prefix}_samples.csv", _sample_csv(samples))

    stats = empirical_stats(samples)
    if cfg.chains >= 2:
        rhat = epsr(mean_request_index(chain_samples))
        print(f"epsr: {rhat:.6g}", file=sys.stderr)
    stats_path = _emit_csv(f"{prefix}_stats.csv",
                           ("r", "theta", "rho_max", "rho_avg", "L_avg"),
                           [(_fmt(cfg.r), _fmt(cfg.theta), _fmt(stats.rho_max),
                             _fmt(stats.rho_avg), _fmt(stats.L_avg))])

    patterns, inverse = redundancy_patterns(samples)
    rate_rows = []
    for m in cfg.m_ratio:
        profile = _profile_for(cfg, m)
        r_na = np.array([rate_nonadaptive(profile, p.L, cfg.K) for p in patterns])
        rate_rows += _rate_rows(cfg, profile, m, patterns, inverse, "avg", _fmt(stats.L_avg),
                                average_bound(samples, cfg.N, m * cfg.N, cfg.K),
                                float(np.mean(r_na[inverse])))
    rate_path = _emit_csv(f"{prefix}_rates.csv", RATE_HEADER, rate_rows)
    return [sample_path, stats_path, rate_path]


# Per-message rounding bound.  apportion starts each kept count at
# floor(t + 1e-9), t = F * kept(file)[mask], and hands out the deficit
# (the sum of the remainders t - floor) one symbol per entry in
# largest-remainder order.  A plan keeps at most x_s of a size-s piece,
# which holds at least floor(x_s F + 1e-9) symbols, so no cap binds below
# the floor, and one pass places the whole deficit unless full pieces
# leave fewer entries with room than symbols to place.  Each count is then
# within one symbol of its t.  So is each coded message, the longest of
# its members' counts, and each file's uncoded part, which holds F minus
# the file's coded counts, i.e. its own mask-0 count.  The 1e-6 absorbs
# float noise.
MESSAGE_SLACK = 1.0 + 1e-6


def _message_failures(schedule, fractions) -> tuple:
    """(the plan's cost, unlabelled failures): the cost, in files, is the
    sum of the coded messages' and the uncoded parts' kept fractions, and
    the failures are the coded messages and uncoded parts further than
    MESSAGE_SLACK symbols from F times them.  ``fractions`` maps each
    requested file to its kept fractions over all masks."""
    d, F = schedule.demand, schedule.F
    masks = np.arange(1 << d.K)
    # each coded message is as long as its longest member
    longest = np.full(masks.shape[0], -np.inf)
    for k, n in enumerate(d.requests):
        has = masks[masks >> k & 1 == 1]
        longest[has] = np.maximum(longest[has], fractions[n][has ^ (1 << k)])
    want = F * longest
    got = np.zeros(masks.shape[0], dtype=np.int64)  # 0 where no message was sent
    got[list(schedule.coded)] = [msg.payload.shape[0] for msg in schedule.coded.values()]
    coded = (masks & (masks - 1)) != 0  # two or more members
    failures = [f"coded message {mask} has {got[mask]} symbols vs analytic {want[mask]:.6g}"
                for mask in np.flatnonzero(coded & (np.abs(got - want) > MESSAGE_SLACK)).tolist()]
    cost = float(longest[coded].sum())
    for n in sorted(fractions):
        cost += fractions[n][0]
        want = F * fractions[n][0]
        got = schedule.uncoded[n][1].shape[0] if n in schedule.uncoded else 0
        if abs(got - want) > MESSAGE_SLACK:
            failures.append(f"uncoded part of file {n} has {got} symbols vs analytic {want:.6g}")
    return cost, failures


def _check_schedule(partition, plan, d: DemandVector, fractions) -> tuple:
    """Build plan's schedule for d and decode it at every cache: (achieved
    rate, plan cost, unlabelled failures), the message-length failures
    first, then each cache's decode failure in cache order.  Each cache's
    view of the demand's files is built just before its decode and
    dropped after it, and the schedule is freed on return, so at most one
    of each is live."""
    schedule = build_messages(partition, plan, d)
    cost, failures = _message_failures(schedule, fractions)
    files = set(d.requests)
    for k in range(1, d.K + 1):
        try:
            got = decode(k, partition.cache_view(k, files), schedule)
        except DecodeError as exc:
            failures.append(f"cache {k} decode error: {exc}")
            continue
        if not np.array_equal(got, partition.data[d.requests[k - 1] - 1]):
            failures.append(f"cache {k} reconstructed wrong bits")
    return rate_of_schedule(schedule), cost, failures


def _run_verify(cfg: ScenarioConfig) -> list:
    if cfg.F is None:
        raise ConfigError("F: required for verify (bit-level symbol count)")
    cap = _cap(cfg)
    if not cap and cfg.K > SUBSET_ENUM_CAP:
        cap = [f"K: bit-level verification requires K <= {SUBSET_ENUM_CAP}"]
    errors = _unused(cfg, "verify", "pattern") + cap
    if len(cfg.m_ratio) > 1:
        errors.append(f"m_ratio: verify checks one point, got a grid of {len(cfg.m_ratio)}")
    _refuse(errors)
    failures = []
    lines = []
    m = cfg.m_ratio[0]
    profile = _profile_for(cfg, m)
    partition = materialize_partition(profile, cfg.N, cfg.F, cfg.seed)

    if cfg.demands is not None:
        demand_list = [DemandVector(cfg.demands)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        demand_list = [DemandVector(tuple(int(v) for v in rng.integers(1, cfg.N + 1, size=cfg.K)))
                       for _ in range(cfg.samples)]

    for d in demand_list:
        L = redundancy_pattern(d).L
        # apportion rounds every coded message and every distinct file's
        # uncoded part to within one symbol of its analytic length
        slack = (2**cfg.K - cfg.K - 1 + L) / cfg.F
        files = sorted(set(d.requests))
        # the schedule, and so every check on it, depends on the plan only
        # through the requested files' kept fractions: schemes whose
        # fractions are exactly equal share one build and decode
        checked = []  # (fractions, achieved, cost, failures) per distinct plan
        for scheme in cfg.delivery:
            plan, analytic = _scheme_plan(profile, scheme, d, L)
            kept = _plan_accessor(plan, d, cfg.K)
            fractions = {n: kept(n) for n in files}
            for seen, achieved, cost, found in checked:
                if all(np.array_equal(seen[n], fractions[n]) for n in files):
                    break
            else:
                achieved, cost, found = _check_schedule(partition, plan, d, fractions)
                checked.append((fractions, achieved, cost, found))
            label = f"{scheme} demand {d.requests}"
            failures += [f"{label}: {text}" for text in found]
            # the plan must cost what its scheme's analytic rate says, at any F
            if abs(cost - analytic) > 1e-9 * max(1.0, analytic):
                failures.append(f"{label}: plan cost {cost:.6g} vs analytic {analytic:.6g}")
            if abs(achieved - analytic) > slack:
                failures.append(f"{label}: schedule rate {achieved:.6g} "
                                f"vs analytic {analytic:.6g} exceeds slack {slack:.6g}")
            lines.append(f"{label}: rate {achieved:.6g} analytic {analytic:.6g}")

    report = "\n".join(lines + (["FAIL:"] + failures if failures else ["PASS"])) + "\n"
    path = _emit(cfg.out, [report])
    if failures:
        raise DecodeError(f"{len(failures)} verification failure(s); first: {failures[0]}")
    return [path]


# subcommand -> (runner, help)
_COMMANDS = {
    "placement": (_run_placement, "cache-content profiles over an m-ratio grid"),
    "rate": (_run_rate, "delivery rates for one demand vector or pattern"),
    "bound": (_run_bound, "cutset lower bounds"),
    "sweep": (_run_sweep, "rate curves over an m-ratio grid"),
    "simulate": (_run_simulate, "Gibbs-sampled correlated demands and average rates"),
    "verify": (_run_verify, "bit-level build/decode round-trip"),
}


def run_scenario(cfg: ScenarioConfig, command: str = "sweep"):
    """Validate cfg and run one subcommand, returning the artifact paths."""
    if command not in _COMMANDS:
        raise ConfigError(f"command: unknown subcommand {command}")
    if cfg.samples is None:
        cfg = replace(cfg, samples=20 if command == "verify" else 1000)
    cfg.validate()
    return _COMMANDS[command][0](cfg)


def parse_m_ratio(text: str) -> list:
    """Parse a single value or an inclusive start:step:end grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("m_ratio: grid must be start:step:end")
        try:
            start, step, end = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"m_ratio: grid start:step:end needs numbers, got {text!r}") from None
        if not all(math.isfinite(v) for v in (start, step, end)):
            raise ConfigError(f"m_ratio: grid start:step:end needs finite numbers, got {text!r}")
        if step <= 0:
            raise ConfigError("m_ratio: grid step must be positive")
        values = []
        v = start
        while v <= end + 1e-9:
            values.append(round(v, 12))
            v += step
        if not values:
            raise ConfigError("m_ratio: empty grid")
        return values
    try:
        return [float(text)]
    except ValueError:
        raise ConfigError(f"m_ratio: expected a number or a start:step:end grid, got {text!r}") from None


def _parse_int_tuple(text: str, what: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated integers") from None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as invalid-config (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cachecast", description="Coded-caching rate experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON scenario file; flags override its values")
        for f in fields(ScenarioConfig):
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=_NUMBERS.get(_kinds(f)[0]),
                           help=f.metadata.get("help"))
    return parser


def _config_from_args(args) -> ScenarioConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config: top-level JSON value must be an object")
        known = {f.name for f in fields(ScenarioConfig)}
        for key, val in raw.items():
            if key not in known:
                raise ConfigError(f"config: unknown field {key}")
            values[key] = val
    for f in fields(ScenarioConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)

    if "K" not in values:
        raise ConfigError("K: required")
    # strings come from flags or JSON; anything not of the field's type is
    # left for ScenarioConfig.validate to report
    mr = values.get("m_ratio")
    if isinstance(mr, str):
        values["m_ratio"] = parse_m_ratio(mr)
    elif _has_type(mr, float):
        values["m_ratio"] = [float(mr)]
    elif isinstance(mr, (list, tuple)):
        values["m_ratio"] = [float(v) if _has_type(v, float) else v for v in mr]
    if isinstance(values.get("delivery"), str):
        values["delivery"] = tuple(s for s in values["delivery"].split(",") if s)
    for name in ("demands", "pattern"):
        if isinstance(values.get(name), str):
            values[name] = _parse_int_tuple(values[name], name)
    for name in ("delivery", "demands", "pattern"):
        if isinstance(values.get(name), list):
            values[name] = tuple(values[name])
    pattern = values.get("pattern")
    if isinstance(pattern, tuple) and all(_has_type(c, int) for c in pattern):
        values["pattern"] = tuple(sorted(pattern, reverse=True))
    return ScenarioConfig(**values)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        run_scenario(cfg, args.command)
    except (LpNumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except DecodeError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
