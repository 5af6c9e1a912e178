"""Outside-in span tracing of the cachecast layers.

The tracer replaces public functions with thin wrappers, from outside the
program: the names as ``cachecast.cli`` bound them, plus the few inner
calls the CLI does not see (``delivery.solve``, ``demand.gibbs_sweep``,
``PartitionMap.cache_view``). Each call records one span: name, start,
end, parent span and, for a few layers, counts read from the call's
argument or result. Spans stay in memory until the run ends.

Only functions are wrapped, never classes: replacing a class such as
``TransferPlan`` would break the ``isinstance`` dispatch in
``delivery._plan_accessor``. Nothing finer than ``gibbs_sweep`` is
wrapped; ``conditional_pmf`` runs about 138k times per simulate job and
a wrapper there would cost more than it measures.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

# span fields: name, start_ns, end_ns, parent index (-1 at top level), counts
NAME, START, END, PARENT, COUNTS = range(5)


def _lp_counts(args, kwargs, result):
    lp = args[0]
    return {"vars": lp.n_vars, "rows": lp.E.shape[0] + lp.A.shape[0],
            "iterations": result.iterations}


def _schedule_counts(args, kwargs, result):
    sent = sum(m.payload.shape[0] for m in result.coded.values())
    sent += sum(p.shape[0] for p, _ in result.uncoded.values())
    return {"symbols": sent, "coded": len(result.coded)}


def _gibbs_counts(args, kwargs, result):
    return {"K": args[1].K}


def targets():
    """(owner, attribute, span name, count extractor) for every traced function."""
    from cachecast import cli, delivery, demand, placement

    return [
        (cli, "adaptive_plan", "delivery.adaptive_plan", None),
        (cli, "simplified_plan", "delivery.simplified_plan", None),
        (cli, "build_messages", "delivery.build_messages", _schedule_counts),
        (cli, "decode", "delivery.decode", None),
        (cli, "centralized_profile", "placement.profile", None),
        (cli, "decentralized_profile", "placement.profile", None),
        (cli, "solve_placement_lp", "placement.profile", None),
        (cli, "materialize_partition", "placement.materialize_partition", None),
        (placement.PartitionMap, "cache_view", "placement.cache_view", None),
        (cli, "sample_chains", "demand.sample_chains", None),
        (demand, "gibbs_sweep", "demand.gibbs_sweep", _gibbs_counts),
        (cli, "empirical_stats", "demand.empirical_stats", None),
        (cli, "cutset_bound", "bounds.cutset_bound", None),
        (cli, "average_bound", "bounds.average_bound", None),
        (cli, "redundancy_pattern", "core.redundancy_pattern", None),
        (delivery, "solve", "lp.solve", _lp_counts),
        (placement, "solve", "lp.solve", _lp_counts),
    ]


class Tracer:
    """Collects spans from wrapped functions in one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        fn = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(fn):
            raise TypeError(f"refusing to wrap {attr}: only plain functions are traced")
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        for owner, attr, name, counts in targets():
            self.wrap(owner, attr, name, counts)


def self_times(spans) -> list[int]:
    """Per span, its duration minus the time its direct children cover (ns)."""
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


SPAN_TIMES = (
    "lp.solve", "delivery.adaptive_plan", "delivery.simplified_plan",
    "delivery.build_messages", "delivery.decode", "placement.profile",
    "placement.materialize_partition", "placement.cache_view",
    "demand.sample_chains", "demand.gibbs_sweep", "demand.empirical_stats",
    "bounds.cutset_bound", "bounds.average_bound", "core.redundancy_pattern",
)
SPAN_CALLS = (
    "lp.solve", "delivery.adaptive_plan", "delivery.build_messages",
    "delivery.decode", "placement.cache_view", "demand.gibbs_sweep",
    "core.redundancy_pattern",
)


def _quantile_ms(durations_ns, q: int) -> float:
    """The q-th percentile of span durations, in ms (0 when there are none)."""
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e6


def layer_metrics(calls) -> dict[str, float]:
    """Per-layer metrics of one workload job.

    ``calls`` holds one (main() wall in s, spans) pair per CLI invocation
    of the job; times and counts are summed over the invocations.
    """
    m: dict[str, float] = {}
    dur: dict[str, list[int]] = {}
    counts: dict[str, float] = {}
    build_ns = expand_ns = top_ns = max_vars = 0
    wall_s = 0.0
    for wall, spans in calls:
        wall_s += wall
        children: dict[int, list[list]] = {}
        for s in spans:
            dur.setdefault(s[NAME], []).append(s[END] - s[START])
            if s[PARENT] < 0:
                top_ns += s[END] - s[START]
            else:
                children.setdefault(s[PARENT], []).append(s)
            for key, v in (s[COUNTS] or {}).items():
                counts[f"{s[NAME]}.{key}"] = counts.get(f"{s[NAME]}.{key}", 0) + v
                if key == "vars":
                    max_vars = max(max_vars, v)
        for i, s in enumerate(spans):
            solves = [c for c in children.get(i, ()) if c[NAME] == "lp.solve"]
            if s[NAME] == "delivery.adaptive_plan" and solves:
                build_ns += solves[0][START] - s[START]
                expand_ns += s[END] - solves[-1][END]
    for name in SPAN_TIMES:
        m[f"{name}.time_s"] = sum(dur.get(name, ())) / 1e9
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = len(dur.get(name, ()))
    for name in ("lp.solve", "delivery.adaptive_plan"):
        m[f"{name}.p50_ms"] = _quantile_ms(dur.get(name, []), 50)
        m[f"{name}.p90_ms"] = _quantile_ms(dur.get(name, []), 90)
    m["lp.solve.iterations"] = counts.get("lp.solve.iterations", 0)
    m["lp.solve.vars"] = counts.get("lp.solve.vars", 0)
    m["lp.solve.rows"] = counts.get("lp.solve.rows", 0)
    m["lp.solve.max_vars"] = max_vars
    m["delivery.adaptive_plan.build_s"] = build_ns / 1e9
    m["delivery.adaptive_plan.expand_s"] = expand_ns / 1e9
    m["delivery.symbols_sent"] = counts.get("delivery.build_messages.symbols", 0)
    m["delivery.coded_messages"] = counts.get("delivery.build_messages.coded", 0)
    draws = counts.get("demand.gibbs_sweep.K", 0)
    m["demand.draw_us"] = sum(dur.get("demand.gibbs_sweep", ())) / 1e3 / draws if draws else 0.0
    m["cli.self_s"] = wall_s - top_ns / 1e9
    return m
