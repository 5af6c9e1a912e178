"""The cachecast benchmark: three CLI workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-k12 --seed 1 --seconds 40 --trace 0

Workloads (BENCHMARK.json and perfbench/RATIONALE.md say why each exists):

  sweep-k12     adaptive LPs over all 77 patterns at K=12, two grid points
  simulate-acc  Gibbs-sampled demands in the acceptance-8 configuration
  verify-bits   bit-level XOR build/decode of all three delivery schemes

Each workload job is a closed loop of CLI invocations, one at a time, each
in a fresh interpreter (perfbench/child.py) with single-threaded BLAS, so
no in-process state carries from one sample to the next. The run repeats
whole jobs until --seconds have passed, checks every job's outputs, and
prints a readable summary and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 alternates plain and traced jobs and reports
the per-layer metrics from the traced ones (perfbench/tracer.py).

Program seeds are the benchmark seed modulo SEED_POOL, so every input the
benchmark can generate has a reference digest in perfbench/reference.json
(written by perfbench/record.py).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"

SEED_POOL = 8
# Without these, OpenBLAS threads burned 28.9 s CPU for 24 s wall at K=12
# on 2 CPUs and slowed lp.solve; users of a batch tool pin them too.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Children inherit no PYTHON* setting of the caller (such as
# PYTHONDONTWRITEBYTECODE, which would recompile the package at every
# start), so set-up is measured as an installed CLI pays it.
CHILD_ENV = {"PYTHONPATH": str(SRC), **BLAS_ENV}
SETUP_PROBES = 7  # at least this many per run
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s

# Acceptance 8 of tests/test_acceptance.py, with its tolerances:
# (r, theta) -> (L_avg target, rho_avg target)
SIM_SETTINGS = {(0.7, 0.0): (4.80, 0.16), (0.9, 0.0): (3.41, 0.32), (0.9, 0.75): (3.18, 0.31)}
L_TOL, RHO_TOL, EPSR_TOL = 0.3, 0.05, 0.01


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch job of CLI invocations and its output checks."""

    name: str
    argvs: Callable  # program seed (None if unseeded) -> list of CLI argument lists
    outputs: tuple  # files whose bytes form the job's digest
    seeded: bool
    digest_fails: bool  # a digest mismatch fails the job; otherwise it is a note
    check: Callable | None = None  # (job dir) -> list of failures


def _sweep_argvs(pseed):
    return [["sweep", "--K", "12", "--N", "1000", "--m-ratio", "0.1:0.3:0.4",
             "--jobs", "1", "--out", "sweep.csv"]]


def _simulate_argvs(pseed):
    return [["simulate", "--K", "8", "--N", "1000", "--chains", "5", "--burn-in", "150",
             "--samples", "1000", "--m-ratio", "0.075:0.05:0.125", "--r", str(r),
             "--theta", str(theta), "--seed", str(pseed), "--jobs", "1", "--out", f"sim{i}"]
            for i, (r, theta) in enumerate(SIM_SETTINGS)]


def _verify_argvs(pseed):
    return [["verify", "--K", "8", "--N", "50", "--m-ratio", "0.25", "--F", "20000",
             "--samples", "20", "--placement", "decentralized", "--seed", str(pseed),
             "--out", "verify.txt"]]


def check_simulate(job: Path) -> list[str]:
    """Acceptance-8 gates on each setting's stats CSV and the epsr on stderr."""
    failures = []
    for i, (r, theta) in enumerate(SIM_SETTINGS):
        L_tab, rho_tab = SIM_SETTINGS[(r, theta)]
        with open(job / f"sim{i}_stats.csv") as fh:
            stats = next(csv.DictReader(fh))
        L_avg, rho_avg = float(stats["L_avg"]), float(stats["rho_avg"])
        epsr = [float(line.split()[1]) for line in (job / f"call{i}.err").read_text().splitlines()
                if line.startswith("epsr:")]
        where = f"r={r} theta={theta}"
        if abs(L_avg - L_tab) > L_TOL:
            failures.append(f"{where}: L_avg {L_avg} vs {L_tab}")
        if abs(rho_avg - rho_tab) > RHO_TOL:
            failures.append(f"{where}: rho_avg {rho_avg} vs {rho_tab}")
        if len(epsr) != 1 or abs(epsr[0] - 1.0) > EPSR_TOL:
            failures.append(f"{where}: epsr {epsr}")
    return failures


def check_verify(job: Path) -> list[str]:
    lines = (job / "verify.txt").read_text().splitlines()
    return [] if lines and lines[-1] == "PASS" else ["verify report does not end in PASS"]


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-k12", _sweep_argvs, ("sweep.csv",), seeded=False, digest_fails=True),
        Workload("simulate-acc", _simulate_argvs,
                 tuple(f"sim{i}_{part}.csv" for i in range(len(SIM_SETTINGS))
                       for part in ("samples", "stats", "rates")),
                 seeded=True, digest_fails=False, check=check_simulate),
        Workload("verify-bits", _verify_argvs, ("verify.txt",), seeded=True,
                 digest_fails=True, check=check_verify),
    )
}


def output_digest(job: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (job / name).read_bytes() + b"\0")
    return h.hexdigest()


def program_seed(workload: Workload, seed: int):
    return seed % SEED_POOL if workload.seeded else None


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(job: Path, tag: str, cli_args, trace: bool, deadline: float):
    """Run child.py once; return (exit status, rusage, result dict or None)."""
    result_path = job / f"{tag}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(CHILD_ENV)
    with open(job / f"{tag}.out", "wb") as out, open(job / f"{tag}.err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(_now_ns()), str(result_path),
             "1" if trace else "0", *cli_args],
            cwd=job, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    return proc.returncode, usage, result


@dataclass
class Job:
    """One measured workload job: its cost, its checks, and its spans."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    calls: list = field(default_factory=list)  # (main() wall, spans) per invocation
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    digest: str | None = None


def run_job(workload: Workload, pseed, trace: bool, deadline: float) -> Job:
    """Run every CLI invocation of one job, each in a fresh interpreter."""
    job_dir = Path(tempfile.mkdtemp(dir=WORK))
    job = Job()
    try:
        for i, argv in enumerate(workload.argvs(pseed)):
            status, usage, result = run_child(job_dir, f"call{i}", argv, trace, deadline)
            job.cpu_s += usage.ru_utime + usage.ru_stime
            job.peak_rss_mb = max(job.peak_rss_mb, usage.ru_maxrss / 1024)
            if result is None or result["exit_code"] != 0:
                code = status if result is None else result["exit_code"]
                job.failures.append(f"{argv[0]} invocation {i} exited with {code}")
                continue
            job.wall_s += result["wall_s"]
            job.calls.append((result["wall_s"], result["spans"]))
        if not job.failures:
            if workload.check is not None:
                job.failures += workload.check(job_dir)
            job.digest = output_digest(job_dir, workload.outputs)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        job.failures.append(f"output check could not run: {exc!r}")
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
    return job


def judge_digest(job: Job, workload: Workload, pseed, reference: dict) -> None:
    if job.digest is None:
        return
    want = reference.get(workload.name, {}).get(str(pseed))
    if job.digest != want:
        msg = f"output digest {job.digest[:16]} differs from reference {str(want)[:16]}"
        (job.failures if workload.digest_fails else job.notes).append(msg)


def setup_probe(deadline: float) -> dict:
    """Time interpreter start to ``cachecast.cli`` imported in a fresh child."""
    job_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        status, _, result = run_child(job_dir, "setup", [], False, deadline)
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
    if result is None:
        raise RuntimeError(f"set-up probe exited with {status}")
    return result


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cachecast").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas": probe.get("blas"),
        "child_env": {k: v for k, v in CHILD_ENV.items() if k != "PYTHONPATH"},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    """Run jobs for about ``seconds`` and return the result and diagnostics."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    pseed = program_seed(workload, seed)
    env = environment(setup_probe(deadline))  # also compiles bytecode once
    probes = [speed_probe()]

    def probe_setup(count):
        return [setup_probe(deadline)["setup_s"] for _ in range(count)
                if time.monotonic() < deadline - 5.0]

    # set-up probes are spread over the run, so their median sees the same
    # machine phases as the jobs do
    setups = probe_setup(3)
    plain: list[Job] = []
    traced: list[Job] = []
    t0 = time.monotonic()
    while True:
        lap = time.monotonic()
        for jobs, tracing in ((plain, False), (traced, True))[: 1 + trace]:
            job = run_job(workload, pseed, tracing, deadline)
            judge_digest(job, workload, pseed, reference)
            jobs.append(job)
        setups += probe_setup(2)
        now = time.monotonic()
        took = now - lap
        if now - t0 + took > seconds or now + took > deadline:
            break
    setups += probe_setup(max(SETUP_PROBES - len(setups), 0))
    probes.append(speed_probe())

    jobs = plain + traced
    failed = sum(1 for j in jobs if j.failures)
    if trace:
        from tracer import layer_metrics

        per_job = [layer_metrics(j.calls) for j in traced]
        values = {k: _median([m[k] for m in per_job]) for k in per_job[0]}
        values["trace.overhead_s"] = (_median([j.wall_s for j in traced])
                                      - _median([j.wall_s for j in plain]))
    else:
        values = {
            "wall_s": _median([j.wall_s for j in plain]),
            "cpu_s": _median([j.cpu_s for j in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([j.peak_rss_mb for j in plain]),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "program_seed": pseed,
        "values": values,
        "attempted": len(jobs),
        "failed": failed,
        "error_rate": failed / len(jobs),
        "wall_s_per_job": [j.wall_s for j in plain],
        "traced_wall_s_per_job": [j.wall_s for j in traced],
        "setup_s_probes": setups,
        "speed_probe_s": probes,
        "failures": [f for j in jobs for f in j.failures],
        "notes": sorted({n for j in jobs for n in j.notes}),
        "env": env,
    }


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(run: dict, trace: bool) -> dict:
    """Print the readable summary and return the final result object."""
    specs = metric_specs(trace)
    values = run["values"]
    print(f"perfbench {run['workload']} seed={run['seed']} program_seed={run['program_seed']}"
          f" jobs={run['attempted']} trace={int(trace)}")
    for s in specs:
        print(f"  {s['name']:40s} {values[s['name']]:>16.6f} {s['unit']}")
    print(f"  {'error_rate':40s} {run['error_rate']:>16.6f} failed/attempted"
          f" ({run['failed']}/{run['attempted']})")
    wall = _median(run["traced_wall_s_per_job"])
    if trace and wall:
        for name in ("delivery.adaptive_plan.time_s", "demand.gibbs_sweep.time_s",
                     "placement.cache_view.time_s", "delivery.decode.time_s"):
            print(f"  share of traced wall  {name:34s} {values[name] / wall:8.1%}")
    for line in run["failures"]:
        print(f"  FAILED: {line}")
    for line in run["notes"]:
        print(f"  note: {line}")
    print(json.dumps({k: run[k] for k in ("wall_s_per_job", "traced_wall_s_per_job",
                                           "setup_s_probes", "speed_probe_s", "env")}))
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cachecast" / "cli.py").is_file():
        print(f"perfbench: no cachecast sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    result = report(run, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
