"""Self-tests of the benchmark on a tiny smoke configuration.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer

SMOKE_SWEEP = run.Workload(
    "smoke-sweep",
    lambda pseed: [["sweep", "--K", "5", "--N", "20", "--m-ratio", "0.2:0.2:0.4",
                    "--jobs", "1", "--out", "sweep.csv"]],
    ("sweep.csv",), seeded=False, digest_fails=True)
SMOKE_VERIFY = run.Workload(
    "smoke-verify",
    lambda pseed: [["verify", "--K", "3", "--N", "6", "--m-ratio", "0.34", "--F", "300",
                    "--samples", "2", "--placement", "decentralized", "--seed", str(pseed),
                    "--out", "verify.txt"]],
    ("verify.txt",), seeded=True, digest_fails=True, check=run.check_verify)
SMOKE_SIMULATE = run.Workload(
    "smoke-simulate",
    lambda pseed: [["simulate", "--K", "4", "--N", "50", "--chains", "2", "--burn-in", "5",
                    "--samples", "30", "--m-ratio", "0.25", "--r", "0.9", "--seed", str(pseed),
                    "--jobs", "1", "--out", "sim0"]],
    ("sim0_stats.csv",), seeded=True, digest_fails=False)


def _deadline() -> float:
    return time.monotonic() + 120.0


def _reference(workload, seed) -> dict:
    run.WORK.mkdir(exist_ok=True)
    pseed = run.program_seed(workload, seed)
    job = run.run_job(workload, pseed, False, _deadline())
    assert not job.failures, job.failures
    return {workload.name: {str(pseed): job.digest}}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    seen = set()
    for workload in (SMOKE_SWEEP, SMOKE_VERIFY, SMOKE_SIMULATE):
        result = run.report(run.measure(workload, 3, 0, trace, _reference(workload, 3)), trace)
        assert list(result["metrics"]) == names
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == (2 if trace else 1)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        seen |= {k for k, m in result["metrics"].items() if m["value"]}
    if trace:
        # every layer metric is exercised by some workload
        assert seen >= set(names) - {"trace.overhead_s"}


def _corrupt_one_byte(name):
    def check(job: Path):
        path = job / name
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0x01
        path.write_bytes(bytes(data))
        return []
    return check


@pytest.mark.parametrize("workload, output", [(SMOKE_SWEEP, "sweep.csv"),
                                              (SMOKE_VERIFY, "verify.txt")])
def test_error_rate_rises_when_one_output_byte_is_corrupted(workload, output):
    reference = _reference(workload, 5)
    clean = run.measure(workload, 5, 0, False, reference)
    assert clean["error_rate"] == 0
    broken = run.measure(replace(workload, check=_corrupt_one_byte(output)), 5, 0, False,
                         reference)
    assert broken["failed"] == broken["attempted"] >= 1
    assert broken["error_rate"] > clean["error_rate"]
    assert not run.report(broken, False)["correct"]


def test_simulate_digest_mismatch_is_reported_not_failed():
    reference = {SMOKE_SIMULATE.name: {"3": "0" * 64}}
    result = run.measure(SMOKE_SIMULATE, 3, 0, False, reference)
    assert result["failed"] == 0
    assert any("digest" in n for n in result["notes"])


def test_spans_nest_and_self_times_are_nonnegative():
    run.WORK.mkdir(exist_ok=True)
    for workload, pseed in ((SMOKE_SWEEP, None), (SMOKE_VERIFY, 1)):
        job = run.run_job(workload, pseed, True, _deadline())
        assert not job.failures, job.failures
        for wall, spans in job.calls:
            assert spans
            for s in spans:
                assert s[tracer.START] <= s[tracer.END]
                if s[tracer.PARENT] >= 0:
                    p = spans[s[tracer.PARENT]]
                    assert p[tracer.START] <= s[tracer.START] <= s[tracer.END] <= p[tracer.END]
                if s[tracer.NAME] == "lp.solve" and workload is SMOKE_SWEEP:
                    assert spans[s[tracer.PARENT]][tracer.NAME] == "delivery.adaptive_plan"
            assert min(tracer.self_times(spans)) >= 0
            top = sum(s[tracer.END] - s[tracer.START] for s in spans if s[tracer.PARENT] < 0)
            assert top <= wall * 1e9
        m = tracer.layer_metrics(job.calls)
        assert m["cli.self_s"] >= 0
        assert m["delivery.adaptive_plan.build_s"] > 0
        assert m["delivery.adaptive_plan.expand_s"] > 0


def test_tracer_wraps_functions_never_classes(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from cachecast import delivery

    t = tracer.Tracer()
    with pytest.raises(TypeError):
        t.wrap(delivery, "TransferPlan", "delivery.TransferPlan")
    assert isinstance(delivery.TransferPlan, type)


def _write_simulate_job(job: Path, L_shift=0.0, epsr=1.002):
    for i, (r, theta) in enumerate(run.SIM_SETTINGS):
        L_avg, rho_avg = run.SIM_SETTINGS[(r, theta)]
        (job / f"sim{i}_stats.csv").write_text(
            "r,theta,rho_max,rho_avg,L_avg\n"
            f"{r},{theta},0.4,{rho_avg},{L_avg + (L_shift if i == 2 else 0.0)}\n")
        (job / f"call{i}.err").write_text(f"epsr: {epsr}\n")


@pytest.mark.parametrize("L_shift, epsr, fails", [
    (0.0, 1.002, False), (0.29, 1.009, False), (0.31, 1.002, True), (0.0, 1.011, True),
    (-0.31, 1.002, True), (0.0, 0.989, True),
])
def test_simulate_gates_are_the_acceptance_8_gates(L_shift, epsr, fails):
    run.WORK.mkdir(exist_ok=True)
    job = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        _write_simulate_job(job, L_shift, epsr)
        assert bool(run.check_simulate(job)) == fails
    finally:
        shutil.rmtree(job)


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(["--workload", "sweep-k12", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
