"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --seeds 1-10 [--workloads sweep-k12,verify-bits]
        [--seconds 40] [--trace 0] [--out runs.json] [--against earlier.json]

Runs the command of BENCHMARK.json once per (seed, workload), interleaving
the workloads within each seed so slow phases of the machine spread over
all of them. For each end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median beside the metric's bound;
--against compares the medians with an earlier --out file. The speed
probe is printed beside each run as a diagnostic only. With --seeds 1 it
is the one command that runs every workload once and prints each one's
end-to-end metrics, with units, and its error rate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]),
            "diagnostics": json.loads(lines[-2])}


def summarize(runs, specs) -> dict:
    out = {}
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        for s in specs:
            vals = [r["result"]["metrics"][s["name"]]["value"] for r in mine]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out[f"{w}/{s['name']}"] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med if med else 0.0,
                                       "bound": s.get("bound"), "values": vals}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    specs = bench["per_layer" if args.trace else "end_to_end"]

    runs = []
    for seed in _seeds(args.seeds):
        for w in args.workloads.split(","):
            r = run_once(bench["command"], w, seed, args.seconds, args.trace)
            runs.append(r)
            res = r["result"]
            shown = " ".join(f"{k}={v['value']:.4g} {v['unit']}"
                             for k, v in list(res["metrics"].items())[:6])
            print(f"seed {seed:3d} {w:14s} {shown} error_rate={res['failed'] / res['attempted']:g}"
                  f" ({res['failed']}/{res['attempted']})"
                  f" probe_s={r['diagnostics']['speed_probe_s']}", flush=True)

    summary = summarize(runs, specs)
    earlier = json.loads(Path(args.against).read_text())["summary"] if args.against else {}
    worst = 0.0
    print(f"{'workload/metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"
          f" {'bound':>6s} {'drift':>8s}")
    for key, s in summary.items():
        drift = ""
        if key in earlier:
            d = s["median"] / earlier[key]["median"] - 1.0
            drift = f"{d:+8.2%}"
        if s["bound"] and not key.endswith("/setup_s"):
            worst = max(worst, s["spread"] / s["bound"])
        print(f"{key:34s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g}"
              f" {s['spread']:8.2%} {s['bound'] or '':>6} {drift}")
    print(f"largest spread / bound (setup_s excepted): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
