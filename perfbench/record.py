"""Record the reference output digest of every benchmark input.

Usage, from the repository root:

    python3 perfbench/record.py

Runs each workload once per program seed (0 .. SEED_POOL-1; once for an
unseeded workload) on the current sources and writes
perfbench/reference.json. A job whose own checks fail is not recorded:
the script exits non-zero instead. Re-record only when a change is meant
to alter the output bytes, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    reference = {"git_commit": run._git_commit(), "source_sha256": run._source_digest()}
    for workload in run.WORKLOADS.values():
        seeds = range(run.SEED_POOL) if workload.seeded else [None]
        digests = {}
        for pseed in seeds:
            job = run.run_job(workload, pseed, False, time.monotonic() + run.RUN_DEADLINE_S)
            if job.failures:
                print(f"{workload.name} seed {pseed}: {job.failures}", file=sys.stderr)
                return 1
            digests[str(pseed)] = job.digest
            print(f"{workload.name} seed {pseed}: {job.digest} ({job.wall_s:.2f} s)")
        reference[workload.name] = digests
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
