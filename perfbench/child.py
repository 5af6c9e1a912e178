"""Run at most one cachecast CLI invocation in this fresh interpreter.

Usage: python3 child.py SPAWN_NS RESULT_JSON TRACE [CLI ARGS...]

SPAWN_NS is the CLOCK_MONOTONIC time, in ns, at which the parent started
this process; set-up time runs from there to ``cachecast.cli`` imported.
With no CLI arguments the child only measures set-up. With TRACE 1 the
layers are wrapped by ``tracer.Tracer`` after the import and before
``main()`` runs. The result JSON is written when the invocation ends.
"""

import sys
import time


def main() -> None:
    spawn_ns, result_path, trace = int(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    import cachecast.cli as cli

    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    import json

    result = {"setup_s": (imported_ns - spawn_ns) / 1e9}
    if cli_args:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter_ns()
        result["exit_code"] = cli.main(cli_args)
        result["wall_s"] = (time.perf_counter_ns() - start) / 1e9
        result["spans"] = tracer.spans if tracer else []
    else:
        import numpy as np

        result["numpy"] = np.__version__
        try:
            result["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        except (AttributeError, KeyError):
            result["blas"] = None
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
