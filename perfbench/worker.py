"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
                                --trace 0|1 --spawned T [--setup-only]

`--spawned` is the `time.monotonic()` reading the parent took just before
starting this process, so set-up time covers interpreter start, importing
posetmat and building the inputs.  `run.py` starts one of these per pass:
posetmat memoises canonical forms for the life of a process, so a second pass
in the same process would measure the cache, not the program.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(workloads.ROOT / "src"))
    import posetmat  # noqa: F401  (timed as part of set-up)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.size)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        outputs, latencies = workload.execute(inputs)
        error = None
    except Exception:  # the pass stopped; check counts every operation as failed
        outputs, latencies, error = None, None, traceback.format_exc()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted, failed, failures = workload.check(inputs, outputs)
    if error is not None:
        sys.stderr.write(error)
        failures = ["pass raised: " + error.strip().splitlines()[-1]]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": peak_rss_kb,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
