"""posetmat benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload oracle7|closure7|requests --seed N
                             --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package under `src/`.
Each pass of the workload runs in a fresh single-threaded process
(`worker.py`), one after the other, until the next pass would end after
`--seconds`; at least one pass always runs.  With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced passes
and prints the per-layer metrics, including the tracing overhead.  See
NOTES.md for what each metric means and why each workload is here.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json is the one list of workloads, metrics and units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
# Every run must end within 180 s; a pass still running at this limit is killed.
RUN_LIMIT_S = 170.0
# Set-up-only processes per untraced run, on top of one discarded warm-up that
# writes the bytecode caches.  set-up time is their median together with the passes'.
SETUP_PROBES = 5
# Each probed CPU costs about 30 ms before every pass.
MAX_PROBED_CPUS = 8


class PassError(Exception):
    pass


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process, and so the next worker, to the allowed CPU that runs a fixed loop fastest now.

    On a shared machine one CPU at times runs a third slower than another,
    and which one is slow changes from minute to minute.  Running each pass
    on the faster CPU takes most of that out of the spread between runs.
    """
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_spin() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def run_worker(args, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", str(int(traced)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    pin_to_fastest_cpu(args.cpus)
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise PassError(f"a {args.workload} pass did not finish within the run limit") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, deadline: float) -> dict[bool, list[dict]]:
    """Untraced passes, alternating with traced ones under --trace 1, within --seconds."""
    kinds = (False, True) if args.trace else (False,)
    done: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    took: dict[bool, float] = {}
    begin = time.monotonic()
    for count in itertools.count():
        kind = kinds[count % len(kinds)]
        if all(done.values()):
            estimate = took.get(kind, max(took.values()))
            if time.monotonic() - begin + estimate > args.seconds:
                break
        start = time.monotonic()
        done[kind].append(run_worker(args, kind, deadline))
        took[kind] = time.monotonic() - start
    return done


def tail_quantile(samples: int) -> float:
    """0.99 once ten samples lie beyond p99 (1,000 samples); the median below that.

    A batch workload has one sample per pass, so its slowest pass would only
    measure the machine's noise.
    """
    return 0.99 if samples >= 1000 else 0.50


def request_samples(passes: list[dict], workload: str) -> list[float]:
    """Request latencies in seconds.  A batch workload serves one request per pass: the whole job."""
    if workload == "requests":
        return [s for p in passes for s in p["latencies"] or ()]
    return [p["wall_s"] for p in passes]


def end_to_end(passes: list[dict], setups: list[float], workload: str) -> dict[str, float]:
    walls = [p["wall_s"] for p in passes]
    samples = request_samples(passes, workload)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "req_p50_ms": percentile(samples, 0.50) * 1000,
        "req_p99_ms": percentile(samples, tail_quantile(len(samples))) * 1000,
        "req_per_s": len(samples) / sum(walls),
    }


def per_layer(traced: list[dict], untraced: list[dict], workload: str, failed: int, attempted: int) -> dict[str, float]:
    names = traced[0]["layers"]
    layers = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    layers["error_rate"] = failed / attempted
    layers["req_count"] = len(request_samples(untraced, workload))
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's smoke size")
    args = parser.parse_args()
    if not (ROOT / "src" / "posetmat" / "__init__.py").is_file():
        print(f"no posetmat package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    args.cpus = sorted(os.sched_getaffinity(0))[:MAX_PROBED_CPUS]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        run_worker(args, False, deadline, setup_only=True)  # warm-up, discarded
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(args, False, deadline, setup_only=True)["setup_s"] for _ in range(probes)]
        done = run_passes(args, deadline)
    except PassError as err:
        print(err, file=sys.stderr)
        return 1
    every = [p for group in done.values() for p in group]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    for failure in sorted({f for p in every for f in p["failures"]})[:10]:
        print("FAIL", failure)

    untraced = done[False]
    if args.trace:
        metrics = per_layer(done[True], untraced, args.workload, failed, attempted)
    else:
        metrics = end_to_end(untraced, setups + [p["setup_s"] for p in untraced], args.workload)
    samples = len(request_samples(untraced, args.workload))
    print(
        f"{args.workload} seed={args.seed} untraced passes={len(untraced)} "
        f"traced passes={len(done.get(True, ()))} request samples={samples} "
        f"attempted={attempted} failed={failed}"
    )
    for name, value in metrics.items():
        print(f"  {name:26} {value:14.6f} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
