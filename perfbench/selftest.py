"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

1. Smoke: every workload at tiny size, untraced and traced, through run.py.
   Each must be correct, print exactly the metrics BENCHMARK.json lists with
   their units, and give no zero end-to-end metric.
2. Wrong answers count: each workload run in this process with one expected
   answer made wrong must report at least one failure.
3. The request stream has the stated mix and repeat share.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import reqgen
import workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list[str], cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        print("FAILED:", message)
        sys.exit(1)
    print("ok:", message)


def smoke() -> None:
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run(["--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            check(proc.returncode == 0, f"{name} trace={trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace} is correct")
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            check(units == {m["name"]: m["unit"] for m in listed},
                  f"{name} trace={trace} prints the listed metrics with their units")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name} end-to-end metrics are non-zero")


def wrong_answers_fail() -> None:
    sys.path.insert(0, str(ROOT / "src"))

    def corrupt_oracle(inputs):
        inputs.expected[3] = (6, 3)

    def corrupt_closure(inputs):
        inputs.expected[4] = (17, 10, 0)
        inputs.index_sha256 = "0" * 64

    def corrupt_requests(stream):
        at = next(k for k, r in enumerate(stream) if r.kind == "iso")
        stream[at] = reqgen.Request("iso", stream[at].args, not stream[at].answer)

    for name, corrupt, least in (
        ("oracle7", corrupt_oracle, 1),
        ("closure7", corrupt_closure, 2),
        ("requests", corrupt_requests, 1),
    ):
        workload = workloads.WORKLOADS[name]
        inputs = workload.prepare(1, "tiny")
        corrupt(inputs)
        outputs, _ = workload.execute(inputs)
        attempted, failed, failures = workload.check(inputs, outputs)
        check(failed >= least and failed / attempted > 0,
              f"{name}: a wrong expected answer raises error_rate to {failed}/{attempted}")


def stream_mix() -> None:
    stream = reqgen.make_stream(1)
    kinds = Counter(r.kind for r in stream)
    check(len(stream) == 3000, f"stream has 3000 requests ({dict(kinds)})")
    for kind in ("canon", "iso"):
        texts = [r.args for r in stream if r.kind == kind]
        repeats = sum(1 for k, args in enumerate(texts) if args in texts[:k])
        share = repeats / len(texts)
        check(0.19 <= share <= 0.23, f"{share:.3f} of {kind} requests repeat an earlier text exactly")


def fails_without_program() -> None:
    bare = workloads.BUILD_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "requests", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without src/posetmat run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    smoke()
    wrong_answers_fail()
    stream_mix()
    fails_without_program()
    print("selftest passed")
