"""The three workloads: inputs from a seed, the timed calls, and the answer checks.

Each workload has `prepare(seed, size)` (set-up, untimed), `execute(inputs)`
(the timed part; returns outputs and, for `requests`, one latency per
request) and `check(inputs, outputs)` (untimed; returns attempted, failed and
a description of each failure).  Every call goes through the `posetmat`
package attributes at call time, so a traced run sees it.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import reqgen

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"

# OEIS A000112 (all posets) and A000608 (connected posets), orders 1..7.
POSET_COUNTS = {1: (1, 1), 2: (2, 1), 3: (5, 3), 4: (16, 10), 5: (63, 44), 6: (318, 238), 7: (2045, 1650)}

# composition_closure: (total, connected, invalid_outputs) per order, as the
# composition route reaches them.
CLOSURE_TABLE = {
    2: (2, 1, 0),
    3: (5, 3, 0),
    4: (16, 10, 0),
    5: (63, 44, 4),
    6: (315, 235, 62),
    7: (1960, 1568, 706),
}
# SHA-256 of the emitted index.tsv, recorded at commit ec5071a.  Canonical
# keys and recipes are a stable interface, so these bytes must not change.
INDEX_SHA256 = {
    5: "acccd961bbb78972363d89c07c7018e838e63cae873a2122b2a546b44511159d",
    7: "eef660bd880954b9db067adb26f5f615eaf3e58ac9f1d0994840eb2b2b447f34",
}

# Full size is what the benchmark measures; tiny is the self-test's smoke size.
SIZES = {
    "oracle7": {"full": 7, "tiny": 5},
    "closure7": {"full": 7, "tiny": 5},
    "requests": {"full": 3000, "tiny": 60},
}


def _pm():
    import posetmat

    return posetmat


# ---------------------------------------------------------------- oracle7


@dataclass
class OracleInputs:
    max_order: int
    expected: dict[int, tuple[int, int]]


def oracle_prepare(seed: int, size: str) -> OracleInputs:
    # The oracle walk has no free input: the seed changes nothing here.
    max_order = SIZES["oracle7"][size]
    return OracleInputs(max_order, {n: POSET_COUNTS[n] for n in range(1, max_order + 1)})


def oracle_execute(inputs: OracleInputs):
    pm = _pm()
    counts = {}
    for n in range(1, inputs.max_order + 1):
        catalog = pm.enumerate_oracle(n, workers=1)
        counts[n] = (catalog.total, catalog.connected_count)
    return counts, None


def oracle_check(inputs: OracleInputs, counts) -> tuple[int, int, list[str]]:
    counts = counts or {}
    failures = [
        f"order {n}: (total, connected) {counts.get(n)}, expected {want}"
        for n, want in inputs.expected.items()
        if counts.get(n) != want
    ]
    return len(inputs.expected), len(failures), failures


# ---------------------------------------------------------------- closure7


@dataclass
class ClosureInputs:
    max_order: int
    expected: dict[int, tuple[int, int, int]]
    index_sha256: str
    directory: Path


def closure_prepare(seed: int, size: str) -> ClosureInputs:
    # Like oracle7, the closure has no free input.  emit_catalog creates the
    # directory; check removes it.
    max_order = SIZES["closure7"][size]
    directory = BUILD_DIR / f"closure-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    expected = {n: CLOSURE_TABLE[n] for n in range(2, max_order + 1)}
    return ClosureInputs(max_order, expected, INDEX_SHA256[max_order], directory)


def closure_execute(inputs: ClosureInputs):
    pm = _pm()
    catalogs = pm.composition_closure(inputs.max_order, workers=1)
    pm.emit_catalog(catalogs[inputs.max_order], inputs.directory)
    return catalogs, None


def closure_check(inputs: ClosureInputs, catalogs) -> tuple[int, int, list[str]]:
    catalogs = catalogs or {}
    try:
        failures = []
        for n, want in inputs.expected.items():
            got = None
            if n in catalogs:
                c = catalogs[n]
                got = (c.total, c.connected_count, c.invalid_outputs)
            if got != want:
                failures.append(f"order {n}: (total, connected, invalid) {got}, expected {want}")
        index = inputs.directory / "index.tsv"
        digest = hashlib.sha256(index.read_bytes()).hexdigest() if index.is_file() else None
        if digest != inputs.index_sha256:
            failures.append(f"index.tsv sha256 {digest}, expected {inputs.index_sha256}")
        return len(inputs.expected) + 1, len(failures), failures
    finally:
        shutil.rmtree(inputs.directory, ignore_errors=True)


# ---------------------------------------------------------------- requests


def _serve(pm, request: reqgen.Request):
    """One library request, from text to a rendered answer."""
    kind, args = request.kind, request.args
    if kind == "canon":
        return pm.canonical_form(pm.parse_matrix(args[0])).render()
    if kind == "iso":
        return pm.are_isomorphic(pm.parse_matrix(args[0]), pm.parse_matrix(args[1]))
    if kind == "compose":
        a_text, op, i, b_text = args
        result = pm.compose(pm.parse_matrix(a_text), pm.CompositionKind(op), i, pm.parse_matrix(b_text))
    else:
        text, symbols = args
        table = {name: pm.parse_matrix(body) for name, body in symbols}
        result = pm.eval_recipe(pm.parse_recipe(text, table))
    if result.valid:
        return result.order, True, pm.serialize_matrix(result.poset()), result.rows, ()
    return result.order, False, result.report.summary(), result.rows, result.report.violations


def requests_prepare(seed: int, size: str) -> list[reqgen.Request]:
    return reqgen.make_stream(seed, SIZES["requests"][size])


def requests_execute(stream: list[reqgen.Request]):
    pm = _pm()
    clock = time.perf_counter
    answers, latencies = [], []
    for request in stream:
        start = clock()
        try:
            answer = _serve(pm, request)
        except Exception as err:  # an unexpected exception is a failed request
            answer = err
        latencies.append(clock() - start)
        answers.append(answer)
    return answers, latencies


def _rows_of_text(text: str) -> tuple[tuple[int, ...], ...]:
    """Rows of a serialized matrix, read without posetmat; the labels line is skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("labels:")]
    return tuple(tuple(int(c) for c in ln.split()) for ln in lines[1:])


def _lower_triangular(rows) -> bool:
    return all(rows[y][z] == 0 for y in range(len(rows)) for z in range(y + 1, len(rows)))


def _wrong(request: reqgen.Request, answer, keys: dict[int, str]) -> str | None:
    """Why `answer` is wrong for `request`, or None when it is right."""
    if isinstance(answer, Exception):
        return f"raised {answer!r}"
    if request.kind == "canon":
        group, bits = request.answer
        order, _, packed = answer.partition(":")
        if int(order) != len(_rows_of_text(request.args[0])):
            return f"key {answer} has the wrong order"
        if bin(int(packed, 16)).count("1") != bits:
            return f"key {answer} does not have {bits} relation bits"
        if keys.setdefault(group, answer) != answer:
            return f"key {answer} differs from {keys[group]} for another labeling"
        return None
    if request.kind == "iso":
        return None if answer is request.answer else f"are_isomorphic gave {answer}"
    order, valid, text, rows, violations = answer
    if request.kind == "compose":
        want_order, want_text = request.answer
        if order != want_order or len(rows) != want_order:
            return f"order {order}, expected {want_order}"
        if valid != reqgen.axioms_hold(rows):
            return f"valid flag {valid} disagrees with the axioms"
        if want_text is not None and (not valid or _rows_of_text(text) != _rows_of_text(want_text)):
            return "sq output differs from the reference composition"
    elif isinstance(request.answer, str):
        if not valid or _rows_of_text(text) != _rows_of_text(request.answer):
            return "recipe output differs from the reference composition"
    elif valid or request.answer not in violations:
        return f"expected an invalid result with witness {request.answer}"
    if valid and (_rows_of_text(text) != tuple(rows) or not _lower_triangular(rows)):
        return "serialized text does not match the result"
    return None


def requests_check(stream, answers) -> tuple[int, int, list[str]]:
    if answers is None:
        answers = [RuntimeError("the pass did not finish")] * len(stream)
    keys: dict[int, str] = {}
    failures = []
    for position, (request, answer) in enumerate(zip(stream, answers)):
        reason = _wrong(request, answer, keys)
        if reason:
            failures.append(f"request {position} ({request.kind}): {reason}")
    return len(stream), len(failures), failures


@dataclass(frozen=True)
class Workload:
    prepare: object
    execute: object
    check: object


WORKLOADS = {
    "oracle7": Workload(oracle_prepare, oracle_execute, oracle_check),
    "closure7": Workload(closure_prepare, closure_execute, closure_check),
    "requests": Workload(requests_prepare, requests_execute, requests_check),
}
