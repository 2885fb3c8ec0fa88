#!/usr/bin/env python3
"""Check that the tests kill a list of one-line mutants of the package.

Each entry of MUTANTS names a file, an exact text in it, the text that
replaces it, and the test file, or test, that must then fail.  The script
copies `src/`, `tests/` and `pyproject.toml` to a temporary directory,
runs each named test file or test there once unmutated, and then, for
each entry, applies its edit to the copy and runs the named tests with
`-x`.  It exits 1 when a mutant survives (its tests pass), when an old
text is not found exactly once, or when a named test fails unmutated.
The working tree is not changed.

    python scripts/mutants.py

A change that renames a mutated text updates its entry here.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, exact old text, new text, test file or test)
MUTANTS = [
    # The oracle's second test: no child is rejected for its canonical last element.
    (
        "src/posetmat/canon.py",
        "if x != k and not _orbit(1 << x, record.generators) >> k & 1:",
        "if False:",
        "tests/test_enumeration.py",
    ),
    # are_isomorphic searches pairs whose down-set size profiles differ.
    (
        "src/posetmat/canon.py",
        "if a.order != b.order or sorted(map(int.bit_count, a.masks)) != sorted(map(int.bit_count, b.masks)):",
        "if a.order != b.order:",
        "tests/test_canon.py",
    ),
    # The canonical search's orbit skip never skips a block.
    (
        "src/posetmat/canon.py",
        "if explored & block:",
        "if False:",
        "tests/test_canon.py",
    ),
    # Every poset is connected.
    (
        "src/posetmat/core.py",
        "return len(_components(m.masks)) == 1",
        "return len(_components(m.masks)) >= 1",
        "tests/test_core.py",
    ),
    # The oracle tops every ideal of a parent: no orbit skip.
    (
        "src/posetmat/enumeration.py",
        "_ideal_orbit_leaders(masks, k, parent.generators)",
        "_ideal_orbit_leaders(masks, k, ())",
        "tests/test_enumeration.py",
    ),
    # A parent whose search of its child over all of it branches still replays that path.
    (
        "src/posetmat/canon.py",
        "if any(a[0] >= b[0] for a, b in zip(path, path[1:])):",
        "if False:",
        "tests/test_enumeration.py",
    ),
    # The replay keeps a child whose own block ties with the path's, where it must search it.
    (
        "src/posetmat/canon.py",
        "return None  # a tie with the path's block: search it",
        "return row | 1",
        "tests/test_enumeration.py",
    ),
    # The replay compares one row of k's block when k joins a block of R, so it decides no join child.
    (
        "src/posetmat/canon.py",
        "self.blocks[self.index[s]][1].bit_count() + 1 if s in self.index else 1",
        "1",
        "tests/test_enumeration.py",
    ),
    # Every catalog entry reads as connected.
    (
        "src/posetmat/enumeration.py",
        "return is_connected(self.representative)",
        "return True",
        "tests/test_enumeration.py",
    ),
    # The order line takes any Unicode digit, which `int` reads.
    (
        "src/posetmat/io.py",
        "head.isascii() and head.isdigit()",
        "head.isdigit()",
        "tests/test_io.py",
    ),
    # A row of n cells that spells more than n characters is read as 0/1 bits.
    (
        "src/posetmat/io.py",
        'len(bits) != order or bits.strip("01")',
        'bits.strip("01")',
        "tests/test_io.py",
    ),
    # A recipe nested exactly MAX_RECIPE_DEPTH deep is refused.
    (
        "src/posetmat/io.py",
        "self.depth > MAX_RECIPE_DEPTH",
        "self.depth >= MAX_RECIPE_DEPTH",
        "tests/test_io.py",
    ),
    # The closure's memo skips a repeated invalid output without counting it.
    (
        "src/posetmat/enumeration.py",
        "packed = seen[masks]",
        "if (packed := seen[masks]) is None: continue",
        "tests/test_enumeration.py::test_closure_table_through_order7",
    ),
    # The closure keys its outputs through the process-wide cache, which then holds every output.
    (
        "src/posetmat/enumeration.py",
        "    _record,\n",
        "    _canonical_record as _record,\n",
        "tests/test_enumeration.py::test_closure_caches_only_its_operands",
    ),
    # CanonicalKey.parse accepts the key of any valid lower-triangular matrix, canonical or not.
    (
        "src/posetmat/canon.py",
        " and _canonical_record(masks)[0] == packed",
        "",
        "tests/test_canon.py",
    ),
    # A label may hold the matrix file's comment sign.
    (
        "src/posetmat/core.py",
        'label.split() != [label] or "#" in label',
        "label.split() != [label]",
        "tests/test_core.py",
    ),
]


def run_tests(tree: Path, test_file: str, *options: str) -> int:
    """Pytest's exit code for one test file or test of the tree, with no byte code or cache written."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, test_file]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="posetmat-mutants-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        for test_file in sorted({m[3] for m in MUTANTS}):
            if run_tests(tree, test_file) != 0:
                failures.append(f"{test_file} fails on the unmutated tree")
        for file, old, new, test_file in MUTANTS:
            path = tree / file
            source = path.read_text()
            if source.count(old) != 1:
                failures.append(f"{file}: {old!r} occurs {source.count(old)} times, not once")
                continue
            path.write_text(source.replace(old, new))
            try:
                code = run_tests(tree, test_file, "-x")
            finally:
                path.write_text(source)
            # Exit code 1 is a failed test; anything else did not run the tests.
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{verdict}: {file}: {old!r} -> {new!r} ({test_file})")
            if code != 1:
                failures.append(f"{file}: {old!r} -> {new!r}: {verdict}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
