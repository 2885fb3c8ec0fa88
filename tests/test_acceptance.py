"""Acceptance checklist for the package.

One test per release criterion, in order.  Each test finishes by
printing a single summary line, so ``pytest -s tests/test_acceptance.py``
reads as a checklist; a failing criterion shows up as an ordinary pytest
failure instead of a line.  The extended order-7 and order-8 count runs
hide behind the ``slow`` marker (``pytest -m slow``).
"""
import itertools
import random
import time

import pytest

from posetmat import (
    CompositionKind,
    PosetMatrix,
    canonical_form,
    compose,
    dual,
    is_connected,
    maximal_elements,
    minimal_elements,
    validate_axioms,
)
from posetmat.cli import main
from posetmat.enumeration import (
    KNOWN_COUNTS,
    composition_closure,
    count_table,
    emit_catalog,
    enumerate_oracle,
    run_order5_table,
)
from posetmat.generators import (
    C2,
    I2,
    ORDER4_CONNECTED,
    ORDER4_DISCONNECTED,
    chain,
)

from conftest import iter_all_posets, random_poset

# The running order-4 and order-3 operands of the four hand-checked
# compositions: 1 < 2 < 3, 2 < 4 and 5 < 6, 5 < 7.
EX_A = PosetMatrix.from_rows(
    ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
    labels=("1", "2", "3", "4"),
)
EX_B = PosetMatrix.from_rows(
    ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    labels=("5", "6", "7"),
)

HAND_CHECKED = (
    ("dn", 1, ("5", "6", "7", "2", "3", "4"), (
        (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (1, 0, 0, 1, 1, 0),
        (1, 0, 0, 1, 0, 1),
    )),
    ("up", 3, ("1", "2", "5", "6", "7", "4"), (
        (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (1, 1, 1, 1, 0, 0),
        (1, 1, 1, 0, 1, 0),
        (1, 1, 0, 0, 0, 1),
    )),
    ("up", 2, ("1", "5", "6", "7", "3", "4"), (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0),
        (1, 1, 0, 1, 0, 0),
        (1, 1, 1, 1, 1, 0),
        (1, 1, 1, 1, 0, 1),
    )),
    ("dn", 2, ("1", "5", "6", "7", "3", "4"), (
        (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0),
        (1, 1, 0, 1, 0, 0),
        (1, 1, 0, 0, 1, 0),
        (1, 1, 0, 0, 0, 1),
    )),
)

EXPECTED_COUNTS = {
    1: (1, 1),
    2: (2, 1),
    3: (5, 3),
    4: (16, 10),
    5: (63, 44),
    6: (318, 238),
}


def small_posets(max_order):
    return [m for n in range(1, max_order + 1) for m in iter_all_posets(n)]


def test_criterion_1_class_counts():
    start = time.monotonic()
    got = {}
    for n in range(1, 7):
        catalog = enumerate_oracle(n)
        got[n] = (catalog.total, catalog.connected_count)
    elapsed = time.monotonic() - start
    assert got == EXPECTED_COUNTS
    assert all(KNOWN_COUNTS[n] == EXPECTED_COUNTS[n] for n in EXPECTED_COUNTS)
    assert elapsed < 60.0
    totals = ",".join(str(got[n][0]) for n in range(1, 7))
    connected = ",".join(str(got[n][1]) for n in range(1, 7))
    print(
        f"criterion 1: PASS  counts {totals} (connected {connected}) "
        f"in {elapsed:.2f}s"
    )


@pytest.mark.slow
def test_criterion_1_extended_order_7():
    start = time.monotonic()
    catalog = enumerate_oracle(7)
    elapsed = time.monotonic() - start
    assert (catalog.total, catalog.connected_count) == (2045, 1650)
    assert elapsed < 600.0
    print(f"criterion 1 (extended): PASS  order-7 counts 2045/1650 in {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_1_extended_order_8():
    start = time.monotonic()
    catalog = enumerate_oracle(8)
    elapsed = time.monotonic() - start
    assert (catalog.total, catalog.connected_count) == (16999, 14512)
    assert elapsed < 120.0
    assert main(["count", "--max-order", "8", "--expect"]) == 0
    print(f"criterion 1 (extended): PASS  order-8 counts 16999/14512 in {elapsed:.2f}s")


def test_criterion_2_hand_checked_matrices():
    for op, i, labels, rows in HAND_CHECKED:
        out = compose(EX_A, CompositionKind(op), i, EX_B)
        assert out.valid
        assert out.labels == labels
        assert out.rows == rows

    for item in ORDER4_DISCONNECTED + ORDER4_CONNECTED:
        out = compose(
            PosetMatrix.from_rows(item.left),
            CompositionKind(item.kind),
            item.position,
            PosetMatrix.from_rows(item.right),
        )
        assert out.valid
        assert out.rows == item.expected
        assert is_connected(out.poset()) == (item in ORDER4_CONNECTED)

    # the first disconnected item carries explicit element names
    left = PosetMatrix.from_rows(ORDER4_DISCONNECTED[0].left, labels=("1", "2", "3"))
    right = PosetMatrix.from_rows(ORDER4_DISCONNECTED[0].right, labels=("4", "5"))
    assert compose(left, CompositionKind.SQUARE, 3, right).labels == ("1", "2", "4", "5")

    by_name = {c.name: PosetMatrix.from_rows(c.expected) for c in ORDER4_CONNECTED}
    assert dual(by_name["A"]).rel == by_name["A*"].rel
    assert dual(by_name["B"]).rel == by_name["B*"].rel
    # the C pair is dual only up to isomorphism, not entrywise
    assert dual(by_name["C"]).rel != by_name["C*"].rel
    assert canonical_form(dual(by_name["C"])) == canonical_form(by_name["C*"])
    for name in ("D", "E", "F", "G"):
        assert canonical_form(dual(by_name[name])) == canonical_form(by_name[name])

    expansion = compose(by_name["A"], CompositionKind.SQUARE, 3, C2)
    assert expansion.rows == (
        (1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (1, 1, 1, 1, 0),
        (1, 1, 0, 0, 1),
    )
    print(
        "criterion 2: PASS  4 hand-checked compositions, 6 disconnected and "
        "10 connected order-4 items, dual identities, 5x5 expansion"
    )


def test_criterion_3_order5_catalog():
    catalog = run_order5_table()
    assert catalog.total == 44
    for key, entry in catalog.entries.items():
        assert validate_axioms(entry.representative.rel).ok
        assert is_connected(entry.representative)
        assert canonical_form(entry.representative) == key
    assert catalog.keys() == enumerate_oracle(5).connected_keys()
    print(
        "criterion 3: PASS  44 recorded recipes give 44 valid connected "
        "classes matching the order-5 enumeration exactly"
    )


def test_criterion_4_full_splice_closure():
    smalls = small_posets(4)
    checked = 0
    for a, b in itertools.product(smalls, smalls):
        for i in range(1, a.order + 1):
            assert compose(a, CompositionKind.SQUARE, i, b).valid
            checked += 1
    exhaustive = checked
    rng = random.Random(20260823)
    for _ in range(10_000):
        a = random_poset(rng, rng.randint(5, 7))
        b = random_poset(rng, rng.randint(5, 7))
        assert compose(a, CompositionKind.SQUARE, rng.randint(1, a.order), b).valid
        checked += 1
    print(
        f"criterion 4: PASS  {exhaustive} exhaustive + 10000 random "
        "square compositions all valid"
    )


def test_criterion_5_duality():
    for n in range(1, 6):
        for m in iter_all_posets(n):
            twice = dual(dual(m))
            assert twice.rel == m.rel
            assert twice.labels == m.labels

    smalls = small_posets(4)
    checks = 0
    for a, b in itertools.product(smalls, smalls):
        for i in range(1, a.order + 1):
            j = a.order - i + 1
            left = compose(a, CompositionKind.SQUARE, i, b).poset()
            right = compose(dual(a), CompositionKind.SQUARE, j, dual(b)).poset()
            assert canonical_form(dual(left)) == canonical_form(right)
            checks += 1
            for kind, partner in (
                (CompositionKind.TRI_UP, CompositionKind.TRI_DOWN),
                (CompositionKind.TRI_DOWN, CompositionKind.TRI_UP),
            ):
                out = compose(a, kind, i, b)
                mirrored = compose(dual(a), partner, j, dual(b))
                assert out.valid == mirrored.valid
                if out.valid:
                    assert canonical_form(dual(out.poset())) == canonical_form(
                        mirrored.poset()
                    )
                    checks += 1

    # with a self-dual right operand the mirror needs no dual on B
    for a in smalls:
        for b in (C2, I2):
            for i in range(1, a.order + 1):
                left = compose(a, CompositionKind.SQUARE, i, b).poset()
                right = compose(dual(a), CompositionKind.SQUARE, a.order - i + 1, b).poset()
                assert canonical_form(dual(left)) == canonical_form(right)
                checks += 1
    print(f"criterion 5: PASS  involution exact, {checks} duality mirrors agree")


def test_criterion_6_structure_oracles():
    matrices = 0
    for n in range(1, 6):
        for m in iter_all_posets(n):
            strictly_below = {
                p: {q for q in range(n) if q != p and m.rel[p][q]} for p in range(n)
            }
            strictly_above = {
                p: {q for q in range(n) if q != p and m.rel[q][p]} for p in range(n)
            }
            assert set(minimal_elements(m)) == {
                p for p in range(n) if not strictly_below[p]
            }
            assert set(maximal_elements(m)) == {
                p for p in range(n) if not strictly_above[p]
            }
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    sub = tuple(tuple(m.rel[y][z] for z in subset) for y in subset)
                    assert validate_axioms(sub).ok
            matrices += 1
    assert matrices == 1 + 2 + 7 + 40 + 357

    # a splice disconnects at every position exactly when the left
    # operand is itself disconnected
    pairs = 0
    for n in range(2, 5):
        for a in iter_all_posets(n):
            for m_order in range(1, 4):
                for b in iter_all_posets(m_order):
                    all_disconnected = all(
                        not is_connected(compose(a, CompositionKind.SQUARE, i, b).poset())
                        for i in range(1, n + 1)
                    )
                    assert all_disconnected == (not is_connected(a))
                    pairs += 1
    print(
        f"criterion 6: PASS  min/max oracle and submatrix closure over "
        f"{matrices} matrices, disconnection equivalence over {pairs} pairs"
    )


def test_criterion_7_known_invalid_splice():
    out = compose(chain(4), CompositionKind.TRI_UP, 3, chain(2))
    assert not out.valid
    assert ("transitive", (2, 1, 0)) in out.report.violations
    print(
        "criterion 7: PASS  chain4 up@3 chain2 is flagged invalid with "
        "transitivity witness (2, 1, 0)"
    )


def test_criterion_8_determinism(tmp_path):
    def snapshot(catalog, name):
        directory = tmp_path / name
        emit_catalog(catalog, directory)
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    oracle_one = snapshot(enumerate_oracle(4, workers=1), "oracle-w1")
    oracle_two = snapshot(enumerate_oracle(4, workers=2), "oracle-w2")
    oracle_rerun = snapshot(enumerate_oracle(4, workers=1), "oracle-rerun")
    assert oracle_one == oracle_two == oracle_rerun

    closure_one = snapshot(composition_closure(5, workers=1)[5], "closure-w1")
    closure_two = snapshot(composition_closure(5, workers=2)[5], "closure-w2")
    assert closure_one == closure_two

    render_one = count_table(5, "both", KNOWN_COUNTS, workers=1).render()
    render_two = count_table(5, "both", KNOWN_COUNTS, workers=2).render()
    render_rerun = count_table(5, "both", KNOWN_COUNTS, workers=1).render()
    assert render_one == render_two == render_rerun
    files = len(oracle_one)
    print(
        f"criterion 8: PASS  catalogs ({files} files) and count tables "
        "byte-identical across reruns and worker counts"
    )
