import math
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from posetmat import (
    CanonicalKey,
    KNOWN_COUNTS,
    PosetMatrix,
    canonical_form,
    composition_closure,
    count_table,
    dual,
    emit_catalog,
    enumerate_oracle,
    eval_recipe,
    is_connected,
    named_operands,
    parse_matrix,
    parse_recipe,
    run_order5_table,
)
import posetmat
from posetmat import enumeration
from posetmat import canon
from posetmat.canon import ParentSetup, position_orbits
from posetmat.cli import main
from posetmat.core import default_labels
from posetmat.compose import CompositionKind, compose
from posetmat.enumeration import (
    MAX_CLOSURE_ORDER,
    MAX_ORACLE_ORDER,
    _ideals,
    base_catalog,
    method_catalogs,
)

from conftest import iter_all_posets
from reference import (
    at_extreme_positions,
    automorphism_orbits,
    canonical_search,
    catalog_from_packed,
    composition_closure as reference_closure,
    group_order,
    has_induced_n,
    ideals,
    iter_matrices,
    linear_extensions,
    oracle_child,
    square_closure,
)

# Naturally-labeled matrix counts; the class counts live in KNOWN_COUNTS.
LABELED_COUNTS = {1: 1, 2: 2, 3: 7, 4: 40, 5: 357}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generation_matches_brute_filter(n):
    generated = sorted(iter_matrices(n))
    brute = sorted(
        tuple(sum(bit << z for z, bit in enumerate(r)) for r in m.rel)
        for m in iter_all_posets(n)
    )
    assert generated == brute
    assert len(generated) == LABELED_COUNTS[n]


def test_generation_count_order5():
    assert sum(1 for _ in iter_matrices(5)) == LABELED_COUNTS[5]


def test_iter_matrices_bounds():
    with pytest.raises(ValueError):
        list(iter_matrices(0))
    with pytest.raises(ValueError):
        list(iter_matrices(9))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_class_counts(n):
    catalog = enumerate_oracle(n)
    assert (catalog.total, catalog.connected_count) == KNOWN_COUNTS[n]


def test_oracle_representatives_are_canonical_and_valid():
    catalog = enumerate_oracle(4)
    for key, entry in catalog.entries.items():
        rep = entry.representative
        assert isinstance(rep, PosetMatrix)
        assert canonical_form(rep) == key
        assert entry.connected == is_connected(rep)
    assert set(catalog.connected_keys()) <= set(catalog.keys())


def test_oracle_entries_sorted_by_key():
    keys = list(enumerate_oracle(5).entries)
    assert keys == sorted(keys)


def test_ideals_by_construction_match_the_subset_filter():
    assert _ideals((), 0) == [0]
    for n in range(1, 8):
        for key in enumerate_oracle(n).entries:
            masks = key.matrix().masks
            assert sorted(_ideals(masks, n)) == list(ideals(masks, n))


def test_oracle_worker_counts_agree():
    assert enumerate_oracle(5, workers=2).entries == enumerate_oracle(5).entries


def oracle_levels(n):
    """The oracle's levels of orders 1..n, in one process."""
    with enumeration._ChunkMap(1) as chunk_map:
        return enumeration._oracle_levels(n, chunk_map)


def assert_oracle_levels_hold_each_class_once(n):
    levels = {}
    for workers in (1, 2):
        with enumeration._ChunkMap(workers) as chunk_map:
            levels[workers] = enumeration._oracle_levels(n, chunk_map)
    for k, level in enumerate(levels[1], 1):
        assert len(level) == len({packed for packed, _ in level}) == KNOWN_COUNTS[k][0]
    assert [sorted(level) for level in levels[1]] == [sorted(level) for level in levels[2]]


def assert_oracle_levels_carry_each_class_rows(n):
    for k, level in enumerate(oracle_levels(n), 1):
        for packed, masks in level:
            assert masks == CanonicalKey(k, packed).matrix().masks, (k, packed)


def test_oracle_levels_carry_each_class_rows():
    assert_oracle_levels_carry_each_class_rows(7)


@pytest.mark.slow
def test_oracle_levels_carry_each_class_rows_order8():
    assert_oracle_levels_carry_each_class_rows(8)


def test_oracle_levels_hold_each_class_once():
    assert_oracle_levels_hold_each_class_once(7)


@pytest.mark.slow
def test_oracle_levels_hold_each_class_once_order8():
    assert_oracle_levels_hold_each_class_once(8)


@pytest.mark.slow
def test_oracle_order9_last_level():
    last = oracle_levels(9)[-1]
    keys = [packed for packed, _ in last]
    assert len(keys) == len(set(keys)) == KNOWN_COUNTS[9][0] == 183_231
    labels = default_labels(9)
    assert sum(is_connected(PosetMatrix(masks, labels)) for _, masks in last) == KNOWN_COUNTS[9][1] == 163_341
    # The carried rows are those of the decoded matrices.
    assert all(masks == CanonicalKey(9, packed).matrix().masks for packed, masks in last)


def oracle_work(monkeypatch, n):
    """(topped, decided, searched) children by order, 2..n: decided by the replay, searched from the root."""
    topped, decided, searched = ({k: 0 for k in range(2, n + 1)} for _ in range(3))
    leaders = enumeration._ideal_orbit_leaders
    replay = ParentSetup.replay
    search = ParentSetup.search

    def counting_leaders(masks, k, gens):
        found = leaders(masks, k, gens)
        topped[k + 1] += len(found)
        return found

    def counting_replay(parent, s):
        row = replay(parent, s)
        decided[parent.k + 1] += row is not None
        return row

    def counting_search(parent, s):
        searched[parent.k + 1] += 1
        return search(parent, s)

    monkeypatch.setattr(enumeration, "_ideal_orbit_leaders", counting_leaders)
    monkeypatch.setattr(ParentSetup, "replay", counting_replay)
    monkeypatch.setattr(ParentSetup, "search", counting_search)
    enumerate_oracle(n)
    return topped, decided, searched


def test_oracle_tops_each_parent_once_per_ideal_orbit(monkeypatch):
    topped, decided, searched = oracle_work(monkeypatch, 7)
    # One ideal per Aut-orbit of the ideals of each parent, against 2, 7,
    # 27, 126, 711 and 5,439 ideals.  Every topped ideal is decided off the
    # parent's path or searched: order 7 decides 2,892 of its 4,162.
    assert topped == {2: 2, 3: 6, 4: 22, 5: 101, 6: 576, 7: 4162}
    assert searched == {2: 0, 3: 0, 4: 1, 5: 13, 6: 125, 7: 1270}
    assert all(topped[k] == decided[k] + searched[k] for k in topped)


@pytest.mark.slow
def test_oracle_work_order8(monkeypatch):
    # Order 8 tops 38,280 children and searches 14,686 of them.
    topped, decided, searched = oracle_work(monkeypatch, 8)
    assert (topped[8], decided[8], searched[8]) == (38_280, 23_594, 14_686)


def oracle_candidates(n):
    """(parent key, parent set-up, ideal) for each candidate of orders 2..n.

    The candidates are those the oracle tops: one ideal of each parent per
    orbit of the generators of its child over all of it.
    """
    for k, parents in enumerate(oracle_levels(n - 1), 1):
        for packed, masks in parents:
            parent = ParentSetup(packed, masks)
            for s in enumeration._ideal_orbit_leaders(masks, k, parent.generators):
                yield packed, parent, s


def assert_prepared_search_is_the_fresh_search(n):
    """Compare the set-up and record of every candidate with a fresh search; return the accepted count."""
    accepted = 0
    for packed, parent, s in oracle_candidates(n):
        k = parent.k
        child = parent.masks + (s | 1 << k,)
        assert parent.setup(s) == canon._setup(k + 1, child), (k, s)
        record = parent.search(s)
        assert record == canonical_search(k + 1, child, packed), (k, s)
        accepted += record is not None
    return accepted


def test_prepared_search_is_the_fresh_search():
    # Each class is accepted once through order 7.
    assert assert_prepared_search_is_the_fresh_search(7) == sum(KNOWN_COUNTS[n][0] for n in range(2, 8))


@pytest.mark.slow
def test_prepared_search_is_the_fresh_search_order8():
    # Order 8 accepts one class twice (see the pseudo-similar test below).
    assert assert_prepared_search_is_the_fresh_search(8) == sum(KNOWN_COUNTS[n][0] for n in range(2, 9)) + 1


def assert_child_search_is_the_fresh_search(packed, parent, s):
    """`parent.search(s)` is the bounded `canonical_search` of the child."""
    fresh = canonical_search(parent.k + 1, parent.masks + (s | 1 << parent.k,), packed)
    assert parent.search(s) == fresh, (parent.masks, s)


def assert_replay_decides_as_the_search(n):
    """Compare the child search over every ideal of every representative of orders 1..n with a fresh one,
    and the decision of `child`, replayed or searched, with the reference decision on a fresh search."""
    for k, level in enumerate(oracle_levels(n), 1):
        for packed, masks in level:
            parent = ParentSetup(packed, masks)
            for s in ideals(masks, k):
                assert_child_search_is_the_fresh_search(packed, parent, s)
                assert parent.child(s) == oracle_child(packed, masks, s), (masks, s)


def test_replay_decides_as_the_search():
    assert_replay_decides_as_the_search(6)


@pytest.mark.slow
def test_replay_decides_as_the_search_order7():
    assert_replay_decides_as_the_search(7)


def test_most_parents_replay_their_path():
    single = replayed = decided = 0
    parents = set()
    for packed, parent, s in oracle_candidates(7):
        if packed not in parents:
            parents.add(packed)
            single += bool(parent.path)
        replayed += bool(parent.path)
        decided += parent.replay(s) is not None
    # Of the 405 parents of orders 1 to 6, 329 search their child over all
    # of R on one path.  The oracle tops 3,841 children over them, and the
    # replay decides 3,460 of those; the 1,028 children of the other 76
    # parents are all searched.
    assert (len(parents), single, replayed, decided) == (405, 329, 3841, 3460)


def assert_replay_decides_every_join_child(n):
    """(join children, kept) over every ideal of every single-path parent of orders 1..n.

    A join child's k joins a block of R: its ideal is the down-set of one
    of R's blocks.  The replay decides each of them, at the node where
    R's path follows that block.
    """
    joins = kept = 0
    for k, level in enumerate(oracle_levels(n), 1):
        for packed, masks in level:
            parent = ParentSetup(packed, masks)
            if not parent.path:
                continue
            for s in ideals(masks, k):
                if s in parent.index:
                    row = parent.replay(s)
                    assert row is not None, (masks, s)
                    joins += 1
                    kept += row > 0
    return joins, kept


def test_replay_decides_every_join_child():
    # One join child is kept per single-path parent: the one over the block that ends at k.
    assert assert_replay_decides_every_join_child(6) == (1_160, 329)


@pytest.mark.slow
def test_replay_decides_every_join_child_order7():
    assert assert_replay_decides_every_join_child(7) == (7_552, 1_781)


def test_a_parent_whose_path_branches_searches_from_the_root():
    # 0 < 4 and 1 < 2, 3, with twins 2 and 3: over the minimal cell the
    # blocks {4} and {2, 3} give equal rows, so the child over all of R branches.
    masks = (1, 2, 6, 10, 17)
    packed = canonical_search(5, masks).packed
    assert CanonicalKey(5, packed).matrix().masks == masks
    assert (0, 1, 3, 2, 4) in canonical_search(5, masks).generators
    parent = ParentSetup(packed, masks)
    assert parent.path == []  # so the replay has nothing to read
    for s in ideals(masks, 5):
        assert parent.replay(s) is None  # the replay decides none of its children
        assert_child_search_is_the_fresh_search(packed, parent, s)


# Labelled posets (OEIS A001035) and lower-triangular poset matrices
# (naturally labelled posets, OEIS A006455) by order.
LABELLED_POSETS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4_231, 6: 130_023, 7: 6_129_859, 8: 431_723_379}
LOWER_TRIANGULAR = {1: 1, 2: 2, 3: 7, 4: 40, 5: 357, 6: 4_824, 7: 96_428, 8: 2_800_472}


def assert_generators_span_every_automorphism_group(n):
    """Orbit counts with the group G(P) the oracle's generators span give both sequences.

    The oracle reads P's generators off its set-up's search of the child
    over all of P, and each maps that child's top element k to k.  The
    class of P holds n!/|Aut(P)| labelled posets and e(P)/|Aut(P)|
    lower-triangular matrices.  Each term with G(P), a subgroup of Aut(P),
    is at least its term with Aut(P), so equal sums mean G(P) = Aut(P)
    for every class (see canon).
    """
    for k, level in enumerate(oracle_levels(n), 1):
        orders = []
        for packed, masks in level:
            gens = ParentSetup(packed, masks).generators
            assert all(g[k] == k for g in gens), (k, packed)
            orders.append(group_order(k, [g[:k] for g in gens]))
        assert sum(Fraction(math.factorial(k), g) for g in orders) == LABELLED_POSETS[k], k
        extensions = [linear_extensions(masks) for _, masks in level]
        assert sum(Fraction(e, g) for e, g in zip(extensions, orders)) == LOWER_TRIANGULAR[k], k


def test_generators_span_every_automorphism_group():
    assert_generators_span_every_automorphism_group(7)


@pytest.mark.slow
def test_generators_span_every_automorphism_group_order8():
    assert_generators_span_every_automorphism_group(8)


# A rigid order-7 representative whose children over two ideals of
# different orbits are one class: the first places 7 last, the second 5.
PSEUDO_SIMILAR_PARENT = (1, 2, 4, 12, 18, 54, 65)
KEPT_IDEAL, REJECTED_IDEAL = 0b0001101, 0b1000011


def assert_the_second_test_keeps_one_pseudo_similar_child(monkeypatch):
    masks = PSEUDO_SIMILAR_PARENT
    packed = canonical_search(7, masks).packed
    parent = (packed, masks)
    records = [ParentSetup(packed, masks).search(s) for s in (KEPT_IDEAL, REJECTED_IDEAL)]
    assert records[0].packed == records[1].packed
    assert [r.labelling[-1] for r in records] == [7, 5]
    # The parent topped over these ideals alone, in either order: the class is kept once, from KEPT_IDEAL.
    for topped in ([KEPT_IDEAL, REJECTED_IDEAL], [REJECTED_IDEAL, KEPT_IDEAL], [KEPT_IDEAL], [REJECTED_IDEAL]):
        monkeypatch.setattr(enumeration, "_ideal_orbit_leaders", lambda masks, k, gens: topped)
        kept = enumeration._extend_chunk(([parent], 7))
        expected = [records[0].packed] if KEPT_IDEAL in topped else []
        assert [child[0] for child in kept] == expected, topped


def test_the_second_test_keeps_one_pseudo_similar_child(monkeypatch):
    masks = PSEUDO_SIMILAR_PARENT
    assert CanonicalKey(7, canonical_search(7, masks).packed).matrix().masks == masks
    # The parent is rigid, so it has no generators to miss: the two ideals
    # are in different orbits of Aut(parent).
    assert automorphism_orbits(masks) == [1 << x for x in range(7)]
    assert_the_second_test_keeps_one_pseudo_similar_child(monkeypatch)


@pytest.mark.slow
def test_the_order8_duplicate_is_a_pair_of_pseudo_similar_points(monkeypatch):
    # The bounded search accepts 17,000 children for the 16,999 classes of order 8.
    first = {}  # (parent key, child key) -> the first ideal accepted for it
    duplicates = []
    for packed, parent, s in oracle_candidates(8):
        record = parent.search(s) if parent.k == 7 else None
        if record is not None:
            if (packed, record.packed) in first:
                duplicates.append((parent.masks, first[packed, record.packed], s))
            first.setdefault((packed, record.packed), s)
    assert duplicates == [(PSEUDO_SIMILAR_PARENT, KEPT_IDEAL, REJECTED_IDEAL)]
    masks, s, t = duplicates[0]
    one, other = (canonical_search(8, masks + (u | 1 << 7,)) for u in (s, t))
    # An isomorphism from one child onto the other maps its point 5 onto
    # the other's new point 7, so deleting 5 or 7 from the first leaves
    # the parent.  That child is rigid too, so no automorphism maps 7 to
    # 5: they are pseudo-similar points.
    assert one.packed == other.packed
    assert one.labelling[other.labelling.index(7)] == 5
    assert automorphism_orbits(masks + (s | 1 << 7,)) == [1 << x for x in range(8)]
    # Topped over all its ideals, the parent keeps the class once; topped
    # over the two alone, it keeps the first child and rejects the second.
    parent = next(c for c in oracle_levels(7)[-1] if c[1] == masks)
    kept = [c[0] for c in enumeration._extend_chunk(([parent], 7))]
    assert len(kept) == len(set(kept)) and one.packed in kept
    assert_the_second_test_keeps_one_pseudo_similar_child(monkeypatch)


def test_orbit_skips_change_no_oracle_level(monkeypatch):
    with enumeration._ChunkMap(1) as chunk_map:
        pruned = enumeration._oracle_levels(7, chunk_map)
        monkeypatch.setattr(enumeration, "_ideal_orbit_leaders", lambda masks, k, gens: _ideals(masks, k))
        every_ideal = enumeration._oracle_levels(7, chunk_map)
    # With no orbit skip every ideal of a parent is topped, and the ideals
    # of one Aut-orbit each keep a child; the classes and rows are those
    # of the pruned levels, which hold each class once.
    for k, (level, unpruned) in enumerate(zip(pruned, every_ideal), 1):
        assert set(level) == set(unpruned), k
        assert len(level) == len({c[0] for c in level}) == KNOWN_COUNTS[k][0], k
    assert len(every_ideal[-1]) > len(pruned[-1])


def test_orbit_skips_change_no_closure_entry(monkeypatch):
    pruned = composition_closure(6)
    monkeypatch.setattr(enumeration, "position_orbits", lambda m: [1 << x for x in range(m.order)])
    every_position = composition_closure(6)
    for n in range(2, 7):
        assert pruned[n].entries == every_position[n].entries
        assert pruned[n].invalid_outputs == every_position[n].invalid_outputs


@pytest.mark.parametrize("kind", list(CompositionKind))
def test_positions_in_one_orbit_compose_isomorphic_outputs(kind):
    operands = [key.matrix() for n in range(1, 6) for key in enumerate_oracle(n).entries]
    outcomes = []
    for a in operands:
        for orbit in position_orbits(a):
            positions = [x + 1 for x in range(a.order) if orbit >> x & 1]
            if len(positions) == 1:
                continue
            for b in operands[:24]:  # orders 1 to 4
                results = [compose(a, kind, i, b) for i in positions]
                assert len({r.valid for r in results}) == 1, (a.masks, positions, b.masks)
                if results[0].valid:
                    keys = {canonical_form(r.poset()) for r in results}
                    assert len(keys) == 1, (a.masks, positions, b.masks)
                outcomes.append(results[0].valid)
    # Both outcomes were met, except that square outputs are always valid.
    assert set(outcomes) == ({True} if kind is CompositionKind.SQUARE else {True, False})


def labelled_walk_classes(n):
    """Class key -> connected flag, from every labelled matrix of order n."""
    classes = {}
    for rows in iter_matrices(n):
        key = CanonicalKey(n, canonical_search(n, rows).packed)
        if key not in classes:
            classes[key] = is_connected(PosetMatrix(rows, default_labels(n)))
    return classes


def assert_oracle_matches_labelled_walk(n):
    catalog = enumerate_oracle(n)
    classes = labelled_walk_classes(n)
    assert list(catalog.entries) == sorted(classes)
    for key, entry in catalog.entries.items():
        assert entry.representative == key.matrix()
        assert entry.connected == classes[key]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_oracle_matches_labelled_walk(n):
    assert_oracle_matches_labelled_walk(n)


@pytest.mark.slow
def test_oracle_matches_labelled_walk_order7():
    assert_oracle_matches_labelled_walk(7)


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_emits_the_labelled_walk_bytes(tmp_path, workers):
    def snapshot(catalog, directory):
        emit_catalog(catalog, directory)
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    for n in range(1, 7):
        walk = catalog_from_packed(n, (canonical_search(n, rows).packed for rows in iter_matrices(n)))
        assert snapshot(enumerate_oracle(n, workers), tmp_path / f"oracle{n}") == snapshot(
            walk, tmp_path / f"walk{n}"
        )


def test_restricted_to_connected():
    catalog = enumerate_oracle(4)
    connected = catalog.restricted_to_connected()
    assert connected.total == 10
    assert all(e.connected for e in connected.entries.values())


def test_base_catalog_holds_both_generators():
    base = base_catalog()
    assert base.total == 2
    assert base.connected_count == 1
    assert sorted(e.recipe for e in base.entries.values()) == ["C2", "I2"]


def test_closure_matches_oracle_through_order5():
    closure = composition_closure(5)
    for n in range(2, 6):
        assert set(closure[n].keys()) == set(enumerate_oracle(n).keys())


def test_closure_order6_misses_exactly_three_classes():
    # the three decomposition-irreducible classes of order 6; every other
    # class is reachable from the two-element generators
    closure = composition_closure(6)
    missing = set(enumerate_oracle(6).keys()) - set(closure[6].keys())
    assert missing == {
        CanonicalKey.parse("6:81021cab1"),
        CanonicalKey.parse("6:810624db9"),
        CanonicalKey.parse("6:810634ebd"),
    }
    for key in missing:
        m = key.matrix()
        assert is_connected(m)
        assert canonical_form(dual(m)) == key


def test_closure_invalid_outputs_are_counted():
    closure = composition_closure(5)
    assert closure[4].invalid_outputs == 0
    assert closure[5].invalid_outputs > 0


@pytest.fixture(scope="module")
def closure7():
    return composition_closure(7)


def closure_table(closure):
    return {n: (c.total, c.connected_count, c.invalid_outputs) for n, c in closure.items()}


def test_closure_table_through_order7(closure7):
    # (total, connected, invalid_outputs) per order
    assert closure_table(closure7) == {
        2: (2, 1, 0),
        3: (5, 3, 0),
        4: (16, 10, 0),
        5: (63, 44, 4),
        6: (315, 235, 62),
        7: (1960, 1568, 706),
    }


def closure_entries(catalog):
    return [
        (key, e.recipe, e.representative.masks, e.representative.labels) for key, e in catalog.entries.items()
    ], catalog.invalid_outputs


def test_closure_is_the_reference_closure():
    closure, reference = composition_closure(6), reference_closure(6)
    assert closure.keys() == reference.keys()
    for n in reference:
        assert closure_entries(closure[n]) == closure_entries(reference[n]), n


def test_closure_is_the_reference_closure_order7(closure7):
    assert closure_entries(closure7[7]) == closure_entries(reference_closure(7)[7])


def test_closure_validates_and_keys_each_distinct_output_once(monkeypatch):
    composed, validated, invalid, keyed = Counter(), Counter(), Counter(), Counter()
    assemble, validate, record = enumeration._assemble, enumeration.validate_masks, enumeration._record

    def counting_assemble(*args):
        masks = assemble(*args)
        composed[len(masks)] += 1
        return masks

    def counting_validate(masks):
        report = validate(masks)
        validated[masks] += 1
        invalid[len(masks)] += not report.ok
        return report

    def counting_record(masks):
        keyed[masks] += 1
        return record(masks)

    monkeypatch.setattr(enumeration, "_assemble", counting_assemble)
    monkeypatch.setattr(enumeration, "validate_masks", counting_validate)
    monkeypatch.setattr(enumeration, "_record", counting_record)
    composition_closure(7)
    # Each distinct output is validated once, and keyed once when it is valid.
    assert set(validated.values()) == set(keyed.values()) == {1}
    assert keyed.keys() == {masks for masks in validated if validate(masks).ok}
    assert composed == {3: 18, 4: 111, 5: 591, 6: 3258, 7: 19947}
    assert Counter(map(len, validated)) == {3: 5, 4: 19, 5: 101, 6: 629, 7: 4412}
    assert invalid == {3: 0, 4: 0, 5: 4, 6: 53, 7: 557}


def assert_closure_caches_only_its_operands(max_n, size):
    # The closure keys its outputs with the uncached search; the cache
    # holds the representatives of orders 2..max_n-1, whose orbits it reads.
    canon._canonical_record.cache_clear()
    closure = composition_closure(max_n)
    info = canon._canonical_record.cache_info()
    assert info.currsize == info.misses == size  # nothing was evicted
    operands = [e.representative for n in range(2, max_n) for e in closure[n].entries.values()]
    assert len(operands) == size
    for m in operands:
        position_orbits(m)
    assert canon._canonical_record.cache_info() == info._replace(hits=info.hits + size)


def test_closure_caches_only_its_operands():
    assert_closure_caches_only_its_operands(7, 401)


@pytest.mark.slow
def test_closure_caches_only_its_operands_order8():
    assert_closure_caches_only_its_operands(8, 2361)


@pytest.mark.slow
def test_closure_table_order8():
    assert closure_table(composition_closure(8))[8] == (14779, 12380, 7598)


# (total, connected, invalid_outputs) per order of the closure that composes
# `up` only at maximal and `dn` only at minimal positions of A, `sq` anywhere.
EXTREME_CLOSURE_TABLE = {
    2: (2, 1, 0),
    3: (5, 3, 0),
    4: (16, 10, 0),
    5: (63, 44, 0),
    6: (313, 233, 0),
    7: (1892, 1502, 0),
}


def test_closure_at_extreme_positions(closure7):
    restricted = reference_closure(7, at_extreme_positions)
    assert closure_table(restricted) == EXTREME_CLOSURE_TABLE
    for n in restricted:
        assert restricted[n].keys() <= closure7[n].keys()
    # The two classes of order 6 that need a triangle kind at an inner
    # position: a diamond with one more bottom below one of its middle
    # elements and one more top above a middle element, the same one or
    # the other.  Both are connected and self-dual.
    assert closure7[6].keys() - restricted[6].keys() == {
        CanonicalKey.parse("6:81061ccbb"),
        CanonicalKey.parse("6:810634dbd"),
    }


@pytest.mark.slow
def test_closure_at_extreme_positions_order8():
    assert closure_table(reference_closure(8, at_extreme_positions))[8] == (13361, 11032, 0)


# Series-parallel posets by order (OEIS A003430).
SERIES_PARALLEL_COUNTS = {2: 2, 3: 5, 4: 15, 5: 48, 6: 167, 7: 602, 8: 2256}


def n_free_keys(catalog):
    return {key for key in catalog.keys() if not has_induced_n(key.matrix())}


def test_square_closure_is_the_n_free_classes(closure7):
    square = square_closure(7)
    oracle = method_catalogs(7, "oracle", 1)["oracle"]
    for n in range(2, 8):
        n_free = n_free_keys(oracle[n])
        assert len(square[n]) == SERIES_PARALLEL_COUNTS[n]
        assert square[n].keys() == n_free
        assert n_free <= closure7[n].keys()


@pytest.mark.slow
def test_square_closure_is_the_n_free_classes_order8():
    square = square_closure(8)[8]
    assert len(square) == SERIES_PARALLEL_COUNTS[8]
    assert square.keys() == n_free_keys(enumerate_oracle(8))


def test_recipes_evaluate_into_their_own_class():
    closure = composition_closure(5)
    base_names = {"C2", "I2"}
    for n in range(2, 6):
        for key, entry in closure[n].entries.items():
            if n == 2:
                # the seed rows carry bare generator names, not expressions
                assert entry.recipe in base_names
                continue
            result = eval_recipe(parse_recipe(entry.recipe))
            assert result.valid
            assert canonical_form(result.poset()) == key


def test_recipe_choice_is_shortest_then_lexicographic():
    closure = composition_closure(4)
    chain4 = canonical_form(eval_recipe(parse_recipe("C2 sq@1 (C2 sq@1 C2)")).poset())
    recipe = closure[4].entries[chain4].recipe
    # every route of the same length that also builds the 4-chain sorts
    # later: "(" beats a letter, and "dn" beats "sq" alphabetically
    assert recipe == "(C2 dn@2 C2) dn@3 C2"
    for alternative in (
        "(C2 sq@1 C2) sq@1 C2",
        "C2 sq@1 (C2 sq@1 C2)",
        "(C2 dn@2 C2) sq@1 C2",
    ):
        assert (len(recipe), recipe) <= (len(alternative), alternative)


def test_closure_rejects_tiny_orders():
    with pytest.raises(ValueError):
        composition_closure(1)


def test_closure_refuses_large_orders_before_any_work():
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"closure order must be 2..{MAX_CLOSURE_ORDER}"):
        composition_closure(MAX_CLOSURE_ORDER + 1)
    assert time.monotonic() - start < 1.0


def assert_representatives_are_what_their_recipes_rebuild(closure, orders):
    for n in orders:
        for key, entry in closure[n].entries.items():
            replay = eval_recipe(parse_recipe(entry.recipe)).poset().relabelled()
            assert entry.representative == replay, (key, entry.recipe)
            assert entry.connected == is_connected(replay)


def test_representatives_are_what_their_recipes_rebuild():
    assert_representatives_are_what_their_recipes_rebuild(composition_closure(6), range(3, 7))


@pytest.mark.slow
def test_representatives_are_what_their_recipes_rebuild_order7(closure7):
    assert_representatives_are_what_their_recipes_rebuild(closure7, [7])


def test_closure_composes_without_replaying_recipes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closure replayed a recipe")

    monkeypatch.setattr(enumeration, "parse_recipe", refuse)
    monkeypatch.setattr(enumeration, "eval_recipe", refuse)
    assert composition_closure(5)[5].total == 63


def test_order5_table_covers_all_connected_classes():
    catalog = run_order5_table()
    assert catalog.total == 44
    assert all(e.connected for e in catalog.entries.values())
    assert set(catalog.keys()) == set(enumerate_oracle(5).connected_keys())


def test_order5_recipes_use_the_published_operands():
    operands = named_operands()
    for key, entry in run_order5_table().entries.items():
        name = entry.recipe.split()[0]
        assert name in operands or name in ("C2", "I2")


def test_emit_catalog_files_round_trip(tmp_path):
    catalog = enumerate_oracle(3)
    emit_catalog(catalog, tmp_path)
    index = (tmp_path / "index.tsv").read_text()
    lines = index.strip().split("\n")
    assert len(lines) == 5
    assert lines == sorted(lines)
    for line in lines:
        key_text, flag, recipe, filename = line.split("\t")
        key = CanonicalKey.parse(key_text)
        assert flag in ("connected", "disconnected")
        assert recipe == "-"  # oracle catalogs carry no recipes
        parsed = parse_matrix((tmp_path / filename).read_text())
        assert canonical_form(parsed) == key


def test_emit_catalog_is_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    emit_catalog(enumerate_oracle(4), a_dir)
    emit_catalog(enumerate_oracle(4, workers=2), b_dir)
    a_files = sorted(p.name for p in a_dir.iterdir())
    b_files = sorted(p.name for p in b_dir.iterdir())
    assert a_files == b_files
    for name in a_files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_count_table_oracle_matches_expected():
    table = count_table(5, expected=KNOWN_COUNTS)
    assert table.all_match
    text = table.render()
    assert "oracle" in text
    assert "63" in text and "44" in text
    assert "NO" not in text


def test_count_table_both_methods():
    table = count_table(4, method="both")
    orders = [(r.order, r.method) for r in table.rows]
    assert (1, "oracle") in orders
    assert (1, "compose") not in orders  # composition starts at order 2
    assert (4, "compose") in orders
    by_key = {(r.order, r.method): r for r in table.rows}
    assert by_key[(4, "oracle")].total == by_key[(4, "compose")].total == 16


def test_count_table_rejects_unknown_method():
    with pytest.raises(ValueError):
        count_table(3, method="bogus")


def test_count_table_render_is_stable():
    one = count_table(4, method="both", expected=KNOWN_COUNTS).render()
    two = count_table(4, method="both", expected=KNOWN_COUNTS, workers=2).render()
    assert one == two


def test_count_table_reads_expected_pairs_from_any_sequence():
    as_lists = {n: list(pair) for n, pair in KNOWN_COUNTS.items()}
    table = count_table(4, method="both", expected=as_lists)
    assert table.all_match
    assert table.render() == count_table(4, method="both", expected=KNOWN_COUNTS).render()


@pytest.mark.parametrize("method", ["oracle", "compose", "both"])
def test_count_table_refuses_large_orders_before_any_work(method):
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"order must be 1..{MAX_ORACLE_ORDER}"):
        count_table(MAX_ORACLE_ORDER + 1, method=method)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("method", ["compose", "both"])
def test_count_table_refuses_order_one_for_the_closure(method):
    # Order 1 is the composition identity, not a product.  A table with no
    # closure row would pass `all_match` without comparing anything.
    with pytest.raises(ValueError, match=f"closure order must be 2..{MAX_CLOSURE_ORDER}, got 1"):
        count_table(1, method=method)


@pytest.mark.parametrize("source", ["known", "oracle7", pytest.param("oracle8", marks=pytest.mark.slow)])
def test_known_totals_are_the_euler_transform_of_the_connected_counts(source):
    # A poset is a multiset of connected components, so with c_k the sum of
    # d * connected[d] over the divisors d of k, n * total[n] is the sum of
    # c_k * total[n - k] for k = 1..n (total[0] = 1).  The oracle's own
    # table obeys it too, which checks its connected counts against its
    # totals with no published sequence.
    if source == "known":
        counts = KNOWN_COUNTS
    else:
        counts = {r.order: (r.total, r.connected) for r in count_table(int(source[-1])).rows}
    orders = sorted(counts)
    assert orders == list(range(1, len(orders) + 1))
    connected = {n: counts[n][1] for n in orders}
    c = {k: sum(d * connected[d] for d in range(1, k + 1) if k % d == 0) for k in orders}
    totals = [1]
    for n in orders:
        weighted = sum(c[k] * totals[n - k] for k in range(1, n + 1))
        assert weighted % n == 0
        totals.append(weighted // n)
    assert totals[1:] == [counts[n][0] for n in orders]
    assert totals[1:9] == [1, 2, 5, 16, 63, 318, 2045, 16999][: len(orders)]


def test_count_table_rows_equal_per_order_oracle_counts():
    rows = {r.order: (r.total, r.connected) for r in count_table(7).rows}
    assert sorted(rows) == list(range(1, 8))
    for n in range(1, 8):
        catalog = enumerate_oracle(n)
        assert rows[n] == (catalog.total, catalog.connected_count)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_oracle(6, workers=2),
        lambda: composition_closure(5, workers=2),
        lambda: count_table(5, method="both", workers=2),
        lambda: main(["enumerate", "--order", "5", "--method", "both", "--workers", "2"]),
    ],
    ids=["enumerate_oracle", "composition_closure", "count_table", "cli_enumerate"],
)
def test_one_pool_serves_every_level_of_a_call(monkeypatch, call):
    opened = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        opened.append(real_pool(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    call()
    assert len(opened) == 1


def test_import_leaves_multiprocessing_unloaded():
    # The first pool loads it; `import posetmat` alone does not.
    src = str(Path(posetmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, posetmat; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("workers", [0, -4])
@pytest.mark.parametrize(
    "call",
    [
        lambda w: enumerate_oracle(3, workers=w),
        lambda w: composition_closure(3, workers=w),
        lambda w: count_table(3, method="both", workers=w),
    ],
    ids=["enumerate_oracle", "composition_closure", "count_table"],
)
def test_workers_below_one_are_refused(call, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        call(workers)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools opened, by a stand-in pool that maps in this process and starts no workers."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def map(self, func, tasks):
            return [func(t) for t in tasks]

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes


@pytest.mark.parametrize(
    "workers, cpus, size", [(10_000, 3, 3), (2, 3, 2), (10_000, None, 1)]
)
def test_pool_size_is_capped_by_the_cpu_count(monkeypatch, pool_sizes, workers, cpus, size):
    # Where the platform cannot say which CPUs the process may use.
    monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
    render = count_table(5, method="both", expected=KNOWN_COUNTS, workers=workers).render()
    assert pool_sizes == [size]
    assert render == count_table(5, method="both", expected=KNOWN_COUNTS).render()


@pytest.mark.parametrize("workers", [2, 10_000])
def test_pool_size_is_capped_by_the_cpus_the_process_may_use(monkeypatch, pool_sizes, workers):
    # As under `taskset -c 1` on a machine of four CPUs.
    monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {1}, raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    render = count_table(5, method="both", expected=KNOWN_COUNTS, workers=workers).render()
    assert pool_sizes == [1]
    assert render == count_table(5, method="both", expected=KNOWN_COUNTS).render()
