import gc
import random
import time

import pytest
from hypothesis import given, settings

from posetmat import (
    KNOWN_COUNTS,
    CanonicalKey,
    PosetMatrix,
    are_isomorphic,
    canonical_form,
    CompositionKind,
    composition_closure,
    compose,
    dual,
    enumerate_oracle,
    eval_recipe,
    normalize_linear_extension,
    parse_matrix,
    parse_recipe,
    serialize_matrix,
)
from posetmat import canon
from posetmat.canon import ParentSetup, canonical_search, position_orbits
from posetmat.generators import antichain, chain

import reference
from reference import automorphism_orbits, iter_matrices
from conftest import brute_canonical_packed, close_down, iter_all_posets, poset_matrices


def test_brute_force_agreement_small_orders():
    # every naturally-labeled matrix up to order 4: 1 + 2 + 7 + 40 cases
    for n in range(1, 5):
        for m in iter_all_posets(n):
            assert canonical_form(m).packed == brute_canonical_packed(m)


@settings(max_examples=40)
@given(poset_matrices(min_order=5, max_order=6))
def test_brute_force_agreement_sampled(m):
    assert canonical_form(m).packed == brute_canonical_packed(m)


@given(poset_matrices(max_order=6))
def test_key_ignores_labels(m):
    assert canonical_form(m) == canonical_form(m.relabelled())


@given(poset_matrices(max_order=5), poset_matrices(max_order=5))
def test_are_isomorphic_iff_keys_match(a, b):
    assert are_isomorphic(a, b) == (canonical_form(a) == canonical_form(b))


def test_isomorphic_relabeled_chain():
    shuffled = normalize_linear_extension(
        ((1, 0, 1), (1, 1, 1), (0, 0, 1)), labels=("p", "q", "r")
    )
    assert are_isomorphic(shuffled, chain(3))


def test_non_isomorphic_examples():
    assert not are_isomorphic(chain(3), antichain(3))
    assert not are_isomorphic(chain(3), chain(4))
    vee = PosetMatrix.from_rows(((1, 0, 0), (1, 1, 0), (1, 0, 1)))
    wedge = PosetMatrix.from_rows(((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    assert not are_isomorphic(vee, wedge)
    assert are_isomorphic(vee, dual(wedge))


@given(poset_matrices(max_order=6))
def test_canonical_representative_is_a_fixed_point(m):
    key = canonical_form(m)
    assert canonical_form(key.matrix()) == key


@given(poset_matrices(max_order=6))
def test_dual_key_depends_only_on_class(m):
    key = canonical_form(m)
    assert canonical_form(dual(m)) == canonical_form(dual(key.matrix()))


@given(poset_matrices(max_order=6))
def test_key_render_parse_round_trip(m):
    key = canonical_form(m)
    text = key.render()
    order, _, hexpart = text.partition(":")
    assert int(order) == m.order
    assert len(hexpart) == (m.order * m.order + 3) // 4
    assert CanonicalKey.parse(text) == key


def test_parse_rejects_garbage():
    for bad in ("", "5", ":ff", "x:ff", "2:zz", "2:ffff"):
        with pytest.raises(ValueError):
            CanonicalKey.parse(bad)


def test_parse_accepts_only_what_render_writes():
    assert CanonicalKey.parse("3:137") == CanonicalKey(3, 0x137)
    spellings = ("3: 1f", "3:+1f", "3:0x1f", "03:01f", "3:01F", "3:1f", "3:-1", "3:fff", "0:0", "3:01f\n")
    # Well spelled, but no poset has them as key: a 2-cycle, a row 0 with no
    # diagonal bit, and a poset whose key is 3:113.
    for bad in spellings + ("2:f", "3:01f", "3:131"):
        with pytest.raises(ValueError, match="not a canonical key"):
            CanonicalKey.parse(bad)


def test_key_rows_reconstruct_chain():
    key = canonical_form(chain(3))
    assert key.matrix().rel == ((1, 0, 0), (1, 1, 0), (1, 1, 1))


def test_keys_sort_by_order_then_bits():
    k2 = canonical_form(chain(2))
    k3a = canonical_form(antichain(3))
    k3b = canonical_form(chain(3))
    assert k2 < k3a
    assert sorted({k3b, k2, k3a}) == sorted({k2, k3a, k3b})


def test_chain_canonical_bits_are_full_lower_triangle():
    # the all-ones lower triangle is the largest row-major value, and the
    # chain class contains nothing else, so the key is exactly that matrix
    key = canonical_form(chain(4))
    assert key.matrix().rel == chain(4).rel


def test_canonical_cache_is_bounded():
    from posetmat.canon import _canonical_record

    assert isinstance(_canonical_record.cache_info().maxsize, int)


# Symmetric families and random posets, each as strict down-sets over
# hidden elements 0..n-1, listed in a topological order.


def disjoint_chains(k: int, length: int) -> list[int]:
    down = []
    for _ in range(k):
        base = len(down)
        down += [((1 << j) - 1) << base for j in range(length)]
    return down


def crown(k: int) -> list[int]:
    """Minimal a_0..a_{k-1}; b_i above a_i and a_{i+1 mod k}."""
    return [0] * k + [1 << i | 1 << (i + 1) % k for i in range(k)]


def antichain_sum(a: int, b: int) -> list[int]:
    """Every element of an a-antichain below every element of a b-antichain."""
    return [0] * a + [(1 << a) - 1] * b


def boolean_lattice(k: int) -> list[int]:
    """Subsets of a k-set under inclusion, element s being the subset with bitmask s."""
    return [sum(1 << t for t in range(s) if t & s == t) for s in range(1 << k)]


def grid(a: int, b: int) -> list[int]:
    """Product of an a-chain and a b-chain; element i*b + j is the pair (i, j)."""
    return [
        sum(1 << (p * b + q) for p in range(i + 1) for q in range(j + 1)) & ~(1 << (i * b + j))
        for i in range(a)
        for j in range(b)
    ]


def random_down(rng: random.Random, n: int, density: float) -> list[int]:
    down: list[int] = []
    for j in range(n):
        raw = sum(1 << i for i in range(j) if rng.random() < density)
        down.append(close_down(raw, down))
    return down


def relabelled_masks(down: list[int], rng: random.Random) -> tuple[int, ...]:
    """Row masks of the poset with its elements placed in a random order.

    The order need not be a linear extension: the search takes any labeling.
    """
    n = len(down)
    where = list(range(n))
    rng.shuffle(where)
    masks = [0] * n
    for e in range(n):
        row = 1 << where[e]
        for z in range(n):
            if down[e] >> z & 1:
                row |= 1 << where[z]
        masks[where[e]] = row
    return tuple(masks)


def test_search_matches_reference_on_every_labelled_matrix():
    cases = 0
    for n in range(1, 7):
        for masks in iter_matrices(n):
            assert canonical_search(n, masks).packed == reference.packed_from_masks(n, masks), masks
            cases += 1
    assert cases == 5_231


REFERENCE_FAMILIES = (
    [("2-chains", k, disjoint_chains(k, 2)) for k in range(1, 7)]
    + [("3-chains", k, disjoint_chains(k, 3)) for k in range(1, 5)]
    + [("crown", k, crown(k)) for k in range(2, 7)]
    + [("antichain sum", a, antichain_sum(a, 6 - a)) for a in range(1, 6)]
    + [("boolean lattice", k, boolean_lattice(k)) for k in (3, 4)]
    + [("grid", f"{a}x{b}", grid(a, b)) for a, b in ((3, 3), (3, 5), (4, 4))]
)


@pytest.mark.parametrize(
    "name, k, down", REFERENCE_FAMILIES, ids=[f"{name}-{k}" for name, k, _ in REFERENCE_FAMILIES]
)
def test_search_matches_reference_on_relabelled_families(name, k, down):
    rng = random.Random(f"{name}-{k}")
    n = len(down)
    for _ in range(3):
        masks = relabelled_masks(down, rng)
        assert canonical_search(n, masks).packed == reference.packed_from_masks(n, masks), masks


@pytest.mark.parametrize("n", range(8, 13))
def test_search_matches_reference_on_random_posets(n):
    rng = random.Random(n)
    # Sparse posets of order 11 and 12 take the reference search up to a
    # quarter of a second each, so they start at density 0.2.
    densities = (0.1, 0.2, 0.35, 0.5) if n <= 10 else (0.2, 0.35, 0.5)
    for density in densities:
        for _ in range(3):
            masks = relabelled_masks(random_down(rng, n, density), rng)
            assert canonical_search(n, masks).packed == reference.packed_from_masks(n, masks), masks


# Canonical parents, bounded by the parent's rows (see the canon module docstring).


def block(n: int, packed: int) -> tuple[int, ...]:
    """Row masks of the top-left (n-1)x(n-1) block of a packed canonical key."""
    return CanonicalKey(n, packed).matrix().masks[:-1]


def deleted(masks: tuple[int, ...], y: int) -> tuple[int, ...]:
    """Row masks with element y removed and the later elements moved down one place."""
    low = (1 << y) - 1
    return tuple(row & low | row >> (y + 1) << y for z, row in enumerate(masks) if z != y)


def assert_bounded_search_on_every_child(k):
    parents = {canonical_search(k, rows).packed for rows in iter_matrices(k)}
    accepted: dict[int, set[int]] = {}  # child key -> the parents that kept it
    for parent in parents:
        masks = CanonicalKey(k, parent).matrix().masks
        for s in reference.ideals(masks, k):
            child = masks + (s | 1 << k,)
            key = canonical_search(k + 1, child).packed
            bounded = canonical_search(k + 1, child, parent)
            if block(k + 1, key) == masks:
                assert bounded is not None and bounded.packed == key, (parent, s)
                accepted.setdefault(key, set()).add(parent)
            else:
                assert bounded is None, (parent, s)
    assert len(accepted) == KNOWN_COUNTS[k + 1][0]
    assert all(len(kept_by) == 1 for kept_by in accepted.values())


@pytest.mark.parametrize("k", range(1, 7))
def test_bounded_search_on_every_ideal_of_every_representative(k):
    assert_bounded_search_on_every_child(k)


@pytest.mark.slow
def test_bounded_search_on_every_ideal_of_every_representative_order7():
    assert_bounded_search_on_every_child(7)


@pytest.mark.parametrize("n", range(8, 13))
def test_bounded_search_keeps_only_the_least_deletion_on_random_posets(n):
    rng = random.Random(f"parent-{n}")
    for density in (0.1, 0.2, 0.35, 0.5):
        for _ in range(3):
            masks = relabelled_masks(random_down(rng, n, density), rng)
            key = canonical_search(n, masks).packed
            maximal = [y for y in range(n) if not any(masks[z] >> y & 1 for z in range(n) if z != y)]
            parents = {canonical_search(n - 1, deleted(masks, y)).packed for y in maximal}
            for parent in parents:
                bounded = canonical_search(n, masks, parent)
                if parent == min(parents):
                    assert block(n, key) == CanonicalKey(n - 1, parent).matrix().masks
                    assert bounded is not None and bounded.packed == key, masks
                else:
                    assert bounded is None, masks


# Seconds allowed for one canonical search on the stress family.  The
# searches take at most a few milliseconds; the twin-only search needs
# about 3 s for eight 2-chains and grows about tenfold per chain.
STRESS_BOUND_S = 2.0

# (name, k, down-sets, whether the twin-only reference search finishes in
# a few seconds and so checks the key).  The sparse random posets of
# orders 10 to 12 are a stratum the `requests` stream leaves out.
STRESS_FAMILIES = (
    [("2-chains", k, disjoint_chains(k, 2), False) for k in (8, 10)]
    + [("3-chains", 6, disjoint_chains(6, 3), True)]
    + [("antichain sum", 10, antichain_sum(10, 10), True)]
    + [("crown", k, crown(k), k <= 8) for k in (4, 5, 6, 7, 8, 9, 10, 15)]
    + [
        ("sparse", f"{n}-{i}", random_down(random.Random(f"sparse-{n}-{i}"), n, 0.1), True)
        for n in (10, 11, 12)
        for i in range(3)
    ]
)


@pytest.mark.parametrize(
    "name, k, down, checked", STRESS_FAMILIES, ids=[f"{name}-{k}" for name, k, _, _ in STRESS_FAMILIES]
)
def test_symmetric_families_are_bounded_and_label_free(name, k, down, checked):
    rng = random.Random(f"stress-{name}-{k}")
    n = len(down)
    keys = set()
    for _ in range(4):
        masks = relabelled_masks(down, rng)
        start = time.perf_counter()
        keys.add(canonical_search(n, masks).packed)
        elapsed = time.perf_counter() - start
        assert elapsed < STRESS_BOUND_S, f"{name} k={k}: {elapsed:.2f} s"
    assert len(keys) == 1
    if checked:
        assert keys == {reference.packed_from_masks(n, masks)}


# Nodes per point on relabelled crowns: at most 2.33 over 200 relabellings
# of each crown on 8 to 30 points.  A search that branches over the orders
# of a tied block takes exponentially many.
CROWN_NODES_PER_POINT = 3


@pytest.mark.parametrize("k", range(4, 16))
def test_relabelled_crowns_take_linearly_many_nodes(k):
    rng = random.Random(f"crown-nodes-{k}")
    for _ in range(10):
        record = canonical_search(2 * k, relabelled_masks(crown(k), rng))
        assert record.nodes <= CROWN_NODES_PER_POINT * 2 * k, (k, record.nodes)


def test_search_work_is_pinned():
    # Summed (nodes, generators) over every labelled matrix of each order: a
    # search that lost an orbit skip or an unwind could keep every key and
    # still change these.
    expected = {1: (1, 0), 2: (3, 1), 3: (14, 4), 4: (105, 29), 5: (1211, 270), 6: (20548, 3509)}
    for n, sums in expected.items():
        records = [canonical_search(n, rows) for rows in iter_matrices(n)]
        assert (sum(r.nodes for r in records), sum(len(r.generators) for r in records)) == sums, n
    families = {
        "2-chains": (lambda k: disjoint_chains(k, 2), [(11, 3), (22, 5), (56, 9)]),
        "crown": (crown, [(10, 2), (16, 2), (28, 2)]),
    }
    for name, (family, pinned) in families.items():
        for k, work in zip((4, 6, 10), pinned):
            down = family(k)
            record = canonical_search(len(down), [d | 1 << e for e, d in enumerate(down)])
            assert (record.nodes, len(record.generators)) == work, (name, k)


# The 7-point zigzag as full row masks: minima 0 to 3, and maxima over {0, 1}, {1, 2} and {2, 3}.
ZIGZAG7 = (1, 2, 4, 8, 0b10011, 0b100110, 0b1001100)


def zigzag_union(k: int) -> list[int]:
    """k disjoint copies of the 7-point zigzag, copy j on points 7j to 7j+6."""
    return [mask << 7 * j for j in range(k) for mask in ZIGZAG7]


def test_zigzag_unions_take_exponentially_many_nodes():
    # Each copy's reflection doubles the work: the generators are exactly
    # 1.5 * 2^k - 2 and the nodes about 18 * 2^k.  A pruning change that
    # moves these says so, with the new values.
    pinned = [(7, 1), (33, 4), (95, 10), (229, 22), (507, 46), (1073, 94), (2215, 190), (4509, 382)]
    for k, work in enumerate(pinned, 1):
        record = canonical_search(7 * k, zigzag_union(k))
        assert (record.nodes, len(record.generators)) == work, k
        assert len(record.generators) == 3 * 2 ** (k - 1) - 2


def test_every_key_to_order_7_decodes_to_its_own_matrix():
    for n in range(1, 8):
        for key in enumerate_oracle(n).entries:
            masks = key.matrix().masks
            # Bit z of masks[y] is column z of row y, column 0 in the row's top bit.
            assert all(
                masks[y] >> z & 1 == key.packed >> (n * (n - 1 - y) + n - 1 - z) & 1 for y in range(n) for z in range(n)
            )
            assert canonical_search(n, masks).packed == key.packed


# The search record: labelling and generators (see the canon module docstring).


def is_automorphism(masks, g) -> bool:
    n = len(masks)
    return sorted(g) == list(range(n)) and all(
        masks[y] >> z & 1 == masks[g[y]] >> g[z] & 1 for y in range(n) for z in range(n)
    )


def assert_record_holds(masks):
    n = len(masks)
    record = canonical_search(n, masks)
    assert record.packed == reference.packed_from_masks(n, masks), masks
    # Placing labelling[p] at position p gives the least rows, packed row 0 first.
    at = record.labelling
    packed = 0
    for p in range(n):
        packed = packed << n | sum(1 << (n - 1 - q) for q in range(n) if masks[at[p]] >> at[q] & 1)
    assert packed == record.packed, masks
    for g in record.generators:
        assert is_automorphism(masks, g), (masks, g)
    # The generators open with the swap of each twin with the previous one
    # in its class, and no automorphism found later is a swap.
    swaps = {
        tuple(e if x == t else t if x == e else x for x in range(n))
        for twins in reference.twin_classes(masks)
        for t, e in zip(twins, twins[1:])
    }
    assert set(record.generators[: len(swaps)]) == swaps, masks
    assert all(sum(g[x] != x for x in range(n)) > 2 for g in record.generators[len(swaps) :]), masks


def test_record_on_every_labelled_matrix():
    for n in range(1, 7):
        for masks in iter_matrices(n):
            assert_record_holds(masks)


@pytest.mark.parametrize(
    "name, k, down", REFERENCE_FAMILIES, ids=[f"{name}-{k}" for name, k, _ in REFERENCE_FAMILIES]
)
def test_record_on_relabelled_families(name, k, down):
    rng = random.Random(f"record-{name}-{k}")
    for _ in range(3):
        assert_record_holds(relabelled_masks(down, rng))


def test_record_on_random_posets():
    rng = random.Random("record")
    for n in range(8, 13):
        for density in (0.2, 0.35, 0.5):
            assert_record_holds(relabelled_masks(random_down(rng, n, density), rng))


def assert_cached_record_is_the_search(masks):
    record = canonical_search(len(masks), masks)
    canon._canonical_record.cache_clear()
    assert canon._canonical_record(masks) == (record.packed, record.generators), masks


def test_cached_record_on_every_labelled_matrix():
    for n in range(1, 7):
        for masks in iter_matrices(n):
            assert_cached_record_is_the_search(masks)


@pytest.mark.parametrize(
    "name, k, down", REFERENCE_FAMILIES, ids=[f"{name}-{k}" for name, k, _ in REFERENCE_FAMILIES]
)
def test_cached_record_on_relabelled_families(name, k, down):
    rng = random.Random(f"cached-{name}-{k}")
    for _ in range(3):
        assert_cached_record_is_the_search(relabelled_masks(down, rng))


def test_cached_record_on_random_posets():
    rng = random.Random("cached")
    for n in range(7, 13):
        for density in (0.1, 0.2, 0.35, 0.5):
            assert_cached_record_is_the_search(relabelled_masks(random_down(rng, n, density), rng))


def test_are_isomorphic_searches_no_pair_whose_profiles_differ(monkeypatch):
    calls = []
    search = canon._search

    def counted(n, *args):
        calls.append(n)
        return search(n, *args)

    canon._canonical_record.cache_clear()
    monkeypatch.setattr(canon, "_search", counted)
    vee = PosetMatrix.from_rows(((1, 0, 0), (1, 1, 0), (1, 0, 1)))  # profile 1, 2, 2
    wedge = PosetMatrix.from_rows(((1, 0, 0), (0, 1, 0), (1, 1, 1)))  # profile 1, 1, 3
    assert not are_isomorphic(vee, wedge)
    assert not are_isomorphic(chain(5), antichain(5))
    assert calls == []
    # Equal profiles, 1, 1, 2, 3, are searched: the N against a 3-chain beside a point.
    assert not are_isomorphic(PosetMatrix.from_masks((1, 2, 7, 10)), PosetMatrix.from_masks((1, 3, 7, 8)))
    assert calls == [4, 4]


def reversed_labelling(m: PosetMatrix) -> PosetMatrix:
    """The same poset with its positions taken in reverse, put back into a linear extension."""
    n = m.order
    return normalize_linear_extension([[m.rel[n - 1 - y][n - 1 - z] for z in range(n)] for y in range(n)])


def test_are_isomorphic_refutes_every_pair_of_classes_with_equal_profiles():
    pairs = 0
    for n in range(1, 6):
        by_profile = {}
        for key in enumerate_oracle(n).entries:
            m = key.matrix()
            by_profile.setdefault(tuple(sorted(mask.bit_count() for mask in m.masks)), []).append(m)
        for reps in by_profile.values():
            for i, a in enumerate(reps):
                assert are_isomorphic(a, reversed_labelling(a))
                for b in reps[i + 1 :]:
                    assert not are_isomorphic(a, b), (a.masks, b.masks)
                    pairs += 1
    # 2 such pairs of order 4 and 30 of order 5.
    assert pairs == 32


def test_bounded_search_returns_the_record_of_an_accepted_child():
    # I2 topped over the empty ideal is the 3-antichain, whose canonical
    # parent is I2, not C2.
    i2 = canonical_search(2, (1, 2)).packed
    record = canonical_search(3, (1, 2, 4), i2)
    assert record.packed == canonical_search(3, (1, 2, 4)).packed
    assert all(is_automorphism((1, 2, 4), g) for g in record.generators)
    assert canonical_search(3, (1, 2, 4), canonical_search(2, (1, 3)).packed) is None


def test_twin_swaps_are_generators():
    # Three minimal twins under one top share one cell, ordered by index, and
    # the search records the swap of each twin with the previous one.
    record = canonical_search(4, (1, 2, 4, 15))
    assert (1, 0, 2, 3) in record.generators
    assert (0, 2, 1, 3) in record.generators


def test_generator_orbits_are_the_automorphism_orbits_of_every_class():
    for n in range(1, 7):
        for packed in {canonical_search(n, rows).packed for rows in iter_matrices(n)}:
            m = CanonicalKey(n, packed).matrix()
            assert position_orbits(m) == automorphism_orbits(m.masks), m.masks


def test_generator_orbits_are_the_automorphism_orbits_of_the_closure_representatives():
    closure = composition_closure(6)
    reps = [entry.representative for catalog in closure.values() for entry in catalog.entries.values()]
    assert len(reps) == 401
    for m in reps:
        assert position_orbits(m) == automorphism_orbits(m.masks), m.masks


I2_KEY, C2_KEY = 0b1001, 0b1011  # the 2-antichain and 2-chain, as packed keys
V_TEXT = "3\n1 0 0\n0 1 0\n1 1 1\n"

# Library calls on the paths of a request, from text to answer.
LIBRARY_CALLS = {
    "search": lambda: canonical_search(4, (1, 2, 4, 15)),
    # The accepted and rejected child of test_bounded_search_returns_the_record_of_an_accepted_child.
    "bounded-accept": lambda: canonical_search(3, (1, 2, 4), I2_KEY),
    "bounded-reject": lambda: canonical_search(3, (1, 2, 4), C2_KEY),
    # Two disjoint 2-chains: the second leaf finds (2, 3, 0, 1) and unwinds.
    "unwinding-search": lambda: canonical_search(4, (1, 3, 4, 12)),
    "parent-setup": lambda: [ParentSetup(C2_KEY, (1, 3)).search(s) for s in (0, 1, 3)],  # rejects, accepts, accepts
    "parent-replay": lambda: [ParentSetup(C2_KEY, (1, 3)).replay(s) for s in (0, 1, 3)],  # rejects, keeps, keeps
    "parent-child": lambda: [ParentSetup(C2_KEY, (1, 3)).child(s) for s in (0, 1, 3)],  # rejects, keeps, keeps
    "canonical_form": lambda: canonical_form(parse_matrix(V_TEXT)),
    "are_isomorphic": lambda: are_isomorphic(parse_matrix(V_TEXT), dual(parse_matrix(V_TEXT))),
    "position_orbits": lambda: position_orbits(parse_matrix(V_TEXT)),
    "key-parse": lambda: CanonicalKey.parse(canonical_form(parse_matrix(V_TEXT)).render()),
    "oracle": lambda: enumerate_oracle(6),
    "closure": lambda: composition_closure(6),
    "parse-compose-serialize": lambda: serialize_matrix(
        compose(parse_matrix(V_TEXT), CompositionKind.TRI_UP, 3, parse_matrix(V_TEXT))
    ),
    "recipe": lambda: eval_recipe(parse_recipe("(C2 sq@1 I2) up@2 C2*")).poset(),
}


@pytest.mark.parametrize("call", LIBRARY_CALLS.values(), ids=LIBRARY_CALLS)
def test_calls_leave_no_garbage_for_the_cyclic_collector(call):
    # Reference counting alone must free what each call builds: a cycle
    # per search leaves the collector to run inside later requests.
    canon._canonical_record.cache_clear()
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        unreachable = gc.collect()
        gc.enable()
    assert unreachable == 0
