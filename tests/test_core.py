import pytest
from hypothesis import given, strategies as st

from posetmat import (
    InvalidPosetError,
    MalformedMatrixError,
    PosetMatrix,
    StorageOrderError,
    ValidationReport,
    default_labels,
    dual,
    hasse_edges,
    induced_subposet,
    is_connected,
    maximal_elements,
    minimal_elements,
    normalize_linear_extension,
    validate_axioms,
)
from posetmat.core import validate_masks
from posetmat.generators import antichain, chain

from conftest import poset_matrices
from reference import iter_matrices

CHAIN3 = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
VEE = ((1, 0, 0), (1, 1, 0), (1, 0, 1))  # one bottom, two incomparable tops
TWO_CHAINS = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1))
ZIGZAG = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 0, 1))


def test_validate_accepts_chain_and_antichain():
    for rows in (CHAIN3, ((1, 0), (0, 1)), ((1,),)):
        report = validate_axioms(rows)
        assert report.ok
        assert report.lower_triangular_ok
        assert report.violations == ()


def test_validate_reports_missing_reflexive_entry():
    report = validate_axioms(((1, 0, 0), (1, 0, 0), (1, 1, 1)))
    assert not report.reflexive_ok
    assert ("reflexive", (1,)) in report.violations


def test_validate_reports_antisymmetry_pair_once():
    rows = ((1, 1), (1, 1))
    report = validate_axioms(rows)
    assert not report.antisymmetric_ok
    assert report.violations.count(("antisymmetric", (0, 1))) == 1


def test_validate_reports_transitivity_witness():
    # 3 <= 2 and 2 <= 1 but not 3 <= 1 (0-based positions 2, 1, 0)
    rows = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    report = validate_axioms(rows)
    assert not report.transitive_ok
    assert ("transitive", (2, 1, 0)) in report.violations
    assert "transitive" in report.summary()


def test_validate_collects_all_violations_not_just_first():
    rows = ((0, 0, 0), (1, 0, 0), (0, 1, 1))
    report = validate_axioms(rows)
    kinds = {kind for kind, _ in report.violations}
    assert "reflexive" in kinds and "transitive" in kinds


def test_validate_ends_on_a_row_missing_its_diagonal():
    # Row 0 is empty, so its member bit must be cleared apart from its row.
    assert validate_masks((0, 3)) == ValidationReport(False, True, True, True, (("reflexive", (0,)),))


class BudgetedMasks(tuple):
    """Row masks that fail the test once read by index more than `budget` times."""

    budget = 0

    def __getitem__(self, index):
        BudgetedMasks.budget -= 1
        assert BudgetedMasks.budget >= 0, "too many row lookups"
        return tuple.__getitem__(self, index)


def test_validate_looks_up_each_row_of_a_chain_about_once():
    # A member whose row has passed covers the rows of its own members.
    n = 20_000
    masks = BudgetedMasks((2 << y) - 1 for y in range(n))
    BudgetedMasks.budget = 2 * n
    assert validate_masks(masks).ok


def test_float_and_bool_cells_read_as_0_and_1():
    assert PosetMatrix.from_rows(((1.0, 0.0), (True, 1))) == PosetMatrix.from_rows(((1, 0), (1, 1)))
    assert validate_axioms(((1.0, 1.0), (1.0, True))) == validate_axioms(((1, 1), (1, 1)))
    upper = ((1.0, 1.0), (0.0, 1.0))
    assert normalize_linear_extension(upper) == normalize_linear_extension(((1, 1), (0, 1)))


@pytest.mark.parametrize("rows", [
    (),
    ((1, 0), (1,)),
    ((1, 2), (1, 1)),
    "10\n11",
])
def test_malformed_shapes_rejected(rows):
    with pytest.raises(MalformedMatrixError):
        validate_axioms(rows)


@pytest.mark.parametrize("build, arg", [(chain, 0), (antichain, 0), (PosetMatrix.from_masks, ())])
def test_order_0_is_refused_from_masks_too(build, arg):
    with pytest.raises(MalformedMatrixError, match="order 0"):
        build(arg)


def test_from_rows_rejects_axiom_violation_with_report():
    with pytest.raises(InvalidPosetError) as exc:
        PosetMatrix.from_rows(((1, 0, 0), (1, 1, 0), (0, 1, 1)))
    assert exc.value.report.violations


def test_from_rows_rejects_valid_but_unsorted_storage():
    # a valid poset whose storage order is not a linear extension
    with pytest.raises(StorageOrderError):
        PosetMatrix.from_rows(((1, 1, 0), (0, 1, 0), (1, 1, 1)))


def test_labels_default_and_custom():
    m = PosetMatrix.from_rows(CHAIN3)
    assert m.labels == ("1", "2", "3")
    assert default_labels(3) == ("1", "2", "3")
    relabeled = m.relabelled(("x", "y", "z"))
    assert relabeled.labels == ("x", "y", "z")
    assert relabeled.rel == m.rel
    assert relabeled.position_of("y") == 1
    with pytest.raises(MalformedMatrixError):
        m.relabelled(("x", "x", "z"))


def test_str_shows_rows_and_labels():
    text = str(PosetMatrix.from_rows(CHAIN3, labels=("a", "b", "c")))
    assert "a" in text and "1 0 0" in text


def test_minimal_maximal_on_hand_examples():
    m = PosetMatrix.from_rows(VEE)
    assert minimal_elements(m) == (0,)
    assert maximal_elements(m) == (1, 2)
    assert [m.labels[p] for p in minimal_elements(m)] == ["1"]
    a = PosetMatrix.from_rows(TWO_CHAINS)
    assert minimal_elements(a) == (0, 2)
    assert maximal_elements(a) == (1, 3)


@given(poset_matrices(max_order=6))
def test_minimal_maximal_match_definition(m):
    n = m.order
    expect_min = tuple(
        y for y in range(n)
        if all(not m.rel[y][z] for z in range(n) if z != y)
    )
    expect_max = tuple(
        z for z in range(n)
        if all(not m.rel[y][z] for y in range(n) if y != z)
    )
    assert minimal_elements(m) == expect_min
    assert maximal_elements(m) == expect_max


def maximal_by_transpose(m: PosetMatrix) -> int:
    """The positions whose column, the up-set, holds only the diagonal."""
    return sum(1 << z for z, mask in enumerate(m.up) if mask == 1 << z)


def test_maximal_is_the_transpose_definition_on_every_labelled_matrix():
    for n in range(1, 6):
        for masks in iter_matrices(n):
            m = PosetMatrix.from_masks(masks)
            assert m.maximal == maximal_by_transpose(m), masks


@given(poset_matrices(max_order=12))
def test_maximal_is_the_transpose_definition_on_random_posets(m):
    assert m.maximal == maximal_by_transpose(m)


@given(poset_matrices(max_order=6))
def test_dual_is_an_involution(m):
    assert dual(dual(m)) == m


@given(poset_matrices(max_order=6))
def test_dual_reverses_relation_and_labels(m):
    d = dual(m)
    n = m.order
    assert d.labels == tuple(reversed(m.labels))
    for y in range(n):
        for z in range(n):
            assert d.rel[y][z] == m.rel[n - 1 - z][n - 1 - y]


@given(poset_matrices(max_order=6))
def test_dual_swaps_minimal_and_maximal(m):
    n = m.order
    mins = {n - 1 - p for p in minimal_elements(m)}
    assert set(maximal_elements(dual(m))) == mins


def test_dual_of_chain_is_chain():
    assert dual(chain(4)).rel == chain(4).rel


def test_hasse_edges_hand_examples():
    assert hasse_edges(chain(3)) == ((0, 1), (1, 2))
    assert hasse_edges(antichain(3)) == ()
    assert hasse_edges(PosetMatrix.from_rows(TWO_CHAINS)) == ((0, 1), (2, 3))
    assert hasse_edges(PosetMatrix.from_rows(ZIGZAG)) == ((0, 2), (1, 2), (1, 3))


@given(poset_matrices(max_order=6))
def test_hasse_closure_recovers_relation(m):
    n = m.order
    reach = [[False] * n for _ in range(n)]
    for low, high in hasse_edges(m):
        reach[high][low] = True
    for k in range(n):
        reach[k][k] = True
    changed = True
    while changed:
        changed = False
        for y in range(n):
            for z in range(n):
                if reach[y][z]:
                    continue
                if any(reach[y][w] and reach[w][z] for w in range(n)):
                    reach[y][z] = changed = True
    assert all(
        bool(m.rel[y][z]) == reach[y][z] for y in range(n) for z in range(n)
    )


def test_connectivity_hand_examples():
    assert is_connected(chain(5))
    assert not is_connected(antichain(2))
    assert is_connected(chain(1))
    assert not is_connected(PosetMatrix.from_rows(TWO_CHAINS))
    assert is_connected(PosetMatrix.from_rows(ZIGZAG))


def assert_connectivity_matches_component_count(m):
    n = m.order
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for y in range(n):
        for z in range(n):
            if y != z and m.rel[y][z]:
                parent[find(y)] = find(z)
    components = len({find(x) for x in range(n)})
    assert is_connected(m) == (components == 1)


@given(poset_matrices(min_order=2, max_order=6))
def test_connectivity_matches_component_count(m):
    assert_connectivity_matches_component_count(m)


def test_connectivity_matches_component_count_on_every_poset_to_order_6():
    for n in range(1, 7):
        for masks in iter_matrices(n):
            assert_connectivity_matches_component_count(PosetMatrix(masks, default_labels(n)))


@pytest.mark.parametrize("label", ["a b", "x#y", "", " a", "a\t", "a\nb"])
def test_labels_the_matrix_file_cannot_carry_are_refused(label):
    with pytest.raises(MalformedMatrixError):
        chain(2).relabelled((label, "c"))
    with pytest.raises(MalformedMatrixError):
        PosetMatrix.from_rows(CHAIN3, ("p", label, "q"))


def test_induced_subposet_of_chain():
    sub = induced_subposet(chain(5), (0, 2, 4))
    assert sub.rel == chain(3).rel
    assert sub.labels == ("1", "3", "5")


def test_induced_subposet_sorts_dedupes_and_range_checks_positions():
    m = PosetMatrix.from_rows(VEE, labels=("r", "s", "t"))
    sub = induced_subposet(m, [2, 1, 2])
    assert sub.labels == ("s", "t")
    assert sub.masks == (0b01, 0b10)
    for bad in (7, -1):
        with pytest.raises(ValueError, match=f"position {bad} out of range for order 3"):
            induced_subposet(m, [0, bad])


def test_induced_subposet_rejects_empty_selection():
    with pytest.raises(ValueError):
        induced_subposet(chain(3), ())


@given(poset_matrices(max_order=6), st.data())
def test_induced_subposet_keeps_relation_bits(m, data):
    positions = data.draw(
        st.lists(
            st.integers(0, m.order - 1), min_size=1, max_size=m.order, unique=True
        )
    )
    positions = tuple(sorted(positions))
    sub = induced_subposet(m, positions)
    for a, pa in enumerate(positions):
        for b, pb in enumerate(positions):
            assert sub.rel[a][b] == m.rel[pa][pb]
    assert sub.labels == tuple(m.labels[p] for p in positions)


def test_normalize_reorders_to_linear_extension():
    out = normalize_linear_extension(
        ((1, 1, 0), (0, 1, 0), (1, 1, 1)), labels=("a", "b", "c")
    )
    assert out.rel == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    assert out.labels == ("b", "a", "c")


def test_normalize_keeps_already_sorted_input():
    out = normalize_linear_extension(CHAIN3)
    assert out.rel == CHAIN3
    assert out.labels == ("1", "2", "3")


def test_normalize_refuses_non_poset():
    with pytest.raises(InvalidPosetError):
        normalize_linear_extension(((1, 1), (1, 1)))


@given(poset_matrices(max_order=5), st.data())
def test_normalize_inverts_any_relabeling(m, data):
    # shuffle rows/columns by a random permutation, then normalize back
    n = m.order
    perm = data.draw(st.permutations(range(n)))
    rows = tuple(
        tuple(m.rel[perm[y]][perm[z]] for z in range(n)) for y in range(n)
    )
    labels = tuple(m.labels[perm[y]] for y in range(n))
    out = normalize_linear_extension(rows, labels=labels)
    # same relation up to the label bijection
    where = {lab: k for k, lab in enumerate(out.labels)}
    for y in range(n):
        for z in range(n):
            assert m.rel[y][z] == out.rel[where[m.labels[y]]][where[m.labels[z]]]
