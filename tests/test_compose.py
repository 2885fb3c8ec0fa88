import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from posetmat import (
    CompositionKind,
    InvalidPosetError,
    PosetMatrix,
    canonical_form,
    compose,
    dual,
    enumerate_oracle,
)
from posetmat.core import maximal_elements, minimal_elements
from posetmat.generators import C2, I2, antichain, chain

from conftest import poset_matrices

# The running 4-element and 3-element operands used by the hand-checked
# compositions below: 1 < 2 < 3, 2 < 4 and 5 < 6, 5 < 7.
A = PosetMatrix.from_rows(
    ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
    labels=("1", "2", "3", "4"),
)
B = PosetMatrix.from_rows(
    ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    labels=("5", "6", "7"),
)

ALL_KINDS = (
    CompositionKind.SQUARE,
    CompositionKind.TRI_UP,
    CompositionKind.TRI_DOWN,
)


def test_tri_down_at_minimal_position():
    out = compose(A, CompositionKind.TRI_DOWN, 1, B)
    assert out.valid
    assert out.labels == ("5", "6", "7", "2", "3", "4")
    assert out.rows == (
        (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (1, 0, 0, 1, 1, 0),
        (1, 0, 0, 1, 0, 1),
    )


def test_tri_up_at_maximal_position():
    out = compose(A, CompositionKind.TRI_UP, 3, B)
    assert out.valid
    assert out.labels == ("1", "2", "5", "6", "7", "4")
    assert out.rows == (
        (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (1, 1, 1, 1, 0, 0),
        (1, 1, 1, 0, 1, 0),
        (1, 1, 0, 0, 0, 1),
    )


def test_tri_up_at_non_maximal_position():
    out = compose(A, CompositionKind.TRI_UP, 2, B)
    assert out.valid
    assert out.labels == ("1", "5", "6", "7", "3", "4")
    assert out.rows == (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0),
        (1, 1, 0, 1, 0, 0),
        (1, 1, 1, 1, 1, 0),
        (1, 1, 1, 1, 0, 1),
    )


def test_tri_down_at_non_minimal_position():
    out = compose(A, CompositionKind.TRI_DOWN, 2, B)
    assert out.valid
    assert out.labels == ("1", "5", "6", "7", "3", "4")
    assert out.rows == (
        (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 0),
        (1, 1, 0, 1, 0, 0),
        (1, 1, 0, 0, 1, 0),
        (1, 1, 0, 0, 0, 1),
    )


def test_square_keeps_full_inheritance():
    out = compose(A, CompositionKind.SQUARE, 3, chain(2))
    assert out.valid
    assert out.rows == (
        (1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (1, 1, 1, 1, 0),
        (1, 1, 0, 0, 1),
    )


def test_position_bounds_checked():
    with pytest.raises(ValueError):
        compose(A, CompositionKind.SQUARE, 0, B)
    with pytest.raises(ValueError):
        compose(A, CompositionKind.SQUARE, 5, B)


def test_singleton_operand_neutrality():
    # the one-element matrix is a two-sided identity for full inheritance,
    # and a right identity for the restricted kinds at their Case-1 positions
    one = chain(1)
    for i in (1, 2, 3, 4):
        assert compose(A, CompositionKind.SQUARE, i, one).rows == A.rel
    for i in (3, 4):  # max(A) = {3, 4}
        assert compose(A, CompositionKind.TRI_UP, i, one).rows == A.rel
    assert compose(A, CompositionKind.TRI_DOWN, 1, one).rows == A.rel  # min(A) = {1}
    for kind in ALL_KINDS:
        out = compose(one, kind, 1, B)
        assert out.valid
        assert out.rows == B.rel


def test_tri_up_with_singleton_below_a_minimal_element():
    # at a non-maximal position the Case-2 zero rule really does fire:
    # splicing the point into the middle of a 3-chain cuts the bottom link
    out = compose(chain(3), CompositionKind.TRI_UP, 2, chain(1))
    assert out.valid
    assert out.rows == ((1, 0, 0), (0, 1, 0), (1, 1, 1))


def test_provenance_labels_prime_clashes():
    # B's label "1" collides with A's surviving "1"; B's "2" does not
    # collide because A's own "2" was the deleted position
    out = compose(chain(3), CompositionKind.SQUARE, 2, chain(2))
    assert out.labels == ("1", "1'", "2", "3")


def test_relabel_replaces_provenance_labels():
    out = compose(chain(3), CompositionKind.SQUARE, 2, chain(2), relabel=True)
    assert out.labels == ("1", "2", "3", "4")


def test_invalid_case_two_output_keeps_witness():
    out = compose(chain(4), CompositionKind.TRI_UP, 3, chain(2))
    assert not out.valid
    assert ("transitive", (2, 1, 0)) in out.report.violations
    with pytest.raises(InvalidPosetError):
        out.poset()


@given(
    poset_matrices(max_order=5),
    poset_matrices(max_order=5),
    st.sampled_from(ALL_KINDS),
    st.data(),
)
def test_output_shape_and_diagonal_blocks(a, b, kind, data):
    i = data.draw(st.integers(1, a.order))
    out = compose(a, kind, i, b)
    n, m, d = a.order, b.order, i - 1
    assert out.order == n + m - 1
    for y in range(d):
        for z in range(d):
            assert out.rows[y][z] == a.rel[y][z]
    for y in range(m):
        for z in range(m):
            assert out.rows[d + y][d + z] == b.rel[y][z]
    for y in range(d + 1, n):
        for z in range(d + 1, n):
            assert out.rows[y + m - 1][z + m - 1] == a.rel[y][z]
    # strictly-upper region of the storage order is always empty
    for y in range(out.order):
        for z in range(y + 1, out.order):
            assert out.rows[y][z] == 0


@given(poset_matrices(max_order=5), poset_matrices(max_order=5), st.data())
def test_square_composition_always_valid(a, b, data):
    i = data.draw(st.integers(1, a.order))
    assert compose(a, CompositionKind.SQUARE, i, b).valid


@given(poset_matrices(max_order=5), poset_matrices(max_order=5), st.data())
def test_triangle_blocks_are_subsets_of_square(a, b, data):
    # both restricted operations only ever clear bits of the full-inheritance
    # composition, never set new ones
    i = data.draw(st.integers(1, a.order))
    square = compose(a, CompositionKind.SQUARE, i, b)
    for kind in (CompositionKind.TRI_UP, CompositionKind.TRI_DOWN):
        rows = compose(a, kind, i, b).rows
        for y in range(len(rows)):
            for z in range(len(rows)):
                assert rows[y][z] <= square.rows[y][z]


@given(poset_matrices(max_order=4), poset_matrices(max_order=4), st.data())
def test_square_duality_law(a, b, data):
    i = data.draw(st.integers(1, a.order))
    left = compose(a, CompositionKind.SQUARE, i, b).poset()
    right = compose(dual(a), CompositionKind.SQUARE, a.order - i + 1, dual(b)).poset()
    assert canonical_form(dual(left)) == canonical_form(right)


@given(poset_matrices(max_order=4), poset_matrices(max_order=4), st.data())
def test_triangle_duality_law(a, b, data):
    # up and down swap under dualization; only valid outputs compare
    i = data.draw(st.integers(1, a.order))
    j = a.order - i + 1
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


@given(poset_matrices(max_order=4), st.data())
def test_duality_law_with_self_dual_right_operand(a, data):
    i = data.draw(st.integers(1, a.order))
    j = a.order - i + 1
    for b in (chain(2), antichain(2)):
        left = compose(a, CompositionKind.SQUARE, i, b).poset()
        right = compose(dual(a), CompositionKind.SQUARE, j, b).poset()
        assert canonical_form(dual(left)) == canonical_form(right)


@given(poset_matrices(min_order=2, max_order=4), poset_matrices(max_order=4), st.data())
def test_disconnected_left_operand_forces_disconnection(a, b, data):
    from posetmat import is_connected

    i = data.draw(st.integers(1, a.order))
    out = compose(a, CompositionKind.SQUARE, i, b).poset()
    if not is_connected(a):
        assert not is_connected(out)
    elif is_connected(b) or a.order > 1:
        assert is_connected(out)


def test_composition_of_chains_is_a_chain():
    out = compose(chain(3), CompositionKind.SQUARE, 2, chain(4))
    assert out.valid
    assert out.rows == chain(6).rel


# Operad laws.  The operands are the oracle's class representatives, and
# each law compares the two sides' row masks, both relabelled 1..n.

SQ, UP, DN = ALL_KINDS


def class_representatives(*orders):
    return [e.representative for n in orders for e in enumerate_oracle(n).entries.values()]


def composed(a, kind, i, b):
    """`a kind@i b` relabelled, or None when either operand is None or the output is no poset."""
    if a is None or b is None:
        return None
    out = compose(a, kind, i, b, relabel=True)
    return out.poset() if out.valid else None


def outcome(left, right):
    if left is None or right is None:
        return "both invalid" if left is right else "one side invalid"
    if left.masks == right.masks:
        return "equal"
    return "isomorphic" if canonical_form(left) == canonical_form(right) else "not isomorphic"


def sequential_census(kind):
    """Outcomes of (A o_i B) o_(i+j-1) C against A o_i (B o_j C), over the classes of orders 2 and 3."""
    operands = class_representatives(2, 3)
    outcomes = Counter()
    for a, b, c in itertools.product(operands, repeat=3):
        for i in range(1, a.order + 1):
            for j in range(1, b.order + 1):
                left = composed(composed(a, kind, i, b), kind, i + j - 1, c)
                right = composed(a, kind, i, composed(b, kind, j, c))
                outcomes[outcome(left, right)] += 1
    return outcomes


def parallel_census(kind):
    """Outcomes of (A o_i B) o_(k+|B|-1) C against (A o_k C) o_i B for i < k.

    A ranges over the classes of orders 2 to 4, B and C over those of orders 1 to 3.
    """
    operands = class_representatives(1, 2, 3)
    outcomes = Counter()
    for a in class_representatives(2, 3, 4):
        for b, c in itertools.product(operands, repeat=2):
            for i, k in itertools.combinations(range(1, a.order + 1), 2):
                left = composed(composed(a, kind, i, b), kind, k + b.order - 1, c)
                right = composed(composed(a, kind, k, c), kind, i, b)
                outcomes[outcome(left, right)] += 1
    return outcomes


# The triangle kinds fail the sequential law, even up to isomorphism.
TRIANGLE_SEQUENTIAL = {"equal": 2278, "not isomorphic": 200, "one side invalid": 49}
# The triangle kinds obey the parallel law wherever both sides are valid.
TRIANGLE_PARALLEL = {"equal": 6640, "one side invalid": 424, "both invalid": 168}


@pytest.mark.parametrize(
    "kind, expected", [(SQ, {"equal": 2527}), (UP, TRIANGLE_SEQUENTIAL), (DN, TRIANGLE_SEQUENTIAL)]
)
def test_sequential_law_census(kind, expected):
    assert sequential_census(kind) == expected


@pytest.mark.parametrize(
    "kind, expected", [(SQ, {"equal": 7232}), (UP, TRIANGLE_PARALLEL), (DN, TRIANGLE_PARALLEL)]
)
def test_parallel_law_census(kind, expected):
    assert parallel_census(kind) == expected


def test_smallest_sequential_witness_for_tri_up():
    left = composed(composed(C2, UP, 1, C2), UP, 2, I2)
    right = composed(C2, UP, 1, composed(C2, UP, 2, I2))
    assert left.masks == (1, 2, 4, 15)
    assert right.masks == (1, 3, 5, 15)
    assert canonical_form(left) != canonical_form(right)


def test_the_point_is_a_left_unit_for_every_kind():
    one = chain(1)
    for b in class_representatives(1, 2, 3, 4):
        for kind in ALL_KINDS:
            assert compose(one, kind, 1, b, relabel=True).masks == b.masks


def test_the_point_is_a_right_unit_exactly_at_extreme_positions_for_triangles():
    one = chain(1)
    unchanged = {kind: set() for kind in ALL_KINDS}
    pairs = set()
    extreme = set()
    for a in class_representatives(2, 3, 4):
        for i in range(1, a.order + 1):
            pairs.add((a.masks, i))
            if i - 1 in minimal_elements(a) or i - 1 in maximal_elements(a):
                extreme.add((a.masks, i))
            for kind in ALL_KINDS:
                if compose(a, kind, i, one, relabel=True).masks == a.masks:
                    unchanged[kind].add((a.masks, i))
    assert len(pairs) == 83
    assert unchanged[SQ] == pairs
    # up and dn change A exactly where position i is neither minimal nor maximal in A.
    assert unchanged[UP] == unchanged[DN] == extreme
    assert len(pairs - extreme) == 10


@given(
    poset_matrices(max_order=4),
    poset_matrices(max_order=4),
    poset_matrices(max_order=4),
    st.data(),
)
def test_square_sequential_law(a, b, c, data):
    i = data.draw(st.integers(1, a.order))
    j = data.draw(st.integers(1, b.order))
    left = composed(composed(a, SQ, i, b), SQ, i + j - 1, c)
    right = composed(a, SQ, i, composed(b, SQ, j, c))
    assert left.masks == right.masks


@given(
    poset_matrices(min_order=2, max_order=5),
    poset_matrices(max_order=4),
    poset_matrices(max_order=4),
    st.data(),
)
def test_square_parallel_law(a, b, c, data):
    i = data.draw(st.integers(1, a.order - 1))
    k = data.draw(st.integers(i + 1, a.order))
    left = composed(composed(a, SQ, i, b), SQ, k + b.order - 1, c)
    right = composed(composed(a, SQ, k, c), SQ, i, b)
    assert left.masks == right.masks
