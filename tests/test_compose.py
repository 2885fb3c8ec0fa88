import pytest
from hypothesis import given, strategies as st

from posetmat import (
    CompositionKind,
    InvalidPosetError,
    PosetMatrix,
    canonical_form,
    compose,
    dual,
)
from posetmat.generators import antichain, chain

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
