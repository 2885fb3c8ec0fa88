import pytest
from hypothesis import given, settings

from posetmat import (
    CanonicalKey,
    PosetMatrix,
    are_isomorphic,
    canonical_form,
    dual,
    normalize_linear_extension,
)
from posetmat.generators import antichain, chain

from conftest import brute_canonical_packed, iter_all_posets, poset_matrices


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


def test_key_rows_reconstruct_chain():
    key = canonical_form(chain(3))
    assert key.rows() == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    assert key.matrix().rel == chain(3).rel


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
    assert key.rows() == chain(4).rel


def test_canonical_cache_is_bounded():
    from posetmat.canon import _canonical_packed

    assert isinstance(_canonical_packed.cache_info().maxsize, int)
