import pytest
from hypothesis import given, strategies as st

from posetmat import (
    CompositionKind,
    MatrixParseError,
    PosetError,
    PosetMatrix,
    RecipeError,
    StorageOrderError,
    canonical_form,
    compose,
    default_labels,
    dual,
    eval_recipe,
    named_operands,
    parse_matrix,
    parse_recipe,
    serialize_matrix,
    to_dot,
)
from posetmat.generators import chain
from posetmat.io import MAX_RECIPE_DEPTH, parse_candidate

import reference
from conftest import poset_matrices


@given(poset_matrices(max_order=6))
def test_serialize_parse_round_trip(m):
    assert parse_matrix(serialize_matrix(m)) == m


def test_serialize_omits_default_labels():
    text = serialize_matrix(chain(2))
    assert text == "2\n1 0\n1 1\n"


def test_serialize_keeps_custom_labels():
    m = chain(2).relabelled(("lo", "hi"))
    text = serialize_matrix(m)
    assert "labels: lo hi" in text
    assert parse_matrix(text).labels == ("lo", "hi")


def test_primed_labels_round_trip():
    m = chain(2).relabelled(("1'", "1"))
    assert parse_matrix(serialize_matrix(m)) == m


def test_parse_allows_comments_and_blank_lines():
    text = """
    # a three-chain
    3

    labels: a b c
    1 0 0   # bottom
    1 1 0
    1 1 1
    """
    m = parse_matrix(text)
    assert m.rel == chain(3).rel
    assert m.labels == ("a", "b", "c")


# Text -> (line, message).  From '01' on, most bad cells are ones that
# int(..., 2) would accept or misread.
PARSE_ERRORS = {
    "": (1, "empty input"),
    "banana": (1, "expected the order, got 'banana'"),
    "0": (1, "order must be positive, got 0"),
    # The order line takes ASCII digits only, as rows do.
    "1_0": (1, "expected the order, got '1_0'"),
    "+2\n1 0\n1 1": (1, "expected the order, got '+2'"),
    "-1": (1, "expected the order, got '-1'"),
    "\u0662\n1 0\n1 1": (1, "expected the order, got '\u0662'"),  # Arabic-Indic two
    "\uff12\n1 0\n1 1": (1, "expected the order, got '\uff12'"),  # full-width two
    "2\n1 0": (2, "expected 2 rows, found 1"),
    "2\n1 0\n1 1\n0 1": (4, "expected 2 rows, found 3"),
    "2\n1 0 0\n1 1": (2, "row has 3 entries, expected 2"),
    "2\n1 x\n1 1": (2, "entry 'x' is not 0 or 1"),
    "2\nlabels: only\n1 0\n0 1": (2, "1 labels for order 2"),
    "2\nlabels: a a\n1 0\n0 1": (2, "labels must be distinct"),
    "2\n01 1\n1 1": (2, "entry '01' is not 0 or 1"),
    "1\n10": (2, "entry '10' is not 0 or 1"),
    "2\n1 0\n1_0 1": (3, "entry '1_0' is not 0 or 1"),
    "2\n+1 0\n1 1": (2, "entry '+1' is not 0 or 1"),
    "2\n1 0\n1.0 1": (3, "entry '1.0' is not 0 or 1"),
    "2\n1 \uff10\n1 1": (2, "entry '\uff10' is not 0 or 1"),  # full-width zero
    "2\n1 0\n\u0661 1": (3, "entry '\u0661' is not 0 or 1"),  # Arabic-Indic one
    "3\n1 0 0\n1 1 0\n1 1 2": (4, "entry '2' is not 0 or 1"),
    "2\r\n1 0\r\n1 01\r\n": (3, "entry '01' is not 0 or 1"),
    "2\nlabels: a#b\n1 0\n1 1": (2, "1 labels for order 2"),  # '#' starts a comment
}


@pytest.mark.parametrize("text,line", [(text, line) for text, (line, _) in PARSE_ERRORS.items()])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {PARSE_ERRORS[text][1]}"


@pytest.mark.parametrize(
    "text",
    [
        "2\n1\t0\n1\t1",
        "2\r\n1 0\r\n1 1\r\n",
        "2\n1 0 # bottom\n1 1#top\n",
        "2\nlabels: 1 2 # default names\n1 0\n1 1",
    ],
)
def test_parse_reads_tabs_crlf_and_trailing_comments(text):
    assert parse_matrix(text) == chain(2)


# Replacements for one cell: a missing or extra cell, a comment, and cells int(..., 2) accepts or misreads.
CORRUPT_CELLS = ["", "0 0", "2", "01", "10", "1_0", "+1", "-0", "1.0", "0b1", "\uff10", "\u0661", "x", "#"]


@st.composite
def matrix_texts(draw):
    """Serialized random posets, re-spaced; half have one cell flipped or replaced."""
    m = draw(poset_matrices(max_order=6))
    if draw(st.booleans()):
        m = m.relabelled(draw(st.permutations(["a", "b", "c", "d", "e", "f"]))[: m.order])
    sep, end = draw(st.sampled_from([" ", "\t", "  "])), draw(st.sampled_from(["\n", "\r\n"]))
    lines = [line.split() for line in serialize_matrix(m).splitlines()]
    if draw(st.booleans()):
        y = len(lines) - m.order + draw(st.integers(0, m.order - 1))
        z = draw(st.integers(0, m.order - 1))
        cells = lines[y]
        cells[z] = draw(st.one_of(st.just(str(1 - int(cells[z]))), st.sampled_from(CORRUPT_CELLS)))
    return end.join(sep.join(cells) for cells in lines) + end


def _outcome(read):
    try:
        return read()
    except (MatrixParseError, PosetError) as err:
        return type(err), str(err), getattr(err, "line", None)


@given(matrix_texts())
def test_parse_matrix_agrees_with_the_cell_by_cell_reader(text):
    def slow():
        rows, labels = reference.parse_candidate(text)
        return PosetMatrix.from_rows(rows, labels)

    assert _outcome(lambda: parse_matrix(text)) == _outcome(slow)


@pytest.mark.parametrize("n", range(1, 6))
def test_serialize_parse_round_trip_on_every_labelled_matrix(n):
    labels = tuple("abcde"[:n])
    for masks in reference.iter_matrices(n):
        for m in (PosetMatrix(masks, default_labels(n)), PosetMatrix(masks, labels)):
            text = serialize_matrix(m)
            assert parse_matrix(text) == m
            assert parse_candidate(text) == (masks, None if m.labels == default_labels(n) else labels)
            assert reference.parse_candidate(text)[0] == m.rel


def test_parse_candidate_skips_axiom_checks():
    masks, labels = parse_candidate("2\n1 1\n1 1")
    assert masks == (0b11, 0b11)
    assert labels is None


def test_parse_matrix_enforces_storage_order():
    with pytest.raises(StorageOrderError):
        parse_matrix("3\n1 1 0\n0 1 0\n1 1 1")


def test_to_dot_lists_nodes_and_cover_edges():
    m = PosetMatrix.from_rows(
        ((1, 0, 0), (1, 1, 0), (1, 1, 1)), labels=("lo", "mid", "hi")
    )
    dot = to_dot(m)
    assert dot.startswith("digraph poset {")
    assert dot.endswith("}\n")
    assert '  "lo";' in dot and '  "mid";' in dot
    assert '"lo" -> "mid";' in dot
    assert '"mid" -> "hi";' in dot
    assert '"lo" -> "hi"' not in dot  # covers only, no transitive edge


def test_to_dot_antichain_has_no_edges():
    dot = to_dot(PosetMatrix.from_rows(((1, 0), (0, 1))))
    assert "->" not in dot


def test_recipe_basic_evaluation():
    result = eval_recipe(parse_recipe("C2 sq@1 I2"))
    assert result.valid
    assert result.order == 3


@given(poset_matrices(min_order=2, max_order=4), poset_matrices(max_order=4))
def test_recipe_matches_compose_square(a, b):
    table = {"X": a, "Y": b}
    for i in range(1, a.order + 1):
        via_recipe = eval_recipe(parse_recipe(f"X sq@{i} Y", table))
        direct = compose(a, CompositionKind.SQUARE, i, b)
        assert via_recipe.rows == direct.rows


def test_recipe_nesting_both_sides():
    left = eval_recipe(parse_recipe("(C2 sq@1 C2) sq@3 C2")).poset()
    right = eval_recipe(parse_recipe("C2 sq@2 (C2 sq@2 C2)")).poset()
    assert left.rel == chain(4).rel
    assert right.rel == chain(4).rel


def test_recipe_star_means_dual_unless_defined():
    operands = named_operands()
    # D* is not a table entry, so the star builds the dual on the fly
    out = eval_recipe(parse_recipe("D* sq@1 C2", operands))
    ref = compose(dual(operands["D"]), CompositionKind.SQUARE, 1, operands["C2"])
    assert out.rows == ref.rows
    # A* is a table entry and shadows the derived dual
    table_a_star = eval_recipe(parse_recipe("A* sq@1 C2", operands))
    literal = compose(operands["A*"], CompositionKind.SQUARE, 1, operands["C2"])
    assert table_a_star.rows == literal.rows


def test_recipe_star_on_builtin():
    # C2 is self-dual, so the starred form evaluates identically
    assert (
        eval_recipe(parse_recipe("C2* sq@1 C2")).rows
        == eval_recipe(parse_recipe("C2 sq@1 C2")).rows
    )


def test_symbols_may_shadow_builtins():
    fake = chain(3)
    out = eval_recipe(parse_recipe("C2 sq@1 C2", {"C2": fake}))
    assert out.order == 5


@pytest.mark.parametrize(
    "bare, spaced",
    [("C2sq@1C2", "C2 sq@1 C2"), ("C2up@2(C2sq@1I2)", "C2 up@2 (C2 sq@1 I2)")],
)
def test_recipe_whitespace_is_optional(bare, spaced):
    a, b = eval_recipe(parse_recipe(bare)), eval_recipe(parse_recipe(spaced))
    assert (a.masks, a.labels) == (b.masks, b.labels)


def test_recipe_names_may_end_in_an_operation_name():
    out = eval_recipe(parse_recipe("Xsq sq@1 C2", {"Xsq": chain(3)}))
    assert out.masks == chain(4).masks


@pytest.mark.parametrize(
    "text",
    [
        "",
        "C2",
        "C2 sq@1",
        "sq@1 C2",
        "C2 sq@ C2",
        "C2 xx@1 C2",
        "C2 sq@1 C2)",
        "(C2 sq@1 C2",
        "NOPE sq@1 C2",
        "C2 sq@1 C2 sq@2 C2",
        "C2 sq@0 C2",
        "C2 sq@3 C2",
        "C2 sq@\uff11 C2",  # full-width one
        "C2 sq@+1 C2",
    ],
)
def test_recipe_rejects_malformed_input(text):
    with pytest.raises(RecipeError):
        eval_recipe(parse_recipe(text))


def test_recipe_error_span_points_at_unknown_name():
    with pytest.raises(RecipeError) as exc:
        parse_recipe("C2 sq@1 MYSTERY")
    start, end = exc.value.span
    assert "C2 sq@1 MYSTERY"[start:end] == "MYSTERY"


def test_chained_operators_need_parentheses():
    with pytest.raises(RecipeError) as exc:
        parse_recipe("C2 sq@1 C2 sq@2 C2")
    assert "parentheses" in str(exc.value)


def test_invalid_intermediate_raises_with_span():
    # the inner expression (chain4 up@3 C2) is not a valid poset, and the
    # failure must not be silently swallowed by the outer composition
    operands = {"K4": chain(4)}
    with pytest.raises(RecipeError):
        eval_recipe(parse_recipe("(K4 up@3 C2) sq@1 C2", operands))


def test_invalid_top_level_returns_result_not_error():
    out = eval_recipe(parse_recipe("K4 up@3 C2", {"K4": chain(4)}))
    assert not out.valid
    assert ("transitive", (2, 1, 0)) in out.report.violations


def test_recipe_canonical_agreement_with_direct_composition():
    operands = named_operands()
    out = eval_recipe(parse_recipe("B sq@4 I2", operands)).poset()
    direct = compose(operands["B"], CompositionKind.SQUARE, 4, operands["I2"]).poset()
    assert canonical_form(out) == canonical_form(direct)


def deeply_nested_recipe(depth):
    return "C2 sq@1 (" * depth + "C2 sq@1 C2" + ")" * depth


def test_recipe_nesting_is_bounded():
    # the deepest accepted nesting still evaluates; each level adds one element
    deepest = parse_recipe(deeply_nested_recipe(MAX_RECIPE_DEPTH))
    assert eval_recipe(deepest).order == MAX_RECIPE_DEPTH + 3
    text = deeply_nested_recipe(1000)
    with pytest.raises(RecipeError) as info:
        parse_recipe(text)
    start, end = info.value.span
    assert text[start:end] == "("
    assert text[:start].count("(") == MAX_RECIPE_DEPTH


INVALID_K4_UP3 = (
    "subexpression is not a valid poset: composition output violates the order axioms:\n"
    "reflexive: ok; antisymmetric: ok; transitive: FAIL; lower-triangular: yes\n"
    "  transitive violated at (2, 1, 0)"
)

RECIPE_ERRORS = [
    ("C2 sq@1 MYSTERY", "unknown name 'MYSTERY'", (8, 15)),
    ("MYSTERY* up@1 C2", "unknown name 'MYSTERY*'", (0, 8)),
    ("C2 sq@1 C2 sq@2 C2", "trailing input 'sq@2'; nest with parentheses", (11, 15)),
    ("(C2 sq@1 C2) up@1 C2 dn@1 C2", "trailing input 'dn@1'; nest with parentheses", (21, 25)),
    ("", "empty recipe", (0, 0)),
    ("   ", "empty recipe", (0, 3)),
    ("\t\n", "empty recipe", (0, 2)),
    ("C2 sq@ C2", "unrecognized input '@ C2'", (5, 6)),
    ("sq@", "unrecognized input '@'", (2, 3)),
    ("C2 xx@1 C2", "unrecognized input '@1 C2'", (5, 6)),
    ("C2", "unexpected end of recipe", (2, 2)),
    (" C2 ", "unexpected end of recipe", (4, 4)),
    ("(C2)", "expected an operation, got ')'", (3, 4)),
    ("((C2))", "expected an operation, got ')'", (4, 5)),
    ("(C2 sq@1 C2", "unexpected end of recipe", (11, 11)),
    ("C2 sq@1 (C2 sq@1 C2", "unexpected end of recipe", (19, 19)),
    ("C2 sq@1 C2)", "trailing input ')'; nest with parentheses", (10, 11)),
    ("C2 sq@1 (C2 dn@2 C2))", "trailing input ')'; nest with parentheses", (20, 21)),
    (")", "expected a name or '(', got ')'", (0, 1)),
    ("é", "unrecognized input 'é'", (0, 1)),
    ("C2 sq@1 é", "unrecognized input 'é'", (8, 9)),
    ("$ ", "unrecognized input '$ '", (0, 1)),
    ("C2 $ ", "unrecognized input '$ '", (3, 4)),
    ("#abcdefghijklmnop", "unrecognized input '#abcdefghi'", (0, 1)),
    ("C2 sq@1 #abcdefghijklmnop", "unrecognized input '#abcdefghi'", (8, 9)),
    ("C2 sq@0 C2", "position 0 out of range 1..2", (0, 10)),
    ("C2 sq@3 C2", "position 3 out of range 1..2", (0, 10)),
    ("C2 sq@1 (C2 up@5 C2)", "position 5 out of range 1..2", (9, 19)),
    ("(C2 sq@1 C2) sq@5 C2", "position 5 out of range 1..3", (1, 20)),
    ("(K4 up@3 C2) sq@1 C2", INVALID_K4_UP3, (1, 11)),
    ("C2 sq@1 (K4 up@3 C2)", INVALID_K4_UP3, (9, 19)),
    ("sq@1 C2", "expected a name or '(', got 'sq@1'", (0, 4)),
    ("C2 sq@1", "unexpected end of recipe", (7, 7)),
    ("C2 C2", "expected an operation, got 'C2'", (3, 5)),
    ("()", "expected a name or '(', got ')'", (1, 2)),
    ("C2 sq@\u0661 C2", "unrecognized input '@\u0661 C2'", (5, 6)),  # positions are ASCII digits
]


@pytest.mark.parametrize("text, message, span", RECIPE_ERRORS)
def test_recipe_error_messages_and_spans(text, message, span):
    with pytest.raises(RecipeError) as info:
        eval_recipe(parse_recipe(text, {"K4": chain(4)}))
    assert str(info.value) == f"{message} (at {span[0]}..{span[1]})"
    assert info.value.span == span
