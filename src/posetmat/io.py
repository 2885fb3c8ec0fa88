"""Text formats: matrix files, DOT export, and the recipe expression DSL.

Matrix file layout::

    # optional comments anywhere
    3
    labels: 5 6 7
    1 0 0
    1 1 0
    1 0 1

The first significant line is the order, in ASCII digits, an optional
``labels:`` line names the elements, then one space-separated 0/1 row
per line.  The labels line is omitted on output when the labels are the
default 1..n.

A row is read as one integer: its whitespace-separated cells must number
n and join to n characters, all ``0`` or ``1`` (so ``01``, ``1_0``,
``+1`` or a full-width digit, which ``int`` would take, fail the row),
and the joined string read backwards in base 2 is its mask.  Only a row
failing that check is walked cell by cell, to name its first bad cell.

Recipe grammar (whitespace optional)::

    expr    := operand OPER operand
    operand := NAME | '(' expr ')'
    OPER    := ('sq@' | 'up@' | 'dn@') INT    (INT: ASCII digits)

Names resolve against a symbol table; ``X*`` means the dual of ``X``
unless the table has a literal ``X*`` entry.  C2 (chain) and I2
(antichain) are always available.
"""
from __future__ import annotations

import re
from collections import ChainMap
from dataclasses import dataclass
from typing import Mapping

from .compose import CompositionKind, CompositionResult, compose
from .core import (
    InvalidPosetError,
    Masks,
    PosetMatrix,
    default_labels,
    dual,
    hasse_edges,
)
from .generators import GENERATORS


class MatrixParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_candidate(text: str) -> tuple[Masks, tuple[str, ...] | None]:
    """Parse the text format into row masks and labels, without checking the order axioms."""
    items: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            items.append((lineno, line))
    if not items:
        raise MatrixParseError("empty input", 1)
    lineno, head = items[0]
    # ASCII digits only: `int` also takes a sign, `_` and non-ASCII digits.
    if not (head.isascii() and head.isdigit()):
        raise MatrixParseError(f"expected the order, got {head!r}", lineno)
    order = int(head)
    if order < 1:
        raise MatrixParseError(f"order must be positive, got {order}", lineno)
    rest = items[1:]
    labels: tuple[str, ...] | None = None
    if rest and rest[0][1].startswith("labels:"):
        lineno, line = rest[0]
        labels = tuple(line[len("labels:"):].split())
        if len(labels) != order:
            raise MatrixParseError(
                f"{len(labels)} labels for order {order}", lineno
            )
        if len(set(labels)) != order:
            raise MatrixParseError("labels must be distinct", lineno)
        rest = rest[1:]
    if len(rest) != order:
        where = rest[-1][0] if rest else lineno
        raise MatrixParseError(
            f"expected {order} rows, found {len(rest)}", where
        )
    masks = []
    for lineno, line in rest:
        cells = line.split()
        if len(cells) != order:
            raise MatrixParseError(
                f"row has {len(cells)} entries, expected {order}", lineno
            )
        bits = "".join(cells)
        # n cells in n characters are one character each; stripping 0s and 1s leaves any other.
        if len(bits) != order or bits.strip("01"):
            cell = next(cell for cell in cells if cell not in ("0", "1"))
            raise MatrixParseError(f"entry {cell!r} is not 0 or 1", lineno)
        masks.append(int(bits[::-1], 2))
    return tuple(masks), labels


def parse_matrix(text: str) -> PosetMatrix:
    """Parse, validate the axioms, and require lower-triangular storage."""
    masks, labels = parse_candidate(text)
    return PosetMatrix.from_masks(masks, labels)


def serialize_matrix(m: PosetMatrix | CompositionResult) -> str:
    """Canonical text for a matrix; round-trips through parse_matrix when it is valid."""
    lines = [str(m.order)]
    if m.labels != default_labels(m.order):
        lines.append("labels: " + " ".join(m.labels))
    for mask in m.masks:
        lines.append(" ".join(format(mask, f"0{m.order}b")[::-1]))
    return "\n".join(lines) + "\n"


def to_dot(m: PosetMatrix) -> str:
    """Covering relation as a DOT digraph, edges directed lower -> upper."""
    # A quoted DOT ID escapes its quotes; backslashes are escaped too, so a
    # label's own backslash can neither escape a quote nor start an escape.
    ids = ['"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"' for label in m.labels]
    lines = ["digraph poset {"]
    for node in ids:
        lines.append(f"  {node};")
    for lower, upper in hasse_edges(m):
        lines.append(f"  {ids[lower]} -> {ids[upper]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class RecipeError(Exception):
    """Recipe text failed to parse, resolve, or evaluate."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at {span[0]}..{span[1]})")
        self.span = span


@dataclass(frozen=True)
class RecipeCall:
    """One composition of a parsed recipe.

    Each operand is the matrix its name resolved to, or a nested call.
    `span` runs from the left operand's text to the right one's; a nested
    call's span leaves out its parentheses.
    """

    left: PosetMatrix | RecipeCall
    kind: CompositionKind
    position: int
    right: PosetMatrix | RecipeCall
    span: tuple[int, int]


# A name stops where an operation starts, so whitespace around one is optional.
_OPER = "(?:" + "|".join(kind.value for kind in CompositionKind) + ")@"
_TOKEN = re.compile(
    rf"\s*(?:(?P<oper>{_OPER}[0-9]+)|(?P<name>[A-Za-z_](?:(?!{_OPER})[A-Za-z0-9_])*\*?)"
    r"|(?P<paren>[()])|(?P<bad>\S))"
)

# An order-n closure recipe nests at most n-2 deep; deeper input is refused
# before parsing or evaluating it can exhaust the interpreter's stack.
MAX_RECIPE_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, tuple[int, int]]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        at = match.start(kind)
        if kind == "bad":
            raise RecipeError(f"unrecognized input {text[at:at + 10]!r}", (at, at + 1))
        tokens.append((kind, match.group(kind), (at, match.end())))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols: Mapping[str, PosetMatrix], length: int):
        self.tokens = tokens
        self.symbols = symbols
        self.at = 0
        self.length = length
        self.depth = 0

    def peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            raise RecipeError("unexpected end of recipe", (self.length, self.length))
        self.at += 1
        return token

    def resolve(self, name: str, span) -> PosetMatrix:
        if name in self.symbols:
            return self.symbols[name]
        if name.endswith("*") and name[:-1] in self.symbols:
            return dual(self.symbols[name[:-1]])
        raise RecipeError(f"unknown name {name!r}", span)

    def operand(self) -> tuple[PosetMatrix | RecipeCall, tuple[int, int]]:
        kind, value, span = self.take()
        if kind == "name":
            return self.resolve(value, span), span
        if kind == "paren" and value == "(":
            self.depth += 1
            if self.depth > MAX_RECIPE_DEPTH:
                raise RecipeError(f"recipe nests deeper than {MAX_RECIPE_DEPTH} levels", span)
            expr = self.expr()
            closer = self.take()
            if closer[0] != "paren" or closer[1] != ")":
                raise RecipeError("expected ')'", closer[2])
            self.depth -= 1
            return expr, expr.span
        raise RecipeError(f"expected a name or '(', got {value!r}", span)

    def expr(self) -> RecipeCall:
        left, (start, _) = self.operand()
        token = self.take()
        if token[0] != "oper":
            raise RecipeError(f"expected an operation, got {token[1]!r}", token[2])
        op, _, pos_text = token[1].partition("@")
        right, (_, end) = self.operand()
        return RecipeCall(left, CompositionKind(op), int(pos_text), right, (start, end))


def parse_recipe(text: str, symbols: Mapping[str, PosetMatrix] | None = None) -> RecipeCall:
    """Parse a recipe expression, resolving every name immediately.

    A name is looked up in `symbols` first, then in the C2/I2
    `GENERATORS`, so the table may shadow them, and only the names the
    recipe holds are looked up.  Parentheses nested deeper than
    MAX_RECIPE_DEPTH raise RecipeError, and so does a bare name, even in
    parentheses: a recipe composes.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise RecipeError("empty recipe", (0, len(text)))
    parser = _Parser(tokens, ChainMap({} if symbols is None else symbols, GENERATORS), len(text))
    expr = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise RecipeError(
            f"trailing input {leftover[1]!r}; nest with parentheses", leftover[2]
        )
    return expr


def _eval(expr: PosetMatrix | RecipeCall) -> PosetMatrix:
    if isinstance(expr, PosetMatrix):
        return expr
    try:
        return eval_recipe(expr).poset()
    except InvalidPosetError as err:
        raise RecipeError(f"subexpression is not a valid poset: {err}", expr.span) from err


def eval_recipe(expr: RecipeCall) -> CompositionResult:
    """Evaluate a parsed recipe; the top level keeps its validation report."""
    left = _eval(expr.left)
    right = _eval(expr.right)
    try:
        return compose(left, expr.kind, expr.position, right)
    except ValueError as err:
        raise RecipeError(str(err), expr.span) from err
