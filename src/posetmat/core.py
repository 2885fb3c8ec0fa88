"""Finite posets encoded as square 0/1 matrices.

A matrix is stored as one low-bit row mask per position.  Convention: bit
z of ``masks[y]`` is set when the element stored at position z lies at or
below the element stored at position y (z <= y).  Row y therefore lists
the down-set of y.  Storage order is required to be a linear extension,
so every accepted matrix is lower-triangular; candidates that satisfy the
order axioms under some other row order can be repaired with
`normalize_linear_extension`.

The package reads only the masks; `io` reads them straight from text.
The 0/1 rows of `rows_from_masks` (``PosetMatrix.rel``) are kept for
callers outside it that index cells.  Each entry point taking 0/1 rows is
`_coerce_masks` then its mask twin (`PosetMatrix.from_masks`,
`validate_masks`, `normalize_masks`), so both pass the same checks.

Elements are named by their 0-based positions.  Labels are distinct
strings, non-empty and free of the file format's separators (whitespace,
'#'), riding along for display; they default to "1".."n".
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

Rows = tuple[tuple[int, ...], ...]
Masks = tuple[int, ...]


class PosetError(Exception):
    """Base class for poset matrix errors."""


class MalformedMatrixError(PosetError):
    """Input is not a square 0/1 matrix with sane labels."""


class InvalidPosetError(PosetError):
    """A candidate matrix violates the order axioms."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


class StorageOrderError(InvalidPosetError):
    """Axioms hold but storage order is not a linear extension."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the three order axioms on a candidate matrix.

    `violations` holds every failure as (axiom name, witness positions):
    ("reflexive", (k,)), ("antisymmetric", (i, j)) with i < j, or
    ("transitive", (y, z, w)) meaning z <= y and w <= z but not w <= y.
    Lower-triangularity is a storage convention, not an axiom, so it is
    reported separately and never appears in `violations`.
    """

    reflexive_ok: bool
    antisymmetric_ok: bool
    transitive_ok: bool
    lower_triangular_ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return self.reflexive_ok and self.antisymmetric_ok and self.transitive_ok

    def summary(self) -> str:
        bits = [
            f"reflexive: {'ok' if self.reflexive_ok else 'FAIL'}",
            f"antisymmetric: {'ok' if self.antisymmetric_ok else 'FAIL'}",
            f"transitive: {'ok' if self.transitive_ok else 'FAIL'}",
            f"lower-triangular: {'yes' if self.lower_triangular_ok else 'no'}",
        ]
        lines = ["; ".join(bits)]
        for axiom, witness in self.violations:
            lines.append(f"  {axiom} violated at {witness}")
        return "\n".join(lines)


_VALID = ValidationReport(True, True, True, True, ())


# The closure relabels every composition output, of a handful of orders.
@lru_cache(maxsize=64)
def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(k + 1) for k in range(n))


def rows_from_masks(masks: Masks) -> Rows:
    cols = range(len(masks))
    return tuple(tuple([mask >> z & 1 for z in cols]) for mask in masks)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coerce_masks(candidate: Sequence[Sequence[int]]) -> Masks:
    """Check shape and entries, return the row masks."""
    rows = tuple(tuple(row) for row in candidate)
    n = len(rows)
    if n == 0:
        raise MalformedMatrixError("order 0 matrix rejected; need at least one element")
    for y, row in enumerate(rows):
        if len(row) != n:
            raise MalformedMatrixError(
                f"row {y} has length {len(row)}, expected {n} (matrix must be square)"
            )
        for z, cell in enumerate(row):
            if cell not in (0, 1):
                raise MalformedMatrixError(f"entry ({y},{z}) is {cell!r}, expected 0 or 1")
    # By value, so 1.0 and True read as 1, as the check above accepts them.
    return tuple(sum(1 << z for z, cell in enumerate(row) if cell) for row in rows)


def _coerce_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...]:
    if labels is None:
        return default_labels(n)
    out = tuple(str(x) for x in labels)
    if len(out) != n:
        raise MalformedMatrixError(f"{len(out)} labels for order {n}")
    if len(set(out)) != n:
        raise MalformedMatrixError("labels must be distinct")
    for label in out:
        if label.split() != [label] or "#" in label:  # separators of the matrix file
            raise MalformedMatrixError(f"label {label!r} is empty or holds whitespace or '#'")
    return out


def validate_axioms(candidate: Sequence[Sequence[int]]) -> ValidationReport:
    """Check reflexivity, antisymmetry and transitivity on a raw candidate.

    Collects every violation with a concrete witness; raises
    MalformedMatrixError only when the input is not a square 0/1 matrix.
    """
    return validate_masks(_coerce_masks(candidate))


def _order_axioms_hold(masks: Masks, labels: Sequence[str] | None) -> tuple[tuple[str, ...], ValidationReport]:
    """Coerced labels and report of candidate row masks; raises unless the axioms hold."""
    if not masks:
        raise MalformedMatrixError("order 0 matrix rejected; need at least one element")
    labs = _coerce_labels(len(masks), labels)
    report = validate_masks(masks)
    if not report.ok:
        raise InvalidPosetError("candidate violates the order axioms:\n" + report.summary(), report)
    return labs, report


def validate_masks(masks: Masks) -> ValidationReport:
    """`validate_axioms` on row masks, which are trusted to be n ints below 2**n.

    Row y is transitive iff the union of its members' rows stays inside
    it; only rows failing that test are walked for witnesses.  Members are
    taken from the highest down.  A member z whose row has passed already
    brings in the rows of its own members, so they are skipped: on a chain
    each row then costs one lookup.
    """
    regular = all(mask >> y == 1 for y, mask in enumerate(masks))  # reflexive, lower-triangular
    transitive = []
    passed = 0  # the rows found transitive so far
    for y, row in enumerate(masks):
        reach = row
        rest = row ^ 1 << y  # skips y itself, or adds it when absent: masks[y] is row
        while rest:
            z = rest.bit_length() - 1
            member = masks[z]
            reach |= member
            # z's bit even when its row lacks it, or a non-reflexive z is taken forever.
            rest &= ~(1 << z | (member if passed >> z & 1 else 0))
        if reach == row:
            passed |= 1 << y
        else:
            transitive += [
                ("transitive", (y, z, w)) for z in _bits(row & ~(1 << y)) for w in _bits(masks[z] & ~row)
            ]
    if regular and not transitive:
        return _VALID
    n = len(masks)
    reflexive = [("reflexive", (k,)) for k in range(n) if not masks[k] >> k & 1]
    antisymmetric = [
        ("antisymmetric", (i, j)) for i in range(n) for j in range(i + 1, n) if masks[i] >> j & masks[j] >> i & 1
    ]
    return ValidationReport(
        reflexive_ok=not reflexive,
        antisymmetric_ok=not antisymmetric,
        transitive_ok=not transitive,
        lower_triangular_ok=all(mask >> y <= 1 for y, mask in enumerate(masks)),
        violations=tuple(reflexive + antisymmetric + transitive),
    )


@dataclass(frozen=True)
class PosetMatrix:
    """A validated, lower-triangular poset matrix held as low-bit row masks.

    Build through `from_rows` or `from_masks` (full validation) rather
    than the bare constructor; anything that reaches it is trusted.
    """

    masks: Masks
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.masks):
            raise MalformedMatrixError("label count does not match order")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> "PosetMatrix":
        return PosetMatrix.from_masks(_coerce_masks(rows), labels)

    @staticmethod
    def from_masks(masks: Masks, labels: Sequence[str] | None = None) -> "PosetMatrix":
        """`from_rows` on row masks, which are trusted to be n ints below 2**n."""
        labs, report = _order_axioms_hold(masks, labels)
        if not report.lower_triangular_ok:
            raise StorageOrderError(
                "storage order is not a linear extension; apply normalize_linear_extension first", report
            )
        return PosetMatrix(masks, labs)

    @cached_property
    def rel(self) -> Rows:
        """The matrix as rows of 0/1 cells."""
        return rows_from_masks(self.masks)

    @cached_property
    def up(self) -> Masks:
        """Per position: mask of the positions at or above it (the column)."""
        return tuple(sum(1 << y for y, mask in enumerate(self.masks) if mask >> z & 1) for z in range(self.order))

    @cached_property
    def minimal(self) -> int:
        """Mask of the positions with nothing strictly below them."""
        return sum(1 << y for y, mask in enumerate(self.masks) if mask == 1 << y)

    @cached_property
    def maximal(self) -> int:
        """Mask of the positions with nothing strictly above them: those in no strict down-set."""
        below = 0
        for y, mask in enumerate(self.masks):
            below |= mask ^ 1 << y
        return (1 << self.order) - 1 & ~below

    @property
    def order(self) -> int:
        return len(self.masks)

    def position_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}") from None

    def relabelled(self, labels: Sequence[str] | None = None) -> "PosetMatrix":
        """Same relation with fresh labels (default "1".."n")."""
        return PosetMatrix(self.masks, _coerce_labels(self.order, labels))

    def __str__(self) -> str:
        width = max(len(lab) for lab in self.labels)
        head = " " * (width + 1) + " ".join(lab.rjust(width) for lab in self.labels)
        body = [
            label.rjust(width) + "  " + " ".join(str(mask >> z & 1).rjust(width) for z in range(self.order))
            for label, mask in zip(self.labels, self.masks)
        ]
        return "\n".join([head] + body)


def minimal_elements(m: PosetMatrix) -> tuple[int, ...]:
    """Positions whose row is zero off the diagonal (nothing below them)."""
    return tuple(_bits(m.minimal))


def maximal_elements(m: PosetMatrix) -> tuple[int, ...]:
    """Positions whose column is zero off the diagonal (nothing above them)."""
    return tuple(_bits(m.maximal))


def _principal(masks: Masks, positions: Sequence[int]) -> Masks:
    """Rows and columns `positions` of a mask matrix, in that order."""
    return tuple(
        sum(1 << q for q, z in enumerate(positions) if masks[y] >> z & 1)
        for y in positions
    )


def dual(m: PosetMatrix) -> PosetMatrix:
    """Order-reversed poset: transpose plus index reversal, labels reversed.

    Keeps the storage lower-triangular (the reversed order of a linear
    extension is a linear extension of the reversed poset).  Involution:
    dual(dual(m)) == m bit for bit.
    """
    return PosetMatrix(_principal(m.up, range(m.order - 1, -1, -1)), tuple(reversed(m.labels)))


def induced_subposet(m: PosetMatrix, positions: Iterable[int]) -> PosetMatrix:
    """Principal submatrix on the given positions, relative order retained."""
    pos = sorted(set(positions))
    for p in pos:
        if not 0 <= p < m.order:
            raise ValueError(f"position {p} out of range for order {m.order}")
    if not pos:
        raise ValueError("empty subset has no induced subposet")
    return PosetMatrix(_principal(m.masks, pos), tuple(m.labels[p] for p in pos))


def _components(masks: Sequence[int]) -> list[int]:
    """The connected components of a poset's comparability graph, as bitmasks."""
    components: list[int] = []
    for row in masks:  # an element and its down-set lie in one component
        merged = row
        apart = []
        for c in components:
            if c & row:
                merged |= c
            else:
                apart.append(c)
        components = apart + [merged]
    return components


def is_connected(m: PosetMatrix) -> bool:
    """Connectivity of the comparability graph; order 1 is connected."""
    return len(_components(m.masks)) == 1


def hasse_edges(m: PosetMatrix) -> tuple[tuple[int, int], ...]:
    """Covering pairs (lower, upper) as positions, lexicographically sorted."""
    edges = []
    for y, mask in enumerate(m.masks):
        for z in _bits(mask & ~(1 << y)):
            if mask & m.up[z] & ~(1 << y | 1 << z) == 0:
                edges.append((z, y))
    return tuple(sorted(edges))


def normalize_linear_extension(
    candidate: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> PosetMatrix:
    """Reorder a valid candidate so storage becomes a linear extension.

    Rows/columns are permuted simultaneously by a topological sort that
    breaks ties on the smallest original position, so the result is
    deterministic.  Fails with the validation report if the axioms do not
    hold under any order.
    """
    return normalize_masks(_coerce_masks(candidate), labels)


def normalize_masks(masks: Masks, labels: Sequence[str] | None = None) -> PosetMatrix:
    """`normalize_linear_extension` on row masks, trusted as in `validate_masks`."""
    labs, _ = _order_axioms_hold(masks, labels)
    placed: list[int] = []
    done = 0
    for _ in masks:
        # The first position not yet placed whose strict down-set is placed.
        y = next(y for y, mask in enumerate(masks) if mask & ~done == 1 << y)
        placed.append(y)
        done |= 1 << y
    return PosetMatrix(_principal(masks, placed), tuple(labs[y] for y in placed))
