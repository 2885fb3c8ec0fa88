"""Partial composition of poset matrices.

All three operations replace the element at position i of A (1-based) by
the whole of B.  The result has order n+m-1 and storage order

    A positions 1..i-1, then all of B, then A positions i+1..n.

A's two diagonal blocks and B's block are copied verbatim; everything
above the diagonal outside those blocks is 0.  The operations differ only
in the two cross blocks U (B rows over the left A columns) and V (right A
rows over the B columns), written here with a[y][z] for bit z of A's row
mask y and d = i-1 the 0-based deleted position:

  square: every element of B inherits all of i's relations.
      U[y][z] = a[d][z]            V[y][z] = a[y][d]

  tri_up, i maximal in A: only B's maximal elements inherit.
      U[y][z] = a[d][z] if y in max(B) else 0
      V[y][z] = a[y][d] if z in max(B) else 0
  tri_up, otherwise: inherit by default, except pairs of minimal
  elements (one from B, one from A) stay unrelated.
      U[y][z] = 0 if (y in min(B) and z in min(A)) else a[d][z]
      V[y][z] = 0 if (y in min(A) and z in min(B)) else a[y][d]

  tri_down mirrors tri_up with min/max swapped.

Operands and outputs are row masks (see `core`), so one kernel builds all
three kinds from shifted and OR-ed rows.

The square operation always yields a valid poset matrix.  The triangle
operations need not: the default-inherit cases can break transitivity
(for example chain_4 tri_up@3 chain_2).  Nothing is repaired silently;
the assembled table comes back with its validation report and a `valid`
flag.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .core import (
    InvalidPosetError,
    Masks,
    PosetMatrix,
    Rows,
    ValidationReport,
    default_labels,
    rows_from_masks,
    validate_masks,
)


class CompositionKind(enum.Enum):
    SQUARE = "sq"
    TRI_UP = "up"
    TRI_DOWN = "dn"


@dataclass(frozen=True)
class CompositionResult:
    """Assembled composition output (row masks and labels) plus its validation outcome."""

    masks: Masks
    report: ValidationReport
    labels: tuple[str, ...]

    @cached_property
    def rows(self) -> Rows:
        return rows_from_masks(self.masks)

    @property
    def valid(self) -> bool:
        return self.report.ok

    @property
    def order(self) -> int:
        return len(self.masks)

    def poset(self) -> PosetMatrix:
        if not self.valid:
            summary = self.report.summary()
            raise InvalidPosetError("composition output violates the order axioms:\n" + summary, self.report)
        return PosetMatrix(self.masks, self.labels)


def _provenance_labels(a: PosetMatrix, d: int, b: PosetMatrix) -> tuple[str, ...]:
    """A's surviving labels around B's labels; clashes get primed."""
    left, right = a.labels[:d], a.labels[d + 1:]
    taken = set(left + right)
    middle = []
    for lab in b.labels:
        while lab in taken:
            lab += "'"
        taken.add(lab)
        middle.append(lab)
    return left + tuple(middle) + right


def _assemble(a: PosetMatrix, kind: CompositionKind, i: int, b: PosetMatrix) -> Masks:
    """The row masks of `a kind@i b`, unvalidated."""
    n, m = len(a.masks), len(b.masks)
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    d = i - 1
    # U row y (B position) drops u_clear when y is in u_sel; V row y
    # (A position) drops v_clear when y is in v_sel.  -1 selects everything.
    if kind is CompositionKind.SQUARE:
        u_sel = u_clear = v_sel = v_clear = 0
    else:
        up = kind is CompositionKind.TRI_UP
        a_end, b_end = (a.maximal, b.maximal) if up else (a.minimal, b.minimal)
        if a_end >> d & 1:
            # Only B's maximal (tri_up) or minimal (tri_down) elements inherit.
            u_sel, u_clear, v_sel, v_clear = ~b_end, -1, -1, ~b_end
        else:
            # Opposite-end pairs, one from each side, stay unrelated.
            a_far, b_far = (a.minimal, b.minimal) if up else (a.maximal, b.maximal)
            u_sel, u_clear, v_sel, v_clear = b_far, a_far, a_far, b_far

    below = (1 << d) - 1
    u_row = a.masks[d] & below
    u_kept = u_row & ~u_clear
    v_row = (1 << m) - 1 << d
    v_kept = v_row & ~(v_clear << d)
    out = list(a.masks[:d])
    out += [bm << d | (u_kept if u_sel >> y & 1 else u_row) for y, bm in enumerate(b.masks)]
    for y in range(d + 1, n):
        am = a.masks[y]
        row = am & below | am >> i << (i + m - 1)
        if am >> d & 1:
            row |= v_kept if v_sel >> y & 1 else v_row
        out.append(row)

    return tuple(out)


def compose(
    a: PosetMatrix, kind: CompositionKind, i: int, b: PosetMatrix, relabel: bool = False
) -> CompositionResult:
    """Replace position i (1-based) of `a` by `b` under the given kind."""
    masks = _assemble(a, kind, i, b)
    labels = default_labels(len(masks)) if relabel else _provenance_labels(a, i - 1, b)
    return CompositionResult(masks, validate_masks(masks), labels)

