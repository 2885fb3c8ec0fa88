"""Canonical forms and isomorphism for poset matrices.

The canonical key of a matrix is the lexicographically smallest row-major
bit-string over all simultaneous row/column relabelings.  A relabeling
achieving the minimum is always a linear extension: if the matrix had a 1
above the diagonal, take the first row r with one, at column c; moving the
element at c to position r (shifting the block between them right) leaves
rows above r untouched and strictly shrinks row r, so the string was not
minimal.  The search below therefore walks linear extensions only, one
output position per depth, with branch-and-bound pruning against the best
string found so far: a child whose row exceeds the best row at its depth
is cut, and a child that lowers it resets every deeper best row.  So every
prefix the search follows has exactly the best rows, and every leaf it
reaches either lowers the best string or reproduces it.

Two leaves with identical rows differ by an automorphism of the poset:
placing held[i] at position i and placing chosen[i] there give the same
matrix, so gamma(held[i]) = chosen[i] preserves the order.  An
automorphism that fixes a node's prefix pointwise maps the subtree of one
child onto the subtree of another with the same rows, string for string,
and a subtree searched already holds no string below the best one.  The
search records gamma and uses it in two ways, neither of which changes
the least string:

* gamma fixes the common prefix chosen[:d] of the two leaves and maps
  the child held[d], searched already, onto chosen[d], where the leaves
  part.  So the rest of the subtree under chosen[d] holds nothing new,
  and the search unwinds straight to depth d.
* At each node it skips any child in the orbit, under the automorphisms
  found below that node, of a child searched already there.  Those fix
  the node's prefix chosen[:k] pointwise: gamma fixes chosen[:d], and
  when d < k every node deeper than d returns at once, before any orbit
  step, so a node at depth k only ever steps with gammas of d >= k.

Interchangeable twins (equal strict down- and up-sets) are the cheap
special case: swapping two of them is an automorphism fixing everything
else, so an element is tried only once its lower-indexed twins are all
placed.  Twins share a down-set, so they become available together, and
each node tries the least unplaced one.  The held leaf is forgotten
whenever a best row is lowered, so gamma is only ever taken between
leaves with the same rows.

Canonical parents.  Lemma: the top-left (n-1)x(n-1) block of the
canonical matrix of P is the canonical matrix of P - x for some maximal
x; call that class P's canonical parent.  Proof: row k of the string
holds the bits of the element placed at position k against the elements
placed at 0..k, so it depends only on chosen[:k+1].  The last element of
a linear extension is maximal, deleting it leaves a linear extension of
P - x, and every linear extension of P - x, for x maximal, extends by x
to one of P.  In a linear extension no row before the last has a bit in
the last column, so the first n-1 rows of P's least string are the least
rows of some P - x, each shifted left by one.

So a child C, made by topping a representative R of order n-1 with a new
maximal element, has a canonical block no greater than R, and R is C's
canonical parent exactly when the block is not below R.  The search
tests this with R's rows as a bound: they pre-fill the first n-1 best
rows.  C's own labelling starts with them, so every cut against them
still cuts only strings above one that exists, and the pruning stays
sound: the search still reaches a leaf with the least rows unless it
stops first.  On the way to that leaf, at the first row below R's, if
any, it sees a candidate row below the best one at a depth under n-1,
and stops with no result.  Every class is therefore accepted from
exactly one parent, its canonical parent R* topped with the strict
down-set of the last row of its canonical matrix; two ideals of R* can
still give the same class.

The search record.  One search returns the canonical key, the held leaf
and the automorphisms it met, so no caller searches twice:

* `packed` is the least rows as one bit-string, row 0 first, each row
  with column 0 in its top bit: the packed half of the canonical key.
  `canon` is the only module that turns rows into a key.
* `labelling[p]` is the input element the held leaf places at position
  p.  Placing those elements in that order gives exactly the least rows,
  so it is a canonical labelling; through it, a map on input elements
  becomes a map on the positions of the canonical matrix.
* `generators` are permutations of the input elements, each an
  automorphism.  Every gamma taken between two leaves is one, as above.
  So is every twin swap.  Twins t and e are incomparable (t < e would
  put t in e's strict down-set, which is t's own), and every other
  element is below, above or apart from t exactly as from e, so
  exchanging them keeps every relation.  The search places only the
  least unplaced twin, so it never meets two leaves that differ by a
  twin swap; instead it records the swap of each twin with the previous
  one, and those generate every reordering of a twin class.

The generators span a subgroup of Aut(P).  On every class of orders 1
to 6 its position orbits are those of Aut(P) (a test compares them with
brute force), but no caller relies on that.  A caller skips a choice only when some
automorphism maps it onto a choice it keeps.  The two choices then build
isomorphic matrices, so the skipped one adds no class, and that needs
only that each generator is an automorphism, whatever group they span.
With a smaller group the caller keeps more choices than it needs, never
fewer.  The bounded mode returns a record only when it accepts.

Candidate rows are built incrementally: `acc[e]` carries the output bits
of e's placed strict down-set.  Placing e at position k sets the bit of
column k in `acc` of every element above e, and removing e clears it,
so a candidate's row is `acc[e]` plus its diagonal bit, with no walk over
the prefix.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .core import Masks, PosetMatrix, default_labels, validate_masks

# Permutations of a matrix's elements, each as the map x -> g[x].
Generators = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, order=True)
class CanonicalKey:
    """Isomorphism-class key: order plus the minimal bit-string packed MSB-first."""

    order: int
    packed: int

    @property
    def hex(self) -> str:
        digits = (self.order * self.order + 3) // 4
        return format(self.packed, f"0{digits}x")

    def render(self) -> str:
        return f"{self.order}:{self.hex}"

    __str__ = render

    @staticmethod
    def parse(text: str) -> "CanonicalKey":
        """Inverse of `render`: accepts exactly what it writes for some poset."""
        match = re.fullmatch(r"([1-9][0-9]*):([0-9a-f]+)", text)
        if match:
            order, packed = int(match[1]), int(match[2], 16)
            if len(match[2]) == (order * order + 3) // 4 and not packed >> (order * order):
                masks = _masks(order, packed)
                report = validate_masks(masks)
                if report.ok and report.lower_triangular_ok and canonical_search(order, masks).packed == packed:
                    return CanonicalKey(order, packed)
        raise ValueError(f"not a canonical key: {text!r}")

    def matrix(self) -> PosetMatrix:
        """The canonical representative itself, default labels."""
        return PosetMatrix(_masks(self.order, self.packed), default_labels(self.order))


def _masks(n: int, packed: int) -> Masks:
    """The row masks of an n x n bit-string packed MSB-first."""
    rows = (packed >> (n * (n - 1 - y)) & ((1 << n) - 1) for y in range(n))
    # Packed rows hold column 0 in their top bit; masks hold it in bit 0.
    return tuple(int(format(row, f"0{n}b")[::-1], 2) for row in rows)


def _orbit(mask: int, gens: Sequence[Sequence[int]]) -> int:
    """Closure of a set of elements (a bitmask) under the permutations `gens`."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        x = low.bit_length() - 1
        for g in gens:
            y = 1 << g[x]
            if not mask & y:
                mask |= y
                todo |= y
    return mask


class SearchRecord(NamedTuple):
    """What one canonical search finds (see above)."""

    packed: int  # the least rows as one bit-string, row 0 first, column 0 in each row's top bit
    labelling: tuple[int, ...]  # the input element placed at each canonical position
    generators: Generators  # automorphisms of the input: twin swaps, then those the search found


def canonical_search(n: int, row_masks: Sequence[int], parent: int | None = None) -> SearchRecord | None:
    """The search record of a matrix given as low-bit row masks.

    With `parent`, the packed key of an order n-1 class that is isomorphic
    to the matrix less some maximal element, the result is None unless
    that class is the matrix's canonical parent (see above).  Depth k of
    the search places one element at output position k; `chosen[:k]` is
    the placed prefix.
    """
    # down[e]/up[e]: the strict down- and up-sets of element e, as bitmasks.
    down = [0] * n
    up = [0] * n
    for y in range(n):
        rest = row_masks[y] & ~(1 << y)
        down[y] = rest
        while rest:
            low = rest & -rest
            up[low.bit_length() - 1] |= 1 << y
            rest ^= low
    # bound: rows that some linear extension starts with; they pre-fill the
    # first best rows, and a row below one of them ends the search with None.
    bound = []
    if parent is not None:
        # The parent's rows, one column narrower, widened by an empty last column.
        width = n - 1
        bound = [(parent >> (width * (width - 1 - y)) & ((1 << width) - 1)) << 1 for y in range(width)]
    # needs[e]: what must be placed before e, its strict down-set and its lower-indexed twins.
    needs = []
    twins: dict[tuple[int, int], int] = {}  # (down, up) -> the elements seen with them
    pairs = []  # (t, e): e and its last lower-indexed twin t
    for e in range(n):
        seen = twins.get((down[e], up[e]), 0)
        needs.append(down[e] | seen)
        twins[down[e], up[e]] = seen | 1 << e
        if seen:
            pairs.append((seen.bit_length() - 1, e))
    sentinel = 1 << (n + 1)
    bounded = len(bound)
    best = bound + [sentinel] * (n - bounded)
    chosen = [0] * n
    acc = [0] * n  # acc[e]: output-row bits of the placed part of e's strict down-set
    autos: list[tuple[int, ...]] = []  # automorphisms found, as maps gamma[x]
    held: list[int] = []  # the leaf whose rows are `best`; empty once best is lowered

    def rec(k: int, used: int) -> int:
        """Search below prefix `chosen[:k]`; return the depth to unwind to (n: none, -1: all).

        The automorphisms appended to `autos` while this call runs fix
        `chosen[:k]` pointwise; only they prune its children.
        """
        bit = 1 << (n - 1 - k)
        candidates = [(acc[e] | bit, e) for e in range(n) if not (used >> e & 1 or needs[e] & ~used)]
        candidates.sort()
        start = len(autos)
        explored = 0  # orbit of the children searched so far, under autos[start:]
        for row, e in candidates:
            if row > best[k]:
                break
            if row < best[k]:
                if k < bounded:
                    return -1
                best[k] = row
                for j in range(k + 1, n):
                    best[j] = sentinel
                held.clear()
            elif explored >> e & 1:
                continue
            chosen[k] = e
            if k + 1 == n:
                if not held:
                    held.extend(chosen)
                    return n
                # Same rows as the held leaf: held[i] -> chosen[i] is an
                # automorphism fixing their common prefix chosen[:d], and it
                # maps the child held[d], searched already, onto chosen[d].
                gamma = [0] * n
                d = n
                for i in range(n):
                    gamma[held[i]] = chosen[i]
                    if d == n and held[i] != chosen[i]:
                        d = i
                autos.append(tuple(gamma))
                return d
            rest = up[e]
            while rest:
                low = rest & -rest
                acc[low.bit_length() - 1] |= bit
                rest ^= low
            depth = rec(k + 1, used | 1 << e)
            rest = up[e]
            while rest:
                low = rest & -rest
                acc[low.bit_length() - 1] ^= bit
                rest ^= low
            if depth < k:
                return depth
            explored |= 1 << e
            if len(autos) > start:
                explored = _orbit(explored, autos[start:])
        return n

    try:
        if rec(0, 0) < 0:
            return None
    except RecursionError:
        # One frame per placed element: the order, not the input, is at fault.
        raise ValueError(
            f"order {n} is too large for the canonical search (recursion limit {sys.getrecursionlimit()})"
        ) from None
    packed = 0
    for row in best:
        packed = packed << n | row
    return SearchRecord(packed, tuple(held), tuple([_swap(n, t, e) for t, e in pairs] + autos))


# Twin swaps recur across inputs of one order, so records share them.
@lru_cache(maxsize=1024)
def _swap(n: int, t: int, e: int) -> tuple[int, ...]:
    """The permutation of n elements that exchanges t and e."""
    g = list(range(n))
    g[t], g[e] = e, t
    return tuple(g)


# Distinct matrices seen: 4,554 by the composition closure to order 7 and
# 2,114 by a stream of 3,000 mixed library requests, so neither evicts; the
# bound caps the memory of long-lived processes.  Only the packed key and
# the generators are kept, and a matrix with no automorphism shares one
# empty tuple, so an entry costs little more than its key.
@lru_cache(maxsize=2**15)
def _canonical_record(masks: Masks) -> tuple[int, Generators]:
    record = canonical_search(len(masks), masks)
    return record.packed, record.generators


def canonical_form(m: PosetMatrix) -> CanonicalKey:
    """Canonical key of the isomorphism class of `m`; labels are ignored."""
    return CanonicalKey(m.order, _canonical_record(m.masks)[0])


def position_orbits(m: PosetMatrix) -> list[int]:
    """Orbits of the positions of `m`, as bitmasks in order of their least position.

    The group is the one generated by the automorphisms that the canonical
    search of `m` found (read from the cache), a subgroup of Aut(m).
    """
    gens = _canonical_record(m.masks)[1]
    orbits = []
    covered = 0
    for x in range(m.order):
        if not covered >> x & 1:
            orbits.append(_orbit(1 << x, gens))
            covered |= orbits[-1]
    return orbits


def are_isomorphic(a: PosetMatrix, b: PosetMatrix) -> bool:
    if a.order != b.order:
        return False
    return canonical_form(a) == canonical_form(b)
