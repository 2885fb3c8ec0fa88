"""Canonical forms and isomorphism for poset matrices.

The canonical key of a matrix is the lexicographically smallest row-major
bit-string over all simultaneous row/column relabelings.  A relabeling
achieving the minimum is always a linear extension: if the matrix had a 1
above the diagonal, take the first row r with one, at column c; moving the
element at c to position r (shifting the block between them right) leaves
rows above r untouched and strictly shrinks row r, so the string was not
minimal.  The search below therefore walks linear extensions only, with
branch-and-bound pruning against the best string found so far: a row
that exceeds the best row at its position cuts its branch, and a row
that lowers it resets every later best row.  So every prefix the search
follows has exactly the best rows, and every leaf it reaches either
lowers the best string or reproduces it.

Cells and blocks.  A node at depth k is an ordered partition of output
positions 0..k-1 into cells of consecutive positions.  A cell holds a set
of placed elements whose order inside it is still open, and the strict
down-set of every placed element is a union of cells.  So rows 0..k-1 are
the same for every order inside the cells, and the node stands for every
linear extension that puts each cell's elements on the cell's positions.
The available elements, those whose strict down-set is placed, fall
into blocks, one per down-set.  The elements of a block are pairwise
incomparable: one below another would lie in its down-set, which is its
own.  A child places a whole block B, with down-set D, on positions
k..k+|B|-1 as one new cell.  Its least strings are the node's least
strings, for three reasons:

* End-packing.  Where D meets a cell of m elements in t, a row of B has
  bits in t of the cell's m columns, and the row is least, cell by
  cell, with them in the last t.  The search puts them there: it splits
  the cell into its non-members, first, and its members, last.  That
  never changes an earlier row.  Each earlier row is a union of cells,
  and a split only orders elements inside one cell.  So all rows of B
  are one pattern plus the diagonal bit, `row | bit(k+j)`, and they are
  forced.  A least string of the node end-packs the row at k too, or
  reordering inside the cells would lower that row and no earlier one.
* Contiguity.  Let a least string of the node place e of B at k, and
  let m be the first position after k that holds an x outside B while
  some b in B is still unplaced; b can go at m.  If x is above a member
  of B at k..m-1, then by transitivity x's down-set holds D and that
  member.  So x's row holds every bit of b's row at m but the diagonal,
  plus an earlier one, and is strictly larger.  Otherwise x's down-set
  lies in positions 0..k-1, where the string fixes one element per
  position, so equal bits there mean equal down-sets and x in B.  Smaller
  bits would have beaten e at k, and larger ones lose to b at m.  Either
  way moving b to m lowers the string, so a least string places each
  block contiguously, and the children of a node are its blocks.
* Leaves.  A cell that no later down-set splits holds elements with one
  down-set, and every other element is above all of them or none: they
  are twins, with equal strict down- and up-sets, and every order of
  them gives the same rows.  A leaf orders each such cell by index.

A block's rows are compared with the best rows one by one: the first
that differs cuts the child or lowers the best string from there on.
Two blocks can give the same rows, with different down-sets that meet
each cell equally often; both are searched.

Two leaves with identical rows differ by an automorphism of the poset:
placing held[i] at position i and placing chosen[i] there give the same
matrix, so gamma(held[i]) = chosen[i] preserves the order.  Both leaves
refine the node where their paths of chosen blocks part, so gamma maps
each of its cells onto itself, as a set.  Such an automorphism maps the
node's placed elements onto themselves, so it maps blocks to blocks,
the split of each cell by D onto its split by gamma(D), and the subtree
of a child B onto that of gamma(B), string for string.  A subtree
searched already holds no string below the best one.  The search
records gamma and uses it in two ways, neither of which changes the
least string:

* At the node where the paths part, gamma maps the block the held leaf
  took, searched already, onto the block chosen now.  So the rest of
  the subtree under the chosen block holds nothing new, and the search
  unwinds straight to that node.
* At each node it skips any block in the orbit, under the automorphisms
  found below that node, of a block searched already there.  Each of
  them maps every cell of the node onto itself: the node where its
  leaves part is this node or below it, and every cell of this node is
  a union of cells there.  A gamma that parts above this node unwinds
  past it, before any orbit step.

The held leaf is forgotten whenever a best row is lowered, so gamma is
only ever taken between leaves with the same rows.

Canonical parents.  Lemma: the top-left (n-1)x(n-1) block of the
canonical matrix of P is the canonical matrix of P - x for some maximal
x; call that class P's canonical parent.  Proof: row k of the string
holds the bits of the element placed at position k against the elements
placed at 0..k, so it depends only on the first k+1 elements placed.
The last element of a linear extension is maximal, deleting it leaves a
linear extension of P - x, and every linear extension of P - x, for x
maximal, extends by x to one of P.  In a linear extension no row before
the last has a bit in the last column, so the first n-1 rows of P's
least string are the least rows of some P - x, each shifted left by one.

So a child C, made by topping a representative R of order n-1 with a new
maximal element, has a canonical block no greater than R, and R is C's
canonical parent exactly when the block is not below R.  The search
tests this with R's rows as a bound: they pre-fill the first n-1 best
rows.  C's own labelling starts with them, so every cut against them
still cuts only strings above one that exists, and the pruning stays
sound: the search still reaches a leaf with the least rows unless it
stops first.  On the way to that leaf, at the first row below R's, if
any, it sees a block row below the best one at a position under n-1,
and stops with no result.  Every class is therefore accepted from
exactly one parent, its canonical parent R*.

Pseudo-similar points.  Ideals s and t of R* in different orbits of
Aut(R*) can still give one class.  Take an isomorphism f from the child
C over s onto the child over t, and x = f^-1(k).  C - k and C - x are
both isomorphic to R*, yet no automorphism of C maps k to x, or f after
it would restrict to an automorphism of R* taking s onto t: k and x are
pseudo-similar points (Harary & Palmer, 1966).  McKay's second test (see
enumeration) asks of each child whether its new point lies in the orbit
of the point its canonical labelling places last.  Through f the two
children ask it of k and of x in C, which lie in different orbits, so
at most one of them is kept.

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
  exchanging them keeps every relation.  Twins share a cell to the
  leaf, which orders them by index: they have one down-set, so one
  block, and no down-set splits them.  So the search never meets two
  leaves that differ by a twin swap.  Instead the open cells of the
  held leaf, which are exactly its twin classes (see Leaves), open the
  record's generators: in each cell, the swap of each element with the
  previous one, and those generate every reordering of a twin class.
* `nodes` is the number of nodes opened.

The oracle reads the generators of each representative P off the one
search of P's child over all of P that `ParentSetup` runs (below).  That
child's top element is fixed by every automorphism, so its group is
Aut(P), in P's own positions.  Those generators span Aut(P) on every
class to order 8.  Evidence, by orbit counts at every level of the
oracle, orders 1 to 8 (7 in tier-1, 8 under `-m slow`): with G(P) the
group they span and e(P) the number of linear extensions of P, the sums
over the classes of order n of n!/|G(P)| and of e(P)/|G(P)| equal the
labelled posets (OEIS A001035) and the lower-triangular poset matrices
(A006455) for n = 1 to 8.
Aut(P) acts freely on labellings and on linear extensions, so those are
the sums under Aut(P), and each term under its subgroup G(P) is at least
its term under Aut(P): so G(P) = Aut(P) for every class.  (On orders 1
to 6 a test also compares `position_orbits` with brute force.)  The
orbit skips need less: a skipped choice is mapped by some automorphism
onto a kept one, so it adds no class whatever group the generators
span.  The oracle's second test needs the whole group.  The bounded
mode returns a record only when it accepts.

Set-up.  Before the first node the search needs the blocks and the
`above` lists (the blocks whose down-set holds each element).
`canonical_search` builds them from the row masks and runs the one
search body.  The oracle searches many children of one representative R
of order k, each R topped with a new element k over an ideal s, so
`ParentSetup` builds R's tables once and extends them per child.  No
down-set of R changes, and k's is s: k joins the block with down-set s,
or opens a block after all of R's, since its least member is k, and that
block joins `above[y]` for each y in s.  These are the tables of a fresh
set-up of the child, so the search returns the same record.  The search
only reads the tables, so children share what they do not change.

Replaying the parent's path.  The searches of R's children agree until
the child's ideal s is placed.  Before that, k's block is unavailable:
k opens a block with down-set s, or joins the block of R with down-set
s, and either needs s placed.  So a node with s unplaced has R's blocks
available, with the same rows in every child, since a row reads only
the node's cells and the fixed elements of R's down-sets.  A block of R
lies in positions 0..k-1, so no comparison of one reads a position >= k.
A best row below k is a bound row, fixed for the whole search, since
lowering one ends it with None.  So only the fixed bound rows decide
there.  Orbit skips need found automorphisms, and every automorphism is
found at a second leaf.

`ParentSetup` searches the child over all of R, s = R, once from the
root, and records each node.  That child is accepted: k is above every
element, so it comes last in every linear extension, and its least rows
are R's plus a full last row.  Its block on {k} is last and alone, so
every leaf lies below the node that has placed R.  If the search visits
its nodes in strictly increasing depth, it is a single path down to one
leaf.  So it found no automorphism, and at each node every block but the
one it followed was cut by the bound rows: another block within the
bound would have been searched, at a node no deeper than the one left.
The followed block's rows are the bound rows.

In the child over s, every block of R at a recorded node has the rows it
has in the child over all of R, and meets the same bound rows.  So the
child's search follows the recorded path for as long as k's block is cut
at each node, and cuts every other block of R on the way, whatever the
subtree below returns.  `ParentSetup.replay` decides the child from the
rows of k's block alone, with no search, in two cases:

* k joins R's block B, with down-set s, which the path follows at depth
  d.  At every earlier node that has placed s, B is cut at a position
  before its end, and the child's block B + k has the same rows there.
  At depth d it has B's rows, the bound rows d..e-1 with e = d + |B|,
  then k's row at e: B's row with its diagonal bit moved from d to e, r.
  If e = k, B + k is the last block, and its leaf ends the search with
  R's rows and r last, since every block left above it is cut as
  before; the leaf orders the cell B + k by index, so k comes last.
  Otherwise r < bound[e], and the search stops there with None.  Let A
  be the block the path follows at depth e, so bound[e] is its row
  there.  A split only moves a down-set's members in a cell from its
  last columns to earlier ones, so a block's row never falls as the path
  goes down.  If A was available at depth d, its row there was at least
  B's, or the search of the child over all of R would have stopped.
  Were A's row at d equal to B's and unchanged at e, A would match the
  bound rows at depth d (rows d..e-1 are B's, the next are A's) and be
  searched there too, which a single path does not do.  So bound[e] > r.
  If A was not available at d, it is above a member of B, so its
  down-set holds s and a member of B.  Its row at e then holds every
  column of s, which B's row at d already names (placing B splits each
  cell so that s takes its last columns), plus a column in d..e-1,
  before e.
* k opens its own block {k}, with down-set s, after all of R's.  From
  the first recorded node that has placed s, its row there is the
  columns of the fixed members of s plus, in each open cell, its count
  of members of s packed at the cell's end, and its diagonal bit at the
  node's depth.  Below that depth's bound row, {k} sorts before the
  path's block and the search stops there with None.  Above it, {k} is
  cut and the path goes on to the next node.  Equal to it, {k} ties with
  the path's block and both are searched.  At depth k, R is placed and
  {k} is the last block: its leaf ends the search with R's rows and that
  row last, and k last.

Either way a kept child places k last, so it passes McKay's second test
(see enumeration) at once, and its key is R's rows, each widened by the
empty last column, followed by its last row.  A parent whose recorded
search branches keeps an empty path and no joined rows, so the replay
decides none of its children.  `ParentSetup.child` is the whole step:
it takes the replay's decision when there is one, and otherwise searches
the child from the root and applies the second test to the record.  The
child over all of R is one the oracle tops (every automorphism fixes R),
and `search` returns the recorded record for it.

Block rows are built incrementally.  An element is fixed once it is
alone in its cell, and `acc[b]` carries the output bits of the fixed
part of block b's down-set: fixing x at position p sets the bit of
column p in the child's copy of `acc` for every block above x, so no
node's `acc` changes once it is open.  A block's row is `acc[b]` plus,
for each open cell, its count of down-set members packed at the cell's
end, with no walk over the prefix.
"""
from __future__ import annotations

import re
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
                if report.ok and report.lower_triangular_ok and _canonical_record(masks)[0] == packed:
                    return CanonicalKey(order, packed)
        raise ValueError(f"not a canonical key: {text!r}")

    def matrix(self) -> PosetMatrix:
        """The canonical representative itself, default labels."""
        return PosetMatrix(_masks(self.order, self.packed), default_labels(self.order))


def _masks(n: int, packed: int) -> Masks:
    """The row masks of an n x n bit-string packed MSB-first."""
    return tuple(_row_mask(n, packed >> (n * (n - 1 - y)) & ((1 << n) - 1)) for y in range(n))


def _row_mask(n: int, row: int) -> int:
    """The low-bit row mask of one packed row of width n."""
    # Packed rows hold column 0 in their top bit; masks hold it in bit 0.
    mask = 0
    while row:
        low = row & -row
        mask |= 1 << (n - low.bit_length())
        row ^= low
    return mask


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
    nodes: int  # nodes opened, each placing a block


def canonical_search(n: int, row_masks: Sequence[int], parent: int | None = None) -> SearchRecord | None:
    """The search record of a matrix given as low-bit row masks.

    With `parent`, the packed key of an order n-1 class that is isomorphic
    to the matrix less some maximal element, the result is None unless
    that class is the matrix's canonical parent (see above).
    """
    return _search(n, *_setup(n, row_masks), [] if parent is None else _bound(n - 1, parent))


def _bound(width: int, parent: int) -> list[int]:
    """The rows of a packed key of order `width`, each widened by an empty last column."""
    return [(parent >> (width * (width - 1 - y)) & ((1 << width) - 1)) << 1 for y in range(width)]


Block = tuple[int, int]  # (down-set, members) of a block, as bitmasks


def _setup(n: int, row_masks: Sequence[int]) -> tuple[list[Block], list[list[int]]]:
    """The blocks and `above` lists the search takes.

    Blocks come one per strict down-set, in order of least member;
    above[x] lists the blocks whose down-set holds x.
    """
    blocks = _blocks(n, row_masks)
    return blocks, _above(n, blocks)


def _blocks(n: int, row_masks: Sequence[int]) -> list[Block]:
    members: dict[int, int] = {}
    for e in range(n):
        below = row_masks[e] & ~(1 << e)
        members[below] = members.get(below, 0) | 1 << e
    return list(members.items())


def _above(n: int, blocks: list[Block]) -> list[list[int]]:
    above: list[list[int]] = [[] for _ in range(n)]
    for b, (below, _) in enumerate(blocks):
        rest = below
        while rest:
            low = rest & -rest
            above[low.bit_length() - 1].append(b)
            rest ^= low
    return above


class ParentSetup:
    """A canonical representative R of order k, set up once for the searches of its children.

    A child tops R with a new element k over an ideal s of R.  Its blocks
    and `above` lists are R's, extended by that one element (see above).
    `child(s)` decides the child: `replay(s)` decides it off R's recorded
    path when it can, and otherwise `search(s)` runs the bounded search on
    those tables from the root, followed by McKay's second test (see
    above).  It is built from R's key `packed` and rows `masks`, and its
    `generators` span Aut(R) (see above).
    """

    def __init__(self, packed: int, masks: Masks) -> None:
        k = self.k = len(masks)
        self.masks = masks
        self.bound = _bound(k, packed)
        self.blocks = _blocks(k, masks)
        self.index = {below: b for b, (below, _) in enumerate(self.blocks)}  # down-set -> its block
        self.above = _above(k + 1, self.blocks)  # the new element is in no down-set
        self.opened = [a + [len(self.blocks)] for a in self.above]  # the same, once k opens a block over x
        # The child over all of R, searched from the root and recorded node
        # by node; the replay reads the path only if it is one path, and
        # a path that branches is left empty, so no child is replayed.
        path: list[tuple[int, int, list[tuple[int, int, int]], list[int]]] = []
        self.whole = _search(k + 1, *self.setup((1 << k) - 1), self.bound, path)
        self.generators = self.whole.generators
        # A kept child's first k rows: R's, widened, as in the whole child, whose last row is full.
        self.prefix = self.whole.packed ^ (1 << k + 1) - 1
        if any(a[0] >= b[0] for a, b in zip(path, path[1:])):
            path = []
        # Each node's depth, placed set, cells and the output columns of
        # its fixed elements: the `acc` entry of the block on {k}.
        self.path = [(depth, placed, cells, acc[-1]) for depth, placed, cells, acc in path]
        self.column = [1 << k - self.whole.labelling.index(x) for x in range(k)]  # each element's output column bit
        # The replay of a child whose k joins a block of R, by its
        # down-set: the block is followed at depth d and ends at e.
        # Only the block that ends at k keeps its child.
        self.joined: dict[int, int] = {}
        for (d, placed, _, _), (e, after, _, _) in zip(path, path[1:]):
            x = ((after ^ placed) & -(after ^ placed)).bit_length() - 1
            self.joined[masks[x] ^ 1 << x] = self.bound[d] ^ 1 << (k - d) | 1 if e == k else 0

    def setup(self, s: int) -> tuple[list[Block], list[list[int]]]:
        """The child's blocks and `above` lists: k joins the block with down-set s, or opens one last."""
        b = self.index.get(s)
        if b is not None:
            blocks = self.blocks.copy()
            blocks[b] = (s, blocks[b][1] | 1 << self.k)
            return blocks, self.above
        above = [self.opened[x] if s >> x & 1 else xs for x, xs in enumerate(self.above)]
        return self.blocks + [(s, 1 << self.k)], above

    def replay(self, s: int) -> int | None:
        """The child over s decided off R's path (see above), or None when it must be searched.

        A kept child's last packed row, or 0 for a rejected one.  A kept
        child places k last, so it passes McKay's second test too.
        """
        if not self.path:
            return None  # R's search branches: every child is searched
        if s in self.joined:
            return self.joined[s]
        k = self.k
        at = 0  # the output columns of the members of s, once fixed
        rest = s
        while rest:
            low = rest & -rest
            at |= self.column[low.bit_length() - 1]
            rest ^= low
        for depth, placed, cells, fixed in self.path:
            if s & ~placed:
                continue  # k's block is not available before s is placed
            row = fixed & at | 1 << (k - depth)
            for _, cell, shift in cells:
                inner = (cell & s).bit_count()
                if inner:
                    row |= ((1 << inner) - 1) << shift
            if depth == k:
                return row  # k is placed last
            bound = self.bound[depth]
            if row <= bound:
                return 0 if row < bound else None  # below R's row: rejected; a tie: search it
        return None  # not reached: the path ends at depth k

    def search(self, s: int) -> SearchRecord | None:
        """`canonical_search` of the child bounded by R."""
        if s == (1 << self.k) - 1:
            return self.whole
        return _search(self.k + 1, *self.setup(s), self.bound)

    def child(self, s: int) -> tuple[int, Masks] | None:
        """The child over s as (packed key, rows) when McKay's two tests keep it, else None.

        The replay decides the child when it can.  Otherwise the bounded
        search is the first test, and the second asks whether k lies in
        the orbit of the child's canonical last element under the record's
        generators, twin swaps included, which span Aut(child).  A kept
        child's key is R's rows, each widened by the empty last column,
        followed by its last row, and its rows are R's plus that row.
        """
        k = self.k
        row = self.replay(s)
        if row is None:
            record = self.search(s)
            if record is None:
                return None  # R is not the child's canonical parent
            x = record.labelling[-1]
            if x != k and not _orbit(1 << x, record.generators) >> k & 1:
                return None  # no automorphism of the child maps its canonical last element to k
            row = record.packed & (1 << k + 1) - 1
        # No row: R is not the child's canonical parent, read off R's path.
        return (self.prefix | row, self.masks + (_row_mask(k + 1, row),)) if row else None


def _search(
    n: int,
    blocks: list[Block],
    above: list[list[int]],
    bound: list[int],
    path: list | None = None,
) -> SearchRecord | None:
    """The search body, on set-up blocks and `above` lists; `bound` pre-fills the first best rows.

    A row below one of the `bound` rows ends the search with None.
    A node at depth k has placed output positions 0..k-1, as its open
    cells (first position, members, n - end position) and the elements
    it has fixed in `chosen`.  `path`, if given, receives (depth, placed,
    cells, acc) of every node, in visiting order.

    The open nodes form a stack, the root at the bottom.  Each
    entry holds the node's depth, placed elements, cells and `acc`, an
    iterator over its blocks in order of row, the count of automorphisms
    found before it opened, and the orbit of the blocks it has searched
    under those found since, which map every cell of the node onto
    itself.  The deepest node follows its next block: it opens a child
    with a copy of its `acc`, or takes a leaf.  A node with no block
    left closes, and so does every node below the one where two leaves
    part; the node then on top adds the block it followed to its orbit.
    """
    sentinel = 1 << (n + 1)
    bounded = len(bound)
    best = bound + [sentinel] * (n - bounded)
    # chosen[p]: the element at position p, once fixed;
    # acc[b]: output-row bits of the fixed part of block b's down-set;
    # trail: (depth, block) of each node on the path to the deepest one;
    # a leaf adds no entry, since its node has only the one block.
    k, placed, cells, acc, chosen, trail, nodes = 0, 0, [], [0] * len(blocks), [0] * n, [], 0
    autos: list[tuple[int, ...]] = []  # automorphisms found, as maps gamma[x]
    held: list[int] = []  # the leaf whose rows are `best`; empty once best is lowered
    held_trail: list[tuple[int, int]] = []  # the trail of the held leaf
    held_cells: list[tuple[int, int, int]] = []  # the open cells of the held leaf: its twin classes
    stack: list[list] = []  # the open nodes (see above)
    opening = True  # whether (k, placed, cells, acc) is a node to open
    while True:
        if opening:
            nodes += 1
            if path is not None:
                path.append((k, placed, cells, acc))
            candidates = []
            for b, (below, block) in enumerate(blocks):
                if placed & block or below & ~placed:
                    continue
                # The block's row less its diagonal: its down-set packed at the end of each cell.
                row = acc[b]
                for _, cell, shift in cells:
                    inner = (cell & below).bit_count()
                    if inner:
                        row |= ((1 << inner) - 1) << shift
                candidates.append((row, b))
            candidates.sort()
            stack.append([k, placed, cells, acc, iter(candidates), len(autos), 0])
            opening = False
        k, placed, cells, acc, candidates, _, explored = stack[-1]
        to = k - 1  # the depth to unwind to; k - 1 closes this node only
        for row, b in candidates:
            if row | 1 << (n - 1 - k) > best[k]:
                break
            below, block = blocks[b]
            if explored & block:
                continue
            end = k + block.bit_count()
            j = k
            while j < end and row | 1 << (n - 1 - j) == best[j]:
                j += 1
            if j < end:
                if row | 1 << (n - 1 - j) > best[j]:
                    continue
                if j < bounded:
                    return None
                best[j:] = [row | 1 << (n - 1 - i) for i in range(j, end)] + [sentinel] * (n - end)
                held.clear()
            # Split every cell the down-set meets, non-members first; a part
            # of one element is fixed.  The block is the last cell.
            fixed = []
            split = []
            for first, cell, shift in cells:
                inner = cell & below
                if inner and inner != cell:
                    outer = cell ^ inner
                    for part in ((first, outer, shift + inner.bit_count()), (first + outer.bit_count(), inner, shift)):
                        if part[1] & part[1] - 1:
                            split.append(part)
                        else:
                            fixed.append((part[1].bit_length() - 1, part[0]))
                else:
                    split.append((first, cell, shift))
            if end - k > 1:
                split.append((k, block, n - end))
            else:
                fixed.append((block.bit_length() - 1, k))
            for x, p in fixed:
                chosen[p] = x
            if end < n:
                acc = acc.copy()
                for x, p in fixed:
                    bit = 1 << (n - 1 - p)
                    for c in above[x]:
                        acc[c] |= bit
                trail.append((k, block))
                k, placed, cells = end, placed | block, split
                opening = True
                break
            # A leaf: this node's only block.  Every open cell holds twins, placed by index.
            for p, cell, _ in split:
                while cell:
                    low = cell & -cell
                    chosen[p] = low.bit_length() - 1
                    p += 1
                    cell ^= low
            if not held:
                held, held_trail, held_cells = chosen.copy(), trail.copy(), split
                break
            # Same rows as the held leaf: held[i] -> chosen[i] is an automorphism
            # that maps every cell of the node where their paths part onto
            # itself, and the block searched there already onto the one chosen now.
            gamma = [0] * n
            for i in range(n):
                gamma[held[i]] = chosen[i]
            autos.append(tuple(gamma))
            to = next(node[0] for node, other in zip(trail, held_trail) if node != other)
            break
        if opening:
            continue
        if to < 0:
            break  # the root is closed
        while stack[-1][0] > to:
            stack.pop()
            block = trail.pop()[1]
        node = stack[-1]
        node[6] |= block
        if len(autos) > node[5]:
            node[6] = _orbit(node[6], autos[node[5]:])
    packed = 0
    for row in best:
        packed = packed << n | row
    swaps = []  # the swap of each twin with the previous one in its cell
    for _, cell, _ in held_cells:
        t = (cell & -cell).bit_length() - 1
        cell &= cell - 1
        while cell:
            e = (cell & -cell).bit_length() - 1
            swaps.append(_swap(n, t, e))
            t = e
            cell &= cell - 1
    return SearchRecord(packed, tuple(held), (*swaps, *autos), nodes)


# Twin swaps recur across inputs of one order, so records share them.
@lru_cache(maxsize=1024)
def _swap(n: int, t: int, e: int) -> tuple[int, ...]:
    """The permutation of n elements that exchanges t and e."""
    g = list(range(n))
    g[t], g[e] = e, t
    return tuple(g)


# Distinct matrices seen: 4,554 by the composition closure to order 7 and
# 1,614 to 1,636 by a stream of 3,000 mixed library requests (seeds 1 to 3
# of `perfbench/reqgen.py`), so neither evicts; the bound caps the memory of
# long-lived processes.  Only the packed key and
# the record's generators are kept: `canonical_form`, `are_isomorphic` and
# `CanonicalKey.parse` read the key, `position_orbits` the generators.  A
# rigid matrix shares one empty tuple, so its entry costs little more than
# its key.
@lru_cache(maxsize=2**15)
def _canonical_record(masks: Masks) -> tuple[int, Generators]:
    n = len(masks)
    record = _search(n, *_setup(n, masks), [])
    return record.packed, record.generators


def canonical_form(m: PosetMatrix) -> CanonicalKey:
    """Canonical key of the isomorphism class of `m`; labels are ignored."""
    return CanonicalKey(m.order, _canonical_record(m.masks)[0])


def position_orbits(m: PosetMatrix) -> list[int]:
    """Orbits of the positions of `m`, as bitmasks in order of their least position.

    The group is the one generated by the generators of the search record
    of `m`, read from the cache; a subgroup of Aut(m).
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
    """Whether `a` and `b` are isomorphic; labels are ignored.

    Isomorphic posets have equal orders and equal down-set size profiles
    (the sorted row popcounts), so only a pair that agrees on both is
    searched.
    """
    if a.order != b.order or sorted(map(int.bit_count, a.masks)) != sorted(map(int.bit_count, b.masks)):
        return False
    return canonical_form(a) == canonical_form(b)
