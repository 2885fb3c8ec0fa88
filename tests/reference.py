"""Reference implementations of axiom validation, composition and canonical search.

`parse_candidate` is the text reader that reads a matrix file cell by
cell into 0/1 rows, one `int` per cell, where `posetmat.io` reads each
row as one integer.  Tests require `posetmat.parse_matrix` to equal
`PosetMatrix.from_rows` over its rows, or to raise the same error.

`validate_axioms` and `compose` are the straightforward tuple-of-tuples
versions that the row-mask core replaced.  They read only `rel` and
`labels` of their operands and share no code with `posetmat.core` or
`posetmat.compose`, so tests can require the fast paths to agree with
them cell for cell, label for label and witness for witness.

`_minimal_row_ints` is the canonical search that prunes only twins, with
no automorphism pruning and rows rebuilt from the prefix at every node.
It is exponential on symmetric posets without twins, but it is the search
whose least bit-strings every recorded key was made with, so the pruned
search in `posetmat.canon` must return exactly its rows.

`ideals` finds the order ideals of a linear-extension prefix by testing
all 2^k subsets, where `posetmat.enumeration._ideals` builds them
position by position.  `iter_matrices` walks every labelled
lower-triangular matrix of an order with it, the route the one-point
extension oracle in `posetmat.enumeration` replaced; tests compare the
oracle's classes against it, so that walk shares no ideal generator
with the oracle.

`catalog_from_packed` builds a catalog from bare packed keys, decoding
each key and testing its matrix with `posetmat.is_connected`, where the
oracle carries every class's rows and connected flag from its parent;
tests build the labelled walk's catalog with it.

`oracle_child` decides a child of the one-point extension oracle by
McKay's two tests the slow way: a fresh bounded `canonical_search` of the
child, the closure of its canonical last element under the record's
generators, and the kept rows decoded from the key.  Tests require
`ParentSetup.child`, which replays the parent's recorded path where it
can and builds the key from the parent's rows, to decide alike.

`automorphism_orbits` finds the orbits of the whole automorphism group
by asking, for each pair of positions, whether some automorphism maps
one to the other, with a backtracking search that shares nothing with
the canonical search; tests compare the orbits of the generators that
search records against it.

`twin_classes` groups the elements by their strict down- and up-sets,
read bit by bit from the row masks, where the canonical search reads
the twin classes off the open cells of its held leaf.

`group_order` closes a list of generators into the group they span, by
breadth-first search over products, and `linear_extensions` counts a
poset's linear extensions by a walk over its ideals.  Tests gate the
oracle's generators with them by orbit counts (see `posetmat.canon`).

`square_closure` closes the generators C2 and I2 under square
composition alone, through `posetmat.compose`.  `sq@i` substitutes B for
element i of A, so the closure is the series-parallel posets, which are
exactly the posets with no induced N (Valdes, Tarjan & Lawler, SIAM J.
Comput. 1982; OEIS A003430).  `has_induced_n` tests for an N by
bitmasks, so tests can check that identity against the oracle's classes.

`composition_closure` closes C2 and I2 under all three kinds by the
public `compose` and `canonical_form`, validating and keying every
composition, where `posetmat.enumeration` validates and keys each
distinct output once; tests require the two closures to agree entry for
entry.
"""
import re
from typing import Iterator

import posetmat
from posetmat.canon import _orbit, canonical_search, position_orbits
from posetmat.core import ValidationReport
from posetmat.enumeration import MAX_ORACLE_ORDER
from posetmat.generators import GENERATORS
from posetmat.io import MatrixParseError

Rows = tuple[tuple[int, ...], ...]


def parse_candidate(text: str) -> tuple[Rows, tuple[str, ...] | None]:
    """0/1 rows and labels of a matrix file, read cell by cell; no order axiom is checked."""
    items: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            items.append((lineno, line))
    if not items:
        raise MatrixParseError("empty input", 1)
    lineno, head = items[0]
    if re.fullmatch("[0-9]+", head) is None:
        raise MatrixParseError(f"expected the order, got {head!r}", lineno)
    order = int(head)
    if order < 1:
        raise MatrixParseError(f"order must be positive, got {order}", lineno)
    rest = items[1:]
    labels = None
    if rest and rest[0][1].startswith("labels:"):
        lineno, line = rest[0]
        labels = tuple(line[len("labels:"):].split())
        if len(labels) != order:
            raise MatrixParseError(f"{len(labels)} labels for order {order}", lineno)
        if len(set(labels)) != order:
            raise MatrixParseError("labels must be distinct", lineno)
        rest = rest[1:]
    if len(rest) != order:
        where = rest[-1][0] if rest else lineno
        raise MatrixParseError(f"expected {order} rows, found {len(rest)}", where)
    rows = []
    for lineno, line in rest:
        cells = line.split()
        if len(cells) != order:
            raise MatrixParseError(f"row has {len(cells)} entries, expected {order}", lineno)
        row = []
        for cell in cells:
            if cell not in ("0", "1"):
                raise MatrixParseError(f"entry {cell!r} is not 0 or 1", lineno)
            row.append(int(cell))
        rows.append(tuple(row))
    return tuple(rows), labels


def validate_axioms(rows: Rows) -> ValidationReport:
    """Every axiom violation with its witness, found by nested loops."""
    n = len(rows)
    violations = []
    for k in range(n):
        if rows[k][k] != 1:
            violations.append(("reflexive", (k,)))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] and rows[j][i]:
                violations.append(("antisymmetric", (i, j)))
    for y in range(n):
        for z in range(n):
            if z == y or not rows[y][z]:
                continue
            for w in range(n):
                if w == z:
                    continue
                if rows[z][w] and not rows[y][w]:
                    violations.append(("transitive", (y, z, w)))
    lower = all(rows[y][z] == 0 for y in range(n) for z in range(y + 1, n))
    kinds = {axiom for axiom, _ in violations}
    return ValidationReport(
        reflexive_ok="reflexive" not in kinds,
        antisymmetric_ok="antisymmetric" not in kinds,
        transitive_ok="transitive" not in kinds,
        lower_triangular_ok=lower,
        violations=tuple(violations),
    )


def _minimal(rel: Rows) -> set[int]:
    n = len(rel)
    return {y for y in range(n) if not any(rel[y][z] for z in range(n) if z != y)}


def _maximal(rel: Rows) -> set[int]:
    n = len(rel)
    return {z for z in range(n) if not any(rel[y][z] for y in range(n) if y != z)}


def provenance_labels(a, d: int, b) -> tuple[str, ...]:
    """A's surviving labels around B's labels; clashes get primed."""
    left = [a.labels[z] for z in range(d)]
    right = [a.labels[y] for y in range(d + 1, len(a.rel))]
    taken = set(left) | set(right)
    middle = []
    for lab in b.labels:
        fresh = lab
        while fresh in taken:
            fresh += "'"
        taken.add(fresh)
        middle.append(fresh)
    return tuple(left + middle + right)


def compose(a, kind: str, i: int, b) -> tuple[Rows, tuple[str, ...], ValidationReport]:
    """Rows, provenance labels and report of `a kind@i b`, cell by cell.

    `kind` is "sq", "up" or "dn"; `i` is 1-based.
    """
    ar, br = a.rel, b.rel
    n, m = len(ar), len(br)
    d = i - 1
    size = n + m - 1
    out = [[0] * size for _ in range(size)]

    # Diagonal blocks: left A block, B block, right A block.
    for y in range(d):
        for z in range(d):
            out[y][z] = ar[y][z]
    for y in range(m):
        for z in range(m):
            out[d + y][d + z] = br[y][z]
    for y in range(d + 1, n):
        for z in range(d + 1, n):
            out[y + m - 1][z + m - 1] = ar[y][z]
    # Lower-left A block (right A rows over left A columns).
    for y in range(d + 1, n):
        for z in range(d):
            out[y + m - 1][z] = ar[y][z]

    if kind == "sq":
        u_zero = lambda y, z: False
        v_zero = lambda y, z: False
    else:
        p, q = _minimal(ar), _minimal(br)
        r, s = _maximal(ar), _maximal(br)
        if kind == "up":
            if d in r:
                u_zero = lambda y, z: y not in s
                v_zero = lambda y, z: z not in s
            else:
                u_zero = lambda y, z: y in q and z in p
                v_zero = lambda y, z: y in p and z in q
        else:
            if d in p:
                u_zero = lambda y, z: y not in q
                v_zero = lambda y, z: z not in q
            else:
                u_zero = lambda y, z: y in s and z in r
                v_zero = lambda y, z: y in r and z in s

    # U block: B rows (y, B position) over left A columns (z, A position).
    for y in range(m):
        for z in range(d):
            if ar[d][z] and not u_zero(y, z):
                out[d + y][z] = 1
    # V block: right A rows (y, A position) over B columns (z, B position).
    for y in range(d + 1, n):
        for z in range(m):
            if ar[y][d] and not v_zero(y, z):
                out[y + m - 1][d + z] = 1

    rows = tuple(tuple(row) for row in out)
    return rows, provenance_labels(a, d, b), validate_axioms(rows)


def _minimal_row_ints(n: int, down: tuple[int, ...], up: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest output rows over all linear extensions; row ints are MSB=col 0."""
    sentinel = 1 << (n + 1)
    best = [sentinel] * n
    chosen = [0] * n

    def rec(k: int, used: int) -> None:
        candidates = []
        seen_twins = set()
        for e in range(n):
            if used >> e & 1:
                continue
            if down[e] & ~used:
                continue
            twin = (down[e], up[e])
            if twin in seen_twins:
                continue
            seen_twins.add(twin)
            row = 1 << (n - 1 - k)
            de = down[e]
            for j in range(k):
                if de >> chosen[j] & 1:
                    row |= 1 << (n - 1 - j)
            candidates.append((row, e))
        candidates.sort()
        for row, e in candidates:
            if row > best[k]:
                break
            if row < best[k]:
                best[k] = row
                for j in range(k + 1, n):
                    best[j] = sentinel
            chosen[k] = e
            if k + 1 == n:
                continue
            rec(k + 1, used | 1 << e)

    rec(0, 0)
    return tuple(best)


def packed_from_masks(n: int, row_masks) -> int:
    """Canonical packed bit-string by the twin-only search above."""
    down = tuple(row_masks[y] & ~(1 << y) for y in range(n))
    up = tuple(
        sum(1 << y for y in range(n) if y != z and row_masks[y] >> z & 1)
        for z in range(n)
    )
    rows = _minimal_row_ints(n, down, up)
    packed = 0
    for row in rows:
        packed = (packed << n) | row
    return packed


def twin_classes(masks) -> list[tuple[int, ...]]:
    """The classes of elements with equal strict down- and up-sets, by least member."""
    n = len(masks)
    classes: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for e in range(n):
        down = tuple(z for z in range(n) if z != e and masks[e] >> z & 1)
        up = tuple(y for y in range(n) if y != e and masks[y] >> e & 1)
        classes.setdefault((down, up), []).append(e)
    return [tuple(c) for c in classes.values()]


def ideals(masks, k: int) -> Iterator[int]:
    """Down-closed subsets of positions 0..k-1, ascending as bitmasks.

    masks[z] is the full row mask of z (diagonal bit included), so a
    subset s is down-closed iff the union of masks over its members stays
    inside s.
    """
    for s in range(1 << k):
        need = 0
        t = s
        while t:
            z = (t & -t).bit_length() - 1
            need |= masks[z]
            t &= t - 1
        if need & ~s == 0:
            yield s


def _complete(prefix: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Extend a stack of rows to all full matrices of order n."""
    k = len(prefix)
    if k == n:
        yield prefix
        return
    for s in ideals(prefix, k):
        yield from _complete(prefix + (s | 1 << k,), n)


def iter_matrices(n: int) -> Iterator[tuple[int, ...]]:
    """All valid lower-triangular matrices of order n, as row-mask tuples."""
    if not 1 <= n <= MAX_ORACLE_ORDER:
        raise ValueError(f"order must be 1..{MAX_ORACLE_ORDER}, got {n}")
    yield from _complete((1,), n)


def catalog_from_packed(order: int, packed_keys) -> posetmat.ClassCatalog:
    """The classes of one order with these packed keys, sorted by key, each decoded and tested."""
    entries = {}
    for packed in sorted(set(packed_keys)):
        key = posetmat.CanonicalKey(order, packed)
        entries[key] = posetmat.CatalogEntry(key.matrix())
    return posetmat.ClassCatalog(order, entries)


def group_order(n: int, gens) -> int:
    """The order of the group of permutations of range(n) that `gens` span."""
    identity = tuple(range(n))
    seen = {identity}
    todo = [identity]
    for g in todo:
        for h in gens:
            gh = tuple(h[x] for x in g)
            if gh not in seen:
                seen.add(gh)
                todo.append(gh)
    return len(seen)


def linear_extensions(masks) -> int:
    """The number of linear extensions of the poset with these row masks (diagonal bits included)."""
    ways = {0: 1}  # ideal -> the orders in which its elements can be placed
    for _ in masks:
        grown: dict[int, int] = {}
        for ideal, count in ways.items():
            for z, row in enumerate(masks):
                if not ideal >> z & 1 and row & ~(1 << z) & ~ideal == 0:
                    grown[ideal | 1 << z] = grown.get(ideal | 1 << z, 0) + count
        ways = grown
    return ways[(1 << len(masks)) - 1]


def square_closure(max_n: int) -> dict[int, dict[posetmat.CanonicalKey, posetmat.PosetMatrix]]:
    """Classes of orders 2..max_n reached from C2 and I2 by `sq` alone, one representative each."""
    levels = {2: {posetmat.canonical_form(m): m for m in GENERATORS.values()}}
    for n in range(3, max_n + 1):
        level = levels[n] = {}
        for a_order in range(2, n):
            for a in levels[a_order].values():
                for b in levels[n + 1 - a_order].values():
                    for i in range(1, a_order + 1):
                        m = posetmat.compose(a, posetmat.CompositionKind.SQUARE, i, b, relabel=True).poset()
                        level.setdefault(posetmat.canonical_form(m), m)
    return levels


def composition_closure(max_n: int) -> dict[int, posetmat.ClassCatalog]:
    """The classes of orders 2..max_n reached from C2 and I2, composed one by one.

    Each orbit leader position of each operand pair is composed by the
    public `compose`, validated, and keyed by `canonical_form`, with no
    memo of earlier outputs.  Recipes are chosen shortest first, ties to
    the lexicographically smaller, and each class keeps its recipe's output.
    """

    def wrap(recipe: str) -> str:
        return f"({recipe})" if " " in recipe else recipe

    def catalog(order, best, invalid):
        entries = {key: posetmat.CatalogEntry(m, recipe) for key, (recipe, m) in sorted(best.items())}
        return posetmat.ClassCatalog(order, entries, invalid)

    levels = {2: catalog(2, {posetmat.canonical_form(m): (r, m) for r, m in GENERATORS.items()}, 0)}
    for n in range(3, max_n + 1):
        best = {}
        invalid = 0
        for a_order in range(2, n):
            for a in levels[a_order].entries.values():
                for b in levels[n + 1 - a_order].entries.values():
                    for kind in posetmat.CompositionKind:
                        for orbit in position_orbits(a.representative):
                            i = (orbit & -orbit).bit_length()
                            result = posetmat.compose(a.representative, kind, i, b.representative, relabel=True)
                            if not result.valid:
                                invalid += bin(orbit).count("1")
                                continue
                            m = result.poset()
                            key = posetmat.canonical_form(m)
                            recipe = f"{wrap(a.recipe)} {kind.value}@{i} {wrap(b.recipe)}"
                            held = best.get(key)
                            if held is None or (len(recipe), recipe) < (len(held[0]), held[0]):
                                best[key] = (recipe, m)
        levels[n] = catalog(n, best, invalid)
    return levels


def has_induced_n(m) -> bool:
    """Whether some a, b < c and b < d hold with no other relation among a, b, c, d."""
    for c, down in enumerate(m.masks):
        for b in range(m.order):
            if b == c or not down >> b & 1:
                continue
            lows = down & ~(m.masks[b] | m.up[b])  # a < c, a incomparable to b
            highs = m.up[b] & ~(down | m.up[c])  # d > b, d incomparable to c
            # Such a and d are incomparable unless a < d: d < a would give b < a.
            if any(highs >> d & 1 and lows & ~m.masks[d] for d in range(m.order)):
                return True
    return False


def oracle_child(packed: int, masks, s: int):
    """The child of the representative (packed, masks) over ideal s, as (key, rows) if both tests keep it, else None."""
    k = len(masks)
    record = canonical_search(k + 1, masks + (s | 1 << k,), packed)
    if record is None or not _orbit(1 << record.labelling[-1], record.generators) >> k & 1:
        return None  # R is not the child's canonical parent, or k is not in the orbit of its last element
    return record.packed, posetmat.CanonicalKey(k + 1, record.packed).matrix().masks


def _maps_onto(masks, x: int, y: int) -> bool:
    """Whether some automorphism of the poset with these row masks maps x to y."""
    n = len(masks)
    image = [-1] * n
    order = [x] + [e for e in range(n) if e != x]

    def fits(u: int, v: int) -> bool:
        return all(
            image[w] < 0
            or (masks[u] >> w & 1, masks[w] >> u & 1) == (masks[v] >> image[w] & 1, masks[image[w]] >> v & 1)
            for w in range(n)
        )

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for v in [y] if i == 0 else range(n):
            if not used >> v & 1 and fits(u, v):
                image[u] = v
                if extend(i + 1, used | 1 << v):
                    return True
                image[u] = -1
        return False

    return extend(0, 0)


def automorphism_orbits(masks) -> list[int]:
    """Orbits of the positions under every automorphism, as bitmasks by least position."""
    orbits = []
    covered = 0
    for x in range(len(masks)):
        if not covered >> x & 1:
            orbit = sum(1 << y for y in range(x, len(masks)) if _maps_onto(masks, x, y))
            orbits.append(orbit)
            covered |= orbit
    return orbits
