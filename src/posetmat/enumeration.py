"""Enumeration of poset matrices up to isomorphism.

Two independent routes:

* `enumerate_oracle` builds order n by one-point extension, level by
  level from the single class of order 1.  Every poset of order k+1 has a
  maximal element; deleting it leaves a poset whose class has a canonical
  representative R, and the element's strict down-set is an ideal (a
  down-closed subset) of R.  So appending, to each representative of
  order k, one new top row per ideal yields a member of every class of
  order k+1, and every such child is a valid matrix.  An automorphism g
  of R maps an ideal s onto the ideal g(s), and topping R over either
  gives isomorphic children, so only the first ideal of each orbit of
  R's generators is topped.  The child C over s is kept by McKay's two
  tests ("Isomorph-free exhaustive generation", J. Algorithms 1998): R
  is C's canonical parent, the class of the top-left block of C's
  canonical matrix (see canon), and k lies in the Aut(C)-orbit of the
  element x that C's canonical labelling places last.  Canonical
  labellings of isomorphic posets differ by an isomorphism, so that
  orbit is a class invariant.  The second test passes at once when x is
  k, and otherwise closes x under C's generators.

  Each class P is kept once.  P - x, x placed last, is isomorphic to its
  canonical parent R by a map taking x's down-set onto an ideal of R,
  whose orbit leader gives a child isomorphic to P by a map taking k to
  x: both tests pass.  Two kept children of R that are isomorphic are so
  by a map taking k to k, by the second test, and it restricts to an
  automorphism of R taking one ideal onto the other: they are one
  leader.  This reads the generators as spanning Aut(C) and Aut(R); they
  do to order 8, which the tests check by orbit counts (see canon).
  R's generators are those of its own search of the child over all of
  R, which its set-up runs once (see canon).  That child's one top
  element k is fixed by every automorphism, so its group is Aut(R), in
  R's own positions.  `canon.ParentSetup.child` takes both tests for
  each child, off R's recorded search where it can, and builds a kept
  child's key and rows from R's, so no level decodes a key (see canon).

* `composition_closure` closes the order-2 generators C2 and I2 under the
  three partial composition operations, order by order.  Each class of
  order n reached by composing one class of order a with one of order
  n+1-a keeps one shortest recipe, and the output of that composition is
  its representative.  Representatives are composed from representatives,
  so each one is exactly what its recipe rebuilds.  An automorphism of A
  that maps i to j keeps A's minimal and maximal elements, so
  `A kind@i B` and `A kind@j B` are isomorphic, or both invalid, for each
  kind.  Only the least position of each orbit of A's automorphisms
  (found by its canonical search and read from the cache) is composed.
  The others give the same class under a recipe that differs only in a
  larger position, so it is no shorter and sorts later and never wins.
  An invalid output counts once per position of its orbit.  So recipes,
  representatives and `invalid_outputs` are those of composing every
  position.

  Outputs still repeat: `sq` obeys the sequential law, so
  `(A sq@i B) sq@j C` and `A sq@i (B sq@j' C)` are one matrix, and two
  kinds often assemble equal masks.  Order 7's 19,947 compositions yield
  4,412 distinct matrices.  Equal masks under default labels have one
  validity, key and representative, so each is validated and keyed
  once, and a repeat still counts when invalid or offers its recipe.

Both orbit skips keep every class under any group of automorphisms (see
canon); the oracle keeps each exactly once under the whole group (see above).

Both routes split their work (a level's parent representatives, or the
pairs of operand classes) into independent chunks whose per-chunk results
merge associatively (the oracle's by concatenation), so the classes found
do not depend on the worker count.
With more than one worker, one process pool, of at most one process per
CPU, serves every level of a call.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .canon import (
    CanonicalKey,
    ParentSetup,
    _canonical_record,
    canonical_form,
    position_orbits,
)
from .compose import CompositionKind, _assemble
from .core import Masks, PosetMatrix, default_labels, dual, is_connected, validate_masks
from .generators import (
    GENERATORS,
    ORDER5_DUAL_PAIRS,
    ORDER5_RECIPES,
    ORDER5_SELF_DUAL_ROWS,
    named_operands,
)
from .io import eval_recipe, parse_recipe, serialize_matrix

# Published counts of non-isomorphic posets (total, connected) by order.
KNOWN_COUNTS: dict[int, tuple[int, int]] = {
    1: (1, 1),
    2: (2, 1),
    3: (5, 3),
    4: (16, 10),
    5: (63, 44),
    6: (318, 238),
    7: (2045, 1650),
    8: (16999, 14512),
    9: (183231, 163341),
}

MAX_ORACLE_ORDER = 8
MAX_CLOSURE_ORDER = 8


class CatalogIntegrityError(Exception):
    """A recorded construction table failed one of its guarantees."""


@dataclass(frozen=True)
class CatalogEntry:
    representative: PosetMatrix
    recipe: str | None = None

    @property
    def connected(self) -> bool:
        return is_connected(self.representative)


@dataclass
class ClassCatalog:
    """Isomorphism classes of one order, keyed by canonical form."""

    order: int
    entries: dict[CanonicalKey, CatalogEntry] = field(default_factory=dict)
    invalid_outputs: int = 0

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def connected_count(self) -> int:
        return sum(1 for e in self.entries.values() if e.connected)

    def keys(self) -> set[CanonicalKey]:
        return set(self.entries)

    def connected_keys(self) -> set[CanonicalKey]:
        return {k for k, e in self.entries.items() if e.connected}

    def restricted_to_connected(self) -> "ClassCatalog":
        return ClassCatalog(
            self.order,
            {k: e for k, e in self.entries.items() if e.connected},
            self.invalid_outputs,
        )


def _ideals(masks: Sequence[int], k: int) -> list[int]:
    """Down-closed subsets of positions 0..k-1, as bitmasks, built position by position.

    masks[z] is the full row mask of z (diagonal bit included).  Positions
    are a linear extension, so the strict down-set of z lies in 0..z-1,
    and z may join an ideal of those positions exactly when that down-set
    lies inside it.
    """
    ideals = [0]
    for z in range(k):
        below = masks[z] ^ 1 << z
        ideals += [s | 1 << z for s in ideals if below & ~s == 0]
    return ideals


class _ChunkMap:
    """Maps a function over chunks of its items, in one pool shared by every map of a call.

    `chunk_map(func, items, *shared)` calls `func((chunk, *shared))` once per
    round-robin chunk `items[w::workers]`, of which there are at most
    `workers` and none empty.  With at most one chunk it runs in this
    process.  Otherwise the pool opens, at the first such map, and closes
    when the `with` block ends, so a call that maps level after level
    starts its worker processes once.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self._pool = None

    def __enter__(self) -> "_ChunkMap":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __call__(self, func, items: list, *shared) -> list:
        tasks = [(items[w::self.workers], *shared) for w in range(min(self.workers, len(items)))]
        if len(tasks) <= 1:
            return [func(t) for t in tasks]
        if self._pool is None:
            import multiprocessing  # loaded by the first pool, not by `import posetmat`

            # Chunks follow `workers`, so outputs do not depend on the pool size.
            self._pool = multiprocessing.Pool(min(self.workers, os.cpu_count() or 1))
        return self._pool.map(func, tasks)


def _catalog(order: int, found: Mapping[int, tuple[str | None, Masks]], invalid: int = 0) -> ClassCatalog:
    """The classes of one order from packed key -> (recipe, rows), sorted by key, with default labels."""
    labels = default_labels(order)
    entries = {}
    for packed in sorted(found):  # sorting the keys, not the items, builds no tuple per class
        recipe, masks = found[packed]
        entries[CanonicalKey(order, packed)] = CatalogEntry(PosetMatrix(masks, labels), recipe)
    return ClassCatalog(order, entries, invalid)


def _ideal_orbit_leaders(masks: Sequence[int], k: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """The first ideal, in `_ideals` order, of each orbit of the ideals under `gens`."""
    ideals = _ideals(masks, k)
    if not gens:
        return ideals
    leaders = []
    seen: set[int] = set()
    for s in ideals:
        if s in seen:
            continue
        leaders.append(s)
        seen.add(s)
        orbit = [s]
        for t in orbit:
            for g in gens:
                image = 0
                rest = t
                while rest:
                    low = rest & -rest
                    image |= 1 << g[low.bit_length() - 1]
                    rest ^= low
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return leaders


# A class of an oracle level: its packed key and the row masks of its
# canonical matrix.  As a parent, its generators come from its set-up's
# search of its child over all of it (see above).
Representative = tuple[int, Masks]


def _extend_chunk(args: tuple[list[Representative], int]) -> list[Representative]:
    """The order-(k+1) classes whose canonical parent is one of the chunk's classes.

    Each parent is set up for the searches of its children once.  It tops
    its representative with one ideal per orbit of its generators, and
    keeps each child that `ParentSetup.child` returns: that step decides
    McKay's two tests and builds the kept child's key and rows (see canon).
    """
    parents, k = args
    kept: list[Representative] = []
    for packed, masks in parents:
        # A canonical representative is stored in a linear extension (see
        # canon), so its rows are a valid prefix for one more top row.
        parent = ParentSetup(packed, masks)
        kept += filter(None, map(parent.child, _ideal_orbit_leaders(masks, k, parent.generators)))
    return kept


def _oracle_levels(n: int, chunk_map: _ChunkMap) -> list[list[Representative]]:
    """The classes of orders 1..n, one level per order, each built from the level before."""
    levels: list[list[Representative]] = [[(1, (1,))]]  # the one-element poset; it packs to 1
    for k in range(1, n):
        levels.append([child for chunk in chunk_map(_extend_chunk, levels[-1], k) for child in chunk])
    return levels


def _oracle_catalog(order: int, level: list[Representative]) -> ClassCatalog:
    """The catalog of one oracle level, sorted by key, with the level's rows."""
    return _catalog(order, {packed: (None, masks) for packed, masks in level})


def enumerate_oracle(n: int, workers: int = 1) -> ClassCatalog:
    """Every isomorphism class of order n, by one-point extension."""
    if not 1 <= n <= MAX_ORACLE_ORDER:
        raise ValueError(f"order must be 1..{MAX_ORACLE_ORDER}, got {n}")
    with _ChunkMap(workers) as chunk_map:
        return _oracle_catalog(n, _oracle_levels(n, chunk_map)[-1])


def _wrap(recipe: str) -> str:
    return f"({recipe})" if " " in recipe else recipe


def _offer(best: dict[int, tuple[str, Masks]], packed: int, recipe: str, masks: Masks) -> None:
    """Hold the shorter recipe for a class, and its output, ties to the lexicographically smaller."""
    held = best.get(packed)
    if held is None or (len(recipe), recipe) < (len(held[0]), held[0]):
        best[packed] = (recipe, masks)


def _compose_chunk(
    args: tuple[list[tuple[CatalogEntry, CatalogEntry]]]
) -> tuple[dict[int, tuple[str, Masks]], int]:
    """Every composition `a kind@i b` of the chunk's operand pairs, best recipe per class.

    Only the least position of each orbit of a's automorphisms is
    composed (see the module docstring); an invalid output counts once
    per position of its orbit.  Pairs that share an a are adjacent, so
    its orbits are found once for all of them.

    Outputs repeat (the `sq` sequential law, and equal outputs of two
    kinds), so `seen` validates and keys each distinct output once.  A
    repeat has its first sighting's validity and key, and still counts or
    offers its recipe, so recipes, representatives and invalid counts
    are exact.
    """
    (pairs,) = args
    best: dict[int, tuple[str, Masks]] = {}
    seen: dict[Masks, int | None] = {}  # output -> packed key, None when invalid
    invalid = 0
    last = None
    for a, b in pairs:
        if a is not last:
            orbits = position_orbits(a.representative)
            last = a
        for kind in CompositionKind:
            for orbit in orbits:
                i = (orbit & -orbit).bit_length()  # the orbit's least position, 1-based
                masks = _assemble(a.representative, kind, i, b.representative)
                if masks in seen:
                    packed = seen[masks]
                else:
                    seen[masks] = packed = _canonical_record(masks)[0] if validate_masks(masks).ok else None
                if packed is None:
                    invalid += bin(orbit).count("1")
                    continue
                recipe = f"{_wrap(a.recipe)} {kind.value}@{i} {_wrap(b.recipe)}"
                _offer(best, packed, recipe, masks)
    return best, invalid


def base_catalog() -> ClassCatalog:
    """The order-2 generators as a seed catalog; each is its own canonical representative."""
    return _catalog(2, {canonical_form(m).packed: (r, m.masks) for r, m in GENERATORS.items()})


def _compose_order(
    n: int, seeds: Mapping[int, ClassCatalog], chunk_map: _ChunkMap
) -> ClassCatalog:
    """Classes of order n reachable by one composition of seed classes.

    Seeds must cover all classes of orders 2..n-1.  Invalid triangle
    outputs are tallied in `invalid_outputs` and dropped.  Each class
    keeps the shortest recipe over every route that reached it (ties to
    the lexicographically smaller), so the result does not depend on
    iteration order or worker count.  Recipe positions refer to the
    operands' storage orders, so the representative is that route's own
    output, not any other member of the class.
    """
    pairs = [
        (a, b)
        for a_order in range(2, n)
        for a in seeds[a_order].entries.values()
        for b in seeds[n + 1 - a_order].entries.values()
    ]
    best: dict[int, tuple[str, Masks]] = {}
    invalid = 0
    for part, bad in chunk_map(_compose_chunk, pairs):
        invalid += bad
        for packed, (recipe, masks) in part.items():
            _offer(best, packed, recipe, masks)
    return _catalog(n, best, invalid)


def composition_closure(max_n: int, workers: int = 1) -> dict[int, ClassCatalog]:
    """Seed catalogs for orders 2..max_n, grown recursively."""
    with _ChunkMap(workers) as chunk_map:
        return _closure(max_n, chunk_map)


def _closure(max_n: int, chunk_map: _ChunkMap) -> dict[int, ClassCatalog]:
    if not 2 <= max_n <= MAX_CLOSURE_ORDER:
        raise ValueError(f"closure order must be 2..{MAX_CLOSURE_ORDER}, got {max_n}")
    catalogs: dict[int, ClassCatalog] = {2: base_catalog()}
    for n in range(3, max_n + 1):
        catalogs[n] = _compose_order(n, catalogs, chunk_map)
    return catalogs


def run_order5_table() -> ClassCatalog:
    """Execute the 44 recorded order-5 recipes and check their guarantees.

    Each row must compose to a valid, connected order-5 matrix, and no two
    rows may land in the same isomorphism class.  The paired rows must
    realize mutually dual classes and the unpaired rows self-dual ones.
    Any failure raises CatalogIntegrityError naming the offending row.
    """
    operands = named_operands()
    catalog = ClassCatalog(5)
    row_key: dict[int, CanonicalKey] = {}
    for row_number, recipe in enumerate(ORDER5_RECIPES, start=1):
        result = eval_recipe(parse_recipe(recipe, operands))
        if not result.valid:
            raise CatalogIntegrityError(
                f"row {row_number} ({recipe}): output is not a valid poset matrix"
            )
        matrix = result.poset()
        if matrix.order != 5:
            raise CatalogIntegrityError(
                f"row {row_number} ({recipe}): order {matrix.order}, expected 5"
            )
        if not is_connected(matrix):
            raise CatalogIntegrityError(
                f"row {row_number} ({recipe}): output is disconnected"
            )
        key = canonical_form(matrix)
        if key in catalog.entries:
            earlier = catalog.entries[key].recipe
            raise CatalogIntegrityError(
                f"row {row_number} ({recipe}): same class as earlier row ({earlier})"
            )
        row_key[row_number] = key
        catalog.entries[key] = CatalogEntry(matrix.relabelled(), recipe)
    for first, second in ORDER5_DUAL_PAIRS:
        if canonical_form(dual(row_key[first].matrix())) != row_key[second]:
            raise CatalogIntegrityError(
                f"rows {first} and {second} do not realize dual classes"
            )
    for row_number in ORDER5_SELF_DUAL_ROWS:
        if canonical_form(dual(row_key[row_number].matrix())) != row_key[row_number]:
            raise CatalogIntegrityError(
                f"row {row_number} is not a self-dual class"
            )
    return catalog


def emit_catalog(catalog: ClassCatalog, directory) -> None:
    """Write one matrix file per class plus a tab-separated index.

    Index columns: canonical key, connected flag, recipe ("-" when there
    is none), relative file name.  Output is sorted by key, so repeated
    runs are byte-identical.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    lines = []
    for key in sorted(catalog.entries):
        entry = catalog.entries[key]
        name = f"m{key.order}_{key.hex}.pm"
        (path / name).write_text(serialize_matrix(entry.representative))
        recipe = entry.recipe if entry.recipe is not None else "-"
        flag = "connected" if entry.connected else "disconnected"
        lines.append(f"{key.render()}\t{flag}\t{recipe}\t{name}")
    (path / "index.tsv").write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class CountRow:
    order: int
    method: str
    total: int
    connected: int
    expected: tuple[int, int] | None = None  # (total, connected)

    @property
    def matches(self) -> bool | None:
        return None if self.expected is None else (self.total, self.connected) == self.expected


@dataclass(frozen=True)
class CountTable:
    rows: tuple[CountRow, ...]

    @property
    def all_match(self) -> bool:
        return all(r.matches in (True, None) for r in self.rows)

    def render(self) -> str:
        header = f"{'order':>5}  {'method':<8}{'total':>7}{'connected':>11}"
        has_expected = any(r.expected is not None for r in self.rows)
        if has_expected:
            header += f"{'expected':>12}  match"
        lines = [header]
        for r in self.rows:
            line = f"{r.order:>5}  {r.method:<8}{r.total:>7}{r.connected:>11}"
            if has_expected:
                if r.expected is None:
                    line += f"{'-':>12}  -"
                else:
                    line += f"{'%d/%d' % r.expected:>12}  {'yes' if r.matches else 'NO'}"
            lines.append(line)
        return "\n".join(lines)


def method_catalogs(max_n: int, method: str, workers: int) -> dict[str, dict[int, ClassCatalog]]:
    """Catalogs by order up to max_n, per route of the method ("oracle", "compose", "both").

    The oracle's come first.  One walk builds every oracle order, and one
    pool serves both routes.  An order above the cap of a route the method
    takes is refused before any work.  The closure refuses order 1, the
    composition identity, not a product.
    """
    caps = {"oracle": MAX_ORACLE_ORDER, "compose": MAX_CLOSURE_ORDER}
    if method not in (*caps, "both"):
        raise ValueError(f"unknown method {method!r}")
    cap = min(caps.values()) if method == "both" else caps[method]
    if not 1 <= max_n <= cap:
        # Refuse before the smaller orders are computed, not after.
        raise ValueError(f"order must be 1..{cap}, got {max_n}")
    routes: dict[str, dict[int, ClassCatalog]] = {}
    with _ChunkMap(workers) as chunk_map:
        if method != "compose":
            levels = _oracle_levels(max_n, chunk_map)
            routes["oracle"] = {n: _oracle_catalog(n, level) for n, level in enumerate(levels, 1)}
        if method != "oracle":
            routes["compose"] = _closure(max_n, chunk_map)
    return routes


def count_table(
    max_n: int,
    method: str = "oracle",
    expected: Mapping[int, tuple[int, int]] | None = None,
    workers: int = 1,
) -> CountTable:
    """Class counts per order for the chosen method ("oracle", "compose", "both")."""
    routes = method_catalogs(max_n, method, workers)
    known = {n: tuple(pair) for n, pair in (expected or {}).items()}
    rows = [
        CountRow(n, name, c.total, c.connected_count, known.get(n))
        for name, route in routes.items()
        for n, c in route.items()
    ]
    rows.sort(key=lambda r: (r.order, r.method))
    return CountTable(tuple(rows))
