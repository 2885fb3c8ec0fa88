"""Seeded request stream for the `requests` workload, answers known by construction.

Every matrix is built here with this file's own transitive closure, linear
extension and text writer.  Nothing is imported from posetmat, so a defect in
the package cannot leak into the expected answers.

A poset is a tuple of strict down-set bitmasks over hidden elements 0..n-1.
Its text is written in a random linear extension, so two texts of one poset
are two labelings of it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Share of a stream of `size` requests taken by each kind; the rest of the
# stream is made of exact repeats (CANON_REPEAT_SHARE, ISO_REPEAT_SHARE).
# Canon posets appear twice each (two labelings), so 0.16 posets -> 0.32 texts.
CANON_RANDOM_POSETS = 0.16
# Symmetric families, per 3,000 requests: (family, k, posets).  Each k = 6
# disjoint 2-chain takes about 40 ms to canonicalise at the seed commit and
# they make up 2% of the stream (two labelings each), so req_p99_ms falls
# inside that band instead of on the edge between two bands.
SYMMETRIC = (
    ("chains2", 4, 15),
    ("chains2", 5, 15),
    ("chains2", 6, 30),
    ("crown", 4, 10),
    ("crown", 5, 10),
    ("crown", 6, 15),
    ("chains3", 3, 10),
    ("chains3", 4, 15),
)
CANON_REPEAT_SHARE = 0.20  # of all canon requests
ISO_PAIRS = 0.16  # half relabelled (true), half different comparable-pair counts (false)
ISO_REPEAT_SHARE = 0.20  # of all iso requests
COMPOSE = 0.20
RECIPE = 0.10
KNOWN_INVALID_SHARE = 0.10  # of recipe requests: chain4 up@3 chain2

# (order, density) strata for random posets.  Sparse inputs of order 11 and
# up are left out: at order 12 and density 0.1 a single canonical form took
# up to 0.23 s, which would make run length depend on the seed.
STRATA = tuple((n, p) for n in (8, 9, 10) for p in (0.1, 0.2, 0.35, 0.5)) + tuple(
    (n, p) for n in (11, 12) for p in (0.35, 0.5)
)


@dataclass(frozen=True)
class Request:
    """One library request.  `kind` selects the call; `answer` is known by construction.

    canon:   args = (text,);            answer = (group, relation bits)
    iso:     args = (text_a, text_b);   answer = bool
    compose: args = (text_a, kind, i, text_b); answer = (order, expected text or None)
    recipe:  args = (recipe, symbols);  answer = expected text, or the witness of an invalid result
    """

    kind: str
    args: tuple
    answer: object


def closure(down: list[int]) -> tuple[int, ...]:
    """Transitive closure of a relation given in a topological order of 0..n-1."""
    out = list(down)
    for j in range(len(out)):
        acc = out[j]
        rest = out[j]
        while rest:
            low = rest & -rest
            acc |= out[low.bit_length() - 1]
            rest ^= low
        out[j] = acc
    return tuple(out)


def random_poset(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    down = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                down[j] |= 1 << i
    return closure(down)


def family(name: str, k: int) -> tuple[int, ...]:
    """k disjoint 2- or 3-chains, or the crown on 2k elements."""
    if name == "crown":
        # minimal a_0..a_{k-1}; b_i above a_i and a_{i+1 mod k}
        return tuple([0] * k + [1 << i | 1 << (i + 1) % k for i in range(k)])
    length = 2 if name == "chains2" else 3
    down = [0] * (k * length)
    for c in range(k):
        for j in range(1, length):
            down[c * length + j] = 1 << (c * length + j - 1)
    return closure(down)


def comparable_pairs(down: tuple[int, ...]) -> int:
    return sum(bin(d).count("1") for d in down)


def linear_extension(down: tuple[int, ...], rng: random.Random) -> list[int]:
    """A random linear extension: each step takes a random available minimal element."""
    n = len(down)
    order: list[int] = []
    placed = 0
    while len(order) < n:
        ready = [e for e in range(n) if not placed >> e & 1 and down[e] & ~placed == 0]
        e = rng.choice(ready)
        order.append(e)
        placed |= 1 << e
    return order


def rows_in(down: tuple[int, ...], order: list[int]) -> tuple[tuple[int, ...], ...]:
    """Storage rows: row y lists the down-set of order[y], including itself."""
    n = len(order)
    return tuple(
        tuple(1 if z == y or down[order[y]] >> order[z] & 1 else 0 for z in range(n))
        for y in range(n)
    )


def text_of(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, row)) for row in rows]) + "\n"


def labeling(down: tuple[int, ...], rng: random.Random) -> tuple[tuple[int, ...], ...]:
    return rows_in(down, linear_extension(down, rng))


def square(a, i: int, b):
    """Reference `sq` composition: B replaces position i (1-based) of A, inheriting its relations."""
    n, m, d = len(a), len(b), i - 1
    # Each output position is ("a", index) or ("b", index), in storage order.
    where = [("a", z) for z in range(d)] + [("b", z) for z in range(m)] + [
        ("a", z) for z in range(d + 1, n)
    ]

    def cell(y, z):
        (sy, py), (sz, pz) = where[y], where[z]
        if sy == "b" and sz == "b":
            return b[py][pz]
        return a[d if sy == "b" else py][d if sz == "b" else pz]

    size = n + m - 1
    return tuple(tuple(cell(y, z) for z in range(size)) for y in range(size))


def axioms_hold(rows) -> bool:
    n = len(rows)
    if any(rows[k][k] != 1 for k in range(n)):
        return False
    if any(rows[i][j] and rows[j][i] for i in range(n) for j in range(i + 1, n)):
        return False
    return all(
        rows[y][w] or not (rows[y][z] and rows[z][w])
        for y in range(n)
        for z in range(n)
        for w in range(n)
    )


CHAIN2 = ((1, 0), (1, 1))
ANTICHAIN2 = ((1, 0), (0, 1))
CHAIN4 = tuple(tuple(1 if z <= y else 0 for z in range(4)) for y in range(4))
KNOWN_INVALID = (
    "chain4 up@3 chain2",
    (("chain4", text_of(CHAIN4)), ("chain2", text_of(CHAIN2))),
    ("transitive", (2, 1, 0)),
)


def _recipe(rng: random.Random, ops: int):
    """A random nested `sq` recipe over C2 and I2 with its expected rows."""
    if ops == 0:
        return ("C2", CHAIN2) if rng.random() < 0.5 else ("I2", ANTICHAIN2)
    left_ops = rng.randrange(ops)
    left_text, left = _recipe(rng, left_ops)
    right_text, right = _recipe(rng, ops - 1 - left_ops)
    i = rng.randint(1, len(left))
    wrap = lambda t: f"({t})" if " " in t else t
    return f"{wrap(left_text)} sq@{i} {wrap(right_text)}", square(left, i, right)


def _count(share: float, size: int) -> int:
    return max(1, round(share * size))


def make_stream(seed: int, size: int = 3000) -> list[Request]:
    """About `size` requests in a seeded order; every earlier text a repeat copies comes first."""
    rng = random.Random(seed)
    scale = size / 3000
    fresh: list[Request] = []
    group = 0

    def add_canon(down):
        nonlocal group
        bits = comparable_pairs(down) + len(down)
        for _ in range(2):
            fresh.append(Request("canon", (text_of(labeling(down, rng)),), (group, bits)))
        group += 1

    for k in range(_count(CANON_RANDOM_POSETS, size)):
        add_canon(random_poset(rng, *STRATA[k % len(STRATA)]))
    for name, k, posets in SYMMETRIC:
        for _ in range(max(1, round(posets * scale))):
            add_canon(family(name, k))

    pairs = _count(ISO_PAIRS, size)
    for k in range(pairs):
        n, p = STRATA[k % len(STRATA)]
        a = random_poset(rng, n, p)
        if k % 2 == 0:
            b, same = a, True
        else:
            b = random_poset(rng, n, p)
            while comparable_pairs(b) == comparable_pairs(a):
                b = random_poset(rng, n, p)
            same = False
        fresh.append(
            Request("iso", (text_of(labeling(a, rng)), text_of(labeling(b, rng))), same)
        )

    kinds = ("sq", "up", "dn")
    for k in range(_count(COMPOSE, size)):
        a = labeling(random_poset(rng, rng.randint(2, 7), rng.choice((0.2, 0.35, 0.5))), rng)
        b = labeling(random_poset(rng, rng.randint(2, 7), rng.choice((0.2, 0.35, 0.5))), rng)
        kind = kinds[k % 3]
        i = rng.randint(1, len(a))
        expected = text_of(square(a, i, b)) if kind == "sq" else None
        fresh.append(
            Request("compose", (text_of(a), kind, i, text_of(b)), (len(a) + len(b) - 1, expected))
        )

    recipes = _count(RECIPE, size)
    invalid = _count(KNOWN_INVALID_SHARE * RECIPE, size)
    for _ in range(recipes - invalid):
        text, rows = _recipe(rng, rng.randint(2, 4))
        fresh.append(Request("recipe", (text, ()), text_of(rows)))
    recipe, symbols, witness = KNOWN_INVALID
    fresh.extend(Request("recipe", (recipe, symbols), witness) for _ in range(invalid))

    rng.shuffle(fresh)
    stream = list(fresh)
    for kind, share in (("canon", CANON_REPEAT_SHARE), ("iso", ISO_REPEAT_SHARE)):
        sources = [r for r in fresh if r.kind == kind]
        # repeats / (sources + repeats) == share
        for _ in range(round(len(sources) * share / (1 - share))):
            source = rng.choice(sources)
            at = rng.randint(stream.index(source) + 1, len(stream))
            stream.insert(at, source)
    return stream
