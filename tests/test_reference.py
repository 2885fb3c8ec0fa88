"""The row-mask core against the cell-loop reference in `reference.py`."""
import itertools
import random

from posetmat import compose, validate_axioms
from posetmat.compose import CompositionKind

import reference
from conftest import iter_all_posets


def test_compose_matches_reference_on_all_pairs_up_to_order_4():
    posets = [m for n in range(1, 5) for m in iter_all_posets(n)]
    cases = 0
    for a in posets:
        for kind in CompositionKind:
            for i in range(1, a.order + 1):
                for b in posets:
                    out = compose(a, kind, i, b)
                    rows, labels, report = reference.compose(a, kind.value, i, b)
                    assert (out.rows, out.labels, out.report) == (rows, labels, report), (
                        a.rel, kind, i, b.rel
                    )
                    cases += 1
    assert cases == 27_900


def _candidate(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A 0/1 matrix; half are reflexive and lower-triangular, so only transitivity can fail."""
    density = rng.choice((0.2, 0.4, 0.6))
    if rng.random() < 0.5:
        return tuple(
            tuple(int(rng.random() < density) for _ in range(n)) for _ in range(n)
        )
    return tuple(
        tuple(1 if z == y else int(z < y and rng.random() < density) for z in range(n))
        for y in range(n)
    )


def test_witnesses_match_reference_on_random_candidates():
    rng = random.Random(20221222)
    invalid = 0
    seen = set()
    trials = 3000
    for _ in range(trials):
        rows = _candidate(rng, rng.randint(1, 7))
        report = validate_axioms(rows)
        assert report == reference.validate_axioms(rows), rows
        invalid += not report.ok
        seen.update(axiom for axiom, _ in report.violations)
    assert invalid > trials // 2
    assert seen == {"reflexive", "antisymmetric", "transitive"}


def test_group_order_and_linear_extensions_match_brute_force():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        cycle = tuple(range(1, n)) + (0,)
        swap = (1, 0) + tuple(range(2, n)) if n > 1 else (0,)
        assert reference.group_order(n, [cycle, swap]) == len(perms)
        assert reference.group_order(n, []) == 1
        for m in iter_all_posets(n):
            masks = m.masks
            autos = [
                g for g in perms
                if all(masks[y] >> z & 1 == masks[g[y]] >> g[z] & 1 for y in range(n) for z in range(n))
            ]
            # g[i] is the element placed at position i: every strict down-set comes first.
            extensions = sum(
                all(masks[g[i]] & ~(1 << g[i]) & ~sum(1 << x for x in g[:i]) == 0 for i in range(n)) for g in perms
            )
            assert reference.group_order(n, autos) == len(autos), masks
            assert reference.linear_extensions(masks) == extensions, masks
