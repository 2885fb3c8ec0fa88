"""Generator matrices and the recorded small-order construction tables.

The two order-2 generators are the chain and the antichain.  From them,
partial composition reaches every class of order 3 and, with the tables
below, every class of order 4 and every connected class of order 5.  The
tables store each construction as data (operands, operation, position,
expected output) so tests can re-execute them bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import PosetMatrix, Rows


def chain(n: int) -> PosetMatrix:
    """Total order on n elements."""
    return PosetMatrix.from_masks(tuple((2 << y) - 1 for y in range(n)))


def antichain(n: int) -> PosetMatrix:
    """n pairwise incomparable elements (identity matrix)."""
    return PosetMatrix.from_masks(tuple(1 << y for y in range(n)))


C2 = chain(2)
I2 = antichain(2)
GENERATORS: dict[str, PosetMatrix] = {"C2": C2, "I2": I2}

_C2: Rows = ((1, 0), (1, 1))
_I2: Rows = ((1, 0), (0, 1))


@dataclass(frozen=True)
class Construction:
    """One recorded composition: left kind@position right -> expected."""

    name: str
    left: Rows
    kind: str
    position: int
    right: Rows
    expected: Rows


# The six disconnected classes of order 4, each built by one square
# composition from order-3 and order-2 pieces.
ORDER4_DISCONNECTED: tuple[Construction, ...] = (
    Construction(
        "D1",
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)), "sq", 3, _C2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)),
    ),
    Construction(
        "D2",
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "sq", 1, _I2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ),
    Construction(
        "D3",
        ((1, 0, 0), (0, 1, 0), (0, 1, 1)), "sq", 1, _I2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)),
    ),
    Construction(
        "D4",
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)), "sq", 1, _C2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 1)),
    ),
    Construction(
        "D5",
        ((1, 0, 0), (0, 1, 0), (0, 1, 1)), "sq", 2, _I2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1)),
    ),
    Construction(
        "D6",
        ((1, 0, 0), (0, 1, 0), (0, 1, 1)), "sq", 3, _I2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)),
    ),
)

# The ten connected classes of order 4.  The starred entries are the
# duals of their plain partners; D, E, F, G land in self-dual classes.
ORDER4_CONNECTED: tuple[Construction, ...] = (
    Construction(
        "A",
        ((1, 0, 0), (1, 1, 0), (1, 1, 1)), "sq", 3, _I2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
    ),
    Construction(
        "A*",
        ((1, 0, 0), (0, 1, 0), (1, 1, 1)), "sq", 3, _C2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)),
    ),
    Construction(
        "B",
        ((1, 0, 0), (0, 1, 0), (1, 1, 1)), "sq", 1, _I2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)),
    ),
    Construction(
        "B*",
        ((1, 0, 0), (1, 1, 0), (1, 0, 1)), "sq", 2, _I2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)),
    ),
    Construction(
        "C",
        ((1, 0, 0), (0, 1, 0), (1, 1, 1)), "sq", 1, _C2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)),
    ),
    Construction(
        "C*",
        ((1, 0, 0), (1, 1, 0), (1, 0, 1)), "sq", 2, _C2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 0, 0, 1)),
    ),
    Construction(
        "D",
        _C2, "sq", 1, ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)),
    ),
    Construction(
        "E",
        ((1, 0, 0), (1, 1, 0), (1, 0, 1)), "sq", 1, _I2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
    ),
    Construction(
        "F",
        ((1, 0, 0), (1, 1, 0), (1, 0, 1)), "up", 2, _C2,
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 0, 0, 1)),
    ),
    Construction(
        "G",
        ((1, 0, 0), (1, 1, 0), (1, 1, 1)), "sq", 1, _C2,
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)),
    ),
)


def named_operands() -> dict[str, PosetMatrix]:
    """The order-4 class representatives A..G, A*..C* plus the generators."""
    table = dict(GENERATORS)
    for item in ORDER4_CONNECTED:
        table[item.name] = PosetMatrix.from_rows(item.expected)
    return table


# The 44 connected classes of order 5, one composition recipe each, in
# table row order.  Within each pair below the second recipe realizes the
# dual class of the first; the remaining six rows are self-dual classes.
ORDER5_RECIPES: tuple[str, ...] = (
    "G sq@1 C2",    # 1
    "C2 sq@1 A",    # 2
    "C2 sq@2 A*",   # 3
    "A sq@1 C2",    # 4
    "A* sq@4 C2",   # 5
    "C sq@4 C2",    # 6
    "C* sq@1 C2",   # 7
    "D sq@3 C2",    # 8
    "A sq@2 I2",    # 9
    "A* sq@3 I2",   # 10
    "A* sq@4 I2",   # 11
    "C sq@1 C2",    # 12
    "C* sq@2 C2",   # 13
    "C2 sq@1 F",    # 14
    "C2 sq@2 F",    # 15
    "C sq@4 I2",    # 16
    "C* sq@1 I2",   # 17
    "F dn@2 C2",    # 18
    "F up@4 C2",    # 19
    "C dn@1 C2",    # 20
    "C sq@3 C2",    # 21
    "C* sq@4 C2",   # 22
    "C2 sq@2 B",    # 23
    "A sq@3 I2",    # 24
    "A* sq@2 I2",   # 25
    "F sq@1 C2",    # 26
    "F sq@3 C2",    # 27
    "C sq@2 I2",    # 28
    "C* sq@2 I2",   # 29
    "C sq@1 I2",    # 30
    "C* sq@3 I2",   # 31
    "B sq@4 I2",    # 32
    "B* sq@1 I2",   # 33
    "C2 dn@1 C",    # 34
    "F sq@1 I2",    # 35
    "F sq@3 I2",    # 36
    "B sq@2 C2",    # 37
    "B* sq@3 C2",   # 38
    "F sq@2 C2",    # 39
    "F sq@4 C2",    # 40
    "F sq@2 I2",    # 41
    "F sq@4 I2",    # 42
    "B sq@1 I2",    # 43
    "B* sq@4 I2",   # 44
)

# 1-based row numbers of mutually dual pairs; rows not listed are self-dual.
ORDER5_DUAL_PAIRS: tuple[tuple[int, int], ...] = (
    (2, 3), (4, 5), (6, 7), (9, 10), (12, 13), (14, 15), (16, 17),
    (18, 19), (21, 22), (24, 25), (26, 27), (28, 29), (30, 31), (32, 33),
    (35, 36), (37, 38), (39, 40), (41, 42), (43, 44),
)

ORDER5_SELF_DUAL_ROWS: tuple[int, ...] = (1, 8, 11, 20, 23, 34)
