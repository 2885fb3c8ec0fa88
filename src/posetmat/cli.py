"""Command line interface.

Exit codes: 0 success (or a true answer), 1 domain negative (invalid
matrix, not isomorphic, count mismatch), 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, TypeVar

from .canon import are_isomorphic, canonical_form
from .compose import CompositionKind, compose
from .core import (
    InvalidPosetError,
    MalformedMatrixError,
    PosetError,
    PosetMatrix,
    dual,
    hasse_edges,
    induced_subposet,
    is_connected,
    maximal_elements,
    minimal_elements,
    normalize_masks,
    validate_masks,
)
from .enumeration import KNOWN_COUNTS, count_table, emit_catalog, method_catalogs
from .io import (
    MatrixParseError,
    RecipeError,
    eval_recipe,
    parse_candidate,
    parse_matrix,
    parse_recipe,
    serialize_matrix,
    to_dot,
)

OK, DOMAIN_FAIL, USAGE_FAIL = 0, 1, 2

T = TypeVar("T")


def _load(source: str, parse: Callable[[str], T] = parse_matrix) -> T:
    """`parse` of the text of a file, or of stdin for `-`, with the source in front of any error.

    A parse or poset error keeps its type, so its exit code; a file that
    is not UTF-8 is a usage error.
    """
    try:
        return parse(sys.stdin.read() if source == "-" else Path(source).read_text())
    except UnicodeDecodeError as err:
        raise ValueError(f"{source}: {err}") from None
    except (MatrixParseError, PosetError) as err:
        err.args = (f"{source}: {err}",)
        raise


def _cmd_validate(args) -> int:
    masks, _ = _load(args.matrix, parse_candidate)
    report = validate_masks(masks)
    print(report.summary())
    if report.ok and not report.lower_triangular_ok:
        print("hint: storage order is not a linear extension; see `normalize`")
    return OK if report.ok else DOMAIN_FAIL


def _cmd_normalize(args) -> int:
    masks, labels = _load(args.matrix, parse_candidate)
    print(serialize_matrix(normalize_masks(masks, labels)), end="")
    return OK


def _cmd_minmax(args) -> int:
    m = _load(args.matrix)
    print("min:", " ".join(m.labels[p] for p in minimal_elements(m)))
    print("max:", " ".join(m.labels[p] for p in maximal_elements(m)))
    return OK


def _cmd_dual(args) -> int:
    print(serialize_matrix(dual(_load(args.matrix))), end="")
    return OK


def _cmd_connected(args) -> int:
    connected = is_connected(_load(args.matrix))
    print("true" if connected else "false")
    return OK if connected else DOMAIN_FAIL


def _cmd_hasse(args) -> int:
    m = _load(args.matrix)
    if args.dot:
        print(to_dot(m), end="")
    else:
        for lower, upper in hasse_edges(m):
            print(f"{m.labels[lower]} < {m.labels[upper]}")
    return OK


def _cmd_sub(args) -> int:
    m = _load(args.matrix)
    wanted = [x for chunk in args.labels.split(",") for x in chunk.split()]
    positions = [m.position_of(name) for name in wanted]
    print(serialize_matrix(induced_subposet(m, positions)), end="")
    return OK


def _print_result(result) -> int:
    """Write a composition output; an invalid one also reports to stderr and exits 1."""
    print(serialize_matrix(result), end="")
    if not result.valid:
        print("invalid composition output:", file=sys.stderr)
        print(result.report.summary(), file=sys.stderr)
        return DOMAIN_FAIL
    return OK


def _cmd_compose(args) -> int:
    a = _load(args.left)
    b = _load(args.right)
    return _print_result(compose(a, CompositionKind(args.op), args.at, b, relabel=args.relabel))


class _Defs(dict):
    """The `--defs` directory as a symbol table: a name reads its `.pm` file at its first lookup."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise NotADirectoryError(f"--defs {directory}: not a directory")

    def __contains__(self, name: object) -> bool:
        return (self.directory / f"{name}.pm").is_file()

    def __missing__(self, name: str) -> PosetMatrix:
        if name not in self:
            raise KeyError(name)
        matrix = self[name] = _load(str(self.directory / f"{name}.pm"))
        return matrix


def _cmd_eval(args) -> int:
    symbols = _Defs(args.defs) if args.defs else None
    return _print_result(eval_recipe(parse_recipe(args.expr, symbols)))


def _cmd_canon(args) -> int:
    print(canonical_form(_load(args.matrix)).render())
    return OK


def _cmd_iso(args) -> int:
    same = are_isomorphic(_load(args.left), _load(args.right))
    print("true" if same else "false")
    return OK if same else DOMAIN_FAIL


def _cmd_enumerate(args) -> int:
    routes = method_catalogs(args.order, args.method, args.workers)
    catalogs = {name: route[args.order] for name, route in routes.items()}
    if args.connected:
        catalogs = {name: c.restricted_to_connected() for name, c in catalogs.items()}
    for name, catalog in catalogs.items():
        line = f"{name}: {catalog.total} classes of order {args.order}"
        if not args.connected:
            line += f" ({catalog.connected_count} connected)"
        if catalog.invalid_outputs:
            line += f" [{catalog.invalid_outputs} invalid outputs dropped]"
        print(line)
    status = OK
    if args.method == "both":
        oracle, closure = catalogs["oracle"].keys(), catalogs["compose"].keys()
        for key in sorted(oracle - closure):
            print(f"missing from compose: {key.render()}")
        for key in sorted(closure - oracle):
            print(f"not found by oracle: {key.render()}")
        if oracle == closure:
            print("methods agree")
        else:
            status = DOMAIN_FAIL
    if args.emit:
        emit_catalog(catalogs.get("oracle") or catalogs["compose"], args.emit)
        print(f"catalog written to {args.emit}")
    return status


def _cmd_count(args) -> int:
    expected = KNOWN_COUNTS if args.expect else None
    table = count_table(args.max_order, args.method, expected, args.workers)
    print(table.render())
    if args.expect and not table.all_match:
        return DOMAIN_FAIL
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetmat",
        description="Poset matrix toolkit: composition, canonical forms, enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check the order axioms on a candidate matrix")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p = add("normalize", _cmd_normalize, "reorder a valid candidate into a linear extension")
    p.add_argument("matrix")
    p = add("minmax", _cmd_minmax, "print minimal and maximal elements")
    p.add_argument("matrix")
    p = add("dual", _cmd_dual, "print the order dual")
    p.add_argument("matrix")
    p = add("connected", _cmd_connected, "exit 0 if the poset is connected")
    p.add_argument("matrix")
    p = add("hasse", _cmd_hasse, "print covering pairs, or DOT with --dot")
    p.add_argument("matrix")
    p.add_argument("--dot", action="store_true")
    p = add("sub", _cmd_sub, "induced subposet on the named elements")
    p.add_argument("matrix")
    p.add_argument("--labels", required=True, help="comma separated element labels")
    p = add("compose", _cmd_compose, "compose two matrices")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--op", required=True, choices=[kind.value for kind in CompositionKind])
    p.add_argument("--at", required=True, type=int, help="1-based position in the left operand")
    p.add_argument("--relabel", action="store_true", help="relabel the output 1..n+m-1")
    p = add("eval", _cmd_eval, "evaluate a recipe expression")
    p.add_argument("expr")
    p.add_argument("--defs", help="directory of .pm files providing named operands")
    p = add("canon", _cmd_canon, "print the canonical key")
    p.add_argument("matrix")
    p = add("iso", _cmd_iso, "exit 0 if the two matrices are isomorphic")
    p.add_argument("left")
    p.add_argument("right")
    p = add("enumerate", _cmd_enumerate, "enumerate classes of one order")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--method", default="oracle", choices=["oracle", "compose", "both"])
    p.add_argument("--emit", help="write the catalog to this directory")
    p.add_argument("--workers", type=int, default=1)
    p = add("count", _cmd_count, "class counts for orders 1..N")
    p.add_argument("--max-order", required=True, type=int)
    p.add_argument("--method", default="oracle", choices=["oracle", "compose", "both"])
    p.add_argument("--expect", action="store_true", help="compare with the published counts")
    p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return USAGE_FAIL if err.code not in (0, None) else OK
    try:
        return args.func(args)
    except InvalidPosetError as err:
        print(f"error: {err}", file=sys.stderr)
        return DOMAIN_FAIL
    except KeyError as err:  # str() of a KeyError quotes its message
        print("error:", *err.args, file=sys.stderr)
        return USAGE_FAIL
    except (MatrixParseError, RecipeError, MalformedMatrixError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_FAIL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
