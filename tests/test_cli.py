"""End-to-end checks of the command line interface.

Every test drives ``main(argv)`` directly and inspects stdout, stderr,
and the exit code.  Exit code convention: 0 for success or a true
answer, 1 for a domain negative, 2 for usage and parse errors.
"""
import io

import pytest

import posetmat.io
from posetmat import CanonicalKey, CompositionKind, PosetMatrix, canonical_form, chain, compose
from posetmat.cli import main
from posetmat.io import parse_candidate, parse_matrix

CHAIN2 = "2\n1 0\n1 1\n"
CHAIN3 = "3\n1 0 0\n1 1 0\n1 1 1\n"
CHAIN4 = "4\n1 0 0 0\n1 1 0 0\n1 1 1 0\n1 1 1 1\n"
ANTICHAIN2 = "2\n1 0\n0 1\n"
VEE = "3\n1 0 0\n0 1 0\n1 1 1\n"
NOT_TRANSITIVE = "3\n1 0 0\n1 1 0\n0 1 1\n"
UPPER_ENTRY = "3\nlabels: a b c\n1 1 0\n0 1 0\n1 1 1\n"


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_a_poset(tmp_path, capsys):
    code, out, err = run(capsys, "validate", put(tmp_path, "m.pm", CHAIN3))
    assert code == 0
    assert out.splitlines()[0] == (
        "reflexive: ok; antisymmetric: ok; transitive: ok; lower-triangular: yes"
    )
    assert err == ""


def test_validate_reports_the_broken_axiom(tmp_path, capsys):
    code, out, err = run(capsys, "validate", put(tmp_path, "m.pm", NOT_TRANSITIVE))
    assert code == 1
    assert "transitive: FAIL" in out
    assert "transitive violated at (2, 1, 0)" in out


def test_validate_hints_at_normalize(tmp_path, capsys):
    code, out, err = run(capsys, "validate", put(tmp_path, "m.pm", UPPER_ENTRY))
    assert code == 0
    assert "lower-triangular: no" in out
    assert "see `normalize`" in out


def test_validate_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN3))
    code, out, err = run(capsys, "validate", "-")
    assert code == 0
    assert "transitive: ok" in out


def test_normalize_reorders_into_a_linear_extension(tmp_path, capsys):
    code, out, err = run(capsys, "normalize", put(tmp_path, "m.pm", UPPER_ENTRY))
    assert code == 0
    assert out == "3\nlabels: b a c\n1 0 0\n1 1 0\n1 1 1\n"


def test_minmax(tmp_path, capsys):
    code, out, err = run(capsys, "minmax", put(tmp_path, "m.pm", VEE))
    assert code == 0
    assert out == "min: 1 2\nmax: 3\n"
    labelled = VEE.replace("\n", "\nlabels: r s t\n", 1)
    code, out, err = run(capsys, "minmax", put(tmp_path, "l.pm", labelled))
    assert code == 0
    assert out == "min: r s\nmax: t\n"


def test_dual_reverses_the_chain(tmp_path, capsys):
    text = "3\nlabels: x y z\n1 0 0\n1 1 0\n1 1 1\n"
    code, out, err = run(capsys, "dual", put(tmp_path, "m.pm", text))
    assert code == 0
    assert out == "3\nlabels: z y x\n1 0 0\n1 1 0\n1 1 1\n"


def test_connected_true_and_false(tmp_path, capsys):
    code, out, _ = run(capsys, "connected", put(tmp_path, "c.pm", CHAIN3))
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "connected", put(tmp_path, "i.pm", ANTICHAIN2))
    assert (code, out) == (1, "false\n")


def test_hasse_lists_covering_pairs(tmp_path, capsys):
    code, out, err = run(capsys, "hasse", put(tmp_path, "m.pm", VEE))
    assert code == 0
    assert out == "1 < 3\n2 < 3\n"


def test_hasse_dot_output(tmp_path, capsys):
    code, out, err = run(capsys, "hasse", "--dot", put(tmp_path, "m.pm", CHAIN3))
    assert code == 0
    assert out.startswith("digraph poset {")
    assert '"1" -> "2";' in out
    assert '"2" -> "3";' in out
    assert out.rstrip().endswith("}")


def test_hasse_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    text = '2\nlabels: a"b c\\d\n1 0\n1 1\n'
    code, out, err = run(capsys, "hasse", "--dot", put(tmp_path, "m.pm", text))
    assert code == 0
    assert out.splitlines()[1:] == [
        '  "a\\"b";',
        '  "c\\\\d";',
        '  "a\\"b" -> "c\\\\d";',
        "}",
    ]


def test_sub_restricts_to_named_elements(tmp_path, capsys):
    text = "3\nlabels: a b c\n1 0 0\n1 1 0\n1 1 1\n"
    code, out, err = run(
        capsys, "sub", "--labels", "a,c", put(tmp_path, "m.pm", text)
    )
    assert code == 0
    assert out == "2\nlabels: a c\n1 0\n1 1\n"


def test_sub_names_an_unknown_label_without_extra_quotes(tmp_path, capsys):
    code, out, err = run(capsys, "sub", "--labels", "zz", put(tmp_path, "m.pm", CHAIN3))
    assert code == 2
    assert out == ""
    assert err == "error: no element labelled 'zz'\n"


def test_compose_square_keeps_provenance_labels(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN2)
    right = put(tmp_path, "b.pm", CHAIN2)
    code, out, err = run(capsys, "compose", left, right, "--op", "sq", "--at", "1")
    assert code == 0
    assert out == "3\nlabels: 1 2' 2\n1 0 0\n1 1 0\n1 1 1\n"


def test_compose_relabel_gives_default_labels(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN2)
    right = put(tmp_path, "b.pm", CHAIN2)
    code, out, err = run(
        capsys, "compose", left, right, "--op", "sq", "--at", "1", "--relabel"
    )
    assert code == 0
    assert out == "3\n1 0 0\n1 1 0\n1 1 1\n"


def test_compose_invalid_output_goes_to_stderr(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN4)
    right = put(tmp_path, "b.pm", CHAIN2)
    code, out, err = run(capsys, "compose", left, right, "--op", "up", "--at", "3")
    assert code == 1
    assert out.startswith("5\nlabels:")
    assert "invalid composition output:" in err
    assert "transitive: FAIL" in err


def test_compose_relabel_invalid_output_omits_default_labels(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN4)
    right = put(tmp_path, "b.pm", CHAIN2)
    code, out, err = run(
        capsys, "compose", left, right, "--op", "up", "--at", "3", "--relabel"
    )
    assert code == 1
    assert out.startswith("5\n1 0 0 0 0\n")
    assert "labels:" not in out
    masks = compose(chain(4), CompositionKind.TRI_UP, 3, chain(2)).masks
    assert parse_candidate(out) == (masks, None)
    assert "invalid composition output:" in err


def test_compose_position_out_of_range_is_usage(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN2)
    right = put(tmp_path, "b.pm", CHAIN2)
    code, out, err = run(capsys, "compose", left, right, "--op", "sq", "--at", "9")
    assert code == 2
    assert err.startswith("error:")


def test_eval_builtins(capsys):
    code, out, err = run(capsys, "eval", "C2 sq@2 C2")
    assert code == 0
    assert out == "3\nlabels: 1 1' 2\n1 0 0\n1 1 0\n1 1 1\n"


def test_eval_with_defs_directory(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "v.pm").write_text(VEE)
    code, out, err = run(capsys, "eval", "--defs", str(defs), "v sq@3 C2")
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_eval_star_takes_the_dual_of_a_defined_name(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "v.pm").write_text(VEE)
    code, out, err = run(capsys, "eval", "--defs", str(defs), "v* sq@1 C2")
    assert code == 0
    result = parse_matrix(out)
    # dual of the vee has a unique minimum, so position 1 is its bottom;
    # replacing it with a chain leaves two tops above a 2-chain
    assert result.rel == ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1))


def test_eval_defs_must_be_a_directory(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, "eval", "--defs", str(missing), "X sq@1 C2")
    assert code == 2
    assert out == ""
    assert err == f"error: --defs {missing}: not a directory\n"


def test_eval_names_the_def_file_that_fails_to_parse(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "X.pm").write_text("2\n1 0\n1 2\n")
    code, out, err = run(capsys, "eval", "X sq@1 Y", "--defs", str(defs))
    assert code == 2
    assert out == ""
    assert err == f"error: {defs / 'X.pm'}: line 3: entry '2' is not 0 or 1\n"


def test_eval_names_the_def_file_not_in_a_linear_extension(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "v.pm").write_text(VEE)
    (defs / "w.pm").write_text(UPPER_ENTRY)
    code, out, err = run(capsys, "eval", "v sq@3 w", "--defs", str(defs))
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {defs / 'w.pm'}: storage order is not a linear extension; "
        "apply normalize_linear_extension first\n"
    )


def test_eval_names_the_def_file_that_is_not_utf8(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "v.pm").write_text(VEE)
    (defs / "bad.pm").write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, "eval", "--defs", str(defs), "v sq@3 bad")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {defs / 'bad.pm'}: 'utf-8' codec can't decode byte 0xff")


def test_eval_reads_only_the_def_files_the_recipe_names(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "v.pm").write_text(VEE)
    (defs / "w.pm").write_text(UPPER_ENTRY)
    (defs / "X.pm").write_text("2\n1 0\n1 2\n")
    # w and X would fail to load, but the recipe names neither.
    code, out, err = run(capsys, "eval", "v sq@3 C2", "--defs", str(defs))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "4"
    # A file named like a generator shadows it.
    (defs / "C2.pm").write_text(VEE)
    code, out, err = run(capsys, "eval", "v sq@3 C2", "--defs", str(defs))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "5"


def test_eval_unknown_name_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "C2 sq@1 Zed")
    assert code == 2
    assert "Zed" in err


def test_eval_syntax_error_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "C2 sq@ C2")
    assert code == 2
    assert err.startswith("error:")


def test_eval_refuses_deep_nesting_before_composing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("composed a recipe that should have been refused")

    monkeypatch.setattr(posetmat.io, "compose", refuse)
    recipe = "C2 sq@1 (" * 1000 + "C2 sq@1 C2" + ")" * 1000
    code, out, err = run(capsys, "eval", recipe)
    assert code == 2
    assert out == ""
    assert err.startswith("error: recipe nests deeper than")
    assert len(err.splitlines()) == 1


def test_eval_invalid_top_level_result(tmp_path, capsys):
    defs = tmp_path / "defs"
    defs.mkdir()
    (defs / "g.pm").write_text(CHAIN4)
    code, out, err = run(capsys, "eval", "--defs", str(defs), "g up@3 C2")
    assert code == 1
    assert "invalid composition output:" in err


def test_canon_matches_the_library(tmp_path, capsys):
    text = "3\nlabels: p q r\n1 0 0\n0 1 0\n1 1 1\n"
    code, out, err = run(capsys, "canon", put(tmp_path, "m.pm", text))
    assert code == 0
    expected = canonical_form(
        PosetMatrix.from_rows(((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    ).render()
    assert out == expected + "\n"


def test_iso_true_for_relabellings(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN3)
    right = put(tmp_path, "b.pm", "3\nlabels: z q 9\n1 0 0\n1 1 0\n1 1 1\n")
    code, out, err = run(capsys, "iso", left, right)
    assert (code, out) == (0, "true\n")


def test_iso_false_across_classes(tmp_path, capsys):
    left = put(tmp_path, "a.pm", CHAIN3)
    right = put(tmp_path, "b.pm", VEE)
    code, out, err = run(capsys, "iso", left, right)
    assert (code, out) == (1, "false\n")


def test_iso_names_the_file_that_fails_to_parse(tmp_path, capsys):
    left = put(tmp_path, "v.pm", VEE)
    right = put(tmp_path, "bad.pm", "2\n1 0\n1 2\n")
    code, out, err = run(capsys, "iso", left, right)
    assert (code, out) == (2, "")
    assert err == f"error: {right}: line 3: entry '2' is not 0 or 1\n"


def test_validate_names_the_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "m.pm"
    path.write_bytes(b"\xff2\n1 0\n1 1\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def chain_file(tmp_path, n):
    """The n-chain as a matrix file, written without building it."""
    rows = "".join(" ".join("1" * (y + 1) + "0" * (n - 1 - y)) + "\n" for y in range(n))
    return put(tmp_path, f"chain{n}.pm", f"{n}\n{rows}")


@pytest.mark.parametrize("n", [500, 1100])
def test_canon_keys_a_long_chain(tmp_path, capsys, n):
    # The canonical search opens one node per element of a chain, on a stack.
    packed = 0
    for y in range(n):
        packed = packed << n | ((1 << y + 1) - 1) << (n - 1 - y)  # row y: columns 0..y
    code, out, err = run(capsys, "canon", chain_file(tmp_path, n))
    assert (code, out, err) == (0, CanonicalKey(n, packed).render() + "\n", "")


def test_iso_of_a_1100_chain_with_itself(tmp_path, capsys):
    path = chain_file(tmp_path, 1100)
    code, out, err = run(capsys, "iso", path, path)
    assert (code, out, err) == (0, "true\n", "")


def test_canon_keys_a_1100_antichain(tmp_path, capsys):
    # The antichain is one block of twins, so the search opens one node.
    n = 1100
    rows = "".join(" ".join("1" if z == y else "0" for z in range(n)) + "\n" for y in range(n))
    packed = 0
    for y in range(n):
        packed = packed << n | 1 << (n - 1 - y)  # row y: its diagonal only
    code, out, err = run(capsys, "canon", put(tmp_path, "antichain.pm", f"{n}\n{rows}"))
    assert (code, out, err) == (0, CanonicalKey(n, packed).render() + "\n", "")


def test_enumerate_oracle_counts(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "3")
    assert code == 0
    assert out == "oracle: 5 classes of order 3 (3 connected)\n"


def test_enumerate_connected_only(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "3", "--connected")
    assert code == 0
    assert out == "oracle: 3 classes of order 3\n"


def test_enumerate_compose_method(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "3", "--method", "compose")
    assert code == 0
    assert out == "compose: 5 classes of order 3 (3 connected)\n"


def test_enumerate_both_methods_agree(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "4", "--method", "both")
    assert code == 0
    assert "methods agree" in out


def test_enumerate_both_connected_lists_what_compose_misses(capsys):
    code, out, err = run(
        capsys, "enumerate", "--order", "6", "--method", "both", "--connected"
    )
    assert code == 1
    assert out == (
        "oracle: 238 classes of order 6\n"
        "compose: 235 classes of order 6 [62 invalid outputs dropped]\n"
        "missing from compose: 6:81021cab1\n"
        "missing from compose: 6:810624db9\n"
        "missing from compose: 6:810634ebd\n"
    )


def test_enumerate_emit_writes_a_catalog(tmp_path, capsys):
    target = tmp_path / "cat"
    code, out, err = run(
        capsys, "enumerate", "--order", "3", "--emit", str(target)
    )
    assert code == 0
    assert f"catalog written to {target}" in out
    index = (target / "index.tsv").read_text().splitlines()
    assert len(index) == 5
    for line in index:
        key, flag, recipe, filename = line.split("\t")
        assert flag in ("connected", "disconnected")
        assert (target / filename).exists()


def test_count_with_expectations(capsys):
    code, out, err = run(capsys, "count", "--max-order", "4", "--expect")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["order", "method", "total", "connected", "expected", "match"]
    assert lines[-1].split() == ["4", "oracle", "16", "10", "16/10", "yes"]
    assert all(line.split()[-1] == "yes" for line in lines[1:])


def test_count_without_expectations(capsys):
    code, out, err = run(capsys, "count", "--max-order", "3")
    assert code == 0
    assert "expected" not in out
    assert out.splitlines()[-1].split() == ["3", "oracle", "5", "3"]


def test_count_beyond_the_oracle_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "count", "--max-order", "9", "--expect")
    assert code == 2
    assert out == ""
    assert "order must be 1..8" in err


@pytest.mark.parametrize("method", ["compose", "both"])
def test_count_order_one_refuses_the_closure(capsys, method):
    code, out, err = run(capsys, "count", "--max-order", "1", "--method", method, "--expect")
    assert code == 2
    assert out == ""
    assert err == "error: closure order must be 2..8, got 1\n"


def test_count_order_one_prints_the_oracle_row(capsys):
    code, out, err = run(capsys, "count", "--max-order", "1", "--expect")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["    1  oracle        1          1         1/1  yes"]


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run(capsys, "count", "--max-order", "3", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"error: workers must be at least 1, got {workers}\n"


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path / "nope.pm"))
    assert code == 2
    assert err.startswith("error:")


def test_garbled_matrix_is_usage_error(tmp_path, capsys):
    path = put(tmp_path, "m.pm", "what\n")
    code, out, err = run(capsys, "canon", path)
    assert code == 2
    assert err.startswith(f"error: {path}: line 1")


def test_axiom_failure_on_load_is_domain_error(tmp_path, capsys):
    path = put(tmp_path, "m.pm", NOT_TRANSITIVE)
    code, out, err = run(capsys, "canon", path)
    assert code == 1
    assert err.startswith(f"error: {path}: ")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_argument_is_usage_error(capsys):
    assert main(["compose", "a.pm", "b.pm"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "compose" in out and "enumerate" in out


@pytest.mark.parametrize("op", ["sq", "up", "dn"])
def test_every_operation_is_reachable(tmp_path, capsys, op):
    left = put(tmp_path, "a.pm", CHAIN2)
    right = put(tmp_path, "b.pm", CHAIN2)
    code, out, err = run(capsys, "compose", left, right, "--op", op, "--at", "2")
    assert code == 0
    assert out.splitlines()[0] == "3"
