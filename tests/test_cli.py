import argparse
import hashlib
import json
import re

import pytest

from latintrav import _kernel, engine
from latintrav.cli import DEFAULT_BUDGET, build_parser, main
from latintrav.core import KNOWN_FAMILIES, DomainError
from latintrav.families import FAMILIES, build_family, claimed_pinned_entries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_writes_text_grid(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--family", "T", "--order", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "12"
    assert len(lines) == 13
    path = tmp_path / "t12.txt"
    code, _, _ = run(capsys, "construct", "--family", "T", "--order", "12",
                     "-o", str(path))
    assert code == 0
    assert path.read_text().startswith("12\n")


def test_construct_L_by_m(capsys):
    code, out, _ = run(capsys, "construct", "--family", "L", "--m", "3")
    assert code == 0
    assert out.startswith("9\n")


def test_construct_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "construct", "--family", "T", "--order", "13")
    assert code == 2
    assert "error" in err


def test_classify_exceptional_6(capsys):
    code, out, _ = run(capsys, "classify", "--family", "EX6", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 16
    assert data["hasTransversal"] is True


def test_classify_cayley_6(capsys):
    code, out, _ = run(capsys, "classify", "--family", "CAYLEY", "--order", "6",
                       "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 36
    assert data["hasTransversal"] is False


def test_classify_square_file(capsys, tmp_path):
    path = tmp_path / "v10.txt"
    run(capsys, "construct", "--family", "V", "--order", "10", "-o", str(path))
    code, out, _ = run(capsys, "classify", str(path), "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 34
    assert data["pinned"] == [[1, 0, 3]]


def test_classify_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n0 1\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "column" in err


def test_classify_non_plain_integer_exit_2(capsys, tmp_path):
    """'0_0' is not read as 0: int() took it, so this file classified with exit 0."""
    path = tmp_path / "underscore.txt"
    path.write_text("2\n0 1\n1 0_0\n")
    code, out, err = run(capsys, "classify", str(path), "--no-meta")
    assert (code, out) == (2, "")
    assert "line 3, column 3: not an integer: '0_0'" in err


T12_FIND = ["transversal", "find", "--family", "T", "--order", "12"]


@pytest.mark.parametrize("argv, message", [
    (["transversal", "find", "--family", "T", "--order", "1_2"],
     "argument --order: not a plain integer: '1_2'"),
    (["classify", "--family", "V", "--order", "\u0661\u0660"],
     "argument --order: not a plain integer: '\u0661\u0660'"),
    (["classify", "--family", "V", "--order", "10", "--budget", "1_0"],
     "argument --budget: not a plain integer: '1_0'"),
    (["construct", "--family", "L", "--m", "+3"], "argument --m: not a plain integer: '+3'"),
    (["blocks", "--m", "\uff13"], "argument --m: not a plain integer: '\uff13'"),
    (["table1", "--max-order", "1e1"], "argument --max-order: not a plain integer: '1e1'"),
    ([*T12_FIND, "--require", "+1,0,3"], "expected R,C,S as integers, got '+1,0,3'"),
    ([*T12_FIND, "--require", "1,0_0,3"], "expected R,C,S as integers, got '1,0_0,3'"),
    ([*T12_FIND, "--require", "1,0,\u0663"], "expected R,C,S as integers, got '1,0,\u0663'"),
    ([*T12_FIND, "--forbid", " 1,0"], "expected R,C as integers, got ' 1,0'"),
], ids=["order-underscore", "order-arabic-indic", "budget-underscore", "m-plus", "m-fullwidth",
        "max-order-exponent", "require-plus", "require-underscore", "require-arabic-indic",
        "forbid-space"])
def test_integer_options_take_only_plain_integers(capsys, argv, message):
    """int() took each of these ('1_2' as 12, '+1' as 1, '\u0663' as 3), and the command ran."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an option value
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert message in out.err


@pytest.mark.parametrize("command", [["classify"], ["transversal", "count"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("options", [["--family", "T", "--order", "12"], ["--order", "12"],
                                     ["--m", "3"]], ids=["family", "order", "m"])
def test_square_file_with_family_options_exit_2(capsys, tmp_path, command, options):
    """A square file with --family, --order or --m is refused, not classified in their place."""
    path = tmp_path / "v10.txt"
    run(capsys, "construct", "--family", "V", "--order", "10", "-o", str(path))
    code, out, err = run(capsys, *command, str(path), *options, "--no-meta")
    assert (code, out) == (2, "")
    assert "a square file takes no --family, --order or --m" in err


def test_pinned_requires_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pinned", "--order", "12"])
    assert exc.value.code == 2
    assert "the following arguments are required: --family" in capsys.readouterr().err


def test_classify_no_meta_is_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--family", "V", "--order", "10", "--no-meta")
    _, out2, _ = run(capsys, "classify", "--family", "V", "--order", "10", "--no-meta")
    assert out1 == out2
    assert set(json.loads(out1)) == {"family", "freeCells", "hasTransversal", "order",
                                     "pinned", "tau"}
    _, with_meta, _ = run(capsys, "classify", "--family", "V", "--order", "10")
    assert "meta" in json.loads(with_meta)


def test_transversal_find_and_count(capsys):
    code, out, _ = run(capsys, "transversal", "find", "--family", "T",
                       "--order", "12", "--no-meta")
    assert code == 0
    assert json.loads(out)["found"] is True
    code, out, _ = run(capsys, "transversal", "count", "--family", "CAYLEY",
                       "--order", "3", "--no-meta")
    assert json.loads(out)["count"] == 3


@pytest.mark.skipif(_kernel.load() is None, reason="no C compiler")
def test_suitable_diagonals_on_the_kernel(capsys):
    """EX8's 4,872 suitable diagonals and the first of them, which a raw scan of all 8!
    permutations confirms; a walk that tested symbols here would find fewer."""
    code, out, _ = run(capsys, "transversal", "count", "--family", "EX8", "--mode", "suitable",
                       "--format", "text")
    assert (code, out) == (0, "4872\n")
    code, out, _ = run(capsys, "transversal", "find", "--family", "EX8", "--mode", "suitable",
                       "--format", "text")
    assert (code, out) == (0, "[0, 1, 2, 3, 5, 4, 7, 6]\n")


def test_transversal_constraints_flags(capsys):
    code, out, _ = run(capsys, "transversal", "find", "--family", "T", "--order", "12",
                       "--require", "1,0,3", "--no-meta")
    data = json.loads(out)
    assert data["found"] and data["cols"][1] == 0
    code, out, _ = run(capsys, "transversal", "find", "--family", "T", "--order", "12",
                       "--forbid", "1,0", "--no-meta")
    assert json.loads(out)["found"] is False


@pytest.mark.parametrize("spec", [["--forbid", "6,0"], ["--forbid=-1,-1"]])
def test_forbidden_cell_outside_the_square_exits_2(capsys, spec):
    code, out, err = run(capsys, "transversal", "find", "--family", "EX6", *spec, "--no-meta")
    assert code == 2
    assert out == ""
    assert "forbidden cell" in err and "outside the square" in err


def test_transversal_disjoint_pair(capsys):
    code, out, _ = run(capsys, "transversal", "disjoint-pair", "--family", "CAYLEY",
                       "--order", "5", "--no-meta")
    assert code == 0
    assert json.loads(out)["found"] is True


@pytest.mark.parametrize("flag", [["--mode", "suitable"], ["--mode", "transversal"],
                                  ["--require", "0,0,0"], ["--forbid", "0,1"]])
def test_disjoint_pair_rejects_search_options(capsys, flag):
    """disjoint-pair searches unconstrained transversals; it refuses, not drops, the options
    that `find` and `count` honour (``--mode suitable`` on odd CAYLEY5 is OddOrder there)."""
    code, out, err = run(capsys, "transversal", "disjoint-pair", "--family", "CAYLEY",
                         "--order", "5", *flag, "--no-meta")
    assert (code, out) == (2, "")
    assert "disjoint-pair takes no --mode, --require or --forbid" in err
    code, _, err = run(capsys, "transversal", "find", "--family", "CAYLEY", "--order", "5",
                       "--mode", "suitable")
    assert code == 2 and "even order" in err


@pytest.mark.parametrize("flag, expected", [
    (["--require", "0,0"], "R,C,S"), (["--require", "0,0,0,0"], "R,C,S"),
    (["--require", "0,x,0"], "R,C,S"), (["--forbid", "1"], "R,C"), (["--forbid", "1,2,3"], "R,C"),
    (["--forbid", "1.0,2"], "R,C"),
])
def test_malformed_constraint_spec_exits_2(capsys, flag, expected):
    code, out, err = run(capsys, "transversal", "find", "--family", "EX6", *flag, "--no-meta")
    assert (code, out) == (2, "")
    assert f"expected {expected} as integers, got {flag[1]!r}" in err


@pytest.mark.parametrize("text", [
    '{"order": 3, "grid": [[0, 1, 2], [1, 2, 0], [2, 0, 1.2]]}',
    '{"order": 3, "grid": [[0, 1, 2.9], [1, 2, 0], [2, 0, 1]]}',
    '{"order": 2, "grid": [["0", "1"], ["1", "0"]]}',
    '{"order": 2, "grid": [[false, true], [true, false]]}',
    '{"order": 2, "grid": [[0, 9223372036854775808], [1, 0]]}',
    '{"order": "2", "grid": [[0, 1], [1, 0]]}',
    '{"order": 2.0, "grid": [[0, 1], [1, 0]]}',
    "2\n0 9223372036854775808\n1 0\n",
    "2\n0 -9223372036854775809\n1 0\n",
], ids=["json-float", "json-float-2.9", "json-str", "json-bool", "json-2^63",
        "json-order-str", "json-order-float", "text-2^63", "text-below-int64"])
def test_non_integral_square_file_exits_2(capsys, tmp_path, text):
    """A square file whose values or order are not integers, or do not fit in int64, is an
    input error with a message, never a classified square or a traceback."""
    path = tmp_path / "square"
    path.write_text(text)
    code, out, err = run(capsys, "classify", str(path), "--no-meta")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and ("integer" in err or "outside" in err)


@pytest.mark.parametrize("family,n", [("T", 12), ("U", 14), ("V", 16)])
def test_pinned_entries_are_the_certified_cells(capsys, family, n):
    code, out, _ = run(capsys, "pinned", "--family", family, "--order", str(n), "--no-meta")
    assert code == 0
    assert json.loads(out)["entries"] == [
        {"entry": list(e.as_tuple()), "pinned": True}
        for e in claimed_pinned_entries(family, n)]


def test_pinned_command(capsys):
    code, out, _ = run(capsys, "pinned", "--family", "T", "--order", "12", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["valid"] is True
    assert data["floor"] == 2
    assert [e["entry"] for e in data["entries"]] == [[1, 0, 3], [2, 1, 4]]
    assert all(e["pinned"] for e in data["entries"])


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "U", "--order", "14", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["subsetOK"] is True
    assert data["tau"] == 88
    assert data["formulaValue"] == 70
    assert data["unionSize"] >= 70


def test_bounds_sets_only(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "T", "--order", "96",
                       "--sets-only", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["subsetOK"] is None
    assert data["unionSize"] >= data["formulaValue"]


def test_blocks_command(capsys):
    code, out, _ = run(capsys, "blocks", "--m", "3", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["block22OK"] and data["block11OK"]


def test_table1_fast(capsys):
    code, out, _ = run(capsys, "table1", "--max-order", "12", "--no-meta")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0] == {"label": "V10", "order": 10, "family": "V",
                       "lowerBound": 27, "tau": 34}
    assert rows[1]["label"] == "T12" and rows[1]["tau"] == 67


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--family", "EX6", "--format", "text")
    assert code == 0
    assert "tau 16" in out


def test_table1_text_format(capsys):
    code, out, _ = run(capsys, "table1", "--max-order", "10", "--format", "text")
    assert code == 0
    assert "V10" in out and "27" in out and "34" in out


def test_table1_runs_every_order_to_24(capsys):
    code, out, _ = run(capsys, "table1", "--max-order", "24", "--no-meta")
    assert code == 0
    assert [r["tau"] for r in json.loads(out)["rows"]] == [34, 67, 88, 107, 159, 190, 217, 287]


def test_table1_rejects_bad_order(capsys):
    for order in ("11", "34"):
        code, _, err = run(capsys, "table1", "--max-order", order)
        assert code == 2
        assert f"--max-order must be even in 10..32, got {order}" in err


def test_budget_exhaustion_exit_3(capsys):
    code, _, err = run(capsys, "classify", "--family", "V", "--order", "10",
                       "--budget", "5")
    assert code == 3
    # T12's existence comes from its witness and its avoiding searches take 0
    # nodes; U14's take 257 and 266.
    code, out, err = run(capsys, "pinned", "--family", "U", "--order", "14",
                         "--budget", "10")
    assert (code, out) == (3, "")
    assert "node budget exceeded" in err


def test_budgeted_classify_without_a_witness_does_not_say_no(capsys):
    """V10 has 272 transversals, but no search finds one at budget 5: the partial report
    says null (text: None) for hasTransversal, not false."""
    argv = ("classify", "--family", "V", "--order", "10", "--budget", "5", "--no-meta")
    code, out, _ = run(capsys, *argv)
    data = json.loads(out)
    assert (code, data["partial"], data["hasTransversal"]) == (3, True, None)
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 3 and "hasTransversal None" in out


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_count_budget_boundary(capsys, monkeypatch, threads):
    """V10's enumeration takes 32,250 nodes: one fewer is exit 3, that many is the count.

    It splits across 2 and 3 kernel threads, so this pins the threads' shared
    node count at the exact budget through the CLI."""
    monkeypatch.setattr(_kernel, "cpu_count", lambda: threads)
    argv = ("transversal", "count", "--family", "V", "--order", "10", "--no-meta")
    code, out, err = run(capsys, *argv, "--budget", "32249")
    assert (code, out) == (3, "")
    assert "node budget exceeded after 32250 nodes" in err
    code, out, _ = run(capsys, *argv, "--budget", "32250")
    assert code == 0
    assert json.loads(out)["count"] == 272


@pytest.mark.parametrize("argv", [
    ("classify", "--family", "V", "--order", "10"),
    ("transversal", "find", "--family", "V", "--order", "10"),
    ("transversal", "count", "--family", "V", "--order", "10"),
    ("transversal", "enumerate", "--family", "CAYLEY", "--order", "5"),
    ("transversal", "disjoint-pair", "--family", "CAYLEY", "--order", "5"),
    ("pinned", "--family", "U", "--order", "14"),  # T12's avoiding searches take 0 nodes
    ("bounds", "--family", "U", "--order", "14"),
    ("blocks", "--m", "3"),
    ("table1", "--max-order", "12"),
], ids=["classify", "find", "count", "enumerate", "disjoint-pair", "pinned", "bounds", "blocks",
        "table1"])
def test_negative_budget_exits_2(capsys, argv):
    """A negative budget is an input error, not "no budget"; 0 stops at the first node."""
    code, out, err = run(capsys, *argv, "--budget", "-1", "--no-meta")
    assert (code, out) == (2, "")
    assert "node budget must be at least 0, got -1" in err
    code, _, _ = run(capsys, *argv, "--budget", "0", "--no-meta")
    assert code == 3


@pytest.mark.parametrize("argv, budget", [
    (["construct", "--family", "T", "--order", "12"], "none"),
    (["classify", "--family", "V", "--order", "10"], DEFAULT_BUDGET),
    (["transversal", "find", "--family", "V", "--order", "10"], None),
    (["pinned", "--family", "V", "--order", "10"], None),
    (["bounds", "--family", "V", "--order", "10"], DEFAULT_BUDGET),
    (["blocks", "--m", "3"], DEFAULT_BUDGET),
    (["table1"], DEFAULT_BUDGET),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_default_budget_per_subcommand(argv, budget):
    """The classifying subcommands default to `DEFAULT_BUDGET`, a search subcommand to no
    budget, and construct, which runs no search, has no --budget."""
    assert getattr(build_parser().parse_args(argv), "budget", "none") == budget


def test_negative_budget_exits_2_with_sets_only(capsys):
    """--sets-only runs no search, yet a negative budget is still an input error."""
    code, out, err = run(capsys, "bounds", "--family", "T", "--order", "12", "--sets-only",
                         "--budget", "-1", "--no-meta")
    assert (code, out) == (2, "")
    assert "node budget must be at least 0, got -1" in err


@pytest.mark.parametrize("argv, message", [
    (("classify", "--family", "L", "--order", "9", "--m", "5", "--no-meta"),
     "family L with m = 5 has order 15, got 9"),
    (("construct", "--family", "T", "--order", "12", "--m", "3"),
     "--m applies to family L only, got family T"),
    (("pinned", "--family", "U", "--order", "14", "--m", "3", "--no-meta"),
     "--m applies to family L only, got family U"),
], ids=["classify-L", "construct-T", "pinned-U"])
def test_conflicting_order_and_m_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_bounds_budget_falls_back_to_sets_only(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "T", "--order", "12",
                       "--budget", "10", "--no-meta")
    assert code == 3
    data = json.loads(out)
    assert data["subsetOK"] is None
    _, sets_only, _ = run(capsys, "bounds", "--family", "T", "--order", "12",
                          "--sets-only", "--no-meta")
    assert out == sets_only


def test_table1_and_bounds_classify_per_cell(capsys, monkeypatch):
    real_run = engine._run

    def no_enumeration(*args, enumerate_all, **kwargs):
        assert not enumerate_all, "classify, table1 and bounds need no full enumeration"
        return real_run(*args, enumerate_all=enumerate_all, **kwargs)

    monkeypatch.setattr(engine, "_run", no_enumeration)  # under every search
    code, out, _ = run(capsys, "classify", "--family", "V", "--order", "10", "--no-meta")
    assert code == 0
    assert json.loads(out)["tau"] == 34 and "counts" not in json.loads(out)
    code, out, _ = run(capsys, "table1", "--max-order", "12", "--no-meta")
    assert code == 0
    assert [(r["label"], r["tau"]) for r in json.loads(out)["rows"]] == [("V10", 34), ("T12", 67)]
    code, out, _ = run(capsys, "bounds", "--family", "U", "--order", "14", "--no-meta")
    assert code == 0
    assert json.loads(out)["tau"] == 88
    code, out, _ = run(capsys, "bounds", "--family", "T", "--order", "12", "--budget", "10",
                       "--no-meta")
    assert code == 3
    assert json.loads(out)["subsetOK"] is None


def test_parser_is_built_once_and_parses_afresh(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "classify", "--family", "EX6", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert "meta" not in data and data["tau"] == 16
    code, out, _ = run(capsys, "table1", "--max-order", "10")
    assert code == 0
    data = json.loads(out)
    assert data["meta"]["tool"] == "latintrav"
    assert [r["tau"] for r in data["rows"]] == [34]


@pytest.mark.parametrize("argv", [
    ["classify", "--family", "EX6"],
    ["bounds", "--family", "T", "--order", "12"],
    ["table1", "--max-order", "10"],
    ["blocks", "--m", "3"],
    ["pinned", "--family", "T", "--order", "12"],
    ["transversal", "find", "--family", "EX6"],
    ["construct", "--family", "EX6"],
], ids=lambda argv: argv[0])
def test_no_command_takes_jobs(capsys, argv):
    """The kernel alone decides its thread count; ``taskset`` narrows it."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_one_family_list():
    assert FAMILIES == tuple(f for f in KNOWN_FAMILIES if f != "CUSTOM")
    assert "CAYLEY" in FAMILIES
    with pytest.raises(DomainError, match=re.escape(str(FAMILIES))):
        build_family("X", 6)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("construct", "classify"):
        family = next(a for a in sub.choices[command]._actions if a.dest == "family")
        assert family.choices == FAMILIES


# sha256 of each command's --no-meta stdout: the verdicts and the exact bytes the
# command prints, which a refactor of the package must leave unchanged.
NO_META_DIGESTS = {
    "classify --family T --order 24":
        "98f96c1408ec97f58dea4078097f71fd398ce88d8b736e96863b25ce8d0a2564",
    "classify --family V --order 16":
        "455d59dd1027c44095cfc458b56a7169c61250a6d3fb7c91afda681e262979bb",
    "table1 --max-order 16":
        "0fda58a33950c18e2a110c0c1a666e5c30a41c40f2af3a9ba4958690239cfccc",
    "pinned --family T --order 12":
        "41dc9668454c95c8c16ae6e1df9d1c3e2e7e44693da71a2d3adc6b3049ffe5b7",
    "transversal count --family V --order 16":
        "150ac12ae3e7261da7010c8c628f4071cd223e97551b1abc36b0764d03033d8f",
    "transversal count --family EX8 --mode suitable":
        "764f3c677e56e6b1bfbb475704d310539f5a3f3896e13073af404b1b92222b7e",
    "blocks --m 3":
        "1208a172eea2ec0191b67dda394f3a30ebf5e5ddd7be7b6e2f9be263162b6a6a",
    "bounds --family U --order 14":
        "1b32c3ad93fca1a6b35f6105a2617d8f3c886ed808743ec89ea3b98247f5c4b9",
}


def test_no_meta_output_bytes_are_pinned(capsys):
    digests = {}
    for command in NO_META_DIGESTS:
        code, out, _ = run(capsys, *command.split(), "--no-meta")
        assert code == 0, command
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == NO_META_DIGESTS
