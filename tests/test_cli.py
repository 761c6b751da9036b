import argparse
import json
import re

import pytest

from latintrav import _kernel, engine
from latintrav.cli import build_parser, main
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


def test_classify_no_meta_is_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--family", "V", "--order", "10", "--no-meta")
    _, out2, _ = run(capsys, "classify", "--family", "V", "--order", "10", "--no-meta")
    assert out1 == out2
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
    code, _, _ = run(capsys, "table1", "--max-order", "11")
    assert code == 2


def test_budget_exhaustion_exit_3(capsys):
    code, _, err = run(capsys, "classify", "--family", "V", "--order", "10",
                       "--budget", "5")
    assert code == 3
    code, out, err = run(capsys, "pinned", "--family", "T", "--order", "12",
                         "--budget", "10")
    assert (code, out) == (3, "")
    assert "node budget exceeded" in err


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
    def no_enumeration(*args, **kwargs):
        raise AssertionError("table1 and bounds need no full enumeration")

    monkeypatch.setattr(engine, "_count", no_enumeration)  # under count_and_cover and classify
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


def test_jobs_only_where_work_is_spread(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["blocks", "--m", "3", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    code, _, _ = run(capsys, "classify", "--family", "EX6", "--jobs", "1", "--no-meta")
    assert code == 0
    code, _, err = run(capsys, "classify", "--family", "EX6", "--jobs", "0", "--no-meta")
    assert code == 2 and "jobs must be at least 1" in err


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
