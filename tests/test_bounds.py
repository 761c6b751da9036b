from fractions import Fraction

import pytest

from latintrav import classify
from latintrav.bounds import (
    PartialReport,
    _off_max_rows,
    bound_sets,
    check_sets_only,
    lower_bound,
    lower_bound_formula,
    verify_bound,
)
from latintrav.cli import main
from latintrav.delta import delta
from latintrav.core import DomainError
from latintrav.engine import ClassificationReport
from latintrav.families import build_family, claimed_pinned_entries, family_k

ALL_ORDERS = [("T", n) for n in range(12, 101, 6)] + \
             [("U", n) for n in range(14, 101, 6)] + \
             [("V", n) for n in range(10, 101, 6)]


def test_formula_values():
    assert lower_bound_formula("V", 10) == 27
    assert lower_bound_formula("T", 12) == 60
    assert lower_bound_formula("U", 14) == 70
    assert lower_bound_formula("V", 16) == 95
    # half-integral cases round up to the printed integer bound
    assert lower_bound_formula("T", 18) == Fraction(293, 2)
    assert lower_bound("T", 18) == 147
    assert lower_bound_formula("U", 20) == Fraction(331, 2)
    assert lower_bound("U", 20) == 166
    assert lower_bound("V", 22) == 201
    assert lower_bound("T", 24) == 271


@pytest.mark.parametrize("call", [lambda: family_k("L", 9), lambda: lower_bound("L", 9),
                                  lambda: check_sets_only("EX6", 6)],
                         ids=["family_k", "lower_bound", "check_sets_only"])
def test_families_without_a_bound_are_domain_errors(call):
    with pytest.raises(DomainError, match="T, U and V, got '(L|EX6)'"):
        call()


def test_bound_sets_T12():
    sets = bound_sets("T", 12)
    assert sets.columns == {0, 1}
    assert sets.symbols == {3, 4}
    assert len(sets.N) == len(sets.O) == 2 * 11
    assert len(sets.M) == 22
    assert sets.union_size >= sets.formula_value


def test_bound_sets_T18_sizes():
    sets = bound_sets("T", 18)
    assert len(sets.N) == len(sets.O) == 3 * 17 == 51


@pytest.mark.parametrize("family,n", ALL_ORDERS)
def test_set_sizes_match_closed_forms(family, n):
    k = n // 6
    sets = bound_sets(family, n)
    assert len(sets.N) == len(sets.O) == k * (n - 1)
    m_size = {"T": 2 * n * k - 2 * n - 2,
              "V": 2 * k * n - n - 1,
              "U": 2 * k * n - 2 * n - 2}[family]
    assert len(sets.M) == m_size
    # C and S are exactly the forced cells' column and symbol sets
    assert sets.columns == {e.col for e in sets.pinned}
    assert sets.symbols == {e.sym for e in sets.pinned}


@pytest.mark.parametrize("family,n", ALL_ORDERS)
def test_union_beats_formula(family, n):
    check = check_sets_only(family, n)
    assert check.size_ok
    assert check.union_size >= check.formula_value
    assert check.subset_ok is None


@pytest.mark.parametrize("family,n", [("V", 10), ("T", 12), ("U", 14), ("V", 16)])
def test_union_is_transversal_free(family, n):
    report = classify(build_family(family, n))
    check = verify_bound(family, n, report)
    assert check.subset_ok
    assert check.size_ok
    assert check.tau_ok
    assert check.formula_value <= check.tau < n * n


def test_verify_bound_examples():
    report = classify(build_family("T", 12))
    check = verify_bound("T", 12, report)
    assert check.tau == 67 and check.formula_value == 60
    report = classify(build_family("U", 14))
    check = verify_bound("U", 14, report)
    assert check.tau == 88 and check.formula_value == 70


def test_verify_bound_rejects_partial_report():
    real = classify(build_family("V", 10))
    fake = ClassificationReport(
        order=real.order, family=real.family, status=real.status, tau=real.tau,
        pinned=real.pinned, has_transversal=real.has_transversal,
        transversal_count=None, witnesses={}, partial=True, nodes=0)
    with pytest.raises(PartialReport):
        verify_bound("V", 10, fake)


def test_bound_check_json_shape():
    report = classify(build_family("V", 10))
    data = verify_bound("V", 10, report).to_json_dict()
    assert set(data) == {"family", "n", "unionSize", "formulaValue", "subsetOK", "tau"}
    assert data["formulaValue"] == 27
    assert data["tau"] == 34


def test_members_of_union_fail_required_search():
    from latintrav import find

    sq = build_family("V", 10)
    sets = bound_sets("V", 10)
    for e in sorted(sets.union)[:25]:
        assert find(sq, required=(e,)) is None


@pytest.mark.long
def test_union_beats_formula_cap_sweep():
    # set arithmetic only, across the construction range plus spot checks at
    # the configured cap
    orders = [("T", n) for n in range(102, 301, 6)] + \
             [("U", n) for n in range(104, 301, 6)] + \
             [("V", n) for n in range(106, 301, 6)] + \
             [("T", 600), ("U", 596), ("V", 598)]
    for family, n in orders:
        check = check_sets_only(family, n)
        assert check.size_ok


# Union sizes at the largest order <= 300 of each family, as the per-entry set
# code gave them before the union became a mask.
LARGE_UNIONS = {("T", 300): 47076, ("U", 296): 45637, ("V", 298): 46155}


# Forced cells F as (row, col, sym) and the designated rows of P, Q and R as
# row -> required delta, written out from the paper's definitions.
PINNED_SETS = {
    ("T", 18): ([(1, 0, 3), (2, 1, 4), (5, 12, 0)], {1: 2, 4: 2, 2: 1, 5: 1, 6: 0}),
    ("U", 20): ([(1, 3, 5), (3, 4, 8), (6, 14, 1)], {5: 2, 1: 1, 3: 1, 6: 1, 7: 0}),
    ("V", 16): ([(1, 0, 3), (5, 10, 0)], {1: 2, 4: 2, 5: 1, 6: 0}),
}


def _module_sets(family, n):
    pinned = [(e.row, e.col, e.sym) for e in claimed_pinned_entries(family, n)]
    return pinned, {r: d for rows in _off_max_rows(family, n // 6) for r, d in rows}


def _union_by_cell(family, n, pinned, required):
    """The union cell by cell from the given F and designated rows: a forced
    cell's column or symbol, or a designated row whose delta differs from the
    row's required delta; minus the forced cells."""
    cols = {c for _, c, _ in pinned}
    syms = {s for _, _, s in pinned}
    forced = {(r, c) for r, c, _ in pinned}
    grid = build_family(family, n).grid
    return {(r, c) for r in range(n) for c in range(n)
            if (c in cols or grid[r][c] in syms
                or (r in required and delta((r, c, grid[r][c]), n) != required[r]))
            and (r, c) not in forced}


@pytest.mark.parametrize("family,n", list(PINNED_SETS))
def test_union_matches_pinned_sets(family, n):
    pinned, required = PINNED_SETS[(family, n)]
    assert _module_sets(family, n) == (pinned, required)
    expected = _union_by_cell(family, n, pinned, required)
    assert {(e.row, e.col) for e in bound_sets(family, n).union} == expected
    assert check_sets_only(family, n).union_size == len(expected)


@pytest.mark.parametrize("family,n", ALL_ORDERS + list(LARGE_UNIONS))
def test_union_matches_cell_predicate(family, n):
    """The mask arithmetic against the cell predicate; F and the designated
    rows come from the module here and are pinned in test_union_matches_pinned_sets."""
    expected = _union_by_cell(family, n, *_module_sets(family, n))
    sets = bound_sets(family, n)
    assert {(e.row, e.col) for e in sets.union} == expected
    assert check_sets_only(family, n).union_size == len(expected)


@pytest.mark.parametrize("family,n", list(LARGE_UNIONS))
def test_large_union_sizes_and_cli_bytes(family, n, capsys):
    size = LARGE_UNIONS[(family, n)]
    assert check_sets_only(family, n).union_size == size
    value = lower_bound_formula(family, n)
    shown = int(value) if value.denominator == 1 else float(value)
    assert main(["bounds", "--family", family, "--order", str(n),
                 "--sets-only", "--no-meta"]) == 0
    assert capsys.readouterr().out == (
        "{\n"
        f'  "family": "{family}",\n'
        f'  "formulaValue": {shown},\n'
        f'  "n": {n},\n'
        '  "subsetOK": null,\n'
        '  "tau": null,\n'
        f'  "unionSize": {size}\n'
        "}\n")
