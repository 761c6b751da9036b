import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from latintrav import (
    DomainError,
    LatinSquare,
    bounds,
    cayley_table,
    claimed_pinned_entries,
    families,
    is_transversal,
    witness_transversal,
)
from latintrav.blocks import verify_hit_theorem
from latintrav.cli import main
from latintrav.families import (
    build_exceptional,
    build_family,
    build_L,
    build_T,
    build_U,
    build_V,
    claimed_free_cells,
    family_of_order,
)

# Orders sampled across each family's domain for the slower sweeps.
T_ORDERS = [12, 18, 24, 30, 60, 120, 300]
U_ORDERS = [14, 20, 26, 32, 62, 122, 296]
V_ORDERS = [10, 16, 22, 28, 58, 118, 298]
L_MS = [3, 5, 7, 9, 15, 21, 45, 99]


# Reference builders: each case as a dense n x n mask over the whole grid, the
# first match winning, as the family squares were first written down.
def _ref_cells(n, coords):
    mask = np.zeros((n, n), dtype=bool)
    for r, c in coords:
        mask[r, c] = True
    return mask


def _ref_first_match(n, conds, offsets):
    conds = [np.broadcast_to(cond, (n, n)) for cond in conds]
    assert (sum(cond.astype(np.int64) for cond in conds) <= 1).all()
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    return (a + b + np.select(conds, offsets, default=0)) % n


def _ref_T(n):
    k = n // 6
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    mid = (a >= 4) & (a <= 3 * k - 3)
    conds = [
        _ref_cells(n, [(0, 2), (1, 0)]),
        _ref_cells(n, [(0, 1), (2, 1)]),
        _ref_cells(n, [(1, 1), (1, 2), (2, 2), (3, 1)]),
        _ref_cells(n, [(3, 0)]),
        (b > 1) & (b % 3 == 1) & (a == 0),
        (b > 1) & (b % 3 == 1) & (a == 3),
        mid & (a % 3 == 0) & (b % 2 == 0),
        mid & (a % 3 == 1) & (b % 2 == 0) & (b != (n - 2 * a + 2) % n),
        mid & (a % 3 == 1) & ((b == (n - 2 * a + 3) % n) | (b == (n - 2 * a + 2) % n)),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 4) % n),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 5) % n),
    ]
    return _ref_first_match(n, conds, [2, 1, -1, -2, 3, -3, -2, 2, 1, 1, -1])


def _ref_U(n):
    k = (n - 2) // 6
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    mid = (a >= 5) & (a <= 3 * k - 2)
    conds = [
        _ref_cells(n, [(1, 3), (2, 5), (3, 4)]),
        _ref_cells(n, [(1, 4), (2, 4), (3, 5), (4, 3), (4, 4)]),
        _ref_cells(n, [(0, 4), (2, 3)]),
        (b != 4) & (b % 2 == 0) & (a == 2),
        ((b > 3) & (b % 3 == 0) & (a == 0)) | _ref_cells(n, [(0, 1)]),
        ((b > 3) & (b % 3 == 0) & (a == 3)) | _ref_cells(n, [(3, 1)]),
        ((b != 4) & (b % 2 == 0) & (a == 4)) | _ref_cells(n, [(3, 3)]),
        mid & (a % 3 == 2) & (b % 2 == 0) & (b != (n - 2 * a + 4) % n),
        mid & (a % 3 == 2) & ((b == (n - 2 * a + 4) % n) | (b == (n - 2 * a + 5) % n)),
        mid & (a % 3 == 0) & (b == (n - 2 * a + 6) % n),
        mid & (a % 3 == 0) & (b == (n - 2 * a + 7) % n),
        mid & (a % 3 == 1) & (b % 2 == 0),
    ]
    return _ref_first_match(n, conds, [1, -1, 2, 2, 3, -3, -2, 2, 1, 1, -1, -2])


def _ref_V(n):
    k = (n - 4) // 6
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    mid = (a >= 4) & (a <= 3 * k)
    conds = [
        _ref_cells(n, [(1, 1), (1, 2)]),
        _ref_cells(n, [(3, 0), (3, 2)]),
        _ref_cells(n, [(0, 1)]),
        _ref_cells(n, [(1, 0)]),
        (b % 3 == 2) & (a == 0),
        (b > 2) & (b % 3 == 2) & (a == 3),
        mid & (a % 3 == 0) & (b % 2 == 0),
        mid & (a % 3 == 1) & (b % 2 == 0) & (b != (n - 2 * a + 2) % n),
        mid & (a % 3 == 1) & ((b == (n - 2 * a + 2) % n) | (b == (n - 2 * a + 3) % n)),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 4) % n),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 5) % n),
    ]
    return _ref_first_match(n, conds, [-1, -2, 1, 2, 3, -3, -2, 2, 1, 1, -1])


def _ref_L(m):
    n = 3 * m
    r = np.arange(n, dtype=np.int64).reshape(-1, 1)
    c = np.arange(n, dtype=np.int64).reshape(1, -1)
    i = r // m + 1
    j = c // m + 1
    cls = (i + j) % 3
    v = (r + c) % m
    blk = ((i == 1) & (j == 1), (i == 2) & (j == 3), (i == 3) & (j == 2),
           (i == 2) & (j == 2), (i == 3) & (j == 3),
           (i == 1) & (j == 2), (i == 3) & (j == 1),
           (i == 1) & (j == 3), (i == 2) & (j == 1))
    conds = [
        (cls == 2) & (v != 0),
        (cls == 0) & (v != m - 1),
        (cls == 1) & (v != m - 1),
        (v == 0) & blk[0],
        (v == 0) & blk[1],
        (v == 0) & blk[2],
        (v == m - 1) & (blk[3] | blk[4]),
        (v == m - 1) & (blk[5] | blk[6]),
        (v == m - 1) & (blk[7] | blk[8]),
    ]
    assert (sum(cond.astype(np.int64) for cond in conds) == 1).all()
    return np.select(conds, [v, v + m, v + 2 * m,
                             0, 2 * m - 1, 3 * m - 1,
                             0, 2 * m - 1, 3 * m - 1])


@pytest.mark.parametrize("build, reference, start", [
    (build_T, _ref_T, 12), (build_U, _ref_U, 14), (build_V, _ref_V, 10),
], ids=["T", "U", "V"])
def test_row_confined_cases_match_the_dense_reference(build, reference, start):
    for n in range(start, 201, 6):
        assert np.array_equal(build(n).to_array(), reference(n)), n


def test_block_fill_matches_the_dense_reference():
    for m in range(3, 52, 2):
        assert np.array_equal(build_L(m).to_array(), _ref_L(m)), m


def test_build_T_spec_cells():
    sq = build_T(12)
    assert sq[1, 0] == 3          # explicit +2 case
    assert sq[0, 4] == 7          # row-0 +3 case
    assert sq.family == "T"


def test_build_T12_rows_hand_computed():
    sq = build_T(12)
    assert sq.grid[0] == (0, 2, 4, 3, 7, 5, 6, 10, 8, 9, 1, 11)
    assert sq.grid[1] == (3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 0)
    assert sq.grid[3] == (1, 3, 5, 6, 4, 8, 9, 7, 11, 0, 10, 2)


def test_build_U_spec_cells():
    sq = build_U(14)
    assert sq[1, 3] == 5
    assert sq[2, 0] == 4
    assert sq.grid[1] == (1, 2, 3, 5, 4, 6, 7, 8, 9, 10, 11, 12, 13, 0)


def test_build_V_spec_cells():
    sq = build_V(10)
    assert sq[1, 0] == 3
    assert sq[0, 2] == 5
    assert sq.grid[3] == (1, 4, 3, 6, 7, 5, 9, 0, 8, 2)


@pytest.mark.parametrize("builder,bad", [
    (build_T, 13), (build_T, 6), (build_U, 14 + 1), (build_U, 8),
    (build_V, 12), (build_V, 4), (build_L, 4), (build_L, 1),
])
def test_domain_errors(builder, bad):
    with pytest.raises(DomainError):
        builder(bad)


@pytest.mark.parametrize("n", T_ORDERS)
def test_T_valid_and_witnessed(n):
    sq = build_T(n)
    t = witness_transversal("T", n)
    assert is_transversal(sq, t)


@pytest.mark.parametrize("n", U_ORDERS)
def test_U_valid_and_witnessed(n):
    sq = build_U(n)
    t = witness_transversal("U", n)
    assert is_transversal(sq, t)


@pytest.mark.parametrize("n", V_ORDERS)
def test_V_valid_and_witnessed(n):
    sq = build_V(n)
    t = witness_transversal("V", n)
    assert is_transversal(sq, t)


@pytest.mark.parametrize("m", L_MS)
def test_L_valid_and_witnessed(m):
    sq = build_L(m)
    t = witness_transversal("L", 3 * m)
    assert is_transversal(sq, t)


@pytest.mark.long
def test_construction_cap_sweep():
    # The configured construction cap: every valid order up to 600 / m up to 199.
    for n in range(12, 601, 6):
        build_T(n)
        witness_transversal("T", n)
    for n in range(14, 601, 6):
        build_U(n)
        witness_transversal("U", n)
    for n in range(10, 601, 6):
        build_V(n)
        witness_transversal("V", n)
    for m in range(3, 200, 2):
        build_L(m)
        witness_transversal("L", 3 * m)


@pytest.mark.long
def test_claimed_pinned_cap_sweep():
    for family, start in (("T", 12), ("U", 14), ("V", 10)):
        for n in range(start, 601, 6):
            assert len(claimed_pinned_entries(family, n)) == n // 6


def test_L9_block_cells():
    sq = build_L(3)
    assert sq[0, 0] == 0           # block (1,1), local (0,0)
    assert sq[4, 8] == 5           # block (2,3), local (1,2) -> 2m-1
    assert sq.grid[0] == (0, 1, 2, 3, 4, 5, 6, 7, 8)


def test_L9_witness_is_the_fixed_nine_cell_set():
    t = witness_transversal("L", 9)
    sq = build_L(3)
    entries = {e.as_tuple() for e in t.entries(sq)}
    assert entries == {(0, 1, 1), (1, 4, 5), (2, 7, 6), (3, 8, 2), (4, 0, 4),
                       (5, 3, 0), (6, 6, 3), (7, 5, 8), (8, 2, 7)}


def test_L_witness_covers_both_branches():
    # m divisible by 3 uses one column formula, other odd m the second.
    assert is_transversal(build_L(9), witness_transversal("L", 27))
    assert is_transversal(build_L(5), witness_transversal("L", 15))
    assert witness_transversal("L", 15).cols == (0, 13, 14, 6, 7, 5, 12, 1, 11, 3, 10, 2, 9, 4, 8)


def test_T12_witness_cols():
    assert witness_transversal("T", 12).cols == (4, 0, 1, 2, 8, 6, 3, 7, 5, 9, 10, 11)


def test_V10_witness_prefix():
    cols = witness_transversal("V", 10).cols
    assert cols[0] == 2 and cols[1] == 0 and cols[2] == 6 and cols[3] == 1


def test_exceptional_squares():
    ex6 = build_exceptional(6)
    assert ex6.grid[0] == (0, 1, 2, 3, 4, 5)
    assert ex6[3, 1] == 5
    ex8 = build_exceptional(8)
    assert ex8.grid[0] == (0, 1, 2, 3, 4, 5, 6, 7)
    with pytest.raises(DomainError):
        build_exceptional(10)
    assert is_transversal(ex6, witness_transversal("EX6", 6))
    assert is_transversal(ex8, witness_transversal("EX8", 8))
    assert len(claimed_free_cells(6)) == 16
    assert len(claimed_free_cells(8)) == 25


def test_claimed_pinned_entries():
    assert [e.as_tuple() for e in claimed_pinned_entries("T", 12)] == [(1, 0, 3), (2, 1, 4)]
    t18 = {e.as_tuple() for e in claimed_pinned_entries("T", 18)}
    assert {(1, 0, 3), (2, 1, 4), (5, 12, 0)} <= t18
    assert [e.as_tuple() for e in claimed_pinned_entries("V", 10)] == [(1, 0, 3)]
    assert [e.as_tuple() for e in claimed_pinned_entries("U", 14)] == [(1, 3, 5), (3, 4, 8)]


@pytest.mark.parametrize("family,orders", [("T", T_ORDERS), ("U", U_ORDERS), ("V", V_ORDERS)])
def test_claimed_pinned_count_and_membership(family, orders):
    for n in orders:
        entries = claimed_pinned_entries(family, n)
        assert len(entries) == n // 6
        sq = build_family(family, n)
        assert all(sq[e.row, e.col] == e.sym for e in entries)


def test_overlapping_cases_fail_loudly():
    from latintrav import CaseOverlap
    from latintrav.families import _Case, _case_grid, _cells, _mid

    odd_cols = _Case(_mid(0, 7, 1), lambda a, b: b % 2 == 1, 1)  # rows 1, 4 and 7
    band = _Case(slice(3, 5), lambda a, b: b == a - 1, -1)        # cells (3, 2) and (4, 3)
    with pytest.raises(CaseOverlap, match=r"order 8: cases \[0, 2\] all match cell \(4,3\)"):
        _case_grid(8, [odd_cols, _cells(2, (0, 0)), band], "T")
    with pytest.raises(CaseOverlap, match=r"cases \[0, 1\] all match cell \(4,3\)"):
        _case_grid(8, [_cells(2, (0, 0), (4, 3)), band], "T")


@pytest.mark.parametrize("call", [
    lambda: build_family("T", 12.0),
    lambda: build_L(3.0),
    lambda: bounds.check_sets_only("T", 12.0),
    lambda: verify_hit_theorem(3.0),
    lambda: bounds.lower_bound("T", 12.0),
    lambda: cayley_table(True),
    lambda: family_of_order(12.0),
], ids=["build-family", "build-L", "check-sets-only", "hit-theorem", "lower-bound",
        "cayley-bool", "family-of-order"])
def test_family_orders_and_m_must_be_integers(call):
    """Orders and m follow the grid values' rule: int or a numpy integer, never a float or
    bool, and the answer is a DomainError, not a TypeError or a square of order 1."""
    held = build_family("T", 12)  # the live T12 must not answer for order 12.0
    with pytest.raises(DomainError, match="must be integers"):
        call()
    assert build_family("T", np.int64(12)) is held


def test_family_of_order():
    assert family_of_order(12) == "T"
    assert family_of_order(14) == "U"
    assert family_of_order(10) == "V"
    with pytest.raises(DomainError):
        family_of_order(9)
    with pytest.raises(DomainError):
        family_of_order(8)


def test_build_family_dispatch():
    assert build_family("L", n=9) == build_L(3)
    assert build_family("EX6") == build_exceptional(6)
    with pytest.raises(DomainError):
        build_family("T", None)
    with pytest.raises(DomainError):
        build_family("EX6", n=8)


@pytest.mark.parametrize("family,n,message", [
    ("T", 13, "family T needs order n ≡ 0 (mod 6), n >= 12; got 13"),
    ("U", 8, "family U needs order n ≡ 2 (mod 6), n >= 14; got 8"),
    ("V", 11, "family V needs order n ≡ 4 (mod 6), n >= 10; got 11"),
    ("L", 10, "family L covers orders 3m for odd m >= 3, got 10"),
    ("L", 12, "family L covers orders 3m for odd m >= 3, got 12"),
    ("L", 6, "family L covers orders 3m for odd m >= 3, got 6"),
    ("EX6", 8, "family EX6 has order 6, got 8"),
    ("EX8", 6, "family EX8 has order 8, got 6"),
    ("CAYLEY", 5, "unknown family 'CAYLEY'"),
])
def test_witness_rejects_orders_a_family_does_not_cover(family, n, message):
    with pytest.raises(DomainError) as info:
        witness_transversal(family, n)
    assert str(info.value) == message


@pytest.mark.parametrize("family, n, m, message", [
    ("L", 9, 5, "family L with m = 5 has order 15, got 9"),
    ("T", 12, 3, "--m applies to family L only, got family T"),
    ("EX6", None, 3, "--m applies to family L only, got family EX6"),
    ("CAYLEY", 5, 1, "--m applies to family L only, got family CAYLEY"),
])
def test_build_family_rejects_conflicting_arguments(family, n, m, message):
    with pytest.raises(DomainError) as info:
        build_family(family, n, m)
    assert str(info.value) == message


def _count_grids(monkeypatch) -> list[int]:
    """Patch the T/U/V grid maker, which each build_T/U/V call runs once; returns its orders."""
    orders = []
    real = families._case_grid
    monkeypatch.setattr(families, "_case_grid",
                        lambda n, *rest: orders.append(n) or real(n, *rest))
    return orders


def test_a_held_square_is_built_once(monkeypatch, capsys):
    gc.collect()
    builds = _count_grids(monkeypatch)
    square = build_family("T", 300)
    assert witness_transversal("T", 300).order == 300
    assert len(claimed_pinned_entries("T", 300)) == 50
    assert bounds.check_sets_only("T", 300).size_ok
    assert len(bounds.bound_sets("T", 300).pinned) == 50
    assert main(["bounds", "--family", "T", "--order", "300", "--sets-only", "--no-meta"]) == 0
    assert '"n": 300' in capsys.readouterr().out
    assert builds == [300]
    assert build_family("T", 300) is square


def test_a_square_is_shared_only_while_it_is_held(monkeypatch):
    builds = _count_grids(monkeypatch)
    square = build_family("U", 20)
    assert build_family("U", 20) is square
    assert build_family("L", n=9) is build_family("L", m=3) is build_family("L", 9, 3)
    ref = weakref.ref(square)
    del square
    gc.collect()
    assert ref() is None
    fresh = build_family("U", 20)
    assert builds == [20, 20]
    assert fresh.family == "U" and fresh == build_U(20)


def test_with_family_leaves_the_shared_square_unchanged():
    square = build_family("V", 16)
    renamed = square.with_family(None)
    assert renamed is not square and renamed == square and renamed.family is None
    assert square.family == "V"
    assert build_family("V", 16) is square


def test_with_family_checks_the_tag():
    """`with_family` takes the tags a new square takes and rejects the rest."""
    with pytest.raises(DomainError, match="unknown family tag 'BOGUS'"):
        build_T(12).with_family("BOGUS")
    with pytest.raises(DomainError, match="unknown family tag 'BOGUS'"):
        LatinSquare(build_T(12).grid, family="BOGUS")
    assert build_T(12).with_family("CUSTOM").family == "CUSTOM"


@pytest.mark.parametrize("family, n", [("T", 1200), ("U", 1202), ("V", 1204)])
def test_bound_sets_hold_at_large_orders(family, n):
    """The set check builds T/U/V squares of order 1200 in well under a second."""
    check = bounds.check_sets_only(family, n)
    assert check.size_ok and check.union_size >= bounds.lower_bound(family, n)


def _peak_bytes(call) -> int:
    """The most memory tracemalloc saw allocated at once while ``call()`` ran."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_family_square_costs_one_int64_array():
    """The builder hands its array to the square, which keeps it without a copy: T1200's
    build peaks below 13 n^2 bytes (a copy made it 20 n^2), and the set check, which adds
    the int16 delta table and ORs one set's mask at a time into the union, below 14 n^2
    (16.7 n^2 with all five masks held, 23.6 n^2 with an int64 table)."""
    n = 1200
    assert _peak_bytes(lambda: build_T(n)) <= 13 * n * n
    assert _peak_bytes(lambda: bounds.check_sets_only("T", n)) <= 14 * n * n
