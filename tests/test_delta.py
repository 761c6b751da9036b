import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latintrav import (
    BadPermutation,
    Entry,
    Isotopism,
    apply_isotopism,
    cayley_table,
    delta_m,
    delta_profile,
    delta_sum,
    forced_entry_certificate,
    is_suitable_diagonal,
    special_symbol_delta_check,
    witness_transversal,
)
from latintrav.delta import (
    REFUTATION_CLASH,
    REFUTATION_MIN_SUM,
    NotBlockSquare,
    OddOrder,
    delta,
    delta_grid,
)
from latintrav.families import (
    build_exceptional,
    build_family,
    build_L,
    build_T,
    build_U,
    build_V,
)


def test_delta_examples():
    assert delta((1, 0, 3), 12) == 2
    assert delta((3, 0, 1), 12) == -2
    # boundary representative: n/2 stays positive
    assert delta((0, 0, 6), 12) == 6
    assert delta(Entry(0, 0, 6), 12) == 6


def test_import_gives_the_delta_module():
    """The package root does not re-export the function ``delta`` over its submodule, so
    ``import latintrav.delta`` binds the module."""
    import latintrav.delta as module

    assert module is sys.modules["latintrav.delta"]
    assert module.delta is delta


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.data())
def test_delta_range(n, data):
    r = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    s = data.draw(st.integers(0, n - 1))
    d = delta((r, c, s), n)
    assert -n / 2 < d <= n / 2
    assert (s - r - c - d) % n == 0


def test_delta_bounded_by_three_on_families():
    for sq in (build_T(24), build_U(20), build_V(22)):
        assert all(-3 <= delta(e, sq.order) <= 3 for e in sq.entries())


def test_delta_sum_examples(oracle):
    c5 = cayley_table(5)
    for cols in oracle(c5.grid):
        assert delta_sum(c5, cols) == 0
    assert delta_sum(build_T(12), witness_transversal("T", 12)) == 6
    assert delta_sum(cayley_table(4), (0, 1, 2, 3)) == 0


def _scaled_cayley(n: int, k: int):
    """The addition table of the integers mod n with each symbol s written k*s mod n (k a
    unit mod n), so the delta of cell (r, c) is (k - 1)(r + c) mod n."""
    return apply_isotopism(cayley_table(n),
                           Isotopism(range(n), range(n), [k * s % n for s in range(n)]))


def _delta_reference(square) -> np.ndarray:
    """`delta_grid` by the int64 formula: (s - r - c) mod n mapped into (-n/2, n/2]."""
    n = square.order
    idx = np.arange(n, dtype=np.int64)
    v = (square.to_array() - idx[:, None] - idx) % n
    return np.where(v > n // 2, v - n, v)


@pytest.mark.parametrize("build, dtype, lo, hi", [
    (lambda: _scaled_cayley(255, 2), np.int8, -127, 127),
    (lambda: _scaled_cayley(256, 3), np.int16, -126, 128),
    (lambda: build_T(300), np.int16, -3, 3),
    (lambda: build_L(85), np.int8, -86, 86),
], ids=["order-255", "order-256", "T300", "L85"])
def test_delta_grid_is_narrow_and_exact(build, dtype, lo, hi):
    """int8 holds (-n/2, n/2] up to order 255 and int16 from 256 on, where 128 occurs."""
    sq = build()
    dg = delta_grid(sq)
    assert dg.dtype == dtype and dg.flags.c_contiguous and not dg.flags.writeable
    assert (int(dg.min()), int(dg.max())) == (lo, hi)
    assert np.array_equal(dg, _delta_reference(sq))
    assert delta_grid(sq) is dg


@pytest.mark.parametrize("family, n", [("T", 300), ("U", 296), ("V", 298),
                                       ("T", 252), ("U", 248), ("V", 250)])
def test_delta_sum_of_large_witnesses(family, n):
    """Every transversal's delta sum is n/2 mod n, at int16 orders and at int8 ones."""
    assert delta_sum(build_family(family, n), witness_transversal(family, n)) == n // 2


def test_delta_sum_does_not_wrap_in_int8():
    """A diagonal of the order-255 square with delta 127 in every row: its sum, 255 * 127,
    lies far outside the int8 its table is stored in."""
    sq = _scaled_cayley(255, 2)
    cols = [(127 - r) % 255 for r in range(255)]
    assert delta_grid(sq)[range(255), cols].tolist() == [127] * 255
    assert delta_sum(sq, cols) == 255 * 127 % 255 == 0


def test_delta_sum_rejects_non_diagonal():
    with pytest.raises(BadPermutation):
        delta_sum(cayley_table(4), (0, 0, 1, 2))
    with pytest.raises(BadPermutation):
        delta_sum(build_V(10), (0, 1, 2))  # a permutation, but of the wrong order


def test_suitable_diagonal():
    t12 = build_T(12)
    assert is_suitable_diagonal(t12, witness_transversal("T", 12))
    c4 = cayley_table(4)
    assert not is_suitable_diagonal(c4, (0, 1, 2, 3))
    assert not is_suitable_diagonal(c4, (0, 0, 1, 2))  # repeated column
    with pytest.raises(OddOrder):
        is_suitable_diagonal(cayley_table(5), (0, 1, 2, 3, 4))


def test_delta_profile_T12():
    prof = delta_profile(build_T(12))
    assert prof.min_sum == -5
    assert prof.max_sum == 6


@pytest.mark.parametrize("n", [14, 20, 26])
def test_delta_profile_U_hits_both_extremes(n):
    prof = delta_profile(build_U(n))
    assert prof.min_sum == -(n // 2)
    assert prof.max_sum == n // 2


def test_delta_profile_cayley_even():
    prof = delta_profile(cayley_table(6))
    assert prof.row_min == (0,) * 6
    assert prof.row_max == (0,) * 6


def test_certificate_T12():
    cert = forced_entry_certificate(build_T(12))
    assert cert.valid
    assert cert.refutation == REFUTATION_MIN_SUM
    assert [e.as_tuple() for e in cert.forced] == [(1, 0, 3), (2, 1, 4)]
    assert cert.max_sum == 6 and cert.min_sum == -5


def test_certificate_U14_column_clash():
    cert = forced_entry_certificate(build_U(14))
    assert cert.valid
    assert cert.refutation == REFUTATION_CLASH
    assert {e.as_tuple() for e in cert.clash} == {(1, 4, 4), (2, 4, 5)}


def test_certificate_cayley6_invalid():
    cert = forced_entry_certificate(cayley_table(6))
    assert not cert.valid
    assert cert.max_sum == 0
    assert cert.forced == ()


def test_certificate_rejects_odd_order():
    with pytest.raises(OddOrder):
        forced_entry_certificate(cayley_table(5))


def test_certificate_json_shape():
    data = forced_entry_certificate(build_T(12)).to_json_dict()
    assert set(data) == {"valid", "forced", "maxSum", "minSum", "refutation"}
    assert data["forced"] == [[1, 0, 3], [2, 1, 4]]


def test_forced_entries_are_unique_row_maxima():
    # delta_profile, which lists every row extremum, is the reference here
    for sq in (build_T(24), build_U(20), build_V(22), build_U(14), build_exceptional(6),
               build_exceptional(8), cayley_table(6)):
        cert = forced_entry_certificate(sq)
        prof = delta_profile(sq)
        assert (cert.min_sum, cert.max_sum) == (prof.min_sum, prof.max_sum)
        unique_max = tuple(top[0] for top in prof.argmax if len(top) == 1)
        assert cert.forced == (unique_max if cert.valid else ())
        if cert.clash is not None:
            first, second = cert.clash
            assert prof.argmin[first.row] == (first,) and prof.argmin[second.row] == (second,)
            assert first.row < second.row and first.col == second.col


@pytest.mark.parametrize("n", [10, 12, 14, 16])
def test_certificate_soundness_by_exhaustive_search(n):
    # no suitable diagonal of the family square avoids any forced cell
    from latintrav import SearchMode, find, family_of_order
    from latintrav.families import build_family

    family = family_of_order(n)
    square = build_family(family, n)
    cert = forced_entry_certificate(square)
    assert cert.valid
    for e in cert.forced:
        assert find(square, forbidden_cells=((e.row, e.col),),
                    mode=SearchMode.SUITABLE_DIAGONAL) is None


def test_delta_m_examples():
    assert delta_m((0, 1, 1), 3) == 1
    assert delta_m((8, 2, 7), 3) == 1
    t = witness_transversal("L", 9)
    sq = build_L(3)
    assert sum(delta_m(e, 3) for e in t.entries(sq)) % 3 == 0


def test_delta_m_block_layout():
    # inside every block the residue at local cell (a, b) is (a+b) mod m
    for m in (3, 5):
        sq = build_L(m)
        for e in sq.entries():
            assert delta_m(e, m) == (e.row % m + e.col % m) % m


def test_special_symbol_check_on_witness():
    assert special_symbol_delta_check(build_L(3), witness_transversal("L", 9), 3)
    assert special_symbol_delta_check(build_L(5), witness_transversal("L", 15), 5)


def test_special_symbol_check_all_L9_transversals(oracle):
    sq = build_L(3)
    for cols in oracle(sq.grid):
        assert special_symbol_delta_check(sq, cols, 3)


def test_special_symbol_check_rejects_wrong_square():
    with pytest.raises(NotBlockSquare):
        special_symbol_delta_check(cayley_table(9), (0,) * 9, 3)


def test_special_symbol_check_rejects_non_transversal():
    from latintrav import DomainError

    with pytest.raises(DomainError):
        special_symbol_delta_check(build_L(3), tuple(range(9)), 3)
