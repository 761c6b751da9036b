import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latintrav import (
    BadPermutation,
    BadSymbol,
    Diagonal,
    DomainError,
    Entry,
    Isotopism,
    LatinSquare,
    NotLatin,
    ParseError,
    apply_isotopism,
    as_transversal,
    cayley_table,
    classify,
    find,
    from_json,
    is_pinned,
    is_transversal,
    new_square,
    parse,
    serialize,
    to_json,
)
from latintrav.blocks import block_of
from latintrav.families import build_exceptional, build_L, build_T, build_U, build_V


def test_order_one_square():
    sq = new_square(1, [[0]])
    assert sq.order == 1
    assert sq.grid == ((0,),)


def test_order_two_square():
    sq = new_square(2, [[0, 1], [1, 0]])
    assert sq.grid == ((0, 1), (1, 0))


def test_duplicate_column_symbol_rejected():
    with pytest.raises(NotLatin) as exc:
        new_square(2, [[0, 1], [0, 1]])
    assert exc.value.axis == "column"
    assert exc.value.index == 0


def test_duplicate_row_symbol_rejected():
    with pytest.raises(NotLatin) as exc:
        LatinSquare([[0, 0], [1, 1]])
    assert exc.value.axis == "row"


def test_out_of_range_symbol_rejected():
    with pytest.raises(BadSymbol):
        LatinSquare([[0, 2], [2, 0]])


def test_ragged_grid_rejected():
    for grid in ([[0, 1], [1]], [0, 1], 5):
        with pytest.raises(DomainError):
            LatinSquare(grid)


def test_order_mismatch_rejected():
    with pytest.raises(DomainError):
        new_square(3, [[0, 1], [1, 0]])


def test_cayley_table_small():
    assert cayley_table(3).grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert cayley_table(2).grid == ((0, 1), (1, 0))


def test_cayley_table_delta_zero_everywhere():
    from latintrav.delta import delta

    sq = cayley_table(4)
    assert all(delta(e, 4) == 0 for e in sq.entries())


def test_serialize_round_trip_format():
    sq = new_square(2, [[0, 1], [1, 0]])
    assert serialize(sq) == "2\n0 1\n1 0\n"
    assert parse("2\n0 1\n1 0\n") == sq


def test_parse_rejects_non_latin():
    with pytest.raises(NotLatin):
        parse("2\n0 1\n0 1\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("2\n0 x\n1 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse("2\n0 1\n")
    with pytest.raises(ParseError):
        parse("x\n")


@pytest.mark.parametrize("text, line, column, token", [
    ("2\n0 1\n1 0_0\n", 3, 3, "0_0"),
    ("2\n+0 1\n1 0\n", 2, 1, "+0"),
    ("2\n0 1\n1 \u0660\n", 3, 3, "\u0660"),
    ("2\n0  \uff11\n1 0\n", 2, 4, "\uff11"),
    ("2\n0 1.0\n1 0\n", 2, 3, "1.0"),
    ("2\n0 --1\n1 0\n", 2, 3, "--1"),
    ("+2\n0 1\n1 0\n", 1, 1, "+2"),
    ("2_0\n", 1, 1, "2_0"),
    ("\u0662\n0 1\n1 0\n", 1, 1, "\u0662"),
], ids=["underscore", "plus", "arabic-indic-zero", "fullwidth-one", "decimal-point",
        "double-minus", "order-plus", "order-underscore", "order-arabic-indic-two"])
def test_parse_accepts_only_plain_integers(text, line, column, token):
    """Grid values and the order match ASCII ``-?[0-9]+``: int() alone took '0_0', '+0' and
    non-ASCII digits, so a mistyped file classified as a different square."""
    with pytest.raises(ParseError, match=re.escape(repr(token))) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_keeps_minus_and_surrounding_whitespace():
    assert parse(" 2 \n 0\t 1 \n1 0\n").grid == ((0, 1), (1, 0))
    with pytest.raises(BadSymbol, match="outside"):
        parse("2\n0 -1\n1 0\n")
    with pytest.raises(ParseError, match="order must be positive"):
        parse("-2\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit")
def test_parse_error_for_more_digits_than_int_converts():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match="not an integer") as exc:
        parse(f"2\n0 1\n1 {digits}\n")
    assert (exc.value.line, exc.value.column) == (3, 3)


def test_json_round_trip_keeps_family():
    sq = build_T(12)
    back = from_json(to_json(sq))
    assert back == sq
    assert back.family == "T"


@pytest.mark.parametrize("square", [cayley_table(5), build_T(12), build_V(10),
                                    build_exceptional(6), build_exceptional(8)])
def test_round_trip_on_constructed_squares(square):
    assert parse(serialize(square)) == square
    assert from_json(to_json(square)) == square


def test_diagonal_requires_permutation():
    with pytest.raises(BadPermutation):
        Diagonal((0, 0, 1))


def test_isotopism_requires_bijections():
    with pytest.raises(BadPermutation):
        Isotopism((0, 0), (0, 1), (0, 1))


def test_identity_isotopism_fixes_square():
    sq = build_T(12)
    assert apply_isotopism(sq, Isotopism.identity(12)) == sq


def test_row_swap_on_cayley_2():
    iso = Isotopism((1, 0), (0, 1), (0, 1))
    assert apply_isotopism(cayley_table(2), iso).grid == ((1, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_isotopisms_preserve_latin(data):
    squares = [cayley_table(5), cayley_table(7), build_exceptional(6), build_V(10)]
    sq = data.draw(st.sampled_from(squares))
    n = sq.order
    alpha = tuple(data.draw(st.permutations(range(n))))
    beta = tuple(data.draw(st.permutations(range(n))))
    gamma = tuple(data.draw(st.permutations(range(n))))
    image = apply_isotopism(sq, Isotopism(alpha, beta, gamma))
    assert image.order == n  # construction re-validates the latin property


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_isotopism_maps_transversals_to_transversals(data):
    from conftest import naive_transversals

    squares = [cayley_table(3), cayley_table(5), build_exceptional(6)]
    sq = data.draw(st.sampled_from(squares))
    n = sq.order
    sols = naive_transversals(sq.grid)
    cols = data.draw(st.sampled_from(sols))
    iso = Isotopism(tuple(data.draw(st.permutations(range(n)))),
                    tuple(data.draw(st.permutations(range(n)))),
                    tuple(data.draw(st.permutations(range(n)))))
    image_sq = apply_isotopism(sq, iso)
    image_diag = iso.diagonal_image(Diagonal(tuple(cols)))
    assert is_transversal(image_sq, image_diag)


def test_as_transversal_rejects_symbol_repeat():
    from latintrav import NotTransversal

    sq = cayley_table(4)
    with pytest.raises(NotTransversal):
        as_transversal(sq, (0, 1, 2, 3))


@pytest.mark.parametrize("call", [
    lambda: as_transversal(cayley_table(3), (0, 1, 2, 3)),
    lambda: as_transversal(cayley_table(5), (0, 1, 2)),
    lambda: Isotopism.identity(3).diagonal_image((1, 0)),
], ids=["as-transversal-long", "as-transversal-short", "diagonal-image-short"])
def test_diagonal_of_the_wrong_length_is_a_bad_permutation(call):
    """A column count other than the order, as in delta_sum: no IndexError, no claim of
    a repeated symbol, no image with fewer cells than the isotopism's order."""
    with pytest.raises(BadPermutation, match="not a permutation of 0.."):
        call()


@pytest.mark.parametrize("cols, expected", [
    ((0, 1, 2), True),
    (np.array([0, 1, 2], np.int64), True),
    (Diagonal((0, 1, 2)), True),
    (np.array([0, 2, 1], np.int64), False),  # every symbol is 0
    ((0, 0, 1), False),                      # repeated column
    ((0, 1, 3), False),                      # column n
    ((0, 1), False),                         # short diagonal
    ((0, 2, 1), False),                      # repeated symbol
    ((0, np.int64(1), 2), True),             # ints and a numpy integer
], ids=["tuple", "int64", "diagonal", "int64-repeated-symbol", "repeated-column",
        "column-n", "short", "repeated-symbol", "mixed-int64"])
def test_is_transversal_answers(cols, expected):
    """Z3's cells (r, c) hold r + c mod 3: columns 0, 1, 2 read symbols 0, 2, 1."""
    assert is_transversal(cayley_table(3), cols) is expected


def test_entry_ordering_and_tuple():
    e = Entry(1, 0, 3)
    assert e.as_tuple() == (1, 0, 3)
    assert Entry(0, 5, 5) < e


@pytest.mark.parametrize("build, arg", [(build_T, 300), (build_U, 296), (build_V, 298),
                                        (build_L, 99)], ids=["T300", "U296", "V298", "L99"])
def test_grid_is_tuples_of_exact_ints(build, arg):
    sq = build(arg)
    per_cell = tuple(tuple(int(v) for v in row) for row in sq.to_array().tolist())
    assert sq.grid == per_cell
    assert {type(row) for row in sq.grid} == {tuple}
    assert {type(v) for row in sq.grid for v in row} == {int}
    assert hash(sq) == hash(sq.with_family(None))
    from_array = LatinSquare(sq.to_array())
    assert from_array == sq and hash(from_array) == hash(sq)
    assert sq != LatinSquare(sq.to_array()[::-1])


def test_grid_shares_one_int_per_symbol():
    """300 symbols, so at most 300 int objects; ints above 256 are not cached, and one
    per cell would be 90,000."""
    sq = build_T(300)
    assert len({id(v) for row in sq.grid for v in row}) <= 300
    assert sq.grid == tuple(map(tuple, sq.to_array().tolist()))


@pytest.mark.parametrize("grid, family, error", [
    ([[0, 1], [1, 1]], None, NotLatin),
    ([[0, 1], [1, 0], [0, 1]], None, DomainError),
    ([[0, 2], [2, 0]], None, BadSymbol),
    ([[0, -1], [-1, 0]], None, BadSymbol),
    ([[0, 1], [1, 0]], "BOGUS", DomainError),
], ids=["not-latin", "not-square", "symbol-n", "symbol-negative", "family"])
def test_an_adopted_array_gets_the_checks_of_a_copied_grid(grid, family, error):
    """The builders' path runs `LatinSquare`'s checks and raises what they raise."""
    with pytest.raises(error) as copied:
        LatinSquare(grid, family)
    with pytest.raises(error) as adopted:
        LatinSquare._adopt(np.array(grid, np.int64), family)
    assert str(adopted.value) == str(copied.value)


def test_adopt_keeps_a_fresh_array_and_refuses_the_rest():
    arr = build_V(10).to_array().copy()
    sq = LatinSquare._adopt(arr, "V")
    assert sq.to_array() is arr and not arr.flags.writeable
    assert sq == build_V(10) and sq.family == "V"
    fresh = build_V(10).to_array().copy()
    for other in (fresh.T, fresh[:], fresh.astype(np.int32)):
        with pytest.raises(ValueError, match="fresh C-contiguous int64"):
            LatinSquare._adopt(other)
    assert fresh.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: build_T(300), lambda: build_L(5), lambda: cayley_table(9),
    lambda: apply_isotopism(build_V(10), Isotopism(range(10), range(9, -1, -1), range(10))),
], ids=["T300", "L5", "cayley9", "isotope-V10"])
def test_to_array_owns_its_data_and_is_read_only(build):
    arr = build().to_array()
    assert arr.flags.owndata and arr.flags.c_contiguous and not arr.flags.writeable
    assert arr.dtype == np.int64


def test_square_owns_a_copy_of_its_grid():
    """The caller's array stays writeable, writing to it later changes neither view of
    the square, and a square built from a transposed view searches as its copy does."""
    a = build_V(10).to_array().copy()
    LatinSquare(a)
    assert a.flags.writeable
    b = build_V(10).to_array().copy()
    sq = LatinSquare(b.T)
    b[0, 0] = 5
    arr = sq.to_array()
    assert arr.tolist() == [list(row) for row in sq.grid] == build_V(10).to_array().T.tolist()
    assert arr.flags.c_contiguous and not arr.flags.writeable
    contiguous = LatinSquare(np.ascontiguousarray(build_V(10).to_array().T))
    rep, want = classify(sq), classify(contiguous)
    assert (rep.status, rep.witnesses, rep.pinned, rep.nodes) \
        == (want.status, want.witnesses, want.pinned, want.nodes)


@pytest.mark.parametrize("grid", [
    [[0, 1.5], [1, 0]],
    [[0, 1.0], [1, 0]],
    [["0", "1"], ["1", "0"]],
    [[False, True], [True, False]],
    [[0, True], [True, 0]],
    [[0, None], [1, 0]],
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[False, True], [True, False]]),
    np.array([[0, 1], [1, 0]], dtype=object),
], ids=["float", "integral-float", "str", "bool", "bool-among-ints", "none", "float-array",
        "bool-array", "object-array"])
def test_non_integer_values_rejected(grid):
    """No value is rounded, parsed or read as 0/1: `np.array(grid, dtype=np.int64)` took
    [[0, 1.5], [1, 0]] as ((0, 1), (1, 0))."""
    with pytest.raises(BadSymbol, match="must be integers"):
        LatinSquare(grid)


@pytest.mark.parametrize("value", [2**63, -2**63 - 1, 2**64])
def test_values_beyond_int64_rejected(value):
    with pytest.raises(BadSymbol, match=r"outside 0\.\.1"):
        LatinSquare([[0, value], [1, 0]])
    with pytest.raises(BadSymbol):
        parse(f"2\n0 {value}\n1 0\n")
    with pytest.raises(BadSymbol):
        from_json(f'{{"order": 2, "grid": [[0, {value}], [1, 0]]}}')


def test_integer_grids_of_any_integer_type_accepted():
    want = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    a = cayley_table(3).to_array()
    for grid in (a, a.astype(np.uint8), a.astype(np.int32), list(a), a.tolist(),
                 [[np.int16(v) for v in row] for row in a]):
        sq = LatinSquare(grid)
        assert sq.grid == want and sq.to_array().dtype == np.int64
        assert {type(v) for row in sq.grid for v in row} == {int}


@pytest.mark.parametrize("call, error", [
    (lambda: Diagonal((0.5, 1)), BadPermutation),
    (lambda: Diagonal((True, False)), BadPermutation),
    (lambda: Isotopism((0.5, 1), (0, 1), (0, 1)), BadPermutation),
    (lambda: as_transversal(cayley_table(3), ("0", "1", "2")), BadPermutation),
    (lambda: find(build_V(10), required=[(0.7, 0, 0)]), DomainError),
    (lambda: find(build_V(10), forbidden_cells=[(0.2, 0.9)]), DomainError),
    (lambda: find(build_V(10), forbidden_cells=[(True, False)]), DomainError),
    (lambda: find(build_V(10), required=[Entry(0.5, 0, 0)]), DomainError),
    (lambda: is_transversal(cayley_table(3), ("0", "1", "2")), BadPermutation),
    (lambda: is_transversal(cayley_table(3), (0.5, 1.2, 2.9)), BadPermutation),
    (lambda: is_transversal(cayley_table(3), (True, False, 2)), BadPermutation),
], ids=["diagonal-float", "diagonal-bool", "isotopism-float", "transversal-str",
        "required-float", "forbidden-float", "forbidden-bool", "required-entry-float",
        "is-transversal-str", "is-transversal-float", "is-transversal-bool"])
def test_non_integer_coordinates_rejected(call, error):
    """Coordinates follow the grid rule: Diagonal((0.5, 1)) kept cols (0.5, 1), the
    isotopism and the search constraints truncated 0.5 and 0.7 to 0, read True as 1,
    the transversal took the strings "0", "1", "2", an Entry's 0.5 ended in a bare
    TypeError, and is_transversal took the strings and truncated the floats."""
    with pytest.raises(error, match="must be integers"):
        call()


@pytest.mark.parametrize("call", [
    lambda: find(build_V(10), forbidden_cells=[(1,)]),
    lambda: find(build_V(10), required=[(1, 2)]),
    lambda: find(build_V(10), required=[(1, 2, 3, 4)]),
    lambda: find(build_V(10), forbidden_cells=[5]),
    lambda: find(build_V(10), required=[None]),
    lambda: block_of(5, 3),
    lambda: block_of((1, 2, 3, 4), 3),
    lambda: is_pinned(build_V(10), (1, 2)),
], ids=["forbidden-1", "required-2", "required-4", "forbidden-int", "required-none",
        "block_of-int", "block_of-4", "is_pinned-2"])
def test_malformed_cells_and_entries_rejected(call):
    """A cell is a pair and an entry a triple of integers; anything else, of another
    length or not a sequence at all, is a DomainError, not a bare ValueError or
    TypeError from unpacking it."""
    with pytest.raises(DomainError, match=r"must be (2|3|2 or 3) integers, got"):
        call()


def test_integer_coordinates_of_any_integer_type_accepted():
    sq = cayley_table(3)
    for cols in ((0, 1, 2), [0, 1, 2], np.array([0, 1, 2]), (np.int8(0), np.uint16(1), 2)):
        for diag in (Diagonal(cols), as_transversal(sq, cols)):
            assert diag.cols == (0, 1, 2) and set(map(type, diag.cols)) == {int}
        assert is_transversal(sq, cols)
    v10 = build_V(10)
    assert find(v10, required=[(np.int64(0), np.int32(1), v10[0, 1])]) == \
        find(v10, required=[(0, 1, v10[0, 1])])
    assert find(v10, forbidden_cells=[(np.int64(1), np.uint8(1))]) == \
        find(v10, forbidden_cells=[(1, 1)])


@pytest.mark.parametrize("order", ["2", 2.0, 2.7, True, None, [2]])
def test_json_order_must_be_an_integer(order):
    """`int(order)` took "2", 2.7 and true as order 2 (true as 1)."""
    with pytest.raises(ParseError, match="order is not an integer"):
        from_json(json.dumps({"order": order, "grid": [[0, 1], [1, 0]]}))
    assert from_json('{"order": 2, "grid": [[0, 1], [1, 0]]}').order == 2
