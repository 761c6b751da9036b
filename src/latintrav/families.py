"""Square families with controlled transversal structure.

Three even-order families carry floor(n/6) cells that every suitable diagonal
(hence every transversal) must use:

* ``T``: order n = 6k, k >= 2
* ``U``: order n = 6k+2, k >= 2
* ``V``: order n = 6k+4, k >= 1

``L`` is an odd-order family (n = 3m, m odd >= 3) tiled by nine m x m
subsquares that every transversal must hit.  ``EX6``/``EX8`` are fixed order-6
and order-8 squares with large transversal-free regions.

Each T/U/V grid is the base grid a + b plus an offset given by a list of
cases over the cell coordinates (a, b).  A case names the rows it can match
(one row, a run of rows a = residue mod 3, or the rows of its listed cells)
and its condition is evaluated over those rows only, so a build holds the
grid, an int8 offset and an int8 hit count per cell and no per-case n x n
mask.  The cases are mutually exclusive; builders count the hits per cell and
fail loudly on overlap.  All column/symbol arithmetic is reduced mod n after
evaluating over the integers, while mod-2 / mod-3 guards read the plain
representatives 0..n-1.  ``L`` is filled block by block from one circulant.

``build_family`` dispatches on one table of the families (order rule, builder,
witness columns) and hands out the square some caller already holds for the
same family and order, so repeated claims about one square build it once.
"""

from __future__ import annotations

import weakref
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    CaseOverlap,
    DomainError,
    Entry,
    LatinSquare,
    Transversal,
    _require_integers,
    as_transversal,
    cayley_table,
)

# Order-6 square: 16 cells are in no transversal, yet transversals exist.
_EX6_GRID = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 3, 4, 5, 2),
    (2, 3, 1, 5, 0, 4),
    (3, 5, 4, 1, 2, 0),
    (4, 2, 5, 0, 1, 3),
    (5, 4, 0, 2, 3, 1),
)
_EX6_TRANSVERSAL = (0, 2, 5, 1, 4, 3)
_EX6_FREE = (
    (0, 3), (0, 5),
    (1, 1), (1, 4), (1, 5),
    (2, 2), (2, 3), (2, 4),
    (3, 0), (3, 2), (3, 3),
    (4, 0), (4, 1), (4, 5),
    (5, 1), (5, 2),
)

# Order-8 square and its 25 transversal-free cells, as printed in the source.
# The claim is refuted: (7, 1) and (7, 2) lie on transversals, and exhaustive
# search finds 28 free cells in this grid, adding (4, 6) and (7, 4)..(7, 7).
_EX8_GRID = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 1, 0, 7, 6, 4, 5),
    (3, 2, 6, 7, 0, 1, 5, 4),
    (4, 7, 5, 1, 6, 3, 2, 0),
    (5, 4, 7, 6, 3, 2, 0, 1),
    (6, 5, 0, 4, 2, 7, 1, 3),
    (7, 6, 4, 5, 1, 0, 3, 2),
)
_EX8_TRANSVERSAL = (4, 7, 1, 6, 3, 5, 2, 0)
_EX8_FREE = (
    (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 2), (3, 3), (3, 4), (3, 5),
    (4, 0), (4, 1), (4, 2), (4, 5), (4, 7),
    (5, 0), (5, 1), (5, 2), (5, 3),
    (6, 0), (6, 1), (6, 3), (6, 4), (6, 6), (6, 7),
    (7, 1), (7, 2),
)


# The pinned-entry families: each one's order residue mod 6 and least order.
_TUV = {"T": (0, 12), "U": (2, 14), "V": (4, 10)}
PINNED_FAMILIES = tuple(_TUV)


def family_k(family: str, n: int) -> int:
    """Validate (family, n) for T/U/V and return k = floor(n/6)."""
    _require_integers((type(n),), DomainError, "orders")
    if family not in _TUV:
        raise DomainError(f"pinned-entry families are T, U and V, got {family!r}")
    residue, minimum = _TUV[family]
    if n % 6 != residue or n < minimum:
        raise DomainError(
            f"family {family} needs order n ≡ {residue} (mod 6), n >= {minimum}; got {n}"
        )
    return n // 6


def family_of_order(n: int) -> str:
    """The T/U/V family covering an even order n >= 10."""
    _require_integers((type(n),), DomainError, "orders")
    if n < 10 or n % 2:
        raise DomainError(f"pinned-entry families cover even orders >= 10, got {n}")
    return next(f for f, (residue, _) in _TUV.items() if n % 6 == residue)


class _Case(NamedTuple):
    """Cells (a, b) with a in ``rows`` and ``when(a, b)`` true get ``offset``."""

    rows: slice
    when: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (rows x 1, 1 x n) -> mask
    offset: int


def _mid(lo: int, hi: int, residue: int) -> slice:
    """The rows a with lo <= a <= hi and a = residue (mod 3)."""
    return slice(lo + (residue - lo) % 3, hi + 1, 3)


def _row(a: int) -> slice:
    return slice(a, a + 1)


def _cells(offset: int, *coords: tuple[int, int]) -> _Case:
    """A case matching exactly the listed cells, confined to the rows they span."""
    rows = [r for r, _ in coords]

    def when(a, b):
        mask = np.zeros((a.size, b.size), dtype=bool)
        for r, c in coords:
            mask[a[:, 0] == r, c] = True
        return mask

    return _Case(slice(min(rows), max(rows) + 1), when, offset)


def _case_grid(n: int, cases: Sequence[_Case], family: str) -> LatinSquare:
    """Base grid (a+b) plus the offset of the one matching case, all mod n.

    Each case is evaluated over its own rows only; a cell matched by two cases
    raises CaseOverlap.
    """
    idx = np.arange(n, dtype=np.int64)
    b = idx.reshape(1, -1)
    off = np.zeros((n, n), dtype=np.int8)
    hits = np.zeros((n, n), dtype=np.int8)
    for rows, when, offset in cases:
        mask = when(idx[rows, None], b)
        np.copyto(off[rows], offset, where=mask)
        hits[rows] += mask
    if (hits > 1).any():
        r, c = map(int, np.argwhere(hits > 1)[0])
        row = idx[r:r + 1, None]
        matched = [i for i, (rows, when, _) in enumerate(cases)
                   if r in range(n)[rows] and np.broadcast_to(when(row, b), (1, n))[0, c]]
        raise CaseOverlap(f"family {family}, order {n}: cases {matched} all match cell ({r},{c})")
    grid = np.add.outer(idx, idx)
    grid += off
    grid %= n
    return LatinSquare._adopt(grid, family=family)


def build_T(n: int) -> LatinSquare:
    """Order n = 6k (k >= 2) square with k forced cells."""
    k = family_k("T", n)
    lo, hi = 4, 3 * k - 3
    return _case_grid(n, [
        _cells(2, (0, 2), (1, 0)),
        _cells(1, (0, 1), (2, 1)),
        _cells(-1, (1, 1), (1, 2), (2, 2), (3, 1)),
        _cells(-2, (3, 0)),
        _Case(_row(0), lambda a, b: (b > 1) & (b % 3 == 1), 3),
        _Case(_row(3), lambda a, b: (b > 1) & (b % 3 == 1), -3),
        _Case(_mid(lo, hi, 0), lambda a, b: b % 2 == 0, -2),
        _Case(_mid(lo, hi, 1), lambda a, b: (b % 2 == 0) & (b != (n - 2 * a + 2) % n), 2),
        _Case(_mid(lo, hi, 1),
              lambda a, b: (b == (n - 2 * a + 3) % n) | (b == (n - 2 * a + 2) % n), 1),
        _Case(_mid(lo, hi, 2), lambda a, b: b == (n - 2 * a + 4) % n, 1),
        _Case(_mid(lo, hi, 2), lambda a, b: b == (n - 2 * a + 5) % n, -1),
    ], "T")


def build_U(n: int) -> LatinSquare:
    """Order n = 6k+2 (k >= 2) square with k forced cells."""
    k = family_k("U", n)
    lo, hi = 5, 3 * k - 2
    return _case_grid(n, [
        _cells(1, (1, 3), (2, 5), (3, 4)),
        _cells(-1, (1, 4), (2, 4), (3, 5), (4, 3), (4, 4)),
        _cells(2, (0, 4), (2, 3)),
        _Case(_row(2), lambda a, b: (b != 4) & (b % 2 == 0), 2),
        _Case(_row(0), lambda a, b: (b > 3) & (b % 3 == 0), 3),
        _cells(3, (0, 1)),
        _Case(_row(3), lambda a, b: (b > 3) & (b % 3 == 0), -3),
        _cells(-3, (3, 1)),
        _Case(_row(4), lambda a, b: (b != 4) & (b % 2 == 0), -2),
        _cells(-2, (3, 3)),
        _Case(_mid(lo, hi, 2), lambda a, b: (b % 2 == 0) & (b != (n - 2 * a + 4) % n), 2),
        _Case(_mid(lo, hi, 2),
              lambda a, b: (b == (n - 2 * a + 4) % n) | (b == (n - 2 * a + 5) % n), 1),
        _Case(_mid(lo, hi, 0), lambda a, b: b == (n - 2 * a + 6) % n, 1),
        _Case(_mid(lo, hi, 0), lambda a, b: b == (n - 2 * a + 7) % n, -1),
        _Case(_mid(lo, hi, 1), lambda a, b: b % 2 == 0, -2),
    ], "U")


def build_V(n: int) -> LatinSquare:
    """Order n = 6k+4 (k >= 1) square with k forced cells."""
    k = family_k("V", n)
    lo, hi = 4, 3 * k
    return _case_grid(n, [
        _cells(-1, (1, 1), (1, 2)),
        _cells(-2, (3, 0), (3, 2)),
        _cells(1, (0, 1)),
        _cells(2, (1, 0)),
        _Case(_row(0), lambda a, b: b % 3 == 2, 3),
        _Case(_row(3), lambda a, b: (b > 2) & (b % 3 == 2), -3),
        _Case(_mid(lo, hi, 0), lambda a, b: b % 2 == 0, -2),
        _Case(_mid(lo, hi, 1), lambda a, b: (b % 2 == 0) & (b != (n - 2 * a + 2) % n), 2),
        _Case(_mid(lo, hi, 1),
              lambda a, b: (b == (n - 2 * a + 2) % n) | (b == (n - 2 * a + 3) % n), 1),
        _Case(_mid(lo, hi, 2), lambda a, b: b == (n - 2 * a + 4) % n, 1),
        _Case(_mid(lo, hi, 2), lambda a, b: b == (n - 2 * a + 5) % n, -1),
    ], "V")


def _odd_block_size(m) -> int:
    """``m`` as an int when it is an odd integer >= 3: `build_L`'s and its symmetries' rule."""
    _require_integers((type(m),), DomainError, "block sizes m")
    if m < 3 or m % 2 == 0:
        raise DomainError(f"block square needs odd m >= 3, got {m}")
    return int(m)


def build_L(m: int) -> LatinSquare:
    """Order n = 3m square (m odd >= 3) tiled by nine m x m latin subsquares.

    Block (i, j), indexed 0..2, is the circulant (a + b) mod m of its local
    cell (a, b) shifted into the symbol band (i + j) mod 3, that is by
    m * ((i + j) mod 3).  One broken diagonal of the block, a + b = 0 (mod m)
    in band 0 and a + b = m - 1 (mod m) in the other two, carries the special
    symbol (0, 2m-1, 3m-1)[(j - i) mod 3] in place of the band's bottom or
    top symbol.
    """
    m = _odd_block_size(m)
    n = 3 * m
    local = np.arange(m, dtype=np.int64)
    circulant = np.add.outer(local, local) % m
    diagonals = (circulant == 0, circulant == m - 1)
    specials = (0, 2 * m - 1, 3 * m - 1)
    grid = np.empty((n, n), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            band = (i + j) % 3
            block = grid[i * m:(i + 1) * m, j * m:(j + 1) * m]
            np.add(circulant, band * m, out=block)
            block[diagonals[band != 0]] = specials[(j - i) % 3]
    return LatinSquare._adopt(grid, family="L")


def build_exceptional(n: int) -> LatinSquare:
    if n == 6:
        return LatinSquare(_EX6_GRID, family="EX6")
    if n == 8:
        return LatinSquare(_EX8_GRID, family="EX8")
    raise DomainError(f"exceptional squares exist for n in {{6, 8}}, got {n}")


def claimed_free_cells(n: int) -> frozenset[tuple[int, int]]:
    """The transversal-free cell set claimed for the order-6/8 squares.

    Both sets are as printed in the source.  The order-6 claim checks out
    exactly; the order-8 claim is refuted by (7, 1) and (7, 2), which lie on
    transversals of the printed grid.
    """
    if n == 6:
        return frozenset(_EX6_FREE)
    if n == 8:
        return frozenset(_EX8_FREE)
    raise DomainError(f"free-cell claims exist for n in {{6, 8}}, got {n}")


def _cols_T(n: int) -> list[int]:
    k = n // 6
    cols = []
    for a in range(n):
        if a == 0:
            c = 4
        elif a in (1, 2, 3):
            c = a - 1
        elif a <= 3 * k - 1 and a % 3 != 0:
            c = n - 2 * a + 4
        elif a <= 3 * k - 1:
            c = n - 2 * a + 7
        elif a % 3 == 0:
            c = n - 2 * a + 3
        elif a == 3 * k + 1 or a % 3 == 2:
            c = n - 2 * a + 9
        else:
            c = n - 2 * a + 6
        cols.append(c % n)
    return cols


def _cols_U(n: int) -> list[int]:
    k = (n - 2) // 6
    fixed = {0: 1, 3: 4, 4: 5, 1: 3, 2: 8,
             3 * k + 6: 2, 3 * k + 1: 6, 3 * k + 3: 7, 6 * k - 1: 9, 3 * k: 11}
    cols = []
    for a in range(n):
        if a in fixed:
            c = fixed[a]
        elif (5 <= a < 3 * k and a % 3 != 1) or a == 3 * k + 4:
            c = n - 2 * a + 6
        elif 5 <= a < 3 * k:
            c = n - 2 * a + 9
        elif 3 * k + 7 <= a and a % 3 == 0:
            c = n - 2 * a + 13
        elif 3 * k + 7 <= a and a % 3 == 1:
            c = n - 2 * a + 10
        elif 3 * k + 2 <= a <= 6 * k - 4 and a % 3 == 2:
            c = n - 2 * a + 1
        else:
            raise AssertionError(f"row {a} not covered for order {n}")
        cols.append(c % n)
    return cols


def _cols_V(n: int) -> list[int]:
    k = (n - 4) // 6
    fixed = {0: 2, 1: 0, 2: 6, 3: 1, 3 * k + 5: 4}
    cols = []
    for a in range(n):
        if a in fixed:
            c = fixed[a]
        elif a in (3 * k + 1, 3 * k + 2, 3 * k + 3):
            c = n - 2 * a + 5
        elif 4 <= a <= 3 * k and a % 3 != 0:
            c = n - 2 * a + 4
        elif 4 <= a <= 3 * k:
            c = n - 2 * a + 7
        elif 3 * k + 6 <= a and a % 3 == 0:
            c = n - 2 * a + 6
        elif 3 * k + 4 <= a and a % 3 == 1:
            c = n - 2 * a + 3
        elif 3 * k + 8 <= a and a % 3 == 2:
            c = n - 2 * a + 9
        else:
            raise AssertionError(f"row {a} not covered for order {n}")
        cols.append(c % n)
    return cols


_COLS_L9 = [1, 4, 7, 8, 0, 3, 6, 5, 2]


def _cols_L(m: int) -> list[int]:
    n = 3 * m
    if m == 3:
        return list(_COLS_L9)
    if m % 3 == 0:
        t = m // 3
        cols = []
        for a in range(n):
            if a < t:
                c = 2 * t - 2 * (a + 1)
            elif a < 2 * t:
                c = 4 * t + a
            elif a < m:
                c = 4 * m - 2 * a - 1
            elif a < 4 * t:
                c = a - t
            elif a < 5 * t:
                c = 13 * t - 2 * a - 1
            elif a < 2 * m:
                c = 6 * m - 2 * (a + 1)
            elif a < 7 * t:
                c = 14 * t - 2 * a - 1
            elif a < 8 * t:
                c = 19 * t - 2 * (a + 1)
            else:
                c = a
            cols.append(c % n)
        return cols
    h = (m + 1) // 2
    cols = []
    for a in range(n):
        if a % 3 == 0:
            c = -a * h
        elif a % 3 == 1:
            c = -2 * a
        else:
            c = m - a * h
        cols.append(c % n)
    return cols


def _need(value, name):
    if value is None:
        raise DomainError(f"missing required parameter --{name}")
    return value


def _no_m(family: str, m: int | None) -> None:
    if m is not None:
        raise DomainError(f"--m applies to family L only, got family {family}")


def _given_order(family: str, n: int | None, m: int | None) -> int:
    """T, U, V and CAYLEY take the order as given; their builders check it."""
    _no_m(family, m)
    return _need(n, "order")


def _block_order(family: str, n: int | None, m: int | None) -> int:
    """L takes m, or an order 3m; both only when they agree."""
    if m is not None:
        if n is not None and n != 3 * m:
            raise DomainError(f"family L with m = {m} has order {3 * m}, got {n}")
        return 3 * m
    if n is not None and (n % 3 or (n // 3) % 2 == 0 or n < 9):
        raise DomainError(f"family L covers orders 3m for odd m >= 3, got {n}")
    return _need(n, "m")


def _fixed_order(order: int):
    def rule(family: str, n: int | None, m: int | None) -> int:
        _no_m(family, m)
        if n is not None and n != order:
            raise DomainError(f"family {family} has order {order}, got {n}")
        return order
    return rule


class _Family(NamedTuple):
    order: Callable[[str, int | None, int | None], int]  # (family, n, m) -> the order
    build: Callable[[int], LatinSquare]                   # the square of that order
    witness_cols: Callable[[int], Sequence[int]] | None   # its explicit transversal


_FAMILIES = {
    "T": _Family(_given_order, build_T, _cols_T),
    "U": _Family(_given_order, build_U, _cols_U),
    "V": _Family(_given_order, build_V, _cols_V),
    "L": _Family(_block_order, lambda n: build_L(n // 3), lambda n: _cols_L(n // 3)),
    "EX6": _Family(_fixed_order(6), build_exceptional, lambda n: _EX6_TRANSVERSAL),
    "EX8": _Family(_fixed_order(8), build_exceptional, lambda n: _EX8_TRANSVERSAL),
    "CAYLEY": _Family(_given_order, cayley_table, None),
}
# The families build_family constructs: every known tag but a user's own square.
FAMILIES = tuple(_FAMILIES)

# The squares some caller still holds, by (family, order).  Two threads that
# miss at once each build a valid square; the later one is kept.
_LIVE = weakref.WeakValueDictionary()


def build_family(family: str, n: int | None = None, m: int | None = None) -> LatinSquare:
    """The family's square: T/U/V/EX*/CAYLEY take the order n, L takes m or n = 3m.

    While a caller holds the square of the same family and order, that square
    is returned; otherwise a new one is built and validated.  Squares are
    immutable, so sharing one is safe, and none outlives its last holder.
    Raises DomainError for an unknown family, an order the family does not
    cover, ``m`` for a family other than L, or an ``n`` and ``m`` that disagree.
    """
    spec = _FAMILIES.get(family)
    if spec is None:
        raise DomainError(f"unknown family {family!r} (use one of {FAMILIES})")
    # before the lookup: order 12.0 would find a live T12
    _require_integers({type(v) for v in (n, m) if v is not None}, DomainError, "orders and m")
    order = spec.order(family, n, m)
    square = _LIVE.get((family, order))
    if square is None:
        square = _LIVE[family, order] = spec.build(order)
    return square


def witness_transversal(family: str, n: int) -> Transversal:
    """The family's explicit transversal, verified against the built square."""
    spec = _FAMILIES.get(family)
    if spec is None or spec.witness_cols is None:
        raise DomainError(f"unknown family {family!r}")
    square = build_family(family, n)
    return as_transversal(square, spec.witness_cols(square.order))


def claimed_pinned_entries(family: str, n: int) -> tuple[Entry, ...]:
    """The floor(n/6) cells every suitable diagonal of the family square uses.

    Computed from the forced-entry certificate rather than by pattern; the
    certificate is the operational definition and the count is checked here.
    """
    return _pinned_square(family, n)[1]


def _pinned_square(family: str, n: int) -> tuple[LatinSquare, tuple[Entry, ...]]:
    """The T/U/V square and its certified forced cells, exactly floor(n/6) of them."""
    from .delta import forced_entry_certificate

    k = family_k(family, n)
    square = build_family(family, n)
    cert = forced_entry_certificate(square)
    if not cert.valid or len(cert.forced) != k:
        raise DomainError(
            f"certificate for {family}{n} is {'valid' if cert.valid else 'invalid'} "
            f"with {len(cert.forced)} forced cells, expected {k}"
        )
    return square, cert.forced
