"""Square families with controlled transversal structure.

Three even-order families carry floor(n/6) cells that every suitable diagonal
(hence every transversal) must use:

* ``T``: order n = 6k, k >= 2
* ``U``: order n = 6k+2, k >= 2
* ``V``: order n = 6k+4, k >= 1

``L`` is an odd-order family (n = 3m, m odd >= 3) tiled by nine m x m
subsquares that every transversal must hit.  ``EX6``/``EX8`` are fixed order-6
and order-8 squares with large transversal-free regions.

Each grid is defined by a list of cases over the cell coordinates (a, b),
evaluated top to bottom with the first match winning.  The cases are intended
to be mutually exclusive; builders verify that and fail loudly on overlap.
All column/symbol arithmetic is reduced mod n after evaluating over the
integers, while mod-2 / mod-3 guards read the plain representatives 0..n-1.
"""

from __future__ import annotations

import numpy as np

from .core import (
    KNOWN_FAMILIES,
    CaseOverlap,
    DomainError,
    Entry,
    LatinSquare,
    Transversal,
    as_transversal,
)

# The families build_family constructs: every known tag but a user's own square.
FAMILIES = tuple(f for f in KNOWN_FAMILIES if f != "CUSTOM")

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


def family_k(family: str, n: int) -> int:
    """Validate (family, n) for T/U/V and return k = floor(n/6)."""
    if family not in ("T", "U", "V"):
        raise DomainError(f"pinned-entry families are T, U and V, got {family!r}")
    residue = {"T": 0, "U": 2, "V": 4}[family]
    minimum = {"T": 12, "U": 14, "V": 10}[family]
    if n % 6 != residue or n < minimum:
        raise DomainError(
            f"family {family} needs order n ≡ {residue} (mod 6), n >= {minimum}; got {n}"
        )
    return n // 6


def family_of_order(n: int) -> str:
    """The T/U/V family covering an even order n >= 10."""
    if n < 10 or n % 2:
        raise DomainError(f"pinned-entry families cover even orders >= 10, got {n}")
    return {0: "T", 2: "U", 4: "V"}[n % 6]


def _cells(n: int, coords) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    for r, c in coords:
        mask[r, c] = True
    return mask


def _first_match_grid(n: int, conds, offsets, family: str) -> LatinSquare:
    """Base grid (a+b) plus the offset of the first matching case, all mod n."""
    conds = [np.broadcast_to(cond, (n, n)) for cond in conds]
    overlap = sum(cond.astype(np.int64) for cond in conds)
    if (overlap > 1).any():
        r, c = map(int, np.argwhere(overlap > 1)[0])
        hits = [i for i, cond in enumerate(conds) if cond[r, c]]
        raise CaseOverlap(f"family {family}, order {n}: cases {hits} all match cell ({r},{c})")
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    off = np.select(conds, offsets, default=0)
    return LatinSquare((a + b + off) % n, family=family)


def build_T(n: int) -> LatinSquare:
    """Order n = 6k (k >= 2) square with k forced cells."""
    k = family_k("T", n)
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    mid = (a >= 4) & (a <= 3 * k - 3)
    conds = [
        _cells(n, [(0, 2), (1, 0)]),
        _cells(n, [(0, 1), (2, 1)]),
        _cells(n, [(1, 1), (1, 2), (2, 2), (3, 1)]),
        _cells(n, [(3, 0)]),
        (b > 1) & (b % 3 == 1) & (a == 0),
        (b > 1) & (b % 3 == 1) & (a == 3),
        mid & (a % 3 == 0) & (b % 2 == 0),
        mid & (a % 3 == 1) & (b % 2 == 0) & (b != (n - 2 * a + 2) % n),
        mid & (a % 3 == 1) & ((b == (n - 2 * a + 3) % n) | (b == (n - 2 * a + 2) % n)),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 4) % n),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 5) % n),
    ]
    offsets = [2, 1, -1, -2, 3, -3, -2, 2, 1, 1, -1]
    return _first_match_grid(n, conds, offsets, "T")


def build_U(n: int) -> LatinSquare:
    """Order n = 6k+2 (k >= 2) square with k forced cells."""
    k = family_k("U", n)
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    mid = (a >= 5) & (a <= 3 * k - 2)
    conds = [
        _cells(n, [(1, 3), (2, 5), (3, 4)]),
        _cells(n, [(1, 4), (2, 4), (3, 5), (4, 3), (4, 4)]),
        _cells(n, [(0, 4), (2, 3)]),
        (b != 4) & (b % 2 == 0) & (a == 2),
        ((b > 3) & (b % 3 == 0) & (a == 0)) | _cells(n, [(0, 1)]),
        ((b > 3) & (b % 3 == 0) & (a == 3)) | _cells(n, [(3, 1)]),
        ((b != 4) & (b % 2 == 0) & (a == 4)) | _cells(n, [(3, 3)]),
        mid & (a % 3 == 2) & (b % 2 == 0) & (b != (n - 2 * a + 4) % n),
        mid & (a % 3 == 2) & ((b == (n - 2 * a + 4) % n) | (b == (n - 2 * a + 5) % n)),
        mid & (a % 3 == 0) & (b == (n - 2 * a + 6) % n),
        mid & (a % 3 == 0) & (b == (n - 2 * a + 7) % n),
        mid & (a % 3 == 1) & (b % 2 == 0),
    ]
    offsets = [1, -1, 2, 2, 3, -3, -2, 2, 1, 1, -1, -2]
    return _first_match_grid(n, conds, offsets, "U")


def build_V(n: int) -> LatinSquare:
    """Order n = 6k+4 (k >= 1) square with k forced cells."""
    k = family_k("V", n)
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    mid = (a >= 4) & (a <= 3 * k)
    conds = [
        _cells(n, [(1, 1), (1, 2)]),
        _cells(n, [(3, 0), (3, 2)]),
        _cells(n, [(0, 1)]),
        _cells(n, [(1, 0)]),
        (b % 3 == 2) & (a == 0),
        (b > 2) & (b % 3 == 2) & (a == 3),
        mid & (a % 3 == 0) & (b % 2 == 0),
        mid & (a % 3 == 1) & (b % 2 == 0) & (b != (n - 2 * a + 2) % n),
        mid & (a % 3 == 1) & ((b == (n - 2 * a + 2) % n) | (b == (n - 2 * a + 3) % n)),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 4) % n),
        mid & (a % 3 == 2) & (b == (n - 2 * a + 5) % n),
    ]
    offsets = [-1, -2, 1, 2, 3, -3, -2, 2, 1, 1, -1]
    return _first_match_grid(n, conds, offsets, "V")


def build_L(m: int) -> LatinSquare:
    """Order n = 3m square (m odd >= 3) tiled by nine m x m latin subsquares.

    Block (i, j) holds the symbol band determined by (i + j) mod 3, with the
    band's top symbol replaced by one of {0, 2m-1, 3m-1} on a single broken
    diagonal.  Blocks are indexed 1..3; within the base band the symbol at
    local cell (a, b) is (a + b) mod m plus the band offset.
    """
    if m < 3 or m % 2 == 0:
        raise DomainError(f"block square needs odd m >= 3, got {m}")
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
    choices = [v, v + m, v + 2 * m,
               0, 2 * m - 1, 3 * m - 1,
               0, 2 * m - 1, 3 * m - 1]
    overlap = sum(cond.astype(np.int64) for cond in conds)
    if (overlap != 1).any():
        rr, cc = map(int, np.argwhere(overlap != 1)[0])
        raise CaseOverlap(f"family L, m={m}: cell ({rr},{cc}) matched {int(overlap[rr, cc])} cases")
    grid = np.select(conds, choices)
    return LatinSquare(grid, family="L")


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


def build_family(family: str, n: int | None = None, m: int | None = None) -> LatinSquare:
    """Dispatch on the family tag; T/U/V/EX*/CAYLEY take n, L takes m."""
    if family == "CAYLEY":
        from .core import cayley_table

        return cayley_table(_need(n, "order"))
    if family == "T":
        return build_T(_need(n, "order"))
    if family == "U":
        return build_U(_need(n, "order"))
    if family == "V":
        return build_V(_need(n, "order"))
    if family == "L":
        if m is None and n is not None:
            if n % 3 or (n // 3) % 2 == 0 or n < 9:
                raise DomainError(f"family L covers orders 3m for odd m >= 3, got {n}")
            m = n // 3
        return build_L(_need(m, "m"))
    if family in ("EX6", "EX8"):
        fixed = 6 if family == "EX6" else 8
        if n is not None and n != fixed:
            raise DomainError(f"family {family} has order {fixed}, got {n}")
        return build_exceptional(fixed)
    raise DomainError(f"unknown family {family!r} (use one of {FAMILIES})")


def _need(value, name):
    if value is None:
        raise DomainError(f"missing required parameter --{name}")
    return value


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


# Columns of each family's explicit transversal; build_family checks the order.
_WITNESS_COLS = {
    "T": _cols_T,
    "U": _cols_U,
    "V": _cols_V,
    "L": lambda n: _cols_L(n // 3),
    "EX6": lambda n: _EX6_TRANSVERSAL,
    "EX8": lambda n: _EX8_TRANSVERSAL,
}


def witness_transversal(family: str, n: int) -> Transversal:
    """The family's explicit transversal, verified against the built square."""
    if family not in _WITNESS_COLS:
        raise DomainError(f"unknown family {family!r}")
    return as_transversal(build_family(family, n), _WITNESS_COLS[family](n))


def claimed_pinned_entries(family: str, n: int) -> tuple[Entry, ...]:
    """The floor(n/6) cells every suitable diagonal of the family square uses.

    Computed from the forced-entry certificate rather than by pattern; the
    certificate is the operational definition and the count is checked here.
    """
    return _pinned_square(family, n)[1]


def _pinned_square(family: str, n: int) -> tuple[LatinSquare, tuple[Entry, ...]]:
    """The T/U/V square and its certified forced cells, exactly floor(n/6) of them."""
    from .delta import forced_entry_certificate

    if family not in ("T", "U", "V"):
        raise DomainError(f"pinned-entry claims exist for T/U/V, got {family!r}")
    square = build_family(family, n)
    cert = forced_entry_certificate(square)
    k = n // 6
    if not cert.valid or len(cert.forced) != k:
        raise DomainError(
            f"certificate for {family}{n} is {'valid' if cert.valid else 'invalid'} "
            f"with {len(cert.forced)} forced cells, expected {k}"
        )
    return square, cert.forced
