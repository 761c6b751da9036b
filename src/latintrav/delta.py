"""Delta analysis: row-extrema profiles, suitable diagonals, forced-entry certificates.

``delta(r, c, s) = s - r - c (mod n)`` represented in the half-open interval
``(-n/2, n/2]``.  Over any transversal the delta values sum to 0 mod n for odd
order and n/2 mod n for even order, so a diagonal of an even-order square
whose delta sum misses n/2 mod n cannot be a transversal.  A *suitable
diagonal* is a diagonal hitting that residue; every transversal is one.

The forced-entry certificate turns the row-extrema bookkeeping into a proof
that certain cells appear in every suitable diagonal: when the row maxima sum
to exactly n/2 and the -n/2 alternative is refuted, every suitable diagonal
must take a maximum-delta cell in every row, hence the unique row maxima are
unavoidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (
    DomainError,
    Entry,
    LatinSquare,
    LatinSquareError,
    _as_rcs,
    _at_least_one,
    _check_permutation,
    _is_permutation,
    diagonal_cols,
    is_transversal,
)


class OddOrder(LatinSquareError):
    """Suitable-diagonal machinery is only defined for even order."""


class NotBlockSquare(LatinSquareError):
    """The square does not have the 3x3 block structure of build_L."""


REFUTATION_MIN_SUM = "MinSumAboveThreshold"
REFUTATION_CLASH = "ForcedColumnClash"
REFUTATION_NONE = "NotRefuted"


def delta(entry, n: int) -> int:
    """Symmetric representative of s - r - c mod n in (-n/2, n/2]."""
    r, c, s = _as_rcs(entry)
    v = (s - r - c) % _at_least_one(n, "orders")
    return v - n if 2 * v > n else v


def delta_grid(square: LatinSquare) -> np.ndarray:
    """Per-cell delta values as a read-only matrix (cached) of a narrow signed type.

    int8 up to order 255, so every kernel order gets int8; int16 up to order
    16384, where s - r - c in [-2(n-1), n-1] still fits the int16 it is
    computed in; int32 above.  Its scalars wrap on overflow, so sum an array
    of them (``ndarray.sum`` accumulates in int64), not the scalars themselves.
    """
    cached = square._delta_grid
    if cached is not None:
        return cached
    n = square.order
    wide = np.int16 if n <= 1 << 14 else np.int32
    idx = np.arange(n, dtype=wide)
    v = np.subtract(square.to_array(), idx.reshape(-1, 1), dtype=wide)
    v -= idx
    v %= n
    np.subtract(v, n, out=v, where=v > n // 2)
    if n <= 255:
        v = v.astype(np.int8)
    v.setflags(write=False)
    square._delta_grid = v
    return v


def delta_sum(square: LatinSquare, diag) -> int:
    """Sum of delta over a diagonal's cells, reduced mod n into 0..n-1."""
    n = square.order
    cols = _check_permutation(diagonal_cols(diag), n, "diagonal columns")
    return int(delta_grid(square)[range(n), cols].sum() % n)


def is_suitable_diagonal(square: LatinSquare, diag) -> bool:
    """True iff `diag` is a valid diagonal whose delta sum is n/2 mod n."""
    n = square.order
    if n % 2:
        raise OddOrder(f"suitable diagonals are defined for even order only, got {n}")
    cols = diagonal_cols(diag)
    return _is_permutation(cols, n) and delta_sum(square, cols) == n // 2


@dataclass(frozen=True)
class DeltaProfile:
    """Per-row delta extrema plus their attaining entries and totals."""

    row_min: tuple[int, ...]
    row_max: tuple[int, ...]
    argmin: tuple[tuple[Entry, ...], ...]
    argmax: tuple[tuple[Entry, ...], ...]
    min_sum: int
    max_sum: int


def delta_profile(square: LatinSquare) -> DeltaProfile:
    dg = delta_grid(square)
    arr = square.to_array()
    row_min = dg.min(axis=1)
    row_max = dg.max(axis=1)
    argmin = []
    argmax = []
    for r in range(square.order):
        lo_cols = np.flatnonzero(dg[r] == row_min[r])
        hi_cols = np.flatnonzero(dg[r] == row_max[r])
        argmin.append(tuple(map(Entry, repeat(r), lo_cols.tolist(), arr[r, lo_cols].tolist())))
        argmax.append(tuple(map(Entry, repeat(r), hi_cols.tolist(), arr[r, hi_cols].tolist())))
    return DeltaProfile(
        row_min=tuple(int(v) for v in row_min),
        row_max=tuple(int(v) for v in row_max),
        argmin=tuple(argmin),
        argmax=tuple(argmax),
        min_sum=int(row_min.sum()),
        max_sum=int(row_max.sum()),
    )


@dataclass(frozen=True)
class ForcedCertificate:
    """Proof data that the unique row-maximum cells lie in every suitable diagonal.

    Valid iff the row maxima sum to exactly n/2 and the only other residue the
    diagonal sums could reach, -n/2, is refuted: either the row minima sum
    strictly above -n/2, or they reach it but two rows with uniquely attained
    minima collide in a column.
    """

    valid: bool
    forced: tuple[Entry, ...]
    max_sum: int
    min_sum: int
    refutation: str
    clash: tuple[Entry, Entry] | None = None

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "forced": [list(e.as_tuple()) for e in self.forced],
            "maxSum": self.max_sum,
            "minSum": self.min_sum,
            "refutation": self.refutation,
        }


def forced_entry_certificate(square: LatinSquare) -> ForcedCertificate:
    n = square.order
    if n % 2:
        raise OddOrder(f"forced-entry certificates need even order, got {n}")
    half = n // 2
    dg = delta_grid(square)
    row_min = dg.min(axis=1, keepdims=True)
    row_max = dg.max(axis=1, keepdims=True)
    min_sum = int(row_min.sum())
    max_sum = int(row_max.sum())
    at_min = dg == row_min
    at_max = dg == row_max
    refutation = REFUTATION_NONE
    clash = None
    if min_sum > -half:
        refutation = REFUTATION_MIN_SUM
    elif min_sum == -half:
        by_col: dict[int, Entry] = {}
        for r in np.flatnonzero(at_min.sum(axis=1) == 1).tolist():
            e = square.entry(r, int(at_min[r].argmax()))
            if e.col in by_col:
                refutation = REFUTATION_CLASH
                clash = (by_col[e.col], e)
                break
            by_col[e.col] = e
    valid = max_sum == half and refutation != REFUTATION_NONE
    forced = ()
    if valid:
        forced = tuple(square.entry(r, int(at_max[r].argmax()))
                       for r in np.flatnonzero(at_max.sum(axis=1) == 1).tolist())
    return ForcedCertificate(
        valid=valid,
        forced=forced,
        max_sum=max_sum,
        min_sum=min_sum,
        refutation=refutation,
        clash=clash,
    )


def delta_m(entry, m: int) -> int:
    """(row + col) mod m, the block-level residue for squares of order 3m."""
    r, c, _ = _as_rcs(entry)
    return (r + c) % _at_least_one(m, "block sizes m")


def special_symbol_delta_check(square: LatinSquare, transversal, m: int) -> bool:
    """Check the delta_m pattern a transversal of the block square must satisfy.

    The entries carrying symbols {0, 2m-1, 3m-1} must split as one with
    delta_m = 0 and two with delta_m = m-1; every other symbol s pins
    delta_m to s mod m within its m-block of the symbol range.
    """
    from .families import build_family  # deferred; families depends on this module

    arr = square.to_array()
    if square.order != 3 * m or not np.array_equal(arr, build_family("L", m=m).to_array()):
        raise NotBlockSquare(f"square is not the order-{3 * m} block square")
    cols = diagonal_cols(transversal)
    if not is_transversal(square, cols):
        raise DomainError("argument is not a transversal of the square")
    special = {0, 2 * m - 1, 3 * m - 1}
    zeros = 0
    tops = 0
    for r, (c, s) in enumerate(zip(cols, arr[range(3 * m), cols].tolist())):
        dm = (r + c) % m
        if s in special:
            if dm == 0:
                zeros += 1
            elif dm == m - 1:
                tops += 1
            else:
                return False
        elif s < m:
            if dm != s:
                return False
        elif s < 2 * m - 1:
            if dm != s - m:
                return False
        else:
            if dm != s - 2 * m:
                return False
    return zeros == 1 and tops == 2
