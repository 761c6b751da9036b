"""Transversal-free lower-bound sets for the T/U/V families.

Every transversal of a family square must take the maximum-delta cell in each
row (the row maxima sum to exactly n/2), so three kinds of cells can never be
used: cells that miss their row's maximum delta in designated rows (M = P u Q
u R), cells sharing a column with a forced cell (N), and cells sharing a
symbol with one (O).  Each set is made as a boolean (n, n) mask over the
square's cells, one at a time, and ORed into one union mask M u N u O, less
F, whose count is compared against the family's closed-form quadratic bound;
the case analysis behind the closed form is validated as a consequence, not
re-derived.  `bound_sets` lists the same masks' cells, less F, as entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import DomainError, Entry, LatinSquare, LatinSquareError
from .delta import delta_grid
from .engine import FREE, ClassificationReport
from .families import _pinned_square, family_k


class PartialReport(LatinSquareError):
    """The classification report is incomplete; subset checks need all cells."""


# (b, c) of each family's closed form (19n^2 - bn + c)/36.
_CLOSED_FORMS = {"T": (51, 36), "U": (73, -182), "V": (86, -68)}


def lower_bound_formula(family: str, n: int) -> Fraction:
    """The family's closed-form lower bound on tau; may be half-integral."""
    family_k(family, n)  # DomainError unless T, U or V at a valid order
    b, c = _CLOSED_FORMS[family]
    return Fraction(19 * n * n - b * n + c, 36)


def lower_bound(family: str, n: int) -> int:
    """Integer bound: tau is an integer, so the ceiling of the closed form."""
    return math.ceil(lower_bound_formula(family, n))


@dataclass(frozen=True)
class BoundSets:
    """The materialized transversal-free sets of one family square."""

    family: str
    n: int
    pinned: tuple[Entry, ...]          # F: the forced cells themselves
    columns: frozenset[int]            # C: columns of F
    symbols: frozenset[int]            # S: symbols of F
    N: frozenset[Entry]                # column-sharing cells, minus F
    O: frozenset[Entry]                # symbol-sharing cells, minus F
    P: frozenset[Entry]
    Q: frozenset[Entry]
    R: frozenset[Entry]

    @property
    def M(self) -> frozenset[Entry]:
        return self.P | self.Q | self.R

    @property
    def union(self) -> frozenset[Entry]:
        return self.M | self.N | self.O

    @property
    def union_size(self) -> int:
        return len(self.union)

    @property
    def formula_value(self) -> Fraction:
        return lower_bound_formula(self.family, self.n)


def _off_max_rows(family: str, k: int) -> tuple[list[tuple[int, int]], ...]:
    """(row, required-delta) pairs for the P, Q, R row slices."""
    if family == "T":
        p = [(3 * u - 2, 2) for u in range(1, k)]
        q = [(3 * u - 1, 1) for u in range(1, k)]
        r = [(3 * u, 0) for u in range(2, k)]
    elif family == "V":
        p = [(3 * u - 2, 2) for u in range(1, k + 1)]
        q = [(3 * u - 1, 1) for u in range(2, k + 1)]
        r = [(3 * u, 0) for u in range(2, k + 1)]
    else:  # U
        p = [(3 * u - 1, 2) for u in range(2, k)]
        q = [(1, 1)] + [(3 * u, 1) for u in range(1, k)]
        r = [(3 * u + 1, 0) for u in range(2, k)]
    return p, q, r


def _column_symbol_sets(family: str, n: int, k: int) -> tuple[set[int], set[int]]:
    if family == "T":
        cols = {(6 * u) % n for u in range(2, k + 1)} | {1}
        syms = {(3 * u) % n for u in range(k + 3, 2 * k + 2)} | {4}
    elif family == "V":
        cols = {(6 * (k - u + 1) + 4) % n for u in range(1, k + 1)}
        syms = {(3 * u + 1) % n for u in range(k + 3, 2 * k + 2)} | {3}
    else:  # U
        cols = {6 * u + 2 for u in range(2, k)} | {3, 4}
        syms = {(3 * u) % n for u in range(k + 4, 2 * k + 2)} | {5, 8}
    return cols, syms


def _forced_cells(family: str, n: int) -> tuple[LatinSquare, tuple[Entry, ...]]:
    """The square and its forced cells F, checked against the family's column and symbol sets."""
    k = family_k(family, n)
    square, pinned = _pinned_square(family, n)
    cols, syms = _column_symbol_sets(family, n, k)
    if cols != {e.col for e in pinned} or syms != {e.sym for e in pinned}:
        raise DomainError(
            f"{family}{n}: column/symbol sets disagree with the forced cells")
    return square, pinned


def _masks(family: str, square: LatinSquare,
           pinned: tuple[Entry, ...]) -> Iterator[tuple[str, np.ndarray]]:
    """(name, mask) for N, O, P, Q and R as (n, n) boolean masks, the cells of F
    included, each made only when asked for; N is a read-only view."""
    n = square.order
    is_col = np.zeros(n, bool)
    is_col[[e.col for e in pinned]] = True
    yield "N", np.broadcast_to(is_col, (n, n))
    is_sym = np.zeros(n, bool)
    is_sym[[e.sym for e in pinned]] = True
    yield "O", is_sym[square.to_array()]
    dg = delta_grid(square)
    for name, rows in zip("PQR", _off_max_rows(family, family_k(family, n))):
        want = np.zeros((n, 1), np.int64)
        in_rows = np.zeros((n, 1), bool)
        for r, d in rows:
            want[r], in_rows[r] = d, True
        yield name, np.not_equal(dg, want, out=np.zeros((n, n), bool), where=in_rows)


def _union_mask(family: str, n: int) -> np.ndarray:
    """M u N u O as one mask, ORing each set's mask in as it comes."""
    square, pinned = _forced_cells(family, n)
    union = np.zeros((n, n), bool)
    for _, mask in _masks(family, square, pinned):
        union |= mask
    union[[e.row for e in pinned], [e.col for e in pinned]] = False
    return union


def bound_sets(family: str, n: int) -> BoundSets:
    square, pinned = _forced_cells(family, n)
    arr = square.to_array()
    forced = frozenset(pinned)

    def cells(mask):
        rows, cols = np.nonzero(mask)
        return frozenset(map(Entry, rows.tolist(), cols.tolist(), arr[rows, cols].tolist())) \
            - forced

    return BoundSets(
        family=family,
        n=n,
        pinned=pinned,
        columns=frozenset(e.col for e in pinned),
        symbols=frozenset(e.sym for e in pinned),
        **{name: cells(mask) for name, mask in _masks(family, square, pinned)},
    )


@dataclass(frozen=True)
class BoundCheck:
    family: str
    n: int
    union_size: int
    formula_value: Fraction
    size_ok: bool
    subset_ok: bool | None
    tau: int | None
    tau_ok: bool | None

    def to_json_dict(self) -> dict:
        value = self.formula_value
        return {
            "family": self.family,
            "n": self.n,
            "unionSize": self.union_size,
            "formulaValue": int(value) if value.denominator == 1 else float(value),
            "subsetOK": self.subset_ok,
            "tau": self.tau,
        }


def _bound_check(family: str, n: int, union: np.ndarray, subset_ok: bool | None = None,
                 tau: int | None = None) -> BoundCheck:
    """The check of a union mask's size against the closed form, plus a classification's
    subset test and tau when given."""
    union_size = int(union.sum())
    value = lower_bound_formula(family, n)
    return BoundCheck(
        family=family,
        n=n,
        union_size=union_size,
        formula_value=value,
        size_ok=union_size >= value,
        subset_ok=subset_ok,
        tau=tau,
        tau_ok=None if tau is None else value <= tau < n * n,
    )


def check_sets_only(family: str, n: int) -> BoundCheck:
    """Pure set arithmetic: union size vs the closed form, no search needed."""
    return _bound_check(family, n, _union_mask(family, n))


def verify_bound(family: str, n: int, report: ClassificationReport) -> BoundCheck:
    """Check the union against a classification: size, subset-of-FREE, and tau."""
    if report.partial:
        raise PartialReport(f"classification of {family}{n} is incomplete")
    if report.order != n:
        raise DomainError(f"report order {report.order} does not match n={n}")
    union = _union_mask(family, n)
    subset_ok = not (union & (np.array(report.status) != FREE)).any()
    return _bound_check(family, n, union, subset_ok, report.tau)
