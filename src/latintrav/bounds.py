"""Transversal-free lower-bound sets for the T/U/V families.

Every transversal of a family square must take the maximum-delta cell in each
row (the row maxima sum to exactly n/2), so three kinds of cells can never be
used: cells that miss their row's maximum delta in designated rows (M = P u Q
u R), cells sharing a column with a forced cell (N), and cells sharing a
symbol with one (O).  Each set is materialized as a boolean (n, n) mask over
the square's cells, so the union M u N u O is one mask whose count is
compared against the family's closed-form quadratic bound; the case analysis
behind the closed form is validated as a consequence, not re-derived.
`bound_sets` lists the same masks' cells as entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DomainError, Entry, LatinSquare, LatinSquareError
from .delta import delta_grid
from .engine import FREE, ClassificationReport
from .families import _pinned_square, family_k


class PartialReport(LatinSquareError):
    """The classification report is incomplete; subset checks need all cells."""


def lower_bound_formula(family: str, n: int) -> Fraction:
    """The family's closed-form lower bound on tau; may be half-integral."""
    family_k(family, n)  # DomainError unless T, U or V at a valid order
    if family == "T":
        return Fraction(19 * n * n - 51 * n + 36, 36)
    if family == "V":
        return Fraction(19 * n * n - 86 * n - 68, 36)
    return Fraction(19 * n * n - 73 * n - 182, 36)


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


def _masks(family: str, n: int) -> tuple[LatinSquare, tuple[Entry, ...], dict[str, np.ndarray]]:
    """The square, its forced cells F, and (n, n) boolean masks of N, O, P, Q, R minus F."""
    k = family_k(family, n)
    square, pinned = _pinned_square(family, n)
    cols, syms = _column_symbol_sets(family, n, k)
    if cols != {e.col for e in pinned} or syms != {e.sym for e in pinned}:
        raise DomainError(
            f"{family}{n}: column/symbol sets disagree with the forced cells")
    outside = np.ones((n, n), bool)
    outside[[e.row for e in pinned], [e.col for e in pinned]] = False
    in_cols = np.zeros((n, n), bool)
    in_cols[:, sorted(cols)] = True
    masks = {"N": in_cols & outside,
             "O": np.isin(square.to_array(), sorted(syms)) & outside}
    dg = delta_grid(square)
    for name, rows in zip("PQR", _off_max_rows(family, k)):
        idx = [r for r, _ in rows]
        mask = np.zeros((n, n), bool)
        mask[idx] = dg[idx] != np.array([d for _, d in rows], np.int64).reshape(-1, 1)
        masks[name] = mask & outside
    return square, pinned, masks


def _union_mask(family: str, n: int) -> np.ndarray:
    return np.logical_or.reduce(list(_masks(family, n)[2].values()))


def bound_sets(family: str, n: int) -> BoundSets:
    square, pinned, masks = _masks(family, n)
    grid = square.grid

    def cells(mask):
        return frozenset(Entry(r, c, grid[r][c]) for r, c in np.argwhere(mask).tolist())

    return BoundSets(
        family=family,
        n=n,
        pinned=pinned,
        columns=frozenset(e.col for e in pinned),
        symbols=frozenset(e.sym for e in pinned),
        **{name: cells(mask) for name, mask in masks.items()},
    )


@dataclass(frozen=True)
class BoundCheck:
    family: str
    n: int
    union_size: int
    formula_value: Fraction
    lower_bound: int
    size_ok: bool
    subset_ok: bool | None
    tau: int | None
    tau_ok: bool | None

    @property
    def ok(self) -> bool:
        return bool(self.size_ok and self.subset_ok is not False and self.tau_ok is not False)

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


def check_sets_only(family: str, n: int) -> BoundCheck:
    """Pure set arithmetic: union size vs the closed form, no search needed."""
    union_size = int(_union_mask(family, n).sum())
    value = lower_bound_formula(family, n)
    return BoundCheck(
        family=family,
        n=n,
        union_size=union_size,
        formula_value=value,
        lower_bound=math.ceil(value),
        size_ok=union_size >= value,
        subset_ok=None,
        tau=None,
        tau_ok=None,
    )


def verify_bound(family: str, n: int, report: ClassificationReport) -> BoundCheck:
    """Check the union against a classification: size, subset-of-FREE, and tau."""
    if report.partial:
        raise PartialReport(f"classification of {family}{n} is incomplete")
    if report.order != n:
        raise DomainError(f"report order {report.order} does not match n={n}")
    union = _union_mask(family, n)
    union_size = int(union.sum())
    value = lower_bound_formula(family, n)
    subset_ok = not (union & (np.array(report.status) != FREE)).any()
    tau = report.tau
    return BoundCheck(
        family=family,
        n=n,
        union_size=union_size,
        formula_value=value,
        lower_bound=math.ceil(value),
        size_ok=union_size >= value,
        subset_ok=subset_ok,
        tau=tau,
        tau_ok=value <= tau < n * n,
    )
