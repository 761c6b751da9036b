"""Immutable latin squares: validation, entries, isotopisms, and text/JSON I/O.

Rows, columns and symbols are always the integers ``0..n-1``.  A square is a
collection of ``n**2`` triples ``(row, col, sym)`` in which any two triples
agree in at most one coordinate; all analysis code in this package works on
that triple view.

`is_transversal` is the one transversal test (`_is_permutation`, then distinct
symbols read from the tuple grid); `as_transversal` raises where it says False.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

KNOWN_FAMILIES = ("T", "U", "V", "L", "EX6", "EX8", "CAYLEY", "CUSTOM")


class LatinSquareError(Exception):
    """Base class for every error raised by this package."""


class BadSymbol(LatinSquareError):
    """A grid value lies outside the symbol set {0..n-1}."""


class NotLatin(LatinSquareError):
    """A row or column repeats a symbol."""

    def __init__(self, axis: str, index: int, symbol: int):
        self.axis = axis
        self.index = index
        self.symbol = symbol
        super().__init__(f"duplicated symbol {symbol} in {axis} {index}")


class BadPermutation(LatinSquareError):
    """A sequence expected to be a permutation of {0..n-1} is not."""


class NotTransversal(LatinSquareError):
    """A diagonal whose symbols were required to be distinct repeats one."""


class DomainError(LatinSquareError):
    """An argument is outside the domain an operation is defined on."""


class CaseOverlap(LatinSquareError):
    """Two construction cases that should be exclusive matched the same cell."""


class ParseError(LatinSquareError):
    """Malformed square text/JSON; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True, order=True)
class Entry:
    """One cell of a square as the triple (row, col, sym)."""

    row: int
    col: int
    sym: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.row, self.col, self.sym)


def _require_integers(kinds, error: type[LatinSquareError], what: str) -> None:
    """Raise ``error`` unless every type in ``kinds`` is an integer type: int or a
    numpy integer, never bool.  Grid values, permutations and coordinates obey it."""
    for kind in set(kinds):
        if not issubclass(kind, (int, np.integer)) or kind is bool:
            raise error(f"{what} must be integers, got {kind.__name__}")


def _at_least_one(value, what: str) -> int:
    """``value`` as an int when it is an integer (`_require_integers`) of at least 1."""
    _require_integers((type(value),), DomainError, what)
    if value < 1:
        raise DomainError(f"{what} must be at least 1, got {value}")
    return int(value)


def _coordinates(item, sizes: tuple[int, ...], what: str) -> tuple[int, ...]:
    """``item``, an Entry or a sequence of integers (`_require_integers`) whose length is
    one of ``sizes``, as ints; else DomainError."""
    try:
        values = item.as_tuple() if isinstance(item, Entry) else tuple(item)
    except TypeError:  # not a sequence: no length is right
        values = ()
    if len(values) not in sizes:
        raise DomainError(f"{what} must be {' or '.join(map(str, sizes))} integers, got {item!r}")
    _require_integers(map(type, values), DomainError, f"{what} coordinates")
    return tuple(map(int, values))


def _as_rcs(entry) -> tuple[int, int, int]:
    """Accept an Entry or a plain (row, col, sym) triple of integers (else DomainError)."""
    return _coordinates(entry, (3,), "entry")


def _as_rc(cell) -> tuple[int, int]:
    """Accept a plain (row, col) pair of integers (else DomainError)."""
    return _coordinates(cell, (2,), "cell")


def _check_family(family: str | None) -> None:
    if family is not None and family not in KNOWN_FAMILIES:
        raise DomainError(f"unknown family tag {family!r}")


@functools.lru_cache(maxsize=16)
def _all_below(n: int) -> frozenset[int]:
    """0..n-1, built once per order for `_is_permutation`."""
    return frozenset(range(n))


def _is_permutation(cols: Sequence[int], n: int) -> bool:
    """The package's one permutation test: ``cols`` holds each of 0..n-1 exactly once."""
    return len(cols) == n and set(cols) == _all_below(n)


def _check_permutation(seq: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    vals = tuple(seq)
    _require_integers(map(type, vals), BadPermutation, what)
    vals = tuple(map(int, vals))
    if not _is_permutation(vals, n):
        raise BadPermutation(f"{what} is not a permutation of 0..{n - 1}: {vals!r}")
    return vals


@dataclass(frozen=True)
class Diagonal:
    """n cells from distinct rows and columns, stored as col(r) per row r."""

    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cols",
                           _check_permutation(self.cols, len(self.cols), "diagonal column map"))

    @property
    def order(self) -> int:
        return len(self.cols)

    def entries(self, square: "LatinSquare") -> tuple[Entry, ...]:
        return tuple(square.entry(r, c) for r, c in enumerate(self.cols))


@dataclass(frozen=True)
class Transversal(Diagonal):
    """A diagonal whose symbols are also pairwise distinct.

    Symbol distinctness depends on the square, so build instances with
    :func:`as_transversal`.
    """


_INT_ONLY = {int}


def diagonal_cols(diag) -> tuple[int, ...]:
    """Accept a Diagonal/Transversal or a plain sequence of integers (else BadPermutation)."""
    if isinstance(diag, Diagonal):
        return diag.cols
    cols = tuple(diag)
    kinds = set(map(type, cols))
    if kinds != _INT_ONLY:  # the common case, plain ints, skips the per-type check
        _require_integers(kinds, BadPermutation, "diagonal columns")
    return cols


def is_transversal(square: "LatinSquare", diag) -> bool:
    cols = diagonal_cols(diag)
    n = square.order
    return _is_permutation(cols, n) and len(set(map(operator.getitem, square.grid, cols))) == n


def as_transversal(square: "LatinSquare", diag) -> Transversal:
    """The columns as a Transversal of ``square``: BadPermutation unless they are a
    permutation of 0..n-1, NotTransversal where `is_transversal` is False."""
    cols = _check_permutation(diagonal_cols(diag), square.order, "diagonal columns")
    syms = tuple(map(operator.getitem, square.grid, cols))
    if len(set(syms)) != square.order:
        raise NotTransversal(f"columns {cols!r} repeat a symbol: {syms!r}")
    t = object.__new__(Transversal)  # Transversal(cols) would check the permutation again
    object.__setattr__(t, "cols", cols)
    return t


class LatinSquare:
    """A validated n x n latin square over symbols 0..n-1.

    Instances are immutable after construction and safe to share across
    concurrent workers; every analysis produces new values.  The values live
    in one int64 array, which the square copies from ``grid`` (the family
    builders hand over a fresh one through `_adopt` instead); ``grid``, the
    same values as a tuple of row tuples of Python ints, is built on first
    access and kept.
    """

    __slots__ = ("order", "family", "_array", "_grid", "_delta_grid", "__weakref__")

    def __init__(self, grid, family: str | None = None):
        self._set(_grid_array(grid), family)

    @classmethod
    def _adopt(cls, arr: np.ndarray, family: str | None = None) -> "LatinSquare":
        """The square of ``arr``, a fresh C-contiguous int64 array that no one else holds,
        kept without a copy and made read-only; the checks are `__init__`'s."""
        if arr.dtype != np.int64 or not arr.flags.c_contiguous or arr.base is not None:
            raise ValueError("only a fresh C-contiguous int64 array can be adopted")
        sq = cls.__new__(cls)
        sq._set(arr, family)
        return sq

    def _set(self, arr: np.ndarray, family: str | None) -> None:
        """Checks ``arr`` (square, values in range, latin) and ``family``, then keeps both."""
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DomainError(f"grid must be square and non-empty, got shape {arr.shape}")
        n = int(arr.shape[0])
        _check_family(family)
        if arr.min() < 0 or arr.max() >= n:
            r, c = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
            raise BadSymbol(f"value {int(arr[r, c])} at ({r},{c}) outside 0..{n - 1}")
        _validate_latin(arr)
        self.order = n
        self.family = family
        arr.setflags(write=False)
        self._array = arr
        self._grid = None
        self._delta_grid = None

    @property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints, built on first access.

        Two threads that miss at once each build an equal tuple; either is kept.
        """
        if self._grid is None:
            # one int object per symbol, not one per cell: ints above 256 are not cached
            symbols = np.array(range(self.order), dtype=object)
            self._grid = tuple(map(tuple, symbols[self._array].tolist()))
        return self._grid

    def to_array(self) -> np.ndarray:
        """The grid as a read-only, C-contiguous int64 array owned by the square: its
        copy of the caller's grid, or the array a family builder handed over."""
        return self._array

    def entry(self, row: int, col: int) -> Entry:
        return Entry(row, col, int(self._array[row, col]))

    def entries(self) -> Iterator[Entry]:
        for r, row in enumerate(self.grid):
            for c, s in enumerate(row):
                yield Entry(r, c, s)

    def with_family(self, family: str | None) -> "LatinSquare":
        _check_family(family)
        sq = LatinSquare.__new__(LatinSquare)
        sq.order = self.order
        sq.family = family
        sq._array = self._array
        sq._grid = self._grid
        sq._delta_grid = self._delta_grid
        return sq

    def __getitem__(self, rc: tuple[int, int]) -> int:
        r, c = rc
        return int(self._array[r, c])

    def __eq__(self, other) -> bool:
        # Family is metadata; equality is the mathematical identity.
        return isinstance(other, LatinSquare) and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        # equal squares have equal C-contiguous int64 arrays, hence equal bytes
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        tag = f", family={self.family!r}" if self.family else ""
        return f"LatinSquare(order={self.order}{tag})"


def _grid_array(grid) -> np.ndarray:
    """The square's own C-contiguous int64 copy of ``grid``, an integer array copied once.

    BadSymbol for a value that is not an integer (floats, strings and booleans
    included) or lies beyond int64; DomainError for a grid that is not rows.
    """
    if isinstance(grid, np.ndarray):
        kinds = {grid.dtype.type}
    else:
        try:
            grid = list(grid)
            kinds = set(map(type, chain.from_iterable(grid)))
        except TypeError:
            raise DomainError("grid must be a sequence of rows") from None
    _require_integers(kinds, BadSymbol, "grid values")
    try:
        return np.array(grid, dtype=np.int64, order="C")
    except OverflowError:
        raise BadSymbol(f"a grid value lies outside 0..{len(grid) - 1}") from None
    except (ValueError, TypeError) as exc:
        raise DomainError(f"grid is not a rectangular integer array: {exc}") from None


def _validate_latin(arr: np.ndarray) -> None:
    """NotLatin for the first repeat, rows before columns; values are already in 0..n-1.

    A line of n values in 0..n-1 repeats one exactly when it misses one, so one
    boolean table per axis finds that some line does.
    """
    n = arr.shape[0]
    idx = np.arange(n)
    has = np.zeros((n, n), dtype=bool)
    has[idx.reshape(-1, 1), arr] = True  # has[r, s]: row r holds symbol s
    if not has.all():
        for r in range(n):
            seen = set()
            for v in arr[r]:
                if v in seen:
                    raise NotLatin("row", r, int(v))
                seen.add(int(v))
    has[:] = False
    has[arr, idx] = True  # has[s, c]: column c holds symbol s
    if not has.all():
        for c in range(n):
            seen = set()
            for v in arr[:, c]:
                if v in seen:
                    raise NotLatin("column", c, int(v))
                seen.add(int(v))


def new_square(order: int, grid, family: str | None = None) -> LatinSquare:
    """Validate and freeze a grid stated to have the given order."""
    sq = LatinSquare(grid, family=family)
    if sq.order != order:
        raise DomainError(f"declared order {order} but grid has order {sq.order}")
    return sq


def cayley_table(n: int) -> LatinSquare:
    """Addition table of the integers mod n: grid[a][b] = (a+b) % n."""
    n = _at_least_one(n, "orders")
    a = np.arange(n, dtype=np.int64)
    table = np.add.outer(a, a)
    table %= n
    return LatinSquare._adopt(table, family="CAYLEY")


@dataclass(frozen=True)
class Isotopism:
    """Permutation triple acting on rows, columns and symbols respectively."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    def __post_init__(self):
        n = len(self.alpha)
        object.__setattr__(self, "alpha", _check_permutation(self.alpha, n, "alpha"))
        object.__setattr__(self, "beta", _check_permutation(self.beta, len(self.beta), "beta"))
        object.__setattr__(self, "gamma", _check_permutation(self.gamma, len(self.gamma), "gamma"))
        if not (len(self.alpha) == len(self.beta) == len(self.gamma)):
            raise BadPermutation("alpha, beta, gamma must act on the same index set")

    @property
    def order(self) -> int:
        return len(self.alpha)

    @classmethod
    def identity(cls, n: int) -> "Isotopism":
        ident = tuple(range(n))
        return cls(ident, ident, ident)

    def diagonal_image(self, diag) -> Diagonal:
        cols = _check_permutation(diagonal_cols(diag), self.order, "diagonal columns")
        new_cols = [0] * len(cols)
        for r, c in enumerate(cols):
            new_cols[self.alpha[r]] = self.beta[c]
        return Diagonal(tuple(new_cols))


def apply_isotopism(square: LatinSquare, iso: Isotopism) -> LatinSquare:
    """Return the square with result[alpha(r)][beta(c)] = gamma(square[r][c])."""
    return LatinSquare._adopt(_isotopism_image(square, iso))


def _isotopism_image(square: LatinSquare, iso: Isotopism) -> np.ndarray:
    """The grid of :func:`apply_isotopism` as an array, not validated again."""
    n = square.order
    if iso.order != n:
        raise BadPermutation(f"isotopism acts on 0..{iso.order - 1}, square has order {n}")
    g = square.to_array()
    alpha = np.asarray(iso.alpha, dtype=np.int64)
    beta = np.asarray(iso.beta, dtype=np.int64)
    gamma = np.asarray(iso.gamma, dtype=np.int64)
    out = np.empty_like(g)
    out[np.ix_(alpha, beta)] = gamma[g]
    return out


def serialize(square: LatinSquare) -> str:
    """Text form: first line is n, then n lines of n space-separated symbols."""
    lines = [str(square.order)]
    lines.extend(" ".join(map(str, row)) for row in square.to_array().tolist())
    return "\n".join(lines) + "\n"


# A plain decimal integer; int() also takes '+', '_' and non-ASCII digits, which parse refuses.
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(token: str, what: str, line: int, column: int = 1) -> int:
    """``token`` as an int when it is a plain decimal integer, else a ParseError."""
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            pass
    raise ParseError(f"{what}: {token!r}", line, column)


def parse(text: str, family: str | None = None) -> LatinSquare:
    """Parse the text form produced by :func:`serialize`.

    The order and every grid value must be a plain integer (``-?[0-9]+``).
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    order = lines[0].strip() if lines else ""
    if not order:
        raise ParseError("missing order line", 1)
    n = _integer(order, "order is not an integer", 1)
    if n < 1:
        raise ParseError(f"order must be positive, got {n}", 1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} grid lines, found {len(lines) - 1}", len(lines))
    grid = []
    for i, line in enumerate(lines[1:], start=2):
        tokens = list(re.finditer(r"\S+", line))
        if len(tokens) != n:
            raise ParseError(f"expected {n} values, found {len(tokens)}", i)
        grid.append([_integer(tok[0], "not an integer", i, tok.start() + 1) for tok in tokens])
    return new_square(n, grid, family=family)


def to_json_dict(square: LatinSquare) -> dict:
    return {
        "order": square.order,
        "grid": square.to_array().tolist(),
        "family": square.family,
    }


def from_json_dict(data: dict) -> LatinSquare:
    try:
        order = data["order"]
        grid = data["grid"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"missing field {exc}", 1) from None
    if type(order) is not int:
        raise ParseError(f"order is not an integer: {order!r}", 1)
    return new_square(order, grid, family=data.get("family"))


def to_json(square: LatinSquare) -> str:
    return json.dumps(to_json_dict(square), sort_keys=True)


def from_json(text: str) -> LatinSquare:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    return from_json_dict(data)
