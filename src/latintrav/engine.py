"""Exhaustive search over diagonals and transversals with delta-interval pruning.

The search walks rows in ascending index order assigning one column per row
under used-column and used-symbol bitmasks, so solutions are produced in
lexicographic order of the column sequence and enumeration is deterministic.
It has one mode: a suitable-diagonal search is a transversal search over the
column-index grid (``sym[r, c] = c``, built by `_Prepared`), whose symbol test
is the column test.  At every node the partial delta sum plus the remaining
rows' min/max delta suffix sums brackets every reachable total; if no integer
in that interval hits the target residue (n/2 mod n for even order, 0 for
odd) the subtree is pruned.  A search that wants only the first solution
(`find`, each per-cell search of `classify`) also forward-checks: it drops a
candidate whose placement leaves some later row with no candidate whose column
and symbol are free.  Full and lazy enumeration do not, so their node totals
are those of the delta prune alone.  Pruning never removes a real solution,
which the test suite checks against the one unpruned walk, the pure twin's
(`iter_solutions(prune=False)`); the forward check drops only subtrees
without one, so the first solution found is the same with and without it.

A search reads a symbol array, the square's delta array and one candidate mask
per row, from `_cell_rows` (`_Prepared` ANDs them over a search's constraints).
`_run` alone picks the backend: the compiled `_kernel.run` up to its largest
order when it loads, else `_twin_run`, the pure-Python twin with the same
interface, which is the kernel's oracle in the tests.

"Budget exceeded" is a first-class outcome distinct from "no solution": a
search reports how far it got and callers surface the result as unknown.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from typing import Iterator

import numpy as np

from . import _kernel
from .core import (
    Diagonal,
    DomainError,
    Entry,
    LatinSquare,
    LatinSquareError,
    Transversal,
    _as_rc,
    _as_rcs,
    as_transversal,
    is_transversal,
)
from .delta import OddOrder, delta_grid
from .families import witness_transversal

FREE = "FREE"
COVERED = "COVERED"
PINNED = "PINNED"
UNKNOWN = "UNKNOWN"

log = logging.getLogger(__name__)


class BudgetExceeded(LatinSquareError):
    """The node budget ran out before the search finished, after ``nodes`` = budget + 1 nodes."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"node budget exceeded after {nodes} nodes")


class SearchMode(Enum):
    TRANSVERSAL = "transversal"
    SUITABLE_DIAGONAL = "suitable-diagonal"


@dataclass(frozen=True)
class SearchConstraints:
    """Required entries, forbidden cells, search mode, and an optional budget.

    A budget of 0 stops at the first node; None means no budget, and a
    negative or non-integer budget is a DomainError.
    """

    required: frozenset[Entry] = frozenset()
    forbidden_cells: frozenset[tuple[int, int]] = frozenset()
    mode: SearchMode = SearchMode.TRANSVERSAL
    node_budget: int | None = None

    @classmethod
    def make(cls, required=(), forbidden_cells=(), mode=SearchMode.TRANSVERSAL,
             node_budget=None) -> "SearchConstraints":
        req = frozenset(Entry(*_as_rcs(e)) for e in required)
        forb = frozenset(map(_as_rc, forbidden_cells))
        return cls(req, forb, mode, node_budget)

    def validate(self, square: LatinSquare) -> None:
        _check_budget(self.node_budget)
        rows, cols, syms = set(), set(), set()
        for e in self.required:
            if not (0 <= e.row < square.order and 0 <= e.col < square.order):
                raise DomainError(f"required entry {e} outside the square")
            if square[e.row, e.col] != e.sym:
                raise DomainError(f"required entry {e} is not an entry of the square")
            if e.row in rows or e.col in cols or e.sym in syms:
                raise DomainError("required entries must be pairwise row/col/sym disjoint")
            rows.add(e.row)
            cols.add(e.col)
            syms.add(e.sym)
            if (e.row, e.col) in self.forbidden_cells:
                raise DomainError(f"required entry {e} is also forbidden")
        for r, c in sorted(self.forbidden_cells):
            if not (0 <= r < square.order and 0 <= c < square.order):
                raise DomainError(f"forbidden cell ({r}, {c}) outside the square")
        if not isinstance(self.mode, SearchMode):
            raise DomainError(f"search mode must be a SearchMode, got {self.mode!r}")
        if self.mode is SearchMode.SUITABLE_DIAGONAL and square.order % 2:
            raise OddOrder("suitable-diagonal mode needs even order")


def _check_budget(node_budget: int | None) -> None:
    if node_budget is None:
        return
    if not isinstance(node_budget, (int, np.integer)) or isinstance(node_budget, bool):
        raise DomainError(f"node budget must be an integer, got {node_budget!r}")
    if node_budget < 0:
        raise DomainError(f"node budget must be at least 0, got {node_budget}")


class _Prepared:
    """One search's input: its symbol array, the square's deltas and the cells it keeps.

    The one place the search mode is read besides `SearchConstraints.validate`: a
    transversal search gets ``sym`` = `to_array` (int64) and ``wrap`` = `as_transversal`
    on the square, which turns a solution's columns into what the caller gets; a
    suitable-diagonal search gets the column-index grid (``sym[r, c] = c``), whose
    symbol test is its column test (a required entry drops only its column from the
    other rows), and `Diagonal`.  ``delta`` is the cached `delta_grid` either way (int8
    at every kernel order, which the kernel reads as it is, and the twin as Python
    ints); ``rows[r]`` holds row r's candidate columns as bits: the AND of
    `_cell_rows`'s masks over the constraints, exact since `SearchConstraints.validate`
    keeps required entries pairwise row, column and symbol disjoint and off the
    forbidden cells.
    """

    __slots__ = ("sym", "delta", "rows", "wrap")

    def __init__(self, square: LatinSquare, constraints: SearchConstraints):
        constraints.validate(square)
        n = square.order
        if constraints.mode is SearchMode.TRANSVERSAL:
            self.sym, self.wrap = square.to_array(), functools.partial(as_transversal, square)
        else:
            self.sym, self.wrap = np.tile(np.arange(n, dtype=np.int64), (n, 1)), Diagonal
        self.delta = delta_grid(square)
        required = [(e.row, e.col) for e in constraints.required]
        masks = [_cell_rows(self.sym, cells, avoid)
                 for cells, avoid in ((required, False), (list(constraints.forbidden_cells), True))]
        self.rows = np.bitwise_and.reduce(np.concatenate(masks), axis=0,
                                          initial=(1 << n) - 1)


class _NodeCounter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _iter_cols(sym: np.ndarray, delta: np.ndarray, rows: np.ndarray, prune: bool,
               budget: int | None, counter: _NodeCounter,
               first_hit: bool) -> Iterator[tuple[int, ...]]:
    """Pure-python twin of one kernel search over the masks ``rows``; yields column tuples lazily.

    It walks a stack of row iterators: each open row keeps an iterator over
    its candidates, and every candidate it takes counts one node in
    ``counter``, placed or not.  Like the kernel's ``mask_tree``, it works
    out the target residue and the delta sum's suffix bounds from the masks.
    A ``first_hit`` caller, which takes at most the first solution, also gets
    the forward check when ``prune`` is on: a candidate is dropped, after its
    node is counted, when placing it leaves a later row without a candidate
    whose column and symbol are free, as in the kernel.  A solution has distinct
    columns and symbols and a delta sum at the target residue; the unpruned walk
    tests that residue at its leaves.
    """
    n = len(sym)
    # each row's candidates as (col, sym, delta), columns ascending
    cand = [[(c, s[c], d[c]) for c in range(n) if mask >> c & 1]
            for mask, s, d in zip(rows.tolist(), sym.tolist(), delta.tolist())]
    if not all(cand):
        return  # a row without candidates
    target = (n // 2) if n % 2 == 0 else 0
    # lo_suf[r] and hi_suf[r] bound the delta sum of rows r..n-1
    lo_suf = list(accumulate((min(d for *_, d in row) for row in reversed(cand)), initial=0))[::-1]
    hi_suf = list(accumulate((max(d for *_, d in row) for row in reversed(cand)), initial=0))[::-1]
    forward = prune and first_hit
    if prune and lo_suf[0] + ((target - lo_suf[0]) % n) > hi_suf[0]:
        return  # the target residue is unreachable from the root
    stop = -1 if budget is None else int(budget) + 1  # the node that overruns the budget
    sol = [0] * n
    # one open row per depth: its candidate iterator and the used columns, used
    # symbols and delta sum of the rows above it
    stack = [(iter(cand[0]), 0, 0, 0)]
    while stack:
        depth = len(stack) - 1
        below = depth + 1
        lo_rest, hi_rest = lo_suf[below], hi_suf[below]
        row, uc, us, ds = stack[-1]
        for c, s, d in row:
            counter.nodes += 1
            if counter.nodes == stop:
                raise BudgetExceeded(counter.nodes)
            if uc >> c & 1 or us >> s & 1:
                continue
            nd = ds + d
            if prune:
                lo = nd + lo_rest
                if lo + ((target - lo) % n) > nd + hi_rest:
                    continue
            uc_next = uc | 1 << c
            us_next = us | 1 << s
            if forward and not all(
                    any(not (uc_next >> c2 & 1 or us_next >> s2 & 1) for c2, s2, _ in cand[r])
                    for r in range(below, n)):
                continue
            sol[depth] = c
            if below < n:
                stack.append((iter(cand[below]), uc_next, us_next, nd))
                break
            if nd % n == target:
                yield tuple(sol)
        else:
            stack.pop()


def _twin_run(sym: np.ndarray, delta: np.ndarray, rows: np.ndarray, *, budget: int | None,
              enumerate_all: bool):
    """`_kernel.run` on the pure twin, at every order: the same arguments and the same
    (status, count, nodes, cols) views of one (k, n + 3) array.  The searches run one
    after another on the calling thread, each a pruned `_iter_cols` walk of its ``rows[j]``."""
    out = np.zeros((len(rows), len(sym) + 3), np.int64)
    for search, masks in zip(out, rows):
        counter = _NodeCounter()
        try:
            for cols in _iter_cols(sym, delta, masks, True, budget, counter, not enumerate_all):
                search[1] += 1
                if not enumerate_all:
                    search[3:] = cols
                    break
        except BudgetExceeded:
            search[0] = -1
        else:
            search[0] = search[1] > 0
        search[2] = counter.nodes
    return out[:, 0], out[:, 1], out[:, 2], out[:, 3:]


def _run(sym: np.ndarray, delta: np.ndarray, rows: np.ndarray, *, budget: int | None,
         enumerate_all: bool):
    """`_kernel.run` where the kernel takes the order and loads, else `_twin_run`."""
    if len(sym) > _kernel.MAX_KERNEL_ORDER:
        _log_large_orders()
    elif _kernel.load() is not None:
        return _kernel.run(sym, delta, rows, budget=budget, enumerate_all=enumerate_all)
    return _twin_run(sym, delta, rows, budget=budget, enumerate_all=enumerate_all)


@functools.cache
def _log_large_orders() -> None:
    """Says once per process that searches above the kernel's largest order run on the twin."""
    log.info("searches of order above %d run on the pure-Python twin", _kernel.MAX_KERNEL_ORDER)


@dataclass(frozen=True)
class EnumerationSummary:
    """What a finished full enumeration gives that per-cell statuses cannot.

    The solution count and the nodes visited.  No first solution: `find`
    gives the same lexicographically first one.  No block hits:
    `blocks.verify_hit_theorem` proves that every block is hit by two
    refutations and two autotopisms.
    """

    count: int
    nodes: int


def _constraints_arg(constraints, kwargs) -> SearchConstraints:
    if constraints is None:
        return SearchConstraints.make(**kwargs)
    if kwargs:
        raise TypeError("pass either a SearchConstraints object or keyword constraints")
    return constraints


def find(square: LatinSquare, constraints: SearchConstraints | None = None,
         **kwargs) -> Transversal | Diagonal | None:
    """First solution in lexicographic column order, or None if none exists.

    Raises BudgetExceeded when the node budget runs out, which is an unknown
    outcome, never a "no".
    """
    cons = _constraints_arg(constraints, kwargs)
    prep = _Prepared(square, cons)
    _, _, cols = _search(prep, cons.node_budget, False)
    return None if cols is None else prep.wrap(cols)


def _search(prep: _Prepared, budget: int | None,
            enumerate_all: bool) -> tuple[int, int, tuple[int, ...] | None]:
    """A prepared search's count, nodes and, from a first-hit search that found one, the
    first solution's columns (else None); BudgetExceeded when the budget runs out."""
    status, count, nodes, cols = _run(prep.sym, prep.delta, prep.rows[None], budget=budget,
                                      enumerate_all=enumerate_all)
    if status[0] == -1:
        raise BudgetExceeded(int(nodes[0]))
    first = tuple(cols[0].tolist()) if status[0] == 1 and not enumerate_all else None
    return int(count[0]), int(nodes[0]), first


def iter_solutions(square: LatinSquare, constraints: SearchConstraints | None = None, *,
                   prune: bool = True, **kwargs) -> Iterator[Diagonal]:
    """Lazy lexicographic enumeration on the pure twin; yields bound objects.  With
    ``prune=False`` it is the unpruned oracle that the tests hold every prune against."""
    cons = _constraints_arg(constraints, kwargs)
    prep = _Prepared(square, cons)
    yield from map(prep.wrap, _iter_cols(prep.sym, prep.delta, prep.rows, prune,
                                         cons.node_budget, _NodeCounter(), False))


def enumerate_solutions(square: LatinSquare, constraints: SearchConstraints | None = None,
                        **kwargs) -> int:
    """Count every solution; `iter_solutions` visits them one by one."""
    return count_and_cover(square, constraints, **kwargs).count


def count_and_cover(square: LatinSquare, constraints: SearchConstraints | None = None,
                    **kwargs) -> EnumerationSummary:
    """Full enumeration reduced to its count and node total.

    Raises BudgetExceeded, with budget + 1 nodes and no partial count, when
    the node budget runs out.  Per-cell statuses and witnesses are not
    tallied here; `classify` takes them from the per-cell phases.  Block
    hits are not tallied either: `blocks.verify_hit_theorem` refutes a
    transversal missing block (2,2) or (1,1) and carries both blocks onto
    the rest with the tau and phi autotopisms.  The name, which no longer
    describes a cover tally, is kept for perfbench's callers.  On the kernel
    the enumeration runs on every CPU in the affinity mask.
    """
    cons = _constraints_arg(constraints, kwargs)
    count, nodes, _ = _search(_Prepared(square, cons), cons.node_budget, True)
    return EnumerationSummary(count=count, nodes=nodes)


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Per-cell transversal status plus the derived counts.

    ``status[r][c]`` is FREE (in no transversal), COVERED (in some but not
    all), PINNED (in every transversal, of which there is at least one), or
    UNKNOWN (budget ran out); ``tau`` counts FREE cells.  ``has_transversal``
    is None when no search found one and some ran out: a partial run never says "no".
    """

    order: int
    family: str | None
    status: tuple[tuple[str, ...], ...]
    tau: int
    pinned: tuple[Entry, ...]
    has_transversal: bool | None
    transversal_count: int | None
    witnesses: dict
    partial: bool
    nodes: int

    @property
    def free_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple((r, c) for r, row in enumerate(self.status)
                     for c, st in enumerate(row) if st == FREE)

    def to_json_dict(self) -> dict:
        out = {
            "order": self.order,
            "family": self.family,
            "tau": self.tau,
            "hasTransversal": self.has_transversal,
            "pinned": [list(e.as_tuple()) for e in self.pinned],
            "freeCells": [list(rc) for rc in self.free_cells],
        }
        if self.transversal_count is not None:
            out["counts"] = self.transversal_count
        if self.partial:
            out["partial"] = True
        return out


def _cell_rows(sym: np.ndarray, cells, avoid: bool) -> np.ndarray:
    """The engine's one candidate filter: the row masks of a search through, or with
    ``avoid`` avoiding, each of the k (row, col) ``cells``, a (k, n) array, row j for
    ``cells[j]``.

    A required entry (r, c, s) keeps only column c in row r and drops column
    c and the cell of symbol s from every other row; a forbidden cell (r, c)
    drops that cell alone.  ``sym`` is a latin square's (n, n) symbol array,
    so each row holds each symbol in exactly one column; over the column-index
    grid of a suitable-diagonal search the cell of s is column c itself.
    Masks are int64 up to the kernel's orders, Python ints above.
    """
    n = len(sym)
    bits = np.array([1 << c for c in range(n)], np.int64 if n <= _kernel.MAX_KERNEL_ORDER
                    else object)
    everything = (1 << n) - 1
    r, c = np.reshape(np.asarray(cells, np.int64), (-1, 2)).T
    bit = bits[c]
    k = np.arange(len(r))
    if avoid:
        rows = np.full((len(r), n), everything, bits.dtype)
        rows[k, r] = everything ^ bit
        return rows
    # others[s, i]: the columns of row i other than the one holding symbol s
    others = everything ^ bits[np.argsort(sym, axis=1)].T
    rows = others[sym[r, c]] & ~bit[:, None]
    rows[k, r] = bit
    return rows


def _search_cells(square: LatinSquare, cells, avoid: bool,
                  budget: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First transversal through, or with ``avoid`` avoiding, each of ``cells``.

    Returns (status, nodes, cols) arrays for the cells in order: status 1
    with the first solution's columns in that cell's row of ``cols``, 0 when
    there is none, or -1 when the search ran out of its node budget; nodes
    is what each search visited (budget + 1 when it ran out).  The whole
    batch is one `_run` call over the square's arrays and `_cell_rows`'s masks.
    """
    sym = square.to_array()
    status, _, nodes, cols = _run(sym, delta_grid(square), _cell_rows(sym, cells, avoid),
                                  budget=budget, enumerate_all=False)
    return status, nodes, cols


# Status names by code: a phase-1 status of 0 makes a cell FREE, -1 leaves it UNKNOWN.
_STATUS_NAMES = (UNKNOWN, FREE, COVERED, PINNED)
_UNKNOWN, _FREE, _COVERED, _PINNED = range(4)


def _classify_cells(square: LatinSquare, node_budget: int | None) -> ClassificationReport:
    """The two per-cell phases of `classify`; ``nodes`` counts only exhausted searches.

    Statuses, witnesses and nodes are read from the phases' arrays; the status
    strings are built once, at the end.
    """
    n = square.order
    cells = np.indices((n, n)).reshape(2, -1).T
    found, spent, cols = _search_cells(square, cells, False, node_budget)
    code = np.choose(found + 1, (_UNKNOWN, _FREE, _COVERED))
    nodes = int(spent[found == -1].sum())
    witnessed = np.flatnonzero(found == 1)
    witness_cols = cols[witnessed]
    # a cell lies in every witness when every witness has its column in its row
    common = np.zeros(n * n, bool)
    if len(witnessed):
        rows = np.flatnonzero((witness_cols == witness_cols[0]).all(axis=0))
        common[rows * n + witness_cols[0, rows]] = True
    shared = np.flatnonzero(common & (found == 1))
    if len(shared):
        avoided, spent, _ = _search_cells(square, cells[shared], True, node_budget)
        code[shared] = np.choose(avoided + 1, (_UNKNOWN, _PINNED, _COVERED))
        nodes += int(spent[avoided == -1].sum())
    status = tuple(tuple(map(_STATUS_NAMES.__getitem__, row))
                   for row in code.reshape(n, n).tolist())
    return ClassificationReport(
        order=n,
        family=square.family,
        status=status,
        tau=int((code == _FREE).sum()),
        pinned=tuple(square.entry(r, c) for r, c in cells[code == _PINNED].tolist()),
        has_transversal=True if len(witnessed) else None if (found == -1).any() else False,
        transversal_count=None,
        witnesses=dict(zip(map(tuple, cells[witnessed].tolist()),
                           map(tuple, witness_cols.tolist()))),
        partial=bool((code == _UNKNOWN).any()),
        nodes=nodes,
    )


def _report_from_summary(square: LatinSquare,
                         summary: EnumerationSummary) -> ClassificationReport:
    """The report of a finished unconstrained enumeration of ``square``.

    Statuses and witnesses come from the per-cell phases, run with no node
    budget; ``transversal_count`` and ``nodes`` are ``summary``'s.  No
    budget is needed: every per-cell search keeps a subsequence of each row's
    candidates and narrower suffix delta intervals, and its forward check
    only drops more, so it visits a subset (not a prefix) of the nodes of
    the enumeration that already finished and cannot run out where that
    did not.
    """
    return replace(_classify_cells(square, None), transversal_count=summary.count,
                   nodes=summary.nodes)


def classify(square: LatinSquare, *, node_budget: int | None = None,
             strategy: str = "per-cell") -> ClassificationReport:
    """Classify every cell as FREE / COVERED / PINNED.

    Every report's statuses and witnesses come from the per-cell phases
    below, and the default ``strategy='per-cell'`` runs only those, each
    search under ``node_budget``; its report has no ``transversal_count``
    (`enumerate_solutions` and ``latintrav transversal count`` give it).
    ``strategy='enumerate'`` first counts all transversals in one full
    enumeration under ``node_budget``, which adds ``transversal_count`` and
    puts the enumeration's nodes in ``nodes``, then runs both phases without
    a budget (see `_report_from_summary`); it raises BudgetExceeded when the
    enumeration runs out.  Any other strategy is a DomainError.

    Per-cell classification runs in two phases over one preparation of the
    square.  Phase 1 searches each cell for the lexicographically first
    transversal through it: none makes the cell FREE, and the one found is
    the cell's witness.  A witnessed cell that some phase-1 witness avoids is
    COVERED.  Phase 2 searches only the witnessed cells that lie in every
    phase-1 witness for a transversal avoiding them: none makes the cell
    PINNED, one makes it COVERED.  In a complete run the intersection is
    exactly the pinned set (a transversal T avoiding (a, x) passes through
    (a, T[a]), whose witness then avoids (a, x) too), so phase 2 is the
    refutation behind each PINNED verdict.  On the compiled kernel each phase
    is one kernel call per square, not one call per cell.

    The kernel runs the enumeration and each phase on every CPU in the
    process's affinity mask (`_kernel.cpu_count`; ``taskset`` narrows it).
    Each search's result does not depend on the thread count, and the
    intersection is taken after all phase-1 results are in, so neither does
    the report.

    ``node_budget`` caps each search; a search that runs out leaves its cell
    UNKNOWN and the report partial, never FREE or PINNED.  A cell whose
    phase-1 search finished is COVERED as soon as some witness avoids it, so
    a budgeted run resolves cells whose avoiding search would have run out.
    A negative ``node_budget`` is a DomainError.
    """
    if strategy not in ("per-cell", "enumerate"):
        raise DomainError(f"unknown classify strategy {strategy!r}")
    _check_budget(node_budget)
    if strategy == "enumerate":
        return _report_from_summary(square, count_and_cover(square, node_budget=node_budget))
    return _classify_cells(square, node_budget)


def is_pinned(square: LatinSquare, entry, *, node_budget: int | None = None) -> bool:
    """True iff the square has a transversal and none avoids the entry's cell."""
    return pinned_verdicts(square, (entry,), node_budget=node_budget)[0]


def pinned_verdicts(square: LatinSquare, entries, *,
                    node_budget: int | None = None) -> tuple[bool, ...]:
    """`is_pinned` for each entry: is there a transversal, then one batch avoiding each cell."""
    _check_budget(node_budget)
    cells = []
    for entry in entries:
        SearchConstraints.make(required=(entry,)).validate(square)
        cells.append(_as_rcs(entry)[:2])
    if not cells or not _has_transversal(square, node_budget):
        return (False,) * len(cells)
    status, nodes, _ = _search_cells(square, cells, True, node_budget)
    if (status == -1).any():
        raise BudgetExceeded(int(nodes[status == -1][0]))
    return tuple((status == 0).tolist())


def _has_transversal(square: LatinSquare, node_budget: int | None) -> bool:
    """True when the square's family witness is a transversal of this very square,
    else whether one unconstrained search finds one."""
    try:
        witness = witness_transversal(square.family, square.order)
    except DomainError:  # no family, no witness, or an order the family does not cover
        witness = None
    if witness is not None and is_transversal(square, witness):
        return True
    return find(square, node_budget=node_budget) is not None


def find_disjoint_pair(square: LatinSquare, *,
                       node_budget: int | None = None) -> tuple[Transversal, Transversal] | None:
    """First entry-disjoint pair of transversals in lexicographic order, if any.

    The lazy iteration over first members runs on the pure twin.
    """
    for first in iter_solutions(square, node_budget=node_budget):
        cells = tuple((r, c) for r, c in enumerate(first.cols))
        second = find(square, forbidden_cells=cells, node_budget=node_budget)
        if second is not None:
            return (first, second)
    return None


def count_parity_check(square: LatinSquare, *,
                       node_budget: int | None = None) -> tuple[int, bool]:
    """Full transversal count of an even-order square plus its evenness."""
    if square.order % 2:
        raise OddOrder("parity check applies to even order")
    count = enumerate_solutions(square, node_budget=node_budget)
    return count, count % 2 == 0
