"""Exhaustive search over diagonals and transversals with delta-interval pruning.

The search walks rows in ascending index order assigning one column per row
under used-column (and, for transversals, used-symbol) bitmasks, so solutions
are produced in lexicographic order of the column sequence and enumeration is
deterministic.  At every node the partial delta sum plus the remaining rows'
min/max delta suffix sums brackets every reachable total; if no integer in
that interval hits the target residue (n/2 mod n for even order, 0 for odd)
the subtree is pruned.  A search that wants only the first solution
(`find`, each per-cell search of `classify`) also forward-checks: it drops a
candidate whose placement leaves some later row with no candidate whose column
(and symbol) is free.  Full and lazy enumeration do not, so their node totals
are those of the delta prune alone.  Pruning never removes a real solution,
which the test suite checks by comparing against pruning-disabled runs; the
forward check drops only subtrees without one, so the first solution found is
the same with and without it.

"Budget exceeded" is a first-class outcome distinct from "no solution": the
kernel reports how far it got and callers surface the result as unknown.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from enum import Enum
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
    _as_rcs,
    as_transversal,
)
from .delta import OddOrder, delta_grid

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
    negative budget is a DomainError.
    """

    required: frozenset[Entry] = frozenset()
    forbidden_cells: frozenset[tuple[int, int]] = frozenset()
    mode: SearchMode = SearchMode.TRANSVERSAL
    node_budget: int | None = None

    @classmethod
    def make(cls, required=(), forbidden_cells=(), mode=SearchMode.TRANSVERSAL,
             node_budget=None) -> "SearchConstraints":
        req = frozenset(Entry(*_as_rcs(e)) for e in required)
        forb = frozenset((int(r), int(c)) for r, c in forbidden_cells)
        return cls(req, forb, mode, node_budget)

    def validate(self, square: LatinSquare) -> None:
        _check_budget(self.node_budget)
        rows, cols, syms = set(), set(), set()
        for e in self.required:
            if not (0 <= e.row < square.order and 0 <= e.col < square.order):
                raise DomainError(f"required entry {e} outside the square")
            if square.grid[e.row][e.col] != e.sym:
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
        if self.mode is SearchMode.SUITABLE_DIAGONAL and square.order % 2:
            raise OddOrder("suitable-diagonal mode needs even order")


def _check_budget(node_budget: int | None) -> None:
    if node_budget is not None and node_budget < 0:
        raise DomainError(f"node budget must be at least 0, got {node_budget}")


def _base_candidates(square: LatinSquare) -> np.ndarray:
    """Every cell as a (col, sym, delta) candidate: an (n, n, 3) int64 array.

    Unconstrained and independent of the search mode, so one build serves
    every search on the square; `_Prepared` filters it per search.
    """
    n = square.order
    base = np.empty((n, n, 3), np.int64)
    base[:, :, 0] = np.arange(n)
    base[:, :, 1] = square.to_array()
    base[:, :, 2] = delta_grid(square)
    return base


class _Prepared:
    """One search's candidates: the square's base table and the cells it keeps.

    ``base`` is `_base_candidates`'s (n, n, 3) table and ``keep`` the (n, n)
    mask of each row's candidate cells; ``rows[r]`` is row r's mask as bits
    of one int64, the kernel's layout, and ``rows`` is None above the
    kernel's largest order.  ``lo_suf[r]`` and
    ``hi_suf[r]`` bound the delta sum of rows r..n-1.
    """

    __slots__ = ("n", "target", "use_syms", "sd_final", "base", "keep", "rows",
                 "lo_suf", "hi_suf")

    def __init__(self, square: LatinSquare, constraints: SearchConstraints,
                 base: np.ndarray | None = None):
        constraints.validate(square)
        n = square.order
        if base is None:
            base = _base_candidates(square)
        transversal = constraints.mode is SearchMode.TRANSVERSAL
        keep = np.ones((n, n), bool)
        for e in constraints.required:
            keep[:, e.col] = False
            if transversal:
                keep &= base[:, :, 1] != e.sym
        for r, c in constraints.forbidden_cells:
            keep[r, c] = False
        for e in constraints.required:
            keep[e.row] = False
            keep[e.row, e.col] = True
        deltas = base[:, :, 2]
        # deltas lie in (-n/2, n/2], so n and -n never win a min or max over a kept cell
        lo = np.zeros(n + 1, np.int64)
        hi = np.zeros(n + 1, np.int64)
        lo[:n] = np.cumsum(np.where(keep, deltas, n).min(axis=1)[::-1])[::-1]
        hi[:n] = np.cumsum(np.where(keep, deltas, -n).max(axis=1)[::-1])[::-1]
        self.n = n
        self.use_syms = transversal
        self.sd_final = constraints.mode is SearchMode.SUITABLE_DIAGONAL
        self.target = (n // 2) if n % 2 == 0 else 0
        self.base = base
        self.keep = keep
        self.rows = keep @ (1 << np.arange(n)) if n <= _kernel.MAX_KERNEL_ORDER else None
        self.lo_suf = lo
        self.hi_suf = hi


class _NodeCounter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _iter_cols(prep: _Prepared, prune: bool, budget: int | None, counter: _NodeCounter,
               first_hit: bool) -> Iterator[tuple[int, ...]]:
    """Pure-python twin of the compiled kernel; yields column tuples lazily.

    A ``first_hit`` caller, which takes at most the first solution, also
    gets the forward check when ``prune`` is on: a candidate is dropped,
    after its node is counted, when placing it leaves a later row without a
    candidate whose column (and, in a transversal search, symbol) is free.
    The kernel makes the same check at the same point.
    """
    cand = [row[keep].tolist() for row, keep in zip(prep.base, prep.keep)]
    if not all(cand):
        return  # a row without candidates
    n = prep.n
    target = prep.target
    lo_suf = prep.lo_suf.tolist()
    hi_suf = prep.hi_suf.tolist()
    use_syms = prep.use_syms
    sd_final = prep.sd_final
    forward = prune and first_hit
    if prune and lo_suf[0] + ((target - lo_suf[0]) % n) > hi_suf[0]:
        return  # the target residue is unreachable from the root
    limit = -1 if budget is None else budget
    sol = [0] * n
    idx = [0] * (n + 1)
    ucols = [0] * (n + 1)
    usyms = [0] * (n + 1)
    dsum = [0] * (n + 1)
    depth = 0
    nodes = counter.nodes
    while depth >= 0:
        if depth == n:
            if not sd_final or dsum[n] % n == target:
                counter.nodes = nodes
                yield tuple(sol)
            depth -= 1
            continue
        row = cand[depth]
        length = len(row)
        i = idx[depth]
        uc = ucols[depth]
        us = usyms[depth]
        ds = dsum[depth]
        moved = False
        while i < length:
            nodes += 1
            if 0 <= limit < nodes:
                counter.nodes = nodes
                raise BudgetExceeded(nodes)
            c, s, d = row[i]
            i += 1
            if uc >> c & 1:
                continue
            if use_syms and us >> s & 1:
                continue
            nd = ds + d
            if prune:
                lo = nd + lo_suf[depth + 1]
                hi = nd + hi_suf[depth + 1]
                if lo + ((target - lo) % n) > hi:
                    continue
            uc_next = uc | 1 << c
            us_next = us | 1 << s if use_syms else us
            if forward and not all(
                    any(not (uc_next >> c2 & 1 or us_next >> s2 & 1) for c2, s2, _ in cand[r])
                    for r in range(depth + 1, n)):
                continue
            idx[depth] = i
            sol[depth] = c
            ucols[depth + 1] = uc_next
            usyms[depth + 1] = us_next
            dsum[depth + 1] = nd
            depth += 1
            idx[depth] = 0
            moved = True
            break
        if not moved:
            idx[depth] = i
            depth -= 1
    counter.nodes = nodes


def _use_kernel(n: int) -> bool:
    """Whether a search of order n runs on the compiled kernel rather than the pure twin."""
    if n > _kernel.MAX_KERNEL_ORDER:
        _log_large_orders()
        return False
    return _kernel.load() is not None


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


def find(square: LatinSquare, constraints: SearchConstraints | None = None, *,
         prune: bool = True, **kwargs) -> Transversal | Diagonal | None:
    """First solution in lexicographic column order, or None if none exists.

    Raises BudgetExceeded when the node budget runs out, which is an unknown
    outcome, never a "no".
    """
    cons = _constraints_arg(constraints, kwargs)
    cols = _first_hit(_Prepared(square, cons), prune, cons.node_budget)
    if cols is None:
        return None
    if cons.mode is SearchMode.TRANSVERSAL:
        return as_transversal(square, cols)
    return Diagonal(cols)


def _first_hit(prep: _Prepared, prune: bool, budget: int | None) -> tuple[int, ...] | None:
    """Columns of a prepared search's first solution, or None; BudgetExceeded if it runs out."""
    if _use_kernel(prep.n):
        status, _, nodes, cols = _kernel.run(
            prep.base, prep.rows[None], use_syms=prep.use_syms, sd_final=prep.sd_final,
            prune=prune, budget=budget, enumerate_all=False)
        if status[0] == -1:
            raise BudgetExceeded(int(nodes[0]))
        return tuple(cols[0].tolist()) if status[0] == 1 else None
    return next(_iter_cols(prep, prune, budget, _NodeCounter(), True), None)


def iter_solutions(square: LatinSquare, constraints: SearchConstraints | None = None, *,
                   prune: bool = True, **kwargs) -> Iterator[Diagonal]:
    """Lazy lexicographic enumeration on the pure twin; yields bound objects."""
    cons = _constraints_arg(constraints, kwargs)
    prep = _Prepared(square, cons)
    counter = _NodeCounter()
    wrap = (lambda c: as_transversal(square, c)) \
        if cons.mode is SearchMode.TRANSVERSAL else Diagonal
    for cols in _iter_cols(prep, prune, cons.node_budget, counter, False):
        yield wrap(cols)


def enumerate_solutions(square: LatinSquare, constraints: SearchConstraints | None = None,
                        *, prune: bool = True, **kwargs) -> int:
    """Count every solution; `iter_solutions` visits them one by one."""
    return count_and_cover(square, constraints, prune=prune, **kwargs).count


def count_and_cover(square: LatinSquare, constraints: SearchConstraints | None = None, *,
                    prune: bool = True, **kwargs) -> EnumerationSummary:
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
    return _count(_Prepared(square, cons), prune, cons.node_budget, None)


def _count(prep: _Prepared, prune: bool, budget: int | None,
           threads: int | None) -> EnumerationSummary:
    """`count_and_cover` of a prepared search, on ``threads`` kernel threads (None: every CPU)."""
    if _use_kernel(prep.n):
        status, count, nodes, _ = _kernel.run(
            prep.base, prep.rows[None], use_syms=prep.use_syms, sd_final=prep.sd_final,
            prune=prune, budget=budget, enumerate_all=True, threads=threads)
        if status[0] == -1:
            raise BudgetExceeded(int(nodes[0]))
        return EnumerationSummary(count=int(count[0]), nodes=int(nodes[0]))
    counter = _NodeCounter()
    count = sum(1 for _ in _iter_cols(prep, prune, budget, counter, False))
    return EnumerationSummary(count=count, nodes=counter.nodes)


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Per-cell transversal status plus the derived counts.

    ``status[r][c]`` is FREE (in no transversal), COVERED (in some but not
    all), PINNED (in every transversal, of which there is at least one), or
    UNKNOWN (budget ran out); ``tau`` counts FREE cells.
    """

    order: int
    family: str | None
    status: tuple[tuple[str, ...], ...]
    tau: int
    pinned: tuple[Entry, ...]
    has_transversal: bool
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


def _cell_rows(base: np.ndarray, cells: np.ndarray, avoid: bool) -> np.ndarray:
    """`_Prepared`'s row masks for a transversal search through, or with ``avoid``
    avoiding, each of ``cells``: a (k, n) int64 array, row j for ``cells[j]``.

    A required entry (r, c, s) keeps only column c in row r and drops column
    c and the cell of symbol s from every other row; a forbidden cell (r, c)
    drops that cell alone.  ``base`` is `_base_candidates`'s table of a
    latin square, so each row holds each symbol in exactly one column.
    """
    n = len(base)
    everything = (1 << n) - 1
    r, c = cells.T
    bit = np.left_shift(1, c)
    k = np.arange(len(cells))
    if avoid:
        rows = np.full((len(cells), n), everything, np.int64)
        rows[k, r] = everything ^ bit
        return rows
    # others[s, i]: the columns of row i other than the one holding symbol s
    others = everything ^ np.left_shift(1, np.argsort(base[:, :, 1], axis=1)).T
    rows = others[base[r, c, 1]]
    rows &= ~bit[:, None]
    rows[k, r] = bit
    return rows


def _search_cells(square: LatinSquare, cells, avoid: bool, budget: int | None,
                  threads: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First transversal through, or with ``avoid`` avoiding, each of ``cells``.

    Returns (status, nodes, cols) arrays for the cells in order: status 1
    with the first solution's columns in that cell's row of ``cols``, 0 when
    there is none, or -1 when the search ran out of its node budget; nodes
    is what each search visited (budget + 1 when it ran out).  The square's
    candidates are built once for the whole batch.  On the compiled kernel
    the whole batch is one `_kernel.run` call over `_cell_rows`'s masks on
    ``threads`` threads (None: every CPU), which builds the square's tables
    once; on the pure twin each cell gets its own `_Prepared` and
    `_iter_cols` search, one after another, with the same results.
    """
    base = _base_candidates(square)
    cells = np.reshape(np.asarray(cells, np.int64), (-1, 2))
    if _use_kernel(square.order):
        status, _, nodes, cols = _kernel.run(
            base, _cell_rows(base, cells, avoid), use_syms=True, sd_final=False, prune=True,
            budget=budget, enumerate_all=False, threads=threads)
        return status, nodes, cols
    n = square.order
    status = np.zeros(len(cells), np.int64)
    nodes = np.zeros(len(cells), np.int64)
    cols = np.zeros((len(cells), n), np.int64)
    for j, (r, c) in enumerate(cells.tolist()):
        if avoid:
            cons = SearchConstraints(forbidden_cells=frozenset({(r, c)}), node_budget=budget)
        else:
            cons = SearchConstraints(required=frozenset({square.entry(r, c)}), node_budget=budget)
        counter = _NodeCounter()
        try:
            first = next(_iter_cols(_Prepared(square, cons, base), True, budget, counter, True),
                         None)
        except BudgetExceeded:
            status[j] = -1
        else:
            if first is not None:
                status[j] = 1
                cols[j] = first
        nodes[j] = counter.nodes
    return status, nodes, cols


# Status names by code: a phase-1 status of 0 makes a cell FREE, -1 leaves it UNKNOWN.
_STATUS_NAMES = (UNKNOWN, FREE, COVERED, PINNED)
_UNKNOWN, _FREE, _COVERED, _PINNED = range(4)


def _classify_cells(square: LatinSquare, node_budget: int | None, threads: int | None,
                    transversal_count: int | None = None,
                    nodes: int = 0) -> ClassificationReport:
    """The two per-cell phases of `classify`; the report adds ``nodes`` to their own.

    Statuses, witnesses and the nodes of budget-exhausted searches are read
    from the phases' arrays; the status strings are built once, at the end.
    """
    n = square.order
    cells = np.indices((n, n)).reshape(2, -1).T
    found, spent, cols = _search_cells(square, cells, False, node_budget, threads)
    code = np.choose(found + 1, (_UNKNOWN, _FREE, _COVERED))
    nodes += int(spent[found == -1].sum())
    witnessed = np.flatnonzero(found == 1)
    witness_cols = cols[witnessed]
    # a cell lies in every witness when every witness has its column in its row
    common = np.zeros(n * n, bool)
    if len(witnessed):
        rows = np.flatnonzero((witness_cols == witness_cols[0]).all(axis=0))
        common[rows * n + witness_cols[0, rows]] = True
    shared = np.flatnonzero(common & (found == 1))
    if len(shared):
        avoided, spent, _ = _search_cells(square, cells[shared], True, node_budget, threads)
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
        has_transversal=bool(len(witnessed)),
        transversal_count=transversal_count,
        witnesses=dict(zip(map(tuple, cells[witnessed].tolist()),
                           map(tuple, witness_cols.tolist()))),
        partial=bool((code == _UNKNOWN).any()),
        nodes=nodes,
    )


def _report_from_summary(square: LatinSquare, summary: EnumerationSummary,
                         threads: int | None = None) -> ClassificationReport:
    """The report of a finished unconstrained enumeration of ``square``.

    Statuses and witnesses come from the per-cell phases, run on ``threads``
    kernel threads (None: every CPU) with no node budget;
    ``transversal_count`` and ``nodes`` come from ``summary``.  No budget is
    needed: every per-cell search keeps a subsequence of each row's
    candidates and narrower suffix delta intervals, and its forward check
    only drops more, so it visits a subset (not a prefix) of the nodes of
    the enumeration that already finished and cannot run out where that
    did not.
    """
    return _classify_cells(square, None, threads, summary.count, summary.nodes)


def classify(square: LatinSquare, *, node_budget: int | None = None, jobs: int | None = None,
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

    ``jobs`` caps the kernel's threads, for the enumeration and for each
    phase; the default is every CPU in the affinity mask.  Each search's
    result does not depend on the thread count, and the intersection is
    taken after all phase-1 results are in, so neither does the report.
    ``jobs`` below 1 is a DomainError.

    ``node_budget`` caps each search; a search that runs out leaves its cell
    UNKNOWN and the report partial, never FREE or PINNED.  A cell whose
    phase-1 search finished is COVERED as soon as some witness avoids it, so
    a budgeted run resolves cells whose avoiding search would have run out.
    A negative ``node_budget`` is a DomainError.
    """
    if strategy not in ("per-cell", "enumerate"):
        raise DomainError(f"unknown classify strategy {strategy!r}")
    if jobs is not None and jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    _check_budget(node_budget)
    threads = _kernel.cpu_count() if jobs is None else min(jobs, _kernel.cpu_count())
    if strategy == "enumerate":
        summary = _count(_Prepared(square, SearchConstraints(node_budget=node_budget)),
                         True, node_budget, threads)
        return _report_from_summary(square, summary, threads)
    return _classify_cells(square, node_budget, threads)


def is_pinned(square: LatinSquare, entry, *, node_budget: int | None = None) -> bool:
    """True iff the square has a transversal and none avoids the entry's cell."""
    return pinned_verdicts(square, (entry,), node_budget=node_budget)[0]


def pinned_verdicts(square: LatinSquare, entries, *,
                    node_budget: int | None = None) -> tuple[bool, ...]:
    """`is_pinned` for each entry, running the unconstrained search once for all."""
    _check_budget(node_budget)
    cells = []
    for entry in entries:
        e = Entry(*_as_rcs(entry))
        if not (0 <= e.row < square.order and 0 <= e.col < square.order):
            raise DomainError(f"{e} is outside the square")
        if square.grid[e.row][e.col] != e.sym:
            raise DomainError(f"{e} is not an entry of the square")
        cells.append((e.row, e.col))
    if not cells or find(square, node_budget=node_budget) is None:
        return (False,) * len(cells)
    return tuple(find(square, forbidden_cells=(cell,), node_budget=node_budget) is None
                 for cell in cells)


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
