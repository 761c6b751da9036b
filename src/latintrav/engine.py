"""Exhaustive search over diagonals and transversals with delta-interval pruning.

The search walks rows in ascending index order assigning one column per row
under used-column (and, for transversals, used-symbol) bitmasks, so solutions
are produced in lexicographic order of the column sequence and enumeration is
deterministic.  At every node the partial delta sum plus the remaining rows'
min/max delta suffix sums brackets every reachable total; if no integer in
that interval hits the target residue (n/2 mod n for even order, 0 for odd)
the subtree is pruned.  Pruning never removes a real solution, which the test
suite checks by comparing against pruning-disabled runs.

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

# Node cap for the opportunistic full-enumeration pass inside classify().
AUTO_ENUM_BUDGET = 400_000_000

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
    """Required entries, forbidden cells, search mode, and an optional budget."""

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
    """One search's candidates, laid out for the compiled kernel.

    ``cand`` is (k, 3) int64 of (col, sym, delta), row after row and columns
    ascending within a row; row r is ``cand[row_start[r]:row_start[r + 1]]``.
    ``lo_suf[r]`` and ``hi_suf[r]`` bound the delta sum of rows r..n-1.
    """

    __slots__ = ("n", "target", "use_syms", "sd_final", "cand", "row_start",
                 "lo_suf", "hi_suf", "feasible")

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
        lengths = keep.sum(axis=1)
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
        self.cand = base[keep]
        self.row_start = np.zeros(n + 1, np.int64)
        np.cumsum(lengths, out=self.row_start[1:])
        self.feasible = bool(lengths.all())
        self.lo_suf = lo
        self.hi_suf = hi


class _NodeCounter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _iter_cols(prep: _Prepared, prune: bool, budget: int | None,
               counter: _NodeCounter) -> Iterator[tuple[int, ...]]:
    """Pure-python twin of the compiled kernel; yields column tuples lazily."""
    if not prep.feasible:
        return
    n = prep.n
    target = prep.target
    flat = prep.cand.tolist()
    bounds = prep.row_start.tolist()
    cand = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    lo_suf = prep.lo_suf.tolist()
    hi_suf = prep.hi_suf.tolist()
    use_syms = prep.use_syms
    sd_final = prep.sd_final
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
            idx[depth] = i
            sol[depth] = c
            ucols[depth + 1] = uc | 1 << c
            usyms[depth + 1] = us | 1 << s if use_syms else us
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
    if not prep.feasible:
        return None
    if _use_kernel(prep.n):
        status, _, nodes, first_cols = _kernel.run(
            prep, prune=prune, budget=budget, enumerate_all=False)
        if status == -1:
            raise BudgetExceeded(nodes)
        return tuple(int(c) for c in first_cols) if status == 1 else None
    return next(_iter_cols(prep, prune, budget, _NodeCounter()), None)


def iter_solutions(square: LatinSquare, constraints: SearchConstraints | None = None, *,
                   prune: bool = True, **kwargs) -> Iterator[Diagonal]:
    """Lazy lexicographic enumeration on the pure twin; yields bound objects."""
    cons = _constraints_arg(constraints, kwargs)
    prep = _Prepared(square, cons)
    counter = _NodeCounter()
    wrap = (lambda c: as_transversal(square, c)) \
        if cons.mode is SearchMode.TRANSVERSAL else Diagonal
    for cols in _iter_cols(prep, prune, cons.node_budget, counter):
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
    if not prep.feasible:
        return EnumerationSummary(count=0, nodes=0)
    if _use_kernel(prep.n):
        status, count, nodes, _ = _kernel.run(
            prep, prune=prune, budget=budget, enumerate_all=True, threads=threads)
        if status == -1:
            raise BudgetExceeded(nodes)
        return EnumerationSummary(count=count, nodes=nodes)
    counter = _NodeCounter()
    count = sum(1 for _ in _iter_cols(prep, prune, budget, counter))
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


def _search_cells(square: LatinSquare, cells, avoid: bool, budget: int | None,
                  threads: int | None) -> list[tuple[int, int, tuple[int, ...] | None, int | None]]:
    """First transversal through, or with ``avoid`` avoiding, each of ``cells``.

    The square's candidates are built once for the whole batch.  On the
    compiled kernel the whole batch is one `_kernel.run_cells` call on
    ``threads`` threads (None: every CPU), which filters the candidates for
    each cell in C; on the pure twin each cell gets its own `_Prepared` and
    `_iter_cols` search, one after another.  Each result is (r, c, cols or
    None, None), or (r, c, None, nodes) when the search ran out of its node
    budget after ``nodes`` nodes.
    """
    base = _base_candidates(square)
    if _use_kernel(square.order):
        status, nodes, cols = _kernel.run_cells(
            base, np.array(cells, np.int64).reshape(-1, 2), avoid, budget, threads=threads)
        return [(r, c, tuple(w) if st == 1 else None, spent if st == -1 else None)
                for (r, c), st, spent, w in zip(cells, status.tolist(), nodes.tolist(),
                                                cols.tolist())]
    out = []
    for r, c in cells:
        if avoid:
            cons = SearchConstraints(forbidden_cells=frozenset({(r, c)}), node_budget=budget)
        else:
            cons = SearchConstraints(required=frozenset({square.entry(r, c)}), node_budget=budget)
        try:
            cols = _first_hit(_Prepared(square, cons, base), True, budget)
        except BudgetExceeded as exc:
            out.append((r, c, None, exc.nodes))
        else:
            out.append((r, c, cols, None))
    return out


def _classify_cells(square: LatinSquare, node_budget: int | None, threads: int | None,
                    transversal_count: int | None = None,
                    nodes: int = 0) -> ClassificationReport:
    """The two per-cell phases of `classify`; the report adds ``nodes`` to their own."""
    n = square.order
    status = [[UNKNOWN] * n for _ in range(n)]
    witnesses: dict[tuple[int, int], tuple[int, ...]] = {}
    cells = [(r, c) for r in range(n) for c in range(n)]
    for r, c, cols, spent in _search_cells(square, cells, False, node_budget, threads):
        if spent is not None:
            nodes += spent
        elif cols is None:
            status[r][c] = FREE
        else:
            witnesses[(r, c)] = cols
    common = set.intersection(*(set(enumerate(w)) for w in witnesses.values())) \
        if witnesses else set()
    for r, c in witnesses:
        if (r, c) not in common:
            status[r][c] = COVERED
    shared = sorted(cell for cell in witnesses if cell in common)
    for r, c, cols, spent in _search_cells(square, shared, True, node_budget, threads):
        if spent is not None:
            nodes += spent
        else:
            status[r][c] = PINNED if cols is None else COVERED
    return ClassificationReport(
        order=n,
        family=square.family,
        status=tuple(tuple(row) for row in status),
        tau=sum(row.count(FREE) for row in status),
        pinned=tuple(square.entry(r, c) for r in range(n) for c in range(n)
                     if status[r][c] == PINNED),
        has_transversal=bool(witnesses),
        transversal_count=transversal_count,
        witnesses=witnesses,
        partial=any(UNKNOWN in row for row in status),
        nodes=nodes,
    )


def _report_from_summary(square: LatinSquare, summary: EnumerationSummary,
                         threads: int | None = None) -> ClassificationReport:
    """The report of a finished unconstrained enumeration of ``square``.

    Statuses and witnesses come from the per-cell phases, run on ``threads``
    kernel threads (None: every CPU) with no node budget;
    ``transversal_count`` and ``nodes`` come from ``summary``.  No budget is
    needed: every per-cell search keeps a subsequence of each row's
    candidates and narrower suffix delta intervals, so it visits a subset of
    the nodes of the enumeration that already finished and cannot run out
    where that did not.
    """
    return _classify_cells(square, None, threads, summary.count, summary.nodes)


def classify(square: LatinSquare, *, node_budget: int | None = None, jobs: int | None = None,
             strategy: str = "auto") -> ClassificationReport:
    """Classify every cell as FREE / COVERED / PINNED.

    Every report's statuses and witnesses come from the per-cell phases
    below.  ``strategy='enumerate'`` first counts all transversals in one
    full enumeration under ``node_budget``, which adds ``transversal_count``
    and puts the enumeration's nodes in ``nodes``, then runs both phases
    without a budget (see `_report_from_summary`).  ``strategy='auto'`` caps
    that enumeration at AUTO_ENUM_BUDGET nodes and, when the cap or the budget
    runs out, logs the nodes it spent and classifies per cell under
    ``node_budget`` instead (squares with huge transversal counts classify
    far faster per cell).

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
    """
    if strategy not in ("auto", "enumerate", "per-cell"):
        raise DomainError(f"unknown classify strategy {strategy!r}")
    if jobs is not None and jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    threads = _kernel.cpu_count() if jobs is None else min(jobs, _kernel.cpu_count())
    if strategy in ("auto", "enumerate"):
        enum_budget = node_budget
        if strategy == "auto":
            # the enumeration pass is opportunistic; cap it so the fallback
            # still has the caller's budget available
            enum_budget = AUTO_ENUM_BUDGET if node_budget is None \
                else min(node_budget, AUTO_ENUM_BUDGET)
        try:
            summary = _count(_Prepared(square, SearchConstraints(node_budget=enum_budget)),
                             True, enum_budget, threads)
        except BudgetExceeded as exc:
            if strategy == "enumerate":
                raise
            log.info("%s%d: full enumeration ran out of its %d-node budget after %d nodes; "
                     "classifying per cell", square.family or "order ", square.order,
                     enum_budget, exc.nodes)
        else:
            return _report_from_summary(square, summary, threads)
    return _classify_cells(square, node_budget, threads)


def is_pinned(square: LatinSquare, entry, *, node_budget: int | None = None) -> bool:
    """True iff the square has a transversal and none avoids the entry's cell."""
    return pinned_verdicts(square, (entry,), node_budget=node_budget)[0]


def pinned_verdicts(square: LatinSquare, entries, *,
                    node_budget: int | None = None) -> tuple[bool, ...]:
    """`is_pinned` for each entry, running the unconstrained search once for all."""
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
