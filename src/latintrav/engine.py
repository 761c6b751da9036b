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

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

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


class BudgetExceeded(LatinSquareError):
    """The node budget ran out before the search finished."""

    def __init__(self, nodes: int, count: int = 0):
        self.nodes = nodes
        self.count = count
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
    return n <= _kernel.MAX_KERNEL_ORDER and _kernel.load() is not None


def _run_kernel(prep: _Prepared, *, prune: bool, budget: int | None,
                enumerate_all: bool, block_m: int = 0, want_cover: bool = False):
    return _kernel.run(prep.cand, prep.row_start, prep.lo_suf, prep.hi_suf, prep.n,
                       prep.target, prep.use_syms, prep.sd_final, prune, budget,
                       enumerate_all, block_m, want_cover)


@dataclass(frozen=True)
class EnumerationSummary:
    """Aggregates of a full enumeration: count, per-cell cover, witnesses."""

    count: int
    cover: np.ndarray | None
    witness_cols: dict[tuple[int, int], tuple[int, ...]]
    min_block_hits: int | None
    nodes: int
    first: tuple[int, ...] | None


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
        status, _, nodes, _, first_cols, _, _, _ = _run_kernel(
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
                        visitor: Callable[[Diagonal], None] | None = None, *,
                        prune: bool = True, **kwargs) -> int:
    """Visit every solution exactly once in lexicographic order; return the count.

    With a ``visitor`` the lazy iteration runs on the pure twin.
    """
    cons = _constraints_arg(constraints, kwargs)
    if visitor is None:
        summary = count_and_cover(square, cons, prune=prune, want_cover=False)
        return summary.count
    count = 0
    for sol in iter_solutions(square, cons, prune=prune):
        visitor(sol)
        count += 1
    return count


def count_and_cover(square: LatinSquare, constraints: SearchConstraints | None = None, *,
                    prune: bool = True, block_m: int = 0, want_cover: bool = True,
                    **kwargs) -> EnumerationSummary:
    """Full enumeration reduced to aggregates: count, cover counts, witnesses.

    The per-cell cover matrix counts how many solutions use each cell; the
    witness map keeps the first solution through each covered cell.
    """
    cons = _constraints_arg(constraints, kwargs)
    prep = _Prepared(square, cons)
    n = prep.n
    if block_m < 0 or 0 < 3 * block_m < n:
        raise DomainError(f"block_m {block_m} does not split order {n} into 3 x 3 blocks")
    if not prep.feasible:
        return EnumerationSummary(count=0, cover=np.zeros((n, n), np.int64) if want_cover else None,
                                  witness_cols={}, min_block_hits=None, nodes=0, first=None)
    if _use_kernel(n):
        status, count, nodes, min_block, first_cols, cover, witness, have = _run_kernel(
            prep, prune=prune, budget=cons.node_budget, enumerate_all=True,
            block_m=block_m, want_cover=want_cover)
        if status == -1:
            raise BudgetExceeded(nodes, count)
        witness_map = {}
        if want_cover:
            for cell in np.flatnonzero(have):
                r, c = divmod(int(cell), n)
                witness_map[(r, c)] = tuple(int(v) for v in witness[cell])
        return EnumerationSummary(
            count=count,
            cover=cover if want_cover else None,
            witness_cols=witness_map,
            min_block_hits=int(min_block) if (block_m and count) else None,
            nodes=nodes,
            first=tuple(int(c) for c in first_cols) if count else None,
        )
    cover = np.zeros((n, n), np.int64) if want_cover else None
    witness_map: dict[tuple[int, int], tuple[int, ...]] = {}
    min_block = None
    count = 0
    first = None
    counter = _NodeCounter()
    try:
        for cols in _iter_cols(prep, prune, cons.node_budget, counter):
            count += 1
            if first is None:
                first = cols
            if want_cover:
                for r, c in enumerate(cols):
                    cover[r, c] += 1
                    witness_map.setdefault((r, c), cols)
            if block_m:
                x = [0] * 9
                for r, c in enumerate(cols):
                    x[(r // block_m) * 3 + c // block_m] += 1
                mb = min(x)
                min_block = mb if min_block is None else min(min_block, mb)
    except BudgetExceeded as exc:
        raise BudgetExceeded(exc.nodes, count) from None
    return EnumerationSummary(count=count, cover=cover, witness_cols=witness_map,
                              min_block_hits=min_block, nodes=counter.nodes, first=first)


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


def _report_from_summary(square: LatinSquare, summary: EnumerationSummary) -> ClassificationReport:
    n = square.order
    count = summary.count
    cover = summary.cover
    status = []
    pinned = []
    for r in range(n):
        row = []
        for c in range(n):
            hits = int(cover[r, c]) if count else 0
            if hits == 0:
                row.append(FREE)
            elif hits == count:
                row.append(PINNED)
                pinned.append(square.entry(r, c))
            else:
                row.append(COVERED)
        status.append(tuple(row))
    tau = sum(row.count(FREE) for row in status)
    return ClassificationReport(
        order=n,
        family=square.family,
        status=tuple(status),
        tau=tau,
        pinned=tuple(pinned),
        has_transversal=count > 0,
        transversal_count=count,
        witnesses=dict(summary.witness_cols),
        partial=False,
        nodes=summary.nodes,
    )


def _search_cells(args) -> list[tuple[int, int, tuple[int, ...] | None, int | None]]:
    """First transversal through, or with ``avoid`` avoiding, each of ``cells``.

    The square's candidates are built once for the whole batch.  On the
    compiled kernel the whole batch is one `_kernel.run_cells` call, which
    filters the candidates for each cell in C; on the pure twin each cell gets
    its own `_Prepared` and `_iter_cols` search.  Each result is (r, c, cols
    or None, None), or (r, c, None, nodes) when the search ran out of its node
    budget after ``nodes`` nodes.
    """
    square, cells, avoid, budget = args
    base = _base_candidates(square)
    if _use_kernel(square.order):
        status, nodes, cols = _kernel.run_cells(
            base, np.array(cells, np.int64).reshape(-1, 2), avoid, budget)
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


def _map_cells(pool, jobs: int, square: LatinSquare, cells, avoid: bool,
               budget: int | None):
    """`_search_cells` over ``cells``, in strided chunks on ``pool`` when there is one."""
    if pool is None:
        return _search_cells((square, cells, avoid, budget))
    k = min(len(cells), 4 * jobs)
    chunks = [(square, cells[i::k], avoid, budget) for i in range(k)]
    return [res for part in pool.map(_search_cells, chunks) for res in part]


def classify(square: LatinSquare, *, node_budget: int | None = None, jobs: int = 1,
             strategy: str = "auto") -> ClassificationReport:
    """Classify every cell as FREE / COVERED / PINNED.

    ``strategy='auto'`` first tries one full enumeration with per-cell cover
    counting, capped at AUTO_ENUM_BUDGET nodes, and falls back to per-cell
    searches if that cap is exhausted (squares with huge transversal counts
    classify far faster per cell).  Both strategies produce identical
    reports.

    Per-cell classification runs in two phases over one preparation of the
    square.  Phase 1 searches each cell for the lexicographically first
    transversal through it: none makes the cell FREE, and the one found is
    the cell's witness, the same one ``strategy='enumerate'`` reports.  A
    witnessed cell that some phase-1 witness avoids is COVERED.  Phase 2
    searches only the witnessed cells that lie in every phase-1 witness for a
    transversal avoiding them: none makes the cell PINNED, one makes it
    COVERED.  In a complete run the intersection is exactly the pinned set
    (a transversal T avoiding (a, x) passes through (a, T[a]), whose witness
    then avoids (a, x) too), so phase 2 is the refutation behind each PINNED
    verdict.  The intersection is taken after all phase-1 results are
    merged, and each phase's work can be spread over ``jobs`` worker
    processes, so the report does not depend on the worker count.  On the
    compiled kernel each phase is one kernel call per square, or per worker
    chunk, not one call per cell.

    ``node_budget`` caps each search; a search that runs out leaves its cell
    UNKNOWN and the report partial, never FREE or PINNED.  A cell whose
    phase-1 search finished is COVERED as soon as some witness avoids it, so
    a budgeted run resolves cells whose avoiding search would have run out.
    """
    n = square.order
    if strategy not in ("auto", "enumerate", "per-cell"):
        raise DomainError(f"unknown classify strategy {strategy!r}")
    if strategy in ("auto", "enumerate"):
        enum_budget = node_budget
        if strategy == "auto":
            # the enumeration pass is opportunistic; cap it so the fallback
            # still has the caller's budget available
            enum_budget = AUTO_ENUM_BUDGET if node_budget is None \
                else min(node_budget, AUTO_ENUM_BUDGET)
        cons = SearchConstraints.make(node_budget=enum_budget)
        try:
            summary = count_and_cover(square, cons)
            return _report_from_summary(square, summary)
        except BudgetExceeded:
            if strategy == "enumerate":
                raise
    status = [[UNKNOWN] * n for _ in range(n)]
    witnesses: dict[tuple[int, int], tuple[int, ...]] = {}
    total_nodes = 0
    cells = [(r, c) for r in range(n) for c in range(n)]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for r, c, cols, spent in _map_cells(pool, jobs, square, cells, False, node_budget):
            if spent is not None:
                total_nodes += spent
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
        for r, c, cols, spent in _map_cells(pool, jobs, square, shared, True, node_budget):
            if spent is not None:
                total_nodes += spent
            else:
                status[r][c] = PINNED if cols is None else COVERED
    partial = any(UNKNOWN in row for row in status)
    tau = sum(row.count(FREE) for row in status)
    return ClassificationReport(
        order=n,
        family=square.family,
        status=tuple(tuple(row) for row in status),
        tau=tau,
        pinned=tuple(square.entry(r, c) for r in range(n) for c in range(n)
                     if status[r][c] == PINNED),
        has_transversal=bool(witnesses),
        transversal_count=None,
        witnesses=witnesses,
        partial=partial,
        nodes=total_nodes,
    )


def is_pinned(square: LatinSquare, entry, *, node_budget: int | None = None) -> bool:
    """True iff the square has a transversal and none avoids the entry's cell."""
    return pinned_verdicts(square, (entry,), node_budget=node_budget)[0]


def pinned_verdicts(square: LatinSquare, entries, *,
                    node_budget: int | None = None) -> tuple[bool, ...]:
    """`is_pinned` for each entry, running the unconstrained search once for all."""
    cells = []
    for entry in entries:
        e = Entry(*_as_rcs(entry))
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
