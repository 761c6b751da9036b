import ctypes
import dataclasses
import inspect
import itertools
import logging
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import sysconfig
import threading
import time
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

from latintrav import _kernel
from latintrav import (
    BudgetExceeded,
    Diagonal,
    DomainError,
    Entry,
    LatinSquare,
    SearchConstraints,
    SearchMode,
    Transversal,
    cayley_table,
    classify,
    count_parity_check,
    enumerate_solutions,
    find,
    find_disjoint_pair,
    is_pinned,
    is_transversal,
    iter_solutions,
)
from latintrav import engine
from latintrav.blocks import block_cells, verify_hit_theorem
from latintrav.delta import OddOrder, delta_grid, delta_sum
from latintrav.engine import (
    COVERED,
    FREE,
    PINNED,
    UNKNOWN,
    _cell_rows,
    _iter_cols,
    _NodeCounter,
    _Prepared,
    _search_cells,
    count_and_cover,
    pinned_verdicts,
)
from latintrav.families import (
    build_exceptional,
    build_L,
    build_T,
    build_U,
    build_V,
    build_family,
    claimed_free_cells,
    claimed_pinned_entries,
    witness_transversal,
)

SMALL = [cayley_table(n) for n in range(1, 7)] + [build_exceptional(6)]

needs_compiler = pytest.mark.skipif(_kernel.load() is None, reason="no C compiler")


@contextmanager
def pure_twin():
    """Searches inside run on the pure twin, as they do where the kernel cannot be built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        yield


@pytest.mark.parametrize("path", ["pure", pytest.param("compiled", marks=needs_compiler)])
def test_engine_matches_naive_oracle(path, oracle):
    for sq in SMALL:
        expected = sorted(tuple(p) for p in oracle(sq.grid))
        if path == "pure":
            assert [d.cols for d in iter_solutions(sq)] == expected
            with pure_twin():
                assert enumerate_solutions(sq) == len(expected)
        else:
            assert enumerate_solutions(sq) == len(expected)


def test_enumeration_is_lexicographic_and_deterministic():
    sq = build_exceptional(6)
    first = [d.cols for d in iter_solutions(sq)]
    second = [d.cols for d in iter_solutions(sq)]
    assert first == second == sorted(first)


def test_twin_walk_is_not_bounded_by_the_recursion_limit():
    """One row per level of a 1001-deep walk: a twin that recursed once per row
    raised RecursionError here.  The identity is the first transversal of Z_1001."""
    assert next(iter_solutions(cayley_table(1001))).cols == tuple(range(1001))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pruning_soundness_small(n, oracle):
    sq = cayley_table(n)
    assert [d.cols for d in iter_solutions(sq, prune=False)] == []
    ex = build_exceptional(n) if n in (6, 8) else sq
    pruned = [d.cols for d in iter_solutions(ex, prune=True)]
    unpruned = [d.cols for d in iter_solutions(ex, prune=False)]
    assert pruned == unpruned


@needs_compiler
def test_pure_and_compiled_agree_on_finds():
    for sq in (build_T(12), build_V(10), build_exceptional(8)):
        with pure_twin():
            a = find(sq)
        b = find(sq)
        assert a.cols == b.cols


def test_euler_no_transversal_even_cayley():
    for n in range(2, 21, 2):
        assert find(cayley_table(n)) is None


def test_find_with_required_entry():
    sq = build_T(12)
    t = find(sq, required=(Entry(1, 0, 3),))
    assert isinstance(t, Transversal)
    assert t.cols[1] == 0


def test_find_with_forbidden_pinned_cell_fails():
    sq = build_T(12)
    assert find(sq, forbidden_cells=((1, 0),)) is None


def test_find_rejects_foreign_required_entry():
    with pytest.raises(DomainError):
        find(build_T(12), required=((0, 0, 5),))


def test_constraints_validation():
    sq = build_T(12)
    with pytest.raises(DomainError):
        find(sq, required=((1, 0, 3), (2, 0, 4)))  # same column twice
    with pytest.raises(DomainError):
        find(sq, required=((1, 0, 3),), forbidden_cells=((1, 0),))
    with pytest.raises(OddOrder):
        find(cayley_table(5), mode=SearchMode.SUITABLE_DIAGONAL)


@pytest.mark.parametrize("square, mode", [
    pytest.param(build_V(10), "transversal", id="transversal-string"),
    pytest.param(cayley_table(5), "suitable-diagonal", id="odd-order-suitable-string"),
])
def test_mode_must_be_a_search_mode(square, mode):
    """A mode's value string is not a mode: it ran a suitable-diagonal search, and on an
    odd square skipped the OddOrder check."""
    with pytest.raises(DomainError, match="SearchMode"):
        find(square, mode=mode)


@pytest.mark.parametrize("cell", [(6, 0), (0, 6), (-1, -1), (2, -1)])
def test_forbidden_cell_outside_the_square_is_rejected(cell):
    """No IndexError from a row past the end, no wrap-around from a negative index."""
    with pytest.raises(DomainError, match="outside the square"):
        find(build_exceptional(6), forbidden_cells=(cell,))


def test_suitable_diagonal_mode_is_relaxation():
    sq = build_exceptional(6)
    transversals = {d.cols for d in iter_solutions(sq)}
    suitable = {d.cols for d in iter_solutions(sq, mode=SearchMode.SUITABLE_DIAGONAL)}
    assert transversals <= suitable
    for cols in suitable:
        assert delta_sum(sq, cols) == 3


def test_suitable_diagonal_mode_returns_diagonal():
    d = find(build_T(12), mode=SearchMode.SUITABLE_DIAGONAL)
    assert isinstance(d, Diagonal) and not isinstance(d, Transversal)


def test_budget_exceeded_is_distinct_from_none():
    sq = build_exceptional(8)
    with pure_twin(), pytest.raises(BudgetExceeded):
        find(sq, node_budget=3)
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(sq, node_budget=10)


@needs_compiler
def test_budget_exceeded_compiled_backend():
    with pytest.raises(BudgetExceeded):
        find(build_exceptional(8), node_budget=3)


def _budget_calls(sq):
    """Every library entry point that takes a node budget, as a call of the budget."""
    return [
        lambda budget: find(sq, node_budget=budget),
        lambda budget: next(iter_solutions(sq, node_budget=budget)),
        lambda budget: count_and_cover(sq, node_budget=budget),
        lambda budget: classify(build_T(12), node_budget=budget),
        lambda budget: classify(sq, strategy="enumerate", node_budget=budget),
        lambda budget: is_pinned(sq, (1, 0, 3), node_budget=budget),
        lambda budget: pinned_verdicts(sq, (), node_budget=budget),  # runs no search
        lambda budget: find_disjoint_pair(cayley_table(5), node_budget=budget),
        lambda budget: verify_hit_theorem(3, node_budget=budget),
    ]


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_negative_budget_is_a_domain_error(twin):
    """A budget below 0 is rejected, never read as no budget; 0 stops at the first node."""
    sq = build_V(10)
    calls = _budget_calls(sq)
    with pure_twin() if twin else nullcontext():
        for call in calls:
            for budget in (-1, -3):  # -1 is what the kernel and the twin take for no budget
                with pytest.raises(DomainError, match="node budget must be at least 0"):
                    call(budget)
        for call in calls[:3]:
            with pytest.raises(BudgetExceeded) as exc:
                call(0)
            assert exc.value.nodes == 1
        assert classify(build_T(12), node_budget=0).partial


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_non_integer_budget_is_a_domain_error(twin):
    """A budget that is not an integer is an input error on both backends, before any
    search: the kernel's ctypes call would reject 1.5, and the twin would stop after 2
    nodes.  A numpy integer is an integer."""
    sq = build_V(10)
    with pure_twin() if twin else nullcontext():
        for call in _budget_calls(sq):
            for budget in (1.5, 2.0, "10", True):
                with pytest.raises(DomainError, match="node budget must be an integer"):
                    call(budget)
        with pytest.raises(DomainError, match="node budget must be an integer"):
            find(build_T(12), node_budget=1.5)
        assert find(sq, node_budget=np.int64(10**6)) == find(sq)


def test_unknown_backend_and_block_size_are_rejected():
    with pytest.raises(TypeError, match="backend"):
        find(build_exceptional(6), backend="pure")  # the engine picks the search path itself
    with pytest.raises(TypeError, match="block_m"):
        count_and_cover(build_V(10), block_m=3)  # the search core tallies no blocks
    with pytest.raises(TypeError, match="prune"):
        find(build_exceptional(6), prune=False)  # the kernel always prunes
    with pytest.raises(TypeError, match="prune"):
        count_and_cover(build_V(10), prune=False)


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test, so it builds anew."""
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


@pytest.mark.parametrize("broken", ["missing-compiler", "unwritable-cache"])
def test_failed_build_falls_back_to_pure_twin(broken, monkeypatch, tmp_path, caplog,
                                              fresh_loader):
    if broken == "missing-compiler":
        real = sysconfig.get_config_var
        monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: str(tmp_path / "no-cc") if name == "CC" else real(name))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path / "file" / "cache")
    caplog.set_level(logging.WARNING, logger=_kernel.__name__)
    v10 = count_and_cover(build_V(10))
    assert (v10.count, v10.nodes) == (272, 32_250)
    assert find(build_V(10)).cols == (2, 0, 4, 6, 7, 3, 8, 5, 9, 1)
    ex8 = count_and_cover(build_exceptional(8))
    assert ex8.count == 16
    assert find(build_exceptional(8)).cols == (0, 2, 6, 1, 4, 7, 5, 3)
    ex8_report = classify(build_exceptional(8), strategy="enumerate")
    assert (ex8_report.transversal_count, ex8_report.tau) == (16, 28)
    t12 = classify(build_T(12), strategy="per-cell")
    assert t12.tau == 67
    assert [e.as_tuple() for e in t12.pinned] == [(1, 0, 3), (2, 1, 4)]
    warnings = [rec for rec in caplog.records if rec.name == _kernel.__name__]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert "pure-Python twin" in warnings[0].getMessage()
    assert not list(tmp_path.rglob("_kernel-*"))


@needs_compiler
def test_build_removes_stale_libraries(monkeypatch, tmp_path, fresh_loader):
    """A build deletes the libraries of other sources; another build's temporary stays."""
    monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path)
    current = _kernel.library_path(_kernel._SOURCE.read_bytes())
    stale = tmp_path / ("_kernel-00000000" + current.suffix)
    foreign = tmp_path / (stale.stem + "-x1y2z3.tmp")
    assert stale != current
    stale.write_bytes(b"old build")
    foreign.write_bytes(b"half-written build")
    assert _kernel.load() is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([current.name, foreign.name])
    assert foreign.read_bytes() == b"half-written build"


def test_large_orders_on_the_twin_are_logged_once(caplog):
    engine._log_large_orders.cache_clear()  # as in a fresh process
    caplog.set_level(logging.INFO, logger=engine.__name__)
    assert find(cayley_table(64)) is None
    assert find(cayley_table(63)) is not None
    assert find(cayley_table(62)) is None  # within the kernel's orders
    messages = [rec.getMessage() for rec in caplog.records if rec.name == engine.__name__]
    assert messages == [f"searches of order above {_kernel.MAX_KERNEL_ORDER} run on the "
                        "pure-Python twin"]


def test_library_name_follows_source_bytes():
    source = _kernel._SOURCE.read_bytes()
    path = _kernel.library_path(source)
    assert path.parent == _kernel._CACHE_DIR
    assert _kernel.library_path(source) == path
    assert _kernel.library_path(source + b"\n") != path
    assert _kernel.library_path(source.replace(b"> hi", b">= hi")) != path


@needs_compiler
def test_concurrent_builds_yield_one_library(tmp_path):
    """More builders than cores, one empty cache: each loads, one library, no temporaries."""
    script = ("import sys; from pathlib import Path; from latintrav import _kernel; "
              "_kernel._CACHE_DIR = Path(sys.argv[1]); "
              "sys.exit(0 if _kernel.load() is not None else 1)")
    procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ,
                                   "PYTHONPATH": str(_kernel._SOURCE.parents[1])})
             for _ in range(4)]
    try:
        codes = [proc.wait(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert codes == [0] * len(procs)
    assert [p.name for p in tmp_path.iterdir()] \
        == [_kernel.library_path(_kernel._SOURCE.read_bytes()).name]


# (label, square, prune) for the kernel-logic check below: prune names the twin's rule
# (the kernel always prunes).
KERNEL_CASES = (
    [(f"CAYLEY{n}-{'pruned' if prune else 'unpruned'}", cayley_table(n), prune)
     for n in range(1, 9) for prune in (True, False)]
    + [("EX6", build_exceptional(6), True), ("EX8", build_exceptional(8), True),
       ("V10", build_V(10), True), ("T12", build_T(12), True),
       ("L9", build_L(3), True), ("CAYLEY9-blocks", cayley_table(9), True)]
)


@needs_compiler
@pytest.mark.parametrize("sq, prune", [pytest.param(sq, prune, id=label)
                                       for label, sq, prune in KERNEL_CASES])
def test_kernel_logic_matches_twin(sq, prune):
    """The C kernel against the pure twin, its oracle, on 1, 2 and 3 threads: the first
    hit and the full enumeration, against the pruned twin or its unpruned walk, the
    prune's reference (`_twin_oracle`)."""
    prep = _Prepared(sq, SearchConstraints.make())
    for enumerate_all in (False, True):
        twin = _twin_oracle(prep, prune, enumerate_all)
        for threads in (1, 2, 3):
            assert _as_oracle(_reduced(_kernel.run, prep, None, enumerate_all, threads),
                              prune) == twin


def test_hit_theorem_fails_when_a_refutation_finds_a_transversal(monkeypatch):
    """A transversal missing block (1,1) fails the theorem and makes the least hits 0."""
    real_find = engine.find

    def find_missing_block11(square, **kwargs):
        if set(kwargs.get("forbidden_cells", ())) == set(block_cells(1, 1, 3)):
            return real_find(square)
        return real_find(square, **kwargs)

    monkeypatch.setattr(engine, "find", find_missing_block11)
    check = verify_hit_theorem(3)
    assert check.block22_ok and not check.block11_ok
    assert not check.passed and not check.budget_exhausted
    assert check.min_block_hits == 0


def test_hit_theorem_kernel_matches_twin():
    check = verify_hit_theorem(3)
    with pure_twin():
        assert verify_hit_theorem(3) == check
    assert (check.transversal_count, check.min_block_hits, check.passed) == (324, 1, True)


@needs_compiler
def test_kernel_logic_budget_matches_twin():
    prep = _Prepared(build_exceptional(8), SearchConstraints.make())
    assert _reduced(_kernel.run, prep, 3, False) \
        == _reduced(engine._twin_run, prep, 3, False) == [(-1, None, 4, None)]


def _reduced(run, prep, budget, enumerate_all, threads=None, rows=None):
    """``run``, `_kernel.run` or `engine._twin_run`, over ``prep``'s square and masks (or the
    batch ``rows``), reduced to what both promise for each search: status and nodes for
    every budget, the count when the search finished and the solution of a first-hit
    search that found one.  ``threads`` sets the kernel's thread count by patching
    `_kernel.cpu_count` for the call."""
    with patch.object(_kernel, "cpu_count", lambda: threads) if threads else nullcontext():
        status, count, nodes, cols = run(
            prep.sym, prep.delta, prep.rows[None] if rows is None else rows,
            budget=budget, enumerate_all=enumerate_all)
    return [(st, ct if st >= 0 else None, spent,
             tuple(sol) if st == 1 and not enumerate_all else None)
            for st, ct, spent, sol in zip(status.tolist(), count.tolist(), nodes.tolist(),
                                          cols.tolist())]


def _twin_oracle(prep, prune, enumerate_all) -> list[tuple]:
    """What the kernel must give over ``prep`` without a budget: the pruned twin's
    `_reduced` result, or with ``prune`` False that of the twin's unpruned walk, the
    prune's reference, less the nodes: a pruned search shares its status, count and first
    solution, not its node total."""
    if prune:
        return _reduced(engine._twin_run, prep, None, enumerate_all)
    found = []
    for cols in _iter_cols(prep.sym, prep.delta, prep.rows, False, None, _NodeCounter(),
                           not enumerate_all):
        found.append(cols)
        if not enumerate_all:
            break
    return [(int(bool(found)), len(found), found[0] if found and not enumerate_all else None)]


def _as_oracle(results, prune) -> list[tuple]:
    """`_reduced` results as `_twin_oracle` gives them for ``prune``: whole, or without
    the nodes that the unpruned walk does not share."""
    return results if prune else [(st, ct, sol) for st, ct, _, sol in results]


def _c_define(name: str) -> int:
    """An integer #define of _kernel.c."""
    match = re.search(rf"^#define {name} (\d+)", _kernel._SOURCE.read_text(), re.MULTILINE)
    assert match, f"no #define {name} in {_kernel._SOURCE.name}"
    return int(match.group(1))


def _row_entries(prep, charged=False) -> list[list[int]]:
    """For each depth, the one-thread walk's node count each time it enters that row.

    Written apart from the twin, with its node accounting (one node per
    candidate index).  Entering row d at depth d is reaching a depth-d prefix,
    so these are the counts at which a full enumeration split at depth d
    passes from its shallow walk into a task, and their number at depth d is
    the number of tasks.  With ``charged``, each count is instead the one a
    full enumeration on the kernel has charged once it has entered the row:
    every candidate of every row entered so far, this row's included.
    """
    n = len(prep.sym)
    target = n // 2 if n % 2 == 0 else 0
    rows = [[(c, sym[c], delta[c]) for c in range(n) if mask >> c & 1]
            for mask, sym, delta in zip(prep.rows.tolist(), prep.sym.tolist(),
                                        prep.delta.tolist())]
    entries = [[] for _ in range(n)]
    if not all(rows):
        return entries
    lo = [sum(min(d for *_, d in row) for row in rows[r:]) for r in range(n + 1)]
    hi = [sum(max(d for *_, d in row) for row in rows[r:]) for r in range(n + 1)]
    nodes = charges = 0

    def enter(d, used_cols, used_syms, dsum):
        nonlocal nodes, charges
        if d == n:
            return
        charges += len(rows[d])
        entries[d].append(charges if charged else nodes)
        for c, s, delta in rows[d]:
            nodes += 1
            if used_cols >> c & 1 or used_syms >> s & 1:
                continue
            low, high = dsum + delta + lo[d + 1], dsum + delta + hi[d + 1]
            if low + (target - low) % n > high:
                continue
            enter(d + 1, used_cols | 1 << c, used_syms | 1 << s, dsum + delta)

    if lo[0] + (target - lo[0]) % n <= hi[0]:
        enter(0, 0, 0, 0)
    return entries


def _split_depth(entries, threads) -> int | None:
    """The depth the kernel splits a full enumeration at on ``threads`` threads, or None."""
    want = _c_define("TASKS_PER_THREAD") * threads
    for depth in range(1, len(entries) if threads > 1 else 1):
        if len(entries[depth]) >= want:
            return depth
        if not entries[depth]:
            return None
    return None


def _boundary_budgets(entries, depth) -> list[int]:
    """Budgets at, one below and one above about 16 row entries at ``depth``.

    At one below an entry of the split depth the budget runs out in the
    shallow walk, as it reaches that prefix; at and above it, inside the task.
    """
    return sorted({b for x in entries[depth][::max(1, len(entries[depth]) // 16)]
                   for b in (x - 1, x, x + 1) if b >= 0})


# (label, square) of even order, for the suitable-diagonal and budget checks below.
EVEN_CASES = ([(f"CAYLEY{n}", cayley_table(n)) for n in (2, 4, 6, 8)]
              + [("EX6", build_exceptional(6)), ("EX8", build_exceptional(8))])


@needs_compiler
@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("sq", [pytest.param(sq, id=label) for label, sq in EVEN_CASES])
def test_kernel_suitable_diagonals_match_twin(sq, prune):
    """A suitable-diagonal search runs over the column-index grid, whose symbol test is
    the column test, so the prune's target residue alone decides and every suitable
    diagonal counts, not only the transversals; against the pruned twin or its unpruned
    walk (`_twin_oracle`), which tests the residue at the leaves."""
    prep = _Prepared(sq, SearchConstraints.make(mode=SearchMode.SUITABLE_DIAGONAL))
    assert prep.sym.tolist() == [list(range(sq.order))] * sq.order
    first = _twin_oracle(prep, prune, False)[0][-1]
    # forbidding a cell of the first suitable diagonal moves the first hit
    cell = (1, first[1]) if first else (0, 0)
    for forbidden in ((), (cell,)):
        prep = _Prepared(sq, SearchConstraints.make(mode=SearchMode.SUITABLE_DIAGONAL,
                                                    forbidden_cells=forbidden))
        for enumerate_all in (False, True):
            assert _as_oracle(_reduced(_kernel.run, prep, None, enumerate_all), prune) \
                == _twin_oracle(prep, prune, enumerate_all)


@needs_compiler
@pytest.mark.parametrize("break_layout", ["row-mask-bit-n", "delta-too-large",
                                          "row-mask-bit-n-last-of-batch"])
def test_kernel_rejects_candidates_outside_its_layout(break_layout):
    """The mask walk needs row masks inside the square and the residue step |delta| < n;
    every mask of a batch is checked, the last search's too."""
    prep = _Prepared(build_exceptional(6), SearchConstraints.make())
    rows = np.repeat(prep.rows[None], 3 if break_layout.endswith("batch") else 1, axis=0)
    delta = prep.delta.copy()
    if break_layout.startswith("row-mask-bit-n"):
        rows[-1, 0] |= 1 << 6
    else:
        delta[0, 0] = 6
    with pytest.raises(ValueError, match="kernel square"):
        _kernel.run(prep.sym, delta, rows, budget=None, enumerate_all=len(rows) == 1)


@needs_compiler
@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("enumerate_all", [False, True], ids=["first-hit", "enumerate"])
def test_kernel_row_without_candidates_matches_twin(enumerate_all, prune):
    """A row with no candidates is an empty search with no node, on the kernel as on the
    pruned twin, and empty on the unpruned walk too."""
    prep = _Prepared(build_V(10), SearchConstraints.make(
        forbidden_cells=[(3, c) for c in range(10)]))
    twin = _twin_oracle(prep, prune, enumerate_all)
    assert twin == _as_oracle([(0, 0, 0, None)], prune)
    for threads in (1, 2, 3):
        assert _as_oracle(_reduced(_kernel.run, prep, None, enumerate_all, threads), prune) \
            == twin, threads


def _budget_sweep(nodes: int) -> list[int]:
    """About 50 budgets from 0 to nodes + 1, both ends included."""
    return sorted(set(np.linspace(0, nodes + 1, 50).round().astype(int).tolist()))


# The suitable-diagonal trees of EX8 and CAYLEY8 (0.5M nodes each) take about
# 13 s of twin runs, so they run under --runlong.
SWEEP_CASES = [
    pytest.param(sq, mode, id=f"{label}-{mode.value}-pruned",
                 marks=[pytest.mark.long] if sq.order == 8 and mode is SearchMode.SUITABLE_DIAGONAL
                 else [])
    for label, sq in EVEN_CASES for mode in SearchMode]


@needs_compiler
@pytest.mark.parametrize("sq, mode", SWEEP_CASES)
def test_enumeration_budget_sweep_matches_twin(sq, mode):
    """Full enumeration stopped at budgets across the whole tree: the kernel must give
    the twin's status and nodes (budget + 1 when it runs out, however its jumps over
    used candidates land) and, when it finishes, the twin's count, on 1, 2 and 3
    threads.  The budgets beside row entries make the budget run out in a split
    enumeration's shallow walk and inside its tasks, and one below the total after
    its last task."""
    prep = _Prepared(sq, SearchConstraints.make(mode=mode))
    total = _reduced(engine._twin_run, prep, None, True)[0][2]
    budgets = set(_budget_sweep(total)) | {max(total - 1, 0), total}
    entries = _row_entries(prep)
    for threads in (2, 3):
        depth = _split_depth(entries, threads)
        if depth is not None:
            budgets.update(_boundary_budgets(entries, depth))
    for budget in sorted(budgets):
        twin = _reduced(engine._twin_run, prep, budget, True)
        for threads in (1, 2, 3):
            assert _reduced(_kernel.run, prep, budget, True, threads) == twin, \
                (budget, threads)


@needs_compiler
@pytest.mark.parametrize("sq, splits", [
    pytest.param(cayley_table(5), False, id="CAYLEY5"),
    pytest.param(build_exceptional(6), False, id="EX6"),
    pytest.param(build_exceptional(8), True, id="EX8"),
    pytest.param(build_V(10), True, id="V10"),
])
def test_split_and_unsplit_trees_match_twin(sq, splits):
    """Trees with too few prefixes at every depth run on one thread; the others split.

    Either way every budget beside a row entry gives the twin's result.
    """
    prep = _Prepared(sq, SearchConstraints.make())
    entries = _row_entries(prep)
    assert sum(len(e) for e in entries) > 0
    for threads in (2, 3):
        depth = _split_depth(entries, threads)
        assert (depth is not None) == splits
        # beside the entries of every depth, so the split depth's are among them
        budgets = [b for d in range(1, sq.order) for b in _boundary_budgets(entries, d)[::8]]
        for budget in budgets + [None]:
            assert _reduced(_kernel.run, prep, budget, True, threads) \
                == _reduced(engine._twin_run, prep, budget, True), budget


@needs_compiler
@pytest.mark.parametrize("sq, mode", [
    pytest.param(build_V(10), SearchMode.TRANSVERSAL, id="V10"),
    pytest.param(build_exceptional(8), SearchMode.TRANSVERSAL, id="EX8"),
    # its walk ends on a row left without a free column
    pytest.param(build_exceptional(6), SearchMode.TRANSVERSAL, id="EX6"),
    # CAYLEY6 has no suitable diagonal (its tree is pruned at the root); EX6 has 132
    pytest.param(build_exceptional(6), SearchMode.SUITABLE_DIAGONAL, id="EX6-suitable"),
    # one row, entered at the top of the walk and never left for another
    pytest.param(cayley_table(1), SearchMode.TRANSVERSAL, id="CAYLEY1"),
])
def test_enumeration_row_entry_budgets_match_twin(sq, mode):
    """A full enumeration charges a row's candidates all at once when it enters the row,
    a row left without a free column included, so its budget runs out at row entries.
    For about 8 entries of each depth, the budgets are one below, at and one above two
    counts: x + len, where the twin, at x when it enters (`_row_entries`), has visited
    the row's len candidates, and the count the kernel has charged once it has entered
    the row (`_row_entries(..., charged=True)`), where its budget test at that entry
    switches.  Each depth's last entry is among them, so a walk whose last charge is a
    row left empty must stop there too.  The kernel on 1, 2 and 3 threads must give the
    twin's status, nodes and, when it finishes, count."""
    prep = _Prepared(sq, SearchConstraints.make(mode=mode))
    lens = [mask.bit_count() for mask in prep.rows.tolist()]
    ends = [[x + length for x in xs] for xs, length in zip(_row_entries(prep), lens)]
    budgets = sorted({x + k for xs in ends + _row_entries(prep, charged=True)
                      for x in xs[::max(1, len(xs) // 8)] + xs[-1:] for k in (-1, 0, 1)})
    assert budgets
    for budget in budgets:
        twin = _reduced(engine._twin_run, prep, budget, True)
        for threads in (1, 2, 3):
            assert _reduced(_kernel.run, prep, budget, True, threads) == twin, \
                (budget, threads)


@needs_compiler
def test_long_tasks_under_budgets_match_one_thread():
    """V16's tasks run long enough (about 100k nodes each) for every worker to add to
    the node pool many times while the others run; at budgets across the first tenth
    of the tree (54.4M nodes) each run stops with the one-thread walk's status -1 and
    budget + 1 nodes."""
    prep = _Prepared(build_V(16), SearchConstraints.make())
    for budget in np.linspace(100_000, 5_440_000, 8).round().astype(int).tolist():
        for threads in (1, 2, 3):
            assert _reduced(_kernel.run, prep, budget, True, threads) \
                == [(-1, None, budget + 1, None)], (budget, threads)


# (label, square, budget, enumerate_all) of orders near MAX_KERNEL_ORDER, where the
# kernel's availability table fills nearly all of its (n + 1) * n words.
NEAR_MAX_CASES = [("CAYLEY61", cayley_table(61), None, False)] + [
    (f"{label}-{budget}", sq, budget, True)
    for label, sq in (("U62", build_U(62)), ("T60", build_T(60))) for budget in (1_000, 54_321)]


@needs_compiler
@pytest.mark.parametrize("sq, budget, enumerate_all",
                         [pytest.param(sq, budget, enumerate_all, id=label)
                          for label, sq, budget, enumerate_all in NEAR_MAX_CASES])
def test_kernel_near_max_order_matches_twin(sq, budget, enumerate_all):
    prep = _Prepared(sq, SearchConstraints.make())
    twin = _reduced(engine._twin_run, prep, budget, enumerate_all)
    for threads in (1, 2, 3):
        assert _reduced(_kernel.run, prep, budget, enumerate_all, threads) == twin, threads


@needs_compiler
@pytest.mark.parametrize("sq, mode, count, nodes", [
    pytest.param(build_V(10), SearchMode.TRANSVERSAL, 272, 32_250, id="V10"),
    pytest.param(build_T(12), SearchMode.TRANSVERSAL, 520, 108_120, id="T12"),
    pytest.param(build_U(14), SearchMode.TRANSVERSAL, 4_536, 1_506_414, id="U14"),
    pytest.param(build_L(3), SearchMode.TRANSVERSAL, 324, 162_981, id="L9"),
    pytest.param(build_exceptional(8), SearchMode.SUITABLE_DIAGONAL, 4_872, 512_968,
                 id="EX8-suitable"),
    pytest.param(build_V(10), SearchMode.SUITABLE_DIAGONAL, 90_720, 1_558_930,
                 id="V10-suitable"),
])
def test_kernel_enumeration_totals(sq, mode, count, nodes):
    """Full enumerations on the kernel: exact counts and node totals, which any new walk
    must keep.  The suitable-diagonal totals fail a walk that tests symbols there."""
    summary = count_and_cover(sq, mode=mode)
    assert (summary.count, summary.nodes) == (count, nodes)


def _cell_preps(sq, avoid):
    """One `_Prepared` per cell, row by row: through it, or with ``avoid`` avoiding it."""
    return [_Prepared(sq, SearchConstraints.make(forbidden_cells=((r, c),)) if avoid
                      else SearchConstraints.make(required=(sq.entry(r, c),)))
            for r in range(sq.order) for c in range(sq.order)]


def _cell_batch(sq, avoid):
    """The unconstrained `_Prepared` of ``sq`` and `_cell_rows`'s masks through, or with
    ``avoid`` avoiding, each of its cells, row by row."""
    prep = _Prepared(sq, SearchConstraints.make())
    cells = np.indices((sq.order, sq.order)).reshape(2, -1).T
    return prep, _cell_rows(prep.sym, cells, avoid)


def _assert_batch_matches_twin(prep, rows, budget):
    """The kernel batch over the masks ``rows`` at ``budget``, on 1, 2 and 3 threads,
    against the twin on the same masks."""
    twin = _reduced(engine._twin_run, prep, budget, False, rows=rows)
    for threads in (1, 2, 3):
        assert _reduced(_kernel.run, prep, budget, False, threads, rows) == twin, \
            (budget, threads)


# (label, square, budget) for the batched per-cell check below.
BATCH_CASES = [
    ("V10", build_V(10), None), ("T12", build_T(12), None), ("U14", build_U(14), None),
    ("EX6", build_exceptional(6), None), ("EX8", build_exceptional(8), None),
    ("L9", build_L(3), None),  # odd order: target residue 0
    ("CAYLEY7", cayley_table(7), None),
    ("CAYLEY8", cayley_table(8), None),  # pruned at the root: every cell FREE
    ("EX8-100", build_exceptional(8), 100), ("T12-200", build_T(12), 200),
]


@needs_compiler
@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq, budget", [pytest.param(sq, budget, id=label)
                                        for label, sq, budget in BATCH_CASES])
def test_batched_cells_match_twin(sq, budget, avoid):
    """Every cell of the square as one batch, the kernel on 1, 2 and 3 threads against
    the twin: each search's status and nodes, the searches that finish included, and
    every found witness."""
    _assert_batch_matches_twin(*_cell_batch(sq, avoid), budget)


@needs_compiler
@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq", [pytest.param(build_exceptional(8), id="EX8"),
                                pytest.param(build_T(12), id="T12")])
def test_batched_budget_sweep_matches_twin(sq, avoid):
    """Every cell's search at budgets up to the largest search's nodes + 1, on 1 to 3 threads."""
    prep, rows = _cell_batch(sq, avoid)
    most = max(spent for _, _, spent, _ in
               _reduced(engine._twin_run, prep, None, False, rows=rows))
    for budget in _budget_sweep(most):
        _assert_batch_matches_twin(prep, rows, budget)


def _edge_budgets(costs) -> list[list[int]]:
    """For each search, whose twin visits c nodes: budgets c - 1, c and c + 1, where the
    search runs out one node short, just finishes and has one node to spare."""
    return [[b for b in (c - 1, c, c + 1) if b >= 0] for c in costs]


@needs_compiler
@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq", [pytest.param(build_exceptional(8), id="EX8"),
                                pytest.param(build_T(12), id="T12")])
def test_batched_budget_edges_match_twin(sq, avoid):
    """Every cell's search at the budgets beside its own node count (`_edge_budgets`),
    each budget run as one batch of the cells it concerns, on 1 to 3 threads."""
    prep, rows = _cell_batch(sq, avoid)
    costs = [spent for _, _, spent, _ in
             _reduced(engine._twin_run, prep, None, False, rows=rows)]
    by_budget = {}
    for j, budgets in enumerate(_edge_budgets(costs)):
        for budget in budgets:
            by_budget.setdefault(budget, []).append(j)
    for budget, js in sorted(by_budget.items()):
        _assert_batch_matches_twin(prep, rows[js], budget)


@needs_compiler
def test_first_hit_budget_edges_match_twin():
    """`find`'s path through the kernel with each required entry of V10, at the budgets beside
    each search's node count (`_edge_budgets`), on 1 to 3 threads."""
    sq = build_V(10)
    preps = [_Prepared(sq, SearchConstraints.make(required=(sq.entry(r, c),)))
             for r in range(sq.order) for c in range(sq.order)]
    costs = [_reduced(engine._twin_run, prep, None, False)[0][2] for prep in preps]
    for prep, budgets in zip(preps, _edge_budgets(costs)):
        for budget in budgets:
            twin = _reduced(engine._twin_run, prep, budget, False)
            for threads in (1, 2, 3):
                assert _reduced(_kernel.run, prep, budget, False, threads) == twin, \
                    (budget, threads)


@needs_compiler
def test_kernel_takes_the_cached_int8_deltas_as_they_are():
    """The kernel reads `delta_grid`'s int8 table without a conversion, and any other
    dtype or layout of it is an error, never a misread table."""
    sq = build_V(10)
    prep = _Prepared(sq, SearchConstraints.make())
    assert prep.delta is delta_grid(sq) and prep.delta.dtype == np.int8
    for delta in (prep.delta.astype(np.int64), np.asfortranarray(prep.delta)):
        with pytest.raises(ValueError, match="C-contiguous int8"):
            _kernel.run(prep.sym, delta, prep.rows[None], budget=None, enumerate_all=False)


@needs_compiler
@pytest.mark.parametrize("break_layout", ["delta-n", "symbol-n"])
def test_batch_rejects_a_base_outside_its_layout(break_layout):
    """A bad symbol or delta array is an error, never a batch of "no transversal" (FREE)
    statuses.

    The masks come from the unbroken symbols: `_cell_rows` indexes by symbol, so a
    symbol of n would fail there before the kernel's check ran."""
    sq = build_V(10)
    arrays = {"symbol-n": sq.to_array().copy(), "delta-n": delta_grid(sq).copy()}
    cells = np.array([(0, 0), (3, 4)], np.int64)
    masks = [_cell_rows(arrays["symbol-n"], cells, avoid) for avoid in (False, True)]
    arrays[break_layout][3, 4] = 10
    for rows in masks:
        with pytest.raises(ValueError, match="kernel square"):
            _kernel.run(arrays["symbol-n"], arrays["delta-n"], rows, budget=None,
                        enumerate_all=False)


def _constraint_sets(sq, mode, solutions, count, seed):
    """``count`` seeded constraint sets of ``sq`` in ``mode``: 0-3 required entries,
    pairwise row, column and symbol disjoint, and 0-3 forbidden cells off them.  Every
    other set takes its required entries from one of ``solutions``, so that some hold."""
    rng = random.Random(seed)
    n = sq.order
    sets = []
    for i in range(count):
        cols = rng.choice(solutions) if i % 2 and solutions else rng.sample(range(n), n)
        required = []
        for r in rng.sample(range(n), rng.randint(0, 3)):
            entry = sq.entry(r, cols[r])
            if all(entry.sym != e.sym for e in required):
                required.append(entry)
        taken = {(e.row, e.col) for e in required}
        forbidden = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))}
        sets.append(SearchConstraints.make(required=required, forbidden_cells=forbidden - taken,
                                           mode=mode))
    return sets


# (label, square, mode) for the constraint check below; suitable diagonals need even order.
CONSTRAINT_CASES = [
    (f"{label}-{mode.value}", sq, mode)
    for label, sq in (("EX6", build_exceptional(6)), ("EX8", build_exceptional(8)),
                      ("CAYLEY7", cayley_table(7)))
    for mode in SearchMode if sq.order % 2 == 0 or mode is SearchMode.TRANSVERSAL]


@pytest.mark.parametrize("twin", [True, pytest.param(False, marks=needs_compiler)],
                         ids=["twin", "kernel"])
@pytest.mark.parametrize("sq, mode", [pytest.param(sq, mode, id=label)
                                      for label, sq, mode in CONSTRAINT_CASES])
def test_constraints_filter_as_a_permutation_scan(sq, mode, twin, oracle):
    """Seeded sets of required entries and forbidden cells against a raw scan of all n!
    column maps: `find` returns the first map that keeps every constraint and
    `enumerate_solutions` counts them.  A transversal search also checks the per-cell
    batches through and avoiding every cell (`_search_cells`)."""
    n = sq.order
    if mode is SearchMode.TRANSVERSAL:
        solutions = oracle(sq.grid)
    else:
        solutions = [p for p in itertools.permutations(range(n)) if delta_sum(sq, p) == n // 2]
    with pure_twin() if twin else nullcontext():
        for cons in _constraint_sets(sq, mode, solutions, 16, seed=n):
            kept = [p for p in solutions
                    if all(p[e.row] == e.col for e in cons.required)
                    and all(p[r] != c for r, c in cons.forbidden_cells)]
            hit = find(sq, cons)
            assert (hit and hit.cols, enumerate_solutions(sq, cons)) == \
                (kept[0] if kept else None, len(kept)), cons
        if mode is SearchMode.TRANSVERSAL:
            cells = np.indices((n, n)).reshape(2, -1).T
            for avoid in (False, True):
                status, _, cols = _search_cells(sq, cells, avoid, None)
                for (r, c), st, first in zip(cells.tolist(), status.tolist(), cols.tolist()):
                    kept = [p for p in solutions if (p[r] == c) != avoid]
                    assert (st, tuple(first) if st else None) == \
                        (int(bool(kept)), kept[0] if kept else None), (r, c, avoid)


@pytest.mark.parametrize("mode", SearchMode, ids=lambda mode: mode.value)
def test_prepared_keeps_the_documented_cells_above_kernel_orders(mode):
    """V64's masks are Python ints.  With two required entries and two forbidden cells,
    one in a required row, `_Prepared` keeps exactly the cells of `_cell_rows`' rule,
    built here cell by cell."""
    sq = build_V(64)
    required = (sq.entry(3, 5), sq.entry(40, 7))
    forbidden = ((10, 11), (3, 6))
    prep = _Prepared(sq, SearchConstraints.make(required=required, forbidden_cells=forbidden,
                                                mode=mode))
    expected = []
    for i in range(64):
        cols = set(range(64)) - {c for r, c in forbidden if r == i}
        for e in required:
            if i == e.row:
                cols &= {e.col}
            else:
                cols -= {e.col}
                if mode is SearchMode.TRANSVERSAL:
                    cols -= {c for c in range(64) if sq[i, c] == e.sym}
        expected.append(sum(1 << c for c in cols))
    assert prep.rows.dtype == object and prep.rows.tolist() == expected


@pytest.mark.parametrize("sq, cells, avoid, status, nodes", [
    pytest.param(cayley_table(63), [(0, 1), (62, 0)], True, [1, 1], [2_016, 2_015],
                 id="CAYLEY63-avoiding"),
    pytest.param(cayley_table(64), [(0, 0), (63, 63)], False, [0, 0], [0, 0],
                 id="CAYLEY64-through"),
])
def test_twin_batches_above_kernel_orders(sq, cells, avoid, status, nodes):
    """Above the kernel's orders `_search_cells` runs the twin on Python-int masks.  The
    identity diagonal of odd CAYLEY63 is a transversal avoiding both cells; CAYLEY64's
    searches are pruned at the root."""
    found, spent, cols = _search_cells(sq, cells, avoid, None)
    assert (found.tolist(), spent.tolist()) == (status, nodes)
    for j in np.flatnonzero(found == 1):
        assert cols[j].tolist() == list(range(sq.order))


def _twin_first(prep, prune, first_hit):
    """The twin's first solution (or None) and its nodes, under ``first_hit``'s rule."""
    counter = _NodeCounter()
    first = next(_iter_cols(prep.sym, prep.delta, prep.rows, prune, None, counter, first_hit),
                 None)
    return first, counter.nodes


# (label, square, per-cell first-hit node totals through and avoiding every cell):
# with the forward check, and under the enumeration's rule (the delta prune alone).
FORWARD_CASES = [
    ("V10", build_V(10), (4_225, 12_815), (9_930, 47_662)),
    ("T12", build_T(12), (12_196, 28_599), (29_695, 57_267)),
    ("EX8", build_exceptional(8), (41_956, 23_184), (108_469, 55_728)),
    ("L9", build_L(3), None, None),  # odd order: target residue 0
]


@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq, forward, plain", [pytest.param(sq, forward, plain, id=label)
                                                for label, sq, forward, plain in FORWARD_CASES])
def test_forward_check_changes_only_nodes(sq, forward, plain, avoid):
    """Every cell's first-hit search on the twin finds the first solution that the
    enumeration's rule finds, in no more nodes; the node totals of both rules are pinned."""
    totals = [0, 0]
    for prep in _cell_preps(sq, avoid):
        checked, spent = _twin_first(prep, True, True)
        first, nodes = _twin_first(prep, True, False)
        assert checked == first and spent <= nodes
        totals[0] += spent
        totals[1] += nodes
    if forward is not None:
        assert totals == [forward[avoid], plain[avoid]]


@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq, nodes", [
    pytest.param(build_exceptional(8), (110_642, 56_704), id="EX8"),
])
def test_unpruned_first_hit_nodes_unchanged(sq, nodes, avoid):
    """The twin's unpruned walk has no forward check either: every cell's first-hit search
    visits the nodes it visited before the check existed."""
    assert sum(_twin_first(prep, False, True)[1]
               for prep in _cell_preps(sq, avoid)) == nodes[avoid]


def test_kernel_order_limits_agree():
    """The C kernel's MAX_ORDER is the largest order the engine sends it."""
    assert _c_define("MAX_ORDER") == _kernel.MAX_KERNEL_ORDER


@needs_compiler
def test_one_library_has_the_entry_point():
    lib = _kernel.load()
    assert lib._name == str(_kernel.library_path(_kernel._SOURCE.read_bytes()))
    assert lib.search.argtypes


def _c_signature(name: str) -> tuple[list, object]:
    """ctypes argtypes and restype that a function's C definition in _kernel.c calls for."""
    source = _kernel._SOURCE.read_text()
    match = re.search(rf"^(int64_t|void)\s+{name}\s*\(([^)]*)\)", source, re.MULTILINE)
    assert match, f"no definition of {name} in {_kernel._SOURCE.name}"
    params = [p.strip() for p in match.group(2).split(",")]
    assert all(re.fullmatch(r"(const )?int64_t (\*\w+|\w+)|const int8_t \*\w+", p)
               for p in params), params
    argtypes = [ctypes.c_void_p if "*" in p else ctypes.c_int64 for p in params]
    return argtypes, ctypes.c_int64 if match.group(1) == "int64_t" else None


@needs_compiler
def test_ctypes_signatures_match_c():
    """ctypes checks no argtypes against the C source; this test does."""
    argtypes, restype = _c_signature("search")
    fn = _kernel.load().search
    assert fn.argtypes == argtypes
    assert fn.restype is restype
    assert len(argtypes) == 9


def test_twin_takes_the_kernel_interface():
    """The oracle cannot drift from the interface of the kernel it checks."""
    assert inspect.signature(engine._twin_run) == inspect.signature(_kernel.run)


def _engine_routines() -> list:
    """Every function the engine defines, and every method of the classes it defines."""
    routines = []
    for obj in vars(engine).values():
        if getattr(obj, "__module__", None) != engine.__name__:
            continue
        if inspect.isclass(obj):
            routines += [f for _, f in inspect.getmembers(obj, inspect.isroutine)
                         if getattr(f, "__module__", None) == engine.__name__]
        elif callable(obj):
            routines.append(obj)
    return routines


def test_thread_rule_lives_in_the_kernel():
    """No engine function or method takes a thread count, and neither does `_kernel.run`:
    the kernel alone decides how many threads to use (`_kernel.cpu_count`)."""
    routines = _engine_routines()
    assert engine.classify in routines and engine._Prepared.__init__ in routines
    takers = [f.__qualname__ for f in routines + [_kernel.run]
              if {"jobs", "threads"} & set(inspect.signature(f).parameters)]
    assert takers == []


def test_prune_lives_in_the_twin():
    """No engine function or method takes ``prune`` but the twin's walk and its lazy
    enumeration, the unpruned oracle: the kernel and every search through it always prune."""
    routines = _engine_routines()
    assert engine.find in routines and engine._twin_run in routines
    takers = [f.__qualname__ for f in routines if "prune" in inspect.signature(f).parameters]
    assert takers == ["_iter_cols", "iter_solutions"]
    assert "prune" not in inspect.signature(_kernel.run).parameters


def test_search_core_takes_no_mode():
    """No engine function or method takes a ``transversal`` flag, nor does `_kernel.run`,
    and `_Prepared` keeps none: it reads the search mode once, into the symbol array."""
    routines = _engine_routines()
    assert engine._cell_rows in routines and engine._iter_cols in routines
    takers = [f.__qualname__ for f in routines + [_kernel.run]
              if "transversal" in inspect.signature(f).parameters]
    assert takers == []
    assert "transversal" not in _Prepared.__slots__


@needs_compiler
def test_kernel_compiles_without_warnings(tmp_path):
    """The build's own flags, so warnings that only optimisation finds show too."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    proc = subprocess.run([*cc, *_kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           str(_kernel._SOURCE), "-o", str(tmp_path / "kernel.so")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _c_array(name: str, arr: np.ndarray) -> str:
    """``arr`` as a C array of its own integer type (int8_t, int64_t)."""
    values = ", ".join(str(v) for v in arr.ravel().tolist())
    return f"static const {arr.dtype.name}_t {name}[] = {{{values}}};\n"


def _tsan_program(cases) -> tuple[str, list[str]]:
    """A C program driving `search` in two ways on each square, and its output.

    A batch of one full enumeration runs on 3 threads without a budget and at
    a third and two thirds of its nodes; batches of one search through, and
    then avoiding, each cell run without a budget and at a third of that
    batch's largest search, so the shared tables and the budget's exits run
    on every thread.  Then two threads call `search` at once over the last
    square, one its full enumeration and one its batch through every cell, so
    one of them finds the kernel's helpers busy and runs alone, and the full
    enumeration runs once more on the helpers the calls before left waiting.
    The expected lines come from the kernel in this process, the enumeration
    on one thread: status and nodes, and the count only when the enumeration
    finished; each batch's found witnesses and summed nodes.
    """
    decls, calls, expected = [], [], []
    for label, sq in cases:
        n = sq.order
        prep = _Prepared(sq, SearchConstraints.make())
        cells = np.indices((n, n)).reshape(2, -1).T
        decls += [_c_array(f"{label}_sym", prep.sym), _c_array(f"{label}_delta", prep.delta),
                  _c_array(f"{label}_rows", prep.rows)]
        square = f"{label}_sym, {label}_delta, {n}"
        total = _reduced(_kernel.run, prep, None, True, 1)[0][2]
        for budget in (-1, total // 3, 2 * total // 3):
            calls.append(f"enumerate({square}, {label}_rows, {budget});")
            [(st, count, nodes, _)] = _reduced(_kernel.run, prep, None if budget < 0 else budget,
                                               True, 1)
            expected.append(f"dfs {st} {'-' if count is None else count} {nodes}")
        for avoid in (0, 1):
            rows = _cell_rows(prep.sym, cells, avoid)
            decls.append(_c_array(f"{label}_cells{avoid}", rows))
            most = int(_search_cells(sq, cells, bool(avoid), None)[1].max())
            for budget in (-1, most // 3):
                calls.append(f"batch({square}, {label}_cells{avoid}, {budget});")
                status, nodes, _ = _search_cells(sq, cells, bool(avoid),
                                                 None if budget < 0 else budget)
                expected.append(f"cells {(status == 1).sum()} {nodes.sum()}")
    full, through = expected[-7], expected[-4]  # the last square's unbudgeted lines
    calls += [f"at_once({square}, {label}_rows, {label}_cells0);",
              f"enumerate({square}, {label}_rows, -1);"]
    expected += [full, through, full]
    source = "#include <pthread.h>\n#include <stdint.h>\n#include <stdio.h>\n" + "".join(decls) + """
int64_t search(const int64_t *, const int8_t *, int64_t, const int64_t *, int64_t, int64_t,
               int64_t, int64_t, int64_t *);
static struct call {
    const int64_t *sym, *rows;
    const int8_t *delta;
    int64_t n, k, budget, enumerate_all, result;
    int64_t out[64 * 64 * 67];
} calls[2];
static struct call *prepare(int i, const int64_t *sym, const int8_t *delta, int64_t n,
                            const int64_t *rows, int64_t budget, int64_t enumerate_all)
{
    struct call *c = &calls[i];
    c->sym = sym;
    c->delta = delta;
    c->n = n;
    c->rows = rows;
    c->k = enumerate_all ? 1 : n * n;
    c->budget = budget;
    c->enumerate_all = enumerate_all;
    return c;
}
static void *run(void *arg)
{
    struct call *c = arg;
    c->result = search(c->sym, c->delta, c->n, c->rows, c->k, c->budget, c->enumerate_all, 3,
                       c->out);
    return NULL;
}
static void print(const struct call *c)
{
    const int64_t *out = c->out;
    int64_t found = 0, spent = 0;
    if (c->result != 0) {
        printf("bad input\\n");
    } else if (c->enumerate_all) {
        if (out[0] < 0)
            printf("dfs %lld - %lld\\n", (long long)out[0], (long long)out[2]);
        else
            printf("dfs %lld %lld %lld\\n", (long long)out[0], (long long)out[1],
                   (long long)out[2]);
    } else {
        for (int64_t j = 0; j < c->k; j++) {
            found += out[j * (c->n + 3)] == 1;
            spent += out[j * (c->n + 3) + 2];
        }
        printf("cells %lld %lld\\n", (long long)found, (long long)spent);
    }
}
static void enumerate(const int64_t *sym, const int8_t *delta, int64_t n, const int64_t *rows,
                      int64_t budget)
{
    struct call *c = prepare(0, sym, delta, n, rows, budget, 1);
    run(c);
    print(c);
}
static void batch(const int64_t *sym, const int8_t *delta, int64_t n, const int64_t *rows,
                  int64_t budget)
{
    struct call *c = prepare(0, sym, delta, n, rows, budget, 0);
    run(c);
    print(c);
}
static void at_once(const int64_t *sym, const int8_t *delta, int64_t n, const int64_t *rows,
                    const int64_t *cells)
{
    pthread_t tid[2];
    int started[2];
    prepare(0, sym, delta, n, rows, -1, 1);
    prepare(1, sym, delta, n, cells, -1, 0);
    for (int i = 0; i < 2; i++)
        started[i] = pthread_create(&tid[i], NULL, run, &calls[i]) == 0;
    for (int i = 0; i < 2; i++)
        if (started[i])
            pthread_join(tid[i], NULL);
        else
            run(&calls[i]);
    print(&calls[0]);
    print(&calls[1]);
}
int main(void)
{
""" + "".join(f"    {call}\n" for call in calls) + "    return 0;\n}\n"
    return source, expected


@needs_compiler
def test_threads_race_free_under_thread_sanitizer(tmp_path):
    """The threaded enumeration and batch under ThreadSanitizer: no race report.

    V16's tasks are long enough for every worker to add to the node pool while
    the others take tasks and walk.
    Skips where the compiler cannot build and run a ThreadSanitizer program.
    """
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    flags = ["-fsanitize=thread", "-pthread", "-O1", "-g"]
    probe = tmp_path / "probe.c"
    probe.write_text("#include <pthread.h>\n"
                     "static void *f(void *a) { return a; }\n"
                     "int main(void) { pthread_t t; pthread_create(&t, 0, f, 0); "
                     "return pthread_join(t, 0); }\n")
    built = subprocess.run([*cc, *flags, str(probe), "-o", str(tmp_path / "probe")],
                           capture_output=True)
    if built.returncode != 0 or subprocess.run([str(tmp_path / "probe")],
                                               capture_output=True).returncode != 0:
        pytest.skip("the compiler cannot build and run a ThreadSanitizer program")
    source, expected = _tsan_program([("V10", build_V(10)), ("EX8", build_exceptional(8)),
                                     ("V16", build_V(16))])
    # V16 at a third of its tree: its tasks stop at row entries while the others add to
    # the node pool
    assert "enumerate(V16_sym, V16_delta, 16, V16_rows, 18133658);" in source
    assert "dfs -1 - 18133659" in expected
    (tmp_path / "program.c").write_text(source)
    subprocess.run([*cc, *flags, str(tmp_path / "program.c"), str(_kernel._SOURCE),
                    "-o", str(tmp_path / "program")], check=True, capture_output=True)
    proc = subprocess.run([str(tmp_path / "program")], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "TSAN_OPTIONS": "exitcode=66"})
    assert "ThreadSanitizer" not in proc.stderr, proc.stderr
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == expected


@needs_compiler
def test_no_thread_created_leaves_no_search_undone(tmp_path, monkeypatch):
    """A kernel whose pthread_create always fails with EAGAIN: the calling thread
    alone takes every search of a batch and every task of a split enumeration, so
    on 3 threads (`_kernel.cpu_count` patched) each result is the normal kernel's on
    one thread.

    Skips where the compiler cannot build that kernel.
    """
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    stub = tmp_path / "no_thread.c"
    stub.write_text("#include <errno.h>\n"
                    "int lt_no_thread(void *t, const void *a, void *(*f)(void *), void *arg) "
                    "{ (void)t; (void)a; (void)f; (void)arg; return EAGAIN; }\n")
    lib_path = tmp_path / "kernel_no_thread.so"
    built = subprocess.run([*cc, *_kernel.CFLAGS, "-Dpthread_create=lt_no_thread",
                            str(_kernel._SOURCE), str(stub), "-o", str(lib_path)],
                           capture_output=True, text=True)
    if built.returncode != 0:
        pytest.skip(f"the compiler cannot build the kernel without threads: {built.stderr}")
    lib = ctypes.CDLL(str(lib_path))
    lib.search.argtypes = _kernel.load().search.argtypes
    lib.search.restype = ctypes.c_int64
    sq = build_V(16)
    prep = _Prepared(sq, SearchConstraints.make())
    cells = _cell_rows(prep.sym, np.indices((16, 16)).reshape(2, -1).T, False)
    cases = [(cells, None, False), (None, None, True), (None, 1_000_000, True)]
    expected = [_reduced(_kernel.run, prep, budget, enumerate_all, 1, rows)
                for rows, budget, enumerate_all in cases]

    def search(*args):  # every output word -1 first, so a search left undone shows
        n, k, out = args[2], args[4], args[-1]
        ctypes.memset(out, 0xFF, k * (n + 3) * 8)
        return lib.search(*args)

    monkeypatch.setattr(_kernel, "load", lambda: SimpleNamespace(search=search))
    for (rows, budget, enumerate_all), want in zip(cases, expected):
        assert _reduced(_kernel.run, prep, budget, enumerate_all, 3, rows) == want
    assert len(expected[0]) == 256 and expected[1][0][2] == 54_400_976
    assert expected[2] == [(-1, None, 1_000_001, None)]



def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                     reason="the platform lists no threads in /proc/self/task")


@needs_compiler
@needs_task_list
def test_kernel_threads_are_kept_between_calls():
    """The kernel's helper threads wait between calls: 50 classify calls on 3 threads
    (`_kernel.cpu_count` patched) add at most 2 threads to the process, however many
    batches they run."""
    sq = build_V(10)
    before = _thread_count()
    with patch.object(_kernel, "cpu_count", lambda: 3):
        for _ in range(50):
            classify(sq)
    assert _thread_count() - before <= 2


@needs_compiler
@needs_task_list
@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
def test_forked_child_starts_its_own_kernel_threads():
    """A child forked after this process's helpers exist has none of them: its threaded
    batches start 2 helpers of its own (3 threads, `_kernel.cpu_count` patched) and give
    this process's report.  The child is killed if it has not exited within 60 s."""
    sq = build_V(16)
    with patch.object(_kernel, "cpu_count", lambda: 3):
        want = _report_fields(classify(sq))  # the helpers exist from here on
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                before = _thread_count()
                same = _report_fields(classify(sq)) == want
                code = 0 if same and _thread_count() - before == 2 else 3
            finally:
                os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its classify within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


@needs_compiler
def test_concurrent_callers_get_the_serial_reports():
    """Two Python threads classify V16 and T24 at once, five times each, on 3 kernel
    threads (`_kernel.cpu_count` patched): ctypes releases the GIL, so their kernel
    calls overlap, and whichever finds the helpers busy runs alone.  Every report
    equals the one classify gives with nothing else running."""
    squares = [build_V(16), build_T(24)]
    with patch.object(_kernel, "cpu_count", lambda: 3):
        want = [_report_fields(classify(sq)) for sq in squares]
        got = [[], []]
        start = threading.Barrier(2)

        def classify_five(i):
            start.wait()
            got[i] += [_report_fields(classify(squares[i])) for _ in range(5)]

        callers = [threading.Thread(target=classify_five, args=(i,)) for i in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    assert got == [[want[0]] * 5, [want[1]] * 5]

def test_classify_exceptional_6():
    rep = classify(build_exceptional(6))
    assert rep.tau == 16
    assert rep.has_transversal
    assert set(rep.free_cells) == set(claimed_free_cells(6))
    assert rep.pinned == ()
    assert rep.transversal_count is None
    assert not rep.partial
    assert classify(build_exceptional(6), strategy="enumerate").transversal_count == 8


def test_classify_cayley6_all_free():
    rep = classify(cayley_table(6))
    assert rep.tau == 36
    assert not rep.has_transversal
    assert rep.pinned == ()


def test_classify_V10():
    rep = classify(build_V(10))
    assert rep.tau == 34
    assert [e.as_tuple() for e in rep.pinned] == [(1, 0, 3)]


def _enumerated_classification(sq):
    """Count, statuses and witnesses from the pure twin's lazy enumeration.

    A cell through no transversal is FREE, through all of them PINNED, else
    COVERED; the first transversal through a cell is its witness.
    """
    n = sq.order
    through = [[0] * n for _ in range(n)]
    witnesses = {}
    count = 0
    for t in iter_solutions(sq):
        count += 1
        for r, c in enumerate(t.cols):
            through[r][c] += 1
            witnesses.setdefault((r, c), t.cols)
    status = tuple(tuple(FREE if k == 0 else PINNED if k == count else COVERED for k in row)
                   for row in through)
    return count, status, witnesses


def _report_fields(rep) -> dict:
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}


@pytest.mark.parametrize("sq", [build_V(10), build_T(12), build_U(14),
                                build_exceptional(6), build_exceptional(8)],
                         ids=["V10", "T12", "U14", "EX6", "EX8"])
def test_classify_strategies_agree(sq):
    """Every strategy, on the kernel and on the twin, against the lazy enumeration."""
    count, status, witnesses = _enumerated_classification(sq)
    pinned = tuple(sq.entry(r, c) for r, row in enumerate(status)
                   for c, st in enumerate(row) if st == PINNED)
    for twin in (False, True):
        with pure_twin() if twin else nullcontext():
            reports = {s: classify(sq, strategy=s) for s in ("enumerate", "per-cell")}
        for strategy, rep in reports.items():
            assert rep.status == status
            assert rep.tau == sum(row.count(FREE) for row in status)
            assert rep.witnesses == witnesses
            assert rep.pinned == pinned
            assert rep.has_transversal == (count > 0)
            assert rep.transversal_count == (None if strategy == "per-cell" else count)
            assert rep.partial is False
    # each per-cell verdict is justified by the report's own witnesses
    cells = reports["per-cell"]
    witness_cells = [set(enumerate(w)) for w in cells.witnesses.values()]
    for r, row in enumerate(cells.status):
        for c, st in enumerate(row):
            if st == COVERED:
                assert any((r, c) not in w for w in witness_cells)
            elif st == PINNED:
                assert all((r, c) in w for w in witness_cells)
    if witness_cells:
        assert set.intersection(*witness_cells) == {(e.row, e.col) for e in cells.pinned}


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_budgeted_classify_without_a_witness_does_not_say_no(twin):
    """At budget 5 no search of V10, which has 272 transversals, finds one: the report
    is partial and leaves whether there is a transversal unknown (None), never False."""
    with pure_twin() if twin else nullcontext():
        rep = classify(build_V(10), node_budget=5)
    assert rep.partial and not rep.witnesses
    assert rep.has_transversal is None and rep.to_json_dict()["hasTransversal"] is None


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_classify_enumeration_budget(twin):
    """V10's enumeration takes 32,250 nodes: it finishes at that budget and not one below.

    The per-cell phases after it run without a budget, and the default
    per-cell classification at the smaller budget, whose searches all fit,
    gives the per-cell report.
    """
    sq = build_V(10)
    with pure_twin() if twin else nullcontext():
        full = classify(sq, strategy="enumerate")
        exact = classify(sq, strategy="enumerate", node_budget=32_250)
        with pytest.raises(BudgetExceeded) as exc:
            classify(sq, strategy="enumerate", node_budget=32_249)
        default = classify(sq, node_budget=32_249)
        cells = classify(sq, strategy="per-cell")
    assert (full.nodes, full.transversal_count, full.partial) == (32_250, 272, False)
    assert _report_fields(exact) == _report_fields(full)
    assert exc.value.nodes == 32_250
    assert _report_fields(default) == _report_fields(cells)
    assert default.transversal_count is None and not default.partial


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no affinity masks")
def test_classify_report_same_on_one_cpu():
    """Every field of each strategy's report in a child process whose affinity mask holds
    one CPU, so the kernel runs on one thread, equals this process's on every CPU."""
    sq = build_V(10)  # has a pinned cell, so both phases run
    script = ("import os, sys; from latintrav import _kernel; "
              "from latintrav.engine import classify; from latintrav.families import build_V; "
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
              "assert _kernel.cpu_count() == 1; "
              "print(repr([classify(build_V(10), strategy=s) for s in sys.argv[1:]]))")
    strategies = ("enumerate", "per-cell")
    proc = subprocess.run([sys.executable, "-c", script, *strategies], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(_kernel._SOURCE.parents[1])})
    assert proc.returncode == 0, proc.stderr
    reports = [classify(sq, strategy=strategy) for strategy in strategies]
    assert reports[0].pinned and reports[0].transversal_count == 272
    assert proc.stdout.strip() == repr(reports)


def test_classify_rejects_unknown_strategy():
    sq = build_V(10)
    for strategy in ("auto", "count"):
        with pytest.raises(DomainError, match="strategy"):
            classify(sq, strategy=strategy)


@pytest.mark.parametrize("sq, budget", [(build_T(12), 200), (build_T(12), 400),
                                        (build_exceptional(8), 100)],
                         ids=["T12-200", "T12-400", "EX8-100"])
def test_classify_per_cell_budget(sq, budget):
    full = classify(sq, strategy="per-cell")
    part = classify(sq, strategy="per-cell", node_budget=budget)
    assert part.partial
    resolved_by_witness = 0
    for r, row in enumerate(part.status):
        for c, st in enumerate(row):
            if st != UNKNOWN:
                assert st == full.status[r][c]
                assert part.witnesses.get((r, c)) == full.witnesses.get((r, c))
            try:
                find(sq, required=(sq.entry(r, c),), node_budget=budget)
            except BudgetExceeded:
                assert st == UNKNOWN
            try:
                find(sq, forbidden_cells=((r, c),), node_budget=budget)
            except BudgetExceeded:
                assert st != PINNED
                resolved_by_witness += st == COVERED
    assert resolved_by_witness > 0


def test_classify_consistency_with_per_cell_finds():
    sq = build_V(10)
    rep = classify(sq)
    for r in range(10):
        for c in range(10):
            witness = find(sq, required=(sq.entry(r, c),))
            assert (witness is None) == (rep.status[r][c] == FREE)


def test_classify_pinned_equals_intersection_of_transversals():
    sq = build_T(12)
    rep = classify(sq)
    common = None
    for t in iter_solutions(sq):
        cells = {(r, c) for r, c in enumerate(t.cols)}
        common = cells if common is None else common & cells
    assert {(e.row, e.col) for e in rep.pinned} == common


def test_classify_status_partition():
    rep = classify(build_exceptional(8))
    counts = {FREE: 0, COVERED: 0, PINNED: 0}
    for row in rep.status:
        for st in row:
            counts[st] += 1
    assert counts[FREE] + counts[COVERED] + counts[PINNED] == 64
    assert counts[FREE] == rep.tau


def test_classify_report_json_shape():
    data = classify(build_V(10)).to_json_dict()
    assert set(data) == {"order", "family", "tau", "hasTransversal", "pinned", "freeCells"}
    assert data["family"] == "V"
    assert classify(build_V(10), strategy="enumerate").to_json_dict()["counts"] == 272


def test_is_pinned():
    sq = build_T(12)
    assert is_pinned(sq, (1, 0, 3))
    assert not is_pinned(sq, (0, 0, 0))
    assert not is_pinned(cayley_table(6), (0, 0, 0))  # no transversal at all
    with pytest.raises(DomainError):
        is_pinned(sq, (0, 0, 5))


@pytest.mark.parametrize("entry", [(10, 0, 0), (0, 10, 0), (-1, 0, 0), (0, -1, 9)])
def test_is_pinned_rejects_cells_outside_the_square(entry):
    """A DomainError, not an IndexError from past the end or a wrap-around from -1."""
    with pytest.raises(DomainError, match="outside the square"):
        is_pinned(build_V(10), entry)
    with pytest.raises(DomainError, match="outside the square"):
        pinned_verdicts(build_V(10), [(1, 0, 3), entry])


def test_pinned_verdicts_share_one_search(monkeypatch):
    """Existence from the family's witness, else one unconstrained `find`; then one batch
    of avoiding searches over the cells in order."""
    sq = build_T(12)
    entries = [(1, 0, 3), (0, 0, 0), (2, 1, 4)]
    calls = []
    real_find, real_search_cells = engine.find, engine._search_cells

    def search_cells(square, cells, avoid, budget):
        calls.append(("cells", [tuple(cell) for cell in cells], avoid))
        return real_search_cells(square, cells, avoid, budget)

    monkeypatch.setattr(engine, "find",
                        lambda *a, **kw: calls.append(("find", kw)) or real_find(*a, **kw))
    monkeypatch.setattr(engine, "_search_cells", search_cells)
    assert pinned_verdicts(sq, entries) == (True, False, True)
    assert calls == [("cells", [(1, 0), (0, 0), (2, 1)], True)]
    assert pinned_verdicts(sq.with_family(None), entries) == (True, False, True)
    assert calls[1:] == [("find", {"node_budget": None}),
                         ("cells", [(1, 0), (0, 0), (2, 1)], True)]
    assert pinned_verdicts(sq, []) == ()
    assert pinned_verdicts(cayley_table(6), [(0, 0, 0), (1, 1, 2)]) == (False, False)
    assert len(calls) == 4  # no search without entries; one for the transversal-free square
    with pytest.raises(DomainError):
        pinned_verdicts(sq, [(1, 0, 3), (0, 0, 5)])


def test_pinned_existence_from_the_family_witness(monkeypatch):
    """U44's unconstrained search runs for about a minute; its witness answers at once, and
    the avoiding refutations finish far inside the budget.  A witness that is not a
    transversal of the square passed in is not taken."""
    sq = build_family("U", 44)
    forced = claimed_pinned_entries("U", 44)
    assert pinned_verdicts(sq, forced, node_budget=100_000) == (True,) * 7
    found = []
    monkeypatch.setattr(engine, "find", lambda *a, **kw: found.append(a) or None)
    swapped = LatinSquare(build_V(10).to_array()[[1, 0, *range(2, 10)]], family="V")
    assert not is_transversal(swapped, witness_transversal("V", 10))
    assert pinned_verdicts(swapped, [swapped.entry(1, 2)]) == (False,)
    assert found == [(swapped,)]


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_pinned_verdicts_budget(twin):
    """On EX8 the unconstrained search takes 172 nodes and the one avoiding (6, 5) 6,107:
    at budget 1,000 the verdict is unknown, BudgetExceeded with the avoiding search's
    1,001 nodes, never a "not pinned"; at 6,107 both searches finish."""
    sq = build_exceptional(8)
    entry = sq.entry(6, 5)
    with pure_twin() if twin else nullcontext():
        with pytest.raises(BudgetExceeded) as exc:
            is_pinned(sq, entry, node_budget=1_000)
        assert exc.value.nodes == 1_001
        assert pinned_verdicts(sq, [entry], node_budget=6_107) \
            == pinned_verdicts(sq, [entry])


def test_find_disjoint_pair():
    pair = find_disjoint_pair(cayley_table(5))
    assert pair is not None
    t1, t2 = pair
    assert not ({(r, c) for r, c in enumerate(t1.cols)}
                & {(r, c) for r, c in enumerate(t2.cols)})
    assert find_disjoint_pair(cayley_table(4)) is None
    assert find_disjoint_pair(cayley_table(1)) is None


def test_count_parity_check():
    count, ok = count_parity_check(build_exceptional(6))
    assert (count, ok) == (8, True)
    assert count_parity_check(cayley_table(4)) == (0, True)
    count8, ok8 = count_parity_check(build_exceptional(8))
    assert ok8 and count8 == 16
    with pytest.raises(OddOrder):
        count_parity_check(cayley_table(5))


def test_constraints_object_equivalent_to_kwargs():
    sq = build_T(12)
    cons = SearchConstraints.make(required=((1, 0, 3),))
    assert find(sq, cons).cols == find(sq, required=((1, 0, 3),)).cols
