import ctypes
import dataclasses
import logging
import os
import re
import shlex
import subprocess
import sys
import sysconfig
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from latintrav import _kernel
from latintrav import (
    BudgetExceeded,
    Diagonal,
    DomainError,
    Entry,
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
    iter_solutions,
)
from latintrav import engine
from latintrav.blocks import block_cells, verify_hit_theorem
from latintrav.delta import OddOrder, delta_sum
from latintrav.engine import (
    COVERED,
    FREE,
    PINNED,
    UNKNOWN,
    _base_candidates,
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
    claimed_free_cells,
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


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_negative_budget_is_a_domain_error(twin):
    """A budget below 0 is rejected, never read as no budget; 0 stops at the first node."""
    sq = build_V(10)
    calls = [
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


def test_unknown_backend_and_block_size_are_rejected():
    with pytest.raises(TypeError, match="backend"):
        find(build_exceptional(6), backend="pure")  # the engine picks the search path itself
    with pytest.raises(TypeError, match="block_m"):
        count_and_cover(build_V(10), block_m=3)  # the search core tallies no blocks


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


# (label, square, prune) for the kernel-logic check below.
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
    """The C kernel against the pure twin, its oracle, on 1, 2 and 3 threads."""
    prep = _Prepared(sq, SearchConstraints.make())
    counter = _NodeCounter()
    first = next(_iter_cols(prep, prune, None, counter, True), None)
    with pure_twin():
        twin = count_and_cover(sq, prune=prune)
    for threads in (1, 2, 3):
        status, _, nodes, first_cols = _run_one(prep, prune, None, False, threads)
        assert (status, nodes) == (int(first is not None), counter.nodes)
        if first is not None:
            assert tuple(first_cols) == first

        status, count, nodes, _ = _run_one(prep, prune, None, True, threads)
        assert (status, count, nodes) == (int(twin.count > 0), twin.count, twin.nodes)


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
    with pytest.raises(BudgetExceeded) as exc:
        next(_iter_cols(prep, True, 3, _NodeCounter(), True))
    status, _, nodes, _ = _run_one(prep, True, 3, False)
    assert (status, nodes) == (-1, exc.value.nodes)


def _twin_run(prep, prune, budget, enumerate_all):
    """The pure twin's (status, count, nodes, first solution), shaped as `_kernel_run`'s."""
    counter = _NodeCounter()
    count, first = 0, None
    try:
        for cols in _iter_cols(prep, prune, budget, counter, not enumerate_all):
            count += 1
            if not enumerate_all:
                first = cols
                break
    except BudgetExceeded:
        return -1, None, counter.nodes, None
    return int(count > 0), count, counter.nodes, first


def _run_one(prep, prune, budget, enumerate_all, threads=None):
    """`_kernel.run` on a batch of one prepared search: its (status, count, nodes, cols)."""
    status, count, nodes, cols = _kernel.run(
        prep.base, prep.rows[None], use_syms=prep.use_syms, sd_final=prep.sd_final,
        prune=prune, budget=budget, enumerate_all=enumerate_all, threads=threads)
    return int(status[0]), int(count[0]), int(nodes[0]), cols[0]


def _kernel_run(prep, prune, budget, enumerate_all, threads=None):
    """`_run_one` reduced to what it promises: status and nodes for every budget,
    the count when the search finished and the solution of a first-hit search."""
    status, count, nodes, first_cols = _run_one(prep, prune, budget, enumerate_all, threads)
    return (status, count if status >= 0 else None, nodes,
            tuple(first_cols.tolist()) if status == 1 and not enumerate_all else None)


def _c_define(name: str) -> int:
    """An integer #define of _kernel.c."""
    match = re.search(rf"^#define {name} (\d+)", _kernel._SOURCE.read_text(), re.MULTILINE)
    assert match, f"no #define {name} in {_kernel._SOURCE.name}"
    return int(match.group(1))


def _row_entries(prep, prune) -> list[list[int]]:
    """For each depth, the one-thread walk's node count each time it enters that row.

    Written apart from the twin, with its node accounting (one node per
    candidate index).  Entering row d at depth d is reaching a depth-d prefix,
    so these are the counts at which a full enumeration split at depth d
    passes from its shallow walk into a task, and their number at depth d is
    the number of tasks.
    """
    n, target = prep.n, prep.target
    rows = [row[keep].tolist() for row, keep in zip(prep.base, prep.keep)]
    lo, hi = prep.lo_suf.tolist(), prep.hi_suf.tolist()
    entries = [[] for _ in range(n)]
    nodes = 0

    def enter(d, used_cols, used_syms, dsum):
        nonlocal nodes
        if d == n:
            return
        entries[d].append(nodes)
        for c, s, delta in rows[d]:
            nodes += 1
            if used_cols >> c & 1 or (prep.use_syms and used_syms >> s & 1):
                continue
            low, high = dsum + delta + lo[d + 1], dsum + delta + hi[d + 1]
            if prune and low + (target - low) % n > high:
                continue
            enter(d + 1, used_cols | 1 << c, used_syms | 1 << s, dsum + delta)

    if all(rows) and not (prune and lo[0] + (target - lo[0]) % n > hi[0]):
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
    """use_syms=0, sd_final=1: the residue test at the leaves, with and without the prune."""
    prep = _Prepared(sq, SearchConstraints.make(mode=SearchMode.SUITABLE_DIAGONAL))
    first = _twin_run(prep, prune, None, False)[3]
    # forbidding a cell of the first suitable diagonal moves the first hit
    cell = (1, first[1]) if first else (0, 0)
    for forbidden in ((), (cell,)):
        prep = _Prepared(sq, SearchConstraints.make(mode=SearchMode.SUITABLE_DIAGONAL,
                                                    forbidden_cells=forbidden))
        for enumerate_all in (False, True):
            assert _kernel_run(prep, prune, None, enumerate_all) \
                == _twin_run(prep, prune, None, enumerate_all)


@needs_compiler
@pytest.mark.parametrize("break_layout", ["row-mask-bit-n", "delta-too-large",
                                          "row-mask-bit-n-last-of-batch"])
def test_kernel_rejects_candidates_outside_its_layout(break_layout):
    """The mask walk needs row masks inside the square and the residue step |delta| < n;
    every mask of a batch is checked, the last search's too."""
    prep = _Prepared(build_exceptional(6), SearchConstraints.make())
    rows = np.repeat(prep.rows[None], 3 if break_layout.endswith("batch") else 1, axis=0)
    if break_layout.startswith("row-mask-bit-n"):
        rows[-1, 0] |= 1 << 6
    else:
        prep.base[0, 0, 2] = 6
    with pytest.raises(ValueError, match="kernel base"):
        _kernel.run(prep.base, rows, use_syms=True, sd_final=False, prune=True, budget=None,
                    enumerate_all=len(rows) == 1)


@needs_compiler
@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("enumerate_all", [False, True], ids=["first-hit", "enumerate"])
def test_kernel_row_without_candidates_matches_twin(enumerate_all, prune):
    """A row with no candidates is an empty search with no node, on the kernel as on the twin."""
    prep = _Prepared(build_V(10), SearchConstraints.make(
        forbidden_cells=[(3, c) for c in range(10)]))
    twin = _twin_run(prep, prune, None, enumerate_all)
    assert twin == (0, 0, 0, None)
    for threads in (1, 2, 3):
        assert _kernel_run(prep, prune, None, enumerate_all, threads) == twin, threads


def _budget_sweep(nodes: int) -> list[int]:
    """About 50 budgets from 0 to nodes + 1, both ends included."""
    return sorted(set(np.linspace(0, nodes + 1, 50).round().astype(int).tolist()))


# The suitable-diagonal trees of EX8 and CAYLEY8 (0.5M nodes each) take about
# 13 s of twin runs, so they run under --runlong.
SWEEP_CASES = [
    pytest.param(sq, mode, id=f"{label}-{mode.value}",
                 marks=[pytest.mark.long] if sq.order == 8 and mode is SearchMode.SUITABLE_DIAGONAL
                 else [])
    for label, sq in EVEN_CASES for mode in SearchMode]


@needs_compiler
@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("sq, mode", SWEEP_CASES)
def test_enumeration_budget_sweep_matches_twin(sq, mode, prune):
    """Full enumeration stopped at budgets across the whole tree: the kernel must give
    the twin's status and nodes (budget + 1 when it runs out, however its jumps over
    used candidates land) and, when it finishes, the twin's count, on 1, 2 and 3
    threads.  The budgets beside row entries make the budget run out in a split
    enumeration's shallow walk and inside its tasks, and one below the total after
    its last task."""
    prep = _Prepared(sq, SearchConstraints.make(mode=mode))
    total = _twin_run(prep, prune, None, True)[2]
    budgets = set(_budget_sweep(total)) | {max(total - 1, 0), total}
    entries = _row_entries(prep, prune)
    for threads in (2, 3):
        depth = _split_depth(entries, threads)
        if depth is not None:
            budgets.update(_boundary_budgets(entries, depth))
    for budget in sorted(budgets):
        twin = _twin_run(prep, prune, budget, True)
        for threads in (1, 2, 3):
            assert _kernel_run(prep, prune, budget, True, threads) == twin, (budget, threads)


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
    entries = _row_entries(prep, True)
    assert sum(len(e) for e in entries) > 0
    for threads in (2, 3):
        depth = _split_depth(entries, threads)
        assert (depth is not None) == splits
        # beside the entries of every depth, so the split depth's are among them
        budgets = [b for d in range(1, sq.order) for b in _boundary_budgets(entries, d)[::8]]
        for budget in budgets + [None]:
            assert _kernel_run(prep, True, budget, True, threads) \
                == _twin_run(prep, True, budget, True), budget


@needs_compiler
def test_long_tasks_under_budgets_match_one_thread():
    """V16's tasks run long enough (about 100k nodes each) for every worker to add to
    the node pool many times while the others run; at budgets across the first tenth
    of the tree (54.4M nodes) each run stops with the one-thread walk's status -1 and
    budget + 1 nodes."""
    prep = _Prepared(build_V(16), SearchConstraints.make())
    for budget in np.linspace(100_000, 5_440_000, 8).round().astype(int).tolist():
        for threads in (1, 2, 3):
            assert _kernel_run(prep, True, budget, True, threads) \
                == (-1, None, budget + 1, None), (budget, threads)


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
    twin = _twin_run(prep, True, budget, enumerate_all)
    for threads in (1, 2, 3):
        assert _kernel_run(prep, True, budget, enumerate_all, threads) == twin, threads


@needs_compiler
@pytest.mark.parametrize("sq, count, nodes", [
    pytest.param(build_V(10), 272, 32_250, id="V10"),
    pytest.param(build_T(12), 520, 108_120, id="T12"),
    pytest.param(build_U(14), 4_536, 1_506_414, id="U14"),
    pytest.param(build_L(3), 324, 162_981, id="L9"),
])
def test_kernel_enumeration_totals(sq, count, nodes):
    """Full enumerations on the kernel: exact counts and node totals, which any new walk must keep."""
    summary = count_and_cover(sq)
    assert (summary.count, summary.nodes) == (count, nodes)


def _assert_same_batch(got, want, msg=None):
    """Two batches' (status, nodes, cols) arrays agree: status and nodes of every cell,
    and the columns of every found witness (the rest of ``cols`` means nothing)."""
    assert got[0].tolist() == want[0].tolist(), msg
    assert got[1].tolist() == want[1].tolist(), msg
    found = want[0] == 1
    assert got[2][found].tolist() == want[2][found].tolist(), msg


def _cell_preps(sq, avoid):
    """One `_Prepared` per cell, row by row: through it, or with ``avoid`` avoiding it."""
    base = _base_candidates(sq)
    return [_Prepared(sq, SearchConstraints.make(forbidden_cells=((r, c),)) if avoid
                      else SearchConstraints.make(required=(sq.entry(r, c),)), base)
            for r in range(sq.order) for c in range(sq.order)]


def _assert_batch_matches_twin(base, cells, avoid, budget, twin):
    """The kernel batch over ``cells`` at ``budget``, on 1, 2 and 3 threads, against the
    twin's `_twin_run` result for each cell."""
    rows = _cell_rows(base, cells, avoid)
    for threads in (1, 2, 3):
        status, _, nodes, cols = _kernel.run(base, rows, use_syms=True, sd_final=False,
                                             prune=True, budget=budget, enumerate_all=False,
                                             threads=threads)
        assert list(zip(status.tolist(), nodes.tolist())) \
            == [(st, spent) for st, _, spent, _ in twin], (budget, threads)
        assert [tuple(w) for w, st in zip(cols.tolist(), status) if st == 1] \
            == [first for st, _, _, first in twin if st == 1], (budget, threads)


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
    """Every cell of the square as one kernel batch, on 1, 2 and 3 threads, against the
    per-cell twin loop: each search's status and nodes, the searches that finish
    included, and every found witness."""
    n = sq.order
    cells = [(r, c) for r in range(n) for c in range(n)]
    with pure_twin():
        twin = _search_cells(sq, cells, avoid, budget, None)
    for threads in (1, 2, 3):
        _assert_same_batch(_search_cells(sq, cells, avoid, budget, threads), twin, threads)


@needs_compiler
@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq", [pytest.param(build_exceptional(8), id="EX8"),
                                pytest.param(build_T(12), id="T12")])
def test_batched_budget_sweep_matches_twin(sq, avoid):
    """Every cell's search at budgets up to the largest search's nodes + 1, on 1 to 3 threads."""
    n = sq.order
    cells = np.array([(r, c) for r in range(n) for c in range(n)], np.int64)
    preps = _cell_preps(sq, avoid)
    base = preps[0].base
    most = max(_twin_run(prep, True, None, False)[2] for prep in preps)
    for budget in _budget_sweep(most):
        twin = [_twin_run(prep, True, budget, False) for prep in preps]
        _assert_batch_matches_twin(base, cells, avoid, budget, twin)


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
    n = sq.order
    cells = [(r, c) for r in range(n) for c in range(n)]
    preps = _cell_preps(sq, avoid)
    base = preps[0].base
    costs = [_twin_run(prep, True, None, False)[2] for prep in preps]
    by_budget = {}
    for j, budgets in enumerate(_edge_budgets(costs)):
        for budget in budgets:
            by_budget.setdefault(budget, []).append(j)
    for budget, js in sorted(by_budget.items()):
        twin = [_twin_run(preps[j], True, budget, False) for j in js]
        _assert_batch_matches_twin(base, np.array([cells[j] for j in js], np.int64), avoid,
                                   budget, twin)


@needs_compiler
def test_first_hit_budget_edges_match_twin():
    """`find`'s path through the kernel with each required entry of V10, at the budgets beside
    each search's node count (`_edge_budgets`), on 1 to 3 threads."""
    sq = build_V(10)
    preps = [_Prepared(sq, SearchConstraints.make(required=(sq.entry(r, c),)))
             for r in range(sq.order) for c in range(sq.order)]
    costs = [_twin_run(prep, True, None, False)[2] for prep in preps]
    for prep, budgets in zip(preps, _edge_budgets(costs)):
        for budget in budgets:
            twin = _twin_run(prep, True, budget, False)
            for threads in (1, 2, 3):
                assert _kernel_run(prep, True, budget, False, threads) == twin, (budget, threads)


@needs_compiler
@pytest.mark.parametrize("break_layout", ["delta-n", "column-moved", "symbol-n"])
def test_batch_rejects_a_base_outside_its_layout(break_layout):
    """A bad base table is an error, never a batch of "no transversal" (FREE) statuses.

    The masks come from the unbroken base: `_cell_rows` indexes by symbol, so a
    symbol of n would fail there before the kernel's check ran."""
    base = _base_candidates(build_V(10))
    cells = np.array([(0, 0), (3, 4)], np.int64)
    masks = [_cell_rows(base, cells, avoid) for avoid in (False, True)]
    base[3, 4, {"delta-n": 2, "column-moved": 0, "symbol-n": 1}[break_layout]] = 10
    for rows in masks:
        with pytest.raises(ValueError, match="kernel base"):
            _kernel.run(base, rows, use_syms=True, sd_final=False, prune=True, budget=None,
                        enumerate_all=False)


# (label, square) for the per-cell filter check below.
FILTER_CASES = [("V10", build_V(10)), ("T12", build_T(12)), ("EX8", build_exceptional(8)),
                ("L9", build_L(3)),  # odd order
                ("CAYLEY8", cayley_table(8))]


@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq", [pytest.param(sq, id=label) for label, sq in FILTER_CASES])
def test_cell_rows_filter_as_prepared(sq, avoid):
    """The kernel batch's per-cell masks are exactly `_Prepared`'s rows for a required
    entry (through) or a forbidden cell (avoiding), for every cell."""
    n = sq.order
    base = _base_candidates(sq)
    cells = np.indices((n, n)).reshape(2, -1).T
    rows = _cell_rows(base, cells, avoid)
    assert rows.shape == (n * n, n) and rows.dtype == np.int64
    for j, (r, c) in enumerate(cells.tolist()):
        cons = SearchConstraints.make(forbidden_cells=((r, c),)) if avoid \
            else SearchConstraints.make(required=(sq.entry(r, c),))
        assert rows[j].tolist() == _Prepared(sq, cons, base).rows.tolist(), (r, c)


def _twin_first(prep, prune, first_hit):
    """The twin's first solution (or None) and its nodes, under ``first_hit``'s rule."""
    counter = _NodeCounter()
    first = next(_iter_cols(prep, prune, None, counter, first_hit), None)
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


@needs_compiler
@pytest.mark.parametrize("avoid", [False, True], ids=["through", "avoiding"])
@pytest.mark.parametrize("sq, nodes", [
    pytest.param(build_V(10), (3_776_336, 17_914_224), id="V10"),
    pytest.param(build_exceptional(8), (110_642, 56_704), id="EX8"),
])
def test_unpruned_first_hit_nodes_unchanged(sq, nodes, avoid):
    """prune=False turns the forward check off too: every cell's first-hit search visits
    the nodes it visited before the check existed, on the kernel and, for EX8, the twin."""
    base = _base_candidates(sq)
    cells = np.indices((sq.order, sq.order)).reshape(2, -1).T
    spent = _kernel.run(base, _cell_rows(base, cells, avoid), use_syms=True, sd_final=False,
                        prune=False, budget=None, enumerate_all=False)[2]
    assert int(spent.sum()) == nodes[avoid]
    if sq.order == 8:
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
    assert all(re.fullmatch(r"(const )?int64_t (\*\w+|\w+)", p) for p in params), params
    argtypes = [ctypes.c_void_p if "*" in p else ctypes.c_int64 for p in params]
    return argtypes, ctypes.c_int64 if match.group(1) == "int64_t" else None


@needs_compiler
def test_ctypes_signatures_match_c():
    """ctypes checks no argtypes against the C source; this test does."""
    argtypes, restype = _c_signature("search")
    fn = _kernel.load().search
    assert fn.argtypes == argtypes
    assert fn.restype is restype
    assert len(argtypes) == 11


@needs_compiler
def test_kernel_compiles_without_warnings(tmp_path):
    """The build's own flags, so warnings that only optimisation finds show too."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    proc = subprocess.run([*cc, *_kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           str(_kernel._SOURCE), "-o", str(tmp_path / "kernel.so")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _c_array(name: str, arr) -> str:
    values = ", ".join(str(v) for v in np.asarray(arr).ravel().tolist())
    return f"static const int64_t {name}[] = {{{values}}};\n"


def _tsan_program(cases) -> tuple[str, list[str]]:
    """A C program driving `search` in two ways on each square, and its output.

    A batch of one full enumeration runs on 3 threads without a budget and at
    a third and two thirds of its nodes; batches of one search through, and
    then avoiding, each cell run without a budget and at a third of that
    batch's largest search, so the shared tables and the budget's exits run
    on every thread.  The expected lines come from the kernel on one thread:
    status and nodes, and the count only when the enumeration finished; each
    batch's found witnesses and summed nodes.
    """
    decls, calls, expected = [], [], []
    for label, sq in cases:
        n = sq.order
        prep = _Prepared(sq, SearchConstraints.make())
        cells = np.indices((n, n)).reshape(2, -1).T
        decls += [_c_array(f"{label}_base", prep.base), _c_array(f"{label}_rows", prep.rows)]
        total = _kernel_run(prep, True, None, True, 1)[2]
        for budget in (-1, total // 3, 2 * total // 3):
            calls.append(f"enumerate({label}_base, {n}, {label}_rows, {budget});")
            st, count, nodes, _ = _kernel_run(prep, True, None if budget < 0 else budget, True, 1)
            expected.append(f"dfs {st} {'-' if count is None else count} {nodes}")
        for avoid in (0, 1):
            decls.append(_c_array(f"{label}_cells{avoid}", _cell_rows(prep.base, cells, avoid)))
            most = int(_search_cells(sq, cells, bool(avoid), None, 1)[1].max())
            for budget in (-1, most // 3):
                calls.append(f"batch({label}_base, {n}, {label}_cells{avoid}, {budget});")
                status, nodes, _ = _search_cells(sq, cells, bool(avoid),
                                                 None if budget < 0 else budget, 1)
                expected.append(f"cells {(status == 1).sum()} {nodes.sum()}")
    source = "#include <stdint.h>\n#include <stdio.h>\n" + "".join(decls) + """
int64_t search(const int64_t *, int64_t, const int64_t *, int64_t, int64_t, int64_t, int64_t,
               int64_t, int64_t, int64_t, int64_t *);
static int64_t out[64 * 64 * 67];
static void enumerate(const int64_t *base, int64_t n, const int64_t *rows, int64_t budget)
{
    if (search(base, n, rows, 1, 1, 0, 1, budget, 1, 3, out) != 0)
        printf("bad input\\n");
    else if (out[0] < 0)
        printf("dfs %lld - %lld\\n", (long long)out[0], (long long)out[2]);
    else
        printf("dfs %lld %lld %lld\\n", (long long)out[0], (long long)out[1], (long long)out[2]);
}
static void batch(const int64_t *base, int64_t n, const int64_t *rows, int64_t budget)
{
    int64_t found = 0, spent = 0;
    if (search(base, n, rows, n * n, 1, 0, 1, budget, 0, 3, out) != 0)
        printf("bad input\\n");
    for (int64_t j = 0; j < n * n; j++) {
        found += out[j * (n + 3)] == 1;
        spent += out[j * (n + 3) + 2];
    }
    printf("cells %lld %lld\\n", (long long)found, (long long)spent);
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
    (tmp_path / "program.c").write_text(source)
    subprocess.run([*cc, *flags, str(tmp_path / "program.c"), str(_kernel._SOURCE),
                    "-o", str(tmp_path / "program")], check=True, capture_output=True)
    proc = subprocess.run([str(tmp_path / "program")], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "TSAN_OPTIONS": "exitcode=66"})
    assert "ThreadSanitizer" not in proc.stderr, proc.stderr
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == expected


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


def test_classify_jobs_do_not_change_report():
    """Every field of every strategy's report, on one thread, two and every CPU."""
    sq = build_V(10)  # has a pinned cell, so both phases run
    for strategy in ("enumerate", "per-cell"):
        one, two, default = (_report_fields(classify(sq, strategy=strategy, jobs=jobs))
                             for jobs in (1, 2, None))
        assert one["pinned"]
        assert one == two == default
    for jobs in (0, -1):
        with pytest.raises(DomainError, match="jobs"):
            classify(sq, jobs=jobs)
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
    sq = build_T(12)
    entries = [(1, 0, 3), (0, 0, 0), (2, 1, 4)]
    calls = []
    real_find = engine.find
    monkeypatch.setattr(engine, "find", lambda *a, **kw: calls.append(kw) or real_find(*a, **kw))
    assert pinned_verdicts(sq, entries) == (True, False, True)
    assert [kw.get("forbidden_cells") for kw in calls] \
        == [None, ((1, 0),), ((0, 0),), ((2, 1),)]
    assert pinned_verdicts(sq, []) == ()
    assert pinned_verdicts(cayley_table(6), [(0, 0, 0), (1, 1, 2)]) == (False, False)
    assert len(calls) == 5  # no search without entries; one for the transversal-free square
    with pytest.raises(DomainError):
        pinned_verdicts(sq, [(1, 0, 3), (0, 0, 5)])


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
