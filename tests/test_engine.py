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
    """Searches inside run on the pure twin, as they do where the kernel cannot be built.

    The patch reaches this process only, so code run inside keeps ``jobs=1``.
    """
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
    assert v10.first == find(build_V(10)).cols == (2, 0, 4, 6, 7, 3, 8, 5, 9, 1)
    ex8 = count_and_cover(build_exceptional(8))
    assert ex8.count == 16
    assert ex8.first == find(build_exceptional(8)).cols == (0, 2, 6, 1, 4, 7, 5, 3)
    ex8_report = classify(build_exceptional(8), strategy="enumerate")
    assert (ex8_report.transversal_count, ex8_report.tau) == (16, 28)
    t12 = classify(build_T(12), strategy="per-cell")  # jobs=1: the patches stay in this process
    assert t12.tau == 67
    assert [e.as_tuple() for e in t12.pinned] == [(1, 0, 3), (2, 1, 4)]
    warnings = [rec for rec in caplog.records if rec.name == _kernel.__name__]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert "pure-Python twin" in warnings[0].getMessage()
    assert not list(tmp_path.rglob("_kernel-*"))


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
    """The C kernel against the pure twin, its oracle."""
    prep = _Prepared(sq, SearchConstraints.make())
    counter = _NodeCounter()
    first = next(_iter_cols(prep, prune, None, counter), None)
    status, _, nodes, first_cols = _kernel.run(
        prep, prune=prune, budget=None, enumerate_all=False)
    assert (status, nodes) == (int(first is not None), counter.nodes)
    if first is not None:
        assert tuple(first_cols) == first

    with pure_twin():
        twin = count_and_cover(sq, prune=prune)
    status, count, nodes, first_cols = _kernel.run(
        prep, prune=prune, budget=None, enumerate_all=True)
    assert (status, count, nodes) == (int(twin.count > 0), twin.count, twin.nodes)
    if twin.count:
        assert tuple(first_cols) == twin.first


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
        next(_iter_cols(prep, True, 3, _NodeCounter()))
    status, _, nodes, _ = _kernel.run(prep, prune=True, budget=3, enumerate_all=False)
    assert (status, nodes) == (-1, exc.value.nodes)


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
    """Every cell of the square as one kernel batch against the per-cell twin loop."""
    n = sq.order
    cells = [(r, c) for r in range(n) for c in range(n)]
    with pure_twin():
        twin = _search_cells((sq, cells, avoid, budget))
    assert _search_cells((sq, cells, avoid, budget)) == twin
    # node accounting per search, including the searches that finish
    _, nodes, _ = _kernel.run_cells(_base_candidates(sq), np.array(cells, np.int64),
                                    avoid, budget)
    twin_nodes = []
    for r, c in cells:
        cons = SearchConstraints.make(forbidden_cells=((r, c),)) if avoid \
            else SearchConstraints.make(required=(sq.entry(r, c),))
        counter = _NodeCounter()
        try:
            next(_iter_cols(_Prepared(sq, cons), True, budget, counter), None)
        except BudgetExceeded:
            pass
        twin_nodes.append(counter.nodes)
    assert nodes.tolist() == twin_nodes


@needs_compiler
def test_one_library_has_both_entry_points():
    lib = _kernel.load()
    assert lib._name == str(_kernel.library_path(_kernel._SOURCE.read_bytes()))
    assert lib.dfs.argtypes and lib.search_cells.argtypes


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
@pytest.mark.parametrize("name", ["dfs", "search_cells"])
def test_ctypes_signatures_match_c(name):
    """ctypes checks no argtypes against the C source; this test does."""
    argtypes, restype = _c_signature(name)
    fn = getattr(_kernel.load(), name)
    assert fn.argtypes == argtypes
    assert fn.restype is restype
    if name == "dfs":
        assert len(argtypes) == 12


@needs_compiler
def test_kernel_compiles_without_warnings():
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    proc = subprocess.run([*cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           str(_kernel._SOURCE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_classify_exceptional_6():
    rep = classify(build_exceptional(6))
    assert rep.tau == 16
    assert rep.has_transversal
    assert set(rep.free_cells) == set(claimed_free_cells(6))
    assert rep.pinned == ()
    assert rep.transversal_count == 8
    assert not rep.partial


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
            reports = {s: classify(sq, strategy=s) for s in ("auto", "enumerate", "per-cell")}
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

    The per-cell phases after it run without a budget, and auto at the smaller
    budget falls back to per-cell classification, whose searches all fit.
    """
    sq = build_V(10)
    with pure_twin() if twin else nullcontext():
        full = classify(sq, strategy="enumerate")
        exact = classify(sq, strategy="enumerate", node_budget=32_250)
        with pytest.raises(BudgetExceeded) as exc:
            classify(sq, strategy="enumerate", node_budget=32_249)
        auto = classify(sq, node_budget=32_249)
        cells = classify(sq, strategy="per-cell")
    assert (full.nodes, full.transversal_count, full.partial) == (32_250, 272, False)
    assert _report_fields(exact) == _report_fields(full)
    assert exc.value.nodes == 32_250
    assert _report_fields(auto) == _report_fields(cells)
    assert auto.transversal_count is None and not auto.partial


def test_classify_jobs_do_not_change_report():
    sq = build_V(10)  # has a pinned cell, so both phases run in the pool
    one = classify(sq, strategy="per-cell", jobs=1)
    two = classify(sq, strategy="per-cell", jobs=2)
    assert one.pinned
    assert one.status == two.status
    assert one.tau == two.tau
    assert one.pinned == two.pinned
    assert one.witnesses == two.witnesses


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
    assert {"order", "family", "tau", "hasTransversal", "pinned", "freeCells"} <= set(data)
    assert data["family"] == "V"
    assert data["counts"] == 272


def test_is_pinned():
    sq = build_T(12)
    assert is_pinned(sq, (1, 0, 3))
    assert not is_pinned(sq, (0, 0, 0))
    assert not is_pinned(cayley_table(6), (0, 0, 0))  # no transversal at all
    with pytest.raises(DomainError):
        is_pinned(sq, (0, 0, 5))


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
