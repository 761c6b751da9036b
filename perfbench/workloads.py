"""Inputs, references, passes and verdict checks of the three benchmark workloads.

The program under test is imported from ``src/`` of the checkout this file
sits in.  A pass runs one workload's inputs in a given order and returns its
observations; ``check_*`` turns observations into verdicts against references
that are written down here (the paper's tables) or computed by an independent
raw permutation scan, never taken from the code under test alone.

Every workload has two pass functions.  The plain one makes the calls a user
makes (``classify``, ``is_pinned``, ``cli.main``).  The traced one replays the
same work as a sequence of public calls, one span per call, so that the time
can be split by layer; its observations must equal the plain pass's.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "latintrav" / "__init__.py").is_file():
    raise ImportError(f"latintrav sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import latintrav  # noqa: E402
from latintrav import _kernel, blocks, bounds, cli, engine, families  # noqa: E402
from latintrav.core import LatinSquare, is_transversal  # noqa: E402
from latintrav.engine import COVERED, FREE, PINNED, SearchConstraints  # noqa: E402

if Path(latintrav.__file__).resolve().parent != SRC / "latintrav":
    raise ImportError(f"latintrav was imported from {latintrav.__file__}, not from {SRC}")

# The package re-exports a function named ``delta`` over its submodule.
delta_mod = importlib.import_module("latintrav.delta")

BACKEND = "numba" if _kernel.HAVE_NUMBA else "pure"

TABLE1 = (("V", 10), ("T", 12), ("U", 14), ("V", 16),
          ("T", 18), ("U", 20), ("V", 22), ("T", 24))
ENUMERATE_INPUTS = TABLE1[:4]
PERCELL_INPUTS = TABLE1 + (("EX6", 6), ("EX8", 8))
# Thinned from every valid order <= 300: the Table 1 orders, three rungs, and
# the largest order of each family.
CERTIFY_ORDERS = {
    "T": (12, 18, 24, 48, 96, 150, 300),
    "U": (14, 20, 50, 98, 152, 296),
    "V": (10, 16, 22, 46, 100, 154, 298),
}
CERTIFY_BLOCK_M = (3, 5, 9, 15, 33, 51, 99)
PINNED_MAX_ORDER = 24
CERTIFY_INPUTS = (
    tuple(("order", f, n) for f, orders in CERTIFY_ORDERS.items() for n in orders)
    + tuple(("blocks", "L", m) for m in CERTIFY_BLOCK_M)
    + (("theorem", "L", 3),)
)

# Values from the paper, or counted by a raw scan of all column permutations.
REFERENCE = {
    # Table 1: transversal-free cells per order.
    "tau": {("V", 10): 34, ("T", 12): 67, ("U", 14): 88, ("V", 16): 107,
            ("T", 18): 159, ("U", 20): 190, ("V", 22): 217, ("T", 24): 287},
    # Table 1: the lower-bound column, ceil of the closed form.
    "lower": {10: 27, 12: 60, 14: 70, 16: 95, 18: 147, 20: 166, 22: 201, 24: 271},
    "count": {("V", 10): 272, ("T", 12): 520, ("U", 14): 4536, ("V", 16): 100208},
    # Nodes of the row-order DFS with delta-interval pruning; machine independent.
    "nodes": {("V", 10): 32250, ("T", 12): 108120, ("U", 14): 1506414,
              ("V", 16): 54400976},
    "ex8_claimed_tau": 25,
    "l9_transversals": 324,
    "l9_min_block_hits": 1,
    "tau_block_map": {(2, 2): (3, 3), (1, 2): (1, 3), (3, 1): (2, 1), (2, 3): (3, 2)},
    "phi_block_map": {(1, 1): (2, 3), (2, 2): (1, 2), (3, 3): (3, 1)},
}


def closed_form(family: str, n: int) -> Fraction:
    """The paper's quadratic lower bound on tau for the T/U/V families."""
    c1, c0 = {"T": (-51, 36), "V": (-86, -68), "U": (-73, -182)}[family]
    return Fraction(19 * n * n + c1 * n + c0, 36)


def is_latin(grid, n: int) -> bool:
    arr = np.asarray(grid)
    ref = np.arange(n)
    return arr.shape == (n, n) and bool((np.sort(arr, axis=0).T == ref).all()
                                        and (np.sort(arr, axis=1) == ref).all())


def raw_scan(grid) -> tuple[tuple[tuple[str, ...], ...], int]:
    """Per-cell status and transversal count from a scan of all n! column maps."""
    n = len(grid)
    rows = range(n)
    sols = [p for p in itertools.permutations(rows)
            if len({grid[r][p[r]] for r in rows}) == n]
    status = tuple(
        tuple(FREE if not any(p[r] == c for p in sols)
              else PINNED if all(p[r] == c for p in sols) else COVERED
              for c in rows)
        for r in rows)
    return status, len(sols)


class Tally:
    """Verdicts attempted and failed, plus notes that are not failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.notes += other.notes


@dataclass(frozen=True)
class SquareResult:
    status: tuple
    witnesses: tuple
    tau: int
    count: int | None
    nodes: int
    pinned: frozenset
    partial: bool


def _result(rep) -> SquareResult:
    return SquareResult(
        status=rep.status,
        witnesses=tuple(sorted(rep.witnesses.items())),
        tau=rep.tau,
        count=rep.transversal_count,
        nodes=rep.nodes,
        pinned=frozenset((e.row, e.col) for e in rep.pinned),
        partial=rep.partial,
    )


@dataclass
class Context:
    """Squares built before the first timed call, and computed references."""

    squares: dict
    pinned: dict = field(default_factory=dict)   # claimed_pinned_entries cells
    raw: dict = field(default_factory=dict)      # raw-scan (status, count)


def build_inputs(workload: str, inputs=None) -> dict:
    """What a fresh process does before its first timed call: build the squares.

    certify builds its large squares inside the pass, as claims; only the
    Table 1 squares it runs ``is_pinned`` on are built up front.
    """
    inputs = WORKLOADS[workload].inputs if inputs is None else inputs
    if workload == "certify":
        inputs = [(f, n) for kind, f, n in inputs if kind == "order" and n <= PINNED_MAX_ORDER]
    return {key: families.build_family(*key) for key in inputs}


def make_context(workload: str, inputs=None) -> Context:
    squares = build_inputs(workload, inputs)
    ctx = Context(squares)
    for (f, n), sq in squares.items():
        if f in ("T", "U", "V"):
            ctx.pinned[(f, n)] = frozenset(
                (e.row, e.col) for e in families.claimed_pinned_entries(f, n))
        else:
            ctx.raw[(f, n)] = raw_scan(sq.grid)
    return ctx


# --- tracing hooks -------------------------------------------------------------

def _span(tr, name: str):
    return contextlib.nullcontext() if tr is None else tr.span(name)


def _find(tr, square, cons):
    """One ``find`` call; ``_Prepared`` is built once more on its own to time it."""
    with tr.span("engine.prepare"):
        engine._Prepared(square, cons)
    with tr.span("engine.find"):
        sol = engine.find(square, cons)
    tr.count(searches=1, found=int(sol is not None), solutions=int(sol is not None))
    return sol


# --- enumerate and percell ------------------------------------------------------

def enumerate_pass(ctx: Context, keys, tr=None) -> dict:
    out = {}
    for key in keys:
        sq = ctx.squares[key]
        if tr is None:
            out[key] = _result(engine.classify(sq, strategy="enumerate"))
            continue
        # classify(strategy="enumerate") is count_and_cover plus report assembly.
        with tr.span("bench.input"):
            cons = SearchConstraints.make()
            with tr.span("delta.grid"):
                delta_mod.delta_grid(sq)
            with tr.span("engine.prepare"):
                engine._Prepared(sq, cons)
            with tr.span("engine.count_and_cover"):
                summary = engine.count_and_cover(sq, cons)
            with tr.span("engine.report"):
                rep = engine._report_from_summary(sq, summary)
            tr.count(searches=1, found=int(summary.count > 0),
                     solutions=summary.count, nodes=summary.nodes)
        out[key] = _result(rep)
    return out


def percell_pass(ctx: Context, keys, tr=None) -> dict:
    out = {}
    for key in keys:
        sq = ctx.squares[key]
        if tr is None:
            out[key] = _result(engine.classify(sq, strategy="per-cell"))
            continue
        with tr.span("bench.input"):
            out[key] = _percell_replay(sq, tr)
    return out


def _percell_replay(sq, tr) -> SquareResult:
    """What per-cell classify does for each cell, one public call at a time."""
    n = sq.order
    status = [[FREE] * n for _ in range(n)]
    witnesses = {}
    for r in range(n):
        for c in range(n):
            with tr.span("core.square"):
                cell_sq = LatinSquare(sq.grid, family=sq.family)
            with tr.span("delta.grid"):
                delta_mod.delta_grid(cell_sq)
            hit = _find(tr, cell_sq, SearchConstraints.make(required=(cell_sq.entry(r, c),)))
            if hit is None:
                continue
            witnesses[(r, c)] = hit.cols
            avoid = _find(tr, cell_sq, SearchConstraints.make(forbidden_cells=((r, c),)))
            status[r][c] = PINNED if avoid is None else COVERED
    return SquareResult(
        status=tuple(tuple(row) for row in status),
        witnesses=tuple(sorted(witnesses.items())),
        tau=sum(row.count(FREE) for row in status),
        count=None,
        nodes=0,
        pinned=frozenset((r, c) for r in range(n) for c in range(n)
                         if status[r][c] == PINNED),
        partial=False,
    )


def check_squares(ctx: Context, results: dict, refs: dict) -> Tally:
    tally = Tally()
    for key, res in results.items():
        tally.add(_check_square(ctx, key, res, refs))
    return tally


def _check_square(ctx: Context, key, res: SquareResult, refs: dict) -> Tally:
    family, n = key
    sq = ctx.squares[key]
    label = f"{family}{n}"
    tally = Tally()
    wit = dict(res.witnesses)
    claimed = ctx.pinned.get(key)
    exact = ctx.raw.get(key)
    for r in range(n):
        for c in range(n):
            st = res.status[r][c]
            w = wit.get((r, c))
            if st == FREE:
                ok = w is None
            elif st in (COVERED, PINNED):
                ok = w is not None and w[r] == c and is_transversal(sq, w)
            else:
                ok = False
            if st == PINNED and claimed is not None:
                ok = ok and (r, c) in claimed
            if exact is not None:
                ok = ok and st == exact[0][r][c]
            tally.verdict(ok, f"{label} cell ({r},{c}) {st}")
    tally.verdict(not res.partial, f"{label} complete")
    if exact is not None:
        tau_ref = sum(row.count(FREE) for row in exact[0])
    else:
        tau_ref = refs["tau"][key]
    tally.verdict(res.tau == tau_ref, f"{label} tau {res.tau} vs {tau_ref}")
    if claimed is not None:
        tally.verdict(res.pinned == claimed and len(claimed) == n // 6,
                      f"{label} pinned cells {sorted(res.pinned)}")
    if res.count is not None:
        count_ref = exact[1] if exact is not None else refs["count"][key]
        tally.verdict(res.count == count_ref, f"{label} count {res.count} vs {count_ref}")
    if key in refs["nodes"] and res.count is not None:
        tally.verdict(res.nodes == refs["nodes"][key],
                      f"{label} nodes {res.nodes} vs {refs['nodes'][key]}")
    if family == "EX8":
        tally.notes.append(
            f"known discrepancy EX8: claimed tau {refs['ex8_claimed_tau']}, computed "
            f"{res.tau}, raw permutation scan {tau_ref}; not counted as a failure")
    return tally


# --- certify --------------------------------------------------------------------

def certify_pass(ctx: Context, items, tr=None) -> dict:
    out = {}
    for item in items:
        with _span(tr, "bench.input"):
            kind = item[0]
            if kind == "order":
                out[item] = _certify_order(ctx, item[1], item[2], tr)
            elif kind == "blocks":
                out[item] = _certify_blocks(item[2], tr)
            else:
                with _span(tr, "blocks.theorem"):
                    th = blocks.verify_hit_theorem(item[2])
                out[item] = th.to_json_dict()
    return out


def _certify_order(ctx: Context, family: str, n: int, tr) -> dict:
    with _span(tr, "families.build"):
        sq = families.build_family(family, n)
    with _span(tr, "families.witness"):
        wit = families.witness_transversal(family, n)
    with _span(tr, "core.is_transversal"):
        wit_ok = is_transversal(sq, wit)
    with _span(tr, "delta.certificate"):
        cert = delta_mod.forced_entry_certificate(sq)
    buf = io.StringIO()
    with _span(tr, "cli.main"), contextlib.redirect_stdout(buf):
        rc = cli.main(["bounds", "--family", family, "--order", str(n),
                       "--sets-only", "--no-meta"])
    text = buf.getvalue()
    if tr is not None:
        with tr.span("bounds.sets"):
            check = bounds.check_sets_only(family, n)
        tr.count(union_cells=check.union_size, cli_bytes=len(text.encode()))
    pinned = None
    if n <= PINNED_MAX_ORDER:
        pinned = [_is_pinned(ctx.squares[(family, n)], e, tr) for e in cert.forced]
    return {
        "latin": is_latin(sq.grid, n), "order": sq.order, "family": sq.family,
        "witness_ok": wit_ok,
        "cert_valid": cert.valid, "forced": len(cert.forced), "max_sum": cert.max_sum,
        "cli_rc": rc, "cli": json.loads(text) if rc == 0 else None,
        "pinned": pinned,
    }


def _is_pinned(sq, entry, tr) -> bool:
    if tr is None:
        return engine.is_pinned(sq, entry)
    # is_pinned is one unconstrained find and one find that avoids the cell.
    with tr.span("delta.grid"):
        delta_mod.delta_grid(sq)
    if _find(tr, sq, SearchConstraints.make()) is None:
        return False
    return _find(tr, sq, SearchConstraints.make(forbidden_cells=((entry.row, entry.col),))) is None


def _certify_blocks(m: int, tr) -> dict:
    with _span(tr, "families.build"):
        sq = families.build_L(m)
    with _span(tr, "blocks.maps"):
        tau_ok = blocks.verify_block_maps(sq, blocks.automorphism_tau(m), m,
                                          REFERENCE["tau_block_map"])
        phi_ok = blocks.verify_block_maps(sq, blocks.autotopism_phi(m), m,
                                          REFERENCE["phi_block_map"])
    return {"latin": is_latin(sq.grid, 3 * m), "order": sq.order,
            "tau_ok": tau_ok, "phi_ok": phi_ok}


def check_certify(ctx: Context, results: dict, refs: dict) -> Tally:
    tally = Tally()
    for (kind, family, n), obs in results.items():
        label = f"{family}{n}"
        if kind == "order":
            tally.verdict(obs["latin"] and obs["order"] == n and obs["family"] == family,
                          f"{label} construction")
            tally.verdict(obs["witness_ok"], f"{label} witness transversal")
            tally.verdict(obs["cert_valid"] and obs["forced"] == n // 6
                          and obs["max_sum"] == n // 2, f"{label} forced-entry certificate")
            bound = closed_form(family, n)
            want = int(bound) if bound.denominator == 1 else float(bound)
            out = obs["cli"] or {}
            tally.verdict(obs["cli_rc"] == 0 and out.get("family") == family
                          and out.get("n") == n and out.get("formulaValue") == want
                          and out.get("unionSize", -1) >= math.ceil(bound)
                          and refs["lower"].get(n, math.ceil(bound)) == math.ceil(bound),
                          f"{label} bound sets {out}")
            for i, ok in enumerate(obs["pinned"] or ()):
                tally.verdict(ok, f"{label} certified cell {i} pinned")
        elif kind == "blocks":
            tally.verdict(obs["latin"] and obs["order"] == 3 * n, f"L{3 * n} construction")
            tally.verdict(obs["tau_ok"], f"L{3 * n} tau block map")
            tally.verdict(obs["phi_ok"], f"L{3 * n} phi block map")
        else:
            tally.verdict(obs["pass"] and obs["block22OK"] and obs["block11OK"]
                          and obs["minBlockHits"] == refs["l9_min_block_hits"],
                          f"block-hit theorem m={n}")
            tally.verdict(obs["transversalCount"] == refs["l9_transversals"],
                          f"L{3 * n} transversal count {obs['transversalCount']}")
    return tally


@dataclass(frozen=True)
class Workload:
    inputs: tuple
    run_pass: Callable
    check: Callable


WORKLOADS = {
    "enumerate": Workload(ENUMERATE_INPUTS, enumerate_pass, check_squares),
    "percell": Workload(PERCELL_INPUTS, percell_pass, check_squares),
    "certify": Workload(CERTIFY_INPUTS, certify_pass, check_certify),
}


def reference() -> dict:
    """A private copy of the references, so a caller may alter one."""
    return copy.deepcopy(REFERENCE)
