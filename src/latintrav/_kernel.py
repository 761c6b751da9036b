"""Compiled depth-first search kernel (numba), mirrored by engine._iter_cols.

The kernel and the pure-python generator must stay behaviourally identical:
same candidate order (rows ascending, columns ascending within a row), same
pruning rule, same node accounting (one node per candidate index visited).
Equivalence is property-tested in the suite.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is the optional [numba] extra; the engine runs the pure twin
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore
        def wrap(fn):
            return fn

        return wrap


# Column masks are machine words; anything larger goes to the pure path.
MAX_KERNEL_ORDER = 62

BIG = np.int64(1) << 62


@njit(cache=True)
def dfs(cand_col, cand_sym, cand_d, cand_len, lo_suf, hi_suf,
        n, target, use_syms, sd_final, prune, budget,
        enumerate_all, block_m, want_cover,
        first_cols, cover, witness, witness_have, sol):
    """Iterative DFS over rows 0..n-1.

    Returns (status, count, nodes, min_block_hits) with status 1 when at
    least one solution was found, 0 when the space was exhausted empty, and
    -1 when the node budget ran out (partial aggregates are still valid for
    the explored prefix).
    """
    idx = np.zeros(n + 1, np.int64)
    ucols = np.zeros(n + 1, np.int64)
    usyms = np.zeros(n + 1, np.int64)
    dsum = np.zeros(n + 1, np.int64)
    x = np.zeros(9, np.int64)
    depth = 0
    nodes = np.int64(0)
    count = np.int64(0)
    min_block = BIG
    if prune == 1 and lo_suf[0] + ((target - lo_suf[0]) % n) > hi_suf[0]:
        return (0, count, nodes, min_block)  # unreachable from the root
    while depth >= 0:
        if depth == n:
            ok = True
            if sd_final == 1:
                ok = dsum[n] % n == target
            if ok:
                count += 1
                if count == 1:
                    for r in range(n):
                        first_cols[r] = sol[r]
                if enumerate_all == 0:
                    return (1, count, nodes, min_block)
                if want_cover == 1:
                    for r in range(n):
                        c = sol[r]
                        cover[r, c] += 1
                        cell = r * n + c
                        if witness_have[cell] == 0:
                            witness_have[cell] = 1
                            for r2 in range(n):
                                witness[cell, r2] = sol[r2]
                if block_m > 0:
                    for t in range(9):
                        x[t] = 0
                    for r in range(n):
                        x[(r // block_m) * 3 + sol[r] // block_m] += 1
                    mn = x[0]
                    for t in range(1, 9):
                        if x[t] < mn:
                            mn = x[t]
                    if mn < min_block:
                        min_block = mn
            depth -= 1
            continue
        i = idx[depth]
        length = cand_len[depth]
        uc = ucols[depth]
        us = usyms[depth]
        ds = dsum[depth]
        moved = False
        while i < length:
            nodes += 1
            if budget >= 0 and nodes > budget:
                return (-1, count, nodes, min_block)
            c = cand_col[depth, i]
            s = cand_sym[depth, i]
            d = cand_d[depth, i]
            i += 1
            if (uc >> c) & 1 == 1:
                continue
            if use_syms == 1 and (us >> s) & 1 == 1:
                continue
            nd = ds + d
            if prune == 1:
                lo = nd + lo_suf[depth + 1]
                hi = nd + hi_suf[depth + 1]
                if lo + ((target - lo) % n) > hi:
                    continue
            idx[depth] = i
            sol[depth] = c
            ucols[depth + 1] = uc | (np.int64(1) << c)
            if use_syms == 1:
                usyms[depth + 1] = us | (np.int64(1) << s)
            else:
                usyms[depth + 1] = us
            dsum[depth + 1] = nd
            depth += 1
            idx[depth] = 0
            moved = True
            break
        if not moved:
            idx[depth] = i
            depth -= 1
    status = 1 if count > 0 else 0
    return (status, count, nodes, min_block)
