"""Compiled depth-first search kernel, built from ``_kernel.c`` on first use.

The library has two entry points over one search: ``dfs``, wrapped by `run`,
runs one search over prepared candidates; ``search_cells``, wrapped by
`run_cells`, runs per-cell classification's first-hit searches for a whole
batch of cells, filtering the square's candidates for each cell itself.

The C kernel and the pure-python generator ``engine._iter_cols`` must stay
behaviourally identical: same candidate order (rows ascending, columns
ascending within a row), same pruning rule, same node accounting (one node per
candidate index visited).  ``search_cells`` must also filter exactly as
``engine._Prepared`` does.  Equivalence is tested in the suite, with the pure
twin as the oracle.

When the kernel loads, the engine runs here every first-hit search and full
enumeration of order at most ``MAX_KERNEL_ORDER``; lazy enumeration
(``engine.iter_solutions``) and larger orders run on the pure twin.  The first
such search compiles ``_kernel.c`` with the C compiler Python was built with
(``sysconfig`` ``CC``) into ``__pycache__/`` beside this module.  The
library's name carries a checksum of the C source, so a stale build is never
loaded, and it is written under a temporary name and moved into place, so
concurrent worker processes cannot see a partial file.  Without a compiler, a
writable cache or a successful build, `load` logs one warning and returns
None, and every search runs on the pure twin.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import shlex
import subprocess
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

# perfbench/workloads.py reads this at import to name the search path it reports.
HAVE_NUMBA = False

# Column masks are machine words; anything larger goes to the pure path.
MAX_KERNEL_ORDER = 62

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

log = logging.getLogger(__name__)


def library_path(source: bytes) -> Path:
    """Where the library built from these C source bytes lives.

    The name carries the source's CRC-32: numpy has already loaded zlib,
    while importing hashlib loads OpenSSL (3.6 MB more resident memory on
    CPython 3.11, Linux x86-64).
    """
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    return _CACHE_DIR / f"_kernel-{zlib.crc32(source):08x}{suffix}"


def _build(source: bytes, path: Path) -> None:
    """Compile ``source`` to the shared library ``path``; OSError or CalledProcessError on failure."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*cc, "-O2", "-shared", "-fPIC", "-x", "c", "-", "-o", tmp],
                       input=source, capture_output=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load():
    """The compiled library, ``dfs`` and ``search_cells`` typed, built on first call; else None."""
    try:
        source = _SOURCE.read_bytes()
        path = library_path(source)
        if not path.exists():
            _build(source, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode(errors="replace").strip() \
            if isinstance(exc, subprocess.CalledProcessError) else ""
        log.warning("C search kernel unavailable, searches run on the pure-Python twin: %s %s",
                    exc, detail)
        return None
    lib.dfs.argtypes = [_PTR, _PTR, _PTR, _PTR] + [_I64] * 9 + [_PTR] * 5
    lib.dfs.restype = _I64
    lib.search_cells.argtypes = [_PTR, _I64, _PTR, _I64, _I64, _I64] + [_PTR] * 7
    lib.search_cells.restype = None
    return lib


def run(cand: np.ndarray, row_start: np.ndarray, lo_suf: np.ndarray,
        hi_suf: np.ndarray, n: int, target: int, use_syms: bool, sd_final: bool,
        prune: bool, budget: int | None, enumerate_all: bool, block_m: int,
        want_cover: bool):
    """One kernel search.

    ``cand`` is (k, 3) int64 of (col, sym, delta), row after row, and row r
    is ``cand[row_start[r]:row_start[r + 1]]``.  Returns (status, count,
    nodes, min_block, first_cols, cover, witness, witness_have) with status
    1 when at least one solution was found, 0 when the space was exhausted
    empty, and -1 when the node budget ran out (partial aggregates are still
    valid for the explored prefix).  Without ``want_cover`` the last three
    are None.  The caller has checked that `load` returns the kernel.
    """
    if not 1 <= n <= MAX_KERNEL_ORDER:
        raise ValueError(f"kernel order must be in 1..{MAX_KERNEL_ORDER}, got {n}")
    for arr, shape in ((cand, (int(row_start[-1]), 3)), (row_start, (n + 1,)),
                       (lo_suf, (n + 1,)), (hi_suf, (n + 1,))):
        if arr.dtype != np.int64 or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(f"kernel input must be C-contiguous int64 of shape {shape}")
    totals = np.zeros(3 + n, np.int64)  # count, nodes, min_block, then first_cols
    first_cols = totals[3:]
    if want_cover:
        cover = np.zeros((n, n), np.int64)
        witness = np.zeros((n * n, n), np.int64)
        witness_have = np.zeros(n * n, np.int64)
        cover_ptrs = (cover.ctypes.data, witness.ctypes.data, witness_have.ctypes.data)
    else:
        cover = witness = witness_have = None
        cover_ptrs = (None, None, None)
    status = load().dfs(cand.ctypes.data, row_start.ctypes.data, lo_suf.ctypes.data,
                        hi_suf.ctypes.data, n, target, use_syms, sd_final, prune,
                        -1 if budget is None else budget, enumerate_all, block_m, want_cover,
                        first_cols.ctypes.data, *cover_ptrs, totals.ctypes.data)
    count, nodes, min_block = totals[:3].tolist()
    return status, count, nodes, min_block, first_cols, cover, witness, witness_have


def run_cells(base: np.ndarray, cells: np.ndarray, avoid: bool, budget: int | None):
    """First-hit transversal searches through, or with ``avoid`` avoiding, each cell.

    ``base`` is the square's (n, n, 3) int64 array of (col, sym, delta) and
    ``cells`` a (k, 2) int64 array of (row, col).  Every search prunes and
    stops at ``budget`` nodes, as `run` does.  Returns (status, nodes, cols):
    for each cell the status of `run`, the nodes visited, and in ``cols[i]``
    the columns of the first solution, valid only where the status is 1.
    The caller has checked that `load` returns the kernel.
    """
    n = base.shape[0]
    if not 1 <= n <= MAX_KERNEL_ORDER:
        raise ValueError(f"kernel order must be in 1..{MAX_KERNEL_ORDER}, got {n}")
    for arr, shape in ((base, (n, n, 3)), (cells, (len(cells), 2))):
        if arr.dtype != np.int64 or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(f"kernel input must be C-contiguous int64 of shape {shape}")
    if ((cells < 0) | (cells >= n)).any():
        raise ValueError(f"cells must lie in 0..{n - 1}")
    k = len(cells)
    status = np.empty(k, np.int64)
    nodes = np.empty(k, np.int64)
    cols = np.empty((k, n), np.int64)
    cand = np.empty(3 * n * n, np.int64)
    row_start, lo_suf, hi_suf = np.empty((3, n + 1), np.int64)
    load().search_cells(base.ctypes.data, n, cells.ctypes.data, k, avoid,
                        -1 if budget is None else budget, cand.ctypes.data,
                        row_start.ctypes.data, lo_suf.ctypes.data, hi_suf.ctypes.data,
                        status.ctypes.data, nodes.ctypes.data, cols.ctypes.data)
    return status, nodes, cols
