"""Compiled depth-first search kernel, built from ``_kernel.c`` on first use.

The library has two entry points over one search: ``dfs``, wrapped by `run`,
runs one search over prepared candidates and returns its first solution,
solution count and node count; ``search_cells``, wrapped by
`run_cells`, runs per-cell classification's first-hit searches for a whole
batch of cells, filtering the square's candidates for each cell itself.
``dfs`` tallies nothing per cell: classification takes every status and
witness from ``search_cells``.

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
    lib.dfs.argtypes = [_PTR, _PTR, _PTR, _PTR] + [_I64] * 6 + [_PTR] * 2
    lib.dfs.restype = _I64
    lib.search_cells.argtypes = [_PTR, _I64, _PTR, _I64, _I64, _I64] + [_PTR] * 7
    lib.search_cells.restype = None
    return lib


def run(prep, *, prune: bool, budget: int | None, enumerate_all: bool):
    """One kernel search over an ``engine._Prepared`` search's candidates.

    ``prep.cand`` is (k, 3) int64 of (col, sym, delta), row after row, and
    row r is ``prep.cand[prep.row_start[r]:prep.row_start[r + 1]]``; the
    kernel works out the target residue from ``prep.n``.  Returns (status,
    count, nodes, first_cols) with status 1 when at least one solution was
    found, 0 when the space was exhausted empty, and -1 when the node budget
    ran out (count and nodes are still valid for the explored prefix).  The
    caller has checked that `load` returns the kernel.
    """
    n = prep.n
    if not 1 <= n <= MAX_KERNEL_ORDER:
        raise ValueError(f"kernel order must be in 1..{MAX_KERNEL_ORDER}, got {n}")
    for arr, shape in ((prep.cand, (int(prep.row_start[-1]), 3)), (prep.row_start, (n + 1,)),
                       (prep.lo_suf, (n + 1,)), (prep.hi_suf, (n + 1,))):
        if arr.dtype != np.int64 or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(f"kernel input must be C-contiguous int64 of shape {shape}")
    totals = np.zeros(2 + n, np.int64)  # count, nodes, then first_cols
    first_cols = totals[2:]
    status = load().dfs(prep.cand.ctypes.data, prep.row_start.ctypes.data,
                        prep.lo_suf.ctypes.data, prep.hi_suf.ctypes.data, n, prep.use_syms,
                        prep.sd_final, prune, -1 if budget is None else budget,
                        enumerate_all, first_cols.ctypes.data, totals.ctypes.data)
    count, nodes = totals[:2].tolist()
    return status, count, nodes, first_cols


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
