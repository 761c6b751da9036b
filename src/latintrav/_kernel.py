"""Compiled depth-first search kernel, built from ``_kernel.c`` on first use.

The library has two entry points over one search, both taking the square's
(n, n, 3) base table, whose symbol and delta tables each call builds and
checks once.  ``dfs``, wrapped by `run`, runs one search over one candidate
mask per row and returns its status and node count, plus the solution of a
first-hit search or the solution count of a full enumeration;
``search_cells``, wrapped by `run_cells`, runs per-cell classification's
first-hit searches for a whole batch of cells, each setting only its own
row masks.  ``dfs`` tallies nothing per cell: classification takes every
status and witness from ``search_cells``.

Both run on every CPU in the process's affinity mask unless told otherwise
(`cpu_count`).  A full enumeration walks the tree down to a split depth read
from the tree and hands the subtrees below it to threads, which add their
nodes to one shared pool and stop once it is over the budget.  That gives
the one-thread walk's status and nodes for every budget, and its count and
nodes when it finishes.  First-hit searches run on one thread, and
``search_cells`` strides its cells across the threads.  The threads are
created and joined inside each call, so nothing outlives it or a fork.

The C kernel and the pure-python generator ``engine._iter_cols`` must stay
behaviourally identical: same candidate order (rows ascending, columns
ascending within a row), same pruning rule, same node accounting (one node per
candidate index visited).  The kernel does not visit the candidates one by
one: it keeps, per depth, a table of every later row's columns whose column
and symbol are still unused, updated as each row is placed, and walks the
entered row's mask from that table, adding the index distance of each jump
to the node count, so every status and node total is the twin's for every
budget (budget + 1 when it runs out).  Symbols and deltas are read by (row,
column) from byte tables.  The delta sum is kept modulo n, which needs every
delta to lie in (-n, n).
``search_cells``'s per-cell row masks must also filter exactly as
``engine._Prepared`` does.  Equivalence is tested in the suite, with the
pure twin as the oracle.

When the kernel loads, the engine runs here every first-hit search and full
enumeration of order at most ``MAX_KERNEL_ORDER``; lazy enumeration
(``engine.iter_solutions``) and larger orders run on the pure twin, single
threaded (the engine logs the larger orders once per process).  The first
such search compiles ``_kernel.c`` with the C compiler Python was built with
(``sysconfig`` ``CC``) and `CFLAGS` into ``__pycache__/`` beside this module.
The library's name carries a checksum of the C source, so a stale build is
never loaded, and it is written under a temporary name and moved into place,
so concurrent processes cannot see a partial file; a successful build
removes the libraries earlier sources left in the cache.  Without a
compiler, a writable cache or a successful build, `load` logs one warning and
returns None, and every search runs on the pure twin.
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

# Flags of every build of _kernel.c; the suite compiles with these plus warnings.
CFLAGS = ("-O2", "-shared", "-fPIC", "-pthread")

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
        subprocess.run([*cc, *CFLAGS, "-x", "c", "-", "-o", tmp],
                       input=source, capture_output=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _remove_stale(path)


def _remove_stale(path: Path) -> None:
    """Delete the libraries of other sources beside ``path``; another build's ``.tmp`` stays."""
    for stale in path.parent.glob(f"_kernel-*{path.suffix}"):
        if stale != path:
            stale.unlink(missing_ok=True)  # another process may have removed it first


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
    lib.dfs.argtypes = [_PTR, _I64, _PTR] + [_I64] * 6 + [_PTR] * 2
    lib.dfs.restype = _I64
    lib.search_cells.argtypes = [_PTR, _I64, _PTR, _I64, _I64, _I64, _I64] + [_PTR] * 3
    lib.search_cells.restype = _I64
    return lib


def cpu_count() -> int:
    """The CPUs this process may run on: the default thread count of `run` and `run_cells`."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _threads(threads: int | None) -> int:
    if threads is None:
        return cpu_count()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads


_BASE_LAYOUT = "kernel base must hold column c at cell (r, c), symbols in 0..n-1 and " \
               "deltas in (-n, n)"


def _check(arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.dtype != np.int64 or arr.shape != shape or not arr.flags.c_contiguous:
        raise ValueError(f"kernel input must be C-contiguous int64 of shape {shape}")


def _check_base(base: np.ndarray) -> int:
    """The order of ``base``, after checking it and the table's shape, dtype and contiguity."""
    n = base.shape[0]
    if not 1 <= n <= MAX_KERNEL_ORDER:
        raise ValueError(f"kernel order must be in 1..{MAX_KERNEL_ORDER}, got {n}")
    _check(base, (n, n, 3))
    return n


def run(prep, *, prune: bool, budget: int | None, enumerate_all: bool,
        threads: int | None = None):
    """One kernel search over an ``engine._Prepared`` search's row masks.

    ``prep.base`` is the square's (n, n, 3) int64 array of (col, sym, delta)
    and ``prep.rows`` the (n,) int64 masks of each row's candidate columns;
    the kernel works out the target residue from n.  Returns (status,
    count, nodes, first_cols) with status 1 when at least one solution was
    found, 0 when the space was exhausted empty (with 0 nodes when a row has
    no candidates), and -1 when the node budget ran out (nodes is then
    budget + 1, and count means nothing).
    ``first_cols`` holds the solution of a first-hit search with status 1
    and is not written otherwise.  A full enumeration runs on ``threads``
    threads (default `cpu_count`), with the same status and nodes on any
    number, and the same count when it finishes; a first-hit search runs on
    one.
    Raises ValueError when the base table breaks the layout `run_cells`
    checks or a row mask has a column outside 0..n-1.  The caller has
    checked that `load` returns the kernel.
    """
    n = _check_base(prep.base)
    _check(prep.rows, (n,))
    threads = _threads(threads)
    totals = np.zeros(2 + n, np.int64)  # count, nodes, then first_cols
    first_cols = totals[2:]
    status = load().dfs(prep.base.ctypes.data, n, prep.rows.ctypes.data, prep.use_syms,
                        prep.sd_final, prune, -1 if budget is None else budget,
                        enumerate_all, threads, first_cols.ctypes.data, totals.ctypes.data)
    if status == -2:
        raise ValueError(f"{_BASE_LAYOUT}, and row masks columns in 0..n-1")
    count, nodes = totals[:2].tolist()
    return status, count, nodes, first_cols


def run_cells(base: np.ndarray, cells: np.ndarray, avoid: bool, budget: int | None, *,
              threads: int | None = None):
    """First-hit transversal searches through, or with ``avoid`` avoiding, each cell.

    ``base`` is the square's (n, n, 3) int64 array of (col, sym, delta) and
    ``cells`` a (k, 2) int64 array of (row, col).  Every search prunes and
    stops at ``budget`` nodes, as `run` does; the cells are shared out over
    ``threads`` threads (default `cpu_count`), which changes no result.
    Returns (status, nodes, cols): for each cell the status of `run`, the
    nodes visited, and in ``cols[i]`` the columns of the first solution,
    valid only where the status is 1.  Raises ValueError when ``base`` is
    outside the kernel's layout (cell (r, c) must hold column c, a symbol in
    0..n-1 and a delta in (-n, n)), which the kernel checks once per call.
    The caller has checked that `load` returns the kernel.
    """
    n = _check_base(base)
    _check(cells, (len(cells), 2))
    if ((cells < 0) | (cells >= n)).any():
        raise ValueError(f"cells must lie in 0..{n - 1}")
    threads = _threads(threads)
    k = len(cells)
    status = np.empty(k, np.int64)
    nodes = np.empty(k, np.int64)
    cols = np.empty((k, n), np.int64)
    if load().search_cells(base.ctypes.data, n, cells.ctypes.data, k, avoid,
                           -1 if budget is None else budget, threads,
                           status.ctypes.data, nodes.ctypes.data, cols.ctypes.data) == -2:
        raise ValueError(_BASE_LAYOUT)
    return status, nodes, cols
