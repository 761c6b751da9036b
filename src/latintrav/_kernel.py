"""Compiled depth-first search kernel, built from ``_kernel.c`` on first use.

The library has one entry point, ``search``, wrapped by `run`.  One call runs
a batch of transversal searches over one square: it checks the square's own
(n, n) arrays, the int64 symbols and the int8 deltas (the cached
``delta_grid``, read where it is, with no conversion or copy), and builds its
symbol tables once, and each search of the batch walks its own candidate mask
per row.  It has no search mode: ``engine._Prepared`` passes `to_array` for a
transversal search and the column-index grid (``sym[r, c] = c``) for a
suitable-diagonal search, whose symbol test is then the column test.  It
returns every search's status, count, nodes and first-hit columns in one
array.  ``engine._run`` passes one search's masks (``engine._Prepared``'s
rows) for `engine.find` and full enumeration, and a batch of per-cell masks
(``engine._cell_rows``) for each phase of per-cell classification and for
`engine.pinned_verdicts`.  The kernel tallies nothing per cell.

A call runs on every CPU in the process's affinity mask (`cpu_count`), which
``taskset`` narrows; `run` is the one place a thread count is resolved, and no
caller passes one.  A batch of one full enumeration walks the tree down to a
split depth read from the tree and hands the subtrees below it to threads,
which add their nodes to one shared pool and stop once it is over the budget.
That gives the one-thread walk's status and nodes for every budget, and its
count and nodes when it finishes.  In any other batch the threads take
searches from one shared counter until none is left, each search on one thread.
Besides the calling thread, a call runs on helper threads that the first
threaded call creates and that then wait, parked, between calls, so a small
batch pays no thread start-up; no work is left in them when a call returns.
A call that finds them busy with another (two Python threads, since ctypes
releases the GIL) runs on its own thread alone, and a forked child starts its
own helpers.

The C kernel and the pure-python twin ``engine._twin_run``, which takes `run`'s
arguments and returns its arrays, must stay behaviourally identical: same
candidate order (rows ascending, columns ascending within a row), same pruning
rules, same node accounting (one node per candidate index visited).  Both
always drop a candidate whose delta sum can no longer reach the target residue,
and a first-hit search (``enumerate_all`` False) also drops one whose placement
leaves a later row with no free column (forward checking); a full enumeration
walks the tree of the delta prune alone, so its node totals do not move.  The
unpruned walk exists only in the twin (``engine._iter_cols``).  The kernel does
not visit the candidates one by one: it keeps, per depth, a table of every
later row's columns whose column and symbol are unused, updated as each row is
placed, and walks the entered row's mask from that table, adding the index
distance of each jump to the node count, so every status and node total is the
twin's for every budget (budget + 1 when it runs out).  Symbols and deltas are
read by (row, column) from byte arrays.  The
delta sum is kept modulo n, which needs every delta to lie in (-n, n).  The
suite tests the equivalence with the pure twin as the oracle.  Every row
mask the kernel walks comes from ``engine._cell_rows``, the engine's one
candidate filter.

When the kernel loads, ``engine._run`` sends here every first-hit search and
full enumeration of order at most ``MAX_KERNEL_ORDER``; lazy enumeration
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
    """The compiled library, ``search`` typed, built on first call; else None."""
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
    lib.search.argtypes = [_PTR, _PTR, _I64, _PTR] + [_I64] * 4 + [_PTR]
    lib.search.restype = _I64
    return lib


def cpu_count() -> int:
    """The CPUs this process may run on: the thread count of every `run`."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _check(arr: np.ndarray, dtype: type, shape: tuple[int, ...]) -> None:
    if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
        raise ValueError(f"kernel input must be C-contiguous {np.dtype(dtype)} of shape {shape}")


def run(sym: np.ndarray, delta: np.ndarray, rows: np.ndarray, *, budget: int | None,
        enumerate_all: bool):
    """A batch of kernel searches over one square, search j over the masks ``rows[j]``.

    ``sym`` is an (n, n) int64 symbol array (the square's, or the column-index
    grid), ``delta`` the square's (n, n) int8 delta array (``delta_grid`` caches int8 at every kernel order), and
    ``rows`` a (k, n) int64 array: ``rows[j, r]`` holds search j's candidate
    columns of row r as bits.  A solution has distinct columns and symbols and a
    delta sum at the target residue, which the kernel works out from n; over the
    column-index grid it is a suitable diagonal.  Every search prunes; only the
    twin walks unpruned.
    Returns (status, count, nodes, cols), views of one (k, n + 3) array:
    for each search status 1 when it found at least one solution, 0 when
    the space was exhausted empty (with 0 nodes when a row has no
    candidates), and -1 when the node budget ran out (nodes is then
    budget + 1, and count means nothing); ``cols[j]`` holds the solution of
    a first-hit search with status 1 and is not written otherwise.
    A batch of one full enumeration runs on `cpu_count` threads, with the
    same status and nodes on any number, and the same count when it
    finishes; in any other batch min(`cpu_count`, k) threads take the
    searches from one shared counter, one thread per search, which changes
    no result.
    Raises ValueError when an array has another dtype or shape or is not
    C-contiguous, when a value breaks the kernel's layout (each symbol in
    0..n-1, each delta in (-n, n)), or when a row mask has a column outside
    0..n-1.  The caller has checked that `load` returns the kernel.
    """
    n = sym.shape[0]
    if not 1 <= n <= MAX_KERNEL_ORDER:
        raise ValueError(f"kernel order must be in 1..{MAX_KERNEL_ORDER}, got {n}")
    _check(sym, np.int64, (n, n))
    _check(delta, np.int8, (n, n))
    k = len(rows)
    _check(rows, np.int64, (k, n))
    out = np.empty((k, n + 3), np.int64)
    if load().search(sym.ctypes.data, delta.ctypes.data, n, rows.ctypes.data, k,
                     -1 if budget is None else budget, enumerate_all, cpu_count(),
                     out.ctypes.data) == -2:
        raise ValueError("kernel square must hold symbols in 0..n-1 and deltas in (-n, n), "
                         "and row masks only columns in 0..n-1")
    return out[:, 0], out[:, 1], out[:, 2], out[:, 3:]
