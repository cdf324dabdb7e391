"""Native coherence kernel: build, load, and drive ``_kernel.c``.

The protocol hot loop (:meth:`repro.sim.coherence.CoherenceSim._access_block`
over the columnar events of :mod:`repro.sim.events`) is ported to C and
compiled **on demand** with the system C compiler into a cached shared
object — no new Python dependencies, and the image's toolchain (``cc``)
is all it needs.  The pure-Python :class:`~repro.sim.coherence.CoherenceSim`
stays the always-available reference path; the kernel must match it
bit-for-bit (``tests/test_kernel.py``, CI's ``kernel-smoke`` job).

Selection — ``REPRO_SIM_KERNEL``:

``auto`` (default)
    Use the native kernel when it can be built/loaded *and* the inputs
    fit its envelope; fall back to Python silently otherwise.
``native``
    Require the native kernel; raise :class:`~repro.errors.SimulationError`
    if it cannot be built or an input exceeds the envelope.
``python``
    Never compile or load the kernel (the reference fallback, and the
    CI leg that keeps it from rotting).

Both protocols :class:`~repro.sim.cache.CacheConfig` names run here:
MSI, and MESI when ``config.protocol == "mesi"`` (the ``mesi`` flag of
``sim_new``).

Envelope (checked per chunk, cheap vectorized ``min``/``max``):

* block-invalidate mode only — ``word_invalidate=True`` always runs on
  the Python core;
* processor ids in ``[-1, 62]`` (64-bit sharer masks, bit = pid + 1);
* block numbers in ``[0, 2**50)`` (packed hash keys).

The compiled ``.so`` is cached under ``~/.cache/repro/kernel/`` (or
``$REPRO_KERNEL_CACHE``) keyed by a hash of the C source, so one build
serves every process; concurrent builders race benignly through a
temp-file + :func:`os.replace` rename.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro import perf
from repro.errors import SimulationError
from repro.sim.coherence import (
    BlockMisses, FSPairs, MissCounts, PerProcCounts, SimResult, canonical_rows,
)

log = logging.getLogger("repro.sim.kernel")

#: Environment knob naming the protocol kernel to use.
KERNEL_ENV = "REPRO_SIM_KERNEL"
#: Override the shared-object cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"
#: Override the compiler executable (default: $CC, then cc, then gcc).
CC_ENV = "CC"

NATIVE = "native"
PYTHON = "python"
AUTO = "auto"

_MODES = (NATIVE, PYTHON, AUTO)

#: Kernel envelope limits (keep in sync with _kernel.c).
MAX_PROC = 62
MIN_PROC = -1
MAX_BLOCK = 1 << 50

_RUN_ERRORS = {
    -1: "native kernel ran out of memory",
    -2: f"processor id outside [{MIN_PROC}, {MAX_PROC}]",
    -3: f"block number outside [0, 2**50)",
}

#: memoized (lib | None); None means "tried and failed"
_lib: ctypes.CDLL | None = None
_load_attempted = False

_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U8P = ctypes.POINTER(ctypes.c_uint8)

_MAX_PROCS_ROWS = 64  # counts matrix rows in the C kernel


def kernel_mode() -> str:
    """The mode requested via ``REPRO_SIM_KERNEL`` (default: auto)."""
    raw = os.environ.get(KERNEL_ENV, AUTO).strip().lower() or AUTO
    if raw not in _MODES:
        raise SimulationError(
            f"{KERNEL_ENV} must be one of {', '.join(_MODES)}; got {raw!r}"
        )
    return raw


def active_kernel() -> str:
    """Resolve the mode to the kernel that will actually run
    (``native`` or ``python``)."""
    mode = kernel_mode()
    if mode == PYTHON:
        return PYTHON
    if load_kernel() is not None:
        return NATIVE
    if mode == NATIVE:
        raise SimulationError(
            "REPRO_SIM_KERNEL=native but the native kernel is unavailable "
            "(no C compiler, or the build failed — see the repro.sim.kernel "
            "log); set REPRO_SIM_KERNEL=python or auto to fall back"
        )
    return PYTHON


def _cache_dir() -> Path:
    raw = os.environ.get(CACHE_ENV)
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "repro" / "kernel"


def _compiler() -> str | None:
    for cand in (os.environ.get(CC_ENV), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _source_path() -> Path:
    return Path(__file__).with_name("_kernel.c")


def _build(src: Path, out: Path) -> bool:
    """Compile the kernel into ``out``; False (with a log line) on any
    failure — callers fall back to the Python core."""
    cc = _compiler()
    if cc is None:
        log.info("no C compiler found; using the Python protocol core")
        return False
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    cmd = [cc, "-O2", "-std=c99", "-shared", "-fPIC", str(src), "-o", tmp]
    try:
        with perf.timer("kernel.build"):
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        if proc.returncode != 0:
            log.warning(
                "native kernel build failed (%s): %s",
                " ".join(cmd), proc.stderr.strip()[:2000],
            )
            return False
        os.replace(tmp, out)
        perf.add("kernel.built")
        return True
    except (OSError, subprocess.SubprocessError) as e:
        log.warning("native kernel build failed: %s: %s", type(e).__name__, e)
        return False
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def load_kernel() -> ctypes.CDLL | None:
    """Build (if needed) and load the native kernel, memoized per
    process.  Returns None when unavailable (mode ``python``, no
    compiler, or a failed build/load)."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if kernel_mode() == PYTHON:
        return None
    src = _source_path()
    try:
        text = src.read_bytes()
    except OSError as e:
        log.warning("kernel source unreadable: %s", e)
        return None
    tag = hashlib.sha1(text).hexdigest()[:16]
    so = _cache_dir() / f"repro_kernel_{tag}.so"
    if not so.exists() and not _build(src, so):
        return None
    try:
        lib = ctypes.CDLL(str(so))
    except OSError as e:
        log.warning("native kernel load failed: %s", e)
        try:
            so.unlink()  # a corrupt artifact should not poison every run
        except OSError:
            pass
        return None
    lib.sim_new.restype = ctypes.c_void_p
    lib.sim_new.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int]
    lib.sim_free.restype = None
    lib.sim_free.argtypes = [ctypes.c_void_p]
    lib.sim_run.restype = ctypes.c_int
    lib.sim_run.argtypes = [
        ctypes.c_void_p, ctypes.c_int64,
        _I64P, _I64P, _I64P, _I64P, _U8P, _I64P,
    ]
    lib.sim_stats.restype = None
    lib.sim_stats.argtypes = [ctypes.c_void_p, _I64P]
    lib.sim_counts.restype = None
    lib.sim_counts.argtypes = [ctypes.c_void_p, _I64P, _I32P]
    lib.sim_export_blocks.restype = None
    lib.sim_export_blocks.argtypes = [ctypes.c_void_p, _I64P, _I64P, _I64P]
    lib.sim_export_pairs.restype = None
    lib.sim_export_pairs.argtypes = [ctypes.c_void_p, _I64P, _I32P, _I32P, _I64P]
    _lib = lib
    return _lib


def reset_for_tests() -> None:
    """Forget the memoized load so tests can flip ``REPRO_SIM_KERNEL``."""
    global _lib, _load_attempted
    _lib = None
    _load_attempted = False


def chunk_fits(proc: np.ndarray, block: np.ndarray) -> bool:
    """True when one event chunk lies inside the kernel envelope."""
    if len(proc) == 0:
        return True
    return bool(
        proc.min() >= MIN_PROC
        and proc.max() <= MAX_PROC
        and block.min() >= 0
        and block.max() < MAX_BLOCK
    )


def _as_i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


class NativeSim:
    """One native simulation: state carries over between
    :meth:`consume` calls, so a phase-by-phase feed and a monolithic
    one produce identical results.

    Raises :class:`~repro.errors.SimulationError` when a chunk leaves
    the kernel envelope — a caller feeding several chunks cannot
    silently switch cores mid-run, so ``auto`` mode checks eligibility
    *before* constructing one of these (see :mod:`repro.sim.engine`).
    """

    __slots__ = ("_lib", "_handle", "nprocs", "config")

    def __init__(self, nprocs: int, config):
        lib = load_kernel()
        if lib is None:
            raise SimulationError("native kernel unavailable")
        self._lib = lib
        self.nprocs = nprocs
        self.config = config
        self._handle = lib.sim_new(
            config.n_sets, config.assoc, int(config.protocol == "mesi")
        )
        if not self._handle:
            raise SimulationError("native kernel allocation failed")

    def consume(self, events) -> None:
        """Feed one :class:`~repro.sim.events.EventStream` chunk."""
        n = len(events)
        if n == 0:
            return
        proc = _as_i64(events.proc)
        block = _as_i64(events.block)
        if not chunk_fits(proc, block):
            raise SimulationError(
                "event chunk exceeds the native kernel envelope "
                f"(procs in [{MIN_PROC}, {MAX_PROC}], blocks < 2**50); "
                "set REPRO_SIM_KERNEL=python for this workload"
            )
        w_lo = _as_i64(events.w_lo)
        w_hi = _as_i64(events.w_hi)
        is_write = np.ascontiguousarray(events.is_write, dtype=np.uint8)
        repeat = _as_i64(events.repeat)
        perf.add("sim.native.events", n)
        rc = self._lib.sim_run(
            self._handle, n,
            proc.ctypes.data_as(_I64P),
            block.ctypes.data_as(_I64P),
            w_lo.ctypes.data_as(_I64P),
            w_hi.ctypes.data_as(_I64P),
            is_write.ctypes.data_as(_U8P),
            repeat.ctypes.data_as(_I64P),
        )
        if rc != 0:
            raise SimulationError(
                _RUN_ERRORS.get(rc, f"native kernel error {rc}")
            )

    def _stats(self) -> np.ndarray:
        stats = np.zeros(8, dtype=np.int64)
        self._lib.sim_stats(self._handle, stats.ctypes.data_as(_I64P))
        return stats

    def _export_blocks(self, nblocks: int):
        """Per-block ``(block, misses, false-sharing misses)`` columns."""
        blocks = np.zeros(nblocks, dtype=np.int64)
        miss = np.zeros(nblocks, dtype=np.int64)
        fs = np.zeros(nblocks, dtype=np.int64)
        if nblocks:
            self._lib.sim_export_blocks(
                self._handle,
                blocks.ctypes.data_as(_I64P),
                miss.ctypes.data_as(_I64P),
                fs.ctypes.data_as(_I64P),
            )
        return blocks, miss, fs

    def fs_snapshot(self) -> list[np.ndarray]:
        """The ``(block, false-sharing misses)`` columns so far, sorted
        by block (equal to the Python core's)."""
        blocks, _miss, fs = self._export_blocks(int(self._stats()[6]))
        return canonical_rows((blocks, fs), 1)

    def result(self, *, extra_refs: int = 0, sim_seconds: float = 0.0,
               engine: str = "fast"):
        """Materialize the accumulated state as a
        :class:`~repro.sim.coherence.SimResult`, equal to the Python
        core's column for column."""
        lib = self._lib
        refs, _time, invalidations, writebacks, upgrades, npids, nblocks, \
            npairs = (int(x) for x in self._stats())

        counts = np.zeros((_MAX_PROCS_ROWS, 4), dtype=np.int64)
        pids = np.zeros(_MAX_PROCS_ROWS, dtype=np.int32)
        lib.sim_counts(
            self._handle,
            counts.ctypes.data_as(_I64P),
            pids.ctypes.data_as(_I32P),
        )
        pids_seen = tuple(int(p) for p in pids[:npids])
        # Trim to the same row count the Python core would have grown to.
        rows = max(self.nprocs + 1, max((p + 2 for p in pids_seen), default=0))
        proc_counts = counts[: max(rows, 1)].copy()

        pb = np.zeros(npairs, dtype=np.int64)
        pby = np.zeros(npairs, dtype=np.int32)
        pproc = np.zeros(npairs, dtype=np.int32)
        pcount = np.zeros(npairs, dtype=np.int64)
        if npairs:
            lib.sim_export_pairs(
                self._handle,
                pb.ctypes.data_as(_I64P),
                pby.ctypes.data_as(_I32P),
                pproc.ctypes.data_as(_I32P),
                pcount.ctypes.data_as(_I64P),
            )

        total = proc_counts.sum(axis=0)
        return SimResult(
            config=self.config,
            nprocs=self.nprocs,
            refs=refs,
            misses=MissCounts(
                int(total[0]), int(total[1]), int(total[2]), int(total[3])
            ),
            invalidations=invalidations,
            writebacks=writebacks,
            upgrades=upgrades,
            per_proc=PerProcCounts(proc_counts, pids_seen),
            blocks=BlockMisses.of(*self._export_blocks(nblocks)),
            pairs=FSPairs.of(pb, pby, pproc, pcount),
            extra_refs=extra_refs,
            sim_seconds=sim_seconds,
            engine=engine,
            kernel=NATIVE,
        )

    def close(self) -> None:
        if self._handle:
            self._lib.sim_free(self._handle)
            self._handle = None

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
