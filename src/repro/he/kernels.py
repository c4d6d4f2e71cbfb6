"""Runtime-selectable HE kernel tiers: reference, compiled, multicore.

The transform and rotation counts of the hot path equal their closed forms,
so the remaining wall clock is raw kernel throughput.  This module is the
drop-in kernel substitution layer (SEAL's HEXL pattern): a
:class:`KernelTier` interface over the batch forward/inverse NTT, the
pointwise product and the fused multiply-accumulate, with three
implementations selected at runtime, each proven bit-identical to
``reference`` by the property tests:

``reference``
    The numpy kernels of :class:`~repro.he.ntt.NTTContext`.
``compiled``
    A small C kernel (the same lazy-reduction Shoup butterflies, one
    polynomial per inner loop instead of one ufunc pass per stage) compiled
    on first use with the system C compiler and loaded through ``ctypes``.
    Environments without a compiler skip it cleanly.
``multicore``
    The compiled kernels chunked over limbs x batch on a shared thread
    pool (``ctypes`` releases the GIL for each C call).

Every tier consumes the same Shoup twiddle tables and performs the same
exact modular operations; the lazy interval bookkeeping ([0, 4q), one
conditional subtraction per stage) only changes *when* reductions happen,
and the single final ``% q`` makes the output canonical.

Selection: explicit argument > :func:`tier_scope` > :func:`set_kernel_tier`
> the ``REPRO_KERNEL_TIER`` environment variable > ``auto``, which times
each available tier once per process on a small stacked transform and
picks the fastest (costs in :func:`calibration_snapshot`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager

import numpy as np

from ..errors import ParameterError

__all__ = [
    "KernelTier",
    "available_tiers",
    "active_tier",
    "active_tier_name",
    "set_kernel_tier",
    "get_kernel_tier",
    "tier_scope",
    "stacked_ntt",
    "ntt_batch",
    "calibration_snapshot",
    "fastest_tier_name",
    "clear_kernel_state",
    "kernel_fallback",
]

#: Exclusive bound on ``q_max * L1(weights)`` for an exact float64
#: :meth:`KernelTier.fused_accumulate` (every integer below ``2**53`` is a
#: double).  Columns per float64 chunk of that product.
FUSED_EXACT_BOUND = 1 << 53
_FUSED_CHUNK_COLUMNS = 8192

_C_SOURCE = r"""
#include <stdint.h>

typedef uint64_t u64;
typedef int64_t i64;

/* Canonical residue of an arbitrary int64 input (numpy `%` semantics).
   Inputs on the hot path are already reduced, so the division is skipped
   for them; the guard keeps the kernel bit-identical to the numpy
   reference for *any* int64 input. */
static inline u64 reduce_input(i64 v, u64 q)
{
    if ((u64)v < q)
        return (u64)v;
    i64 r = v % (i64)q;
    if (r < 0)
        r += (i64)q;
    return (u64)r;
}

/* Forward negacyclic NTT of `batch` rows of length n, matching the numpy
   reference bit for bit: psi twist folded into the bit-reverse gather,
   Harvey/Shoup butterflies in the lazy interval [0, 4q) with one
   conditional subtraction per stage, and a single final reduction.
   twist_w/twist_ws: psi twist Shoup tables (length n).
   stage_w/stage_ws: concatenated per-stage twiddles (total n - 1).
   work: caller-provided scratch of length n (one per thread). */
void ntt_forward_batch(const i64 *coeffs, i64 *out, i64 batch, i64 n, u64 q,
                       const u64 *twist_w, const u64 *twist_ws,
                       const u64 *stage_w, const u64 *stage_ws,
                       const i64 *bitrev, u64 *work)
{
    const u64 two_q = 2 * q;
    for (i64 r = 0; r < batch; ++r) {
        const i64 *row = coeffs + r * n;
        i64 *orow = out + r * n;
        for (i64 i = 0; i < n; ++i) {
            i64 s = bitrev[i];
            u64 a = reduce_input(row[s], q);
            u64 quot = (a * twist_ws[s]) >> 32;
            work[i] = a * twist_w[s] - quot * q;   /* [0, 2q) */
        }
        i64 toff = 0;
        for (i64 length = 2; length <= n; length <<= 1) {
            i64 half = length >> 1;
            const u64 *w = stage_w + toff;
            const u64 *ws = stage_ws + toff;
            for (i64 blk = 0; blk < n; blk += length) {
                u64 *lo = work + blk;
                u64 *hi = work + blk + half;
                for (i64 j = 0; j < half; ++j) {
                    u64 a = lo[j];
                    if (a >= two_q) a -= two_q;
                    u64 b = hi[j];
                    u64 quot = (b * ws[j]) >> 32;
                    u64 t = b * w[j] - quot * q;   /* [0, 2q) */
                    lo[j] = a + t;                 /* [0, 4q) */
                    hi[j] = a + two_q - t;         /* [0, 4q) */
                }
            }
            toff += half;
        }
        for (i64 i = 0; i < n; ++i)
            orow[i] = (i64)(work[i] % q);
    }
}

/* Inverse negacyclic NTT: bit-reverse gather, the same stage structure
   with inverse twiddles, then the fused psi^-i * n^-1 Shoup multiply
   (scale_w/scale_ws) with its single conditional correction. */
void ntt_inverse_batch(const i64 *values, i64 *out, i64 batch, i64 n, u64 q,
                       const u64 *scale_w, const u64 *scale_ws,
                       const u64 *stage_w, const u64 *stage_ws,
                       const i64 *bitrev, u64 *work)
{
    const u64 two_q = 2 * q;
    for (i64 r = 0; r < batch; ++r) {
        const i64 *row = values + r * n;
        i64 *orow = out + r * n;
        for (i64 i = 0; i < n; ++i)
            work[i] = reduce_input(row[bitrev[i]], q);
        i64 toff = 0;
        for (i64 length = 2; length <= n; length <<= 1) {
            i64 half = length >> 1;
            const u64 *w = stage_w + toff;
            const u64 *ws = stage_ws + toff;
            for (i64 blk = 0; blk < n; blk += length) {
                u64 *lo = work + blk;
                u64 *hi = work + blk + half;
                for (i64 j = 0; j < half; ++j) {
                    u64 a = lo[j];
                    if (a >= two_q) a -= two_q;
                    u64 b = hi[j];
                    u64 quot = (b * ws[j]) >> 32;
                    u64 t = b * w[j] - quot * q;
                    lo[j] = a + t;
                    hi[j] = a + two_q - t;
                }
            }
            toff += half;
        }
        for (i64 i = 0; i < n; ++i) {
            u64 a = work[i] % q;
            u64 quot = (a * scale_ws[i]) >> 32;
            u64 t = a * scale_w[i] - quot * q;
            if (t >= q) t -= q;
            out[r * n + i] = (i64)t;
        }
    }
}

/* Pointwise a * b mod q over canonical residues (a, b in [0, q), q < 2^30,
   so the product fits u64) with a Barrett reduction: magic = floor(2^64/q)
   precomputed in Python, correction loop exact for any operand. */
void pointwise_mulmod(const i64 *a, const i64 *b, i64 *out, i64 count,
                      u64 q, u64 magic)
{
    for (i64 i = 0; i < count; ++i) {
        u64 x = (u64)a[i] * (u64)b[i];
        u64 quot = (u64)(((__uint128_t)x * magic) >> 64);
        u64 r = x - quot * q;
        while (r >= q)
            r -= q;
        out[i] = (i64)r;
    }
}
"""


# -- compilation + loading ---------------------------------------------------

_lib_lock = threading.Lock()
_lib: ctypes.CDLL | None | bool = None  # None = not tried, False = failed
_lib_error: str | None = None


def _source_digest() -> str:
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def _build_dir() -> str:
    # Per-user, per-source-version cache so one compile serves every process.
    tag = f"repro-kernels-{os.getuid()}-{_source_digest()}"
    return os.path.join(tempfile.gettempdir(), tag)


def _compile_library() -> ctypes.CDLL | None:
    """Compile and load the C kernels; None (with a reason) when impossible."""
    global _lib_error
    build = _build_dir()
    so_path = os.path.join(build, "libreprokernels.so")
    try:
        if not os.path.exists(so_path):
            os.makedirs(build, exist_ok=True)
            src_path = os.path.join(build, "kernels.c")
            with open(src_path, "w") as handle:
                handle.write(_C_SOURCE)
            compiler = next(
                (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
            )
            if compiler is None:
                _lib_error = "no C compiler (cc/gcc/clang) on PATH"
                return None
            tmp_out = so_path + f".tmp-{os.getpid()}"
            result = subprocess.run(
                [
                    compiler, "-O3", "-march=native", "-funroll-loops",
                    "-shared", "-fPIC", src_path, "-o", tmp_out,
                ],
                capture_output=True, text=True, timeout=120,
            )
            if result.returncode != 0:
                _lib_error = f"{compiler} failed: {result.stderr.strip()[:400]}"
                return None
            os.replace(tmp_out, so_path)  # atomic vs concurrent builders
        lib = ctypes.CDLL(so_path)
    except Exception as error:  # pragma: no cover - environment-specific
        _lib_error = f"{type(error).__name__}: {error}"
        return None
    void_p = ctypes.c_void_p
    for name in ("ntt_forward_batch", "ntt_inverse_batch"):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = [
            void_p, void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64,
            void_p, void_p, void_p, void_p, void_p, void_p,
        ]
    lib.pointwise_mulmod.restype = None
    lib.pointwise_mulmod.argtypes = [
        void_p, void_p, void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64,
    ]
    return lib


def _compiled_lib() -> ctypes.CDLL | None:
    global _lib
    with _lib_lock:
        if _lib is None:
            loaded = _compile_library()
            _lib = loaded if loaded is not None else False
        return _lib if _lib is not False else None


# -- packed twiddle tables ---------------------------------------------------

class _PackedTables:
    """The NTT context's Shoup tables, contiguous and concatenated for C.

    The C kernels index one flat ``n - 1`` entry table per direction with a
    running stage offset instead of one ``(twiddle, shoup)`` pair per stage.
    """

    __slots__ = (
        "n", "q", "magic", "twist_w", "twist_ws", "scale_w", "scale_ws",
        "stage_w", "stage_ws", "istage_w", "istage_ws", "bitrev",
    )

    def __init__(self, ctx) -> None:
        contig = np.ascontiguousarray
        self.n = ctx.ring_degree
        self.q = ctx.modulus
        self.magic = (1 << 64) // ctx.modulus
        self.twist_w = contig(ctx._psi_twist[0])
        self.twist_ws = contig(ctx._psi_twist[1])
        self.scale_w = contig(ctx._psi_inv_scaled[0])
        self.scale_ws = contig(ctx._psi_inv_scaled[1])
        self.stage_w = contig(np.concatenate([s[0] for s in ctx._omega_stages]))
        self.stage_ws = contig(np.concatenate([s[1] for s in ctx._omega_stages]))
        self.istage_w = contig(np.concatenate([s[0] for s in ctx._omega_inv_stages]))
        self.istage_ws = contig(np.concatenate([s[1] for s in ctx._omega_inv_stages]))
        self.bitrev = contig(ctx._bitrev.astype(np.int64))


_tables_lock = threading.Lock()


def _packed_tables(ctx) -> _PackedTables:
    tables = getattr(ctx, "_kernel_tables", None)
    if tables is None:
        with _tables_lock:
            tables = getattr(ctx, "_kernel_tables", None)
            if tables is None:
                tables = _PackedTables(ctx)
                ctx._kernel_tables = tables
    return tables


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


# -- tier implementations ----------------------------------------------------

class KernelTier:
    """One implementation of the batch NTT / pointwise / fused kernels.

    ``fused`` gates the fused multiply-accumulate paths on the backends
    (one BLAS contraction instead of per-term intermediates); it is off
    for ``reference`` so that tier's behaviour -- including the exact
    sequence of numpy operations -- matches the historical code path.
    """

    name = "reference"
    fused = False

    @property
    def available(self) -> bool:
        return True

    def unavailable_reason(self) -> str | None:
        return None

    def warm(self, ctx) -> None:
        """Pre-build any per-context state (calibration warms every tier first)."""

    # ``arr`` is a validated (B, N) int64 array; returns canonical residues.
    def ntt_batch(self, ctx, arr: np.ndarray, inverse: bool) -> np.ndarray:
        if inverse:
            return ctx._inverse_batch_numpy(arr)
        return ctx._forward_batch_numpy(arr)

    def stacked_ntt(self, contexts, polys: np.ndarray, inverse: bool) -> np.ndarray:
        """Limb-wise transform of a stacked ``(L, B, N)`` batch."""
        return np.stack(
            [
                self.ntt_batch(ctx, polys[i], inverse)
                for i, ctx in enumerate(contexts)
            ]
        )

    def mul_eval(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Pointwise product of canonical residue arrays mod ``moduli``."""
        return a * b % moduli

    def fused_accumulate(
        self, weights: np.ndarray, stacked: np.ndarray, moduli
    ) -> np.ndarray:
        """``sum_k weights[k, j] * stacked[k]`` mod ``moduli``, all ``j`` at once.

        ``weights`` is ``(C, O)`` centered int64, ``stacked`` ``(C, ...)``
        canonical residues.  One float64 BLAS product per column chunk of the
        flattened trailing axis (chunks keep the float copy small): while
        ``max(moduli) * max_j sum_k |weights[k, j]| < FUSED_EXACT_BOUND``
        (callers guard it) every product and partial sum is an integer below
        ``2**53``, so the result is exact in any summation order.
        """
        flat = stacked.reshape(stacked.shape[0], -1)
        lhs = weights.T.astype(np.float64)
        out = np.empty((lhs.shape[0], flat.shape[1]), dtype=np.int64)
        for start in range(0, flat.shape[1], _FUSED_CHUNK_COLUMNS):
            cols = slice(start, start + _FUSED_CHUNK_COLUMNS)
            out[:, cols] = lhs @ flat[:, cols].astype(np.float64)
        out = out.reshape((lhs.shape[0],) + stacked.shape[1:])
        return np.remainder(out, moduli, out=out)


class _CompiledTier(KernelTier):
    """C kernels through ctypes; compiled once per machine, cached on disk."""

    name = "compiled"
    fused = True

    @property
    def available(self) -> bool:
        return _compiled_lib() is not None

    def unavailable_reason(self) -> str | None:
        return None if self.available else (_lib_error or "compile failed")

    def warm(self, ctx) -> None:
        _compiled_lib()
        _packed_tables(ctx)

    def _call(
        self, lib, tables: _PackedTables, arr: np.ndarray, out: np.ndarray,
        work: np.ndarray, inverse: bool,
    ) -> None:
        if inverse:
            lib.ntt_inverse_batch(
                _ptr(arr), _ptr(out), arr.shape[0], tables.n, tables.q,
                _ptr(tables.scale_w), _ptr(tables.scale_ws),
                _ptr(tables.istage_w), _ptr(tables.istage_ws),
                _ptr(tables.bitrev), _ptr(work),
            )
        else:
            lib.ntt_forward_batch(
                _ptr(arr), _ptr(out), arr.shape[0], tables.n, tables.q,
                _ptr(tables.twist_w), _ptr(tables.twist_ws),
                _ptr(tables.stage_w), _ptr(tables.stage_ws),
                _ptr(tables.bitrev), _ptr(work),
            )

    def ntt_batch(self, ctx, arr: np.ndarray, inverse: bool) -> np.ndarray:
        lib = _compiled_lib()
        tables = _packed_tables(ctx)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        out = np.empty_like(arr)
        work = np.empty(tables.n, dtype=np.uint64)
        self._call(lib, tables, arr, out, work, inverse)
        return out

    def mul_eval(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        # The C path needs same-shape limb-major operands; broadcasting
        # shapes fall back to numpy (bit-identical either way).
        if (
            a.shape != b.shape
            or a.ndim < 2
            or not isinstance(moduli, np.ndarray)
            or moduli.shape[0] != a.shape[0]
        ):
            return a * b % moduli
        lib = _compiled_lib()
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        out = np.empty_like(a)
        count = a[0].size
        flat_moduli = moduli.reshape(-1)
        for i in range(a.shape[0]):
            q = int(flat_moduli[i])
            lib.pointwise_mulmod(
                _ptr(a[i]), _ptr(b[i]), _ptr(out[i]), count, q, (1 << 64) // q
            )
        return out


#: Row-chunk floor for the multicore tier: below this many rows per limb the
#: pool overhead outweighs the parallelism and one task takes the whole limb.
_MIN_CHUNK_ROWS = 4

_pool_lock = threading.Lock()
_pool = None
_pool_pid = None


def _worker_pool():
    global _pool, _pool_pid
    with _pool_lock:
        # The pid check makes the pool fork-safe: a forked child (a fleet
        # replica started by ``spawn_replica_process``) inherits ``_pool``
        # non-None but none of its threads, so submitting to it would hang
        # forever.  A child therefore builds its own fresh pool.
        if _pool is None or _pool_pid != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=max(1, os.cpu_count() or 1),
                thread_name_prefix="repro-kernel",
            )
            _pool_pid = os.getpid()
        return _pool


class _MulticoreTier(_CompiledTier):
    """Compiled kernels chunked over limbs x batch on a shared thread pool.

    ``ctypes`` drops the GIL for the duration of each C call, so chunks run
    concurrently on real cores; every task owns its scratch buffer and
    writes a disjoint row range of the preallocated output.
    """

    name = "multicore"
    fused = True

    def _chunks(self, limbs: int, rows: int) -> list[tuple[int, int, int]]:
        workers = max(1, os.cpu_count() or 1)
        per_limb = max(1, min(workers, rows // _MIN_CHUNK_ROWS) or 1)
        step = -(-rows // per_limb)
        return [
            (limb, start, min(rows, start + step))
            for limb in range(limbs)
            for start in range(0, rows, step)
        ]

    def stacked_ntt(self, contexts, polys: np.ndarray, inverse: bool) -> np.ndarray:
        lib = _compiled_lib()
        tables = [_packed_tables(ctx) for ctx in contexts]
        polys = np.ascontiguousarray(polys, dtype=np.int64)
        out = np.empty_like(polys)
        rows = polys.shape[1]
        tasks = self._chunks(len(contexts), rows)
        if len(tasks) <= 1:
            work = np.empty(polys.shape[2], dtype=np.uint64)
            for limb in range(len(contexts)):
                self._call(lib, tables[limb], polys[limb], out[limb], work, inverse)
            return out

        def run(task: tuple[int, int, int]) -> None:
            limb, start, stop = task
            work = np.empty(polys.shape[2], dtype=np.uint64)
            self._call(
                lib, tables[limb], polys[limb, start:stop], out[limb, start:stop],
                work, inverse,
            )

        futures = [_worker_pool().submit(run, task) for task in tasks]
        for future in futures:
            future.result()
        return out

    def ntt_batch(self, ctx, arr: np.ndarray, inverse: bool) -> np.ndarray:
        return self.stacked_ntt([ctx], arr[None, ...], inverse)[0]


# -- registry + selection ----------------------------------------------------

_TIERS: dict[str, KernelTier] = {
    "reference": KernelTier(),
    "compiled": _CompiledTier(),
    "multicore": _MulticoreTier(),
}

#: env var consulted on every resolution (so tests can monkeypatch it).
ENV_VAR = "REPRO_KERNEL_TIER"

_state_lock = threading.Lock()
_global_tier: str | None = None
_auto_tier: str | None = None
_calibration: dict[str, dict[str, float]] = {}
_tls = threading.local()

#: degradation pin: a kernel fault at dispatch demotes the whole process to
#: the ``reference`` tier (``(failed tier, reason)``; see :func:`kernel_fallback`).
#: Checked *before* every other selection mechanism -- a process that just
#: produced a kernel failure must not re-enter the failing tier through an
#: explicit argument or scope.
_fallback: tuple[str, str] | None = None

#: fault-injection hook, installed by :mod:`repro.runtime.faults` on import
#: (dependency inversion: the HE layer never imports the runtime).  While
#: absent -- any process that never imports the fault layer -- dispatch pays
#: one ``None`` check.
_fault_hook = None

#: the registered fault-site name of the NTT dispatch entry points
FAULT_SITE = "kernel_dispatch"


def available_tiers() -> list[str]:
    """Names of the tiers usable in this environment, reference first."""
    return [name for name, tier in _TIERS.items() if tier.available]


def set_kernel_tier(name: str | None) -> None:
    """Pin the process-wide tier (None restores env/auto resolution)."""
    global _global_tier
    if name is not None:
        _validate(name)
    _global_tier = name


def get_kernel_tier() -> str | None:
    """The explicitly pinned process-wide tier name, if any."""
    return _global_tier


@contextmanager
def tier_scope(name: str | None):
    """Thread-local tier override for a ``with`` block (None = no-op)."""
    if name is None:
        yield
        return
    _validate(name)
    previous = getattr(_tls, "override", None)
    _tls.override = name
    try:
        yield
    finally:
        _tls.override = previous


def _validate(name: str) -> None:
    if name == "auto":
        return
    tier = _TIERS.get(name)
    if tier is None:
        raise ParameterError(
            f"unknown kernel tier {name!r}; expected one of "
            f"{sorted(_TIERS)} or 'auto'"
        )
    if not tier.available:
        raise ParameterError(
            f"kernel tier {name!r} is unavailable here: "
            f"{tier.unavailable_reason()}"
        )


def active_tier_name(explicit: str | None = None) -> str:
    """Resolve the tier in effect: fallback pin > explicit > scope > global >
    env > auto (the pin exists only after a kernel fault, see
    :func:`kernel_fallback`)."""
    if _fallback is not None:
        return "reference"
    name = (
        explicit
        or getattr(_tls, "override", None)
        or _global_tier
        or os.environ.get(ENV_VAR)
        or "auto"
    )
    _validate(name)
    if name == "auto":
        return fastest_tier_name()
    return name


def active_tier(explicit: str | None = None) -> KernelTier:
    """The :class:`KernelTier` in effect (see :func:`active_tier_name`)."""
    return _TIERS[active_tier_name(explicit)]


def fastest_tier_name() -> str:
    """The self-calibrated fastest available tier (measured once per process)."""
    global _auto_tier
    if _auto_tier is None:
        with _state_lock:
            if _auto_tier is None:
                _auto_tier = _calibrate()
    return _auto_tier


def calibration_snapshot() -> dict[str, dict[str, float]]:
    """Measured per-tier kernel costs from the last self-calibration."""
    fastest_tier_name()  # ensure the measurement ran
    return {name: dict(costs) for name, costs in _calibration.items()}


def clear_kernel_state() -> None:
    """Reset selection + calibration + fallback state (tests)."""
    global _global_tier, _auto_tier, _fallback
    with _state_lock:
        _global_tier = None
        _auto_tier = None
        _fallback = None
        _calibration.clear()
        _tls.override = None


def kernel_fallback() -> tuple[str, str] | None:
    """The ``(failed tier, reason)`` of an active reference pin, or ``None``.

    A non-``reference`` tier that raises at dispatch demotes the whole
    process to ``reference`` (the degradation ladder's last kernel rung):
    the failed call re-runs on the reference kernels and every later
    resolution returns ``reference`` regardless of explicit arguments,
    scopes or the environment, until :func:`clear_kernel_state`.
    """
    return _fallback


def _pin_reference_fallback(tier_name: str, reason: str) -> None:
    global _fallback
    with _state_lock:
        if _fallback is None:
            _fallback = (tier_name, reason)


#: Calibration workload: two limbs of a small ring, a handful of rows --
#: big enough that per-call overhead does not dominate, small enough that
#: first use costs milliseconds.
_CALIBRATION_DEGREE = 1024
_CALIBRATION_ROWS = 8
_CALIBRATION_REPEATS = 3


def _calibrate() -> str:
    from .ntt import find_rns_primes, get_ntt_context

    n = _CALIBRATION_DEGREE
    primes = find_rns_primes(28, n, 2)
    contexts = [get_ntt_context(n, q) for q in primes]
    rng_free = (
        np.arange(len(primes) * _CALIBRATION_ROWS * n, dtype=np.int64)
        .reshape(len(primes), _CALIBRATION_ROWS, n)
    )
    polys = rng_free % np.array(primes, dtype=np.int64)[:, None, None]
    moduli = np.array(primes, dtype=np.int64)[:, None, None]
    reference = None
    best_name, best_seconds = "reference", float("inf")
    for name, tier in _TIERS.items():
        if not tier.available:
            continue
        for ctx in contexts:
            tier.warm(ctx)
        ntt_seconds = float("inf")
        mul_seconds = float("inf")
        forward = None
        for _ in range(_CALIBRATION_REPEATS):
            start = time.perf_counter()
            forward = tier.stacked_ntt(contexts, polys, inverse=False)
            tier.stacked_ntt(contexts, forward, inverse=True)
            ntt_seconds = min(ntt_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            tier.mul_eval(forward, forward, moduli)
            mul_seconds = min(mul_seconds, time.perf_counter() - start)
        if reference is None:
            reference = forward
        elif not np.array_equal(forward, reference):  # pragma: no cover
            # A miscompiled kernel must never win selection silently.
            continue
        _calibration[name] = {
            "ntt_seconds": ntt_seconds,
            "mul_eval_seconds": mul_seconds,
        }
        if ntt_seconds < best_seconds:
            best_name, best_seconds = name, ntt_seconds
    return best_name


# -- module-level kernel entry points ---------------------------------------

def _guarded_dispatch(tier_name: str, op: str, run):
    """Run ``run(tier)`` under the kernel-dispatch fault site.

    A failure in a non-``reference`` tier -- injected or real (miscompiled
    library, thread-pool breakage) -- pins the process to ``reference``
    (:func:`kernel_fallback`) and re-runs the call there, so the caller
    still gets its bit-identical result; ``reference`` failures and
    validation errors propagate.
    """
    try:
        if _fault_hook is not None:
            _fault_hook(FAULT_SITE, f"{op}:{tier_name}")
        return run(_TIERS[tier_name])
    except ParameterError:
        raise
    except Exception as exc:  # noqa: BLE001 - demoted to reference below
        if tier_name == "reference":
            raise
        _pin_reference_fallback(tier_name, f"{op}: {exc!r}")
        return run(_TIERS["reference"])


def stacked_ntt(
    contexts, polys: np.ndarray, *, inverse: bool, kernel_tier: str | None = None
) -> np.ndarray:
    """Transform a limb-major ``(L, B, N)`` batch under the active tier.

    One call covers every limb -- the single stacked kernel invocation the
    RNS layer hands to the tier, which chunks it over limbs x batch as it
    sees fit (``multicore``) or loops limbs natively (others).
    """
    polys = np.asarray(polys, dtype=np.int64)
    if polys.ndim != 3 or polys.shape[0] != len(contexts):
        raise ParameterError(
            f"stacked NTT expects shape ({len(contexts)}, batch, N), "
            f"got {polys.shape}"
        )
    for ctx in contexts:
        if polys.shape[2] != ctx.ring_degree:
            raise ParameterError(
                f"stacked NTT expects ring degree {ctx.ring_degree}, "
                f"got {polys.shape[2]}"
            )
    tier_name = active_tier_name(kernel_tier)
    return _guarded_dispatch(
        tier_name, "stacked_ntt",
        lambda tier: tier.stacked_ntt(contexts, polys, inverse),
    )


def ntt_batch(
    ctx, rows: np.ndarray, *, inverse: bool, kernel_tier: str | None = None
) -> np.ndarray:
    """Single-context batch NTT under the active tier (fault-guarded).

    The dispatch entry :class:`~repro.he.ntt.NTTContext` uses for its
    ``forward_batch``/``inverse_batch``, sharing :func:`stacked_ntt`'s
    kernel-dispatch fault site and reference fallback pin.
    """
    tier_name = active_tier_name(kernel_tier)
    return _guarded_dispatch(
        tier_name, "ntt_batch",
        lambda tier: tier.ntt_batch(ctx, rows, inverse=inverse),
    )
