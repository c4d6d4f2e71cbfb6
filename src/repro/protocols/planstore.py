"""Persistent :class:`~repro.protocols.plan.OfflinePlan` store.

The offline phase is the expensive half of the paper's protocols -- and since
PR 2 it is an explicit, picklable artifact (:class:`OfflinePlan`).  This
module makes that artifact survive process restarts: plans are serialized to
disk keyed by ``(model, variant, seed, slot_sharing)``, so a freshly started
serving process can *warm-start* its engines by installing a stored plan
instead of re-running the whole HE exchange (the engine cache does exactly
that, see :class:`~repro.runtime.executor.EngineCache`).

Keying
------
The ``model`` component of a key is a **content fingerprint** (a SHA-256
prefix over the model's serialized config and weights), not the mutable
serving name.  Replacing a model under the same serving name therefore
changes the key and misses the store -- stale plans can never be installed
onto a replaced model, the same invariant the in-memory cache enforces with
``invalidate_model``.

Integrity
---------
Every entry records a SHA-256 digest of its pickled payload plus the full
key metadata.  ``load`` verifies both before unpickling and treats *any*
mismatch -- truncated file, flipped bit, metadata drift, unreadable pickle --
as a cache miss (the corrupt entry is deleted), so the worst failure mode of
the store is a cold rebuild, never a wrong or half-installed plan.

Fault tolerance
---------------
I/O failures are *not* integrity failures and are handled differently:
a read that raises ``OSError`` is retried once and the entry is **kept**
(the file is presumed fine, the filesystem transiently was not), while an
integrity failure deletes the entry (the file itself is damaged).  Both are
counted separately in :class:`PlanStoreStats`.  After
``io_error_disable_threshold`` *consecutive* failed I/O operations the
store disables itself -- loads read as misses and stores become no-ops -- so
a persistently broken plan directory degrades serving to cold builds
instead of hammering a dead disk.  Reads and writes pass through the
``planstore_load`` / ``planstore_store`` fault sites of
:mod:`repro.runtime.faults` (hooks installed by that module on import), so
every one of these paths is exercised by deterministic induced failure.

The store trusts its own directory: payloads are pickles, so a plan
directory must be treated like any other local cache (do not point it at
attacker-writable storage).

Garbage collection
------------------
``max_entries`` / ``max_bytes`` bound the directory: every ``store``
prunes least-recently-used entries (by file mtime; ``load`` hits refresh
it) until the budgets hold, never evicting the entry just written.  The
worst outcome of pruning is a cold rebuild on a future warm-start attempt
-- exactly the store's existing miss semantics.  :meth:`PlanStore.stats`
reports entry/byte totals plus this instance's hit/miss/prune counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import ProtocolError, TransientFault
from .plan import OfflinePlan

__all__ = ["PlanStoreKey", "PlanStore", "PlanStoreStats", "model_fingerprint"]

#: fault-injection hooks, installed by :mod:`repro.runtime.faults` on import
#: (dependency inversion: the protocol layer never imports the runtime).
_fault_hook = None
_corrupt_hook = None

#: registered fault-site names of the store's read and write paths
FAULT_SITE_LOAD = "planstore_load"
FAULT_SITE_STORE = "planstore_store"

#: errors treated as *transient I/O* (retried, entry kept) rather than
#: integrity failures (entry deleted).  ``TransientFault`` lets the fault
#: layer drive this path with its default typed fault; ``FileNotFoundError``
#: is excluded by the callers (a plain miss, not an error).
_TRANSIENT_IO = (OSError, TransientFault)

#: file-format magic + version; bumping it invalidates every stored entry.
#: v2: ciphertext handles in pickled plans carry a ``domain`` field
#: (evaluation-domain residency) -- v1 entries unpickle to handles without
#: it and would crash at first use, so they must read as misses instead.
#: v3: double-CRT ciphertexts -- exact-backend components are limb-major
#: ``(L, N)`` arrays and BSGS plans carry a ``limbs`` field, so pre-RNS
#: entries would deserialize into shapes the limb-aware consumers reject
#: (or worse, silently mis-shape); they must read as misses instead.
_MAGIC = b"REPRO-PLAN3\n"


def model_fingerprint(model) -> str:
    """Content hash of a model (config + weights), stable across processes.

    Two models with identical configuration and weights fingerprint the
    same; any weight or shape change yields a new fingerprint.  Used as the
    ``model`` component of a :class:`PlanStoreKey`, so a stored plan can
    only ever be installed onto the exact model it was prepared for.
    """
    return hashlib.sha256(pickle.dumps(model)).hexdigest()[:32]


@dataclass(frozen=True)
class PlanStoreKey:
    """Identity of one stored plan: which engine build it can warm-start.

    ``model`` is a content fingerprint (see :func:`model_fingerprint`);
    ``slot_sharing`` is the *effective* FHGS slot-sharing the plan was
    prepared with (engines clamp the requested value to their backend and
    slot budget, and plans prepared at different sharing levels are not
    interchangeable).
    """

    model: str
    variant: str
    seed: int
    slot_sharing: int

    def digest(self) -> str:
        """Stable filename-safe digest of the key."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:40]


@dataclass(frozen=True)
class PlanStoreStats:
    """Point-in-time view of the store plus this instance's counters.

    ``entries`` / ``total_bytes`` are read from the directory (shared with
    other processes); ``hits`` / ``misses`` / ``stores`` / ``prunes`` count
    only this instance's activity.  ``io_errors`` counts failed read/write
    operations (transient: the entry is kept), ``integrity_failures`` counts
    damaged entries (deleted); ``disabled`` reports whether consecutive I/O
    errors reached the disable threshold (see the module docstring).
    """

    entries: int
    total_bytes: int
    hits: int
    misses: int
    stores: int
    prunes: int
    io_errors: int = 0
    integrity_failures: int = 0
    disabled: bool = False


class PlanStore:
    """Directory-backed store of serialized offline plans.

    Writes are atomic (temp file + ``os.replace``), so a concurrent reader --
    another serving process sharing the directory, or another thread's
    build -- never observes a partially written entry.

    ``max_entries`` / ``max_bytes`` (``None`` = unbounded, the historical
    behaviour) turn the directory into an LRU-pruned cache: see the module
    docstring's *Garbage collection* section.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        io_error_disable_threshold: int = 3,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ProtocolError("plan store max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ProtocolError("plan store max_bytes must be positive")
        if io_error_disable_threshold < 1:
            raise ProtocolError("io_error_disable_threshold must be at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.io_error_disable_threshold = io_error_disable_threshold
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._prunes = 0
        self._io_errors = 0
        self._integrity_failures = 0
        self._consecutive_io_errors = 0
        self._disabled = False

    @property
    def disabled(self) -> bool:
        """Whether consecutive I/O errors disabled persistence (see module docs)."""
        return self._disabled

    def _record_failed_io(self) -> None:
        """One failed I/O *operation* (a load that exhausted its retry, or a
        failed store); reaching the threshold disables the store."""
        self._consecutive_io_errors += 1
        if self._consecutive_io_errors >= self.io_error_disable_threshold:
            self._disabled = True

    # -- keys ----------------------------------------------------------------
    def key_for(self, model, variant: str, seed: int, slot_sharing: int) -> PlanStoreKey:
        """The store key of an engine build (fingerprints ``model``)."""
        return PlanStoreKey(
            model=model_fingerprint(model), variant=variant,
            seed=int(seed), slot_sharing=int(slot_sharing),
        )

    def path_for(self, key: PlanStoreKey) -> Path:
        return self.root / f"{key.digest()}.plan"

    # -- persistence ---------------------------------------------------------
    def store(self, key: PlanStoreKey, plan: OfflinePlan) -> Path:
        """Serialize ``plan`` under ``key``; returns the entry's path.

        Persistence is best-effort: a write that fails with an I/O error is
        counted (``io_errors``) and swallowed -- the caller's plan is intact
        and serving degrades to a cold build next process, exactly the
        store's miss semantics.  A disabled store (see the module docstring)
        skips the write entirely.
        """
        if not isinstance(plan, OfflinePlan):
            raise ProtocolError(
                f"plan store holds OfflinePlans, not {type(plan).__name__}"
            )
        path = self.path_for(key)
        if self._disabled:
            return path
        payload = pickle.dumps(plan)
        header = json.dumps(
            {
                "key": asdict(key),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload_bytes": len(payload),
                "variant": plan.variant,
            },
            sort_keys=True,
        ).encode()
        try:
            self._write_entry(path, header, payload)
        except _TRANSIENT_IO:
            self._io_errors += 1
            self._record_failed_io()
            return path
        self._consecutive_io_errors = 0
        self._stores += 1
        self._prune(protect=path)
        return path

    def _write_entry(self, path: Path, header: bytes, payload: bytes) -> None:
        """Atomically write one entry (the ``planstore_store`` fault site)."""
        if _fault_hook is not None:
            _fault_hook(FAULT_SITE_STORE, path.name)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(len(header).to_bytes(4, "big"))
                handle.write(header)
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _prune(self, protect: Path) -> None:
        """Delete least-recently-used entries until the budgets hold.

        Recency is file mtime (refreshed by ``load`` hits), so stale plans
        -- replaced models, retired variants, old seeds -- age out first.
        The just-written entry is never the victim, even if it alone
        exceeds ``max_bytes``: evicting it would defeat the warm start the
        caller just paid to enable.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self.root.glob("*.plan"):
            try:
                stat = path.stat()
            except FileNotFoundError:  # pragma: no cover - concurrent delete
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        entries.sort()
        count = len(entries)
        for _, path, size in entries:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_entries or over_bytes):
                break
            if path == protect:
                continue
            self._discard(path)
            self._prunes += 1
            count -= 1
            total -= size

    def _read_entry(self, path: Path) -> bytes:
        """Read one entry's bytes (the ``planstore_load`` fault site)."""
        if _fault_hook is not None:
            _fault_hook(FAULT_SITE_LOAD, path.name)
        blob = path.read_bytes()
        if _corrupt_hook is not None:
            blob = _corrupt_hook(FAULT_SITE_LOAD, blob)
        return blob

    def load(self, key: PlanStoreKey) -> OfflinePlan | None:
        """The stored plan for ``key``, or ``None`` on miss/corruption.

        A read that fails with a *transient* I/O error is retried once; if
        the retry fails too, the load is a miss but the entry is **kept**
        (counted in ``io_errors``).  Integrity verification -- magic/version,
        header metadata (the stored key must equal ``key`` field for
        field), payload digest, then unpickle -- deletes the entry on any
        failure (counted in ``integrity_failures``) and reads as a miss;
        the caller falls back to a cold build either way.
        """
        if self._disabled:
            self._misses += 1
            return None
        path = self.path_for(key)
        blob = None
        for attempt in (1, 2):
            try:
                blob = self._read_entry(path)
                break
            except FileNotFoundError:
                self._misses += 1
                return None
            except _TRANSIENT_IO:
                self._io_errors += 1
                if attempt == 2:
                    # Retry exhausted: a miss, but the file survives -- the
                    # entry is presumed fine, the filesystem was not.
                    self._record_failed_io()
                    self._misses += 1
                    return None
        self._consecutive_io_errors = 0
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            offset = len(_MAGIC)
            header_len = int.from_bytes(blob[offset:offset + 4], "big")
            offset += 4
            header = json.loads(blob[offset:offset + header_len])
            payload = blob[offset + header_len:]
            if header.get("key") != asdict(key):
                raise ValueError("key metadata mismatch")
            if len(payload) != int(header.get("payload_bytes", -1)):
                raise ValueError("payload truncated")
            if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
                raise ValueError("payload digest mismatch")
            plan = pickle.loads(payload)
            if not isinstance(plan, OfflinePlan):
                raise ValueError("payload is not an OfflinePlan")
        except (ValueError, KeyError, json.JSONDecodeError, pickle.UnpicklingError,
                EOFError, AttributeError, ImportError, IndexError):
            self._integrity_failures += 1
            self._discard(path)
            self._misses += 1
            return None
        self._hits += 1
        try:
            # Refresh recency so warm-start traffic protects its plans from
            # LRU pruning (best effort; a read-only store still serves hits).
            os.utime(path)
        except OSError:  # pragma: no cover - unwritable store directory
            pass
        return plan

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone or unwritable
            pass

    # -- introspection -------------------------------------------------------
    def contains(self, key: PlanStoreKey) -> bool:
        return self.path_for(key).exists()

    def entry_bytes(self, key: PlanStoreKey) -> int:
        """On-disk size of ``key``'s entry (0 when absent)."""
        try:
            return self.path_for(key).stat().st_size
        except FileNotFoundError:
            return 0

    def entry_count(self) -> int:
        return len(list(self.root.glob("*.plan")))

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.root.glob("*.plan"))

    def stats(self) -> PlanStoreStats:
        """Directory totals plus this instance's hit/miss/store/prune counts."""
        return PlanStoreStats(
            entries=self.entry_count(),
            total_bytes=self.total_bytes(),
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            prunes=self._prunes,
            io_errors=self._io_errors,
            integrity_failures=self._integrity_failures,
            disabled=self._disabled,
        )

    def clear(self) -> int:
        """Delete every stored entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.plan"):
            self._discard(path)
            removed += 1
        return removed
