"""Operation accounting shared by the HE backends and the cost model.

Every homomorphic operation executed by either backend (exact BFV or the
functional simulator) is recorded here.  The latency and communication models
in :mod:`repro.costmodel` convert these counts into seconds and bytes using
per-operation constants calibrated against the paper's Table II.

The serving runtime multiplexes many inference requests over one shared
backend, so the tracker additionally supports *per-request attribution*: when
a request id is set (see :meth:`OperationTracker.set_request` /
:meth:`OperationTracker.attribute`), every recorded operation is charged both
to the global multiset and to that request's own counter.  Operations
recorded with no request set (key generation, shared offline pre-processing)
stay unattributed, so ``sum(per-request) + unattributed == totals`` always
holds -- the invariant the serving tests assert.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator

__all__ = ["OperationTracker", "NTT_FORWARD", "NTT_INVERSE"]

#: Operation names under which NTT domain crossings are recorded.  Both HE
#: backends charge one count per *limb polynomial* transformed (a ciphertext
#: is two polynomials of ``params.limb_count`` RNS limbs each, and a
#: double-CRT scheme runs one NTT per limb), so the counters are directly
#: comparable to the closed forms in
#: :func:`repro.he.packing.bsgs_transform_count` (which scale by the same
#: ``limbs`` factor) and between the exact backend (which executes the
#: transforms) and the simulator (which models the transforms the deployed
#: scheme would execute).
NTT_FORWARD = "ntt_forward"
NTT_INVERSE = "ntt_inverse"


@dataclass
class OperationTracker:
    """Counts cryptographic operations and bytes moved.

    The tracker is deliberately dumb: it is a named multiset (plus one
    multiset per serving request).  Interpretation (which operations dominate
    latency, what a ciphertext costs on the wire) lives in
    :mod:`repro.costmodel`.
    """

    counts: Counter = field(default_factory=Counter)
    bytes_moved: int = 0
    request_counts: dict[str, Counter] = field(default_factory=dict)
    request_bytes: dict[str, int] = field(default_factory=dict)
    #: per-phase attribution ("offline"/"online"), set by the protocol engine
    phase_counts: dict[str, Counter] = field(default_factory=dict)
    _current_request: str | None = field(default=None, repr=False)
    _current_phase: str | None = field(default=None, repr=False)

    def record(self, operation: str, *, count: int = 1, bytes_moved: int = 0) -> None:
        """Record ``count`` occurrences of ``operation``."""
        self.counts[operation] += count
        self.bytes_moved += bytes_moved
        if self._current_request is not None:
            per_request = self.request_counts.setdefault(self._current_request, Counter())
            per_request[operation] += count
            self.request_bytes[self._current_request] = (
                self.request_bytes.get(self._current_request, 0) + bytes_moved
            )
        if self._current_phase is not None:
            self.phase_counts.setdefault(self._current_phase, Counter())[operation] += count

    def count(self, operation: str) -> int:
        """Number of recorded occurrences of ``operation``."""
        return self.counts.get(operation, 0)

    # -- NTT transform accounting ------------------------------------------
    def record_transforms(self, *, forward: int = 0, inverse: int = 0) -> None:
        """Charge NTT domain crossings (per transformed polynomial).

        Flows through :meth:`record`, so transforms inherit the active
        request/phase attribution like every other operation -- the
        evaluation-domain residency win is attributable per request and per
        phase from the same counters.
        """
        if forward:
            self.record(NTT_FORWARD, count=forward)
        if inverse:
            self.record(NTT_INVERSE, count=inverse)

    def transform_counts(self, *, phase: str | None = None) -> dict[str, int]:
        """Forward/inverse transform counts, totals or for one phase."""
        source = self.phase_counts.get(phase, Counter()) if phase else self.counts
        return {
            NTT_FORWARD: source.get(NTT_FORWARD, 0),
            NTT_INVERSE: source.get(NTT_INVERSE, 0),
        }

    def transforms(self, *, phase: str | None = None) -> int:
        """Total NTT transforms (forward + inverse), optionally per phase."""
        return sum(self.transform_counts(phase=phase).values())

    # -- per-request attribution -------------------------------------------
    def set_request(self, request_id: str | None) -> None:
        """Attribute subsequent operations to ``request_id`` (None to stop)."""
        self._current_request = request_id

    @contextmanager
    def attribute(self, request_id: str) -> Iterator[None]:
        """Scope-style request attribution; restores the previous id on exit."""
        previous = self._current_request
        self._current_request = request_id
        try:
            yield
        finally:
            self._current_request = previous

    def request_snapshot(self, request_id: str) -> dict[str, int]:
        """Plain-dict copy of one request's operation counts."""
        return dict(self.request_counts.get(request_id, Counter()))

    # -- per-phase attribution ---------------------------------------------
    def set_phase(self, phase: str | None) -> None:
        """Attribute subsequent operations to a protocol phase (None to stop).

        The phase is a plain string (``"offline"`` / ``"online"``) so this
        module stays free of protocol-layer imports; the engine passes
        ``Phase.X.value``.
        """
        self._current_phase = phase

    def phase_snapshot(self, phase: str) -> dict[str, int]:
        """Plain-dict copy of one phase's operation counts."""
        return dict(self.phase_counts.get(phase, Counter()))

    def requests(self) -> list[str]:
        """Request ids that have operations attributed to them."""
        return list(self.request_counts)

    def unattributed(self) -> dict[str, int]:
        """Counts not charged to any request (keygen, shared pre-processing)."""
        shared = Counter(self.counts)
        for per_request in self.request_counts.values():
            shared.subtract(per_request)
        return {op: count for op, count in shared.items() if count}

    # -- bookkeeping ---------------------------------------------------------
    def reset(self) -> None:
        """Clear all recorded counts."""
        self.counts.clear()
        self.bytes_moved = 0
        self.request_counts.clear()
        self.request_bytes.clear()
        self.phase_counts.clear()

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counts (stable for assertions/reports)."""
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OperationTracker({parts}, bytes={self.bytes_moved})"
