"""Deterministic fault injection + the fault-tolerance building blocks.

The runtime's robustness story is *provable*, not anecdotal: every recovery
behaviour -- retries, quarantine, cold-build fallback, kernel-tier
fallback, fleet failover -- is exercised by **deterministic induced failure**,
never by mocks.  The pieces:

* :class:`FaultRule` / :class:`FaultPlan` -- a seeded, reproducible schedule
  of faults.  A rule targets one named *site* and fires on explicit
  occurrence indices (``fires=(1, 3)``) and/or with a seeded Bernoulli
  ``rate``; it can **raise** a typed fault, **delay**, or **corrupt** bytes
  once.  The same ``(plan, seed)`` always produces the same fault sequence,
  so recovery behaviour is exact and replayable -- the robustness analog of
  the repo's "closed form == measured" discipline.
* :class:`FaultInjector` -- evaluates a plan at runtime.  Instrumented code
  calls :func:`maybe_inject` (raise/delay rules) and :func:`maybe_corrupt`
  (corruption rules) at registered sites; with no injector active both are
  near-free no-ops, so production paths pay one global read.
* :func:`fault_scope` -- a process-global ``with`` context mirroring
  :func:`repro.he.kernels.tier_scope`.  Process-global (not thread-local)
  on purpose: faults must be visible to the drain loop and the fleet
  router's threads, which run on other threads than the test body.
* :class:`CircuitBreaker` -- closed → open after ``failure_threshold``
  consecutive failures → half-open probe after ``cooldown_seconds`` →
  closed on probe success.  Used per ``(model, variant)`` key by the engine
  cache's build quarantine.
* :class:`RetryPolicy` -- bounded attempts, exponential backoff with
  *deterministic seeded jitter* (a hash of ``(seed, request_id, attempt)``,
  no global RNG), and a per-request ``timeout_seconds`` deadline budget
  shared across attempts.  Enforced by the async front door.

Registered sites
----------------
========================  ====================================================
site                      instrumented in
========================  ====================================================
``engine_build``          :meth:`EngineCache._build` (offline prepare+install)
``planstore_load``        :meth:`PlanStore.load` (reads; also corrupt rules)
``planstore_store``       :meth:`PlanStore.store` (writes)
``online_execute``        :meth:`BatchExecutor.execute` entry
``kernel_dispatch``       :func:`repro.he.kernels.stacked_ntt` dispatch
``conn_send``             :func:`repro.runtime.net.send_frame` (wire writes;
                          also corrupt rules -- the CRC must catch them)
``conn_recv``             :func:`repro.runtime.net.recv_frame` (wire reads)
``replica_heartbeat``     :meth:`FleetRouter._heartbeat` probe sends
``replica_crash``         :meth:`FleetRouter.submit` placement (a firing
                          hard-kills the chosen replica before the send)
========================  ====================================================
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ProtocolError, TransientFault

__all__ = [
    "SITE_ENGINE_BUILD",
    "SITE_PLANSTORE_LOAD",
    "SITE_PLANSTORE_STORE",
    "SITE_ONLINE_EXECUTE",
    "SITE_KERNEL_DISPATCH",
    "SITE_CONN_SEND",
    "SITE_CONN_RECV",
    "SITE_REPLICA_HEARTBEAT",
    "SITE_REPLICA_CRASH",
    "ALL_SITES",
    "DEFAULT_MAX_EVENTS",
    "FaultRule",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "fault_scope",
    "set_fault_injector",
    "active_injector",
    "maybe_inject",
    "maybe_corrupt",
    "fault_seed_from_env",
    "CircuitBreaker",
    "RetryPolicy",
]

SITE_ENGINE_BUILD = "engine_build"
SITE_PLANSTORE_LOAD = "planstore_load"
SITE_PLANSTORE_STORE = "planstore_store"
SITE_ONLINE_EXECUTE = "online_execute"
SITE_KERNEL_DISPATCH = "kernel_dispatch"
SITE_CONN_SEND = "conn_send"
SITE_CONN_RECV = "conn_recv"
SITE_REPLICA_HEARTBEAT = "replica_heartbeat"
SITE_REPLICA_CRASH = "replica_crash"

#: every registered injection point, in runtime-flow order
ALL_SITES = (
    SITE_ENGINE_BUILD,
    SITE_PLANSTORE_LOAD,
    SITE_PLANSTORE_STORE,
    SITE_ONLINE_EXECUTE,
    SITE_KERNEL_DISPATCH,
    SITE_CONN_SEND,
    SITE_CONN_RECV,
    SITE_REPLICA_HEARTBEAT,
    SITE_REPLICA_CRASH,
)

#: env var tests/CI use to seed their fault plans (matrixed in CI).
FAULT_SEED_ENV_VAR = "REPRO_FAULT_SEED"


def fault_seed_from_env(default: int = 0) -> int:
    """The CI fault seed (``REPRO_FAULT_SEED``), or ``default``."""
    try:
        return int(os.environ.get(FAULT_SEED_ENV_VAR, default))
    except ValueError:
        return default


def _unit_hash(*parts) -> float:
    """Deterministic uniform in [0, 1) from a hash of ``parts`` (no RNG state)."""
    blob = ":".join(str(part) for part in parts).encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: where, what kind, and when it fires.

    A rule fires at an occurrence when the occurrence index (1-based, per
    site and kind) is in ``fires``, **or** when ``rate > 0`` and the
    occurrence's seeded coin lands under it -- capped by ``max_fires``.
    The coin is a pure hash of ``(plan seed, site, kind, occurrence)``, so
    the same plan replays the same schedule in any process.

    ``kind``:

    ``"raise"``
        Raise ``error(message, site=...)`` (the ``site`` keyword only for
        :class:`~repro.errors.FaultError` subclasses -- plain exception
        types like ``OSError`` get just the message).
    ``"delay"``
        Sleep ``delay_seconds`` (timeout/backoff testing).
    ``"corrupt"``
        Flip the payload's bytes once at a :func:`maybe_corrupt` site
        (integrity-path testing: the plan store's digest must catch it).
    """

    site: str
    kind: str = "raise"
    fires: tuple[int, ...] = ()
    rate: float = 0.0
    max_fires: int | None = None
    error: type[BaseException] = TransientFault
    message: str = ""
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ProtocolError(
                f"unknown fault site {self.site!r}; expected one of {ALL_SITES}"
            )
        if self.kind not in ("raise", "delay", "corrupt"):
            raise ProtocolError(f"unknown fault kind {self.kind!r}")
        if not (0.0 <= self.rate <= 1.0):
            raise ProtocolError("fault rate must be in [0, 1]")
        if not self.fires and self.rate == 0.0:
            raise ProtocolError(
                "a fault rule needs explicit occurrence indices (fires=...) "
                "or a positive rate"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules -- the replayable failure schedule."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def for_site(self, site: str, kind_group: str) -> tuple[FaultRule, ...]:
        """Rules of ``site`` in the given evaluation group.

        ``"inject"`` covers raise/delay rules (evaluated by
        :func:`maybe_inject`); ``"corrupt"`` covers corruption rules
        (evaluated by :func:`maybe_corrupt`).  The two groups keep separate
        occurrence counters.
        """
        kinds = ("corrupt",) if kind_group == "corrupt" else ("raise", "delay")
        return tuple(r for r in self.rules if r.site == site and r.kind in kinds)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the injector's replay log)."""

    site: str
    kind: str
    occurrence: int
    detail: str = ""


#: default bound on the retained :class:`FaultEvent` replay window; the
#: fleet's drain/heartbeat threads visit sites indefinitely, so an unbounded
#: event list would grow for the lifetime of a long-running process.
DEFAULT_MAX_EVENTS = 4096


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the registered runtime sites.

    Thread-safe: occurrence counters and the event log sit behind one lock
    (sites are hit from drain loops and the fleet router's heartbeat/receiver
    threads).  The event log is a *bounded* replay window (``max_events``, default :data:`DEFAULT_MAX_EVENTS`):
    older events are discarded once the cap is reached, while the fired
    *counters* stay exact forever -- see :meth:`fired_count`.
    """

    def __init__(self, plan: FaultPlan, *, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 1:
            raise ProtocolError("max_events must be at least 1")
        self.plan = plan
        self.max_events = max_events
        self._lock = threading.Lock()
        self._occurrences: dict[tuple[str, str], int] = {}
        self._fired: dict[tuple[str, str], int] = {}
        self._fired_by_site: dict[str, int] = {}  # guarded_by: _lock
        self._total_fired = 0  # guarded_by: _lock
        self._events: deque[FaultEvent] = deque(maxlen=max_events)

    # -- evaluation ----------------------------------------------------------
    def _next_occurrence(self, site: str, group: str) -> int:
        key = (site, group)
        self._occurrences[key] = self._occurrences.get(key, 0) + 1
        return self._occurrences[key]

    def _log_fired_locked(self, rule: FaultRule, event: FaultEvent) -> None:
        """Record one firing.  Caller holds ``_lock``.

        The counters are exact for the injector's lifetime; only the event
        *log* is bounded (the deque discards its oldest entry past
        ``max_events``).
        """
        self._fired[(rule.site, rule.kind)] = (
            self._fired.get((rule.site, rule.kind), 0) + 1
        )
        self._fired_by_site[event.site] = self._fired_by_site.get(event.site, 0) + 1
        self._total_fired += 1
        self._events.append(event)

    def _rule_fires(self, rule: FaultRule, occurrence: int) -> bool:
        if rule.max_fires is not None:
            fired = self._fired.get((rule.site, rule.kind), 0)
            if fired >= rule.max_fires:
                return False
        if occurrence in rule.fires:
            return True
        if rule.rate > 0.0:
            coin = _unit_hash(self.plan.seed, rule.site, rule.kind, occurrence)
            return coin < rule.rate
        return False

    def visit(self, site: str, detail: str = "") -> None:
        """Evaluate the raise/delay rules of ``site`` for one occurrence."""
        to_raise: BaseException | None = None
        delay = 0.0
        with self._lock:
            occurrence = self._next_occurrence(site, "inject")
            for rule in self.plan.for_site(site, "inject"):
                if not self._rule_fires(rule, occurrence):
                    continue
                self._log_fired_locked(
                    rule, FaultEvent(site, rule.kind, occurrence, detail)
                )
                if rule.kind == "delay":
                    delay = rule.delay_seconds
                else:
                    message = rule.message or (
                        f"injected {rule.error.__name__} at {site} "
                        f"(occurrence {occurrence})"
                    )
                    try:
                        to_raise = rule.error(message, site=site)
                    except TypeError:
                        # Plain exception types (OSError, ...) take no site.
                        to_raise = rule.error(message)
                break  # first firing rule wins this occurrence
        if delay > 0.0:
            time.sleep(delay)
        if to_raise is not None:
            raise to_raise

    def corrupt(self, site: str, blob: bytes) -> bytes:
        """Apply ``site``'s corruption rules to ``blob`` for one occurrence."""
        with self._lock:
            occurrence = self._next_occurrence(site, "corrupt")
            for rule in self.plan.for_site(site, "corrupt"):
                if not self._rule_fires(rule, occurrence):
                    continue
                self._log_fired_locked(
                    rule, FaultEvent(site, "corrupt", occurrence, f"{len(blob)} bytes")
                )
                # Invert every byte: unambiguous, content-independent damage
                # that any integrity digest must catch.
                return bytes(b ^ 0xFF for b in blob)
        return blob

    # -- observability -------------------------------------------------------
    def occurrences(self, site: str, group: str = "inject") -> int:
        with self._lock:
            return self._occurrences.get((site, group), 0)

    def fired_count(self, site: str | None = None) -> int:
        """Faults that actually fired (at ``site``, or anywhere).

        Counted from dedicated counters, not the event log, so the figure
        stays exact even after the bounded log (``max_events``) has
        discarded its oldest entries.
        """
        with self._lock:
            if site is None:
                return self._total_fired
            return self._fired_by_site.get(site, 0)

    def events(self) -> list[FaultEvent]:
        """The retained replay window: the most recent ``max_events`` firings.

        Older events are discarded once the cap is hit; use
        :meth:`fired_count` for exact lifetime totals.
        """
        with self._lock:
            return list(self._events)


# -- process-global activation ----------------------------------------------

_active_lock = threading.Lock()
_active: FaultInjector | None = None


def set_fault_injector(injector: FaultInjector | None) -> None:
    """Install (or clear) the process-global injector."""
    global _active
    with _active_lock:
        _active = injector


def active_injector() -> FaultInjector | None:
    return _active


@contextmanager
def fault_scope(plan_or_injector: FaultPlan | FaultInjector | None):
    """Activate an injector for a ``with`` block (process-global).

    Mirrors :func:`repro.he.kernels.tier_scope`, but deliberately
    process-global rather than thread-local: the instrumented sites run on
    background threads (drain loop, fleet router) that must see the same
    schedule as the thread entering the scope.  Yields the injector so the
    caller can assert on its event log.  ``None`` is a no-op scope.
    """
    if plan_or_injector is None:
        yield None
        return
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    with _active_lock:
        global _active
        previous = _active
        _active = injector
    try:
        yield injector
    finally:
        with _active_lock:
            _active = previous


def maybe_inject(site: str, detail: str = "") -> None:
    """Evaluate ``site``'s raise/delay fault rules (no-op without a scope)."""
    injector = _active
    if injector is not None:
        injector.visit(site, detail)


def maybe_corrupt(site: str, blob: bytes) -> bytes:
    """Apply ``site``'s corruption rules to ``blob`` (no-op without a scope)."""
    injector = _active
    if injector is not None:
        return injector.corrupt(site, blob)
    return blob


# -- circuit breaker ---------------------------------------------------------

class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe → closed.

    The engine cache holds one per ``(model, variant)`` key: a build fault
    retries once (policy of the caller), a second consecutive failure opens
    the breaker and quarantines the key for ``cooldown_seconds``; the first
    call after the cooldown is admitted as a half-open probe whose outcome
    closes or re-opens the breaker.  ``clock`` is injectable so tests drive
    the cooldown without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        *,
        failure_threshold: int = 2,
        cooldown_seconds: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ProtocolError("failure_threshold must be at least 1")
        if cooldown_seconds < 0:
            raise ProtocolError("cooldown_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a call may proceed (transitions open → half-open probe)."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.cooldown_seconds:
                    self._state = self.HALF_OPEN
                    return True
                return False
            # HALF_OPEN: one probe is already in flight; deny until its
            # outcome is recorded.
            return False

    def retry_after_seconds(self) -> float:
        """Seconds until the breaker half-opens (0 when not open)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            remaining = self.cooldown_seconds - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()


# -- retry policy ------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic backoff and a deadline budget.

    ``max_attempts`` bounds executions per request (1 = fail on first
    error).  Backoff before attempt ``k+1`` is
    ``backoff_seconds * multiplier**(k-1)`` scaled by a seeded jitter in
    ``[1 - jitter, 1 + jitter]`` -- the jitter is a pure hash of
    ``(seed, request_id, attempt)``, so a replayed run backs off
    identically.  ``timeout_seconds`` is a *per-request* budget measured
    from first submission and shared across attempts: once exhausted, the
    request fails fast instead of retrying.

    ``retryable`` classifies errors: transient faults (anything with a
    truthy ``retryable`` attribute, i.e. :class:`~repro.errors.TransientFault`
    and subclasses) retry; typed validation errors (``ShapeError``,
    ``ParameterError``) and every other exception fail fast.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    timeout_seconds: float | None = None
    seed: int = field(default_factory=fault_seed_from_env)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ProtocolError("max_attempts must be at least 1")
        if self.backoff_seconds < 0 or self.backoff_multiplier < 1:
            raise ProtocolError("backoff must be non-negative and non-decaying")
        if not (0.0 <= self.jitter <= 1.0):
            raise ProtocolError("jitter must be in [0, 1]")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ProtocolError("timeout_seconds must be positive")

    def retryable(self, error: BaseException) -> bool:
        return bool(getattr(error, "retryable", False))

    def backoff_for(self, request_id: str, attempt: int) -> float:
        """Deterministic backoff before retrying ``request_id``'s ``attempt``."""
        base = self.backoff_seconds * self.backoff_multiplier ** max(0, attempt - 1)
        if self.jitter == 0.0:
            return base
        unit = _unit_hash(self.seed, request_id, attempt)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def budget_remaining(self, submitted_at: float, now: float) -> float:
        """Deadline budget left for a request submitted at ``submitted_at``."""
        if self.timeout_seconds is None:
            return float("inf")
        return self.timeout_seconds - (now - submitted_at)


# -- hook installation --------------------------------------------------------
# The HE kernel layer and the plan store sit *below* the runtime in the
# import graph, so they cannot import this module; instead they each hold a
# module-level hook slot that stays None (near-free dispatch) until this
# module is imported.  Installing on import keeps exactly one injection
# implementation and no import cycle.

def _install_hooks() -> None:
    from ..he import kernels as _he_kernels
    from ..protocols import planstore as _planstore

    _he_kernels._fault_hook = maybe_inject
    _planstore._fault_hook = maybe_inject
    _planstore._corrupt_hook = maybe_corrupt


_install_hooks()
