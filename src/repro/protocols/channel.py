"""Two-party communication channel with byte/round accounting.

The paper's system setup (Section IV) is two Xeon instances with an average
network delay of 2.3 ms and about 100 MB/s of bandwidth.  Latency in a
Gazelle/Delphi-style hybrid protocol is therefore a function of three things:
cryptographic compute, bytes on the wire, and the number of *rounds*
(interactions), each of which pays the network delay.

:class:`Channel` records every message a protocol sends, tagged with the
phase (offline or online) and a free-form step label (``"embedding"``,
``"qk_product"``, ...), so that the cost model can reproduce the per-step
breakdown of the paper's Table II and the message sizes of Table III.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

__all__ = ["Phase", "Message", "NetworkModel", "Channel"]


class Phase(enum.Enum):
    """Offline (pre-processing) vs online (inference-time) traffic."""

    OFFLINE = "offline"
    ONLINE = "online"


@dataclass(frozen=True)
class Message:
    """One protocol message."""

    sender: str
    receiver: str
    num_bytes: int
    phase: Phase
    step: str
    description: str = ""
    #: serving-runtime request this message belongs to (None for shared setup)
    request: str | None = None


@dataclass(frozen=True)
class NetworkModel:
    """Latency model of the link between the two instances."""

    delay_seconds: float = 2.3e-3
    bandwidth_bytes_per_second: float = 100e6

    def transfer_time(self, num_bytes: int, rounds: int = 1) -> float:
        """Wall-clock time to move ``num_bytes`` over ``rounds`` interactions."""
        return rounds * self.delay_seconds + num_bytes / self.bandwidth_bytes_per_second


@dataclass
class Channel:
    """Message log shared by the two parties of a protocol run."""

    network: NetworkModel = field(default_factory=NetworkModel)
    messages: list[Message] = field(default_factory=list)
    #: when True, every ``send`` *waits out* the network model's transfer
    #: time instead of only recording it -- the serving runtime uses this to
    #: emulate the paper's two-instance deployment, where the offline
    #: phase's many rounds genuinely occupy the wire
    realize_network: bool = False
    _current_step: str = "unlabelled"
    _current_phase: Phase = Phase.ONLINE
    _current_request: str | None = None
    #: incremental per-(request, phase) and per-phase [bytes, rounds], so
    #: per-request and per-phase reporting stay O(1) as the message log
    #: grows over a serving run
    _request_totals: dict = field(default_factory=dict, repr=False)
    _phase_totals: dict = field(default_factory=dict, repr=False)

    # -- step/phase labelling ------------------------------------------------
    def set_context(self, *, step: str | None = None, phase: Phase | None = None) -> None:
        """Set the step/phase labels applied to subsequently sent messages."""
        if step is not None:
            self._current_step = step
        if phase is not None:
            self._current_phase = phase

    def set_request(self, request_id: str | None) -> None:
        """Attribute subsequently sent messages to a serving request.

        Pass ``None`` to return to unattributed (shared setup) traffic; the
        per-request byte/round aggregations below let the serving runtime
        report an exact communication breakdown per request.
        """
        self._current_request = request_id

    # -- sending -------------------------------------------------------------
    def send(
        self,
        sender: str,
        receiver: str,
        num_bytes: int,
        *,
        description: str = "",
        step: str | None = None,
        phase: Phase | None = None,
    ) -> None:
        """Record one message of ``num_bytes`` bytes."""
        if self.realize_network:
            time.sleep(self.network.transfer_time(int(num_bytes)))
        message = Message(
            sender=sender,
            receiver=receiver,
            num_bytes=int(num_bytes),
            phase=phase if phase is not None else self._current_phase,
            step=step if step is not None else self._current_step,
            description=description,
            request=self._current_request,
        )
        self.messages.append(message)
        totals = self._phase_totals.setdefault(message.phase, [0, 0])
        totals[0] += message.num_bytes
        totals[1] += 1
        if message.request is not None:
            totals = self._request_totals.setdefault((message.request, message.phase), [0, 0])
            totals[0] += message.num_bytes
            totals[1] += 1

    # -- aggregation -----------------------------------------------------------
    def _filtered(
        self, phase: Phase | None, step: str | None, request: str | None
    ) -> list[Message]:
        return [
            m
            for m in self.messages
            if (phase is None or m.phase is phase)
            and (step is None or m.step == step)
            and (request is None or m.request == request)
        ]

    def _running_total(self, request: str | None, phase: Phase | None, index: int) -> int:
        """``index`` 0 (bytes) or 1 (rounds) of the incremental totals."""
        if request is None:
            totals = self._phase_totals
            if phase is None:
                return sum(pair[index] for pair in totals.values())
            return totals.get(phase, (0, 0))[index]
        if phase is None:
            return sum(
                pair[index]
                for (tagged, _), pair in self._request_totals.items()
                if tagged == request
            )
        return self._request_totals.get((request, phase), (0, 0))[index]

    def total_bytes(
        self,
        phase: Phase | None = None,
        step: str | None = None,
        request: str | None = None,
    ) -> int:
        """Total bytes sent, optionally filtered by phase/step/request."""
        if step is None:
            # O(1) incremental path: per-request and per-phase reporting
            # must not rescan the whole (ever-growing) message log.
            return self._running_total(request, phase, 0)
        return sum(m.num_bytes for m in self._filtered(phase, step, request))

    def round_count(
        self,
        phase: Phase | None = None,
        step: str | None = None,
        request: str | None = None,
    ) -> int:
        """Number of interactions (messages), optionally filtered."""
        if step is None:
            return self._running_total(request, phase, 1)
        return len(self._filtered(phase, step, request))

    def requests(self) -> list[str]:
        """Distinct request tags seen so far, in first-appearance order."""
        seen: list[str] = []
        for message in self.messages:
            if message.request is not None and message.request not in seen:
                seen.append(message.request)
        return seen

    def network_time(self, phase: Phase | None = None, step: str | None = None) -> float:
        """Simulated network time for the (filtered) traffic."""
        return self.network.transfer_time(
            self.total_bytes(phase, step), self.round_count(phase, step)
        )

    def steps(self) -> list[str]:
        """The distinct step labels seen so far, in first-appearance order."""
        seen: list[str] = []
        for message in self.messages:
            if message.step not in seen:
                seen.append(message.step)
        return seen

    def reset(self) -> None:
        """Clear the message log."""
        self.messages.clear()
        self._request_totals.clear()
        self._phase_totals.clear()
