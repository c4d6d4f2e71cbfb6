"""Explicit offline-phase artifacts: the :class:`OfflinePlan`.

The paper's central systems idea (HGS/FHGS/CHGS) is that *all* expensive HE
work happens before the input arrives.  Historically the reproduction kept
that pre-processing as hidden mutable state inside each protocol module
(``HGSLinearLayer._client_mask`` and friends), which made the offline phase
impossible to schedule: it could only ever run in-place, on the thread that
owned the module, immediately before the online phase.

This module makes the offline phase a first-class value instead.  Every
protocol module now splits its old ``offline()`` into

* ``prepare(phase=...)`` -- runs the HE exchange and returns a frozen *plan*
  (masks, offline shares, encrypted cross-term operands) without touching
  the module's execution state, and
* ``install(plan)`` -- adopts a previously prepared plan, after which
  ``online()`` may run.

``offline()`` survives as the trivial composition ``install(prepare())`` so
existing callers are unchanged.  At the engine level,
:meth:`~repro.protocols.primer.PrivateTransformerInference.prepare` gathers
one plan per named module into an :class:`OfflinePlan`, which the serving
runtime caches with its engine and persists across processes through the
plan store -- possible precisely because the plan is a plain immutable
artifact.

Plan layout
-----------

:class:`HGSPlan`
    ``Rc`` (client mask), ``Rs`` (server mask) and the client's decrypted
    offline share ``Rc @ W + Rs`` for one HGS linear layer.
:class:`FHGSPlan`
    Both operand masks, the encrypted mask packings kept for the online
    cross terms, and the shared mask-product ("quadratic") term for one
    FHGS/CHGS matrix product.  On an evaluation-resident backend (the
    default since the domain-residency work) the encrypted packings are
    EVAL-form (NTT-domain) handles, so a plan shipped through the
    :mod:`~repro.protocols.planstore` warm-starts an engine whose online
    cross terms run pointwise -- no per-product transform round trips.
:class:`OfflinePlan`
    A frozen mapping ``module name -> module plan`` plus the variant name
    and the phase the exchanges were charged to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ProtocolError
from .channel import Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..he.matmul import PackedMatrix

__all__ = ["HGSPlan", "FHGSPlan", "OfflinePlan", "plan_nbytes"]


def plan_nbytes(obj) -> int:
    """Approximate in-memory footprint of a plan (or any plan fragment).

    Walks dataclasses, mappings and sequences summing the ``nbytes`` of
    every ndarray reached -- masks, offline shares and the slot vectors of
    simulated ciphertext handles all count.  The engine cache uses this as
    the byte weight of a cached engine for its eviction budget; it is a
    proxy (python object overhead is ignored), but it tracks the arrays
    that dominate a plan's real size.
    """
    seen: set[int] = set()

    def walk(value) -> int:
        if value is None or isinstance(value, (str, bytes, int, float, bool)):
            return 0
        if id(value) in seen:
            return 0
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            return int(value.nbytes)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return sum(
                walk(getattr(value, f.name)) for f in dataclasses.fields(value)
            )
        if isinstance(value, Mapping):
            return sum(walk(item) for item in value.values())
        if isinstance(value, (list, tuple, set, frozenset)):
            return sum(walk(item) for item in value)
        return 0

    return walk(obj)


@dataclass(frozen=True)
class HGSPlan:
    """Offline artifact of one :class:`~repro.protocols.hgs.HGSLinearLayer`.

    After the offline exchange the client holds ``client_offline_share =
    Rc @ W + Rs`` and the server holds ``server_mask = Rs``; together with
    ``client_mask = Rc`` these are everything the online phase needs.
    """

    client_mask: np.ndarray
    server_mask: np.ndarray
    client_offline_share: np.ndarray

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.client_mask.shape)


@dataclass(frozen=True)
class FHGSPlan:
    """Offline artifact of one :class:`~repro.protocols.fhgs.FHGSMatmul`.

    ``enc_left_cols`` / ``enc_right_rows`` are the encrypted mask packings
    the server re-uses for the online cross terms; ``quad_client`` /
    ``quad_server`` are the two parties' shares of the mask-product term.
    ``enc_weighted_right_rows`` is only present for the right-weighted
    (combined value-projection) mode.

    When ``slot_sharing > 1`` the plan additionally carries *tiled*
    packings: every handle's packed vector replicated ``slot_sharing``
    times, so the online cross terms of up to ``slot_sharing`` compatible
    requests pack block-diagonally into shared ciphertext slots (request
    ``r`` occupies slot block ``r``) and a ``k``-request batch ships
    ``~1/k`` the cross-term ciphertexts.
    """

    left_mask: np.ndarray
    right_mask: np.ndarray
    enc_left_cols: PackedMatrix
    enc_right_rows: PackedMatrix
    quad_client: np.ndarray
    quad_server: np.ndarray
    enc_weighted_right_rows: PackedMatrix | None = None
    #: block-diagonal slot-sharing capacity (1 = classic per-request plan)
    slot_sharing: int = 1
    enc_left_cols_tiled: PackedMatrix | None = None
    enc_right_rows_tiled: PackedMatrix | None = None
    enc_weighted_right_rows_tiled: PackedMatrix | None = None

    @property
    def operand_shapes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(self.left_mask.shape), tuple(self.right_mask.shape)


@dataclass(frozen=True)
class OfflinePlan:
    """The complete offline phase of one engine, as an immutable value.

    Produced by ``PrivateTransformerInference.prepare()`` and consumed by
    ``install()``; the mapping is keyed by the engine's stable module names
    (``"embedding"``, ``"block0.qkv.query"``, ``"block1.scores.0"``, ...).
    """

    variant: str
    phase: Phase
    modules: Mapping[str, HGSPlan | FHGSPlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the mapping so a plan can be shared across threads safely.
        object.__setattr__(self, "modules", MappingProxyType(dict(self.modules)))

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from a plain dict so a
        # plan can cross process boundaries (the plan store pickles plans to
        # disk for later processes).
        return (OfflinePlan, (self.variant, self.phase, dict(self.modules)))

    def __len__(self) -> int:
        return len(self.modules)

    def module_names(self) -> list[str]:
        return list(self.modules)

    def module(self, name: str) -> HGSPlan | FHGSPlan:
        if name not in self.modules:
            raise ProtocolError(f"offline plan has no module {name!r}")
        return self.modules[name]

    def approx_nbytes(self) -> int:
        """Approximate footprint of every array this plan holds on to."""
        return plan_nbytes(self)
