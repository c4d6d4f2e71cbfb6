"""Backend abstraction over the two HE implementations.

The protocols in :mod:`repro.protocols` are written against this small
interface so that they can run either on

* :class:`ExactBFVBackend` -- the real RLWE scheme from :mod:`repro.he.bfv`
  (used by primitive tests and the HGS worked examples at small ring sizes),
  or
* :class:`~repro.he.simulated.SimulatedHEBackend` -- a functional simulator
  that stores slot vectors directly and charges every operation to the shared
  :class:`~repro.he.tracker.OperationTracker` (used for model-scale Primer
  runs and every latency/communication experiment).

Both backends speak in terms of *handles*: opaque objects wrapping a packed
vector of plaintext residues modulo the plaintext modulus ``t``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ParameterError
from .bfv import BFVContext, Ciphertext
from .ntt import Domain
from .params import BFVParameters
from .tracker import OperationTracker

__all__ = ["HEBackend", "ExactBFVBackend", "UnsupportedHEOperation"]


class UnsupportedHEOperation(ParameterError):
    """Raised when a backend cannot express the requested homomorphic op."""


@dataclass
class _ExactHandle:
    """Handle wrapping an exact BFV ciphertext."""

    ciphertext: Ciphertext
    length: int


class HEBackend(abc.ABC):
    """Minimal additive-HE interface used by the Primer protocols."""

    #: parameters shared by both backends
    params: BFVParameters
    tracker: OperationTracker

    @property
    def slot_count(self) -> int:
        """Number of packing slots per ciphertext."""
        return self.params.slot_count

    @property
    def plaintext_modulus(self) -> int:
        return self.params.plaintext_modulus

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext."""
        return self.params.ciphertext_bytes

    @property
    def seeded_ciphertext_bytes(self) -> int:
        """Wire size of one fresh encryption: ``c0`` and ``c1``'s seed."""
        return self.params.seeded_ciphertext_bytes

    @property
    def supports_slotwise_plain(self) -> bool:
        """Whether :meth:`mul_plain` accepts arbitrary (non-constant) vectors.

        True for the CRT-batched simulator; False for the coefficient-packed
        exact scheme.  The rotation-minimal kernels (BSGS diagonals, FHGS
        block-diagonal slot sharing) require it.
        """
        return False

    @property
    def eval_resident(self) -> bool:
        """Whether this backend keeps ciphertexts NTT-resident end to end.

        When True, freshly encrypted handles live in the evaluation domain
        and plaintext products are pointwise.  Kernels that want plan-time
        pre-transformed operands for :meth:`mul_plain` must additionally
        check :attr:`supports_slotwise_plain` before calling
        :meth:`encode_plain_eval` -- the exact backend is EVAL-resident but
        slot-wise products (and thus slot-wise EVAL plaintexts) are the
        simulator's domain; its convolution-operand counterpart lives on
        :meth:`repro.he.bfv.BFVContext.encode_plain_eval`.
        """
        return False

    def encode_plain_eval(self, values: np.ndarray) -> Any:
        """Pre-transform a plaintext vector for transform-free :meth:`mul_plain`.

        One forward transform at encode time (plan time); the returned
        opaque object can be passed to :meth:`mul_plain` in place of the raw
        vector.  Only meaningful on backends with slot-wise plaintext
        products; others raise.
        """
        raise UnsupportedHEOperation(
            "this backend does not support pre-transformed (EVAL-domain) "
            "slot-wise plaintexts; pass the raw vector to mul_plain instead"
        )

    # -- interface ---------------------------------------------------------
    @abc.abstractmethod
    def encrypt(self, values: np.ndarray) -> Any:
        """Encrypt a 1-D vector of residues (length <= slot_count)."""

    @abc.abstractmethod
    def decrypt(self, handle: Any) -> np.ndarray:
        """Decrypt a handle back to its residue vector."""

    @abc.abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Homomorphic ciphertext + ciphertext."""

    @abc.abstractmethod
    def sub(self, a: Any, b: Any) -> Any:
        """Homomorphic ciphertext - ciphertext."""

    @abc.abstractmethod
    def add_plain(self, a: Any, values: np.ndarray) -> Any:
        """Homomorphic ciphertext + plaintext vector."""

    @abc.abstractmethod
    def mul_scalar(self, a: Any, scalar: int) -> Any:
        """Homomorphic ciphertext x plaintext scalar (applied to all slots)."""

    @abc.abstractmethod
    def mul_plain(self, a: Any, values: np.ndarray) -> Any:
        """Homomorphic slot-wise ciphertext x plaintext vector."""

    @abc.abstractmethod
    def rotate(self, a: Any, steps: int) -> Any:
        """Cyclic rotation of the packed slots."""

    @abc.abstractmethod
    def zero(self, length: int) -> Any:
        """Encryption of the all-zero vector of the given length."""

    # -- batch interface ----------------------------------------------------
    # The serving runtime groups many requests into one HE pass; backends
    # override these when they can do better than a Python loop (the exact
    # backend batches the NTT, the simulator vectorizes over a matrix).
    def encrypt_batch(self, values_list: list[np.ndarray]) -> list[Any]:
        """Encrypt many residue vectors (default: loop over :meth:`encrypt`)."""
        return [self.encrypt(values) for values in values_list]

    def decrypt_batch(self, handles: list[Any]) -> list[np.ndarray]:
        """Decrypt many handles (default: loop over :meth:`decrypt`)."""
        return [self.decrypt(handle) for handle in handles]

    # -- fused kernels -------------------------------------------------------
    # The linear hot paths (packed column matmul, BSGS diagonal inner loop)
    # are sums of ciphertext x plaintext products.  These entry points give
    # backends one place to fuse the whole accumulation -- avoiding the
    # per-term intermediate ciphertexts of the naive loop -- while the
    # defaults below ARE that naive loop, so a backend without a fused
    # kernel (or running the ``reference`` kernel tier) is bit- and
    # accounting-identical to the historical code path.
    def linear_combine_batch(
        self, handles: list[Any], weights: np.ndarray
    ) -> list[Any | None]:
        """Many linear combinations ``sum_k handles[k] * weights[k, j]``.

        ``weights`` is ``(len(handles), n_outputs)``; entry ``j`` of the
        result is the ``j``-th combination, or ``None`` when every scalar in
        that column is ``0 mod t`` (callers substitute :meth:`zero`).
        """
        weights = np.asarray(weights, dtype=np.int64)
        t = self.plaintext_modulus
        results: list[Any | None] = []
        for j in range(weights.shape[1]):
            acc = None
            for k, handle in enumerate(handles):
                scalar = int(weights[k, j])
                if scalar % t == 0:
                    continue
                term = self.mul_scalar(handle, scalar)
                acc = term if acc is None else self.add(acc, term)
            results.append(acc)
        return results

    def fused_mul_accumulate(self, terms: list[tuple[Any, Any]]) -> Any | None:
        """``sum_k mul_plain(handle_k, operand_k)`` as one fused step.

        ``terms`` pairs each ciphertext handle with its plaintext operand (a
        raw vector or a pre-transformed :meth:`encode_plain_eval` object).
        Returns ``None`` for an empty term list.
        """
        acc = None
        for handle, operand in terms:
            term = self.mul_plain(handle, operand)
            acc = term if acc is None else self.add(acc, term)
        return acc


class ExactBFVBackend(HEBackend):
    """Adapter exposing :class:`~repro.he.bfv.BFVContext` as an ``HEBackend``.

    Slot-wise multiplication by a non-constant plaintext vector and cyclic
    rotation with wrap-around are not available on the coefficient-packed
    exact scheme without Galois keys, so those raise
    :class:`UnsupportedHEOperation`.  Protocols that only require additive
    operations and scalar products (HGS, and FHGS on packed columns) run
    unmodified on this backend.
    """

    def __init__(self, params: BFVParameters, *, seed: int = 2023,
                 tracker: OperationTracker | None = None,
                 eval_residency: bool = True) -> None:
        self.params = params
        self.tracker = tracker if tracker is not None else OperationTracker()
        self._context = BFVContext(
            params=params, seed=seed, tracker=self.tracker,
            default_domain=Domain.EVAL if eval_residency else Domain.COEFF,
        )

    @property
    def context(self) -> BFVContext:
        """The underlying exact BFV context (exposed for primitive tests)."""
        return self._context

    @property
    def eval_resident(self) -> bool:
        """True when fresh handles are NTT-resident (the default)."""
        return self._context.default_domain is Domain.EVAL

    def encrypt(self, values: np.ndarray) -> _ExactHandle:
        values = np.asarray(values, dtype=np.int64)
        return _ExactHandle(self._context.encrypt(values), length=int(values.size))

    def decrypt(self, handle: _ExactHandle) -> np.ndarray:
        return self._context.decrypt(handle.ciphertext, count=handle.length)

    def encrypt_batch(self, values_list: list[np.ndarray]) -> list[_ExactHandle]:
        arrays = [np.asarray(values, dtype=np.int64) for values in values_list]
        cts = self._context.encrypt_batch(arrays)
        return [
            _ExactHandle(ct, length=int(values.size))
            for ct, values in zip(cts, arrays, strict=True)
        ]

    def decrypt_batch(self, handles: list[_ExactHandle]) -> list[np.ndarray]:
        return self._context.decrypt_batch(
            [handle.ciphertext for handle in handles],
            counts=[handle.length for handle in handles],
        )

    def add(self, a: _ExactHandle, b: _ExactHandle) -> _ExactHandle:
        return _ExactHandle(
            self._context.add(a.ciphertext, b.ciphertext), max(a.length, b.length)
        )

    def sub(self, a: _ExactHandle, b: _ExactHandle) -> _ExactHandle:
        return _ExactHandle(
            self._context.sub(a.ciphertext, b.ciphertext), max(a.length, b.length)
        )

    def add_plain(self, a: _ExactHandle, values: np.ndarray) -> _ExactHandle:
        values = np.asarray(values, dtype=np.int64)
        return _ExactHandle(
            self._context.add_plain(a.ciphertext, values),
            max(a.length, int(values.size)),
        )

    def mul_scalar(self, a: _ExactHandle, scalar: int) -> _ExactHandle:
        return _ExactHandle(
            self._context.multiply_scalar(a.ciphertext, int(scalar)), a.length
        )

    def mul_plain(self, a: _ExactHandle, values: np.ndarray) -> _ExactHandle:
        values = np.asarray(values, dtype=np.int64)
        unique = np.unique(values[: a.length])
        if unique.size == 1:
            return self.mul_scalar(a, int(unique[0]))
        raise UnsupportedHEOperation(
            "slot-wise multiplication by a non-constant vector requires CRT "
            "batching; use SimulatedHEBackend for this protocol step"
        )

    def rotate(self, a: _ExactHandle, steps: int) -> _ExactHandle:
        if a.length + steps > self.params.slot_count:
            raise UnsupportedHEOperation(
                "rotation would wrap packed slots past the ring boundary on "
                "the coefficient-packed exact backend"
            )
        return _ExactHandle(
            self._context.rotate(a.ciphertext, steps), a.length + steps
        )

    def zero(self, length: int) -> _ExactHandle:
        return _ExactHandle(self._context.zero_ciphertext(length), length)

    def linear_combine_batch(
        self, handles: list[_ExactHandle], weights: np.ndarray
    ) -> list[_ExactHandle | None]:
        """All output columns of ``sum_k handles[k] * weights[k, j]`` fused.

        Under a fused kernel tier the ``(C, O)`` scalar matrix contracts
        against the stacked ``(C, 2, L, N)`` ciphertext components in one
        float64 BLAS product with a single final reduction -- no per-term
        scaled copies, no per-addition intermediates.  ``mod`` distributes
        over the sum, so residues are bit-identical to the reference loop;
        noise bounds are accumulated in the loop's exact left-to-right float
        order and the tracker sees identical ``he_mul_plain``/``he_add``
        counts.  Falls back to the reference loop for the ``reference``
        tier, mixed-domain operands, or scalar magnitudes whose unreduced
        sums could reach ``2**53`` (``kernels.FUSED_EXACT_BOUND``), past
        which float64 stops being exact.
        """
        from . import kernels

        weights = np.asarray(weights, dtype=np.int64)
        tier = kernels.active_tier(self.params.kernel_tier)
        if not tier.fused or not handles or weights.shape[1] == 0:
            return super().linear_combine_batch(handles, weights)
        cts = [handle.ciphertext for handle in handles]
        domain = cts[0].domain
        if any(ct.domain is not domain for ct in cts):
            return super().linear_combine_batch(handles, weights)
        t = self.params.plaintext_modulus
        residues = np.mod(weights, t)                                  # (C, O)
        centered = np.where(residues > t // 2, residues - t, residues)
        q_col = self._context._q_col                                   # (L, 1)
        worst_l1 = int(np.abs(centered).sum(axis=0).max())
        if int(q_col.max()) * worst_l1 >= kernels.FUSED_EXACT_BOUND:
            return super().linear_combine_batch(handles, weights)
        stacked = np.stack([np.stack([ct.c0, ct.c1]) for ct in cts])   # (C,2,L,N)
        combined = tier.fused_accumulate(centered, stacked, q_col)     # (O,2,L,N)
        results: list[_ExactHandle | None] = []
        for j in range(weights.shape[1]):
            nonzero = np.flatnonzero(residues[:, j])
            if nonzero.size == 0:
                results.append(None)
                continue
            noise = 0.0
            length = 0
            slots = 0
            for position, k in enumerate(nonzero):
                term_noise = cts[k].noise_bound * max(1, abs(int(centered[k, j])))
                noise = term_noise if position == 0 else noise + term_noise
                length = max(length, handles[k].length)
                slots = max(slots, cts[k].slots_used)
            self.tracker.record("he_mul_plain", count=int(nonzero.size))
            if nonzero.size > 1:
                self.tracker.record("he_add", count=int(nonzero.size) - 1)
            ciphertext = Ciphertext(
                c0=combined[j, 0], c1=combined[j, 1],
                noise_bound=noise, slots_used=slots, domain=domain,
            )
            results.append(_ExactHandle(ciphertext, length))
        return results
