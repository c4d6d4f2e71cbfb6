"""Functional (simulated) HE backend with faithful operation accounting.

This backend stores packed slot vectors in the clear and applies homomorphic
operations as plain modular arithmetic, while recording every operation on
the shared :class:`~repro.he.tracker.OperationTracker`.  It plays the role
TenSEAL/SEAL would play in a deployment: the *values* it produces are exactly
what the real scheme would decrypt to (the exact backend in
:mod:`repro.he.bfv` verifies this equivalence in the test-suite), and the
*operation counts* it records are what the latency and communication models
consume.

A simulated noise budget is still tracked so that parameter-exhaustion bugs
(too many chained plaintext multiplications for the chosen modulus) surface
in tests rather than silently producing results a real deployment could not.

Transform accounting: the deployed scheme's hot cost is the NTT, so every
simulated handle carries a :class:`~repro.he.ntt.Domain` and every operation
charges the ``ntt_forward`` / ``ntt_inverse`` counts (one per *limb
polynomial*; a ciphertext is two polynomials of ``params.limb_count`` RNS
limbs each) that the corresponding exact-backend operation actually
executes.  With the default evaluation-domain residency
the linear hot path charges zero transforms per plaintext product (the
plan-time :meth:`SimulatedHEBackend.encode_plain_eval` pre-transformation
pays one forward, once); constructing the backend with
``eval_residency=False`` models the historical coefficient-resident
pipeline, where every plaintext product pays the full five-transform round
trip.  Slot *values* are identical in both modes -- residency only changes
what the tracker records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NoiseBudgetExhausted, ParameterError
from .backend import HEBackend
from .ntt import Domain
from .params import BFVParameters, paper_parameters
from .tracker import OperationTracker

__all__ = ["SimulatedCiphertext", "SimulatedEvalPlain", "SimulatedHEBackend"]


@dataclass
class SimulatedCiphertext:
    """A simulated ciphertext: packed residues plus a noise-bound estimate.

    ``domain`` mirrors the residency of the deployed ciphertext this handle
    stands for; the slot values are representation-independent (the NTT is
    a bijection), so it only drives the transform accounting.
    """

    slots: np.ndarray
    noise_bound: float
    domain: Domain = Domain.EVAL

    @property
    def length(self) -> int:
        return int(self.slots.size)


@dataclass(frozen=True)
class SimulatedEvalPlain:
    """A plaintext vector pre-transformed (at plan time) into EVAL form.

    Passing one of these to :meth:`SimulatedHEBackend.mul_plain` models a
    product against an NTT-form plaintext cached in the plan: zero
    transforms at use time.  The one forward transform was charged when
    :meth:`SimulatedHEBackend.encode_plain_eval` built it.
    """

    slots: np.ndarray

    @property
    def length(self) -> int:
        return int(self.slots.size)


class SimulatedHEBackend(HEBackend):
    """Slot-accurate functional simulation of the SEAL PAHE layer."""

    def __init__(self, params: BFVParameters | None = None, *,
                 tracker: OperationTracker | None = None,
                 eval_residency: bool = True) -> None:
        self.params = params if params is not None else paper_parameters()
        self.tracker = tracker if tracker is not None else OperationTracker()
        self._fresh_noise = self.params.error_stddev * (
            2 * self.params.ring_degree + 2
        )
        self._domain = Domain.EVAL if eval_residency else Domain.COEFF
        # Every transform charge below is per limb polynomial: the deployed
        # double-CRT scheme runs one <=30-bit NTT per RNS limb.
        self._limbs = self.params.limb_count

    @property
    def supports_slotwise_plain(self) -> bool:
        """Slot-wise plaintext products are native here (CRT-batched SEAL)."""
        return True

    @property
    def eval_resident(self) -> bool:
        """True when fresh handles are modeled as NTT-resident (default)."""
        return self._domain is Domain.EVAL

    # -- helpers -----------------------------------------------------------
    def _check_length(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ParameterError("expected a 1-D residue vector")
        if values.size > self.params.slot_count:
            raise ParameterError(
                f"cannot pack {values.size} values into "
                f"{self.params.slot_count} slots"
            )
        return np.mod(values, self.params.plaintext_modulus)

    def noise_budget(self, handle: SimulatedCiphertext) -> float:
        """Bits of noise headroom remaining (same analytic model as BFV).

        The limit is computed from the *deployed* modulus size (e.g. 60 bits
        for a Gazelle-style SEAL instantiation), since that is the scheme
        whose behaviour this backend simulates.
        """
        limit = (2.0 ** self.params.deployed_log_q) / (2.0 * self.params.plaintext_modulus)
        if handle.noise_bound <= 0:
            return math.log2(limit)
        return math.log2(limit) - math.log2(handle.noise_bound)

    # -- transform accounting ------------------------------------------------
    def _charge_encrypt_transforms(self, count: int = 1, *, public: bool = False) -> None:
        """Transforms ``count`` encryptions execute, per limb per ciphertext.

        Secret-key encryption (:meth:`BFVContext.encrypt_batch`) is one
        forward into EVAL form, plus two inverses into COEFF form.  The
        public-key encryption of zero (:meth:`BFVContext.zero_ciphertext`)
        is three forwards into EVAL form, or one forward and two inverses.
        """
        if self._domain is Domain.COEFF:
            self.tracker.record_transforms(
                forward=count * self._limbs, inverse=2 * count * self._limbs
            )
        else:
            self.tracker.record_transforms(
                forward=(3 if public else 1) * count * self._limbs
            )

    def _charge_decrypt_transforms(self, handles) -> None:
        """One inverse per limb per EVAL ciphertext; forward + inverse per COEFF one."""
        eval_count = sum(1 for h in handles if h.domain is Domain.EVAL)
        coeff_count = len(handles) - eval_count
        self.tracker.record_transforms(
            forward=coeff_count * self._limbs,
            inverse=(coeff_count + eval_count) * self._limbs,
        )

    def _binary_domain(self, a: SimulatedCiphertext, b: SimulatedCiphertext) -> Domain:
        """Result domain of ``a ± b``; mixed operands charge the crossing.

        Matches :meth:`BFVContext._aligned`: the COEFF operand converts up
        to EVAL (two transforms -- one per polynomial), so a transform-lazy
        pipeline that never mixes domains is charged nothing.
        """
        if a.domain is b.domain:
            return a.domain
        self.tracker.record_transforms(forward=2 * self._limbs)
        return Domain.EVAL

    # -- HEBackend interface -------------------------------------------------
    def encrypt(self, values: np.ndarray) -> SimulatedCiphertext:
        return self.encrypt_batch([values])[0]

    def decrypt(self, handle: SimulatedCiphertext) -> np.ndarray:
        if self.noise_budget(handle) <= 0:
            raise NoiseBudgetExhausted(
                "simulated ciphertext noise budget exhausted; the chosen BFV "
                "parameters could not decrypt this result"
            )
        self.tracker.record("decrypt")
        self._charge_decrypt_transforms([handle])
        return handle.slots.copy()

    def add(self, a: SimulatedCiphertext, b: SimulatedCiphertext) -> SimulatedCiphertext:
        self.tracker.record("he_add")
        domain = self._binary_domain(a, b)
        slots = self._aligned_binary(a, b, np.add)
        return SimulatedCiphertext(
            slots=slots, noise_bound=a.noise_bound + b.noise_bound, domain=domain
        )

    def sub(self, a: SimulatedCiphertext, b: SimulatedCiphertext) -> SimulatedCiphertext:
        self.tracker.record("he_add")
        domain = self._binary_domain(a, b)
        slots = self._aligned_binary(a, b, np.subtract)
        return SimulatedCiphertext(
            slots=slots, noise_bound=a.noise_bound + b.noise_bound, domain=domain
        )

    def _aligned_binary(self, a: SimulatedCiphertext, b: SimulatedCiphertext, op) -> np.ndarray:
        t = self.params.plaintext_modulus
        length = max(a.length, b.length)
        left = np.zeros(length, dtype=np.int64)
        right = np.zeros(length, dtype=np.int64)
        left[: a.length] = a.slots
        right[: b.length] = b.slots
        return np.mod(op(left, right), t)

    def add_plain(self, a: SimulatedCiphertext, values: np.ndarray) -> SimulatedCiphertext:
        values = self._check_length(values)
        self.tracker.record("he_add_plain")
        if a.domain is Domain.EVAL:
            # The scaled message polynomial crosses into the evaluation
            # domain once (per limb); the ciphertext itself never leaves it.
            self.tracker.record_transforms(forward=self._limbs)
        length = max(a.length, values.size)
        left = np.zeros(length, dtype=np.int64)
        right = np.zeros(length, dtype=np.int64)
        left[: a.length] = a.slots
        right[: values.size] = values
        slots = np.mod(left + right, self.params.plaintext_modulus)
        return SimulatedCiphertext(
            slots=slots, noise_bound=a.noise_bound + 1.0, domain=a.domain
        )

    def mul_scalar(self, a: SimulatedCiphertext, scalar: int) -> SimulatedCiphertext:
        t = self.params.plaintext_modulus
        scalar = int(scalar) % t
        centered = scalar - t if scalar > t // 2 else scalar
        self.tracker.record("he_mul_plain")
        return SimulatedCiphertext(
            slots=np.mod(a.slots * centered, t),
            noise_bound=a.noise_bound * max(1, abs(centered)),
            domain=a.domain,
        )

    def encode_plain_eval(self, values: np.ndarray) -> SimulatedEvalPlain:
        """Pre-transform a plaintext vector at plan time (one forward per limb, once)."""
        values = self._check_length(values)
        self.tracker.record_transforms(forward=self._limbs)
        return SimulatedEvalPlain(slots=values.copy())

    def mul_plain(
        self, a: SimulatedCiphertext, values: np.ndarray | SimulatedEvalPlain
    ) -> SimulatedCiphertext:
        pre_transformed = isinstance(values, SimulatedEvalPlain)
        if pre_transformed:
            values = values.slots
        values = self._check_length(values)
        t = self.params.plaintext_modulus
        centered = np.where(values > t // 2, values - t, values)
        length = max(a.length, values.size)
        left = np.zeros(length, dtype=np.int64)
        right = np.zeros(length, dtype=np.int64)
        left[: a.length] = a.slots
        right[: values.size] = centered
        self.tracker.record("he_mul_plain")
        # Transform economy of the deployed slot-wise product (products are
        # pointwise in EVAL form), mirroring BFVContext.multiply_plain_poly
        # charge for charge: an EVAL-resident ciphertext pays one forward
        # for a raw plaintext and nothing for a pre-transformed one; a
        # COEFF-resident ciphertext pays the full round trip for a raw
        # plaintext (two forwards for the ciphertext pair, one for the
        # plaintext, two inverses back) but converts *up* for a
        # pre-transformed one (two forwards, result stays EVAL-resident).
        result_domain = a.domain
        if pre_transformed:
            if a.domain is not Domain.EVAL:
                self.tracker.record_transforms(forward=2 * self._limbs)
                result_domain = Domain.EVAL
        elif a.domain is Domain.EVAL:
            self.tracker.record_transforms(forward=self._limbs)
        else:
            self.tracker.record_transforms(
                forward=3 * self._limbs, inverse=2 * self._limbs
            )
        norm = float(np.max(np.abs(centered))) if centered.size else 1.0
        return SimulatedCiphertext(
            slots=np.mod(left * right, t),
            noise_bound=a.noise_bound * max(1.0, norm),
            domain=result_domain,
        )

    def fused_mul_accumulate(
        self, terms: list[tuple[SimulatedCiphertext, np.ndarray | SimulatedEvalPlain]]
    ) -> SimulatedCiphertext | None:
        """Fused ``sum_k mul_plain(handle_k, operand_k)`` (BSGS inner loop).

        One stacked product-and-sum with a single final reduction instead
        of per-diagonal intermediate ciphertexts.  ``mod`` distributes over
        the sum, so slots are bit-identical to the reference loop; noise is
        accumulated in the loop's float order and the tracker receives the
        same ``he_mul_plain``/``he_add``/transform charges.  Falls back to
        the loop under the ``reference`` tier or for non-uniform terms
        (mixed operand kinds, domains or lengths).
        """
        if not terms:
            return None
        from . import kernels

        tier = kernels.active_tier(self.params.kernel_tier)
        if not tier.fused or len(terms) == 1:
            return super().fused_mul_accumulate(terms)
        handles = [handle for handle, _ in terms]
        operands = [operand for _, operand in terms]
        pre_transformed = isinstance(operands[0], SimulatedEvalPlain)
        domain = handles[0].domain
        if any(
            isinstance(operand, SimulatedEvalPlain) is not pre_transformed
            for operand in operands
        ) or any(handle.domain is not domain for handle in handles):
            return super().fused_mul_accumulate(terms)
        t = self.params.plaintext_modulus
        values = [
            operand.slots if pre_transformed else np.asarray(operand, dtype=np.int64)
            for operand in operands
        ]
        length0 = handles[0].length
        size0 = values[0].size
        if any(handle.length != length0 for handle in handles) or any(
            value.size != size0 for value in values
        ):
            return super().fused_mul_accumulate(terms)
        k = len(terms)
        if k * (t // 2) * (t - 1) >= 1 << 62:
            # The unreduced int64 sum of products could overflow; take the
            # reference loop, which reduces after every term.
            return super().fused_mul_accumulate(terms)
        checked = np.stack([self._check_length(value) for value in values])
        centered = np.where(checked > t // 2, checked - t, checked)     # (k, size0)
        length = max(length0, size0)
        left = np.zeros((k, length), dtype=np.int64)
        right = np.zeros((k, length), dtype=np.int64)
        left[:, :length0] = np.stack([handle.slots for handle in handles])
        right[:, :size0] = centered
        slots = np.mod(np.sum(left * right, axis=0), t)
        # Accounting: identical totals to k mul_plain calls + (k-1) adds.
        self.tracker.record("he_mul_plain", count=k)
        result_domain = domain
        if pre_transformed:
            if domain is not Domain.EVAL:
                self.tracker.record_transforms(forward=2 * self._limbs * k)
                result_domain = Domain.EVAL
        elif domain is Domain.EVAL:
            self.tracker.record_transforms(forward=self._limbs * k)
        else:
            self.tracker.record_transforms(
                forward=3 * self._limbs * k, inverse=2 * self._limbs * k
            )
        self.tracker.record("he_add", count=k - 1)
        noise = 0.0
        for index, handle in enumerate(handles):
            norm = (
                float(np.max(np.abs(centered[index]))) if centered[index].size else 1.0
            )
            term_noise = handle.noise_bound * max(1.0, norm)
            noise = term_noise if index == 0 else noise + term_noise
        return SimulatedCiphertext(
            slots=slots, noise_bound=noise, domain=result_domain
        )

    def rotate(self, a: SimulatedCiphertext, steps: int) -> SimulatedCiphertext:
        """Cyclic slot rotation over the handle's *packed length*.

        The rotation period is ``a.length`` (the number of slots the caller
        packed), not the ring's full slot count.  A deployed scheme realises
        a rotation that is cyclic over a packed sub-vector with the standard
        Gazelle-style general rotation -- two Galois automorphisms plus a
        masking plaintext product -- or by padding the packed length to
        divide the slot structure; either way it is one rotation-key
        application per call, which is what the tracker charges.  The BSGS
        kernel (:mod:`repro.he.bsgs`) depends on this period contract.
        """
        self.tracker.record("he_rotate")
        # Transform-free in both domains: a Galois automorphism permutes the
        # evaluation points of an EVAL-resident ciphertext and the
        # coefficients of a COEFF-resident one (key switching is what
        # ``he_rotate``'s latency constant charges).
        return SimulatedCiphertext(
            slots=np.roll(a.slots, -steps),
            noise_bound=a.noise_bound + self._fresh_noise,
            domain=a.domain,
        )

    def zero(self, length: int) -> SimulatedCiphertext:
        self.tracker.record("encrypt", bytes_moved=self.params.ciphertext_bytes)
        self._charge_encrypt_transforms(public=True)
        return SimulatedCiphertext(
            slots=np.zeros(max(1, length), dtype=np.int64),
            noise_bound=self._fresh_noise,
            domain=self._domain,
        )

    # -- batch interface -----------------------------------------------------
    def encrypt_batch(self, values_list: list[np.ndarray]) -> list[SimulatedCiphertext]:
        """Encrypt many vectors; accounting stays one ``encrypt`` per ciphertext."""
        if not values_list:
            return []
        checked = [self._check_length(values) for values in values_list]
        self.tracker.record(
            "encrypt",
            count=len(checked),
            bytes_moved=len(checked) * self.params.seeded_ciphertext_bytes,
        )
        self._charge_encrypt_transforms(len(checked))
        return [
            SimulatedCiphertext(
                slots=values.copy(), noise_bound=self._fresh_noise,
                domain=self._domain,
            )
            for values in checked
        ]

    def decrypt_batch(self, handles: list[SimulatedCiphertext]) -> list[np.ndarray]:
        if not handles:
            return []
        for handle in handles:
            if self.noise_budget(handle) <= 0:
                raise NoiseBudgetExhausted(
                    "simulated ciphertext noise budget exhausted; the chosen BFV "
                    "parameters could not decrypt this result"
                )
        self.tracker.record("decrypt", count=len(handles))
        self._charge_decrypt_transforms(handles)
        return [handle.slots.copy() for handle in handles]
