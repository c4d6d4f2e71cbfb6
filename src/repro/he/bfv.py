"""An exact BFV-style additive homomorphic encryption scheme.

This is the "real cryptography" backend of the reproduction.  It implements
exactly the subset of SEAL used by the paper (Section IV: *"only additive HE
operations and rotations are used and ciphertext-ciphertext multiplications
are not required"*):

* key generation (ternary secret, RLWE public key),
* encryption / decryption with invariant-noise tracking,
* ciphertext + ciphertext and ciphertext + plaintext addition / subtraction,
* ciphertext x plaintext polynomial and ciphertext x scalar multiplication,
* monomial rotations (multiplication by ``X**k``), which shift
  coefficient-packed slots.

Slot-wise (CRT-batched) products and Galois-key rotations are intentionally
*not* implemented; the protocols in :mod:`repro.protocols` are formulated so
that their exact-backend instantiation only needs the operations above, and
the packing/rotation experiments that need slot semantics run on the
functional backend in :mod:`repro.he.simulated`, which counts the same
operations the real SEAL deployment would execute.

Evaluation-domain residency: ciphertexts carry an explicit
:class:`~repro.he.ntt.Domain` and are encrypted straight into NTT (EVAL)
form by default, so the linear hot path -- plaintext products, additions,
rotations -- runs pointwise without a single transform and the only inverse
NTT is the one at the decrypt boundary.  Every forward/inverse transform is
recorded on the tracker (``ntt_forward`` / ``ntt_inverse``, one count per
*limb polynomial*), which makes redundant round trips provable bugs rather
than silent slowdowns.  Setting ``default_domain=Domain.COEFF`` restores the
historical coefficient-resident behaviour bit-exactly (the NTT is a linear
bijection, so decrypted residues never depend on residency).

Double-CRT (RNS) ciphertexts: components are limb-major ``(L, N)`` arrays
over an :class:`~repro.he.rns.RNSBasis` of NTT-friendly ≤30-bit primes, so
every limb stays inside the lazy-reduction NTT bound and the int64
pointwise-product invariants while the composite modulus ``Q`` grows to the
60-bit-plus Gazelle-era deployments.  Every operation acts limb-wise in
int64/float64, the encode scaling and the decrypt rounding included (per-limb
constants precomputed from ``Q`` once per context; no big integer on the
per-request path).  Every transform closed form gains a factor ``L`` -- one
NTT per limb polynomial -- and a one-limb basis reproduces the historical
single-modulus scheme bit for bit (same randomness stream, same residues,
same transform counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NoiseBudgetExhausted, ParameterError
from .keys import PublicKey, SecretKey
from .ntt import Domain
from .params import BFVParameters
from .rns import RNSBasis, RNSPolynomialRing
from .tracker import OperationTracker

__all__ = ["Ciphertext", "EvalPlain", "BFVContext", "DECRYPT_MARGIN_BITS"]

#: Largest ``t`` / limb count the int64 encode and float64 decrypt are exact for.
MAX_PLAINTEXT_MODULUS = 1 << 31
MAX_LIMBS = 32


def hps_fraction_error(limbs: int) -> float:
    """Bound on the float64 error of the decrypt fraction ``sum_i x_i theta_i``.

    Each ``theta_i`` in [0, 1) is rounded once (error <= 2**-54) and
    ``x_i < 2**30``; a float dot product of ``L`` terms in any order errs by
    at most ``gamma_L sum |x_i theta_i|``, ``gamma_L = L u / (1 - L u)``,
    ``u = 2**-53`` (Higham, Thm 3.1).  Six limbs give about 2**-17.7.
    """
    gamma = limbs * 2.0**-53 / (1 - limbs * 2.0**-53)
    return limbs * 2.0**30 * (2.0**-54 + gamma)


#: Noise-budget bits below which decryption is refused.  A ciphertext with
#: budget ``b`` sits ``(1 - 2**-b) / 2`` away from a rounding boundary of
#: ``t x / Q``; the float fraction sum can move it by ``hps_fraction_error``,
#: so the rounding is exact whenever ``b > -log2(1 - 2 error)`` (about
#: 3.5e-4 bits at ``MAX_LIMBS``).
DECRYPT_MARGIN_BITS = -math.log2(1 - 2 * hps_fraction_error(MAX_LIMBS))


@dataclass
class Ciphertext:
    """A BFV ciphertext ``(c0, c1)`` plus an analytic noise-bound estimate.

    ``c0`` and ``c1`` are limb-major ``(L, N)`` int64 arrays: row ``i`` holds
    the polynomial's residues modulo the RNS limb ``q_i``.  A single-limb
    configuration is the historical single-modulus scheme with one row.

    ``noise_bound`` is an upper estimate of the infinity norm of the
    invariant noise numerator.  It is updated by every evaluator operation
    and used to report a noise *budget* (bits of headroom left before
    decryption fails), mirroring SEAL's ``invariant_noise_budget``.

    ``domain`` records which representation ``c0``/``c1`` are resident in:
    coefficient form (:attr:`~repro.he.ntt.Domain.COEFF`) or NTT form
    (:attr:`~repro.he.ntt.Domain.EVAL`).  The NTT is a linear bijection of
    ``Z_q^N`` limb by limb, so every evaluator operation has an exact
    counterpart in either domain and the decrypted residues are
    bit-identical; only the number of forward/inverse transforms paid along
    the way differs.
    """

    c0: np.ndarray
    c1: np.ndarray
    noise_bound: float
    slots_used: int
    domain: Domain = Domain.COEFF

    def copy(self) -> Ciphertext:
        return Ciphertext(
            self.c0.copy(), self.c1.copy(), self.noise_bound, self.slots_used,
            self.domain,
        )


@dataclass(frozen=True)
class EvalPlain:
    """A plaintext polynomial pre-transformed into the evaluation domain.

    Produced once by :meth:`BFVContext.encode_plain_eval` (e.g. at plan
    time for weight diagonals) and reused across every
    :meth:`BFVContext.multiply_plain_poly` against an EVAL-resident
    ciphertext -- those products are then pointwise and cost *zero*
    transforms.  ``values_eval`` is limb-major ``(L, N)`` like ciphertext
    components.  ``norm`` is the L1 norm of the centered coefficients,
    preserved for the same noise-growth estimate the raw-plaintext path
    uses.
    """

    values_eval: np.ndarray
    norm: float


@dataclass
class BFVContext:
    """Owns the ring, the keys, and the evaluator operations.

    Parameters
    ----------
    params:
        The :class:`~repro.he.params.BFVParameters` to instantiate.  A
        multi-limb ``ciphertext_moduli`` basis produces double-CRT
        ciphertexts transparently; all public APIs are unchanged.
    seed:
        Seed for key generation and encryption randomness (tests rely on
        reproducibility; a deployment would use ``secrets``-grade entropy).
    tracker:
        Optional :class:`~repro.he.tracker.OperationTracker` shared with the
        cost model; every homomorphic operation is recorded on it.
    """

    params: BFVParameters
    seed: int = 2023
    tracker: OperationTracker | None = None
    #: domain freshly encrypted ciphertexts are produced in.  ``EVAL`` keeps
    #: the linear hot path transform-lazy (the default); ``COEFF`` restores
    #: the historical coefficient-resident behaviour for equivalence tests
    #: and before/after benchmarks.
    default_domain: Domain = Domain.EVAL
    ring: RNSPolynomialRing = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    _secret: SecretKey = field(init=False, repr=False)
    _public: PublicKey = field(init=False, repr=False)
    #: NTT-domain forms of the keys (limb-major), cached so every
    #: encryption/decryption saves the repeated forward transforms of p0,
    #: p1 and s.
    _p0_ntt: np.ndarray = field(init=False, repr=False)
    _p1_ntt: np.ndarray = field(init=False, repr=False)
    _s_ntt: np.ndarray = field(init=False, repr=False)
    #: the limb moduli as (L, 1) and (L, 1, 1) columns, for broadcasting
    #: limb-wise reductions over (L, N) and (L, B, N) arrays.
    _q_col: np.ndarray = field(init=False, repr=False)
    _q_batch: np.ndarray = field(init=False, repr=False)
    #: per-limb encode constant ``floor(Q/t) mod q_i`` and decrypt constants
    #: ``t q~_i / q_i = omega_i + theta_i`` (``q~_i = (Q/q_i)^-1 mod q_i``).
    _delta_limbs: np.ndarray = field(init=False, repr=False)
    _omega: np.ndarray = field(init=False, repr=False)
    _theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        primes = tuple(self.params.ciphertext_moduli)
        t = self.params.plaintext_modulus
        if t > MAX_PLAINTEXT_MODULUS or len(primes) > MAX_LIMBS:
            raise ParameterError(
                f"the exact backend needs t <= 2**31 and at most {MAX_LIMBS} limbs"
            )
        basis = RNSBasis(primes=primes)
        self.ring = RNSPolynomialRing(
            degree=self.params.ring_degree,
            basis=basis,
            kernel_tier=self.params.kernel_tier,
        )
        q = np.array(primes, dtype=np.int64)
        self._q_col = q[:, None]
        self._q_batch = q[:, None, None]
        big_q = basis.product
        self._delta_limbs = np.array([big_q // t % qi for qi in primes], dtype=np.int64)
        tilde = [(t * pow(big_q // qi, -1, qi), qi) for qi in primes]
        self._omega = np.array([w // qi for w, qi in tilde], dtype=np.int64)
        self._theta = np.array([w % qi / qi for w, qi in tilde])
        self._rng = np.random.default_rng(self.seed)
        if self.tracker is None:
            self.tracker = OperationTracker()
        self._generate_keys()

    @property
    def limb_count(self) -> int:
        return self.ring.limb_count

    # -- key management ----------------------------------------------------
    def _generate_keys(self) -> None:
        ring = self.ring
        s = ring.sample_ternary(self._rng)
        a = ring.sample_uniform(self._rng)
        e = ring.sample_error(self._rng, self.params.error_stddev)
        p0 = ring.sub(ring.neg(ring.add(ring.mul(a, s), e)), ring.zero())
        self._secret = SecretKey(poly=s)
        self._public = PublicKey(p0=p0, p1=a)
        self._p0_ntt = ring.forward(p0)
        self._p1_ntt = ring.forward(a)
        self._s_ntt = ring.forward(s)
        self.tracker.record("keygen")

    @property
    def secret_key(self) -> SecretKey:
        return self._secret

    # -- encoding ----------------------------------------------------------
    def encode(self, values: np.ndarray) -> np.ndarray:
        """Pack integer residues (mod t) into a plaintext polynomial.

        One value per coefficient ("coefficient packing"); at most
        ``slot_count`` values fit.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ParameterError("encode expects a 1-D vector of residues")
        if values.size > self.params.slot_count:
            raise ParameterError(
                f"cannot pack {values.size} values into {self.params.slot_count} slots"
            )
        plain = np.zeros(self.params.ring_degree, dtype=np.int64)
        plain[: values.size] = np.mod(values, self.params.plaintext_modulus)
        return plain

    def decode(self, plain: np.ndarray, count: int | None = None) -> np.ndarray:
        """Read packed residues back out of a plaintext polynomial."""
        if count is None:
            count = self.params.slot_count
        return np.mod(plain[:count], self.params.plaintext_modulus)

    # -- encryption --------------------------------------------------------
    def _scale_plaintext(self, plain: np.ndarray) -> np.ndarray:
        """``round(Q m / t) mod q_i`` per limb, limb-major ``(L,) + plain.shape``.

        With ``Q = floor(Q/t) t + (Q mod t)`` the rounded scaling splits
        exactly into ``floor(Q/t) m + ((Q mod t) m + t // 2) // t``, whose
        first factor is reduced mod ``q_i`` once per context.  For residues
        ``0 <= m < t <= 2**31`` and limbs ``q_i < 2**30`` every intermediate
        is below ``2**62``, so the whole encode is exact int64 arithmetic.
        Rounding instead of ``floor(Q/t) m`` removes the ``m (Q mod t) / Q``
        decryption error the naive Delta-scaling introduces.
        """
        t = self.params.plaintext_modulus
        carry = (plain * (self.ring.modulus % t) + t // 2) // t
        lead = (-1,) + (1,) * plain.ndim
        return np.mod(
            self._delta_limbs.reshape(lead) * plain + carry, self._q_col.reshape(lead)
        )

    def encrypt(self, values: np.ndarray, *, domain: Domain | None = None) -> Ciphertext:
        """Encrypt a vector of plaintext residues (coefficient-packed)."""
        return self.encrypt_batch([values], domain=domain)[0]

    def encrypt_batch(
        self, values_list: list[np.ndarray], *, domain: Domain | None = None
    ) -> list[Ciphertext]:
        """Encrypt many residue vectors with one batched NTT pass per limb.

        The batch's randomness is sampled up front and every ``u`` goes
        through one batched forward transform per limb.  COEFF output pulls
        the products with the NTT-form public key back through one stacked
        inverse; EVAL output (the :attr:`default_domain`) pushes the
        noise/message polynomials forward instead.  Either way it costs
        ``3 B L`` transforms, and both consume the randomness stream in the
        same order, so the two forms are NTT images of one another.
        """
        if not values_list:
            return []
        if domain is None:
            domain = self.default_domain
        batch = len(values_list)
        n = self.params.ring_degree
        limbs = self.limb_count
        qb = self._q_batch
        ring = self.ring
        plains = np.stack(
            [self.encode(np.asarray(v, dtype=np.int64)) for v in values_list]
        )
        scaled = self._scale_plaintext(plains)
        u = ring.sample_ternary(self._rng, count=batch)
        e1 = ring.sample_error(self._rng, self.params.error_stddev, count=batch)
        e2 = ring.sample_error(self._rng, self.params.error_stddev, count=batch)
        u_ntt = ring.forward_batch(u)
        p0 = self._p0_ntt[:, None, :]
        p1 = self._p1_ntt[:, None, :]
        if domain is Domain.EVAL:
            # NTT(c0) = NTT(u) * NTT(p0) + NTT(e1 + Delta*m), likewise c1:
            # the additive terms go forward instead of the products coming
            # back, and the ciphertext is born evaluation-resident.
            additive = ring.forward_batch(
                np.concatenate([np.mod(e1 + scaled, qb), e2], axis=1)
            )
            c0 = np.mod(u_ntt * p0 + additive[:, :batch], qb)
            c1 = np.mod(u_ntt * p1 + additive[:, batch:], qb)
            self.tracker.record_transforms(forward=3 * batch * limbs)
        else:
            components = ring.inverse_batch(
                np.concatenate([u_ntt * p0 % qb, u_ntt * p1 % qb], axis=1)
            )
            c0 = np.mod(components[:, :batch] + e1 + scaled, qb)
            c1 = np.mod(components[:, batch:] + e2, qb)
            self.tracker.record_transforms(forward=batch * limbs, inverse=2 * batch * limbs)
        # Fresh noise bound: ||e*u + e1 + e2*s|| <= stddev * (2N + 2) roughly;
        # use a conservative analytic estimate.
        fresh = self.params.error_stddev * (2 * n + 2)
        self.tracker.record(
            "encrypt", count=batch, bytes_moved=batch * self.params.ciphertext_bytes
        )
        return [
            Ciphertext(
                c0=c0[:, i], c1=c1[:, i], noise_bound=fresh,
                slots_used=int(np.asarray(values_list[i]).size),
                domain=domain,
            )
            for i in range(batch)
        ]

    # -- domain conversion -------------------------------------------------
    def to_eval(self, ct: Ciphertext) -> Ciphertext:
        """COEFF -> EVAL conversion of one ciphertext (two transforms x L)."""
        return self.convert_batch([ct], Domain.EVAL)[0]

    def to_coeff(self, ct: Ciphertext) -> Ciphertext:
        """EVAL -> COEFF conversion of one ciphertext (two transforms x L)."""
        return self.convert_batch([ct], Domain.COEFF)[0]

    def convert_batch(self, cts: list[Ciphertext], domain: Domain) -> list[Ciphertext]:
        """Convert ciphertexts to ``domain`` with one batched NTT pass per limb.

        Already-resident ciphertexts are returned unchanged (and charged
        nothing): the transform counters only ever record crossings that
        actually happened, which is what makes redundant round trips
        provable from the tracker.
        """
        movers = [ct for ct in cts if ct.domain is not domain]
        if not movers:
            return list(cts)
        ring = self.ring
        stacked = np.concatenate(
            [np.stack([ct.c0, ct.c1], axis=1) for ct in movers], axis=1
        )
        if domain is Domain.EVAL:
            converted = ring.forward_batch(stacked)
            self.tracker.record_transforms(forward=2 * len(movers) * self.limb_count)
        else:
            converted = ring.inverse_batch(stacked)
            self.tracker.record_transforms(inverse=2 * len(movers) * self.limb_count)
        moved = iter(range(len(movers)))
        results = []
        for ct in cts:
            if ct.domain is domain:
                results.append(ct)
                continue
            i = next(moved)
            results.append(
                Ciphertext(
                    c0=converted[:, 2 * i], c1=converted[:, 2 * i + 1],
                    noise_bound=ct.noise_bound, slots_used=ct.slots_used,
                    domain=domain,
                )
            )
        return results

    def decrypt(self, ct: Ciphertext, count: int | None = None) -> np.ndarray:
        """Decrypt a ciphertext back to its packed residues."""
        if count is None:
            count = ct.slots_used
        return self.decrypt_batch([ct], counts=[count])[0]

    def decrypt_batch(
        self, cts: list[Ciphertext], counts: list[int] | None = None
    ) -> list[np.ndarray]:
        """Decrypt many ciphertexts with one batched NTT pass per limb.

        COEFF ciphertexts pay the historical round trip (forward ``c1``,
        pointwise with the cached NTT-form secret, inverse).  EVAL
        ciphertexts fold ``c0 + c1 * s`` entirely in the evaluation domain
        and pay exactly *one* inverse per limb -- the only transforms the
        evaluation-resident hot path ever pays per output ciphertext.

        Rounding is the scale-and-round of Halevi-Polyakov-Shoup (CT-RSA
        2019), in int64/float64 with no big integer.  With CRT residues
        ``x_i`` of ``x = c0 + c1 s mod Q``, ``sum_i x_i t q~_i / q_i = t x / Q
        + v t`` for an integer ``v``, so ``round(t x / Q) mod t`` is
        ``(sum_i x_i omega_i + rint(sum_i x_i theta_i)) mod t`` for the
        integer parts ``omega_i < t`` and float fractions ``theta_i`` of the
        per-limb constants.  ``Q`` is odd, so no exact tie exists, and the
        float sum errs by at most :func:`hps_fraction_error`; ciphertexts
        whose budget is not above :data:`DECRYPT_MARGIN_BITS` are refused,
        which makes every accepted decryption exact.
        """
        if not cts:
            return []
        for ct in cts:
            if self.noise_budget(ct) <= DECRYPT_MARGIN_BITS:
                raise NoiseBudgetExhausted(
                    "ciphertext noise budget exhausted; decryption would be incorrect"
                )
        limbs = self.limb_count
        qb = self._q_batch
        ring = self.ring
        raw = np.empty((limbs, len(cts), self.params.ring_degree), dtype=np.int64)
        coeff_idx = [i for i, ct in enumerate(cts) if ct.domain is Domain.COEFF]
        eval_idx = [i for i, ct in enumerate(cts) if ct.domain is Domain.EVAL]
        s = self._s_ntt[:, None, :]
        if coeff_idx:
            c0 = np.stack([cts[i].c0 for i in coeff_idx], axis=1)
            c1 = np.stack([cts[i].c1 for i in coeff_idx], axis=1)
            raw[:, coeff_idx] = np.mod(
                c0 + ring.inverse_batch(ring.forward_batch(c1) * s % qb), qb
            )
            self.tracker.record_transforms(
                forward=len(coeff_idx) * limbs, inverse=len(coeff_idx) * limbs
            )
        if eval_idx:
            combined = np.stack(
                [np.mod(cts[i].c0 + cts[i].c1 * self._s_ntt, self._q_col) for i in eval_idx],
                axis=1,
            )
            raw[:, eval_idx] = ring.inverse_batch(combined)
            self.tracker.record_transforms(inverse=len(eval_idx) * limbs)
        self.tracker.record("decrypt", count=len(cts))
        result = self._scale_and_round(raw)
        if counts is None:
            counts = [ct.slots_used for ct in cts]
        return [result[i, : counts[i]] for i in range(len(cts))]

    def _scale_and_round(self, raw: np.ndarray) -> np.ndarray:
        """``round(t x / Q) mod t`` of limb-major residues ``raw`` (``(L, ...)``).

        Each ``x_i omega_i < 2**61`` is reduced mod ``t`` before the limb sum.
        """
        t = self.params.plaintext_modulus
        lead = (-1,) + (1,) * (raw.ndim - 1)
        whole = np.mod(raw * self._omega.reshape(lead), t).sum(axis=0)
        fraction = self._theta @ raw.reshape(raw.shape[0], -1)
        return np.mod(whole + np.rint(fraction).astype(np.int64).reshape(whole.shape), t)

    def noise_budget(self, ct: Ciphertext) -> float:
        """Bits of noise headroom remaining (analytic estimate)."""
        limit = self.params.ciphertext_modulus / (2.0 * self.params.plaintext_modulus)
        noise = math.log2(ct.noise_bound) if ct.noise_bound > 0 else 0.0
        return math.log2(limit) - noise

    # -- homomorphic operations --------------------------------------------
    def _aligned(self, a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two operands into one domain (resident-forward policy).

        Mixed-domain additions convert the COEFF operand *up* to EVAL (the
        direction that keeps the pipeline resident) and charge the crossing;
        a correctly transform-lazy pipeline never takes this branch, which
        the exact-count tests rely on.
        """
        if a.domain is b.domain:
            return a, b
        if a.domain is Domain.COEFF:
            return self.to_eval(a), b
        return a, self.to_eval(b)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext + ciphertext (domain-preserving; NTT is linear)."""
        a, b = self._aligned(a, b)
        ring = self.ring
        self.tracker.record("he_add")
        return Ciphertext(
            c0=ring.add(a.c0, b.c0),
            c1=ring.add(a.c1, b.c1),
            noise_bound=a.noise_bound + b.noise_bound,
            slots_used=max(a.slots_used, b.slots_used),
            domain=a.domain,
        )

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext - ciphertext (domain-preserving; NTT is linear)."""
        a, b = self._aligned(a, b)
        ring = self.ring
        self.tracker.record("he_add")
        return Ciphertext(
            c0=ring.sub(a.c0, b.c0),
            c1=ring.sub(a.c1, b.c1),
            noise_bound=a.noise_bound + b.noise_bound,
            slots_used=max(a.slots_used, b.slots_used),
            domain=a.domain,
        )

    def add_plain(self, a: Ciphertext, values: np.ndarray) -> Ciphertext:
        """Ciphertext + plaintext vector.

        An EVAL-resident ciphertext absorbs the plaintext through one
        forward transform per limb of the scaled message polynomial (the
        ciphertext itself never leaves the evaluation domain).
        """
        ring = self.ring
        plain = self.encode(np.asarray(values, dtype=np.int64))
        scaled = self._scale_plaintext(plain)
        if a.domain is Domain.EVAL:
            scaled = ring.forward(scaled)
            self.tracker.record_transforms(forward=self.limb_count)
        self.tracker.record("he_add_plain")
        return Ciphertext(
            c0=ring.add(a.c0, scaled),
            c1=a.c1.copy(),
            noise_bound=a.noise_bound + 1.0,
            slots_used=max(a.slots_used, int(np.asarray(values).size)),
            domain=a.domain,
        )

    def multiply_scalar(self, a: Ciphertext, scalar: int) -> Ciphertext:
        """Ciphertext x small integer scalar (plaintext residue).

        This is the workhorse of the tokens-first packed matrix product: the
        weight entry multiplies every slot of the ciphertext.  Scalar
        multiplication commutes with the NTT, so it is transform-free in
        both domains.
        """
        ring = self.ring
        t = self.params.plaintext_modulus
        scalar = int(scalar) % t
        centered_scalar = scalar - t if scalar > t // 2 else scalar
        self.tracker.record("he_mul_plain")
        return Ciphertext(
            c0=ring.mul_scalar(a.c0, centered_scalar),
            c1=ring.mul_scalar(a.c1, centered_scalar),
            noise_bound=a.noise_bound * max(1, abs(centered_scalar)),
            slots_used=a.slots_used,
            domain=a.domain,
        )

    def _centered_plain_limbs(
        self, plain_values: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Centered mod-t encode reduced into every limb, plus its L1 norm."""
        plain = self.encode(np.asarray(plain_values, dtype=np.int64))
        t = self.params.plaintext_modulus
        centered = np.where(plain > t // 2, plain - t, plain)
        norm = float(np.sum(np.abs(centered)))
        return self.ring.from_signed(centered), norm

    def encode_plain_eval(self, plain_values: np.ndarray) -> EvalPlain:
        """Pre-transform a plaintext polynomial into the evaluation domain.

        One forward transform per limb now buys transform-free
        :meth:`multiply_plain_poly` calls forever after -- the plan-time
        hoisting the BSGS diagonal kernel uses for its weight masks.
        """
        plain_limbs, norm = self._centered_plain_limbs(plain_values)
        self.tracker.record_transforms(forward=self.limb_count)
        return EvalPlain(values_eval=self.ring.forward(plain_limbs), norm=norm)

    def multiply_plain_poly(
        self, a: Ciphertext, plain_values: np.ndarray | EvalPlain
    ) -> Ciphertext:
        """Ciphertext x plaintext polynomial (negacyclic convolution).

        Used by Gazelle-style diagonal matrix-vector products.  Note this is
        a *convolution* of the packed slots, not a slot-wise product.

        Transform economy by residency (all counts per limb): a COEFF
        ciphertext pays the full round trip (two forwards for ``c0, c1``,
        one for the plaintext, two inverses back -- five transforms).  An
        EVAL ciphertext multiplies pointwise, paying one forward for a raw
        plaintext and *zero* transforms when handed a pre-transformed
        :class:`EvalPlain`.
        """
        ring = self.ring
        self.tracker.record("he_mul_plain")
        if isinstance(plain_values, EvalPlain):
            if a.domain is not Domain.EVAL:
                a = self.to_eval(a)
            return Ciphertext(
                c0=ring.mul_eval(a.c0, plain_values.values_eval),
                c1=ring.mul_eval(a.c1, plain_values.values_eval),
                noise_bound=a.noise_bound * max(1.0, plain_values.norm),
                slots_used=self.params.slot_count,
                domain=Domain.EVAL,
            )
        plain_limbs, norm = self._centered_plain_limbs(plain_values)
        if a.domain is Domain.EVAL:
            plain_eval = ring.forward(plain_limbs)
            self.tracker.record_transforms(forward=self.limb_count)
            return Ciphertext(
                c0=ring.mul_eval(a.c0, plain_eval),
                c1=ring.mul_eval(a.c1, plain_eval),
                noise_bound=a.noise_bound * max(1.0, norm),
                slots_used=self.params.slot_count,
                domain=Domain.EVAL,
            )
        # One batched NTT per limb over (c0, c1) shares the plaintext's
        # forward transform.
        products = ring.mul_batch(np.stack([a.c0, a.c1], axis=1), plain_limbs)
        self.tracker.record_transforms(
            forward=3 * self.limb_count, inverse=2 * self.limb_count
        )
        return Ciphertext(
            c0=products[:, 0],
            c1=products[:, 1],
            noise_bound=a.noise_bound * max(1.0, norm),
            slots_used=self.params.slot_count,
            domain=Domain.COEFF,
        )

    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        """Rotate packed slots by ``steps`` positions (monomial multiplication).

        Slots that wrap past the ring degree acquire a sign flip; callers are
        responsible for only reading un-wrapped slots (the packing layer
        guarantees this).  Multiplication by ``X**steps`` is a coefficient
        shift in COEFF form and a pointwise product with the cached monomial
        table in EVAL form -- transform-free either way, so rotations are
        *not* domain boundaries.
        """
        ring = self.ring
        self.tracker.record("he_rotate")
        if a.domain is Domain.EVAL:
            return Ciphertext(
                c0=ring.rotate_eval(a.c0, steps),
                c1=ring.rotate_eval(a.c1, steps),
                noise_bound=a.noise_bound,
                slots_used=min(self.params.slot_count, a.slots_used + steps),
                domain=Domain.EVAL,
            )
        return Ciphertext(
            c0=ring.rotate_coefficients(a.c0, steps),
            c1=ring.rotate_coefficients(a.c1, steps),
            noise_bound=a.noise_bound,
            slots_used=min(self.params.slot_count, a.slots_used + steps),
            domain=Domain.COEFF,
        )

    def zero_ciphertext(
        self, slots_used: int = 0, *, domain: Domain | None = None
    ) -> Ciphertext:
        """A fresh encryption of the all-zero vector (used as an accumulator)."""
        return self.encrypt(np.zeros(max(1, slots_used), dtype=np.int64), domain=domain)
