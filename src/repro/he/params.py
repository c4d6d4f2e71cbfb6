"""Parameter sets for the BFV-style additive HE layer.

The paper uses SEAL with parameters providing a 128-bit security level, only
additive operations, ciphertext-plaintext multiplications and rotations.  The
exact Python backend in :mod:`repro.he.bfv` cannot realistically run with a
4096-slot / 109-bit modulus on test workloads, so we provide two classes of
parameter sets:

* ``toy``/``test`` parameters (N = 64 ... 1024) used by the unit tests and the
  small worked examples -- these exercise every code path of the scheme
  bit-exactly;
* ``paper`` parameters (N = 4096, matching Gazelle/Delphi-era PAHE settings
  at 128-bit security), used by the functional simulated backend and by the
  cost model to compute slot counts, ciphertext sizes and rotation counts
  exactly as the real SEAL deployment would.

Security estimation uses the standard homomorphic-encryption-standard table
of (ring dimension → maximum log q) for 128-bit classical security; it is a
table lookup, not an LWE estimator, and is only intended to sanity-check the
``paper`` parameter choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError
from .ntt import find_ntt_prime, find_rns_primes, is_prime

__all__ = [
    "SEED_BYTES",
    "BFVParameters",
    "toy_parameters",
    "test_parameters",
    "serving_parameters",
    "rns_serving_parameters",
    "paper_parameters",
]


#: Bytes of the public seed a secret-key ciphertext's ``c1`` travels as.
SEED_BYTES = 32

# Homomorphic Encryption Standard (2018), classical 128-bit security:
# maximum size of log2(q) for a given ring dimension.
_HE_STANDARD_128 = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
}


@dataclass(frozen=True)
class BFVParameters:
    """Parameters of the BFV additive-HE scheme.

    Attributes
    ----------
    ring_degree:
        Polynomial ring dimension ``N`` (also the number of SIMD slots
        available to the packing layer when the plaintext modulus supports
        batching; this reproduction packs coefficient-wise, so the slot count
        equals ``N``).
    ciphertext_modulus:
        Coefficient modulus ``Q``.  For a single-limb configuration this is
        one NTT-friendly prime; for a double-CRT (RNS) configuration it is
        the product of the ``ciphertext_moduli`` limbs (a Python int that may
        exceed 64 bits -- ciphertexts never hold it, only the CRT composition
        at the decrypt boundary does).
    ciphertext_moduli:
        The RNS limb primes ``(q_0, ..., q_{L-1})``.  ``None`` (the default)
        means single-limb: the basis is ``(ciphertext_modulus,)``.  Every
        limb must independently be NTT-friendly (prime, ``q_i ≡ 1 mod 2N``)
        and under the 30-bit lazy-reduction bound ``4 q_i ≤ 2**32`` -- this is
        validated *here*, at construction, so an illegal modulus raises a
        clear :class:`ParameterError` instead of surfacing deep inside
        ``NTTContext`` (or never, on simulated wire-sizing paths).
    plaintext_modulus:
        Plaintext modulus ``t``; fixed-point residues must fit below ``t``.
    error_stddev:
        Standard deviation of the discrete Gaussian error distribution.
    security_bits:
        Claimed classical security (informational; checked against the HE
        standard table when the ring degree is listed there).
    """

    ring_degree: int
    ciphertext_modulus: int
    plaintext_modulus: int
    error_stddev: float = 3.2
    security_bits: int = 128
    #: Coefficient-modulus size of the *deployed* scheme (e.g. 60 bits for a
    #: Gazelle-style SEAL instantiation).  The exact Python backend runs with
    #: the NTT-friendly ``ciphertext_modulus`` above, but wire sizes, the
    #: security check and the simulated noise budget use this value when set.
    deployed_modulus_bits: int | None = None
    #: RNS limb primes; ``None`` normalises to ``(ciphertext_modulus,)``.
    ciphertext_moduli: tuple[int, ...] | None = None
    #: Kernel tier for the HE hot loops (see :mod:`repro.he.kernels`):
    #: ``None`` defers to the process-level selection (``REPRO_KERNEL_TIER``
    #: env var, then self-calibrated ``auto``); an explicit name pins the
    #: tier for every ring built from these parameters.  Every tier is
    #: bit-identical, so this only affects wall clock.
    kernel_tier: str | None = None

    def __post_init__(self) -> None:
        n = self.ring_degree
        if n < 4 or n & (n - 1) != 0:
            raise ParameterError(f"ring_degree must be a power of two >= 4, got {n}")
        if self.plaintext_modulus < 2:
            raise ParameterError("plaintext modulus must be at least 2")
        moduli = self.ciphertext_moduli
        if moduli is None:
            moduli = (self.ciphertext_modulus,)
            object.__setattr__(self, "ciphertext_moduli", moduli)
        else:
            moduli = tuple(int(q) for q in moduli)
            object.__setattr__(self, "ciphertext_moduli", moduli)
            if math.prod(moduli) != self.ciphertext_modulus:
                raise ParameterError(
                    "ciphertext_modulus must equal the product of the RNS limbs: "
                    f"prod{moduli} != {self.ciphertext_modulus}"
                )
        if len(set(moduli)) != len(moduli):
            raise ParameterError(f"RNS limbs must be pairwise distinct, got {moduli}")
        for q in moduli:
            # Validate every limb against the exact-backend NTT requirements
            # here, at construction time, where the failure is attributable --
            # not deep inside NTTContext, and not silently skipped on
            # simulated wire-sizing paths that never build a transform.
            if 4 * q > 1 << 32:
                raise ParameterError(
                    f"ciphertext modulus limb {q} ({q.bit_length()} bits) exceeds "
                    "the 30-bit lazy-reduction NTT bound (4q <= 2**32); use a "
                    "multi-limb RNS basis (ciphertext_moduli) to grow log q"
                )
            if (q - 1) % (2 * n) != 0:
                raise ParameterError(
                    f"ciphertext modulus limb {q} is not NTT-friendly for ring "
                    f"degree {n}: need q ≡ 1 (mod {2 * n})"
                )
            if not is_prime(q):
                raise ParameterError(f"ciphertext modulus limb {q} is not prime")
        # t must fit under the composite modulus Q (the product), not under
        # every individual limb -- protocol-scale plaintext rings (t = 2**31)
        # are legal over a basis of 30-bit limbs.
        if self.plaintext_modulus >= self.ciphertext_modulus:
            raise ParameterError(
                "plaintext modulus must be smaller than the ciphertext modulus"
            )

    @property
    def slot_count(self) -> int:
        """Number of packing slots per ciphertext."""
        return self.ring_degree

    @property
    def limb_count(self) -> int:
        """Number of RNS limbs ``L`` in the double-CRT ciphertext basis."""
        moduli = self.ciphertext_moduli
        return 1 if moduli is None else len(moduli)

    @property
    def delta(self) -> int:
        """The BFV scaling factor ``floor(q / t)``."""
        return self.ciphertext_modulus // self.plaintext_modulus

    @property
    def log_q(self) -> float:
        """Bit-size of the ciphertext modulus."""
        return float(self.ciphertext_modulus.bit_length())

    @property
    def deployed_log_q(self) -> int:
        """Coefficient-modulus bit size used for wire-size and noise modelling."""
        if self.deployed_modulus_bits is not None:
            return self.deployed_modulus_bits
        return self.ciphertext_modulus.bit_length()

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized size of a (c0, c1) ciphertext pair in bytes."""
        return 2 * self.ring_degree * self._bytes_per_coeff

    @property
    def seeded_ciphertext_bytes(self) -> int:
        """Serialized size of a fresh secret-key ciphertext: ``c0`` plus the
        :data:`SEED_BYTES` seed that ``c1`` expands from."""
        return self.ring_degree * self._bytes_per_coeff + SEED_BYTES

    @property
    def _bytes_per_coeff(self) -> int:
        return (self.deployed_log_q + 7) // 8

    @property
    def plaintext_bytes(self) -> int:
        """Serialized size of a packed plaintext in bytes."""
        bytes_per_coeff = (self.plaintext_modulus.bit_length() + 7) // 8
        return self.ring_degree * bytes_per_coeff

    def meets_security_target(self) -> bool:
        """Check the parameters against the HE-standard 128-bit table.

        Ring degrees not present in the table (the toy test sizes) are
        reported as *not* meeting the target, which is accurate: they are for
        correctness testing only.
        """
        max_log_q = _HE_STANDARD_128.get(self.ring_degree)
        if max_log_q is None:
            return False
        return self.deployed_log_q <= max_log_q


def toy_parameters(
    ring_degree: int = 64, *, kernel_tier: str | None = None
) -> BFVParameters:
    """Very small parameters for fast property-based tests."""
    modulus = find_ntt_prime(28, ring_degree)
    return BFVParameters(
        ring_degree=ring_degree,
        ciphertext_modulus=modulus,
        plaintext_modulus=1 << 15,
        error_stddev=1.0,
        security_bits=0,
        deployed_modulus_bits=60,
        kernel_tier=kernel_tier,
    )


def test_parameters(
    ring_degree: int = 256, *, kernel_tier: str | None = None
) -> BFVParameters:
    """Medium parameters used by integration tests and the worked examples."""
    modulus = find_ntt_prime(29, ring_degree)
    return BFVParameters(
        ring_degree=ring_degree,
        ciphertext_modulus=modulus,
        plaintext_modulus=1 << 15,
        error_stddev=2.0,
        security_bits=0,
        deployed_modulus_bits=60,
        kernel_tier=kernel_tier,
    )


def serving_parameters(
    ring_degree: int = 256, *, kernel_tier: str | None = None
) -> BFVParameters:
    """Exact-backend parameters for the batched linear serving path.

    Slot-sharing batches accumulate one scalar product per input feature in a
    single ciphertext, so they need more noise headroom than the toy sets: an
    8-bit plaintext modulus under the largest NTT-friendly 30-bit prime gives
    ``q / 2t ~ 2**21`` of budget, enough for several hundred accumulated
    ciphertext-scalar products at test scale.
    """
    modulus = find_ntt_prime(30, ring_degree)
    return BFVParameters(
        ring_degree=ring_degree,
        ciphertext_modulus=modulus,
        plaintext_modulus=1 << 8,
        error_stddev=1.0,
        security_bits=0,
        deployed_modulus_bits=60,
        kernel_tier=kernel_tier,
    )


def rns_serving_parameters(
    ring_degree: int = 256, limbs: int = 2, *, kernel_tier: str | None = None
) -> BFVParameters:
    """Double-CRT serving parameters with a >=60-bit composite modulus.

    ``limbs`` NTT-friendly 30-bit primes give an effective
    ``log Q ~ 30 * limbs`` -- two limbs already reach the 60-bit
    Gazelle-era coefficient modulus the deployed parameter sets model,
    while every limb stays under the proven lazy-reduction NTT bound.
    The exact backend runs this end to end: limb-wise EVAL arithmetic,
    CRT composition only at the decrypt boundary.
    """
    primes = find_rns_primes(30, ring_degree, limbs)
    return BFVParameters(
        ring_degree=ring_degree,
        ciphertext_modulus=math.prod(primes),
        ciphertext_moduli=primes,
        plaintext_modulus=1 << 8,
        error_stddev=1.0,
        security_bits=0,
        deployed_modulus_bits=30 * limbs,
        kernel_tier=kernel_tier,
    )


def paper_parameters(*, kernel_tier: str | None = None) -> BFVParameters:
    """Gazelle/Delphi-era PAHE parameters at 128-bit security.

    N = 4096 with a ~60-bit coefficient modulus (the HE standard allows up to
    109 bits at this dimension) and a 15-bit-compatible plaintext modulus.
    These parameters are used by the simulated backend and by the cost model;
    the exact backend accepts them but would be slow for full BERT layers.
    """
    # A 2N-friendly ~29-bit prime keeps the exact backend usable if someone
    # instantiates it with paper parameters; the *cost model* uses the
    # serialized sizes below which correspond to a 60-bit modulus as deployed
    # in Gazelle-style PAHE.
    modulus = find_ntt_prime(29, 4096)
    return BFVParameters(
        ring_degree=4096,
        ciphertext_modulus=modulus,
        plaintext_modulus=1 << 15,
        error_stddev=3.2,
        security_bits=128,
        deployed_modulus_bits=60,
        kernel_tier=kernel_tier,
    )
