"""Double-CRT (RNS) representation: limb-major residue arithmetic.

The lazy-reduction NTT (:mod:`repro.he.ntt`) is exact only for moduli under
30 bits, and the int64 pointwise products in :mod:`repro.he.polyring`
silently wrap the moment ``q**2`` leaves 63 bits.  Rather than lift either
bound, this module follows SEAL's double-CRT design: a wide ciphertext
modulus ``Q = q_0 * q_1 * ... * q_{L-1}`` is represented by its residues in
``L`` independent ≤30-bit NTT-friendly prime limbs.  Every ring operation --
NTT, pointwise EVAL product, rotation, addition -- runs limb-wise on int64
arrays (each limb inside the proven bounds).  The big integer ``Q`` never
appears on the per-request path: encode and decrypt use per-limb constants
(:class:`~repro.he.bfv.BFVContext`), and the exact CRT map below is the
test oracle they are checked against.

:class:`RNSBasis` holds the primes, their product ``Q`` and the CRT
bijection ``Z_Q <-> Z_{q_0} x ... x Z_{q_{L-1}}``;
:class:`RNSPolynomialRing` runs ``L`` per-limb rings behind a limb-major
``(L, N)`` / ``(L, B, N)`` int64 API whose samplers consume the generator
exactly like the single-modulus :class:`~repro.he.polyring.PolynomialRing`
when ``L = 1``, reproducing its ciphertexts bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from . import kernels as _kernels
from .polyring import PolynomialRing

__all__ = ["RNSBasis", "RNSPolynomialRing"]


@dataclass(frozen=True)
class RNSBasis:
    """A residue-number-system basis of pairwise-distinct prime limbs.

    ``compose``/``decompose`` realise the CRT ring isomorphism between
    ``Z_Q`` and the product of the limb rings.  The garner coefficients
    ``(Q/q_i) * ((Q/q_i)^-1 mod q_i)`` are precomputed once as Python ints
    (they are ``log Q``-bit numbers, far past int64 for multi-limb bases).
    """

    primes: tuple[int, ...]
    _product: int = field(init=False, repr=False)
    _garner: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        primes = tuple(int(q) for q in self.primes)
        if not primes:
            raise ParameterError("an RNS basis needs at least one limb")
        if len(set(primes)) != len(primes):
            raise ParameterError(f"RNS limbs must be pairwise distinct, got {primes}")
        object.__setattr__(self, "primes", primes)
        product = math.prod(primes)
        garner = []
        for q in primes:
            hat = product // q
            garner.append(hat * pow(hat, -1, q))
        object.__setattr__(self, "_product", product)
        object.__setattr__(self, "_garner", tuple(garner))

    @property
    def limb_count(self) -> int:
        return len(self.primes)

    @property
    def product(self) -> int:
        """The composite modulus ``Q`` this basis represents."""
        return self._product

    def decompose(self, values: np.ndarray) -> np.ndarray:
        """Residues of ``values`` (ints mod ``Q``, any shape) in every limb.

        Accepts int64 or object (big-int) arrays; negative inputs land on
        their canonical non-negative residues.  Returns a limb-major
        ``(L,) + values.shape`` int64 array.
        """
        values = np.asarray(values)
        return np.stack(
            [np.mod(values, q).astype(np.int64) for q in self.primes]
        )

    def compose(self, limbs: np.ndarray) -> np.ndarray:
        """CRT-recombine a limb-major ``(L, ...)`` residue array mod ``Q``.

        Returns an object array of Python ints in ``[0, Q)`` -- exact for any
        number of limbs.  The big-int oracle of the int64 decrypt.
        """
        limbs = np.asarray(limbs)
        if limbs.shape[0] != self.limb_count:
            raise ParameterError(
                f"expected {self.limb_count} limbs, got shape {limbs.shape}"
            )
        acc = np.zeros(limbs.shape[1:], dtype=object)
        for residues, coefficient in zip(limbs, self._garner, strict=True):
            acc += residues.astype(object) * coefficient
        return acc % self.product


@dataclass
class RNSPolynomialRing:
    """Arithmetic in ``Z_Q[X]/(X^N + 1)`` as ``L`` limb-wise rings.

    Polynomials are limb-major ``(L, N)`` int64 arrays (batches
    ``(L, B, N)``); transforms and pointwise products hand the *whole* stack
    to one kernel invocation (:mod:`repro.he.kernels`) so the active kernel
    tier sees one large limbs x batch workload instead of ``L`` small ones,
    and the remaining methods are vectorized across the limb axis directly.
    ``kernel_tier`` optionally pins the tier for this ring (None defers to
    the process-level selection).
    """

    degree: int
    basis: RNSBasis
    kernel_tier: str | None = None
    limb_rings: tuple[PolynomialRing, ...] = field(init=False, repr=False)
    _contexts: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.limb_rings = tuple(
            PolynomialRing(degree=self.degree, modulus=q) for q in self.basis.primes
        )
        self._contexts = tuple(ring.ntt for ring in self.limb_rings)

    @property
    def limb_count(self) -> int:
        return self.basis.limb_count

    @property
    def modulus(self) -> int:
        """The composite modulus ``Q`` (a Python int; may exceed 64 bits)."""
        return self.basis.product

    def _moduli_column(self, batched: bool) -> np.ndarray:
        """The limb moduli shaped to broadcast over ``(L, N)`` / ``(L, B, N)``."""
        q = np.array(self.basis.primes, dtype=np.int64)
        return q[:, None, None] if batched else q[:, None]

    # -- constructors ------------------------------------------------------
    def zero(self) -> np.ndarray:
        return np.zeros((self.limb_count, self.degree), dtype=np.int64)

    def from_signed(self, coeffs: np.ndarray) -> np.ndarray:
        """Reduce a small signed coefficient array into every limb.

        ``coeffs`` has shape ``(N,)`` or ``(B, N)``; the result gains a
        leading limb axis.  This is the one entry point for ternary/error
        polynomials, which are *shared* ring elements: the same small
        integer vector viewed in every limb.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        # One broadcast reduction instead of a per-limb Python loop:
        # (1, ...) % (L, 1[, 1]) -> (L, ...), bit-identical to the stack of
        # per-limb ``np.mod`` calls.
        return np.mod(coeffs[None, ...], self._moduli_column(coeffs.ndim == 2))

    # -- sampling ----------------------------------------------------------
    # Stream-compatibility contract: with one limb, every sampler consumes
    # the numpy Generator exactly as PolynomialRing's samplers do, so the
    # RNS refactor reproduces historical ciphertexts bit for bit.
    def _shape(self, count: int | None) -> int | tuple[int, int]:
        return self.degree if count is None else (count, self.degree)

    def sample_uniform(
        self, rng: np.random.Generator, count: int | None = None
    ) -> np.ndarray:
        """Uniform element(s) mod ``Q``, drawn as independent per-limb streams.

        The CRT map is a bijection, so independently uniform limb residues
        are exactly a uniform element of ``Z_Q`` -- no big-int draw needed.
        """
        return np.stack(
            [
                rng.integers(0, q, size=self._shape(count), dtype=np.int64)
                for q in self.basis.primes
            ]
        )

    def sample_ternary(
        self, rng: np.random.Generator, count: int | None = None
    ) -> np.ndarray:
        """Ternary polynomial(s) with coefficients in {-1, 0, 1}, all limbs."""
        return self.from_signed(
            rng.integers(-1, 2, size=self._shape(count), dtype=np.int64)
        )

    def sample_error(
        self, rng: np.random.Generator, stddev: float, count: int | None = None
    ) -> np.ndarray:
        """Small error polynomial(s) (rounded Gaussian), all limbs."""
        noise = np.rint(rng.normal(0.0, stddev, size=self._shape(count))).astype(
            np.int64
        )
        return self.from_signed(noise)

    # -- arithmetic --------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(a + b, self._moduli_column(a.ndim == 3))

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(a - b, self._moduli_column(a.ndim == 3))

    def neg(self, a: np.ndarray) -> np.ndarray:
        return np.mod(-a, self._moduli_column(a.ndim == 3))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product via one stacked transform over all limbs."""
        both = self.forward_batch(np.stack([np.asarray(a), np.asarray(b)], axis=1))
        return self.inverse(self.mul_eval(both[:, 0], both[:, 1]))

    def mul_batch(self, polys: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of a ``(L, B, N)`` batch with ``b``, all limbs at once."""
        fa = self.forward_batch(polys)
        fb = self.forward(b)
        return self.inverse_batch(fa * fb[:, None, :] % self._moduli_column(True))

    def mul_eval(self, a_eval: np.ndarray, b_eval: np.ndarray) -> np.ndarray:
        """Pointwise product of EVAL-form (canonical-residue) polynomials."""
        a_eval = np.asarray(a_eval)
        tier = _kernels.active_tier(self.kernel_tier)
        return tier.mul_eval(
            a_eval, np.asarray(b_eval), self._moduli_column(a_eval.ndim == 3)
        )

    def mul_scalar(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every limb by a (possibly signed) small scalar."""
        moduli = self._moduli_column(a.ndim == 3)
        return np.mod(a * np.mod(int(scalar), moduli), moduli)

    # -- transforms --------------------------------------------------------
    # All four entry points funnel into a single stacked kernel invocation
    # over the full ``(L, B, N)`` workload; the active tier chunks it over
    # limbs x batch as it sees fit (one C call per limb, a shared thread
    # pool, or the numpy reference loop -- all bit-identical).
    def forward(self, a: np.ndarray) -> np.ndarray:
        """Limb-wise forward NTT of one ``(L, N)`` polynomial."""
        return self.forward_batch(np.asarray(a)[:, None, :])[:, 0]

    def inverse(self, a_eval: np.ndarray) -> np.ndarray:
        """Limb-wise inverse NTT of one ``(L, N)`` polynomial."""
        return self.inverse_batch(np.asarray(a_eval)[:, None, :])[:, 0]

    def forward_batch(self, polys: np.ndarray) -> np.ndarray:
        """Forward NTT of a ``(L, B, N)`` batch in one stacked kernel call."""
        return _kernels.stacked_ntt(
            self._contexts, polys, inverse=False, kernel_tier=self.kernel_tier
        )

    def inverse_batch(self, values: np.ndarray) -> np.ndarray:
        """Inverse NTT of a ``(L, B, N)`` batch in one stacked kernel call."""
        return _kernels.stacked_ntt(
            self._contexts, values, inverse=True, kernel_tier=self.kernel_tier
        )

    # -- automorphisms -----------------------------------------------------
    def rotate_eval(self, a_eval: np.ndarray, steps: int) -> np.ndarray:
        """Negacyclic rotation of EVAL-form limbs (cached monomial tables).

        The per-limb monomial tables stack into one ``(L, N)`` operand so
        the rotation is a single pointwise kernel call over all limbs.
        """
        a_eval = np.asarray(a_eval)
        monomials = np.stack([ctx.monomial_eval(steps) for ctx in self._contexts])
        if a_eval.ndim == 3:
            monomials = monomials[:, None, :]
        return self.mul_eval(a_eval, monomials)

    def rotate_coefficients(self, a: np.ndarray, steps: int) -> np.ndarray:
        """Negacyclic coefficient rotation, vectorized across the limb axis."""
        a = np.asarray(a)
        n = self.degree
        steps = steps % (2 * n)
        sign = 1
        if steps >= n:
            # X**N = -1, so a shift past N is a shift by (steps - N) negated.
            steps -= n
            sign = -1
        moduli = self._moduli_column(a.ndim == 3)
        if steps == 0:
            return np.mod(sign * a, moduli)
        result = np.empty_like(a)
        # Coefficients that wrap past X**N pick up a sign flip.
        result[..., :steps] = -a[..., n - steps:]
        result[..., steps:] = a[..., : n - steps]
        return np.mod(sign * result, moduli)
