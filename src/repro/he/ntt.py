"""Number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

The BFV backend needs fast negacyclic polynomial multiplication.  We use the
standard negative-wrapped-convolution NTT: multiply the coefficient vector by
powers of ``psi`` (a primitive 2N-th root of unity mod q), apply a length-N
NTT with root ``psi**2``, multiply pointwise, invert, and undo the psi
twist.

The transform is the hottest loop of the exact backend, so it is vectorized
two ways:

* every butterfly stage is a single numpy slice operation (no per-butterfly
  Python loop), and
* the stage loop runs over a whole *batch* of polynomials at once
  (``forward_batch`` / ``inverse_batch`` / ``multiply_batch``), so the
  ``log N`` Python-level stage iterations are amortised across the batch.

and the butterflies themselves use *Shoup multiplication with lazy
reduction*: every twiddle ``w`` is stored with its precomputed Shoup
companion ``w' = floor(w * 2**32 / q)``, so the modular product inside the
stage loop is two multiplies, a shift and a subtract instead of a hardware
division, and the butterfly outputs are kept in the lazy interval
``[0, 4q)`` (one conditional subtraction per stage, no ``% q`` until the
very end of the transform).  This is Harvey's butterfly; it is exact for
every modulus below 2**30, which :func:`find_ntt_prime` guarantees, and the
final single reduction makes the public API bit-identical to an eagerly
reduced transform.

Twiddle/psi tables are expensive to build (a primitive-root search plus
``O(N)`` modular powers), so contexts are cached per ``(N, q)`` via
:func:`get_ntt_context`.  The cache is *bounded* (``maxsize=64``) so a
long-lived serving process that cycles through many parameter sets cannot
grow it without limit, and :func:`clear_ntt_cache` releases the tables
explicitly.  :func:`batch_ntt` is the module-level entry point used by
:mod:`repro.he.bfv` and the serving runtime.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from . import kernels as _kernels

__all__ = [
    "Domain",
    "is_prime",
    "find_ntt_prime",
    "find_rns_primes",
    "primitive_root",
    "NTTContext",
    "get_ntt_context",
    "clear_ntt_cache",
    "batch_ntt",
]


class Domain(enum.Enum):
    """Which representation a ciphertext polynomial is resident in.

    ``COEFF`` is the coefficient embedding of ``Z_q[X]/(X^N + 1)``;
    ``EVAL`` is the NTT (evaluation) embedding, where negacyclic products
    and rotations are pointwise.  The linear hot path keeps ciphertexts
    resident in ``EVAL`` form end to end -- this is the double-CRT trick of
    SEAL/Gazelle-era PAHE -- and only converts at decrypt boundaries, so
    every forward/inverse transform the tracker records is load-bearing:
    a redundant round trip shows up as a closed-form mismatch in the
    transform-count tests.
    """

    COEFF = "coeff"
    EVAL = "eval"


#: Bound on cached monomial evaluation tables per context (each is one
#: length-``N`` vector; EVAL-domain rotations hit a small set of step sizes).
_MONOMIAL_CACHE_SIZE = 256

#: Shoup precomputation shift: ``w' = floor(w << SHOUP_SHIFT / q)``.  Valid
#: whenever the lazy operands stay below ``2**SHOUP_SHIFT``, i.e. ``4q <=
#: 2**32`` -- guaranteed by the 30-bit cap in :func:`find_ntt_prime`.
_SHOUP_SHIFT = np.uint64(32)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(bits: int, ring_degree: int) -> int:
    """Find the largest prime below ``2**bits`` congruent to 1 mod ``2*ring_degree``.

    Such a prime guarantees the existence of a primitive ``2N``-th root of
    unity, which the negacyclic NTT requires.
    """
    if bits < 4 or bits > 30:
        raise ParameterError(f"NTT prime bits must be in [4, 30], got {bits}")
    step = 2 * ring_degree
    candidate = ((1 << bits) // step) * step + 1
    while candidate > step:
        if candidate < (1 << bits) and is_prime(candidate):
            return candidate
        candidate -= step
    raise ParameterError(
        f"no NTT-friendly prime below 2**{bits} for ring degree {ring_degree}"
    )


def find_rns_primes(bits: int, ring_degree: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest distinct NTT-friendly primes below ``2**bits``.

    Every limb of a double-CRT (RNS) ciphertext basis must independently
    satisfy the negacyclic-NTT conditions -- prime, ``q ≡ 1 (mod 2N)`` and
    under the 30-bit lazy-reduction bound -- so a basis is just ``count``
    outputs of the :func:`find_ntt_prime` search, descending.  Returned
    largest first, matching SEAL's convention of ordering coeff-modulus
    primes by magnitude.
    """
    if count < 1:
        raise ParameterError(f"an RNS basis needs at least one limb, got {count}")
    step = 2 * ring_degree
    primes: list[int] = []
    candidate = ((1 << bits) // step) * step + 1
    while candidate > step and len(primes) < count:
        if candidate < (1 << bits) and is_prime(candidate):
            primes.append(candidate)
        candidate -= step
    if len(primes) < count:
        raise ParameterError(
            f"only {len(primes)} NTT-friendly primes below 2**{bits} for ring "
            f"degree {ring_degree}; requested {count} limbs"
        )
    return tuple(primes)


def primitive_root(modulus: int) -> int:
    """Find a generator of the multiplicative group of ``Z_modulus`` (prime)."""
    order = modulus - 1
    factors = _prime_factors(order)
    for g in range(2, modulus):
        if all(pow(g, order // f, modulus) != 1 for f in factors):
            return g
    raise ParameterError(f"no primitive root found for modulus {modulus}")


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        reversed_indices |= ((indices >> b) & 1) << (bits - 1 - b)
    return reversed_indices


def _mod_powers(base: int, count: int, modulus: int) -> np.ndarray:
    """``[base**0, base**1, ..., base**(count-1)] mod modulus`` as int64."""
    powers = np.empty(count, dtype=np.int64)
    acc = 1
    for i in range(count):
        powers[i] = acc
        acc = acc * base % modulus
    return powers


@dataclass
class NTTContext:
    """Precomputed tables for negacyclic NTT over ``Z_q[X]/(X^N + 1)``.

    Parameters
    ----------
    ring_degree:
        Power-of-two polynomial degree ``N``.
    modulus:
        Prime ``q`` with ``q ≡ 1 (mod 2N)``.

    Contexts are stateless after construction; share them freely across
    threads and ciphertexts (see :func:`get_ntt_context`).
    """

    ring_degree: int
    modulus: int
    _psi_twist: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    _psi_inv_scaled: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    _omega_stages: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)
    _omega_inv_stages: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)
    _bitrev: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.ring_degree
        q = self.modulus
        if n < 2 or n & (n - 1) != 0:
            raise ParameterError(f"ring degree must be a power of two, got {n}")
        if (q - 1) % (2 * n) != 0:
            raise ParameterError(
                f"modulus {q} is not congruent to 1 mod 2*{n}; NTT unavailable"
            )
        if not is_prime(q):
            raise ParameterError(f"modulus {q} must be prime for the NTT backend")
        if 4 * q > 1 << 32:
            raise ParameterError(
                f"modulus {q} exceeds the 30-bit lazy-reduction bound (4q > 2**32)"
            )
        g = primitive_root(q)
        psi = pow(g, (q - 1) // (2 * n), q)
        psi_inv = pow(psi, q - 2, q)
        omega = psi * psi % q
        omega_inv = pow(omega, q - 2, q)
        n_inv = pow(n, q - 2, q)

        self._psi_twist = self._with_shoup(_mod_powers(psi, n, q))
        # The inverse twist and the 1/N scaling are both per-slot constant
        # multiplies, so they fold into one Shoup table.
        self._psi_inv_scaled = self._with_shoup(
            _mod_powers(psi_inv, n, q) * n_inv % q
        )
        self._bitrev = _bit_reverse_indices(n)
        self._omega_stages = self._twiddle_stages(omega)
        self._omega_inv_stages = self._twiddle_stages(omega_inv)
        self._monomial_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._monomial_lock = threading.Lock()

    def _with_shoup(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A twiddle table as uint64 plus its precomputed Shoup companions."""
        q = self.modulus
        values = np.asarray(table, dtype=np.uint64)
        # values < q < 2**30, so the shifted numerator fits uint64 exactly.
        shoup = (values << _SHOUP_SHIFT) // np.uint64(q)
        return values, shoup

    def _twiddle_stages(self, root: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Precompute per-stage (twiddle, Shoup) tables for the iterative NTT.

        The stage for butterfly ``length`` needs ``(root**(n/length))**i`` for
        ``i < length/2``, which is every ``n/length``-th entry of the full
        power table -- one table build serves all ``log N`` stages.
        """
        n = self.ring_degree
        powers = _mod_powers(root, n, self.modulus)
        stages = []
        length = 2
        while length <= n:
            step = n // length
            stages.append(self._with_shoup(powers[::step][: length // 2].copy()))
            length *= 2
        return stages

    # -- core transforms ---------------------------------------------------
    def _shoup_mul(self, a: np.ndarray, w: np.ndarray, w_shoup: np.ndarray) -> np.ndarray:
        """``a * w mod q`` into ``[0, 2q)`` without a division.

        Valid for lazy operands ``a < 2**32`` (our invariant is ``a < 4q``):
        the approximate quotient ``(a * w') >> 32`` is off by at most one,
        so the remainder lands in ``[0, 2q)``.
        """
        quotient = (a * w_shoup) >> _SHOUP_SHIFT
        return a * w - quotient * np.uint64(self.modulus)

    def _transform(
        self, coeffs: np.ndarray, stages: list[tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """Iterative Cooley-Tukey over the last axis of a ``(batch, N)`` array.

        Each butterfly stage is one vectorized slice update across the whole
        batch, and the values live in the lazy interval ``[0, 4q)``: the only
        per-stage reduction is one conditional subtraction of ``2q`` on the
        low operand (no ``% q`` anywhere in the loop).  Callers reduce the
        lazy output exactly once, which keeps results bit-identical to the
        eagerly reduced transform.  Input must already be in ``[0, 4q)``.
        """
        n = self.ring_degree
        two_q = np.uint64(2 * self.modulus)
        a = coeffs[..., self._bitrev]
        batch = a.shape[0]
        length = 2
        for tw, tw_shoup in stages:
            half = length // 2
            blocks = a.reshape(batch, -1, length)
            lo = blocks[..., :half]
            lo = np.where(lo >= two_q, lo - two_q, lo)          # [0, 2q)
            t = self._shoup_mul(blocks[..., half:], tw, tw_shoup)  # [0, 2q)
            out = np.empty_like(blocks)
            out[..., :half] = lo + t                            # [0, 4q)
            out[..., half:] = lo + two_q - t                    # [0, 4q)
            a = out.reshape(batch, n)
            length *= 2
        return a

    # -- single-polynomial API ---------------------------------------------
    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT of a coefficient vector."""
        return self.forward_batch(np.asarray(coeffs, dtype=np.int64)[None, :])[0]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT back to coefficients."""
        return self.inverse_batch(np.asarray(values, dtype=np.int64)[None, :])[0]

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of two coefficient vectors mod ``q``."""
        both = self.forward_batch(np.stack([np.asarray(a), np.asarray(b)]))
        return self.inverse(both[0] * both[1] % self.modulus)

    # -- batched API --------------------------------------------------------
    def _as_batch(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim != 2 or coeffs.shape[1] != self.ring_degree:
            raise ParameterError(
                f"batched NTT expects shape (batch, {self.ring_degree}), "
                f"got {coeffs.shape}"
            )
        return coeffs

    def _forward_batch_numpy(self, coeffs: np.ndarray) -> np.ndarray:
        """The numpy reference forward transform (the ``reference`` tier)."""
        q = self.modulus
        reduced = (self._as_batch(coeffs) % q).astype(np.uint64)
        twisted = self._shoup_mul(reduced, *self._psi_twist)      # [0, 2q)
        lazy = self._transform(twisted, self._omega_stages)
        return (lazy % np.uint64(q)).astype(np.int64)

    def _inverse_batch_numpy(self, values: np.ndarray) -> np.ndarray:
        """The numpy reference inverse transform (the ``reference`` tier)."""
        q = self.modulus
        reduced = (self._as_batch(values) % q).astype(np.uint64)
        lazy = self._transform(reduced, self._omega_inv_stages)
        # Undo the psi twist and the transform's 1/N scaling in one folded
        # Shoup multiply, then reduce the lazy value exactly once.
        scaled = self._shoup_mul(lazy, *self._psi_inv_scaled)     # [0, 2q)
        return (scaled % np.uint64(q)).astype(np.int64)

    def forward_batch(
        self, coeffs: np.ndarray, *, kernel_tier: str | None = None
    ) -> np.ndarray:
        """Forward NTT of every row of a ``(batch, N)`` coefficient array.

        Dispatches to the active kernel tier (see :mod:`repro.he.kernels`);
        every tier is bit-identical to the numpy reference transform.
        """
        return _kernels.ntt_batch(
            self, self._as_batch(coeffs), inverse=False, kernel_tier=kernel_tier
        )

    def inverse_batch(
        self, values: np.ndarray, *, kernel_tier: str | None = None
    ) -> np.ndarray:
        """Inverse NTT of every row of a ``(batch, N)`` value array."""
        return _kernels.ntt_batch(
            self, self._as_batch(values), inverse=True, kernel_tier=kernel_tier
        )

    def multiply_batch(self, coeffs: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Negacyclic product of every row of ``coeffs`` with the vector ``other``.

        One forward transform of the batch, one of ``other``, and one inverse
        of the batch -- the broadcast form used by batched encryption, where
        many random polynomials multiply the same public-key component.
        """
        fa = self.forward_batch(coeffs)
        fb = self.forward(other)
        return self.inverse_batch(fa * fb % self.modulus)

    # -- domain conversion ---------------------------------------------------
    # The batched conversion entry points the evaluation-domain residency
    # layer is written against.  They are the forward/inverse transforms
    # under their domain names, so call sites read as what they are -- a
    # COEFF <-> EVAL boundary crossing -- and the transform-count accounting
    # in :mod:`repro.he.bfv` has one obvious place per crossing.
    def to_eval_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Convert a ``(batch, N)`` array of COEFF polynomials to EVAL form."""
        return self.forward_batch(coeffs)

    def to_coeff_batch(self, values: np.ndarray) -> np.ndarray:
        """Convert a ``(batch, N)`` array of EVAL polynomials to COEFF form."""
        return self.inverse_batch(values)

    def monomial_eval(self, steps: int) -> np.ndarray:
        """EVAL form of the monomial ``X**steps`` (cached per step size).

        Multiplying an EVAL-resident polynomial pointwise by this table is
        exactly the negacyclic rotation ``a(X) -> a(X) * X**steps`` -- the
        same operation :meth:`repro.he.polyring.PolynomialRing.rotate_coefficients`
        performs on COEFF polynomials -- so rotations never force an
        EVAL-resident ciphertext through a transform round trip.  Tables are
        precomputation (like the twiddle tables), not tracked transforms.
        """
        n = self.ring_degree
        steps = steps % (2 * n)
        with self._monomial_lock:
            cached = self._monomial_cache.get(steps)
            if cached is not None:
                self._monomial_cache.move_to_end(steps)
                return cached
        monomial = np.zeros(n, dtype=np.int64)
        if steps < n:
            monomial[steps] = 1
        else:
            # X**N = -1 in the negacyclic ring.
            monomial[steps - n] = self.modulus - 1
        table = self.forward(monomial)
        with self._monomial_lock:
            self._monomial_cache.setdefault(steps, table)
            self._monomial_cache.move_to_end(steps)
            while len(self._monomial_cache) > _MONOMIAL_CACHE_SIZE:
                self._monomial_cache.popitem(last=False)
            return self._monomial_cache[steps]


#: Bound on cached contexts: enough for every parameter set a serving
#: process realistically cycles through, while keeping a long-lived
#: process's table memory finite.
_NTT_CACHE_SIZE = 64

#: The single LRU store behind :func:`get_ntt_context` -- one structure
#: provides the bound and :func:`clear_ntt_cache`.  Guarded by
#: ``_cache_lock``: contexts are looked up concurrently from the front
#: door's drain thread and its callers' threads.
_context_cache: OrderedDict[tuple[int, int], NTTContext] = OrderedDict()
_cache_lock = threading.Lock()


def get_ntt_context(ring_degree: int, modulus: int) -> NTTContext:
    """Shared :class:`NTTContext` per ``(N, q)`` (LRU-bounded).

    Table construction costs a primitive-root search plus ``O(N)`` modular
    powers, so every ring, ciphertext context and serving engine with the
    same parameters reuses one cached instance.  The cache holds at most
    ``64`` contexts; long-lived serving processes can release them all with
    :func:`clear_ntt_cache`.
    """
    key = (ring_degree, modulus)
    with _cache_lock:
        context = _context_cache.get(key)
        if context is not None:
            _context_cache.move_to_end(key)
            return context
    # Build outside the lock (expensive); on a concurrent double-build the
    # first instance stored wins, so callers always share one context.
    built = NTTContext(ring_degree=ring_degree, modulus=modulus)
    with _cache_lock:
        context = _context_cache.get(key)
        if context is None:
            context = _context_cache[key] = built
        _context_cache.move_to_end(key)
        while len(_context_cache) > _NTT_CACHE_SIZE:
            _context_cache.popitem(last=False)
    return context


def clear_ntt_cache() -> None:
    """Drop every cached :class:`NTTContext` (long-lived serving processes)."""
    with _cache_lock:
        _context_cache.clear()


def batch_ntt(
    coeffs: np.ndarray, ring_degree: int, modulus: int, *, inverse: bool = False
) -> np.ndarray:
    """Transform a ``(batch, N)`` array of polynomials in one call.

    Entry point for callers that do not hold a context object (the cached
    context per ``(N, q)`` is looked up internally).
    """
    ctx = get_ntt_context(ring_degree, modulus)
    if inverse:
        return ctx.inverse_batch(coeffs)
    return ctx.forward_batch(coeffs)
