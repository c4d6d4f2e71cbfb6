"""Property tests for the vectorized negacyclic NTT and its batched path.

The NTT is the exact backend's hottest loop, so it is held to a higher bar
than the rest of the substrate: roundtrip and convolution identities across
several ``(N, q)`` pairs, equivalence of the vectorized transform with a
slow ``O(N**2)`` reference built independently of the context's tables, and
agreement of the batched entry points with their per-polynomial forms on
both HE backends.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import (
    ExactBFVBackend,
    NTTContext,
    SimulatedHEBackend,
    batch_ntt,
    clear_ntt_cache,
    find_ntt_prime,
    find_rns_primes,
    get_ntt_context,
    paper_parameters,
    primitive_root,
    serving_parameters,
    toy_parameters,
)
from repro.he import ntt as ntt_module
from repro.he import test_parameters as midsize_parameters  # avoid pytest collection
from repro.he.polyring import PolynomialRing

#: (ring_degree, modulus) pairs spanning the sizes the backends actually use.
NQ_PAIRS = [
    (8, find_ntt_prime(20, 8)),
    (32, find_ntt_prime(24, 32)),
    (64, find_ntt_prime(28, 64)),
    (256, find_ntt_prime(29, 256)),
]


def _reference_forward(coeffs: np.ndarray, n: int, q: int) -> np.ndarray:
    """Slow ``O(N**2)`` negacyclic NTT built from first principles.

    Evaluates the psi-twisted polynomial at the powers of ``omega = psi**2``,
    deriving ``psi`` the same deterministic way the context does but without
    touching any of its precomputed tables or its butterfly network.
    """
    g = primitive_root(q)
    psi = pow(g, (q - 1) // (2 * n), q)
    omega = psi * psi % q
    out = np.zeros(n, dtype=np.int64)
    for k in range(n):
        acc = 0
        for j in range(n):
            acc = (acc + int(coeffs[j]) * pow(psi, j, q) * pow(omega, j * k, q)) % q
        out[k] = acc
    return out


def _reference_negacyclic_product(a: np.ndarray, b: np.ndarray, n: int, q: int) -> np.ndarray:
    """Schoolbook negacyclic convolution with exact Python integers."""
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            sign = 1
            if k >= n:
                k -= n
                sign = -1
            out[k] = (out[k] + sign * int(a[i]) * int(b[j])) % q
    return np.array(out, dtype=np.int64)


class TestTransformProperties:
    @pytest.mark.parametrize("n,q", NQ_PAIRS)
    def test_roundtrip(self, n, q, rng):
        ctx = NTTContext(n, q)
        poly = rng.integers(0, q, n)
        assert np.array_equal(ctx.inverse(ctx.forward(poly)), poly % q)

    @pytest.mark.parametrize("n,q", NQ_PAIRS)
    def test_batched_roundtrip(self, n, q, rng):
        ctx = NTTContext(n, q)
        batch = rng.integers(0, q, size=(5, n))
        assert np.array_equal(ctx.inverse_batch(ctx.forward_batch(batch)), batch % q)

    @pytest.mark.parametrize("n,q", NQ_PAIRS[:3])
    def test_forward_matches_slow_reference(self, n, q, rng):
        ctx = NTTContext(n, q)
        poly = rng.integers(0, q, n)
        assert np.array_equal(ctx.forward(poly), _reference_forward(poly, n, q))

    @pytest.mark.parametrize("n,q", NQ_PAIRS)
    def test_batch_rows_match_single_transforms(self, n, q, rng):
        ctx = NTTContext(n, q)
        batch = rng.integers(0, q, size=(4, n))
        fwd = ctx.forward_batch(batch)
        for i in range(batch.shape[0]):
            assert np.array_equal(fwd[i], ctx.forward(batch[i]))

    @pytest.mark.parametrize("n,q", NQ_PAIRS)
    def test_forward_is_linear(self, n, q, rng):
        ctx = NTTContext(n, q)
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        lhs = ctx.forward((a + b) % q)
        rhs = (ctx.forward(a) + ctx.forward(b)) % q
        assert np.array_equal(lhs, rhs)


class TestConvolutionIdentity:
    @pytest.mark.parametrize("n,q", NQ_PAIRS[:3])
    def test_multiply_matches_reference(self, n, q, rng):
        ctx = NTTContext(n, q)
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        assert np.array_equal(
            ctx.multiply(a, b), _reference_negacyclic_product(a, b, n, q)
        )

    @pytest.mark.parametrize("n,q", NQ_PAIRS)
    def test_multiply_batch_matches_single(self, n, q, rng):
        ctx = NTTContext(n, q)
        batch = rng.integers(0, q, size=(6, n))
        other = rng.integers(0, q, n)
        products = ctx.multiply_batch(batch, other)
        for i in range(batch.shape[0]):
            assert np.array_equal(products[i], ctx.multiply(batch[i], other))

    def test_multiply_by_monomial_rotates(self, rng):
        """x * X**k must equal the ring's negacyclic rotation of x."""
        n, q = 32, find_ntt_prime(24, 32)
        ring = PolynomialRing(n, q)
        poly = rng.integers(0, q, n)
        for k in (1, 5, n - 1):
            monomial = np.zeros(n, dtype=np.int64)
            monomial[k] = 1
            assert np.array_equal(
                ring.mul(poly, monomial), ring.rotate_coefficients(poly, k)
            )


class TestRotationVectorization:
    def test_matches_slow_reference(self, rng):
        n, q = 64, find_ntt_prime(28, 64)
        ring = PolynomialRing(n, q)
        poly = rng.integers(0, q, n)
        for steps in (0, 1, 7, n - 1, n, n + 3, 2 * n - 1, 2 * n):
            slow = np.zeros_like(poly)
            for offset in range(n):
                target = offset + (steps % (2 * n))
                sign = 1
                while target >= n:
                    target -= n
                    sign = -sign
                slow[target] = (sign * poly[offset]) % q
            assert np.array_equal(ring.rotate_coefficients(poly, steps), slow), steps


def _eager_transform(coeffs: np.ndarray, n: int, q: int, *, inverse: bool) -> np.ndarray:
    """The pre-Shoup eagerly reduced transform, rebuilt from first principles.

    Every butterfly stage reduces with ``% q`` after every multiply -- the
    implementation the lazy-reduction rewrite must stay bit-identical to.
    Tables are derived independently of :class:`NTTContext`.
    """
    g = primitive_root(q)
    psi = pow(g, (q - 1) // (2 * n), q)
    omega = psi * psi % q
    if inverse:
        omega = pow(omega, q - 2, q)
    powers = np.array([pow(omega, i, q) for i in range(n)], dtype=np.int64)
    bits = n.bit_length() - 1
    indices = np.arange(n)
    bitrev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        bitrev |= ((indices >> b) & 1) << (bits - 1 - b)

    if inverse:
        a = (np.asarray(coeffs, dtype=np.int64) % q)[..., bitrev]
    else:
        twist = np.array([pow(psi, i, q) for i in range(n)], dtype=np.int64)
        a = ((np.asarray(coeffs, dtype=np.int64) % q) * twist % q)[..., bitrev]
    batch = a.shape[0]
    length = 2
    while length <= n:
        half = length // 2
        tw = powers[:: n // length][:half]
        blocks = a.reshape(batch, -1, length)
        lo = blocks[..., :half]
        t = blocks[..., half:] * tw % q
        out = np.empty_like(blocks)
        out[..., :half] = (lo + t) % q
        out[..., half:] = (lo - t) % q
        a = out.reshape(batch, n)
        length *= 2
    if inverse:
        n_inv = pow(n, q - 2, q)
        twist_inv = np.array(
            [pow(pow(psi, q - 2, q), i, q) for i in range(n)], dtype=np.int64
        )
        a = a * n_inv % q
        a = a * twist_inv % q
    return a


class TestLazyReductionEquivalence:
    """The Shoup/lazy-reduction stage loop is bit-identical to eager % q."""

    #: every (N, q) pair params.py can produce (all four parameter families)
    PARAMS_MODULI: ClassVar[list[tuple[str, object]]] = [
        ("toy", toy_parameters(64)),
        ("toy-256", toy_parameters(256)),
        ("test", midsize_parameters(256)),
        ("serving", serving_parameters(256)),
        ("paper", paper_parameters()),
    ]

    @pytest.mark.parametrize("name,params", PARAMS_MODULI, ids=[p[0] for p in PARAMS_MODULI])
    def test_forward_and_inverse_match_eager_reference(self, name, params, rng):
        n, q = params.ring_degree, params.ciphertext_modulus
        ctx = NTTContext(n, q)
        batch = rng.integers(0, q, size=(4, n))
        assert np.array_equal(
            ctx.forward_batch(batch), _eager_transform(batch, n, q, inverse=False)
        )
        values = rng.integers(0, q, size=(4, n))
        assert np.array_equal(
            ctx.inverse_batch(values), _eager_transform(values, n, q, inverse=True)
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), index=st.integers(0, 3))
    def test_hypothesis_equivalence_on_small_rings(self, seed, index):
        params = self.PARAMS_MODULI[index][1]  # paper ring excluded for speed
        n, q = params.ring_degree, params.ciphertext_modulus
        ctx = get_ntt_context(n, q)
        batch = np.random.default_rng(seed).integers(0, q, size=(2, n))
        eager = _eager_transform(batch, n, q, inverse=False)
        assert np.array_equal(ctx.forward_batch(batch), eager)
        assert np.array_equal(
            ctx.inverse_batch(eager) % q, batch % q
        )

    def test_rejects_moduli_beyond_the_lazy_bound(self):
        # 4q must fit 2**32 for Shoup reduction; a >30-bit prime must fail
        # loudly instead of overflowing silently.
        oversized = 2147483777  # prime, 1 mod 2*64, above the bound
        with pytest.raises(ParameterError):
            NTTContext(64, oversized)


class TestBoundedCache:
    @staticmethod
    def _cached_pairs() -> list[tuple[int, int]]:
        return list(ntt_module._context_cache)

    def test_cache_is_bounded_and_clearable(self):
        clear_ntt_cache()
        for degree in (8, 16, 32, 64):
            get_ntt_context(degree, find_ntt_prime(24, degree))
        assert len(self._cached_pairs()) == 4
        clear_ntt_cache()
        assert self._cached_pairs() == []
        # A cleared cache rebuilds transparently.
        n, q = 64, find_ntt_prime(28, 64)
        assert get_ntt_context(n, q) is get_ntt_context(n, q)

    def test_recent_parameters_track_lru_order(self):
        clear_ntt_cache()
        pairs = [(8, find_ntt_prime(20, 8)), (16, find_ntt_prime(20, 16))]
        for pair in pairs:
            get_ntt_context(*pair)
        assert self._cached_pairs() == pairs
        get_ntt_context(*pairs[0])  # touch: moves to most-recent
        assert self._cached_pairs() == [pairs[1], pairs[0]]


class TestEntryPointsAndCaching:
    def test_batch_ntt_roundtrip(self, rng):
        n, q = 64, find_ntt_prime(28, 64)
        batch = rng.integers(0, q, size=(3, n))
        fwd = batch_ntt(batch, n, q)
        back = batch_ntt(fwd, n, q, inverse=True)
        assert np.array_equal(back, batch % q)
        assert np.array_equal(fwd, NTTContext(n, q).forward_batch(batch))

    def test_context_cached_per_parameters(self):
        n, q = 64, find_ntt_prime(28, 64)
        assert get_ntt_context(n, q) is get_ntt_context(n, q)
        # Rings with equal parameters share one context (tables built once).
        assert PolynomialRing(n, q).ntt is PolynomialRing(n, q).ntt

    def test_batch_shape_validation(self):
        n, q = 32, find_ntt_prime(24, 32)
        ctx = NTTContext(n, q)
        with pytest.raises(ParameterError):
            ctx.forward_batch(np.zeros((2, n + 1), dtype=np.int64))
        with pytest.raises(ParameterError):
            ctx.forward_batch(np.zeros(n, dtype=np.int64))  # 1-D is not a batch


class TestBackendBatchEquivalence:
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: ExactBFVBackend(toy_parameters(64), seed=3),
            lambda: ExactBFVBackend(midsize_parameters(256), seed=3),
            lambda: ExactBFVBackend(serving_parameters(256), seed=3),
            lambda: SimulatedHEBackend(toy_parameters(64)),
        ],
    )
    def test_encrypt_decrypt_batch_roundtrip(self, make_backend, rng):
        backend = make_backend()
        t = backend.plaintext_modulus
        vectors = [rng.integers(0, t, size=size) for size in (1, 5, 16, 40)]
        handles = backend.encrypt_batch(vectors)
        decrypted = backend.decrypt_batch(handles)
        for values, got in zip(vectors, decrypted, strict=True):
            assert np.array_equal(got[: values.size], values % t)

    def test_batch_matches_sequential_on_exact_backend(self, rng):
        """The batched NTT path must decrypt to the same residues as a loop."""
        batch_backend = ExactBFVBackend(midsize_parameters(256), seed=9)
        loop_backend = ExactBFVBackend(midsize_parameters(256), seed=9)
        vectors = [rng.integers(0, 1 << 15, size=30) for _ in range(6)]
        batched = batch_backend.decrypt_batch(batch_backend.encrypt_batch(vectors))
        looped = [loop_backend.decrypt(loop_backend.encrypt(v)) for v in vectors]
        for got, expected in zip(batched, looped, strict=True):
            assert np.array_equal(got, expected)

    def test_batch_accounting_counts_every_ciphertext(self):
        backend = SimulatedHEBackend(toy_parameters(64))
        backend.encrypt_batch([np.arange(4)] * 7)
        assert backend.tracker.count("encrypt") == 7
        exact = ExactBFVBackend(toy_parameters(64), seed=1)
        exact.encrypt_batch([np.arange(4)] * 7)
        assert exact.tracker.count("encrypt") == 7


def test_uint64_shoup_companions_match_bigint_formula():
    """The uint64 Shoup companions equal ``(w << 32) // q`` in Python ints
    for every table of every limb of the six-limb N = 4096 basis."""
    for q in find_rns_primes(30, 4096, 6):
        ctx = NTTContext(4096, q)
        tables = [
            ctx._psi_twist, ctx._psi_inv_scaled,
            *ctx._omega_stages, *ctx._omega_inv_stages,
        ]
        for values, shoup in tables:
            expected = np.array([(int(v) << 32) // q for v in values], dtype=np.uint64)
            assert shoup.dtype == np.uint64
            assert np.array_equal(shoup, expected), q
