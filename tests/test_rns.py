"""Double-CRT (RNS) ciphertext limbs: CRT bijection, per-limb NTT products,
parameter validation, and end-to-end multi-limb serving.

The RNS refactor has three claims worth independent evidence:

1. the CRT map is an exact ring isomorphism (``compose(decompose(x)) == x``
   and limb-wise products agree with big-int negacyclic products mod ``Q``);
2. a one-limb basis *is* the historical single-modulus scheme -- same RNG
   stream, same ciphertexts, same decryptions, checked here against a
   by-hand big-int reference built from :class:`PolynomialRing` directly;
3. a >=60-bit two-limb basis -- illegal under the old 30-bit ceiling -- runs
   end to end on the exact backend with tracker-measured transform counts
   exactly equal to the limb-scaled closed forms.

Encode and decrypt are int64/float64-native (per-limb scaling constants and
the Halevi-Polyakov-Shoup scale-and-round); the big-int CRT map is their
oracle here, property-tested across plaintext moduli and limb counts, with
crafted residues at the decrypt rounding edge.

Also regression tests for two latent-overflow guards:
``BFVParameters`` rejecting non-NTT-friendly / over-wide moduli at
construction (pre-fix, the 61-bit Mersenne protocol modulus was accepted
and simply wrapped int64 on any exact-backend path), and
``PolynomialRing`` rejecting moduli past the 30-bit int64-product bound.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.he import (
    BFVContext,
    BFVParameters,
    Ciphertext,
    ExactBFVBackend,
    RNSBasis,
    RNSPolynomialRing,
    bsgs_transform_count,
    find_ntt_prime,
    find_rns_primes,
    paper_parameters,
    rns_serving_parameters,
    serving_parameters,
)
from repro.he.bfv import DECRYPT_MARGIN_BITS, MAX_LIMBS, hps_fraction_error
from repro.he.ntt import Domain
from repro.he.polyring import PolynomialRing
from repro.runtime import ServingRuntime

#: Three 30-bit NTT-friendly limbs for a small test ring.
PRIMES_3 = find_rns_primes(30, 64, 3)

#: A 32-bit prime that IS NTT-friendly for N = 64 (q ≡ 1 mod 128) -- the
#: exact shape of modulus whose pointwise products silently wrapped int64
#: before the explicit polyring guard.
PRIME_32BIT_NTT_FRIENDLY = 4294966657
assert PRIME_32BIT_NTT_FRIENDLY.bit_length() == 32
assert (PRIME_32BIT_NTT_FRIENDLY - 1) % 128 == 0


def _reference_negacyclic(a, b, modulus: int) -> list[int]:
    """Schoolbook product in ``Z_Q[X]/(X^N + 1)`` with Python big ints."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + term) % modulus
            else:
                out[k - n] = (out[k - n] - term) % modulus
    return out


class TestCRTBijection:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_compose_decompose_roundtrip(self, data):
        basis = RNSBasis(PRIMES_3)
        values = data.draw(
            st.lists(st.integers(0, basis.product - 1), min_size=1, max_size=8)
        )
        arr = np.array(values, dtype=object)
        recomposed = basis.compose(basis.decompose(arr))
        assert [int(v) for v in recomposed] == values

    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(0, math.prod(PRIMES_3) - 1))
    def test_decompose_is_residue_per_limb(self, x):
        basis = RNSBasis(PRIMES_3)
        limbs = basis.decompose(np.array([x], dtype=object))
        for row, q in zip(limbs, basis.primes, strict=True):
            assert int(row[0]) == x % q

    def test_negative_inputs_land_on_canonical_residues(self):
        basis = RNSBasis(PRIMES_3)
        arr = np.array([-1, -(basis.product // 2)], dtype=object)
        recomposed = basis.compose(basis.decompose(arr))
        assert int(recomposed[0]) == basis.product - 1
        assert int(recomposed[1]) == basis.product - basis.product // 2

    def test_single_limb_basis_is_identity(self):
        q = PRIMES_3[0]
        basis = RNSBasis((q,))
        arr = np.arange(8, dtype=np.int64)
        assert np.array_equal(basis.decompose(arr)[0], arr)
        assert [int(v) for v in basis.compose(arr[None, :])] == list(range(8))

    def test_empty_and_duplicate_bases_rejected(self):
        with pytest.raises(ParameterError):
            RNSBasis(())
        with pytest.raises(ParameterError, match="pairwise distinct"):
            RNSBasis((PRIMES_3[0], PRIMES_3[0]))

    def test_compose_rejects_wrong_limb_count(self):
        basis = RNSBasis(PRIMES_3)
        with pytest.raises(ParameterError, match="limbs"):
            basis.compose(np.zeros((2, 4), dtype=np.int64))


class TestPerLimbNTTProducts:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_limbwise_mul_matches_bigint_negacyclic_product(self, seed):
        """NTT products taken limb by limb ARE the product mod ``Q``."""
        ring = RNSPolynomialRing(degree=16, basis=RNSBasis(PRIMES_3))
        big_q = ring.modulus
        rng = np.random.default_rng(seed)
        a = np.array([int(v) for v in rng.integers(0, 1 << 62, size=16)], dtype=object)
        b = np.array([int(v) for v in rng.integers(0, 1 << 62, size=16)], dtype=object)
        a, b = a % big_q, b % big_q
        product = ring.basis.compose(
            ring.mul(ring.basis.decompose(a), ring.basis.decompose(b))
        )
        assert [int(v) for v in product] == _reference_negacyclic(a, b, big_q)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_forward_inverse_roundtrip_all_limbs(self, seed):
        ring = RNSPolynomialRing(degree=32, basis=RNSBasis(PRIMES_3))
        rng = np.random.default_rng(seed)
        poly = ring.sample_uniform(rng)
        assert np.array_equal(ring.inverse(ring.forward(poly)), poly)

    def test_eval_product_equals_coeff_product(self):
        ring = RNSPolynomialRing(degree=32, basis=RNSBasis(PRIMES_3))
        rng = np.random.default_rng(5)
        a, b = ring.sample_uniform(rng), ring.sample_uniform(rng)
        via_eval = ring.inverse(ring.mul_eval(ring.forward(a), ring.forward(b)))
        assert np.array_equal(via_eval, ring.mul(a, b))


class TestParameterValidation:
    """Satellite: moduli are validated at construction, not deep in NTT setup."""

    def test_pre_rns_mersenne_modulus_rejected(self):
        """Regression: the old protocol parameters used a 61-bit Mersenne
        modulus that no exact-backend path can represent -- pre-fix it was
        accepted at construction and overflowed int64 downstream."""
        with pytest.raises(ParameterError, match="lazy-reduction NTT bound"):
            BFVParameters(
                ring_degree=8192,
                ciphertext_modulus=(1 << 61) - 1,
                plaintext_modulus=1 << 31,
                error_stddev=3.2,
                security_bits=128,
            )

    def test_non_ntt_friendly_limb_rejected(self):
        # 30-bit prime friendly for N=64 but not for N=256 (q-1 % 512 != 0).
        q = find_ntt_prime(30, 64)
        if (q - 1) % 512 == 0:  # extremely unlikely; find one that is not
            q = next(
                p for p in find_rns_primes(30, 64, 8) if (p - 1) % 512 != 0
            )
        with pytest.raises(ParameterError, match="not NTT-friendly"):
            BFVParameters(
                ring_degree=256,
                ciphertext_modulus=q,
                plaintext_modulus=1 << 8,
                error_stddev=1.0,
                security_bits=0,
            )

    def test_composite_limb_rejected(self):
        composite = 2 * 64 * 15 + 1  # 1921 = 17 * 113: NTT-friendly shape, not prime
        assert (composite - 1) % (2 * 64) == 0 and composite == 17 * 113
        with pytest.raises(ParameterError, match="not prime"):
            BFVParameters(
                ring_degree=64,
                ciphertext_modulus=composite,
                plaintext_modulus=2,
                error_stddev=1.0,
                security_bits=0,
            )

    def test_limb_product_must_match_composite_modulus(self):
        primes = find_rns_primes(30, 64, 2)
        with pytest.raises(ParameterError, match="product of the RNS limbs"):
            BFVParameters(
                ring_degree=64,
                ciphertext_modulus=primes[0],  # not the product
                ciphertext_moduli=primes,
                plaintext_modulus=1 << 8,
                error_stddev=1.0,
                security_bits=0,
            )

    def test_plaintext_modulus_compares_against_product_not_limbs(self):
        """t = 2**31 exceeds every 30-bit limb but fits under Q: legal."""
        primes = find_rns_primes(30, 64, 2)
        params = BFVParameters(
            ring_degree=64,
            ciphertext_modulus=math.prod(primes),
            ciphertext_moduli=primes,
            plaintext_modulus=1 << 31,
            error_stddev=1.0,
            security_bits=0,
        )
        assert params.limb_count == 2

    def test_rns_serving_parameters_reach_sixty_bits(self):
        params = rns_serving_parameters(256, 2)
        assert params.limb_count == 2
        assert params.ciphertext_modulus.bit_length() >= 60
        assert math.prod(params.ciphertext_moduli) == params.ciphertext_modulus


class TestPolyRingModulusGuard:
    """Satellite: the int64-product invariant is an explicit guard."""

    def test_32_bit_modulus_rejected(self):
        """Regression: a 32-bit NTT-friendly prime used to construct fine and
        silently wrap ``q**2 > 2**63`` in every pointwise product."""
        with pytest.raises(ParameterError, match="at most 30 bits"):
            PolynomialRing(degree=64, modulus=PRIME_32BIT_NTT_FRIENDLY)

    def test_30_bit_modulus_still_accepted(self):
        ring = PolynomialRing(degree=64, modulus=find_ntt_prime(30, 64))
        assert ring.modulus.bit_length() == 30


def _bigint_reference_decrypt(context, ct) -> np.ndarray:
    """Decrypt by hand with exact big-int arithmetic, no RNS shortcuts.

    Composes ``c0``, ``c1`` and the secret key to integers mod ``Q``, forms
    ``c0 + c1 * s`` as a signed sum of negacyclic shifts of ``c1`` (the
    secret is ternary), and applies the exact BFV rounding
    ``round(t * centered / Q) mod t``.  ``Q`` is odd, so round-half-up
    equals round-to-nearest (no ties exist).
    """
    ring = context.ring
    big_q = ring.modulus
    n = ring.degree
    t = context.params.plaintext_modulus
    ct = context.convert_batch([ct], Domain.COEFF)[0]
    c0 = ring.basis.compose(ct.c0)
    c1 = ring.basis.compose(ct.c1)
    s = ring.basis.compose(context.secret_key.poly)
    acc = np.zeros(n, dtype=object)
    for j in range(n):
        sj = int(s[j])
        if sj == 0:
            continue
        assert sj in (1, big_q - 1), "secret key must be ternary"
        # c1 * s_j * X^j: coefficients wrapping past X^N pick up a sign flip.
        shifted = np.concatenate([-c1[n - j:], c1[: n - j]]) if j else c1
        acc = acc + (shifted if sj == 1 else -shifted)
    raw = (c0 + acc) % big_q
    decoded = []
    for v in raw:
        v = int(v)
        centered = v - big_q if v > big_q // 2 else v
        decoded.append(((2 * centered * t + big_q) // (2 * big_q)) % t)
    return np.array(decoded, dtype=np.int64)


class TestSingleLimbMatchesSingleModulusPath:
    def test_one_limb_decrypt_bit_identical_to_bigint_reference_at_paper_dims(self):
        """Paper ring dimension (N = 4096, one limb): the RNS path and an
        independent big-int reference decrypt agree bit for bit after
        homomorphic ops.  Uses a 30-bit serving-style modulus because the
        exact backend's analytic noise bound rejects ``paper_parameters``'
        29-bit modulus even for fresh ciphertexts."""
        params = BFVParameters(
            ring_degree=paper_parameters().ring_degree,
            ciphertext_modulus=find_ntt_prime(30, 4096),
            plaintext_modulus=1 << 8,
            error_stddev=1.0,
            security_bits=0,
            deployed_modulus_bits=60,
        )
        assert params.limb_count == 1
        backend = ExactBFVBackend(params, seed=11)
        context = backend.context
        rng = np.random.default_rng(11)
        values = rng.integers(0, params.plaintext_modulus, size=64)
        ct = context.encrypt(values, domain=Domain.EVAL)
        ct = context.add_plain(ct, rng.integers(0, 100, size=64))
        ct = context.multiply_scalar(ct, 3)
        ct = context.rotate(ct, 2)
        got = context.decrypt(ct, count=params.ring_degree)
        reference = _bigint_reference_decrypt(context, ct)
        assert np.array_equal(got, reference)

    def test_one_limb_rns_ring_matches_plain_polynomial_ring(self):
        """The one-limb RNS ring consumes the RNG stream exactly like the
        historical single-modulus ``PolynomialRing`` and computes the same
        products -- the refactor cannot have changed any 1-limb ciphertext."""
        q = find_ntt_prime(29, 64)
        plain_ring = PolynomialRing(degree=64, modulus=q)
        rns_ring = RNSPolynomialRing(degree=64, basis=RNSBasis((q,)))
        for sampler in ("sample_uniform", "sample_ternary"):
            a = getattr(plain_ring, sampler)(np.random.default_rng(3))
            b = getattr(rns_ring, sampler)(np.random.default_rng(3))
            assert np.array_equal(b, a[None, :]), sampler
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        x, y = plain_ring.sample_uniform(rng_a), plain_ring.sample_uniform(rng_a)
        xr, yr = rns_ring.sample_uniform(rng_b), rns_ring.sample_uniform(rng_b)
        assert np.array_equal(rns_ring.mul(xr, yr)[0], plain_ring.mul(x, y))


class TestTwoLimbEndToEnd:
    """Acceptance: a >=60-bit two-limb set encrypts, serves and decrypts."""

    def test_roundtrip_and_homomorphic_ops_against_bigint_reference(self):
        params = rns_serving_parameters(256, 2)
        backend = ExactBFVBackend(params, seed=7)
        context = backend.context
        t = params.plaintext_modulus
        rng = np.random.default_rng(7)
        values = rng.integers(0, t, size=32)
        plus = rng.integers(0, t, size=32)
        ct = context.encrypt(values, domain=Domain.EVAL)
        ct = context.add_plain(ct, plus)
        ct = context.multiply_scalar(ct, 5)
        ct = context.rotate(ct, 3)
        # Rotation is a multiply by X**3: slots shift up by 3 and the first
        # 3 pull (negated) zeros down from the unused top of the ring.
        base = (values + plus) * 5 % t
        expected = np.concatenate([np.zeros(3, dtype=np.int64), base[:29]])
        got = context.decrypt(ct, count=32)
        assert np.array_equal(got, expected)
        # The decrypt itself is bit-identical to the big-int reference.
        assert np.array_equal(
            context.decrypt(ct, count=params.ring_degree),
            _bigint_reference_decrypt(context, ct),
        )

    def test_coeff_and_eval_residency_decrypt_identically(self):
        params = rns_serving_parameters(256, 2)
        for seed in (1, 2):
            eval_ct = ExactBFVBackend(params, seed=seed, eval_residency=True)
            coeff_ct = ExactBFVBackend(params, seed=seed, eval_residency=False)
            values = np.arange(24) % params.plaintext_modulus
            a = eval_ct.encrypt(values)
            b = coeff_ct.encrypt(values)
            assert np.array_equal(
                eval_ct.decrypt(a)[:24], coeff_ct.decrypt(b)[:24]
            )

    def test_serving_linear_path_transform_counts_are_limb_scaled(self):
        """End-to-end serving on the exact backend with two limbs: results
        exact, and tracker transforms equal the limb-scaled closed form
        ``(3 * input_cts + output_cts) * L`` -- the accounting model's
        ``he_ntt_transforms`` formula."""
        rng = np.random.default_rng(13)
        weights = rng.integers(0, 7, size=(16, 4))
        matrices = [rng.integers(0, 100, size=(8, 16)) for _ in range(4)]

        def run(params, seed=5):
            backend = ExactBFVBackend(params, seed=seed)
            runtime = ServingRuntime(backend_factory=lambda: backend, max_batch_size=4)
            runtime.register_weights("proj", weights)
            ids = [runtime.submit_linear("proj", m) for m in matrices]
            runtime.run_pending()
            t = backend.plaintext_modulus
            for m, rid in zip(matrices, ids, strict=True):
                assert np.array_equal(
                    runtime.result(rid).result, (m @ weights) % t
                )
            return (
                backend.tracker.count("ntt_forward"),
                backend.tracker.count("ntt_inverse"),
                backend.tracker.count("he_rotate"),
            )

        one_fwd, one_inv, one_rot = run(serving_parameters(256))
        two_fwd, two_inv, two_rot = run(rns_serving_parameters(256, 2))
        # Transform counts scale exactly by the limb count ...
        assert (two_fwd, two_inv) == (2 * one_fwd, 2 * one_inv)
        # ... and match the closed form: 16 input ciphertexts encrypted
        # EVAL-native (3 forwards each per limb), 4 output ciphertexts
        # inverse-transformed once each per limb at the decrypt boundary.
        input_cts, output_cts = 16, 4
        assert two_fwd == 3 * input_cts * 2
        assert two_inv == output_cts * 2
        # Rotations are whole-ciphertext ops: limb-independent.
        assert two_rot == one_rot

    def test_bsgs_closed_form_accepts_limb_factor(self):
        """``bsgs_transform_count`` scales by ``limbs`` exactly."""
        base = bsgs_transform_count(16, 16, 4, 256)
        assert bsgs_transform_count(16, 16, 4, 256, limbs=2) == 2 * base
        assert bsgs_transform_count(16, 16, 4, 256, limbs=6) == 6 * base


#: (t, L) pairs for the native encode/decrypt properties; t must stay below
#: Q, which drops t = 2**31 over one 30-bit limb.
NATIVE_CASES = [
    (t, limbs)
    for t in (1 << 8, 1 << 15, 1 << 31)
    for limbs in (1, 2, 6)
    if t < math.prod(find_rns_primes(30, 64, limbs))
]


@functools.lru_cache(maxsize=None)
def _native_context(t: int, limbs: int) -> BFVContext:
    primes = find_rns_primes(30, 64, limbs)
    params = BFVParameters(
        ring_degree=64,
        ciphertext_modulus=math.prod(primes),
        ciphertext_moduli=primes,
        plaintext_modulus=t,
        error_stddev=1.0,
        security_bits=0,
    )
    return BFVContext(params, seed=limbs)


def _oracle_round(basis: RNSBasis, raw: np.ndarray, t: int) -> list[int]:
    """``round(t * centered / Q) mod t`` through the big-int CRT composition."""
    big_q = basis.product
    out = []
    for v in basis.compose(raw):
        centered = int(v) - big_q if v > big_q // 2 else int(v)
        out.append((2 * centered * t + big_q) // (2 * big_q) % t)
    return out


def _edge_residues(basis: RNSBasis, t: int, m: int, delta: Fraction, side: int):
    """Residues of the integer ``x`` nearest to ``t x / Q = m + side (1/2 - delta)``.

    ``side = +1`` sits just below the boundary between ``m`` and ``m + 1``,
    ``side = -1`` just above the one between ``m - 1`` and ``m``.  Returns
    the residues and ``x``'s exact noise ``x - m Q / t``.
    """
    big_q = basis.product
    x = round((m + side * (Fraction(1, 2) - delta)) * big_q / t)
    raw = basis.decompose(np.array([x % big_q], dtype=object))
    return raw, x - Fraction(m * big_q, t)


class TestNativeEncodeDecrypt:
    """The per-request path never builds a big integer, and equals the one
    that does: encode against ``(m Q + t // 2) // t`` decomposed, decrypt
    against CRT composition and exact rounding."""

    @pytest.mark.parametrize("t,limbs", NATIVE_CASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_int64_encode_matches_bigint_oracle(self, t, limbs, data):
        context = _native_context(t, limbs)
        big_q = context.ring.modulus
        values = data.draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=16))
        oracle = context.ring.basis.decompose(
            np.array([(v * big_q + t // 2) // t for v in values], dtype=object)
        )
        plain = np.array(values, dtype=np.int64)
        assert np.array_equal(context._scale_plaintext(plain), oracle)
        assert np.array_equal(context._scale_plaintext(plain[None, :]), oracle[:, None, :])

    @pytest.mark.parametrize("t,limbs", NATIVE_CASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_scale_and_round_matches_compose_oracle(self, t, limbs, data):
        """Any residue whose noise keeps its budget above the margin rounds
        exactly -- hypothesis drives the noise to both extremes."""
        context = _native_context(t, limbs)
        basis = context.ring.basis
        big_q = basis.product
        # Budget b leaves noise Q/(2t) 2**-b; at the margin that is
        # Q/(2t) (1 - 2 error).  One less absorbs the encode rounding.
        limit = math.floor(
            Fraction(big_q, 2 * t) * (1 - 2 * Fraction(hps_fraction_error(MAX_LIMBS)))
        ) - 1
        count = data.draw(st.integers(1, 12))
        values = data.draw(st.lists(st.integers(0, t - 1), min_size=count, max_size=count))
        noise = data.draw(st.lists(st.integers(-limit, limit), min_size=count, max_size=count))
        x = [((v * big_q + t // 2) // t + e) % big_q for v, e in zip(values, noise, strict=True)]
        raw = basis.decompose(np.array(x, dtype=object))
        got = context._scale_and_round(raw)
        assert got.dtype == np.int64
        assert got.tolist() == _oracle_round(basis, raw, t) == values

    @pytest.mark.parametrize("t,limbs", NATIVE_CASES)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), scalar=st.integers(-40, 40))
    def test_decrypt_matches_bigint_reference(self, t, limbs, seed, scalar):
        context = _native_context(t, limbs)
        rng = np.random.default_rng(seed)
        ct = context.encrypt(rng.integers(0, t, size=48))
        ct = context.add_plain(ct, rng.integers(0, t, size=48))
        ct = context.rotate(context.multiply_scalar(ct, scalar), 3)
        assert np.array_equal(
            context.decrypt(ct, count=64), _bigint_reference_decrypt(context, ct)
        )

    def test_fraction_error_bound_is_the_documented_size(self):
        assert 2.0**-18 < hps_fraction_error(6) < 2.0**-17
        assert hps_fraction_error(1) < hps_fraction_error(6) < hps_fraction_error(MAX_LIMBS)
        assert 0 < DECRYPT_MARGIN_BITS < 1e-3

    @pytest.mark.parametrize("t", [1 << 8, 1 << 31])
    def test_rounding_exact_just_outside_the_float_error(self, t):
        """Crafted residues whose ``frac(t x / Q)`` lies twice the float
        error from 1/2 round exactly, on both sides of both neighbours."""
        context = _native_context(t, 6)
        basis = context.ring.basis
        delta = 2 * Fraction(hps_fraction_error(6))
        for m in (0, 1, t // 2, t - 1):
            for side in (1, -1):
                raw, _ = _edge_residues(basis, t, m, delta, side)
                assert context._scale_and_round(raw).tolist() == [m]
                assert _oracle_round(basis, raw, t) == [m]

    @pytest.mark.parametrize("limbs", [1, 6])
    def test_decrypt_refuses_inside_margin_and_is_exact_outside(self, limbs):
        """A ciphertext whose budget is at or below the margin is refused;
        just above it, it decrypts to the exact value."""
        t = 1 << 8
        context = _native_context(t, limbs)
        basis = context.ring.basis
        error = Fraction(hps_fraction_error(MAX_LIMBS))
        zeros = np.zeros((limbs, 64), dtype=np.int64)
        for m, side in ((5, 1), (200, -1)):
            for delta, refused in ((error / 2, True), (2 * error, False)):
                raw, noise = _edge_residues(basis, t, m, delta, side)
                c0 = zeros.copy()
                c0[:, 0] = raw[:, 0]
                ct = Ciphertext(
                    c0=c0, c1=zeros.copy(), noise_bound=float(abs(noise)),
                    slots_used=1, domain=Domain.COEFF,
                )
                budget = context.noise_budget(ct)
                assert (budget <= DECRYPT_MARGIN_BITS) is refused, (m, side, budget)
                if refused:
                    with pytest.raises(NoiseBudgetExhausted):
                        context.decrypt(ct)
                else:
                    assert context.decrypt(ct).tolist() == [m]

    @pytest.mark.parametrize(
        "t,limbs", [((1 << 31) + 1, 3), (1 << 8, MAX_LIMBS + 1)], ids=["t", "limbs"]
    )
    def test_unsupported_plaintext_modulus_or_limb_count_rejected(self, t, limbs):
        """Past either bound the int64 encode or the float margin is unproven."""
        primes = find_rns_primes(30, 64, limbs)
        params = BFVParameters(
            ring_degree=64,
            ciphertext_modulus=math.prod(primes),
            ciphertext_moduli=primes,
            plaintext_modulus=t,
            error_stddev=1.0,
            security_bits=0,
        )
        with pytest.raises(ParameterError, match="exact backend needs"):
            BFVContext(params)
