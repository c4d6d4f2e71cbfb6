"""Seeded secret-key encryption: what a receiver re-expands, and what it costs.

The key holder's fresh ciphertexts carry ``c1`` as a 32-byte public seed.
These tests read the seed expansion back with an independent word-by-word
loop, check the wire size and the transform charges on both backends, and
that the server's public-key zero encryptions are unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.he import (
    BFVParameters,
    Domain,
    ExactBFVBackend,
    SimulatedHEBackend,
    rns_serving_parameters,
    toy_parameters,
)
from repro.he.bfv import EXPAND_SLACK_WORDS, expand_seed
from repro.he.params import SEED_BYTES
from repro.he.tracker import NTT_FORWARD, NTT_INVERSE

#: The smallest NTT-friendly prime above 2**20 for N = 64: 21 bits, so about
#: one masked word in two is rejected.
PRIME_ABOVE_POWER_OF_TWO = 1049089


def _read_limb(seed: bytes, limb: int, q: int, n: int) -> tuple[list[int], int]:
    """``(first n kept words, words read)`` of one limb's stream, word by word."""
    stream = hashlib.shake_256(seed + bytes([limb])).digest(4 * 16 * n)
    mask = (1 << q.bit_length()) - 1
    kept: list[int] = []
    read = 0
    while len(kept) < n:
        assert 4 * (read + 1) <= len(stream), "test stream too short"
        word = int.from_bytes(stream[4 * read: 4 * read + 4], "little") & mask
        read += 1
        if word < q:
            kept.append(word)
    return kept, read


def _receiver_expand(seed: bytes, params: BFVParameters) -> np.ndarray:
    n = params.ring_degree
    return np.array(
        [_read_limb(seed, limb, q, n)[0] for limb, q in enumerate(params.ciphertext_moduli)],
        dtype=np.int64,
    )


class TestSeedExpansion:
    @pytest.mark.parametrize("params", [toy_parameters(64), rns_serving_parameters(256, 2)])
    def test_receiver_re_expands_c1_from_seed_and_params(self, params):
        """EVAL c1 is the expansion; COEFF c1 is its inverse NTT."""
        ev = ExactBFVBackend(params, seed=3)
        co = ExactBFVBackend(params, seed=3, eval_residency=False)
        values = [np.arange(10) + k for k in range(3)]
        for h_eval, h_coeff in zip(ev.encrypt_batch(values), co.encrypt_batch(values), strict=True):
            seed = h_eval.ciphertext.seed
            assert len(seed) == SEED_BYTES and h_coeff.ciphertext.seed == seed
            a = _receiver_expand(seed, params)
            assert np.array_equal(h_eval.ciphertext.c1, a)
            assert np.array_equal(h_coeff.ciphertext.c1, co.context.ring.inverse(a))

    def test_words_are_masked_to_the_prime_width(self):
        """28-bit toy primes: a 30-bit mask would reject three words in four."""
        params = toy_parameters(64)
        (q,) = params.ciphertext_moduli
        assert q.bit_length() == 28
        seed = bytes(range(SEED_BYTES))
        kept, read = _read_limb(seed, 0, q, params.ring_degree)
        assert read < 2 * params.ring_degree
        assert np.array_equal(expand_seed(seed, params)[0], kept)

    def test_short_limb_keeps_reading(self):
        """A limb whose first read comes up short reads on, bit-exactly."""
        q = PRIME_ABOVE_POWER_OF_TWO
        params = BFVParameters(
            ring_degree=64, ciphertext_modulus=q * 268432897,
            ciphertext_moduli=(q, 268432897), plaintext_modulus=17, security_bits=0,
        )
        n = params.ring_degree
        first_read = n * (1 << q.bit_length()) // q + EXPAND_SLACK_WORDS
        short = 0
        for k in range(16):
            seed = bytes([k]) * SEED_BYTES
            _kept, read = _read_limb(seed, 0, q, n)
            short += read > first_read
            assert np.array_equal(expand_seed(seed, params), _receiver_expand(seed, params))
        assert short > 0

    def test_no_two_ciphertexts_of_a_context_share_a_seed(self):
        backend = ExactBFVBackend(toy_parameters(64), seed=9)
        handles = backend.encrypt_batch([np.arange(4)] * 20)
        handles += [backend.encrypt(np.arange(4)) for _ in range(20)]
        seeds = {handle.ciphertext.seed for handle in handles}
        assert len(seeds) == len(handles)


class TestSecretKeyEncryption:
    def test_fresh_error_is_small_and_inside_the_noise_bound(self):
        """``c0 + c1 s - Delta m`` is the private error ``e``: a few sigma wide."""
        params = rns_serving_parameters(256, 2)
        context = ExactBFVBackend(params, seed=4).context
        values = np.arange(50) * 1234567 % params.plaintext_modulus
        ct = context.encrypt(values, domain=Domain.COEFF)
        ring = context.ring
        phase = np.mod(ct.c0 + ring.mul(ct.c1, context.secret_key.poly), context._q_col)
        e = ring.basis.compose(phase - context._scale_plaintext(context.encode(values)))
        big_q = ring.modulus
        centered = np.array([int(x) - big_q if x > big_q // 2 else int(x) for x in e])
        assert 0 < np.abs(centered).max() <= 8 * params.error_stddev <= ct.noise_bound

    def test_upload_is_half_a_ciphertext_plus_the_seed(self):
        params = rns_serving_parameters(4096, 6)
        assert params.seeded_ciphertext_bytes == params.ciphertext_bytes // 2 + SEED_BYTES
        assert params.seeded_ciphertext_bytes == 4096 * 23 + 32

    @pytest.mark.parametrize("residency", [True, False])
    def test_zero_stays_public_key_on_both_backends(self, residency):
        """The server's zero has no seed, 3 transforms per limb, and decrypts to 0."""
        params = rns_serving_parameters(256, 2)
        exact = ExactBFVBackend(params, seed=6, eval_residency=residency)
        sim = SimulatedHEBackend(params, eval_residency=residency)
        handles = [backend.zero(8) for backend in (exact, sim)]
        assert handles[0].ciphertext.seed is None
        want = {NTT_FORWARD: 6, NTT_INVERSE: 0} if residency else {NTT_FORWARD: 2, NTT_INVERSE: 4}
        assert exact.tracker.transform_counts() == sim.tracker.transform_counts() == want
        assert not exact.decrypt(handles[0]).any()
