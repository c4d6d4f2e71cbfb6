"""Compiled/parallel kernel tier: bit-identity, selection, calibration.

The kernel tier moves the NTT butterflies and the BSGS inner loop into
compiled (and optionally multicore) implementations behind
:mod:`repro.he.kernels`.  The whole contract is *bit-identity*: every tier
must produce exactly the arrays the ``reference`` numpy path produces --
per primitive (forward/inverse NTT, pointwise multiply, fused accumulate)
across every modulus the parameter families generate, and end to end
(serving logits, tracker-measured transform and rotation counts).  The
selection chain (explicit > ``tier_scope`` > ``set_kernel_tier`` >
``REPRO_KERNEL_TIER`` > self-calibrated auto) is pinned here too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.he import (
    BFVParameters,
    ExactBFVBackend,
    SimulatedHEBackend,
    find_rns_primes,
    get_ntt_context,
    paper_parameters,
    rns_serving_parameters,
    serving_parameters,
    toy_parameters,
)
from repro.he import test_parameters as midsize_parameters  # avoid pytest collection
from repro.he import kernels
from repro.runtime import ServingRuntime

TIERS = kernels.available_tiers()
NON_REFERENCE = [name for name in TIERS if name != "reference"]

#: every (N, q) pair the parameter families produce
PARAMS_MODULI = [
    ("toy", toy_parameters(64)),
    ("test", midsize_parameters(256)),
    ("serving", serving_parameters(256)),
    ("paper", paper_parameters()),
    ("rns2", rns_serving_parameters(256, 2)),
]


def _limb_pairs(params):
    if params.ciphertext_moduli:
        return [(params.ring_degree, q) for q in params.ciphertext_moduli]
    return [(params.ring_degree, params.ciphertext_modulus)]


@pytest.fixture(autouse=True)
def _reset_selection():
    """Each test starts from env/auto resolution with no pinned tier."""
    previous = kernels.get_kernel_tier()
    yield
    kernels.set_kernel_tier(previous)


class TestBitIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize(
        "name,params", PARAMS_MODULI, ids=[p[0] for p in PARAMS_MODULI]
    )
    def test_forward_inverse_match_reference_all_moduli(self, tier, name, params):
        """forward/inverse NTT bit-identical to reference for every modulus."""
        rng = np.random.default_rng(7)
        for n, q in _limb_pairs(params):
            ctx = get_ntt_context(n, q)
            batch = rng.integers(0, q, size=(5, n), dtype=np.int64)
            # Unreduced and negative inputs exercise the input-reduction path.
            dirty = batch - np.int64(q) * rng.integers(-2, 3, size=batch.shape)
            for arr in (batch, dirty):
                with kernels.tier_scope(tier):
                    fwd = ctx.forward_batch(arr)
                    inv = ctx.inverse_batch(fwd)
                with kernels.tier_scope("reference"):
                    fwd_ref = ctx.forward_batch(arr)
                    inv_ref = ctx.inverse_batch(fwd_ref)
                assert np.array_equal(fwd, fwd_ref), (tier, name, n, q)
                assert np.array_equal(inv, inv_ref), (tier, name, n, q)
                assert np.array_equal(inv, np.mod(arr, q))

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("limbs", [1, 2, 3])
    def test_stacked_rns_ring_ops_match_reference(self, tier, limbs):
        """Multi-limb stacked forward/inverse/mul identical across tiers."""
        params = rns_serving_parameters(128, limbs)
        rng = np.random.default_rng(11)
        moduli = np.asarray(
            params.ciphertext_moduli or [params.ciphertext_modulus], dtype=np.int64
        )
        polys = rng.integers(
            0, moduli[:, None, None], size=(limbs, 4, 128), dtype=np.int64
        )
        others = rng.integers(0, moduli[:, None], size=(limbs, 128), dtype=np.int64)

        def run(active):
            ring = ExactBFVBackend(params, seed=3).context.ring
            with kernels.tier_scope(active):
                fwd = ring.forward_batch(polys)
                inv = ring.inverse_batch(fwd)
                prod = ring.mul_batch(polys, others)
                eva = ring.mul_eval(fwd, fwd)
            return fwd, inv, prod, eva

        got = run(tier)
        want = run("reference")
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b), (tier, limbs)

    @pytest.mark.parametrize("tier", TIERS)
    def test_pointwise_mul_eval_matches_numpy(self, tier):
        """Barrett/compiled pointwise multiply == numpy ``a * b % q`` exactly."""
        rng = np.random.default_rng(5)
        for _, params in PARAMS_MODULI[:4]:
            n, q = params.ring_degree, params.ciphertext_modulus
            a = rng.integers(0, q, size=(3, n), dtype=np.int64)
            b = rng.integers(0, q, size=(3, n), dtype=np.int64)
            active = kernels._TIERS[tier]
            got = active.mul_eval(a, b, np.int64(q))
            assert np.array_equal(got, a * b % q), (tier, n, q)

    @pytest.mark.parametrize("tier", NON_REFERENCE)
    def test_fused_accumulate_matches_loop(self, tier):
        """float64-BLAS fused combine == scale-then-add loop, bit for bit,
        up to worst-case magnitudes at ``q_max * L1 = 2**53 - 1``."""
        rng = np.random.default_rng(13)
        q = np.asarray([536813569, 536690689], dtype=np.int64)[:, None]
        stacked = rng.integers(0, q.max(), size=(6, 2, 2, 64), dtype=np.int64) % q
        weights = rng.integers(-120, 121, size=(6, 3), dtype=np.int64)
        # 2**53 - 1 = 6361 * 69431 * 20394401: the largest modulus times the
        # largest column L1 lands exactly one below the float64 bound.
        q_edge = np.asarray([20394401, 6361], dtype=np.int64)[:, None]
        l1 = 6361 * 69431
        assert int(q_edge.max()) * l1 == kernels.FUSED_EXACT_BOUND - 1
        split = [l1 // 6] * 5 + [l1 - 5 * (l1 // 6)]
        edge_weights = np.array(
            [split, [-w for w in split], [w if k % 2 else -w for k, w in enumerate(split)]],
            dtype=np.int64,
        ).T
        top = np.broadcast_to(q_edge - 1, (6, 2, 2, 64)).copy()  # every residue q - 1
        for w, st_, mod in (
            (weights, stacked, q),
            (edge_weights, top, q_edge),
            (edge_weights, rng.integers(0, 20394401, size=(6, 2, 2, 64)) % q_edge, q_edge),
        ):
            fused = kernels._TIERS[tier].fused_accumulate(w, st_, mod)
            for j in range(w.shape[1]):
                acc = np.zeros_like(st_[0])
                for k in range(w.shape[0]):
                    acc = (acc + st_[k] * w[k, j]) % mod
                assert np.array_equal(fused[j], acc), (tier, j)

    @pytest.mark.parametrize("tier", NON_REFERENCE)
    def test_linear_combine_falls_back_above_float_bound(self, tier, monkeypatch):
        """Just below ``2**53`` the fused BLAS product runs; just above it the
        backend takes the reference loop.  Both are bit-identical to the
        ``reference`` tier: residues, noise bounds and decryptions."""
        primes = find_rns_primes(30, 64, 3)
        params = BFVParameters(
            ring_degree=64,
            ciphertext_modulus=math.prod(primes),
            ciphertext_moduli=primes,
            plaintext_modulus=1 << 31,
            error_stddev=1.0,
            security_bits=0,
        )
        below = kernels.FUSED_EXACT_BOUND // max(primes)  # q_max * below < 2**53
        rng = np.random.default_rng(17)
        values = [rng.integers(0, 1000, size=16) for _ in range(3)]
        fused_calls = []
        original = kernels._TIERS[tier].fused_accumulate

        def spy(*args):
            fused_calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels._TIERS[tier], "fused_accumulate", spy)

        def combine(active, weights):
            with kernels.tier_scope(active):
                backend = ExactBFVBackend(params, seed=4)
                (out,) = backend.linear_combine_batch(backend.encrypt_batch(values), weights)
                return out.ciphertext, backend.decrypt(out)

        for l1, fused in ((below, True), (below + 1, False)):
            weights = np.array([[l1 - 2], [1], [1]], dtype=np.int64)
            fused_calls.clear()
            got, plain = combine(tier, weights)
            assert bool(fused_calls) is fused, l1
            want, want_plain = combine("reference", weights)
            assert np.array_equal(got.c0, want.c0) and np.array_equal(got.c1, want.c1)
            assert got.noise_bound == want.noise_bound
            expected = sum(v * int(w) for v, w in zip(values, weights[:, 0], strict=True))
            assert np.array_equal(plain, expected % params.plaintext_modulus)
            assert np.array_equal(plain, want_plain)


class TestEndToEndServing:
    BATCH, TOKENS, FEATURES, OUTPUTS = 4, 8, 16, 4

    def _serve(self, params, tier):
        rng = np.random.default_rng(21)
        matrices = [
            rng.integers(0, 100, size=(self.TOKENS, self.FEATURES))
            for _ in range(self.BATCH)
        ]
        weights = rng.integers(0, 7, size=(self.FEATURES, self.OUTPUTS))
        with kernels.tier_scope(tier):
            backend = ExactBFVBackend(params, seed=5)
            runtime = ServingRuntime(
                backend_factory=lambda: backend, max_batch_size=self.BATCH
            )
            runtime.register_weights("proj", weights)
            ids = [runtime.submit_linear("proj", m) for m in matrices]
            runtime.run_pending()
            results = [runtime.result(rid).result for rid in ids]
        t = params.plaintext_modulus
        for m, got in zip(matrices, results, strict=True):
            assert np.array_equal(got, (m @ weights) % t)
        return (
            results,
            backend.tracker.transforms(),
            backend.tracker.count("he_rotate"),
        )

    @pytest.mark.parametrize("tier", NON_REFERENCE)
    @pytest.mark.parametrize("limbs", [1, 2])
    def test_serving_logits_and_counts_match_reference(self, tier, limbs):
        """Same logits, same transform/rotation accounting under every tier."""
        params = (
            rns_serving_parameters(256, limbs) if limbs > 1
            else serving_parameters(256)
        )
        ref_results, ref_transforms, ref_rotations = self._serve(params, "reference")
        results, transforms, rotations = self._serve(params, tier)
        for a, b in zip(results, ref_results, strict=True):
            assert np.array_equal(a, b)
        assert transforms == ref_transforms
        assert rotations == ref_rotations

    @pytest.mark.parametrize("tier", NON_REFERENCE)
    def test_simulated_fused_accumulate_matches_loop(self, tier):
        """Fused simulated BSGS inner loop == per-term loop: slots, noise, counts."""
        params = paper_parameters()
        rng = np.random.default_rng(3)
        values = [rng.integers(0, 200, size=64) for _ in range(3)]
        masks = [rng.integers(0, 50, size=64) for _ in range(3)]

        def run(active, pre_transformed):
            with kernels.tier_scope(active):
                backend = SimulatedHEBackend(params)
                handles = [backend.encrypt(v) for v in values]
                operands = [
                    backend.encode_plain_eval(m) if pre_transformed else m
                    for m in masks
                ]
                backend.tracker.reset()
                out = backend.fused_mul_accumulate(list(zip(handles, operands, strict=True)))
            return out, backend.tracker.snapshot(), backend.tracker.transforms()

        for pre in (False, True):
            got, got_counts, got_transforms = run(tier, pre)
            want, want_counts, want_transforms = run("reference", pre)
            assert np.array_equal(got.slots, want.slots), (tier, pre)
            assert got.noise_bound == want.noise_bound
            assert got.domain is want.domain
            assert got_counts == want_counts
            assert got_transforms == want_transforms


class TestSelection:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ParameterError):
            kernels.set_kernel_tier("turbo")
        with pytest.raises(ParameterError):
            with kernels.tier_scope("turbo"):
                pass

    def test_unavailable_tier_rejected(self):
        unavailable = [name for name in kernels._TIERS if name not in TIERS]
        for name in unavailable:
            with pytest.raises(ParameterError):
                kernels.set_kernel_tier(name)

    def test_registry_and_availability_reasons_agree(self):
        """The registry holds the reference, compiled and multicore tiers; a
        tier is available exactly when it gives no unavailability reason, and
        a name outside the registry is unknown rather than unavailable."""
        assert set(kernels._TIERS) == {"reference", "compiled", "multicore"}
        for name, tier in kernels._TIERS.items():
            assert (name in TIERS) == tier.available
            assert (tier.unavailable_reason() is None) == tier.available
        with pytest.raises(ParameterError, match="unknown kernel tier 'numba'"):
            kernels.set_kernel_tier("numba")

    def test_env_variable_selects_tier(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "reference")
        assert kernels.active_tier_name() == "reference"

    def test_resolution_precedence(self, monkeypatch):
        """explicit > tier_scope > set_kernel_tier > env."""
        if not NON_REFERENCE:
            pytest.skip("only the reference tier is available here")
        other = NON_REFERENCE[0]
        monkeypatch.setenv(kernels.ENV_VAR, other)
        assert kernels.active_tier_name() == other
        kernels.set_kernel_tier("reference")
        assert kernels.active_tier_name() == "reference"
        with kernels.tier_scope(other):
            assert kernels.active_tier_name() == other
            assert kernels.active_tier_name("reference") == "reference"
        assert kernels.active_tier_name() == "reference"

    def test_params_kernel_tier_threads_through_ring(self):
        params = serving_parameters(64, kernel_tier="reference")
        assert params.kernel_tier == "reference"
        backend = ExactBFVBackend(params, seed=1)
        assert backend.context.ring.kernel_tier == "reference"

    def test_auto_resolves_to_calibrated_fastest(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        name = kernels.active_tier_name()
        assert name in TIERS
        assert name == kernels.fastest_tier_name()

    def test_calibration_snapshot_covers_available_tiers(self):
        snapshot = kernels.calibration_snapshot()
        assert set(snapshot) == set(TIERS)
        for costs in snapshot.values():
            assert costs["ntt_seconds"] > 0
            assert costs["mul_eval_seconds"] > 0

    def test_serving_stats_record_tier_and_costs(self):
        from repro.runtime.serving import summarize

        stats = summarize([])
        assert stats.kernel_tier in TIERS
        stats = summarize([], wall_seconds=None)
        assert stats.kernel_costs == () or all(
            isinstance(k, str) and v > 0 for k, v in stats.kernel_costs
        )

    def test_calibrate_bsgs_costs_accepts_tier(self):
        from repro.he import calibrate_bsgs_costs

        backend = SimulatedHEBackend(toy_parameters(64))
        costs = calibrate_bsgs_costs(backend, repeats=1, kernel_tier="reference")
        assert costs.rotation_seconds > 0
        assert costs.mul_seconds > 0


class TestWarm:
    @pytest.mark.parametrize("tier", NON_REFERENCE)
    def test_warm_tier_builds_packed_tables(self, tier):
        ctx = get_ntt_context(64, toy_parameters(64).ciphertext_modulus)
        kernels.active_tier(tier).warm(ctx)
        assert getattr(ctx, "_kernel_tables", None) is not None
