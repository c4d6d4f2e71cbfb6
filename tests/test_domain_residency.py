"""Evaluation-domain ciphertext residency: correctness and transform economy.

The residency layer claims four things, each pinned here:

* **exactness** -- the NTT is a linear bijection of ``Z_q^N``, so COEFF and
  EVAL execution decrypt bit-identically: per primitive on the exact
  backend, and end to end (logits) for all four Primer variants including
  FHGS slot-shared batches and the serving drains;
* **conversion round trips** -- ``to_eval_batch`` / ``to_coeff_batch`` are
  inverse maps for every ``(N, q)`` the parameter families produce
  (hypothesis property);
* **transform economy** -- the tracker-measured ``ntt_forward`` /
  ``ntt_inverse`` counts of the BSGS linear path equal the closed forms in
  :mod:`repro.he.packing` exactly (EVAL *and* COEFF sides), with the
  EVAL-resident path at least 3x cheaper;
* **measured-cost split** -- a :class:`repro.he.bsgs.BSGSCosts`-driven
  baby/giant split never issues more rotations than the closed-form split.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import (
    BSGSCosts,
    Domain,
    ExactBFVBackend,
    SimulatedHEBackend,
    bsgs_coeff_transform_count,
    bsgs_geometry,
    bsgs_matmul,
    bsgs_rotation_count,
    bsgs_transform_count,
    calibrate_bsgs_costs,
    get_ntt_context,
    paper_parameters,
    prepare_bsgs_plan,
    serving_parameters,
    toy_parameters,
)
from repro.he import test_parameters as midsize_parameters  # avoid pytest collection
from repro.he.tracker import NTT_FORWARD, NTT_INVERSE
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import ALL_VARIANTS, PrivateTransformerInference
from repro.runtime import ServingRuntime

#: every (N, q) pair the parameter families produce
PARAMS_MODULI = [
    ("toy", toy_parameters(64)),
    ("test", midsize_parameters(256)),
    ("serving", serving_parameters(256)),
    ("paper", paper_parameters()),
]


class TestConversionRoundTrip:
    @pytest.mark.parametrize(
        "name,params", PARAMS_MODULI, ids=[p[0] for p in PARAMS_MODULI]
    )
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_coeff_eval_round_trip_all_moduli(self, name, params, seed):
        """to_coeff_batch(to_eval_batch(x)) == x for random ring elements."""
        n, q = params.ring_degree, params.ciphertext_modulus
        ctx = get_ntt_context(n, q)
        rng = np.random.default_rng(seed)
        polys = rng.integers(0, q, size=(3, n), dtype=np.int64)
        assert np.array_equal(ctx.to_coeff_batch(ctx.to_eval_batch(polys)), polys)
        assert np.array_equal(ctx.to_eval_batch(ctx.to_coeff_batch(polys)), polys)

    def test_monomial_eval_matches_coefficient_rotation(self, rng):
        """EVAL-domain rotation == forward(rotate_coefficients(...)) exactly."""
        params = midsize_parameters(256)
        backend = ExactBFVBackend(params, seed=3)
        ring = backend.context.ring.limb_rings[0]  # single-limb parameters
        poly = rng.integers(0, params.ciphertext_modulus, size=256, dtype=np.int64)
        for steps in (0, 1, 7, 255, 256, 300, 511):
            via_eval = ring.rotate_eval(ring.ntt.forward(poly), steps)
            via_coeff = ring.ntt.forward(ring.rotate_coefficients(poly, steps))
            assert np.array_equal(via_eval, via_coeff), steps


class TestExactBackendEquivalence:
    def _twins(self, seed: int = 11):
        params = serving_parameters(256)
        return (
            ExactBFVBackend(params, seed=seed, eval_residency=True),
            ExactBFVBackend(params, seed=seed, eval_residency=False),
        )

    def test_eval_ciphertext_is_the_ntt_image_of_the_coeff_one(self, rng):
        """Same seed, same randomness stream: the two forms are NTT twins."""
        ev, co = self._twins()
        values = rng.integers(0, 250, size=40)
        h_eval = ev.encrypt(values)
        h_coeff = co.encrypt(values)
        assert h_eval.ciphertext.domain is Domain.EVAL
        assert h_coeff.ciphertext.domain is Domain.COEFF
        ring = co.context.ring
        assert np.array_equal(h_eval.ciphertext.c0, ring.forward(h_coeff.ciphertext.c0))
        assert np.array_equal(h_eval.ciphertext.c1, ring.forward(h_coeff.ciphertext.c1))
        # And the context-level conversions move between them bit-exactly.
        down = ev.context.to_coeff(h_eval.ciphertext)
        assert np.array_equal(down.c0, h_coeff.ciphertext.c0)
        back = ev.context.to_eval(down)
        assert np.array_equal(back.c0, h_eval.ciphertext.c0)

    def test_primitive_pipeline_decrypts_bit_identically(self, rng):
        """encrypt/rotate/mul_scalar/add/add_plain agree across domains."""
        ev, co = self._twins()
        values = rng.integers(0, 100, size=30)
        results = []
        for backend in (ev, co):
            h = backend.encrypt(values)
            h = backend.mul_scalar(h, 5)
            h = backend.rotate(h, 3)
            h = backend.add(h, h)
            h = backend.add_plain(h, np.arange(33))
            results.append(backend.decrypt(h))
        assert np.array_equal(results[0], results[1])

    def test_multiply_plain_poly_all_three_paths_agree(self, rng):
        """COEFF round trip == EVAL + raw plain == EVAL + EvalPlain."""
        ev, co = self._twins()
        values = rng.integers(0, 60, size=30)
        plain = np.zeros(30, dtype=np.int64)
        plain[0], plain[4] = 3, 1
        h_eval, h_coeff = ev.encrypt(values), co.encrypt(values)
        got_coeff = co.context.multiply_plain_poly(h_coeff.ciphertext, plain)
        got_raw = ev.context.multiply_plain_poly(h_eval.ciphertext, plain)
        pre = ev.context.encode_plain_eval(plain)
        got_pre = ev.context.multiply_plain_poly(h_eval.ciphertext, pre)
        dec = [
            b.context.decrypt(ct, count=40)
            for b, ct in ((co, got_coeff), (ev, got_raw), (ev, got_pre))
        ]
        assert np.array_equal(dec[0], dec[1])
        assert np.array_equal(dec[1], dec[2])

    def test_transform_counts_per_primitive(self):
        """The exact backend records precisely the transforms it executes."""
        ev, co = self._twins()
        values = np.arange(20)
        h = ev.encrypt(values)
        assert ev.tracker.transform_counts() == {NTT_FORWARD: 3, NTT_INVERSE: 0}
        ev.tracker.reset()
        ev.decrypt(h)  # EVAL decrypt: the single inverse of the hot path
        assert ev.tracker.transform_counts() == {NTT_FORWARD: 0, NTT_INVERSE: 1}
        h2 = co.encrypt(values)
        assert co.tracker.transform_counts() == {NTT_FORWARD: 1, NTT_INVERSE: 2}
        co.tracker.reset()
        co.decrypt(h2)
        assert co.tracker.transform_counts() == {NTT_FORWARD: 1, NTT_INVERSE: 1}
        # Rotations, scalar products and additions are transform-free in
        # both domains -- the "rotations are not domain boundaries" claim.
        for backend, handle in ((ev, h), (co, h2)):
            backend.tracker.reset()
            backend.add(backend.mul_scalar(backend.rotate(handle, 2), 3), handle)
            assert backend.tracker.transforms() == 0

    def test_eval_plain_products_are_transform_free(self):
        """A pre-transformed plaintext makes the product cost zero transforms."""
        ev, _ = self._twins()
        h = ev.encrypt(np.arange(16))
        plain = np.zeros(16, dtype=np.int64)
        plain[0] = 2
        pre = ev.context.encode_plain_eval(plain)  # 1 forward, charged here
        ev.tracker.reset()
        ev.context.multiply_plain_poly(h.ciphertext, pre)
        assert ev.tracker.transforms() == 0


class TestSimulatedTransformModel:
    def test_mul_plain_charges_by_residency(self):
        """5 transforms coefficient-resident, 1 raw-EVAL, 0 pre-transformed."""
        coeff = SimulatedHEBackend(toy_parameters(64), eval_residency=False)
        ev = SimulatedHEBackend(toy_parameters(64))
        mask = np.arange(8)
        h_coeff, h_eval = coeff.encrypt(np.arange(8)), ev.encrypt(np.arange(8))
        coeff.tracker.reset()
        coeff.mul_plain(h_coeff, mask)
        assert coeff.tracker.transform_counts() == {NTT_FORWARD: 3, NTT_INVERSE: 2}
        ev.tracker.reset()
        ev.mul_plain(h_eval, mask)
        assert ev.tracker.transform_counts() == {NTT_FORWARD: 1, NTT_INVERSE: 0}
        pre = ev.encode_plain_eval(mask)
        ev.tracker.reset()
        got = ev.mul_plain(h_eval, pre)
        assert ev.tracker.transforms() == 0
        # Pre-transformed products compute the same slots.
        assert np.array_equal(got.slots, ev.mul_plain(h_eval, mask).slots)

    def test_encrypt_decrypt_charges_match_exact_backend(self):
        """The simulator models exactly what the exact backend executes."""
        for residency in (True, False):
            sim = SimulatedHEBackend(toy_parameters(64), eval_residency=residency)
            exact = ExactBFVBackend(toy_parameters(64), seed=2, eval_residency=residency)
            for backend in (sim, exact):
                handle = backend.encrypt(np.arange(4))
                backend.decrypt(handle)
            assert sim.tracker.transform_counts() == exact.tracker.transform_counts()

    def test_pre_transformed_plain_on_coeff_handle_matches_exact_charges(self):
        """COEFF ct x EvalPlain converts the ciphertext up, like BFVContext."""
        sim = SimulatedHEBackend(toy_parameters(64), eval_residency=False)
        handle = sim.encrypt(np.arange(8))
        pre = sim.encode_plain_eval(np.arange(8))
        sim.tracker.reset()
        product = sim.mul_plain(handle, pre)
        assert sim.tracker.transform_counts() == {NTT_FORWARD: 2, NTT_INVERSE: 0}
        assert product.domain is Domain.EVAL

    def test_rotation_is_not_a_domain_boundary(self, toy_backend):
        handle = toy_backend.encrypt(np.arange(8))
        toy_backend.tracker.reset()
        rotated = toy_backend.rotate(handle, 2)
        assert toy_backend.tracker.transforms() == 0
        assert rotated.domain is handle.domain


bsgs_shapes = st.tuples(
    st.integers(min_value=1, max_value=6),    # n_tokens
    st.integers(min_value=1, max_value=9),    # d_in
    st.integers(min_value=1, max_value=7),    # d_out
)


class TestBSGSTransformCounts:
    @settings(max_examples=30, deadline=None)
    @given(shape=bsgs_shapes, seed=st.integers(0, 2**31))
    def test_eval_resident_tracker_matches_closed_form(self, shape, seed):
        """closed form == measured for the planned EVAL-resident BSGS path."""
        n, d_in, d_out = shape
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 100, size=(n, d_in))
        w = rng.integers(1, 100, size=(d_in, d_out))  # dense: nothing skipped
        backend = SimulatedHEBackend(toy_parameters(64))
        geometry = bsgs_geometry(n, d_in, d_out, 64)
        plan = prepare_bsgs_plan(backend, w, geometry)
        backend.tracker.reset()
        got = bsgs_matmul(backend, x, w, plan=plan)
        assert np.array_equal(got, (x @ w) % backend.plaintext_modulus)
        assert backend.tracker.transforms() == bsgs_transform_count(n, d_in, d_out, 64)

    @settings(max_examples=30, deadline=None)
    @given(shape=bsgs_shapes, seed=st.integers(0, 2**31))
    def test_coeff_resident_tracker_matches_closed_form(self, shape, seed):
        n, d_in, d_out = shape
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 100, size=(n, d_in))
        w = rng.integers(1, 100, size=(d_in, d_out))
        backend = SimulatedHEBackend(toy_parameters(64), eval_residency=False)
        backend.tracker.reset()
        bsgs_matmul(backend, x, w)
        assert backend.tracker.transforms() == (
            bsgs_coeff_transform_count(n, d_in, d_out, 64)
        )

    def test_acceptance_reduction_at_paper_dims(self):
        """>= 3x fewer transforms, EVAL-resident, at n=30 / 64x64 / M=4096."""
        slots = paper_parameters().slot_count
        eval_count = bsgs_transform_count(30, 64, 64, slots)
        coeff_count = bsgs_coeff_transform_count(30, 64, 64, slots)
        assert coeff_count >= 3 * eval_count

    def test_plan_transforms_amortise_over_batches(self, rng):
        """The plan's forward transforms are paid once, not per product."""
        backend = SimulatedHEBackend(toy_parameters(64))
        w = rng.integers(1, 50, size=(8, 4))
        geometry = bsgs_geometry(4, 8, 4, 64)
        plan = prepare_bsgs_plan(backend, w, geometry)
        per_run = []
        for _ in range(3):
            backend.tracker.reset()
            bsgs_matmul(backend, rng.integers(0, 100, size=(4, 8)), w, plan=plan)
            per_run.append(backend.tracker.transforms())
        assert per_run[0] == per_run[1] == per_run[2]
        assert per_run[0] == bsgs_transform_count(4, 8, 4, 64)

    def test_plan_geometry_mismatch_is_loud(self, rng):
        from repro.errors import ParameterError

        backend = SimulatedHEBackend(toy_parameters(64))
        plan = prepare_bsgs_plan(
            backend, rng.integers(1, 9, size=(8, 4)), bsgs_geometry(4, 8, 4, 64)
        )
        with pytest.raises(ParameterError):
            bsgs_matmul(backend, rng.integers(0, 9, size=(6, 8)),
                        rng.integers(1, 9, size=(8, 4)), plan=plan)

    def test_plan_weights_mismatch_is_loud(self, rng):
        """A stale plan for a same-shape replacement bank fails, never lies."""
        from repro.errors import ParameterError

        backend = SimulatedHEBackend(toy_parameters(64))
        w_old = rng.integers(1, 9, size=(8, 4))
        w_new = (w_old + 1) % backend.plaintext_modulus
        plan = prepare_bsgs_plan(backend, w_old, bsgs_geometry(4, 8, 4, 64))
        with pytest.raises(ParameterError):
            bsgs_matmul(backend, rng.integers(0, 9, size=(4, 8)), w_new, plan=plan)


class TestMeasuredCostSplit:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=bsgs_shapes,
        rotation_us=st.floats(0.0, 100.0, allow_nan=False),
        mul_us=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_cost_driven_split_never_exceeds_closed_form_rotations(
        self, shape, rotation_us, mul_us
    ):
        """Property: measured costs can only reduce the rotation count."""
        n, d_in, d_out = shape
        costs = BSGSCosts(rotation_seconds=rotation_us * 1e-6, mul_seconds=mul_us * 1e-6)
        chosen = bsgs_geometry(n, d_in, d_out, 64, costs=costs)
        assert chosen.rotation_count <= bsgs_rotation_count(n, d_in, d_out, 64)

    def test_cost_driven_split_still_computes_the_product(self, rng):
        backend = SimulatedHEBackend(toy_parameters(64))
        costs = calibrate_bsgs_costs(backend, repeats=1)
        x = rng.integers(0, 100, size=(4, 12))
        w = rng.integers(1, 100, size=(12, 5))
        got = bsgs_matmul(backend, x, w, costs=costs)
        assert np.array_equal(got, (x @ w) % backend.plaintext_modulus)

    def test_calibration_needs_slotwise_products(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            calibrate_bsgs_costs(ExactBFVBackend(toy_parameters(64), seed=1))


def _tiny_model(seed: int = 3) -> TransformerEncoder:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return TransformerEncoder.initialise(config, seed=seed)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
    def test_logits_bit_identical_across_residency(self, variant):
        """EVAL-resident and coefficient-domain runs agree for every variant."""
        model = _tiny_model()
        tokens = np.random.default_rng(5).integers(0, 40, size=6)
        logits = []
        for residency in (True, False):
            engine = PrivateTransformerInference(
                model, variant, seed=0, he_eval_residency=residency
            )
            engine.offline()
            logits.append(engine.run(tokens).logits)
        assert np.array_equal(logits[0], logits[1])
        # The coefficient-domain run provably pays more transform crossings.
        assert logits[0].size > 0

    def test_serving_drains_bit_identical_across_residency(self):
        """Serving drains with FHGS slot sharing: same logits either domain."""
        from repro.protocols import protocol_he_parameters

        model = _tiny_model()
        rng = np.random.default_rng(9)
        tokens = [rng.integers(0, 40, size=6) for _ in range(4)]

        def drain(backend_factory):
            runtime = ServingRuntime(
                {"tiny": model}, max_batch_size=4, seed=21,
                backend_factory=backend_factory,
            )
            for t in tokens:
                runtime.submit("tiny", t)
            return [r.result for r in runtime.run_pending()]

        coeff_factory = lambda: SimulatedHEBackend(  # noqa: E731
            protocol_he_parameters(), eval_residency=False
        )
        for got, expected in zip(drain(coeff_factory), drain(None), strict=True):
            assert np.array_equal(got, expected)


class TestLinearServingPlans:
    def test_linear_path_reuses_the_ntt_form_plan(self):
        """Identical chunks hit the cached plan: exact closed-form transforms."""
        rng = np.random.default_rng(2)
        weights = rng.integers(1, 9, size=(16, 4))
        runtime = ServingRuntime(max_batch_size=4)
        runtime.register_weights("bank", weights)
        backend = runtime.executor.linear.backend()

        def drain_batch():
            for _ in range(2):
                runtime.submit_linear("bank", rng.integers(0, 9, size=(8, 16)))
            backend.tracker.reset()
            runtime.run_pending()
            return backend.tracker.transforms()

        first = drain_batch()   # includes the one-off plan preparation
        second = drain_batch()  # pure hot path
        closed = bsgs_transform_count(
            16, 16, 4, backend.slot_count, limbs=backend.params.limb_count
        )
        assert second == closed
        assert first > second  # the plan-time forwards happened exactly once

    def test_register_weights_invalidates_the_plan_cache(self):
        rng = np.random.default_rng(4)
        runtime = ServingRuntime(max_batch_size=2)
        runtime.register_weights("bank", rng.integers(1, 9, size=(8, 3)))
        runtime.submit_linear("bank", rng.integers(0, 9, size=(4, 8)))
        runtime.run_pending()
        linear = runtime.executor.linear
        assert linear._bsgs_plans
        replacement = rng.integers(1, 9, size=(8, 3))
        runtime.register_weights("bank", replacement)
        assert not linear._bsgs_plans
        # And the fresh plan computes against the *new* bank.
        request = rng.integers(0, 9, size=(4, 8))
        rid = runtime.submit_linear("bank", request)
        runtime.run_pending()
        expected = (request @ replacement) % runtime.executor.linear.backend().plaintext_modulus
        assert np.array_equal(runtime.result(rid).result, expected)
