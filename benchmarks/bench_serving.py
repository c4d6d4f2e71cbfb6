"""Serving benchmark: batched vs sequential private inference throughput.

The comparisons mirror the levels the serving runtime batches at:

1. **Shared-slot HE batches** on the *exact BFV backend*: eight private
   ``X @ W`` requests packed tokens-first into shared ciphertext slots versus
   the same eight requests encrypted and multiplied one at a time.  The batch
   needs one ciphertext per input feature -- independent of the batch size --
   so both the operation counts and the wall-clock throughput improve by
   roughly the batch factor.  The acceptance bar is 3x; the measured margin
   is typically ~8x at the test-scale parameters used here.

2. **Cached-engine serving** of full Primer inference on the simulated
   backend: the :class:`~repro.runtime.serving.ServingRuntime` amortises key
   generation and the HGS/FHGS offline phase across requests, versus the
   paper-style fresh-engine-per-sequence baseline.

3. **BSGS diagonal matmul** at paper dimensions: the rotation-minimal
   kernel (hoisted baby steps, shared giant steps) against the legacy
   offset-enumeration loop in both packing layouts, with tracker-measured
   rotation counts asserted against the closed forms.  The acceptance bar
   is a 3x rotation reduction with bit-identical decrypted results.

4. **FHGS block-diagonal slot sharing**: a 4-request serving batch ships
   one set of cross-term ciphertexts instead of four -- the ~1/k online
   traffic reduction the ROADMAP's slot-sharing item asked for.

5. **Plan-store warm start**: a freshly started serving process installs
   its engine's :class:`OfflinePlan` from disk instead of re-running the
   offline HE exchange -- zero offline HE operations on the tracker,
   bit-identical logits, and an engine build ≥5x faster than the cold
   offline build (typically far more).

6. **RNS limb arithmetic**: the double-CRT serving path at a >=60-bit
   two-limb coefficient modulus (illegal under the old 30-bit single-
   modulus ceiling) against the one-limb configuration -- exact results on
   both, tracker-measured NTT transforms equal to the limb-scaled closed
   form ``(3 * input_cts + output_cts) * L`` with zero gap, rotations
   limb-independent.

7. **Kernel tier**: the compiled/multicore HE kernel tier
   (:mod:`repro.he.kernels`) against the reference numpy path on the same
   exact-backend serving workload at paper dimensions (N = 4096, a 6-limb
   double-CRT basis) -- logits bit-identical, transform/rotation closed
   forms untouched, and a committed >=2x wall-clock floor for the
   self-calibrated fastest tier.

8. **Fault recovery**: the async front door serving the full-inference
   workload under a deterministic :class:`FaultPlan` injecting transient
   executor faults (the issue's 1% per-batch rate plus one guaranteed
   firing) with a :class:`RetryPolicy` -- every request completes with
   logits bit-identical to the fault-free pass, the conservation check
   ``submitted == completed + typed-failed`` closes with zero gap, and
   throughput stays >= 0.8x fault-free.

9. **Replica fleet**: two forked :class:`ReplicaServer` processes behind a
    :class:`FleetRouter` against one in-process front door on a closed-loop
    workload bound by the batching linger window -- the replicas overlap
    their linger waits in parallel, so wall-clock throughput scales with
    the fleet even on one core.  The acceptance bar is >= 1.3x with logits
    bit-identical to the single-process pass, conservation gap zero, and a
    100% warm-start rate for a fresh replica pointed at the fleet's shared
    :class:`PlanStore` directory.

Headline numbers are persisted to ``BENCH_serving.json`` (see
``benchmarks/_record.py``) so the performance trajectory is tracked across
PRs; CI uploads the file as a workflow artifact and
``benchmarks/check_regressions.py`` fails the build when any recorded
speedup drops below its committed floor.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from _record import latency_percentiles, record

from repro.costmodel import format_table
from repro.he import (
    ExactBFVBackend,
    PackingLayout,
    SimulatedHEBackend,
    bsgs_coeff_transform_count,
    bsgs_geometry,
    bsgs_matmul,
    bsgs_rotation_count,
    bsgs_transform_count,
    encrypted_batch_matmul,
    encrypted_packed_matmul,
    paper_parameters,
    prepare_bsgs_plan,
    rns_serving_parameters,
    serving_parameters,
)
from repro.errors import RequestFailed
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import Phase, PlanStore
from repro.runtime import (
    AsyncServingRuntime,
    FaultPlan,
    FaultRule,
    FleetRouter,
    RetryPolicy,
    ServingRuntime,
    fault_scope,
    run_sequential_baseline,
    spawn_replica_process,
    summarize,
)
from repro.runtime.faults import SITE_ONLINE_EXECUTE

BATCH = 8
TOKENS = 8
FEATURES = 16
OUTPUTS = 4


def _make_workload(seed: int = 0):
    rng = np.random.default_rng(seed)
    matrices = [rng.integers(0, 100, size=(TOKENS, FEATURES)) for _ in range(BATCH)]
    weights = rng.integers(0, 7, size=(FEATURES, OUTPUTS))
    return matrices, weights


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_throughput_exact_backend():
    """Acceptance: batched >= 3x sequential per-request throughput (exact BFV)."""
    matrices, weights = _make_workload()
    backend = ExactBFVBackend(serving_parameters(256), seed=5)

    def sequential():
        return [encrypted_batch_matmul(backend, [m], weights)[0] for m in matrices]

    def batched():
        return encrypted_batch_matmul(backend, matrices, weights)

    # Correctness first: both paths must decrypt to the plaintext product.
    t = backend.plaintext_modulus
    for got_seq, got_batch, m in zip(sequential(), batched(), matrices, strict=True):
        assert np.array_equal(got_seq, (m @ weights) % t)
        assert np.array_equal(got_batch, got_seq)

    seq_seconds = _best_of(3, sequential)
    batch_seconds = _best_of(3, batched)

    backend.tracker.reset()
    sequential()
    seq_ops = sum(backend.tracker.snapshot().values())
    backend.tracker.reset()
    batched()
    batch_ops = sum(backend.tracker.snapshot().values())

    seq_rps = BATCH / seq_seconds
    batch_rps = BATCH / batch_seconds
    print(f"\nShared-slot serving, exact BFV backend (batch={BATCH}, N=256)\n")
    print(format_table(
        ["Path", "Wall seconds", "Requests/s", "HE operations"],
        [
            ["sequential", f"{seq_seconds:.4f}", f"{seq_rps:,.1f}", f"{seq_ops:,}"],
            ["batched", f"{batch_seconds:.4f}", f"{batch_rps:,.1f}", f"{batch_ops:,}"],
            ["speedup", "", f"{batch_rps / seq_rps:.1f}x", f"{seq_ops / batch_ops:.1f}x"],
        ],
    ))
    record("serving", "shared_slot_exact_bfv", {
        "batch_size": BATCH,
        "sequential_requests_per_second": seq_rps,
        "batched_requests_per_second": batch_rps,
        "throughput_speedup": batch_rps / seq_rps,
        "he_operation_reduction": seq_ops / batch_ops,
    })
    # The operation-count reduction is deterministic; wall clock rides on it.
    assert seq_ops >= 3 * batch_ops
    assert batch_rps >= 3 * seq_rps


def test_serving_runtime_vs_fresh_engines():
    """Cached-engine serving beats the paper-style one-engine-per-sequence flow."""
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=2
    )
    model = TransformerEncoder.initialise(config, seed=3)
    rng = np.random.default_rng(1)
    tokens = [rng.integers(0, 40, size=6) for _ in range(BATCH)]

    runtime = ServingRuntime({"tiny": model}, max_batch_size=BATCH)
    runtime.engine_for("tiny")  # steady state: keys + offline phase in cache

    for t in tokens:
        runtime.submit("tiny", t)
    start = time.perf_counter()
    reports = runtime.run_pending()
    batch_seconds = time.perf_counter() - start

    solo_logits, seq_seconds = run_sequential_baseline(model, tokens)
    for report, expected in zip(reports, solo_logits, strict=True):
        assert np.array_equal(report.result, expected)

    stats = summarize(reports, batch_seconds)
    print(f"\nFull-inference serving, simulated backend (batch={BATCH})\n")
    print(format_table(
        ["Path", "Wall seconds", "Requests/s"],
        [
            ["fresh engine per request", f"{seq_seconds:.3f}", f"{BATCH / seq_seconds:.1f}"],
            ["serving runtime (warm)", f"{batch_seconds:.3f}", f"{stats.requests_per_second:.1f}"],
            ["speedup", "", f"{seq_seconds / batch_seconds:.1f}x"],
        ],
    ))
    record("serving", "cached_engine_serving", {
        "batch_size": BATCH,
        "fresh_engine_seconds": seq_seconds,
        "warm_runtime_seconds": batch_seconds,
        "throughput_speedup": seq_seconds / batch_seconds,
        "latency": latency_percentiles([r.latency_seconds for r in reports]),
    })
    assert batch_seconds < seq_seconds


def test_bsgs_rotation_reduction():
    """Acceptance: BSGS >= 3x fewer rotations than the legacy loop, bit-identical.

    Paper-facing dimensions: n = 30 tokens (Table I sequence length), a
    64-wide per-head projection, M = 4096 slots.  The legacy loop pays one
    rotation per feature block; the BSGS kernel pays ``2*sqrt(d) - 2``
    hoisted/shared rotations, tracker-verified against the closed form.
    """
    rng = np.random.default_rng(11)
    n_tokens, d_in, d_out = 30, 64, 64
    x = rng.integers(0, 200, size=(n_tokens, d_in))
    w = rng.integers(1, 200, size=(d_in, d_out))
    slot_count = paper_parameters().slot_count

    measured: dict[str, int] = {}
    seconds: dict[str, float] = {}
    results: dict[str, np.ndarray] = {}
    layouts = {
        "feature_based": PackingLayout.FEATURE_BASED,
        "tokens_first": PackingLayout.TOKENS_FIRST,
        "bsgs": PackingLayout.BSGS_DIAGONAL,
    }
    for name, layout in layouts.items():
        backend = SimulatedHEBackend(paper_parameters())
        backend.tracker.reset()
        start = time.perf_counter()
        results[name] = encrypted_packed_matmul(backend, x, w, layout)
        seconds[name] = time.perf_counter() - start
        measured[name] = backend.tracker.count("he_rotate")

    # Bit-identical decrypted results across all three kernels.
    assert np.array_equal(results["bsgs"], results["tokens_first"])
    assert np.array_equal(results["bsgs"], results["feature_based"])
    t = paper_parameters().plaintext_modulus
    assert np.array_equal(results["bsgs"], (x @ w) % t)
    # Tracker-verified closed form.
    closed = bsgs_rotation_count(n_tokens, d_in, d_out, slot_count)
    assert measured["bsgs"] == closed

    reduction = measured["tokens_first"] / measured["bsgs"]
    print(f"\nBSGS diagonal matmul (n={n_tokens}, {d_in}x{d_out}, M={slot_count})\n")
    print(format_table(
        ["Kernel", "Rotations", "Wall seconds"],
        [
            ["feature-based loop", f"{measured['feature_based']:,}", f"{seconds['feature_based']:.3f}"],
            ["tokens-first loop", f"{measured['tokens_first']:,}", f"{seconds['tokens_first']:.3f}"],
            ["BSGS diagonals", f"{measured['bsgs']:,}", f"{seconds['bsgs']:.3f}"],
            ["rotation reduction", f"{reduction:.1f}x", ""],
        ],
    ))
    record("serving", "bsgs_matmul", {
        "n_tokens": n_tokens,
        "d_in": d_in,
        "d_out": d_out,
        "slot_count": slot_count,
        "feature_based_rotations": measured["feature_based"],
        "tokens_first_rotations": measured["tokens_first"],
        "bsgs_rotations": measured["bsgs"],
        "bsgs_rotations_closed_form": closed,
        "rotation_reduction": reduction,
    })
    assert reduction >= 3.0


def test_fhgs_slot_sharing():
    """Acceptance: a k-request batch ships ~1/k the FHGS cross-term ciphertexts."""
    k = 4
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=2
    )
    model = TransformerEncoder.initialise(config, seed=3)
    rng = np.random.default_rng(9)
    tokens = [rng.integers(0, 40, size=6) for _ in range(k)]

    def serve(slot_sharing):
        runtime = ServingRuntime(
            {"tiny": model}, max_batch_size=k, seed=21,
            fhgs_slot_sharing=slot_sharing,
        )
        runtime.engine_for("tiny")  # build outside the timed window
        for token_ids in tokens:
            runtime.submit("tiny", token_ids)
        start = time.perf_counter()
        reports = runtime.run_pending()
        wall = time.perf_counter() - start
        engine = runtime.engine_for("tiny")
        ciphertext_bytes = engine.backend.ciphertext_bytes
        cross_cts = sum(
            m.num_bytes for m in engine.channel.messages
            if m.description == "Enc(cross terms - Rs)" and m.phase is Phase.ONLINE
        ) // ciphertext_bytes
        return reports, cross_cts, wall

    shared_reports, shared_cts, shared_seconds = serve(None)
    solo_reports, solo_cts, solo_seconds = serve(1)
    for shared, solo in zip(shared_reports, solo_reports, strict=True):
        assert np.array_equal(shared.result, solo.result)
    reduction = solo_cts / shared_cts
    print(f"\nFHGS block-diagonal slot sharing (batch of {k})\n")
    print(format_table(
        ["Path", "Cross-term ciphertexts", "Online seconds"],
        [
            ["per-request cross terms", f"{solo_cts:,}", f"{solo_seconds:.3f}"],
            ["slot-shared (block-diagonal)", f"{shared_cts:,}", f"{shared_seconds:.3f}"],
            ["reduction", f"{reduction:.1f}x", f"{solo_seconds / shared_seconds:.1f}x"],
        ],
    ))
    record("serving", "fhgs_slot_sharing", {
        "batch_size": k,
        "per_request_cross_term_ciphertexts": solo_cts,
        "shared_cross_term_ciphertexts": shared_cts,
        "cross_term_ciphertext_reduction": reduction,
        "per_request_seconds": solo_seconds,
        "shared_seconds": shared_seconds,
        "online_speedup": solo_seconds / shared_seconds,
    })
    # k requests, one cross-term set: the reduction is the batch factor.
    assert reduction >= 3.0


def test_ntt_domain_residency():
    """Acceptance: the EVAL-resident BSGS path pays >= 3x fewer NTT transforms.

    Two measurements at the paper-facing dimensions (n = 30 tokens, a 64x64
    per-head projection, M = 4096 slots):

    1. **Transform economy** (simulated backend, which models the transforms
       the deployed scheme executes): the coefficient-resident pipeline pays
       a full forward+inverse round trip per diagonal product; the
       EVAL-resident pipeline -- ciphertexts encrypted straight into NTT
       form, diagonal masks pre-transformed once at plan time -- pays only
       the encrypt/decrypt boundary.  Both tracker counts must equal their
       closed forms *exactly* (the residency analog of the PR-3 rotation
       accounting), and the reduction must clear 3x.

    2. **Wall clock** (exact BFV backend, which really executes the
       transforms): a stream of ciphertext-plaintext polynomial products
       against one resident ciphertext, pre-transformed plaintexts vs the
       coefficient-domain round trip.
    """
    rng = np.random.default_rng(11)
    n_tokens, d_in, d_out = 30, 64, 64
    x = rng.integers(0, 200, size=(n_tokens, d_in))
    w = rng.integers(1, 200, size=(d_in, d_out))
    slot_count = paper_parameters().slot_count

    coeff_backend = SimulatedHEBackend(paper_parameters(), eval_residency=False)
    coeff_backend.tracker.reset()
    result_coeff = bsgs_matmul(coeff_backend, x, w)
    coeff_transforms = coeff_backend.tracker.transforms()

    eval_backend = SimulatedHEBackend(paper_parameters())
    geometry = bsgs_geometry(n_tokens, d_in, d_out, slot_count)
    plan = prepare_bsgs_plan(eval_backend, w, geometry)
    plan_transforms = eval_backend.tracker.transforms()
    eval_backend.tracker.reset()
    result_eval = bsgs_matmul(eval_backend, x, w, plan=plan)
    eval_transforms = eval_backend.tracker.transforms()

    # Bit-identical results; exact closed forms on both sides.
    assert np.array_equal(result_eval, result_coeff)
    closed_eval = bsgs_transform_count(n_tokens, d_in, d_out, slot_count)
    closed_coeff = bsgs_coeff_transform_count(n_tokens, d_in, d_out, slot_count)
    assert eval_transforms == closed_eval
    assert coeff_transforms == closed_coeff
    reduction = coeff_transforms / eval_transforms

    # Exact backend: wall clock of resident products vs round-trip products.
    repeats = 64
    masks = [rng.integers(0, 4, size=256) for _ in range(repeats)]
    resident = ExactBFVBackend(serving_parameters(256), seed=5)
    ct_eval = resident.encrypt(np.arange(256) % 250).ciphertext
    pre = [resident.context.encode_plain_eval(mask) for mask in masks]
    coeff_exact = ExactBFVBackend(serving_parameters(256), seed=5, eval_residency=False)
    ct_coeff = coeff_exact.encrypt(np.arange(256) % 250).ciphertext

    eval_seconds = _best_of(
        3, lambda: [resident.context.multiply_plain_poly(ct_eval, p) for p in pre]
    )
    coeff_seconds = _best_of(
        3, lambda: [coeff_exact.context.multiply_plain_poly(ct_coeff, m) for m in masks]
    )
    exact_speedup = coeff_seconds / eval_seconds

    print(f"\nNTT domain residency (BSGS {d_in}x{d_out}, n={n_tokens}, M={slot_count})\n")
    print(format_table(
        ["Path", "NTT transforms", "Closed form", "Exact-BFV seconds"],
        [
            ["coefficient-resident", f"{coeff_transforms:,}", f"{closed_coeff:,}",
             f"{coeff_seconds:.4f}"],
            ["EVAL-resident (planned)", f"{eval_transforms:,}", f"{closed_eval:,}",
             f"{eval_seconds:.4f}"],
            ["plan preparation (once)", f"{plan_transforms:,}", "", ""],
            ["reduction / speedup", f"{reduction:.1f}x", "", f"{exact_speedup:.1f}x"],
        ],
    ))
    record("serving", "ntt_domain_residency", {
        "n_tokens": n_tokens,
        "d_in": d_in,
        "d_out": d_out,
        "slot_count": slot_count,
        "coeff_transforms": coeff_transforms,
        "eval_transforms": eval_transforms,
        "eval_transforms_closed_form": closed_eval,
        "coeff_transforms_closed_form": closed_coeff,
        "closed_form_gap": eval_transforms - closed_eval,
        "plan_prepare_transforms": plan_transforms,
        "transform_reduction": reduction,
        "exact_backend_coeff_seconds": coeff_seconds,
        "exact_backend_eval_seconds": eval_seconds,
        "exact_backend_speedup": exact_speedup,
    })
    assert reduction >= 3.0
    # Same threshold as the committed check_regressions.py floor (measured
    # ~86x, so the margin is enormous either way).
    assert exact_speedup >= 2.0


def test_rns_limb_arithmetic():
    """Acceptance: double-CRT serving at >=60 bits, exact limb-scaled counts.

    The same shared-slot linear workload is served on the exact backend
    twice: with the historical one-limb 30-bit modulus and with a two-limb
    RNS basis whose composite modulus is >= 60 bits -- a parameter point the
    pre-RNS representation could not express at all (its int64 pointwise
    products wrap past 30-bit moduli).  Results must be exact on both, the
    two-limb tracker-measured transform count must equal the limb-scaled
    closed form ``(3 * input_cts + output_cts) * L`` with zero gap, and
    rotations must stay limb-independent.
    """
    matrices, weights = _make_workload(seed=21)

    def serve(params):
        backend = ExactBFVBackend(params, seed=5)
        runtime = ServingRuntime(backend_factory=lambda: backend, max_batch_size=BATCH)
        runtime.register_weights("proj", weights)
        ids = [runtime.submit_linear("proj", m) for m in matrices]
        start = time.perf_counter()
        runtime.run_pending()
        seconds = time.perf_counter() - start
        t = backend.plaintext_modulus
        for m, rid in zip(matrices, ids, strict=True):
            assert np.array_equal(runtime.result(rid).result, (m @ weights) % t)
        transforms = backend.tracker.transforms()
        rotations = backend.tracker.count("he_rotate")
        return transforms, rotations, seconds

    one_limb = serving_parameters(256)
    two_limb = rns_serving_parameters(256, 2)
    assert two_limb.ciphertext_modulus.bit_length() >= 60
    one_transforms, one_rotations, one_seconds = serve(one_limb)
    two_transforms, two_rotations, two_seconds = serve(two_limb)

    # Closed form: one EVAL-native encryption (3 forwards) per input
    # ciphertext, one inverse per output ciphertext at the decrypt
    # boundary, everything scaled by the limb count.
    input_cts, output_cts = FEATURES, OUTPUTS
    closed = (3 * input_cts + output_cts) * two_limb.limb_count
    gap = two_transforms - closed

    print(f"\nRNS limb arithmetic (shared-slot linear, batch={BATCH})\n")
    print(format_table(
        ["Configuration", "log2 Q", "NTT transforms", "Closed form", "Seconds"],
        [
            ["1 limb (historical)", f"{one_limb.ciphertext_modulus.bit_length()}",
             f"{one_transforms:,}", f"{closed // 2:,}", f"{one_seconds:.4f}"],
            ["2 limbs (double-CRT)", f"{two_limb.ciphertext_modulus.bit_length()}",
             f"{two_transforms:,}", f"{closed:,}", f"{two_seconds:.4f}"],
        ],
    ))
    record("serving", "rns_limb_arithmetic", {
        "limbs": two_limb.limb_count,
        "modulus_bits": two_limb.ciphertext_modulus.bit_length(),
        "input_ciphertexts": input_cts,
        "output_ciphertexts": output_cts,
        "one_limb_transforms": one_transforms,
        "two_limb_transforms": two_transforms,
        "transforms_closed_form": closed,
        "closed_form_gap": gap,
        "rotations_one_limb": one_rotations,
        "rotations_two_limb": two_rotations,
        "one_limb_seconds": one_seconds,
        "two_limb_seconds": two_seconds,
    })
    assert gap == 0
    assert two_transforms == 2 * one_transforms
    assert two_rotations == one_rotations


def test_kernel_tier():
    """Acceptance: fastest kernel tier >= 2x exact-backend serving wall clock.

    The same shared-slot linear workload as the RNS section, served on the
    exact backend at the paper-facing dimension point -- ring degree 4096
    with a six-limb double-CRT basis (~180-bit composite modulus) -- once
    under every available kernel tier.  Every tier must return logits
    bit-identical to the ``reference`` numpy path with the tracker-measured
    transform count still equal to the limb-scaled closed form
    ``(3 * input_cts + output_cts) * L`` (gap zero) and rotation counts
    unchanged; the self-calibrated fastest tier must clear a 2x wall-clock
    speedup.  Skipped entirely when no compiled tier is available (the
    committed numbers then stand).
    """
    from repro.he import kernels

    fastest = kernels.fastest_tier_name()
    if fastest == "reference":
        pytest.skip("no compiled kernel tier available on this runner")

    params = rns_serving_parameters(4096, 6)
    matrices, weights = _make_workload(seed=33)

    def serve(tier):
        with kernels.tier_scope(tier):
            backend = ExactBFVBackend(params, seed=5)
            runtime = ServingRuntime(
                backend_factory=lambda: backend, max_batch_size=BATCH
            )
            runtime.register_weights("proj", weights)
            best = float("inf")
            for _ in range(2):
                ids = [runtime.submit_linear("proj", m) for m in matrices]
                backend.tracker.reset()
                start = time.perf_counter()
                runtime.run_pending()
                best = min(best, time.perf_counter() - start)
                results = [runtime.result(rid).result for rid in ids]
            transforms = backend.tracker.transforms()
            rotations = backend.tracker.count("he_rotate")
        t = params.plaintext_modulus
        for m, got in zip(matrices, results, strict=True):
            assert np.array_equal(got, (m @ weights) % t), tier
        return results, best, transforms, rotations

    tiers = kernels.available_tiers()
    runs = {tier: serve(tier) for tier in tiers}
    ref_results, ref_seconds, ref_transforms, ref_rotations = runs["reference"]

    closed = (3 * FEATURES + OUTPUTS) * params.limb_count
    bit_identical = all(
        np.array_equal(a, b)
        for tier in tiers
        for a, b in zip(runs[tier][0], ref_results, strict=True)
    )
    gap = max(abs(runs[tier][2] - closed) for tier in tiers)
    rotations_unchanged = all(runs[tier][3] == ref_rotations for tier in tiers)
    speedup = ref_seconds / runs[fastest][1]
    calibration = kernels.calibration_snapshot()

    print(f"\nKernel tier (shared-slot linear, N=4096, {params.limb_count} limbs)\n")
    print(format_table(
        ["Tier", "Seconds", "Speedup", "Calibrated NTT (us)"],
        [
            [
                tier + (" (auto)" if tier == fastest else ""),
                f"{runs[tier][1]:.4f}",
                f"{ref_seconds / runs[tier][1]:.1f}x",
                f"{calibration[tier]['ntt_seconds'] * 1e6:.0f}",
            ]
            for tier in tiers
        ],
    ))
    record("serving", "kernel_tier", {
        "fastest_tier": fastest,
        "available_tiers": tiers,
        "ring_degree": params.ring_degree,
        "limbs": params.limb_count,
        "reference_seconds": ref_seconds,
        "fastest_seconds": runs[fastest][1],
        "exact_backend_speedup": speedup,
        "bit_identical": int(bit_identical),
        "closed_form_gap": gap,
        "rotations_unchanged": int(rotations_unchanged),
        "transforms": ref_transforms,
        "transforms_closed_form": closed,
        "per_tier_seconds": {tier: runs[tier][1] for tier in tiers},
        "calibration": {
            tier: {k: float(v) for k, v in costs.items()}
            for tier, costs in sorted(calibration.items())
        },
    })
    assert bit_identical
    assert gap == 0
    assert rotations_unchanged
    # Same threshold as the committed check_regressions.py floor.
    assert speedup >= 2.0


def test_plan_store_warm_start(tmp_path):
    """Acceptance: disk warm-start >= 5x faster than the cold offline build.

    Cold path: a fresh serving process pays key generation plus the whole
    HGS/FHGS offline exchange to build its engine, then persists the
    resulting :class:`OfflinePlan` to the plan store.  Warm path: a second
    process (here: a second runtime over the same store directory) installs
    the stored plan -- no offline HE operation runs at all (asserted on the
    tracker) and the logits are bit-identical.
    """
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=2
    )
    model = TransformerEncoder.initialise(config, seed=3)
    rng = np.random.default_rng(29)
    tokens = rng.integers(0, 40, size=6)
    store = PlanStore(tmp_path)

    cold_runtime = ServingRuntime({"tiny": model}, plan_store=store, seed=7)
    start = time.perf_counter()
    cold_engine = cold_runtime.engine_for("tiny")
    cold_seconds = time.perf_counter() - start

    warm_runtime = ServingRuntime({"tiny": model}, plan_store=store, seed=7)
    start = time.perf_counter()
    warm_engine = warm_runtime.engine_for("tiny")
    warm_seconds = time.perf_counter() - start

    # Correctness first: the warm engine ran zero offline HE operations and
    # serves bit-identical logits.
    warm_offline_ops = sum(
        warm_engine.tracker.phase_snapshot(Phase.OFFLINE.value).values()
    )
    assert warm_offline_ops == 0
    assert warm_runtime.engine_cache.stats().warm_starts == 1
    assert np.array_equal(
        warm_engine.run(tokens).logits, cold_engine.run(tokens).logits
    )

    speedup = cold_seconds / warm_seconds
    print(f"\nPlan-store warm start (engine build, {store.entry_count()} stored plan)\n")
    print(format_table(
        ["Path", "Build seconds", "Offline HE ops"],
        [
            ["cold offline build", f"{cold_seconds:.3f}",
             f"{sum(cold_engine.tracker.phase_snapshot(Phase.OFFLINE.value).values()):,}"],
            ["disk warm start", f"{warm_seconds:.3f}", f"{warm_offline_ops:,}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
    ))
    record("serving", "plan_store_warm_start", {
        "cold_build_seconds": cold_seconds,
        "warm_start_seconds": warm_seconds,
        "warm_start_speedup": speedup,
        "warm_offline_he_operations": warm_offline_ops,
        "stored_plan_bytes": store.total_bytes(),
    })
    assert speedup >= 5.0


def test_fault_recovery():
    """Acceptance: >= 0.8x fault-free throughput under injected transient faults.

    The cached-engine full-inference workload runs through the async front
    door twice: fault-free, then under a deterministic :class:`FaultPlan`
    whose seeded 1% Bernoulli rate models the background transient-fault
    rate at the online-execute site, plus one guaranteed firing so the
    measured window always contains a real retry regardless of the draws.
    The :class:`RetryPolicy` must recover every faulted batch to logits
    bit-identical to the fault-free pass -- conservation
    ``submitted == completed + typed-failed`` with zero gap and zero
    abandoned handles -- at >= 0.8x the fault-free throughput.
    """
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    model = TransformerEncoder.initialise(config, seed=3)
    rng = np.random.default_rng(17)
    tokens = [rng.integers(0, 40, size=6) for _ in range(4 * BATCH)]
    policy = RetryPolicy(max_attempts=3, backoff_seconds=0.001)

    def serve():
        completed: dict[int, object] = {}
        failed: dict[int, RequestFailed] = {}
        with AsyncServingRuntime(
            {"tiny": model}, max_batch_size=4, seed=21, retry_policy=policy
        ) as door:
            door.runtime.engine_for("tiny")  # steady state: build untimed
            start = time.perf_counter()
            handles = [door.submit("tiny", t) for t in tokens]
            for index, handle in enumerate(handles):
                try:
                    completed[index] = handle.result(timeout=300)
                except RequestFailed as error:
                    failed[index] = error
            seconds = time.perf_counter() - start
        return completed, failed, seconds

    free_reports, free_failures, free_seconds = serve()
    assert not free_failures

    # The seed is fixed (not REPRO_FAULT_SEED) so the recorded numbers --
    # and the committed regression floor under them -- are reproducible.
    plan = FaultPlan(
        rules=(
            FaultRule(site=SITE_ONLINE_EXECUTE, rate=0.01),
            FaultRule(site=SITE_ONLINE_EXECUTE, fires=(2,)),
        ),
        seed=0,
    )
    with fault_scope(plan) as injector:
        fault_reports, fault_failures, fault_seconds = serve()
    injected = injector.fired_count(SITE_ONLINE_EXECUTE)
    assert injected >= 1

    # Conservation closes exactly: every handle resolved, none dropped.
    conservation_gap = len(tokens) - len(fault_reports) - len(fault_failures)
    assert conservation_gap == 0
    # Transient faults under a 3-attempt policy all recover bit-identically.
    assert not fault_failures
    for index, report in fault_reports.items():
        assert np.array_equal(report.result, free_reports[index].result)
    retried = sum(1 for report in fault_reports.values() if report.retried)
    assert retried >= 1

    n = len(tokens)
    free_rps = n / free_seconds
    fault_rps = n / fault_seconds
    ratio = fault_rps / free_rps
    print(f"\nFault recovery (async front door, {n} requests, retry x{policy.max_attempts})\n")
    print(format_table(
        ["Path", "Wall seconds", "Requests/s", "Faults", "Retried"],
        [
            ["fault-free", f"{free_seconds:.3f}", f"{free_rps:.1f}", "0", "0"],
            ["injected transients", f"{fault_seconds:.3f}", f"{fault_rps:.1f}",
             f"{injected}", f"{retried}"],
            ["throughput ratio", "", f"{ratio:.2f}x", "", ""],
        ],
    ))
    record("serving", "fault_recovery", {
        "num_requests": n,
        "max_attempts": policy.max_attempts,
        "injected_faults": injected,
        "retried_requests": retried,
        "typed_failures": len(fault_failures),
        "conservation_gap": conservation_gap,
        "fault_free_seconds": free_seconds,
        "faulted_seconds": fault_seconds,
        "fault_free_requests_per_second": free_rps,
        "faulted_requests_per_second": fault_rps,
        "throughput_ratio": ratio,
    })
    # Same threshold as the committed check_regressions.py floor.
    assert ratio >= 0.8


def test_replica_fleet(tmp_path):
    """Acceptance: 2-replica fleet >= 1.3x single-process closed-loop throughput.

    The workload is latency-bound, not compute-bound: the front door holds
    each batch open for ``linger_seconds`` so it can fill, and a closed-loop
    client (submit a round, wait for the whole round, repeat) pays that
    window on every round.  One process serves both models from a single
    drain loop, so the two models' linger windows serialise; two replica
    processes -- one per ``(model, variant)`` key under the router's sticky
    placement -- linger in parallel.  That overlap is the honest fleet win
    on this one-core runner (compute parallelism is unavailable), and it is
    exactly the batching-window pipelining a real fleet buys.

    Gates, matching the committed check_regressions.py entries: throughput
    speedup >= 1.3x, router conservation gap == 0, logits bit-identical to
    the single-process pass, and a fresh replica pointed at the fleet's
    shared :class:`PlanStore` directory warm-starts every engine from disk
    (hit rate 1.0, zero cold builds).
    """
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    models = {
        "tiny": TransformerEncoder.initialise(config, seed=3),
        "tiny2": TransformerEncoder.initialise(config, seed=7),
    }
    rng = np.random.default_rng(11)
    per_model, rounds, linger = 12, 4, 0.2
    runtime_kwargs = dict(max_batch_size=32, seed=21, linger_seconds=linger)
    work = []
    for _ in range(per_model):
        work.append(("tiny", rng.integers(0, 40, size=6)))
        work.append(("tiny2", rng.integers(0, 40, size=6)))
    n = len(work) * rounds

    def run_rounds(submit):
        reports = {}
        for round_index in range(rounds):
            handles = [(model, tokens, submit(model, tokens)) for model, tokens in work]
            for model, tokens, handle in handles:
                reports[(model, tokens.tobytes(), round_index)] = handle.result(
                    timeout=300
                )
        return reports

    with AsyncServingRuntime(models, **runtime_kwargs) as door:
        door.runtime.engine_for("tiny")  # steady state: builds untimed
        door.runtime.engine_for("tiny2")
        start = time.perf_counter()
        single_reports = run_rounds(door.submit)
        single_seconds = time.perf_counter() - start

    store_dir = tmp_path / "plans"
    fleet_dir = tmp_path / "fleet"
    replicas = [
        spawn_replica_process(
            models,
            name=f"rep-{index}",
            fleet_dir=fleet_dir,
            plan_store=PlanStore(store_dir),
            **runtime_kwargs,
        )
        for index in range(2)
    ]
    try:
        with FleetRouter(replicas, start_health_monitor=False) as router:
            # Pin each key's sticky placement and build both engines untimed.
            for model in models:
                router.submit(model, rng.integers(0, 40, size=6)).result(timeout=300)
            start = time.perf_counter()
            fleet_reports = run_rounds(router.submit)
            fleet_seconds = time.perf_counter() - start
            conservation = router.conservation()
            replicas_used = {
                report.worker.split(":")[0] for report in fleet_reports.values()
            }
            router.drain_replicas()
    finally:
        for replica in replicas:
            replica.terminate()
            replica.join(timeout=60)

    bit_identical = all(
        np.array_equal(single_reports[key].result, fleet_reports[key].result)
        for key in single_reports
    )
    assert replicas_used == {"rep-0", "rep-1"}

    # A fresh replica over the fleet's shared plan store skips every
    # offline build: the cross-process warm start the fleet_dir exists for.
    warm = spawn_replica_process(
        models, name="rep-warm", plan_store=PlanStore(store_dir), **runtime_kwargs
    )
    try:
        with FleetRouter([warm], start_health_monitor=False) as warm_router:
            for model in models:
                warm_router.submit(model, rng.integers(0, 40, size=6)).result(
                    timeout=300
                )
            [warm_stats] = warm_router.replica_stats()
    finally:
        warm.terminate()
        warm.join(timeout=60)
    warm_starts = warm_stats["engine_cache"]["warm_starts"]
    cold_builds = warm_stats["engine_cache"]["cold_builds"]
    warm_start_hit_rate = warm_starts / max(1, warm_starts + cold_builds)

    single_rps = n / single_seconds
    fleet_rps = n / fleet_seconds
    speedup = fleet_rps / single_rps
    print(f"\nReplica fleet ({n} closed-loop requests, linger {linger:.2f}s)\n")
    print(format_table(
        ["Path", "Wall seconds", "Requests/s", "Speedup"],
        [
            ["single process", f"{single_seconds:.3f}", f"{single_rps:.1f}", ""],
            ["2-replica fleet", f"{fleet_seconds:.3f}", f"{fleet_rps:.1f}",
             f"{speedup:.2f}x"],
        ],
    ))
    print(
        f"conservation gap {conservation['gap']}, bit identical {bit_identical}, "
        f"warm-start hit rate {warm_start_hit_rate:.2f}"
    )
    record("serving", "replica_fleet", {
        "num_requests": n,
        "num_replicas": len(replicas),
        "linger_seconds": linger,
        "single_process_seconds": single_seconds,
        "fleet_seconds": fleet_seconds,
        "single_process_requests_per_second": single_rps,
        "fleet_requests_per_second": fleet_rps,
        "throughput_speedup": speedup,
        "conservation_gap": conservation["gap"],
        "typed_failures": conservation["typed_failed"],
        "bit_identical": int(bit_identical),
        "warm_starts": warm_starts,
        "cold_builds": cold_builds,
        "warm_start_hit_rate": warm_start_hit_rate,
    })
    # Same thresholds as the committed check_regressions.py gates.
    assert conservation["gap"] == 0
    assert bit_identical
    assert warm_start_hit_rate == 1.0
    assert speedup >= 1.3


@pytest.mark.bench
@pytest.mark.parametrize("batch_size", [1, 4, 8])
def test_bench_shared_slot_matmul(benchmark, batch_size):
    matrices, weights = _make_workload()
    backend = ExactBFVBackend(serving_parameters(256), seed=5)
    benchmark(lambda: encrypted_batch_matmul(backend, matrices[:batch_size], weights))


@pytest.mark.bench
def test_bench_batched_encrypt(benchmark):
    backend = ExactBFVBackend(serving_parameters(256), seed=5)
    rng = np.random.default_rng(0)
    vectors = [rng.integers(0, 256, size=64) for _ in range(32)]
    benchmark(lambda: backend.encrypt_batch(vectors))
