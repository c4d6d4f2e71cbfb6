"""Integration tests: full private inference of a tiny Transformer under every
Primer variant, plus the accounting/cost-model layers that generate the
paper-scale tables."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import GCFormerBaseline, THEXBaseline
from repro.errors import ProtocolError
from repro.he import BFVParameters, ExactBFVBackend, find_rns_primes
from repro.nn import BERT_BASE, BERT_TINY, PAPER_MODELS
from repro.protocols import (
    ALL_VARIANTS,
    PRIMER_BASE,
    PRIMER_F,
    PRIMER_FP,
    PRIMER_FPC,
    PrivateTransformerInference,
    count_operations,
)
from repro.runtime import calibrated_latency_model, scheme_latencies


@pytest.fixture(scope="module")
def variant_results(tiny_model, tiny_token_ids):
    """Run the full private inference once per variant (shared across tests)."""
    results = {}
    for variant in ALL_VARIANTS:
        engine = PrivateTransformerInference(tiny_model, variant, seed=11)
        engine.offline()
        results[variant.name] = engine.run(tiny_token_ids)
    return results


class TestVariantsOnRealCiphertexts:
    @pytest.mark.parametrize("variant", [PRIMER_BASE, PRIMER_F, PRIMER_FP], ids=lambda v: v.name)
    def test_logits_bit_identical_to_the_simulator(
        self, variant, variant_results, tiny_model, tiny_token_ids
    ):
        """Every HE step on real RLWE ciphertexts (N = 1024, six limbs)."""
        primes = find_rns_primes(30, 1024, 6)
        params = BFVParameters(
            ring_degree=1024, ciphertext_modulus=math.prod(primes),
            ciphertext_moduli=tuple(primes), plaintext_modulus=1 << 31,
            error_stddev=1.0, security_bits=0,
        )
        engine = PrivateTransformerInference(
            tiny_model, variant, backend=ExactBFVBackend(params), seed=11
        )
        engine.offline()
        result = engine.run(tiny_token_ids)
        assert engine.tracker.count("encrypt") > 0
        assert np.array_equal(result.logits, variant_results[variant.name].logits)


class TestPrivateInference:
    def test_predictions_match_plaintext(self, variant_results, tiny_model, tiny_token_ids):
        expected = int(np.argmax(tiny_model.logits(tiny_token_ids)))
        for name, result in variant_results.items():
            assert result.prediction == expected, name

    def test_logits_close_to_plaintext(self, variant_results, tiny_model, tiny_token_ids):
        plain = tiny_model.logits(tiny_token_ids)
        for name, result in variant_results.items():
            assert np.max(np.abs(result.logits - plain)) < 1.0, name

    def test_variants_agree_with_each_other(self, variant_results):
        reference = variant_results["primer-f"].logits
        for name, result in variant_results.items():
            assert np.max(np.abs(result.logits - reference)) < 0.5, name

    def test_variant_equivalence_regression(self, variant_results):
        """All four variants decode the same output on the seeded input.

        The F and P optimisations only move work offline / repack slots, so
        primer-base, primer-f and primer-fp must produce bit-identical
        logits.  CHGS merges adjacent products (its intermediates carry 3f
        fractional bits before truncation), so primer-fpc is held to the
        fixed-point resolution instead -- and the decoded prediction must
        agree across all four.
        """
        predictions = {name: r.prediction for name, r in variant_results.items()}
        assert len(set(predictions.values())) == 1, predictions
        reference = variant_results["primer-base"].logits
        for name in ("primer-f", "primer-fp"):
            assert np.array_equal(variant_results[name].logits, reference), name
        assert np.max(np.abs(variant_results["primer-fpc"].logits - reference)) < 0.05

    def test_primer_base_has_no_offline_traffic(self, variant_results):
        assert variant_results["primer-base"].offline_bytes == 0
        assert variant_results["primer-base"].offline_rounds == 0

    def test_primer_f_moves_work_offline(self, variant_results):
        base = variant_results["primer-base"]
        primer_f = variant_results["primer-f"]
        assert primer_f.offline_bytes > 0
        assert primer_f.online_bytes < base.online_bytes / 5

    def test_chgs_reduces_online_rounds(self, variant_results):
        assert (
            variant_results["primer-fpc"].online_rounds
            < variant_results["primer-f"].online_rounds
        )

    def test_run_before_offline_raises(self, tiny_model, tiny_token_ids):
        engine = PrivateTransformerInference(tiny_model, PRIMER_F, seed=1)
        with pytest.raises(ProtocolError):
            engine.run(tiny_token_ids)

    def test_wrong_sequence_length_raises(self, tiny_model):
        engine = PrivateTransformerInference(tiny_model, PRIMER_F, seed=1)
        engine.offline()
        with pytest.raises(ProtocolError):
            engine.run(np.arange(3))

    def test_summary_fields(self, variant_results):
        summary = variant_results["primer-fpc"].summary()
        assert summary["variant"] == "primer-fpc"
        assert summary["he_operations"] > 0


class TestAccounting:
    def test_primer_base_is_online_heavy(self):
        account = count_operations(BERT_BASE, PRIMER_BASE)
        totals = account.totals()
        assert totals.online.he_mults > 0
        assert totals.offline.he_mults == 0

    def test_primer_f_moves_he_offline(self):
        account = count_operations(BERT_BASE, PRIMER_F)
        totals = account.totals()
        assert totals.offline.he_mults > 0
        assert totals.online.he_mults < totals.offline.he_mults / 10

    def test_packing_reduces_rotations(self):
        f = count_operations(BERT_BASE, PRIMER_F).totals().offline.he_rotations
        fp = count_operations(BERT_BASE, PRIMER_FP).totals().offline.he_rotations
        assert fp < f / 5

    def test_chgs_removes_embed_and_qkv(self):
        account = count_operations(BERT_BASE, PRIMER_FPC)
        assert account.steps["embedding"].offline.he_mults == 0
        assert account.steps["qkv"].offline.he_mults == 0
        assert account.steps["qk_product"].offline.he_mults > 0

    def test_larger_models_cost_more(self):
        tiny = count_operations(BERT_TINY, PRIMER_FPC).totals()
        base = count_operations(BERT_BASE, PRIMER_FPC).totals()
        assert base.offline.he_mults > tiny.offline.he_mults
        assert base.online.gc_and_gates > tiny.online.gc_and_gates


class TestCostModel:
    @pytest.fixture(scope="class")
    def latency_model(self):
        return calibrated_latency_model(BERT_BASE)

    def test_calibration_hits_anchor_cells(self, latency_model):
        account = count_operations(BERT_BASE, PRIMER_BASE)
        breakdown = latency_model.breakdown(account)
        # The embedding anchor is reproduced tightly; the "others" step keeps
        # the right order of magnitude (its rotation/multiplication mix in
        # this reproduction differs from the paper's implementation, see
        # EXPERIMENTS.md).
        assert breakdown["embedding"].online.total_seconds == pytest.approx(3094.4, rel=0.05)
        others = breakdown["others"].online.compute_seconds
        assert 3224.5 * 0.5 < others < 3224.5 * 3.0

    def test_table1_ordering(self, latency_model):
        rows = {row.scheme: row for row in scheme_latencies(BERT_BASE, model=latency_model)}
        # Who wins: Primer-FPC has the lowest total; GCFormer the highest.
        assert rows["primer-fpc"].total_seconds < rows["THE-X"].total_seconds
        assert rows["primer-fpc"].total_seconds < rows["primer-f"].total_seconds
        assert rows["GCFormer"].total_seconds > rows["THE-X"].total_seconds
        # Online latency of every offline-preprocessed Primer variant is tiny.
        assert rows["primer-f"].online_seconds < 100
        assert rows["primer-fpc"].online_seconds < 100

    def test_online_latency_reduction_over_base(self, latency_model):
        rows = {row.scheme: row for row in scheme_latencies(BERT_BASE, model=latency_model)}
        reduction = 1 - rows["primer-fpc"].online_seconds / rows["primer-base"].online_seconds
        assert reduction > 0.9  # the paper reports 90.6% - 97.5%

    def test_table3_scaling_across_models(self, latency_model):
        online = []
        for name in ("bert-tiny", "bert-small", "bert-base", "bert-medium", "bert-large"):
            account = count_operations(PAPER_MODELS[name], PRIMER_FPC)
            online.append(latency_model.online_seconds(account))
        assert online == sorted(online)  # deeper/wider models are slower

    def test_throughput_metric(self, latency_model):
        account = count_operations(BERT_TINY, PRIMER_FPC)
        assert latency_model.throughput_tokens_per_second(account) > 0


class TestBaselines:
    def test_thex_has_no_offline(self):
        assert THEXBaseline(BERT_BASE).offline_seconds() == 0.0

    def test_thex_online_dominates_primer_online(self):
        latency = calibrated_latency_model(BERT_BASE)
        thex = THEXBaseline(BERT_BASE, constants=latency.constants)
        fpc_online = latency.online_seconds(count_operations(BERT_BASE, PRIMER_FPC))
        assert thex.online_seconds() > 50 * fpc_online

    def test_gcformer_gate_count_scales_with_model(self):
        assert (
            GCFormerBaseline(BERT_BASE).and_gate_count()
            > GCFormerBaseline(BERT_TINY).and_gate_count()
        )

    def test_gcformer_is_accurate_but_slow(self):
        latency = calibrated_latency_model(BERT_BASE)
        gcformer = GCFormerBaseline(BERT_BASE, constants=latency.constants)
        thex = THEXBaseline(BERT_BASE, constants=latency.constants)
        assert gcformer.total_seconds() > thex.total_seconds()
