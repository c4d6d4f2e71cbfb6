"""Tests for the explicit offline-plan split (prepare / install / offline).

The offline phase of every protocol module is now an immutable artifact
(:class:`~repro.protocols.plan.OfflinePlan`): ``prepare()`` produces it
without touching execution state, ``install()`` adopts it, and ``offline()``
composes the two.  These tests pin down the contract the engine cache and
the persistent plan store rely on: plans are transferable between engines of
the same ``(model, variant)``, survive pickling (the plan store writes them
to disk for later processes), and installation is validated.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.protocols import (
    PRIMER_BASE,
    PRIMER_FPC,
    FHGSPlan,
    HGSPlan,
    OfflinePlan,
    Phase,
    PrivateTransformerInference,
)


@pytest.fixture(scope="module")
def engine_pair(tiny_model):
    """Two engines of the same (model, variant, seed); one prepared plan."""
    producer = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=17)
    consumer = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=17)
    plan = producer.prepare()
    return producer, consumer, plan


class TestOfflinePlan:
    def test_prepare_does_not_enable_online(self, engine_pair, tiny_token_ids):
        producer, _, _ = engine_pair
        fresh = PrivateTransformerInference(producer.model, PRIMER_FPC, seed=3)
        fresh.prepare()
        with pytest.raises(ProtocolError):
            fresh.run(tiny_token_ids)

    def test_plan_modules_are_named_and_typed(self, engine_pair):
        _, _, plan = engine_pair
        names = plan.module_names()
        assert "embedding" in names and "pooler" in names and "classifier" in names
        assert isinstance(plan.module("embedding"), HGSPlan)
        # CHGS folds the projections into FHGS score/value products.
        assert isinstance(plan.module("block0.scores.0"), FHGSPlan)
        assert plan.variant == "primer-fpc"
        assert plan.phase is Phase.OFFLINE
        with pytest.raises(ProtocolError):
            plan.module("no-such-module")

    def test_installed_plan_matches_inplace_offline(self, engine_pair, tiny_model, tiny_token_ids):
        """install(prepare()) on a sibling engine == classic offline()."""
        _, consumer, plan = engine_pair
        consumer.install(plan)
        got = consumer.run(tiny_token_ids)

        baseline = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=99)
        baseline.offline()
        expected = baseline.run(tiny_token_ids)
        assert np.array_equal(got.logits, expected.logits)
        assert got.prediction == expected.prediction

    def test_plan_survives_pickling(self, engine_pair, tiny_model, tiny_token_ids):
        """A pickled/unpickled plan serves an engine identically."""
        _, _, plan = engine_pair
        revived = pickle.loads(pickle.dumps(plan))
        assert revived.module_names() == plan.module_names()
        engine = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=17)
        engine.install(revived)
        baseline = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=1)
        baseline.offline()
        assert np.array_equal(
            engine.run(tiny_token_ids).logits, baseline.run(tiny_token_ids).logits
        )

    def test_variant_mismatch_rejected(self, engine_pair, tiny_model):
        _, _, plan = engine_pair
        other = PrivateTransformerInference(tiny_model, PRIMER_BASE, seed=17)
        with pytest.raises(ProtocolError):
            other.install(plan)

    def test_module_plan_type_mismatch_rejected(self, engine_pair):
        producer, _, plan = engine_pair
        with pytest.raises(ProtocolError):
            producer.embedding_layer.install(plan.module("block0.scores.0"))

    def test_missing_modules_rejected(self, engine_pair, tiny_model):
        _, _, plan = engine_pair
        truncated = OfflinePlan(
            variant=plan.variant,
            phase=plan.phase,
            modules={"embedding": plan.module("embedding")},
        )
        engine = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=17)
        with pytest.raises(ProtocolError):
            engine.install(truncated)

    def test_plan_mapping_is_frozen(self, engine_pair):
        _, _, plan = engine_pair
        with pytest.raises(TypeError):
            plan.modules["embedding"] = None  # type: ignore[index]


class TestPhaseAttribution:
    def test_tracker_phase_split_covers_all_operations(self, tiny_model, tiny_token_ids):
        engine = PrivateTransformerInference(tiny_model, PRIMER_FPC, seed=5)
        engine.offline()
        engine.run(tiny_token_ids)
        offline_ops = engine.tracker.phase_snapshot(Phase.OFFLINE.value)
        online_ops = engine.tracker.phase_snapshot(Phase.ONLINE.value)
        assert offline_ops and online_ops
        combined: dict[str, int] = dict(offline_ops)
        for op, count in online_ops.items():
            combined[op] = combined.get(op, 0) + count
        assert combined == engine.tracker.snapshot()

    def test_primer_base_charges_preprocessing_online(self, tiny_model):
        engine = PrivateTransformerInference(tiny_model, PRIMER_BASE, seed=5)
        engine.offline()
        # The baseline runs the same exchanges but they are online work.
        assert engine.tracker.phase_snapshot(Phase.OFFLINE.value) == {}
        assert engine.tracker.phase_snapshot(Phase.ONLINE.value)
