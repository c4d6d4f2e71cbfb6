"""Re-derive the screened inference inputs that ``workloads.py`` hard-codes.

    python3 benchmarks/e2e/screen_inputs.py

Runs every (model, token sequence) pair of the ``infer_warm`` and
``engine_churn`` families through a private engine once and prints the
largest max-abs error against ``TransformerEncoder.logits`` -- which must
stay under :data:`MARGIN`, well inside the suite's tolerance of 1.0 -- and
the ``engine_churn`` model offsets that exceed it (``CHURN_EXCLUDED``).
Logits are a deterministic function of (model, variant, tokens), so a pair
that passes here passes in every batch of every run.  Re-run it when a shape
in ``workloads.py`` or the protocol's fixed-point arithmetic changes.  Takes
about a minute; it is a maintenance tool, not part of a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

MARGIN = 0.6


def worst_error(model, variant, pool) -> float:
    from repro.protocols.primer import PrivateTransformerInference

    engine = PrivateTransformerInference(model, variant, seed=1)
    engine.offline()
    return max(
        float(np.max(np.abs(result.logits - model.logits(tokens))))
        for result, tokens in zip(engine.run_batch(list(pool)), pool, strict=True)
    )


def main() -> int:
    import workloads as w

    from repro.nn import BERT_BASE, TransformerEncoder, scaled_config

    token_rng = np.random.default_rng(w.TOKEN_POOL_SEED)
    cfg = scaled_config(BERT_BASE, **w.InferWarm.config)
    pool = token_rng.integers(0, cfg.vocab_size, size=(w.INFER_POOL_SIZE, cfg.seq_len))
    model = TransformerEncoder.initialise(cfg, seed=w.INFER_MODEL_SEED)
    infer = {v.name: worst_error(model, v, pool) for v in w.InferWarm.variants}
    print("infer_warm worst error per variant:", infer)

    token_rng = np.random.default_rng(w.TOKEN_POOL_SEED)
    cfg = scaled_config(BERT_BASE, **w.EngineChurn.config)
    pool = token_rng.integers(0, cfg.vocab_size, size=(w.CHURN_POOL_SIZE, cfg.seq_len))
    excluded = set()
    for offset in range(w.CHURN_CANDIDATES):
        model = TransformerEncoder.initialise(cfg, seed=w.CHURN_MODEL_SEED0 + offset)
        if worst_error(model, w.PRIMER_FPC, pool) > MARGIN:
            excluded.add(offset)
    print("engine_churn offsets over the margin:", sorted(excluded))
    ok = max(infer.values()) <= MARGIN and excluded == set(w.CHURN_EXCLUDED)
    print("matches workloads.py" if ok else "workloads.py is out of date")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
