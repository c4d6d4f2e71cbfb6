"""Closed-form operation accounting for paper-scale models.

The functional protocol engine (:mod:`repro.protocols.primer`) runs the real
two-party computation, but executing a 12-block, 768-dimensional BERT-base
with a 30522-token one-hot embedding in pure Python is not feasible.  The
latency/communication tables of the paper are therefore regenerated from the
*operation algebra* of the protocols: for every Table II step this module
counts the HE multiplications, rotations, encryptions, garbled-circuit AND
gates, plaintext multiply-accumulates, bytes and rounds that the protocol
executes, as a function of the model configuration, the packing layout and
the Primer variant.  :mod:`repro.costmodel` then converts those counts into
seconds using per-operation constants calibrated once against the paper's
Primer-base row.

The same formulas drive every variant, so the relative behaviour of
Primer-F / -FP / -FPC (what moves offline, what packing saves, what merging
removes) is *predicted*, not fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..he.packing import PackingLayout, ciphertext_count, rotation_count
from ..nn.config import TransformerConfig
from .nonlinear import GCCostModel
from .primer import (
    PRIMER_BASE,
    STEP_ATTENTION_VALUE,
    STEP_EMBED,
    STEP_OTHERS,
    STEP_QK,
    STEP_QKV,
    STEP_SOFTMAX,
    TABLE2_STEPS,
    PrimerVariant,
)

__all__ = ["OperationCounts", "StepAccount", "InferenceAccount", "count_operations"]


@dataclass
class OperationCounts:
    """Raw operation counts attributed to one phase of one step."""

    he_mults: float = 0.0
    he_rotations: float = 0.0
    he_encryptions: float = 0.0
    he_additions: float = 0.0
    gc_and_gates: float = 0.0
    plaintext_macs: float = 0.0
    bytes_sent: float = 0.0
    rounds: int = 0
    #: NTT transforms of the evaluation-resident pipeline (one per
    #: polynomial): one forward per input ciphertext at secret-key encrypt
    #: plus one inverse per output ciphertext at decrypt -- the plaintext
    #: operands are pre-transformed at plan time and the multiply-accumulate
    #: itself is pointwise.  Kept out of the latency conversion (the
    #: per-operation constants already absorb transform time); surfaced so
    #: reports can attribute the residency win per step and phase.
    he_ntt_transforms: float = 0.0

    def add(self, other: OperationCounts) -> None:
        self.he_mults += other.he_mults
        self.he_rotations += other.he_rotations
        self.he_encryptions += other.he_encryptions
        self.he_additions += other.he_additions
        self.gc_and_gates += other.gc_and_gates
        self.plaintext_macs += other.plaintext_macs
        self.bytes_sent += other.bytes_sent
        self.rounds += other.rounds
        self.he_ntt_transforms += other.he_ntt_transforms


@dataclass
class StepAccount:
    """Offline and online operation counts of one Table II step."""

    step: str
    offline: OperationCounts = field(default_factory=OperationCounts)
    online: OperationCounts = field(default_factory=OperationCounts)


@dataclass
class InferenceAccount:
    """Operation counts of a full private inference, broken down by step."""

    config: TransformerConfig
    variant: PrimerVariant
    steps: dict[str, StepAccount]

    def totals(self) -> StepAccount:
        total = StepAccount(step="total")
        for account in self.steps.values():
            total.offline.add(account.offline)
            total.online.add(account.online)
        return total

    def total_bytes(self) -> float:
        total = self.totals()
        return total.offline.bytes_sent + total.online.bytes_sent


# ---------------------------------------------------------------------------
# Helpers describing the HE cost of one encrypted matrix product.
# ---------------------------------------------------------------------------

def _he_matmul_counts(
    rows: int, inner: int, cols: int, slots: int, layout: PackingLayout,
    ciphertext_bytes: int, limbs: int = 1,
) -> OperationCounts:
    """HE operation counts for an encrypted (rows x inner) @ (inner x cols).

    SIMD batching amortises ``slots`` multiply-accumulates per ciphertext
    operation; the rotation count follows the packing algebra of Figure 6.
    ``limbs`` is the RNS limb count of the deployed double-CRT ciphertext
    basis: transform counts are per limb polynomial, while rotations,
    products and wire bytes are per ciphertext (``ciphertext_bytes`` already
    reflects the full ``deployed_log_q``).
    """
    macs = rows * inner * cols
    mults = macs / slots
    rotations = rotation_count(rows, inner, slots, layout)
    input_cts = ciphertext_count(rows, inner, slots, layout)
    output_cts = max(1, math.ceil(rows * cols / slots))
    return OperationCounts(
        he_mults=mults,
        he_rotations=rotations,
        he_encryptions=input_cts + output_cts,
        he_additions=mults,
        bytes_sent=(input_cts + output_cts) * ciphertext_bytes,
        rounds=2,
        # Evaluation-resident transform economy: secret-key encryption is
        # born in NTT form (one forward per input ciphertext, its c1 expanded
        # from a seed), the plaintext operand transforms are hoisted to plan
        # time, and each output ciphertext pays exactly one inverse at the
        # decrypt boundary -- each transform once per RNS limb.
        he_ntt_transforms=(input_cts + output_cts) * limbs,
    )


def _online_share_matmul(rows: int, inner: int, cols: int, element_bytes: int) -> OperationCounts:
    """Online cost of the share-space matrix product (plaintext MACs + opening)."""
    return OperationCounts(
        plaintext_macs=rows * inner * cols,
        bytes_sent=rows * cols * element_bytes,
        rounds=1,
    )


def _gc_counts(and_gates: float, input_words: float, word_bits: int) -> tuple[OperationCounts, OperationCounts]:
    """(offline, online) counts of one garbled evaluation."""
    gc = GCCostModel(word_bits)
    offline = OperationCounts(
        gc_and_gates=and_gates, bytes_sent=gc.table_bytes(int(and_gates)), rounds=1
    )
    online = OperationCounts(
        gc_and_gates=and_gates,
        bytes_sent=gc.input_label_bytes(int(input_words) * word_bits),
        rounds=1,
    )
    return offline, online


# ---------------------------------------------------------------------------
# The full per-step accounting.
# ---------------------------------------------------------------------------

def count_operations(
    config: TransformerConfig,
    variant: PrimerVariant,
    *,
    slots: int = 4096,
    ciphertext_bytes: int = 2 * 4096 * 8,
    word_bits: int = 15,
    limbs: int = 1,
) -> InferenceAccount:
    """Count every operation of one private inference of ``config`` under ``variant``.

    ``limbs`` scales the per-limb NTT transform counts for a double-CRT
    deployment (``BFVParameters.limb_count``); the default of 1 keeps the
    historical single-modulus accounting.
    """
    n = config.seq_len
    d = config.embed_dim
    vocab = config.vocab_size
    heads = config.num_heads
    head_dim = config.head_dim
    blocks = config.num_blocks
    ffn = config.hidden_ffn_dim
    element_bytes = 4
    gc = GCCostModel(word_bits)

    steps = {name: StepAccount(step=name) for name in TABLE2_STEPS}
    he_phase = "offline" if variant.preprocess_offline else "online"

    def he_target(step: str) -> OperationCounts:
        return getattr(steps[step], he_phase)

    # ---- embedding -------------------------------------------------------
    if variant.combine_layers:
        # CHGS folds the embedding into the combined attention product; its
        # HE work is accounted for under the Q x K step below.
        pass
    else:
        he_target(STEP_EMBED).add(
            _he_matmul_counts(n, vocab, d, slots, variant.packing, ciphertext_bytes, limbs)
        )
        steps[STEP_EMBED].online.add(_online_share_matmul(n, vocab, d, element_bytes))

    # ---- QKV projections -------------------------------------------------
    if not variant.combine_layers:
        for _ in range(blocks):
            for _ in range(3):
                he_target(STEP_QKV).add(
                    _he_matmul_counts(n, d, d, slots, variant.packing, ciphertext_bytes, limbs)
                )
                steps[STEP_QKV].online.add(_online_share_matmul(n, d, d, element_bytes))

    # ---- Q @ K^T ---------------------------------------------------------
    for _ in range(blocks):
        if variant.combine_layers:
            # Combined product X @ (Wq Wk^T) @ X^T: the offline mask
            # preparation absorbs the work of the Q/K/V projections (the
            # masks still pass through the same weight volumes), which is why
            # this step grows under CHGS while QKV disappears.
            for _ in range(3):
                he_target(STEP_QK).add(
                    _he_matmul_counts(n, d, d, slots, variant.packing, ciphertext_bytes, limbs)
                )
            steps[STEP_QK].online.add(_online_share_matmul(n, d, d, element_bytes))
        for _ in range(heads):
            he_target(STEP_QK).add(
                _he_matmul_counts(n, head_dim, n, slots, variant.packing, ciphertext_bytes, limbs)
            )
            steps[STEP_QK].online.add(
                _online_share_matmul(n, head_dim, n, element_bytes)
            )
            # Online cross-term correction (two ciphertext batches).
            steps[STEP_QK].online.add(
                OperationCounts(
                    he_mults=2 * n * n / slots,
                    bytes_sent=2 * math.ceil(n * n / slots) * ciphertext_bytes,
                    rounds=1,
                )
            )
    if variant.combine_layers:
        # Fold the embedding masks into the combined offline preparation.
        he_target(STEP_QK).add(
            _he_matmul_counts(n, vocab, d, slots, variant.packing, ciphertext_bytes, limbs)
        )

    # ---- SoftMax (GC) ----------------------------------------------------
    softmax_gates = blocks * heads * n * (
        gc.softmax_gates(n) + gc.share_reconstruction_gates() + gc.output_masking_gates()
    )
    softmax_words = blocks * heads * n * n
    sm_off, sm_on = _gc_counts(softmax_gates, softmax_words, word_bits)
    steps[STEP_SOFTMAX].offline.add(sm_off)
    steps[STEP_SOFTMAX].online.add(sm_on)

    # ---- Attention @ V ---------------------------------------------------
    for _ in range(blocks):
        for _ in range(heads):
            he_target(STEP_ATTENTION_VALUE).add(
                _he_matmul_counts(n, n, head_dim, slots, variant.packing, ciphertext_bytes, limbs)
            )
            steps[STEP_ATTENTION_VALUE].online.add(
                _online_share_matmul(n, n, head_dim, element_bytes)
            )

    # ---- Others: output projection, FFN, LayerNorm, GELU, head -----------
    for _ in range(blocks):
        he_target(STEP_OTHERS).add(
            _he_matmul_counts(n, d, d, slots, variant.packing, ciphertext_bytes, limbs)
        )
        he_target(STEP_OTHERS).add(
            _he_matmul_counts(n, d, ffn, slots, variant.packing, ciphertext_bytes, limbs)
        )
        he_target(STEP_OTHERS).add(
            _he_matmul_counts(n, ffn, d, slots, variant.packing, ciphertext_bytes, limbs)
        )
        steps[STEP_OTHERS].online.add(_online_share_matmul(n, d, d, element_bytes))
        steps[STEP_OTHERS].online.add(_online_share_matmul(n, d, ffn, element_bytes))
        steps[STEP_OTHERS].online.add(_online_share_matmul(n, ffn, d, element_bytes))
    # GC work in "others": two LayerNorms per block, GELU, pooler tanh.
    other_gates = blocks * (
        2 * n * gc.layernorm_gates(d) + n * ffn * gc.gelu_gates()
    ) + gc.tanh_gates() * d
    other_words = blocks * (2 * n * d + n * ffn) + d
    ot_off, ot_on = _gc_counts(other_gates, other_words, word_bits)
    steps[STEP_OTHERS].offline.add(ot_off)
    steps[STEP_OTHERS].online.add(ot_on)
    # Pooler + classifier linear layers.
    he_target(STEP_OTHERS).add(
        _he_matmul_counts(1, d, d, slots, variant.packing, ciphertext_bytes, limbs)
    )
    he_target(STEP_OTHERS).add(
        _he_matmul_counts(1, d, config.num_labels, slots, variant.packing, ciphertext_bytes, limbs)
    )

    # Primer-base charges the garbling phase online as well (no offline at all
    # except negligible constants), matching the "/" entries of Table II.
    if variant is PRIMER_BASE or not variant.preprocess_offline:
        for name in (STEP_SOFTMAX, STEP_OTHERS):
            pass  # garbling already split; Table II keeps tiny offline entries.

    return InferenceAccount(config=config, variant=variant, steps=steps)
