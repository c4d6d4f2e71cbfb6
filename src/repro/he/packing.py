"""Ciphertext packing layouts: feature-based vs tokens-first (paper Fig. 6).

The embedding layer of BERT multiplies an ``n x d_oh`` one-hot matrix
(``d_oh = 30522``) by a ``d_oh x d_emb`` weight matrix.  How the input matrix
is laid out across ciphertext slots determines how many homomorphic rotations
the encrypted matrix product needs:

* **feature-based packing** (prior work): the features of one token are
  packed contiguously; every occupied slot offset of every ciphertext needs
  its own rotation, giving ``c * M`` rotations for ``c`` ciphertexts of ``M``
  slots.
* **tokens-first packing** (the paper's proposal): the same feature of all
  ``n`` tokens is packed contiguously; only one rotation per *feature block*
  of ``n`` slots is needed, giving roughly ``c * M / n`` rotations.

This module implements both layouts (packing, unpacking, and closed-form
ciphertext/rotation counts).  :mod:`repro.he.matmul` contains the actual
rotation-based encrypted matrix product that realises these counts on an
:class:`~repro.he.backend.HEBackend`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError

__all__ = [
    "PackingLayout",
    "PackedInput",
    "pack_matrix",
    "unpack_matrix",
    "ciphertext_count",
    "rotation_count",
    "bsgs_rotation_count",
    "bsgs_transform_count",
    "bsgs_coeff_transform_count",
    "rotation_savings",
]


class PackingLayout(enum.Enum):
    """Which dimension of the token-by-feature matrix is packed first."""

    FEATURE_BASED = "feature_based"
    TOKENS_FIRST = "tokens_first"
    #: tokens-first slot layout driven through the baby-step/giant-step
    #: diagonal kernel (:mod:`repro.he.bsgs`): same packing as
    #: ``TOKENS_FIRST``, rotation count ``O(sqrt(d))`` instead of ``O(d)``
    BSGS_DIAGONAL = "bsgs_diagonal"


@dataclass
class PackedInput:
    """A token-by-feature matrix laid out across ciphertext slot vectors.

    Attributes
    ----------
    layout:
        The packing layout that produced this object.
    plaintexts:
        One residue vector per (future) ciphertext, each of length
        ``slot_count``.
    slot_map:
        ``slot_map[(token, feature)] = (ciphertext_index, slot_index)``.
    shape:
        Original ``(n_tokens, n_features)`` shape.
    slot_count:
        Number of slots per ciphertext.
    """

    layout: PackingLayout
    plaintexts: list[np.ndarray]
    slot_map: dict[tuple[int, int], tuple[int, int]]
    shape: tuple[int, int]
    slot_count: int
    #: tokens-first only: number of feature blocks (of n slots each) per ciphertext
    features_per_ciphertext: int = field(default=1)

    @property
    def num_ciphertexts(self) -> int:
        return len(self.plaintexts)


def _validate(matrix: np.ndarray, slot_count: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2:
        raise ParameterError("packing expects a 2-D token-by-feature matrix")
    if slot_count < 1:
        raise ParameterError("slot_count must be positive")
    return matrix


def pack_matrix(
    matrix: np.ndarray, slot_count: int, layout: PackingLayout
) -> PackedInput:
    """Pack a token-by-feature matrix into ciphertext slot vectors."""
    matrix = _validate(matrix, slot_count)
    n_tokens, n_features = matrix.shape
    slot_map: dict[tuple[int, int], tuple[int, int]] = {}
    plaintexts: list[np.ndarray] = []

    if layout is PackingLayout.FEATURE_BASED:
        # Walk token-major, feature-minor; fill ciphertexts densely.
        current = np.zeros(slot_count, dtype=np.int64)
        slot = 0
        for token in range(n_tokens):
            for feature in range(n_features):
                current[slot] = matrix[token, feature]
                slot_map[(token, feature)] = (len(plaintexts), slot)
                slot += 1
                if slot == slot_count:
                    plaintexts.append(current)
                    current = np.zeros(slot_count, dtype=np.int64)
                    slot = 0
        if slot > 0:
            plaintexts.append(current)
        return PackedInput(
            layout=layout,
            plaintexts=plaintexts,
            slot_map=slot_map,
            shape=(n_tokens, n_features),
            slot_count=slot_count,
            features_per_ciphertext=max(1, slot_count // max(1, n_features)),
        )

    if layout in (PackingLayout.TOKENS_FIRST, PackingLayout.BSGS_DIAGONAL):
        if n_tokens > slot_count:
            raise ParameterError(
                f"tokens-first packing needs n_tokens <= slot_count "
                f"({n_tokens} > {slot_count})"
            )
        features_per_ct = max(1, slot_count // n_tokens)
        current = np.zeros(slot_count, dtype=np.int64)
        block = 0
        for feature in range(n_features):
            base = block * n_tokens
            for token in range(n_tokens):
                current[base + token] = matrix[token, feature]
                slot_map[(token, feature)] = (len(plaintexts), base + token)
            block += 1
            if block == features_per_ct:
                plaintexts.append(current)
                current = np.zeros(slot_count, dtype=np.int64)
                block = 0
        if block > 0:
            plaintexts.append(current)
        return PackedInput(
            layout=layout,
            plaintexts=plaintexts,
            slot_map=slot_map,
            shape=(n_tokens, n_features),
            slot_count=slot_count,
            features_per_ciphertext=features_per_ct,
        )

    raise ParameterError(f"unknown packing layout {layout!r}")


def unpack_matrix(packed: PackedInput) -> np.ndarray:
    """Invert :func:`pack_matrix`, reconstructing the original matrix."""
    n_tokens, n_features = packed.shape
    matrix = np.zeros((n_tokens, n_features), dtype=np.int64)
    for (token, feature), (ct_index, slot) in packed.slot_map.items():
        matrix[token, feature] = packed.plaintexts[ct_index][slot]
    return matrix


def ciphertext_count(
    n_tokens: int, n_features: int, slot_count: int, layout: PackingLayout
) -> int:
    """Closed-form number of ciphertexts needed to pack the input matrix."""
    total = n_tokens * n_features
    if layout is PackingLayout.FEATURE_BASED:
        return math.ceil(total / slot_count)
    if layout in (PackingLayout.TOKENS_FIRST, PackingLayout.BSGS_DIAGONAL):
        features_per_ct = max(1, slot_count // n_tokens)
        return math.ceil(n_features / features_per_ct)
    raise ParameterError(f"unknown packing layout {layout!r}")


def bsgs_rotation_count(
    n_tokens: int, n_features: int, n_outputs: int, slot_count: int
) -> int:
    """Closed-form rotation count of the BSGS diagonal kernel for ``X @ W``.

    The kernel (:func:`repro.he.bsgs.bsgs_matmul`) works on ``D`` feature
    blocks of ``n_tokens`` slots and splits the ``D`` generalized diagonals
    of the zero-padded weight matrix into ``bs = ceil(sqrt(D))`` baby steps
    times ``gs = ceil(D / bs)`` giant steps.  Each of the ``c`` input
    ciphertexts pays ``bs - 1`` hoisted baby-step rotations (reused across
    every output column group and every request packed into the shared
    slots), and each of the ``g`` output column groups pays ``gs - 1``
    giant-step rotations on accumulators that are summed across input
    ciphertexts before rotating:  ``c*(bs-1) + g*(gs-1)`` total.
    """
    from .bsgs import bsgs_geometry  # local import: keep packing dependency-light

    return bsgs_geometry(n_tokens, n_features, n_outputs, slot_count).rotation_count


def bsgs_transform_count(
    n_tokens: int, n_features: int, n_outputs: int, slot_count: int,
    *, limbs: int = 1,
) -> int:
    """Closed-form NTT transform count of the *evaluation-resident* BSGS path.

    With ciphertexts encrypted straight into EVAL form and the diagonal
    masks pre-transformed at plan time (:func:`repro.he.bsgs.prepare_bsgs_plan`),
    the whole multiply-accumulate -- hoisted baby rotations, diagonal
    products, giant-step rotations, accumulating additions -- is pointwise
    and transform-free.  What remains is the encrypt/decrypt boundary:

    * one forward transform per input ciphertext (secret-key encryption
      transforms only ``Delta m + e``; ``c1`` is expanded from its seed
      straight into EVAL form), and
    * **one** inverse per output column group -- the single transform the
      residency design allows per output ciphertext, amortised over every
      diagonal and every request stacked into the batch.

    ``(c + g) * L`` total, assuming every output group's weight slice is
    non-zero (an all-zero group skips its decrypt).  ``limbs`` is the RNS
    limb count ``L`` of the ciphertext basis -- a double-CRT scheme runs one
    NTT per limb polynomial, so every term scales linearly.  The
    tracker-measured count must equal this exactly -- the transform-count
    analog of :func:`bsgs_rotation_count`, asserted in tests and gated in
    CI.
    """
    from .bsgs import bsgs_geometry  # local import: keep packing dependency-light

    geometry = bsgs_geometry(n_tokens, n_features, n_outputs, slot_count)
    return (geometry.num_ciphertexts + geometry.out_groups) * limbs


def bsgs_coeff_transform_count(
    n_tokens: int, n_features: int, n_outputs: int, slot_count: int,
    *, nonzero_masks: int | None = None, limbs: int = 1,
) -> int:
    """Closed-form transform count of the coefficient-resident BSGS path.

    The historical pipeline stores ciphertexts in coefficient form, so
    every diagonal product pays the full round trip -- two forwards for the
    ciphertext pair, one for the plaintext mask, two inverses back (five
    per product) -- plus three transforms per input ciphertext at encrypt
    (one forward, then two inverses into COEFF form) and two per output
    group at decrypt (forward ``c1``, inverse the
    combination).  ``nonzero_masks`` is the number of diagonal products
    actually executed; it defaults to the dense count ``g * c * D`` (every
    generalized diagonal of every input ciphertext and output group).
    ``limbs`` is the RNS limb count ``L``; every transform term is per limb
    polynomial, so the whole expression scales linearly.
    """
    from .bsgs import bsgs_geometry  # local import: keep packing dependency-light

    geometry = bsgs_geometry(n_tokens, n_features, n_outputs, slot_count)
    if nonzero_masks is None:
        nonzero_masks = (
            geometry.out_groups * geometry.num_ciphertexts * geometry.blocks
        )
    return (
        3 * geometry.num_ciphertexts
        + 5 * nonzero_masks
        + 2 * geometry.out_groups
    ) * limbs


def rotation_count(
    n_tokens: int,
    n_features: int,
    slot_count: int,
    layout: PackingLayout,
    *,
    n_outputs: int | None = None,
) -> int:
    """Closed-form number of homomorphic rotations for ``X @ W``.

    Matches the loop structure of the paper's Figure 6 pseudo-code: every
    distinct occupied slot offset of a feature-based ciphertext requires one
    rotation (``~ c * M`` when ``d_oh >= M``), whereas a tokens-first
    ciphertext only needs one rotation per feature block of ``n`` slots
    (``~ c * M / n``), the zero-offset block being free.  The BSGS diagonal
    kernel drops this further to ``O(sqrt(d))`` per ciphertext (see
    :func:`bsgs_rotation_count`); it is the only layout whose count depends
    on the output width, so ``n_outputs`` defaults to a square product.
    """
    c = ciphertext_count(n_tokens, n_features, slot_count, layout)
    if layout is PackingLayout.FEATURE_BASED:
        # Every occupied slot offset of every ciphertext needs one rotation;
        # with full ciphertexts this is the paper's c * M.
        per_ct = min(slot_count, n_tokens * n_features)
        return c * per_ct
    if layout is PackingLayout.TOKENS_FIRST:
        features_per_ct = max(1, slot_count // n_tokens)
        blocks = min(features_per_ct, n_features)
        # The block already aligned at offset zero needs no rotation.
        return c * max(0, blocks - 1)
    if layout is PackingLayout.BSGS_DIAGONAL:
        return bsgs_rotation_count(
            n_tokens, n_features,
            n_outputs if n_outputs is not None else n_features, slot_count,
        )
    raise ParameterError(f"unknown packing layout {layout!r}")


def rotation_savings(
    n_tokens: int, n_features: int, slot_count: int, *, n_outputs: int | None = None
) -> dict[str, int | float]:
    """Rotation counts of every layout and the savings over feature-based.

    The paper states the tokens-first saving as ``c * (M - M/n)`` rotations;
    this helper reports the closed-form counts of all three layouts plus the
    reduction ratios, which the packing benchmark prints alongside the
    measured counts from the tracker.
    """
    feature = rotation_count(
        n_tokens, n_features, slot_count, PackingLayout.FEATURE_BASED
    )
    tokens = rotation_count(
        n_tokens, n_features, slot_count, PackingLayout.TOKENS_FIRST
    )
    bsgs = rotation_count(
        n_tokens, n_features, slot_count, PackingLayout.BSGS_DIAGONAL,
        n_outputs=n_outputs,
    )
    return {
        "feature_based_rotations": feature,
        "tokens_first_rotations": tokens,
        "bsgs_rotations": bsgs,
        "saved_rotations": feature - tokens,
        "reduction_factor": float(feature) / max(1, tokens),
        "bsgs_reduction_factor": float(tokens) / max(1, bsgs),
    }
