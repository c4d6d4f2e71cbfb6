"""Homomorphic-encryption substrate (SEAL-style additive PAHE).

Two backends share one interface:

* :class:`~repro.he.backend.ExactBFVBackend` -- a from-scratch RLWE/BFV scheme
  (NTT ring arithmetic, real encryption, noise tracking);
* :class:`~repro.he.simulated.SimulatedHEBackend` -- a functional simulator
  with identical slot semantics and faithful operation accounting, used for
  model-scale runs.
"""

from .backend import ExactBFVBackend, HEBackend, UnsupportedHEOperation
from .bfv import BFVContext, Ciphertext, EvalPlain
from .matmul import (
    PackedMatrix,
    decrypt_matrix,
    enc_times_plain,
    encrypt_matrix_columns,
    encrypt_matrix_rows,
    encrypted_batch_matmul,
    encrypted_packed_matmul,
    plain_times_enc,
)
from .bsgs import (
    BSGSCosts,
    BSGSGeometry,
    BSGSMatmulPlan,
    bsgs_batch_matmul,
    bsgs_geometry,
    bsgs_matmul,
    calibrate_bsgs_costs,
    prepare_bsgs_plan,
)
from .kernels import (
    KernelTier,
    active_tier_name,
    available_tiers,
    calibration_snapshot,
    fastest_tier_name,
    get_kernel_tier,
    set_kernel_tier,
    tier_scope,
)
from .ntt import (
    Domain,
    NTTContext,
    batch_ntt,
    clear_ntt_cache,
    find_ntt_prime,
    find_rns_primes,
    get_ntt_context,
    is_prime,
    primitive_root,
)
from .packing import (
    PackedInput,
    PackingLayout,
    bsgs_coeff_transform_count,
    bsgs_rotation_count,
    bsgs_transform_count,
    ciphertext_count,
    pack_matrix,
    rotation_count,
    rotation_savings,
    unpack_matrix,
)
from .params import (
    BFVParameters,
    paper_parameters,
    rns_serving_parameters,
    serving_parameters,
    test_parameters,
    toy_parameters,
)
from .polyring import PolynomialRing
from .rns import RNSBasis, RNSPolynomialRing
from .simulated import SimulatedCiphertext, SimulatedEvalPlain, SimulatedHEBackend
from .tracker import OperationTracker

__all__ = [
    "BFVContext",
    "BFVParameters",
    "BSGSCosts",
    "BSGSGeometry",
    "BSGSMatmulPlan",
    "Ciphertext",
    "Domain",
    "EvalPlain",
    "ExactBFVBackend",
    "HEBackend",
    "KernelTier",
    "NTTContext",
    "OperationTracker",
    "PackedInput",
    "PackedMatrix",
    "PackingLayout",
    "PolynomialRing",
    "RNSBasis",
    "RNSPolynomialRing",
    "SimulatedCiphertext",
    "SimulatedEvalPlain",
    "SimulatedHEBackend",
    "UnsupportedHEOperation",
    "active_tier_name",
    "available_tiers",
    "batch_ntt",
    "bsgs_batch_matmul",
    "bsgs_coeff_transform_count",
    "bsgs_geometry",
    "bsgs_matmul",
    "bsgs_rotation_count",
    "bsgs_transform_count",
    "calibrate_bsgs_costs",
    "calibration_snapshot",
    "ciphertext_count",
    "clear_ntt_cache",
    "fastest_tier_name",
    "get_kernel_tier",
    "prepare_bsgs_plan",
    "decrypt_matrix",
    "enc_times_plain",
    "encrypt_matrix_columns",
    "encrypt_matrix_rows",
    "encrypted_batch_matmul",
    "encrypted_packed_matmul",
    "find_ntt_prime",
    "find_rns_primes",
    "get_ntt_context",
    "is_prime",
    "pack_matrix",
    "paper_parameters",
    "plain_times_enc",
    "primitive_root",
    "rns_serving_parameters",
    "rotation_count",
    "rotation_savings",
    "serving_parameters",
    "set_kernel_tier",
    "test_parameters",
    "tier_scope",
    "toy_parameters",
    "unpack_matrix",
]
