"""The FHGS protocol: ciphertext-ciphertext products for attention (Fig. 5),
and its combined variant CHGS (Fig. 3(d) / Section III-C).

Attention needs ``X_Q @ X_K^T`` and ``A @ X_V`` -- products of two *secret*
matrices.  Additive HE alone cannot offload these, which is why the paper
extends HGS with a Beaver-triple-style protocol:

* **offline** -- the client samples random masks ``Rc`` for both operands and
  sends their encryptions (column- and row-packed: the paper's ``Enc(Rc)``
  and ``Enc(Rc^T)``).  The products involving only masks are prepared before
  the input arrives (for the weighted/combined variants this takes a short
  interactive sub-protocol, still entirely offline).
* **online** -- the server holds the blinded operands in plaintext, computes
  ``tmp1`` locally, corrects it with the encrypted cross terms, masks with a
  fresh ``Rs`` and returns one ciphertext batch.  Decryption gives the client
  its additive share of the product.

Three product forms are supported, selected by the constructor:

==================  =======================  ==========================
mode                computes                 used for
==================  =======================  ==========================
plain               ``L @ R^T`` or ``L @ R``  Q@K^T, A@V (Primer-F)
middle_weights M    ``L @ M @ L'^T``          combined QKV+Q@K^T (CHGS)
right_weights W     ``L @ (R @ W)``           combined V-projection+A@V
==================  =======================  ==========================

In the weighted modes the server's weight matrices are folded into the
product so the separate HGS projections disappear -- that is exactly the
"computation merge" of Primer-FPC, and it is what collapses four
interactions into one.

Implementation note on packing: to add the two encrypted cross terms the
paper relies on packing rotations.  We instead mask each cross term with an
independent half of ``Rs`` and let the client add the two decryptions; the
message count, the privacy argument (everything the client sees is masked by
uniform randomness) and the offline/online split are unchanged, and the slot
re-arrangements that *are* required (for the weighted value product) go
through :func:`repro.he.matmul.repack_columns_to_rows`, which charges its
rotations to the tracker.

**Block-diagonal slot sharing** (``prepare(share_slots=k)`` +
:meth:`FHGSMatmul.online_batch`): the attention of a ``k``-request serving
batch is block-diagonal over requests, so the online cross terms of all
``k`` requests pack into *shared* ciphertext slots -- request ``r`` occupies
slot block ``r`` of each cross-term ciphertext.  The client tiles its
encrypted mask packings ``k`` times at encryption time (same ciphertext
count, more occupied slots) during the offline phase; online, one
slot-wise plaintext product per (handle, output row/column) covers the
whole batch, so a ``k``-request batch ships -- and computes -- ``~1/k`` the
cross-term ciphertexts of ``k`` independent runs.  The server masks every
slot block with fresh ``Rs`` randomness before shipping, preserving the
share-uniformity argument verbatim.

Domain residency: the mask packings this module keeps for the online cross
terms are EVAL-form (NTT-resident) handles on the default backend, so each
online cross-term product pays at most one forward transform (the
data-dependent coefficient vector) instead of the five-transform round
trip of a coefficient-resident pipeline, and the only inverse is at the
client's decrypt.  The slot repacking of the weighted mode pre-transforms
its static row selectors once each (see
:func:`repro.he.matmul.repack_columns_to_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ProtocolError, ShapeError
from ..fixedpoint.encoding import FixedPointFormat
from ..he.backend import HEBackend
from ..he.matmul import (
    PackedMatrix,
    enc_times_plain,
    encrypt_matrix_columns,
    encrypt_matrix_rows,
    plain_times_enc,
    repack_columns_to_rows,
    tile_packed,
)
from ..mpc.sharing import AdditiveSharing, SharedValue
from .channel import Channel, Phase
from .formats import PROTOCOL_FORMAT
from .plan import FHGSPlan

__all__ = ["FHGSMatmul"]


@dataclass
class FHGSMatmul:
    """Private product of two shared matrices with optional weight folding."""

    left_shape: tuple[int, int]
    right_shape: tuple[int, int]
    backend: HEBackend
    sharing: AdditiveSharing
    channel: Channel
    step: str
    transpose_right: bool = True
    #: server-held middle weights M: computes L @ M @ R^T (CHGS scores).
    middle_weights: np.ndarray | None = None
    #: server-held right weights W: computes L @ (R @ W) (combined A @ X @ W_V).
    right_weights: np.ndarray | None = None
    fmt: FixedPointFormat = PROTOCOL_FORMAT
    seed: int | None = None

    # installed offline artifact (see protocols/plan.py)
    _plan: FHGSPlan | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.middle_weights is not None and self.right_weights is not None:
            raise ProtocolError("middle_weights and right_weights are mutually exclusive")
        if self.middle_weights is not None:
            self.middle_weights = np.asarray(self.middle_weights, dtype=np.int64)
            if not self.transpose_right:
                raise ProtocolError("middle_weights requires transpose_right=True")
            if self.middle_weights.shape != (self.left_shape[1], self.right_shape[1]):
                raise ShapeError(
                    f"middle weights shape {self.middle_weights.shape} incompatible "
                    f"with operands {self.left_shape}, {self.right_shape}"
                )
        elif self.right_weights is not None:
            self.right_weights = np.asarray(self.right_weights, dtype=np.int64)
            if self.transpose_right:
                raise ProtocolError("right_weights requires transpose_right=False")
            if self.right_weights.shape[0] != self.right_shape[1]:
                raise ShapeError(
                    f"right weights shape {self.right_weights.shape} incompatible "
                    f"with right operand {self.right_shape}"
                )
            if self.left_shape[1] != self.right_shape[0]:
                raise ShapeError(
                    f"cannot form L @ R with shapes {self.left_shape}, {self.right_shape}"
                )
        else:
            inner_left = self.left_shape[1]
            inner_right = self.right_shape[1] if self.transpose_right else self.right_shape[0]
            if inner_left != inner_right:
                raise ShapeError(
                    f"cannot multiply shapes {self.left_shape} and {self.right_shape} "
                    f"(transpose_right={self.transpose_right})"
                )
        self._rng = np.random.default_rng(self.seed)

    @property
    def output_shape(self) -> tuple[int, int]:
        if self.right_weights is not None:
            return (self.left_shape[0], self.right_weights.shape[1])
        if self.transpose_right:
            return (self.left_shape[0], self.right_shape[0])
        return (self.left_shape[0], self.right_shape[1])

    # -- offline phase ---------------------------------------------------------
    def prepare(self, *, phase: Phase = Phase.OFFLINE, share_slots: int = 1) -> FHGSPlan:
        """Exchange encrypted masks and return the offline artifact.

        ``share_slots=k`` (k > 1) additionally prepares *tiled* mask
        packings -- each packed vector replicated ``k`` times inside its
        ciphertext -- enabling the block-diagonal :meth:`online_batch` path
        that serves up to ``k`` compatible requests with one set of
        cross-term ciphertexts.  Tiling the client-held masks is free at
        encryption time; the server-computed weighted packing is tiled
        homomorphically (rotations charged to this phase).

        The returned :class:`FHGSPlan` is not adopted -- pass it to
        :meth:`install`, or call :meth:`offline` which composes the two.
        """
        modulus = self.sharing.modulus
        if share_slots < 1:
            raise ProtocolError("share_slots must be at least 1")
        left_mask = self._rng.integers(0, modulus, size=self.left_shape, dtype=np.int64)
        right_mask = self._rng.integers(0, modulus, size=self.right_shape, dtype=np.int64)

        enc_left_cols = encrypt_matrix_columns(self.backend, left_mask)
        right_for_rows = right_mask.T if self.transpose_right else right_mask
        enc_right_rows = encrypt_matrix_rows(self.backend, right_for_rows)
        enc_right_cols = encrypt_matrix_columns(self.backend, right_mask)
        total_cts = (
            len(enc_left_cols.handles)
            + len(enc_right_rows.handles)
            + len(enc_right_cols.handles)
        )
        self.channel.send(
            "client", "server", total_cts * self.backend.seeded_ciphertext_bytes,
            description="Enc(Rc), Enc(Rc^T)", step=self.step, phase=phase,
        )

        enc_left_cols_tiled: PackedMatrix | None = None
        enc_right_rows_tiled: PackedMatrix | None = None
        if share_slots > 1:
            # The masks are the client's own randomness, so the tiled
            # packings cost the same number of ciphertexts -- only more
            # occupied slots -- and travel alongside the plain ones.
            enc_left_cols_tiled = encrypt_matrix_columns(
                self.backend, np.tile(left_mask, (share_slots, 1))
            )
            enc_right_rows_tiled = encrypt_matrix_rows(
                self.backend, np.tile(right_for_rows, (1, share_slots))
            )
            tiled_cts = (
                len(enc_left_cols_tiled.handles) + len(enc_right_rows_tiled.handles)
            )
            self.channel.send(
                "client", "server", tiled_cts * self.backend.seeded_ciphertext_bytes,
                description=f"Enc(Rc) tiled x{share_slots}", step=self.step,
                phase=phase,
            )

        enc_weighted_right_rows: PackedMatrix | None = None
        enc_weighted_right_rows_tiled: PackedMatrix | None = None
        if self.middle_weights is not None:
            quad_client, quad_server = self._prepare_quadratic_middle(
                left_mask, right_mask, enc_left_cols, enc_right_rows, phase
            )
        elif self.right_weights is not None:
            quad_client, quad_server, enc_weighted_right_rows = (
                self._prepare_quadratic_right(left_mask, enc_left_cols, enc_right_cols, phase)
            )
            if share_slots > 1:
                # Server-computed packing: tiled homomorphically (stays on
                # the server, so no extra wire traffic).
                enc_weighted_right_rows_tiled = tile_packed(
                    self.backend, enc_weighted_right_rows, share_slots
                )
        else:
            # Both masks are the client's own randomness, so the client
            # computes the mask product locally (the Enc(Rc^T x Rc) term).
            if self.transpose_right:
                quad_client = np.mod(left_mask @ right_mask.T, modulus)
            else:
                quad_client = np.mod(left_mask @ right_mask, modulus)
            quad_server = np.zeros_like(quad_client)

        return FHGSPlan(
            left_mask=left_mask,
            right_mask=right_mask,
            enc_left_cols=enc_left_cols,
            enc_right_rows=enc_right_rows,
            quad_client=quad_client,
            quad_server=quad_server,
            enc_weighted_right_rows=enc_weighted_right_rows,
            slot_sharing=share_slots,
            enc_left_cols_tiled=enc_left_cols_tiled,
            enc_right_rows_tiled=enc_right_rows_tiled,
            enc_weighted_right_rows_tiled=enc_weighted_right_rows_tiled,
        )

    def install(self, plan: FHGSPlan) -> None:
        """Adopt a prepared offline artifact; ``online()`` may run after this."""
        if not isinstance(plan, FHGSPlan):
            raise ProtocolError(
                f"FHGS '{self.step}' cannot install a {type(plan).__name__}"
            )
        if plan.operand_shapes != (self.left_shape, self.right_shape):
            raise ShapeError(
                f"plan operand shapes {plan.operand_shapes} do not match "
                f"module shapes {self.left_shape}/{self.right_shape}"
            )
        if self.right_weights is not None and plan.enc_weighted_right_rows is None:
            raise ProtocolError(
                f"FHGS '{self.step}' needs a right-weighted plan "
                "(enc_weighted_right_rows missing)"
            )
        self._plan = plan

    def offline(self, *, phase: Phase = Phase.OFFLINE, share_slots: int = 1) -> None:
        """Prepare and immediately install the offline artifact."""
        self.install(self.prepare(phase=phase, share_slots=share_slots))

    @property
    def plan(self) -> FHGSPlan:
        """The installed offline artifact."""
        if self._plan is None:
            raise ProtocolError("offline phase has not been run")
        return self._plan

    def _prepare_quadratic_middle(
        self,
        left_mask: np.ndarray,
        right_mask: np.ndarray,
        enc_left_cols: PackedMatrix,
        enc_right_rows: PackedMatrix,
        phase: Phase,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Offline sharing of ``RcL @ M @ RcR^T`` when M is server-held."""
        modulus = self.sharing.modulus
        n_left = self.left_shape[0]
        n_right = self.right_shape[0]
        dim = self.middle_weights.shape[1]

        # Server: Enc(RcL @ M) - S, sent to the client.
        enc_left_m = enc_times_plain(self.backend, enc_left_cols, self.middle_weights)
        blinding = self._rng.integers(0, modulus, size=(n_left, dim), dtype=np.int64)
        masked = [
            self.backend.add_plain(handle, np.mod(-blinding[:, j], modulus))
            for j, handle in enumerate(enc_left_m.handles)
        ]
        self.channel.send(
            "server", "client", len(masked) * self.backend.ciphertext_bytes,
            description="Enc(RcL @ M - S)", step=self.step, phase=phase,
        )
        decrypted = np.zeros((n_left, dim), dtype=np.int64)
        for j, values in enumerate(self.backend.decrypt_batch(masked)):
            decrypted[:, j] = values[:n_left]

        # Client part: (RcL @ M - S) @ RcR^T.
        client_part = np.mod(decrypted @ right_mask.T, modulus)

        # The leftover S @ RcR^T is linear in the encrypted mask, so the
        # server computes it homomorphically and the parties share it.
        enc_leftover = plain_times_enc(self.backend, blinding, enc_right_rows)
        leftover_mask = self._rng.integers(0, modulus, size=(n_left, n_right), dtype=np.int64)
        masked_leftover = [
            self.backend.add_plain(handle, np.mod(-leftover_mask[i, :], modulus))
            for i, handle in enumerate(enc_leftover.handles)
        ]
        self.channel.send(
            "server", "client", len(masked_leftover) * self.backend.ciphertext_bytes,
            description="Enc(S @ RcR^T - S2)", step=self.step, phase=phase,
        )
        leftover = np.zeros((n_left, n_right), dtype=np.int64)
        for i, values in enumerate(self.backend.decrypt_batch(masked_leftover)):
            leftover[i, :] = values[:n_right]

        return np.mod(client_part + leftover, modulus), leftover_mask

    def _prepare_quadratic_right(
        self,
        left_mask: np.ndarray,
        enc_left_cols: PackedMatrix,
        enc_right_cols: PackedMatrix,
        phase: Phase,
    ) -> tuple[np.ndarray, np.ndarray, PackedMatrix]:
        """Offline sharing of ``RcL @ (RcR @ W)`` when W is server-held.

        Also prepares the row-packed ``Enc(RcR @ W)`` needed by the online
        cross term, including the slot repacking rotations.
        """
        modulus = self.sharing.modulus
        n_left = self.left_shape[0]
        out_dim = self.right_weights.shape[1]
        inner = self.right_shape[0]

        # Server: Enc(RcR @ W), column-packed, then repacked row-wise for the
        # online plain x enc product (this is where the rotations go).
        enc_right_w_cols = enc_times_plain(self.backend, enc_right_cols, self.right_weights)
        enc_weighted_right_rows = repack_columns_to_rows(self.backend, enc_right_w_cols)

        # Server: Enc(RcR @ W) - S to the client.
        blinding = self._rng.integers(0, modulus, size=(inner, out_dim), dtype=np.int64)
        masked = [
            self.backend.add_plain(handle, np.mod(-blinding[:, j], modulus))
            for j, handle in enumerate(enc_right_w_cols.handles)
        ]
        self.channel.send(
            "server", "client", len(masked) * self.backend.ciphertext_bytes,
            description="Enc(RcR @ W - S)", step=self.step, phase=phase,
        )
        decrypted = np.zeros((inner, out_dim), dtype=np.int64)
        for j, values in enumerate(self.backend.decrypt_batch(masked)):
            decrypted[:, j] = values[:inner]

        client_part = np.mod(left_mask @ decrypted, modulus)

        # Leftover RcL @ S: server-plaintext times encrypted mask.
        enc_leftover = enc_times_plain(self.backend, enc_left_cols, blinding)
        leftover_mask = self._rng.integers(0, modulus, size=(n_left, out_dim), dtype=np.int64)
        masked_leftover = [
            self.backend.add_plain(handle, np.mod(-leftover_mask[:, j], modulus))
            for j, handle in enumerate(enc_leftover.handles)
        ]
        self.channel.send(
            "server", "client", len(masked_leftover) * self.backend.ciphertext_bytes,
            description="Enc(RcL @ S - S2)", step=self.step, phase=phase,
        )
        leftover = np.zeros((n_left, out_dim), dtype=np.int64)
        for j, values in enumerate(self.backend.decrypt_batch(masked_leftover)):
            leftover[:, j] = values[:n_left]

        return np.mod(client_part + leftover, modulus), leftover_mask, enc_weighted_right_rows

    @property
    def left_mask(self) -> np.ndarray:
        return self.plan.left_mask

    @property
    def right_mask(self) -> np.ndarray:
        return self.plan.right_mask

    # -- online phase ---------------------------------------------------------
    def online(self, shared_left: SharedValue, shared_right: SharedValue) -> SharedValue:
        """Compute shares of the product from shares of the two operands."""
        return self.online_batch([shared_left], [shared_right])[0]

    def online_batch(
        self,
        shared_lefts: list[SharedValue],
        shared_rights: list[SharedValue],
    ) -> list[SharedValue]:
        """Compute shares of ``k`` independent products in one online pass.

        On a slot-shared plan (``prepare(share_slots=k)``) the cross terms
        of up to ``slot_sharing`` requests pack block-diagonally into one
        set of shared ciphertexts; larger batches are chunked to that
        capacity, and a classic plan falls back to per-request execution.
        Results are bit-identical to ``k`` separate :meth:`online` calls.
        """
        if self._plan is None:
            raise ProtocolError(f"FHGS '{self.step}' used online before offline")
        if len(shared_lefts) != len(shared_rights) or not shared_lefts:
            raise ProtocolError(
                "online_batch needs equally many (and at least one) "
                "left/right operands"
            )
        capacity = max(1, self._plan.slot_sharing)
        results: list[SharedValue] = []
        for start in range(0, len(shared_lefts), capacity):
            lefts = shared_lefts[start: start + capacity]
            rights = shared_rights[start: start + capacity]
            if capacity == 1:
                results.extend(
                    self._online_single(left, right)
                    for left, right in zip(lefts, rights, strict=True)
                )
            else:
                results.extend(self._online_shared(lefts, rights))
        return results

    def _blind_operands(
        self, shared_left: SharedValue, shared_right: SharedValue
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-request blinded operands plus the correction bytes they cost."""
        plan = self._plan
        if shared_left.shape != self.left_shape or shared_right.shape != self.right_shape:
            raise ShapeError(
                f"operand shapes {shared_left.shape}/{shared_right.shape} do not "
                f"match offline shapes {self.left_shape}/{self.right_shape}"
            )
        modulus = self.sharing.modulus
        element_bytes = (self.fmt.total_bits + 7) // 8
        left_corr = np.mod(shared_left.client_share - plan.left_mask, modulus)
        right_corr = np.mod(shared_right.client_share - plan.right_mask, modulus)
        correction_bytes = 0
        if np.any(left_corr):
            correction_bytes += int(left_corr.size) * element_bytes
        if np.any(right_corr):
            correction_bytes += int(right_corr.size) * element_bytes
        left_blinded = np.mod(shared_left.server_share + left_corr, modulus)
        right_blinded = np.mod(shared_right.server_share + right_corr, modulus)
        return left_blinded, right_blinded, correction_bytes

    def _online_single(
        self, shared_left: SharedValue, shared_right: SharedValue
    ) -> SharedValue:
        """Classic per-request online phase (one request, untiled plan)."""
        # Client -> server: corrections so the server holds L - RcL and R - RcR.
        left_blinded, right_blinded, correction_bytes = self._blind_operands(
            shared_left, shared_right
        )
        if correction_bytes:
            self.channel.send(
                "client", "server", correction_bytes,
                description="blinded-operand corrections", step=self.step,
                phase=Phase.ONLINE,
            )
        if self.middle_weights is not None:
            return self._online_middle(left_blinded, right_blinded)
        if self.right_weights is not None:
            return self._online_right_weighted(left_blinded, right_blinded)
        return self._online_plain(left_blinded, right_blinded)

    # -- online variants ---------------------------------------------------------
    def _finish(
        self,
        tmp1: np.ndarray,
        cross_a: PackedMatrix,
        cross_b: PackedMatrix,
    ) -> SharedValue:
        """Mask the cross terms, ship them, and assemble the output sharing."""
        modulus = self.sharing.modulus
        out_rows, out_cols = tmp1.shape
        mask_a = self._rng.integers(0, modulus, size=(out_rows, out_cols), dtype=np.int64)
        mask_b = self._rng.integers(0, modulus, size=(out_rows, out_cols), dtype=np.int64)

        masked_a = [
            self.backend.add_plain(handle, np.mod(-mask_a[i, :], modulus))
            for i, handle in enumerate(cross_a.handles)
        ]
        masked_b = [
            self.backend.add_plain(handle, np.mod(-mask_b[:, j], modulus))
            for j, handle in enumerate(cross_b.handles)
        ]
        num_cts = len(masked_a) + len(masked_b)
        self.channel.send(
            "server", "client", num_cts * self.backend.ciphertext_bytes,
            description="Enc(cross terms - Rs)", step=self.step, phase=Phase.ONLINE,
        )

        dec_a = np.zeros((out_rows, out_cols), dtype=np.int64)
        for i, values in enumerate(self.backend.decrypt_batch(masked_a)):
            dec_a[i, :] = values[:out_cols]
        dec_b = np.zeros((out_rows, out_cols), dtype=np.int64)
        for j, values in enumerate(self.backend.decrypt_batch(masked_b)):
            dec_b[:, j] = values[:out_rows]

        plan = self.plan
        client_share = np.mod(dec_a + dec_b + plan.quad_client, modulus)
        server_share = np.mod(tmp1 + mask_a + mask_b + plan.quad_server, modulus)
        return SharedValue(client_share=client_share, server_share=server_share, modulus=modulus)

    def _online_plain(self, left_blinded: np.ndarray, right_blinded: np.ndarray) -> SharedValue:
        modulus = self.sharing.modulus
        right_blinded_t = right_blinded.T if self.transpose_right else right_blinded
        tmp1 = np.mod(left_blinded @ right_blinded_t, modulus)
        # cross_a = Lb @ RcR^T, cross_b = RcL @ Rb^T
        cross_a = plain_times_enc(self.backend, left_blinded, self.plan.enc_right_rows)
        cross_b = enc_times_plain(self.backend, self.plan.enc_left_cols, right_blinded_t)
        return self._finish(tmp1, cross_a, cross_b)

    def _online_middle(self, left_blinded: np.ndarray, right_blinded: np.ndarray) -> SharedValue:
        modulus = self.sharing.modulus
        weights = self.middle_weights
        left_m = np.mod(left_blinded @ weights, modulus)
        tmp1 = np.mod(left_m @ right_blinded.T, modulus)
        # cross_a = (Lb @ M) @ RcR^T, cross_b = RcL @ (M @ Rb^T)
        cross_a = plain_times_enc(self.backend, left_m, self.plan.enc_right_rows)
        cross_b = enc_times_plain(
            self.backend, self.plan.enc_left_cols, np.mod(weights @ right_blinded.T, modulus)
        )
        return self._finish(tmp1, cross_a, cross_b)

    def _online_right_weighted(
        self, left_blinded: np.ndarray, right_blinded: np.ndarray
    ) -> SharedValue:
        modulus = self.sharing.modulus
        weights = self.right_weights
        right_weighted = np.mod(right_blinded @ weights, modulus)
        tmp1 = np.mod(left_blinded @ right_weighted, modulus)
        # cross_a = Lb @ (RcR @ W), cross_b = RcL @ (Rb @ W)
        cross_a = plain_times_enc(self.backend, left_blinded, self.plan.enc_weighted_right_rows)
        cross_b = enc_times_plain(self.backend, self.plan.enc_left_cols, right_weighted)
        return self._finish(tmp1, cross_a, cross_b)

    # -- block-diagonal slot-shared online phase --------------------------------
    def _shared_sides(
        self, left_blinded: list[np.ndarray], right_blinded: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray], PackedMatrix, PackedMatrix]:
        """Per-request cross-term coefficient matrices plus the tiled packings.

        In every mode the online output decomposes as ``tmp1 + a_side @
        Enc(row-packed mask) + Enc(column-packed mask) @ b_side + quad``
        with ``tmp1 = left_blinded @ b_side``; only the coefficient
        matrices differ per mode.
        """
        plan = self._plan
        modulus = self.sharing.modulus
        if self.middle_weights is not None:
            weights = self.middle_weights
            a_sides = [np.mod(lb @ weights, modulus) for lb in left_blinded]
            b_sides = [np.mod(weights @ rb.T, modulus) for rb in right_blinded]
            rowpack = plan.enc_right_rows_tiled
        elif self.right_weights is not None:
            weights = self.right_weights
            a_sides = list(left_blinded)
            b_sides = [np.mod(rb @ weights, modulus) for rb in right_blinded]
            rowpack = plan.enc_weighted_right_rows_tiled
        else:
            a_sides = list(left_blinded)
            b_sides = [
                rb.T if self.transpose_right else rb for rb in right_blinded
            ]
            rowpack = plan.enc_right_rows_tiled
        colpack = plan.enc_left_cols_tiled
        if rowpack is None or colpack is None:
            raise ProtocolError(
                f"FHGS '{self.step}' plan has no tiled packings; prepare with "
                "share_slots > 1 for slot-shared batches"
            )
        return a_sides, b_sides, rowpack, colpack

    def _online_shared(
        self, shared_lefts: list[SharedValue], shared_rights: list[SharedValue]
    ) -> list[SharedValue]:
        """Online phase of up to ``slot_sharing`` requests with shared slots."""
        modulus = self.sharing.modulus
        blinded = [
            self._blind_operands(left, right)
            for left, right in zip(shared_lefts, shared_rights, strict=True)
        ]
        correction_bytes = sum(entry[2] for entry in blinded)
        if correction_bytes:
            self.channel.send(
                "client", "server", correction_bytes,
                description="blinded-operand corrections (slot-shared batch)",
                step=self.step, phase=Phase.ONLINE,
            )
        left_blinded = [entry[0] for entry in blinded]
        right_blinded = [entry[1] for entry in blinded]
        a_sides, b_sides, rowpack, colpack = self._shared_sides(
            left_blinded, right_blinded
        )
        tmp1s = [
            np.mod(lb @ b_side, modulus)
            for lb, b_side in zip(left_blinded, b_sides, strict=True)
        ]
        cross_a, cross_b = self._shared_cross_terms(a_sides, b_sides, rowpack, colpack)
        return self._finish_shared(len(blinded), tmp1s, cross_a, cross_b)

    def _shared_cross_terms(
        self,
        a_sides: list[np.ndarray],
        b_sides: list[np.ndarray],
        rowpack: PackedMatrix,
        colpack: PackedMatrix,
    ) -> tuple[list, list]:
        """Both cross terms of the whole chunk, block-diagonally packed.

        Cross-term A ciphertext ``i`` holds, at slot block ``r``, request
        ``r``'s output row ``i`` of ``a_side_r @ RcR``-side; cross-term B
        ciphertext ``j`` holds the output columns analogously.  One
        slot-wise plaintext product per (handle, row/column) covers every
        request -- the coefficient vector is block-constant, request ``r``'s
        coefficient repeated over block ``r``'s slots.
        """
        plan = self._plan
        capacity = plan.slot_sharing
        rows, cols = self.output_shape
        # The two cross terms contract over different packings (they differ
        # in the middle-weighted mode): A against the row-packed mask, B
        # against the column-packed one.
        inner_a = len(rowpack.handles)
        inner_b = len(colpack.handles)
        t = self.backend.plaintext_modulus
        a_pad = np.zeros((capacity, rows, inner_a), dtype=np.int64)
        a_pad[: len(a_sides)] = np.mod(np.stack(a_sides), t)
        b_pad = np.zeros((capacity, inner_b, cols), dtype=np.int64)
        b_pad[: len(b_sides)] = np.mod(np.stack(b_sides), t)
        # Block-constant coefficient vectors, built in one vectorized pass:
        # a_vecs[i, m] repeats request r's a[r, i, m] over block r (len cols).
        a_vecs = np.repeat(a_pad.transpose(1, 2, 0), cols, axis=2)
        b_vecs = np.repeat(b_pad.transpose(1, 2, 0), rows, axis=2)

        cross_a = []
        for i in range(rows):
            acc = None
            for m in range(inner_a):
                vec = a_vecs[i, m]
                if not vec.any():
                    continue
                term = self.backend.mul_plain(rowpack.handles[m], vec)
                acc = term if acc is None else self.backend.add(acc, term)
            cross_a.append(acc if acc is not None else self.backend.zero(capacity * cols))
        cross_b = []
        for j in range(cols):
            acc = None
            for m in range(inner_b):
                vec = b_vecs[m, j]
                if not vec.any():
                    continue
                term = self.backend.mul_plain(colpack.handles[m], vec)
                acc = term if acc is None else self.backend.add(acc, term)
            cross_b.append(acc if acc is not None else self.backend.zero(capacity * rows))
        return cross_a, cross_b

    def _finish_shared(
        self, k: int, tmp1s: list[np.ndarray], cross_a: list, cross_b: list
    ) -> list[SharedValue]:
        """Mask every slot block, ship one shared cross-term set, split."""
        plan = self._plan
        modulus = self.sharing.modulus
        capacity = plan.slot_sharing
        rows, cols = self.output_shape
        # Fresh Rs over *every* block (also the unoccupied ones) keeps the
        # client's view uniformly masked regardless of the batch size.
        mask_a = self._rng.integers(0, modulus, size=(rows, capacity * cols), dtype=np.int64)
        mask_b = self._rng.integers(0, modulus, size=(cols, capacity * rows), dtype=np.int64)
        masked_a = [
            self.backend.add_plain(handle, np.mod(-mask_a[i], modulus))
            for i, handle in enumerate(cross_a)
        ]
        masked_b = [
            self.backend.add_plain(handle, np.mod(-mask_b[j], modulus))
            for j, handle in enumerate(cross_b)
        ]
        num_cts = len(masked_a) + len(masked_b)
        self.channel.send(
            "server", "client", num_cts * self.backend.ciphertext_bytes,
            description="Enc(cross terms - Rs)", step=self.step, phase=Phase.ONLINE,
        )

        # Handles may carry trailing zero slots (full-width repacked rows);
        # only the first ``capacity`` blocks are meaningful.
        dec_a = np.zeros((rows, capacity * cols), dtype=np.int64)
        for i, values in enumerate(self.backend.decrypt_batch(masked_a)):
            usable = values[: capacity * cols]
            dec_a[i, : usable.size] = usable
        dec_b = np.zeros((cols, capacity * rows), dtype=np.int64)
        for j, values in enumerate(self.backend.decrypt_batch(masked_b)):
            usable = values[: capacity * rows]
            dec_b[j, : usable.size] = usable

        results = []
        for r in range(k):
            dec_a_r = dec_a[:, r * cols: (r + 1) * cols]
            dec_b_r = dec_b[:, r * rows: (r + 1) * rows].T
            mask_a_r = mask_a[:, r * cols: (r + 1) * cols]
            mask_b_r = mask_b[:, r * rows: (r + 1) * rows].T
            client_share = np.mod(dec_a_r + dec_b_r + plan.quad_client, modulus)
            server_share = np.mod(
                tmp1s[r] + mask_a_r + mask_b_r + plan.quad_server, modulus
            )
            results.append(
                SharedValue(
                    client_share=client_share, server_share=server_share,
                    modulus=modulus,
                )
            )
        return results
