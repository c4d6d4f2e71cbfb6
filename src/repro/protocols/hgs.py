"""The HGS protocol: offline-preprocessed private linear layers (paper Fig. 4).

HGS ("HE + GC + SS") turns a ciphertext-plaintext matrix product
``X @ W`` into an offline HE exchange plus an online phase that only touches
unencrypted secret shares:

* **offline** -- the client samples a random mask ``Rc`` and sends
  ``Enc(Rc)``; the server multiplies it by its weights under encryption,
  masks the result with its own random ``Rs`` and returns
  ``Enc(Rc @ W + Rs)``; the client decrypts.  After this exchange the client
  holds ``Rc @ W + Rs`` and the server holds ``Rs`` -- additive shares of
  ``Rc @ W``.
* **online** -- the server obtains ``X - Rc`` (either directly, because the
  previous GC module produced exactly that as the server's share, or via a
  cheap correction message), computes ``(X - Rc) @ W - Rs`` locally, and the
  two parties now hold additive shares of ``X @ W`` without a single online
  HE operation.

The class below implements both phases against an
:class:`~repro.he.backend.HEBackend`.  For Primer-base the same object is
used with ``offline_phase=Phase.ONLINE`` so that all the HE work is charged
to the online phase, which is exactly how the paper characterises the
baseline hybrid protocol.

On an evaluation-resident backend the whole offline exchange stays in the
NTT domain: ``Enc(Rc)`` is encrypted straight into EVAL form, the
scalar-product accumulation and the ``+ Rs`` masking are pointwise, and the
client's decrypt pays a single inverse transform per ciphertext -- the
per-phase ``ntt_forward`` / ``ntt_inverse`` tracker counters attribute the
saving to this layer's step label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ProtocolError, ShapeError
from ..fixedpoint.encoding import FixedPointFormat
from ..he.backend import HEBackend
from ..he.matmul import enc_times_plain, encrypt_matrix_columns
from ..mpc.sharing import AdditiveSharing, SharedValue
from .channel import Channel, Phase
from .formats import PROTOCOL_FORMAT
from .plan import HGSPlan

__all__ = ["HGSLinearLayer"]


@dataclass
class HGSLinearLayer:
    """One private linear layer ``Y = X @ W + b`` under the HGS protocol.

    Parameters
    ----------
    weights:
        Plaintext weight residues (``in_dim x out_dim``), held by the server.
    bias:
        Plaintext bias residues (``out_dim``), already scaled to the output
        fractional precision (``2 * frac_bits`` because the product of two
        ``frac_bits`` operands has twice the fractional width).
    backend, sharing, channel:
        The HE backend, sharing helper, and message channel shared by the run.
    step:
        Label used for cost accounting (e.g. ``"embedding"``, ``"qkv"``).
    input_rows:
        Number of rows of ``X`` (the token count ``n``), needed to size
        ``Rc`` during the offline phase.
    """

    weights: np.ndarray
    bias: np.ndarray | None
    backend: HEBackend
    sharing: AdditiveSharing
    channel: Channel
    step: str
    input_rows: int
    fmt: FixedPointFormat = PROTOCOL_FORMAT
    seed: int | None = None

    # installed offline artifact (see protocols/plan.py)
    _plan: HGSPlan | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.weights.ndim != 2:
            raise ShapeError("HGS layer expects a 2-D weight matrix")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.int64)
            if self.bias.shape != (self.weights.shape[1],):
                raise ShapeError(
                    f"bias shape {self.bias.shape} does not match output dim "
                    f"{self.weights.shape[1]}"
                )
        self._rng = np.random.default_rng(self.seed)

    # -- offline phase ---------------------------------------------------------
    def prepare(self, *, phase: Phase = Phase.OFFLINE) -> HGSPlan:
        """Run the HE pre-processing exchange and return its artifact.

        ``phase`` controls which phase the HE work and traffic are charged
        to: ``Phase.OFFLINE`` for HGS proper (Primer-F and later), or
        ``Phase.ONLINE`` to model Primer-base, where the same HE operations
        happen during inference.

        The returned :class:`HGSPlan` is *not* adopted by this layer -- pass
        it to :meth:`install` (or call :meth:`offline`, which does both).
        This is what lets a serving executor prepare the offline phase on a
        background worker while the layer keeps serving its current plan.
        """
        in_dim, out_dim = self.weights.shape
        modulus = self.sharing.modulus

        # Client: sample Rc and send Enc(Rc) column-packed, seeded (it holds
        # the key, so its encryptions are secret-key ones).
        client_mask = self._rng.integers(0, modulus, size=(self.input_rows, in_dim), dtype=np.int64)
        encrypted_mask = encrypt_matrix_columns(self.backend, client_mask)
        self.channel.send(
            "client", "server",
            len(encrypted_mask.handles) * self.backend.seeded_ciphertext_bytes,
            description="Enc(Rc)", step=self.step, phase=phase,
        )

        # Server: Enc(Rc @ W) + Rs, returned to the client.
        server_mask = self._rng.integers(0, modulus, size=(self.input_rows, out_dim), dtype=np.int64)
        encrypted_product = enc_times_plain(self.backend, encrypted_mask, self.weights)
        masked_handles = [
            self.backend.add_plain(handle, server_mask[:, j])
            for j, handle in enumerate(encrypted_product.handles)
        ]
        self.channel.send(
            "server", "client",
            len(masked_handles) * self.backend.ciphertext_bytes,
            description="Enc(Rc @ W + Rs)", step=self.step, phase=phase,
        )

        # Client: decrypt to obtain its offline share Rc @ W + Rs.
        client_offline = np.zeros((self.input_rows, out_dim), dtype=np.int64)
        for j, values in enumerate(self.backend.decrypt_batch(masked_handles)):
            client_offline[:, j] = values[: self.input_rows]

        return HGSPlan(
            client_mask=client_mask,
            server_mask=server_mask,
            client_offline_share=np.mod(client_offline, modulus),
        )

    def install(self, plan: HGSPlan) -> None:
        """Adopt a prepared offline artifact; ``online()`` may run after this."""
        if not isinstance(plan, HGSPlan):
            raise ProtocolError(
                f"HGS layer '{self.step}' cannot install a {type(plan).__name__}"
            )
        expected = (self.input_rows, self.weights.shape[0])
        if tuple(plan.client_mask.shape) != expected:
            raise ShapeError(
                f"plan mask shape {plan.client_mask.shape} does not match "
                f"layer input shape {expected}"
            )
        self._plan = plan

    def offline(self, *, phase: Phase = Phase.OFFLINE) -> None:
        """Prepare and immediately install the offline artifact."""
        self.install(self.prepare(phase=phase))

    @property
    def plan(self) -> HGSPlan:
        """The installed offline artifact."""
        if self._plan is None:
            raise ProtocolError("offline phase has not been run")
        return self._plan

    @property
    def client_mask(self) -> np.ndarray:
        """The mask ``Rc`` this layer expects the input to be blinded with."""
        return self.plan.client_mask

    # -- online phase ---------------------------------------------------------
    def online(self, shared_input: SharedValue) -> SharedValue:
        """Compute shares of ``X @ W + b`` from shares of ``X``.

        If the client's input share already equals ``Rc`` (the previous GC
        module masked with exactly this layer's mask), no correction message
        is needed; otherwise the client sends the difference so the server
        can reconstruct ``X - Rc``.  Either way the online phase involves no
        HE operations.
        """
        return self.online_batch([shared_input])[0]

    def online_batch(self, shared_inputs: list[SharedValue]) -> list[SharedValue]:
        """Online phase for a whole batch of inputs against one plan.

        The corrections of every request coalesce into one message and the
        server-side products run as a single stacked matmul -- the online
        phase stays HE-free, it just amortises the Python and round overhead
        across the batch.  Results are identical to per-request
        :meth:`online` calls.
        """
        if self._plan is None:
            raise ProtocolError(
                f"HGS layer '{self.step}' used online before its offline phase"
            )
        if not shared_inputs:
            raise ProtocolError("online_batch needs at least one input")
        plan = self._plan
        for shared_input in shared_inputs:
            if shared_input.shape != plan.client_mask.shape:
                raise ShapeError(
                    f"input shape {shared_input.shape} does not match offline "
                    f"mask shape {plan.client_mask.shape}"
                )
        modulus = self.sharing.modulus

        client_shares = np.stack([s.client_share for s in shared_inputs])
        server_shares = np.stack([s.server_share for s in shared_inputs])
        corrections = np.mod(client_shares - plan.client_mask, modulus)
        correction_bytes = sum(
            int(corrections[r].size) for r in range(len(shared_inputs))
            if np.any(corrections[r])
        ) * ((self.fmt.total_bits + 7) // 8)
        if correction_bytes:
            # Client -> server: X_client - Rc, so the server can form X - Rc.
            self.channel.send(
                "client", "server", correction_bytes,
                description="share correction (X_c - Rc)", step=self.step,
                phase=Phase.ONLINE,
            )
        x_minus_rc = np.mod(server_shares + corrections, modulus)

        # Server-side shares: (X - Rc) @ W - Rs (+ bias, which the server
        # holds) -- one stacked matmul for the whole batch.
        batched_server = np.mod(x_minus_rc @ self.weights - plan.server_mask, modulus)
        if self.bias is not None:
            batched_server = np.mod(batched_server + self.bias, modulus)

        return [
            SharedValue(
                # Client-side share: Rc @ W + Rs, precomputed offline.
                client_share=plan.client_offline_share.copy(),
                server_share=batched_server[r],
                modulus=modulus,
            )
            for r in range(len(shared_inputs))
        ]
