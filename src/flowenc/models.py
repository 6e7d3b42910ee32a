"""Decoder and encoder MLPs plus the reconstruction losses.

The decoder maps a latent vector through four (by default) linear layers of
gradually increasing width with ELU in between, ending in a sigmoid so
outputs are per-pixel probabilities.  The encoder mirrors the decoder with
the widths reversed and no squashing on the latent.  A one-layer decoder
with ``output_mode="identity"`` degenerates to D(z) = Az + b, which the
linear-flow test oracles rely on.
"""

from __future__ import annotations

import itertools
import json
from enum import Enum

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

CHECKPOINT_VERSION = 1

# Process-wide, so no two parameter sets ever share a version.
_VERSIONS = itertools.count()


class LossKind(Enum):
    CROSS_ENTROPY = "cross_entropy"
    L2 = "l2"


class MLPParams:
    """Ordered (weight, bias) pairs for a stack of linear layers.

    ``version`` is fresh on construction and on every ``replace_tensors``,
    so a flow trace can tell whether the parameters changed since it ran.
    """

    def __init__(self, weights: list[Tensor], biases: list[Tensor],
                 widths: list[int], output_mode: str = "sigmoid"):
        if len(weights) != len(biases) or len(weights) != len(widths) - 1:
            raise ValueError("layer count mismatch between weights, biases, widths")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (widths[i + 1], widths[i]) or b.shape != (widths[i + 1],):
                raise ValueError(
                    f"layer {i}: weight {w.shape} / bias {b.shape} do not match "
                    f"widths {widths[i]}->{widths[i + 1]}")
        if output_mode not in ("sigmoid", "identity"):
            raise ValueError(f"unknown output_mode {output_mode!r}")
        self.weights = weights
        self.biases = biases
        self.widths = list(widths)
        self.output_mode = output_mode
        self.version = next(_VERSIONS)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def tensors(self) -> list[Tensor]:
        """Flat parameter list, alternating weight, bias per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def count(self) -> int:
        return sum(t.size for t in self.tensors())

    def replace_tensors(self, new: list[Tensor]) -> None:
        """Swap in updated parameters (tensors stay immutable values)."""
        if len(new) != 2 * self.n_layers:
            raise ValueError("wrong number of parameter tensors")
        self.weights = [new[2 * i] for i in range(self.n_layers)]
        self.biases = [new[2 * i + 1] for i in range(self.n_layers)]
        self.version = next(_VERSIONS)

    def copy(self) -> "MLPParams":
        return type(self)(
            [Tensor(w.data.copy(), requires_grad=True) for w in self.weights],
            [Tensor(b.data.copy(), requires_grad=True) for b in self.biases],
            self.widths, self.output_mode)


class DecoderParams(MLPParams):
    """Decoder parameters; widths must be non-decreasing latent -> output."""

    def __init__(self, weights, biases, widths, output_mode="sigmoid"):
        for a, b in zip(widths, widths[1:]):
            if b < a:
                raise ValueError(f"decoder widths must not decrease, got {widths}")
        super().__init__(weights, biases, widths, output_mode)

    @property
    def latent_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]


class EncoderParams(MLPParams):
    """Encoder parameters; widths are the exact reverse of the decoder's."""

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def latent_dim(self) -> int:
        return self.widths[-1]

    def matches_decoder(self, decoder: DecoderParams) -> bool:
        return self.widths == list(reversed(decoder.widths))


DEFAULT_WIDTHS = [16, 64, 128, 256, 784]


def _init_layers(widths: list[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = np.sqrt(3.0 / fan_in)
        weights.append(Tensor(rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                              requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return weights, biases


def init_decoder(widths: list[int] | None = None,
                 rng: np.random.Generator | None = None,
                 output_mode: str = "sigmoid") -> DecoderParams:
    """Fan-in-scaled uniform init; rng must be seeded by the caller."""
    widths = list(widths) if widths is not None else list(DEFAULT_WIDTHS)
    rng = rng if rng is not None else np.random.default_rng(0)
    w, b = _init_layers(widths, rng)
    return DecoderParams(w, b, widths, output_mode)


def init_encoder(decoder: DecoderParams,
                 rng: np.random.Generator | None = None) -> EncoderParams:
    """Encoder mirroring ``decoder`` with reversed widths."""
    widths = list(reversed(decoder.widths))
    rng = rng if rng is not None else np.random.default_rng(0)
    w, b = _init_layers(widths, rng)
    return EncoderParams(w, b, widths, output_mode="identity")


def _forward(params: MLPParams, x: Tensor) -> Tensor:
    h = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = dc.affine(w, h, b)
        if i < last:
            h = dc.elu(h)
    return h


def decode_logits(z: Tensor, decoder: DecoderParams) -> Tensor:
    """Pre-squash decoder output; the numerically safe handle for CE."""
    if z.shape != (decoder.latent_dim,):
        raise dc.ShapeError(
            f"decode: latent {z.shape} vs expected ({decoder.latent_dim},)")
    return _forward(decoder, z)


def decode(z: Tensor, decoder: DecoderParams) -> Tensor:
    """Reconstruction from a latent; sigmoid-squashed unless identity mode."""
    logits = decode_logits(z, decoder)
    if decoder.output_mode == "sigmoid":
        return dc.sigmoid(logits)
    return logits


def encode(y: Tensor, encoder: EncoderParams) -> Tensor:
    """Latent from an input; no squashing on the output."""
    if y.shape != (encoder.input_dim,):
        raise dc.ShapeError(
            f"encode: input {y.shape} vs expected ({encoder.input_dim},)")
    return _forward(encoder, y)


_CLIP = 1e-12


def loss(y: Tensor, yhat: Tensor, kind: LossKind) -> Tensor:
    """Distance between a sample and its reconstruction.

    L2 is the squared norm sum((yhat - y)^2).  Cross-entropy is the mean
    per-pixel Bernoulli cross-entropy and requires targets in [0, 1];
    predictions are clipped away from {0, 1} before the logs.
    """
    y = dc._as_tensor(y)
    yhat = dc._as_tensor(yhat)
    if y.shape != yhat.shape:
        raise dc.ShapeError(f"loss: target {y.shape} vs prediction {yhat.shape}")
    if kind == LossKind.L2:
        d = dc.sub(yhat, y)
        return dc.dot(d, d)
    if np.any(y.data < 0.0) or np.any(y.data > 1.0):
        raise ValueError("cross-entropy targets must lie in [0, 1]")
    p = dc.select(yhat.data < _CLIP, dc.constant(np.full(yhat.shape, _CLIP)), yhat)
    p = dc.select(p.data > 1.0 - _CLIP,
                  dc.constant(np.full(yhat.shape, 1.0 - _CLIP)), p)
    yc = dc.constant(y.data)
    one_minus_y = dc.constant(1.0 - y.data)
    ll = dc.add(dc.mul(yc, dc.log(p)),
                dc.mul(one_minus_y, dc.log(dc.add_scalar(dc.neg(p), 1.0))))
    return dc.neg(dc.tmean(ll))


def reconstruction_target(y, decoder: DecoderParams,
                          kind: LossKind) -> np.ndarray:
    """y as a float64 array, checked once against ``decoder`` and ``kind``.

    A target with other than one value per decoder output raises
    ``ShapeError``.  Cross-entropy also needs a sigmoid-output decoder and
    targets in [0, 1], else ``ValueError``.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (decoder.output_dim,):
        raise dc.ShapeError(
            f"target {y.shape} vs decoder output ({decoder.output_dim},)")
    if kind == LossKind.CROSS_ENTROPY:
        if decoder.output_mode != "sigmoid":
            raise ValueError("cross-entropy needs a sigmoid-output decoder")
        if np.any(y < 0.0) or np.any(y > 1.0):
            raise ValueError("cross-entropy targets must lie in [0, 1]")
    return y


def _loss_forward(y: np.ndarray, z, decoder: DecoderParams, kind: LossKind):
    """The forward pass of reconstruction_loss(y, z) in the tape's op order.

    Returns the value, the input of every layer, the hidden pre-activations,
    the logits, and the output the L2 distance is taken of (None for
    cross-entropy).  Raises the tape's errors: ``ShapeError`` for a latent of
    the wrong shape, ``NonFiniteError`` for a non-finite latent, pre-activation
    or value.  Every pre-activation is checked because ELU maps -inf to -1.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    dc._check_finite(z, "tensor")
    if z.shape != (decoder.latent_dim,):
        raise dc.ShapeError(
            f"decode: latent {z.shape} vs expected ({decoder.latent_dim},)")
    last = decoder.n_layers - 1
    h, inputs, pre = z, [], []
    for i, (w, b) in enumerate(zip(decoder.weights, decoder.biases)):
        inputs.append(h)
        a = w.data @ h + b.data
        dc._check_finite(a, "affine")
        if i < last:
            pre.append(a)
            h = dc.elu_values(a)

    # ``a`` now holds the logits.
    if kind == LossKind.CROSS_ENTROPY:
        out = None
        value = dc.bce_values(a, y).mean()
    else:
        out = dc.sigmoid_values(a) if decoder.output_mode == "sigmoid" else a
        d = out - y
        value = np.dot(d, d)
    dc._check_finite(value, "loss")
    return value, inputs, pre, a, out


def _logit_grad(y: np.ndarray, a: np.ndarray, out) -> np.ndarray:
    """d value / d logits, from :func:`_loss_forward`'s logits and output
    (which is the logits array itself for an identity-output decoder)."""
    if out is None:
        return (dc.sigmoid_values(a) - y) * (1.0 / a.size)
    d = out - y
    g = d + d
    if out is not a:
        g = g * (out * (-out + 1.0))
    return g


def reconstruction_grads(y: np.ndarray, z, decoder: DecoderParams,
                         kind: LossKind, wrt_z: bool, wrt_theta: bool
                         ) -> tuple[float, list[np.ndarray]]:
    """reconstruction_loss(y, z) and its first-order gradients, in closed form.

    Returns the value and, from the same forward pass, the gradient w.r.t. z
    (if ``wrt_z``) followed by one gradient per tensor of
    ``decoder.tensors()`` (if ``wrt_theta``).  ``y`` comes from
    :func:`reconstruction_target`.  The numpy operations and their order are
    the tape's, so values and gradients equal diffcore's bit for bit, and so
    do the errors: those of :func:`_loss_forward`, and ``NonFiniteError`` for
    a non-finite gradient.
    """
    value, inputs, pre, a, out = _loss_forward(y, z, decoder, kind)
    if not (wrt_z or wrt_theta):
        return value.item(), []
    g = _logit_grad(y, a, out)
    last = decoder.n_layers - 1
    theta_grads = []
    for i in range(last, -1, -1):
        if wrt_theta:
            theta_grads += [g, np.outer(g, inputs[i])]
        if i == 0 and not wrt_z:
            break
        g = decoder.weights[i].data.T @ g
        if i > 0:
            g = g * dc.elu_slope(pre[i - 1])
    grads = ([g] if wrt_z else []) + theta_grads[::-1]
    for gr in grads:
        dc._check_finite(gr, "gradient")
    return value.item(), grads


class LinearizedLoss:
    """reconstruction_loss(y, .) at one latent z, to second order.

    Built from one forward and one backward pass (:func:`_loss_forward`, so
    with its errors), it keeps per layer i the input h_i, the ELU slope and
    curvature of the hidden pre-activations, and the cotangent g_i of the
    loss at the pre-activation (so d loss / d W_i = outer(g_i, h_i)).  The
    ELU curvature at the kink is the tape's, exp(0) = 1 (``_elu_prime``).

    :meth:`tangent` differentiates all of these in a latent direction v
    (Pearlmutter's R-operator, forward over reverse): h_i' and g_i', from
    which H v = W_0^T g_0' and the v-weighted mixed derivative
    d_theta <grad_z loss, v> = (outer(g_i', h_i) + outer(g_i, h_i'), g_i')
    per layer.
    """

    def __init__(self, y: np.ndarray, z, decoder: DecoderParams,
                 kind: LossKind):
        _, self.inputs, pre, a, out = _loss_forward(y, z, decoder, kind)
        self.weights = [w.data for w in decoder.weights]
        self.slopes = [dc.elu_slope(p) for p in pre]
        # d^2 value / d logits^2 is diagonal for all three losses.
        if out is None:
            s = dc.sigmoid_values(a)
            self.logit_curv = s * (1.0 - s) * (1.0 / a.size)
        elif out is a:
            self.logit_curv = 2.0
        else:
            ds = out * (1.0 - out)
            self.logit_curv = 2.0 * ds * (ds + (out - y) * (1.0 - 2.0 * out))
        g = _logit_grad(y, a, out)
        self.grads = [g]
        # (W_i^T g_i) * elu''(a_{i-1}): the curvature term of g_{i-1}'.
        self.curv_terms = []
        for i in range(len(self.weights) - 1, 0, -1):
            u = self.weights[i].T @ g
            p = pre[i - 1]
            self.curv_terms.append(
                u * np.where(p > 0, 0.0, np.exp(np.minimum(p, 0.0))))
            g = u * self.slopes[i - 1]
            self.grads.append(g)
        self.grads.reverse()
        self.curv_terms.reverse()
        for gr in self.grads:
            dc._check_finite(gr, "gradient")
        self._v = self._tangent = None

    def tangent(self, v: np.ndarray) -> tuple[list[np.ndarray],
                                              list[np.ndarray]]:
        """(h_i', g_i') for every layer i in latent direction v.  The last
        direction's result is kept, so asking twice costs one sweep."""
        if v is self._v:
            return self._tangent
        h_dots, a_dots = [v], []
        for w, slope in zip(self.weights, self.slopes):
            a_dot = w @ h_dots[-1]
            a_dots.append(a_dot)
            h_dots.append(slope * a_dot)
        g_dot = self.logit_curv * (self.weights[-1] @ h_dots[-1])
        g_dots = [g_dot]
        for i in range(len(self.weights) - 1, 0, -1):
            g_dot = ((self.weights[i].T @ g_dot) * self.slopes[i - 1]
                     + self.curv_terms[i - 1] * a_dots[i - 1])
            g_dots.append(g_dot)
        g_dots.reverse()
        self._v, self._tangent = v, (h_dots, g_dots)
        return self._tangent

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """The Hessian of the loss in z, applied to v."""
        hv = self.weights[0].T @ self.tangent(v)[1][0]
        dc._check_finite(hv, "hvp")
        return hv


def reconstruction_loss(y, z: Tensor, decoder: DecoderParams,
                        kind: LossKind) -> Tensor:
    """loss(y, D(z)) with cross-entropy fused in logit space.

    This is the objective every flow solver and training path minimizes;
    it differs from loss(y, decode(z)) only in numerical conditioning.
    """
    if kind == LossKind.CROSS_ENTROPY:
        if decoder.output_mode != "sigmoid":
            raise ValueError("cross-entropy needs a sigmoid-output decoder")
        return dc.bce_with_logits(decode_logits(z, decoder), y)
    return loss(y, decode(z, decoder), LossKind.L2)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, decoder: DecoderParams,
                    encoder: EncoderParams | None = None,
                    extra: dict | None = None) -> None:
    """Write parameters plus architecture metadata; round-trips bit-exact."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "decoder_widths": decoder.widths,
        "decoder_output_mode": decoder.output_mode,
        "has_encoder": encoder is not None,
        "extra": extra or {},
    }
    arrays = {}
    for i, (w, b) in enumerate(zip(decoder.weights, decoder.biases)):
        arrays[f"dec_w{i}"] = w.data
        arrays[f"dec_b{i}"] = b.data
    if encoder is not None:
        meta["encoder_widths"] = encoder.widths
        for i, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
            arrays[f"enc_w{i}"] = w.data
            arrays[f"enc_b{i}"] = b.data
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def _need(mapping, key, path):
    if key not in mapping:
        raise ValueError(f"checkpoint {path} has no {key!r}")
    return mapping[key]


def load_checkpoint(path):
    """Read a checkpoint; returns (decoder, encoder_or_None, extra_meta).

    A missing array or metadata key, or an array holding NaN or Inf, raises
    ``ValueError`` naming it.
    """
    with np.load(path) as z:
        meta = json.loads(bytes(_need(z, "meta", path)).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {meta.get('version')} unsupported "
                f"(expected {CHECKPOINT_VERSION})")

        def tensor(key):
            arr = _need(z, key, path)
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint {path}: {key!r} holds NaN or Inf")
            return Tensor(arr, requires_grad=True)

        def layers(prefix, widths, cls, output_mode):
            n = len(widths) - 1
            return cls([tensor(f"{prefix}_w{i}") for i in range(n)],
                       [tensor(f"{prefix}_b{i}") for i in range(n)],
                       widths, output_mode)

        dec = layers("dec", _need(meta, "decoder_widths", path), DecoderParams,
                     _need(meta, "decoder_output_mode", path))
        enc = None
        if _need(meta, "has_encoder", path):
            enc = layers("enc", _need(meta, "encoder_widths", path),
                         EncoderParams, "identity")
        return dec, enc, _need(meta, "extra", path)
