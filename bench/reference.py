"""Closed-form numpy reference for the MLP objective, independent of flowenc.

The benchmark checks the program's outputs against these functions.  They
are written from the formulas, not from the program's autodiff engine, so
they share none of its code:

    h_0 = x,  a_i = W_i h_i + b_i,  h_{i+1} = elu(a_i)  (no ELU after the last)
    l(y, logits) = mean(max(x, 0) - x y + log1p(exp(-|x|)))

and the gradients follow from back-propagating dl/dlogits = (sigmoid - y)/n.
"""

from __future__ import annotations

import numpy as np


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def elu_prime(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def forward(weights, biases, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Pre-activations of every layer and the output (identity last layer)."""
    pre = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = w @ h + b
        pre.append(a)
        h = elu(a) if i < last else a
    return pre, h


def bce_with_logits(logits: np.ndarray, y: np.ndarray) -> float:
    per_pixel = np.maximum(logits, 0.0) - logits * y \
        + np.log1p(np.exp(-np.abs(logits)))
    return float(per_pixel.mean())


def loss(weights, biases, z: np.ndarray, y: np.ndarray) -> float:
    """Per-pixel cross-entropy of the decoder output at latent z."""
    return bce_with_logits(forward(weights, biases, z)[1], y)


def value_and_grads(weights, biases, z: np.ndarray, y: np.ndarray):
    """(loss, d loss/dz, [d loss/dW_i], [d loss/db_i]) at a fixed z."""
    pre, logits = forward(weights, biases, z)
    value = bce_with_logits(logits, y)
    delta = (sigmoid(logits) - y) / y.size
    n = len(weights)
    gw: list[np.ndarray] = [np.empty(0)] * n
    gb: list[np.ndarray] = [np.empty(0)] * n
    for i in range(n - 1, -1, -1):
        h_in = z if i == 0 else elu(pre[i - 1])
        gw[i] = np.outer(delta, h_in)
        gb[i] = delta
        delta = weights[i].T @ delta
        if i > 0:
            delta = delta * elu_prime(pre[i - 1])
    return value, delta, gw, gb


def autoencoder_loss(enc_weights, enc_biases, dec_weights, dec_biases,
                     y: np.ndarray) -> float:
    """Loss of the decoder at the encoder's latent for y."""
    z = forward(enc_weights, enc_biases, y)[1]
    return loss(dec_weights, dec_biases, z, y)


def rel_err(a, b) -> float:
    """max |a - b| relative to max |b| (absolute when b is all zero)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = float(np.max(np.abs(b)))
    diff = float(np.max(np.abs(a - b)))
    return diff / scale if scale else diff
