"""Functional operations: convolutions, losses, activations.

Convolutions are implemented with ``numpy.lib.stride_tricks.sliding_window_view``
plus ``einsum`` for the forward pass and hand-derived adjoints for the
backward pass; all are verified against numerical gradients by the test
suite.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor, concatenate, maximum, where

__all__ = [
    "conv1d",
    "conv_transpose1d",
    "avg_pool1d",
    "max_pool1d",
    "linear",
    "relu",
    "gelu",
    "leaky_relu",
    "softplus",
    "softmax",
    "dropout",
    "layer_norm",
    "mse_loss",
    "kl_diag_gaussian",
]


def _strided_windows(data: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Return sliding windows over the last axis: (..., L_out, kernel)."""
    windows = sliding_window_view(data, kernel, axis=-1)
    if stride > 1:
        windows = windows[..., ::stride, :]
    return windows


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, L)``.
    weight:
        Kernel of shape ``(C_out, C_in, K)``.
    bias:
        Optional ``(C_out,)`` bias.
    stride, padding:
        Usual convolution hyperparameters (symmetric zero padding).
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("conv1d expects x:(N,C,L) and weight:(O,C,K)")
    kernel = weight.shape[-1]
    padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    length = padded.shape[-1]
    if length < kernel:
        raise ValueError(f"input length {length} smaller than kernel {kernel}")
    windows = _strided_windows(padded, kernel, stride)  # (N, C, L_out, K)
    out = np.einsum("nclk,ock->nol", windows, weight.data, optimize=True)
    if bias is not None:
        out = out + bias.data[None, :, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if weight.requires_grad:
            weight._accumulate(np.einsum("nol,nclk->ock", grad, windows, optimize=True))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_windows = np.einsum("nol,ock->nclk", grad, weight.data, optimize=True)
            grad_padded = np.zeros_like(padded)
            positions = np.arange(grad.shape[-1]) * stride
            for k in range(kernel):
                grad_padded[..., positions + k] += grad_windows[..., k]
            if padding:
                grad_padded = grad_padded[..., padding:length - padding]
            x._accumulate(grad_padded)

    return Tensor._from_op(out, parents, backward, "conv1d",
                           attrs={"stride": int(stride),
                                  "padding": int(padding),
                                  "kernel": int(kernel),
                                  "in_channels": int(x.shape[1])})


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """1-D transposed convolution (gradient of conv1d w.r.t. its input).

    ``x`` has shape ``(N, C_in, L)``, ``weight`` has shape
    ``(C_in, C_out, K)`` (PyTorch layout), output length is
    ``(L - 1) * stride + K - 2 * padding``.
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("conv_transpose1d expects x:(N,C,L) and weight:(C,O,K)")
    n, c_in, length = x.shape
    _, c_out, kernel = weight.shape
    full_length = (length - 1) * stride + kernel
    out_full = np.zeros((n, c_out, full_length))
    contrib = np.einsum("ncl,cok->nokl", x.data, weight.data, optimize=True)
    positions = np.arange(length) * stride
    for k in range(kernel):
        out_full[..., positions + k] += contrib[..., k, :]
    out = out_full[..., padding:full_length - padding] if padding else out_full
    if bias is not None:
        out = out + bias.data[None, :, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_full = (
            np.pad(grad, ((0, 0), (0, 0), (padding, padding))) if padding else grad
        )
        grad_windows = _strided_windows(grad_full, kernel, stride)  # (N, O, L, K)
        if x.requires_grad:
            x._accumulate(
                np.einsum("nolk,cok->ncl", grad_windows, weight.data, optimize=True)
            )
        if weight.requires_grad:
            weight._accumulate(
                np.einsum("nolk,ncl->cok", grad_windows, x.data, optimize=True)
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))

    return Tensor._from_op(out, parents, backward, "conv_transpose1d",
                           attrs={"stride": int(stride),
                                  "padding": int(padding),
                                  "kernel": int(kernel),
                                  "in_channels": int(c_in)})


def avg_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over the last axis of ``(N, C, L)``."""
    stride = kernel if stride is None else stride
    windows = _strided_windows(x.data, kernel, stride)
    out = windows.mean(axis=-1)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        positions = np.arange(out.shape[-1]) * stride
        share = grad / kernel
        for k in range(kernel):
            grad_x[..., positions + k] += share
        x._accumulate(grad_x)

    return Tensor._from_op(out, (x,), backward, "avg_pool1d",
                           attrs={"kernel": int(kernel), "stride": int(stride)})


def max_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over the last axis of ``(N, C, L)``."""
    stride = kernel if stride is None else stride
    windows = _strided_windows(x.data, kernel, stride)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        positions = np.arange(out.shape[-1]) * stride  # window starts
        flat_positions = positions[None, None, :] + arg
        np.add.at(
            grad_x.reshape(-1, grad_x.shape[-1]),
            (
                np.repeat(np.arange(grad_x[..., 0].size), out.shape[-1]),
                flat_positions.reshape(-1),
            ),
            grad.reshape(-1),
        )
        x._accumulate(grad_x)

    return Tensor._from_op(out, (x,), backward, "max_pool1d",
                           attrs={"kernel": int(kernel), "stride": int(stride)})


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight ``(out, in)``."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return where(x.data > 0, x, x * negative_slope)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of GELU (as used by most transformer codebases)."""
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * 0.5 * (inner.tanh() + 1.0)


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """Numerically stable softplus ``log(1 + exp(beta x)) / beta``."""
    return _softplus_stable(x * beta) * (1.0 / beta)


def _softplus_stable(x: Tensor) -> Tensor:
    # softplus(x) = max(x, 0) + log1p(exp(-|x|))
    positive = maximum(x, 0.0)
    return positive + ((x.abs() * -1.0).exp() + 1.0).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax with a detached max-shift for numerical stability.

    The analyzer cannot see that the detached shift equals the running max,
    which guarantees ``x - shift <= 0`` and a denominator ``>= 1``; the
    range assertions below state those facts (DESIGN.md section 9).
    """
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    exps = (x - shift).exp()  # analyzer: ok range=[0,1]
    return exps / exps.sum(axis=axis, keepdims=True)  # analyzer: ok range=[0,1]


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def layer_norm(x: Tensor, weight: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (variance + eps).sqrt()
    if weight is not None:
        normed = normed * weight
    if bias is not None:
        normed = normed + bias
    return normed


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(input: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = input - target
    return _reduce(diff * diff, reduction)


def kl_diag_gaussian(mean: Tensor, log_var: Tensor, reduction: str = "mean") -> Tensor:
    """KL( N(mean, exp(log_var)) || N(0, I) ) per element."""
    kl = 0.5 * (mean * mean + log_var.exp() - log_var - 1.0)
    return _reduce(kl, reduction)
