"""Minimal float64 conv-net building blocks with explicit backprop.

Layers are stateful: forward() caches what backward() needs, so each layer
instance belongs to exactly one position in one model.  Tensors are NHWC.
Convolutions are stride-1 with same padding (odd kernels only), which keeps
spatial dims equal between input and output at every scale.  A convolution
is kh accumulated matmuls over the row offsets of one width-only buffer
holding the kw column shifts side by side; no full im2col matrix is built.
Softplus is max(x, 0) + log1p(exp(-|x|)), evaluated in one output buffer.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit
from scipy.stats import truncnorm

SELU_ALPHA = 1.6732632423543772848170429916717
SELU_SCALE = 1.0507009873554804934193349852946


def truncated_normal_init(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int
) -> np.ndarray:
    """Fan-in scaled truncated Gaussian (cut at two standard deviations)."""
    stddev = np.sqrt(1.0 / fan_in)
    draws = truncnorm.rvs(-2.0, 2.0, loc=0.0, scale=stddev, size=int(np.prod(shape)),
                          random_state=rng)
    return np.asarray(draws, dtype=np.float64).reshape(shape)


def _rowcols(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Same-padded rows of NHWC `x` with the kw column shifts side by side.

    Returns an (n, h + 2 * (kh // 2), w, kw * c) array whose last axis is
    ordered (kw, c), matching row i of a (kh, kw, c, cout) kernel reshaped
    to (kh, kw * c, cout); rows i .. i + h - 1 are that row's operand.
    """
    n, h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    shifts = sliding_window_view(xp, kw, axis=2).transpose(0, 1, 2, 4, 3)
    return np.ascontiguousarray(shifts).reshape(n, h + 2 * ph, w, kw * c)


def _row_slices(rows: np.ndarray, h: int):
    """The kh row-offset operands of `_rowcols` rows, each an (n, h * w, kw * c) view."""
    n, hp, w, k = rows.shape
    return [rows[:, i : i + h].reshape(n, h * w, k) for i in range(hp - h + 1)]


def _rowconv(rows: np.ndarray, wk: np.ndarray, h: int) -> np.ndarray:
    """Same-padded convolution as kh accumulated matmuls, sum_i rows_i @ wk[i].

    `rows` comes from `_rowcols` and `wk` is the (kh, kw * c, cout) kernel;
    returns (n, h * w, cout).
    """
    ops = _row_slices(rows, h)
    out = ops[0] @ wk[0]
    tmp = np.empty_like(out)
    for op, wi in zip(ops[1:], wk[1:]):
        out += np.matmul(op, wi, out=tmp)
    return out


class Conv2D:
    """Same-padded stride-1 convolution via the row-offset kernel, which
    serves the forward pass, the weight gradient and the input gradient.

    init_params() and backward() write w/b and dw/db in place, so they may
    be views into a model's buffers.  With `input_grad=False` (a model's
    input layer, whose data gradient nobody uses) backward() returns None.
    """

    def __init__(self, name: str, kh: int, kw: int, cin: int, cout: int,
                 input_grad: bool = True):
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("same padding requires odd kernel sizes")
        self.name = name
        self.kh, self.kw, self.cin, self.cout = kh, kw, cin, cout
        self.input_grad = input_grad
        self.w = np.zeros((kh, kw, cin, cout))
        self.b = np.zeros(cout)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._rows = None
        self._xshape = None

    def init_params(self, rng: np.random.Generator) -> None:
        self.w[...] = truncated_normal_init(rng, self.w.shape, self.kh * self.kw * self.cin)
        self.b[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, cin = x.shape
        if cin != self.cin:
            raise ValueError(f"{self.name}: expected {self.cin} input channels, got {cin}")
        self._rows = _rowcols(x, self.kh, self.kw)
        self._xshape = x.shape
        out = _rowconv(self._rows, self.w.reshape(self.kh, -1, self.cout), h)
        out += self.b
        return out.reshape(n, h, w, self.cout)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        n, h, w, cin = self._xshape
        dy3 = dy.reshape(n, h * w, self.cout)
        dwk = self.dw.reshape(self.kh, -1, self.cout)
        for i, op in enumerate(_row_slices(self._rows, h)):
            np.matmul(op.transpose(0, 2, 1), dy3).sum(axis=0, out=dwk[i])
        self.db[...] = dy.reshape(-1, self.cout).sum(axis=0)
        if not self.input_grad:
            return None
        # For a stride-1 same-padded odd kernel, dx is the same convolution of
        # dy with the kernel rotated 180 degrees and its channel axes swapped.
        w_t = self.w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(self.kh, -1, cin)
        return _rowconv(_rowcols(dy, self.kh, self.kw), w_t, h).reshape(n, h, w, cin)


class Activation:
    """Elementwise nonlinearity: selu, softplus or relu."""

    KINDS = ("selu", "softplus", "relu")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown activation {kind!r}")
        self.kind = kind
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        if self.kind == "selu":
            # scale * (alpha * expm1(min(x, 0)) + max(x, 0)), in one buffer.
            out = np.minimum(x, 0.0)
            np.expm1(out, out=out)
            out *= SELU_ALPHA
            out += np.maximum(x, 0.0)
            out *= SELU_SCALE
            return out
        if self.kind == "softplus":
            # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), in one buffer.
            out = np.abs(x)
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.log1p(out, out=out)
            out += np.maximum(x, 0.0)
            return out
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        if self.kind == "selu":
            grad = SELU_SCALE * np.where(
                x > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(x, 0.0))
            )
            return dy * grad
        if self.kind == "softplus":
            return dy * expit(x)
        return dy * (x > 0)


class MaxPool2:
    """2x2 max pooling, stride 2; ties route to the first window position."""

    def __init__(self):
        self._idx = None
        self._xshape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        xr = (
            x.reshape(n, h // 2, 2, w // 2, 2, c)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, h // 2, w // 2, c, 4)
        )
        self._idx = xr.argmax(axis=-1)
        self._xshape = x.shape
        return np.take_along_axis(xr, self._idx[..., None], axis=-1)[..., 0]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n, h, w, c = self._xshape
        dxr = np.zeros((n, h // 2, w // 2, c, 4))
        np.put_along_axis(dxr, self._idx[..., None], dy[..., None], axis=-1)
        return (
            dxr.reshape(n, h // 2, w // 2, c, 2, 2)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, h, w, c)
        )


class UpsampleNearest2:
    """Nearest-neighbour 2x upsampling."""

    def __init__(self):
        self._xshape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._xshape = x.shape
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n, h, w, c = self._xshape
        return dy.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient w.r.t. pred."""
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean per-pixel categorical cross-entropy and its gradient w.r.t. logits.

    `logits` has a trailing class axis; `labels` holds integer class ids
    with the same leading shape.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    picked = np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
    loss = float(-picked.mean())
    probs = np.exp(logp)
    onehot = np.zeros_like(probs)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    return loss, (probs - onehot) / labels.size


class Adam:
    """Adaptive-moment optimizer with bias correction; steps one flat buffer in place."""

    def __init__(
        self,
        params: np.ndarray,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (grads * grads)
        params -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)
