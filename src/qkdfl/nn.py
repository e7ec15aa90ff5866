"""Minimal float64 conv-net building blocks with explicit backprop.

Layers are stateful: forward() caches what backward() needs, so each layer
instance belongs to exactly one position in one model.  Each cache dies at
its last use, so a training step holds only what its remaining backward
passes read, and one backward consumes one forward:
    Conv2D            its rows (below), from forward until backward has formed
                      dw and db, before the dx convolution; a forward first
                      drops the rows of a forward that had no backward, as in
                      evaluation.  The input shape `_xshape` stays set.
    Activation        selu and softplus: the input; relu: only its x > 0
                      mask; from forward until backward.
    MaxPool2          the flat position of each window's maximum and the input
                      shape, from forward until backward.
    UpsampleNearest2  the input shape, from forward until backward.
A backward with nothing to consume raises LayerStateError.  Tensors are NHWC.
Convolutions are stride-1 with same padding (odd kernels only), which keeps
spatial dims equal between input and output at every scale.  A convolution
is kh accumulated matmuls over the row offsets of one width-only buffer
holding the kw column shifts side by side; no full im2col matrix is built.
That buffer is one strided copy out of one zero-filled padded input, and
a 1x1 kernel uses its input as its rows without any copy, so no layer may
write into an input it was given.  Softplus is max(x, 0) + log1p(exp(-|x|)),
evaluated in one output buffer; its derivative is the logistic
1 / (1 + exp(-x)).  The batches are small, so the per-step
layers and Adam keep to few numpy calls and reuse their buffers with
`out=`, doing the same float operations in the same order.
"""

from __future__ import annotations

import numpy as np

from .errors import LayerStateError

SELU_ALPHA = 1.6732632423543772848170429916717
SELU_SCALE = 1.0507009873554804934193349852946


def truncated_normal_init(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int
) -> np.ndarray:
    """Fan-in scaled truncated Gaussian (cut at two standard deviations).

    Rejection sampling on `rng`: standard normal draws, with every draw
    outside [-2, 2] redrawn in place until none is left, then scaled by
    sqrt(1 / fan_in).  Each pass redraws about 4.6% of the draws before it,
    in ascending position order, so the result is a function of the seed.
    """
    z = rng.standard_normal(int(np.prod(shape)))
    redraw = np.flatnonzero(np.abs(z) > 2.0)
    while redraw.size:
        z[redraw] = rng.standard_normal(redraw.size)
        redraw = redraw[np.abs(z[redraw]) > 2.0]
    z *= np.sqrt(1.0 / fan_in)
    return z.reshape(shape)


def _rowcols(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Same-padded rows of NHWC `x` with the kw column shifts side by side.

    Returns an (n, h + 2 * (kh // 2), w, kw * c) array whose last axis is
    ordered (kw, c), matching row i of a (kh, kw, c, cout) kernel reshaped
    to (kh, kw * c, cout); rows i .. i + h - 1 are that row's operand.
    For a 1x1 kernel that array is `x` itself.
    """
    if kh == kw == 1:
        return x
    n, h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), x.dtype)
    xp[:, ph : ph + h, pw : pw + w] = x
    s0, s1, s2, s3 = xp.strides
    # shifts[..., j, k, :] is padded column j + k: the kw windows as one view.
    shifts = np.ndarray((n, h + 2 * ph, w, kw, c), xp.dtype, xp, 0, (s0, s1, s2, s2, s3))
    rows = np.empty(shifts.shape, x.dtype)
    np.copyto(rows, shifts)
    return rows.reshape(n, h + 2 * ph, w, kw * c)


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


def _weight_grad(rows: np.ndarray, dy3: np.ndarray, dwk: np.ndarray, h: int) -> None:
    """dwk[i] = sum over the batch of rows_i^T @ dy3, each row offset's
    kernel-row gradient, written in place; no view of `rows` outlives it."""
    for i, op in enumerate(_row_slices(rows, h)):
        np.matmul(op.transpose(0, 2, 1), dy3).sum(axis=0, out=dwk[i])


def _no_forward(layer: str) -> LayerStateError:
    return LayerStateError(f"{layer}: backward without a forward of its own")


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
        self._rows = None  # free an unconsumed forward's rows before building these
        self._rows = _rowcols(x, self.kh, self.kw)
        self._xshape = x.shape
        out = _rowconv(self._rows, self.w.reshape(self.kh, -1, self.cout), h)
        out += self.b
        return out.reshape(n, h, w, self.cout)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        if self._rows is None:
            raise _no_forward(self.name)
        n, h, w, cin = self._xshape
        _weight_grad(self._rows, dy.reshape(n, h * w, self.cout),
                     self.dw.reshape(self.kh, -1, self.cout), h)
        self._rows = None  # their last use: dx reads only dy and w
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
        self._saved = None  # the input, or relu's x > 0 mask

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x > 0 if self.kind == "relu" else x
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
        x, self._saved = self._saved, None
        if x is None:
            raise _no_forward(f"{self.kind} activation")
        if self.kind == "selu":
            # dy * (scale * where(x > 0, 1, alpha * exp(min(x, 0)))), in two buffers.
            g = np.minimum(x, 0.0)
            np.exp(g, out=g)
            np.multiply(SELU_ALPHA, g, out=g)
            g = np.where(x > 0, 1.0, g)
            np.multiply(SELU_SCALE, g, out=g)
            return np.multiply(dy, g, out=g)
        if self.kind == "softplus":
            # dy * logistic(x), logistic(x) = 1 / (1 + e^-x).  Below x = -709.78
            # e^-x overflows to inf and the logistic to 0, as scipy's expit
            # gives; that overflow is expected, so it does not warn.
            with np.errstate(over="ignore"):
                g = np.negative(x)
                np.exp(g, out=g)
            g += 1.0
            np.reciprocal(g, out=g)
            return np.multiply(dy, g, out=g)
        return dy * x  # relu: x is the x > 0 mask


class MaxPool2:
    """2x2 max pooling, stride 2; ties route to the first window position."""

    def __init__(self):
        self._pos = None
        self._xshape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        windows = (
            x.reshape(n, h // 2, 2, w // 2, 2, c)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(-1, 4)
        )
        # Flat positions of each window's first maximum in `windows`.
        self._pos = windows.argmax(axis=-1)
        self._pos += np.arange(0, windows.size, 4)
        self._xshape = x.shape
        return windows.ravel().take(self._pos).reshape(n, h // 2, w // 2, c)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._pos is None:
            raise _no_forward("MaxPool2")
        n, h, w, c = self._xshape
        dxr = np.zeros(4 * dy.size)
        dxr[self._pos] = dy.ravel()
        self._pos = self._xshape = None
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
        n, h, w, c = x.shape
        self._xshape = x.shape
        out = np.empty((n, h, 2, w, 2, c), x.dtype)
        out[...] = x[:, :, None, :, None]
        return out.reshape(n, 2 * h, 2 * w, c)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._xshape is None:
            raise _no_forward("UpsampleNearest2")
        (n, h, w, c), self._xshape = self._xshape, None
        return dy.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient w.r.t. pred."""
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean per-pixel categorical cross-entropy and its gradient w.r.t. logits.

    `logits` has a trailing class axis; `labels` holds integer class ids
    with the same leading shape.  A label outside [0, classes) is a ValueError.
    """
    classes = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels must be class ids in [0, {classes})")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    z -= np.log(e.sum(axis=-1, keepdims=True))  # z is now log-softmax
    # Flat position of each pixel's label in its class row.
    at = np.arange(0, z.size, classes) + labels.ravel()
    loss = float(-z.ravel().take(at).mean())
    # (softmax - onehot(labels)) / labels.size, with no one-hot array.
    probs = np.exp(z, out=e).reshape(-1)
    probs[at] -= 1.0
    probs /= labels.size
    return loss, probs.reshape(z.shape)


class Adam:
    """Adaptive-moment optimizer with bias correction; steps one flat buffer in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        # Scratch for the step's two operands, reused on every step.
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        num, den = self._num, self._den
        self.m *= self.BETA1
        self.m += np.multiply(1.0 - self.BETA1, grads, out=num)
        self.v *= self.BETA2
        np.multiply(grads, grads, out=num)
        self.v += np.multiply(1.0 - self.BETA2, num, out=num)
        # params -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(self.m, c1, out=num)
        np.multiply(self.lr, num, out=num)
        np.divide(self.v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.EPS
        params -= np.divide(num, den, out=num)
