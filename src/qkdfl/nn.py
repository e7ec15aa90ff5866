"""Minimal float64 conv-net building blocks with explicit backprop.

Layers are stateful: forward() caches what backward() needs, so each layer
instance belongs to exactly one position in one model.  Each cache dies at
its last use, so a training step holds only what its remaining backward
passes read, and one backward consumes one forward:
    Conv2D            its input, from forward until backward has formed dw
                      and db, before the dx convolution; a forward replaces
                      the input of a forward that had no backward, as in
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
That buffer is one strided copy out of one padded input with a zeroed
border.  Forward, the weight gradient and the input gradient each build it
for one chunk of samples at a time (at most _ROWS_BYTES, one sample at
least) in two per-thread buffers reused across chunks, layers and steps, so
no rows outlive a chunk.  A 1x1 kernel uses its input as its rows without
any copy, so no layer may write into an input it was given.  Softplus is
max(x, 0) + log1p(exp(-|x|)), evaluated in one output buffer; its
derivative is the logistic 1 / (1 + exp(-x)).  The batches are small, so
the per-step layers and Adam keep to few numpy calls and reuse their
buffers with `out=`, doing the same float operations in the same order.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import LayerStateError

SELU_ALPHA = 1.6732632423543772848170429916717
SELU_SCALE = 1.0507009873554804934193349852946

# A conv builds its rows at most this many bytes at a time (one sample at
# least): about half of the reference host's 2 MiB per-core L2, so a chunk's
# rows are still in cache when its kh matmuls read them, with room left for
# the kernel and the chunk's output.
_ROWS_BYTES = 1 << 20

# Each thread's padded-input and rows buffers for `_rowcols`.
_buffers = threading.local()
_NO_BUFFER = np.empty(0, np.uint8)


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


def _thread_buffer(name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An uninitialised `shape` array over this thread's buffer `name`.

    The buffer grows to the largest need and is reused after that, so the
    array is valid only until the next call for `name` on the same thread.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    if getattr(_buffers, name, _NO_BUFFER).size < nbytes:
        setattr(_buffers, name, None)  # free the old buffer before allocating the new one
        setattr(_buffers, name, np.empty(nbytes, np.uint8))
    return np.ndarray(shape, dtype, getattr(_buffers, name))


def _rowcols(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Same-padded rows of NHWC `x` with the kw column shifts side by side.

    Returns an (n, h + 2 * (kh // 2), w, kw * c) array whose last axis is
    ordered (kw, c), matching row i of a (kh, kw, c, cout) kernel reshaped
    to (kh, kw * c, cout); rows i .. i + h - 1 are that row's operand.
    The padded copy and the rows live in this thread's reused buffers, so
    the rows are valid until the next call on the same thread.  For a 1x1
    kernel the rows are `x` itself.
    """
    if kh == kw == 1:
        return x
    n, h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = _thread_buffer("padded", (n, h + 2 * ph, w + 2 * pw, c), x.dtype)
    # Only the border is zeroed: x overwrites the rest.
    xp[:, :ph] = 0
    xp[:, ph + h :] = 0
    xp[:, ph : ph + h, :pw] = 0
    xp[:, ph : ph + h, pw + w :] = 0
    xp[:, ph : ph + h, pw : pw + w] = x
    s0, s1, s2, s3 = xp.strides
    # shifts[..., j, k, :] is padded column j + k: the kw windows as one view.
    shifts = np.ndarray((n, h + 2 * ph, w, kw, c), xp.dtype, xp, 0, (s0, s1, s2, s2, s3))
    rows = _thread_buffer("rows", shifts.shape, x.dtype)
    np.copyto(rows, shifts)
    return rows.reshape(n, h + 2 * ph, w, kw * c)


def _chunks(x: np.ndarray, kh: int, kw: int):
    """(start, stop, rows) over successive sample chunks of NHWC `x`, each
    chunk's `_rowcols` rows at most _ROWS_BYTES and one sample at least.
    A chunk's rows are valid until the next chunk is drawn."""
    n, h, w, c = x.shape
    per_sample = (h + kh - 1) * w * kw * c * x.itemsize
    step = max(1, _ROWS_BYTES // max(per_sample, 1))
    for start in range(0, n, step):
        yield start, min(start + step, n), _rowcols(x[start : start + step], kh, kw)


def _row_slices(rows: np.ndarray, h: int):
    """The kh row-offset operands of `_rowcols` rows, each an (n, h * w, kw * c) view."""
    n, hp, w, k = rows.shape
    return [rows[:, i : i + h].reshape(n, h * w, k) for i in range(hp - h + 1)]


def _rowconv(rows: np.ndarray, wk: np.ndarray, h: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Same-padded convolution as kh accumulated matmuls, sum_i rows_i @ wk[i].

    `rows` comes from `_rowcols` and `wk` is the (kh, kw * c, cout) kernel;
    returns (n, h * w, cout), written into `out` when it is given.
    """
    ops = _row_slices(rows, h)
    out = np.matmul(ops[0], wk[0], out=out)
    tmp = np.empty_like(out)
    for op, wi in zip(ops[1:], wk[1:]):
        out += np.matmul(op, wi, out=tmp)
    return out


def _conv(x: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """Same-padded convolution of NHWC `x` with the (kh, kw * c, cout) kernel
    `wk`, its rows built a chunk of samples at a time; returns (n, h * w, cout)."""
    n, h, w, c = x.shape
    kh, kw = wk.shape[0], wk.shape[1] // c
    out = np.empty((n, h * w, wk.shape[2]), np.result_type(x, wk))
    for start, stop, rows in _chunks(x, kh, kw):
        _rowconv(rows, wk, h, out[start:stop])
    return out


def _weight_grad(x: np.ndarray, dy3: np.ndarray, dwk: np.ndarray) -> None:
    """dwk[i] = sum over the batch of rows_i^T @ dy3, each row offset's
    kernel-row gradient, written in place, with the rows of NHWC `x` built a
    chunk at a time.  Each sample's product is added in sample order, as one
    whole-batch sum(axis=0) adds them, so the chunking moves no byte."""
    kh, c = dwk.shape[0], x.shape[3]
    for start, stop, rows in _chunks(x, kh, dwk.shape[1] // c):
        for i, op in enumerate(_row_slices(rows, x.shape[1])):
            prod = np.matmul(op.transpose(0, 2, 1), dy3[start:stop])
            if start == 0:
                prod.sum(axis=0, out=dwk[i])
            else:
                for p in prod:
                    dwk[i] += p


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
        self._x = None
        self._xshape = None

    def init_params(self, rng: np.random.Generator) -> None:
        self.w[...] = truncated_normal_init(rng, self.w.shape, self.kh * self.kw * self.cin)
        self.b[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, cin = x.shape
        if cin != self.cin:
            raise ValueError(f"{self.name}: expected {self.cin} input channels, got {cin}")
        self._x = x
        self._xshape = x.shape
        out = _conv(x, self.w.reshape(self.kh, -1, self.cout))
        out += self.b
        return out.reshape(n, h, w, self.cout)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        if self._x is None:
            raise _no_forward(self.name)
        n, h, w, cin = self._xshape
        _weight_grad(self._x, dy.reshape(n, h * w, self.cout),
                     self.dw.reshape(self.kh, -1, self.cout))
        self._x = None  # its last use: dx reads only dy and w
        self.db[...] = dy.reshape(-1, self.cout).sum(axis=0)
        if not self.input_grad:
            return None
        # For a stride-1 same-padded odd kernel, dx is the same convolution of
        # dy with the kernel rotated 180 degrees and its channel axes swapped.
        w_t = self.w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(self.kh, -1, cin)
        return _conv(dy, w_t).reshape(n, h, w, cin)


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
