"""The two task models, sized for desk-scale runs but fully convolutional.

Both networks accept any spatial dims their structure allows (the
segmenter needs dims divisible by 8 for its three pooling stages), so the
full-scale input sizes run through the same code path as the desk-scale
defaults; only the filter widths are scaled down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (
    Activation,
    Adam,
    Conv2D,
    MaxPool2,
    UpsampleNearest2,
    mse_loss,
    softmax_cross_entropy,
)
from .params import ParamVec, zeros_like

TASK_CHANNEL = "channel"
TASK_RADAR = "radar"

NUM_RADAR_CLASSES = 4


@dataclass(frozen=True)
class ModelSpec:
    """Architecture knobs for one task's model.

    Channel estimator: three same-padded convolutions, kernels 9x9/5x5/5x5,
    widths 1 -> w1 -> w2 -> 1, activations selu/softplus/selu.
    Radar segmenter: encoder-decoder with skip connections, 3x3 relu convs,
    encoder filter ladder plus a bottleneck, 1x1 head to the class logits.
    """

    task: str
    channel_widths: tuple[int, int] = (12, 8)
    encoder_filters: tuple[int, int, int] = (8, 16, 32)
    bottleneck_filters: int = 64
    num_classes: int = NUM_RADAR_CLASSES
    init_seed: int = 0

    def __post_init__(self):
        if self.task not in (TASK_CHANNEL, TASK_RADAR):
            raise ValueError(f"unknown task {self.task!r}")


class _ConvNet:
    """Parameter plumbing shared by the task models: one parameter and one
    gradient buffer over `self.convs` in order, whose views are each conv's
    w, b (conv1.w, conv1.b, conv2.w, ...) and dw, db."""

    def __init__(self, convs: list[Conv2D]):
        self.convs = convs
        self.params = ParamVec(
            [(f"{c.name}.{p}", a) for c in convs for p, a in (("w", c.w), ("b", c.b))]
        )
        # Re-point each buffer's views as soon as it exists, so the convs'
        # own arrays are freed before the next buffer is allocated.
        for k, conv in enumerate(convs):
            (_, conv.w), (_, conv.b) = self.params.entries[2 * k : 2 * k + 2]
        self.grads = zeros_like(self.params)
        for k, conv in enumerate(convs):
            (_, conv.dw), (_, conv.db) = self.grads.entries[2 * k : 2 * k + 2]


class ChannelNet(_ConvNet):
    """Pilot spectrogram -> channel magnitude map, same spatial shape."""

    KERNELS = (9, 5, 5)

    def __init__(self, spec: ModelSpec):
        w1, w2 = spec.channel_widths
        widths = (1, w1, w2, 1)
        super().__init__([
            Conv2D(f"conv{i + 1}", k, k, widths[i], widths[i + 1], input_grad=i > 0)
            for i, k in enumerate(self.KERNELS)
        ])
        self.acts = [Activation("selu"), Activation("softplus"), Activation("selu")]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for conv, act in zip(self.convs, self.acts):
            h = act.forward(conv.forward(h))
        return h

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, ParamVec]:
        pred = self.forward(x)
        loss, d = mse_loss(pred, y)
        for conv, act in zip(reversed(self.convs), reversed(self.acts)):
            d = conv.backward(act.backward(d))
        return loss, self.grads


class SegNet(_ConvNet):
    """Spectrogram -> per-pixel class logits via an encoder-decoder with skips."""

    def __init__(self, spec: ModelSpec):
        f1, f2, f3 = spec.encoder_filters
        fb = spec.bottleneck_filters
        self.enc1 = Conv2D("enc1", 3, 3, 3, f1, input_grad=False)
        self.enc2 = Conv2D("enc2", 3, 3, f1, f2)
        self.enc3 = Conv2D("enc3", 3, 3, f2, f3)
        self.bott = Conv2D("bott", 3, 3, f3, fb)
        self.dec3 = Conv2D("dec3", 3, 3, fb + f3, f3)
        self.dec2 = Conv2D("dec2", 3, 3, f3 + f2, f2)
        self.dec1 = Conv2D("dec1", 3, 3, f2 + f1, f1)
        self.head = Conv2D("head", 1, 1, f1, spec.num_classes)
        super().__init__([
            self.enc1, self.enc2, self.enc3, self.bott,
            self.dec3, self.dec2, self.dec1, self.head,
        ])
        self.relus = {c.name: Activation("relu") for c in self.convs[:-1]}
        self.pools = [MaxPool2() for _ in range(3)]
        self.ups = [UpsampleNearest2() for _ in range(3)]
        self._split = (fb, f3, f2)  # upsampled channel counts at each concat

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        if h % 8 or w % 8:
            raise ValueError(f"segmenter input dims must be divisible by 8, got {h}x{w}")
        e1 = self.relus["enc1"].forward(self.enc1.forward(x))
        e2 = self.relus["enc2"].forward(self.enc2.forward(self.pools[0].forward(e1)))
        e3 = self.relus["enc3"].forward(self.enc3.forward(self.pools[1].forward(e2)))
        b = self.relus["bott"].forward(self.bott.forward(self.pools[2].forward(e3)))
        d3 = self.relus["dec3"].forward(
            self.dec3.forward(np.concatenate([self.ups[0].forward(b), e3], axis=-1))
        )
        d2 = self.relus["dec2"].forward(
            self.dec2.forward(np.concatenate([self.ups[1].forward(d3), e2], axis=-1))
        )
        d1 = self.relus["dec1"].forward(
            self.dec1.forward(np.concatenate([self.ups[2].forward(d2), e1], axis=-1))
        )
        return self.head.forward(d1)

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, ParamVec]:
        logits = self.forward(x)
        loss, dlogits = softmax_cross_entropy(logits, labels)

        dd1 = self.dec1.backward(self.relus["dec1"].backward(self.head.backward(dlogits)))
        dup, dskip1 = dd1[..., : self._split[2]], dd1[..., self._split[2] :]
        dd2 = self.dec2.backward(self.relus["dec2"].backward(self.ups[2].backward(dup)))
        dup, dskip2 = dd2[..., : self._split[1]], dd2[..., self._split[1] :]
        dd3 = self.dec3.backward(self.relus["dec3"].backward(self.ups[1].backward(dup)))
        dup, dskip3 = dd3[..., : self._split[0]], dd3[..., self._split[0] :]

        db = self.bott.backward(self.relus["bott"].backward(self.ups[0].backward(dup)))
        de3 = self.pools[2].backward(db) + dskip3
        dp2 = self.enc3.backward(self.relus["enc3"].backward(de3))
        de2 = self.pools[1].backward(dp2) + dskip2
        dp1 = self.enc2.backward(self.relus["enc2"].backward(de2))
        de1 = self.pools[0].backward(dp1) + dskip1
        self.enc1.backward(self.relus["enc1"].backward(de1))
        return loss, self.grads


def build_model(spec: ModelSpec):
    if spec.task == TASK_CHANNEL:
        return ChannelNet(spec)
    return SegNet(spec)


def init_params(spec: ModelSpec) -> ParamVec:
    """Fresh seeded parameters for the given architecture, as a ParamVec."""
    net = build_model(spec)
    rng = np.random.default_rng(spec.init_seed)
    for conv in net.convs:
        conv.init_params(rng)
    return get_params(net)


def get_params(net) -> ParamVec:
    return net.params.copy()


def set_params(net, pv: ParamVec) -> None:
    if not pv.same_structure(net.params):
        raise ValueError("parameter vector does not match the model structure")
    net.params.buf[...] = pv.buf


def new_optimizer(net, lr: float) -> Adam:
    return Adam(net.params.buf, lr)
