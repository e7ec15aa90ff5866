"""The two task models, sized for desk-scale runs but fully convolutional.

Both networks accept any spatial dims their structure allows (the
segmenter needs dims divisible by 8 for its three pooling stages), so the
full-scale input sizes run through the same code path as the desk-scale
defaults; only the filter widths are scaled down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DEPTH, RADAR_CLASS_NAMES
from .nn import (
    Activation,
    Conv2D,
    MaxPool2,
    UpsampleNearest2,
    mse_loss,
    softmax_cross_entropy,
)
from .params import ParamVec, zeros_like

TASK_CHANNEL = "channel"
TASK_RADAR = "radar"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture knobs for one task's model.

    Channel estimator: fixed, three same-padded convolutions, kernels
    9x9/5x5/5x5, widths 1 -> 12 -> 8 -> 1, activations selu/softplus/selu.
    Radar segmenter: encoder-decoder with skip connections, 3x3 relu convs,
    encoder filter ladder plus a bottleneck, 1x1 head to the class logits.
    """

    task: str
    encoder_filters: tuple[int, int, int] = (8, 16, 32)
    bottleneck_filters: int = 64
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
    WIDTHS = (DEPTH[TASK_CHANNEL], 12, 8, 1)

    def __init__(self, spec: ModelSpec):
        super().__init__([
            Conv2D(f"conv{i + 1}", k, k, self.WIDTHS[i], self.WIDTHS[i + 1], input_grad=i > 0)
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
    """Spectrogram -> per-pixel class logits via an encoder-decoder with skips.

    enc1..enc3 and bott climb the ladder 3 -> f1 -> f2 -> f3 -> fb, pooling
    before every stage but the first.  dec3..dec1 each read the stage below,
    upsampled, then the matching encoder output, and map back to its width,
    so a decoder's first cin - cout channels are the upsampled ones.  A 1x1
    head maps f1 to the class logits.
    """

    def __init__(self, spec: ModelSpec):
        widths = (DEPTH[TASK_RADAR], *spec.encoder_filters, spec.bottleneck_filters)
        super().__init__(
            [Conv2D(name, 3, 3, widths[k], widths[k + 1], input_grad=k > 0)
             for k, name in enumerate(("enc1", "enc2", "enc3", "bott"))]
            + [Conv2D(f"dec{k}", 3, 3, widths[k + 1] + widths[k], widths[k])
               for k in (3, 2, 1)]
            + [Conv2D("head", 1, 1, widths[1], len(RADAR_CLASS_NAMES))]
        )
        self.relus = [Activation("relu") for _ in self.convs[:-1]]
        self.pools = [MaxPool2() for _ in range(3)]
        self.ups = [UpsampleNearest2() for _ in range(3)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, rows, cols, _ = x.shape
        if rows % 8 or cols % 8:
            raise ValueError(f"segmenter input dims must be divisible by 8, got {rows}x{cols}")
        h, skips = x, []
        for k, (conv, relu) in enumerate(zip(self.convs[:4], self.relus[:4])):
            if k:
                skips.append(h)
                h = self.pools[k - 1].forward(h)
            h = relu.forward(conv.forward(h))
        for conv, relu, up in zip(self.convs[4:7], self.relus[4:], self.ups):
            h = np.concatenate([up.forward(h), skips.pop()], axis=-1)
            h = relu.forward(conv.forward(h))
        return self.convs[7].forward(h)

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, ParamVec]:
        logits = self.forward(x)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        d = self.convs[7].backward(dlogits)
        dskips = []
        for conv, relu, up in zip(self.convs[6:3:-1], self.relus[6:3:-1], self.ups[::-1]):
            d = conv.backward(relu.backward(d))
            split = conv.cin - conv.cout
            dskips.append(d[..., split:])
            d = up.backward(d[..., :split])
        for k in (3, 2, 1, 0):
            d = self.convs[k].backward(self.relus[k].backward(d))
            if k:
                d = self.pools[k - 1].backward(d) + dskips.pop()
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
