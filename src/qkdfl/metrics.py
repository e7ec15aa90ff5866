"""Task metrics and model evaluation.

NMSE normalizes the mean squared prediction error by the mean target
energy (plus a fixed epsilon guard).  Segmentation quality is pixel
accuracy plus mean IoU; a class absent from both the prediction and the
ground truth contributes an undefined 0/0 IoU and is excluded from the
mean, which keeps the metric in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .datasets import RADAR_CLASS_NAMES, stack_batch
from .models import ModelSpec, build_model, set_params
from .params import ParamVec

NMSE_EPS = 1e-12

# Samples per evaluation forward pass.  Every layer computes each sample on
# its own, so the chunk size changes no prediction byte; a small chunk keeps
# the activations, and so the peak memory, small.
_EVAL_CHUNK = 4


def nmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Normalized MSE over a stack of samples (leading axis indexes samples)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("prediction and target shapes differ")
    if pred.shape[0] == 0:
        raise ValueError("empty dataset")
    per_sample = tuple(range(1, pred.ndim))
    err = ((pred - target) ** 2).sum(axis=per_sample).mean()
    energy = (target**2).sum(axis=per_sample).mean()
    return float(err / (energy + NMSE_EPS))


def _label_maps(pred_labels, true_labels) -> tuple[np.ndarray, np.ndarray]:
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    if pred_labels.shape != true_labels.shape:
        raise ValueError("label map shapes differ")
    if pred_labels.size == 0:
        raise ValueError("empty dataset")
    return pred_labels, true_labels


def pixel_accuracy(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    return _pixel_accuracy(*_label_maps(pred_labels, true_labels))


def mean_iou(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Mean IoU over classes present in prediction or ground truth."""
    return _mean_iou(*_label_maps(pred_labels, true_labels))


# The two scores on label maps that _label_maps has checked.
def _pixel_accuracy(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    return float(np.count_nonzero(pred_labels == true_labels)) / pred_labels.size


def _mean_iou(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    ious = []
    for c in range(len(RADAR_CLASS_NAMES)):
        in_pred = pred_labels == c
        in_true = true_labels == c
        union = np.count_nonzero(in_pred | in_true)
        if union == 0:
            continue  # class absent from both sides: 0/0, excluded
        inter = np.count_nonzero(in_pred & in_true)
        ious.append(inter / union)
    if not ious:
        raise ValueError("no class present in either label map")
    return float(np.mean(ious))


def _predict(spec: ModelSpec, pv: ParamVec, samples: list) -> tuple[np.ndarray, np.ndarray]:
    """(model outputs, targets) over a dataset, forwarded _EVAL_CHUNK samples at a time."""
    if not samples:
        raise ValueError("empty dataset")
    net = build_model(spec)
    set_params(net, pv)
    outs, targets = [], []
    for start in range(0, len(samples), _EVAL_CHUNK):
        x, y = stack_batch(samples[start : start + _EVAL_CHUNK])
        outs.append(net.forward(x))
        targets.append(y)
    return np.concatenate(outs), np.concatenate(targets)


def eval_channel(spec: ModelSpec, pv: ParamVec, samples: list) -> float:
    """NMSE of the channel estimator over a dataset."""
    return nmse(*_predict(spec, pv, samples))


def eval_radar(spec: ModelSpec, pv: ParamVec, samples: list) -> tuple[float, float]:
    """(pixel accuracy, mean IoU) of the segmenter over a dataset."""
    logits, true_labels = _predict(spec, pv, samples)
    maps = _label_maps(logits.argmax(axis=-1), true_labels)
    return _pixel_accuracy(*maps), _mean_iou(*maps)
