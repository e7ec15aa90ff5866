import numpy as np
import pytest

from qkdfl import metrics
from qkdfl.datasets import gen_channel_dataset, gen_radar_dataset
from qkdfl.metrics import NMSE_EPS, mean_iou, nmse, pixel_accuracy
from qkdfl.models import ModelSpec, init_params


class TestNmse:
    def test_perfect_predictor(self):
        y = np.abs(np.random.default_rng(0).standard_normal((4, 8, 8, 1)))
        assert nmse(y, y) == 0.0

    def test_zero_predictor(self):
        y = np.abs(np.random.default_rng(1).standard_normal((4, 8, 8, 1)))
        val = nmse(np.zeros_like(y), y)
        energy = (y**2).sum(axis=(1, 2, 3)).mean()
        assert val == pytest.approx(energy / (energy + NMSE_EPS), rel=1e-12)

    def test_constant_predictor_closed_form(self):
        rng = np.random.default_rng(2)
        y = np.abs(rng.standard_normal((6, 5, 5, 1)))
        c = 0.7
        pred = np.full_like(y, c)
        expect = ((c - y) ** 2).sum(axis=(1, 2, 3)).mean() / (
            (y**2).sum(axis=(1, 2, 3)).mean() + NMSE_EPS
        )
        assert nmse(pred, y) == pytest.approx(expect, rel=1e-9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((0, 2, 2, 1)), np.zeros((0, 2, 2, 1)))


class TestSegmentationMetrics:
    def test_perfect_prediction(self):
        labels = np.random.default_rng(3).integers(0, 4, (2, 8, 8))
        assert pixel_accuracy(labels, labels) == 1.0
        assert mean_iou(labels, labels) == 1.0

    def test_toy_two_by_two(self):
        # hand-computed: acc 3/4; IoU_0 = 1/2, IoU_1 = 2/3, mIoU = 7/12
        truth = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        assert pixel_accuracy(pred, truth) == 0.75
        assert mean_iou(pred, truth) == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_absent_classes_excluded(self):
        # all-background on all-background: classes 1..3 are 0/0 and skipped
        z = np.zeros((4, 4), dtype=int)
        assert pixel_accuracy(z, z) == 1.0
        assert mean_iou(z, z) == 1.0

    def test_absent_class_in_prediction_counts_against(self):
        truth = np.array([[0, 1], [0, 1]])
        pred = np.zeros_like(truth)
        # IoU_0 = 2/4, IoU_1 = 0/2 -> mean 0.25
        assert mean_iou(pred, truth) == pytest.approx(0.25)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pixel_accuracy(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_empty_rejected(self):
        empty = np.zeros((0, 2, 2), dtype=int)
        with pytest.raises(ValueError):
            pixel_accuracy(empty, empty)
        with pytest.raises(ValueError):
            mean_iou(empty, empty)


class TestEvalChunks:
    @pytest.mark.parametrize("task", ["channel", "radar"])
    def test_predictions_identical_across_chunk_sizes(self, monkeypatch, task):
        # The shipped configs' validation shapes: 32 channel, 16 radar samples.
        if task == "channel":
            samples = gen_channel_dataset(32, snr_db=10.0, dims=(48, 14), seed=5)
        else:
            samples = gen_radar_dataset(16, size=32, seed=5)
        spec = ModelSpec(task=task, init_seed=3)
        pv = init_params(spec)
        preds = {}
        for chunk in (32, 4, 3, 1):
            monkeypatch.setattr(metrics, "_EVAL_CHUNK", chunk)
            preds[chunk] = metrics._predict(spec, pv, samples)[0].tobytes()
        assert preds[4] == preds[32]
        assert preds[3] == preds[32]
        assert preds[1] == preds[32]


class TestGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: nmse(np.zeros((2, 3)), np.zeros((2, 4))),
                         "prediction and target shapes differ", id="nmse-shapes"),
            pytest.param(lambda: mean_iou(np.zeros((2, 2), int), np.zeros((2, 3), int)),
                         "label map shapes differ", id="miou-shapes"),
            pytest.param(lambda: mean_iou(np.full((2, 2), 7), np.full((2, 2), 9)),
                         "no class present in either label map", id="miou-no-class"),
        ],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestEvalRadar:
    def test_label_maps_checked_once(self, monkeypatch):
        samples = gen_radar_dataset(8, size=16, seed=4)
        spec = ModelSpec(task="radar", init_seed=3)
        pv = init_params(spec)
        calls = []
        check = metrics._label_maps

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(metrics, "_label_maps", counting)
        got = metrics.eval_radar(spec, pv, samples)
        assert len(calls) == 1
        logits, labels = metrics._predict(spec, pv, samples)
        pred = logits.argmax(axis=-1)
        assert got == (pixel_accuracy(pred, labels), mean_iou(pred, labels))
