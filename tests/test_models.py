import numpy as np
import pytest
from scipy.signal import convolve2d, correlate2d

from qkdfl.models import (
    ModelSpec,
    build_model,
    get_params,
    init_params,
    set_params,
)
from qkdfl.nn import Conv2D, softmax

FD_STEP = 1e-5
FD_REL_TOL = 1e-4


def finite_difference_worst(net, x, y, n_coords, coord_seed=0):
    """Central-difference oracle: worst relative error over sampled coordinates."""
    _, grads = net.loss_and_grads(x, y)
    grads = [g.copy() for _, g in grads.entries]
    arrays = [a for _, a in net.params.entries]
    rng = np.random.default_rng(coord_seed)
    worst = 0.0
    for _ in range(n_coords):
        ti = int(rng.integers(len(arrays)))
        arr = arrays[ti]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + FD_STEP
        loss_plus, _ = net.loss_and_grads(x, y)
        arr[idx] = orig - FD_STEP
        loss_minus, _ = net.loss_and_grads(x, y)
        arr[idx] = orig
        fd = (loss_plus - loss_minus) / (2 * FD_STEP)
        analytic = grads[ti][idx]
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    return worst


class TestConvForwardOracle:
    def test_matches_scipy_correlate2d(self):
        rng = np.random.default_rng(0)
        kh, kw, cin, cout = 5, 3, 2, 3
        conv = Conv2D("c", kh, kw, cin, cout)
        conv.w = rng.standard_normal(conv.w.shape)
        conv.b = rng.standard_normal(cout)
        x = rng.standard_normal((2, 9, 7, cin))
        out = conv.forward(x)

        expect = np.zeros_like(out)
        for n in range(2):
            for co in range(cout):
                acc = np.zeros((9, 7))
                for ci in range(cin):
                    acc += correlate2d(x[n, :, :, ci], conv.w[:, :, ci, co], mode="same")
                expect[n, :, :, co] = acc + conv.b[co]
        assert np.allclose(out, expect, atol=1e-12)


class TestConvBackwardOracle:
    @staticmethod
    def _layer(kh, kw, cin, cout, seed, **kwargs):
        rng = np.random.default_rng(seed)
        conv = Conv2D("c", kh, kw, cin, cout, **kwargs)
        conv.w = rng.standard_normal(conv.w.shape)
        conv.b = rng.standard_normal(cout)
        return conv

    @pytest.mark.parametrize("kh,kw", [(9, 9), (5, 5), (3, 3), (1, 1), (5, 3)])
    def test_input_grad_matches_scipy_convolve2d(self, kh, kw):
        cin, cout = 2, 3
        conv = self._layer(kh, kw, cin, cout, seed=kh * 10 + kw)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 11, 9, cin))
        dy = rng.standard_normal((2, 11, 9, cout))
        conv.forward(x)
        dx = conv.backward(dy)

        expect = np.zeros_like(x)
        for n in range(2):
            for ci in range(cin):
                for co in range(cout):
                    expect[n, :, :, ci] += convolve2d(
                        dy[n, :, :, co], conv.w[:, :, ci, co], mode="same"
                    )
        assert np.allclose(dx, expect, atol=1e-12)

    def test_input_layer_skips_dx_but_fills_param_grads(self):
        full = self._layer(5, 3, 2, 3, seed=7)
        first = self._layer(5, 3, 2, 3, seed=7, input_grad=False)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 9, 7, 2))
        dy = rng.standard_normal((2, 9, 7, 3))
        full.forward(x)
        first.forward(x)
        assert full.backward(dy) is not None
        assert first.backward(dy) is None
        assert np.array_equal(first.dw, full.dw)
        assert np.array_equal(first.db, full.db)


class TestGradients:
    def test_channel_loss_gradient(self):
        spec = ModelSpec(task="channel", init_seed=5)
        net = build_model(spec)
        set_params(net, init_params(spec))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 16, 14, 1))
        y = np.abs(rng.standard_normal((2, 16, 14, 1)))
        assert finite_difference_worst(net, x, y, n_coords=120) < FD_REL_TOL

    def test_radar_loss_gradient(self):
        spec = ModelSpec(task="radar", init_seed=5)
        net = build_model(spec)
        set_params(net, init_params(spec))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 16, 16, 3))
        labels = rng.integers(0, 4, (2, 16, 16))
        assert finite_difference_worst(net, x, labels, n_coords=120) < FD_REL_TOL


class TestShapes:
    @pytest.mark.parametrize("dims", [(48, 14), (612, 14), (16, 16)])
    def test_channel_output_matches_input(self, dims):
        spec = ModelSpec(task="channel", init_seed=0)
        net = build_model(spec)
        set_params(net, init_params(spec))
        x = np.zeros((1, *dims, 1))
        assert net.forward(x).shape == (1, *dims, 1)

    @pytest.mark.parametrize("size", [32, 64, 256])
    def test_radar_output_matches_input(self, size):
        spec = ModelSpec(task="radar", init_seed=0)
        net = build_model(spec)
        set_params(net, init_params(spec))
        x = np.zeros((1, size, size, 3))
        assert net.forward(x).shape == (1, size, size, 4)

    def test_radar_rejects_indivisible_dims(self):
        spec = ModelSpec(task="radar", init_seed=0)
        net = build_model(spec)
        set_params(net, init_params(spec))
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 20, 20, 3)))

    def test_softmax_normalized_per_pixel(self):
        spec = ModelSpec(task="radar", init_seed=3)
        net = build_model(spec)
        set_params(net, init_params(spec))
        rng = np.random.default_rng(4)
        probs = softmax(net.forward(rng.standard_normal((2, 16, 16, 3))))
        sums = probs.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6

    def test_softmax_helper_stability(self):
        big = np.array([[1000.0, 1000.0, -1000.0]])
        p = softmax(big)
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-12


class TestParamsRoundTrip:
    @pytest.mark.parametrize("task", ["channel", "radar"])
    def test_get_set_round_trip(self, task):
        spec = ModelSpec(task=task, init_seed=9)
        pv = init_params(spec)
        net = build_model(spec)
        set_params(net, pv)
        back = get_params(net)
        assert back.same_structure(pv)
        for (_, a), (_, b) in zip(back.entries, pv.entries):
            assert (a == b).all()

    def test_init_deterministic(self):
        spec = ModelSpec(task="channel", init_seed=11)
        a, b = init_params(spec), init_params(spec)
        for (_, x), (_, y) in zip(a.entries, b.entries):
            assert (x == y).all()

    def test_set_params_rejects_mismatch(self):
        spec = ModelSpec(task="channel", init_seed=0)
        net = build_model(spec)
        wrong = init_params(ModelSpec(task="radar", init_seed=0))
        with pytest.raises(ValueError):
            set_params(net, wrong)

    def test_desk_scale_param_counts(self):
        channel = init_params(ModelSpec(task="channel", init_seed=0))
        radar = init_params(ModelSpec(task="radar", init_seed=0))
        assert 1_000 <= channel.total_len <= 10_000
        assert 10_000 <= radar.total_len <= 200_000
