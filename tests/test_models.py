import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import convolve2d, correlate2d
from scipy.special import expit
from scipy.stats import truncnorm

from qkdfl.errors import LayerStateError
from qkdfl.models import (
    ModelSpec,
    build_model,
    get_params,
    init_params,
    set_params,
)
from qkdfl.nn import (
    _ROWS_BYTES,
    SELU_ALPHA,
    SELU_SCALE,
    Activation,
    Conv2D,
    MaxPool2,
    UpsampleNearest2,
    _row_slices,
    _rowconv,
    _rowcols,
    softmax_cross_entropy,
    truncated_normal_init,
)



def softmax(logits):
    """Softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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


def _im2col(x, kh, kw):
    """Same-padded kh x kw windows of NHWC `x`, one row per output pixel,
    ordered (kh, kw, c): the full im2col matrix the conv kernel avoids."""
    n, h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(n * h * w, kh * kw * c)


def im2col_conv(x, w, b, dy):
    """(out, dw, db, dx) of a same-padded conv as single im2col matmuls."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    cols = _im2col(x, kh, kw)
    out = (cols @ w.reshape(-1, cout) + b).reshape(n, h, wd, cout)
    dy2 = dy.reshape(-1, cout)
    dw = (cols.T @ dy2).reshape(w.shape)
    db = dy2.sum(axis=0)
    w_t = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin)
    dx = (_im2col(dy, kh, kw) @ w_t).reshape(n, h, wd, cin)
    return out, dw, db, dx


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


odd = st.sampled_from([1, 3, 5, 7, 9])


class TestConvIm2colOracle:
    @settings(max_examples=80, deadline=None)
    @given(kh=odd, kw=odd, n=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
           cin=st.integers(1, 4), cout=st.integers(1, 4), input_grad=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(kh=1, kw=1, n=1, h=5, w=4, cin=3, cout=2, input_grad=True, seed=0)
    @example(kh=9, kw=9, n=2, h=12, w=10, cin=2, cout=3, input_grad=True, seed=1)
    @example(kh=5, kw=3, n=1, h=9, w=7, cin=2, cout=3, input_grad=False, seed=2)
    @example(kh=9, kw=9, n=1, h=1, w=6, cin=2, cout=2, input_grad=True, seed=3)
    @example(kh=9, kw=9, n=3, h=6, w=2, cin=1, cout=4, input_grad=True, seed=4)
    @example(kh=9, kw=9, n=1, h=1, w=1, cin=1, cout=1, input_grad=False, seed=5)
    def test_matches_im2col(self, kh, kw, n, h, w, cin, cout, input_grad, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2D("c", kh, kw, cin, cout, input_grad=input_grad)
        conv.w[...] = rng.standard_normal(conv.w.shape)
        conv.b[...] = rng.standard_normal(cout)
        x = rng.standard_normal((n, h, w, cin))
        dy = rng.standard_normal((n, h, w, cout))
        out, dw, db, dx = im2col_conv(x, conv.w, conv.b, dy)

        assert rel_err(conv.forward(x), out) <= 1e-12
        got_dx = conv.backward(dy)
        assert rel_err(conv.dw, dw) <= 1e-12
        assert rel_err(conv.db, db) <= 1e-12
        if input_grad:
            assert rel_err(got_dx, dx) <= 1e-12
        else:
            assert got_dx is None


class TestGradsInModelBuffers:
    @staticmethod
    def _record(conv, seen):
        forward, backward = conv.forward, conv.backward

        def fwd(x):
            seen[conv.name] = [x]
            return forward(x)

        def bwd(dy):
            seen[conv.name].append(dy)
            return backward(dy)

        conv.forward, conv.backward = fwd, bwd

    @pytest.mark.parametrize("task,shape", [("channel", (3, 16, 14, 1)), ("radar", (2, 16, 16, 3))])
    def test_dw_db_are_buffer_views_holding_oracle_values(self, task, shape):
        spec = ModelSpec(task=task, init_seed=4)
        net = build_model(spec)
        set_params(net, init_params(spec))
        seen = {}
        for conv in net.convs:
            self._record(conv, seen)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(shape)
        if task == "channel":
            y = np.abs(rng.standard_normal(shape))
        else:
            y = rng.integers(0, 4, shape[:3])
        _, grads = net.loss_and_grads(x, y)

        assert grads is net.grads
        entries = dict(grads.entries)
        for conv in net.convs:
            assert np.shares_memory(conv.dw, net.grads.buf)
            assert np.shares_memory(conv.db, net.grads.buf)
            xin, dy = seen[conv.name]
            _, dw, db, _ = im2col_conv(xin, conv.w, conv.b, dy)
            assert rel_err(entries[f"{conv.name}.w"], dw) <= 1e-12
            assert rel_err(entries[f"{conv.name}.b"], db) <= 1e-12
            assert np.abs(dw).max() > 0


class TestSoftplus:
    def test_exact_at_special_values(self):
        x = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf])
        got = Activation("softplus").forward(x)
        assert np.array_equal(got, np.logaddexp(0.0, x))
        assert not np.signbit(got).any()

    def test_within_two_ulp_of_logaddexp(self):
        x = np.linspace(-50.0, 50.0, 400_001)
        got = Activation("softplus").forward(x)
        want = np.logaddexp(0.0, x)
        assert (want > 0).all() and (got > 0).all()
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 2

    def test_forward_keeps_input(self):
        x = np.linspace(-3.0, 3.0, 13)
        kept = x.copy()
        Activation("softplus").forward(x)
        assert np.array_equal(x, kept)

    def test_backward_matches_logistic_oracle_bytes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 5, 4, 3)) * 10
        x.flat[:3] = (-800.0, 800.0, 0.0)
        dy = rng.standard_normal(x.shape)
        act = Activation("softplus")
        act.forward(x)
        assert same_bytes(act.backward(dy), dy * logistic_oracle(x))

    def test_logistic_within_four_ulp_of_expit(self):
        x = np.linspace(-50.0, 50.0, 2_000_001)
        act = Activation("softplus")
        act.forward(x)
        got = act.backward(np.ones_like(x))
        want = expit(x)
        assert (want > 0).all() and (got > 0).all()
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 4

    def test_backward_exact_at_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        act = Activation("softplus")
        act.forward(x)
        got = act.backward(np.ones_like(x))
        assert np.array_equal(got[:4], [0.5, 0.5, 1.0, 0.0])
        assert not np.signbit(got[:4]).any()
        assert np.isnan(got[4])

    def test_backward_emits_no_warning_where_exp_overflows(self):
        act = Activation("softplus")
        act.forward(np.array([-800.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = act.backward(np.ones(1))
        assert got[0] == 0.0


def logistic_oracle(x):
    """The logistic as the softplus backward must compute it, 1 / (1 + e^-x)."""
    with np.errstate(over="ignore"):
        e = np.exp(-x)
    return 1.0 / (1.0 + e)


# Variance of a standard normal truncated at +-2: 1 - 4 phi(2) / (2 Phi(2) - 1).
TRUNC2_VAR = 1.0 - 4.0 * math.exp(-2.0) / math.sqrt(2.0 * math.pi) / math.erf(math.sqrt(2.0))


class TestTruncatedNormalInit:
    def test_within_two_scaled_stddevs(self):
        for shape, fan_in in (((3, 3, 64, 128), 576), ((9, 9, 1, 12), 81), ((50_000,), 1)):
            w = truncated_normal_init(np.random.default_rng(1), shape, fan_in)
            assert w.shape == shape and w.dtype == np.float64
            assert np.abs(w).max() <= 2.0 * np.sqrt(1.0 / fan_in)

    def test_same_seed_same_bytes(self):
        a = truncated_normal_init(np.random.default_rng(5), (3, 3, 8, 16), 72)
        b = truncated_normal_init(np.random.default_rng(5), (3, 3, 8, 16), 72)
        c = truncated_normal_init(np.random.default_rng(6), (3, 3, 8, 16), 72)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_moments_and_ks_distance(self):
        n = 100_000
        z = np.sort(truncated_normal_init(np.random.default_rng(13), (n,), 1))
        assert abs(z.mean()) < 0.015
        assert abs(z.var() - TRUNC2_VAR) < 0.015
        cdf = truncnorm(-2.0, 2.0).cdf(z)
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        # The Kolmogorov-Smirnov critical value at a 0.001 significance level.
        assert ks < 1.95 / math.sqrt(n)

    def test_segnet_init_peak_memory(self):
        spec = ModelSpec(task="radar", encoder_filters=(32, 64, 128), bottleneck_filters=256)
        tracemalloc.start()
        try:
            pv = init_params(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pv.buf.size == 969_380
        assert peak <= 4 * pv.buf.nbytes


def where_selu(x):
    """The select form of SELU that the in-place forward must reproduce."""
    return SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


class TestSelu:
    def test_forward_matches_where_form_bytewise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310]
        x = np.concatenate([np.linspace(-50.0, 50.0, 2_000_001), special])
        got = Activation("selu").forward(x)
        assert got.tobytes() == where_selu(x).tobytes()

    def test_forward_keeps_input_and_shape(self):
        x = np.random.default_rng(4).standard_normal((5, 4, 3, 2)) * 3
        kept = x.copy()
        got = Activation("selu").forward(x)
        assert np.array_equal(x, kept)
        assert got.shape == x.shape
        assert got.tobytes() == where_selu(x).tobytes()


# The earlier forms of the per-batch layer path, kept as byte-for-byte
# oracles for the rewritten one: every output must have the same bytes.


def rowcols_oracle(x, kh, kw):
    """Same-padded rows via np.pad and sliding_window_view."""
    n, h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    shifts = sliding_window_view(xp, kw, axis=2).transpose(0, 1, 2, 4, 3)
    return np.ascontiguousarray(shifts).reshape(n, h + 2 * ph, w, kw * c)


def conv_oracle(conv, x, dy):
    """(out, dw, db, dx) of `conv` through the row-offset kernel on oracle rows."""
    n, h, w, cin = x.shape
    kh, kw, cout = conv.kh, conv.kw, conv.cout
    rows = rowcols_oracle(x, kh, kw)
    out = _rowconv(rows, conv.w.reshape(kh, -1, cout), h)
    out += conv.b
    dy3 = dy.reshape(n, h * w, cout)
    dw = np.empty_like(conv.w)
    dwk = dw.reshape(kh, -1, cout)
    for i, op in enumerate(_row_slices(rows, h)):
        np.matmul(op.transpose(0, 2, 1), dy3).sum(axis=0, out=dwk[i])
    db = dy.reshape(-1, cout).sum(axis=0)
    w_t = conv.w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh, -1, cin)
    dx = _rowconv(rowcols_oracle(dy, kh, kw), w_t, h).reshape(n, h, w, cin)
    return out.reshape(n, h, w, cout), dw, db, dx


def maxpool_oracle(x, dy):
    """(out, dx) of 2x2 max pooling via take_along_axis and put_along_axis."""
    n, h, w, c = x.shape
    xr = (
        x.reshape(n, h // 2, 2, w // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, h // 2, w // 2, c, 4)
    )
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    dxr = np.zeros((n, h // 2, w // 2, c, 4))
    np.put_along_axis(dxr, idx[..., None], dy[..., None], axis=-1)
    dx = dxr.reshape(n, h // 2, w // 2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(x.shape)
    return out, dx


def selu_backward_oracle(x, dy):
    return dy * (SELU_SCALE * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(x, 0.0))))


def cross_entropy_oracle(logits, labels):
    """Loss and gradient through a one-hot array built with put_along_axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = float(-np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0].mean())
    onehot = np.zeros_like(logp)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    return loss, (np.exp(logp) - onehot) / labels.size


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


TIED = [-1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]


class TestLayersMatchOracleBytes:
    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([(1, 1), (3, 3), (5, 3), (9, 9)]), n=st.integers(1, 3),
           h=st.integers(1, 7), w=st.integers(1, 7), cin=st.integers(1, 3),
           cout=st.integers(1, 3), input_grad=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(k=(9, 9), n=1, h=1, w=2, cin=1, cout=1, input_grad=True, seed=0)
    @example(k=(5, 3), n=2, h=2, w=1, cin=2, cout=3, input_grad=True, seed=1)
    @example(k=(1, 1), n=4, h=2, w=2, cin=3, cout=2, input_grad=True, seed=2)
    # 349 KB of rows a sample, so chunks of 3 + 2 samples forward and for dW;
    # dx lowers dy's 8 channels, 233 KB a sample, in chunks of 4 + 1.
    @example(k=(5, 5), n=5, h=48, w=14, cin=12, cout=8, input_grad=True, seed=3)
    @example(k=(5, 5), n=5, h=48, w=14, cin=12, cout=8, input_grad=False, seed=4)
    # One sample's rows (1.44 MB forward, 1.08 MB for dx) exceed _ROWS_BYTES.
    @example(k=(9, 9), n=2, h=96, w=48, cin=4, cout=3, input_grad=True, seed=5)
    def test_conv(self, k, n, h, w, cin, cout, input_grad, seed):
        kh, kw = k
        rng = np.random.default_rng(seed)
        conv = Conv2D("c", kh, kw, cin, cout, input_grad=input_grad)
        conv.w[...] = rng.standard_normal(conv.w.shape)
        conv.b[...] = rng.standard_normal(cout)
        x = rng.standard_normal((n, h, w, cin))
        dy = rng.standard_normal((n, h, w, cout))
        out, dw, db, dx = conv_oracle(conv, x, dy)
        assert same_bytes(_rowcols(x, kh, kw), rowcols_oracle(x, kh, kw))
        assert same_bytes(conv.forward(x), out)
        got_dx = conv.backward(dy)
        assert same_bytes(got_dx, dx) if input_grad else got_dx is None
        assert same_bytes(conv.dw, dw) and same_bytes(conv.db, db)

    def test_rowcols_rezeroes_the_border_of_a_reused_buffer(self):
        # A wide NaN input fills both buffers; the smaller rows built after
        # it must read zeros, not NaN, wherever they reach into the padding.
        _rowcols(np.full((2, 9, 9, 3), np.nan), 9, 9)
        x = np.random.default_rng(8).standard_normal((2, 5, 4, 3))
        for kh, kw in ((3, 3), (5, 1), (1, 3)):
            assert same_bytes(_rowcols(x, kh, kw), rowcols_oracle(x, kh, kw))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), h2=st.integers(1, 4), w2=st.integers(1, 4),
           c=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_maxpool_with_tied_windows(self, n, h2, w2, c, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values, signed zeros and NaN: most windows hold ties.
        x = rng.choice(TIED, size=(n, 2 * h2, 2 * w2, c), p=[0.2, 0.2, 0.2, 0.2, 0.1, 0.05, 0.05])
        dy = rng.standard_normal((n, h2, w2, c))
        dy[rng.random(dy.shape) < 0.2] = -0.0
        pool = MaxPool2()
        out, dx = maxpool_oracle(x, dy)
        assert same_bytes(pool.forward(x), out)
        assert same_bytes(pool.backward(dy), dx)

    def test_maxpool_ties_route_to_first_window_position(self):
        # Windows in (top-left, top-right, bottom-left, bottom-right) order.
        windows = np.array([[3.0, 3.0, 3.0, 3.0], [1.0, 5.0, 5.0, 2.0],
                            [0.0, -0.0, 1.0, 1.0], [-0.0, 0.0, -1.0, -0.0]])
        # Window j is x[0, 0:2, 2j:2j + 2, 0].
        x = windows.reshape(4, 2, 2).transpose(1, 0, 2).reshape(1, 2, 8, 1)
        pool = MaxPool2()
        out = pool.forward(x)
        assert out.ravel().tolist() == [3.0, 5.0, 1.0, 0.0]
        assert np.signbit(out.ravel()).tolist() == [False, False, False, True]
        dx = pool.backward(np.array([7.0, 8.0, 9.0, 10.0]).reshape(out.shape))
        got = dx.reshape(2, 4, 2).transpose(1, 0, 2).reshape(4, 4)
        assert got.tolist() == [[7, 0, 0, 0], [0, 8, 0, 0], [0, 0, 9, 0], [10, 0, 0, 0]]
        assert not np.signbit(dx).any()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
           c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_upsample(self, n, h, w, c, seed):
        x = np.random.default_rng(seed).standard_normal((n, h, w, c))
        want = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
        assert same_bytes(UpsampleNearest2().forward(x), want)

    def test_selu_backward_at_special_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
                            -800.0, 800.0])
        x = np.concatenate([np.linspace(-40.0, 40.0, 20_001), special])
        x, dy = np.meshgrid(x, np.concatenate([[1.0, -0.0, np.inf, np.nan, tiny], x[::997]]))
        act = Activation("selu")
        act.forward(x)
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN in both forms
            assert same_bytes(act.backward(dy), selu_backward_oracle(x, dy))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), h=st.integers(1, 5), classes=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_cross_entropy(self, n, h, classes, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, h, 3, classes)) * 10
        labels = rng.integers(0, classes, (n, h, 3))
        loss, grad = softmax_cross_entropy(logits, labels)
        want_loss, want_grad = cross_entropy_oracle(logits, labels)
        assert loss == want_loss
        assert same_bytes(grad, want_grad)

    @pytest.mark.parametrize("bad", [-1, 4, 255])
    def test_cross_entropy_rejects_labels_outside_the_classes(self, bad):
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        labels[0, 1, 0] = bad
        with pytest.raises(ValueError, match="class ids"):
            softmax_cross_entropy(np.zeros((1, 2, 2, 4)), labels)

    def test_1x1_dw_holds_when_its_input_is_reused(self):
        rng = np.random.default_rng(9)
        head = Conv2D("head", 1, 1, 4, 3)
        head.w[...] = rng.standard_normal(head.w.shape)
        x = rng.standard_normal((2, 4, 4, 4))
        kept = x.copy()
        head.forward(x)
        # The head's rows are `x` itself; feed `x` on through every layer,
        # as a skip connection would, before the head's backward pass.
        for layer in (Activation("relu"), Activation("selu"), Activation("softplus"),
                      MaxPool2(), UpsampleNearest2(), Conv2D("c", 3, 3, 4, 4)):
            y = layer.forward(x)
            layer.backward(np.ones_like(y))
        softmax_cross_entropy(x, rng.integers(0, 4, (2, 4, 4)))
        dy = rng.standard_normal((2, 4, 4, 3))
        head.backward(dy)
        assert np.array_equal(x, kept)
        _, dw, db, _ = conv_oracle(head, kept, dy)
        assert same_bytes(head.dw, dw) and same_bytes(head.db, db)


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


class TestLayerState:
    """One backward consumes one forward; a backward without one names the layer."""

    @staticmethod
    def _check(make, name, x):
        """A new layer's backward, and a second backward on one forward, raise."""
        message = f"^{name}: backward without a forward of its own$"
        layer = make()
        dy = np.ones_like(layer.forward(x))
        with pytest.raises(LayerStateError, match=message):
            make().backward(dy)
        layer.backward(dy)
        with pytest.raises(LayerStateError, match=message):
            layer.backward(dy)
        return layer

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_conv2d(self, input_grad):
        x = np.random.default_rng(0).standard_normal((2, 4, 4, 2))
        conv = self._check(lambda: Conv2D("enc2", 3, 3, 2, 3, input_grad=input_grad), "enc2", x)
        assert conv._xshape == x.shape  # read after backward by the benchmark's counts

    @pytest.mark.parametrize("kind", Activation.KINDS)
    def test_activation(self, kind):
        x = np.linspace(-2.0, 2.0, 16).reshape(1, 4, 4, 1)
        self._check(lambda: Activation(kind), f"{kind} activation", x)

    def test_maxpool2(self):
        self._check(MaxPool2, "MaxPool2", np.arange(16.0).reshape(1, 4, 4, 1))

    def test_upsample_nearest2(self):
        self._check(UpsampleNearest2, "UpsampleNearest2", np.arange(4.0).reshape(1, 2, 2, 1))


class TestStepMemory:
    """A training step holds each conv's input, not its rows, from forward to
    backward, and builds the rows one chunk of samples at a time."""

    @staticmethod
    def _peak_and_bound(task, n, h, w):
        spec = ModelSpec(task=task, init_seed=2)
        net = build_model(spec)
        set_params(net, init_params(spec))
        rng = np.random.default_rng(6)
        x = np.abs(rng.standard_normal((n, h, w, net.convs[0].cin)))
        if task == "channel":
            y = np.abs(rng.standard_normal((n, h, w, 1)))
        else:
            y = rng.integers(0, net.convs[-1].cout, (n, h, w))
        tracemalloc.start()
        try:
            net.loss_and_grads(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The step holds each conv's input and output.  Beside them are the
        # two reused buffers, at most one chunk's rows and padded copy each,
        # and one more array no larger than the largest conv input or output:
        # an activation's max(x, 0) term or a conv's product buffer.
        kept = largest = rows = padded = 0
        for conv in net.convs:
            m, hc, wc, cin = conv._xshape
            hp, wp = hc + conv.kh - 1, wc + conv.kw - 1
            x_bytes, y_bytes = 8 * m * hc * wc * cin, 8 * m * hc * wc * conv.cout
            kept += x_bytes + y_bytes
            largest = max(largest, x_bytes, y_bytes)
            # Rows of x forward and for dW, and rows of dy for dx; a 1x1
            # kernel's rows are its input, with no buffer.
            for c in (cin, conv.cout) if conv.kh * conv.kw > 1 else ():
                chunk = min(m, max(1, _ROWS_BYTES // (8 * hp * wc * conv.kw * c)))
                rows = max(rows, 8 * chunk * hp * wc * conv.kw * c)
                padded = max(padded, 8 * chunk * hp * wp * c)
        return net, peak, kept + rows + padded + largest

    def test_channel_step_frees_caches_within_forward_bound(self):
        # One batch of the shipped exp_a_channel config.
        net, peak, bound = self._peak_and_bound("channel", 16, 48, 14)
        assert peak <= bound
        assert all(conv._x is None for conv in net.convs)
        assert all(act._saved is None for act in net.acts)

    def test_segnet_step_frees_caches_within_forward_bound(self):
        # One batch of the shipped exp_a_radar config.
        net, peak, bound = self._peak_and_bound("radar", 4, 32, 32)
        assert peak <= bound
        assert all(conv._x is None for conv in net.convs)
        assert all(relu._saved is None for relu in net.relus)


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


class TestGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: ModelSpec(task="lidar"), "unknown task 'lidar'", id="task"),
            pytest.param(lambda: Conv2D("c", 2, 3, 1, 1), "same padding requires odd kernel sizes",
                         id="even-kernel"),
            pytest.param(lambda: Conv2D("c", 3, 3, 2, 1).forward(np.zeros((1, 4, 4, 3))),
                         "c: expected 2 input channels, got 3", id="input-channels"),
            pytest.param(lambda: Activation("tanh"), "unknown activation 'tanh'", id="activation"),
            pytest.param(lambda: MaxPool2().forward(np.zeros((1, 4, 5, 1))),
                         "pooling needs even spatial dims, got 4x5", id="odd-pool"),
        ],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
