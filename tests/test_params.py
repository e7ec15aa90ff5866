"""ParamVec: one float64 buffer with named views, checked against per-entry references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdfl.params as pvops
from qkdfl.models import ModelSpec, build_model, get_params, init_params, set_params
from qkdfl.nn import Adam
from qkdfl.params import ParamVec

# Shapes include () and one-element tensors, whose K values numpy's stacked
# mean sums pairwise rather than in order.
shapes = st.lists(
    st.lists(st.integers(1, 4), max_size=3).map(tuple), min_size=1, max_size=6
)


def random_entries(shape_list, rng):
    """Values spread over many exponents, so any change of summation order shows."""
    return [
        (f"t{i}", np.asarray(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 7, s)))
        for i, s in enumerate(shape_list)
    ]


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_entries_equal(pv, entries):
    assert len(pv.entries) == len(entries)
    for (name, got), (ref_name, ref) in zip(pv.entries, entries):
        assert name == ref_name
        assert same_bytes(got, np.asarray(ref, dtype=np.float64)), name


class TestLayout:
    @settings(max_examples=60, deadline=None)
    @given(shape_list=shapes, seed=st.integers(0, 2**32 - 1))
    def test_entries_round_trip(self, shape_list, seed):
        entries = random_entries(shape_list, np.random.default_rng(seed))
        pv = ParamVec(entries)
        assert_entries_equal(pv, entries)
        assert [name for name, _ in pv.layout] == [name for name, _ in entries]
        assert pv.total_len == sum(arr.size for _, arr in entries)
        assert pv.nbytes_serialized == 8 * pv.total_len
        assert same_bytes(pv.flat(), np.concatenate([arr.ravel() for _, arr in entries]))

    def test_entries_are_views_of_the_buffer(self):
        pv = ParamVec([("w", np.zeros((2, 3))), ("s", np.zeros(())), ("b", np.zeros(1))])
        assert pv.flat() is pv.buf
        for _, view in pv.entries:
            assert np.shares_memory(view, pv.buf)
        pv.entries[0][1][1, 2] = 5.0
        pv.entries[1][1][...] = 7.0
        assert pv.buf[5] == 5.0 and pv.buf[6] == 7.0

    def test_constructor_and_copy_do_not_alias(self):
        src = np.ones((2, 2))
        pv = ParamVec([("w", src)])
        src[0, 0] = 9.0
        assert pv.buf[0] == 1.0
        dup = pv.copy()
        dup.buf[:] = 3.0
        assert (pv.buf == 1.0).all()

    def test_from_buffer_wraps_without_copy(self):
        buf = np.arange(7, dtype=np.float64)
        pv = ParamVec.from_buffer((("w", (2, 3)), ("b", ())), buf)
        assert pv.buf is buf
        assert same_bytes(pv.entries[1][1], np.array(6.0))

    @pytest.mark.parametrize(
        "buf", [np.zeros(6), np.zeros(8), np.zeros(7, dtype=np.float32), np.zeros((7, 1))]
    )
    def test_from_buffer_rejects_mismatched_buffer(self, buf):
        with pytest.raises(ValueError):
            ParamVec.from_buffer((("w", (2, 3)), ("b", ())), buf)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParamVec([("a", np.zeros(2)), ("a", np.zeros(3))])

    def test_empty(self):
        pv = ParamVec([])
        assert pv.total_len == 0 and pv.entries == ()
        assert pvops.max_abs_diff(pv, pv.copy()) == 0.0


class TestArithmeticMatchesPerEntryReference:
    @settings(max_examples=60, deadline=None)
    @given(shape_list=shapes, seed=st.integers(0, 2**32 - 1))
    def test_add_sub_max_abs_diff(self, shape_list, seed):
        rng = np.random.default_rng(seed)
        a_entries = random_entries(shape_list, rng)
        b_entries = random_entries(shape_list, rng)
        a, b = ParamVec(a_entries), ParamVec(b_entries)
        pairs = list(zip(a_entries, b_entries))
        assert_entries_equal(pvops.add(a, b), [(n, x + y) for (n, x), (_, y) in pairs])
        assert_entries_equal(pvops.sub(a, b), [(n, x - y) for (n, x), (_, y) in pairs])
        ref = max(float(np.max(np.abs(x - y))) for (_, x), (_, y) in pairs)
        assert pvops.max_abs_diff(a, b) == ref

    @settings(max_examples=60, deadline=None)
    @given(shape_list=shapes, k=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_mean_matches_stacked_mean(self, shape_list, k, seed):
        rng = np.random.default_rng(seed)
        per_client = [random_entries(shape_list, rng) for _ in range(k)]
        got = pvops.mean([ParamVec(e) for e in per_client])
        ref = [
            (name, np.stack([e[idx][1] for e in per_client]).mean(axis=0))
            for idx, (name, _) in enumerate(per_client[0])
        ]
        assert_entries_equal(got, ref)

    def test_zeros_like_keeps_layout(self):
        pv = ParamVec([("w", np.ones((2, 2))), ("b", np.ones(()))])
        z = pvops.zeros_like(pv)
        assert z.same_structure(pv) and (z.buf == 0.0).all() and (pv.buf == 1.0).all()

    def test_all_finite(self):
        assert ParamVec([("a", np.zeros(2)), ("b", np.ones(()))]).all_finite()
        assert not ParamVec([("a", np.zeros(2)), ("b", np.array(np.nan))]).all_finite()


class TestLayoutMismatch:
    BASE = [("w", np.zeros((2, 3))), ("b", np.zeros(3))]

    @pytest.mark.parametrize(
        "other",
        [
            [("w", np.zeros((2, 3))), ("c", np.zeros(3))],  # name
            [("w", np.zeros((3, 2))), ("b", np.zeros(3))],  # shape, same size
            [("w", np.zeros(6)), ("b", np.zeros(3))],  # rank
            [("b", np.zeros(3)), ("w", np.zeros((2, 3)))],  # order
            [("w", np.zeros((2, 3)))],  # missing tensor
        ],
    )
    def test_mismatch_raises(self, other):
        a, b = ParamVec(self.BASE), ParamVec(other)
        assert not a.same_structure(b)
        for op in (pvops.add, pvops.sub, pvops.max_abs_diff):
            with pytest.raises(ValueError):
                op(a, b)
        with pytest.raises(ValueError):
            pvops.mean([a, b])


def adam_reference(arrays, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam loop, kept as the reference for the flat step."""
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grad_steps, start=1):
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for a, g, m_, v_ in zip(arrays, grads, m, v):
            m_ *= beta1
            m_ += (1.0 - beta1) * g
            v_ *= beta2
            v_ += (1.0 - beta2) * (g * g)
            a -= lr * (m_ / c1) / (np.sqrt(v_ / c2) + eps)


class TestFlatAdam:
    @settings(max_examples=40, deadline=None)
    @given(shape_list=shapes, steps=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_array_loop(self, shape_list, steps, seed):
        rng = np.random.default_rng(seed)
        entries = random_entries(shape_list, rng)
        grad_steps = [random_entries(shape_list, rng) for _ in range(steps)]
        ref = [arr.copy() for _, arr in entries]
        adam_reference(ref, [[g for _, g in gs] for gs in grad_steps], lr=1e-3)

        pv = ParamVec(entries)
        opt = Adam(pv.buf, lr=1e-3)
        for gs in grad_steps:
            opt.step(pv.buf, ParamVec(gs).buf)
        assert_entries_equal(pv, [(n, r) for (n, _), r in zip(entries, ref)])


class TestModelBuffers:
    @pytest.mark.parametrize("task", ["channel", "radar"])
    def test_conv_arrays_are_views_of_the_net_buffers(self, task):
        net = build_model(ModelSpec(task=task, init_seed=1))
        entries = net.params.entries
        for conv, (_, w), (_, b) in zip(net.convs, entries[0::2], entries[1::2]):
            for view, arr in ((w, conv.w), (b, conv.b)):
                assert arr.shape == view.shape and np.shares_memory(arr, view)
            assert np.shares_memory(conv.dw, net.grads.buf)
            assert np.shares_memory(conv.db, net.grads.buf)
        assert [name for name, _ in net.params.layout] == [
            f"{c.name}.{p}" for c in net.convs for p in ("w", "b")
        ]

    def test_backward_fills_the_gradient_buffer(self):
        spec = ModelSpec(task="channel", init_seed=2)
        net = build_model(spec)
        set_params(net, init_params(spec))
        rng = np.random.default_rng(0)
        _, grads = net.loss_and_grads(
            rng.standard_normal((2, 16, 14, 1)), rng.standard_normal((2, 16, 14, 1))
        )
        assert grads is net.grads
        assert np.abs(net.grads.buf).max() > 0.0

    def test_get_and_set_params_copy(self):
        spec = ModelSpec(task="channel", init_seed=3)
        net = build_model(spec)
        pv = init_params(spec)
        set_params(net, pv)
        pv.buf[:] = 0.0
        assert np.abs(net.params.buf).max() > 0.0
        got = get_params(net)
        assert not np.shares_memory(got.buf, net.params.buf)
        got.buf[:] = 0.0
        assert np.abs(net.params.buf).max() > 0.0


class TestGuards:
    def test_mean_of_no_vectors(self):
        with pytest.raises(ValueError, match="mean of empty list"):
            pvops.mean([])
