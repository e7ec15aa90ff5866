import hashlib
import itertools
import json
import math
import os
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qkdfl.bits as bits
import qkdfl.masking as masking
import qkdfl.params as pvops
from qkdfl.bits import pack_bits, sha256_expand_bytes
from qkdfl.errors import (
    AggregationShapeError,
    DivergenceError,
    InvalidPairError,
    ProtocolError,
    TrainerExitError,
    UndefinedProxyError,
)
from qkdfl.masking import (
    MaskingContext,
    aggregate,
    apply_pairwise_masks,
    derive_pair_key,
    leakage_proxies,
    mask_keystream,
    pair_mask_sum,
    signs_from_bits,
)
from qkdfl.params import ParamVec

from conftest import assert_no_child_left

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "keystream_vectors.json").read_text()
)


def bits_from_str(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def seed_bits(seed=0):
    return np.random.default_rng(seed).integers(0, 2, 256, dtype=np.uint8)


def make_ctx(num_clients=4, round_index=0, seed=0, **kw):
    return MaskingContext(
        round_seed=seed_bits(seed),
        round_index=round_index,
        num_clients=num_clients,
        **kw,
    )


def mask_sum(pv, client_index, ctx):
    """`pair_mask_sum` over the client's count, as `apply_pairwise_masks`
    calls it: the layout's counts are parked first, and the client's popped."""
    key = (client_index, pvops.offsets(pv.layout))
    if key not in ctx.counts:
        masking._park_counts(ctx, key[1], 1)
    return pair_mask_sum(pv, ctx.counts.pop(key), ctx.cohort.num_clients, ctx.mask_scale)


def random_pv(rng, scale=1.0):
    return ParamVec(
        [
            ("w1", scale * rng.standard_normal((5, 3))),
            ("b1", scale * rng.standard_normal(3)),
            ("w2", scale * rng.standard_normal((2, 2, 4))),
        ]
    )


class TestDerivePairKey:
    def test_symmetry_exhaustive(self):
        for k in (2, 5, 8):
            seed = seed_bits(k)
            for i, j in itertools.combinations(range(k), 2):
                assert (derive_pair_key(seed, 0, i, j) == derive_pair_key(seed, 0, j, i)).all()

    def test_round_change_rederives_keys(self):
        a = derive_pair_key(seed_bits(3), 1, 0, 2)
        b = derive_pair_key(seed_bits(3), 2, 0, 2)
        frac = np.count_nonzero(a != b) / a.size
        assert 0.35 <= frac <= 0.65

    def test_distinct_pairs_distinct_keys(self):
        seed = seed_bits()
        assert (derive_pair_key(seed, 0, 0, 1) != derive_pair_key(seed, 0, 0, 2)).any()

    def test_self_pair_rejected(self):
        with pytest.raises(InvalidPairError):
            derive_pair_key(seed_bits(), 0, 1, 1)

    def test_out_of_range_rejected(self):
        # The KDF knows no K; a negative index is out of range for every K.
        for i, j in ((-1, 0), (2, -3)):
            with pytest.raises(InvalidPairError):
                derive_pair_key(seed_bits(), 0, i, j)

    def test_key_length(self):
        assert masking.KEY_BITS == 256
        assert derive_pair_key(seed_bits(), 0, 0, 1).size == masking.KEY_BITS

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), round_index=st.integers(0, 1000))
    def test_context_rows_are_the_pair_keys(self, k, seed, round_index):
        ctx = make_ctx(num_clients=k, round_index=round_index, seed=seed)
        bits = seed_bits(seed)
        assert len(ctx.keys) == k
        for i, row in enumerate(ctx.keys):
            assert len(row) == k
            assert [j for j, key in enumerate(row) if key is None] == [i]
            for j, key in enumerate(row):
                if j != i:
                    assert key is ctx.keys[j][i]
                    assert key == pack_bits(derive_pair_key(bits, round_index, i, j))


class TestBitsToMask:
    """Pair key -> mask values: `mask_keystream`, then `signs_from_bits`."""

    def test_sign_mapping(self):
        # keystream bit 1 -> +gamma, 0 -> -gamma
        gamma = 1e-3
        ones = signs_from_bits(np.ones(6, dtype=np.uint8), gamma)
        zeros = signs_from_bits(np.zeros((2, 2), dtype=np.uint8), gamma)
        assert (ones == gamma).all()
        assert (zeros == -gamma).all()

    def test_values_and_shape(self):
        key = make_ctx().keys[0][1]
        stream = mask_keystream(key, tensor_ordinal=2, num_bits=12)
        m = signs_from_bits(stream.reshape(3, 4), 1e-3)
        assert m.shape == (3, 4)
        assert set(np.unique(np.abs(m))) == {1e-3}

    def test_deterministic(self):
        key = make_ctx().keys[1][2]
        assert (mask_keystream(key, 0, 7) == mask_keystream(bytes(bytearray(key)), 0, 7)).all()

    def test_ordinal_varies_stream(self):
        key = make_ctx().keys[1][2]
        assert (mask_keystream(key, 0, 64) != mask_keystream(key, 1, 64)).any()

    def test_rejects_non_bits(self):
        for bad in ([0, 2], [-1, 1], [0.5], [np.nan]):
            with pytest.raises(ValueError):
                signs_from_bits(np.array(bad), 1e-3)

    def test_matches_where_bit_for_bit(self):
        bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        for gamma in (0.0, 5e-324, 3.7e-5, 1e-3, 0.1, 1.0, 1e308):
            ref = np.where(bits == 1, gamma, -gamma).astype(np.float64)
            got = signs_from_bits(bits, gamma)
            assert got.dtype == np.float64
            assert got.tobytes() == ref.tobytes()

    def test_zero_gamma_keeps_signed_zero(self):
        m = signs_from_bits(np.array([0, 1], dtype=np.uint8), 0.0)
        assert (m == 0.0).all()
        assert list(np.signbit(m)) == [True, False]

    @pytest.mark.parametrize("form", ["bit array", "bool array", "bit list"])
    def test_non_bytes_key_is_a_type_error(self, form):
        # A key is its 32 packed bytes; a bit array is never read as other bytes.
        bits = derive_pair_key(seed_bits(), 0, 0, 1)
        key = {"bit array": bits, "bool array": bits.astype(bool), "bit list": bits.tolist()}
        with pytest.raises(TypeError):
            mask_keystream(key[form], tensor_ordinal=0, num_bits=4)


GAMMAS = (0.0, -0.0, 5e-324, 3.7e-5, 1e-3, 1e308)


def where_signs(bits, gamma):
    return np.where(np.asarray(bits) == 1, gamma, -gamma).astype(np.float64)


def formula_signs(bits, gamma):
    return (2.0 * np.asarray(bits, dtype=np.float64) - 1.0) * gamma


class TestSignTable:
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_short_lengths_match_where_bytewise(self, dtype, gamma):
        rng = np.random.default_rng(17)
        for n in range(18):
            bits = rng.integers(0, 2, n).astype(dtype)
            got = signs_from_bits(bits, gamma)
            ref = where_signs(bits, gamma)
            assert got.dtype == np.float64
            assert got.shape == (n,)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_segnet_length_matches_where_bytewise(self, gamma):
        # 969,381 = one more than the SegNet parameter count, so n % 8 == 5.
        bits = np.random.default_rng(5).integers(0, 2, 969_381, dtype=np.uint8)
        assert signs_from_bits(bits, gamma).tobytes() == where_signs(bits, gamma).tobytes()

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    @pytest.mark.parametrize("shape", [(), (1, 1), (3, 5), (2, 0), (4, 9)])
    def test_shapes_are_kept(self, dtype, shape):
        bits = np.random.default_rng(3).integers(0, 2, shape).astype(dtype)
        for gamma in GAMMAS:
            got = signs_from_bits(bits, gamma)
            ref = where_signs(bits, gamma)
            assert got.shape == shape
            assert got.tobytes() == ref.tobytes()

    def test_non_contiguous_bits(self):
        bits = np.random.default_rng(8).integers(0, 2, (6, 10), dtype=np.uint8)[::2, 1::3]
        got = signs_from_bits(bits, 1e-3)
        assert got.tobytes() == where_signs(bits, 1e-3).tobytes()

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_gammas_get_their_own_tables(self, first, second):
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
        for gamma in (first, second, first):
            got = signs_from_bits(bits, gamma)
            assert got.tobytes() == formula_signs(bits, gamma).tobytes()
            assert got.tobytes() == where_signs(bits, gamma).tobytes()
        # (2b - 1) * -0.0 flips the sign of both zeros relative to +0.0.
        plus, minus = signs_from_bits(bits, 0.0), signs_from_bits(bits, -0.0)
        assert list(np.signbit(plus)) == list(bits == 0)
        assert list(np.signbit(minus)) == list(bits == 1)

    def test_result_is_writable_and_table_is_not_shared(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        a = signs_from_bits(bits, 0.25)
        a += 1.0
        assert signs_from_bits(bits, 0.25).tolist() == [0.25, -0.25, 0.25]

    @settings(max_examples=100, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), max_size=70),
        gamma=st.floats(0.0, 1e308) | st.sampled_from([-0.0, 5e-324]),
        dtype=st.sampled_from([bool, np.uint8, np.int64, np.float64]),
    )
    def test_property_matches_where_and_formula(self, bits, gamma, dtype):
        arr = np.array(bits, dtype=dtype)
        got = signs_from_bits(arr, gamma)
        assert got.tobytes() == where_signs(arr, gamma).tobytes()
        assert got.tobytes() == formula_signs(arr, gamma).tobytes()


# Output bytes of the counter blocks whose LE64 words are packed once.
TABLE_BYTES = 32 * len(bits._COUNTERS)


class TestSha256Expand:
    @settings(max_examples=50, deadline=None)
    @given(
        prefix=st.binary(max_size=80),
        num_bytes=st.integers(0, 200) | st.integers(0, TABLE_BYTES + 96),
    )
    @example(prefix=b"k" * 40, num_bytes=TABLE_BYTES - 1)
    @example(prefix=b"k" * 40, num_bytes=TABLE_BYTES)
    @example(prefix=b"k" * 40, num_bytes=TABLE_BYTES + 1)
    @example(prefix=b"k" * 40, num_bytes=TABLE_BYTES + 33)
    def test_matches_counter_mode_definition(self, prefix, num_bytes):
        blocks = b"".join(
            hashlib.sha256(prefix + struct.pack("<Q", t)).digest()
            for t in range(-(-num_bytes // 32))
        )
        assert sha256_expand_bytes(prefix, num_bytes) == blocks[:num_bytes]


class TestGoldenVectors:
    def test_pair_key_vectors(self):
        for vec in GOLDEN["pair_key"]:
            seed = bits_from_str(vec["round_seed_bits"])
            # A shorter golden key is pinned as a prefix of the KEY_BITS key.
            key = derive_pair_key(seed, vec["round_index"], vec["i"], vec["j"])[: vec["key_bits_len"]]
            assert (key == bits_from_str(vec["key_bits"])).all()

    def test_mask_keystream_vectors(self):
        for vec in GOLDEN["mask_keystream"]:
            stream = mask_keystream(
                pack_bits(bits_from_str(vec["pair_key_bits"])),
                vec["tensor_ordinal"],
                vec["num_bits"],
            )
            assert (stream == bits_from_str(vec["stream_bits"])).all()


class TestApplyPairwiseMasks:
    def test_two_client_cancellation(self):
        rng = np.random.default_rng(0)
        ctx = make_ctx(num_clients=2)
        pv0, pv1 = random_pv(rng), random_pv(rng)
        m0 = apply_pairwise_masks(pv0, 0, ctx)
        m1 = apply_pairwise_masks(pv1, 1, ctx)
        total_masked = pvops.add(m0.params, m1.params)
        total_plain = pvops.add(pv0, pv1)
        assert pvops.max_abs_diff(total_masked, total_plain) < 1e-12

    def test_zero_params_three_clients_middle(self):
        # client 1 carries +m12 - m01: elementwise in {-2g, 0, +2g}
        ctx = make_ctx(num_clients=3)
        zero = ParamVec([("a", np.zeros((6, 6)))])
        out = apply_pairwise_masks(zero, 1, ctx).params.entries[0][1]
        scaled = np.round(out / ctx.mask_scale).astype(int)
        assert set(np.unique(scaled)) <= {-2, 0, 2}
        assert np.allclose(out, scaled * ctx.mask_scale)

    def test_mask_magnitude_bound(self):
        rng = np.random.default_rng(1)
        k = 6
        ctx = make_ctx(num_clients=k)
        pv = random_pv(rng)
        masked = apply_pairwise_masks(pv, 3, ctx).params
        diff = pvops.sub(masked, pv)
        assert pvops.max_abs_diff(diff, pvops.zeros_like(pv)) <= (k - 1) * ctx.mask_scale + 1e-15

    def test_masked_update_is_exact_signed_mask_sum(self):
        # regenerating the masks independently reproduces the upload bit-for-bit
        rng = np.random.default_rng(2)
        ctx = make_ctx(num_clients=5)
        pv = random_pv(rng)
        masked = apply_pairwise_masks(pv, 2, ctx).params
        rebuilt = pvops.add(pv, mask_sum(pv, 2, ctx))
        for (_, a), (_, b) in zip(masked.entries, rebuilt.entries):
            assert (a == b).all()

    def test_structure_preserved(self):
        rng = np.random.default_rng(3)
        pv = random_pv(rng)
        out = apply_pairwise_masks(pv, 0, make_ctx()).params
        assert out.same_structure(pv)

    def test_rejects_nonfinite(self):
        pv = ParamVec([("a", np.array([1.0, np.inf]))])
        with pytest.raises(ValueError):
            apply_pairwise_masks(pv, 0, make_ctx())

    def test_out_of_range_rejected(self):
        # A negative index would otherwise pick a row from the end of the table.
        pv = ParamVec([("a", np.zeros(3))])
        for bad in (-1, 3):
            with pytest.raises(InvalidPairError):
                apply_pairwise_masks(pv, bad, make_ctx(num_clients=3))


def reference_pair_mask_sum(pv, client_index, ctx):
    """The original loop: a pair key per tensor and np.where signs."""
    out = []
    for ordinal, (name, arr) in enumerate(pv.entries):
        total = np.zeros_like(arr)
        for j in range(ctx.cohort.num_clients):
            if j == client_index:
                continue
            key = ctx.keys[client_index][j]
            stream = mask_keystream(key, ordinal, max(arr.size, 1))
            g = ctx.mask_scale
            mask = np.where(stream == 1, g, -g).astype(np.float64).reshape(arr.shape)
            if client_index < j:
                total += mask
            else:
                total -= mask
        out.append((name, total))
    return ParamVec(out)


def mixed_pv(rng):
    return ParamVec(
        [
            ("scalar", rng.standard_normal(())),
            ("one", rng.standard_normal(1)),
            ("w", rng.standard_normal((3, 3, 2, 4))),
            ("b", rng.standard_normal(4)),
            ("odd", rng.standard_normal((5, 13))),
        ]
    )


def count_pair_mask_sum(pv, client_index, ctx):
    """Per-tensor keys, np.where signs, an integer sum and one multiply by gamma."""
    out = []
    for ordinal, (name, arr) in enumerate(pv.entries):
        signed = np.zeros(arr.size, dtype=np.int64)
        for j in range(ctx.cohort.num_clients):
            if j == client_index:
                continue
            key = ctx.keys[client_index][j]
            signs = np.where(mask_keystream(key, ordinal, max(arr.size, 1)) == 1, 1, -1)
            signed += signs if client_index < j else -signs
        # + 0.0: at gamma = 0 the running sum is +0.0, never -0.0.
        out.append((name, (signed * ctx.mask_scale + 0.0).reshape(arr.shape)))
    return ParamVec(out)


def assert_matches_oracles(pv, client_index, ctx):
    """Bytewise against the count oracle; against the running sum, bytewise at
    K <= 3 (every partial sum is exact) and within K^2 * gamma * 2^-53 above."""
    k, gamma = ctx.cohort.num_clients, ctx.mask_scale
    got = mask_sum(pv, client_index, ctx)
    want = count_pair_mask_sum(pv, client_index, ctx)
    assert got.layout == want.layout
    for (_, a), (_, b) in zip(got.entries, want.entries):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    loop = reference_pair_mask_sum(pv, client_index, ctx)
    if k <= 3:
        assert got.buf.tobytes() == loop.buf.tobytes()
    else:
        assert np.abs(got.buf - loop.buf).max() <= k * k * gamma * 2.0**-53


class TestPairMaskSum:
    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.37])
    def test_matches_per_tensor_key_loop_bytewise(self, k, gamma):
        rng = np.random.default_rng(k)
        ctx = make_ctx(num_clients=k, seed=k, mask_scale=gamma)
        pv = mixed_pv(rng)
        for i in range(k):
            assert_matches_oracles(pv, i, ctx)

    @pytest.mark.parametrize(
        "k,shapes,clients",
        [
            (60, [(2, 3), (1,), (5,)], (0, 1, 29, 58, 59)),
            # K - 1 = 299 does not fit in a uint8, so the count is a uint16.
            (300, [(5,)], (0, 1, 150, 298, 299)),
        ],
    )
    def test_large_cohorts_match_count_oracle(self, k, shapes, clients):
        ctx = make_ctx(num_clients=k, seed=k, mask_scale=0.37)
        pv = ParamVec([(f"t{n}", np.zeros(shape)) for n, shape in enumerate(shapes)])
        for i in clients:
            assert_matches_oracles(pv, i, ctx)

    @pytest.mark.parametrize("k", [2, 65, 128, 129, 256, 257])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_counts_at_their_ends_scale_exactly(self, monkeypatch, k, bit):
        # Constant streams drive c to 0 or K - 1, where 2c - (K - 1) is
        # +/-(K - 1): the widest value the integer scaling must hold.
        monkeypatch.setattr(
            masking, "mask_keystream",
            lambda key, ordinal, num_bits: np.full(num_bits, bit, dtype=np.uint8),
        )
        ctx = make_ctx(num_clients=k, seed=k, mask_scale=0.37)
        pv = ParamVec([("t", np.zeros(3))])
        for i in (0, k // 2, k - 1):
            signed = k - 1 - 2 * i if bit else 2 * i - (k - 1)
            want = np.full(3, signed * 0.37 + 0.0)
            assert mask_sum(pv, i, ctx).buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [3, 4, 10, 11, 20])
    def test_exact_zero_fraction_of_a_mask_sum(self, k):
        # A client's mask sum is (2c - (K - 1)) * gamma with c ~ Binomial(K - 1, 1/2),
        # so it is exactly 0 with probability C(K - 1, (K - 1) / 2) / 2^(K - 1)
        # at odd K (0.5 at K = 3, 0.246 at K = 11) and never at even K.
        n = 100_000
        ctx = make_ctx(num_clients=k, seed=k)
        pv = ParamVec([("big", np.zeros(n))])
        for i in (0, k // 2):
            zero = np.count_nonzero(mask_sum(pv, i, ctx).buf == 0.0) / n
            if k % 2 == 0:
                assert zero == 0.0
                continue
            p = math.comb(k - 1, (k - 1) // 2) / 2 ** (k - 1)
            # Five binomial standard deviations: about 0.008 at K = 3.
            assert abs(zero - p) <= 5 * math.sqrt(p * (1 - p) / n)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), round_index=st.integers(0, 1000))
    def test_pair_key_symmetry(self, data, seed, round_index):
        k = data.draw(st.integers(2, 10))
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(0, k - 1).filter(lambda j: j != i))
        key_ij = derive_pair_key(seed_bits(seed), round_index, i, j)
        assert (key_ij == derive_pair_key(seed_bits(seed), round_index, j, i)).all()

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 8),
        shapes=st.lists(
            st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=4
        ),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_masks_cancel_over_all_clients(self, k, shapes, gamma, seed):
        ctx = make_ctx(num_clients=k, seed=seed, mask_scale=gamma)
        pv = ParamVec([(f"t{n}", np.zeros(shape)) for n, shape in enumerate(shapes)])
        total = pvops.zeros_like(pv)
        for i in range(k):
            total = pvops.add(total, mask_sum(pv, i, ctx))
        assert pvops.max_abs_diff(total, pvops.zeros_like(pv)) <= 1e-12


class TestAggregate:
    def masked_batch(self, pvs, ctx):
        return [apply_pairwise_masks(pv, k, ctx) for k, pv in enumerate(pvs)]

    def test_zero_updates_cancel(self):
        ctx = make_ctx(num_clients=3)
        zeros = [ParamVec([("a", np.zeros((8, 8)))]) for _ in range(3)]
        agg = aggregate(self.masked_batch(zeros, ctx))
        assert np.max(np.abs(agg.entries[0][1])) < 1e-12

    def test_scalar_mean(self):
        ctx = make_ctx(num_clients=2)
        pvs = [ParamVec([("x", np.array([1.0]))]), ParamVec([("x", np.array([3.0]))])]
        agg = aggregate(self.masked_batch(pvs, ctx))
        assert abs(agg.entries[0][1][0] - 2.0) < 1e-12

    def test_cancellation_across_k(self):
        rng = np.random.default_rng(4)
        for k in range(2, 9):
            ctx = make_ctx(num_clients=k, seed=k)
            pvs = [random_pv(rng) for _ in range(k)]
            agg = aggregate(self.masked_batch(pvs, ctx))
            assert pvops.max_abs_diff(agg, pvops.mean(pvs)) <= 1e-5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        ctx = make_ctx(num_clients=4)
        batch = self.masked_batch([random_pv(rng) for _ in range(4)], ctx)
        a = aggregate(batch)
        b = aggregate(list(reversed(batch)))
        assert pvops.max_abs_diff(a, b) == 0.0

    def test_structural_mismatch(self):
        ctx = make_ctx(num_clients=2)
        good = apply_pairwise_masks(ParamVec([("a", np.zeros(3))]), 0, ctx)
        bad = apply_pairwise_masks(ParamVec([("a", np.zeros(4))]), 1, ctx)
        with pytest.raises(AggregationShapeError):
            aggregate([good, bad])

    def test_mixed_rounds_rejected(self):
        pv = ParamVec([("a", np.zeros(3))])
        a = apply_pairwise_masks(pv, 0, make_ctx(round_index=0))
        b = apply_pairwise_masks(pv, 1, make_ctx(round_index=1))
        with pytest.raises(ProtocolError):
            aggregate([a, b])

    def test_duplicate_clients_rejected(self):
        # Client 0 twice: once in place of client 1, once on top of the cohort.
        pv = ParamVec([("a", np.zeros(3))])
        ctx = make_ctx(num_clients=3)
        for clients in ([0, 0, 2], [0, 1, 2, 0]):
            with pytest.raises(ProtocolError, match="clients 0..2 of K = 3"):
                aggregate([apply_pairwise_masks(pv, c, ctx) for c in clients])

    def test_missing_client_rejected(self):
        # Without client 2's upload, m_02 and m_12 stay in the mean.
        rng = np.random.default_rng(10)
        ctx = make_ctx(num_clients=3)
        batch = self.masked_batch([random_pv(rng) for _ in range(3)], ctx)
        for dropped in range(3):
            with pytest.raises(ProtocolError):
                aggregate(batch[:dropped] + batch[dropped + 1:])

    def test_two_contexts_of_one_round_rejected(self):
        # Same round and K, other pair keys: the masks would not cancel, and the
        # mean would be off by about gamma.
        rng = np.random.default_rng(13)
        pvs = [random_pv(rng) for _ in range(3)]
        first, second = make_ctx(num_clients=3, seed=1), make_ctx(num_clients=3, seed=2)
        batch = [apply_pairwise_masks(pvs[c], c, second if c == 2 else first) for c in range(3)]
        want = r"2 masking contexts: \(round, K\) \[\(0, 3\), \(0, 3\), \(0, 3\)\]"
        with pytest.raises(ProtocolError, match=want):
            aggregate(batch)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 2),
        round_index=st.integers(0, 1000),
    )
    def test_only_a_full_cohort_of_one_context_aggregates(self, data, k, seed, round_index):
        rng = np.random.default_rng(seed)
        pvs = [random_pv(rng) for _ in range(k)]
        ctx = make_ctx(num_clients=k, round_index=round_index, seed=seed)
        batch = self.masked_batch(pvs, ctx)
        want = aggregate(batch).buf.tobytes()
        kind = data.draw(st.sampled_from(
            ["permuted", "duplicate", "foreign"] + (["subset"] if k > 2 else [])
        ))
        if kind == "subset":
            batch = data.draw(st.lists(
                st.sampled_from(batch), min_size=2, max_size=k - 1, unique_by=id
            ))
        elif kind == "duplicate":
            batch = batch + [batch[data.draw(st.integers(0, k - 1))]]
        elif kind == "foreign":
            other = make_ctx(num_clients=k, round_index=round_index, seed=seed + 1)
            c = data.draw(st.integers(0, k - 1))
            batch[c] = apply_pairwise_masks(pvs[c], c, other)
        batch = data.draw(st.permutations(batch))
        if kind == "permuted":
            assert aggregate(batch).buf.tobytes() == want
        else:
            with pytest.raises(ProtocolError):
                aggregate(batch)

    def test_mixed_cohort_sizes_rejected(self):
        pv = ParamVec([("a", np.zeros(3))])
        pair = self.masked_batch([pv, pv], make_ctx(num_clients=2))
        third = apply_pairwise_masks(pv, 2, make_ctx(num_clients=3))
        with pytest.raises(ProtocolError):
            aggregate(pair + [third])

    @pytest.mark.parametrize(
        "k,gamma",
        [(3, 1e308), (4, 5.9e307), (20, 9e306)],
        ids=["mask-overflows", "sum-overflows-k4", "sum-overflows-k20"],
    )
    def test_non_finite_mean_is_divergence(self, k, gamma):
        # At K = 3 a mask of 2 * gamma is already inf; at K = 4 and K = 20
        # every mask is finite and only the running sum of the uploads is not.
        rng = np.random.default_rng(12)
        batch = self.masked_batch(
            [random_pv(rng) for _ in range(k)], make_ctx(num_clients=k, mask_scale=gamma)
        )
        assert all(m.params.all_finite() for m in batch) == (k > 3)
        with pytest.raises(DivergenceError, match="not finite"):
            aggregate(batch)


class TestPairStreamMemo:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(2, 6),
        shapes=st.lists(
            st.lists(st.integers(1, 9), max_size=3).map(tuple), min_size=1, max_size=4
        ),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_context_matches_fresh_contexts(self, data, k, shapes, gamma, seed):
        order = data.draw(st.permutations(range(k)))
        repeat = data.draw(st.none() | st.integers(0, k - 1))
        if repeat is not None:
            order.insert(data.draw(st.integers(0, len(order))), repeat)
        rng = np.random.default_rng(seed)
        pvs = [
            ParamVec([(f"t{n}", rng.standard_normal(s)) for n, s in enumerate(shapes)])
            for _ in range(k)
        ]
        ctx = make_ctx(num_clients=k, seed=seed, mask_scale=gamma)
        for step, c in enumerate(order):
            got = apply_pairwise_masks(pvs[c], c, ctx).params
            fresh = make_ctx(num_clients=k, seed=seed, mask_scale=gamma)
            ref = apply_pairwise_masks(pvs[c], c, fresh).params
            assert got.buf.tobytes() == ref.buf.tobytes()
            if step == 0:
                parked = dict(ctx.counts)
                for bad in (-1, k):
                    with pytest.raises(InvalidPairError):
                        apply_pairwise_masks(pvs[0], bad, ctx)
                assert ctx.counts.keys() == parked.keys()
        offsets = pvops.offsets(pvs[0].layout)
        if repeat is None:
            assert ctx.counts == {}
        else:
            # The repeat's second mask runs a second pass, which parks again
            # the counts of the clients that masked before it: they are left,
            # at most K - 1 of them.
            second = len(order) - 1 - order[::-1].index(repeat)
            before = set(order[:second]) - {repeat}
            assert ctx.counts.keys() == {(i, offsets) for i in before}
            assert len(ctx.counts) <= k - 1

    def test_streams_are_not_shared_across_layouts(self):
        # The second end's upload has another layout, so it must expand its own.
        ctx = make_ctx(num_clients=2)
        apply_pairwise_masks(ParamVec([("a", np.zeros(3))]), 0, ctx)
        pv = ParamVec([("a", np.zeros(20))])
        got = apply_pairwise_masks(pv, 1, ctx).params
        ref = apply_pairwise_masks(pv, 1, make_ctx(num_clients=2)).params
        assert got.buf.tobytes() == ref.buf.tobytes()

    def test_each_pair_expanded_once_per_cohort(self, monkeypatch):
        counts = {"keys": 0, "streams": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            masking, "derive_pair_key", counted("keys", masking.derive_pair_key)
        )
        monkeypatch.setattr(
            masking, "mask_keystream", counted("streams", masking.mask_keystream)
        )
        k = 6
        rng = np.random.default_rng(11)
        pvs = [mixed_pv(rng) for _ in range(k)]
        tensors = len(pvs[0].entries)
        ctx = make_ctx(num_clients=k)
        # The context derives every pair key once; masking derives none.
        assert counts == {"keys": k * (k - 1) // 2, "streams": 0}
        # The third cohort's pass is past _PARALLEL_MIN_BLOCKS, in one process.
        for threshold, processes in [(masking._PARALLEL_MIN_BLOCKS, None)] * 2 + [(0, 1)]:
            monkeypatch.setattr(masking, "_PARALLEL_MIN_BLOCKS", threshold)
            counts.update(keys=0, streams=0)
            batch = [apply_pairwise_masks(pv, c, ctx, processes) for c, pv in enumerate(pvs)]
            assert counts == {"keys": 0, "streams": k * (k - 1) // 2 * tensors}
            assert ctx.counts == {}
            assert pvops.max_abs_diff(aggregate(batch), pvops.mean(pvs)) <= 1e-12

    def test_mask_sum_hashes_nothing_once_the_layout_is_parked(self, monkeypatch):
        k = 5
        rng = np.random.default_rng(12)
        pv = mixed_pv(rng)
        ctx = make_ctx(num_clients=k, mask_scale=0.37)
        want = [count_pair_mask_sum(pv, c, ctx) for c in range(k)]
        offsets = pvops.offsets(pv.layout)
        masking._park_counts(ctx, offsets, 1)
        assert ctx.counts.keys() == {(c, offsets) for c in range(k)}

        def mask_keystream(*args):
            raise AssertionError("a parked count was hashed again")

        monkeypatch.setattr(masking, "mask_keystream", mask_keystream)
        for c in range(k):
            assert mask_sum(pv, c, ctx).buf.tobytes() == want[c].buf.tobytes()
        assert ctx.counts == {}


class TestParallelPass:
    """A pass past _PARALLEL_MIN_BLOCKS expands every unparked pair's stream
    in forked processes at once, with the bytes of a pass in one process."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(2, 7),
        shapes=st.lists(
            st.sampled_from([(), (1,)]) | st.lists(st.integers(1, 9), max_size=3).map(tuple),
            min_size=1, max_size=4,
        ),
        processes=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uploads_match_a_fresh_serial_context(self, data, k, shapes, processes, seed):
        order = data.draw(st.permutations(range(k)))
        order.insert(data.draw(st.integers(0, k)), data.draw(st.integers(0, k - 1)))
        rng = np.random.default_rng(seed)
        pvs = [
            ParamVec([(f"t{n}", rng.standard_normal(s)) for n, s in enumerate(shapes)])
            for _ in range(k)
        ]
        ctx = make_ctx(num_clients=k, seed=seed)
        forks, fork = [0], os.fork

        def counting_fork():
            forks[0] += 1
            return fork()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(masking, "_PARALLEL_MIN_BLOCKS", 0)
            mp.setattr(os, "fork", counting_fork)
            for c in order:
                got = apply_pairwise_masks(pvs[c], c, ctx, processes).params
                fresh = make_ctx(num_clients=k, seed=seed)
                ref = apply_pairwise_masks(pvs[c], c, fresh, 1).params
                assert got.buf.tobytes() == ref.buf.tobytes()
        # The first pass deals the K(K - 1)/2 pairs to min(processes, pairs) processes.
        assert forks[0] >= min(processes, k * (k - 1) // 2) - 1
        assert_no_child_left()

    def test_real_size_pass_forks_at_the_threshold(self, forks):
        # One 270,000-parameter tensor takes 1,055 blocks per pair: 200,450
        # for the 190 pairs of K = 20, with the threshold left as it ships.
        k, n = 20, 270_000
        assert k * (k - 1) // 2 * -(-n // 256) >= masking._PARALLEL_MIN_BLOCKS
        rng = np.random.default_rng(20)
        pvs = [ParamVec([("w", rng.standard_normal(n))]) for _ in range(k)]

        def digests(processes):
            ctx = make_ctx(num_clients=k, seed=k)
            batch = [apply_pairwise_masks(pv, c, ctx, processes) for c, pv in enumerate(pvs)]
            assert ctx.counts == {}
            uploads = [m.params.buf for m in batch] + [aggregate(batch).buf]
            return [hashlib.sha256(buf.tobytes()).hexdigest() for buf in uploads]

        serial = digests(1)
        assert forks == [0]
        assert digests(2) == serial
        assert forks[0] >= 1
        assert_no_child_left()

    @pytest.mark.parametrize("threshold,children", [(9, 1), (10, 0)])
    def test_threshold_counts_the_pass_blocks(self, monkeypatch, forks, threshold, children):
        # 300 elements take 2 blocks and 1 element 1: 3 per pair, 9 for K = 3.
        monkeypatch.setattr(masking, "_PARALLEL_MIN_BLOCKS", threshold)
        pv = ParamVec([("w", np.ones(300)), ("b", np.ones(1))])
        ctx = make_ctx(num_clients=3)
        apply_pairwise_masks(pv, 0, ctx, 2)
        assert forks == [children]
        offsets = pvops.offsets(pv.layout)
        assert ctx.counts.keys() == {(1, offsets), (2, offsets)}

    @pytest.mark.parametrize("on_thread,processes", [(True, 3), (False, 1)])
    def test_forks_nothing_on_a_second_thread_or_in_one_process(
        self, monkeypatch, forks, on_thread, processes
    ):
        monkeypatch.setattr(masking, "_PARALLEL_MIN_BLOCKS", 0)
        rng = np.random.default_rng(5)
        pvs = [mixed_pv(rng) for _ in range(4)]

        def uploads(processes):
            ctx = make_ctx(num_clients=4)
            return [apply_pairwise_masks(pv, c, ctx, processes).params.buf.tobytes()
                    for c, pv in enumerate(pvs)]

        serial = uploads(1)
        out = []
        if on_thread:
            worker = threading.Thread(target=lambda: out.append(uploads(processes)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        else:
            out.append(uploads(processes))
        assert forks == [0]
        assert out == [serial]

    def test_child_exit_without_streams_named(self, monkeypatch, deadline):
        monkeypatch.setattr(masking, "_PARALLEL_MIN_BLOCKS", 0)
        caller, real = os.getpid(), masking.mask_keystream

        def mask_keystream(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(masking, "mask_keystream", mask_keystream)
        ctx = make_ctx(num_clients=3)
        # Pairs (0, 1), (0, 2), (1, 2) dealt round-robin: the child has (0, 2).
        with pytest.raises(
            TrainerExitError, match=r"keystream process of pairs \[\(0, 2\)\] exited with code 3"
        ):
            apply_pairwise_masks(random_pv(np.random.default_rng(0)), 0, ctx, 2)
        assert ctx.counts == {}
        assert_no_child_left()

    def test_interrupt_kills_a_child_blocked_on_a_full_pipe(self, monkeypatch, deadline):
        """The caller is interrupted while the child blocks writing a packed
        stream of 125,000 bytes, more than a pipe holds: the child is killed
        and reaped."""
        monkeypatch.setattr(masking, "_PARALLEL_MIN_BLOCKS", 0)
        caller = os.getpid()
        expanded, signal_expanded = os.pipe()

        def mask_keystream(key, ordinal, num_bits):
            if os.getpid() == caller:
                os.read(expanded, 1)  # the child has its stream
                time.sleep(0.2)  # and is now blocked writing it
                raise KeyboardInterrupt
            os.write(signal_expanded, b"x")
            return np.zeros(num_bits, dtype=np.uint8)

        monkeypatch.setattr(masking, "mask_keystream", mask_keystream)
        try:
            with pytest.raises(KeyboardInterrupt):
                apply_pairwise_masks(
                    ParamVec([("w", np.zeros(1_000_000))]), 0, make_ctx(num_clients=3), 2
                )
        finally:
            os.close(expanded)
            os.close(signal_expanded)
        assert_no_child_left()


# Layouts with tensor sizes 15, 1, 12, 1,073 and 1 (a 0-d tensor), none a
# multiple of 8; at K = 257 a tiny one keeps the 32,896 pair keys cheap.
PIN_SHAPES = [(3, 5), (1,), (2, 2, 3), (37, 29), ()]
TINY_SHAPES = [(3,), (2, 5)]


PINNED_DIGESTS = [
    (2, 0.0, "1f161e3871fec9a8f76e48e199b0c99bb3d5892a92c067dae0ec910615fd4757"),
    (2, -0.0, "1f161e3871fec9a8f76e48e199b0c99bb3d5892a92c067dae0ec910615fd4757"),
    (2, 1e-3, "8f7b9384bffe5bbb3d79d2f5273beeb70134a0076781c690d8b2214ce3ae300d"),
    (2, 1e300, "7cb5bd795d435b1b369fdbcf11393e1f89d28d85b39a7f437d7dcb988be99484"),
    (3, 0.0, "5387843506fc4ef49be360b4bb287f5449cc535b9e2ef0f8efd21c6e497c233c"),
    (3, -0.0, "5387843506fc4ef49be360b4bb287f5449cc535b9e2ef0f8efd21c6e497c233c"),
    (3, 1e-3, "7255ecc08b7c1f53144c263f62d8b18b96ef7c82501739347c89a884d6005946"),
    (3, 1e300, "a89084eadde095422b7e9709e14ab5638e9516a7e059835af1000e1b265746dd"),
    (20, 0.0, "7d0dbbd25dc35a4c0be3fe9a1b7a85f7ef6cda982c11c176b86ac58eb618c255"),
    (20, -0.0, "7d0dbbd25dc35a4c0be3fe9a1b7a85f7ef6cda982c11c176b86ac58eb618c255"),
    (20, 1e-3, "b87db9b1212dd54de061fa0a19fda79914035e2ae1436d3f554f82304bde3a19"),
    (20, 1e300, "16e5fa3662399a2a93c8550f8bfeb62183f7b8712f00346101ae300724999bba"),
    (65, 0.0, "83342842572ebaf4b51e21969df95f4789499679713c23375cce45337a100423"),
    (65, -0.0, "83342842572ebaf4b51e21969df95f4789499679713c23375cce45337a100423"),
    (65, 1e-3, "e1d6fcf4bd0f04090b7aa3f023607bfe3a8a944a1da59482ca3238a307aec74e"),
    (65, 1e300, "0cae0f7093f4b65da35f03167e88674b42802093b1218eb1bf68ba86236b9fb6"),
    (257, 0.0, "996027fd4c8ecd9ef607582509dc9f019528865a224d90ee01591530c74834e5"),
    (257, -0.0, "996027fd4c8ecd9ef607582509dc9f019528865a224d90ee01591530c74834e5"),
    (257, 1e-3, "e7c731e04e4b62bd6e78eaaa6e9b40b243193a53e6638f49473e549f542eee27"),
    (257, 1e300, "b99824783100a7bbc58526ac3bca2695a1787509ec7f2f9efd4bb3f94c53b7d6"),
]


def cohort_digest(k, gamma, processes):
    """SHA-256 over every upload of a K-client cohort and its aggregate."""
    ctx = make_ctx(num_clients=k, seed=k, mask_scale=gamma)
    rng = np.random.default_rng(k)
    shapes = TINY_SHAPES if k == 257 else PIN_SHAPES
    pvs = [
        ParamVec([(f"t{n}", rng.standard_normal(s)) for n, s in enumerate(shapes)])
        for _ in range(k)
    ]
    for pv in pvs:
        # -0.0 + -0.0 is the one sum that keeps a -0.0 mask element.
        pv.buf[::3] = -0.0
        pv.buf[1::5] = 0.0
    h = hashlib.sha256()
    batch = [apply_pairwise_masks(pv, c, ctx, processes) for c, pv in enumerate(pvs)]
    for m in batch:
        h.update(m.params.buf.tobytes())
    h.update(aggregate(batch).buf.tobytes())
    return h.hexdigest()


class TestCohortDigests:
    """SHA-256 over every client's masked upload and the aggregate, pinned
    from the float-domain scaling (count -> float64, x2, -(K - 1), xgamma,
    +0.0) that the integer-domain scaling replaced.  At K = 65 the doubled
    count reaches 128, past int8; K = 257 needs a 16-bit count; gamma =
    +/-0.0 takes the +0.0 fix-up; at 1e300 every upload, up to 256e300 in
    magnitude, is still finite.  A pass in one process and a forked one give
    the same digests."""

    pinned = pytest.mark.parametrize(
        "k,gamma,digest", PINNED_DIGESTS, ids=lambda v: v[:8] if isinstance(v, str) else None
    )

    @pinned
    def test_uploads_and_aggregate_are_pinned(self, k, gamma, digest):
        assert cohort_digest(k, gamma, processes=1) == digest

    @pinned
    def test_parallel_pass_gives_the_pinned_digests(self, monkeypatch, k, gamma, digest):
        monkeypatch.setattr(masking, "_PARALLEL_MIN_BLOCKS", 0)
        assert cohort_digest(k, gamma, processes=2) == digest


class TestParamsMean:
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 20])
    def test_matches_stacked_mean_bytewise(self, k):
        # One-element tensors included: numpy sums their K values pairwise.
        rng = np.random.default_rng(k)
        pvs = [mixed_pv(rng) for _ in range(k)]
        got = pvops.mean(pvs)
        for idx, (name, arr) in enumerate(got.entries):
            ref = np.asarray(np.stack([pv.entries[idx][1] for pv in pvs]).mean(axis=0))
            assert arr.shape == ref.shape, name
            assert arr.tobytes() == ref.tobytes(), name

    def test_inputs_untouched(self):
        rng = np.random.default_rng(0)
        pvs = [random_pv(rng) for _ in range(3)]
        before = [pv.copy() for pv in pvs]
        pvops.mean(pvs)
        for a, b in zip(pvs, before):
            assert pvops.max_abs_diff(a, b) == 0.0


class TestLeakageProxies:
    def test_identical_deltas(self):
        rng = np.random.default_rng(6)
        pv = random_pv(rng)
        assert leakage_proxies(pv, pv) == (1.0, 1.0)

    def test_negated_deltas(self):
        rng = np.random.default_rng(7)
        pv = random_pv(rng)
        cos, pear = leakage_proxies(pv, ParamVec.from_buffer(pv.layout, -pv.flat()))
        assert abs(cos + 1.0) < 1e-12
        assert abs(pear + 1.0) < 1e-12

    def test_large_mask_lowers_cosine(self):
        rng = np.random.default_rng(8)
        true = random_pv(rng, scale=1e-6)
        ctx = make_ctx(num_clients=4, **{"mask_scale": 1.0})
        masked = apply_pairwise_masks(true, 0, ctx).params
        cos, _ = leakage_proxies(true, masked)
        assert cos < 1.0

    def test_zero_norm_rejected(self):
        z = ParamVec([("a", np.zeros(4))])
        with pytest.raises(UndefinedProxyError):
            leakage_proxies(z, z)


class TestMaskingContext:
    def test_short_seed_rejected(self):
        with pytest.raises(ValueError):
            MaskingContext(
                round_seed=np.ones(100, dtype=np.uint8), round_index=0, num_clients=2
            )

    @pytest.mark.parametrize(
        "seed",
        [np.full(256, 0.9), np.full(256, 7), np.full(256, -1), np.full(256, np.nan)],
    )
    def test_non_bit_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="round_seed"):
            MaskingContext(round_seed=seed, round_index=0, num_clients=2)

    def test_bit_seed_of_any_dtype_accepted(self):
        bits = np.random.default_rng(4).integers(0, 2, 256)
        ref = MaskingContext(round_seed=bits.astype(np.uint8), round_index=0, num_clients=2)
        for dtype in (bool, np.int64, np.float64):
            ctx = MaskingContext(round_seed=bits.astype(dtype), round_index=0, num_clients=2)
            assert type(ctx.keys[0][1]) is bytes
            assert ctx.keys[0][1] == ref.keys[0][1]

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError):
            make_ctx(mask_scale=gamma)

    def test_single_client_rejected(self):
        with pytest.raises(ValueError):
            make_ctx(num_clients=1)

    @pytest.mark.parametrize("field", ["round_index", "num_clients"])
    @pytest.mark.parametrize("value", [True, 1.5, 2.5, "1", -1])
    def test_round_and_cohort_size_are_integers(self, field, value):
        # As BB84Config checks its seed: named, not a struct or range error;
        # -1 fails the bound instead, with its own message.
        with pytest.raises(ValueError, match=field):
            make_ctx(**{field: value})

    def test_numpy_integers_become_ints(self):
        ctx = make_ctx(num_clients=np.int64(3), round_index=np.int64(1))
        assert type(ctx.cohort.round_index) is int and type(ctx.cohort.num_clients) is int
        assert ctx.cohort.round_index == 1
        assert ctx.keys == make_ctx(num_clients=3, round_index=1).keys

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            make_ctx(**{"mask_scale": -1e-3})

    def test_zero_gamma_degenerate_mode(self):
        rng = np.random.default_rng(9)
        ctx = make_ctx(num_clients=3, **{"mask_scale": 0.0})
        pv = random_pv(rng)
        masked = apply_pairwise_masks(pv, 0, ctx).params
        assert pvops.max_abs_diff(masked, pv) == 0.0

    def test_cross_round_keys_all_change(self):
        k = 5
        ctx0 = make_ctx(num_clients=k, round_index=0, seed=11)
        ctx1 = make_ctx(num_clients=k, round_index=1, seed=11)
        for i, j in itertools.combinations(range(k), 2):
            assert ctx0.keys[i][j] != ctx1.keys[i][j]

    def test_keeps_no_round_seed(self):
        seed = seed_bits(13)
        packed = np.packbits(seed).tobytes()
        ctx = MaskingContext(round_seed=seed, round_index=0, num_clients=3)
        rng = np.random.default_rng(13)
        for c in range(2):  # two of three clients mask, so a count stays parked
            apply_pairwise_masks(random_pv(rng), c, ctx)
        assert ctx.counts

        def leaves(value):
            if isinstance(value, (list, tuple)):
                for item in value:
                    yield from leaves(item)
            elif isinstance(value, dict):
                for item in itertools.chain(value.keys(), value.values()):
                    yield from leaves(item)
            else:
                yield value

        for value in leaves(list(vars(ctx).values())):
            assert value is not seed
            if isinstance(value, np.ndarray):
                assert not np.shares_memory(value, seed)
                assert not np.array_equal(value, seed)
                assert value.tobytes() not in (packed, seed.tobytes())
            elif isinstance(value, (bytes, bytearray)):
                assert value not in (packed, seed.tobytes())


class TestGuards:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: apply_pairwise_masks(
                    ParamVec([("w", np.zeros((0, 3))), ("b", np.ones(2))]), 0, make_ctx()
                ),
                ValueError, "cannot mask a tensor with no elements", id="empty-first-tensor",
            ),
            pytest.param(
                lambda: apply_pairwise_masks(
                    ParamVec([("b", np.ones(2)), ("w", np.zeros((3, 0)))]), 1, make_ctx()
                ),
                ValueError, "cannot mask a tensor with no elements", id="empty-last-tensor",
            ),
            pytest.param(
                lambda: apply_pairwise_masks(ParamVec([("a", np.ones(2))]), 0, make_ctx(), 0),
                ValueError, "processes must be >= 1, got 0", id="no-processes",
            ),
            pytest.param(
                lambda: aggregate([apply_pairwise_masks(ParamVec([("a", np.ones(2))]), 0, make_ctx())]),
                AggregationShapeError, "at least two masked updates", id="one-upload",
            ),
            pytest.param(
                lambda: leakage_proxies(ParamVec([("a", np.ones(2))]), ParamVec([("b", np.ones(2))])),
                ValueError, "deltas are structurally incompatible", id="structure",
            ),
            pytest.param(
                # Nonzero norms, so the cosine is defined; the masked delta is constant.
                lambda: leakage_proxies(
                    ParamVec([("a", np.array([1.0, 2.0, 3.0]))]), ParamVec([("a", np.full(3, 5.0))])
                ),
                UndefinedProxyError, "Pearson correlation is undefined for constant deltas",
                id="constant-delta",
            ),
        ],
    )
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
