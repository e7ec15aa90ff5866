import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdfl import qkd
from qkdfl.errors import DegenerateSessionError
from qkdfl.qkd import BB84Config, privacy_amplify, qber_of, run_bb84, substream_draws


def pooled_qber(configs):
    sessions = [run_bb84(c) for c in configs]
    errors = sum(s.qber * s.sifted_len for s in sessions)
    total = sum(s.sifted_len for s in sessions)
    return errors / total, sessions


class TestConfigValidation:
    def test_raw_len_floor(self):
        with pytest.raises(ValueError):
            BB84Config(raw_len=63)

    def test_pa_ratio_range(self):
        with pytest.raises(ValueError):
            BB84Config(pa_ratio=0.0)
        with pytest.raises(ValueError):
            BB84Config(pa_ratio=1.2)

    def test_noise_range(self):
        with pytest.raises(ValueError):
            BB84Config(depolarize_prob=-0.1)
        with pytest.raises(ValueError):
            BB84Config(depolarize_prob=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", 2.0), ("rng_seed", True),
         ("rng_seed", "7"), ("rng_seed", None), ("raw_len", 2000.0), ("raw_len", False)],
    )
    def test_seed_and_length_are_integers(self, field, value):
        # Caught here, not later inside numpy with an unnamed error.
        with pytest.raises(ValueError, match=field):
            BB84Config(**{field: value})

    def test_numpy_integers_become_ints(self):
        cfg = BB84Config(raw_len=np.int64(100), rng_seed=np.uint64(2**64 - 1))
        assert type(cfg.raw_len) is int and type(cfg.rng_seed) is int
        assert run_bb84(cfg) == run_bb84(BB84Config(raw_len=100, rng_seed=2**64 - 1))


class TestQberOf:
    def test_identical_strings(self):
        bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        mask = np.ones(5, dtype=bool)
        assert qber_of(bits, bits, mask) == 0.0

    def test_complementary_strings(self):
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert qber_of(a, 1 - a, np.ones(4, dtype=bool)) == 1.0

    def test_hand_count(self):
        # alice=0101, bob=0111, full mask: one mismatch out of four
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        b = np.array([0, 1, 1, 1], dtype=np.uint8)
        assert qber_of(a, b, np.ones(4, dtype=bool)) == 0.25

    def test_mask_restricts_comparison(self):
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        b = np.array([1, 1, 1, 1], dtype=np.uint8)
        mask = np.array([False, True, False, True])
        assert qber_of(a, b, mask) == 0.0

    def test_returns_a_python_float(self):
        # Run CSVs write the value with repr, so a numpy scalar would change them.
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert type(qber_of(a, 1 - a, np.ones(4, dtype=bool))) is float

    def test_empty_sift_set(self):
        a = np.zeros(4, dtype=np.uint8)
        with pytest.raises(DegenerateSessionError):
            qber_of(a, a, np.zeros(4, dtype=bool))


NON_BITS = [
    [0.5, 1.7, 1.0],
    [0, 2, 1],
    [0, -1, 1],
    [0, 1, np.nan],
    np.array([0, 255, 1], dtype=np.uint8),
    np.array([0, 1, -1], dtype=np.int8),
]


class TestNonBitsRejected:
    @pytest.mark.parametrize("bad", NON_BITS)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_qber_of(self, bad, position):
        args = [[0, 1, 1], [0, 1, 1], [1, 1, 1]]
        args[position] = bad
        with pytest.raises(ValueError, match="0/1"):
            qber_of(*args)

    @pytest.mark.parametrize("bad", NON_BITS)
    def test_privacy_amplify(self, bad):
        with pytest.raises(ValueError, match="0/1"):
            privacy_amplify(bad, 8)

    def test_bool_and_integer_bits_agree(self):
        rng = np.random.default_rng(3)
        a, b, m = (rng.integers(0, 2, 64, dtype=np.uint8) for _ in range(3))
        want = qber_of(a, b, m.astype(bool))
        for dtype in (bool, np.int64, np.float64):
            assert qber_of(a.astype(dtype), b.astype(dtype), m.astype(dtype)) == want
        key = privacy_amplify(a, 256)
        for dtype in (bool, np.int64, np.float64):
            assert (privacy_amplify(a.astype(dtype), 256) == key).all()


class TestPrivacyAmplify:
    def test_output_length(self):
        rng = np.random.default_rng(0)
        sifted = rng.integers(0, 2, 1000, dtype=np.uint8)
        out = privacy_amplify(sifted, 800)
        assert out.size == 800

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        sifted = rng.integers(0, 2, 500, dtype=np.uint8)
        a = privacy_amplify(sifted, 256)
        b = privacy_amplify(sifted.copy(), 256)
        assert (a == b).all()

    def test_avalanche_on_single_bit_flip(self):
        rng = np.random.default_rng(2)
        sifted = rng.integers(0, 2, 500, dtype=np.uint8)
        flipped = sifted.copy()
        flipped[137] ^= 1
        a = privacy_amplify(sifted, 256)
        b = privacy_amplify(flipped, 256)
        frac = np.count_nonzero(a != b) / 256
        assert 0.35 <= frac <= 0.65

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros(0, dtype=np.uint8), 10)

    def test_expansion_beyond_input_allowed(self):
        out = privacy_amplify(np.array([1], dtype=np.uint8), 256)
        assert out.size == 256

    def test_zero_length_is_an_empty_key(self):
        out = privacy_amplify(np.array([1, 0, 1], dtype=np.uint8), 0)
        assert out.size == 0
        with pytest.raises(ValueError, match="final_len"):
            privacy_amplify(np.array([1, 0, 1], dtype=np.uint8), -1)


class TestRunBB84:
    def test_clean_channel_zero_qber_every_seed(self):
        for seed in range(50):
            s = run_bb84(BB84Config(rng_seed=seed))
            assert s.qber == 0.0

    def test_final_len_rule(self):
        for seed in (0, 1, 2):
            for ratio in (0.5, 0.8, 1.0):
                s = run_bb84(BB84Config(rng_seed=seed, pa_ratio=ratio))
                assert s.final_len == int(ratio * s.sifted_len)
                assert s.key.size == s.final_len

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        raw_len=st.integers(64, 3000),
        ratio=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_final_key_never_longer_than_sifted(self, seed, raw_len, ratio):
        s = run_bb84(BB84Config(raw_len=raw_len, pa_ratio=ratio, rng_seed=seed))
        assert s.final_len <= s.sifted_len
        assert s.key.size == s.final_len

    def test_short_session_gives_an_empty_key(self):
        # 64 raw qubits sift to about 32 bits, and 1% of that rounds to 0.
        s = run_bb84(BB84Config(raw_len=64, pa_ratio=0.01, rng_seed=0))
        assert 0 < s.sifted_len < 100
        assert s.final_len == 0
        assert s.key.size == 0

    def test_sifted_len_single_seed_bound(self):
        # Binomial(l, 1/2): any one draw within 3 standard deviations
        l = 2000
        bound = 3 * np.sqrt(l * 0.25)
        for seed in range(20):
            s = run_bb84(BB84Config(raw_len=l, rng_seed=seed))
            assert abs(s.sifted_len - l / 2) < bound

    def test_sifted_len_pooled_mean(self):
        l = 2000
        lens = [run_bb84(BB84Config(raw_len=l, rng_seed=s)).sifted_len for s in range(1000)]
        assert abs(np.mean(lens) - l / 2) < 0.01 * (l / 2)

    def test_eve_qber_near_quarter(self):
        # per-sifted-bit error probability is exactly 1/4 under intercept-resend
        configs = [BB84Config(rng_seed=s, eve_present=True) for s in range(200)]
        pooled, sessions = pooled_qber(configs)
        n_bits = sum(s.sifted_len for s in sessions)
        se = np.sqrt(0.25 * 0.75 / n_bits)
        assert abs(pooled - 0.25) < 5 * se

    def test_noise_qber_matches_eta_half(self):
        # Monte-Carlo oracle: matched-basis error probability is eta/2
        eta = 0.10
        configs = [
            BB84Config(rng_seed=s, depolarize_prob=eta) for s in range(10_000)
        ]
        pooled, sessions = pooled_qber(configs)
        n_bits = sum(s.sifted_len for s in sessions)
        se = np.sqrt(0.05 * 0.95 / n_bits)
        assert abs(pooled - eta / 2) < 5 * se

    def test_qber_monotone_in_noise(self):
        grid = [0.0, 0.05, 0.10, 0.15, 0.20]
        means = []
        for eta in grid:
            configs = [
                BB84Config(rng_seed=s, depolarize_prob=eta) for s in range(1000)
            ]
            means.append(pooled_qber(configs)[0])
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_deterministic_per_seed(self):
        cfg = BB84Config(rng_seed=42, eve_present=True, depolarize_prob=0.05)
        a = run_bb84(cfg)
        b = run_bb84(cfg)
        assert (a.key == b.key).all()
        assert (a.qber, a.sifted_len, a.final_len) == (b.qber, b.sifted_len, b.final_len)

    def test_eve_toggle_does_not_perturb_bases(self):
        # substream isolation: sifting depends only on Alice/Bob bases,
        # so the sifted length must not change when Eve appears
        for seed in range(20):
            off = run_bb84(BB84Config(rng_seed=seed))
            on = run_bb84(BB84Config(rng_seed=seed, eve_present=True))
            assert off.sifted_len == on.sifted_len

    def test_degenerate_session_raises(self, monkeypatch):
        # force every basis pair to mismatch: Alice all-0, Bob all-1
        def draws(seed, stream, n, rows, uniforms=0):
            # Bob's bases and coins are all 1; every other draw is all 0.
            bits = np.full((rows, n), stream == qkd.BOB, dtype=np.uint8)
            return np.zeros(uniforms, dtype=np.uint64), bits

        monkeypatch.setattr(qkd, "substream_draws", draws)
        with pytest.raises(DegenerateSessionError):
            run_bb84(BB84Config(raw_len=64, rng_seed=0))


class TestSessionEquality:
    def test_equal_outcomes_compare_and_hash_equal(self):
        cfg = BB84Config(rng_seed=42, eve_present=True, depolarize_prob=0.05)
        a, b = run_bb84(cfg), run_bb84(cfg)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_each_field_tells_sessions_apart(self):
        s = run_bb84(BB84Config(rng_seed=3))
        flipped = s.key.copy()
        flipped[0] ^= 1
        for change in (
            {"key": flipped}, {"key": s.key[:-1]}, {"qber": 0.5},
            {"sifted_len": s.sifted_len + 1}, {"final_len": s.final_len - 1},
        ):
            assert s != dataclasses.replace(s, **change)
        assert s != (s.qber, s.sifted_len, s.final_len, s.key.tobytes())


def reference_session(cfg: BB84Config) -> qkd.QkdSession:
    """A session from Generator draws and np.where selections, one child per substream."""
    n = cfg.raw_len
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(cfg.rng_seed).spawn(5)]

    def bits(stream):
        return rngs[stream].integers(0, 2, n, dtype=np.uint8)

    alice_bits, alice_bases = bits(qkd.ALICE_BITS), bits(qkd.ALICE_BASES)
    state_bits, state_bases = alice_bits, alice_bases
    if cfg.eve_present:
        eve_bases, eve_coins = bits(qkd.EVE), bits(qkd.EVE)
        state_bits = np.where(eve_bases == state_bases, state_bits, eve_coins)
        state_bases = eve_bases
    uniforms = rngs[qkd.NOISE].random(n)
    state_bits = np.where(uniforms < cfg.depolarize_prob, bits(qkd.NOISE), state_bits)
    bob_bases, bob_coins = bits(qkd.BOB), bits(qkd.BOB)
    bob_bits = np.where(bob_bases == state_bases, state_bits, bob_coins)

    sift = alice_bases == bob_bases
    sifted_len = int(sift.sum())
    qber = float(np.sum(alice_bits[sift] != bob_bits[sift])) / sifted_len
    final_len = int(cfg.pa_ratio * sifted_len)
    prefix = np.packbits(bob_bits[sift]).tobytes()
    stream = b"".join(
        hashlib.sha256(prefix + t.to_bytes(8, "little")).digest()
        for t in range(-(-final_len // 256))
    )
    key = np.unpackbits(np.frombuffer(stream, np.uint8))[:final_len]
    return qkd.QkdSession(key=key, sifted_len=sifted_len, final_len=final_len, qber=qber)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    raw_len=st.integers(64, 5000),
    eta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    eve=st.booleans(),
    ratio=st.floats(0.0, 1.0, exclude_min=True),
)
@example(seed=2**128, raw_len=5000, eta=1.0, eve=True, ratio=1.0)
@example(seed=0, raw_len=64, eta=0.0, eve=False, ratio=0.8)
@example(seed=2**64, raw_len=2001, eta=1.0, eve=False, ratio=0.8)
@example(seed=2**96 - 1, raw_len=2003, eta=0.0, eve=True, ratio=0.8)
def test_session_matches_reference(seed, raw_len, eta, eve, ratio):
    cfg = BB84Config(
        raw_len=raw_len, pa_ratio=ratio, depolarize_prob=eta, eve_present=eve, rng_seed=seed
    )
    got, want = run_bb84(cfg), reference_session(cfg)
    assert (got.qber, got.sifted_len, got.final_len) == (want.qber, want.sifted_len, want.final_len)
    assert got.key.dtype == np.uint8 and np.array_equal(got.key, want.key)


# SHA-256 over (qber, sifted_len, final_len, key) of every session in
# SESSION_GRID, taken from the spawn(5) + Generator implementation that
# raw-word draws replaced.  A deliberate change to a session moves it.
SESSION_GRID_DIGEST = "c838e09f41666a1878d1f9b723aeeec68051a36a9b64c15a9f5a5e03bc292a08"
SESSION_GRID = [
    BB84Config(raw_len=raw_len, depolarize_prob=eta, eve_present=eve, rng_seed=seed)
    for seed in (0, 1, 7)
    for raw_len in (64, 65, 2001, 2003, 20_000)
    for eta in (0.0, 0.05, 0.2, 1.0)
    for eve in (False, True)
]


def test_session_outputs_are_pinned():
    h = hashlib.sha256()
    for cfg in SESSION_GRID:
        s = run_bb84(cfg)
        h.update(f"{s.qber!r},{s.sifted_len},{s.final_len};".encode())
        h.update(s.key.tobytes())
    assert h.hexdigest() == SESSION_GRID_DIGEST


class TestSubstreamDraws:
    """`substream_draws` against the Generator calls it stands in for."""

    @staticmethod
    def generator(seed, stream):
        return np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[stream])

    @pytest.mark.parametrize("n", [*range(64, 141), 2001, 2003, 2005, 20_000, 100_003])
    def test_two_bit_draws(self, n):
        # n = 65..68 and 69..72 use 17 and 18 32-bit words: odd counts start
        # the second draw in the high half of a 64-bit word.
        seed, stream = 20260811 + n, n % 5
        rng = self.generator(seed, stream)
        want = [rng.integers(0, 2, n, dtype=np.uint8) for _ in range(2)]
        k, got = substream_draws(seed, stream, n, 2)
        assert k.size == 0 and got.dtype == np.uint8 and got.shape == (2, n)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 - 1, 2**128 - 1, 2**128, 2**200 + 5]
    )
    def test_seeds_of_every_width(self, seed):
        # A seed of up to four 32-bit words is zero-padded to four before
        # the stream index; a longer one is not padded.
        for stream in range(5):
            rng = self.generator(seed, stream)
            u, bits = rng.random(70), rng.integers(0, 2, 70, dtype=np.uint8)
            words, (got,) = substream_draws(seed, stream, 70, 1, uniforms=70)
            assert ((words >> 11) * 2.0**-53 == u).all() and (got == bits).all()

    @pytest.mark.parametrize("n", [64, 65, 67, 131, 2001, 20_000])
    def test_uniforms_then_bits(self, n):
        seed = 3 * n
        rng = self.generator(seed, qkd.NOISE)
        u, bits = rng.random(n), rng.integers(0, 2, n, dtype=np.uint8)
        words, (got,) = substream_draws(seed, qkd.NOISE, n, 1, uniforms=n)
        assert ((words >> 11) * 2.0**-53 == u).all()
        assert (got == bits).all()

    def test_threshold_on_the_integer_matches_the_float(self):
        # run_bb84 replaces where the raw word is at most
        # ceil(eta · 2**53) · 2**11 - 1 (2**64 - 1 at eta = 1) instead of
        # where (word >> 11) · 2**-53 < eta.
        words, _ = substream_draws(5, qkd.NOISE, 64, 1, uniforms=20_000)
        u = (words >> 11) * 2.0**-53
        for eta in (*np.sort(u)[::997], 0.05, 0.2, 1.0, 1 - 2.0**-53, 5e-324):
            last = (math.ceil(eta * 2.0**53) << 11) - 1
            assert ((words <= last) == (u < eta)).all()


class TestGuards:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: qber_of(np.zeros(3, np.uint8), np.zeros(2, np.uint8), np.ones(3, np.uint8)),
                ValueError, "must have equal length", id="unequal-lengths",
            ),
            pytest.param(
                # The fast path's one OR pass: a uint8 2 is not a bit.
                lambda: qber_of(np.array([2, 0], np.uint8), np.zeros(2, np.uint8), np.ones(2, bool)),
                ValueError, "values other than 0/1", id="fast-path-non-bit",
            ),
        ],
    )
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
