"""The seed tree of `qkdfl.seeds`: the substream builder, the names other
modules keep, a walk of every seed path the shipped configs touch, and
`derive_seed` itself."""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdfl import experiments, federated, qkd, seeds
from qkdfl.seeds import derive_seed, substream

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
STREAMS = (seeds.ALICE_BITS, seeds.ALICE_BASES, seeds.EVE, seeds.NOISE, seeds.BOB)


def seed_paths(cfg):
    """(derive_seed paths, session-seed paths) of a run of `cfg`, in walk order."""
    if cfg.experiment == "C":
        paths = [
            (cfg.seed, seeds.SWEEP, point, n)
            for point in range(len(cfg.noise_grid))
            for n in range(cfg.sessions_per_point)
        ]
        return paths, paths
    cells = experiments._cells(cfg)
    ks = sorted({k for _, k, _, _ in cells})
    modes = {mode for _, _, mode, _ in cells}
    master = derive_seed(cfg.seed, seeds.FL_MASTER)
    paths = [
        (cfg.seed, tag)
        for tag in (seeds.TRAIN_DATA, seeds.VAL_DATA, seeds.FL_MASTER, seeds.MODEL_INIT)
    ]
    paths += [(cfg.seed, seeds.PARTITION, k) for k in ks]
    sessions = []
    for r in range(cfg.rounds):
        if "qkd_sa" in modes:
            paths.append((master, r, seeds.QKD))
            sessions.append(paths[-1])
        if "classical_sa" in modes:
            paths.append((master, r, seeds.ROUND_KEY))
        paths += [(master, r, seeds.TRAIN, client) for client in range(max(ks))]
    return paths, sessions


@functools.cache
def walk(config: Path) -> list[tuple[bytes, bytes]]:
    """(entropy words, seed bytes) of every seed a run of `config` derives:
    each derive_seed path, then the five substreams of each session seed,
    whose seed bytes are the PCG64 state and increment."""
    paths, sessions = seed_paths(experiments.ExperimentConfig.from_file(config))
    out = [(seeds._entropy_words(p), derive_seed(*p).to_bytes(8, "little")) for p in paths]
    for path in sessions:
        for stream in STREAMS:
            bitgen = substream(derive_seed(*path), stream)
            state = bitgen.state["state"]
            out.append((
                bitgen.seed_seq.entropy.tobytes(),
                state["state"].to_bytes(16, "little") + state["inc"].to_bytes(16, "little"),
            ))
    return out


class TestSeedTreeWalk:
    # SHA-256 of the seed bytes of `walk`, in walk order, computed from the
    # tags, derive_seed and SeedSequence(seed).spawn(5) as they were before
    # the seed tree moved into qkdfl.seeds.
    DIGESTS = {
        "exp_a_channel": "ec4c28fcecb83ed4f4df76f1c97efd507b66e654f246a001e802e9af36ceb58f",
        "exp_a_radar": "3a92409b6b6eb343c35934f949c5111c8406295ffdd09026f0a96ff5738d7eb7",
        "exp_b_channel": "2940ce9562e0b41a2166accea8ecf7602de2d89e8c61dd303c80231c79c77644",
        "exp_c_noise_sweep": "840b0df7a2bddeab2e90738707c9225f84adb9921a06867bcddc7788540c3d5a",
    }

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
    def test_padded_entropy_words_are_pairwise_distinct(self, config):
        # SeedSequence zero-pads fewer than four words, so [a] and [a, 0]
        # share a pool: compare the words as the pool reads them.
        words = [w.ljust(16, b"\0") for w, _ in walk(config)]
        assert len(set(words)) == len(words)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
    def test_seeds_are_pinned(self, config):
        h = hashlib.sha256()
        for _, seed in walk(config):
            h.update(seed)
        assert h.hexdigest() == self.DIGESTS[config.stem]

    def test_the_walk_covers_every_session(self):
        cfgs = {c.stem: experiments.ExperimentConfig.from_file(c) for c in CONFIGS}
        assert {name: len(seed_paths(cfg)[1]) for name, cfg in cfgs.items()} == {
            "exp_a_channel": 5, "exp_a_radar": 5, "exp_b_channel": 5, "exp_c_noise_sweep": 5000
        }


class TestSubstream:
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 - 1, 2**128 + 5, 2**200]
    )
    def test_is_the_spawned_child(self, seed):
        for stream, child in zip(STREAMS, np.random.SeedSequence(seed).spawn(5)):
            assert substream(seed, stream).state == np.random.PCG64(child).state

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**200])
    def test_lone_int_words_are_the_general_coders(self, seed):
        # A lone int skips the general coder; (seed, 0) still goes through it.
        assert seeds._entropy_words((seed,)) == seeds._entropy_words((seed, 0))[:-4]

    def test_a_path_from_a_session_seed_would_alias_it(self):
        # Why no derive_seed path starts at a session seed: for a two-word
        # seed Q, substream(Q, i) has the pool of [Q, 0, 0, i].
        q = 2**63 + 12345
        for stream in STREAMS:
            alias = np.random.SeedSequence([q, 0, 0, stream])
            assert substream(q, stream).seed_seq.pool.tolist() == alias.pool.tolist()

    @pytest.mark.parametrize("seed", [-1, -(2**70), True, False, np.bool_(True)])
    def test_negative_or_bool_seed_is_a_value_error(self, seed):
        # A negative seed used to be an OverflowError, and True was coded as 1.
        with pytest.raises(ValueError, match="non-negative integers"):
            qkd.substream_draws(seed, qkd.ALICE_BITS, 64, 1)


def test_names_the_benchmark_and_tests_read():
    assert federated.derive_seed is seeds.derive_seed
    assert experiments._TAG_PARTITION == seeds.PARTITION
    assert experiments._TAG_SWEEP == seeds.SWEEP
    assert (qkd.ALICE_BITS, qkd.ALICE_BASES, qkd.EVE, qkd.NOISE, qkd.BOB) == STREAMS


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_path_sensitive(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5, 1) != derive_seed(6, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        master=st.integers(0, 2**64 - 1),
        path=st.lists(st.integers(0, 2**63 - 1), max_size=4),
    )
    def test_equals_the_uint64_state_word(self, master, path):
        ss = np.random.SeedSequence([master, *path])
        assert derive_seed(master, *path) == int(ss.generate_state(1, dtype=np.uint64)[0])

    @pytest.mark.parametrize("path", [(-1,), (5, -1), (5, 1, -(2**70))])
    def test_negative_entry_is_a_value_error(self, path):
        with pytest.raises(ValueError, match="non-negative integers"):
            derive_seed(*path)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**64)),
            min_size=1,
            max_size=10,
        )
    )
    @example(entries=[0])
    @example(entries=[0, 0, 0, 0, 0])
    @example(entries=[2**64, 2**64, 2**64, 2**64])
    def test_words_of_every_width_and_count(self, entries):
        # Zeros, one-, two- and three-word entries, and more words than
        # SeedSequence's 4-word pool.
        lo, hi = np.random.SeedSequence(entries).generate_state(2).tolist()
        assert derive_seed(*entries) == lo | hi << 32

    @pytest.mark.parametrize(
        "path",
        [(5, 1.5), (5.0,), (5, 1.0), (5, "1"), (5, np.float64(2)), (5, None), (5, True), (False,), (5, np.bool_(True))],
    )
    def test_non_integral_entry_is_a_value_error(self, path):
        # derive_seed(5, 1.5) and derive_seed(5, True) used to equal derive_seed(5, 1).
        with pytest.raises(ValueError, match="non-negative integers"):
            derive_seed(*path)

    def test_numpy_integers_are_accepted(self):
        assert derive_seed(np.int64(5), np.uint8(1), np.uint64(2**64 - 1)) == derive_seed(5, 1, 2**64 - 1)
        assert derive_seed(np.int32(0), np.int16(3)) == derive_seed(0, 3)

    # SHA-256 over the 5,000 experiment-C session seeds of
    # configs/exp_c_noise_sweep.json, each as 8 little-endian bytes, taken
    # from the SeedSequence(...).generate_state implementation.
    SWEEP_SEEDS_DIGEST = "0c9c2d298515c686d7dcd5d6eb0ee7259d1becde025bd951d3cb52fa4d6588e9"

    def test_experiment_c_session_seeds_are_pinned(self):
        from qkdfl.experiments import _TAG_SWEEP, ExperimentConfig

        root = Path(__file__).resolve().parent.parent
        cfg = ExperimentConfig.from_file(root / "configs" / "exp_c_noise_sweep.json")
        h = hashlib.sha256()
        for index in range(len(cfg.noise_grid)):
            for s in range(cfg.sessions_per_point):
                h.update(derive_seed(cfg.seed, _TAG_SWEEP, index, s).to_bytes(8, "little"))
        assert (len(cfg.noise_grid), cfg.sessions_per_point) == (5, 1000)
        assert h.hexdigest() == self.SWEEP_SEEDS_DIGEST
