import os
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdfl.params as pvops
from qkdfl import federated
from qkdfl.datasets import gen_channel_dataset, gen_radar_dataset
from qkdfl.errors import DivergenceError, TrainerExitError
from qkdfl.federated import (
    MODES,
    STATUS_ABORTED,
    STATUS_SECURE,
    RoundConfig,
    partition_non_iid,
    run_round,
    run_training,
)
from qkdfl.models import ModelSpec, init_params
from qkdfl.masking import KEY_BITS
from qkdfl.qkd import BB84Config, QkdSession

from conftest import assert_no_child_left

CHANNEL_SPEC = ModelSpec(task="channel", init_seed=0)


def channel_setup(n_train=24, n_val=8, num_clients=3, dims=(16, 14)):
    train = gen_channel_dataset(n_train, snr_db=10.0, dims=dims, seed=0)
    val = gen_channel_dataset(n_val, snr_db=10.0, dims=dims, seed=1)
    shards = partition_non_iid(train, num_clients, skew=1.0, seed=2)
    return shards, val


def make_cfg(mode, num_clients=3, **kw):
    base = dict(
        num_clients=num_clients,
        epochs=1,
        mode=mode,
        model=CHANNEL_SPEC,
        learning_rate=1e-3,
        batch_size=8,
        master_seed=11,
    )
    base.update(kw)
    return RoundConfig(**base)


class TestPartition:
    def test_uniform_skew_sizes(self):
        data = list(range(100))
        shards = partition_non_iid(data, 7, skew=np.inf, seed=0)
        sizes = [len(s) for s in shards]
        assert all(abs(sz - 100 / 7) <= 1 for sz in sizes)

    def test_disjoint_cover(self):
        data = gen_channel_dataset(30, snr_db=10.0, dims=(16, 14), seed=3)
        shards = partition_non_iid(data, 4, skew=0.7, seed=1)
        seen = [id(s) for shard in shards for s in shard]
        assert len(seen) == 30
        assert len(set(seen)) == 30

    def test_low_skew_unbalances_sizes(self):
        data = list(range(1000))
        shards = partition_non_iid(data, 10, skew=0.5, seed=4)
        sizes = sorted(len(s) for s in shards)
        assert sizes[0] >= 1
        assert sizes[-1] / sizes[0] > 2

    def test_every_shard_nonempty(self):
        data = list(range(20))
        for seed in range(10):
            shards = partition_non_iid(data, 10, skew=0.2, seed=seed)
            assert all(len(s) >= 1 for s in shards)

    def test_dataset_smaller_than_clients(self):
        with pytest.raises(ValueError):
            partition_non_iid(list(range(3)), 4, skew=1.0, seed=0)

    @pytest.mark.parametrize("num_clients", [0, -1])
    def test_fewer_than_one_client_rejected(self, num_clients):
        with pytest.raises(ValueError, match="num_clients"):
            partition_non_iid(list(range(8)), num_clients, skew=1.0, seed=0)

    @pytest.mark.parametrize("skew", [0.0, -1.0, -np.inf, np.nan])
    def test_non_positive_or_nan_skew_rejected(self, skew):
        with pytest.raises(ValueError, match="skew"):
            partition_non_iid(list(range(8)), 2, skew=skew, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 200),
        skew=st.floats(0.0, 1e6, exclude_min=True) | st.just(np.inf),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_disjoint_covering_nonempty_deterministic(self, data, n, skew, seed):
        k = data.draw(st.integers(1, n))
        shards = partition_non_iid(list(range(n)), k, skew=skew, seed=seed)
        assert len(shards) == k
        assert all(shards)
        assert sorted(x for shard in shards for x in shard) == list(range(n))
        assert partition_non_iid(list(range(n)), k, skew=skew, seed=seed) == shards

    def test_feature_skew_orders_shards(self):
        # contiguous feature blocks: shard means must be strictly ordered
        data = gen_channel_dataset(40, snr_db=10.0, dims=(16, 14), seed=5)
        shards = partition_non_iid(data, 4, skew=5.0, seed=6)
        means = [np.mean([s.truth.mean() for s in shard]) for shard in shards]
        assert means == sorted(means)


class TestRunRound:
    def test_clean_round_secure_zero_qber(self):
        shards, val = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        _, report = run_round(pv, shards, make_cfg("qkd_sa"), val)
        assert report.status == STATUS_SECURE
        assert report.qber == 0.0
        assert "nmse" in report.utility

    def test_eve_aborts_and_freezes_model(self):
        shards, val = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        cfg = make_cfg("qkd_sa", bb84=BB84Config(eve_present=True))
        new_pv, report = run_round(pv, shards, cfg, val)
        assert report.status == STATUS_ABORTED
        assert report.qber > cfg.qber_threshold
        assert report.bytes_down == 0 and report.bytes_up == 0
        assert report.leakage_per_client == []
        for (_, a), (_, b) in zip(new_pv.entries, pv.entries):
            assert (a == b).all()

    @pytest.mark.parametrize(
        "bb84",
        [BB84Config(raw_len=300), BB84Config(raw_len=64, pa_ratio=0.01)],
        ids=["raw300", "empty-key"],
    )
    def test_short_key_aborts_and_freezes_model(self, bb84):
        # A clean channel, but the key is shorter than the 256-bit round seed.
        shards, val = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        new_pv, report = run_round(pv, shards, make_cfg("qkd_sa", bb84=bb84), val)
        assert report.status == STATUS_ABORTED
        assert report.qber < 0.08
        assert report.final_len < KEY_BITS
        assert report.bytes_down == 0 and report.bytes_up == 0
        assert new_pv.buf.tobytes() == pv.buf.tobytes()

    @pytest.mark.parametrize(
        "final_len,status",
        [(KEY_BITS - 1, STATUS_ABORTED), (KEY_BITS, STATUS_SECURE)],
    )
    def test_round_seed_length_is_the_abort_bound(self, monkeypatch, final_len, status):
        key = np.ones(final_len, dtype=np.uint8)
        session = QkdSession(key=key, sifted_len=1000, final_len=final_len, qber=0.0)
        monkeypatch.setattr(federated, "run_bb84", lambda cfg: session)
        shards, _ = channel_setup()
        _, report = run_round(init_params(CHANNEL_SPEC), shards, make_cfg("qkd_sa"))
        assert report.status == status

    def test_only_qkd_mode_aborts(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        for mode in ("plain", "classical_sa"):
            cfg = make_cfg(mode, bb84=BB84Config(eve_present=True))
            _, report = run_round(pv, shards, cfg)
            assert report.status == STATUS_SECURE

    def test_recon_error_small_in_masked_round(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        for mode in ("classical_sa", "qkd_sa"):
            _, report = run_round(pv, shards, make_cfg(mode))
            assert report.recon_error < 1e-5

    def test_plain_mode_recon_and_cosine(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        _, report = run_round(pv, shards, make_cfg("plain"))
        assert report.recon_error == 0.0
        assert report.qber is None
        assert all(c["cosine"] == 1.0 for c in report.leakage_per_client)

    def test_leakage_bounds(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        for mode in MODES:
            _, report = run_round(pv, shards, make_cfg(mode))
            for c in report.leakage_per_client:
                assert abs(c["cosine"]) <= 1.0 + 1e-12
                assert abs(c["pearson"]) <= 1.0 + 1e-12

    def test_masked_cosine_below_one(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        _, report = run_round(pv, shards, make_cfg("qkd_sa"))
        assert all(c["cosine"] < 1.0 for c in report.leakage_per_client)

    def test_byte_accounting(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        _, report = run_round(pv, shards, make_cfg("qkd_sa"))
        assert report.bytes_down == 8 * pv.total_len
        assert report.bytes_up == 3 * 8 * pv.total_len

    def test_shard_count_mismatch(self):
        shards, _ = channel_setup(num_clients=3)
        pv = init_params(CHANNEL_SPEC)
        with pytest.raises(ValueError):
            run_round(pv, shards[:2], make_cfg("plain"))


class TestRunTraining:
    def test_all_rounds_abort_under_eve(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        cfg = make_cfg("qkd_sa", bb84=BB84Config(eve_present=True))
        final, reports = run_training(pv, 5, cfg, shards)
        assert [r.status for r in reports] == [STATUS_ABORTED] * 5
        for (_, a), (_, b) in zip(final.entries, pv.entries):
            assert (a == b).all()

    def test_all_rounds_secure_without_eve(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        _, reports = run_training(pv, 5, make_cfg("qkd_sa"), shards)
        assert [r.status for r in reports] == [STATUS_SECURE] * 5

    def test_plain_vs_qkd_final_models_agree(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        plain, _ = run_training(pv, 1, make_cfg("plain"), shards)
        qkd, _ = run_training(pv, 1, make_cfg("qkd_sa"), shards)
        assert pvops.max_abs_diff(plain, qkd) <= 1e-5

    def test_round_indices_recorded(self):
        shards, _ = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        _, reports = run_training(pv, 3, make_cfg("plain"), shards)
        assert [r.round for r in reports] == [0, 1, 2]

    def test_deterministic_run(self):
        shards, val = channel_setup()
        pv = init_params(CHANNEL_SPEC)
        a, ra = run_training(pv, 2, make_cfg("qkd_sa"), shards, val)
        b, rb = run_training(pv, 2, make_cfg("qkd_sa"), shards, val)
        assert pvops.max_abs_diff(a, b) == 0.0
        assert ra == rb

    def test_radar_round_runs(self):
        spec = ModelSpec(task="radar", init_seed=1)
        train = gen_radar_dataset(8, size=16, seed=0)
        val = gen_radar_dataset(4, size=16, seed=1)
        shards = partition_non_iid(train, 2, skew=1.0, seed=2)
        cfg = RoundConfig(
            num_clients=2,
            epochs=1,
            mode="qkd_sa",
            model=spec,
            learning_rate=1e-4,
            batch_size=4,
            master_seed=3,
        )
        pv = init_params(spec)
        _, report = run_round(pv, shards, cfg, val)
        assert report.status == STATUS_SECURE
        assert set(report.utility) == {"accuracy", "miou"}


class TestRoundConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            make_cfg("secret_mode")

    def test_masked_needs_two_clients(self):
        with pytest.raises(ValueError):
            make_cfg("qkd_sa", num_clients=1)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            make_cfg("plain", qber_threshold=0.0)
        with pytest.raises(ValueError):
            make_cfg("plain", qber_threshold=1.0)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            make_cfg("plain", batch_size=batch_size)

    @pytest.mark.parametrize("learning_rate", [-1.0, 0.0, float("nan"), float("inf")])
    def test_learning_rate_not_finite_positive(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            make_cfg("plain", learning_rate=learning_rate)


def uneven_setup(task, num_clients):
    """Shards of visibly different sizes, plus a validation set."""
    if task == "channel":
        train = gen_channel_dataset(4 * num_clients, snr_db=10.0, dims=(16, 14), seed=0)
        val = gen_channel_dataset(4, snr_db=10.0, dims=(16, 14), seed=1)
    else:
        train = gen_radar_dataset(3 * num_clients, size=16, seed=0)
        val = gen_radar_dataset(4, size=16, seed=1)
    shards = partition_non_iid(train, num_clients, skew=0.5, seed=2)
    assert len({len(s) for s in shards}) > 1
    return shards, val


class TestConcurrentClients:
    """A round's clients train in forked processes with the serial loop's output."""

    @pytest.mark.parametrize("task,num_clients", [("channel", 3), ("channel", 10), ("radar", 3)])
    def test_forked_round_matches_serial(self, forks, task, num_clients):
        spec = ModelSpec(task=task, init_seed=0)
        shards, val = uneven_setup(task, num_clients)
        cfg = make_cfg("qkd_sa", num_clients=num_clients, model=spec, batch_size=4)
        pv = init_params(spec)
        serial, serial_report = run_round(pv, shards, cfg, val, trainers=1)
        assert forks == [0]
        # More trainers than clients: one process per client.
        forked, forked_report = run_round(pv, shards, cfg, val, trainers=num_clients + 2)
        assert forks == [num_clients - 1]
        assert forked.layout == serial.layout
        assert forked.buf.tobytes() == serial.buf.tobytes()
        assert forked_report == serial_report
        assert_no_child_left()

    @pytest.mark.parametrize("task", ["channel", "radar"])
    def test_round_on_a_second_thread_forks_nothing(self, forks, task):
        spec = ModelSpec(task=task, init_seed=0)
        shards, val = uneven_setup(task, 3)
        cfg = make_cfg("qkd_sa", model=spec, batch_size=4)
        pv = init_params(spec)
        serial, serial_report = run_round(pv, shards, cfg, val, trainers=1)
        out = []
        worker = threading.Thread(
            target=lambda: out.append(run_round(pv, shards, cfg, val, trainers=5))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert forks == [0]
        (threaded, threaded_report), = out
        assert threaded.buf.tobytes() == serial.buf.tobytes()
        assert threaded_report == serial_report

    def test_default_trainers_match_serial(self):
        shards, val = uneven_setup("channel", 3)
        pv = init_params(CHANNEL_SPEC)
        serial, _ = run_training(pv, 2, make_cfg("plain"), shards, val, trainers=1)
        default, _ = run_training(pv, 2, make_cfg("plain"), shards, val)
        assert default.buf.tobytes() == serial.buf.tobytes()

    def test_trainers_below_one_rejected(self):
        shards, _ = channel_setup()
        with pytest.raises(ValueError, match="trainers"):
            run_round(init_params(CHANNEL_SPEC), shards, make_cfg("plain"), trainers=0)

    @pytest.mark.parametrize("eve_present", [False, True], ids=["secure", "aborted"])
    def test_trainers_below_one_rejected_before_key_agreement(self, monkeypatch, eve_present):
        # With Eve the round would abort and train nothing; it still raises.
        shards, _ = channel_setup()
        cfg = make_cfg("qkd_sa", bb84=BB84Config(eve_present=eve_present))
        _, report = run_round(init_params(CHANNEL_SPEC), shards, cfg, trainers=1)
        assert report.status == (STATUS_ABORTED if eve_present else STATUS_SECURE)

        def run_bb84(config):
            raise AssertionError("key agreement ran")

        monkeypatch.setattr(federated, "run_bb84", run_bb84)
        with pytest.raises(ValueError, match="trainers must be >= 1, got 0"):
            run_round(init_params(CHANNEL_SPEC), shards, cfg, trainers=0)

    @pytest.mark.parametrize(
        "sizes,groups,dealt",
        [
            ([5, 1, 3, 3, 2], 2, [[0, 4], [2, 3, 1]]),
            ([2, 2, 2], 3, [[0], [1], [2]]),
            ([1, 4, 1, 1], 2, [[1], [0, 2, 3]]),
            ([3, 3], 1, [[0, 1]]),
        ],
    )
    def test_largest_shard_to_least_loaded_group(self, sizes, groups, dealt):
        assert federated._deal([[None] * n for n in sizes], groups) == dealt

    @staticmethod
    def failing_round(monkeypatch, trainers):
        """A 6-client round in which clients 2 and 4 diverge.

        Client 4 has the largest shard, so the calling process trains it
        first, and with two trainers client 2 fails in the forked child.
        """
        train = gen_channel_dataset(18, snr_db=10.0, dims=(16, 14), seed=0)
        shards = [train[0:2], train[2:4], train[4:6], train[6:8], train[8:16], train[16:18]]
        failing = {id(shards[2]): 2, id(shards[4]): 4}
        real = federated.train_local

        def train_local(spec, pv, shard, *args, **kwargs):
            if id(shard) in failing:
                raise DivergenceError(f"client {failing[id(shard)]}")
            return real(spec, pv, shard, *args, **kwargs)

        monkeypatch.setattr(federated, "train_local", train_local)
        cfg = make_cfg("qkd_sa", num_clients=6)
        return lambda: run_round(init_params(CHANNEL_SPEC), shards, cfg, trainers=trainers)

    @pytest.mark.parametrize("trainers", [1, 2, 6])
    def test_lowest_failing_client_raised(self, monkeypatch, trainers):
        with pytest.raises(DivergenceError, match="client 2"):
            self.failing_round(monkeypatch, trainers)()

    def test_no_child_left_after_failure(self, monkeypatch, forks):
        with pytest.raises(DivergenceError):
            self.failing_round(monkeypatch, 6)()
        assert forks == [5]
        assert_no_child_left()

    def test_child_exit_without_result_named(self, monkeypatch, deadline):
        train = gen_channel_dataset(4, snr_db=10.0, dims=(16, 14), seed=0)
        shards = [train[0:2], train[2:4]]  # a tie: client 1 trains in the child
        caller, real = os.getpid(), federated.train_local

        def train_local(spec, pv, shard, *args, **kwargs):
            if shard is shards[1]:
                assert os.getpid() != caller, "client 1 was to train in a child"
                os._exit(3)
            return real(spec, pv, shard, *args, **kwargs)

        monkeypatch.setattr(federated, "train_local", train_local)
        with pytest.raises(TrainerExitError, match=r"clients \[1\] exited with code 3"):
            run_round(init_params(CHANNEL_SPEC), shards, make_cfg("plain", num_clients=2),
                      trainers=2)
        assert_no_child_left()

    def test_interrupt_kills_a_child_blocked_on_a_full_pipe(self, monkeypatch, deadline):
        """The caller is interrupted while a child blocks writing a radar-size
        update, more than a pipe holds: the child is killed and reaped."""
        spec = ModelSpec(task="radar", init_seed=0)
        shards, _ = uneven_setup("radar", 2)
        update = init_params(spec)
        assert update.nbytes_serialized > 64 * 1024
        caller = os.getpid()
        trained, signal_trained = os.pipe()

        def train_local(*args, **kwargs):
            if os.getpid() == caller:
                os.read(trained, 1)  # the child has its update
                time.sleep(0.2)  # and is now blocked writing it
                raise KeyboardInterrupt
            os.write(signal_trained, b"x")
            return update

        monkeypatch.setattr(federated, "train_local", train_local)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_round(update, shards, make_cfg("plain", num_clients=2, model=spec),
                          trainers=2)
        finally:
            os.close(trained)
            os.close(signal_trained)
        assert_no_child_left()


class TestRoundMemory:
    """A round frees each buffer at its last use."""

    def test_updates_freed_before_evaluation(self, monkeypatch):
        spec = ModelSpec(task="radar", init_seed=1)
        shards, val = uneven_setup("radar", 3)
        cfg = make_cfg("qkd_sa", model=spec, batch_size=4)
        refs, alive = [], []
        train_clients, evaluate = federated._train_clients, federated._evaluate

        def keep_refs(*args):
            updates = train_clients(*args)
            refs.extend(weakref.ref(u) for u in updates)
            return updates

        def count_alive(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return evaluate(*args)

        monkeypatch.setattr(federated, "_train_clients", keep_refs)
        monkeypatch.setattr(federated, "_evaluate", count_alive)
        _, report = run_round(init_params(spec), shards, cfg, val, trainers=1)
        assert report.status == STATUS_SECURE
        assert len(refs) == 3
        assert alive == [0]


class TestGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: make_cfg("plain", num_clients=0),
                         "num_clients must be >= 1", id="no-clients"),
            pytest.param(lambda: make_cfg("plain", epochs=-1),
                         "epochs must be >= 0", id="negative-epochs"),
            pytest.param(
                lambda: run_training(init_params(CHANNEL_SPEC), 0, make_cfg("plain"), [[], [], []]),
                "num_rounds must be >= 1", id="no-rounds",
            ),
        ],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
