import numpy as np
import pytest

from qkdfl.datasets import gen_channel_dataset, gen_radar_dataset, stack_batch
from qkdfl.errors import DivergenceError
from qkdfl.metrics import eval_channel, eval_radar
from qkdfl.models import ModelSpec, build_model, init_params, set_params
from qkdfl.params import ParamVec
from qkdfl.training import train_local

CHANNEL_SPEC = ModelSpec(task="channel", init_seed=0)
RADAR_SPEC = ModelSpec(task="radar", init_seed=0)


def batch_loss(spec, pv, samples):
    """Loss of the model on one fixed batch (no update)."""
    net = build_model(spec)
    set_params(net, pv)
    x, y = stack_batch(samples)
    loss, _ = net.loss_and_grads(x, y)
    return loss


def small_channel_data(n=8, seed=0):
    return gen_channel_dataset(n, snr_db=10.0, dims=(16, 14), seed=seed)


class TestTrainLocal:
    def test_zero_epochs_returns_input_unchanged(self):
        pv = init_params(CHANNEL_SPEC)
        out = train_local(CHANNEL_SPEC, pv, small_channel_data(), 0, 1e-3, 4, seed=0)
        for (_, a), (_, b) in zip(out.entries, pv.entries):
            assert (a == b).all()

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_mismatched_params_raise_at_any_epochs(self, epochs):
        # epochs = 0 runs the same path, so it checks the structure too.
        pv = init_params(RADAR_SPEC)
        with pytest.raises(ValueError, match="model structure"):
            train_local(CHANNEL_SPEC, pv, small_channel_data(), epochs, 1e-3, 4, seed=0)

    def test_overfits_single_sample(self):
        data = small_channel_data(1)
        pv = init_params(CHANNEL_SPEC)
        before = batch_loss(CHANNEL_SPEC, pv, data)
        trained = train_local(CHANNEL_SPEC, pv, data, 50, 1e-3, 1, seed=1)
        after = batch_loss(CHANNEL_SPEC, trained, data)
        assert after < before

    def test_monotone_descent_small_lr(self):
        # fixed single batch, lr = 1e-5: per-epoch loss never increases
        data = small_channel_data(4, seed=2)
        pv = init_params(CHANNEL_SPEC)
        losses = [batch_loss(CHANNEL_SPEC, pv, data)]
        current = pv
        for epoch in range(10):
            current = train_local(
                CHANNEL_SPEC, current, data, 1, 1e-5, len(data), seed=epoch
            )
            losses.append(batch_loss(CHANNEL_SPEC, current, data))
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_deterministic_per_seed(self):
        data = small_channel_data(6, seed=3)
        pv = init_params(CHANNEL_SPEC)
        a = train_local(CHANNEL_SPEC, pv, data, 2, 1e-3, 4, seed=9)
        b = train_local(CHANNEL_SPEC, pv, data, 2, 1e-3, 4, seed=9)
        for (_, x), (_, y) in zip(a.entries, b.entries):
            assert (x == y).all()

    def test_seed_changes_result(self):
        data = small_channel_data(6, seed=3)
        pv = init_params(CHANNEL_SPEC)
        a = train_local(CHANNEL_SPEC, pv, data, 2, 1e-3, 4, seed=1)
        b = train_local(CHANNEL_SPEC, pv, data, 2, 1e-3, 4, seed=2)
        assert any((x != y).any() for (_, x), (_, y) in zip(a.entries, b.entries))

    def test_divergence_names_batch(self):
        data = small_channel_data(2)
        bad = init_params(CHANNEL_SPEC)
        bad = ParamVec(
            [(name, np.full_like(arr, np.nan)) for name, arr in bad.entries]
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 0"):
                train_local(CHANNEL_SPEC, bad, data, 1, 1e-3, 2, seed=0)

    def test_radar_training_improves_loss(self):
        data = gen_radar_dataset(4, size=16, seed=4)
        pv = init_params(RADAR_SPEC)
        before = batch_loss(RADAR_SPEC, pv, data)
        trained = train_local(RADAR_SPEC, pv, data, 5, 1e-3, 4, seed=5)
        after = batch_loss(RADAR_SPEC, trained, data)
        assert after < before


class TestEvaluation:
    def test_eval_channel_value(self):
        data = small_channel_data(6, seed=6)
        pv = init_params(CHANNEL_SPEC)
        val = eval_channel(CHANNEL_SPEC, pv, data)
        assert np.isfinite(val) and val >= 0.0

    def test_eval_radar_ranges(self):
        data = gen_radar_dataset(4, size=16, seed=7)
        pv = init_params(RADAR_SPEC)
        acc, miou = eval_radar(RADAR_SPEC, pv, data)
        assert 0.0 <= acc <= 1.0
        assert 0.0 <= miou <= 1.0

    def test_empty_dataset_rejected(self):
        pv = init_params(CHANNEL_SPEC)
        with pytest.raises(ValueError):
            eval_channel(CHANNEL_SPEC, pv, [])


class TestGuards:
    @pytest.mark.parametrize(
        "epochs, shard, message",
        [
            pytest.param(-1, small_channel_data(), "epochs must be >= 0", id="negative-epochs"),
            pytest.param(1, [], "empty training shard", id="empty-shard"),
        ],
    )
    def test_raises(self, epochs, shard, message):
        pv = init_params(CHANNEL_SPEC)
        with pytest.raises(ValueError, match=message):
            train_local(CHANNEL_SPEC, pv, shard, epochs, 1e-3, 4, seed=0)
