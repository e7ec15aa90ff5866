"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criteria cover mask cancellation, eavesdropper detection,
clean-channel behavior, the noise sweep, utility parity, communication
scaling, metric oracles, gradient checks, full-run determinism, and the
keystream golden vectors.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import qkdfl.params as pvops
from qkdfl.datasets import gen_channel_dataset
from qkdfl.experiments import (
    ExperimentConfig,
    run_cells,
    run_experiment,
)
from qkdfl.federated import (
    STATUS_ABORTED,
    RoundConfig,
    partition_non_iid,
    run_training,
)
from qkdfl.masking import (
    MaskingContext,
    aggregate,
    apply_pairwise_masks,
    derive_pair_key,
    mask_keystream,
)
from qkdfl.metrics import NMSE_EPS, mean_iou, nmse, pixel_accuracy
from qkdfl.models import ModelSpec, build_model, init_params, set_params
from qkdfl.params import ParamVec
from qkdfl.qkd import BB84Config, privacy_amplify, run_bb84

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "keystream_vectors.json").read_text()
)


def _pass(num: int, started: float, detail: str) -> None:
    print(f"PASS criterion {num} [{time.time() - started:.1f}s]: {detail}")


def _bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_criterion_01_mask_cancellation():
    """Masked and plain means agree to < 1e-5 for K in {2,3,10,20} at 1e3-1e6 params."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    seed_bits = rng.integers(0, 2, 256, dtype=np.uint8)

    shapes = {
        "channel_scale": [("w", (9, 9, 1, 12)), ("b", (12,)), ("w2", (5, 5, 12, 8)),
                          ("b2", (8,)), ("w3", (5, 5, 8, 1)), ("b3", (1,))],
        "radar_scale": [("enc", (3, 3, 96, 32)), ("dec", (3, 3, 48, 16)),
                        ("bott", (3, 3, 32, 64)), ("head", (8, 4))],
        "mega": [("big", (1000, 1000))],
    }
    worst = 0.0
    for name, entry_shapes in shapes.items():
        total = sum(int(np.prod(s)) for _, s in entry_shapes)
        assert 1_000 <= total <= 1_000_000
        for k in (2, 3, 10, 20):
            rounds = (0,) if name == "mega" else (0, 1)
            for r in rounds:
                ctx = MaskingContext(
                    round_seed=seed_bits, round_index=r, num_clients=k
                )
                pvs = [
                    ParamVec([(n, rng.standard_normal(s)) for n, s in entry_shapes])
                    for _ in range(k)
                ]
                masked = [apply_pairwise_masks(pvs[i], i, ctx) for i in range(k)]
                diff = pvops.max_abs_diff(aggregate(masked), pvops.mean(pvs))
                worst = max(worst, diff)
                assert diff < 1e-5, f"{name} K={k} round {r}: recon {diff:.3e}"
    assert time.time() - t0 < 60
    _pass(1, t0, f"worst reconstruction error {worst:.2e} < 1e-5")


def test_criterion_02_eve_detection():
    """Intercept-resend raises QBER past tau in every session and aborts FL runs."""
    t0 = time.time()
    tau = 0.08
    sessions = [
        run_bb84(BB84Config(raw_len=2000, eve_present=True, rng_seed=s))
        for s in range(100)
    ]
    assert all(s.qber > tau for s in sessions)
    pooled = sum(s.qber * s.sifted_len for s in sessions) / sum(
        s.sifted_len for s in sessions
    )
    assert 0.235 <= pooled <= 0.265

    spec = ModelSpec(task="channel", init_seed=3)
    train = gen_channel_dataset(12, snr_db=10.0, dims=(16, 14), seed=0)
    shards = partition_non_iid(train, 3, skew=1.0, seed=1)
    cfg = RoundConfig(
        num_clients=3, epochs=1, mode="qkd_sa", model=spec,
        learning_rate=1e-3, batch_size=8, master_seed=5,
        qber_threshold=tau, bb84=BB84Config(raw_len=2000, eve_present=True),
    )
    initial = init_params(spec)
    final, reports = run_training(initial, 5, cfg, shards)
    assert [r.status for r in reports] == [STATUS_ABORTED] * 5
    for (_, a), (_, b) in zip(final.entries, initial.entries):
        assert (a == b).all()
    assert time.time() - t0 < 60
    _pass(2, t0, f"pooled QBER {pooled:.3f} in [0.235, 0.265]; 5/5 rounds aborted, model frozen")


def test_criterion_03_clean_channel():
    """Zero noise and no Eve: QBER exactly 0; sifted length concentrates at l/2."""
    t0 = time.time()
    l = 2000
    sessions = [run_bb84(BB84Config(raw_len=l, rng_seed=s)) for s in range(1000)]
    assert all(s.qber == 0.0 for s in sessions)
    mean_sift = np.mean([s.sifted_len for s in sessions])
    assert abs(mean_sift - l / 2) < 0.01 * (l / 2)
    assert time.time() - t0 < 60
    _pass(3, t0, f"QBER 0 in all 1000 sessions; mean sifted {mean_sift:.1f} within 1% of {l // 2}")


def test_criterion_04_noise_sweep():
    """Pooled QBER tracks eta/2 within 0.01, rises monotonically; abort rate transitions."""
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "C", "task": "channel", "seed": 4,
        "noise_grid": [0.0, 0.05, 0.10, 0.15, 0.20],
        "sessions_per_point": 1000, "qber_threshold": 0.08,
    })
    rows = run_cells(cfg)["exp_c_sweep.csv"]
    means = [r["mean_qber"] for r in rows]
    for r in rows:
        assert abs(r["mean_qber"] - r["eta"] / 2) < 0.01
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert rows[0]["abort_rate"] == 0.0
    assert rows[-1]["abort_rate"] > 0.5
    assert time.time() - t0 < 120
    _pass(4, t0, f"mean QBER {[round(m, 4) for m in means]} vs eta/2, abort 0 -> {rows[-1]['abort_rate']:.2f}")


def test_criterion_05_utility_parity():
    """Desk channel task, K=3, R=5, same seeds: secure NMSE within 5% of plain."""
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "A", "task": "channel", "seed": 5,
        "clients": [3], "rounds": 5, "modes": ["plain", "qkd_sa"],
    })
    rows = run_cells(cfg)["exp_a_summary.csv"]
    nmse_by_mode = {r["mode"]: r["final_nmse"] for r in rows}
    rel_gap = abs(nmse_by_mode["plain"] - nmse_by_mode["qkd_sa"]) / nmse_by_mode["plain"]
    assert rel_gap < 0.05
    assert time.time() - t0 < 600
    _pass(5, t0, f"final NMSE plain {nmse_by_mode['plain']:.4f} vs qkd_sa "
                 f"{nmse_by_mode['qkd_sa']:.4f} (rel gap {rel_gap:.2e})")


def test_criterion_06_communication_scaling():
    """Uplink bytes scale exactly with K; downlink is K-independent."""
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "A", "task": "channel", "seed": 6,
        "clients": [3, 10, 20], "rounds": 2, "modes": ["qkd_sa"],
        "epochs": 0, "train_samples": 20, "val_samples": 2,
        "channel_dims": [16, 14],
    })
    rows = run_cells(cfg)["exp_a_summary.csv"]
    up = {r["clients"]: r["uplink_bytes"] for r in rows}
    assert up[10] * 3 == up[3] * 10
    assert up[20] * 3 == up[3] * 20
    assert len({r["downlink_bytes"] for r in rows}) == 1
    _pass(6, t0, f"uplink {up[3]}/{up[10]}/{up[20]} bytes = 3:10:20 exactly; downlink constant")


def test_criterion_07_metric_oracles():
    """NMSE/accuracy/mIoU reproduce hand-computed toy values."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    y = np.abs(rng.standard_normal((6, 5, 5, 1)))
    assert nmse(y, y) == 0.0
    zero_val = nmse(np.zeros_like(y), y)
    energy = (y**2).sum(axis=(1, 2, 3)).mean()
    assert abs(zero_val - energy / (energy + NMSE_EPS)) < 1e-9
    c = 0.7
    expect = ((c - y) ** 2).sum(axis=(1, 2, 3)).mean() / (energy + NMSE_EPS)
    assert abs(nmse(np.full_like(y, c), y) / expect - 1.0) < 1e-9

    truth = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    assert pixel_accuracy(pred, truth) == 0.75
    # set counts are exact: IoU_0 = 1/2, IoU_1 = 2/3, mean evaluated in float
    assert mean_iou(pred, truth) == (1 / 2 + 2 / 3) / 2
    assert abs(mean_iou(pred, truth) - 7 / 12) < 1e-15
    z = np.zeros((3, 3), dtype=int)
    assert (pixel_accuracy(z, z), mean_iou(z, z)) == (1.0, 1.0)
    _pass(7, t0, "NMSE closed forms (rel 1e-9); accuracy 0.75 and mIoU 7/12 exact")


def _fd_worst(net, x, y, n_coords, step=1e-5, coord_seed=0):
    """Worst relative gap between analytic and central-difference gradients.

    The central difference cannot resolve a loss change below the rounding
    of the two losses it subtracts, one ulp of each, so that much of each
    gap, divided by 2 * step, is its resolution and is not counted.  At
    step 1e-5 and a loss near 1 this is about 2e-11, which matters only
    for gradients below about 1e-7.
    """
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
        arr[idx] = orig + step
        lp, _ = net.loss_and_grads(x, y)
        arr[idx] = orig - step
        lm, _ = net.loss_and_grads(x, y)
        arr[idx] = orig
        fd = (lp - lm) / (2 * step)
        resolution = (np.spacing(abs(lp)) + np.spacing(abs(lm))) / (2 * step)
        gap = max(abs(fd - grads[ti][idx]) - resolution, 0.0)
        worst = max(worst, gap / max(abs(fd), abs(grads[ti][idx]), 1e-8))
    return worst


def test_criterion_08_gradient_check():
    """Analytic gradients match central differences, rel < 1e-4, 100+ coords/model."""
    t0 = time.time()
    rng = np.random.default_rng(8)

    spec = ModelSpec(task="channel", init_seed=8)
    net = build_model(spec)
    set_params(net, init_params(spec))
    x = rng.standard_normal((2, 16, 14, 1))
    y = np.abs(rng.standard_normal((2, 16, 14, 1)))
    worst_channel = _fd_worst(net, x, y, n_coords=110)
    assert worst_channel < 1e-4

    # The default ladder doubles at every stage; on the uneven one every
    # decoder splits its input gradient at a different width.
    worst_radar = 0.0
    for ladder in ({}, {"encoder_filters": (4, 6, 10), "bottleneck_filters": 12}):
        spec = ModelSpec(task="radar", init_seed=8, **ladder)
        net = build_model(spec)
        set_params(net, init_params(spec))
        x = rng.standard_normal((2, 16, 16, 3))
        labels = rng.integers(0, 4, (2, 16, 16))
        worst = _fd_worst(net, x, labels, n_coords=110)
        assert worst < 1e-4, ladder
        worst_radar = max(worst_radar, worst)
    assert time.time() - t0 < 60
    _pass(8, t0, f"worst rel error: channel {worst_channel:.2e}, radar {worst_radar:.2e}")


def test_criterion_09_determinism(tmp_path):
    """Identical config and seeds produce byte-identical JSON and CSV outputs."""
    t0 = time.time()
    raw = {
        "experiment": "A", "task": "channel", "seed": 9,
        "clients": [2, 3], "rounds": 2, "modes": ["plain", "qkd_sa"],
        "epochs": 1, "train_samples": 16, "val_samples": 4,
        "channel_dims": [16, 14],
    }
    cfg = ExperimentConfig.from_dict(raw)
    m1 = run_experiment(cfg, tmp_path / "one")
    m2 = run_experiment(cfg, tmp_path / "two")
    assert m1 == m2
    compared = []
    for name in m1["files"]:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    _pass(9, t0, f"byte-identical outputs: {', '.join(sorted(compared))}")


def test_criterion_10_kdf_golden_vectors():
    """Pair-key symmetry exhaustive for K<=8; keystreams match committed vectors."""
    t0 = time.time()
    rng = np.random.default_rng(10)
    for k in range(2, 9):
        ctx = MaskingContext(
            round_seed=rng.integers(0, 2, 256, dtype=np.uint8),
            round_index=k,
            num_clients=k,
        )
        for i, j in itertools.combinations(range(k), 2):
            assert (derive_pair_key(ctx, i, j) == derive_pair_key(ctx, j, i)).all()

    for vec in GOLDEN["privacy_amplification"]:
        out = privacy_amplify(_bits(vec["sifted_bits"]), vec["final_len"])
        assert (out == _bits(vec["key_bits"])).all()
    for vec in GOLDEN["pair_key"]:
        ctx = MaskingContext(
            round_seed=_bits(vec["round_seed_bits"]),
            round_index=vec["round_index"],
            num_clients=8,
        )
        key = derive_pair_key(ctx, vec["i"], vec["j"])[: vec["key_bits_len"]]
        assert (key == _bits(vec["key_bits"])).all()
    for vec in GOLDEN["mask_keystream"]:
        stream = mask_keystream(
            _bits(vec["pair_key_bits"]), vec["tensor_ordinal"], vec["num_bits"]
        )
        assert (stream == _bits(vec["stream_bits"])).all()
    n_vecs = sum(len(v) for v in GOLDEN.values())
    assert time.time() - t0 < 60
    _pass(10, t0, f"symmetry exhaustive K<=8; {n_vecs} golden vectors byte-exact")
