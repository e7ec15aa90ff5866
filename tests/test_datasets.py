import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qkdfl.datasets import (
    CLASS_LTE,
    CLASS_NOISE,
    CLASS_NR,
    CLASS_RADAR,
    ChannelSample,
    RadarSample,
    gen_channel_dataset,
    gen_radar_dataset,
    load_dataset,
    save_dataset,
    stack_batch,
)
from qkdfl.errors import DatasetFormatError, QkdflError


class TestChannelDataset:
    def test_noiseless_input_equals_target(self):
        # sigma_z = 0 and exact unit pilots: |y| == |h| bit-for-bit
        samples = gen_channel_dataset(5, snr_db=np.inf, dims=(24, 14), seed=0)
        for s in samples:
            assert (s.pilots == s.truth).all()

    def test_rayleigh_second_moment(self):
        # E[|h|^2] = 1 for CN(0, 1); >= 1e5 draws, 2% tolerance
        samples = gen_channel_dataset(160, snr_db=20.0, dims=(48, 14), seed=1)
        power = np.mean([np.mean(s.truth**2) for s in samples])
        assert samples[0].truth.size * len(samples) >= 100_000
        assert abs(power - 1.0) < 0.02

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_nan_or_minus_inf_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            gen_channel_dataset(2, snr_db=snr_db, dims=(8, 4), seed=0)

    def test_full_scale_dims(self):
        samples = gen_channel_dataset(2, snr_db=10.0, dims=(612, 14), seed=2)
        assert samples[0].pilots.size == 8568

    def test_deterministic(self):
        a = gen_channel_dataset(3, snr_db=10.0, seed=7)
        b = gen_channel_dataset(3, snr_db=10.0, seed=7)
        for sa, sb in zip(a, b):
            assert (sa.pilots == sb.pilots).all()
            assert (sa.truth == sb.truth).all()

    def test_truth_nonnegative(self):
        samples = gen_channel_dataset(4, snr_db=0.0, seed=3)
        assert all((s.truth >= 0).all() for s in samples)

    def test_noise_grows_with_lower_snr(self):
        low = gen_channel_dataset(40, snr_db=0.0, seed=4)
        high = gen_channel_dataset(40, snr_db=30.0, seed=4)
        err_low = np.mean([np.mean((s.pilots - s.truth) ** 2) for s in low])
        err_high = np.mean([np.mean((s.pilots - s.truth) ** 2) for s in high])
        assert err_low > err_high


class TestRadarDataset:
    def test_deterministic(self):
        a = gen_radar_dataset(5, size=32, seed=5)
        b = gen_radar_dataset(5, size=32, seed=5)
        for sa, sb in zip(a, b):
            assert (sa.spectrogram == sb.spectrogram).all()
            assert (sa.labels == sb.labels).all()

    def test_all_classes_appear_over_200_samples(self):
        samples = gen_radar_dataset(200, size=32, seed=6)
        seen = set()
        for s in samples:
            seen.update(np.unique(s.labels).tolist())
        assert seen == {CLASS_NOISE, CLASS_LTE, CLASS_NR, CLASS_RADAR}

    def test_class_frequencies(self):
        # every class present in >= 60% of a large dataset
        samples = gen_radar_dataset(400, size=32, seed=7)
        for cls in (CLASS_NOISE, CLASS_LTE, CLASS_NR, CLASS_RADAR):
            frac = np.mean([(s.labels == cls).any() for s in samples])
            assert frac >= 0.6, f"class {cls} present in only {frac:.0%}"

    def test_background_always_present(self):
        samples = gen_radar_dataset(100, size=32, seed=8)
        assert all((s.labels == CLASS_NOISE).any() for s in samples)

    def test_empty_sample_has_zero_labels(self):
        # some draws paint nothing: their label map must be all background
        samples = gen_radar_dataset(300, size=32, seed=9)
        quiet = [s for s in samples if s.spectrogram.max() < 0.5]
        assert quiet, "expected at least one sample without bands or pulses"
        for s in quiet:
            assert (s.labels == CLASS_NOISE).all()

    def test_labels_match_painted_energy(self):
        # labeled pixels carry more energy than the noise floor
        for s in gen_radar_dataset(20, size=32, seed=10):
            signal = s.labels != CLASS_NOISE
            if signal.any():
                sig_mean = s.spectrogram[signal].mean()
                noise_mean = s.spectrogram[~signal].mean()
                assert sig_mean > noise_mean + 0.2

    def test_full_scale_size(self):
        samples = gen_radar_dataset(2, size=256, seed=11)
        assert samples[0].spectrogram.shape == (256, 256, 3)
        assert samples[0].labels.shape == (256, 256)

    def test_size_floor(self):
        with pytest.raises(ValueError):
            gen_radar_dataset(1, size=8, seed=0)


class TestContainer:
    def test_channel_round_trip(self, tmp_path):
        samples = gen_channel_dataset(4, snr_db=15.0, dims=(24, 14), seed=12)
        path = tmp_path / "channel.qfds"
        save_dataset(path, samples, gen_params={"snr_db": 15.0, "seed": 12})
        loaded, sidecar = load_dataset(path)
        assert len(loaded) == 4
        assert sidecar["task"] == "channel"
        assert sidecar["gen_params"]["snr_db"] == 15.0
        for orig, back in zip(samples, loaded):
            assert np.allclose(orig.pilots, back.pilots, atol=1e-6)
            assert np.allclose(orig.truth, back.truth, atol=1e-6)
            assert back.snr_db == pytest.approx(15.0)

    def test_radar_round_trip(self, tmp_path):
        samples = gen_radar_dataset(3, size=32, seed=13)
        path = tmp_path / "radar.qfds"
        save_dataset(path, samples)
        loaded, sidecar = load_dataset(path)
        assert sidecar["task"] == "radar"
        for orig, back in zip(samples, loaded):
            assert np.allclose(orig.spectrogram, back.spectrogram, atol=1e-6)
            assert (orig.labels == back.labels).all()

    def test_non_square_radar_round_trip(self, tmp_path):
        samples = [
            RadarSample(spectrogram=s.spectrogram[:16], labels=s.labels[:16])
            for s in gen_radar_dataset(3, size=32, seed=15)
        ]
        path = tmp_path / "wide.qfds"
        save_dataset(path, samples)
        loaded, sidecar = load_dataset(path)
        assert sidecar["dims"] == [16, 32, 3, 0]
        for orig, back in zip(samples, loaded):
            assert back.spectrogram.shape == (16, 32, 3)
            assert np.allclose(orig.spectrogram, back.spectrogram, atol=1e-6)
            assert (orig.labels == back.labels).all()

    @pytest.mark.parametrize("last", ["channel 4x8", "radar"])
    def test_mixed_samples_rejected_before_writing(self, tmp_path, last):
        samples = gen_channel_dataset(2, snr_db=10.0, dims=(8, 4), seed=16)
        if last == "radar":
            samples += gen_radar_dataset(1, size=16, seed=17)
        else:
            samples += gen_channel_dataset(1, snr_db=10.0, dims=(4, 8), seed=17)
        with pytest.raises(ValueError, match="sample 2 .*ChannelSample"):
            save_dataset(tmp_path / "mixed.qfds", samples)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "task, digests",
        [
            ("channel", ("6ba04d3b77adc612205e5f79df924d78748b69ece8f11686df851d02c7c9d403",
                         "50e29e964728a3629b5c60433df9cbaf44ac5508327d5404f736a74cf67b13c4")),
            ("radar", ("35902c64dd7b661822c16e849ece6ea53d5b6b86084da21959c4e2a199bd10a3",
                       "bc25842fa66b107c68b0cc6bb345649b6070518f5b0b589e16658a9c633f568f")),
        ],
    )
    def test_container_bytes_pinned(self, tmp_path, task, digests):
        # Fixed samples from exact arithmetic only (no RNG, no libm), so the
        # digests pin the container and sidecar format, nothing upstream.
        if task == "channel":
            grid = np.arange(3 * 8 * 4, dtype=np.float64).reshape(3, 8, 4, 1)
            samples = [
                ChannelSample(pilots=grid[i] / 7.0, truth=np.sqrt(grid[i]), snr_db=2.5 * i - 1.0)
                for i in range(3)
            ]
            gen_params = {"seed": 21, "snr_db": 12.5}
        else:
            spect = np.arange(2 * 16 * 16 * 3, dtype=np.float64).reshape(2, 16, 16, 3)
            labels = np.arange(2 * 16 * 16).reshape(2, 16, 16) % 4
            samples = [
                RadarSample(spectrogram=(spect[i] % 17) / 7.0 - 1.0, labels=labels[i])
                for i in range(2)
            ]
            gen_params = {"size": 16}
        path = tmp_path / f"{task}.qfds"
        save_dataset(path, samples, gen_params=gen_params)
        got = tuple(
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (path, tmp_path / f"{task}.qfds.json")
        )
        assert got == digests

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qfds"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [(0, b"nope", "bad magic"), (1, 2, "version 2"), (2, 7, "task code 7"),
         (3, 5, "reserved byte is 5"), (4, 0, "no samples"),
         (7, 7, r"channel dims\[2\] is 7"), (8, 9, r"dims\[3\] is 9")],
    )
    def test_bad_header_is_typed(self, tmp_path, field, value, message):
        path = tmp_path / "junk.qfds"
        save_dataset(path, gen_channel_dataset(1, snr_db=10.0, dims=(4, 3), seed=0))
        header = struct.Struct("<4sHBBIIIII")
        data = path.read_bytes()
        fields = list(header.unpack_from(data))
        fields[field] = value
        path.write_bytes(header.pack(*fields) + data[header.size:])
        with pytest.raises(DatasetFormatError, match=f"junk.qfds: .*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize("channels", [slice(0, 1), slice(0, 2), [0, 1, 2, 0], 0])
    def test_radar_channel_count_rejected_before_writing(self, tmp_path, channels):
        samples = [
            RadarSample(spectrogram=s.spectrogram[..., channels], labels=s.labels)
            for s in gen_radar_dataset(2, size=16, seed=20)
        ]
        with pytest.raises(ValueError, match="sample 0 .*RadarSample"):
            save_dataset(tmp_path / "depth.qfds", samples)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("depth", [1, 4])
    def test_radar_channel_count_on_load(self, tmp_path, depth):
        # A radar container whose records really hold `depth` channels, so
        # only the header's dims[2] is wrong.
        record = np.dtype(
            [("spectrogram", "<f4", (16, 16, depth)), ("labels", "u1", (16, 16))]
        )
        header = struct.Struct("<4sHBBIIIII").pack(b"QFDS", 1, 1, 0, 2, 16, 16, depth, 0)
        path = tmp_path / "depth.qfds"
        path.write_bytes(header + np.zeros(2, dtype=record).tobytes())
        message = rf"depth.qfds: radar dims\[2\] is {depth}, not 3"
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [-300, 4, 255, 1.5])
    def test_radar_labels_out_of_range_rejected_before_writing(self, tmp_path, bad):
        samples = gen_radar_dataset(2, size=16, seed=18)
        labels = samples[1].labels.astype(type(bad))
        labels[3, 5] = bad
        samples[1] = RadarSample(spectrogram=samples[1].spectrogram, labels=labels)
        with pytest.raises(ValueError, match="sample 1 has radar labels outside 0..3"):
            save_dataset(tmp_path / "labels.qfds", samples)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [4, 255])
    def test_radar_labels_out_of_range_on_load(self, tmp_path, bad):
        path = tmp_path / "labels.qfds"
        save_dataset(path, gen_radar_dataset(2, size=16, seed=19))
        data = bytearray(path.read_bytes())
        data[-1] = bad  # the last label of the last sample
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetFormatError, match="labels.qfds: radar labels outside 0..3"):
            load_dataset(path)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        task=st.sampled_from(["channel", "radar"]),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 40.0),
    )
    def test_round_trip_property(self, tmp_path, task, n, seed, snr_db):
        if task == "channel":
            samples = gen_channel_dataset(n, snr_db=snr_db, dims=(6, 5), seed=seed)
        else:
            samples = gen_radar_dataset(n, size=16, seed=seed)
        path = tmp_path / "prop.qfds"
        save_dataset(path, samples, gen_params={"seed": seed})
        loaded, sidecar = load_dataset(path)
        assert sidecar["count"] == n and sidecar["gen_params"] == {"seed": seed}
        assert len(loaded) == n
        def f32(a):
            return a.astype(np.float32).astype(np.float64)

        for orig, back in zip(samples, loaded):
            if task == "channel":
                assert (back.pilots == f32(orig.pilots)).all()
                assert (back.truth == f32(orig.truth)).all()
                assert back.snr_db == float(np.float32(orig.snr_db))
            else:
                assert (back.spectrogram == f32(orig.spectrogram)).all()
                assert (back.labels == orig.labels).all()
                assert back.labels.dtype == np.int64

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(task=st.sampled_from(["channel", "radar"]), cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation_is_typed(self, tmp_path, task, cut):
        if task == "channel":
            samples = gen_channel_dataset(2, snr_db=10.0, dims=(4, 3), seed=1)
        else:
            samples = gen_radar_dataset(2, size=16, seed=1)
        path = tmp_path / "cut.qfds"
        save_dataset(path, samples)
        data = path.read_bytes()
        path.write_bytes(data[: int(cut * len(data))])
        with pytest.raises(DatasetFormatError, match="cut.qfds") as info:
            load_dataset(path)
        assert isinstance(info.value, QkdflError)

    def test_trailing_bytes_are_typed(self, tmp_path):
        path = tmp_path / "long.qfds"
        save_dataset(path, gen_channel_dataset(2, snr_db=10.0, dims=(4, 3), seed=2))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DatasetFormatError, match="trailing bytes"):
            load_dataset(path)

    @pytest.mark.parametrize("text", [json.dumps({"count": 3}), "[]", "{"])
    def test_bad_sidecar_is_typed(self, tmp_path, text):
        path = tmp_path / "side.qfds"
        save_dataset(path, gen_radar_dataset(2, size=16, seed=3))
        (tmp_path / "side.qfds.json").write_text(text)
        with pytest.raises(DatasetFormatError, match="side.qfds.json"):
            load_dataset(path)

    def test_stack_batch_shapes(self):
        samples = gen_channel_dataset(3, snr_db=10.0, dims=(16, 14), seed=14)
        x, y = stack_batch(samples)
        assert x.shape == (3, 16, 14, 1)
        assert y.shape == (3, 16, 14, 1)


class TestSampleIdentity:
    @pytest.mark.parametrize(
        "make", [lambda: gen_channel_dataset(1, 10.0, dims=(8, 4), seed=0)[0],
                 lambda: gen_radar_dataset(1, size=16, seed=0)[0]],
        ids=["channel", "radar"],
    )
    def test_compare_and_hash_by_identity(self, make):
        # A field-wise __eq__ would compare arrays and raise ValueError.
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert b in [a, b] and a not in [b]


class TestGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda tmp: gen_channel_dataset(0, snr_db=10.0), "n must be >= 1",
                         id="no-channel-samples"),
            pytest.param(lambda tmp: gen_radar_dataset(0), "n must be >= 1", id="no-radar-samples"),
            pytest.param(lambda tmp: save_dataset(tmp / "empty.qfds", []),
                         "cannot save an empty dataset", id="save-empty"),
        ],
    )
    def test_raises(self, call, message, tmp_path):
        with pytest.raises(ValueError, match=message):
            call(tmp_path)
        assert not any(tmp_path.iterdir())
