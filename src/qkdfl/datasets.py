"""Synthetic data for the two tasks, plus a flat binary container format.

Channel task: single-antenna OFDM pilot grids.  Per resource element the
received symbol is y = x * h + z with unit-magnitude pilot x, Rayleigh
gain h ~ CN(0, 1) and AWGN z ~ CN(0, sigma_z^2), sigma_z^2 = 10^(-SNR/10).
The model input is |y|, the target |h|.  Pilots are drawn from {1, i, -1,
-i} so that multiplying by x is exact in floating point and the noiseless
input equals the target bit-for-bit.

Radar task: procedural spectrograms on a Gaussian-noise background with
0-2 horizontal frequency bands (LTE/NR) of smoothed band-limited texture
and 0-2 short high-intensity pulse rectangles (Radar).  Labels exactly
match the painted regions; pulses paint over bands.

Container layout (little-endian):
    header  magic "QFDS", u16 version, u8 task (0 channel / 1 radar),
            u8 reserved (0), u32 count, 4 x u32 dims (H, W, 1, 0 for
            channel; S, S, 3, 0 for radar)
    channel sample: f32 pilots (H*W), f32 truth (H*W), f32 snr_db
    radar sample:   f32 spectrogram (S*S*3), u8 labels (S*S), each a class id
A JSON sidecar at <path>.json records the generation parameters.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError

MAGIC = b"QFDS"
CONTAINER_VERSION = 1
_TASKS = ("channel", "radar")  # a task's container task code is its index
_HEADER = struct.Struct("<4sHBBIIIII")

CLASS_NOISE, CLASS_LTE, CLASS_NR, CLASS_RADAR = 0, 1, 2, 3
RADAR_CLASS_NAMES = ("Noise", "LTE", "NR", "Radar")

# Unit pilot alphabet; multiplication by any of these is exact in float64.
_PILOT_SYMBOLS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

# Relative gain of the three spectrogram channels for painted signal energy.
_CHANNEL_GAINS = np.array([1.0, 0.85, 0.7])

# Each task's channel depth: container dims[2], sample last axis, model input width.
DEPTH = {"channel": 1, "radar": len(_CHANNEL_GAINS)}


# Samples compare by identity: a field-wise __eq__ would compare arrays and raise.
@dataclass(eq=False)
class ChannelSample:
    pilots: np.ndarray  # (H, W, 1) |y|
    truth: np.ndarray  # (H, W, 1) |h|
    snr_db: float


@dataclass(eq=False)
class RadarSample:
    spectrogram: np.ndarray  # (S, S, 3)
    labels: np.ndarray  # (S, S) ints in {0, 1, 2, 3}


def gen_channel_dataset(
    n: int, snr_db: float, dims: tuple[int, int] = (48, 14), seed: int = 0
) -> list[ChannelSample]:
    """Generate n pilot/channel pairs at one SNR; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    h_dim, w_dim = dims
    rng = np.random.default_rng(seed)
    shape = (n, h_dim, w_dim)

    h = np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    sigma_z2 = 0.0 if np.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)
    z = np.sqrt(sigma_z2 / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    x = _PILOT_SYMBOLS[rng.integers(0, 4, size=shape)]
    y = x * h + z

    pilots = np.abs(y)[..., None]
    truth = np.abs(h)[..., None]
    return [
        ChannelSample(pilots=pilots[i], truth=truth[i], snr_db=float(snr_db))
        for i in range(n)
    ]


def gen_radar_dataset(n: int, size: int = 32, seed: int = 0) -> list[RadarSample]:
    """Generate n labeled spectrograms; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if size < 16:
        raise ValueError("size must be >= 16")
    rng = np.random.default_rng(seed)
    return [_gen_radar_sample(rng, size) for _ in range(n)]


def _smooth_texture(rng: np.random.Generator, length: int) -> np.ndarray:
    """Band-limited texture in [0.5, 1]: moving-average smoothed uniform noise."""
    raw = rng.random(length + 6)
    kernel = np.ones(7) / 7.0
    smooth = np.convolve(raw, kernel, mode="valid")
    lo, hi = smooth.min(), smooth.max()
    if hi - lo < 1e-12:
        return np.full(length, 0.75)
    return 0.5 + 0.5 * (smooth - lo) / (hi - lo)


def _gen_radar_sample(rng: np.random.Generator, s: int) -> RadarSample:
    spect = rng.normal(0.0, 0.05, size=(s, s, 3))
    labels = np.zeros((s, s), dtype=np.int64)
    row_used = np.zeros(s, dtype=bool)

    n_bands = int(rng.choice([0, 1, 2], p=[0.1, 0.3, 0.6]))
    if n_bands == 2:
        band_classes = [CLASS_LTE, CLASS_NR]
        rng.shuffle(band_classes)
    elif n_bands == 1:
        band_classes = [int(rng.choice([CLASS_LTE, CLASS_NR]))]
    else:
        band_classes = []

    for cls in band_classes:
        height = int(rng.integers(2, s // 4 + 1))
        placed = False
        for _ in range(10):
            r0 = int(rng.integers(0, s - height + 1))
            if not row_used[r0 : r0 + height].any():
                placed = True
                break
        if not placed:
            continue
        row_used[r0 : r0 + height] = True
        amp = 0.9 if cls == CLASS_LTE else 1.2
        texture = amp * _smooth_texture(rng, s)
        spect[r0 : r0 + height, :, :] += (
            texture[None, :, None] * _CHANNEL_GAINS[None, None, :]
        )
        labels[r0 : r0 + height, :] = cls

    n_pulses = int(rng.choice([0, 1, 2], p=[0.2, 0.4, 0.4]))
    for _ in range(n_pulses):
        ph = int(rng.integers(max(2, s // 8), s // 3 + 1))  # frequency extent
        pw = int(rng.integers(1, max(2, s // 10) + 1))  # short in time
        r0 = int(rng.integers(0, s - ph + 1))
        c0 = int(rng.integers(0, s - pw + 1))
        intensity = 2.5 + 0.5 * rng.random()
        spect[r0 : r0 + ph, c0 : c0 + pw, :] += intensity * _CHANNEL_GAINS[None, None, :]
        labels[r0 : r0 + ph, c0 : c0 + pw] = CLASS_RADAR

    return RadarSample(spectrogram=spect, labels=labels)


# ---------------------------------------------------------------------------
# Binary container
# ---------------------------------------------------------------------------


_SAMPLE_TYPES = {"channel": ChannelSample, "radar": RadarSample}


def _record_fields(task: str, dims) -> list[tuple[str, str, tuple]]:
    """One sample's container record as (sample attribute, container dtype,
    shape) fields, with every shape taken from the header dims."""
    d0, d1 = dims[:2]
    grid = (d0, d1, DEPTH[task])
    if task == "channel":
        return [("pilots", "<f4", grid), ("truth", "<f4", grid), ("snr_db", "<f4", ())]
    return [("spectrogram", "<f4", grid), ("labels", "u1", (d0, d1))]


def _widen(value):
    """A record field as a sample holds it: float64 or int64 arrays, a float."""
    if value.ndim == 0:
        return float(value)
    return value.astype(np.int64 if value.dtype.kind == "u" else np.float64)


def _labels_out_of_range(labels) -> bool:
    """True when a label map holds anything but the radar class ids."""
    return not np.isin(labels, np.arange(len(RADAR_CLASS_NAMES))).all()


def save_dataset(path, samples: list, gen_params: dict | None = None) -> None:
    """Write samples to the flat binary container plus a JSON sidecar.

    The header's height and width come from the first sample's shape; its
    channel depth is the task's (1 channel, 3 radar).  Raises ValueError,
    before any file is written, naming the first sample whose type or
    shapes differ from that record, or whose radar labels are not all class
    ids.
    """
    if not samples:
        raise ValueError("cannot save an empty dataset")
    path = Path(path)
    task = "channel" if isinstance(samples[0], ChannelSample) else "radar"
    lead = getattr(samples[0], "pilots" if task == "channel" else "spectrogram", None)
    dims = (*np.shape(lead), 0, 0, 0, 0)[:4]
    fields = _record_fields(task, dims)
    sample_type = _SAMPLE_TYPES[task]
    records = np.empty(len(samples), dtype=np.dtype(fields))
    for i, sample in enumerate(samples):
        if not isinstance(sample, sample_type) or any(
            np.shape(getattr(sample, attr)) != shape for attr, _, shape in fields
        ):
            raise ValueError(
                f"sample {i} does not match the dataset's record: every sample must be "
                f"a {sample_type.__name__} shaped {({a: s for a, _, s in fields})}"
            )
        if task == "radar" and _labels_out_of_range(sample.labels):
            raise ValueError(
                f"sample {i} has radar labels outside 0..{len(RADAR_CLASS_NAMES) - 1}"
            )
        records[i] = tuple(getattr(sample, attr) for attr, _, _ in fields)

    with open(path, "wb") as fh:
        header = (MAGIC, CONTAINER_VERSION, _TASKS.index(task), 0, len(samples), *dims)
        fh.write(_HEADER.pack(*header))
        fh.write(records.tobytes())

    sidecar = {
        "task": task,
        "count": len(samples),
        "dims": list(dims),
        "container_version": CONTAINER_VERSION,
        "gen_params": gen_params or {},
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> tuple[list, dict]:
    """Read a container back; returns (samples, sidecar dict).

    Raises DatasetFormatError, naming the path, when the header is short or
    invalid, the payload is not exactly `count` samples long, a radar label
    is not a class id, or the sidecar disagrees with the header's sample
    count.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise DatasetFormatError(
            f"{path}: truncated header ({len(data)} of {_HEADER.size} bytes)"
        )
    magic, version, task_code, reserved, count, *dims = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: not a dataset container (bad magic)")
    if version != CONTAINER_VERSION:
        raise DatasetFormatError(f"{path}: unsupported container version {version}")
    if task_code >= len(_TASKS):
        raise DatasetFormatError(f"{path}: unknown task code {task_code}")
    if reserved != 0:
        raise DatasetFormatError(f"{path}: reserved byte is {reserved}, not 0")
    if count == 0:
        raise DatasetFormatError(f"{path}: container holds no samples")
    task = _TASKS[task_code]
    if dims[2] != DEPTH[task]:
        raise DatasetFormatError(f"{path}: {task} dims[2] is {dims[2]}, not {DEPTH[task]}")
    if dims[3] != 0:
        raise DatasetFormatError(f"{path}: dims[3] is {dims[3]}, not 0")
    fields = _record_fields(task, dims)
    # Sized in Python ints: dims from a damaged header can overflow a numpy dtype.
    sample_bytes = sum(np.dtype(dt).itemsize * math.prod(shape) for _, dt, shape in fields)
    expected = count * sample_bytes
    payload = len(data) - _HEADER.size
    if payload != expected:
        kind = "truncated payload" if payload < expected else "trailing bytes"
        raise DatasetFormatError(
            f"{path}: {kind}: header promises {count} samples "
            f"({expected} bytes), file holds {payload}"
        )
    records = np.frombuffer(data, dtype=np.dtype(fields), count=count, offset=_HEADER.size)
    if task == "radar" and _labels_out_of_range(records["labels"]):
        raise DatasetFormatError(
            f"{path}: radar labels outside 0..{len(RADAR_CLASS_NAMES) - 1}"
        )
    samples = [
        _SAMPLE_TYPES[task](**{attr: _widen(rec[attr]) for attr, _, _ in fields})
        for rec in records
    ]

    sidecar_path = Path(str(path) + ".json")
    sidecar = {}
    if sidecar_path.exists():
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{sidecar_path}: sidecar is not JSON ({exc})") from exc
        if not isinstance(sidecar, dict) or sidecar.get("count", count) != count:
            raise DatasetFormatError(
                f"{sidecar_path}: sidecar does not match the header count {count}"
            )
    return samples, sidecar


def stack_batch(samples: list) -> tuple[np.ndarray, np.ndarray]:
    """Stack a list of samples into (inputs, targets) arrays for the model."""
    if isinstance(samples[0], ChannelSample):
        x = np.stack([s.pilots for s in samples])
        y = np.stack([s.truth for s in samples])
    else:
        x = np.stack([s.spectrogram for s in samples])
        y = np.stack([s.labels for s in samples])
    return x, y
