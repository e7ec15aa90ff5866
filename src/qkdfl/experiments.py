"""Declarative experiment runner and report emitter.

Three experiment families:

    A  utility/communication vs. client count, per aggregation mode
    B  threat-model arms: plain baseline, secure mode, and an
       intercept-resend attacker in every round
    C  key-agreement noise sweep: pooled QBER and abort rate per noise level

All three run on one path.  `_cells` lists a run's cells in output order:
one (clients, mode) cell per pair for A, the fixed `_B_ARMS` for B, one
noise point for C.  `_run_cell` runs one cell, in this process or in a
pool worker, and returns its rows keyed by output file; `run_cells` maps
the cells and concatenates each file's rows in cell order; and
`run_experiment` writes every table and echoes it into the summary.

A run directory contains a manifest (resolved config echo + hash + CSV
schemas), JSON-lines round reports (A/B), a run summary JSON, and one or
two CSV summary tables.  Every emitted row carries the config hash, all
randomness descends from the single config seed, and rows are written in
a fixed cell order, so identical configs reproduce byte-identical output.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeds
from .datasets import gen_channel_dataset, gen_radar_dataset
from .errors import ConfigError
from .federated import (
    MODES,
    STATUS_ABORTED,
    STATUS_SECURE,
    RoundConfig,
    RoundReport,
    partition_non_iid,
    run_training,
    usable_cores,
)
from .models import ModelSpec, TASK_CHANNEL, TASK_RADAR, init_params
from .qkd import BB84Config, run_bb84
from .seeds import derive_seed

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

EXPERIMENTS = ("A", "B", "C")
TASKS = (TASK_CHANNEL, TASK_RADAR)

_TAG_PARTITION = seeds.PARTITION  # alias: perfbench/workloads.py reads it
_TAG_SWEEP = seeds.SWEEP  # alias: perfbench/workloads.py reads it

CSV_SCHEMAS = {
    "exp_a_summary.csv": [
        "schema_version", "config_hash", "experiment", "task", "clients", "mode",
        "rounds_total", "rounds_secure", "rounds_aborted",
        "final_nmse", "final_accuracy", "final_miou",
        "downlink_bytes", "uplink_bytes",
    ],
    "exp_b_rounds.csv": [
        "schema_version", "config_hash", "arm", "mode", "eve", "round",
        "status", "qber", "nmse", "accuracy", "miou",
    ],
    "exp_b_summary.csv": [
        "schema_version", "config_hash", "arm", "mode", "eve",
        "rounds", "secure", "aborted", "recovered", "mean_qber",
        "retained_nmse", "retained_accuracy", "retained_miou",
    ],
    "exp_c_sweep.csv": [
        "schema_version", "config_hash", "eta", "sessions",
        "mean_qber", "abort_rate", "qber_threshold", "mean_sifted_len",
    ],
    "leakage.csv": [
        "schema_version", "config_hash", "cell", "round", "qber",
        "nmse", "accuracy", "miou", "mean_cosine", "mean_pearson",
    ],
}


def _read(path: Path, missing: str) -> bytes:
    """The bytes of file `path`; else a ConfigError: `missing` when there is
    no such file, the OS's reason when it cannot be read."""
    try:
        return path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):  # a parent may be a file
        raise ConfigError(missing) from None
    except OSError as exc:  # a directory, a permission, an I/O error
        raise ConfigError(f"{path}: cannot be read ({exc.strerror})") from None


def _json_object(data: bytes, where: str) -> dict:
    """`data` as a JSON object; else a ConfigError that names `where`."""
    try:
        obj = json.loads(data)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return obj


# Each JSON scalar kind: its test (a bool is never a number) and its name.
_SCALARS = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    type(None): (lambda v: v is None, "null"),
}


def _typed(kind, value, name: str, fail):
    """`value` checked against the annotation `kind`: a scalar or a union of
    scalars, `tuple[X, ...]`, `tuple[X, X]`, `list[X]`, `dict` or
    `dict[str, X]`.  A list given for a tuple becomes a tuple; an entry is
    named `name[i]`, a mapped value `name.key`."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            fail(name, "must be a list")
        fixed = origin is tuple and args[-1] is not Ellipsis
        if fixed and len(value) != len(args):
            fail(name, f"must have {len(args)} entries")
        items = [_typed(args[i] if fixed else args[0], v, f"{name}[{i}]", fail)
                 for i, v in enumerate(value)]
        return tuple(items) if origin is tuple else items
    if dict in (kind, origin):
        if not isinstance(value, dict):
            fail(name, "must be an object")
        if args:  # dict[str, X]: a JSON object's keys are strings
            for key, v in value.items():
                _typed(args[1], v, f"{name}.{key}", fail)
        return value
    arms = args or (kind,)  # a union's arms, or the one scalar kind
    arm = next((a for a in arms if _SCALARS[a][0](value)), None)
    if arm is None:
        fail(name, "must be " + " or ".join(_SCALARS[a][1] for a in arms))
    if arm is float:
        try:
            float(value)
        except OverflowError:  # a JSON integer beyond the float range
            fail(name, "must fit in a float")
    return value


@functools.cache
def _field_kinds(cls) -> dict:
    """Each field of the dataclass `cls` and its annotation, evaluated once:
    `typing.get_type_hints` compiles every annotation string anew."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _typed_record(cls, raw, where: str, fmt: str, **extra) -> dict:
    """`raw` as keyword arguments for the dataclass `cls`, checked against
    its annotations: a JSON object whose keys are fields of `cls` or the
    `extra` keys (each given with its kind, each required), with every field
    that has no default present and every value of its kind.  A failure is
    a ConfigError worded by `fmt` from `where`, the field and the message."""
    def fail(field: str, msg: str):
        raise ConfigError(fmt.format(where=where, field=field, msg=msg))

    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    kinds = _field_kinds(cls) | extra
    for key in raw:
        if key not in kinds:
            fail(key, "unknown field")
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    for key in [*required, *extra]:
        if key not in raw:
            fail(key, "required field missing")
    return {key: _typed(kinds[key], value, key, fail) for key, value in raw.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one run; every field is echoed to disk."""

    experiment: str
    task: str
    seed: int
    out_dir: str | None = None
    clients: tuple[int, ...] = (3, 10, 20)
    rounds: int = 5
    modes: tuple[str, ...] = ("plain", "classical_sa", "qkd_sa")
    eve: bool = False
    epochs: int = 3
    batch_size: int = 16
    learning_rate: float = 1e-3
    qber_threshold: float = RoundConfig.qber_threshold
    mask_scale: float = RoundConfig.mask_scale
    raw_key_len: int = BB84Config.raw_len
    pa_ratio: float = BB84Config.pa_ratio
    train_samples: int = 96
    val_samples: int = 32
    snr_db: float = 10.0
    channel_dims: tuple[int, int] = (48, 14)
    radar_size: int = 32
    partition_skew: float = 1.0
    noise_grid: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    sessions_per_point: int = 1000

    # Float fields that may be +Infinity: noiseless data and a balanced split.
    _MAY_BE_INFINITE = ("snr_db", "partition_skew")

    @classmethod
    def from_dict(cls, raw: dict, source: str = "config") -> "ExperimentConfig":
        cfg = cls(**_typed_record(cls, raw, source, "{where}.{field}: {msg}"))
        cfg._validate(source)
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        raw = _json_object(_read(path, f"{path}: no such config file"), str(path))
        return cls.from_dict(raw, source=str(path))

    def _validate(self, source: str) -> None:
        """Ranges and policy; `_typed_record` has checked every type."""
        def check(cond: bool, field: str, msg: str) -> None:
            if not cond:
                raise ConfigError(f"{source}.{field}: {msg}")

        check(self.experiment in EXPERIMENTS, "experiment", f"must be one of {EXPERIMENTS}")
        check(self.task in TASKS, "task", f"must be one of {TASKS}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                check(value == math.inf and f.name in self._MAY_BE_INFINITE, f.name,
                      "must be finite")
        check(self.seed >= 0, "seed", "must be >= 0")
        check(len(self.clients) > 0, "clients", "must be nonempty")
        for i, k in enumerate(self.clients):
            check(k >= 2, f"clients[{i}]", "must be an integer >= 2")
        check(self.rounds >= 1, "rounds", "must be >= 1")
        check(len(self.modes) > 0, "modes", "must be nonempty")
        for i, m in enumerate(self.modes):
            check(m in MODES, f"modes[{i}]", f"must be one of {MODES}")
        check(self.epochs >= 0, "epochs", "must be >= 0")
        check(self.batch_size >= 1, "batch_size", "must be >= 1")
        check(self.learning_rate > 0, "learning_rate", "must be positive")
        check(0.0 < self.qber_threshold < 1.0, "qber_threshold", "must be in (0, 1)")
        check(self.mask_scale >= 0.0, "mask_scale", "must be non-negative")
        if self.experiment != "C":  # C runs no masked rounds
            # K masked uploads sum to at most K·(K − 1)·γ in magnitude.
            k = max(self.clients)
            check(math.isfinite(float(self.mask_scale) * k * (k - 1)), "mask_scale",
                  f"K·(K − 1)·mask_scale must be finite at K = {k}")
        check(self.raw_key_len >= 64, "raw_key_len", "must be >= 64")
        check(0.0 < self.pa_ratio <= 1.0, "pa_ratio", "must be in (0, 1]")
        check(self.train_samples >= max(self.clients), "train_samples",
              "must cover the largest client count")
        check(self.val_samples >= 1, "val_samples", "must be >= 1")
        check(len(self.noise_grid) > 0, "noise_grid", "must be nonempty")
        for i, eta in enumerate(self.noise_grid):
            check(0.0 <= eta <= 1.0, f"noise_grid[{i}]", "must be a number in [0, 1]")
        check(self.sessions_per_point >= 1, "sessions_per_point", "must be >= 1")
        check(self.partition_skew > 0, "partition_skew", "must be positive")
        check(self.radar_size >= 16, "radar_size", "must be >= 16")
        check(self.radar_size % 8 == 0, "radar_size", "must be divisible by 8")
        for i, v in enumerate(self.channel_dims):
            check(v >= 1, f"channel_dims[{i}]", "must be a positive integer")

    def config_hash(self) -> str:
        # JSON writes each tuple field of asdict's copy as a list.
        canon = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def model_spec(self) -> ModelSpec:
        return ModelSpec(task=self.task, init_seed=derive_seed(self.seed, seeds.MODEL_INIT))

    def bb84_template(self, eve: bool) -> BB84Config:
        return BB84Config(
            raw_len=self.raw_key_len,
            pa_ratio=self.pa_ratio,
            eve_present=eve,
        )

    def make_datasets(self) -> tuple[list, list]:
        train_seed = derive_seed(self.seed, seeds.TRAIN_DATA)
        val_seed = derive_seed(self.seed, seeds.VAL_DATA)
        if self.task == TASK_CHANNEL:
            train = gen_channel_dataset(
                self.train_samples, self.snr_db, self.channel_dims, train_seed
            )
            val = gen_channel_dataset(
                self.val_samples, self.snr_db, self.channel_dims, val_seed
            )
        else:
            train = gen_radar_dataset(self.train_samples, self.radar_size, train_seed)
            val = gen_radar_dataset(self.val_samples, self.radar_size, val_seed)
        return train, val

    def round_config(self, num_clients: int, mode: str, eve: bool) -> RoundConfig:
        return RoundConfig(
            num_clients=num_clients,
            epochs=self.epochs,
            mode=mode,
            model=self.model_spec(),
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            master_seed=derive_seed(self.seed, seeds.FL_MASTER),
            qber_threshold=self.qber_threshold,
            bb84=self.bb84_template(eve),
            mask_scale=self.mask_scale,
        )


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


# Fixed threat-model arms; the attack arm always runs the masked mode under Eve.
_B_ARMS = (
    ("baseline", "plain", False),
    ("secure", "qkd_sa", False),
    ("eve_all_rounds", "qkd_sa", True),
)


def _cells(cfg: ExperimentConfig) -> list[tuple]:
    """The run's cells in output order: (arm, clients, mode, eve) for a
    federated cell of A or B, (point index, eta) for a point of the C sweep."""
    if cfg.experiment == "A":
        return [(None, k, mode, cfg.eve) for k in cfg.clients for mode in cfg.modes]
    if cfg.experiment == "B":
        return [(arm, cfg.clients[0], mode, eve) for arm, mode, eve in _B_ARMS]
    return list(enumerate(cfg.noise_grid))


def _run_cell(args) -> dict[str, list[dict]]:
    """Run one cell with `trainers` concurrent client trainers; returns its
    rows keyed by output file name."""
    cfg, cell, trainers = args
    head = {"schema_version": SCHEMA_VERSION, "config_hash": cfg.config_hash()}

    if cfg.experiment == "C":
        index, eta = cell
        template = cfg.bb84_template(cfg.eve)
        sessions = [
            run_bb84(dataclasses.replace(
                template, depolarize_prob=eta,
                rng_seed=derive_seed(cfg.seed, seeds.SWEEP, index, s),
            ))
            for s in range(cfg.sessions_per_point)
        ]
        qbers = np.array([s.qber for s in sessions])
        return {"exp_c_sweep.csv": [{
            **head,
            "eta": eta,
            "sessions": len(sessions),
            "mean_qber": float(qbers.mean()),
            "abort_rate": float(np.mean(qbers >= cfg.qber_threshold)),
            "qber_threshold": cfg.qber_threshold,
            "mean_sifted_len": float(np.mean([s.sifted_len for s in sessions])),
        }]}

    # R federated rounds from a fresh model.
    arm, k, mode, eve = cell
    train, val = cfg.make_datasets()
    shards = partition_non_iid(
        train, k, cfg.partition_skew, derive_seed(cfg.seed, seeds.PARTITION, k)
    )
    _, reports = run_training(
        init_params(cfg.model_spec()), cfg.rounds, cfg.round_config(k, mode, eve), shards, val,
        trainers,
    )
    coords = {"clients": k, "mode": mode, "eve": eve}
    if arm is not None:
        coords["arm"] = arm
    rounds = [
        {**dataclasses.asdict(r), "cell": dict(coords), "config_hash": head["config_hash"]}
        for r in reports
    ]
    final = reports[-1].utility
    secure = sum(r.status == STATUS_SECURE for r in reports)
    aborted = sum(r.status == STATUS_ABORTED for r in reports)

    if arm is None:
        return {"rounds.jsonl": rounds, "exp_a_summary.csv": [{
            **head,
            "experiment": "A",
            "task": cfg.task,
            "clients": k,
            "mode": mode,
            "rounds_total": len(reports),
            "rounds_secure": secure,
            "rounds_aborted": aborted,
            **{f"final_{key}": v for key, v in final.items()},
            "downlink_bytes": sum(r.bytes_down for r in reports),
            "uplink_bytes": sum(r.bytes_up for r in reports),
        }]}

    arm_columns = {**head, "arm": arm, "mode": mode, "eve": eve}
    qbers = [r.qber for r in reports if r.qber is not None]
    return {
        "rounds.jsonl": rounds,
        "exp_b_rounds.csv": [{**d["utility"], **d, **arm_columns} for d in rounds],
        "exp_b_summary.csv": [{
            **arm_columns,
            "rounds": len(reports),
            "secure": secure,
            "aborted": aborted,
            "recovered": 0,  # aborted rounds are consumed, never retried
            "mean_qber": float(np.mean(qbers)) if qbers else None,
            **{f"retained_{key}": v for key, v in final.items()},
        }],
    }


def run_cells(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Run every cell of the configured experiment; returns each output
    file's rows, concatenated in cell order, keyed by file name.

    The cells run over W = min(cells, usable cores) worker processes, or in
    this process when W is 1, and each trains a round's clients on
    cores // W threads, so processes times threads never exceed the usable
    cores.  Neither number changes an output byte.
    """
    cell_list = _cells(cfg)
    cores = usable_cores()
    workers = min(len(cell_list), cores)
    cells = [(cfg, cell, cores // workers) for cell in cell_list]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(c) for c in cells]
    tables: dict[str, list[dict]] = {}
    for result in results:
        for name, rows in result.items():
            tables.setdefault(name, []).extend(rows)
    return tables


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # float(): an np.float64 reprs as "np.float64(...)" under numpy 2.
        return repr(float(v))
    return str(v)


def write_csv(path: Path, name: str, rows: list[dict]) -> list[dict]:
    """Write `rows` projected onto the columns of CSV_SCHEMAS[name], None
    for a column a row lacks; returns the projected rows."""
    columns = CSV_SCHEMAS[name]
    table = [{col: row.get(col) for col in columns} for row in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_value(v) for v in row.values()] for row in table)
    return table


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_jsonl(path: Path, dicts: list[dict]) -> None:
    with open(path, "w") as fh:
        for d in dicts:
            fh.write(json.dumps(d, sort_keys=True, separators=(",", ": ")))
            fh.write("\n")


# The summary.json key each output table is echoed under; exp_b_rounds.csv
# repeats rounds.jsonl and is not echoed.
_SUMMARY_KEYS = {
    "rounds.jsonl": "rounds",
    "exp_a_summary.csv": "final",
    "exp_b_summary.csv": "final",
    "exp_c_sweep.csv": "sweep",
}


def _check_out_dir(out_dir) -> Path:
    """`out_dir` as a Path, if it or its nearest existing ancestor is a
    directory; else a ConfigError that names it.  Creates nothing."""
    out = Path(out_dir)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"{out}: not an output directory ({found} is not a directory)")
    return out


# Every file a run, or the report verb, writes into a run directory.
_RUN_FILES = ("manifest.json", "summary.json", "rounds.jsonl", *CSV_SCHEMAS)


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run the configured experiment and persist all outputs under out_dir.

    A run into an earlier run's directory (one holding a manifest) first
    deletes every file a run or its report writes there, so no table of the
    earlier run survives beside this run's manifest.  Returns the manifest
    dict.
    """
    out = _check_out_dir(out_dir)
    tables = run_cells(cfg)
    out.mkdir(parents=True, exist_ok=True)
    if (out / "manifest.json").exists():
        for name in _RUN_FILES:
            (out / name).unlink(missing_ok=True)
    chash = cfg.config_hash()
    config = dataclasses.asdict(cfg)
    summary: dict = {"config": config, "config_hash": chash}
    for name, rows in tables.items():
        if name.endswith(".jsonl"):
            _write_jsonl(out / name, rows)
        else:  # the summary echoes the table as written
            rows = write_csv(out / name, name, rows)
        if name in _SUMMARY_KEYS:
            summary[_SUMMARY_KEYS[name]] = rows

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_hash": chash,
        "csv_schemas": {name: CSV_SCHEMAS[name] for name in tables if name in CSV_SCHEMAS},
        "files": sorted(["manifest.json", "summary.json", *tables]),
    }
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "summary.json", summary)
    return manifest


def report_leakage(run_dir, out_dir=None) -> list[dict]:
    """Per-round leakage table from a finished run's JSON-lines reports.

    Rows cover SECURE rounds only; emits a header-only CSV with a warning
    when the run has none.  The rounds are read only when the manifest lists
    `rounds.jsonl`, and every line must be a `RoundReport` plus its `cell`
    and the manifest's `config_hash`.  A file that cannot be read, a
    damaged manifest or a damaged round line is a ConfigError that names
    its file, and the line for a round.
    """
    run = Path(run_dir)
    out = _check_out_dir(out_dir) if out_dir else run
    manifest_path = run / "manifest.json"
    manifest = _json_object(
        _read(manifest_path, f"{run}: not a run directory (missing manifest.json)"),
        str(manifest_path),
    )
    if not isinstance(manifest.get("files"), list):
        raise ConfigError(f"{manifest_path}: files must be a JSON list")
    if not isinstance(manifest.get("config_hash"), str):
        raise ConfigError(f"{manifest_path}: config_hash must be a JSON string")
    # Only a rounds file this run wrote, which its manifest lists.
    rounds_path = run / "rounds.jsonl"
    lines = []
    if "rounds.jsonl" in manifest["files"]:
        missing = f"{rounds_path}: listed in the manifest but missing"
        lines = _read(rounds_path, missing).splitlines()

    rows = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{rounds_path}:{lineno}"
        d = _typed_record(
            RoundReport, _json_object(line, where), where, "{where}: {field} {msg}",
            cell=dict[str, str | int | float | bool | None], config_hash=str,
        )
        if d["config_hash"] != manifest["config_hash"]:
            raise ConfigError(f"{where}: config_hash {d['config_hash']} is not the "
                              f"manifest's {manifest['config_hash']}")
        if d["status"] != STATUS_SECURE:
            continue
        rows.append({
            **d["utility"], **d,
            "schema_version": SCHEMA_VERSION,
            "cell": ",".join(f"{k}={v}" for k, v in sorted(d["cell"].items())),
            "mean_cosine": d["leakage_mean_cosine"],
            "mean_pearson": d["leakage_mean_pearson"],
        })
    if not rows:
        logger.warning("%s: no SECURE rounds found; leakage table is empty", run)

    out.mkdir(parents=True, exist_ok=True)
    return write_csv(out / "leakage.csv", "leakage.csv", rows)
