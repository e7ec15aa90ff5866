import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdfl.errors import ConfigError
from qkdfl.experiments import (
    CSV_SCHEMAS,
    EXPERIMENTS,
    TASKS,
    ExperimentConfig,
    report_leakage,
    run_cells,
    run_experiment,
    write_csv,
)
from qkdfl.federated import MODES, usable_cores

BASE_A = {
    "experiment": "A",
    "task": "channel",
    "seed": 77,
    "clients": [3, 10, 20],
    "rounds": 1,
    "modes": ["plain", "qkd_sa"],
    "epochs": 0,
    "train_samples": 40,
    "val_samples": 4,
    "channel_dims": [16, 14],
}


def make_cfg(**overrides):
    raw = dict(BASE_A)
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# Valid configs: every optional field left out or drawn from its valid range.
# Clients stay at most 64, so any train_samples drawn covers them and any
# mask_scale drawn keeps K·(K − 1)·mask_scale finite.
valid_configs = st.fixed_dictionaries(
    {
        "experiment": st.sampled_from(EXPERIMENTS),
        "task": st.sampled_from(TASKS),
        "seed": st.integers(0, 2**64),
    },
    optional={
        "out_dir": st.none() | st.text(),
        "clients": st.lists(st.integers(2, 64), min_size=1, max_size=4),
        "rounds": st.integers(1, 10**6),
        "modes": st.lists(st.sampled_from(MODES), min_size=1, max_size=3),
        "eve": st.booleans(),
        "epochs": st.integers(0, 100),
        "batch_size": st.integers(1, 1024),
        "learning_rate": st.floats(0, 1e300, exclude_min=True) | st.integers(1, 10**300),
        "qber_threshold": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "mask_scale": st.floats(0, 1e300) | st.integers(0, 10**6),
        "raw_key_len": st.integers(64, 10**6),
        "pa_ratio": st.floats(0, 1, exclude_min=True),
        "train_samples": st.integers(64, 10**6),
        "val_samples": st.integers(1, 10**6),
        "snr_db": st.floats(allow_nan=False, allow_infinity=False) | st.just(math.inf),
        "channel_dims": st.lists(st.integers(1, 1024), min_size=2, max_size=2),
        "radar_size": st.integers(2, 64).map(lambda n: 8 * n),
        "partition_skew": st.floats(0, exclude_min=True),
        "noise_grid": st.lists(st.floats(0, 1), min_size=1, max_size=5),
        "sessions_per_point": st.integers(1, 10**6),
    },
).map(ExperimentConfig.from_dict)


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(cfg=valid_configs)
    def test_json_round_trip(self, cfg):
        again = ExperimentConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"experiment": "A", "task": "channel"})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="qber_treshold"):
            make_cfg(qber_treshold=0.1)

    def test_bad_value_has_path_context(self):
        with pytest.raises(ConfigError, match=r"clients\[1\]"):
            make_cfg(clients=[3, 1])

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"channel_dims": [0, 14]}, r"channel_dims\[0\]"),
            ({"channel_dims": [16]}, r"channel_dims: must have 2 entries"),
            # The model shape is no config field; the old fields are unknown.
            ({"channel_widths": [0, 3]}, r"config\.channel_widths: unknown field"),
            ({"channel_widths": [12, 8]}, r"config\.channel_widths: unknown field"),
            ({"encoder_filters": [8, 16, 32]}, r"config\.encoder_filters: unknown field"),
            ({"bottleneck_filters": 64}, r"config\.bottleneck_filters: unknown field"),
            ({"bottleneck_filters": 0}, r"config\.bottleneck_filters: unknown field"),
            ({"seed": True}, r"config\.seed"),
            ({"eve": "no"}, r"config\.eve"),
            ({"eve": 1}, r"config\.eve"),
            ({"rounds": 2.5}, r"config\.rounds"),
            ({"rounds": "5"}, r"config\.rounds"),
            ({"raw_key_len": 1.5}, r"config\.raw_key_len"),
            ({"epochs": True}, r"config\.epochs"),
            ({"mask_scale": None}, r"config\.mask_scale"),
            ({"learning_rate": True}, r"config\.learning_rate"),
            ({"snr_db": "10"}, r"config\.snr_db"),
            ({"noise_grid": ["a"]}, r"noise_grid\[0\]"),
            ({"noise_grid": [0.0, False]}, r"noise_grid\[1\]"),
            ({"out_dir": 5}, r"config\.out_dir"),
            ({"task": ["channel"]}, r"config\.task"),
            ({"seed": -5}, r"config\.seed: must be >= 0"),
            ({"snr_db": float("nan")}, r"config\.snr_db: must be finite"),
            ({"snr_db": -float("inf")}, r"config\.snr_db: must be finite"),
            ({"partition_skew": -float("inf")}, r"config\.partition_skew: must be finite"),
            ({"learning_rate": float("inf")}, r"config\.learning_rate: must be finite"),
            ({"mask_scale": float("inf")}, r"config\.mask_scale: must be finite"),
            ({"learning_rate": 10**400}, r"config\.learning_rate: must fit in a float"),
            ({"snr_db": -(10**400)}, r"config\.snr_db: must fit in a float"),
            ({"partition_skew": 10**400}, r"config\.partition_skew: must fit in a float"),
            ({"pa_ratio": 10**309}, r"config\.pa_ratio: must fit in a float"),
            # K masked uploads must sum to a finite K·(K − 1)·mask_scale.
            ({"clients": [3], "mask_scale": 1e308}, r"config\.mask_scale: .* at K = 3"),
            ({"clients": [3], "mask_scale": 10**308}, r"config\.mask_scale: .* at K = 3"),
            ({"experiment": "B", "clients": [3], "mask_scale": 1e308},
             r"config\.mask_scale: .* at K = 3"),
            # K = 2 alone would pass; the largest K decides.
            ({"clients": [2, 20], "mask_scale": 1e307}, r"config\.mask_scale: .* at K = 20"),
        ],
    )
    def test_bad_model_or_seed_field_named(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            make_cfg(**overrides)

    def test_large_integer_float_field_allowed(self):
        assert make_cfg(learning_rate=10**300).learning_rate == 10**300

    def test_mask_scale_bound_is_k_times_k_minus_one(self):
        gamma = float(np.finfo(np.float64).max) / 380  # 380 = 20 · 19
        assert make_cfg(clients=[20], mask_scale=gamma).mask_scale == gamma
        with pytest.raises(ConfigError, match="mask_scale"):
            make_cfg(clients=[20], mask_scale=gamma * 1.01)

    def test_experiment_c_ignores_mask_scale(self):
        # C runs no masked rounds, so no K bounds its mask_scale.
        assert make_cfg(experiment="C", mask_scale=1e308).mask_scale == 1e308

    def test_infinite_snr_and_skew_allowed(self):
        cfg = make_cfg(snr_db=float("inf"), partition_skew=float("inf"))
        assert cfg.snr_db == cfg.partition_skew == float("inf")

    def test_omitted_radar_field_takes_field_default(self):
        # One default per field, whatever the task.
        radar = ExperimentConfig.from_dict({"experiment": "A", "task": "radar", "seed": 1})
        channel = ExperimentConfig.from_dict({"experiment": "A", "task": "channel", "seed": 1})
        default = ExperimentConfig.__dataclass_fields__["batch_size"].default
        assert radar.batch_size == channel.batch_size == default == 16

    def test_hash_stable_and_seed_sensitive(self):
        a, b = make_cfg(), make_cfg()
        assert a.config_hash() == b.config_hash()
        assert make_cfg(seed=78).config_hash() != a.config_hash()

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(BASE_A))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.clients == (3, 10, 20)

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_file(p)


class TestExperimentA:
    def test_uplink_proportional_downlink_constant(self):
        rows = run_cells(make_cfg(modes=["qkd_sa"]))["exp_a_summary.csv"]
        by_k = {r["clients"]: r for r in rows}
        up3, up10, up20 = (by_k[k]["uplink_bytes"] for k in (3, 10, 20))
        assert up10 * 3 == up3 * 10
        assert up20 * 3 == up3 * 20
        downs = {r["downlink_bytes"] for r in rows}
        assert len(downs) == 1

    def test_mode_parity_small_run(self):
        rows = run_cells(make_cfg(clients=[3], rounds=2, epochs=1))["exp_a_summary.csv"]
        nmse = {r["mode"]: r["final_nmse"] for r in rows}
        assert abs(nmse["plain"] - nmse["qkd_sa"]) / nmse["plain"] < 0.05

    def test_rounds_carry_cell_coordinates(self):
        rounds = run_cells(make_cfg(clients=[3], modes=["plain"]))["rounds.jsonl"]
        assert all(d["cell"] == {"clients": 3, "mode": "plain", "eve": False} for d in rounds)


@pytest.fixture(scope="module")
def results():
    cfg = make_cfg(experiment="B", clients=[3], rounds=5, epochs=1)
    tables = run_cells(cfg)
    return tables["exp_b_rounds.csv"], tables["exp_b_summary.csv"], tables["rounds.jsonl"]


class TestExperimentB:
    def test_eve_arm_aborts_every_round(self, results):
        _, summary_rows, _ = results
        eve = next(r for r in summary_rows if r["arm"] == "eve_all_rounds")
        assert eve["aborted"] == 5
        assert eve["secure"] == 0
        assert eve["recovered"] == 0

    def test_baseline_and_secure_complete(self, results):
        _, summary_rows, _ = results
        for arm in ("baseline", "secure"):
            row = next(r for r in summary_rows if r["arm"] == arm)
            assert row["secure"] == 5
            assert row["aborted"] == 0

    def test_eve_mean_qber_in_range(self, results):
        _, summary_rows, _ = results
        eve = next(r for r in summary_rows if r["arm"] == "eve_all_rounds")
        assert 0.20 <= eve["mean_qber"] <= 0.30

    def test_round_rows_statuses(self, results):
        round_rows, _, _ = results
        eve_rows = [r for r in round_rows if r["arm"] == "eve_all_rounds"]
        assert [r["status"] for r in eve_rows] == ["ABORTED"] * 5
        assert all(r["qber"] > 0.08 for r in eve_rows)


class TestExperimentC:
    def test_sweep_statistics(self):
        cfg = make_cfg(
            experiment="C",
            noise_grid=[0.0, 0.05, 0.10, 0.15, 0.20],
            sessions_per_point=100,
        )
        rows = run_cells(cfg)["exp_c_sweep.csv"]
        means = [r["mean_qber"] for r in rows]
        assert means[0] == 0.0
        assert rows[0]["abort_rate"] == 0.0
        assert all(a <= b for a, b in zip(means, means[1:]))
        for r in rows:
            assert abs(r["mean_qber"] - r["eta"] / 2) < 0.01
        assert rows[-1]["abort_rate"] > 0.5


class TestCsvSchemaGolden:
    def test_schemas_are_frozen(self):
        # schema contract: changing any column set is a breaking change
        assert CSV_SCHEMAS == {
            "exp_a_summary.csv": [
                "schema_version", "config_hash", "experiment", "task", "clients",
                "mode", "rounds_total", "rounds_secure", "rounds_aborted",
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

    def test_numpy_floats_write_as_plain_floats(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(path, "exp_c_sweep.csv", [{
            "eta": np.float64(0.05), "mean_qber": np.float64(0.0),
            "abort_rate": 0.25, "sessions": 4, "qber_threshold": None,
        }])
        header, row = path.read_text().splitlines()
        assert header.split(",") == CSV_SCHEMAS["exp_c_sweep.csv"]
        assert row.split(",") == ["", "", "0.05", "4", "0.0", "0.25", "", ""]


class TestRadarExperiment:
    def test_small_radar_run(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "A", "task": "radar", "seed": 13,
            "clients": [2], "rounds": 1, "modes": ["qkd_sa"],
            "epochs": 1, "train_samples": 6, "val_samples": 2,
            "radar_size": 16,
        })
        manifest = run_experiment(cfg, tmp_path / "run")
        rows = (tmp_path / "run" / "exp_a_summary.csv").read_text().splitlines()
        assert len(rows) == 2
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        final = summary["final"][0]
        assert final["final_accuracy"] is not None
        assert final["final_miou"] is not None
        assert final["final_nmse"] is None


# Per family: config overrides, the manifest's file list, the summary.json keys.
RUN_DIR_FAMILIES = {
    "A": (
        {"clients": [2, 3], "modes": ["plain", "qkd_sa"]},
        ["exp_a_summary.csv", "manifest.json", "rounds.jsonl", "summary.json"],
        ["config", "config_hash", "final", "rounds"],
    ),
    "B": (
        {"experiment": "B", "clients": [2]},
        ["exp_b_rounds.csv", "exp_b_summary.csv", "manifest.json", "rounds.jsonl",
         "summary.json"],
        ["config", "config_hash", "final", "rounds"],
    ),
    "C": (
        {"experiment": "C", "noise_grid": [0.0, 0.1, 0.2], "sessions_per_point": 20},
        ["exp_c_sweep.csv", "manifest.json", "summary.json"],
        ["config", "config_hash", "sweep"],
    ),
}


class TestRunDirectory:
    def test_outputs_and_schemas(self, tmp_path):
        cfg = make_cfg(clients=[3], modes=["plain"])
        manifest = run_experiment(cfg, tmp_path / "run")
        for name in manifest["files"]:
            assert (tmp_path / "run" / name).exists()
        header = (tmp_path / "run" / "exp_a_summary.csv").read_text().splitlines()[0]
        assert header.split(",") == CSV_SCHEMAS["exp_a_summary.csv"]

    def test_every_row_echoes_config_hash(self, tmp_path):
        cfg = make_cfg(clients=[3], modes=["plain"])
        run_experiment(cfg, tmp_path / "run")
        chash = cfg.config_hash()
        lines = (tmp_path / "run" / "exp_a_summary.csv").read_text().splitlines()[1:]
        assert all(chash in line for line in lines)
        for line in (tmp_path / "run" / "rounds.jsonl").read_text().splitlines():
            json.loads(line)  # every line is valid JSON

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_byte_identical_reruns(self, tmp_path, family):
        overrides, files, summary_keys = RUN_DIR_FAMILIES[family]
        cfg = make_cfg(**overrides, epochs=1, rounds=2)
        manifest = run_experiment(cfg, tmp_path / "one")
        run_experiment(cfg, tmp_path / "two")
        assert manifest["files"] == files
        summary = json.loads((tmp_path / "one" / "summary.json").read_text())
        assert sorted(summary) == summary_keys
        for name in files:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_rerun_replaces_the_earlier_run_whole(self, tmp_path):
        # A then C into one directory: the A tables and the report's
        # leakage.csv go; a file no run writes stays.
        c_cfg = make_cfg(experiment="C", noise_grid=[0.0], sessions_per_point=5)
        run_experiment(make_cfg(clients=[3], modes=["plain"], epochs=1), tmp_path / "run")
        report_leakage(tmp_path / "run")
        (tmp_path / "run" / "notes.txt").write_text("kept")
        manifest = run_experiment(c_cfg, tmp_path / "run")
        run_experiment(c_cfg, tmp_path / "fresh")
        left = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert left == sorted([*manifest["files"], "notes.txt"])
        for name in manifest["files"]:
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "fresh" / name
            ).read_bytes()

    def test_run_into_a_directory_without_manifest_deletes_nothing(self, tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "rounds.jsonl").write_text("not a run's\n")
        run_experiment(
            make_cfg(experiment="C", noise_grid=[0.0], sessions_per_point=5), tmp_path / "run"
        )
        assert (tmp_path / "run" / "rounds.jsonl").read_text() == "not a run's\n"

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_parallel_jobs_identical_output(self, tmp_path, monkeypatch, family):
        overrides, files, _ = RUN_DIR_FAMILIES[family]
        cfg = make_cfg(**overrides)
        for name, cores in (("serial", {0}), ("parallel", {0, 1})):
            monkeypatch.setattr(
                "qkdfl.forks.os.sched_getaffinity", lambda pid, cores=cores: cores
            )
            run_experiment(cfg, tmp_path / name)
        for name in files:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes(), f"{name} differs between one core and two"


def _cell_trainers(args):
    """Stands in for a cell run: reports the client trainers the cell was given."""
    return {"trainers": [args[2]]}


class _InlinePool:
    """Stands in for the process pool: records its size and maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerCount:
    @pytest.mark.parametrize("cpus,cells,cores,workers", [(8, 6, 4, 4), (8, 2, 4, 2)])
    def test_bounded_by_cells_and_cores(self, monkeypatch, cpus, cells, cores, workers):
        # The pool follows the cells and the affinity, not the machine's CPU count.
        sizes = []
        monkeypatch.setattr("qkdfl.forks.os.sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr("qkdfl.forks.os.cpu_count", lambda: cpus)
        monkeypatch.setattr("qkdfl.experiments._run_cell", _cell_trainers)
        monkeypatch.setattr(
            "qkdfl.experiments.concurrent.futures.ProcessPoolExecutor",
            lambda max_workers: _InlinePool(sizes, max_workers),
        )
        cfg = make_cfg(clients=list(range(2, 2 + cells)), modes=["plain"])
        assert run_cells(cfg)["trainers"] == [cores // workers] * cells
        assert sizes == [workers]

    @pytest.mark.parametrize("cells,trainers", [(6, 1), (3, 1), (2, 2), (1, 4)])
    def test_workers_share_the_cores(self, monkeypatch, cells, trainers):
        monkeypatch.setattr("qkdfl.forks.os.sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr("qkdfl.experiments._run_cell", _cell_trainers)
        cfg = make_cfg(clients=list(range(2, 2 + cells)), modes=["plain"])
        assert run_cells(cfg)["trainers"] == [trainers] * cells

    def test_cores_follow_affinity_not_cpu_count(self, monkeypatch):
        monkeypatch.setattr("qkdfl.forks.os.sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr("qkdfl.forks.os.cpu_count", lambda: 8)
        monkeypatch.setattr("qkdfl.experiments._run_cell", _cell_trainers)
        assert usable_cores() == 1
        assert run_cells(make_cfg())["trainers"] == [1] * 6

    @pytest.mark.parametrize("cores,trainers", [(4, 2), (None, 1)])
    def test_cpu_count_fallback(self, monkeypatch, cores, trainers):
        # A platform that reports no affinity; an unknown CPU count is one core.
        monkeypatch.delattr("qkdfl.forks.os.sched_getaffinity", raising=False)
        monkeypatch.setattr("qkdfl.forks.os.cpu_count", lambda: cores)
        monkeypatch.setattr("qkdfl.experiments._run_cell", _cell_trainers)
        assert run_cells(make_cfg(clients=[3]))["trainers"] == [trainers] * 2


class TestReportLeakage:
    def test_plain_rounds_cosine_one(self, tmp_path):
        cfg = make_cfg(clients=[3], modes=["plain"], epochs=1)
        run_experiment(cfg, tmp_path / "run")
        rows = report_leakage(tmp_path / "run")
        assert rows
        assert all(r["mean_cosine"] == 1.0 for r in rows)

    def test_masked_rounds_cosine_below_one(self, tmp_path):
        cfg = make_cfg(clients=[3], modes=["qkd_sa"], epochs=1)
        run_experiment(cfg, tmp_path / "run")
        rows = report_leakage(tmp_path / "run")
        assert rows
        assert all(r["mean_cosine"] < 1.0 for r in rows)

    def test_zero_gamma_degenerate_masks(self, tmp_path):
        cfg = make_cfg(clients=[3], modes=["qkd_sa"], epochs=1, mask_scale=0.0)
        run_experiment(cfg, tmp_path / "run")
        rows = report_leakage(tmp_path / "run")
        assert all(r["mean_cosine"] == 1.0 for r in rows)

    def test_no_secure_rounds_empty_table(self, tmp_path, caplog):
        cfg = make_cfg(experiment="C", noise_grid=[0.0], sessions_per_point=5)
        run_experiment(cfg, tmp_path / "run")
        rows = report_leakage(tmp_path / "run")
        assert rows == []
        csv_text = (tmp_path / "run" / "leakage.csv").read_text().splitlines()
        assert len(csv_text) == 1  # header only

    def test_reads_only_the_rounds_the_manifest_lists(self, tmp_path):
        # An A run's rounds.jsonl copied beside a C run's manifest, which
        # does not list it.
        run_experiment(make_cfg(clients=[3], modes=["plain"], epochs=1), tmp_path / "a")
        run_experiment(
            make_cfg(experiment="C", noise_grid=[0.0], sessions_per_point=5), tmp_path / "run"
        )
        (tmp_path / "run" / "rounds.jsonl").write_bytes(
            (tmp_path / "a" / "rounds.jsonl").read_bytes()
        )
        assert report_leakage(tmp_path / "run") == []

    def test_manifest_without_file_list_is_named(self, tmp_path):
        run_experiment(make_cfg(clients=[3], modes=["plain"]), tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        for files in (None, "rounds.jsonl"):
            if files is None:
                del manifest["files"]
            else:
                manifest["files"] = files
            path.write_text(json.dumps(manifest))
            with pytest.raises(ConfigError, match=r"manifest\.json: .*files"):
                report_leakage(tmp_path / "run")

    def test_listed_rounds_file_missing_is_named(self, tmp_path):
        run_experiment(make_cfg(clients=[3], modes=["plain"]), tmp_path / "run")
        (tmp_path / "run" / "rounds.jsonl").unlink()
        with pytest.raises(ConfigError, match=r"rounds\.jsonl: listed in the manifest"):
            report_leakage(tmp_path / "run")

    def test_rejects_non_run_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            report_leakage(tmp_path)


class TestGuards:
    @pytest.mark.parametrize("raw", [[], ["experiment", "A"], "A", None])
    def test_config_not_an_object(self, raw):
        with pytest.raises(ConfigError, match=r"^my\.json: expected a JSON object$"):
            ExperimentConfig.from_dict(raw, source="my.json")

    def test_blank_rounds_lines_are_skipped(self, tmp_path):
        run_experiment(make_cfg(clients=[3], modes=["plain"], epochs=1), tmp_path / "run")
        want = report_leakage(tmp_path / "run")
        rounds = tmp_path / "run" / "rounds.jsonl"
        lines = rounds.read_text().splitlines()
        rounds.write_text("\n".join(["", lines[0], "   ", *lines[1:], ""]) + "\n")
        assert report_leakage(tmp_path / "run") == want
