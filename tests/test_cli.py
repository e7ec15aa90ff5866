import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkdfl
from qkdfl.cli import main
from qkdfl.federated import RoundReport
from qkdfl.params import ParamVec

BASE = {
    "experiment": "A",
    "task": "channel",
    "seed": 5,
    "clients": [2],
    "rounds": 1,
    "modes": ["plain"],
    "epochs": 0,
    "train_samples": 8,
    "val_samples": 2,
    "channel_dims": [16, 14],
}


def write_cfg(tmp_path, **overrides):
    raw = dict(BASE)
    raw.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return p


class TestRuntimeImports:
    def test_importing_the_package_loads_no_scipy(self):
        src = str(Path(qkdfl.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, qkdfl, qkdfl.experiments, qkdfl.federated, qkdfl.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


class TestRunVerb:
    def test_run_succeeds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert "run complete" in capsys.readouterr().out

    def test_overflowing_aggregate_is_runtime_failure(self, tmp_path, capsys, monkeypatch):
        # A valid mask_scale keeps every masked sum finite, so the masks are
        # made to overflow directly; the single cell runs in this process.
        def overflowing_mask(pv, row, gamma, streams):
            return ParamVec.from_buffer(pv.layout, np.full(pv.flat().size, np.inf))

        monkeypatch.setattr("qkdfl.masking.pair_mask_sum", overflowing_mask)
        cfg = write_cfg(tmp_path, clients=[3], modes=["qkd_sa"])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_overflowing_mask_scale_is_config_error(self, tmp_path, capsys, verb):
        cfg = write_cfg(tmp_path, clients=[3], modes=["qkd_sa"], mask_scale=1e308)
        out = tmp_path / "out"
        argv = [verb, str(cfg)] + (["--out", str(out)] if verb == "run" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "mask_scale" in err and "Traceback" not in err
        assert not out.exists()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")])
        ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
        assert ha != hb

    def test_unexpected_error_is_runtime_failure(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("qkdfl.cli.run_experiment", boom)
        assert main(["run", str(write_cfg(tmp_path)), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: RuntimeError: disk on fire\n"

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg), "--seed", "-3", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["out-is-a-file", "parent-is-a-file"])
    def test_out_at_or_below_a_file_is_config_error(self, tmp_path, capsys, monkeypatch, below):
        # Found before any cell runs: no training is wasted on it.
        def no_cells(cfg):
            raise AssertionError("the cells ran")

        monkeypatch.setattr("qkdfl.experiments.run_cells", no_cells)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "x" if below else blocker
        assert main(["run", str(write_cfg(tmp_path)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out}: ") and "Traceback" not in err
        assert blocker.read_text() == ""


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "CFG", "--jobs", "2"],
            ["run", "CFG", "--seed", "1.5"],
            ["frob"],
            ["run"],
        ],
        ids=["jobs-flag", "non-integer-seed", "unknown-subcommand", "missing-config"],
    )
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv):
        cfg = write_cfg(tmp_path)
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")] if argv[0] == "run" else argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qkdfl") and "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qkdfl")


class TestReportVerb:
    def test_report_after_run(self, tmp_path):
        cfg = write_cfg(tmp_path, epochs=1)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        assert main(["report", str(out)]) == 0
        assert (out / "leakage.csv").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["out-is-a-file", "parent-is-a-file"])
    def test_report_out_at_or_below_a_file_is_config_error(self, tmp_path, capsys, below):
        run = tmp_path / "run"
        shutil.copytree(self.B_FIXTURE, run)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "x" if below else blocker
        assert main(["report", str(run), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out}: ") and "Traceback" not in err
        assert blocker.read_text() == ""

    def test_report_on_bad_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,damage",
        [
            ("manifest.json", lambda text: text[: len(text) // 2]),
            ("manifest.json", lambda text: "[1, 2]"),
            ("rounds.jsonl", lambda text: text + "{not json\n"),
            ("rounds.jsonl", lambda text: text + '{"round": 9}\n'),
            ("rounds.jsonl", lambda text: json.dumps({**json.loads(text), "utility": []})),
        ],
        ids=[
            "manifest-not-json", "manifest-not-object", "round-not-json", "round-no-status",
            "round-utility-not-object",
        ],
    )
    def test_report_on_damaged_run_dir(self, tmp_path, capsys, name, damage):
        cfg = write_cfg(tmp_path, epochs=1)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        target = out / name
        target.write_text(damage(target.read_text()))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value,named",
        [
            ("round", "x", "round"),
            ("round", True, "round"),
            ("qber", {"a": 1}, "qber"),
            ("utility", {"nmse": "bad"}, "utility.nmse"),
            ("utility", {"nmse": 0.5, "miou": [0.1]}, "utility.miou"),
            ("leakage_mean_cosine", [1, 2], "leakage_mean_cosine"),
            ("leakage_mean_pearson", "1.0", "leakage_mean_pearson"),
        ],
    )
    def test_report_rejects_a_value_of_the_wrong_type(self, tmp_path, capsys, key, value, named):
        cfg = write_cfg(tmp_path, epochs=1)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rounds = out / "rounds.jsonl"
        rounds.write_text(json.dumps({**json.loads(rounds.read_text()), key: value}) + "\n")
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"rounds.jsonl:1: {named} " in err and "Traceback" not in err
        assert not (out / "leakage.csv").exists()

    B_FIXTURE = Path(__file__).parent / "golden" / "runs" / "exp_b_channel"

    @staticmethod
    def damage_b_copy(tmp_path, name, key, value, line=None):
        """A copy of the B fixture run with `key` set to `value` in the
        manifest, or in the cell of one rounds.jsonl line."""
        run = tmp_path / "run"
        shutil.copytree(TestReportVerb.B_FIXTURE, run)
        (run / "leakage.csv").unlink()
        target = run / name
        if line is None:
            target.write_text(json.dumps({**json.loads(target.read_text()), key: value}))
        else:
            records = [json.loads(text) for text in target.read_text().splitlines()]
            records[line - 1]["cell"][key] = value
            target.write_text("".join(json.dumps(r) + "\n" for r in records))
        return run

    @pytest.mark.parametrize(
        "name,line,key,value",
        [
            ("rounds.jsonl", 2, "arm", ["x", {"y": 1}]),
            ("rounds.jsonl", 1, "eve", {"y": 1}),
            ("manifest.json", None, "config_hash", {"h": [1]}),
            ("manifest.json", None, "config_hash", 7),
        ],
        ids=["cell-list", "cell-object", "config-hash-object", "config-hash-number"],
    )
    def test_report_rejects_a_damaged_cell_or_config_hash(self, tmp_path, capsys, name, line, key, value):
        run = self.damage_b_copy(tmp_path, name, key, value, line)
        capsys.readouterr()
        assert main(["report", str(run)]) == 1
        err = capsys.readouterr().err
        where = f"{name}:{line}: cell.{key} " if line else f"{name}: {key} "
        assert err.startswith("config error: ") and where in err and "Traceback" not in err
        assert not (run / "leakage.csv").exists()

    ROUND_FIELDS = [f.name for f in dataclasses.fields(RoundReport)] + ["cell", "config_hash"]

    @pytest.mark.parametrize("line", [2, 3], ids=["secure", "aborted"])
    @pytest.mark.parametrize(
        "damage,field",
        [("wrong-type", f) for f in ROUND_FIELDS] + [("missing", f) for f in ROUND_FIELDS]
        + [("unknown", "qber_estimate")],
    )
    def test_report_checks_every_round_field(self, tmp_path, capsys, damage, field, line):
        # Line 2 of the B fixture is a SECURE round, line 3 an ABORTED one.
        run = tmp_path / "run"
        shutil.copytree(self.B_FIXTURE, run)
        (run / "leakage.csv").unlink()
        rounds = run / "rounds.jsonl"
        records = [json.loads(text) for text in rounds.read_text().splitlines()]
        record = records[line - 1]
        if damage == "missing":
            del record[field]
        elif damage == "unknown":
            record[field] = 0.5
        else:  # a JSON type that no value of the field has
            record[field] = {} if isinstance(record[field], list) else []
        rounds.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert main(["report", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"rounds.jsonl:{line}: {field} " in err and "Traceback" not in err
        assert not (run / "leakage.csv").exists()

    def test_report_rejects_another_runs_rounds(self, tmp_path, capsys):
        # A's rounds.jsonl beside B's manifest: every line carries A's hash.
        run = tmp_path / "run"
        shutil.copytree(self.B_FIXTURE, run)
        (run / "leakage.csv").unlink()
        shutil.copy(self.B_FIXTURE.parent / "exp_a_channel" / "rounds.jsonl", run)
        capsys.readouterr()
        assert main(["report", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {run / 'rounds.jsonl'}:1: config_hash ")
        assert "991ac81624a163b4" in err and "Traceback" not in err
        assert not (run / "leakage.csv").exists()

    @pytest.mark.parametrize("name", ["config", "manifest.json", "rounds.jsonl"])
    def test_unreadable_input_is_config_error(self, tmp_path, capsys, name):
        # A directory where a config, a manifest or a rounds file should be.
        if name == "config":
            path = tmp_path / "cfg.json"
            argv = ["validate", str(path)]
        else:
            run = tmp_path / "run"
            shutil.copytree(self.B_FIXTURE, run)
            path = run / name
            path.unlink()
            argv = ["report", str(run)]
        path.mkdir()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_report_writes_json_scalars_in_a_cell(self, tmp_path):
        run = self.damage_b_copy(tmp_path, "rounds.jsonl", "arm", None, line=2)
        assert main(["report", str(run)]) == 0
        rows = (run / "leakage.csv").read_text().splitlines()
        assert rows[2].startswith('1,991ac81624a163b4,"arm=None,clients=3,eve=False,mode=qkd_sa",')


class TestValidateVerb:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["validate", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "OK" in printed
        # resolved config is echoed in full
        assert '"qber_threshold": 0.08' in printed

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rounds=0)
        assert main(["validate", str(cfg)]) == 1
        assert "rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"channel_dims": [0, 14]}, "channel_dims[0]"),
            # channel_widths is a retired field: a bad value is now rejected as unknown.
            pytest.param(
                {"channel_widths": [0, 3]}, "channel_widths: unknown field",
                id="overrides1-channel_widths[0]",
            ),
            ({"seed": True}, "seed"),
            ({"eve": "no"}, "eve"),
            ({"rounds": 2.5}, "rounds"),
            ({"rounds": "5"}, "rounds"),
            ({"raw_key_len": 1.5}, "raw_key_len"),
            ({"epochs": True}, "epochs"),
            ({"mask_scale": None}, "mask_scale"),
            ({"noise_grid": ["a"]}, "noise_grid[0]"),
            ({"task": ["channel"]}, "task"),
            ({"seed": -5}, "seed"),
            ({"snr_db": float("nan")}, "snr_db"),
            ({"partition_skew": -float("inf")}, "partition_skew"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"learning_rate": 10**400}, "learning_rate"),
            ({"snr_db": -(10**400)}, "snr_db"),
        ],
    )
    def test_bad_model_fields_exit_code(self, tmp_path, capsys, verb, overrides, field):
        cfg = write_cfg(tmp_path, **overrides)
        argv = [verb, str(cfg)] + (["--out", str(tmp_path / "out")] if verb == "run" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_field_reported(self, tmp_path, capsys):
        retired = (
            ("key_bits", 256), ("depolarize_prob", 0.0), ("channel_widths", [12, 8]),
            ("encoder_filters", [8, 16, 32]), ("bottleneck_filters", 64),
        )
        for field, value in (("typo_field", 1), *retired):
            cfg = write_cfg(tmp_path, **{field: value})
            assert main(["validate", str(cfg)]) == 1
            assert f"{field}: unknown field" in capsys.readouterr().err
