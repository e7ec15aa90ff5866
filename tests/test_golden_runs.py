"""Rerun the configs of tests/golden/make_runs.py against tests/golden/runs/.

The A and B entries pin trained floats, status sequences and every
per-round table, the report verb's leakage.csv included; the C entries pin
the noise sweep.

Integers, strings, bools and nulls must match exactly; floats to a relative
1e-12, since a matmul kernel may round differently on another CPU.  Each
run prints the largest distance between two floats, in units in the last
place (ULP).
"""

import csv
import dataclasses
import importlib.util
import json
import math
import struct
from pathlib import Path

import pytest

from qkdfl.federated import RoundReport

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_runs", GOLDEN / "make_runs.py")
make_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_runs)

FLOAT_REL_TOL = 1e-12


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_run_file(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def ulps(a: float, b: float) -> int:
    """Floats representable between a and b, plus one (0 when equal)."""
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & (2**63 - 1))
    return abs(ordinal(a) - ordinal(b))


def compare(want, got, where: str) -> int:
    """Assert `got` matches `want`; returns the largest float distance in ULP."""
    assert type(got) is type(want), f"{where}: {got!r} is not a {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        return max((compare(want[k], got[k], f"{where}.{k}") for k in want), default=0)
    if isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items, expected {len(want)}"
        return max(
            (compare(w, g, f"{where}[{i}]") for i, (w, g) in enumerate(zip(want, got))),
            default=0,
        )
    if isinstance(want, float):
        if math.isnan(want):
            assert math.isnan(got), f"{where}: {got!r}, expected nan"
            return 0
        assert abs(got - want) <= FLOAT_REL_TOL * max(abs(want), abs(got)), (
            f"{where}: {got!r}, expected {want!r} to a relative {FLOAT_REL_TOL}"
        )
        return ulps(want, got)
    assert got == want, f"{where}: {got!r}, expected {want!r}"
    return 0


def test_fixture_lists_every_config():
    assert sorted(p.name for p in (GOLDEN / "runs").iterdir()) == sorted(make_runs.OVERRIDES)
    # Every shipped config has an entry, and each entry starts from one.
    shipped = sorted(p.stem for p in make_runs.CONFIGS.glob("*.json"))
    assert sorted({base for base, _ in make_runs.OVERRIDES.values()}) == shipped


@pytest.mark.parametrize("name", sorted(make_runs.OVERRIDES))
def test_rerun_matches_fixture(name, tmp_path):
    cfg = make_runs.golden_configs()[name]
    make_runs.write_run(cfg, tmp_path)
    want_dir = GOLDEN / "runs" / name
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    worst = max(
        compare(read_run_file(want_dir / f), read_run_file(tmp_path / f), f"{name}/{f}")
        for f in names
    )
    print(f"{name}: largest float distance {worst} ULP")


# The run directories with per-round records; the rerun test above shows
# that the current code writes them.
FEDERATED_RUNS = ("exp_a_channel", "exp_a_radar", "exp_b_channel")


def test_round_report_fields_are_the_round_keys():
    fields = [f.name for f in dataclasses.fields(RoundReport)]
    for name in FEDERATED_RUNS:
        for line in (GOLDEN / "runs" / name / "rounds.jsonl").read_text().splitlines():
            assert sorted(json.loads(line)) == sorted([*fields, "cell", "config_hash"])


def _typed(column: str, text: str):
    """A CSV cell as the JSON value it was written from."""
    if column == "config_hash" or text in ("", "true", "false"):
        return {"": None, "true": True, "false": False}.get(text, text)
    return _cell(text)


# The summary.json key each CSV table is echoed under.
ECHOES = {"exp_a_summary.csv": "final", "exp_b_summary.csv": "final", "exp_c_sweep.csv": "sweep"}


@pytest.mark.parametrize("name", sorted(make_runs.OVERRIDES))
def test_summary_echoes_each_csv_as_written(name):
    run = GOLDEN / "runs" / name
    summary = json.loads((run / "summary.json").read_text())
    manifest = json.loads((run / "manifest.json").read_text())
    echoed = [f for f in manifest["files"] if f in ECHOES]
    assert len(echoed) == 1
    with open(run / echoed[0], newline="") as fh:
        reader = csv.DictReader(fh)
        written = [{col: _typed(col, v) for col, v in row.items()} for row in reader]
    assert reader.fieldnames == manifest["csv_schemas"][echoed[0]]
    assert summary[ECHOES[echoed[0]]] == written
    if name in FEDERATED_RUNS:
        # Every column is echoed; a metric the task does not measure is null.
        measured = ("accuracy", "miou") if "radar" in name else ("nmse",)
        prefix = "retained_" if name.startswith("exp_b") else "final_"
        for row in written:
            for m in ("nmse", "accuracy", "miou"):
                assert (row[prefix + m] is None) == (m not in measured)
