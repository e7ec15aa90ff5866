"""Write the reference run directories under tests/golden/runs/.

    PYTHONPATH=src python tests/golden/make_runs.py [OUT_DIR]

Each entry of `OVERRIDES` names a shipped config and the few fields changed
in it; `write_run` runs it into OUT_DIR/<name> (default: tests/golden/runs)
and, for an A or B run, writes the `qkdfl report` leakage table beside it.
`tests/test_golden_runs.py` reruns every entry and compares the output
with these files, and CI reruns this script and diffs the two trees.  A
change that moves an output regenerates the fixture with this script;
the diff of `tests/golden/runs/` is then the list of moved values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from qkdfl.experiments import ExperimentConfig, report_leakage, run_experiment

GOLDEN = Path(__file__).resolve().parent
RUNS = GOLDEN / "runs"
CONFIGS = GOLDEN.parents[1] / "configs"

# Per run directory: the shipped config it starts from and the fields changed.
OVERRIDES = {
    "exp_a_channel": ("exp_a_channel", {"clients": [3], "rounds": 2, "epochs": 1}),
    "exp_a_radar": ("exp_a_radar", {"clients": [3], "rounds": 1, "modes": ["qkd_sa"]}),
    "exp_b_channel": ("exp_b_channel", {"rounds": 1}),
    "exp_c_grid50": ("exp_c_noise_sweep", {"sessions_per_point": 50}),
    "exp_c_eve20": ("exp_c_noise_sweep", {"sessions_per_point": 20, "eve": True}),
}


def golden_configs() -> dict[str, ExperimentConfig]:
    """Each run directory's name and its validated config."""
    configs = {}
    for name, (base, fields) in OVERRIDES.items():
        shipped = json.loads((CONFIGS / f"{base}.json").read_text())
        configs[name] = ExperimentConfig.from_dict(
            {**shipped, **fields, "out_dir": f"tests/golden/runs/{name}"}, source=name
        )
    return configs


def write_run(cfg: ExperimentConfig, out: Path) -> None:
    """Run `cfg` into `out`; an A or B run also gets its leakage table."""
    run_experiment(cfg, out)
    if cfg.experiment != "C":
        report_leakage(out)


def main(argv: list[str]) -> None:
    out = Path(argv[0]) if argv else RUNS
    for name, cfg in golden_configs().items():
        write_run(cfg, out / name)


if __name__ == "__main__":
    main(sys.argv[1:])
