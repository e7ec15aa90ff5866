"""Write the reference run directories under tests/golden/runs/.

    PYTHONPATH=src python tests/golden/make_runs.py [OUT_DIR]

Each entry of `golden_configs` is the shipped experiment-C config with a
few fields changed, run into OUT_DIR/<name> (default: tests/golden/runs).
`tests/test_golden_runs.py` reruns every config and compares the output
with these files, and CI reruns this script and diffs the two trees.  A
change that moves an output regenerates the fixture with this script;
the diff of `tests/golden/runs/` is then the list of moved values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from qkdfl.experiments import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent
RUNS = GOLDEN / "runs"
SWEEP_CONFIG = GOLDEN.parents[1] / "configs" / "exp_c_noise_sweep.json"

# Fields changed in the shipped sweep config, per run directory.
OVERRIDES = {
    "exp_c_grid50": {"sessions_per_point": 50},
    "exp_c_eve20": {"sessions_per_point": 20, "eve": True},
}


def golden_configs() -> dict[str, ExperimentConfig]:
    """Each run directory's name and its validated config."""
    shipped = json.loads(SWEEP_CONFIG.read_text())
    return {
        name: ExperimentConfig.from_dict(
            {**shipped, **fields, "out_dir": f"tests/golden/runs/{name}"}, source=name
        )
        for name, fields in OVERRIDES.items()
    }


def main(argv: list[str]) -> None:
    out = Path(argv[0]) if argv else RUNS
    for name, cfg in golden_configs().items():
        run_experiment(cfg, out / name)


if __name__ == "__main__":
    main(sys.argv[1:])
