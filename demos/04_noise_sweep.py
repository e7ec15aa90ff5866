"""QBER and abort rate as the quantum channel degrades.

Run: python demos/04_noise_sweep.py   (~10 s)
"""

from qkdfl.experiments import ExperimentConfig, run_cells

cfg = ExperimentConfig.from_dict({
    "experiment": "C",
    "task": "channel",
    "seed": 4,
    "noise_grid": [0.0, 0.05, 0.10, 0.15, 0.20],
    "sessions_per_point": 500,
    "qber_threshold": 0.08,
})

rows = run_cells(cfg)["exp_c_sweep.csv"]

print(f"{'eta':>6} {'mean QBER':>10} {'eta/2':>8} {'abort rate':>11}")
for r in rows:
    print(f"{r['eta']:>6.2f} {r['mean_qber']:>10.4f} {r['eta'] / 2:>8.3f} "
          f"{r['abort_rate']:>11.3f}")

print("\nQBER tracks eta/2; the abort threshold at 0.08 splits the grid into")
print("an operational region (low eta) and a refused region (high eta).")
