"""One secure federated round on the channel task, then an attacked one.

Run: python demos/03_secure_federated_round.py   (~20 s)
"""

from qkdfl import (
    BB84Config,
    ModelSpec,
    RoundConfig,
    gen_channel_dataset,
    init_params,
    partition_non_iid,
    run_round,
    run_training,
)

spec = ModelSpec(task="channel", init_seed=0)
train = gen_channel_dataset(60, snr_db=10.0, dims=(48, 14), seed=0)
val = gen_channel_dataset(24, snr_db=10.0, dims=(48, 14), seed=1)
shards = partition_non_iid(train, 3, skew=1.0, seed=2)
print(f"non-IID shards: {[len(s) for s in shards]} samples")

base = dict(
    num_clients=3, epochs=3, model=spec,
    learning_rate=1e-3, batch_size=16, master_seed=7,
)
initial = init_params(spec)

# A secure round: BB84 succeeds (QBER 0 on a clean channel), clients train
# and upload masked parameters, the server averages.
cfg = RoundConfig(mode="qkd_sa", **base)
new_global, report = run_round(initial, shards, cfg, val)
print("\nsecure round")
print(f"  status {report.status}, QBER {report.qber}")
print(f"  val NMSE {report.utility['nmse']:.4f}")
print(f"  reconstruction error {report.recon_error:.2e}")
print(f"  mean leakage cosine {report.leakage_mean_cosine:.4f}")
print(f"  traffic: {report.bytes_down} B down, {report.bytes_up} B up")

# Under attack every round aborts: the key material is discarded, nothing is
# trained or transferred, and the global model stays bit-identical.
cfg_eve = RoundConfig(mode="qkd_sa", bb84=BB84Config(eve_present=True), **base)
final, reports = run_training(initial, 5, cfg_eve, shards, val)
print("\nattacked run (5 rounds)")
for r in reports:
    print(f"  round {r.round}: {r.status}, QBER {r.qber:.3f}, "
          f"val NMSE {r.utility['nmse']:.4f}")
frozen = all((a == b).all() for (_, a), (_, b) in zip(final.entries, initial.entries))
print(f"  global model bit-identical to start: {frozen}")
