"""Pairwise additive masking: uploads look scrambled, the average does not.

Run: python demos/02_pairwise_masking.py
"""

import numpy as np

import qkdfl.params as pvops
from qkdfl import (
    MaskingContext,
    ParamVec,
    aggregate,
    apply_pairwise_masks,
    derive_pair_key,
    leakage_proxies,
)
from qkdfl.bits import pack_bits
from qkdfl.errors import ProtocolError

rng = np.random.default_rng(0)
K = 3

# The round seed would normally come from a BB84 session; any >=256-bit
# secret works. The key authority derives one symmetric key per client pair
# from it; the context keeps the key table, packed to 32 bytes a key, and
# the round's cohort, not the seed.
round_seed = rng.integers(0, 2, 256, dtype=np.uint8)
ctx = MaskingContext(round_seed=round_seed, round_index=0, num_clients=K)

k01 = derive_pair_key(round_seed, 0, 0, 1)
k10 = derive_pair_key(round_seed, 0, 1, 0)
print(f"pair key (0,1) == (1,0): {(k01 == k10).all()}")
# Client i masks with only row i of the table: its K - 1 keys, None at i.
row0 = ctx.keys[0]
print(f"client 0's row: {['-' if key is None else 'key' for key in row0]}, "
      f"row 0 entry 1 is the (0,1) key: {row0[1] == pack_bits(k01)}")

# Three clients hold small "model updates"; realistic local-training deltas
# have magnitudes comparable to the mask scale gamma.
updates = [
    ParamVec([
        ("w", 1e-3 * rng.standard_normal((4, 4))),
        ("b", 1e-3 * rng.standard_normal(4)),
    ])
    for _ in range(K)
]

# Each client adds the mask for every higher-indexed peer and subtracts it
# for every lower-indexed one, so each pair's contribution cancels in the sum.
masked = [apply_pairwise_masks(updates[i], i, ctx) for i in range(K)]

delta = pvops.sub(masked[0].params, updates[0])
print(f"\nclient 0 upload differs from its true update "
      f"(max perturbation {np.abs(delta.flat()).max():.2e}, gamma={ctx.mask_scale})")

cos, pear = leakage_proxies(updates[0], masked[0].params)
print(f"leakage proxies for client 0: cosine {cos:.4f}, pearson {pear:.4f}")

plain_mean = pvops.mean(updates)
masked_mean = aggregate(masked)
print(f"\n|masked mean - plain mean|_inf = "
      f"{pvops.max_abs_diff(masked_mean, plain_mean):.2e}  (pure float residue)")

# Every upload carries its context's cohort. An upload masked under another
# context of the same round and K holds masks that do not cancel here, so the
# server refuses the batch instead of returning a wrong mean.
other = MaskingContext(round_seed=1 - round_seed, round_index=0, num_clients=K)
try:
    aggregate(masked[:2] + [apply_pairwise_masks(updates[2], 2, other)])
except ProtocolError as exc:
    print(f"mixed contexts refused: {exc}")

# Rotating the round index rederives every pair key, so masks never repeat
# across rounds.
ctx_next = MaskingContext(round_seed=round_seed, round_index=1, num_clients=K)
print(f"round 0 vs round 1 pair key differs: {ctx.keys[0][1] != ctx_next.keys[0][1]}")
