"""The run's seed tree: every tag, the one entropy coder and both builders.

Every random draw of a run descends from the config seed through the paths
of the table below: `derive_seed` paths, and the BB84 substreams of a
session seed.  The values are a fixed contract that every shipped run
directory and `tests/golden/` depends on.

A path's stream is set by SeedSequence's pool, and the pool by the path's
entropy words, zero-padded to four.  Two rules keep the pools apart:
- A path and the same path with trailing zero entries share a pool while
  both fit in four words, so no tag's paths differ only by trailing zeros.
- Substream i of a two-word seed Q has the words, and so the pool, of
  derive_seed(Q, 0, 0, i), so no derive_seed path starts at a session seed.
`tests/test_seeds.py` walks every path of the shipped configs and checks
that their padded words are pairwise distinct.
"""

from __future__ import annotations

import operator

import numpy as np

# The tags.  seed is the config seed; master is derive_seed(seed, FL_MASTER).
TRAIN_DATA = 100  # (seed, TRAIN_DATA): the training set
VAL_DATA = 101  # (seed, VAL_DATA): the validation set
PARTITION = 102  # (seed, PARTITION, K): the non-IID split over K clients
FL_MASTER = 103  # (seed, FL_MASTER): master, the root of every round's paths
MODEL_INIT = 104  # (seed, MODEL_INIT): the initial weights
SWEEP = 105  # (seed, SWEEP, point, session): an experiment-C session seed
QKD = 1  # (master, round, QKD): the round's BB84 session seed
ROUND_KEY = 2  # (master, round, ROUND_KEY): classical_sa's round-key PRG
TRAIN = 3  # (master, round, TRAIN, client): the client's batch shuffle
# substream(session seed, i): child i of SeedSequence(session seed).spawn(5).
ALICE_BITS, ALICE_BASES, EVE, NOISE, BOB = range(5)


# SeedSequence's output hash constants h_0, h_1, h_2: h_0 = 0x8B51F9DD and
# h_{k+1} = h_k * 0x58F38DED mod 2**32 (numpy's INIT_B and MULT_B).
_SEED_HASH = (0x8B51F9DD, 0x464A0A99, 0x819D14A5)


def _entropy_words(values) -> bytes:
    """Non-negative ints as SeedSequence's uint32 entropy words, little-endian:
    each value's 32-bit words, low first, and a zero value is one word."""
    try:
        if bool in map(type, values):  # True would code as 1
            raise TypeError
        return b"".join([
            v.to_bytes((v.bit_length() + 31) // 32 * 4 or 4, "little")
            for v in map(operator.index, values)
        ])
    except (TypeError, OverflowError):
        raise ValueError(f"seed entries must be non-negative integers, got {values!r}") from None


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit seed for a labeled point in the run's seed tree.

    The seed is the uint64 state word of `SeedSequence([master_seed, *path])`,
    which numpy's stream policy keeps stable (NEP 19).  Each entry is coded
    as its 32-bit words, low first, a zero entry as one word, and the seed
    is output words 0 and 1 read as a little-endian pair.  Entries are
    non-negative integers, numpy's included; a negative, bool or
    non-integral entry is a ValueError.
    """
    # Handing SeedSequence one uint32 array skips its Python-level coercion
    # of each int.  The output hash of `generate_state(2)`, x = (pool[k] ^
    # h_k) * h_{k+1} mod 2**32 then x ^ (x >> 16), is computed from the pool
    # in Python ints, without that method's numpy-scalar loop.
    entropy = np.frombuffer(_entropy_words((master_seed, *path)), "<u4")
    pool, h = np.random.SeedSequence(entropy).pool.tolist(), _SEED_HASH
    lo, hi = ((pool[k] ^ h[k]) * h[k + 1] & 0xFFFFFFFF for k in (0, 1))
    return (lo ^ lo >> 16) | (hi ^ hi >> 16) << 32


def substream(seed: int, stream: int) -> np.random.PCG64:
    """The PCG64 of `SeedSequence(seed).spawn(5)[stream]`, a BB84 substream.

    That child's entropy words are the seed's, zero-padded to the 4-word
    pool, then the stream label.  Handing them to SeedSequence skips its
    Python-level coercion of the seed and the spawn key; the pool is the
    same.  A negative or bool seed is a ValueError.
    """
    entropy = _entropy_words((seed,)).ljust(16, b"\0") + stream.to_bytes(4, "little")
    return np.random.PCG64(np.random.SeedSequence(np.frombuffer(entropy, "<u4")))
