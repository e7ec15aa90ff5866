"""Bit-string utilities and SHA-256 counter-mode expansion.

Key material is passed around as numpy arrays of 0/1 (dtype uint8).  Byte
conversion packs bits MSB-first.  All deterministic key expansion in the
package (privacy amplification, pairwise KDF, mask keystreams) uses the
same block layout:

    block_t = SHA-256(prefix || LE64(t)),  t = 0, 1, 2, ...

concatenated and truncated.  The layout is a wire/test-vector contract;
do not change it without regenerating the golden files under tests/.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

NOT_BITS = "bit array contains values other than 0/1"


def as_bit_array(bits) -> np.ndarray:
    """A flat uint8 copy or view of `bits`; any value but exactly 0 or 1 is a ValueError."""
    arr = np.asarray(bits)
    if arr.dtype == np.bool_:
        # Bools are bits already; the cast maps every true byte to 1.
        return arr.astype(np.uint8).ravel()
    if arr.dtype.kind in "iu":
        # Only signed integers can go below 0.
        valid = arr.size == 0 or (
            arr.max() <= 1 and (arr.dtype.kind != "i" or arr.min() >= 0)
        )
    else:
        valid = bool(((arr == 0) | (arr == 1)).all())
    if not valid:
        raise ValueError(NOT_BITS)
    return arr.astype(np.uint8, copy=False).ravel()


def pack_bits(bits) -> bytes:
    """Pack a 0/1 array into bytes, MSB-first, zero-padded to a byte boundary."""
    return np.packbits(as_bit_array(bits)).tobytes()


# LE64(t) of the layout above: a non-negative integer as 8 little-endian bytes.
le64 = struct.Struct("<Q").pack
# LE64(t) for the first counters, packed once.  4,096 blocks are 128 KiB of
# output, past any one tensor's mask stream in a 1M-parameter SegNet (its
# largest weight takes 1,728 blocks); a longer expansion packs the rest.
_COUNTERS = tuple(le64(t) for t in range(4096))


def sha256_expand_bytes(prefix: bytes, num_bytes: int) -> bytes:
    """First `num_bytes` of SHA-256(prefix || LE64(0)) || SHA-256(prefix || LE64(1)) || ..."""
    num_blocks = -(-num_bytes // 32)
    counters = _COUNTERS[:num_blocks]
    if num_blocks > len(_COUNTERS):
        counters += tuple(map(le64, range(len(_COUNTERS), num_blocks)))
    # Hash the shared prefix once; each block resumes from a copy of that state.
    copy = hashlib.sha256(prefix).copy
    blocks = []
    for counter in counters:
        h = copy()
        h.update(counter)
        blocks.append(h.digest())
    return b"".join(blocks)[:num_bytes]


def sha256_expand_bits(prefix: bytes, num_bits: int) -> np.ndarray:
    """Counter-mode expansion truncated to `num_bits` bits (MSB-first)."""
    data = sha256_expand_bytes(prefix, (num_bits + 7) // 8)
    return np.unpackbits(np.frombuffer(data, np.uint8), count=num_bits)
