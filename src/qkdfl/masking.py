"""Pairwise additive masking seeded from a per-round key.

A MaskingContext states one round's Cohort and derives one symmetric
KEY_BITS-bit key per client pair (i, j) from the round seed, once; it keeps
no reference to the seed.  Client i masks with row i of that table, its own
K - 1 keys: it adds the pair mask when i < j and subtracts it when i > j.
The masks cancel exactly in the sum of one context's K uploads, the server
only learns the aggregate, and a colluding client holds just one of each
other client's K - 1 keys.

Key schedule (test-vector contracts, see tests/golden):

    pair key   = SHA-256(seed_bytes || LE64(round) || LE64(min(i,j)) || LE64(max(i,j))
                 || LE64(0)): KEY_BITS = 256 bits, counter-mode block 0
    mask block = SHA-256(pair_key_bytes || LE64(tensor_ordinal) || LE64(block))

Mask bits are consumed MSB-first and mapped 1 -> +gamma, 0 -> -gamma.
Folding the tensor ordinal into the keystream gives every named tensor an
independent stream while keeping both ends of a pair bit-identical (both
clients walk tensors in the same canonical order).

A client's mask sum is a signed count times gamma.  Client i adds m_ij for
j > i and subtracts it for j < i; subtracting the mask of bit b adds the
mask of bit 1 - b, so each element of the sum is (2c - (K - 1)) * gamma,
where c counts its +gamma terms: i (one per peer below, before its bits are
subtracted) plus the bits of the peers above minus the bits of the peers
below.  Peers come in ascending order, so the count first falls from i by
at most i and then rises by at most K - 1 - i: it stays in 0..K-1.  It is
the integer that tells which coordinates a +/-gamma mask leaves unmasked
(c == (K - 1) / 2).  The count is scaled in the integer domain: it is held
unsigned, as wide as the smallest signed type that holds -(K - 1)..K - 1
(8 bits up to K = 128), 2c - (K - 1) is formed in place and read through
the signed view, and one multiply casts it to float64 and scales it by
gamma, with one rounding per element.  A nonzero integer times a gamma > 0
never rounds to zero, so only gamma = +/-0.0 gives -0.0 products, and
there +0.0 is added, as a running sum of the masks would give.  The sum
fills one flat buffer, so aggregation and leakage are flat operations.

Each pair's keystream is expanded once per round.  The first end of a pair
to mask expands every tensor's stream from the pair key into one flat
buffer and parks it, packed, in the round's MaskingContext.streams; the
other end pops and unpacks it instead of hashing.  This cache is a
simulation shortcut: it spares the second end an expansion it could do
from its own copy of the key.  A stream is dropped on its second use, so a
context holds at most about (K/2)^2 pairs' packed streams mid-round (one
bit per parameter each: 100 x 121 KB for K = 20 and 969,380 parameters)
and none once all K clients have masked.

Where a masked upload's time goes: the SHA-256 counter blocks, one per 256
mask bits of each pair.  A K = 20 cohort of 969,380-parameter uploads
hashes 720,860 blocks at about 0.4 us each, two OpenSSL context copies per
block through hashlib, which is about 60% of the cohort's time.  The rest
is numpy passes: per peer, one add into the count and the fill and pack or
the unpack of its stream; per client, the scaling multiply, the float64
upload and its finite check; and the mean over the cohort.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import params as pvops
from .bits import as_bit_array, le64, pack_bits, sha256_expand_bits
from .errors import (
    AggregationShapeError,
    DivergenceError,
    InvalidPairError,
    ProtocolError,
    UndefinedProxyError,
)
from .params import ParamVec
from .seeds import as_int

# Width of a pair key, and the shortest round seed that may key the masks.
KEY_BITS = 256
DEFAULT_MASK_SCALE = 1e-3


@dataclass(frozen=True, eq=False)
class Cohort:
    """Round and K of one MaskingContext; equal only to itself (see aggregate)."""

    round_index: int
    num_clients: int


class MaskingContext:
    """One round's cohort and pair keys, derived once; it keeps no round seed.

    `keys[i]` is client i's row of packed pair keys, None at index i, and
    `keys[i][j] is keys[j][i]`.  `streams` is the round's parked-stream
    cache: (lo, hi, tensor offsets) -> the pair's packed keystream.
    """

    def __init__(self, round_seed, round_index: int, num_clients: int,
                 mask_scale: float = DEFAULT_MASK_SCALE):
        try:
            seed = as_bit_array(round_seed)
        except ValueError:
            raise ValueError("round_seed must hold only 0/1 bits") from None
        if seed.size < KEY_BITS:
            raise ValueError(f"round_seed must be >= {KEY_BITS} bits, got {seed.size}")
        round_index = as_int("round_index", round_index)
        num_clients = as_int("num_clients", num_clients)
        if num_clients < 2:
            raise ValueError("num_clients must be >= 2 for pairwise masking")
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        # gamma = 0 is allowed as a degenerate diagnostic mode (masks vanish).
        if not (math.isfinite(mask_scale) and mask_scale >= 0):
            raise ValueError("mask_scale must be finite and non-negative")
        self.cohort = Cohort(round_index, num_clients)
        self.mask_scale = mask_scale
        self.keys = [[None] * num_clients for _ in range(num_clients)]
        for i, j in itertools.combinations(range(num_clients), 2):
            self.keys[i][j] = self.keys[j][i] = pack_bits(derive_pair_key(seed, round_index, i, j))
        self.streams = {}


@dataclass
class MaskedUpdate:
    """One client's masked parameters, tagged with its context's cohort."""

    client_index: int
    cohort: Cohort
    params: ParamVec


def derive_pair_key(round_seed, round_index: int, i: int, j: int) -> np.ndarray:
    """Symmetric pair key: derive_pair_key(s, r, i, j) == derive_pair_key(s, r, j, i)."""
    lo, hi = min(i, j), max(i, j)
    if lo == hi or lo < 0:
        raise InvalidPairError(f"no pair key for ({i}, {j}): need distinct indices >= 0")
    prefix = pack_bits(round_seed) + le64(round_index) + le64(lo) + le64(hi)
    return sha256_expand_bits(prefix, KEY_BITS)


def signs_from_bits(stream_bits: np.ndarray, gamma: float) -> np.ndarray:
    """Map keystream bits to mask values: bit 1 -> +gamma, bit 0 -> -gamma."""
    bits = np.asarray(stream_bits)
    values = np.where(as_bit_array(bits) == 1, np.float64(gamma), -np.float64(gamma))
    return values.reshape(bits.shape)


def mask_keystream(key: bytes, tensor_ordinal: int, num_bits: int) -> np.ndarray:
    """Per-tensor keystream expansion of a packed pair key (golden-file contract)."""
    return sha256_expand_bits(key + le64(tensor_ordinal), num_bits)


def pair_mask_sum(pv: ParamVec, row: list, gamma: float, streams: dict) -> ParamVec:
    """Signed sum of all pair masks for one client, laid out like `pv`.

    `row` is the client's row of packed pair keys, None at its own index i.
    Client i adds m_ij for j > i and subtracts it for j < i; the tensor
    ordinal is the entry's position in canonical order.  Each element is
    (2c - (K - 1)) * gamma, where c counts its +gamma terms.  Each peer's
    bits come from the pair's stream parked in `streams`, or are expanded
    and parked there by the first end of the pair.
    """
    offsets = pvops.offsets(pv.layout)
    if any(start == stop for start, stop in zip(offsets, offsets[1:])):
        raise ValueError("cannot mask a tensor with no elements")
    k, n = len(row), pv.total_len
    client_index = row.index(None)
    # Every peer below starts as a +gamma term and loses it where its bit is 1.
    # The count is unsigned as wide as the smallest signed type that holds
    # -(K - 1)..K - 1, so 2c - (K - 1) can be formed in place below.
    width = np.min_scalar_type(-k).itemsize
    count = np.full(n, client_index, dtype=f"u{width}")
    for j, key in enumerate(row):
        if key is None:
            continue
        memo_key = (min(client_index, j), max(client_index, j), offsets)
        parked = streams.pop(memo_key, None)
        if parked is None:
            bits = np.empty(n, dtype=np.uint8)
            for ordinal, (start, stop) in enumerate(zip(offsets, offsets[1:])):
                bits[start:stop] = mask_keystream(key, ordinal, stop - start)
            streams[memo_key] = np.packbits(bits)
        else:
            bits = np.unpackbits(parked, count=n)
        if j < client_index:
            np.subtract(count, bits, out=count)
        else:
            np.add(count, bits, out=count)
    # 2c - (K - 1) wraps modulo 2**(8 * width) on the way; the result lies in
    # -(K - 1)..K - 1 and reads back exactly through the signed view.
    count += count
    count -= k - 1
    signed = count.view(f"i{width}")
    (step,) = signs_from_bits(np.ones(1, dtype=np.uint8), gamma)
    total = np.multiply(signed, step, dtype=np.float64)
    if step == 0.0:
        total += 0.0  # the one gamma with -0.0 products; a running sum gives +0.0
    return ParamVec.from_buffer(pv.layout, total)


def apply_pairwise_masks(
    pv: ParamVec, client_index: int, ctx: MaskingContext
) -> MaskedUpdate:
    """Mask one client's parameters for upload, with its row of pair keys."""
    if not 0 <= client_index < ctx.cohort.num_clients:
        raise InvalidPairError(
            f"client index {client_index} out of range for K = {ctx.cohort.num_clients}"
        )
    if not pv.all_finite():
        raise ValueError("parameters must be finite before masking")
    row = ctx.keys[client_index]
    # A large enough gamma overflows to +/-inf here; aggregate rejects the mean.
    with np.errstate(over="ignore"):
        masked = pvops.add(pv, pair_mask_sum(pv, row, ctx.mask_scale, ctx.streams))
    return MaskedUpdate(client_index, ctx.cohort, masked)


def aggregate(masked: list[MaskedUpdate]) -> ParamVec:
    """Element-wise mean of one round's full cohort of masked uploads.

    Pair masks cancel only in the sum of all K uploads of one context, and
    there is no dropout recovery, so a batch from more than one context, or
    not exactly its clients 0..K-1, is a ProtocolError rather than a
    silently wrong mean.  A mean that is not finite (gamma so large that a
    mask or the running sum overflows) is a DivergenceError.
    """
    if len(masked) < 2:
        raise AggregationShapeError("aggregation needs at least two masked updates")
    cohort = masked[0].cohort
    if any(m.cohort is not cohort for m in masked):
        found = [(m.cohort.round_index, m.cohort.num_clients) for m in masked]
        raise ProtocolError(
            f"uploads from {len({m.cohort for m in masked})} masking contexts: (round, K) {found}"
        )
    k = cohort.num_clients
    clients = sorted(m.client_index for m in masked)
    if clients != list(range(k)):
        raise ProtocolError(
            f"aggregation needs clients 0..{k - 1} of K = {k}, got {clients}: "
            "the unmatched pair masks would stay in the mean"
        )
    first = masked[0].params
    for m in masked[1:]:
        if not first.same_structure(m.params):
            raise AggregationShapeError(
                f"update from client {m.client_index} does not match the batch structure"
            )
    # Canonical summation order makes the result independent of list order.
    ordered = sorted(masked, key=lambda m: m.client_index)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mean = pvops.mean([m.params for m in ordered])
    if not mean.all_finite():
        raise DivergenceError(
            f"the mean of the K = {k} masked uploads is not finite: an upload or "
            "the running sum left the float64 range (is mask_scale too large?)"
        )
    return mean


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-D arrays without BLAS, whose threaded dot sums in
    an order that follows the thread count (and so the CPU affinity)."""
    return float(np.einsum("i,i->", a, b))


def _cosine(a: np.ndarray, b: np.ndarray, message: str) -> float:
    """Cosine of a and b, Pearson's r if both are centred; UndefinedProxyError at a zero norm."""
    na2 = _dot(a, a)
    nb2 = _dot(b, b)
    if na2 == 0.0 or nb2 == 0.0:
        raise UndefinedProxyError(message)
    return _dot(a, b) / float(np.sqrt(na2 * nb2))


def leakage_proxies(true_delta: ParamVec, masked_delta: ParamVec) -> tuple[float, float]:
    """(cosine similarity, Pearson correlation) between the flattened deltas."""
    if not true_delta.same_structure(masked_delta):
        raise ValueError("deltas are structurally incompatible")
    a = true_delta.flat()
    b = masked_delta.flat()
    cosine = _cosine(a, b, "leakage proxies are undefined for zero-norm deltas")
    pearson = _cosine(
        a - a.mean(), b - b.mean(), "Pearson correlation is undefined for constant deltas"
    )
    return cosine, pearson
