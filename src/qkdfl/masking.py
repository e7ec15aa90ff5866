"""Pairwise additive masking seeded from a per-round key.

Every ordered client pair (i, j) shares one symmetric key derived from the
round seed, so client i adds the pair mask when i < j and subtracts it when
i > j; the masks cancel exactly in the sum of all K uploads and the server
only ever learns the aggregate.

Key schedule (test-vector contracts, see tests/golden):

    pair key   = first L bits of SHA-256 counter-mode over
                 seed_bytes || LE64(round) || LE64(min(i,j)) || LE64(max(i,j))
    mask block = SHA-256(pair_key_bytes || LE64(tensor_ordinal) || LE64(block))

Mask bits are consumed MSB-first and mapped 1 -> +gamma, 0 -> -gamma,
exactly (2 * bit - 1) * gamma in float64.  `signs_from_bits` packs the bits
eight to a byte and looks each byte up in a 256 x 8 table of those values,
built once per gamma bit pattern (so -0.0 and +0.0 get their own tables).
Folding the tensor ordinal into the keystream gives every named tensor an
independent stream while keeping both ends of a pair bit-identical (both
clients walk tensors in the same canonical order).

A client's mask sum is a walk, not K - 1 float passes.  Each element of the
sum is a running float64 sum, from +0.0 in ascending peer order, of K - 1
terms that are each +gamma or -gamma; subtracting the mask of bit b adds
exactly the mask of bit 1 - b, so the element follows K - 1 directions
(b for peers above it, 1 - b for peers below).  From +0.0 those sums reach
only a few distinct floats (39 at gamma = 1e-3 and K = 20), found once per
(step bit pattern, K) by a search that makes the same IEEE adds.  Eight
peers' directions are packed into one byte per element and applied with
one lookup in a (states x 256) table; the last group's table holds the
float64 result, so every mask sum keeps the bytes of the running sum.  The
sum fills one flat buffer, so aggregation and leakage are flat operations.

Each pair's keystreams are expanded once per round.  The first end of a pair
to mask derives the pair key, expands every tensor's stream and parks the
streams bit-packed on the round's MaskingContext; the other end pops them
and unpacks them instead of hashing.  A stream is dropped on its second use,
so a context holds at most about (K/2)^2 pairs' packed streams mid-round
(one bit per parameter each: 100 x 121 KB for K = 20 and 969,380
parameters) and none once all K clients have masked.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import params as pvops
from .bits import as_bit_array, le64, pack_bits, sha256_expand_bits
from .errors import (
    AggregationShapeError,
    InvalidPairError,
    ProtocolError,
    UndefinedProxyError,
)
from .params import ParamVec

MIN_ROUND_SEED_BITS = 256
DEFAULT_PAIR_KEY_BITS = 256
DEFAULT_MASK_SCALE = 1e-3


@dataclass(frozen=True)
class MaskingContext:
    """Everything a client needs to mask one round's upload."""

    round_seed: np.ndarray
    round_index: int
    num_clients: int
    mask_scale: float = DEFAULT_MASK_SCALE
    key_bits: int = DEFAULT_PAIR_KEY_BITS
    # (lo, hi, tensor sizes) -> the pair's packed per-tensor keystreams, parked
    # by the first end of the pair to mask and popped by the second.
    _pending_streams: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        try:
            seed = as_bit_array(self.round_seed)
        except ValueError:
            raise ValueError("round_seed must hold only 0/1 bits") from None
        object.__setattr__(self, "round_seed", seed)
        if seed.size < MIN_ROUND_SEED_BITS:
            raise ValueError(
                f"round_seed must be >= {MIN_ROUND_SEED_BITS} bits, got {seed.size}"
            )
        if self.num_clients < 2:
            raise ValueError("num_clients must be >= 2 for pairwise masking")
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")
        # gamma = 0 is allowed as a degenerate diagnostic mode (masks vanish).
        if not (math.isfinite(self.mask_scale) and self.mask_scale >= 0):
            raise ValueError("mask_scale must be finite and non-negative")
        if self.key_bits < 1:
            raise ValueError("key_bits must be >= 1")


@dataclass
class MaskedUpdate:
    """One client's masked parameters, tagged with its coordinates."""

    client_index: int
    round_index: int
    params: ParamVec
    num_clients: int


def derive_pair_key(ctx: MaskingContext, i: int, j: int) -> np.ndarray:
    """Symmetric pairwise key: derive_pair_key(i, j) == derive_pair_key(j, i)."""
    if i == j:
        raise InvalidPairError(f"no pairwise key for a client with itself (i = j = {i})")
    for idx in (i, j):
        if not 0 <= idx < ctx.num_clients:
            raise InvalidPairError(
                f"client index {idx} out of range for K = {ctx.num_clients}"
            )
    lo, hi = min(i, j), max(i, j)
    prefix = pack_bits(ctx.round_seed) + le64(ctx.round_index) + le64(lo) + le64(hi)
    return sha256_expand_bits(prefix, ctx.key_bits)


@functools.lru_cache(maxsize=8)
def _sign_table(gamma_bytes: bytes) -> np.ndarray:
    """Row b holds (2 * bit - 1) * gamma for the 8 bits of byte b, MSB first.

    Read-only, because every later call with the same gamma shares it.
    """
    (gamma,) = struct.unpack("<d", gamma_bytes)
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    table = np.multiply(byte_bits, 2.0, dtype=np.float64)
    table -= 1.0
    table *= gamma
    table.flags.writeable = False
    return table


def signs_from_bits(stream_bits: np.ndarray, gamma: float) -> np.ndarray:
    """Map keystream bits to mask values: bit 1 -> +gamma, bit 0 -> -gamma.

    Each value is (2 * bit - 1) * gamma in float64, looked up a packed byte
    at a time in a table of exactly those products.  That equals
    np.where(bit == 1, gamma, -gamma) bit for bit, -0.0 at gamma = 0 included.
    """
    bits = np.asarray(stream_bits)
    flat = as_bit_array(bits)
    # The cache key is gamma's bit pattern: -0.0 == 0.0, but their signs differ.
    table = _sign_table(struct.pack("<d", gamma))
    values = table.take(np.packbits(flat), axis=0).ravel()
    return values[: flat.size].reshape(bits.shape)


def mask_keystream(key_bits: np.ndarray, tensor_ordinal: int, num_bits: int) -> np.ndarray:
    """Per-tensor keystream expansion of a pair key (golden-file contract)."""
    prefix = pack_bits(key_bits) + le64(tensor_ordinal)
    return sha256_expand_bits(prefix, num_bits)


def bits_to_mask(
    key_bits: np.ndarray,
    shape: tuple[int, ...],
    tensor_ordinal: int,
    gamma: float,
) -> np.ndarray:
    """A +/-gamma tensor of the given shape, read from the pair key's keystream."""
    key = as_bit_array(key_bits)
    if key.size == 0:
        raise ValueError("key_bits must be nonempty")
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if n < 1:
        raise ValueError(f"mask shape {shape} has no elements")
    stream = mask_keystream(key, tensor_ordinal, n)
    return signs_from_bits(stream, gamma).reshape(shape)


# Elements per np.take call: its intp copy of the index stays in cache.
_TAKE_CHUNK = 1 << 14


@functools.lru_cache(maxsize=8)
def _mask_walk(steps_bytes: bytes, num_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(8-step transition table, last-group value table) of a +/-gamma walk.

    `steps_bytes` holds the float64 steps for directions 0 and 1.  States are
    the distinct float64 values that sums of at most `num_steps` steps reach
    from +0.0, each added in order with the same IEEE adds as a running sum,
    plus a sink (NaN) for table entries that no walk of `num_steps` steps
    reads.  Both
    tables are indexed by (state << 8) | group, where `group` holds up to 8
    directions, the first in the highest bit: the transition table gives the
    state after 8 directions, again shifted left by 8, in the smallest
    unsigned dtype that holds it; the value table gives the float64 value
    after the last (num_steps - 1) % 8 + 1 directions.  Read-only, because
    every later call with the same steps and count shares them.
    """
    steps = np.frombuffer(steps_bytes).tolist()
    values = [0.0]  # breadth-first: values[start:] were reached by the last step
    index = {struct.pack("<d", 0.0): 0}
    start = 0
    for _ in range(num_steps):
        stop = len(values)
        for value in values[start:stop]:
            for step in steps:
                total = value + step
                key = struct.pack("<d", total)
                if key not in index:
                    index[key] = len(values)
                    values.append(total)
        start = stop
    sink = len(values)
    successor = np.array(
        [[index.get(struct.pack("<d", v + step), sink) for step in steps] for v in values]
        + [[sink, sink]]
    )

    def after(width: int) -> np.ndarray:
        table = np.full((sink + 1, 256), sink)
        reached = np.arange(sink + 1)[:, None]
        for _ in range(width):
            reached = successor[reached].reshape(sink + 1, -1)
        table[:, : reached.shape[1]] = reached
        return table.ravel()

    step_table = np.left_shift(after(8), 8).astype(np.min_scalar_type(256 * sink + 255))
    value_table = np.array(values + [math.nan]).take(after((num_steps - 1) % 8 + 1))
    step_table.flags.writeable = False
    value_table.flags.writeable = False
    return step_table, value_table


def _take(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """out[:] = table[index]; every index is in range by construction.

    Chunks run last to first, and each chunk's index is copied to intp
    before its output is written, so `index` may lie over the first bytes of
    `out` (at most 8 bytes per element): the writes only reach indexes
    already read.
    """
    for start in reversed(range(0, index.size, _TAKE_CHUNK)):
        part = slice(start, start + _TAKE_CHUNK)
        table.take(index[part].astype(np.intp), out=out[part], mode="clip")


def _walk_sum(directions, size: int, num_steps: int, steps: np.ndarray) -> np.ndarray:
    """Running float64 sums, from +0.0, of steps[d] over `num_steps` direction arrays.

    `directions` yields (bits, invert) pairs: `size` 0/1 uint8 directions,
    to be flipped when `invert` is true.  Element e ends on the same bytes as
    `total[e] += steps[d[e]]` taken in order, but each group of 8 directions
    is gathered into one byte and applied with one table lookup.
    """
    step_table, value_table = _mask_walk(steps.tobytes(), num_steps)
    # The state and the direction byte borrow the result's buffer until the
    # last lookup overwrites them.
    total = np.empty(size)
    raw = total.view(np.uint8)
    state_bytes = step_table.itemsize * size
    state = raw[:state_bytes].view(step_table.dtype)
    group = raw[state_bytes : state_bytes + size]
    width = flip = 0
    for taken, (bits, invert) in enumerate(directions, start=1):
        if width:
            np.add(group, group, out=group)
            np.bitwise_or(group, bits, out=group)
        else:
            np.copyto(group, bits)
        flip = 2 * flip + invert
        width += 1
        if width < 8 and taken < num_steps:
            continue
        if flip:
            np.bitwise_xor(group, np.uint8(flip), out=group)
        if taken <= 8:
            np.copyto(state, group)  # every element starts in state 0
        else:
            np.bitwise_or(state, group, out=state)
        if taken == num_steps:
            _take(value_table, state, total)
            return total
        _take(step_table, state, state)
        width = flip = 0
    raise ValueError(f"expected {num_steps} direction arrays")


def _pair_directions(ctx: MaskingContext, client_index: int, sizes: tuple[int, ...]):
    """Each peer's keystream bits, flat, in ascending peer order; inverted for j < i.

    The first end of a pair derives the key, expands each tensor's stream
    into its slice and parks the streams packed on `ctx`; the second end
    pops them and unpacks each into its slice.  Every peer's bits land in
    one buffer, which the caller reads before it asks for the next peer.
    """
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
    pending = ctx._pending_streams
    bits = np.empty(bounds[-1], dtype=np.uint8)
    for j in range(ctx.num_clients):
        if j == client_index:
            continue
        memo_key = (min(client_index, j), max(client_index, j), sizes)
        parked = pending.pop(memo_key, None)
        if parked is None:
            key = derive_pair_key(ctx, client_index, j)
            packed = []
            for ordinal, part in enumerate(parts):
                stream = mask_keystream(key, ordinal, part.stop - part.start)
                bits[part] = stream
                packed.append(np.packbits(stream))
            pending[memo_key] = packed
        else:
            for part, stream in zip(parts, parked):
                bits[part] = np.unpackbits(stream, count=part.stop - part.start)
        yield bits, j < client_index


def pair_mask_sum(pv: ParamVec, client_index: int, ctx: MaskingContext) -> ParamVec:
    """Signed sum of all pair masks for one client, laid out like `pv`.

    Client i adds m_ij for j > i and subtracts it for j < i, in ascending j;
    the tensor ordinal is the entry's position in canonical order.
    Subtracting the mask of bit b is adding the mask of bit 1 - b, so the
    sum is a walk over the two steps signs_from_bits([0, 1], gamma).
    """
    if not 0 <= client_index < ctx.num_clients:
        raise InvalidPairError(
            f"client index {client_index} out of range for K = {ctx.num_clients}"
        )
    sizes = tuple(math.prod(shape) for _, shape in pv.layout)
    if 0 in sizes:
        raise ValueError("cannot mask a tensor with no elements")
    steps = signs_from_bits(np.array([0, 1], dtype=np.uint8), ctx.mask_scale)
    total = _walk_sum(
        _pair_directions(ctx, client_index, sizes),
        pv.total_len,
        ctx.num_clients - 1,
        steps,
    )
    return ParamVec.from_buffer(pv.layout, total)


def apply_pairwise_masks(
    pv: ParamVec, client_index: int, ctx: MaskingContext
) -> MaskedUpdate:
    """Mask one client's parameters for upload."""
    if not 0 <= client_index < ctx.num_clients:
        raise ValueError(
            f"client_index {client_index} out of range for K = {ctx.num_clients}"
        )
    if not pv.all_finite():
        raise ValueError("parameters must be finite before masking")
    masked = pvops.add(pv, pair_mask_sum(pv, client_index, ctx))
    return MaskedUpdate(
        client_index=client_index,
        round_index=ctx.round_index,
        params=masked,
        num_clients=ctx.num_clients,
    )


def aggregate(masked: list[MaskedUpdate]) -> ParamVec:
    """Element-wise mean of one round's full cohort of masked uploads.

    Pair masks cancel only in the sum of all K uploads, and there is no
    dropout recovery, so a batch that is not exactly clients 0..K-1 of one
    K is a ProtocolError rather than a silently wrong mean.
    """
    if len(masked) < 2:
        raise AggregationShapeError("aggregation needs at least two masked updates")
    rounds = {m.round_index for m in masked}
    if len(rounds) != 1:
        raise ProtocolError(f"masked updates span multiple rounds: {sorted(rounds)}")
    clients = [m.client_index for m in masked]
    if len(set(clients)) != len(clients):
        raise ProtocolError("duplicate client index in aggregation batch")
    cohort_sizes = {m.num_clients for m in masked}
    if len(cohort_sizes) != 1:
        raise ProtocolError(
            f"masked updates disagree on the cohort size: K in {sorted(cohort_sizes)}"
        )
    (k,) = cohort_sizes
    if sorted(clients) != list(range(k)):
        raise ProtocolError(
            f"aggregation needs clients 0..{k - 1} of K = {k}, got {sorted(clients)}: "
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
    return pvops.mean([m.params for m in ordered])


def leakage_proxies(true_delta: ParamVec, masked_delta: ParamVec) -> tuple[float, float]:
    """(cosine similarity, Pearson correlation) between the flattened deltas."""
    if not true_delta.same_structure(masked_delta):
        raise ValueError("deltas are structurally incompatible")
    a = true_delta.flat()
    b = masked_delta.flat()
    na2 = float(a @ a)
    nb2 = float(b @ b)
    if na2 == 0.0 or nb2 == 0.0:
        raise UndefinedProxyError("leakage proxies are undefined for zero-norm deltas")
    cosine = float(a @ b) / float(np.sqrt(na2 * nb2))
    ac = a - a.mean()
    bc = b - b.mean()
    va = float(ac @ ac)
    vb = float(bc @ bc)
    if va == 0.0 or vb == 0.0:
        raise UndefinedProxyError("Pearson correlation is undefined for constant deltas")
    pearson = float(ac @ bc) / float(np.sqrt(va * vb))
    return cosine, pearson
