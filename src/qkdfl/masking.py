"""Pairwise additive masking seeded from a per-round key.

Every ordered client pair (i, j) shares one symmetric KEY_BITS-bit key
derived from the round seed, so client i adds the pair mask when i < j and
subtracts it when i > j; the masks cancel exactly in the sum of all K
uploads and the server only ever learns the aggregate.

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
at most i and then rises by at most K - 1 - i: it stays in 0..K-1 and fits
the smallest unsigned integer type that holds K - 1.  It is scaled once,
with one rounding, and it is the integer that tells which coordinates a
+/-gamma mask leaves unmasked (c == (K - 1) / 2).  The sum fills one flat
buffer, so aggregation and leakage are flat operations.

Each pair's keystream is expanded once per round.  The first end of a pair
to mask derives the pair key, expands every tensor's stream into one flat
buffer and parks it on the round's MaskingContext as one packed stream per
pair; the other end pops it and unpacks it instead of hashing.  A stream is
dropped on its second use, so a context holds at most about (K/2)^2 pairs'
packed streams mid-round (one bit per parameter each: 100 x 121 KB for
K = 20 and 969,380 parameters) and none once all K clients have masked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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

# Width of a pair key, and the shortest round seed that may key the masks.
KEY_BITS = 256
DEFAULT_MASK_SCALE = 1e-3


@dataclass(frozen=True)
class MaskingContext:
    """Everything a client needs to mask one round's upload."""

    round_seed: np.ndarray
    round_index: int
    num_clients: int
    mask_scale: float = DEFAULT_MASK_SCALE
    # (lo, hi, tensor sizes) -> the pair's whole keystream, packed, parked by
    # the first end of the pair to mask and popped by the second.
    _pending_streams: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        try:
            seed = as_bit_array(self.round_seed)
        except ValueError:
            raise ValueError("round_seed must hold only 0/1 bits") from None
        object.__setattr__(self, "round_seed", seed)
        if seed.size < KEY_BITS:
            raise ValueError(f"round_seed must be >= {KEY_BITS} bits, got {seed.size}")
        if self.num_clients < 2:
            raise ValueError("num_clients must be >= 2 for pairwise masking")
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")
        # gamma = 0 is allowed as a degenerate diagnostic mode (masks vanish).
        if not (math.isfinite(self.mask_scale) and self.mask_scale >= 0):
            raise ValueError("mask_scale must be finite and non-negative")


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
    return sha256_expand_bits(prefix, KEY_BITS)


def signs_from_bits(stream_bits: np.ndarray, gamma: float) -> np.ndarray:
    """Map keystream bits to mask values: bit 1 -> +gamma, bit 0 -> -gamma."""
    bits = np.asarray(stream_bits)
    values = np.where(as_bit_array(bits) == 1, np.float64(gamma), -np.float64(gamma))
    return values.reshape(bits.shape)


def mask_keystream(key_bits: np.ndarray, tensor_ordinal: int, num_bits: int) -> np.ndarray:
    """Per-tensor keystream expansion of a pair key (golden-file contract)."""
    prefix = pack_bits(key_bits) + le64(tensor_ordinal)
    return sha256_expand_bits(prefix, num_bits)


def pair_mask_sum(pv: ParamVec, client_index: int, ctx: MaskingContext) -> ParamVec:
    """Signed sum of all pair masks for one client, laid out like `pv`.

    Client i adds m_ij for j > i and subtracts it for j < i; the tensor
    ordinal is the entry's position in canonical order.  Each element is
    (2c - (K - 1)) * gamma, where c counts its +gamma terms.  Each peer's
    bits come from the pair's stream parked on `ctx`, or are expanded and
    parked there by the first end of the pair.
    """
    if not 0 <= client_index < ctx.num_clients:
        raise InvalidPairError(
            f"client index {client_index} out of range for K = {ctx.num_clients}"
        )
    sizes = tuple(math.prod(shape) for _, shape in pv.layout)
    if 0 in sizes:
        raise ValueError("cannot mask a tensor with no elements")
    k, n = ctx.num_clients, pv.total_len
    bounds = list(itertools.accumulate(sizes, initial=0))
    # Every peer below starts as a +gamma term and loses it where its bit is 1.
    count = np.full(n, client_index, dtype=np.min_scalar_type(k - 1))
    for j in range(k):
        if j == client_index:
            continue
        memo_key = (min(client_index, j), max(client_index, j), sizes)
        parked = ctx._pending_streams.pop(memo_key, None)
        if parked is None:
            key = derive_pair_key(ctx, client_index, j)
            bits = np.empty(n, dtype=np.uint8)
            for ordinal, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                bits[start:stop] = mask_keystream(key, ordinal, stop - start)
            ctx._pending_streams[memo_key] = np.packbits(bits)
        else:
            bits = np.unpackbits(parked, count=n)
        if j < client_index:
            np.subtract(count, bits, out=count)
        else:
            np.add(count, bits, out=count)
    (step,) = signs_from_bits(np.ones(1, dtype=np.uint8), ctx.mask_scale)
    total = count.astype(np.float64)
    total *= 2.0
    total -= k - 1
    total *= step
    total += 0.0  # at gamma = +/-0.0 some products are -0.0; a running sum gives +0.0
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
    # A large enough gamma overflows to +/-inf here; aggregate rejects the mean.
    with np.errstate(over="ignore"):
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
    K is a ProtocolError rather than a silently wrong mean.  A mean that
    is not finite (gamma so large that a mask or the running sum overflows)
    is a DivergenceError.
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


def leakage_proxies(true_delta: ParamVec, masked_delta: ParamVec) -> tuple[float, float]:
    """(cosine similarity, Pearson correlation) between the flattened deltas."""
    if not true_delta.same_structure(masked_delta):
        raise ValueError("deltas are structurally incompatible")
    a = true_delta.flat()
    b = masked_delta.flat()
    na2 = _dot(a, a)
    nb2 = _dot(b, b)
    if na2 == 0.0 or nb2 == 0.0:
        raise UndefinedProxyError("leakage proxies are undefined for zero-norm deltas")
    cosine = _dot(a, b) / float(np.sqrt(na2 * nb2))
    ac = a - a.mean()
    bc = b - b.mean()
    va = _dot(ac, ac)
    vb = _dot(bc, bc)
    if va == 0.0 or vb == 0.0:
        raise UndefinedProxyError("Pearson correlation is undefined for constant deltas")
    pearson = _dot(ac, bc) / float(np.sqrt(va * vb))
    return cosine, pearson
