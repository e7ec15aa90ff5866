"""BB84 key agreement at the protocol level.

Qubits are tracked as (bit, basis) pairs rather than state vectors: a
measurement in the preparation basis reads the bit exactly, a measurement
in the conjugate basis yields a uniform coin flip.  The channel supports
two impairments, an intercept-resend eavesdropper (measures in a random
basis, resends her outcome in that basis) and depolarizing noise (with
probability eta the in-flight bit is replaced by a uniform random bit,
giving a matched-basis error rate of eta/2).  Eve acts before the noise.

A session is a pure function of its config: every random choice comes
from one of five labeled substreams of its seed (`seeds.substream`; the
table in `qkdfl.seeds` gives the seed tree), so toggling the eavesdropper
or the noise level does not perturb the other draws.  A substream is read
as raw 64-bit words (`substream_draws`) and built only when a draw needs
it: Eve's when she is present, the noise stream when eta > 0.

Where a session's time goes (raw 2,000, eta > 0, no Eve: about 90 µs on
a 2-vCPU x86 host).  A third is the four SeedSequence + PCG64 builds the
seed tree requires, about 8 µs each, most of it PCG64's seeding.  Reading
the raw words takes about 9 µs, and the substream views, the one in-place
shift per substream and the call overhead about 17 µs.  The noise test
and the XOR selections take about 6 µs, `qber_of` 6 µs, the one compress
of the sifted key 3 µs, and `privacy_amplify` 7 µs (packing and checking
the bits, then four SHA-256 blocks).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bits import NOT_BITS, as_bit_array, pack_bits, sha256_expand_bits
from .errors import DegenerateSessionError
# The labels stay qkd names too (qkd.ALICE_BITS .. qkd.BOB): the tests read them.
from .seeds import ALICE_BASES, ALICE_BITS, BOB, EVE, NOISE, substream


@dataclass(frozen=True)
class BB84Config:
    """Inputs of one key-agreement session."""

    raw_len: int = 2000
    pa_ratio: float = 0.8
    depolarize_prob: float = 0.0
    eve_present: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if type(self.raw_len) is not int or type(self.rng_seed) is not int:
            # A numpy integer becomes an int; a bool, a float or anything else is an error.
            for name in ("raw_len", "rng_seed"):
                value = getattr(self, name)
                if isinstance(value, bool) or not hasattr(value, "__index__"):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, operator.index(value))
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.raw_len < 64:
            raise ValueError(f"raw_len must be >= 64, got {self.raw_len}")
        if not 0.0 < self.pa_ratio <= 1.0:
            raise ValueError(f"pa_ratio must be in (0, 1], got {self.pa_ratio}")
        if not 0.0 <= self.depolarize_prob <= 1.0:
            raise ValueError(
                f"depolarize_prob must be in [0, 1], got {self.depolarize_prob}"
            )


@dataclass(frozen=True, eq=False)
class QkdSession:
    """Outcome of one session: final key bits plus the public statistics.

    Two sessions are equal when their QBER, sifted and final lengths and
    key bytes are; the hash agrees.
    """

    key: np.ndarray
    sifted_len: int
    final_len: int
    qber: float

    def _outcome(self) -> tuple:
        return self.qber, self.sifted_len, self.final_len, self.key.tobytes()

    def __eq__(self, other):
        if not isinstance(other, QkdSession):
            return NotImplemented
        return self._outcome() == other._outcome()

    def __hash__(self):
        return hash(self._outcome())


def qber_of(alice_bits, bob_bits, sift_mask) -> float:
    """Mismatch fraction between the two bit strings over the sifted positions.

    All three inputs must hold only 0/1 (or bools); anything else is a ValueError.
    """
    alice, bob, mask = arrays = [np.asarray(a) for a in (alice_bits, bob_bits, sift_mask)]
    if not (alice.shape == bob.shape == mask.shape):
        raise ValueError("alice_bits, bob_bits and sift_mask must have equal length")
    if all(a.dtype.kind in "bu" for a in arrays):
        # Bools are bits already.  One pass checks the rest: an OR above 1
        # has a bit other than the lowest.
        unsigned = [a for a in arrays if a.dtype.kind == "u"]
        if alice.size and unsigned and functools.reduce(np.bitwise_or, unsigned).max() > 1:
            raise ValueError(NOT_BITS)
    else:
        alice, bob, mask = (as_bit_array(a) for a in arrays)
    n_sift = int(np.count_nonzero(mask))
    if n_sift == 0:
        raise DegenerateSessionError("sift mask selects no positions")
    return float(np.count_nonzero((alice != bob) & mask)) / n_sift


def privacy_amplify(sifted_bits, final_len: int) -> np.ndarray:
    """Hash sifted bits into `final_len` key bits (empty when final_len is 0).

    Layout (test-vector contract): the output is the first
    ceil(final_len/8) bytes of SHA-256(sifted_bytes || LE64(counter)) for
    counter = 0, 1, ..., truncated to final_len bits; sifted_bytes packs
    the input MSB-first.  Sifted values other than 0/1 are a ValueError.
    The layout can stretch; `run_bb84` never asks for more than was sifted.
    """
    if final_len < 0:
        raise ValueError("final_len must be >= 0")
    packed = pack_bits(sifted_bits)  # validates
    if not packed:
        raise ValueError("sifted_bits must be nonempty")
    return sha256_expand_bits(packed, final_len)


def substream_draws(seed: int, stream: int, n: int, draws: int, uniforms: int = 0):
    """Substream `stream` of `seed`, read as `uniforms` words then `draws` rows of n bits.

    Returns (words, bits) as a fresh `default_rng(SeedSequence(seed).spawn(5)[stream])`
    would draw them: (words >> 11) · 2**-53 equals `Generator.random(uniforms)`,
    and row r of the (draws, n) uint8 array equals the r-th following call
    of `Generator.integers(0, 2, n, dtype=np.uint8)`.  A uniform is the top
    53 bits of one 64-bit word.  A bit draw starts at a fresh 32-bit word
    and takes the top bit of each byte, low byte first; a 64-bit word
    yields its low 32-bit half first.  Both are views of one buffer of raw
    words, whose bit bytes are shifted in place.
    """
    stride = 4 * -(-n // 4)  # bytes in ceil(n / 4) 32-bit words
    bitgen = substream(seed, stream)
    # The byte view below reads each word low byte first on any host.
    words = bitgen.random_raw(uniforms + -(-stride * draws // 8)).astype("<u8", copy=False)
    row_bytes = words[uniforms:].view(np.uint8)
    np.right_shift(row_bytes, 7, out=row_bytes)
    return words[:uniforms], row_bytes[: stride * draws].reshape(draws, stride)[:, :n]


def run_bb84(cfg: BB84Config) -> QkdSession:
    """Run one session: prepare, attack/noise, measure, sift, estimate, amplify."""
    n, seed = cfg.raw_len, cfg.rng_seed
    # The selections below act on 0/1 uint8 arrays: b ^ ((a ^ b) & c) is a
    # where c is 1 and b where c is 0.
    alice_bits = substream_draws(seed, ALICE_BITS, n, 1)[1][0]
    alice_bases = substream_draws(seed, ALICE_BASES, n, 1)[1][0]

    # The qubit in flight, as (bit, basis) in its own preparation basis.
    state_bits, state_bases = alice_bits, alice_bases

    if cfg.eve_present:
        eve_bases, eve_coins = substream_draws(seed, EVE, n, 2)[1]
        # A basis mismatch reads a coin flip.
        state_bits = state_bits ^ ((state_bits ^ eve_coins) & (eve_bases ^ state_bases))
        state_bases = eve_bases

    # Depolarizing noise: replace the in-flight bit with a uniform draw
    # where the uniform (word >> 11) · 2**-53 is below eta, that is where
    # word >> 11 is below ceil(eta · 2**53), that is where the word is below
    # ceil(eta · 2**53) · 2**11.  At eta = 1 that bound is 2**64, which no
    # uint64 holds, so the test is word <= bound - 1.  At eta = 0 nothing
    # is replaced and the stream is not built.
    if cfg.depolarize_prob > 0:
        words, (noise_bits,) = substream_draws(seed, NOISE, n, 1, uniforms=n)
        last = (math.ceil(cfg.depolarize_prob * 2.0**53) << 11) - 1
        replace = (words <= last).view(np.uint8)
        state_bits = state_bits ^ ((state_bits ^ noise_bits) & replace)

    bob_bases, bob_coins = substream_draws(seed, BOB, n, 2)[1]
    bob_bits = state_bits ^ ((state_bits ^ bob_coins) & (bob_bases ^ state_bases))

    sift_mask = alice_bases == bob_bases
    sifted_len = int(np.count_nonzero(sift_mask))
    if sifted_len == 0:
        raise DegenerateSessionError(
            f"no sifted positions out of {n} raw qubits (seed {cfg.rng_seed})"
        )

    qber = qber_of(alice_bits, bob_bits, sift_mask)
    flen = int(cfg.pa_ratio * sifted_len)  # never more than was sifted
    key = privacy_amplify(bob_bits.compress(sift_mask), flen)
    return QkdSession(key=key, sifted_len=sifted_len, final_len=flen, qber=qber)
