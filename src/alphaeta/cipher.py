"""The Y-00 protocol machine: seed key, LFSR running key, M-ary basis selection,
bit-to-state mapping with optional overlap selection keying, keyed decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, ModulationKind, make_ask, make_psk

# Feedback masks of primitive polynomials, keyed by register length.  The mask
# holds the coefficients of x^0..x^(n-1); bit j set means the recurrence
# s[t+n] += s[t+j].  Every entry is verified maximal-length by the test suite.
PRIMITIVE_TAPS = {
    4: 0b0011,                # x^4 + x + 1
    5: 0b00101,               # x^5 + x^2 + 1
    6: 0b000011,              # x^6 + x + 1
    7: 0b0001001,             # x^7 + x^3 + 1
    8: 0b01110001,            # x^8 + x^6 + x^5 + x^4 + 1
    9: 0b000100001,           # x^9 + x^5 + 1
    10: 0b0010000001,         # x^10 + x^7 + 1
    11: 0b01000000001,        # x^11 + x^9 + 1
    12: 0b000001010011,       # x^12 + x^6 + x^4 + x + 1
    13: 0b0000000011011,      # x^13 + x^4 + x^3 + x + 1
    14: 0b00000000101011,     # x^14 + x^5 + x^3 + x + 1
    15: 0b100000000000001,    # x^15 + x^14 + 1
    16: 0b1010000000010001,   # x^16 + x^15 + x^13 + x^4 + 1
    17: 0b00100000000000001,  # x^17 + x^14 + 1
    18: 0b000000100000000001,  # x^18 + x^11 + 1
    19: 0b0000000000001000111,  # x^19 + x^6 + x^2 + x + 1
    20: 0b00100000000000000001,  # x^20 + x^17 + 1
}


def default_taps(key_bits: int) -> int:
    try:
        return PRIMITIVE_TAPS[key_bits]
    except KeyError:
        raise ValueError(
            f"no shipped maximal-length taps for |K|={key_bits}; supply lfsr_taps"
        ) from None


def reciprocal_taps(taps: int, key_bits: int) -> int:
    """Feedback mask of the reciprocal polynomial.

    The reciprocal of a primitive polynomial is primitive and, for n > 2,
    distinct; it drives the overlap-selection-keying stream so that the two
    keyed streams decorrelate while staying derivable from one seed.
    """
    poly = taps | (1 << key_bits)  # x^n and x^0 coefficients both present
    rev = 0
    for j in range(key_bits + 1):
        if poly >> j & 1:
            rev |= 1 << (key_bits - j)
    return rev & ((1 << key_bits) - 1)


def _mulmod(a: int, b: int, poly: int, nbits: int) -> int:
    """a * b mod poly in GF(2)[x]; a, b below x^nbits, poly of degree nbits."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> nbits:
            a ^= poly
    return r


def _lfsr_extend(head: np.ndarray, taps: int, nbits: int, count: int) -> np.ndarray:
    """The first ``count`` terms of s[t+nbits] = XOR_{j in taps} s[t+j] from its
    first ``nbits`` terms ``head``: stream bits (uint8) or, by linearity, the
    seed masks of the unit seeds (int64).

    Jump-ahead by doubling: with L terms known, s[t+L] is the XOR of s[t+b]
    over the bits b of x^L mod p, p = x^nbits + taps, which gives terms
    L..2L-nbits from known ones.  L = 2^i + nbits - 1 at stage i.
    """
    poly = taps | 1 << nbits
    out = np.zeros(max(count, nbits), dtype=head.dtype)
    out[:nbits] = head
    known, jump, x_pow2 = nbits, taps, _mulmod(1, 2, poly, nbits)  # x^known, x^(2^i) mod p
    while known < count:
        new = min(known - nbits + 1, count - known)
        for b in range(nbits):
            if jump >> b & 1:
                out[known:known + new] ^= out[b:b + new]
        known += new
        jump = _mulmod(jump, x_pow2, poly, nbits)
        x_pow2 = _mulmod(x_pow2, x_pow2, poly, nbits)
    return out[:count]


def lfsr_stream(seed: int, taps: int, count: int, key_bits: int) -> np.ndarray:
    """Fibonacci LFSR output bits, one per shift, deterministic in (seed, taps).

    The output bit is the register's low bit before the shift; feedback is the
    parity of the tapped bits, entering at the top.  A zero seed is rejected
    (it generates the degenerate all-zero stream).  Any nonzero taps and any
    register length: the seed's bits are jumped ahead by ``_lfsr_extend``.
    """
    mask = (1 << key_bits) - 1
    taps &= mask
    if taps == 0:
        raise ValueError("taps define the zero feedback polynomial")
    if not 0 < seed <= mask:
        raise ValueError("seed must be a nonzero state of the register")
    if count < 0:
        raise ValueError("count must be nonnegative")
    head = np.array([seed >> i & 1 for i in range(key_bits)], dtype=np.uint8)
    return _lfsr_extend(head, taps, key_bits, count)


def lfsr_period(taps: int, key_bits: int) -> int:
    """Length of the register cycle through state 1; 2^|K|-1 for maximal taps.

    A plain walk of the register.  Needs the x^0 tap, which makes the state
    map invertible, so the orbit of state 1 closes on itself."""
    taps &= (1 << key_bits) - 1
    if not taps & 1:
        raise ValueError("taps without the x^0 coefficient have no cycle through state 1")
    state, period = 1, 0
    while state != 1 or not period:
        state = (state >> 1) | (((state & taps).bit_count() & 1) << (key_bits - 1))
        period += 1
    return period


@dataclass(frozen=True)
class CipherConfig:
    """All protocol parameters plus the shared secret register state.

    ``M`` must be a power of two for encoding (running-key symbols are unbiased
    log2(M)-bit blocks); detection-side bound computations accept arbitrary
    state counts and do not go through this type.
    """

    M: int
    S: float
    key_bits: int
    seed: int
    lfsr_taps: int | None = None
    osk: bool = False
    kind: ModulationKind = ModulationKind.PSK
    kappa: float = 1.0
    ask_S_min: float | None = None
    ask_S_max: float | None = None

    def __post_init__(self):
        if self.M < 1 or self.M & (self.M - 1):
            raise ValueError("M must be a power of two")
        if self.key_bits < 4:
            raise ValueError("|K| must be at least 4")
        if not 0 < self.seed < (1 << self.key_bits):
            raise ValueError("seed must be a nonzero |K|-bit value")
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must be in (0, 1]")
        if self.taps == 0:
            raise ValueError("taps define the zero feedback polynomial")
        object.__setattr__(self, "kind", ModulationKind(self.kind))

    @property
    def taps(self) -> int:
        t = self.lfsr_taps if self.lfsr_taps is not None else default_taps(self.key_bits)
        return t & ((1 << self.key_bits) - 1)

    @property
    def osk_taps(self) -> int:
        return reciprocal_taps(self.taps, self.key_bits)

    @property
    def bits_per_symbol(self) -> int:
        return self.M.bit_length() - 1

    def constellation(self) -> Constellation:
        if self.kind is ModulationKind.PSK:
            return make_psk(self.M, self.S)
        if self.ask_S_min is None or self.ask_S_max is None:
            raise ValueError("ASK configs need ask_S_min and ask_S_max")
        return make_ask(self.M, self.ask_S_min, self.ask_S_max, self.kappa)


def running_key(config: CipherConfig, count: int) -> np.ndarray:
    """Running-key symbols: consecutive big-endian log2(M)-bit blocks of the
    LFSR stream.  Blocks are cut from the unbroken stream; they are not
    realigned at the register period, so the symbol sequence period is
    (2^|K|-1)/gcd(log2 M, 2^|K|-1) blocks."""
    bps = config.bits_per_symbol
    bits = lfsr_stream(config.seed, config.taps, count * bps, config.key_bits)
    return bits.reshape(count, bps) @ (1 << np.arange(bps - 1, -1, -1))


def osk_stream(config: CipherConfig, count: int) -> np.ndarray:
    """Keyed polarity bits for overlap selection keying, one per slot."""
    return lfsr_stream(config.seed, config.osk_taps, count, config.key_bits)


def slots_per_period(config: CipherConfig) -> int:
    """Full symbols in one register period; the trailing partial block is dropped."""
    period = (1 << config.key_bits) - 1
    return period // max(config.bits_per_symbol, 1)


def encode(plaintext, config: CipherConfig) -> np.ndarray:
    """Map data bits to constellation indices: slot t carries (k_t + x_t * M) mod 2M.

    With OSK enabled each data bit is first XORed with the keyed polarity bit,
    which Bob rederives from the shared seed.
    """
    x = np.asarray(plaintext, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() > 1):
        raise ValueError("plaintext must be bits")
    k = running_key(config, len(x))
    if config.osk:
        x = x ^ osk_stream(config, len(x))
    return (k + x * config.M) % (2 * config.M)


def decode(indices, config: CipherConfig) -> np.ndarray:
    """Invert ``encode``: x_t = ((s_t - k_t) mod 2M) // M, undoing OSK if enabled."""
    s = np.asarray(indices, dtype=np.int64)
    if s.size and (s.min() < 0 or s.max() >= 2 * config.M):
        raise ValueError("state index out of range")
    k = running_key(config, len(s))
    x = ((s - k) % (2 * config.M)) // config.M
    if config.osk:
        x = x ^ osk_stream(config, len(s))
    return x


def sequence_count_log2(config: CipherConfig) -> float:
    """log2 of the number of distinct transmittable state sequences,
    (2^|K| / log2 M) * log2(2M); the count itself overflows for real key sizes."""
    if config.M < 2:
        raise ValueError("M must be at least 2")
    per_block = math.log2(2 * config.M) / math.log2(config.M)
    try:
        return math.ldexp(per_block, config.key_bits)
    except OverflowError:
        return math.inf
