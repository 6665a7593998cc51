"""The Y-00 protocol machine: seed key, LFSR running key, M-ary basis selection,
bit-to-state mapping with optional overlap selection keying, keyed decoding."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import RULES, Constellation, ModulationKind, _check, _check_energies, make_ask, make_psk

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
    21: 0b000000000000000000101,  # x^21 + x^2 + 1
    22: 0b0000000000000000000011,  # x^22 + x + 1
}


def default_taps(key_bits: int) -> int:
    if key_bits not in PRIMITIVE_TAPS:
        raise ValueError(f"no shipped maximal-length taps for |K|={key_bits}; supply lfsr_taps")
    return PRIMITIVE_TAPS[key_bits]


def reciprocal_taps(taps: int, key_bits: int) -> int:
    """Feedback mask of the reciprocal polynomial.

    The reciprocal of a primitive polynomial is primitive and, for n > 2,
    distinct; it drives the overlap-selection-keying stream so that the two
    keyed streams decorrelate while staying derivable from one seed.
    """
    poly = _register_taps(taps, key_bits) | (1 << key_bits)  # x^n and x^0 both present
    rev = 0
    for j in range(key_bits + 1):
        if poly >> j & 1:
            rev |= 1 << (key_bits - j)
    return rev & ((1 << key_bits) - 1)


def _mulmod(a: int, b: int, poly: int, nbits: int) -> int:
    """a * b mod poly in GF(2)[x]; a, b below x^nbits, poly of degree nbits:
    one shifted copy of a per set bit of b, then ``_mod``."""
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    return _mod(r, poly, nbits)


def _mod(r: int, poly: int, nbits: int) -> int:
    """r mod poly in GF(2)[x], poly of degree nbits: its top set bit cleared
    by a shifted poly until none is left at or above x^nbits."""
    while (top := r.bit_length() - 1) >= nbits:
        r ^= poly << (top - nbits)
    return r


def _lfsr_extend(head: np.ndarray, taps: int, nbits: int, count: int) -> np.ndarray:
    """The first ``count`` terms of s[t+nbits] = XOR_{j in taps} s[t+j] from its
    first ``nbits`` terms ``head``: stream bits (uint8), by linearity the
    seed masks of the unit seeds (uint64 rows), or the packed per-slot key
    words of ``keystream`` (int64).  Only the recurrence's coefficients are
    used, so p need not be primitive, irreducible or have an x^0 term.

    Jump-ahead by doubling: with L terms known, s[t+L] is the XOR of s[t+b]
    over the set bits b of x^L mod p, p = x^nbits + taps, which gives terms
    L..2L-nbits from known ones.  L = 2^i + nbits - 1 at stage i; the next
    stage's x^L and x^(2^i) are made only if it runs.
    """
    poly = taps | 1 << nbits
    out = np.zeros((max(count, nbits),) + head.shape[1:], dtype=head.dtype)
    out[:nbits] = head
    known, jump, x_pow2 = nbits, taps, _mod(2, poly, nbits)  # x^known, x^(2^i) mod p
    while known < count:
        new = min(known - nbits + 1, count - known)
        block, rest = out[known:known + new], jump
        while rest:
            b = (rest & -rest).bit_length() - 1
            block ^= out[b:b + new]
            rest &= rest - 1
        known += new
        if known < count:
            jump = _mulmod(jump, x_pow2, poly, nbits)
            x_pow2 = _mod(int(f"{x_pow2:b}", 4), poly, nbits)  # bit i to 2i: the square
    return out[:count]


def _register_taps(taps: int, key_bits: int) -> int:
    """Bare ``taps``, which obey ``RULES["taps"]``, masked to ``key_bits``, which
    obeys ``RULES["register"]``."""
    _check("key_bits", key_bits, RULES["register"])
    _check("taps", taps)
    return taps & ((1 << key_bits) - 1)


def _check_register(seed: int, taps: int, key_bits: int) -> None:
    """The register rules of ``lfsr_stream`` and ``CipherConfig`` alike: the taps,
    masked to |K| bits, feed back; the seed passes ``FIELD_RULES["seed"]`` and fits |K|."""
    if taps == 0:
        raise ValueError("taps define the zero feedback polynomial")
    _check("seed", seed, (lambda v: FIELD_RULES["seed"][0](v) and v < 1 << key_bits,
                          f"a nonzero {key_bits}-bit register state"))


def lfsr_stream(seed: int, taps: int, count: int, key_bits: int) -> np.ndarray:
    """Fibonacci LFSR output bits, one per shift, deterministic in (seed, taps).

    The output bit is the register's low bit before the shift; feedback is the
    parity of the tapped bits, entering at the top.  A zero seed is rejected
    (it generates the degenerate all-zero stream).  Any nonzero taps and any
    register length: the seed's bits are jumped ahead by ``_lfsr_extend``.
    """
    _check("count", count)
    taps = _register_taps(taps, key_bits)
    _check_register(seed, taps, key_bits)
    head = np.array([seed >> i & 1 for i in range(key_bits)], dtype=np.uint8)
    return _lfsr_extend(head, taps, key_bits, count)


def lfsr_period(taps: int, key_bits: int) -> int:
    """Length of the register cycle through state 1; 2^|K|-1 for maximal taps.

    A plain walk of the register.  Needs the x^0 tap, which makes the state
    map invertible, so the orbit of state 1 closes on itself."""
    taps = _register_taps(taps, key_bits)
    if not taps & 1:
        raise ValueError("taps without the x^0 coefficient have no cycle through state 1")
    state, period = 1, 0
    while state != 1 or not period:
        state = (state >> 1) | (((state & taps).bit_count() & 1) << (key_bits - 1))
        period += 1
    return period


# field: (test of its value and type, what it must be), one rule per CipherConfig field, the
# numbers' from ``RULES``; the config enforces it, cli.validate_config_dict reports it
FIELD_RULES = {
    "M": RULES["M"],
    "S": RULES["S"],
    "key_bits": (lambda v: type(v) is int and v >= 4, "an integer >= 4"),
    "seed": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "lfsr_taps": (lambda v: v is None or RULES["taps"][0](v), f"{RULES['taps'][1]} or None"),
    "osk": (lambda v: type(v) is bool, "true or false"),
    "kind": (lambda v: v in ("psk", "ask"), "one of 'psk', 'ask'"),
    "kappa": RULES["kappa"],
    "ask_S_min": RULES["ask_S_min"],
}


@dataclass(frozen=True)
class CipherConfig:
    """All protocol parameters plus the shared secret register state.

    A config that builds is valid: construction checks ``FIELD_RULES``, each
    field's type and value, then the seed's width, the taps, ``ask_S_min``
    (set exactly for ASK) and the ladder (``_check_energies``); no point built.
    """

    M: int
    S: float  # the ring's energy, or the top of an ASK ladder from ask_S_min
    key_bits: int
    seed: int
    lfsr_taps: int | None = None
    osk: bool = False
    kind: ModulationKind = ModulationKind.PSK
    kappa: float = 1.0
    ask_S_min: float | None = None

    def __post_init__(self):
        for name, rule in FIELD_RULES.items():
            _check(name, getattr(self, name), rule)
        _check_register(self.seed, self.taps, self.key_bits)
        kind = _check_energies(self.kind, self.ask_S_min, self.S, self.kappa, "ask_S_min")
        object.__setattr__(self, "kind", kind)

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
        return make_ask(self.M, self.ask_S_min, self.S, self.kappa)


def keystream(config: CipherConfig, count: int) -> np.ndarray:
    """Per-slot key index p_t = k_t + r_t M: the point that carries data bit 0.

    k_t is the running-key symbol, the t-th big-endian log2(M)-bit block of
    the LFSR stream, and r_t the overlap-selection-keying polarity bit, drawn
    from the reciprocal register (0 without OSK).  Blocks are cut from the
    unbroken stream; they are not realigned at the register period, so the
    symbol sequence period is (2^|K|-1)/gcd(log2 M, 2^|K|-1) blocks.

    Built as int64 words, never bit by bit, from the seed masks of
    ``_index_masks``: ``_slot_recurrence`` gives the first words and the
    linear recurrence the rest follow, which ``_lfsr_extend`` runs.
    ``count`` obeys ``RULES["count"]``.
    """
    _check("count", count)
    head, coeffs = _slot_recurrence(config)
    return _lfsr_extend(head, coeffs, len(head), count)


def _seed_masks(taps: int, k: int, count: int) -> np.ndarray:
    """Output bit j < count of the register at seed s is parity(mask_j & s),
    for any taps and every seed: by linearity mask_j holds bit j of each unit
    seed's stream.  A mask is a row of ceil(k/64) uint64 words, seed bit i at
    bit i % 64 of word i // 64, so any register length fits."""
    i = np.arange(k)
    unit = np.zeros((k, -(-k // 64)), dtype=np.uint64)
    unit[i, i // 64] = 1 << (i % 64).astype(np.uint64)
    return _lfsr_extend(unit, taps, k, count)


def _index_masks(config: CipherConfig, count: int) -> np.ndarray:
    """masks[t, i]: the seed mask (``_seed_masks``) of bit i of slot t's key
    index p_t, t < count.  Bits i < b = log2 M are the symbol k_t, stream
    bits t b, ..., t b + b - 1 with the first the most significant; under
    OSK bit b is the polarity r_t, bit t of the reciprocal register."""
    b, k = config.bits_per_symbol, config.key_bits
    stream = _seed_masks(config.taps, k, count * b)
    masks = stream.reshape(count, b, stream.shape[1])[:, ::-1]
    if config.osk:
        masks = np.concatenate([masks, _seed_masks(config.osk_taps, k, count)[:, None]], axis=1)
    return masks


def _slot_recurrence(config: CipherConfig) -> tuple[np.ndarray, int]:
    """The key indices p_0, ..., p_{r-1} and the mask of the c_j in
    p_{t+r} = XOR_{j<r} c_j p_{t+j}.

    Row t of ``_index_masks`` is L T^t: slot t + 1's masks are slot t's
    times the seed's slot step T (A^b on the symbol bits, B on the polarity,
    for b = log2 M and the shift maps A, B of the two registers).  So the
    first dependency XOR_{j<r} c_j row_j = row_r, times T, holds at every
    later slot, and so between the indices.  By Cayley-Hamilton on A^b and
    B, elimination finds it at r <= |K| (2|K| under OSK); r = 0 when p_t
    carries no key bit (M = 1 without OSK).  The head is parity(row_t & seed).
    """
    masks = _index_masks(config, (config.key_bits << config.osk) + 1)
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (row, mask of the slots XORed in)
    for r, row in enumerate(masks):
        state, used = int.from_bytes(row.tobytes(), "little"), 1 << r
        while state and (lead := state.bit_length() - 1) in basis:
            state, used = state ^ basis[lead][0], used ^ basis[lead][1]
        if not state:
            break
        basis[state.bit_length() - 1] = (state, used)
    seed = np.frombuffer(config.seed.to_bytes(8 * masks.shape[2], "little"), "<u8")
    bits = np.unpackbits((masks[:r] & seed).view(np.uint8), axis=-1).sum(axis=-1) & 1
    return (bits.astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1), used ^ (1 << r)


def slots_per_period(config: CipherConfig) -> int:
    """Full symbols in one register period; the trailing partial block is dropped."""
    period = (1 << config.key_bits) - 1
    return period // max(config.bits_per_symbol, 1)


def encode(plaintext, config: CipherConfig) -> np.ndarray:
    """Map data bits to constellation indices: slot t carries (p_t + x_t M) mod 2M,
    p_t the key index (``keystream``).  Under OSK this is (k_t + (x_t xor r_t) M)
    mod 2M, since (x xor r) M = (x + r) M mod 2M.  Values other than 0 and 1,
    fractions included, raise ``ValueError``.
    """
    x = _bits(plaintext)
    p = keystream(config, len(x))
    p ^= x << config.bits_per_symbol  # p < 2M, so XOR adds x M mod 2M
    return p


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64, raising rather than truncating a non-integer
    (nan and inf included); an empty list, float64 by default, passes."""
    a = np.asarray(values)
    with np.errstate(invalid="ignore"):  # nan and inf cast to junk, which then differs
        s = a.astype(np.int64, copy=False)
    if not np.array_equal(s, a):
        raise ValueError(f"{what} must be integers")
    return s


def _bits(values) -> np.ndarray:
    """``values`` as int64 data bits; a fraction or a value other than 0 and
    1 raises ``ValueError``."""
    x = _integers(values, "plaintext")
    if x.size and (x.min() < 0 or x.max() > 1):
        raise ValueError("plaintext must be bits")
    return x


def _state_indices(indices, config: CipherConfig) -> np.ndarray:
    """``indices`` as int64 constellation indices, each in [0, 2M); a
    fraction or an index out of range raises ``ValueError``."""
    s = _integers(indices, "state indices")
    if s.size and (s.min() < 0 or s.max() >= 2 * config.M):
        raise ValueError("state index out of range")
    return s


def decode(indices, config: CipherConfig) -> np.ndarray:
    """Invert ``encode``: x_t = ((s_t - p_t) mod 2M) // M."""
    s = _state_indices(indices, config)
    return ((s - keystream(config, len(s))) % (2 * config.M)) // config.M

