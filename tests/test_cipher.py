import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaeta.cipher import (
    PRIMITIVE_TAPS,
    CipherConfig,
    _index_masks,
    _seed_masks,
    _slot_recurrence,
    decode,
    default_taps,
    encode,
    keystream,
    lfsr_period,
    lfsr_stream,
    reciprocal_taps,
    slots_per_period,
)

from oracles import keystream_bits

# maximal-length taps beyond the shipped table, for the multi-word seed masks
WIDE_TAPS = {
    64: 0b11011,  # x^64 + x^4 + x^3 + x + 1
    127: 0b11,  # x^127 + x + 1
    128: 0x87,  # x^128 + x^7 + x^2 + x + 1
}


def parity_words(masks: np.ndarray, seed: int) -> np.ndarray:
    """parity(mask & seed) for masks given as rows of uint64 words along the
    last axis, seed bit i at bit i % 64 of word i // 64."""
    words = np.array([seed >> 64 * w & (1 << 64) - 1 for w in range(masks.shape[-1])],
                     dtype=np.uint64)
    return (np.bitwise_count(masks & words).sum(axis=-1) & 1).astype(np.int64)


def lfsr_reference(seed: int, taps: int, nbits: int, count: int) -> list[int]:
    """Slow independent reference: explicit bit-list Fibonacci register."""
    reg = [(seed >> i) & 1 for i in range(nbits)]
    tap_pos = [i for i in range(nbits) if (taps >> i) & 1]
    out = []
    for _ in range(count):
        out.append(reg[0])
        fb = 0
        for t in tap_pos:
            fb ^= reg[t]
        reg = reg[1:] + [fb]
    return out


class TestLfsr:
    def test_hand_run_degree_four(self):
        # x^4 + x + 1, seed 0001: hand-stepped recurrence, period 15
        want = [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1]
        got = lfsr_stream(1, 0b0011, 15, 4)
        assert got.tolist() == want
        # the next period repeats exactly
        assert lfsr_stream(1, 0b0011, 30, 4).tolist() == want + want

    def test_all_nonzero_states_visited(self):
        assert lfsr_period(0b0011, 4) == 15

    @pytest.mark.parametrize("nbits", sorted(PRIMITIVE_TAPS))
    def test_shipped_taps_are_maximal(self, nbits):
        assert lfsr_period(PRIMITIVE_TAPS[nbits], nbits) == (1 << nbits) - 1

    @pytest.mark.parametrize("nbits", sorted(PRIMITIVE_TAPS))
    def test_shipped_taps_are_primitive_polynomials(self, nbits):
        # order-of-x check in GF(2)[x]/(p): p primitive iff x^(2^n - 1) = 1
        # and x^((2^n - 1)/q) != 1 for every prime factor q
        from sympy import factorint
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_pow_mod

        mask = PRIMITIVE_TAPS[nbits]
        coeffs = [1] + [(mask >> (nbits - 1 - i)) & 1 for i in range(nbits)]
        order = (1 << nbits) - 1
        x = [1, 0]
        assert gf_pow_mod(x, order, coeffs, 2, ZZ) == [1]
        for q in factorint(order):
            assert gf_pow_mod(x, order // q, coeffs, 2, ZZ) != [1]

    def test_matches_reference_implementation(self):
        # 0b0101 is non-maximal (seed 6 lies on a 3-cycle off state 1) and
        # 0b0110 lacks the x^0 tap
        for nbits, taps in [(4, 0b0011), (8, PRIMITIVE_TAPS[8]), (12, PRIMITIVE_TAPS[12]),
                            (4, 0b0101), (4, 0b0110)]:
            for seed in (1, 3, 6, (1 << nbits) - 1):
                got = lfsr_stream(seed, taps, 200, nbits)
                assert got.tolist() == lfsr_reference(seed, taps, nbits, 200)

    @pytest.mark.parametrize("nbits, taps, seed, count", [
        (4, 0b0011, 0b1001, 100),  # past six periods of 15
        (4, 0b0011, 0b1001, 0),
        (4, 0b0011, 0b1001, 3),  # fewer bits than the register holds
        (21, (1 << 2) | 1, 0x1234F, 5000),  # x^21 + x^2 + 1
        (62, 0b1100011, (1 << 61) | 0x5A5A5, 3000),  # x^62 + x^6 + x^5 + x + 1
        (127, (1 << 1) | 1, (1 << 126) | 0xDEADBEEF, 2000),  # x^127 + x + 1
        (127, (1 << 1) | 1, 0x7, 50),
    ])
    def test_jump_ahead_matches_reference(self, nbits, taps, seed, count):
        got = lfsr_stream(seed, taps, count, nbits)
        assert got.shape == (count,)
        assert got.tolist() == lfsr_reference(seed, taps, nbits, count)

    @pytest.mark.parametrize("nbits", [4, 12, 20, 64, 127, 128])
    @pytest.mark.parametrize("reciprocal", [False, True])
    def test_seed_masks_give_every_seeds_stream(self, nbits, reciprocal):
        # output bit j of seed s is parity(mask_j & s), for every seed, the
        # parity taken over all ceil(|K|/64) words of the mask
        taps = PRIMITIVE_TAPS.get(nbits) or WIDE_TAPS[nbits]
        if reciprocal:
            taps = reciprocal_taps(taps, nbits)
        count = 3 * (1 << nbits) + 5 if nbits < 20 else 5000
        masks = _seed_masks(taps, nbits, count)
        assert masks.dtype == np.uint64 and masks.shape == (count, -(-nbits // 64))
        seeds = np.random.default_rng(nbits).integers(1, 1 << min(nbits, 63), size=5).tolist()
        for seed in seeds + [(1 << nbits) - 1, 1 << nbits - 1]:  # all bits, the top bit alone
            np.testing.assert_array_equal(parity_words(masks, seed),
                                          lfsr_stream(seed, taps, count, nbits))

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_stream(0, 0b0011, 10, 4)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            lfsr_stream(1, 0, 10, 4)

    @pytest.mark.parametrize("seed, taps, message", [
        (0, 0b0011, "seed must be a nonzero 4-bit register state; got 0"),
        (16, 0b0011, "seed must be a nonzero 4-bit register state; got 16"),
        (1, 0b10000, "taps define the zero feedback polynomial"),
    ], ids=["zero-seed", "seed-too-wide", "taps-above-register"])
    def test_register_rule_shared_with_config(self, seed, taps, message):
        # one message per condition, from the stream and a config alike
        with pytest.raises(ValueError, match=f"^{message}$"):
            lfsr_stream(seed, taps, 10, 4)
        if seed:  # a zero seed breaks the config's field rule first
            with pytest.raises(ValueError, match=f"^{message}$"):
                CipherConfig(M=2, S=1.0, key_bits=4, seed=seed, lfsr_taps=taps)

    @given(st.integers(1, (1 << 12) - 1), st.integers(0, 300))
    def test_deterministic(self, seed, count):
        taps = PRIMITIVE_TAPS[12]
        a = lfsr_stream(seed, taps, count, 12)
        b = lfsr_stream(seed, taps, count, 12)
        assert np.array_equal(a, b)

    def test_long_register_path(self):
        # a 21-bit register with supplied taps, not the shipped ones
        taps = (1 << 17) | 0b1  # x^21 + x^17 + 1 low mask -> {17, 0}
        got = lfsr_stream(0x1234, taps, 64, 21)
        assert got.tolist() == lfsr_reference(0x1234, taps, 21, 64)

    def test_reciprocal_of_primitive_is_distinct_and_maximal(self):
        for nbits in (4, 8, 12, 16):
            taps = PRIMITIVE_TAPS[nbits]
            rec = reciprocal_taps(taps, nbits)
            assert rec != taps
            assert lfsr_period(rec, nbits) == (1 << nbits) - 1

    def test_default_taps_unknown_size(self):
        with pytest.raises(ValueError):
            default_taps(25)


class TestRunningKey:
    def test_binary_symbols_are_raw_bits(self):
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x53)
        bits = lfsr_stream(0x53, cfg.taps, 40, 8)
        assert np.array_equal(keystream(cfg, 40) % cfg.M, bits)

    def test_big_endian_chunking(self):
        # bits 1011 0001 ... -> symbols 11, 1 for M = 16
        cfg = CipherConfig(M=16, S=1.0, key_bits=8, seed=0xB1)
        bits = lfsr_stream(0xB1, cfg.taps, 8, 8)
        want0 = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
        want1 = bits[4] * 8 + bits[5] * 4 + bits[6] * 2 + bits[7]
        np.testing.assert_array_equal(keystream(cfg, 2) % cfg.M, [want0, want1])

    def test_symbol_histogram_exact_over_full_cycle(self):
        # blocks of 4 bits stride through every phase of the length-4095
        # m-sequence (gcd(4, 4095) = 1), so each value hits its sliding-window
        # count exactly: 2^(12-4) per value, one less for zero
        cfg = CipherConfig(M=16, S=1.0, key_bits=12, seed=1)
        period = (1 << 12) - 1
        sym = keystream(cfg, period) % cfg.M
        counts = np.bincount(sym, minlength=16)
        assert counts[0] == 255
        assert np.all(counts[1:] == 256)
        # per-symbol frequency deviates from 1/16 by less than 1/(2^12 - 1)
        freq = counts / period
        assert np.max(np.abs(freq - 1 / 16)) < 1 / period

    def test_degenerate_single_basis(self):
        cfg = CipherConfig(M=1, S=1.0, key_bits=8, seed=0x11)
        assert np.array_equal(keystream(cfg, 5) % cfg.M, np.zeros(5, dtype=np.int64))

    @pytest.mark.parametrize("M", [1, 2, 8, 512])
    def test_matches_weighted_sum_of_bits(self, M):
        # the symbols as the dot product of each block with its bit weights;
        # 600 blocks of up to 9 bits run past the 255-bit register period.
        # Under OSK the key index is k_t + r_t M, r_t the reciprocal
        # register's output bit.
        for osk in (False, True):
            cfg = CipherConfig(M=M, S=1.0, key_bits=8, seed=0x3C, osk=osk)
            bps = cfg.bits_per_symbol
            count = 600
            bits = lfsr_stream(cfg.seed, cfg.taps, count * bps, cfg.key_bits)
            want = bits.reshape(count, bps) @ (1 << np.arange(bps - 1, -1, -1))
            polarity = lfsr_stream(cfg.seed, cfg.osk_taps, count, cfg.key_bits) * osk
            got = keystream(cfg, count)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got % M, want)
            np.testing.assert_array_equal(got // M, polarity)

    @pytest.mark.parametrize("M", [1, 8])
    @pytest.mark.parametrize("count", [-1, 2.5, 3.0, "4"])
    def test_count_checked(self, M, count):
        cfg = CipherConfig(M=M, S=1.0, key_bits=8, seed=0x3C)
        with pytest.raises(ValueError, match="count"):
            keystream(cfg, count)

    @staticmethod
    def _tap_sets(key_bits):
        """The shipped taps where there are some, a reducible tap set with
        x^0 (an even number of terms, so x + 1 divides it: not maximal) and
        one without x^0 (a singular shift map); random above that."""
        rng = random.Random(key_bits)
        while True:
            reducible = rng.getrandbits(key_bits) | 1
            singular = rng.getrandbits(key_bits) & ~1
            if reducible.bit_count() % 2 and singular:
                break
        return [PRIMITIVE_TAPS.get(key_bits), reducible, singular]

    @pytest.mark.parametrize("M", [1, 2, 512, 1 << 40], ids=["M1", "M2", "M512", "M2^40"])
    @pytest.mark.parametrize("key_bits", [*range(4, 23), 64, 127, 128])
    def test_matches_bit_packing(self, key_bits, M):
        # the word recurrence against the per-bit packing, at the counts
        # around its head length r (r <= |K|, 2|K| under OSK) and far past it
        seed = random.Random(-key_bits).randrange(1, 1 << key_bits)
        for taps in self._tap_sets(key_bits):
            if taps is None:
                continue
            for osk in (False, True):
                cfg = CipherConfig(M=M, S=1.0, key_bits=key_bits, seed=seed, lfsr_taps=taps,
                                   osk=osk)
                r = len(_slot_recurrence(cfg)[0])
                # r = 0 at M = 1 without OSK: the index carries no key bit
                assert 0 <= r <= key_bits << osk
                for count in sorted({0, 1, max(r - 1, 0), r, r + 1, 10_000}):
                    got = keystream(cfg, count)
                    assert got.dtype == np.int64 and len(got) == count
                    np.testing.assert_array_equal(got, keystream_bits(cfg, count),
                                                  err_msg=f"taps={taps:#x} osk={osk} count={count}")

    @pytest.mark.parametrize("osk", [False, True], ids=["plain", "osk"])
    @pytest.mark.parametrize("M", [1, 2, 512, 1 << 40], ids=["M1", "M2", "M512", "M2^40"])
    @pytest.mark.parametrize("key_bits", [4, 16, 22, 64, 128])
    def test_index_masks_give_every_seeds_words(self, key_bits, M, osk):
        # p_t = sum_i parity(masks[t, i] & seed) 2^i for every seed: the words
        # rebuilt from the masks are keystream's, past its head length r, and
        # the per-bit packing's, which reads no mask
        count = 2 * (key_bits << osk) + 40
        rng = random.Random(key_bits * M + osk)
        for taps in [WIDE_TAPS.get(key_bits), *self._tap_sets(key_bits)]:
            if taps is None:
                continue
            cfg = CipherConfig(M=M, S=1.0, key_bits=key_bits, seed=1, lfsr_taps=taps, osk=osk)
            masks = _index_masks(cfg, count)
            bps = cfg.bits_per_symbol
            assert masks.shape == (count, bps + osk, -(-key_bits // 64))
            for seed in [rng.randrange(1, 1 << key_bits) for _ in range(3)]:
                words = (parity_words(masks, seed) << np.arange(bps + osk)).sum(axis=1)
                seeded = dataclasses.replace(cfg, seed=seed)
                for want in (keystream(seeded, count), keystream_bits(seeded, count)):
                    np.testing.assert_array_equal(words, want,
                                                  err_msg=f"taps={taps:#x} seed={seed:#x}")


class TestEncodeDecode:
    def test_map_definition(self):
        # M = 2, symbol 1, bit 1 -> index 3 (phase 3 pi / 2)
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x53)
        k = keystream(cfg, 6) % cfg.M
        x = np.ones(6, dtype=np.int64)
        np.testing.assert_array_equal(encode(x, cfg), k + 2)
        amps = cfg.constellation().amplitudes
        slot = int(np.flatnonzero(k == 1)[0])
        assert np.angle(amps[encode(x, cfg)[slot]]) % (2 * np.pi) == pytest.approx(3 * np.pi / 2)

    def test_all_zero_probe_reveals_running_key(self):
        # bit 0 rides the key index itself, the polarity included under OSK
        x = np.zeros(100, dtype=np.int64)
        for osk in (False, True):
            cfg = CipherConfig(M=8, S=2.0, key_bits=10, seed=0x2A, osk=osk)
            np.testing.assert_array_equal(encode(x, cfg), keystream(cfg, 100))

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("osk", [False, True])
    def test_round_trip_exhaustive_small(self, m, osk):
        cfg = CipherConfig(M=m, S=1.0, key_bits=8, seed=0x61, osk=osk)
        rng = np.random.default_rng(m)
        x = rng.integers(0, 2, size=4 * m * cfg.key_bits)
        np.testing.assert_array_equal(decode(encode(x, cfg), cfg), x)

    @pytest.mark.parametrize("osk", [False, True])
    def test_round_trip_at_the_largest_M(self, osk):
        # M = 2**61 is the cap of RULES["M"]: its 2M = 2**62 indices fit an int64
        cfg = CipherConfig(M=1 << 61, S=1.0, key_bits=16, seed=3, osk=osk)
        x = np.random.default_rng(61).integers(0, 2, size=300)
        s = encode(x, cfg)
        assert s.min() >= 0 and s.max() < 1 << 62
        np.testing.assert_array_equal(decode(s, cfg), x)

    @given(st.integers(1, 255), st.integers(0, 3), st.booleans())
    def test_round_trip_fuzz(self, seed, m_exp, osk):
        cfg = CipherConfig(M=1 << m_exp, S=1.0, key_bits=8, seed=seed, osk=osk)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=257)
        np.testing.assert_array_equal(decode(encode(x, cfg), cfg), x)

    def test_antipodal_pair_per_slot(self):
        cfg = CipherConfig(M=8, S=3.0, key_bits=8, seed=0x1D)
        amps = cfg.constellation().amplitudes
        x0 = np.zeros(64, dtype=np.int64)
        x1 = np.ones(64, dtype=np.int64)
        i0, i1 = encode(x0, cfg), encode(x1, cfg)
        assert np.all((i1 - i0) % (2 * cfg.M) == cfg.M)
        np.testing.assert_allclose(amps[i1], -amps[i0], atol=1e-12)

    def test_wrong_seed_decodes_noise(self):
        # a mismatched running key leaves the bit right only when the two
        # symbols coincide, so the expected BER is (1 - 1/M)/2; at M = 256
        # that is 0.498 and the naive 0.5 +/- 0.02 band holds as well
        rng = np.random.default_rng(17)
        x = rng.integers(0, 2, size=10_000)
        for m, offset in [(16, 0x0F3), (256, 0x0F3)]:
            cfg = CipherConfig(M=m, S=1.0, key_bits=12, seed=0x5A5)
            wrong = dataclasses.replace(cfg, seed=offset)
            ber = float(np.mean(decode(encode(x, cfg), wrong) != x))
            assert ber == pytest.approx((1 - 1 / m) / 2, abs=0.02)
        assert ber == pytest.approx(0.5, abs=0.02)

    def test_empty_input(self):
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        assert len(encode(np.array([], dtype=int), cfg)) == 0
        assert len(decode(np.array([], dtype=int), cfg)) == 0

    def test_index_out_of_range(self):
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        with pytest.raises(ValueError):
            decode(np.array([8]), cfg)

    def test_nonbit_plaintext_rejected(self):
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        with pytest.raises(ValueError):
            encode(np.array([2]), cfg)

    @pytest.mark.parametrize("bad", [[1.5, 2.7], [np.nan], [np.inf, 0]])
    def test_nonintegral_indices_rejected(self, bad):
        # a float index used to be truncated: [1.5, 2.7] decoded as states 1, 2
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        with pytest.raises(ValueError, match="state indices must be integers"):
            decode(bad, cfg)

    @pytest.mark.parametrize("bad", [[0.7], [1, 0.5], [np.nan], [-np.inf]])
    def test_nonintegral_plaintext_rejected(self, bad):
        # 0.7 used to be truncated to bit 0
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        with pytest.raises(ValueError, match="plaintext must be integers"):
            encode(bad, cfg)

    def test_integral_floats_and_empty_lists_accepted(self):
        # an empty list has dtype float64; whole-number floats are exact bits
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        assert len(encode([], cfg)) == 0
        assert len(decode([], cfg)) == 0
        s = encode([1.0, 0.0, 1.0], cfg)
        np.testing.assert_array_equal(s, encode([1, 0, 1], cfg))
        np.testing.assert_array_equal(decode(s.astype(float), cfg), [1, 0, 1])


class TestConfig:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            CipherConfig(M=3, S=1.0, key_bits=8, seed=1)

    def test_key_size_floor(self):
        with pytest.raises(ValueError):
            CipherConfig(M=2, S=1.0, key_bits=3, seed=1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            CipherConfig(M=2, S=1.0, key_bits=8, seed=0)
        with pytest.raises(ValueError):
            CipherConfig(M=2, S=1.0, key_bits=8, seed=256)

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            CipherConfig(M=2, S=1.0, key_bits=8, seed=1, kappa=0.0)

    def test_ask_needs_bounds(self):
        # refused at construction, not at the first constellation() call
        with pytest.raises(ValueError, match="ask_S_min"):
            CipherConfig(M=2, S=1.0, key_bits=8, seed=1, kind="ask")

    def test_psk_refuses_ask_S_min(self):
        # a ring reads no S_min, so a PSK config may not name one
        with pytest.raises(ValueError, match="ask_S_min"):
            CipherConfig(M=2, S=40.0, key_bits=8, seed=1, ask_S_min=2.0)

    @pytest.mark.parametrize("S", [math.nan, math.inf, -1.0, 10 ** 400],
                             ids=["nan", "inf", "negative", "beyond-doubles"])
    def test_energy_checked_at_construction(self, S):
        # 10**400 is refused as not finite, not by an OverflowError
        with pytest.raises(ValueError, match="S must be finite and >= 0"):
            CipherConfig(M=2, S=S, key_bits=8, seed=1)

    @pytest.mark.parametrize("S, S_min, kappa, message", [
        (4.0, 9.0, 1.0, "S must exceed S_min"),
        (9.0, 9.0, 1.0, "S must exceed S_min"),
        (9.0, 2.0, 0.5, "minimum-energy constraint"),
        (9.0, 1.0, 1.0, "minimum-energy constraint"),
    ], ids=["reversed", "equal", "at-floor-lossy", "at-floor"])
    def test_ladder_checked_at_construction(self, S, S_min, kappa, message):
        with pytest.raises(ValueError, match=message):
            CipherConfig(M=2, S=S, key_bits=8, seed=1, kind="ask", ask_S_min=S_min,
                         kappa=kappa)
        CipherConfig(M=2, S=S + 10.0, key_bits=8, seed=1, kind="ask", ask_S_min=S_min + 0.1,
                     kappa=kappa)

    def test_huge_M_builds_no_points(self):
        # the ring's 2^41 points are built only by constellation()
        cfg = CipherConfig(M=2 ** 40, S=1.0, key_bits=8, seed=1)
        assert cfg.bits_per_symbol == 40


class TestPeriods:
    def test_slots_per_period_truncates_partial_block(self):
        cfg = CipherConfig(M=64, S=1.0, key_bits=12, seed=1)
        assert slots_per_period(cfg) == 4095 // 6

    def test_symbol_stream_period_divides_bit_period(self):
        # blocks ride the unbroken bit stream: the symbol period is
        # (2^K - 1) / gcd(log2 M, 2^K - 1)
        cfg = CipherConfig(M=64, S=1.0, key_bits=12, seed=1)
        bit_period = (1 << 12) - 1
        sym_period = bit_period // math.gcd(6, bit_period)
        a = keystream(cfg, 2 * sym_period) % cfg.M
        assert np.array_equal(a[:sym_period], a[sym_period:])
        assert bit_period % sym_period == 0
