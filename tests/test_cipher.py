import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaeta.attacks import _seed_masks
from alphaeta.cipher import (
    PRIMITIVE_TAPS,
    CipherConfig,
    decode,
    default_taps,
    encode,
    lfsr_period,
    lfsr_stream,
    reciprocal_taps,
    running_key,
    sequence_count_log2,
    slots_per_period,
)


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

    @pytest.mark.parametrize("nbits", [4, 12, 20])
    @pytest.mark.parametrize("reciprocal", [False, True])
    def test_seed_masks_give_every_seeds_stream(self, nbits, reciprocal):
        # output bit j of seed s is parity(mask_j & s), for every seed
        taps = PRIMITIVE_TAPS[nbits]
        if reciprocal:
            taps = reciprocal_taps(taps, nbits)
        count = 3 * (1 << nbits) + 5 if nbits < 20 else 5000
        masks = _seed_masks(taps, nbits, count)
        rng = np.random.default_rng(nbits)
        for seed in rng.integers(1, 1 << nbits, size=5):
            parity = np.bitwise_count(masks & seed) & 1
            np.testing.assert_array_equal(parity, lfsr_stream(int(seed), taps, count, nbits))

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_stream(0, 0b0011, 10, 4)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            lfsr_stream(1, 0, 10, 4)

    @given(st.integers(1, (1 << 12) - 1), st.integers(0, 300))
    def test_deterministic(self, seed, count):
        taps = PRIMITIVE_TAPS[12]
        a = lfsr_stream(seed, taps, count, 12)
        b = lfsr_stream(seed, taps, count, 12)
        assert np.array_equal(a, b)

    def test_long_register_path(self):
        # a register wider than any shipped taps, with supplied taps
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
        assert np.array_equal(running_key(cfg, 40), bits)

    def test_big_endian_chunking(self):
        # bits 1011 0001 ... -> symbols 11, 1 for M = 16
        cfg = CipherConfig(M=16, S=1.0, key_bits=8, seed=0xB1)
        bits = lfsr_stream(0xB1, cfg.taps, 8, 8)
        want0 = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
        want1 = bits[4] * 8 + bits[5] * 4 + bits[6] * 2 + bits[7]
        np.testing.assert_array_equal(running_key(cfg, 2), [want0, want1])

    def test_symbol_histogram_exact_over_full_cycle(self):
        # blocks of 4 bits stride through every phase of the length-4095
        # m-sequence (gcd(4, 4095) = 1), so each value hits its sliding-window
        # count exactly: 2^(12-4) per value, one less for zero
        cfg = CipherConfig(M=16, S=1.0, key_bits=12, seed=1)
        period = (1 << 12) - 1
        sym = running_key(cfg, period)
        counts = np.bincount(sym, minlength=16)
        assert counts[0] == 255
        assert np.all(counts[1:] == 256)
        # per-symbol frequency deviates from 1/16 by less than 1/(2^12 - 1)
        freq = counts / period
        assert np.max(np.abs(freq - 1 / 16)) < 1 / period

    def test_degenerate_single_basis(self):
        cfg = CipherConfig(M=1, S=1.0, key_bits=8, seed=0x11)
        assert np.array_equal(running_key(cfg, 5), np.zeros(5, dtype=np.int64))


class TestEncodeDecode:
    def test_map_definition(self):
        # M = 2, symbol 1, bit 1 -> index 3 (phase 3 pi / 2)
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x53)
        k = running_key(cfg, 6)
        x = np.ones(6, dtype=np.int64)
        np.testing.assert_array_equal(encode(x, cfg), k + 2)
        amps = cfg.constellation().amplitudes
        slot = int(np.flatnonzero(k == 1)[0])
        assert np.angle(amps[encode(x, cfg)[slot]]) % (2 * np.pi) == pytest.approx(3 * np.pi / 2)

    def test_all_zero_probe_reveals_running_key(self):
        cfg = CipherConfig(M=8, S=2.0, key_bits=10, seed=0x2A)
        x = np.zeros(100, dtype=np.int64)
        np.testing.assert_array_equal(encode(x, cfg), running_key(cfg, 100))

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("osk", [False, True])
    def test_round_trip_exhaustive_small(self, m, osk):
        cfg = CipherConfig(M=m, S=1.0, key_bits=8, seed=0x61, osk=osk)
        rng = np.random.default_rng(m)
        x = rng.integers(0, 2, size=4 * m * cfg.key_bits)
        np.testing.assert_array_equal(decode(encode(x, cfg), cfg), x)

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
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=1, kind="ask")
        with pytest.raises(ValueError):
            cfg.constellation()


class TestSequenceCount:
    def test_worked_example(self):
        cfg = CipherConfig(M=16, S=1.0, key_bits=8, seed=1)
        assert sequence_count_log2(cfg) == pytest.approx(320.0)

    def test_binary_case(self):
        for kb in (8, 12, 16):
            cfg = CipherConfig(M=2, S=1.0, key_bits=kb, seed=1)
            assert sequence_count_log2(cfg) == pytest.approx(2.0 ** (kb + 1))

    def test_monotone_in_key_bits(self):
        vals = [sequence_count_log2(CipherConfig(M=16, S=1.0, key_bits=kb, seed=1))
                for kb in (8, 10, 12, 14)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_single_basis_rejected(self):
        cfg = CipherConfig(M=1, S=1.0, key_bits=8, seed=1)
        with pytest.raises(ValueError):
            sequence_count_log2(cfg)


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
        a = running_key(cfg, 2 * sym_period)
        assert np.array_equal(a[:sym_period], a[sym_period:])
        assert bit_period % sym_period == 0
