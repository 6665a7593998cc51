import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from alphaeta.attacks import (
    _DROPPED_MASS_TOL,
    bit_hypothesis_ensembles,
    collective_success,
    collective_usd_bound,
    eve_ctoa_data,
    eve_key_symbol,
    key_posterior_entropy,
)
from alphaeta.channel import transmit
from alphaeta.cipher import CipherConfig, encode, slots_per_period
from alphaeta.detection import quadrature_binary, srm_symmetric

from oracles import full_slab_errors, symmetric_symbol_error_mc


def _run(config, n, rng, plaintext=None):
    x = plaintext if plaintext is not None else rng.integers(0, 2, n)
    rec = transmit(encode(x, config), config, rng)
    return x, rec


class TestCtoaData:
    def test_binary_no_masking_tracks_heterodyne(self):
        # M = 1: no running key, plain antipodal keying; Eve's MAP error
        # approaches the heterodyne binary error, not 1/2
        cfg = CipherConfig(M=1, S=1.0, key_bits=8, seed=0x55)
        rng = np.random.default_rng(0)
        x, rec = _run(cfg, 100_000, rng)
        rep = eve_ctoa_data(rec, cfg, x)
        want = quadrature_binary(1.0, -1.0, "heterodyne").value
        assert rep.empirical.value == pytest.approx(want, abs=4 * rep.empirical.stderr)
        assert rep.empirical.value < 0.25

    def test_masked_config_is_opaque(self):
        cfg = CipherConfig(M=64, S=40.0, key_bits=12, seed=0x5A5, osk=True)
        rng = np.random.default_rng(1)
        x, rec = _run(cfg, 50_000, rng)
        rep = eve_ctoa_data(rec, cfg, x)
        assert rep.empirical.value == pytest.approx(0.5, abs=0.015)
        assert rep.bound.value == pytest.approx(0.5, abs=1e-12)

    def test_empirical_never_beats_bound(self):
        for m, s, osk, seed in [(2, 1.0, False, 3), (4, 4.0, False, 4),
                                (16, 25.0, True, 5)]:
            cfg = CipherConfig(M=m, S=s, key_bits=10, seed=0x111, osk=osk)
            rng = np.random.default_rng(seed)
            x, rec = _run(cfg, 30_000, rng)
            rep = eve_ctoa_data(rec, cfg, x)
            assert rep.empirical.value >= rep.bound.value - 3 * rep.empirical.stderr

    def test_hypothesis_ensembles_shape(self):
        cfg = CipherConfig(M=8, S=1.0, key_bits=8, seed=0x3C)
        rho0, rho1 = bit_hypothesis_ensembles(cfg)
        np.testing.assert_array_equal(rho0.indices, np.arange(8))
        np.testing.assert_array_equal(rho1.indices, np.arange(8, 16))
        cfg_osk = CipherConfig(M=8, S=1.0, key_bits=8, seed=0x3C, osk=True)
        r0, r1 = bit_hypothesis_ensembles(cfg_osk)
        np.testing.assert_array_equal(r0.indices, r1.indices)

    def test_length_mismatch(self):
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x55)
        rng = np.random.default_rng(0)
        _, rec = _run(cfg, 10, rng)
        with pytest.raises(ValueError):
            eve_ctoa_data(rec, cfg, np.zeros(9, dtype=int))


class TestWindowedMap:
    # (config fields, whether the window is narrower than the constellation);
    # a two-point ring never is: the one-point window's gap bound is 0 when y
    # is equidistant from both points.  At S = 0 every likelihood ties, so
    # each decision falls to the first candidate in index order.
    CASES = {
        "psk4-vacuum": (dict(M=4, S=0.0), False),
        "psk1-low": (dict(M=1, S=1.0), False),
        "psk1-high": (dict(M=1, S=100.0), False),
        "psk2-low": (dict(M=2, S=0.5), False),
        "psk2-high": (dict(M=2, S=100.0), True),
        "psk8-low": (dict(M=8, S=1.0), False),
        "psk8-high": (dict(M=8, S=400.0), True),
        "psk64-low": (dict(M=64, S=2.0), False),
        "psk64-high": (dict(M=64, S=4000.0), True),
        "ask8-low": (dict(M=8, S=4.0, kind="ask", ask_S_min=2.0, ask_S_max=4.0), False),
        "ask8-high": (dict(M=8, S=2000.0, kind="ask", ask_S_min=2.0, ask_S_max=2000.0), True),
    }

    @pytest.mark.parametrize("osk", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_slab(self, case, osk):
        fields, narrow = self.CASES[case]
        cfg = CipherConfig(key_bits=12, seed=0x5A5, osk=osk, **fields)
        rng = np.random.default_rng(fields["M"])
        x, rec = _run(cfg, 10_000, rng)  # spans three likelihood chunks
        reports = [eve_ctoa_data(rec, cfg, x), eve_key_symbol(rec, cfg, None),
                   eve_key_symbol(rec, cfg, x)]
        for rep in reports:
            want = full_slab_errors(rec, cfg, rep.attack_kind, x)
            assert rep.empirical.value == want / len(x), rep.attack_kind
            if narrow:
                assert 0.0 < rep.dropped_mass_bound <= _DROPPED_MASS_TOL
            else:
                assert rep.dropped_mass_bound == 0.0

    @pytest.mark.parametrize("case", ["psk8-high", "ask8-high"])
    def test_window_reaches_the_known_half(self, case):
        # a wrong plaintext puts each sample in the other half, out of reach of
        # the bound's window; the maximum over the known half must still be
        # found
        cfg = CipherConfig(key_bits=12, seed=0x5A5, **self.CASES[case][0])
        x, rec = _run(cfg, 5_000, np.random.default_rng(9))
        rep = eve_key_symbol(rec, cfg, 1 - x)
        assert rep.empirical.value == full_slab_errors(rec, cfg, "kpa_key", 1 - x) / len(x)
        assert rep.empirical.value > 0.5


class TestKeySymbolAttacks:
    def test_sparse_ring_is_easy(self):
        # M = 2, S = 1e4: two candidate states 200 apart; errors vanish
        cfg = CipherConfig(M=2, S=1e4, key_bits=10, seed=0x155)
        rng = np.random.default_rng(2)
        x = np.zeros(5_000, dtype=np.int64)
        _, rec = _run(cfg, 5_000, rng, plaintext=x)
        rep = eve_key_symbol(rec, cfg, x)
        assert rep.attack_kind == "kpa_key"
        assert rep.empirical.value == 0.0

    def test_dense_reference_point(self):
        # the published operating point: symbol error at least the N=2047
        # optimum (0.975) minus Monte Carlo slack; detection-level experiment
        rng = np.random.default_rng(3)
        emp = symmetric_symbol_error_mc(2047, 100.0, 200_000, rng)
        bound = srm_symmetric(2047, 100.0).value
        assert emp.value >= bound - 3 * emp.stderr

    def test_heterodyne_never_beats_optimum_grid(self):
        rng = np.random.default_rng(4)
        for n in (4, 16, 64):
            for s in (0.5, 4.0, 50.0):
                emp = symmetric_symbol_error_mc(n, s, 20_000, rng)
                bound = srm_symmetric(n, s).value
                assert emp.value >= bound - 3 * emp.stderr

    def test_kpa_beats_ctoa_on_key(self):
        # knowing the plaintext halves the candidate set per slot
        cfg = CipherConfig(M=8, S=4.0, key_bits=10, seed=0x2BD)
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 40_000)
        rec = transmit(encode(x, cfg), cfg, rng)
        kpa = eve_key_symbol(rec, cfg, x)
        ctoa = eve_key_symbol(rec, cfg, None)
        assert kpa.attack_kind == "kpa_key" and ctoa.attack_kind == "ctoa_key"
        assert kpa.empirical.value <= ctoa.empirical.value + 3 * ctoa.empirical.stderr
        assert kpa.bound.value == srm_symmetric(8, 4.0).value
        assert ctoa.bound.value == srm_symmetric(16, 4.0).value

    def test_osk_marginalization_still_finds_symbols(self):
        cfg = CipherConfig(M=4, S=100.0, key_bits=10, seed=0x19F, osk=True)
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, 5_000)
        rec = transmit(encode(x, cfg), cfg, rng)
        rep = eve_key_symbol(rec, cfg, x)
        assert rep.empirical.value < 0.01  # far-separated states

    @pytest.mark.parametrize("osk", [False, True])
    def test_single_symbol_kpa_cannot_err(self, osk):
        # M = 1 leaves one candidate symbol once the plaintext is known
        cfg = CipherConfig(M=1, S=4.0, key_bits=8, seed=0x55, osk=osk)
        x, rec = _run(cfg, 1_000, np.random.default_rng(7))
        rep = eve_key_symbol(rec, cfg, x)
        assert rep.empirical.value == 0.0
        assert rep.bound.value == 0.0 and rep.bound.method == "single_state"


class TestKeyPosterior:
    def test_flat_when_record_uninformative(self):
        # S ~ 0 gives a near-zero-information record: posterior ~ uniform over
        # the 2^|K| - 1 seeds
        cfg = CipherConfig(M=4, S=1e-12, key_bits=8, seed=0x9D, osk=True)
        rng = np.random.default_rng(0)
        n = 100
        x = np.zeros(n, dtype=np.int64)
        rec = transmit(encode(x, cfg), cfg, rng)
        h = key_posterior_entropy(rec, cfg, x)
        assert h == pytest.approx(math.log2(255), abs=1e-3)

    def test_key_recovered_at_high_energy(self):
        cfg = CipherConfig(M=2, S=1e4, key_bits=12, seed=0x5A5)
        rng = np.random.default_rng(1)
        n = slots_per_period(cfg)
        x = np.zeros(n, dtype=np.int64)
        rec = transmit(encode(x, cfg), cfg, rng)
        assert key_posterior_entropy(rec, cfg, x) < 0.1

    def test_monotone_in_record_length(self):
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x9D, osk=True)
        rng = np.random.default_rng(2)
        n = 200
        x = np.zeros(n, dtype=np.int64)
        rec = transmit(encode(x, cfg), cfg, rng)
        hs = []
        for length in (25, 50, 100, 200):
            sub = type(rec)(rec.samples[:length], rec.kappa)
            hs.append(key_posterior_entropy(sub, cfg, x[:length]))
        assert all(a >= b - 1e-9 for a, b in zip(hs, hs[1:]))

    def test_entropy_bounded_by_key_bits(self):
        cfg = CipherConfig(M=4, S=0.5, key_bits=8, seed=0x9D)
        rng = np.random.default_rng(3)
        n = 50
        x = np.zeros(n, dtype=np.int64)
        rec = transmit(encode(x, cfg), cfg, rng)
        h = key_posterior_entropy(rec, cfg, x)
        assert 0.0 <= h <= 8.0

    @staticmethod
    def _per_seed_entropy(rec, cfg, x):
        # a plain per-seed likelihood loop over re-encoded records
        from scipy.special import logsumexp

        from alphaeta.channel import apply_loss

        beta = apply_loss(cfg.constellation().amplitudes, cfg.kappa)
        logliks = []
        for seed in range(1, (1 << cfg.key_bits)):
            idx = encode(x, dataclasses.replace(cfg, seed=seed))
            logliks.append(-np.sum(np.abs(rec.samples - beta[idx]) ** 2))
        logliks = np.array(logliks)
        lp = logliks - logsumexp(logliks)
        p = np.exp(lp)
        return float(-(p[p > 0] * lp[p > 0]).sum() / math.log(2))

    @pytest.mark.parametrize("M, osk, ask", [
        pytest.param(4, True, False, id="4-True"),
        pytest.param(4, False, False, id="4-False"),
        pytest.param(2, False, False, id="2-False"),
        pytest.param(1, True, False, id="1-True"),
        pytest.param(1, False, False, id="1-False"),
        pytest.param(64, True, False, id="64-True"),
        pytest.param(4, True, True, id="ask-4-True"),
    ])
    def test_matches_per_seed_loop(self, M, osk, ask):
        # the Walsh-Hadamard fold over seed masks must agree with a plain
        # per-seed likelihood loop over re-encoded records
        ladder = dict(kind="ask", kappa=0.7, ask_S_min=1.5, ask_S_max=4.0) if ask else {}
        cfg = CipherConfig(M=M, S=0.8, key_bits=6, seed=0x21, osk=osk, **ladder)
        rng = np.random.default_rng(4)
        n = 40
        x = rng.integers(0, 2, n)
        rec = transmit(encode(x, cfg), cfg, rng)
        got = key_posterior_entropy(rec, cfg, x)
        assert got == pytest.approx(self._per_seed_entropy(rec, cfg, x), abs=1e-9)

    @pytest.mark.parametrize("taps", [0b0101, 0b0110])
    @pytest.mark.parametrize("osk", [False, True])
    def test_non_maximal_taps_match_per_seed_loop(self, taps, osk):
        # 0b0101 splits the seeds over several cycles, and 0b0110 has no x^0
        # tap: every seed still scores, through its own masks
        cfg = CipherConfig(M=4, S=0.8, key_bits=4, seed=6, lfsr_taps=taps, osk=osk)
        rng = np.random.default_rng(6)
        n = 30
        x = rng.integers(0, 2, n)
        rec = transmit(encode(x, cfg), cfg, rng)
        got = key_posterior_entropy(rec, cfg, x)
        assert got == pytest.approx(self._per_seed_entropy(rec, cfg, x), abs=1e-9)

    @pytest.mark.parametrize("key_bits, osk, limit_mb", [
        pytest.param(20, True, 64, id="True"),
        pytest.param(20, False, 64, id="False"),
        pytest.param(22, True, 128, id="22-True"),
        pytest.param(22, False, 128, id="22-False"),
    ])
    def test_full_register_fits(self, key_bits, osk, limit_mb):
        # the documented limit runs: |K| <= 22 over 682 slots stays under the
        # README's memory figures, the seed masks included
        taps = 0x200001 if key_bits == 22 else None  # x^22 + x^21 + 1
        cfg = CipherConfig(M=64, S=0.005, key_bits=key_bits, seed=0x5A5A5, osk=osk,
                           lfsr_taps=taps)
        x = np.zeros(682, dtype=np.int64)
        rec = transmit(encode(x, cfg), cfg, np.random.default_rng(5))
        tracemalloc.start()
        try:
            h = key_posterior_entropy(rec, cfg, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(h) and 0.0 <= h <= key_bits
        assert peak < limit_mb * 2**20

    def test_key_size_cap(self):
        cfg = CipherConfig(M=2, S=1.0, key_bits=24, seed=1, lfsr_taps=0xC20001)
        rec = transmit(np.zeros(4, dtype=int), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            key_posterior_entropy(rec, cfg, np.zeros(4, dtype=int))


class TestClosedFormMetrics:
    def test_collective_success_values(self):
        assert collective_success(0.5, 10) == pytest.approx(-10.0)
        assert collective_success(1.0, 7) == 0.0
        assert collective_success(0.0, 3) == -math.inf

    def test_collective_monotone_in_slots(self):
        vals = [collective_success(0.3, L) for L in (1, 2, 5, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_collective_usd_reference(self):
        log2_pd, below = collective_usd_bound(2000, 1e4, 110)
        assert below
        assert log2_pd < -300
        # the slot count floors |K| / log2 N
        assert collective_usd_bound(2000, 1e4, 110)[0] == log2_pd

    def test_collective_usd_arithmetic(self):
        # with a synthetic per-slot value of 3e-12 the ten-slot collective
        # probability lands near 2^-383
        assert 10 * math.log2(3e-12) == pytest.approx(-383, abs=1)
        assert int(110 / math.log2(2000)) == 10

    def test_collective_usd_saturated(self):
        cfg_log2, below = collective_usd_bound(2, 0.0, 8)
        assert cfg_log2 == -math.inf and below

    def test_input_validation(self):
        with pytest.raises(ValueError):
            collective_success(0.5, 0)
