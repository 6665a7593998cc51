import ast
import dataclasses
import inspect
import math
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alphaeta import attacks, cipher
from alphaeta.attacks import (
    bit_hypotheses,
    collective_usd_bound,
    eve_ctoa_data,
    eve_key_symbol,
    key_posterior_entropy,
)
from alphaeta.channel import MeasurementRecord, apply_loss, received, transmit
from alphaeta.cipher import CipherConfig, encode, keystream, slots_per_period
from alphaeta.constellation import ModulationKind
from alphaeta.detection import (helstrom_binary_pure, quadrature_binary, srm_symmetric,
                                usd_symmetric)

from oracles import (
    full_slab_errors,
    hadamard_radix2,
    ladder_mixture_helstrom,
    pair_block_srm_success,
    pair_sum_map,
    ring_mixture_helstrom,
    symmetric_symbol_error_mc,
)


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
        for m, s, osk, seed, kappa in [(2, 1.0, False, 3, 1.0), (4, 4.0, False, 4, 1.0),
                                       (16, 25.0, True, 5, 1.0), (8, 10.0, False, 6, 0.25)]:
            cfg = CipherConfig(M=m, S=s, key_bits=10, seed=0x111, osk=osk, kappa=kappa)
            rng = np.random.default_rng(seed)
            x, rec = _run(cfg, 30_000, rng)
            rep = eve_ctoa_data(rec, cfg, x)
            assert rep.empirical.value >= rep.bound.value - 3 * rep.empirical.stderr

    @pytest.mark.parametrize("kappa, want", [(0.1, 0.126242), (0.5, 0.037664)])
    def test_ring_bound_reads_the_received_points(self, kappa, want):
        # the states Eve holds are the ring at energy kappa S; the launched
        # ring at S = 10 would give 0.015689, below what she can reach
        cfg = CipherConfig(M=8, S=10.0, key_bits=10, seed=0x111, kappa=kappa)
        q0, q1 = bit_hypotheses(cfg)
        truth = ring_mixture_helstrom((q1 - q0) / 2, kappa * 10.0)
        assert truth == pytest.approx(want, abs=1e-6)
        rep = eve_ctoa_data(MeasurementRecord(np.zeros(1)), cfg, [0])
        assert rep.bound.value == pytest.approx(truth, abs=1e-12)

    def test_ladder_bound_reads_the_received_points(self):
        # the launched ladder would give 0.069784
        cfg = CipherConfig(M=4, S=30.0, key_bits=10, seed=0x111, kind="ask", kappa=0.5,
                           ask_S_min=3.0)
        q0, q1 = bit_hypotheses(cfg)
        amps = math.sqrt(0.5) * np.linspace(math.sqrt(3.0), math.sqrt(30.0), 8)
        truth = ladder_mixture_helstrom(amps, (q1 - q0) / 2)
        assert truth == pytest.approx(0.101966, abs=1e-6)
        rep = eve_ctoa_data(MeasurementRecord(np.zeros(1)), cfg, [0])
        assert rep.bound.value == pytest.approx(truth, abs=1e-12)

    def test_hypothesis_ensembles_shape(self):
        # bit b is uniform on the half {k + b M}; OSK spreads both bits
        # uniformly over the whole ring
        cfg = CipherConfig(M=8, S=1.0, key_bits=8, seed=0x3C)
        half = np.repeat([1 / 8, 0.0], 8)
        np.testing.assert_array_equal(bit_hypotheses(cfg), [half, half[::-1]])
        cfg_osk = CipherConfig(M=8, S=1.0, key_bits=8, seed=0x3C, osk=True)
        np.testing.assert_array_equal(bit_hypotheses(cfg_osk), np.full((2, 16), 1 / 16))

    @pytest.mark.parametrize("attack", [
        lambda rec, cfg, x, sent: eve_ctoa_data(rec, cfg, x),
        lambda rec, cfg, x, sent: eve_key_symbol(rec, cfg, sent, x),
        lambda rec, cfg, x, sent: key_posterior_entropy(rec, cfg, x),
    ], ids=["ctoa-data", "key-symbol", "key-posterior"])
    def test_length_mismatch(self, attack):
        # one plaintext bit short of the record: the same refusal from every attack
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x55)
        x, rec = _run(cfg, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^record and plaintext lengths differ$"):
            attack(rec, cfg, x[:9], encode(x, cfg))


class TestWindowedMap:
    # At S = 0 every likelihood ties, so each decision falls to the first
    # candidate in index order.
    CASES = {
        "psk4-vacuum": dict(M=4, S=0.0),
        "psk1-low": dict(M=1, S=1.0),
        "psk1-high": dict(M=1, S=100.0),
        "psk2-low": dict(M=2, S=0.5),
        "psk2-high": dict(M=2, S=100.0),
        "psk8-low": dict(M=8, S=1.0),
        "psk8-high": dict(M=8, S=400.0),
        "psk64-low": dict(M=64, S=2.0),
        "psk64-high": dict(M=64, S=4000.0),
        "ask8-low": dict(M=8, S=4.0, kind="ask", ask_S_min=2.0),
        "ask8-high": dict(M=8, S=2000.0, kind="ask", ask_S_min=2.0),
    }

    @pytest.mark.parametrize("osk", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_slab(self, case, osk):
        cfg = CipherConfig(key_bits=12, seed=0x5A5, osk=osk, **self.CASES[case])
        rng = np.random.default_rng(cfg.M)
        x, rec = _run(cfg, 10_000, rng)  # spans three likelihood chunks
        sent = encode(x, cfg)
        reports = [eve_ctoa_data(rec, cfg, x), eve_key_symbol(rec, cfg, sent, None),
                   eve_key_symbol(rec, cfg, sent, x)]
        for rep in reports:
            want = full_slab_errors(rec, cfg, rep.attack_kind, x)
            assert rep.empirical.value == want / len(x), rep.attack_kind

    @pytest.mark.parametrize("case", ["psk8-high", "ask8-high"])
    def test_window_reaches_the_known_half(self, case):
        # a wrong plaintext puts each sample in the other half, far from
        # every point of the known one; the maximum over the known half must
        # still be found
        cfg = CipherConfig(key_bits=12, seed=0x5A5, **self.CASES[case])
        x, rec = _run(cfg, 5_000, np.random.default_rng(9))
        rep = eve_key_symbol(rec, cfg, encode(x, cfg), 1 - x)
        assert rep.empirical.value == full_slab_errors(rec, cfg, "kpa_key", 1 - x) / len(x)
        assert rep.empirical.value > 0.5

    @staticmethod
    def _ladder(M, S_min, S, kappa=1.0):
        cfg = CipherConfig(M=M, S=S, key_bits=12, seed=1, kind="ask", kappa=kappa,
                           ask_S_min=S_min)
        return apply_loss(cfg.constellation().amplitudes, kappa)

    @staticmethod
    def _whole(beta):
        """Whether the certificate's run, 2w+1 points with
        w = ceil(sqrt(step^2/4 + ln 2) / step), covers the whole ladder."""
        step = beta[1].real - beta[0].real
        return 2 * math.ceil(math.sqrt(step ** 2 / 4 + math.log(2)) / step) + 1 >= len(beta)

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "narrow"])
    def test_pair_sum_on_random_ladders(self, whole):
        # random ladders with M from 1 to 128, energies and loss; the samples
        # reach 5 beyond either end.  A short span makes a short step, whose
        # run covers the whole ladder; a long one leaves a narrow run.
        rng = np.random.default_rng(11 + whole)
        tried = 0
        for _ in range(40):
            M = 1 << int(rng.integers(0, 8))
            kappa = rng.uniform(0.1, 1.0)
            S_min = (1 + rng.uniform(0.01, 20)) / kappa
            span = rng.uniform(0.01, 2.0) if whole else rng.uniform(50, 4000)
            beta = self._ladder(M, S_min, S_min + span * M / 8, kappa)
            if self._whole(beta) != whole:
                continue
            tried += 1
            re = rng.uniform(beta[0].real - 5, beta[-1].real + 5, 1000)
            y = re + 1j * rng.normal(0, 1, len(re))
            np.testing.assert_array_equal(attacks._ladder_pair_map(y, beta), pair_sum_map(y, beta))
        assert tried >= 30

    def test_pair_sum_dense_sweep(self):
        # a short-step ladder (M = 4, amplitudes 1.5 ... 3.6, step 0.3) swept
        # from 3 before its first point to 3 past its last: here the run
        # needs the ln 2 margin, 7 of the 8 points, and 3 points around the
        # nearest decide thousands of samples wrongly
        beta = self._ladder(4, 1.5 ** 2, 3.6 ** 2)
        assert not self._whole(beta)
        y = np.linspace(beta[0].real - 3, beta[-1].real + 3, 20_001) + 0.3j
        np.testing.assert_array_equal(attacks._ladder_pair_map(y, beta), pair_sum_map(y, beta))
        # the same samples as one record, five likelihood chunks
        cfg = CipherConfig(M=4, S=3.6 ** 2, key_bits=12, seed=0x5A5, osk=True, kind="ask",
                           ask_S_min=1.5 ** 2)
        rec, x = MeasurementRecord(y), np.zeros(len(y), dtype=np.int64)
        want = full_slab_errors(rec, cfg, "kpa_key", x)
        assert eve_key_symbol(rec, cfg, encode(x, cfg), x).empirical.value == want / len(y)

    def test_pair_sum_tie_goes_to_the_lowest_symbol(self):
        # the ladder 1.5 ... 6.0 (step 0.3) is symmetric about 3.75, where
        # symbol 0 = {1.5, 3.9} and symbol 7 = {3.6, 6.0} tie exactly; a scan
        # of all M symbols takes 0, a scan in run order would take 7
        fields = dict(M=8, S=36.0, kind="ask", ask_S_min=1.5 ** 2)
        beta = self._ladder(8, 1.5 ** 2, 36.0)
        y = np.array([3.75, 3.75 + 0.5j])
        ll = -np.abs(y[:, None] - beta) ** 2
        pair = np.logaddexp(ll[:, :8], ll[:, 8:])
        assert np.all(pair[:, 0] == pair[:, 7]) and np.all(pair[:, 0] == pair.max(axis=1))
        np.testing.assert_array_equal(attacks._ladder_pair_map(y, beta), [0, 0])
        for half in (0, 1):
            got, want = TestKeySymbolDecisions._decide(fields, y, half, osk=True)
            assert got == want == [[0], [0]]


class TestCtoaDataDecisions:
    # Each sample is its own single-slot record with truth 0, so the error
    # rate is the decision; equal rates over a long record could hide
    # swapped decisions.  The MAP decision is the side of the perpendicular
    # bisector of the two hypotheses' centroids: on a PSK ring the line
    # through 0 at index steps -1/2 and M - 1/2, bit 1 beyond it; on an ASK
    # ladder Re y = (beta_0 + beta_{2M-1}) / 2 after loss, bit 1 above it.
    PSK8 = dict(M=8, S=400.0)
    ASK8 = dict(M=8, S=2000.0, kind="ask", ask_S_min=2.0)

    @staticmethod
    def _decide(fields, ys, osk=False):
        """ctoa-data's decision and the full slab's for each sample in ys."""
        cfg = CipherConfig(key_bits=12, seed=0x5A5, osk=osk, **fields)
        got, want = [], []
        for y in ys:
            rec = MeasurementRecord(np.array([y]))
            got.append(eve_ctoa_data(rec, cfg, [0]).empirical.value)
            want.append(full_slab_errors(rec, cfg, "ctoa_data", [0]))
        return got, want

    @staticmethod
    def _ring(fields, steps):
        """Samples on the ring at the given angles, in units of its step."""
        r = math.sqrt(fields["S"])
        return r * np.exp(1j * np.pi / fields["M"] * np.asarray(steps))

    @staticmethod
    def _on_ring_side(got, M, steps):
        """Whether each decision is the bit on whose side of the bisector its
        ring angle lies; a sample on the bisector, whose decision rests on
        rounding, passes either way."""
        pos = (np.asarray(steps) + 0.5) % (2 * M)
        on = np.isclose(pos % M, 0, atol=1e-9) | np.isclose(pos % M, M, atol=1e-9)
        return all(o or g == (p >= M) for g, o, p in zip(got, on, pos))

    @staticmethod
    def _midpoint(fields):
        """The ladder's midpoint and step after loss."""
        cfg = CipherConfig(key_bits=12, seed=0x5A5, **fields)
        beta = cfg.constellation().amplitudes.real * math.sqrt(cfg.kappa)
        return (beta[0] + beta[-1]) / 2, beta[1] - beta[0]

    def test_psk_runs_wrapping_past_zero_and_2m(self):
        # a run of samples across index 0, from step -2.4 to 1.4: it
        # crosses the bisector at step -1/2
        fields = self.PSK8
        steps = np.linspace(-2.4, 1.4, 39)
        got, want = self._decide(fields, self._ring(fields, steps))
        assert got == want and self._on_ring_side(got, 8, steps)
        assert set(got) == {0.0, 1.0}

    def test_psk_runs_straddling_the_half_boundary(self):
        # a run of samples from step M-2.4 to M+1.4: it crosses the bisector
        # at step M - 1/2, between the halves
        fields = self.PSK8
        steps = fields["M"] + np.linspace(-2.4, 1.4, 39)
        got, want = self._decide(fields, self._ring(fields, steps))
        assert got == want and self._on_ring_side(got, 8, steps)
        assert set(got) == {0.0, 1.0}

    def test_ask_runs_clamped_at_either_end(self):
        # samples running beyond both ends of the ladder and across its middle
        fields = self.ASK8
        mid, _ = self._midpoint(fields)
        beta = CipherConfig(key_bits=12, seed=0x5A5, **fields).constellation().amplitudes.real
        xs = np.linspace(beta[0] - 10, beta[-1] + 10, 61)
        got, want = self._decide(fields, xs + 0.3j)
        assert got == want == list((xs > mid).astype(float))
        assert set(got) == {0.0, 1.0}

    @pytest.mark.parametrize("fields", [dict(M=1, S=1.0), dict(M=2, S=0.5), PSK8],
                             ids=["psk1", "psk2", "psk8"])
    def test_psk_either_side_of_both_bisectors(self, fields):
        # the whole ring at three radii, and 0.01 step either side of both
        # bisector directions
        M = fields["M"]
        steps = np.concatenate([np.linspace(0.05, 2 * M + 0.05, 53),
                                [-0.51, -0.49, M - 0.51, M - 0.49]])
        ys = np.concatenate([self._ring(fields, steps) * r for r in (0.5, 1, 2)])
        got, want = self._decide(fields, ys)
        assert got == want and self._on_ring_side(got, M, np.tile(steps, 3))
        assert set(got) == {0.0, 1.0}

    @pytest.mark.parametrize("fields", [
        dict(M=4, S=200.0, kind="ask", ask_S_min=2.0),
        dict(M=8, S=400.0, kind="ask", ask_S_min=4.0, kappa=0.5),
    ], ids=["ask4", "ask8-lossy"])
    def test_ask_either_side_of_the_midpoint(self, fields):
        # across the whole ladder, and 0.01 step either side of its midpoint,
        # which loss moves
        mid, step = self._midpoint(fields)
        xs = np.concatenate([np.linspace(-5.0, 25.0, 51), mid + np.array([-0.01, 0.01]) * step])
        got, want = self._decide(fields, xs + 0.1j)
        assert got == want == list((xs > mid).astype(float))
        assert set(got) == {0.0, 1.0}

    def test_osk_rows_all_tie(self):
        # both hypotheses are the whole constellation: equal centroids, so
        # every slot is a tie, decided 0
        for fields in (dict(M=1, S=1.0), dict(M=2, S=0.5), self.PSK8, dict(M=512, S=4000.0)):
            steps = np.linspace(0, 4 * fields["M"], 97)
            got, want = self._decide(fields, self._ring(fields, steps), osk=True)
            assert got == want == [0] * 97
        mid, _ = self._midpoint(self.ASK8)
        got, want = self._decide(self.ASK8, np.linspace(mid - 30, mid + 30, 61) + 0.3j, osk=True)
        assert got == want == [0] * 61

    @pytest.mark.parametrize("osk", [False, True])
    def test_vacuum_ties(self, osk):
        # at S = 0 every point is 0 and every slot ties, decided 0
        fields = dict(M=4, S=0.0)
        ys = self._ring(dict(M=4, S=1.0), np.linspace(0, 8, 25)) * np.linspace(0.1, 3, 25)
        got, want = self._decide(fields, ys, osk)
        assert got == want == [0] * 25


class TestScoredRows:
    # the README config (M=512, S=4000, |K|=16) over 2e4 bits: five chunks
    README = dict(M=512, S=4000.0, key_bits=16, seed=44257)

    @staticmethod
    def _spy(monkeypatch):
        """Record the samples of each _ladder_pair_map call."""
        calls = []
        pair_map = attacks._ladder_pair_map

        def spy_pair_map(y, beta):
            calls.append(y)
            return pair_map(y, beta)

        monkeypatch.setattr(attacks, "_ladder_pair_map", spy_pair_map)
        return calls

    @pytest.mark.parametrize("osk", [False, True], ids=["plain", "osk"])
    def test_ctoa_data_reads_no_window(self, monkeypatch, osk):
        # the decision is the nearer centroid, read from each sample alone,
        # on a ring and on a ladder
        cfg = CipherConfig(osk=osk, **self.README)
        x, rec = _run(cfg, 20_000, np.random.default_rng(7))
        calls = self._spy(monkeypatch)
        eve_ctoa_data(rec, cfg, x)
        ask = CipherConfig(key_bits=12, seed=0x5A5, osk=osk, **TestKeySymbolDecisions.ASK8)
        x, rec = _run(ask, 20_000, np.random.default_rng(7))
        eve_ctoa_data(rec, ask, x)
        assert calls == []

    def test_max_rules_score_nothing(self, monkeypatch):
        cfg = CipherConfig(**self.README)
        x, rec = _run(cfg, 20_000, np.random.default_rng(7))
        sent = encode(x, cfg)
        calls = self._spy(monkeypatch)
        eve_key_symbol(rec, cfg, sent, None)
        eve_key_symbol(rec, cfg, sent, x)
        # kpa under OSK on a ring: each symbol's pair is antipodal, so its
        # pair sum is largest at the nearest point too
        eve_key_symbol(rec, dataclasses.replace(cfg, osk=True), sent, x)
        assert calls == []
        # on a ladder the pair is a shift, and the pair sum goes through the
        # window, once per chunk, ciphertext-only and under OSK
        ask = CipherConfig(key_bits=12, seed=0x5A5, osk=True, **TestKeySymbolDecisions.ASK8)
        x, rec = _run(ask, 20_000, np.random.default_rng(7))
        eve_key_symbol(rec, ask, encode(x, ask), x)
        assert len(calls) == 5
        eve_key_symbol(rec, ask, encode(x, ask), None)
        eve_key_symbol(rec, dataclasses.replace(ask, osk=False), encode(x, ask), None)
        assert len(calls) == 15


class TestKeySymbolDecisions:
    # The key attacks on single-slot records: the max rules (ctoa-key; kpa
    # without OSK) and kpa under OSK.  A slot's decision is read as the one
    # symbol it does not err on: the record is scored once per symbol j,
    # by the attack against the sent index j and by the full slab under a
    # seed whose first running-key symbol is j.
    PSK8 = dict(M=8, S=400.0)
    ASK8 = dict(M=8, S=2000.0, kind="ask", ask_S_min=2.0)

    @staticmethod
    def _decide(fields, ys, half=None, osk=False):
        """eve_key_symbol's decisions and the full slab's for the samples ys,
        ciphertext-only or with the known bit ``half``."""
        base = CipherConfig(key_bits=12, seed=1, osk=osk, **fields)
        by_symbol = {}
        for seed in range(1, 1 << 12):
            cfg = dataclasses.replace(base, seed=seed)
            by_symbol.setdefault(int(keystream(cfg, 1)[0] % cfg.M), cfg)
            if len(by_symbol) == base.M:
                break
        x = None if half is None else [half]
        kind = "ctoa_key" if half is None else "kpa_key"
        got, want = [], []
        for y in ys:
            rec = MeasurementRecord(np.array([y]))
            got.append([j for j, cfg in sorted(by_symbol.items())
                        if eve_key_symbol(rec, cfg, [j], x).empirical.value == 0.0])
            want.append([j for j, cfg in sorted(by_symbol.items())
                         if full_slab_errors(rec, cfg, kind, x or [0]) == 0])
        return got, want

    @pytest.mark.parametrize("half", [None, 0, 1])
    def test_psk_swept_around_the_ring(self, half):
        # every direction, at three radii; the samples of the other half
        # reach both ends of the known one, and the antipode of its middle
        # (index 11.5 for half 0, 3.5 for half 1; 15.5 for the whole ring)
        # splits them
        fields = self.PSK8
        steps = np.concatenate([np.arange(0.1, 16, 0.25), [3.49, 3.51, 11.49, 11.51, 15.49, 15.51]])
        ys = np.concatenate([TestCtoaDataDecisions._ring(fields, steps) * r for r in (0.5, 1, 2)])
        got, want = self._decide(fields, ys, half)
        assert got == want
        assert all(len(g) == 1 for g in got) and {g[0] for g in got} == set(range(8))
        if half is not None:
            other = np.floor(steps % 16 / 8) != half
            outside = [g[0] for g, o in zip(got, np.tile(other, 3)) if o]
            assert set(outside) == {0, 7}

    @pytest.mark.parametrize("half", [None, 0, 1])
    def test_ask_beyond_both_ends_and_across_the_halves(self, half):
        fields = self.ASK8
        beta = CipherConfig(key_bits=12, seed=1, **fields).constellation().amplitudes.real
        got, want = self._decide(fields, np.linspace(beta[0] - 10, beta[-1] + 10, 61) + 0.3j, half)
        assert got == want
        assert all(len(g) == 1 for g in got) and {g[0] for g in got} == set(range(8))

    @pytest.mark.parametrize("half", [None, 0, 1])
    def test_ask_exact_midpoints_take_the_lower_point(self, half):
        # the ladder 2, 3, ..., 9 and every midpoint between its points, all
        # exact in floats: in a known half each midpoint ties, and a full
        # scan takes the lower point where rounding half to even would take
        # every other upper one.  Ciphertext-only, each symbol is a pair, and
        # the symbol whose partner is nearer wins; only at the centre 5.5 do
        # the symbols 3 = {5, 9} and 0 = {2, 6} tie exactly, and a scan of
        # all M symbols takes the lowest
        fields = dict(M=4, S=81.0, kind="ask", ask_S_min=4.0)
        beta = CipherConfig(key_bits=12, seed=1, **fields).constellation().amplitudes
        assert np.array_equal(beta, np.arange(2.0, 10.0))
        got, want = self._decide(fields, np.arange(2.5, 9.0), half)
        assert got == want
        if half is None:
            assert got == [[0], [1], [2], [0], [1], [2], [3]]

    @pytest.mark.parametrize("half", [None, 0, 1])
    def test_vacuum_takes_the_first_candidate(self, half):
        # at S = 0 every point ties and a full scan takes the run's first
        fields = dict(M=4, S=0.0)
        got, want = self._decide(fields, np.exp(1j * np.linspace(0.1, 6.2, 25)), half)
        assert got == want == [[0]] * 25

    @pytest.mark.parametrize("half", [None, 0, 1])
    def test_single_symbol(self, half):
        fields = dict(M=1, S=4.0)
        got, want = self._decide(fields, TestCtoaDataDecisions._ring(fields, np.arange(0.1, 2, 0.2)),
                                 half)
        assert got == want == [[0]] * 10

    @pytest.mark.parametrize("half", [0, 1])
    def test_osk_psk_reads_the_nearest_point(self, half):
        # under OSK the known bit does not fix the pair's polarity; on a ring
        # the pair is antipodal, so the pair sum picks the symbol of the
        # nearest of all 2M points, whatever the bit: every direction at
        # three radii, and 0.01 step either side of each of the 2M
        # boundaries, which sit half a step past each point
        fields = self.PSK8
        boundaries = np.arange(16) + 0.5
        steps = np.concatenate([np.arange(0.1, 16, 0.25), boundaries - 0.01, boundaries + 0.01])
        ys = np.concatenate([TestCtoaDataDecisions._ring(fields, steps) * r for r in (0.5, 1, 2)])
        got, want = self._decide(fields, ys, half, osk=True)
        assert got == want
        nearest = np.floor(steps + 0.5) % 16 % 8
        assert got == [[int(j)] for j in np.tile(nearest, 3)]

    @pytest.mark.parametrize("half", [0, 1])
    @pytest.mark.parametrize("fields", [dict(M=4, S=0.0), dict(M=1, S=4.0)],
                             ids=["vacuum", "single"])
    def test_osk_psk_takes_the_first_candidate(self, fields, half):
        # at S = 0 every symbol ties and a full scan takes the first; at
        # M = 1 there is one symbol
        ys = TestCtoaDataDecisions._ring(dict(fields, S=1.0), np.arange(0.1, 2 * fields["M"], 0.3))
        got, want = self._decide(fields, ys, half, osk=True)
        assert got == want == [[0]] * len(ys)

    def test_osk_ask_sums_each_pair(self):
        # on a ladder the pair {k, k + M} is a shift by M steps, not a
        # reflection, so its pair sum is not the nearest point's symbol: on
        # this dense ladder the partner tips some decisions, under OSK and
        # ciphertext-only alike
        fields = dict(M=4, S=20.0, kind="ask", ask_S_min=2.0)
        beta = CipherConfig(key_bits=12, seed=1, **fields).constellation().amplitudes.real
        xs = np.linspace(beta[0] - 2, beta[-1] + 2, 61)
        nearest = np.argmin(np.abs(xs[:, None] - beta), axis=1) % 4
        for half, osk in ((0, True), (None, False)):
            got, want = self._decide(fields, xs + 0.3j, half, osk=osk)
            assert got == want
            assert all(len(g) == 1 for g in got)
            assert any(g[0] != j for g, j in zip(got, nearest))


class TestKeySymbolAttacks:
    def test_sparse_ring_is_easy(self):
        # M = 2, S = 1e4: two candidate states 200 apart; errors vanish
        cfg = CipherConfig(M=2, S=1e4, key_bits=10, seed=0x155)
        rng = np.random.default_rng(2)
        x = np.zeros(5_000, dtype=np.int64)
        _, rec = _run(cfg, 5_000, rng, plaintext=x)
        rep = eve_key_symbol(rec, cfg, encode(x, cfg), x)
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
        # knowing the plaintext halves the candidate set per slot.  The
        # ciphertext-only bound is the optimum for the M antipodal pairs;
        # the known half's is the Helstrom error of two adjacent points
        cfg = CipherConfig(M=8, S=4.0, key_bits=10, seed=0x2BD)
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 40_000)
        sent = encode(x, cfg)
        rec = transmit(sent, cfg, rng)
        kpa = eve_key_symbol(rec, cfg, sent, x)
        ctoa = eve_key_symbol(rec, cfg, sent, None)
        assert kpa.attack_kind == "kpa_key" and ctoa.attack_kind == "ctoa_key"
        assert kpa.empirical.value <= ctoa.empirical.value + 3 * ctoa.empirical.stderr
        beta = received(cfg).amplitudes
        assert kpa.bound.method == "adjacent_pair"
        assert kpa.bound.value == helstrom_binary_pure(beta[0], beta[1]).value
        assert ctoa.bound.method == "pair_spectrum"
        assert ctoa.bound.success == pytest.approx(pair_block_srm_success(8, 4.0), rel=0, abs=1e-13)

    def test_osk_marginalization_still_finds_symbols(self):
        cfg = CipherConfig(M=4, S=100.0, key_bits=10, seed=0x19F, osk=True)
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, 5_000)
        sent = encode(x, cfg)
        rec = transmit(sent, cfg, rng)
        rep = eve_key_symbol(rec, cfg, sent, x)
        assert rep.empirical.value < 0.01  # far-separated states

    @pytest.mark.parametrize("osk", [False, True])
    def test_single_symbol_kpa_cannot_err(self, osk):
        # M = 1 leaves one candidate symbol, with the plaintext known or not
        cfg = CipherConfig(M=1, S=4.0, key_bits=8, seed=0x55, osk=osk)
        x, rec = _run(cfg, 1_000, np.random.default_rng(7))
        for plaintext in (x, None):
            rep = eve_key_symbol(rec, cfg, encode(x, cfg), plaintext)
            assert rep.empirical.value == 0.0
            assert rep.bound.value == 0.0 and rep.bound.method == "single_state"

    # PSK and ASK, with and without loss; ask4-dense is the M=4 ladder of
    # energies 1.5 ... 12, where the pair sum and the nearest point decide
    # apart (ciphertext-only errors 0.6597 and 0.6765 over 2e5 slots)
    KEY_CASES = {
        "psk2": dict(M=2, S=1.0),
        "psk16": dict(M=16, S=25.0),
        "psk8-lossy": dict(M=8, S=10.0, kappa=0.25),
        "ask4-dense": dict(M=4, S=12.0, kind="ask", ask_S_min=1.5),
        "ask8-lossy": dict(M=8, S=2000.0, kind="ask", ask_S_min=3.0, kappa=0.5),
    }

    @pytest.mark.parametrize("osk", [False, True])
    @pytest.mark.parametrize("case", sorted(KEY_CASES))
    def test_empirical_never_beats_bound(self, case, osk):
        cfg = CipherConfig(key_bits=10, seed=0x111, osk=osk, **self.KEY_CASES[case])
        x, rec = _run(cfg, 30_000, np.random.default_rng(cfg.M))
        sent = encode(x, cfg)
        for plaintext in (None, x):
            rep = eve_key_symbol(rec, cfg, sent, plaintext)
            assert rep.empirical.value >= rep.bound.value - 3 * rep.empirical.stderr

    @pytest.mark.parametrize("case", ["psk8-lossy", "ask4-dense"])
    def test_kpa_under_osk_is_ciphertext_only(self, case):
        # under OSK the known bit leaves the polarity unknown, so both
        # attacks face the pairs {k, k + M}: one decision, one bound
        cfg = CipherConfig(key_bits=10, seed=0x111, osk=True, **self.KEY_CASES[case])
        x, rec = _run(cfg, 20_000, np.random.default_rng(8))
        sent = encode(x, cfg)
        ctoa, kpa = eve_key_symbol(rec, cfg, sent, None), eve_key_symbol(rec, cfg, sent, x)
        assert (ctoa.attack_kind, kpa.attack_kind) == ("ctoa_key", "kpa_key")
        assert dataclasses.replace(kpa, attack_kind="ctoa_key") == ctoa

    @pytest.mark.parametrize("case", sorted(KEY_CASES))
    def test_bounds_read_the_received_points(self, case):
        # the pairs of a ring take the pair optimum at the received energy;
        # the known half and both ladder ensembles, two adjacent points
        cfg = CipherConfig(key_bits=10, seed=0x111, **self.KEY_CASES[case])
        ring = cfg.kind is ModulationKind.PSK
        pairs = pair_block_srm_success(cfg.M, cfg.kappa * cfg.S) if ring else None
        beta = received(cfg).amplitudes
        adjacent = helstrom_binary_pure(beta[0], beta[1]).value
        rec, x = MeasurementRecord(beta[:1]), np.zeros(1, dtype=np.int64)
        for osk in (False, True):
            for plaintext in (None, x):
                bound = eve_key_symbol(rec, dataclasses.replace(cfg, osk=osk), [0], plaintext).bound
                if ring and (osk or plaintext is None):
                    assert bound.method == "pair_spectrum"
                    assert bound.success == pytest.approx(pairs, rel=0, abs=1e-12)
                else:
                    assert bound.method == "adjacent_pair" and bound.value == adjacent

    def test_sent_indices_checked(self):
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        x, rec = _run(cfg, 10, np.random.default_rng(1))
        sent = encode(x, cfg)
        for truth, match in ((sent[:9], "lengths differ"), (sent + 8, "out of range"),
                             (sent + 0.5, "integers")):
            with pytest.raises(ValueError, match=match):
                eve_key_symbol(rec, cfg, truth, x)


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
            sub = type(rec)(rec.samples[:length])
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

    LADDER = dict(kind="ask", kappa=0.7, S=4.0, ask_S_min=1.5)

    @pytest.mark.parametrize("M, osk, fields", [
        pytest.param(4, True, {}, id="4-True"),
        pytest.param(4, False, {}, id="4-False"),
        pytest.param(2, False, {}, id="2-False"),
        pytest.param(1, True, {}, id="1-True"),
        pytest.param(1, False, {}, id="1-False"),
        pytest.param(64, True, {}, id="64-True"),
        # a ladder's points differ in energy, so only the ask cases read the
        # -|b|^2 table at characters u != 0
        pytest.param(4, True, LADDER, id="ask-4-True"),
        pytest.param(4, False, LADDER, id="ask-4-False"),
        # S_min must exceed 1 / kappa
        pytest.param(8, True, dict(LADDER, kappa=0.5, ask_S_min=2.5), id="ask-8-True"),
        pytest.param(8, True, dict(kappa=0.6), id="8-True-lossy"),
        pytest.param(8, False, dict(kappa=0.6), id="8-False-lossy"),
        # a block of _CHUNK slots that all carry one bit, then a mixed block
        # of 37: both bits' rows and a short last block in one record; S is
        # low enough that the posterior stays spread
        pytest.param(4, True, dict(S=0.001, slots=attacks._CHUNK + 37), id="blocks-4-True"),
        pytest.param(4, False, dict(S=0.001, slots=attacks._CHUNK + 37), id="blocks-4-False"),
        pytest.param(4, True, dict(S=0.001, slots=attacks._CHUNK + 37, fill=1), id="blocks-4-True-ones"),
        # 2^12 key indices per slot: blocks of 2^22 / 2^12 = 1024 slots
        pytest.param(2048, True, dict(slots=1024 + 37), id="blocks-2048-True"),
    ])
    def test_matches_per_seed_loop(self, M, osk, fields):
        # the Walsh-Hadamard fold over seed masks must agree with a plain
        # per-seed likelihood loop over re-encoded records
        fields = dict(S=0.8, slots=40, fill=0) | fields
        n, fill = fields.pop("slots"), fields.pop("fill")
        cfg = CipherConfig(M=M, key_bits=6, seed=0x21, osk=osk, **fields)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, n)
        x[:n // attacks._CHUNK * attacks._CHUNK] = fill  # every full block one bit
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

    def test_block_memory_does_not_grow_with_M(self):
        # the blocks hold at most 2^22 (slot, key index) entries whatever M;
        # only the 2^zbits constellation characters and the per-bit masks
        # grow, by some 0.3 MiB from M=512 to M=2048, where 4096-slot blocks
        # would peak at 257 MiB
        peaks = {}
        for M in (512, 2048):
            cfg = CipherConfig(M=M, S=0.5, key_bits=10, seed=0x2A5, osk=True)
            x, rec = _run(cfg, 4096, np.random.default_rng(9))
            tracemalloc.start()
            try:
                key_posterior_entropy(rec, cfg, x)
                peaks[M] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] <= peaks[512] + 2**20

    def test_slot_table_size_cap(self):
        # under OSK, M = 2^22 gives each slot 2^23 key indices: one slot
        # would not fit a block
        cfg = CipherConfig(M=1 << 22, S=1.0, key_bits=12, seed=1, osk=True)
        rec = MeasurementRecord(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match=r"2\^22 key indices per slot"):
            key_posterior_entropy(rec, cfg, np.zeros(4, dtype=int))

    @pytest.mark.parametrize("osk", [False, True])
    def test_walsh_transforms_only_the_tables_and_the_seed_space(self, osk, monkeypatch):
        # the slots' characters come from the constellation's tables, so the
        # only transforms are of those six rows and of the one 2^|K| table
        shapes = []

        def spy(a):
            shapes.append(a.shape)
            return hadamard(a)

        hadamard = attacks._hadamard
        monkeypatch.setattr(attacks, "_hadamard", spy)
        cfg = CipherConfig(M=64, S=0.5, key_bits=10, seed=0x2A5, osk=osk)
        x, rec = _run(cfg, 300, np.random.default_rng(8))
        key_posterior_entropy(rec, cfg, x)
        assert shapes == [(3, 2, 64 << osk), (1 << 10,)]

    def test_key_size_cap(self):
        cfg = CipherConfig(M=2, S=1.0, key_bits=24, seed=1, lfsr_taps=0xC20001)
        rec = transmit(np.zeros(4, dtype=int), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            key_posterior_entropy(rec, cfg, np.zeros(4, dtype=int))


def _kpa_on_symbol_zero(rec, cfg, x):
    """The known-plaintext key attack, scored against symbol 0 in every slot."""
    return eve_key_symbol(rec, cfg, np.zeros(len(rec), dtype=np.int64), x)


class TestPlaintextBits:
    ATTACKS = pytest.mark.parametrize("attack", [eve_ctoa_data, _kpa_on_symbol_zero, key_posterior_entropy],
                                      ids=["ctoa-data", "kpa", "posterior"])

    @ATTACKS
    @pytest.mark.parametrize("offset", [2, -1])
    def test_nonbit_plaintext_rejected(self, attack, offset):
        # x + 2 used to be read mod 2M, and 2 * ones scored as all errors
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        x, rec = _run(cfg, 50, np.random.default_rng(9))
        with pytest.raises(ValueError, match="plaintext must be bits"):
            attack(rec, cfg, x + offset)

    @ATTACKS
    def test_fractional_plaintext_rejected(self, attack):
        # x + 0.7 used to be truncated to x
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
        x, rec = _run(cfg, 50, np.random.default_rng(9))
        with pytest.raises(ValueError, match="plaintext must be integers"):
            attack(rec, cfg, x + 0.7)


class TestEmptyRecord:
    CFG = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x10)
    EMPTY = MeasurementRecord(np.zeros(0))

    def test_attacks_refuse_it(self):
        none = np.zeros(0, dtype=np.int64)
        for attack in (lambda: eve_ctoa_data(self.EMPTY, self.CFG, none),
                       lambda: eve_key_symbol(self.EMPTY, self.CFG, none, None),
                       lambda: eve_key_symbol(self.EMPTY, self.CFG, none, none)):
            with pytest.raises(ValueError, match="no slots"):
                attack()

    def test_posterior_is_the_prior(self):
        # no slot, no evidence: every nonzero seed is equally likely
        h = key_posterior_entropy(self.EMPTY, self.CFG, np.zeros(0, dtype=np.int64))
        assert h == pytest.approx(math.log2(2 ** 8 - 1), abs=1e-12)


class TestEveReadsNoSecret:
    # Eve's reports are scored against the sent indices, so two configs that
    # differ only in the secret seed give the same report on the same record
    CONFIGS = {
        "psk": dict(M=8, S=10.0),
        "ask": dict(M=8, S=2000.0, kind="ask", ask_S_min=3.0, kappa=0.5),
    }

    @pytest.mark.parametrize("osk", [False, True])
    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_reports_ignore_the_seed(self, case, osk):
        cfg = CipherConfig(key_bits=12, seed=0x5A5, osk=osk, **self.CONFIGS[case])
        other = dataclasses.replace(cfg, seed=0x123)
        x, rec = _run(cfg, 2_000, np.random.default_rng(3))
        sent = encode(x, cfg)
        for run in (lambda c: eve_ctoa_data(rec, c, x),
                    lambda c: eve_key_symbol(rec, c, sent, None),
                    lambda c: eve_key_symbol(rec, c, sent, x)):
            assert run(cfg) == run(other)

    def test_attacks_module_never_reads_the_key(self):
        tree = ast.parse(Path(attacks.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "keystream" not in imported
        # the key index's layout is cipher's (_index_masks): no stream or mask builder here
        assert not imported & {"_lfsr_extend", "lfsr_stream", "_seed_masks"}
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "seed"]


class TestPosteriorCallsNoBlas:
    """The key posterior makes no BLAS call: no ``@`` and no call to ``dot``,
    ``matmul``, ``einsum``, ``tensordot`` or anything in ``np.linalg``, in
    ``_hadamard``, ``key_posterior_entropy`` or the helpers it calls.  After
    the host sits idle, the first threaded BLAS call in a process costs about
    1 s instead of 0.09 s, and that spike would land on the posterior's
    timings; its sums are plain ufunc and bincount passes."""

    BLAS = {"dot", "matmul", "einsum", "tensordot", "linalg"}

    MODULES = {"_hadamard": attacks, "key_posterior_entropy": attacks,
               "_index_masks": cipher, "_seed_masks": cipher}

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_no_blas(self, name):
        source = inspect.getsource(getattr(self.MODULES[name], name))
        tree = ast.parse(textwrap.dedent(source))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
        named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not named & self.BLAS


class TestHadamard:
    @pytest.mark.parametrize("bits", range(13))
    def test_matches_sylvester_matrix(self, bits):
        # H_{2n} = [[H, H], [H, -H]]; small integer entries keep both sides exact
        H = np.ones((1, 1), dtype=np.float32)
        for _ in range(bits):
            H = np.kron(H, np.array([[1, 1], [1, -1]], dtype=np.float32))
        rng = np.random.default_rng(bits)
        for shape in [(1 << bits,), (1, 1 << bits), (3, 1 << bits), (682, 1 << bits)]:
            a = rng.integers(-4, 5, shape).astype(np.float32)
            want = (a @ H).astype(float)
            np.testing.assert_array_equal(attacks._hadamard(a.astype(float)), want)

    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (8,), (1 << 16,), (3, 2, 64),
                                       (682, 128), (5, 4), (3, 1 << 12)])
    def test_in_place_and_bitwise_equal_to_radix2_loop(self, shape):
        a = np.random.default_rng(0).standard_normal(shape)
        want = hadamard_radix2(a)
        assert attacks._hadamard(a) is a
        assert np.array_equal(a, want)


class TestClosedFormMetrics:
    def test_collective_success_values(self):
        # two states at S: the per-slot success is 1 - e^{-2S}, so at
        # S = ln 2 / 2 it is 1/2, and one bit per slot gives L = |K| slots
        assert collective_usd_bound(2, math.log(2) / 2, 10)[0] == pytest.approx(-10.0)
        log2_pd, below = collective_usd_bound(2, 1e4, 7)
        assert log2_pd == pytest.approx(0.0, abs=1e-12) and not below
        assert collective_usd_bound(4, 1.0, 10)[0] == 5 * math.log2(usd_symmetric(4, 1.0).value)

    def test_collective_monotone_in_slots(self):
        vals = [collective_usd_bound(2, 0.2, L)[0] for L in (1, 2, 5, 10)]
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
            collective_usd_bound(1, 1.0, 8)
        with pytest.raises(ValueError):
            collective_usd_bound(4, -1.0, 8)
