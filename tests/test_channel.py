import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaeta.channel import (
    MeasurementRecord,
    apply_loss,
    bob_receive,
    heterodyne_sample,
    save_record,
    transmit,
)
from alphaeta.cipher import CipherConfig, encode
from alphaeta.constellation import overlap
from alphaeta.detection import helstrom_binary_pure, quadrature_binary


class TestApplyLoss:
    def test_identity_channel(self):
        amps = np.array([1 + 1j, -2.0, 0.5j])
        np.testing.assert_array_equal(apply_loss(amps, 1.0), amps)

    def test_quarter_transmissivity(self):
        assert apply_loss(np.array([2.0]), 0.25)[0] == pytest.approx(1.0)

    def test_out_of_range(self):
        for kappa in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                apply_loss(np.array([1.0]), kappa)

    def test_composition_exact_on_dyadic(self):
        # dyadic transmissivities have exact square roots, so composition
        # is bitwise equal to the single-step channel
        amps = np.array([1.7 - 0.3j, 2.5j])
        one = apply_loss(amps, 0.25 * 0.0625)
        two = apply_loss(apply_loss(amps, 0.25), 0.0625)
        np.testing.assert_array_equal(one, two)

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_composition_general(self, k1, k2):
        amps = np.array([1.3 + 0.4j])
        one = apply_loss(amps, k1 * k2)
        two = apply_loss(apply_loss(amps, k1), k2)
        np.testing.assert_allclose(one, two, rtol=1e-14)

    def test_overlap_after_loss(self):
        a, b = 1.2 + 0.5j, -0.8j
        kappa = 0.37
        la, lb = apply_loss(np.array([a, b]), kappa)
        assert abs(overlap(la, lb)) ** 2 == pytest.approx(
            math.exp(-kappa * abs(a - b) ** 2), rel=1e-12)


class TestHeterodyneSampling:
    def test_moments(self):
        rng = np.random.default_rng(42)
        y = heterodyne_sample(np.full(1_000_000, 3.0 + 0.0j), rng)
        assert y.real.mean() == pytest.approx(3.0, abs=0.002)
        assert y.imag.mean() == pytest.approx(0.0, abs=0.002)
        assert y.real.var() == pytest.approx(0.5, abs=0.003)
        assert y.imag.var() == pytest.approx(0.5, abs=0.003)

    def test_vacuum_is_symmetric_cloud(self):
        rng = np.random.default_rng(7)
        y = heterodyne_sample(np.zeros(200_000, dtype=complex), rng)
        assert abs(y.mean()) < 0.005
        assert np.mean(np.abs(y) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_deterministic_under_seed(self):
        a = heterodyne_sample(np.ones(100), np.random.default_rng(5))
        b = heterodyne_sample(np.ones(100), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestTransmit:
    def test_record_shape_and_metadata(self):
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21, kappa=0.5)
        idx = encode(np.zeros(64, dtype=int), cfg)
        rec = transmit(idx, cfg, np.random.default_rng(0))
        assert len(rec) == 64
        assert rec.kappa == 0.5

    def test_reproducible_across_runs(self):
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21)
        idx = encode(np.zeros(128, dtype=int), cfg)
        a = transmit(idx, cfg, np.random.default_rng(33)).samples
        b = transmit(idx, cfg, np.random.default_rng(33)).samples
        np.testing.assert_array_equal(a, b)


class TestBobReceive:
    def test_noiseless_amplitudes_decode_perfectly(self):
        for osk in (False, True):
            cfg = CipherConfig(M=8, S=4.0, key_bits=10, seed=0x2B1, osk=osk)
            x = np.random.default_rng(3).integers(0, 2, 500)
            amps = cfg.constellation().amplitudes[encode(x, cfg)]
            bits, ber = bob_receive(apply_loss(amps, cfg.kappa), cfg, plaintext=x)
            assert ber == 0.0
            np.testing.assert_array_equal(bits, x)

    def test_homodyne_ber_matches_binary_quadrature(self):
        # S = 1, kappa = 1: the keyed binary decision errs at Q(2) ~ 2.275e-2
        cfg = CipherConfig(M=16, S=1.0, key_bits=12, seed=0x5A5)
        rng = np.random.default_rng(11)
        n = 200_000
        x = rng.integers(0, 2, n)
        amps = cfg.constellation().amplitudes[encode(x, cfg)]
        _, ber = bob_receive(amps, cfg, rng=rng, plaintext=x)
        want = quadrature_binary(1.0, -1.0, "homodyne").value
        stderr = math.sqrt(want * (1 - want) / n)
        assert abs(ber - want) < 3 * stderr

    def test_never_beats_helstrom(self):
        for s in (0.25, 1.0, 2.0):
            cfg = CipherConfig(M=4, S=s, key_bits=10, seed=0x111)
            rng = np.random.default_rng(int(s * 100))
            n = 100_000
            x = rng.integers(0, 2, n)
            amps = cfg.constellation().amplitudes[encode(x, cfg)]
            _, ber = bob_receive(amps, cfg, rng=rng, plaintext=x)
            bound = helstrom_binary_pure(math.sqrt(s), -math.sqrt(s)).value
            stderr = math.sqrt(max(ber * (1 - ber), 1 / n) / n)
            assert ber >= bound - 3 * stderr

    def test_ask_thresholding(self):
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x17, kind="ask",
                           ask_S_min=4.0, ask_S_max=25.0)
        x = np.random.default_rng(9).integers(0, 2, 300)
        amps = cfg.constellation().amplitudes[encode(x, cfg)]
        bits, ber = bob_receive(amps, cfg, plaintext=x)
        assert ber == 0.0

    def test_loss_scaled_threshold(self):
        cfg = CipherConfig(M=2, S=1.0, key_bits=8, seed=0x17, kind="ask",
                           ask_S_min=9.0, ask_S_max=36.0, kappa=0.25)
        x = np.random.default_rng(9).integers(0, 2, 300)
        amps = apply_loss(cfg.constellation().amplitudes[encode(x, cfg)], cfg.kappa)
        _, ber = bob_receive(amps, cfg, plaintext=x)
        assert ber == 0.0

    def test_plaintext_length_must_match(self):
        # a 1-element plaintext would otherwise broadcast against every slot
        cfg = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x17)
        amps = cfg.constellation().amplitudes[encode(np.zeros(10, dtype=int), cfg)]
        with pytest.raises(ValueError, match="lengths differ"):
            bob_receive(amps, cfg, plaintext=[0])


class TestRecordFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = MeasurementRecord(rng.normal(size=50) + 1j * rng.normal(size=50), 0.8)
        path = tmp_path / "rec.bin"
        save_record(path, rec, seed=123)
        inter = np.fromfile(path, dtype="<f8")
        np.testing.assert_array_equal(inter[0::2] + 1j * inter[1::2], rec.samples)
        meta = json.loads((tmp_path / "rec.bin.json").read_text())
        assert meta["mode"] == "heterodyne"
        assert meta["kappa"] == rec.kappa

    def test_sidecar_metadata(self, tmp_path):
        rec = MeasurementRecord(np.array([1 + 2j]), 1.0)
        path = tmp_path / "r.bin"
        save_record(path, rec, seed=7)
        meta = json.loads((tmp_path / "r.bin.json").read_text())
        assert meta == {"mode": "heterodyne", "kappa": 1.0, "seed": 7, "length": 1}

    def test_record_validation(self):
        for kappa in (0.0, 1.5):
            with pytest.raises(ValueError):
                MeasurementRecord(np.array([1.0]), kappa)
