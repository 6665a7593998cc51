import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import alphaeta
from alphaeta.channel import (
    _NOISE_BLOCK,
    MeasurementRecord,
    _add_normal,
    apply_loss,
    bob_receive,
    received,
    save_record,
    transmit,
)
from alphaeta.cipher import CipherConfig, encode
from alphaeta.constellation import COHERENT_SIGMA, HETERODYNE_SIGMA, gram_matrix, make_ask
from alphaeta.detection import helstrom_binary_pure, quadrature_binary

from oracles import bob_nearest_bits, heterodyne_sample_sum

# record lengths on either side of the noise blocks' boundaries
BLOCK_EDGES = [0, 1, _NOISE_BLOCK - 1, _NOISE_BLOCK, _NOISE_BLOCK + 1, 3 * _NOISE_BLOCK + 5]


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
        lost = apply_loss(np.array([a, b]), kappa)
        assert abs(gram_matrix(lost)[0, 1]) ** 2 == pytest.approx(
            math.exp(-kappa * abs(a - b) ** 2), rel=1e-12)


class TestHeterodyneSampling:
    """``transmit`` is the one heterodyne tap: each outcome is its received
    point plus complex noise of variance 1/2 per quadrature."""

    # one point of mean 3 (M=1: the ring {3, -3}) and the vacuum (S=0)
    THREE = CipherConfig(M=1, S=9.0, key_bits=4, seed=1)
    VACUUM = CipherConfig(M=1, S=0.0, key_bits=4, seed=1)

    def test_moments(self):
        rng = np.random.default_rng(42)
        y = transmit(np.zeros(1_000_000, dtype=np.int64), self.THREE, rng).samples
        assert y.real.mean() == pytest.approx(3.0, abs=0.002)
        assert y.imag.mean() == pytest.approx(0.0, abs=0.002)
        assert y.real.var() == pytest.approx(0.5, abs=0.003)
        assert y.imag.var() == pytest.approx(0.5, abs=0.003)

    def test_vacuum_is_symmetric_cloud(self):
        rng = np.random.default_rng(7)
        y = transmit(np.zeros(200_000, dtype=np.int64), self.VACUUM, rng).samples
        assert abs(y.mean()) < 0.005
        assert np.mean(np.abs(y) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_deterministic_under_seed(self):
        idx = np.zeros(100, dtype=np.int64)
        a = transmit(idx, self.THREE, np.random.default_rng(5)).samples
        b = transmit(idx, self.THREE, np.random.default_rng(5)).samples
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("shape", [(n,) for n in BLOCK_EDGES])
    def test_bitwise_equal_to_one_expression(self, shape, complex_input):
        # records, reports and claim 7b depend on these exact draws, across
        # the tap's block boundaries; a ladder's points are real, a ring's complex
        fields = (dict(M=4, S=2.0, kappa=0.5) if complex_input
                  else dict(M=4, S=16.0, kind="ask", ask_S_min=2.5))
        cfg = CipherConfig(key_bits=8, seed=0x21, **fields)
        idx = np.random.default_rng(3).integers(0, 2 * cfg.M, size=shape)
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = transmit(idx, cfg, rng).samples
        want = heterodyne_sample_sum(received(cfg).amplitudes[idx], oracle_rng)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("bad", [np.int64(3), 3, [[0, 1], [2, 3]]], ids=["0-d", "int", "2-d"])
    def test_non_1d_indices_refused_before_any_draw(self, bad):
        # one sample per slot: a scalar or a matrix of indices is refused by
        # the record's rule, and the caller's generator is left where it was
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="one-dimensional"):
            transmit(bad, cfg, rng)
        assert rng.bit_generator.state == before

    def test_memory_is_the_output_plus_one_block(self):
        # the sent points are gathered into the record and the noise is added
        # there a block at a time: no second record-length array
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21)
        idx = np.random.default_rng(0).integers(0, 8, size=400_000)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            rec = transmit(idx, cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rec.samples.nbytes + 2**20


class TestAddNormal:
    @pytest.mark.parametrize("sigma", [COHERENT_SIGMA, HETERODYNE_SIGMA],
                             ids=["homodyne", "heterodyne"])
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_blocks_equal_one_normal_call(self, n, sigma):
        base = np.random.default_rng(3).normal(size=n)
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = base.copy()
        _add_normal(got, sigma, rng)
        want = base + oracle_rng.normal(0.0, sigma, size=n)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _callers(attribute: str | None = None, name: str | None = None) -> set[tuple[str, str]]:
    """(module, innermost enclosing function or "<module>") of every call in
    ``src/alphaeta`` to ``<anything>.<attribute>(...)`` or ``<name>(...)``."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == attribute
                    or isinstance(f, ast.Name) and f.id == name):
                found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(alphaeta.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return found


class TestOneNoiseSource:
    """Every Gaussian draw of the package goes through ``_add_normal``, and
    only the two receivers call it: the tap (``transmit``) and Bob."""

    def test_only_add_normal_draws_normals(self):
        assert _callers(attribute="normal") == {("channel", "_add_normal")}
        assert _callers(attribute="standard_normal") == set()

    def test_only_the_receivers_add_noise(self):
        assert _callers(name="_add_normal") == {("channel", "transmit"),
                                                ("channel", "bob_receive")}


class TestTransmit:
    def test_record_shape_and_metadata(self):
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21, kappa=0.5)
        idx = encode(np.zeros(64, dtype=int), cfg)
        rec = transmit(idx, cfg, np.random.default_rng(0))
        assert len(rec) == 64
        assert rec.samples.dtype == np.complex128

    def test_reproducible_across_runs(self):
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21)
        idx = encode(np.zeros(128, dtype=int), cfg)
        a = transmit(idx, cfg, np.random.default_rng(33)).samples
        b = transmit(idx, cfg, np.random.default_rng(33)).samples
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_index_out_of_range(self, bad):
        # the 2M = 8 states are 0 ... 7; -1 would wrap to state 7
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21)
        with pytest.raises(ValueError, match="state index out of range"):
            transmit([bad, 0], cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [1.9, np.nan, np.inf])
    def test_nonintegral_index_rejected(self, bad):
        # 1.9 used to be truncated and sent as state 1
        cfg = CipherConfig(M=4, S=2.0, key_bits=8, seed=0x21)
        with pytest.raises(ValueError, match="state indices must be integers"):
            transmit(np.array([bad]), cfg, np.random.default_rng(0))


class TestBobReceive:
    def test_noiseless_amplitudes_decode_perfectly(self):
        for osk in (False, True):
            cfg = CipherConfig(M=8, S=4.0, key_bits=10, seed=0x2B1, osk=osk)
            x = np.random.default_rng(3).integers(0, 2, 500)
            amps = cfg.constellation().amplitudes[encode(x, cfg)]
            bits = bob_receive(apply_loss(amps, cfg.kappa), cfg)
            np.testing.assert_array_equal(bits, x)

    def test_homodyne_ber_matches_binary_quadrature(self):
        # S = 1, kappa = 1: the keyed binary decision errs at Q(2) ~ 2.275e-2
        cfg = CipherConfig(M=16, S=1.0, key_bits=12, seed=0x5A5)
        rng = np.random.default_rng(11)
        n = 200_000
        x = rng.integers(0, 2, n)
        amps = cfg.constellation().amplitudes[encode(x, cfg)]
        ber = np.mean(bob_receive(amps, cfg, rng=rng) != x)
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
            ber = np.mean(bob_receive(amps, cfg, rng=rng) != x)
            bound = helstrom_binary_pure(math.sqrt(s), -math.sqrt(s)).value
            stderr = math.sqrt(max(ber * (1 - ber), 1 / n) / n)
            assert ber >= bound - 3 * stderr

    def test_ask_thresholding(self):
        cfg = CipherConfig(M=2, S=25.0, key_bits=8, seed=0x17, kind="ask", ask_S_min=4.0)
        x = np.random.default_rng(9).integers(0, 2, 300)
        amps = cfg.constellation().amplitudes[encode(x, cfg)]
        np.testing.assert_array_equal(bob_receive(amps, cfg), x)

    def test_loss_scaled_threshold(self):
        cfg = CipherConfig(M=2, S=36.0, key_bits=8, seed=0x17, kind="ask",
                           ask_S_min=9.0, kappa=0.25)
        x = np.random.default_rng(9).integers(0, 2, 300)
        amps = apply_loss(cfg.constellation().amplitudes[encode(x, cfg)], cfg.kappa)
        np.testing.assert_array_equal(bob_receive(amps, cfg), x)


    @pytest.mark.parametrize("kappa", [1.0, 0.5])
    @pytest.mark.parametrize("osk", [False, True])
    @pytest.mark.parametrize("fields", [
        dict(M=8, S=1.0),
        dict(M=4, S=16.0, kind="ask", ask_S_min=2.5),
    ], ids=["psk", "ask"])
    def test_matches_nearest_point_oracle(self, fields, osk, kappa):
        # noiseless points decode to the plaintext, and noisy outcomes to the
        # bit of the nearer point of each slot's keyed pair
        cfg = CipherConfig(key_bits=10, seed=0x2B1, osk=osk, kappa=kappa, **fields)
        rng = np.random.default_rng(5)
        n = 2000
        x = rng.integers(0, 2, n)
        points = math.sqrt(kappa) * cfg.constellation().amplitudes[encode(x, cfg)]
        np.testing.assert_array_equal(bob_receive(points, cfg), x)
        np.testing.assert_array_equal(bob_nearest_bits(points, cfg), x)
        noisy = points + rng.normal(0.0, 0.5, n) + 1j * rng.normal(0.0, 0.5, n)
        bits = bob_receive(noisy, cfg)
        assert 0 < np.count_nonzero(bits != x) < n // 2
        np.testing.assert_array_equal(bits, bob_nearest_bits(noisy, cfg))

    @pytest.mark.parametrize("osk", [False, True])
    def test_vacuum_leaves_only_the_noise(self, osk):
        # at S = 0 both points of every pair are the vacuum: Bob's own noise
        # alone decides, so an all-zero plaintext errs at rate 1/2
        cfg = CipherConfig(M=8, S=0.0, key_bits=10, seed=0x2B1, osk=osk)
        n = 20_000
        x = np.zeros(n, dtype=np.int64)
        amps = cfg.constellation().amplitudes[encode(x, cfg)]
        ber = np.mean(bob_receive(amps, cfg, rng=np.random.default_rng(8)) != x)
        assert abs(ber - 0.5) < 4 * math.sqrt(0.25 / n)


class TestReceived:
    @pytest.mark.parametrize("fields", [
        dict(M=8, S=4.0),
        dict(M=4, S=16.0, kind="ask", ask_S_min=2.5),
    ], ids=["psk", "ask"])
    def test_launched_points_after_loss(self, fields):
        cfg = CipherConfig(key_bits=10, seed=1, kappa=0.5, **fields)
        c = received(cfg)
        assert c.kind is cfg.kind
        np.testing.assert_array_equal(
            c.amplitudes, cfg.constellation().amplitudes * math.sqrt(0.5))

    @pytest.mark.parametrize("kappa", [1.0, 0.5])
    def test_ladder_tops_out_at_S(self, kappa):
        # S is the ladder's top energy, the reading design_neighbor_error
        # and design_bases give it, and ask_S_min its bottom
        cfg = CipherConfig(M=8, S=2000.0, key_bits=10, seed=1, kind="ask", kappa=kappa,
                           ask_S_min=3.0)
        want = apply_loss(make_ask(8, 3.0, 2000.0, kappa).amplitudes, kappa)
        np.testing.assert_array_equal(received(cfg).amplitudes, want)
        assert abs(want[-1]) ** 2 == pytest.approx(kappa * 2000.0, rel=1e-12)


class TestRecordFiles:
    @pytest.mark.parametrize("samples", [np.zeros((3, 2)), np.complex128(1)], ids=["2-d", "0-d"])
    def test_record_is_one_sample_per_slot(self, samples):
        # not a length of 3 that the attacks then broadcast against, nor a
        # TypeError from len()
        with pytest.raises(ValueError, match="one-dimensional"):
            MeasurementRecord(samples)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = MeasurementRecord(rng.normal(size=50) + 1j * rng.normal(size=50))
        path = tmp_path / "rec.bin"
        save_record(path, rec, 0.8, seed=123)
        inter = np.fromfile(path, dtype="<f8")
        np.testing.assert_array_equal(inter[0::2] + 1j * inter[1::2], rec.samples)
        meta = json.loads((tmp_path / "rec.bin.json").read_text())
        assert meta["mode"] == "heterodyne"
        assert meta["kappa"] == 0.8

    def test_sidecar_metadata(self, tmp_path):
        rec = MeasurementRecord(np.array([1 + 2j]))
        path = tmp_path / "r.bin"
        save_record(path, rec, 1.0, seed=7)
        meta = json.loads((tmp_path / "r.bin.json").read_text())
        assert meta == {"mode": "heterodyne", "kappa": 1.0, "seed": 7, "length": 1}
