import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaeta.constellation import (
    ModulationKind,
    design_bases,
    gaussian_tail,
    gram_matrix,
    make_ask,
    make_psk,
    neighbor_error,
    overlap,
)

amplitudes = st.complex_numbers(max_magnitude=12.0, allow_nan=False, allow_infinity=False)


class TestOverlap:
    def test_identity(self):
        for a in (0, 1.5, 2 - 3j, 0.1j):
            assert overlap(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_unit_energy(self):
        # closed form e^{-|2 alpha|^2} at S = 1, cross-checked below by quadrature
        got = abs(overlap(1.0, -1.0)) ** 2
        assert got == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert got == pytest.approx(1.8316e-2, rel=1e-4)

    def test_right_angle_pair(self):
        assert abs(overlap(1.0, 1.0j)) ** 2 == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert abs(overlap(1.0, 1.0j)) ** 2 == pytest.approx(0.13534, rel=1e-4)

    def test_against_wavepacket_quadrature(self):
        # independent oracle: overlap of two displaced Gaussian wavepackets
        # psi_a(x) = (2/pi)^(1/4) exp(-(x - a)^2) for real amplitude a
        # (unit-variance-1/4 quadrature wavefunctions); numerical quadrature.
        for a, b in [(0.3, -0.3), (1.0, -1.0), (0.7, 0.1)]:
            x = np.linspace(-12, 12, 20001)
            psi_a = (2 / math.pi) ** 0.25 * np.exp(-((x - a) ** 2))
            psi_b = (2 / math.pi) ** 0.25 * np.exp(-((x - b) ** 2))
            braket = np.trapezoid(psi_a * psi_b, x)
            assert abs(overlap(a, b)) == pytest.approx(braket, rel=1e-9)

    @given(amplitudes, amplitudes)
    def test_magnitude_at_most_one(self, a, b):
        m = abs(overlap(a, b))
        assert m <= 1.0 + 1e-12
        if abs(a - b) > 1e-6:
            assert m < 1.0

    @given(amplitudes, amplitudes)
    def test_conjugate_symmetry(self, a, b):
        assert overlap(a, b) == pytest.approx(overlap(b, a).conjugate(), abs=1e-12)

    @given(amplitudes, amplitudes, st.floats(0.01, 1.0))
    def test_loss_compatibility(self, a, b, kappa):
        # scaling both amplitudes by sqrt(kappa) rescales the exponent by kappa
        lhs = abs(overlap(math.sqrt(kappa) * a, math.sqrt(kappa) * b)) ** 2
        rhs = math.exp(-kappa * abs(a - b) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)


class TestGram:
    def test_single_point(self):
        g = gram_matrix(np.array([2.0 + 1.0j]))
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0)

    def test_antipodal_offdiag(self):
        g = gram_matrix(make_psk(1, 1.0))
        assert abs(g[0, 1]) == pytest.approx(math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("M,S", [(2, 0.5), (8, 3.0), (64, 100.0)])
    def test_psk_gram_is_circulant(self, M, S):
        g = gram_matrix(make_psk(M, S))
        n = 2 * M
        for i in range(n):
            row = np.roll(g[i], -i)
            np.testing.assert_allclose(row, g[0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M,S", [(2, 1.0), (16, 10.0), (128, 1e4)])
    def test_gram_psd_dense(self, M, S):
        g = gram_matrix(make_psk(M, S))
        lam = np.linalg.eigvalsh(g)
        assert lam[0] >= -1e-10 * lam[-1]

    @pytest.mark.parametrize("M,S", [(512, 1e4), (2048, 1e4), (2048, 1.0)])
    def test_gram_psd_large_via_circulant(self, M, S):
        # PSK Gram matrices are circulant, so the DFT of the first row is the
        # exact spectrum; checks sizes up to 2M = 4096 without a dense eigh
        amps = make_psk(M, S).amplitudes
        n2 = np.abs(amps) ** 2
        with np.errstate(under="ignore"):
            row = np.exp(-0.5 * (n2[0] + n2) + np.conj(amps[0]) * amps)
        lam = np.fft.fft(row).real
        assert lam.min() >= -1e-10 * lam.max()

    def test_ask_gram_psd(self):
        g = gram_matrix(make_ask(8, 4.0, 16.0, 1.0))
        lam = np.linalg.eigvalsh(g)
        assert lam[0] >= -1e-10 * lam[-1]


class TestMakePsk:
    def test_square(self):
        c = make_psk(2, 1.0)
        np.testing.assert_allclose(np.abs(c.amplitudes), 1.0)
        np.testing.assert_allclose(
            np.sort(np.angle(c.amplitudes) % (2 * np.pi)),
            [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)

    def test_binary_is_antipodal(self):
        c = make_psk(1, 7.0)
        np.testing.assert_allclose(c.amplitudes[1], -c.amplitudes[0], atol=1e-12)

    def test_rejects_zero_bases(self):
        with pytest.raises(ValueError):
            make_psk(0, 1.0)
        with pytest.raises(ValueError):
            make_psk(4, -1.0)

    def test_neighbor_chord_matches_design_spacing(self):
        c = make_psk(1000, 1e4)
        chord = c.neighbor_distance()
        assert chord == pytest.approx(2 * 100 * math.sin(math.pi / 2000), rel=1e-12)
        assert chord == pytest.approx(0.31415913, rel=1e-6)
        # the arc-length design spacing 2 pi |alpha| / 2M agrees to < 0.1% at this scale
        arc = 2 * math.pi * 100 / 2000
        assert abs(chord - arc) / arc < 1e-3

    def test_antipodal_index_pairing(self):
        c = make_psk(8, 2.0)
        for s in range(8):
            np.testing.assert_allclose(c.amplitudes[s + 8], -c.amplitudes[s], atol=1e-12)


class TestMakeAsk:
    def test_two_point_ladder(self):
        c = make_ask(1, 4.0, 16.0, 1.0)
        np.testing.assert_allclose(c.amplitudes.real, [2.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(c.amplitudes.imag, 0.0, atol=1e-15)

    def test_design_spacing_four_levels(self):
        # the nominal design step is (amax - amin)/2M = 0.5; the realized
        # ladder step is (amax - amin)/(2M - 1) because both endpoints are populated
        c = make_ask(2, 4.0, 16.0, 1.0)
        assert c.neighbor_distance() == pytest.approx(2.0 / 3.0)

    def test_strictly_increasing(self):
        c = make_ask(4, 2.0, 9.0, 1.0)
        assert np.all(np.diff(c.amplitudes.real) > 0)

    def test_minimum_energy_constraint(self):
        with pytest.raises(ValueError):
            make_ask(2, 0.5, 4.0, 0.5)  # 0.5 <= 1/0.5
        make_ask(2, 2.01, 4.0, 0.5)  # just above the floor is fine


class TestNeighborError:
    def test_upper_limit_half(self):
        # vanishing spacing kills the integral: Pe -> 1/2
        pe = neighbor_error(make_psk(1 << 14, 0.01))
        assert pe == pytest.approx(0.5, abs=1e-3)
        assert pe < 0.5

    def test_unit_argument(self):
        # chord distance 1 at sigma 1/2 gives the standard normal tail at 1
        c = make_psk(1000, (1.0 / (2 * math.sin(math.pi / 2000))) ** 2)
        assert c.neighbor_distance() == pytest.approx(1.0, rel=1e-12)
        assert neighbor_error(c) == pytest.approx(0.15866, rel=1e-4)
        assert neighbor_error(c) == pytest.approx(gaussian_tail(1.0), rel=1e-12)

    def test_monotone_in_energy(self):
        pes = [neighbor_error(make_psk(64, s)) for s in (1.0, 10.0, 100.0, 1e3)]
        assert all(a > b for a, b in zip(pes, pes[1:]))

    def test_needs_two_points(self):
        c = make_psk(1, 1.0)
        one_point = c.amplitudes[:1]
        with pytest.raises(ValueError):
            neighbor_error(
                type(c)(one_point, ModulationKind.PSK, 1)  # malformed on purpose
            )


class TestDesignBases:
    def test_result_verifies_bound(self):
        for target in (0.2, 0.3, 0.45):
            for s in (10.0, 100.0, 1e3):
                m = design_bases(target, s)
                assert neighbor_error(make_psk(m, s)) >= target
                if m > 1:
                    assert neighbor_error(make_psk(m - 1, s)) < target

    def test_known_point(self):
        # invert the Gaussian tail: Q(t0) = 0.3 at t0 ~ 0.5244, chord = t0
        # => M ~ pi sqrt(S) / t0 ~ 59.9 at S = 100
        m = design_bases(0.3, 100.0)
        assert m == 60

    def test_energy_scaling_doubles_bases(self):
        for s in (50.0, 200.0, 800.0):
            m1 = design_bases(0.3, s)
            m2 = design_bases(0.3, 4 * s)
            assert abs(m2 - 2 * m1) <= 1

    def test_target_range_enforced(self):
        with pytest.raises(ValueError):
            design_bases(0.15, 100.0)
        with pytest.raises(ValueError):
            design_bases(0.5, 100.0)

    def test_near_half_target_grows(self):
        assert design_bases(0.499, 100.0) > design_bases(0.3, 100.0)
