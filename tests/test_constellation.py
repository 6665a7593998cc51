import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaeta.constellation import (
    Constellation,
    ModulationKind,
    design_bases,
    design_neighbor_error,
    gaussian_tail,
    gram_matrix,
    make_ask,
    make_psk,
)

from alphaeta.channel import received
from alphaeta.cipher import CipherConfig

from oracles import neighbor_chord, neighbor_confusion

amplitudes = st.complex_numbers(max_magnitude=12.0, allow_nan=False, allow_infinity=False)


def gram_entry(a, b) -> complex:
    """<a|b>, the off-diagonal entry of the two states' Gram matrix."""
    return complex(gram_matrix(np.array([a, b]))[0, 1])


class TestOverlap:
    def test_identity(self):
        for a in (0, 1.5, 2 - 3j, 0.1j):
            assert gram_entry(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_unit_energy(self):
        # closed form e^{-|2 alpha|^2} at S = 1, cross-checked below by quadrature
        got = abs(gram_entry(1.0, -1.0)) ** 2
        assert got == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert got == pytest.approx(1.8316e-2, rel=1e-4)

    def test_right_angle_pair(self):
        assert abs(gram_entry(1.0, 1.0j)) ** 2 == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert abs(gram_entry(1.0, 1.0j)) ** 2 == pytest.approx(0.13534, rel=1e-4)

    def test_against_wavepacket_quadrature(self):
        # independent oracle: overlap of two displaced Gaussian wavepackets
        # psi_a(x) = (2/pi)^(1/4) exp(-(x - a)^2) for real amplitude a
        # (unit-variance-1/4 quadrature wavefunctions); numerical quadrature.
        for a, b in [(0.3, -0.3), (1.0, -1.0), (0.7, 0.1)]:
            x = np.linspace(-12, 12, 20001)
            psi_a = (2 / math.pi) ** 0.25 * np.exp(-((x - a) ** 2))
            psi_b = (2 / math.pi) ** 0.25 * np.exp(-((x - b) ** 2))
            braket = np.trapezoid(psi_a * psi_b, x)
            assert abs(gram_entry(a, b)) == pytest.approx(braket, rel=1e-9)

    @given(amplitudes, amplitudes)
    def test_magnitude_at_most_one(self, a, b):
        m = abs(gram_entry(a, b))
        assert m <= 1.0 + 1e-12
        if abs(a - b) > 1e-6:
            assert m < 1.0

    @given(amplitudes, amplitudes)
    def test_conjugate_symmetry(self, a, b):
        assert gram_entry(a, b) == pytest.approx(gram_entry(b, a).conjugate(), abs=1e-12)

    @given(amplitudes, amplitudes, st.floats(0.01, 1.0))
    def test_loss_compatibility(self, a, b, kappa):
        # scaling both amplitudes by sqrt(kappa) rescales the exponent by kappa
        lhs = abs(gram_entry(math.sqrt(kappa) * a, math.sqrt(kappa) * b)) ** 2
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

    @pytest.mark.parametrize("S", [math.nan, math.inf])
    def test_rejects_non_finite_energy(self, S):
        with pytest.raises(ValueError, match="S must be finite and >= 0"):
            make_psk(4, S)

    def test_neighbor_chord_matches_design_spacing(self):
        c = make_psk(1000, 1e4)
        chord = neighbor_chord(c)
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
        assert neighbor_chord(c) == pytest.approx(2.0 / 3.0)

    def test_strictly_increasing(self):
        c = make_ask(4, 2.0, 9.0, 1.0)
        assert np.all(np.diff(c.amplitudes.real) > 0)

    def test_minimum_energy_constraint(self):
        with pytest.raises(ValueError):
            make_ask(2, 0.5, 4.0, 0.5)  # 0.5 <= 1/0.5
        make_ask(2, 2.01, 4.0, 0.5)  # just above the floor is fine
        for kappa in (0.0, -0.5):  # no floor at all: refused, not a ZeroDivisionError
            with pytest.raises(ValueError):
                make_ask(2, 2.0, 4.0, kappa)

    @pytest.mark.parametrize("S_min, S_max", [(math.nan, 4.0), (2.0, math.nan),
                                              (2.0, math.inf), (math.inf, math.inf)])
    def test_rejects_non_finite_energy(self, S_min, S_max):
        with pytest.raises(ValueError, match="must be finite"):
            make_ask(2, S_min, S_max, 1.0)


class TestNeighborError:
    def test_upper_limit_half(self):
        # vanishing spacing kills the integral: Pe -> 1/2
        pe = design_neighbor_error(1 << 14, 0.01)
        assert pe == pytest.approx(0.5, abs=1e-3)
        assert pe < 0.5

    def test_unit_argument(self):
        # chord distance 1 at sigma 1/2 gives the standard normal tail at 1
        S = (1.0 / (2 * math.sin(math.pi / 2000))) ** 2
        assert neighbor_chord(make_psk(1000, S)) == pytest.approx(1.0, rel=1e-12)
        assert design_neighbor_error(1000, S) == pytest.approx(0.15866, rel=1e-4)
        assert design_neighbor_error(1000, S) == pytest.approx(gaussian_tail(1.0), rel=1e-12)

    def test_monotone_in_energy(self):
        pes = [design_neighbor_error(64, s) for s in (1.0, 10.0, 100.0, 1e3)]
        assert all(a > b for a, b in zip(pes, pes[1:]))

    @pytest.mark.parametrize("M", [0, -2])
    @pytest.mark.parametrize("kind", ["psk", "ask"])
    def test_needs_one_basis(self, M, kind):
        # as make_psk and make_ask refuse it, not a ZeroDivisionError or an
        # error probability of 1
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            design_neighbor_error(M, 100.0, kind, 2.0)

    @pytest.mark.parametrize("kind, S_min, message", [("psk", 2.0, "kind 'psk' takes no S_min"),
                                                       ("ask", None, "kind 'ask' requires S_min")],
                             ids=["psk-with-S_min", "ask-without"])
    @pytest.mark.parametrize("figure", [lambda *a: design_neighbor_error(4, *a),
                                        lambda *a: design_bases(0.3, *a)],
                             ids=["neighbor_error", "bases"])
    def test_S_min_pairs_with_ask(self, figure, kind, S_min, message):
        # a ring has no bottom energy to ignore, as a config's ask_S_min
        with pytest.raises(ValueError, match=f"^{message}$"):
            figure(10.0, kind, S_min)

    def test_needs_two_points(self):
        # a constellation holds 2M >= 2 points, so every one has a neighbor
        for n in (0, 1, 3):
            with pytest.raises(ValueError, match="even number of points"):
                Constellation(np.ones(n), ModulationKind.PSK)
        two = Constellation(np.array([1.0, -1.0]), ModulationKind.PSK)
        assert design_neighbor_error(1, 1.0) == neighbor_confusion(two) > 0

    def test_kind_is_a_modulation_kind(self):
        # a kind's value names it, as a config's kind does; any other kind is
        # refused, not routed as a ladder
        ring = make_psk(2, 1.0).amplitudes
        assert Constellation(ring, "psk").kind is ModulationKind.PSK
        assert Constellation(ring, "ask").kind is ModulationKind.ASK
        with pytest.raises(ValueError, match="not a valid ModulationKind"):
            Constellation(ring, "bogus")

    @pytest.mark.parametrize("points", [
        [1, 2, -1, -2],  # two radii: the ring figures read only point 0's
        [1, 1j, -1, 1j],  # point 3 off its phase
        [1j, -1, -1j, 1],  # the ring rotated: point 0 off phase 0
        make_psk(4, 10.0).amplitudes * (1 + 1e-10 * (np.arange(8) == 5)),
        [math.nan, -math.nan],
    ], ids=["two-radii", "off-phase", "rotated", "1e-10-off", "nan"])
    def test_psk_points_are_a_ring(self, points):
        # a PSK figure reads the radius of point 0 and the ring's phases, so
        # other points would get the figure of another ring
        with pytest.raises(ValueError, match=r"^PSK points must be r e\^\{i pi s / M\}"):
            Constellation(points, "psk")
        assert Constellation(points, "ask").kind is ModulationKind.ASK

    @pytest.mark.parametrize("M", [1, 2, 64, 512, 4096])
    @pytest.mark.parametrize("S", [0.0, 1e-3, 1.0, 4000.0, 1e6])
    def test_rings_built_and_received_pass(self, M, S):
        # make_psk's points, and the received points after any loss, are
        # rings to within rounding
        ring = make_psk(M, S).amplitudes
        for kappa in (1e-6, 0.01, 0.5, 0.999):
            received(CipherConfig(M=M, S=S, key_bits=4, seed=1, kappa=kappa))
        Constellation(ring * (1 + 1e-13 * (np.arange(2 * M) == M)), "psk")


class TestDesignBases:
    def test_result_verifies_bound(self):
        # the smallest power of two: half of it falls short
        for target in (0.2, 0.3, 0.45):
            for s in (10.0, 100.0, 1e3):
                m = design_bases(target, s)
                assert m & (m - 1) == 0
                assert neighbor_confusion(make_psk(m, s)) >= target
                if m > 1:
                    assert neighbor_confusion(make_psk(m // 2, s)) < target
        for target in (0.2, 0.3, 0.45):
            for s in (100.0, 4000.0):
                m = design_bases(target, s, ModulationKind.ASK, 2.0)
                assert m & (m - 1) == 0 and m > 1
                assert neighbor_confusion(make_ask(m, 2.0, s, 1.0)) >= target
                assert neighbor_confusion(make_ask(m // 2, 2.0, s, 1.0)) < target

    def test_known_point(self):
        # invert the Gaussian tail: Q(t0) = 0.3 at t0 ~ 0.5244, chord = t0
        # => M ~ pi sqrt(S) / t0 ~ 59.9 at S = 100, and 64 is the next power
        # of two
        assert design_bases(0.3, 100.0) == 64

    def test_powers_of_two_at_the_otp_energy(self):
        # the integer boundaries are 237, 379, 785 and 7926 bases
        got = [design_bases(t, 4000.0) for t in (0.2, 0.3, 0.4, 0.49)]
        assert got == [256, 512, 1024, 8192]

    def test_energy_scaling_doubles_bases(self):
        for s in (50.0, 200.0, 800.0):
            m1 = design_bases(0.3, s)
            m2 = design_bases(0.3, 4 * s)
            assert m2 == 2 * m1

    @pytest.mark.parametrize("M, S", [(1, 4.0), (60, 100.0), (64, 100.0), (379, 4000.0),
                                      (512, 4000.0), (4096, 1e6)])
    def test_closed_form_matches_the_built_ring(self, M, S):
        assert design_neighbor_error(M, S) == pytest.approx(neighbor_confusion(make_psk(M, S)),
                                                            rel=1e-12)

    @pytest.mark.parametrize("M, S_min, S", [(1, 2.0, 100.0), (9, 2.0, 100.0),
                                             (64, 2.0, 4000.0), (512, 1.5, 2000.0)])
    def test_closed_form_matches_the_built_ladder(self, M, S_min, S):
        got = design_neighbor_error(M, S, ModulationKind.ASK, S_min)
        assert got == pytest.approx(neighbor_confusion(make_ask(M, S_min, S, 1.0)), rel=1e-12)

    def test_unreachable_target_raises_at_once(self):
        # M ~ 6 sqrt(S) bases would be needed, far beyond 2^40; no ring is
        # built, so this returns at once
        with pytest.raises(ValueError, match="unreachable"):
            design_bases(0.3, 1e300)

    @pytest.mark.parametrize("S_min, S", [(None, 100.0), (1.0, 100.0), (math.nan, 100.0),
                                          (4.0, 4.0), (4.0, math.inf)])
    def test_ladder_energies_checked(self, S_min, S):
        # what make_ask refuses at kappa = 1
        with pytest.raises(ValueError):
            design_bases(0.3, S, ModulationKind.ASK, S_min)

    def test_target_range_enforced(self):
        with pytest.raises(ValueError):
            design_bases(0.15, 100.0)
        with pytest.raises(ValueError):
            design_bases(0.5, 100.0)

    def test_near_half_target_grows(self):
        assert design_bases(0.499, 100.0) > design_bases(0.3, 100.0)
