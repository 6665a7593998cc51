import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alphaeta.constellation import (
    Constellation,
    ModulationKind,
    gaussian_tail,
    make_ask,
    make_psk,
    overlap,
)
from alphaeta.detection import (
    _ring_log_spectrum,
    BoundReport,
    WeightedEnsemble,
    helstrom_binary_mixed,
    helstrom_binary_pure,
    quadrature_binary,
    srm_symmetric,
    usd_symmetric,
)

from oracles import (
    even_odd_mixtures,
    ring_even_odd_helstrom,
    ring_mixture_helstrom,
    ring_spectrum_mpmath,
    ring_srm_success,
    ring_usd_success,
    srm_holevo_yuen_residual,
)

S_GRID = (0.1, 1.0, 10.0, 100.0, 1e4)
N_GRID = tuple(2 ** k for k in range(1, 12))  # 2 .. 2048

amplitudes = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)

# (N, S) points checked against the 60-digit ring spectrum
ORACLE_POINTS = [(4, 1.0), (64, 10.0), (2047, 100.0), (2047, 1e3), (2047, 1e4), (2000, 1e4)]


def two_state_trace_norm(a, b):
    """Dense 2x2 oracle: orthonormalize {|a>, |b>} explicitly and
    eigendecompose the signed operator (|b><b| - |a><a|) / 2."""
    ov = overlap(a, b)
    # |b> = ov |a> + sqrt(1-|ov|^2) |perp>, with 1-|ov|^2 = -expm1(-|a-b|^2)
    s = math.sqrt(-math.expm1(-abs(complex(a) - complex(b)) ** 2))
    vb = np.array([ov, s])
    rho_a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho_b = np.outer(vb, vb.conj())
    eig = np.linalg.eigvalsh(0.5 * rho_b - 0.5 * rho_a)
    return float(np.abs(eig).sum())


class TestHelstromPure:
    def test_identical_states(self):
        rep = helstrom_binary_pure(1.5 + 0.5j, 1.5 + 0.5j)
        assert rep.value == pytest.approx(0.5)
        assert rep.kind == "error" and rep.method == "closed_form"

    def test_antipodal_unit_energy(self):
        rep = helstrom_binary_pure(1.0, -1.0)
        # frozen from the 2x2 eigen oracle below
        oracle = 0.5 * (1.0 - two_state_trace_norm(1.0, -1.0))
        assert rep.value == pytest.approx(oracle, abs=1e-12)
        assert rep.value == pytest.approx(4.5999e-3, rel=1e-4)
        assert rep.value == pytest.approx(4.598e-3, rel=1e-3)

    @given(amplitudes, amplitudes)
    @example(1 + 1j, 1 + 1j)
    def test_matches_dense_oracle(self, a, b):
        rep = helstrom_binary_pure(a, b)
        oracle = 0.5 * (1.0 - two_state_trace_norm(a, b))
        assert rep.value == pytest.approx(oracle, abs=1e-10)

    def test_asymptotic_exponent(self):
        s = np.arange(2.0, 5.01, 0.5)
        pe = np.array([helstrom_binary_pure(math.sqrt(v), -math.sqrt(v)).value for v in s])
        slope = np.polyfit(s, np.log(pe), 1)[0]
        assert slope == pytest.approx(-4.0, rel=0.05)

    @given(amplitudes, amplitudes)
    def test_never_errorless_for_overlapping_states(self, a, b):
        rep = helstrom_binary_pure(a, b)
        if abs(overlap(a, b)) > 0:
            assert rep.value > 0.0


class TestQuadrature:
    def test_vacuum_limit(self):
        assert quadrature_binary(0.0, 0.0).value == pytest.approx(0.5)

    def test_homodyne_antipodal_unit_energy(self):
        rep = quadrature_binary(1.0, -1.0, "homodyne")
        assert rep.value == pytest.approx(gaussian_tail(2.0), rel=1e-12)
        assert rep.value == pytest.approx(2.275e-2, rel=1e-3)
        assert rep.method == "quadrature"

    def test_homodyne_exponent_measured(self):
        # the finite-window regression slope of the exact Gaussian tail;
        # its asymptotic exponent is -2 (prefactor steepens the window value)
        s = np.arange(2.0, 5.01, 0.5)
        pe = np.array([quadrature_binary(math.sqrt(v), -math.sqrt(v), "homodyne").value
                       for v in s])
        slope = np.polyfit(s, np.log(pe), 1)[0]
        assert slope == pytest.approx(-2.133, abs=0.01)
        a = np.vstack([s, np.log(s), np.ones_like(s)]).T
        corrected = np.linalg.lstsq(a, np.log(pe), rcond=None)[0][0]
        assert corrected == pytest.approx(-2.0, rel=0.05)

    def test_heterodyne_penalty(self):
        hom = quadrature_binary(1.0, -1.0, "homodyne").value
        het = quadrature_binary(1.0, -1.0, "heterodyne").value
        assert het > hom
        assert het == pytest.approx(gaussian_tail(math.sqrt(2.0)), rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            quadrature_binary(1.0, -1.0, "photon-counting")

    @given(amplitudes, amplitudes)
    def test_optimal_beats_gaussian_receiver(self, a, b):
        assert helstrom_binary_pure(a, b).value <= quadrature_binary(a, b).value + 1e-12


class TestHelstromMixed:
    def test_equal_ensembles(self):
        # w = 0 gives exactly 1/2 on the ring and on the ladder, also for the
        # same mixture listed in another order
        for c, method in [(make_psk(4, 2.0), "ring_spectrum"),
                          (make_ask(4, 1.5, 6.0, 1.0), "span_eigen")]:
            rho = WeightedEnsemble.uniform(c, np.arange(8))
            same = WeightedEnsemble.uniform(c, np.arange(8)[::-1])
            for pair in [(rho, rho), (rho, same)]:
                rep = helstrom_binary_mixed(*pair)
                assert rep.value == 0.5 and rep.method == method

    def test_singletons_reduce_to_pure(self):
        c = make_psk(4, 3.0)
        for i, j in [(0, 4), (1, 3), (2, 7)]:
            mixed = helstrom_binary_mixed(
                WeightedEnsemble.uniform(c, [i]), WeightedEnsemble.uniform(c, [j]))
            pure = helstrom_binary_pure(c.amplitudes[i], c.amplitudes[j])
            assert mixed.value == pytest.approx(pure.value, abs=1e-10)

    def test_mismatched_constellations_rejected(self):
        r0 = WeightedEnsemble.uniform(make_psk(2, 1.0), [0])
        r1 = WeightedEnsemble.uniform(make_psk(2, 2.0), [0])
        with pytest.raises(ValueError):
            helstrom_binary_mixed(r0, r1)

    @pytest.mark.parametrize("M,S", [(2, 0.7), (2, 2.5)])
    def test_four_state_dense_oracle(self, M, S):
        from alphaeta.reproduce import _dense_mixed_helstrom

        c = make_psk(M, S)
        rho0 = WeightedEnsemble(c, np.array([0.7, 0.3]), np.array([0, 1]))
        rho1 = WeightedEnsemble(c, np.array([0.55, 0.45]), np.array([2, 3]))
        got = helstrom_binary_mixed(rho0, rho1).value
        want = _dense_mixed_helstrom(c.amplitudes, rho0, rho1)
        assert got == pytest.approx(want, abs=1e-10)

    def test_ask_ladder_dense_oracle(self):
        # ladders are not circulant: they keep the span route
        from alphaeta.reproduce import _dense_mixed_helstrom

        c = make_ask(2, 1.5, 6.0, 1.0)
        rho0 = WeightedEnsemble(c, np.array([0.7, 0.3]), np.array([0, 1]))
        rho1 = WeightedEnsemble(c, np.array([0.6, 0.4]), np.array([2, 3]))
        rep = helstrom_binary_mixed(rho0, rho1)
        assert rep.method == "span_eigen"
        assert rep.value == pytest.approx(_dense_mixed_helstrom(c.amplitudes, rho0, rho1),
                                          abs=1e-10)

    def test_designed_even_odd_mixtures_near_half(self):
        c = make_psk(512, 4000.0)
        rho_e, rho_o = even_odd_mixtures(c)
        rep = helstrom_binary_mixed(rho_e, rho_o)
        assert rep.method == "ring_spectrum"
        assert abs(rep.value - 0.5) < 1e-3

    def test_even_odd_matches_circulant_pairing(self):
        # independent route: the signed even/odd operator of a 2M-point ring has
        # eigenvalue pairs +/- sqrt(g_k g_{k+M}) / (2M) with g the circulant
        # Gram spectrum, so Pe = 1/2 - sum_k sqrt(g_k g_{k+M}) / (4M)
        for M, S in [(16, 5.0), (64, 100.0), (256, 2000.0)]:
            c = make_psk(M, S)
            n = 2 * M
            amps = c.amplitudes
            n2 = np.abs(amps) ** 2
            with np.errstate(under="ignore"):
                row = np.exp(-0.5 * (n2[0] + n2) + np.conj(amps[0]) * amps)
            g = np.fft.fft(row).real
            trace_norm = np.sum(np.sqrt(g[: M] * g[M:])) * 2.0 / n
            want = 0.5 - 0.5 * trace_norm
            rho_e, rho_o = even_odd_mixtures(c)
            got = helstrom_binary_mixed(rho_e, rho_o).value
            # the gap, about 1.3e-11 at (256, 2000), is the rounding of this
            # oracle's own DFT of the overlap row, not of the ring route
            assert got == pytest.approx(want, abs=1e-10)

    def test_mixing_congruent_pairs_never_helps(self):
        # each added pair is a rotated copy of the base antipodal pair, so the
        # pure-pair error lower-bounds the mixture error (triangle inequality)
        c = make_psk(8, 1.5)
        pure = helstrom_binary_pure(c.amplitudes[0], c.amplitudes[8]).value
        rho0 = WeightedEnsemble(c, np.array([0.8, 0.2]), np.array([0, 2]))
        rho1 = WeightedEnsemble(c, np.array([0.8, 0.2]), np.array([8, 10]))
        assert helstrom_binary_mixed(rho0, rho1).value >= pure - 1e-12


class TestHelstromRing:
    """The spectrum route that every pair of mixtures on a PSK ring takes."""

    @staticmethod
    def half_rings(M, S, skewed=False):
        # skewed: bit 0's half ring is weighted 1 : 3 from first to last point,
        # so w_{j+s} != -w_j for every shift and the route takes the N x N eigensolve
        c = make_psk(M, S)
        q0 = np.linspace(1.0, 3.0, M) if skewed else np.ones(M)
        return (WeightedEnsemble(c, q0 / q0.sum(), np.arange(M)),
                WeightedEnsemble.uniform(c, np.arange(M, 2 * M)))

    @staticmethod
    def signed_weights(rho0, rho1):
        n = len(rho0.constellation)
        return (np.bincount(rho1.indices, rho1.probabilities, minlength=n)
                - np.bincount(rho0.indices, rho0.probabilities, minlength=n)) / 2

    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    def test_half_rings_match_dense_oracle(self, M):
        from alphaeta.reproduce import _dense_mixed_helstrom

        # at S = 10 the oracle's Gram-Schmidt keeps every direction; at low S
        # it drops near-dependent ones and is itself off by up to 7e-12
        rho0, rho1 = self.half_rings(M, 10.0)
        rep = helstrom_binary_mixed(rho0, rho1)
        assert rep.method == "ring_spectrum"
        want = _dense_mixed_helstrom(rho0.constellation.amplitudes, rho0, rho1)
        assert rep.value == pytest.approx(want, abs=1e-15)

    def test_unequal_weights_match_dense_oracle(self):
        # w_{j+M} != -w_j, so the route takes the full Hermitian eigensolve
        from alphaeta.reproduce import _dense_mixed_helstrom

        c = make_psk(4, 10.0)
        rho0 = WeightedEnsemble(c, np.array([0.7, 0.2, 0.1]), np.array([0, 1, 3]))
        rho1 = WeightedEnsemble(c, np.array([0.5, 0.5]), np.array([4, 6]))
        rep = helstrom_binary_mixed(rho0, rho1)
        assert rep.method == "ring_spectrum"
        assert rep.value == pytest.approx(_dense_mixed_helstrom(c.amplitudes, rho0, rho1),
                                          abs=1e-15)

    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_matches_span_route(self, skewed):
        # the same points labelled as a ladder take the span route
        rho0, rho1 = self.half_rings(64, 100.0, skewed)
        c = rho0.constellation
        ladder = Constellation(c.amplitudes, ModulationKind.ASK, c.num_bases)
        span = helstrom_binary_mixed(WeightedEnsemble(ladder, rho0.probabilities, rho0.indices),
                                     WeightedEnsemble(ladder, rho1.probabilities, rho1.indices))
        assert span.method == "span_eigen"
        assert helstrom_binary_mixed(rho0, rho1).value == pytest.approx(span.value, abs=1e-12)

    @pytest.mark.parametrize("N, S", [(8, 5.0), (16, 50.0)])
    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_matches_mpmath_oracle(self, N, S, skewed):
        rho0, rho1 = self.half_rings(N // 2, S, skewed)
        want = ring_mixture_helstrom(self.signed_weights(rho0, rho1), S)
        got = helstrom_binary_mixed(rho0, rho1).value
        assert got == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("M, S", [(16, 5.0), (64, 100.0)])
    def test_even_odd_mixtures_match_pairing_formula(self, M, S):
        rep = helstrom_binary_mixed(*even_odd_mixtures(make_psk(M, S)))
        assert rep.method == "ring_spectrum"
        assert rep.value == pytest.approx(ring_even_odd_helstrom(M, S), rel=0, abs=1e-15)

    @pytest.mark.parametrize("pattern", [(0.7, 0.3), (0.4, 0.3, 0.2, 0.1)])
    def test_shift_antisymmetric_weights_match_mpmath_oracle(self, pattern):
        # w_{j+s} = -w_j with s = len(pattern) and no smaller shift: the route
        # splits Delta into N / 2s bipartite s x s blocks
        N, S = 16, 5.0
        s = len(pattern)
        j = np.arange(N)
        q = np.array(pattern)[j % s] * (2 * s / N)  # each hypothesis holds N / 2s copies
        first = j // s % 2 == 0  # runs of s points alternate between the hypotheses
        rho1 = WeightedEnsemble(make_psk(N // 2, S), q[first], j[first])
        rho0 = WeightedEnsemble(rho1.constellation, q[~first], j[~first])
        w = self.signed_weights(rho0, rho1)
        assert np.array_equal(np.roll(w, -s), -w)
        got = helstrom_binary_mixed(rho0, rho1).value
        assert got == pytest.approx(ring_mixture_helstrom(w, S), rel=0, abs=1e-15)

    def test_designed_half_rings(self):
        # M = 512, S = 4000: the span route's clamp left this 6.7e-12 high
        rep = helstrom_binary_mixed(*self.half_rings(512, 4000.0))
        assert rep.value == pytest.approx(0.0015669998138, rel=0, abs=1e-13)


class TestRingSpectrum:
    @pytest.mark.parametrize("N, S", [(64, 10.0), (1024, 4000.0), (2047, 1000.0), (2000, 1e4)])
    def test_log_spectrum_matches_mpmath(self, N, S):
        # the relative precision of every eigenvalue that the docs promise
        got = _ring_log_spectrum(N, S)
        with mpmath.workdps(60):
            want = np.array([float(mpmath.log(x)) for x in ring_spectrum_mpmath(N, S)])
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() < 2e-12

    def test_vacuum_is_exactly_one_state(self):
        # S = 0: all weight on k = 0, every other eigenvalue exactly 0, no nan
        assert np.array_equal(_ring_log_spectrum(5, 0.0),
                              [math.log(5.0)] + [-np.inf] * 4)


class TestHelstromEvenOdd:
    @pytest.mark.parametrize("S", [0.7, 2.5])
    def test_matches_dense_oracle(self, S):
        from alphaeta.reproduce import _dense_mixed_helstrom

        c = make_psk(2, S)
        rho_e, rho_o = even_odd_mixtures(c)
        want = _dense_mixed_helstrom(c.amplitudes, rho_e, rho_o)
        assert helstrom_binary_mixed(rho_e, rho_o).value == pytest.approx(want, abs=1e-10)


class TestSrmSymmetric:
    def test_binary_reduces_to_helstrom(self):
        for s in S_GRID:
            srm = srm_symmetric(2, s)
            hel = helstrom_binary_pure(math.sqrt(s), -math.sqrt(s))
            assert srm.value == pytest.approx(hel.value, abs=1e-10)

    def test_four_state_closed_form(self):
        # independent oracle: the four circulant eigenvalues in cosh/cos form
        s = 1.0
        h = 2 * math.exp(-s) * np.array([
            math.cosh(s) + math.cos(s),
            math.sinh(s) + math.sin(s),
            math.cosh(s) - math.cos(s),
            math.sinh(s) - math.sin(s),
        ])
        want = 1.0 - (np.sqrt(h).sum() / 4.0) ** 2
        assert srm_symmetric(4, s).value == pytest.approx(want, abs=1e-12)

    def test_vacuum_states_are_pure_guessing(self):
        # the vacuum spectrum is exactly (n, 0, ..., 0)
        for n in (2, 3, 17, 64):
            assert srm_symmetric(n, 0.0).success == pytest.approx(1.0 / n, abs=1e-7)

    @pytest.mark.parametrize("N,S", ORACLE_POINTS)
    def test_matches_mpmath_spectrum(self, N, S):
        assert srm_symmetric(N, S).success == pytest.approx(ring_srm_success(N, S), abs=1e-11)

    def test_known_design_points(self):
        assert srm_symmetric(2047, 100.0).value == pytest.approx(0.975, abs=0.02)
        assert srm_symmetric(2047, 1e4).value == pytest.approx(0.755, abs=0.02)

    def test_spectrum_matches_span_certificate(self):
        # the span route projects out Gram directions below 1e-10 relative,
        # whose square roots the exact spectrum route still carries; agreement
        # is therefore only to ~n*sqrt(clamp)/n ~ 1e-5 for ill-conditioned rings
        for n in (3, 8, 33, 64):
            for s in (0.1, 1.0, 10.0):
                success, _ = srm_holevo_yuen_residual(n, s)
                assert srm_symmetric(n, s).success == pytest.approx(success, abs=5e-5)

    def test_error_nondecreasing_in_states(self):
        for s in S_GRID:
            errors = [srm_symmetric(n, s).value for n in N_GRID]
            assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_optimality_certificate_small_n(self):
        # the docstring's theorem, checked numerically in a dense span basis:
        # the square-root measurement meets every optimality condition
        for n in (2, 3, 5, 8, 16, 33, 64):
            for s in (0.1, 1.0, 10.0, 100.0):
                assert srm_holevo_yuen_residual(n, s)[1] < 1e-12

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            srm_symmetric(1, 1.0)
        with pytest.raises(ValueError):
            srm_symmetric(4, -1.0)


class TestUsdSymmetric:
    def test_two_state_closed_form(self):
        for s in (0.1, 0.5, 2.0, 10.0):
            got = usd_symmetric(2, s).value
            assert got == pytest.approx(1.0 - math.exp(-2 * s), rel=1e-12)
            # two-pure-state unambiguous bound 1 - |<a|b>|
            assert got == pytest.approx(
                1.0 - abs(overlap(math.sqrt(s), -math.sqrt(s))), rel=1e-12)

    def test_success_kind(self):
        rep = usd_symmetric(2, 1.0)
        assert rep.kind == "success" and rep.method == "usd_spectrum"

    def test_never_beats_minimum_error_success(self):
        for n in N_GRID:
            for s in S_GRID:
                assert usd_symmetric(n, s).success <= srm_symmetric(n, s).success + 1e-10

    @pytest.mark.parametrize("N,S", ORACLE_POINTS)
    def test_matches_mpmath_spectrum(self, N, S):
        # the minima sit far below the double-precision DFT floor (3.03e-21
        # at N=2000, S=1e4); at N=2047, S=100 the true value, 1.9e-1836, is
        # below the double range and must come out as exactly 0
        want = ring_usd_success(N, S)
        got = usd_symmetric(N, S).value
        if want > 1e-300:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        else:
            assert got == 0.0

    def test_vacuum_gives_zero(self):
        assert usd_symmetric(8, 0.0).value == pytest.approx(0.0, abs=1e-12)


class TestBoundReport:
    def test_error_success_views(self):
        rep = BoundReport(0.3, "error", "closed_form")
        assert rep.error == 0.3 and rep.success == pytest.approx(0.7)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            BoundReport(1.2, "error", "closed_form")
        with pytest.raises(ValueError):
            BoundReport(0.2, "likelihood", "closed_form")


class TestEnsembleValidation:
    def test_probabilities_must_normalize(self):
        c = make_psk(2, 1.0)
        with pytest.raises(ValueError):
            WeightedEnsemble(c, np.array([0.5, 0.4]), np.array([0, 1]))

    def test_indices_in_range(self):
        c = make_psk(2, 1.0)
        with pytest.raises(ValueError):
            WeightedEnsemble(c, np.array([1.0]), np.array([4]))

    def test_negative_probability_rejected(self):
        c = make_psk(2, 1.0)
        with pytest.raises(ValueError):
            WeightedEnsemble(c, np.array([1.5, -0.5]), np.array([0, 1]))
