import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alphaeta.constellation import (
    Constellation,
    ModulationKind,
    gaussian_tail,
    gram_matrix,
    make_ask,
    make_psk,
)
from alphaeta.detection import (
    _ring_log_spectrum,
    BoundReport,
    helstrom_binary_mixed,
    helstrom_binary_pure,
    pair_symmetric,
    quadrature_binary,
    srm_symmetric,
    usd_symmetric,
)

from oracles import (
    even_odd_mixtures,
    ladder_mixture_helstrom,
    pair_block_srm_success,
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
    ov = gram_matrix(np.array([a, b]))[0, 1]
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

    @pytest.mark.parametrize("a, b", [(1e154, 0.0), (1e200, 0.0), (1e300, -1e300),
                                      (0.0, 1e200j)])
    def test_far_states_err_exactly_never(self, a, b):
        # |a - b|^2 overflows a double: the error is exactly 0, as the
        # homodyne receiver's is, not an OverflowError
        assert helstrom_binary_pure(a, b).value == 0.0
        assert quadrature_binary(a, b).value == 0.0

    @given(amplitudes, amplitudes)
    def test_never_errorless_for_overlapping_states(self, a, b):
        rep = helstrom_binary_pure(a, b)
        if abs(gram_matrix(np.array([a, b]))[0, 1]) > 0:
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


class TestBinaryInputs:
    # a NaN distance fails every comparison, so these bounds used to come out
    # as an error of exactly 0 instead of raising
    @pytest.mark.parametrize("bound", [
        helstrom_binary_pure,
        quadrature_binary,
        lambda a, b: quadrature_binary(a, b, "heterodyne"),
    ], ids=["helstrom", "homodyne", "heterodyne"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                     complex(1.0, math.nan), complex(0.0, math.inf),
                                     complex(-math.inf, 1.0)])
    def test_non_finite_amplitude_raises(self, bound, bad):
        for a, b in ((bad, 0.0), (1.0, bad), (bad, bad)):
            with pytest.raises(ValueError, match="finite"):
                bound(a, b)


class TestHelstromMixed:
    def test_equal_ensembles(self):
        # w = 0 gives exactly 1/2 on the ring and on the ladder
        for c, method in [(make_psk(4, 2.0), "ring_spectrum"),
                          (make_ask(4, 1.5, 6.0, 1.0), "gram_eigen")]:
            q = np.full(8, 1 / 8)
            rep = helstrom_binary_mixed(c, q, q)
            assert rep.value == 0.5 and rep.method == method

    def test_singletons_reduce_to_pure(self):
        c = make_psk(4, 3.0)
        for i, j in [(0, 4), (1, 3), (2, 7)]:
            mixed = helstrom_binary_mixed(c, np.eye(8)[i], np.eye(8)[j])
            pure = helstrom_binary_pure(c.amplitudes[i], c.amplitudes[j])
            assert mixed.value == pytest.approx(pure.value, abs=1e-10)

    @pytest.mark.parametrize("M,S", [(2, 0.7), (2, 2.5)])
    def test_four_state_dense_oracle(self, M, S):
        c = make_psk(M, S)
        q0, q1 = np.array([0.7, 0.3, 0.0, 0.0]), np.array([0.0, 0.0, 0.55, 0.45])
        got = helstrom_binary_mixed(c, q0, q1).value
        want = ring_mixture_helstrom((q1 - q0) / 2, S)
        assert got == pytest.approx(want, rel=0, abs=1e-15)

    def test_ask_ladder_dense_oracle(self):
        # ladders are not circulant: they take the Gram eigenvalue route
        c = make_ask(2, 1.5, 6.0, 1.0)
        q0, q1 = np.array([0.7, 0.3, 0.0, 0.0]), np.array([0.0, 0.0, 0.6, 0.4])
        rep = helstrom_binary_mixed(c, q0, q1)
        assert rep.method == "gram_eigen"
        assert rep.value == pytest.approx(ladder_mixture_helstrom(c.amplitudes, (q1 - q0) / 2),
                                          rel=0, abs=1e-14)

    def test_designed_even_odd_mixtures_near_half(self):
        c = make_psk(512, 4000.0)
        rep = helstrom_binary_mixed(c, *even_odd_mixtures(c))
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
            got = helstrom_binary_mixed(c, *even_odd_mixtures(c)).value
            # the gap, about 1.3e-11 at (256, 2000), is the rounding of this
            # oracle's own DFT of the overlap row, not of the ring route
            assert got == pytest.approx(want, abs=1e-10)

    def test_mixing_congruent_pairs_never_helps(self):
        # each added pair is a rotated copy of the base antipodal pair, so the
        # pure-pair error lower-bounds the mixture error (triangle inequality)
        c = make_psk(8, 1.5)
        pure = helstrom_binary_pure(c.amplitudes[0], c.amplitudes[8]).value
        q0 = 0.8 * np.eye(16)[0] + 0.2 * np.eye(16)[2]
        assert helstrom_binary_mixed(c, q0, np.roll(q0, 8)).value >= pure - 1e-12


class TestHelstromRing:
    """The spectrum route that every pair of mixtures on a PSK ring takes."""

    @staticmethod
    def half_rings(M, S, skewed=False):
        # skewed: bit 0's half ring is weighted 1 : 3 from first to last point,
        # so w_{j+s} != -w_j for every shift and the route takes the N x N eigensolve
        half = np.linspace(1.0, 3.0, M) if skewed else np.ones(M)
        q0 = np.concatenate([half / half.sum(), np.zeros(M)])
        q1 = np.concatenate([np.zeros(M), np.full(M, 1 / M)])
        return make_psk(M, S), q0, q1

    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    def test_half_rings_match_dense_oracle(self, M):
        c, q0, q1 = self.half_rings(M, 10.0)
        rep = helstrom_binary_mixed(c, q0, q1)
        assert rep.method == "ring_spectrum"
        want = ring_mixture_helstrom((q1 - q0) / 2, 10.0)
        assert rep.value == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("S", [0.5, 1.3])
    def test_low_energy_half_rings_match_dense_oracle(self, S):
        # 16 points at S <= 1.3 are nearly linearly dependent: a span basis
        # would drop directions, while the route reads every eigenvalue
        c, q0, q1 = self.half_rings(8, S)
        rep = helstrom_binary_mixed(c, q0, q1)
        assert rep.method == "ring_spectrum"
        want = ring_mixture_helstrom((q1 - q0) / 2, S)
        assert rep.value == pytest.approx(want, rel=0, abs=1e-15)

    def test_unequal_weights_match_dense_oracle(self):
        # w_{j+M} != -w_j, so the route takes the full Hermitian eigensolve
        c = make_psk(4, 10.0)
        q0 = np.array([0.7, 0.2, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0])
        q1 = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0])
        rep = helstrom_binary_mixed(c, q0, q1)
        assert rep.method == "ring_spectrum"
        assert rep.value == pytest.approx(ring_mixture_helstrom((q1 - q0) / 2, 10.0),
                                          rel=0, abs=1e-15)

    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_matches_span_route(self, skewed):
        # the same points labelled as a ladder take the Gram eigenvalue route,
        # on their complex Gram matrix
        c, q0, q1 = self.half_rings(64, 100.0, skewed)
        ladder = Constellation(c.amplitudes, ModulationKind.ASK)
        gram = helstrom_binary_mixed(ladder, q0, q1)
        assert gram.method == "gram_eigen"
        assert helstrom_binary_mixed(c, q0, q1).value == pytest.approx(gram.value, abs=1e-12)

    def test_kind_named_by_its_value_routes_as_a_ring(self):
        c, q0, q1 = self.half_rings(4, 10.0, False)
        named = Constellation(c.amplitudes, "psk")
        assert helstrom_binary_mixed(named, q0, q1) == helstrom_binary_mixed(c, q0, q1)

    @pytest.mark.parametrize("N, S", [(8, 5.0), (16, 50.0)])
    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_matches_mpmath_oracle(self, N, S, skewed):
        c, q0, q1 = self.half_rings(N // 2, S, skewed)
        want = ring_mixture_helstrom((q1 - q0) / 2, S)
        got = helstrom_binary_mixed(c, q0, q1).value
        assert got == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("M, S", [(16, 5.0), (64, 100.0)])
    def test_even_odd_mixtures_match_pairing_formula(self, M, S):
        c = make_psk(M, S)
        rep = helstrom_binary_mixed(c, *even_odd_mixtures(c))
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
        q0, q1 = np.where(first, 0.0, q), np.where(first, q, 0.0)
        w = (q1 - q0) / 2
        assert np.array_equal(np.roll(w, -s), -w)
        got = helstrom_binary_mixed(make_psk(N // 2, S), q0, q1).value
        assert got == pytest.approx(ring_mixture_helstrom(w, S), rel=0, abs=1e-15)

    def test_designed_half_rings(self):
        # M = 512, S = 4000: a span basis clamped at 1e-10 left this 6.7e-12 high
        rep = helstrom_binary_mixed(*self.half_rings(512, 4000.0))
        assert rep.value == pytest.approx(0.0015669998138, rel=0, abs=1e-13)

    @staticmethod
    def spy(monkeypatch, name):
        """Record the dtype of every matrix passed to np.linalg.<name>."""
        dtypes, solver = [], getattr(np.linalg, name)

        def recording(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
        return dtypes

    @staticmethod
    def split(w):
        """Hypotheses q0, q1 whose signed weights (q1 - q0) / 2 are w,
        for w summing to 0 with sum |w| = 1."""
        return np.where(w < 0, -2 * w, 0.0), np.where(w > 0, 2 * w, 0.0)

    def test_mirrored_shift_antisymmetric_weights_take_real_blocks(self, monkeypatch):
        # the period-8 pattern (a, b, b, a, -a, -b, -b, -a): w_{j+4} = -w_j and
        # w_{3-j} = w_j, so Delta splits into two real 4 x 4 blocks (s = 4 < M = 8)
        N, S = 16, 5.0
        w = np.tile([0.3, 0.2, 0.2, 0.3, -0.3, -0.2, -0.2, -0.3], 2) / 4
        dtypes = self.spy(monkeypatch, "svd")
        got = helstrom_binary_mixed(make_psk(N // 2, S), *self.split(w)).value
        assert dtypes == [np.float64]
        assert got == pytest.approx(ring_mixture_helstrom(w, S), rel=0, abs=1e-15)

    def test_mirrored_weights_without_shift_take_real_eigensolve(self, monkeypatch):
        # bit 0's half ring weighted 1 : 2 : 2 : 1 and bit 1's uniform: mirrored
        # about (M - 1) / 2 with no antisymmetric shift, so the N x N route runs real
        M, S = 4, 5.0
        c, _, q1 = self.half_rings(M, S)
        q0 = np.concatenate([[1.0, 2.0, 2.0, 1.0], np.zeros(M)]) / 6
        dtypes = self.spy(monkeypatch, "eigvalsh")
        got = helstrom_binary_mixed(c, q0, q1).value
        assert dtypes == [np.float64]
        assert got == pytest.approx(ring_mixture_helstrom((q1 - q0) / 2, S), rel=0, abs=1e-15)

    def test_near_mirror_takes_complex_route(self, monkeypatch):
        # one entry 1e-3 off the mirror image: the self-convolution still peaks
        # at the old centre, but the exact check sends the weights down the
        # complex route
        M, S = 4, 5.0
        c, _, q1 = self.half_rings(M, S)
        q0 = np.concatenate([[1.0, 2.0, 2.0, 1.0], np.zeros(M)]) / 6
        q0[:2] += [1e-3, -1e-3]
        dtypes = self.spy(monkeypatch, "eigvalsh")
        got = helstrom_binary_mixed(c, q0, q1).value
        assert dtypes == [np.complex128]
        assert got == pytest.approx(ring_mixture_helstrom((q1 - q0) / 2, S), rel=0, abs=1e-15)

    def test_designed_half_rings_take_a_real_svd(self, monkeypatch):
        dtypes = self.spy(monkeypatch, "svd")
        helstrom_binary_mixed(*self.half_rings(512, 4000.0))
        assert dtypes == [np.float64]

    @pytest.mark.parametrize("skewed, limit", [(False, 3 * 2**20), (True, 20 * 2**20)],
                             ids=["half-rings", "skewed"])
    def test_memory_is_one_block_set(self, skewed, limit):
        # the blocks and the N x N matrix are Toeplitz views of the kernel,
        # scaled by the roots in place: at M = 512 the real half-ring block
        # is 2 MiB and the complex skewed matrix 16 MiB, with no index array
        # or gather beside them
        c, q0, q1 = self.half_rings(512, 4000.0, skewed)
        helstrom_binary_mixed(c, q0, q1)
        tracemalloc.start()
        try:
            helstrom_binary_mixed(c, q0, q1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestHelstromLadder:
    """The Gram eigenvalue route that mixtures on an ASK ladder take."""

    @pytest.mark.parametrize("M, S_min, S_max", [(4, 1.5, 6.0), (8, 2.0, 4.0)])
    @pytest.mark.parametrize("skewed", [False, True], ids=["halves", "skewed"])
    def test_matches_mpmath_oracle(self, M, S_min, S_max, skewed):
        # dense ladders: the Gram matrix's smallest eigenvalues lie far below
        # 1e-10 of its largest, the directions a span basis would drop
        c = make_ask(M, S_min, S_max, 1.0)
        ramp = np.linspace(1.0, 3.0, 2 * M) if skewed else np.repeat([1.0, 0.0], M)
        q0 = ramp / ramp.sum()
        q1 = np.repeat([0.0, 1.0 / M], M)
        rep = helstrom_binary_mixed(c, q0, q1)
        assert rep.method == "gram_eigen"
        want = ladder_mixture_helstrom(c.amplitudes, (q1 - q0) / 2)
        assert rep.value == pytest.approx(want, rel=0, abs=1e-14)


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
        c = make_psk(2, S)
        q_even, q_odd = even_odd_mixtures(c)
        want = ring_mixture_helstrom((q_odd - q_even) / 2, S)
        assert helstrom_binary_mixed(c, q_even, q_odd).value == pytest.approx(want, rel=0,
                                                                             abs=1e-15)


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
        # the oracle's span basis projects out Gram directions below 1e-10
        # relative, whose square roots the exact spectrum route still carries;
        # agreement is therefore only to ~n*sqrt(clamp)/n ~ 1e-5 for
        # ill-conditioned rings
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

    @pytest.mark.parametrize("bound", [srm_symmetric, usd_symmetric])
    @pytest.mark.parametrize("S", [math.nan, math.inf])
    def test_rejects_non_finite_energy(self, bound, S):
        # not a bare math.floor error from the spectrum
        with pytest.raises(ValueError, match="S must be finite and >= 0"):
            bound(2, S)


class TestPairSymmetric:
    # hypothesis k is the mixture of the antipodal points {k, k + M}

    @pytest.mark.parametrize("S", [0.3, 1.0, 4.0])
    def test_two_pairs_are_the_even_odd_helstrom(self, S):
        # at M = 2 the pairs {0, 2} and {1, 3} are the even and odd mixtures
        c = make_psk(2, S)
        want = helstrom_binary_mixed(c, *even_odd_mixtures(c)).value
        assert pair_symmetric(2, S).value == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("M, S", [(2, 0.3), (4, 1.0), (8, 0.5), (8, 4.0), (16, 1.0),
                                      (16, 25.0)])
    def test_matches_the_cat_block_oracle(self, M, S):
        rep = pair_symmetric(M, S)
        assert rep.kind == "error" and rep.method == "pair_spectrum"
        assert rep.success == pytest.approx(pair_block_srm_success(M, S), rel=0, abs=1e-13)

    def test_limits(self):
        # one pair cannot be confused; the vacuum leaves a guess among M;
        # far-separated pairs are told apart
        assert pair_symmetric(1, 3.0).value == pytest.approx(0.0, abs=1e-15)
        for M in (2, 8, 64):
            assert pair_symmetric(M, 0.0).success == pytest.approx(1.0 / M, abs=1e-15)
        assert pair_symmetric(4, 1e4).value == pytest.approx(0.0, abs=1e-12)

    def test_coarser_than_the_whole_ring(self):
        # naming the point names its pair: reading the 2M-ring's optimal
        # measurement mod M succeeds at least as often on the pairs
        for M in (2, 8, 64, 512):
            for S in (0.5, 10.0, 4000.0):
                assert pair_symmetric(M, S).success >= srm_symmetric(2 * M, S).success - 1e-12

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            pair_symmetric(0, 1.0)
        with pytest.raises(ValueError, match="S must be finite and >= 0"):
            pair_symmetric(4, -1.0)


class TestUsdSymmetric:
    def test_two_state_closed_form(self):
        for s in (0.1, 0.5, 2.0, 10.0):
            got = usd_symmetric(2, s).value
            assert got == pytest.approx(1.0 - math.exp(-2 * s), rel=1e-12)
            # two-pure-state unambiguous bound 1 - |<a|b>|
            assert got == pytest.approx(
                1.0 - abs(gram_matrix(make_psk(1, s))[0, 1]), rel=1e-12)

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
    """The checks ``helstrom_binary_mixed`` makes of its probability vectors."""

    GOOD = np.array([0.25, 0.25, 0.25, 0.25])

    def test_probabilities_must_normalize(self):
        for c in (make_psk(2, 1.0), make_ask(2, 1.5, 6.0, 1.0)):
            with pytest.raises(ValueError, match="sum to 1"):
                helstrom_binary_mixed(c, np.array([0.5, 0.4, 0.0, 0.0]), self.GOOD)
            # within 1e-12 of 1 passes
            helstrom_binary_mixed(c, self.GOOD + 2e-13, self.GOOD)

    def test_indices_in_range(self):
        # one probability per point of the constellation
        c = make_psk(2, 1.0)
        for q in (np.array([1.0]), np.full(5, 0.2), np.full((2, 2), 0.25)):
            with pytest.raises(ValueError, match="4 point probabilities"):
                helstrom_binary_mixed(c, q, self.GOOD)

    def test_negative_probability_rejected(self):
        c = make_psk(2, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            helstrom_binary_mixed(c, self.GOOD, np.array([1.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("c", [make_psk(2, 1.0), make_ask(2, 1.5, 6.0, 1.0)],
                             ids=["ring", "ladder"])
    def test_nan_probability_rejected(self, c):
        # by the probability rule, not as a LinAlgError from the eigensolver
        with pytest.raises(ValueError, match="nonnegative"):
            helstrom_binary_mixed(c, self.GOOD, np.array([np.nan, 0.5, 0.5, 0.0]))
