"""Independent test oracles, computed without the package's own routines.

``ring_spectrum_mpmath`` is the 60-digit circulant Gram spectrum of a
symmetric coherent-state ring; ``ring_mixture_helstrom`` reads the Helstrom
error of any signed mixture over that ring from it, and
``ladder_mixture_helstrom`` computes the same figure on a real-amplitude
ladder.  ``full_slab_errors``
counts the eavesdropper's MAP errors by scoring every sample against every
constellation point; ``pair_sum_map`` is its symbol decision when the slot's
polarity is unknown, ciphertext-only or under OSK.  ``keystream_bits`` packs each
slot's key index from single stream bits; ``bob_nearest_bits`` is Bob's
keyed decision as the nearer point of each slot's pair.
``pair_block_srm_success`` is the optimum for the antipodal pairs of a ring,
from the square-root measurement of each parity block's cat states.
``srm_holevo_yuen_residual``
checks the optimality conditions of the square-root measurement on a symmetric ring in the span
basis, and ``symmetric_symbol_error_mc`` samples the heterodyne symbol error
of the same ring.
``neighbor_chord`` and ``neighbor_confusion`` read the closest adjacent
points of a built constellation.
``hadamard_radix2`` is the plain stage-by-stage Walsh-Hadamard loop.
``heterodyne_sample_sum`` is the heterodyne tap written as one expression.
``RED_CLAIMS`` lists the reproduce checks whose published reference the true
figure cannot meet; each entry carries the oracle for the measured figure, the
claim's own stated band and a check that the claim's detail string is true.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from scipy.special import logsumexp

from alphaeta.attacks import EmpiricalRate
from alphaeta.channel import apply_loss
from alphaeta.cipher import lfsr_stream
from alphaeta.constellation import ModulationKind


@functools.lru_cache(maxsize=None)
def ring_spectrum_mpmath(N, S):
    """60-digit circulant Gram spectrum lambda_k = N e^-S sum_{m = k mod N} S^m/m!,
    summed term by term until every class has a term, m > S, and the term is
    below 1e-80 of the smallest class sum.  Past the mode the terms fall
    geometrically, so what is left of any class is a small multiple of that.
    The class sums only grow, so their minimum, taken once per sweep of the
    N classes, is a lower bound between sweeps."""
    with mpmath.workdps(60):
        s = mpmath.mpf(S)
        tol = mpmath.mpf(10) ** -80
        term = mpmath.exp(-s)
        sums = [mpmath.mpf(0)] * N
        floor = mpmath.mpf(0)  # min(sums) at the last full sweep
        m = 0
        while m <= s or term > tol * floor:
            sums[m % N] += term
            m += 1
            term = term * s / m
            if m % N == 0:
                floor = min(sums)
        return [N * x for x in sums]


def ring_usd_success(N, S) -> float:
    """Unambiguous-discrimination success N min_k |c_k|^2 = min_k lambda_k."""
    with mpmath.workdps(60):
        return float(min(ring_spectrum_mpmath(N, S)))


def ring_srm_success(N, S) -> float:
    """Square-root-measurement success (sum_k sqrt(lambda_k) / N)^2."""
    with mpmath.workdps(60):
        lam = ring_spectrum_mpmath(N, S)
        return float((mpmath.fsum(mpmath.sqrt(x) for x in lam) / N) ** 2)


def ring_even_odd_helstrom(M, S) -> float:
    """Helstrom error between the even and odd mixtures of the 2M-point ring,
    1/2 - sum_{k<M} sqrt(lambda_k lambda_{k+M}) / (2M), at 60 digits."""
    with mpmath.workdps(60):
        lam = ring_spectrum_mpmath(2 * M, S)
        return float(mpmath.mpf(1) / 2
                     - mpmath.fsum(mpmath.sqrt(lam[k] * lam[k + M]) for k in range(M)) / (2 * M))


def ring_mixture_helstrom(w, S) -> float:
    """Helstrom error 1/2 - Tr|Delta| / 2 of Delta = sum_j w_j |a_j><a_j| over
    the N = len(w) point ring of energy S, at 60 digits: in the circulant
    eigenbasis Delta_kl = sqrt(lambda_k lambda_l) w^(k - l) / N with
    w^(d) = sum_j w_j omega^{jd}, and its eigenvalues come from mpmath."""
    N = len(w)
    with mpmath.workdps(60):
        root = [mpmath.sqrt(x) for x in ring_spectrum_mpmath(N, S)]
        w_hat = [mpmath.fsum(mpmath.mpf(w[j]) * mpmath.expjpi(mpmath.mpf(2 * j * d) / N)
                             for j in range(N)) for d in range(N)]
        delta = mpmath.matrix(N, N)
        for k in range(N):
            for l in range(N):
                delta[k, l] = root[k] * root[l] * w_hat[(k - l) % N] / N
        eig = mpmath.eighe(delta, eigvals_only=True)
        return float(mpmath.mpf(1) / 2 - mpmath.fsum(abs(e) for e in eig) / 2)


def pair_block_srm_success(M, S) -> float:
    """Optimum success for the M antipodal-pair mixtures of the 2M-point ring
    of energy S under uniform priors, at 60 digits, from the cat states.

    The pair mixture rho_k is |e_k><e_k| + |o_k><o_k| with the cats
    e_k, o_k = (|a_k> +- |-a_k>) / 2, a_k = sqrt(S) w^k, w = e^{i pi / M}.
    Parity splits the problem into two symmetric pure ensembles, so the
    optimum is the sum of their square-root-measurement successes
    sum_k ((Phi^{1/2})_kk)^2, with Phi the Gram matrix of the cats weighted
    by 1/M: e^{-S} cosh(S w^(k-j)) / M for the even block and
    e^{-S} sinh(S w^(k-j)) / M for the odd.  Each Phi is positive definite
    at the sizes used (M <= 16), and its square root comes from mpmath's
    Hermitian eigensolve, with no eigenvalue clamped."""
    with mpmath.workdps(60):
        s = mpmath.mpf(S)
        total = mpmath.mpf(0)
        for block in (mpmath.cosh, mpmath.sinh):
            phi = mpmath.matrix(M, M)
            for j in range(M):
                for k in range(M):
                    phi[j, k] = mpmath.exp(-s) * block(s * mpmath.expjpi(mpmath.mpf(k - j) / M)) / M
            lam, vec = mpmath.eighe(phi)
            if min(lam) <= 0:
                raise ValueError("the cats' Gram matrix is singular at this precision")
            root = vec * mpmath.diag([mpmath.sqrt(x) for x in lam]) * vec.H
            total += mpmath.fsum(abs(root[k, k]) ** 2 for k in range(M))
        return float(total)


def ladder_mixture_helstrom(amps, w) -> float:
    """Helstrom error 1/2 - Tr|Delta| / 2 of Delta = sum_j w_j |a_j><a_j| over
    real amplitudes, at 50 digits: the nonzero eigenvalues of Delta are those
    of G^{1/2} diag(w) G^{1/2}, with G_ij = exp(-(a_i - a_j)^2 / 2) the Gram
    matrix and G^{1/2} from its eigendecomposition."""
    n = len(amps)
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(x.real)) for x in amps]
        gram = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram[i, j] = mpmath.exp(-(a[i] - a[j]) ** 2 / 2)
        lam, vec = mpmath.eigsy(gram)
        # G is PSD: eigenvalues that rounding leaves below 0 are 0
        root = vec * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in lam]) * vec.T
        eig = mpmath.eigsy(root * mpmath.diag([mpmath.mpf(x) for x in w]) * root,
                           eigvals_only=True)
        return float(mpmath.mpf(1) / 2 - mpmath.fsum(abs(e) for e in eig) / 2)


def even_odd_mixtures(c) -> tuple[np.ndarray, np.ndarray]:
    """Uniform probability vectors over the even- and odd-index points of a
    constellation."""
    even = np.tile([2.0 / len(c), 0.0], len(c) // 2)
    return even, np.roll(even, 1)


def srm_holevo_yuen_residual(N, S) -> tuple[float, float]:
    """Square-root-measurement success on the N-point ring of energy S and its
    Holevo-Yuen residual, from a dense span basis.

    The states' coordinates come from an eigendecomposition of their Gram
    matrix (directions below 1e-10 of the largest eigenvalue projected out);
    the SRM vectors are the normalized coordinate rows.  With uniform priors
    p = 1/N the measurement is optimal when Y - p rho_j >= 0 for every j,
    Y = sum_i p Pi_i rho_i.  The residual is the worst negative eigenvalue of
    those N operators (0 when all hold), folded with the hermiticity defect
    of Y.
    """
    amps = np.sqrt(S) * np.exp(2j * np.pi * np.arange(N) / N)
    gram = np.exp(-S + np.conj(amps)[:, None] * amps[None, :])
    lam, vec = np.linalg.eigh(gram)
    keep = lam > 1e-10 * lam.max()
    coords = np.sqrt(lam[keep])[:, None] * vec[:, keep].conj().T
    meas = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    p = 1.0 / N
    amp_match = np.einsum("di,di->i", meas.conj(), coords)
    success = float(p * np.sum(np.abs(amp_match) ** 2))
    upsilon = p * (meas * amp_match[None, :]) @ coords.conj().T
    herm_defect = float(np.abs(upsilon - upsilon.conj().T).max())
    upsilon = 0.5 * (upsilon + upsilon.conj().T)
    worst = min(0.0, min(float(np.linalg.eigvalsh(upsilon - p * np.outer(c, c.conj()))[0])
                         for c in coords.T))
    return success, max(-worst, herm_defect)


def symmetric_symbol_error_mc(N, S, trials, rng) -> EmpiricalRate:
    """Heterodyne symbol error of N symmetric states under uniform symbols,
    decoded by nearest phase; no cipher machinery, so N need not be a power
    of two."""
    symbols = rng.integers(0, N, size=trials)
    amps = np.sqrt(S) * np.exp(2j * np.pi * symbols / N)
    y = amps + rng.normal(0, np.sqrt(0.5), trials) + 1j * rng.normal(0, np.sqrt(0.5), trials)
    guess = np.round(np.angle(y) / (2 * np.pi / N)).astype(np.int64) % N
    p = float(np.mean(guess != symbols))
    return EmpiricalRate(p, float(np.sqrt(max(p * (1 - p), 1.0 / trials) / trials)), trials)


def full_slab_errors(record, config, kind, plaintext) -> int:
    """MAP error count of one eavesdropper attack ("ctoa_data", "ctoa_key" or
    "kpa_key"), scoring every sample against all 2M points at once.  A key
    symbol whose polarity is unknown, ciphertext-only or under OSK, is the
    pair of its two points (``pair_sum_map``)."""
    beta = apply_loss(config.constellation().amplitudes, config.kappa)
    ll = -np.abs(record.samples[:, None] - beta[None, :]) ** 2
    M = config.M
    x = np.asarray(plaintext, dtype=np.int64)
    if kind == "ctoa_data":
        # bit b sits on the half {k + b M}; OSK marginalizes it onto the whole ring
        sets = [np.arange(2 * M)] * 2 if config.osk else [np.arange(M), np.arange(M, 2 * M)]
        l0, l1 = (logsumexp(ll[:, s], axis=1) for s in sets)
        return int(np.sum((l1 > l0).astype(np.int64) != x))
    if kind == "ctoa_key" or config.osk:
        guess = pair_sum_map(record.samples, beta)
    else:
        cand = np.where(x[:, None] == 0, np.arange(M)[None, :], np.arange(M)[None, :] + M)
        guess = np.argmax(np.take_along_axis(ll, cand, axis=1), axis=1)
    return int(np.sum(guess != keystream_bits(config, len(record)) % M))


def pair_sum_map(samples, beta) -> np.ndarray:
    """Each sample's symbol k maximizing the sum of the likelihoods of its two
    points {k, k + M}, over all M symbols; ties go to the lowest symbol."""
    M = len(beta) // 2
    ll = -np.abs(samples[:, None] - beta[None, :]) ** 2
    return np.argmax(np.logaddexp(ll[:, :M], ll[:, M:]), axis=1)


def keystream_bits(config, count) -> np.ndarray:
    """The per-slot key index k_t + r_t M packed bit by bit: log2(M) stream
    bits per slot from ``lfsr_stream``, the first the most significant, under
    the OSK polarity bit r_t, the reciprocal register's bit t (0 without OSK)."""
    bps = config.bits_per_symbol
    bits = lfsr_stream(config.seed, config.taps, count * bps, config.key_bits).reshape(count, bps)
    p = np.zeros(count, dtype=np.int64)
    if config.osk:  # the polarity is the top bit, above the symbol's
        p |= lfsr_stream(config.seed, config.osk_taps, count, config.key_bits)
    for column in bits.T:  # most significant bit first
        p <<= 1
        p |= column
    return p


def bob_nearest_bits(values, config) -> np.ndarray:
    """Bob's keyed bits by brute force: each slot decodes to the bit of the
    nearer point of its pair, bit 0 at k + r M and bit 1 at k + (1 - r) M
    (mod 2M) among the launched points times sqrt(kappa), with the symbol k
    and the OSK polarity r (0 without OSK) packed bit by bit
    (``keystream_bits``); a tie decodes to 0."""
    y = np.asarray(values, dtype=np.complex128)
    M = config.M
    p = keystream_bits(config, len(y))
    k, r = p % M, p // M
    beta = math.sqrt(config.kappa) * config.constellation().amplitudes
    far0 = np.abs(y - beta[(k + r * M) % (2 * M)])
    far1 = np.abs(y - beta[(k + (1 - r) * M) % (2 * M)])
    return (far1 < far0).astype(np.int64)


def heterodyne_sample_sum(amplitudes, rng):
    """Amplitudes plus complex noise of variance 1/2 per quadrature, with every
    real quadrature drawn before any imaginary one."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    sigma = math.sqrt(0.5)
    return amps + (rng.normal(0.0, sigma, amps.shape) + 1j * rng.normal(0.0, sigma, amps.shape))


def neighbor_chord(c) -> float:
    """Smallest distance |beta_{j+1} - beta_j| between adjacent points of a
    built constellation, wrapping from the last point to the first on a ring."""
    amps = c.amplitudes
    if c.kind is ModulationKind.PSK:
        amps = np.append(amps, amps[0])
    return float(np.abs(np.diff(amps)).min())


def neighbor_confusion(c) -> float:
    """Midpoint-threshold error Q(d / 2 sigma) = Q(d) between the closest
    adjacent points, d their chord and sigma = 1/2 the quadrature noise."""
    return 0.5 * math.erfc(neighbor_chord(c) / math.sqrt(2.0))


def hadamard_radix2(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a copy of ``a`` along its last
    axis, one radix-2 stage at a time: stage i maps each pair (lo, hi) of
    entries 2^i apart to (lo + hi, lo - hi)."""
    a = np.array(a, dtype=float)
    for i in range(a.shape[-1].bit_length() - 1):
        pair = a.reshape(-1, 2, 1 << i)
        lo, hi = pair[:, 0].copy(), pair[:, 1].copy()
        pair[:, 0], pair[:, 1] = lo + hi, lo - hi
    return a


def dft_spectrum_floor(N, S) -> float:
    """Magnitude of the most negative eigenvalue that a double-precision DFT
    of the ring's overlap row exp(S (omega^j - 1)) reports; the exact
    spectrum is positive, so this is the DFT's noise floor."""
    j = np.arange(N)
    with np.errstate(under="ignore"):
        row = np.exp(S * (np.exp(2j * np.pi * j / N) - 1.0))
    return abs(float(np.fft.fft(row).real.min()))


SLOPE_GRID = np.arange(2.0, 5.01, 0.5)


def homodyne_log_error(s: np.ndarray) -> np.ndarray:
    """ln Q(2 sqrt(S)) = ln(erfc(sqrt(2 S)) / 2) for the states +-sqrt(S)."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.log(mpmath.erfc(mpmath.sqrt(2 * mpmath.mpf(x))) / 2))
                         for x in s])


def homodyne_slope() -> float:
    """Least-squares slope of ln Pe against S over SLOPE_GRID."""
    return float(np.polyfit(SLOPE_GRID, homodyne_log_error(SLOPE_GRID), 1)[0])


def homodyne_exponent_without_prefactor() -> float:
    """Coefficient on S once a log-S regressor absorbs the tail's prefactor."""
    a = np.vstack([SLOPE_GRID, np.log(SLOPE_GRID), np.ones_like(SLOPE_GRID)]).T
    return float(np.linalg.lstsq(a, homodyne_log_error(SLOPE_GRID), rcond=None)[0][0])


def _in_usd_band(x: float) -> bool:
    return 1e-12 <= x <= 9e-12


def _in_srm_band(x: float) -> bool:
    return abs(x - 0.2) <= 0.05


def _in_slope_band(x: float) -> bool:
    return abs(x / -2.0 - 1.0) <= 0.05


def _check_usd_detail(detail: str) -> None:
    # the detail attributes the 3e-12 reference to the DFT noise floor
    assert "60-digit" in detail and "DFT" in detail
    assert _in_usd_band(dft_spectrum_floor(2000, 1e4))


def _check_srm_detail(detail: str) -> None:
    # the detail places the N=2000 success above the band and the N=2047
    # success, which rounds to the reference 0.2, inside it
    excess = ring_srm_success(2000, 1e4) - 0.25
    succ_2047 = ring_srm_success(2047, 1e4)
    assert excess > 0 and f"{excess:.5f} above" in detail
    assert _in_srm_band(succ_2047) and round(succ_2047, 1) == 0.2
    assert f"{succ_2047:.6f}" in detail


def _check_slope_detail(detail: str) -> None:
    # the detail quotes the exponent left once the prefactor is absorbed
    corrected = homodyne_exponent_without_prefactor()
    assert _in_slope_band(corrected)
    assert f"{corrected:.4f}" in detail


@dataclass(frozen=True)
class RedClaim:
    truth: Callable[[], float]       # oracle for the claim's measured figure
    tolerance: dict                  # pytest.approx arguments, measured vs truth
    in_band: Callable[[float], bool]  # the claim's own stated band
    check_detail: Callable[[str], None]


RED_CLAIMS = {
    "2a": RedClaim(lambda: ring_usd_success(2000, 1e4), dict(rel=1e-9, abs=0.0),
                   _in_usd_band, _check_usd_detail),
    "2c": RedClaim(lambda: ring_srm_success(2000, 1e4), dict(abs=1e-11),
                   _in_srm_band, _check_srm_detail),
    "3b": RedClaim(homodyne_slope, dict(abs=1e-9),
                   _in_slope_band, _check_slope_detail),
}
