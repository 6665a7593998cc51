"""Quantum detection bounds: binary Helstrom (pure/mixed), square-root measurement,
quadrature receivers, and unambiguous discrimination of symmetric coherent states.

Hypotheses are equiprobable, as the cipher's data bits and key symbols are;
a mixed hypothesis is a probability vector over a constellation's points.

Symmetric (PSK) rings take their circulant Gram spectrum from one
log-domain closed form (Poisson mass by residue class, relative error under
1.2e-12 per eigenvalue against 60-digit mpmath at N <= 4096, S <= 3e4, no
clamp), which the minimum-error, antipodal-pair, unambiguous and
mixed-state Helstrom figures all read; every pair of mixtures on a ring,
the even/odd and half-ring pairs included, takes the one route in
``helstrom_binary_mixed``.  Weights that mirror onto themselves about some
point of the ring, as the half rings and the even/odd mixtures do, make that
route's matrices real up to a diagonal of phases, so it solves them in real
arithmetic.  ASK ladders, which are not circulant, read
the signed operator's spectrum from diag(w) G, G their real Gram matrix:
no basis is built and nothing is clamped.
The square-root measurement is optimal for every symmetric ring: in the
circulant basis the Holevo-Yuen conditions hold with equality (see
``srm_symmetric``), so no numerical certificate is computed.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads it on first use; load it with the module

from .constellation import (COHERENT_SIGMA, HETERODYNE_SIGMA, RULES, Constellation, ModulationKind,
                            _check, gaussian_tail, gram_matrix)


@dataclass(frozen=True)
class BoundReport:
    """A computed discrimination figure and the tag of the method that produced it."""

    value: float
    kind: str  # "error" | "success"
    # closed_form | ring_spectrum (PSK mixtures) | gram_eigen (ASK mixtures) |
    # srm_spectrum | pair_spectrum (antipodal pairs) | usd_spectrum |
    # quadrature | single_state | adjacent_pair (key symbols' lower bound)
    method: str

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability out of range: {self.value}")
        if self.kind not in ("error", "success"):
            raise ValueError(f"bad kind: {self.kind}")

    @property
    def error(self) -> float:
        return self.value if self.kind == "error" else 1.0 - self.value

    @property
    def success(self) -> float:
        return self.value if self.kind == "success" else 1.0 - self.value


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


def _distance(a, b) -> float:
    """|a - b| of two amplitudes, which must be finite."""
    za, zb = complex(a), complex(b)
    if not (cmath.isfinite(za) and cmath.isfinite(zb)):
        raise ValueError(f"the amplitudes must be finite; got {a}, {b}")
    return abs(za - zb)


def helstrom_binary_pure(a, b) -> BoundReport:
    """Minimum error probability between two equiprobable pure coherent states.

    Pe = (1 - sqrt(1 - |<a|b>|^2)) / 2 with |<a|b>|^2 = exp(-|a-b|^2).
    The discriminant is expanded as -expm1(-|a-b|^2) and the result as
    x / (2 (1 + sqrt(...))), which stays accurate both for nearly identical
    states (Pe just under 1/2) and for far ones (Pe near 0).
    """
    d = _distance(a, b)
    d2 = d * d  # overflows to inf where d ** 2 raises; the error is then exactly 0
    disc = -math.expm1(-d2) if d2 < 745.0 else 1.0
    x = math.exp(-d2) if d2 < 745.0 else 0.0
    pe = x / (2.0 * (1.0 + math.sqrt(disc)))
    return BoundReport(_clip01(pe), "error", "closed_form")


def quadrature_binary(a, b, mode: str = "homodyne") -> BoundReport:
    """Error of a Gaussian quadrature receiver deciding along the line a-b.

    Per-quadrature variance is 1/4 for homodyne and 1/2 for heterodyne (the
    simultaneous-measurement penalty adds one extra vacuum quarter); with a
    midpoint threshold Pe = Q(|a-b| / (2 sigma)).
    """
    if mode == "homodyne":
        sigma = COHERENT_SIGMA
    elif mode == "heterodyne":
        sigma = HETERODYNE_SIGMA
    else:
        raise ValueError(f"unknown mode: {mode}")
    d = _distance(a, b)
    return BoundReport(_clip01(gaussian_tail(d / (2.0 * sigma))), "error", "quadrature")


def helstrom_binary_mixed(c: Constellation, q0, q1) -> BoundReport:
    """Minimum error between two equiprobable mixtures of the points of ``c``.

    Hypothesis b is the mixture sum_j qb_j |a_j><a_j| of the probability
    vector qb over the 2M points.  Pe = 1/2 - Tr|Delta| / 2 with
    Delta = (rho1 - rho0) / 2 = sum_j w_j |a_j><a_j| and w_j = (q1_j - q0_j) / 2
    the signed point weights.  Two equal mixtures give w = 0, so Pe = 1/2
    exactly on either route.

    On a PSK ring of N = 2M points and energy S, point j has coordinates
    sqrt(lambda_k / N) omega^{jk} in the circulant eigenbasis, so
    Delta = D^{1/2} C D^{1/2} / N with D = diag(lambda) from the log-domain
    spectrum and C_kl = w^(k - l), w^(d) = sum_j w_j omega^{jd}.  Take the
    smallest shift s with 2s | N and w_{j+s} = -w_j (exactly, in floats).
    Then w^ vanishes except at odd multiples of g = N / 2s, and Delta splits
    into g bipartite blocks: E_r = r + 2g i against O_r = E_r + g (r < g,
    i < s), B_r = diag(root(E_r)) T diag(root(O_r)), T[i, i'] = w^(2g (i - i') - g)
    Toeplitz for every r, root = sqrt(lambda), and Tr|Delta| = (2/N) sum_r sum sigma(B_r).
    s = M (the half rings) is one M x M block; s = 1 (the even/odd
    mixtures) is M 1 x 1 blocks, Tr|Delta| = (2/N) |w^(M)|
    sum_{k<M} sqrt(lambda_k lambda_{k+M}).  Weights with no such shift take
    one N x N Hermitian eigensolve.  The spectrum's relative error, under
    1.2e-12 per eigenvalue, carries into Pe.

    Mirrored weights, w_{(c2 - j) mod N} = w_j for an integer c2 (the half
    rings: c2 = M - 1; the even/odd mixtures and w = 0: c2 = 0), give
    w^(d) = omega^{c2 d} conj(w^(d)), so kern(d) = w^(d) e^{-i pi c2 d / N} is
    real for every signed d = k - l in (-N, N); indexing by d mod N instead
    would lose the sign (-1)^{c2} of the wrapped half.  Delta equals
    P D^{1/2} K D^{1/2} P^* / N with K_kl = kern(k - l) real symmetric and
    P = diag(e^{i pi c2 k / N}) unitary, so the blocks B_r and the N x N
    matrix read Toeplitz views of kern in real arithmetic, with the same singular
    values and eigenvalues.  The candidate c2 is the argmax of the circular
    self-convolution sum_t w_t w_{c2 - t}, which by Cauchy-Schwarz reaches
    sum w^2 exactly at a mirror centre; it is then confirmed exactly, and any
    other weights keep the complex w^(d mod N).  The imaginary part dropped is
    the rounding of an exact zero, about 5e-16 of max |w^| on the half rings
    at N <= 1024, the same rounding the complex route carries.

    ASK ladders are not circulant.  The nonzero eigenvalues of Delta are
    those of diag(w) G, G the Gram matrix; it is similar to the Hermitian
    G^{1/2} diag(w) G^{1/2}, so its spectrum is real and Tr|Delta| is the sum
    of its absolute values.  A ladder's G is exactly real and is solved as
    such.  Against a 50-digit oracle the figure is within 1e-14.
    """
    q0, q1 = (np.asarray(q, dtype=float) for q in (q0, q1))
    for q in (q0, q1):
        if q.shape != (len(c),):
            raise ValueError(f"each hypothesis needs {len(c)} point probabilities")
        if not np.all(q >= 0):  # NaN fails this test too
            raise ValueError("probabilities must be nonnegative")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
    w = (q1 - q0) / 2
    if c.kind is ModulationKind.PSK:
        trace_norm = _ring_trace_norm(w, abs(c.amplitudes[0]) ** 2)
        return BoundReport(_clip01(0.5 - 0.5 * trace_norm), "error", "ring_spectrum")
    trace_norm = _gram_trace_norm(w, c.amplitudes)
    return BoundReport(_clip01(0.5 - 0.5 * trace_norm), "error", "gram_eigen")


def _gram_trace_norm(w: np.ndarray, amplitudes: np.ndarray) -> float:
    """Tr|sum_j w_j |a_j><a_j|| of any points, from the eigenvalues of
    diag(w) G, G their Gram matrix (see ``helstrom_binary_mixed``)."""
    g = gram_matrix(amplitudes)
    if not g.imag.any():  # exactly real, as on every ladder
        g = g.real
    return float(np.abs(np.linalg.eigvals(w[:, None] * g).real).sum())


def _ring_trace_norm(w: np.ndarray, S: float) -> float:
    """Tr|sum_j w_j |a_j><a_j|| over the N-point ring of energy S, from the
    circulant spectrum (see ``helstrom_binary_mixed``)."""
    N = len(w)
    root = np.exp(0.5 * _ring_log_spectrum(N, S))
    d = np.arange(1 - N, N)  # signed k - l; kern[d + N - 1] is the entry at k - l = d
    kern = N * np.fft.ifft(w)[d % N]
    # sum_t w_t w_{c - t} peaks at sum w^2 exactly when w mirrors about c / 2
    c2 = int(np.argmax(np.fft.irfft(np.fft.rfft(w) ** 2, N)))
    if np.array_equal(np.roll(w[::-1], c2 + 1), w):  # w_{(c2 - j) mod N} = w_j
        kern = (kern * np.exp(-1j * np.pi * (c2 * d % (2 * N)) / N)).real
    s = next((s for s in range(1, N // 2 + 1)
              if N % (2 * s) == 0 and np.array_equal(np.roll(w, -s), -w)), None)
    if s is not None:
        g = N // (2 * s)
        toeplitz = np.lib.stride_tricks.sliding_window_view(kern[g - 1::2 * g][:2 * s - 1], s)[:, ::-1]
        roots = root.reshape(s, 2, g).transpose(2, 1, 0)  # [r, 0] on E_r, [r, 1] on O_r
        blocks = roots[:, 0, :, None] * toeplitz
        blocks *= roots[:, 1, None, :]
        return 2.0 * float(np.linalg.svd(blocks, compute_uv=False).sum()) / N
    delta = root[:, None] * np.lib.stride_tricks.sliding_window_view(kern, N)[:, ::-1]  # kern(k - l)
    delta *= root
    return float(np.abs(np.linalg.eigvalsh(delta)).sum()) / N


def _ring_log_spectrum(N: int, S: float) -> np.ndarray:
    """log lambda_k of the circulant Gram matrix of N symmetric coherent states.

    Expanding exp(S w^j) in the overlap row gives the closed form
    lambda_k = N e^{-S} sum_{m = k (mod N)} S^m / m!, Poisson(S) mass summed by
    residue class.  Terms enter as log-ratios to the Poisson mode c = floor(S),
    log(S^(m-c) c! / m!) = sum_{j in (c, m]} log(S / j), and minus the sum over
    (m, c] below the mode: two cumulative sums outward from the mode, whose
    term is 1.  They are summed per class in the log domain and divided by
    their total so that sum_k lambda_k = N = Tr G, which applies e^{-S}
    without cancelling S-sized logs.  The window keeps every m within N + w
    of c, with w = ceil(12 (sqrt(S) + 1)); by log-concavity each dropped term
    is below e^-57 of a kept term of its own class.  Against 60-digit mpmath
    (N <= 4096, S <= 3e4) log lambda_k is within 1.2e-12 wherever lambda_k
    lies in the double range (a relative error of lambda_k), and within
    4e-15 |log lambda_k| below it, where every caller reads exactly 0;
    S = 0 gives exactly -inf off k = 0.  N and S obey ``RULES``, for every
    public figure that reads the spectrum.
    """
    _check("N", N)
    _check("S", S)
    c = math.floor(S)
    w = math.ceil(12.0 * (math.sqrt(S) + 1.0))
    lo = max(0, c - N - w) // N * N
    rows = (c + N + w - lo) // N + 1
    m = lo + np.arange(rows * N)
    i = c - lo  # the mode's position
    # S = 0: log(S / j) = -inf for every j > 0, so every m > 0 gets -inf
    with np.errstate(divide="ignore"):
        above = np.cumsum(np.log(S / m[i + 1:]))
        below = np.cumsum(np.log(m[i:0:-1] / S))[::-1]
        log_terms = np.concatenate([below, [0.0], above])
        by_class = log_terms.reshape(rows, N)
        # S = 0 leaves whole classes at -inf; a finite shift keeps them -inf, not nan
        top = np.maximum(by_class.max(axis=0), -np.finfo(float).max)
        per_class = top + np.log(np.exp(by_class - top).sum(axis=0))
    return math.log(N) + per_class - math.log(np.exp(log_terms).sum())


def srm_symmetric(N: int, S: float) -> BoundReport:
    """Minimum-error figure for N symmetric coherent states under uniform priors.

    The square-root measurement achieves the optimum for this ensemble (phase
    symmetry forces the least-favorable prior to be uniform, so the value is
    also the minimax one); its success probability is a^2 with
    a = sum_k sqrt(lambda_k) / N and lambda_k the circulant Gram eigenvalues
    from the log-domain spectrum (relative error under 1.2e-12 each, so the
    success is within 1.2e-12 relative).
    Reports the error probability.

    Optimality is a theorem (Ban, Kurokawa, Momose & Hirota 1997), not a
    numerical check: in the circulant eigenbasis state j has coordinates
    u_k = sqrt(lambda_k / N) omega^{jk} and the SRM gives
    Y = sum_j Pi_j rho_j / N = (a / N) diag(sqrt(lambda)).  Y - |alpha_0><alpha_0| / N
    is that diagonal minus a rank-one term, positive semidefinite exactly when
    the Sherman-Morrison test u^H Y^{-1} u / N = sum_k sqrt(lambda_k) / (N a)
    is at most 1; it equals 1, so the Holevo-Yuen conditions hold with
    equality for every ring.
    """
    success = float((np.exp(0.5 * _ring_log_spectrum(N, S)).sum() / N) ** 2)
    return BoundReport(_clip01(1.0 - success), "error", "srm_spectrum")


def pair_symmetric(M: int, S: float) -> BoundReport:
    """Minimum-error figure for the M antipodal pairs of the 2M-point ring of
    energy S under uniform priors, hypothesis k the mixture
    (|a_k><a_k| + |-a_k><-a_k|) / 2, a_k = a_0 e^{i pi k / M}.  Reports the error.

    Photon-number parity commutes with every pair: rho_k = |e_k><e_k| +
    |o_k><o_k| with the cats e_k, o_k = (|a_k> +- |-a_k>) / 2, and pinching
    by parity changes no outcome probability, so the optimum is the sum of
    the two blocks' optima.  Each block is a symmetric pure ensemble of M
    states, unnormalized Gram spectrum lambda_k / 2 over the even (odd) k of
    the 2M ring, whose square-root measurement is optimal (``srm_symmetric``):
    P_s = [(sum_{k even} sqrt(lambda_k))^2 + (sum_{k odd} sqrt(lambda_k))^2] / (2 M^2),
    within 1.2e-12 relative.
    """
    _check("M", M, RULES["bases"])
    root = np.exp(0.5 * _ring_log_spectrum(2 * M, S))
    success = float((root[0::2].sum() ** 2 + root[1::2].sum() ** 2) / (2 * M * M))
    return BoundReport(_clip01(1.0 - success), "error", "pair_spectrum")


def usd_symmetric(N: int, S: float) -> BoundReport:
    """Unambiguous-discrimination success probability for N symmetric states.

    P_D = N * min_k |c_k|^2 where
    |c_k|^2 = (1/N) sum_j exp(2*pi*i*j*k/N) exp(S (exp(2*pi*i*j/N) - 1))
            = e^{-S} sum_{m = -k (mod N)} S^m / m! = lambda_{-k} / N,
    so P_D is the smallest eigenvalue of the log-domain spectrum, to 1.2e-12
    relative; values below the double range are exactly 0.
    """
    p_d = math.exp(float(_ring_log_spectrum(N, S).min()))
    return BoundReport(_clip01(p_d), "success", "usd_spectrum")
