"""Quantum detection bounds: binary Helstrom (pure/mixed), square-root measurement,
quadrature receivers, and unambiguous discrimination of symmetric coherent states.

Symmetric (PSK) rings take their circulant Gram spectrum from one
log-domain closed form (Poisson mass by residue class, relative error under
1.2e-12 per eigenvalue against 60-digit mpmath at N <= 4096, S <= 3e4, no
clamp), which the minimum-error, unambiguous and
mixed-state Helstrom figures all read; every pair of mixtures on a ring,
the even/odd and half-ring pairs included, takes the one route in
``helstrom_binary_mixed``.  Only ASK ladders, which are not
circulant, are worked in the span of the occurring coherent points
(dimension <= number of states), never in a truncated photon-number basis;
span Gram eigenvalues are clamped at a relative tolerance of 1e-10.
The square-root measurement is optimal for every symmetric ring: in the
circulant basis the Holevo-Yuen conditions hold with equality (see
``srm_symmetric``), so no numerical certificate is computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads it on first use; load it with the module

from .constellation import Constellation, ModulationKind, gaussian_tail, gram_matrix

EIG_CLAMP_REL = 1e-10


@dataclass(frozen=True)
class BinaryPrior:
    p0: float = 0.5
    p1: float = 0.5

    def __post_init__(self):
        if self.p0 < 0 or self.p1 < 0:
            raise ValueError("priors must be nonnegative")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")


EQUAL_PRIORS = BinaryPrior(0.5, 0.5)


@dataclass(frozen=True)
class WeightedEnsemble:
    """A mixed state: probability-weighted coherent points of one constellation."""

    constellation: Constellation
    probabilities: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "indices", idx)
        if len(p) != len(idx) or len(p) == 0:
            raise ValueError("probabilities and indices must be nonempty and aligned")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if idx.min() < 0 or idx.max() >= len(self.constellation):
            raise ValueError("point index out of range")

    @classmethod
    def uniform(cls, constellation: Constellation, indices) -> "WeightedEnsemble":
        idx = np.asarray(indices, dtype=int)
        return cls(constellation, np.full(len(idx), 1.0 / len(idx)), idx)

    @classmethod
    def pure(cls, constellation: Constellation, index: int) -> "WeightedEnsemble":
        return cls(constellation, np.array([1.0]), np.array([index]))


@dataclass(frozen=True)
class BoundReport:
    """A computed discrimination figure and the tag of the method that produced it."""

    value: float
    kind: str  # "error" | "success"
    # closed_form | equal_mixtures | ring_spectrum (PSK mixtures) |
    # span_eigen (ASK mixtures) | srm_spectrum | usd_spectrum |
    # quadrature | single_state
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


def helstrom_binary_pure(a, b, prior: BinaryPrior = EQUAL_PRIORS) -> BoundReport:
    """Minimum error probability between two pure coherent states.

    Pe = (1 - sqrt(1 - 4 p0 p1 |<a|b>|^2)) / 2 with |<a|b>|^2 = exp(-|a-b|^2).
    The discriminant is expanded as (p0-p1)^2 - 4 p0 p1 expm1(-|a-b|^2) and the
    result as x / (2 (1 + sqrt(...))), which stays accurate both for nearly
    identical states (Pe just under 1/2) and for far ones (Pe near 0).
    """
    d2 = abs(complex(a) - complex(b)) ** 2
    p0, p1 = prior.p0, prior.p1
    disc = (p0 - p1) ** 2 - 4.0 * p0 * p1 * math.expm1(-d2) if d2 < 745.0 \
        else 1.0
    ov2 = math.exp(-d2) if d2 < 745.0 else 0.0
    x = 4.0 * p0 * p1 * ov2
    pe = x / (2.0 * (1.0 + math.sqrt(max(0.0, disc))))
    return BoundReport(_clip01(pe), "error", "closed_form")


def quadrature_binary(a, b, mode: str = "homodyne") -> BoundReport:
    """Error of a Gaussian quadrature receiver deciding along the line a-b.

    Per-quadrature variance is 1/4 for homodyne and 1/2 for heterodyne (the
    simultaneous-measurement penalty adds one extra vacuum quarter); with a
    midpoint threshold Pe = Q(|a-b| / (2 sigma)).
    """
    if mode == "homodyne":
        sigma = 0.5
    elif mode == "heterodyne":
        sigma = math.sqrt(0.5)
    else:
        raise ValueError(f"unknown mode: {mode}")
    d = abs(complex(a) - complex(b))
    return BoundReport(_clip01(gaussian_tail(d / (2.0 * sigma))), "error", "quadrature")


def _span_coordinates(amplitudes: np.ndarray) -> np.ndarray:
    """Orthonormal-basis coordinates of each coherent point within their span.

    Rank-revealing eigendecomposition of the Gram matrix; directions with
    eigenvalue below EIG_CLAMP_REL * max are projected out, not errors.
    Returns A of shape (dim, n) with A[:, i] the coordinates of state i,
    so that A^H A reproduces the Gram matrix up to the projection.
    """
    g = gram_matrix(amplitudes)
    lam, vec = np.linalg.eigh(g)
    keep = lam > EIG_CLAMP_REL * lam.max()
    lam_k = lam[keep]
    vec_k = vec[:, keep]
    return (np.sqrt(lam_k)[:, None] * vec_k.conj().T)


def _ensemble_matrix(coords: np.ndarray, ens: WeightedEnsemble, scale: float) -> np.ndarray:
    cols = coords[:, ens.indices]
    return (cols * (scale * ens.probabilities)[None, :]) @ cols.conj().T


def helstrom_binary_mixed(rho0: WeightedEnsemble, rho1: WeightedEnsemble,
                          prior: BinaryPrior = EQUAL_PRIORS) -> BoundReport:
    """Minimum error between two coherent-state mixtures.

    Pe = 1/2 - Tr|Delta| / 2 with Delta = p1 rho1 - p0 rho0 = sum_j w_j |a_j><a_j|
    and w_j = p1 q1_j - p0 q0_j the signed point weights.  Two equal mixtures
    give Tr|Delta| = |p1 - p0|, so Pe = min(p0, p1) exactly.

    On a PSK ring of N = 2M points and energy S, point j has coordinates
    sqrt(lambda_k / N) omega^{jk} in the circulant eigenbasis, so
    Delta = D^{1/2} C D^{1/2} / N with D = diag(lambda) from the log-domain
    spectrum and C_kl = w^(k - l), w^(d) = sum_j w_j omega^{jd}.  Take the
    smallest shift s with 2s | N and w_{j+s} = -w_j (exactly, in floats).
    Then w^ vanishes except at odd multiples of g = N / 2s, and Delta splits
    into g bipartite blocks: E_r = r + 2g i against O_r = E_r + g (r < g,
    i < s), B_r[i, i'] = root(E_r[i]) w^(E_r[i] - O_r[i']) root(O_r[i'])
    with root = sqrt(lambda), and Tr|Delta| = (2/N) sum_r sum sigma(B_r).
    s = M (the half rings at equal priors) is one M x M block; s = 1 (the
    even/odd mixtures) is M 1 x 1 blocks, Tr|Delta| = (2/N) |w^(M)|
    sum_{k<M} sqrt(lambda_k lambda_{k+M}).  Weights with no such shift take
    one N x N Hermitian eigensolve.  No span projection is involved; the
    spectrum's relative error, under 1.2e-12 per eigenvalue, carries into Pe.
    ASK ladders are not circulant and are solved exactly in the span of the
    constellation.
    """
    c0, c1 = rho0.constellation, rho1.constellation
    if c0 is not c1 and not np.array_equal(c0.amplitudes, c1.amplitudes):
        raise ValueError("ensembles must reference the same constellation")
    weights = [np.bincount(r.indices, r.probabilities, minlength=len(c0)) for r in (rho0, rho1)]
    if np.array_equal(*weights):
        return BoundReport(min(prior.p0, prior.p1), "error", "equal_mixtures")
    if c0.kind is ModulationKind.PSK:
        w = prior.p1 * weights[1] - prior.p0 * weights[0]
        trace_norm = _ring_trace_norm(w, abs(c0.amplitudes[0]) ** 2)
        return BoundReport(_clip01(0.5 - 0.5 * trace_norm), "error", "ring_spectrum")
    coords = _span_coordinates(c0.amplitudes)
    delta = (_ensemble_matrix(coords, rho1, prior.p1)
             - _ensemble_matrix(coords, rho0, prior.p0))
    eig = np.linalg.eigvalsh(delta)
    trace_norm = float(np.abs(eig).sum())
    return BoundReport(_clip01(0.5 - 0.5 * trace_norm), "error", "span_eigen")


def _ring_trace_norm(w: np.ndarray, S: float) -> float:
    """Tr|sum_j w_j |a_j><a_j|| over the N-point ring of energy S, from the
    circulant spectrum (see ``helstrom_binary_mixed``)."""
    N = len(w)
    root = np.exp(0.5 * _ring_log_spectrum(N, S))
    w_hat = N * np.fft.ifft(w)
    s = next((s for s in range(1, N // 2 + 1)
              if N % (2 * s) == 0 and np.array_equal(np.roll(w, -s), -w)), None)
    if s is not None:
        g = N // (2 * s)
        even = np.arange(g)[:, None] + 2 * g * np.arange(s)
        odd = even + g
        blocks = (root[even][:, :, None] * w_hat[(even[:, :, None] - odd[:, None, :]) % N]
                  * root[odd][:, None, :])
        return 2.0 * float(np.linalg.svd(blocks, compute_uv=False).sum()) / N
    k = np.arange(N)
    delta = root[:, None] * w_hat[(k[:, None] - k) % N] * root
    return float(np.abs(np.linalg.eigvalsh(delta)).sum()) / N


def _check_ring(N: int, S: float) -> None:
    if N < 2:
        raise ValueError("need at least two states")
    if S < 0:
        raise ValueError("S must be nonnegative")


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
    S = 0 gives exactly -inf off k = 0.
    """
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
    _check_ring(N, S)
    success = float((np.exp(0.5 * _ring_log_spectrum(N, S)).sum() / N) ** 2)
    return BoundReport(_clip01(1.0 - success), "error", "srm_spectrum")


def usd_symmetric(N: int, S: float) -> BoundReport:
    """Unambiguous-discrimination success probability for N symmetric states.

    P_D = N * min_k |c_k|^2 where
    |c_k|^2 = (1/N) sum_j exp(2*pi*i*j*k/N) exp(S (exp(2*pi*i*j/N) - 1))
            = e^{-S} sum_{m = -k (mod N)} S^m / m! = lambda_{-k} / N,
    so P_D is the smallest eigenvalue of the log-domain spectrum, to 1.2e-12
    relative; values below the double range are exactly 0.
    """
    _check_ring(N, S)
    p_d = math.exp(float(_ring_log_spectrum(N, S).min()))
    return BoundReport(_clip01(p_d), "success", "usd_spectrum")
