"""Eavesdropper strategies and security metrics.

Eve's simulated receiver is the heterodyne tap of ``channel.transmit``, the
only record the package makes, followed by optimal classical
post-processing (MAP over Gaussian mixture likelihoods, scored over the
points within reach of each sample with a recorded bound on the mass left
out); quantum-optimal attacks enter only as bounds, so the empirical/bound
gap stays visible.
The exhaustive key-posterior oracle scores every seed of any register up to
22 bits with one Walsh-Hadamard transform over the seed space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import MeasurementRecord, apply_loss
from .cipher import CipherConfig, _lfsr_extend, running_key
from .constellation import ModulationKind
from .detection import (
    BoundReport,
    WeightedEnsemble,
    helstrom_binary_mixed,
    srm_symmetric,
    usd_symmetric,
)

_CHUNK = 4096  # slots per likelihood block
# Likelihood mass a window may leave out, relative to the nearest point's:
# below the 2^-53 rounding of the decisions' own sums, so no MAP decision
# can turn on it.
_DROPPED_MASS_TOL = 2.0 ** -60
_POSTERIOR_MAX_KEY_BITS = 22  # largest register the key posterior enumerates


@dataclass(frozen=True)
class EmpiricalRate:
    """A measured probability with its Monte Carlo standard error."""

    value: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class AttackReport:
    attack_kind: str  # ctoa_data | ctoa_key | kpa_key
    empirical: EmpiricalRate
    bound: BoundReport
    seed: int | None = None
    # largest per-slot bound on the likelihood mass the MAP window left out,
    # relative to the nearest point's; 0.0 when it scored every point
    dropped_mass_bound: float = 0.0


def _rate(errors: int, n: int) -> EmpiricalRate:
    p = errors / n
    return EmpiricalRate(p, math.sqrt(max(p * (1 - p), 1.0 / n) / n), n)


def bit_hypothesis_ensembles(config: CipherConfig) -> tuple[WeightedEnsemble, WeightedEnsemble]:
    """Eve's ciphertext-only hypothesis mixtures for data bit 0 and 1.

    Bit b occupies indices {k + (b xor r) M}: without OSK these are the two
    half-rings; with OSK the polarity bit is marginalized and both hypotheses
    become the same uniform mixture over all 2M points (the one-time-pad
    situation).
    """
    c = config.constellation()
    M = config.M
    if config.osk:
        all_idx = np.arange(2 * M)
        return (WeightedEnsemble.uniform(c, all_idx), WeightedEnsemble.uniform(c, all_idx))
    return (WeightedEnsemble.uniform(c, np.arange(M)),
            WeightedEnsemble.uniform(c, np.arange(M, 2 * M)))


def _window(y: np.ndarray, beta: np.ndarray, kind: ModulationKind,
            half: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """The constellation points within reach of each sample: their indices
    (slots x width), their log-likelihoods -|y - beta_j|^2 (up to a constant,
    heterodyne variance 1/2 per quadrature) and the bound on the likelihood
    mass left out, relative to the nearest point's.

    The window is the 2w+1 points around the nearest one.  On the PSK ring
    the centre comes from the phase of y and the indices wrap mod 2M; on the
    ASK ladder it comes from Re y and the window is clamped inside [0, 2M).
    Every dropped point is at least g(w) further in squared distance than the
    nearest, g(w) = 2|y| r (cos(pi/2M) - cos((w+1/2) pi/M)) on a ring of
    radius r and step^2 w(w+1) on a ladder, so the dropped mass is at most
    (2M-2w-1) e^{-g(w)}.  w is the smallest half-width whose bound at the
    chunk's smallest |y| is below _DROPPED_MASS_TOL; when none is, the window
    is the whole constellation in index order (ties break as in a full scan)
    and the bound 0.  ``half`` (one bit per slot) widens the window until it
    holds a point of each slot's half {k + half M}; the window holds the
    points nearest y, so it then holds that half's nearest point.
    """
    n = len(beta)
    M = n // 2
    w_all = np.arange(M)  # half-widths whose window 2w+1 < 2M
    if kind is ModulationKind.PSK:
        centre = np.rint(np.angle(y) * (n / (2 * math.pi))).astype(np.int64) % n
        gap = 2 * np.abs(y).min() * abs(beta[0]) * (
            math.cos(math.pi / n) - np.cos((2 * w_all + 1) * (math.pi / n)))
    else:
        step = beta[1].real - beta[0].real
        centre = np.clip(np.rint((y.real - beta[0].real) / step), 0, n - 1).astype(np.int64)
        gap = step ** 2 * w_all * (w_all + 1)
    log_bound = np.log(n - 1 - 2 * w_all) - gap  # decreasing in w
    fits = np.flatnonzero(log_bound <= math.log(_DROPPED_MASS_TOL))
    w = int(fits[0]) if len(fits) else M
    if half is not None:
        lo = half * M  # the half's first index; it runs to lo + M - 1
        if kind is ModulationKind.PSK:
            rel = (centre - lo) % n
            reach = np.where(rel < M, 0, np.minimum(rel - (M - 1), n - rel))
        else:
            reach = np.maximum(0, np.maximum(lo - centre, centre - (lo + M - 1)))
        w = max(w, int(reach.max()))
    if 2 * w + 1 >= n:
        idx = np.broadcast_to(np.arange(n), (len(y), n))
        bound = 0.0
    else:
        offsets = np.arange(2 * w + 1)
        if kind is ModulationKind.PSK:
            idx = (centre[:, None] - w + offsets) % n
        else:
            idx = np.clip(centre - w, 0, n - 1 - 2 * w)[:, None] + offsets
        bound = math.exp(log_bound[w])
    return idx, -np.abs(y[:, None] - beta[idx]) ** 2, bound


def _pick(idx: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Per row, the index whose score is largest (first on ties)."""
    return np.take_along_axis(idx, np.argmax(score, axis=1)[:, None], axis=1)[:, 0]


def eve_ctoa_data(record: MeasurementRecord, config: CipherConfig, truth,
                  seed: int | None = None) -> AttackReport:
    """Ciphertext-only attack on the data: per-slot MAP bit decision.

    Likelihoods are prior-weighted Gaussian mixtures over each bit's index
    set, summed over the window of points within reach (``_window``); the
    reported bound is the mixed-state Helstrom value for the same two
    hypothesis ensembles.  With OSK both sets are the whole ring, so every
    slot is a tie, decided as 0.
    """
    truth = np.asarray(truth, dtype=np.int64)
    if len(truth) != len(record):
        raise ValueError("record and plaintext lengths differ")
    rho0, rho1 = bit_hypothesis_ensembles(config)
    c = rho0.constellation
    beta = apply_loss(c.amplitudes, config.kappa)
    member = np.zeros((2, len(c)), dtype=bool)
    member[0, rho0.indices] = member[1, rho1.indices] = True
    errors, dropped = 0, 0.0
    for lo in range(0, len(record), _CHUNK):
        y = record.samples[lo:lo + _CHUNK]
        idx, ll, bound = _window(y, beta, c.kind)
        # likelihoods relative to each row's nearest point, which is 1
        lik = np.exp(ll - ll.max(axis=1, keepdims=True))
        s0, s1 = (np.where(m[idx], lik, 0.0).sum(axis=1) for m in member)
        guess = (s1 > s0).astype(np.int64)
        errors += int(np.sum(guess != truth[lo:lo + len(y)]))
        dropped = max(dropped, bound)
    return AttackReport("ctoa_data", _rate(errors, len(record)),
                        helstrom_binary_mixed(rho0, rho1), seed,
                        dropped_mass_bound=dropped)


def eve_key_symbol(record: MeasurementRecord, config: CipherConfig,
                   plaintext=None, seed: int | None = None) -> AttackReport:
    """Attack on the running-key symbol, known-plaintext or ciphertext-only.

    With known plaintext the per-slot candidates are the M states of symbol k
    (two antipodal points each under OSK, polarity marginalized); without it
    all 2M states compete and the symbol estimate is the index mod M.  Only
    the window of points within reach is scored (``_window``).  The bound is
    the symmetric-ensemble optimum at N = M (known plaintext) or N = 2M
    (ciphertext-only); a known plaintext at M = 1 leaves one candidate, whose
    bound is an error of exactly 0 (method ``single_state``).
    """
    beta = apply_loss(config.constellation().amplitudes, config.kappa)
    M = config.M
    n = len(record)
    k_true = np.asarray(running_key(config, n), dtype=np.int64)
    known = plaintext is not None
    x = np.asarray(plaintext, dtype=np.int64) if known else None
    if known and len(x) != n:
        raise ValueError("record and plaintext lengths differ")

    errors, dropped = 0, 0.0
    for lo in range(0, n, _CHUNK):
        y = record.samples[lo:lo + _CHUNK]
        xb = x[lo:lo + len(y)] if known and not config.osk else None
        idx, ll, bound = _window(y, beta, config.kind, half=xb)
        if not known:
            guess = _pick(idx, ll) % M
        elif config.osk:
            # symbol k appears as k + (x xor r) M with r marginalized; window
            # positions i and i + M hold the antipodal pair of one symbol
            q = max(0, idx.shape[1] - M)
            pair = np.concatenate([np.logaddexp(ll[:, :q], ll[:, M:M + q]), ll[:, q:M]], axis=1)
            guess = _pick(idx[:, :pair.shape[1]], pair) % M
        else:
            guess = _pick(idx, np.where(idx // M == xb[:, None], ll, -np.inf)) % M
        errors += int(np.sum(guess != k_true[lo:lo + len(y)]))
        dropped = max(dropped, bound)

    if known and M == 1:  # one candidate symbol: the guess cannot err
        bound = BoundReport(0.0, "error", "single_state")
    else:
        bound = srm_symmetric(M if known else 2 * M, config.S)
    kind = "kpa_key" if known else "ctoa_key"
    return AttackReport(kind, _rate(errors, n), bound, seed, dropped_mass_bound=dropped)


# --- exhaustive key posterior ------------------------------------------------

def _hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of the C-contiguous float array
    ``a`` along its last axis, whose length is a power of two; in place."""
    for i in range(a.shape[-1].bit_length() - 1):
        pair = a.reshape(-1, 2, 1 << i)
        lo, hi = pair[:, 0], pair[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    return a


def _seed_masks(taps: int, k: int, count: int) -> np.ndarray:
    """Output bit j < count of the register started at seed s is
    parity(mask_j & s), for any taps and every seed: by linearity mask_j
    holds bit j of each unit seed's stream, the recurrence run on 1 << b."""
    return _lfsr_extend(1 << np.arange(k, dtype=np.int64), taps, k, count)


def key_posterior_entropy(record: MeasurementRecord, config: CipherConfig,
                          plaintext) -> float:
    """Shannon entropy (bits) of the exact key posterior given Eve's record.

    Scores all 2^|K|-1 seeds against the Gaussian record and normalizes;
    this is the brute-force key-security oracle, for any taps and |K| <= 22
    (_POSTERIOR_MAX_KEY_BITS; over 682 slots |K| = 22 takes about 0.6 s and
    a 100 MB tracemalloc peak, |K| = 24 would take 390 MB).  Every keyed bit
    is parity(mask & s) for a seed mask (``_seed_masks``), so slot t's
    log-likelihood is a table f_t(z) over its z = symbol bits (plus the
    polarity bit under OSK), and each Walsh character u of f_t is the
    character of one seed mask v_t(u).  The characters of all slots are
    summed into one 2^|K| table whose Walsh-Hadamard transform is every
    seed's log-likelihood: O(slots * 2M + |K| 2^|K|) time,
    O(2^|K| + slots log2 2M + chunk * 2M) memory.
    """
    k = config.key_bits
    if k > _POSTERIOR_MAX_KEY_BITS:
        raise ValueError(f"exhaustive posterior is limited to |K| <= {_POSTERIOR_MAX_KEY_BITS}")
    x = np.asarray(plaintext, dtype=np.int64)
    slots = len(record)
    if len(x) != slots:
        raise ValueError("record and plaintext lengths differ")
    M, bps = config.M, config.bits_per_symbol
    zbits = bps + config.osk  # z = polarity * M + symbol
    beta = apply_loss(config.constellation().amplitudes, config.kappa)
    z = np.arange(1 << zbits)
    # slot t's z bit i < bps is stream bit t*bps + bps-1-i (the symbol is
    # big-endian); bit bps is its polarity bit
    bit_masks = _seed_masks(config.taps, k, slots * bps).reshape(slots, bps)[:, ::-1]
    if config.osk:
        bit_masks = np.column_stack([bit_masks, _seed_masks(config.osk_taps, k, slots)])
    coeff = np.zeros(1 << k)
    for lo in range(0, slots, _CHUNK):
        t = np.arange(lo, min(lo + _CHUNK, slots))
        # point sym + (x xor polarity) M, i.e. (z + x M) mod 2M
        pts = beta[(z + x[t, None] * M) % (2 * M)]
        f = _hadamard(-np.abs(record.samples[t, None] - pts) ** 2) / len(z)
        v = np.zeros((len(t), 1), dtype=np.int64)
        for i in range(zbits):  # character u's mask: the XOR of its bits' masks
            v = np.concatenate([v, v ^ bit_masks[t, i:i + 1]], axis=1)
        coeff += np.bincount(v.ravel(), weights=f.ravel(), minlength=1 << k)
    coeff[0] = 0.0  # the same for every seed
    loglik = _hadamard(coeff)[1:]

    top = loglik.max()
    log_post = loglik - (top + math.log(np.exp(loglik - top).sum()))
    return max(0.0, float(-(np.exp(log_post) @ log_post) / math.log(2)))


# --- closed-form security metrics --------------------------------------------

def collective_success(per_slot_pd: float, L: int) -> float:
    """log2 of the joint success probability pd^L.

    The optimal collective measurement over product hypotheses factorizes
    into per-slot measurements, so the joint success is the per-slot success
    to the L-th power; it is returned in log2 because the value itself
    underflows at once for realistic L.
    """
    if not 0.0 <= per_slot_pd <= 1.0:
        raise ValueError("per_slot_pd out of range")
    if L < 1:
        raise ValueError("L must be >= 1")
    if per_slot_pd == 0.0:
        return -math.inf
    return L * math.log2(per_slot_pd)


def collective_usd_bound(N: int, S: float, key_bits: int) -> tuple[float, bool]:
    """Collective unambiguous-attack success over one key's worth of slots.

    L = floor(|K| / log2 N) slots carry the key; the collective success is the
    per-slot unambiguous success to the L-th power (log2-domain), compared
    against the 2^-|K| pure-guessing line.
    """
    pd = usd_symmetric(N, S).value
    L = max(1, int(key_bits / math.log2(N)))
    log2_pd = collective_success(pd, L)
    return log2_pd, log2_pd < -key_bits
