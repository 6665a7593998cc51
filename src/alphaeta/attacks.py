"""Eavesdropper strategies and security metrics.

Eve's simulated receiver is the heterodyne tap of ``channel.transmit``, the
only record the package makes, followed by optimal classical
post-processing.  The data-bit MAP is the nearer of its two hypotheses'
centroids, whose halves mirror each other.  Key symbols follow one rule:
with the slot's polarity unknown (ciphertext-only, or any attack under OSK)
symbol k is the pair of points {k, k + M}, whose MAP is the nearest point
mod M on a PSK ring, where the pair is antipodal, and a pair sum over the
run of points that a ln 2 certificate leaves in reach on an ASK ladder;
with the bit known and no OSK it is the nearest point of the known half.
Every attack decision is exact: no likelihood mass is left out of it.
Quantum-optimal attacks enter only as bounds on the same ensembles, so the
empirical/bound gap stays visible.
The exhaustive key-posterior oracle scores every seed of any register up to
22 bits with one Walsh-Hadamard transform over the seed space; each slot's
Walsh characters are read from tables the constellation fixes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import MeasurementRecord, received
from .cipher import CipherConfig, _bits, _index_masks, _state_indices
from .constellation import RULES, ModulationKind, _check
from .detection import (
    BoundReport,
    helstrom_binary_mixed,
    helstrom_binary_pure,
    pair_symmetric,
    usd_symmetric,
)

_CHUNK = 4096  # slots per likelihood block
_POSTERIOR_MAX_BITS = 22  # log2 of the posterior's largest table: seeds, or a block's entries


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


def _per_slot(record: MeasurementRecord, values: np.ndarray, what: str = "plaintext") -> np.ndarray:
    """``values``, one per slot of ``record``; the one length rule of every attack."""
    if len(values) != len(record):
        raise ValueError(f"record and {what} lengths differ")
    return values


def _rate(errors: int, n: int) -> EmpiricalRate:
    if n == 0:
        raise ValueError("the record holds no slots")
    p = errors / n
    return EmpiricalRate(p, math.sqrt(max(p * (1 - p), 1.0 / n) / n), n)


def bit_hypotheses(config: CipherConfig) -> np.ndarray:
    """Eve's ciphertext-only hypotheses for data bit 0 and 1: row b is the
    probability of each of the 2M points given bit b.

    Bit b occupies indices {k + (b xor r) M}: without OSK these are the two
    half-rings, uniform over their M points; with OSK the polarity bit is
    marginalized and both hypotheses become the same uniform mixture over all
    2M points (the one-time-pad situation).
    """
    M = config.M
    if config.osk:
        return np.full((2, 2 * M), 1.0 / (2 * M))
    return np.repeat(np.eye(2), M, axis=1) / M


def _nearest(y: np.ndarray, beta: np.ndarray, kind: ModulationKind,
             half: np.ndarray | None = None) -> np.ndarray:
    """Each sample's most likely point of the run lo, ..., lo + last: all 2M
    points, or the known half {k + half M} (one bit per sample).  The
    likelihood falls with the angle to the point on a ring and with
    |Re y - point| on a ladder, so the sample's position along the run,
    rounded and clamped to it, is the nearest candidate; ring angles are
    taken from the run's middle, so a sample outside a half goes to the
    nearer end.  Ties go to the lower index, as in a full scan: halves round
    down, so a sample exactly between two ladder points takes the lower, and
    at S = 0, where every point ties, lo wins."""
    M = len(beta) // 2
    lo, last = (0, 2 * M - 1) if half is None else (half * M, M - 1)
    if not beta.any():
        pos = np.zeros(len(y))
    elif kind is ModulationKind.PSK:
        if half is None:
            turn = np.exp(-1j * math.pi * (lo + last / 2) / M)
        else:  # the two halves' turns, gathered: no per-sample exp
            turn = np.exp(-1j * math.pi * (np.array([0, M]) + last / 2) / M)[half]
        pos = np.angle(y * turn) * (M / math.pi) + last / 2
    else:
        pos = (y.real - beta[0].real) / (beta[1].real - beta[0].real) - lo
    # ceil(pos - 1/2) rounds half down; np.rint would round half to even
    return lo + np.clip(np.ceil(pos - 0.5), 0, last).astype(np.int64)


def _ladder_pair_map(y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Each sample's symbol MAP on a ladder when its polarity is unknown:
    symbol k is the pair of points {k, k + M}, whose two likelihoods add.

    With d* the distance from y to the nearest point, a symbol whose two
    points both lie farther than sqrt(d*^2 + ln 2) sums to less than
    2 e^{-d*^2 - ln 2} = e^{-d*^2}, the nearest point's own term, so it
    cannot win.  On a ladder of step delta the points w + 1 or more steps
    from the nearest one are at least delta^2 w(w+1) > ln 2 further in
    squared distance, for w = ceil(sqrt(delta^2/4 + ln 2) / delta).  So the
    candidates are the symbols of the 2w+1 points around the nearest
    (``_nearest``), clamped inside [0, 2M): the whole ladder when
    2w+1 >= 2M.  Each is scored with both of its points, and ties go to the
    lowest symbol, as in a scan of all M symbols.
    """
    n, M = len(beta), len(beta) // 2
    step = beta[1].real - beta[0].real
    w = math.ceil(math.sqrt(step ** 2 / 4 + math.log(2)) / step)
    width = min(2 * w + 1, n)
    start = np.clip(_nearest(y, beta, ModulationKind.ASK) - w, 0, n - width)
    k = (start[:, None] + np.arange(width)) % M
    # log-likelihoods -|y - beta_j|^2, up to a constant (heterodyne variance
    # 1/2 per quadrature), rounded as a scan of every point rounds them, so
    # near-ties fall the same way
    y = y[:, None]
    score = np.logaddexp(-np.abs(y - beta[k]) ** 2, -np.abs(y - beta[k + M]) ** 2)
    return np.where(score == score.max(axis=1, keepdims=True), k, M).min(axis=1)


def eve_ctoa_data(record: MeasurementRecord, config: CipherConfig, truth) -> AttackReport:
    """Ciphertext-only attack on the data: per-slot MAP bit decision.

    Bit b's likelihood sums the Gaussian likelihoods of the points its
    hypothesis (``bit_hypotheses``) holds, and the MAP decision is the
    nearer of the two hypotheses' centroids c_b = q_b . beta: the side of
    their perpendicular bisector l the sample falls on.  Without OSK half 1
    is the mirror image of half 0 across l: on a ring it is the antipode of
    an arc narrower than pi and symmetric about angle pi (M-1)/2M, on a
    ladder the reflection in Re z = (beta_0 + beta_{2M-1})/2.  With d the
    signed distance to l, which has one sign over half 0, a point p of
    half 0 and its mirror p' give |y - p'|^2 - |y - p|^2 = 4 d(y) d(p), so
    every such pair, and with them the sums, favour half 0 exactly when y is
    on its side.  Under OSK both hypotheses are the same row, the centroids
    are equal and every slot is an exact tie, decided 0, as at S = 0.  The
    reported bound is the mixed-state Helstrom value for the same two
    hypotheses over the same received points.
    """
    truth = _per_slot(record, _bits(truth))
    q = bit_hypotheses(config)
    c = received(config)
    c0, c1 = (row @ c.amplitudes for row in q)  # one call per row: equal rows, equal centroids
    guess = ((record.samples - (c0 + c1) / 2) * np.conj(c1 - c0)).real > 0
    return AttackReport("ctoa_data", _rate(int(np.count_nonzero(guess != truth)), len(record)),
                        helstrom_binary_mixed(c, *q))


def eve_key_symbol(record: MeasurementRecord, config: CipherConfig, truth,
                   plaintext=None) -> AttackReport:
    """Attack on the running-key symbol, known-plaintext or ciphertext-only.

    ``truth`` holds the sent state indices, which score the decisions: slot
    t's symbol is truth_t mod M, so the attack never reads the key itself.
    One rule picks the ensemble, and the decision and the bound both read
    it.  With the slot's polarity unknown, ciphertext-only or under OSK
    (where the known bit leaves its XOR with the keyed polarity unknown),
    symbol k is the pair of points {k, k + M} and the symbol MAP sums their
    two likelihoods, so ``kpa`` under OSK is the ciphertext-only attack.  On
    a PSK ring of radius r the pair is antipodal, and for
    y = |y| e^{i theta} the sum is
    2 e^{-|y|^2 - r^2} cosh(2 r |y| cos(theta - pi k / M)), largest for the
    symbol whose point or antipode is nearest in angle: the nearest point of
    all 2M mod M (``_nearest``), exact.  On an ASK ladder the pair is a
    shift by M steps, not a reflection, so the two likelihoods are summed
    over the symbols a ln 2 certificate leaves in reach
    (``_ladder_pair_map``).  A known bit without OSK rules out one point of
    each pair, and the decision is the nearest point of the known half mod
    M, exact.

    The bound is for the same ensemble, on the received points: exactly 0
    at M = 1 (``single_state``); the exact optimum ``pair_symmetric`` for
    the pairs of a PSK ring; otherwise (the known half, both ASK ensembles)
    the Helstrom error of two adjacent points, a lower bound
    (``adjacent_pair``): a genie that names which of the adjacent candidates
    {2j, 2j + 1} was sent, and the polarity, can only help Eve.
    """
    beta = received(config).amplitudes
    M, n = config.M, len(record)
    truth = _per_slot(record, _state_indices(truth, config), "sent indices")
    known = plaintext is not None
    x = _per_slot(record, _bits(plaintext)) if known else None
    pair = not known or config.osk
    ring = config.kind is ModulationKind.PSK

    if pair and not ring:
        guess = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _CHUNK):
            guess[lo:lo + _CHUNK] = _ladder_pair_map(record.samples[lo:lo + _CHUNK], beta)
    else:
        guess = _nearest(record.samples, beta, config.kind, half=None if pair else x) % M
    errors = int(np.sum(guess != truth % M))

    if M == 1:
        bound = BoundReport(0.0, "error", "single_state")
    elif pair and ring:
        bound = pair_symmetric(M, abs(beta[0]) ** 2)
    else:
        bound = BoundReport(helstrom_binary_pure(beta[0], beta[1]).value, "error", "adjacent_pair")
    return AttackReport("kpa_key" if known else "ctoa_key", _rate(errors, n), bound)


# --- exhaustive key posterior ------------------------------------------------

def _hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of the float array ``a`` along
    its last axis, whose length is a power of two; in place.

    Constant-geometry order (Pease 1968): every stage reads the adjacent
    pairs (lo, hi) = (2j, 2j+1) of the current order and writes lo + hi to
    entry j and lo - hi to entry j + n/2 of a full-length buffer, which then
    trades roles with ``a``; an odd stage count ends with one copy back.
    Each stage rotates the index bits right by one, so stage i pairs the
    entries that differ in bit i of the natural index, lo the one with bit
    i clear, and after all stages the order is natural again: every entry
    is the same sum, in the same order, as in a plain radix-2 loop whose
    stage i pairs entries 2^i apart.  At every stage the reads are stride-2
    runs and the writes contiguous runs, each half the axis long.
    """
    half = a.shape[-1] // 2
    src, dst = a, np.empty_like(a)
    for _ in range(half.bit_length()):
        lo, hi = src[..., 0::2], src[..., 1::2]
        np.add(lo, hi, out=dst[..., :half])
        np.subtract(lo, hi, out=dst[..., half:])
        src, dst = dst, src
    if src is not a:
        a[...] = src
    return a


def _check_posterior_size(config: CipherConfig) -> None:
    """The 2^|K| seeds, and one slot's key indices, fit the posterior's tables."""
    if config.key_bits > _POSTERIOR_MAX_BITS:
        raise ValueError(f"exhaustive posterior is limited to |K| <= {_POSTERIOR_MAX_BITS}")
    if config.bits_per_symbol + config.osk > _POSTERIOR_MAX_BITS:
        raise ValueError("exhaustive posterior is limited to "
                         f"2^{_POSTERIOR_MAX_BITS} key indices per slot (M, 2M under OSK)")


def key_posterior_entropy(record: MeasurementRecord, config: CipherConfig,
                          plaintext) -> float:
    """Shannon entropy (bits) of the exact key posterior given Eve's record.

    Scores all 2^|K|-1 seeds against the Gaussian record and normalizes;
    this is the brute-force key-security oracle, for any taps and |K| <= 22
    (_POSTERIOR_MAX_BITS; over 682 slots at M=64, S=0.005 under OSK, a
    warm call takes 0.03-0.07 s and a 17.4 MiB tracemalloc peak at |K| = 20,
    0.14-0.38 s and 65.4 MiB at |K| = 22, on 2 cores).  Every bit of slot
    t's key index z = r_t M + k_t (``keystream``) is parity(mask & s) for
    its seed mask from ``_index_masks``, so slot t's log-likelihood is a
    table f_t(z), and each Walsh character u of f_t is the character of one
    seed mask v_t(u), the XOR of the masks of u's bits.
    With the known bit x_t, z selects the point j = (z + x_t M) mod 2M, and
    f_t(z) = -|y_t|^2 + Re y_t 2 Re b_j + Im y_t 2 Im b_j - |b_j|^2
    is linear in y_t.  So the characters R_x, I_x, E_x of 2 Re b_j,
    2 Im b_j and -|b_j|^2 over z, each divided by 2^zbits, are built once
    per call from the received constellation, and slot t's character u != 0 is
    Re y_t R_x(u) + Im y_t I_x(u) + E_x(u) at x = x_t; -|y_t|^2 reaches
    only u = 0, the same for every seed.  The characters of all slots are
    summed into one 2^|K| table whose Walsh-Hadamard transform is every
    seed's log-likelihood: O(slots * 2M + |K| 2^|K|) time with no per-slot
    transform and no BLAS call.  Memory: 2 * 2^|K| floats for the transform
    (the table and ``_hadamard``'s buffer), the record's seed masks
    (slots log2 2M) and two block tables, the masks and the weights f,
    written in place: min(4096, 2^22 / 2M) slots of 2M key indices (M
    without OSK), so 64 MiB at most whatever M; a wider slot is refused.
    """
    _check_posterior_size(config)
    k = config.key_bits
    x = _per_slot(record, _bits(plaintext))
    slots = len(record)
    M, zbits = config.M, config.bits_per_symbol + config.osk
    beta = received(config).amplitudes
    # row x: point sym + (x xor polarity) M, i.e. (z + x M) mod 2M
    pts = beta[(np.arange(1 << zbits) + M * np.arange(2)[:, None]) % (2 * M)]
    R, I, E = _hadamard(np.stack([2 * pts.real, 2 * pts.imag, -np.abs(pts) ** 2])) / (1 << zbits)
    bit_masks = _index_masks(config, slots)[..., 0].view(np.int64)  # |K| <= 22: one word
    coeff = np.zeros(1 << k)
    rows = min(_CHUNK, 1 << (_POSTERIOR_MAX_BITS - zbits))  # >= 1: checked above
    block = (min(slots, rows), 1 << zbits)
    masks, table = np.empty(block, dtype=np.int64), np.empty(block)
    for lo in range(0, slots, rows):
        t = slice(lo, lo + rows)
        y, xt = record.samples[t, None], x[t]
        v, f = masks[:len(xt)], table[:len(xt)]
        scratch = v.view(np.float64)  # free until the masks are built
        zero, one = xt == 0, xt != 0
        # f = y.real * R[x] + y.imag * I[x] + E[x], each slot's rows filled
        # by its bit rather than gathered, one ufunc at a time
        f[zero], f[one] = R
        f *= y.real
        scratch[zero], scratch[one] = I
        f += np.multiply(scratch, y.imag, out=scratch)
        scratch[zero], scratch[one] = E
        f += scratch
        v[:, 0] = 0
        for i in range(zbits):  # character u's mask: the XOR of its bits' masks
            np.bitwise_xor(v[:, :1 << i], bit_masks[t, i:i + 1], out=v[:, 1 << i:2 << i])
        coeff += np.bincount(v.ravel(), weights=f.ravel(), minlength=1 << k)
    coeff[0] = 0.0  # the same for every seed
    loglik = _hadamard(coeff)[1:]

    loglik -= loglik.max()
    p = np.exp(loglik)  # the posterior times total
    total = p.sum()
    # H = -sum (p / total) log(p / total) = log total - sum p loglik / total
    h = math.log(total) - float(np.multiply(p, loglik, out=p).sum()) / total
    return max(0.0, h / math.log(2))


# --- closed-form security metrics --------------------------------------------

def collective_usd_bound(N: int, S: float, key_bits: int) -> tuple[float, bool]:
    """Collective unambiguous-attack success over one key's worth of slots.

    L = floor(|K| / log2 N) slots carry the key.  The optimal collective
    measurement over product hypotheses factorizes into per-slot
    measurements, so the collective success is the per-slot unambiguous
    success to the L-th power; it is returned in log2 because the value
    itself underflows at once for realistic L, and compared against the
    2^-|K| pure-guessing line.
    """
    _check("key_bits", key_bits, RULES["register"])
    pd = usd_symmetric(N, S).value
    L = max(1, int(key_bits / math.log2(N)))
    log2_pd = L * math.log2(pd) if pd > 0 else -math.inf
    return log2_pd, log2_pd < -key_bits
