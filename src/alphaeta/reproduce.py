"""One-shot reproduction of the canonical Y-00 security figures.

Each claim recomputes a published reference number or property at its stated
tolerance and reports measured-vs-expected.  Claims are deliberately small and
independent so a failure isolates one quantity; the same registry backs both
the ``reproduce`` CLI command and the acceptance test module.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the module

from . import attacks, channel, cipher, detection
from .constellation import design_neighbor_error, make_psk


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    measured: float
    expected: str
    passed: bool
    elapsed_s: float
    detail: str = ""


# Fixed designed operating points (see README for the design rationale).
# One-time-pad demonstration: M >= 512 with the energy backed off until the
# even/odd mixtures are indistinguishable to < 1e-3 while neighbor confusion
# stays >= 0.3.
OTP_CONFIG = dict(M=512, S=4000.0, key_bits=16, seed=0xACE1, osk=True)
# Key-entropy demonstration: the per-period record must carry less Gaussian
# information than |K| bits for the posterior to stay spread, which forces the
# pulse energy far down; the control point reverses that.
ENTROPY_CONFIG = dict(M=64, S=0.005, key_bits=12, seed=0x5A5, osk=True)
ENTROPY_CONTROL = dict(M=2, S=1e4, key_bits=12, seed=0x5A5, osk=False)

# claim id -> (description, claim); a claim returns (measured, expected, passed[, detail])
_REGISTRY: dict[str, tuple[str, Callable[[], tuple]]] = {}


def _claim(claim_id: str, description: str):
    def wrap(fn):
        _REGISTRY[claim_id] = (description, fn)
        return fn
    return wrap


def _srm_error(S: float, reference: float) -> tuple:
    pe = detection.srm_symmetric(2047, S).value
    return pe, f"{reference} +/- 0.02", abs(pe - reference) <= 0.02


_claim("1a", "minimum-error reproduction (N=2047, S=100)")(lambda: _srm_error(100.0, 0.975))
_claim("1b", "minimum-error reproduction (N=2047, S=1e4)")(lambda: _srm_error(1e4, 0.755))


@_claim("2a", "unambiguous-discrimination reproduction (N=2000, S=1e4)")
def _claim_usd_value():
    pd = detection.usd_symmetric(2000, 1e4).value
    ok = 1e-12 <= pd <= 9e-12
    detail = ("measured value is the log-domain spectral minimum, which agrees with "
              "a 60-digit evaluation; the 3e-12 reference equals the noise floor of a "
              "double-precision DFT of this spectrum" if not ok else "")
    return pd, "3e-12, factor 3", ok, detail


@_claim("2b", "unambiguous < guessing < optimal-success chain")
def _claim_usd_chain():
    pd = detection.usd_symmetric(2000, 1e4).value
    succ = detection.srm_symmetric(2000, 1e4).success
    return (succ, "P_D < 5e-4 < success", pd < 1.0 / 2000 < succ,
            f"P_D={pd:.3e}, 1/N=5e-4, success={succ:.6f}")


@_claim("2c", "optimal success magnitude (N=2000, S=1e4)")
def _claim_srm_success_band():
    succ = detection.srm_symmetric(2000, 1e4).success
    ok = abs(succ - 0.2) <= 0.05
    detail = ""
    if not ok:
        succ_2047 = detection.srm_symmetric(2047, 1e4).success
        detail = (f"the N=2000 success lies {succ - 0.25:.5f} above the band; the band "
                  f"holds at N=2047, where the success {succ_2047:.6f} rounds to 0.2")
    return succ, "0.2 +/- 0.05", ok, detail


_SLOPE_GRID = np.arange(2.0, 5.01, 0.5)


def _slope(log_pe: np.ndarray, *regressors: np.ndarray) -> float:
    """Least-squares coefficient on S of ``log_pe`` over ``_SLOPE_GRID``, fitted
    with an intercept and any further ``regressors``."""
    a = np.vstack([_SLOPE_GRID, *regressors, np.ones_like(_SLOPE_GRID)]).T
    return float(np.linalg.lstsq(a, log_pe, rcond=None)[0][0])


@_claim("3a", "keyed-receiver error exponent")
def _claim_slope_helstrom():
    pe = np.array([detection.helstrom_binary_pure(math.sqrt(s), -math.sqrt(s)).value
                   for s in _SLOPE_GRID])
    slope = _slope(np.log(pe))
    return slope, "-4 +/- 5%", abs(slope / -4.0 - 1.0) <= 0.05


@_claim("3b", "unkeyed homodyne error exponent")
def _claim_slope_quadrature():
    pe = np.array([detection.quadrature_binary(math.sqrt(s), -math.sqrt(s), "homodyne").value
                   for s in _SLOPE_GRID])
    log_pe = np.log(pe)
    slope = _slope(log_pe)
    ok = abs(slope / -2.0 - 1.0) <= 0.05
    detail = ""
    if not ok:
        # a log-S regressor absorbs the Gaussian tail's algebraic prefactor
        corrected = _slope(log_pe, np.log(_SLOPE_GRID))
        detail = (f"Gaussian tail Q(2 sqrt(S)) carries a 1/sqrt(S) prefactor that "
                  f"steepens the finite-window slope; exponent after absorbing the "
                  f"prefactor: {corrected:.4f} (within 5% of -2)")
    return slope, "-2 +/- 5%", ok, detail


@_claim("4a", "one-time-pad bound at the designed point")
def _claim_otp_bound():
    cfg = cipher.CipherConfig(**OTP_CONFIG)
    c = cfg.constellation()
    ne = design_neighbor_error(cfg.M, cfg.S)
    even = np.tile([2.0 / len(c), 0.0], len(c) // 2)
    rep = detection.helstrom_binary_mixed(c, even, np.roll(even, 1))
    return (rep.value, ">= 0.499 (neighbor confusion >= 0.3)", rep.value >= 0.499 and ne >= 0.3,
            f"{rep.method}, neighbor_error={ne:.4f}")


@_claim("4b", "one-time-pad empirical bit error")
def _claim_otp_empirical():
    cfg = cipher.CipherConfig(**OTP_CONFIG)
    rng = np.random.default_rng(20240717)
    n = 100_000
    plaintext = rng.integers(0, 2, size=n)
    rec = channel.transmit(cipher.encode(plaintext, cfg), cfg, rng)
    rep = attacks.eve_ctoa_data(rec, cfg, plaintext)
    return (rep.empirical.value, "0.5 +/- 0.01", abs(rep.empirical.value - 0.5) <= 0.01,
            f"stderr={rep.empirical.stderr:.2e}, bound Pe={rep.bound.value:.6f} "
            f"({rep.bound.method}); every slot is a MAP tie between equal "
            f"mixtures, decided as 0, so the rate is the plaintext's "
            f"ones-fraction {plaintext.mean():.5f}")


def period_entropy(config: cipher.CipherConfig, record_seed: int) -> tuple[float, int]:
    """The key's posterior entropy in bits after one register period of zero
    plaintext, its record drawn by ``default_rng(record_seed)``; and the period."""
    slots = cipher.slots_per_period(config)
    plaintext = np.zeros(slots, dtype=np.int64)
    rec = channel.transmit(cipher.encode(plaintext, config), config,
                           np.random.default_rng(record_seed))
    return attacks.key_posterior_entropy(rec, config, plaintext), slots


@_claim("5a", "key equivocation after one period (designed)")
def _claim_entropy_positive():
    cfg = cipher.CipherConfig(**ENTROPY_CONFIG)
    h, slots = period_entropy(cfg, 99)
    return h, "> 0 bits", h > 0.0, f"{slots} slots, |K|={cfg.key_bits}"


@_claim("5b", "key equivocation after one period (control)")
def _claim_entropy_control():
    h, _ = period_entropy(cipher.CipherConfig(**ENTROPY_CONTROL), 99)
    return h, "< 0.1 bits", h < 0.1


@_claim("6", "unambiguous <= optimal success, 55-point grid")
def _claim_usd_vs_srm_grid():
    worst = -math.inf
    for n_exp in range(1, 12):
        n = 2 ** n_exp
        for s in (0.1, 1.0, 10.0, 100.0, 1e4):
            gap = (detection.usd_symmetric(n, s).success
                   - detection.srm_symmetric(n, s).success)
            worst = max(worst, gap)
    return worst, "<= 1e-10", worst <= 1e-10, "worst (usd - optimal) gap"


@_claim("7a", "mixed-Helstrom ring_spectrum vs dense Gram agreement")
def _claim_small_oracle():
    c = make_psk(2, 1.3)
    q0, q1 = np.array([0.7, 0.3, 0.0, 0.0]), np.array([0.0, 0.0, 0.6, 0.4])
    rep = detection.helstrom_binary_mixed(c, q0, q1)
    # the route ASK ladders take, here on the ring's complex Gram matrix
    pe_gram = 0.5 - 0.5 * detection._gram_trace_norm((q1 - q0) / 2, c.amplitudes)
    diff = abs(rep.value - pe_gram)
    # the description names the route, so another route fails the claim
    return (diff, "<= 1e-10", diff <= 1e-10 and rep.method == "ring_spectrum",
            f"{rep.method}={rep.value:.12f}, dense Gram={pe_gram:.12f}")


# trials decided per step of claim 7b; 200,000 is not a multiple of it
_BLOCK = 8192


def _first_argmin(costs: list[np.ndarray]) -> np.ndarray:
    """Index of the smallest of equally shaped cost arrays, elementwise; ties
    go to the first, as in ``np.argmin``.  Not ``np.argmin`` itself: that
    needs the costs stacked into one new array, and over claim 7b's decisions
    it took 1.7-1.9 times as long as this running minimum (20-32 ms against
    11-17 ms, medians of 15 on 2 cores)."""
    best, idx = costs[0], np.zeros(costs[0].shape, dtype=np.int64)
    for k in range(1, len(costs)):
        idx[costs[k] < best] = k
        best = np.minimum(best, costs[k])
    return idx


@_claim("7b", "collective = product of per-slot successes")
def _claim_collective_enumeration():
    rng = np.random.default_rng(7)
    trials, m_states = 200_000, 2
    # the protocol's two-point ring, sqrt(0.8) exp(i pi {0, 1}), through its own tap
    cfg = cipher.CipherConfig(M=1, S=0.8, key_bits=4, seed=1)
    amps = channel.received(cfg).amplitudes
    sym = rng.integers(0, m_states, size=(trials, 2))
    y = channel.transmit(sym.ravel(), cfg, rng).samples.reshape(trials, 2)
    slot_hits = joint_hits = 0
    # blocks keep every temporary in cache instead of faulting in fresh
    # multi-MB arrays per step
    for lo in range(0, trials, _BLOCK):
        yb, sb = y[lo:lo + _BLOCK], sym[lo:lo + _BLOCK]
        d2 = [(yb.real - a.real) ** 2 + (yb.imag - a.imag) ** 2 for a in amps]
        per_slot = _first_argmin(d2)
        # exhaustive joint MAP over all m^2 product hypotheses must factorize
        joint = _first_argmin([d2[h // m_states][:, 0] + d2[h % m_states][:, 1]
                               for h in range(m_states ** 2)])
        if not (np.array_equal(joint // m_states, per_slot[:, 0])
                and np.array_equal(joint % m_states, per_slot[:, 1])):
            return math.inf, "joint MAP factorizes", False
        hit = per_slot == sb
        slot_hits += int(np.count_nonzero(hit))
        joint_hits += int(np.count_nonzero(hit[:, 0] & hit[:, 1]))
    p1 = slot_hits / (2 * trials)
    pj = joint_hits / trials
    # delta method: pj - p1^2 has influence (a - p)(b - p) under independence
    se = p1 * (1 - p1) / math.sqrt(trials)
    diff = abs(pj - p1 ** 2)
    log2_formula = 2 * math.log2(p1)
    return (diff, f"<= 4*SE ({4*se:.2e})", diff <= 4 * se,
            f"per-slot {p1:.5f}, joint {pj:.5f}, log2 formula {log2_formula:.5f}")


@_claim("7c", "cipher round-trip exhaustion")
def _claim_roundtrip():
    failures = 0
    for m in (2, 4, 8, 16):
        cfg = cipher.CipherConfig(M=m, S=10.0, key_bits=8, seed=0x5B, osk=True)
        x = np.random.default_rng(m).integers(0, 2, size=503)
        failures += not np.array_equal(cipher.decode(cipher.encode(x, cfg), cfg), x)
    return failures, "0 failures", failures == 0


@_claim("8", "collective unambiguous-attack bound")
def _claim_collective_usd():
    log2_pd, below = attacks.collective_usd_bound(2000, 1e4, 110)
    return log2_pd, "log2 P_D < -300 and below 2^-110", below and log2_pd < -300


def run_claim(claim_id: str) -> ClaimResult:
    description, fn = _REGISTRY[claim_id]
    t0 = time.perf_counter()
    measured, expected, passed, *detail = fn()
    return ClaimResult(claim_id, description, float(measured), expected, bool(passed),
                       time.perf_counter() - t0, *detail)


def run_all() -> list[ClaimResult]:
    return [run_claim(cid) for cid in _REGISTRY]


def claim_ids() -> list[str]:
    return list(_REGISTRY)
