"""Acceptance gate: every reference figure at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or read the failure output).
Thirteen claims must pass.  Three published references are unattainable by the
true figure (see the repository README); for those (``oracles.RED_CLAIMS``)
the test checks the measured figure against an independent oracle, requires
the FAIL verdict the true figure earns against the claim's own band, and
checks that the printed detail is true:

  2a  unambiguous success at N=2000, S=1e4 is 3.03e-21 (60-digit spectrum),
      far below the 3e-12 reference, which is the noise floor of a
      double-precision DFT of that spectrum,
  2c  optimal success at N=2000, S=1e4 is 0.2507, just above 0.2 +/- 0.05;
      the band holds at N=2047 (0.2449),
  3b  the regression slope of the exact homodyne tail (mpmath erfc) over
      S in {2..5} is -2.133; the -2 exponent appears only after a log-S
      regressor absorbs the 1/sqrt(S) prefactor (then -2.014).
"""
import numpy as np
import pytest

from alphaeta import channel, reproduce

from oracles import RED_CLAIMS

RUNTIME_BUDGET_S = {
    "1a": 5.0, "1b": 5.0,
    "2a": 5.0, "2b": 5.0, "2c": 5.0,
    "3a": 1.0, "3b": 1.0,
    "4a": 10.0, "4b": 10.0,
    "5a": 10.0, "5b": 10.0,
    "6": 120.0,
    "7a": 60.0, "7b": 60.0, "7c": 60.0,
    "8": 5.0,
}


@pytest.mark.parametrize("claim_id", reproduce.claim_ids())
def test_acceptance_claim(claim_id):
    result = reproduce.run_claim(claim_id)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.claim_id}: {result.description} -> "
          f"measured {result.measured!r}, expected {result.expected}"
          + (f" | {result.detail}" if result.detail else ""))
    assert result.elapsed_s < RUNTIME_BUDGET_S[claim_id], (
        f"runtime budget exceeded: {result.elapsed_s:.1f}s")
    red = RED_CLAIMS.get(claim_id)
    if red is None:
        assert result.passed, (
            f"{result.claim_id} {result.description}: measured {result.measured!r}, "
            f"expected {result.expected}. {result.detail}")
        return
    truth = red.truth()
    assert result.measured == pytest.approx(truth, **red.tolerance)
    assert result.passed == red.in_band(truth)
    red.check_detail(result.detail)


# every claim's band and detail, word for word
TEXT = {
    "1a": ("0.975 +/- 0.02", ""),
    "1b": ("0.755 +/- 0.02", ""),
    "2a": ("3e-12, factor 3",
           "measured value is the log-domain spectral minimum, which agrees with a 60-digit "
           "evaluation; the 3e-12 reference equals the noise floor of a double-precision "
           "DFT of this spectrum"),
    "2b": ("P_D < 5e-4 < success", "P_D=3.034e-21, 1/N=5e-4, success=0.250660"),
    "2c": ("0.2 +/- 0.05",
           "the N=2000 success lies 0.00066 above the band; the band holds at N=2047, "
           "where the success 0.244904 rounds to 0.2"),
    "3a": ("-4 +/- 5%", ""),
    "3b": ("-2 +/- 5%",
           "Gaussian tail Q(2 sqrt(S)) carries a 1/sqrt(S) prefactor that steepens the "
           "finite-window slope; exponent after absorbing the prefactor: -2.0138 "
           "(within 5% of -2)"),
    "4a": (">= 0.499 (neighbor confusion >= 0.3)", "ring_spectrum, neighbor_error=0.3490"),
    "4b": ("0.5 +/- 0.01",
           "stderr=1.58e-03, bound Pe=0.500000 (ring_spectrum); every slot is a MAP tie "
           "between equal mixtures, decided as 0, so the rate is the plaintext's "
           "ones-fraction 0.50138"),
    "5a": ("> 0 bits", "682 slots, |K|=12"),
    "5b": ("< 0.1 bits", ""),
    "6": ("<= 1e-10", "worst (usd - optimal) gap"),
    "7a": ("<= 1e-10", "ring_spectrum=0.022630449736, dense Gram=0.022630449736"),
    "7b": ("<= 4*SE (8.25e-04)", "per-slot 0.89719, joint 0.80497, log2 formula -0.31304"),
    "7c": ("0 failures", ""),
    "8": ("log2 P_D < -300 and below 2^-110", ""),
}

# figures of passing claims, to 1e-12 relative (1e-15 absolute at 0): a figure
# still inside its band but read from the wrong pipeline or record seed fails
FIGURES = {
    "1a": 0.9755401584218159, "1b": 0.7550955604457844, "2b": 0.2506596938832858,
    "3a": -4.00001970198148, "4a": 0.49972266159209866, "5a": 7.344348201539546,
    "5b": 0.0, "6": 0.0, "7c": 0.0, "8": -681.5925684516293,
}


@pytest.mark.parametrize("claim_id", reproduce.claim_ids())
def test_claim_text_and_figure(claim_id):
    result = reproduce.run_claim(claim_id)
    assert (result.expected, result.detail) == TEXT[claim_id]
    if claim_id in FIGURES:
        assert result.measured == pytest.approx(FIGURES[claim_id], rel=1e-12, abs=1e-15)


# figures pinned bit for bit: the draws and the decisions behind them may be
# rewritten for speed, never changed
PINNED = {"4b": (0.50138, *TEXT["4b"]), "7b": (1.9589843749945324e-05, *TEXT["7b"])}


@pytest.mark.parametrize("claim_id", sorted(PINNED))
def test_pinned_figure(claim_id):
    result = reproduce.run_claim(claim_id)
    assert (result.measured, result.expected, result.detail) == PINNED[claim_id]
    assert result.passed


def test_collective_claim_samples_through_the_heterodyne_tap(monkeypatch):
    shapes = []
    tap = channel.transmit

    def spy(indices, config, rng):
        shapes.append(np.shape(indices))
        return tap(indices, config, rng)

    monkeypatch.setattr(channel, "transmit", spy)
    assert reproduce.run_claim("7b").passed
    assert shapes == [(400_000,)]


@pytest.mark.parametrize("shape, m", [((9,), 1), ((9,), 3), ((7, 2), 2), ((7, 2), 4)])
def test_first_argmin_breaks_ties_as_argmin(shape, m):
    # claim 7b's tournaments must decide as np.argmin, ties included
    rng = np.random.default_rng(m)
    costs = [rng.integers(0, 3, size=shape).astype(float) for _ in range(m)]
    np.testing.assert_array_equal(reproduce._first_argmin(costs),
                                  np.argmin(np.stack(costs), axis=0))
