"""Acceptance gate: every reference figure at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or read the failure output).
Three checks are expected to fail and are left red on purpose; they reproduce
reference values that are themselves unattainable at the stated tolerance
(see the printed detail and the repository README):

  2a  the 3e-12 unambiguous-discrimination figure equals the double-precision
      DFT noise floor; the true value, which the package reports, is
      3.03e-21 (the minimum over k, at k=984 in usd_symmetric's convention),
  2c  the optimal success at N=2000, S=1e4 is 0.2507, a hair outside the
      one-significant-figure band 0.2 +/- 0.05 (0.2449 at N=2047 is inside),
  3b  the finite-window regression slope of the exact homodyne tail is
      -2.133; the -2 exponent holds only after removing the algebraic
      prefactor (then -2.01).
"""
import pytest

from alphaeta import reproduce

RUNTIME_BUDGET_S = {
    "1a": 5.0, "1b": 5.0,
    "2a": 5.0, "2b": 5.0, "2c": 5.0,
    "3a": 1.0, "3b": 1.0,
    "4a": 120.0, "4b": 120.0,
    "5a": 600.0, "5b": 600.0,
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
    assert result.passed, (
        f"{result.claim_id} {result.description}: measured {result.measured!r}, "
        f"expected {result.expected}. {result.detail}")
