"""The benchmark's hand-kept copies of the claim registry stay in step with
it, so a claim change fails here rather than as failed benchmark operations."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402

from alphaeta import reproduce  # noqa: E402
from oracles import RED_CLAIMS  # noqa: E402


def test_claim_ids_match_the_registry():
    assert reproduce.claim_ids() == list(checks.CLAIM_IDS)


def test_expected_reds_are_the_red_claims():
    assert set(RED_CLAIMS) == checks.EXPECTED_RED
