"""Sample summaries, metric-name rules and failure counting."""
from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles in tenths of a percent, highest first.
_TAILS = (999, 990, 950, 900, 750)


def valid_metric_name(name: str) -> bool:
    """A metric name: up to 64 of ``[A-Za-z0-9_.-]``, starting with a letter or digit."""
    return METRIC_NAME.fullmatch(name) is not None


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond it.

    None when there are too few samples for any tail (fewer than 40).
    """
    for t in _TAILS:
        if n * (1000 - t) >= 10 * 1000:
            return t / 10
    return None


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the tail percentile the sample count supports."""
    if not values:
        raise ValueError("no samples")
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        # method="inclusive" interpolates between order statistics
        cuts = statistics.quantiles(values, n=1000, method="inclusive")
        out[f"p{p:g}"] = cuts[round(p * 10) - 1]
    return out


def quartiles(values: list[float]) -> dict:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them, and
    the spread (Q3 - Q1) / median; one sample has no spread."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "spread": None}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med if med else None}


@dataclass
class Tally:
    """Operations attempted and failed; a failed correctness check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, operation: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{operation}: {detail}" if detail else operation)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
