"""Summarize the result records of several runs.

    python3 perfbench/aggregate.py perfbench/out/results/*.json > summary.json

For each workload, trace mode and metric it gives the median, the quartiles
and the quartile spread (Q3 - Q1) / median over the runs, with the run count,
the seeds, the operations attempted and failed, and the machine facts of the
first record.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from summary import quartiles


def aggregate(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for r in records:
        groups.setdefault(f"{r['workload']}/trace{r['trace']}", []).append(r)
    out = {"machine": records[0]["machine"] if records else None, "runs": {}}
    for key, runs in sorted(groups.items()):
        names = sorted({name for r in runs for name in r["metrics"]})
        out["runs"][key] = {
            "n": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: quartiles([r["metrics"][name] for r in runs]) for name in names},
        }
    return out


if __name__ == "__main__":
    records = [json.loads(Path(p).read_text()) for p in sys.argv[1:]]
    print(json.dumps(aggregate(records), indent=2, sort_keys=True))
