"""One fresh process: either the set-up probe or one workload pass.

    python3 perfbench/worker.py setup  <inputs.json> <result.json>
    python3 perfbench/worker.py pass   <inputs.json> <result.json> <outdir>
    python3 perfbench/worker.py traced <inputs.json> <result.json> <outdir>

Imports the package from ``src/`` of the checkout this file sits in, and
refuses to run against any other copy.  A pass writes its wall time, the
process's peak resident memory and its raw outputs; a traced pass adds the
span tree, counters and the tracemalloc peak of each key-posterior call.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import alphaeta  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from alphaeta import attacks, channel, cipher, cli, constellation, detection, reproduce  # noqa: E402

TRACED_MODULES = (constellation, detection, cipher, channel, attacks, reproduce, cli, alphaeta)
PROBES = {
    "cipher.lfsr_stream": spans.Probe(key=lambda a: f"{a['taps']}/{a['key_bits']}"),
    "attacks.eve_ctoa_data": spans.Probe(counts=lambda a: {"attacks.slots_scored": len(a["record"])}),
    "attacks.eve_key_symbol": spans.Probe(counts=lambda a: {"attacks.slots_scored": len(a["record"])}),
    "attacks.key_posterior_entropy": spans.Probe(counts=lambda a: {
        "attacks.slots_scored": len(a["record"]),
        "attacks.seeds_scored": (1 << a["config"].key_bits) - 1}),
}


def _traced_pass(inputs: dict, outdir: Path) -> tuple[dict, dict]:
    recorder = spans.Recorder()
    peaks: dict[str, float] = {}

    @contextmanager
    def span(name):
        with recorder.span(name):
            if not name.startswith("key_search."):
                yield
                return
            tracemalloc.start()
            try:
                yield
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

    restore = spans.install(recorder, TRACED_MODULES, PROBES)
    try:
        t0 = time.perf_counter()
        out = workloads.run_pass(inputs, outdir, span)
        wall = time.perf_counter() - t0
    finally:
        restore()
    trace = {"spans": spans.to_dicts(recorder.spans), "counters": dict(recorder.counters),
             "tracemalloc_peak_mb": peaks}
    return dict(out, wall_s=wall), trace


def main(argv: list[str]) -> int:
    mode, inputs_path, result_path = argv[:3]
    if Path(alphaeta.__file__).resolve().parent != ROOT / "src" / "alphaeta":
        print(f"imported alphaeta from {alphaeta.__file__}, not this checkout", file=sys.stderr)
        return 3
    inputs = json.loads(Path(inputs_path).read_text())
    result: dict = {}
    if mode == "setup":
        workloads.cold_call(inputs)
    elif mode == "pass":
        t0 = time.perf_counter()
        out = workloads.run_pass(inputs, Path(argv[3]), lambda name: nullcontext())
        result = dict(out, wall_s=time.perf_counter() - t0)
    elif mode == "traced":
        result, trace = _traced_pass(inputs, Path(argv[3]))
        result["trace"] = trace
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = result.pop("samples", None)
    if samples is not None:  # key_search records, for the brute-force check
        np.savez(Path(argv[3]) / "samples.npz", **samples)
    Path(result_path).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
