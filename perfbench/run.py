"""alphaeta benchmark: one run of one workload.

    python3 perfbench/run.py --workload simulate_osk --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  ``--trace 0`` times untraced passes, each
in a fresh worker process, until ``--seconds`` have passed and the workload's
minimum pass count is met, with five set-up probes interleaved, and prints
the end-to-end metrics.  ``--trace 1`` makes one untraced and one
traced pass and prints the per-layer metrics.  Every pass's outputs are
checked.  The last line of standard output is the JSON result; a record of
the run with its seed and the machine facts goes to ``perfbench/out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import spans
from summary import Tally, summarize, valid_metric_name

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WORKLOADS = ("reproduce", "simulate_osk", "simulate_plain", "key_search")
SETUP_REPEATS = 5  # set-up probes per run; their median absorbs a cold first probe
# Passes per run at least: two for the simulate rerun check, four for the
# short key-search pass so that its median rides out machine noise.
MIN_PASSES = {"simulate_osk": 2, "simulate_plain": 2, "key_search": 4}
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metric -> the span whose self time it reports.
SELF_TIME = {
    "constellation.gram_matrix.self_s": "constellation.gram_matrix",
    "detection.helstrom_binary_mixed.self_s": "detection.helstrom_binary_mixed",
    "detection.srm_symmetric.self_s": "detection.srm_symmetric",
    "detection.usd_symmetric.self_s": "detection.usd_symmetric",
    "cipher.encode.self_s": "cipher.encode",
    "cipher.decode.self_s": "cipher.decode",
    "cipher.lfsr_stream.self_s": "cipher.lfsr_stream",
    "channel.transmit.self_s": "channel.transmit",
    "channel.bob_receive.self_s": "channel.bob_receive",
    "attacks.eve_ctoa_data.self_s": "attacks.eve_ctoa_data",
    "attacks.eve_key_symbol.self_s": "attacks.eve_key_symbol",
    "attacks.key_posterior_entropy.self_s": "attacks.key_posterior_entropy",
    "cli.simulate.self_s": "cli.cmd_simulate",
}
CALLS = ("constellation.gram_matrix", "constellation.make_psk",
         "detection.helstrom_binary_mixed", "cipher.lfsr_stream")
COUNTERS = ("attacks.slots_scored", "attacks.seeds_scored")


def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env["TMPDIR"] = str(workdir)
    return env


def machine_facts(env: dict[str, str]) -> dict:
    def blas(config: dict) -> dict:
        b = config["Build Dependencies"]["blas"]
        return {k: b.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


class WorkerFailed(RuntimeError):
    """A worker crashed or overran: the run has no result."""


class Runner:
    """Starts the worker processes of one run, one at a time, within the run's deadline."""

    def __init__(self, workdir: Path, env: dict[str, str]):
        self.workdir, self.env = workdir, env
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.count = 0

    def worker(self, mode: str, outdir: Path | None = None) -> tuple[float, dict]:
        """Run one worker to completion; returns its wall seconds and its result."""
        self.count += 1
        result_path = self.workdir / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               str(self.workdir / "inputs.json"), str(result_path)]
        if outdir is not None:
            outdir.mkdir(parents=True)
            cmd.append(str(outdir))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            raise WorkerFailed(f"{mode} worker passed the run deadline") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return wall, json.loads(result_path.read_text())


def layer_metrics(trace: dict, wall_traced: float, wall_untraced: float, failed_frac: float,
                  cases, claim_ids) -> dict[str, float]:
    """Every per-layer metric from one traced pass and its untraced twin."""
    tree = spans.from_dicts(trace["spans"])
    self_t = spans.self_times(tree)
    calls = spans.call_counts(tree)
    m = {name: self_t[span] for name, span in SELF_TIME.items()}
    m.update({f"{name}.calls": calls[name] for name in CALLS})
    m.update({name: trace["counters"].get(name, 0) for name in COUNTERS})
    m["cipher.orbit_cold_s"] = spans.first_per_key(tree, "cipher.lfsr_stream")
    for case in cases:
        m[f"attacks.key_posterior_entropy.{case}_s"] = spans.total_duration(tree, f"key_search.{case}")
    m["attacks.key_posterior_entropy.peak_mb"] = max(trace["tracemalloc_peak_mb"].values(), default=0.0)
    for cid in claim_ids:
        m[f"reproduce.claim.{cid}_s"] = spans.total_duration(tree, f"reproduce.claim.{cid}")
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.uncovered_s"] = wall_traced - spans.top_level_time(tree)
    m["failed_frac"] = failed_frac
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one workload of the alphaeta benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run(args, workdir: Path, units: dict[str, str]) -> tuple[Tally, dict, dict]:
    """Probe set-up, make the passes and check them."""
    # Both import alphaeta, which is importable only once main() has put src/ on the path.
    import checks
    import workloads

    env = child_env(workdir)
    inputs = workloads.write_inputs(args.workload, args.seed, workdir)
    runner = Runner(workdir, env)
    tally = Tally()

    setup: list[float] = []
    passes: list[tuple[dict, Path]] = []

    def probe_setup() -> None:
        setup.append(runner.worker("setup")[0])

    def make_pass(mode: str) -> None:
        outdir = workdir / f"pass{len(passes)}"
        passes.append((runner.worker(mode, outdir)[1], outdir))

    if args.trace:
        make_pass("pass")
        make_pass("traced")
    else:
        # Set-up probes alternate with the passes, so that they sample the
        # machine over the whole run rather than one moment of it.
        t0 = time.perf_counter()
        while (len(passes) < MIN_PASSES.get(args.workload, 1)
               or time.perf_counter() - t0 < args.seconds):
            if len(setup) < SETUP_REPEATS:
                probe_setup()
            make_pass("pass")
        while len(setup) < SETUP_REPEATS:
            probe_setup()
    checks.check_run(args.workload, inputs, passes, tally)

    walls = [out["wall_s"] for out, _ in passes]
    if args.trace:
        metrics = layer_metrics(passes[1][0]["trace"], walls[1], walls[0], tally.failed_frac,
                                workloads.KEY_SEARCH_CASES, checks.CLAIM_IDS)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out, _ in passes),
        }
    if set(metrics) != set(units) or not all(map(valid_metric_name, metrics)):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "machine": machine_facts(env),
        "wall_s": summarize(walls), "setup_s": summarize(setup) if setup else None,
        "setup_probes_s": setup,
        "passes": [{k: v for k, v in out.items() if k != "trace"} for out, _ in passes],
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "metrics": metrics,
    }
    return tally, metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "alphaeta" / "__init__.py").is_file():
        print(f"no alphaeta sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"work_{tag}_{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tally, metrics, record = run(args, workdir, units)
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
