"""The four workloads: inputs generated from the seed, a cold first call for
set-up timing, and one pass driven through the package's public API and CLI.

Every pass is a closed loop with one caller and one call outstanding.
``span(name)`` opens a harness span around a call; it is a no-op when the
pass is not traced.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from alphaeta import attacks, channel, cipher, cli, reproduce

# The README protocol run.
SIMULATE_CONFIG = {"M": 512, "S": 4000.0, "key_bits": 16, "kind": "psk", "kappa": 1.0}
SIMULATE_BITS = 100_000
SIMULATE_ATTACKS = {
    "simulate_osk": ["bob", "ctoa-data", "kpa"],
    # ctoa-key runs here only: the non-OSK key branches have no other workload
    "simulate_plain": ["bob", "ctoa-data", "ctoa-key", "kpa"],
}

# Exhaustive key posterior: (|K|, OSK, slots).  The sizes are the largest the
# seed code runs well inside 8 GB (peak about 1.25 GB, set by the K=16 cases).
KEY_SEARCH_M, KEY_SEARCH_S = 64, 0.005
KEY_SEARCH_CASES = {
    "k14_osk": (14, True, 682),
    "k14_plain": (14, False, 682),
    "k16_osk": (16, True, 170),
    "k16_plain": (16, False, 170),
}


def write_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Draw the workload's inputs from ``seed`` and write them under ``workdir``."""
    rng = np.random.default_rng(seed)
    inputs: dict = {"workload": workload, "seed": seed}
    if workload.startswith("simulate_"):
        config = dict(SIMULATE_CONFIG, seed=int(rng.integers(1, 1 << 16)),
                      osk=workload == "simulate_osk")
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, sort_keys=True))
        inputs.update(config=config, config_path=str(config_path),
                      sim_seed=int(rng.integers(0, 2**31)), bits=SIMULATE_BITS,
                      attacks=SIMULATE_ATTACKS[workload])
    elif workload == "key_search":
        inputs.update(M=KEY_SEARCH_M, S=KEY_SEARCH_S)
        inputs["cases"] = {
            name: {"key_bits": k, "osk": osk, "slots": slots,
                   "register_seed": int(rng.integers(1, 1 << k)),
                   "noise_seed": int(rng.integers(0, 2**31))}
            for name, (k, osk, slots) in KEY_SEARCH_CASES.items()}
    elif workload != "reproduce":  # reproduce: inputs fixed by the claim registry
        raise ValueError(f"unknown workload: {workload}")
    (workdir / "inputs.json").write_text(json.dumps(inputs, sort_keys=True))
    return inputs


def key_search_config(inputs: dict, case: dict) -> cipher.CipherConfig:
    return cipher.CipherConfig(M=inputs["M"], S=inputs["S"], key_bits=case["key_bits"],
                               seed=case["register_seed"], osk=case["osk"])


def cold_call(inputs: dict) -> None:
    """The first call a fresh process makes for the workload's register and
    constellation: LFSR orbits, constellation, config validation."""
    workload = inputs["workload"]
    if workload == "reproduce":
        configs = [cipher.CipherConfig(**reproduce.OTP_CONFIG)]
    elif workload == "key_search":
        configs = [key_search_config(inputs, c) for c in inputs["cases"].values()]
    else:
        configs = [cli.load_config(inputs["config_path"])]
    for cfg in configs:
        cipher.encode(np.zeros(1, dtype=np.int64), cfg)
        cfg.constellation()


def run_pass(inputs: dict, outdir: Path, span) -> dict:
    """One pass of the workload; returns its raw outputs for the checks."""
    workload = inputs["workload"]
    if workload == "reproduce":
        return _reproduce(span)
    if workload == "key_search":
        return _key_search(inputs, span)
    return _simulate(inputs, outdir)


def _reproduce(span) -> dict:
    passed, errors = {}, {}
    for cid in reproduce.claim_ids():
        try:
            with span(f"reproduce.claim.{cid}"):
                passed[cid] = reproduce.run_claim(cid).passed
        except Exception as exc:  # a claim that raises is a failed operation
            errors[cid] = repr(exc)
    return {"passed": passed, "errors": errors}


def _simulate(inputs: dict, outdir: Path) -> dict:
    argv = ["simulate", "--config", inputs["config_path"], "--seed", str(inputs["sim_seed"]),
            "--bits", str(inputs["bits"]), "--attack", *inputs["attacks"],
            "--out", str(outdir)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return {"exit_code": code, "out": str(outdir)}


def _key_search(inputs: dict, span) -> dict:
    entropies, samples = {}, {}
    for name, case in inputs["cases"].items():
        cfg = key_search_config(inputs, case)
        x = np.zeros(case["slots"], dtype=np.int64)
        record = channel.transmit(cipher.encode(x, cfg), cfg,
                                  np.random.default_rng(case["noise_seed"]))
        with span(f"key_search.{name}"):
            entropies[name] = attacks.key_posterior_entropy(record, cfg, x)
        samples[name] = record.samples
    return {"entropies": entropies, "samples": samples}
