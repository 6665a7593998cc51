"""Command-line front end: bounds tables, protocol simulation, signal design,
and one-shot recomputation of the canonical security figures.

All randomness flows from an explicit --seed recorded in a run manifest;
rerunning from the manifest reproduces report bodies byte for byte
(timestamps live only in the manifest).  Floats print with 17 significant
digits so downstream comparisons can be exact.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the module

from . import __version__, attacks, channel, cipher, detection, reproduce
from .constellation import ModulationKind, design_bases, make_ask, make_psk, neighbor_error

# exact Python types of each parsed JSON type: neither True nor 4.0 is an integer
_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,), "boolean": (bool,)}
_REQUIRED = ("M", "S", "key_bits", "seed")
# field: (accepted JSON types, test of a value of those types, what it must be)
_CONFIG_FIELDS = {
    "M": (("integer",), lambda v: v >= 1 and not v & (v - 1), "a power of two"),
    "S": (("number",), lambda v: v >= 0, ">= 0"),
    "key_bits": (("integer",), lambda v: v >= 4, ">= 4"),
    "seed": (("integer",), lambda v: v >= 1, ">= 1"),
    "lfsr_taps": (("integer", "string"), None, None),
    "osk": (("boolean",), None, None),
    "kind": (("string",), lambda v: v in ("psk", "ask"), "one of 'psk', 'ask'"),
    "kappa": (("number",), lambda v: 0 < v <= 1, "in (0, 1]"),
    "ask_S_min": (("number",), None, None),
    "ask_S_max": (("number",), None, None),
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def validate_config_dict(cfg: dict) -> list[str]:
    """Config violations as '/json/pointer: message' strings; empty when valid.

    Each field has a JSON type, a range or an enumeration; the four
    _REQUIRED fields must be present and no other field may be.  A config
    that passes the table is then built with its constellation, and a
    ValueError there (a seed wider than the key, no shipped taps, an ASK
    energy range) is reported at '/'.
    """
    if type(cfg) is not dict:
        return [f"/: {cfg!r} is not of type 'object'"]
    problems = [f"/: {name!r} is a required property" for name in _REQUIRED if name not in cfg]
    extra = sorted(set(cfg) - set(_CONFIG_FIELDS))
    if extra:
        problems.append(f"/: unexpected properties {', '.join(map(repr, extra))}")
    for name in sorted(set(cfg) & set(_CONFIG_FIELDS)):
        types, check, want = _CONFIG_FIELDS[name]
        v = cfg[name]
        if not any(type(v) in _JSON_TYPES[t] for t in types):
            problems.append(f"/{name}: {v!r} is not of type {', '.join(map(repr, types))}")
        elif check and not check(v):
            problems.append(f"/{name}: {v!r} is not {want}")
    if cfg.get("kind", "psk") == "ask" and (
            "ask_S_min" not in cfg or "ask_S_max" not in cfg):
        problems.append("/kind: ask requires ask_S_min and ask_S_max")
    if not problems:
        try:
            _config_from_dict(cfg).constellation()
        except ValueError as exc:
            problems.append(f"/: {exc}")
    return problems


def _config_from_dict(cfg: dict) -> cipher.CipherConfig:
    taps = cfg.get("lfsr_taps")
    if isinstance(taps, str):
        taps = int(taps, 0)
    return cipher.CipherConfig(
        M=cfg["M"], S=cfg["S"], key_bits=cfg["key_bits"], seed=cfg["seed"],
        lfsr_taps=taps, osk=cfg.get("osk", False),
        kind=ModulationKind(cfg.get("kind", "psk")), kappa=cfg.get("kappa", 1.0),
        ask_S_min=cfg.get("ask_S_min"), ask_S_max=cfg.get("ask_S_max"))


def _checked_config(cfg: dict) -> cipher.CipherConfig:
    """The config built from ``cfg``, or exit 2 with every violation on stderr."""
    problems = validate_config_dict(cfg)
    if problems:
        print("invalid config:", file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        raise SystemExit(2)
    return _config_from_dict(cfg)


def load_config(path) -> cipher.CipherConfig:
    return _checked_config(json.loads(Path(path).read_text()))


def _write_rows(rows: list[dict], out, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        out.write(text)
        return
    writer = csv.writer(out)
    if rows:
        header = list(rows[0])
        writer.writerow(header)
        for r in rows:
            writer.writerow([_fmt(r[h]) for h in header])


def _open_out(args, default_name: str):
    if args.out is None:
        return sys.stdout, None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / default_name
    return open(path, "w"), path


# --- bounds ------------------------------------------------------------------

def _bound_row(n: int, s: float, kind: str) -> dict:
    if kind == "srm":
        rep = detection.srm_symmetric(n, s)
    elif kind == "usd":
        rep = detection.usd_symmetric(n, s)
    elif kind == "helstrom":
        rep = detection.helstrom_binary_pure(np.sqrt(s), -np.sqrt(s))
    elif kind in ("quadrature-homodyne", "quadrature-heterodyne"):
        rep = detection.quadrature_binary(np.sqrt(s), -np.sqrt(s), kind.split("-")[1])
    else:
        raise SystemExit(f"unknown bound kind: {kind}")
    return {
        "n": n, "s": s, "attack": kind, "value": rep.value, "kind": rep.kind,
        "method": rep.method,
    }


def cmd_bounds(args) -> int:
    ns = args.n
    ss = args.s
    if not ns or not ss:
        print("error: empty grid", file=sys.stderr)
        return 2
    grid = [(n, s) for n in ns for s in ss]
    if any(n < 2 for n, _ in grid) or any(s < 0 for _, s in grid):
        print("error: invalid grid (need n >= 2, s >= 0)", file=sys.stderr)
        return 2
    rows = [_bound_row(n, s, args.kind) for n, s in grid]
    out, path = _open_out(args, f"bounds_{args.kind}.{args.format}")
    try:
        _write_rows(rows, out, args.format)
    finally:
        if path is not None:
            out.close()
            print(f"wrote {path}")
    return 0


# --- simulate ----------------------------------------------------------------

def _manifest(args, config_dict: dict, outputs: list[str]) -> dict:
    return {
        "command": "simulate",
        "config": config_dict,
        "seed": args.seed,
        "bits": args.bits,
        "plaintext": args.plaintext,
        "attacks": args.attack,
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": outputs,
    }


def cmd_simulate(args) -> int:
    if args.from_manifest:
        manifest = json.loads(Path(args.from_manifest).read_text())
        ns = argparse.Namespace(**vars(args))
        ns.seed = manifest["seed"]
        ns.bits = manifest["bits"]
        ns.plaintext = manifest["plaintext"]
        ns.attack = manifest["attacks"]
        cfg_dict = manifest["config"]
        args = ns
    elif args.config is None:
        print("error: --config or --from-manifest is required", file=sys.stderr)
        return 2
    else:
        cfg_dict = json.loads(Path(args.config).read_text())
    if args.seed is None:
        print("error: --seed is required (no silent nondeterminism)", file=sys.stderr)
        return 2
    if args.bits < 1:
        print("error: --bits must be at least 1", file=sys.stderr)
        return 2

    config = _checked_config(cfg_dict)
    limit = attacks._POSTERIOR_MAX_KEY_BITS
    if "key-entropy" in args.attack and config.key_bits > limit:
        print(f"error: exhaustive posterior is limited to |K| <= {limit}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    n = args.bits
    if args.plaintext == "zeros":
        plaintext = np.zeros(n, dtype=np.int64)
    else:
        plaintext = rng.integers(0, 2, size=n)

    indices = cipher.encode(plaintext, config)
    record = channel.transmit(indices, config, rng)

    outputs: list[str] = []

    def dump(name: str, payload: dict) -> None:
        path = outdir / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs.append(str(path))

    for kind in args.attack:
        if kind == "bob":
            bits, _ = channel.bob_receive(
                channel.apply_loss(config.constellation().amplitudes[indices], config.kappa),
                config, rng=rng)
            dump("report_bob.json", {
                "attack_kind": "bob_keyed_reception",
                "empirical": dataclasses.asdict(
                    attacks._rate(int(np.count_nonzero(bits != plaintext)), n)),
                "bound": dataclasses.asdict(
                    detection.helstrom_binary_pure(np.sqrt(config.S), -np.sqrt(config.S))),
                "seed": args.seed,
            })
        elif kind == "ctoa-data":
            rep = attacks.eve_ctoa_data(record, config, plaintext, seed=args.seed)
            dump("report_ctoa_data.json", dataclasses.asdict(rep))
        elif kind == "ctoa-key":
            rep = attacks.eve_key_symbol(record, config, None, seed=args.seed)
            dump("report_ctoa_key.json", dataclasses.asdict(rep))
        elif kind == "kpa":
            rep = attacks.eve_key_symbol(record, config, plaintext, seed=args.seed)
            dump("report_kpa_key.json", dataclasses.asdict(rep))
        elif kind == "key-entropy":
            dump("report_key_entropy.json", {
                "attack_kind": "kpa_key_posterior",
                "key_posterior_entropy_bits":
                    attacks.key_posterior_entropy(record, config, plaintext),
                "key_bits": config.key_bits,
                "trials": n, "seed": args.seed,
            })
        else:
            print(f"error: unknown attack {kind}", file=sys.stderr)
            return 2

    if args.save_record:
        rec_path = outdir / "record.bin"
        channel.save_record(rec_path, record, seed=args.seed)
        outputs += [str(rec_path), str(rec_path) + ".json"]

    manifest = _manifest(args, cfg_dict, outputs)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} report(s) and manifest to {outdir}")
    return 0


# --- design ------------------------------------------------------------------

def cmd_design(args) -> int:
    kind = ModulationKind(args.kind)
    try:
        m = design_bases(args.target_pe, args.s, kind, S_min=args.s_min)
        c = make_psk(m, args.s) if kind is ModulationKind.PSK else \
            make_ask(m, args.s_min, args.s, 1.0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [{
        "target_pe": args.target_pe, "s": args.s, "kind": kind.value,
        "bases": m,
        "neighbor_error": neighbor_error(c),
    }]
    out, path = _open_out(args, f"design.{args.format}")
    try:
        _write_rows(rows, out, args.format)
    finally:
        if path is not None:
            out.close()
            print(f"wrote {path}")
    return 0


# --- reproduce ---------------------------------------------------------------

def cmd_reproduce(args) -> int:
    results = reproduce.run_all()
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.claim_id:>3}  {r.description}: measured {_fmt(r.measured)} (expected {r.expected}, {r.elapsed_s:.2f}s)"
        print(line)
        if r.detail:
            print(f"           {r.detail}")
        rows.append({
            "claim": r.claim_id, "description": r.description,
            "measured": r.measured, "expected": r.expected,
            "passed": r.passed, "elapsed_s": r.elapsed_s, "detail": r.detail,
        })
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} claims passed")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"reproduce.{args.format}"
        with open(path, "w") as f:
            _write_rows(rows, f, args.format)
        print(f"wrote {path}")
    return 1 if n_fail else 0


# --- entry point --------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="alphaeta",
                                description="Y-00 (alpha-eta) stream-cipher simulator and security-bound toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bounds", help="tabulate discrimination bounds over an (N, S) grid")
    b.add_argument("--n", type=_int_list, default=[2], help="comma-separated state counts")
    b.add_argument("--s", type=_float_list, required=True, help="comma-separated photon numbers")
    b.add_argument("--kind", default="srm",
                   choices=["helstrom", "quadrature-homodyne", "quadrature-heterodyne", "srm", "usd"])
    b.add_argument("--format", default="csv", choices=["csv", "json"])
    b.add_argument("--out", default=None, help="output directory (default: stdout)")
    b.set_defaults(fn=cmd_bounds)

    s = sub.add_parser("simulate", help="encrypt, transmit, and run receiver/attack reports")
    s.add_argument("--config", default=None, help="JSON protocol config")
    s.add_argument("--from-manifest", default=None, help="rerun a previous manifest")
    s.add_argument("--seed", type=int, default=None, help="master RNG seed (required)")
    s.add_argument("--bits", type=int, default=10000)
    s.add_argument("--plaintext", default="random", choices=["random", "zeros"])
    s.add_argument("--attack", nargs="+", default=["bob"],
                   choices=["bob", "ctoa-data", "ctoa-key", "kpa", "key-entropy"])
    s.add_argument("--out", default="runs")
    s.add_argument("--save-record", action="store_true")
    s.set_defaults(fn=cmd_simulate)

    d = sub.add_parser("design", help="pick the base count for a target neighbor confusion")
    d.add_argument("--target-pe", type=float, required=True)
    d.add_argument("--s", type=float, required=True)
    d.add_argument("--kind", default="psk", choices=["psk", "ask"])
    d.add_argument("--s-min", type=float, default=None)
    d.add_argument("--format", default="csv", choices=["csv", "json"])
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_design)

    r = sub.add_parser("reproduce", help="recompute every reference figure and report pass/fail")
    r.add_argument("--out", default=None)
    r.add_argument("--format", default="csv", choices=["csv", "json"])
    r.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
