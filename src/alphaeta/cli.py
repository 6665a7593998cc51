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
from .constellation import RULES, ModulationKind, _check, design_bases, design_neighbor_error


def _bob(config, record, indices, plaintext, rng) -> dict:
    beta = channel.received(config).amplitudes
    bits = channel.bob_receive(beta[indices], config, rng=rng)
    return {
        "attack_kind": "bob_keyed_reception",
        "empirical": dataclasses.asdict(
            attacks._rate(int(np.count_nonzero(bits != plaintext)), len(plaintext))),
        # every keyed pair {k, k + M} is as far apart as {0, M}, on a ring and an equally spaced ladder
        "bound": dataclasses.asdict(detection.helstrom_binary_pure(beta[0], beta[config.M])),
    }


# simulate's choices, for flags and manifests alike: --plaintext name -> its n bits drawn
# from rng (zeros draws nothing); --attack name -> (report file, report body, called as _bob is)
_PLAINTEXTS = {
    "random": lambda n, rng: rng.integers(0, 2, size=n),
    "zeros": lambda n, rng: np.zeros(n, dtype=np.int64),
}
_ATTACKS = {
    "bob": ("report_bob.json", _bob),
    "ctoa-data": ("report_ctoa_data.json", lambda config, record, indices, plaintext, rng:
                  dataclasses.asdict(attacks.eve_ctoa_data(record, config, plaintext))),
    "ctoa-key": ("report_ctoa_key.json", lambda config, record, indices, plaintext, rng:
                 dataclasses.asdict(attacks.eve_key_symbol(record, config, indices, None))),
    "kpa": ("report_kpa_key.json", lambda config, record, indices, plaintext, rng:
            dataclasses.asdict(attacks.eve_key_symbol(record, config, indices, plaintext))),
    "key-entropy": ("report_key_entropy.json", lambda config, record, indices, plaintext, rng: {
        "attack_kind": "kpa_key_posterior",
        "key_posterior_entropy_bits": attacks.key_posterior_entropy(record, config, plaintext),
        "key_bits": config.key_bits,
        "trials": len(plaintext),
    }),
}
# simulate's run, by manifest key: the flag (--name, "_" written "-", parsed to
# args.name), its parser keywords, its default (None: it must be given), what
# its rule asks, and the rule, which a value from the flag or a manifest must pass
_RUN = {
    "seed": ("seed", {"type": int}, None, "an integer >= 0", lambda v: type(v) is int and v >= 0),
    "bits": ("bits", {"type": int}, 10000, "an integer >= 1", lambda v: type(v) is int and v >= 1),
    "plaintext": ("plaintext", {}, "random", f"one of {', '.join(_PLAINTEXTS)}",
                  lambda v: type(v) is str and v in _PLAINTEXTS),
    "attacks": ("attack", {"nargs": "+"}, ["bob"], f"one or more of {', '.join(_ATTACKS)}, none twice",
                lambda v: type(v) is list and v != []
                and all(type(a) is str and a in _ATTACKS for a in v) and len(set(v)) == len(v)),
    "save_record": ("save_record", {"action": "store_true", "default": None}, False,
                    "true or false", lambda v: type(v) is bool),
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def validate_config_dict(cfg: dict) -> list[str]:
    """Config violations as '/json/pointer: message' strings; empty when valid.

    The fields are ``CipherConfig``'s, those without a default required, and
    each passes its ``cipher.FIELD_RULES`` test (taps may be a string: "0x829").
    A config that passes is then built, and ``CipherConfig``'s ValueError (a
    rule across fields: seed width, taps, ``ask_S_min``, ladder) goes at '/'.
    """
    return _built(cfg)[1]


def _built(cfg: dict) -> tuple[cipher.CipherConfig | None, list[str]]:
    """The config built from ``cfg`` and no violation, or None and every violation."""
    if type(cfg) is not dict:
        return None, [f"/: {cfg!r} is not of type 'object'"]
    defaults = {f.name: f.default for f in dataclasses.fields(cipher.CipherConfig)}
    problems = [f"/: {name!r} is a required property" for name, default in defaults.items()
                if default is dataclasses.MISSING and name not in cfg]
    extra = sorted(set(cfg) - set(defaults))
    if extra:
        problems.append(f"/: unexpected properties {', '.join(map(repr, extra))}")
    values = dict(cfg)
    try:  # taps given as a string, such as "0x829", are the integer it spells
        values["lfsr_taps"] = int(cfg["lfsr_taps"], 0)
    except (KeyError, TypeError, ValueError):  # no taps, not a string, or no integer
        pass
    for name in sorted(set(cfg) & set(defaults)):
        if not cipher.FIELD_RULES[name][0](values[name]):
            problems.append(f"/{name}: {cfg[name]!r} is not {cipher.FIELD_RULES[name][1]}")
    if problems:
        return None, problems
    try:
        return cipher.CipherConfig(**values), []
    except ValueError as exc:
        return None, [f"/: {exc}"]


def _checked_config(cfg: dict) -> cipher.CipherConfig:
    """The config built from ``cfg``, or a ValueError that lists every violation."""
    config, problems = _built(cfg)
    if problems:
        raise ValueError("\n".join(["invalid config:", *("  " + p for p in problems)]))
    return config


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


def _emit(rows: list[dict], args, name: str) -> None:
    """Write the --format table (csv by default) to ``args.out``/name.format, or to stdout."""
    fmt = args.format or "csv"
    if args.out is None:
        _write_rows(rows, sys.stdout, fmt)
        return
    path = Path(args.out) / f"{name}.{fmt}"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        _write_rows(rows, out, fmt)
    print(f"wrote {path}")


# --- bounds ------------------------------------------------------------------

# --kind name -> (its figure at (n, s), whether it bounds the two states +-sqrt(s): --n must be 2)
_BOUNDS = {
    "helstrom": (lambda n, s: detection.helstrom_binary_pure(np.sqrt(s), -np.sqrt(s)), True),
    "quadrature-homodyne": (lambda n, s: detection.quadrature_binary(np.sqrt(s), -np.sqrt(s),
                                                                     "homodyne"), True),
    "quadrature-heterodyne": (lambda n, s: detection.quadrature_binary(np.sqrt(s), -np.sqrt(s),
                                                                       "heterodyne"), True),
    "srm": (detection.srm_symmetric, False),
    "usd": (detection.usd_symmetric, False),
}


def cmd_bounds(args) -> int:
    ns, ss = args.n, args.s
    if not ns or not ss:
        raise ValueError("empty grid")
    grid = [(n, s) for n in ns for s in ss]
    for n, s in grid:  # before any row: the binary kinds take sqrt(s)
        _check("--n", n, RULES["N"])
        _check("--s", s, RULES["S"])
    figure, two_states = _BOUNDS[args.kind]
    if two_states and set(ns) != {2}:
        raise ValueError(f"--kind {args.kind} is a two-state bound; --n must be 2")
    _emit([{"n": n, "s": s, "attack": args.kind, **dataclasses.asdict(figure(n, s))} for n, s in grid],
          args, f"bounds_{args.kind}")
    return 0


# --- simulate ----------------------------------------------------------------

def _checked_run(args) -> tuple[dict, object, cipher.CipherConfig]:
    """The run (manifest key: value), each value checked and set on ``args``, the config
    and the config built, from --config and the flags or from a manifest alone."""
    if args.from_manifest:
        manifest = json.loads(Path(args.from_manifest).read_text())
        if type(manifest) is not dict:
            raise ValueError(f"manifest: {manifest!r} is not an object")
        for name, *_ in _RUN.values():
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')} cannot be given with --from-manifest, "
                                 "which reruns the manifest's run")
        run, cfg = {key: manifest.get(key) for key in _RUN}, manifest.get("config")
    else:
        run = {key: default if getattr(args, name) is None else getattr(args, name)
               for key, (name, _, default, *_) in _RUN.items()}
        cfg = json.loads(Path(args.config).read_text())
    for key, (name, _, _, must, ok) in _RUN.items():
        where = f"manifest {key!r}" if args.from_manifest else f"--{name.replace('_', '-')}"
        if run[key] is None:
            raise ValueError(f"{where} is required (no silent nondeterminism)")
        _check(where, run[key], (ok, must))
        setattr(args, name, run[key])
    return run, cfg, _checked_config(cfg)


def cmd_simulate(args) -> int:
    run, cfg_dict, config = _checked_run(args)
    if "key-entropy" in args.attack:  # before any report is written
        attacks._check_posterior_size(config)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    plaintext = _PLAINTEXTS[args.plaintext](args.bits, rng)
    indices = cipher.encode(plaintext, config)
    record = channel.transmit(indices, config, rng)

    outputs: list[str] = []
    for attack in args.attack:
        name, body = _ATTACKS[attack]
        path = outdir / name
        payload = {**body(config, record, indices, plaintext, rng), "seed": args.seed}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs.append(str(path))

    if args.save_record:
        rec_path = outdir / "record.bin"
        channel.save_record(rec_path, record, config.kappa, seed=args.seed)
        outputs += [str(rec_path), str(rec_path) + ".json"]

    manifest = {"command": "simulate", "config": cfg_dict, **run, "version": __version__,
                "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "outputs": outputs}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} report(s) and manifest to {outdir}")
    return 0


# --- design ------------------------------------------------------------------

def cmd_design(args) -> int:
    m = design_bases(args.target_pe, args.s, args.kind, S_min=args.s_min)
    rows = [{
        "target_pe": args.target_pe, "s": args.s, "kind": args.kind,
        "bases": m,
        "neighbor_error": design_neighbor_error(m, args.s, args.kind, args.s_min),
    }]
    _emit(rows, args, "design")
    return 0


# --- reproduce ---------------------------------------------------------------

def cmd_reproduce(args) -> int:
    if args.format is not None and args.out is None:
        raise ValueError("--format is the format of the --out table; give --out or drop --format")
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
        _emit(rows, args, "reproduce")
    return 1 if n_fail else 0


# --- entry point --------------------------------------------------------------

def _numbers(kind):
    """A parser type: comma-separated ``kind`` values, the text quoted when refused."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",") if v]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a refused command line, reported by ``main``
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="alphaeta",
                description="Y-00 (alpha-eta) stream-cipher simulator and security-bound toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bounds", help="tabulate discrimination bounds over an (N, S) grid")
    b.add_argument("--n", type=_numbers(int), default=[2], help="comma-separated state counts")
    b.add_argument("--s", type=_numbers(float), required=True, help="comma-separated photon numbers")
    b.add_argument("--kind", default="srm", choices=_BOUNDS)
    b.set_defaults(fn=cmd_bounds)

    s = sub.add_parser("simulate", help="encrypt, transmit, and run receiver/attack reports")
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON protocol config")
    source.add_argument("--from-manifest", help="rerun a previous manifest, alone")
    for name, keywords, default, must, _ in _RUN.values():
        s.add_argument(f"--{name.replace('_', '-')}", **keywords,
                       help=f"{must} ({'required' if default is None else f'default {default}'})")
    s.add_argument("--out", default="runs")
    s.set_defaults(fn=cmd_simulate)

    d = sub.add_parser("design", help="pick the base count for a target neighbor confusion")
    d.add_argument("--target-pe", type=float, required=True)
    d.add_argument("--s", type=float, required=True)
    d.add_argument("--kind", default="psk", choices=[kind.value for kind in ModulationKind])
    d.add_argument("--s-min", type=float, default=None)
    d.set_defaults(fn=cmd_design)

    r = sub.add_parser("reproduce", help="recompute every reference figure and report pass/fail")
    r.set_defaults(fn=cmd_reproduce)
    for table in (b, d, r):  # one table each, which reproduce writes only to --out
        table.add_argument("--format", choices=["csv", "json"], help="table format (default csv)")
        table.add_argument("--out", help="table directory (default: stdout; reproduce: no table)")
    return p


def main(argv=None) -> int:
    """Run one subcommand; every refusal exits 2 with one ``error:`` line."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a rule the input broke (bad JSON too), or a file
        print(f"error: {exc}", file=sys.stderr)
        return 2
