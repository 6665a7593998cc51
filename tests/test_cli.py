import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alphaeta.channel import MeasurementRecord
from alphaeta.cipher import CipherConfig
from alphaeta import cipher, cli
from alphaeta.cli import load_config, validate_config_dict
from alphaeta.detection import helstrom_binary_pure

from oracles import RED_CLAIMS, full_slab_errors, neighbor_confusion

GOOD_CONFIG = {
    "M": 64, "S": 40.0, "key_bits": 12, "seed": 1445,
    "osk": True, "kind": "psk", "kappa": 1.0,
}
GOOD_MANIFEST = {"seed": 5, "bits": 100, "plaintext": "random", "attacks": ["bob"],
                 "save_record": False, "config": GOOD_CONFIG}


# subprocesses import the package from the source tree, installed or not
ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "alphaeta", *argv],
                          capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def assert_refused(code, out, err, outdir=None):
    """A refusal: exit 2 with one ``error:`` report first on stderr, no
    traceback, nothing on stdout, and no ``--out`` made."""
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert outdir is None or not outdir.exists()


def simulate_config(tmp_path, via, config):
    """``simulate`` on ``config`` from a --config file or a manifest, writing
    to tmp_path/o."""
    path = tmp_path / "in.json"
    if via == "config":
        path.write_text(json.dumps(config))
        source = ["--config", str(path), "--seed", "5", "--bits", "100"]
    else:
        path.write_text(json.dumps({**GOOD_MANIFEST, "config": config}))
        source = ["--from-manifest", str(path)]
    return run_cli("simulate", *source, "--out", str(tmp_path / "o"))


class TestBounds:
    def test_srm_reference_row(self, tmp_path):
        code, out, _ = run_cli("bounds", "--n", "2047", "--s", "100", "--kind", "srm")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        assert abs(float(rows[0]["value"]) - 0.975) < 0.02
        assert rows[0]["method"] == "srm_spectrum"

    def test_vacuum_binary(self):
        code, out, _ = run_cli("bounds", "--n", "2", "--s", "0", "--kind", "srm")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["value"]) == pytest.approx(0.5, abs=1e-7)

    def test_usd_reference_row(self):
        code, out, _ = run_cli("bounds", "--n", "2000", "--s", "10000", "--kind", "usd")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        # the true minimum, 3.03e-21, far below the 3e-12 reference
        assert float(row["value"]) <= 1e-11

    def test_grid_order(self):
        code, out, _ = run_cli("bounds", "--n", "4,8", "--s", "1,2", "--kind", "srm")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        got = [(int(r["n"]), float(r["s"])) for r in rows]
        assert got == [(4, 1.0), (4, 2.0), (8, 1.0), (8, 2.0)]

    def test_json_format(self):
        code, out, _ = run_cli("bounds", "--n", "4", "--s", "1",
                               "--kind", "srm", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert set(rows[0]) == {"n", "s", "attack", "value", "kind", "method"}
        assert rows[0]["method"] == "srm_spectrum"

    def test_invalid_grid_exits_nonzero(self):
        code, out, err = run_cli("bounds", "--n", "1", "--s", "1", "--kind", "srm")
        assert_refused(code, out, err)
        assert "--n must be an integer >= 2" in err

    @pytest.mark.parametrize("kind", ["srm", "helstrom"])
    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_energy_exits_2(self, tmp_path, kind, s):
        code, out, err = run_cli("bounds", "--n", "2", "--s", f"1,{s}", "--kind", kind,
                                 "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert err.startswith("error: --s must be finite and >= 0")

    @pytest.mark.parametrize("kind", ["helstrom", "quadrature-homodyne",
                                      "quadrature-heterodyne"])
    def test_binary_kinds_take_only_two_states(self, kind):
        # a row labelled n=2047 would hold the two-state value
        code, out, err = run_cli("bounds", "--n", "2,2047", "--s", "1", "--kind", kind)
        assert_refused(code, out, err)
        assert "--n must be 2" in err
        code, out, _ = run_cli("bounds", "--n", "2", "--s", "1", "--kind", kind)
        assert code == 0
        assert [r["n"] for r in csv.DictReader(out.splitlines())] == ["2"]

    def test_seventeen_digit_output(self):
        code, out, _ = run_cli("bounds", "--n", "4", "--s", "1", "--kind", "srm")
        row = next(csv.DictReader(out.splitlines()))
        assert len(row["value"].replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestSimulate:
    def test_requires_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        code, out, err = run_cli("simulate", "--config", str(cfg),
                                 "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert "--seed" in err

    def test_schema_violations_use_pointers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "S": -1, "key_bits": 12, "seed": 9}))
        code, out, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                                 "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        # one error line heads the report, one pointer line per violation
        assert err.splitlines()[0] == "error: invalid config:"
        assert "  /S: -1 is not finite and >= 0" in err.splitlines()
        assert "/M:" in err

    @pytest.mark.parametrize("field", ["M", "key_bits", "seed"])
    def test_integral_float_in_integer_field_exits_2(self, tmp_path, field):
        # 4.0 passes a JSON Schema "integer" but is a float to CipherConfig
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, field: float(GOOD_CONFIG[field])}))
        code, out, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                                 "--bits", "100", "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert f"/{field}:" in err

    def test_invalid_manifest_config_exits_like_config(self, tmp_path):
        bad = {"M": 3, "S": -1, "key_bits": 12, "seed": 9}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"seed": 5, "bits": 100, "plaintext": "random",
                                        "attacks": ["bob"], "save_record": False,
                                        "config": bad}))
        via_config = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                             "--out", str(tmp_path / "a"))
        via_manifest = run_cli("simulate", "--from-manifest", str(manifest),
                               "--out", str(tmp_path / "b"))
        assert_refused(*via_config, tmp_path / "a")
        assert_refused(*via_manifest, tmp_path / "b")
        assert via_manifest[2] == via_config[2]
        assert "/M:" in via_manifest[2]

    @pytest.mark.parametrize("manifest", [
        {**GOOD_MANIFEST, "attacks": ["bob", "bogus"]},
        {k: v for k, v in GOOD_MANIFEST.items() if k != "bits"},
        {k: v for k, v in GOOD_MANIFEST.items() if k != "save_record"},
        {**GOOD_MANIFEST, "bits": "100"},
        {**GOOD_MANIFEST, "bits": 0},
        {**GOOD_MANIFEST, "plaintext": "ones"},
        5,
    ], ids=["unknown-attack", "no-bits", "no-save-record", "bits-string", "bits-zero",
            "unknown-plaintext", "not-an-object"])
    def test_bad_manifest_exits_2_before_output(self, tmp_path, manifest):
        # manifest values get the checks of the flags they stand for, before
        # --out is created
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        code, stdout, err = run_cli("simulate", "--from-manifest", str(path), "--out", str(out))
        assert_refused(code, stdout, err, out)

    @pytest.mark.parametrize("via", ["flag", "manifest"])
    def test_negative_seed_exits_2_before_output(self, tmp_path, via):
        # numpy's SeedSequence refuses a negative seed; the flag and the
        # manifest share one check, made before --out exists
        out = tmp_path / "o"
        if via == "flag":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(GOOD_CONFIG))
            source = ["--config", str(cfg), "--seed", "-1", "--bits", "100"]
        else:
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps({**GOOD_MANIFEST, "seed": -1}))
            source = ["--from-manifest", str(path)]
        code, stdout, err = run_cli("simulate", *source, "--out", str(out))
        assert_refused(code, stdout, err, out)
        assert "seed" in err

    @pytest.mark.parametrize("config, message", [
        ({**GOOD_CONFIG, "seed": 5000}, "seed must be a nonzero 12-bit register state; got 5000"),
        ({**GOOD_CONFIG, "key_bits": 24}, "no shipped maximal-length taps"),
        ({**GOOD_CONFIG, "lfsr_taps": "zz"}, "/lfsr_taps: 'zz' is not an integer"),
        ({**GOOD_CONFIG, "lfsr_taps": 0}, "zero feedback polynomial"),
        ({**GOOD_CONFIG, "kind": "ask", "S": 9.0, "ask_S_min": 0.5},
         "minimum-energy constraint"),
        ({**GOOD_CONFIG, "kind": "ask", "S": 4.0, "ask_S_min": 9.0},
         "/: S must exceed S_min"),
    ], ids=["seed-wider-than-key", "no-shipped-taps", "taps-not-a-number", "taps-zero",
            "ask-below-energy-floor", "ask-range-reversed"])
    def test_unbuildable_config_exits_2(self, tmp_path, config, message):
        # each is refused before a cipher is built: taps that spell no
        # integer by their field's rule, the rest by a rule across fields
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                                 "--bits", "100", "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert message in err
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(cfg)

    @pytest.mark.parametrize("field, value", [("S", math.inf), ("S", math.nan),
                                              ("ask_S_min", math.nan), ("ask_S_min", math.inf)])
    def test_non_finite_energy_exits_2(self, tmp_path, field, value):
        # json writes these as the Infinity and NaN literals, which json reads back
        ask = {"kind": "ask", "ask_S_min": 4.0} if field != "S" else {}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, **ask, field: value}))
        out = tmp_path / "o"
        code, stdout, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                                    "--bits", "100", "--out", str(out))
        assert_refused(code, stdout, err, out)
        assert f"/{field}:" in err and "finite" in err

    def test_key_entropy_beyond_posterior_limit_exits_2(self, tmp_path):
        # the limit is checked before any attack runs: no partial reports
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, "key_bits": 24, "lfsr_taps": "0xC20001"}))
        out = tmp_path / "o"
        code, stdout, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                                    "--bits", "100", "--attack", "bob", "key-entropy",
                                    "--out", str(out))
        assert_refused(code, stdout, err, out)
        assert err == "error: exhaustive posterior is limited to |K| <= 22\n"

    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_bits_below_one_exits_2(self, tmp_path, bits):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        code, out, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                                 "--bits", bits, "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert f"error: --bits must be an integer >= 1; got {bits}" in err

    def test_key_entropy_non_maximal_taps(self, tmp_path):
        # x^12 + x^11 + x^5 + x^3 + 1 is not maximal: the posterior scores
        # every seed all the same
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, "lfsr_taps": "0x829"}))
        out = tmp_path / "o"
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--bits", "100", "--attack", "key-entropy", "--out", str(out))
        assert code == 0, err
        entropy = json.loads((out / "report_key_entropy.json").read_text())
        assert 0.0 <= entropy["key_posterior_entropy_bits"] <= 12.0

    def test_full_run_and_manifest_rerun(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        out1 = tmp_path / "run1"
        code, _, _ = run_cli("simulate", "--config", str(cfg), "--seed", "17",
                             "--bits", "2000", "--plaintext", "random",
                             "--attack", "bob", "ctoa-data", "kpa", "key-entropy",
                             "--out", str(out1))
        assert code == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 17
        report = json.loads((out1 / "report_ctoa_data.json").read_text())
        assert abs(report["empirical"]["value"] - 0.5) < 0.05
        assert report["bound"]["value"] == pytest.approx(0.5)
        entropy = json.loads((out1 / "report_key_entropy.json").read_text())
        assert 0.0 <= entropy["key_posterior_entropy_bits"] <= 12.0

        # rerun from the manifest: byte-identical report bodies
        out2 = tmp_path / "run2"
        code, _, _ = run_cli("simulate", "--from-manifest", str(out1 / "manifest.json"),
                             "--out", str(out2))
        assert code == 0
        for name in ("report_bob.json", "report_ctoa_data.json",
                     "report_kpa_key.json", "report_key_entropy.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_plain_ring_bound_reads_the_spectrum(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, "osk": False}))
        out = tmp_path / "plain"
        code, _, _ = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                             "--bits", "2000", "--attack", "ctoa-data", "--out", str(out))
        assert code == 0
        rep = json.loads((out / "report_ctoa_data.json").read_text())
        assert rep["bound"]["method"] == "ring_spectrum"
        # the bound carries its figure and method only, no tolerance of a
        # clamp that this route never runs
        assert set(rep["bound"]) == {"value", "kind", "method"}

    @staticmethod
    def _bob_bound(tmp_path, name, config):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / name
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--bits", "100", "--attack", "bob", "--out", str(out))
        assert code == 0, err
        return json.loads((out / "report_bob.json").read_text())["bound"]

    def test_bob_bound_reads_the_ladder(self, tmp_path):
        # S tops the ladder from ask_S_min, and the bound is that of the
        # pair {0, M} Bob tells apart on it
        ladder = {"M": 4, "key_bits": 12, "seed": 1445, "kind": "ask", "ask_S_min": 2.0}
        low, high = (self._bob_bound(tmp_path, name, {**ladder, "S": s})
                     for name, s in (("low", 20.0), ("high", 200.0)))
        for bound, s in ((low, 20.0), (high, 200.0)):
            beta = CipherConfig(S=s, **ladder).constellation().amplitudes
            assert bound["value"] == helstrom_binary_pure(beta[0], beta[4]).value > 0
        assert low["value"] > high["value"]

    def test_bob_bound_reads_the_lossy_ring(self, tmp_path):
        # S = 4 at kappa = 1/4 leaves the antipodal pair +-1 after loss
        bound = self._bob_bound(tmp_path, "lossy", {**GOOD_CONFIG, "S": 4.0, "kappa": 0.25})
        want = helstrom_binary_pure(1.0, -1.0)
        assert bound["method"] == want.method
        assert bound["value"] == pytest.approx(want.value, rel=1e-12, abs=0)

    # error counts of the README run (M=512, S=4000, |K|=16, seed 7, 2e4
    # bits), recorded at the commit before ctoa-data settled rows from index
    # counts, when every point of every run was scored; a kernel change that
    # flips one decision changes a count
    README_COUNTS = {
        True: {"bob": 0, "ctoa_data": 9987, "ctoa_key": 15682, "kpa_key": 15682},
        False: {"bob": 0, "ctoa_data": 55, "ctoa_key": 15676, "kpa_key": 15647},
    }

    @pytest.mark.parametrize("osk", [True, False], ids=["osk", "plain"])
    def test_readme_run_error_counts(self, tmp_path, osk):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 512, "S": 4000.0, "key_bits": 16, "seed": 44257,
                                   "osk": osk, "kind": "psk", "kappa": 1.0}))
        out = tmp_path / "o"
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "7",
                               "--bits", "20000", "--attack", "bob", "ctoa-data", "ctoa-key",
                               "kpa", "--out", str(out))
        assert code == 0, err
        counts = {}
        for name in self.README_COUNTS[osk]:
            rate = json.loads((out / f"report_{name}.json").read_text())["empirical"]
            assert rate["trials"] == 20000
            counts[name] = round(rate["value"] * rate["trials"])
        assert counts == self.README_COUNTS[osk]

    def test_ask_osk_key_reports(self, tmp_path):
        # kpa under OSK on a ladder sums each symbol's pair over a run of the
        # ladder; its reports carry no more fields than any other key report,
        # rerun byte for byte, and count a full scan's errors
        config = {"M": 64, "S": 2000.0, "key_bits": 12, "seed": 1445, "osk": True,
                  "kind": "ask", "kappa": 0.8, "ask_S_min": 2.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out1 = tmp_path / "run1"
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "11",
                               "--bits", "5000", "--plaintext", "zeros",
                               "--attack", "kpa", "ctoa-key", "--save-record",
                               "--out", str(out1))
        assert code == 0, err
        out2 = tmp_path / "run2"
        code, _, err = run_cli("simulate", "--from-manifest", str(out1 / "manifest.json"),
                               "--out", str(out2))
        assert code == 0, err
        for name in ("record.bin", "record.bin.json"):  # the manifest saves the record too
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        interleaved = np.fromfile(out1 / "record.bin", dtype="<f8")
        record = MeasurementRecord(interleaved[0::2] + 1j * interleaved[1::2])
        x = np.zeros(5000, dtype=np.int64)
        for kind in ("kpa_key", "ctoa_key"):
            name = f"report_{kind}.json"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            rep = json.loads((out1 / name).read_text())
            assert set(rep) == {"attack_kind", "empirical", "bound", "seed"}
            rate = rep["empirical"]
            assert rate["trials"] == 5000
            want = full_slab_errors(record, CipherConfig(**config), kind, x)
            assert round(rate["value"] * rate["trials"]) == want

    def test_zero_plaintext_probe_is_kpa_setup(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, "M": 4, "S": 100.0}))
        out = tmp_path / "probe"
        code, _, _ = run_cli("simulate", "--config", str(cfg), "--seed", "3",
                             "--bits", "3000", "--plaintext", "zeros",
                             "--attack", "kpa", "--out", str(out))
        assert code == 0
        rep = json.loads((out / "report_kpa_key.json").read_text())
        assert rep["attack_kind"] == "kpa_key"
        assert rep["empirical"]["value"] < 0.05  # far-separated states


class TestDesign:
    def test_psk_design(self):
        code, out, _ = run_cli("design", "--target-pe", "0.3", "--s", "100")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert int(row["bases"]) == 64
        assert float(row["neighbor_error"]) >= 0.3

    @pytest.mark.parametrize("flags", [(), ("--kind", "ask", "--s-min", "2")], ids=["psk", "ask"])
    def test_printed_bases_build_a_config(self, flags):
        code, out, _ = run_cli("design", "--target-pe", "0.3", "--s", "100", *flags)
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        ask = dict(kind="ask", ask_S_min=2.0) if flags else {}
        cfg = CipherConfig(M=int(row["bases"]), S=100.0, key_bits=12, seed=1, **ask)
        assert float(row["neighbor_error"]) == pytest.approx(
            neighbor_confusion(cfg.constellation()), rel=1e-12)

    def test_unreachable_target_exits_2(self, tmp_path):
        # no ring is built: the 2^40 scan ends at once with an error line
        code, out, err = run_cli("design", "--target-pe", "0.3", "--s", "1e300",
                                 "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert "unreachable" in err

    @pytest.mark.parametrize("flags", [("--s", "nan"), ("--s", "inf"),
                                       ("--kind", "ask", "--s-min", "nan", "--s", "100"),
                                       ("--kind", "ask", "--s-min", "4", "--s", "inf")],
                             ids=["s-nan", "s-inf", "ask-s-min-nan", "ask-s-inf"])
    def test_non_finite_energy_exits_2(self, tmp_path, flags):
        code, out, err = run_cli("design", "--target-pe", "0.3", *flags,
                                 "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert "finite" in err

    @pytest.mark.parametrize("flags, message", [
        (("--kind", "ask"), "error: kind 'ask' requires S_min"),
        (("--s-min", "2"), "error: kind 'psk' takes no S_min"),
    ], ids=["ask-without-s-min", "psk-with-s-min"])
    def test_s_min_pairs_with_ask(self, tmp_path, flags, message):
        # a ladder needs its bottom energy, and a ring has none to ignore
        code, out, err = run_cli("design", "--target-pe", "0.3", "--s", "100", *flags,
                                 "--out", str(tmp_path / "o"))
        assert_refused(code, out, err, tmp_path / "o")
        assert err == message + "\n"


# argv before --out of a run whose input cannot be read or whose --out cannot
# be made: bad.json is malformed JSON, and --out sits under a plain file
UNREADABLE_CASES = {
    "missing-config": ["simulate", "--config", "none.json", "--seed", "5"],
    "malformed-config": ["simulate", "--config", "bad.json", "--seed", "5"],
    "malformed-manifest": ["simulate", "--from-manifest", "bad.json"],
    "simulate-out-under-file": ["simulate", "--config", "cfg.json", "--seed", "5",
                                "--bits", "100"],
    "bounds-out-under-file": ["bounds", "--n", "4", "--s", "1"],
}


class TestUnreadableInputs:
    @pytest.mark.parametrize("case", sorted(UNREADABLE_CASES))
    def test_exits_2_with_one_error_line(self, tmp_path, case):
        (tmp_path / "cfg.json").write_text(json.dumps(GOOD_CONFIG))
        (tmp_path / "bad.json").write_text('{"M": 64,')
        (tmp_path / "file").write_text("")
        out = tmp_path / ("file/o" if case.endswith("under-file") else "o")
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in UNREADABLE_CASES[case]]
        code, stdout, err = run_cli(*argv, "--out", str(out))
        assert_refused(code, stdout, err, out)
        assert len(err.splitlines()) == 1


# command lines the parser itself refuses, and a word of the reason
PARSER_REFUSALS = {
    "seed-not-int": (["simulate", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    "unknown-flag": (["bounds", "--s", "1", "--frob"], "unrecognized arguments: --frob"),
    "s-not-float": (["bounds", "--s", "1,x"],
                    "argument --s: expected comma-separated numbers, got '1,x'"),
    "n-not-int": (["bounds", "--s", "1", "--n", "2,x"],
                  "argument --n: expected comma-separated numbers, got '2,x'"),
    "no-subcommand": ([], "required: cmd"),
}


class TestParserRefusals:
    @pytest.mark.parametrize("case", sorted(PARSER_REFUSALS))
    def test_exits_2_with_one_error_line(self, case, capsys):
        argv, reason = PARSER_REFUSALS[case]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert_refused(code, out, err)
        assert len(err.splitlines()) == 1 and reason in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag])
        assert exc.value.code == 0 and capsys.readouterr().out


# simulate runs the run table refuses: the manifest fields over GOOD_MANIFEST
# in m.json, the argv before --out (none.json does not exist), and the flag or
# manifest key the error names
RUN_REFUSALS = {
    "config-and-manifest": ({}, ["--from-manifest", "m.json", "--config", "none.json",
                                 "--seed", "99", "--bits", "5"], "--config"),
    "seed-with-manifest": ({}, ["--from-manifest", "m.json", "--seed", "99"], "--seed"),
    "bits-with-manifest": ({}, ["--from-manifest", "m.json", "--bits", "5"], "--bits"),
    "plaintext-with-manifest": ({}, ["--from-manifest", "m.json", "--plaintext", "zeros"],
                                "--plaintext"),
    "attack-with-manifest": ({}, ["--from-manifest", "m.json", "--attack", "kpa"], "--attack"),
    "duplicate-attack-flag": ({}, ["--config", "cfg.json", "--seed", "5", "--attack", "bob",
                                   "bob"], "--attack"),
    "duplicate-attack-manifest": ({"attacks": ["bob", "bob"]}, ["--from-manifest", "m.json"],
                                  "manifest 'attacks'"),
    "seed-true-manifest": ({"seed": True}, ["--from-manifest", "m.json"], "manifest 'seed'"),
    "seed-string-manifest": ({"seed": "7"}, ["--from-manifest", "m.json"], "manifest 'seed'"),
    "save-record-with-manifest": ({}, ["--from-manifest", "m.json", "--save-record"],
                                  "--save-record"),
    "save-record-null-manifest": ({"save_record": None}, ["--from-manifest", "m.json"],
                                  "manifest 'save_record'"),
    # the choices are table keys: a value that is no string is refused, not hashed
    "plaintext-list-manifest": ({"plaintext": ["zeros"]}, ["--from-manifest", "m.json"],
                                "manifest 'plaintext'"),
    "attack-list-manifest": ({"attacks": [["bob"]]}, ["--from-manifest", "m.json"],
                             "manifest 'attacks'"),
}


class TestRunTable:
    @pytest.mark.parametrize("case", sorted(RUN_REFUSALS))
    def test_refusal_exits_2_with_one_error_line(self, tmp_path, case, capsys):
        fields, argv, subject = RUN_REFUSALS[case]
        (tmp_path / "cfg.json").write_text(json.dumps(GOOD_CONFIG))
        (tmp_path / "m.json").write_text(json.dumps({**GOOD_MANIFEST, **fields}))
        out = tmp_path / "o"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code = cli.main(["simulate", *argv, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert_refused(code, stdout, err, out)
        assert len(err.splitlines()) == 1 and subject in err

    def test_flags_are_simulate_destinations(self):
        args = cli.build_parser().parse_args(["simulate", "--config", "cfg.json"])
        assert {name for name, *_ in cli._RUN.values()} <= set(vars(args))

    def test_manifest_keys_are_the_table_and_the_record(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "5", "--bits", "100",
                         "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert set(manifest) == {*cli._RUN, "command", "config", "version", "created_utc",
                                 "outputs"}


class TestValidation:
    def test_valid_config_passes(self):
        assert validate_config_dict(GOOD_CONFIG) == []

    def test_power_of_two_pointer(self):
        problems = validate_config_dict({**GOOD_CONFIG, "M": 12})
        assert any(p.startswith("/M:") for p in problems)

    def test_ask_requires_bounds(self):
        problems = validate_config_dict({**GOOD_CONFIG, "kind": "ask"})
        assert any("ask_S_min" in p for p in problems)

    def test_unknown_field_flagged(self):
        problems = validate_config_dict({**GOOD_CONFIG, "bogus": 1})
        assert problems

    def test_fields_are_the_config_fields(self):
        # every field has a rule, so none ships unchecked and the validator
        # finds a rule for each field it reads
        assert set(cipher.FIELD_RULES) == {f.name for f in dataclasses.fields(CipherConfig)}

    @pytest.mark.parametrize("via", ["config", "manifest"])
    def test_psk_ask_S_min_exits_2_before_output(self, tmp_path, via):
        # CipherConfig refuses it at construction; the CLI reports that at '/'
        out = tmp_path / "o"
        code, stdout, err = simulate_config(tmp_path, via, {**GOOD_CONFIG, "ask_S_min": 2.0})
        assert_refused(code, stdout, err, out)
        lines = [ln for ln in err.splitlines() if ln.startswith("  /")]
        assert len(lines) == 1 and lines[0].startswith("  /: ") and "ask_S_min" in lines[0]

    @pytest.mark.parametrize("via", ["config", "manifest"])
    def test_ask_S_max_exits_2_before_output(self, tmp_path, via):
        # S is the top of an ASK ladder; configs that still name ask_S_max
        # are refused, from a --config file and a manifest alike
        old = {**GOOD_CONFIG, "S": 1.0, "kind": "ask", "ask_S_min": 2.0, "ask_S_max": 2000.0}
        out = tmp_path / "o"
        code, stdout, err = simulate_config(tmp_path, via, old)
        assert_refused(code, stdout, err, out)
        assert "  /: unexpected properties 'ask_S_max'" in err.splitlines()


# the JSON Schema the validator replaced, kept as the oracle of its verdicts
OLD_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["M", "S", "key_bits", "seed"],
    "additionalProperties": False,
    "properties": {
        "M": {"type": "integer", "minimum": 1},
        "S": {"type": "number", "minimum": 0},
        "key_bits": {"type": "integer", "minimum": 4},
        "seed": {"type": "integer", "minimum": 1},
        "lfsr_taps": {"type": ["integer", "string"]},
        "osk": {"type": "boolean"},
        "kind": {"enum": ["psk", "ask"]},
        "kappa": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "ask_S_min": {"type": "number"},
    },
}

# (config, pointers the validator adds to the schema's): JSON Schema counts an
# integral float as an integer, which CipherConfig does not, and accepts any
# number as an energy, where the validator wants a finite double
SCHEMA_CASES = {
    "good": (GOOD_CONFIG, []),
    "required-only": ({"M": 64, "S": 40.0, "key_bits": 12, "seed": 1445}, []),
    "M-string": ({**GOOD_CONFIG, "M": "64"}, []),
    "S-string": ({**GOOD_CONFIG, "S": "40"}, []),
    "key_bits-list": ({**GOOD_CONFIG, "key_bits": [12]}, []),
    "seed-null": ({**GOOD_CONFIG, "seed": None}, []),
    "taps-float": ({**GOOD_CONFIG, "lfsr_taps": 1.5}, []),
    "taps-string": ({**GOOD_CONFIG, "lfsr_taps": "0x829"}, []),
    # a negative mask would be read as two's complement; the schema allows it
    "taps-negative": ({**GOOD_CONFIG, "lfsr_taps": -13}, ["/lfsr_taps"]),
    "taps-negative-string": ({**GOOD_CONFIG, "lfsr_taps": "-0xD"}, ["/lfsr_taps"]),
    "osk-int": ({**GOOD_CONFIG, "osk": 1}, []),
    "kappa-string": ({**GOOD_CONFIG, "kappa": "1"}, []),
    "ask-min-bool": ({**GOOD_CONFIG, "ask_S_min": True}, []),
    "M-bool": ({**GOOD_CONFIG, "M": True}, []),
    "seed-bool": ({**GOOD_CONFIG, "seed": False}, []),
    "missing-S-seed": ({"M": 64, "key_bits": 12}, []),
    "extra-field": ({**GOOD_CONFIG, "bogus": 1}, []),
    "kappa-0": ({**GOOD_CONFIG, "kappa": 0}, []),
    "kappa-1": ({**GOOD_CONFIG, "kappa": 1}, []),
    "kappa-1.5": ({**GOOD_CONFIG, "kappa": 1.5}, []),
    "bad-kind": ({**GOOD_CONFIG, "kind": "qam"}, []),
    "S-negative": ({**GOOD_CONFIG, "S": -1}, []),
    "S-infinity": ({**GOOD_CONFIG, "S": math.inf}, ["/S"]),
    "S-nan": ({**GOOD_CONFIG, "S": math.nan}, ["/S"]),
    "S-beyond-doubles": ({**GOOD_CONFIG, "S": 10 ** 400}, ["/S"]),
    "ask-min-nan": ({**GOOD_CONFIG, "ask_S_min": math.nan}, ["/ask_S_min"]),
    "ask-max-infinity": ({**GOOD_CONFIG, "kind": "ask", "ask_S_min": 2.0, "S": math.inf}, ["/S"]),
    "M-float": ({**GOOD_CONFIG, "M": 64.0}, ["/M"]),
    "key_bits-float": ({**GOOD_CONFIG, "key_bits": 12.0}, ["/key_bits"]),
    "seed-float": ({**GOOD_CONFIG, "seed": 1445.0}, ["/seed"]),
    # a ring reads no S_min: CipherConfig refuses it, which the schema cannot say
    "psk-ask_S_min": ({**GOOD_CONFIG, "ask_S_min": 2.0}, ["/"]),
}


class TestValidatorMatchesSchema:
    @pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
    def test_same_pointers_as_schema(self, case):
        import jsonschema

        cfg, added = SCHEMA_CASES[case]
        oracle = jsonschema.Draft202012Validator(OLD_CONFIG_SCHEMA)
        want = ["/" + "/".join(map(str, e.absolute_path)) for e in oracle.iter_errors(cfg)]
        got = [p.split(": ", 1)[0] for p in validate_config_dict(cfg)]
        assert sorted(got) == sorted(want + added)


# one value per case, set on a config that is valid otherwise: every field
# of cipher.FIELD_RULES, values of the wrong type among them, ask_S_min on an
# ASK ladder
DRIFT_BASE = {"M": 4, "S": 1.0, "key_bits": 4, "seed": 1}
DRIFT_GRID = ([("M", v) for v in (0, 1, 3, 4, 4.0, True, np.int64(4))]
              + [("S", v) for v in (-1, 0, math.inf, math.nan, 10 ** 400, "10")]
              + [("key_bits", v) for v in (3, 4, 8.0)]
              + [("seed", v) for v in (0, 1, np.int64(5), True)]
              + [("lfsr_taps", v) for v in (None, 3, 3.5, -1, -13)]
              + [("osk", v) for v in (False, True, 2, "yes", None)]
              + [("kind", v) for v in ("psk", "qam")]
              + [("kappa", v) for v in (0, 1, 1.5, "1")]
              + [("ask_S_min", v) for v in (math.nan, math.inf, 2.0, True)])


class TestOneRuleTable:
    def test_grid_covers_every_rule(self):
        assert {field for field, _ in DRIFT_GRID} == set(cipher.FIELD_RULES)

    @pytest.mark.parametrize("field, value", DRIFT_GRID,
                             ids=[f"{f}={'10**400' if v == 10 ** 400 else repr(v)}"
                                  for f, v in DRIFT_GRID])
    def test_validator_flags_what_the_config_refuses(self, field, value):
        # the table's two readers cannot drift: the CLI flags the field's
        # pointer exactly when CipherConfig refuses the value, and a value
        # of the wrong type is refused there, with ValueError, not at the
        # first use of the config as TypeError or AttributeError
        base = {**DRIFT_BASE, "S": 100.0, "kind": "ask"} if field == "ask_S_min" else DRIFT_BASE
        cfg = {**base, field: value}
        flagged = any(p.startswith(f"/{field}:") for p in validate_config_dict(cfg))
        try:
            cipher.encode(np.zeros(1, dtype=np.int64), CipherConfig(**cfg))
        except ValueError:
            refused = True
        else:
            refused = False
        assert flagged == refused

    @pytest.mark.parametrize("field, value", [("S", np.float64(1.0)), ("lfsr_taps", None),
                                              ("ask_S_min", None)])
    def test_builds_as_the_plain_value(self, field, value):
        # numpy's float64 is a float, and null (JSON) or None is the
        # default of the taps and of ask_S_min
        assert validate_config_dict({**DRIFT_BASE, field: value}) == []
        assert CipherConfig(**{**DRIFT_BASE, field: value}) == CipherConfig(**DRIFT_BASE)


def readme_configs() -> dict[str, str]:
    """File name -> body of every ``cat > NAME.json <<'EOF'`` block in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return dict(re.findall(r"^cat > (\S+\.json) <<'EOF'\n(.*?)^EOF$", text, re.M | re.S))


class TestReadmeConfigs:
    def test_blocks_found(self):
        # the PSK and the ASK quick-start configs
        assert {"cfg.json", "ask.json"} <= set(readme_configs())

    @pytest.mark.parametrize("name", sorted(readme_configs()))
    def test_config_validates_and_builds(self, name):
        cfg = json.loads(readme_configs()[name])
        assert validate_config_dict(cfg) == []
        config = cli._checked_config(cfg)
        assert len(config.constellation()) == 2 * config.M


def readme_commands() -> list[list[str]]:
    """The arguments of every ``alphaeta`` line of README.md's sh blocks, with
    the backslash continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in blocks.splitlines()
            if line.startswith("alphaeta ")]


class TestReadmeCommands:
    def test_every_subcommand_shown(self):
        assert {argv[0] for argv in readme_commands()} == {"bounds", "simulate", "design",
                                                            "reproduce"}

    @pytest.mark.parametrize("argv", readme_commands(),
                             ids=[f"{i}-{argv[0]}" for i, argv in enumerate(readme_commands())])
    def test_command_parses(self, argv, capsys):
        args = cli.build_parser().parse_args(argv)  # a flag it refuses raises ValueError
        if args.cmd == "design":  # the --s-min pairing is checked past the parser
            assert cli.main(argv) == 0, capsys.readouterr().err


class TestRuntimeImports:
    def test_runs_on_numpy_alone(self, tmp_path):
        # scipy or jsonschema would add a third of a second to every start-up
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, "osk": False}))
        argv = ["simulate", "--config", str(cfg), "--seed", "3", "--bits", "500",
                "--attack", "bob", "ctoa-data", "ctoa-key", "kpa", "--out", str(tmp_path / "o")]
        script = (
            "import sys\n"
            "import alphaeta, alphaeta.cli\n"
            "from alphaeta import reproduce\n"
            f"assert alphaeta.cli.main({argv!r}) == 0\n"
            "assert reproduce.run_claim('1a').passed\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestReproduceCommand:
    def test_table_and_exit_code(self, tmp_path):
        # the three documented out-of-tolerance reference checks make the
        # command exit nonzero; the table itself must carry every claim
        code, out, _ = run_cli("reproduce", "--out", str(tmp_path),
                               "--format", "json")
        assert code == 1
        rows = json.loads((tmp_path / "reproduce.json").read_text())
        ids = {r["claim"] for r in rows}
        assert {"1a", "1b", "2a", "2b", "2c", "3a", "3b", "4a", "4b",
                "5a", "5b", "6", "7a", "7b", "7c", "8"} == ids
        failing = {r["claim"] for r in rows if not r["passed"]}
        assert failing == set(RED_CLAIMS)
        assert "PASS" in out and "FAIL" in out

    def test_format_without_out_exits_2(self, capsys):
        # the claims print as text lines: a --format with no table is refused
        code = cli.main(["reproduce", "--format", "json"])
        out, err = capsys.readouterr()
        assert_refused(code, out, err)
        assert len(err.splitlines()) == 1 and "--format" in err
