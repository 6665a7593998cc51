import csv
import json
import subprocess
import sys

import pytest

from alphaeta.cli import load_config, validate_config_dict

from oracles import RED_CLAIMS

GOOD_CONFIG = {
    "M": 64, "S": 40.0, "key_bits": 12, "seed": 1445,
    "osk": True, "kind": "psk", "kappa": 1.0,
}


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "alphaeta", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


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
        code, _, err = run_cli("bounds", "--n", "1", "--s", "1", "--kind", "srm")
        assert code == 2
        assert "invalid grid" in err

    def test_seventeen_digit_output(self):
        code, out, _ = run_cli("bounds", "--n", "4", "--s", "1", "--kind", "srm")
        row = next(csv.DictReader(out.splitlines()))
        assert len(row["value"].replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestSimulate:
    def test_requires_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        code, _, err = run_cli("simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "--seed" in err

    def test_schema_violations_use_pointers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3, "S": -1, "key_bits": 12, "seed": 9}))
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "/S:" in err and "/M:" in err

    @pytest.mark.parametrize("field", ["M", "key_bits", "seed"])
    def test_integral_float_in_integer_field_exits_2(self, tmp_path, field):
        # 4.0 passes a JSON Schema "integer" but is a float to CipherConfig
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, field: float(GOOD_CONFIG[field])}))
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--bits", "100", "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"/{field}:" in err and "Traceback" not in err

    def test_invalid_manifest_config_exits_like_config(self, tmp_path):
        bad = {"M": 3, "S": -1, "key_bits": 12, "seed": 9}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"seed": 5, "bits": 100, "plaintext": "random",
                                        "attacks": ["bob"], "config": bad}))
        via_config = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                             "--out", str(tmp_path / "a"))
        via_manifest = run_cli("simulate", "--from-manifest", str(manifest),
                               "--out", str(tmp_path / "b"))
        assert via_manifest[0] == via_config[0] == 2
        assert via_manifest[2] == via_config[2]
        assert "/M:" in via_manifest[2]

    @pytest.mark.parametrize("config, message", [
        ({**GOOD_CONFIG, "seed": 5000}, "seed must be a nonzero |K|-bit value"),
        ({**GOOD_CONFIG, "key_bits": 24}, "no shipped maximal-length taps"),
        ({**GOOD_CONFIG, "lfsr_taps": "zz"}, "invalid literal for int()"),
        ({**GOOD_CONFIG, "lfsr_taps": 0}, "zero feedback polynomial"),
        ({**GOOD_CONFIG, "kind": "ask", "ask_S_min": 0.5, "ask_S_max": 9.0},
         "minimum-energy constraint"),
        ({**GOOD_CONFIG, "kind": "ask", "ask_S_min": 9.0, "ask_S_max": 4.0},
         "S_max must exceed S_min"),
    ], ids=["seed-wider-than-key", "no-shipped-taps", "taps-not-a-number", "taps-zero",
            "ask-below-energy-floor", "ask-range-reversed"])
    def test_unbuildable_config_exits_2(self, tmp_path, config, message):
        # each passes the field table but cannot be built into a cipher
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--bits", "100", "--out", str(tmp_path / "o"))
        assert code == 2
        assert message in err and "Traceback" not in err
        with pytest.raises(SystemExit) as exc:
            load_config(cfg)
        assert exc.value.code == 2

    def test_key_entropy_beyond_posterior_limit_exits_2(self, tmp_path):
        # the limit is checked before any attack runs: no partial reports
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**GOOD_CONFIG, "key_bits": 24, "lfsr_taps": "0xC20001"}))
        out = tmp_path / "o"
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--bits", "100", "--attack", "bob", "key-entropy",
                               "--out", str(out))
        assert code == 2
        assert "error: exhaustive posterior is limited to |K| <= 22" in err
        assert "Traceback" not in err
        assert not (out / "report_bob.json").exists()

    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_bits_below_one_exits_2(self, tmp_path, bits):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOOD_CONFIG))
        code, _, err = run_cli("simulate", "--config", str(cfg), "--seed", "5",
                               "--bits", bits, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error: --bits must be at least 1" in err and "Traceback" not in err

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
                             "--seed", "17", "--out", str(out2))
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
        assert int(row["bases"]) == 60
        assert float(row["neighbor_error"]) >= 0.3


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
        "ask_S_max": {"type": "number"},
    },
}

# (config, pointers the validator adds to the schema's): JSON Schema counts an
# integral float as an integer, which CipherConfig does not
SCHEMA_CASES = {
    "good": (GOOD_CONFIG, []),
    "required-only": ({"M": 64, "S": 40.0, "key_bits": 12, "seed": 1445}, []),
    "M-string": ({**GOOD_CONFIG, "M": "64"}, []),
    "S-string": ({**GOOD_CONFIG, "S": "40"}, []),
    "key_bits-list": ({**GOOD_CONFIG, "key_bits": [12]}, []),
    "seed-null": ({**GOOD_CONFIG, "seed": None}, []),
    "taps-float": ({**GOOD_CONFIG, "lfsr_taps": 1.5}, []),
    "taps-string": ({**GOOD_CONFIG, "lfsr_taps": "0x829"}, []),
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
    "M-float": ({**GOOD_CONFIG, "M": 64.0}, ["/M"]),
    "key_bits-float": ({**GOOD_CONFIG, "key_bits": 12.0}, ["/key_bits"]),
    "seed-float": ({**GOOD_CONFIG, "seed": 1445.0}, ["/seed"]),
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
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
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
