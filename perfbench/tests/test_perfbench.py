"""Tests of the benchmark harness's own logic (not of the package)."""
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from summary import Tally, quartiles, summarize, tail_percentile, valid_metric_name  # noqa: E402

from alphaeta import CipherConfig, encode, key_posterior_entropy, transmit  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _module(name: str, source: str, **globals_) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(globals_)
    exec(source, mod.__dict__)
    return mod


@pytest.fixture
def fake_package():
    """A detection module and an attacks module that re-imports its function,
    as ``attacks.helstrom_binary_mixed`` does in the package."""
    clock = FakeClock()
    detection = _module("pkg.detection", (
        "def helstrom_binary_mixed(rho0, rho1):\n"
        "    clock.advance(2.5)\n"
        "    return 0.5\n"), clock=clock)
    attacks = _module("pkg.attacks", (
        "def eve_ctoa_data(record):\n"
        "    clock.advance(1.0)\n"
        "    helstrom_binary_mixed(None, None)\n"
        "    clock.advance(0.5)\n"
        "    return len(record)\n"
        "def _private():\n"
        "    return 1\n"), clock=clock,
        helstrom_binary_mixed=detection.helstrom_binary_mixed)
    return clock, detection, attacks


def test_self_time_excludes_reimported_child(fake_package):
    clock, detection, attacks = fake_package
    original = detection.helstrom_binary_mixed
    recorder = spans.Recorder(clock)
    probes = {"attacks.eve_ctoa_data": spans.Probe(
        counts=lambda a: {"attacks.slots_scored": len(a["record"])})}
    restore = spans.install(recorder, [detection, attacks], probes)
    try:
        assert attacks.helstrom_binary_mixed is detection.helstrom_binary_mixed
        assert attacks.helstrom_binary_mixed is not original
        with recorder.span("top"):
            assert attacks.eve_ctoa_data([1, 2, 3]) == 3
            detection.helstrom_binary_mixed(None, None)
    finally:
        restore()
    assert attacks.helstrom_binary_mixed is original is detection.helstrom_binary_mixed
    assert attacks._private.__name__ == "_private"

    by_name = {s.name: s for s in recorder.spans}
    child = [s for s in recorder.spans if s.name == "detection.helstrom_binary_mixed"]
    assert len(child) == 2
    assert child[0].parent == by_name["attacks.eve_ctoa_data"].id
    assert child[1].parent == by_name["top"].id
    self_t = spans.self_times(recorder.spans)
    assert self_t["attacks.eve_ctoa_data"] == pytest.approx(1.5)
    assert self_t["detection.helstrom_binary_mixed"] == pytest.approx(5.0)
    assert self_t["top"] == pytest.approx(0.0)
    assert spans.top_level_time(recorder.spans) == pytest.approx(6.5)
    assert recorder.counters["attacks.slots_scored"] == 3


def test_self_time_and_keys_on_synthetic_tree():
    tree = [
        spans.Span(0, "cli.main", 0.0, 10.0, None),
        spans.Span(1, "cipher.lfsr_stream", 0.5, 1.5, 0, key="a"),
        spans.Span(2, "cipher.lfsr_stream", 2.0, 2.25, 0, key="a"),
        spans.Span(3, "attacks.eve_ctoa_data", 3.0, 9.0, 0),
        spans.Span(4, "cipher.lfsr_stream", 3.5, 4.0, 3, key="b"),
        spans.Span(5, "detection.helstrom_binary_mixed", 5.0, 8.0, 3),
    ]
    self_t = spans.self_times(tree)
    assert self_t["cli.main"] == pytest.approx(10.0 - 1.0 - 0.25 - 6.0)
    assert self_t["attacks.eve_ctoa_data"] == pytest.approx(6.0 - 0.5 - 3.0)
    assert self_t["cipher.lfsr_stream"] == pytest.approx(1.75)
    assert spans.call_counts(tree)["cipher.lfsr_stream"] == 3
    assert spans.first_per_key(tree, "cipher.lfsr_stream") == pytest.approx(1.0 + 0.5)
    assert spans.total_duration(tree, "detection.helstrom_binary_mixed") == 3.0
    assert spans.from_dicts(spans.to_dicts(tree)) == tree


@pytest.mark.parametrize("n, tail", [(1, None), (10, None), (39, None), (40, 75.0),
                                     (100, 90.0), (199, 90.0), (200, 95.0),
                                     (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    assert tail_percentile(n) == tail


def test_summarize_reports_median_count_and_supported_tail():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    s = summarize([float(v) for v in range(1, 101)])
    assert s["n"] == 100 and s["median"] == 50.5
    assert s["p90"] == pytest.approx(90.1)
    with pytest.raises(ValueError):
        summarize([])


def test_quartiles_follow_statistics_quantiles():
    q = quartiles([float(v) for v in range(1, 11)])  # exclusive method: 2.75, 5.5, 8.25
    assert (q["q1"], q["median"], q["q3"]) == (2.75, 5.5, 8.25)
    assert q["spread"] == pytest.approx(5.5 / 5.5)
    assert quartiles([4.0])["spread"] is None
    assert quartiles([0.0, 0.0, 0.0])["spread"] is None


@pytest.mark.parametrize("name", ["wall_s", "setup_s", "reproduce.claim.4b_s", "failed_frac",
                                  "attacks.key_posterior_entropy.k14_osk_s", "7b", "a-b.c_d"])
def test_metric_names_accepted(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_wall", ".x", "-x", "wall s", "a/b", "wall%", "a" * 65])
def test_metric_names_rejected(name):
    assert not valid_metric_name(name)


def test_declared_metrics_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_layer_metrics_cover_every_declared_per_layer_metric():
    trace = {"spans": spans.to_dicts([spans.Span(0, "cli.main", 0.0, 2.0, None)]),
             "counters": {}, "tracemalloc_peak_mb": {}}
    m = run.layer_metrics(trace, 2.5, 2.0, 0.0, ["k14_osk", "k14_plain", "k16_osk", "k16_plain"],
                          checks.CLAIM_IDS)
    assert set(m) == {x["name"] for x in BENCHMARK["per_layer"]}
    assert m["trace.overhead_s"] == 0.5 and m["trace.uncovered_s"] == 0.5


def test_tally_counts_failed_operations():
    t = Tally()
    assert t.failed_frac == 1.0  # nothing ran
    t.record("a", True)
    t.record("b", False, "why")
    t.record("c", True)
    t.record("d", False)
    assert (t.attempted, t.failed) == (4, 2)
    assert t.failed_frac == 0.5
    assert t.failures == ["b: why", "d"]


def _reproduce_outputs():
    return {"passed": {cid: cid not in checks.EXPECTED_RED for cid in checks.CLAIM_IDS},
            "errors": {}}


def test_reproduce_check_requires_exact_passing_set():
    t = Tally()
    checks.check_reproduce(_reproduce_outputs(), t)
    assert (t.attempted, t.failed) == (16, 0)

    out = _reproduce_outputs()
    out["passed"]["2a"] = True  # a deliberate red turning green is a change too
    out["passed"]["4b"] = False
    del out["passed"]["8"]
    out["errors"]["8"] = "RuntimeError()"
    out["passed"]["9"] = True  # a claim nobody registered
    t = Tally()
    checks.check_reproduce(out, t)
    assert (t.attempted, t.failed) == (17, 4)


def _report(value, trials=100_000):
    return json.dumps({"empirical": {"value": value, "trials": trials}}).encode()


def test_simulate_check_counts_each_broken_contract():
    refs = checks.REFERENCE_RATES["simulate_plain"]
    good = {"report_bob.json": _report(0.0)}
    good.update({name: _report(ref) for name, ref in refs.items()})
    ok = {"exit_code": 0}
    assert checks.simulate_problems("simulate_plain", ok, good, None) == []
    assert checks.simulate_problems("simulate_plain", ok, good, dict(good)) == []

    bad = dict(good, **{"report_bob.json": _report(0.001),
                        "report_ctoa_data.json": _report(refs["report_ctoa_data.json"] + 0.01)})
    problems = checks.simulate_problems("simulate_plain", ok, bad, good)
    assert len(problems) == 3  # Bob's BER, the off-reference rate, the rerun mismatch
    assert checks.simulate_problems("simulate_plain", {"exit_code": 2}, good, None)
    missing = {k: v for k, v in good.items() if k != "report_kpa_key.json"}
    assert checks.simulate_problems("simulate_plain", ok, missing, None)

    osk = {"report_bob.json": _report(0.0), "report_ctoa_data.json": _report(0.52),
           "report_kpa_key.json": _report(checks.REFERENCE_RATES["simulate_osk"]["report_kpa_key.json"])}
    assert len(checks.simulate_problems("simulate_osk", ok, osk, None)) == 1


def test_rate_within_uses_binomial_standard_error():
    # reference 0.5 over 1e6 slots, value over 1e5: sigma ~ 1.66e-3
    assert checks.rate_within(0.5 + 4.5 * 1.66e-3, 0.5, 100_000, 1_000_000)
    assert not checks.rate_within(0.5 + 5.5 * 1.66e-3, 0.5, 100_000, 1_000_000)


@pytest.mark.parametrize("osk", [True, False])
@pytest.mark.parametrize("key_bits, M, S", [(6, 2, 1.0), (8, 4, 0.5)])
def test_key_entropy_oracle_matches_package(osk, key_bits, M, S):
    cfg = CipherConfig(M=M, S=S, key_bits=key_bits, seed=37, osk=osk)
    rng = np.random.default_rng(key_bits)
    x = rng.integers(0, 2, 40)
    record = transmit(encode(x, cfg), cfg, rng)
    h = key_posterior_entropy(record, cfg, x)
    assert checks.key_entropy_oracle(record.samples, cfg, x) == pytest.approx(h, abs=1e-12)
    assert checks.entropy_problem(h, h, key_bits) == ""
    assert checks.entropy_problem(h + 1e-3, h, key_bits)
    assert checks.entropy_problem(float("nan"), h, key_bits)
