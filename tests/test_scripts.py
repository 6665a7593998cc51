"""Smoke runs of the experiment scripts at tiny sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("key_entropy_experiment.py", ["--key-bits", "8", "--m", "4", "--s", "0.01"],
     "M=4  |K|=8  one period, all-zero plaintext"),
    ("bounds_vs_energy.py", ["--n", "8", "--s", "1.0"],
     "n,s,ring_error,usd_success,keyed_binary_error,unkeyed_homodyne_error"),
])
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
