"""Smoke runs of the experiment scripts at tiny sizes, and of the README's
Python quick start, so that a deleted name the docs still use fails here."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alphaeta import reproduce

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("key_entropy_experiment.py", ["--key-bits", "8", "--m", "4", "--s", "0.01"],
     "M=4  |K|=8  one period, all-zero plaintext"),
])
def test_script_runs(script, args, header):
    assert run_script(script, args)[0] == header


def test_key_entropy_row_is_claim_5a():
    # at its defaults the S=0.005 row is claim 5a's configuration and record
    # seed, so the two print one pipeline's figure
    row = run_script("key_entropy_experiment.py", ["--s", "0.005"])[2].split()
    assert row == ["0.005", "682", "7.3443"]
    assert row[2] == f"{reproduce.run_claim('5a').measured:.4f}"


def run_script(script, args) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks, "README has no python block"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", blocks[0]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
