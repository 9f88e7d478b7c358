"""Smoke test: the study scripts in ``scripts/`` run to completion on small inputs.

Each script runs in a child interpreter with the package's source directory
on PYTHONPATH, as ``PYTHONPATH=src python scripts/<name>.py`` would.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdl_compass

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["calibration_study.py", "--trials", "5", "--n", "100"],
        ["anm_study.py", "--seeds", "3", "--n", "100"],
        ["pipeline_walkthrough.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    package_root = str(Path(cdl_compass.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([package_root, inherited] if inherited else [package_root]),
    }
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
