"""Importing greedyrecon pins the BLAS pool to one thread unless the caller
chose a count, in a fresh interpreter where numpy is not yet imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
], ids=["unset", "user-set"])
def test_import_pins_blas_pool_unless_set(user, expected):
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARS}
    env.update(user)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = ("import os, greedyrecon; "
              f"print(' '.join(os.environ[v] for v in {POOL_VARS!r}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected
