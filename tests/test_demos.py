"""The demos run end to end: 01 (forward solver), 02 (reads a GreedyRun),
03 and 05 (identification and landscape through the stacked oracles) and
04 (the Taylor-gap table of two designs)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("01_forward_solver_convergence.py", "second-order accuracy"),
    ("02_greedy_design_and_recovery.py", "designed"),
    ("03_random_controls_degeneracy.py", "off-set/on-set factor"),
    ("04_taylor_gap_for_closed_forms.py", "per-monomial gap |taylor - identified|"),
    ("05_landscape_and_stability.py", "perturbation-response ratios"),
], ids=["01", "02", "03", "04", "05"])
def test_demo_runs(script, expected):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
