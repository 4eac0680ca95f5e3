"""Importing greedyrecon keeps freed solver arrays in the process heap on
glibc, unless the caller set glibc's thresholds, in a fresh interpreter."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
CYCLES = 20

# one warm-up cycle, then the minor page faults of CYCLES cycles that each
# allocate, touch and free a 4 MiB array
SCRIPT = f"""
import resource
import greedyrecon
import numpy as np

def cycle():
    a = np.empty(1 << 19)
    a.fill(1.0)
    del a

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({CYCLES}):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(user: dict) -> int:
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_VARS}
    env.update(user)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_freed_arrays_stay_in_the_heap():
    assert minor_faults({}) < 200


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_user_set_threshold_is_left_alone():
    # a 1 MiB mmap threshold maps every 4 MiB array fresh, so each cycle
    # faults at least once on its first touch
    assert minor_faults({"MALLOC_MMAP_THRESHOLD_": "1048576"}) >= CYCLES
