"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload design16 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every process this script starts is a
fresh Python interpreter with the BLAS pool pinned to one thread and the
checkout's ``src`` on ``PYTHONPATH``:

* with ``--trace 0`` it times ``SETUP_PROBES`` processes that only set up,
  then one worker that sets up and runs whole rounds of the workload for
  about ``--seconds``; it prints the end-to-end metrics;
* with ``--trace 1`` it runs one worker with timing wrappers installed and
  prints the per-layer metrics.

Run artifacts go to ``.perfbench_out/<workload>/`` in the checkout.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design16", "identify32p5", "forward-fine")
ONE_OFF = ("design32", "design64", "design16p3")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0
ONE_OFF_TIMEOUT_S = 1800.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the candidate thread pool is the only parallelism, and
    # a second BLAS thread burns CPU without shortening wall time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, out: Path, log, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                            env=worker_env(), cwd=ROOT)
    return proc, t0


def run_worker(args, out: Path, log, setup_only: bool):
    """Start one worker; returns (set-up seconds, report or None)."""
    proc, t0 = start_worker(args, out, log, setup_only)
    if setup_only:
        timeout = PROBE_TIMEOUT_S
    else:
        timeout = RUN_TIMEOUT_S if args.workload in WORKLOADS else ONE_OFF_TIMEOUT_S
    deadline = t0 + timeout
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline - time.perf_counter())
        if not ready or proc.stdout.readline().strip() != "READY":
            raise WorkerError("worker did not finish set-up")
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(rest.strip().split("\n")[-1]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ONE_OFF)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "greedyrecon" / "__init__.py").is_file():
        print(f"no greedyrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    try:
        with open(out / "worker.log", "w") as log:
            setups = []
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    setups.append(run_worker(args, out, log, setup_only=True)[0])
            setup_s, report = run_worker(args, out, log, setup_only=False)
            setups.append(setup_s)
    except (WorkerError, ValueError) as exc:
        print(f"{args.workload}: {exc}; see {out / 'worker.log'}", file=sys.stderr)
        return 1

    report["setup_s"] = setups
    (out / "run.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(report["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(report["cpu_s"]), "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
        }
    failures = report["failures"] + [
        f"{name} was called, but the workload is built to bypass it"
        for name in report.get("bypass_violations", [])]
    for failure in failures:
        print(f"{args.workload}: check failed: {failure}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
