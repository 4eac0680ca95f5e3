"""One workload in one fresh process: set up, then timed rounds, then a report.

Run by ``run.py`` with the BLAS pool pinned to one thread and ``src`` on
``PYTHONPATH``.  The worker writes ``READY`` on its standard output as soon
as set-up is done, and at the end one JSON line with its measurements.
Everything the program prints goes to standard error instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # keep the protocol stream apart from anything the program prints
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    root = Path(__file__).resolve().parent.parent
    import greedyrecon

    src = (root / "src").resolve()
    if Path(greedyrecon.__file__).resolve().parent.parent != src:
        print(f"greedyrecon imported from {greedyrecon.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, out, args.seed)
    wl.setup()
    proto.write("READY\n")
    proto.flush()
    if args.setup_only:
        return 0

    base = tracer.totals() if tracer else {}
    walls, cpus, results = [], [], []
    start = time.perf_counter()
    while True:
        wl.reset()
        c0, t0 = _cpu_seconds(), time.perf_counter()
        raw = wl.operate()
        t1, c1 = time.perf_counter(), _cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        results.append(wl.verify(raw))
        # whole rounds only: start another one if it should end in time
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    digests = sorted({r.digest for r in results})
    failures = sorted({f for r in results for f in r.failures})
    if len(digests) > 1:
        failures.append(f"{len(digests)} different outputs from rounds on the same inputs")
    report = {
        "rounds": len(results),
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "failures": failures,
        "digests": digests,
        "greedy": results[-1].greedy,
    }
    if tracer:
        total = tracer.totals()
        rounds = len(results)
        # one set-up plus one round, as a single-round run would trace it
        per_run = {k: base.get(k, 0) + (v - base.get(k, 0)) / rounds
                   for k, v in total.items()}
        report["bypass_violations"] = [
            name for name in wl.bypassed if per_run.get(name + ".calls", 0)]
        layers = tracing.layer_metrics(per_run, wl.threads)
        for key in ("candidates", "candidates_failed", "zero_scores"):
            layers["greedy." + key] = (float(results[-1].greedy.get(key, 0)), "count")
        report["layers"] = layers
        tracer.write_spans(out / "spans.csv")
    proto.write(json.dumps(report) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
