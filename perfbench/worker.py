"""Child process of the benchmark: set-up, or the timed loop of one workload.

    worker.py setup   --workload W --root DIR --seed N --size S --reps K --out F
    worker.py measure --workload W --root DIR --seconds T --trace 0|1 --size S --out F
                      [--spans FILE]

`run.py` starts it with the BLAS/OpenMP thread variables pinned and
PYTHONPATH pointing at the program's sources; the result goes to the JSON
file F. Set-up runs K times into the same directory and reports each
duration; only the last one's files are kept for the timed loop. A traced
measurement writes its spans to FILE when the loop ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, median_layer_metrics
from workloads import WORKLOADS, digest, fingerprint


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")
                        or k == "VECLIB_MAXIMUM_THREADS"},
    }


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def setup(args) -> dict:
    root = Path(args.root)
    times, synth_times, prints = [], [], []
    for _ in range(args.reps):
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        workload = WORKLOADS[args.workload](root, args.size)
        t0 = time.perf_counter()
        workload.generate(args.seed)
        t1 = time.perf_counter()
        workload.prepare()
        t2 = time.perf_counter()
        times.append(t2 - t0)
        synth_times.append(t1 - t0)
        prints.append(fingerprint(workload.corpus))
    return {"setup_s": times, "synth_s": synth_times, "fingerprints": prints}


def measure(args) -> dict:
    workload = WORKLOADS[args.workload](Path(args.root), args.size)
    tracer = Tracer() if args.trace else None
    env = environment()
    samples, traced = [], []
    attempted = failed = 0
    work = work_time = 0.0
    problems: list[str] = []
    reference = headline = None
    start = time.perf_counter()
    call = 0
    while True:
        # the traced run alternates untraced and traced calls, so the
        # difference of their medians is the tracing overhead
        trace_this = tracer is not None and call % 2 == 1
        if trace_this:
            tracer.call_id = call
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.call()
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            problems.append(f"call {call} raised")
            break
        finally:
            elapsed = time.perf_counter() - t0
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else samples).append(elapsed)
        n, bad, units = workload.outcome(result)
        attempted += n
        failed += bad
        if not trace_this:
            work += units
            work_time += elapsed
        outputs = digest(workload.outputs(result), workload.root)
        if reference is None:
            reference = outputs
            found, headline = workload.check(result)
            problems += found
            if found:
                failed += n - bad
        elif outputs != reference:
            problems.append(f"call {call}: outputs differ from the first call's")
            failed += n - bad
        call += 1
        done = time.perf_counter() - start >= args.seconds
        if done and len(samples) >= 2 and (tracer is None or len(traced) >= 1):
            break

    out = {"samples": samples, "traced_samples": traced, "attempted": attempted,
           "failed": failed, "problems": problems, "work": work,
           "work_time": work_time, "headline_f1": headline,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           * 1024 / 1e6,
           "threads": thread_count(), "env": env}
    if tracer is not None and traced:
        out["layers"] = median_layer_metrics(tracer.spans)
        Path(args.spans).write_text(json.dumps(
            {"fields": ["call", "id", "parent", "name", "start", "end", "counts"],
             "spans": tracer.spans}))
    out["env"]["loadavg_end"] = list(os.getloadavg())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--root", required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="where a traced measurement writes its spans")
    args = p.parse_args(argv)
    result = setup(args) if args.mode == "setup" else measure(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
