"""gestprop benchmark: one workload per invocation, printed metric by metric.

    python3 perfbench/run.py --workload cv_combined --seed 303 --seconds 40 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics from spans recorded around gestprop's
public functions. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it give each
metric by name and unit, the per-workload aliases named in README.md, the
sample count, the input fingerprint and the environment.

This process never imports numpy. It pins the BLAS/OpenMP thread variables
and starts two fresh child processes one after the other: one runs set-up
several times, one runs the timed loop, so `peak_rss_mb` is the timed
loop's own and never carries over from set-up or another workload. Run it
from a source checkout; it exits non-zero without a result when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60
MEASURE_SLACK_S = 60          # the timed loop finishes its last call past --seconds
MIN_TAIL_SAMPLES = 10         # samples beyond the reported tail percentile

# Per-workload name and unit of work_per_s.
ALIASES = {
    "cv_combined": ("train_steps_per_s", "steps/s"),
    "features_long": ("audio_s_per_s", "audio_s/s"),
}


class BenchError(RuntimeError):
    pass


def _child(mode: str, args, root: Path, timeout: float, *extra: str) -> dict:
    out = root.parent / f"{root.name}.{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--root", str(root),
           "--size", args.size, "--out", str(out), *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} took longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} exited with code {proc.returncode}")
    return json.loads(out.read_text())


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least MIN_TAIL_SAMPLES beyond it."""
    n = len(samples)
    pct = int(100 * (1 - MIN_TAIL_SAMPLES / n)) if n else 0
    if pct < 50:
        return None
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, int(n * pct / 100))]


def end_to_end(setup: dict, run: dict) -> dict[str, float]:
    failed_ratio = run["failed"] / run["attempted"]
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "run_s": statistics.median(run["samples"]),
        "work_per_s": run["work"] / run["work_time"],
        "headline_f1": run["headline_f1"],
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": 1.0 - failed_ratio,
    }


def per_layer(setup: dict, run: dict) -> dict[str, float]:
    untraced = statistics.median(run["samples"])
    overhead = statistics.median(run["traced_samples"]) - untraced
    return {**run["layers"],
            "synth.generate_synthetic_corpus.s": statistics.median(setup["synth_s"]),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / untraced}


def bench(args, declared: list[dict]) -> dict:
    work = ROOT / ".perfbench_work"
    root = work / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    spans = work / "spans" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        setup = _child("setup", args, root, SETUP_TIMEOUT_S,
                       "--seed", str(args.seed), "--reps", str(SETUP_REPS))
        run = _child("measure", args, root, args.seconds + MEASURE_SLACK_S,
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--spans", str(spans))
    finally:
        shutil.rmtree(root, ignore_errors=True)
        for leftover in work.glob(f"{root.name}.*.json"):
            leftover.unlink()
    if not run["samples"]:
        raise BenchError("no timed call completed: " + "; ".join(run["problems"]))

    problems = list(run["problems"])
    if len(set(setup["fingerprints"])) != 1:
        problems.append("set-up generated different corpora from one seed")
    if run["threads"] > run["env"]["nproc"]:
        problems.append(f"{run['threads']} threads on {run['env']['nproc']} cpus")
    values = per_layer(setup, run) if args.trace else end_to_end(setup, run)

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:<14.6g} {m['unit']}")
    if not args.trace:
        alias, unit = ALIASES[args.workload]
        print(f"{alias:<44} {values['work_per_s']:<14.6g} {unit}")
        print(f"{'failed_ratio':<44} {1.0 - values['ok_ratio']:<14.6g} ratio")
        found = tail(run["samples"])
        label = f"run_s_p{found[0]}" if found else "run_s_tail"
        shown = f"{found[1]:<14.6g} s" if found else \
            f"n/a (needs {2 * MIN_TAIL_SAMPLES} samples)"
        print(f"{label:<44} {shown}")
    print(f"{'samples':<44} {len(run['samples']):<14d} calls")
    for problem in problems:
        print(f"check failed: {problem}")
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "input_sha256": setup["fingerprints"][-1],
        "setup_samples_s": setup["setup_s"], "run_samples_s": run["samples"],
        "traced_samples_s": run["traced_samples"], "threads": run["threads"],
        "spans": str(spans.relative_to(ROOT)) if args.trace else None,
        "env": run["env"]}))
    return {"correct": not problems and run["failed"] == 0,
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=303)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed loop (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's tests")
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not (ROOT / "src" / "gestprop" / "__init__.py").is_file():
            raise BenchError(f"program sources not found under {ROOT / 'src'}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        result = bench(args, spec["per_layer" if args.trace else "end_to_end"])
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
