"""spinpair benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload cli-grid --seed 7 --seconds 35 --trace 0

Run it from the root of a spinpair checkout; the package is used from
``src`` as it stands, so there is nothing to build.  Workloads, metrics and
their units are listed in BENCHMARK.json; perfbench/METRICS.md says which
per-layer metric should move which end-to-end metric on which workload.

With ``--trace 0`` the run reports the end-to-end metrics:

* setup_s: median wall time of fresh ``python -m spinpair.cli spectrum``
  single-point invocations (interpreter start, import, one call), the cost
  every CLI invocation pays; they run between the passes;
* wall_s: median wall time of one pass of the workload, in one worker
  process whose BLAS and OpenMP pools are pinned to the usable cores;
* items_per_s: Monte Carlo samples (mc-*) or CSV rows (cli-grid) per
  second of wall_s;
* time_to_accuracy_s: sum over a pass's estimates of wall time x
  (stderr / 1e-4)^2, the time to reach a 1e-4 standard error (on cli-grid
  the pass time stands in for the untimed estimates, see METRICS.md);
* peak_rss_mb: peak resident memory of the worker process;
* ok_frac: 1 - failed / attempted operations.  An operation is one setup
  invocation, one estimate, one CLI invocation or one CSV row; it fails when
  it raises, exits non-zero or disagrees with the benchmark's own oracle.

With ``--trace 1`` it reports the per-layer metrics of perfbench/tracing.py
instead.  The last line of standard output is the JSON result; the full run
record (versions, cores, seeds, argv, per-pass times, CSV digests, spans, and
the CPU time stolen by the hypervisor during the run, which marks runs slowed
by other guests) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
WORKER_LIMIT_S = 160.0


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env(threads: int) -> dict:
    src = os.path.abspath("src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests so far (Linux /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, timeout=30)
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def result_line(spec: dict, result: dict, trace: bool) -> dict:
    """The result object printed as the last line, from a worker result.

    Raises ValueError if a metric BENCHMARK.json lists was not measured.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "spinpair", "__init__.py")):
        return fail("run from the root of a spinpair checkout (src/spinpair is missing)", 2)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive", 2)

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    out_dir = os.path.abspath(OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", repr(args.seconds),
              "--trace", str(args.trace), "--out", out_dir]
    steal_before = steal_seconds()
    try:
        proc = subprocess.run(worker, env=env, stdout=subprocess.PIPE,
                              timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        return fail("worker exceeded the run time limit", 1)
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}", 1)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    steal_after = steal_seconds()

    try:
        line = result_line(spec, result, bool(args.trace))
    except ValueError as exc:
        return fail(str(exc), 1)
    result["record"].update(
        argv=[os.path.relpath(__file__), *(sys.argv[1:] if argv is None else argv)],
        workload=args.workload, workload_seed=args.seed, seconds=args.seconds,
        trace=args.trace, git_commit=git_commit(), cores=os.cpu_count(),
        usable_cores=threads, blas_threads=threads,
        cpu_steal_s=None if steal_before is None or steal_after is None else steal_after - steal_before)
    record_path = os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for message in result["messages"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
