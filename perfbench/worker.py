"""One benchmark run of one workload, in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread count pinned.  Runs timed passes until ``--seconds`` is spent,
then checks every pass's outputs, and prints one JSON object with the raw
metrics, the operation counts and the run record.

Untraced, it also times fresh single-point CLI invocations for setup_s, two
before each pass and two after the last, so that they sample the same spells
of machine speed as the passes.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import tracing
import workloads

SETUP_ARGV = ["-m", "spinpair.cli", "spectrum", "--delta", "1", "--b", "0.5"]
SETUP_HEADER = "delta,b,e0,e1,e2,e3,e4,e5"
SETUP_PER_GAP = 2


def setup_run(checked: workloads.Checked) -> float:
    """Wall time of one fresh single-point CLI invocation, whose output is checked."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], capture_output=True, timeout=60)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.decode("ascii", "replace").splitlines()
    want = [1.0, 0.5, *oracles.block_spectra(1.0, 0.5)]
    try:
        ok = (proc.returncode == 0 and lines[0] == SETUP_HEADER and len(lines) == 2
              and np.allclose(np.array(lines[1].split(","), dtype=float), want, rtol=1e-8, atol=1e-8))
    except (IndexError, ValueError):
        ok = False
    checked.add(ok, f"setup invocation: exit {proc.returncode}, output {lines[:2]}")
    return seconds


def timed_passes(workload, budget_s: float, between=lambda: None):
    """Run passes while another pass as long as the longest so far fits the budget.

    ``between`` runs, untimed, before the first pass and after every pass.
    """
    walls, outputs = [], []
    between()
    while not walls or sum(walls) + max(walls) <= budget_s:
        t0 = time.perf_counter()
        outputs.append(workload.run_pass())
        walls.append(time.perf_counter() - t0)
        between()
    return walls, outputs


def load_package() -> dict:
    """spinpair's modules by name, bottom-up."""
    import importlib

    return {name: importlib.import_module(f"spinpair.{name}") for name in tracing.LAYERS}


def measure(workload, package: dict, seconds: float, trace: bool,
            spans_path: str | None = None) -> dict:
    """Metrics, checks and per-pass details of one run; see run.py for the metrics."""
    result = {"record": workload.record()}
    checked = workloads.Checked()
    if trace:
        walls, outputs = timed_passes(workload, seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed(package):
            traced_walls, traced_outputs = timed_passes(workload, seconds / 2)
        traced_wall = statistics.fmean(traced_walls)
        metrics = tracing.layer_metrics(tracer, traced_wall, len(traced_walls))
        metrics["trace_overhead"] = traced_wall / statistics.fmean(walls) - 1.0
        result["predicted_counts"] = {k: [v, metrics[k]] for k, v in workload.predicted_counts().items()}
        result["traced_pass_s"] = traced_walls
        if spans_path:
            tracer.dump(spans_path)
        outputs += traced_outputs
    else:
        setup = []
        walls, outputs = timed_passes(
            workload, seconds, lambda: setup.extend(setup_run(checked) for _ in range(SETUP_PER_GAP)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "time_to_accuracy_s": statistics.median(
                workload.seconds_to_accuracy(o, t) for o, t in zip(outputs, walls)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
        }
        result["record"].update(setup_argv=SETUP_ARGV, setup_s=setup)
    result["passes"] = [workload.check(o, checked) for o in outputs]
    result["pass_s"] = walls
    if not trace:
        metrics["ok_frac"] = 1.0 - checked.failed / checked.attempted
    result.update(metrics=metrics, attempted=checked.attempted, failed=checked.failed,
                  messages=checked.messages)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True, help="directory for CSV outputs and spans")
    args = parser.parse_args(argv)

    import spinpair

    package = load_package()
    workload = workloads.WORKLOADS[args.workload](package, args.seed, args.out)
    spans = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json") if args.trace else None
    result = measure(workload, package, args.seconds, bool(args.trace), spans)
    result["record"].update(spinpair_version=spinpair.__version__, numpy_version=np.__version__,
                            python=sys.version.split()[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
