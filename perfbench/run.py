"""symilp benchmark: one workload per process, exact checks, metrics as JSON.

    python3 perfbench/run.py --workload paper_scan --seed 1 --seconds 20 --trace 0

The package is imported from `src/` next to this directory; nothing is
installed.  The run sets up the workload's inputs at least MIN_SETUPS times
and until MIN_SETUP_S seconds have gone (timing each), then makes passes over
the workload's operations until --seconds have gone.
Every answer is checked exactly; a wrong one ends the run with exit code 1
and no result.

Pass and setup times are scaled to a reference host speed read throughout
the work by `calibrate.Meter`, which leaves its own time out.
With --trace 0 the last line reports the end-to-end metrics: the median
scaled pass time, the median scaled setup time and the peak resident memory.
With --trace 1
the run alternates untraced passes with passes under `tracing.Tracer` and
reports the per-layer metrics, the tracing overhead and the failed ratio.
The line before the result records the run's context: commit, Python
version, CPU count, seed and sample counts.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_SETUPS = 3
MIN_SETUP_S = 2.0
MAX_SETUPS = 500
WARMUP_UNITS = 10

def _import_package():
    """Import symilp from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "symilp", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}/symilp")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import symilp

    if os.path.dirname(os.path.dirname(os.path.abspath(symilp.__file__))) != SRC:
        sys.exit(f"perfbench: symilp imported from {symilp.__file__}, not {SRC}")


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    """sha256 over the package's .py files, so runs outside git are identified."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "symilp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _timed_pass(run_pass, state, tally, meter=None):
    """(wall seconds, seconds at reference host speed) of one pass.

    Without a meter the pass is only timed, and both figures are its wall
    time; traced passes run so, to keep readings out of their spans.
    """
    gc.collect()
    if meter is None:
        start = time.perf_counter()
        run_pass(state, tally)
        wall = time.perf_counter() - start
        return wall, wall
    meter.start()
    try:
        run_pass(state, tally)
    finally:
        timed = meter.stop()
    return timed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import calibrate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    draw, setup, run_pass = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    tally = workloads.Tally()
    setup_marks, pass_marks = [], []
    setup_s, plain_s, scaled_s, traced_s = [], [], [], []
    meter = calibrate.Meter()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        plan = draw(args.seed)
        for _ in range(WARMUP_UNITS):
            calibrate.unit()
        state = None
        if not tracer:
            meter.start()
        while len(setup_s) < MIN_SETUPS or (
                sum(setup_s) < MIN_SETUP_S and len(setup_s) < MAX_SETUPS):
            state = None
            gc.collect()
            if tracer:
                tracer.install()
                mark = tracer.mark()
            start, held = time.perf_counter(), meter.held
            state = setup(plan, workdir)
            setup_s.append(time.perf_counter() - start - (meter.held - held))
            if tracer:
                tracer.uninstall()
                setup_marks.append(tracer.unit(mark))
        if not tracer:
            setup_wall, setup_scaled = meter.stop()
        setup_units, meter.units = meter.units, []

        deadline = time.perf_counter() + args.seconds
        while True:
            if tracer and len(traced_s) < len(plain_s):
                tracer.install()
                mark = tracer.mark()
                try:
                    traced_s.append(_timed_pass(run_pass, state, tally)[0])
                finally:
                    tracer.uninstall()
                pass_marks.append(tracer.unit(mark))
            else:
                wall, scaled = _timed_pass(run_pass, state, tally, meter)
                plain_s.append(wall)
                scaled_s.append(scaled)
            if time.perf_counter() >= deadline and (not tracer or traced_s):
                break
    except workloads.ExactnessError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: wrong answer: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if meter.running:
            meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_samples": len(setup_s),
        "pass_samples": len(plain_s),
        "pass_s_each": [round(t, 4) for t in plain_s],
        "pass_scaled_s_each": [round(t, 4) for t in scaled_s],
        "setup_wall_s": statistics.median(setup_s),
        "unit_readings": len(setup_units) + len(meter.units),
        "unit_s_median": statistics.median(setup_units + meter.units),
        "traced_pass_samples": len(traced_s),
        "failures": tally.errors,
    }
    if tracer:
        missing = sorted(tracer.missing)
        context["missing"] = missing
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"context": context, "spans": tracer.spans}, fh)
        metrics = tracing.per_layer_metrics(tracer.missing, setup_marks, pass_marks)
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(plain_s), "s")
        metrics["failed_ratio"] = (tally.failed / tally.attempted, "1")
    else:
        metrics = {
            "pass_s": (statistics.median(scaled_s), "s"),
            "setup_s": (statistics.median(setup_s) * setup_scaled / setup_wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
