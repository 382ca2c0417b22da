"""Run one chaincnn benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is taken from ``src/chaincnn`` beside this script's directory; without
it the run exits with code 2. The run generates its inputs from the seed,
sets up ``SETUP_REPEATS`` times, then runs one untimed warm-up operation and
timed operations in a closed loop from this one process until the next one
would end past ``--seconds`` (the warm-up included), checking every output
against the reference. BLAS/OpenMP are pinned to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics plus ``trace.overhead_frac``,
and writes every span to ``.bench_work/trace/``. Lines before it give the
environment and the same numbers under workload-specific names
(``train_steps_per_s``, ``decode_residues_per_s``, ``failed_frac``, ...).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# (name, unit) of the end-to-end metrics every workload reports. An operation
# is an optimizer step on the training workloads and a CLI call on the decode
# workloads.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed, case):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "case": case,
    }


def run_checked(workload, inputs, reference, case, tracer=None, op_id="op"):
    """One operation; any raised error or failed output check sets ``error``."""
    from workloads import OpResult

    start = time.perf_counter()
    try:
        result = workload.run_op(inputs, tracer, op_id)
        if result.error is None:
            result.error = workload.check(result, reference, case)
    except Exception:
        return OpResult(wall_s=time.perf_counter() - start, error=traceback.format_exc())
    return result


def measure(workload, inputs, reference, case, seconds):
    """Closed loop: start the next operation only if it should end in time.

    The first operation warms up and is not timed; it is checked and counted
    like the others. The window of ``seconds`` includes it. Returns the
    warm-up result, the timed results and the peak RSS in MB after the first
    timed operation, which does not depend on how many operations fit in the
    run.
    """
    start = time.perf_counter()
    warmup = run_checked(workload, inputs, reference, case)
    results = []
    while True:
        results.append(run_checked(workload, inputs, reference, case))
        if len(results) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + results[-1].wall_s > seconds:
            return warmup, results, peak_rss_mb


def measure_traced(workload, inputs, reference, case, seconds, tracer):
    """After one warm-up, alternate untraced and traced runs of the same operation."""
    start = time.perf_counter()
    warmup = run_checked(workload, inputs, reference, case)
    untraced, traced = [], []
    while True:
        untraced.append(run_checked(workload, inputs, reference, case))
        op_id = f"op{len(traced)}"
        tracer.begin_op(op_id)
        with tracer.installed():
            traced.append(run_checked(workload, inputs, reference, case, tracer, op_id))
        tracer.end_op()
        pair_s = untraced[-1].wall_s + traced[-1].wall_s
        if time.perf_counter() - start + pair_s > seconds:
            return warmup, untraced, traced


def end_to_end(inputs, results, setup_times, peak_rss_mb):
    """Metric values plus summary lines under workload-specific names."""
    ok = [r for r in results if r.error is None]
    samples = [s for r in ok for s in (r.step_s or [r.wall_s])]
    residues = inputs.get("residues")  # decode workloads only
    values = {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_s": statistics.median(samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if residues is None:
        lines = [f"train_steps_per_s = {values['ops_per_s']:.6g} 1/s",
                 f"step_p50_s = {values['op_p50_s']:.6g} s",
                 f"final_loss = {ok[-1].output[-1]!r}",
                 f"checkpoint_sha256 = {ok[-1].checkpoint_sha256}"]
    else:
        lines = [f"decode_residues_per_s = {residues * values['ops_per_s']:.6g} residues/s",
                 f"call_p50_s = {values['op_p50_s']:.6g} s"]
    lines += [f"setup_s = {values['setup_s']:.6g} s",
              f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB"]
    return values, lines


def run(workload, seed, seconds, trace, reference=None):
    """Set up and measure one workload; return (result dict, summary lines).

    ``reference`` defaults to the workload's checked-in reference; tests pass
    their own for smaller workloads.
    """
    import tracing
    import workloads

    case = seed % workloads.CASES
    reference = reference or workloads.load_reference(workload.name)
    workdir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            start = time.perf_counter()
            inputs = workload.setup(str(workdir), case)
            setup_times.append(time.perf_counter() - start)
        env = environment(seed, case)
        lines = [f"env = {json.dumps(env)}", f"setup_repeats_s = {setup_times}"]
        if trace:
            tracer = tracing.Tracer()
            warmup, untraced, traced = measure_traced(
                workload, inputs, reference, case, seconds, tracer)
            results = [warmup] + untraced + traced
            overhead = (statistics.median(r.wall_s for r in traced)
                        / statistics.median(r.wall_s for r in untraced) - 1.0)
            trace_path = WORK / "trace" / f"{workload.name}-seed{seed}.json"
            tracer.write(str(trace_path), env)
            lines.append(f"spans = {os.path.relpath(trace_path, ROOT)} ({len(tracer.spans)} spans)")
            units = dict(tracing.PER_LAYER)
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in tracer.summary(overhead).items()}
        else:
            warmup, timed, peak_rss_mb = measure(workload, inputs, reference, case, seconds)
            results = [warmup] + timed
            metrics = {}
            if any(r.error is None for r in timed):
                values, summary = end_to_end(inputs, timed, setup_times, peak_rss_mb)
                lines += summary
                metrics = {name: {"value": values[name], "unit": unit}
                           for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.error is not None for r in results)
    lines.append(f"failed_frac = {failed / len(results):.6g} ({failed} of {len(results)})")
    for r in results:
        if r.error is not None:
            print(f"operation failed: {r.error}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chaincnn" / "__init__.py").is_file():
        print(f"error: no chaincnn package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
