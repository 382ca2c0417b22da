"""Regenerate a workload's reference outputs from the current program.

    python3 benchmarks/make_reference.py --workload decode_beam

Runs one operation for every case 0..CASES-1. Decode workloads store each
case's exact output (predicted label lines, or the ``eval --raw`` report).
Training workloads store each case's final logged loss; the check accepts any
final loss within ``TOLERANCE_FACTOR`` times the largest deviation across the
cases from their median, so a later change may move the numerics slightly but
not break training. Regenerating a reference is a change to the benchmark,
not to the program.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

import run as bench

TOLERANCE_FACTOR = 3.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    for var in bench.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(bench.SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    is_train = isinstance(workload, workloads.TrainWorkload)
    outputs = []
    for case in range(workloads.CASES):
        os.makedirs(bench.WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=bench.WORK)
        try:
            result = workload.run_op(workload.setup(workdir, case))
        finally:
            shutil.rmtree(workdir)
        outputs.append(result.output[-1] if is_train else result.output)
        print(f"case {case}: {outputs[-1] if is_train else result.wall_s}", flush=True)
    if is_train:
        center = statistics.median(outputs)
        reference = {
            "final_loss": center,
            "tolerance": TOLERANCE_FACTOR * max(abs(x - center) for x in outputs),
            "final_loss_by_case": outputs,
        }
    else:
        reference = {"outputs": outputs}
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(workloads.REFERENCE_DIR / f"{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
