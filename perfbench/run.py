"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload train_a --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
and installs no wrappers; --trace 1 wraps the program's public functions
and reports the per-layer metrics instead, writes the span aggregates to
perfbench/out/, and prints the end-to-end figures it saw on the line
before the result, so the tracing overhead can be read off.
"""

import argparse
import json
import os
import sys

# BLAS threads are fixed before numpy loads; one thread keeps figures
# steady on a machine whose cores other jobs share.
for _var in ("MEGABYTE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Compile the program afresh in every run, so the first run of a checkout
# sets up like the others, and leave no bytecode behind.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "megabyte", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/megabyte is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import harness

    if os.path.dirname(os.path.abspath(harness.inference.__file__)) != os.path.join(SRC, "megabyte"):
        print(f"perfbench: megabyte was imported from {harness.inference.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    # Set-up is counted in CPU seconds from process start, where the
    # process's CPU clock reads 0.
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), 0.0,
                         out_dir=os.path.join(HERE, "out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
