"""Benchmark of the cvgfa command line, one workload per invocation.

    python3 bench/run.py --workload fit-accept --seed 1 --seconds 30 --trace 0

It drives ``cvgfa.cli.main`` in this process as one client in a closed
loop: each command starts when the previous one has finished, with
``--threads 1``. Inputs are made from ``--seed``; cvgfa sees only the
generated dataset directories. Every command's output is checked, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it wraps the public functions of cvgfa's modules in spans
(see ``tracer.py``) and reports the per-layer metrics; that run does a
fixed amount of work, once untraced and once traced, so that its counts
repeat exactly and the tracing overhead can be measured. bench/README.md
lists the workloads, the metrics and what each layer metric should move.

Exit codes: 0 when every check passed, 1 when an output or coverage check
failed, 2 when cvgfa cannot be imported from this checkout's src/.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fit-accept", "fit-wide")
# One compute thread, like `fit --threads 1`; a caller's own setting wins.
# Read by the BLAS libraries when numpy loads them.
SINGLE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    for name in SINGLE_THREAD_VARS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, SRC)
    try:
        from cvgfa import cli
    except ImportError as err:
        print(f"cannot import cvgfa from {SRC}: {err}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported cvgfa from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    return workloads.run(args, cli, os.path.join(ROOT, ".bench_work"))


if __name__ == "__main__":
    sys.exit(main())
