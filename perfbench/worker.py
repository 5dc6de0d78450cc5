"""One workload in a fresh interpreter, driven by ``perfbench/run.py``.

Protocol on stdin/stdout: the worker sets the workload up and prints
``@@READY`` (the end of set-up, which ``run.py`` times); it then reads
one line.  ``go`` runs the timed (or traced) measurement and prints
``@@RESULT <json>``; anything else, or end of input, makes it tear down
and exit.  Either way it stops every process it started and removes its
scratch directory under ``perfbench/out`` before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.workloads import WORKLOADS, make_work_dir, remove_work_dir  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, default=0,
                        help="which segment of the run; varies the stream seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    work_dir = make_work_dir(args.out)
    workload = WORKLOADS[args.workload](args.seed, args.segment, work_dir)
    try:
        workload.setup()
        print("@@READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.trace:
            result = workload.trace(args.seconds, args.out)
        else:
            result = workload.run(args.seconds)
        print("@@RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()
        remove_work_dir(work_dir)


if __name__ == "__main__":
    sys.exit(main())
