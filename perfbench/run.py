"""The benchmark command: one workload, its end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 10 --trace 0

Workloads: ``corpus-cold``, ``serve-zipf``, ``cluster-flood`` (see
``perfbench/README.md``).  With ``--trace 0`` the run is ``SEGMENTS``
fresh interpreters (``perfbench/worker.py``) one after another, each
setting the workload up and measuring it for an equal share of
``--seconds``; the end-to-end metrics pool them.  With ``--trace 1`` one
worker runs the traced measurement and the per-layer metrics are
reported instead; the spans are written under ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds host facts and the workload's figures under their own names.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.calibrate import calibrate, factor  # noqa: E402
from perfbench.stats import summarize  # noqa: E402

WORKLOAD_NAMES = ("corpus-cold", "serve-zipf", "cluster-flood")

#: Segments of an untraced run.  Each is a fresh interpreter that sets
#: the workload up and measures it for an equal share of ``--seconds``;
#: ``setup_s`` is the median of their set-up times, and the timings are
#: medians over the windows of all segments.
SEGMENTS = 5

#: Seconds a worker may take to set up, and to measure beyond ``--seconds``.
SETUP_TIMEOUT = 60.0
RUN_GRACE = 60.0

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The workload's own names for ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``.
OWN_NAMES = {
    "corpus-cold": ("pairs_per_s", "pair_p50_ms", "pair_p90_ms"),
    "serve-zipf": ("req_per_s", "req_p50_ms", "req_p99_ms"),
    "cluster-flood": ("queries_per_s", "place_p50_ms", "place_p99_ms"),
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """A ``perfbench/worker.py`` child in its own process group."""

    def __init__(self, args: argparse.Namespace, trace: int, segment: int,
                 seconds: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--segment", str(segment), "--seconds", str(seconds),
                "--trace", str(trace), "--out", OUT,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        self._buffer = b""

    def expect(self, marker: str, timeout: float) -> str:
        """The rest of the first stdout line starting with ``marker``."""
        deadline = time.monotonic() + timeout
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith(marker):
                    return text[len(marker):].strip()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError(f"no {marker} from the worker in {timeout:.0f}s")
            if not self._selector.select(remaining):
                continue
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise WorkerError(
                    f"worker exited with code {self.proc.wait()} before {marker}"
                )
            self._buffer += chunk

    def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()

    def finish(self, timeout: float = 60.0) -> int:
        """Wait for the worker to exit; kill its whole group if it hangs."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.wait()
        self._selector.close()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return code

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def host_facts() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a virtual machine a thread that wakes another thread on a
    different CPU can wait a long and varying time for it, and a thread
    moved between CPUs changes speed with the neighbours of each.
    Pinned, the workload and the calibration loop share one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_worker(args: argparse.Namespace, trace: int, segment: int,
               seconds: float) -> tuple:
    """One worker: its set-up seconds (raw and scaled by the calibrations
    just before it starts and just after it is ready) and its result."""
    before = calibrate()
    started = time.perf_counter()
    worker = Worker(args, trace, segment, seconds)
    try:
        worker.expect("@@READY", SETUP_TIMEOUT)
        raw = time.perf_counter() - started
        scaled = raw * factor(before, calibrate())
        worker.send("go")
        result = json.loads(worker.expect("@@RESULT", 2 * seconds + RUN_GRACE))
        if worker.finish() != 0:
            raise WorkerError("worker failed after its run")
    except BaseException:
        worker.kill()
        worker.finish()
        raise
    return raw, scaled, result


def measure(args: argparse.Namespace) -> dict:
    """``SEGMENTS`` workers one after another, pooled into one result.

    The windows of every segment are also written to
    ``perfbench/out/windows-<workload>-seed<n>.json``.
    """
    from perfbench.workloads import TAIL

    raw_setups, setups, results = [], [], []
    for segment in range(SEGMENTS):
        raw, scaled, result = run_worker(args, 0, segment, args.seconds / SEGMENTS)
        raw_setups.append(raw)
        setups.append(scaled)
        results.append(result)
    segments = [r.pop("windows") for r in results]
    figures = summarize(segments, TAIL[args.workload])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"windows-{args.workload}-seed{args.seed}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(segments, handle)
    figures["raw"]["setups_s"] = raw_setups
    return {
        "correct": all(r.get("correct", True) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "store_mb": statistics.median(
            r["detail"].get("store_mb", 0.0) for r in results
        ),
        **{name: figures["scaled"][name] for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "detail": {
            "scaled": figures["scaled"],
            "raw": figures["raw"],
            "segments": [r.get("detail", {}) for r in results],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    # Untimed: byte-compile the checkout so no set-up pays for it.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    try:
        if args.trace:
            result = run_worker(args, 1, 0, args.seconds)[2]
        else:
            result = measure(args)
    except (RuntimeError, OSError, ValueError) as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["metrics"]
        units = _per_layer_units()
    else:
        metrics = {name: result[name] for name in END_TO_END}
        units = END_TO_END
    own = {}
    if not args.trace:
        for generic, mine in zip(("ops_per_s", "op_p50_ms", "op_tail_ms"),
                                 OWN_NAMES[args.workload]):
            own[mine] = result[generic]
        if result["store_mb"]:
            own["store_mb"] = result["store_mb"]
        class_p50 = result["detail"]["scaled"].get("class_p50_ms")
        if class_p50:
            own[OWN_NAMES[args.workload][1] + "_by_class"] = class_p50
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "own_names": own,
        "detail": result.get("detail", {}),
    }
    for name, value in sorted(metrics.items()):
        print(f"{args.workload:>14} {name:<34} {value:14.4f} {units[name]}",
              file=sys.stderr)
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": bool(result.get("correct", True)),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def _per_layer_units() -> dict:
    from perfbench.workloads import PER_LAYER

    return PER_LAYER


if __name__ == "__main__":
    sys.exit(main())
