"""The host-speed calibration that every timing is scaled by.

Virtual machines that share their physical cores run the same Python
code at speeds that wander by a factor of up to two, in spells of
seconds to minutes.  A benchmark timed on raw wall clock then measures
the neighbours as much as the program.  So each workload runs this
loop next to its work (before and after every window of operations)
and scales the window's times by ``REFERENCE_S / measured``: a timing
is reported as what it would have been on a host that runs the loop in
``REFERENCE_S``.

The loop uses the standard library only and never touches the program,
so a change to the program moves the scaled figures exactly as it moves
the raw ones.  Raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import time

#: Seconds the loop takes on the reference host (about the median here;
#: see perfbench/README.md).  A fixed constant: both sides of any
#: comparison scale by it alike.
REFERENCE_S = 0.020


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids) -> None:
        self.key = key
        self.kids = kids


def _work(rounds: int) -> int:
    """Interpreter-bound work of the kinds the program does: small
    objects, dicts, tuples, hashing, sorting, string building."""
    out = 0
    for i in range(rounds):
        d = {"a": i, "b": (i, str(i)), "c": [i, i + 1, i + 2]}
        items = tuple(sorted(d.items(), key=lambda kv: kv[0]))
        out += hash(items[:2]) & 7
        out += len(json.loads(json.dumps(d)))
        node = _Node(i, [_Node(j, ()) for j in range(6)])
        out += sum(kid.key for kid in node.kids)
        out += len({frozenset((i, j)) for j in range(5)})
    return out


def calibrate(rounds: int = 1500) -> float:
    """Seconds one run of the calibration loop takes right now.

    The garbage collector is paused so the loop does not pay for
    collecting the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work(rounds)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale for a window measured between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
