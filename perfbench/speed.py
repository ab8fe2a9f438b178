"""Machine-speed calibration for the reported times.

On a shared host the same op can run 1.5-2x slower for seconds to minutes
at a time with no steal time: the core itself runs slower, so process CPU
time slows as much as wall time. A fixed slice of work that calls no qpmaps
code, timed next to every op, tracks that speed. Times are reported scaled
by REFERENCE_S / (local slice time): as they would read on the machine
where the slice takes REFERENCE_S. The report keeps the raw times and the
factors.

There are three slices because the slowdowns differ: "compute"
(interpreter and numpy work) tracks the classify and orbits ops; "exact"
(the compute slice plus multi-limb integer arithmetic) tracks the transform
ops, whose time goes to rationals with large numerators and denominators,
which slow less than interpreter work does; "spawn" (starting a bare
interpreter) tracks the cli commands and set-up, which mostly start
processes and import modules.
"""

import os
import sys
import time
from fractions import Fraction

import numpy as np

#: Each slice's time at full speed on a 2-core Intel Xeon virtual machine.
REFERENCE_S = {"compute": 1.5e-3, "exact": 3.5e-3, "spawn": 12e-3}
#: Each op is scaled by the median of the slices of this many ops around it.
WINDOW = 7


def slice_seconds(kind):
    if kind == "spawn":
        from cli_workload import run_child

        argv = [sys.executable, "-I", "-S", "-c", "pass"]
        return run_child(argv, dict(os.environ), os.devnull, os.devnull)[1]
    start = time.perf_counter()
    if kind == "exact":
        x = 3 ** 700
        for i in range(300):
            x * (x + i) // (x - i - 1)
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    x = np.ones(8)
    for _ in range(30):
        x = np.exp(np.log(x) * 0.5)
    return time.perf_counter() - start


def factors(slices, kind):
    """Per-op scale factors from the slice timed before each op."""
    half = WINDOW // 2
    out = []
    for i in range(len(slices)):
        window = sorted(slices[max(0, i - half): i + half + 1])
        out.append(REFERENCE_S[kind] / window[len(window) // 2])
    return out


def factor_now(kind):
    """One scale factor from WINDOW slices run now."""
    return factors([slice_seconds(kind) for _ in range(WINDOW)], kind)[WINDOW // 2]
