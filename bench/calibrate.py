"""How fast the machine runs right now, from a fixed reference workload.

On a shared 2-vCPU host the same operation takes up to 1.7x longer in
some stretches of seconds to minutes than in others, and a whole run can
land in a slow or a fast stretch.  The worker therefore interleaves the
reference parts below with its operations, one part after each
operation, round robin, and divides each operation's time by its local
speed factor: the geometric mean of (part time / reference time) over
the nine parts run after it and after the four operations on either
side.  A factor of 1.2 means the machine ran 20% slower than when the
references were taken, so a raw 60 ms latency is reported as 50 ms.
Set-up times are divided by the factor of ten rounds of all parts run
right after the set-up.  run.py pins the run to one CPU, so the parts
time the CPU the operations ran on.

The parts share no code with cliffmod, so no change to cliffmod moves
them: pure-Python integer arithmetic, float multivector products on
{blade: float} dicts, Fraction arithmetic, and starting a bare
interpreter.  The garbage collector is off while a part runs, so the
number of objects the program under test keeps alive does not change
the parts' times.
"""

from __future__ import annotations

import gc
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

_rng = random.Random(20040119)
_VECTORS = [{1 << i: _rng.uniform(-1.0, 1.0) for i in range(5)} for _ in range(32)]
_FRACTIONS = [Fraction(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(64)]


def _int_part():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _sign(a: int, b: int) -> int:
    swaps = bin(a & b).count("1")
    t = a >> 1
    while t:
        swaps += bin(t & b).count("1")
        t >>= 1
    return -1 if swaps & 1 else 1


def _multivector_part():
    acc = {0: 1.0}
    for k in range(28):
        out: dict = {}
        for ma, ca in acc.items():
            for mb, cb in _VECTORS[k].items():
                m = ma ^ mb
                out[m] = out.get(m, 0.0) + _sign(ma, mb) * ca * cb
        acc = dict(sorted(out.items())[:8])
    return acc


def _fraction_part():
    s = Fraction(0)
    for k in range(330):
        s = s * _FRACTIONS[k % 64] + _FRACTIONS[(k * 7) % 64]
        if s.denominator > 10 ** 12:
            s = Fraction(1, 3)
    return s


def _spawn_part():
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


LOCAL = 4  # operations on either side whose parts go into an operation's speed factor

# name, part, its median time in seconds on the reference machine (2-vCPU Xeon VM at 2.1 GHz)
PARTS = (
    ("int", _int_part, 1.9e-3),
    ("multivector", _multivector_part, 1.9e-3),
    ("fraction", _fraction_part, 2.0e-3),
    ("spawn", _spawn_part, 12.0e-3),
)


class Calibrator:
    """Runs one reference part per `step()`, round robin, and keeps
    log(time / reference time) of each, in order."""

    def __init__(self):
        self.logs: list[float] = []

    def step(self):
        _, part, ref = PARTS[len(self.logs) % len(PARTS)]
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            part()
        finally:
            t1 = time.perf_counter()
            if enabled:
                gc.enable()
        self.logs.append(math.log((t1 - t0) / ref))

    def rounds(self, n: int):
        for _ in range(n * len(PARTS)):
            self.step()


def speed(logs) -> float:
    """Speed factor of some part runs: > 1 when the machine ran slower than the reference."""
    return math.exp(sum(logs) / len(logs))


def local_speeds(logs) -> list[float]:
    """For each operation, the speed factor of the parts run after it and
    after the LOCAL operations on either side."""
    return [speed(logs[max(0, i - LOCAL):i + LOCAL + 1]) for i in range(len(logs))]
