"""Times measured at reference speed, by sampling the machine's speed meanwhile.

On a shared host the speed of one core drifts between regimes that last
seconds to minutes: the same pass can take 1.7 times as long in a slow regime
as in a fast one, in wall time and in CPU time alike, and a regime can change
in the middle of a pass.  `Interval` therefore runs `reference_unit()` at
both ends of the interval it times and, through a SIGALRM timer, every
SAMPLE_EVERY_S inside it, and reports

    normalised = (measured - time spent in the samples) * REF_S / median sample time

that is, the time the interval would take on a machine that runs the
reference unit in REF_S seconds.  The reference unit is frozen stdlib code
that imports nothing from flataffine, so a change to the program moves the
normalised times as it moves the measured ones.  It has two parts: a sparse
product of Fraction-valued dicts, the same kind of work as flataffine's
polynomial arithmetic, and a walk over a slice of a shuffled pool of
Fractions larger than a core's L2 cache, because the program waits on
memory too.  The product alone slows down more than the GL2 envelope pass
does when the host turns slow (1.7x against 1.47x); the walk alone slows
down less (1.28x); the mix below tracked both the half-plane and the GL2
passes within a few per cent.  The garbage collector is off while a sample
runs: a collection the sample would trigger sweeps the program's heap, and
its cost belongs to the program, not to the reference.  The samples inside
an interval cost about 4 % of it.
"""
from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# a fixed scale: seconds of one reference unit on a typical core of the host
# the benchmark was tuned on, so that normalised times read as seconds
REF_S = 0.002
SAMPLE_EVERY_S = 0.05

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)
          if (i + j) % 2 == 0}
# about 4 MB of objects, twice a core's L2 cache on the tuning host
_POOL_SIZE = 1 << 15
_WALK = 2048
_rng = random.Random(0)
_POOL = [Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 10**6))
         for _ in range(_POOL_SIZE)]
_rng.shuffle(_POOL)
_cursor = 0


def reference_unit() -> tuple:
    global _cursor
    out = {}
    for e1, c1 in _TERMS.items():
        for e2, c2 in _TERMS.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            out[key] = out.get(key, 0) + c1 * c2
    start = _cursor
    _cursor = (start + _WALK) % _POOL_SIZE
    total = 0
    for x in _POOL[start:start + _WALK]:
        total += x.numerator
    return out, total


def at_reference_speed(seconds: float, sample_seconds) -> float:
    """`seconds` measured while reference units took `sample_seconds`, at REF_S."""
    return seconds * REF_S / statistics.median(sample_seconds)


class Interval:
    """Context manager timing its body in wall and CPU seconds.

    After exit: `measured_wall` is the measured wall time of the body,
    samples included; `raw_wall` and `raw_cpu` are the measured seconds
    without the samples; `wall` and `cpu` are the same at reference speed.
    `samples` holds the (wall, CPU) seconds of every sample, the two end
    samples first and last.  With `sampled=False` only the two end samples
    are taken, so nothing runs inside the body.
    """

    def __init__(self, sampled: bool = True):
        self.sampled = sampled
        self.samples = []

    def _sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu = time.process_time()
            wall = time.perf_counter()
            reference_unit()
            self.samples.append((time.perf_counter() - wall, time.process_time() - cpu))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self._sample()
        if self.sampled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.measured_wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        inside = self.samples[1:]
        self.raw_wall = self.measured_wall - sum(w for w, _ in inside)
        self.raw_cpu = cpu - sum(c for _, c in inside)
        self._sample()
        self.wall = at_reference_speed(self.raw_wall, [w for w, _ in self.samples])
        self.cpu = at_reference_speed(self.raw_cpu, [c for _, c in self.samples])
        return False
