"""A fixed reference kernel, timed between the ops to follow the host's speed.

The host these figures are measured on changes speed by up to 1.5x in
stretches of seconds to minutes, longer than a run.  No choice among raw
times of one run removes a stretch that long.  So every repetition times this
kernel between its ops, and on a timer inside long ones, and each op's time
is scaled by ``KERNEL_REF_S`` over the kernel's time around it: the op's
time on a host where the kernel takes ``KERNEL_REF_S``.

The kernel does what the program spends its time on: sparse polynomial
products in dicts keyed by exponent tuples, canonical sorted tuples, hashing
and formatting of coefficients.  It does not import qbrauer, so no change to
the program changes the kernel, and a program that gets faster reads faster
by the same share.  A plain integer loop follows the host far worse: over 30
windows of 3 s its ratio to the program's op time spread 10 % (quartile
distance over median), where this kernel's spread 1.5-2.3 %.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import time

# the nominal kernel time that scaled times refer to
KERNEL_REF_S = 0.0015
# kernel samples on each side of an op that set its scale
WINDOW = 3

_rng = random.Random(5)
_P1 = {(_rng.randrange(6), _rng.randrange(6)): _rng.randrange(-9, 9) or 1 for _ in range(12)}
_P2 = {(_rng.randrange(6), _rng.randrange(6)): _rng.randrange(-9, 9) or 1 for _ in range(12)}
_ROUNDS = 10


def kernel() -> int:
    acc = 0
    seen: dict = {}
    for rnd in range(1, _ROUNDS + 1):
        out: dict = {}
        for (a, b), c in _P1.items():
            for (d, e), f in _P2.items():
                k = (a + d, b + e)
                v = out.get(k, 0) + c * f * rnd
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        key = tuple(sorted(out.items()))
        seen[key] = seen.get(key, 0) + 1
        acc += len(",".join(f"{m}:{c}" for m, c in key)) + (hash(key) & 1)
    return acc


class Calibrator:
    """The kernel samples of one repetition, in the order they were taken.

    A workload takes a sample before its first op and after each op, or
    each group of ops; within a long call, ``ticking`` takes samples on a
    timer.  An op that began after ``start`` samples and ended before
    sample ``end`` is scaled by the median of the samples from ``WINDOW``
    before it to ``WINDOW`` after it.
    """

    def __init__(self, tick: bool = True):
        self.samples: list[float] = []
        # seconds spent in samples taken on the timer, inside ops
        self.ticked = 0.0
        # a traced run takes no samples on the timer: they would land in spans
        self.tick = tick
        if tick:
            signal.signal(signal.SIGALRM, self._tick)
        kernel()  # let the interpreter specialise the kernel before timing it

    def sample(self) -> None:
        # the program's heap must not make the kernel pay for collections
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.ticked += time.perf_counter() - t0

    @contextlib.contextmanager
    def ticking(self, interval: float):
        """Take a sample every ``interval`` seconds while the block runs."""
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            if self.tick:
                signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: int, end: int) -> float:
        """The factor that scales the raw time of an op between samples
        ``start`` and ``end``."""
        window = self.samples[max(0, start - WINDOW):end + WINDOW]
        return KERNEL_REF_S / statistics.median(window)

    def overall(self) -> float:
        """The factor for the repetition as a whole."""
        return KERNEL_REF_S / statistics.median(self.samples)
