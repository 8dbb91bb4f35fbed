"""Machine speed, sampled while each measured call runs.

On a shared host the speed of a core drifts by tens of percent within
minutes, and the CPU time of a call drifts with its wall time, so two runs
of the same code minutes apart differ by more than most changes worth
measuring.  The kernel below does the kind of work the workloads do (an
FFT, ``abs``, a gather and ``tanh`` on small arrays, and an interpreted
loop) and depends on nothing in ``secpon``, so a change to the program
cannot move it.  ``SpeedSampler`` runs it on a timer signal every
``INTERVAL_S`` while a call runs, in the measuring process itself, so it
sees the same core at the same moments as the call, and a call's time at
the reference speed is

    (measured time - time spent in the kernel) * TICK_NOMINAL_S / mean tick

which is what the benchmark reports; the raw times go to the run record.
The host switches between a fast and a slow state for a second or so at
a time, and a call's time integrates over both, so the mean tick follows
it where the median would jump from one state to the other.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the kernel's mean length on a shared 2-vCPU x86-64 host (Python
# 3, numpy with one BLAS thread).  Any fixed value would do: it only sets
# the scale, so that reference-speed seconds read close to wall-clock ones
# on such a host.
TICK_NOMINAL_S = 0.0008
INTERVAL_S = 0.05
AFTER_TICKS = 5               # ticks right after the call, so a short call has samples

_N = 1 << 12
_rng = np.random.default_rng(20231105)
_X = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)
_IDX = _rng.integers(0, _N, _N)
# Every array the kernel writes is allocated here, once, and the arrays are
# small enough (64 KiB) that any scratch space numpy takes for them comes
# from the C heap, never from fresh mmap'd pages: whether it did would
# depend on the state the program's own allocations left malloc in, which
# a change to the program can move.
_SPECTRUM = np.empty(_N, complex)
_POWER = np.empty(_N)
_GATHERED = np.empty(_N)
_TANH = np.empty(_N)


def _kernel() -> float:
    acc = 0.0
    for _ in range(4):
        np.fft.fft(_X, out=_SPECTRUM)
        np.square(np.abs(_SPECTRUM, out=_POWER), out=_POWER)
        np.take(_POWER, _IDX, out=_GATHERED)
        acc += float(_GATHERED.sum()) + float(np.tanh(_X.real, out=_TANH).sum())
    count = 0
    for i in range(5_000):
        count += i * i % 7
    return acc + count


# Run once now: numpy imports ``numpy.fft`` on first use, and an import
# started inside a signal handler, in the middle of one of the program's
# own imports, can find the module half initialised.
_kernel()


def _tick() -> tuple[float, float, float]:
    """Run the kernel twice and time the second run, which finds its code
    and data in cache whatever the program had there before, so the tick
    does not depend on the program's memory footprint.  Returns that run's
    wall seconds and the wall and CPU seconds of both runs."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    _kernel()
    t2 = time.perf_counter()
    return t2 - t1, t2 - t0, time.process_time() - c0


class SpeedSampler:
    """Context manager: run the kernel on ``SIGALRM`` while the block runs,
    and ``AFTER_TICKS`` times when it ends.

    ``ticks`` holds each tick's wall time; ``spent_s`` and ``spent_cpu_s``
    are the wall and CPU time the in-block ticks took, warm-up runs
    included, to be taken off the block's own.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.in_block = 0
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        tick, wall, cpu = _tick()
        self.ticks.append(tick)
        self.in_block += 1
        self.spent_s += wall
        self.spent_cpu_s += cpu

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # restart system calls the signal interrupts, so that C code in the
        # program or its libraries never sees EINTR
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ticks.extend(_tick()[0] for _ in range(AFTER_TICKS))

    @property
    def speed(self) -> float:
        """Factor from the block's times to times at the reference speed."""
        return TICK_NOMINAL_S / statistics.fmean(self.ticks)
