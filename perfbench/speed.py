"""Machine-speed sampling behind the rescaled metrics (``setup_s``,
``op_ref_s``, ``op_cpu_ref_s``).

On a shared 2-vCPU host the same op's wall time swings by up to 1.7x
over minutes, and by 10-20 % from one op to the next: neighbours slow
every instruction of this process.  That swing hides any change to the
program.  So while the harness measures, a :class:`SpeedSampler`
interrupts the process every :data:`PERIOD_S` seconds (``SIGALRM``) and
times a fixed pure-Python micro-kernel in the signal handler:
:data:`STEPS` steps of an integer linear congruential generator.  It is
interpreter-bound like most of the program, allocates no containers and
touches almost no memory, so where the process's pages happen to lie
does not change it.  The median of the samples taken during a span of work is the
machine's speed during that span.  The span's CPU-busy seconds are
rescaled by it against :data:`REFERENCE_S`, its waiting seconds (timers,
I/O) are kept as measured, and the handler's own time is taken out::

    cpu_ref_s = cpu_s * REFERENCE_S / median(samples)
    ref_s     = cpu_ref_s + (wall_s - cpu_s)

When the machine runs at the reference speed, ``ref_s`` equals the
span's wall time.  Samples are taken in the main thread.  Where the
program's own threads run Python code at the same time (the serving
daemon), a sample can also wait for the GIL; the median keeps such
samples from moving the estimate as long as they are a minority.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

__all__ = ["REFERENCE_S", "SpeedSampler", "Timing", "cpu_ref_seconds",
           "op_ref_seconds"]

#: median seconds of one micro-kernel sample on the box the bounds were
#: set on (2 vCPUs, Python 3.11)
REFERENCE_S = 0.0034
#: seconds between two samples; one sample takes about 2 % of that
PERIOD_S = 0.2
#: generator steps per sample
STEPS = 20_000
#: a span with fewer samples of its own also uses the latest ones before it
MIN_SAMPLES = 3


def _micro_kernel() -> float:
    start = time.perf_counter()
    x = 1
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - start


def cpu_ref_seconds(cpu_s: float, kernel_s: float) -> float:
    """CPU seconds at the reference speed."""
    return cpu_s * REFERENCE_S / kernel_s


def op_ref_seconds(wall_s: float, cpu_s: float, kernel_s: float) -> float:
    """Wall time with its CPU-busy part at the reference speed."""
    return cpu_ref_seconds(cpu_s, kernel_s) + (wall_s - cpu_s)


@dataclass
class Timing:
    """One span of work: wall and CPU seconds without the sampler's own
    time, and the median micro-kernel seconds while it ran."""

    wall_s: float
    cpu_s: float
    kernel_s: float

    @property
    def cpu_ref_s(self) -> float:
        return cpu_ref_seconds(self.cpu_s, self.kernel_s)

    @property
    def ref_s(self) -> float:
        return op_ref_seconds(self.wall_s, self.cpu_s, self.kernel_s)


class SpeedSampler:
    """Samples the machine's speed on a timer signal while it runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._wall = 0.0  # handler seconds so far, wall and CPU
        self._cpu = 0.0

    def _handle(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append(_micro_kernel())
        self._cpu += time.process_time() - cpu
        self._wall += time.perf_counter() - wall

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self, clocks: tuple[float, float] | None = None) -> tuple:
        """The state at the start of a span, for :meth:`since`; ``clocks``
        is an earlier ``(perf_counter(), process_time())`` to start from."""
        wall, cpu = clocks or (time.perf_counter(), time.process_time())
        return (wall, cpu, len(self.samples), self._wall, self._cpu)

    def since(self, mark: tuple) -> Timing:
        """The span from ``mark`` until now."""
        wall0, cpu0, first, handler_wall0, handler_cpu0 = mark
        wall = time.perf_counter() - wall0 - (self._wall - handler_wall0)
        cpu = time.process_time() - cpu0 - (self._cpu - handler_cpu0)
        samples = self.samples[first:]
        if len(samples) < MIN_SAMPLES:
            samples = self.samples[-MIN_SAMPLES:] or [_micro_kernel()]
        return Timing(wall, cpu, statistics.median(samples))
