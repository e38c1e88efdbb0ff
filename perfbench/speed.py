"""Host-speed calibration of timings on a shared machine.

On a shared host the core this process runs on is sometimes fast and
sometimes up to about 1.7x slower, switching at scales from a fraction of a
second to minutes.  While a ``SpeedSampler`` is active, a SIGALRM timer runs
a fixed reference kernel every SAMPLE_EVERY_S.  Each kernel has a duration on
an idle core, so that duration over a sample's duration is the host's speed
at that moment (1.0 on an idle core, about 0.6 in the slow state).  A
measured time times the mean speed over it is the time the same work takes
on an idle core.

How much the slow state slows code depends on the code: a tight interpreter
loop slows less than the many short numpy calls fnlslab makes.  The passes of
a workload are sampled with the ``numpy`` kernel, which makes such calls and
tracked every workload's slowdown best of the kernels tried (a tight
interpreter loop, large-array arithmetic and mixes of them).  Set-up is
sampled with the ``python`` kernel, because it starts before numpy is
imported and is mostly the interpreter loading modules.

The time spent in the sampler itself is kept in ``paused_s`` so that timed
regions can leave it out (``paused_s()`` reads it from the active sampler).
"""

from __future__ import annotations

import signal
import sys
import time

SAMPLE_EVERY_S = 0.025
BRACKET_SAMPLES = 25  # kernel runs before and after a short measurement

_active: SpeedSampler | None = None
_operand: list = []  # the numpy kernel's array, made on first use


def python_kernel() -> int:
    x = 0
    for i in range(4000):
        x += i * i % 7
    return x


def numpy_kernel() -> float:
    """Round trips of a 64-point FFT with small elementwise steps: many short numpy calls."""
    if not _operand:
        import numpy as np

        _operand.append(np.linspace(0.0, 1.0, 64) + 0.5j)
    np = sys.modules["numpy"]
    a = b = _operand[0]
    total = 0.0
    for _ in range(12):
        b = np.fft.ifft(np.fft.fft(b) * 0.5) + a
        total += float(np.abs(b).sum())
    return total


# kernel -> (function, its duration on an idle core of the 2-vCPU Intel Xeon
# with Python 3.11 and numpy 2.4 that the benchmark was tuned on: about the
# fastest of the runs made over a minute)
KERNELS = {
    "python": (python_kernel, 2.70e-4),
    "numpy": (numpy_kernel, 1.90e-4),
}


def paused_s() -> float:
    """Seconds the active sampler has spent in its kernel so far (0 when none is active)."""
    return _active.paused_s if _active is not None else 0.0


class SpeedSampler:
    """Samples the host's speed on a wall-clock timer while active (a context manager)."""

    def __init__(self, kernel: str = "numpy"):
        self._kernel, self._ref_s = KERNELS[kernel]
        self.samples: list[float] = []
        self.paused_s = 0.0

    def _time_kernel(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self._time_kernel())
        self.paused_s += time.perf_counter() - t0

    def bracket(self) -> None:
        """Add BRACKET_SAMPLES samples now, for measurements too short for the timer alone."""
        self.samples.extend(self._time_kernel() for _ in range(BRACKET_SAMPLES))

    def speed(self, since: int = 0) -> float:
        """Mean speed over the samples taken from index ``since`` on."""
        taken = self.samples[since:]
        if not taken:
            raise RuntimeError("no speed samples were taken")
        return sum(self._ref_s / r for r in taken) / len(taken)

    def __enter__(self) -> SpeedSampler:
        global _active
        self._kernel()  # warm up: the first run of the numpy kernel makes its array
        _active = self
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _active = None
