"""Host-speed probe: takes other tenants' load out of a measured time.

On a shared host, other tenants slow this process by 30-60% for seconds to
minutes at a time, in CPU time as much as in wall time (they contend for
the core's caches and memory, not for the scheduler).  Neither the fastest
nor the median repetition escapes a slow stretch that lasts a whole run.

The probe measures the host's speed at the moments the program runs: while
a block is measured, a ``SIGALRM`` handler runs one part of a fixed numpy
unit every ``INTERVAL_S``, the parts in turn, and records its time.  The
four parts load the host the ways the program does: small cache-resident
GEMMs, one convolution-layer step (im2col GEMM, leaky integrate-and-fire
update, max pooling), passes over arrays larger than the caches, and many
tiny numpy calls that mostly run the interpreter.  The load of other
tenants slows each kind of work by a different share, and no single part
follows the program as closely as the four together.

The block's time, less the probe's own, times ``REFERENCE_UNIT_S`` (the
unit's time on an unloaded host) over the unit's time during the block
(the sum of its parts' mean times) is the time the block would have taken
on an unloaded host: :meth:`HostProbe.unloaded`.  Means, not medians: a
part that loses 5 ms to another tenant stands for the program losing as
much.  Wall time is scaled by the parts' wall times and CPU time by their
CPU times: a host that time-slices this process stretches the first and
not the second, while contention for caches and memory stretches both.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter, process_time

import numpy as np

INTERVAL_S = 0.025
# The unit's time on the 2-vCPU Xeon host of trajectory.json when no other
# tenant contends: the sum of its parts' 2nd-percentile times, from about
# 20,000 samples taken during ten minutes of repetitions of the four
# workloads (the sum of their medians was 8 ms).
REFERENCE_UNIT_S = 5.4e-3


class HostProbe:
    """Wall and CPU times of the unit's parts, sampled during :meth:`measuring` blocks."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)

        def array(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        self._a, self._b = array(256, 288), array(288, 64)
        self._columns, self._kernel = array(8192, 72), array(72, 16)
        self._big, self._other, self._out = array(1 << 20), array(1 << 20), array(1 << 20)
        self._tiny = array(16, 16)
        self._parts = (self._gemms, self._conv_step, self._stream, self._interpreter)
        self.samples: list[list[tuple[float, float]]] = [[] for _ in self._parts]
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._next = 0
        self._armed = False

    def _gemms(self) -> None:
        x = self._a
        for _ in range(10):
            y = np.maximum(x @ self._b, 0.0) * 0.5
            x = self._a + float(y.mean())

    def _conv_step(self) -> None:
        v = (self._columns @ self._kernel) * 0.9
        v = np.where(v > 1.0, 0.0, v)
        v.reshape(4096, 2, 16).max(axis=1)

    def _stream(self) -> None:
        np.multiply(self._big, 0.9, out=self._out)
        np.add(self._out, self._other, out=self._out)
        np.maximum(self._out, 0.0, out=self._out)

    def _interpreter(self) -> None:
        x = self._tiny
        for _ in range(600):
            x = np.tanh(x * 0.5 + 0.1)

    def _time(self, index: int) -> tuple[float, float]:
        wall, cpu = perf_counter(), process_time()
        self._parts[index]()
        sample = (perf_counter() - wall, process_time() - cpu)
        self.samples[index].append(sample)
        return sample

    def _on_alarm(self, signum, frame) -> None:
        # An alarm that fired as the block ended may be handled after it.
        if not self._armed:
            return
        wall, cpu = self._time(self._next)
        self._next = (self._next + 1) % len(self._parts)
        self.spent_s += wall
        self.spent_cpu_s += cpu
        # Re-armed after the part, so the program gets INTERVAL_S between
        # parts however slow the host runs them.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextlib.contextmanager
    def measuring(self):
        """Sample the host's speed every ``INTERVAL_S`` during the block.

        ``spent_s`` and ``spent_cpu_s`` are the wall and CPU seconds the
        samples took inside the block.  A part the block was too short to
        sample is sampled right after it, which costs the block nothing.
        """
        self.samples = [[] for _ in self._parts]
        self.spent_s, self.spent_cpu_s = 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            for index, times in enumerate(self.samples):
                if not times:
                    self._time(index)

    def speed(self, cpu: bool = False) -> float:
        """The host's speed over the last block, 1.0 being the unloaded host's,
        in wall time or, with ``cpu``, in CPU time."""
        column = 1 if cpu else 0
        unit = sum(statistics.fmean(t[column] for t in times) for times in self.samples)
        return REFERENCE_UNIT_S / unit

    def unloaded(self, seconds: float, cpu: bool = False) -> float:
        """Wall (or, with ``cpu``, CPU) ``seconds`` measured over the last
        block, less the probe's own, at the unloaded host's speed."""
        spent = self.spent_cpu_s if cpu else self.spent_s
        return (seconds - spent) * self.speed(cpu)
