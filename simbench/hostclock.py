"""Host CPU time of a benchmark phase, calibrated to a reference host.

How fast the shared host runs this process drifts by tens of percent
over seconds to minutes, whatever the process does (README.md, "Host CPU
time, calibrated").  A :class:`PhaseClock` therefore interleaves short
slices of a fixed pure-Python loop with the phase it times: one at the
start and one after every ``EVERY_OPS`` completed ops.  The slices touch
no program code; their CPU time says how fast the host ran the
interpreter at those moments.  The phase's own CPU time excludes the
slices, and ``scale`` converts it to reference-host seconds.
"""

from __future__ import annotations

import gc
import heapq
import time

#: CPU seconds of one :func:`reference_slice` on the reference host
#: (Python 3.11.7 on the 2-vCPU host of the numbers in README.md).
REFERENCE_SLICE_S = 0.00225
#: Simulated ops between two slices.
EVERY_OPS = 128


def reference_slice() -> float:
    """Run the fixed loop twice; return the host CPU seconds of the second.

    The loop does the interpreter work a DES does: generator resumes,
    heap pushes and pops, dict stores.  The first pass warms the caches
    the program's own work evicted, so the timed pass measures the
    host's speed rather than the program's footprint.  The collector is
    off meanwhile, so a full collection of the program's heap never
    lands in a slice.
    """

    def ticks(n):
        yield from range(n)

    def loop() -> None:
        heap: list = []
        table: dict = {}
        for i in ticks(2000):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            table[i & 1023] = i
        while heap:
            heapq.heappop(heap)

    gc.disable()
    try:
        loop()
        t0 = time.process_time()
        loop()
        return time.process_time() - t0
    finally:
        gc.enable()


class PhaseClock:
    """Times one phase in host CPU seconds, without its own slices.

    Slices split the phase into chunks of ``EVERY_OPS`` ops.  Each chunk
    is converted to reference-host seconds by the mean of the two slices
    around it, so the conversion follows the host's speed through the
    phase.  With ``calibrate=False`` it takes no slices and ``scale`` is
    1.0 (the traced run, whose profiler would distort the slices).
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.scale = 1.0

    def start(self) -> None:
        self._ops = 0
        self._raw = 0.0
        self._reference = 0.0
        self._slice_s = reference_slice() if self.calibrate else 0.0
        self._mark = time.process_time()

    def tick(self) -> None:
        """Count one completed op; close a chunk every ``EVERY_OPS``."""
        self._ops += 1
        if self.calibrate and self._ops % EVERY_OPS == 0:
            self._close_chunk()

    def _close_chunk(self) -> None:
        chunk = time.process_time() - self._mark
        before, self._slice_s = self._slice_s, reference_slice()
        self._raw += chunk
        self._reference += chunk * 2 * REFERENCE_SLICE_S / (before + self._slice_s)
        self._mark = time.process_time()

    def stop(self) -> float:
        """Host CPU seconds since :meth:`start`, slices excluded; sets
        ``scale``, which converts them to reference-host seconds."""
        if not self.calibrate:
            return time.process_time() - self._mark
        self._close_chunk()
        self.scale = self._reference / self._raw if self._raw > 0 else 1.0
        return self._raw
