"""Host-speed calibration: time measurements in reference seconds.

A shared host's speed drifts by up to 2x over minutes (other tenants on
the same cores), which swamps any code change.  Every timed segment is
therefore bracketed by short runs of a fixed pure-Python loop, and its
duration is scaled by how much slower than :data:`CAL_REF_S` those
loops ran::

    reference_s = host_s * CAL_REF_S / mean(loop seconds before and after)

The loop exercises only the interpreter, never ``repro`` code, so a
change to the simulator moves the segment and not the scale.  Raw host
seconds are kept beside every scaled value.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional, Tuple

#: Iterations of the calibration loop.
CAL_ITERATIONS = 300_000
#: Loops per calibration slice.
CAL_LOOPS = 4
#: Duration of one calibration loop on the reference machine (seconds).
CAL_REF_S = 0.020


def calibration_loop() -> float:
    """Seconds for one fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class SpeedMeter:
    """Times segments and scales them to reference seconds."""

    def __init__(self):
        #: Every calibration loop duration measured so far.
        self.samples: List[float] = []
        self.last: Optional[float] = None
        #: Optional wrapper around each timed call (the traced run's root
        #: span); calibration slices stay outside it.
        self.wrap: Optional[Callable] = None

    def slice(self) -> float:
        """Run one calibration slice; returns its mean loop seconds."""
        loops = [calibration_loop() for _ in range(CAL_LOOPS)]
        self.samples.extend(loops)
        self.last = statistics.fmean(loops)
        return self.last

    def timed(self, fn: Callable) -> Tuple[object, float, float]:
        """Run ``fn``; returns ``(result, host seconds, reference seconds)``.

        The slice measured after the previous segment serves as this
        one's ``before``, so back-to-back segments share slices.
        """
        before = self.last if self.last is not None else self.slice()
        start = time.perf_counter()
        result = fn() if self.wrap is None else self.wrap(fn)
        host = time.perf_counter() - start
        after = self.slice()
        return result, host, host * CAL_REF_S / ((before + after) / 2)
