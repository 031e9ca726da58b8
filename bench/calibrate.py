"""Reference-speed calibration for the benchmark's timings.

The box the benchmark was written on is shared, and its speed switches
between phases about 1.7x apart that last from seconds to minutes. Any run
that falls wholly in a slow phase reads 1.7x slower, whatever statistic it
takes over its own samples. So the benchmark times, between operations and
outside their timed part, a fixed reference chunk of Python and small-numpy
work that does not touch asifkit, and scales every operation's time by how
fast that chunk ran at the same moment:

    scaled time = raw time * REFERENCE_CHUNK_S / chunk time nearby

A timing is thus expressed on a box on which the chunk takes
``REFERENCE_CHUNK_S``. A change to asifkit moves the scaled timings as much
as the raw ones; a change of the box's phase moves both the chunk and the
operation and cancels out. Raw timings and chunk times are kept in a run's
details.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_CHUNK_S = 2.5e-3  # about the chunk's median time on the 2-core box the bench was written on
INTERVAL_S = 0.1  # at most one chunk per this much wall time, so chunks cost ~2.5 % of a run
WINDOW = 2  # a chunk time is the median of the samples this many before and after

_MATRIX = np.array(
    [
        [4.0, 1.0, 0.5, 0.2],
        [1.0, 3.0, 0.3, 0.1],
        [0.5, 0.3, 2.0, 0.4],
        [0.2, 0.1, 0.4, 1.5],
    ]
)


def reference_chunk() -> float:
    """Fixed work shaped like a control step's: scalar Python arithmetic,
    dict and list traffic, and small numpy solves, clips and reductions."""
    acc = 0.0
    table = {}
    for i in range(3000):
        x = (i % 17) * 0.25
        acc += math.sqrt(x + 1.0) * 0.5 - x / 3.0
        table[i & 31] = (x, acc)
        items = [x, acc, i]
        acc += items[0] - items[1] * 1e-9
    rhs = np.arange(4.0)
    for i in range(60):
        v = np.linalg.solve(_MATRIX, rhs + i)
        w = np.clip(v * 2.0, -1.0, 1.0)
        acc += float(w @ v) + float(np.max(np.abs(v)))
    return acc


def time_chunk() -> float:
    """Seconds one reference chunk takes now."""
    start = time.perf_counter_ns()
    reference_chunk()
    return (time.perf_counter_ns() - start) / 1e9


class Calibrator:
    """Call before each operation, outside its timing. Runs a chunk when
    ``INTERVAL_S`` has passed since the last one and notes, per operation,
    the latest chunk sample."""

    def __init__(self):
        self.samples: list[float] = []  # chunk seconds
        self.op_sample: list[int] = []  # per operation, in call order
        self._last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(time_chunk())
            self._last = time.perf_counter()
        self.op_sample.append(len(self.samples) - 1)

    def scales(self) -> np.ndarray:
        """Per operation, in call order: REFERENCE_CHUNK_S / chunk time around it."""
        chunk = np.asarray(self.samples)
        local = np.array(
            [np.median(chunk[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(chunk))]
        )
        return REFERENCE_CHUNK_S / local[np.asarray(self.op_sample, dtype=np.int64)]
