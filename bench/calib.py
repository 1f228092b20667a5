"""A fixed piece of interpreter work that gauges the machine's current speed.

On a shared host the speed of the same instructions drifts by a fifth
or more within seconds.  The benchmark runs this loop right before and
right after every timed section and scales the section's time by
REFERENCE_S over the loop's time, giving seconds at the reference speed.
Raw times are kept beside the scaled ones in the run's details file.
"""

import time

REFERENCE_S = 0.0015  # the loop's median time on the reference machine (see README)
_ROUNDS = 3


def _work() -> int:
    table = list(range(256))
    counts = {}
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + table[i & 255]) & 0xFFFFF
        table[i & 255] = acc
        counts[acc & 63] = counts.get(acc & 63, 0) + 1
    return acc + len(counts)


def seconds() -> float:
    """Median time of a few runs of the loop."""
    times = []
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return sorted(times)[_ROUNDS // 2]


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
