"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *samples*.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples lie
    beyond the percentile's rank, because such a tail is a handful of
    outliers rather than a measurement.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    count = len(samples)
    rank = math.ceil(q / 100.0 * count)
    beyond = count - rank
    if count == 0 or beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {count} samples has {max(beyond, 0)} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return sorted(samples)[rank - 1]
