"""Percentile and spread arithmetic shared by the runner, the suite and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A percentile is quoted only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(q: float, samples: int) -> bool:
    """Whether ``samples`` leave at least ten observations beyond percentile ``q``."""
    # Integer arithmetic on tenths of a percent: 200 * (1 - 0.95) is
    # 9.999999999999991 in floats, and 200 samples do support p95.
    return samples * round((100.0 - q) * 10) >= SAMPLES_BEYOND * 1000


def quiet(values: Iterable[float], higher_is_better: bool) -> float:
    """The quartile of ``values`` on the good side: what a quiet host measures.

    The sandbox's neighbours slow the host in bursts of a tenth of a second to
    tens of seconds (measured: the same 0.5 s load takes 0.46-0.98 s within
    one process).  A burst only ever makes a cycle slower, so the median over
    a run's cycles moves with the share of the run a burst covered, while the
    quartile on the fast side stays put until bursts cover three quarters of
    the run.
    """
    return percentile(list(values), 75.0 if higher_is_better else 25.0)


def steady(samples: Iterable[tuple[int, float]], higher_is_better: bool) -> float:
    """One run's value from per-cycle samples keyed by input variant.

    :func:`quiet` within each variant (same input, so only the host differs),
    then the median over variants (different inputs, so the difference is the
    workload's and every variant counts).
    """
    by_variant: dict[int, list[float]] = {}
    for key, value in samples:
        by_variant.setdefault(key, []).append(value)
    return statistics.median(quiet(values, higher_is_better) for values in by_variant.values())


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: the distance between the quartiles as a share of the median.

    Quartiles by the inclusive method, which for the handful of runs a suite
    makes lies inside the sample (five runs: second to fourth value), so one
    run that landed in a slow spell does not decide the spread.
    """
    centre = statistics.median(values)
    if len(values) < 2 or centre == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(centre)
