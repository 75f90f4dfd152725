"""Order statistics computed from raw samples.

Every percentile the benchmark reports comes from here: nearest rank on
the sorted samples, so a reported value is always one that was observed
and can never exceed the observed maximum. No histogram buckets, no
interpolation.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile", "median", "tail_rank", "summarize"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``samples``.

    The rank is ``ceil(q/100 * n)`` clamped to ``[1, n]``, so the result
    is an observed sample and ``percentile(xs, 100) == max(xs)``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    # The epsilon keeps float error in q*n/100 from bumping an exact rank up.
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9)))
    return float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median (the lower middle sample for even counts)."""
    return percentile(samples, 50.0)


def tail_rank(n: int, beyond: int = 10) -> float | None:
    """The highest percentile that leaves at least ``beyond`` samples above it.

    None when that percentile would not even reach the median (fewer than
    ``2 * beyond`` samples): there is no tail to speak of, and
    :func:`summarize` reports the maximum instead.
    """
    q = 100.0 * (n - beyond) / n if n else 0.0
    return q if q >= 50.0 else None


def summarize(samples: Sequence[float], beyond: int = 10) -> dict[str, float]:
    """Median plus the highest percentile with ``beyond`` samples above it.

    Returns ``{"n", "p50", "tail_q", "tail", "max", "tail_is_max"}``:
    ``tail`` is the ``tail_q``-th percentile, or the maximum (``tail_q``
    100, ``tail_is_max`` true) when :func:`tail_rank` finds no tail.
    """
    q = tail_rank(len(samples), beyond)
    return {
        "n": len(samples),
        "p50": median(samples),
        "tail_q": 100.0 if q is None else q,
        "tail": percentile(samples, 100.0 if q is None else q),
        "max": float(max(samples)),
        "tail_is_max": q is None,
    }
