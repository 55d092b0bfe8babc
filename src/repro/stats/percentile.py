"""Percentile / tail-latency computation.

All latency series in the experiment layer are int64 picosecond arrays;
these helpers produce the microsecond values the paper reports
(Table I uses the 95th, 99th and 99.9th percentiles).

Percentiles use linear interpolation between order statistics (NumPy's
default), matching common latency-reporting tools.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

#: The tail points of Table I.
TABLE1_PERCENTILES = (95.0, 99.0, 99.9)


def as_array(samples: Sequence[int] | np.ndarray) -> np.ndarray:
    """Coerce to an int64 array, validating non-emptiness."""
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D samples, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty sample set")
    return arr


def percentiles_us(
    samples: Sequence[int] | np.ndarray,
    points: Iterable[float] = TABLE1_PERCENTILES,
) -> Dict[float, float]:
    """Several percentiles at once (single sort)."""
    arr = as_array(samples)
    pts = list(points)
    values = np.percentile(arr, pts)
    return {p: float(v) / 1e6 for p, v in zip(pts, values)}

