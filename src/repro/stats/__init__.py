"""Vectorized latency statistics."""

from repro.stats.histogram import Histogram
from repro.stats.percentile import (
    TABLE1_PERCENTILES,
    as_array,
    percentiles_us,
)
from repro.stats.summary import LatencySummary

__all__ = [
    "Histogram",
    "LatencySummary",
    "TABLE1_PERCENTILES",
    "as_array",
    "percentiles_us",
]
