"""Latency histograms (the distribution view of Fig. 3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.stats.percentile import as_array


@dataclass(frozen=True)
class Histogram:
    """Fixed-bin histogram over microsecond latencies."""

    edges_us: np.ndarray  # len = bins + 1
    counts: np.ndarray  # len = bins

    @classmethod
    def from_ps(
        cls,
        samples: Sequence[int] | np.ndarray,
        bins: int = 60,
        range_us: Tuple[float, float] | None = None,
    ) -> "Histogram":
        arr = as_array(samples).astype(np.float64) / 1e6
        if range_us is None:
            # Clip at p99.5 so the body is visible despite the tail.
            hi = float(np.percentile(arr, 99.5))
            lo = float(arr.min())
            if hi <= lo:
                hi = lo + 1.0
            range_us = (lo, hi)
        counts, edges = np.histogram(arr, bins=bins, range=range_us)
        return cls(edges_us=edges, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def render(self, width: int = 50, height_label: str = "") -> str:
        """ASCII rendering (the terminal stand-in for Fig. 3)."""
        lines = []
        peak = self.counts.max() if self.counts.size else 1
        peak = max(int(peak), 1)
        for i, count in enumerate(self.counts):
            bar = "#" * int(round(width * count / peak))
            lo = self.edges_us[i]
            hi = self.edges_us[i + 1]
            lines.append(f"{lo:8.1f}-{hi:8.1f} us |{bar:<{width}}| {count}")
        header = f"{height_label}\n" if height_label else ""
        return header + "\n".join(lines)
