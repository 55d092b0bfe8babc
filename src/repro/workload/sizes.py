"""Payload-size distributions for the workload generators.

The paper sweeps fixed payloads (64 B .. 1 KB, one size per run); a
load test additionally wants mixed traffic.  Each distribution draws
UDP-payload byte counts from a caller-supplied seeded RNG stream.

Sizes are bounded below by :data:`MIN_PAYLOAD` (the generators stamp a
sequence number into the first bytes of every payload to match
completions back to injections) and above by :data:`MAX_PAYLOAD` (the
stack's MTU budget for an un-fragmented UDP datagram).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import PAPER_PAYLOAD_SIZES

#: Room for the generator's 4-byte sequence stamp.
MIN_PAYLOAD = 8
#: One MTU-sized frame: 1500 - IPv4 (20) - UDP (8).
MAX_PAYLOAD = 1472


def _check_size(size: int) -> int:
    if not MIN_PAYLOAD <= size <= MAX_PAYLOAD:
        raise ValueError(
            f"payload size {size} outside [{MIN_PAYLOAD}, {MAX_PAYLOAD}]"
        )
    return int(size)


class SizeDistribution:
    """Base class: a stream of payload sizes in bytes, drawn by
    ``sample_many(rng, n)`` as an int64 array of *n* sizes."""


@dataclass(frozen=True)
class FixedSize(SizeDistribution):
    """Every payload is exactly *size* bytes (the paper's per-run shape)."""

    size: int

    def __post_init__(self) -> None:
        _check_size(self.size)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return np.full(n, self.size, dtype=np.int64)


@dataclass(frozen=True)
class EmpiricalMix(SizeDistribution):
    """Weighted mix over discrete operating points.

    Defaults to a uniform mix over the paper's five payload sizes, so a
    mixed-traffic run exercises exactly the calibrated region.
    """

    sizes: Tuple[int, ...] = PAPER_PAYLOAD_SIZES
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("EmpiricalMix needs at least one size")
        for size in self.sizes:
            _check_size(size)
        if self.weights is not None:
            if len(self.weights) != len(self.sizes):
                raise ValueError(
                    f"{len(self.weights)} weights for {len(self.sizes)} sizes"
                )
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ValueError("weights must be non-negative with positive sum")

    def _probabilities(self) -> np.ndarray:
        if self.weights is None:
            return np.full(len(self.sizes), 1.0 / len(self.sizes))
        total = float(sum(self.weights))
        return np.asarray(self.weights, dtype=np.float64) / total

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return rng.choice(
            np.asarray(self.sizes, dtype=np.int64), size=n, p=self._probabilities()
        )


def make_sizes(payloads: Sequence[int]) -> SizeDistribution:
    """The CLI mapping: one ``--payloads`` value is a fixed size, several
    become a uniform empirical mix over those points."""
    if not payloads:
        raise ValueError("need at least one payload size")
    if len(payloads) == 1:
        return FixedSize(payloads[0])
    return EmpiricalMix(tuple(payloads))
