"""Per-dimension centering and scaling over stacked trip vectors.

Statistics are fitted once on a training dataset over the stacked layout
[env, behavior, performance] and reused verbatim everywhere downstream,
so every model and report shares one coordinate system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteStats, TooFewSamples
from .trip_data import Dataset

# Columns with raw variance below this are treated as constant and get std 1,
# which keeps index alignment instead of dropping them.
VARIANCE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class NormalizationStats:
    """Fitted mean/std per dimension plus the block layout they cover."""

    mean: np.ndarray
    std: np.ndarray
    d_env: int
    d_behavior: int
    d_performance: int

    def __post_init__(self):
        for width in (self.d_env, self.d_behavior, self.d_performance):
            if type(width) is not int:  # bool is an int subclass
                raise TypeError("true and false are not numbers" if type(width) is bool
                                else f"block widths must be integers, not {width!r}")
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DimensionMismatch("mean and std must be 1-D vectors of equal length")
        if len(self.mean) != self.d_env + self.d_behavior + self.d_performance:
            raise DimensionMismatch("stats length does not match block layout")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def env_slice(self) -> slice:
        return slice(0, self.d_env)

    @property
    def behavior_slice(self) -> slice:
        return slice(self.d_env, self.d_env + self.d_behavior)

    @property
    def performance_slice(self) -> slice:
        return slice(self.d_env + self.d_behavior, self.dim)

    def _apply(self, x: np.ndarray, sl: slice) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        expected = sl.stop - sl.start
        if x.shape[-1] != expected:
            raise DimensionMismatch(f"expected {expected} dims, got {x.shape[-1]}")
        return (x - self.mean[sl]) / self.std[sl]

    def _invert(self, x: np.ndarray, sl: slice) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        expected = sl.stop - sl.start
        if x.shape[-1] != expected:
            raise DimensionMismatch(f"expected {expected} dims, got {x.shape[-1]}")
        return x * self.std[sl] + self.mean[sl]

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Center and scale a full stacked vector (or matrix of rows)."""
        return self._apply(x, slice(0, self.dim))

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`normalize`."""
        return self._invert(x, slice(0, self.dim))

    def normalize_env(self, s: np.ndarray) -> np.ndarray:
        return self._apply(s, self.env_slice)

    def normalize_behavior(self, a: np.ndarray) -> np.ndarray:
        return self._apply(a, self.behavior_slice)

    def normalize_performance(self, q: np.ndarray) -> np.ndarray:
        return self._apply(q, self.performance_slice)

    def denormalize_behavior(self, a: np.ndarray) -> np.ndarray:
        return self._invert(a, self.behavior_slice)

    def performance_std(self, metric_index: int) -> float:
        """Raw-unit std of one performance dimension (for raw-unit reports)."""
        return float(self.std[self.performance_slice][metric_index])

    def fingerprint(self) -> str:
        """Stable digest used to verify two models share one normalization."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.mean).tobytes())
        h.update(np.ascontiguousarray(self.std).tobytes())
        h.update(f"{self.d_env},{self.d_behavior},{self.d_performance}".encode())
        return h.hexdigest()[:16]


def fit_stats(ds: Dataset) -> NormalizationStats:
    """Fit per-dimension mean and unbiased sample std on a dataset.

    Dimensions whose variance falls below ``VARIANCE_TOLERANCE`` are
    constant and get std 1, so the transform stays invertible and
    index-aligned; no list of them is kept. Finite values near the float
    limit can still overflow the mean or the variance; that raises
    ``NonFiniteStats`` naming the first such column.
    """
    x = ds.values
    n = x.shape[0]
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples to fit stats, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        var = x.var(axis=0, ddof=1)
    finite = np.isfinite(var)  # an overflowed mean makes the variance overflow too
    if not finite.all():
        raise NonFiniteStats(ds.schema.numeric_columns[int(np.argmin(finite))])
    std = np.sqrt(var)
    std[var < VARIANCE_TOLERANCE] = 1.0
    return NormalizationStats(
        mean=mean,
        std=std,
        d_env=ds.schema.d_env,
        d_behavior=ds.schema.d_behavior,
        d_performance=ds.schema.d_performance,
    )
