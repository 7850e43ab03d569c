"""Per-dimension centering and scaling over stacked trip vectors.

Statistics are fitted once on a training dataset over the stacked layout
[env, behavior, performance] and reused verbatim everywhere downstream,
so every model and report shares one coordinate system.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
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
    degenerate_dims: frozenset[int]
    d_env: int
    d_behavior: int
    d_performance: int

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DimensionMismatch("mean and std must be 1-D vectors of equal length")
        if len(self.mean) != self.d_env + self.d_behavior + self.d_performance:
            raise DimensionMismatch("stats length does not match block layout")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be strictly positive")
        for d in self.degenerate_dims:  # fit_stats gives each degenerate dimension std 1
            if type(d) is not int or not 0 <= d < len(self.mean) or self.std[d] != 1.0:
                raise ValueError(f"degenerate dimension {d!r} is not a dimension with std 1")

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
        """Inverse of :meth:`normalize`; identity on non-degenerate dims."""
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

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "degenerate_dims": sorted(self.degenerate_dims),
            "d_env": self.d_env,
            "d_behavior": self.d_behavior,
            "d_performance": self.d_performance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NormalizationStats":
        dims = data["degenerate_dims"]
        if type(dims) is not list or not all(type(d) is int for d in dims):  # bool is an int
            raise TypeError(f"degenerate_dims must be a list of integers, got {dims!r}")
        if len(set(dims)) != len(dims):
            raise ValueError(f"degenerate_dims repeats a dimension: {dims!r}")
        return cls(
            mean=np.array(data["mean"], dtype=float),
            std=np.array(data["std"], dtype=float),
            degenerate_dims=frozenset(dims),
            d_env=data["d_env"],
            d_behavior=data["d_behavior"],
            d_performance=data["d_performance"],
        )

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as handle:
            handle.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "NormalizationStats":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def fit_stats(ds: Dataset) -> NormalizationStats:
    """Fit per-dimension mean and unbiased sample std on a dataset.

    Dimensions whose variance falls below ``VARIANCE_TOLERANCE`` are
    recorded as degenerate and assigned std 1 so the transform stays
    invertible and index-aligned. Finite values near the float limit can
    still overflow the mean or the variance; that raises ``NonFiniteStats``
    naming the first such column.
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
    degenerate = frozenset(int(d) for d in np.flatnonzero(var < VARIANCE_TOLERANCE))
    std = np.sqrt(var)
    if degenerate:
        std = std.copy()
        std[list(degenerate)] = 1.0
    return NormalizationStats(
        mean=mean,
        std=std,
        degenerate_dims=degenerate,
        d_env=ds.schema.d_env,
        d_behavior=ds.schema.d_behavior,
        d_performance=ds.schema.d_performance,
    )
