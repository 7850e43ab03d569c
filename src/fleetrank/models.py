"""Baseline and behavior regressors plus their advantage composition.

The baseline network maps environment features to expected performance,
acting as a conditional averager over all drivers seen in training. The
behavior network maps environment plus behavior features to performance.
Their difference on a chosen performance metric is the behavioral
advantage: how much better or worse a given behavior profile performs
than the fleet norm under identical conditions. The environment input
feeds both networks while behavior feeds only the behavior network, so
the baseline term cancels from any comparison between two behaviors at
a fixed environment.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import CorruptBundle, DimensionMismatch, InvalidConfig
from .neural import Mlp, MlpConfig, TrainReport, load_mlp, save_mlp, train
from .normalization import NormalizationStats
from .trip_data import Dataset, DatasetSchema

TOOL_VERSION = "0.1.0"

# Fractional padding applied per side when deriving the behavior search
# box from observed data ranges, keeping the search in-distribution.
BOX_MARGIN = 0.1


@dataclass(frozen=True)
class TrainingParams:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden_widths: tuple[int, int, int] = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if len(self.hidden_widths) != 3 or min(self.hidden_widths) < 1:
            raise InvalidConfig(
                f"hidden widths must be three integers >= 1, got {self.hidden_widths}"
            )


@dataclass
class BaselineModel:
    """Environment -> performance regressor (normalized units)."""

    net: Mlp
    stats: NormalizationStats

    def __post_init__(self):
        if self.net.config.input_dim != self.stats.d_env:
            raise DimensionMismatch("baseline input width does not match env block")
        if self.net.config.output_dim != self.stats.d_performance:
            raise DimensionMismatch("baseline output width does not match performance block")

    def predict(self, s: np.ndarray) -> np.ndarray:
        """Predicted normalized performance vector for a raw env vector."""
        return self.net.forward(self.stats.normalize_env(np.asarray(s, dtype=float)))

    def predict_normalized(self, s_norm: np.ndarray) -> np.ndarray:
        return self.net.forward(np.asarray(s_norm, dtype=float))


@dataclass
class BehaviorModel:
    """(Environment, behavior) -> performance regressor (normalized units)."""

    net: Mlp
    stats: NormalizationStats

    def __post_init__(self):
        if self.net.config.input_dim != self.stats.d_env + self.stats.d_behavior:
            raise DimensionMismatch("behavior input width does not match env+behavior blocks")
        if self.net.config.output_dim != self.stats.d_performance:
            raise DimensionMismatch("behavior output width does not match performance block")

    def predict(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        s_norm = self.stats.normalize_env(np.asarray(s, dtype=float))
        a_norm = self.stats.normalize_behavior(np.asarray(a, dtype=float))
        return self.predict_normalized(s_norm, a_norm)

    def predict_normalized(self, s_norm: np.ndarray, a_norm: np.ndarray) -> np.ndarray:
        return self.net.forward(np.concatenate([s_norm, a_norm]))

    def predict_normalized_batch(self, s_norm: np.ndarray, a_norm: np.ndarray) -> np.ndarray:
        """One fixed env row against many behavior rows; returns (m, d_q)."""
        a_norm = np.atleast_2d(np.asarray(a_norm, dtype=float))
        tiled = np.broadcast_to(s_norm, (a_norm.shape[0], s_norm.shape[0]))
        return self.net.forward_batch(np.hstack([tiled, a_norm]))


@dataclass
class AdvantageModel:
    """Behavioral advantage on one performance metric.

    Both sub-models must share one normalization (checked by
    fingerprint). ``behavior_box`` holds per-dimension normalized search
    bounds derived from training data, used by the placement search.
    """

    baseline: BaselineModel
    behavior: BehaviorModel
    metric_index: int
    behavior_box: np.ndarray | None = None

    def __post_init__(self):
        if self.baseline.stats.fingerprint() != self.behavior.stats.fingerprint():
            raise DimensionMismatch("sub-models were fitted with different normalizations")
        if not 0 <= self.metric_index < self.stats.d_performance:
            raise DimensionMismatch(f"metric_index {self.metric_index} out of range")
        if self.behavior_box is not None:
            self.behavior_box = np.asarray(self.behavior_box, dtype=float)
            if self.behavior_box.shape != (self.stats.d_behavior, 2):
                raise DimensionMismatch("behavior_box must have shape (d_behavior, 2)")

    @property
    def stats(self) -> NormalizationStats:
        return self.baseline.stats

    def advantage(self, s: np.ndarray, a: np.ndarray) -> float:
        """Advantage of behavior ``a`` in environment ``s`` (normalized units)."""
        s_norm = self.stats.normalize_env(np.asarray(s, dtype=float))
        a_norm = self.stats.normalize_behavior(np.asarray(a, dtype=float))
        return self.advantage_normalized(s_norm, a_norm)

    def advantage_normalized(self, s_norm: np.ndarray, a_norm: np.ndarray):
        """Advantage for pre-normalized inputs.

        ``a_norm`` may be a single vector or a matrix of candidate rows;
        the baseline is evaluated once either way.
        """
        s_norm = np.asarray(s_norm, dtype=float)
        a_norm = np.asarray(a_norm, dtype=float)
        base = float(self.baseline.predict_normalized(s_norm)[self.metric_index])
        if a_norm.ndim == 1:
            q = float(self.behavior.predict_normalized(s_norm, a_norm)[self.metric_index])
            return q - base
        q = self.behavior.predict_normalized_batch(s_norm, a_norm)[:, self.metric_index]
        return q - base

    def advantage_delta(self, s: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
        """Difference advantage(s, a1) - advantage(s, a2).

        Computed directly from the behavior network: the baseline term is
        identical on both sides and cancels algebraically, so the result
        is exact rather than the difference of two rounded subtractions.
        """
        s_norm = self.stats.normalize_env(np.asarray(s, dtype=float))
        a1_norm = self.stats.normalize_behavior(np.asarray(a1, dtype=float))
        a2_norm = self.stats.normalize_behavior(np.asarray(a2, dtype=float))
        q1 = float(self.behavior.predict_normalized(s_norm, a1_norm)[self.metric_index])
        q2 = float(self.behavior.predict_normalized(s_norm, a2_norm)[self.metric_index])
        return q1 - q2

    def raw_unit_scale(self) -> float:
        """Multiplier converting normalized advantage to raw metric units."""
        return self.stats.performance_std(self.metric_index)


def train_baseline(
    ds: Dataset, stats: NormalizationStats, params: TrainingParams
) -> tuple[BaselineModel, TrainReport]:
    """Fit the environment -> performance regressor on every record."""
    inputs = stats.normalize_env(ds.env)
    net, report = _fit(inputs, stats.normalize_performance(ds.performance), stats, params)
    return BaselineModel(net=net, stats=stats), report


def train_behavior(
    ds: Dataset, stats: NormalizationStats, params: TrainingParams
) -> tuple[BehaviorModel, TrainReport]:
    """Fit the (environment, behavior) -> performance regressor."""
    inputs = np.hstack(
        [stats.normalize_env(ds.env), stats.normalize_behavior(ds.behavior)]
    )
    net, report = _fit(inputs, stats.normalize_performance(ds.performance), stats, params)
    return BehaviorModel(net=net, stats=stats), report


def _fit(
    inputs: np.ndarray, targets: np.ndarray, stats: NormalizationStats, params: TrainingParams
) -> tuple[Mlp, TrainReport]:
    """A fresh net with ``inputs``' width, trained on normalized performance ``targets``."""
    net = Mlp.init(
        MlpConfig(
            input_dim=inputs.shape[1],
            hidden_widths=params.hidden_widths,
            output_dim=stats.d_performance,
            seed=params.seed,
        )
    )
    report = train(
        net,
        inputs,
        targets,
        epochs=params.epochs,
        batch_size=params.batch_size,
        learning_rate=params.learning_rate,
        seed=params.seed,
    )
    return net, report


def behavior_box_from(ds: Dataset, stats: NormalizationStats, margin: float = BOX_MARGIN) -> np.ndarray:
    """Per-dimension [lo, hi] over normalized behaviors, padded by ``margin``.

    Dimensions with zero observed span get a hairline box so downstream
    bound checks remain well-formed.
    """
    a = stats.normalize_behavior(ds.behavior)
    lo = a.min(axis=0)
    hi = a.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, margin * span, 1e-6)
    return np.stack([lo - pad, hi + pad], axis=1)


def save_bundle(
    directory: str | Path,
    model: AdvantageModel,
    schema: DatasetSchema,
    baseline_report: TrainReport | None = None,
    behavior_report: TrainReport | None = None,
    params: TrainingParams | None = None,
    behavior_seed: int | None = None,
) -> None:
    """Write an advantage model as a directory of JSON artifacts."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_mlp(model.baseline.net, directory / "baseline.json")
    save_mlp(model.behavior.net, directory / "behavior.json")
    model.stats.save(directory / "stats.json")
    meta = {
        "version": TOOL_VERSION,
        "schema": schema.to_dict(),
        "target_metric": schema.target_metric,
        "metric_index": model.metric_index,
        "stats_fingerprint": model.stats.fingerprint(),
        "behavior_box": None if model.behavior_box is None else model.behavior_box.tolist(),
        "baseline_seed": model.baseline.net.config.seed,
        "behavior_seed": model.behavior.net.config.seed if behavior_seed is None else behavior_seed,
        "training": None
        if params is None
        else {
            "epochs": params.epochs,
            "batch_size": params.batch_size,
            "learning_rate": params.learning_rate,
            "hidden_widths": list(params.hidden_widths),
            "seed": params.seed,
        },
        "baseline_final_loss": None if baseline_report is None else baseline_report.final_loss,
        "behavior_final_loss": None if behavior_report is None else behavior_report.final_loss,
    }
    with atomic_open(directory / "meta.json") as handle:
        handle.write(json.dumps(meta, indent=2))


def load_bundle(directory: str | Path) -> tuple[AdvantageModel, DatasetSchema, dict]:
    """Read and verify a bundle written by :func:`save_bundle`.

    Raises ``CorruptBundle`` for a file that is not valid JSON, a
    ``meta.json`` written by another tool version, a missing or ill-typed
    entry, a non-finite weight, bias, statistic or box bound, or
    statistics whose fingerprint differs from the one recorded in
    ``meta.json``.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    with bundle_file(meta_path):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if type(meta) is not dict:
            raise TypeError(f"expected a JSON object, got {type(meta).__name__}")
        if meta.get("version") != TOOL_VERSION:
            raise ValueError(
                f"written by tool version {meta.get('version')!r}, "
                f"this is version {TOOL_VERSION!r}"
            )
    with bundle_file(directory / "stats.json"):
        stats = NormalizationStats.load(directory / "stats.json")
        require_finite(stats.mean, stats.std)
    parts = {}
    for name, kind in (("baseline", BaselineModel), ("behavior", BehaviorModel)):
        path = directory / f"{name}.json"
        with bundle_file(path):
            parts[name] = kind(net=load_mlp(path), stats=stats)
            require_finite(*parts[name].net.weights, *parts[name].net.biases)
    with bundle_file(meta_path):
        if meta["stats_fingerprint"] != stats.fingerprint():
            raise ValueError("stats_fingerprint does not match stats.json")
        if type(meta["metric_index"]) is not int:  # bool is an int subclass
            raise TypeError(f"metric_index must be an integer, got {meta['metric_index']!r}")
        box = meta["behavior_box"]
        if box is not None:
            box = np.array(box, dtype=float)
            require_finite(box)
        model = AdvantageModel(
            baseline=parts["baseline"],
            behavior=parts["behavior"],
            metric_index=meta["metric_index"],
            behavior_box=box,
        )
        schema = DatasetSchema.from_dict(meta["schema"])
    return model, schema, meta


@contextmanager
def bundle_file(path: Path):
    """Re-raise what a bundle file's content breaks as ``CorruptBundle`` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise CorruptBundle(f"corrupt bundle file {path}: missing entry {exc}") from None
    except (TypeError, ValueError, DimensionMismatch) as exc:  # JSON errors are ValueErrors
        raise CorruptBundle(f"corrupt bundle file {path}: {exc}") from None


def require_finite(*arrays: np.ndarray) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite value")
