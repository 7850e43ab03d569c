"""Baseline and behavior regressors plus their advantage composition.

The baseline network maps environment features to expected performance,
acting as a conditional averager over all drivers seen in training. The
behavior network maps environment plus behavior features to performance.
Their difference on a chosen performance metric is the behavioral
advantage: how much better or worse a given behavior profile performs
than the fleet norm under identical conditions. The environment input
feeds both networks while behavior feeds only the behavior network, so
the baseline term cancels from any comparison between two behaviors at
a fixed environment. Both networks are a :class:`Regressor`; which
blocks one reads follows from its input width.
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
class Regressor:
    """Performance regressor in normalized units.

    The net reads env columns, then behavior columns when its input width
    is ``d_env + d_behavior``: the behavior model. A net of width
    ``d_env`` is the baseline, which reads env columns only.
    """

    net: Mlp
    stats: NormalizationStats

    def __post_init__(self):
        d_env, d_behavior = self.stats.d_env, self.stats.d_behavior
        if self.net.config.input_dim not in (d_env, d_env + d_behavior):
            raise DimensionMismatch(
                f"input width {self.net.config.input_dim} is neither the env block ({d_env}) "
                f"nor the env+behavior blocks ({d_env + d_behavior})"
            )
        if self.net.config.output_dim != self.stats.d_performance:
            raise DimensionMismatch("output width does not match performance block")

    @property
    def reads_behavior(self) -> bool:
        return self.net.config.input_dim != self.stats.d_env

    def inputs(self, s_norm: np.ndarray, a_norm: np.ndarray | None = None) -> np.ndarray:
        """The net's input rows: normalized env rows, then behavior rows if given.

        One env vector is broadcast against every behavior row.
        """
        s_rows = np.atleast_2d(s_norm)
        if a_norm is None:
            return s_rows
        a_rows = np.atleast_2d(a_norm)
        return np.concatenate(
            [np.broadcast_to(s_rows, (len(a_rows), s_rows.shape[1])), a_rows], axis=1
        )

    def predict(self, s: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """Predicted normalized performance for a raw env and, if the net reads it, behavior."""
        a_norm = None if a is None else self.stats.normalize_behavior(a)
        return self.predict_normalized(self.stats.normalize_env(s), a_norm)

    def predict_normalized(self, s_norm: np.ndarray, a_norm: np.ndarray | None = None):
        """``(d_performance,)`` for one input vector, ``(n, d_performance)`` for rows."""
        out = self.net.forward_batch(self.inputs(s_norm, a_norm))
        single = np.ndim(s_norm) == 1 and (a_norm is None or np.ndim(a_norm) == 1)
        return out[0] if single else out


def _check_role(name: str, regressor: Regressor) -> None:
    """The ``baseline`` must read env only, the ``behavior`` model env and behavior."""
    if regressor.reads_behavior != (name == "behavior"):
        reads = "env and behavior" if name == "behavior" else "env only"
        raise DimensionMismatch(
            f"{name} net has input width {regressor.net.config.input_dim}; "
            f"a {name} net reads {reads}"
        )


@dataclass
class AdvantageModel:
    """Behavioral advantage on one performance metric.

    Both sub-models must share one normalization (checked by
    fingerprint). ``behavior_box`` holds per-dimension normalized search
    bounds derived from training data, used by the placement search.
    """

    baseline: Regressor
    behavior: Regressor
    metric_index: int
    behavior_box: np.ndarray | None = None

    def __post_init__(self):
        if self.baseline.stats.fingerprint() != self.behavior.stats.fingerprint():
            raise DimensionMismatch("sub-models were fitted with different normalizations")
        _check_role("baseline", self.baseline)
        _check_role("behavior", self.behavior)
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
        return self.advantage_normalized(
            self.stats.normalize_env(s), self.stats.normalize_behavior(a)
        )

    def advantage_normalized(self, s_norm: np.ndarray, a_norm: np.ndarray):
        """Advantage for pre-normalized inputs.

        ``a_norm`` may be a single vector or a matrix of candidate rows;
        the baseline is evaluated once either way.
        """
        base = float(self.baseline.predict_normalized(s_norm)[self.metric_index])
        advantages = self.behavior.predict_normalized(s_norm, a_norm)[..., self.metric_index] - base
        return float(advantages) if advantages.ndim == 0 else advantages

    def advantage_delta(self, s: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
        """Difference advantage(s, a1) - advantage(s, a2).

        Computed directly from the behavior network: the baseline term is
        identical on both sides and cancels algebraically, so the result
        is exact rather than the difference of two rounded subtractions.
        """
        q1 = float(self.behavior.predict(s, a1)[self.metric_index])
        q2 = float(self.behavior.predict(s, a2)[self.metric_index])
        return q1 - q2

    def raw_unit_scale(self) -> float:
        """Multiplier converting normalized advantage to raw metric units."""
        return self.stats.performance_std(self.metric_index)


def train_regressor(
    ds: Dataset, stats: NormalizationStats, params: TrainingParams, with_behavior: bool
) -> tuple[Regressor, TrainReport]:
    """Fit a fresh regressor on every record; ``with_behavior``, it reads behavior too."""
    config = MlpConfig(
        input_dim=stats.d_env + (stats.d_behavior if with_behavior else 0),
        hidden_widths=params.hidden_widths,
        output_dim=stats.d_performance,
        seed=params.seed,
    )
    regressor = Regressor(net=Mlp.init(config), stats=stats)
    a_norm = stats.normalize_behavior(ds.behavior) if with_behavior else None
    report = train(
        regressor.net,
        regressor.inputs(stats.normalize_env(ds.env), a_norm),
        stats.normalize_performance(ds.performance),
        epochs=params.epochs,
        batch_size=params.batch_size,
        learning_rate=params.learning_rate,
        seed=params.seed,
    )
    return regressor, report


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
        "behavior_seed": model.behavior.net.config.seed,
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
    entry, a non-finite weight, bias, statistic or box bound, a net whose
    input width does not fit its file's role (``baseline.json`` and
    ``behavior.json`` swapped), statistics whose fingerprint differs
    from the one recorded in ``meta.json``, or a schema in ``meta.json``
    whose block widths differ from the statistics' or whose target metric
    is not at ``metric_index``.
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
    for name in ("baseline", "behavior"):
        path = directory / f"{name}.json"
        with bundle_file(path):
            parts[name] = Regressor(net=load_mlp(path), stats=stats)
            _check_role(name, parts[name])
            require_finite(*parts[name].net.weights, *parts[name].net.biases)
    with bundle_file(meta_path):
        if meta["stats_fingerprint"] != stats.fingerprint():
            raise ValueError("stats_fingerprint does not match stats.json")
        if type(meta["metric_index"]) is not int:  # bool is an int subclass
            raise TypeError(f"metric_index must be an integer, got {meta['metric_index']!r}")
        schema = DatasetSchema.from_dict(meta["schema"])
        widths = (schema.d_env, schema.d_behavior, schema.d_performance)
        stats_widths = (stats.d_env, stats.d_behavior, stats.d_performance)
        if widths != stats_widths:
            raise ValueError(
                f"schema block widths {widths} do not match stats.json's {stats_widths}"
            )
        if schema.metric_index != meta["metric_index"]:
            raise ValueError(
                f"metric_index {meta['metric_index']} does not match the schema's "
                f"target metric {schema.target_metric!r} at index {schema.metric_index}"
            )
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
