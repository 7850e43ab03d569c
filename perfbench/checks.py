"""Output checks computed apart from the program.

Every check reads the artifacts a command wrote and recomputes what they
claim from the generator's own arrays, with a plain numpy forward pass over
the stored weights. Nothing here imports ``fleetrank``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import Fleet

TOL = 1e-9          # absolute, in normalized target units (values are O(1))
BOX_MARGIN = 0.1    # the search box is the normalized behavior range padded by 10% per side


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Bundle:
    """A trained bundle read straight from its JSON files."""

    mean: np.ndarray
    std: np.ndarray
    d_env: int
    d_behavior: int
    metric_index: int
    baseline: list[tuple[np.ndarray, np.ndarray]]
    behavior: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def load(cls, directory: Path) -> "Bundle":
        stats = json.loads((directory / "stats.json").read_text())
        meta = json.loads((directory / "meta.json").read_text())

        def layers(name):
            net = json.loads((directory / f"{name}.json").read_text())
            return [(np.array(w), np.array(b)) for w, b in zip(net["weights"], net["biases"])]

        return cls(np.array(stats["mean"]), np.array(stats["std"]), stats["d_env"],
                   stats["d_behavior"], meta["metric_index"], layers("baseline"),
                   layers("behavior"))

    def _norm(self, x, start, stop):
        return (x - self.mean[start:stop]) / self.std[start:stop]

    def env(self, raw):
        return self._norm(raw, 0, self.d_env)

    def behavior_norm(self, raw):
        return self._norm(raw, self.d_env, self.d_env + self.d_behavior)

    def performance(self, raw):
        return self._norm(raw, self.d_env + self.d_behavior, len(self.mean))

    def behavior_raw(self, norm):
        sl = slice(self.d_env, self.d_env + self.d_behavior)
        return norm * self.std[sl] + self.mean[sl]


def forward(layers, x: np.ndarray) -> np.ndarray:
    """ReLU hidden layers, linear output; weights stored as (fan_out, fan_in)."""
    h = np.atleast_2d(x)
    for i, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def advantages(bundle: Bundle, env_raw: np.ndarray, behavior_norm: np.ndarray) -> np.ndarray:
    """Behavior-net minus baseline-net prediction of the target, one env against many behaviors."""
    s = bundle.env(env_raw)
    a = np.atleast_2d(behavior_norm)
    x = np.hstack([np.broadcast_to(s, (len(a), len(s))), a])
    m = bundle.metric_index
    return forward(bundle.behavior, x)[:, m] - forward(bundle.baseline, s)[0, m]


def behavior_box(bundle: Bundle, fleet: Fleet) -> np.ndarray:
    a = bundle.behavior_norm(fleet.behavior)
    lo, hi = a.min(axis=0), a.max(axis=0)
    pad = np.where(hi > lo, BOX_MARGIN * (hi - lo), 1e-6)
    return np.stack([lo - pad, hi + pad], axis=1)


def spearman(x, y) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def raw_mpg_spearman(fleet: Fleet) -> float:
    """How well plain mean MPG per driver orders the true skills."""
    sums = np.bincount(fleet.driver_of_trip, weights=fleet.performance[:, 0])
    return spearman(sums / np.bincount(fleet.driver_of_trip), fleet.skills)


def check_train(bundle_dir: Path, fleet: Fleet, epochs: int) -> None:
    """Stats match the data; the behavior net fits better than the baseline net."""
    bundle = Bundle.load(bundle_dir)
    stacked = np.hstack([fleet.env, fleet.behavior, fleet.performance])
    std = stacked.std(axis=0, ddof=1)
    expect(np.allclose(bundle.mean, stacked.mean(axis=0), rtol=1e-9, atol=1e-12),
           "stats.json mean differs from the data")
    expect(np.allclose(bundle.std, np.where(std**2 < 1e-12, 1.0, std), rtol=1e-9),
           "stats.json std differs from the data")
    env, target = bundle.env(fleet.env), bundle.performance(fleet.performance)
    base_mse = float(np.mean((forward(bundle.baseline, env) - target) ** 2))
    beh_in = np.hstack([env, bundle.behavior_norm(fleet.behavior)])
    behav_mse = float(np.mean((forward(bundle.behavior, beh_in) - target) ** 2))
    expect(np.isfinite(base_mse) and behav_mse < base_mse,
           f"behavior mse {behav_mse:.4f} not below baseline mse {base_mse:.4f}")
    for name in ("baseline", "behavior"):
        with (bundle_dir / f"{name}_curve.csv").open() as handle:
            expect(len(list(csv.reader(handle))) == epochs + 1, f"{name}_curve.csv length")


def check_ranking(rank_dir: Path, bundle_dir: Path, fleet: Fleet, min_spearman: float) -> None:
    """Driver means recomputed from the bundle; the order tracks the true skills."""
    bundle = Bundle.load(bundle_dir)
    with (rank_dir / "ranking.csv").open() as handle:
        rows = list(csv.reader(handle))[1:]
    expect(len(rows) == len(fleet.driver_ids), "ranking lists the wrong number of drivers")
    m = bundle.metric_index
    observed = bundle.performance(fleet.performance)[:, m]
    predicted = forward(bundle.baseline, bundle.env(fleet.env))[:, m]
    advantage = observed - predicted
    order = np.argsort(fleet.driver_of_trip, kind="stable")
    bounds = np.cumsum(np.bincount(fleet.driver_of_trip))
    per_driver = np.split(advantage[order], bounds[:-1])
    index = {d: i for i, d in enumerate(fleet.driver_ids)}
    means = np.full(len(fleet.driver_ids), np.nan)
    previous = np.inf
    for position, (rank, driver, mean, std, count) in enumerate(rows, start=1):
        expect(int(rank) == position, f"rank column out of order at {driver}")
        expect(driver in index, f"unknown driver {driver}")
        values = per_driver[index[driver]]
        expect(int(count) == len(values), f"{driver}: trip count {count} != {len(values)}")
        expect(abs(float(mean) - values.mean()) <= TOL,
               f"{driver}: mean {mean} != recomputed {float(values.mean())!r}")
        expect(abs(float(std) - values.std(ddof=1)) <= TOL, f"{driver}: std differs")
        expect(float(mean) <= previous, "ranking not sorted by mean advantage")
        previous = float(mean)
        means[index[driver]] = float(mean)
    rho, raw = spearman(means, fleet.skills), raw_mpg_spearman(fleet)
    expect(rho >= min_spearman and rho > raw,
           f"spearman {rho:.3f} vs skills (needs >= {min_spearman} and > raw mpg {raw:.3f})")


def check_placement(place_dir: Path, bundle_dir: Path, fleet: Fleet, env_raw: np.ndarray) -> None:
    """Optimum inside the box, advantage recomputed, nearest profile matched."""
    bundle = Bundle.load(bundle_dir)
    result = json.loads((place_dir / "placement.json").read_text())
    optimum = np.array(result["optimal_behavior_normalized"])
    expect(optimum.shape == (fleet.behavior.shape[1],), "optimum has the wrong length")
    box = behavior_box(bundle, fleet)
    expect(bool(np.all(optimum >= box[:, 0] - 1e-12) and np.all(optimum <= box[:, 1] + 1e-12)),
           "optimum outside the behavior box")
    expect(np.allclose(result["optimal_behavior_raw"], bundle.behavior_raw(optimum),
                       rtol=1e-9, atol=1e-9), "raw optimum is not the denormalized optimum")
    value = float(advantages(bundle, env_raw, optimum)[0])
    expect(abs(result["optimal_advantage"] - value) <= TOL,
           f"optimal_advantage {result['optimal_advantage']!r} != recomputed {value!r}")

    profiles = bundle.behavior_norm(fleet.behavior)
    sums = np.stack([np.bincount(fleet.driver_of_trip, weights=col) for col in profiles.T], axis=1)
    profiles = sums / np.bincount(fleet.driver_of_trip)[:, None]
    distances = np.linalg.norm(profiles - optimum, axis=1)
    nearest = int(np.argmin(distances))
    expect(result["matched_driver"] == fleet.driver_ids[nearest],
           f"matched {result['matched_driver']}, nearest profile is {fleet.driver_ids[nearest]}")
    expect(abs(result["match_distance"] - distances[nearest]) <= TOL, "match_distance differs")
    expect(result["argmax_consistent"] is True, "argmax_consistent is not true")

    with (place_dir / "search_history.csv").open() as handle:
        history = [float(row[1]) for row in list(csv.reader(handle))[1:]]
    expect(len(history) == result["generations_used"], "search history length")
    expect(all(b >= a for a, b in zip(history, history[1:])), "running best decreased")
    expect(history[-1] == result["optimal_advantage"], "history does not end at the optimum")


def check_surface(surface_dir: Path, bundle_dir: Path, fleet: Fleet, env_raw: np.ndarray,
                  template_raw: np.ndarray, free: tuple[int, int], resolution: int) -> None:
    """Every grid point's advantage recomputed; the grid spans the box."""
    bundle = Bundle.load(bundle_dir)
    with (surface_dir / "surface.csv").open() as handle:
        rows = list(csv.reader(handle))
    expect(rows[0] == [fleet.behavior_columns[free[0]], fleet.behavior_columns[free[1]],
                       "advantage"], "surface header")
    grid = np.array(rows[1:], dtype=float)
    expect(grid.shape == (resolution * resolution, 3), "surface has the wrong number of points")
    box = behavior_box(bundle, fleet)
    for column, dim in enumerate(free):
        expect(np.allclose([grid[:, column].min(), grid[:, column].max()], box[dim],
                           rtol=1e-9, atol=1e-12), "grid does not span the behavior box")
    candidates = np.tile(bundle.behavior_norm(template_raw), (len(grid), 1))
    candidates[:, list(free)] = grid[:, :2]
    expect(float(np.abs(advantages(bundle, env_raw, candidates) - grid[:, 2]).max()) <= TOL,
           "surface advantages differ from the recomputed ones")
