"""Shared fixtures and small numeric helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fleetrank.trip_data import Dataset, DatasetSchema

# More examples for the property tests CI runs apart: --hypothesis-profile ci.
# A test's own max_examples still wins over the profile's.
settings.register_profile("ci", max_examples=500)


def spearman(x, y) -> float:
    """Spearman rank correlation via Pearson correlation of ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def make_dataset(env, behavior, performance, driver_ids, schema=None) -> Dataset:
    """Assemble a Dataset from plain arrays, one row per trip."""
    env = np.atleast_2d(np.asarray(env, dtype=float))
    behavior = np.atleast_2d(np.asarray(behavior, dtype=float))
    performance = np.atleast_2d(np.asarray(performance, dtype=float))
    if schema is None:
        schema = DatasetSchema(
            env_columns=tuple(f"e{i}" for i in range(env.shape[1])),
            behavior_columns=tuple(f"b{i}" for i in range(behavior.shape[1])),
            performance_columns=("total_mpg",) + tuple(f"p{i}" for i in range(1, performance.shape[1])),
        )
    return Dataset.from_rows(
        schema,
        [f"t{i}" for i in range(env.shape[0])],
        list(driver_ids),
        np.hstack([env, behavior, performance]),
    )


@pytest.fixture
def simple_schema() -> DatasetSchema:
    return DatasetSchema(
        env_columns=("grade", "load"),
        behavior_columns=("overspeed", "overrpm"),
        performance_columns=("total_mpg", "fuel"),
        trip_id_column="trip_id",
        driver_id_column="driver_id",
        target_metric="total_mpg",
    )


@pytest.fixture
def simple_csv(tmp_path, simple_schema):
    path = tmp_path / "trips.csv"
    path.write_text(
        "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n"
        "t1,d1,0.5,10.0,3.0,1.0,6.5,55.0\n"
        "t2,d2,1.5,12.0,0.0,2.0,5.5,60.0\n"
        "t3,d1,-0.5,8.0,1.0,0.0,7.0,50.0\n",
        encoding="utf-8",
    )
    return path
