import logging
import math

import numpy as np
import pytest

from fleetrank.assessment import (
    Ranking,
    assess_drivers,
    ranking_rows,
    render_ranking,
    trip_advantages,
)
from fleetrank.errors import DimensionMismatch, EmptyDataset
from fleetrank.models import Regressor, TrainingParams, train_regressor
from fleetrank.neural import Mlp, MlpConfig
from fleetrank.normalization import fit_stats
from fleetrank.synth import SynthConfig, generate
from fleetrank.trip_data import group_rows
from tests.conftest import make_dataset, spearman


def aggregate(pairs, **kwargs):
    """Rank (driver_id, advantage) pairs, one per trip."""
    driver_ids = sorted({d for d, _ in pairs})
    codes = [driver_ids.index(d) for d, _ in pairs]
    return assess_drivers(driver_ids, codes, [v for _, v in pairs], **kwargs)


def zero_baseline(stats):
    widths = (4, 4, 4)
    config = MlpConfig(input_dim=stats.d_env, hidden_widths=widths,
                       output_dim=stats.d_performance, seed=0)
    weights = [np.zeros((4, stats.d_env)), np.zeros((4, 4)), np.zeros((4, 4)),
               np.zeros((stats.d_performance, 4))]
    biases = [np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(stats.d_performance)]
    return Regressor(net=Mlp(config, weights, biases), stats=stats)


def test_exact_baseline_gives_zero_advantages():
    # constant performance normalizes to zero, which a zero net predicts exactly
    env = np.random.default_rng(0).normal(size=(20, 3))
    ds = make_dataset(env, np.zeros((20, 1)), np.full((20, 1), 6.0),
                      [f"d{i % 4}" for i in range(20)])
    stats = fit_stats(ds)
    advs = trip_advantages(ds, zero_baseline(stats), metric_index=0)
    assert advs.shape == (20,)
    assert np.all(advs == 0.0)


def test_output_count_and_order():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=12, seed=1))
    stats = fit_stats(ds)
    advs = trip_advantages(ds, zero_baseline(stats), metric_index=0)
    assert advs.shape == (len(ds),)
    # a zero baseline predicts 0, so trip i's advantage is its own normalized metric
    np.testing.assert_array_equal(advs, stats.normalize_performance(ds.performance)[:, 0])


def test_trip_advantages_track_behavior_effect():
    # a low-dimensional environment lets the baseline interpolate the true
    # env curve instead of memorizing rows, leaving the behavior effect in
    # the residual where per-trip advantages can track it
    ds, truth = generate(SynthConfig(n_drivers=4, trips_per_driver=300, d_env=2, seed=2))
    stats = fit_stats(ds)
    model, _ = train_regressor(ds, stats, TrainingParams(
        epochs=60, batch_size=64, learning_rate=3e-3, hidden_widths=(32, 32, 32), seed=3),
        with_behavior=False)
    advs = trip_advantages(ds, model, metric_index=0)
    g = [truth.behavior_effect(a) for a in ds.behavior]
    assert spearman(advs, g) >= 0.9


def test_assess_hand_values():
    ranking = aggregate([("d1", 1.0), ("d1", -1.0), ("d2", 2.0)], min_trips_warn=0)
    assert [e.driver_id for e in ranking.entries] == ["d2", "d1"]
    d2, d1 = ranking.entries
    assert (d2.mean_advantage, d2.std_advantage, d2.trip_count) == (2.0, 0.0, 1)
    assert d1.mean_advantage == 0.0
    assert d1.std_advantage == pytest.approx(math.sqrt(2))
    assert d1.trip_count == 2


def test_assess_empty_rejected():
    with pytest.raises(EmptyDataset):
        assess_drivers([], np.array([], dtype=int), np.array([]))


def test_tie_break_by_driver_id():
    ranking = aggregate([("zeta", 1.0), ("alpha", 1.0)], min_trips_warn=0)
    assert [e.driver_id for e in ranking.entries] == ["alpha", "zeta"]


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    advs = [(f"d{i % 7}", float(rng.normal())) for i in range(70)]
    base = aggregate(advs, min_trips_warn=0)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(advs))
        shuffled = aggregate([advs[i] for i in order], min_trips_warn=0)
        assert shuffled == base


def test_assess_matches_per_driver_sort_reference():
    # summing each driver's values in ascending order, as a per-driver sort does
    rng = np.random.default_rng(12)
    n = 5000
    codes = rng.integers(0, 11, size=n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)
    driver_ids = [f"d{k:02d}" for k in range(11)]
    ranking = assess_drivers(driver_ids, codes, values, min_trips_warn=0)
    for entry in ranking.entries:
        arr = np.sort(values[codes == driver_ids.index(entry.driver_id)])
        assert entry.mean_advantage == float(arr.mean())
        assert entry.std_advantage == float(arr.std(ddof=1))
        assert entry.trip_count == len(arr)


def lexsort_reference(driver_ids, codes, values):
    """(driver_id, mean, std, count) per driver with trips, grouped by ``np.lexsort``."""
    ordered = values[np.lexsort((values, codes))]
    _, offsets = group_rows(codes, len(driver_ids))
    groups = [(driver_id, ordered[offsets[k] : offsets[k + 1]])
              for k, driver_id in enumerate(driver_ids) if offsets[k + 1] > offsets[k]]
    return {driver_id: (np.float64(arr.mean()).tobytes(),
                        np.float64(arr.std(ddof=1) if len(arr) > 1 else 0.0).tobytes(), len(arr))
            for driver_id, arr in groups}


@pytest.mark.parametrize("n_drivers", [12, 40_000], ids=["int16-codes", "wide-codes"])
def test_assess_groups_as_lexsort_does(n_drivers):
    # repeated values, both zeros, and drivers without trips
    rng = np.random.default_rng(n_drivers)
    n = 6000
    codes = rng.choice(np.arange(0, n_drivers, 3), size=n)  # two drivers in three have no trips
    values = rng.choice(np.array([-1.5, -0.0, 0.0, 2.0, 1e-300, -1e-300]), size=n)
    values[: n // 2] += rng.normal(size=n // 2) * 10.0 ** rng.integers(-8, 8, size=n // 2)
    codes[:20] = 0
    values[:20] = [0.0, -0.0] * 10
    driver_ids = [f"d{k:05d}" for k in range(n_drivers)]
    ranking = assess_drivers(driver_ids, codes, values, min_trips_warn=0)
    got = {e.driver_id: (np.float64(e.mean_advantage).tobytes(),
                         np.float64(e.std_advantage).tobytes(), e.trip_count)
           for e in ranking.entries}
    assert got == lexsort_reference(driver_ids, codes, values)


def test_render_format():
    ranking = aggregate([("d1", 1.0), ("d1", -1.0), ("d2", 2.0)], min_trips_warn=0)
    text = render_ranking(ranking)
    lines = text.splitlines()
    assert lines[1] == "1  d2  2.000000 (0.000000)  n=1"
    assert lines[2] == "2  d1  0.000000 (1.414214)  n=2"


def test_render_empty_has_header_only():
    text = render_ranking(Ranking(entries=()))
    assert text.splitlines() == ["rank  driver  advantage (std)  trips"]


def test_ranking_rows():
    ranking = aggregate([("d1", 0.5)], min_trips_warn=0)
    rows = ranking_rows(ranking)
    assert rows[0] == ["rank", "driver_id", "mean_advantage", "std_advantage", "trip_count"]
    assert rows[1] == [1, "d1", "0.5", "0.0", 1]


def test_raw_units_scale_but_not_order():
    ds, _ = generate(SynthConfig(n_drivers=5, trips_per_driver=30, seed=5))
    stats = fit_stats(ds)
    model, _ = train_regressor(ds, stats, TrainingParams(
        epochs=20, batch_size=64, hidden_widths=(8, 8, 8), seed=6), with_behavior=False)
    normalized = trip_advantages(ds, model, metric_index=0)
    raw = trip_advantages(ds, model, metric_index=0, raw_units=True)
    factor = stats.performance_std(0)
    for a, b in zip(normalized, raw):
        assert b == pytest.approx(a * factor, rel=1e-12)
    order_a = [e.driver_id for e in
               assess_drivers(ds.driver_ids, ds.driver_codes, normalized, min_trips_warn=0).entries]
    order_b = [e.driver_id for e in
               assess_drivers(ds.driver_ids, ds.driver_codes, raw, min_trips_warn=0).entries]
    assert order_a == order_b


def test_shift_invariance_of_order():
    # adding a constant to the target metric changes neither normalized
    # targets nor the fitted std, so the recovered order is unchanged
    ds, _ = generate(SynthConfig(n_drivers=6, trips_per_driver=40, seed=7))
    params = TrainingParams(epochs=30, batch_size=64, hidden_widths=(16, 16, 16), seed=8)
    stats = fit_stats(ds)
    model, _ = train_regressor(ds, stats, params, with_behavior=False)
    order = [e.driver_id for e in assess_drivers(
        ds.driver_ids, ds.driver_codes, trip_advantages(ds, model, 0), min_trips_warn=0).entries]

    shifted_perf = ds.performance.copy()
    shifted_perf[:, 0] += 123.0
    shifted = make_dataset(ds.env, ds.behavior, shifted_perf,
                           [ds.driver_ids[k] for k in ds.driver_codes], schema=ds.schema)
    stats2 = fit_stats(shifted)
    model2, _ = train_regressor(shifted, stats2, params, with_behavior=False)
    order2 = [e.driver_id for e in assess_drivers(
        shifted.driver_ids, shifted.driver_codes, trip_advantages(shifted, model2, 0),
        min_trips_warn=0).entries]
    assert order == order2


def test_low_trip_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="fleetrank.assessment"):
        aggregate([("d1", 0.1), ("d2", 0.2), ("d2", 0.3)], min_trips_warn=2)
    assert "fewer than 2 trips" in caplog.text


def test_layout_mismatch_rejected():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=10, seed=9))
    other, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=10, d_env=4, seed=9))
    stats = fit_stats(other)
    with pytest.raises(DimensionMismatch):
        trip_advantages(ds, zero_baseline(stats), metric_index=0)
