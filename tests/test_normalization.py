import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetrank.errors import DimensionMismatch, TooFewSamples
from fleetrank.normalization import NormalizationStats, fit_stats
from fleetrank.synth import SynthConfig, generate
from tests.conftest import make_dataset


def one_dim_dataset(values):
    n = len(values)
    return make_dataset(
        env=[[v] for v in values],
        behavior=[[0.0]] * n,
        performance=[[1.0]] * n,
        driver_ids=[f"d{i%2}" for i in range(n)],
    )


def test_two_sample_stats():
    # variance of {0, 2} with divisor n-1 is ((0-1)^2 + (2-1)^2) / 1 = 2
    stats = fit_stats(one_dim_dataset([0.0, 2.0]))
    assert stats.mean[0] == 1.0
    assert stats.std[0] == math.sqrt(2)


def test_three_sample_unit_std():
    # variance of {-1, 0, 1} is (1 + 0 + 1) / 2 = 1
    stats = fit_stats(one_dim_dataset([-1.0, 0.0, 1.0]))
    assert stats.mean[0] == 0.0
    assert stats.std[0] == pytest.approx(1.0)


def test_degenerate_column():
    stats = fit_stats(one_dim_dataset([0.0, 2.0]))
    # behavior column is constant 0, performance constant 1
    assert 1 in stats.degenerate_dims
    assert 2 in stats.degenerate_dims
    assert stats.std[1] == 1.0
    assert stats.std[2] == 1.0
    assert stats.normalize(np.array([1.0, 0.0, 1.0]))[1] == 0.0
    assert stats.normalize(np.array([1.0, 0.0, 1.0]))[2] == 0.0


def test_normalize_hand_value():
    stats = fit_stats(one_dim_dataset([0.0, 2.0]))
    out = stats.normalize(np.array([3.0, 0.0, 1.0]))
    assert out[0] == pytest.approx(2.0 / math.sqrt(2))
    assert out[0] == pytest.approx(math.sqrt(2))


def test_normalize_mean_is_zero():
    stats = fit_stats(one_dim_dataset([0.0, 2.0]))
    np.testing.assert_array_equal(stats.normalize(stats.mean.copy()), np.zeros(3))


def test_denormalize_inverse():
    stats = fit_stats(one_dim_dataset([0.0, 2.0]))
    np.testing.assert_array_equal(stats.denormalize(np.zeros(3)), stats.mean)
    out = stats.denormalize(np.array([math.sqrt(2), 0.0, 0.0]))
    assert out[0] == pytest.approx(3.0)


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        fit_stats(one_dim_dataset([1.0]))


def test_dimension_mismatch():
    stats = fit_stats(one_dim_dataset([0.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        stats.normalize(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        stats.normalize_env(np.zeros(2))


def test_whole_dataset_normalization():
    ds, _ = generate(SynthConfig(n_drivers=5, trips_per_driver=40, seed=3))
    stats = fit_stats(ds)
    xn = stats.normalize(ds.values)
    keep = [d for d in range(stats.dim) if d not in stats.degenerate_dims]
    assert np.abs(xn[:, keep].mean(axis=0)).max() < 1e-9
    assert np.abs(xn[:, keep].std(axis=0, ddof=1) - 1.0).max() < 1e-6


def test_scale_equivariance():
    ds, _ = generate(SynthConfig(n_drivers=4, trips_per_driver=25, seed=5))
    stats = fit_stats(ds)
    scaled_env = ds.env.copy()
    scaled_env[:, 0] *= 37.5
    scaled = make_dataset(
        env=scaled_env,
        behavior=ds.behavior,
        performance=ds.performance,
        driver_ids=[ds.driver_ids[k] for k in ds.driver_codes],
        schema=ds.schema,
    )
    stats2 = fit_stats(scaled)
    np.testing.assert_allclose(
        stats.normalize_env(ds.env),
        stats2.normalize_env(scaled.env),
        rtol=1e-10,
        atol=1e-12,
    )


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4),
)
def test_roundtrip_property(vec):
    # stacked layout is 1 env + 1 behavior + 2 performance dims
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=10, d_env=1, d_behavior=1, seed=8))
    stats = fit_stats(ds)
    x = np.array(vec)
    back = stats.denormalize(stats.normalize(x))
    np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-9)


def test_json_roundtrip(tmp_path):
    ds, _ = generate(SynthConfig(n_drivers=4, trips_per_driver=20, seed=2))
    stats = fit_stats(ds)
    path = tmp_path / "stats.json"
    stats.save(path)
    back = NormalizationStats.load(path)
    np.testing.assert_array_equal(back.mean, stats.mean)
    np.testing.assert_array_equal(back.std, stats.std)
    assert back.degenerate_dims == stats.degenerate_dims
    assert back.fingerprint() == stats.fingerprint()


def test_fingerprint_distinguishes():
    a = fit_stats(one_dim_dataset([0.0, 2.0]))
    b = fit_stats(one_dim_dataset([0.0, 4.0]))
    assert a.fingerprint() != b.fingerprint()


def test_slices():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=10, seed=1))
    stats = fit_stats(ds)
    assert stats.env_slice == slice(0, 8)
    assert stats.behavior_slice == slice(8, 14)
    assert stats.performance_slice == slice(14, 16)
    full = stats.normalize(ds.values[0])
    np.testing.assert_array_equal(full[:8], stats.normalize_env(ds.env[0]))
    np.testing.assert_array_equal(full[8:14], stats.normalize_behavior(ds.behavior[0]))
