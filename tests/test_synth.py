import numpy as np
import pytest

from fleetrank.errors import InvalidConfig
from fleetrank.synth import BEHAVIOR_SPREAD, GroundTruth, SynthConfig, generate
from fleetrank.trip_data import save_dataset


def test_counts():
    ds, truth = generate(SynthConfig(n_drivers=20, trips_per_driver=100, seed=7))
    assert len(ds) == 2000
    assert ds.n_drivers == 20
    assert all(len(idx) == 100 for idx in ds.driver_index.values())


def test_deterministic_file(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(generate(SynthConfig(n_drivers=4, trips_per_driver=20, seed=5))[0], a)
    save_dataset(generate(SynthConfig(n_drivers=4, trips_per_driver=20, seed=5))[0], b)
    assert a.read_bytes() == b.read_bytes()
    save_dataset(generate(SynthConfig(n_drivers=4, trips_per_driver=20, seed=6))[0], a)
    assert a.read_bytes() != b.read_bytes()


def test_noiseless_reconstruction():
    ds, truth = generate(SynthConfig(n_drivers=3, trips_per_driver=15, noise_sigma=0.0, seed=11))
    for i in range(len(ds)):
        k = truth.driver_ids.index(ds.driver_ids[ds.driver_codes[i]])
        expected = truth.performance(ds.env[i], ds.behavior[i], k)
        np.testing.assert_array_equal(ds.performance[i], expected)


def test_env_shift_lowers_raw_performance():
    ds, truth = generate(
        SynthConfig(n_drivers=4, trips_per_driver=200, env_shift_mode=True, seed=13)
    )
    assert np.all(truth.driver_skills == 0.0)
    q = ds.performance[:, 0]
    odd = [i for d in truth.driver_ids[1::2] for i in ds.driver_index[d]]
    even = [i for d in truth.driver_ids[0::2] for i in ds.driver_index[d]]
    assert q[odd].mean() - q[even].mean() < 0


def test_groundtruth_roundtrip(tmp_path):
    ds, truth = generate(SynthConfig(n_drivers=3, trips_per_driver=10, seed=17))
    path = tmp_path / "truth.json"
    truth.save(path)
    back = GroundTruth.load(path)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.normal(size=truth.config.d_env)
        a = rng.normal(size=truth.config.d_behavior)
        assert back.env_effect(s) == truth.env_effect(s)
        assert back.behavior_effect(a) == truth.behavior_effect(a)
        np.testing.assert_array_equal(back.performance(s, a, 1), truth.performance(s, a, 1))
    np.testing.assert_array_equal(back.driver_skills, truth.driver_skills)
    assert back.optimum_driver_id == truth.optimum_driver_id


def test_optimum_driver_geometry():
    ds, truth = generate(SynthConfig(n_drivers=6, trips_per_driver=5, seed=19))
    np.testing.assert_array_equal(truth.behavior_centers[-1], truth.optimum_behavior)
    for center in truth.behavior_centers[:-1]:
        assert np.linalg.norm(center - truth.optimum_behavior) == pytest.approx(BEHAVIOR_SPREAD)
    # behavior_effect peaks at the stored optimum
    assert truth.behavior_effect(truth.optimum_behavior) == 0.0
    assert truth.behavior_effect(truth.behavior_centers[0]) < 0.0


def test_skills_strict_total_order():
    _, truth = generate(SynthConfig(n_drivers=10, trips_per_driver=2, skill_spacing=0.25, seed=23))
    assert np.all(np.diff(truth.driver_skills) > 0)
    assert np.diff(truth.driver_skills)[0] == pytest.approx(0.25)


def test_interaction_term():
    ds, truth = generate(
        SynthConfig(n_drivers=3, trips_per_driver=5, noise_sigma=0.0,
                    interaction_scale=0.5, seed=29)
    )
    s, a, q = ds.env[0], ds.behavior[0], ds.performance[0]
    k = truth.driver_ids.index(ds.driver_ids[ds.driver_codes[0]])
    base = truth.env_effect(s) + truth.behavior_effect(a) + truth.driver_skills[k]
    with_cross = base + 0.5 * truth.env_effect(s) * truth.behavior_effect(a)
    assert q[0] == pytest.approx(with_cross)
    assert q[0] != pytest.approx(base)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_drivers=1),
        dict(trips_per_driver=0),
        dict(d_env=0),
        dict(d_behavior=0),
        dict(skill_spacing=0.0),
        dict(noise_sigma=-0.1),
    ],
)
def test_invalid_config(kwargs):
    with pytest.raises(InvalidConfig):
        SynthConfig(**kwargs)


def test_schema_is_complete():
    ds, _ = generate(SynthConfig(n_drivers=2, trips_per_driver=3, seed=1))
    schema = ds.schema
    assert schema.target_metric == "total_mpg"
    assert schema.d_env == 8 and schema.d_behavior == 6 and schema.d_performance == 2
    assert schema.metric_index == 0
