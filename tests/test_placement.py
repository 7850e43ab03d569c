import numpy as np
import pytest

from fleetrank import placement
from fleetrank.cmaes import default_population, maximize
from fleetrank.errors import DimensionMismatch, EmptyProfiles, InvalidConfig
from fleetrank.models import (
    AdvantageModel,
    Regressor,
    TrainingParams,
    behavior_box_from,
    train_regressor,
)
from fleetrank.neural import Mlp, MlpConfig
from fleetrank.normalization import NormalizationStats, fit_stats
from fleetrank.placement import (
    DriverProfile,
    build_profiles,
    load_profiles,
    match_driver,
    optimize_behavior,
    place,
    save_profiles,
)
from fleetrank.synth import SynthConfig, generate
from tests.conftest import make_dataset


def identity_stats(d_env, d_behavior, d_performance):
    dim = d_env + d_behavior + d_performance
    return NormalizationStats(
        mean=np.zeros(dim),
        std=np.ones(dim),
        degenerate_dims=frozenset(),
        d_env=d_env,
        d_behavior=d_behavior,
        d_performance=d_performance,
    )


def cone_peak_model(target, d_env=2, d_performance=1):
    """Advantage model whose surface is -sum_i |a_i - t_i|, peaking at t.

    Built by direct weight assembly: the first layer splits each behavior
    coordinate into relu(a - t) and relu(t - a), the next two layers pass
    those non-negative values through, and the output sums them negated.
    The environment pathway carries zero weight throughout.
    """
    d_a = len(target)
    width = 2 * d_a
    stats = identity_stats(d_env, d_a, d_performance)

    w1 = np.zeros((width, d_env + d_a))
    b1 = np.zeros(width)
    for j in range(d_a):
        w1[2 * j, d_env + j] = 1.0
        b1[2 * j] = -target[j]
        w1[2 * j + 1, d_env + j] = -1.0
        b1[2 * j + 1] = target[j]
    eye = np.eye(width)
    w_out = np.zeros((d_performance, width))
    w_out[0] = -1.0
    behavior_net = Mlp(
        MlpConfig(input_dim=d_env + d_a, hidden_widths=(width, width, width),
                  output_dim=d_performance, seed=0),
        [w1, eye.copy(), eye.copy(), w_out],
        [b1, np.zeros(width), np.zeros(width), np.zeros(d_performance)],
    )
    zeros = [np.zeros((width, d_env)), np.zeros((width, width)), np.zeros((width, width)),
             np.zeros((d_performance, width))]
    baseline_net = Mlp(
        MlpConfig(input_dim=d_env, hidden_widths=(width, width, width),
                  output_dim=d_performance, seed=0),
        zeros,
        [np.zeros(width), np.zeros(width), np.zeros(width), np.zeros(d_performance)],
    )
    box = np.stack([np.full(d_a, -1.5), np.full(d_a, 1.5)], axis=1)
    return AdvantageModel(
        baseline=Regressor(net=baseline_net, stats=stats),
        behavior=Regressor(net=behavior_net, stats=stats),
        metric_index=0,
        behavior_box=box,
    )


def test_build_profiles_hand_mean():
    stats = identity_stats(1, 2, 1)
    ds = make_dataset(
        env=[[0.0], [0.0], [0.0]],
        behavior=[[1.0, 0.0], [3.0, 0.0], [5.0, 5.0]],
        performance=[[1.0], [1.0], [1.0]],
        driver_ids=["d1", "d1", "d2"],
    )
    profiles = build_profiles(ds, stats)
    assert [p.driver_id for p in profiles] == ["d1", "d2"]
    np.testing.assert_array_equal(profiles[0].mean_behavior, [2.0, 0.0])
    assert profiles[0].trip_count == 2
    assert profiles[1].trip_count == 1


def test_profile_count_and_recovery():
    ds, truth = generate(SynthConfig(n_drivers=6, trips_per_driver=200, seed=3))
    stats = fit_stats(ds)
    profiles = build_profiles(ds, stats)
    assert len(profiles) == 6
    for p, center in zip(profiles, truth.behavior_centers):
        center_norm = stats.normalize_behavior(center)
        assert np.linalg.norm(p.mean_behavior - center_norm) < 0.2


def test_build_profiles_match_per_driver_reference():
    # drivers interleaved in random order; each mean must sum the driver's
    # rows in dataset order, exactly as a per-driver gather does
    rng = np.random.default_rng(11)
    n = 6000
    drivers = [f"d{k}" for k in rng.integers(0, 9, size=n)]
    behavior = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    ds = make_dataset(rng.normal(size=(n, 2)), behavior, rng.normal(size=(n, 1)), drivers)
    stats = fit_stats(ds)
    behaviors = stats.normalize_behavior(ds.behavior)
    for profile in build_profiles(ds, stats):
        rows = [i for i, d in enumerate(drivers) if d == profile.driver_id]
        expected = behaviors[rows].mean(axis=0)
        assert profile.mean_behavior.tobytes() == expected.tobytes()
        assert profile.trip_count == len(rows)


def test_saved_profiles_load_bitwise(tmp_path):
    means = [np.array([-0.0, 5e-324, 1.7976931348623157e308]),
             np.array([0.1, -1 / 3, 2.0 ** -1074])]
    profiles = [DriverProfile("a", means[0], 1), DriverProfile("b,\"c\"", means[1], 250)]
    path = tmp_path / "profiles.json"
    save_profiles(path, profiles, data_sha256="ab" * 32, skipped_rows=3, stats_fingerprint="f" * 16)
    stored = load_profiles(path, 3, "f" * 16)
    assert (stored.data_sha256, stored.skipped_rows) == ("ab" * 32, 3)
    assert [(p.driver_id, p.trip_count) for p in stored.profiles] == [("a", 1), ("b,\"c\"", 250)]
    for loaded, mean in zip(stored.profiles, means):
        assert loaded.mean_behavior.dtype == mean.dtype
        assert loaded.mean_behavior.tobytes() == mean.tobytes()  # -0.0 and subnormals included


def test_match_driver_hand_case():
    profiles = [
        DriverProfile("d1", np.array([0.0, 0.0]), 1),
        DriverProfile("d2", np.array([1.0, 1.0]), 1),
    ]
    driver, dist, ranked = match_driver(profiles, np.array([0.1, 0.0]))
    assert driver == "d1"
    assert dist == pytest.approx(0.1)
    assert [r[0] for r in ranked] == ["d1", "d2"]
    assert ranked[1][1] == pytest.approx(np.sqrt(0.81 + 1.0))


def test_match_driver_exact_and_ties():
    profiles = [
        DriverProfile("zeta", np.array([1.0, 0.0]), 1),
        DriverProfile("alpha", np.array([-1.0, 0.0]), 1),
    ]
    driver, dist, _ = match_driver(profiles, np.array([0.0, 0.0]))
    assert driver == "alpha"  # equidistant, lexicographic tie-break
    driver, dist, _ = match_driver(profiles, np.array([1.0, 0.0]))
    assert (driver, dist) == ("zeta", 0.0)


def test_match_driver_permutation_invariant():
    rng = np.random.default_rng(4)
    profiles = [DriverProfile(f"d{i}", rng.normal(size=3), 1) for i in range(9)]
    target = rng.normal(size=3)
    base = match_driver(profiles, target)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(9)
        shuffled = match_driver([profiles[i] for i in order], target)
        assert shuffled[0] == base[0]
        assert shuffled[2] == base[2]


def test_match_driver_errors():
    with pytest.raises(EmptyProfiles):
        match_driver([], np.zeros(2))
    with pytest.raises(DimensionMismatch):
        match_driver([DriverProfile("d1", np.zeros(3), 1)], np.zeros(2))


def test_optimizer_finds_known_peak():
    target = np.array([0.4, -0.7, 0.2])
    model = cone_peak_model(target)
    a_star, value, result, consistent = optimize_behavior(
        model, np.zeros(2), seed=1, sigma0=0.5, max_generations=400, tolerance=1e-12
    )
    np.testing.assert_allclose(a_star, target, atol=1e-2)
    assert value == pytest.approx(0.0, abs=1e-2)
    assert result.best_fitness == value
    assert consistent


def test_optimizer_constant_surface_stagnates():
    model = cone_peak_model(np.array([0.0, 0.0]))
    # zero the output layer: the surface is constant zero everywhere
    model.behavior.net.weights[3][:] = 0.0
    a_star, value, result, consistent = optimize_behavior(model, np.zeros(2), seed=2, max_generations=400)
    assert value == 0.0
    assert result.termination == "stagnation"
    assert consistent


def test_optimizer_respects_behavior_box():
    target = np.array([2.5, 2.5])  # outside the [-1.5, 1.5] box
    model = cone_peak_model(target)
    a_star, value, result, consistent = optimize_behavior(model, np.zeros(2), seed=3, sigma0=0.5,
                                              max_generations=300)
    assert np.all(a_star <= 1.5 + 1e-12)
    np.testing.assert_allclose(a_star, [1.5, 1.5], atol=1e-3)
    assert consistent


def test_optimizer_fixed_template():
    target = np.array([0.4, -0.7, 0.2, 0.9])
    model = cone_peak_model(target)
    template = np.array([0.0, -0.1, 0.0, 0.3])
    a_star, value, result, consistent = optimize_behavior(
        model, np.zeros(2), seed=4, template_norm=template, free_indices=[0, 2],
        sigma0=0.5, max_generations=400, tolerance=1e-12,
    )
    # fixed dimensions keep the template values, free ones reach the target
    assert a_star[1] == template[1] and a_star[3] == template[3]
    np.testing.assert_allclose(a_star[[0, 2]], target[[0, 2]], atol=1e-2)
    # fixed dims each sit 0.6 from their target, free dims contribute ~0
    assert value == pytest.approx(-1.2, abs=0.05)
    assert consistent


def test_optimizer_requires_box():
    model = cone_peak_model(np.array([0.0, 0.0]))
    model.behavior_box = None
    with pytest.raises(InvalidConfig):
        optimize_behavior(model, np.zeros(2), seed=0)


def test_two_dim_search_matches_grid_oracle():
    ds, truth = generate(SynthConfig(n_drivers=5, trips_per_driver=100, seed=5))
    stats = fit_stats(ds)
    params = TrainingParams(epochs=40, batch_size=64, hidden_widths=(16, 16, 16), seed=6)
    baseline, _ = train_regressor(ds, stats, params, with_behavior=False)
    behavior, _ = train_regressor(ds, stats, TrainingParams(**{**params.__dict__, "seed": 7}),
                                  with_behavior=True)
    model = AdvantageModel(baseline=baseline, behavior=behavior, metric_index=0,
                           behavior_box=behavior_box_from(ds, stats))
    env = np.zeros(8)
    template = np.zeros(6)
    a_star, value, _, consistent = optimize_behavior(
        model, env, seed=8, template_norm=template, free_indices=[0, 1],
        sigma0=0.8, population=24, restarts=1, tolerance=1e-12, max_generations=300,
    )
    r = 101
    box = model.behavior_box
    g0 = np.linspace(box[0, 0], box[0, 1], r)
    g1 = np.linspace(box[1, 0], box[1, 1], r)
    cand = np.tile(template, (r * r, 1))
    vv0, vv1 = np.meshgrid(g0, g1, indexing="ij")
    cand[:, 0] = vv0.ravel()
    cand[:, 1] = vv1.ravel()
    vals = model.advantage_normalized(stats.normalize_env(env), cand)
    k = int(np.argmax(vals))
    gi, gj = divmod(k, r)
    cell = max(g0[1] - g0[0], g1[1] - g1[0])
    assert abs(a_star[0] - g0[gi]) <= cell + 1e-12
    assert abs(a_star[1] - g1[gj]) <= cell + 1e-12
    assert abs(value - float(vals[k])) < 0.01
    assert consistent


def test_optimum_dominates_every_evaluated_candidate(monkeypatch):
    # wrap the search's objective to see every generation it scores
    batches, scores = [], []

    def recording_maximize(objective, config):
        def recorded(x):
            values = objective(x)
            batches.append(np.array(x))
            scores.append(np.array(values))
            return values

        return maximize(recorded, config)

    monkeypatch.setattr(placement, "maximize", recording_maximize)
    target = np.array([0.4, -0.7, 0.2])
    model = cone_peak_model(target)
    a_star, value, result, consistent = optimize_behavior(
        model, np.zeros(2), seed=6, sigma0=0.5, max_generations=200, tolerance=1e-12
    )
    assert len(batches) == result.generations_used
    evaluated = np.vstack(batches)
    assert evaluated.shape == (result.generations_used * default_population(3), 3)
    assert value == np.concatenate(scores).max()
    revalued = model.advantage_normalized(np.zeros(2), evaluated)
    assert value >= revalued.max() - 1e-9
    assert consistent


def test_argmax_inconsistency_is_reported():
    # a baseline of 1e17 swallows every behavior difference in q - baseline
    # (its spacing there is 16), so the tied advantages' argmax is the first
    # candidate, not the behavior model's best
    model = cone_peak_model(np.array([0.4, -0.7]))
    model.baseline.net.biases[3] = np.array([1e17])
    *_, consistent = optimize_behavior(model, np.zeros(2), seed=1, max_generations=30)
    assert not consistent
    result = place(model, [DriverProfile("only", np.zeros(2), 1)], np.zeros(2), seed=1,
                   max_generations=30)
    assert result.argmax_consistent is False


def test_place_single_driver_fleet():
    model = cone_peak_model(np.array([0.3, 0.3]))
    profiles = [DriverProfile("only", np.array([-1.0, 1.0]), 5)]
    result = place(model, profiles, np.zeros(2), seed=9)
    assert result.matched_driver == "only"
    assert result.runner_ups == []
    assert result.argmax_consistent


def test_place_reports_fields():
    target = np.array([0.25, -0.5])
    model = cone_peak_model(target)
    profiles = [
        DriverProfile("a", np.array([0.25, -0.5]), 3),
        DriverProfile("b", np.array([1.2, 1.2]), 3),
        DriverProfile("c", np.array([-1.2, 0.0]), 3),
    ]
    result = place(model, profiles, np.zeros(2), seed=10, top_m=2)
    assert result.matched_driver == "a"
    assert result.match_distance < 0.05
    assert [r[0] for r in result.runner_ups] == ["c", "b"] or len(result.runner_ups) == 2
    assert result.match_distance <= min(d for _, d in result.runner_ups)
    assert result.argmax_consistent
    d = result.to_dict()
    assert set(d) >= {"env", "optimal_behavior_normalized", "optimal_behavior_raw",
                      "optimal_advantage", "matched_driver", "match_distance", "runner_ups"}


def test_place_baseline_shift_invariance():
    ds, truth = generate(SynthConfig(n_drivers=5, trips_per_driver=80, seed=11))
    stats = fit_stats(ds)
    params = TrainingParams(epochs=30, batch_size=64, hidden_widths=(16, 16, 16), seed=12)
    baseline, _ = train_regressor(ds, stats, params, with_behavior=False)
    behavior, _ = train_regressor(ds, stats, TrainingParams(**{**params.__dict__, "seed": 13}),
                                  with_behavior=True)
    box = behavior_box_from(ds, stats)
    model = AdvantageModel(baseline=baseline, behavior=behavior, metric_index=0, behavior_box=box)
    profiles = build_profiles(ds, stats)
    env = np.full(8, 0.25)
    first = place(model, profiles, env, seed=14)

    shifted_baseline = Regressor(net=baseline.net.copy(), stats=stats)
    shifted_baseline.net.biases[3] = shifted_baseline.net.biases[3] + 2.5
    shifted = AdvantageModel(baseline=shifted_baseline, behavior=behavior, metric_index=0,
                             behavior_box=box)
    second = place(shifted, profiles, env, seed=14)

    np.testing.assert_array_equal(first.optimal_behavior, second.optimal_behavior)
    assert first.matched_driver == second.matched_driver
    assert second.optimal_advantage == pytest.approx(first.optimal_advantage - 2.5, abs=1e-9)
