import os

import numpy as np
import pytest

from fleetrank import errors, models
from fleetrank.errors import DimensionMismatch
from fleetrank.models import (
    AdvantageModel,
    Regressor,
    TrainingParams,
    behavior_box_from,
    load_bundle,
    save_bundle,
    train_regressors,
)
from fleetrank.neural import Mlp, MlpConfig, TrainReport
from fleetrank.normalization import fit_stats
from fleetrank.placement import build_profiles
from fleetrank.synth import SynthConfig, generate
from tests.conftest import fit_one, make_dataset

SMALL = TrainingParams(epochs=60, batch_size=64, learning_rate=3e-3, hidden_widths=(16, 16, 16), seed=0)


def linear_dataset(n=300, d_env=3, d_behavior=2, seed=0, use_behavior=False, noise=0.0):
    """q depends linearly on s (and optionally on a), plus optional noise."""
    rng = np.random.default_rng(seed)
    env = rng.normal(size=(n, d_env))
    behavior = rng.normal(size=(n, d_behavior))
    w_env = rng.normal(size=(d_env, 2))
    q = env @ w_env
    if use_behavior:
        w_behavior = rng.normal(size=(d_behavior, 2))
        q = q + behavior @ w_behavior
    if noise:
        q = q + noise * rng.normal(size=q.shape)
    drivers = [f"d{i % 5}" for i in range(n)]
    return make_dataset(env, behavior, q, drivers)


def zero_behavior_pathway(baseline: Regressor) -> Regressor:
    """Behavior net with the baseline's weights and a dead behavior input block."""
    stats = baseline.stats
    config = MlpConfig(
        input_dim=stats.d_env + stats.d_behavior,
        hidden_widths=baseline.net.config.hidden_widths,
        output_dim=stats.d_performance,
        seed=baseline.net.config.seed,
    )
    first = np.hstack([baseline.net.weights[0],
                       np.zeros((baseline.net.weights[0].shape[0], stats.d_behavior))])
    weights = [first] + [w.copy() for w in baseline.net.weights[1:]]
    biases = [b.copy() for b in baseline.net.biases]
    return Regressor(net=Mlp(config, weights, biases), stats=stats)


def small_advantage_model(seed=0, trips=60, params=SMALL, **synth_kwargs):
    ds, truth = generate(SynthConfig(n_drivers=4, trips_per_driver=trips, seed=seed, **synth_kwargs))
    stats = fit_stats(ds)
    baseline, _ = fit_one(ds, stats, params, with_behavior=False)
    behavior_params = TrainingParams(**{**params.__dict__, "seed": params.seed + 1})
    behavior, _ = fit_one(ds, stats, behavior_params, with_behavior=True)
    model = AdvantageModel(baseline=baseline, behavior=behavior, metric_index=0,
                           behavior_box=behavior_box_from(ds, stats))
    return ds, truth, stats, model


def test_baseline_constant_target():
    ds = make_dataset(
        env=np.random.default_rng(0).normal(size=(80, 2)),
        behavior=np.zeros((80, 1)),
        performance=np.full((80, 1), 6.5),
        driver_ids=[f"d{i % 3}" for i in range(80)],
    )
    stats = fit_stats(ds)
    model, report = fit_one(ds, stats, SMALL, with_behavior=False)
    assert report.final_loss < 1e-4


def test_baseline_learns_linear_map():
    ds = linear_dataset(seed=1)
    stats = fit_stats(ds)
    model, report = fit_one(ds, stats, TrainingParams(
        epochs=100, batch_size=64, learning_rate=3e-3, hidden_widths=(32, 32, 32), seed=2),
        with_behavior=False)
    assert report.final_loss < 0.01
    assert len(report.epoch_losses) == 100


def test_behavior_beats_baseline_on_additive_data():
    ds, truth = generate(SynthConfig(n_drivers=4, trips_per_driver=100, noise_sigma=0.0, seed=3))
    stats = fit_stats(ds)
    _, base_report = fit_one(ds, stats, SMALL, with_behavior=False)
    _, behav_report = fit_one(ds, stats, SMALL, with_behavior=True)
    # the behavior effect is irreducible noise for the environment-only model
    assert behav_report.final_loss < base_report.final_loss


def test_behavior_no_worse_when_behavior_is_irrelevant():
    # a noise floor keeps both losses comparable; behavior inputs add no signal
    ds = linear_dataset(seed=4, use_behavior=False, noise=0.3)
    stats = fit_stats(ds)
    _, base_report = fit_one(ds, stats, SMALL, with_behavior=False)
    _, behav_report = fit_one(ds, stats, SMALL, with_behavior=True)
    assert behav_report.final_loss < 2 * base_report.final_loss


def test_advantage_zero_when_behavior_pathway_dead():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=30, seed=5))
    stats = fit_stats(ds)
    baseline, _ = fit_one(ds, stats, SMALL, with_behavior=False)
    behavior = zero_behavior_pathway(baseline)
    model = AdvantageModel(baseline=baseline, behavior=behavior, metric_index=0,
                           behavior_box=behavior_box_from(ds, stats))
    rng = np.random.default_rng(6)
    s = rng.normal(size=8)
    values = [model.advantage(s, rng.normal(size=6)) for _ in range(10)]
    # constant in behavior (bitwise) and numerically zero
    assert len(set(values)) == 1
    assert abs(values[0]) < 1e-12


def test_advantage_delta_cancels_baseline():
    _, _, _, model = small_advantage_model(seed=7)
    rng = np.random.default_rng(8)
    for _ in range(25):
        s = rng.normal(size=8)
        a1, a2 = rng.normal(size=6), rng.normal(size=6)
        q1 = float(model.behavior.predict(s, a1)[model.metric_index])
        q2 = float(model.behavior.predict(s, a2)[model.metric_index])
        delta = model.advantage_delta(s, a1, a2)
        assert delta == q1 - q2
        naive = model.advantage(s, a1) - model.advantage(s, a2)
        assert naive == pytest.approx(delta, abs=1e-9)


def test_advantage_uses_metric_index():
    _, _, stats, model = small_advantage_model(seed=9)
    rng = np.random.default_rng(10)
    s, a = rng.normal(size=8), rng.normal(size=6)
    for mi in (0, 1):
        m = AdvantageModel(baseline=model.baseline, behavior=model.behavior, metric_index=mi,
                           behavior_box=model.behavior_box)
        expected = float(m.behavior.predict(s, a)[mi]) - float(m.baseline.predict(s)[mi])
        assert m.advantage(s, a) == expected


def test_metric_index_bounds():
    _, _, _, model = small_advantage_model(seed=11)
    with pytest.raises(DimensionMismatch):
        AdvantageModel(baseline=model.baseline, behavior=model.behavior, metric_index=2,
                       behavior_box=model.behavior_box)


def test_fingerprint_mismatch_rejected():
    ds1, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=25, seed=12))
    ds2, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=25, seed=13))
    stats1, stats2 = fit_stats(ds1), fit_stats(ds2)
    baseline, _ = fit_one(ds1, stats1, SMALL, with_behavior=False)
    behavior, _ = fit_one(ds2, stats2, SMALL, with_behavior=True)
    with pytest.raises(DimensionMismatch):
        AdvantageModel(baseline=baseline, behavior=behavior, metric_index=0,
                       behavior_box=behavior_box_from(ds1, stats1))


def test_regressor_role_follows_input_width():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=5, seed=14))
    stats = fit_stats(ds)  # 8 env, 6 behavior and 2 performance dims

    def regressor(width):
        return Regressor(net=Mlp.init(MlpConfig(width, (4, 4, 4), 2)), stats=stats)

    baseline, behavior = regressor(8), regressor(14)
    assert not baseline.reads_behavior and behavior.reads_behavior
    with pytest.raises(DimensionMismatch, match="input width 9 is neither"):
        regressor(9)
    box = behavior_box_from(ds, stats)
    AdvantageModel(baseline=baseline, behavior=behavior, metric_index=0, behavior_box=box)
    for pair in ((behavior, baseline), (baseline, baseline), (behavior, behavior)):
        with pytest.raises(DimensionMismatch, match="net has input width"):
            AdvantageModel(baseline=pair[0], behavior=pair[1], metric_index=0, behavior_box=box)


def test_baseline_value_zero_net_and_purity():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=20, seed=14))
    stats = fit_stats(ds)
    config = MlpConfig(input_dim=8, hidden_widths=(4, 4, 4), output_dim=2, seed=0)
    zero_net = Mlp(config,
                   [np.zeros((4, 8)), np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((2, 4))],
                   [np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(2)])
    model = Regressor(net=zero_net, stats=stats)
    s = np.ones(8)
    np.testing.assert_array_equal(model.predict(s), np.zeros(2))
    np.testing.assert_array_equal(model.predict(s), model.predict(s))


def test_bundle_roundtrip_bitwise(tmp_path):
    ds, _, stats, model = small_advantage_model(seed=15)
    saved = save_bundle(tmp_path / "bundle", model, ds, build_profiles(ds, stats),
                        data_sha256="ab" * 32, baseline_report=TrainReport([0.5, 0.1]),
                        behavior_report=TrainReport([0.25]), params=SMALL)
    assert sorted(saved) == sorted(p.name for p in (tmp_path / "bundle").iterdir())
    assert (tmp_path / "bundle" / "baseline_curve.csv").read_bytes() == (
        b"epoch,mse\r\n1,0.5\r\n2,0.1\r\n")
    assert (tmp_path / "bundle" / "behavior_curve.csv").read_bytes() == b"epoch,mse\r\n1,0.25\r\n"
    back, schema, meta = load_bundle(tmp_path / "bundle")
    assert schema == ds.schema
    assert meta["stats_fingerprint"] == stats.fingerprint()
    rng = np.random.default_rng(16)
    for _ in range(20):
        s, a = rng.normal(size=8), rng.normal(size=6)
        assert back.advantage(s, a) == model.advantage(s, a)
    np.testing.assert_array_equal(back.behavior_box, model.behavior_box)


def test_additive_residual_tracks_behavior_effect():
    params = TrainingParams(epochs=100, batch_size=64, learning_rate=3e-3,
                            hidden_widths=(32, 32, 32), seed=0)
    ds, truth, stats, model = small_advantage_model(seed=17, trips=120, params=params)
    q_std = stats.performance_std(0)
    g = np.array([truth.behavior_effect(a) for a in ds.behavior]) / q_std
    s_norm = stats.normalize_env(ds.env)
    a_norm = stats.normalize_behavior(ds.behavior)
    adv = np.array([
        model.advantage_normalized(s_norm[i], a_norm[i]) for i in range(len(ds))
    ])
    residual = adv - (g - g.mean())
    assert abs(residual.mean()) < 0.1


def test_behavior_box():
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=40, seed=18))
    stats = fit_stats(ds)
    box = behavior_box_from(ds, stats)
    a = stats.normalize_behavior(ds.behavior)
    lo, hi = a.min(axis=0), a.max(axis=0)
    span = hi - lo
    np.testing.assert_allclose(box[:, 0], lo - 0.1 * span)
    np.testing.assert_allclose(box[:, 1], hi + 0.1 * span)
    assert np.all(box[:, 0] < box[:, 1])


def test_behavior_box_degenerate_dim():
    env = np.random.default_rng(19).normal(size=(30, 2))
    behavior = np.hstack([np.full((30, 1), 3.0), np.random.default_rng(20).normal(size=(30, 1))])
    perf = np.random.default_rng(21).normal(size=(30, 1))
    ds = make_dataset(env, behavior, perf, [f"d{i % 2}" for i in range(30)])
    stats = fit_stats(ds)
    box = behavior_box_from(ds, stats)
    assert box[0, 0] < box[0, 1]  # hairline box around the constant value
    assert box[0, 1] - box[0, 0] == pytest.approx(2e-6)



def assert_single_fits(ds, stats, plan, fits):
    """``fits`` holds the bits and learning curves of fitting each entry of ``plan`` alone."""
    assert len(fits.regressors) == len(fits.reports) == len(plan)
    for fitted, report, (params, with_behavior) in zip(fits.regressors, fits.reports, plan):
        single, single_report = fit_one(ds, stats, params, with_behavior=with_behavior)
        assert report.epoch_losses == single_report.epoch_losses
        assert fitted.net.config == single.net.config
        for a, b in zip(fitted.net.weights + fitted.net.biases, single.net.weights + single.net.biases):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("reason", [None, "forced"], ids=["forked", "in-parent"])
def test_train_regressors_gives_the_bits_of_two_single_fits(monkeypatch, reason):
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=40, seed=2))
    stats = fit_stats(ds)
    behavior_params = TrainingParams(**{**SMALL.__dict__, "epochs": 5, "seed": 1})
    baseline_params = TrainingParams(**{**SMALL.__dict__, "epochs": 5})
    monkeypatch.setattr(models, "why_one_process", lambda: reason)
    plan = [(behavior_params, True), (baseline_params, False)]
    fits = train_regressors(ds, stats, plan)
    assert (fits.processes, fits.one_process_because) == ((2, None) if reason is None else (1, reason))
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert_single_fits(ds, stats, plan, fits)


@pytest.mark.parametrize("reason", [None, "forced"], ids=["forked", "in-parent"])
@pytest.mark.parametrize("length", [3, 4])
def test_train_regressors_runs_a_longer_list_in_order(monkeypatch, reason, length):
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=40, seed=2))
    stats = fit_stats(ds)
    plan = [(TrainingParams(**{**SMALL.__dict__, "epochs": 3, "seed": seed}), with_behavior)
            for seed, with_behavior in ((1, True), (0, False), (2, False), (3, True))][:length]
    monkeypatch.setattr(models, "why_one_process", lambda: reason)
    fits = train_regressors(ds, stats, plan)
    assert (fits.processes, fits.one_process_because) == ((2, None) if reason is None else (1, reason))
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert_single_fits(ds, stats, plan, fits)

    one = train_regressors(ds, stats, plan[:1])  # one fit forks nothing
    assert (one.processes, one.one_process_because) == (1, "one fit")

    # the fits at index 2 and, in a 4-fit list, 3 fail: the first failing fit's error is raised
    real = models.train

    def train(net, inputs, targets, **kwargs):
        if kwargs["seed"] >= 2:
            raise errors.NonFiniteLoss(kwargs["seed"])
        return real(net, inputs, targets, **kwargs)

    monkeypatch.setattr(models, "train", train)
    with pytest.raises(errors.NonFiniteLoss, match="at epoch 2$"):
        train_regressors(ds, stats, plan)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_why_one_process_names_the_unmet_condition(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "listdir", lambda path: ["1"] if path == "/proc/self/task" else [])
    assert models.why_one_process() is None
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"])
    assert models.why_one_process() == "2 OS threads"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert models.why_one_process() == "one usable core"
    monkeypatch.delattr(os, "fork")
    assert models.why_one_process() == "os.fork is unavailable"


def test_train_regressors_fits_in_this_process_when_fork_fails(monkeypatch):
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=20, seed=2))
    monkeypatch.setattr(models, "why_one_process", lambda: None)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    params = TrainingParams(epochs=2, hidden_widths=(4, 4, 4))
    fits = train_regressors(ds, fit_stats(ds), [(params, True), (params, False)])
    assert fits.processes == 1
    assert fits.one_process_because == "fork failed: [Errno 11] Resource temporarily unavailable"
    assert [len(report.epoch_losses) for report in fits.reports] == [2, 2]
