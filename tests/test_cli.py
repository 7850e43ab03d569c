import csv
import errno
import hashlib
import inspect
import io
import json
import math
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fleetrank
from fleetrank import assessment, cli, errors, models, neural
from fleetrank.atomic import atomic_open
from fleetrank.cli import build_parser, main
from fleetrank.models import DRIVERS_FILE, TOOL_VERSION, TRIPS_FILE, load_bundle, recorded_profiles
from fleetrank.neural import BLOCK_ROWS
from fleetrank.placement import build_profiles
from fleetrank.synth import SynthConfig, generate
from fleetrank.trip_data import load_dataset


def run(*argv):
    code = main(list(argv))
    assert threading.active_count() == 1  # no thread outlives a command
    if argv[0] == "train":
        with pytest.raises(ChildProcessError):  # no child process is left, not even a zombie
            os.waitpid(-1, os.WNOHANG)
    return code


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth + train pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    bundle = root / "bundle"
    assert run("synth", "--drivers", "4", "--trips", "40", "--seed", "3",
               "--out", str(data)) == 0
    assert run("train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.json"),
               "--epochs", "15", "--hidden", "8,8,8", "--seed", "4", "--out", str(bundle)) == 0
    return data, bundle


def test_synth_outputs(tmp_path):
    out = tmp_path / "s"
    assert run("synth", "--drivers", "3", "--trips", "5", "--seed", "1", "--out", str(out)) == 0
    rows = (out / "data.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 15
    assert (out / "schema.json").exists()
    assert (out / "groundtruth.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 1
    assert "duration_s" in manifest


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("synth", "--drivers", "3", "--trips", "5", "--seed", "9", "--out", str(a))
    run("synth", "--drivers", "3", "--trips", "5", "--seed", "9", "--out", str(b))
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "groundtruth.json").read_bytes() == (b / "groundtruth.json").read_bytes()


def test_synth_rejects_single_driver(tmp_path, capsys):
    code = run("synth", "--drivers", "1", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "2 drivers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "place"])
def test_negative_seed_is_a_usage_error(pipeline, tmp_path, capsys, command):
    # numpy's generators take no seed below 0; it used to end in a traceback
    _, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    flags = ("--bundle", str(bundle), "--env", str(env)) if command == "place" else ()
    out = tmp_path / "out"
    assert run(command, *flags, "--seed", "-1", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_train_defaults_to_100_epochs():
    parser = build_parser()
    args = parser.parse_args(["train", "--data", "d", "--schema", "s"])
    assert args.epochs == 100
    assert args.batch == 128
    assert args.lr == pytest.approx(1e-3)


def test_train_outputs(pipeline):
    data, bundle = pipeline
    names = ["baseline.json", "behavior.json", "stats.json", "meta.json", "trips.npy",
             "drivers.npy", "baseline_curve.csv", "behavior_curve.csv"]
    assert sorted(p.name for p in bundle.iterdir()) == sorted([*names, "manifest.json"])
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["outputs"] == names  # save_bundle's return: it writes every bundle file
    assert manifest["data_sha256"] == hashlib.sha256((data / "data.csv").read_bytes()).hexdigest()
    reason = models.why_one_process()
    assert (manifest["fit_processes"], manifest["fit_in_one_process_because"]) == (
        (2, None) if reason is None else (1, reason))
    with (bundle / "baseline_curve.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["epoch", "mse"]
    assert len(rows) == 1 + 15
    # each fact once: the target metric is in the schema, the seeds in the nets' configs
    # and the losses in the curves
    meta = json.loads((bundle / "meta.json").read_text())
    assert list(meta) == ["version", "schema", "metric_index", "stats_fingerprint",
                          "behavior_box", "training", "data_sha256", "skipped_rows", "driver_ids"]
    stats = json.loads((bundle / "stats.json").read_text())
    assert list(stats) == ["mean", "std", "d_env", "d_behavior", "d_performance"]
    assert meta["training"]["epochs"] == 15
    behavior = json.loads((bundle / "behavior.json").read_text())
    assert behavior["config"]["seed"] == 5  # baseline seed + 1
    assert (meta["data_sha256"], meta["skipped_rows"]) == (manifest["data_sha256"], 0)
    assert meta["driver_ids"] == ["driver_00", "driver_01", "driver_02", "driver_03"]


def test_rank_outputs(pipeline, tmp_path):
    data, bundle = pipeline
    out = tmp_path / "rank"
    assert run("rank", "--data", str(data / "data.csv"), "--bundle", str(bundle),
               "--out", str(out)) == 0
    text = (out / "ranking.txt").read_text().splitlines()
    assert len(text) == 1 + 4  # header + one line per driver
    with (out / "ranking.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 4
    ranks = [int(r[0]) for r in rows[1:]]
    assert ranks == [1, 2, 3, 4]


def test_rank_raw_units_preserves_order(pipeline, tmp_path):
    data, bundle = pipeline
    a, b = tmp_path / "n", tmp_path / "r"
    run("rank", "--data", str(data / "data.csv"), "--bundle", str(bundle), "--out", str(a))
    run("rank", "--data", str(data / "data.csv"), "--bundle", str(bundle), "--out", str(b),
        "--raw-units")
    with (a / "ranking.csv").open() as f:
        norm = list(csv.reader(f))[1:]
    with (b / "ranking.csv").open() as f:
        raw = list(csv.reader(f))[1:]
    assert [r[1] for r in norm] == [r[1] for r in raw]
    model, _, _ = load_bundle(bundle)
    factor = model.stats.performance_std(model.metric_index)
    for rn, rr in zip(norm, raw):
        assert float(rr[2]) == pytest.approx(float(rn[2]) * factor, rel=1e-9)


def test_atomic_open_replaces_only_a_complete_file(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as handle:
            handle.write("half of a new")
            raise RuntimeError("writer died")
    assert path.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_open(path) as handle:
        handle.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(RuntimeError):
        with atomic_open(path, binary=True) as handle:
            handle.write(b"\x93NUMPY half")
            raise RuntimeError("writer died")
    assert path.read_bytes() == b"a,b\r\n"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_open(path, binary=True) as handle:
        handle.write(b"\x00\r\n\xff")
    assert path.read_bytes() == b"\x00\r\n\xff"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_rerun_leaves_previous_ranking_intact(pipeline, tmp_path, monkeypatch):
    data, bundle = pipeline
    out = tmp_path / "rank"
    argv = ("rank", "--data", str(data / "data.csv"), "--bundle", str(bundle), "--out", str(out))
    assert run(*argv) == 0
    before = (out / "ranking.csv").read_bytes()
    rows = assessment.ranking_rows

    def dies_after_one_row(ranking):
        yield next(iter(rows(ranking)))
        raise RuntimeError("writer died")

    monkeypatch.setattr(assessment, "ranking_rows", dies_after_one_row)
    with pytest.raises(RuntimeError):
        run(*argv)
    assert (out / "ranking.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_place_missing_bundle(tmp_path, capsys):
    env = tmp_path / "env.json"
    env.write_text("[0, 0, 0, 0, 0, 0, 0, 0]")
    code = run("place", "--bundle", str(tmp_path / "nope"), "--data", "x.csv",
               "--env", str(env), "--out", str(tmp_path / "o"))
    assert code == 2


def test_place_end_to_end(pipeline, tmp_path):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    out = tmp_path / "placed"
    assert run("place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
               "--env", str(env), "--seed", "5", "--max-generations", "60",
               "--out", str(out)) == 0
    result = json.loads((out / "placement.json").read_text())
    assert result["matched_driver"].startswith("driver_")
    assert len(result["optimal_behavior_normalized"]) == 6
    assert len(result["runner_ups"]) <= 5
    assert result["argmax_consistent"] is True
    np.testing.assert_array_equal(
        result["optimal_behavior_raw_rounded"],
        np.round(result["optimal_behavior_raw"]),
    )
    with (out / "search_history.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["generation", "best_advantage"]
    assert len(rows) == 1 + result["generations_used"]
    best = [float(r[1]) for r in rows[1:]]
    assert best[-1] == result["optimal_advantage"]
    assert all(b >= a - 1e-15 for a, b in zip(best, best[1:]))  # running max


def test_place_deterministic(pipeline, tmp_path):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.1] * 8))
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert run("place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
                   "--env", str(env), "--seed", "7", "--max-generations", "60",
                   "--out", str(out)) == 0
        outs.append((out / "placement.json").read_bytes())
    assert outs[0] == outs[1]


def test_place_with_template(pipeline, tmp_path):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    out = tmp_path / "constrained"
    assert run("place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
               "--env", str(env), "--fix-template", str(template),
               "--free", "beh_00,beh_01", "--normalized", "--seed", "8",
               "--max-generations", "60", "--out", str(out)) == 0
    result = json.loads((out / "placement.json").read_text())
    behavior = result["optimal_behavior_normalized"]
    assert behavior[2:] == [0.0, 0.0, 0.0, 0.0]  # fixed at the template


def test_place_free_requires_template(pipeline, tmp_path, capsys):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    code = run("place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
               "--env", str(env), "--free", "beh_00", "--out", str(tmp_path / "o"))
    assert code == 2


def test_place_unknown_dimension(pipeline, tmp_path):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    code = run("place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
               "--env", str(env), "--fix-template", str(template),
               "--free", "no_such_dim", "--out", str(tmp_path / "o"))
    assert code == 2


def test_surface_grid(pipeline, tmp_path):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    out = tmp_path / "surf"
    assert run("surface", "--bundle", str(bundle), "--env", str(env),
               "--template", str(template), "--free", "beh_00,beh_01",
               "--resolution", "21", "--normalized", "--out", str(out)) == 0
    with (out / "surface.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["beh_00", "beh_01", "advantage"]
    # every row is the grid point and the model's advantage there, bit for bit
    model, _, _ = load_bundle(bundle)
    box = model.behavior_box
    candidates = np.zeros((21 * 21, 6))
    candidates[:, 0] = np.repeat(np.linspace(box[0, 0], box[0, 1], 21), 21)
    candidates[:, 1] = np.tile(np.linspace(box[1, 0], box[1, 1], 21), 21)
    values = model.advantage_normalized(np.zeros(8), candidates)
    assert rows[1:] == [[repr(float(x_i)), repr(float(x_j)), repr(float(value))]
                        for x_i, x_j, value in zip(candidates[:, 0], candidates[:, 1], values)]


def test_surface_bytes_are_the_csv_rendering(pipeline, tmp_path):
    # 50 x 50 points is more than one block of the behavior net's forward pass
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.3, -0.2, 0.0, 0.1, 0.5, -0.4, 0.2, 0.0]))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.1, 0.0, -0.3, 0.2, 0.0, 0.4]))
    out = tmp_path / "surf"
    assert run("surface", "--bundle", str(bundle), "--env", str(env),
               "--template", str(template), "--free", "beh_03,beh_01",
               "--resolution", "50", "--normalized", "--out", str(out)) == 0
    model, _, _ = load_bundle(bundle)
    box = model.behavior_box
    grid_i = np.linspace(box[3, 0], box[3, 1], 50)
    grid_j = np.linspace(box[1, 0], box[1, 1], 50)
    candidates = np.tile([0.1, 0.0, -0.3, 0.2, 0.0, 0.4], (50 * 50, 1))
    candidates[:, 3] = np.repeat(grid_i, 50)
    candidates[:, 1] = np.tile(grid_j, 50)
    values = model.advantage_normalized(np.array(json.loads(env.read_text())), candidates)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["beh_03", "beh_01", "advantage"])
    writer.writerows(zip(candidates[:, 3].tolist(), candidates[:, 1].tolist(), values.tolist()))
    assert (out / "surface.csv").read_bytes() == expected.getvalue().encode("utf-8")


def test_surface_matches_constrained_place(tmp_path):
    # a hand-assembled bundle with a sharp known peak makes the
    # grid-vs-optimizer position agreement unambiguous
    from fleetrank.models import TrainingParams, save_bundle
    from fleetrank.neural import TrainReport
    from fleetrank.trip_data import DatasetSchema, file_sha256
    from tests.test_placement import cone_peak_model

    target = np.array([0.35, -0.6])
    model = cone_peak_model(target)
    schema = DatasetSchema(
        env_columns=("e0", "e1"),
        behavior_columns=("overspeed", "overrpm"),
        performance_columns=("total_mpg",),
    )
    data = tmp_path / "trips.csv"
    data.write_text(
        "trip_id,driver_id,e0,e1,overspeed,overrpm,total_mpg\n"
        "t1,d1,0.0,0.0,0.3,-0.5,1.0\n"
        "t2,d2,0.0,0.0,-1.0,1.0,1.0\n",
        encoding="utf-8",
    )
    ds = load_dataset(data, schema)
    bundle = tmp_path / "bundle"
    save_bundle(bundle, model, ds, build_profiles(ds, model.stats), data_sha256=file_sha256(data),
                baseline_report=TrainReport([0.0]), behavior_report=TrainReport([0.0]),
                params=TrainingParams())
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0, 0.0]))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0, 0.0]))

    surf_out = tmp_path / "surf"
    run("surface", "--bundle", str(bundle), "--env", str(env), "--template", str(template),
        "--free", "overspeed,overrpm", "--resolution", "41", "--normalized",
        "--out", str(surf_out))
    with (surf_out / "surface.csv").open() as handle:
        rows = list(csv.reader(handle))[1:]
    grid = np.array([[float(a), float(b), float(v)] for a, b, v in rows])
    best = grid[np.argmax(grid[:, 2])]

    place_out = tmp_path / "place"
    run("place", "--bundle", str(bundle), "--data", str(data),
        "--env", str(env), "--fix-template", str(template), "--free", "overspeed,overrpm",
        "--normalized", "--seed", "3", "--sigma0", "0.5", "--population", "16",
        "--tolerance", "1e-12", "--out", str(place_out))
    result = json.loads((place_out / "placement.json").read_text())
    a_star = result["optimal_behavior_normalized"]
    cell = 3.0 / 40  # box is [-1.5, 1.5] in both searched dims
    assert abs(a_star[0] - best[0]) <= cell + 1e-9
    assert abs(a_star[1] - best[1]) <= cell + 1e-9
    assert result["matched_driver"] == "d1"  # profile at the peak


def test_surface_constant_when_behavior_ignored(tmp_path):
    # zero-weight nets make the advantage identically zero over the grid
    from fleetrank.models import AdvantageModel, Regressor, TrainingParams, save_bundle
    from fleetrank.neural import Mlp, MlpConfig, TrainReport
    from fleetrank.normalization import fit_stats

    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=10, seed=2))
    stats = fit_stats(ds)

    def zero_net(d_in):
        config = MlpConfig(d_in, (4, 4, 4), 2, seed=0)
        return Mlp(config,
                   [np.zeros((4, d_in)), np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((2, 4))],
                   [np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(2)])

    model = AdvantageModel(
        baseline=Regressor(net=zero_net(8), stats=stats),
        behavior=Regressor(net=zero_net(14), stats=stats),
        metric_index=0,
        behavior_box=np.stack([np.full(6, -1.0), np.full(6, 1.0)], axis=1),
    )
    bundle = tmp_path / "zero_bundle"
    save_bundle(bundle, model, ds, build_profiles(ds, stats), data_sha256="0" * 64,
                baseline_report=TrainReport([0.0]), behavior_report=TrainReport([0.0]),
                params=TrainingParams())
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    out = tmp_path / "surf"
    assert run("surface", "--bundle", str(bundle), "--env", str(env),
               "--template", str(template), "--free", "beh_00,beh_01",
               "--resolution", "11", "--normalized", "--out", str(out)) == 0
    with (out / "surface.csv").open() as handle:
        values = {row[2] for row in list(csv.reader(handle))[1:]}
    assert values == {"0.0"}


def test_usage_error_exit_code():
    assert run("no-such-command") == 2


# Every error type by the exit code it gets. Each type that cli.py once listed
# by name keeps the code it had then, and a new type fails the test below
# until it is put in one of these sets on purpose.
USAGE_ERROR_TYPES = {
    "UsageError", "MissingColumn", "BadValue", "DuplicateTripId", "EmptyDataset",
    "TooFewSamples", "DimensionMismatch", "InvalidConfig", "CorruptBundle",
    "EmptyProfiles", "UnknownDimension", "UnreadableFile", "NotARegularFile",
}
RUNTIME_ERROR_TYPES = {"FleetrankError", "NonFiniteLoss", "NonFiniteObjective", "NonFiniteStats",
                       "NonFiniteAdvantage"}
PATH_ERROR_TYPES = [FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
                    PermissionError]
ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.FleetrankError)
]


@pytest.mark.parametrize("error_type", ERROR_TYPES + PATH_ERROR_TYPES, ids=lambda t: t.__name__)
def test_every_error_type_has_its_exit_code(tmp_path, capsys, monkeypatch, error_type):
    name = error_type.__name__
    if name in RUNTIME_ERROR_TYPES:
        expected = 1
    elif name in USAGE_ERROR_TYPES or error_type in PATH_ERROR_TYPES:
        expected = 2
    else:
        pytest.fail(f"{name} is classified neither as a usage nor as a runtime error")
    # a placeholder for each argument the constructor requires
    params = list(inspect.signature(error_type.__init__).parameters.values())[1:]
    error = error_type(*("x" for p in params
                         if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty))

    def fails(args):
        raise error

    monkeypatch.setattr(cli, "cmd_synth", fails)
    out = tmp_path / "s"
    assert run("synth", "--out", str(out)) == expected
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("error_type", ERROR_TYPES, ids=lambda t: t.__name__)
def test_every_error_type_survives_pickling(tmp_path, capsys, monkeypatch, error_type):
    # an error raised in the process that fits the baseline is raised again in its parent
    if error_type is errors.NonFiniteObjective:
        error = error_type(np.array([1.5, -2.0]), best=("best", 3))
    else:
        params = list(inspect.signature(error_type.__init__).parameters.values())[1:]
        error = error_type(*(f"{p.name}-{i}" for i, p in enumerate(params)
                             if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty))
    copy = pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(copy) is error_type
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy).keys() == vars(error).keys()
    for name, value in vars(error).items():
        assert np.array_equal(getattr(copy, name), value) if name == "point" else (
            getattr(copy, name) == value), name

    def fails(args):
        raise copy

    monkeypatch.setattr(cli, "cmd_synth", fails)
    code = run("synth", "--out", str(tmp_path / "s"))
    assert (code, capsys.readouterr().err) == (
        2 if isinstance(error, errors.UsageError) else 1, f"error: {error}\n")


def test_manifest_keys_per_command(pipeline, tmp_path):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    outs = {"synth": data, "train": bundle}
    for command, argv in (
        ("rank", ["--data", str(data / "data.csv"), "--bundle", str(bundle)]),
        ("place", ["--bundle", str(bundle), "--env", str(env), "--max-generations", "20"]),
        ("surface", ["--bundle", str(bundle), "--env", str(env), "--template", str(template),
                     "--free", "beh_00,beh_01", "--resolution", "3"]),
    ):
        outs[command] = tmp_path / command
        assert run(command, *argv, "--out", str(outs[command])) == 0
    cores = ["threads", "in_one_thread_because"]
    facts = {"train": ["data_sha256", "fit_processes", "fit_in_one_process_because"],
             "rank": ["trips", *cores], "place": ["profiles"], "surface": cores}
    for command, out in outs.items():
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == [
            "command", "arguments", "seed", "outputs", "version",
            *facts.get(command, []), "duration_s",
        ]
        assert manifest["command"] == command
        assert list(manifest["arguments"]) == sorted(manifest["arguments"])
        assert "func" not in manifest["arguments"]
        assert all((out / name).is_file() for name in manifest["outputs"])


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_numeric_failure_exit_code(pipeline, tmp_path, capsys):
    data, _ = pipeline
    # an absurd learning rate overflows the forward pass within one epoch
    code = run("train", "--data", str(data / "data.csv"), "--schema",
               str(data / "schema.json"), "--epochs", "5", "--lr", "1e40",
               "--hidden", "8,8,8", "--out", str(tmp_path / "b"))
    assert code == 1
    assert "non-finite loss" in capsys.readouterr().err


def test_overflowing_stats_fail_train(tmp_path, capsys):
    # finite trips whose variance overflows: train used to write Infinity stds and exit 0
    data, bundle = tmp_path / "d", tmp_path / "b"
    assert run("synth", "--drivers", "3", "--trips", "50", "--noise", "1e300",
               "--out", str(data)) == 0
    capsys.readouterr()
    with np.errstate(all="raise"):  # a numpy warning would reach stderr
        code = run("train", "--data", str(data / "data.csv"), "--schema",
                   str(data / "schema.json"), "--epochs", "2", "--hidden", "4,4,4",
                   "--out", str(bundle))
    assert code == 1
    assert capsys.readouterr().err == "error: non-finite mean or std in column 'total_mpg'\n"
    assert not bundle.exists()


def _with_env_cells(data, path, row, cells):
    """A copy of the trips with ``cells`` (env column index to text) set in data row ``row``."""
    rows = _trip_rows(data)
    for k, text in cells.items():
        rows[row][2 + k] = text
    return _write_rows(path, rows)


FLOAT_LIMIT_ENV = {k: "1.79e308" if k % 2 == 0 else "-1.79e308" for k in range(8)}


@pytest.mark.parametrize("cells, raw_units, message", [
    (FLOAT_LIMIT_ENV, [], "non-finite advantage for trip 1 of 160 (driver 'driver_00')"),
    (FLOAT_LIMIT_ENV, ["--raw-units"],
     "non-finite advantage for trip 1 of 160 (driver 'driver_00')"),
    ({0: "1e300"}, [], "non-finite mean or std advantage of driver 'driver_00'"),
], ids=["nan-advantage", "nan-advantage-raw-units", "overflowing-std"])
def test_rank_with_a_non_finite_advantage_is_a_runtime_error(pipeline, tmp_path, capsys, cells,
                                                            raw_units, message):
    # trips near the float limit used to rank first with nan, or an inf std, at exit 0
    data, bundle = pipeline
    trips = _with_env_cells(data, tmp_path / "trips.csv", 1, cells)
    assert _trip_rows(data)[1][1] == "driver_00"
    out = tmp_path / "rank"
    assert run("rank", "--data", str(trips), "--bundle", str(bundle), *raw_units,
               "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"  # and no numpy warning
    assert not out.exists()


def test_rank_with_a_non_finite_advantage_on_the_worker_thread(two_block_pipeline, tmp_path,
                                                               capsys, monkeypatch):
    # the last trip is in the half of the forward pass that the worker thread runs, under
    # the caller's numpy error state; a warning there fails the test, as RuntimeWarning
    # is an error in this suite
    root = two_block_pipeline
    monkeypatch.setattr(neural, "why_one_process", lambda: None)
    assert neural.why_one_thread(4400) is None
    trips = _with_env_cells(root / "data", tmp_path / "trips.csv", 4400, FLOAT_LIMIT_ENV)
    out = tmp_path / "rank"
    assert run("rank", "--data", str(trips), "--bundle", str(root / "bundle"),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: non-finite advantage for trip 4400 of 4400 (driver 'driver_03')\n")
    assert not out.exists()


def test_surface_with_a_non_finite_advantage_is_a_runtime_error(pipeline, tmp_path, capsys):
    # it used to write nan advantages at exit 0
    _, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([float(FLOAT_LIMIT_ENV[k]) for k in range(8)]))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    box = load_bundle(bundle)[0].behavior_box
    out = tmp_path / "surface"
    assert run("surface", "--bundle", str(bundle), "--env", str(env), "--template",
               str(template), "--free", "beh_00,beh_01", "--resolution", "3",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: non-finite advantage at beh_00 {float(box[0, 0])!r}, "
        f"beh_01 {float(box[1, 0])!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("normalized", [[], ["--normalized"]], ids=["raw", "normalized"])
def test_place_with_a_non_finite_objective_warns_of_nothing(pipeline, tmp_path, capsys,
                                                            normalized):
    # it exited 1, but numpy's overflow and invalid-value warnings reached stderr first
    _, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([float(FLOAT_LIMIT_ENV[k]) for k in range(8)]))
    out = tmp_path / "place"
    assert run("place", "--bundle", str(bundle), "--env", str(env), *normalized,
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: objective returned a non-finite value\n"
    assert not out.exists()


@pytest.fixture(params=["forked", "in-parent"])
def fit_path(request, monkeypatch):
    """Have train fit the baseline in a forked child, or both nets in this process.

    Either way this process fits the behavior net first.
    """
    reason = None if request.param == "forked" else "forced by the test"
    monkeypatch.setattr(models, "why_one_process", lambda: reason)
    return request.param


def _before_fit(monkeypatch, **actions):
    """Run ``actions["baseline"]`` or ``actions["behavior"]`` on a fit's arguments as it starts.

    The pipeline's trips have 8 env columns, so an 8-wide net is the baseline.
    The patch is in place before a fork, so it holds in the child too.
    """
    real = models.train

    def train(net, inputs, targets, **kwargs):
        action = actions.get("baseline" if net.config.input_dim == 8 else "behavior")
        if action:
            action(kwargs)
        return real(net, inputs, targets, **kwargs)

    monkeypatch.setattr(models, "train", train)


def _train_small(pipeline, out):
    data, _ = pipeline
    return run("train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.json"),
               "--epochs", "3", "--hidden", "8,8,8", "--out", str(out))


def test_train_fits_give_the_same_bundle_on_both_paths(pipeline, tmp_path, monkeypatch):
    artifacts = {}
    for path, reason in (("forked", None), ("in-parent", "forced by the test")):
        monkeypatch.setattr(models, "why_one_process", lambda reason=reason: reason)
        out = tmp_path / path
        assert _train_small(pipeline, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fit_processes"] == (2 if reason is None else 1)
        assert manifest["fit_in_one_process_because"] == reason
        artifacts[path] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                           if p.name != "manifest.json"}
    assert len(artifacts["forked"]) == 8
    assert artifacts["forked"] == artifacts["in-parent"]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("role", ["baseline", "behavior"])
def test_train_non_finite_loss_in_either_fit(pipeline, tmp_path, capsys, monkeypatch, fit_path,
                                             role):
    # an absurd learning rate for one net overflows its forward pass in the first epoch
    _before_fit(monkeypatch, **{role: lambda kwargs: kwargs.update(learning_rate=1e40)})
    assert _train_small(pipeline, tmp_path / "b") == 1
    assert capsys.readouterr().err == "error: non-finite loss at epoch 0\n"
    assert not (tmp_path / "b").exists()


def test_train_behavior_error_wins_when_both_fits_fail(pipeline, tmp_path, capsys, monkeypatch,
                                                       fit_path):
    def fail_at(epoch):
        def action(kwargs):
            raise errors.NonFiniteLoss(epoch)
        return action

    _before_fit(monkeypatch, baseline=fail_at(7), behavior=fail_at(9))
    assert _train_small(pipeline, tmp_path / "b") == 1
    assert capsys.readouterr().err == "error: non-finite loss at epoch 9\n"
    assert not (tmp_path / "b").exists()


def test_train_child_killed_is_a_runtime_error(pipeline, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(models, "why_one_process", lambda: None)
    _before_fit(monkeypatch, baseline=lambda kwargs: os.kill(os.getpid(), signal.SIGKILL))
    assert _train_small(pipeline, tmp_path / "b") == 1
    assert capsys.readouterr().err == (
        "error: the process fitting the baseline net was killed by SIGKILL\n")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("error", [KeyboardInterrupt(), errors.NonFiniteLoss(0)],
                         ids=["interrupt", "behavior-error"])
def test_train_interrupt_kills_and_reaps_the_child(pipeline, tmp_path, capsys, monkeypatch, error):
    monkeypatch.setattr(models, "why_one_process", lambda: None)

    def fail(kwargs):
        raise error

    # the child would fit for a minute: the parent must not wait for it
    _before_fit(monkeypatch, baseline=lambda kwargs: time.sleep(60), behavior=fail)
    started = time.monotonic()
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            _train_small(pipeline, tmp_path / "b")
    else:
        assert _train_small(pipeline, tmp_path / "b") == 1
        assert capsys.readouterr().err == "error: non-finite loss at epoch 0\n"
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_fits_in_two_processes_only_with_one_thread(pipeline, tmp_path):
    # the real conditions, not a forced path: unpinned, OpenBLAS keeps a second thread
    data, _ = pipeline
    two_cores = len(os.sched_getaffinity(0)) > 1
    script = "import sys\nfrom fleetrank.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = str(Path(fleetrank.__file__).resolve().parents[1])
    for threads, expected in (("1", (2, None) if two_cores else (1, "one usable core")),
                              ("2", (1, "2 OS threads" if two_cores else "one usable core"))):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script, "train", "--data", str(data / "data.csv"),
                        "--schema", str(data / "schema.json"), "--epochs", "2", "--hidden",
                        "8,8,8", "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=120)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["fit_processes"], manifest["fit_in_one_process_because"]) == expected


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--batch", "0"], "batch size"),
        (["--epochs", "0"], "epochs"),
        (["--lr", "0"], "learning rate"),
        (["--lr=-0.001"], "learning rate"),
        (["--lr", "nan"], "learning rate"),
        (["--lr", "inf"], "learning rate"),
        (["--hidden", "4,x,4"], "--hidden"),
        (["--hidden", "4,0,4"], "hidden widths"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_train_config_errors(tmp_path, capsys, flags, message):
    # neither input file exists: the config must be rejected before either is read
    out = tmp_path / "b"
    code = run("train", "--data", str(tmp_path / "missing.csv"), "--schema",
               str(tmp_path / "missing.json"), *flags, "--out", str(out))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _schema_edit(edit):
    """A damage that writes the pipeline's schema, changed by ``edit``, to a new file."""
    def damage(good, path):
        schema = json.loads(good.read_text())
        edit(schema)
        path.write_text(json.dumps(schema))
    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda good, path: path.write_text(good.read_text()[:40]), "Unterminated string"),
        (_schema_edit(lambda s: s.pop("behavior_columns")), "missing entry 'behavior_columns'"),
        (_schema_edit(lambda s: s["behavior_columns"].append("env_00")),
         "column groups overlap: ['env_00']"),
        (_schema_edit(lambda s: s.__setitem__("target_metric", "speed")),
         "target_metric 'speed' is not a performance column"),
        (_schema_edit(lambda s: s.__setitem__("env_columns", [])),
         "a schema needs at least one env and one behavior column"),
        (_schema_edit(lambda s: s.__setitem__("behavior_columns", [])),
         "a schema needs at least one env and one behavior column"),
        (_schema_edit(lambda s: s.__setitem__("env_columns", "env_00")),
         "env_columns must be a list of non-empty column names, got 'env_00'"),
        (_schema_edit(lambda s: s.__setitem__("trip_id_column", ["trip_id"])),
         "trip_id_column must be a non-empty column name, got ['trip_id']"),
        (_schema_edit(lambda s: s.__setitem__("driver_id_column", {"name": "driver_id"})),
         "driver_id_column must be a non-empty column name, got {'name': 'driver_id'}"),
    ],
    ids=["truncated", "missing-behavior-columns", "overlapping-groups", "unknown-target",
         "no-env-columns", "no-behavior-columns", "string-column-list", "list-trip-id-column",
         "dict-driver-id-column"],
)
def test_bad_schema_is_a_usage_error(pipeline, tmp_path, capsys, damage, message):
    data, bundle = pipeline
    bad = tmp_path / "schema.json"
    damage(data / "schema.json", bad)
    for command, out in (
        (["train", "--data", str(data / "data.csv"), "--epochs", "1"], tmp_path / "b"),
        (["rank", "--data", str(data / "data.csv"), "--bundle", str(bundle)], tmp_path / "r"),
    ):
        assert run(*command, "--schema", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: schema {bad}: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--data", "--schema", "--env"])
def test_directory_for_an_input_file_is_a_usage_error(pipeline, tmp_path, capsys, flag):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    paths = {"--data": str(data / "data.csv"), "--schema": str(data / "schema.json"),
             "--env": str(env), flag: str(tmp_path)}
    if flag == "--env":
        command = ["place", "--bundle", str(bundle), "--env", paths["--env"]]
    else:
        command = ["train", "--data", paths["--data"], "--schema", paths["--schema"]]
    assert run(*command, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Is a directory: {str(tmp_path)!r}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth", "train", "rank", "place", "surface"])
def test_out_naming_a_file_is_a_usage_error(pipeline, tmp_path, capsys, command):
    # it ended in a FileExistsError traceback, in train after the whole fit
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    argv = {
        "synth": ["--drivers", "2", "--trips", "5"],
        "train": ["--data", str(data / "data.csv"), "--schema", str(data / "schema.json"),
                  "--epochs", "1", "--hidden", "4,4,4"],
        "rank": ["--data", str(data / "data.csv"), "--bundle", str(bundle)],
        "place": ["--bundle", str(bundle), "--env", str(env), "--max-generations", "5"],
        "surface": ["--bundle", str(bundle), "--env", str(env), "--template", str(template),
                    "--free", "beh_00,beh_01", "--resolution", "3"],
    }[command]
    out = tmp_path / "out"
    out.write_text("a file\n")
    assert run(command, *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.EEXIST}] File exists: {str(out)!r}\n"
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("pipe", ["fifo", "dev-fd"])
def test_trips_from_a_pipe_are_a_usage_error(pipeline, tmp_path, pipe):
    # a pipe's reads would block on a writer that never comes, or find it drained
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    opened = []
    if pipe == "fifo":
        path = tmp_path / "trips.csv"
        os.mkfifo(path)
    else:  # what a shell's <(...) passes
        opened = list(os.pipe())
        path = f"/dev/fd/{opened[0]}"
    src = str(Path(fleetrank.__file__).resolve().parents[1])
    env_vars = {**os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        for command in (["train", "--schema", str(data / "schema.json")],
                        ["rank", "--bundle", str(bundle)],
                        ["place", "--bundle", str(bundle), "--env", str(env)]):
            out = tmp_path / command[0]
            result = subprocess.run(
                [sys.executable, "-m", "fleetrank.cli", *command, "--data", str(path),
                 "--out", str(out)],
                env=env_vars, pass_fds=opened[:1], capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 2, result.stderr
            assert result.stderr.splitlines() == [
                f"error: {path}: not a regular file; pass a saved trips file, not a pipe"
            ]
            assert not out.exists()
    finally:
        for fd in opened:
            os.close(fd)


def _deny_open(good, path, monkeypatch):
    """Valid trips in ``path`` whose open is refused, as for a file without read permission."""
    path.write_bytes(good)
    real_open = Path.open

    def open_(self, *args, **kwargs):
        if self == path:
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


def _insert_at_row_60(damage):
    """Trips with ``damage`` written at the start of data row 60."""
    def write(good, path, monkeypatch):
        lines = good.splitlines(keepends=True)  # the header, then data row 1 at lines[1]
        path.write_bytes(b"".join(lines[:60]) + damage + b"".join(lines[60:]))
    return write


@pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
@pytest.mark.parametrize(
    "damage, message",
    [
        # the decoder reads ahead, so an invalid byte can stop the rows before its own
        (_insert_at_row_60(b"\xff"), "not UTF-8 text (invalid start byte)"),
        (_insert_at_row_60(b'"' + b"x" * 140_000 + b'"'),
         "after data row 59: field larger than field limit"),
        (_deny_open, "Permission denied"),
    ],
    ids=["invalid-utf8", "oversized-cell", "permission-denied"],
)
def test_unreadable_trips_file_is_a_usage_error(pipeline, tmp_path, capsys, monkeypatch,
                                                damage, message, lenient):
    data, bundle = pipeline
    bad = tmp_path / "data.csv"
    damage((data / "data.csv").read_bytes(), bad, monkeypatch)
    for command, out in (
        (["train", "--schema", str(data / "schema.json"), "--epochs", "1"], tmp_path / "b"),
        (["rank", "--bundle", str(bundle)], tmp_path / "r"),
    ):
        assert run(*command, "--data", str(bad), *lenient, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(bad) in err
        assert "Traceback" not in err
        assert not out.exists()


def test_surface_rejects_degenerate_resolution(pipeline, tmp_path, capsys):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    out = tmp_path / "surf"
    code = run("surface", "--bundle", str(bundle), "--env", str(env),
               "--template", str(template), "--free", "beh_00,beh_01",
               "--resolution", "0", "--normalized", "--out", str(out))
    assert code == 2
    assert "--resolution" in capsys.readouterr().err
    assert not (out / "surface.csv").exists()


def test_surface_out_of_memory_is_a_runtime_error(pipeline, tmp_path, capsys):
    # numpy refuses a 10**12-row grid at once, so nothing large is allocated
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    out = tmp_path / "surf"
    code = run("surface", "--bundle", str(bundle), "--env", str(env),
               "--template", str(template), "--free", "beh_00,beh_01",
               "--resolution", str(10**6), "--normalized", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


TRAIN_FLAGS = ("--data", "{data}/data.csv", "--schema", "{data}/schema.json", "--epochs", "1")


@pytest.mark.parametrize("command, flags", [
    ("surface", ("--bundle", "{bundle}", "--env", "env.json", "--template", "a0.json",
                 "--free", "beh_00,beh_01", "--resolution", str(10**22))),
    ("place", ("--bundle", "{bundle}", "--env", "env.json", "--population", str(10**22))),
    ("synth", ("--drivers", "2", "--trips", str(10**18))),
    ("synth", ("--drivers", str(10**18), "--trips", "1")),
    ("synth", ("--d-env", str(10**18))),
    ("train", (*TRAIN_FLAGS, "--hidden", f"{10**18},4,4")),
    ("train", (*TRAIN_FLAGS, "--hidden", f"4,4,{10**18}")),
], ids=["surface", "place", "synth-trips", "synth-drivers", "synth-d-env", "train-first-width",
        "train-last-width"])
def test_sizes_past_the_largest_array_are_out_of_memory(pipeline, tmp_path, capsys,
                                                        monkeypatch, command, flags):
    # numpy raises ValueError, not MemoryError, for these; nothing is allocated
    data, bundle = pipeline
    monkeypatch.chdir(tmp_path)
    (tmp_path / "env.json").write_text(json.dumps([0.0] * 8))
    (tmp_path / "a0.json").write_text(json.dumps([0.0] * 6))
    flags = [flag.format(data=data, bundle=bundle) for flag in flags]
    code = run(command, *flags, "--out", "o")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "larger than any array can be" in err
    assert not (tmp_path / "o").exists()


def test_surface_rejects_repeated_free_dimension(pipeline, tmp_path, capsys):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    code = run("surface", "--bundle", str(bundle), "--env", str(env),
               "--template", str(template), "--free", "beh_00,beh_00",
               "--resolution", "5", "--normalized", "--out", str(tmp_path / "surf"))
    assert code == 2
    assert "more than once" in capsys.readouterr().err


def test_place_rejects_repeated_free_dimension(pipeline, tmp_path, capsys):
    data, bundle = pipeline
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    code = run("place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
               "--env", str(env), "--fix-template", str(template),
               "--free", "beh_00,beh_00", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "more than once" in capsys.readouterr().err


def _set_first(nested, value):
    """Replace the first number in a nested JSON list."""
    while isinstance(nested[0], list):
        nested = nested[0]
    nested[0] = value


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _swap(first, second):
    first_bytes = first.read_bytes()
    first.write_bytes(second.read_bytes())
    second.write_bytes(first_bytes)


def _widen_schema(bundle):
    """Two behavior columns in meta.json's schema that stats.json and the nets lack."""
    _edit_json(bundle / "meta.json",
               lambda m: m["schema"]["behavior_columns"].extend(["beh_06", "beh_07"]))


def _edit_records(name, edit):
    """Damage that saves ``edit`` of the records of the bundle's ``.npy`` file ``name``."""
    def damage(bundle):
        path = bundle / name
        np.save(path, edit(np.load(path)), allow_pickle=True)
    return damage


def _set_record(name, field, index, value):
    def edit(table):
        table[field][index] = value
        return table
    return _edit_records(name, edit)


def _edit_meta(edit):
    return lambda bundle: _edit_json(bundle / "meta.json", edit)


def _set_meta(key, value):
    return _edit_meta(lambda m: m.__setitem__(key, value))


ENV, PERFORMANCE, CODE = ("env", "<f8", (8,)), ("performance", "<f8", (2,)), ("driver_code", "<i8")


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda b: (b / "meta.json").write_text((b / "meta.json").read_text()[:200]),
         "meta.json: Unterminated string"),
        (lambda b: (b / "stats.json").write_bytes(b"\xff\xfe\x00\x01"), "stats.json: 'utf-8'"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.pop("metric_index")),
         "meta.json: missing entry 'metric_index'"),
        (lambda b: _edit_json(b / "behavior.json", lambda n: n["config"].pop("seed")),
         "behavior.json: missing entry 'seed'"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.__setitem__("metric_index", 0.5)),
         "meta.json: metric_index must be an integer, got 0.5"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.__setitem__("metric_index", True)),
         "meta.json: metric_index must be an integer, got True"),
        (lambda b: _edit_json(b / "baseline.json", lambda n: _set_first(n["weights"], math.nan)),
         "baseline.json: non-finite value"),
        (lambda b: _edit_json(b / "behavior.json", lambda n: _set_first(n["biases"], math.inf)),
         "behavior.json: non-finite value"),
        (lambda b: _edit_json(b / "stats.json", lambda s: _set_first(s["std"], math.nan)),
         "stats.json: non-finite value"),
        (lambda b: _edit_json(b / "meta.json", lambda m: _set_first(m["behavior_box"], -math.inf)),
         "meta.json: non-finite value"),
        (lambda b: _edit_json(b / "stats.json", lambda s: s["mean"].__setitem__(0, s["mean"][0] + 1e-9)),
         "meta.json: stats_fingerprint does not match stats.json"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.__setitem__("version", "0.0.9")),
         f"meta.json: written by tool version '0.0.9', this is version {TOOL_VERSION!r}"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.pop("version")),
         f"meta.json: written by tool version None, this is version {TOOL_VERSION!r}"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.__setitem__("version", 0.1)),
         f"meta.json: written by tool version 0.1, this is version {TOOL_VERSION!r}"),
        (lambda b: (b / "meta.json").write_text("[1, 2]"),
         "meta.json: expected a JSON object, got list"),
        (lambda b: _swap(b / "baseline.json", b / "behavior.json"),
         "baseline.json: baseline net has input width 14; a baseline net reads env only"),
        (_widen_schema,
         "meta.json: schema block widths (8, 8, 2) do not match stats.json's (8, 6, 2)"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.__setitem__("metric_index", 1)),
         "meta.json: metric_index 1 does not match the schema's target metric 'total_mpg' at index 0"),
        (lambda b: (b / "trips.npy").write_bytes((b / "trips.npy").read_bytes()[:1000]),
         "trips.npy: Failed to read all data for array"),
        (lambda b: (b / "trips.npy").write_text("trip_id,driver_id\n"),
         "trips.npy: the magic string is not correct"),
        (_edit_records(TRIPS_FILE, lambda t: np.array([{"trips": len(t)}], dtype=object)),
         "trips.npy: Object arrays cannot be loaded when allow_pickle=False"),
        (_edit_records(TRIPS_FILE,
                       lambda t: t.astype([("env", "<f4", (8,)), PERFORMANCE, CODE])),
         "trips.npy: expected records [('env', '<f8', (8,)), ('performance', '<f8', (2,)), "
         "('driver_code', '<i8')], got [('env', '<f4', (8,))"),
        (_edit_records(TRIPS_FILE,
                       lambda t: t.astype([ENV, PERFORMANCE, ("driver_code", "<f8")])),
         "('driver_code', '<f8')]"),
        (_edit_records(TRIPS_FILE,
                       lambda t: np.zeros(len(t), [("env", "<f8", (7,)), PERFORMANCE, CODE])),
         "got [('env', '<f8', (7,))"),
        (_edit_records(TRIPS_FILE, lambda t: t.reshape(-1, 1)),
         "trips.npy: expected a one-dimensional array, got shape (160, 1)"),
        (_set_record(TRIPS_FILE, "env", (3, 2), math.nan), "trips.npy: non-finite value"),
        (_set_record(TRIPS_FILE, "performance", (150, 0), -math.inf),
         "trips.npy: non-finite value"),
        (_set_record(TRIPS_FILE, "driver_code", 7, 4),
         "trips.npy: driver code 4 is outside the bundle's 4 drivers"),
        (_set_record(TRIPS_FILE, "driver_code", 7, -1),
         "trips.npy: driver code -1 is outside the bundle's 4 drivers"),
        (_edit_records(TRIPS_FILE, lambda t: t[:-1]),
         "trips.npy: driver 'driver_03' has 39 trips here and 40 in drivers.npy"),
        (lambda b: _edit_json(b / "baseline.json", lambda n: _set_first(n["weights"], 10**400)),
         "baseline.json: int too large to convert to float"),
        (lambda b: _edit_json(b / "meta.json", lambda m: m.__setitem__("behavior_box", None)),
         "meta.json: behavior_box must be a list of [lo, hi] pairs, got None"),
        (lambda b: _edit_json(b / "meta.json", lambda m: _set_first(m["behavior_box"], True)),
         "meta.json: true and false are not numbers"),
        (lambda b: _edit_json(b / "stats.json", lambda s: _set_first(s["std"], True)),
         "stats.json: true and false are not numbers"),
        (lambda b: _edit_json(b / "stats.json", lambda s: s.__setitem__("d_performance", False)),
         "stats.json: true and false are not numbers"),
        (lambda b: _edit_json(b / "baseline.json", lambda n: n["config"].__setitem__("seed", True)),
         "baseline.json: layer widths and seed must be integers, not true or false"),
        (lambda b: _edit_json(b / "behavior.json",
                              lambda n: n["config"]["hidden_widths"].__setitem__(0, True)),
         "behavior.json: layer widths and seed must be integers, not true or false"),
        (_edit_meta(lambda m: m.pop("data_sha256")), "meta.json: missing entry 'data_sha256'"),
        (_set_meta("skipped_rows", True),
         "meta.json: skipped_rows must be an integer >= 0, got True"),
        (_edit_meta(lambda m: m["driver_ids"].reverse()),
         "meta.json: driver ids must be unique and sorted"),
        (_edit_meta(lambda m: m["driver_ids"].__setitem__(1, m["driver_ids"][0])),
         "meta.json: driver ids must be unique and sorted"),
        (_set_meta("driver_ids", []),
         "meta.json: driver_ids must be a non-empty list of non-empty strings, got []"),
        (_edit_meta(lambda m: m["driver_ids"].__setitem__(0, "")),
         "meta.json: driver_ids must be a non-empty list of non-empty strings, got ['', "),
    ],
    ids=["truncated-meta", "undecodable-stats", "missing-meta-key", "missing-net-key",
         "float-metric-index", "bool-metric-index", "nan-weight", "inf-bias", "nan-stats", "inf-box", "fingerprint-mismatch",
         "other-version", "missing-version", "non-string-version", "meta-not-an-object",
         "swapped-nets", "widened-schema", "moved-metric-index",
         "truncated-trips", "trips-not-an-array", "pickled-trips", "float32-trips",
         "float-driver-codes", "narrow-trips", "trips-of-two-dims", "nan-trip", "inf-trip",
         "driver-code-too-large", "negative-driver-code", "trip-counts-disagree",
         "huge-int-weight", "null-box", "bool-box", "bool-std", "bool-stats-width", "bool-net-seed",
         "bool-hidden-width", "missing-digest", "bool-skipped-rows", "unsorted-driver-ids",
         "repeated-driver-id", "no-driver-ids", "empty-driver-id"],
)
def test_rank_rejects_corrupt_bundle(pipeline, tmp_path, capsys, damage, message):
    data, bundle = pipeline
    broken = tmp_path / "bundle"
    shutil.copytree(bundle, broken)
    damage(broken)
    out = tmp_path / "rank"
    code = run("rank", "--data", str(data / "data.csv"), "--bundle", str(broken),
               "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "corrupt bundle file" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_surface_rejects_widened_schema(pipeline, tmp_path, capsys):
    _, bundle = pipeline
    broken = tmp_path / "bundle"
    shutil.copytree(bundle, broken)
    _widen_schema(broken)
    (tmp_path / "env.json").write_text(json.dumps([0.0] * 8))
    (tmp_path / "a0.json").write_text(json.dumps([0.0] * 6))
    out = tmp_path / "surf"
    code = run("surface", "--bundle", str(broken), "--env", str(tmp_path / "env.json"),
               "--template", str(tmp_path / "a0.json"), "--free", "beh_06,beh_07",
               "--normalized", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "corrupt bundle file" in err and "schema block widths" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "env, template, message",
    [
        ("[0, 0, 0, NaN, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]", "every entry must be finite"),
        ("[0, 0, 0, 0, 0, 0, 0, Infinity]", "[0, 0, 0, 0, 0, 0]", "every entry must be finite"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, -Infinity, 0, 0, 0]", "every entry must be finite"),
        ("[0, 0, 0", "[0, 0, 0, 0, 0, 0]", "expected a JSON list of numbers"),
        ('["a", 0, 0, 0, 0, 0, 0, 0]', "[0, 0, 0, 0, 0, 0]", "expected a JSON list of numbers"),
        ("[[0, 0, 0, 0], [0, 0, 0, 0]]", "[0, 0, 0, 0, 0, 0]", "expected a flat list"),
        ("[0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]", "--env has 7 entries; the bundle expects 8"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0]",
         "--fix-template has 5 entries; the bundle expects 6"),
        ("[true, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]",
         "expected a JSON list of numbers (true and false are not numbers)"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, false]",
         "expected a JSON list of numbers (true and false are not numbers)"),
        (f"[{10**400}, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]",
         "expected a JSON list of numbers (int too large to convert to float)"),
        ('{"values": [0, 0, 0, 0, 0, 0, 0, 0]}', "[0, 0, 0, 0, 0, 0]",
         "expected a JSON list of numbers"),
        ('["0.1", 0, 0, 0, 0, 0, 0, 0]', "[0, 0, 0, 0, 0, 0]",
         "expected a JSON list of numbers ('0.1' is not a number)"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", '[0, 0, 0, 0, "1e3", 0]',
         "expected a JSON list of numbers ('1e3' is not a number)"),
        ("[0, [0, 0], 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]", "expected a flat list"),
    ],
    ids=["nan-env", "inf-env", "inf-template", "truncated-json", "non-numeric", "matrix",
         "short-env", "short-template", "bool-env", "bool-template", "huge-int-env",
         "object-env", "string-env", "string-template", "ragged-env"],
)
def test_place_rejects_bad_vectors_before_reading_trips(pipeline, tmp_path, capsys,
                                                        env, template, message):
    # the trips file does not exist: each vector must be rejected before it is read
    _, bundle = pipeline
    (tmp_path / "env.json").write_text(env)
    (tmp_path / "a0.json").write_text(template)
    out = tmp_path / "o"
    code = run("place", "--bundle", str(bundle), "--data", str(tmp_path / "missing.csv"),
               "--env", str(tmp_path / "env.json"), "--fix-template", str(tmp_path / "a0.json"),
               "--free", "beh_00", "--normalized", "--out", str(out))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "env, template, message",
    [
        ("[0, 0, 0, NaN, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]", "every entry must be finite"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", "[0, NaN, 0, 0, 0, 0]", "every entry must be finite"),
        ("[0, 0, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0]", "--env has 9 entries"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0, 0]", "--template has 7 entries"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", "[0, true, 0, 0, 0, 0]", "true and false are not numbers"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", f"[0, 0, {-10**400}, 0, 0, 0]",
         "int too large to convert to float"),
        ('[0, 0, 0, 0, 0, 0, 0, "-2.5"]', "[0, 0, 0, 0, 0, 0]", "'-2.5' is not a number"),
        ("[0, 0, 0, 0, 0, 0, 0, 0]", '["0", 0, 0, 0, 0, 0]', "'0' is not a number"),
    ],
    ids=["nan-env", "nan-template", "long-env", "long-template", "bool-template",
         "huge-int-template", "string-env", "string-template"],
)
def test_surface_rejects_bad_vectors(pipeline, tmp_path, capsys, env, template, message):
    _, bundle = pipeline
    (tmp_path / "env.json").write_text(env)
    (tmp_path / "a0.json").write_text(template)
    out = tmp_path / "surf"
    code = run("surface", "--bundle", str(bundle), "--env", str(tmp_path / "env.json"),
               "--template", str(tmp_path / "a0.json"), "--free", "beh_00,beh_01",
               "--resolution", "5", "--out", str(out))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _write_rows(path, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    return path


def _trip_rows(data):
    with (data / "data.csv").open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _stored_profiles(bundle):
    """The bundle's model, schema and ``meta.json``, and the profiles ``train`` stored in it."""
    model, schema, meta = load_bundle(bundle)
    return model, schema, meta, recorded_profiles(bundle, schema, meta, None, lenient=False)


def _place(bundle, out, *flags):
    """``place`` at a fixed env and seed: its exit code and the manifest's profile source."""
    env = out.parent / "env.json"
    env.write_text(json.dumps([0.2] * 8))
    code = run("place", "--bundle", str(bundle), *flags, "--env", str(env), "--seed", "2",
               "--max-generations", "40", "--out", str(out))
    source = json.loads((out / "manifest.json").read_text())["profiles"] if code == 0 else None
    return code, source


def test_place_gives_the_same_bytes_from_every_profile_source(pipeline, tmp_path):
    data, bundle = pipeline
    padded = tmp_path / "padded.csv"  # a trailing blank line: other bytes, the same trips
    padded.write_bytes((data / "data.csv").read_bytes() + b"\r\n")
    sources, outputs = [], []
    for name, flags in (("no-data", ()), ("train-csv", ("--data", str(data / "data.csv"))),
                        ("padded", ("--data", str(padded)))):
        code, source = _place(bundle, tmp_path / name, *flags)
        assert code == 0
        sources.append(source)
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("placement.json", "search_history.csv")])
    assert sources == ["bundle", "bundle", "data"]
    assert outputs[0] == outputs[1] == outputs[2]


def test_place_reads_trips_whose_bytes_changed_after_train(pipeline, tmp_path):
    data, bundle = pipeline
    rows = _trip_rows(data)
    rows[1][rows[0].index("beh_00")] = "25.0"
    edited = _write_rows(tmp_path / "edited.csv", rows)
    code, source = _place(bundle, tmp_path / "out", "--data", str(edited))
    assert (code, source) == (0, "data")

    model, schema, _, stored = _stored_profiles(bundle)
    result = json.loads((tmp_path / "out" / "placement.json").read_text())
    optimum = np.array(result["optimal_behavior_normalized"])
    reported = dict([(result["matched_driver"], result["match_distance"]),
                     *map(tuple, result["runner_ups"])])

    def distances(profiles):
        return {p.driver_id: float(np.linalg.norm(p.mean_behavior - optimum)) for p in profiles}

    assert reported == distances(build_profiles(load_dataset(edited, schema), model.stats))
    assert reported != distances(stored)


def test_lenient_training_does_not_hide_strict_errors_from_place(pipeline, tmp_path, capsys):
    data, _ = pipeline
    rows = _trip_rows(data)
    rows[3][rows[0].index("beh_01")] = "oops"
    bad = _write_rows(tmp_path / "bad.csv", rows)
    bundle = tmp_path / "bundle"
    assert run("train", "--data", str(bad), "--schema", str(data / "schema.json"), "--epochs", "2",
               "--hidden", "8,8,8", "--lenient", "--out", str(bundle)) == 0
    assert json.loads((bundle / "meta.json").read_text())["skipped_rows"] == 1
    capsys.readouterr()

    assert _place(bundle, tmp_path / "strict", "--data", str(bad)) == (2, None)
    assert "row 3: bad value 'oops' in column 'beh_01'" in capsys.readouterr().err
    assert not (tmp_path / "strict").exists()
    assert _place(bundle, tmp_path / "lenient", "--data", str(bad), "--lenient") == (0, "bundle")


@pytest.fixture(scope="module")
def stored_copies(pipeline, tmp_path_factory):
    """Bundles trained on clean trips and, leniently, on trips with one bad row.

    Each trips file comes with the bundle trained on it, the bundle trained
    on the other file, and a padded copy: a trailing blank line gives other
    bytes and the same trips.
    """
    data, bundle = pipeline
    root = tmp_path_factory.mktemp("stored")
    rows = _trip_rows(data)
    rows[3][rows[0].index("beh_01")] = "oops"
    bad = _write_rows(root / "bad.csv", rows)
    bad_bundle = root / "bad-bundle"
    assert run("train", "--data", str(bad), "--schema", str(data / "schema.json"), "--epochs", "2",
               "--hidden", "8,8,8", "--lenient", "--out", str(bad_bundle)) == 0
    copies = {}
    for name, trips, trained, other in (("clean", data / "data.csv", bundle, bad_bundle),
                                        ("bad", bad, bad_bundle, bundle)):
        padded = root / f"{name}-padded.csv"
        padded.write_bytes(trips.read_bytes() + b"\r\n")
        copies[name] = {"bundle": trained, "other": other, "trips": trips, "padded": padded}
    return copies


def _run_with_source(command, bundle, trips, out, lenient):
    """``rank`` or ``place`` on ``trips``: exit code, the manifest's source, and the artifacts."""
    flags = ["--data", str(trips), *(["--lenient"] if lenient else [])]
    if command == "rank":
        code = run("rank", *flags, "--bundle", str(bundle), "--out", str(out))
        names, fact = ("ranking.txt", "ranking.csv"), "trips"
    else:
        code, _ = _place(bundle, out, *flags)
        names, fact = ("placement.json", "search_history.csv"), "profiles"
    if code != 0:
        return code, None, None
    source = json.loads((out / "manifest.json").read_text())[fact]
    return code, source, [(out / name).read_bytes() for name in names]


def _skipped_warnings(caplog):
    return [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("stored", [True, False], ids=["stored", "not-stored"])
@pytest.mark.parametrize("same_bytes", [True, False], ids=["same-bytes", "other-bytes"])
@pytest.mark.parametrize("trips", ["clean", "bad"], ids=["none-skipped", "one-skipped"])
@pytest.mark.parametrize("command", ["rank", "place"])
def test_bundle_stands_in_for_data_by_one_rule(stored_copies, tmp_path, caplog, capsys, command,
                                                trips, same_bytes, stored, lenient):
    # stored: the bundle's record is of these trips; not stored: of the other trips file
    copy = stored_copies[trips]
    path = copy["trips"] if same_bytes else copy["padded"]
    bundle = copy["bundle"] if stored else copy["other"]
    caplog.set_level("WARNING", logger="fleetrank")
    code, source, outputs = _run_with_source(command, bundle, path, tmp_path / "out", lenient)
    warnings = _skipped_warnings(caplog)
    if trips == "bad" and not lenient:
        # a strict run parses the file and reports the row a lenient train skipped
        assert (code, source) == (2, None)
        assert "row 3: bad value 'oops' in column 'beh_01'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        return
    assert code == 0
    assert source == ("bundle" if stored and same_bytes else "data")
    # every source gives the bytes of a parse of the same trips
    caplog.clear()
    padded = copy["padded"]
    _, parsed, expected = _run_with_source(command, bundle, padded, tmp_path / "ref", lenient)
    assert parsed == "data" and outputs == expected
    for file, logged in ((path, warnings), (padded, _skipped_warnings(caplog))):
        assert logged == ([f"skipped 1 unparsable or repeated rows while loading {file}"]
                          if trips == "bad" else [])


def test_stored_profiles_equal_a_fresh_build_bitwise(pipeline):
    data, bundle = pipeline
    model, schema, meta, stored = _stored_profiles(bundle)
    fresh = build_profiles(load_dataset(data / "data.csv", schema), model.stats)
    assert meta["data_sha256"] == hashlib.sha256((data / "data.csv").read_bytes()).hexdigest()
    assert meta["skipped_rows"] == 0
    assert [(p.driver_id, p.trip_count) for p in stored] == \
        [(p.driver_id, p.trip_count) for p in fresh]
    for a, b in zip(stored, fresh):
        assert a.mean_behavior.dtype == b.mean_behavior.dtype
        assert a.mean_behavior.tobytes() == b.mean_behavior.tobytes()


def test_a_bundle_of_version_0_1_0_is_refused(pipeline, tmp_path, capsys):
    # 0.1.0 stored the profiles in profiles.json, and its meta.json had no record entries
    data, bundle = pipeline
    _, _, meta, profiles = _stored_profiles(bundle)
    old = tmp_path / "bundle"
    shutil.copytree(bundle, old)
    (old / DRIVERS_FILE).unlink()
    record = {key: meta.pop(key) for key in ("data_sha256", "skipped_rows", "driver_ids")}
    (old / "meta.json").write_text(json.dumps({**meta, "version": "0.1.0"}, indent=2))
    (old / "profiles.json").write_text(json.dumps({
        "data_sha256": record["data_sha256"],
        "skipped_rows": record["skipped_rows"],
        "stats_fingerprint": meta["stats_fingerprint"],
        "drivers": [[p.driver_id, p.trip_count, p.mean_behavior.tolist()] for p in profiles],
    }, indent=2))
    padded = tmp_path / "padded.csv"
    padded.write_bytes((data / "data.csv").read_bytes() + b"\r\n")
    message = (f"error: corrupt bundle file {old / 'meta.json'}: written by tool version "
               f"'0.1.0', this is version {TOOL_VERSION!r}\n")
    for trips in (data / "data.csv", padded):
        assert run("rank", "--data", str(trips), "--bundle", str(old),
                   "--out", str(tmp_path / "rank")) == 2
        assert capsys.readouterr().err == message
    for flags in ((), ("--data", str(data / "data.csv")), ("--data", str(padded))):
        assert _place(old, tmp_path / "place", *flags) == (2, None)
        assert capsys.readouterr().err == message
    assert not (tmp_path / "rank").exists() and not (tmp_path / "place").exists()


def _with_copied_entries(bundle, degenerate_dims):
    """Add the entries an earlier ``train`` of version 0.2.0 also wrote, as it wrote them.

    ``stats.json`` had ``degenerate_dims``, and ``meta.json`` copies of the target
    metric, both nets' seeds and the last line of each learning curve.
    """
    stats = json.loads((bundle / "stats.json").read_text())
    stats = {"mean": stats["mean"], "std": stats["std"], "degenerate_dims": degenerate_dims,
             **{key: stats[key] for key in ("d_env", "d_behavior", "d_performance")}}
    (bundle / "stats.json").write_text(json.dumps(stats))
    meta = json.loads((bundle / "meta.json").read_text())
    seed, loss = {}, {}
    for name in ("baseline", "behavior"):
        seed[name] = json.loads((bundle / f"{name}.json").read_text())["config"]["seed"]
        with (bundle / f"{name}_curve.csv").open(newline="") as handle:
            loss[name] = float(list(csv.reader(handle))[-1][1])
    order = ["version", "schema", "target_metric", "metric_index", "stats_fingerprint",
             "behavior_box", "baseline_seed", "behavior_seed", "training", "baseline_final_loss",
             "behavior_final_loss", "data_sha256", "skipped_rows", "driver_ids"]
    meta.update(target_metric=meta["schema"]["target_metric"], baseline_seed=seed["baseline"],
                behavior_seed=seed["behavior"], baseline_final_loss=loss["baseline"],
                behavior_final_loss=loss["behavior"])
    assert sorted(meta) == sorted(order)
    (bundle / "meta.json").write_text(json.dumps({key: meta[key] for key in order}, indent=2))


# [] is what train wrote for these trips; "abc" a value the reader of that version refused
@pytest.mark.parametrize("degenerate_dims", [[], "abc"], ids=["valid", "once-refused"])
def test_a_bundle_with_the_copied_entries_gives_the_same_bytes(pipeline, tmp_path,
                                                               degenerate_dims):
    data, bundle = pipeline
    older = tmp_path / "older"
    shutil.copytree(bundle, older)
    _with_copied_entries(older, degenerate_dims)
    env = tmp_path / "env.json"
    env.write_text(json.dumps([0.3] * 8))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps([0.0] * 6))
    padded = tmp_path / "padded.csv"  # other bytes, the same trips: rank parses them
    padded.write_bytes((data / "data.csv").read_bytes() + b"\r\n")
    commands = {
        "rank": ["rank", "--data", str(data / "data.csv")],
        "rank-parsed": ["rank", "--data", str(padded)],
        "place": ["place", "--env", str(env), "--max-generations", "30"],
        "place-data": ["place", "--data", str(data / "data.csv"), "--env", str(env),
                       "--max-generations", "30"],
        "surface": ["surface", "--env", str(env), "--template", str(template),
                    "--free", "beh_00,beh_01", "--resolution", "5"],
    }
    for name, argv in commands.items():
        outputs = []
        for which in (bundle, older):
            out = tmp_path / f"{which.name}-{name}"
            assert run(*argv, "--bundle", str(which), "--out", str(out)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "manifest.json"})
        assert outputs[0] == outputs[1], name


DRIVER = ("trip_count", "<i8")
MEAN, SHORT_MEAN = ("mean_behavior", "<f8", (6,)), ("mean_behavior", "<f8", (5,))


@pytest.mark.parametrize(
    "file, damage, message",
    [
        (DRIVERS_FILE,
         lambda b: (b / DRIVERS_FILE).write_bytes((b / DRIVERS_FILE).read_bytes()[:-8]),
         "Failed to read all data for array"),
        ("meta.json", _edit_meta(lambda m: m.pop("driver_ids")), "missing entry 'driver_ids'"),
        ("meta.json", _edit_meta(lambda m: m.pop("data_sha256")), "missing entry 'data_sha256'"),
        (DRIVERS_FILE, _set_record(DRIVERS_FILE, "mean_behavior", (0, 1), math.nan),
         "non-finite value"),
        (DRIVERS_FILE, _set_record(DRIVERS_FILE, "mean_behavior", (2, 0), -math.inf),
         "non-finite value"),
        (DRIVERS_FILE,
         _edit_records(DRIVERS_FILE, lambda t: np.zeros(len(t), [DRIVER, SHORT_MEAN])),
         "expected records [('trip_count', '<i8'), ('mean_behavior', '<f8', (6,))], "
         "got [('trip_count', '<i8'), ('mean_behavior', '<f8', (5,))]"),
        (DRIVERS_FILE, _set_record(DRIVERS_FILE, "trip_count", 1, 0),
         "trip count of 'driver_01' must be >= 1, got 0"),
        (DRIVERS_FILE,
         _edit_records(DRIVERS_FILE, lambda t: t.astype([("trip_count", "<f8"), MEAN])),
         "got [('trip_count', '<f8')"),
        (DRIVERS_FILE, _edit_records(DRIVERS_FILE, lambda t: t.astype([("trip_count", "?"), MEAN])),
         "got [('trip_count', '?')"),
        ("meta.json", _edit_meta(lambda m: m["driver_ids"].__setitem__(1, "driver_00")),
         "driver ids must be unique and sorted"),
        ("meta.json", _edit_meta(lambda m: m["driver_ids"].reverse()),
         "driver ids must be unique and sorted"),
        (DRIVERS_FILE, _edit_records(DRIVERS_FILE, lambda t: t[:0]),
         "0 records for the 4 drivers in meta.json"),
        # the record's means are in the units of the statistics meta.json names
        ("meta.json", _set_meta("stats_fingerprint", "0" * 16),
         "stats_fingerprint does not match stats.json"),
        (DRIVERS_FILE, _edit_records(DRIVERS_FILE, lambda t: t[:-1]),
         "3 records for the 4 drivers in meta.json"),
        (DRIVERS_FILE,
         _edit_records(DRIVERS_FILE, lambda t: t.astype([DRIVER, ("mean_behavior", "<i8", (6,))])),
         "got [('trip_count', '<i8'), ('mean_behavior', '<i8', (6,))]"),
        (DRIVERS_FILE,
         _edit_records(DRIVERS_FILE, lambda t: t.astype([DRIVER, ("mean_behavior", "?", (6,))])),
         "got [('trip_count', '<i8'), ('mean_behavior', '?', (6,))]"),
        (DRIVERS_FILE,
         _edit_records(DRIVERS_FILE, lambda t: np.array([{"drivers": len(t)}], dtype=object)),
         "Object arrays cannot be loaded when allow_pickle=False"),
        (DRIVERS_FILE, _edit_records(DRIVERS_FILE, lambda t: t.reshape(2, 2)),
         "expected a one-dimensional array, got shape (2, 2)"),
    ],
    ids=["truncated", "missing-drivers", "missing-digest", "nan-mean", "inf-mean", "short-mean",
         "zero-trips", "float-trips", "bool-trips", "duplicate-id", "unsorted-ids", "no-drivers",
         "fingerprint-mismatch", "one-driver-short", "int-mean", "bool-mean", "pickled", "two-dims"],
)
def test_place_rejects_corrupt_profiles(pipeline, tmp_path, capsys, file, damage, message):
    data, bundle = pipeline
    broken = tmp_path / "bundle"
    shutil.copytree(bundle, broken)
    damage(broken)
    for name, flags in (("o1", ()), ("o2", ("--data", str(data / "data.csv")))):
        assert _place(broken, tmp_path / name, *flags) == (2, None)
        err = capsys.readouterr().err
        assert f"corrupt bundle file {broken / file}: " in err and message in err
        assert not (tmp_path / name).exists()
    if file == DRIVERS_FILE:  # a run on other bytes does not read the record
        padded = tmp_path / "padded.csv"
        padded.write_bytes((data / "data.csv").read_bytes() + b"\r\n")
        assert _place(broken, tmp_path / "o3", "--data", str(padded)) == (0, "data")


def test_repeated_trip_id_is_a_usage_error(pipeline, tmp_path, capsys):
    data, bundle = pipeline
    rows = _trip_rows(data)
    rows[7][0] = rows[2][0]
    dup = _write_rows(tmp_path / "dup.csv", rows)
    code = run("rank", "--data", str(dup), "--bundle", str(bundle), "--out", str(tmp_path / "r"))
    assert code == 2
    assert f"row 7: trip id {rows[2][0]!r} repeats an earlier row" in capsys.readouterr().err


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a matrix product across threads once it is large enough; the
    # 64-wide layers of train, rank and surface below are, so the split must not
    # change a bit of any artifact, also where a forward pass runs in blocks or
    # where the wide place factors and solves with a 62x62 covariance. rank reads
    # the training file's trips from the bundle, and a padded copy's from the CSV:
    # the two must give the same bytes too
    assert min(4 * 1100, 70 * 70) > 2 * BLOCK_ROWS  # rank's trips, surface's points
    (tmp_path / "env.json").write_text(json.dumps([0.0] * 8))
    (tmp_path / "a0.json").write_text(json.dumps([0.0] * 6))
    (tmp_path / "env-wide.json").write_text(json.dumps([0.0] * 29))
    script = ("import json, sys\nfrom pathlib import Path\nfrom fleetrank.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    if argv[0] == 'pad':  # a trailing blank line: other bytes, the same trips\n"
              "        Path(argv[2]).write_bytes(Path(argv[1]).read_bytes() + b'\\r\\n')\n"
              "    elif main(argv) != 0:\n        sys.exit(f'failed: {argv}')\n")
    src = str(Path(fleetrank.__file__).resolve().parents[1])
    artifacts = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads-{threads}"
        data, bundle = str(root / "data"), str(root / "bundle")
        commands = [
            ["synth", "--drivers", "4", "--trips", "1100", "--seed", "5", "--out", data],
            ["train", "--data", f"{data}/data.csv", "--schema", f"{data}/schema.json",
             "--epochs", "4", "--seed", "6", "--out", bundle],
            ["rank", "--data", f"{data}/data.csv", "--bundle", bundle, "--out", str(root / "rank")],
            ["rank", "--data", f"{data}/data.csv", "--bundle", bundle, "--raw-units",
             "--out", str(root / "rank-raw")],
            ["pad", f"{data}/data.csv", f"{data}/padded.csv"],
            ["rank", "--data", f"{data}/padded.csv", "--bundle", bundle,
             "--out", str(root / "rank-parsed")],
            ["place", "--bundle", bundle, "--env", str(tmp_path / "env.json"), "--seed", "7",
             "--out", str(root / "place")],
            ["surface", "--bundle", bundle, "--env", str(tmp_path / "env.json"),
             "--template", str(tmp_path / "a0.json"), "--free", "beh_00,beh_01",
             "--resolution", "70", "--out", str(root / "surface")],
            ["synth", "--drivers", "3", "--trips", "40", "--d-env", "29", "--d-behavior", "62",
             "--seed", "8", "--out", f"{data}-wide"],
            ["train", "--data", f"{data}-wide/data.csv", "--schema", f"{data}-wide/schema.json",
             "--epochs", "2", "--seed", "9", "--out", f"{bundle}-wide"],
            ["place", "--bundle", f"{bundle}-wide", "--env", str(tmp_path / "env-wide.json"),
             "--seed", "10", "--out", str(root / "place-wide")],
        ]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                       check=True, capture_output=True, timeout=120)
        # manifests carry wall-clock duration by design and are excluded
        artifacts[threads] = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }
        sources = [json.loads((root / name / "manifest.json").read_text())["trips"]
                   for name in ("rank", "rank-parsed")]
        assert sources == ["bundle", "data"]
        for name in ("ranking.csv", "ranking.txt"):
            assert artifacts[threads][f"rank-parsed/{name}"] == artifacts[threads][f"rank/{name}"]
    assert len(artifacts["1"]) == 34
    assert artifacts["1"].keys() == artifacts["2"].keys()
    for name, content in artifacts["1"].items():
        assert artifacts["2"][name] == content, name


SCRIPT_SRC = str(Path(fleetrank.__file__).resolve().parents[1])


def _script_env(**variables):
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        filter(None, [SCRIPT_SRC, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="module")
def two_block_pipeline(tmp_path_factory):
    """A bundle trained on 4,400 trips: rank's forward pass is at least two blocks long."""
    root = tmp_path_factory.mktemp("two-blocks")
    data, bundle = root / "data", root / "bundle"
    assert run("synth", "--drivers", "4", "--trips", "1100", "--seed", "5", "--out", str(data)) == 0
    assert run("train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.json"),
               "--epochs", "1", "--hidden", "8,8,8", "--seed", "6", "--out", str(bundle)) == 0
    (root / "env.json").write_text(json.dumps([0.0] * 8))
    (root / "a0.json").write_text(json.dumps([0.0] * 6))
    return root


def test_rank_place_surface_give_the_same_bytes_on_one_core_and_two(two_block_pipeline, tmp_path,
                                                                   monkeypatch):
    root = two_block_pipeline
    data, bundle = str(root / "data" / "data.csv"), str(root / "bundle")
    padded = tmp_path / "padded.csv"  # other bytes, the same trips: rank parses them
    padded.write_bytes(Path(data).read_bytes() + b"\r\n")
    commands = {
        "rank": ["rank", "--data", data, "--bundle", bundle],
        "rank-raw": ["rank", "--data", data, "--bundle", bundle, "--raw-units"],
        "rank-parsed": ["rank", "--data", str(padded), "--bundle", bundle],
        "place": ["place", "--bundle", bundle, "--data", data, "--env", str(root / "env.json"),
                  "--max-generations", "30"],
        "surface": ["surface", "--bundle", bundle, "--env", str(root / "env.json"), "--template",
                    str(root / "a0.json"), "--free", "beh_00,beh_01", "--resolution", "70"],
    }
    artifacts = {}
    for reason in (None, "forced by the test"):
        monkeypatch.setattr(neural, "why_one_process", lambda reason=reason: reason)
        for name, argv in commands.items():
            out = tmp_path / f"{reason}-{name}"
            assert run(*argv, "--out", str(out)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            if name != "place":  # its searches evaluate batches of a few rows
                assert (manifest["threads"], manifest["in_one_thread_because"]) == (
                    (2, None) if reason is None else (1, reason))
            artifacts[reason, name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                                       if p.name != "manifest.json"}
    for name in commands:
        assert artifacts[None, name] == artifacts["forced by the test", name], name


def test_surface_below_two_blocks_runs_on_one_thread(two_block_pipeline, tmp_path, monkeypatch):
    root = two_block_pipeline
    monkeypatch.setattr(neural, "why_one_process", lambda: None)
    assert 63 * 63 < 2 * BLOCK_ROWS
    assert run("surface", "--bundle", str(root / "bundle"), "--env", str(root / "env.json"),
               "--template", str(root / "a0.json"), "--free", "beh_00,beh_01",
               "--resolution", "63", "--out", str(tmp_path / "s")) == 0
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert (manifest["threads"], manifest["in_one_thread_because"]) == (
        1, "a forward pass of 3969 rows, under two blocks of 2048")


def test_no_thread_outlives_a_command(two_block_pipeline, tmp_path):
    # after rank, place and surface in one process, the OS thread count is back to
    # one, so train still forks; under 2 OpenBLAS threads neither splits nor forks
    root = two_block_pipeline
    data, bundle = root / "data", root / "bundle"
    two_cores = len(os.sched_getaffinity(0)) > 1
    script = ("import json, sys\nfrom fleetrank.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    if main(argv) != 0:\n        sys.exit(f'failed: {argv}')\n")
    for threads, expected in (("1", (2, None) if two_cores else (1, "one usable core")),
                              ("2", (1, "2 OS threads" if two_cores else "one usable core"))):
        out = tmp_path / threads
        commands = [
            ["rank", "--data", str(data / "data.csv"), "--bundle", str(bundle),
             "--out", str(out / "rank")],
            ["place", "--bundle", str(bundle), "--data", str(data / "data.csv"), "--env",
             str(root / "env.json"), "--max-generations", "20", "--out", str(out / "place")],
            ["surface", "--bundle", str(bundle), "--env", str(root / "env.json"), "--template",
             str(root / "a0.json"), "--free", "beh_00,beh_01", "--resolution", "70",
             "--out", str(out / "surface")],
            ["train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.json"),
             "--epochs", "1", "--hidden", "8,8,8", "--out", str(out / "train")],
        ]
        subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                       env=_script_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=120)
        facts = {}
        for name in ("rank", "surface", "train"):
            manifest = json.loads((out / name / "manifest.json").read_text())
            keys = (("fit_processes", "fit_in_one_process_because") if name == "train"
                    else ("threads", "in_one_thread_because"))
            facts[name] = tuple(manifest[key] for key in keys)
        assert facts == dict.fromkeys(("rank", "surface", "train"), expected)
