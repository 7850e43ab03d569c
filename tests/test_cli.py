import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fleetrank
from fleetrank import assessment
from fleetrank.atomic import atomic_open
from fleetrank.cli import build_parser, main
from fleetrank.models import TOOL_VERSION, load_bundle
from fleetrank.placement import PROFILES_FILE, build_profiles, load_profiles
from fleetrank.synth import SynthConfig, generate
from fleetrank.trip_data import load_dataset


def run(*argv):
    return main(list(argv))


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


def test_train_defaults_to_100_epochs():
    parser = build_parser()
    args = parser.parse_args(["train", "--data", "d", "--schema", "s"])
    assert args.epochs == 100
    assert args.batch == 128
    assert args.lr == pytest.approx(1e-3)


def test_train_outputs(pipeline):
    data, bundle = pipeline
    for name in ("baseline.json", "behavior.json", "stats.json", "meta.json", "profiles.json",
                 "baseline_curve.csv", "behavior_curve.csv", "manifest.json"):
        assert (bundle / name).exists()
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["data_sha256"] == hashlib.sha256((data / "data.csv").read_bytes()).hexdigest()
    assert "profiles.json" in manifest["outputs"]
    with (bundle / "baseline_curve.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["epoch", "mse"]
    assert len(rows) == 1 + 15
    meta = json.loads((bundle / "meta.json").read_text())
    assert meta["training"]["epochs"] == 15
    assert meta["behavior_seed"] == 5  # baseline seed + 1


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
    factor = model.raw_unit_scale()
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


def test_surface_matches_constrained_place(tmp_path):
    # a hand-assembled bundle with a sharp known peak makes the
    # grid-vs-optimizer position agreement unambiguous
    from fleetrank.models import save_bundle
    from fleetrank.trip_data import DatasetSchema
    from tests.test_placement import cone_peak_model

    target = np.array([0.35, -0.6])
    model = cone_peak_model(target)
    schema = DatasetSchema(
        env_columns=("e0", "e1"),
        behavior_columns=("overspeed", "overrpm"),
        performance_columns=("total_mpg",),
    )
    bundle = tmp_path / "bundle"
    save_bundle(bundle, model, schema)
    data = tmp_path / "trips.csv"
    data.write_text(
        "trip_id,driver_id,e0,e1,overspeed,overrpm,total_mpg\n"
        "t1,d1,0.0,0.0,0.3,-0.5,1.0\n"
        "t2,d2,0.0,0.0,-1.0,1.0,1.0\n",
        encoding="utf-8",
    )
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
    from fleetrank.models import AdvantageModel, Regressor, save_bundle
    from fleetrank.neural import Mlp, MlpConfig
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
    save_bundle(bundle, model, ds.schema)
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


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_numeric_failure_exit_code(pipeline, tmp_path, capsys):
    data, _ = pipeline
    # an absurd learning rate overflows the forward pass within one epoch
    code = run("train", "--data", str(data / "data.csv"), "--schema",
               str(data / "schema.json"), "--epochs", "5", "--lr", "1e40",
               "--hidden", "8,8,8", "--out", str(tmp_path / "b"))
    assert code == 1
    assert "non-finite loss" in capsys.readouterr().err


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
    ],
    ids=["truncated", "missing-behavior-columns", "overlapping-groups", "unknown-target",
         "no-env-columns", "no-behavior-columns"],
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
    ],
    ids=["truncated-meta", "undecodable-stats", "missing-meta-key", "missing-net-key",
         "float-metric-index", "bool-metric-index", "nan-weight", "inf-bias", "nan-stats", "inf-box", "fingerprint-mismatch",
         "other-version", "missing-version", "non-string-version", "meta-not-an-object",
         "swapped-nets"],
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
    ],
    ids=["nan-env", "inf-env", "inf-template", "truncated-json", "non-numeric", "matrix",
         "short-env", "short-template"],
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
    ],
    ids=["nan-env", "nan-template", "long-env", "long-template"],
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
    """The bundle's model and schema, and the profiles ``train`` stored in it."""
    model, schema, meta = load_bundle(bundle)
    path = bundle / PROFILES_FILE
    return model, schema, load_profiles(path, model.stats.d_behavior, meta["stats_fingerprint"])


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

    model, schema, stored = _stored_profiles(bundle)
    result = json.loads((tmp_path / "out" / "placement.json").read_text())
    optimum = np.array(result["optimal_behavior_normalized"])
    reported = dict([(result["matched_driver"], result["match_distance"]),
                     *map(tuple, result["runner_ups"])])

    def distances(profiles):
        return {p.driver_id: float(np.linalg.norm(p.mean_behavior - optimum)) for p in profiles}

    assert reported == distances(build_profiles(load_dataset(edited, schema), model.stats))
    assert reported != distances(stored.profiles)


def test_lenient_training_does_not_hide_strict_errors_from_place(pipeline, tmp_path, capsys):
    data, _ = pipeline
    rows = _trip_rows(data)
    rows[3][rows[0].index("beh_01")] = "oops"
    bad = _write_rows(tmp_path / "bad.csv", rows)
    bundle = tmp_path / "bundle"
    assert run("train", "--data", str(bad), "--schema", str(data / "schema.json"), "--epochs", "2",
               "--hidden", "8,8,8", "--lenient", "--out", str(bundle)) == 0
    assert json.loads((bundle / PROFILES_FILE).read_text())["skipped_rows"] == 1
    capsys.readouterr()

    assert _place(bundle, tmp_path / "strict", "--data", str(bad)) == (2, None)
    assert "row 3: bad value 'oops' in column 'beh_01'" in capsys.readouterr().err
    assert not (tmp_path / "strict").exists()
    assert _place(bundle, tmp_path / "lenient", "--data", str(bad), "--lenient") == (0, "bundle")


def test_stored_profiles_equal_a_fresh_build_bitwise(pipeline):
    data, bundle = pipeline
    model, schema, stored = _stored_profiles(bundle)
    fresh = build_profiles(load_dataset(data / "data.csv", schema), model.stats)
    assert stored.data_sha256 == hashlib.sha256((data / "data.csv").read_bytes()).hexdigest()
    assert stored.skipped_rows == 0
    assert [(p.driver_id, p.trip_count) for p in stored.profiles] == \
        [(p.driver_id, p.trip_count) for p in fresh]
    for a, b in zip(stored.profiles, fresh):
        assert a.mean_behavior.dtype == b.mean_behavior.dtype
        assert a.mean_behavior.tobytes() == b.mean_behavior.tobytes()


def test_place_without_data_needs_stored_profiles(pipeline, tmp_path, capsys):
    data, bundle = pipeline
    old = tmp_path / "bundle"
    shutil.copytree(bundle, old)
    (old / PROFILES_FILE).unlink()
    assert _place(old, tmp_path / "o") == (2, None)
    err = capsys.readouterr().err
    assert "has no profiles.json" in err and "retrain" in err and "--data" in err
    assert _place(old, tmp_path / "p", "--data", str(data / "data.csv")) == (0, "data")


def _edit_profiles(edit):
    return lambda path: _edit_json(path, edit)


def _edit_driver(index, position, value):
    return _edit_profiles(lambda doc: doc["drivers"][index].__setitem__(position, value))


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda path: path.write_text(path.read_text()[:40]), "Unterminated string"),
        (_edit_profiles(lambda doc: doc.pop("drivers")), "missing entry 'drivers'"),
        (_edit_profiles(lambda doc: doc.pop("data_sha256")), "missing entry 'data_sha256'"),
        (_edit_profiles(lambda doc: doc["drivers"][0][2].__setitem__(1, math.nan)),
         "non-finite value"),
        (_edit_profiles(lambda doc: doc["drivers"][2][2].__setitem__(0, -math.inf)),
         "non-finite value"),
        (_edit_profiles(lambda doc: doc["drivers"][0][2].pop()),
         "mean behavior of 'driver_00' has shape (5,), expected (6,)"),
        (_edit_driver(1, 1, 0), "trip count of 'driver_01' must be an integer >= 1, got 0"),
        (_edit_driver(1, 1, 2.5), "trip count of 'driver_01' must be an integer >= 1, got 2.5"),
        (_edit_driver(1, 1, True), "trip count of 'driver_01' must be an integer >= 1, got True"),
        (_edit_driver(1, 0, "driver_00"), "driver ids must be unique and sorted"),
        (_edit_profiles(lambda doc: doc["drivers"].reverse()),
         "driver ids must be unique and sorted"),
        (_edit_profiles(lambda doc: doc.__setitem__("drivers", [])), "no drivers"),
        (_edit_profiles(lambda doc: doc.__setitem__("stats_fingerprint", "0" * 16)),
         "stats_fingerprint does not match meta.json"),
    ],
    ids=["truncated", "missing-drivers", "missing-digest", "nan-mean", "inf-mean", "short-mean",
         "zero-trips", "float-trips", "bool-trips", "duplicate-id", "unsorted-ids", "no-drivers",
         "fingerprint-mismatch"],
)
def test_place_rejects_corrupt_profiles(pipeline, tmp_path, capsys, damage, message):
    data, bundle = pipeline
    broken = tmp_path / "bundle"
    shutil.copytree(bundle, broken)
    damage(broken / PROFILES_FILE)
    for name, flags in (("o1", ()), ("o2", ("--data", str(data / "data.csv")))):
        assert _place(broken, tmp_path / name, *flags) == (2, None)
        err = capsys.readouterr().err
        assert f"corrupt bundle file {broken / PROFILES_FILE}: {message}" in err
        assert not (tmp_path / name).exists()


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
    # change a bit of any artifact
    (tmp_path / "env.json").write_text(json.dumps([0.0] * 8))
    (tmp_path / "a0.json").write_text(json.dumps([0.0] * 6))
    script = ("import json, sys\nfrom fleetrank.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    if main(argv) != 0:\n        sys.exit(f'failed: {argv}')\n")
    src = str(Path(fleetrank.__file__).resolve().parents[1])
    artifacts = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads-{threads}"
        data, bundle = str(root / "data"), str(root / "bundle")
        commands = [
            ["synth", "--drivers", "4", "--trips", "80", "--seed", "5", "--out", data],
            ["train", "--data", f"{data}/data.csv", "--schema", f"{data}/schema.json",
             "--epochs", "4", "--seed", "6", "--out", bundle],
            ["rank", "--data", f"{data}/data.csv", "--bundle", bundle, "--out", str(root / "rank")],
            ["rank", "--data", f"{data}/data.csv", "--bundle", bundle, "--raw-units",
             "--out", str(root / "rank-raw")],
            ["place", "--bundle", bundle, "--env", str(tmp_path / "env.json"), "--seed", "7",
             "--out", str(root / "place")],
            ["surface", "--bundle", bundle, "--env", str(tmp_path / "env.json"),
             "--template", str(tmp_path / "a0.json"), "--free", "beh_00,beh_01",
             "--resolution", "30", "--out", str(root / "surface")],
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
    assert len(artifacts["1"]) == 17
    assert artifacts["1"].keys() == artifacts["2"].keys()
    for name, content in artifacts["1"].items():
        assert artifacts["2"][name] == content, name
