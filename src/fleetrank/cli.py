"""Command-line pipeline: synth, train, rank, place, surface.

Every command is deterministic given its seed flags and writes a
manifest next to its artifacts so any output can be reproduced from the
manifest alone. Exit codes: 0 success, 1 runtime or numeric failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import assessment, placement, synth
from .atomic import atomic_open
from .errors import (
    BadValue,
    CorruptBundle,
    DimensionMismatch,
    DuplicateTripId,
    EmptyDataset,
    EmptyProfiles,
    FleetrankError,
    InvalidConfig,
    MissingColumn,
    NonFiniteLoss,
    NonFiniteObjective,
    TooFewSamples,
    UnknownDimension,
    UnknownDriver,
)
from .models import (
    TOOL_VERSION,
    AdvantageModel,
    TrainingParams,
    behavior_box_from,
    load_bundle,
    save_bundle,
    train_regressor,
)
from .normalization import fit_stats
from .trip_data import DatasetSchema, file_sha256, load_dataset, save_dataset

USAGE_ERRORS = (
    InvalidConfig,
    CorruptBundle,
    MissingColumn,
    BadValue,
    DuplicateTripId,
    EmptyDataset,
    EmptyProfiles,
    TooFewSamples,
    UnknownDimension,
    UnknownDriver,
    DimensionMismatch,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)
RUNTIME_ERRORS = (NonFiniteLoss, NonFiniteObjective)


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    outputs: list[str], started: float, **facts) -> None:
    """Manifest write beside the command's artifacts; ``facts`` are command-specific entries."""
    manifest = {
        "command": command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "version": TOOL_VERSION,
        **facts,
        "duration_s": round(time.time() - started, 3),
    }
    with atomic_open(out_dir / "manifest.json") as handle:
        handle.write(json.dumps(manifest, indent=2))


def _load_vector(path: str) -> np.ndarray:
    """A finite 1-D vector from a JSON list, or from a ``{"values": [...]}`` object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, dict) and "values" in data:
            data = data["values"]
        vector = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:  # JSON errors are ValueErrors
        raise InvalidConfig(f"{path}: expected a JSON list of numbers ({exc})") from None
    if vector.ndim != 1:
        raise InvalidConfig(f"{path}: expected a flat list of numbers, got shape {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise InvalidConfig(f"{path}: every entry must be finite, got {vector.tolist()}")
    return vector


def _require_length(vector: np.ndarray, length: int, flag: str) -> None:
    if vector.shape != (length,):
        raise DimensionMismatch(
            f"{flag} has {vector.shape[0]} entries; the bundle expects {length}"
        )


def _parse_hidden(text: str) -> tuple[int, int, int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise InvalidConfig(
            f"--hidden expects three comma-separated integers, got {text!r}"
        ) from None
    if len(parts) != 3:
        raise InvalidConfig("--hidden expects three comma-separated widths")
    return tuple(parts)  # type: ignore[return-value]


def _free_indices(schema: DatasetSchema, names_csv: str) -> list[int]:
    indices = []
    for name in names_csv.split(","):
        name = name.strip()
        if name not in schema.behavior_columns:
            raise UnknownDimension(name)
        indices.append(schema.behavior_columns.index(name))
    if len(set(indices)) != len(indices):
        raise InvalidConfig(f"--free names a dimension more than once: {names_csv!r}")
    return indices


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    config = synth.SynthConfig(
        n_drivers=args.drivers,
        trips_per_driver=args.trips,
        d_env=args.d_env,
        d_behavior=args.d_behavior,
        skill_spacing=args.spacing,
        noise_sigma=args.noise,
        env_shift_mode=args.env_shift,
        interaction_scale=args.interaction,
        seed=args.seed,
    )
    ds, truth = synth.generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / "data.csv")
    ds.schema.save(out / "schema.json")
    truth.save(out / "groundtruth.json")
    _write_manifest(out, "synth", args, ["data.csv", "schema.json", "groundtruth.json"], started)
    print(f"wrote {len(ds)} trips for {ds.n_drivers} drivers to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    base_params = TrainingParams(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        hidden_widths=_parse_hidden(args.hidden),
        seed=args.seed,
    )
    behav_params = dataclasses.replace(base_params, seed=args.seed + 1)
    schema = DatasetSchema.load(args.schema)
    data_sha256 = file_sha256(args.data)
    ds = load_dataset(args.data, schema, lenient=args.lenient)
    stats = fit_stats(ds)
    baseline, baseline_report = train_regressor(ds, stats, base_params, with_behavior=False)
    behavior, behavior_report = train_regressor(ds, stats, behav_params, with_behavior=True)
    model = AdvantageModel(
        baseline=baseline,
        behavior=behavior,
        metric_index=schema.metric_index,
        behavior_box=behavior_box_from(ds, stats),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_bundle(
        out,
        model,
        schema,
        baseline_report=baseline_report,
        behavior_report=behavior_report,
        params=base_params,
    )
    placement.save_profiles(
        out / placement.PROFILES_FILE,
        placement.build_profiles(ds, stats),
        data_sha256=data_sha256,
        skipped_rows=ds.skipped_rows,
        stats_fingerprint=stats.fingerprint(),
    )
    for name, report in (("baseline", baseline_report), ("behavior", behavior_report)):
        with atomic_open(out / f"{name}_curve.csv") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "mse"])
            for epoch, loss in enumerate(report.epoch_losses, start=1):
                writer.writerow([epoch, repr(loss)])
    outputs = [
        "baseline.json", "behavior.json", "stats.json", "meta.json", placement.PROFILES_FILE,
        "baseline_curve.csv", "behavior_curve.csv",
    ]
    _write_manifest(out, "train", args, outputs, started, data_sha256=data_sha256)
    print(
        f"trained bundle in {out}: baseline mse {baseline_report.final_loss:.6f}, "
        f"behavior mse {behavior_report.final_loss:.6f}"
    )
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    started = time.time()
    model, schema, _meta = load_bundle(args.bundle)
    if args.schema:
        given = DatasetSchema.load(args.schema)
        if given.to_dict() != schema.to_dict():
            raise InvalidConfig("--schema does not match the schema the bundle was trained on")
    ds = load_dataset(args.data, schema, lenient=args.lenient)
    advantages = assessment.trip_advantages(
        ds, model.baseline, metric_index=model.metric_index, raw_units=args.raw_units
    )
    ranking = assessment.assess_drivers(
        ds.driver_ids, ds.driver_codes, advantages, min_trips_warn=args.min_trips
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = assessment.render_ranking(ranking)
    with atomic_open(out / "ranking.txt") as handle:
        handle.write(text)
    with atomic_open(out / "ranking.csv") as handle:
        csv.writer(handle).writerows(assessment.ranking_rows(ranking))
    _write_manifest(out, "rank", args, ["ranking.txt", "ranking.csv"], started)
    print(text, end="")
    return 0


def _place_profiles(args: argparse.Namespace, model: AdvantageModel, schema: DatasetSchema,
                    meta: dict) -> tuple[list[placement.DriverProfile], str]:
    """The driver profiles ``place`` matches against, and where they came from.

    The bundle's profiles stand in for ``--data`` only when ``train`` built
    them from the same bytes, and, unless ``--lenient`` is set, from a load
    that skipped no row: a strict parse of those bytes would raise instead.
    Both sources give the same bits for the same trips.
    """
    path = Path(args.bundle) / placement.PROFILES_FILE
    stored = None
    if path.exists():
        stored = placement.load_profiles(path, model.stats.d_behavior, meta["stats_fingerprint"])
    if args.data is None:
        if stored is None:
            raise InvalidConfig(
                f"bundle {args.bundle} has no {placement.PROFILES_FILE}: "
                "retrain it with this version, or pass --data with the trips to match against"
            )
        return stored.profiles, "bundle"
    if (stored is not None and (stored.skipped_rows == 0 or args.lenient)
            and file_sha256(args.data) == stored.data_sha256):
        return stored.profiles, "bundle"
    ds = load_dataset(args.data, schema, lenient=args.lenient)
    return placement.build_profiles(ds, model.stats), "data"


def cmd_place(args: argparse.Namespace) -> int:
    started = time.time()
    model, schema, meta = load_bundle(args.bundle)
    env = _load_vector(args.env)
    _require_length(env, model.stats.d_env, "--env")
    template_norm = None
    free_indices = None
    if args.fix_template:
        template = _load_vector(args.fix_template)
        _require_length(template, model.stats.d_behavior, "--fix-template")
        template_norm = template if args.normalized else model.stats.normalize_behavior(template)
        if not args.free:
            raise InvalidConfig("--fix-template requires --free naming the searched dimensions")
        free_indices = _free_indices(schema, args.free)
    elif args.free:
        raise InvalidConfig("--free requires --fix-template for the fixed dimensions")
    profiles, source = _place_profiles(args, model, schema, meta)

    result = placement.place(
        model,
        profiles,
        env,
        seed=args.seed,
        template_norm=template_norm,
        free_indices=free_indices,
        s_normalized=args.normalized,
        max_generations=args.max_generations,
        sigma0=args.sigma0,
        population=args.population,
        restarts=args.restarts,
        tolerance=args.tolerance,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "placement.json") as handle:
        handle.write(json.dumps(result.to_dict(), indent=2))
    with atomic_open(out / "search_history.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["generation", "best_advantage"])
        for gen, best in enumerate(result.search_history, start=1):
            writer.writerow([gen, repr(best)])
    _write_manifest(out, "place", args, ["placement.json", "search_history.csv"], started,
                    profiles=source)
    print(
        f"matched driver {result.matched_driver} at distance {result.match_distance:.6f} "
        f"(advantage {result.optimal_advantage:.6f})"
    )
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    started = time.time()
    if args.resolution < 2:
        raise InvalidConfig(f"--resolution must be >= 2 points per axis, got {args.resolution}")
    model, schema, _meta = load_bundle(args.bundle)
    env = _load_vector(args.env)
    _require_length(env, model.stats.d_env, "--env")
    template = _load_vector(args.template)
    _require_length(template, model.stats.d_behavior, "--template")
    template_norm = template if args.normalized else model.stats.normalize_behavior(template)
    free_indices = _free_indices(schema, args.free)
    if len(free_indices) != 2:
        raise InvalidConfig("--free must name exactly two dimensions for a surface")
    if model.behavior_box is None:
        raise InvalidConfig("bundle has no behavior search box")

    s_norm = env if args.normalized else model.stats.normalize_env(env)
    i, j = free_indices
    grid_i = np.linspace(model.behavior_box[i, 0], model.behavior_box[i, 1], args.resolution)
    grid_j = np.linspace(model.behavior_box[j, 0], model.behavior_box[j, 1], args.resolution)
    candidates = np.tile(template_norm, (args.resolution * args.resolution, 1))
    vv_i, vv_j = np.meshgrid(grid_i, grid_j, indexing="ij")
    candidates[:, i] = vv_i.ravel()
    candidates[:, j] = vv_j.ravel()
    values = model.advantage_normalized(s_norm, candidates)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name_i = schema.behavior_columns[i]
    name_j = schema.behavior_columns[j]
    with atomic_open(out / "surface.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow([name_i, name_j, "advantage"])
        writer.writerows(
            [repr(x_i), repr(x_j), repr(value)]
            for x_i, x_j, value in zip(candidates[:, i].tolist(), candidates[:, j].tolist(),
                                       values.tolist())
        )
    _write_manifest(out, "surface", args, ["surface.csv"], started)
    print(f"wrote {args.resolution * args.resolution} grid points to {out / 'surface.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetrank",
        description="Environment-debiased driver ranking and optimal driver placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--drivers", type=int, default=20)
    p.add_argument("--trips", type=int, default=100, help="trips per driver")
    p.add_argument("--d-env", type=int, default=8)
    p.add_argument("--d-behavior", type=int, default=6)
    p.add_argument("--spacing", type=float, default=0.25, help="skill gap between drivers")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--env-shift", action="store_true",
                   help="give odd drivers harder environments (equal skills)")
    p.add_argument("--interaction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="synth-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit normalization and both regressors")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--hidden", default="64,64,64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lenient", action="store_true", help="skip unparsable rows")
    p.add_argument("--out", default="bundle")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank drivers by mean debiased advantage")
    p.add_argument("--data", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--schema", help="optional cross-check against the bundle schema")
    p.add_argument("--raw-units", action="store_true")
    p.add_argument("--min-trips", type=int, default=assessment.LOW_TRIP_WARN_THRESHOLD)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", default="ranking-out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("place", help="find the best behavior for an environment and match a driver")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", help="trips to build driver profiles from (default: the profiles "
                   "train stored in the bundle; they stand in for a file with the bytes train "
                   "read, unless a strict place would reject a row that a lenient train skipped)")
    p.add_argument("--env", required=True, help="JSON file with the environment vector")
    p.add_argument("--fix-template", help="JSON behavior vector for the fixed dimensions")
    p.add_argument("--free", help="comma-separated names of the searched dimensions")
    p.add_argument("--normalized", action="store_true",
                   help="env and template are already in normalized units")
    p.add_argument("--max-generations", type=int, default=placement.DEFAULT_MAX_GENERATIONS)
    p.add_argument("--sigma0", type=float, default=placement.DEFAULT_SIGMA,
                   help="initial search step size in normalized behavior units")
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--restarts", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="placement-out")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("surface", help="advantage grid over two behavior dimensions")
    p.add_argument("--bundle", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--free", required=True, help="two comma-separated dimension names")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--out", default="surface-out")
    p.set_defaults(func=cmd_surface)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FleetrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
