"""Command-line pipeline: synth, train, rank, place, surface.

Every command is deterministic given its seed flags. Each ``cmd_*``
returns the files it wrote and its command-specific facts, and ``main``
writes them to a manifest next to the artifacts, so any output can be
reproduced from the manifest alone. Exit codes: 0 success, 1 runtime or
numeric failure, 2 usage or configuration error, decided by the error's
type (see ``errors``). Running out of memory is a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import assessment, placement, synth
from .atomic import atomic_open
from .errors import (DimensionMismatch, FleetrankError, InvalidConfig, NonFiniteAdvantage,
                     UnknownDimension, UsageError, require_array_fits)
from .models import (
    TOOL_VERSION,
    AdvantageModel,
    TrainingParams,
    behavior_box_from,
    json_floats,
    load_bundle,
    recorded_profiles,
    recorded_trips,
    save_bundle,
    train_regressors,
)
from .neural import why_one_thread
from .normalization import fit_stats
from .trip_data import DatasetSchema, file_sha256, load_dataset, save_dataset


def _write_manifest(args: argparse.Namespace, outputs: list[str], facts: dict,
                    started: float) -> None:
    """Manifest write beside the command's artifacts; ``facts`` are command-specific entries."""
    manifest = {
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "version": TOOL_VERSION,
        **facts,
        "duration_s": round(time.time() - started, 3),
    }
    with atomic_open(Path(args.out) / "manifest.json") as handle:
        handle.write(json.dumps(manifest, indent=2))


def _thread_facts(rows: int) -> dict:
    """Whether a forward pass of ``rows`` rows splits across two threads; if not, why."""
    reason = why_one_thread(rows)
    return {"threads": 1 if reason else 2, "in_one_thread_because": reason}


def _load_vector(path: str) -> np.ndarray:
    """A 1-D vector from a flat JSON list of finite numbers, read by :func:`json_floats`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSON errors are ValueErrors
        raise InvalidConfig(f"{path}: expected a JSON list of numbers ({exc})") from None
    try:
        return json_floats(data, (None,))
    except (TypeError, OverflowError) as exc:
        raise InvalidConfig(f"{path}: expected a JSON list of numbers ({exc})") from None
    except ValueError:  # json_floats's one ValueError for a flat list: a non-finite entry
        raise InvalidConfig(f"{path}: every entry must be finite, got {data}") from None


def _require_usable_out(out: str) -> None:
    """Raise the error that making the directory ``out`` would, before the command's work.

    Its ``mkdir`` would refuse an ``out`` that is or sits under a file only after the work:
    for ``train``, after fitting both nets.
    """
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is None or existing.is_dir():
        return
    if existing == path:
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)


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


def cmd_synth(args: argparse.Namespace) -> tuple[list[str], dict]:
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
    print(f"wrote {len(ds)} trips for {ds.n_drivers} drivers to {out}")
    return ["data.csv", "schema.json", "groundtruth.json"], {}


def cmd_train(args: argparse.Namespace) -> tuple[list[str], dict]:
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
    # the behavior net, the longer fit, runs first, so its error wins when both fail
    fits = train_regressors(ds, stats, [(behav_params, True), (base_params, False)])
    (behavior, baseline), (behavior_report, baseline_report) = fits.regressors, fits.reports
    model = AdvantageModel(
        baseline=baseline,
        behavior=behavior,
        metric_index=schema.metric_index,
        behavior_box=behavior_box_from(ds, stats),
    )
    # train scores its own trips once, so that rank of them runs no forward pass
    advantages = assessment.trip_advantages(ds, baseline)
    out = Path(args.out)
    outputs = save_bundle(
        out,
        model,
        ds,
        placement.build_profiles(ds, stats),
        advantages,
        data_sha256=data_sha256,
        baseline_report=baseline_report,
        behavior_report=behavior_report,
        params=base_params,
    )
    print(
        f"trained bundle in {out}: baseline mse {baseline_report.final_loss:.6f}, "
        f"behavior mse {behavior_report.final_loss:.6f}"
    )
    return outputs, {
        "data_sha256": data_sha256,
        "fit_processes": fits.processes,
        "fit_in_one_process_because": fits.one_process_because,
    }


def cmd_rank(args: argparse.Namespace) -> tuple[list[str], dict]:
    model, schema, meta = load_bundle(args.bundle)
    if args.schema:
        given = DatasetSchema.load(args.schema)
        if given.to_dict() != schema.to_dict():
            raise InvalidConfig("--schema does not match the schema the bundle was trained on")
    trips = recorded_trips(args.bundle, schema, meta, args.data, lenient=args.lenient)
    if trips is None:
        trips = load_dataset(args.data, schema, lenient=args.lenient)
        facts = {"trips": "data", **_thread_facts(len(trips))}
        advantages = assessment.trip_advantages(trips, model.baseline, raw_units=args.raw_units)
    else:
        facts = {"trips": "bundle", "threads": 0,
                 "in_one_thread_because": "no forward pass: train stored each trip's advantage"}
        raw_std = model.stats.performance_std(model.metric_index) if args.raw_units else None
        advantages = assessment.in_units(trips.advantages, raw_std, trips.driver_ids,
                                         trips.driver_codes)
    ranking = assessment.assess_drivers(trips.driver_ids, trips.driver_codes, advantages)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = assessment.render_ranking(ranking)
    with atomic_open(out / "ranking.txt") as handle:
        handle.write(text)
    with atomic_open(out / "ranking.csv") as handle:
        csv.writer(handle).writerows(assessment.ranking_rows(ranking))
    print(text, end="")
    return ["ranking.txt", "ranking.csv"], facts


def cmd_place(args: argparse.Namespace) -> tuple[list[str], dict]:
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
    profiles = recorded_profiles(args.bundle, schema, meta, args.data, lenient=args.lenient)
    source = "data" if profiles is None else "bundle"
    if profiles is None:
        ds = load_dataset(args.data, schema, lenient=args.lenient)
        profiles = placement.build_profiles(ds, model.stats)

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
    print(
        f"matched driver {result.matched_driver} at distance {result.match_distance:.6f} "
        f"(advantage {result.optimal_advantage:.6f})"
    )
    return ["placement.json", "search_history.csv"], {"profiles": source}


def cmd_surface(args: argparse.Namespace) -> tuple[list[str], dict]:
    if args.resolution < 2:
        raise InvalidConfig(f"--resolution must be >= 2 points per axis, got {args.resolution}")
    model, schema, _meta = load_bundle(args.bundle)
    env = _load_vector(args.env)
    _require_length(env, model.stats.d_env, "--env")
    template = _load_vector(args.template)
    _require_length(template, model.stats.d_behavior, "--template")
    free_indices = _free_indices(schema, args.free)
    if len(free_indices) != 2:
        raise InvalidConfig("--free must name exactly two dimensions for a surface")

    points = args.resolution * args.resolution
    require_array_fits(points * model.stats.d_behavior, f"a grid of {points} points")

    i, j = free_indices
    name_i = schema.behavior_columns[i]
    name_j = schema.behavior_columns[j]
    grid_i = np.linspace(model.behavior_box[i, 0], model.behavior_box[i, 1], args.resolution)
    grid_j = np.linspace(model.behavior_box[j, 0], model.behavior_box[j, 1], args.resolution)
    facts = _thread_facts(points)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
        s_norm = env if args.normalized else model.stats.normalize_env(env)
        template_norm = template if args.normalized else model.stats.normalize_behavior(template)
        candidates = np.tile(template_norm, (points, 1))
        vv_i, vv_j = np.meshgrid(grid_i, grid_j, indexing="ij")
        candidates[:, i] = vv_i.ravel()
        candidates[:, j] = vv_j.ravel()
        values = model.advantage_normalized(s_norm, candidates)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteAdvantage(f"advantage at {name_i} {float(grid_i[k // args.resolution])!r}, "
                                 f"{name_j} {float(grid_j[k % args.resolution])!r}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # A float's repr holds no comma, quote or line end, so the csv module would
    # write these cells as they are. Each coordinate is formatted once, and the
    # lines of one grid row go out in one write.
    text_i = [repr(x) for x in grid_i.tolist()]
    text_j = [repr(x) for x in grid_j.tolist()]
    with atomic_open(out / "surface.csv") as handle:
        csv.writer(handle).writerow([name_i, name_j, "advantage"])
        for x_i, line in zip(text_i, values.reshape(args.resolution, -1).tolist()):
            handle.write("".join(
                f"{x_i},{x_j},{value!r}\r\n" for x_j, value in zip(text_j, line)
            ))
    print(f"wrote {points} grid points to {out / 'surface.csv'}")
    return ["surface.csv"], facts


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
    p.add_argument("--data", required=True,
                   help="trips to rank (the trips train stored in the bundle stand in for a "
                   "file with the bytes train read, unless a strict rank would reject a row "
                   "that a lenient train skipped)")
    p.add_argument("--bundle", required=True)
    p.add_argument("--schema", help="optional cross-check against the bundle schema")
    p.add_argument("--raw-units", action="store_true",
                   help="report advantages in the target metric's units: the normalized ones "
                   "times its fitted std")
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
    p.add_argument("--tolerance", type=float, default=placement.DEFAULT_TOLERANCE)
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
    started = time.time()
    try:
        _require_usable_out(args.out)
        outputs, facts = args.func(args)
    except (UsageError, FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:  # the OS errors: a path the user named is unusable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FleetrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    _write_manifest(args, outputs, facts, started)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
