"""Benchmark of fleetrank's train, rank, place and surface commands.

    python3 perfbench/run.py --workload fleet-90k --seed 1 --seconds 35 --trace 0

One run is one fresh process. It generates its workload's fleet from
``--seed`` (see ``gen.py``), then drives the real commands in-process through
``fleetrank.cli.main`` in whole rounds (train, rank, place and surface, each
as many times as the workload sets) for about ``--seconds`` seconds: a new
round starts only if the last round's duration, checks left out, still fits. Every output is checked against numbers
computed apart from the program (``checks.py``), and a self-test shows that
corrupted artifacts fail those checks. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run of times scaled to a nominal host speed (``HostClock``). With
``--trace 1`` rounds alternate untraced and traced, and the metrics are the
per-layer ones from ``tracing.py`` plus the tracing overhead.
"""

from __future__ import annotations

import sys
import time

STARTED = time.perf_counter()   # set-up time includes the imports below
sys.dont_write_bytecode = True  # keep the benchmark's directory free of build output

import os

# One BLAS thread, set before numpy loads. With the default of one thread per
# core, OpenBLAS spins a second thread that takes the other core all run long,
# and every command then slows with whatever else the host runs on that core.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
RESOLUTION = 150
WARM_UP_DRIVERS = 4


@dataclass(frozen=True)
class Workload:
    drivers: int
    trips: int
    d_env: int
    d_behavior: int
    epochs: int
    # commands per round; short commands repeat so that each run holds
    # enough samples of every command for a steady median, while two rounds
    # still fit in a 35 s run on a slow host
    trains: int
    ranks: int
    places: int          # one environment each
    surfaces: int        # one pair of free behavior dimensions each
    min_spearman: float  # ranking vs true skills; set well below every seed observed


WORKLOADS = {
    # the paper's scale: CSV ingest dominates rank and place
    "fleet-90k": Workload(120, 90_000, 8, 6, epochs=2, trains=1, ranks=1, places=1,
                          surfaces=4, min_spearman=0.7),
    # deep training on a small fleet (ROADMAP shape S): the nets dominate
    # train, and objective calls dominate the 6-dimensional searches
    "train-10k": Workload(20, 10_000, 8, 6, epochs=100, trains=1, ranks=4, places=4,
                          surfaces=4, min_spearman=0.5),
    # wide schema: full 62-dimensional searches dominated by the optimizer;
    # its train takes 0.5 s, and one per round gave too few for a steady median
    "place-wide": Workload(16, 2_000, 29, 62, epochs=30, trains=2, ranks=3, places=8,
                           surfaces=4, min_spearman=0.7),
}


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[], None]
    out: Path        # output directory, hashed each round: reruns must be byte identical


def import_program():
    """Import ``fleetrank.cli`` from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fleetrank" / "cli.py").is_file():
        raise SystemExit(f"error: no fleetrank sources under {src}")
    sys.path.insert(0, str(src))
    import fleetrank.cli

    if Path(fleetrank.cli.__file__).resolve().parent != (src / "fleetrank").resolve():
        raise SystemExit("error: fleetrank was imported from outside this checkout")
    return fleetrank.cli


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def output_digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of every file a command wrote.

    ``manifest.json`` is left out: it records the command's own duration.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and p.name != "manifest.json"):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write_json(path: Path, value) -> Path:
    path.write_text(json.dumps(value), encoding="utf-8")
    return path


@dataclass
class Timed:
    seconds: float = 0.0  # wall time of the span, probes excluded
    probe_s: float = 0.0  # time spent in probes inside the span
    scale: float = 1.0    # host speed factor, see HostClock


class HostClock:
    """Host speed, from a short fixed probe task that does not use ``fleetrank``.

    The cores of a shared host slow down and speed up by half or more within
    seconds, and every command moves with them. The probe mixes what the
    commands do (CSV parsing, small matrix products, float formatting). It
    runs ``BRACKET`` times on either side of a timed span and, from a timer
    signal, every ``EVERY_S`` seconds inside it, on the same core as the
    command. A span's time, probes excluded, is multiplied by ``REFERENCE_S``
    times the mean probe speed over the span: the result is the seconds the
    span would take on a host where the probe takes ``REFERENCE_S``, about
    what it takes on this host when the host is calm.
    """

    REFERENCE_S = 0.0012
    EVERY_S = 0.05
    BRACKET = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(80, 16))
        self.text = "\n".join(",".join(f"{v:.5f}" for v in row) for row in table)
        self.weights = [rng.normal(size=(16, 64)) / 4, rng.normal(size=(64, 64)) / 8,
                        rng.normal(size=(64, 1)) / 8]
        self.durations: list[float] = []
        self.probe_s = 0.0
        self._busy = False
        for _ in range(10):  # the first probes warm the probe's own code paths
            self.probe()
        self.start_scale = self.REFERENCE_S * statistics.fmean(1.0 / d for d in self.durations[5:])

    def _task(self) -> None:
        rows = np.array([[float(v) for v in row] for row in csv.reader(io.StringIO(self.text))])
        for start in range(0, len(rows), 4):
            h = rows[start:start + 4]
            for w in self.weights:
                h = np.tanh(h @ w)
        ",".join(f"{v:.6g}" for v in rows.ravel())

    def probe(self, *_signal) -> None:
        if self._busy:  # a timer signal that arrives during a probe is dropped
            return
        self._busy = True
        started = time.perf_counter()
        self._task()
        elapsed = time.perf_counter() - started
        self.durations.append(elapsed)
        self.probe_s += elapsed
        self._busy = False

    @contextlib.contextmanager
    def span(self):
        """Time the body; the yielded ``Timed`` is filled in when it ends."""
        timed = Timed()
        for _ in range(self.BRACKET):
            self.probe()
        first = len(self.durations) - self.BRACKET
        previous = signal.signal(signal.SIGALRM, self.probe)
        probe_s = self.probe_s
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        started = time.perf_counter()
        try:
            yield timed
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            timed.probe_s = self.probe_s - probe_s
            timed.seconds = elapsed - timed.probe_s
        for _ in range(self.BRACKET):
            self.probe()
        timed.scale = self.REFERENCE_S * statistics.fmean(1.0 / d for d in self.durations[first:])


class Bench:
    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli, self.spec, self.seed, self.work = cli, workload, seed, work
        self.clock = HostClock()
        self.measured: dict[str, list[float]] = {name: [] for name in tracing.COMMANDS}  # unscaled
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = {name: [] for name in tracing.COMMANDS}
        self.train_cpu: list[float] = []
        self.digests: dict[Path, str] = {}
        self.checked: set[Path] = set()
        self.check_s = 0.0  # time spent in checks, which only the first round runs

    def call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                return -1

    def set_up(self) -> tuple[list[Op], float]:
        """Generate inputs and warm up; repeated, the median scaled time is reported."""
        times, texts = [], set()
        for _ in range(SETUP_REPEATS):
            with self.clock.span() as timed:
                ops, text_digest = self._set_up_once()
            times.append(timed.seconds * timed.scale)
            self.measured.setdefault("set-up", []).append(timed.seconds)
            texts.add(text_digest)
        if len(texts) != 1:
            self.problems.append("the generator gave different inputs for one seed")
        return ops, statistics.median(times)

    def _set_up_once(self) -> tuple[list[Op], str]:
        spec, work = self.spec, self.work
        self._warm_up(work / "warm-up")
        fleet = gen.generate(self.seed, spec.drivers, spec.trips, spec.d_env, spec.d_behavior)
        data, schema = fleet.write(work / "inputs")
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        rng = np.random.default_rng([self.seed, 1])
        envs = fleet.env[rng.choice(fleet.n_trips, spec.places, replace=False)]
        env_files = [write_json(work / "inputs" / f"env{i}.json", env.tolist())
                     for i, env in enumerate(envs)]
        template = fleet.behavior.mean(axis=0)
        template_file = write_json(work / "inputs" / "template.json", template.tolist())
        pairs = [tuple(sorted(rng.choice(spec.d_behavior, 2, replace=False).tolist()))
                 for _ in range(spec.surfaces)]
        self.fleet = fleet

        bundle, ranking = work / "bundle", work / "rank"
        ops = [
            Op("train", ["train", "--data", str(data), "--schema", str(schema),
                         "--epochs", str(spec.epochs), "--seed", str(self.seed),
                         "--out", str(bundle)],
               lambda: checks.check_train(bundle, fleet, spec.epochs), bundle),
        ] * spec.trains
        ops += [Op("rank", ["rank", "--data", str(data), "--bundle", str(bundle), "--out", str(ranking)],
                   lambda: checks.check_ranking(ranking, bundle, fleet, spec.min_spearman),
                   ranking)] * spec.ranks
        for i, (env, env_file) in enumerate(zip(envs, env_files)):
            out = work / f"place{i}"
            ops.append(Op(
                "place", ["place", "--bundle", str(bundle), "--data", str(data),
                          "--env", str(env_file), "--seed", str(i), "--out", str(out)],
                lambda out=out, env=env: checks.check_placement(out, bundle, fleet, env),
                out))
        for j, pair in enumerate(pairs):
            out = work / f"surface{j}"
            free = ",".join(fleet.behavior_columns[k] for k in pair)
            ops.append(Op(
                "surface", ["surface", "--bundle", str(bundle), "--env", str(env_files[0]),
                            "--template", str(template_file), "--free", free,
                            "--resolution", str(RESOLUTION), "--out", str(out)],
                lambda out=out, pair=pair: checks.check_surface(
                    out, bundle, fleet, envs[0], template, pair, RESOLUTION),
                out))
        return ops, digest

    def _warm_up(self, work: Path) -> None:
        """One small pass through every command: lazy imports, allocator, BLAS threads."""
        spec = self.spec
        fleet = gen.generate(self.seed, WARM_UP_DRIVERS, WARM_UP_DRIVERS * gen.MIN_TRIPS,
                             spec.d_env, spec.d_behavior)
        data, schema = fleet.write(work)
        env = write_json(work / "env.json", fleet.env[0].tolist())
        template = write_json(work / "template.json", fleet.behavior[0].tolist())
        free = ",".join(fleet.behavior_columns[:2])
        for argv in (
            ["train", "--data", str(data), "--schema", str(schema), "--epochs", "1",
             "--out", str(work / "bundle")],
            ["rank", "--data", str(data), "--bundle", str(work / "bundle"), "--out", str(work)],
            ["place", "--bundle", str(work / "bundle"), "--data", str(data), "--env", str(env),
             "--max-generations", "5", "--out", str(work)],
            ["surface", "--bundle", str(work / "bundle"), "--env", str(env), "--template",
             str(template), "--free", free, "--resolution", "3", "--out", str(work)],
        ):
            if self.call(argv) != 0:
                self.problems.append(f"warm-up {argv[0]} failed")

    def run_round(self, ops: list[Op], tracer: tracing.Tracer | None = None) -> float:
        """All ops once, each output checked; returns the summed scaled command time."""
        total = 0.0
        for op in ops:
            self.attempted += 1
            span = tracer.command(op.name) if tracer else contextlib.nullcontext()
            with self.clock.span() as timed:
                cpu = cpu_seconds()
                with span:
                    code = self.call(op.argv)
                cpu = cpu_seconds() - cpu
            wall = timed.seconds * timed.scale
            cpu = (cpu - timed.probe_s) * timed.scale
            if code != 0:
                self.failed += 1
                print(f"{op.name} exited {code}: {' '.join(op.argv)}", file=sys.stderr)
                continue
            total += wall
            self.walls[op.name].append(wall)
            self.measured[op.name].append(timed.seconds)
            if op.name == "train":
                self.train_cpu.append(cpu)
            # an output is checked the first time it is written; a rerun must
            # write it again byte for byte, so it needs no second check
            digest = output_digest(op.out)
            if self.digests.setdefault(op.out, digest) != digest:
                self.problems.append(f"{op.out.name}/ changed between identical reruns")
            elif op.out not in self.checked:
                self.checked.add(op.out)
                started = time.perf_counter()
                try:
                    op.check()
                except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                    self.problems.append(f"{op.name}: {exc}")
                self.check_s += time.perf_counter() - started
        return total

    def self_test(self, ops: list[Op]) -> None:
        """Corrupt copies of the last ranking and placement; each must fail its check."""
        fleet, bundle = self.fleet, self.work / "bundle"
        rank = next(op for op in ops if op.name == "rank")
        place = next(op for op in ops if op.name == "place")
        rank_dir, place_dir = rank.out, place.out
        env = np.array(json.loads(Path(place.argv[place.argv.index("--env") + 1]).read_text()))
        bad = self.work / "self-test"

        def corrupted(source: Path, name: str, edit) -> Path:
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(source, bad)
            path = bad / name
            path.write_text(edit(path.read_text()), encoding="utf-8")
            return bad

        def swap_top_two(text):
            lines = text.splitlines()
            first, second = lines[1].split(","), lines[2].split(",")
            first[2], second[2] = second[2], first[2]
            lines[1], lines[2] = ",".join(first), ",".join(second)
            return "\n".join(lines) + "\n"

        def edit_placement(**changes):
            return lambda text: json.dumps({**json.loads(text), **changes})

        placement = json.loads((place_dir / "placement.json").read_text())
        runner_up = placement["runner_ups"][0][0]
        cases = [
            ("ranking.csv with two means swapped",
             lambda: checks.check_ranking(corrupted(rank_dir, "ranking.csv", swap_top_two),
                                          bundle, fleet, self.spec.min_spearman)),
            ("placement.json matched to the runner-up",
             lambda: checks.check_placement(corrupted(place_dir, "placement.json", edit_placement(
                 matched_driver=runner_up)), bundle, fleet, env)),
            ("placement.json with optimal_advantage off by 1e-6",
             lambda: checks.check_placement(corrupted(place_dir, "placement.json", edit_placement(
                 optimal_advantage=placement["optimal_advantage"] + 1e-6)), bundle, fleet, env)),
        ]
        for label, check in cases:
            try:
                check()
            except checks.CheckFailed:
                continue
            self.problems.append(f"self-test: {label} passed the checks")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def host_facts() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return (f"host: {len(os.sched_getaffinity(0))} cores, python {sys.version.split()[0]}, "
            f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"thread env {threads or 'unset'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    import_s = time.perf_counter() - STARTED
    spec = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(cli, spec, args.seed, work)
        ops, setup_s = bench.set_up()
        tracer = tracing.Tracer() if args.trace else None
        plain: list[float] = []
        traced: list[float] = []
        measuring = time.perf_counter()
        while True:
            round_started, check_s = time.perf_counter(), bench.check_s
            plain.append(bench.run_round(ops))
            if tracer:
                tracer.install()
                try:
                    traced.append(bench.run_round(ops, tracer))
                finally:
                    tracer.uninstall()
            last = time.perf_counter() - round_started - (bench.check_s - check_s)
            if time.perf_counter() - measuring + last > args.seconds:
                break
        bench.self_test(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in dict.fromkeys(bench.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    if any(not samples for samples in bench.walls.values()):
        print("error: a command never succeeded, no metrics", file=sys.stderr)
        return 1

    med = statistics.median
    if tracer:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_pct"] = ((med(traced) / med(plain) - 1.0) * 100.0, "%")
        metrics["trace.spans_per_round"] = (len(tracer.spans) / len(traced), "count")
        for target in tracer.missing:
            print(f"trace: {target} is missing; its layer reads 0", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (import_s * bench.clock.start_scale + setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "train_s": (med(bench.walls["train"]), "s"),
            "train_cpu_s": (med(bench.train_cpu), "s"),
            "rank_trips_per_s": (spec.trips / med(bench.walls["rank"]), "trips/s"),
            "place_s": (med(bench.walls["place"]), "s"),
            "surface_points_per_s": (RESOLUTION**2 / med(bench.walls["surface"]), "points/s"),
        }
    print(host_facts())
    print(f"{args.workload} seed {args.seed}: {len(plain)} rounds, {bench.attempted} commands, "
          f"{bench.failed} failed, {len(bench.problems)} check failures")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    probes = bench.clock.durations
    print(f"host probe: {len(probes)} runs, median {med(probes) * 1e3:.3f} ms "
          f"({min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f}); reference {HostClock.REFERENCE_S * 1e3} ms")
    print("as measured, unscaled medians: " + ", ".join(
        f"{name} {med(samples):.4f} s" for name, samples in bench.measured.items() if samples))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
