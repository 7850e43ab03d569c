"""Per-layer spans, recorded from the benchmark's side of the program.

Each target names a public function or method of one ``fleetrank`` module.
While a traced round runs, every reference to that function inside the
package (the defining module and any module that imported it by name) is
swapped for a timing wrapper, so the program itself stays unedited. A target
that no longer exists is reported missing and the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import time
from contextlib import contextmanager

TARGETS = (
    "fleetrank.trip_data:load_dataset",
    "fleetrank.normalization:fit_stats",
    "fleetrank.neural:train",
    "fleetrank.neural:Mlp.forward_batch",
    "fleetrank.models:save_bundle",
    "fleetrank.models:load_bundle",
    "fleetrank.assessment:trip_advantages",
    "fleetrank.assessment:assess_drivers",
    "fleetrank.placement:build_profiles",
    "fleetrank.placement:place",
    "fleetrank.cmaes:minimize",
)
COMMANDS = ("train", "rank", "place", "surface")


def layer_name(target: str) -> str:
    """``fleetrank.neural:Mlp.forward_batch`` -> ``neural.forward_batch``."""
    module, attr = target.split(":")
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records one span per call of each target while installed.

    A span is ``(layer, command_index, seconds, extra)``. ``extra`` carries
    the counts measured at that boundary: rows loaded, training steps,
    rows per forward pass, or the optimizer's generations and objective calls.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float, dict]] = []
        self.commands: list[tuple[str, float, float]] = []  # (name, wall, covered by outermost spans)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._depth = 0
        self._covered = 0.0
        self._command_index = -1

    def install(self) -> None:
        self.missing = []
        for target in TARGETS:
            module_name, attr = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(layer_name(target), original)
            if path:  # a method: patch the class
                self._patch(owner, leaf, original, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "fleetrank" or name.startswith("fleetrank."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    @contextmanager
    def command(self, name: str):
        """Span of one CLI command; its self time is what no outermost span covers."""
        self._command_index += 1
        self._covered = 0.0
        started = time.perf_counter()
        try:
            yield
        finally:
            self.commands.append((name, time.perf_counter() - started, self._covered))

    def _wrap(self, layer: str, original):
        extras = EXTRAS.get(layer)
        # binding costs microseconds, so only layers whose counts need the arguments bind
        signature = inspect.signature(original) if layer in NEEDS_ARGUMENTS else None
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            extra: dict = {}
            if layer == "cmaes.minimize":
                args, kwargs = _timed_objective(bound, extra), {}
            tracer._depth += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - started
                tracer._depth -= 1
                if tracer._depth == 0:
                    tracer._covered += seconds
            if extras is not None:
                extra.update(extras(bound.arguments if bound else None, result))
            tracer.spans.append((layer, tracer._command_index, seconds, extra))
            return result

        return wrapper


def _timed_objective(bound, extra: dict) -> tuple:
    """Arguments for ``minimize`` with its objective timed and counted into ``extra``."""
    arguments = dict(bound.arguments)
    objective = arguments.pop("objective")
    extra["objective_calls"] = 0
    extra["objective_s"] = 0.0

    def timed(x):
        started = time.perf_counter()
        try:
            return objective(x)
        finally:
            extra["objective_s"] += time.perf_counter() - started
            extra["objective_calls"] += 1

    return (timed, *arguments.values())


def _useful_generations(history) -> float:
    """Generations up to the last improvement of the running best, over generations used."""
    last = 0
    for i in range(1, len(history)):
        if history[i] != history[i - 1]:
            last = i
    return (last + 1) / len(history) if history else 0.0


NEEDS_ARGUMENTS = ("neural.train", "cmaes.minimize")
EXTRAS = {
    "trip_data.load_dataset": lambda a, result: {"rows": len(result)},
    "neural.train": lambda a, result: {
        "steps": a["epochs"] * math.ceil(len(a["inputs"]) / a["batch_size"])
    },
    "neural.forward_batch": lambda a, result: {"rows": len(result)},
    "cmaes.minimize": lambda a, result: {
        "generations": result.generations_used,
        "useful": _useful_generations(result.history),
    },
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from every span: medians per call unless stated."""
    by_layer: dict[str, list[tuple[int, float, dict]]] = {}
    for layer, command, seconds, extra in tracer.spans:
        by_layer.setdefault(layer, []).append((command, seconds, extra))

    def seconds(layer):
        return [s for _, s, _ in by_layer.get(layer, [])]

    def extra(layer, key):
        return [e[key] for _, _, e in by_layer.get(layer, []) if key in e]

    loads = by_layer.get("trip_data.load_dataset", [])
    trains = by_layer.get("neural.train", [])
    searches = by_layer.get("cmaes.minimize", [])
    out: dict[str, tuple[float, str]] = {
        "trip_data.load_dataset_s": (_median(seconds("trip_data.load_dataset")), "s"),
        "trip_data.us_per_row": (_median([s / e["rows"] * 1e6 for _, s, e in loads]), "us"),
        "normalization.fit_stats_s": (_median(seconds("normalization.fit_stats")), "s"),
        "neural.train_s": (_median(seconds("neural.train")), "s"),
        "neural.train_steps": (_median(extra("neural.train", "steps")), "count"),
        "neural.us_per_step": (_median([s / e["steps"] * 1e6 for _, s, e in trains]), "us"),
    }

    # forward passes are summed per place command, then the median is taken
    place_commands = [i for i, (name, _, _) in enumerate(tracer.commands) if name == "place"]
    per_place = {i: [0, 0, 0.0] for i in place_commands}
    for command, s, e in by_layer.get("neural.forward_batch", []):
        if command in per_place:
            per_place[command][0] += 1
            per_place[command][1] += e["rows"]
            per_place[command][2] += s
    sums = list(per_place.values())
    out["neural.forward_batch_calls"] = (_median([c for c, _, _ in sums]), "count")
    out["neural.forward_batch_rows"] = (_median([r for _, r, _ in sums]), "count")
    out["neural.forward_batch_s"] = (_median([s for _, _, s in sums]), "s")

    for layer in ("models.save_bundle", "models.load_bundle", "assessment.trip_advantages",
                  "assessment.assess_drivers", "placement.build_profiles", "placement.place",
                  "cmaes.minimize"):
        out[f"{layer}_s"] = (_median(seconds(layer)), "s")
    out["cmaes.generations"] = (_median(extra("cmaes.minimize", "generations")), "count")
    out["cmaes.objective_calls"] = (_median(extra("cmaes.minimize", "objective_calls")), "count")
    out["cmaes.objective_s"] = (_median(extra("cmaes.minimize", "objective_s")), "s")
    out["cmaes.self_s"] = (_median([s - e["objective_s"] for _, s, e in searches]), "s")
    out["cmaes.useful_generation_ratio"] = (_median(extra("cmaes.minimize", "useful")), "ratio")

    for name in COMMANDS:
        selfs = [wall - covered for command, wall, covered in tracer.commands if command == name]
        out[f"cli.{name}_self_s"] = (_median(selfs), "s")
    return out
