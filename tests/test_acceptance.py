"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the criterion at its stated tolerance. The statistical
criteria run the real CLI pipeline into temp directories; reruns with
identical seeds must reproduce every artifact byte for byte.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fleetrank.cli import main
from fleetrank.cmaes import CmaesConfig, maximize, minimize
from fleetrank.models import load_bundle
from fleetrank.neural import Mlp, MlpConfig, gradient
from fleetrank.normalization import NormalizationStats
from fleetrank.placement import build_profiles, optimize_behavior, place
from fleetrank.synth import GroundTruth
from fleetrank.trip_data import DatasetSchema, load_dataset
from tests.conftest import spearman

# 29-dim environment probe and 62-dim behavior template for the wide-schema
# placement check; the two searched entries of the template are zeroed.
WIDE_ENV = [
    0.43287603, 1.16673833, 0.0, 0.0, 1.0, 0.0, -0.28311216, -2.35413651,
    1.41650827, 1.4164645, 2.1548913, 1.1848586, 2.49437459, 1.60718365,
    1.20496714, 1.20496755, 0.81056784, 2.2438689, 0.81056832, 2.2438548,
    1.35917538, 0.88847887, 0.62507642, 1.07587502, 0.86936209, 0.66701179,
    -0.52474082, 3.04497366, 0.01570298,
]
WIDE_TEMPLATE = [
    0.59222113, 0.31818032, 0.4902029, 0.0, -0.32864671, 0.0,
    -0.23821433, -0.31306424, 0.28651447, -0.06029843, -0.07660633, -0.61115171,
    0.44149855, 1.83023875, 0.0, 0.0, 0.0, 0.0,
    1.0, 1.0, 0.0, 0.0, 0.0, 1.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
    0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
    1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    1.0, 0.0, 0.0, 0.0, 1.0, 0.0,
    0.0, 1.0, 0.0, 0.0, -0.5263721, -0.60509878,
    0.43784125, 0.41665665, 0.50981417, 0.50831901, 0.6149238, 0.62443187,
    0.44167023, 0.42748259,
]

ARTIFACTS = ("data.csv", "schema.json", "groundtruth.json", "baseline.json",
             "behavior.json", "stats.json", "meta.json", "baseline_curve.csv",
             "behavior_curve.csv", "ranking.txt", "ranking.csv", "placement.json",
             "search_history.csv")


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def run_cli(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, f"command failed ({code}): {argv}"


def artifact_bytes(directory: Path) -> dict[str, bytes]:
    # manifests carry wall-clock duration by design and are excluded
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name in ARTIFACTS
    }


def bias_pipeline(root: Path):
    data = root / "data"
    bundle = root / "bundle"
    rank = root / "rank"
    run_cli("synth", "--drivers", 2, "--trips", 500, "--env-shift", "--seed", 21,
            "--out", data)
    run_cli("train", "--data", data / "data.csv", "--schema", data / "schema.json",
            "--epochs", 300, "--seed", 21, "--out", bundle)
    run_cli("rank", "--data", data / "data.csv", "--bundle", bundle, "--out", rank)
    return root


def ranking_pipeline(root: Path, seed: int):
    data = root / "data"
    bundle = root / "bundle"
    rank = root / "rank"
    run_cli("synth", "--drivers", 20, "--trips", 100, "--spacing", 0.25,
            "--noise", 0.05, "--seed", seed, "--out", data)
    run_cli("train", "--data", data / "data.csv", "--schema", data / "schema.json",
            "--epochs", 100, "--seed", seed, "--out", bundle)
    run_cli("rank", "--data", data / "data.csv", "--bundle", bundle, "--out", rank)
    return root


def placement_pipeline(root: Path):
    data = root / "data"
    bundle = root / "bundle"
    run_cli("synth", "--drivers", 12, "--trips", 800, "--spacing", 0.25,
            "--seed", 31, "--out", data)
    run_cli("train", "--data", data / "data.csv", "--schema", data / "schema.json",
            "--epochs", 60, "--seed", 31, "--out", bundle)
    env = root / "env.json"
    env.write_text(json.dumps([0.0] * 8))
    run_cli("place", "--bundle", bundle, "--data", data / "data.csv", "--env", env,
            "--seed", 5, "--sigma0", 0.8, "--population", 24, "--restarts", 1,
            "--tolerance", "1e-10", "--out", root / "placed")
    return root


@pytest.fixture(scope="module")
def bias_runs(tmp_path_factory):
    return [bias_pipeline(tmp_path_factory.mktemp(f"bias{i}")) for i in range(2)]


@pytest.fixture(scope="module")
def ranking_runs(tmp_path_factory):
    seeds = (11, 12, 13)
    return {
        seed: [ranking_pipeline(tmp_path_factory.mktemp(f"rank{seed}_{i}"), seed)
               for i in range(2)]
        for seed in seeds
    }


@pytest.fixture(scope="module")
def placement_runs(tmp_path_factory):
    return [placement_pipeline(tmp_path_factory.mktemp(f"place{i}")) for i in range(2)]


def read_ranking_means(rank_dir: Path) -> dict[str, float]:
    with (rank_dir / "ranking.csv").open() as handle:
        rows = list(csv.reader(handle))[1:]
    return {row[1]: float(row[2]) for row in rows}


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    checked = 0
    h = 1e-5
    for trial in range(100):
        config = MlpConfig(
            input_dim=int(rng.integers(1, 6)),
            hidden_widths=tuple(int(rng.integers(1, 9)) for _ in range(3)),
            output_dim=int(rng.integers(1, 4)),
            seed=trial,
        )
        net = Mlp.init(config)
        x = rng.normal(size=config.input_dim)
        target = rng.normal(size=config.output_dim)

        def eval_net():
            pattern = []
            hidden = x
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                z = w @ hidden + b
                pattern.append(z > 0)
                hidden = np.maximum(0.0, z)
            out = net.weights[-1] @ hidden + net.biases[-1]
            diff = out - target
            return float(np.mean(diff * diff)), pattern

        _, base_pattern = eval_net()
        grads = gradient(net, x, target)
        for layer in range(4):
            for tensor, analytic in ((net.weights[layer], grads[layer][0]),
                                     (net.biases[layer], grads[layer][1])):
                flat = tensor.reshape(-1)
                aflat = analytic.reshape(-1)
                for i in range(flat.size):
                    old = flat[i]
                    flat[i] = old + h
                    lp, pp = eval_net()
                    flat[i] = old - h
                    lm, pm = eval_net()
                    flat[i] = old
                    stable = all(
                        np.array_equal(a, b) and np.array_equal(a, c)
                        for a, b, c in zip(base_pattern, pp, pm)
                    )
                    if not stable:
                        continue  # finite differences straddle a ReLU kink
                    numeric = (lp - lm) / (2 * h)
                    err = abs(numeric - aflat[i]) / max(abs(numeric), abs(aflat[i]), 1e-8)
                    worst = max(worst, err)
                    checked += 1
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 30 and checked > 1000
    report(1, "gradient correctness", ok,
           f"max rel err {worst:.2e} over {checked} coords in {elapsed:.1f}s")


def test_criterion_2_normalization(tmp_path):
    started = time.time()
    run_cli("synth", "--drivers", 10, "--trips", 100, "--seed", 2, "--out", tmp_path)
    schema = DatasetSchema.load(tmp_path / "schema.json")
    ds = load_dataset(tmp_path / "data.csv", schema)
    from fleetrank.normalization import fit_stats

    stats = fit_stats(ds)
    xn = stats.normalize(ds.values)
    keep = [d for d in range(stats.dim) if d not in stats.degenerate_dims]
    mean_err = float(np.abs(xn[:, keep].mean(axis=0)).max())
    std_err = float(np.abs(xn[:, keep].std(axis=0, ddof=1) - 1.0).max())
    rng = np.random.default_rng(3)
    probes = rng.normal(scale=50.0, size=(200, stats.dim))
    round_err = float(np.abs(stats.normalize(stats.denormalize(probes)) - probes).max())
    elapsed = time.time() - started
    ok = mean_err < 1e-9 and std_err < 1e-6 and round_err < 1e-9 and elapsed < 5
    report(2, "normalization", ok,
           f"|mean| {mean_err:.1e}, |std-1| {std_err:.1e}, roundtrip {round_err:.1e}, {elapsed:.1f}s")


def test_criterion_3_cmaes_benchmarks():
    started = time.time()
    sphere_res = minimize(
        lambda x: np.sum(x * x, axis=1),
        CmaesConfig(dim=10, initial_mean=np.ones(10), initial_sigma=0.5,
                    max_generations=2000, seed=3),
    )
    rosen_res = minimize(
        lambda x: np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1.0 - x[:, :-1]) ** 2, axis=1),
        CmaesConfig(dim=5, initial_mean=np.zeros(5), initial_sigma=0.5,
                    max_generations=5000, seed=7, restarts=1),
    )
    center = np.array([0.5, -1.0, 2.0, 0.0, -0.25])
    quad_res = maximize(
        lambda x: -np.sum((x - center) ** 2, axis=1),
        CmaesConfig(dim=5, initial_mean=np.zeros(5), initial_sigma=0.5,
                    max_generations=2000, seed=5),
    )
    quad_err = float(np.abs(quad_res.best_point - center).max())
    elapsed = time.time() - started
    ok = (sphere_res.best_fitness < 1e-8 and rosen_res.best_fitness < 1e-4
          and quad_err < 1e-4 and elapsed < 60)
    report(3, "cmaes benchmarks", ok,
           f"sphere {sphere_res.best_fitness:.1e}, rosenbrock {rosen_res.best_fitness:.1e}, "
           f"argmax err {quad_err:.1e}, {elapsed:.1f}s")


def test_criterion_4_environment_bias_removal(bias_runs):
    started = time.time()
    root = bias_runs[0]
    schema = DatasetSchema.load(root / "data" / "schema.json")
    ds = load_dataset(root / "data" / "data.csv", schema)
    truth = GroundTruth.load(root / "data" / "groundtruth.json")
    stats = NormalizationStats.load(root / "bundle" / "stats.json")

    q = ds.performance[:, 0]
    easy = list(ds.driver_index[truth.driver_ids[0]])
    hard = list(ds.driver_index[truth.driver_ids[1]])
    raw_gap = abs(q[easy].mean() - q[hard].mean()) / stats.performance_std(0)

    means = read_ranking_means(root / "rank")
    adv_gap = abs(means[truth.driver_ids[0]] - means[truth.driver_ids[1]])
    elapsed = time.time() - started
    ok = raw_gap > 0.5 and adv_gap < 0.1 and np.all(truth.driver_skills == 0.0)
    report(4, "environment bias removal", ok,
           f"raw gap {raw_gap:.2f} (needs > 0.5), advantage gap {adv_gap:.4f} "
           f"(needs < 0.1), checks {elapsed:.0f}s")


def test_criterion_5_ranking_recovery(ranking_runs):
    rhos = {}
    for seed, (root, _) in ranking_runs.items():
        truth = GroundTruth.load(root / "data" / "groundtruth.json")
        means = read_ranking_means(root / "rank")
        recovered = np.array([means[d] for d in truth.driver_ids])
        rhos[seed] = spearman(recovered, truth.driver_skills)
    ok = all(rho >= 0.95 for rho in rhos.values())
    report(5, "ranking recovery", ok,
           " ".join(f"seed{seed}={rho:.3f}" for seed, rho in rhos.items()) + " (each needs >= 0.95)")


def test_criterion_6_placement(placement_runs):
    started = time.time()
    root = placement_runs[0]
    schema = DatasetSchema.load(root / "data" / "schema.json")
    ds = load_dataset(root / "data" / "data.csv", schema)
    truth = GroundTruth.load(root / "data" / "groundtruth.json")
    model, _, _ = load_bundle(root / "bundle")
    profiles = build_profiles(ds, model.stats)
    env = np.zeros(8)

    hits = 0
    for seed in range(20):
        result = place(model, profiles, env, seed=seed, sigma0=0.8, population=24,
                       restarts=1, tolerance=1e-10)
        hits += result.matched_driver == truth.optimum_driver_id

    # two-dimensional constrained optimum against a dense grid oracle
    template = np.zeros(6)
    a_star, value, _, _ = optimize_behavior(
        model, env, seed=5, template_norm=template, free_indices=[0, 1],
        sigma0=0.8, population=32, restarts=1, tolerance=1e-12, max_generations=400,
    )
    grid_n = 201
    box = model.behavior_box
    g0 = np.linspace(box[0, 0], box[0, 1], grid_n)
    g1 = np.linspace(box[1, 0], box[1, 1], grid_n)
    cand = np.tile(template, (grid_n * grid_n, 1))
    vv0, vv1 = np.meshgrid(g0, g1, indexing="ij")
    cand[:, 0] = vv0.ravel()
    cand[:, 1] = vv1.ravel()
    vals = model.advantage_normalized(model.stats.normalize_env(env), cand)
    k = int(np.argmax(vals))
    gi, gj = divmod(k, grid_n)
    cell0, cell1 = g0[1] - g0[0], g1[1] - g1[0]
    within_cell = (abs(a_star[0] - g0[gi]) <= cell0 + 1e-12
                   and abs(a_star[1] - g1[gj]) <= cell1 + 1e-12)
    elapsed = time.time() - started
    ok = hits >= 18 and within_cell and elapsed < 600
    report(6, "placement", ok,
           f"matched {hits}/20 (needs >= 18), grid offsets "
           f"({abs(a_star[0] - g0[gi]):.4f},{abs(a_star[1] - g1[gj]):.4f}) "
           f"vs cells ({cell0:.4f},{cell1:.4f}), {elapsed:.0f}s")


def test_criterion_7_advantage_wiring(placement_runs):
    started = time.time()
    model, _, _ = load_bundle(placement_runs[0] / "bundle")
    rng = np.random.default_rng(77)
    exact = True
    worst_naive = 0.0
    for _ in range(1000):
        s = rng.normal(size=8)
        a1, a2 = rng.normal(size=6), rng.normal(size=6)
        q1 = float(model.behavior.predict(s, a1)[model.metric_index])
        q2 = float(model.behavior.predict(s, a2)[model.metric_index])
        delta = model.advantage_delta(s, a1, a2)
        exact = exact and (delta == q1 - q2)
        naive = model.advantage(s, a1) - model.advantage(s, a2)
        worst_naive = max(worst_naive, abs(naive - delta))
    elapsed = time.time() - started
    ok = exact and worst_naive < 1e-9 and elapsed < 10
    report(7, "advantage wiring", ok,
           f"delta bitwise equal over 1000 triples, materialized diff <= "
           f"{worst_naive:.1e}, {elapsed:.1f}s")


def test_criterion_8_wide_schema_fixture(tmp_path):
    data = tmp_path / "data"
    run_cli("synth", "--drivers", 4, "--trips", 40, "--d-env", 29, "--d-behavior", 62,
            "--seed", 81, "--out", data)
    # name the two searched dimensions like real overspeed summaries
    schema = json.loads((data / "schema.json").read_text())
    old3, old5 = schema["behavior_columns"][3], schema["behavior_columns"][5]
    schema["behavior_columns"][3] = "overspeedtime"
    schema["behavior_columns"][5] = "overspeedmax"
    (data / "schema.json").write_text(json.dumps(schema))
    csv_lines = (data / "data.csv").read_text().splitlines()
    header = csv_lines[0].replace(old3, "overspeedtime").replace(old5, "overspeedmax")
    (data / "data.csv").write_text("\n".join([header] + csv_lines[1:]) + "\n")

    bundle = tmp_path / "bundle"
    run_cli("train", "--data", data / "data.csv", "--schema", data / "schema.json",
            "--epochs", 3, "--hidden", "16,16,16", "--seed", 81, "--out", bundle)

    env = tmp_path / "env.json"
    env.write_text(json.dumps(WIDE_ENV))
    template = tmp_path / "a0.json"
    template.write_text(json.dumps(WIDE_TEMPLATE))
    out = tmp_path / "placed"
    code = main(["place", "--bundle", str(bundle), "--data", str(data / "data.csv"),
                 "--env", str(env), "--fix-template", str(template),
                 "--free", "overspeedtime,overspeedmax", "--normalized",
                 "--max-generations", "80", "--seed", "81", "--out", str(out)])
    result_path = out / "placement.json"
    ok = code == 0 and result_path.exists()
    detail = "exit 0"
    if ok:
        result = json.loads(result_path.read_text())
        fixed = [v for i, v in enumerate(result["optimal_behavior_normalized"])
                 if i not in (3, 5)]
        expected = [v for i, v in enumerate(WIDE_TEMPLATE) if i not in (3, 5)]
        ok = len(result["optimal_behavior_normalized"]) == 62 and fixed == expected
        detail = (f"29-dim env and 62-dim template accepted, matched "
                  f"{result['matched_driver']}, 2 free dims searched")
    report(8, "wide schema fixture", ok, detail)


def test_criterion_9_determinism(bias_runs, ranking_runs, placement_runs):
    mismatched = []

    def compare(label, a: Path, b: Path):
        files_a, files_b = artifact_bytes(a), artifact_bytes(b)
        if set(files_a) != set(files_b):
            mismatched.append(f"{label}: file sets differ")
            return
        for name in files_a:
            if files_a[name] != files_b[name]:
                mismatched.append(f"{label}/{name}")

    compare("bias", *bias_runs)
    for seed, (a, b) in ranking_runs.items():
        compare(f"ranking seed {seed}", a, b)
    compare("placement", *placement_runs)
    ok = not mismatched
    report(9, "determinism", ok,
           "all artifacts byte-identical on rerun" if ok else f"differs: {mismatched}")
