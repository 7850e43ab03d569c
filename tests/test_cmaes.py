import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fleetrank.cmaes import CmaesConfig, default_population, maximize, minimize
from fleetrank.errors import InvalidConfig, NonFiniteObjective


# objectives score a (lambda, dim) batch of candidates, one value per row


def sphere(x):
    return np.sum(x * x, axis=1)


def rosenbrock(x):
    return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1.0 - x[:, :-1]) ** 2, axis=1)


def test_sphere_to_high_precision():
    config = CmaesConfig(dim=10, initial_mean=np.ones(10), initial_sigma=0.5,
                         max_generations=2000, seed=3)
    res = minimize(sphere, config)
    assert res.best_fitness < 1e-8
    assert res.generations_used <= 2000
    assert sphere(res.best_point[None, :])[0] == res.best_fitness


def test_rosenbrock():
    config = CmaesConfig(dim=5, initial_mean=np.zeros(5), initial_sigma=0.5,
                         max_generations=5000, seed=7, restarts=1)
    res = minimize(rosenbrock, config)
    assert res.best_fitness < 1e-4
    np.testing.assert_allclose(res.best_point, 1.0, atol=1e-2)


def test_bounded_quadratic():
    config = CmaesConfig(dim=1, initial_mean=np.array([5.0]), initial_sigma=0.5,
                         max_generations=500, seed=1, bounds=np.array([[0.0, 10.0]]))
    res = minimize(lambda x: (x[:, 0] - 3.0) ** 2, config)
    assert abs(res.best_point[0] - 3.0) < 1e-4


def test_maximize_mirrors_minimize():
    config = CmaesConfig(dim=1, initial_mean=np.array([5.0]), initial_sigma=0.5,
                         max_generations=500, seed=1, bounds=np.array([[0.0, 10.0]]))
    res_min = minimize(lambda x: (x[:, 0] - 3.0) ** 2, config)
    config2 = CmaesConfig(dim=1, initial_mean=np.array([5.0]), initial_sigma=0.5,
                          max_generations=500, seed=1, bounds=np.array([[0.0, 10.0]]))
    res_max = maximize(lambda x: -((x[:, 0] - 3.0) ** 2), config2)
    np.testing.assert_array_equal(res_min.best_point, res_max.best_point)
    assert res_max.best_fitness == -res_min.best_fitness


def test_maximize_concave_quadratic():
    center = np.array([0.5, -1.0, 2.0, 0.0, -0.25])
    config = CmaesConfig(dim=5, initial_mean=np.zeros(5), initial_sigma=0.5,
                         max_generations=2000, seed=5)
    res = maximize(lambda x: -np.sum((x - center) ** 2, axis=1), config)
    np.testing.assert_allclose(res.best_point, center, atol=1e-4)
    # history is the running best in the caller's sign convention
    assert res.history[-1] == res.best_fitness
    assert all(b <= a + 1e-15 for a, b in zip(res.history[1:], res.history[:-1]))


def test_constant_objective_stagnates():
    config = CmaesConfig(dim=3, initial_mean=np.zeros(3), initial_sigma=1.0,
                         max_generations=500, seed=2, target_tolerance=1e-9)
    res = maximize(lambda x: np.zeros(len(x)), config)
    assert res.termination == "stagnation"
    assert res.best_fitness == 0.0
    assert res.generations_used < 100


def test_deterministic():
    results = []
    for _ in range(2):
        config = CmaesConfig(dim=4, initial_mean=np.full(4, 2.0), initial_sigma=0.3,
                             max_generations=150, seed=13)
        results.append(minimize(sphere, config))
    a, b = results
    np.testing.assert_array_equal(a.best_point, b.best_point)
    assert a.best_fitness == b.best_fitness
    assert a.history == b.history
    assert a.generations_used == b.generations_used


def test_scale_invariance_of_sampling():
    # rank-based selection: a positive rescaling changes no sampled point,
    # so with a fixed generation budget the best point is bitwise identical
    def run(scale):
        config = CmaesConfig(dim=4, initial_mean=np.ones(4), initial_sigma=0.4,
                             max_generations=120, seed=17, target_tolerance=0.0)
        return minimize(lambda x: scale * sphere(x), config)

    a = run(1.0)
    b = run(3.7)
    assert a.generations_used == b.generations_used == 120
    np.testing.assert_array_equal(a.best_point, b.best_point)
    assert b.best_fitness == pytest.approx(3.7 * a.best_fitness, rel=1e-12)


def test_monotone_history_last_is_best():
    config = CmaesConfig(dim=6, initial_mean=np.ones(6), initial_sigma=0.5,
                         max_generations=300, seed=23)
    res = minimize(sphere, config)
    hist = np.array(res.history)
    assert np.all(np.diff(hist) <= 0)
    assert hist[-1] == res.best_fitness


def test_bounds_respected_for_every_evaluation():
    batches = []
    bounds = np.array([[-0.5, 0.25], [0.1, 2.0], [-3.0, -1.0]])

    def objective(x):
        assert not x.flags.writeable
        batches.append(x.copy())
        return sphere(x + 2.0)

    config = CmaesConfig(dim=3, initial_mean=np.array([0.0, 1.0, -2.0]), initial_sigma=0.8,
                         max_generations=60, seed=29, bounds=bounds)
    res = minimize(objective, config)
    # one call per generation, each on the whole population
    assert len(batches) == res.generations_used
    for x in batches:
        assert x.shape == (default_population(3), 3)
        assert np.all(x >= bounds[:, 0] - 1e-15)
        assert np.all(x <= bounds[:, 1] + 1e-15)


def test_non_finite_objective():
    generations = [0]
    bad_rows = []

    def objective(x):
        generations[0] += 1
        values = sphere(x)
        if generations[0] == 4:
            values[2] = np.nan
            values[4] = np.inf
            bad_rows.append(x[2].copy())
        return values

    config = CmaesConfig(dim=2, initial_mean=np.ones(2), initial_sigma=0.5,
                         max_generations=100, seed=31)
    with pytest.raises(NonFiniteObjective) as err:
        minimize(objective, config)
    # the first non-finite row, and the result of the generations before it
    np.testing.assert_array_equal(err.value.point, bad_rows[0])
    assert err.value.best is not None
    assert err.value.best.generations_used == 3
    assert np.isfinite(err.value.best.best_fitness)


@pytest.mark.parametrize(
    "objective",
    [
        lambda x: float(sphere(x)[0]),  # one scalar per generation
        lambda x: sphere(x)[:, None],
        lambda x: sphere(x)[:-1],
    ],
    ids=["scalar", "column", "short"],
)
def test_objective_must_return_one_value_per_candidate(objective):
    for search in (minimize, maximize):
        config = CmaesConfig(dim=2, initial_mean=np.ones(2), initial_sigma=0.5,
                             max_generations=10, seed=3)
        with pytest.raises(InvalidConfig, match="shape"):
            search(objective, config)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dim=st.integers(1, 4),
    transform=st.sampled_from(["affine", "exp"]),
    slope=st.floats(0.01, 1.0),
    scale=st.floats(0.01, 100.0),
    offset=st.floats(-10.0, 10.0),
)
def test_search_is_invariant_to_increasing_transforms(seed, dim, transform, slope, scale, offset):
    # selection only reads the ranks of a generation's fitness values, so a
    # strictly increasing g gives the same search on g(f) as on f; the
    # stagnation tolerance is in objective units, so it is switched off
    center = np.linspace(-0.5, 0.5, dim)

    def f(x):
        return np.sum((x - center) ** 2, axis=1)

    def g(y):
        if transform == "affine":
            return scale * y + offset
        return np.exp(slope * y)  # f <= 25 in the box, so no overflow

    def run(objective):
        config = CmaesConfig(dim=dim, initial_mean=np.zeros(dim), initial_sigma=0.5,
                             max_generations=60, seed=seed, target_tolerance=0.0,
                             bounds=np.tile([-2.0, 2.0], (dim, 1)))
        return minimize(objective, config)

    seen = []

    def recorded_f(x):
        values = f(x)
        seen.append(values)
        return values

    res_f = run(recorded_f)
    # g must stay strictly increasing on the fitness values in floating point
    distinct = np.unique(np.concatenate(seen))
    assume(np.all(np.diff(g(distinct)) > 0))
    res_g = run(lambda x: g(f(x)))
    assert res_g.best_point.tobytes() == res_f.best_point.tobytes()
    assert res_g.generations_used == res_f.generations_used
    assert res_g.termination == res_f.termination


def test_default_population_rule():
    assert default_population(1) == 4
    assert default_population(10) == 4 + int(3 * np.log(10))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=0, initial_mean=np.zeros(0), initial_sigma=1.0),
        dict(dim=2, initial_mean=np.zeros(3), initial_sigma=1.0),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=0.0),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0, population=1),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0, max_generations=0),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0,
             bounds=np.array([[0.0, 1.0], [1.0, 1.0]])),
        dict(dim=2, initial_mean=np.full(2, 5.0), initial_sigma=1.0,
             bounds=np.array([[0.0, 1.0], [0.0, 1.0]])),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0, target_tolerance=float("nan")),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0, target_tolerance=float("inf")),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0, target_tolerance=-1.0),
        dict(dim=2, initial_mean=np.zeros(2), initial_sigma=1.0, seed=-1),
    ],
)
def test_invalid_config(kwargs):
    with pytest.raises(InvalidConfig):
        CmaesConfig(**kwargs)


def test_restart_doubles_population_and_continues():
    # a deceptive objective that stagnates quickly from a flat region
    config = CmaesConfig(dim=2, initial_mean=np.zeros(2), initial_sigma=0.05,
                         max_generations=400, seed=37, target_tolerance=1e-3, restarts=1)
    res = minimize(sphere, config)
    # with the generous tolerance the first run stagnates; the restart keeps going
    assert res.termination in ("stagnation", "max_generations")
    assert res.best_fitness < 1e-3


def test_degenerate_covariance_stops_on_condition():
    # the second coordinate does not matter, so the covariance stretches along
    # it until the factor's diagonal spans more than sqrt(CONDITION_LIMIT)
    config = CmaesConfig(dim=2, initial_mean=np.ones(2), initial_sigma=0.5,
                         target_tolerance=0.0, seed=0)
    res = minimize(lambda x: x[:, 0] ** 2, config)
    assert res.termination == "condition"
    assert res.generations_used < config.max_generations
    assert res.best_fitness < 1e-20


def test_failed_factorization_stops_on_condition(monkeypatch):
    # a covariance that is not numerically positive definite ends the run
    # (or starts a restart), never the process
    calls = [0]
    cholesky = np.linalg.cholesky

    def failing_after_five(a):
        calls[0] += 1
        if calls[0] > 5:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_after_five)
    config = CmaesConfig(dim=3, initial_mean=np.ones(3), initial_sigma=0.5, seed=4)
    res = minimize(sphere, config)
    assert res.termination == "condition"
    assert res.generations_used == 5
    assert len(res.history) == 5


def test_rotated_ellipsoid_learns_the_covariance():
    # a condition-1e4 ellipsoid on rotated axes is solved only by a search
    # that samples from the learned covariance, not from sigma * I
    n = 8
    rotation, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    axis_scale = 1e4 ** (np.arange(n) / (n - 1))

    def ellipsoid(x):
        return np.sum(axis_scale * (x @ rotation.T) ** 2, axis=1)

    solved = 0
    for seed in range(10):
        config = CmaesConfig(dim=n, initial_mean=np.ones(n), initial_sigma=0.5,
                             restarts=2, seed=seed)
        solved += minimize(ellipsoid, config).best_fitness < 1e-10
    assert solved >= 9
