"""Covariance matrix adaptation evolution strategy (CMA-ES).

A self-contained (mu/mu_w, lambda) implementation with weighted
recombination of the best half of each population, cumulative step-size
adaptation, and rank-one plus rank-mu covariance updates. Selection is
rank-based, so the search is invariant to any strictly increasing
transformation of the objective (the stagnation tolerance alone is
measured in objective units). Box constraints are handled by clamping
sampled candidates before evaluation.

The optimizer works in ask/tell form: each generation it samples a
population of lambda candidates and makes one objective call on all of
them. An objective maps a read-only candidate matrix ``X`` of shape
``(lambda, dim)`` to a fitness vector of shape ``(lambda,)``, one value
per row, so a model-backed objective can score a whole generation in one
batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NonFiniteObjective

STAGNATION_WINDOW = 20
CONDITION_LIMIT = 1e14


def default_population(dim: int) -> int:
    return 4 + int(3 * math.log(dim)) if dim > 0 else 4


@dataclass
class CmaesConfig:
    dim: int
    initial_mean: np.ndarray
    initial_sigma: float
    population: int | None = None
    max_generations: int = 1000
    target_tolerance: float = 1e-12
    seed: int = 0
    bounds: np.ndarray | None = None
    restarts: int = 0

    def __post_init__(self):
        self.initial_mean = np.asarray(self.initial_mean, dtype=float)
        if self.dim < 1:
            raise InvalidConfig("dim must be >= 1")
        if self.initial_mean.shape != (self.dim,):
            raise InvalidConfig(f"initial_mean must have shape ({self.dim},)")
        if not np.all(np.isfinite(self.initial_mean)):
            raise InvalidConfig("initial_mean must be finite")
        if not (self.initial_sigma > 0 and math.isfinite(self.initial_sigma)):
            raise InvalidConfig("initial_sigma must be positive and finite")
        if self.population is not None and self.population < 2:
            raise InvalidConfig("population must be >= 2")
        if self.max_generations < 1:
            raise InvalidConfig("max_generations must be >= 1")
        if self.restarts < 0:
            raise InvalidConfig("restarts must be >= 0")
        if self.bounds is not None:
            self.bounds = np.asarray(self.bounds, dtype=float)
            if self.bounds.shape != (self.dim, 2):
                raise InvalidConfig(f"bounds must have shape ({self.dim}, 2)")
            if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
                raise InvalidConfig("each bound must satisfy lo < hi")
            if np.any(self.initial_mean < self.bounds[:, 0]) or np.any(
                self.initial_mean > self.bounds[:, 1]
            ):
                raise InvalidConfig("initial_mean must lie within bounds")


@dataclass
class CmaesResult:
    best_point: np.ndarray
    best_fitness: float
    generations_used: int
    history: list[float] = field(default_factory=list)
    termination: str = ""


class _StrategyParams:
    """Selection weights and learning rates for one (dim, population) pair."""

    def __init__(self, n: int, lam: int):
        self.lam = lam
        self.mu = lam // 2
        w = np.log(lam / 2 + 0.5) - np.log(np.arange(1, self.mu + 1))
        self.weights = w / w.sum()
        self.mueff = 1.0 / np.sum(self.weights**2)
        self.cc = (4 + self.mueff / n) / (n + 4 + 2 * self.mueff / n)
        self.cs = (self.mueff + 2) / (n + self.mueff + 5)
        self.c1 = 2 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1 - self.c1,
            2 * (self.mueff - 2 + 1 / self.mueff) / ((n + 2) ** 2 + self.mueff),
        )
        self.damps = 1 + 2 * max(0.0, math.sqrt((self.mueff - 1) / (n + 1)) - 1) + self.cs
        self.chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n**2))


def minimize(objective, config: CmaesConfig) -> CmaesResult:
    """Minimize an objective over R^dim (optionally box-bounded).

    ``objective`` is called once per generation with the read-only
    ``(lambda, dim)`` matrix of candidates and must return their
    ``(lambda,)`` fitness values; any other shape raises
    ``InvalidConfig``. A non-finite fitness raises ``NonFiniteObjective``
    carrying the first offending row and the best result so far.

    Deterministic for a fixed (objective, config) pair. Terminates when
    the running best fitness improves by less than ``target_tolerance``
    over the last 20 generations (triggering a restart with doubled
    population while ``restarts`` remain), when the covariance becomes
    numerically degenerate, or at ``max_generations``.

    ``history`` in the result holds the running best fitness after each
    generation, so it is non-increasing and ends at ``best_fitness``.
    """
    n = config.dim
    rng = np.random.default_rng(config.seed)
    lo = hi = None
    if config.bounds is not None:
        lo, hi = config.bounds[:, 0], config.bounds[:, 1]

    best_x: np.ndarray | None = None
    best_f = math.inf
    history: list[float] = []
    generations = 0
    restarts_left = config.restarts
    lam = config.population if config.population is not None else default_population(n)
    start_mean = config.initial_mean
    termination = "max_generations"

    running = True
    while running:
        par = _StrategyParams(n, lam)
        mean = start_mean.copy()
        sigma = config.initial_sigma
        cov = np.eye(n)
        ps = np.zeros(n)
        pc = np.zeros(n)
        run_gen = 0

        while True:
            if generations >= config.max_generations:
                termination = "max_generations"
                running = False
                break
            run_gen += 1

            cov = (cov + cov.T) / 2
            eigvals, eigvecs = np.linalg.eigh(cov)
            eigvals = np.maximum(eigvals, 1e-30)
            if eigvals.max() / eigvals.min() > CONDITION_LIMIT:
                if restarts_left > 0:
                    restarts_left -= 1
                    lam *= 2
                    start_mean = best_x if best_x is not None else mean
                    break
                termination = "condition"
                running = False
                break
            scales = np.sqrt(eigvals)

            z = rng.standard_normal((lam, n))
            y = (z * scales) @ eigvecs.T
            x = mean + sigma * y
            if lo is not None:
                x = np.clip(x, lo, hi)
            x.flags.writeable = False

            fitness = np.asarray(objective(x), dtype=float)
            if fitness.shape != (lam,):
                raise InvalidConfig(
                    f"objective must return shape ({lam},) for {lam} candidates, "
                    f"got {fitness.shape}"
                )
            if not np.all(np.isfinite(fitness)):
                bad = int(np.flatnonzero(~np.isfinite(fitness))[0])
                raise NonFiniteObjective(
                    x[bad].copy(), best=_result(best_x, best_f, generations, history, "non_finite", config)
                )

            order = np.argsort(fitness, kind="stable")
            if fitness[order[0]] < best_f:
                best_f = float(fitness[order[0]])
                best_x = x[order[0]].copy()
            generations += 1
            history.append(best_f)

            # recombination: weighted mean of the best mu candidates
            selected = x[order[: par.mu]]
            mean_old = mean
            mean = par.weights @ selected
            y_w = (mean - mean_old) / sigma

            # cumulative step-size path uses C^(-1/2) * displacement
            inv_sqrt = eigvecs @ ((1.0 / scales)[:, None] * eigvecs.T)
            ps = (1 - par.cs) * ps + math.sqrt(par.cs * (2 - par.cs) * par.mueff) * (
                inv_sqrt @ y_w
            )
            hsig = float(
                np.sum(ps**2) / n / (1 - (1 - par.cs) ** (2 * run_gen)) < 2 + 4 / (n + 1)
            )
            pc = (1 - par.cc) * pc + hsig * math.sqrt(par.cc * (2 - par.cc) * par.mueff) * y_w

            # rank-one + rank-mu covariance update
            displaced = (selected - mean_old) / sigma
            c1a = par.c1 * (1 - (1 - hsig**2) * par.cc * (2 - par.cc))
            cov = (
                (1 - c1a - par.cmu) * cov
                + par.c1 * np.outer(pc, pc)
                + par.cmu * displaced.T @ (par.weights[:, None] * displaced)
            )

            sigma *= math.exp(
                min(1.0, (par.cs / par.damps) * (np.linalg.norm(ps) / par.chi_n - 1))
            )

            if run_gen > STAGNATION_WINDOW:
                improvement = history[-1 - STAGNATION_WINDOW] - history[-1]
                if improvement < config.target_tolerance:
                    if restarts_left > 0:
                        restarts_left -= 1
                        lam *= 2
                        start_mean = best_x if best_x is not None else mean
                        break
                    termination = "stagnation"
                    running = False
                    break

    return _result(best_x, best_f, generations, history, termination, config)


def _result(best_x, best_f, generations, history, termination, config) -> CmaesResult:
    if best_x is None:
        best_x = config.initial_mean.copy()
        best_f = math.nan
    return CmaesResult(
        best_point=best_x,
        best_fitness=best_f,
        generations_used=generations,
        history=list(history),
        termination=termination,
    )


def maximize(objective, config: CmaesConfig) -> CmaesResult:
    """Maximize by minimizing the negated objective; fitness values are
    reported in the caller's (maximization) sign convention."""
    try:
        res = minimize(lambda x: -np.asarray(objective(x), dtype=float), config)
    except NonFiniteObjective as exc:
        best = exc.best
        if best is not None:
            best = _flip(best)
        raise NonFiniteObjective(exc.point, best=best) from None
    return _flip(res)


def _flip(res: CmaesResult) -> CmaesResult:
    return CmaesResult(
        best_point=res.best_point,
        best_fitness=-res.best_fitness,
        generations_used=res.generations_used,
        history=[-h for h in res.history],
        termination=res.termination,
    )
