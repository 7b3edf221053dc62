"""Solvers for nonsmooth constrained convex optimization.

All methods minimize a Lipschitz convex objective over an origin-centered
norm ball, with function access through a (stochastic) first-order oracle
and set access through a projection or linear-minimization oracle.

The Moreau-splitting family drives an accelerated scheme on the joint
objective ``f(x') + ||x - x'||^2 / (2 lam)``: the constrained block moves
by a single projection (or an approximate Frank-Wolfe projection) per
outer step, while the unconstrained block resolves a prox subproblem with
a sliding inner subgradient loop that never touches the set.  This is what
separates projection/LMO call counts from subgradient call counts.

Baselines: projected subgradient descent (``pgd``) and projected
subgradient descent with Frank-Wolfe approximated projections
(``fw_pgd``).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .oracles import (
    FirstOrderOracle,
    LinearMinimizationOracle,
    OracleCounters,
    ProjectionOracle,
    StochasticFirstOrderOracle,
    wrap_counting,
)

CSV_HEADER = "algorithm,k,fo_calls,sfo_calls,po_calls,lmo_calls,f_value,gap,wall_ms,seed"
PROJECTION_MODES = ("budget", "wolfe")  # a fixed Frank-Wolfe budget or a Wolfe-gap stop
STEPSIZE_RULES = ("fixed", "diminishing")


# ---------------------------------------------------------------------------
# Configuration and schedules
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Parameters of the Moreau-splitting solvers.

    ``lam`` is the smoothing parameter, ``outer_steps`` the number of outer
    iterations, ``d_tilde`` the distance-proxy constant entering the inner
    budgets, and ``sigma`` the stochastic-subgradient standard deviation
    bound (zero for deterministic oracles).  Inner iterates stay in the
    ball of radius ``domain_radius``, where the first-order oracle is valid.
    """

    lam: float
    outer_steps: int
    d_tilde: float
    lipschitz: float
    set_diameter: float
    domain_radius: float
    cprime: float = 1.0
    sigma: float = 0.0
    seed: int = 0
    projection_mode: str = "budget"  # one of PROJECTION_MODES

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.outer_steps < 1:
            raise ValueError("outer_steps must be at least 1")
        if self.d_tilde <= 0 or self.cprime <= 0:
            raise ValueError("d_tilde, cprime must be positive")
        if self.lipschitz <= 0 or self.set_diameter <= 0 or self.domain_radius <= 0:
            raise ValueError("lipschitz, set_diameter, domain_radius must be positive")
        if self.projection_mode not in PROJECTION_MODES:
            raise ValueError(f"projection_mode must be one of {PROJECTION_MODES}")

    @property
    def fw_budget(self) -> int:
        """Fixed Frank-Wolfe budget per approximate projection."""
        return compute_schedule(self.lam, self.outer_steps, 1, 1, self.lipschitz, self.sigma,
                                self.set_diameter, self.d_tilde, self.cprime).fw_budget

    @classmethod
    def from_target(cls, eps: float, lipschitz: float, set_diameter: float,
                    method: str = "mopes", c: float = 1.0, cprime: float = 1.0,
                    sigma: float = 0.0, seed: int = 0,
                    dist_estimate: float | None = None,
                    domain_radius: float | None = None,
                    projection_mode: str = "budget") -> "SolverConfig":
        """Derive the full configuration from a target accuracy.

        Sets ``lam = eps / G^2``, ``d_tilde = c * dist^2``, and the outer
        step count ``ceil(2 sqrt(10 + 8c) G dist / eps)`` for exact
        projections or ``ceil(2 sqrt(10 + 8c(1 + c')) G dist / eps)`` for
        Frank-Wolfe approximated ones, where ``dist`` (``dist_estimate``,
        by default the set diameter) estimates the distance from the start
        point to a minimizer.  ``domain_radius`` defaults to the set radius.
        """
        if eps <= 0:
            raise ValueError("target accuracy must be positive")
        if c <= 0:
            raise ValueError("c must be positive")
        dist = set_diameter if dist_estimate is None else float(dist_estimate)
        lam = eps / lipschitz ** 2
        if method == "mopes":
            k_total = math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c) * lipschitz * dist / eps)
        elif method == "moles":
            k_total = math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c * (1.0 + cprime))
                                * lipschitz * dist / eps)
        else:
            raise ValueError(f"unknown method {method!r}")
        return cls(
            lam=lam, outer_steps=k_total, d_tilde=c * dist ** 2,
            lipschitz=lipschitz, set_diameter=set_diameter,
            domain_radius=set_diameter / 2.0 if domain_radius is None else domain_radius,
            cprime=cprime, sigma=sigma, seed=seed, projection_mode=projection_mode,
        )


class Schedule(NamedTuple):
    beta: float
    gamma: float
    inner_steps: int
    theta: float
    fw_budget: int
    wolfe_tol: float


def compute_schedule(lam: float, outer_steps: int, k: int, t: int,
                     lipschitz: float, sigma: float, set_diameter: float,
                     d_tilde: float, cprime: float) -> Schedule:
    """Per-step schedule values.

    ``beta = 4 / (lam k)``, ``gamma = 2 / (k + 1)``,
    ``inner_steps = ceil((4 G^2 + sigma^2) lam^2 K k^2 / (2 d_tilde))``,
    ``theta = 2 (t + 1) / (t (t + 3))``,
    ``fw_budget = ceil(7 K D^2 / (c' d_tilde))``, and
    ``wolfe_tol = 4 c' d_tilde / (lam K k)``.
    """
    if lam <= 0 or k < 1 or t < 1 or outer_steps < 1:
        raise ValueError("lam must be positive and k, t, outer_steps at least 1")
    if d_tilde <= 0 or cprime <= 0:
        raise ValueError("d_tilde and cprime must be positive")
    beta = 4.0 / (lam * k)
    gamma = 2.0 / (k + 1)
    inner = math.ceil((4.0 * lipschitz ** 2 + sigma ** 2) * lam ** 2
                      * outer_steps * k ** 2 / (2.0 * d_tilde))
    theta = 2.0 * (t + 1) / (t * (t + 3))
    fw_budget = math.ceil(7.0 * outer_steps * set_diameter ** 2 / (cprime * d_tilde))
    wolfe_tol = 4.0 * cprime * d_tilde / (lam * outer_steps * k)
    return Schedule(beta, gamma, inner, theta, fw_budget, wolfe_tol)


# ---------------------------------------------------------------------------
# Run traces
# ---------------------------------------------------------------------------


@dataclass
class TraceRecord:
    k: int
    fo_calls: int
    sfo_calls: int
    po_calls: int
    lmo_calls: int
    f_value: float
    gap: float
    wall_ms: float
    iterate_distance: float = float("nan")  # ||x_k - x'_k|| where applicable
    f_current: float = float("nan")  # raw iterate value, when f_value is an average
    f_best: float = float("nan")


@dataclass
class RunTrace:
    """Per-outer-iteration records of a single solver run."""

    algorithm: str
    seed: int
    records: list[TraceRecord] = field(default_factory=list)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def csv_rows(self, wall_clock: bool = False) -> list[str]:
        """Rows in the stable CSV schema.

        ``wall_ms`` is written as 0.0 unless ``wall_clock`` is set, keeping
        output bytes deterministic per configuration; measured times stay
        available on the in-memory records.
        """
        rows = []
        for r in self.records:
            wall = r.wall_ms if wall_clock else 0.0
            rows.append(
                f"{self.algorithm},{r.k},{r.fo_calls},{r.sfo_calls},{r.po_calls},"
                f"{r.lmo_calls},{float(r.f_value)!r},{float(r.gap)!r},{float(wall)!r},{self.seed}"
            )
        return rows

    def write_csv(self, path, wall_clock: bool = False) -> None:
        write_csv_rows(path, self.csv_rows(wall_clock=wall_clock))


def write_csv_rows(path, rows) -> None:
    """Write the CSV header and ``rows`` to ``path`` atomically.

    The rows go to a temporary file in the target directory, which then
    replaces ``path`` in one step; a write that fails part-way leaves
    ``path`` as it was and removes the temporary file.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(row + "\n" for row in rows)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class SolverResult:
    x: np.ndarray
    x_prime: np.ndarray | None
    trace: RunTrace
    counters: OracleCounters
    x_best: np.ndarray | None = None
    f_best: float | None = None


# ---------------------------------------------------------------------------
# Oracle plumbing shared by the solvers
# ---------------------------------------------------------------------------


class _SubgradientSource:
    """Subgradient queries on a counted deterministic or stochastic oracle.

    ``sample(x, rng)`` returns a subgradient (estimate) and
    ``sample_with_value(x, rng)`` the pair ``(f(x), g)``, with ``None`` in
    place of the value for a stochastic oracle.  Both call the counting
    closure directly, so a query costs one adapter call on top of it.
    """

    def __init__(self, oracle, counters: OracleCounters):
        counted = wrap_counting(oracle, counters)
        if isinstance(counted, StochasticFirstOrderOracle):
            sample = counted._sample
            self.sample = sample
            self.sample_with_value = lambda x, rng: (None, sample(x, rng))
        elif isinstance(counted, FirstOrderOracle):
            evaluate = counted._evaluate
            self.sample = lambda x, rng: evaluate(x)[1]
            self.sample_with_value = lambda x, rng: evaluate(x)
        else:
            raise TypeError("oracle must be a FirstOrderOracle or StochasticFirstOrderOracle")


def _check_start_point(x0: np.ndarray, set_oracle) -> np.ndarray:
    """Return a float copy of ``x0`` after checking that it lies in the set
    of a projection or linear-minimization oracle, without consuming
    counted oracle calls.

    The set descriptor decides membership; without one, a projection
    oracle must leave the point in place, and a bare LMO is not checked.
    """
    x = np.array(x0, dtype=float, copy=True)
    descriptor = set_oracle.set_descriptor
    if descriptor is not None:
        feasible = descriptor.contains(x, tol=1e-8)
    elif isinstance(set_oracle, ProjectionOracle):
        feasible = np.linalg.norm(set_oracle.project(x) - x) <= 1e-8 * (1.0 + np.linalg.norm(x))
    else:
        feasible = True
    if not feasible:
        raise ValueError("start point is not in the constraint set")
    return x


def _trace_step(trace: RunTrace, k: int, counters: OracleCounters, f_value: float,
                f_ref: float | None, t_start: float, **extra) -> TraceRecord:
    """Append the record of step ``k`` with the current oracle counts.

    Raises ``NumericalError`` when the objective value or any extra
    measurement is not finite, so a diverging run fails loudly at the step
    where it diverged instead of writing NaN rows.
    """
    if not (math.isfinite(f_value) and all(map(math.isfinite, extra.values()))):
        values = ", ".join(f"{name} = {value!r}"
                           for name, value in (("f_value", f_value), *extra.items()))
        raise NumericalError(f"{trace.algorithm}: a value at step {k} is not finite ({values})")
    record = TraceRecord(k, *counters.as_tuple(), f_value,
                         f_value - f_ref if f_ref is not None else float("nan"),
                         (time.perf_counter() - t_start) * 1e3, **extra)
    trace.records.append(record)
    return record


def _rng_for(seed: int):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Inner procedures
# ---------------------------------------------------------------------------


def prox_slide(sfo, g: np.ndarray, u0: np.ndarray, beta: float, iterations: int,
               radius: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sliding inner loop: approximately resolve ``prox_{f/beta}(u0 - g/beta)``.

    Runs ``iterations`` subgradient steps on the strongly convex
    ``phi(u) = f(u) + <g, u> + (beta/2) ||u - u0||^2``:

        ``u_t = P_{B(0,R)}( u_{t-1} - (g_t + beta (u_{t-1} - target)) / ((1 + t/2) beta) )``

    with ``target = u0 - g/beta`` and running average
    ``avg_t = (1 - theta_t) avg_{t-1} + theta_t u_t`` for
    ``theta_t = 2(t+1) / (t(t+3))``, which equals the weighted sum
    ``sum_t 2(t+1) u_t / (T(T+3))``.  Consumes exactly ``iterations``
    subgradient calls and no set-oracle calls.  Returns the last iterate
    and the average.
    """
    if iterations < 1:
        raise ValueError("iteration budget must be a positive integer")
    if beta <= 0:
        raise ValueError("beta must be positive")
    u = np.array(u0, dtype=float, copy=True)
    avg = u.copy()
    target = u0 - g / beta
    sample = sfo.sample
    radius_sq = radius * radius
    for t in range(1, iterations + 1):
        ghat = sample(u, rng)
        u = u - (ghat + beta * (u - target)) * (1.0 / ((1.0 + 0.5 * t) * beta))
        nrm_sq = float(u @ u)
        if nrm_sq > radius_sq:
            u *= radius / math.sqrt(nrm_sq)
        theta = 2.0 * (t + 1) / (t * (t + 3))
        avg = (1.0 - theta) * avg + theta * u
    return u, avg


def fw_quadratic_projection(target: np.ndarray, u0: np.ndarray,
                            lmo: LinearMinimizationOracle,
                            budget: int | None = None, beta: float = 1.0,
                            wolfe_tol: float | None = None,
                            max_iter: int = 50_000_000) -> np.ndarray:
    """Frank-Wolfe for the projection problem ``min_{u in X} ||u - target||^2``.

    Runs the open-loop update ``u_t = ((t-1) u_{t-1} + 2 s_t) / (t + 1)``
    with ``s_t`` the LMO point at ``u_{t-1} - target``.  Either a fixed
    number of steps (exactly ``budget`` LMO calls) or until the Wolfe dual
    gap ``beta <u - target, u - s>`` drops to ``wolfe_tol`` (one LMO per
    gap check, checked before the first step).  The output is always a
    convex combination of LMO vertices plus the start point, hence
    feasible.
    """
    if (budget is None) == (wolfe_tol is None):
        raise ValueError("specify exactly one of budget or wolfe_tol")
    u = np.array(u0, dtype=float, copy=True)
    minimize = lmo.minimize
    if budget is not None:
        if budget < 1:
            raise ValueError("budget must be a positive integer")
        for t in range(1, budget + 1):
            s = minimize(u - target)
            u = ((t - 1) * u + 2.0 * s) / (t + 1)
        return u
    t = 0
    while True:
        s = minimize(u - target)
        gap = beta * float((u - target) @ (u - s))
        if gap <= wolfe_tol:
            return u
        if math.isnan(gap):
            raise NumericalError("Frank-Wolfe projection: the Wolfe gap is NaN")
        t += 1
        if t > max_iter:
            raise NumericalError(
                f"Frank-Wolfe projection did not reach tolerance {wolfe_tol:g} "
                f"within {max_iter} steps")
        u = ((t - 1) * u + 2.0 * s) / (t + 1)


# ---------------------------------------------------------------------------
# Moreau-splitting solvers
# ---------------------------------------------------------------------------


def _moreau_splitting(problem, oracle, counters: OracleCounters, step,
                      config: SolverConfig, x0: np.ndarray, algorithm: str,
                      f_ref: float | None) -> SolverResult:
    """The accelerated Moreau-splitting loop shared by ``mopes`` and ``moles``.

    ``step(target, z_prev, sched)`` is the counted constrained move: an
    (approximate) projection of ``target`` onto the set, started from
    ``z_prev`` where that matters, under the step's ``Schedule``.  The
    unconstrained block resolves its prox subproblem with ``prox_slide``,
    which never touches the set.
    """
    source = _SubgradientSource(oracle, counters)
    rng = _rng_for(config.seed)
    lam = config.lam
    total = config.outer_steps

    x = x0
    x_prime = x.copy()
    z = x.copy()
    z_prime = x.copy()

    trace = RunTrace(algorithm, config.seed)
    t_start = time.perf_counter()
    for k in range(1, total + 1):
        sched = compute_schedule(lam, total, k, 1, config.lipschitz, config.sigma,
                                 config.set_diameter, config.d_tilde, config.cprime)
        beta, gamma = sched.beta, sched.gamma
        y = (1.0 - gamma) * x + gamma * z
        y_prime = (1.0 - gamma) * x_prime + gamma * z_prime
        grad_x_block = (y - y_prime) / lam
        z = step(z - grad_x_block / beta, z, sched)
        grad_prime_block = (y_prime - y) / lam
        z_prime, z_prime_avg = prox_slide(source, grad_prime_block, z_prime, beta,
                                          sched.inner_steps, config.domain_radius, rng)
        x = (1.0 - gamma) * x + gamma * z
        x_prime = (1.0 - gamma) * x_prime + gamma * z_prime_avg
        _trace_step(trace, k, counters, float(problem.value(x)), f_ref, t_start,
                    iterate_distance=float(np.linalg.norm(x - x_prime)))
    return SolverResult(x=x, x_prime=x_prime, trace=trace, counters=counters)


def mopes(problem, oracle, po: ProjectionOracle, config: SolverConfig, x0: np.ndarray,
          f_ref: float | None = None) -> SolverResult:
    """Projection-efficient Moreau-splitting subgradient method.

    Uses one exact projection per outer step and
    ``sum_k ceil((4 G^2 + sigma^2) lam^2 K k^2 / (2 d_tilde))`` subgradient
    calls in total, so the projection count is exactly ``outer_steps``.
    """
    x0 = _check_start_point(x0, po)
    counters = OracleCounters()
    project = wrap_counting(po, counters).project

    def step(target, z_prev, sched):
        return project(target)

    return _moreau_splitting(problem, oracle, counters, step, config, x0, "mopes", f_ref)


def moles(problem, oracle, lmo: LinearMinimizationOracle, config: SolverConfig,
          x0: np.ndarray, f_ref: float | None = None) -> SolverResult:
    """LMO-efficient variant: projections approximated by Frank-Wolfe.

    Identical to ``mopes`` except the constrained move.  Fixed-budget runs
    consume exactly ``outer_steps * config.fw_budget`` LMO calls; Wolfe
    mode stops each projection at the dual-gap tolerance
    ``4 c' d_tilde / (lam K k)`` instead.
    """
    x0 = _check_start_point(x0, lmo)
    counters = OracleCounters()
    counted = wrap_counting(lmo, counters)

    if config.projection_mode == "wolfe":
        def step(target, z_prev, sched):
            return fw_quadratic_projection(target, z_prev, counted, beta=sched.beta,
                                           wolfe_tol=sched.wolfe_tol)
    else:
        def step(target, z_prev, sched):
            return fw_quadratic_projection(target, z_prev, counted, budget=sched.fw_budget)

    return _moreau_splitting(problem, oracle, counters, step, config, x0, "moles", f_ref)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def pgd(problem, oracle, po: ProjectionOracle, x0: np.ndarray, steps: int,
        lipschitz: float, set_diameter: float, stepsize_rule: str = "fixed",
        seed: int = 0, f_ref: float | None = None, trace_every: int = 1) -> SolverResult:
    """Projected subgradient descent with a fixed or diminishing stepsize.

    ``x_{k+1} = P_X(x_k - alpha_k g_k)`` with ``alpha_k`` equal to
    ``D / (G sqrt(steps))`` (fixed) or ``D / (G sqrt(k))`` (diminishing).
    Consumes exactly ``steps`` subgradient and ``steps`` projection calls.
    Returns the stepsize-weighted average iterate, with the best observed
    iterate on the result as well.

    Trace rows carry the value of the running averaged iterate (the point
    the method's guarantee speaks about) in ``f_value``; the raw iterate
    and best-so-far values ride along as ``f_current`` and ``f_best``.
    """
    if steps < 1 or trace_every < 1:
        raise ValueError("steps and trace_every must be positive integers")
    if stepsize_rule not in STEPSIZE_RULES:
        raise ValueError(f"stepsize_rule must be one of {STEPSIZE_RULES}")
    x = _check_start_point(x0, po)
    counters = OracleCounters()
    source = _SubgradientSource(oracle, counters)
    project = wrap_counting(po, counters).project
    rng = _rng_for(seed)

    weighted = np.zeros_like(x)
    weight_sum = 0.0
    best_val = math.inf
    best_x = x.copy()
    trace = RunTrace(f"pgd_{stepsize_rule}", seed)
    fixed_alpha = set_diameter / (lipschitz * math.sqrt(steps))
    t_start = time.perf_counter()
    for k in range(1, steps + 1):
        alpha = fixed_alpha if stepsize_rule == "fixed" else \
            set_diameter / (lipschitz * math.sqrt(k))
        value, grad = source.sample_with_value(x, rng)
        if value is None and (k % trace_every == 0 or k == steps):
            value = float(problem.value(x))
        if value is not None and value < best_val:
            best_val = value
            best_x = x.copy()
        weighted += alpha * x
        weight_sum += alpha
        x = project(x - alpha * grad)
        if k % trace_every == 0 or k == steps:
            _trace_step(trace, k, counters, float(problem.value(weighted / weight_sum)),
                        f_ref, t_start, f_current=float(value), f_best=best_val)
    return SolverResult(x=weighted / weight_sum, x_prime=None, trace=trace,
                        counters=counters, x_best=best_x, f_best=best_val)


def fw_pgd(problem, oracle, lmo: LinearMinimizationOracle, x0: np.ndarray, steps: int,
           lipschitz: float, sigma: float, set_diameter: float,
           mode: str = "budget", seed: int = 0,
           f_ref: float | None = None, trace_every: int = 1,
           max_lmo: int | None = None, target_gap: float | None = None) -> SolverResult:
    """Projected subgradient descent with Frank-Wolfe approximate projections.

    Each step approximately projects ``x_k - alpha g_k`` back onto the set,
    to Wolfe-gap tolerance ``(G^2 + sigma^2) alpha`` (``mode="wolfe"``) or
    with the fixed per-step budget ``7 D^2 / (alpha^2 (G^2 + sigma^2))``
    LMO calls, rounded up to the next integer (``mode="budget"``; that is
    ``28 * steps + 1`` calls per step).  The stepsize is
    ``alpha = D / (2 sqrt(G^2 + sigma^2) sqrt(steps))`` and the returned
    point is the average of the visited iterates.  Consumes exactly one
    subgradient call per step and ``steps - 1`` projections: the iterate
    after the last step would not enter the average, so it is not computed.

    As in ``pgd``, trace rows carry the value of the running averaged
    iterate in ``f_value`` and the raw iterate's value in ``f_current``.
    ``max_lmo`` and ``target_gap`` allow stopping a run early once the LMO
    spend or the traced gap crosses a threshold; counters then reflect the
    truncated run, and its last row is the returned point.
    """
    if steps < 1 or trace_every < 1:
        raise ValueError("steps and trace_every must be positive integers")
    if mode not in PROJECTION_MODES:
        raise ValueError(f"mode must be one of {PROJECTION_MODES}")
    x = _check_start_point(x0, lmo)
    counters = OracleCounters()
    source = _SubgradientSource(oracle, counters)
    counted_lmo = wrap_counting(lmo, counters)
    rng = _rng_for(seed)

    noise = lipschitz ** 2 + sigma ** 2
    alpha = set_diameter / (2.0 * math.sqrt(noise) * math.sqrt(steps))
    wolfe_tol = noise * alpha
    # Next integer above the budget ratio; one extra step guards the
    # boundary where the ratio is itself integral.
    step_budget = math.floor(7.0 * set_diameter ** 2 / (alpha ** 2 * noise)) + 1

    weighted = np.zeros_like(x)
    weight_sum = 0.0
    trace = RunTrace(f"fw_pgd_{mode}", seed)
    t_start = time.perf_counter()
    for k in range(1, steps + 1):
        value, grad = source.sample_with_value(x, rng)
        weighted += alpha * x
        weight_sum += alpha
        spent = max_lmo is not None and counters.lmo_calls >= max_lmo
        if spent or k % trace_every == 0 or k == steps:
            if value is None:
                value = problem.value(x)
            record = _trace_step(trace, k, counters, float(problem.value(weighted / weight_sum)),
                                 f_ref, t_start, f_current=float(value))
            if spent or k == steps or (target_gap is not None and record.gap <= target_gap):
                break
        target = x - alpha * grad
        if mode == "wolfe":
            x = fw_quadratic_projection(target, x, counted_lmo,
                                        beta=1.0 / alpha, wolfe_tol=wolfe_tol)
        else:
            x = fw_quadratic_projection(target, x, counted_lmo, budget=step_budget)
    return SolverResult(x=weighted / weight_sum, x_prime=None, trace=trace, counters=counters)
