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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .oracles import (
    FirstOrderOracle,
    LinearMinimizationOracle,
    OracleCounters,
    ProjectionOracle,
    StochasticFirstOrderOracle,
    _philox,
    wrap_counting,
)

CSV_HEADER = "algorithm,k,fo_calls,sfo_calls,po_calls,lmo_calls,f_value,gap,wall_ms,seed"
PROJECTION_MODES = ("budget", "wolfe")  # a fixed Frank-Wolfe budget or a Wolfe-gap stop
STEPSIZE_RULES = ("fixed", "diminishing")
FW_MAX_STEPS = 50_000_000  # a Wolfe-mode projection that needs more steps fails
# Rows that format_bodies holds as Python numbers at once, that a file write
# joins into one string, and that a running trace holds as tuples.
_FORMAT_BLOCK = 4096


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
        if self.lipschitz <= 0 or self.set_diameter <= 0 or self.domain_radius <= 0:
            raise ValueError("lipschitz, set_diameter, domain_radius must be positive")
        if self.projection_mode not in PROJECTION_MODES:
            raise ValueError(f"projection_mode must be one of {PROJECTION_MODES}")
        # ``compute_schedule`` range-checks lam, outer_steps, d_tilde and
        # cprime.  The last outer step has the largest inner budget; it and
        # the Frank-Wolfe budget raise OverflowError here if they are infinite.
        self.schedule(self.outer_steps)

    def schedule(self, k: int) -> Schedule:
        """The ``compute_schedule`` values of outer step ``k``."""
        return compute_schedule(self.lam, self.outer_steps, k, 1, self.lipschitz, self.sigma,
                                self.set_diameter, self.d_tilde, self.cprime)

    @property
    def fw_budget(self) -> int:
        """Fixed Frank-Wolfe budget per approximate projection."""
        return self.schedule(1).fw_budget

    @classmethod
    def from_target(cls, eps: float, lipschitz: float, set_diameter: float,
                    method: str = "mopes", c: float = 1.0, cprime: float = 1.0,
                    sigma: float = 0.0, seed: int = 0,
                    dist_estimate: float | None = None,
                    domain_radius: float | None = None,
                    projection_mode: str = "budget") -> "SolverConfig":
        """Derive the full configuration from a target accuracy.

        Sets ``lam = eps / G^2``, ``d_tilde = c * dist^2``, and the outer
        step count ``ceil(2 sqrt(10 + 8c(1 + c')) G dist / eps)`` for
        Frank-Wolfe approximated projections, with ``c' = 0`` for exact
        ones (``mopes``), where ``dist`` (``dist_estimate``,
        by default the set diameter) estimates the distance from the start
        point to a minimizer.  ``domain_radius`` defaults to the set radius.
        """
        if eps <= 0:
            raise ValueError("target accuracy must be positive")
        if c <= 0:
            raise ValueError("c must be positive")
        if method not in ("mopes", "moles"):
            raise ValueError(f"unknown method {method!r}")
        dist = set_diameter if dist_estimate is None else float(dist_estimate)
        lam = eps / lipschitz ** 2
        fw_share = cprime if method == "moles" else 0.0  # exact projections: c' = 0
        k_total = math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c * (1.0 + fw_share))
                            * lipschitz * dist / eps)
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
    fw_budget: int
    wolfe_tol: float


def compute_schedule(lam: float, outer_steps: int, k: int, t: int,
                     lipschitz: float, sigma: float, set_diameter: float,
                     d_tilde: float, cprime: float) -> Schedule:
    """Per-step schedule values.

    ``beta = 4 / (lam k)``, ``gamma = 2 / (k + 1)``,
    ``inner_steps = ceil((4 G^2 + sigma^2) lam^2 K k^2 / (2 d_tilde))``,
    ``fw_budget = ceil(7 K D^2 / (c' d_tilde))``, and
    ``wolfe_tol = 4 c' d_tilde / (lam K k)``.  ``t`` is unused and only
    range-checked, for compatibility; ``prox_slide`` computes ``theta_t``.
    """
    if lam <= 0 or k < 1 or t < 1 or outer_steps < 1:
        raise ValueError("lam must be positive and k, t, outer_steps at least 1")
    if d_tilde <= 0 or cprime <= 0:
        raise ValueError("d_tilde and cprime must be positive")
    beta = 4.0 / (lam * k)
    gamma = 2.0 / (k + 1)
    inner = math.ceil((4.0 * lipschitz ** 2 + sigma ** 2) * lam ** 2
                      * outer_steps * k ** 2 / (2.0 * d_tilde))
    fw_budget = math.ceil(7.0 * outer_steps * set_diameter ** 2 / (cprime * d_tilde))
    wolfe_tol = 4.0 * cprime * d_tilde / (lam * outer_steps * k)
    return Schedule(beta, gamma, inner, fw_budget, wolfe_tol)


# ---------------------------------------------------------------------------
# Run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunTrace:
    """A solver run's rows, one per outer iteration (per step for ``pgd`` and
    ``fw_pgd``), in two read-only blocks: int64 ``counts`` ``(rows, 5)`` holds
    ``k`` and the four cumulative oracle counts, float64 ``values`` ``(rows,
    2)`` holds ``f_value`` and ``wall_ms``.  Whoever writes the trace names
    its ``algorithm`` and ``seed`` and gives the ``f_ref`` of its ``gap``.
    """

    counts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.counts.flags.writeable = self.values.flags.writeable = False

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> RunTrace:
        """The trace of ``(k, *counts, f_value, wall_ms)`` rows."""
        table = np.array(rows, dtype=object).reshape(-1, 7)
        return cls(table[:, :5].astype(np.int64), table[:, 5:].astype(float))

    def columns(self, f_ref: float, wall_clock: bool = True) -> list[np.ndarray]:
        """The eight numeric CSV columns, ``k`` to ``wall_ms``: ``k`` and the
        counts as int64, ``gap = f_value - f_ref``, and ``wall_ms`` as 0.0
        unless ``wall_clock`` is set."""
        f_value, wall_ms = self.values.T
        return [*self.counts.T, f_value, f_value - f_ref,
                wall_ms if wall_clock else np.zeros_like(wall_ms)]

    def write_csv(self, path, algorithm: str, seed: int, f_ref: float,
                  wall_clock: bool = False, bodies: list[str] | None = None) -> None:
        """Write the trace to ``path``, ``wall_ms`` 0.0 unless ``wall_clock`` is set
        (so the bytes are deterministic), from ``bodies`` if given: the
        ``format_bodies`` of its ``columns(f_ref, wall_clock)``."""
        if bodies is None:
            bodies = format_bodies(self.columns(f_ref, wall_clock))
        write_csv_rows(path, [(algorithm, bodies, seed)])


def format_bodies(columns) -> Iterator[str]:
    """The CSV fields between ``algorithm`` and ``seed`` of each row of the
    eight numeric ``columns``, ``k`` to ``wall_ms``, formatted ``_FORMAT_BLOCK``
    rows at a time.  A value prints as its Python type does: an int64 count
    as ``14``, a float64 one as ``14.0``, and every float as its ``repr``."""
    return chain.from_iterable(
        [f",{k},{fo},{sfo},{po},{lmo},{f_value!r},{gap!r},{wall_ms!r},"
         for k, fo, sfo, po, lmo, f_value, gap, wall_ms in zip(
             *(column[start:start + _FORMAT_BLOCK].tolist() for column in columns))]
        for start in range(0, len(columns[0]), _FORMAT_BLOCK))


def write_csv_rows(path, blocks) -> None:
    """Write the CSV header and the rows of ``blocks`` to ``path`` atomically.

    Each block is ``(algorithm, bodies, seed)`` and stands for the rows
    ``f"{algorithm}{body}{seed}"`` of each of ``bodies``, which are written
    ``_FORMAT_BLOCK`` rows at a time as one string: the bodies joined by
    ``f"{seed}\\n{algorithm}"``.  The rows go to a temporary file in the
    target directory, which then replaces ``path`` in one step; a write that
    fails part-way leaves ``path`` as it was and removes the temporary file.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for algorithm, bodies, seed in blocks:
                separator, bodies = f"{seed}\n{algorithm}", iter(bodies)
                while chunk := list(islice(bodies, _FORMAT_BLOCK)):
                    fh.write(f"{algorithm}{separator.join(chunk)}{seed}\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class SolverResult:
    x: np.ndarray
    trace: RunTrace
    counters: OracleCounters


# ---------------------------------------------------------------------------
# Oracle plumbing shared by the solvers
# ---------------------------------------------------------------------------


def _count_first_order(oracle, counters: OracleCounters):
    """``wrap_counting`` of a solver's subgradient oracle, which must be a
    first-order oracle, deterministic or stochastic: both have ``sample``."""
    if not isinstance(oracle, (FirstOrderOracle, StochasticFirstOrderOracle)):
        raise TypeError("oracle must be a FirstOrderOracle or StochasticFirstOrderOracle")
    return wrap_counting(oracle, counters)


def _check_start_point(x0: np.ndarray, set_oracle) -> np.ndarray:
    """Return a float copy of ``x0`` after checking with the set descriptor
    of a projection or linear-minimization oracle that it lies in the set;
    no oracle call is made."""
    x = np.array(x0, dtype=float, copy=True)
    if not set_oracle.set_descriptor.contains(x):
        raise ValueError("start point is not in the constraint set")
    return x


class _TraceRows:
    """The rows of a running trace.  ``add`` appends one step's row as a tuple,
    and each ``_FORMAT_BLOCK`` tuples become one ``RunTrace`` block, so a long
    run holds its earlier rows as compactly as its finished trace does."""

    def __init__(self):
        self.rows: list[tuple] = []
        self.blocks: list[RunTrace] = []
        self.started = time.perf_counter()

    def add(self, k: int, counters: OracleCounters, problem, point: np.ndarray) -> float:
        """Append the row of step ``k``: ``k``, the oracle counts, the uncounted
        ``problem.value`` of ``point``, returned, and the ms since the run started.

        Raises ``NumericalError`` when the objective value is not finite, so a
        run fails loudly instead of writing NaN rows.  A non-finite subgradient
        fails earlier, in the projection, Frank-Wolfe projection or inner loop
        it enters.
        """
        f_value = float(problem.value(point))
        if not math.isfinite(f_value):
            raise NumericalError(f"a value at step {k} is not finite (f_value = {f_value!r})")
        rows = self.rows
        rows.append((k, *counters.as_tuple(), f_value,
                     (time.perf_counter() - self.started) * 1e3))
        if len(rows) == _FORMAT_BLOCK:
            self.blocks.append(RunTrace.from_rows(rows))
            rows.clear()
        return f_value

    def trace(self) -> RunTrace:
        """The trace of every row added so far."""
        blocks = [*self.blocks, RunTrace.from_rows(self.rows)]
        return RunTrace(np.concatenate([block.counts for block in blocks]),
                        np.concatenate([block.values for block in blocks]))


# ---------------------------------------------------------------------------
# Inner procedures
# ---------------------------------------------------------------------------


# Doubles of iterates that prox_slide holds for its average (one iterate if longer).
_AVERAGE_BLOCK = 4096


def prox_slide(sfo, g: np.ndarray, u0: np.ndarray, beta: float, iterations: int,
               radius: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sliding inner loop: approximately resolve ``prox_{f/beta}(u0 - g/beta)``.

    Runs ``iterations`` subgradient steps on the strongly convex
    ``phi(u) = f(u) + <g, u> + (beta/2) ||u - u0||^2``:

        ``u_t = P_{B(0,R)}( u_{t-1} - (g_t + beta (u_{t-1} - target)) / ((1 + t/2) beta) )``

    with ``target = u0 - g/beta``.  Returns the last iterate and the weighted
    average ``sum_t 2(t+1) u_t / (T(T+3))``, which is the running average
    ``avg_t = (1 - theta_t) avg_{t-1} + theta_t u_t`` for
    ``theta_t = 2(t+1) / (t(t+3))``.  Consumes exactly ``iterations``
    subgradient calls and no set-oracle calls.  A step whose iterate has a
    NaN or infinite norm raises ``NumericalError``.

    The loop carries ``w = u - target`` (set again after a clip), so a step
    is ``w <- (t/(t+2)) w - g_t / ((1 + t/2) beta)``, ``u_t = w + target``:
    the update above, rounded differently.  Each ``u_t`` goes to the next row
    of a block of at most ``_AVERAGE_BLOCK`` doubles, and each full block,
    and the last rows, enter the sum as one ``weights @ rows``.

    ``sfo`` is any oracle with ``sample(x, rng)``: a stochastic oracle, or a
    ``FirstOrderOracle``, whose ``sample`` draws nothing.  From the second
    step on, the point handed to ``sfo.sample`` is a block row, which a later
    step overwrites: an oracle that keeps a query point must copy it.
    ``u0`` and ``g`` are only read; the returned arrays are new.
    """
    if iterations < 1:
        raise ValueError("iteration budget must be a positive integer")
    if beta <= 0:
        raise ValueError("beta must be positive")
    u = np.array(u0, dtype=float, copy=True)
    target = u0 - g / beta
    w = u - target
    block = np.empty((min(iterations, max(1, _AVERAGE_BLOCK // u.size)), u.size))
    rows, per_block = list(block), len(block)
    total = np.zeros_like(u)
    spare, scaled = np.empty_like(u), np.empty_like(u)
    subtract, multiply, add = np.subtract, np.multiply, np.add
    sample = sfo.sample
    radius_sq = radius * radius
    # The bits of every splitting trace follow from these operations, their
    # order and the block length.  Apart from the clip and the block sum, no
    # operation writes into one of its own inputs: on a one-element array
    # numpy takes a slow overlap path for that, which costs about 1 us.
    filled = 0  # rows written since the block last entered the sum
    for t in range(1, iterations + 1):
        ghat = sample(u, rng)
        multiply(w, t / (t + 2.0), out=spare)
        multiply(ghat, 1.0 / ((1.0 + 0.5 * t) * beta), out=scaled)
        subtract(spare, scaled, out=w)
        u = add(w, target, out=rows[filled])
        nrm_sq = u.dot(u)
        if not nrm_sq <= radius_sq:  # also true for a NaN norm
            if not math.isfinite(nrm_sq):
                raise NumericalError(f"prox_slide: the iterate's norm at inner step {t} "
                                     f"is not finite ({nrm_sq!r})")
            u *= radius / math.sqrt(nrm_sq)
            subtract(u, target, out=w)
        filled += 1
        if filled == per_block or t == iterations:  # weights t + 1; the 2 is in the scale
            total += np.arange(t - filled + 2, t + 2, dtype=float) @ block[:filled]
            filled = 0
    total *= 2.0 / (iterations * (iterations + 3))
    return u.copy(), total


def fw_quadratic_projection(target: np.ndarray, u0: np.ndarray,
                            lmo: LinearMinimizationOracle,
                            budget: int | None = None, beta: float = 1.0,
                            wolfe_tol: float | None = None) -> np.ndarray:
    """Frank-Wolfe for the projection problem ``min_{u in X} ||u - target||^2``.

    Runs the open-loop update ``u_t = ((t-1) u_{t-1} + 2 s_t) / (t + 1)``
    with ``s_t`` the LMO point at ``u_{t-1} - target``.  Either a fixed
    number of steps (exactly ``budget`` LMO calls) or until the Wolfe dual
    gap ``beta <u - target, u - s>`` drops to ``wolfe_tol`` (one LMO per
    gap check, checked before the first step; more than ``FW_MAX_STEPS``
    steps raise ``NumericalError``).  The output is always a convex
    combination of LMO vertices plus the start point, hence feasible.  A
    NaN or infinite entry of ``target`` raises ``NumericalError``.

    The loop carries ``P_t = t(t+1) u_t = sum_{j<=t} 2j s_j`` instead of
    the iterate.  Step ``t`` queries the LMO at ``P_{t-1} - (t-1)t target``,
    a positive multiple of ``u_{t-1} - target`` (step 1 at ``u0 - target``;
    the start point enters only there and in the first Wolfe check), and
    adds ``2t value`` into ``P[index]`` for the LMO's atom ``(index,
    value)``: on the l1 ball one scalar.  The result is ``P_T / (T(T+1))``;
    a Wolfe check forms ``u_{t-1} = P_{t-1} / ((t-1)t)``.  The query array
    is overwritten by the next step, so an LMO that keeps it must copy it.
    """
    if (budget is None) == (wolfe_tol is None):
        raise ValueError("specify exactly one of budget or wolfe_tol")
    if budget is not None and budget < 1:
        raise ValueError("budget must be a positive integer")
    if not np.isfinite(target).all():
        raise NumericalError("Frank-Wolfe projection: the target is not finite")
    query = np.subtract(u0, target, dtype=float)
    total = np.zeros_like(query)  # P_t
    scaled = np.empty_like(query)
    minimize = lmo.minimize
    multiply, subtract = np.multiply, np.subtract
    # Under the Wolfe rule the loop leaves only by a return or a raise: LMO
    # call FW_MAX_STEPS + 1 raises unless its gap is within the tolerance.
    steps = FW_MAX_STEPS + 1 if budget is None else budget
    for t in range(1, steps + 1):
        index, value = minimize(query)
        if wolfe_tol is not None:
            u = np.array(u0, dtype=float, copy=True) if t == 1 else total / ((t - 1) * t)
            away = u.copy()  # u - s
            away[index] -= value
            gap = beta * float((u - target) @ away)
            if gap <= wolfe_tol:
                return u
            if math.isnan(gap):
                raise NumericalError("Frank-Wolfe projection: the Wolfe gap is NaN")
            if t > FW_MAX_STEPS:
                raise NumericalError(
                    f"Frank-Wolfe projection did not reach tolerance {wolfe_tol:g} "
                    f"within {FW_MAX_STEPS} steps")
        total[index] += 2.0 * t * value
        multiply(target, t * (t + 1), out=scaled)
        subtract(total, scaled, out=query)
    return total / (steps * (steps + 1))


# ---------------------------------------------------------------------------
# Moreau-splitting solvers
# ---------------------------------------------------------------------------


def _moreau_splitting(problem, oracle, counters: OracleCounters, step,
                      config: SolverConfig, x0: np.ndarray) -> SolverResult:
    """The accelerated Moreau-splitting loop shared by ``mopes`` and ``moles``.

    ``step(target, z_prev, sched)`` is the counted constrained move: an
    (approximate) projection of ``target`` onto the set, started from
    ``z_prev`` where that matters, under the step's ``Schedule``.  The
    unconstrained block resolves its prox subproblem with ``prox_slide``,
    which never touches the set.  The trace has one row per outer step.
    """
    sfo = _count_first_order(oracle, counters)
    rng = _philox(config.seed)
    lam = config.lam
    total = config.outer_steps

    x = x0
    x_prime = x.copy()
    z = x.copy()
    z_prime = x.copy()

    rows = _TraceRows()
    for k in range(1, total + 1):
        sched = config.schedule(k)
        beta, gamma = sched.beta, sched.gamma
        y = (1.0 - gamma) * x + gamma * z
        y_prime = (1.0 - gamma) * x_prime + gamma * z_prime
        grad_x_block = (y - y_prime) / lam
        z = step(z - grad_x_block / beta, z, sched)
        grad_prime_block = (y_prime - y) / lam
        z_prime, z_prime_avg = prox_slide(sfo, grad_prime_block, z_prime, beta,
                                          sched.inner_steps, config.domain_radius, rng)
        x = (1.0 - gamma) * x + gamma * z
        x_prime = (1.0 - gamma) * x_prime + gamma * z_prime_avg
        rows.add(k, counters, problem, x)
    return SolverResult(x, rows.trace(), counters)


def mopes(problem, oracle, po: ProjectionOracle, config: SolverConfig, x0) -> SolverResult:
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

    return _moreau_splitting(problem, oracle, counters, step, config, x0)


def moles(problem, oracle, lmo: LinearMinimizationOracle, config: SolverConfig,
          x0: np.ndarray) -> SolverResult:
    """LMO-efficient variant: projections approximated by Frank-Wolfe.

    Identical to ``mopes`` except the constrained move.  Fixed-budget runs
    consume exactly ``outer_steps * config.fw_budget`` LMO calls; Wolfe
    mode stops each projection at the dual-gap tolerance
    ``4 c' d_tilde / (lam K k)`` instead.
    """
    x0 = _check_start_point(x0, lmo)
    counters = OracleCounters()
    counted = wrap_counting(lmo, counters)
    wolfe = config.projection_mode == "wolfe"
    budget = None if wolfe else config.fw_budget  # the same at every outer step

    def step(target, z_prev, sched):
        return fw_quadratic_projection(target, z_prev, counted, budget, sched.beta,
                                       sched.wolfe_tol if wolfe else None)

    return _moreau_splitting(problem, oracle, counters, step, config, x0)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def pgd(problem, oracle, po: ProjectionOracle, x0: np.ndarray, steps: int,
        lipschitz: float, set_diameter: float, stepsize_rule: str = "fixed",
        seed: int = 0) -> SolverResult:
    """Projected subgradient descent with a fixed or diminishing stepsize.

    ``x_{k+1} = P_X(x_k - alpha_k g_k)`` with ``alpha_k`` equal to
    ``D / (G sqrt(steps))`` (fixed) or ``D / (G sqrt(k))`` (diminishing).
    Consumes exactly ``steps`` subgradient and ``steps`` projection calls.
    Returns the stepsize-weighted average iterate.

    Trace rows, one per step, carry the value of the running averaged
    iterate, the point the method's guarantee speaks about, in ``f_value``.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    if stepsize_rule not in STEPSIZE_RULES:
        raise ValueError(f"stepsize_rule must be one of {STEPSIZE_RULES}")
    x = _check_start_point(x0, po)
    counters = OracleCounters()
    sample = _count_first_order(oracle, counters).sample
    project = wrap_counting(po, counters).project
    rng = _philox(seed)

    weighted = np.zeros_like(x)
    weight_sum = 0.0
    rows = _TraceRows()
    diminishing = stepsize_rule == "diminishing"
    alpha = set_diameter / (lipschitz * math.sqrt(steps))
    for k in range(1, steps + 1):
        if diminishing:
            alpha = set_diameter / (lipschitz * math.sqrt(k))
        grad = sample(x, rng)
        weighted += alpha * x
        weight_sum += alpha
        x = project(x - alpha * grad)
        rows.add(k, counters, problem, weighted / weight_sum)
    return SolverResult(weighted / weight_sum, rows.trace(), counters)


def fw_pgd_budget(steps: int) -> int:
    """LMO calls per projection of a budget-mode ``fw_pgd`` run: the next
    integer above ``7 D^2 / (alpha^2 (G^2 + sigma^2))``, which is exactly
    ``28 * steps`` at its stepsize, computed without the float's rounding."""
    return 28 * steps + 1


def fw_pgd(problem, oracle, lmo: LinearMinimizationOracle, x0: np.ndarray, steps: int,
           lipschitz: float, sigma: float, set_diameter: float,
           mode: str = "budget", seed: int = 0,
           f_ref: float | None = None, max_lmo: int | None = None,
           target_gap: float | None = None) -> SolverResult:
    """Projected subgradient descent with Frank-Wolfe approximate projections.

    Each step approximately projects ``x_k - alpha g_k`` back onto the set,
    to Wolfe-gap tolerance ``(G^2 + sigma^2) alpha`` (``mode="wolfe"``) or
    with the fixed per-step budget of ``fw_pgd_budget(steps)`` LMO calls
    (``mode="budget"``).  The stepsize is
    ``alpha = D / (2 sqrt(G^2 + sigma^2) sqrt(steps))`` and the returned
    point is the average of the visited iterates.  Consumes exactly one
    subgradient call per step and ``steps - 1`` projections: the iterate
    after the last step would not enter the average, so it is not computed.

    As in ``pgd``, trace rows, one per step, carry the value of the
    running averaged iterate in ``f_value``.  The run stops after the
    row of the last step, the first row that counts at least ``max_lmo``
    LMO calls, or the first row whose gap ``f_value - f_ref`` is at most
    ``target_gap``; counters then reflect the truncated run, and its last
    row is the returned point.  ``f_ref`` serves only that stop.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    if mode not in PROJECTION_MODES:
        raise ValueError(f"mode must be one of {PROJECTION_MODES}")
    if target_gap is not None and f_ref is None:
        raise ValueError("a target_gap needs the reference value f_ref")
    x = _check_start_point(x0, lmo)
    counters = OracleCounters()
    sample = _count_first_order(oracle, counters).sample
    counted_lmo = wrap_counting(lmo, counters)
    rng = _philox(seed)

    noise = lipschitz ** 2 + sigma ** 2
    alpha = set_diameter / (2.0 * math.sqrt(noise) * math.sqrt(steps))
    budget = fw_pgd_budget(steps) if mode == "budget" else None
    wolfe_tol = noise * alpha if mode == "wolfe" else None

    weighted = np.zeros_like(x)
    weight_sum = 0.0
    rows = _TraceRows()
    for k in range(1, steps + 1):
        grad = sample(x, rng)
        weighted += alpha * x
        weight_sum += alpha
        f_value = rows.add(k, counters, problem, weighted / weight_sum)
        if (k == steps or max_lmo is not None and counters.lmo_calls >= max_lmo
                or target_gap is not None and f_value - f_ref <= target_gap):
            break
        x = fw_quadratic_projection(x - alpha * grad, x, counted_lmo, budget, 1.0 / alpha,
                                    wolfe_tol)
    return SolverResult(weighted / weight_sum, rows.trace(), counters)
