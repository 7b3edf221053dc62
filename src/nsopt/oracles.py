"""Oracle interfaces and per-run call accounting.

Four oracle kinds drive every solver in this package: a first-order oracle
(FO) returning function value and one subgradient, its stochastic variant
(SFO) returning an unbiased subgradient estimate, a projection oracle (PO)
for the constraint set, and a linear minimization oracle (LMO).
``wrap_counting`` is the one place where calls are tallied; it never alters
results, so oracle-call complexity can be measured exactly.

Oracle objects are immutable after construction and safe to share across
concurrent reads; counters and random streams are per-run mutable state
and must stay confined to one run at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OracleCounters:
    """Monotone tallies of oracle invocations for a single run."""

    fo_calls: int = 0
    sfo_calls: int = 0
    po_calls: int = 0
    lmo_calls: int = 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.fo_calls, self.sfo_calls, self.po_calls, self.lmo_calls)


class FirstOrderOracle:
    """Deterministic first-order access to a convex function.

    ``evaluate(x)`` returns ``(f(x), g)`` with ``g`` a subgradient of ``f``
    at ``x``.  Queries are valid on the enclosing ball of the problem, not
    just on the constraint set.  ``lipschitz_bound`` is a certified upper
    bound on the norm of every returned subgradient.
    """

    def __init__(self, evaluate_fn, lipschitz_bound: float | None = None):
        self._evaluate = evaluate_fn
        self.lipschitz_bound = lipschitz_bound

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self._evaluate(x)

    @classmethod
    def from_instance(cls, instance) -> "FirstOrderOracle":
        """Build an oracle from any problem instance exposing
        ``value_and_subgradient`` and ``lipschitz_bound``."""
        return cls(instance.value_and_subgradient, float(instance.lipschitz_bound))


class StochasticFirstOrderOracle:
    """Unbiased stochastic subgradient access.

    ``sample(x, rng)`` returns an estimate whose conditional mean lies in
    the subdifferential at ``x`` and whose conditional variance is bounded
    by ``variance_bound``.  Every draw consumes from the generator that is
    passed in (or from the default stream given at construction), so runs
    are reproducible per seed.
    """

    def __init__(self, sample_fn, variance_bound: float = 0.0, rng=None):
        self._sample = sample_fn
        self.variance_bound = float(variance_bound)
        self._rng = rng

    def sample(self, x: np.ndarray, rng=None) -> np.ndarray:
        gen = rng if rng is not None else self._rng
        if gen is None:
            raise ValueError("no random generator supplied for stochastic oracle")
        return self._sample(x, gen)


class ProjectionOracle:
    """Euclidean projection onto the constraint set."""

    def __init__(self, project_fn, set_descriptor=None):
        self._project = project_fn
        self.set_descriptor = set_descriptor

    def project(self, x: np.ndarray) -> np.ndarray:
        return self._project(x)

    @classmethod
    def from_set(cls, descriptor) -> "ProjectionOracle":
        return cls(descriptor.project, descriptor)


class LinearMinimizationOracle:
    """Returns an extreme point minimizing a linear functional over the set."""

    def __init__(self, minimize_fn, set_descriptor=None):
        self._minimize = minimize_fn
        self.set_descriptor = set_descriptor

    def minimize(self, direction: np.ndarray) -> np.ndarray:
        return self._minimize(direction)

    @classmethod
    def from_set(cls, descriptor, rng=None) -> "LinearMinimizationOracle":
        return cls(lambda g: descriptor.lmo(g, rng=rng), descriptor)


def wrap_counting(oracle, counters: OracleCounters):
    """Return a plain oracle of the same kind whose every call increments
    exactly one tally of ``counters``.

    The copy is built around a closure over the function the original
    oracle was built around (not over its methods), so a counted query
    costs one Python call more than an uncounted one.  Returned values are
    passed through untouched, so wrapped and unwrapped oracles are
    numerically indistinguishable; bounds, descriptors and the default
    random stream carry over.
    """
    if isinstance(oracle, FirstOrderOracle):
        evaluate = oracle._evaluate

        def counted_evaluate(x):
            counters.fo_calls += 1
            return evaluate(x)

        return FirstOrderOracle(counted_evaluate, oracle.lipschitz_bound)
    if isinstance(oracle, StochasticFirstOrderOracle):
        sample = oracle._sample

        def counted_sample(x, rng):
            counters.sfo_calls += 1
            return sample(x, rng)

        return StochasticFirstOrderOracle(counted_sample, oracle.variance_bound, oracle._rng)
    if isinstance(oracle, ProjectionOracle):
        project = oracle._project

        def counted_project(x):
            counters.po_calls += 1
            return project(x)

        return ProjectionOracle(counted_project, oracle.set_descriptor)
    if isinstance(oracle, LinearMinimizationOracle):
        minimize = oracle._minimize

        def counted_minimize(direction):
            counters.lmo_calls += 1
            return minimize(direction)

        return LinearMinimizationOracle(counted_minimize, oracle.set_descriptor)
    raise TypeError(f"cannot wrap object of type {type(oracle).__name__}")


def minibatch_sfo(problem, batch_size: int, rng=None) -> StochasticFirstOrderOracle:
    """Minibatch stochastic subgradient oracle for a finite-sum objective.

    Each draw picks ``batch_size`` component indices uniformly with
    replacement and returns the averaged component subgradient, which is
    unbiased for the full-sum subgradient under the problem's fixed
    tie-breaking rule.  A batch of exactly ``n_terms`` degenerates to the
    deterministic full sum (zero variance).  The attached variance bound is
    ``max_i ||g_i||^2 / batch_size``, certified since every component
    subgradient norm is bounded by the problem's per-term norm bound.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be a positive integer")
    n = problem.n_terms

    if batch_size == n:
        full = np.arange(n)

        def sample(x, gen):
            return problem.batch_subgradient(x, full)

        return StochasticFirstOrderOracle(sample, variance_bound=0.0, rng=rng)

    def sample(x, gen):
        idx = gen.integers(0, n, size=batch_size)
        return problem.batch_subgradient(x, idx)

    bound = float(problem.term_norm_bound()) ** 2 / batch_size
    return StochasticFirstOrderOracle(sample, variance_bound=bound, rng=rng)


def estimate_variance(sfo: StochasticFirstOrderOracle, x: np.ndarray, trials: int, rng) -> float:
    """Unbiased sample variance of the stochastic subgradient at ``x``."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 trials")
    draws = np.stack([np.atleast_1d(sfo.sample(x, rng)) for _ in range(trials)])
    mean = draws.mean(axis=0)
    return float(((draws - mean) ** 2).sum() / (trials - 1))
