"""Oracle interfaces and per-run call accounting.

Four oracle kinds drive every solver in this package: a first-order oracle
(FO) returning function value and one subgradient, its stochastic variant
(SFO) returning an unbiased subgradient estimate, a projection oracle (PO)
for the constraint set, and a linear minimization oracle (LMO).  An oracle
is its function, under the one name it is called by, plus its bound or its
set.  ``wrap_counting`` is the one place where calls are tallied; it never
alters results, so oracle-call complexity can be measured exactly.

Oracle objects are immutable after construction, except that a minibatch
SFO draws its indices ahead in blocks.  Counters, random streams and that
lookahead are per-run mutable state and must stay confined to one run at a
time: while an oracle samples from a generator, draw from that generator
only through that oracle, which can leave it up to one block ahead.  A
minibatch SFO serves one generator at a time: handed another, it leaves
the old one where its last block left it and never returns to it, so a
run owns its generator and does not hand it back after another run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _philox(key) -> np.random.Generator:
    """The random stream of a seed or a key list, as every stream here is
    built."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


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
    bound on the norm of every returned subgradient.  ``evaluate`` is the
    given function itself, an instance attribute that would shadow a
    subclass method of that name.

    ``sample(x, rng)`` returns the subgradient of ``evaluate(x)`` and draws
    nothing, so the oracle also serves as a zero-variance stochastic one;
    a counted oracle's ``sample`` counts an FO call.
    """

    def __init__(self, evaluate_fn, lipschitz_bound: float | None = None):
        self.evaluate = evaluate_fn
        self.sample = lambda x, rng: evaluate_fn(x)[1]
        self.lipschitz_bound = lipschitz_bound

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
    passed in, so runs are reproducible per seed.  ``sample`` is the given
    function itself, an instance attribute.
    """

    def __init__(self, sample_fn, variance_bound: float = 0.0):
        self.sample = sample_fn
        self.variance_bound = float(variance_bound)


class ProjectionOracle:
    """Euclidean projection onto the set of ``set_descriptor``, which
    decides membership; ``project`` is the given function itself."""

    def __init__(self, project_fn, set_descriptor):
        self.project = project_fn
        self.set_descriptor = set_descriptor

    @classmethod
    def from_set(cls, descriptor) -> "ProjectionOracle":
        return cls(descriptor.project, descriptor)


class LinearMinimizationOracle:
    """An extreme point minimizing a linear functional over the set of
    ``set_descriptor``, which decides membership; ``minimize`` is the given
    function itself.  It returns an atom ``(index, value)``: the vertex is
    ``value`` at ``index`` of the flat vector and zero elsewhere (see
    ``SetDescriptor.lmo_atom``)."""

    def __init__(self, minimize_fn, set_descriptor):
        self.minimize = minimize_fn
        self.set_descriptor = set_descriptor

    @classmethod
    def from_set(cls, descriptor, rng=None) -> "LinearMinimizationOracle":
        """The set's exact LMO; ``rng`` is accepted for compatibility only
        and cannot change the result, since every set's LMO is exact."""
        return cls(descriptor.lmo_atom, descriptor)


def wrap_counting(oracle, counters: OracleCounters):
    """Return a plain oracle of the same kind whose every call increments
    exactly one tally of ``counters``.

    The copy's function is a closure over the original oracle's function,
    so a counted query costs one Python call more than an uncounted one.
    A counted ``FirstOrderOracle``'s ``sample`` is a closure of its own that
    counts an FO call and calls the original ``evaluate`` once, so that an
    inner-loop subgradient is two calls deep: that closure and ``evaluate``.
    Returned values are passed through untouched, so wrapped and unwrapped
    oracles are numerically indistinguishable; bounds and set descriptors
    carry over.
    """
    if isinstance(oracle, FirstOrderOracle):
        evaluate = oracle.evaluate

        def counted_evaluate(x):
            counters.fo_calls += 1
            return evaluate(x)

        def counted_sample(x, rng):
            counters.fo_calls += 1
            return evaluate(x)[1]

        counted = FirstOrderOracle(counted_evaluate, oracle.lipschitz_bound)
        counted.sample = counted_sample
        return counted
    if isinstance(oracle, StochasticFirstOrderOracle):
        sample = oracle.sample

        def counted_sample(x, rng):
            counters.sfo_calls += 1
            return sample(x, rng)

        return StochasticFirstOrderOracle(counted_sample, oracle.variance_bound)
    if isinstance(oracle, ProjectionOracle):
        project = oracle.project

        def counted_project(x):
            counters.po_calls += 1
            return project(x)

        return ProjectionOracle(counted_project, oracle.set_descriptor)
    if isinstance(oracle, LinearMinimizationOracle):
        minimize = oracle.minimize

        def counted_minimize(direction):
            counters.lmo_calls += 1
            return minimize(direction)

        return LinearMinimizationOracle(counted_minimize, oracle.set_descriptor)
    raise TypeError(f"cannot wrap object of type {type(oracle).__name__}")


# Indices one minibatch oracle draws per block: at most 32 KB of int64.
_BLOCK_INDICES = 4096


def minibatch_sfo(problem, batch_size: int, rng=None) -> StochasticFirstOrderOracle:
    """Minibatch stochastic subgradient oracle for a finite-sum objective.

    Each draw picks ``batch_size`` component indices uniformly with
    replacement from the generator passed to ``sample`` and returns the
    averaged component subgradient, which is unbiased for the full-sum
    subgradient under the problem's fixed tie-breaking rule.  A batch of
    exactly ``n_terms`` degenerates to the deterministic full sum (zero
    variance).  The attached variance bound is
    ``max_i ||g_i||^2 / batch_size``, certified since every component
    subgradient norm is bounded by the problem's per-term norm bound.
    ``rng`` is accepted for compatibility only and is not used.

    ``sample`` serves its batches from one ``gen.integers(0, n, size=(B,
    batch_size))`` draw of ``B = max(1, 4096 // batch_size)`` batches.
    numpy's bounded integers read the bit generator's stream continuously
    across calls, so the block's rows are the batches that ``B`` calls of
    size ``batch_size`` would draw, and leave the generator in the same
    state.  Until the block is used up, the generator is ahead of the
    batches served: draw from it only through this oracle.  Handed a
    generator other than the one its block came from, ``sample`` drops the
    rest of that block and starts a fresh one from the new generator, which
    then gets its own per-call stream; the generator left behind stays up
    to one block ahead, so it must not be handed back.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be a positive integer")
    n = problem.n_terms

    if batch_size == n:
        full = np.arange(n)

        def sample(x, gen):
            return problem.batch_subgradient(x, full)

        return StochasticFirstOrderOracle(sample, variance_bound=0.0)

    per_block = max(1, _BLOCK_INDICES // batch_size)
    # The generator the block came from, the block, and how many of its
    # batches have been served.
    owner = block = None
    served = per_block

    def sample(x, gen):
        nonlocal owner, block, served
        if served == per_block or gen is not owner:
            owner, block = gen, gen.integers(0, n, size=(per_block, batch_size))
            served = 0
        served += 1
        return problem.batch_subgradient(x, block[served - 1])

    bound = float(problem.term_norm_bound()) ** 2 / batch_size
    return StochasticFirstOrderOracle(sample, variance_bound=bound)


def estimate_variance(sfo: StochasticFirstOrderOracle, x: np.ndarray, trials: int, rng) -> float:
    """Unbiased sample variance of the stochastic subgradient at ``x``."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 trials")
    draws = np.stack([np.atleast_1d(sfo.sample(x, rng)) for _ in range(trials)])
    mean = draws.mean(axis=0)
    return float(((draws - mean) ** 2).sum() / (trials - 1))
