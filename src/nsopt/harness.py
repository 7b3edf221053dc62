"""Experiment harness: config parsing, reference solves, sweeps, CSV traces,
and log-log slope fits of oracle-call counts against target accuracy.

A single JSON config file describes one experiment: a synthetic problem,
a constraint set, a list of solvers with per-solver options, a list of
target accuracies, and a repetition count.  Each
(solver, accuracy, repetition) run writes one CSV trace; an aggregate CSV
holds per-row means across repetitions.  The harness alone names and seeds
each file: a solver's trace holds only its columns, and the harness writes
its ``algorithm``, ``gap`` and ``seed`` columns.  Runs are deterministic per
(global seed, repetition index), and within one repetition every solver
and accuracy starts from the same point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import ne

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .geometry import SetDescriptor
from .oracles import (
    FirstOrderOracle,
    LinearMinimizationOracle,
    ProjectionOracle,
    _philox,
    minibatch_sfo,
)
from .problems import (
    HingeSvmInstance,
    MatrixSvmInstance,
    synth_hinge_data,
    synth_piecewise_linear,
)
from .solvers import (
    CSV_HEADER,
    PROJECTION_MODES,
    STEPSIZE_RULES,
    RunTrace,
    SolverConfig,
    format_bodies,
    fw_pgd,
    fw_pgd_budget,
    moles,
    mopes,
    pgd,
    write_csv_rows,
)

OUTPUT_DIR_ENV = "NSOPT_OUTPUT_DIR"
_REQUIRED = object()  # the default of a key that a config must give
# The most oracle calls of one kind that a run may be sized to make; a larger
# derived size is a config error, since such a run would never finish.  The
# largest acceptance run makes about 6.5e6.
MAX_RUN_CALLS = 10 ** 12


def _boolean(value) -> bool:
    """JSON ``true`` or ``false`` only: ``bool("false")`` would read as true."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, not {value!r}")
    return value


def _at_least(low: int):
    """An int, or a float with an integral value, that is at least ``low``; a
    bool, a string or a fraction is rejected instead of being truncated."""
    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected an integer, not {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, not {value!r}")
        value = int(value)
        if value < low:
            raise ValueError(f"must be at least {low}, not {value}")
        return value
    return convert


def _real(value) -> float:
    """A finite JSON number; a bool, a string, NaN or an infinity is rejected
    instead of being converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, not {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _real(value)
    if not value > 0:
        raise ValueError(f"must be positive, not {value!r}")
    return value


def _list_of(convert):
    """A JSON list, each element read by ``convert``."""
    def read(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, not {value!r}")
        return [convert(element) for element in value]
    return read


def _choice(*allowed):
    def convert(value):
        if value not in allowed:
            raise ValueError(f"{value!r} is not one of {', '.join(allowed)}")
        return value
    return convert


def _read(where: str, raw, table: dict, tag: str | None = None) -> dict:
    """Convert every key of the JSON object ``raw`` by ``table``, which maps
    each key to ``(conversion, default)``; an absent or null key reads as its
    default.  With ``tag``, ``table`` maps each value of that key (a problem
    kind, a solver name) to the table to read.  Raises ``ConfigError``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, not {type(raw).__name__}")
    if tag is not None:
        variant = raw.get(tag)
        if not isinstance(variant, str) or variant not in table:
            raise ConfigError(f"unknown {where} {tag} {variant!r}; one of {', '.join(table)}")
        where, table = f"{variant} {where}", table[variant]
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    spec = {}
    for key, (convert, default) in table.items():
        if raw.get(key) is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing {where} key: {key}")
            spec[key] = default
            continue
        try:
            spec[key] = convert(raw[key])
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where} key {key!r}: {exc}") from None
    return spec


# Every key the harness reads, per problem kind, per solver and at the top
# level, as ``key: (conversion, default)``.  Any other key is rejected, so a
# typo cannot fall back to a default.  Only a matrix-shaped problem takes
# the nuclear ball.
_PROBLEM_SHARED = {"kind": (str, _REQUIRED), "radius": (_positive, 1.0),
                   "seed": (_at_least(0), 0)}
_VECTOR_SET = {"set": (_choice("l1_ball", "l2_ball"), "l1_ball")}
PROBLEM_KEYS = {
    "piecewise_linear": _PROBLEM_SHARED | _VECTOR_SET | {
        "d": (_at_least(1), 10), "pieces": (_at_least(2), 6),
        "anchor": (lambda v: np.array(_list_of(_real)(v)), None)},
    "hinge_svm": _PROBLEM_SHARED | _VECTOR_SET | {
        "n": (_at_least(1), 100), "d": (_at_least(1), 10)},
    "matrix_svm": _PROBLEM_SHARED | {
        "set": (_choice(*SetDescriptor._KINDS), "l1_ball"),
        "n": (_at_least(1), 50), "rows": (_at_least(1), 4), "cols": (_at_least(1), 4)},
}
_FINITE_SUMS = ("hinge_svm", "matrix_svm")  # the kinds a minibatch oracle can sample
_SOLVER_SHARED = {"name": (str, _REQUIRED), "batch_size": (_at_least(1), None)}
_SPLITTING = _SOLVER_SHARED | {"c": (_positive, 1.0), "dist_estimate": (_positive, None)}
# A baseline without ``steps`` takes the horizon that ``_solver_options`` derives from eps.
_BASELINE = _SOLVER_SHARED | {"steps": (_at_least(1), None)}
SOLVER_KEYS = {
    "mopes": _SPLITTING,
    "moles": _SPLITTING | {"cprime": (_positive, 1.0),
                           "projection_mode": (_choice(*PROJECTION_MODES), "budget")},
    "pgd": _BASELINE | {"stepsize_rule": (_choice(*STEPSIZE_RULES), "fixed")},
    "fw_pgd": _BASELINE | {"mode": (_choice(*PROJECTION_MODES), "budget"),
                           "max_lmo": (_positive, None), "target_gap": (_real, None)},
}
CONFIG_KEYS = {
    "seed": (_at_least(0), 0),
    "output_dir": (str, "nsopt_out"),
    "repetitions": (_at_least(1), 1),
    "epsilons": (_list_of(_positive), _REQUIRED),
    "reference_budget": (_at_least(10 ** 4), 10 ** 5),
    "problem": (lambda v: _read("problem", v, PROBLEM_KEYS, "kind"), _REQUIRED),
    "solvers": (_list_of(lambda s: _read("solver", s, SOLVER_KEYS, "name")), _REQUIRED),
    "record_wall_time": (_boolean, False),
}


class ExperimentConfig(namedtuple("ExperimentConfig", CONFIG_KEYS)):
    """Validated experiment description, one field per ``CONFIG_KEYS`` key: ``problem`` and
    each entry of ``solvers`` hold every key of their ``PROBLEM_KEYS``/``SOLVER_KEYS`` table."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls(**_read("config", raw, CONFIG_KEYS))
        if not cfg.epsilons:
            raise ConfigError("epsilons must be a nonempty list")
        if not cfg.solvers:
            raise ConfigError("solvers must be a nonempty list")
        names = [f"{eps:g}" for eps in cfg.epsilons]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError("epsilons must differ when written as {eps:g}, which names "
                              f"their run files; repeated: {', '.join(repeated)}")
        kind, anchor = cfg.problem["kind"], cfg.problem.get("anchor")
        if anchor is not None and len(anchor) != cfg.problem["d"]:
            raise ConfigError(f"problem key 'anchor': has {len(anchor)} entries, "
                              f"but 'd' is {cfg.problem['d']}")
        for spec in cfg.solvers:
            if spec["batch_size"] is not None and kind not in _FINITE_SUMS:
                raise ConfigError(f"{spec['name']} solver key 'batch_size': a minibatch needs "
                                  f"a finite-sum problem ({', '.join(_FINITE_SUMS)}), "
                                  f"not {kind}")
        labels = [_solver_label(spec) for spec in cfg.solvers]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(f"solver labels must be distinct; repeated: {', '.join(repeated)}")
        return cfg


def _unique_keys(pairs: list) -> dict:
    """``json.load``'s pairs hook: a key repeated in one object is a ``ConfigError``."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"key(s) repeated in one JSON object: {', '.join(map(repr, repeated))}")
    return dict(pairs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def build_problem(spec: dict):
    """Instantiate the problem and constraint set of an experiment.

    ``spec`` is an ``ExperimentConfig.problem``, already read by
    ``PROBLEM_KEYS``.  Returns ``(instance, set_descriptor, lipschitz)``
    where the Lipschitz constant is the instance's certified bound.
    """
    if spec["kind"] == "piecewise_linear":
        instance = synth_piecewise_linear(spec["d"], spec["pieces"], spec["seed"],
                                          anchor=spec["anchor"])
    elif spec["kind"] == "hinge_svm":
        instance = HingeSvmInstance(synth_hinge_data(spec["n"], spec["d"], spec["seed"]))
    else:
        m, p = spec["rows"], spec["cols"]
        flat = synth_hinge_data(spec["n"], m * p, spec["seed"])
        instance = MatrixSvmInstance(flat.reshape(spec["n"], m, p))
    shape = instance.shape if spec["set"] == "nuclear_ball" else (instance.dim,)
    return instance, SetDescriptor(spec["set"], spec["radius"], shape), instance.lipschitz_bound


def reference_optimum(problem, feasible_set: SetDescriptor, budget: int, seed: int = 0):
    """Best value seen, and its iterate, in at most ``budget`` uncounted steps
    ``x <- P_X(x - D g / (G sqrt(k)))`` from 0; every iterate is feasible, so
    the value is never below the minimum ``f*``.  Every ``budget // 50``-th
    step bounds ``f*`` from below by ``f(x) - <g, x> + min_{y in X} <g, y>``
    (the set's LMO; Nemirovski, Onn and Rothblum 2010), and the run stops once
    the best value is within ``1e-12 * max(1, |f_best|)`` of the largest such
    bound.  ``seed`` is unused: the oracle is exact."""
    if budget < 10 ** 4:
        raise ValueError("reference budget must be at least 10^4 steps")
    fo = FirstOrderOracle.from_instance(problem)
    project = ProjectionOracle.from_set(feasible_set).project
    x = x_best = np.zeros(feasible_set.dim)
    f_best, lower = math.inf, -math.inf
    for k in range(1, budget + 1):
        value, grad = fo.evaluate(x)
        if value < f_best:
            f_best, x_best = value, x
        if k % (budget // 50) == 0:
            certificate = value - grad @ x + grad @ feasible_set.lmo(grad)
            if not math.isfinite(certificate):
                raise NumericalError(f"reference solve: certificate {certificate!r} at step {k}")
            lower = max(lower, certificate)
            if f_best - lower <= 1e-12 * max(1.0, abs(f_best)):
                break
        if k < budget:
            x = project(x - feasible_set.diameter / (fo.lipschitz_bound * math.sqrt(k)) * grad)
    return float(f_best), x_best


def _solver_label(spec: dict) -> str:
    if spec["name"] == "pgd":
        return f"pgd_{spec['stepsize_rule']}"
    if spec["name"] == "fw_pgd":
        return f"fw_pgd_{spec['mode']}"
    if spec["name"] == "moles" and spec["projection_mode"] == "wolfe":
        return "moles_wolfe"
    return spec["name"]


def _run_seed(global_seed: int, solver_index: int, eps_index: int, rep: int) -> int:
    """The seed of one (solver, accuracy, repetition) run."""
    parts = [global_seed, solver_index, eps_index, rep]
    return int(np.random.SeedSequence(parts).generate_state(1, dtype=np.uint64)[0])


def _oracle(spec: dict, problem):
    """The subgradient oracle of a solver entry and its noise bound sigma:
    the minibatch SFO with ``batch_size``, else the deterministic FO."""
    if spec["batch_size"] is None:
        return FirstOrderOracle.from_instance(problem), 0.0
    oracle = minibatch_sfo(problem, spec["batch_size"])
    return oracle, math.sqrt(oracle.variance_bound)


def _solver_options(spec: dict, eps: float, lipschitz: float, diameter: float,
                    sigma: float) -> dict:
    """The keyword arguments, all that eps decides, that a run at ``eps``
    passes to its solver besides the run seed, start point and reference.

    A baseline (``pgd``, ``fw_pgd``) passes its own keys, with ``steps``
    derived as ``ceil((2 sqrt(G^2 + sigma^2) D / eps)^2)`` when the entry
    gives none, plus ``lipschitz``, ``set_diameter`` and (``fw_pgd``)
    ``sigma``; ``mopes`` and ``moles`` pass the seed-0 ``config`` that
    ``SolverConfig.from_target`` derives.  A derived size out of range is a
    ``ConfigError`` naming the solver and eps: one that overflows, or a step
    count, inner budget or total Frank-Wolfe budget above ``MAX_RUN_CALLS``.
    """
    options = {key: value for key, value in spec.items() if key not in _SOLVER_SHARED}
    try:
        if spec["name"] in ("mopes", "moles"):
            config = SolverConfig.from_target(eps, lipschitz, diameter, method=spec["name"],
                                              sigma=sigma, **options)
            last = config.schedule(config.outer_steps)
            sizes = {"outer_steps": config.outer_steps, "the last inner budget": last.inner_steps}
            if spec["name"] == "moles" and config.projection_mode == "budget":
                sizes["outer_steps * fw_budget"] = config.outer_steps * last.fw_budget
            options = {"config": config}
        else:
            if options["steps"] is None:
                noise = math.sqrt(lipschitz ** 2 + sigma ** 2)
                options["steps"] = math.ceil((2.0 * noise * diameter / eps) ** 2)
            steps = options["steps"]
            options |= {"lipschitz": lipschitz, "set_diameter": diameter}
            sizes = {"steps": steps}
            if spec["name"] == "fw_pgd":
                options["sigma"] = sigma
                if options["mode"] == "budget":
                    sizes["the LMO budget"] = min(steps * fw_pgd_budget(steps),
                                                  options["max_lmo"] or math.inf)
        for name, size in sizes.items():
            if size > MAX_RUN_CALLS:
                raise ValueError(f"{name} is {size:.3g}, above the cap of {MAX_RUN_CALLS:.0e}")
        return options
    except OverflowError:
        reason = "a derived size overflows"
    except ValueError as exc:
        reason = str(exc)
    raise ConfigError(f"{_solver_label(spec)} at eps={eps!r}: {reason}")


def _run_single(spec: dict, problem, descriptor: SetDescriptor, oracle, options: dict,
                x0: np.ndarray, seed: int):
    """Run the solver of the entry ``spec`` with the ``_solver_options`` of
    one accuracy and the subgradient ``oracle`` of ``_oracle``, from ``x0``
    under run seed ``seed``, and return its result."""
    name = spec["name"]
    if name == "pgd":
        return pgd(problem, oracle, ProjectionOracle.from_set(descriptor), x0, seed=seed,
                   **options)
    if name == "fw_pgd":
        return fw_pgd(problem, oracle, LinearMinimizationOracle.from_set(descriptor), x0,
                      seed=seed, **options)
    config = dataclasses.replace(options["config"], seed=seed)
    if name == "mopes":
        return mopes(problem, oracle, ProjectionOracle.from_set(descriptor), config, x0)
    return moles(problem, oracle, LinearMinimizationOracle.from_set(descriptor), config, x0)


_NUMERIC_FIELDS = CSV_HEADER.split(",")[1:-1]  # the names of RunTrace.columns
_GAP = _NUMERIC_FIELDS.index("gap")


def _mean_trace(runs: list[RunTrace], f_ref: float) -> np.ndarray:
    """The per-row mean of the ``RunTrace.columns(f_ref)`` of ``runs``, gap
    included, with ``wall_ms`` 0, as one float array, over the rows of the
    longest run: a shorter run (an early-stopped ``fw_pgd``) repeats its
    last row, since a stopped run spends no more calls and keeps its point.
    The averaged values form one C-contiguous ``(rows, columns,
    repetitions)`` array, so ``mean(axis=-1)`` sums each row's repetitions
    with the same pairwise summation as ``np.mean`` of their list, bit for
    bit; a reduction over a leading axis would add them in another order.
    """
    steps = max(runs, key=lambda run: len(run.values)).counts[:, 0]  # the longest run's k
    mean = np.zeros((len(_NUMERIC_FIELDS), len(steps)))
    mean[0] = steps
    mean[1:-1] = np.stack([np.pad(np.column_stack(run.columns(f_ref)[1:-1]),
                                  ((0, len(steps) - len(run.values)), (0, 0)), "edge")
                           for run in runs], axis=-1).mean(axis=-1).T
    return mean


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every (solver, accuracy, repetition) combination of an experiment.

    Writes one CSV per run plus ``aggregate.csv``, and returns a manifest
    with the reference value, written files, and per-run statuses.  A run
    failing with a numerical error is recorded and skipped; the remaining
    runs and the aggregate proceed untouched.

    Each solver entry's oracle and its ``_solver_options`` at every accuracy
    are derived once, before any file or solve.  A run without
    ``batch_size`` draws nothing from its seed, so an accuracy whose options
    equal those of an earlier accuracy writes the first such accuracy's run
    of the repetition under its own run seed: the bytes a run of its own
    would write, from rows formatted once.  A failure of the
    shared run fails it at every such accuracy, with the same message.

    An accuracy's aggregate rows follow its runs; the mean of a shared run is
    computed and formatted once, and a trace and its formatted rows are
    freed after the last accuracy that writes them.  The file replaces
    ``aggregate.csv`` only after the last entry, as ``write_csv_rows`` does,
    so an error leaves no partial one.  Every file's ``gap`` is ``f_value``
    minus the reference value.
    """
    problem, descriptor, lipschitz = build_problem(config.problem)
    plans = []
    for spec in config.solvers:
        oracle, sigma = _oracle(spec, problem)
        plans.append((spec, oracle, [_solver_options(spec, eps, lipschitz, descriptor.diameter,
                                                     sigma) for eps in config.epsilons]))
    out_dir = os.environ.get(OUTPUT_DIR_ENV, config.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    f_ref, _ = reference_optimum(problem, descriptor, config.reference_budget)
    for spec, _, options in plans:  # fw_pgd's target_gap stop reads the gap
        for opts in options if spec["name"] == "fw_pgd" else ():
            opts["f_ref"] = f_ref
    starts = [descriptor.boundary_point(_philox([config.seed, 1000003, rep]))
              for rep in range(config.repetitions)]
    manifest = {"reference_value": f_ref, "files": [], "runs": [], "failed": []}

    def entry_rows(si: int, spec: dict, oracle, options: list) -> Iterator[tuple]:
        """Run and write every run of entry ``si``; yield its aggregate rows as
        ``write_csv_rows`` blocks."""
        label = _solver_label(spec)
        # The eps whose run each eps writes: the first with equal options,
        # unless the run draws from its seed.
        firsts = [ei if spec["batch_size"] else options.index(opts)
                  for ei, opts in enumerate(options)]
        # By the eps in ``firsts``, while a later eps writes them: each
        # repetition's trace or error, their row bodies and the mean's.
        table: dict[int, tuple[list, dict, list | None]] = {}
        for ei, eps in enumerate(config.epsilons):
            first = firsts[ei]
            kept = first in firsts[ei + 1:]
            outcomes, bodies, mean = table.pop(first, ([], {}, None))
            for rep in range(config.repetitions):
                run_id = f"{label}_eps{eps:g}_rep{rep}"
                seed = _run_seed(config.seed, si, ei, rep)
                if first == ei:
                    try:
                        outcomes.append(_run_single(spec, problem, descriptor, oracle,
                                                    options[ei], starts[rep], seed).trace)
                    except NumericalError as exc:
                        outcomes.append(exc)
                outcome = outcomes[rep]
                if isinstance(outcome, NumericalError):
                    manifest["failed"].append({"run": run_id, "error": str(outcome)})
                    manifest["runs"].append({"run": run_id, "status": "failed"})
                    continue
                if kept and rep not in bodies:
                    bodies[rep] = [*format_bodies(outcome.columns(f_ref, config.record_wall_time))]
                path = os.path.join(out_dir, run_id + ".csv")
                outcome.write_csv(path, label, seed, f_ref, config.record_wall_time,
                                  bodies.get(rep))
                manifest["files"].append(path)
                manifest["runs"].append({"run": run_id, "status": "ok"})
            if first == ei:
                traces = [outcome for outcome in outcomes if isinstance(outcome, RunTrace)]
                if traces:  # k prints as an integer, the mean counts as floats
                    columns = _mean_trace(traces, f_ref)
                    mean = [*format_bodies([columns[0].astype(np.int64), *columns[1:]])]
            if kept:
                table[first] = outcomes, bodies, mean
            if mean is not None:
                yield f"{label}|eps={eps!r}", mean, config.seed

    agg_path = os.path.join(out_dir, "aggregate.csv")
    write_csv_rows(agg_path, (block for si, plan in enumerate(plans)
                              for block in entry_rows(si, *plan)))
    manifest["files"].append(agg_path)
    return manifest


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

METRIC_COLUMNS = {"po": "po_calls", "lmo": "lmo_calls", "fo": "fo_calls", "sfo": "sfo_calls"}


@dataclass
class SolverSlope:
    slope: float
    residual: float
    points: dict[float, float]
    # Each accuracy left out of the fit: the count of 0 it was reached at,
    # which a log scale cannot fit, or None when it was never reached.
    excluded: dict[float, float | None] = field(default_factory=dict)
    # Each accuracy never reached: the count of its last row, a lower bound on
    # the count to reach it (a capped baseline stops at its cap).
    spent: dict[float, float] = field(default_factory=dict)
    unused: bool = False  # the solver never calls this oracle


def fit_loglog(eps_values, calls) -> tuple[float, float]:
    """Least-squares slope of ``log(calls)`` against ``log(1/eps)`` and the
    root-mean-square residual of the fit."""
    x = np.log(1.0 / np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(calls, dtype=float))
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(coeffs[0]), residual


def calls_to_reach(columns, eps: float, column: str) -> float | None:
    """Metric count at the first row with gap at or below ``eps``, or None.
    ``columns`` are the numeric CSV columns of rows in iteration order, as
    ``RunTrace.columns`` and ``_mean_trace`` give them; interpolation between
    rows is never used, so counts stay conservative."""
    reached = np.flatnonzero(columns[_GAP] <= eps)
    return float(columns[_NUMERIC_FIELDS.index(column)][reached[0]]) if reached.size else None


def fit_slopes(traces: dict[str, dict[float, np.ndarray]], metric: str) -> dict[str, SolverSlope]:
    """Fit per-solver complexity slopes from per-accuracy traces.

    ``traces`` maps solver label to {eps: columns as ``calls_to_reach``
    reads them}, and the result maps each label to its ``SolverSlope`` on
    ``metric``; the count for each accuracy is the metric value at the first
    row reaching that gap.  Solvers need at least 3 fitted accuracies; one
    never reached, or reached at a count of 0, is excluded and flagged, and
    one never reached also records the count its last row spent.  A solver
    whose count is zero in every row is marked ``unused`` instead: it never
    calls that oracle.
    """
    if metric not in METRIC_COLUMNS:
        raise ConfigError(f"unknown metric {metric!r}; one of {', '.join(METRIC_COLUMNS)}")
    column = METRIC_COLUMNS[metric]
    index = _NUMERIC_FIELDS.index(column)
    fits: dict[str, SolverSlope] = {}
    for label, per_eps in traces.items():
        if not any(columns[index].any() for columns in per_eps.values()):
            fits[label] = SolverSlope(float("nan"), float("nan"), {}, unused=True)
            continue
        fit = fits[label] = SolverSlope(float("nan"), float("nan"), {})
        for eps, columns in per_eps.items():
            count = calls_to_reach(columns, eps, column)
            if count is not None and count > 0:
                fit.points[eps] = count
                continue
            fit.excluded[eps] = count
            if count is None and columns[index].size:
                fit.spent[eps] = float(columns[index][-1])
        if len(fit.points) >= 3:
            eps_values = sorted(fit.points)
            fit.slope, fit.residual = fit_loglog(eps_values, [fit.points[e] for e in eps_values])
    return fits


_CSV_FIELDS = CSV_HEADER.count(",") + 1
# Only the objective value and the gap may be negative: the rest are a step, counts and a time.
_NONNEGATIVE = np.array([name not in ("f_value", "gap") for name in _NUMERIC_FIELDS])
# Rows whose numbers are converted and checked at once: a 64 KB array, so
# that no large block is allocated and freed, which would raise the process's
# peak RSS.
_CHECKED_ROWS = 1024


def _faults(columns: np.ndarray) -> np.ndarray:
    """Where the numeric ``columns`` hold a NaN or infinite field, or a
    negative step, count or wall time."""
    return ~np.isfinite(columns) | (columns < 0.0) & _NONNEGATIVE[:, None]


def _row_group(tag: str) -> tuple[str, float]:
    """The solver label and accuracy of the aggregate row tag ``label|eps=<eps>``.
    Raises ``ValueError`` without the marker or with an accuracy that is not
    positive and finite."""
    label, marker, eps_part = tag.partition("|eps=")
    if not marker:
        raise ValueError(f"row tag {tag!r} lacks an accuracy marker")
    eps = float(eps_part)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"row tag {tag!r}: accuracy {eps!r} is not positive and finite")
    return label, eps


def _parse_block(lines: list[str]) -> list[tuple[str, float, np.ndarray]]:
    """``(label, eps, columns)`` for each run of rows with one tag in ``lines``,
    the numeric fields converted a column at a time.  Raises ``ValueError`` on
    any fault ``_diagnose`` names; only the message differs."""
    if [*map(str.count, lines, repeat(","))].count(_CSV_FIELDS - 1) != len(lines):
        raise ValueError("a row has the wrong number of fields")
    # Each line keeps its newline, on its seed, which int() accepts as it
    # accepts the seed without it.
    fields = ",".join(lines).split(",")
    sum(map(int, fields[_CSV_FIELDS - 1::_CSV_FIELDS]))  # a seed must be an integer
    columns = np.empty((len(_NUMERIC_FIELDS), len(lines)))
    for j, column in enumerate(columns, start=1):
        column[:] = np.fromiter(map(float, fields[j::_CSV_FIELDS]), float, len(lines))
    if _faults(columns).any():
        raise ValueError("a field is not finite, or a step, count or time is negative")
    tags = fields[::_CSV_FIELDS]
    starts = [0, *compress(range(1, len(tags)), map(ne, tags[1:], tags[:-1])), len(tags)]
    return [(*_row_group(tags[start]), columns[:, start:stop])
            for start, stop in zip(starts, starts[1:])]


def _diagnose(path: str, lines: list[str], first_line: int) -> FormatError:
    """The ``FormatError`` of the first faulty line of ``lines``, which start
    at line ``first_line`` of ``path``, checked line by line: the fields and
    the tag of each line first, then the numbers of all of them."""
    numbers, tag = [], None
    for number, line in enumerate(lines, start=first_line):
        parts = line.rstrip("\n").split(",")
        try:
            if len(parts) != _CSV_FIELDS:
                raise ValueError(f"expected {_CSV_FIELDS} fields, got {len(parts)}")
            if parts[0] != tag:
                tag = parts[0]
                _row_group(tag)
            int(parts[-1])  # slope fits do not read the seed, but it must be one
            numbers += map(float, parts[1:-1])
        except ValueError as exc:
            return FormatError(f"{path}: line {number}: {exc}")
    values = np.array(numbers).reshape(-1, len(_NUMERIC_FIELDS)).T
    faults = _faults(values)
    if not faults.any():  # no line names a fault that _parse_block raised on
        return FormatError(f"{path}: lines {first_line}-{number}: malformed rows")
    row = int(faults.any(axis=0).argmax())
    column = int(faults[:, row].argmax())
    value = float(values[column, row])
    reason = "negative" if math.isfinite(value) else "not finite"
    return FormatError(f"{path}: line {first_line + row}: {_NUMERIC_FIELDS[column]} "
                       f"{value!r} is {reason}")


def _parse_aggregate(path: str) -> dict[str, dict[float, np.ndarray]]:
    """Group aggregate CSV rows back into {solver: {eps: columns}}, each a
    float array of the numeric columns as ``_mean_trace`` gives them.

    Raises ``FormatError`` naming the path and line on a wrong header, a
    row with the wrong number of fields, a field that is not a number, a
    NaN or infinite field, a negative step, count or wall time, or a row
    tag without an ``|eps=`` accuracy marker or with an accuracy that is
    not positive and finite.  The rows are converted ``_CHECKED_ROWS`` at a
    time, and a block with a fault is checked again line by line to name
    the line.
    """
    grouped: dict[str, dict[float, list]] = {}  # the column blocks of each group
    with open(path) as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise FormatError(f"{path}: line 1: unexpected CSV header")
        first = 2
        while lines := list(islice(fh, _CHECKED_ROWS)):
            try:
                runs = _parse_block(lines)
            except ValueError:
                raise _diagnose(path, lines, first) from None
            for label, eps, columns in runs:
                grouped.setdefault(label, {}).setdefault(eps, []).append(columns)
            first += len(lines)
    return {label: {eps: np.concatenate(blocks, axis=1) for eps, blocks in per_eps.items()}
            for label, per_eps in grouped.items()}


def fit_slopes_from_csv(path: str, metrics: list[str]) -> dict[str, dict[str, SolverSlope]]:
    """The ``fit_slopes`` of each name in ``metrics``, keyed by that name, all
    from a single parse of an aggregate CSV written by ``run_experiment``."""
    grouped = _parse_aggregate(path)
    return {metric: fit_slopes(grouped, metric) for metric in metrics}
