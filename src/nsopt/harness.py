"""Experiment harness: config parsing, reference solves, sweeps, CSV traces,
and log-log slope fits of oracle-call counts against target accuracy.

A single JSON config file describes one experiment: a problem (synthetic or
loaded from CSV), a constraint set, a list of solvers with per-solver
options, a list of target accuracies, and a repetition count.  Each
(solver, accuracy, repetition) run writes one CSV trace; an aggregate CSV
holds per-row means across repetitions.  Runs are deterministic per
(global seed, repetition index), and within one repetition every solver
and accuracy starts from the same point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, NumericalError
from .geometry import SetDescriptor
from .oracles import FirstOrderOracle, LinearMinimizationOracle, ProjectionOracle, minibatch_sfo
from .problems import (
    HingeSvmInstance,
    MatrixSvmInstance,
    load_dense_csv,
    synth_hinge_data,
    synth_piecewise_linear,
)
from .solvers import (
    CSV_HEADER,
    PROJECTION_MODES,
    STEPSIZE_RULES,
    RunTrace,
    SolverConfig,
    TraceRecord,
    fw_pgd,
    moles,
    mopes,
    pgd,
    write_csv_rows,
)

OUTPUT_DIR_ENV = "NSOPT_OUTPUT_DIR"
_REQUIRED = object()  # the default of a key that a config must give


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
# typo cannot fall back to a default.
_PROBLEM_SHARED = {"kind": (str, _REQUIRED), "set": (_choice(*SetDescriptor._KINDS), "l1_ball"),
                   "radius": (float, 1.0), "seed": (int, 0)}
PROBLEM_KEYS = {
    "piecewise_linear": _PROBLEM_SHARED | {
        "d": (int, 10), "pieces": (int, 6),
        "anchor": (lambda v: np.asarray(v, dtype=float), None)},
    "hinge_svm": _PROBLEM_SHARED | {
        "n": (int, 100), "d": (int, 10), "add_bias": (bool, False), "data_path": (str, None)},
    "matrix_svm": _PROBLEM_SHARED | {"n": (int, 50), "rows": (int, 4), "cols": (int, 4)},
}
_SOLVER_SHARED = {"name": (str, _REQUIRED), "batch_size": (int, None)}
_SPLITTING = _SOLVER_SHARED | {"c": (float, 1.0), "cprime": (float, 1.0),
                               "dist_estimate": (float, None)}
_BASELINE = _SOLVER_SHARED | {"trace_every": (int, 1)}
SOLVER_KEYS = {
    "mopes": _SPLITTING,
    "moles": _SPLITTING | {"projection_mode": (_choice(*PROJECTION_MODES), "budget")},
    "pgd": _BASELINE | {"steps": (int, 10 ** 4),
                        "stepsize_rule": (_choice(*STEPSIZE_RULES), "fixed")},
    "fw_pgd": _BASELINE | {"steps": (int, None), "mode": (_choice(*PROJECTION_MODES), "budget"),
                           "max_lmo": (float, None), "target_gap": (float, None)},
}
CONFIG_KEYS = {
    "seed": (int, 0),
    "output_dir": (str, "nsopt_out"),
    "repetitions": (int, 1),
    "epsilons": (lambda v: [float(e) for e in v], _REQUIRED),
    "reference_budget": (int, 10 ** 5),
    "problem": (lambda v: _read("problem", v, PROBLEM_KEYS, "kind"), _REQUIRED),
    "solvers": (lambda v: [_read("solver", s, SOLVER_KEYS, "name") for s in v], _REQUIRED),
    "record_wall_time": (bool, False),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description: ``problem`` and each entry of
    ``solvers`` hold every key of their ``PROBLEM_KEYS``/``SOLVER_KEYS`` table."""

    seed: int
    output_dir: str
    repetitions: int
    epsilons: list[float]
    reference_budget: int
    problem: dict
    solvers: list[dict]
    record_wall_time: bool

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls(**_read("config", raw, CONFIG_KEYS))
        if cfg.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not cfg.epsilons or any(e <= 0 for e in cfg.epsilons):
            raise ConfigError("epsilons must be a nonempty list of positive values")
        if len(set(cfg.epsilons)) != len(cfg.epsilons):
            raise ConfigError("epsilons must be distinct")
        labels = [_solver_label(spec) for spec in cfg.solvers]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(f"solver labels must be distinct; repeated: {', '.join(repeated)}")
        return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def build_problem(problem_cfg: dict):
    """Instantiate the problem and constraint set of an experiment.

    ``problem_cfg`` is read by ``PROBLEM_KEYS``.  Returns ``(instance,
    set_descriptor, lipschitz)`` where the Lipschitz constant is the
    instance's certified bound.
    """
    spec = _read("problem", problem_cfg, PROBLEM_KEYS, "kind")
    if spec["set"] == "nuclear_ball" and spec["kind"] != "matrix_svm":
        raise ConfigError("nuclear_ball set needs a matrix-shaped problem")
    if spec["kind"] == "piecewise_linear":
        instance = synth_piecewise_linear(spec["d"], spec["pieces"], spec["seed"],
                                          anchor=spec["anchor"])
    elif spec["kind"] == "hinge_svm":
        if spec["data_path"] is None:
            rows = synth_hinge_data(spec["n"], spec["d"], spec["seed"], add_bias=spec["add_bias"])
        else:
            rows = load_dense_csv(spec["data_path"], add_bias=spec["add_bias"])
        instance = HingeSvmInstance(rows)
    else:
        m, p = spec["rows"], spec["cols"]
        flat = synth_hinge_data(spec["n"], m * p, spec["seed"])
        instance = MatrixSvmInstance(flat.reshape(spec["n"], m, p))
    shape = instance.shape if spec["set"] == "nuclear_ball" else (instance.dim,)
    return instance, SetDescriptor(spec["set"], spec["radius"], shape), instance.lipschitz_bound


def reference_optimum(problem, feasible_set: SetDescriptor, budget: int, seed: int = 0):
    """Estimate the optimal value by a long diminishing-step subgradient run.

    Returns ``(f_star, x_star)`` where ``f_star`` is the best objective
    value observed over the budget (never below the true minimum, since
    every iterate is feasible) and ``x_star`` is the certificate iterate.
    """
    if budget < 10 ** 4:
        raise ValueError("reference budget must be at least 10^4 steps")
    fo = FirstOrderOracle.from_instance(problem)
    po = ProjectionOracle.from_set(feasible_set)
    x0 = np.zeros(feasible_set.dim)
    result = pgd(problem, fo, po, x0, budget, fo.lipschitz_bound, feasible_set.diameter,
                 stepsize_rule="diminishing", seed=seed,
                 trace_every=max(1, budget // 50))
    return float(result.f_best), result.x_best


def _solver_label(spec: dict) -> str:
    if spec["name"] == "pgd":
        return f"pgd_{spec['stepsize_rule']}"
    if spec["name"] == "fw_pgd":
        return f"fw_pgd_{spec['mode']}"
    if spec["name"] == "moles" and spec["projection_mode"] == "wolfe":
        return "moles_wolfe"
    return spec["name"]


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _philox(key: list[int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _run_single(spec: dict, problem, descriptor: SetDescriptor, lipschitz: float,
                eps: float, eps_index: int, solver_index: int, rep: int,
                global_seed: int, f_ref: float):
    """Execute one (solver, accuracy, repetition) run and return its trace.

    ``spec`` is a solver entry read by ``SOLVER_KEYS``; its keys other than
    ``name`` and ``batch_size`` are the solver's own keyword arguments.
    """
    name = spec["name"]
    options = {key: value for key, value in spec.items() if key not in _SOLVER_SHARED}
    run_seed = _seed_int(global_seed, solver_index, eps_index, rep)
    # Starting points are shared across solvers and accuracies for a given
    # repetition, mirroring mean-over-runs plots with common starts.
    x0 = descriptor.boundary_point(_philox([global_seed, 1000003, rep]))
    po = ProjectionOracle.from_set(descriptor)
    lmo = LinearMinimizationOracle.from_set(descriptor)

    if spec["batch_size"]:
        oracle = minibatch_sfo(problem, spec["batch_size"])
        sigma = math.sqrt(oracle.variance_bound)
    else:
        oracle = FirstOrderOracle.from_instance(problem)
        sigma = 0.0

    if name == "pgd":
        return pgd(problem, oracle, po, x0, lipschitz=lipschitz,
                   set_diameter=descriptor.diameter, seed=run_seed, f_ref=f_ref, **options)
    if name == "fw_pgd":
        if options["steps"] is None:
            noise = math.sqrt(lipschitz ** 2 + sigma ** 2)
            options["steps"] = math.ceil((2.0 * noise * descriptor.diameter / eps) ** 2)
        return fw_pgd(problem, oracle, lmo, x0, lipschitz=lipschitz, sigma=sigma,
                      set_diameter=descriptor.diameter, seed=run_seed, f_ref=f_ref, **options)
    config = SolverConfig.from_target(eps, lipschitz, descriptor.diameter, method=name,
                                      sigma=sigma, seed=run_seed, **options)
    if name == "mopes":
        return mopes(problem, oracle, po, config, x0, f_ref=f_ref)
    return moles(problem, oracle, lmo, config, x0, f_ref=f_ref)


def _aggregate_rows(label: str, eps: float, traces: list[RunTrace], seed: int) -> list[str]:
    """Mean across repetitions, aligned by row index."""
    columns = ("fo_calls", "sfo_calls", "po_calls", "lmo_calls", "f_value", "gap")
    records = [TraceRecord(recs[0].k, *(float(np.mean([getattr(r, name) for r in recs]))
                                        for name in columns), wall_ms=0.0)
               for recs in zip(*(t.records for t in traces))]
    return RunTrace(f"{label}|eps={eps!r}", seed, records).csv_rows()


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every (solver, accuracy, repetition) combination of an experiment.

    Writes one CSV per run plus ``aggregate.csv``, and returns a manifest
    with the reference value, written files, and per-run statuses.  A run
    failing with a numerical error is recorded and skipped; the remaining
    runs and the aggregate proceed untouched.
    """
    out_dir = os.environ.get(OUTPUT_DIR_ENV, config.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    problem, descriptor, lipschitz = build_problem(config.problem)
    f_ref, _ = reference_optimum(problem, descriptor, config.reference_budget,
                                 seed=_seed_int(config.seed, 999))
    manifest = {"reference_value": f_ref, "files": [], "runs": [], "failed": []}
    groups: dict[tuple[str, float], list[RunTrace]] = {}
    for si, spec in enumerate(config.solvers):
        label = _solver_label(spec)
        for ei, eps in enumerate(config.epsilons):
            for rep in range(config.repetitions):
                run_id = f"{label}_eps{eps:g}_rep{rep}"
                try:
                    result = _run_single(spec, problem, descriptor, lipschitz, eps,
                                         ei, si, rep, config.seed, f_ref)
                except NumericalError as exc:
                    manifest["failed"].append({"run": run_id, "error": str(exc)})
                    manifest["runs"].append({"run": run_id, "status": "failed"})
                    continue
                path = os.path.join(out_dir, run_id + ".csv")
                result.trace.write_csv(path, wall_clock=config.record_wall_time)
                manifest["files"].append(path)
                manifest["runs"].append({"run": run_id, "status": "ok"})
                groups.setdefault((label, eps), []).append(result.trace)
    agg_path = os.path.join(out_dir, "aggregate.csv")
    write_csv_rows(agg_path, [row for (label, eps), traces in groups.items()
                              for row in _aggregate_rows(label, eps, traces, config.seed)])
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
    excluded: list[float] = field(default_factory=list)
    unused: bool = False  # the solver never calls this oracle


@dataclass
class SlopeReport:
    metric: str
    solvers: dict[str, SolverSlope]


def fit_loglog(eps_values, calls) -> tuple[float, float]:
    """Least-squares slope of ``log(calls)`` against ``log(1/eps)`` and the
    root-mean-square residual of the fit."""
    x = np.log(1.0 / np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(calls, dtype=float))
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(coeffs[0]), residual


def calls_to_reach(trace_rows, eps: float, column: str) -> float | None:
    """Metric count at the first record with gap at or below ``eps``.

    ``trace_rows`` is a sequence of objects with ``gap`` and metric
    attributes, ordered by iteration; interpolation between rows is never
    used, so counts stay conservative.
    """
    for row in trace_rows:
        if row.gap <= eps:
            return float(getattr(row, column))
    return None


def fit_slopes(traces: dict[str, dict[float, list]], metric: str) -> SlopeReport:
    """Fit per-solver complexity slopes from per-accuracy traces.

    ``traces`` maps solver label to {eps: trace rows}; the count for each
    accuracy is the metric value at the first row reaching that gap.
    Solvers need at least 3 reachable accuracies; unreachable ones are
    excluded and flagged.  A solver whose count is zero in every row is
    marked ``unused`` instead: it never calls that oracle.
    """
    if metric not in METRIC_COLUMNS:
        raise ConfigError(f"unknown metric {metric!r}; one of {', '.join(METRIC_COLUMNS)}")
    column = METRIC_COLUMNS[metric]
    report = SlopeReport(metric=metric, solvers={})
    for label, per_eps in traces.items():
        if all(getattr(row, column) == 0 for rows in per_eps.values() for row in rows):
            report.solvers[label] = SolverSlope(float("nan"), float("nan"), {}, unused=True)
            continue
        points: dict[float, float] = {}
        excluded: list[float] = []
        for eps, rows in per_eps.items():
            count = calls_to_reach(rows, eps, column)
            if count is None or count <= 0:
                excluded.append(eps)
            else:
                points[eps] = count
        if len(points) < 3:
            report.solvers[label] = SolverSlope(float("nan"), float("nan"),
                                                points, excluded)
            continue
        eps_values = sorted(points)
        slope, residual = fit_loglog(eps_values, [points[e] for e in eps_values])
        report.solvers[label] = SolverSlope(slope, residual, points, excluded)
    return report


def _parse_aggregate(path: str) -> dict[str, dict[float, list]]:
    """Group aggregate CSV rows back into {solver: {eps: rows}}."""
    grouped: dict[str, dict[float, list]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected CSV header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            tag = parts[0]
            if "|eps=" not in tag:
                raise ConfigError(f"{path}: row tag {tag!r} lacks an accuracy marker")
            label, eps_part = tag.split("|eps=", 1)
            eps = float(eps_part)
            row = SimpleNamespace(fo_calls=float(parts[2]), sfo_calls=float(parts[3]),
                                  po_calls=float(parts[4]), lmo_calls=float(parts[5]),
                                  gap=float(parts[7]))
            grouped.setdefault(label, {}).setdefault(eps, []).append(row)
    return grouped


def fit_slopes_from_csv(path: str, metric: str) -> SlopeReport:
    """Slope report computed from an aggregate CSV written by
    ``run_experiment``."""
    return fit_slopes(_parse_aggregate(path), metric)
