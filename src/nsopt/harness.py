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
    RunTrace,
    SolverConfig,
    fw_pgd,
    moles,
    mopes,
    pgd,
    write_csv_rows,
)

OUTPUT_DIR_ENV = "NSOPT_OUTPUT_DIR"

# Library defaults are c = c' = 1; the preset below mirrors a tuned large
# experiment configuration and can be selected per solver with "preset".
PRESETS = {"default": {"c": 1.0, "cprime": 1.0}, "tuned": {"c": 40.0, "cprime": 1.0}}

# Every key the harness reads: at the top level, per problem kind and per
# solver.  Any other key is rejected, so a typo cannot fall back to a default.
CONFIG_KEYS = {"seed", "output_dir", "repetitions", "epsilons", "reference_budget",
               "problem", "solvers", "record_wall_time"}
_PROBLEM_SHARED = {"kind", "set", "radius", "g_override"}
PROBLEM_KEYS = {
    "piecewise_linear": _PROBLEM_SHARED | {"d", "pieces", "seed", "anchor"},
    "hinge_svm": _PROBLEM_SHARED | {"n", "d", "seed", "add_bias", "data_path"},
    "matrix_svm": _PROBLEM_SHARED | {"n", "rows", "cols", "seed"},
}
_SOLVER_SHARED = {"name", "batch_size"}
_SPLITTING = _SOLVER_SHARED | {"sigma_override", "preset", "c", "cprime", "dist_estimate",
                               "domain_radius", "project_inner"}
SOLVER_KEYS = {
    "mopes": _SPLITTING,
    "moles": _SPLITTING | {"projection_mode"},
    "pgd": _SOLVER_SHARED | {"steps", "stepsize_rule", "trace_every"},
    "fw_pgd": _SOLVER_SHARED | {"sigma_override", "steps", "mode", "trace_every", "max_lmo",
                                "target_gap"},
}


def _reject_unknown_keys(where: str, given, known: set) -> None:
    unknown = sorted(set(given) - known)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    seed: int
    output_dir: str
    repetitions: int
    epsilons: list[float]
    reference_budget: int
    problem: dict
    solvers: list[dict]
    record_wall_time: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _reject_unknown_keys("config", raw, CONFIG_KEYS)
        try:
            cfg = cls(
                seed=int(raw.get("seed", 0)),
                output_dir=str(raw.get("output_dir", "nsopt_out")),
                repetitions=int(raw.get("repetitions", 1)),
                epsilons=[float(e) for e in raw["epsilons"]],
                reference_budget=int(raw.get("reference_budget", 10 ** 5)),
                problem=dict(raw["problem"]),
                solvers=[dict(s) for s in raw["solvers"]],
                record_wall_time=bool(raw.get("record_wall_time", False)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc.args[0]}") from None
        kind = cfg.problem.get("kind")
        if kind not in PROBLEM_KEYS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        _reject_unknown_keys(f"{kind} problem", cfg.problem, PROBLEM_KEYS[kind])
        if cfg.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not cfg.epsilons or any(e <= 0 for e in cfg.epsilons):
            raise ConfigError("epsilons must be a nonempty list of positive values")
        if len(set(cfg.epsilons)) != len(cfg.epsilons):
            raise ConfigError("epsilons must be distinct")
        for spec in cfg.solvers:
            if spec.get("name") not in SOLVER_KEYS:
                raise ConfigError(f"unknown solver {spec.get('name')!r}; "
                                  f"registered: {', '.join(SOLVER_KEYS)}")
            _reject_unknown_keys(f"{spec['name']} solver", spec, SOLVER_KEYS[spec["name"]])
            if spec.get("preset", "default") not in PRESETS:
                raise ConfigError(f"unknown preset {spec['preset']!r}")
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

    Returns ``(instance, set_descriptor, lipschitz)`` where the Lipschitz
    constant is the certified bound unless overridden by ``g_override``.
    """
    kind = problem_cfg.get("kind")
    radius = float(problem_cfg.get("radius", 1.0))
    set_kind = problem_cfg.get("set", "l1_ball")
    if kind == "piecewise_linear":
        dim = int(problem_cfg.get("d", 10))
        pieces = int(problem_cfg.get("pieces", 6))
        seed = int(problem_cfg.get("seed", 0))
        anchor = problem_cfg.get("anchor")
        anchor = None if anchor is None else np.asarray(anchor, dtype=float)
        instance = synth_piecewise_linear(dim, pieces, seed, anchor=anchor)
        shape = (dim,)
    elif kind == "hinge_svm":
        if "data_path" in problem_cfg:
            rows = load_dense_csv(problem_cfg["data_path"],
                                  add_bias=bool(problem_cfg.get("add_bias", False)))
        else:
            rows = synth_hinge_data(int(problem_cfg.get("n", 100)),
                                    int(problem_cfg.get("d", 10)),
                                    int(problem_cfg.get("seed", 0)),
                                    add_bias=bool(problem_cfg.get("add_bias", False)))
        instance = HingeSvmInstance(rows)
        shape = (instance.dim,)
    elif kind == "matrix_svm":
        rows_n = int(problem_cfg.get("n", 50))
        m = int(problem_cfg.get("rows", 4))
        p = int(problem_cfg.get("cols", 4))
        seed = int(problem_cfg.get("seed", 0))
        flat = synth_hinge_data(rows_n, m * p, seed)
        instance = MatrixSvmInstance(flat.reshape(rows_n, m, p))
        shape = (m, p)
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    if set_kind == "nuclear_ball" and len(shape) != 2:
        raise ConfigError("nuclear_ball set needs a matrix-shaped problem")
    if set_kind != "nuclear_ball":
        descriptor = SetDescriptor(set_kind, radius, (int(np.prod(shape)),))
    else:
        descriptor = SetDescriptor(set_kind, radius, shape)
    lipschitz = float(problem_cfg.get("g_override") or instance.lipschitz_bound)
    return instance, descriptor, lipschitz


def reference_optimum(problem, feasible_set: SetDescriptor, budget: int,
                      lipschitz: float | None = None, seed: int = 0):
    """Estimate the optimal value by a long diminishing-step subgradient run.

    Returns ``(f_star, x_star)`` where ``f_star`` is the best objective
    value observed over the budget (never below the true minimum, since
    every iterate is feasible) and ``x_star`` is the certificate iterate.
    """
    if budget < 10 ** 4:
        raise ValueError("reference budget must be at least 10^4 steps")
    lipschitz = float(lipschitz if lipschitz is not None else problem.lipschitz_bound)
    fo = FirstOrderOracle.from_instance(problem)
    fo.lipschitz_bound = lipschitz
    po = ProjectionOracle.from_set(feasible_set)
    x0 = np.zeros(feasible_set.dim)
    result = pgd(problem, fo, po, x0, budget, lipschitz, feasible_set.diameter,
                 stepsize_rule="diminishing", seed=seed,
                 trace_every=max(1, budget // 50))
    return float(result.f_best), result.x_best


def _solver_label(spec: dict) -> str:
    base = spec["name"]
    if base == "pgd":
        return f"pgd_{spec.get('stepsize_rule', 'fixed')}"
    if base == "fw_pgd":
        return f"fw_pgd_{spec.get('mode', 'budget')}"
    if base == "moles" and spec.get("projection_mode", "budget") != "budget":
        return "moles_wolfe"
    return base


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _philox(key: list[int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _run_single(spec: dict, problem, descriptor: SetDescriptor, lipschitz: float,
                eps: float, eps_index: int, solver_index: int, rep: int,
                global_seed: int, f_ref: float):
    """Execute one (solver, accuracy, repetition) run and return its trace."""
    name = spec["name"]
    run_seed = _seed_int(global_seed, solver_index, eps_index, rep)
    # Starting points are shared across solvers and accuracies for a given
    # repetition, mirroring mean-over-runs plots with common starts.
    x0 = descriptor.boundary_point(_philox([global_seed, 1000003, rep]))
    po = ProjectionOracle.from_set(descriptor)
    lmo = LinearMinimizationOracle.from_set(
        descriptor, rng=_philox([global_seed, 2000003, solver_index, eps_index, rep]))

    batch_size = spec.get("batch_size")
    if batch_size:
        oracle = minibatch_sfo(problem, int(batch_size))
        sigma = math.sqrt(oracle.variance_bound)
    else:
        oracle = FirstOrderOracle.from_instance(problem)
        oracle.lipschitz_bound = lipschitz
        sigma = 0.0
    sigma = float(spec.get("sigma_override", sigma))

    if name in ("mopes", "moles"):
        preset = PRESETS[spec["preset"]] if "preset" in spec else {}
        c = float(spec.get("c", preset.get("c", 1.0)))
        cprime = float(spec.get("cprime", preset.get("cprime", 1.0)))
        dist_estimate = spec.get("dist_estimate")
        config = SolverConfig.from_target(
            eps, lipschitz, descriptor.diameter, method=name, c=c, cprime=cprime,
            sigma=sigma, seed=run_seed,
            dist_estimate=None if dist_estimate is None else float(dist_estimate),
            domain_radius=spec.get("domain_radius"),
            project_inner=bool(spec.get("project_inner", True)),
            projection_mode=spec.get("projection_mode", "budget"),
        )
        if name == "mopes":
            return mopes(problem, oracle, po, config, x0, f_ref=f_ref)
        return moles(problem, oracle, lmo, config, x0, f_ref=f_ref)
    if name == "pgd":
        steps = int(spec.get("steps", 10 ** 4))
        return pgd(problem, oracle, po, x0, steps, lipschitz, descriptor.diameter,
                   stepsize_rule=spec.get("stepsize_rule", "fixed"), seed=run_seed,
                   f_ref=f_ref, trace_every=int(spec.get("trace_every", 1)))
    if name == "fw_pgd":
        noise = math.sqrt(lipschitz ** 2 + sigma ** 2)
        default_steps = math.ceil((2.0 * noise * descriptor.diameter / eps) ** 2)
        steps = int(spec.get("steps", default_steps))
        return fw_pgd(problem, oracle, lmo, x0, steps, lipschitz, sigma,
                      descriptor.diameter, mode=spec.get("mode", "budget"),
                      seed=run_seed, f_ref=f_ref,
                      trace_every=int(spec.get("trace_every", 1)),
                      max_lmo=spec.get("max_lmo"), target_gap=spec.get("target_gap"))
    raise ConfigError(f"unknown solver {name!r}")


def _aggregate_rows(label: str, eps: float, traces: list[RunTrace], seed: int) -> list[str]:
    """Mean across repetitions, aligned by row index."""
    n_rows = min(len(t.records) for t in traces)
    rows = []
    tag = f"{label}|eps={eps!r}"
    for i in range(n_rows):
        recs = [t.records[i] for t in traces]
        k = recs[0].k
        means = [float(np.mean([getattr(r, name) for r in recs]))
                 for name in ("fo_calls", "sfo_calls", "po_calls", "lmo_calls",
                              "f_value", "gap")]
        rows.append(f"{tag},{k},{means[0]!r},{means[1]!r},{means[2]!r},{means[3]!r},"
                    f"{means[4]!r},{means[5]!r},{0.0!r},{seed}")
    return rows


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
                                 lipschitz, seed=_seed_int(config.seed, 999))
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
