"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (the set-up), makes
one timed call through the public API (the solve), and checks what comes
back: exact oracle counts against their closed forms, feasibility of the
returned iterate, and accuracy.

A seed changes the input bytes and leaves the amount of work almost
unchanged, so the spread between runs measures the machine rather than the
inputs:

* ``moles_l1`` and ``moles_nuclear`` permute the coordinates, pieces or
  samples of one fixed instance.  The permuted problem is isomorphic to
  the original: same optimum, same schedule, same oracle counts.  The seed
  also drives the nuclear LMO's power-iteration stream, which moves the
  number of power iterations by about 2 %.
* ``sweep_svm`` passes the seed as the experiment seed, which draws the
  start points and the minibatches; its counts do not depend on either.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nsopt.cli
import nsopt.harness
import nsopt.solvers
from nsopt import (
    FirstOrderOracle,
    HingeSvmInstance,
    LinearMinimizationOracle,
    MatrixSvmInstance,
    PiecewiseLinearInstance,
    ProjectionOracle,
    StochasticFirstOrderOracle,
    SolverConfig,
    l1_ball,
    moles,
    nuclear_ball,
    reference_optimum,
    synth_hinge_data,
    synth_piecewise_linear,
)
from spans import TracedProblem, Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH_DIR = BENCH_DIR.parent / ".bench_build"
NUCLEAR_REFERENCE = BENCH_DIR / "reference_nuclear.json"

# The trace CSV header is a tested contract of the library; the benchmark
# keeps its own copy so that a changed header fails the check.
CSV_HEADER = "algorithm,k,fo_calls,sfo_calls,po_calls,lmo_calls,f_value,gap,wall_ms,seed"
COUNT_KEYS = ("fo", "sfo", "po", "lmo")


def philox(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# ---------------------------------------------------------------------------
# Closed forms of the oracle counts, written out independently of the
# library's schedule code.
# ---------------------------------------------------------------------------


def mopes_outer_steps(eps, lipschitz, dist, c=1.0):
    return math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c) * lipschitz * dist / eps)


def moles_outer_steps(eps, lipschitz, dist, c=1.0, cprime=1.0):
    return math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c * (1.0 + cprime)) * lipschitz * dist / eps)


def subgradient_calls(eps, lipschitz, sigma, outer_steps, d_tilde):
    """``sum_k ceil((4 G^2 + sigma^2) lam^2 K k^2 / (2 d_tilde))`` with
    ``lam = eps / G^2``."""
    lam = eps / lipschitz ** 2
    return sum(math.ceil((4.0 * lipschitz ** 2 + sigma ** 2) * lam ** 2
                         * outer_steps * k ** 2 / (2.0 * d_tilde))
               for k in range(1, outer_steps + 1))


def fw_budget(outer_steps, diameter, d_tilde, cprime=1.0):
    return math.ceil(7.0 * outer_steps * diameter ** 2 / (cprime * d_tilde))


@dataclass
class Outcome:
    """Oracle counts of one solve, the failed checks, and extra facts to
    print (gap, slopes)."""

    counts: dict
    failures: list
    info: dict = field(default_factory=dict)


def _compare_counts(counts: dict, expected: dict, where: str) -> list:
    return [f"{where}: {key}_calls {counts[key]} != closed form {expected[key]}"
            for key in COUNT_KEYS if counts[key] != expected[key]]


# ---------------------------------------------------------------------------
# moles workloads
# ---------------------------------------------------------------------------


@dataclass
class MolesCase:
    problem: object          # the instance, for the checks
    solver_problem: object   # what the solver sees (a traced view when tracing)
    fo: FirstOrderOracle
    lmo: LinearMinimizationOracle
    config: SolverConfig
    x0: np.ndarray
    dist: float
    f_target: float          # the gap is measured against this value


class MolesWorkload:
    """``moles`` with the deterministic first-order oracle, fixed FW budget.

    The gap must lie in ``[-gap_slack, eps]``.  The target is a certified
    minimum, so a gap below ``-gap_slack`` (rounding) means that the
    objective or the stored target is wrong.
    """

    spans = ("solve", "prox_slide", "fo", "fw_projection", "lmo", "trace_value")
    trace_pairs = 3
    radius = 1.0
    gap_slack = 1e-9

    def __init__(self, eps: float):
        self.eps = eps

    def instance(self, seed: int):
        """Return ``(problem, ball, x0, dist, f_target, lmo_rng)``."""
        raise NotImplementedError

    def set_norm(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def build(self, seed: int, tracer: Tracer | None = None) -> MolesCase:
        problem, ball, x0, dist, f_target, lmo_rng = self.instance(seed)
        fo = FirstOrderOracle.from_instance(problem)
        lmo = LinearMinimizationOracle.from_set(ball, rng=lmo_rng)
        solver_problem = problem
        if tracer is not None:
            fo = FirstOrderOracle(tracer.wrap("fo", fo.evaluate), fo.lipschitz_bound)
            lmo = LinearMinimizationOracle(tracer.wrap("lmo", lmo.minimize), ball)
            solver_problem = TracedProblem(problem, tracer)
        config = SolverConfig.from_target(self.eps, problem.lipschitz_bound, ball.diameter,
                                          method="moles", dist_estimate=dist, seed=seed)
        return MolesCase(problem, solver_problem, fo, lmo, config, x0, dist, f_target)

    def run(self, case: MolesCase, tracer: Tracer | None = None):
        def solve():
            return moles(case.solver_problem, case.fo, case.lmo, case.config, case.x0)

        if tracer is None:
            return solve()
        with patched([
            (nsopt.solvers, "prox_slide", lambda f: tracer.wrap("prox_slide", f)),
            (nsopt.solvers, "fw_quadratic_projection",
             lambda f: tracer.wrap("fw_projection", f)),
        ]):
            return tracer.wrap("solve", solve)()

    def check(self, case: MolesCase, result) -> Outcome:
        lipschitz = case.problem.lipschitz_bound
        outer = moles_outer_steps(self.eps, lipschitz, case.dist)
        d_tilde = case.dist ** 2
        expected = {"fo": subgradient_calls(self.eps, lipschitz, 0.0, outer, d_tilde),
                    "sfo": 0, "po": 0,
                    "lmo": outer * fw_budget(outer, 2.0 * self.radius, d_tilde)}
        counts = dict(zip(COUNT_KEYS, result.counters.as_tuple()))
        failures = _compare_counts(counts, expected, "moles")
        if case.config.outer_steps != outer:
            failures.append(f"outer steps {case.config.outer_steps} != closed form {outer}")
        x = np.asarray(result.x, dtype=float)
        gap = float("nan")
        if not np.all(np.isfinite(x)):
            failures.append("returned iterate is not finite")
        else:
            excess = self.set_norm(x) - self.radius
            if excess > 1e-9:
                failures.append(f"returned iterate lies outside the set by {excess:.3g}")
            gap = case.problem.value(x) - case.f_target
            if not gap <= self.eps:
                failures.append(f"gap {gap:.6g} exceeds eps {self.eps}")
            if not gap >= -self.gap_slack:
                failures.append(f"gap {gap:.6g} is below -{self.gap_slack}: "
                                "the target value is not a lower bound")
        return Outcome(counts, failures, {"gap": gap, "eps": self.eps})

    def close(self, case) -> None:
        pass

    def layer_metrics(self, tracer: Tracer) -> dict:
        return {}


class MolesL1(MolesWorkload):
    """The acceptance-bench problem: max-affine, d = 20, 40 pieces, seed 22,
    off-centre anchor, unit l1 ball, start at the far vertex e_1.  The gap
    is taken against the certified minimum at the anchor."""

    name = "moles_l1"
    dim, pieces, instance_seed = 20, 40, 22

    def __init__(self, tiny: bool = False):
        super().__init__(2.0 if tiny else 0.4)

    def instance(self, seed):
        d = self.dim
        anchor = np.zeros(d)
        anchor[0] = -0.45
        anchor[1:] = philox(5).uniform(-0.05, 0.05, d - 1)
        base = synth_piecewise_linear(d, self.pieces, self.instance_seed, anchor=anchor)
        order = philox((seed, 1))
        cols, pieces = order.permutation(d), order.permutation(self.pieces)
        anchor = anchor[cols]
        problem = PiecewiseLinearInstance(base.slopes[pieces][:, cols],
                                          base.intercepts[pieces], minimizer=anchor)
        problem.min_value = problem.value(anchor)
        x0 = (cols == 0).astype(float)
        dist = 1.02 * float(np.linalg.norm(x0 - anchor))
        return problem, l1_ball(d, self.radius), x0, dist, problem.min_value, None

    def set_norm(self, x):
        return float(np.abs(x).sum())


class MolesNuclear(MolesWorkload):
    """Matrix hinge SVM (data seed 7) over the unit nuclear ball.

    The gap is taken against a stored reference value
    (``reference_nuclear.json``, written by ``make_reference.py``): the best
    value of a projected subgradient solve, stored with the certified lower
    bound that a subgradient at its certificate point gives.  The two must
    agree to within ``gap_slack``, so the stored value is the minimum.
    """

    name = "moles_nuclear"
    data_seed = 7
    start_key = (7, 1)

    def __init__(self, tiny: bool = False):
        super().__init__(2.0 if tiny else 1.0)
        self.samples, self.shape = (20, (4, 4)) if tiny else (100, (10, 10))
        self._stored = None

    def base_problem(self) -> MatrixSvmInstance:
        m, p = self.shape
        flat = synth_hinge_data(self.samples, m * p, self.data_seed)
        return MatrixSvmInstance(flat.reshape(self.samples, m, p))

    def describe(self) -> dict:
        return {"n": self.samples, "rows": self.shape[0], "cols": self.shape[1],
                "data_seed": self.data_seed, "radius": self.radius}

    def reference(self, budget: int, seed: int = 0) -> tuple[float, float]:
        """Best value of a ``budget``-step reference solve on the base
        instance, and a certified lower bound on the minimum.

        With ``g`` a subgradient at the reference point ``x``, convexity gives
        ``f(y) >= f(x) + <g, y - x>`` for every ``y`` in the ball, whose least
        right-hand side is ``f(x) - <g, x> - radius * sigma_max(g)``.
        """
        ball = nuclear_ball(*self.shape, self.radius)
        problem = self.base_problem()
        f_ref, x = reference_optimum(problem, ball, budget, seed=seed)
        value, g = problem.value_and_subgradient(x)
        sigma_max = np.linalg.svd(g.reshape(self.shape), compute_uv=False)[0]
        return f_ref, float(value - g @ x - self.radius * sigma_max)

    def stored(self) -> dict:
        """The stored reference record of this instance."""
        if self._stored is None:
            records = json.loads(NUCLEAR_REFERENCE.read_text())["references"]
            matches = [r for r in records if r["instance"] == self.describe()]
            if not matches:
                raise LookupError(f"no stored reference for {self.describe()}; "
                                  "run bench/make_reference.py")
            record = matches[0]
            if not record["f_ref"] - record["lower_bound"] <= self.gap_slack:
                raise ValueError(f"stored reference {record['f_ref']} is not certified: "
                                 f"the lower bound is {record['lower_bound']}")
            self._stored = record
        return self._stored

    def instance(self, seed):
        m, p = self.shape
        base = self.base_problem()
        order = philox((seed, 2))
        rows, cols, samples = (order.permutation(m), order.permutation(p),
                               order.permutation(self.samples))
        problem = MatrixSvmInstance(base.mats[samples][:, rows][:, :, cols])
        ball = nuclear_ball(m, p, self.radius)
        start = ball.boundary_point(philox(self.start_key)).reshape(m, p)
        x0 = start[rows][:, cols].ravel()
        return problem, ball, x0, 1.0, self.stored()["f_ref"], philox((seed, 3))

    def set_norm(self, x):
        return float(np.linalg.svd(x.reshape(self.shape), compute_uv=False).sum())


# ---------------------------------------------------------------------------
# sweep workload
# ---------------------------------------------------------------------------


@dataclass
class SweepCase:
    root: Path
    config_path: Path


class SweepSvm:
    """``nsopt sweep`` on a hinge-SVM config owned by the benchmark."""

    name = "sweep_svm"
    spans = ("sweep", "reference", "run_single", "fo", "sfo", "project", "trace_value",
             "csv_write", "fit_slopes")
    trace_pairs = 1
    batch_size = 4
    repetitions = 2

    def __init__(self, tiny: bool = False):
        if tiny:
            self.samples, self.dim, self.reference_budget = 40, 5, 10 ** 4
            self.pgd_steps, self.epsilons = 300, [4.0, 2.0, 1.0]
        else:
            self.samples, self.dim, self.reference_budget = 200, 20, 10 ** 5
            self.pgd_steps, self.epsilons = 20000, [3.0, 1.5, 0.75]
        self._data = None

    def build(self, seed: int, tracer: Tracer | None = None) -> SweepCase:
        SCRATCH_DIR.mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=SCRATCH_DIR))
        config = {
            "seed": seed,
            "output_dir": str(root / "out"),
            "repetitions": self.repetitions,
            "epsilons": self.epsilons,
            "reference_budget": self.reference_budget,
            "problem": {"kind": "hinge_svm", "n": self.samples, "d": self.dim, "seed": 123,
                        "set": "l1_ball", "radius": 1.0},
            "solvers": [
                {"name": "mopes", "batch_size": self.batch_size},
                {"name": "pgd", "steps": self.pgd_steps, "stepsize_rule": "diminishing"},
            ],
        }
        path = root / "config.json"
        path.write_text(json.dumps(config))
        return SweepCase(root, path)

    def run(self, case: SweepCase, tracer: Tracer | None = None):
        # The documented override would redirect the output out of the case.
        os.environ.pop(nsopt.harness.OUTPUT_DIR_ENV, None)
        out = io.StringIO()

        def sweep():
            with contextlib.redirect_stdout(out):
                return nsopt.cli.main(["sweep", str(case.config_path)])

        if tracer is None:
            code = sweep()
        else:
            with patched(self._replacements(tracer)):
                code = tracer.wrap("sweep", sweep)()
        return code, out.getvalue()

    @staticmethod
    def _replacements(tracer: Tracer) -> list:
        def traced_build(build_problem):
            def build(problem_cfg):
                problem, descriptor, lipschitz = build_problem(problem_cfg)
                return TracedProblem(problem, tracer), descriptor, lipschitz
            return build

        class TracedFirstOrderOracle(FirstOrderOracle):
            @classmethod
            def from_instance(cls, instance):
                plain = FirstOrderOracle.from_instance(instance)
                return FirstOrderOracle(tracer.wrap("fo", plain.evaluate), plain.lipschitz_bound)

        class TracedProjectionOracle(ProjectionOracle):
            @classmethod
            def from_set(cls, descriptor):
                plain = ProjectionOracle.from_set(descriptor)
                return ProjectionOracle(tracer.wrap("project", plain.project), descriptor)

        def traced_minibatch(minibatch_sfo):
            def make(problem, batch_size, rng=None):
                plain = minibatch_sfo(problem, batch_size, rng)
                return StochasticFirstOrderOracle(tracer.wrap("sfo", plain.sample),
                                                  plain.variance_bound)
            return make

        harness = nsopt.harness
        return [
            (harness, "build_problem", traced_build),
            (harness, "reference_optimum", lambda f: tracer.wrap("reference", f)),
            (harness, "_run_single", lambda f: tracer.wrap("run_single", f)),
            (harness, "FirstOrderOracle", lambda _: TracedFirstOrderOracle),
            (harness, "ProjectionOracle", lambda _: TracedProjectionOracle),
            (harness, "minibatch_sfo", traced_minibatch),
            (nsopt.solvers.RunTrace, "write_csv", lambda f: tracer.wrap("csv_write", f)),
            (nsopt.cli, "fit_slopes_from_csv", lambda f: tracer.wrap("fit_slopes", f)),
        ]

    def _expected(self, algorithm: str, eps: float) -> tuple[int, dict]:
        """Final outer step and closed-form counts of one run."""
        if algorithm == "pgd_diminishing":
            steps = self.pgd_steps
            return steps, {"fo": steps, "sfo": 0, "po": steps, "lmo": 0}
        if self._data is None:
            problem = HingeSvmInstance(synth_hinge_data(self.samples, self.dim, 123))
            self._data = (problem.lipschitz_bound, problem.term_norm_bound())
        lipschitz, term_bound = self._data
        sigma = math.sqrt(float(term_bound) ** 2 / self.batch_size)
        dist = 2.0  # the set diameter, the harness default
        outer = mopes_outer_steps(eps, lipschitz, dist)
        sfo = subgradient_calls(eps, lipschitz, sigma, outer, dist ** 2)
        return outer, {"fo": 0, "sfo": sfo, "po": outer, "lmo": 0}

    def check(self, case: SweepCase, result) -> Outcome:
        code, stdout = result
        counts = dict.fromkeys(COUNT_KEYS, 0)
        failures = []
        if code != 0:
            failures.append(f"nsopt sweep exited with code {code}")
        lines = stdout.strip().splitlines()
        try:
            manifest = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return Outcome(counts, failures + ["nsopt sweep printed no manifest"])
        if manifest.get("failed"):
            failures.append(f"failed runs in the manifest: {manifest['failed']}")
        files = manifest.get("files", [])
        runs = 2 * len(self.epsilons) * self.repetitions
        if len(files) != runs + 1:
            failures.append(f"{len(files)} files written, expected {runs + 1}")
        for path in files:
            name = Path(path).name
            text = Path(path).read_text().splitlines()
            if not text or text[0] != CSV_HEADER:
                failures.append(f"{name}: header differs from the fixed header")
                continue
            rows = [line.split(",") for line in text[1:]]
            if not rows:
                failures.append(f"{name}: no trace rows")
                continue
            if not all(math.isfinite(float(row[6])) and math.isfinite(float(row[7]))
                       for row in rows):
                failures.append(f"{name}: non-finite value or gap")
            if name == "aggregate.csv":
                continue
            match = re.search(r"_eps([^_]+)_rep\d+\.csv$", name)
            if match is None:
                failures.append(f"{name}: not a per-run trace name")
                continue
            final = rows[-1]
            outer, expected = self._expected(final[0], float(match.group(1)))
            got = dict(zip(COUNT_KEYS, (int(v) for v in final[2:6])))
            failures += _compare_counts(got, expected, name)
            if int(final[1]) != outer:
                failures.append(f"{name}: final step {final[1]} != {outer}")
            for key in COUNT_KEYS:
                counts[key] += got[key]
        slopes = {}
        for line in lines[:-1]:
            parts = line.split("\t")
            if len(parts) >= 3 and parts[2].startswith("slope="):
                slopes[f"{parts[0]}.{parts[1]}"] = parts[2][len("slope="):]
        return Outcome(counts, failures, {"slopes": slopes})

    def close(self, case: SweepCase) -> None:
        shutil.rmtree(case.root, ignore_errors=True)

    @staticmethod
    def layer_metrics(tracer: Tracer) -> dict:
        """Harness costs from the traced sweep, inclusive of the spans
        nested in them."""
        def per_call_ms(span):
            return 1e3 * tracer.total_s(span) / max(1, tracer.count(span))

        return {"harness.reference_s": (tracer.total_s("reference"), "s"),
                "harness.csv_write_ms": (per_call_ms("csv_write"), "ms"),
                "harness.fit_slopes_ms": (per_call_ms("fit_slopes"), "ms")}


WORKLOADS = {cls.name: cls for cls in (MolesL1, MolesNuclear, SweepSvm)}
