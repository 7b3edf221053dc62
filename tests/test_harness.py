"""Experiment harness: configs, reference solves, file output, slope fits, CLI."""

import json
import math
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nsopt import (
    ConfigError,
    HingeSvmInstance,
    MatrixSvmInstance,
    NumericalError,
    fit_slopes,
    l1_ball,
    load_config,
    nuclear_ball,
    reference_optimum,
    run_experiment,
    synth_hinge_data,
    synth_piecewise_linear,
)
from nsopt import cli, harness, solvers
from nsopt.harness import ExperimentConfig, build_problem, fit_loglog, fit_slopes_from_csv
from nsopt.solvers import CSV_HEADER, RunTrace, format_bodies
from conftest import philox


def small_config(tmp_path, **overrides):
    base = {
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "repetitions": 1,
        "epsilons": [0.3],
        "reference_budget": 10 ** 4,
        "problem": {"kind": "piecewise_linear", "d": 4, "pieces": 4, "seed": 0,
                    "set": "l1_ball", "radius": 1.0},
        "solvers": [{"name": "mopes", "dist_estimate": 1.0}],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_unknown_solver_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown solver"):
            small_config(tmp_path, solvers=[{"name": "newton"}])

    def test_epsilons_must_be_positive_and_distinct(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, epsilons=[])
        with pytest.raises(ConfigError):
            small_config(tmp_path, epsilons=[0.1, -0.2])
        with pytest.raises(ConfigError):
            small_config(tmp_path, epsilons=[0.1, 0.1])

    @pytest.mark.parametrize("overrides, key", [
        ({"solvers": [{"name": "mopes", "dist_estimte": 1.0}]}, "dist_estimte"),
        ({"solvers": [{"name": "mopes", "steps": 100}]}, "steps"),
        ({"solvers": [{"name": "pgd", "projection_mode": "wolfe"}]}, "projection_mode"),
        ({"problem": {"kind": "piecewise_linear", "d": 4, "rows": 2}}, "rows"),
        ({"repetition": 2}, "repetition"),
        ({"solvers": [{"name": "moles", "preset": "tuned"}]}, "preset"),
        ({"problem": {"kind": "piecewise_linear", "d": 4, "g_override": 2.0}}, "g_override"),
        ({"solvers": [{"name": "fw_pgd", "sigma_override": 0.5}]}, "sigma_override"),
        ({"solvers": [{"name": "mopes", "domain_radius": 2.0}]}, "domain_radius"),
        ({"solvers": [{"name": "mopes", "project_inner": False}]}, "project_inner"),
        ({"solvers": [{"name": "mopes", "cprime": 2.0}]}, "cprime"),
        ({"solvers": [{"name": "pgd", "trace_every": 5}]}, "trace_every"),
        ({"problem": {"kind": "hinge_svm", "add_bias": True}}, "add_bias"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, overrides, key):
        with pytest.raises(ConfigError, match=f"unknown .* key\\(s\\): '{key}'"):
            small_config(tmp_path, **overrides)

    def test_unknown_problem_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown problem kind 'quadratic'"):
            small_config(tmp_path, problem={"kind": "quadratic"})

    def test_readme_example_config_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_dict(json.loads(example))
        assert [s["name"] for s in cfg.solvers] == ["mopes", "moles", "pgd", "fw_pgd"]

    def test_readme_names_every_config_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        tables = [harness.CONFIG_KEYS, *harness.PROBLEM_KEYS.values(),
                  *harness.SOLVER_KEYS.values()]
        missing = {key for table in tables for key in table if f"`{key}`" not in readme}
        assert not missing

    def test_values_are_typed_and_defaulted_at_load(self, tmp_path):
        cfg = small_config(tmp_path, seed=3.0, record_wall_time=True,
                           solvers=[{"name": "pgd", "steps": 50.0}, {"name": "moles", "c": None}])
        assert cfg.seed == 3 and type(cfg.seed) is int
        assert cfg.record_wall_time is True
        assert cfg.problem == {"kind": "piecewise_linear", "set": "l1_ball", "radius": 1.0,
                               "seed": 0, "d": 4, "pieces": 4, "anchor": None}
        assert cfg.solvers == [
            {"name": "pgd", "batch_size": None, "steps": 50, "stepsize_rule": "fixed"},
            {"name": "moles", "batch_size": None, "c": 1.0, "cprime": 1.0,
             "dist_estimate": None, "projection_mode": "budget"}]

    def test_real_values_load_as_floats(self, tmp_path):
        # a gap against a reference above the minimum can be negative
        cfg = small_config(tmp_path, epsilons=[1, 0.5],
                           problem={"kind": "piecewise_linear", "d": 2, "anchor": [0, 0.5]},
                           solvers=[{"name": "fw_pgd", "max_lmo": 1000, "target_gap": -0.5}])
        assert cfg.epsilons == [1.0, 0.5] and type(cfg.epsilons[0]) is float
        assert cfg.problem["anchor"].tolist() == [0.0, 0.5]
        assert cfg.solvers[0]["max_lmo"] == 1000.0 and cfg.solvers[0]["target_gap"] == -0.5

    def test_shipped_config_loads(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "desk_sweep.json"
        assert [s["name"] for s in load_config(str(path)).solvers] == ["mopes", "pgd"]

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))

    def test_build_problem_kinds(self, tmp_path):
        for problem_cfg in (
            {"kind": "piecewise_linear", "d": 3, "pieces": 4, "seed": 1,
             "set": "l1_ball", "radius": 1.0},
            {"kind": "hinge_svm", "n": 10, "d": 3, "seed": 1,
             "set": "l2_ball", "radius": 1.0},
            {"kind": "matrix_svm", "n": 8, "rows": 2, "cols": 3, "seed": 1,
             "set": "nuclear_ball", "radius": 0.5},
        ):
            spec = small_config(tmp_path, problem=problem_cfg).problem
            problem, descriptor, lipschitz = build_problem(spec)
            assert descriptor.dim == problem.dim
            assert lipschitz > 0


def counting(problem):
    """``problem`` seen through a wrapper that counts its subgradient calls
    in the returned one-element list."""
    calls = [0]

    def value_and_subgradient(x):
        calls[0] += 1
        return problem.value_and_subgradient(x)

    return SimpleNamespace(value_and_subgradient=value_and_subgradient,
                           lipschitz_bound=problem.lipschitz_bound), calls


class TestReferenceOptimum:
    def test_budget_precondition(self):
        inst = synth_piecewise_linear(3, 4, 0)
        with pytest.raises(ValueError):
            reference_optimum(inst, l1_ball(3, 1.0), 100)

    def test_never_below_certificate_and_monotone(self):
        gen = philox(2)
        anchor = gen.uniform(-0.2, 0.2, 4)
        inst = synth_piecewise_linear(4, 5, 2, anchor=anchor)
        ball = l1_ball(4, 1.0)
        counted, calls = counting(inst)
        f1, x1 = reference_optimum(counted, ball, 10 ** 4)
        f2, _ = reference_optimum(inst, ball, 2 * 10 ** 4)
        # The optimum is interior, so no one-point certificate closes the
        # bracket and the solve spends its whole budget.
        assert calls[0] == 10 ** 4
        assert f1 >= inst.min_value - 1e-12
        assert f2 <= f1  # longer run extends the same trajectory
        assert inst.value(x1) == f1

    @pytest.mark.parametrize("problem, ball, dual_norm", [
        (HingeSvmInstance(synth_hinge_data(200, 20, 123)), l1_ball(20, 1.0),
         lambda g: np.abs(g).max()),
        (MatrixSvmInstance(synth_hinge_data(30, 9, 1).reshape(30, 3, 3)), nuclear_ball(3, 3, 1.0),
         lambda g: np.linalg.svd(g.reshape(3, 3), compute_uv=False)[0]),
    ], ids=["hinge_l1", "matrix_nuclear"])
    def test_certified_stop(self, problem, ball, dual_norm):
        # Both optima are vertices of the ball, where one subgradient
        # certifies the value, so the solve stops long before its budget.
        budget = 10 ** 5
        counted, calls = counting(problem)
        f_star, x_star = reference_optimum(counted, ball, budget)
        assert calls[0] <= budget // 10
        value, g = problem.value_and_subgradient(x_star)
        lower = value - g @ x_star - ball.radius * dual_norm(g)
        assert value == f_star
        assert abs(f_star - lower) <= 1e-12 * max(1.0, abs(f_star))

    @pytest.mark.slow
    def test_long_run_reaches_synthetic_minimum(self):
        gen = philox(9)
        anchor = gen.uniform(-0.2, 0.2, 6)
        inst = synth_piecewise_linear(6, 5, 9, anchor=anchor)
        ball = l1_ball(6, 1.0)
        f_star, _ = reference_optimum(inst, ball, 10 ** 6)
        assert f_star - inst.min_value <= 1e-3 * inst.lipschitz_bound * ball.diameter


class TestRunExperiment:
    def test_file_accounting_single_run(self, tmp_path):
        manifest = run_experiment(small_config(tmp_path))
        assert len(manifest["files"]) == 2
        run_csv, aggregate = manifest["files"]
        assert run_csv.endswith("mopes_eps0.3_rep0.csv")
        assert aggregate.endswith("aggregate.csv")
        assert manifest["failed"] == []

    def test_identical_configs_identical_bytes(self, tmp_path):
        m1 = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "a"),
                                         repetitions=2))
        m2 = run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "b"),
                                         repetitions=2))
        assert len(m1["files"]) == len(m2["files"])
        for f1, f2 in zip(m1["files"], m2["files"]):
            assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_mopes_outer_step_count_from_formula(self, tmp_path):
        # c = 1, G = 1, distance estimate 1, eps = 0.1 -> 85 projections
        manifest = run_experiment(small_config(tmp_path, epsilons=[0.1]))
        rows = open(manifest["files"][0]).read().splitlines()
        assert rows[0] == CSV_HEADER
        last = rows[-1].split(",")
        assert int(last[4]) == math.ceil(2.0 * math.sqrt(18.0) * 10.0) == 85
        assert int(last[1]) == 85

    def test_aggregate_is_arithmetic_mean(self, tmp_path):
        manifest = run_experiment(small_config(tmp_path, repetitions=3))
        run_files = [f for f in manifest["files"] if "rep" in f]
        per_run = []
        for f in run_files:
            rows = [line.split(",") for line in open(f).read().splitlines()[1:]]
            per_run.append(np.array([[float(v) for v in r[1:9]] for r in rows]))
        mean = np.mean(per_run, axis=0)
        agg_rows = [line.split(",") for line in
                    open(manifest["files"][-1]).read().splitlines()[1:]]
        agg = np.array([[float(v) for v in r[1:9]] for r in agg_rows])
        # columns: k, fo, sfo, po, lmo, f_value, gap (wall excluded)
        assert np.all(np.abs(agg[:, :7] - mean[:, :7]) <= 1e-12)

    @pytest.mark.parametrize("reps", [1, 2, 3, 9, 17])
    def test_aggregate_rows_equal_the_per_row_mean_of_lists(self, reps):
        # Traces of unequal length (as an early-stopped fw_pgd leaves them)
        # with values and a reference over many magnitudes, so that the
        # order of summation shows in the last bits.
        gen = philox(reps)
        f_ref = float(gen.standard_normal() * 10.0 ** gen.integers(-8, 9))
        traces, per_rep = [], []  # per_rep: each row's counts, f_value and gap
        for rep in range(reps):
            rows = []
            for k in range(1, 30 + int(gen.integers(0, 6))):
                counts = [int(v) for v in gen.integers(0, 10 ** 12, size=4)]
                f_value = float(gen.standard_normal() * 10.0 ** gen.integers(-8, 9))
                rows.append((k, *counts, f_value, float(rep)))
            traces.append(RunTrace.from_rows(rows))
            per_rep.append([(*row[1:6], row[5] - f_ref) for row in rows])
        # a shorter repetition repeats its last row
        length = max(map(len, per_rep))
        padded = [rows + rows[-1:] * (length - len(rows)) for rows in per_rep]
        expected = [[float(k), *(float(np.mean(values)) for values in zip(*rows)), 0.0]
                    for k, rows in enumerate(zip(*padded), start=1)]
        assert harness._mean_trace(traces, f_ref).T.tolist() == expected

    def test_a_shorter_repetition_repeats_its_last_row(self):
        # a run stopped early spends no more calls and keeps its point
        short = RunTrace.from_rows([(1, 1, 0, 0, 10, 1.5, 0.5)])
        long = RunTrace.from_rows([(1, 1, 0, 0, 0, 3.0, 0.5), (2, 2, 0, 0, 100, 2.0, 0.5),
                                   (3, 3, 0, 0, 200, 1.0, 0.5)])
        assert harness._mean_trace([short, long], 0.5).T.tolist() == [
            [1.0, 1.0, 0.0, 0.0, 5.0, 2.25, 1.75, 0.0],
            [2.0, 1.5, 0.0, 0.0, 55.0, 1.75, 1.25, 0.0],
            [3.0, 2.0, 0.0, 0.0, 105.0, 1.25, 0.75, 0.0]]

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(override))
        manifest = run_experiment(small_config(tmp_path))
        assert all(f.startswith(str(override)) for f in manifest["files"])

    def test_fw_pgd_through_harness(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[{"name": "fw_pgd", "steps": 50}])
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        final = open(manifest["files"][0]).read().splitlines()[-1].split(",")
        assert int(final[2]) == 50  # one subgradient call per step

    def test_matrix_svm_on_nuclear_ball_end_to_end(self, tmp_path):
        cfg = small_config(
            tmp_path, epsilons=[0.4],
            problem={"kind": "matrix_svm", "n": 10, "rows": 2, "cols": 3, "seed": 3,
                     "set": "nuclear_ball", "radius": 0.5},
            solvers=[{"name": "mopes", "dist_estimate": 1.0},
                     {"name": "moles", "dist_estimate": 1.0}])
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        assert len(manifest["files"]) == 3
        for path in manifest["files"][:-1]:
            final = open(path).read().splitlines()[-1].split(",")
            assert float(final[7]) <= 0.4  # gap hits the configured target

    def test_failure_isolation(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("injected failure")

        monkeypatch.setattr(harness, "mopes", boom)
        cfg = small_config(tmp_path, solvers=[{"name": "mopes"},
                                              {"name": "pgd", "steps": 50}])
        manifest = run_experiment(cfg)
        assert [f["run"] for f in manifest["failed"]] == ["mopes_eps0.3_rep0"]
        assert any("pgd_fixed" in f for f in manifest["files"])
        statuses = {r["run"]: r["status"] for r in manifest["runs"]}
        assert statuses["mopes_eps0.3_rep0"] == "failed"
        assert statuses["pgd_fixed_eps0.3_rep0"] == "ok"


    @staticmethod
    def run_with_nan_minibatches(tmp_path, monkeypatch, solvers):
        """Run ``solvers`` on a hinge problem whose minibatch subgradients are
        NaN; the full first-order oracle, used by the reference solve, is not."""
        class NanMinibatchHinge(HingeSvmInstance):
            def batch_subgradient(self, x, indices):
                return np.full(self.dim, math.nan)

        build = harness.build_problem

        def build_nan(problem_cfg):
            problem, descriptor, lipschitz = build(problem_cfg)
            return NanMinibatchHinge(problem.rows), descriptor, lipschitz

        monkeypatch.setattr(harness, "build_problem", build_nan)
        return run_experiment(small_config(
            tmp_path, problem={"kind": "hinge_svm", "n": 20, "d": 4, "seed": 1,
                               "set": "l1_ball", "radius": 1.0}, solvers=solvers))

    def test_non_finite_run_is_isolated(self, tmp_path, monkeypatch):
        manifest = self.run_with_nan_minibatches(
            tmp_path, monkeypatch, [{"name": "mopes", "batch_size": 2},
                                    {"name": "pgd", "steps": 50}])
        assert [f["run"] for f in manifest["failed"]] == ["mopes_eps0.3_rep0"]
        assert "not finite" in manifest["failed"][0]["error"]
        pgd_csv = [f for f in manifest["files"] if "pgd_fixed" in f]
        rows = open(pgd_csv[0]).read().splitlines()[1:]
        assert len(rows) == 50
        assert all(math.isfinite(float(row.split(",")[6])) for row in rows)

    def test_nan_projection_run_is_isolated(self, tmp_path, monkeypatch):
        # pgd on NaN minibatch subgradients hands the l1 projection a NaN point
        manifest = self.run_with_nan_minibatches(
            tmp_path, monkeypatch, [{"name": "pgd", "steps": 50, "batch_size": 2},
                                    {"name": "mopes", "dist_estimate": 1.0}])
        assert [f["run"] for f in manifest["failed"]] == ["pgd_fixed_eps0.3_rep0"]
        assert "non-finite" in manifest["failed"][0]["error"]
        assert [Path(f).name for f in manifest["files"]] == ["mopes_eps0.3_rep0.csv",
                                                              "aggregate.csv"]

    def test_nan_frank_wolfe_run_is_isolated(self, tmp_path, monkeypatch):
        # budget-mode fw_pgd on NaN minibatch subgradients hands its
        # Frank-Wolfe projection a NaN target
        manifest = self.run_with_nan_minibatches(
            tmp_path, monkeypatch, [{"name": "fw_pgd", "steps": 6, "batch_size": 2},
                                    {"name": "pgd", "steps": 50}])
        assert [f["run"] for f in manifest["failed"]] == ["fw_pgd_budget_eps0.3_rep0"]
        assert "target is not finite" in manifest["failed"][0]["error"]
        assert [Path(f).name for f in manifest["files"]] == ["pgd_fixed_eps0.3_rep0.csv",
                                                              "aggregate.csv"]


class TestSharedRuns:
    """A run without a minibatch whose derived options are the same at every
    eps runs once per repetition, and writes the bytes that a run of its own
    at each eps would write."""

    SOLVERS = [{"name": "mopes", "dist_estimate": 1.0},
               {"name": "pgd", "steps": 30},
               {"name": "fw_pgd", "steps": 6},
               {"name": "fw_pgd", "mode": "wolfe"},
               {"name": "pgd", "steps": 30, "batch_size": 2, "stepsize_rule": "diminishing"}]
    RUNS_PER_REP = {"mopes": 3, "pgd_fixed": 1, "fw_pgd_budget": 1, "fw_pgd_wolfe": 3,
                    "pgd_diminishing": 3}

    @staticmethod
    def config(tmp_path, solvers, epsilons=(2.0, 1.0, 0.5)):
        return small_config(tmp_path, repetitions=2, epsilons=list(epsilons),
                            problem={"kind": "hinge_svm", "n": 20, "d": 4, "seed": 1,
                                     "set": "l1_ball", "radius": 1.0},
                            solvers=solvers)

    @staticmethod
    def counting_runs(monkeypatch):
        calls = []
        run_single = harness._run_single

        def counted(spec, problem, descriptor, oracle, options, x0, seed):
            calls.append(harness._solver_label(spec))
            return run_single(spec, problem, descriptor, oracle, options, x0, seed)

        monkeypatch.setattr(harness, "_run_single", counted)
        return calls

    def test_eps_free_runs_run_once_per_repetition(self, tmp_path, monkeypatch):
        calls = self.counting_runs(monkeypatch)
        manifest = run_experiment(self.config(tmp_path, self.SOLVERS))
        assert manifest["failed"] == []
        assert len(manifest["files"]) == len(self.SOLVERS) * 3 * 2 + 1
        assert {label: calls.count(label) for label in set(calls)} == {
            label: 2 * runs for label, runs in self.RUNS_PER_REP.items()}

    @staticmethod
    def assert_every_csv_is_its_own_run(cfg, manifest):
        """Returns the runs made alone, as ``{(label, eps): [trace per repetition]}``."""
        problem, descriptor, lipschitz = build_problem(cfg.problem)
        f_ref = manifest["reference_value"]
        files = iter(manifest["files"])
        alone_runs = {}
        for si, spec in enumerate(cfg.solvers):
            oracle, sigma = harness._oracle(spec, problem)
            for ei, eps in enumerate(cfg.epsilons):
                options = harness._solver_options(spec, eps, lipschitz, descriptor.diameter,
                                                  sigma)
                if spec["name"] == "fw_pgd":
                    options["f_ref"] = f_ref
                for rep in range(cfg.repetitions):
                    x0 = descriptor.boundary_point(philox([cfg.seed, 1000003, rep]))
                    seed = harness._run_seed(cfg.seed, si, ei, rep)
                    alone = harness._run_single(spec, problem, descriptor, oracle, options, x0,
                                                seed)
                    label = harness._solver_label(spec)
                    expected = "".join(f"{row}\n" for row in [
                        CSV_HEADER, *(f"{label}{body}{seed}" for body in
                                      format_bodies(alone.trace.columns(f_ref, False)))])
                    path = Path(next(files))
                    assert path.name == f"{label}_eps{eps:g}_rep{rep}.csv"
                    assert path.read_text() == expected
                    alone_runs.setdefault((label, eps), []).append(alone.trace)
        return alone_runs

    def test_every_csv_equals_its_own_run(self, tmp_path):
        cfg = self.config(tmp_path, self.SOLVERS)
        manifest = run_experiment(cfg)
        self.assert_every_csv_is_its_own_run(cfg, manifest)
        # the eps-free runs differ across accuracies only in their seed column
        texts = [(tmp_path / "out" / f"pgd_fixed_eps{eps:g}_rep0.csv").read_text()
                 for eps in cfg.epsilons]
        assert len({tuple(row.rsplit(",", 1)[0] for row in text.splitlines())
                    for text in texts}) == 1
        assert len(set(texts)) == 3

    def test_aggregate_equals_each_group_aggregated_alone(self, tmp_path):
        # The shared pgd run is averaged and formatted once for all three eps.
        cfg = self.config(tmp_path, [{"name": "pgd", "steps": 30},
                                     {"name": "mopes", "batch_size": 2, "dist_estimate": 0.5}])
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        alone_runs = self.assert_every_csv_is_its_own_run(cfg, manifest)
        expected = [CSV_HEADER]
        for (label, eps), runs in alone_runs.items():
            mean = harness._mean_trace(runs, manifest["reference_value"])
            # k prints as an integer, the mean counts as floats
            expected += [f"{label}|eps={eps!r}{body}{cfg.seed}" for body in format_bodies(
                [mean[0].astype(np.int64), *mean[1:]])]
        assert Path(manifest["files"][-1]).read_text().splitlines() == expected
        assert {label for label, _ in alone_runs} == {"pgd_fixed", "mopes"}

    def test_an_entrys_traces_are_freed_before_the_next_entry_runs(self, tmp_path,
                                                                   monkeypatch):
        run_single = harness._run_single
        refs, alive_at_second = [], []

        def watched(spec, *args):
            if spec is cfg.solvers[1] and not alive_at_second:
                alive_at_second.append([ref() is not None for ref in refs])
            result = run_single(spec, *args)
            if spec is cfg.solvers[0]:  # the trace, and a column block its rows average
                refs.extend([weakref.ref(result.trace), weakref.ref(result.trace.values)])
            return result

        monkeypatch.setattr(harness, "_run_single", watched)
        cfg = self.config(tmp_path, [{"name": "pgd", "steps": 30, "batch_size": 2},
                                     {"name": "mopes", "dist_estimate": 0.5}])
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        assert alive_at_second == [[False] * 12]  # three eps, two repetitions

    def test_each_trace_and_mean_is_formatted_once(self, tmp_path, monkeypatch):
        # A shared run's rows are formatted once for all its accuracies; a
        # run written once is formatted as its file is written.
        formatted = []

        def counting(where, format_bodies):
            def wrapped(columns):
                formatted.append(where)
                return format_bodies(columns)
            return wrapped

        monkeypatch.setattr(harness, "format_bodies", counting("kept", harness.format_bodies))
        monkeypatch.setattr(solvers, "format_bodies", counting("write", solvers.format_bodies))
        cfg = self.config(tmp_path, [{"name": "pgd", "steps": 30},
                                     {"name": "pgd", "steps": 30, "batch_size": 2,
                                      "stepsize_rule": "diminishing"}])
        assert run_experiment(cfg)["failed"] == []
        # the shared entry: each repetition's run, then their mean; the
        # minibatch entry at each eps: each repetition's write, then the mean
        assert formatted == ["kept"] * 3 + ["write", "write", "kept"] * 3

    def test_a_failing_entry_leaves_no_aggregate_file(self, tmp_path, monkeypatch):
        run_single = harness._run_single

        def failing(spec, *args):
            if spec["name"] == "mopes":
                raise RuntimeError("stop")
            return run_single(spec, *args)

        monkeypatch.setattr(harness, "_run_single", failing)
        cfg = self.config(tmp_path, [{"name": "pgd", "steps": 30},
                                     {"name": "mopes", "dist_estimate": 0.5}])
        with pytest.raises(RuntimeError, match="stop"):
            run_experiment(cfg)
        names = sorted(path.name for path in (tmp_path / "out").iterdir())
        assert names == sorted(f"pgd_fixed_eps{eps:g}_rep{rep}.csv"
                               for eps in cfg.epsilons for rep in range(cfg.repetitions))

    def test_algorithm_column_is_the_file_label(self, tmp_path):
        solvers = [*self.SOLVERS, {"name": "moles", "dist_estimate": 1.0},
                   {"name": "moles", "projection_mode": "wolfe", "dist_estimate": 1.0}]
        cfg = self.config(tmp_path, solvers)
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        labels = {harness._solver_label(spec) for spec in cfg.solvers}
        seen = set()
        for path in map(Path, manifest["files"][:-1]):
            label = path.name.split("_eps", 1)[0]
            rows = path.read_text().splitlines()[1:]
            assert rows and {row.split(",", 1)[0] for row in rows} == {label}
            seen.add(label)
        assert seen == labels

    def test_pgd_without_steps_runs_to_the_eps_horizon(self, tmp_path, monkeypatch):
        calls = self.counting_runs(monkeypatch)
        cfg = self.config(tmp_path, [{"name": "pgd"}])
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        assert calls == ["pgd_fixed"] * 6  # once per (eps, repetition)
        _, descriptor, lipschitz = build_problem(cfg.problem)
        for eps in cfg.epsilons:
            horizon = math.ceil((2.0 * lipschitz * descriptor.diameter / eps) ** 2)
            for rep in range(cfg.repetitions):
                final = (tmp_path / "out" / f"pgd_fixed_eps{eps:g}_rep{rep}.csv").read_text()
                k, fo_calls = final.splitlines()[-1].split(",")[1:3]
                assert int(k) == int(fo_calls) == horizon

    def test_equal_derived_options_share_a_run(self, tmp_path, monkeypatch):
        calls = self.counting_runs(monkeypatch)
        cfg = self.config(tmp_path, [{"name": "pgd"}], epsilons=(1.0, 1.02))
        _, descriptor, lipschitz = build_problem(cfg.problem)
        assert {math.ceil((2.0 * lipschitz * descriptor.diameter / eps) ** 2)
                for eps in cfg.epsilons} == {13}
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        assert calls == ["pgd_fixed"] * 2  # once per repetition
        self.assert_every_csv_is_its_own_run(cfg, manifest)

    def test_equal_options_share_a_run_beyond_the_first_eps(self, tmp_path, monkeypatch):
        # eps 1.0 and 1.02 derive the same horizon, which eps 2.0 does not
        calls = self.counting_runs(monkeypatch)
        cfg = self.config(tmp_path, [{"name": "pgd"}], epsilons=(2.0, 1.0, 1.02))
        _, descriptor, lipschitz = build_problem(cfg.problem)
        assert [math.ceil((2.0 * lipschitz * descriptor.diameter / eps) ** 2)
                for eps in cfg.epsilons[1:]] == [13, 13]
        manifest = run_experiment(cfg)
        assert manifest["failed"] == []
        assert calls == ["pgd_fixed"] * 4  # once per (distinct options, repetition)
        self.assert_every_csv_is_its_own_run(cfg, manifest)

    def test_failure_of_a_shared_run_fails_every_eps(self, tmp_path, monkeypatch):
        calls = self.counting_runs(monkeypatch)
        cfg = self.config(tmp_path, [{"name": "pgd", "steps": 30}])
        failing_seed = harness._run_seed(cfg.seed, 0, 0, 0)
        real_pgd = harness.pgd

        def pgd_failing_on_rep0(*args, seed, **kwargs):
            if seed == failing_seed:
                raise NumericalError(f"pgd_fixed: a value at step 7 is not finite ({seed})")
            return real_pgd(*args, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "pgd", pgd_failing_on_rep0)
        manifest = run_experiment(cfg)
        assert calls == ["pgd_fixed", "pgd_fixed"]
        failed = [f["run"] for f in manifest["failed"]]
        assert failed == [f"pgd_fixed_eps{eps:g}_rep0" for eps in cfg.epsilons]
        assert {f["error"] for f in manifest["failed"]} == {
            f"pgd_fixed: a value at step 7 is not finite ({failing_seed})"}
        assert [Path(f).name for f in manifest["files"]] == [
            *(f"pgd_fixed_eps{eps:g}_rep1.csv" for eps in cfg.epsilons), "aggregate.csv"]


def trace_rows(*rows):
    """The CSV's numeric columns, ``k`` to ``wall_ms``, of ``rows``, one dict
    of named values per row; a column a dict does not name is 0."""
    columns = np.zeros((len(harness._NUMERIC_FIELDS), len(rows)))
    for i, row in enumerate(rows):
        for name, value in row.items():
            columns[harness._NUMERIC_FIELDS.index(name), i] = value
    return columns


class TestSlopeFits:
    def synthetic_traces(self, exponent, constant=1024.0):
        eps_values = [0.5, 0.25, 0.125]
        per_eps = {}
        for eps in eps_values:
            calls = constant / eps ** exponent
            per_eps[eps] = trace_rows(dict(gap=eps, po_calls=calls, lmo_calls=calls,
                                           fo_calls=calls, sfo_calls=calls))
        return {"solver": per_eps}

    def test_exact_linear_rate(self):
        entry = fit_slopes(self.synthetic_traces(1), "po")["solver"]
        assert abs(entry.slope - 1.0) <= 1e-9
        assert entry.residual <= 1e-9

    def test_exact_quadratic_rate(self):
        assert abs(fit_slopes(self.synthetic_traces(2), "po")["solver"].slope - 2.0) <= 1e-9

    def test_unreached_accuracy_is_flagged(self):
        traces = self.synthetic_traces(1)
        traces["solver"][0.125] = trace_rows(dict(gap=1.0, po_calls=5, lmo_calls=5,
                                                  fo_calls=5, sfo_calls=5))
        entry = fit_slopes(traces, "po")["solver"]
        assert entry.excluded == {0.125: None}
        assert math.isnan(entry.slope)

    def test_unreached_accuracy_records_the_count_of_its_last_row(self, capsys):
        # a capped run: its last row's count bounds the count to reach eps
        traces = self.synthetic_traces(1)
        traces["solver"][0.125] = trace_rows(*(dict(gap=1.0, po_calls=calls)
                                               for calls in (5, 1792040, 1800000)))
        entry = fit_slopes(traces, "po")["solver"]
        assert entry.spent == {0.125: 1800000.0}
        cli._print_slope_report("po", {"solver": entry})
        assert capsys.readouterr().out.splitlines()[-1] == (
            "po\tsolver\texcluded eps=0.125 (never reached; ≥ 1800000 calls)")

    def test_accuracy_reached_at_a_zero_count_is_flagged_as_reached(self):
        # a log scale cannot fit a count of 0, but the accuracy was reached
        traces = self.synthetic_traces(1)
        traces["solver"][2.0] = trace_rows(dict(gap=0.42, po_calls=0, lmo_calls=0,
                                                fo_calls=1, sfo_calls=0))
        entry = fit_slopes(traces, "po")["solver"]
        assert entry.excluded == {2.0: 0.0}
        assert 2.0 not in entry.points and abs(entry.slope - 1.0) <= 1e-9

    def test_zero_count_metric_is_unused(self, capsys):
        traces = self.synthetic_traces(1)
        for rows in traces["solver"].values():
            rows[harness._NUMERIC_FIELDS.index("sfo_calls"), 0] = 0
        traces["stuck"] = {eps: trace_rows(dict(gap=1.0, po_calls=5, lmo_calls=0,
                                                fo_calls=5, sfo_calls=0))
                           for eps in (0.5, 0.25, 0.125)}
        fits = fit_slopes(traces, "sfo")
        assert fits["solver"].unused
        assert fits["stuck"].unused
        cli._print_slope_report("sfo", fits)
        assert capsys.readouterr().out.splitlines() == ["sfo\tsolver\tmetric unused",
                                                        "sfo\tstuck\tmetric unused"]
        cli._print_slope_report("po", fit_slopes(traces, "po"))
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("po\tsolver\tslope=1.0000")
        assert lines[1] == ("po\tstuck\tslope=nan "
                            "(fewer than 3 accuracies reached at a positive count)")
        assert lines[2:] == [f"po\tstuck\texcluded eps={eps:g} (never reached; ≥ 5 calls)"
                             for eps in (0.5, 0.25, 0.125)]

    def test_nan_reason_counts_accuracies_reached_at_a_positive_count(self, capsys):
        # every accuracy is reached, two of them before the first call
        traces = {"fw": {eps: trace_rows(dict(gap=eps, po_calls=0, lmo_calls=calls,
                                              fo_calls=1, sfo_calls=0))
                         for eps, calls in ((0.4, 0), (0.3, 0), (0.2, 40))}}
        cli._print_slope_report("lmo", fit_slopes(traces, "lmo"))
        assert capsys.readouterr().out.splitlines() == [
            "lmo\tfw\tslope=nan (fewer than 3 accuracies reached at a positive count)",
            "lmo\tfw\texcluded eps=0.4 (reached at 0 calls)",
            "lmo\tfw\texcluded eps=0.3 (reached at 0 calls)"]

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            fit_slopes({}, "wall")

    def test_round_trip_through_aggregate_csv(self, tmp_path, monkeypatch):
        manifest = run_experiment(small_config(tmp_path, epsilons=[0.4, 0.2, 0.1]))
        parses = []
        parse = harness._parse_aggregate
        monkeypatch.setattr(harness, "_parse_aggregate",
                            lambda path: parses.append(path) or parse(path))
        fits = fit_slopes_from_csv(manifest["files"][-1], ["po", "fo", "lmo"])
        assert parses == [manifest["files"][-1]]
        assert list(fits) == ["po", "fo", "lmo"]
        assert "mopes" in fits["po"] and not fits["po"]["mopes"].unused
        assert fits["lmo"]["mopes"].unused

    def test_loglog_residual(self):
        slope, residual = fit_loglog([0.5, 0.25, 0.125], [10.0, 21.0, 39.0])
        assert 0.9 <= slope <= 1.1
        assert residual >= 0.0


class TestCli:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "seed": 1,
            "output_dir": str(tmp_path / "cli_out"),
            "repetitions": 1,
            "epsilons": [0.4, 0.2, 0.1],
            "reference_budget": 10 ** 4,
            "problem": {"kind": "piecewise_linear", "d": 3, "pieces": 4, "seed": 5,
                        "set": "l1_ball", "radius": 1.0},
            "solvers": [{"name": "mopes", "dist_estimate": 1.0}],
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_and_slopes(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        agg = manifest["files"][-1]
        assert cli.main(["slopes", agg, "--metric", "po"]) == 0
        out = capsys.readouterr().out
        assert "mopes" in out and "slope=" in out

    def test_reference_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["reference", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert "reference_value" in payload and len(payload["point"]) == 3

    def test_sweep_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slope=" in out
        # a deterministic mopes run calls neither the SFO nor the LMO
        assert "lmo\tmopes\tmetric unused\n" in out
        assert "sfo\tmopes\tmetric unused\n" in out
        assert "never reached" not in out

    def test_large_radius_runs(self, tmp_path, capsys):
        # many boundary points of a ball of radius 1e8 miss an absolute 1e-8
        # membership tolerance; each start point must pass the solvers' check
        path = self.write_config(tmp_path, repetitions=3, epsilons=[4e8, 2e8, 1e8],
                                 problem={"kind": "piecewise_linear", "d": 10, "radius": 1e8},
                                 solvers=[{"name": "mopes"}, {"name": "pgd"}])
        assert cli.main(["run", str(path)]) == 0
        manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert manifest["failed"] == [] and len(manifest["files"]) == 2 * 3 * 3 + 1

    @pytest.mark.parametrize("command", ["run", "sweep", "reference"])
    def test_anchored_problem_runs(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, problem={"kind": "piecewise_linear", "d": 3,
                                                    "pieces": 4, "seed": 5,
                                                    "anchor": [0.1, -0.2, 0.05]})
        assert cli.main([command, str(path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload.get("failed", []) == []

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, solvers=[{"name": "bogus"}])
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("raw", [
        [],
        {"epsilons": [0.1], "problem": "piecewise_linear", "solvers": []},
        {"epsilons": [0.1], "problem": {"kind": "piecewise_linear"}, "solvers": [3]},
    ])
    def test_non_object_config_exit_code(self, tmp_path, capsys, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "must be a JSON object" in err

    @pytest.mark.parametrize("key, value", [("epsilons", 0.1), ("repetitions", "two")])
    def test_wrongly_typed_value_exit_code(self, tmp_path, capsys, key, value):
        path = self.write_config(tmp_path, **{key: value})
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and repr(key) in err

    @pytest.mark.parametrize("overrides, named", [
        ({"problem": {"kind": "piecewise_linear", "d": "ten"}}, "'d'"),
        ({"problem": {"kind": "piecewise_linear", "set": "l3_ball"}}, "'set'"),
        ({"solvers": [{"name": "pgd", "steps": "many"}]}, "'steps'"),
        ({"solvers": [{"name": "pgd", "stepsize_rule": "adaptive"}]}, "'stepsize_rule'"),
        ({"solvers": [{"name": "moles", "projection_mode": "exact"}]}, "'projection_mode'"),
        ({"solvers": [{"name": "mopes", "dist_estimate": "far"}]}, "'dist_estimate'"),
        ({"solvers": [{"name": "fw_pgd", "max_lmo": "lots"}]}, "'max_lmo'"),
        ({"solvers": [{"name": "mopes"}, {"name": "fw_pgd", "mode": "exact"}]}, "'mode'"),
        ({"solvers": [{"name": "mopes", "c": 1.0}, {"name": "mopes", "c": 2.0}]}, "mopes"),
        ({"solvers": [{"name": ["mopes"]}]}, "name"),
        ({"record_wall_time": "false"}, "'record_wall_time'"),
        ({"record_wall_time": 0}, "'record_wall_time'"),
        ({"solvers": [{"name": "pgd", "steps": 2.5}]}, "'steps'"),
        ({"problem": {"kind": "piecewise_linear", "d": 4.9}}, "'d'"),
        ({"solvers": [{"name": "pgd", "steps": True}]}, "'steps'"),
        ({"seed": "3"}, "'seed'"),
        ({"repetitions": float("inf")}, "'repetitions'"),
        ({"problem": {"kind": "piecewise_linear", "d": 0}}, "'d'"),
        ({"problem": {"kind": "piecewise_linear", "pieces": 1}}, "'pieces'"),
        ({"problem": {"kind": "hinge_svm", "n": 0}}, "'n'"),
        ({"problem": {"kind": "matrix_svm", "rows": 0}}, "'rows'"),
        ({"problem": {"kind": "matrix_svm", "cols": -2}}, "'cols'"),
        ({"problem": {"kind": "piecewise_linear", "radius": -1}}, "'radius'"),
        ({"problem": {"kind": "piecewise_linear", "radius": 0}}, "'radius'"),
        ({"solvers": [{"name": "pgd", "steps": 0}]}, "'steps'"),
        ({"solvers": [{"name": "fw_pgd", "steps": 0}]}, "'steps'"),
        ({"solvers": [{"name": "mopes", "batch_size": 0}]}, "'batch_size'"),
        ({"solvers": [{"name": "mopes", "c": -1}]}, "'c'"),
        ({"solvers": [{"name": "moles", "cprime": 0}]}, "'cprime'"),
        ({"solvers": [{"name": "mopes", "dist_estimate": 0.0}]}, "'dist_estimate'"),
        ({"solvers": [{"name": "mopes", "c": float("nan")}]}, "'c'"),
        ({"reference_budget": 100}, "'reference_budget'"),
        ({"repetitions": 0}, "'repetitions'"),
        ({"problem": {"kind": "piecewise_linear", "radius": True}}, "'radius'"),
        ({"solvers": [{"name": "mopes", "c": "2.5"}]}, "'c'"),
        ({"solvers": [{"name": "mopes", "c": float("inf")}]}, "'c'"),
        ({"epsilons": "5"}, "'epsilons'"),
        ({"epsilons": [float("nan"), 0.5, 0.25]}, "'epsilons'"),
        ({"epsilons": [0.4, True]}, "'epsilons'"),
        ({"solvers": [{"name": "fw_pgd", "max_lmo": float("nan")}]}, "'max_lmo'"),
        ({"solvers": [{"name": "fw_pgd", "max_lmo": 0}]}, "'max_lmo'"),
        ({"solvers": [{"name": "fw_pgd", "target_gap": float("-inf")}]}, "'target_gap'"),
        ({"solvers": [{"name": "fw_pgd", "target_gap": "0.1"}]}, "'target_gap'"),
        ({"problem": {"kind": "piecewise_linear", "d": 2, "anchor": ["0.1", 0.2]}}, "'anchor'"),
        ({"problem": {"kind": "piecewise_linear", "d": 2, "anchor": [True, 0.2]}}, "'anchor'"),
        ({"problem": {"kind": "piecewise_linear", "d": 3, "anchor": [0.1, 0.2]}}, "'anchor'"),
        ({"solvers": [{"name": "pgd", "batch_size": 2}]}, "'batch_size'"),
        ({"problem": {"kind": "hinge_svm", "set": "nuclear_ball"}}, "'set'"),
        ({"solvers": []}, "solvers"),
        ({"solvers": [{"name": "mopes", "c": 1e308}]}, "mopes at eps=0.4"),
        ({"epsilons": [1e-200], "solvers": [{"name": "fw_pgd"}]}, "fw_pgd_budget at eps=1e-200"),
        ({"epsilons": [1e-200], "solvers": [{"name": "pgd"}]}, "pgd_fixed at eps=1e-200"),
        ({"solvers": [{"name": "moles", "cprime": 1e-308}]}, "moles at eps=0.4"),
        ({"solvers": [{"name": "moles", "c": 1e-300}]}, "moles at eps=0.4: the last inner budget"),
        ({"epsilons": [1.0, 1.0 + 1e-12]}, "which names their run files; repeated: 1"),
        ({"solvers": "mopes"}, "config key 'solvers': expected a list"),
        ({"solvers": {"name": "mopes"}}, "config key 'solvers': expected a list"),
        ({"seed": -1}, "config key 'seed': must be at least 0"),
        ({"problem": {"kind": "piecewise_linear", "seed": -3}},
         "problem key 'seed': must be at least 0"),
    ], ids=["d", "set", "steps", "stepsize_rule", "projection_mode", "dist_estimate",
            "max_lmo", "second_solver", "duplicate_label", "unhashable_name",
            "bool_string", "bool_int", "int_fraction", "d_fraction",
            "int_bool", "int_string", "int_infinite", "d_zero", "pieces_one", "n_zero",
            "rows_zero", "cols_negative", "radius_negative", "radius_zero", "steps_zero",
            "fw_steps_zero", "batch_size_zero", "c_negative",
            "cprime_zero", "dist_estimate_zero", "c_nan", "reference_budget_small",
            "repetitions_zero", "radius_bool", "c_string", "c_infinite", "epsilons_string",
            "epsilons_nan", "epsilons_bool", "max_lmo_nan", "max_lmo_zero",
            "target_gap_infinite", "target_gap_string", "anchor_string", "anchor_bool",
            "anchor_length", "batch_size_not_finite_sum", "nuclear_ball_on_vector",
            "solvers_empty", "c_overflow", "fw_pgd_steps_overflow", "pgd_steps_overflow",
            "fw_budget_overflow", "inner_budget_huge", "eps_file_names", "solvers_string",
            "solvers_object", "seed_negative", "problem_seed_negative"])
    def test_bad_value_fails_at_load(self, tmp_path, capsys, monkeypatch, overrides, named):
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference solve ran before the config was checked")

        monkeypatch.setattr(harness, "reference_optimum", no_reference)
        path = self.write_config(tmp_path, **overrides)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and named in err
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("old, new, key", [
        ('"epsilons": [0.4, 0.2, 0.1]', '"epsilons": [0.4], "epsilons": [0.4, 0.2, 0.1]',
         "epsilons"),
        ('"d": 3', '"d": 3, "d": 4', "d"),
        ('"name": "pgd"',
         '"name": "pgd", "stepsize_rule": "diminishing", "stepsize_rule": "fixed"',
         "stepsize_rule"),
    ], ids=["top_level", "problem", "solver"])
    def test_repeated_key_fails_at_load(self, tmp_path, capsys, old, new, key):
        # json keeps the last value of a repeated key; the config would run on it
        path = self.write_config(tmp_path, solvers=[{"name": "pgd"}])
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and repr(key) in err
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("content, message", [
        (CSV_HEADER + "\nmopes|eps=0.1,1,2\n", "line 2: expected 10 fields, got 3"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,ten,1,0,0.5,0.1,0.0,1\n",
         "line 2: could not convert string to float: 'ten'"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.1,0.0,1\nmopes,2,0,0,2,0,0.4,0.0,0.0,1\n",
         "line 3: row tag 'mopes' lacks an accuracy marker"),
        ("algorithm,k\n", "line 1: unexpected CSV header"),
        (CSV_HEADER + "\nmopes|eps=0.1,one,0,0,1,0,0.5,0.1,0.0,1\n",
         "line 2: could not convert string to float: 'one'"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,high,0.1,0.0,1\n",
         "line 2: could not convert string to float: 'high'"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.1,slow,1\n",
         "line 2: could not convert string to float: 'slow'"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.1,0.0,seed\n",
         "line 2: invalid literal for int() with base 10: 'seed'"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1"
                      "\nmopes|eps=0.1,2,0,0,inf,0,0.4,0.05,0.0,1\n",
         "line 3: po_calls inf is not finite"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1"
                      "\nmopes|eps=0.1,2,0,0,nan,0,0.4,0.05,0.0,1\n",
         "line 3: po_calls nan is not finite"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1"
                      "\nmopes|eps=0.1,2,0,0,2,0,0.4,nan,0.0,1\n",
         "line 3: gap nan is not finite"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1"
                      "\nmopes|eps=0.1,2,0,0,-5,0,0.4,0.05,0.0,1\n",
         "line 3: po_calls -5.0 is negative"),
        (CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1" * 2098
         + "\nmopes|eps=0.1,2,0,0,2,0,0.4,0.05,-0.5,1\n", "line 2100: wall_ms -0.5 is negative"),
        *((CSV_HEADER + "\nmopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1"
                        f"\nmopes|eps={eps},2,0,0,2,0,0.4,0.05,0.0,1\n",
           f"line 3: row tag 'mopes|eps={eps}': accuracy {float(eps)!r} is not positive and "
           "finite") for eps in ("inf", "0", "-0.5", "nan")),
    ], ids=["short_row", "non_numeric_count", "no_marker", "header", "non_numeric_k",
            "non_numeric_f_value", "non_numeric_wall_ms", "non_numeric_seed", "infinite_count",
            "nan_count", "nan_gap", "negative_count", "negative_wall_ms_after_many_rows",
            "eps_infinite", "eps_zero", "eps_negative", "eps_nan"])
    def test_malformed_aggregate_is_a_format_error(self, tmp_path, capsys, content, message):
        agg = tmp_path / "aggregate.csv"
        agg.write_text(content)
        assert cli.main(["slopes", str(agg), "--metric", "po"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: format:")
        assert f"{agg}: {message}" in err

    @pytest.mark.parametrize("line, row, message", [
        (1500, "mopes|eps=0.1,2,0,ten,2,0,0.4,0.05,0.0,1",
         "line 1500: could not convert string to float: 'ten'"),
        (2049, "mopes|eps=0.1,2,0", "line 2049: expected 10 fields, got 3"),
        (1100, "mopes,2,0,0,2,0,0.4,0.05,0.0,1",
         "line 1100: row tag 'mopes' lacks an accuracy marker"),
    ], ids=["non_numeric_field", "short_row_ending_a_block", "no_marker"])
    def test_a_fault_past_the_first_block_names_its_line(self, tmp_path, capsys, line, row,
                                                         message):
        # the rows are read in blocks of 1 024 lines, from line 2
        rows = ["mopes|eps=0.1,1,0,0,1,0,0.5,0.2,0.0,1"] * 2200
        rows[line - 2] = row
        agg = tmp_path / "aggregate.csv"
        agg.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        assert cli.main(["slopes", str(agg), "--metric", "po"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: format:")
        assert f"{agg}: {message}" in err

    def test_aggregate_reads_back_the_means_bit_for_bit(self, tmp_path, capsys, monkeypatch):
        # minibatch, shared and early-stopped runs over two repetitions
        means = []
        mean_trace = harness._mean_trace
        monkeypatch.setattr(harness, "_mean_trace",
                            lambda runs, f_ref: means.append(mean_trace(runs, f_ref)) or means[-1])
        path = self.write_config(
            tmp_path, repetitions=2,
            problem={"kind": "hinge_svm", "n": 20, "d": 4, "seed": 1},
            solvers=[{"name": "mopes", "batch_size": 2, "dist_estimate": 0.5},
                     {"name": "pgd", "steps": 30},
                     {"name": "fw_pgd", "mode": "wolfe", "steps": 40, "target_gap": 0.3}])
        assert cli.main(["sweep", str(path)]) == 0
        *report, manifest = capsys.readouterr().out.splitlines()
        aggregate = json.loads(manifest)["files"][-1]
        groups = [columns for per_eps in harness._parse_aggregate(aggregate).values()
                  for columns in per_eps.values()]
        assert len(groups) == 3 * 3 and len(means) == 3 + 1 + 1  # pgd and fw_pgd share runs

        def bits(columns):
            return columns.shape, np.ascontiguousarray(columns).tobytes()

        assert {bits(columns) for columns in groups} == {bits(mean) for mean in means}
        lines = []
        for metric in sorted(harness.METRIC_COLUMNS):
            assert cli.main(["slopes", aggregate, "--metric", metric]) == 0
            lines += capsys.readouterr().out.splitlines()
        assert lines == report

    def test_slopes_flags_an_accuracy_reached_at_zero_calls(self, tmp_path, capsys):
        # the first row of a Frank-Wolfe baseline comes before any LMO call
        rows = ["fw_pgd_wolfe|eps=2,1,1,0,0,0,0.9,0.42,0.0,1",
                "fw_pgd_wolfe|eps=1,1,1,0,0,0,2.1,1.5,0.0,1",
                "fw_pgd_wolfe|eps=1,2,2,0,0,40,0.6,0.12,0.0,1",
                "fw_pgd_wolfe|eps=0.1,1,1,0,0,0,0.9,0.42,0.0,1"]
        agg = tmp_path / "aggregate.csv"
        agg.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        assert cli.main(["slopes", str(agg), "--metric", "lmo"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "lmo\tfw_pgd_wolfe\tslope=nan (fewer than 3 accuracies reached at a positive count)",
            "lmo\tfw_pgd_wolfe\texcluded eps=2 (reached at 0 calls)",
            "lmo\tfw_pgd_wolfe\texcluded eps=0.1 (never reached; ≥ 0 calls)"]

    def test_slopes_nan_reason_when_every_accuracy_is_reached(self, tmp_path, capsys):
        # eps 0.4 and 0.3 are reached at the first row, before any LMO call
        rows = ["fw_pgd_wolfe|eps=0.4,1,1,0,0,0,0.9,0.25,0.0,1",
                "fw_pgd_wolfe|eps=0.3,1,1,0,0,0,0.9,0.25,0.0,1",
                "fw_pgd_wolfe|eps=0.2,1,1,0,0,0,0.9,0.25,0.0,1",
                "fw_pgd_wolfe|eps=0.2,2,2,0,0,40,0.8,0.15,0.0,1"]
        agg = tmp_path / "aggregate.csv"
        agg.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        assert cli.main(["slopes", str(agg), "--metric", "lmo"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "lmo\tfw_pgd_wolfe\tslope=nan (fewer than 3 accuracies reached at a positive count)",
            "lmo\tfw_pgd_wolfe\texcluded eps=0.4 (reached at 0 calls)",
            "lmo\tfw_pgd_wolfe\texcluded eps=0.3 (reached at 0 calls)"]

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err
