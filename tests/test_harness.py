"""Experiment harness: configs, reference solves, file output, slope fits, CLI."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nsopt import (
    ConfigError,
    HingeSvmInstance,
    NumericalError,
    fit_slopes,
    l1_ball,
    load_config,
    reference_optimum,
    run_experiment,
    synth_piecewise_linear,
)
from nsopt import cli, harness
from nsopt.harness import ExperimentConfig, build_problem, fit_loglog, fit_slopes_from_csv
from nsopt.solvers import CSV_HEADER
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
        cfg = small_config(tmp_path, seed="3", solvers=[{"name": "pgd", "steps": "50"},
                                                        {"name": "moles", "c": None}])
        assert cfg.seed == 3
        assert cfg.problem == {"kind": "piecewise_linear", "set": "l1_ball", "radius": 1.0,
                               "seed": 0, "d": 4, "pieces": 4, "anchor": None}
        assert cfg.solvers == [
            {"name": "pgd", "batch_size": None, "trace_every": 1, "steps": 50,
             "stepsize_rule": "fixed"},
            {"name": "moles", "batch_size": None, "c": 1.0, "cprime": 1.0,
             "dist_estimate": None, "projection_mode": "budget"}]

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

    def test_build_problem_kinds(self):
        for cfg in (
            {"kind": "piecewise_linear", "d": 3, "pieces": 4, "seed": 1,
             "set": "l1_ball", "radius": 1.0},
            {"kind": "hinge_svm", "n": 10, "d": 3, "seed": 1,
             "set": "l2_ball", "radius": 1.0},
            {"kind": "matrix_svm", "n": 8, "rows": 2, "cols": 3, "seed": 1,
             "set": "nuclear_ball", "radius": 0.5},
        ):
            problem, descriptor, lipschitz = build_problem(cfg)
            assert descriptor.dim == problem.dim
            assert lipschitz > 0
        with pytest.raises(ConfigError):
            build_problem({"kind": "quadratic"})
        with pytest.raises(ConfigError):
            build_problem({"kind": "hinge_svm", "n": 5, "d": 3,
                           "set": "nuclear_ball", "radius": 1.0})


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
        f1, x1 = reference_optimum(inst, ball, 10 ** 4)
        f2, _ = reference_optimum(inst, ball, 2 * 10 ** 4)
        assert f1 >= inst.min_value - 1e-12
        assert f2 <= f1  # longer run extends the same trajectory
        assert inst.value(x1) == f1

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


class TestSlopeFits:
    def synthetic_traces(self, exponent, constant=1024.0):
        eps_values = [0.5, 0.25, 0.125]
        per_eps = {}
        for eps in eps_values:
            calls = constant / eps ** exponent
            per_eps[eps] = [SimpleNamespace(gap=eps, po_calls=calls, lmo_calls=calls,
                                            fo_calls=calls, sfo_calls=calls)]
        return {"solver": per_eps}

    def test_exact_linear_rate(self):
        report = fit_slopes(self.synthetic_traces(1), "po")
        entry = report.solvers["solver"]
        assert abs(entry.slope - 1.0) <= 1e-9
        assert entry.residual <= 1e-9

    def test_exact_quadratic_rate(self):
        report = fit_slopes(self.synthetic_traces(2), "po")
        assert abs(report.solvers["solver"].slope - 2.0) <= 1e-9

    def test_unreached_accuracy_is_flagged(self):
        traces = self.synthetic_traces(1)
        traces["solver"][0.125] = [SimpleNamespace(gap=1.0, po_calls=5, lmo_calls=5,
                                                   fo_calls=5, sfo_calls=5)]
        report = fit_slopes(traces, "po")
        entry = report.solvers["solver"]
        assert entry.excluded == [0.125]
        assert math.isnan(entry.slope)

    def test_zero_count_metric_is_unused(self, capsys):
        traces = self.synthetic_traces(1)
        for rows in traces["solver"].values():
            rows[0].sfo_calls = 0
        traces["stuck"] = {eps: [SimpleNamespace(gap=1.0, po_calls=5, lmo_calls=0,
                                                 fo_calls=5, sfo_calls=0)]
                           for eps in (0.5, 0.25, 0.125)}
        report = fit_slopes(traces, "sfo")
        assert report.solvers["solver"].unused
        assert report.solvers["stuck"].unused
        cli._print_slope_report(report)
        assert capsys.readouterr().out.splitlines() == ["sfo\tsolver\tmetric unused",
                                                        "sfo\tstuck\tmetric unused"]
        cli._print_slope_report(fit_slopes(traces, "po"))
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("po\tsolver\tslope=1.0000")
        assert lines[1] == "po\tstuck\tslope=nan (fewer than 3 reachable accuracies)"
        assert lines[2:] == [f"po\tstuck\texcluded eps={eps:g} (never reached)"
                             for eps in (0.5, 0.25, 0.125)]

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            fit_slopes({}, "wall")

    def test_round_trip_through_aggregate_csv(self, tmp_path):
        manifest = run_experiment(small_config(tmp_path, epsilons=[0.4, 0.2, 0.1]))
        report = fit_slopes_from_csv(manifest["files"][-1], "po")
        assert "mopes" in report.solvers

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
        assert "reference_value" in payload and len(payload["certificate"]) == 3

    def test_sweep_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slope=" in out
        # a deterministic mopes run calls neither the SFO nor the LMO
        assert "lmo\tmopes\tmetric unused\n" in out
        assert "sfo\tmopes\tmetric unused\n" in out
        assert "never reached" not in out

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
    ], ids=["d", "set", "steps", "stepsize_rule", "projection_mode", "dist_estimate",
            "max_lmo", "second_solver", "duplicate_label", "unhashable_name"])
    def test_bad_value_fails_at_load(self, tmp_path, capsys, monkeypatch, overrides, named):
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference solve ran before the config was checked")

        monkeypatch.setattr(harness, "reference_optimum", no_reference)
        path = self.write_config(tmp_path, **overrides)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and named in err
        assert not (tmp_path / "cli_out").exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err
