"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line so the suite doubles as a
checklist.  Heavy shared artifacts (the d = 20 benchmark problem, its MOLES
sweep and the SVM's million-step reference solve) live in session fixtures.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from nsopt import (
    AbsoluteValueInstance,
    FirstOrderOracle,
    HingeSvmInstance,
    LinearMinimizationOracle,
    ProjectionOracle,
    SolverConfig,
    estimate_variance,
    fw_pgd,
    fw_quadratic_projection,
    l1_ball,
    lmo_l1_ball,
    minibatch_sfo,
    moles,
    mopes,
    nuclear_ball,
    pgd,
    prox_slide,
    prox_subgradient,
    reference_optimum,
    run_experiment,
    synth_hinge_data,
    synth_piecewise_linear,
)
from nsopt.geometry import full_svd, project_l1_ball, project_nuclear_ball
from nsopt.harness import ExperimentConfig, calls_to_reach, fit_loglog
from conftest import exact_abs_prox, exact_l1_projection, exact_max_affine_prox, philox

EPS_SWEEP = (0.2, 0.1, 0.05)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}")


def outer_steps_formula(eps, lipschitz, dist, c=1.0, cprime=None):
    if cprime is None:
        return math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c) * lipschitz * dist / eps)
    return math.ceil(2.0 * math.sqrt(10.0 + 8.0 * c * (1.0 + cprime)) * lipschitz * dist / eps)


def total_inner_steps(cfg):
    return sum(
        math.ceil((4.0 * cfg.lipschitz ** 2 + cfg.sigma ** 2) * cfg.lam ** 2
                  * cfg.outer_steps * k ** 2 / (2.0 * cfg.d_tilde))
        for k in range(1, cfg.outer_steps + 1))


@pytest.fixture(scope="session")
def bench():
    """d = 20 piecewise-linear benchmark on the unit l1 ball with an
    off-center minimizer inside the ball and a far vertex start; gaps are
    measured against the certified minimum at that minimizer."""
    d = 20
    anchor = np.zeros(d)
    anchor[0] = -0.45
    anchor[1:] = philox(5).uniform(-0.05, 0.05, d - 1)
    problem = synth_piecewise_linear(d, 40, 22, anchor=anchor)
    ball = l1_ball(d, 1.0)
    assert ball.contains(anchor)  # so min_value is the minimum over the ball
    x0 = np.zeros(d)
    x0[0] = 1.0
    dist = float(np.linalg.norm(x0 - anchor)) * 1.02
    return {
        "problem": problem, "ball": ball, "f_ref": problem.min_value, "x0": x0,
        "dist": dist, "lipschitz": problem.lipschitz_bound,
        "fo": FirstOrderOracle.from_instance(problem),
        "po": ProjectionOracle.from_set(ball),
        "lmo": LinearMinimizationOracle.from_set(ball),
    }


@pytest.fixture(scope="session")
def moles_bench(bench):
    """MOLES sweep over the accuracy grid, shared by criteria 4 and 8."""
    results = {}
    for eps in EPS_SWEEP:
        cfg = SolverConfig.from_target(eps, bench["lipschitz"], bench["ball"].diameter,
                                       method="moles", dist_estimate=bench["dist"], seed=41)
        results[eps] = (cfg, moles(bench["problem"], bench["fo"], bench["lmo"], cfg,
                                   bench["x0"]))
    return results


def test_criterion_1_moreau_invariants(rng):
    desc = "envelope invariant suite (value chain, prox bounds, gradient checks)"
    with criterion(1, desc):
        diameter = 2.0  # companion unit-ball diameter used to scale slack
        cases = [AbsoluteValueInstance(np.array([0.37]))]
        for seed in range(10):
            d = int(philox(seed).integers(2, 21))
            m = int(philox(seed + 100).integers(4, 9))
            cases.append(synth_piecewise_linear(d, m, seed))
        for inst in cases:
            if isinstance(inst, AbsoluteValueInstance):
                reference = lambda x, lam: exact_abs_prox(inst.anchor, x, lam)
            else:
                reference = lambda x, lam: exact_max_affine_prox(
                    inst.slopes, inst.intercepts, x, lam)
            lipschitz = inst.lipschitz_bound
            slack = 1e-6 * lipschitz * diameter
            for lam in (0.01, 0.1, 1.0):
                for _ in range(4):
                    x = rng.uniform(-1.5, 1.5, inst.dim)
                    point, value = reference(x, lam)
                    # value chain  f(prox) <= envelope <= f(x)
                    assert inst.value(point) <= value + slack
                    assert value <= inst.value(x) + slack
                    # prox distance and value bounds
                    assert np.linalg.norm(point - x) <= lipschitz * lam + slack
                    assert inst.value(x) <= value + lipschitz ** 2 * lam / 2.0 + slack
                    # envelope gradient against central finite differences
                    grad = (x - point) / lam
                    norm = np.linalg.norm(grad)
                    if norm < 1e-6:
                        continue
                    step = 1e-6
                    axes = rng.choice(inst.dim, size=min(3, inst.dim), replace=False)
                    for axis in axes:
                        offset = np.zeros(inst.dim)
                        offset[axis] = step
                        fd = (reference(x + offset, lam)[1]
                              - reference(x - offset, lam)[1]) / (2.0 * step)
                        assert abs(fd - grad[axis]) <= 1e-4 * norm
        # the library's inner solver reproduces the reference envelope within
        # its own guarantee
        inst = cases[1]
        fo = FirstOrderOracle.from_instance(inst)
        for lam in (0.01, 0.1):
            x = rng.uniform(-1.0, 1.0, inst.dim)
            _, value = exact_max_affine_prox(inst.slopes, inst.intercepts, x, lam)
            budget = 4000
            result = prox_subgradient(fo, x, lam, budget, 10.0)
            bound = 2.0 * fo.lipschitz_bound ** 2 * lam / math.sqrt(budget)
            assert value - 1e-9 <= result.value <= value + bound + 1e-9


def test_criterion_2_projection_and_lmo_equivalence(rng):
    desc = "projection/LMO oracle equivalence against independent searches"
    with criterion(2, desc):
        # l1 projection vs the bisection oracle
        for _ in range(300):
            d = int(rng.integers(1, 11))
            r = float(rng.uniform(0.2, 2.5))
            x = rng.standard_normal(d) * rng.choice([0.3, 1.0, 4.0])
            assert np.linalg.norm(project_l1_ball(x, r)
                                  - exact_l1_projection(x, r)) <= 1e-8
        # nuclear projection: feasibility plus dominance over 10^4 samples
        for shape in ((4, 3), (5, 5)):
            x = rng.standard_normal(shape) * 1.5
            proj = project_nuclear_ball(x, 1.0)
            assert np.linalg.svd(proj, compute_uv=False).sum() <= 1.0 + 1e-8
            dist = np.linalg.norm(proj - x)
            samples = rng.standard_normal((10 ** 4,) + shape)
            nucs = np.linalg.svd(samples, compute_uv=False).sum(axis=1)
            scales = rng.uniform(0, 1, 10 ** 4) / nucs
            samples *= scales[:, None, None]
            dists = np.linalg.norm(samples - x[None], axis=(1, 2))
            assert dist <= dists.min() + 1e-12
        # l1 LMO beats exhaustive vertex search exactly
        for _ in range(200):
            d = int(rng.integers(2, 11))
            r = float(rng.uniform(0.5, 2.0))
            g = rng.standard_normal(d)
            s = lmo_l1_ball(g, r)
            best = min(min(r * g), min(-r * g))
            assert float(g @ s) == best
        # nuclear LMO beats Monte-Carlo rank-1 search to 1e-6
        for trial in range(20):
            g = rng.standard_normal((5, 4))
            ball = nuclear_ball(5, 4, 1.3)
            s = ball.lmo(g.ravel()).reshape(5, 4)
            value = float((g * s).sum())
            u = rng.standard_normal((10 ** 3, 5))
            v = rng.standard_normal((10 ** 3, 4))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            candidates = 1.3 * np.einsum("ni,nj->nij", u, v)
            values = np.einsum("ij,nij->n", g, candidates)
            assert value <= values.min() + 1e-6


@pytest.mark.slow
def test_criterion_3_mopes_end_to_end(bench):
    desc = "projection-efficient solver: accuracy, exact accounting, slope 1 vs 2"
    with criterion(3, desc):
        lipschitz, ball = bench["lipschitz"], bench["ball"]
        reach = {}
        for eps in EPS_SWEEP:
            cfg = SolverConfig.from_target(eps, lipschitz, ball.diameter, method="mopes",
                                           dist_estimate=bench["dist"], seed=31)
            expected_outer = outer_steps_formula(eps, lipschitz, bench["dist"])
            assert cfg.outer_steps == expected_outer
            result = mopes(bench["problem"], bench["fo"], bench["po"], cfg, bench["x0"])
            assert result.trace.values[-1, 0] - bench["f_ref"] <= eps
            assert result.counters.po_calls == expected_outer
            assert result.counters.fo_calls == total_inner_steps(cfg)
            assert result.counters.sfo_calls == 0 and result.counters.lmo_calls == 0
            reach[eps] = calls_to_reach(result.trace.columns(bench["f_ref"]), eps, "po_calls")
            assert reach[eps] is not None
        slope, _ = fit_loglog(list(EPS_SWEEP), [reach[e] for e in EPS_SWEEP])
        assert 0.85 <= slope <= 1.15, f"projection-count slope {slope}"
        # projected subgradient baseline on the same thresholds, each run
        # with the fixed stepsize tuned to its own horizon
        base_reach = []
        for eps in EPS_SWEEP:
            horizon = math.ceil((2.0 * lipschitz * ball.diameter / eps) ** 2)
            baseline = pgd(bench["problem"], bench["fo"], bench["po"], bench["x0"],
                           horizon, lipschitz, ball.diameter,
                           stepsize_rule="fixed")
            assert baseline.counters.po_calls == baseline.counters.fo_calls == horizon
            base_reach.append(calls_to_reach(baseline.trace.columns(bench["f_ref"]), eps,
                                             "po_calls"))
        assert all(r is not None for r in base_reach)
        base_slope, _ = fit_loglog(list(EPS_SWEEP), base_reach)
        assert 1.7 <= base_slope <= 2.3, f"baseline projection slope {base_slope}"


@pytest.mark.slow
def test_criterion_4_moles_end_to_end(bench, moles_bench):
    desc = "LMO-efficient solver: accuracy, exact LMO budget, quartic-rate baseline"
    with criterion(4, desc):
        reach = {}
        for eps in EPS_SWEEP:
            cfg, result = moles_bench[eps]
            assert cfg.outer_steps == outer_steps_formula(
                eps, bench["lipschitz"], bench["dist"], cprime=cfg.cprime)
            assert result.trace.values[-1, 0] - bench["f_ref"] <= eps
            assert result.counters.lmo_calls == cfg.outer_steps * cfg.fw_budget
            assert result.counters.fo_calls == total_inner_steps(cfg)
            reach[eps] = calls_to_reach(result.trace.columns(bench["f_ref"]), eps, "lmo_calls")
            assert reach[eps] is not None
        slope, _ = fit_loglog(list(EPS_SWEEP), [reach[e] for e in EPS_SWEEP])
        assert 1.7 <= slope <= 2.3, f"LMO-count slope {slope}"
        # the approximate-projection subgradient baseline needs at least
        # five times the LMO budget at the tightest accuracy: run it capped
        # and require that it either spent >= 5x without reaching the gap
        # (a lower-bound certificate) or reached it using >= 5x.
        eps = 0.05
        moles_total = moles_bench[eps][1].counters.lmo_calls
        steps = math.ceil((2.0 * bench["lipschitz"] * bench["ball"].diameter / eps) ** 2)
        capped = fw_pgd(bench["problem"], bench["fo"], bench["lmo"], bench["x0"],
                        steps, bench["lipschitz"], 0.0, bench["ball"].diameter,
                        f_ref=bench["f_ref"], max_lmo=6 * moles_total, target_gap=eps)
        baseline_reach = calls_to_reach(capped.trace.columns(bench["f_ref"]), eps, "lmo_calls")
        if baseline_reach is None:
            assert capped.counters.lmo_calls >= 5 * moles_total
        else:
            assert baseline_reach >= 5 * moles_total


def test_criterion_5_sliding_inequality(rng):
    desc = "sliding inner loop satisfies its per-call progress inequality"
    with criterion(5, desc):
        for trial in range(100):
            d = 1 if trial % 2 == 0 else 5
            inst = synth_piecewise_linear(d, 5, trial)
            lipschitz = inst.lipschitz_bound
            fo = FirstOrderOracle.from_instance(inst)

            class Sampler:
                def sample(self, x, gen):
                    return fo.evaluate(x)[1]

            beta = float(rng.uniform(0.2, 5.0))
            budget = int(rng.integers(1, 60))
            radius = 4.0
            g = rng.standard_normal(d)
            u0 = rng.uniform(-1, 1, d)
            u0 = u0 / max(1.0, np.linalg.norm(u0) / radius)
            last, avg = prox_slide(Sampler(), g, u0, beta, budget, radius, philox(trial))

            def phi(u):
                return inst.value(u) + float(g @ u) \
                    + beta / 2.0 * float((u - u0) @ (u - u0))

            for _ in range(100):
                ref = rng.standard_normal(d)
                ref *= rng.uniform(0, radius) / np.linalg.norm(ref)
                lhs = phi(avg) - phi(ref)
                rhs = (2.0 / (budget * (budget + 3))) * beta / 2.0 \
                    * float((u0 - ref) @ (u0 - ref)) \
                    - ((budget + 1) * (budget + 2) / (budget * (budget + 3))) \
                    * beta / 2.0 * float((last - ref) @ (last - ref)) \
                    + 16.0 * lipschitz ** 2 / (beta * budget)
                assert lhs <= rhs + 1e-9


def test_criterion_6_fw_projection_rate(rng):
    desc = "Frank-Wolfe projection reaches the dual-gap rate on both ball kinds"
    with criterion(6, desc):
        budgets = (10, 100, 1000)
        for trial in range(50):  # l1 instances
            d = int(rng.integers(2, 25))
            ball = l1_ball(d, float(rng.uniform(0.3, 3.0)))
            lmo = LinearMinimizationOracle.from_set(ball)
            beta = float(rng.uniform(0.25, 4.0))
            z = rng.standard_normal(d) * rng.choice([0.3, 1.0, 3.0]) * ball.radius / np.sqrt(d)
            u0 = ball.boundary_point(rng)
            for budget in budgets:
                out = fw_quadratic_projection(z, u0, lmo, budget=budget)
                s = lmo_l1_ball(out - z, ball.radius)
                gap = beta * float((out - z) @ (out - s))
                assert gap <= 7.0 * beta * ball.diameter ** 2 / budget
        for trial in range(50):  # nuclear instances
            m, p = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            ball = nuclear_ball(m, p, float(rng.uniform(0.3, 2.0)))
            lmo = LinearMinimizationOracle.from_set(ball, rng=philox(trial))
            beta = float(rng.uniform(0.25, 4.0))
            z = (rng.standard_normal((m, p)) * rng.choice([0.3, 1.0, 3.0])
                 * ball.radius / np.sqrt(m * p)).ravel()
            u0 = ball.boundary_point(rng)
            for budget in budgets:
                out = fw_quadratic_projection(z, u0, lmo, budget=budget)
                _, sv, _ = full_svd((out - z).reshape(m, p))
                gap = beta * (float((out - z) @ out) + ball.radius * sv[0])
                assert gap <= 7.0 * beta * ball.diameter ** 2 / budget


@pytest.fixture(scope="session")
def svm_bench():
    rows = synth_hinge_data(200, 20, 123)
    problem = HingeSvmInstance(rows)
    ball = l1_ball(20, 1.0)
    f_ref, x_ref = reference_optimum(problem, ball, 10 ** 6)
    return {"problem": problem, "ball": ball, "f_ref": f_ref, "x_ref": x_ref}


@pytest.mark.slow
def test_criterion_7_stochastic_runs(svm_bench):
    desc = "stochastic minibatch runs hit the target accuracy in the mean"
    with criterion(7, desc):
        problem, ball = svm_bench["problem"], svm_bench["ball"]
        # the reference value is certified: one subgradient at x_ref brackets it
        f_ref, x_ref = svm_bench["f_ref"], svm_bench["x_ref"]
        value, g = problem.value_and_subgradient(x_ref)
        lower = value - g @ x_ref - ball.radius * float(np.abs(g).max())
        assert value == f_ref
        assert abs(f_ref - lower) <= 1e-12 * max(1.0, abs(f_ref))
        lipschitz = problem.lipschitz_bound
        po = ProjectionOracle.from_set(ball)
        sfo = minibatch_sfo(problem, 4)
        # the measured second moment respects the configured bound; the probe
        # points have their own generator, since the oracle draws its
        # minibatches ahead in blocks from the one it samples from
        points, probe = philox(98), philox(99)
        measured = max(estimate_variance(sfo, ball.boundary_point(points), 2000, probe)
                       for _ in range(3))
        assert measured <= sfo.variance_bound
        eps = 0.1
        gaps = []
        for seed in range(10):
            x0 = ball.boundary_point(philox((7, seed)))
            dist = float(np.linalg.norm(x0 - svm_bench["x_ref"])) * 1.1
            cfg = SolverConfig.from_target(eps, lipschitz, ball.diameter, method="mopes",
                                           sigma=math.sqrt(sfo.variance_bound),
                                           dist_estimate=dist, seed=seed)
            result = mopes(problem, sfo, po, cfg, x0)
            assert result.counters.po_calls == cfg.outer_steps
            assert result.counters.sfo_calls == total_inner_steps(cfg)
            assert result.counters.fo_calls == 0
            gaps.append(result.trace.values[-1, 0] - svm_bench["f_ref"])
        assert float(np.mean(gaps)) <= 1.2 * eps


@pytest.mark.slow
def test_criterion_8_determinism_and_accounting(tmp_path, bench, moles_bench):
    desc = "byte-identical traces per configuration and exact counter identities"
    with criterion(8, desc):
        base = {
            "seed": 17,
            "repetitions": 2,
            "epsilons": [0.3, 0.15],
            "reference_budget": 10 ** 4,
            "problem": {"kind": "piecewise_linear", "d": 5, "pieces": 5, "seed": 2,
                        "set": "l1_ball", "radius": 1.0},
            "solvers": [{"name": "mopes", "dist_estimate": 1.0},
                        {"name": "pgd", "steps": 2000, "stepsize_rule": "diminishing"}],
        }
        manifests = []
        for tag in ("a", "b"):
            cfg = ExperimentConfig.from_dict(dict(base, output_dir=str(tmp_path / tag)))
            manifests.append(run_experiment(cfg))
        for f1, f2 in zip(manifests[0]["files"], manifests[1]["files"]):
            with open(f1, "rb") as h1, open(f2, "rb") as h2:
                assert h1.read() == h2.read(), f"{f1} differs from {f2}"
        # counter identities on the harness outputs: one projection per
        # outer step for the splitting solver, one projection and one
        # subgradient per step for the baseline
        for path in manifests[0]["files"]:
            name = path.rsplit("/", 1)[-1]
            rows = open(path).read().splitlines()[1:]
            if name.startswith("mopes"):
                eps = float(name.split("_eps")[1].split("_")[0])
                expected = outer_steps_formula(eps, 1.0, 1.0)
                final = rows[-1].split(",")
                assert int(final[4]) == expected == int(final[1])
            if name.startswith("pgd"):
                final = rows[-1].split(",")
                assert int(final[2]) == int(final[4]) == 2000
        # identities on the in-memory benchmark runs of criteria 3 and 4
        for eps, (cfg, result) in moles_bench.items():
            assert result.counters.lmo_calls == cfg.outer_steps * cfg.fw_budget
            assert result.counters.po_calls == 0


def test_criterion_9_inner_solver_bound(rng):
    desc = "proximal subgradient method meets its averaged-iterate bound"
    with criterion(9, desc):
        for trial in range(50):
            d = int(rng.integers(1, 6))
            inst = synth_piecewise_linear(d, 5, trial + 700)
            lipschitz = inst.lipschitz_bound
            fo = FirstOrderOracle.from_instance(inst)
            beta = float(rng.uniform(0.3, 4.0))
            lam = 1.0 / beta
            x = rng.uniform(-1.5, 1.5, d)
            minimizer, _ = exact_max_affine_prox(inst.slopes, inst.intercepts, x, lam)
            dist = float(np.linalg.norm(x - minimizer))
            budget = int(rng.choice([16, 64, 256, 1024]))
            result = prox_subgradient(fo, x, lam, budget, 20.0, dist_estimate=dist)

            def phi(u):
                return inst.value(u) + beta / 2.0 * float((u - x) @ (u - x))

            lhs = beta / 2.0 * float((result.point - minimizer) @ (result.point - minimizer)) \
                + phi(result.point) - phi(minimizer)
            assert lhs <= 2.0 * lipschitz * dist / math.sqrt(budget) + 1e-9
