"""Solver loops: schedules, inner procedures, end-to-end runs, accounting."""

import dataclasses
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nsopt.solvers
from nsopt import (
    AbsoluteValueInstance,
    FirstOrderOracle,
    HingeSvmInstance,
    LinearMinimizationOracle,
    NumericalError,
    OracleCounters,
    ProjectionOracle,
    SolverConfig,
    StochasticFirstOrderOracle,
    compute_schedule,
    fw_pgd,
    fw_quadratic_projection,
    l1_ball,
    l2_ball,
    minibatch_sfo,
    moles,
    mopes,
    nuclear_ball,
    pgd,
    prox_slide,
    synth_hinge_data,
    synth_piecewise_linear,
    wrap_counting,
)
from nsopt.solvers import CSV_HEADER, RunTrace, format_bodies
from conftest import philox


def abs_problem(anchor=0.6):
    inst = AbsoluteValueInstance(np.array([anchor]))
    fo = FirstOrderOracle.from_instance(inst)
    sd = l1_ball(1, 1.0)
    return inst, fo, sd


class RecordingProblem:
    """A problem that keeps every point its ``value`` is asked for; the
    splitting solvers evaluate each outer iterate there."""

    def __init__(self, problem):
        self.problem = problem
        self.points = []

    def value(self, x):
        self.points.append(np.array(x, copy=True))
        return self.problem.value(x)


def recording_po(sd, points):
    """A projection oracle for ``sd`` that keeps every point it returns."""
    def project(x):
        points.append(sd.project(x))
        return points[-1]
    return ProjectionOracle(project, sd)


def sum_inner_steps(cfg):
    return sum(
        compute_schedule(cfg.lam, cfg.outer_steps, k, 1, cfg.lipschitz, cfg.sigma,
                         cfg.set_diameter, cfg.d_tilde, cfg.cprime).inner_steps
        for k in range(1, cfg.outer_steps + 1))


class TestSchedule:
    def test_beta_example(self):
        s = compute_schedule(0.5, 10, 4, 1, 1.0, 0.0, 2.0, 1.0, 1.0)
        assert s.beta == 2.0

    def test_first_step_ignores_history(self):
        s = compute_schedule(0.5, 10, 1, 1, 1.0, 0.0, 2.0, 1.0, 1.0)
        assert s.gamma == 1.0

    def test_inner_steps_example(self):
        s = compute_schedule(0.1, 10, 2, 1, 1.0, 0.0, 2.0, 1.0, 1.0)
        assert s.inner_steps == 1

    def test_inner_steps_monotone(self):
        prev = 0
        for k in range(1, 200):
            s = compute_schedule(0.02, 200, k, 1, 1.5, 0.3, 2.0, 0.7, 1.0)
            assert s.inner_steps >= prev
            prev = s.inner_steps

    def test_averaging_weights_sum_to_one(self):
        for total in range(1, 51):
            weights = [2.0 * (t + 1) / (total * (total + 3)) for t in range(1, total + 1)]
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            compute_schedule(0.0, 10, 1, 1, 1.0, 0.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_schedule(0.5, 10, 0, 1, 1.0, 0.0, 2.0, 1.0, 1.0)


class TestSolverConfig:
    def test_target_derivation_matches_formulas(self):
        cfg = SolverConfig.from_target(0.1, 1.0, 2.0, method="mopes", dist_estimate=1.0)
        assert cfg.lam == pytest.approx(0.1)
        assert cfg.outer_steps == math.ceil(2.0 * math.sqrt(18.0) * 10.0)  # 85
        cfg2 = SolverConfig.from_target(0.1, 1.0, 2.0, method="moles", dist_estimate=1.0)
        assert cfg2.outer_steps == math.ceil(2.0 * math.sqrt(26.0) * 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0, outer_steps=5, d_tilde=1.0, lipschitz=1.0,
                         set_diameter=2.0, domain_radius=1.0)
        with pytest.raises(ValueError):
            SolverConfig.from_target(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            SolverConfig.from_target(0.1, 1.0, 2.0, method="sgd")


class FoSampler:
    def __init__(self, fo):
        self.fo = fo
        self.calls = 0

    def sample(self, x, rng):
        self.calls += 1
        return self.fo.evaluate(x)[1]


class TestProxSlide:
    def test_single_step_average_is_last_iterate(self):
        _, fo, _ = abs_problem(0.0)
        sampler = FoSampler(fo)
        last, avg = prox_slide(sampler, np.zeros(1), np.array([0.5]), 1.0, 1, 2.0, philox(0))
        assert np.array_equal(last, avg)

    def test_soft_threshold_limit(self):
        # prox_{f/beta}(u0 - g/beta) with f = |.|, g = 0, u0 = 2, beta = 1 -> 1
        _, fo, _ = abs_problem(0.0)
        sampler = FoSampler(fo)
        last, avg = prox_slide(sampler, np.zeros(1), np.array([2.0]), 1.0, 1000, 4.0, philox(0))
        assert last[0] == pytest.approx(1.0, abs=1e-2)
        assert avg[0] == pytest.approx(1.0, abs=1e-2)

    def test_average_matches_weight_identity(self, rng):
        inst = synth_piecewise_linear(3, 4, 2)
        fo = FirstOrderOracle.from_instance(inst)
        total = 37
        beta = 0.8
        u0 = rng.standard_normal(3) * 0.2
        g = rng.standard_normal(3)
        iterates = []

        class Recorder:
            def sample(self, x, gen):
                return fo.evaluate(x)[1]

        # replay the recursion while recording iterates
        u = u0.copy()
        avg = u0.copy()
        target = u0 - g / beta
        for t in range(1, total + 1):
            ghat = fo.evaluate(u)[1]
            u = u - (ghat + beta * (u - target)) * (1.0 / ((1.0 + 0.5 * t) * beta))
            nrm = np.linalg.norm(u)
            if nrm > 4.0:
                u *= 4.0 / nrm
            iterates.append(u.copy())
            theta = 2.0 * (t + 1) / (t * (t + 3))
            avg = (1.0 - theta) * avg + theta * u
        last, got_avg = prox_slide(Recorder(), g, u0, beta, total, 4.0, philox(0))
        assert_allclose(got_avg, avg, atol=0.0)
        weights = np.array([2.0 * (t + 1) / (total * (total + 3))
                            for t in range(1, total + 1)])
        expected = (weights[:, None] * np.stack(iterates)).sum(axis=0)
        assert_allclose(got_avg, expected, atol=1e-12)

    @pytest.mark.parametrize("block", ["one_step", "two_steps", "full_block", "block_and_one"])
    def test_average_is_the_exact_weighted_sum(self, block):
        """The average equals ``sum_t 2(t+1) u_t / (T(T+3))`` of the recorded
        iterates, summed exactly by ``math.fsum``, to 1e-12 relative, at
        ``T`` inside one block of the average and across two."""
        d = 20
        rows = nsopt.solvers._AVERAGE_BLOCK // d
        steps = {"one_step": 1, "two_steps": 2, "full_block": rows,
                 "block_and_one": rows + 1}[block]
        fo = FirstOrderOracle.from_instance(synth_piecewise_linear(d, 12, 3))
        queried = []

        class Recorder:
            def sample(self, x, gen):
                queried.append(x.copy())
                return fo.evaluate(x)[1]

        # u_t is a convex combination of u_{t-1} and target - g_t / beta, whose
        # entries are at least 3 - 1/2 (every subgradient has norm at most 1),
        # so from a positive u0 every term of a coordinate's sum is positive:
        # the sum has no cancellation, and a relative bound is meaningful.
        beta, u0 = 2.0, np.full(d, 0.5)
        g = beta * (u0 - 3.0)
        last, avg = prox_slide(Recorder(), g, u0, beta, steps, 1e6, philox(0))
        iterates = queried[1:] + [last]  # u_1, ..., u_T: sample sees u_0 first
        assert len(iterates) == steps and min(u.min() for u in iterates) > 0.0
        scale = steps * (steps + 3)
        expected = [math.fsum(2.0 * (t + 1) * u[i] / scale for t, u in enumerate(iterates, 1))
                    for i in range(d)]
        assert_allclose(avg, expected, rtol=1e-12, atol=0.0)

    def test_consumes_exact_subgradient_budget(self):
        _, fo, _ = abs_problem(0.0)
        sampler = FoSampler(fo)
        prox_slide(sampler, np.zeros(1), np.array([1.0]), 2.0, 57, 2.0, philox(0))
        assert sampler.calls == 57

    def test_invalid_budget(self):
        _, fo, _ = abs_problem(0.0)
        with pytest.raises(ValueError):
            prox_slide(FoSampler(fo), np.zeros(1), np.array([1.0]), 1.0, 0, 2.0, philox(0))


class TestSlidingInequality:
    def test_deterministic_progress_bound(self, rng):
        # the averaged/last iterate pair satisfies the strongly convex
        # progress inequality with the 16 G^2 / (beta T) error term
        for trial in range(25):
            d = 1 if trial % 2 == 0 else 5
            inst = synth_piecewise_linear(d, 5, trial)
            bound = inst.lipschitz_bound
            fo = FirstOrderOracle.from_instance(inst)
            sampler = FoSampler(fo)
            beta = float(rng.uniform(0.2, 5.0))
            total = int(rng.integers(1, 60))
            radius = 4.0
            g = rng.standard_normal(d)
            u0 = rng.uniform(-1, 1, d)
            u0 = u0 / max(1.0, np.linalg.norm(u0) / radius)
            last, avg = prox_slide(sampler, g, u0, beta, total, radius, philox(trial))

            def phi(u):
                return inst.value(u) + float(g @ u) + beta / 2.0 * float((u - u0) @ (u - u0))

            for _ in range(100):
                ref = rng.standard_normal(d)
                ref *= rng.uniform(0, radius) / np.linalg.norm(ref)
                lhs = phi(avg) - phi(ref)
                rhs = (2.0 / (total * (total + 3))) * beta / 2.0 * float((u0 - ref) @ (u0 - ref)) \
                    - ((total + 1) * (total + 2) / (total * (total + 3))) * beta / 2.0 \
                    * float((last - ref) @ (last - ref)) \
                    + 16.0 * bound ** 2 / (beta * total)
                assert lhs <= rhs + 1e-9


class TestFwQuadraticProjection:
    def test_feasible_target_returns_start(self):
        sd = l1_ball(2, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        z = np.array([0.3, -0.2])
        out = fw_quadratic_projection(z, z, lmo, beta=1.0, wolfe_tol=1e-12)
        assert np.array_equal(out, z)

    def test_projection_objective_rate(self):
        sd = l1_ball(2, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        z = np.array([3.0, 0.0])
        u0 = np.array([0.0, 1.0])
        budget = 200
        out = fw_quadratic_projection(z, u0, lmo, budget=budget)
        beta = 1.0
        h = lambda u: beta / 2.0 * float((u - z) @ (u - z))
        assert h(out) - h(np.array([1.0, 0.0])) <= 7.0 * beta * sd.diameter ** 2 / budget

    def test_output_support_bounded_by_steps(self, rng):
        sd = l1_ball(50, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        u0 = np.zeros(50)
        u0[7] = 1.0
        z = rng.standard_normal(50)
        out = fw_quadratic_projection(z, u0, lmo, budget=5)
        assert np.count_nonzero(out) <= 5

    def test_gap_bound_on_random_instances(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 20))
            sd = l1_ball(d, float(rng.uniform(0.5, 2.0)))
            lmo = LinearMinimizationOracle.from_set(sd)
            beta = float(rng.uniform(0.25, 4.0))
            z = rng.standard_normal(d) * rng.choice([0.3, 1.0, 3.0])
            u0 = sd.boundary_point(rng)
            budget = int(rng.choice([10, 100]))
            out = fw_quadratic_projection(z, u0, lmo, budget=budget)
            s = sd.lmo(out - z)
            gap = beta * float((out - z) @ (out - s))
            assert gap <= 7.0 * beta * sd.diameter ** 2 / budget

    @staticmethod
    def iterate_recursion(target, u0, sd, budget):
        """The open-loop update on the iterate itself, ``u_t = ((t-1) u_{t-1}
        + 2 s_t) / (t + 1)`` with ``s_t`` the dense vertex at ``u_{t-1} -
        target``; returns the last iterate and the vertices in order."""
        u = np.array(u0, dtype=float)
        vertices = []
        for t in range(1, budget + 1):
            vertices.append(sd.lmo(u - target))
            u = ((t - 1) * u + 2.0 * vertices[-1]) / (t + 1)
        return u, vertices

    @pytest.mark.parametrize("budget", [1, 2, 10, 1000])
    @pytest.mark.parametrize("sd", [l1_ball(20, 1.0), l1_ball(1, 0.7), l2_ball(20, 1.3),
                                    l2_ball(1, 1.0)], ids=["l1", "l1_d1", "l2", "l2_d1"])
    def test_atom_form_takes_the_iterate_recursions_steps(self, sd, budget):
        # The atom form sums exact multiples of its vertices and divides
        # once, so it is within an ulp or two of their exact average.  The
        # iterate recursion rounds at every step: after 1000 steps on the
        # segment (d=1) it is up to 1.4e-14 of the radius off the atom form,
        # hence the bound of 3e-14 rather than 1e-14.
        gen = philox((sd.dim, budget))
        for _ in range(5):
            target = gen.standard_normal(sd.dim) * 1.5
            u0 = sd.boundary_point(gen) * gen.uniform(0.0, 1.0)
            atoms = []
            recording = LinearMinimizationOracle(
                lambda q: atoms.append(sd.lmo_atom(q)) or atoms[-1], sd)
            counters = OracleCounters()
            out = fw_quadratic_projection(target, u0, wrap_counting(recording, counters),
                                          budget=budget)
            assert counters.lmo_calls == budget == len(atoms)
            expected, vertices = self.iterate_recursion(target, u0, sd, budget)
            steps = np.zeros((budget, sd.dim))
            for row, (index, value) in zip(steps, atoms):
                row[index] = value
            # the same vertices: on the l1 ball exactly, on the l2 ball up to
            # the rounding of the direction it normalizes
            assert np.max(np.abs(steps - vertices)) <= 1e-15 * sd.radius
            exact = [sum(Fraction(2 * t) * Fraction(s) for t, s in enumerate(column, 1))
                     / (budget * (budget + 1)) for column in steps.T.tolist()]
            assert max(abs(Fraction(o) - e) for o, e in zip(out.tolist(), exact)) \
                <= 1e-15 * sd.radius
            assert np.max(np.abs(out - expected)) <= 3e-14 * sd.radius

    @pytest.mark.parametrize("sd", [l1_ball(5, 1.0), l1_ball(1, 1.0), l2_ball(5, 2.0),
                                    nuclear_ball(2, 3, 1.0)])
    def test_wolfe_start_within_tolerance_is_returned_after_one_call(self, sd, rng):
        u0 = sd.boundary_point(rng) * 0.5
        target = u0 + 1e-9 * rng.standard_normal(sd.dim)
        counters = OracleCounters()
        lmo = wrap_counting(LinearMinimizationOracle.from_set(sd), counters)
        out = fw_quadratic_projection(target, u0, lmo, beta=2.0, wolfe_tol=1e-6)
        assert counters.lmo_calls == 1
        assert out is not u0 and out.tobytes() == u0.tobytes()

    def test_wolfe_mode_stops_on_nan_gap(self):
        counters = OracleCounters()
        nan_lmo = LinearMinimizationOracle(lambda g: (slice(None), np.full_like(g, math.nan)),
                                           l1_ball(2, 1.0))
        lmo = wrap_counting(nan_lmo, counters)
        with pytest.raises(NumericalError, match="Wolfe gap is NaN"):
            fw_quadratic_projection(np.ones(2), np.zeros(2), lmo, wolfe_tol=1e-3)
        assert counters.lmo_calls == 1

    @pytest.mark.parametrize("mode", [{"budget": 5}, {"wolfe_tol": 1e-3}])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_is_rejected(self, mode, bad):
        counters = OracleCounters()
        lmo = wrap_counting(LinearMinimizationOracle.from_set(l1_ball(2, 1.0)), counters)
        with pytest.raises(NumericalError, match="target is not finite"):
            fw_quadratic_projection(np.array([0.5, bad]), np.zeros(2), lmo, **mode)
        assert counters.lmo_calls == 0

    def test_wolfe_mode_fails_past_the_step_limit(self, monkeypatch):
        monkeypatch.setattr(nsopt.solvers, "FW_MAX_STEPS", 3)
        counters = OracleCounters()
        lmo = wrap_counting(LinearMinimizationOracle.from_set(l1_ball(2, 1.0)), counters)
        with pytest.raises(NumericalError, match="within 3 steps"):
            fw_quadratic_projection(np.array([2.0, 1.5]), np.zeros(2), lmo, wolfe_tol=1e-12)
        assert counters.lmo_calls == 4

    def test_mode_validation(self):
        sd = l1_ball(2, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        with pytest.raises(ValueError):
            fw_quadratic_projection(np.zeros(2), np.zeros(2), lmo)
        with pytest.raises(ValueError):
            fw_quadratic_projection(np.zeros(2), np.zeros(2), lmo, budget=0)


def allocating_prox_slide(sfo, g, u0, beta, iterations, radius, rng):
    """``prox_slide`` with one new array per operation, the form its in-place
    update and blocked average must equal bit for bit: the shifted update,
    then the weighted sum of each block of ``_AVERAGE_BLOCK // d`` iterates
    added in as one product.  Also returns how many steps clipped."""
    u = np.array(u0, dtype=float, copy=True)
    target = u0 - g / beta
    w = u - target
    radius_sq = radius * radius
    clips = 0
    iterates = []
    for t in range(1, iterations + 1):
        ghat = sfo.sample(u, rng)
        w = (t / (t + 2.0)) * w - ghat * (1.0 / ((1.0 + 0.5 * t) * beta))
        u = w + target
        nrm_sq = float(u @ u)
        if nrm_sq > radius_sq:
            u = u * (radius / math.sqrt(nrm_sq))
            w = u - target
            clips += 1
        iterates.append(u)
    rows = max(1, nsopt.solvers._AVERAGE_BLOCK // u.size)
    total = np.zeros_like(u)
    for start in range(0, iterations, rows):
        block = np.array(iterates[start:start + rows])
        total = total + np.arange(start + 2, start + len(block) + 2, dtype=float) @ block
    return u, total * (2.0 / (iterations * (iterations + 3))), clips


def allocating_fw_projection(target, u0, lmo, budget=None, beta=1.0, wolfe_tol=None):
    """``fw_quadratic_projection`` with one new array per operation and a
    dense vertex per step: ``P_t = P_{t-1} + 2t s_t``, with the LMO queried
    at ``P_{t-1} - (t-1)t target`` (``u0 - target`` at step 1)."""
    total = np.zeros(np.shape(u0))
    t = 1
    while True:
        query = u0 - target if t == 1 else total - (t - 1) * t * target
        index, value = lmo.minimize(query)
        s = np.zeros(np.shape(u0))
        s[index] = value
        if wolfe_tol is not None:
            u = np.array(u0, dtype=float) if t == 1 else total / ((t - 1) * t)
            if beta * float((u - target) @ (u - s)) <= wolfe_tol:
                return u
        total = total + 2.0 * t * s
        if t == budget:
            return total / (t * (t + 1))
        t += 1


def assert_same_bits(got, expected):
    assert np.array_equal(got, expected)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestInPlaceInnerLoops:
    """``prox_slide`` and ``fw_quadratic_projection`` reuse their buffers and
    still give the bits of their allocating forms, leaving inputs alone."""

    # d=1 with 5000 steps and d=100 with 100 steps fill more than one block
    # of the average (4096 and 40 rows)
    @pytest.mark.parametrize("oracle", ["fo", "sfo"])
    @pytest.mark.parametrize("iterations, d", [(i, d) for d in (1, 20, 100) for i in (1, 2, 50)]
                             + [(5000, 1), (100, 100)])
    @pytest.mark.parametrize("clip", [True, False])
    def test_prox_slide_matches_allocating_form(self, oracle, d, iterations, clip):
        gen = philox((d, iterations))
        if oracle == "fo":
            inst = synth_piecewise_linear(d, 12, d)
            data = inst.slopes
            sampler = FoSampler(FirstOrderOracle.from_instance(inst))
        else:
            inst = HingeSvmInstance(synth_hinge_data(30, d, d))
            data = inst.rows
            sampler = minibatch_sfo(inst, 4)
        data_before = data.copy()
        u0 = gen.uniform(-1.0, 1.0, d) / d
        # a gradient far larger than beta * radius drives the first steps
        # onto the clip; a radius of 1e6 is never reached
        g = gen.standard_normal(d) * (50.0 if clip else 0.1)
        u0_before, g_before = u0.copy(), g.copy()
        radius = 0.5 if clip else 1e6
        expected_last, expected_avg, clips = allocating_prox_slide(
            sampler, g, u0, 2.0, iterations, radius, philox(7))
        assert (clips > 0) == clip
        last, avg = prox_slide(sampler, g, u0, 2.0, iterations, radius, philox(7))
        assert_same_bits(last, expected_last)
        assert_same_bits(avg, expected_avg)
        assert_same_bits(u0, u0_before)
        assert_same_bits(g, g_before)
        assert_same_bits(data, data_before)

    # budgets 1 and 2 are the exits where one loop for both stopping rules
    # would most likely be off by one step
    STOPS = {"budget": {"budget": 40}, "budget1": {"budget": 1}, "budget2": {"budget": 2},
             "wolfe": {"beta": 2.0, "wolfe_tol": 1e-3}}

    @pytest.mark.parametrize("mode", list(STOPS))
    @pytest.mark.parametrize("kind", ["l1", "nuclear", "l1_d1"])
    def test_fw_projection_matches_allocating_form(self, mode, kind):
        gen = philox(11)
        sd = {"l1": l1_ball(20, 1.0), "nuclear": nuclear_ball(4, 4, 1.0),
              "l1_d1": l1_ball(1, 1.0)}[kind]
        kwargs = self.STOPS[mode]
        for _ in range(5):
            if sd.dim > 1:
                target = gen.standard_normal(sd.dim) * 1.5
            else:
                # inside the segment, so that the Wolfe gap at the boundary
                # start is positive and the projection takes steps
                target = gen.uniform(-0.9, 0.9, 1)
            u0 = sd.boundary_point(gen)
            u0_before, target_before = u0.copy(), target.copy()
            counts = []
            outputs = []
            for project in (allocating_fw_projection, fw_quadratic_projection):
                counters = OracleCounters()
                lmo = wrap_counting(LinearMinimizationOracle.from_set(sd), counters)
                outputs.append(project(target, u0, lmo, **kwargs))
                counts.append(counters.lmo_calls)
            assert counts[0] == counts[1] == kwargs.get("budget", counts[1])
            if mode == "wolfe":
                assert counts[1] > 1
            assert_same_bits(outputs[1], outputs[0])
            assert_same_bits(u0, u0_before)
            assert_same_bits(target, target_before)


class TestMopes:
    def test_one_dimensional_accuracy_and_accounting(self):
        inst, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        cfg = SolverConfig.from_target(0.05, 1.0, sd.diameter, method="mopes",
                                       dist_estimate=0.5, domain_radius=2.0, seed=1)
        recorder = RecordingProblem(inst)
        res = mopes(recorder, fo, po, cfg, np.array([1.0]))
        assert res.trace.values[-1, 0] <= 0.05
        assert res.counters.po_calls == cfg.outer_steps
        assert res.counters.fo_calls == sum_inner_steps(cfg)
        assert res.trace.counts[:, 3].tolist() == list(range(1, cfg.outer_steps + 1))
        assert len(recorder.points) == cfg.outer_steps
        for x in recorder.points:
            assert sd.membership_residual(x) <= 1e-8

    @staticmethod
    def run_on_abs_problem(solver, x0, po_as_subgradient_oracle=False):
        """Run ``solver`` on ``abs_problem`` from ``x0``, with the set's PO
        in place of the FO if asked."""
        inst, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        lmo = LinearMinimizationOracle.from_set(sd)
        oracle = po if po_as_subgradient_oracle else fo
        x0 = np.array([x0])
        return {
            "mopes": lambda: mopes(inst, oracle, po, SolverConfig.from_target(
                0.2, 1.0, sd.diameter, method="mopes"), x0),
            "moles": lambda: moles(inst, oracle, lmo, SolverConfig.from_target(
                0.2, 1.0, sd.diameter, method="moles"), x0),
            "pgd": lambda: pgd(inst, oracle, po, x0, 10, 1.0, sd.diameter),
            "fw_pgd": lambda: fw_pgd(inst, oracle, lmo, x0, 10, 1.0, 0.0, sd.diameter),
        }[solver]()

    @pytest.mark.parametrize("solver", ["mopes", "moles", "pgd", "fw_pgd"])
    def test_rejects_infeasible_start(self, solver):
        with pytest.raises(ValueError, match="not in the constraint set"):
            self.run_on_abs_problem(solver, 2.0)

    @pytest.mark.parametrize("solver", ["mopes", "moles", "pgd", "fw_pgd"])
    def test_rejects_a_set_oracle_as_subgradient_oracle(self, solver):
        with pytest.raises(TypeError, match="FirstOrderOracle"):
            self.run_on_abs_problem(solver, 0.5, po_as_subgradient_oracle=True)


class TestNonFiniteValues:
    def mopes_config(self, sd):
        return SolverConfig.from_target(0.3, 1.0, sd.diameter, method="mopes",
                                        dist_estimate=0.5, domain_radius=2.0, seed=1)

    def test_mopes_raises_on_nan_subgradients(self):
        inst, _, sd = abs_problem(0.6)
        nan_fo = FirstOrderOracle(lambda x: (math.nan, np.full_like(x, math.nan)), 1.0)
        po = ProjectionOracle.from_set(sd)
        with pytest.raises(NumericalError, match=r"prox_slide: .* at inner step 1 is not finite"):
            mopes(inst, nan_fo, po, self.mopes_config(sd), np.array([1.0]))

    def test_moles_raises_on_nan_subgradients(self):
        inst, _, sd = abs_problem(0.6)
        nan_fo = FirstOrderOracle(lambda x: (0.0, np.full_like(x, math.nan)), 1.0)
        counters = OracleCounters()
        lmo = wrap_counting(LinearMinimizationOracle.from_set(sd), counters)
        cfg = SolverConfig.from_target(0.3, 1.0, sd.diameter, method="moles",
                                       dist_estimate=0.5, domain_radius=2.0, seed=1)
        with pytest.raises(NumericalError, match=r"prox_slide: .* at inner step 1 is not finite"):
            moles(inst, nan_fo, lmo, cfg, np.array([1.0]))
        assert counters.lmo_calls == cfg.fw_budget  # the first outer step's projection

    def test_mopes_raises_on_nan_objective(self):
        # finite subgradients, so the non-finite value reaches the trace
        inst = AbsoluteValueInstance(np.array([math.nan]))
        _, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        with pytest.raises(NumericalError, match=r"at step 1 is not finite \(f_value = nan"):
            mopes(inst, fo, po, self.mopes_config(sd), np.array([1.0]))

    @pytest.mark.parametrize("oracle", [
        StochasticFirstOrderOracle(lambda x, rng: np.full_like(x, math.nan), 1.0),
        FirstOrderOracle(lambda x: (0.5, np.full_like(x, math.nan)), 1.0),
    ], ids=["stochastic", "deterministic"])
    def test_budget_fw_pgd_raises_on_nan_subgradients(self, oracle):
        inst, _, sd = abs_problem(0.6)
        counters = OracleCounters()
        lmo = wrap_counting(LinearMinimizationOracle.from_set(sd), counters)
        with pytest.raises(NumericalError, match="Frank-Wolfe projection: the target is not finite"):
            fw_pgd(inst, oracle, lmo, np.array([1.0]), 10, 1.0, 0.0, sd.diameter)
        assert counters.lmo_calls == 0

    def test_pgd_on_an_l2_ball_raises_at_its_first_projection(self):
        inst, _, _ = abs_problem(0.6)
        nan_fo = FirstOrderOracle(lambda x: (0.5, np.full_like(x, math.nan)), 1.0)
        projected = []
        with pytest.raises(NumericalError, match="l2-ball projection of a non-finite point"):
            pgd(inst, nan_fo, recording_po(l2_ball(1, 1.0), projected), np.array([1.0]),
                10, 1.0, 2.0)
        assert projected == []  # the first projection raised


class TestMoles:
    @pytest.mark.slow
    def test_one_dimensional_accuracy_and_accounting(self):
        inst, fo, sd = abs_problem(0.6)
        lmo = LinearMinimizationOracle.from_set(sd)
        cfg = SolverConfig.from_target(0.05, 1.0, sd.diameter, method="moles",
                                       dist_estimate=1.0, domain_radius=2.0, seed=1)
        recorder = RecordingProblem(inst)
        res = moles(recorder, fo, lmo, cfg, np.array([1.0]))
        assert res.trace.values[-1, 0] <= 0.05
        assert res.counters.lmo_calls == cfg.outer_steps * cfg.fw_budget
        assert len(recorder.points) == cfg.outer_steps
        for x in recorder.points:
            assert sd.membership_residual(x) <= 1e-8

    def test_wolfe_stopping_mode(self):
        inst, fo, sd = abs_problem(0.2)
        lmo = LinearMinimizationOracle.from_set(sd)
        cfg = SolverConfig.from_target(0.2, 1.0, sd.diameter, method="moles",
                                       dist_estimate=0.8, domain_radius=2.0, seed=1,
                                       projection_mode="wolfe")
        res = moles(inst, fo, lmo, cfg, np.array([-1.0]))
        assert res.trace.values[-1, 0] <= 0.2
        budget_cfg = SolverConfig.from_target(0.2, 1.0, sd.diameter, method="moles",
                                              dist_estimate=0.8, domain_radius=2.0, seed=1)
        assert res.counters.lmo_calls != budget_cfg.outer_steps * budget_cfg.fw_budget


class TestGenericLoop:
    def test_convergence_bound_with_exact_projection(self):
        # gap <= (10 dist^2 + 8 d_tilde) / (lam K (K+1)) + G^2 lam / 2
        inst, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        x0 = np.array([1.0])
        dist_sq = 0.4 ** 2
        for lam, total in ((0.05, 80), (0.2, 30)):
            cfg = SolverConfig(lam=lam, outer_steps=total, d_tilde=1.0,
                               lipschitz=1.0, set_diameter=2.0, domain_radius=2.0, seed=0)
            res = mopes(inst, fo, po, cfg, x0)
            bound = (10.0 * dist_sq + 8.0 * cfg.d_tilde) / (lam * total * (total + 1)) \
                + lam / 2.0
            assert res.trace.values[-1, 0] <= bound + 1e-12


class TestPgd:
    def test_classical_rate_and_accounting(self):
        inst = AbsoluteValueInstance(np.array([0.0]))
        fo = FirstOrderOracle.from_instance(inst)
        sd = l1_ball(1, 1.0)
        po = ProjectionOracle.from_set(sd)
        steps = 10 ** 4
        res = pgd(inst, fo, po, np.array([1.0]), steps, 1.0, sd.diameter,
                  stepsize_rule="fixed")
        assert inst.value(res.x) <= 2.0 * 1.0 * sd.diameter / math.sqrt(steps)
        assert res.counters.po_calls == steps
        assert res.counters.fo_calls == steps

    def test_minimizer_is_fixed_point(self):
        inst = AbsoluteValueInstance(np.array([0.0]))
        fo = FirstOrderOracle.from_instance(inst)
        iterates = []
        po = recording_po(l1_ball(1, 1.0), iterates)
        pgd(inst, fo, po, np.array([0.0]), 200, 1.0, 2.0, stepsize_rule="diminishing")
        assert len(iterates) == 200
        assert all(float(x[0]) == 0.0 for x in iterates)

    def test_feasibility_of_iterates(self, rng):
        inst = synth_piecewise_linear(5, 4, 3)
        fo = FirstOrderOracle.from_instance(inst)
        sd = l1_ball(5, 1.0)
        iterates = []
        pgd(inst, fo, recording_po(sd, iterates), sd.boundary_point(rng), 500, 1.0,
            sd.diameter)
        assert len(iterates) == 500
        for x in iterates:
            assert sd.membership_residual(x) <= 1e-8

    def test_nan_subgradient_is_a_numerical_error(self):
        inst = AbsoluteValueInstance(np.array([math.nan]))
        fo = FirstOrderOracle.from_instance(inst)
        po = ProjectionOracle.from_set(l1_ball(1, 1.0))
        with pytest.raises(NumericalError, match="non-finite"):
            pgd(inst, fo, po, np.array([0.5]), 10, 1.0, 2.0)

    def test_invalid_arguments(self):
        inst, fo, sd = abs_problem(0.0)
        po = ProjectionOracle.from_set(sd)
        with pytest.raises(ValueError):
            pgd(inst, fo, po, np.array([0.0]), 0, 1.0, 2.0)
        with pytest.raises(ValueError):
            pgd(inst, fo, po, np.array([0.0]), 10, 1.0, 2.0, stepsize_rule="warm")


class TestFwPgd:
    def test_default_stepsize_formula(self):
        # D = 2, G = 1, sigma = 0, K = 4 -> alpha = 0.5
        assert 2.0 / (2.0 * math.sqrt(1.0) * math.sqrt(4)) == 0.5

    @pytest.mark.parametrize("steps", [3, 4, 6])
    def test_exact_lmo_budget(self, steps):
        inst = AbsoluteValueInstance(np.array([0.0]))
        fo = FirstOrderOracle.from_instance(inst)
        lmo = LinearMinimizationOracle.from_set(l1_ball(1, 1.0))
        res = fw_pgd(inst, fo, lmo, np.array([1.0]), steps, 1.0, 0.0, 2.0)
        # steps - 1 projections of 28 * steps + 1 calls feed the returned average
        assert res.counters.lmo_calls == (steps - 1) * (28 * steps + 1)
        assert res.counters.fo_calls == steps

    def test_invalid_arguments(self):
        inst, fo, sd = abs_problem(0.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        for kwargs in ({"steps": 0}, {"steps": 4, "mode": "exact"}):
            with pytest.raises(ValueError):
                fw_pgd(inst, fo, lmo, np.array([0.0]), lipschitz=1.0, sigma=0.0,
                       set_diameter=2.0, **kwargs)

    def test_average_iterate_rate(self):
        inst = AbsoluteValueInstance(np.array([0.0]))
        fo = FirstOrderOracle.from_instance(inst)
        lmo = LinearMinimizationOracle.from_set(l1_ball(1, 1.0))
        steps = 64
        res = fw_pgd(inst, fo, lmo, np.array([1.0]), steps, 1.0, 0.0, 2.0)
        assert inst.value(res.x) <= 2.0 * math.sqrt(1.0) * 2.0 / math.sqrt(steps)

    def test_wolfe_mode_converges(self):
        inst = AbsoluteValueInstance(np.array([0.0]))
        fo = FirstOrderOracle.from_instance(inst)
        lmo = LinearMinimizationOracle.from_set(l1_ball(1, 1.0))
        res = fw_pgd(inst, fo, lmo, np.array([1.0]), 64, 1.0, 0.0, 2.0, mode="wolfe")
        assert inst.value(res.x) <= 0.5
        assert res.counters.fo_calls == 64

    def test_feasibility_of_iterates(self, rng, monkeypatch):
        iterates = []

        def recording_projection(*args, **kwargs):
            iterates.append(fw_quadratic_projection(*args, **kwargs))
            return iterates[-1]

        monkeypatch.setattr(nsopt.solvers, "fw_quadratic_projection", recording_projection)
        inst = synth_piecewise_linear(5, 4, 3)
        fo = FirstOrderOracle.from_instance(inst)
        sd = l1_ball(5, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        fw_pgd(inst, fo, lmo, sd.boundary_point(rng), 20, 1.0, 0.0, sd.diameter)
        assert len(iterates) == 19  # the last step's iterate is never averaged
        for x in iterates:
            assert sd.membership_residual(x) <= 1e-8

    def test_trace_follows_the_returned_average(self, rng):
        inst = synth_piecewise_linear(5, 4, 3)
        fo = FirstOrderOracle.from_instance(inst)
        sd = l1_ball(5, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        x0 = sd.boundary_point(rng)
        res = fw_pgd(inst, fo, lmo, x0, 20, 1.0, 0.0, sd.diameter)
        assert res.trace.values[-1, 0] == inst.value(res.x)
        assert res.trace.values[0, 0] == pytest.approx(inst.value(x0), rel=1e-12)
        # a run stopped by its LMO cap ends on a row for the point it returns
        capped = fw_pgd(inst, fo, lmo, x0, 20, 1.0, 0.0, sd.diameter, max_lmo=1)
        assert capped.trace.counts[:, 0].tolist() == [1, 2]
        assert capped.trace.values[-1, 0] == inst.value(capped.x)

    def test_target_gap_stops_at_the_first_row_within_it(self, rng):
        inst = synth_piecewise_linear(5, 4, 3)
        fo = FirstOrderOracle.from_instance(inst)
        sd = l1_ball(5, 1.0)
        lmo = LinearMinimizationOracle.from_set(sd)
        x0 = sd.boundary_point(rng)
        full = fw_pgd(inst, fo, lmo, x0, 20, 1.0, 0.0, sd.diameter)
        f_ref, target_gap = 0.05, 0.04
        gaps = full.trace.values[:, 0] - f_ref
        stop = int(np.flatnonzero(gaps <= target_gap)[0])
        assert 0 < stop < 19
        stopped = fw_pgd(inst, fo, lmo, x0, 20, 1.0, 0.0, sd.diameter, f_ref=f_ref,
                         target_gap=target_gap)
        assert np.array_equal(stopped.trace.counts, full.trace.counts[:stop + 1])
        with pytest.raises(ValueError, match="f_ref"):
            fw_pgd(inst, fo, lmo, x0, 20, 1.0, 0.0, sd.diameter, target_gap=target_gap)


class TestDeterminismAndTraces:
    def test_identical_seeds_identical_traces(self):
        svm = HingeSvmInstance(synth_hinge_data(30, 5, 17))
        sfo = minibatch_sfo(svm, 3)
        sd = l1_ball(5, 1.0)
        po = ProjectionOracle.from_set(sd)
        cfg = SolverConfig.from_target(0.3, svm.lipschitz_bound, sd.diameter,
                                       method="mopes", dist_estimate=1.0,
                                       sigma=math.sqrt(sfo.variance_bound), seed=11)
        x0 = sd.boundary_point(philox(123))
        a = mopes(svm, sfo, po, cfg, x0)
        b = mopes(svm, sfo, po, cfg, x0)
        assert np.array_equal(a.trace.counts, b.trace.counts)
        assert np.array_equal(a.trace.values[:, 0], b.trace.values[:, 0])
        assert np.array_equal(a.x, b.x)
        assert [*format_bodies(a.trace.columns(0.0, False))] == \
            [*format_bodies(b.trace.columns(0.0, False))]

    def test_counters_match_final_row(self):
        # no oracle call is spent after the row that reports the returned point,
        # and a baseline writes one row per step
        inst, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        lmo = LinearMinimizationOracle.from_set(sd)
        x0 = np.array([1.0])

        def config(method, mode="budget"):
            return SolverConfig.from_target(0.3, 1.0, sd.diameter, method=method,
                                            dist_estimate=0.5, domain_radius=2.0, seed=3,
                                            projection_mode=mode)

        runs = [
            mopes(inst, fo, po, config("mopes"), x0),
            moles(inst, fo, lmo, config("moles"), x0),
            moles(inst, fo, lmo, config("moles", "wolfe"), x0),
            pgd(inst, fo, po, x0, 50, 1.0, 2.0),
            fw_pgd(inst, fo, lmo, x0, 8, 1.0, 0.0, 2.0),
            fw_pgd(inst, fo, lmo, x0, 8, 1.0, 0.0, 2.0, mode="wolfe"),
            fw_pgd(inst, fo, lmo, x0, 8, 1.0, 0.0, 2.0, max_lmo=300),
        ]
        for res in runs:
            assert res.counters.as_tuple() == tuple(res.trace.counts[-1, 1:].tolist())
        for res, steps in zip(runs[3:6], (50, 8, 8)):
            assert res.trace.counts[:, 0].tolist() == list(range(1, steps + 1))
        # each projection takes 28 * 8 + 1 = 225 LMO calls: the cap of 300 is
        # first reached by the row of step 3, after two projections
        capped = runs[-1]
        assert capped.trace.counts[:, [0, 4]].tolist() == [[1, 0], [2, 225], [3, 450]]
        assert capped.trace.values[-1, 0] == inst.value(capped.x)

    def test_csv_schema(self, tmp_path):
        inst, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        cfg = SolverConfig.from_target(0.3, 1.0, sd.diameter, method="mopes",
                                       dist_estimate=0.5, domain_radius=2.0, seed=2)
        res = mopes(inst, fo, po, cfg, np.array([1.0]))
        path = tmp_path / "trace.csv"
        res.trace.write_csv(path, "mopes|eps=0.3", 2, 0.0)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == cfg.outer_steps + 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 10
            assert fields[0] == "mopes|eps=0.3" and fields[-1] == "2"
            assert all(np.isfinite(float(v)) for v in fields[1:])
            assert float(fields[8]) == 0.0  # deterministic placeholder
        timed = format_bodies(res.trace.columns(0.0))
        assert any(float(body.split(",")[8]) > 0.0 for body in timed)

    def test_columns_are_the_numeric_csv_fields(self):
        # the gap is f_value - f_ref, the same float operation as in a file
        trace = RunTrace.from_rows([(k, k, 2 * k, k, 0, 1.0 / k, 0.25 * k)
                                    for k in range(1, 6)])
        f_ref = 1.0 / 3.0
        columns = trace.columns(f_ref)
        assert len(columns) == len(CSV_HEADER.split(",")[1:-1])
        assert [column.dtype for column in columns] == [np.int64] * 5 + [float] * 3
        for row, body in zip(zip(*(column.tolist() for column in columns)),
                             format_bodies(columns)):
            assert tuple(float(field) for field in body.split(",")[1:-1]) == row
        assert columns[6].tolist() == [1.0 / k - f_ref for k in range(1, 6)]
        assert columns[7].tolist() == [0.25 * k for k in range(1, 6)]
        assert trace.columns(f_ref, wall_clock=False)[7].tolist() == [0.0] * 5

    def test_bodies_print_counts_as_their_type_and_floats_by_repr(self):
        trace = RunTrace.from_rows([(1, 3, 0, 1, 0, 0.1, 2.5), (2, 6, 0, 2, 10 ** 12, 1e-20, 7.0)])
        assert [*format_bodies(trace.columns(0.3, False))] == [
            ",1,3,0,1,0,0.1,-0.19999999999999998,0.0,",
            ",2,6,0,2,1000000000000,1e-20,-0.3,0.0,"]
        assert next(format_bodies(trace.columns(0.3))).endswith(",2.5,")
        # a mean's counts are floats
        mean = [np.array([1]), *np.array([[14.0, 0.0, 2.5, 0.0, 0.1, 0.2, 0.0]]).T]
        assert [*format_bodies(mean)] == [",1,14.0,0.0,2.5,0.0,0.1,0.2,0.0,"]

    def test_bodies_do_not_depend_on_the_block_size(self, monkeypatch):
        trace = RunTrace.from_rows([(k, k, 0, 2 * k, 0, 1.0 / k, 0.5) for k in range(1, 12)])
        whole = [*format_bodies(trace.columns(0.25))]
        monkeypatch.setattr(nsopt.solvers, "_FORMAT_BLOCK", 4)
        assert [*format_bodies(trace.columns(0.25))] == whole and len(whole) == 11

    def test_returned_trace_cannot_be_changed(self):
        inst, fo, sd = abs_problem(0.6)
        cfg = SolverConfig.from_target(0.3, 1.0, sd.diameter, method="mopes",
                                       dist_estimate=0.5, domain_radius=2.0, seed=2)
        trace = mopes(inst, fo, ProjectionOracle.from_set(sd), cfg, np.array([1.0])).trace
        assert trace.counts.shape == (cfg.outer_steps, 5) and trace.counts.dtype == np.int64
        assert trace.values.shape == (cfg.outer_steps, 2) and trace.values.dtype == float
        for block in (trace.counts, trace.values):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.counts = trace.counts.copy()

    def test_a_trace_retains_at_most_64_bytes_per_row(self, tmp_path):
        # Its two column blocks take 56 B per row; no per-row object outlives
        # the run, and no formatted row outlives a write.  What the trace
        # holds is what dropping it frees: the interpreter's free lists keep
        # some of the run's tuples either way.
        problem = HingeSvmInstance(synth_hinge_data(50, 5, 0))
        sd = l1_ball(5, 1.0)
        fo, po = FirstOrderOracle.from_instance(problem), ProjectionOracle.from_set(sd)
        steps = 20000
        tracemalloc.start()
        try:
            trace = pgd(problem, fo, po, sd.boundary_point(philox(0)), steps,
                        problem.lipschitz_bound, sd.diameter).trace
            assert len(trace.values) == steps
            traced = [tracemalloc.get_traced_memory()[0]]
            trace.write_csv(tmp_path / "pgd.csv", "pgd_fixed", 1, 0.0)
            traced.append(tracemalloc.get_traced_memory()[0])
            del trace
            held = [(size - tracemalloc.get_traced_memory()[0]) / steps for size in traced]
        finally:
            tracemalloc.stop()
        assert max(held) <= 64, f"the trace holds {held} B per row before and after its write"

    @staticmethod
    def tiny_pgd(steps: int):
        problem = HingeSvmInstance(synth_hinge_data(50, 5, 0))
        sd = l1_ball(5, 1.0)
        fo, po = FirstOrderOracle.from_instance(problem), ProjectionOracle.from_set(sd)
        return pgd(problem, fo, po, sd.boundary_point(philox(0)), steps,
                   problem.lipschitz_bound, sd.diameter).trace

    def test_a_running_trace_peaks_well_under_its_rows_as_tuples(self):
        # A 7-tuple per row takes about 264 B; the run keeps at most one block
        # of them, and its peak is the final join of the 56 B/row blocks.
        steps = 40000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trace = self.tiny_pgd(steps)
            peak = (tracemalloc.get_traced_memory()[1] - before) / steps
        finally:
            tracemalloc.stop()
        assert len(trace.values) == steps
        assert peak <= 150, f"the run peaks at {peak:.1f} B per row"

    def test_a_trace_does_not_depend_on_the_block_size(self, monkeypatch):
        whole = self.tiny_pgd(4097)
        monkeypatch.setattr(nsopt.solvers, "_FORMAT_BLOCK", 10)
        blocked = self.tiny_pgd(4097)
        assert blocked.counts.tobytes() == whole.counts.tobytes()
        assert blocked.values[:, 0].tobytes() == whole.values[:, 0].tobytes()
        assert not blocked.counts.flags.writeable and not blocked.values.flags.writeable

    def test_a_file_across_blocks_is_the_per_row_format(self, tmp_path):
        trace = self.tiny_pgd(4097)  # one row past a block of the trace and of the write
        path = tmp_path / "pgd.csv"
        trace.write_csv(path, "pgd_fixed", 7, 0.25)
        rows = [f"pgd_fixed,{k},{fo},{sfo},{po},{lmo},{f_value!r},{f_value - 0.25!r},0.0,7"
                for (k, fo, sfo, po, lmo), (f_value, _) in zip(trace.counts.tolist(),
                                                                 trace.values.tolist())]
        assert path.read_bytes() == "".join(f"{row}\n" for row in [CSV_HEADER, *rows]).encode()

    def test_a_write_failing_after_a_block_leaves_the_old_file(self, tmp_path, monkeypatch):
        trace = self.tiny_pgd(4097)
        bodies = [*format_bodies(trace.columns(0.0, False))]

        def bodies_then_failure(columns):
            yield from bodies[:nsopt.solvers._FORMAT_BLOCK + 1]
            raise OSError("disk full")

        monkeypatch.setattr(nsopt.solvers, "format_bodies", bodies_then_failure)
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier contents\n")
        with pytest.raises(OSError, match="disk full"):
            trace.write_csv(kept, "pgd_fixed", 1, 0.0)
        assert os.listdir(tmp_path) == ["kept.csv"]
        assert kept.read_text() == "earlier contents\n"

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        inst, fo, sd = abs_problem(0.6)
        po = ProjectionOracle.from_set(sd)
        cfg = SolverConfig.from_target(0.3, 1.0, sd.diameter, method="mopes",
                                       dist_estimate=0.5, domain_radius=2.0, seed=2)
        trace = mopes(inst, fo, po, cfg, np.array([1.0])).trace
        bodies = [*format_bodies(trace.columns(0.0, False))]

        def bodies_then_failure(columns):
            yield from bodies[:3]
            raise OSError("disk full")

        monkeypatch.setattr(nsopt.solvers, "format_bodies", bodies_then_failure)
        fresh = tmp_path / "fresh.csv"
        with pytest.raises(OSError, match="disk full"):
            trace.write_csv(fresh, "mopes", 2, 0.0)
        assert os.listdir(tmp_path) == []
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier contents\n")
        with pytest.raises(OSError, match="disk full"):
            trace.write_csv(kept, "mopes", 2, 0.0)
        assert os.listdir(tmp_path) == ["kept.csv"]
        assert kept.read_text() == "earlier contents\n"
