"""Envelope machinery: the proximal subgradient solver, checked against
exact reference envelopes."""

import math

import numpy as np
import pytest

from nsopt import (
    AbsoluteValueInstance,
    FirstOrderOracle,
    OracleCounters,
    prox_subgradient,
    synth_piecewise_linear,
    wrap_counting,
)
from conftest import exact_abs_prox, exact_max_affine_prox, philox

RADIUS = 10.0  # enclosing-ball radius; tests stay in the interior region


def abs_oracle(anchor):
    return FirstOrderOracle.from_instance(AbsoluteValueInstance(np.atleast_1d(anchor)))


class TestProxSubgradient:
    def test_soft_threshold_limit(self):
        # prox of |.| at x = 2 with lam = 1 is 1; envelope value 1.5
        fo = abs_oracle(np.array([0.0]))
        iterations = 40000
        res = prox_subgradient(fo, np.array([2.0]), 1.0, iterations, RADIUS,
                               dist_estimate=1.0)
        gap_bound = 2.0 * 1.0 * 1.0 / math.sqrt(iterations)
        assert res.value == pytest.approx(1.5, abs=gap_bound + 1e-9)
        # strongly convex objective: distance^2 <= 2 lam * gap
        assert abs(res.point[0] - 1.0) <= math.sqrt(2.0 * gap_bound) + 1e-9

    def test_minimizer_is_fixed_point(self):
        fo = abs_oracle(np.array([0.3]))
        res = prox_subgradient(fo, np.array([0.3]), 1.0, 100, RADIUS)
        assert res.point[0] == pytest.approx(0.3, abs=1e-12)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_zone(self):
        # |x| <= lam: prox hits 0 and the envelope is x^2 / (2 lam)
        fo = abs_oracle(np.array([0.0]))
        res = prox_subgradient(fo, np.array([0.3]), 1.0, 40000, RADIUS,
                               dist_estimate=0.3)
        gap_bound = 2.0 * 0.3 / 200.0
        assert res.value == pytest.approx(0.045, abs=gap_bound + 1e-9)
        assert abs(res.point[0]) <= math.sqrt(2.0 * gap_bound) + 1e-9

    def test_call_accounting(self):
        counters = OracleCounters()
        fo = wrap_counting(abs_oracle(np.array([0.0])), counters)
        prox_subgradient(fo, np.array([1.0]), 0.5, 250, RADIUS)
        # 250 update steps plus the final envelope evaluation
        assert counters.fo_calls == 251

    def test_invalid_arguments(self):
        fo = abs_oracle(np.array([0.0]))
        with pytest.raises(ValueError):
            prox_subgradient(fo, np.array([1.0]), 0.0, 10, RADIUS)
        with pytest.raises(ValueError):
            prox_subgradient(fo, np.array([1.0]), 1.0, 0, RADIUS)


def reference_prox(instance, x, lam):
    if isinstance(instance, AbsoluteValueInstance):
        return exact_abs_prox(instance.anchor, x, lam)
    return exact_max_affine_prox(instance.slopes, instance.intercepts, x, lam)


@pytest.fixture(scope="module")
def envelope_cases():
    cases = [AbsoluteValueInstance(np.array([0.3]))]
    for seed in range(3):
        cases.append(synth_piecewise_linear(int(philox(seed).integers(2, 7)), 5, seed))
    return cases


class TestEnvelopeInvariants:
    def test_value_chain(self, envelope_cases, rng):
        # f(prox) <= envelope <= f(x), via exact reference envelopes
        for inst in envelope_cases:
            for _ in range(250):
                lam = float(rng.choice([0.01, 0.1, 1.0]))
                x = rng.uniform(-2, 2, inst.dim)
                point, value = reference_prox(inst, x, lam)
                assert inst.value(point) <= value + 1e-10
                assert value <= inst.value(x) + 1e-10

    def test_prox_distance_and_value_bounds(self, envelope_cases, rng):
        for inst in envelope_cases:
            bound = inst.lipschitz_bound
            for _ in range(250):
                lam = float(rng.choice([0.01, 0.1, 1.0]))
                x = rng.uniform(-2, 2, inst.dim)
                point, value = reference_prox(inst, x, lam)
                assert np.linalg.norm(point - x) <= bound * lam + 1e-9
                assert inst.value(x) <= value + bound ** 2 * lam / 2.0 + 1e-9

    def test_gradient_matches_finite_differences(self, envelope_cases, rng):
        step = 1e-6
        for inst in envelope_cases:
            for _ in range(10):
                lam = float(rng.choice([0.01, 0.1, 1.0]))
                x = rng.uniform(-1.5, 1.5, inst.dim)
                point, _ = reference_prox(inst, x, lam)
                grad = (x - point) / lam
                if np.linalg.norm(grad) < 1e-6:
                    continue
                for axis in rng.choice(inst.dim, size=min(3, inst.dim), replace=False):
                    e = np.zeros(inst.dim)
                    e[axis] = step
                    _, up = reference_prox(inst, x + e, lam)
                    _, down = reference_prox(inst, x - e, lam)
                    fd = (up - down) / (2.0 * step)
                    assert fd == pytest.approx(grad[axis],
                                               rel=1e-4, abs=1e-4 * np.linalg.norm(grad))

    def test_gradient_smoothness(self, envelope_cases, rng):
        for inst in envelope_cases:
            for _ in range(250):
                lam = float(rng.choice([0.01, 0.1, 1.0]))
                a = rng.uniform(-1.5, 1.5, inst.dim)
                b = rng.uniform(-1.5, 1.5, inst.dim)
                ga = (a - reference_prox(inst, a, lam)[0]) / lam
                gb = (b - reference_prox(inst, b, lam)[0]) / lam
                assert np.linalg.norm(ga - gb) <= np.linalg.norm(a - b) / lam + 1e-9

    def test_envelope_minimum_never_exceeds_function_minimum(self):
        # on a fine grid, min envelope <= min f, in one and two dimensions
        inst1 = AbsoluteValueInstance(np.array([0.25]))
        grid1 = np.linspace(-1, 1, 401)
        for lam in (0.1, 1.0):
            env = [reference_prox(inst1, np.array([t]), lam)[1] for t in grid1]
            fv = [inst1.value(np.array([t])) for t in grid1]
            assert min(env) <= min(fv) + 1e-12
        inst2 = synth_piecewise_linear(2, 4, 9)
        grid = np.linspace(-1, 1, 41)
        pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        for lam in (0.1, 1.0):
            env = [reference_prox(inst2, p, lam)[1] for p in pts]
            fv = [inst2.value(p) for p in pts]
            assert min(env) <= min(fv) + 1e-12

    def test_library_prox_meets_its_guarantee(self, envelope_cases, rng):
        # the subgradient inner solver lands within its own bound of the
        # exact envelope value
        for inst in envelope_cases:
            fo = FirstOrderOracle.from_instance(inst)
            for _ in range(5):
                lam = float(rng.choice([0.01, 0.1]))
                x = rng.uniform(-1.5, 1.5, inst.dim)
                _, exact_value = reference_prox(inst, x, lam)
                iterations = 4000
                res = prox_subgradient(fo, x, lam, iterations, RADIUS)
                gap_bound = 2.0 * fo.lipschitz_bound ** 2 * lam / math.sqrt(iterations)
                assert res.value <= exact_value + gap_bound + 1e-9
                assert res.value >= exact_value - 1e-9

