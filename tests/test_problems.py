"""Problem instances: values, subgradients and certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nsopt import (
    AbsoluteValueInstance,
    HingeSvmInstance,
    MatrixSvmInstance,
    l1_ball,
    reference_optimum,
    synth_hinge_data,
    synth_piecewise_linear,
    PiecewiseLinearInstance,
)
from conftest import philox


class TestHinge:
    def test_zero_point_unit_loss(self, rng):
        inst = HingeSvmInstance(synth_hinge_data(12, 4, 0))
        value, grad = inst.value_and_subgradient(np.zeros(4))
        assert value == 1.0
        assert_allclose(grad, -inst.rows.mean(axis=0), atol=1e-15)

    def test_inactive_sample(self):
        inst = HingeSvmInstance(np.array([[2.0, 0.0]]))
        value, grad = inst.value_and_subgradient(np.array([1.0, 0.0]))
        assert value == 0.0
        assert_allclose(grad, [0.0, 0.0])

    def test_margin_exactly_one_contributes_zero(self):
        inst = HingeSvmInstance(np.array([[1.0, 0.0]]))
        _, grad = inst.value_and_subgradient(np.array([1.0, 0.0]))
        assert_allclose(grad, [0.0, 0.0])

    def test_dimension_mismatch(self):
        inst = HingeSvmInstance(synth_hinge_data(5, 3, 1))
        with pytest.raises(ValueError):
            inst.value_and_subgradient(np.zeros(4))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 20), (1000, 5), (30, 2, 3)])
    def test_value_and_fo_equal_the_mean_formula_bitwise(self, shape):
        gen = philox(len(shape) * 1000 + shape[0])
        data = gen.standard_normal(shape)
        inst = HingeSvmInstance(data) if len(shape) == 2 else MatrixSvmInstance(data)
        for _ in range(50):
            x = gen.standard_normal(inst.dim) * gen.uniform(0.01, 3.0)
            margins = 1.0 - inst.rows @ x
            expected = float(np.maximum(margins, 0.0).mean())
            expected_grad = -((margins > 0.0).astype(float) @ inst.rows) / shape[0]
            value, grad = inst.value_and_subgradient(x)
            assert inst.value(x) == expected and value == expected
            assert grad.tobytes() == expected_grad.tobytes()

    def test_batch_subgradient_equals_the_masked_mean_bitwise(self):
        gen = philox(31)
        rows = gen.standard_normal((40, 6))
        rows[:10, 0] = 1.0
        rows[:5, 1:] = 0.0
        e1 = np.eye(6)[0]
        assert np.all(rows[:10] @ e1 == 1.0)  # margin exactly 1: inactive by the tie rule
        inst = HingeSvmInstance(rows)
        points = [e1, np.full(6, np.nan), np.array([np.nan, *np.zeros(5)])]
        points += [gen.standard_normal(6) * scale for scale in (0.01, 0.3, 1.0, 3.0)]
        for x in points:
            for idx in [np.arange(10), *(gen.integers(0, 40, size=b) for b in (1, 3, 4, 40))]:
                sub = rows[idx]
                expected = -(((1.0 - sub @ x) > 0.0).astype(float) @ sub) / len(idx)
                assert inst.batch_subgradient(x, idx).tobytes() == expected.tobytes()


class TestMatrixHinge:
    def test_zero_matrix_unit_loss(self):
        inst = MatrixSvmInstance(synth_hinge_data(8, 6, 2).reshape(8, 2, 3))
        value, grad = inst.value_and_subgradient(np.zeros((2, 3)).ravel())
        assert value == 1.0
        assert grad.shape == (6,)

    def test_identity_sample_inactive(self):
        inst = MatrixSvmInstance(np.eye(2)[None, :, :])
        value, grad = inst.value_and_subgradient(np.eye(2).ravel())
        assert value == 0.0
        assert_allclose(grad, np.zeros(4))

    def test_subgradient_frobenius_bound(self, rng):
        mats = rng.standard_normal((10, 3, 2))
        inst = MatrixSvmInstance(mats)
        bound = np.linalg.norm(mats.reshape(10, -1), axis=1).mean()
        for _ in range(200):
            x = rng.standard_normal((3, 2))
            _, grad = inst.value_and_subgradient(x.ravel())
            assert np.linalg.norm(grad) <= bound + 1e-12

    def test_shape_mismatch(self):
        inst = MatrixSvmInstance(np.ones((4, 2, 2)))
        with pytest.raises(ValueError):
            inst.value_and_subgradient(np.ones(6))


class TestLipschitzBound:
    def test_piecewise_max_norm(self):
        inst = PiecewiseLinearInstance(np.array([[1.0, 0.0], [0.0, -2.0]]), np.zeros(2))
        assert inst.lipschitz_bound == 2.0

    def test_hinge_mean_norm(self):
        inst = HingeSvmInstance(np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert inst.lipschitz_bound == 3.0

    @pytest.mark.parametrize("make", [
        lambda: synth_piecewise_linear(6, 5, 10),
        lambda: HingeSvmInstance(synth_hinge_data(30, 6, 11)),
        lambda: AbsoluteValueInstance(np.full(6, 0.1)),
    ])
    def test_dominates_random_queries(self, make, rng):
        inst = make()
        bound = inst.lipschitz_bound
        for _ in range(10 ** 4):
            _, g = inst.value_and_subgradient(rng.uniform(-2, 2, inst.dim))
            assert np.linalg.norm(g) <= bound + 1e-12


class TestSynthPiecewiseLinear:
    def test_one_dimensional_absolute_value(self):
        inst = synth_piecewise_linear(1, 2, 3, anchor=np.array([0.4]))
        # centered, normalized slopes in 1-D are exactly +/-1
        assert sorted(inst.slopes.ravel()) == [-1.0, 1.0]
        for x in (-0.5, 0.0, 1.2):
            assert inst.value(np.array([x])) == pytest.approx(abs(x - 0.4), abs=1e-15)

    def test_certificate_matches_direct_evaluation(self):
        for seed in range(5):
            anchor = philox(seed).uniform(-0.3, 0.3, 4)
            inst = synth_piecewise_linear(4, 6, seed, anchor=anchor)
            assert inst.value(inst.minimizer) == inst.min_value

    def test_grid_search_finds_nothing_below_certificate(self):
        inst = synth_piecewise_linear(2, 5, 7, anchor=np.array([0.1, -0.2]))
        grid = np.linspace(-1.0, 1.0, 1000)
        xs, ys = np.meshgrid(grid, grid)
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        values = (pts @ inst.slopes.T + inst.intercepts).max(axis=1)
        assert values.min() >= inst.min_value - 1e-9

    def test_fo_buffer_leaves_returned_values_alone(self):
        # the scores live in one held buffer; the subgradient is a row of slopes
        inst = synth_piecewise_linear(6, 9, 2)
        slopes = inst.slopes.copy()
        gen = philox(5)
        for _ in range(200):
            x = gen.standard_normal(6) * gen.uniform(0.01, 3.0)
            value, grad = inst.value_and_subgradient(x)
            kept = grad.copy()
            inst.value_and_subgradient(gen.standard_normal(6))
            assert grad.tobytes() == kept.tobytes()
            assert np.float64(inst.value(x)).tobytes() == np.float64(value).tobytes()
            scores = slopes @ x + inst.intercepts
            assert value == float(scores.max())
            assert kept.tobytes() == slopes[scores.argmax()].tobytes()
        assert inst.slopes.tobytes() == slopes.tobytes()

    def test_needs_two_pieces(self):
        with pytest.raises(ValueError):
            synth_piecewise_linear(3, 1, 0)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_needs_a_dimension(self, dim):
        # an empty slope matrix never has a norm above the redraw threshold
        with pytest.raises(ValueError, match="dimension"):
            synth_piecewise_linear(dim, 4, 0)


@pytest.mark.parametrize("make", [
    lambda: synth_piecewise_linear(4, 5, 20),
    lambda: HingeSvmInstance(synth_hinge_data(25, 4, 21)),
    lambda: AbsoluteValueInstance(np.array([0.2, -0.1, 0.0, 0.3])),
])
def test_convexity_spot_check(make, rng):
    inst = make()
    for _ in range(1000):
        a = rng.uniform(-2, 2, inst.dim)
        b = rng.uniform(-2, 2, inst.dim)
        t = rng.uniform()
        assert inst.value(t * a + (1 - t) * b) <= \
            t * inst.value(a) + (1 - t) * inst.value(b) + 1e-12


@pytest.mark.slow
def test_recorded_minimum_matches_references():
    # d = 2: brute-force grid; larger d: long projected-subgradient reference.
    inst2 = synth_piecewise_linear(2, 5, 7, anchor=np.array([0.1, -0.2]))
    grid = np.linspace(-1.0, 1.0, 1000)
    xs, ys = np.meshgrid(grid, grid)
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    assert (pts @ inst2.slopes.T + inst2.intercepts).max(axis=1).min() \
        == pytest.approx(inst2.min_value, abs=1e-3)
    for dim, seed in ((2, 0), (35, 5)):
        gen = philox(seed + 500)
        anchor = gen.uniform(-1, 1, dim)
        anchor *= 0.3 / np.abs(anchor).sum()
        inst = synth_piecewise_linear(dim, 6, seed, anchor=anchor)
        ball = l1_ball(dim, 1.0)
        f_star, _ = reference_optimum(inst, ball, 10 ** 6)
        tol = 1e-4 * inst.lipschitz_bound * ball.diameter
        assert abs(f_star - inst.min_value) <= tol

