"""Problem instances: values, subgradients, certificates, and data loading."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nsopt import (
    AbsoluteValueInstance,
    FormatError,
    HingeSvmInstance,
    MatrixSvmInstance,
    l1_ball,
    load_dense_csv,
    reference_optimum,
    save_dense_csv,
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


class TestMatrixHinge:
    def test_zero_matrix_unit_loss(self):
        inst = MatrixSvmInstance(synth_hinge_data(8, 6, 2).reshape(8, 2, 3))
        value, grad = inst.matrix_value_and_subgradient(np.zeros((2, 3)))
        assert value == 1.0
        assert grad.shape == (2, 3)

    def test_identity_sample_inactive(self):
        inst = MatrixSvmInstance(np.eye(2)[None, :, :])
        value, grad = inst.matrix_value_and_subgradient(np.eye(2))
        assert value == 0.0
        assert_allclose(grad, np.zeros((2, 2)))

    def test_subgradient_frobenius_bound(self, rng):
        mats = rng.standard_normal((10, 3, 2))
        inst = MatrixSvmInstance(mats)
        bound = np.linalg.norm(mats.reshape(10, -1), axis=1).mean()
        for _ in range(200):
            x = rng.standard_normal((3, 2))
            _, grad = inst.matrix_value_and_subgradient(x)
            assert np.linalg.norm(grad) <= bound + 1e-12

    def test_shape_mismatch(self):
        inst = MatrixSvmInstance(np.ones((4, 2, 2)))
        with pytest.raises(ValueError):
            inst.matrix_value_and_subgradient(np.ones((3, 2)))


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

    def test_needs_two_pieces(self):
        with pytest.raises(ValueError):
            synth_piecewise_linear(3, 1, 0)


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


class TestDenseCsv:
    def test_label_folding(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0,1\n0,1,0\n")
        folded = load_dense_csv(str(path))
        assert_allclose(folded, [[1.0, 0.0], [-0.0, -1.0]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_dense_csv(str(path))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,1\n0.5,oops,0\n")
        with pytest.raises(FormatError, match="row 2, column 2"):
            load_dense_csv(str(path))

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0,1\n0,1,0\n")
        with pytest.raises(FormatError):
            load_dense_csv(str(path), shape=(3, 2))

    def test_bad_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,0.5,2\n")
        with pytest.raises(FormatError):
            load_dense_csv(str(path))

    def test_round_trip_full_precision(self, tmp_path, rng):
        features = rng.standard_normal((7, 3))
        labels = rng.integers(0, 2, size=7)
        path = tmp_path / "rt.csv"
        save_dense_csv(str(path), features, labels)
        folded = load_dense_csv(str(path))
        expected = features * (2.0 * labels - 1.0)[:, None]
        assert np.array_equal(folded, expected)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,0,1\n0,1\n")
        with pytest.raises(FormatError):
            load_dense_csv(str(path))
