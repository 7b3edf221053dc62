"""Projection and LMO kernels against closed forms and independent oracles."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nsopt import (
    NumericalError,
    SetDescriptor,
    l1_ball,
    l2_ball,
    lmo_l1_ball,
    lmo_nuclear_ball,
    nuclear_ball,
    project_l1_ball,
    project_l2_ball,
    project_nuclear_ball,
)
from nsopt.geometry import lmo_l1_ball_atom
from conftest import exact_l1_projection, philox


def l1_vertices(d, radius):
    verts = []
    for i in range(d):
        for sign in (1.0, -1.0):
            v = np.zeros(d)
            v[i] = sign * radius
            verts.append(v)
    return verts


class TestL2Projection:
    def test_boundary_point_unchanged(self):
        assert_allclose(project_l2_ball(np.array([3.0, 4.0]), 5.0), [3.0, 4.0])

    def test_radial_scaling(self):
        assert_allclose(project_l2_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_center_fixed_point(self):
        assert_allclose(project_l2_ball(np.zeros(2), 0.7), [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_rejected(self, bad):
        with pytest.raises(NumericalError, match="non-finite"):
            project_l2_ball(np.array([0.1, bad]), 1.0)


class TestL1Projection:
    def test_interior_point_unchanged(self):
        assert_allclose(project_l1_ball(np.array([0.2, -0.3]), 1.0), [0.2, -0.3])

    def test_threshold_example(self):
        # KKT threshold is 2 here; cross-checked against the bisection oracle
        out = project_l1_ball(np.array([3.0, 1.0]), 1.0)
        assert_allclose(out, [1.0, 0.0], atol=1e-10)
        assert_allclose(out, exact_l1_projection(np.array([3.0, 1.0]), 1.0), atol=1e-10)

    def test_symmetric_active_set(self):
        out = project_l1_ball(np.array([2.0, 2.0]), 2.0)
        assert_allclose(out, [1.0, 1.0], atol=1e-10)
        assert_allclose(out, exact_l1_projection(np.array([2.0, 2.0]), 2.0), atol=1e-10)

    def test_matches_independent_oracle(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 9))
            r = float(rng.uniform(0.2, 3.0))
            x = rng.standard_normal(d) * rng.choice([0.3, 1.0, 4.0])
            assert_allclose(project_l1_ball(x, r), exact_l1_projection(x, r), atol=1e-8)


class TestNuclearProjection:
    def test_interior_unchanged(self):
        x = np.diag([0.3, 0.2])
        assert_allclose(project_nuclear_ball(x, 1.0), x)

    def test_reduces_to_l1_on_singular_values(self):
        assert_allclose(project_nuclear_ball(np.diag([3.0, 1.0]), 1.0),
                        np.diag([1.0, 0.0]), atol=1e-10)

    def test_feasible_and_dominates_monte_carlo(self, rng):
        x = rng.standard_normal((4, 3)) * 1.5
        r = 1.0
        p = project_nuclear_ball(x, r)
        assert np.linalg.svd(p, compute_uv=False).sum() <= r + 1e-8
        dist = np.linalg.norm(p - x)
        for _ in range(10 ** 4):
            y = rng.standard_normal((4, 3))
            nuc = np.linalg.svd(y, compute_uv=False).sum()
            y *= rng.uniform(0, 1) * r / nuc
            assert dist <= np.linalg.norm(y - x) + 1e-12


class TestL1Lmo:
    def test_brute_force_example(self):
        g = np.array([0.5, -2.0])
        s = lmo_l1_ball(g, 2.0)
        assert_allclose(s, [0.0, 2.0])
        best = min(float(g @ v) for v in l1_vertices(2, 2.0))
        assert float(g @ s) == best

    def test_zero_gradient_tie_break(self):
        assert_allclose(lmo_l1_ball(np.zeros(2), 1.0), [-1.0, 0.0])

    def test_magnitude_tie_lowest_index(self):
        assert_allclose(lmo_l1_ball(np.array([1.0, 1.0]), 1.0), [-1.0, 0.0])

    def test_exhaustive_vertex_search(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 11))
            r = float(rng.uniform(0.5, 2.0))
            g = rng.standard_normal(d)
            s = lmo_l1_ball(g, r)
            best = min(float(g @ v) for v in l1_vertices(d, r))
            assert float(g @ s) == pytest.approx(best, abs=1e-12)


class TestLmoAtoms:
    """An LMO answers ``(index, value)``: one coordinate on the l1 ball, the
    whole vertex on the others; the dense vertices are built from it."""

    def test_l1_ties_take_the_lowest_index(self):
        assert lmo_l1_ball_atom(np.array([0.5, -2.0, 2.0, -2.0]), 3.0) == (1, 3.0)
        assert lmo_l1_ball_atom(np.array([1.0, 1.0]), 1.0) == (0, -1.0)

    @pytest.mark.parametrize("g, expected", [(0.7, -2.0), (-0.7, 2.0)])
    def test_l1_sign_rule(self, g, expected):
        assert lmo_l1_ball_atom(np.array([0.1, g, -0.2]), 2.0) == (1, expected)

    @pytest.mark.parametrize("d", [1, 2, 20])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_l1_zero_direction(self, d, zero):
        # g_i >= 0 gives -radius, so sign(0) counts as +1, -0.0 included
        assert lmo_l1_ball_atom(np.full(d, zero), 1.5) == (0, -1.5)

    @pytest.mark.parametrize("descriptor", [l1_ball(7, 1.3), l1_ball(1, 0.5), l2_ball(5, 2.0),
                                            nuclear_ball(3, 4, 1.0)])
    def test_dense_vertex_is_built_from_the_atom(self, descriptor, rng):
        for g in [np.zeros(descriptor.dim), *(rng.standard_normal(descriptor.dim)
                                              for _ in range(50))]:
            index, value = descriptor.lmo_atom(g)
            if descriptor.kind == "l1_ball":
                assert isinstance(value, float) and 0 <= index < descriptor.dim
            else:
                assert index == slice(None) and value.shape == (descriptor.dim,)
            dense = np.zeros(descriptor.dim)
            dense[index] = value
            expected = self.dense_vertex(descriptor, g)
            assert dense.tobytes() == descriptor.lmo(g).tobytes() == expected.tobytes()
            if descriptor.kind == "l1_ball":
                assert dense.tobytes() == lmo_l1_ball(g, descriptor.radius).tobytes()

    @staticmethod
    def dense_vertex(descriptor, g):
        """Each set's vertex as its dense formula gives it."""
        r = descriptor.radius
        if descriptor.kind == "nuclear_ball":
            return lmo_nuclear_ball(g.reshape(descriptor.shape), r).ravel()
        s = np.zeros(descriptor.dim)
        if descriptor.kind == "l2_ball" and np.any(g):
            return -r / float(np.linalg.norm(g)) * g
        i = int(np.argmax(np.abs(g)))
        s[i] = -r if g[i] >= 0 else r
        return s


class TestNuclearLmo:
    def test_diagonal_example(self):
        s = lmo_nuclear_ball(np.diag([1.0, -3.0]), 1.0)
        assert_allclose(s, [[0.0, 0.0], [0.0, 1.0]], atol=1e-8)
        assert float((np.diag([1.0, -3.0]) * s).sum()) == pytest.approx(-3.0, abs=1e-8)

    def test_zero_matrix_is_deterministic(self):
        s1 = lmo_nuclear_ball(np.zeros((3, 2)), 0.5)
        s2 = lmo_nuclear_ball(np.zeros((3, 2)), 0.5)
        assert np.array_equal(s1, s2)
        assert np.linalg.svd(s1, compute_uv=False).sum() == pytest.approx(0.5)

    def test_monte_carlo_optimality(self, rng):
        g = rng.standard_normal((5, 4))
        r = 1.2
        s = lmo_nuclear_ball(g, r)
        val = float((g * s).sum())
        for _ in range(10 ** 3):
            u = rng.standard_normal(5)
            v = rng.standard_normal(4)
            cand = r * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
            assert val <= float((g * cand).sum()) + 1e-6


def assert_top_pair_vertex(g, radius):
    """The LMO output is a rank-1 point of nuclear norm ``radius`` whose
    inner product with ``g`` is ``-radius * sigma_max(g)``; the LMO raises
    no warning (an overflow in the Gram matrix would)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = lmo_nuclear_ball(g, radius)
    sv_g = np.linalg.svd(g, compute_uv=False)
    sv_s = np.linalg.svd(s, compute_uv=False)
    assert float((g * s).sum()) == pytest.approx(-radius * sv_g[0], rel=1e-12)
    assert sv_s[0] == pytest.approx(radius, rel=1e-12)
    assert sv_s[1:].sum() <= 1e-12 * radius
    return s


def with_spectrum(rng, shape, values):
    """A matrix of the given shape with the given leading singular values
    and random singular vectors."""
    m, p = shape
    k = len(values)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((p, k)))[0]
    return (u * values) @ v.T


class TestTopSingularPair:
    """The nuclear LMO's top singular pair, taken from the top eigenvector of
    the smaller Gram matrix of ``g / max|g|``."""

    def test_diagonal(self):
        s = assert_top_pair_vertex(np.diag([2.0, 5.0]), 0.7)
        assert_allclose(s, [[0.0, 0.0], [0.0, -0.7]], atol=1e-15)

    def test_antidiagonal(self):
        assert_top_pair_vertex(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)

    def test_matches_full_svd(self, rng):
        for _ in range(50):
            assert_top_pair_vertex(rng.standard_normal((6, 6)), float(rng.uniform(0.2, 3.0)))

    def test_zero_matrix_canonical_vertex(self):
        s = lmo_nuclear_ball(np.zeros((3, 3)), 2.0)
        expected = np.zeros((3, 3))
        expected[0, 0] = -2.0
        assert np.array_equal(s, expected)

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (30, 30)])
    def test_tall_wide_and_large(self, rng, shape):
        for _ in range(5):
            assert_top_pair_vertex(rng.standard_normal(shape), 1.3)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (40, 25), (25, 40)])
    def test_vector_and_rectangular_shapes(self, rng, shape):
        for _ in range(5):
            assert_top_pair_vertex(rng.standard_normal(shape), 1.3)

    # Unscaled, the Gram matrix loses the top pair to underflow at 1e-300
    # and overflows at 1e300; 1e-150 and 1e150 are the edge of the range
    # where its entries stay normal and finite.
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (6, 6), (40, 25), (25, 40)])
    def test_extreme_scales(self, rng, shape, scale):
        for _ in range(3):
            assert_top_pair_vertex(scale * rng.standard_normal(shape), 0.9)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("shape", [(6, 6), (7, 3), (3, 7)])
    def test_rank_one(self, rng, shape, scale):
        m, p = shape
        for _ in range(3):
            g = scale * np.outer(rng.standard_normal(m), rng.standard_normal(p))
            assert_top_pair_vertex(g, 1.1)

    def test_near_equal_leading_values(self):
        assert_top_pair_vertex(np.diag([1.0, 1.0 - 1e-12, 0.5]), 1.0)

    @pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-12, 1e-8])
    @pytest.mark.parametrize("shape", [(6, 6), (40, 25), (25, 40)])
    def test_near_tied_spectra(self, rng, shape, gap):
        for scale in (1e-300, 1.0, 1e300):
            g = with_spectrum(rng, shape, [1.0, 1.0 - gap, 1.0 - 2 * gap, 0.3])
            assert_top_pair_vertex(scale * g, 1.0)

    def test_calls_no_svd(self, rng, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the nuclear LMO called an SVD")

        g = rng.standard_normal((5, 4))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        s = lmo_nuclear_ball(g, 1.0)
        monkeypatch.undo()
        assert_allclose(s, assert_top_pair_vertex(g, 1.0), atol=1e-15)

    def test_independent_of_rng(self, rng):
        g = rng.standard_normal((5, 4))
        s1 = lmo_nuclear_ball(g, 1.0, 1e-10, 10000, philox(1))
        s2 = lmo_nuclear_ball(g, 1.0, 1e-3, 2, philox(2))
        assert s1.tobytes() == s2.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
class TestNonFiniteSvdInput:
    """LAPACK's SVD can spin without end on an inf entry and fails with a
    ``LinAlgError`` on NaN, so the SVD-backed kernels (the projection and
    the norm) reject both first; the LMO rejects both through its scale
    ``max|g|``, so no LAPACK call sees them."""

    def matrix(self, bad):
        x = np.eye(3)
        x[0, 0] = bad
        return x

    def test_projection(self, bad):
        with pytest.raises(NumericalError):
            project_nuclear_ball(self.matrix(bad), 1.0)

    def test_lmo(self, bad):
        with pytest.raises(NumericalError):
            lmo_nuclear_ball(self.matrix(bad), 1.0)

    def test_norm(self, bad):
        with pytest.raises(NumericalError):
            nuclear_ball(3, 3, 1.0).norm(self.matrix(bad).ravel())


@pytest.mark.parametrize("descriptor", [
    l2_ball(6, 1.3),
    l1_ball(6, 0.8),
    nuclear_ball(3, 2, 1.1),
])
class TestSetInvariants:
    def test_projection_feasible_and_idempotent(self, descriptor, rng):
        for _ in range(200):
            x = rng.standard_normal(descriptor.dim) * rng.choice([0.5, 2.0])
            p = descriptor.project(x)
            assert descriptor.membership_residual(p) <= 1e-8
            assert_allclose(descriptor.project(p), p, atol=1e-9)

    def test_projection_optimality_certificate(self, descriptor, rng):
        x = rng.standard_normal(descriptor.dim) * 2.0
        p = descriptor.project(x)
        for _ in range(1000):
            s = descriptor.project(rng.standard_normal(descriptor.dim) * 2.0)
            assert float((x - p) @ (s - p)) <= 1e-8

    def test_nonexpansive(self, descriptor, rng):
        for _ in range(1000):
            a = rng.standard_normal(descriptor.dim) * rng.choice([0.3, 1.0, 3.0])
            b = rng.standard_normal(descriptor.dim) * rng.choice([0.3, 1.0, 3.0])
            pa, pb = descriptor.project(a), descriptor.project(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_lmo_beats_feasible_samples(self, descriptor, rng):
        g = rng.standard_normal(descriptor.dim)
        s = descriptor.lmo(g)
        assert descriptor.membership_residual(s) <= 1e-8
        for _ in range(300):
            y = descriptor.project(rng.standard_normal(descriptor.dim) * 2.0)
            assert float(g @ s) <= float(g @ y) + 1e-6

    def test_diameter_and_enclosure(self, descriptor, rng):
        assert descriptor.diameter == 2.0 * descriptor.radius
        for _ in range(100):
            y = descriptor.boundary_point(rng)
            assert np.linalg.norm(y) <= descriptor.radius + 1e-9
            assert descriptor.norm(y) == pytest.approx(descriptor.radius, rel=1e-9)


@pytest.mark.parametrize("kind", SetDescriptor._KINDS)
def test_boundary_points_are_members_at_every_radius(kind, rng):
    shape = (3, 4) if kind == "nuclear_ball" else (10,)
    for radius in 10.0 ** np.arange(-6, 10):
        ball = SetDescriptor(kind, float(radius), shape)
        assert all(ball.contains(ball.boundary_point(rng)) for _ in range(200)), radius


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SetDescriptor("box", 1.0, (3,))
    with pytest.raises(ValueError):
        SetDescriptor("l1_ball", -1.0, (3,))
    with pytest.raises(ValueError):
        SetDescriptor("nuclear_ball", 1.0, (3,))
    with pytest.raises(ValueError):
        SetDescriptor("l2_ball", 1.0, (3, 2))
