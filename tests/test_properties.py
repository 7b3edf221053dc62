"""Property tests of the l1 and nuclear-ball kernels on their edge cases.

Inputs mix exact zeros and repeated magnitudes with general floats, at
dimension 1 (or 1x1) upward, and radii span 1e-6 to 1e6.  Every output must
be feasible to 1e-9 relative, and each LMO must reach the closed-form
minimum of the linear functional: ``-r * max|g_i|`` on the l1 ball and
``-r * sigma_max(g)`` on the nuclear ball.  Ties in the l1 LMO and in the
max-affine subgradient resolve to the lowest index.

A projection subtracts a threshold from entries of the input's size, so its
output carries a rounding error of a few ulps of the input norm; with an
input 1e9 times the radius that alone exceeds 1e-9 of the radius (seen:
5e-9 relative, which is 5e-18 of the input's l1 norm).  The projections are
therefore held to 1e-9 of the radius plus 1e-15 of the input norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nsopt import (
    PiecewiseLinearInstance,
    lmo_l1_ball,
    lmo_nuclear_ball,
    project_l1_ball,
    project_nuclear_ball,
)
from nsopt.errors import NumericalError
from conftest import exact_l1_projection

# Derandomized so that the suite tests the same examples on every run.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

radii = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
# Zeros and the values +-1, +-3 make exact magnitude ties common.
entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 3.0, -3.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
vectors = arrays(np.float64, st.integers(1, 8), elements=entries)
long_vectors = arrays(np.float64, st.integers(1, 64), elements=entries)
matrices = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=entries)


def sort_threshold_l1_projection(x, radius):
    """The sort-and-threshold l1 projection (Duchi et al. 2008), written with
    one temporary per operation; ``project_l1_ball`` must equal it bit for
    bit."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if a.sum() <= radius:
        return x.copy()
    s = np.sort(a)[::-1]
    cumulative = np.cumsum(s)
    counts = np.arange(1, x.size + 1)
    positive = np.nonzero(s - (cumulative - radius) / counts > 0)[0]
    if positive.size == 0:
        raise NumericalError("l1-ball projection of a non-finite point")
    rho = int(positive[-1])
    theta = (cumulative[rho] - radius) / (rho + 1)
    return np.sign(x) * np.maximum(a - theta, 0.0)


def nuclear_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def assert_projection_feasible(out_norm, radius, in_norm):
    assert out_norm <= radius * (1 + 1e-9) + 1e-15 * in_norm


@PROPERTY
@given(vectors, radii)
def test_lmo_l1_feasible_and_minimal(g, radius):
    s = lmo_l1_ball(g, radius)
    assert np.abs(s).sum() <= radius * (1 + 1e-9)
    assert float(g @ s) == pytest.approx(-radius * np.abs(g).max(), rel=1e-12)


@PROPERTY
@given(vectors, radii)
def test_project_l1_feasible_and_exact(x, radius):
    p = project_l1_ball(x, radius)
    assert_projection_feasible(np.abs(p).sum(), radius, np.abs(x).sum())
    scale = max(radius, float(np.abs(x).max()))
    np.testing.assert_allclose(p, exact_l1_projection(x, radius), atol=1e-9 * scale)


@PROPERTY
@given(long_vectors, radii)
def test_project_l1_bitwise_equals_sort_threshold_formula(x, radius):
    p = project_l1_ball(x, radius)
    expected = sort_threshold_l1_projection(x, radius)
    assert np.array_equal(p, expected)
    assert p.dtype == expected.dtype and p.tobytes() == expected.tobytes()


@PROPERTY
@given(matrices, radii)
def test_lmo_nuclear_feasible_and_minimal(g, radius):
    s = lmo_nuclear_ball(g, radius)
    assert nuclear_norm(s) <= radius * (1 + 1e-9)
    sigma_max = float(np.linalg.svd(g, compute_uv=False)[0])
    assert float((g * s).sum()) == pytest.approx(-radius * sigma_max, rel=1e-12)


@PROPERTY
@given(matrices, radii)
def test_project_nuclear_feasible(x, radius):
    p = project_nuclear_ball(x, radius)
    assert_projection_feasible(nuclear_norm(p), radius, nuclear_norm(x))


@PROPERTY
@given(vectors, radii)
def test_lmo_l1_ties_take_the_lowest_index(g, radius):
    magnitudes = np.abs(g)
    first = int(np.flatnonzero(magnitudes == magnitudes.max())[0])
    assert np.flatnonzero(lmo_l1_ball(g, radius)).tolist() == [first]


small_integers = st.sampled_from([0.0, 1.0, -1.0, 2.0])


@PROPERTY
@given(st.data())
def test_max_affine_ties_take_the_lowest_index(data):
    # Small integers make every score exact, so ties are exact ties.  The
    # last coordinate numbers the pieces and is zero in x, which keeps the
    # scores and tells the returned slope row apart from its tied rivals.
    pieces, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    slopes = data.draw(arrays(np.float64, (pieces, d), elements=small_integers))
    slopes = np.hstack([slopes, np.arange(pieces, dtype=float)[:, None]])
    intercepts = data.draw(arrays(np.float64, pieces, elements=small_integers))
    x = np.append(data.draw(arrays(np.float64, d, elements=small_integers)), 0.0)
    scores = [sum(w * v for w, v in zip(row, x)) + b for row, b in zip(slopes.tolist(), intercepts)]
    first = scores.index(max(scores))
    value, grad = PiecewiseLinearInstance(slopes, intercepts).value_and_subgradient(x)
    assert value == scores[first]
    assert np.array_equal(grad, slopes[first])
