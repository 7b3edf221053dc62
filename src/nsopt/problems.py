"""Concrete nonsmooth convex objectives with certified Lipschitz bounds.

Every instance exposes ``value(x)``, ``value_and_subgradient(x)``, and a
``lipschitz_bound`` property valid on the whole ambient space.  Finite-sum
instances additionally expose ``n_terms``, ``batch_subgradient``, and
``term_norm_bound`` for minibatch stochastic oracles.

Subgradient tie-breaking is fixed so oracles are deterministic: the hinge
loss counts a term only when its margin is strictly below one, max-affine
objectives pick the lowest-index active piece, and the absolute value uses
``sign(0) = 0``.
"""

from __future__ import annotations

import numpy as np

from .oracles import _philox


class PiecewiseLinearInstance:
    """Max-affine objective ``f(x) = max_j <w_j, x> + b_j``.

    ``minimizer`` and ``min_value`` carry the construction certificate when
    the instance was generated around a known anchor.
    """

    def __init__(self, slopes: np.ndarray, intercepts: np.ndarray,
                 minimizer: np.ndarray | None = None,
                 min_value: float | None = None):
        self.slopes = np.asarray(slopes, dtype=float)
        self.intercepts = np.asarray(intercepts, dtype=float)
        if self.slopes.ndim != 2 or self.intercepts.shape != (self.slopes.shape[0],):
            raise ValueError("slopes must be (m, d) with matching intercepts (m,)")
        self.minimizer = None if minimizer is None else np.asarray(minimizer, dtype=float)
        self.min_value = min_value
        self._point_shape = (self.slopes.shape[1],)  # compared on every oracle call
        self._scores = np.empty(self.slopes.shape[0])  # the oracle's one buffer
        self._rows = list(self.slopes)

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    @property
    def lipschitz_bound(self) -> float:
        return float(np.linalg.norm(self.slopes, axis=1).max())

    def value(self, x: np.ndarray) -> float:
        return self.value_and_subgradient(x)[0]

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``(f(x), w_j)`` for the lowest-index active piece ``j``, ``w_j`` a
        view of a row of ``slopes`` that a later call leaves alone."""
        if x.shape != self._point_shape:
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        scores = np.dot(self.slopes, x, out=self._scores)
        scores += self.intercepts
        j = scores.argmax()  # the lowest index on ties, or the first NaN
        return scores.item(j), self._rows[j]


class AbsoluteValueInstance:
    """Coordinate-wise absolute deviation ``f(x) = sum_i |x_i - a_i|``.

    In one dimension this is ``|x - a|``; the subgradient uses
    ``sign(0) = 0`` so the minimizer is a fixed point of subgradient steps.
    """

    def __init__(self, anchor: np.ndarray):
        self.anchor = np.atleast_1d(np.asarray(anchor, dtype=float))

    @property
    def dim(self) -> int:
        return self.anchor.size

    @property
    def lipschitz_bound(self) -> float:
        return float(np.sqrt(self.dim))

    def value(self, x: np.ndarray) -> float:
        return float(np.add.reduce(np.abs(x - self.anchor)))

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        # add.reduce is the pairwise sum of .sum(), bit for bit, without its
        # Python-level dispatch
        diff = x - self.anchor
        return float(np.add.reduce(np.abs(diff))), np.sign(diff)


class HingeSvmInstance:
    """Average hinge loss over label-folded rows ``a_i``:
    ``f(x) = (1/n) sum_i max(0, 1 - <x, a_i>)``.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError("rows must be an (n, d) matrix")

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def n_terms(self) -> int:
        return self.rows.shape[0]

    @property
    def lipschitz_bound(self) -> float:
        return float(np.linalg.norm(self.rows, axis=1).mean())

    def term_norm_bound(self) -> float:
        return float(np.linalg.norm(self.rows, axis=1).max())

    def value(self, x: np.ndarray) -> float:
        # add.reduce / n is the pairwise sum and division of .mean(), bit for
        # bit, without its Python-level dispatch.
        margins = 1.0 - self.rows @ x
        return float(np.add.reduce(np.maximum(margins, 0.0, out=margins)) / margins.size)

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if x.shape != self.rows.shape[1:]:
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        margins = 1.0 - self.rows @ x
        # margin == 1 (i.e. 1 - <x, a_i> == 0) contributes zero by the tie rule
        active = (margins > 0.0).astype(float)
        n = margins.size
        value = float(np.add.reduce(np.maximum(margins, 0.0, out=margins)) / n)
        grad = active @ self.rows
        grad /= -n  # equals -(active @ rows) / n: IEEE rounding is sign-symmetric
        return value, grad

    def batch_subgradient(self, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
        rows = self.rows[indices]
        # m < 1 is 1 - m > 0 for every double, NaN included, and dividing by
        # -len in place equals negating first: IEEE rounding is sign-symmetric.
        grad = (rows @ x < 1.0).astype(float) @ rows
        grad /= -len(indices)
        return grad


class MatrixSvmInstance(HingeSvmInstance):
    """Hinge-loss matrix classifier ``f(X) = (1/n) sum_i max(0, 1 - b_i <X, A_i>)``.

    Labels are folded into the stored matrices (``b_i * A_i``).  The API,
    inherited from ``HingeSvmInstance`` over the flattened samples, works
    on vectors of length ``m * p``; ``shape`` is the matrix shape.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = np.asarray(mats, dtype=float)
        if self.mats.ndim != 3:
            raise ValueError("mats must be (n, m, p) with labels folded in")
        super().__init__(self.mats.reshape(self.mats.shape[0], -1))

    @property
    def shape(self) -> tuple[int, int]:
        return self.mats.shape[1], self.mats.shape[2]


def synth_piecewise_linear(dim: int, pieces: int, seed: int,
                           anchor: np.ndarray | None = None) -> PiecewiseLinearInstance:
    """Random max-affine instance with a known minimizer at ``anchor``.

    Slopes are sampled, centered so they sum to zero (placing zero in the
    convex hull of the active slopes), and rescaled so the largest slope
    norm is exactly one.  Intercepts make every piece pass through a common
    value at the anchor, so the anchor is a global minimizer and the
    recorded ``min_value`` is the evaluated objective there.
    """
    if dim < 1:
        raise ValueError("need a dimension of at least 1")
    if pieces < 2:
        raise ValueError("need at least 2 pieces")
    rng = _philox(seed)
    anchor = np.zeros(dim) if anchor is None else np.asarray(anchor, dtype=float)
    while True:
        slopes = rng.standard_normal((pieces, dim))
        slopes -= slopes.mean(axis=0)
        top = np.linalg.norm(slopes, axis=1).max()
        if top > 1e-8:
            break
    slopes /= top
    intercepts = -slopes @ anchor
    instance = PiecewiseLinearInstance(slopes, intercepts)
    instance.minimizer = anchor.copy()
    instance.min_value = instance.value(anchor)
    return instance


def synth_hinge_data(n: int, dim: int, seed: int) -> np.ndarray:
    """Label-folded rows for a synthetic linearly-separable-ish SVM task.

    Features are scaled so row norms concentrate near one, keeping the
    certified Lipschitz bound of the averaged hinge loss near one.
    """
    rng = _philox(seed)
    features = rng.standard_normal((n, dim)) / np.sqrt(dim)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    labels = np.where(features @ w >= 0.0, 1.0, -1.0)
    return features * labels[:, None]

