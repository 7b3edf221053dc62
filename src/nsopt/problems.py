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

import csv

import numpy as np

from .errors import FormatError


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

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    @property
    def lipschitz_bound(self) -> float:
        return float(np.linalg.norm(self.slopes, axis=1).max())

    def value(self, x: np.ndarray) -> float:
        return float((self.slopes @ x + self.intercepts).max())

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        scores = self.slopes @ x + self.intercepts
        j = int(np.argmax(scores))  # argmax takes the lowest index on ties
        return float(scores[j]), self.slopes[j]


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
        return float(np.abs(x - self.anchor).sum())

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        diff = x - self.anchor
        return float(np.abs(diff).sum()), np.sign(diff)


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
        margins = 1.0 - self.rows @ x
        return float(np.maximum(margins, 0.0).mean())

    def value_and_subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        margins = 1.0 - self.rows @ x
        # margin == 1 (i.e. 1 - <x, a_i> == 0) contributes zero by the tie rule
        active = (margins > 0.0).astype(float)
        value = float(np.maximum(margins, 0.0).mean())
        grad = -(active @ self.rows) / self.n_terms
        return value, grad

    def batch_subgradient(self, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
        rows = self.rows[indices]
        active = ((1.0 - rows @ x) > 0.0).astype(float)
        return -(active @ rows) / len(indices)


class MatrixSvmInstance(HingeSvmInstance):
    """Hinge-loss matrix classifier ``f(X) = (1/n) sum_i max(0, 1 - b_i <X, A_i>)``.

    Labels are folded into the stored matrices (``b_i * A_i``).  The solver
    facing API, inherited from ``HingeSvmInstance`` over the flattened
    samples, works on vectors of length ``m * p``; the matrix API below
    keeps the natural shape.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = np.asarray(mats, dtype=float)
        if self.mats.ndim != 3:
            raise ValueError("mats must be (n, m, p) with labels folded in")
        super().__init__(self.mats.reshape(self.mats.shape[0], -1))

    @property
    def shape(self) -> tuple[int, int]:
        return self.mats.shape[1], self.mats.shape[2]

    def matrix_value_and_subgradient(self, x_mat: np.ndarray) -> tuple[float, np.ndarray]:
        x_mat = np.asarray(x_mat, dtype=float)
        if x_mat.shape != self.shape:
            raise ValueError(f"expected matrix of shape {self.shape}, got {x_mat.shape}")
        value, grad = self.value_and_subgradient(x_mat.ravel())
        return value, grad.reshape(self.shape)


def synth_piecewise_linear(dim: int, pieces: int, seed: int,
                           anchor: np.ndarray | None = None) -> PiecewiseLinearInstance:
    """Random max-affine instance with a known minimizer at ``anchor``.

    Slopes are sampled, centered so they sum to zero (placing zero in the
    convex hull of the active slopes), and rescaled so the largest slope
    norm is exactly one.  Intercepts make every piece pass through a common
    value at the anchor, so the anchor is a global minimizer and the
    recorded ``min_value`` is the evaluated objective there.
    """
    if pieces < 2:
        raise ValueError("need at least 2 pieces")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
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


def synth_hinge_data(n: int, dim: int, seed: int, add_bias: bool = False) -> np.ndarray:
    """Label-folded rows for a synthetic linearly-separable-ish SVM task.

    Features are scaled so row norms concentrate near one, keeping the
    certified Lipschitz bound of the averaged hinge loss near one.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    features = rng.standard_normal((n, dim)) / np.sqrt(dim)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    labels = np.where(features @ w >= 0.0, 1.0, -1.0)
    if add_bias:
        features = np.hstack([features, np.ones((n, 1))])
    return features * labels[:, None]


def load_dense_csv(path: str, shape: tuple[int, int] | None = None,
                   add_bias: bool = False) -> np.ndarray:
    """Load label-folded SVM rows from a dense CSV file.

    Each row holds feature reals followed by a final label column in
    ``{0, 1}``; labels map to ``{-1, +1}`` and multiply into the features.
    ``shape`` optionally pins the expected ``(n_rows, n_features)`` of the
    result.  Parse failures raise ``FormatError`` with the offending row
    and column.
    """
    rows = []
    with open(path, newline="") as fh:
        for i, record in enumerate(csv.reader(fh)):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            parsed = []
            for j, token in enumerate(record):
                try:
                    parsed.append(float(token))
                except ValueError:
                    raise FormatError(
                        f"{path}: row {i + 1}, column {j + 1}: not a real number: {token!r}"
                    ) from None
            if len(parsed) < 2:
                raise FormatError(f"{path}: row {i + 1}: need at least one feature and a label")
            rows.append(parsed)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: inconsistent row widths {sorted(widths)}")
    data = np.asarray(rows, dtype=float)
    features, labels = data[:, :-1], data[:, -1]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise FormatError(f"{path}: labels must be 0 or 1 in the last column")
    if add_bias:
        features = np.hstack([features, np.ones((features.shape[0], 1))])
    folded = features * (2.0 * labels - 1.0)[:, None]
    if shape is not None and folded.shape != tuple(shape):
        raise FormatError(f"{path}: expected shape {tuple(shape)}, got {folded.shape}")
    return folded


def save_dense_csv(path: str, features: np.ndarray, labels: np.ndarray) -> None:
    """Write features plus a final {0,1} label column, round-trippable by
    ``load_dense_csv`` to full precision."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
