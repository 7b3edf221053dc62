"""Constraint-set descriptors and exact projection / linear-minimization kernels.

Supports Euclidean balls, l1 balls, and nuclear-norm balls centered at the
origin.  All kernels are pure, deterministic functions of their inputs.  The
nuclear-ball projection rests on one dense SVD; the nuclear LMO needs only the
top singular pair, which it takes from one symmetric eigensolve of the smaller
Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


def project_l2_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Radial projection onto the Euclidean ball of the given radius."""
    nrm = float(np.linalg.norm(x))
    if nrm <= radius:
        return np.array(x, dtype=float, copy=True)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NumericalError("l2-ball projection of a non-finite point")
    return x * (radius / nrm)


def project_l1_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball via sort and threshold.

    Points inside the ball are returned unchanged.  Otherwise the result is
    the soft-thresholding ``sign(x) * max(|x| - theta, 0)`` with the unique
    ``theta >= 0`` satisfying ``sum(max(|x_i| - theta, 0)) == radius``.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if np.add.reduce(a) <= radius:
        return x.copy()
    s = a.copy()
    s.sort()
    s = s[::-1]
    cumulative = np.add.accumulate(s)
    # Largest prefix whose shifted values stay positive fixes the threshold.
    # Only a non-finite input leaves no positive prefix.
    shifted = cumulative - radius
    shifted /= np.arange(1, x.size + 1)
    positive = (s > shifted).nonzero()[0]
    if positive.size == 0:
        raise NumericalError("l1-ball projection of a non-finite point")
    rho = int(positive[-1])
    theta = (cumulative[rho] - radius) / (rho + 1)
    a -= theta
    np.maximum(a, 0.0, out=a)
    a *= np.sign(x)
    return a


def lmo_l1_ball_atom(g: np.ndarray, radius: float) -> tuple[int, float]:
    """Extreme point of the l1 ball minimizing ``<g, s>``, as the atom
    ``(i, value)``: the vertex is ``value = -radius * sign(g_i)`` at ``i``
    and zero elsewhere.

    Ties on ``|g_i|`` break toward the lowest index and ``sign(0)`` is
    taken as ``+1``, so the output is deterministic; a zero ``g`` gives
    ``(0, -radius)``.
    """
    i = np.abs(g).argmax()
    return i, (-radius if g[i] >= 0 else radius)


def lmo_l1_ball(g: np.ndarray, radius: float) -> np.ndarray:
    """The vertex of ``lmo_l1_ball_atom`` as a dense array."""
    g = np.asarray(g, dtype=float)
    i, value = lmo_l1_ball_atom(g, radius)
    s = np.zeros(g.shape)  # float, as ``g`` is; zeros_like costs twice as much
    s[i] = value
    return s


def full_svd(a: np.ndarray, compute_uv: bool = True):
    """Thin SVD of a dense matrix, or its singular values alone when
    ``compute_uv`` is false, as ``np.linalg.svd`` returns them.  Raises
    ``NumericalError`` on failure and on an inf or NaN entry (LAPACK can spin
    without end on an inf)."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NumericalError("SVD of a matrix with non-finite entries")
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc


def project_nuclear_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Frobenius-nearest point of the nuclear-norm ball.

    Projects the singular values onto the l1 ball of the given radius and
    reconstructs, which is exact because the nuclear norm is the l1 norm of
    the spectrum.
    """
    u, s, vt = full_svd(x)
    if s.sum() <= radius:
        return np.array(x, dtype=float, copy=True)
    s_proj = project_l1_ball(s, radius)
    return (u * s_proj) @ vt


def lmo_nuclear_ball(g: np.ndarray, radius: float, tol: float = 1e-10,
                     max_iter: int = 10000, rng=None) -> np.ndarray:
    """Rank-1 extreme point of the nuclear ball minimizing ``<g, s>``.

    Returns ``-radius * u v^T`` for the top singular pair ``(u, v)`` of
    ``g``.  The pair comes from the top eigenvector of the smaller Gram
    matrix of ``h = g / max|g|``: ``v`` from ``h^T h`` when ``g`` has no
    more columns than rows, else ``u`` from ``h h^T``; the other factor is
    ``h v`` or ``h^T u``, normalized.  The scaling puts every entry of
    ``h`` in ``[-1, 1]`` and the top eigenvalue in ``[1, m p]`` for an
    ``m x p`` input, so the eigensolve neither overflows nor loses the top
    pair to underflow at any finite scale of ``g``.  The sign of the
    eigenvector cancels in ``u v^T``.

    A non-finite entry raises ``NumericalError``.  A zero input, where
    every direction ties, maps to a fixed canonical vertex so the output
    stays deterministic.  ``tol``, ``max_iter`` and ``rng`` are accepted
    for compatibility only: the eigensolve is exact, so the result is
    independent of them.
    """
    g = np.asarray(g, dtype=float)
    scale = np.abs(g).max()  # NaN if any entry is NaN
    if not math.isfinite(scale):
        raise NumericalError("nuclear LMO of a matrix with non-finite entries")
    if scale == 0.0:
        s = np.zeros_like(g)
        s[0, 0] = -radius
        return s
    h = g / scale
    try:
        if h.shape[1] <= h.shape[0]:
            v = np.linalg.eigh(h.T @ h)[1][:, -1]
            u = h @ v
            u *= -radius / math.sqrt(u @ u)
        else:
            u = np.linalg.eigh(h @ h.T)[1][:, -1]
            v = u @ h
            v *= -radius / math.sqrt(v @ v)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"nuclear LMO eigensolve failed: {exc}") from exc
    return np.multiply.outer(u, v)


@dataclass(frozen=True)
class SetDescriptor:
    """An origin-centered norm ball: kind, radius, and ambient shape.

    ``shape`` is ``(d,)`` for vector sets and ``(m, p)`` for the nuclear
    ball; solvers work on flattened vectors and the descriptor reinterprets
    the shape inside its kernels.
    """

    kind: str
    radius: float
    shape: tuple[int, ...]

    _KINDS = ("l2_ball", "l1_ball", "nuclear_ball")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.kind == "nuclear_ball" and len(self.shape) != 2:
            raise ValueError("nuclear ball needs a matrix shape (m, p)")
        if self.kind != "nuclear_ball" and len(self.shape) != 1:
            raise ValueError(f"{self.kind} needs a vector shape (d,)")

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))

    @property
    def diameter(self) -> float:
        # Euclidean diameter is 2r for all three kinds.
        return 2.0 * self.radius

    def norm(self, x: np.ndarray) -> float:
        """The norm defining the ball, evaluated on a flat vector."""
        x = np.asarray(x, dtype=float)
        if self.kind == "l2_ball":
            return float(np.linalg.norm(x))
        if self.kind == "l1_ball":
            return float(np.abs(x).sum())
        return float(full_svd(x.reshape(self.shape), compute_uv=False).sum())

    def membership_residual(self, x: np.ndarray) -> float:
        return max(0.0, self.norm(x) - self.radius)

    def contains(self, x: np.ndarray) -> bool:
        """Whether ``x`` is in the ball up to ``1e-8 * max(1, radius)``: the
        rounding error of the norm grows with the radius."""
        return self.membership_residual(x) <= 1e-8 * max(1.0, self.radius)

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "l2_ball":
            return project_l2_ball(x, self.radius)
        if self.kind == "l1_ball":
            return project_l1_ball(x, self.radius)
        return project_nuclear_ball(x.reshape(self.shape), self.radius).ravel()

    def lmo_atom(self, g: np.ndarray) -> tuple[int | slice, float | np.ndarray]:
        """The extreme point minimizing ``<g, s>`` as an atom ``(index, value)``:
        ``(i, ±radius)`` on the l1 ball, ``(slice(None), flat vertex)`` on the
        others.  A zero ``g`` maps to a fixed vertex."""
        g = np.asarray(g, dtype=float)
        if self.kind == "l1_ball":
            return lmo_l1_ball_atom(g, self.radius)
        if self.kind == "l2_ball":
            nrm = float(np.linalg.norm(g))
            if nrm == 0.0:
                s = np.zeros_like(g)
                s[0] = -self.radius
                return slice(None), s
            return slice(None), -self.radius / nrm * g
        return slice(None), lmo_nuclear_ball(g.reshape(self.shape), self.radius).ravel()

    def lmo(self, g: np.ndarray) -> np.ndarray:
        """The vertex of ``lmo_atom`` as a dense flat array."""
        index, value = self.lmo_atom(g)
        s = np.zeros(np.shape(g))
        s[index] = value
        return s

    def boundary_point(self, rng) -> np.ndarray:
        """A random point with norm exactly ``radius`` (rank-1 for the
        nuclear ball), used to draw starting iterates."""
        if self.kind == "l2_ball":
            u = rng.standard_normal(self.dim)
            return self.radius * u / np.linalg.norm(u)
        if self.kind == "l1_ball":
            w = rng.exponential(size=self.dim)
            w /= w.sum()
            signs = rng.integers(0, 2, size=self.dim) * 2.0 - 1.0
            return self.radius * signs * w
        m, p = self.shape
        u = rng.standard_normal(m)
        v = rng.standard_normal(p)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        return (self.radius * np.outer(u, v)).ravel()


def l2_ball(dim: int, radius: float) -> SetDescriptor:
    return SetDescriptor("l2_ball", float(radius), (int(dim),))


def l1_ball(dim: int, radius: float) -> SetDescriptor:
    return SetDescriptor("l1_ball", float(radius), (int(dim),))


def nuclear_ball(rows: int, cols: int, radius: float) -> SetDescriptor:
    return SetDescriptor("nuclear_ball", float(radius), (int(rows), int(cols)))
