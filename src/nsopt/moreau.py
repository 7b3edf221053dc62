"""Moreau envelope machinery.

The envelope of a convex ``f`` with parameter ``lam`` over the enclosing
ball ``B(0, R)`` is ``f_lam(x) = min_{x' in B(0,R)} f(x') + ||x - x'||^2 /
(2 lam)``, a ``(1/lam)``-smooth surrogate whose gradient is
``(x - prox(x)) / lam``.  The prox point is never assumed available in
closed form; it is approximated by a proximal subgradient method that only
needs first-order access to ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import project_l2_ball
from .oracles import FirstOrderOracle


@dataclass
class ProxResult:
    """Approximate prox point, the envelope value there, and the inner
    budget spent producing it."""

    point: np.ndarray
    value: float
    iterations: int


def prox_subgradient(fo: FirstOrderOracle, x: np.ndarray, lam: float,
                     iterations: int, radius: float,
                     dist_estimate: float | None = None) -> ProxResult:
    """Approximate ``prox_{lam f}(x)`` by the proximal subgradient method.

    Starting from ``u_0 = x``, each step takes a subgradient ``g_t`` of
    ``f`` at ``u_t`` and applies

        ``u_{t+1} = P_{B(0,R)}( u_t - (eta / (1 + eta beta)) (g_t + beta (u_t - x)) )``

    with ``beta = 1/lam`` and constant stepsize ``eta = d0 / (2 G sqrt(T))``,
    where ``d0`` estimates the distance from ``x`` to the prox point
    (``G lam`` certified by Lipschitzness when not supplied).  The returned
    point is the uniform average of ``u_1 .. u_T``; its objective gap obeys
    ``2 G d0 / sqrt(T)`` whenever ``d0`` upper-bounds the true distance.

    Spends ``iterations`` FO calls on the updates plus one more to report
    the envelope value at the averaged point.
    """
    if lam <= 0:
        raise ValueError("smoothing parameter must be positive")
    if iterations < 1:
        raise ValueError("iteration budget must be a positive integer")
    lipschitz = fo.lipschitz_bound
    if lipschitz is None or lipschitz <= 0:
        raise ValueError("prox solve needs a positive Lipschitz bound on the oracle")
    x = np.asarray(x, dtype=float)
    beta = 1.0 / lam
    d0 = lipschitz * lam if dist_estimate is None else float(dist_estimate)
    eta = d0 / (2.0 * lipschitz * math.sqrt(iterations))
    scale = eta / (1.0 + eta * beta)
    u = x.copy()
    total = np.zeros_like(x)
    for _ in range(iterations):
        _, g = fo.evaluate(u)
        u = project_l2_ball(u - scale * (g + beta * (u - x)), radius)
        total += u
    averaged = total / iterations
    fval, _ = fo.evaluate(averaged)
    diff = x - averaged
    envelope = float(fval + float(diff @ diff) / (2.0 * lam))
    return ProxResult(point=averaged, value=envelope, iterations=iterations)

