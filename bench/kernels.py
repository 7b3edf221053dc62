"""Per-call kernel timings at the sizes the workloads use.

Every kernel is called on a small cycle of inputs drawn from the workload
seed, warmed up, then timed call by call with ``time.perf_counter``.  A
kernel reports the median and the 99th percentile (1000 samples, so ten lie
beyond it) in microseconds per operation, where an operation is one call,
one inner step of ``prox_slide`` or one LMO call of the Frank-Wolfe
projection.  The timer's own cost, about 0.1 us, is included.

The first-order oracles' operation counts and bytes are computed from the
shapes, not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from nsopt import (
    FirstOrderOracle,
    HingeSvmInstance,
    LinearMinimizationOracle,
    OracleCounters,
    compute_schedule,
    fw_quadratic_projection,
    l1_ball,
    lmo_l1_ball,
    lmo_nuclear_ball,
    minibatch_sfo,
    nuclear_ball,
    project_l1_ball,
    project_nuclear_ball,
    prox_slide,
    synth_hinge_data,
    wrap_counting,
)
from workloads import MolesL1, MolesNuclear, philox

SAMPLES = 1000
INPUTS = 16
PROX_STEPS = 50           # inner steps per timed prox_slide call
FW_L1_BUDGET = 50         # LMO calls per timed l1 projection
FW_NUCLEAR_BUDGET = 2     # LMO calls per timed nuclear projection
NUCLEAR_SIZES = (4, 10, 30)


def _timings(fn, inputs, samples: int, warmup: int) -> list[float]:
    clock = time.perf_counter
    for i in range(warmup):
        fn(*inputs[i % len(inputs)])
    out = []
    for i in range(samples):
        args = inputs[i % len(inputs)]
        start = clock()
        fn(*args)
        out.append(clock() - start)
    return out


def _summary(times: list[float], per: int) -> tuple[float, float]:
    scale = 1e6 / per
    p99 = statistics.quantiles(times, n=100, method="inclusive")[98]
    return statistics.median(times) * scale, p99 * scale


class _Sampler:
    """The subgradient source ``prox_slide`` expects, over a deterministic
    oracle."""

    def __init__(self, fo: FirstOrderOracle):
        self._evaluate = fo.evaluate

    def sample(self, x, rng):
        return self._evaluate(x)[1]


def _cases(seed: int):
    """``(name, fn, inputs, operations per call)`` for every timed kernel."""
    gen = philox((seed, 10))
    ball20 = l1_ball(20, 1.0)
    inside = [ball20.boundary_point(gen) * gen.uniform(0.2, 1.0) for _ in range(INPUTS)]
    outside = [ball20.boundary_point(gen) * 1.2 for _ in range(INPUTS)]
    directions = [gen.standard_normal(20) for _ in range(INPUTS)]

    pwl = MolesL1().instance(seed)[0]
    hinge = HingeSvmInstance(synth_hinge_data(200, 20, 123))
    matrix = MolesNuclear().base_problem()
    matrix_points = [nuclear_ball(10, 10, 1.0).boundary_point(gen) * gen.uniform(0.2, 1.0)
                     for _ in range(INPUTS)]
    batches = [gen.integers(0, hinge.n_terms, size=4) for _ in range(INPUTS)]
    fo = FirstOrderOracle.from_instance(pwl)
    sfo = minibatch_sfo(hinge, 4)
    sfo_gen = philox((seed, 11))

    cases = [
        ("problems.pwl_fo_us", pwl.value_and_subgradient, [(x,) for x in inside], 1),
        ("problems.pwl_value_us", pwl.value, [(x,) for x in inside], 1),
        ("problems.hinge_fo_us", hinge.value_and_subgradient, [(x,) for x in inside], 1),
        ("problems.hinge_value_us", hinge.value, [(x,) for x in inside], 1),
        ("problems.hinge_batch_subgradient_us", hinge.batch_subgradient,
         list(zip(inside, batches)), 1),
        ("problems.matrix_hinge_fo_us", matrix.value_and_subgradient,
         [(x,) for x in matrix_points], 1),
        ("oracles.fo_evaluate_us", fo.evaluate, [(x,) for x in inside], 1),
        ("oracles.minibatch_sfo_us", sfo.sample, [(x, sfo_gen) for x in inside], 1),
        ("geometry.lmo_l1_us", lmo_l1_ball, [(g, 1.0) for g in directions], 1),
        ("geometry.project_l1_us", project_l1_ball, [(x, 1.0) for x in outside], 1),
    ]
    for size in NUCLEAR_SIZES:
        mats = [gen.standard_normal((size, size)) / size for _ in range(INPUTS)]
        lmo_gen = philox((seed, 12, size))
        cases.append((f"geometry.lmo_nuclear_us.{size}", lmo_nuclear_ball,
                      [(a, 1.0, 1e-10, 10000, lmo_gen) for a in mats], 1))
        cases.append((f"geometry.project_nuclear_us.{size}", project_nuclear_ball,
                      [(a * size, 1.0) for a in mats], 1))

    sampler = _Sampler(fo)
    prox_gen = philox((seed, 13))
    cases.append(("solvers.prox_slide_us_per_step", prox_slide,
                  [(sampler, g, x, 0.5, PROX_STEPS, 1.0, prox_gen)
                   for g, x in zip(directions, inside)], PROX_STEPS))

    lmo_l1 = LinearMinimizationOracle.from_set(ball20)
    cases.append(("solvers.fw_projection_us_per_lmo.l1", fw_quadratic_projection,
                  [(t, x, lmo_l1, FW_L1_BUDGET) for t, x in zip(outside, inside)],
                  FW_L1_BUDGET))
    ball10 = nuclear_ball(10, 10, 1.0)
    lmo_nuc = LinearMinimizationOracle.from_set(ball10, rng=philox((seed, 14)))
    targets = [x * 1.5 for x in matrix_points]
    cases.append(("solvers.fw_projection_us_per_lmo.nuclear10", fw_quadratic_projection,
                  [(t, x, lmo_nuc, FW_NUCLEAR_BUDGET) for t, x in zip(targets, matrix_points)],
                  FW_NUCLEAR_BUDGET))

    # moles_l1 sizes: lam = eps / G^2 with eps 0.4 and G 1, K = 38 outer steps.
    cases.append(("solvers.compute_schedule_us", compute_schedule,
                  [(0.4, 38, k, 1, 1.0, 0.0, 2.0, 2.1, 1.0) for k in range(1, INPUTS + 1)], 1))
    return cases


def computed_costs() -> dict:
    """Operation counts and bytes of one first-order call, from the shapes:
    ``flop`` counts multiply-adds as two, ``B`` counts float64 reads and
    writes of the arrays the call touches once (the hinge oracle reads its
    data twice)."""
    pieces, d = MolesL1.pieces, MolesL1.dim
    n, dh = 200, 20
    nm, dm = 100, 100
    return {
        "problems.pwl_fo_flop_computed": (2 * pieces * d + pieces, "flop"),
        "problems.pwl_fo_bytes_computed": (8 * (pieces * d + d + 2 * pieces), "B"),
        "problems.hinge_fo_flop_computed": (4 * n * dh + 3 * n, "flop"),
        "problems.hinge_fo_bytes_computed": (8 * (2 * n * dh + dh + 2 * n + dh), "B"),
        "problems.matrix_hinge_fo_flop_computed": (4 * nm * dm + 3 * nm, "flop"),
        "problems.matrix_hinge_fo_bytes_computed": (8 * (2 * nm * dm + dm + 2 * nm + dm), "B"),
    }


def metric_units() -> dict:
    """Name and unit of every metric :func:`run` reports."""
    units = {}
    for name, *_ in _cases(0):
        units[name] = "us"
        units[name + ".p99"] = "us"
    units["oracles.counting_overhead_us"] = "us"
    units.update({name: unit for name, (_, unit) in computed_costs().items()})
    return units


def run(seed: int, samples: int = SAMPLES) -> dict:
    """Time every kernel; return ``{name: (value, unit)}``."""
    warmup = max(3, samples // 20)
    out = {}
    for name, fn, inputs, per in _cases(seed):
        median, p99 = _summary(_timings(fn, inputs, samples, warmup), per)
        out[name] = (median, "us")
        out[name + ".p99"] = (p99, "us")
    # Counting cost: the same oracle called through the counting wrapper.
    pwl = MolesL1().instance(seed)[0]
    fo = FirstOrderOracle.from_instance(pwl)
    counted = wrap_counting(fo, OracleCounters())
    points = [(np.full(pwl.dim, 0.01 * i),) for i in range(INPUTS)]
    plain = statistics.median(_timings(fo.evaluate, points, samples, warmup))
    wrapped = statistics.median(_timings(counted.evaluate, points, samples, warmup))
    out["oracles.counting_overhead_us"] = ((wrapped - plain) * 1e6, "us")
    out.update(computed_costs())
    return out
