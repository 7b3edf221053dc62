"""Counting wrappers, oracle contracts, and the minibatch stochastic oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nsopt import (
    AbsoluteValueInstance,
    FirstOrderOracle,
    HingeSvmInstance,
    LinearMinimizationOracle,
    OracleCounters,
    ProjectionOracle,
    estimate_variance,
    l1_ball,
    minibatch_sfo,
    synth_hinge_data,
    synth_piecewise_linear,
    wrap_counting,
)
from nsopt.oracles import _BLOCK_INDICES
from conftest import philox


def test_counters_increment_per_call():
    sd = l1_ball(3, 1.0)
    counters = OracleCounters()
    po = wrap_counting(ProjectionOracle.from_set(sd), counters)
    for _ in range(3):
        po.project(np.array([2.0, 0.0, 0.0]))
    assert counters.as_tuple() == (0, 0, 3, 0)


def test_counters_zero_without_calls():
    assert OracleCounters().as_tuple() == (0, 0, 0, 0)


def test_counters_are_independent():
    pw = synth_piecewise_linear(3, 4, 0)
    sd = l1_ball(3, 1.0)
    counters = OracleCounters()
    fo = wrap_counting(FirstOrderOracle.from_instance(pw), counters)
    lmo = wrap_counting(LinearMinimizationOracle.from_set(sd), counters)
    fo.evaluate(np.zeros(3))
    lmo.minimize(np.array([1.0, -2.0, 0.5]))
    fo.evaluate(np.ones(3) * 0.1)
    assert counters.as_tuple() == (2, 0, 0, 1)


def test_wrap_counting_never_changes_results(rng):
    pw = synth_piecewise_linear(4, 5, 1)
    sd = l1_ball(4, 1.0)
    fo_raw = FirstOrderOracle.from_instance(pw)
    po_raw = ProjectionOracle.from_set(sd)
    lmo_raw = LinearMinimizationOracle.from_set(sd)
    counters = OracleCounters()
    fo = wrap_counting(fo_raw, counters)
    po = wrap_counting(po_raw, counters)
    lmo = wrap_counting(lmo_raw, counters)
    for _ in range(100):
        x = rng.standard_normal(4)
        v1, g1 = fo_raw.evaluate(x)
        v2, g2 = fo.evaluate(x)
        assert v1 == v2 and np.array_equal(g1, g2)
        assert np.array_equal(po_raw.project(x), po.project(x))
        assert np.array_equal(lmo_raw.minimize(x), lmo.minimize(x))
    # stochastic wrapper with identical streams
    svm = HingeSvmInstance(synth_hinge_data(20, 4, 2))
    sfo_raw = minibatch_sfo(svm, 3)
    sfo = wrap_counting(minibatch_sfo(svm, 3), OracleCounters())
    for i in range(100):
        x = rng.standard_normal(4)
        assert np.array_equal(sfo_raw.sample(x, philox(i)), sfo.sample(x, philox(i)))


def test_wrap_counting_rejects_unknown_type():
    with pytest.raises(TypeError):
        wrap_counting(object(), OracleCounters())


@pytest.mark.parametrize("make_instance", [
    lambda: AbsoluteValueInstance(np.array([0.3, -0.2])),
    lambda: synth_piecewise_linear(5, 6, 3),
    lambda: HingeSvmInstance(synth_hinge_data(30, 5, 4)),
])
def test_subgradient_inequality_and_norm_bound(make_instance, rng):
    instance = make_instance()
    fo = FirstOrderOracle.from_instance(instance)
    bound = fo.lipschitz_bound
    d = instance.dim
    for _ in range(1000):
        x = rng.uniform(-2, 2, d)
        y = rng.uniform(-2, 2, d)
        fx, g = fo.evaluate(x)
        fy = instance.value(y)
        assert fy >= fx + float(g @ (y - x)) - 1e-12
        assert np.linalg.norm(g) <= bound + 1e-12


def test_minibatch_full_batch_degenerates_to_fo(rng):
    svm = HingeSvmInstance(synth_hinge_data(25, 6, 5))
    sfo = minibatch_sfo(svm, svm.n_terms)
    x = rng.standard_normal(6) * 0.3
    _, g_full = svm.value_and_subgradient(x)
    draws = [sfo.sample(x, philox(i)) for i in range(20)]
    for g in draws:
        assert_allclose(g, g_full, atol=1e-15)
    assert estimate_variance(sfo, x, 50, philox(9)) <= 1e-30


def test_minibatch_two_components_batch_one():
    rows = np.array([[2.0, 0.0], [0.0, -1.0]])
    svm = HingeSvmInstance(rows)
    sfo = minibatch_sfo(svm, 1)
    x = np.zeros(2)
    # single-component subgradients at x = 0 are -a_i
    candidates = [-rows[0], -rows[1]]
    gen = philox(7)
    for _ in range(50):
        g = sfo.sample(x, gen)
        assert any(np.array_equal(g, c) for c in candidates)


def test_minibatch_variance_against_enumeration(rng):
    svm = HingeSvmInstance(synth_hinge_data(12, 4, 6))
    x = rng.standard_normal(4) * 0.2
    _, g_mean = svm.value_and_subgradient(x)
    # exact single-draw variance by enumerating the n components
    comps = np.stack([svm.batch_subgradient(x, np.array([i])) for i in range(svm.n_terms)])
    exact_var = float(((comps - g_mean) ** 2).sum(axis=1).mean())
    sfo = minibatch_sfo(svm, 1)
    gen = philox(11)
    measured = estimate_variance(sfo, x, 10 ** 4, gen)
    assert measured <= exact_var * 1.05
    assert measured >= exact_var * 0.9
    assert sfo.variance_bound >= exact_var


def test_minibatch_mean_within_three_standard_errors():
    svm = HingeSvmInstance(synth_hinge_data(15, 5, 8))
    x = np.zeros(5)
    _, g_full = svm.value_and_subgradient(x)
    gen = philox(13)
    trials = 10 ** 4
    sfo = minibatch_sfo(svm, 2)
    draws = np.stack([sfo.sample(x, gen) for _ in range(trials)])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - g_full) <= 3.0 * se + 1e-12)


def test_variance_ratio_scales_with_batch(rng):
    svm = HingeSvmInstance(synth_hinge_data(40, 4, 9))
    x = rng.standard_normal(4) * 0.1
    v1 = estimate_variance(minibatch_sfo(svm, 1), x, 10 ** 4, philox(21))
    v4 = estimate_variance(minibatch_sfo(svm, 4), x, 10 ** 4, philox(22))
    assert abs(v4 / v1 - 0.25) <= 0.25 * 0.15


def test_estimate_variance_two_point_closed_form():
    rows = np.array([[1.0, 1.0], [3.0, -1.0]])
    svm = HingeSvmInstance(rows)
    x = np.zeros(2)
    g1 = svm.batch_subgradient(x, np.array([0]))
    g2 = svm.batch_subgradient(x, np.array([1]))
    expected = float(((g1 - g2) ** 2).sum()) / 4.0
    measured = estimate_variance(minibatch_sfo(svm, 1), x, 10 ** 4, philox(3))
    assert abs(measured - expected) <= 0.1 * expected


def stream_state(gen):
    return repr(gen.bit_generator.state)


@pytest.mark.parametrize("n", [7, 200, 2 ** 31 + 1])
@pytest.mark.parametrize("batch", [1, 3, 4])
def test_one_block_draw_is_successive_batch_draws(n, batch):
    # The numpy property behind minibatch_sfo's block draws: bounded
    # integers read the bit generator's 32-bit stream continuously across
    # calls, rejections and Philox's spare half-word included.
    per_block = _BLOCK_INDICES // batch
    at_once, one_by_one = philox([n, batch]), philox([n, batch])
    at_once.integers(0, n, size=1)  # start off a half-word boundary
    one_by_one.integers(0, n, size=1)
    block = at_once.integers(0, n, size=(per_block, batch))
    batches = np.stack([one_by_one.integers(0, n, size=batch) for _ in range(per_block)])
    assert np.array_equal(block, batches)
    assert stream_state(at_once) == stream_state(one_by_one)


@pytest.mark.parametrize("batch", [1, 3, 4])
def test_minibatch_sample_is_a_per_call_draw_bit_for_bit(batch):
    svm = HingeSvmInstance(synth_hinge_data(50, 5, 4))
    sfo = minibatch_sfo(svm, batch)
    drawn, reference = philox(batch), philox(batch)
    points = philox(100 + batch).standard_normal((7, 5))
    for step in range(5 * (_BLOCK_INDICES // batch) // 2):  # 2.5 blocks
        x = points[step % 7]
        expected = svm.batch_subgradient(x, reference.integers(0, 50, size=batch))
        assert sfo.sample(x, drawn).tobytes() == expected.tobytes()


def test_a_generator_handed_over_mid_block_gets_its_per_call_stream():
    # one run's generator takes over part-way through another run's block
    svm = HingeSvmInstance(synth_hinge_data(30, 4, 2))
    batch = 7
    per_block = _BLOCK_INDICES // batch
    x = philox(5).standard_normal(4)
    for handed_over_after in (1, 100, per_block - 1):
        sfo = minibatch_sfo(svm, batch)
        other = philox([10, handed_over_after])
        for _ in range(handed_over_after):
            sfo.sample(x, other)
        drawn, reference = philox(11), philox(11)
        for served in range(1, 2 * per_block + 1):
            expected = svm.batch_subgradient(x, reference.integers(0, 30, size=batch))
            assert sfo.sample(x, drawn).tobytes() == expected.tobytes()
            if served % per_block == 0:  # a used-up block leaves no lookahead
                assert stream_state(drawn) == stream_state(reference)


def test_invalid_arguments():
    svm = HingeSvmInstance(synth_hinge_data(10, 3, 1))
    with pytest.raises(ValueError):
        minibatch_sfo(svm, 0)
    sfo = minibatch_sfo(svm, 2)
    with pytest.raises(ValueError):
        estimate_variance(sfo, np.zeros(3), 1, philox(0))
