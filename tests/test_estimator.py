import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdasim.cli import build_config, parse_config
from cdasim.kernel import run

from cdasim.estimator import (
    BeliefState,
    EstimatorParams,
    advance,
    gain_schedule,
    initial_belief,
    observe,
    project_final,
)


def make_params(r_bar=100.0, kappa=0.5, sigma_s_sq=1.0, sigma_n_sq=2.0, horizon_T=100):
    return EstimatorParams(r_bar, kappa, sigma_s_sq, sigma_n_sq, horizon_T)


def test_first_wake_worked_example():
    # delta=5, kappa=0.5, r_bar=100, sigma_s_sq=1 from a fresh belief
    params = make_params(kappa=0.5, sigma_s_sq=1.0)
    belief = advance(initial_belief(params), 5, params)
    assert belief.r_tilde == 100.0
    assert belief.sigma_tilde_sq == pytest.approx(1.33203125, abs=1e-15)
    # cross-check by composing five single-step advances
    composed = initial_belief(params)
    for t in range(1, 6):
        composed = advance(composed, t, params)
    assert composed.sigma_tilde_sq == pytest.approx(belief.sigma_tilde_sq, rel=1e-12)


def test_advance_delta_one_weights():
    # shock-variance weight is exactly 1, prior weight exactly (1-kappa)^2
    kappa = 0.3
    params = make_params(kappa=kappa, sigma_s_sq=2.0)
    belief = BeliefState(r_tilde=90.0, sigma_tilde_sq=4.0, last_wake=0)
    advanced = advance(belief, 1, params)
    expected = (1.0 - kappa) ** 2 * 4.0 + 1.0 * 2.0
    assert advanced.sigma_tilde_sq == pytest.approx(expected, rel=1e-12)


def test_advance_kappa_zero_random_walk():
    params = make_params(kappa=0.0, sigma_s_sq=2.0)
    belief = BeliefState(r_tilde=93.0, sigma_tilde_sq=1.0, last_wake=3)
    advanced = advance(belief, 10, params)
    assert advanced.r_tilde == 93.0
    assert advanced.sigma_tilde_sq == pytest.approx(15.0)


def test_advance_zero_delta_is_identity():
    params = make_params()
    belief = BeliefState(101.0, 0.5, 4)
    assert advance(belief, 4, params) == belief


def test_advance_time_regression_rejected():
    params = make_params()
    with pytest.raises(ValueError, match="regression"):
        advance(BeliefState(100.0, 0.0, 5), 4, params)


def test_advance_single_step_is_mean_reversion_recurrence():
    params = make_params(kappa=0.25)
    belief = BeliefState(r_tilde=110.0, sigma_tilde_sq=0.0, last_wake=0)
    advanced = advance(belief, 1, params)
    assert advanced.r_tilde == pytest.approx(0.25 * 100.0 + 0.75 * 110.0)


def test_observe_perfect_observation():
    params = make_params(sigma_n_sq=0.0)
    belief = BeliefState(100.0, 3.0, 1)
    updated = observe(belief, 104.0, params)
    assert updated.r_tilde == 104.0
    assert updated.sigma_tilde_sq == 0.0


def test_observe_certain_prior_ignores_observation():
    params = make_params(sigma_n_sq=2.0)
    belief = BeliefState(100.0, 0.0, 1)
    updated = observe(belief, 123.0, params)
    assert updated.r_tilde == 100.0
    assert updated.sigma_tilde_sq == 0.0


def test_observe_equal_variances_splits_difference():
    params = make_params(sigma_n_sq=2.0)
    belief = BeliefState(100.0, 2.0, 1)
    updated = observe(belief, 110.0, params)
    assert updated.r_tilde == pytest.approx(105.0)
    assert updated.sigma_tilde_sq == pytest.approx(1.0)


def test_observe_double_zero_adopts_observation():
    params = make_params(sigma_n_sq=0.0)
    updated = observe(BeliefState(100.0, 0.0, 0), 107.0, params)
    assert updated.r_tilde == 107.0
    assert updated.sigma_tilde_sq == 0.0


def test_observe_weight_reversal():
    # higher self-assessed error puts more weight on the observation
    params = make_params(sigma_n_sq=2.0)
    low = observe(BeliefState(100.0, 1.0, 0), 110.0, params)
    high = observe(BeliefState(100.0, 5.0, 0), 110.0, params)
    assert high.r_tilde > low.r_tilde


def test_project_final():
    params = make_params(kappa=0.5, horizon_T=10)
    belief = BeliefState(r_tilde=120.0, sigma_tilde_sq=1.0, last_wake=10)
    assert project_final(belief, params) == 120.0  # t = T
    belief = BeliefState(r_tilde=120.0, sigma_tilde_sq=1.0, last_wake=4)
    one_step = make_params(kappa=1.0, horizon_T=10)
    assert project_final(belief, one_step) == 100.0  # kappa = 1 reverts fully
    at_mean = BeliefState(r_tilde=100.0, sigma_tilde_sq=1.0, last_wake=7)
    assert project_final(at_mean, params) == 100.0  # fixed point
    with pytest.raises(ValueError, match="past the simulation horizon"):
        project_final(BeliefState(r_tilde=120.0, sigma_tilde_sq=1.0, last_wake=11), params)


def test_consistency_with_perfect_observations():
    # sigma_n_sq = 0 and an observation every step tracks the truth exactly
    rng = np.random.default_rng(11)
    params = make_params(kappa=0.3, sigma_s_sq=1.0, sigma_n_sq=0.0)
    belief = initial_belief(params)
    truth = 100.0
    for t in range(1, 60):
        truth = 0.3 * 100.0 + 0.7 * truth + rng.normal(0, 1.0)
        belief = observe(advance(belief, t, params), truth, params)
        assert belief.r_tilde == truth
        assert belief.sigma_tilde_sq == 0.0


# ---------------------------------------------------------------------------
# the gain schedule against the scalar filter
# ---------------------------------------------------------------------------


def bits(x):
    return struct.pack("<d", x)


def scheduled_filter(schedules, observations, params):
    """The kernel's filter: the schedule's coefficients in merged wake order
    (by time, ties by agent), and one estimate per agent updated by the
    kernel's expressions.  Returns one (agent, delta, r_tilde,
    sigma_tilde_sq, r_hat) row per wake."""
    wake_ids = np.repeat(np.arange(len(schedules)), [len(s) for s in schedules])
    wake_times = np.concatenate(schedules)
    order = np.lexsort((wake_ids, wake_times))
    gains = gain_schedule(schedules, order, params, trace=True)
    untraced = gain_schedule(schedules, order, params)
    assert untraced.delta is None and untraced.sigma_tilde_sq is None
    for name in ("decay", "obs_weight", "final_decay"):
        traced, plain = getattr(gains, name), getattr(untraced, name)
        assert traced.dtype == plain.dtype == np.float64
        assert traced.tobytes() == plain.tobytes()
    assert gains.delta.dtype == np.int64 and gains.sigma_tilde_sq.dtype == np.float64
    r_bar = params.r_bar
    r_tilde = [r_bar] * len(schedules)
    seen = [0] * len(schedules)
    rows = []
    for agent_id, b, w, d, delta, var in zip(
            wake_ids[order].tolist(), memoryview(gains.decay), memoryview(gains.obs_weight),
            memoryview(gains.final_decay), gains.delta.tolist(),
            gains.sigma_tilde_sq.tolist()):
        o = observations[agent_id][seen[agent_id]]
        seen[agent_id] += 1
        r = (1.0 - w) * ((1.0 - b) * r_bar + b * r_tilde[agent_id]) + w * o
        r_tilde[agent_id] = r
        r_hat = (1.0 - d) * r_bar + d * r
        rows.append((agent_id, delta, r, var, r_hat))
    return rows


def scalar_filter(schedules, observations, params):
    """advance, observe and project_final, one wake at a time, in the same
    merged wake order."""
    wakes = sorted((t, agent_id, k) for agent_id, times in enumerate(schedules)
                   for k, t in enumerate(times.tolist()))
    beliefs = [initial_belief(params) for _ in schedules]
    rows = []
    for t, agent_id, k in wakes:
        prior = beliefs[agent_id]
        belief = observe(advance(prior, t, params), observations[agent_id][k], params)
        beliefs[agent_id] = belief
        rows.append((agent_id, t - prior.last_wake, belief.r_tilde, belief.sigma_tilde_sq,
                     project_final(belief, params)))
    return rows


VARIANCE = st.one_of(st.just(0.0), st.floats(0.0, 1e4))


@st.composite
def filter_cases(draw):
    horizon_T = draw(st.integers(1, 60))
    params = EstimatorParams(
        r_bar=draw(st.floats(0.0, 1e6)),
        kappa=draw(st.one_of(st.sampled_from([0.0, 1.0, 0.05, 1e-20]), st.floats(0.0, 1.0))),
        sigma_s_sq=draw(VARIANCE),
        sigma_n_sq=draw(VARIANCE),
        horizon_T=horizon_T,
    )
    wake_sets = draw(st.lists(st.sets(st.integers(1, horizon_T), max_size=horizon_T),
                              min_size=1, max_size=5))
    schedules = [np.array(sorted(s), dtype=np.int64) for s in wake_sets]
    observations = [draw(st.lists(st.floats(0.0, 1e6), min_size=len(s), max_size=len(s)))
                    for s in wake_sets]
    return schedules, observations, params


def case(wake_lists, kappa=0.3, sigma_s_sq=1.5, sigma_n_sq=2.0, horizon_T=40, r_bar=100.0):
    schedules = [np.array(w, dtype=np.int64) for w in wake_lists]
    observations = [[r_bar + 7.0 * (i - j) for j in range(len(w))]
                    for i, w in enumerate(wake_lists)]
    return schedules, observations, EstimatorParams(r_bar, kappa, sigma_s_sq, sigma_n_sq,
                                                    horizon_T)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy overflow or 0/0 fails
@settings(max_examples=300)
@given(filter_cases())
@example(case([[1, 5, 9], [], [5, 40]]))  # an agent with no wakes, a tie, a wake at T
@example(case([[2, 3, 30], [1, 7]], kappa=0.0))  # the random-walk limit
@example(case([[2, 3, 30], [1, 7]], kappa=1.0))  # full reversion every step
@example(case([[2, 3, 30], [1, 7]], sigma_n_sq=0.0))  # exact observations
@example(case([[2, 3, 30], [1, 7]], sigma_s_sq=0.0))  # a certain fundamental
@example(case([[2, 3, 30], [1, 7]], sigma_s_sq=0.0, sigma_n_sq=0.0))  # observe adopts o
@example(case([[1], [1], []], horizon_T=1))  # horizon 1
@example(case([[]], horizon_T=1))  # no wake at all
def test_gain_schedule_equals_scalar_filter_bit_for_bit(data):
    # the schedule's coefficients and the kernel's update give the scalar
    # chain's r_tilde, sigma_tilde_sq and r_hat to the bit, and its gaps
    schedules, observations, params = data
    try:
        expected = scalar_filter(schedules, observations, params)
    except ZeroDivisionError:
        # a kappa so small that 1 - (1-kappa)**2 rounds to 0: the scalar
        # variance weight divides by 0, and so does the schedule's
        with pytest.raises(ZeroDivisionError):
            scheduled_filter(schedules, observations, params)
        return
    got = scheduled_filter(schedules, observations, params)
    assert len(got) == len(expected) == sum(len(s) for s in schedules)
    for row, want in zip(got, expected):
        assert row[:2] == want[:2]
        assert [bits(x) for x in row[2:]] == [bits(x) for x in want[2:]], (row, want)


def clustered_deviation(x, expected, cluster):
    """How far the mean of ``x`` lies from ``expected``, in standard errors
    that treat each cluster, not each value, as one independent draw."""
    residual = np.bincount(cluster, weights=x - x.mean())
    return abs(x.mean() - expected) / (np.sqrt((residual ** 2).sum()) / x.size)


@pytest.mark.parametrize("variant", ["dmr", "ou"])
def test_posterior_is_calibrated_against_the_true_fundamental(variant):
    # Where the filter's model is the fundamental's own, a wake's posterior
    # describes the true value: z = (r_tilde - true value) / sqrt(sigma_tilde_sq)
    # is standard normal.  The desk population (25 ZI + 5 HBL) at T = 5000 and
    # seeds 1-8 gives about 11,800 z values, but one agent's values share its
    # prior, so the standard errors count the 240 agents as the independent
    # draws.  Agents of one market also share the true path, which agent
    # clusters miss: clustering by seed or by 200-step block gives 1.3-1.5
    # times these errors for z**2 and the tail share, and about twice them
    # for the mean.  Six errors leave about three of those.  The bands fail
    # an observation of the value one step before the wake (z**2 about 1.11)
    # and a filter that assumes twice the noise variance (z**2 about 0.84,
    # 3.3% outside); the true model reads 1.006 (dmr) and 1.017 (ou).
    z, agents = [], []
    for seed in range(1, 9):
        result = run(build_config(parse_config(
            f"[fundamental]\nvariant = {variant}\n[market]\nhorizon = 5000\nseed = {seed}\n"
            "[agents]\nzi_count = 25\nhbl_count = 5\n[output]\ntrace_estimator = true\n")))
        truth = dict(result.fundamental_trace)
        for t, agent_id, _, _, r_tilde, var, _ in result.estimator_trace:
            z.append((r_tilde - result.grid.to_value(truth[t])) / math.sqrt(var))
            agents.append((seed, agent_id))
    z = np.array(z)
    _, cluster = np.unique(agents, axis=0, return_inverse=True)
    assert cluster.max() + 1 == 240 and z.size > 11000
    outside = (np.abs(z) > 1.96).astype(float)
    assert clustered_deviation(z, 0.0, cluster) < 6.0
    assert clustered_deviation(z * z, 1.0, cluster) < 6.0
    assert clustered_deviation(outside, math.erfc(1.96 / math.sqrt(2.0)), cluster) < 6.0
