"""Bayesian tracking of the fundamental value from noisy observations.

Each agent keeps a point estimate of the current fundamental together with
its own error variance for that estimate.  Between wakes the estimate is
advanced by pure mean reversion (the shock terms are unknown, so their mean
of zero is used); on waking, the new noisy observation is blended in with
precision weights.  The final fundamental is then projected by reverting
the current estimate over the remaining steps.

The filter is a scalar Kalman filter: its error variance, and so the weight
each observation gets, depends only on the agent's wake times, never on the
values observed.  ``gap_step`` is the rule for one gap between wakes, kappa
= 0 included; ``gain_schedule`` tables it once per distinct gap and builds
that variance path for every agent before the market opens, as one
coefficient triple per wake, so the kernel's wake updates the estimate with
the same expressions and in the same order as ``advance``, ``observe`` and
``project_final``, which are the filter one wake at a time.

All belief arithmetic stays in real numbers; only order limit prices are
ever rounded to ticks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class EstimatorParams:
    """A fundamental params type's ``belief_model()`` and ZI's ``sigma_n_sq``;
    those types check the values."""

    r_bar: float
    kappa: float
    sigma_s_sq: float
    sigma_n_sq: float
    horizon_T: int


class BeliefState(NamedTuple):
    r_tilde: float
    sigma_tilde_sq: float
    last_wake: int


def initial_belief(params: EstimatorParams) -> BeliefState:
    # At t=0 the fundamental is known exactly: r_0 = r_bar.
    return BeliefState(params.r_bar, 0.0, 0)


def gap_step(delta: int, params: EstimatorParams) -> tuple[float, float, float]:
    """The filter's rule for a gap of ``delta`` >= 1 steps: the mean decay
    ``(1-kappa)**delta``, and the variance decay and shock variance that
    advance a variance to ``var_decay * var + shock``.  For kappa = 0 the
    shock weight is 0/0, so its analytic limit, a random walk accumulating
    ``delta * sigma_s_sq``, is used, with a variance decay of 1.0."""
    base = 1.0 - params.kappa
    decay = base ** delta
    if params.kappa == 0.0:
        return decay, 1.0, delta * params.sigma_s_sq
    var_decay = base ** (2 * delta)
    return decay, var_decay, (1.0 - var_decay) / (1.0 - base ** 2) * params.sigma_s_sq


def advance(belief: BeliefState, now: int, params: EstimatorParams) -> BeliefState:
    """Mentally step the belief forward from the last wake time to ``now``
    by ``gap_step``: the mean reverts geometrically toward r_bar."""
    r_tilde, sigma_tilde_sq, last_wake = belief
    if now < last_wake:
        raise ValueError(f"time regression: now={now} < last_wake={last_wake}")
    delta = now - last_wake
    if delta == 0:
        return belief
    decay, var_decay, shock = gap_step(delta, params)
    r_tilde = (1.0 - decay) * params.r_bar + decay * r_tilde
    return BeliefState(r_tilde, var_decay * sigma_tilde_sq + shock, now)


def observe(belief: BeliefState, o_t: float, params: EstimatorParams) -> BeliefState:
    """Blend a fresh observation into an already-advanced belief.

    The prior is weighted by the observation noise and the observation by
    the prior error variance (high self-assessed error means trusting the
    observation more).  When both variances are zero either source is
    exact; the observation is adopted.
    """
    r_tilde, sigma_tilde_sq, last_wake = belief
    total = params.sigma_n_sq + sigma_tilde_sq
    if total == 0.0:
        return BeliefState(o_t, 0.0, last_wake)
    obs_weight = sigma_tilde_sq / total
    r_tilde = (1.0 - obs_weight) * r_tilde + obs_weight * o_t
    var = params.sigma_n_sq * sigma_tilde_sq / total
    return BeliefState(r_tilde, var, last_wake)


def project_final(belief: BeliefState, params: EstimatorParams) -> float:
    """Forecast the fundamental at the horizon by reverting the current estimate."""
    remaining = params.horizon_T - belief.last_wake
    if remaining < 0:
        raise ValueError("belief is past the simulation horizon")
    decay = (1.0 - params.kappa) ** remaining
    return (1.0 - decay) * params.r_bar + decay * belief.r_tilde


class GainSchedule(NamedTuple):
    """The filter's coefficients for every wake, as float64 arrays in merged
    wake order: the advance decay ``(1-kappa)**delta``, the observation
    weight ``sigma_tilde_sq / (sigma_n_sq + sigma_tilde_sq)`` of the
    advanced variance, and the projection decay ``(1-kappa)**(T-t)``.  The
    gap since the agent's last wake and the posterior variance, the
    estimator trace's columns, are kept only when asked for, else None."""

    decay: np.ndarray
    obs_weight: np.ndarray
    final_decay: np.ndarray
    delta: np.ndarray | None = None
    sigma_tilde_sq: np.ndarray | None = None


def gain_schedule(schedules: Sequence[np.ndarray], order: np.ndarray,
                  params: EstimatorParams, trace: bool = False) -> GainSchedule:
    """Every wake's filter coefficients, from each agent's wake times.

    ``schedules`` holds each agent's strictly increasing wake times in
    ``[1, horizon_T]``, and ``order`` takes their concatenation into merged
    wake order.  Each agent starts from ``initial_belief``.  A wake then
    updates its agent's estimate ``r`` to ``(1-w)*((1-b)*r_bar + b*r) +
    w*o`` and projects ``(1-d)*r_bar + d*r``: the expressions of
    ``advance``, ``observe`` and ``project_final`` in their order, so the
    same floats while the estimate stays finite.  The observation weight is
    1 where ``observe`` adopts the observation.

    The schedules are laid out as an (agents x most wakes) array whose
    columns step every agent's variance at once.  Each power is Python's
    ``**``, taken once per distinct gap and per distinct wake time and
    gathered from the tables, so it rounds as the scalar filter's does.
    """
    lengths = np.array([len(s) for s in schedules], dtype=np.int64)
    occupied = np.arange(lengths.max(initial=0)) < lengths[:, None]
    times = np.zeros(occupied.shape, dtype=np.int64)
    times[occupied] = np.concatenate(schedules)
    gaps = times.copy()
    gaps[:, 1:] -= times[:, :-1]
    gaps[~occupied] = 0  # no wake has gap 0, so its table entries stay 0

    counts = np.bincount(gaps.ravel(), minlength=1)
    counts[0] = 0
    steps = np.flatnonzero(counts).tolist()  # the distinct gaps
    # by gap: the mean decay, the variance decay and the shock variance
    table = np.zeros((3, len(counts)))
    table[:, steps] = np.array([gap_step(d, params) for d in steps]).reshape(-1, 3).T
    obs_weight, posterior = _variance_path(gaps, table, params.sigma_n_sq, trace)

    wake = np.flatnonzero(occupied)[order]  # merged wake -> flat (agent, k) index
    gaps = gaps.ravel()[wake]
    times = times.ravel()[wake]
    starts = np.flatnonzero(np.diff(times, prepend=-1))  # each distinct wake time's first wake
    base, horizon_T = 1.0 - params.kappa, params.horizon_T
    final_decays = np.fromiter((base ** (horizon_T - t) for t in memoryview(times[starts])),
                               np.float64, len(starts))
    return GainSchedule(
        decay=table[0][gaps],
        obs_weight=obs_weight.ravel()[wake],
        final_decay=np.repeat(final_decays, np.diff(starts, append=len(times))),
        delta=gaps if trace else None,
        sigma_tilde_sq=posterior.ravel()[wake] if trace else None,
    )


def _variance_path(gaps: np.ndarray, table: np.ndarray, sigma_n_sq: float,
                   trace: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The observation weight of every (agent, wake) of ``gaps``, and the
    posterior variance if ``trace``: ``advance`` and ``observe``'s variance
    arithmetic, stepped one column of wakes at a time, with ``gap_step``'s
    variance decay and shock variance read from ``table`` by gap."""
    obs_weight = np.ones(gaps.shape)
    posterior = np.zeros(gaps.shape) if trace else None
    if sigma_n_sq == 0.0:
        return obs_weight, posterior  # the observation is exact: adopted, variance 0
    var_decay, shock = table[1][gaps.T], table[2][gaps.T]
    var = np.zeros(len(gaps))
    for k in range(gaps.shape[1]):
        prior = var_decay[k] * var
        prior += shock[k]
        total = prior + sigma_n_sq
        np.divide(prior, total, out=obs_weight[:, k])
        var = prior * sigma_n_sq
        var /= total
        if trace:
            posterior[:, k] = var
    return obs_weight, posterior
