"""Bayesian tracking of the fundamental value from noisy observations.

Each agent keeps a point estimate of the current fundamental together with
its own error variance for that estimate.  Between wakes the estimate is
advanced by pure mean reversion (the shock terms are unknown, so their mean
of zero is used); on waking, the new noisy observation is blended in with
precision weights.  The final fundamental is then projected by reverting
the current estimate over the remaining steps.

All belief arithmetic stays in real numbers; only order limit prices are
ever rounded to ticks.  ``advance`` and ``observe`` run on every wake and
build their ``BeliefState`` with ``tuple.__new__``, as the order book
builds its events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


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


def advance(belief: BeliefState, now: int, params: EstimatorParams) -> BeliefState:
    """Mentally step the belief forward from the last wake time to ``now``.

    The mean reverts geometrically toward r_bar; the error variance mixes
    the prior error with accumulated shock variance.  For kappa = 0 the
    closed-form weight is 0/0, so its analytic limit (a pure random walk
    accumulating delta * sigma_s_sq) is used instead.
    """
    r_tilde, sigma_tilde_sq, last_wake = belief
    if now < last_wake:
        raise ValueError(f"time regression: now={now} < last_wake={last_wake}")
    delta = now - last_wake
    if delta == 0:
        return belief
    decay = (1.0 - params.kappa) ** delta
    r_tilde = (1.0 - decay) * params.r_bar + decay * r_tilde
    if params.kappa == 0.0:
        var = sigma_tilde_sq + delta * params.sigma_s_sq
    else:
        decay_sq = (1.0 - params.kappa) ** (2 * delta)
        shock_weight = (1.0 - decay_sq) / (1.0 - (1.0 - params.kappa) ** 2)
        var = decay_sq * sigma_tilde_sq + shock_weight * params.sigma_s_sq
    return tuple.__new__(BeliefState, (r_tilde, var, now))


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
        return tuple.__new__(BeliefState, (o_t, 0.0, last_wake))
    obs_weight = sigma_tilde_sq / total
    r_tilde = (1.0 - obs_weight) * r_tilde + obs_weight * o_t
    var = params.sigma_n_sq * sigma_tilde_sq / total
    return tuple.__new__(BeliefState, (r_tilde, var, last_wake))


def project_final(belief: BeliefState, params: EstimatorParams) -> float:
    """Forecast the fundamental at the horizon by reverting the current estimate."""
    remaining = params.horizon_T - belief.last_wake
    if remaining < 0:
        raise ValueError("belief is past the simulation horizon")
    decay = (1.0 - params.kappa) ** remaining
    return (1.0 - decay) * params.r_bar + decay * belief.r_tilde
