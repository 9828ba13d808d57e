"""Exogenous fundamental value series.

One series per equity, predetermined and unaffected by agent activity.
Three generated variants plus a file-backed one:

* discrete mean reverting:  r_t = max{0, kappa*r_bar + (1-kappa)*r_{t-1} + u_t}
* Ornstein-Uhlenbeck, sampled sparsely (skip-ahead) via the exact
  conditional distribution of the process
* OU with Poisson-arriving "megashock" jumps from a zero-mean bimodal
  Gaussian mixture
* step-interpolated historical data loaded from a two-column file

Each params type owns its variant: ``source(grid, seed, horizon_T)`` builds
the series, and ``belief_model()`` gives the ``(r_bar, kappa, sigma_s_sq)``
the agents' estimator assumes for it.  The sparse variants accept queries in
nondecreasing time order only; the discrete variant builds its whole series,
steps 0 to the horizon, when it is made, and answers any query from it.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .prices import PriceGrid
from .rng import child_stream

FUNDAMENTAL_STREAM = "fundamental"
MEGASHOCK_ARRIVALS_STREAM = "megashock-arrivals"
MEGASHOCK_SIZES_STREAM = "megashock-sizes"


@dataclass(frozen=True)
class DmrParams:
    """Discrete mean reverting series parameters (values in currency units)."""

    r_bar: float
    kappa: float
    sigma_s_sq: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_bar < math.inf:
            raise ValueError("r_bar must be >= 0 and finite")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if not 0.0 <= self.sigma_s_sq < math.inf:
            raise ValueError("sigma_s_sq must be >= 0 and finite")

    def source(self, grid: PriceGrid, seed: int, horizon_T: int) -> "DmrFundamental":
        return DmrFundamental(self, grid, seed, horizon_T)

    def belief_model(self) -> tuple[float, float, float]:
        return self.r_bar, self.kappa, self.sigma_s_sq


@dataclass(frozen=True)
class OuParams:
    """Ornstein-Uhlenbeck parameters (per unit simulation step)."""

    mu: float
    gamma: float
    sigma_sq: float
    q0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be > 0 and finite")
        if math.exp(-self.gamma) == 1.0:
            # true for gamma up to 2**-54 (about 5.6e-17): 1 - kappa rounds to
            # 1, and the estimator's variance weight would divide by 0
            raise ValueError(f"gamma = {self.gamma!r} is too small: exp(-gamma) rounds to 1")
        if not 0.0 <= self.sigma_sq < math.inf:
            raise ValueError("sigma_sq must be >= 0 and finite")
        if not math.isfinite(self.q0):
            raise ValueError("q0 must be finite")

    def source(self, grid: PriceGrid, seed: int, horizon_T: int) -> "OuFundamental":
        return OuFundamental(self, grid, seed, horizon_T)

    def belief_model(self) -> tuple[float, float, float]:
        """The discrete model with kappa = 1 - exp(-gamma) and the matching
        one-step transition variance, so that the unit-step means and
        variances of the two processes coincide.  Both use ``-expm1``, which
        keeps full precision where ``1 - exp`` cancels."""
        kappa = -math.expm1(-self.gamma)
        sigma_s_sq = self.sigma_sq / (2.0 * self.gamma) * -math.expm1(-2.0 * self.gamma)
        return self.mu, kappa, sigma_s_sq


@dataclass(frozen=True)
class MegashockParams:
    ou: OuParams
    arrival_rate: float
    shock_mean: float
    shock_var: float

    def __post_init__(self) -> None:
        if not 0.0 < self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be > 0 and finite")
        if not 0.0 < self.shock_mean < math.inf:
            raise ValueError("shock_mean must be > 0 and finite")
        if not 0.0 < self.shock_var < math.inf:
            raise ValueError("shock_var must be > 0 and finite")
        if self.shock_var <= self.ou.sigma_sq:
            # Recommended configuration, not a hard constraint.
            warnings.warn(
                "shock_var should exceed the OU base variance sigma_sq",
                stacklevel=2,
            )

    def source(self, grid: PriceGrid, seed: int, horizon_T: int) -> "MegashockFundamental":
        return MegashockFundamental(self, grid, seed, horizon_T)

    def belief_model(self) -> tuple[float, float, float]:
        return self.ou.belief_model()


@dataclass(frozen=True)
class FileParams:
    """A series replayed from the CSV at ``path``, and the discrete mean
    reverting model the agents' estimator assumes for it: the file says
    nothing about the process that generated it."""

    path: str
    r_bar: float
    kappa: float
    sigma_s_sq: float
    _series: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("path must name the series file")
        if not math.isfinite(self.r_bar):
            raise ValueError("r_bar must be finite")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if not 0.0 <= self.sigma_s_sq < math.inf:
            raise ValueError("sigma_s_sq must be >= 0 and finite")

    def source(self, grid: PriceGrid, seed: int, horizon_T: int) -> "FileFundamental":
        """A fresh replay of the series in ``path``; ``seed`` and ``horizon_T``
        play no part.  The first call on ``grid`` reads and parses the file;
        a config's check and its runs share that series."""
        if grid not in self._series:
            with open(self.path, encoding="utf-8") as fh:
                self._series[grid] = FileFundamental.from_text(fh.read(), grid).series
        return FileFundamental(list(self._series[grid]), grid)  # a copy per replay

    def belief_model(self) -> tuple[float, float, float]:
        return self.r_bar, self.kappa, self.sigma_s_sq


def ou_mean_var(q_prev: float, elapsed: float, params: OuParams) -> tuple[float, float]:
    """Exact conditional mean and variance of the OU value after ``elapsed``."""
    if elapsed <= 0.0:
        raise ValueError("elapsed must be > 0")
    mean = params.mu + (q_prev - params.mu) * math.exp(-params.gamma * elapsed)
    var = params.sigma_sq / (2.0 * params.gamma) * -math.expm1(-2.0 * params.gamma * elapsed)
    return mean, var


def dmr_series(params: DmrParams, grid: PriceGrid, shocks: np.ndarray) -> list[int]:
    """The discrete mean reverting series in ticks from r_0 = r_bar: step
    i + 1 is ``max{0, kappa*r_bar + (1-kappa)*r_i + shocks[i]}`` in real
    numbers from the tick value of step i, rounded once to the tick."""
    base, keep, tick = params.kappa * params.r_bar, 1.0 - params.kappa, grid.tick_size
    values = [grid.to_ticks(params.r_bar)]
    for noise in shocks.tolist():
        values.append(max(0, grid.to_ticks(max(0.0, base + keep * (values[-1] * tick) + noise))))
    return values


@dataclass
class DmrFundamental:
    """Discrete mean reverting source over steps 0 to ``horizon_T``.

    All ``horizon_T`` shocks are drawn at construction, in one call on the
    series' own stream, and ``dmr_series`` steps through them once; a run
    reads the value at the horizon, so every step is needed anyway.
    """

    params: DmrParams
    grid: PriceGrid
    seed: int
    horizon_T: int

    def __post_init__(self) -> None:
        shocks = child_stream(self.seed, FUNDAMENTAL_STREAM).normal(
            0.0, math.sqrt(self.params.sigma_s_sq), size=self.horizon_T)
        self._values = dmr_series(self.params, self.grid, shocks)

    def value_at(self, t: int) -> int:
        if t > self.horizon_T:
            raise ValueError(f"t={t} beyond horizon T={self.horizon_T}")
        if t < 0:
            raise ValueError("t must be >= 0")
        return self._values[t]

    def evaluations(self) -> list[tuple[int, int]]:
        return list(enumerate(self._values))


@dataclass
class OuFundamental:
    """Sparse OU source; queries must arrive in nondecreasing time order.

    Internal state is kept in real arithmetic, at the real time ``_clock``;
    rounding to tick happens only on return.
    """

    params: OuParams
    grid: PriceGrid
    seed: int
    horizon_T: int

    def __post_init__(self) -> None:
        self._start(self.params)

    def _start(self, ou: OuParams) -> None:
        self._ou = ou
        self._rng = child_stream(self.seed, FUNDAMENTAL_STREAM)
        self._state = ou.q0
        self._clock = 0.0
        self._trace: list[tuple[int, int]] = [(0, max(0, self.grid.to_ticks(self._state)))]

    def _advance_to(self, when: float) -> None:
        if when > self._clock:
            mean, var = ou_mean_var(self._state, when - self._clock, self._ou)
            self._state = mean + math.sqrt(var) * self._rng.standard_normal()
            self._clock = when

    def _jump_until(self, t: int) -> None:
        """Apply the jumps that arrive by ``t``; a plain OU series has none."""

    def _query(self, t: int) -> int:
        last = self._trace[-1][0]
        if t > self.horizon_T:
            raise ValueError(f"t={t} beyond horizon T={self.horizon_T}")
        if t < last:
            raise ValueError(f"queries must be nondecreasing (got {t} after {last})")
        if t > last:
            self._jump_until(t)
            self._advance_to(float(t))
            self._trace.append((t, max(0, self.grid.to_ticks(self._state))))
        return self._trace[-1][1]

    # each class defines its own value_at, so a per-class wrapper sees one call per query
    def value_at(self, t: int) -> int:
        return self._query(t)

    def evaluations(self) -> list[tuple[int, int]]:
        return list(self._trace)


@dataclass
class MegashockFundamental(OuFundamental):
    """OU source with Poisson-arriving bimodal jumps layered on top.

    Arrivals occur at real-valued times; each shock is applied as an
    instantaneous additive offset to the OU state (the shifted state then
    keeps reverting toward the mean).  Arrivals falling in (last_query, t]
    are processed when t is queried.  Draw order per shock: one uniform
    selects the lobe, then one normal from the sizes stream gives the jump.
    """

    params: MegashockParams

    def __post_init__(self) -> None:
        self._start(self.params.ou)
        self._arrivals = child_stream(self.seed, MEGASHOCK_ARRIVALS_STREAM)
        self._sizes = child_stream(self.seed, MEGASHOCK_SIZES_STREAM)
        self._next_arrival = self._arrivals.exponential(1.0 / self.params.arrival_rate)

    def _jump_until(self, t: int) -> None:
        while self._next_arrival <= t:
            self._advance_to(self._next_arrival)
            sign = 1.0 if self._sizes.random() < 0.5 else -1.0
            shock = self._sizes.normal(sign * self.params.shock_mean,
                                       math.sqrt(self.params.shock_var))
            self._state = max(0.0, self._state + shock)
            self._next_arrival += self._arrivals.exponential(1.0 / self.params.arrival_rate)

    def value_at(self, t: int) -> int:
        return self._query(t)


def file_value_at(t: int, series: list[tuple[int, int]]) -> int:
    """Step interpolation: value at the greatest table timestamp <= t."""
    if not series:
        raise ValueError("fundamental series is empty")
    if t < series[0][0]:
        raise ValueError(f"t={t} precedes first timestamp {series[0][0]}")
    idx = bisect_right(series, t, key=lambda row: row[0]) - 1
    return series[idx][1]


@dataclass
class FileFundamental:
    """Historical series loaded from delimited text (``timestamp,value``)."""

    series: list[tuple[int, int]]
    grid: PriceGrid

    def __post_init__(self) -> None:
        self._trace = [(0, file_value_at(0, self.series))]

    @classmethod
    def from_text(cls, text: str, grid: PriceGrid) -> "FileFundamental":
        """Parse a series of tick values, each >= 0, at integer timestamps
        that start at 0 and strictly increase."""
        series: list[tuple[int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and not _is_number(parts[0]):
                continue  # optional header
            if len(parts) != 2 or not _is_number(parts[0]) or not _is_number(parts[1]):
                raise ValueError(f"malformed fundamental file at line {lineno}: {raw!r}")
            ts = int(float(parts[0]))
            if float(parts[0]) != ts:
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"timestamp must be an integer")
            value = grid.to_ticks(float(parts[1]))
            if value < 0:
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"values must be >= 0")
            if series and ts <= series[-1][0]:
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"timestamps must be strictly increasing")
            series.append((ts, value))
        if not series:
            raise ValueError("fundamental file contains no data rows")
        if series[0][0] != 0:
            raise ValueError(f"the series starts at timestamp {series[0][0]}, not 0")
        return cls(series=series, grid=grid)

    def value_at(self, t: int) -> int:
        value = file_value_at(t, self.series)
        if self._trace[-1][0] != t:
            self._trace.append((t, value))
        return value

    def evaluations(self) -> list[tuple[int, int]]:
        return list(self._trace)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
