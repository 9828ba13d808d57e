"""Exogenous fundamental value series.

One series per equity, predetermined and unaffected by agent activity.
Three generated variants plus a file-backed one:

* discrete mean reverting:  r_t = max{0, kappa*r_bar + (1-kappa)*r_{t-1} + u_t}
* Ornstein-Uhlenbeck, sampled sparsely (skip-ahead) via the exact
  conditional distribution of the process
* OU with Poisson-arriving "megashock" jumps from a zero-mean bimodal
  Gaussian mixture
* step-interpolated historical data loaded from a two-column file

Each params type owns its variant: ``source(grid, seed, horizon_T, reads)``
builds a table of the series from the run's read times, in time order, and
``value_at`` looks a time up in it; ``belief_model()`` gives the ``(r_bar,
kappa, sigma_s_sq)`` the agents' estimator assumes.  The sparse variants
hold 0, each read time and the horizon, by ``_HeldSeries``' one loop;
``OuFundamental`` is the one OU source, with the megashock jumps when its
params have them.  The discrete variant holds every
step from 0 to the horizon, built in verified blocks stepped side by side
with numpy, and steps what they leave one shock at a time; both give the
same ticks.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .prices import MAX_TICKS, PriceGrid
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
        if 1.0 - self.kappa == 1.0 and self.kappa > 0.0:
            # true for kappa up to 2**-54 (about 5.55e-17): 1 - (1-kappa)**2
            # is 0, and the estimator's variance weight would divide by 0
            raise ValueError(f"kappa = {self.kappa!r} is too small: 1 - kappa rounds to 1")
        if not 0.0 <= self.sigma_s_sq < math.inf:
            raise ValueError("sigma_s_sq must be >= 0 and finite")

    def source(self, grid: PriceGrid, seed: int, horizon_T: int,
               reads: Sequence[int]) -> "DmrFundamental":
        return DmrFundamental(self, grid, seed, horizon_T)

    def belief_model(self) -> tuple[float, float, float]:
        return self.r_bar, self.kappa, self.sigma_s_sq

    def levels(self) -> dict[str, float]:
        """The series' mean and start value by field: r_bar is both."""
        return {"r_bar": self.r_bar}


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

    def source(self, grid: PriceGrid, seed: int, horizon_T: int,
               reads: Sequence[int]) -> "OuFundamental":
        return OuFundamental(self, grid, seed, horizon_T, reads)

    def belief_model(self) -> tuple[float, float, float]:
        """The discrete model with kappa = 1 - exp(-gamma) and the matching
        one-step transition variance, so that the unit-step means and
        variances of the two processes coincide.  Both use ``-expm1``, which
        keeps full precision where ``1 - exp`` cancels."""
        kappa = -math.expm1(-self.gamma)
        sigma_s_sq = self.sigma_sq / (2.0 * self.gamma) * -math.expm1(-2.0 * self.gamma)
        return self.mu, kappa, sigma_s_sq

    def levels(self) -> dict[str, float]:
        """The series' mean and start value by field."""
        return {"mu": self.mu, "q0": self.q0}


@dataclass(frozen=True)
class MegashockParams:
    ou: OuParams
    arrival_rate: float
    shock_mean: float
    shock_var: float

    def __post_init__(self) -> None:
        if not 0.0 < self.arrival_rate <= 1.0:
            # at most one expected jump per step: the jumps cost one draw each
            raise ValueError("arrival_rate must be > 0 and at most 1 per step")
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

    def source(self, grid: PriceGrid, seed: int, horizon_T: int,
               reads: Sequence[int]) -> "MegashockFundamental":
        return MegashockFundamental(self, grid, seed, horizon_T, reads)

    def belief_model(self) -> tuple[float, float, float]:
        return self.ou.belief_model()

    def levels(self) -> dict[str, float]:
        return self.ou.levels()


@dataclass(frozen=True)
class FileParams:
    """A series replayed from the CSV at ``path``, and the discrete mean
    reverting ``model`` the agents' estimator assumes for it: the file says
    nothing about the process that generated it."""

    path: str
    model: DmrParams
    _series: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("path must name the series file")

    def source(self, grid: PriceGrid, seed: int, horizon_T: int,
               reads: Sequence[int]) -> "FileFundamental":
        """A replay of the series in ``path``; ``seed`` plays no part.  The
        first call on ``grid`` reads and parses the file; a config's check
        and its runs share that series."""
        if grid not in self._series:
            with open(self.path, encoding="utf-8") as fh:
                self._series[grid] = FileFundamental.from_text(fh.read(), grid).series
        return FileFundamental(self._series[grid], grid, horizon_T, reads)

    def belief_model(self) -> tuple[float, float, float]:
        return self.model.belief_model()

    def levels(self) -> dict[str, float]:
        """The model's mean; the file's values are checked as it is read."""
        return self.model.levels()


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
    numbers from the tick value of step i, rounded once to the tick.

    ``_dmr_blocks`` builds as long a prefix as its verified block passes
    settle, and this loop steps the rest one shock at a time."""
    base, keep, tick = params.kappa * params.r_bar, 1.0 - params.kappa, grid.tick_size
    values = _dmr_blocks(params, grid, shocks)
    for noise in shocks[len(values) - 1:].tolist():
        values.append(max(0, grid.to_ticks(max(0.0, base + keep * (values[-1] * tick) + noise))))
    return values


_BLOCK = 64  # steps per block of the parallel passes
_MIN_BLOCKS = 128  # a shorter series is left to the step loop


def _dmr_blocks(params: DmrParams, grid: PriceGrid, shocks: np.ndarray) -> list[int]:
    """A prefix of the series, from step 0, computed in parallel in time.

    The shocks are cut into blocks of ``_BLOCK`` steps, and each pass steps
    the unsettled blocks side by side with numpy, each from a guessed
    start: r_bar's tick at first, then its left neighbour's end in the pass
    before.  Block 0 starts from the true r_0, and a block whose start
    equals its left neighbour's end is exact if that neighbour is, so the
    settled blocks are a prefix that each pass extends by at least one.
    That check alone makes the prefix exact.  Mean reversion only makes it
    fast: a block shrinks the gap between two paths by ``(1 - kappa) **
    _BLOCK``, and rounded paths from different starts meet, then agree for
    good, so the share of unsettled blocks whose start disagrees with its
    neighbour's end falls with each pass.  The step loop is left the rest
    when a block would shrink a gap less than eightfold (kappa below about
    0.032, and kappa = 0), when there are fewer than ``_MIN_BLOCKS`` blocks,
    when that share stops falling and when a price leaves the float range
    of ``PriceGrid.to_ticks_array``.

    What the blocks buy, measured with the bench at seed 11 on a 2-core
    Xeon container (ten alternating pairs of ``--seconds 10`` runs against
    a copy that returns ``[start]`` here): desk's median ``wall_s`` is 0.346
    s with the blocks and 0.392 s without (+13%, the blocks faster in 9 of
    10 pairs), and zi_crowd's 0.443 and 0.460 s (+4%, 7 of 10 pairs).
    """
    start = grid.to_ticks(params.r_bar)
    n_blocks = shocks.size // _BLOCK
    base, keep, tick = params.kappa * params.r_bar, 1.0 - params.kappa, grid.tick_size
    if n_blocks < _MIN_BLOCKS or keep ** _BLOCK > 0.125:
        return [start]
    series = np.empty(n_blocks * _BLOCK + 1, dtype=np.int64)
    series[0] = start
    blocks = series[1:].reshape(n_blocks, _BLOCK)  # views: no copy of the shocks
    noise = shocks[:n_blocks * _BLOCK].reshape(n_blocks, _BLOCK)
    starts = np.full(n_blocks, start, dtype=np.int64)
    done = 0  # blocks [0, done) are exact
    disagreed = math.inf  # share of the unsettled starts that disagreed after the last pass
    while True:
        ticks = starts
        for step in range(_BLOCK):
            real = ticks * tick
            real *= keep
            real += base
            real += noise[done:, step]
            ticks = grid.to_ticks_array(np.maximum(real, 0.0, out=real))
            if ticks is None:
                return series[:done * _BLOCK + 1].tolist()
            blocks[done:, step] = ticks
        ends = blocks[done:, -1]
        wrong = (starts[1:] != ends[:-1]).nonzero()[0]
        if not wrong.size:
            return series.tolist()
        settled = int(wrong[0]) + 1
        share = wrong.size / (ends.size - 1)
        if share >= disagreed:
            return series[:(done + settled) * _BLOCK + 1].tolist()
        done, disagreed = done + settled, share
        starts = ends[settled - 1:-1].copy()


@dataclass
class DmrFundamental:
    """Discrete mean reverting source over steps 0 to ``horizon_T``.

    All ``horizon_T`` shocks are drawn at construction, in one call on the
    series' own stream, and ``dmr_series`` builds the series from them; a
    run reads the value at the horizon, so every step is needed anyway.
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


class _HeldSeries:
    """A sparse series held at 0, at each of ``reads`` and at the horizon:
    the one hold-at-reads loop of the sparse sources."""

    def _hold(self, start: tuple[int, int], value: Callable[[int], int]) -> None:
        """Trace ``start`` and then ``value(t)`` at each new time, in time order."""
        self._trace = [start]
        for t in chain(self.reads, (self.horizon_T,)):
            if t > self._trace[-1][0]:
                self._trace.append((t, value(t)))
        self._ticks = dict(self._trace)

    def evaluations(self) -> list[tuple[int, int]]:
        return list(self._trace)


@dataclass
class OuFundamental(_HeldSeries):
    """Sparse OU source: the series drawn at 0, at each of ``reads`` and at
    the horizon, one skip-ahead draw per new time, with megashock jumps when
    the params are ``MegashockParams``.

    The state is kept in real arithmetic, at the real time ``_clock``, and
    rounded to tick only in the trace.
    """

    params: OuParams | MegashockParams
    grid: PriceGrid
    seed: int
    horizon_T: int
    reads: Sequence[int]

    def __post_init__(self) -> None:
        self._shocks = self.params if isinstance(self.params, MegashockParams) else None
        self._ou = self._shocks.ou if self._shocks else self.params
        self._rng = child_stream(self.seed, FUNDAMENTAL_STREAM)
        self._state, self._clock = self._ou.q0, 0.0
        if self._shocks:
            self._arrivals = child_stream(self.seed, MEGASHOCK_ARRIVALS_STREAM)
            self._sizes = child_stream(self.seed, MEGASHOCK_SIZES_STREAM)
            self._next_jump = self._arrivals.exponential(1.0 / self._shocks.arrival_rate)
        self._hold((0, max(0, self.grid.to_ticks(self._state))), self._draw)

    def _advance_to(self, when: float) -> None:
        if when > self._clock:
            mean, var = ou_mean_var(self._state, when - self._clock, self._ou)
            self._state = mean + math.sqrt(var) * self._rng.standard_normal()
            self._clock = when

    def _draw(self, t: int) -> int:
        """The value at a new time ``t``, after the jumps that arrive by ``t``."""
        shocks = self._shocks
        while shocks and self._next_jump <= t:
            self._advance_to(self._next_jump)
            sign = 1.0 if self._sizes.random() < 0.5 else -1.0
            jump = self._sizes.normal(sign * shocks.shock_mean, math.sqrt(shocks.shock_var))
            self._state = max(0.0, self._state + jump)
            self._next_jump += self._arrivals.exponential(1.0 / shocks.arrival_rate)
        self._advance_to(float(t))
        return max(0, self.grid.to_ticks(self._state))

    # each class defines its own value_at, so a per-class wrapper sees one call per read
    def value_at(self, t: int) -> int:
        return self._ticks[t]


@dataclass
class MegashockFundamental(OuFundamental):
    """OU source with Poisson-arriving bimodal jumps layered on top, by
    ``OuFundamental``'s draw loop.

    Arrivals occur at real-valued times; each shock is applied as an
    instantaneous additive offset to the OU state (the shifted state then
    keeps reverting toward the mean).  The arrivals up to each new time t
    are applied before the draw at t.  Draw order per shock: one uniform
    selects the lobe, then one normal from the sizes stream gives the jump.
    """

    params: MegashockParams

    def value_at(self, t: int) -> int:
        return self._ticks[t]


@dataclass
class FileFundamental(_HeldSeries):
    """Historical series loaded from delimited text (``timestamp,value``),
    read at 0, at each of ``reads`` and at ``horizon_T`` by step interpolation."""

    series: list[tuple[int, int]]
    grid: PriceGrid
    horizon_T: int = 0
    reads: Sequence[int] = ()

    def __post_init__(self) -> None:
        if self.series[0][0] != 0:
            raise ValueError(f"the series starts at timestamp {self.series[0][0]}, not 0")
        stamps = [stamp for stamp, _ in self.series]
        self._hold(self.series[0], lambda t: self.series[bisect_right(stamps, t) - 1][1])

    @classmethod
    def from_text(cls, text: str, grid: PriceGrid) -> "FileFundamental":
        """Parse a series of finite tick values, each >= 0, at integer
        timestamps that start at 0 and strictly increase; the source it
        gives reads the series at 0 only."""
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
            stamp, real = float(parts[0]), float(parts[1])
            if not (math.isfinite(stamp) and math.isfinite(real)):
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"timestamp and value must be finite")
            ts = int(stamp)
            if stamp != ts:
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"timestamp must be an integer")
            value = grid.to_ticks(real)
            if value < 0:
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"values must be >= 0")
            if value >= MAX_TICKS:
                raise ValueError(f"fundamental file at line {lineno}: "
                                 f"values must be below 2**53 ticks")
            if series and ts <= series[-1][0]:
                raise ValueError(f"malformed fundamental file at line {lineno}: "
                                 f"timestamps must be strictly increasing")
            series.append((ts, value))
        if not series:
            raise ValueError("fundamental file contains no data rows")
        return cls(series=series, grid=grid)

    def value_at(self, t: int) -> int:
        return self._ticks[t]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
