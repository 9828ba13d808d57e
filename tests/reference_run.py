"""A plain reference run: ``cdasim.kernel.run``'s market loop written once
more, slowly, from scalar oracles, for differential testing.

``reference_run(config)`` returns the events, trades, agent summaries and
fundamental trace that ``kernel.run`` must equal.  It shares with the
package only the params types, ``rng.child_stream`` and the stream labels,
the estimator formulas, ``PrivateValues`` and the record types
``BookEvent``, ``Trade`` and ``AgentSummary``.  Everything else is plain
code here: every rounding is the exact decimal definition of
``cdasim.prices``; the wakes come from ``scalar_arrivals``; the series
from ``scalar_dmr_series`` and scalar OU, megashock and file loops; the
book is ``ListBook``, a list scan; each HBL wake rebuilds its memory from
the event log with ``hbl_oracle.hbl_classify``; the spline is scipy's;
and ``scalar_choice_oracle`` takes the argmax in a scalar loop.

A change to the market's stated behaviour edits this module in the same
change, so each rule is written once in the package and once here.
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_UP, Decimal
from typing import NamedTuple

import numpy as np

from cdasim import estimator as est
from cdasim.fundamental import (
    FUNDAMENTAL_STREAM,
    MEGASHOCK_ARRIVALS_STREAM,
    MEGASHOCK_SIZES_STREAM,
    DmrParams,
    FileParams,
    MegashockParams,
)
from cdasim.kernel import AgentSummary
from cdasim.orderbook import BookEvent, EventKind, Side, Trade
from cdasim.preferences import PrivateValues
from cdasim.rng import child_stream

from hbl_oracle import hbl_classify


def to_ticks(value: float, tick_size: float, rounding: str = ROUND_HALF_UP) -> int:
    """``value`` in ticks by exact decimal arithmetic: the nearest tick, ties
    away from zero, by default; ``ROUND_FLOOR`` and ``ROUND_CEILING`` give
    the tick at or below and at or above."""
    ratio = Decimal(str(value)) / Decimal(str(tick_size))
    return int(ratio.to_integral_value(rounding=rounding))


def scalar_arrivals(arrival_rate, horizon_T, rng):
    """One exponential draw per gap, ceil, bump collisions by one step."""
    times = []
    clock = 0.0
    while True:
        clock += rng.exponential(1.0 / arrival_rate)
        step = max(math.ceil(clock), times[-1] + 1 if times else 1)
        if step > horizon_T:
            return times
        times.append(step)


def dmr_step(prev: int, params: DmrParams, noise: float, tick_size: float) -> tuple[int, float]:
    """One reversion step from tick price ``prev``: the next price in ticks,
    floored at zero, and the real value it rounds."""
    real = params.kappa * params.r_bar + (1.0 - params.kappa) * (prev * tick_size) + noise
    return max(0, to_ticks(max(0.0, real), tick_size)), real


def dmr_path(params: DmrParams, tick_size: float, shocks) -> tuple[list[int], list[float]]:
    """The series from r_bar's tick over the given shocks, one step at a
    time, and the real value each step rounds."""
    values, reals = [to_ticks(params.r_bar, tick_size)], []
    for noise in np.asarray(shocks).tolist():
        value, real = dmr_step(values[-1], params, noise, tick_size)
        values.append(value)
        reals.append(real)
    return values, reals


def scalar_dmr_series(params: DmrParams, tick_size: float, seed: int,
                      horizon_T: int) -> list[tuple[int, int]]:
    """The DMR series as (step, ticks) rows, one scalar shock draw a step."""
    rng = child_stream(seed, FUNDAMENTAL_STREAM)
    shocks = [rng.normal(0.0, math.sqrt(params.sigma_s_sq)) for _ in range(horizon_T)]
    return list(enumerate(dmr_path(params, tick_size, shocks)[0]))


class ScalarOu:
    """An OU series, with megashock jumps if the params have them, drawn at
    each new query time; queries never go back in time."""

    def __init__(self, params, tick_size: float, seed: int):
        self.shocks = params if isinstance(params, MegashockParams) else None
        self.ou = params.ou if self.shocks else params
        self.tick_size = tick_size
        self.rng = child_stream(seed, FUNDAMENTAL_STREAM)
        self.state, self.clock = self.ou.q0, 0.0
        self.trace = [(0, max(0, to_ticks(self.state, tick_size)))]
        if self.shocks:
            self.arrivals = child_stream(seed, MEGASHOCK_ARRIVALS_STREAM)
            self.sizes = child_stream(seed, MEGASHOCK_SIZES_STREAM)
            self.next_jump = self.arrivals.exponential(1.0 / self.shocks.arrival_rate)

    def advance(self, when: float) -> None:
        """Draw the state at ``when`` from its exact conditional law."""
        if when <= self.clock:
            return
        ou, elapsed = self.ou, when - self.clock
        mean = ou.mu + (self.state - ou.mu) * math.exp(-ou.gamma * elapsed)
        var = ou.sigma_sq / (2.0 * ou.gamma) * -math.expm1(-2.0 * ou.gamma * elapsed)
        self.state = mean + math.sqrt(var) * self.rng.standard_normal()
        self.clock = when

    def value_at(self, t: int) -> int:
        if t > self.trace[-1][0]:
            while self.shocks and self.next_jump <= t:
                self.advance(self.next_jump)
                sign = 1.0 if self.sizes.random() < 0.5 else -1.0
                jump = self.sizes.normal(sign * self.shocks.shock_mean,
                                         math.sqrt(self.shocks.shock_var))
                self.state = max(0.0, self.state + jump)
                self.next_jump += self.arrivals.exponential(1.0 / self.shocks.arrival_rate)
            self.advance(float(t))
            self.trace.append((t, max(0, to_ticks(self.state, self.tick_size))))
        return self.trace[-1][1]


class ScalarFile:
    """A series file's step values, read at each query time."""

    def __init__(self, path: str, tick_size: float):
        self.rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    stamp, value = (float(part) for part in line.split(","))
                except ValueError:
                    continue  # the header
                self.rows.append((int(stamp), to_ticks(value, tick_size)))
        self.trace = [self.rows[0]]

    def value_at(self, t: int) -> int:
        if t != self.trace[-1][0]:
            self.trace.append((t, max(row for row in self.rows if row[0] <= t)[1]))
        return self.trace[-1][1]


class ListBook:
    """Price-time priority by list scan.  ``resting`` holds the PLACED
    events of the resting one-unit orders in placement order, so the first
    one at a price is the oldest there."""

    def __init__(self) -> None:
        self.resting: list[BookEvent] = []
        self.events: list[BookEvent] = []
        self.trades: list[Trade] = []
        self.placed = 0  # orders placed so far

    def best(self, side: Side) -> int | None:
        prices = [e.price for e in self.resting if e.side is side]
        return (max if side is Side.BID else min)(prices, default=None)

    def place(self, agent_id: int, side: Side, price: int, now: int) -> Trade | None:
        """Place the next order, numbered from 1; it trades with the oldest
        order at the opposite touch, at that order's price, if it crosses."""
        self.placed = order_id = self.placed + 1
        placed = BookEvent(EventKind.PLACED, now, order_id, agent_id, side, price)
        self.events.append(placed)
        other = Side.ASK if side is Side.BID else Side.BID
        touch = self.best(other)
        if touch is None or (touch > price if side is Side.BID else touch < price):
            self.resting.append(placed)
            return None
        maker = next(e for e in self.resting if e.side is other and e.price == touch)
        self.resting.remove(maker)
        self.events += [placed._replace(kind=EventKind.EXECUTED, price=touch,
                                        counterparty=maker.order_id),
                        maker._replace(kind=EventKind.EXECUTED, time=now, counterparty=order_id)]
        buy, sell = (placed, maker) if side is Side.BID else (maker, placed)
        self.trades.append(Trade(now, touch, buy.order_id, sell.order_id,
                                 buy.agent_id, sell.agent_id))
        return self.trades[-1]

    def cancel(self, order_id: int, now: int) -> None:
        for placed in self.resting:
            if placed.order_id == order_id:
                self.resting.remove(placed)
                self.events.append(placed._replace(kind=EventKind.CANCELLED, time=now))
                return


def spline_beliefs(points, values, prices) -> np.ndarray:
    """scipy's natural cubic spline through ``(points, values)`` at
    ``prices``, clipped to [0, 1]."""
    from scipy.interpolate import CubicSpline

    return np.clip(CubicSpline(points, values, bc_type="natural")(prices), 0.0, 1.0)


def hbl_candidates(observed: list[int], grid_mode: str) -> list[int]:
    """The observed prices and one tick beyond each extreme (not below 0),
    or every tick across that range in spline mode, unless that range holds
    more than 65,536 ticks."""
    lo, hi = max(0, observed[0] - 1), observed[-1] + 1
    if grid_mode == "spline" and hi - lo + 1 <= 65_536:
        return list(range(lo, hi + 1))
    return sorted(set(observed) | {lo, hi})


def scalar_choice_oracle(memory, candidates, side: Side, valuation: float,
                         tick_size: float, grid_mode: str) -> int:
    """The candidate with the largest expected surplus, scanned from the
    lowest bid or the highest ask with a strict ``>``; each belief array is
    read once.  Spline mode reads the beliefs off the spline through the
    observed prices, given two of them."""
    prices = sorted(candidates, reverse=side is Side.ASK)
    points = memory.prices
    if grid_mode == "spline" and len(points) >= 2:
        beliefs = spline_beliefs(points, memory.belief_array(points, side), prices)
    else:
        beliefs = memory.belief_array(prices, side)
    sign = 1.0 if side is Side.BID else -1.0
    best_price, best_expected = None, -math.inf
    for p, belief in zip(prices, beliefs.tolist()):
        expected = sign * (valuation - p * tick_size) * belief
        if expected > best_expected:
            best_price, best_expected = p, expected
    return best_price


class ReferenceResult(NamedTuple):
    events: list
    trades: list
    agents: list
    fundamental_trace: list
    resting: list  # the PLACED events of the orders resting at the horizon
    informed_wakes: int  # HBL wakes that read a memory


def reference_run(config) -> ReferenceResult:
    tick, seed, horizon = config.tick_size, config.master_seed, config.horizon_T
    zi, hbl, params = config.zi_params, config.hbl_params, config.fundamental
    if isinstance(params, DmrParams):
        trace = scalar_dmr_series(params, tick, seed, horizon)
        value_at = lambda t: trace[t][1]  # noqa: E731
    else:
        source = (ScalarFile(params.path, tick) if isinstance(params, FileParams)
                  else ScalarOu(params, tick, seed))
        value_at, trace = source.value_at, source.trace
    ep = est.EstimatorParams(*params.belief_model(), zi.sigma_n_sq, horizon)
    n = config.n_zi + config.n_hbl
    rngs = [child_stream(seed, f"agent-{i}") for i in range(n)]
    pvs = [PrivateValues.draw(zi.q_max, zi.sigma_pv_sq, rng) for rng in rngs]
    beliefs = [est.initial_belief(ep) for _ in range(n)]
    held = [0] * n
    wakes = sorted((t, i) for i in range(n) for t in scalar_arrivals(
        config.arrival_rate, horizon, child_stream(seed, f"arrivals-{i}")))
    book = ListBook()
    informed = 0

    for t, i in wakes:
        rng, pv, q = rngs[i], pvs[i], held[i]
        noise = rng.normal(0.0, math.sqrt(zi.sigma_n_sq))
        observed = max(0, to_ticks(value_at(t) * tick + noise, tick))
        beliefs[i] = est.observe(est.advance(beliefs[i], t, ep), observed * tick, ep)
        r_hat = est.project_final(beliefs[i], ep)
        for placed in book.resting:
            if placed.agent_id == i:
                book.cancel(placed.order_id, t)
                break
        best_bid, best_ask = book.best(Side.BID), book.best(Side.ASK)

        side = Side.BID if rng.random() < 0.5 else Side.ASK
        if side is Side.BID and not pv.can_buy(q):
            side = Side.ASK
        elif side is Side.ASK and not pv.can_sell(q):
            side = Side.BID
        valuation = pv.buy_valuation(q, r_hat) if side is Side.BID else pv.sell_valuation(q, r_hat)
        if i >= config.n_zi and len(book.trades) >= hbl.memory_length:
            informed += 1
            memory = hbl_classify(book.events, t, hbl)
            candidates = hbl_candidates(memory.prices.tolist(), hbl.grid_mode)
            price = scalar_choice_oracle(memory, candidates, side, valuation, tick,
                                         hbl.grid_mode)
        else:  # ZI, and HBL while uninformed
            requested = rng.uniform(zi.r_min, zi.r_max)
            if side is Side.BID:
                if best_ask is not None and valuation - best_ask * tick >= zi.eta * requested:
                    price = best_ask
                else:
                    price = max(0, to_ticks(valuation - requested, tick, ROUND_FLOOR))
            elif best_bid is not None and best_bid * tick - valuation >= zi.eta * requested:
                price = best_bid
            else:
                price = max(0, to_ticks(valuation + requested, tick, ROUND_CEILING))

        trade = book.place(i, side, price, t)
        if trade is not None:
            held[trade.buyer_id] += 1
            held[trade.seller_id] -= 1

    cash = [0.0] * n
    for trade in book.trades:
        cash[trade.buyer_id] -= trade.price * tick
        cash[trade.seller_id] += trade.price * tick
    final = value_at(horizon) * tick
    agents = [AgentSummary(i, "ZI" if i < config.n_zi else "HBL", cash[i], held[i],
                           cash[i] + held[i] * final + pvs[i].realized(held[i]))
              for i in range(n)]
    return ReferenceResult(book.events, book.trades, agents, trace, book.resting, informed)
