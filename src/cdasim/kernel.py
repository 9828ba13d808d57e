"""Deterministic discrete-event simulation loop.

Agents wake on Poisson schedules; each wake draws a noisy fundamental
observation, updates the agent's belief, projects the final fundamental,
cancels any outstanding order and routes the strategy's new order to the
book.  The kernel does not branch on the fundamental variant: the config's
params build the series (``source``) and name the model the agents'
estimator assumes (``belief_model``).  The book's event log is the only
order record: an HBL agent's memory reads it when the agent decides, so a
run without HBL agents keeps no HBL ledger.  A trade moves only the two
parties' holdings; at the horizon the trade log settles every agent's
cash, and its payoff adds its holdings marked at the final fundamental and
the private values of the units held, up to q_max.

Everything is a pure function of (config, master seed): two runs with the
same inputs produce bit-identical logs.  The fundamental is built on its
own streams from the merged wake times, before the loop starts, so the
agents' decisions cannot perturb it.  The agents' filter variances depend
only on the wake times too, so the estimator's gain schedule is built
before the loop as well.  The loop keeps one estimate per agent; a wake
updates its agent's estimate, and projects it to the horizon, with the
wake's three coefficients.

``run`` pauses the cyclic garbage collector, process-wide, for the call and
then restores the caller's setting, also on a raise: the market makes no
reference cycles, so a collection would only re-scan the event log.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import agents as strategies
from . import estimator as est
from .fundamental import DmrParams, FileParams, MegashockParams, OuParams
from .orderbook import BookEvent, OrderBook, Trade
from .preferences import PrivateValues
from .prices import MAX_TICKS, PriceGrid
from .rng import child_stream

ZI = "ZI"
HBL = "HBL"


@dataclass(frozen=True)
class OutputOptions:
    trace_estimator: bool = False
    trace_decisions: bool = False


@dataclass(frozen=True)
class SimConfig:
    horizon_T: int
    fundamental: DmrParams | OuParams | MegashockParams | FileParams
    n_zi: int
    n_hbl: int
    zi_params: strategies.ZiParams
    hbl_params: strategies.HblParams | None
    arrival_rate: float
    master_seed: int
    tick_size: float = 0.1
    output: OutputOptions = field(default_factory=OutputOptions)

    def __post_init__(self) -> None:
        if self.horizon_T < 1:
            raise ValueError("horizon_T must be >= 1")
        if self.n_zi < 0:
            raise ValueError("n_zi must be >= 0")
        if self.n_hbl < 0:
            raise ValueError("n_hbl must be >= 0")
        if self.n_zi + self.n_hbl < 1:
            raise ValueError("n_zi + n_hbl must be >= 1: the population needs an agent")
        if not 0.0 < self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be > 0 and finite")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        PriceGrid(self.tick_size)  # raises for a tick_size that is not > 0 and finite
        if self.n_hbl > 0 and self.hbl_params is None:
            raise ValueError("hbl_params required when n_hbl > 0")
        if type(self.fundamental) not in (DmrParams, OuParams, MegashockParams, FileParams):
            raise ValueError(f"unknown fundamental params {self.fundamental!r}")
        for name, value in self.fundamental.levels().items():
            if not abs(value) / self.tick_size < MAX_TICKS:
                raise ValueError(f"{name} = {value!r} is {abs(value) / self.tick_size:.3g} ticks "
                                 f"at tick_size {self.tick_size!r}, not below 2**53")


@dataclass
class AgentRecord:
    agent_id: int
    strategy: str
    pv: PrivateValues
    rng: np.random.Generator
    q_held: int = 0
    last_order_id: int | None = None


@dataclass(frozen=True)
class AgentSummary:
    agent_id: int
    strategy: str
    cash: float
    q_held: int
    payoff: float


@dataclass
class SimResult:
    final_fundamental: int  # ticks
    agents: list[AgentSummary]
    events: list[BookEvent]
    trades: list[Trade]
    fundamental_trace: Iterable[tuple[int, int]]  # the source: its table, read in place
    grid: PriceGrid
    invariants_ok: bool
    invariant_summary: dict
    private_values: dict[int, tuple[float, ...]]
    # None when the trace is off, so a trace that is on but has no rows
    # still writes its file.
    # (t, agent_id, delta, observation ticks, r_tilde, sigma_tilde_sq, r_hat)
    estimator_trace: list[tuple] | None = None
    # (t, agent_id, strategy, ActionKind, Side or None, limit ticks or None)
    decision_trace: list[tuple] | None = None


def schedule_arrivals(arrival_rate: float, horizon_T: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing integer wake times from exponential inter-arrivals.

    Real-valued cumulative arrival times are rounded up to the next step;
    collisions after rounding are bumped forward by one step.  The gaps are
    drawn in bulk, a chunk sized a little above the expected number of
    wakes left, and a chunk that stops short of the horizon is followed by
    another.  A bulk draw takes the same values, in order, as one scalar
    draw per gap, and the clock adds them in that order, so the times match
    a scalar loop's.  The gaps drawn past the horizon are wasted, which is
    safe because the stream feeds nothing else.  ``SimConfig`` checks that
    ``arrival_rate`` is > 0 and finite.
    """
    scale = 1.0 / arrival_rate
    chunks = []
    clock = 0.0
    floor = 1  # the earliest step the next wake may take
    while True:
        expected = arrival_rate * (horizon_T - clock)
        # wakes take distinct steps, so horizon_T - floor + 2 gaps always pass it
        size = int(min(expected + 3.0 * math.sqrt(expected), horizon_T - floor + 1)) + 1
        clocks = rng.exponential(scale, size)
        clocks[0] += clock
        np.cumsum(clocks, out=clocks)
        # ceil of a clock clipped just past the horizon: it stays past it and fits int64
        ceil = np.ceil(np.minimum(clocks, horizon_T + 1.0)).astype(np.int64)
        # step_i = max(ceil_i, step_{i-1} + 1), so step_i - i is a running maximum
        idx = np.arange(len(ceil))
        steps = ceil - idx
        steps[0] = max(steps[0], floor)
        np.maximum.accumulate(steps, out=steps)
        steps += idx
        inside = int(np.searchsorted(steps, horizon_T, side="right"))
        chunks.append(steps[:inside])
        if inside < len(steps):
            return np.concatenate(chunks)
        clock = float(clocks[-1])
        floor = int(steps[-1]) + 1


def mark_observation(r_ticks: int, noise_sd: float, rng: np.random.Generator,
                     grid: PriceGrid) -> int:
    """Noisy fundamental observation, rounded to tick and floored at zero.

    ``0.0 + noise_sd * z`` is numpy's own ``normal(0.0, noise_sd)``, drawn
    from the cheaper ``standard_normal`` call.
    """
    o = grid.to_value(r_ticks) + (0.0 + noise_sd * rng.standard_normal())
    ticks = grid.to_ticks(o)
    return ticks if ticks > 0 else 0


def run(config: SimConfig) -> SimResult:
    """Simulate ``config`` to its horizon, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _simulate(config)
    finally:
        if enabled:
            gc.enable()


def _simulate(config: SimConfig) -> SimResult:
    grid = PriceGrid(config.tick_size)
    ep = est.EstimatorParams(*config.fundamental.belief_model(),
                             config.zi_params.sigma_n_sq, config.horizon_T)
    n_agents = config.n_zi + config.n_hbl

    records: list[AgentRecord] = []
    for i in range(n_agents):
        strategy = ZI if i < config.n_zi else HBL
        rng = child_stream(config.master_seed, f"agent-{i}")
        pv = PrivateValues.draw(config.zi_params.q_max, config.zi_params.sigma_pv_sq, rng)
        records.append(AgentRecord(i, strategy, pv, rng))

    schedules = [schedule_arrivals(config.arrival_rate, config.horizon_T,
                                   child_stream(config.master_seed, f"arrivals-{i}"))
                 for i in range(n_agents)]
    wake_ids = np.repeat(np.arange(n_agents), [len(s) for s in schedules])
    wake_times = np.concatenate(schedules)
    order = np.lexsort((wake_ids, wake_times))  # by time, ties by agent_id
    wake_times, wake_ids = wake_times[order], wake_ids[order]
    reads = wake_times.tolist()
    fundamental = config.fundamental.source(grid, config.master_seed, config.horizon_T, reads)
    gains = est.gain_schedule(schedules, order, ep, config.output.trace_estimator)

    book = OrderBook()
    history = strategies.OrderHistory(config.hbl_params) if config.n_hbl else None
    trace_estimator = config.output.trace_estimator
    trace_decisions = config.output.trace_decisions
    estimator_trace = [] if trace_estimator else None
    decision_trace = [] if trace_decisions else None
    breaches: list[str] = []

    q_max = config.zi_params.q_max
    trades = book.trades  # the book's append-only list

    # Loop invariants, looked up once per run; a wrapper installed on any of
    # these functions before the run starts still sees every call.
    zi_params, hbl_params = config.zi_params, config.hbl_params
    noise_sd = math.sqrt(zi_params.sigma_n_sq)
    value_at = fundamental.value_at
    place_limit, cancel = book.place_limit, book.cancel
    zi_decide, hbl_decide = strategies.zi_decide, strategies.hbl_decide
    to_value = grid.to_value
    skip = strategies.SKIP.kind

    # each agent's estimate, from initial_belief; its variance path is the schedule's
    r_bar = ep.r_bar
    r_tilde = [r_bar] * n_agents
    if trace_estimator:
        trace_columns = zip(gains.delta.tolist(), gains.sigma_tilde_sq.tolist())

    for t, agent_id, b, w, d in zip(reads, wake_ids.tolist(), memoryview(gains.decay),
                                    memoryview(gains.obs_weight),
                                    memoryview(gains.final_decay)):
        record = records[agent_id]
        r_ticks = value_at(t)
        o_ticks = mark_observation(r_ticks, noise_sd, record.rng, grid)
        # advance, observe and project_final, with the schedule's coefficients
        r = (1.0 - w) * ((1.0 - b) * r_bar + b * r_tilde[agent_id]) + w * to_value(o_ticks)
        r_tilde[agent_id] = r
        r_hat = (1.0 - d) * r_bar + d * r
        if trace_estimator:
            delta, var = next(trace_columns)
            estimator_trace.append((t, agent_id, delta, o_ticks, r, var, r_hat))

        if record.last_order_id is not None:
            cancel(record.last_order_id, t)  # still resting: a fill clears the id
            record.last_order_id = None

        best_bid, best_ask = book.best_bid(), book.best_ask()
        if record.strategy == ZI:
            action = zi_decide(record.q_held, record.pv, r_hat, best_bid, best_ask,
                               zi_params, record.rng, grid)
        else:
            # the one "informed" gate: hbl_decide falls back to ZI without a memory
            memory = history.memory(book, t) if len(trades) >= hbl_params.memory_length else None
            action = hbl_decide(record.q_held, record.pv, r_hat, memory, hbl_params,
                                zi_params, record.rng, grid, best_bid, best_ask)
        if trace_decisions:
            decision_trace.append((t, agent_id, record.strategy, action.kind,
                                   action.side, action.limit_price))
        if action.kind is skip:
            continue

        events = place_limit(agent_id, action.side, action.limit_price, t)
        if len(events) == 1:
            record.last_order_id = events[0].order_id  # it rests
            continue
        trade = trades[-1]
        buyer = records[trade.buyer_id]
        seller = records[trade.seller_id]
        buyer.q_held += 1
        seller.q_held -= 1
        # the trade filled both parties' one-unit orders
        buyer.last_order_id = seller.last_order_id = None
        # only the two parties to the trade can have moved past the limit
        for party in sorted({trade.buyer_id, trade.seller_id}):
            q_held = records[party].q_held
            if abs(q_held) > q_max:
                breaches.append(f"t={t}: agent {party} holds q={q_held} beyond q_max={q_max}")

    # Settle cash from the trade log: in floats, adding each price in trade
    # order, for agents.csv, and exactly, in ticks, for the conservation check.
    cash, cash_ticks = [0.0] * n_agents, [0] * n_agents
    for _, price, _, _, buyer_id, seller_id in trades:
        value = to_value(price)
        cash[buyer_id] -= value
        cash[seller_id] += value
        cash_ticks[buyer_id] -= price
        cash_ticks[seller_id] += price
    q_total = sum(r.q_held for r in records)
    if sum(cash_ticks) != 0 or q_total != 0:
        breaches.append(f"settlement: cash={sum(cash_ticks)} ticks q={q_total}")

    final_ticks = fundamental.value_at(config.horizon_T)
    final_value = grid.to_value(final_ticks)
    summaries = []
    for record, agent_cash in zip(records, cash):
        q = record.q_held
        payoff = agent_cash + q * final_value + record.pv.realized(q)
        summaries.append(AgentSummary(record.agent_id, record.strategy, agent_cash, q, payoff))

    return SimResult(
        final_fundamental=final_ticks,
        agents=summaries,
        events=book.events,
        trades=trades,
        fundamental_trace=fundamental,
        grid=grid,
        invariants_ok=not breaches,
        invariant_summary={"breaches": breaches, "trades": len(trades),
                           "events": len(book.events), "wakes": len(wake_times)},
        private_values={r.agent_id: r.pv.values for r in records},
        estimator_trace=estimator_trace,
        decision_trace=decision_trace,
    )

