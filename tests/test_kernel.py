import ast
import dataclasses
import gc
import importlib
import itertools
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cdasim import agents, kernel, orderbook
from cdasim import estimator as est
from cdasim.agents import HblParams, OrderHistory, ZiParams
from cdasim.cli import build_config, emit_outputs, parse_config, run_one
from cdasim.fundamental import (
    DmrFundamental,
    DmrParams,
    FileParams,
    MegashockParams,
    OuParams,
)
from cdasim.kernel import (
    OutputOptions,
    mark_observation,
    run,
    schedule_arrivals,
)
from cdasim.orderbook import EventKind, OrderBook
from cdasim.preferences import PrivateValues
from cdasim.prices import PriceGrid
from cdasim.rng import child_stream

from conftest import (HBL_PARAMS, ZI_PARAMS, greedy_buyer, greedy_seller, load_bench,
                      make_config, named, replay, resting_ids, settled_payoff)
from reference_run import reference_run, scalar_arrivals


# ---------------------------------------------------------------------------
# wake scheduling and observations
# ---------------------------------------------------------------------------


def test_schedule_arrivals_mean_spacing():
    # integer arrivals inherit the continuous rate: count over a long
    # horizon matches rate * T within 2%
    rng = np.random.default_rng(100)
    times = schedule_arrivals(0.1, 200_000, rng)
    assert len(times) == pytest.approx(0.1 * 200_000, rel=0.02)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("method", ["random", "standard_normal"])
def test_bulk_draws_equal_scalar_draws(method, n):
    # on the installed numpy, one bulk call takes the same numbers in the same
    # order as n scalar calls, and leaves the stream where they leave it; a
    # stream can then be drawn once per agent before the market opens and
    # read one number per wake, as the reference run reads it
    bulk_rng, scalar_rng = child_stream(3, "agent-0"), child_stream(3, "agent-0")
    bulk = getattr(bulk_rng, method)(n).tolist()
    scalar = [getattr(scalar_rng, method)() for _ in range(n)]
    assert bulk == scalar
    assert getattr(bulk_rng, method)() == getattr(scalar_rng, method)()


def test_schedule_arrivals_rejects_bad_rate():
    # schedule_arrivals takes its rate from SimConfig, which owns the rule
    for rate in (0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="arrival_rate must be > 0 and finite"):
            make_config(arrival_rate=rate)


def test_nan_arrival_rate_rejected():
    with pytest.raises(ValueError, match="arrival_rate must be > 0 and finite"):
        make_config(arrival_rate=math.nan)


class CappedDraws:
    """A Generator whose bulk exponential draws stop at ``cap`` values.

    A bulk draw takes its values from the stream in order, so a short chunk
    leaves the stream where the same number of scalar draws would; it makes
    ``schedule_arrivals`` take its refill path.
    """

    def __init__(self, rng, cap):
        self.rng, self.cap, self.calls = rng, cap, 0

    def exponential(self, scale, size):
        self.calls += 1
        return self.rng.exponential(scale, min(size, self.cap))


@settings(max_examples=300)
@given(rate=st.floats(0.001, 2.0), horizon=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1), cap=st.one_of(st.none(), st.integers(1, 40)))
def test_schedule_arrivals_matches_scalar_oracle(rate, horizon, seed, cap):
    rng = np.random.default_rng(seed)
    drawn = rng if cap is None else CappedDraws(rng, cap)
    times = schedule_arrivals(rate, horizon, drawn)
    assert times.dtype == np.int64
    assert times.tolist() == scalar_arrivals(rate, horizon, np.random.default_rng(seed))


@pytest.mark.parametrize(("rate", "horizon"), [(2.0, 50), (1.0, 400), (0.3, 2000),
                                               (0.01, 20_000), (0.001, 5000),
                                               (math.inf, 60)])
def test_schedule_arrivals_refills_like_scalar_oracle(rate, horizon):
    # short chunks force many refills; rates above 1 make rounding collide
    oracle = scalar_arrivals(rate, horizon, np.random.default_rng(31))
    for cap in (1, 2, 7):
        drawn = CappedDraws(np.random.default_rng(31), cap)
        assert schedule_arrivals(rate, horizon, drawn).tolist() == oracle
        assert drawn.calls > len(oracle) // cap
    if rate > 1.0:
        # about two arrivals per step: only the collision bump keeps the
        # steps distinct, and it fills nearly every step
        assert len(oracle) > 0.9 * horizon


def test_schedule_arrivals_draws_once_when_unchunked():
    drawn = CappedDraws(np.random.default_rng(8), cap=10**9)
    times = schedule_arrivals(0.01, 30_000, drawn)
    assert drawn.calls == 1 and len(times) > 200


def test_observation_noise_is_numpy_normal():
    # 0.0 + sd * standard_normal() is numpy's own normal(0.0, sd): twin
    # generators give the same noise and leave their streams in step
    ours, numpys = np.random.default_rng(77), np.random.default_rng(77)
    for i in range(100_000):
        sd = math.sqrt((i % 17) * 0.83)
        noise = 0.0 + sd * ours.standard_normal()
        assert noise == numpys.normal(0.0, sd), i
    assert ours.random() == numpys.random()


def test_mark_observation_matches_normal_draw(grid_01, grid_001):
    ours, numpys = np.random.default_rng(5), np.random.default_rng(5)
    for i in range(2000):
        grid = grid_01 if i % 2 else grid_001
        sigma_n_sq = (i % 9) * 1.7
        r_ticks = 900 + i % 300
        expected = max(0, grid.to_ticks(grid.to_value(r_ticks)
                                        + numpys.normal(0.0, math.sqrt(sigma_n_sq))))
        assert mark_observation(r_ticks, math.sqrt(sigma_n_sq), ours, grid) == expected


def test_mark_observation_noiseless(grid_01):
    rng = np.random.default_rng(0)
    assert mark_observation(1000, 0.0, rng, grid_01) == 1000


def test_mark_observation_floors_at_zero(grid_01):
    rng = np.random.default_rng(0)
    lows = [mark_observation(1, 10.0, rng, grid_01) for _ in range(200)]
    assert min(lows) == 0


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def assert_cash_conserved_in_ticks(result):
    # each agent's cash rounds to the whole ticks its trades moved, and
    # those cancel exactly
    ticks = {a.agent_id: 0 for a in result.agents}
    for trade in result.trades:
        ticks[trade.buyer_id] -= trade.price
        ticks[trade.seller_id] += trade.price
    assert {a.agent_id: result.grid.to_ticks(a.cash) for a in result.agents} == ticks
    assert sum(ticks.values()) == 0
    assert sum(a.q_held for a in result.agents) == 0


SMALL_OU = OuParams(mu=100.0, gamma=0.05, sigma_sq=2.0, q0=95.0)
SMALL_FUNDAMENTALS = {
    "dmr": DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0),
    "dmr-flat": DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=0.0),
    "ou": SMALL_OU,
    "ou-flat": OuParams(mu=100.0, gamma=0.05, sigma_sq=0.0, q0=95.0),
    "megashock": MegashockParams(ou=SMALL_OU, arrival_rate=0.01, shock_mean=5.0,
                                 shock_var=4.0),
    "file": None,  # the small_series fixture
}
# DMR at both ends of kappa: the random-walk limit and full reversion
EDGE_FUNDAMENTALS = {
    "dmr-kappa0": DmrParams(r_bar=100.0, kappa=0.0, sigma_s_sq=1.0),
    "dmr-kappa1": DmrParams(r_bar=100.0, kappa=1.0, sigma_s_sq=1.0),
}
TICK_SIZES = (0.1, 1.0, 0.01)
# every success mode and grid mode on every fundamental; the tick sizes
# take turns so that each mode and each fundamental meets all three
CELLS = [(success, grid, variant, TICK_SIZES[(m + v) % 3])
         for m, (success, grid) in enumerate(itertools.product(("binary", "fractional"),
                                                               ("observed", "spline")))
         for v, variant in enumerate(SMALL_FUNDAMENTALS)]
# kappa touches no HBL mode, so each edge meets each success mode and each
# grid mode once; appended, so that every cell above keeps its index, which
# seeds its drawn configs
CELLS += [("binary", "observed", "dmr-kappa0", 0.1), ("fractional", "spline", "dmr-kappa0", 1.0),
          ("binary", "observed", "dmr-kappa1", 0.01), ("fractional", "spline", "dmr-kappa1", 0.1)]


@pytest.fixture(scope="module")
def small_series(tmp_path_factory):
    """A stepped series for the file variant, past the longest small horizon."""
    path = tmp_path_factory.mktemp("series") / "fund.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"{t},{100.0 + ((t * 7919) % 13 - 6) * 0.5:.1f}\n" for t in range(0, 801, 40)))
    return FileParams(str(path), DmrParams(100.0, 0.05, 1.0))


@st.composite
def small_configs(draw, fundamental, success_mode, grid_mode, tick_size):
    """Short runs of three to seven agents, one to three of them HBL, at
    edge parameters; at most about 160 wakes per agent."""
    n_zi, n_hbl = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    zi = ZiParams(r_min=0.0, r_max=draw(st.sampled_from([0.2, 1.0, 4.0])),
                  eta=draw(st.sampled_from([0.0, 0.5, 1.0])),
                  sigma_n_sq=draw(st.sampled_from([10.0, 0.0])),
                  q_max=draw(st.integers(1, 3)),
                  sigma_pv_sq=draw(st.sampled_from([100.0, 25.0, 0.0])))
    hbl = HblParams(memory_length=draw(st.integers(1, 4)),
                    grace_period=draw(st.integers(1, 60)),
                    success_mode=success_mode, grid_mode=grid_mode)
    horizon = draw(st.sampled_from([300, 800, 60]))
    rate = draw(st.sampled_from([0.2, 0.05] if horizon == 800 else [0.2, 0.05, 0.5]))
    return make_config(horizon_T=horizon, n_zi=max(n_zi, 3 - n_hbl), n_hbl=n_hbl,
                       zi_params=zi, hbl_params=hbl, arrival_rate=rate,
                       fundamental=fundamental, tick_size=tick_size,
                       master_seed=draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("success_mode, grid_mode, variant, tick_size", CELLS)
def test_run_equals_reference_run(success_mode, grid_mode, variant, tick_size, small_series):
    # the kernel against the plain reference run on one busy market, whose HBL
    # wakes must read a memory, the same market with ZI agents only, and three
    # configs drawn under the cell's seed
    fundamental = {**SMALL_FUNDAMENTALS, **EDGE_FUNDAMENTALS}[variant] or small_series
    index = CELLS.index((success_mode, grid_mode, variant, tick_size))
    busy = make_config(horizon_T=300, n_zi=4, n_hbl=2, arrival_rate=0.2,
                       zi_params=ZiParams(0.0, 1.0, 0.5, 10.0, 2, 25.0),
                       hbl_params=HblParams(1, 20, success_mode, grid_mode),
                       fundamental=fundamental, tick_size=tick_size, master_seed=index)
    zi_only = dataclasses.replace(busy, n_zi=6, n_hbl=0, hbl_params=None)

    @seed(index)
    @settings(max_examples=3)
    @given(small_configs(fundamental, success_mode, grid_mode, tick_size))
    @example(busy)
    @example(zi_only)
    def check(config):
        result = run(config)
        expected = reference_run(config)
        assert result.events == expected.events
        assert result.trades == expected.trades
        assert result.agents == expected.agents
        assert list(result.fundamental_trace) == expected.fundamental_trace
        assert result.invariants_ok
        assert result.invariant_summary["trades"] == len(expected.trades)
        assert_cash_conserved_in_ticks(result)
        # the book the log rebuilds, numbering the orders as the run did, logs
        # the same events and rests the same orders
        book = replay(result.events)
        assert (book.events, book.trades) == (result.events, result.trades)
        assert resting_ids(book) == {placed.order_id for placed in expected.resting}
        # the fixed markets trade, so the conservation checks are not vacuous
        assert config not in (busy, zi_only) or expected.trades
        assert config is not busy or expected.informed_wakes > 0

    check()


@pytest.mark.parametrize("variant", ["ou", "megashock", "file"])
def test_sparse_fundamental_independent_of_strategy_split(variant, small_series):
    # a sparse series is read at the wake times, which depend on the number
    # of agents but not on their strategies: at one population size the
    # series is the same whatever the ZI/HBL split
    fundamental = SMALL_FUNDAMENTALS[variant] or small_series
    traces = [list(run(make_config(horizon_T=800, n_zi=6 - n_hbl, n_hbl=n_hbl, arrival_rate=0.05,
                                   fundamental=fundamental)).fundamental_trace)
              for n_hbl in (0, 1, 3)]
    assert len(traces[0]) > 100
    assert traces[0] == traces[1] == traces[2]


def test_run_traces_enabled():
    result = run(make_config(output=OutputOptions(trace_estimator=True,
                                                  trace_decisions=True)))
    assert result.estimator_trace
    assert result.decision_trace
    wake_count = result.invariant_summary["wakes"]
    assert len(result.estimator_trace) == wake_count
    assert len(result.decision_trace) == wake_count
    # estimator trace rows carry positive gaps and finite beliefs
    for t, agent_id, delta, o, r_tilde, var, r_hat in result.estimator_trace:
        assert delta > 0
        assert var >= 0.0
        assert math.isfinite(r_hat)


@pytest.mark.parametrize("fundamental", [
    DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0),
    MegashockParams(ou=OuParams(mu=100.0, gamma=0.2, sigma_sq=3.0, q0=90.0),
                    arrival_rate=0.001, shock_mean=40.0, shock_var=50.0),
])
def test_estimator_uses_belief_model_agent_noise_and_horizon(fundamental):
    # every agent's beliefs follow the params' belief model, the agents'
    # observation noise and the run's horizon, from the first wake on
    config = make_config(fundamental=fundamental, horizon_T=1500,
                         output=OutputOptions(trace_estimator=True))
    result = run(config)
    ep = est.EstimatorParams(*fundamental.belief_model(), ZI_PARAMS.sigma_n_sq, 1500)
    beliefs = {}
    for t, agent_id, _, o, r_tilde, var, r_hat in result.estimator_trace:
        belief = est.advance(beliefs.get(agent_id, est.initial_belief(ep)), t, ep)
        belief = beliefs[agent_id] = est.observe(belief, result.grid.to_value(o), ep)
        assert (belief.r_tilde, belief.sigma_tilde_sq) == (r_tilde, var)
        assert est.project_final(belief, ep) == r_hat
    assert len(beliefs) == config.n_zi + config.n_hbl


def test_trace_rows_format_each_tick_once(monkeypatch, tmp_path):
    # every CSV of a run, trace rows included, takes its price strings from
    # one per-run cache
    formatted = []
    fmt = PriceGrid.format
    monkeypatch.setattr(PriceGrid, "format",
                        lambda grid, ticks: formatted.append(ticks) or fmt(grid, ticks))
    resolved = parse_config("[market]\nhorizon = 2000\nseed = 7\n"
                            "[agents]\nzi_count = 10\nhbl_count = 3\nq_max = 5\n"
                            "[output]\ntrace_estimator = true\ntrace_decisions = true\n")
    assert run_one(resolved, str(tmp_path))
    assert len(formatted) == len(set(formatted))
    rows = (tmp_path / "estimator_trace.csv").read_text().count("\n") - 1
    assert 0 < len(formatted) < rows
    assert (tmp_path / "decisions.csv").exists()


def test_wake_call_structure(monkeypatch):
    # Per-layer tracing wraps these public names from outside the package and
    # counts wakes by mark_observation calls; every wake must call each of
    # them through its name, in this order.  The candidate grid is built
    # inside an informed hbl_decide, and only there.  The scalar filter
    # functions are wrapped too: the kernel's filter runs on the gain
    # schedule and calls none of them.
    targets = [
        (DmrFundamental, "value_at"),
        (kernel, "mark_observation"),
        (est, "advance"),
        (est, "observe"),
        (est, "project_final"),
        (agents, "zi_decide"),
        (agents, "hbl_decide"),
        (agents, "hbl_candidate_grid"),
        (OrderHistory, "memory"),
        (OrderBook, "place_limit"),
        (OrderBook, "cancel"),
    ]
    calls = []  # (name, nesting depth, result) in call order
    depth = [0]

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            i = len(calls)
            calls.append(None)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            calls[i] = (name, depth[0], result)
            return result
        return wrapper

    for owner, attr in targets:
        monkeypatch.setattr(owner, attr, counted(getattr(owner, attr), attr))
    config = make_config(n_zi=10, n_hbl=5, horizon_T=3000, arrival_rate=0.02)
    result = run(config)

    top = [(i, name, res) for i, (name, d, res) in enumerate(calls) if d == 0]
    names = [name for _, name, _ in top]
    assert "hbl_candidate_grid" not in names
    assert not {"advance", "observe", "project_final"} & {name for name, _, _ in calls}
    marks = [i for i, name in enumerate(names) if name == "mark_observation"]
    assert len(marks) == result.invariant_summary["wakes"]
    # the final settlement reads the fundamental once, after the last wake
    assert names[marks[-1] + 1:].count("value_at") == 1
    assert names[-1] == "value_at"
    wake_starts = [i - 1 for i in marks] + [len(names) - 1]
    memory_calls = 0
    for start, end in zip(wake_starts, wake_starts[1:]):
        wake = names[start:end]
        assert wake[:2] == ["value_at", "mark_observation"]
        rest = wake[2:]
        if rest[:1] == ["cancel"]:
            rest = rest[1:]
        informed = rest[:1] == ["memory"]
        if informed:
            memory_calls += 1
            rest = rest[1:]
            assert rest[:1] == ["hbl_decide"]
        assert rest[:1] in (["zi_decide"], ["hbl_decide"])
        assert rest[1:] in ([], ["place_limit"])
        # the calls nested in the decision: one candidate grid if informed,
        # the ZI fallback if not
        k = end - len(rest)
        nested = [(name, d) for name, d, _ in calls[top[k][0] + 1:top[k + 1][0]]]
        if rest[0] == "hbl_decide":
            assert nested == [("hbl_candidate_grid", 1) if informed else ("zi_decide", 1)]
        else:
            assert nested == []
    assert names.count("zi_decide") + names.count("hbl_decide") == len(marks)
    assert names.count("hbl_decide") > 0 and memory_calls > 0
    # a filled order is never cancelled: every cancel removes a resting order
    cancels = [res for _, name, res in top if name == "cancel"]
    assert cancels and all(res is not None for res in cancels)
    assert len(cancels) == sum(e.kind is EventKind.CANCELLED for e in named(result.events))


def test_hbl_falls_back_until_enough_transactions(monkeypatch):
    # the kernel alone gates the HBL memory: a wake queries it exactly when
    # the book holds at least memory_length trades, and hbl_decide falls
    # back to zi_decide exactly when it gets no memory
    books, queried, wakes, fallbacks = [], [], [], []

    class LoggedBook(OrderBook):
        def __init__(self):
            super().__init__()
            books.append(self)

    memory, decide, zi_decide = OrderHistory.memory, agents.hbl_decide, agents.zi_decide

    def logged_memory(self, book, now):
        queried.append(len(book.trades))
        return memory(self, book, now)

    def logged_decide(*args):
        before = len(fallbacks)
        action = decide(*args)
        wakes.append((len(books[0].trades), args[3] is not None, len(fallbacks) > before))
        return action

    monkeypatch.setattr(kernel, "OrderBook", LoggedBook)
    monkeypatch.setattr(OrderHistory, "memory", logged_memory)
    monkeypatch.setattr(agents, "hbl_decide", logged_decide)
    monkeypatch.setattr(agents, "zi_decide",
                        lambda *args: fallbacks.append(1) or zi_decide(*args))
    for memory_length in (1, 4):
        for log in (books, queried, wakes):
            log.clear()
        hbl = HblParams(memory_length=memory_length, grace_period=100)
        run(make_config(n_zi=10, n_hbl=5, horizon_T=3000, arrival_rate=0.02, hbl_params=hbl))
        assert queried and all(n >= memory_length for n in queried)
        assert len(queried) == sum(informed for _, informed, _ in wakes)
        for trades, informed, fell_back in wakes:
            assert informed == (trades >= memory_length)
            assert fell_back == (not informed)
        # wakes before, exactly at and past the gate
        assert {np.sign(trades - memory_length) for trades, _, _ in wakes} == {-1, 0, 1}


def test_run_pauses_the_collector_and_restores_the_callers_setting(monkeypatch):
    # the cyclic collector is off at every wake, on again after the run,
    # still off after a run entered with it off, and on again after a run
    # that raises mid-loop
    seen = []
    for name in ("zi_decide", "hbl_decide"):
        def wrapped(*args, decide=getattr(agents, name), name=name):
            seen.append((name, gc.isenabled()))
            return decide(*args)
        monkeypatch.setattr(agents, name, wrapped)
    config = make_config()
    assert gc.isenabled()
    run(config)
    assert gc.isenabled()
    assert {name for name, _ in seen} == {"zi_decide", "hbl_decide"}
    assert not any(enabled for _, enabled in seen)

    gc.disable()
    try:
        run(config)
        assert not gc.isenabled()
    finally:
        gc.enable()

    calls, zi_decide = [0], agents.zi_decide

    def failing(*args):
        calls[0] += 1
        if calls[0] == 50:
            raise RuntimeError("wake 50")
        return zi_decide(*args)

    monkeypatch.setattr(agents, "zi_decide", failing)
    with pytest.raises(RuntimeError, match="wake 50"):
        run(config)
    assert calls[0] == 50
    assert gc.isenabled()


@pytest.mark.parametrize("grid_mode", ["observed", "spline"])
@pytest.mark.parametrize("success_mode", ["binary", "fractional"])
@pytest.mark.parametrize("variant", ["dmr", "ou", "megashock", "file"])
def test_run_makes_no_reference_cycles(variant, success_mode, grid_mode, small_series):
    # the pause is safe because the market makes no cycles: a run under a
    # paused collector, traces on and its result dropped, leaves nothing for
    # a collection to find
    config = make_config(horizon_T=600, n_zi=4, n_hbl=2, arrival_rate=0.2,
                         zi_params=ZiParams(0.0, 1.0, 0.5, 10.0, 2, 25.0),
                         hbl_params=HblParams(1, 20, success_mode, grid_mode),
                         fundamental=SMALL_FUNDAMENTALS[variant] or small_series,
                         output=OutputOptions(trace_estimator=True, trace_decisions=True))
    gc.collect()
    gc.disable()
    try:
        trades = len(run(config).trades)
        found = gc.collect()
    finally:
        gc.enable()
    assert trades > 0  # HBL wakes past the first trade read a memory
    assert found == 0


def test_run_starts_no_collection():
    # a desk-shaped market allocates enough to start several collections
    # while the collector runs; entered with it on, kernel.run starts none
    config = make_config(horizon_T=5000, n_zi=25, n_hbl=5)
    starts = []

    def probe(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        kernel._simulate(config)  # the run's body, with the collector on
        unpaused = len(starts)
        gc.collect()  # the young generation starts the run empty
        starts.clear()
        kernel.run(config)
    finally:
        gc.callbacks.remove(probe)
    assert unpaused >= 3
    assert starts == []


def test_run_leaves_the_young_generation_empty():
    # what the run left alive sits in the oldest generation, so the first
    # allocations after it start no young collection over the event log;
    # objects the caller froze stay frozen
    config = make_config(horizon_T=5000, n_zi=25, n_hbl=5)
    threshold = gc.get_threshold()[0]
    result = kernel.run(config)
    assert len(result.events) > threshold
    assert gc.get_count()[0] < threshold
    held = []
    gc.freeze()
    try:
        kernel.run(config)
        assert all(tracked is not held for tracked in gc.get_objects())
    finally:
        gc.unfreeze()
    assert any(tracked is held for tracked in gc.get_objects())


def test_run_holds_a_bounded_memory_per_step():
    # what a desk-shaped run at T = 100k still holds, with its result alive,
    # by tracemalloc: about 98 B per horizon step, README's budget; a DMR
    # table of one list slot and one int per step holds 131 B, and a
    # fundamental trace of one (t, ticks) tuple per step 227 B.  The peak,
    # at the end of the market, is about 126 B per step; the sorted wake
    # plan kept through the market lifts it to 135 B, and the list table
    # with it to about 169 B.  A short run first leaves out the one-time
    # imports and caches.
    ini = load_bench("workloads").WORKLOADS["desk"]["ini"]
    kernel.run(build_config(parse_config(ini.replace("horizon = 30000", "horizon = 2000"))))
    config = build_config(parse_config(ini.replace("horizon = 30000",
                                                   "horizon = 100000\nseed = 11")))
    assert (config.horizon_T, config.master_seed, config.n_zi, config.n_hbl) == (100000, 11, 25, 5)
    tracemalloc.start()
    try:
        result = kernel.run(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.invariants_ok and len(result.events) > 50000
    assert held / config.horizon_T < 120, f"{held / config.horizon_T:.0f} B per step held"
    assert peak / config.horizon_T < 132, f"{peak / config.horizon_T:.0f} B per step at the peak"


@pytest.mark.parametrize("variant", ["dmr", "ou", "megashock", "file"])
def test_bench_tracer_wake_ids(variant, small_series):
    # the tracer opens a wake at the fundamental read just before its
    # mark_observation; every wake must hold exactly one of each, and the
    # settlement's read belongs to no wake
    tracer = load_bench("tracer").Tracer()
    config = make_config(horizon_T=300, n_zi=4, n_hbl=2, arrival_rate=0.05,
                         fundamental=SMALL_FUNDAMENTALS[variant] or small_series)
    tracer.install()
    try:
        result = kernel.run(config)  # through the module, so the run's span wraps the wakes
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    wakes = result.invariant_summary["wakes"]
    assert wakes > 50
    for name, outside in (("kernel.mark_observation", 0), ("fundamental.value_at", 1)):
        per_wake = np.bincount(spans["wake"][spans["name"] == tracer.names.index(name)],
                               minlength=wakes + 1)
        assert per_wake.tolist() == [outside] + [1] * wakes, name


def test_bench_tracer_targets_resolve():
    # The benchmark's tracer replaces each target in its holder's own
    # __dict__, so a renamed, moved or inherited target breaks it; every
    # target must resolve here the way the tracer resolves it.
    targets = load_bench("tracer").TARGETS
    assert targets
    for name, module_name, owner, attr in targets:
        holder = importlib.import_module(module_name)
        if owner is not None:
            holder = getattr(holder, owner)
        assert callable(holder.__dict__.get(attr)), (name, module_name, owner, attr)


ENUMS = ("Side", "EventKind", "ActionKind")


def test_no_function_looks_up_an_enum_member_through_its_class():
    # on CPython 3.11 Side.BID goes through EnumType.__getattr__, about ten
    # times a global read; functions read the module-level bound names
    src = os.path.dirname(kernel.__file__)
    offenders = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(src, fname)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if name in ENUMS:
                    offenders.append((fname, node.lineno, f"{name}.{node.attr}"))
    assert not offenders, "\n".join(f"{f}:{line}: {lookup}"
                                     for f, line, lookup in sorted(set(offenders)))


def test_only_agents_lays_out_a_tick_memory():
    # TickMemory's weight rows are agents.py's own layout: every other file
    # builds a memory through TickMemory.from_orders or OrderHistory.memory
    tests = os.path.dirname(__file__)
    src = os.path.dirname(kernel.__file__)
    paths = [os.path.join(folder, fname) for folder in (src, tests)
             for fname in sorted(os.listdir(folder)) if fname.endswith(".py")]
    assert agents.__file__ in paths and __file__ in paths
    offenders = []
    for path in paths:
        if path == agents.__file__:
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TickMemory":
                    offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not offenders, offenders


def assert_record_shape(record, record_type):
    assert type(record) is record_type
    assert len(record) == len(record_type._fields)
    assert record == record_type(*record)


def test_bound_enum_members_are_the_members():
    for module, enum_type in ((orderbook, orderbook.Side), (orderbook, orderbook.EventKind),
                              (agents, agents.ActionKind)):
        for member in enum_type:
            if member.name != "SKIP":  # agents.SKIP is the skip action
                assert getattr(module, member.name) is member
    assert agents.BID is orderbook.BID and agents.ASK is orderbook.ASK
    assert agents.SKIP.kind is agents.ActionKind.SKIP


def assert_plain_row(row, fields, types):
    """``row`` is exactly a tuple laid out as ``fields``, each item of exactly
    its type in ``types``: a NamedTuple, a subclass or a numpy int fails."""
    assert type(row) is tuple
    assert len(row) == len(fields) == len(types)
    for item, field, allowed in zip(row, fields, types):
        assert type(item) in allowed, (field, item, row)


def test_wake_records_have_their_full_shape():
    # the wake path builds the book's log rows and the strategies' actions as
    # plain tuples, laid out as BookEvent._fields and AgentAction._fields; a
    # row that is a NamedTuple, or lacks a field, fails here
    modes = [dataclasses.replace(HBL_PARAMS, success_mode=mode)
             for mode in ("binary", "fractional")]
    row_types = ({EventKind}, {int}, {int}, {int}, {orderbook.Side}, {int}, {int, type(None)})
    for hbl in modes:
        result = run(make_config(hbl_params=hbl))
        kinds = set()
        for row in result.events:
            assert_plain_row(row, orderbook.BookEvent._fields, row_types)
            kinds.add(row[0])
            # an execution names its counterparty; a placement or a cancellation does not
            assert (row[0] is EventKind.EXECUTED) == (row[-1] is not None), row
        assert kinds == set(EventKind)

    # the scalar filter, which the reference run uses, builds whole records too
    params = est.EstimatorParams(100.0, 0.05, 1.0, 4.0, 1000)
    flat = est.EstimatorParams(100.0, 0.0, 1.0, 0.0, 1000)
    for p in (params, flat):  # both variance branches of advance
        belief = est.advance(est.initial_belief(p), 7, p)
        assert_record_shape(belief, est.BeliefState)
        assert_record_shape(est.observe(belief, 101.0, p), est.BeliefState)
    exact = est.BeliefState(100.0, 0.0, 3)
    assert_record_shape(est.observe(exact, 101.0, flat), est.BeliefState)  # no variance

    action_types = ({agents.ActionKind}, {orderbook.Side}, {int})
    grid = PriceGrid(0.1)
    pv = PrivateValues(q_max=2, values=(0.5, 0.2, -0.1, -0.3))
    zi = ZiParams(r_min=0.0, r_max=2.0, eta=0.5, sigma_n_sq=1.0, q_max=2, sigma_pv_sq=1.0)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(200):
        for best_bid, best_ask in ((None, None), (1010, 990)):
            action = agents.zi_decide(0, pv, 100.0, best_bid, best_ask, zi, rng, grid)
            assert_plain_row(action, agents.AgentAction._fields, action_types)
            seen.add(action[:2])
    assert seen == {(kind, side) for kind in (agents.PLACE, agents.TAKE)
                    for side in (orderbook.BID, orderbook.ASK)}

    book = OrderBook()
    book.place_limit(0, orderbook.BID, 1000, now=1)
    book.place_limit(1, orderbook.ASK, 1000, now=2)
    book.place_limit(2, orderbook.BID, 990, now=3)
    for hbl in modes:
        memory = OrderHistory(hbl).memory(book, 5)
        sides = set()
        for _ in range(20):
            action = agents.hbl_decide(0, pv, 100.0, memory, hbl, zi, rng, grid)
            assert_plain_row(action, agents.AgentAction._fields, action_types)
            assert action[0] is agents.PLACE
            sides.add(action[1])
        assert sides == {orderbook.BID, orderbook.ASK}


def test_both_breaches_of_one_trade_are_listed_by_agent_id(monkeypatch):
    # a greedy buyer and a greedy seller trade with each other past q_max,
    # so one trade takes both parties beyond it.  At seed 56 they are agents
    # 9 and 2, whose set iterates out of order: the kernel must sort the
    # parties to list the two breach lines in ascending agent id.
    assert list({9, 2}) == [9, 2]
    buyer = greedy_buyer(monkeypatch)
    seller = greedy_seller(monkeypatch, buyer)
    resolved = parse_config("[market]\nhorizon = 1000\nseed = 56\n[agents]\nzi_count = 10\n"
                            "hbl_count = 0\nq_max = 1\narrival_rate = 0.02\n")
    result = run(build_config(resolved))
    agent_of = {values: agent for agent, values in result.private_values.items()}
    assert (agent_of[buyer["pv"].values], agent_of[seller["pv"].values]) == (9, 2)
    breaches = result.invariant_summary["breaches"]
    held = dict.fromkeys(result.private_values, 0)
    both = 0
    for trade in result.trades:
        held[trade.buyer_id] += 1
        held[trade.seller_id] -= 1
        if (trade.buyer_id, trade.seller_id) == (9, 2) and held[9] > 1 and held[2] < -1:
            lines = [f"t={trade.time}: agent {agent} holds q={held[agent]} beyond q_max=1"
                     for agent in (2, 9)]
            at = breaches.index(lines[0])
            assert breaches[at:at + 2] == lines
            both += 1
    assert both >= 2


def test_config_validation():
    with pytest.raises(ValueError, match="population"):
        make_config(n_zi=0, n_hbl=0)
    # a negative count would otherwise shrink the market and shift the labels
    for n_zi, n_hbl, field in ((-2, 3, "n_zi"), (3, -1, "n_hbl"), (-1, 0, "n_zi")):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            make_config(n_zi=n_zi, n_hbl=n_hbl)
    with pytest.raises(ValueError, match="arrival_rate"):
        make_config(arrival_rate=0.0)
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        make_config(master_seed=-1)
    with pytest.raises(ValueError, match="^tick_size "):
        make_config(tick_size=0)
    with pytest.raises(ValueError, match="hbl_params"):
        make_config(hbl_params=None)
    with pytest.raises(ValueError, match="fundamental params"):
        make_config(fundamental="brownian")
    with pytest.raises(ValueError, match="fundamental params"):
        make_config(fundamental=None)
    with pytest.raises(ValueError, match="path"):
        FileParams("", DmrParams(100.0, 0.05, 1.0))


def test_holdings_breach_is_reported(monkeypatch, tmp_path):
    # one agent buys past q_max and holds on to the horizon: the kernel flags
    # each trade that leaves a party beyond the limit, with the time, and
    # the settlement values only the first q_max units, so the run ends and
    # writes every output
    greedy_buyer(monkeypatch)
    resolved = parse_config("[market]\nhorizon = 4000\nseed = 7\n[agents]\nzi_count = 10\n"
                            "hbl_count = 0\nq_max = 1\narrival_rate = 0.02\n")
    result = run(build_config(resolved))
    assert not result.invariants_ok
    breaches = result.invariant_summary["breaches"]
    assert breaches
    assert all(re.fullmatch(r"t=\d+: agent \d+ holds q=-?\d+ beyond q_max=1", b)
               for b in breaches), breaches
    held = {a.agent_id: 0 for a in result.agents}
    cash = {a.agent_id: 0.0 for a in result.agents}
    expected = []
    for trade in result.trades:
        held[trade.buyer_id] += 1
        held[trade.seller_id] -= 1
        cash[trade.buyer_id] -= result.grid.to_value(trade.price)
        cash[trade.seller_id] += result.grid.to_value(trade.price)
        for agent_id in sorted({trade.buyer_id, trade.seller_id}):
            if abs(held[agent_id]) > 1:
                expected.append(f"t={trade.time}: agent {agent_id} holds "
                                f"q={held[agent_id]} beyond q_max=1")
    assert breaches == expected
    assert max(held.values()) > 1  # the breach lasts to the horizon
    final = result.grid.to_value(result.final_fundamental)
    for summary in result.agents:
        assert (summary.cash, summary.q_held) == (cash[summary.agent_id],
                                                  held[summary.agent_id])
        assert summary.payoff == settled_payoff(summary.cash, summary.q_held, final,
                                                result.private_values[summary.agent_id])
    emit_outputs(result, resolved, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["agents.csv", "events.csv", "fundamental.csv",
                                            "manifest.ini", "trades.csv"]
