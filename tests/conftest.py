import gc
import math
import types
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cdasim import agents
from cdasim.agents import HblParams, ZiParams
from cdasim.fundamental import DmrParams, ou_mean_var
from cdasim.kernel import SimConfig
from cdasim.orderbook import BookEvent, EventKind, OrderBook, Side
from cdasim.preferences import PrivateValues
from cdasim.prices import PriceGrid


# Every property test draws the same examples on every run, keeps no example
# database and has no deadline; each test states only its number of examples.
settings.register_profile("cdasim", derandomize=True, database=None, deadline=None)
settings.load_profile("cdasim")


# The agents' worked examples: one private-value vector and both strategies' params.
PV = PrivateValues(q_max=3, values=(0.5, 0.3, 0.2, 0.1, -0.2, -0.4))
ZI = ZiParams(r_min=0.0, r_max=1.0, eta=0.5, sigma_n_sq=10.0, q_max=3, sigma_pv_sq=25.0)
HBL = HblParams(memory_length=4, grace_period=5)

# The kernel tests' small market, which ``make_config`` varies.
ZI_PARAMS = ZiParams(r_min=0.0, r_max=1.0, eta=1.0, sigma_n_sq=10.0,
                     q_max=5, sigma_pv_sq=25.0)
HBL_PARAMS = HblParams(memory_length=4, grace_period=100)


def make_config(**overrides):
    base = dict(
        horizon_T=2000,
        fundamental=DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0),
        n_zi=10,
        n_hbl=3,
        zi_params=ZI_PARAMS,
        hbl_params=HBL_PARAMS,
        arrival_rate=0.01,
        master_seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


class FixedRng:
    """Deterministic stand-in for a numpy Generator in golden tests.

    ``random()`` serves a queue, first the side coin and then the ZI surplus
    fraction (``r_min + (r_max - r_min) * fraction`` is the requested
    surplus), and starts over once both are served.  ``standard_normal()``
    always returns ``normal_value``.
    """

    def __init__(self, random_value=0.0, surplus_fraction=0.0, normal_value=0.0):
        self._queue = (random_value, surplus_fraction)
        self._served = 0
        self._normal = normal_value

    def random(self):
        value = self._queue[self._served % 2]
        self._served += 1
        return value

    def standard_normal(self):
        return self._normal


def load_bench(name: str) -> types.ModuleType:
    """``bench/<name>.py`` as a module, run from its source: nothing is
    installed or imported by name, and no bytecode is written beside it."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def named(rows) -> list[BookEvent]:
    """The book's log rows, plain tuples laid out as ``BookEvent._fields``, named."""
    return [BookEvent._make(row) for row in rows]


def zi_action(*args, **kwargs) -> agents.AgentAction:
    """``zi_decide``'s plain (kind, side, limit) tuple, named."""
    return agents.AgentAction._make(agents.zi_decide(*args, **kwargs))


def hbl_action(*args, **kwargs) -> agents.AgentAction:
    """``hbl_decide``'s plain (kind, side, limit) tuple, named."""
    return agents.AgentAction._make(agents.hbl_decide(*args, **kwargs))


def events_in_window(book, start, end=None):
    """The book's events with ``start <= time`` (and ``time <= end``), in log order."""
    events = named(book.events)
    lo = bisect_left(events, start, key=lambda e: e.time)
    hi = len(events) if end is None else bisect_right(events, end, key=lambda e: e.time)
    return events[lo:hi]


def replay(events) -> OrderBook:
    """Rebuild a book by re-driving placements and cancellations from a log.
    The book numbers the placements in log order, so they take their ids again."""
    book = OrderBook()
    for event in named(events):
        if event.kind is EventKind.PLACED:
            book.place_limit(event.agent_id, event.side, event.price, event.time)
        elif event.kind is EventKind.CANCELLED:
            book.cancel(event.order_id, event.time)
    return book


def depth_snapshot(book) -> dict:
    """Resting order ids of ``book`` per side and level, in priority order."""
    sides = ((Side.BID, book._bid_levels, reversed(book._bid_prices)),
             (Side.ASK, book._ask_levels, book._ask_prices))
    return {side.value: [(price, [placed.order_id for placed in named(levels[price])])
                         for price in ordered]
            for side, levels, ordered in sides}


def resting_ids(book) -> set[int]:
    """Ids of the orders resting in ``book``, read from its depth snapshot."""
    return {order_id for levels in depth_snapshot(book).values()
            for _, queue in levels for order_id in queue}


def greedy_buyer(monkeypatch) -> dict:
    """Patch ``agents.zi_decide`` so that the first ZI agent to wake takes
    every ask, past q_max and up to the horizon, and skips a wake with no
    ask.  Returns a dict that holds that agent's private values as "pv"."""
    zi_decide = agents.zi_decide
    greedy = {}

    def decide(q_held, pv, r_hat, best_bid, best_ask, params, rng, grid):
        greedy.setdefault("pv", pv)
        if pv is not greedy["pv"]:
            return zi_decide(q_held, pv, r_hat, best_bid, best_ask, params, rng, grid)
        if best_ask is None:
            return agents.SKIP
        return agents.TAKE, Side.BID, best_ask

    monkeypatch.setattr(agents, "zi_decide", decide)
    return greedy


def greedy_seller(monkeypatch, buyer: dict) -> dict:
    """Patch ``agents.zi_decide``, after ``greedy_buyer`` made ``buyer``, so
    that the first ZI agent to wake after the greedy buyer, other than it,
    asks 0 on every wake, past -q_max and up to the horizon: it sells to the
    best bid, or rests as the lowest ask, which the greedy buyer takes if it
    wakes first.  Returns a dict that holds that agent's private values as "pv"."""
    zi_decide = agents.zi_decide  # the greedy buyer's
    greedy = {}

    def decide(q_held, pv, r_hat, best_bid, best_ask, params, rng, grid):
        if "pv" in buyer and pv is not buyer["pv"]:
            greedy.setdefault("pv", pv)
        if pv is not greedy.get("pv"):
            return zi_decide(q_held, pv, r_hat, best_bid, best_ask, params, rng, grid)
        return agents.PLACE, Side.ASK, 0

    monkeypatch.setattr(agents, "zi_decide", decide)
    return greedy


def settled_payoff(cash, q_held, final, values):
    """Oracle for the settlement: cash + q_held * final plus the private
    values of the first q_max units held, summed unit by unit from the one
    nearest zero; ``values`` is the agent's descending vector of 2 * q_max."""
    pv = PrivateValues(q_max=len(values) // 2, values=tuple(values))
    if q_held > 0:
        realized = sum(pv.theta(k) for k in range(1, min(q_held, pv.q_max) + 1))
    else:
        realized = -sum(pv.theta(k) for k in range(max(q_held, -pv.q_max) + 1, 1))
    return cash + q_held * final + realized


# ---------------------------------------------------------------------------
# Estimator oracle: textbook scalar Kalman filter for the state model
#   x_t = kappa * r_bar + (1 - kappa) * x_{t-1} + u_t,   u_t ~ N(0, sigma_s_sq)
#   o_t = x_t + n_t,                                     n_t ~ N(0, sigma_n_sq)
# Written before (and independently of) the estimator implementation.
# ---------------------------------------------------------------------------


class ScalarKalman:
    def __init__(self, r_bar, kappa, sigma_s_sq, sigma_n_sq):
        self.r_bar = r_bar
        self.kappa = kappa
        self.sigma_s_sq = sigma_s_sq
        self.sigma_n_sq = sigma_n_sq
        self.x = r_bar
        self.p = 0.0

    def predict(self, steps):
        a = 1.0 - self.kappa
        for _ in range(steps):
            self.x = self.kappa * self.r_bar + a * self.x
            self.p = a * a * self.p + self.sigma_s_sq

    def update(self, o):
        total = self.p + self.sigma_n_sq
        if total == 0.0:
            self.x = o
            self.p = 0.0
            return
        gain = self.p / total
        self.x = self.x + gain * (o - self.x)
        self.p = (1.0 - gain) * self.p


def ou_sample(q_prev, elapsed, params, std_normal_draw, grid):
    """Skip-ahead sample of the OU value, rounded to tick and floored at zero:
    the exact conditional distribution that ``OuFundamental`` draws from."""
    mean, var = ou_mean_var(q_prev, elapsed, params)
    return max(0, grid.to_ticks(mean + math.sqrt(var) * std_normal_draw))


CRITERION_LINES: list[str] = []  # test_acceptance adds one line per criterion run


def pytest_terminal_summary(terminalreporter):
    """Echo one pass/fail line per acceptance criterion after the run."""
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item):
    """Fail a test that leaves the cyclic garbage collector disabled, after
    its fixtures are torn down, and turn the collector on for the next test."""
    if not gc.isenabled():
        gc.enable()
        pytest.fail(f"{item.nodeid} left the cyclic garbage collector disabled", pytrace=False)


@pytest.fixture
def grid_01():
    return PriceGrid(0.1)


@pytest.fixture
def grid_001():
    return PriceGrid(0.01)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
