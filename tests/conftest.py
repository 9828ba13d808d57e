import types
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cdasim import agents
from cdasim.orderbook import EventKind, OrderBook, Side
from cdasim.preferences import PrivateValues
from cdasim.prices import PriceGrid


# Every property test draws the same examples on every run, keeps no example
# database and has no deadline; each test states only its number of examples.
settings.register_profile("cdasim", derandomize=True, database=None, deadline=None)
settings.load_profile("cdasim")


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


def events_in_window(book, start, end=None):
    """The book's events with ``start <= time`` (and ``time <= end``), in log order."""
    events = book.events
    lo = bisect_left(events, start, key=lambda e: e.time)
    hi = len(events) if end is None else bisect_right(events, end, key=lambda e: e.time)
    return events[lo:hi]


def replay(events) -> OrderBook:
    """Rebuild a book by re-driving placements and cancellations from a log.
    The book numbers the placements in log order, so they take their ids again."""
    book = OrderBook()
    for event in events:
        if event.kind is EventKind.PLACED:
            book.place_limit(event.agent_id, event.side, event.price, event.time)
        elif event.kind is EventKind.CANCELLED:
            book.cancel(event.order_id, event.time)
    return book


def depth_snapshot(book) -> dict:
    """Resting order ids of ``book`` per side and level, in priority order."""
    sides = ((Side.BID, book._bid_levels, reversed(book._bid_prices)),
             (Side.ASK, book._ask_levels, book._ask_prices))
    return {side.value: [(price, [placed.order_id for placed in levels[price]])
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
        return agents.AgentAction(agents.ActionKind.TAKE, Side.BID, best_ask)

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


def pytest_terminal_summary(terminalreporter):
    """Echo one pass/fail line per acceptance criterion after the run."""
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def grid_01():
    return PriceGrid(0.1)


@pytest.fixture
def grid_001():
    return PriceGrid(0.01)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
