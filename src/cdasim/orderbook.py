"""Price-time-priority limit order book for a single asset.

Matching follows standard continuous double auction conventions for
one-unit orders: an incoming order that crosses the opposite touch trades
once, at the resting order's limit price, with the oldest order at the
best price; otherwise it rests.  The book numbers the orders 1, 2, 3, ...
in placement order.  Every placement, execution and cancellation is
appended to an immutable event log; the log is sufficient to rebuild the
book by replay and is the observation feed for belief-learning agents.

Each enum member is also bound to a module name (``BID is Side.BID``): on
CPython 3.11 a member lookup through its class goes through
``EnumType.__getattr__`` and costs about ten global reads, so the wake path
reads the bound names.  For the same reason the records built on every
wake are made with ``tuple.__new__``, which skips the NamedTuple's
Python-level ``__new__``; each such call lists every field.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from typing import NamedTuple


class Side(enum.Enum):
    BID = "BID"
    ASK = "ASK"


BID, ASK = Side.BID, Side.ASK


class EventKind(enum.Enum):
    PLACED = "PLACED"
    EXECUTED = "EXECUTED"
    CANCELLED = "CANCELLED"


PLACED, EXECUTED, CANCELLED = EventKind.PLACED, EventKind.EXECUTED, EventKind.CANCELLED


class BookEvent(NamedTuple):
    kind: EventKind
    time: int
    order_id: int
    agent_id: int
    side: Side
    price: int
    counterparty: int | None = None


class Trade(NamedTuple):
    time: int
    price: int
    buy_order_id: int
    sell_order_id: int
    buyer_id: int
    seller_id: int


class OrderBook:
    def __init__(self) -> None:
        # per side: price level -> FIFO queue of the resting orders' PLACED
        # events, and the occupied prices in ascending order
        self._bid_levels: dict[int, deque[BookEvent]] = {}
        self._ask_levels: dict[int, deque[BookEvent]] = {}
        self._bid_prices: list[int] = []
        self._ask_prices: list[int] = []
        self._resting: dict[int, BookEvent] = {}  # order_id -> its PLACED event
        self._n_placed = 0  # the last order id taken
        self._events: list[BookEvent] = []
        self._trades: list[Trade] = []
        self._last_time = 0

    # -- queries ----------------------------------------------------------

    def best_bid(self) -> int | None:
        prices = self._bid_prices
        return prices[-1] if prices else None

    def best_ask(self) -> int | None:
        prices = self._ask_prices
        return prices[0] if prices else None

    @property
    def events(self) -> list[BookEvent]:
        """Append-only log; treat as read-only."""
        return self._events

    @property
    def trades(self) -> list[Trade]:
        """Append-only log; treat as read-only."""
        return self._trades

    # -- mutations --------------------------------------------------------

    def place_limit(self, agent_id: int, side: Side, price: int,
                    now: int) -> list[BookEvent]:
        """Place a one-unit limit order at ``price`` ticks under the next id.
        If it crosses the touch of the other side it trades with that level's
        oldest order, at the resting price; otherwise it rests.  Returns the
        events logged, PLACED first; a rejected placement takes no id."""
        if price < 0:
            raise ValueError("limit price must be >= 0")
        if now < self._last_time:
            raise ValueError(f"event time regression: {now} < {self._last_time}")
        self._n_placed = order_id = self._n_placed + 1
        self._last_time = now

        placed = tuple.__new__(BookEvent, (PLACED, now, order_id, agent_id, side, price, None))
        is_bid = side is BID
        # the side this order trades against, and the index of its touch
        if is_bid:
            levels, prices, touch = self._ask_levels, self._ask_prices, 0
        else:
            levels, prices, touch = self._bid_levels, self._bid_prices, -1
        if not prices or ((prices[touch] > price) if is_bid else (prices[touch] < price)):
            own_levels, own_prices = self._side(side)
            queue = own_levels.get(price)
            if queue is None:
                queue = own_levels[price] = deque()
                own_prices.insert(bisect_left(own_prices, price), price)
            queue.append(placed)  # it rests
            self._resting[order_id] = placed
            self._events.append(placed)
            return [placed]
        best = prices[touch]  # the maker's price
        queue = levels[best]
        maker = queue.popleft()
        maker_id, maker_agent = maker.order_id, maker.agent_id
        del self._resting[maker_id]
        if not queue:
            del levels[best]
            del prices[touch]
        events = [placed,
                  tuple.__new__(BookEvent,
                                (EXECUTED, now, order_id, agent_id, side, best, maker_id)),
                  maker._replace(kind=EXECUTED, time=now, counterparty=order_id)]
        if is_bid:
            trade = Trade(now, best, order_id, maker_id, agent_id, maker_agent)
        else:
            trade = Trade(now, best, maker_id, order_id, maker_agent, agent_id)
        self._trades.append(trade)
        self._events.extend(events)
        return events

    def cancel(self, order_id: int, now: int) -> BookEvent | None:
        """Remove a resting order; returns None if unknown or already filled."""
        if now < self._last_time:
            raise ValueError(f"event time regression: {now} < {self._last_time}")
        placed = self._resting.pop(order_id, None)
        if placed is None:
            return None
        _, _, _, agent_id, side, price, _ = placed
        levels, prices = self._side(side)
        queue = levels[price]
        queue.remove(placed)  # events are equal only if their order ids are
        if not queue:
            del levels[price]
            del prices[bisect_left(prices, price)]
        self._last_time = now
        event = tuple.__new__(BookEvent,
                              (CANCELLED, now, order_id, agent_id, side, price, None))
        self._events.append(event)
        return event

    # -- internals --------------------------------------------------------

    def _side(self, side: Side) -> tuple[dict[int, deque[BookEvent]], list[int]]:
        if side is BID:
            return self._bid_levels, self._bid_prices
        return self._ask_levels, self._ask_prices
