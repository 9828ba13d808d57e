"""Price-time-priority limit order book for a single asset.

Matching follows standard continuous double auction conventions: an
incoming order trades against the opposite side while it crosses, at the
resting order's limit price, best price first and FIFO within a price
level.  Every placement, execution and cancellation is appended to an
immutable event log; the log is sufficient to rebuild the book by replay
and is the observation feed for belief-learning agents.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


class Side(enum.Enum):
    BID = "BID"
    ASK = "ASK"


class EventKind(enum.Enum):
    PLACED = "PLACED"
    EXECUTED = "EXECUTED"
    CANCELLED = "CANCELLED"


@dataclass
class Order:
    order_id: int
    agent_id: int
    side: Side
    limit_price: int  # ticks
    quantity: int = 1

    def __post_init__(self) -> None:
        if self.quantity < 1:
            raise ValueError("quantity must be >= 1")
        if self.limit_price < 0:
            raise ValueError("limit_price must be >= 0")


class BookEvent(NamedTuple):
    kind: EventKind
    time: int
    order_id: int
    agent_id: int
    side: Side
    price: int
    quantity: int
    counterparty: int | None = None


class Trade(NamedTuple):
    time: int
    price: int
    quantity: int
    buy_order_id: int
    sell_order_id: int
    buyer_id: int
    seller_id: int


class OrderBook:
    def __init__(self) -> None:
        # per side: price level -> FIFO queue of [order, remaining], and the
        # occupied prices in ascending order
        self._bid_levels: dict[int, deque] = {}
        self._ask_levels: dict[int, deque] = {}
        self._bid_prices: list[int] = []
        self._ask_prices: list[int] = []
        self._resting: dict[int, list] = {}  # order_id -> [order, remaining]
        self._placed_ids: set[int] = set()
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

    def depth_snapshot(self) -> dict:
        """Resting orders per side, in priority order (for replay comparison)."""
        sides = ((Side.BID, self._bid_levels, reversed(self._bid_prices)),
                 (Side.ASK, self._ask_levels, self._ask_prices))
        return {side.value: [(price, [(o.order_id, rem) for o, rem in levels[price]])
                             for price in ordered]
                for side, levels, ordered in sides}

    # -- mutations --------------------------------------------------------

    def place_limit(self, order: Order, now: int) -> list[BookEvent]:
        order_id = order.order_id
        if order_id in self._placed_ids:
            raise ValueError(f"duplicate order_id {order_id}")
        if now < self._last_time:
            raise ValueError(f"event time regression: {now} < {self._last_time}")
        self._placed_ids.add(order_id)
        self._last_time = now

        side, limit, agent_id = order.side, order.limit_price, order.agent_id
        events = [BookEvent(EventKind.PLACED, now, order_id, agent_id, side, limit,
                            order.quantity)]
        remaining = order.quantity
        is_bid = side is Side.BID
        # the side this order trades against, and the index of its touch
        if is_bid:
            levels, prices, touch = self._ask_levels, self._ask_prices, 0
        else:
            levels, prices, touch = self._bid_levels, self._bid_prices, -1
        while remaining > 0 and prices:
            best = prices[touch]
            if (best > limit) if is_bid else (best < limit):
                break
            queue = levels[best]
            entry = queue[0]
            resting, resting_rem = entry
            qty = min(remaining, resting_rem)
            price = resting.limit_price  # maker price
            events.append(BookEvent(EventKind.EXECUTED, now, order_id, agent_id,
                                    side, price, qty, resting.order_id))
            events.append(BookEvent(EventKind.EXECUTED, now, resting.order_id,
                                    resting.agent_id, resting.side, price, qty, order_id))
            if is_bid:
                trade = Trade(now, price, qty, order_id, resting.order_id,
                              agent_id, resting.agent_id)
            else:
                trade = Trade(now, price, qty, resting.order_id, order_id,
                              resting.agent_id, agent_id)
            self._trades.append(trade)
            remaining -= qty
            entry[1] -= qty
            if entry[1] == 0:
                queue.popleft()
                del self._resting[resting.order_id]
                if not queue:
                    del levels[best]
                    del prices[touch]
        if remaining > 0:
            self._rest(order, remaining)
        self._events.extend(events)
        return events

    def cancel(self, order_id: int, now: int) -> BookEvent | None:
        """Remove a resting order; returns None if unknown or already filled."""
        if now < self._last_time:
            raise ValueError(f"event time regression: {now} < {self._last_time}")
        entry = self._resting.pop(order_id, None)
        if entry is None:
            return None
        order, remaining = entry
        price = order.limit_price
        if order.side is Side.BID:
            levels, prices = self._bid_levels, self._bid_prices
        else:
            levels, prices = self._ask_levels, self._ask_prices
        queue = levels[price]
        for i, item in enumerate(queue):
            if item is entry:
                del queue[i]
                break
        if not queue:
            del levels[price]
            del prices[bisect_left(prices, price)]
        self._last_time = now
        event = BookEvent(EventKind.CANCELLED, now, order_id, order.agent_id,
                          order.side, price, remaining)
        self._events.append(event)
        return event

    # -- internals --------------------------------------------------------

    def _rest(self, order: Order, remaining: int) -> None:
        price = order.limit_price
        if order.side is Side.BID:
            levels, prices = self._bid_levels, self._bid_prices
        else:
            levels, prices = self._ask_levels, self._ask_prices
        queue = levels.get(price)
        if queue is None:
            queue = levels[price] = deque()
            prices.insert(bisect_left(prices, price), price)
        entry = [order, remaining]
        queue.append(entry)
        self._resting[order.order_id] = entry


def replay(events) -> OrderBook:
    """Rebuild a book by re-driving placements and cancellations from a log."""
    book = OrderBook()
    for event in events:
        if event.kind is EventKind.PLACED:
            order = Order(event.order_id, event.agent_id, event.side,
                          event.price, event.quantity)
            book.place_limit(order, event.time)
        elif event.kind is EventKind.CANCELLED:
            book.cancel(event.order_id, event.time)
    return book
