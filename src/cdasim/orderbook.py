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


class Side(enum.Enum):
    BID = "BID"
    ASK = "ASK"

    @property
    def opposite(self) -> "Side":
        return Side.ASK if self is Side.BID else Side.BID


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


@dataclass(frozen=True)
class BookEvent:
    kind: EventKind
    time: int
    order_id: int
    agent_id: int
    side: Side
    price: int
    quantity: int
    counterparty: int | None = None


@dataclass(frozen=True)
class Trade:
    time: int
    price: int
    quantity: int
    buy_order_id: int
    sell_order_id: int
    buyer_id: int
    seller_id: int


class OrderBook:
    def __init__(self) -> None:
        # price level -> FIFO queue of [order, remaining]
        self._levels: dict[Side, dict[int, deque]] = {Side.BID: {}, Side.ASK: {}}
        self._sorted_prices: dict[Side, list[int]] = {Side.BID: [], Side.ASK: []}
        self._resting: dict[int, list] = {}  # order_id -> [order, remaining]
        self._placed_ids: set[int] = set()
        self._events: list[BookEvent] = []
        self._trades: list[Trade] = []
        self._last_time = 0

    # -- queries ----------------------------------------------------------

    def best_bid(self) -> int | None:
        prices = self._sorted_prices[Side.BID]
        return prices[-1] if prices else None

    def best_ask(self) -> int | None:
        prices = self._sorted_prices[Side.ASK]
        return prices[0] if prices else None

    @property
    def events(self) -> list[BookEvent]:
        """Append-only log; treat as read-only."""
        return self._events

    @property
    def trades(self) -> list[Trade]:
        """Append-only log; treat as read-only."""
        return self._trades

    def placed_order(self, order_id: int) -> Order | None:
        entry = self._resting.get(order_id)
        return entry[0] if entry else None

    def depth_snapshot(self) -> dict:
        """Resting orders per side, in priority order (for replay comparison)."""
        snap = {}
        for side in Side:
            levels = []
            prices = self._sorted_prices[side]
            ordered = reversed(prices) if side is Side.BID else iter(prices)
            for price in ordered:
                queue = [(o.order_id, rem) for o, rem in self._levels[side][price]]
                levels.append((price, queue))
            snap[side.value] = levels
        return snap

    # -- mutations --------------------------------------------------------

    def place_limit(self, order: Order, now: int) -> list[BookEvent]:
        if order.order_id in self._placed_ids:
            raise ValueError(f"duplicate order_id {order.order_id}")
        if now < self._last_time:
            raise ValueError(f"event time regression: {now} < {self._last_time}")
        self._placed_ids.add(order.order_id)
        self._last_time = now

        events = [BookEvent(EventKind.PLACED, now, order.order_id, order.agent_id,
                            order.side, order.limit_price, order.quantity)]
        remaining = order.quantity
        opposite = order.side.opposite
        while remaining > 0:
            best = self.best_ask() if order.side is Side.BID else self.best_bid()
            if best is None:
                break
            crosses = best <= order.limit_price if order.side is Side.BID else best >= order.limit_price
            if not crosses:
                break
            queue = self._levels[opposite][best]
            resting, resting_rem = queue[0]
            qty = min(remaining, resting_rem)
            price = resting.limit_price  # maker price
            events.append(BookEvent(EventKind.EXECUTED, now, order.order_id, order.agent_id,
                                    order.side, price, qty, counterparty=resting.order_id))
            events.append(BookEvent(EventKind.EXECUTED, now, resting.order_id, resting.agent_id,
                                    resting.side, price, qty, counterparty=order.order_id))
            if order.side is Side.BID:
                trade = Trade(now, price, qty, order.order_id, resting.order_id,
                              order.agent_id, resting.agent_id)
            else:
                trade = Trade(now, price, qty, resting.order_id, order.order_id,
                              resting.agent_id, order.agent_id)
            self._trades.append(trade)
            remaining -= qty
            queue[0][1] -= qty
            if queue[0][1] == 0:
                queue.popleft()
                del self._resting[resting.order_id]
                if not queue:
                    del self._levels[opposite][best]
                    self._sorted_prices[opposite].remove(best)
        if remaining > 0:
            self._rest(order, remaining)
        self._append(events)
        return events

    def cancel(self, order_id: int, now: int) -> BookEvent | None:
        """Remove a resting order; returns None if unknown or already filled."""
        if now < self._last_time:
            raise ValueError(f"event time regression: {now} < {self._last_time}")
        entry = self._resting.pop(order_id, None)
        if entry is None:
            return None
        order, remaining = entry
        queue = self._levels[order.side][order.limit_price]
        for i, item in enumerate(queue):
            if item[0].order_id == order_id:
                del queue[i]
                break
        if not queue:
            del self._levels[order.side][order.limit_price]
            self._sorted_prices[order.side].remove(order.limit_price)
        self._last_time = now
        event = BookEvent(EventKind.CANCELLED, now, order_id, order.agent_id,
                          order.side, order.limit_price, remaining)
        self._append([event])
        return event

    # -- internals --------------------------------------------------------

    def _rest(self, order: Order, remaining: int) -> None:
        levels = self._levels[order.side]
        if order.limit_price not in levels:
            levels[order.limit_price] = deque()
            prices = self._sorted_prices[order.side]
            prices.insert(bisect_left(prices, order.limit_price), order.limit_price)
        entry = [order, remaining]
        levels[order.limit_price].append(entry)
        self._resting[order.order_id] = entry

    def _append(self, events: list[BookEvent]) -> None:
        self._events.extend(events)


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
