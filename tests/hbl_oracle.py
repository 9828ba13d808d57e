"""Oracles for the HBL memory.

``RecordMemory`` answers belief queries with prefix sums over each side's
``MemoryOrder`` records sorted by price, the float addition order that
fractional mode keeps, without laying them on ticks.  ``belief_array``
reads the belief at any price, occupied or not, by search, off a
``RecordMemory`` or off the package's ``TickMemory``, whose own
``beliefs`` reads only its ticks and one beyond each end, by position.
``hbl_classify`` classifies the orders of a book's event log from scratch,
order by order, into ``MemoryOrder`` records: those of the last L
transactions' window, or those placed from any given time on.  ``exact_beliefs`` sums the weights of
such records exactly, so a binary belief is a quotient of two exact counts.
The tests compare ``OrderHistory``, which reads the book's log
incrementally, the package's ``TickMemory`` (built from records with
``TickMemory.from_orders(*order_arrays(records))``), the decision code and
whole runs against them.  ``build_script_book`` and ``random_memory`` give
the memories of the worked examples and properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cdasim.agents import HblParams, TickMemory
from cdasim.orderbook import BookEvent, EventKind, OrderBook, Side


@dataclass(frozen=True)
class MemoryOrder:
    side: Side
    price: int
    success: float  # weight in [0, 1]
    failure: float  # weight in [0, 1]; success + failure may be < 1 while pending


class RecordMemory:
    """``MemoryOrder`` records, which it keeps, and prefix sums of each
    side's weights in (price, placement) order for its belief queries."""

    def __init__(self, records):
        self.records = tuple(records)
        is_bid, price, success, failure = order_arrays(self.records)
        self._sides = {}
        for side, mask in ((Side.BID, is_bid), (Side.ASK, ~is_bid)):
            order = np.argsort(price[mask], kind="stable")
            succ, fail = success[mask][order], failure[mask][order]
            # sums up from the lowest price and down from the highest
            sums = (np.concatenate(([0.0], np.cumsum(w)))
                    for w in (succ, succ[::-1], fail, fail[::-1]))
            self._sides[side] = (price[mask][order], *sums)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def prices(self) -> np.ndarray:
        # not np.union1d/np.unique: in numpy 2.x their first call lazily imports numpy.ma (~10 ms)
        merged = np.sort(np.concatenate((self._sides[Side.BID][0], self._sides[Side.ASK][0])))
        first_of_run = np.ones(merged.size, dtype=bool)
        first_of_run[1:] = merged[1:] != merged[:-1]
        return merged[first_of_run]

    def belief_array(self, prices, side: Side) -> np.ndarray:
        """Heuristic probability that a limit order at each of ``prices``
        transacts.

        For a bid: favorable mass is ask volume and successful bids at <= p,
        unfavorable mass is failed bids at >= p.  Mirrored for an ask.  The
        belief is 0 where the denominator is empty.
        """
        p = np.asarray(prices, dtype=np.int64)
        own, succ_up, succ_down, fail_up, fail_down = self._sides[side]
        other = self._sides[Side.ASK if side is Side.BID else Side.BID][0]
        at_or_below = np.searchsorted(own, p, side="right")
        at_or_above = own.size - np.searchsorted(own, p, side="left")
        if side is Side.BID:
            favorable = np.searchsorted(other, p, side="right").astype(float)
            numerator = favorable + succ_up[at_or_below]
            denominator = numerator + fail_down[at_or_above]
        else:
            favorable = (other.size - np.searchsorted(other, p, side="left")).astype(float)
            numerator = favorable + succ_down[at_or_above]
            denominator = numerator + fail_up[at_or_below]
        return np.divide(numerator, denominator,
                         out=np.zeros_like(numerator), where=denominator > 0.0)

    def beliefs(self, side: Side) -> np.ndarray:
        """The beliefs that ``TickMemory.beliefs`` reads by position, here
        by search: one tick below the lowest price, at each price and one
        tick above the highest."""
        prices = self.prices
        return self.belief_array(np.concatenate(([prices[0] - 1], prices, [prices[-1] + 1])),
                                 side)


def belief_array(memory, prices, side: Side) -> np.ndarray:
    """The belief at each of ``prices`` of a ``RecordMemory`` or of a
    ``TickMemory``, found by search.  A ``TickMemory`` keeps, for each
    side, the orders at each of its ticks and, read with ``weights``, the
    side's cumulative successes and failures at the boundary just below
    each tick and above the last."""
    if not isinstance(memory, TickMemory):
        return memory.belief_array(prices, side)
    ticks, counts, (success, failure) = memory.prices, memory._counts, memory.weights(side)
    below = ticks.searchsorted(prices)  # the boundary just below each price
    # the boundary just above it is the next one where the price is occupied
    above = below + (ticks.take(below, mode="clip") == prices) if ticks.size else below
    favorable = np.zeros(ticks.size + 1, dtype=np.int64)
    if side is Side.BID:
        np.add.accumulate(counts[1], out=favorable[1:])
        numerator = (favorable + success)[above]
        denominator = numerator + failure[below]
    else:
        np.add.accumulate(counts[0, ::-1], out=favorable[-2::-1])
        numerator = (favorable + success)[below]
        denominator = numerator + failure[above]
    # an empty denominator has an empty numerator, so it reads 0 / 1
    return numerator / np.where(denominator > 0, denominator, 1)


def order_arrays(records):
    """Parallel arrays of sides (``True`` for a bid), prices, successes and
    failures of ``MemoryOrder`` records."""
    n = len(records)
    return (np.fromiter((r.side is Side.BID for r in records), dtype=bool, count=n),
            np.fromiter((r.price for r in records), dtype=np.int64, count=n),
            np.fromiter((r.success for r in records), dtype=np.float64, count=n),
            np.fromiter((r.failure for r in records), dtype=np.float64, count=n))


def records_of(is_bid, price, success, failure) -> list[MemoryOrder]:
    """The ``MemoryOrder`` records of parallel arrays, ``order_arrays``' inverse."""
    return [MemoryOrder(Side.BID if bid else Side.ASK, int(p), float(s), float(f))
            for bid, p, s, f in zip(is_bid, price, success, failure)]


def hbl_belief(memory, p: int, side: Side) -> float:
    """Heuristic probability that a limit order at price ``p`` transacts."""
    return float(belief_array(memory, [p], side)[0])


# every finite float is an integer multiple of 2**-1074
_SCALE = 2 ** 1074


def _scaled(weight: float) -> int:
    """``weight`` times 2**1074, exactly."""
    numerator, denominator = weight.as_integer_ratio()
    return numerator * (_SCALE // denominator)


def exact_beliefs(records, prices, side: Side) -> list[Fraction]:
    """The belief at each of ``prices`` in exact arithmetic: the favorable
    and unfavorable masses of ``MemoryOrder`` records summed exactly, as
    integer multiples of 2**-1074, and 0 where the denominator is empty.

    A binary record weighs 0 or 1, so its belief is a quotient of two
    integer counts, and ``float`` of it is the correctly rounded quotient.
    """
    mine = [(r.price, _scaled(r.success), _scaled(r.failure)) for r in records
            if r.side is side]
    theirs = [r.price for r in records if r.side is not side]
    beliefs = []
    for p in map(int, prices):
        if side is Side.BID:  # asks and successful bids at or below p, failed bids at or above
            favorable = sum(q <= p for q in theirs)
            succ = sum(s for q, s, _ in mine if q <= p)
            fail = sum(f for q, _, f in mine if q >= p)
        else:  # the mirror image
            favorable = sum(q >= p for q in theirs)
            succ = sum(s for q, s, _ in mine if q >= p)
            fail = sum(f for q, _, f in mine if q <= p)
        numerator = favorable * _SCALE + succ
        denominator = numerator + fail
        beliefs.append(Fraction(numerator, denominator) if denominator else Fraction(0))
    return beliefs


def hbl_classify(events, now: int, params: HblParams, window_start=None) -> RecordMemory:
    """The classified orders placed at or after ``window_start``, by default
    the placement time of the oldest order in the last L transactions.
    ``events`` are the book's log rows, in ``BookEvent._fields`` order."""
    placed: dict[int, BookEvent] = {}
    executed: dict[int, int] = {}
    cancelled: dict[int, int] = {}
    transactions: list[tuple[int, int]] = []  # the order pairs of the trades
    for event in map(BookEvent._make, events):
        if event.kind is EventKind.PLACED:
            placed[event.order_id] = event
        elif event.kind is EventKind.EXECUTED:
            if event.counterparty not in executed:  # the first of a trade's two executions
                transactions.append((event.order_id, event.counterparty))
            executed[event.order_id] = event.time  # a one-unit order executes once
        else:
            cancelled[event.order_id] = event.time
    if window_start is None:
        recent = transactions[-params.memory_length:]
        if not recent:
            return RecordMemory(())
        involved = {oid for pair in recent for oid in pair}
        missing = involved - placed.keys()
        if missing:
            raise ValueError(f"malformed event stream: executions without placements "
                             f"{sorted(missing)}")
        window_start = min(placed[oid].time for oid in involved)
    records = []
    for oid, event in placed.items():
        if event.time < window_start:
            continue
        weights = _classify_order(event.time, executed.get(oid), cancelled.get(oid),
                                  now, params.grace_period, params.success_mode)
        if weights is not None:
            records.append(MemoryOrder(event.side, event.price, *weights))
    return RecordMemory(records)


def _classify_order(placed_at, executed_at, cancelled_at, now, grace, mode):
    """An order's (success, failure) weights, or ``None`` while it counts
    for nothing.  Binary mode scores an order 1/0 on whether it executed;
    an unexecuted order fails once it was cancelled or outlived the grace
    period.  Fractional mode ramps the weights linearly with the time the
    order sat in the book."""
    if mode == "binary":
        if executed_at is not None:
            return 1.0, 0.0
        if cancelled_at is not None or now - placed_at > grace:
            return 0.0, 1.0
        return None  # still pending within grace; contributes nothing
    if executed_at is not None:
        alive = executed_at - placed_at
        success = max(0.0, 1.0 - alive / grace)
        return success, 1.0 - success
    alive = (cancelled_at if cancelled_at is not None else now) - placed_at
    failure = min(1.0, alive / grace)
    if failure == 0.0:
        return None
    return 0.0, failure


def build_script_book():
    book = OrderBook()
    script = [  # (time, agent, side, price); order ids are the times
        (1, 101, Side.ASK, 1000),
        (2, 102, Side.BID, 998),
        (3, 103, Side.ASK, 1003),
        (4, 104, Side.BID, 996),
        (5, 105, Side.BID, 1000),
        (6, 106, Side.ASK, 1002),
        (7, 107, Side.BID, 1000),
        (8, 108, Side.ASK, 1003),
        (9, 109, Side.BID, 1001),
        (10, 110, Side.BID, 1002),
        (11, 111, Side.BID, 1001),
        (12, 112, Side.ASK, 999),
        (13, 113, Side.BID, 1002),
        (14, 114, Side.ASK, 1004),
        (15, 115, Side.BID, 1004),
    ]
    for now, agent, side, price in script:
        book.place_limit(agent, side, price, now)
    return book


def random_memory(rng):
    records = []
    for _ in range(rng.integers(0, 25)):
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        price = int(rng.integers(990, 1011))
        if rng.random() < 0.5:
            success, failure = 1.0, 0.0
        elif rng.random() < 0.5:
            success, failure = 0.0, 1.0
        else:
            success = float(rng.uniform(0.0, 1.0))
            failure = 1.0 - success
        records.append(MemoryOrder(side, price, success, failure))
    return RecordMemory(records)
