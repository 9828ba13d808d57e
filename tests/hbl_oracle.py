"""Oracles for the HBL memory.

``HblMemory`` answers belief queries with prefix sums over each side's
orders sorted by price, the float addition order that fractional mode
keeps, and ``tick_memory_from_orders`` lays the same sums on ticks as a
``TickMemory``, from scratch.  ``clamped_beliefs`` reads a
``TickMemory``'s beliefs at each price separately, with the span's bounds
clamped per query, as ``TickMemory`` did before it read one dense pass.
``hbl_classify`` classifies the orders of a
book's event log from scratch, order by order, into ``MemoryOrder``
records, and ``RecordMemory`` is an ``HblMemory`` over such records.
``window_oracle`` classifies the orders placed from any given time on.
``exact_beliefs`` sums the weights of such records as ``Fraction``s, so a
binary belief is a quotient of two exact counts.  The tests compare
``OrderHistory``, which reads the book's log incrementally, ``TickMemory``
and the decision code against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cdasim.agents import HblParams, TickMemory
from cdasim.orderbook import BookEvent, EventKind, Side


@dataclass(frozen=True)
class MemoryOrder:
    side: Side
    price: int
    success: float  # weight in [0, 1]
    failure: float  # weight in [0, 1]; success + failure may be < 1 while pending


class HblMemory:
    """Classified order history with prefix sums for fast belief queries.

    Built from parallel arrays of sides, prices and success and failure
    weights in [0, 1], with each side's weights summed in (price,
    placement) order.
    """

    def __init__(self, is_bid, prices, success, failure):
        is_bid = np.asarray(is_bid, dtype=bool)
        prices = np.asarray(prices, dtype=np.int64)
        success = np.asarray(success, dtype=np.float64)
        failure = np.asarray(failure, dtype=np.float64)
        self._count = len(prices)
        bid_order = np.argsort(prices[is_bid], kind="stable")
        ask_mask = ~is_bid
        ask_order = np.argsort(prices[ask_mask], kind="stable")
        # BID-side query ingredients
        self._bid_prices_sorted = prices[is_bid][bid_order]
        self._ask_prices = prices[ask_mask][ask_order]
        bid_succ = success[is_bid][bid_order]
        bid_fail = failure[is_bid][bid_order]
        self._bid_succ_prefix = np.concatenate(([0.0], np.cumsum(bid_succ)))
        self._bid_fail_suffix = np.concatenate(([0.0], np.cumsum(bid_fail[::-1])))
        # ASK-side (mirrored) query ingredients
        ask_succ = success[ask_mask][ask_order]
        ask_fail = failure[ask_mask][ask_order]
        self._ask_succ_suffix = np.concatenate(([0.0], np.cumsum(ask_succ[::-1])))
        self._ask_fail_prefix = np.concatenate(([0.0], np.cumsum(ask_fail)))

    def __len__(self) -> int:
        return self._count

    @property
    def prices(self) -> np.ndarray:
        # not np.union1d/np.unique: in numpy 2.x their first call lazily imports numpy.ma (~10 ms)
        merged = np.sort(np.concatenate((self._bid_prices_sorted, self._ask_prices)))
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
        if side is Side.BID:
            favorable = np.searchsorted(self._ask_prices, p, side="right").astype(float)
            succ = self._bid_succ_prefix[np.searchsorted(self._bid_prices_sorted, p,
                                                         side="right")]
            fail = self._bid_fail_suffix[len(self._bid_prices_sorted)
                                         - np.searchsorted(self._bid_prices_sorted, p,
                                                           side="left")]
        else:
            favorable = (len(self._bid_prices_sorted)
                         - np.searchsorted(self._bid_prices_sorted, p,
                                           side="left")).astype(float)
            succ = self._ask_succ_suffix[len(self._ask_prices)
                                         - np.searchsorted(self._ask_prices, p,
                                                           side="left")]
            fail = self._ask_fail_prefix[np.searchsorted(self._ask_prices, p,
                                                         side="right")]
        numerator = favorable + succ
        denominator = numerator + fail
        return np.divide(numerator, denominator,
                         out=np.zeros_like(numerator), where=denominator > 0.0)


class RecordMemory(HblMemory):
    """An ``HblMemory`` built from ``MemoryOrder`` records, which it keeps."""

    def __init__(self, records):
        self.records = tuple(records)
        super().__init__(*order_arrays(self.records))


def order_arrays(records):
    """Parallel arrays of sides (``True`` for a bid), prices, successes and
    failures of ``MemoryOrder`` records."""
    n = len(records)
    return (np.fromiter((r.side is Side.BID for r in records), dtype=bool, count=n),
            np.fromiter((r.price for r in records), dtype=np.int64, count=n),
            np.fromiter((r.success for r in records), dtype=np.float64, count=n),
            np.fromiter((r.failure for r in records), dtype=np.float64, count=n))


def hbl_belief(memory, p: int, side: Side) -> float:
    """Heuristic probability that a limit order at price ``p`` transacts."""
    return float(memory.belief_array([p], side)[0])


def exact_beliefs(records, prices, side: Side) -> list[Fraction]:
    """The belief at each of ``prices`` in exact arithmetic: the favorable
    and unfavorable masses of ``MemoryOrder`` records summed as
    ``Fraction``s, and 0 where the denominator is empty.

    A binary record weighs 0 or 1, so its belief is a quotient of two
    integer counts, and ``float`` of it is the correctly rounded quotient.
    """
    beliefs = []
    for p in prices:
        if side is Side.BID:
            favorable = sum(r.side is Side.ASK and r.price <= p for r in records)
            succ = sum(Fraction(r.success) for r in records
                       if r.side is Side.BID and r.price <= p)
            fail = sum(Fraction(r.failure) for r in records
                       if r.side is Side.BID and r.price >= p)
        else:
            favorable = sum(r.side is Side.BID and r.price >= p for r in records)
            succ = sum(Fraction(r.success) for r in records
                       if r.side is Side.ASK and r.price >= p)
            fail = sum(Fraction(r.failure) for r in records
                       if r.side is Side.ASK and r.price <= p)
        numerator = favorable + succ
        denominator = numerator + fail
        beliefs.append(Fraction(numerator) / denominator if denominator else Fraction(0))
    return beliefs


def hbl_classify(events, now: int, params: HblParams) -> RecordMemory:
    """Build the classified memory covering the last L observed transactions.

    The memory spans every order placed at or after the placement time of
    the oldest order involved in those transactions.  Binary mode scores an
    order 1/0 on whether any part of it executed (unexecuted orders count
    as failures only once they outlived the grace period or were
    cancelled); fractional mode ramps the weights linearly with the time
    the order sat in the book.
    """
    placed: dict[int, BookEvent] = {}
    exec_time: dict[int, int] = {}
    cancel_time: dict[int, int] = {}
    transactions: list[tuple[int, int]] = []  # (order_id, counterparty), time-ordered
    seen_pairs: set[tuple[int, int, int]] = set()
    for event in events:
        if event.kind is EventKind.PLACED:
            placed[event.order_id] = event
        elif event.kind is EventKind.EXECUTED:
            exec_time.setdefault(event.order_id, event.time)
            key = (event.time, min(event.order_id, event.counterparty),
                   max(event.order_id, event.counterparty))
            if key not in seen_pairs:
                seen_pairs.add(key)
                transactions.append((event.order_id, event.counterparty))
        elif event.kind is EventKind.CANCELLED:
            cancel_time[event.order_id] = event.time

    recent = transactions[-params.memory_length:]
    if not recent:
        return RecordMemory(())
    involved = {oid for pair in recent for oid in pair}
    missing = involved - placed.keys()
    if missing:
        raise ValueError(f"malformed event stream: executions without placements {sorted(missing)}")
    window_start = min(placed[oid].time for oid in involved)

    grace = params.grace_period
    records = []
    for oid, event in placed.items():
        if event.time < window_start:
            continue
        weights = _classify_order(event.time, exec_time.get(oid), cancel_time.get(oid),
                                  now, grace, params.success_mode)
        if weights is None:
            continue
        success, failure = weights
        records.append(MemoryOrder(event.side, event.price, success, failure))
    return RecordMemory(records)


def _classify_order(placed_at, executed_at, cancelled_at, now, grace, mode):
    if mode == "binary":
        if executed_at is not None:
            return 1.0, 0.0
        if cancelled_at is not None:
            return 0.0, 1.0
        if now - placed_at > grace:
            return 0.0, 1.0
        return None  # still pending within grace; contributes nothing
    # fractional
    if executed_at is not None:
        alive = executed_at - placed_at
        success = max(0.0, 1.0 - alive / grace)
        return success, 1.0 - success
    alive = (cancelled_at if cancelled_at is not None else now) - placed_at
    failure = min(1.0, alive / grace)
    if failure == 0.0:
        return None
    return 0.0, failure


def window_oracle(events, window_start, now, params: HblParams) -> RecordMemory:
    """The classification of the orders placed at or after ``window_start``,
    read straight off the event log."""
    placed, executed, cancelled = {}, {}, {}
    for event in events:
        if event.kind is EventKind.PLACED:
            placed[event.order_id] = event
        elif event.kind is EventKind.EXECUTED:
            executed.setdefault(event.order_id, event.time)
        else:
            cancelled[event.order_id] = event.time
    grace = params.grace_period
    records = []
    for oid, event in placed.items():
        if event.time < window_start:
            continue
        if params.success_mode == "fractional":
            weights = _classify_order(event.time, executed.get(oid), cancelled.get(oid),
                                      now, grace, "fractional")
            if weights is not None:
                records.append(MemoryOrder(event.side, event.price, *weights))
        elif oid in executed:
            records.append(MemoryOrder(event.side, event.price, 1.0, 0.0))
        elif oid in cancelled or now - event.time > grace:
            records.append(MemoryOrder(event.side, event.price, 0.0, 1.0))
    return RecordMemory(records)


def tick_memory_from_orders(is_bid, price, success, failure) -> TickMemory:
    """The ``TickMemory`` of these orders, given in placement order, built
    from scratch.

    Each side's weights are sorted by price, stably, and summed in that
    order (forwards for "at or below", backwards for "at or above"), then
    read at the tick boundaries, so fractional weights keep one fixed float
    addition order.  Integer weights give int64 sums, as the binary ledger
    keeps them.  The span runs from one tick below the lowest price to one
    above the highest, as the fractional ledger lays it.
    """
    # an empty tick beyond each end, as TickMemory needs; one tick if empty
    lo = int(price.min()) - 1 if price.size else 0
    span = int(price.max()) - lo + 2 if price.size else 1
    ticks = np.arange(lo, lo + span + 1)
    counts = np.empty((2, span), dtype=np.int64)
    weights = np.empty((4, span + 1), dtype=np.result_type(success, failure))
    for row, mask in enumerate((is_bid, ~is_bid)):
        order = np.argsort(price[mask], kind="stable")
        below = np.searchsorted(price[mask][order], ticks, side="left")
        counts[row] = np.diff(below)
        rising, falling = success[mask][order], failure[mask][order]
        if row:  # asks: failures count at or below, successes at or above
            rising, falling = falling, rising
        weights[row] = np.concatenate(([0], np.cumsum(rising)))[below]
        weights[2 + row] = np.concatenate(
            ([0], np.cumsum(falling[::-1])))[below[-1] - below]
    return TickMemory(lo, counts, weights)


def clamped_beliefs(memory: TickMemory, prices, side: Side) -> np.ndarray:
    """``memory``'s belief at each of ``prices``, each mass gathered at the
    price's own cumulative bound clamped to the span, so a price outside
    the span reads an empty or a full sum whatever the end ticks hold."""
    counts, weights = memory._counts, memory._weights
    k = np.asarray(prices, dtype=np.int64) - memory._lo
    span = counts.shape[1]
    at_or_below = np.minimum(np.maximum(k + 1, 0), span)
    at_or_above = np.minimum(np.maximum(k, 0), span)
    favorable = np.zeros(span + 1, dtype=np.int64)
    if side is Side.BID:
        np.add.accumulate(counts[1], out=favorable[1:])
        favorable = favorable[at_or_below]
        succ = weights[0][at_or_below]
        fail = weights[2][at_or_above]
    else:
        np.add.accumulate(counts[0, ::-1], out=favorable[-2::-1])
        favorable = favorable[at_or_above]
        succ = weights[3][at_or_above]
        fail = weights[1][at_or_below]
    numerator = favorable + succ
    denominator = numerator + fail
    return np.divide(numerator, denominator,
                     out=np.zeros(numerator.shape), where=denominator > 0)
