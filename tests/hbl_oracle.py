"""Event-log oracles for the HBL memory.

``hbl_classify`` classifies the orders of a book's event log from scratch,
order by order, into ``MemoryOrder`` records; ``RecordMemory`` answers
belief queries over such records with the package's ``HblMemory``.  The
tests compare ``OrderHistory``, which keeps its memory incrementally, and
the decision code against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdasim.agents import HblMemory, HblParams
from cdasim.orderbook import BookEvent, EventKind, Side


@dataclass(frozen=True)
class MemoryOrder:
    side: Side
    price: int
    success: float  # weight in [0, 1]
    failure: float  # weight in [0, 1]; success + failure may be < 1 while pending


class RecordMemory(HblMemory):
    """An ``HblMemory`` built from ``MemoryOrder`` records, which it keeps."""

    def __init__(self, records, transaction_count: int):
        self.records = tuple(records)
        n = len(self.records)
        super().__init__(
            np.fromiter((r.side is Side.BID for r in self.records), dtype=bool, count=n),
            np.fromiter((r.price for r in self.records), dtype=np.int64, count=n),
            np.fromiter((r.success for r in self.records), dtype=np.float64, count=n),
            np.fromiter((r.failure for r in self.records), dtype=np.float64, count=n),
            transaction_count)


def hbl_belief(memory, p: int, side: Side) -> float:
    """Heuristic probability that a limit order at price ``p`` transacts."""
    return float(memory.belief_array([p], side)[0])


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
        return RecordMemory((), transaction_count=0)
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
    return RecordMemory(records, transaction_count=len(transactions))


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
