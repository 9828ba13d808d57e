import numpy as np
import pytest

from cdasim.estimator import BeliefState
from cdasim.orderbook import (
    BookEvent,
    EventKind,
    Order,
    OrderBook,
    Side,
    Trade,
    replay,
)

from conftest import events_in_window, resting_ids


def place(book, oid, agent, side, price, now, qty=1):
    return book.place_limit(Order(oid, agent, side, price, qty), now)


def test_empty_book():
    book = OrderBook()
    assert book.best_bid() is None
    assert book.best_ask() is None
    assert book.events == []
    assert book.trades == []


def test_rest_and_touch():
    book = OrderBook()
    place(book, 1, 0, Side.BID, 998, now=1)
    place(book, 2, 1, Side.ASK, 1003, now=2)
    place(book, 3, 2, Side.BID, 1000, now=3)
    place(book, 4, 3, Side.ASK, 1001, now=4)
    assert book.best_bid() == 1000
    assert book.best_ask() == 1001
    assert book.trades == []


def test_trade_at_resting_price():
    book = OrderBook()
    place(book, 1, 0, Side.ASK, 1000, now=1)
    events = place(book, 2, 1, Side.BID, 1004, now=2)
    # the aggressive bid pays the maker's price, not its own limit
    assert len(book.trades) == 1
    trade = book.trades[0]
    assert trade == Trade(time=2, price=1000, quantity=1, buy_order_id=2,
                          sell_order_id=1, buyer_id=1, seller_id=0)
    # one PLACED plus one EXECUTED per party
    kinds = [e.kind for e in events]
    assert kinds == [EventKind.PLACED, EventKind.EXECUTED, EventKind.EXECUTED]
    assert events[1].counterparty == 1
    assert events[2].counterparty == 2
    assert book.best_bid() is None
    assert book.best_ask() is None


@pytest.mark.parametrize("record, field", [
    (BookEvent(EventKind.EXECUTED, 2, 2, 1, Side.BID, 1000, 1, counterparty=1), "price"),
    (Trade(2, 1000, 1, 2, 1, 1, 0), "quantity"),
    (BeliefState(100.0, 1.5, 3), "r_tilde"),
])
def test_records_are_immutable_and_hashable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert {record: "seen"}[copy] == "seen"


def test_fifo_within_level():
    book = OrderBook()
    place(book, 1, 0, Side.BID, 1000, now=1)
    place(book, 2, 1, Side.BID, 1000, now=2)
    place(book, 3, 2, Side.ASK, 999, now=3)
    assert book.trades[0].buy_order_id == 1  # earlier order at the level first
    place(book, 4, 3, Side.ASK, 999, now=4)
    assert book.trades[1].buy_order_id == 2


def test_best_price_before_time():
    book = OrderBook()
    place(book, 1, 0, Side.BID, 998, now=1)
    place(book, 2, 1, Side.BID, 1000, now=2)
    place(book, 3, 2, Side.ASK, 997, now=3)
    # the later but better-priced bid trades first
    assert book.trades[0].buy_order_id == 2
    assert book.best_bid() == 998


def test_partial_fill_walks_the_book():
    book = OrderBook()
    place(book, 1, 0, Side.ASK, 1000, now=1)
    place(book, 2, 1, Side.ASK, 1001, now=2)
    place(book, 3, 2, Side.ASK, 1003, now=3)
    place(book, 4, 3, Side.BID, 1001, now=4, qty=3)
    # fills at 1000 then 1001, remainder rests at its own limit
    assert [(t.price, t.quantity) for t in book.trades] == [(1000, 1), (1001, 1)]
    assert book.best_bid() == 1001
    assert 4 in resting_ids(book)
    assert book.best_ask() == 1003


def test_partial_fill_of_resting_order():
    book = OrderBook()
    place(book, 1, 0, Side.ASK, 1000, now=1, qty=5)
    place(book, 2, 1, Side.BID, 1000, now=2, qty=2)
    assert book.trades[0].quantity == 2
    assert book.best_ask() == 1000
    snap = book.depth_snapshot()
    assert snap["ASK"] == [(1000, [(1, 3)])]


def test_cancel():
    book = OrderBook()
    place(book, 1, 0, Side.BID, 1000, now=1)
    event = book.cancel(1, now=2)
    assert event.kind is EventKind.CANCELLED
    assert book.best_bid() is None
    assert book.cancel(1, now=3) is None  # already gone
    assert book.cancel(99, now=3) is None  # never existed


def test_cancel_then_trade_skips_cancelled():
    book = OrderBook()
    place(book, 1, 0, Side.BID, 1000, now=1)
    place(book, 2, 1, Side.BID, 1000, now=2)
    book.cancel(1, now=3)
    place(book, 3, 2, Side.ASK, 999, now=4)
    assert book.trades[0].buy_order_id == 2


def test_duplicate_id_and_time_regression():
    book = OrderBook()
    place(book, 1, 0, Side.BID, 1000, now=5)
    with pytest.raises(ValueError, match="duplicate"):
        place(book, 1, 1, Side.ASK, 1001, now=6)
    with pytest.raises(ValueError, match="regression"):
        place(book, 2, 1, Side.ASK, 1001, now=4)
    with pytest.raises(ValueError, match="regression"):
        book.cancel(1, now=4)


def test_event_history_window():
    book = OrderBook()
    for t, oid in enumerate([1, 2, 3, 4], start=1):
        place(book, oid, 0, Side.BID, 900 + oid, now=t)
    window = events_in_window(book, 2, 3)
    assert [e.order_id for e in window] == [2, 3]
    assert [e.order_id for e in events_in_window(book, 3)] == [3, 4]


def test_paper_script_pairings():
    # fifteen-order script at tick 0.1; four trades with known pairings
    book = OrderBook()
    script = [
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
    for now, oid, side, price in script:
        place(book, oid, oid, side, price, now=now)
    assert [(t.price, t.buy_order_id, t.sell_order_id) for t in book.trades] == [
        (1000, 105, 101),
        (1002, 110, 106),
        (1001, 109, 112),  # FIFO: 109 rested before 111 at the 1001 level
        (1003, 115, 103),
    ]


def random_book_run(seed, steps=400):
    rng = np.random.default_rng(seed)
    book = OrderBook()
    oid = 0
    live = []
    for t in range(1, steps + 1):
        if live and rng.random() < 0.2:
            victim = live.pop(rng.integers(len(live)))
            book.cancel(victim, now=t)
            continue
        oid += 1
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        price = int(rng.integers(980, 1021))
        qty = int(rng.integers(1, 4))
        place(book, oid, oid % 7, side, price, t, qty=qty)
        resting = resting_ids(book)
        if oid in resting:
            live.append(oid)
        live = [o for o in live if o in resting]
    return book


@pytest.mark.parametrize("seed", range(8))
def test_random_stream_invariants(seed):
    book = random_book_run(seed)
    # book never crossed
    if book.best_bid() is not None and book.best_ask() is not None:
        assert book.best_bid() < book.best_ask()
    # conservation: every order's placed quantity equals executions plus
    # cancellation remainder plus what still rests
    placed, executed, cancelled = {}, {}, {}
    for e in book.events:
        if e.kind is EventKind.PLACED:
            placed[e.order_id] = e.quantity
        elif e.kind is EventKind.EXECUTED:
            executed[e.order_id] = executed.get(e.order_id, 0) + e.quantity
        else:
            cancelled[e.order_id] = e.quantity
    resting = {}
    for levels in book.depth_snapshot().values():
        for _, queue in levels:
            for order_id, rem in queue:
                resting[order_id] = rem
    for order_id, qty in placed.items():
        total = executed.get(order_id, 0) + cancelled.get(order_id, 0) + resting.get(order_id, 0)
        assert total == qty, order_id
    # each trade produced exactly two EXECUTED events at the maker price
    exec_events = [e for e in book.events if e.kind is EventKind.EXECUTED]
    assert len(exec_events) == 2 * len(book.trades)
    for trade in book.trades:
        maker = min(trade.buy_order_id, trade.sell_order_id)
        assert trade.price == next(
            e.price for e in exec_events if e.order_id == maker and e.time == trade.time
        )


@pytest.mark.parametrize("seed", range(8))
def test_replay_reconstructs_book(seed):
    book = random_book_run(seed)
    rebuilt = replay(book.events)
    assert rebuilt.depth_snapshot() == book.depth_snapshot()
    assert rebuilt.trades == book.trades
    assert rebuilt.events == book.events
