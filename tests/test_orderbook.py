import numpy as np
import pytest

from cdasim.estimator import BeliefState
from cdasim.orderbook import (
    BookEvent,
    EventKind,
    OrderBook,
    Side,
    Trade,
)

from conftest import depth_snapshot, events_in_window, named, replay, resting_ids
from reference_run import ListBook


def test_empty_book():
    book = OrderBook()
    assert book.best_bid() is None
    assert book.best_ask() is None
    assert book.events == []
    assert book.trades == []


def test_rest_and_touch():
    book = OrderBook()
    book.place_limit(0, Side.BID, 998, now=1)
    book.place_limit(1, Side.ASK, 1003, now=2)
    book.place_limit(2, Side.BID, 1000, now=3)
    book.place_limit(3, Side.ASK, 1001, now=4)
    assert book.best_bid() == 1000
    assert book.best_ask() == 1001
    assert book.trades == []


def test_trade_at_resting_price():
    book = OrderBook()
    book.place_limit(0, Side.ASK, 1000, now=1)
    events = named(book.place_limit(1, Side.BID, 1004, now=2))
    # the aggressive bid pays the maker's price, not its own limit
    assert len(book.trades) == 1
    trade = book.trades[0]
    assert trade == Trade(time=2, price=1000, buy_order_id=2, sell_order_id=1,
                          buyer_id=1, seller_id=0)
    # one PLACED plus one EXECUTED per party
    kinds = [e.kind for e in events]
    assert kinds == [EventKind.PLACED, EventKind.EXECUTED, EventKind.EXECUTED]
    assert events[1].counterparty == 1
    assert events[2].counterparty == 2
    assert book.best_bid() is None
    assert book.best_ask() is None
    # both orders are filled, so neither can be cancelled
    assert book.cancel(1, now=3) is None and book.cancel(2, now=3) is None
    assert len(book.events) == 4


@pytest.mark.parametrize("record, field", [
    (BookEvent(EventKind.EXECUTED, 2, 2, 1, Side.BID, 1000, counterparty=1), "price"),
    (Trade(2, 1000, 2, 1, 1, 0), "price"),
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
    book.place_limit(0, Side.BID, 1000, now=1)
    book.place_limit(1, Side.BID, 1000, now=2)
    book.place_limit(2, Side.ASK, 999, now=3)
    assert book.trades[0].buy_order_id == 1  # earlier order at the level first
    book.place_limit(3, Side.ASK, 999, now=4)
    assert book.trades[1].buy_order_id == 2


def test_best_price_before_time():
    book = OrderBook()
    book.place_limit(0, Side.BID, 998, now=1)
    book.place_limit(1, Side.BID, 1000, now=2)
    book.place_limit(2, Side.ASK, 997, now=3)
    # the later but better-priced bid trades first
    assert book.trades[0].buy_order_id == 2
    assert book.best_bid() == 998


def test_crossing_order_trades_once_with_the_touch():
    book = OrderBook()
    book.place_limit(0, Side.ASK, 1000, now=1)
    book.place_limit(1, Side.ASK, 1001, now=2)
    events = named(book.place_limit(2, Side.BID, 1005, now=3))
    # one unit: it fills against the best ask alone and does not rest
    assert book.trades == [Trade(3, 1000, 3, 1, 2, 0)]
    assert [e.kind for e in events] == [EventKind.PLACED, EventKind.EXECUTED,
                                        EventKind.EXECUTED]
    assert book.best_bid() is None
    assert depth_snapshot(book) == {"BID": [], "ASK": [(1001, [2])]}


def test_negative_limit_price_rejected():
    book = OrderBook()
    with pytest.raises(ValueError, match="limit price must be >= 0"):
        book.place_limit(0, Side.BID, -1, now=1)
    assert book.events == []
    assert named(book.place_limit(0, Side.BID, 0, now=1))[0].order_id == 1  # the id was not taken
    assert book.best_bid() == 0


def test_depth_snapshot_lists_ids_in_priority_order():
    book = OrderBook()
    for oid, (side, price) in enumerate([(Side.BID, 998), (Side.BID, 999), (Side.BID, 998),
                                         (Side.ASK, 1002), (Side.ASK, 1001),
                                         (Side.ASK, 1001)], start=1):
        book.place_limit(oid, side, price, now=oid)
    assert depth_snapshot(book) == {"BID": [(999, [2]), (998, [1, 3])],
                                     "ASK": [(1001, [5, 6]), (1002, [4])]}


def test_cancel():
    book = OrderBook()
    book.place_limit(0, Side.BID, 1000, now=1)
    event = book.cancel(1, now=2)
    assert event == BookEvent(EventKind.CANCELLED, 2, 1, 0, Side.BID, 1000)
    assert book.best_bid() is None
    assert book.cancel(1, now=3) is None  # already gone
    assert book.cancel(99, now=3) is None  # never existed


def test_cancel_inside_a_level_keeps_the_others_in_order():
    book = OrderBook()
    for oid in (1, 2, 3):
        book.place_limit(oid, Side.ASK, 1001, now=oid)
    book.cancel(2, now=4)
    assert depth_snapshot(book)["ASK"] == [(1001, [1, 3])]
    book.cancel(1, now=5)
    book.cancel(3, now=6)
    assert depth_snapshot(book)["ASK"] == [] and book.best_ask() is None


def test_cancel_then_trade_skips_cancelled():
    book = OrderBook()
    book.place_limit(0, Side.BID, 1000, now=1)
    book.place_limit(1, Side.BID, 1000, now=2)
    book.cancel(1, now=3)
    book.place_limit(2, Side.ASK, 999, now=4)
    assert book.trades[0].buy_order_id == 2


def test_ids_number_placements_in_order():
    # resting, filled and cancelled orders alike take 1, 2, 3, ... as placed
    book = OrderBook()
    ids = [named(book.place_limit(0, Side.BID, 1000, now=1))[0].order_id,
           named(book.place_limit(1, Side.ASK, 1002, now=2))[0].order_id]
    book.cancel(1, now=3)
    ids += [named(book.place_limit(2, Side.BID, 1002, now=3))[0].order_id,  # fills order 2
            named(book.place_limit(3, Side.ASK, 1001, now=4))[0].order_id]
    assert ids == [1, 2, 3, 4]
    placed = [e.order_id for e in named(book.events) if e.kind is EventKind.PLACED]
    assert placed == ids
    assert book.trades == [Trade(3, 1002, 3, 2, 2, 1)]


def test_rejected_placement_takes_no_id():
    book = OrderBook()
    book.place_limit(0, Side.BID, 1000, now=5)
    with pytest.raises(ValueError, match="limit price must be >= 0"):
        book.place_limit(1, Side.ASK, -1, now=6)
    with pytest.raises(ValueError, match="regression"):
        book.place_limit(1, Side.ASK, 1001, now=4)
    with pytest.raises(ValueError, match="regression"):
        book.cancel(1, now=4)
    assert len(book.events) == 1
    assert named(book.place_limit(1, Side.ASK, 1001, now=6))[0].order_id == 2


def test_event_history_window():
    book = OrderBook()
    for t, oid in enumerate([1, 2, 3, 4], start=1):
        book.place_limit(0, Side.BID, 900 + oid, now=t)
    window = events_in_window(book, 2, 3)
    assert [e.order_id for e in window] == [2, 3]
    assert [e.order_id for e in events_in_window(book, 3)] == [3, 4]


def test_paper_script_pairings():
    # fifteen-order script at tick 0.1; four trades with known pairings
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
        book.place_limit(agent, side, price, now=now)
    assert [(t.price, t.buy_order_id, t.sell_order_id) for t in book.trades] == [
        (1000, 5, 1),
        (1002, 10, 6),
        (1001, 9, 12),  # FIFO: 9 rested before 11 at the 1001 level
        (1003, 15, 3),
    ]
    assert [(t.buyer_id, t.seller_id) for t in book.trades] == [
        (105, 101), (110, 106), (109, 112), (115, 103)]


def random_book_run(seed, steps=400, shadow=None):
    """A book driven by a random stream of placements and cancellations, and
    the same stream in ``shadow`` if one is given."""
    rng = np.random.default_rng(seed)
    book = OrderBook()
    oid = 0
    live = []
    for t in range(1, steps + 1):
        if live and rng.random() < 0.2:
            victim = live.pop(rng.integers(len(live)))
            book.cancel(victim, now=t)
            if shadow is not None:
                shadow.cancel(victim, t)
            continue
        oid += 1
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        price = int(rng.integers(980, 1021))
        assert named(book.place_limit(oid % 7, side, price, t))[0].order_id == oid
        if shadow is not None:
            shadow.place(oid % 7, side, price, t)
        resting = resting_ids(book)
        if oid in resting:
            live.append(oid)
        live = [o for o in live if o in resting]
    return book


@pytest.mark.parametrize("seed", range(8))
def test_random_stream_invariants(seed):
    # the list-scan book logs the same events and trades and rests the same
    # orders, so each unit order resolves at most once and rests exactly
    # when it is not resolved, and each trade logs two executions at the
    # maker's price
    shadow = ListBook()
    book = random_book_run(seed, shadow=shadow)
    if book.best_bid() is not None and book.best_ask() is not None:
        assert book.best_bid() < book.best_ask()  # book never crossed
    assert (book.events, book.trades) == (shadow.events, shadow.trades)
    assert resting_ids(book) == {e.order_id for e in shadow.resting}


@pytest.mark.parametrize("seed", range(8))
def test_replay_reconstructs_book(seed):
    book = random_book_run(seed)
    rebuilt = replay(book.events)
    assert depth_snapshot(rebuilt) == depth_snapshot(book)
    assert rebuilt.trades == book.trades
    assert rebuilt.events == book.events
