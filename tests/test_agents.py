import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdasim.agents import (
    ActionKind,
    HblParams,
    ZiParams,
    hbl_belief_spline,
    hbl_candidate_grid,
    natural_cubic_spline,
    OrderHistory,
    TickMemory,
    _solve_tridiagonal,
)
from cdasim.orderbook import BookEvent, EventKind, OrderBook, Side, Trade
from cdasim.preferences import PrivateValues

from conftest import HBL, PV, ZI, FixedRng, hbl_action, named, resting_ids, zi_action
from reference_run import hbl_candidates, scalar_choice_oracle, spline_beliefs
from hbl_oracle import (
    MemoryOrder,
    RecordMemory,
    belief_array,
    build_script_book,
    exact_beliefs,
    hbl_belief,
    hbl_classify,
    order_arrays,
    random_memory,
    records_of,
)


# ---------------------------------------------------------------------------
# Zero Intelligence
# ---------------------------------------------------------------------------


def test_zi_buy_golden(grid_001):
    # holdings 1, estimate 100.0 -> valuation 100.0 - 0.2 = 99.8; requested
    # surplus 0.25 shades the bid to 99.55
    rng = FixedRng(random_value=0.0, surplus_fraction=0.25)
    action = zi_action(1, PV, 100.0, best_bid=None, best_ask=None,
                       params=ZI, rng=rng, grid=grid_001)
    assert action.kind is ActionKind.PLACE
    assert action.side is Side.BID
    assert action.limit_price == 9955


def test_zi_buy_threshold_take(grid_001):
    # eta = 0.5: take the touch whenever it leaves at least 0.125 surplus,
    # i.e. any offer at or below 99.67(5)
    rng = FixedRng(random_value=0.0, surplus_fraction=0.25)
    take = zi_action(1, PV, 100.0, best_bid=None, best_ask=9967,
                     params=ZI, rng=rng, grid=grid_001)
    assert take.kind is ActionKind.TAKE
    assert take.limit_price == 9967
    rng = FixedRng(random_value=0.0, surplus_fraction=0.25)
    place = zi_action(1, PV, 100.0, best_bid=None, best_ask=9968,
                      params=ZI, rng=rng, grid=grid_001)
    assert place.kind is ActionKind.PLACE
    assert place.limit_price == 9955


def test_zi_sell_golden(grid_001):
    # holdings 2, sell valuation 99.8; ask shades up to 100.05
    rng = FixedRng(random_value=0.9, surplus_fraction=0.25)
    action = zi_action(2, PV, 100.0, best_bid=None, best_ask=None,
                       params=ZI, rng=rng, grid=grid_001)
    assert action.side is Side.ASK
    assert action.limit_price == 10005
    rng = FixedRng(random_value=0.9, surplus_fraction=0.25)
    take = zi_action(2, PV, 100.0, best_bid=9993, best_ask=None,
                     params=ZI, rng=rng, grid=grid_001)
    assert take.kind is ActionKind.TAKE
    assert take.limit_price == 9993


def test_zi_rounding_directions(grid_001):
    # bids round down to the grid, asks round up (never cross the valuation)
    rng = FixedRng(random_value=0.0, surplus_fraction=0.246)
    bid = zi_action(1, PV, 100.0, None, None, ZI, rng, grid_001)
    assert bid.limit_price == 9955  # 99.554 floors
    rng = FixedRng(random_value=0.9, surplus_fraction=0.246)
    ask = zi_action(2, PV, 100.0, None, None, ZI, rng, grid_001)
    assert ask.limit_price == 10005  # 100.046 ceils


def test_zi_side_flip_at_holdings_limit(grid_001):
    # coin says buy but the agent is at +q_max, so it sells instead
    rng = FixedRng(random_value=0.0, surplus_fraction=0.5)
    action = zi_action(3, PV, 100.0, None, None, ZI, rng, grid_001)
    assert action.side is Side.ASK
    rng = FixedRng(random_value=0.9, surplus_fraction=0.5)
    action = zi_action(-3, PV, 100.0, None, None, ZI, rng, grid_001)
    assert action.side is Side.BID


def test_zi_threshold_uses_real_arithmetic(grid_001):
    # the eta comparison happens before any tick rounding
    rng = FixedRng(random_value=0.0, surplus_fraction=0.25)
    # valuation 99.8, ask 99.675 exactly: 0.125 >= 0.125 takes
    action = zi_action(1, PV, 100.0, None, 9968, ZI, rng, grid_001)
    assert action.kind is ActionKind.PLACE  # 99.8 - 99.68 = 0.12 < 0.125
    eta_one = ZiParams(0.0, 1.0, 1.0, 10.0, 3, 25.0)
    rng = FixedRng(random_value=0.0, surplus_fraction=0.19)
    action = zi_action(1, PV, 100.0, None, 9960, eta_one, rng, grid_001)
    assert action.kind is ActionKind.TAKE  # full surplus available at the touch


def test_zi_limit_floors_at_zero(grid_001):
    rng = FixedRng(random_value=0.0, surplus_fraction=1.0)
    pv = PrivateValues(q_max=1, values=(0.0, 0.0))
    action = zi_action(0, pv, 0.5, None, None, ZiParams(0.0, 1.0, 1.0, 0.0, 1, 0.0),
                       rng, grid_001)
    assert action.limit_price == 0
    # an ask below 0: r_hat 0.5 and a selling private value of -5
    rng = FixedRng(random_value=0.9, surplus_fraction=0.0)
    pv = PrivateValues(q_max=1, values=(-5.0, -6.0))
    action = zi_action(0, pv, 0.5, None, None, ZiParams(0.0, 1.0, 1.0, 0.0, 1, 0.0),
                       rng, grid_001)
    assert (action.side, action.limit_price) == (Side.ASK, 0)


def test_zi_statistical_shading(grid_01, rng):
    # requested surplus is uniform on [r_min, r_max]; the realized shading
    # (valuation minus limit) averages to the midpoint
    shades = []
    for _ in range(4000):
        action = zi_action(0, PV, 100.0, None, None, ZI, rng, grid_01)
        if action.side is Side.BID:
            shades.append(PV.buy_valuation(0, 100.0) - 0.1 * action.limit_price)
        else:
            shades.append(0.1 * action.limit_price - PV.sell_valuation(0, 100.0))
    # rounding away from the valuation adds half a tick on average
    assert np.mean(shades) == pytest.approx(0.55, abs=0.05)


# ---------------------------------------------------------------------------
# HBL memory construction (order script reused from the matching tests)
# ---------------------------------------------------------------------------


def test_script_memory_beliefs(grid_01):
    # the four remembered transactions pull in every order; with all orders
    # resolved the bid belief takes these exact values on the ten-point grid
    book = build_script_book()
    memory = hbl_classify(book.events, now=100, params=HBL)
    assert len(memory) == 15
    expected = {
        995: 0.0,
        996: 0.0,
        998: 0.0,
        999: 1 / 4,
        1000: 3 / 6,
        1001: 4 / 6,
        1002: 6 / 7,
        1003: 1.0,
        1004: 1.0,
        1005: 1.0,
    }
    for price, prob in expected.items():
        assert hbl_belief(memory, price, Side.BID) == pytest.approx(prob), price


def test_script_candidate_grid():
    book = build_script_book()
    memory = hbl_classify(book.events, now=100, params=HBL)
    grid = hbl_candidate_grid(memory)
    assert grid.dtype == np.int64
    assert grid.tolist() == [995, 996, 998, 999, 1000, 1001, 1002, 1003, 1004, 1005]
    dense = hbl_candidate_grid(memory, mode="spline")
    assert dense.dtype == np.int64
    assert dense.tolist() == list(range(995, 1006))


def test_candidate_grid_matches_union_oracle(rng):
    for _ in range(300):
        memory = tick_memory(random_memory(rng).records)
        if rng.random() < 0.2:  # prices at the bottom of the tick range
            memory = tick_memory([MemoryOrder(Side.BID, int(p), 1.0, 0.0)
                                  for p in rng.integers(0, 4, size=2)])
        elif rng.random() < 0.1:  # a range about the spline grid's 65,536 ticks
            memory = tick_memory([MemoryOrder(Side.ASK, p, 1.0, 0.0)
                                  for p in (1000, 1000 + int(rng.integers(65530, 65540)))])
        observed = memory.prices.tolist()
        grid = hbl_candidate_grid(memory)
        dense = hbl_candidate_grid(memory, "spline")
        assert grid.dtype == dense.dtype == np.int64
        if not observed:
            assert grid.size == dense.size == 0
            continue
        assert grid.tolist() == hbl_candidates(observed, "observed")
        assert dense.tolist() == hbl_candidates(observed, "spline")


def test_script_seller_decision(grid_01):
    # sell valuation 99.8: best ask is 100.2 (surplus 0.4 at probability 1)
    book = build_script_book()
    memory = hbl_classify(book.events, now=100, params=HBL)
    rng = FixedRng(random_value=0.9)
    action = hbl_action(2, PV, 100.0, memory, HBL, ZI, rng, grid_01)
    assert action.side is Side.ASK
    assert action.limit_price == 1002


def test_memory_window_excludes_stale_orders():
    # an order placed before the oldest remembered transaction's orders is
    # not part of the memory
    book = OrderBook()
    book.place_limit(1, Side.BID, 900, 1)  # stale
    book.place_limit(2, Side.ASK, 1000, 10)
    book.place_limit(3, Side.BID, 1000, 11)
    params = HblParams(memory_length=1, grace_period=5)
    memory = hbl_classify(book.events, now=12, params=params)
    assert len(memory) == 2
    assert all(r.price == 1000 for r in memory.records)


def test_memory_limits_to_last_l_transactions():
    book = build_script_book()
    params = HblParams(memory_length=2, grace_period=5)
    memory = hbl_classify(book.events, now=100, params=params)
    # last two trades involve orders 9/12 (placed 9, 12) and 15/3
    # (placed 15, 3); window starts at the ask placed at t=3
    assert len(memory) == 13  # drops the two orders placed before t=3


def test_classify_binary_pending_within_grace():
    events = [
        BookEvent(EventKind.PLACED, 1, 1, 1, Side.ASK, 1000),
        BookEvent(EventKind.PLACED, 2, 2, 2, Side.BID, 1000),
        BookEvent(EventKind.EXECUTED, 2, 2, 2, Side.BID, 1000, counterparty=1),
        BookEvent(EventKind.EXECUTED, 2, 1, 1, Side.ASK, 1000, counterparty=2),
        BookEvent(EventKind.PLACED, 3, 3, 3, Side.BID, 990),
        BookEvent(EventKind.PLACED, 4, 4, 4, Side.BID, 991),
        BookEvent(EventKind.CANCELLED, 5, 4, 4, Side.BID, 991),
    ]
    params = HblParams(memory_length=1, grace_period=5)
    memory = hbl_classify(events, now=6, params=params)
    by_price = {r.price: r for r in memory.records}
    assert by_price[1000].success == 1.0  # both sides of the trade
    assert by_price[991].failure == 1.0  # cancelled counts as rejected
    assert 990 not in by_price  # pending within grace contributes nothing
    late = hbl_classify(events, now=9, params=params)
    assert {r.price: r.failure for r in late.records}[990] == 1.0  # outlived grace


def test_classify_fractional_ramp():
    events = [
        BookEvent(EventKind.PLACED, 0, 1, 1, Side.ASK, 1000),
        BookEvent(EventKind.PLACED, 3, 2, 2, Side.BID, 1000),
        BookEvent(EventKind.EXECUTED, 3, 2, 2, Side.BID, 1000, counterparty=1),
        BookEvent(EventKind.EXECUTED, 3, 1, 1, Side.ASK, 1000, counterparty=2),
        BookEvent(EventKind.PLACED, 3, 3, 3, Side.BID, 990),
        BookEvent(EventKind.PLACED, 3, 4, 4, Side.BID, 991),
        BookEvent(EventKind.CANCELLED, 5, 4, 4, Side.BID, 991),
    ]
    params = HblParams(memory_length=1, grace_period=10,
                       success_mode="fractional")
    memory = hbl_classify(events, now=7, params=params)
    by_price = {r.price: r for r in memory.records}
    # the aggressor executed instantly, the resting ask after 3 steps
    assert by_price[990].failure == pytest.approx(0.4)  # alive 4 of 10 steps
    assert by_price[991].failure == pytest.approx(0.2)  # cancelled after 2
    asks = [r for r in memory.records if r.side is Side.ASK]
    assert asks[0].success == pytest.approx(0.7)
    assert asks[0].failure == pytest.approx(0.3)
    bids_1000 = [r for r in memory.records if r.side is Side.BID and r.price == 1000]
    assert bids_1000[0].success == 1.0


def test_classify_rejects_orphan_execution():
    events = [
        BookEvent(EventKind.EXECUTED, 2, 2, 2, Side.BID, 1000, counterparty=1),
        BookEvent(EventKind.EXECUTED, 2, 1, 1, Side.ASK, 1000, counterparty=2),
    ]
    with pytest.raises(ValueError, match="malformed event stream"):
        hbl_classify(events, now=3, params=HBL)


def test_classify_empty_stream():
    memory = hbl_classify([], now=5, params=HBL)
    assert len(memory) == 0
    assert hbl_candidate_grid(memory).size == 0


# ---------------------------------------------------------------------------
# belief function against a brute-force rescan oracle
# ---------------------------------------------------------------------------


def tick_memory(records):
    """The package's ``TickMemory`` of ``MemoryOrder`` records."""
    return TickMemory.from_orders(*order_arrays(records))


def memories_from_prices(bid_prices, ask_prices):
    """The same memory built from records and on ticks."""
    records = [MemoryOrder(Side.BID, price, 1.0, 0.0) for price in bid_prices]
    records += [MemoryOrder(Side.ASK, price, 1.0, 0.0) for price in ask_prices]
    return RecordMemory(records), tick_memory(records)


def assert_prices_match_union_oracle(memory, bid_prices, ask_prices):
    expected = sorted(set(bid_prices) | set(ask_prices))
    got = memory.prices
    assert got.tolist() == expected
    assert got.dtype == np.int64


def edge_orders(case, rng):
    """Sides and prices of one random memory of an edge case."""
    n = int(rng.integers(1, 40))
    if case == "empty":
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    if case == "bids only":
        return np.ones(n, dtype=bool), rng.integers(995, 1006, size=n)
    if case == "asks only":
        return np.zeros(n, dtype=bool), rng.integers(995, 1006, size=n)
    is_bid = rng.random(n) < 0.5
    if case == "single tick":
        return is_bid, np.full(n, 1000)
    if case == "tick zero":
        return is_bid, rng.integers(0, 4, size=n)
    if case == "far ticks":  # two clusters 10^12 ticks apart, as after a price jump
        return is_bid, rng.integers(995, 1006, size=n) + 10**12 * (rng.random(n) < 0.5)
    # cent ticks: prices near 100.00, over 200 ticks with gaps between orders
    return is_bid, rng.integers(9900, 10101, size=n)


def edge_queries(price):
    """Every tick from three below to three above the memory, or above each
    cluster of it when its prices lie more than 10^6 ticks apart."""
    ticks = np.sort(price) if price.size else np.array([1000])
    clusters = np.split(ticks, np.flatnonzero(np.diff(ticks) > 10**6) + 1)
    return np.concatenate([np.arange(part[0] - 3, part[-1] + 4) for part in clusters])


def edge_weights(rng, n, grace):
    """Binary weights, or fractional ones as the classification gives them:
    an executed order's success ramps from 1 to 0 over the grace period and
    any other order fails by the share of it that it sat in the book."""
    executed = rng.random(n) < 0.5
    if grace is None:
        return executed.astype(np.float64), (~executed).astype(np.float64)
    alive = rng.integers(0, 2 * grace, size=n)
    success = np.where(executed, np.maximum(0.0, 1.0 - alive / grace), 0.0)
    failure = np.where(executed, 1.0 - success, np.minimum(1.0, (alive + 1) / grace))
    return success, failure


EDGE_CASES = ["empty", "bids only", "asks only", "single tick", "tick zero", "cent ticks",
              "far ticks"]


@pytest.mark.parametrize("grace", [None, 3, 7, 100])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_tick_memory_matches_oracle_edge_cases(case, grace, rng):
    widest = 0
    for _ in range(40):
        is_bid, price = edge_orders(case, rng)
        success, failure = edge_weights(rng, price.size, grace)
        got = TickMemory.from_orders(is_bid, price, success, failure)
        expected = RecordMemory(records_of(is_bid, price, success, failure))
        assert len(got) == len(expected) == price.size
        assert np.array_equal(got.prices, expected.prices)
        assert got.prices.dtype == np.int64
        if price.size:
            widest = max(widest, int(price.max() - price.min()))
        queries = edge_queries(price)
        for side in Side:
            assert_bitwise_equal(belief_array(got, queries, side),
                                 belief_array(expected, queries, side))
    assert case != "cent ticks" or widest > 64


# one order of a generated memory: bid or ask, its tick above the lowest,
# whether it executed, and a weight: its success if it executed, else its failure
GENERATED_ORDER = st.tuples(st.booleans(), st.integers(0, 12), st.booleans(),
                            st.floats(0.0, 1.0))


@settings(max_examples=150)
@example(orders=[(True, 0, True, 1.0)], fractional=False, lowest=0)  # one tick, at 0
@example(orders=[(False, 0, False, 0.5), (True, 0, True, 0.25), (True, 3, False, 1.0)],
         fractional=True, lowest=0)
@given(orders=st.lists(GENERATED_ORDER, min_size=1, max_size=40), fractional=st.booleans(),
       lowest=st.sampled_from([0, 1, 1000, 10**12]))
def test_positional_beliefs_equal_the_search_reader(orders, fractional, lowest):
    # beliefs() at one tick below the lowest, at each tick and one above the
    # highest, bit for bit as the search reader finds them at those prices
    is_bid = np.array([bid for bid, _, _, _ in orders])
    price = np.array([lowest + offset for _, offset, _, _ in orders], dtype=np.int64)
    executed = np.array([done for _, _, done, _ in orders])
    weight = np.array([w for _, _, _, w in orders])
    if fractional:  # float weights, a pending order failing by its weight
        success = np.where(executed, weight, 0.0)
        failure = np.where(executed, 1.0 - weight, weight)
    else:  # int64 counts, as the binary ledger keeps them
        success = executed.astype(np.int64)
        failure = 1 - success
    memory = TickMemory.from_orders(is_bid, price, success, failure)
    assume(len(memory))  # empty if every order is a pending one of weight 0, which is left out
    ticks = memory.prices
    points = np.concatenate(([ticks[0] - 1], ticks, [ticks[-1] + 1]))
    for side in Side:
        assert_bitwise_equal(memory.beliefs(side), belief_array(memory, points, side))


# one order of a generated window: bid or ask, its tick above the lowest, its
# class and a weight, its success if it executed, else its failure
WINDOW_ORDER = st.tuples(st.booleans(), st.integers(0, 12),
                         st.sampled_from(["executed", "failed", "weightless"]),
                         st.floats(0.0, 1.0))


@settings(max_examples=200)
@example(orders=[(True, 0, "weightless", 0.5)] * 3, sides="both", fractional=True,
         first=Side.BID)
@example(orders=[(False, 2, "failed", 0.0), (True, 0, "executed", 0.25)], sides="asks only",
         fractional=True, first=Side.ASK)
@given(orders=st.lists(WINDOW_ORDER, max_size=40),
       sides=st.sampled_from(["both", "bids only", "asks only"]), fractional=st.booleans(),
       first=st.sampled_from(list(Side)))
def test_from_orders_lays_out_each_side_when_read(orders, sides, fractional, first):
    # a window as the fractional ledger hands it over, weightless orders
    # included: either side's beliefs, read first or second and read again,
    # are the search oracle's of the weighted orders bit for bit, and the
    # memory is the one of the window without its weightless orders
    is_bid = np.array([bid if sides == "both" else sides == "bids only"
                       for bid, _, _, _ in orders], dtype=bool)
    price = np.array([1000 + offset for _, offset, _, _ in orders], dtype=np.int64)
    kind = np.array([kind for _, _, kind, _ in orders], dtype=object)
    weight = np.array([w if fractional else 1.0 for _, _, _, w in orders])
    success = np.where(kind == "executed", weight, 0.0)
    failure = np.where(kind == "executed", 1.0 - weight, np.where(kind == "failed", weight, 0.0))
    if not fractional:  # int64 counts, as the binary ledger keeps them
        success, failure = success.astype(np.int64), failure.astype(np.int64)
    weighted = success + failure > 0
    memory = TickMemory.from_orders(is_bid, price, success, failure)
    trimmed = TickMemory.from_orders(is_bid[weighted], price[weighted], success[weighted],
                                     failure[weighted])
    assert len(memory) == len(trimmed) == weighted.sum()
    assert np.array_equal(memory.prices, trimmed.prices)
    assert np.array_equal(memory._counts, trimmed._counts)
    if not weighted.any():
        assert memory.prices.size == 0
        return
    oracle = RecordMemory(records_of(is_bid[weighted], price[weighted], success[weighted],
                                     failure[weighted]))
    second = Side.ASK if first is Side.BID else Side.BID
    for side in (first, second, first, second):
        assert_bitwise_equal(memory.beliefs(side), oracle.beliefs(side))
        assert_bitwise_equal(trimmed.beliefs(side), oracle.beliefs(side))
        for got, expected in zip(memory.weights(side), trimmed.weights(side)):
            assert got.dtype == expected.dtype == success.dtype
            assert_bitwise_equal(got, expected)


def test_fractional_memory_is_a_snapshot_of_its_query(rng):
    # the ledger re-weighs its pending orders in place at each query, and
    # fixes their weights when they fill or are cancelled; a memory held
    # from an earlier query, its sides not read yet, still reads the
    # beliefs of the orders as they were at that query
    params = HblParams(memory_length=3, grace_period=8, success_mode="fractional")
    changed = 0
    for _ in range(30):
        market = LedgerMarket(params)
        t = 0
        for _ in range(60):
            t += int(rng.integers(1, 3))
            market.act_at_random(t, rng)
        if not market.book.trades:
            continue
        held, held_at, events = market.memory(t), t, named(market.book.events)
        resolved = {e.order_id for e in events if e.kind is not EventKind.PLACED}
        pending = {e.order_id for e in events if e.kind is EventKind.PLACED
                   and e.order_id not in resolved and t - e.time < params.grace_period}
        for _ in range(int(rng.integers(1, 10))):
            t += int(rng.integers(1, 3))
            market.act_at_random(t, rng)
        market.memory(t)  # re-weighs the pending orders
        changed += bool(pending)
        expected = hbl_classify(events, held_at, params)
        for side in Side:
            assert_bitwise_equal(held.beliefs(side), expected.beliefs(side))
    assert changed > 20


def assert_exact_quotients(memory, records, prices):
    """Every belief of ``memory`` is, bit for bit, the float of the exact
    ``Fraction`` belief of ``records``."""
    for side in Side:
        expected = [float(belief) for belief in exact_beliefs(records, prices, side)]
        assert_bitwise_equal(belief_array(memory, prices, side), expected)


@pytest.mark.parametrize("case", EDGE_CASES)
def test_binary_tick_memory_is_the_exact_quotient_edge_cases(case, rng):
    # the edge memories with int64 weights, as the binary ledger keeps them
    for _ in range(40):
        is_bid, price = edge_orders(case, rng)
        success, failure = edge_weights(rng, price.size, None)
        memory = TickMemory.from_orders(is_bid, price, success.astype(np.int64),
                                        failure.astype(np.int64))
        assert all(w.dtype == np.int64 for side in Side for w in memory.weights(side))
        records = records_of(is_bid, price, success, failure)
        assert_exact_quotients(memory, records, edge_queries(price))


@pytest.mark.parametrize("bid_prices, ask_prices", [
    ([], []),                                   # empty memory
    ([1000, 998, 1003], []),                    # bids only
    ([], [1003, 999, 1001]),                    # asks only
    ([1000, 1002, 997], [1002, 999, 1000]),     # same price on both sides
    ([1001, 1001, 997, 1001], [1004, 1004]),    # repeats on one side
])
def test_memory_prices_edge_cases(bid_prices, ask_prices):
    for memory in memories_from_prices(bid_prices, ask_prices):
        assert_prices_match_union_oracle(memory, bid_prices, ask_prices)


def test_memory_prices_match_union_oracle(rng):
    for _ in range(500):
        records = random_memory(rng).records
        bid_prices = [r.price for r in records if r.side is Side.BID]
        ask_prices = [r.price for r in records if r.side is Side.ASK]
        for memory in memories_from_prices(bid_prices, ask_prices):
            assert_prices_match_union_oracle(memory, bid_prices, ask_prices)


def test_belief_empty_denominator():
    memory = tick_memory([MemoryOrder(Side.BID, 1000, 1.0, 0.0)])
    # an ask query here has no bids above, no successful asks, no failed asks
    assert hbl_belief(memory, 1001, Side.ASK) == 0.0


# ---------------------------------------------------------------------------
# decision logic
# ---------------------------------------------------------------------------


def test_hbl_tie_break_zero_belief(grid_01):
    # all-zero beliefs tie at zero expected surplus; the buyer then bids the
    # lowest candidate and the seller asks the highest
    records = (MemoryOrder(Side.BID, 998, 0.0, 1.0),
               MemoryOrder(Side.BID, 1002, 0.0, 1.0))
    memory = RecordMemory(records)
    buy = hbl_action(0, PV, 100.0, memory, HBL, ZI, FixedRng(random_value=0.0), grid_01)
    assert buy.limit_price == min(hbl_candidate_grid(memory))
    records = (MemoryOrder(Side.ASK, 998, 0.0, 1.0),
               MemoryOrder(Side.ASK, 1002, 0.0, 1.0))
    memory = RecordMemory(records)
    sell = hbl_action(0, PV, 100.0, memory, HBL, ZI, FixedRng(random_value=0.9), grid_01)
    assert sell.limit_price == max(hbl_candidate_grid(memory))


def test_hbl_side_flip_at_limit(grid_01):
    book = build_script_book()
    memory = hbl_classify(book.events, now=100, params=HBL)
    action = hbl_action(3, PV, 100.0, memory, HBL, ZI, FixedRng(random_value=0.0), grid_01)
    assert action.side is Side.ASK


@pytest.mark.parametrize("q_max", [1, 3])
def test_every_holding_has_a_legal_side(q_max, grid_01):
    # with q_max >= 1 at most one side is illegal, so neither decider skips
    pv = PrivateValues(q_max=q_max, values=tuple(np.linspace(0.5, -0.5, 2 * q_max).tolist()))
    zi = ZiParams(r_min=0.0, r_max=1.0, eta=0.5, sigma_n_sq=10.0, q_max=q_max,
                  sigma_pv_sq=25.0)
    memory = hbl_classify(build_script_book().events, now=100, params=HBL)
    for q in range(-q_max, q_max + 1):
        for coin in (0.0, 0.9):  # the coin says buy, then sell
            actions = (zi_action(q, pv, 100.0, None, None, zi, FixedRng(coin, 0.5), grid_01),
                       hbl_action(q, pv, 100.0, memory, HBL, zi, FixedRng(coin), grid_01))
            for action in actions:
                assert action.kind is ActionKind.PLACE
                assert q < q_max if action.side is Side.BID else q > -q_max


def test_spline_belief_interpolates_and_clamps(grid_01):
    book = build_script_book()
    memory = hbl_classify(book.events, now=100, params=HBL)
    at_knots = hbl_belief_spline(memory, Side.BID, memory.prices)
    assert at_knots == pytest.approx(belief_array(memory, memory.prices, Side.BID), abs=1e-9)
    between = hbl_belief_spline(memory, Side.BID, np.arange(990, 1011))
    assert ((0.0 <= between) & (between <= 1.0)).all()


def test_spline_single_point_falls_back():
    memory = RecordMemory((MemoryOrder(Side.BID, 1000, 1.0, 0.0),))
    belief = hbl_belief_spline(memory, Side.BID, [999, 1000, 1001])
    assert belief.tolist() == belief_array(memory, [999, 1000, 1001], Side.BID).tolist()


def assert_bitwise_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def spline_case(rng, base, gaps):
    """Knots with these gaps from near ``base``, and values in [0, 1], many
    of them 0 or 1 as beliefs are."""
    start = base + int(rng.integers(-50, 50))
    points = np.concatenate(([start], start + np.cumsum(gaps))).tolist()
    values = rng.random(len(points))
    values[rng.random(len(points)) < 0.3] = 0.0
    values[rng.random(len(points)) < 0.3] = 1.0
    return points, values


def spline_cases(rng, tick_size):
    """Knot sets around 100.0 in ticks: 2 and 3 knots, even gaps, gaps that
    force a row interchange in the tridiagonal solve, and random gaps; then
    sets of the sizes the hbl_spline workload fits, 150-400 knots nearly all
    one tick apart with a few wide gaps."""
    base = round(100.0 / tick_size)
    gap_sets = [[1], [7], [1, 1], [1, 5], [9, 1], [1, 1, 1, 1], [1, 3, 1, 40],
                [2, 9, 1, 30, 1, 1, 25], [1, 60], [3, 1, 1, 1, 80]]
    for _ in range(300):
        n = int(rng.integers(2, 40))
        scale = int(rng.choice([2, 4, 30, 300]))
        gap_sets.append(rng.integers(1, scale, size=n - 1).tolist())
    for gaps in gap_sets:
        yield spline_case(rng, base, gaps)
    # drawn after all of the above, so those sets keep their numbers
    for _ in range(20):
        gaps = np.ones(int(rng.integers(149, 400)), dtype=np.int64)
        wide = rng.integers(0, gaps.size, size=int(rng.integers(1, 6)))
        gaps[wide] = rng.integers(2, 50, size=wide.size)
        yield spline_case(rng, base, gaps.tolist())


@pytest.mark.parametrize("tick_size", [0.1, 0.01])
def test_natural_spline_matches_scipy_bitwise(tick_size, rng):
    interchanges = 0
    knot_counts = set()
    for points, values in spline_cases(rng, tick_size):
        knot_counts.add(len(points))
        # dgtsv swaps rows 0 and 1 when the sub-diagonal entry dx[1]
        # exceeds the first pivot 2 * dx[0]
        interchanges += len(points) > 2 and points[2] - points[1] > 2 * (points[1] - points[0])
        for prices in (points,
                       [points[0] - 1, points[-1] + 1],
                       np.arange(points[0] - 1, points[-1] + 2)):
            assert_bitwise_equal(np.clip(natural_cubic_spline(points, values, prices), 0.0, 1.0),
                                 spline_beliefs(points, values, prices))
    assert {2, 3} <= knot_counts
    assert sum(150 <= count <= 400 for count in knot_counts) >= 10
    assert interchanges > 0


def test_solve_tridiagonal_matches_dgtsv_bitwise(rng):
    from scipy.linalg.lapack import dgtsv

    interior = 0
    for _ in range(1000):
        n = int(rng.integers(2, 401))
        d = rng.uniform(-4.0, 4.0, n)
        du = rng.uniform(-2.0, 2.0, n - 1)
        # a fifth of the sub-diagonal entries are eight times larger, so
        # rows interchange often, at row 0 and at interior rows
        dl = rng.uniform(-2.0, 2.0, n - 1) * rng.choice([1.0, 8.0], n - 1, p=[0.8, 0.2])
        b = rng.uniform(-1.0, 1.0, n)
        du2, _, _, x, info = dgtsv(dl, d, du, b[:, None])
        assert info == 0
        assert_bitwise_equal(
            _solve_tridiagonal(dl.tolist(), d.tolist(), du.tolist(), b.tolist()), x[:, 0])
        # dgtsv leaves U's second super-diagonal in dl: nonzero where rows swapped
        interior += np.count_nonzero(du2[1:n - 2])
    assert interior > 1000


@pytest.mark.parametrize("dl, d, du", [
    ([0.0, 1.0], [0.0, 2.0, 3.0], [1.0, 1.0]),  # no pivot in column 0
    ([1.0], [1.0, 1.0], [1.0]),  # the last pivot eliminates to 0
    ([1.0, 0.0], [2.0, 0.5, 4.0], [1.0, 1.0]),  # an interior pivot does
])
def test_solve_tridiagonal_rejects_a_singular_system(dl, d, du):
    from scipy.linalg.lapack import dgtsv

    b = [1.0] * len(d)
    assert dgtsv(np.array(dl), np.array(d), np.array(du), np.array(b)[:, None])[-1] > 0
    with pytest.raises(ValueError, match="singular tridiagonal system"):
        _solve_tridiagonal(dl, d, du, b)


def test_spline_leaves_its_inputs_unchanged(rng):
    # float64 arrays reach the fit as the caller's own arrays, not as copies
    checked = 0
    for _ in range(100):
        records = random_memory(rng).records
        memory = tick_memory(records)
        if len(memory.prices) < 2:
            continue
        weights = [w for side in Side for w in memory.weights(side)]
        before = [memory.prices.copy(), memory._counts.copy()] + [w.copy() for w in weights]
        knots = memory.prices.astype(np.float64)
        values = belief_array(memory, memory.prices, Side.BID)
        points = np.arange(knots[0] - 2, knots[-1] + 3)
        inputs = [knots.copy(), values.copy(), points.copy()]
        first = natural_cubic_spline(knots, values, points)
        assert_bitwise_equal(natural_cubic_spline(knots, values, points), first)
        for side in Side:
            belief = hbl_belief_spline(memory, side, points)
            assert_bitwise_equal(hbl_belief_spline(memory, side, points), belief)
            assert ((0.0 <= belief) & (belief <= 1.0)).all()
        for array, copy in zip([knots, values, points, memory.prices, memory._counts,
                                *weights], inputs + before):
            assert_bitwise_equal(array, copy)
        checked += 1
    assert checked > 30


@pytest.mark.parametrize("side", list(Side))
def test_spline_belief_matches_scipy_on_memories(side, rng):
    checked = 0
    for _ in range(300):
        memory = random_memory(rng)
        points = memory.prices
        if len(points) < 2:
            continue
        prices = np.array(hbl_candidate_grid(memory, mode="spline"))
        expected = spline_beliefs(points, belief_array(memory, points, side), prices)
        assert_bitwise_equal(hbl_belief_spline(memory, side, prices), expected)
        checked += 1
    assert checked > 100


SPLINE_PATH = """
import json, sys
sys.path[:] = {path!r}
from dataclasses import replace
from cdasim import agents
from cdasim.agents import HblParams, hbl_decide
from cdasim.kernel import run
from cdasim.prices import PriceGrid
from conftest import HBL_PARAMS, PV, ZI, FixedRng, make_config
from hbl_oracle import build_script_book, hbl_classify
fits = []
fit = agents.natural_cubic_spline
agents.natural_cubic_spline = lambda *args: fits.append(1) or fit(*args)
params = HblParams(memory_length=4, grace_period=5, grid_mode="spline")
memory = hbl_classify(build_script_book().events, now=100, params=params)
hbl_decide(-1, PV, 100.0, memory, params, ZI, FixedRng(0.0), PriceGrid(0.1))
run(make_config(hbl_params=replace(HBL_PARAMS, grid_mode="spline")))
print(json.dumps({{"fits": len(fits),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""


def test_spline_path_leaves_scipy_unimported():
    # importing scipy.interpolate costs a fresh process far more than the
    # spline fits themselves; a fresh interpreter keeps the check independent
    # of test order
    child = subprocess.run(
        [sys.executable, "-c", SPLINE_PATH.format(path=sys.path)],
        capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    assert report["fits"] > 10
    assert report["scipy"] == []


class LedgerMarket:
    """A book and an ``OrderHistory`` that reads its event log, as in the kernel."""

    def __init__(self, params):
        self.params = params
        self.book = OrderBook()
        self.history = OrderHistory(params)
        self.live = []  # orders that rest in the book, as far as place_live saw

    def place(self, side, price, t):
        """Place a unit order for agent 0 and return its id."""
        return named(self.book.place_limit(0, side, price, t))[0].order_id

    def place_live(self, side, price, t):
        """Place a unit order and keep ``live`` to the orders still resting."""
        oid = self.place(side, price, t)
        resting = resting_ids(self.book)
        self.live = [o for o in self.live if o in resting]
        if oid in resting:
            self.live.append(oid)

    def cancel(self, oid, t):
        self.book.cancel(oid, t)

    def act_at_random(self, t, rng):
        """Cancel a live order one time in four, or else place a unit order on
        a random side at a random price from 995 to 1005."""
        if self.live and rng.random() < 0.25:
            self.cancel(self.live.pop(int(rng.integers(len(self.live)))), t)
            return
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        self.place_live(side, int(rng.integers(995, 1006)), t)

    def window_start(self):
        """Placement time of the oldest order in the last L trades, read off the log."""
        placed = {e.order_id: e.time for e in named(self.book.events)
                  if e.kind is EventKind.PLACED}
        return min(placed[oid]
                   for trade in self.book.trades[-self.params.memory_length:]
                   for oid in (trade.buy_order_id, trade.sell_order_id))

    def view(self, window_start=None):
        """The book as the memory reads it.  Given ``window_start``, its trade
        list is one trade of the first order placed at or after that time, or
        empty when every order is older, so the window starts there."""
        if window_start is None:
            return self.book
        first = next((e.order_id for e in named(self.book.events)
                      if e.kind is EventKind.PLACED and e.time >= window_start), None)
        trades = [] if first is None else [Trade(window_start, 0, first, first, first, first)]
        return SimpleNamespace(events=self.book.events, trades=trades)

    def memory(self, now, window_start=None):
        return self.history.memory(self.view(window_start), now)


def assert_same_memory(got, expected, prices):
    """Exact equality of the length, the observed prices and every belief."""
    assert len(got) == len(expected)
    assert np.array_equal(got.prices, expected.prices)
    assert got.prices.dtype == np.int64
    for side in Side:
        assert np.array_equal(belief_array(got, prices, side),
                              belief_array(expected, prices, side)), side
        if len(got.prices):
            assert np.array_equal(got.beliefs(side), expected.beliefs(side)), side


@pytest.mark.parametrize("grid_mode", ["observed", "spline"])
def test_hbl_decide_matches_scalar_loop(grid_mode, rng, grid_01, grid_001):
    params = HblParams(memory_length=1, grace_period=5, grid_mode=grid_mode)
    for trial in range(400):
        reference = random_memory(rng)
        memory = tick_memory(reference.records)
        observed = reference.prices.tolist()
        if not observed:
            continue
        candidates = hbl_candidates(observed, grid_mode)  # hbl_decide builds its own
        grid = grid_01 if trial % 2 else grid_001
        r_hat = float(rng.uniform(98.5, 101.5)) * (1.0 if trial % 2 else 0.1)
        for side, coin in ((Side.BID, 0.0), (Side.ASK, 0.9)):
            action = hbl_action(0, PV, r_hat, memory, params, ZI,
                                FixedRng(random_value=coin), grid)
            valuation = (PV.buy_valuation(0, r_hat) if side is Side.BID
                         else PV.sell_valuation(0, r_hat))
            assert action.side is side
            assert action.limit_price == scalar_choice_oracle(
                reference, candidates, side, valuation, grid.tick_size,
                grid_mode), (trial, side)


def gap_counts(events, placed, previous, now, grace):
    """Orders that expired, expired orders that filled or were cancelled, in
    the events a query at ``now`` reads after one at ``previous``."""
    resolved = {e.order_id: e.time for e in events if e.kind is not EventKind.PLACED}
    expired = sum(previous - grace <= t < now - grace and resolved.get(oid, now) > t + grace
                  for oid, t in placed.items())
    late = [e for e in events if e.kind is not EventKind.PLACED and e.time >= previous
            and e.time - placed[e.order_id] > grace]
    return {"expired": expired,
            "expired fills": sum(e.kind is EventKind.EXECUTED for e in late),
            "cancels after expiry": sum(e.kind is EventKind.CANCELLED for e in late)}


@pytest.mark.parametrize("mode", ["binary", "fractional"])
def test_order_history_catches_up_at_sparse_queries(mode, rng):
    # the history reads the log only when queried: the first query comes
    # after hundreds of events and each later one skips several steps, in
    # which orders expire, expired orders fill or are cancelled and the
    # window start may move back; every query equals the event-log oracle
    params = HblParams(memory_length=3, grace_period=4, success_mode=mode)
    grid = np.arange(990, 1012)
    seen = {"queries": 0, "window moved back": 0, "expired": 0,
            "expired fills": 0, "cancels after expiry": 0}
    for _ in range(4):
        market = LedgerMarket(params)
        t = previous = 0
        previous_start = None
        next_query = 300
        for step in range(500):
            t += int(rng.integers(1, 3))
            market.act_at_random(t, rng)
            if step < next_query:
                continue
            next_query = step + int(rng.integers(5, 15))
            events = named(market.book.events)
            if previous_start is None:
                assert len(events) > 300
            else:
                placed = {e.order_id: e.time for e in events if e.kind is EventKind.PLACED}
                for name, n in gap_counts(events, placed, previous, t,
                                          params.grace_period).items():
                    seen[name] += n
            memory = market.memory(t)
            reference = hbl_classify(events, t, params)
            assert_same_memory(memory, reference, grid)
            window_start = market.window_start()
            seen["window moved back"] += previous_start is not None and window_start < previous_start
            seen["queries"] += 1
            previous, previous_start = t, window_start
    assert all(seen.values()), seen


def test_binary_ledger_beliefs_are_exact_quotients(rng):
    # random binary ledgers read off an event log: each belief is the
    # correctly rounded quotient of the two exact counts of the classification
    params = HblParams(memory_length=3, grace_period=6)
    prices = np.arange(990, 1012)
    checked = 0
    for _ in range(12):
        market = LedgerMarket(params)
        t = 0
        for step in range(100):
            t += int(rng.integers(1, 3))
            market.act_at_random(t, rng)
            if step % 3 or not market.book.trades:
                continue
            memory = market.memory(t)
            assert all(w.dtype == np.int64 for side in Side for w in memory.weights(side))
            assert_exact_quotients(memory, hbl_classify(market.book.events, t, params).records,
                                   prices)
            checked += 1
    assert checked > 300


# one action of a generated order stream: steps since the last action, the
# action, the side, a limit price, which live order a cancel picks, and
# whether the memory is queried after it (one value in four)
STREAM_ACTION = st.tuples(st.integers(0, 3), st.sampled_from(["place", "take", "cancel"]),
                          st.booleans(), st.integers(995, 1005), st.integers(0, 99),
                          st.integers(0, 3))


@settings(max_examples=60)
@given(mode=st.sampled_from(["binary", "fractional"]), grace=st.integers(1, 10),
       memory_length=st.integers(1, 5), before=st.lists(STREAM_ACTION, max_size=40),
       burst=st.integers(100, 300), gap=st.integers(1, 40),
       after=st.lists(STREAM_ACTION, max_size=25))
def test_order_history_matches_classification_on_generated_streams(
        mode, grace, memory_length, before, burst, gap, after):
    # placements, cancellations and fills at sparse query times; between the
    # two streams a burst of resting orders that one gap expires at once
    params = HblParams(memory_length=memory_length, grace_period=grace,
                       success_mode=mode)
    market = LedgerMarket(params)
    prices = np.arange(984, 1017)

    def check(now):
        got = market.memory(now)
        reference = hbl_classify(market.book.events, now, params)
        assert_same_memory(got, reference, prices)
        assert market.history._tick_list == market.history._ticks.tolist()
        return len(got)

    def replay(stream, t):
        for dt, action, is_bid, price, pick, query in stream:
            t += dt
            side = Side.BID if is_bid else Side.ASK
            if action == "cancel" and market.live:
                market.cancel(market.live.pop(pick % len(market.live)), t)
            else:
                touch = market.book.best_ask() if is_bid else market.book.best_bid()
                if action == "take" and touch is not None:
                    price = touch  # fills at least one resting order
                market.place_live(side, price, t)
            if not query:
                check(t)
        return t

    t = replay(before, 0) + 1
    market.place(Side.BID, 1000, t)  # a trade, so that the window holds the burst
    market.place(Side.ASK, 1000, t)
    t += grace + 1
    check(t)  # the expiry cursor passes every earlier order
    for k in range(burst):  # away from every other price: none of them fills
        is_bid = k % 2 == 1
        market.live.append(market.place(Side.BID if is_bid else Side.ASK,
                                        985 + k % 5 if is_bid else 1012 + k % 5, t))
    counted = check(t)
    t += grace + gap
    assert check(t) - counted >= burst  # the whole burst expired at one query
    replay(after, t)  # which may fill or cancel expired orders of the burst


BINARY = HblParams(memory_length=1, grace_period=5)
FRACTIONAL = HblParams(memory_length=1, grace_period=5, success_mode="fractional")
BOTH_MODES = pytest.mark.parametrize("params", [BINARY, FRACTIONAL],
                                     ids=["binary", "fractional"])


def assert_ledger_exact(market, now, window_start=None, prices=range(990, 1012)):
    """The ledger against the event-log classification, over the book's own
    window or one that starts at ``window_start``."""
    got = market.memory(now, window_start)
    expected = hbl_classify(market.book.events, now, market.params, window_start)
    assert_same_memory(got, expected, np.asarray(prices))
    return got


def test_ledger_expired_order_that_executes_turns_success():
    market = LedgerMarket(BINARY)
    market.place(Side.BID, 1000, 0)
    memory = assert_ledger_exact(market, 20, window_start=0)
    assert belief_array(memory, [1000], Side.BID)[0] == 0.0
    market.place(Side.ASK, 1000, 21)  # fills the expired bid
    assert len(market.book.trades) == 1
    memory = assert_ledger_exact(market, 21, window_start=0)
    assert len(memory) == 2
    assert belief_array(memory, [1000], Side.BID)[0] == 1.0


@BOTH_MODES
def test_ledger_window_start_moves_backward(params):
    market = LedgerMarket(params)
    market.place(Side.ASK, 1004, 0)
    market.place(Side.BID, 990, 2)
    market.place(Side.BID, 1004, 5)  # trades with the ask placed at 0
    assert market.window_start() == 0
    assert_ledger_exact(market, 5)
    market.place(Side.ASK, 1000, 6)
    market.place(Side.BID, 1000, 8)  # window moves forward to 6
    assert market.window_start() == 6
    assert len(assert_ledger_exact(market, 8)) == 2
    market.place(Side.ASK, 990, 10)  # hits the bid resting since 2: back to 2
    assert market.window_start() == 2
    assert len(assert_ledger_exact(market, 10)) == 5
    for window_start in (0, 9, 3, 11, 6, 0):
        assert_ledger_exact(market, 12, window_start=window_start)


@BOTH_MODES
def test_ledger_cancel_after_expiry_counts_once(params):
    market = LedgerMarket(params)
    market.place(Side.BID, 1000, 0)
    market.place(Side.ASK, 1003, 1)
    assert len(assert_ledger_exact(market, 10, window_start=0)) == 2  # both expired
    market.cancel(1, 11)
    market.cancel(2, 12)
    assert len(assert_ledger_exact(market, 12, window_start=0)) == 2


@BOTH_MODES
def test_ledger_empty_window(params):
    market = LedgerMarket(params)
    empty = assert_ledger_exact(market, 0, window_start=0)  # nothing placed yet
    assert len(empty) == 0 and empty.prices.size == 0
    assert not belief_array(empty, np.arange(990, 1010), Side.ASK).any()
    market.place(Side.BID, 1000, 1)
    market.place(Side.ASK, 1000, 2)
    assert len(assert_ledger_exact(market, 2, window_start=0)) == 2
    empty = assert_ledger_exact(market, 3, window_start=3)  # window starts after every order
    assert len(empty) == 0 and hbl_candidate_grid(empty).size == 0
    assert len(assert_ledger_exact(market, 3, window_start=1)) == 2


def test_binary_ledger_counts_a_taker_at_its_own_limit():
    # a bid at 1004 crosses an ask at 1000 and trades at 1000, the price its
    # execution event carries; the ledger counts it at its limit, as placed
    market = LedgerMarket(BINARY)
    market.place(Side.ASK, 1000, 0)
    market.place(Side.BID, 1004, 1)
    assert assert_ledger_exact(market, 1).prices.tolist() == [1000, 1004]


@pytest.mark.parametrize("mode", ["binary", "fractional"])
def test_ledger_query_back_in_time_raises(mode):
    # a run's wake times never decrease, so an earlier query is a caller error
    market = LedgerMarket(HblParams(memory_length=1, grace_period=5,
                                    success_mode=mode))
    market.place(Side.BID, 1000, 0)
    market.place(Side.ASK, 1002, 1)
    assert len(market.memory(50, window_start=0)) == 2
    with pytest.raises(ValueError, match="earlier than the last one"):
        market.memory(3, window_start=0)
    assert len(market.memory(50, window_start=0)) == 2  # the same time again is fine


def test_ledger_longer_grace_counts_later():
    market = LedgerMarket(HblParams(memory_length=1, grace_period=30))
    market.place(Side.BID, 1000, 0)
    market.place(Side.ASK, 1002, 1)
    assert len(assert_ledger_exact(market, 20, window_start=0)) == 0
    assert len(assert_ledger_exact(market, 30, window_start=0)) == 0  # 30 - 0 > 30 is false
    assert len(assert_ledger_exact(market, 31, window_start=0)) == 1  # 31 - 1 > 30 is false
    assert len(assert_ledger_exact(market, 32, window_start=0)) == 2


@pytest.mark.parametrize("mode, low, high, jump, wider_than", [
    ("binary", 9900, 10101, 0, 64),
    ("fractional", 9900, 10101, 0, 64),
    # windows over 65,536 ticks wide: the fractional sort key needs 64 bits
    ("fractional", 0, 80001, 0, 65536),
    # half the orders 10^12 ticks up, as after a price jump
    ("binary", 995, 1006, 10**12, 10**12 - 11),
    ("fractional", 995, 1006, 10**12, 10**12 - 11),
], ids=["binary", "fractional", "fractional wide span", "binary far ticks",
        "fractional far ticks"])
def test_ledger_at_cent_ticks_matches_oracle(mode, low, high, jump, wider_than, rng):
    # tick_size 0.01: prices near 100.00 are ~10^4 ticks and spread over a
    # span much wider than the window's orders fill, so most ticks are empty
    params = HblParams(memory_length=2, grace_period=9, success_mode=mode)
    prices = np.arange(low - 20, high + 20, 1 + (high - low) // 1000)  # at most ~1,000
    if jump:
        prices = np.concatenate((prices, prices + jump))
    widest = 0
    for _ in range(10):
        market = LedgerMarket(params)
        t = 0
        for _ in range(80):
            t += int(rng.integers(0, 3))
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            price = int(rng.integers(low, high))
            market.place(side, price + jump if jump and rng.random() < 0.5 else price, t)
            if not market.book.trades:
                continue
            memory = assert_ledger_exact(market, t, prices=prices)
            if len(memory):
                widest = max(widest, int(memory.prices[-1] - memory.prices[0]))
    assert widest > wider_than


def fractional_market():
    """A fractional ledger whose window starts with a trade at 1: a bid
    placed at 0 and an ask placed at 1, both at 1000."""
    market = LedgerMarket(FRACTIONAL)
    market.place(Side.BID, 1000, 0)
    market.place(Side.ASK, 1000, 1)
    assert market.window_start() == 0
    return market


def test_fractional_ledger_cancel_when_placed_stays_out():
    # a cancellation at the placement time leaves the order without weight,
    # whether or not a query saw it pending first; it is the lowest price
    market = fractional_market()
    market.cancel(market.place(Side.BID, 995, 2), 2)
    assert assert_ledger_exact(market, 3).prices.tolist() == [1000]
    oid = market.place(Side.ASK, 1008, 4)
    assert assert_ledger_exact(market, 4).prices.tolist() == [1000]  # pending since now
    market.cancel(oid, 4)
    for now in (4, 5, 30):
        memory = assert_ledger_exact(market, now)
        assert len(memory) == 2 and memory.prices.tolist() == [1000]


def test_fractional_ledger_order_placed_now_counts_at_next_query():
    market = fractional_market()
    market.place(Side.ASK, 1010, 4)
    memory = assert_ledger_exact(market, 4)
    assert len(memory) == 2 and memory.prices.tolist() == [1000]
    assert assert_ledger_exact(market, 4).prices.tolist() == [1000]  # same time again
    memory = assert_ledger_exact(market, 5)  # failure 1/5 now
    assert len(memory) == 3 and memory.prices.tolist() == [1000, 1010]
    assert belief_array(memory, [1010], Side.BID)[0] == 1.0


def resting_price(book, is_bid, price):
    """``price``, moved just inside the touch if a new order there would trade."""
    if is_bid:
        ask = book.best_ask()
        return price if ask is None else min(price, ask - 1)
    bid = book.best_bid()
    return price if bid is None else max(price, bid + 1)


# one step of a generated fractional stream: steps since the last one, a
# side, a price, which live order a cancel picks (a cancel when it is below
# 25), the sides and prices of the weightless orders added after the step,
# and whether the memory is queried then
WEIGHTLESS_STEP = st.tuples(st.integers(0, 2), st.booleans(), st.integers(995, 1005),
                            st.integers(0, 99),
                            st.lists(st.tuples(st.booleans(), st.integers(900, 1100)),
                                     max_size=3),
                            st.booleans())


@settings(max_examples=60)
@given(grace=st.integers(1, 10), memory_length=st.integers(1, 4),
       stream=st.lists(WEIGHTLESS_STEP, min_size=1, max_size=60))
def test_fractional_ledger_weightless_orders_change_nothing(grace, memory_length, stream):
    # orders pending at the query time, then cancelled in their placement
    # step, have success and failure 0: a ledger that also reads them gives
    # the length, prices and belief bits of the stream without them
    params = HblParams(memory_length=memory_length, grace_period=grace,
                       success_mode="fractional")
    plain, padded = LedgerMarket(params), LedgerMarket(params)
    prices = np.arange(890, 1111)
    live = []  # (plain id, padded id) of the stream's resting orders
    t = 0
    for dt, is_bid, price, pick, weightless, query in stream:
        t += dt
        if live and pick < 25:
            plain_id, padded_id = live.pop(pick % len(live))
            plain.cancel(plain_id, t)
            padded.cancel(padded_id, t)
        else:
            side = Side.BID if is_bid else Side.ASK
            ids = plain.place(side, price, t), padded.place(side, price, t)
            resting = resting_ids(plain.book)
            live = [pair for pair in live if pair[0] in resting]
            if ids[0] in resting:
                live.append(ids)
        added = [padded.place(Side.BID if bid else Side.ASK,
                              resting_price(padded.book, bid, p), t) for bid, p in weightless]
        assert len(resting_ids(padded.book)) == len(resting_ids(plain.book)) + len(added)
        if query:  # the added orders are pending at now
            reference = hbl_classify(plain.book.events, t, params)
            assert_same_memory(padded.memory(t), reference, prices)
        for oid in added:
            padded.cancel(oid, t)
        if query:  # and now cancelled in their placement step
            assert_same_memory(padded.memory(t), reference, prices)
    assert_same_memory(padded.memory(t + grace), hbl_classify(plain.book.events, t + grace,
                                                              params), prices)


def test_fractional_ledger_fill_after_grace_fails():
    # a fill after the grace period: success 0, failure 1
    market = fractional_market()
    market.place(Side.BID, 1002, 2)
    market.place(Side.ASK, 1001, 9)  # fills the bid placed at 2, 7 > 5 steps later
    memory = assert_ledger_exact(market, 9)
    assert market.window_start() == 2 and len(memory) == 2
    # favorable: the ask at or below 1002; unfavorable: the failed bid
    assert belief_array(memory, [1002], Side.BID)[0] == 0.5


def test_fractional_ledger_pending_failure_caps_at_one():
    # a bid resting at 1005 since 2 fails by (now - 2) / 5, capped at 1 from
    # now = 7 on; the bid belief at 1005 is (1 ask + success 0.8 of the bid
    # filled after 1 step) over that plus the pending bid's failure
    market = fractional_market()
    market.place(Side.BID, 1005, 2)
    beliefs = {now: belief_array(assert_ledger_exact(market, now), [1005], Side.BID)[0]
               for now in (3, 5, 7, 8, 40)}
    assert beliefs[3] > beliefs[5] > beliefs[7] == beliefs[8] == beliefs[40]
    assert beliefs[40] == pytest.approx(1.8 / 2.8, abs=1e-15)


@pytest.mark.parametrize("step", [1, 3])
def test_fractional_ledger_window_jumps_back_and_forth(step, rng):
    # window starts that jump back and forth, with orders placed, filled and
    # cancelled between the queries
    market = LedgerMarket(FRACTIONAL)
    t = previous = 0
    jumps = 0
    for _ in range(120):
        t += int(rng.integers(0, 2))
        if market.live and rng.random() < 0.2:
            market.cancel(market.live.pop(int(rng.integers(len(market.live)))), t)
        else:
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            market.place_live(side, int(rng.integers(996, 1005)), t)
        if int(rng.integers(step)):
            continue
        window_start = int(rng.integers(0, t + 2))
        assert_ledger_exact(market, t, window_start=window_start)
        jumps += window_start < previous
        previous = window_start
    assert jumps > 10


def test_params_validation():
    with pytest.raises(ValueError, match="eta"):
        ZiParams(0.0, 1.0, 1.5, 10.0, 3, 25.0)
    with pytest.raises(ValueError, match="r_min"):
        ZiParams(2.0, 1.0, 0.5, 10.0, 3, 25.0)
    with pytest.raises(ValueError, match="memory_length"):
        HblParams(memory_length=0, grace_period=5)
    with pytest.raises(ValueError, match="success_mode"):
        HblParams(memory_length=4, grace_period=5, success_mode="soft")
    with pytest.raises(ValueError, match="grid_mode"):
        HblParams(memory_length=4, grace_period=5, grid_mode="dense")


@pytest.mark.parametrize("field", ["r_max", "sigma_n_sq", "sigma_pv_sq"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_zi_params_reject_non_finite(field, value):
    # an infinite r_max would otherwise make every requested surplus inf
    values = dict(r_min=0.0, r_max=1.0, eta=0.5, sigma_n_sq=10.0, q_max=3,
                  sigma_pv_sq=25.0)
    values[field] = value
    with pytest.raises(ValueError):
        ZiParams(**values)


def test_zi_surplus_is_numpy_uniform():
    # zi_decide draws r_min + (r_max - r_min) * random(), numpy's own formula
    # for uniform(r_min, r_max): twin generators give the same surpluses and
    # leave their streams in step
    ours, numpys = np.random.default_rng(2024), np.random.default_rng(2024)
    for i in range(100_000):
        lo = (i % 7) * 0.37
        hi = lo + (i % 13) * 0.91
        surplus = lo + (hi - lo) * ours.random()
        assert surplus == numpys.uniform(lo, hi), i
    assert ours.random() == numpys.random()
