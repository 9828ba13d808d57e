"""Trading strategies: Zero Intelligence and Heuristic Belief Learning.

Both strategies are pure decision functions over (holdings, preferences,
fundamental projection, market view, RNG stream).  ZI picks a side by fair
coin, shades its limit away from its valuation by a randomly requested
surplus, and may instead take the touch when that locks in at least a
configured fraction of the requested surplus.  HBL replaces the random
shading with the price maximizing expected surplus under a success-belief
function fit to the recently observed order stream.  The kernel asks for
that memory only once the book holds enough transactions; until then HBL
falls back to ZI.

The HBL memory is one type, ``TickMemory``, in both success modes, laid on
the ticks that hold at least one of its orders, so it grows with the
window's occupied ticks, not with the price span.  ``OrderHistory`` keeps
it as running int64 counts in binary mode; in fractional mode
``TickMemory.from_orders`` lays the window's weighted orders afresh once
per query: their ticks and counts at once, and a side's weights, summed in
one float addition order, when that side is first read.  The decision
needs beliefs only at those ticks and one tick beyond each end, and reads
them by position; ``TickMemory.beliefs`` is the one belief formula, a
bid's, and reads an ask's on the memory mirrored in price.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .orderbook import ASK, BID, EXECUTED, PLACED, OrderBook, Side
from .preferences import PrivateValues
from .prices import PriceGrid


class ActionKind(enum.Enum):
    PLACE = "PLACE"
    TAKE = "TAKE"  # marketable limit at the touch, executes immediately
    SKIP = "SKIP"


class AgentAction(NamedTuple):
    """The layout of a decision; the strategies return it as a plain tuple."""

    kind: ActionKind
    side: Side | None = None
    limit_price: int | None = None  # ticks


PLACE, TAKE = ActionKind.PLACE, ActionKind.TAKE
SKIP = AgentAction(ActionKind.SKIP)


@dataclass(frozen=True)
class ZiParams:
    r_min: float
    r_max: float
    eta: float
    sigma_n_sq: float
    q_max: int
    sigma_pv_sq: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_min < math.inf:
            raise ValueError("r_min must be >= 0 and finite")
        if not self.r_min <= self.r_max < math.inf:
            raise ValueError("r_max must be >= r_min and finite")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.sigma_n_sq < math.inf:
            raise ValueError("sigma_n_sq must be >= 0 and finite")
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")
        if not 0.0 <= self.sigma_pv_sq < math.inf:
            raise ValueError("sigma_pv_sq must be >= 0 and finite")


@dataclass(frozen=True)
class HblParams:
    memory_length: int  # transactions remembered (L)
    grace_period: int  # steps an order may rest before counting as rejected
    success_mode: str = "binary"  # or "fractional"
    grid_mode: str = "observed"  # or "spline"

    def __post_init__(self) -> None:
        if self.memory_length < 1:
            raise ValueError("memory_length must be >= 1")
        if self.grace_period < 1:
            raise ValueError("grace_period must be >= 1")
        if self.success_mode not in ("binary", "fractional"):
            raise ValueError("success_mode must be 'binary' or 'fractional'")
        if self.grid_mode not in ("observed", "spline"):
            raise ValueError("grid_mode must be 'observed' or 'spline'")


def _choose_side(q_held: int, pv: PrivateValues, rng: np.random.Generator) -> Side:
    """Fair coin, flipping to the other side at the holdings limit: an agent
    may buy below ``q_max`` and sell above ``-q_max``.  As ``q_max >= 1``,
    at most one side is illegal at a time."""
    if rng.random() < 0.5:
        return BID if q_held < pv.q_max else ASK
    return ASK if q_held > -pv.q_max else BID


def zi_decide(
    q_held: int,
    pv: PrivateValues,
    r_hat: float,
    best_bid: int | None,
    best_ask: int | None,
    params: ZiParams,
    rng: np.random.Generator,
    grid: PriceGrid,
) -> tuple[ActionKind, Side, int]:
    side = _choose_side(q_held, pv, rng)
    # numpy's own uniform(r_min, r_max), drawn from the cheaper random() call
    requested = params.r_min + (params.r_max - params.r_min) * rng.random()
    if side is BID:
        valuation = pv.buy_valuation(q_held, r_hat)
        # Strategic threshold: lock in eta * R immediately if the touch allows it.
        if best_ask is not None and valuation - best_ask * grid.tick_size >= params.eta * requested:
            return TAKE, BID, best_ask
        limit = grid.to_ticks_down(valuation - requested)
        if limit < 0:
            limit = 0
        return PLACE, BID, limit
    valuation = pv.sell_valuation(q_held, r_hat)
    if best_bid is not None and best_bid * grid.tick_size - valuation >= params.eta * requested:
        return TAKE, ASK, best_bid
    limit = grid.to_ticks_up(valuation + requested)
    if limit < 0:
        limit = 0
    return PLACE, ASK, limit


class TickMemory:
    """Classified orders laid on ``prices``, the ticks they occupy, ascending.

    It holds, for each side, the number of included orders at each of those
    ticks, and that side's cumulative successes and failures at the boundary
    just below each tick and above the last (``weights``).  Binary weights
    are int64 counts, so a binary belief is one division of two exact
    integers.  A memory from ``from_orders`` lays out its ticks and counts
    at once and a side's weights when they are first read.
    """

    def __init__(self, prices: np.ndarray, counts: np.ndarray, weights: list, source=None):
        self.prices = prices  # int64, shared with the candidate grid; do not modify it
        self._counts = counts  # [bids, asks] at each of prices
        # [bids, asks]: each side's (successes, failures), as weights()
        # returns them, or None until that side is laid out from source
        self._weights = weights
        self._source = source

    @classmethod
    def from_orders(cls, is_bid, price, success, failure) -> TickMemory:
        """The memory of orders in placement order: parallel arrays of sides
        (``True`` for a bid), int64 prices, successes and failures.  An order
        of weights 0 and 0 is left out.  Float sums depend on the order of
        addition, so one stable sort by price puts each side in (price,
        placement) order and its weights are summed in that order; integer
        weights give int64 sums, as in binary mode.  The weights are copied,
        so the memory is a snapshot of its arguments."""
        lo, hi = (int(price.min()), int(price.max())) if price.size else (0, 0)
        key = price - lo
        if hi - lo < 1 << 16:
            key = key.astype(np.uint16)  # numpy radix-sorts 16-bit keys
        order = key.argsort(kind="stable")  # by price, then placement
        dtype = np.result_type(success, failure)
        success, failure = success.astype(dtype), failure.astype(dtype)
        order = order[(success + failure)[order] > 0]
        price, is_bid = price[order], is_bid[order]
        first = _run_starts(price).nonzero()[0]
        ticks = price[first]
        # below[:, j]: the bids and the asks at ticks below ticks[j]
        below = np.empty((2, ticks.size + 1), dtype=np.int64)
        below[1, :-1], below[1, -1] = first, price.size
        below[0] = is_bid.nonzero()[0].searchsorted(below[1])
        below[1] -= below[0]
        return cls(ticks, below[:, 1:] - below[:, :-1], [None, None],
                   (order, is_bid, below, success, failure))

    def __len__(self) -> int:
        return int(self._counts.sum())

    def weights(self, side: Side) -> tuple[np.ndarray, np.ndarray]:
        """The cumulative weights of ``side``'s orders at each boundary, as
        (successes, failures): a bid's successes below the boundary and its
        failures from it up, and the mirror for an ask, its successes from
        the boundary up and its failures below."""
        row = 0 if side is BID else 1
        weights = self._weights[row]
        if weights is None:  # sum the side's orders in (price, placement) order
            order, is_bid, below, success, failure = self._source
            mine, below = order[~is_bid if row else is_bid], below[row]
            rising, falling = (failure, success) if row else (success, failure)
            sums = np.zeros(mine.size + 1, dtype=success.dtype)
            rising[mine].cumsum(out=sums[1:])
            low = sums[below]  # below the boundary
            falling[mine][::-1].cumsum(out=sums[1:])
            high = sums[mine.size - below]  # from the boundary up
            weights = self._weights[row] = (high, low) if row else (low, high)
        return weights

    def beliefs(self, side: Side) -> np.ndarray:
        """Heuristic probability that a limit order transacts, read by
        position at the n + 2 ticks from one below the lowest of the n
        ``prices`` to one above the highest, ascending.

        For a bid: favorable mass is ask volume and successful bids at <= p,
        unfavorable mass is failed bids at >= p.  Mirrored for an ask.  Tick
        ``k`` of the n + 2 lies between the boundaries ``max(k - 1, 0)`` and
        ``min(k, n)``.  The belief is 0 where the denominator is empty.
        """
        counts, (success, failure) = self._counts, self.weights(side)
        if side is not BID:  # an ask is a bid on the memory mirrored in price:
            # sides swapped and ticks reversed
            counts, success, failure = counts[::-1, ::-1], success[::-1], failure[::-1]
        favorable = np.zeros(counts.shape[1] + 1, dtype=np.int64)
        numerator, denominator = np.empty((2, favorable.size + 1))  # holds int64 counts exactly
        # the numerator reads the boundary above, the failures the one below
        np.add.accumulate(counts[1], out=favorable[1:])
        np.add(favorable, success, out=numerator[:-1])
        numerator[-1] = numerator[-2]
        np.add(numerator[1:], failure, out=denominator[1:])
        denominator[0] = numerator[0] + failure[0]
        # an empty denominator has an empty numerator; the least positive
        # float in its place reads 0 there and leaves every other one as it is
        numerator /= np.maximum(denominator, 5e-324, out=denominator)
        return numerator if side is BID else numerator[::-1]


class OrderHistory:
    """Array-backed order ledger that answers the HBL memory queries.

    Its one input is the book's event log: each query first reads the
    events logged since the previous query, so a run without HBL agents
    never fills it.  The memory covers every order placed at or after the
    placement of the oldest order in the book's last ``memory_length``
    trades, and is a ``TickMemory`` in both success modes.  A run has one
    ``HblParams`` and its queries never go back in time.  An order is one
    unit, so it fills or is cancelled at most once, and its weights are
    fixed then.  The book numbers orders 1, 2, 3, ... in placement order,
    so the ledger entry of order ``order_id`` is ``order_id - 1``.

    In binary mode the ledger keeps int64 counts of the classified orders
    placed at or after the current window start, as rows of bid successes,
    ask failures, bid failures and ask successes, so a query is two
    cumulative sums of two rows each instead of a sort of the window:

    - an execution or a cancellation moves one order between classes;
    - a forward cursor fails, one at a time, the pending orders that
      outlive the grace period (placement times never decrease);
    - a moved window start re-counts only the orders it passes over.

    A tick has a column from when an order there is first counted until a
    forward move of the window start empties it, so the counts grow with
    the window's occupied ticks, not with the price span; a sorted list of
    the same ticks finds each column by bisection.  A fill or a
    cancellation is counted at the price its event carries, except a
    taker's fill, whose event carries the trade price.

    Fractional mode keeps no order between queries: each query re-weighs
    the pending orders and hands the window, as it slices it, to
    ``TickMemory.from_orders``, which sorts it once, lays out its ticks and
    counts and copies its weights, so a side's weights are summed only when
    a decision first reads that side, and the memory stays what it was at
    the query when the ledger re-weighs its orders later.
    """

    _FIELDS = ("_price", "_is_bid", "_success", "_failure")

    def __init__(self, params: HblParams) -> None:
        self.params = params
        self._binary = params.success_mode == "binary"
        self._grace = float(params.grace_period)
        self._placed: list[int] = []  # placement times, never decreasing
        # per entry; a pending order's weights are 0 but for its failure so far
        # in fractional mode, and are fixed when it fills or is cancelled
        self._price, self._is_bid = np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        self._success = self._failure = np.empty(0)
        self._open: dict[int, int] = {}  # entry -> placement time, until it fills or is cancelled
        self._n = 0
        self._read_events = 0  # events of the book's log read so far
        self._now = 0  # time of the last query
        self._start = 0  # index of the first order in the window
        # the window start of the trade list whose last trade is _last_trade
        self._last_trade, self._window_start = None, 0
        # binary ledger: counts of the classified orders [_start, _n)
        self._expired = 0  # orders [0, _expired) were placed over grace ago
        self._ticks = np.empty(0, dtype=np.int64)  # the tick of each column, ascending
        self._tick_list: list[int] = []  # the same ticks, for bisect
        # rows: bid successes, ask failures, bid failures, ask successes
        self._counts = np.zeros((4, 0), dtype=np.int64)

    def memory(self, book: OrderBook, now: int) -> TickMemory:
        """Classified memory of the orders in the window of ``book``'s last
        ``memory_length`` trades."""
        if now < self._now:
            raise ValueError(f"query at {now} is earlier than the last one at {self._now}")
        self._now = now
        start = self._read(book)
        if not self._binary:  # re-weigh the pending orders, then lay out the window
            pending = np.fromiter(self._open, dtype=np.int64, count=len(self._open))
            placed = np.fromiter(self._open.values(), dtype=np.int64, count=len(self._open))
            self._failure[pending] = np.minimum(1.0, (now - placed) / self._grace)
            # from_orders drops an order of weights 0 and 0 (cancelled when placed, or placed now)
            window = slice(start, self._n)
            return TickMemory.from_orders(self._is_bid[window], self._price[window],
                                          self._success[window], self._failure[window])
        self._expire(now)
        if start < self._start:
            self._count_range(start, self._start, 1)
        elif start > self._start:
            self._count_range(self._start, start, -1)
        self._start = start
        counts = self._counts
        weights = np.zeros((4, counts.shape[1] + 1), dtype=np.int64)
        np.add.accumulate(counts[:2], axis=1, out=weights[:2, 1:])
        np.add.accumulate(counts[2:, ::-1], axis=1, out=weights[2:, -2::-1])
        # rows: bid successes, ask failures, bid failures, ask successes
        return TickMemory(self._ticks, counts[:2] + counts[2:],
                          [(weights[0], weights[2]), (weights[3], weights[1])])

    def _read(self, book: OrderBook) -> int:
        """Take in the events logged since the last read, in log order, and
        return the index of the first order in the window."""
        events = book.events
        new = events[self._read_events:]
        self._read_events = len(events)
        n = self._n
        if n + len(new) > self._price.size:  # room for an order per event
            for name in self._FIELDS:
                grown = np.zeros(max(256, 2 * (n + len(new))), dtype=getattr(self, name).dtype)
                grown[:n] = getattr(self, name)[:n]
                setattr(self, name, grown)
        binary, grace, executed, tally = self._binary, self._grace, EXECUTED, self._tally
        placed, prices, is_bid, pending = self._placed, self._price, self._is_bid, self._open
        successes, failures = self._success, self._failure
        start, expired = self._start, self._expired
        counted = max(start, expired)  # a cancelled order from here on is not counted yet
        for kind, time, order_id, _, side, price, counterparty in new:
            i = order_id - 1
            if kind is PLACED:
                placed.append(time)
                prices[i], is_bid[i], pending[i] = price, side is BID, time
                continue
            placed_at = pending.pop(i)  # a one-unit order resolves once
            if kind is executed:
                success = 1.0 if binary else max(0.0, 1.0 - (time - placed_at) / grace)
                successes[i], failures[i] = success, 1.0 - success
                if binary and i >= start:
                    if counterparty < order_id:  # a taker's event has the trade price
                        price = int(prices[i])
                    bid = side is BID
                    if i < expired:  # an expired order can still fill
                        tally(price, bid, failed=True, delta=-1)
                    tally(price, bid, failed=False, delta=1)
            else:
                failures[i] = 1.0 if binary else min(1.0, (time - placed_at) / grace)
                if binary and i >= counted:
                    tally(price, side is BID, failed=True, delta=1)
        self._n = len(placed)
        trades = book.trades
        if not trades:  # no transaction to remember: the window is empty
            return self._n
        if trades[-1] is not self._last_trade:  # a new last trade may move the window
            self._last_trade = trades[-1]
            window_start = min(self._placed[oid - 1]
                               for trade in trades[-self.params.memory_length:]
                               for oid in (trade.buy_order_id, trade.sell_order_id))
            self._window_start = bisect_left(self._placed, window_start)
        return self._window_start

    # -- binary ledger ------------------------------------------------------

    def _expire(self, now: int) -> None:
        """Move the cursor to ``now``, failing the pending orders it passes."""
        end = bisect_left(self._placed, now - self.params.grace_period)
        pending = self._open
        for i in range(max(self._expired, self._start), end):
            if i in pending:
                self._tally(int(self._price[i]), bool(self._is_bid[i]), failed=True, delta=1)
        self._expired = end

    def _count_range(self, a: int, b: int, delta: int) -> None:
        """Add ``delta`` times the classified orders ``[a, b)`` to the counts."""
        executed = self._success[a:b] > 0.0
        failed = self._failure[a:b] > 0.0
        expired = max(0, self._expired - a)
        failed[:expired] = ~executed[:expired]
        keep = executed | failed
        price = self._price[a:b][keep]
        is_bid = self._is_bid[a:b][keep]
        rows = 2 * (failed[keep] == is_bid) + ~is_bid
        if delta > 0:  # a column for each tick not counted yet
            ticks = np.sort(np.concatenate((self._ticks, price)), kind="stable")
            ticks = ticks[_run_starts(ticks)]
            counts = np.zeros((4, ticks.size), dtype=np.int64)
            counts[:, ticks.searchsorted(self._ticks)] = self._counts
            self._ticks, self._counts, self._tick_list = ticks, counts, ticks.tolist()
        np.add.at(self._counts, (rows, self._ticks.searchsorted(price)), delta)
        if delta < 0:  # drop the columns this emptied
            occupied = self._counts.any(axis=0)  # compress keeps the rows contiguous
            self._ticks, self._counts = self._ticks[occupied], self._counts.compress(occupied, axis=1)
            self._tick_list = self._ticks.tolist()

    def _tally(self, price: int, is_bid: bool, failed: bool, delta: int) -> None:
        """Add ``delta`` orders of one class at ``price`` to the counts."""
        ticks, counts = self._tick_list, self._counts
        column = bisect_left(ticks, price)
        if column == len(ticks) or ticks[column] != price:  # the tick's first order
            ticks.insert(column, price)
            self._ticks = np.concatenate((self._ticks[:column], [price], self._ticks[column:]))
            counts = self._counts = np.concatenate(
                (counts[:, :column], np.zeros((4, 1), dtype=np.int64), counts[:, column:]), axis=1)
        counts[2 * (failed == is_bid) + (not is_bid), column] += delta


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a sorted array starts, as a mask."""
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


_SPLINE_GRID_TICKS = 1 << 16  # the most ticks a spline-mode grid lays out one by one


def hbl_candidate_grid(memory: TickMemory, mode: str = "observed") -> np.ndarray:
    """Candidate limit prices, ascending, as an int64 array: the observed
    distinct prices and one tick beyond each extreme, or in spline mode
    every tick of that range, unless it holds more than
    ``_SPLINE_GRID_TICKS`` ticks (as after a price jump)."""
    observed = memory.prices
    if not observed.size:
        return observed
    first, last = int(observed[0]), int(observed[-1])
    lo, hi = max(0, first - 1), last + 1
    if mode == "spline" and hi - lo < _SPLINE_GRID_TICKS:
        return np.arange(lo, hi + 1, dtype=np.int64)
    # observed is sorted and distinct, so only the two ends can be new
    grid = np.empty(observed.size + 2, dtype=np.int64)
    grid[0], grid[1:-1], grid[-1] = lo, observed, hi
    return grid[lo == first:]


def _solve_tridiagonal(dl: list, d: list, du: list, b: list) -> list:
    """Solve a tridiagonal system in place, bit for bit as LAPACK ``dgtsv``.

    ``d`` (the diagonal) and ``b`` (the right-hand side) have ``n`` entries.
    ``dl[i]`` and ``du[i]`` are the entries below and right of ``d[i]`` for
    ``i < n - 1``; an entry of theirs from ``n - 1`` on is never read.  All
    four lists are overwritten, and ``b``, returned, holds the solution.  The
    float operations, pivoting included, are dgtsv's in its order; a singular
    system, where dgtsv returns ``info > 0``, raises ``ValueError``.
    """
    n = len(d)
    pivot, rhs = d[0], b[0]  # row i as eliminated so far
    try:  # a zero pivot divides by zero, in the loop or at its end
        for i in range(n - 1):
            below = dl[i]
            if abs(pivot) >= abs(below):
                fact = below / pivot
                d[i], b[i], dl[i] = pivot, rhs, 0.0
                pivot = d[i + 1] - fact * du[i]
                rhs = b[i + 1] - fact * rhs
            else:  # interchange rows i and i + 1
                fact = pivot / below
                d[i], du[i], pivot = below, d[i + 1], du[i] - fact * d[i + 1]
                if i < n - 2:
                    dl[i] = du[i + 1]
                    du[i + 1] = -fact * dl[i]
                b[i], rhs = b[i + 1], rhs - fact * b[i + 1]
        b[n - 1] = x2 = rhs / pivot
    except ZeroDivisionError:
        raise ValueError("singular tridiagonal system") from None
    if n > 1:
        b[n - 2] = x1 = (b[n - 2] - du[n - 2] * x2) / d[n - 2]
    for i in range(n - 3, -1, -1):  # x1, x2: the solution at rows i + 1, i + 2
        x1, x2 = (b[i] - du[i] * x1 - dl[i] * x2) / d[i], x1
        b[i] = x1
    return b


def natural_cubic_spline(knots, values, points) -> np.ndarray:
    """Natural cubic spline through ``(knots, values)`` at ``points``,
    extrapolated from the end pieces; its arguments are only read.

    Bit for bit the reference spline that ``tests/test_agents.py`` compares
    against: the same tridiagonal system for the slopes, the same Hermite
    coefficients and the same evaluation order, without the reference
    library's import cost.  Needs at least two strictly increasing knots.
    """
    x = np.asarray(knots, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    dx = x[1:] - x[:-1]
    slope = (y[1:] - y[:-1]) / dx
    # slope equations; the natural ends set the second derivative to zero
    d = np.empty(len(x))
    d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    rhs = np.empty(len(x))
    rhs[0], rhs[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    w = dx.tolist()
    s = np.array(_solve_tridiagonal(w[1:] + w[-1:], d.tolist(), w[:1] + w[:-1], rhs.tolist()),
                 dtype=np.float64)
    # Hermite form: y + s*h + c1*h^2 + c0*h^3 on each interval
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    p = np.asarray(points, dtype=np.float64)
    i = x[1:-1].searchsorted(p, side="right")  # each point's piece, the end ones extended
    h = p - x[i]
    h2 = h * h
    # term by term with rising powers, the reference's order (not Horner)
    return y[i] + s[i] * h + c1[i] * h2 + c0[i] * (h2 * h)


def hbl_belief_spline(memory: TickMemory, side: Side, prices) -> np.ndarray:
    """The belief at ``prices`` read off a natural cubic spline through the
    observed (price, belief) points, clipped to [0, 1].  With fewer than two
    points the spline grid is the observed one, and ``prices``, that grid,
    get the raw beliefs."""
    beliefs = memory.beliefs(side)
    if len(memory.prices) < 2:
        return beliefs[beliefs.size - len(prices):]  # no tick below 0
    spline = natural_cubic_spline(memory.prices, beliefs[1:-1], prices)
    return spline.clip(0.0, 1.0, out=spline)


def hbl_decide(
    q_held: int,
    pv: PrivateValues,
    r_hat: float,
    memory: TickMemory | None,
    params: HblParams,
    zi: ZiParams,
    rng: np.random.Generator,
    grid: PriceGrid,
    best_bid: int | None = None,
    best_ask: int | None = None,
) -> tuple[ActionKind, Side, int]:
    """Expected-surplus-maximizing placement; ZI fallback while uninformed.

    ``memory`` is ``None`` while the book holds fewer than ``memory_length``
    transactions: the kernel alone applies that gate, and the agent then
    decides as ZI with ``zi``.  The fallback comes before any draw, so an
    uninformed HBL agent consumes its RNG stream exactly like a ZI agent
    would.  An informed agent builds its candidates from its memory with
    ``hbl_candidate_grid`` in ``params.grid_mode``; the memory holds the
    orders of at least one trade, so they are never empty.  The observed
    grid is the ticks at which ``TickMemory.beliefs`` reads, less the one
    below 0, so its beliefs are read by position.
    """
    if memory is None:
        return zi_decide(q_held, pv, r_hat, best_bid, best_ask, zi, rng, grid)
    side = _choose_side(q_held, pv, rng)
    prices = hbl_candidate_grid(memory, params.grid_mode)  # ascending: lowest bid wins ties
    if params.grid_mode == "spline":
        beliefs = hbl_belief_spline(memory, side, prices)
    else:  # the grid is the ticks that beliefs() reads, less any below 0
        beliefs = memory.beliefs(side)[-prices.size:]
    if side is BID:
        expected = pv.buy_valuation(q_held, r_hat) - prices * grid.tick_size
    else:  # ties resolve to the highest ask
        prices, beliefs = prices[::-1], beliefs[::-1]
        expected = prices * grid.tick_size - pv.sell_valuation(q_held, r_hat)
    expected *= beliefs
    best_price = int(prices[expected.argmax()])  # first max keeps tie order
    return PLACE, side, best_price
