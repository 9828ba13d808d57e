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

The HBL memory is one per-tick type, ``TickMemory``, in both success
modes.  ``OrderHistory`` keeps it as running int64 counts in binary mode;
in fractional mode it keeps the window sorted across queries, to keep one
float addition order, and lays the sums on the same ticks.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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


def _choose_side(q_held: int, pv: PrivateValues, rng: np.random.Generator) -> Side | None:
    """Fair coin, flipping to the only legal side at the holdings limit."""
    side = BID if rng.random() < 0.5 else ASK
    if side is BID and not pv.can_buy(q_held):
        side = ASK if pv.can_sell(q_held) else None
    elif side is ASK and not pv.can_sell(q_held):
        side = BID if pv.can_buy(q_held) else None
    return side


def zi_decide(
    q_held: int,
    pv: PrivateValues,
    r_hat: float,
    best_bid: int | None,
    best_ask: int | None,
    params: ZiParams,
    rng: np.random.Generator,
    grid: PriceGrid,
) -> AgentAction:
    side = _choose_side(q_held, pv, rng)
    if side is None:
        return SKIP
    # numpy's own uniform(r_min, r_max), drawn from the cheaper random() call
    requested = params.r_min + (params.r_max - params.r_min) * rng.random()
    if side is BID:
        valuation = pv.buy_valuation(q_held, r_hat)
        # Strategic threshold: lock in eta * R immediately if the touch allows it.
        if best_ask is not None and valuation - grid.to_value(best_ask) >= params.eta * requested:
            return tuple.__new__(AgentAction, (TAKE, BID, best_ask))
        limit = max(0, grid.to_ticks_down(valuation - requested))
        return tuple.__new__(AgentAction, (PLACE, BID, limit))
    valuation = pv.sell_valuation(q_held, r_hat)
    if best_bid is not None and grid.to_value(best_bid) - valuation >= params.eta * requested:
        return tuple.__new__(AgentAction, (TAKE, ASK, best_bid))
    limit = max(0, grid.to_ticks_up(valuation + requested))
    return tuple.__new__(AgentAction, (PLACE, ASK, limit))


class TickMemory:
    """Classified orders laid on the ticks ``lo`` to ``lo + span - 1``.

    It holds, for each side, the number of included orders at each tick,
    and four cumulative weights indexed by tick, each running in the
    direction in which ``belief_array`` reads it: successful bids and
    failed asks at or below a tick, failed bids and successful asks at or
    above it.  Every order lies inside the span, so a query outside it
    reads an empty or a full sum.  Binary weights are int64 counts, so a
    binary belief is one division of two exact integers.
    """

    def __init__(self, lo: int, counts: np.ndarray, weights: np.ndarray):
        self._lo = lo
        self._counts = counts  # [bids, asks] at each tick
        # weights[0:2, j]: bid successes, ask failures at ticks below lo + j
        # weights[2:4, j]: bid failures, ask successes at ticks from lo + j up
        self._weights = weights

    def __len__(self) -> int:
        return int(self._counts.sum())

    @cached_property
    def prices(self) -> np.ndarray:
        """The occupied ticks, ascending, as an int64 array that the
        candidate grid and the spline knots share; do not modify it."""
        return (self._counts[0] + self._counts[1]).nonzero()[0] + self._lo

    def belief_array(self, prices, side: Side) -> np.ndarray:
        """Heuristic probability that a limit order at each of ``prices``
        transacts.

        For a bid: favorable mass is ask volume and successful bids at <= p,
        unfavorable mass is failed bids at >= p.  Mirrored for an ask.  The
        belief is 0 where the denominator is empty.
        """
        k = np.asarray(prices, dtype=np.int64) - self._lo
        span = self._counts.shape[1]
        at_or_below = np.minimum(np.maximum(k + 1, 0), span)
        at_or_above = np.minimum(np.maximum(k, 0), span)
        favorable = np.zeros(span + 1, dtype=np.int64)
        if side is BID:
            np.add.accumulate(self._counts[1], out=favorable[1:])
            favorable = favorable[at_or_below]
            succ = self._weights[0][at_or_below]
            fail = self._weights[2][at_or_above]
        else:
            np.add.accumulate(self._counts[0, ::-1], out=favorable[-2::-1])
            favorable = favorable[at_or_above]
            succ = self._weights[3][at_or_above]
            fail = self._weights[1][at_or_below]
        numerator = favorable + succ
        denominator = numerator + fail
        return np.divide(numerator, denominator,
                         out=np.zeros(numerator.shape), where=denominator > 0)


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

    In binary mode the ledger keeps int64 per-tick counts of the classified
    orders placed at or after the current window start, in the row order
    of ``TickMemory``'s weights, so a query is two cumulative sums of two
    rows each instead of a sort of the window:

    - an execution or a cancellation moves one order between classes;
    - a forward cursor fails, one at a time, the pending orders that
      outlive the grace period (placement times never decrease);
    - a moved window start re-counts only the orders it passes over.

    Fractional weights are floats whose sums depend on the order of
    addition, so that mode keeps each side's window sorted by (price,
    placement) across queries, re-weighs only the pending orders, and sums
    the weights in that order on each query, leaving out the orders
    without weight.
    """

    _FIELDS = ("_price", "_is_bid", "_success", "_failure")
    _MARGIN = 64  # ticks of headroom added whenever the counts widen

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
        # fractional: each side's orders [_start, _end), sorted by (price, placement)
        self._end = 0
        self._orders = [np.empty(0, dtype=np.int64)] * 2
        # binary ledger: counts of the classified orders [_start, _n)
        self._expired = 0  # orders [0, _expired) were placed over grace ago
        self._lo = 0  # tick of column 0 of _counts
        # rows: bid successes, ask failures, bid failures, ask successes
        self._counts = np.zeros((4, 0), dtype=np.int64)

    def memory(self, book: OrderBook, now: int) -> TickMemory:
        """Classified memory of the orders in the window of ``book``'s last
        ``memory_length`` trades."""
        if now < self._now:
            raise ValueError(f"query at {now} is earlier than the last one at {self._now}")
        self._now = now
        start = self._read(book)
        if not self._binary:
            return self._fractional_memory(start, now)
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
        return TickMemory(self._lo, counts[:2] + counts[2:], weights)

    def _read(self, book: OrderBook) -> int:
        """Take in the events logged since the last read and return the
        index of the first order in the window.  New orders are stored first,
        in one batch, as a fill or a cancellation changes only its own order."""
        events = book.events
        placed, resolved = [], []
        for event in events[self._read_events:]:
            (placed if event.kind is PLACED else resolved).append(event)
        self._read_events = len(events)
        if placed:
            n, k = self._n, len(placed)
            if n + k > self._price.size:
                for name in self._FIELDS:
                    grown = np.zeros(max(256, 2 * (n + k)), dtype=getattr(self, name).dtype)
                    grown[:n] = getattr(self, name)[:n]
                    setattr(self, name, grown)
            _, times, _, _, sides, prices, _ = zip(*placed)
            self._placed += times
            self._price[n: n + k] = prices
            self._is_bid[n: n + k] = [side is BID for side in sides]
            self._open.update(zip(range(n, n + k), times))
            self._n = n + k
        binary, grace, executed = self._binary, self._grace, EXECUTED
        pop, tally = self._open.pop, self._tally
        start, expired = self._start, self._expired
        for kind, time, order_id, _, _, _, _ in resolved:
            i = order_id - 1
            placed_at = pop(i)  # a one-unit order resolves once
            if kind is executed:
                success = 1.0 if binary else max(0.0, 1.0 - (time - placed_at) / grace)
                self._success[i], self._failure[i] = success, 1.0 - success
                if binary and i >= start:
                    if i < expired:  # an expired order can still fill
                        tally(i, failed=True, delta=-1)
                    tally(i, failed=False, delta=1)
            else:
                self._failure[i] = 1.0 if binary else min(1.0, (time - placed_at) / grace)
                if binary and i >= max(start, expired):
                    tally(i, failed=True, delta=1)
        trades = book.trades[-self.params.memory_length:]
        if not trades:  # no transaction to remember: the window is empty
            return self._n
        window_start = min(self._placed[oid - 1] for trade in trades
                           for oid in (trade.buy_order_id, trade.sell_order_id))
        return bisect_left(self._placed, window_start)

    # -- fractional memory --------------------------------------------------

    def _fractional_memory(self, start: int, now: int) -> TickMemory:
        """The memory of orders ``[start, _n)``, each side's weights summed
        in (price, placement) order as ``TickMemory`` reads them.  An order
        whose success and failure are both 0 (cancelled when placed, or placed
        at ``now`` and pending) is left out: it is not counted, and leaving
        out its 0.0 changes no float sum."""
        pending = np.fromiter(self._open, dtype=np.int64, count=len(self._open))
        placed = np.fromiter(self._open.values(), dtype=np.int64, count=len(self._open))
        self._failure[pending] = np.minimum(1.0, (now - placed) / self._grace)
        # the orders that join each side's sorted window, in placement order:
        # those a window start that moved back passes over, then the new ones
        joining = np.arange(max(start, self._end), self._n)
        if start < self._start:
            joining = np.concatenate((np.arange(start, self._start), joining))
        is_bid = self._is_bid[joining]
        for row, join in enumerate((joining[is_bid], joining[~is_bid])):
            order = self._orders[row]
            if start > self._start:
                order = order[order >= start]
            if join.size:  # older, kept and newer orders, stably sorted by price
                k = join.searchsorted(self._start)
                order = np.concatenate((join[:k], order, join[k:]))
                order = order[self._price[order].argsort(kind="stable")]
            self._orders[row] = order
        self._start, self._end = start, self._n
        success, failure = self._success, self._failure
        orders = [order[success[order] + failure[order] > 0.0] for order in self._orders]
        prices = [self._price[order] for order in orders]
        ends = [int(p) for price in prices if price.size for p in (price[0], price[-1])]
        lo, hi = (min(ends), max(ends)) if ends else (0, -1)
        ticks = np.arange(lo, hi + 2)
        counts = np.empty((2, ticks.size - 1), dtype=np.int64)
        weights = np.empty((4, ticks.size))
        for row, (order, price) in enumerate(zip(orders, prices)):
            below = price.searchsorted(ticks)
            np.subtract(below[1:], below[:-1], out=counts[row])
            rising, falling = success[order], failure[order]
            if row:  # asks: failures count at or below, successes at or above
                rising, falling = falling, rising
            sums = np.zeros(order.size + 1)
            rising.cumsum(out=sums[1:])
            weights[row] = sums[below]
            falling[::-1].cumsum(out=sums[1:])
            weights[2 + row] = sums[order.size - below]
        return TickMemory(lo, counts, weights)

    # -- binary ledger ------------------------------------------------------

    def _expire(self, now: int) -> None:
        """Move the cursor to ``now``, failing the pending orders it passes."""
        end = bisect_left(self._placed, now - self.params.grace_period)
        pending = self._open
        for i in range(max(self._expired, self._start), end):
            if i in pending:
                self._tally(i, failed=True, delta=1)
        self._expired = end

    def _count_range(self, a: int, b: int, delta: int) -> None:
        """Add ``delta`` times the classified orders ``[a, b)`` to the counts."""
        executed = self._success[a:b] > 0.0
        failed = self._failure[a:b] > 0.0
        expired = max(0, self._expired - a)
        failed[:expired] = ~executed[:expired]
        keep = executed | failed
        price = self._price[a:b][keep]
        if not price.size:
            return
        self._cover(int(price.min()), int(price.max()))
        is_bid = self._is_bid[a:b][keep]
        rows = 2 * (failed[keep] == is_bid) + ~is_bid
        np.add.at(self._counts.reshape(-1),
                  rows * self._counts.shape[1] + (price - self._lo), delta)

    def _tally(self, i: int, failed: bool, delta: int) -> None:
        price = int(self._price[i])
        self._cover(price, price)
        is_bid = bool(self._is_bid[i])
        self._counts[2 * (failed == is_bid) + (not is_bid), price - self._lo] += delta

    def _cover(self, lo: int, hi: int) -> None:
        """Widen the counts so they span ticks ``lo`` to ``hi``."""
        old_lo, old_span = self._lo, self._counts.shape[1]
        if old_span and old_lo <= lo and hi < old_lo + old_span:
            return
        if old_span:
            lo, hi = min(lo, old_lo), max(hi, old_lo + old_span - 1)
        new_lo = lo - self._MARGIN
        counts = np.zeros((4, hi + self._MARGIN + 1 - new_lo), dtype=np.int64)
        counts[:, old_lo - new_lo: old_lo - new_lo + old_span] = self._counts
        self._lo, self._counts = new_lo, counts


def hbl_candidate_grid(memory: TickMemory, mode: str = "observed") -> np.ndarray:
    """Candidate limit prices, ascending, as an int64 array: the observed
    distinct prices, or every tick across the observed range, each extended
    one tick beyond the extremes."""
    observed = memory.prices
    if not observed.size:
        return observed
    first, last = int(observed[0]), int(observed[-1])
    lo, hi = max(0, first - 1), last + 1
    if mode == "spline":
        return np.arange(lo, hi + 1, dtype=np.int64)
    # observed is sorted and distinct, so only the two ends can be new
    grid = np.empty(observed.size + 2, dtype=np.int64)
    grid[0], grid[1:-1], grid[-1] = lo, observed, hi
    return grid[lo == first: grid.size - (hi == last)]


def _solve_tridiagonal(dl: list, d: list, du: list, b: list) -> list:
    """Solve a tridiagonal system in place, as LAPACK ``dgtsv`` does.

    ``dl``, ``d`` and ``du`` are the sub-, main and super-diagonal.  The
    elimination with partial pivoting and the back-substitution follow the
    reference routine step for step, so the solution matches it bit for bit.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("singular tridiagonal system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("singular tridiagonal system")
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def natural_cubic_spline(knots, values, points) -> np.ndarray:
    """Natural cubic spline through ``(knots, values)`` at ``points``,
    extrapolated from the end pieces.

    Bit for bit the reference spline that ``tests/test_agents.py`` compares
    against: the same tridiagonal system for the slopes, the same Hermite
    coefficients and the same evaluation order, without the reference
    library's import cost.  Needs at least two strictly increasing knots.
    """
    x = np.asarray(knots, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # slope equations; the natural ends set the second derivative to zero
    d = np.empty(len(x))
    d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    rhs = np.empty(len(x))
    rhs[0], rhs[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    dl = np.append(dx[1:], dx[-1])
    du = np.append(dx[0], dx[:-1])
    s = np.array(_solve_tridiagonal(dl.tolist(), d.tolist(), du.tolist(), rhs.tolist()))
    # Hermite form: y + s*h + c1*h^2 + c0*h^3 on each interval
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    c2 = s[:-1]
    c3 = y[:-1]
    p = np.asarray(points, dtype=np.float64)
    i = np.clip(np.searchsorted(x, p, side="right") - 1, 0, len(x) - 2)
    h = p - x[i]
    h2 = h * h
    # term by term with rising powers, the reference's order (not Horner)
    return c3[i] + c2[i] * h + c1[i] * h2 + c0[i] * (h2 * h)


def hbl_belief_spline(memory: TickMemory, side: Side, prices) -> np.ndarray:
    """The belief at ``prices`` read off a natural cubic spline through the
    observed (price, belief) points, clipped to [0, 1]; the raw belief with
    fewer than two points."""
    points = memory.prices
    if len(points) < 2:
        return memory.belief_array(prices, side)
    spline = natural_cubic_spline(points, memory.belief_array(points, side), prices)
    return np.clip(spline, 0.0, 1.0)


def hbl_decide(
    q_held: int,
    pv: PrivateValues,
    r_hat: float,
    memory: TickMemory | None,
    candidate_prices: np.ndarray | None,
    params: HblParams,
    zi: ZiParams,
    rng: np.random.Generator,
    grid: PriceGrid,
    best_bid: int | None = None,
    best_ask: int | None = None,
) -> AgentAction:
    """Expected-surplus-maximizing placement; ZI fallback while uninformed.

    ``memory`` is ``None`` while the book holds fewer than ``memory_length``
    transactions: the kernel alone applies that gate, and the agent then
    decides as ZI with ``zi``.  The fallback comes before any draw, so an
    uninformed HBL agent consumes its RNG stream exactly like a ZI agent
    would.  An informed memory holds the orders of at least one trade, so
    ``candidate_prices``, the ascending int64 array of
    ``hbl_candidate_grid``, is never empty.
    """
    if memory is None:
        return zi_decide(q_held, pv, r_hat, best_bid, best_ask, zi, rng, grid)
    side = _choose_side(q_held, pv, rng)
    if side is None:
        return SKIP
    prices = candidate_prices  # ascending: ties resolve to the lowest bid
    if side is BID:
        valuation = pv.buy_valuation(q_held, r_hat)
    else:
        valuation = pv.sell_valuation(q_held, r_hat)
        prices = prices[::-1]  # ties resolve to the highest ask
    sign = 1.0 if side is BID else -1.0
    if params.grid_mode == "spline":
        beliefs = hbl_belief_spline(memory, side, prices)
    else:
        beliefs = memory.belief_array(prices, side)
    expected = sign * (valuation - prices * grid.tick_size) * beliefs
    best_price = int(prices[np.argmax(expected)])  # first max keeps tie order
    return tuple.__new__(AgentAction, (PLACE, side, best_price))
