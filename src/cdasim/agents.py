"""Trading strategies: Zero Intelligence and Heuristic Belief Learning.

Both strategies are pure decision functions over (holdings, preferences,
fundamental projection, market view, RNG stream).  ZI picks a side by fair
coin, shades its limit away from its valuation by a randomly requested
surplus, and may instead take the touch when that locks in at least a
configured fraction of the requested surplus.  HBL replaces the random
shading with the price maximizing expected surplus under a success-belief
function fit to the recently observed order stream, falling back to ZI
while it has not yet observed enough transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .orderbook import EventKind, OrderBook, Side
from .preferences import PrivateValues
from .prices import PriceGrid


class ActionKind(enum.Enum):
    PLACE = "PLACE"
    TAKE = "TAKE"  # marketable limit at the touch, executes immediately
    SKIP = "SKIP"


@dataclass(frozen=True)
class AgentAction:
    kind: ActionKind
    side: Side | None = None
    limit_price: int | None = None  # ticks


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
        if not 0.0 <= self.r_min <= self.r_max:
            raise ValueError("require 0 <= r_min <= r_max")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.sigma_n_sq < 0.0 or self.sigma_pv_sq < 0.0:
            raise ValueError("variances must be >= 0")
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")


@dataclass(frozen=True)
class HblParams:
    zi: ZiParams
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
    side = Side.BID if rng.random() < 0.5 else Side.ASK
    if side is Side.BID and not pv.can_buy(q_held):
        side = Side.ASK if pv.can_sell(q_held) else None
    elif side is Side.ASK and not pv.can_sell(q_held):
        side = Side.BID if pv.can_buy(q_held) else None
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
    requested = rng.uniform(params.r_min, params.r_max)
    if side is Side.BID:
        valuation = pv.buy_valuation(q_held, r_hat)
        # Strategic threshold: lock in eta * R immediately if the touch allows it.
        if best_ask is not None and valuation - grid.to_value(best_ask) >= params.eta * requested:
            return AgentAction(ActionKind.TAKE, Side.BID, best_ask)
        limit = max(0, grid.to_ticks_down(valuation - requested))
        return AgentAction(ActionKind.PLACE, Side.BID, limit)
    valuation = pv.sell_valuation(q_held, r_hat)
    if best_bid is not None and grid.to_value(best_bid) - valuation >= params.eta * requested:
        return AgentAction(ActionKind.TAKE, Side.ASK, best_bid)
    limit = max(0, grid.to_ticks_up(valuation + requested))
    return AgentAction(ActionKind.PLACE, Side.ASK, limit)


class HblMemory:
    """Classified order history with prefix sums for fast belief queries.

    Built from parallel arrays of sides, prices and success and failure
    weights in [0, 1]; the simulation uses it for fractional mode, where
    the weights are not integers.
    """

    def __init__(self, is_bid, prices, success, failure, transaction_count: int):
        self.transaction_count = transaction_count
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
    def prices(self) -> list[int]:
        # not np.union1d/np.unique: in numpy 2.x their first call lazily imports numpy.ma (~10 ms)
        merged = np.sort(np.concatenate((self._bid_prices_sorted, self._ask_prices)))
        first_of_run = np.ones(merged.size, dtype=bool)
        first_of_run[1:] = merged[1:] != merged[:-1]
        return merged[first_of_run].tolist()

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


class TickMemory:
    """Binary-mode memory held as per-tick order counts from tick ``lo`` up.

    ``counts`` rows are successful bids, failed bids, successful asks and
    failed asks.  The counts are exact integers, so the beliefs match the
    ones ``HblMemory`` builds from the same orders bit for bit.
    """

    def __init__(self, counts: np.ndarray, lo: int, transaction_count: int):
        self.transaction_count = transaction_count
        self._lo = lo
        # _prefix[row, k] = orders of that row at ticks below lo + k
        self._prefix = np.zeros((4, counts.shape[1] + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=self._prefix[:, 1:])

    def __len__(self) -> int:
        return int(self._prefix[:, -1].sum())

    @property
    def prices(self) -> list[int]:
        occupied = np.diff(self._prefix.sum(axis=0)) > 0
        return (np.flatnonzero(occupied) + self._lo).tolist()

    def belief_array(self, prices, side: Side) -> np.ndarray:
        """The beliefs of ``HblMemory.belief_array`` over these counts."""
        k = np.asarray(prices, dtype=np.int64) - self._lo
        span = self._prefix.shape[1] - 1
        at_or_below = self._prefix[:, np.clip(k + 1, 0, span)]
        below = self._prefix[:, np.clip(k, 0, span)]
        total = self._prefix[:, -1]
        bid_succ, bid_fail, ask_succ, ask_fail = range(4)
        if side is Side.BID:
            favorable = at_or_below[ask_succ] + at_or_below[ask_fail]
            succ = at_or_below[bid_succ]
            fail = total[bid_fail] - below[bid_fail]
        else:
            favorable = (total[bid_succ] - below[bid_succ]
                         + total[bid_fail] - below[bid_fail])
            succ = total[ask_succ] - below[ask_succ]
            fail = at_or_below[ask_fail]
        numerator = (favorable + succ).astype(np.float64)
        denominator = numerator + fail
        return np.divide(numerator, denominator,
                         out=np.zeros_like(numerator), where=denominator > 0.0)


class OrderHistory:
    """Array-backed order ledger that answers the HBL memory queries.

    Its one input is the book's event log: each query first reads the
    events logged since the previous query, so a run without HBL agents
    never fills it.  The memory covers every order placed at or after the
    placement of the oldest order in the book's last ``memory_length``
    trades.  From its first binary-mode query on, the ledger also keeps
    per-tick counts of the successful and failed bids and asks placed at
    or after the current window start, so a query costs a few cumulative
    sums over the tick span instead of a sort of the window:

    - an execution or a cancellation moves one order between classes;
    - a forward cursor fails the pending orders that outlive the grace
      period (placement times never decrease, so no heap is needed);
    - a moved window start re-counts only the orders it passes over.

    Fractional weights are floats whose sums depend on the order of
    addition, so that mode slices and rebuilds the window on every query
    (``rebuild_memory``), which is also the binary ledger's oracle.
    """

    _FIELDS = ("_placed", "_price", "_is_bid", "_executed", "_cancelled")
    _MARGIN = 64  # ticks of headroom added whenever the counts widen

    def __init__(self) -> None:
        self._capacity = 256
        self._placed = np.empty(self._capacity, dtype=np.int64)
        self._price = np.empty(self._capacity, dtype=np.int64)
        self._is_bid = np.empty(self._capacity, dtype=bool)
        self._executed = np.empty(self._capacity, dtype=np.float64)
        self._cancelled = np.empty(self._capacity, dtype=np.float64)
        self._index: dict[int, int] = {}
        self._n = 0
        self._read_events = 0  # events of the book's log read so far
        self._now = 0  # time of the last binary query
        self._reset_ledger(None)  # inactive until the first binary query

    def _grow(self) -> None:
        self._capacity *= 2
        for name in self._FIELDS:
            old = getattr(self, name)
            grown = np.empty(self._capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def memory(self, book: OrderBook, now: int,
               params: HblParams) -> HblMemory | TickMemory:
        """Classified memory of the orders in the window of ``book``'s last
        ``memory_length`` trades."""
        if params.success_mode != "binary":
            return self.rebuild_memory(book, now, params)
        start = self._read(book, params.memory_length)
        if self._grace != params.grace_period or now < self._now:
            self._reset_ledger(params.grace_period)
        self._expire(now)
        if start < self._start:
            self._count_range(start, self._start, 1)
        elif start > self._start:
            self._count_range(self._start, start, -1)
        self._start = start
        self._now = now
        return TickMemory(self._counts, self._lo, len(book.trades))

    def rebuild_memory(self, book: OrderBook, now: int, params: HblParams) -> HblMemory:
        """The window sliced, classified and sorted from scratch."""
        i0 = self._read(book, params.memory_length)
        placed = self._placed[i0: self._n]
        price = self._price[i0: self._n]
        is_bid = self._is_bid[i0: self._n]
        executed = self._executed[i0: self._n]
        cancelled = self._cancelled[i0: self._n]
        exec_mask = ~np.isnan(executed)
        grace = float(params.grace_period)
        if params.success_mode == "binary":
            failed = ~exec_mask & (~np.isnan(cancelled) | (now - placed > grace))
            include = exec_mask | failed
            success = exec_mask[include].astype(np.float64)
            failure = failed[include].astype(np.float64)
        else:
            success = np.zeros(len(placed))
            failure = np.zeros(len(placed))
            ramp = np.clip(1.0 - (executed - placed) / grace, 0.0, 1.0)
            success[exec_mask] = ramp[exec_mask]
            failure[exec_mask] = 1.0 - ramp[exec_mask]
            resolved_at = np.where(np.isnan(cancelled), float(now), cancelled)
            stale = np.clip((resolved_at - placed) / grace, 0.0, 1.0)
            failure[~exec_mask] = stale[~exec_mask]
            include = exec_mask | (failure > 0.0)
            success = success[include]
            failure = failure[include]
        return HblMemory(is_bid[include], price[include], success, failure,
                         len(book.trades))

    def _read(self, book: OrderBook, memory_length: int) -> int:
        """Take in the events logged since the last read and return the
        index of the first order in the window."""
        events = book.events
        for event in events[self._read_events:]:
            if event.kind is EventKind.PLACED:
                if self._n == self._capacity:
                    self._grow()
                i = self._n
                self._placed[i] = event.time
                self._price[i] = event.price
                self._is_bid[i] = event.side is Side.BID
                self._executed[i] = np.nan
                self._cancelled[i] = np.nan
                self._index[event.order_id] = i
                self._n += 1
                continue
            i = self._index[event.order_id]
            counted = self._grace is not None and i >= self._start
            if event.kind is EventKind.EXECUTED:
                if not np.isnan(self._executed[i]):  # keep the first execution time
                    continue
                if counted and self._classified(i):
                    self._tally(i, failed=True, delta=-1)  # an expired order can still fill
                self._executed[i] = event.time
                if counted:
                    self._tally(i, failed=False, delta=1)
            else:
                if counted and not self._classified(i):
                    self._tally(i, failed=True, delta=1)
                self._cancelled[i] = event.time
        self._read_events = len(events)
        trades = book.trades[-memory_length:]
        if not trades:  # no transaction to remember: the window is empty
            return self._n
        window_start = min(self._placed[self._index[oid]] for trade in trades
                           for oid in (trade.buy_order_id, trade.sell_order_id))
        return int(np.searchsorted(self._placed[: self._n], window_start, side="left"))

    # -- binary ledger ------------------------------------------------------

    def _reset_ledger(self, grace: int | None) -> None:
        """Empty the window; the next query counts it from scratch."""
        self._grace = grace
        self._expired = 0  # orders [0, _expired) were placed over grace ago
        self._start = self._n  # index of the first order in the window
        self._lo = 0  # tick of column 0 of _counts
        self._counts = np.zeros((4, 0), dtype=np.int64)  # rows as in TickMemory

    def _expired_before(self, now: int) -> int:
        """Number of orders with ``now - placed > grace``."""
        return int(np.searchsorted(self._placed[: self._n], now - self._grace,
                                   side="left"))

    def _classified(self, i: int) -> bool:
        """Whether order ``i`` is executed, cancelled or past its grace."""
        return (i < self._expired or not np.isnan(self._executed[i])
                or not np.isnan(self._cancelled[i]))

    def _expire(self, now: int) -> None:
        """Move the cursor to ``now``, failing the pending orders it passes."""
        end = self._expired_before(now)
        first = max(self._expired, self._start)
        if end > first:
            pending = (np.isnan(self._executed[first:end])
                       & np.isnan(self._cancelled[first:end]))
            self._add_counts(self._price[first:end][pending],
                             self._is_bid[first:end][pending], True, 1)
        self._expired = end

    def _count_range(self, a: int, b: int, delta: int) -> None:
        """Add ``delta`` times the classified orders ``[a, b)`` to the counts."""
        executed = ~np.isnan(self._executed[a:b])
        failed = ~executed & ~np.isnan(self._cancelled[a:b])
        expired = max(0, self._expired - a)
        failed[:expired] = ~executed[:expired]
        keep = executed | failed
        self._add_counts(self._price[a:b][keep], self._is_bid[a:b][keep],
                         failed[keep], delta)

    def _add_counts(self, price, is_bid, failed, delta: int) -> None:
        if price.size == 0:
            return
        self._cover(int(price.min()), int(price.max()))
        span = self._counts.shape[1]
        rows = 2 * ~is_bid + failed
        tally = np.bincount(rows * span + (price - self._lo), minlength=4 * span)
        self._counts += delta * tally.reshape(4, span)

    def _tally(self, i: int, failed: bool, delta: int) -> None:
        price = int(self._price[i])
        self._cover(price, price)
        row = 2 * (not self._is_bid[i]) + failed
        self._counts[row, price - self._lo] += delta

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


def hbl_candidate_grid(memory: HblMemory | TickMemory, mode: str = "observed", extend: int = 1) -> list[int]:
    """Candidate limit prices: observed distinct prices, or every tick across
    the observed range, each extended ``extend`` ticks beyond the extremes."""
    observed = memory.prices
    if not observed:
        return []
    lo = max(0, observed[0] - extend)
    hi = observed[-1] + extend
    if mode == "spline":
        return list(range(lo, hi + 1))
    # observed is sorted and distinct, so only the two ends can be new
    if lo < observed[0]:
        observed.insert(0, lo)
    if hi > observed[-1]:
        observed.append(hi)
    return observed


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


def natural_cubic_spline(knots, values):
    """Natural cubic spline through ``(knots, values)``, extrapolated from the
    end pieces; returns a function of an array of points.

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
    last = len(x) - 2

    def evaluate(points):
        p = np.asarray(points, dtype=np.float64)
        i = np.clip(np.searchsorted(x, p, side="right") - 1, 0, last)
        h = p - x[i]
        h2 = h * h
        # term by term with rising powers, the reference's order (not Horner)
        return c3[i] + c2[i] * h + c1[i] * h2 + c0[i] * (h2 * h)

    return evaluate


def hbl_belief_spline(memory: HblMemory | TickMemory, side: Side):
    """Natural cubic spline through the observed (price, belief) points,
    clamped to [0, 1]; degenerates to the raw belief with < 2 points.

    Returns a function of an array of prices.
    """
    points = memory.prices
    if len(points) < 2:
        return lambda prices: memory.belief_array(prices, side)
    spline = natural_cubic_spline(points, memory.belief_array(points, side))
    return lambda prices: np.clip(spline(prices), 0.0, 1.0)


def hbl_decide(
    q_held: int,
    pv: PrivateValues,
    r_hat: float,
    memory: HblMemory | TickMemory | None,
    candidate_prices: list[int],
    params: HblParams,
    rng: np.random.Generator,
    grid: PriceGrid,
    best_bid: int | None = None,
    best_ask: int | None = None,
) -> AgentAction:
    """Expected-surplus-maximizing placement; ZI fallback while uninformed.

    The fallback is checked before any draw so that an uninformed HBL agent
    consumes its RNG stream exactly like a ZI agent would.
    """
    if memory is None or memory.transaction_count < params.memory_length or not candidate_prices:
        return zi_decide(q_held, pv, r_hat, best_bid, best_ask, params.zi, rng, grid)
    side = _choose_side(q_held, pv, rng)
    if side is None:
        return SKIP
    prices = np.sort(np.asarray(candidate_prices, dtype=np.int64))  # ties resolve to the lowest bid
    if side is Side.BID:
        valuation = pv.buy_valuation(q_held, r_hat)
    else:
        valuation = pv.sell_valuation(q_held, r_hat)
        prices = prices[::-1]  # ties resolve to the highest ask
    sign = 1.0 if side is Side.BID else -1.0
    if params.grid_mode == "spline":
        beliefs = hbl_belief_spline(memory, side)(prices)
    else:
        beliefs = memory.belief_array(prices, side)
    expected = sign * (valuation - prices * grid.tick_size) * beliefs
    best_price = int(prices[np.argmax(expected)])  # first max keeps tie order
    return AgentAction(ActionKind.PLACE, side, max(0, best_price))
