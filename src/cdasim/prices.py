"""Tick-grid price arithmetic.

Every price the simulator stores or logs is an integer count of ticks.
Conversion from real-valued intermediate quantities happens exactly once
per returned value; internal real-valued state (e.g. the continuous
mean-reverting process) is never rounded, so no rounding bias accumulates.

The definition of each rounding is exact decimal arithmetic on the
shortest decimal reprs of the value and the tick,
``Decimal(str(value)) / Decimal(str(tick_size))`` rounded to an integer,
which keeps quantities like 99.55 / 0.01 exactly on 9955.  The methods
answer most calls from the float quotient ``x = value / tick_size`` and
fall back to that ``Decimal`` expression otherwise.

The fast path is safe because, for a normal (non-subnormal) tick, ``x``
differs from the exact quotient by at most about 3 * 2**-53 relative
(2**-53 for each shortest repr and for the division), plus 2**-53
absolute for a subnormal value.  It answers only when ``x`` lies more than
``2**-30 * (abs(x) + 1)`` from the rounding boundary (a half-integer for
``to_ticks``, an integer for ``to_ticks_down``, which ``to_ticks_up``
calls on ``-value``), a band millions of times wider than that error, so
the exact quotient lies on the same side of the boundary and rounds to
the same integer.  Exact ties, grid points, non-finite input and large
``abs(x)`` (the band reaches 0.5 at ``abs(x) = 2**29``) all take the
exact path.  ``to_ticks_array`` applies ``to_ticks``' rule to a numpy array
at once and sends the elements in the guard band through ``to_ticks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal
from math import floor

import numpy as np

_GUARD = 2.0 ** -30
# |x| beyond this is always inside the guard band; the test also rejects NaN and inf.
_FAST_LIMIT = 2.0 ** 31
# Decimal multiplies to 28 significant digits, so format falls back beyond this.
_EXACT_PRODUCT = 10 ** 28
# The price domain: a config whose fundamental reaches this many ticks is
# rejected, so tick counts stay exact as floats and fit int64 with headroom.
MAX_TICKS = 1 << 53


@dataclass(frozen=True)
class PriceGrid:
    """Maps between real-valued prices and integer tick counts."""

    tick_size: float = 0.1
    # tick_size == _mantissa / 10**_decimals, read from its shortest repr.
    _mantissa: int = field(init=False, compare=False, repr=False)
    _decimals: int = field(init=False, compare=False, repr=False)
    # The fast path's divisor: tick_size, or NaN for a subnormal tick, whose
    # shortest repr can be far from its value; NaN sends every call exact.
    _fast_tick: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tick_size) and self.tick_size > 0):
            raise ValueError("tick_size must be > 0 and finite")
        _, digits, exponent = Decimal(str(self.tick_size)).normalize().as_tuple()
        mantissa = int("".join(map(str, digits)))
        if exponent >= 0:
            mantissa, exponent = mantissa * 10 ** exponent, 0
        object.__setattr__(self, "_mantissa", mantissa)
        object.__setattr__(self, "_decimals", -exponent)
        normal = self.tick_size >= 2.2250738585072014e-308
        object.__setattr__(self, "_fast_tick", self.tick_size if normal else math.nan)

    def _ratio(self, value: float) -> Decimal:
        return Decimal(str(value)) / Decimal(str(self.tick_size))

    def to_ticks(self, value: float) -> int:
        """Nearest tick, ties rounded away from zero."""
        x = value / self._fast_tick
        if -_FAST_LIMIT < x < _FAST_LIMIT:
            n = floor(x)
            r = x - n
            if abs(r - 0.5) > _GUARD * (abs(x) + 1):
                return n + (r > 0.5)
        return int(self._ratio(value).to_integral_value(rounding=ROUND_HALF_UP))

    def to_ticks_array(self, values: np.ndarray) -> np.ndarray | None:
        """``to_ticks`` of each of the floats ``values``, as an int64 array,
        or ``None`` if any quotient lies outside the float path's range
        (``abs(x) >= 2**31``, or NaN, as every quotient of a subnormal tick
        is).  Each element answers by ``to_ticks``' own float rule; those in
        its guard band go through ``to_ticks`` itself."""
        x = values / self._fast_tick
        guard = np.abs(x)
        if x.size and not guard.max() < _FAST_LIMIT:  # also catches NaN
            return None
        n = np.floor(x)
        r = x - n
        n += r > 0.5
        guard += 1.0
        guard *= _GUARD
        r -= 0.5
        slow = (np.abs(r, out=r) <= guard).nonzero()[0]
        if slow.size:
            n[slow] = [self.to_ticks(value) for value in values[slow].tolist()]
        return n.astype(np.int64)

    def to_ticks_down(self, value: float) -> int:
        x = value / self._fast_tick
        if -_FAST_LIMIT < x < _FAST_LIMIT:
            n = floor(x)
            guard = _GUARD * (abs(x) + 1)
            if guard < x - n < 1 - guard:
                return n
        return int(self._ratio(value).to_integral_value(rounding=ROUND_FLOOR))

    def to_ticks_up(self, value: float) -> int:
        """The ceiling, as minus the floor of ``-value``.  Negation is exact
        in both of ``to_ticks_down``'s quotients: IEEE division rounds
        symmetrically, so ``-value / tick_size`` is ``-(value / tick_size)``
        bit for bit, and ``Decimal(str(-value))`` is ``-Decimal(str(value))``,
        whose quotient the decimal context also rounds symmetrically.  The
        floor of ``-q`` is minus the ceiling of ``q``."""
        return -self.to_ticks_down(-value)

    def to_value(self, ticks: int) -> float:
        """The price of ``ticks`` as the float ``ticks * tick_size``.  The
        per-wake paths (the kernel's observation and ``zi_decide``'s and
        ``hbl_decide``'s valuations) multiply by ``tick_size`` directly and
        get the same float."""
        return ticks * self.tick_size

    def format(self, ticks: int) -> str:
        """Exact decimal rendering for CSV output (bit-stable across runs)."""
        n = ticks * self._mantissa
        if not -_EXACT_PRODUCT < n < _EXACT_PRODUCT:
            return f"{Decimal(ticks) * Decimal(str(self.tick_size)):.{self._decimals}f}"
        d = self._decimals
        if d == 0:
            return str(n)
        digits = str(abs(n)).zfill(d + 1)
        sign = "-" if n < 0 else ""
        return f"{sign}{digits[:-d]}.{digits[-d:]}"


class TickStrings(dict):
    """Per-run cache of ``PriceGrid.format`` strings: each tick is formatted once."""

    def __init__(self, grid: PriceGrid) -> None:
        super().__init__()
        self.grid = grid

    def __missing__(self, ticks: int) -> str:
        self[ticks] = text = self.grid.format(ticks)
        return text
