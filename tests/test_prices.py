"""PriceGrid against the exact Decimal definition it must reproduce."""

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdasim.prices import PriceGrid, TickStrings

from reference_run import to_ticks

METHODS = ("to_ticks", "to_ticks_down", "to_ticks_up")
TICKS = (0.1, 0.01, 0.25, 1.0, 0.3, 100.0, 1e-7)


@dataclass(frozen=True)
class DecimalGrid:
    """The Decimal-only PriceGrid: every conversion through Decimal(str(...))."""

    tick_size: float = 0.1

    def to_ticks(self, value: float) -> int:
        return to_ticks(value, self.tick_size)

    def to_ticks_down(self, value: float) -> int:
        return to_ticks(value, self.tick_size, ROUND_FLOOR)

    def to_ticks_up(self, value: float) -> int:
        return to_ticks(value, self.tick_size, ROUND_CEILING)

    @property
    def decimals(self) -> int:
        exponent = Decimal(str(self.tick_size)).normalize().as_tuple().exponent
        return max(0, -int(exponent))

    def format(self, ticks: int) -> str:
        return f"{Decimal(ticks) * Decimal(str(self.tick_size)):.{self.decimals}f}"


def outcome(fn, value):
    try:
        return fn(value)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def assert_rounds_like_oracle(tick, value):
    grid, oracle = PriceGrid(tick), DecimalGrid(tick)
    for name in METHODS:
        got = outcome(getattr(grid, name), value)
        assert got == outcome(getattr(oracle, name), value), (tick, value, name)
        assert isinstance(got, type) or type(got) is int, (tick, value, name)


def neighbours(value):
    return (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf))


@st.composite
def tick_and_value(draw):
    tick = draw(st.sampled_from(TICKS))
    k = draw(st.integers(-10**7, 10**7))
    base = draw(st.sampled_from((k * tick, (k + 0.5) * tick, k * tick + tick / 3, 0.0, -0.0)))
    value = draw(st.sampled_from(neighbours(base)))
    return tick, value


@settings(max_examples=3000)
@given(tick_and_value())
def test_rounding_matches_decimal_on_grid_ties_and_neighbours(case):
    assert_rounds_like_oracle(*case)


@settings(max_examples=1000)
@given(st.sampled_from(TICKS), st.floats(allow_nan=False))
def test_rounding_matches_decimal_on_any_float(tick, value):
    assert_rounds_like_oracle(tick, value)


@pytest.mark.parametrize("tick", TICKS + (0.05, 2.5, 0.001))
def test_rounding_matches_decimal_on_every_grid_point_and_tie(tick):
    for k in range(-400, 401):
        for base in (k * tick, (k + 0.5) * tick, k / (1 / tick)):
            for value in neighbours(base):
                assert_rounds_like_oracle(tick, value)


@pytest.mark.parametrize("tick", [5e-324, 1e-310, 2.2250738585072014e-308])
def test_subnormal_tick_matches_decimal(tick):
    # a subnormal tick's shortest repr can be far from its value: 5e-322 is
    # 101 ticks of 5e-324 in binary, but 100 in the decimal definition
    for k in range(0, 300):
        assert_rounds_like_oracle(tick, k * tick)
        assert_rounds_like_oracle(tick, (k + 0.5) * tick)
    assert_rounds_like_oracle(tick, 1.0)


def assert_array_rounds_like_scalar(tick, values):
    """``to_ticks_array`` is ``to_ticks`` element for element while every
    quotient lies inside the float path's range, and ``None`` otherwise."""
    grid = PriceGrid(tick)
    got = grid.to_ticks_array(np.array(values, dtype=np.float64))
    if not all(-2.0 ** 31 < value / tick < 2.0 ** 31 for value in values):
        assert got is None
        return
    assert got.dtype == np.int64
    assert got.tolist() == [grid.to_ticks(value) for value in values], tick


@pytest.mark.parametrize("tick", TICKS + (0.05, 2.5, 0.001))
def test_to_ticks_array_matches_to_ticks_on_ties_grid_points_and_guard_band(tick):
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
    for k in range(-400, 401):
        for base in (k * tick, (k + 0.5) * tick, k / (1 / tick)):
            values += neighbours(base)
        tie = (k + 0.5) * tick
        # inside the guard band, and just outside it
        values += [tie * (1 + 2.0 ** -40), tie * (1 - 2.0 ** -40),
                   tie * (1 + 2.0 ** -26), tie * (1 - 2.0 ** -26)]
    assert_array_rounds_like_scalar(tick, values)


@pytest.mark.parametrize("tick", TICKS)
def test_to_ticks_array_near_the_range_end(tick):
    # quotients near 2**31 lie in the guard band and take the exact path
    near = [sign * (2.0 ** 31 - d) * tick for sign in (1, -1) for d in (0.5, 1, 1.5, 2, 1000)]
    assert_array_rounds_like_scalar(tick, near + [1.0])
    for past in (2.0 ** 31 * tick * (1 + 2.0 ** -20), -2.0 ** 31 * tick * 1.5, 1e300,
                 math.inf, -math.inf, math.nan):
        assert PriceGrid(tick).to_ticks_array(np.array(near + [past, 1.0])) is None


@pytest.mark.parametrize("tick", [5e-324, 1e-310])
def test_to_ticks_array_declines_a_subnormal_tick(tick):
    # every quotient of a subnormal tick is NaN on the float path
    assert PriceGrid(tick).to_ticks_array(np.array([0.0, tick, 1.0])) is None


def test_to_ticks_array_of_no_values():
    got = PriceGrid(0.1).to_ticks_array(np.empty(0))
    assert got.dtype == np.int64 and got.size == 0


@settings(max_examples=300)
@given(st.sampled_from(TICKS),
       st.lists(st.one_of(st.floats(-1e9, 1e9),
                          st.integers(-10**6, 10**6).map(lambda k: k + 0.5)),
                max_size=40))
def test_to_ticks_array_matches_to_ticks_on_any_batch(tick, values):
    assert_array_rounds_like_scalar(tick, [value * tick if abs(value) <= 10**6 + 1 else value
                                           for value in values])


@pytest.mark.parametrize(("value", "nearest", "down", "up"), [
    (99.55, 9955, 9955, 9955),
    (99.67, 9967, 9967, 9967),
    (-99.55, -9955, -9955, -9955),
    (0.005, 1, 0, 1),
    (-0.005, -1, -1, 0),
])
def test_golden_cent_grid(value, nearest, down, up):
    grid = PriceGrid(0.01)
    assert (grid.to_ticks(value), grid.to_ticks_down(value), grid.to_ticks_up(value)) == (
        nearest, down, up)
    assert_rounds_like_oracle(0.01, value)


@pytest.mark.parametrize("tick", TICKS + (1e16, 0.123456789, 5e-324))
def test_decimals_and_format_match_decimal(tick):
    grid, oracle = PriceGrid(tick), DecimalGrid(tick)
    assert grid._decimals == oracle.decimals
    counts = list(range(-1200, 1201)) + [10**k + j for k in range(3, 33) for j in (-1, 1)]
    for ticks in counts + [-t for t in counts]:
        assert grid.format(ticks) == oracle.format(ticks), (tick, ticks)


@pytest.mark.parametrize(("tick", "decimals", "cases"), [
    (0.01, 2, {5: "0.05", -5: "-0.05", 0: "0.00", -120: "-1.20", 9955: "99.55"}),
    (1e-7, 7, {3: "0.0000003", -3: "-0.0000003"}),
    (0.25, 2, {-1: "-0.25", 3: "0.75"}),
    (1.0, 0, {-7: "-7", 0: "0"}),
    (100.0, 0, {-7: "-700", 3: "300"}),
])
def test_format_pads_and_signs(tick, decimals, cases):
    grid = PriceGrid(tick)
    assert grid._decimals == decimals
    for ticks, text in cases.items():
        assert grid.format(ticks) == text


@pytest.mark.parametrize("tick", [0.1, 0.01, 1.0, 100.0, 1e16])
def test_tick_strings_format_each_tick_once(tick, monkeypatch):
    grid, original, calls = PriceGrid(tick), PriceGrid.format, []

    def counting_format(self, ticks):
        calls.append(ticks)
        return original(self, ticks)

    monkeypatch.setattr(PriceGrid, "format", counting_format)
    prices = TickStrings(grid)
    queries = [0, 7, -7, 10**20, 7, 0, 3, -7, 10**20] * 3
    assert [prices[t] for t in queries] == [original(grid, t) for t in queries]
    assert sorted(calls) == sorted(set(queries))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises_like_decimal(value):
    for tick in TICKS:
        grid, oracle = PriceGrid(tick), DecimalGrid(tick)
        for name in METHODS:
            expected = outcome(getattr(oracle, name), value)
            assert isinstance(expected, type) and issubclass(expected, Exception)
            with pytest.raises(expected):
                getattr(grid, name)(value)


@pytest.mark.parametrize("tick", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_bad_tick_size_rejected(tick):
    with pytest.raises(ValueError, match="tick_size"):
        PriceGrid(tick)


def test_value_semantics_unchanged():
    assert PriceGrid(0.1) == PriceGrid(0.1)
    assert PriceGrid(0.1) != PriceGrid(0.01)
    assert hash(PriceGrid(0.25)) == hash(PriceGrid(0.25))
    assert repr(PriceGrid(0.25)) == "PriceGrid(tick_size=0.25)"
