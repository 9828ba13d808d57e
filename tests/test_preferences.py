import numpy as np
import pytest

from cdasim.agents import ZiParams
from cdasim.preferences import HoldingsLimitError, PrivateValues

from conftest import settled_payoff


EXAMPLE = PrivateValues(q_max=3, values=(0.5, 0.3, 0.2, 0.1, -0.2, -0.4))


def test_worked_example_valuations():
    r_hat = 100.0
    # holdings 0: next unit bought is +1, next unit sold is 0
    assert EXAMPLE.buy_valuation(0, r_hat) == pytest.approx(100.1)
    assert EXAMPLE.sell_valuation(0, r_hat) == pytest.approx(100.2)
    # short two units
    assert EXAMPLE.buy_valuation(-2, r_hat) == pytest.approx(100.3)
    assert EXAMPLE.sell_valuation(-2, r_hat) == pytest.approx(100.5)
    # long two units
    assert EXAMPLE.buy_valuation(2, r_hat) == pytest.approx(99.6)
    assert EXAMPLE.sell_valuation(2, r_hat) == pytest.approx(99.8)


def test_theta_index_offset():
    # values[0] belongs to unit index -q_max + 1, values[-1] to q_max
    assert EXAMPLE.theta(-2) == 0.5
    assert EXAMPLE.theta(3) == -0.4
    assert EXAMPLE.theta(0) == 0.2
    assert EXAMPLE.theta(1) == 0.1


def test_theta_out_of_range():
    with pytest.raises(HoldingsLimitError, match=r"^unit index -3 outside \[-2, 3\]$"):
        EXAMPLE.theta(-3)
    with pytest.raises(HoldingsLimitError, match=r"^unit index 4 outside \[-2, 3\]$"):
        EXAMPLE.theta(4)
    # the lower bound is 1 - q_max, printed without a stray sign at q_max = 1
    with pytest.raises(HoldingsLimitError, match=r"^unit index 2 outside \[0, 1\]$"):
        PrivateValues(q_max=1, values=(0.5, -0.5)).theta(2)


def test_buy_never_valued_above_sell_at_same_holdings():
    # descending entries mean the marginal unit bought is worth no more
    # than the marginal unit sold
    rng = np.random.default_rng(2)
    for _ in range(100):
        pv = PrivateValues.draw(q_max=5, sigma_pv_sq=25.0, rng=rng)
        for q in range(-4, 5):
            assert pv.buy_valuation(q, 100.0) <= pv.sell_valuation(q, 100.0)


def test_draw_is_sorted_descending(rng):
    for _ in range(50):
        pv = PrivateValues.draw(q_max=8, sigma_pv_sq=9.0, rng=rng)
        assert len(pv.values) == 16
        assert all(a >= b for a, b in zip(pv.values, pv.values[1:]))


def test_draw_moments_monte_carlo():
    # pooled entries are N(0, sigma_pv_sq) before sorting; pooling across
    # many agents recovers the mean and variance
    rng = np.random.default_rng(9)
    pooled = []
    for _ in range(5000):
        pv = PrivateValues.draw(q_max=4, sigma_pv_sq=25.0, rng=rng)
        pooled.extend(pv.values)
    pooled = np.array(pooled)
    assert pooled.mean() == pytest.approx(0.0, abs=0.1)
    assert pooled.var() == pytest.approx(25.0, rel=0.03)


def test_valuations_shift_with_fundamental_estimate():
    for q in range(-2, 3):
        base = EXAMPLE.buy_valuation(q, 100.0)
        assert EXAMPLE.buy_valuation(q, 107.5) == pytest.approx(base + 7.5)


def test_realized_sums_the_units_held():
    # the settlement oracle sums theta unit by unit; holdings past q_max
    # realize only the first q_max units
    for pv in (EXAMPLE, PrivateValues(q_max=1, values=(2.5, -1.5))):
        for q in range(-pv.q_max - 3, pv.q_max + 4):
            assert pv.realized(q) == settled_payoff(0.0, q, 0.0, pv.values), (pv, q)
    assert EXAMPLE.realized(2) == 0.1 + -0.2
    assert EXAMPLE.realized(-5) == -(0.5 + 0.3 + 0.2)


def test_holdings_limits():
    # an agent may buy below q_max and sell above -q_max: the unit past
    # either limit has no private value
    assert EXAMPLE.buy_valuation(2, 0.0) == -0.4
    with pytest.raises(HoldingsLimitError):
        EXAMPLE.buy_valuation(3, 0.0)
    assert EXAMPLE.sell_valuation(-2, 0.0) == 0.5
    with pytest.raises(HoldingsLimitError):
        EXAMPLE.sell_valuation(-3, 0.0)


def test_validation():
    with pytest.raises(ValueError, match="q_max"):
        PrivateValues(q_max=0, values=())
    with pytest.raises(ValueError, match="2 \\* q_max"):
        PrivateValues(q_max=2, values=(1.0, 0.5, 0.0))
    # draw takes its arguments from ZiParams, which owns their rules
    with pytest.raises(ValueError, match="sigma_pv_sq"):
        ZiParams(r_min=0.0, r_max=1.0, eta=0.5, sigma_n_sq=1.0, q_max=2, sigma_pv_sq=-1.0)
    with pytest.raises(ValueError, match="q_max"):
        ZiParams(r_min=0.0, r_max=1.0, eta=0.5, sigma_n_sq=1.0, q_max=0, sigma_pv_sq=1.0)


def test_zero_variance_draw():
    pv = PrivateValues.draw(q_max=3, sigma_pv_sq=0.0, rng=np.random.default_rng(0))
    assert pv.values == (0.0,) * 6
