import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdasim import fundamental
from cdasim.fundamental import (
    FUNDAMENTAL_STREAM,
    MEGASHOCK_ARRIVALS_STREAM,
    MEGASHOCK_SIZES_STREAM,
    DmrFundamental,
    DmrParams,
    FileFundamental,
    FileParams,
    MegashockFundamental,
    MegashockParams,
    OuFundamental,
    OuParams,
    dmr_series,
    ou_mean_var,
)
from cdasim import estimator as est
from cdasim.cli import build_config, emit_outputs, parse_config, run_one
from cdasim.kernel import run
from cdasim.prices import PriceGrid
from cdasim.rng import child_stream
from conftest import load_bench
from reference_run import ScalarFile, ScalarOu, dmr_path, dmr_step, scalar_dmr_series


# ---------------------------------------------------------------------------
# discrete mean reverting
# ---------------------------------------------------------------------------


def test_dmr_zero_noise_stays_at_mean(grid_01):
    params = DmrParams(r_bar=100.0, kappa=0.3, sigma_s_sq=0.0)
    fund = DmrFundamental(params, grid_01, seed=1, horizon_T=50)
    assert all(fund.value_at(t) == 1000 for t in range(51))


def test_dmr_contraction_toward_mean():
    # noiseless steps from 200.0, away from the mean of 100.0
    grid = PriceGrid(0.01)
    params = DmrParams(r_bar=100.0, kappa=0.2, sigma_s_sq=0.0)
    series = [grid.to_ticks(200.0)]
    for _ in range(60):
        series.append(dmr_step(series[-1], params, 0.0, grid.tick_size)[0])
    prev_gap = series[0] - 10000
    for value in series[1:]:
        gap = value - 10000
        assert 0 <= gap <= prev_gap
        if prev_gap > 10:  # strict until rounding pins the gap near zero
            assert gap < prev_gap
        prev_gap = gap
    # geometric rate: gap after one step is 0.8 of the previous (to the tick)
    assert series[1] == grid.to_ticks(100.0 + 0.8 * 100.0)


def test_dmr_query_bounds(grid_01):
    fund = DmrFundamental(DmrParams(100.0, 0.05, 1.0), grid_01, seed=1, horizon_T=10)
    with pytest.raises(ValueError, match="beyond horizon"):
        fund.value_at(11)
    with pytest.raises(ValueError):
        fund.value_at(-1)


def test_dmr_params_validation():
    with pytest.raises(ValueError, match="kappa"):
        DmrParams(100.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="sigma_s_sq"):
        DmrParams(100.0, 0.5, -1.0)
    # 1 - kappa is 1.0 up to 2**-54, which would make the estimator's
    # variance weight 1 - (1-kappa)**2 zero; kappa 0 takes the random-walk limit
    for kappa in (5e-324, 1e-20, 5e-17, 2.0 ** -54):
        with pytest.raises(ValueError, match="^kappa = .* too small"):
            DmrParams(100.0, kappa, 1.0)
    for kappa in (0.0, math.nextafter(2.0 ** -54, 1.0), 5.6e-17):
        assert DmrParams(100.0, kappa, 1.0).kappa == kappa


def test_dmr_step_rounding():
    # ties round half up on the grid
    params = DmrParams(r_bar=100.0, kappa=0.0, sigma_s_sq=0.0)
    assert dmr_step(1000, params, 0.05, 0.1)[0] == 1001
    assert dmr_step(1000, params, -0.05, 0.1)[0] == 1000
    assert dmr_step(1000, params, -200.0, 0.1)[0] == 0


def test_dmr_series_ties_and_floor():
    # 100 + 0.5 and 101 - 0.5 land on the half-tick 100.5, which the float
    # guard sends to the Decimal rounding (half up); 101 - 250.5 floors at 0
    params = DmrParams(r_bar=100.0, kappa=0.0, sigma_s_sq=1.0)
    shocks = np.array([0.5, -0.5, -250.5, 7.25])
    assert dmr_series(params, PriceGrid(1.0), shocks) == [100, 101, 101, 0, 7]


@settings(max_examples=200)
# a long series at cent ticks, near zero, that floors often
@example(r_bar=0.5, kappa=0.01, sigma_s_sq=4.0, tick_size=0.01, seed=1000014,
         horizon_T=2000, ties=False)
@given(r_bar=st.floats(0.0, 500.0),
       # DmrParams refuses a kappa with 1 - kappa == 1.0 but 0
       kappa=st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 1.0).map(lambda k: k if 1.0 - k < 1.0 else 0.0)),
       sigma_s_sq=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
       tick_size=st.sampled_from([0.01, 0.1, 0.25, 1.0]),
       seed=st.integers(0, 2**32), horizon_T=st.integers(1, 300),
       ties=st.booleans())
def test_dmr_value_at_matches_step_oracle(r_bar, kappa, sigma_s_sq, tick_size, seed,
                                          horizon_T, ties):
    grid = PriceGrid(tick_size)
    params = DmrParams(r_bar, kappa, sigma_s_sq)
    fund = DmrFundamental(params, grid, seed=seed, horizon_T=horizon_T)
    shocks = child_stream(seed, FUNDAMENTAL_STREAM).normal(
        0.0, math.sqrt(sigma_s_sq), size=horizon_T)
    if ties:  # shocks on the half-tick lattice, so steps land on ties and on zero
        shocks = np.round(shocks / (tick_size / 2)) * (tick_size / 2)
    oracle, _ = dmr_path(params, tick_size, shocks)
    assert dmr_series(params, grid, shocks) == oracle
    if not ties:  # the source steps its own stream's shocks through the same seam
        assert fund.value_at(horizon_T // 2) == oracle[horizon_T // 2]
        assert fund.value_at(horizon_T) == oracle[horizon_T]
        assert fund.evaluations() == list(enumerate(oracle))


# the shortest horizon that dmr_series builds in blocks, and horizons just
# under, at and over it and a later block multiple
BLOCK_THRESHOLD = fundamental._BLOCK * fundamental._MIN_BLOCKS
BLOCK_HORIZONS = [BLOCK_THRESHOLD + offset
                  for offset in (-1, 0, 1, 3 * fundamental._BLOCK - 1,
                                 3 * fundamental._BLOCK, 3 * fundamental._BLOCK + 1)]


@settings(max_examples=60)
@given(kappa=st.sampled_from([0.0, 1e-5, 0.003, 0.01, 0.05, 0.5, 1.0]),
       sigma_s_sq=st.sampled_from([0.0, 0.25, 1.0, 4.0]),
       tick_size=st.sampled_from([0.01, 0.1, 0.25, 1.0]),
       horizon_T=st.sampled_from(BLOCK_HORIZONS), seed=st.integers(0, 2**32))
def test_dmr_blocks_match_scalar_draws(kappa, sigma_s_sq, tick_size, horizon_T, seed):
    # whichever path each series takes, it is the one-draw-a-step series
    grid = PriceGrid(tick_size)
    params = DmrParams(100.0, kappa, sigma_s_sq)
    fund = DmrFundamental(params, grid, seed=seed, horizon_T=horizon_T)
    assert fund.evaluations() == scalar_dmr_series(params, tick_size, seed, horizon_T)


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_dmr_blocks_on_half_tick_ties(kappa):
    # r_bar at an odd tick and shocks on the half-tick lattice: steps land
    # on exact half ticks inside the blocks, which the Decimal rule rounds up
    grid = PriceGrid(1.0)
    params = DmrParams(101.0, kappa, 1.0)
    shocks = child_stream(3, FUNDAMENTAL_STREAM).normal(0.0, 1.0, size=BLOCK_THRESHOLD + 100)
    shocks = np.round(shocks * 2) / 2
    values, reals = dmr_path(params, 1.0, shocks)
    ties = [t for t, real in enumerate(reals) if real > 0 and real % 1.0 == 0.5]
    assert len(ties) > 100 and ties[-1] > BLOCK_THRESHOLD // 2
    assert dmr_series(params, grid, shocks) == values


@pytest.mark.parametrize("r_bar, sigma_s_sq", [
    (2.5e8, 1.0),  # every price past 2**31 ticks of 0.1
    ((2**31 - 40) * 0.1, 100.0),  # prices that cross 2**31 ticks and back
])
def test_dmr_blocks_past_the_float_range(r_bar, sigma_s_sq):
    grid = PriceGrid(0.1)
    params = DmrParams(r_bar, 0.05, sigma_s_sq)
    shocks = child_stream(5, FUNDAMENTAL_STREAM).normal(
        0.0, math.sqrt(sigma_s_sq), size=BLOCK_THRESHOLD + 1)
    values, _ = dmr_path(params, 0.1, shocks)
    assert max(values) >= 2**31
    assert dmr_series(params, grid, shocks) == values


def test_dmr_blocks_hand_a_settled_prefix_to_the_step_loop():
    # one shock lifts a step to just under 2**31 ticks from r_bar's tick,
    # the first pass's guess, and past it from the true value, so a later
    # pass leaves the float range; the step loop goes on from the blocks
    # that had settled by then
    grid = PriceGrid(0.1)
    params = DmrParams(100.0, 0.5, 1.0)
    shocks = child_stream(7, FUNDAMENTAL_STREAM).normal(0.0, 1.0, size=BLOCK_THRESHOLD)
    at = 40 * fundamental._BLOCK  # the first step of block 40
    true_start = dmr_path(params, 0.1, shocks[:at])[0][-1]
    assert true_start > 1000
    shocks[at] = (2**31 - 0.5) * 0.1 - (50.0 + 0.5 * grid.to_value(1000)) - 0.01
    values, _ = dmr_path(params, 0.1, shocks)
    assert values[at + 1] >= 2**31 > grid.to_ticks(50.0 + 0.5 * grid.to_value(1000) + shocks[at])
    prefix = fundamental._dmr_blocks(params, grid, shocks)
    assert 1 < len(prefix) < at and prefix == values[:len(prefix)]
    assert dmr_series(params, grid, shocks) == values


def test_dmr_series_takes_the_block_path_where_it_pays(monkeypatch):
    # desk's DMR series is built in blocks; a kappa of 0 and prices past the
    # float range are left to the step loop
    calls = []
    to_ticks_array = PriceGrid.to_ticks_array

    def spy(grid, values):
        got = to_ticks_array(grid, values)
        calls.append(got)
        return got

    monkeypatch.setattr(PriceGrid, "to_ticks_array", spy)
    desk = build_config(parse_config(load_bench("workloads").WORKLOADS["desk"]["ini"]))
    assert (desk.fundamental.kappa, desk.horizon_T) == (0.05, 30000)
    grid = PriceGrid(desk.tick_size)
    fund = desk.fundamental.source(grid, 11, desk.horizon_T, ())
    assert calls and len(calls) % fundamental._BLOCK == 0
    assert all(got is not None for got in calls)
    assert fund.evaluations() == scalar_dmr_series(desk.fundamental, desk.tick_size, 11,
                                                   desk.horizon_T)

    calls.clear()
    DmrParams(100.0, 0.0, 1.0).source(grid, 11, desk.horizon_T, ())
    assert calls == []
    DmrParams(1e9, 0.05, 1.0).source(grid, 11, desk.horizon_T, ())
    assert [got is None for got in calls] == [True]


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck
# ---------------------------------------------------------------------------


def test_ou_mean_var_limits():
    params = OuParams(mu=100.0, gamma=0.05, sigma_sq=2.0, q0=80.0)
    mean, var = ou_mean_var(80.0, 1e9, params)
    assert mean == pytest.approx(100.0)
    assert var == pytest.approx(2.0 / (2 * 0.05))
    mean, var = ou_mean_var(80.0, 1e-9, params)
    assert mean == pytest.approx(80.0, abs=1e-6)
    assert var == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        ou_mean_var(80.0, 0.0, params)


def test_ou_mean_var_composition_is_exact():
    # conditional moments over (0, t1] then (t1, t2] compose to those over (0, t2]
    rng = np.random.default_rng(21)
    for _ in range(200):
        params = OuParams(
            mu=rng.uniform(50, 150),
            gamma=rng.uniform(0.01, 1.0),
            sigma_sq=rng.uniform(0.1, 5.0),
            q0=0.0,
        )
        q0 = rng.uniform(50, 150)
        t1 = rng.uniform(0.5, 10.0)
        t2 = t1 + rng.uniform(0.5, 10.0)
        m1, v1 = ou_mean_var(q0, t1, params)
        m12, v12 = ou_mean_var(m1, t2 - t1, params)
        decay = math.exp(-params.gamma * (t2 - t1))
        m_direct, v_direct = ou_mean_var(q0, t2, params)
        assert m12 == pytest.approx(m_direct, rel=1e-12)
        assert decay * decay * v1 + v12 == pytest.approx(v_direct, rel=1e-12)


def test_ou_zero_volatility_decays_to_mean(grid_001):
    params = OuParams(mu=100.0, gamma=0.5, sigma_sq=0.0, q0=150.0)
    fund = OuFundamental(params, grid_001, seed=1, horizon_T=20, reads=[1, 5])
    for t in (1, 5, 20):
        expected = 100.0 + 50.0 * math.exp(-0.5 * t)
        assert fund.value_at(t) == grid_001.to_ticks(expected)


def test_ou_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        OuParams(100.0, 0.0, 1.0, 100.0)
    with pytest.raises(ValueError, match="sigma_sq"):
        OuParams(100.0, 0.1, -1.0, 100.0)
    # 1 - exp(-gamma) is 0.0 up to 2**-54, which would make the belief
    # model's kappa 0 and the OU variance sigma_sq / (2 gamma) * 0 NaN or 0
    for gamma in (1e-310, 1e-200, 2.0 ** -54):
        with pytest.raises(ValueError, match="gamma .* too small"):
            OuParams(100.0, gamma, 1.0, 100.0)
    _, kappa, sigma_s_sq = OuParams(100.0, math.nextafter(2.0 ** -54, 1.0), 1.0,
                                    100.0).belief_model()
    assert kappa > 0.0 and sigma_s_sq > 0.0


def test_estimator_finite_at_smallest_accepted_gamma():
    # at 2**-54 itself 1 - kappa rounds to 1 and advance's variance weight
    # divides by 0; one step above, every belief stays finite
    gamma = math.nextafter(2.0 ** -54, 1.0)
    horizon = 10 ** 6
    ep = est.EstimatorParams(*OuParams(100.0, gamma, 1.0, 100.0).belief_model(),
                             sigma_n_sq=10.0, horizon_T=horizon)
    belief = est.initial_belief(ep)
    for now in (1, 2, 1000, horizon):
        belief = est.advance(belief, now, ep)
        assert math.isfinite(belief.r_tilde) and math.isfinite(belief.sigma_tilde_sq)
        assert belief.sigma_tilde_sq > 0.0
        belief = est.observe(belief, 101.0, ep)
        assert math.isfinite(est.project_final(belief, ep))


# ---------------------------------------------------------------------------
# megashock OU
# ---------------------------------------------------------------------------


def make_ms_params(arrival_rate=0.2, shock_mean=40.0, shock_var=50.0):
    ou = OuParams(mu=100.0, gamma=0.05, sigma_sq=2.0, q0=100.0)
    return MegashockParams(ou=ou, arrival_rate=arrival_rate,
                           shock_mean=shock_mean, shock_var=shock_var)


def test_megashock_degenerates_to_ou(grid_01):
    # with a vanishing arrival rate no shock ever lands inside the horizon,
    # and the OU draws come from the same child stream
    params = make_ms_params(arrival_rate=1e-12)
    reads = [3, 10, 48]
    ms = MegashockFundamental(params, grid_01, seed=11, horizon_T=200, reads=reads)
    ou = OuFundamental(params.ou, grid_01, seed=11, horizon_T=200, reads=reads)
    for t in (3, 10, 48, 200):
        assert ms.value_at(t) == ou.value_at(t)


def test_megashock_two_shock_hand_unrolled_oracle(grid_01):
    # seed 0 at rate 0.2 puts exactly two arrivals inside (0, 10]; replay
    # the documented draw order by hand, straight-line, no loops
    params = make_ms_params(arrival_rate=0.2)
    arrivals = child_stream(0, MEGASHOCK_ARRIVALS_STREAM)
    a1 = arrivals.exponential(5.0)
    a2 = a1 + arrivals.exponential(5.0)
    assert 0.0 < a1 < a2 <= 10.0
    assert a2 + arrivals.exponential(5.0) > 10.0

    fund_rng = child_stream(0, FUNDAMENTAL_STREAM)
    sizes = child_stream(0, MEGASHOCK_SIZES_STREAM)

    mean, var = ou_mean_var(100.0, a1, params.ou)
    state = mean + math.sqrt(var) * fund_rng.standard_normal()
    sign1 = 1.0 if sizes.random() < 0.5 else -1.0
    state = max(0.0, state + sizes.normal(sign1 * 40.0, math.sqrt(50.0)))

    mean, var = ou_mean_var(state, a2 - a1, params.ou)
    state = mean + math.sqrt(var) * fund_rng.standard_normal()
    sign2 = 1.0 if sizes.random() < 0.5 else -1.0
    state = max(0.0, state + sizes.normal(sign2 * 40.0, math.sqrt(50.0)))

    mean, var = ou_mean_var(state, 10.0 - a2, params.ou)
    state = mean + math.sqrt(var) * fund_rng.standard_normal()
    expected = max(0, grid_01.to_ticks(state))

    ms = MegashockFundamental(params, grid_01, seed=0, horizon_T=10, reads=[])
    assert ms.value_at(10) == expected


def test_megashock_shocks_are_zero_mean_on_average(grid_01):
    # shocks are symmetric around zero, so the cross-seed mean at a fixed
    # time matches the plain OU conditional mean; mu is large enough that
    # the floor at zero never binds
    ou = OuParams(mu=500.0, gamma=0.05, sigma_sq=2.0, q0=500.0)
    params = MegashockParams(ou=ou, arrival_rate=0.2, shock_mean=40.0, shock_var=50.0)
    finals = []
    for seed in range(400):
        ms = MegashockFundamental(params, grid_01, seed=seed, horizon_T=50, reads=[])
        finals.append(ms.value_at(50) * 0.1)
    finals = np.array(finals)
    assert finals.min() > 0.0
    sem = finals.std() / math.sqrt(len(finals))
    assert abs(finals.mean() - 500.0) < 4.0 * sem


def test_megashock_params_validation():
    ou = OuParams(mu=100.0, gamma=0.05, sigma_sq=2.0, q0=100.0)
    with pytest.raises(ValueError, match="arrival_rate"):
        MegashockParams(ou, 0.0, 40.0, 50.0)
    with pytest.raises(ValueError, match="shock_mean"):
        MegashockParams(ou, 0.001, -40.0, 50.0)
    with pytest.warns(UserWarning, match="shock_var"):
        MegashockParams(ou, 0.001, 40.0, 1.0)


# ---------------------------------------------------------------------------
# file-backed series
# ---------------------------------------------------------------------------


SAMPLE = """timestamp,value
0,100.0
5,101.3
12,99.8
"""


def test_file_step_interpolation(grid_01):
    series = FileFundamental.from_text(SAMPLE, grid_01).series
    fund = FileFundamental(series, grid_01, horizon_T=1000, reads=[3, 5, 11, 12])
    assert fund.value_at(0) == 1000
    assert fund.value_at(3) == 1000
    assert fund.value_at(5) == 1013
    assert fund.value_at(11) == 1013
    assert fund.value_at(12) == 998
    assert fund.value_at(1000) == 998  # holds after the last row


def test_file_header_is_optional(grid_01):
    no_header = FileFundamental.from_text("0,100.0\n5,101.3\n", grid_01)
    assert no_header.series == [(0, 1000), (5, 1013)]


def test_file_before_first_timestamp(grid_01):
    # a series, from a file or built by hand, starts at 0
    with pytest.raises(ValueError, match="starts at timestamp 3, not 0"):
        FileFundamental.from_text("3,100.0\n", grid_01)
    with pytest.raises(ValueError, match="starts at timestamp 3, not 0"):
        FileFundamental([(3, 1000), (8, 1200)], grid_01, horizon_T=10, reads=[1, 2, 5])


def test_file_trace_starts_at_zero(grid_01):
    # like the generated series, the trace holds the value at 0 and one row per read time
    fund = FileFundamental.from_text(SAMPLE, grid_01)
    assert fund.evaluations() == [(0, 1000)]
    fund = FileFundamental(fund.series, grid_01, horizon_T=7, reads=[7, 7])
    assert fund.evaluations() == [(0, 1000), (7, 1013)]


def test_file_parse_errors(grid_01):
    with pytest.raises(ValueError, match="line 3"):
        FileFundamental.from_text("0,100.0\n1,101.0\n2,abc\n", grid_01)
    with pytest.raises(ValueError, match="line 2"):
        FileFundamental.from_text("0,100.0\n1\n", grid_01)
    with pytest.raises(ValueError, match="strictly increasing"):
        FileFundamental.from_text("0,100.0\n0,101.0\n", grid_01)
    with pytest.raises(ValueError, match="integer"):
        FileFundamental.from_text("0,100.0\n1.5,101.0\n", grid_01)
    with pytest.raises(ValueError, match="no data"):
        FileFundamental.from_text("timestamp,value\n", grid_01)
    with pytest.raises(ValueError, match="line 2: values must be >= 0"):
        FileFundamental.from_text("0,5.0\n10,-3.0\n", grid_01)
    # a non-finite timestamp or value (1e400 parses as inf) is named by its line
    for row in ("5,inf", "5,nan", "5,1e400", "inf,100.0", "nan,100.0"):
        with pytest.raises(ValueError, match="line 2: timestamp and value must be finite"):
            FileFundamental.from_text(f"0,100.0\n{row}\n", grid_01)
    # a value that rounds to 0 ticks is not below 0
    assert FileFundamental.from_text("0,-0.04\n", grid_01).series == [(0, 0)]


def test_dump_and_reload_round_trip(tmp_path, grid_01):
    # the fundamental.csv a run writes replays the series it was made from
    params = DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0)
    fund = DmrFundamental(params, grid_01, seed=4, horizon_T=40)
    original = [fund.value_at(t) for t in range(41)]
    run_one(parse_config("[fundamental]\nr_bar = 100.0\nkappa = 0.05\nsigma_s_sq = 1.0\n"
                         "[market]\nhorizon = 40\ntick_size = 0.1\nseed = 4\n"),
            str(tmp_path))
    reloaded = FileParams(str(tmp_path / "fundamental.csv"), DmrParams(100.0, 0.05, 1.0)).source(
        grid_01, 4, 40, range(41))
    assert [reloaded.value_at(t) for t in range(41)] == original


ROUND_TRIP_FUNDAMENTALS = {
    "dmr": "variant = dmr\n",
    "ou": "variant = ou\nsigma_sq = 4.0\n",
    "megashock": "variant = megashock\nshock_arrival_rate = 0.02\n",
    "file": "variant = file\npath = {series}\n",
}


@pytest.mark.parametrize("variant", sorted(ROUND_TRIP_FUNDAMENTALS))
def test_written_series_reloads_through_file_variant(tmp_path, variant):
    # every variant's fundamental.csv starts at 0 and loads back, through the
    # file variant's config check, to the series the run evaluated
    series = tmp_path / "series.csv"
    series.write_text("0,5.0\n10,7.0\n")
    market = ("[market]\nhorizon = 200\nseed = 3\n"
              "[agents]\nzi_count = 5\nhbl_count = 0\narrival_rate = 0.1\n")
    fundamental = ROUND_TRIP_FUNDAMENTALS[variant].format(series=series)
    resolved = parse_config("[fundamental]\n" + fundamental + market)
    result = run(build_config(resolved))
    emit_outputs(result, resolved, str(tmp_path / "run"))
    dump = tmp_path / "run" / "fundamental.csv"
    config = build_config(parse_config(f"[fundamental]\nvariant = file\npath = {dump}\n"
                                       + market))
    reloaded = config.fundamental.source(result.grid, config.master_seed, config.horizon_T, ())
    assert reloaded.series == result.fundamental_trace
    assert reloaded.series[0][0] == 0 and reloaded.series[-1][0] == 200


# ---------------------------------------------------------------------------
# the sparse sources against the reference run's scalar ones
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stepped_series(tmp_path_factory):
    """A series file whose steps stop before the longest horizon drawn below."""
    path = tmp_path_factory.mktemp("series") / "fund.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"{t},{100.0 + ((t * 7919) % 13 - 6) * 0.35:.2f}\n" for t in range(0, 301, 11)))
    return path


@st.composite
def read_times(draw):
    """A horizon and the nondecreasing times a run reads before it: repeats,
    gaps of every size, and sometimes one or more reads at the horizon."""
    horizon = draw(st.integers(1, 400))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5, 17, 60]), max_size=40))
    start = draw(st.integers(0, 3))
    reads = [t for t in itertools.accumulate(gaps, initial=start) if t < horizon]
    return horizon, reads + [horizon] * draw(st.sampled_from([0, 0, 1, 2]))


@settings(max_examples=200)
@given(variant=st.sampled_from(["ou", "megashock", "file"]), times=read_times(),
       arrival_rate=st.sampled_from([0.005, 0.05, 0.5]),
       tick_size=st.sampled_from([0.01, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_sparse_sources_equal_scalar_reads(variant, times, arrival_rate, tick_size, seed,
                                           stepped_series):
    # built from the read times, each sparse source holds what the scalar
    # source gives when it is read at those times and then at the horizon
    horizon, reads = times
    ou = OuParams(mu=100.0, gamma=0.05, sigma_sq=2.0, q0=95.0)
    if variant == "ou":
        params, scalar = ou, ScalarOu(ou, tick_size, seed)
    elif variant == "megashock":
        params = MegashockParams(ou=ou, arrival_rate=arrival_rate, shock_mean=8.0,
                                 shock_var=4.0)
        scalar = ScalarOu(params, tick_size, seed)
    else:
        params = FileParams(str(stepped_series), DmrParams(100.0, 0.05, 1.0))
        scalar = ScalarFile(str(stepped_series), tick_size)
    source = params.source(PriceGrid(tick_size), seed, horizon, reads)
    assert [source.value_at(t) for t in reads] == [scalar.value_at(t) for t in reads]
    assert source.value_at(horizon) == scalar.value_at(horizon)
    assert source.evaluations() == scalar.trace


# ---------------------------------------------------------------------------
# each params type's series and belief model
# ---------------------------------------------------------------------------


BASE_OU = OuParams(mu=100.0, gamma=0.2, sigma_sq=3.0, q0=90.0)


def test_belief_model_dmr_passthrough():
    assert DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0).belief_model() == (100.0, 0.05, 1.0)


def test_belief_model_ou_matches_unit_step_moments():
    r_bar, kappa, sigma_s_sq = BASE_OU.belief_model()
    assert kappa == pytest.approx(1.0 - math.exp(-0.2))
    # advancing the belief one step reproduces the OU conditional moments
    ep = est.EstimatorParams(r_bar, kappa, sigma_s_sq, sigma_n_sq=10.0, horizon_T=2000)
    belief = est.BeliefState(r_tilde=90.0, sigma_tilde_sq=0.0, last_wake=0)
    advanced = est.advance(belief, 1, ep)
    mean, var = ou_mean_var(90.0, 1.0, BASE_OU)
    assert advanced.r_tilde == pytest.approx(mean, rel=1e-12)
    assert advanced.sigma_tilde_sq == pytest.approx(var, rel=1e-12)


def test_belief_model_megashock_uses_base_ou():
    ms = MegashockParams(ou=BASE_OU, arrival_rate=0.001, shock_mean=40.0, shock_var=50.0)
    assert ms.belief_model() == BASE_OU.belief_model()


def test_belief_model_file_variant(tmp_path):
    # the file says nothing about its process: the model is the one given
    path = tmp_path / "fund.csv"
    path.write_text("0,100.0\n10,101.0\n")
    assert FileParams(str(path), DmrParams(100.0, 0.05, 1.0)).belief_model() == (100.0, 0.05, 1.0)


def test_source_builds_each_variant(tmp_path, grid_01):
    path = tmp_path / "fund.csv"
    path.write_text("0,100.0\n10,101.0\n")
    ms = MegashockParams(ou=BASE_OU, arrival_rate=0.001, shock_mean=40.0, shock_var=50.0)
    reads = [4, 4, 20]
    for params, cls in ((DmrParams(100.0, 0.05, 1.0), DmrFundamental),
                        (BASE_OU, OuFundamental), (ms, MegashockFundamental)):
        fund = params.source(grid_01, 3, 50, reads)
        assert type(fund) is cls
        assert (fund.params, fund.grid, fund.seed, fund.horizon_T) == (params, grid_01, 3, 50)
    file_params = FileParams(str(path), DmrParams(100.0, 0.05, 1.0))
    a, b = file_params.source(grid_01, 3, 50, reads), file_params.source(grid_01, 3, 50, ())
    assert type(a) is FileFundamental
    assert a.series == b.series == [(0, 1000), (10, 1010)]
    assert a.evaluations() == [(0, 1000), (4, 1000), (20, 1010), (50, 1010)]
    assert b.evaluations() == [(0, 1000), (50, 1010)]
