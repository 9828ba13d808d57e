"""Every params type owns the domain of its float fields: NaN, both
infinities and an out-of-range value each raise a ``ValueError`` whose
first word is the field, which the CLI maps to the field's INI key.  A
file series' estimator fields are those of its ``DmrParams`` model, so the
file variant's belief model has the discrete variant's domain."""

import dataclasses
import math

import pytest

from cdasim.agents import ZiParams
from cdasim.fundamental import DmrParams, FileParams, MegashockParams, OuParams
from cdasim.kernel import SimConfig
from cdasim.prices import PriceGrid

OU = OuParams(mu=100.0, gamma=0.05, sigma_sq=1.0, q0=100.0)
ZI = ZiParams(r_min=0.0, r_max=1.0, eta=1.0, sigma_n_sq=10.0, q_max=10, sigma_pv_sq=25.0)

# A valid instance of each params type, and for each float field a finite
# value outside its domain (None where every finite value is valid).
CASES = [
    (DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0),
     {"r_bar": -1.0, "kappa": 1.5, "sigma_s_sq": -1.0}),
    (OU, {"mu": None, "gamma": 0.0, "sigma_sq": -1.0, "q0": None}),
    (MegashockParams(ou=OU, arrival_rate=0.001, shock_mean=40.0, shock_var=50.0),
     {"arrival_rate": 0.0, "shock_mean": -1.0, "shock_var": 0.0}),
    (FileParams(path="series.csv", model=DmrParams(r_bar=100.0, kappa=0.05, sigma_s_sq=1.0)),
     {"r_bar": -1.0, "kappa": -0.1, "sigma_s_sq": -1.0}),
    (ZI, {"r_min": -1.0, "r_max": -0.5, "eta": 1.5, "sigma_n_sq": -1.0, "sigma_pv_sq": -1.0}),
    (SimConfig(horizon_T=10, fundamental=OU, n_zi=2, n_hbl=0, zi_params=ZI, hbl_params=None,
               arrival_rate=0.1, master_seed=1, tick_size=0.1),
     {"arrival_rate": 0.0, "tick_size": 0.0}),
    (PriceGrid(0.1), {"tick_size": -0.1}),
]

INVALID = [
    pytest.param(base, field, value, id=f"{type(base).__name__}-{field}-{value}")
    for base, out_of_range in CASES
    for field, finite in out_of_range.items()
    for value in (math.nan, math.inf, -math.inf, finite)
    if value is not None
]


def float_fields(base):
    """``base``'s float fields: a file series keeps them in its model."""
    base = base.model if isinstance(base, FileParams) else base
    return {f.name for f in dataclasses.fields(base)
            if f.init and isinstance(getattr(base, f.name), float)}


def with_value(base, field, value):
    if isinstance(base, FileParams):
        return dataclasses.replace(base, model=with_value(base.model, field, value))
    return dataclasses.replace(base, **{field: value})


def test_cases_cover_every_float_field():
    for base, out_of_range in CASES:
        assert set(out_of_range) == float_fields(base), type(base).__name__


@pytest.mark.parametrize("base, field, value", INVALID)
def test_params_reject_value_naming_the_field(base, field, value):
    with pytest.raises(ValueError) as raised:
        with_value(base, field, value)
    assert str(raised.value).split()[0] == field
