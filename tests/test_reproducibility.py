"""What the output bytes depend on below cdasim.

The goldens and the bench digests were recorded on numpy 2.4.6 and CPython
3.11.7 (x86-64 Linux, glibc's libm).  NEP 19 does not promise that a
``Generator`` method draws the same values across numpy versions, and the C
standard does not require ``pow``, ``exp`` or ``expm1`` to be correctly
rounded.  These tests draw a few values from each Generator method the
package calls, and take a few of the powers and exponentials its filter and
OU source take, against values recorded on that platform.  A mismatch names
the method or function that moved, so the golden failures that follow it
have a stated cause.
"""

import math
import platform

import numpy as np
import pytest

from cdasim.rng import child_stream

RECORDED_ON = "numpy 2.4.6, CPython 3.11.7"

# method, how the package calls it, and the first draws on a fresh stream (float.hex)
DRAWS = {
    "random": (lambda rng: [rng.random() for _ in range(3)],
               ["0x1.121300ce3e505p-1", "0x1.aaa221dc35338p-2", "0x1.bd4061bf35ff4p-3"]),
    "standard_normal": (lambda rng: [rng.standard_normal() for _ in range(3)],
                        ["0x1.0f92c6b2d1b9fp-1", "-0x1.2c6232a839f12p-1",
                         "0x1.1ae643d2d354dp+0"]),
    "normal": (lambda rng: [rng.normal(100.0, 2.0) for _ in range(3)],
               ["0x1.943e4b1acb46ep+6", "0x1.8b4e77355f184p+6", "0x1.98d7321e969aap+6"]),
    "normal, bulk": (lambda rng: rng.normal(0.0, 1.5, size=4).tolist(),
                     ["0x1.975c2a0c3a96ep-1", "-0x1.c2934bfc56e9bp-1",
                      "0x1.a85965bc3cff4p+0", "0x1.251427b7f5b8ep+0"]),
    "exponential": (lambda rng: [rng.exponential(20.0) for _ in range(3)],
                    ["0x1.390d61d445a1bp+2", "0x1.b5be415757c2ap+2", "0x1.03a3d6963a8e8p+3"]),
    "exponential, bulk": (lambda rng: rng.exponential(20.0, 4).tolist(),
                          ["0x1.390d61d445a1bp+2", "0x1.b5be415757c2ap+2",
                           "0x1.03a3d6963a8e8p+3", "0x1.3b4945944d6ddp+4"]),
}

# the filter's (1 - kappa) ** gap and the OU source's exp and -expm1, by libm function
FLOATS = {
    "pow": (lambda: [0.95 ** 2, 0.95 ** 37, 0.95 ** 1000],
            ["0x1.ce147ae147ae1p-1", "0x1.32f9a95907c52p-3", "0x1.ffcb2f699313dp-75"]),
    "exp": (lambda: [math.exp(-0.2), math.exp(-0.05 * 13.0)],
            ["0x1.a330ad6166159p-1", "0x1.0b499584682eap-1"]),
    "expm1": (lambda: [math.expm1(-0.2), math.expm1(-2.0 * 0.05 * 7.5), math.expm1(-1e-10)],
              ["-0x1.733d4a7a67a9bp-3", "-0x1.0e25f8a081941p-1", "-0x1.b7cdfd9d1d693p-34"]),
}


@pytest.mark.parametrize("method", sorted(DRAWS))
def test_generator_draws_match_the_recorded_stream(method):
    draw, recorded = DRAWS[method]
    got = [x.hex() for x in draw(child_stream(11, "reproducibility"))]
    assert got == recorded, (
        f"Generator.{method} draws other values on numpy {np.__version__} than on "
        f"{RECORDED_ON}: every golden and bench digest that uses it will differ")


@pytest.mark.parametrize("function", sorted(FLOATS))
def test_libm_results_match_the_recorded_values(function):
    compute, recorded = FLOATS[function]
    got = [x.hex() for x in compute()]
    assert got == recorded, (
        f"{function} rounds differently on {platform.platform()}, Python "
        f"{platform.python_version()}, than on {RECORDED_ON}: the filter's and the "
        f"OU source's values, and the goldens that hold them, will differ")
