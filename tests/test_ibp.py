import math

import numpy as np
import pytest

import pspinlab.disorder as dis
from pspinlab.ibp import (
    SmoothFunction,
    adaptive_gauss_legendre,
    battery,
    ibp_remainder,
    ibp_residual,
    remainder_bound_check,
    standard_functions,
    taylor_tail,
)

FUNCTIONS = {fn.name: fn for fn in standard_functions()}


def derivative_chain_residual(fn: SmoothFunction, points: np.ndarray, step: float = 1e-4) -> float:
    """Worst mismatch between supplied derivatives and Richardson central
    differences of the level below, over the given points."""
    worst = 0.0
    for low, high in ((fn.f, fn.d1), (fn.d1, fn.d2), (fn.d2, fn.d3)):
        for x in np.atleast_1d(points):
            d_h = (low(x + step) - low(x - step)) / (2.0 * step)
            d_h2 = (low(x + step / 2.0) - low(x - step / 2.0)) / step
            est = (4.0 * d_h2 - d_h) / 3.0
            worst = max(worst, abs(est - float(high(x))))
    return worst


def test_standard_function_names():
    assert set(FUNCTIONS) == {
        "linear", "square", "cube", "quartic", "sextic", "sine", "tanh", "gaussbump"
    }


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_supplied_derivatives_chain(name):
    points = np.linspace(-2.0, 2.0, 9)
    assert derivative_chain_residual(FUNCTIONS[name], points) <= 1e-6


def test_adaptive_quadrature_closed_forms():
    assert adaptive_gauss_legendre(lambda x: x ** 2, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert adaptive_gauss_legendre(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)
    assert adaptive_gauss_legendre(np.exp, 0.0, 0.0) == 0.0


def test_taylor_tail_square_closed_form():
    # f'' = 2 constant, so I2(xi) = xi**2 with the orientation carried for xi < 0
    square = FUNCTIONS["square"]
    assert taylor_tail(square, 1.5, 2) == pytest.approx(2.25, abs=1e-10)
    assert taylor_tail(square, -1.5, 2) == pytest.approx(2.25, abs=1e-10)
    assert taylor_tail(square, -0.7, 3) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_defect_vanishes():
    law = dis.gaussian()
    for fn in standard_functions():
        assert abs(ibp_remainder(law, fn)) <= 1e-8


@pytest.mark.parametrize("law_builder,expected", [
    (dis.gaussian, 0.0),
    (dis.rademacher, -2.0),
    (dis.uniform_scaled, -6.0 / 5.0),
    (lambda: dis.three_point(9.0), 6.0),
    (dis.golden_skew, -1.0),
])
def test_cube_defect_is_excess_kurtosis(law_builder, expected):
    # E[xi x**3] - E[3 x**2] = m4 - 3 for every standardized law
    _, gamma = ibp_residual(law_builder(), FUNCTIONS["cube"])
    assert gamma == pytest.approx(expected, abs=1e-8)


def test_square_defect_is_skewness():
    _, gamma = ibp_residual(dis.golden_skew(), FUNCTIONS["square"])
    assert gamma == pytest.approx(1.0, abs=1e-8)
    _, gamma = ibp_residual(dis.rademacher(), FUNCTIONS["square"])
    assert gamma == pytest.approx(0.0, abs=1e-10)


def test_linear_defect_vanishes_for_all_laws():
    for law in dis.standard_families():
        _, gamma = ibp_residual(law, FUNCTIONS["linear"])
        assert gamma == pytest.approx(0.0, abs=1e-10)


def test_rademacher_sine_defect_closed_form():
    _, gamma = ibp_residual(dis.rademacher(), FUNCTIONS["sine"])
    assert gamma == pytest.approx(math.sin(1.0) - math.cos(1.0), abs=1e-10)


def test_identity_residual_tiny_across_battery():
    for row in battery():
        assert abs(row["residual"]) <= 1e-8, (row["law"], row["function"])


def test_envelope_bound_never_violated():
    for law in dis.standard_families():
        for name in ("square", "cube", "sine", "tanh"):
            out = remainder_bound_check(law, FUNCTIONS[name])
            assert out["slack"] >= -1e-12, (law.family, name)
            assert out["value"] >= 0.0


def test_battery_shape_and_keys():
    rows = battery()
    assert len(rows) == len(dis.standard_families()) * len(standard_functions())
    want = {"law", "function", "residual", "gamma",
            "envelope_value", "envelope_bound", "envelope_slack"}
    assert all(set(row) == want for row in rows)
    assert [(r["law"], r["function"]) for r in rows] == [
        (law.family, fn.name) for law in dis.standard_families() for fn in standard_functions()]


def test_custom_function_round_trip():
    fn = SmoothFunction(
        "cosh", np.cosh, np.sinh, np.cosh, np.sinh)
    residual, gamma = ibp_residual(dis.gaussian(), fn)
    assert abs(residual) <= 1e-8
    assert gamma == pytest.approx(0.0, abs=1e-8)
