import math

import numpy as np
import pytest

import pspinlab.disorder as dis
import pspinlab.ibp as ibp
from pspinlab.ibp import (
    SmoothFunction,
    adaptive_gauss_legendre,
    battery,
    ibp_check,
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
        assert abs(ibp_check(law, fn)["gamma"]) <= 1e-8


@pytest.mark.parametrize("law_builder,expected", [
    (dis.gaussian, 0.0),
    (dis.rademacher, -2.0),
    (dis.uniform_scaled, -6.0 / 5.0),
    (lambda: dis.three_point(9.0), 6.0),
    (dis.golden_skew, -1.0),
])
def test_cube_defect_is_excess_kurtosis(law_builder, expected):
    # E[xi x**3] - E[3 x**2] = m4 - 3 for every standardized law
    gamma = ibp_check(law_builder(), FUNCTIONS["cube"])["gamma"]
    assert gamma == pytest.approx(expected, abs=1e-8)


def test_square_defect_is_skewness():
    gamma = ibp_check(dis.golden_skew(), FUNCTIONS["square"])["gamma"]
    assert gamma == pytest.approx(1.0, abs=1e-8)
    gamma = ibp_check(dis.rademacher(), FUNCTIONS["square"])["gamma"]
    assert gamma == pytest.approx(0.0, abs=1e-10)


def test_linear_defect_vanishes_for_all_laws():
    for law in dis.standard_families():
        gamma = ibp_check(law, FUNCTIONS["linear"])["gamma"]
        assert gamma == pytest.approx(0.0, abs=1e-10)


def test_rademacher_sine_defect_closed_form():
    gamma = ibp_check(dis.rademacher(), FUNCTIONS["sine"])["gamma"]
    assert gamma == pytest.approx(math.sin(1.0) - math.cos(1.0), abs=1e-10)


def test_identity_residual_tiny_across_battery():
    for row in battery():
        assert abs(row["residual"]) <= 1e-8, (row["law"], row["function"])


def test_envelope_bound_never_violated():
    for law in dis.standard_families():
        for name in ("square", "cube", "sine", "tanh"):
            out = ibp_check(law, FUNCTIONS[name])
            assert out["envelope_slack"] >= -1e-12, (law.family, name)
            assert out["envelope_value"] >= 0.0


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
    out = ibp_check(dis.gaussian(), fn)
    residual, gamma = out["residual"], out["gamma"]
    assert abs(residual) <= 1e-8
    assert gamma == pytest.approx(0.0, abs=1e-8)


def _three_pass_row(law, fn):
    """The battery row as the remainder, the residual and the envelope check
    computed it, each with its own pass over the nodes: the reference the
    one-pass ``ibp_check`` must reproduce bit for bit."""
    nodes, weights = law.nodes_weights()
    first = sum(w * x * taylor_tail(fn, float(x), 2) for x, w in zip(nodes, weights))
    second = sum(w * taylor_tail(fn, float(x), 3) for x, w in zip(nodes, weights))
    gamma = float(first - second)
    lhs = float(weights @ (nodes * fn.f(nodes)))
    mid = float(weights @ fn.d1(nodes))
    value = abs(sum(w * x * taylor_tail(fn, float(x), 2) for x, w in zip(nodes, weights)))
    sup1, sup2 = fn.sup_norms(law.support_interval())
    bound = float(sum(w * abs(x) * ibp._min_envelope_integral(abs(float(x)), sup1, sup2)
                      for x, w in zip(nodes, weights)))
    return {"law": law.family, "function": fn.name, "residual": lhs - mid - gamma,
            "gamma": gamma, "envelope_value": value, "envelope_bound": bound,
            "envelope_slack": bound - value}


def test_battery_equals_three_pass_route():
    want = [_three_pass_row(law, fn)
            for law in dis.standard_families() for fn in standard_functions()]
    assert battery() == want


def test_battery_integrates_each_tail_once_and_builds_rules_once(monkeypatch):
    """Two taylor_tail calls (I2 and I3) per node per (law, function) pair,
    and no quadrature rule built on a second battery call."""
    battery()
    built, tails = [], []
    real_tail = ibp.taylor_tail
    for module, name in ((np.polynomial.hermite, "hermgauss"),
                         (np.polynomial.legendre, "leggauss")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: built.append(a) or real(*a))
    monkeypatch.setattr(ibp, "taylor_tail", lambda *a: tails.append(a) or real_tail(*a))
    battery()
    assert built == []
    nodes = sum(len(law.nodes_weights()[0]) for law in dis.standard_families())
    assert len(tails) == 2 * nodes * len(standard_functions())
