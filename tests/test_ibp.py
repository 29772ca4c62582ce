import functools
import math

import numpy as np
import pytest

import pspinlab.disorder as dis
import pspinlab.ibp as ibp
from pspinlab.ibp import (
    SmoothFunction,
    adaptive_gauss_legendre,
    battery,
    standard_functions,
    taylor_tail,
)

FUNCTIONS = {fn.name: fn for fn in standard_functions()}


def sup_grid(laws) -> np.ndarray:
    """A sup-norm grid of ``ibp._GRID_POINTS`` points across each law's
    working interval, one row per law, as ``battery`` builds it."""
    intervals = np.array([law.support_interval() for law in laws], dtype=float)
    return np.linspace(*intervals.T, ibp._GRID_POINTS, axis=-1)


def ibp_check(law: dis.DisorderSpec, fn: SmoothFunction) -> dict[str, float]:
    """The battery's checks of one law with one function, on its own grid."""
    return ibp._checks([law], fn, sup_grid([law]))[0]


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


def _integrate(g, a, b):
    """One integral of g(x) on [a, b] through the sweep."""
    return adaptive_gauss_legendre(lambda rows, x: g(x), np.array([a]), np.array([b]))[0]


def test_adaptive_quadrature_closed_forms():
    assert _integrate(lambda x: x ** 2, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert _integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)
    assert _integrate(np.exp, 0.0, 0.0) == 0.0


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
    sup1, sup2 = fn.sup_norms(np.linspace(*law.support_interval(), ibp._GRID_POINTS))
    bound = float(sum(w * abs(x) * ibp._min_envelope_integral(abs(float(x)), sup1, sup2)
                      for x, w in zip(nodes, weights)))
    return {"law": law.family, "function": fn.name, "residual": lhs - mid - gamma,
            "gamma": gamma, "envelope_value": value, "envelope_bound": bound,
            "envelope_slack": bound - value}


def test_battery_equals_three_pass_route():
    want = [_three_pass_row(law, fn)
            for law in dis.standard_families() for fn in standard_functions()]
    assert battery() == want


def test_battery_shared_grid_equals_a_grid_per_function():
    """``battery`` builds one sup-norm grid for all eight functions; a grid
    built again for each function, as each function once built its own,
    gives every field of every row bit for bit."""
    laws = dis.standard_families()
    per_function = [ibp._checks(laws, fn, sup_grid(laws)) for fn in standard_functions()]
    want = [{"law": law.family, "function": fn.name, **rows[i]}
            for i, law in enumerate(laws) for fn, rows in zip(standard_functions(), per_function)]
    got = battery()
    assert [list(row) for row in got] == [list(row) for row in want]
    for row, ref in zip(got, want):
        assert row["law"] == ref["law"] and row["function"] == ref["function"]
        assert all(bits([row[key]]) == bits([ref[key]]) for key in list(row)[2:]), row


# -- the sweep against the scalar stack loop ---------------------------------


LEGENDRE = {n: np.polynomial.legendre.leggauss(n) for n in (20, 40)}


def _gl_segment(g, a: float, b: float, n: int) -> float:
    nodes, weights = LEGENDRE[n]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(weights @ g(mid + half * nodes))


def scalar_adaptive(g, a: float, b: float, levels: list | None = None) -> float:
    """The scalar adaptive Gauss-Legendre loop: one panel at a time off a
    stack that pushes the right half last, accepted panels added in pop
    order.  The bit-for-bit reference of ``ibp.adaptive_gauss_legendre``;
    ``levels`` gets the bisection depth of every panel evaluated."""
    if a == b:
        return 0.0
    stack = [(a, b, ibp.INNER_TOL, 0)]
    total = 0.0
    while stack:
        lo, hi, budget, depth = stack.pop()
        if levels is not None:
            levels.append(depth)
        coarse = _gl_segment(g, lo, hi, 20)
        fine = _gl_segment(g, lo, hi, 40)
        if abs(fine - coarse) <= max(budget, ibp._MACHINE_FLOOR * abs(fine)) \
                or abs(hi - lo) < 1e-13:
            total += fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, budget / 2.0, depth + 1))
            stack.append((mid, hi, budget / 2.0, depth + 1))
    return total


def scalar_tail(fn: SmoothFunction, xi: float, derivative: int, levels=None) -> float:
    deriv = {2: fn.d2, 3: fn.d3}[derivative]
    value = scalar_adaptive(lambda x: (xi - x) * deriv(x), *sorted((0.0, xi)), levels)
    return value if xi >= 0.0 else -value


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def battery_nodes() -> np.ndarray:
    return np.concatenate([law.nodes_weights()[0] for law in dis.standard_families()])


@pytest.mark.parametrize("derivative", [2, 3])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_tail_sweep_equals_scalar_loop_bit_for_bit(name, derivative):
    fn, xi = FUNCTIONS[name], battery_nodes()
    assert len(xi) == 135
    want = [scalar_tail(fn, float(x), derivative) for x in xi]
    assert bits(taylor_tail(fn, xi, derivative)) == bits(want)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_tail_sweep_signed_zero_and_far_nodes(name):
    fn, xi = FUNCTIONS[name], [0.0, -0.0, 7.035, -7.035]
    for derivative in (2, 3):
        want = [scalar_tail(fn, x, derivative) for x in xi]
        assert bits(taylor_tail(fn, np.array(xi), derivative)) == bits(want)
        assert bits([taylor_tail(fn, x, derivative) for x in xi]) == bits(want)


def test_sweep_adds_deep_panels_right_to_left():
    # an oscillating integrand that bisects five levels: 53 panels, 27 of
    # them accepted, so the order of the panel sums decides the last bits
    def g(x):
        return (7.0 - x) * np.sin(80.0 * x)
    levels = []
    want = [scalar_adaptive(g, 0.0, 7.0, levels), scalar_adaptive(g, 0.0, 3.5),
            scalar_adaptive(g, 2.0, 2.0), scalar_adaptive(g, -1.0, 0.25)]
    assert len(levels) == 53 and max(levels) == 5
    got = adaptive_gauss_legendre(lambda rows, x: g(x), np.array([0.0, 0.0, 2.0, -1.0]),
                                  np.array([7.0, 3.5, 2.0, 0.25]))
    assert bits(got) == bits(want)


def test_ibp_check_equals_its_battery_row():
    rows = {(r["law"], r["function"]): r for r in battery()}
    for law in dis.standard_families():
        for fn in standard_functions():
            row = {"law": law.family, "function": fn.name, **ibp_check(law, fn)}
            assert row == rows[law.family, fn.name]


@functools.lru_cache(maxsize=None)
def battery_tail_levels() -> list[list[int]]:
    """The bisection depths of every panel the scalar loop evaluates, for
    each of the battery's tails (function, I2 then I3, node)."""
    tails = []
    for fn in standard_functions():
        for derivative in (2, 3):
            for x in battery_nodes():
                tails.append([])
                scalar_tail(fn, float(x), derivative, tails[-1])
    return tails


def test_battery_tail_levels():
    # 2160 tails: 16 at xi = 0, 2030 accepted on their first panel, 76
    # bisected once and 38 twice
    depths = [max(levels, default=-1) for levels in battery_tail_levels()]
    assert len(depths) == 2160
    assert [depths.count(d) for d in (-1, 0, 1, 2)] == [16, 2030, 76, 38]


def test_battery_sweeps_each_tail_once_and_builds_rules_once(monkeypatch):
    """16 sweeps per battery call (I2 and I3 of each function), each over
    the 135 nodes; every panel's two rules come from one evaluation, and no
    panel is evaluated twice or left out; no quadrature rule is rebuilt."""
    battery()
    built, sweeps = [], []
    real_sweep = ibp.adaptive_gauss_legendre
    for module, name in ((np.polynomial.hermite, "hermgauss"),
                         (np.polynomial.legendre, "leggauss")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: built.append(a) or real(*a))

    def sweep(g, a, b):
        panels = []

        def traced(rows, x):
            assert x.shape == (len(rows), 60)
            panels.extend(zip(rows.tolist(), x[:, 0].tolist()))
            return g(rows, x)
        sweeps.append((len(a), panels))
        return real_sweep(traced, a, b)
    monkeypatch.setattr(ibp, "adaptive_gauss_legendre", sweep)
    battery()
    assert built == []
    assert [n for n, _ in sweeps] == [135] * 16
    assert all(len(set(panels)) == len(panels) for _, panels in sweeps)
    assert sum(len(panels) for _, panels in sweeps) == sum(map(len, battery_tail_levels()))
