"""Approximate integration by parts for standardized scalar laws.

For a Gaussian weight, E[xi f(xi)] = E[f'(xi)] exactly.  For a general
mean-zero unit-variance law the defect is a second-order Taylor remainder,

    gamma = E[ xi * I2(xi) ] - E[ I3(xi) ],
    I2(xi) = int_0^xi (xi - x) f''(x) dx,
    I3(xi) = int_0^xi (xi - x) f'''(x) dx,

and E[xi f(xi)] = E[f'(xi)] + gamma holds as an identity.  The first term is
also controlled by the envelope

    |xi * I2(xi)| <= |xi| * int_0^|xi| min(2 sup|f'|, sup|f''| x) dx.

Outer expectations run over the law's exact quadrature (atoms or
Gauss-Hermite nodes); inner integrals use adaptive Gauss-Legendre with signed
orientation, so int_0^xi means -int_xi^0 when xi < 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, standard_families

INNER_TOL = 1e-10
_GRID_POINTS = 4097
_MACHINE_FLOOR = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar test function with its first three derivatives supplied."""

    name: str
    f: object
    d1: object
    d2: object
    d3: object

    def sup_norms(self, interval: tuple[float, float]) -> tuple[float, float]:
        """(sup|f'|, sup|f''|) on the working interval, by dense grid max."""
        grid = np.linspace(interval[0], interval[1], _GRID_POINTS)
        return float(np.max(np.abs(self.d1(grid)))), float(np.max(np.abs(self.d2(grid))))


def standard_functions() -> list[SmoothFunction]:
    """The eight-function battery: monomials through degree six, sine, tanh,
    and a Gaussian bump."""
    return [
        SmoothFunction("linear", lambda x: x, lambda x: np.ones_like(x),
                       lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
        SmoothFunction("square", lambda x: x ** 2, lambda x: 2.0 * x,
                       lambda x: np.full_like(x, 2.0), lambda x: np.zeros_like(x)),
        SmoothFunction("cube", lambda x: x ** 3, lambda x: 3.0 * x ** 2,
                       lambda x: 6.0 * x, lambda x: np.full_like(x, 6.0)),
        SmoothFunction("quartic", lambda x: x ** 4, lambda x: 4.0 * x ** 3,
                       lambda x: 12.0 * x ** 2, lambda x: 24.0 * x),
        SmoothFunction("sextic", lambda x: x ** 6, lambda x: 6.0 * x ** 5,
                       lambda x: 30.0 * x ** 4, lambda x: 120.0 * x ** 3),
        SmoothFunction("sine", np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
        SmoothFunction("tanh", np.tanh,
                       lambda x: 1.0 - np.tanh(x) ** 2,
                       lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2),
                       lambda x: -2.0 * (1.0 - np.tanh(x) ** 2) * (1.0 - 3.0 * np.tanh(x) ** 2)),
        SmoothFunction("gaussbump", lambda x: np.exp(-0.5 * x ** 2),
                       lambda x: -x * np.exp(-0.5 * x ** 2),
                       lambda x: (x ** 2 - 1.0) * np.exp(-0.5 * x ** 2),
                       lambda x: (3.0 * x - x ** 3) * np.exp(-0.5 * x ** 2)),
    ]


_GL20 = np.polynomial.legendre.leggauss(20)
_GL40 = np.polynomial.legendre.leggauss(40)


def _gl_segment(g, a: float, b: float, rule) -> float:
    nodes, weights = rule
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(weights @ g(mid + half * nodes))


def adaptive_gauss_legendre(g, a: float, b: float) -> float:
    """Adaptive bisection with nested 20/40-point Gauss-Legendre panels.

    Accepts a panel when the 20-vs-40 difference is below its share of
    INNER_TOL or at the machine-precision floor of the panel value.
    """
    if a == b:
        return 0.0
    stack = [(a, b, INNER_TOL)]
    total = 0.0
    while stack:
        lo, hi, budget = stack.pop()
        coarse = _gl_segment(g, lo, hi, _GL20)
        fine = _gl_segment(g, lo, hi, _GL40)
        err = abs(fine - coarse)
        if err <= max(budget, _MACHINE_FLOOR * abs(fine)) or abs(hi - lo) < 1e-13:
            total += fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, budget / 2.0))
            stack.append((mid, hi, budget / 2.0))
    return total


def taylor_tail(fn: SmoothFunction, xi: float, derivative: int) -> float:
    """I_j(xi) = int_0^xi (xi - x) f^(j)(x) dx for j in {2, 3}, with the sign
    carried by the orientation."""
    deriv = {2: fn.d2, 3: fn.d3}[derivative]
    value = adaptive_gauss_legendre(lambda x: (xi - x) * deriv(x), *sorted((0.0, xi)))
    return value if xi >= 0.0 else -value


def _min_envelope_integral(t: float, sup1: float, sup2: float) -> float:
    """int_0^t min(2*sup1, sup2*x) dx in closed form, t >= 0."""
    if sup2 <= 0.0:
        return 0.0
    knee = 2.0 * sup1 / sup2
    if t <= knee:
        return 0.5 * sup2 * t ** 2
    return 0.5 * sup2 * knee ** 2 + 2.0 * sup1 * (t - knee)


def ibp_check(law: DisorderSpec, fn: SmoothFunction) -> dict[str, float]:
    """The identity E[xi f] = E[f'] + gamma and the envelope of its first
    remainder term, for this law and function.

    Returns the identity residual, the defect gamma, the absolute value of
    E[xi * I2(xi)], its sup-norm envelope bound, and their slack (bound -
    value, which must be nonnegative up to rounding).  I2 and I3 are
    integrated once per quadrature node.
    """
    nodes, weights = law.nodes_weights()
    i2 = [taylor_tail(fn, float(x), 2) for x in nodes]
    i3 = [taylor_tail(fn, float(x), 3) for x in nodes]
    first = sum(w * x * t for x, w, t in zip(nodes, weights, i2))
    gamma = float(first - sum(w * t for w, t in zip(weights, i3)))
    lhs = float(weights @ (nodes * fn.f(nodes)))
    mid = float(weights @ fn.d1(nodes))
    sup1, sup2 = fn.sup_norms(law.support_interval())
    bound = float(sum(w * abs(x) * _min_envelope_integral(abs(float(x)), sup1, sup2)
                      for x, w in zip(nodes, weights)))
    value = abs(first)
    return {"residual": lhs - mid - gamma, "gamma": gamma, "envelope_value": value,
            "envelope_bound": bound, "envelope_slack": bound - value}


def battery() -> list[dict]:
    """``ibp_check`` of every standard law with every standard function."""
    return [{"law": law.family, "function": fn.name, **ibp_check(law, fn)}
            for law in standard_families() for fn in standard_functions()]
