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

import functools
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

    def sup_norms(self, grid: np.ndarray) -> tuple[list[float], list[float]]:
        """(sup|f'|, sup|f''|) on each row of a grid, by dense grid max."""
        return tuple(np.max(np.abs(d(grid)), axis=-1).tolist() for d in (self.d1, self.d2))


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


@functools.lru_cache(maxsize=None)
def _gl_rules() -> tuple[tuple, np.ndarray]:
    """The 20- and 40-point Gauss-Legendre rules and their nodes in one row,
    built once per process on first use, so ``numpy.polynomial`` loads only
    in a run that integrates."""
    rules = tuple(np.polynomial.legendre.leggauss(n) for n in (20, 40))
    return rules, np.concatenate([nodes for nodes, _ in rules])


def adaptive_gauss_legendre(g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int_{a[k]}^{b[k]} g(k, x) dx for every k at once, by adaptive bisection
    with nested 20/40-point Gauss-Legendre panels; ``g(rows, x)`` evaluates
    integral rows[i]'s integrand on row i of x.

    Each level evaluates both rules on every open panel in one call of g and
    bisects the panels whose 20-vs-40 difference exceeds both their share of
    INNER_TOL and the machine-precision floor of the panel value.  Panel sums
    are BLAS dots, as ``weights @ row`` is (a gemv ``g @ w`` rounds otherwise),
    added right to left, as a depth-first stack that pushes the right half
    last pops them: each integral is that scalar loop's, bit for bit.
    """
    rules, gl_nodes = _gl_rules()
    rows = np.flatnonzero(a != b)
    lo, hi, budget = a[rows], b[rows], INNER_TOL
    done = [(rows[:0], lo[:0], lo[:0])]
    while rows.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = g(rows, mid[:, None] + half[:, None] * gl_nodes)[:, None, :]
        coarse, fine = (half * np.matmul(values[..., cols], w[:, None])[:, 0, 0]
                        for cols, (_, w) in zip((slice(20), slice(20, None)), rules))
        ok = np.abs(fine - coarse) <= np.maximum(budget, _MACHINE_FLOOR * np.abs(fine))
        ok |= np.abs(hi - lo) < 1e-13
        done.append((rows[ok], lo[ok], fine[ok]))
        rows, lo, hi, mid = rows[~ok], lo[~ok], hi[~ok], mid[~ok]
        rows, lo, hi, budget = np.tile(rows, 2), np.append(lo, mid), np.append(mid, hi), budget / 2
    rows, lo, fine = map(np.concatenate, zip(*done))
    # Python's sort, not np.argsort: as fast for a few hundred keys, and it
    # pages in no sort kernels (about 0.1 MB more peak RSS in a short run)
    order = sorted(range(len(lo)), key=lo.tolist().__getitem__, reverse=True)
    return np.bincount(rows[order], fine[order], minlength=len(a))


def taylor_tail(fn: SmoothFunction, xi, derivative: int):
    """I_j(xi) = int_0^xi (xi - x) f^(j)(x) dx for j in {2, 3}, with the sign
    carried by the orientation: one sweep over an array of xi, or one node."""
    flat = np.atleast_1d(np.asarray(xi, dtype=float))
    deriv = {2: fn.d2, 3: fn.d3}[derivative]
    value = adaptive_gauss_legendre(lambda rows, x: (flat[rows, None] - x) * deriv(x),
                                    np.minimum(flat, 0.0), np.maximum(flat, 0.0))
    return np.where(flat >= 0.0, value, -value).reshape(np.shape(xi))[()]


def _min_envelope_integral(t: float, sup1: float, sup2: float) -> float:
    """int_0^t min(2*sup1, sup2*x) dx in closed form, t >= 0."""
    if sup2 <= 0.0:
        return 0.0
    knee = 2.0 * sup1 / sup2
    if t <= knee:
        return 0.5 * sup2 * t ** 2
    return 0.5 * sup2 * knee ** 2 + 2.0 * sup1 * (t - knee)


def _checks(laws: list[DisorderSpec], fn: SmoothFunction, grid: np.ndarray) -> list[dict]:
    """The identity E[xi f] = E[f'] + gamma for each law with fn: its residual,
    the defect gamma, the value |E[xi * I2(xi)]| of its first remainder term,
    that term's envelope bound by the sup norms on ``grid`` (a row per law),
    and their slack (bound - value, nonnegative up to rounding).  One sweep
    per Taylor tail covers the nodes of every law."""
    quadratures = [law.nodes_weights() for law in laws]
    cuts = np.cumsum([len(nodes) for nodes, _ in quadratures])[:-1]
    xi = np.concatenate([nodes for nodes, _ in quadratures])
    i2s, i3s = (np.split(taylor_tail(fn, xi, j), cuts) for j in (2, 3))
    sups = fn.sup_norms(grid)
    rows = []
    for (nodes, weights), i2, i3, sup1, sup2 in zip(quadratures, i2s, i3s, *sups):
        first = sum(w * x * t for x, w, t in zip(nodes, weights, i2))
        gamma = float(first - sum(w * t for w, t in zip(weights, i3)))
        lhs = float(weights @ (nodes * fn.f(nodes)))
        mid = float(weights @ fn.d1(nodes))
        bound = float(sum(w * abs(x) * _min_envelope_integral(abs(float(x)), sup1, sup2)
                          for x, w in zip(nodes, weights)))
        value = abs(first)
        rows.append({"residual": lhs - mid - gamma, "gamma": gamma, "envelope_value": value,
                     "envelope_bound": bound, "envelope_slack": bound - value})
    return rows


def battery() -> list[dict]:
    """``_checks`` of every standard law with every standard function, on one grid."""
    laws, functions = standard_families(), standard_functions()
    grid = np.linspace(*np.array([law.support_interval() for law in laws]).T, _GRID_POINTS,
                       axis=-1)  # each law's working interval
    checks = [_checks(laws, fn, grid) for fn in functions]
    return [{"law": law.family, "function": fn.name, **rows[i]}
            for i, law in enumerate(laws) for fn, rows in zip(functions, checks)]
