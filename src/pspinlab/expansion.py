"""Derivative expansion of Gibbs averages in a single coupling entry.

Differentiating <F> in the coupling attached to one site tuple multiplies F
by a signed replica factor (sum over live replicas minus the replica count
times a fresh replica).  Iterating that operator m times produces, after
collecting, an integer combination of a signed basis family of replica
monomials; the integer table A(m, a) obeys a two-term recursion and the basis
obeys a first-order ladder in the coupling entry.  Everything here is exact
at finite N for every disorder realization, which is what the verification
routines check.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .gibbs import (
    GibbsOracle,
    ReplicaFunctional,
    multi_overlap,
    sites_to_mask,
)
from .model import CouplingAssignment, ModelSpec, ModelValidationError, ResourceCapError

# Rows are cheap integer work, but the basis sizes explode combinatorially;
# the cap keeps accidental huge requests from hanging a run.
MAX_DERIVATIVE_ORDER = 30

SERIES_TAIL_TARGET = 1e-13

MAX_EXPANSION_REPLICAS = 16
"""Most replica labels, n + m, that ``derivative_power_tuple_sum`` tracks:
its table holds a subset of the n live labels plus up to m fresh ones per
entry, at most (m + 1) * 2**n entries."""


@functools.lru_cache(maxsize=None, typed=True)
def coefficient_row(m: int) -> list[int]:
    """Integer coefficients [A(m, 0), A(m, 1), ..., A(m, m)] of order m.

    The returned list is cached; callers must not mutate it."""
    if not isinstance(m, int) or m < 1:
        raise ModelValidationError(f"derivative order must be a positive integer, got {m!r}")
    if m > MAX_DERIVATIVE_ORDER:
        raise ModelValidationError(
            f"derivative order {m} exceeds the supported cap {MAX_DERIVATIVE_ORDER}"
        )
    if m == 1:
        return [0, 1]  # A(1, 0) = 0, A(1, 1) = 1
    row, prev = coefficient_row(m - 1), m - 1
    nxt = [0] * (m + 1)
    for a in range(1, m + 1):
        keep = row[a] if a <= prev else 0
        nxt[a] = -(prev - 2 * a + 4) * (prev - 2 * a + 3) * row[a - 1] + keep
    return nxt


def expansion_coefficient(m: int, a: int) -> int:
    """A(m, a): weight of the order-(m - 2a + 2) basis term in the m-th derivative."""
    if a < 0:
        raise ModelValidationError(f"index a must be nonnegative, got {a}")
    row = coefficient_row(m)
    return row[a] if a < len(row) else 0


@functools.lru_cache(maxsize=None)
def basis_labels(order: int, n_replicas: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The signed basis of a given order as integer (labels, coefficient) pairs.

    For order m >= 1 on n live replicas the basis is

        m! * sum_{k=0..min(m,n)} (-1)**(m-k) * C(n+m-k-1, n-1)
             * sum_{l1<...<lk<=n} M(l1..lk, n+1..n+m-k)

    where M(labels) multiplies the tuple monomial onto every listed replica;
    the k = 0 term uses only the m fresh replicas.  One cached pair per
    term, in that order, labels ascending; orders <= 0 give no terms.
    """
    if n_replicas < 1:
        raise ModelValidationError(f"need at least one live replica, got {n_replicas}")
    if order <= 0:
        return ()
    n = n_replicas
    pref = math.factorial(order)
    return tuple((combo + tuple(range(n + 1, n + order - k + 1)),
                  pref * (-1) ** (order - k) * math.comb(n + order - k - 1, n - 1))
                 for k in range(0, min(order, n) + 1)
                 for combo in itertools.combinations(range(1, n + 1), k))


def signed_basis(sites, order: int, n_replicas: int) -> ReplicaFunctional:
    """The ``basis_labels`` combination with the tuple monomial of ``sites``
    on every listed replica; orders <= 0 give the zero functional."""
    table = basis_labels(order, n_replicas)
    if not table:
        return ReplicaFunctional.zero(n_replicas)
    mask = sites if isinstance(sites, int) else sites_to_mask(sites)
    return ReplicaFunctional.combine(
        ((tuple((l, mask) for l in labels) if mask else (), float(coeff))
         for labels, coeff in table), n_replicas + order)


def apply_derivative_factor(sites, fn: ReplicaFunctional) -> ReplicaFunctional:
    """Multiply by (sum_{l<=n} M_l - n * M_{n+1}) where M_l puts the tuple
    monomial on replica l; raises the replica count by exactly one."""
    mask = sites if isinstance(sites, int) else sites_to_mask(sites)
    n = fn.n_replicas
    weights = [(l, 1.0) for l in range(1, n + 1)] + [(n + 1, -float(n))]
    factor = ReplicaFunctional.combine(
        ((((l, mask),) if mask else (), w) for l, w in weights), n + 1)
    return fn.with_replicas(n + 1) * factor


def derivative_power(sites, fn: ReplicaFunctional, order: int) -> ReplicaFunctional:
    out = fn
    for _ in range(order):
        out = apply_derivative_factor(sites, out)
    return out


@functools.lru_cache(maxsize=None)
def derivative_power_tuple_sum(order: int, n_replicas: int) -> dict[frozenset, int]:
    """The m-fold derivative factor at a generic tuple, sum_a A(m, a)
    basis(m - 2a + 2) read off ``basis_labels``: each frozen set of replica
    labels carrying the tuple monomial maps to its integer coefficient, zeros
    dropped, sorted by the sorted labels.  Fresh replicas, exchangeable under
    the Gibbs average, carry the labels n+1, n+2, ...  The returned dict is
    cached; callers must not mutate it.  More than MAX_EXPANSION_REPLICAS
    labels raise ResourceCapError."""
    if n_replicas + order > MAX_EXPANSION_REPLICAS:
        raise ResourceCapError(
            f"the order-{order} derivative sum over {n_replicas} replicas tracks "
            f"{n_replicas + order} replica labels (cap {MAX_EXPANSION_REPLICAS})")
    table: dict[frozenset, int] = {}
    for a, coeff in enumerate(coefficient_row(order)):
        if not coeff:
            continue
        for labels, c in basis_labels(order - 2 * a + 2, n_replicas):
            key = frozenset(labels)
            table[key] = table.get(key, 0) + coeff * c
    return {k: table[k] for k in sorted(table, key=sorted) if table[k]}


def verify_expansion(oracle: GibbsOracle, sites, fn: ReplicaFunctional,
                     order: int) -> tuple[float, float]:
    """Both sides of the derivative expansion at one tuple and one realization.

    Left: <(derivative factor)**m F>.  Right: sum_a A(m, a) <basis(m-2a+2) F>.
    Terms with A(m, a) = 0 are skipped: a = 0 and every a > ceil(m/2).
    """
    lhs = derivative_power(sites, fn, order).evaluate(oracle)
    rhs = 0.0
    for a, coeff in enumerate(coefficient_row(order)):
        if coeff:
            rhs += coeff * (signed_basis(sites, order - 2 * a + 2, fn.n_replicas) * fn
                            ).evaluate(oracle)
    return lhs, rhs


def _richardson_first(f, x: float, step: float) -> float:
    d1 = (f(x + step) - f(x - step)) / (2.0 * step)
    d2 = (f(x + step / 2.0) - f(x - step / 2.0)) / step
    return (4.0 * d2 - d1) / 3.0


def _richardson_second(f, x: float, step: float) -> float:
    f0 = f(x)
    d1 = (f(x + step) - 2.0 * f0 + f(x - step)) / step ** 2
    d2 = (f(x + step / 2.0) - 2.0 * f0 + f(x - step / 2.0)) / (step / 2.0) ** 2
    return (4.0 * d2 - d1) / 3.0


def verify_ode(spec: ModelSpec, couplings: CouplingAssignment, order_p: int, sites,
               basis_order: int, fn: ReplicaFunctional, step: float = 1e-4) -> dict[str, float]:
    """Finite-difference checks of the coupling-entry derivative structure.

    ``ladder``: N**((p-1)/2)/beta_p * d/dxi <basis(m) F> against
    -m(m-1) <basis(m-1) F> + <basis(m+1) F>.
    ``first`` and ``second``: d^j/dxi^j <F> against
    (beta_p * N**(-(p-1)/2))**j <(derivative factor)**j F>.

    All derivatives use Richardson-extrapolated central differences.
    Returns absolute residuals.
    """
    couplings.validate(spec)
    if order_p not in spec.betas:
        raise ModelValidationError(f"model has no order-{order_p} interaction")
    sites = tuple(int(s) for s in sites)
    if len(sites) != order_p:
        raise ModelValidationError(
            f"tuple {sites} has length {len(sites)}, expected order {order_p}"
        )
    beta = spec.betas[order_p]
    if beta == 0.0:
        raise ModelValidationError("the ladder check needs a nonzero beta_p")
    base = couplings.tables[order_p][sites]
    n = fn.n_replicas

    def averaged(functional):
        def f(x):
            shifted = CouplingAssignment({q: t.copy() for q, t in couplings.tables.items()})
            shifted.tables[order_p][sites] = x
            return functional.evaluate(GibbsOracle.build(spec, shifted))
        return f

    scale = float(spec.n_sites) ** ((order_p - 1) / 2.0)
    m = basis_order
    basis_fn = signed_basis(sites, m, n) * fn
    lhs = scale / beta * _richardson_first(averaged(basis_fn), base, step)
    oracle = GibbsOracle.build(spec, couplings)
    down = (signed_basis(sites, m - 1, n) * fn).evaluate(oracle)
    up = (signed_basis(sites, m + 1, n) * fn).evaluate(oracle)
    ladder = abs(lhs - (-m * (m - 1) * down + up))

    plain = averaged(fn)
    coef = beta / scale
    d1 = _richardson_first(plain, base, step)
    first = abs(d1 - coef * derivative_power(sites, fn, 1).evaluate(oracle))
    d2 = _richardson_second(plain, base, step)
    second = abs(d2 - coef ** 2 * derivative_power(sites, fn, 2).evaluate(oracle))
    return {"ladder": ladder, "first": first, "second": second}


def fourth_power_tuple_coefficients(n_replicas: int) -> dict[frozenset, int]:
    """The printed eight-group coefficient table for the fourth derivative,
    keyed by concrete label sets with fresh labels n+1, n+2, ... appended."""
    n = n_replicas
    live = range(1, n + 1)
    groups = [
        (24, 4, 0),
        (-24 * n, 3, 1),
        (12 * (n + 1) * n, 2, 2),
        (-4 * (n + 2) * (n + 1) * n, 1, 3),
        ((n + 3) * (n + 2) * (n + 1) * n, 0, 4),
        (-16, 2, 0),
        (16 * n, 1, 1),
        (-8 * (n + 1) * n, 0, 2),
    ]
    table: dict[frozenset, int] = {}
    for coeff, k, fresh in groups:
        dummies = tuple(range(n + 1, n + fresh + 1))
        for combo in itertools.combinations(live, k):
            key = frozenset(combo + dummies)
            table[key] = table.get(key, 0) + coeff
    return {k: c for k, c in table.items() if c != 0}


def fourth_power_identity_check(oracle: GibbsOracle, fn: ReplicaFunctional) -> tuple[float, float]:
    """Tuple-averaged fourth derivative against the printed overlap form.

    Left: N**-2 sum over all site pairs of <(derivative factor)**4 F>,
    computed by iterating the operator at each concrete pair.  Right: the
    eight-group combination of squared multi-overlaps times F.  Small N only.
    """
    n_sites = oracle.n_sites
    n = fn.n_replicas
    lhs = 0.0
    for pair in itertools.product(range(n_sites), repeat=2):
        lhs += derivative_power(pair, fn, 4).evaluate(oracle)
    lhs /= float(n_sites) ** 2
    rhs = 0.0
    for labels, coeff in fourth_power_tuple_coefficients(n).items():
        block = multi_overlap(sorted(labels), n_sites, n_replicas=max(max(labels), n))
        rhs += coeff * (block * fn).evaluate(oracle)
    return lhs, rhs


def series_identity_check(a_coeffs, b: float, x: float, n_replicas: int) -> dict[str, float]:
    """Closed form of (sum_m A_m x**m) / (1 - B x)**(n+1) against its series.

    The series coefficients are c_m = sum_{a<=min(m,n+1)} C(n+m-a, n) A_a
    B**(m-a).  Truncation continues until the geometric ratio bound pushes
    the tail below SERIES_TAIL_TARGET.
    """
    n = n_replicas
    a_coeffs = [float(c) for c in a_coeffs]
    if len(a_coeffs) != n + 2:
        raise ModelValidationError(
            f"need the n+2 coefficients A_0..A_{n + 1}, got {len(a_coeffs)}"
        )
    q = abs(b * x)
    if q >= 1.0:
        raise ModelValidationError(f"|B*x| must be below 1, got {q!r}")
    closed = sum(c * x ** m for m, c in enumerate(a_coeffs)) / (1.0 - b * x) ** (n + 1)
    total = 0.0
    m = 0
    tail = math.inf
    while True:
        c_m = sum(math.comb(n + m - a, n) * a_coeffs[a] * b ** (m - a)
                  for a in range(0, min(m, n + 1) + 1))
        total += c_m * x ** m
        if m > 2 * n + 2:
            ratio = q * (n + m + 1) / (m - n)
            if ratio < 1.0:
                # bound by the majorant term sum_a C(n+m-a, n) |A_a| |B|**(m-a) |x|**m:
                # c_m itself can vanish at one m while the tail does not
                size = sum(math.comb(n + m - a, n) * abs(a_coeffs[a]) * abs(b) ** (m - a)
                           for a in range(n + 2)) * abs(x) ** m
                tail = size * ratio / (1.0 - ratio)
                if tail <= SERIES_TAIL_TARGET:
                    break
        m += 1
        if m > 10000:
            raise ModelValidationError("series truncation failed to converge")
    return {"closed": closed, "series": total,
            "residual": abs(closed - total), "tail_bound": tail}
