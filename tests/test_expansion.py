import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab.experiments import default_suite
from pspinlab.gibbs import (
    GibbsOracle,
    ReplicaFunctional,
    naive_replica_expectation,
    overlap_power,
    sites_to_mask,
)
from pspinlab.model import CouplingAssignment, ModelSpec, ModelValidationError, ResourceCapError
from pspinlab.expansion import (
    MAX_DERIVATIVE_ORDER,
    MAX_EXPANSION_REPLICAS,
    apply_derivative_factor,
    basis_labels,
    coefficient_row,
    derivative_power,
    derivative_power_tuple_sum,
    expansion_coefficient,
    fourth_power_identity_check,
    fourth_power_tuple_coefficients,
    series_identity_check,
    signed_basis,
    verify_expansion,
    verify_ode,
)


def random_oracle(n_sites, seed, betas=None, field=0.3):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(n_sites, betas if betas is not None else {2: 0.8}, field)
    couplings = CouplingAssignment(
        {p: rng.normal(size=(n_sites,) * p) for p in spec.orders}
    )
    return spec, couplings, GibbsOracle.build(spec, couplings)


# -- integer coefficient table ------------------------------------------------


def test_coefficient_rows_match_printed_values():
    assert coefficient_row(1) == [0, 1]
    assert coefficient_row(2) == [0, 1, 0]
    assert coefficient_row(3) == [0, 1, -2, 0]
    assert coefficient_row(4) == [0, 1, -8, 0, 0]


@pytest.mark.parametrize("m", range(1, 21))
def test_coefficient_support(m):
    row = coefficient_row(m)
    assert len(row) == m + 1
    assert row[0] == 0
    assert all(row[a] == 0 for a in range((m + 1) // 2 + 1, m + 1))
    assert row[1] == 1


def test_expansion_coefficient_edges():
    assert expansion_coefficient(3, 2) == -2
    assert expansion_coefficient(3, 7) == 0
    with pytest.raises(ModelValidationError):
        expansion_coefficient(3, -1)


@pytest.mark.parametrize("bad", [0, -1, 2.0, "3", MAX_DERIVATIVE_ORDER + 1])
def test_coefficient_row_rejects_bad_orders(bad):
    with pytest.raises(ModelValidationError):
        coefficient_row(bad)


# -- signed basis and the derivative operator ---------------------------------


def test_signed_basis_degenerate_orders():
    assert signed_basis((0,), 0, 2).terms == {}
    assert signed_basis((0,), -3, 2).terms == {}
    with pytest.raises(ModelValidationError):
        signed_basis((0,), 1, 0)


def _signed_basis_reference(mask, order, n):
    """The signed basis built term by term from its defining sum: the
    reference for the ``basis_labels`` route."""
    if order <= 0:
        return ReplicaFunctional.zero(n)
    pairs = []
    for k in range(0, min(order, n) + 1):
        coeff = float(math.factorial(order) * (-1) ** (order - k)
                      * math.comb(n + order - k - 1, n - 1))
        dummies = tuple(range(n + 1, n + order - k + 1))
        pairs += [(tuple((l, mask) for l in combo + dummies) if mask else (), coeff)
                  for combo in itertools.combinations(range(1, n + 1), k)]
    return ReplicaFunctional.combine(pairs, n + order)


@pytest.mark.parametrize("mask", [0, 0b1, 0b101])
def test_signed_basis_equals_defining_sum(mask):
    """Same keys, float coefficients and dict order (the order ``evaluate``
    sums in) as the term-by-term construction."""
    for order in range(-1, 7):
        for n in range(1, 5):
            got, want = signed_basis(mask, order, n), _signed_basis_reference(mask, order, n)
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(c) is float for c in got.terms.values())
            assert got.n_replicas == want.n_replicas


def test_basis_labels_are_integer_and_cached():
    table = basis_labels(3, 2)
    assert table is basis_labels(3, 2)
    assert table[0] == ((3, 4, 5), -6 * math.comb(4, 1))  # k = 0: three fresh labels
    assert all(type(c) is int and list(labels) == sorted(labels) for labels, c in table)
    assert basis_labels(0, 2) == basis_labels(-2, 2) == ()
    with pytest.raises(ModelValidationError):
        basis_labels(1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_basis_order_one_is_derivative_factor(n):
    mask = 0b11
    basis = signed_basis(mask, 1, n)
    direct = apply_derivative_factor(mask, ReplicaFunctional.one(n))
    assert basis.terms == direct.terms
    assert basis.n_replicas == direct.n_replicas == n + 1


def test_derivative_factor_on_trivial_tuple():
    # an even-multiplicity tuple has mask 0; the factor telescopes to zero
    fn = apply_derivative_factor((0, 0), ReplicaFunctional.one(2))
    assert fn.terms == {}
    assert fn.n_replicas == 3


def _derivative_factor_loop(sites, fn):
    """The factor (sum_{l<=n} M_l - n M_{n+1}) applied term by term, label by
    label, adding into one dict and dropping zeros: the reference for the
    product form."""
    mask = sites if isinstance(sites, int) else sites_to_mask(sites)
    n = fn.n_replicas
    out = {}
    for key, coeff in fn.terms.items():
        for label, factor in [(l, 1.0) for l in range(1, n + 1)] + [(n + 1, -float(n))]:
            new_key = ReplicaFunctional._merge_keys(key, ((label, mask),)) if mask else key
            new = out.get(new_key, 0.0) + coeff * factor
            if new == 0.0:
                out.pop(new_key, None)
            else:
                out[new_key] = new
    return ReplicaFunctional(out, n + 1)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_derivative_factor_equals_term_loop(n_sites):
    """Same keys, coefficients and dict order (the order ``evaluate`` sums
    in) as the term-by-term loop, for every default test function on 1-3
    replicas, every order 1-5 and tuples with and without a zero mask."""
    for test_fn, n, sites in itertools.product(default_suite(n_sites), (1, 2, 3),
                                               ((0, 1), (0, 0), (1,))):
        if test_fn.min_replicas > n:
            continue
        fn = test_fn.functional(n_sites, n)
        for _ in range(5):
            got, want = apply_derivative_factor(sites, fn), _derivative_factor_loop(sites, fn)
            assert list(got.terms.items()) == list(want.terms.items())
            assert got.n_replicas == want.n_replicas
            fn = got


def test_derivative_power_replica_count():
    fn = derivative_power((0, 1), ReplicaFunctional.one(1), 3)
    assert fn.n_replicas == 4


def test_derivative_power_matches_naive_expectation():
    _, _, oracle = random_oracle(2, seed=0)
    fn = derivative_power((0, 1), ReplicaFunctional.one(1), 2)
    fact = fn.evaluate(oracle)
    brute = naive_replica_expectation(oracle, fn)
    assert brute == pytest.approx(fact, abs=1e-12)


# -- symbolic tuple-sum expansion ---------------------------------------------


def test_tuple_sum_frozen_small_orders():
    assert derivative_power_tuple_sum(1, 1) == {
        frozenset({1}): 1, frozenset({2}): -1}
    assert derivative_power_tuple_sum(2, 1) == {
        frozenset({1, 2}): -2, frozenset({2, 3}): 2}


def _parity_state_tables(n_replicas, max_order):
    """The m-fold derivative factor expanded step by step over the parity
    state of every replica label, fresh labels merged to n+1, n+2, ...:
    yields (m, table) for m = 1..max_order.  The reference for the closed
    form sum_a A(m, a) basis(m - 2a + 2); it tracks 2**(n + m) states."""
    states = {frozenset(): 1}
    for order in range(1, max_order + 1):
        live = n_replicas + order - 1
        nxt = {}
        for subset, coeff in states.items():
            for label in range(1, live + 1):
                key = subset ^ {label}
                nxt[key] = nxt.get(key, 0) + coeff
            key = subset ^ {live + 1}
            nxt[key] = nxt.get(key, 0) - live * coeff
        states = {k: c for k, c in nxt.items() if c != 0}
        merged = {}
        for subset, coeff in states.items():
            kept = frozenset(l for l in subset if l <= n_replicas)
            fresh = len(subset) - len(kept)
            key = kept | frozenset(range(n_replicas + 1, n_replicas + fresh + 1))
            merged[key] = merged.get(key, 0) + coeff
        yield order, {k: c for k, c in merged.items() if c != 0}


@pytest.mark.parametrize("n", range(1, MAX_EXPANSION_REPLICAS))
def test_tuple_sum_equals_parity_state_expansion(n):
    """Every (m, n) with n + m <= MAX_EXPANSION_REPLICAS, 120 pairs in all:
    equal as integer dicts, keys in ascending order of the sorted labels."""
    for order, want in _parity_state_tables(n, MAX_EXPANSION_REPLICAS - n):
        got = derivative_power_tuple_sum(order, n)
        assert got == want, (order, n)
        assert list(got) == sorted(got, key=sorted)
        assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("n", range(1, 13))
def test_fourth_order_tuple_sum_is_printed_table(n):
    assert derivative_power_tuple_sum(4, n) == fourth_power_tuple_coefficients(n)


@pytest.mark.parametrize("order,n", [(1, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_tuple_sum_coefficients_cancel(order, n):
    table = derivative_power_tuple_sum(order, n)
    assert sum(table.values()) == 0


@pytest.mark.parametrize("order,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1)])
def test_tuple_sum_evaluates_like_iterated_operator(order, n):
    _, _, oracle = random_oracle(3, seed=order + 10 * n)
    mask = 0b101
    direct = derivative_power(mask, ReplicaFunctional.one(n), order).evaluate(oracle)
    mu = oracle.moment(mask)
    symbolic = sum(c * mu ** len(labels)
                   for labels, c in derivative_power_tuple_sum(order, n).items())
    assert symbolic == pytest.approx(direct, abs=1e-10)


# -- the expansion identity ---------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_expansion_identity_small_grid(order, n_sites):
    for seed in range(3):
        _, _, oracle = random_oracle(n_sites, seed=seed)
        for fn in (ReplicaFunctional.monomial({1: (0,)}, 1),
                   overlap_power(1, 2, 2, n_sites)):
            lhs, rhs = verify_expansion(oracle, (0, n_sites - 1), fn, order)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_expansion_identity_third_order_tuple():
    _, _, oracle = random_oracle(3, seed=17, betas={3: 0.5})
    fn = overlap_power(1, 2, 1, 3)
    lhs, rhs = verify_expansion(oracle, (0, 1, 2), fn, 3)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# -- finite-difference checks of the coupling derivative ----------------------


def test_ode_residuals_small():
    for seed in range(3):
        spec, couplings, _ = random_oracle(3, seed=seed)
        fn = overlap_power(1, 2, 2, 3)
        out = verify_ode(spec, couplings, 2, (0, 1), 2, fn)
        assert out["ladder"] <= 1e-6
        assert out["first"] <= 1e-6
        assert out["second"] <= 1e-6


def test_ode_validation():
    spec, couplings, _ = random_oracle(3, seed=5)
    fn = overlap_power(1, 2, 2, 3)
    with pytest.raises(ModelValidationError):
        verify_ode(spec, couplings, 3, (0, 1, 2), 2, fn)
    with pytest.raises(ModelValidationError):
        verify_ode(spec, couplings, 2, (0, 1, 2), 2, fn)
    flat = ModelSpec(3, {2: 0.0}, 0.3)
    with pytest.raises(ModelValidationError):
        verify_ode(flat, couplings, 2, (0, 1), 2, fn)


# -- fourth-power tuple average -----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fourth_power_coefficients_cancel(n):
    table = fourth_power_tuple_coefficients(n)
    assert sum(table.values()) == 0


def test_fourth_power_identity_random_realizations():
    for seed in range(5):
        _, _, oracle = random_oracle(3, seed=seed)
        fn = overlap_power(1, 2, 2, 3)
        lhs, rhs = fourth_power_identity_check(oracle, fn)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_fourth_power_identity_single_replica():
    _, _, oracle = random_oracle(3, seed=23)
    fn = ReplicaFunctional.monomial({1: (0, 1)}, 1)
    lhs, rhs = fourth_power_identity_check(oracle, fn)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# -- geometric series identity ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_identity_within_tail_bound(data):
    n = data.draw(st.integers(1, 3))
    coeffs = [data.draw(st.floats(-2.0, 2.0)) for _ in range(n + 2)]
    b = data.draw(st.floats(-1.5, 1.5))
    x = data.draw(st.floats(-0.3, 0.3))
    if abs(b * x) > 0.45:
        x = 0.1
    out = series_identity_check(coeffs, b, x, n)
    assert out["residual"] <= out["tail_bound"] + 1e-12


def test_series_identity_tail_bound_survives_a_vanishing_term():
    # c_m = 0.5 m - 3.5 vanishes at m = 7, where the truncation used to stop
    out = series_identity_check([-1.5, 0.0, 2.0], 1.0, 0.25, 1)
    assert out["residual"] <= out["tail_bound"] + 1e-12
    assert out["residual"] <= 1e-12


def test_series_identity_validation():
    with pytest.raises(ModelValidationError):
        series_identity_check([1.0, 0.0], 0.5, 0.1, 1)
    with pytest.raises(ModelValidationError):
        series_identity_check([1.0, 0.0, 0.0], 2.0, 0.6, 1)


def test_tuple_sum_refuses_too_many_replica_labels():
    assert derivative_power_tuple_sum(MAX_EXPANSION_REPLICAS - 8, 8)
    for order, n in ((MAX_EXPANSION_REPLICAS - 1, 2), (1, MAX_EXPANSION_REPLICAS), (10 ** 9, 1)):
        with pytest.raises(ResourceCapError):
            derivative_power_tuple_sum(order, n)
