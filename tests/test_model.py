import itertools

import numpy as np
import pytest

from pspinlab.gibbs import fwht
from pspinlab.model import (
    CouplingAssignment,
    EXACT_ENUMERATION_CAP,
    MAX_COUPLING_ENTRIES,
    ModelSpec,
    ModelValidationError,
    ResourceCapError,
    DilutedPairAssignment,
    energy_coefficients,
    interpolated_couplings,
    spin_matrix,
    tuple_coefficients,
)


def hamiltonian_energy(spec: ModelSpec, couplings: CouplingAssignment, spins: np.ndarray) -> float:
    """Total energy H(sigma), interactions plus field: the direct reference
    for the Walsh-coefficient route."""
    spins = np.asarray(spins, dtype=np.float64)
    if spins.shape != (spec.n_sites,):
        raise ModelValidationError(f"spins shape {spins.shape} does not match N={spec.n_sites}")
    couplings.validate(spec)
    total = spec.field_h * float(spins.sum())
    for p in spec.orders:
        raw = couplings.tables[p]
        for _ in range(p):
            raw = raw @ spins
        total += spec.betas[p] * spec.scale(p) * float(raw)
    return total


def vb_energy(assignment: DilutedPairAssignment, spins: np.ndarray) -> float:
    """beta' * sum_k J_k * sigma_{u_k} * sigma_{v_k} for one configuration."""
    spins = np.asarray(spins, dtype=np.float64)
    if assignment.n_edges == 0:
        return 0.0
    return float(assignment.beta_prime
                 * (assignment.j_values * spins[assignment.left_sites] * spins[assignment.right_sites]).sum())


def naive_tuple_sum(table, spins):
    p = table.ndim
    n = table.shape[0]
    total = 0.0
    for tup in itertools.product(range(n), repeat=p):
        prod = table[tup]
        for i in tup:
            prod *= spins[i]
        total += prod
    return total


@pytest.mark.parametrize("bad", [0, -3, 2.0, "4"])
def test_spec_rejects_bad_site_count(bad):
    with pytest.raises(ModelValidationError):
        ModelSpec(bad)


@pytest.mark.parametrize("p", [0, 1, -2, 2.5])
def test_spec_rejects_low_orders(p):
    with pytest.raises(ModelValidationError):
        ModelSpec(3, {p: 1.0})


def test_spec_rejects_nonfinite():
    with pytest.raises(ModelValidationError):
        ModelSpec(3, {2: float("nan")})
    with pytest.raises(ModelValidationError):
        ModelSpec(3, {2: 1.0}, float("inf"))


def test_spec_allows_empty_and_zero_betas():
    assert ModelSpec(4).orders == ()
    assert ModelSpec(4, {2: 0.0, 3: 0.0}).orders == (2, 3)


def test_large_system_order_cap():
    # every order stops where exact enumeration does
    ModelSpec(EXACT_ENUMERATION_CAP, {4: 1.0})
    for betas in ({}, {2: 1.0}, {3: 0.5}, {2: 1.0, 3: 0.5}, {4: 1.0}):
        with pytest.raises(ResourceCapError):
            ModelSpec(EXACT_ENUMERATION_CAP + 1, betas)


def test_interaction_order_cap():
    """One draw's tables hold at most MAX_COUPLING_ENTRIES floats: order 5
    fits at N = 20, order 7 does not, and no order past 22 fits at any N."""
    assert MAX_COUPLING_ENTRIES == 1 << 22
    ModelSpec(20, {2: 1.0, 5: 0.5})
    ModelSpec(1, {22: 1.0})
    for n_sites, betas in ((20, {7: 1.0}), (4, {12: 1.0}), (1, {23: 1.0}), (3, {10 ** 9: 1.0}),
                           (16, {5: 1.0, 6: 1.0})):
        with pytest.raises(ResourceCapError):
            ModelSpec(n_sites, betas)
    with pytest.raises(ResourceCapError):
        ModelSpec(4, {10: 1.0}).check_draws(8)


def test_scale_matches_power_law():
    spec = ModelSpec(9, {2: 1.0, 3: 1.0})
    assert spec.scale(2) == pytest.approx(9.0 ** -0.5)
    assert spec.scale(3) == pytest.approx(1.0 / 9.0)


def test_spin_matrix_rows_match_indices():
    mat = spin_matrix(4)
    assert mat.shape == (16, 4)
    for idx in range(16):
        want = [1.0 if (idx >> b) & 1 else -1.0 for b in range(4)]
        assert np.array_equal(mat[idx], want)


def test_spin_matrix_cap():
    with pytest.raises(ResourceCapError):
        spin_matrix(EXACT_ENUMERATION_CAP + 1)


@pytest.mark.parametrize("p,n", [(1, 4), (2, 2), (2, 4), (3, 3), (4, 2)])
def test_tuple_coefficients_vs_naive(p, n):
    # p = 1 is the 1-D table of a cavity field in the order-2 model
    rng = np.random.default_rng(11)
    table = rng.standard_normal((n,) * p)
    configs = spin_matrix(n)
    got = fwht(tuple_coefficients(table, p))
    for row, spins in zip(got, configs):
        assert row == pytest.approx(naive_tuple_sum(table, spins), abs=1e-10)


def test_hamiltonian_energy_explicit_formula():
    rng = np.random.default_rng(5)
    spec = ModelSpec(3, {2: 0.7, 3: -0.4}, 0.2)
    coup = CouplingAssignment({2: rng.standard_normal((3, 3)),
                               3: rng.standard_normal((3, 3, 3))})
    spins = np.array([1.0, -1.0, 1.0])
    want = 0.2 * spins.sum()
    want += 0.7 * 3 ** -0.5 * naive_tuple_sum(coup.tables[2], spins)
    want += -0.4 * (1.0 / 3.0) * naive_tuple_sum(coup.tables[3], spins)
    assert hamiltonian_energy(spec, coup, spins) == pytest.approx(want, abs=1e-12)


def test_coupling_validation():
    spec = ModelSpec(3, {2: 1.0})
    with pytest.raises(ModelValidationError):
        CouplingAssignment({3: np.zeros((3, 3, 3))}).validate(spec)
    with pytest.raises(ModelValidationError):
        CouplingAssignment({2: np.zeros((2, 2))}).validate(spec)
    bad = np.zeros((3, 3))
    bad[0, 0] = np.inf
    with pytest.raises(ModelValidationError):
        CouplingAssignment({2: bad}).validate(spec)


def test_vb_energy_naive():
    vb = DilutedPairAssignment(0.5, np.array([1.0, -1.0, 2.0]),
                             np.array([0, 1, 2]), np.array([1, 2, 2]))
    spins = np.array([1.0, -1.0, 1.0])
    # last edge is the self-loop (2, 2): contributes the constant J=2
    want = 0.5 * (1.0 * 1.0 * -1.0 + -1.0 * -1.0 * 1.0 + 2.0)
    assert vb_energy(vb, spins) == pytest.approx(want)


@pytest.mark.parametrize("betas,n", [({2: 1.1}, 6), ({3: -0.7}, 5), ({2: 0.9, 3: 0.5}, 6),
                                     ({4: 0.8}, 4)])
def test_spectrum_energies_match_direct_route(betas, n):
    """fwht of the Walsh coefficients against hamiltonian_energy + vb_energy
    on every configuration; dense tables include the diagonal tuples, and
    the diluted edges include a self-loop."""
    rng = np.random.default_rng(n + sum(betas))
    spec = ModelSpec(n, betas, -0.4)
    coup = CouplingAssignment({p: rng.standard_normal((n,) * p) for p in betas})
    vb = DilutedPairAssignment(0.6, rng.standard_normal(4),
                               np.array([0, 1, 2, n - 1]), np.array([1, 3, 2, 0]))
    energies = fwht(energy_coefficients(spec, coup, vb))
    for c, spins in enumerate(spin_matrix(n)):
        want = hamiltonian_energy(spec, coup, spins) + vb_energy(vb, spins)
        assert energies[c] == pytest.approx(want, abs=1e-12)


def test_energy_coefficients_validation():
    spec = ModelSpec(3, {2: 1.0})
    coup = CouplingAssignment({2: np.zeros((3, 3))})
    with pytest.raises(ModelValidationError):
        energy_coefficients(spec, CouplingAssignment({2: np.zeros((2, 2))}))
    bad = DilutedPairAssignment(1.0, np.array([1.0]), np.array([0]), np.array([3]))
    with pytest.raises(ModelValidationError):
        energy_coefficients(spec, coup, bad)


@pytest.mark.parametrize("betas", [{2: 1.1}, {3: -0.7}, {2: 0.9, 3: 0.5}])
def test_stacked_energy_coefficients_equal_each_draw(betas):
    """A stack of draws gives each draw's own coefficients bit for bit, with
    each row's diluted edges added to its row (one row has none)."""
    n = 5
    rng = np.random.default_rng(3)
    spec = ModelSpec(n, betas, 0.3)
    draws = [CouplingAssignment({p: rng.standard_normal((n,) * p) for p in betas})
             for _ in range(4)]
    vbs = [DilutedPairAssignment(0.6, rng.choice([-1.0, 1.0], k), rng.integers(0, n, k),
                                 rng.integers(0, n, k)) for k in (3, 0, 5, 1)]
    stacked = CouplingAssignment({p: np.stack([d.tables[p] for d in draws]) for p in betas})
    assert stacked.validate(spec) == (4,)
    dressed = energy_coefficients(spec, stacked, vbs)
    plain = energy_coefficients(spec, stacked)
    assert dressed.shape == plain.shape == (4, 1 << n)
    for row, (draw, vb) in enumerate(zip(draws, vbs)):
        assert np.array_equal(dressed[row], energy_coefficients(spec, draw, vb))
        assert np.array_equal(plain[row], energy_coefficients(spec, draw))
        for p in betas:
            assert np.array_equal(tuple_coefficients(stacked.tables[p], p)[row],
                                  tuple_coefficients(draw.tables[p], p))


def test_stacked_coupling_validation():
    spec = ModelSpec(3, {2: 1.0, 3: 0.5})
    single = {2: np.zeros((3, 3)), 3: np.zeros((3, 3, 3))}
    stacked = {2: np.zeros((4, 3, 3)), 3: np.zeros((4, 3, 3, 3))}
    assert CouplingAssignment(single).validate(spec) == ()
    assert CouplingAssignment(stacked).validate(spec) == (4,)
    for tables in ({2: stacked[2], 3: single[3]}, {2: stacked[2], 3: np.zeros((2, 3, 3, 3))}):
        with pytest.raises(ModelValidationError, match="draw counts"):
            CouplingAssignment(tables).validate(spec)
    with pytest.raises(ModelValidationError, match="shape"):
        CouplingAssignment({2: np.zeros((2, 4, 3, 3)), 3: single[3]}).validate(spec)
    empty = DilutedPairAssignment(1.0, np.array([]), np.array([]), np.array([]))
    with pytest.raises(ModelValidationError, match="3 diluted interactions for 4 draws"):
        energy_coefficients(spec, CouplingAssignment(stacked), [empty] * 3)


def test_vb_empty_and_validation():
    empty = DilutedPairAssignment(1.0, np.array([]), np.array([]), np.array([]))
    assert empty.n_edges == 0
    assert vb_energy(empty, np.array([1.0, -1.0])) == 0.0
    with pytest.raises(ModelValidationError):
        DilutedPairAssignment(1.0, np.array([1.0]), np.array([0]), np.array([0, 1]))


def test_interpolated_couplings_endpoints_and_variance():
    rng = np.random.default_rng(2)
    first = CouplingAssignment({2: rng.standard_normal((3, 3))})
    second = CouplingAssignment({2: rng.standard_normal((3, 3))})
    assert np.array_equal(interpolated_couplings(first, second, 1.0).tables[2],
                          first.tables[2])
    assert np.array_equal(interpolated_couplings(first, second, 0.0).tables[2],
                          second.tables[2])
    mid = interpolated_couplings(first, second, 0.4)
    want = np.sqrt(0.4) * first.tables[2] + np.sqrt(0.6) * second.tables[2]
    assert np.allclose(mid.tables[2], want)
    for t in (-0.1, 1.5, float("nan")):  # the one check of t, for every caller
        with pytest.raises(ModelValidationError, match="must lie in"):
            interpolated_couplings(first, second, t)
    with pytest.raises(ModelValidationError):
        interpolated_couplings(first, CouplingAssignment({3: np.zeros((3, 3, 3))}), 0.5)
