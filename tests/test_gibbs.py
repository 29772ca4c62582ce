import itertools
import math

import numpy as np
import pytest

import pspinlab.gibbs as gibbs
from conftest import bits_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab.model import (
    CouplingAssignment,
    DilutedPairAssignment,
    ModelSpec,
    ModelValidationError,
    ResourceCapError,
    energy_coefficients,
    spin_matrix,
    tuple_coefficients,
)
from pspinlab.gibbs import (
    GibbsOracle,
    ReplicaFunctional,
    fwht,
    mask_to_sites,
    multi_overlap,
    naive_replica_expectation,
    overlap_power,
    overlap_product_expectation,
    replica_difference,
    sites_to_mask,
)


def random_assignment(spec, rng):
    return CouplingAssignment(
        {p: rng.normal(size=(spec.n_sites,) * p) for p in spec.orders}
    )


def evaluate_on(fn, replicas):
    """Pointwise value of a replica functional on explicit replica
    configurations (1-based labels): the direct reference for its algebra."""
    total = 0.0
    for key, coeff in fn.terms.items():
        value = coeff
        for replica, mask in key:
            spins = replicas[replica - 1]
            for s in mask_to_sites(mask):
                value *= spins[s]
        total += value
    return total


def small_oracle(n_sites=3, seed=0, betas=None, field=0.3):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(n_sites, betas if betas is not None else {2: 0.8}, field)
    return GibbsOracle.build(spec, random_assignment(spec, rng))


# -- masks and functional algebra ---------------------------------------------


def test_sites_to_mask_parity_reduces():
    assert sites_to_mask((0, 0, 1)) == 0b10
    assert sites_to_mask((2, 1, 2, 1)) == 0
    assert mask_to_sites(0b101) == (0, 2)


def test_monomial_drops_even_multiplicities():
    fn = ReplicaFunctional.monomial({1: (0, 0, 2), 2: (1, 1)}, 2)
    assert fn.terms == {((1, 0b100),): 1.0}


def test_functional_rejects_bad_labels_and_masks():
    with pytest.raises(ValueError):
        ReplicaFunctional({((3, 1),): 1.0}, 2)
    with pytest.raises(ValueError):
        ReplicaFunctional({((0, 1),): 1.0}, 2)
    with pytest.raises(ValueError):
        ReplicaFunctional({((1, 0),): 1.0}, 2)
    with pytest.raises(ValueError):
        ReplicaFunctional.one(-1)


def test_product_cancels_repeated_monomial():
    fn = ReplicaFunctional.monomial({1: (0,)}, 1)
    sq = fn * fn
    assert sq.terms == {(): 1.0}


def test_relabel_merges_colliding_masks():
    fn = ReplicaFunctional.monomial({1: (0,), 2: (0,)}, 2)
    collapsed = fn.relabel({2: 1}, 2)
    assert collapsed.terms == {(): 1.0}


def test_algebra_bookkeeping():
    a = ReplicaFunctional.monomial({1: (0,)}, 1)
    b = ReplicaFunctional.monomial({2: (1,)}, 2, coeff=2.0)
    total = a + b
    assert len(total.terms) == 2
    assert total.n_replicas == 2
    assert (total - total).terms == {}
    assert a.scaled(0.0).terms == {}
    assert a.with_replicas(5).n_replicas == 5


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_matches_pointwise_product(data):
    n_sites = data.draw(st.integers(2, 4))
    n_rep = data.draw(st.integers(1, 3))
    site_lists = st.lists(st.integers(0, n_sites - 1), max_size=4)
    fns = []
    for _ in range(2):
        parts = {
            r: data.draw(site_lists) for r in range(1, n_rep + 1)
        }
        fns.append(ReplicaFunctional.monomial(parts, n_rep))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    replicas = [rng.choice([-1.0, 1.0], size=n_sites) for _ in range(n_rep)]
    prod = fns[0] * fns[1]
    want = evaluate_on(fns[0], replicas) * evaluate_on(fns[1], replicas)
    assert evaluate_on(prod, replicas) == pytest.approx(want, abs=1e-12)


# -- overlap functionals ------------------------------------------------------


def test_overlap_power_pointwise():
    n = 4
    fn = overlap_power(1, 2, 2, n)
    rng = np.random.default_rng(3)
    s, t = (rng.choice([-1.0, 1.0], size=n) for _ in range(2))
    want = (float(s @ t) / n) ** 2
    assert evaluate_on(fn, [s, t]) == pytest.approx(want, abs=1e-12)


def test_overlap_square_has_diagonal_constant():
    n = 5
    fn = overlap_power(1, 2, 2, n)
    # tuples (i, i) parity-cancel into the empty key, n of them at 1/n**2
    assert fn.terms[()] == pytest.approx(1.0 / n)


def test_overlap_power_refuses_large_expansions():
    """At most 2**18 site tuples; a power above 18 is refused even at N = 1."""
    assert math.fsum(overlap_power(1, 2, 8, 4).terms.values()) == pytest.approx(1.0)
    assert overlap_power(1, 2, 18, 1).terms == {(): 1.0}
    for n_sites, power in ((23, 4), (8, 7), (2, 19), (1, 19), (3, 10 ** 9)):
        with pytest.raises(ResourceCapError):
            overlap_power(1, 2, power, n_sites)


def _tuple_sum_product(labels, power, n_sites, n_replicas):
    """The tuple sum over ``itertools.product`` of the sites: the reference
    for the ``model.tuple_masks`` route."""
    masks = map(sites_to_mask, itertools.product(range(n_sites), repeat=power))
    return ReplicaFunctional.combine(
        ((tuple((l, mask) for l in sorted(labels)) if mask else (), float(n_sites) ** -power)
         for mask in masks), n_replicas)


@pytest.mark.parametrize("n_sites", range(1, 6))
def test_tuple_sum_equals_product_route(n_sites):
    """Same keys, coefficients and dict order for every power up to 4."""
    for power in range(1, 5):
        for labels, n_rep in (((1, 2), 2), ((3, 1), 4), ((1, 2, 4), 4)):
            got = gibbs._tuple_sum(labels, power, n_sites, n_rep)
            want = _tuple_sum_product(labels, power, n_sites, n_rep)
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(mask) is int for key in got.terms for _, mask in key)
            assert got.n_replicas == n_rep


def test_overlap_power_validation():
    with pytest.raises(ValueError):
        overlap_power(1, 1, 2, 3)
    with pytest.raises(ValueError):
        overlap_power(1, 2, 0, 3)


def test_multi_overlap_pointwise():
    n = 3
    fn = multi_overlap((1, 2, 3), n)
    rng = np.random.default_rng(9)
    reps = [rng.choice([-1.0, 1.0], size=n) for _ in range(3)]
    want = (sum(reps[0][i] * reps[1][i] * reps[2][i] for i in range(n)) / n) ** 2
    assert evaluate_on(fn, reps) == pytest.approx(want, abs=1e-12)


def test_multi_overlap_validation():
    with pytest.raises(ValueError):
        multi_overlap((1, 1), 3)


def test_replica_difference_shifts_labels():
    fn = ReplicaFunctional.monomial({1: (0,)}, 1)
    diff = replica_difference(fn, 1)
    assert diff.n_replicas == 2
    assert diff.terms == {((1, 1),): 1.0, ((2, 1),): -1.0}
    with pytest.raises(ValueError):
        replica_difference(fn, 2)


def test_replica_difference_kills_exchangeable_means():
    oracle = small_oracle(4, seed=5)
    fn = overlap_power(1, 2, 2, 4)
    diff = replica_difference(fn, 1)
    # label permutations cannot change a product of i.i.d. replica moments
    assert diff.evaluate(oracle) == pytest.approx(0.0, abs=1e-15)


# -- oracle basics ------------------------------------------------------------


def test_oracle_free_spins_is_uniform():
    spec = ModelSpec(4, {}, 0.0)
    oracle = GibbsOracle.build(spec, CouplingAssignment({}))
    assert np.allclose(oracle.weights, 1.0 / 16)
    assert oracle.log_z == pytest.approx(4 * math.log(2.0), rel=1e-14)
    assert oracle.free_energy_density == pytest.approx(math.log(2.0), rel=1e-14)


def test_oracle_field_only_moments():
    h = 0.7
    spec = ModelSpec(3, {}, h)
    oracle = GibbsOracle.build(spec, CouplingAssignment({}))
    assert oracle.moment(0b001) == pytest.approx(math.tanh(h), abs=1e-14)
    assert oracle.moment(0b110) == pytest.approx(math.tanh(h) ** 2, abs=1e-14)
    assert oracle.log_z == pytest.approx(3 * math.log(2 * math.cosh(h)), rel=1e-14)


def test_oracle_moment_matches_direct_sum():
    oracle = small_oracle(4, seed=1, betas={2: 0.6, 3: 0.4})
    spins = spin_matrix(4)
    for mask in (0b1, 0b1010, 0b1111):
        direct = float(oracle.weights @ np.prod(
            [spins[:, s] for s in mask_to_sites(mask)], axis=0))
        assert oracle.moment(mask) == pytest.approx(direct, abs=1e-14)


def test_pair_moment_matrix_entries():
    oracle = small_oracle(3, seed=2)
    for mask in (0, 0b100):
        mat = oracle.pair_moment_matrix(mask)
        for u in range(3):
            for v in range(3):
                want = oracle.moment(sites_to_mask((u, v)) ^ mask)
                assert mat[u, v] == pytest.approx(want, abs=1e-12)


def test_pair_moment_matrix_matches_weighted_gram():
    """The spectrum gather against an explicit weighted Gram of spin columns;
    masks 0b00011 and 0b10110 contain some of the pair sites u, v."""
    oracle = small_oracle(5, seed=3, betas={2: 0.7, 3: 0.5}, field=-0.2)
    spins = spin_matrix(5)
    for mask in (0, 0b00001, 0b00011, 0b00111, 0b10110, 0b11111):
        column = np.prod(spins[:, list(mask_to_sites(mask))], axis=1)
        gram = spins.T @ ((oracle.weights * column)[:, None] * spins)
        assert np.allclose(oracle.pair_moment_matrix(mask), gram, rtol=0, atol=1e-13)


def test_oracle_leaves_energies_unchanged():
    energies = np.random.default_rng(5).normal(size=16)
    before = energies.copy()
    oracle = GibbsOracle(4, energies)
    assert np.array_equal(energies, before)
    unnormalized = np.exp(before - before.max())
    assert np.array_equal(oracle.weights, unnormalized / unnormalized.sum())


def test_oracle_rejects_oversize_and_bad_shape():
    with pytest.raises(ResourceCapError):
        GibbsOracle(21, np.zeros(4))
    with pytest.raises(ModelValidationError):
        GibbsOracle(3, np.zeros(4))


# -- transforms and overlap fast paths ----------------------------------------


def test_fwht_involution():
    """Integer-valued input keeps every partial sum exact, so applying the
    transform twice gives len * x exactly."""
    rng = np.random.default_rng(0)
    for n_bits in (0, 1, 4, 7, 12):
        x = rng.integers(-8, 9, size=1 << n_bits).astype(np.float64)
        assert bits_equal(fwht(fwht(x)), (1 << n_bits) * x)


def _radix2_fwht(vec):
    """The textbook radix-2 loop: one butterfly stage per pass, strides 1, 2, 4, ..."""
    a = np.array(vec, dtype=np.float64, copy=True)
    h = 1
    while h < a.size:
        x = a.reshape(-1, 2, h)
        even = x[:, 0, :] + x[:, 1, :]
        odd = x[:, 0, :] - x[:, 1, :]
        x[:, 0, :] = even
        x[:, 1, :] = odd
        h *= 2
    return a


@pytest.mark.parametrize("n_bits", range(21))
def test_fwht_bit_identical_to_radix2(n_bits):
    """Paired stages round exactly as the radix-2 loop does, at every size;
    odd n_bits run the final radix-2 stage and n_bits = 0 is one element."""
    rng = np.random.default_rng(100 + n_bits)
    x = rng.normal(size=1 << n_bits)
    x[rng.random(x.size) < 0.25] = 0.0
    before = x.copy()
    assert bits_equal(fwht(x), _radix2_fwht(x))
    assert bits_equal(x, before)


def test_fwht_integer_input_gives_float64():
    x = np.arange(8)
    out = fwht(x)
    assert out.dtype == np.float64
    assert bits_equal(out, _radix2_fwht(x.astype(np.float64)))
    assert np.array_equal(x, np.arange(8))


@pytest.mark.parametrize("n_bits", range(17))
def test_fwht_stack_bit_identical_row_by_row(n_bits):
    """Every row of a stacked transform is the row's own transform, bit for
    bit, and the stack is left as it was."""
    rng = np.random.default_rng(200 + n_bits)
    for rows in (1, 3, 64):
        x = rng.normal(size=(rows, 1 << n_bits))
        before = x.copy()
        got = fwht(x)
        assert got.shape == x.shape
        assert all(bits_equal(got[i], fwht(x[i])) for i in range(rows))
        assert bits_equal(x, before)


def test_fwht_transforms_last_axis_of_a_strided_stack():
    """A transposed (Fortran-ordered) stack is copied to C order first."""
    x = np.random.default_rng(7).normal(size=(16, 3))
    assert bits_equal(fwht(x.T), np.array([fwht(col) for col in x.T]))


def _degree_cases(n_sites, rows, rng):
    """(name, coefficient stack, degree) for the pruned transform: model
    energies at p = 2, 3 and 2+3, with VB edges (self-loops included), raw
    odd-order tuple coefficients, whose entries no tuple hits are -0.0, and
    Rademacher pair couplings at field 0, whose mask sums cancel to exact
    zeros."""
    def tables(betas, draw=rng.normal):
        return CouplingAssignment({p: draw(size=(rows,) + (n_sites,) * p) for p in betas})

    for betas in ({2: 1.0}, {3: 0.7}, {2: 1.0, 3: 0.5}):
        spec = ModelSpec(n_sites, betas, 0.3)
        yield f"orders {sorted(betas)}", energy_coefficients(spec, tables(betas)), max(betas)
    spec = ModelSpec(n_sites, {2: 1.0}, 0.3)
    vbs = []
    for _ in range(rows):
        left = rng.integers(0, n_sites, size=2 * n_sites)
        right = np.where(rng.random(left.size) < 0.25, left, rng.integers(0, n_sites, left.size))
        vbs.append(DilutedPairAssignment(0.8, rng.choice([-1.0, 1.0], left.size), left, right))
    yield "VB edges", energy_coefficients(spec, tables({2: 1.0}), vbs), 2
    for p in (1, 3):
        yield f"raw order {p}", tuple_coefficients(rng.normal(size=(rows,) + (n_sites,) * p), p), p
    signs = tables({2: 1.0}, lambda size: rng.choice([-1.0, 1.0], size))
    yield "rademacher", energy_coefficients(ModelSpec(n_sites, {2: 1.0}), signs), 2


@pytest.mark.parametrize("n_bits", range(1, 21))
def test_fwht_degree_pruning_is_bit_identical(n_bits):
    """Pruned low passes give every bit of the full passes, for each row of
    a stack and for a lone row, at every size, odd N included."""
    rng = np.random.default_rng(300 + n_bits)
    for rows in (1, 3, 16):
        if rows << n_bits > 1 << 20:
            continue
        for name, coeffs, degree in _degree_cases(n_bits, rows, rng):
            before = coeffs.copy()
            assert bits_equal(fwht(coeffs, degree), fwht(coeffs)), (name, rows)
            assert bits_equal(coeffs, before)
            if rows == 1:
                assert bits_equal(fwht(coeffs[0], degree), fwht(coeffs[0])), name


def test_fwht_pruning_keeps_the_sign_of_zeros():
    """Entries in {-1, -0.0, +0.0, 1} on masks of at most ``degree`` sites,
    sparse at a density drawn per row, and one signed zero per dead block:
    the high passes add dead zeros to live ones, whose sums keep the sign
    only when the pruned blocks hold what the low passes would leave."""
    rng = np.random.default_rng(9)
    for n_bits, degree, rows in ((8, 1, 512), (9, 1, 512), (12, 1, 64)):
        assert gibbs._live_blocks(n_bits, degree) is not None, n_bits  # pruned passes run
        lo = 2 * (n_bits // 4)
        values = rng.integers(-1, 2, size=(rows, 1 << n_bits)).astype(np.float64)
        values[rng.random(values.shape) < rng.random((rows, 1))] = 0.0
        values[rng.random(values.shape) < 0.5] *= -1.0
        dead_signs = np.where(rng.random((rows, 1 << (n_bits - lo))) < 0.5, -0.0, 0.0)
        x = np.where(gibbs._popcounts(n_bits) <= degree, values,
                     np.repeat(dead_signs, 1 << lo, axis=1))
        assert bits_equal(fwht(x, degree), fwht(x)), n_bits


def test_fwht_prunes_below_half_the_blocks_live():
    """The full passes at p = 2 up to N = 8 (16 of 32 blocks live at N = 7,
    11 of 16 at N = 8), at degree 3 for N = 12 (42 of 64), and at degree 1
    for N = 6 and 7, where lo = 2 leaves one low pass to skip (5 of 16 and
    6 of 32 live); pruned passes at p = 2 for N = 12 (22 of 64 live) and
    N = 16 (37 of 256)."""
    assert all(gibbs._live_blocks(n, 2) is None for n in range(1, 9))
    for n_bits, degree in ((12, 3), (6, 1), (7, 1)):
        assert gibbs._live_blocks(n_bits, degree) is None, (n_bits, degree)
    assert [len(gibbs._live_blocks(n, 2)[0]) for n in (12, 16)] == [22, 37]


def test_fwht_runs_low_passes_on_live_blocks_alone(monkeypatch):
    """At N = 16 and p = 2 the four low passes see the 37 live blocks of 256
    entries, and the four high passes the whole row; without a degree every
    pass sees the whole row."""
    passes = []
    real = gibbs._radix4_pass
    monkeypatch.setattr(gibbs, "_radix4_pass",
                        lambda a, h: passes.append((a.shape, h)) or real(a, h))
    fwht(np.zeros(1 << 16), degree=2)
    high = [((1 << 16,), h) for h in (256, 1024, 4096, 16384)]
    assert passes == [((1, 37, 256), h) for h in (1, 4, 16, 64)] + high
    passes.clear()
    fwht(np.zeros(1 << 16))
    assert passes == [((1 << 16,), h) for h in (1, 4, 16, 64)] + high


def test_build_passes_the_hamiltonian_degree(monkeypatch):
    """The energy transform gets the largest order, 2 for VB edges on a
    field-only model, and 1 for the field alone."""
    degrees = []
    real = gibbs.fwht
    monkeypatch.setattr(gibbs, "fwht", lambda vec, degree=None:
                        degrees.append(degree) or real(vec, degree))
    rng = np.random.default_rng(4)
    for betas in ({2: 1.0, 3: 0.5}, {2: 1.0}, {}):
        spec = ModelSpec(5, betas, 0.3)
        GibbsOracle.build(spec, random_assignment(spec, rng))
    vb = DilutedPairAssignment(0.5, np.ones(2), np.array([0, 1]), np.array([2, 1]))
    GibbsOracle.build(ModelSpec(5, {}, 0.3), CouplingAssignment({}), vb)
    assert degrees == [3, 2, 1, 2]


def test_stacked_oracles_match_single_builds_and_share_one_spectrum(monkeypatch):
    """One oracle over a stack of four draws answers every query with an
    array over the rows, each row equal to the draw's own oracle.  Log Z,
    free energies and thermal means read no spectrum; one transform gives
    every row's spectrum, and one more the star route's leaf values."""
    spec = ModelSpec(5, {2: 0.8, 3: 0.4}, 0.3)
    rng = np.random.default_rng(11)
    draws = [random_assignment(spec, rng) for _ in range(4)]
    values = np.arange(32.0)
    spectrum_free = {
        "log_z": lambda o: o.log_z,
        "free_energy_density": lambda o: o.free_energy_density,
        "thermal_mean": lambda o: o.thermal_mean(values),
        "weights": lambda o: o.weights,
    }
    spectral = {
        # masks of odd (1, 3 sites) and even (2, 4 sites) size
        **{f"moment {mask:b}": lambda o, mask=mask: o.moment(mask)
           for mask in (0b1, 0b11, 0b10110, 0b1111)},
        **{f"pair_moment_matrix {mask:b}": lambda o, mask=mask: o.pair_moment_matrix(mask)
           for mask in (0, 0b100, 0b101)},
        **{f"overlap_power_moment {args}": lambda o, args=args: o.overlap_power_moment(*args)
           for args in ((2, 0, 0), (1, 0b011, 0), (3, 0b001, 0b110))},
    }
    singles = [GibbsOracle.build(spec, d) for d in draws]
    want = {name: [query(single) for single in singles]
            for name, query in {**spectrum_free, **spectral}.items()}
    want_star = [single.star_overlap_expectation([2, 2]) for single in singles]

    def check(name, got):
        assert np.shape(got)[0] == 4, name
        assert all(np.array_equal(got[i], w) for i, w in enumerate(want[name])), name

    calls = []
    real = gibbs.fwht
    monkeypatch.setattr(gibbs, "fwht", lambda vec, *args, **kwargs:
                        calls.append(np.shape(vec)) or real(vec, *args, **kwargs))
    stacked = CouplingAssignment({p: np.stack([d.tables[p] for d in draws]) for p in spec.betas})
    batch = GibbsOracle.build(spec, stacked)
    assert isinstance(batch, GibbsOracle)
    for name, query in spectrum_free.items():
        check(name, query(batch))
    assert calls == [(4, 32)]  # the stacked energies; no spectrum read yet
    for name, query in spectral.items():
        check(name, query(batch))
    assert calls == [(4, 32)] * 2  # one transform for all four spectra
    got = batch.star_overlap_expectation([2, 2])
    assert got.shape == (4,)
    assert all(np.array_equal(g, w) for g, w in zip(got, want_star))
    assert calls == [(4, 32)] * 3  # the leaf values of all four rows


def test_stacked_log_z_is_math_log_row_by_row():
    """Log Z of every row is float(shift) + math.log(z), bit for bit.  At
    N = 2, z lies in [1, 4], where np.log and math.log disagree in the last
    bit for some inputs; this stack holds such rows, so a switch to np.log
    fails here."""
    energies = np.random.default_rng(17).normal(size=(1 << 14, 4))
    oracle = GibbsOracle(2, energies)
    shift = energies.max(axis=1)
    z = np.array([np.exp(row - top).sum() for row, top in zip(energies, shift)])
    want = np.array([float(s) + math.log(t) for s, t in zip(shift, z)])
    assert np.array_equal(oracle.log_z, want)
    assert not np.array_equal(shift + np.log(z), want)


@pytest.mark.parametrize("power", [1, 2, 3, 4])
def test_overlap_power_moment_routes_agree(power):
    """(Masked) Parseval on the spectrum against the factorized expansion,
    the star route and the naive sum, which never touches the spectrum."""
    oracle = small_oracle(3, seed=4)
    assert oracle.overlap_power_moment(power) == pytest.approx(
        oracle.star_overlap_expectation([power]), abs=1e-13)
    for mask_a, mask_b in ((0, 0), (0b011, 0), (0b001, 0b110)):
        fn = overlap_power(1, 2, power, 3) * ReplicaFunctional.monomial(
            {1: mask_a, 2: mask_b}, 2)
        fact = fn.evaluate(oracle)
        fast = oracle.overlap_power_moment(power, mask_a, mask_b)
        brute = naive_replica_expectation(oracle, fn)
        assert fast == pytest.approx(fact, abs=1e-12)
        assert brute == pytest.approx(fact, abs=1e-10)
        assert brute == pytest.approx(fast, abs=1e-12)


def test_star_expectation_matches_factorized():
    oracle = small_oracle(3, seed=6)
    fn = overlap_power(1, 2, 2, 3, 3) * overlap_power(1, 3, 1, 3, 3)
    want = fn.evaluate(oracle)
    got = oracle.star_overlap_expectation([2, 1])
    assert got == pytest.approx(want, abs=1e-12)


def test_overlap_product_merges_and_factorizes():
    oracle = small_oracle(3, seed=7)
    doubled = overlap_product_expectation(oracle, [(1, 2, 1), (2, 1, 1)])
    assert doubled == pytest.approx(oracle.overlap_power_moment(2), abs=1e-12)
    split = overlap_product_expectation(oracle, [(1, 2, 1), (3, 4, 1)])
    want = oracle.overlap_power_moment(1) ** 2
    assert split == pytest.approx(want, abs=1e-12)
    assert overlap_product_expectation(oracle, []) == 1.0
    masks = {1: 0b011, 2: 0b100, 3: 0b101}
    off_edge = overlap_product_expectation(oracle, [(2, 3, 2)], masks)
    fn = overlap_power(2, 3, 2, 3) * ReplicaFunctional.monomial(masks, 3)
    assert off_edge == pytest.approx(fn.evaluate(oracle), abs=1e-12)
    assert overlap_product_expectation(oracle, [], masks) == pytest.approx(
        ReplicaFunctional.monomial(masks, 3).evaluate(oracle), abs=1e-15)
    with pytest.raises(ValueError):
        overlap_product_expectation(oracle, [(1, 1, 2)])
    with pytest.raises(ValueError):
        overlap_product_expectation(oracle, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError):
        overlap_product_expectation(oracle, [(1, 2, 1), (2, 3, 1)], {1: 0b1})


def test_naive_expectation_caps_and_callable_route():
    """The cap holds, and the vectorized naive sum equals a plain loop over
    configuration pairs with the overlap computed from explicit spins."""
    oracle = small_oracle(3, seed=10)
    with pytest.raises(ResourceCapError):
        naive_replica_expectation(oracle, ReplicaFunctional.one(6))  # 2**18 tuples
    spins = spin_matrix(3)
    loop = sum(oracle.weights[a] * oracle.weights[b] * float(spins[a] @ spins[b]) / 3
               for a in range(8) for b in range(8))
    fn = overlap_power(1, 2, 1, 3)
    assert naive_replica_expectation(oracle, fn) == pytest.approx(loop, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), power=st.integers(1, 3))
def test_overlap_moments_bounded(seed, power):
    oracle = small_oracle(3, seed=seed, betas={2: 1.0}, field=0.3)
    value = oracle.overlap_power_moment(power)
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


# -- free energy --------------------------------------------------------------


def test_free_energy_exact_closed_forms():
    spec = ModelSpec(5, {}, 0.9)
    value = GibbsOracle.build(spec, CouplingAssignment({})).free_energy_density
    assert value == pytest.approx(math.log(2 * math.cosh(0.9)), rel=1e-13)
