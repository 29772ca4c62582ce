import collections
import functools
import itertools
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import pspinlab.cli as cli
import pspinlab.disorder as dis
import pspinlab.experiments as ex
import pspinlab.gibbs as gibbs
from conftest import bits_equal
from pspinlab.disorder import SeedPath, experiment_id
from pspinlab.expansion import derivative_power
from pspinlab.gibbs import GibbsOracle
from pspinlab.model import (
    MAX_COUPLING_ENTRIES,
    CouplingAssignment,
    ModelSpec,
    ModelValidationError,
    ResourceCapError,
    tuple_coefficients,
)


def draw_oracle(n_sites, seed, betas=None, field=0.3, law=None):
    mspec = ModelSpec(n_sites, betas if betas is not None else {2: 0.8}, field)
    rng = SeedPath(seed, 0, 0).generator()
    couplings = dis.sample_couplings(mspec, law or dis.gaussian(), rng)
    return mspec, GibbsOracle.build(mspec, couplings)


# -- test-function family -----------------------------------------------------


def test_test_function_validation():
    with pytest.raises(ex.ExperimentError):
        ex.TestFunction("bogus")
    with pytest.raises(ex.ExperimentError):
        ex.TestFunction("overlap-power", power=0)
    # a power or sites on a kind that does not take them would be dropped or,
    # for sites, read as F's monomial
    for kind, power, sites in (("one", 2, ()), ("spin-monomial", 2, ((0,),)),
                               ("one", None, ((0,),)), ("overlap-power", 2, ((0,), (1,)))):
        with pytest.raises(ex.ExperimentError, match="takes no"):
            ex.TestFunction(kind, power, sites)
    assert ex.TestFunction("overlap-power") == ex.overlap_square()


def test_test_function_min_replicas_and_labels():
    assert ex.constant_one().min_replicas == 1
    assert ex.overlap_square().min_replicas == 2
    mono = ex.spin_monomial(((0, 1), (2,)))
    assert mono.min_replicas == 2
    assert ex.constant_one().label == "one"
    assert ex.overlap_square().label == "overlap^2"
    assert mono.label == "monomial[0,1;2]"


def test_test_function_functional_guards():
    mono = ex.spin_monomial(((0,), (1,)))
    far = ex.spin_monomial(((5,),))
    for check in (mono.functional, mono.check, far.functional, far.check):
        with pytest.raises(ex.ExperimentError):
            check(3, 1)
    assert ex.spin_monomial(()).min_replicas == 1
    with pytest.raises(ex.ExperimentError):
        ex.spin_monomial(()).check(3, 0)


def test_test_function_edges_and_masks():
    assert ex.constant_one().edges == []
    assert ex.constant_one().masks == {}
    assert ex.overlap_square().edges == [(1, 2, 2)]
    assert ex.overlap_square().masks == {}
    mono = ex.spin_monomial(((0, 1), (2,)))
    assert mono.edges == []
    assert mono.masks == {1: 0b11, 2: 0b100}
    assert ex.spin_monomial(((0, 0), (1,))).masks == {2: 0b10}


def test_default_suite_sizes():
    assert len(ex.default_suite(2)) == 3
    assert len(ex.default_suite(3)) == 4


# -- reductions ---------------------------------------------------------------


def test_mean_stderr_small_cases():
    assert ex.mean_stderr([5.0]) == (5.0, 0.0)
    mean, err = ex.mean_stderr([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert err == pytest.approx(math.sqrt(1.0 / 3.0))


def test_resolve_workers_precedence():
    assert ex.resolve_workers(3) == 3
    for below in (0, -3):
        with pytest.raises(ex.ExperimentError):
            ex.resolve_workers(below)
    assert ex.resolve_workers(None) == min(os.cpu_count() or 1, ex.MAX_WORKERS)
    assert ex.resolve_workers(ex.MAX_WORKERS) == ex.MAX_WORKERS
    with pytest.raises(ResourceCapError):
        ex.resolve_workers(ex.MAX_WORKERS + 1)


# -- replica-coupling gaps ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_gg_gap_constant_function_cancels(n):
    _, oracle = draw_oracle(4, seed=1)
    got = ex.gg_gap_realization(oracle, oracle, n, 2, ex.constant_one())
    assert got == pytest.approx(0.0, abs=1e-15)


def test_gg_gap_needs_two_replicas():
    _, oracle = draw_oracle(3, seed=2)
    with pytest.raises(ex.ExperimentError):
        ex.gg_gap_realization(oracle, oracle, 1, 2, ex.constant_one())


def test_gg_gap_monomial_route_matches_functional_route():
    _, oracle = draw_oracle(3, seed=3)
    fn = ex.spin_monomial(((0,), (1,)))
    n, p = 2, 2
    got = ex.gg_gap_realization(oracle, oracle, n, p, fn)
    from pspinlab.gibbs import overlap_power

    base = fn.functional(3, n + 1)
    lead = (overlap_power(1, n + 1, p, 3, n + 1) * base).evaluate(oracle)
    bound = oracle.overlap_power_moment(p) * fn.functional(3, n).evaluate(oracle)
    inner = (overlap_power(1, 2, p, 3, n + 1) * base).evaluate(oracle)
    want = lead - bound / n - inner / n
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thermal_gap_constant_function_cancels(n):
    _, oracle = draw_oracle(4, seed=4)
    got = ex.gg_thermal_gap_realization(oracle, n, 2, ex.constant_one())
    assert got == pytest.approx(0.0, abs=1e-14)


def test_thermal_gap_validation():
    _, oracle = draw_oracle(3, seed=5)
    with pytest.raises(ex.ExperimentError):
        ex.gg_thermal_gap_realization(oracle, 0, 2, ex.constant_one())
    # F's replicas would collide with the fresh replicas n+1, n+2
    for fn in (ex.overlap_square(), ex.spin_monomial(((0,), (1,)))):
        with pytest.raises(ex.ExperimentError):
            ex.gg_thermal_gap_realization(oracle, 1, 2, fn)


def test_gg_estimators_on_constant_function():
    mspec = ModelSpec(4, {2: 1.0}, 0.3)
    # the product term pairs each draw with an independent one, so single
    # realizations do not cancel; the mean must still be noise around zero
    out = ex.gg_gap(mspec, dis.rademacher(), 2, 2, ex.constant_one(), 40, seed=11)
    assert abs(out.value) <= 4.0 * out.std_error + 1e-12
    assert out.replicates == 40
    assert out.params["N"] == 4 and out.params["p"] == 2
    # the thermal combination cancels per realization
    thermal = ex.gg_thermal_gap(mspec, dis.rademacher(), 2, 2, ex.constant_one(), 6, seed=11)
    assert abs(thermal.value) <= 1e-14


# -- self-averaging -----------------------------------------------------------


def test_self_averaging_validation():
    mspec = ModelSpec(4, {2: 1.0}, 0.3)
    with pytest.raises(ex.ExperimentError):
        ex.check_self_averaging(mspec, 3, "thermal")
    with pytest.raises(ex.ExperimentError):
        ex.check_self_averaging(mspec, 2, "bogus")


@pytest.mark.parametrize("mode", ["thermal", "full"])
def test_self_averaging_zero_interaction(mode):
    mspec = ModelSpec(4, {2: 0.0}, 0.5)
    out = ex.self_averaging(mspec, dis.gaussian(), 2, 5, seed=1, mode=mode)
    assert out.value == 0.0
    assert out.std_error == 0.0


def test_self_averaging_positive_with_disorder():
    mspec = ModelSpec(4, {2: 1.0}, 0.3)
    out = ex.self_averaging(mspec, dis.gaussian(), 2, 20, seed=2, mode="thermal")
    assert out.value > 0.0
    assert out.experiment == "self-averaging-thermal"


# -- universality and interpolation ------------------------------------------


def test_universality_gap_no_disorder_dependence():
    mspec = ModelSpec(3, {2: 0.0}, 0.4)
    out = ex.universality_gap(mspec, dis.gaussian(), dis.rademacher(),
                              ex.overlap_square(), 5, seed=3)
    assert out.value == 0.0


def test_universality_same_law_consistent():
    mspec = ModelSpec(3, {2: 1.0}, 0.3)
    out = ex.universality_gap(mspec, dis.gaussian(), dis.gaussian(),
                              ex.overlap_square(), 80, seed=4)
    assert out.value <= 4.0 * out.std_error + 1e-12
    assert out.params["family_a"] == out.params["family_b"] == "gaussian"
    assert "mean_a" in out.params and "mean_b" in out.params


def test_interpolation_validation_and_shape():
    mspec = ModelSpec(3, {2: 1.0}, 0.3)
    for t in (-0.1, 1.5, float("nan")):  # refused by model.interpolated_couplings
        with pytest.raises(ModelValidationError, match="must lie in"):
            ex.check_interpolation_sweep(3, ex.overlap_square(), (0.0, t))
    rows = ex.interpolation_sweep(mspec, dis.rademacher(), (0.0, 0.5, 1.0),
                                  ex.overlap_square(), 5, seed=5)
    assert [r.params["t"] for r in rows] == [0.0, 0.5, 1.0]


def test_interpolation_flat_without_interaction():
    mspec = ModelSpec(3, {2: 0.0}, 0.4)
    rows = ex.interpolation_sweep(mspec, dis.rademacher(), (0.0, 0.3, 1.0),
                                  ex.overlap_square(), 4, seed=6)
    assert rows[0].value == rows[1].value == rows[2].value


def test_interpolation_gaussian_endpoints_agree():
    # both endpoints draw from the same law, so the population curve is flat
    mspec = ModelSpec(3, {2: 0.8}, 0.3)
    rows = ex.interpolation_sweep(mspec, dis.gaussian(), (0.0, 1.0),
                                  ex.overlap_square(), 60, seed=7)
    spread = abs(rows[0].value - rows[1].value)
    band = 4.0 * math.hypot(rows[0].std_error, rows[1].std_error)
    assert spread <= band + 1e-12


# -- cavity identity ----------------------------------------------------------


def test_cavity_identity_exact_small():
    mspec = ModelSpec(4, {2: 0.8, 3: 0.4}, 0.3)
    out = ex.cavity_identity_check(mspec, dis.gaussian(), 1, ((0,),), 10, seed=8)
    assert (out.experiment, out.std_error, out.replicates) == ("cavity-identity", 0.0, 10)
    assert sorted(out.params) == ["N", "n_cavity", "product_residual", "seed"]
    assert out.value <= 1e-10
    assert out.params["product_residual"] <= 1e-10


def test_cavity_identity_pair_sets():
    mspec = ModelSpec(5, {2: 0.6}, 0.2)
    out = ex.cavity_identity_check(mspec, dis.rademacher(), 2, ((0,), (1,), (0, 1)),
                                   8, seed=9)
    assert out.value <= 1e-10


def test_cavity_identity_validation(monkeypatch):
    """Every bad input is refused by the check, which makes no draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw was made before the inputs were checked")

    monkeypatch.setattr(ex, "sample_replicates", no_draw)
    monkeypatch.setattr(ex, "replicate_generators", no_draw)
    bad = [(4, 4, ((0,),)), (4, 1, ((3,),)), (4, -1, ()), (4, 0, ()), (5, 2, ((0, 0),))]
    for n_sites, n_cavity, sets in bad:
        with pytest.raises(ex.ExperimentError):
            ex.check_cavity_identity(n_sites, n_cavity, sets)
    with pytest.raises(ResourceCapError):
        ModelSpec(21, {2: 1.0}, 0.0)


def _cavity_residuals_one_draw(mspec, law, n_cavity, cavity_sets, exp_id, r):
    """The cavity residuals of replicate r computed from that draw alone, with
    per-path generators and unstacked arrays: the reference for the stacked
    realization."""
    n_bulk = mspec.n_sites - n_cavity
    rng_bulk = SeedPath(exp_id, r, 0).generator()
    rng_field = SeedPath(exp_id, r, 1).generator()
    size = 1 << n_bulk
    bulk = np.zeros(size)
    bulk[np.left_shift(1, np.arange(n_bulk))] = -mspec.field_h
    fields = np.zeros((n_cavity, size))
    fields[:, 0] = mspec.field_h
    for p in mspec.orders:
        coef = mspec.betas[p] * mspec.scale(p)
        bulk += tuple_coefficients(coef * law.sample(rng_bulk, (n_bulk,) * p), p)
        slots = rng_field.standard_normal((n_cavity, p) + (n_bulk,) * (p - 1))
        for j in range(n_cavity):
            fields[j] += tuple_coefficients(coef * slots[j].sum(axis=0), p - 1)
    coeffs = np.zeros((1 << n_cavity, size))
    coeffs[0] = bulk
    coeffs[np.left_shift(1, np.arange(n_cavity))] = -fields
    joint = GibbsOracle(mspec.n_sites, gibbs.fwht(coeffs.ravel()))
    shifted = gibbs.fwht(fields)
    reweighted = GibbsOracle(n_bulk, gibbs.fwht(bulk)
                             + np.logaddexp(shifted, -shifted).sum(axis=0))
    tanh_fields = np.tanh(shifted)
    worst, prod_lhs, prod_rhs = 0.0, 1.0, 1.0
    for block in cavity_sets:
        lhs = joint.moment(gibbs.sites_to_mask(n_bulk + j for j in block))
        rhs = reweighted.thermal_mean(np.prod(tanh_fields[list(block)], axis=0))
        worst = max(worst, abs(lhs - rhs))
        prod_lhs *= lhs
        prod_rhs *= rhs
    return [worst, abs(prod_lhs - prod_rhs)]


_CAVITY_MODELS = [
    (ModelSpec(12, {2: 0.8, 3: 0.4}, 0.3), dis.rademacher(), 1, ((0,),)),
    (ModelSpec(5, {2: 0.8, 3: 0.4}, 0.3), dis.gaussian(), 2, ((0,), (1,), (0, 1))),
    (ModelSpec(8, {2: 0.6, 3: 0.5}, 0.2), dis.three_point(3.0), 3, ((0, 2), (1,), (0, 1, 2))),
    (ModelSpec(3, {2: 0.9, 3: 0.7}, 0.1), dis.gaussian(), 2, ((1,), (0, 1))),
]


@pytest.mark.parametrize("model", range(len(_CAVITY_MODELS)))
def test_stacked_cavity_residuals_equal_per_draw_reference(model):
    """Chunks of 1, 2, 5 and 24 rows give, row by row, the residuals of the
    draw computed alone."""
    mspec, law, n_cavity, sets = _CAVITY_MODELS[model]
    exp_id = experiment_id(3, "cavity-identity")
    want = [_cavity_residuals_one_draw(mspec, law, n_cavity, sets, exp_id, r)
            for r in range(24)]
    for size in (1, 2, 5, 24):
        got = [row for lo in range(0, 24, size)
               for row in ex.cavity_identity_realization(
                   mspec, law, n_cavity, sets, exp_id, range(lo, min(lo + size, 24))).tolist()]
        assert got == want, size


def test_cavity_and_taylor_checks_identical_across_batch_sizes_and_workers(monkeypatch,
                                                                          assert_pooled,
                                                                          counted_forks):
    """Chunks of one row and the default chunks give the same residuals, and
    for the cavity check so do one and two workers; it honours ``workers``.
    Its 40 realizations at N = 6 are one default range, run in process, and
    40 one-row ranges on two workers, which fork one child."""
    cavity_spec = ModelSpec(6, {2: 0.8, 3: 0.4}, 0.3)
    default = ex.BATCH_ELEMS
    monkeypatch.setattr(ex, "BATCH_ELEMS", 1)
    assert_pooled(40, cavity_spec)
    cavity, taylor = {}, {}
    for elems, workers in ((1, 1), (default, 1), (1, 2), (default, 2)):
        monkeypatch.setattr(ex, "BATCH_ELEMS", elems)
        cavity[elems, workers] = ex.cavity_identity_check(
            cavity_spec, dis.gaussian(), 2, ((0,), (0, 1)), 40, seed=4, workers=workers)
        if workers == 1:
            taylor[elems] = ex.taylor_coefficient_check(
                ModelSpec(4, {2: 0.6}, 0.3), dis.gaussian(), 0.6, 0.5, 2,
                ex.overlap_square(), (1, 2, 3), 40, seed=4)
    assert len(counted_forks) == 1
    assert len({repr(run) for run in cavity.values()}) == 1, cavity
    assert len({repr(run) for run in taylor.values()}) == 1, taylor


def test_trend_suite_and_cavity_check_identical_on_one_two_and_three_workers(monkeypatch,
                                                                            counted_forks):
    """``trend_suite((4, 8), 400)`` (84 ranges) and the cavity check in
    one-row ranges (40) give the same bytes on 1, 2 and 3 workers, which
    fork 0, 1 and 2 children a map."""
    trend, cavity = set(), set()
    for workers in (1, 2, 3):
        trend.add(cli.render_csv(ex.trend_suite((4, 8), 400, seed=2, workers=workers)))
        with monkeypatch.context() as patch:
            patch.setattr(ex, "BATCH_ELEMS", 1)
            cavity.add(repr(ex.cavity_identity_check(
                ModelSpec(6, {2: 0.8, 3: 0.4}, 0.3), dis.gaussian(), 2, ((0,), (0, 1)), 40,
                seed=4, workers=workers)))
    assert len(trend) == len(cavity) == 1
    assert len(counted_forks) == 6


def test_taylor_check_equals_per_draw_realizations():
    """The worst residuals of the chunked check are those of the draws taken
    one by one, each on its own unstacked oracle."""
    mspec, law, n, fn, m_values = (ModelSpec(3, {2: 0.6}, 0.3), dis.gaussian(), 2,
                                   ex.overlap_square(), (1, 2, 4))
    exp_id = experiment_id(22, "taylor-coefficients")
    worst = {m: [0.0, 0.0] for m in m_values}
    for r in range(12):
        couplings = dis.sample_couplings(mspec, law, SeedPath(exp_id, r, 0).generator())
        vb = dis.sample_vb(0.6, 3, 0.5, SeedPath(exp_id, r, 1).generator())
        got = ex.taylor_coefficient_realization(GibbsOracle.build(mspec, couplings, vb), n,
                                                m_values, fn)
        for i, m in enumerate(m_values):
            worst[m] = [max(w, float(v)) for w, v in zip(worst[m], got[i])]
    check = ex.taylor_coefficient_check(mspec, law, 0.6, 0.5, n, fn, m_values, 12, seed=22)
    assert check == {m: {"pointwise": p, "averaged": a} for m, (p, a) in worst.items()}


# -- derivative moment sums ---------------------------------------------------


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
@pytest.mark.parametrize("fn_sites", [None, ((0,), (1,)), ((0, 1, 2),)])
def test_derivative_sum_matches_iterated_operator(n, m, fn_sites):
    fn = ex.constant_one() if fn_sites is None else ex.spin_monomial(fn_sites)
    if fn.min_replicas > n:
        pytest.skip("monomial needs more replicas")
    _, oracle = draw_oracle(3, seed=10 * n + m)
    got = ex.derivative_sum_realization(oracle, n, m, fn)
    base = fn.functional(3, n)
    direct = 0.0
    for pair in itertools.product(range(3), repeat=2):
        direct += derivative_power(pair, base, m).evaluate(oracle)
    direct /= 9.0
    assert got == pytest.approx(direct, abs=1e-10)


def test_derivative_sum_constant_function_vanishes():
    _, oracle = draw_oracle(4, seed=12)
    for m in (1, 2, 3, 4):
        got = ex.derivative_sum_realization(oracle, 2, m, ex.constant_one())
        assert got == pytest.approx(0.0, abs=1e-13)


def test_derivative_sum_rejects_overlap_function():
    _, oracle = draw_oracle(3, seed=13)
    with pytest.raises(ex.ExperimentError):
        ex.derivative_sum_realization(oracle, 2, 3, ex.overlap_square())


def test_derivative_moment_sum_estimator_params():
    mspec = ModelSpec(3, {2: 1.0}, 0.3)
    out = ex.derivative_moment_sum(mspec, dis.gaussian(), 1, 3,
                                   ex.spin_monomial(((0,),)), 5, seed=14)
    assert out.experiment == "derivative-moment-sum"
    assert out.params["m"] == 3 and out.params["n"] == 1
    assert math.isfinite(out.value) and math.isfinite(out.std_error)


# -- free energy fluctuation --------------------------------------------------


def test_estimators_called_directly_run_their_checks():
    """An estimator called outside the CLI refuses what its check refuses,
    before it maps a replicate: a nonpositive alpha (not a NaN value), one
    replicate for a variance (not a ZeroDivisionError) and an order the
    model lacks (not a KeyError)."""
    mspec = ModelSpec(4, {2: 1.0})
    with pytest.raises(ex.ExperimentError, match="alpha must be positive"):
        ex.vb_logz_increment(mspec, dis.gaussian(), 0.0, 0.5, 4, seed=0)
    with pytest.raises(ex.ExperimentError, match="at least 2 replicates"):
        ex.free_energy_fluctuation(mspec, dis.gaussian(), 1, seed=0)
    with pytest.raises(ex.ExperimentError, match="no order-3 interaction"):
        ex.self_averaging(mspec, dis.gaussian(), 3, 4, seed=0)
    # "center" is the first pass of mode "full", not a mode a caller may ask for
    with pytest.raises(ex.ExperimentError, match="unknown self-averaging mode 'center'"):
        ex.self_averaging(mspec, dis.gaussian(), 2, 4, seed=0, mode="center")


def test_library_calls_meet_the_count_and_site_rules(monkeypatch):
    """A replicate count below 1 is refused by ``check_replicates`` inside
    every map, and a site past N by ``universality_gap`` itself: each raises
    ExperimentError before any range, not a ZeroDivisionError, a residual
    of 0 over no realization or numpy's IndexError."""
    def never(rows):
        raise AssertionError("a replicate range was computed")

    mspec = ModelSpec(4, {2: 1.0})
    with pytest.raises(ex.ExperimentError, match="replicate count must be >= 1"):
        ex._map_replicates([(never, mspec)], 0, 1)
    with pytest.raises(ex.ExperimentError, match="replicate count must be >= 1"):
        ex.gg_gap(mspec, dis.gaussian(), 2, 2, ex.overlap_square(), replicates=0, seed=0)
    with pytest.raises(ex.ExperimentError, match="replicate count must be >= 1"):
        ex.cavity_identity_check(mspec, dis.gaussian(), 1, ((0,),), realizations=0, seed=0)
    with pytest.raises(ex.ExperimentError, match="site 4 out of range"):
        ex.universality_gap(mspec, dis.gaussian(), dis.rademacher(),
                            ex.spin_monomial(((4,),)), replicates=2, seed=0)
    # ``interpolation_sweep`` calls its own check: not numpy's "need at least
    # one array to stack", nor an IndexError past the 2**N states
    with pytest.raises(ex.ExperimentError, match="at least one point"):
        ex.interpolation_sweep(mspec, dis.gaussian(), (), ex.overlap_square(), 2, seed=0)
    with pytest.raises(ex.ExperimentError, match="site 9 out of range"):
        ex.interpolation_sweep(mspec, dis.gaussian(), (0.5,), ex.spin_monomial(((9,),)), 2,
                               seed=0)
    # ``model.is_count`` is every count's rule: a power of 2.5 is not read as 2,
    # a p of 2.5 is not a NaN, a worker count of 2.5, True or "2" is not run,
    # one replicate given as True is not written as true, and N = True is no size
    with pytest.raises(ex.ExperimentError, match="overlap power must be an integer"):
        ex.TestFunction("overlap-power", power=2.5)
    with pytest.raises(ex.ExperimentError, match="p must be an integer"):
        ex.gg_gap(mspec, dis.gaussian(), 2, 2.5, ex.overlap_square(), 3, seed=0)
    for workers in (2.5, True, "2"):
        with pytest.raises(ex.ExperimentError, match="worker count must be an integer"):
            ex.gg_gap(mspec, dis.gaussian(), 2, 2, ex.overlap_square(), 3, 0, workers)
    with pytest.raises(ex.ExperimentError, match="replicate count must be >= 1 and an integer"):
        ex.gg_gap(mspec, dis.gaussian(), 2, 2, ex.overlap_square(), replicates=True, seed=0)
    with pytest.raises(ModelValidationError, match="n_sites must be a positive integer"):
        ModelSpec(True)
    # so is every replica count, coefficient order, cavity count and site,
    # refused before any map: n = True is not run as n = 1, nor 2.5 left to a
    # TypeError, and a site of 1.5, True or 0.0 is not computed as site 1 or 0
    monkeypatch.setattr(ex, "_map_replicates", _no_map)
    one, square = ex.constant_one(), ex.overlap_square()
    for n in (True, 2.5):
        for estimator in (
                functools.partial(ex.gg_thermal_gap, mspec, dis.gaussian(), n, 2, one),
                functools.partial(ex.derivative_moment_sum, mspec, dis.gaussian(), n, 3, one),
                functools.partial(ex.poisson_ibp_check, mspec, dis.gaussian(), 0.5, 0.5, n, one)):
            with pytest.raises(ex.ExperimentError, match="replica count must be an integer"):
                estimator(2, 0)
        with pytest.raises(ex.ExperimentError, match="coefficient order must be an integer"):
            ex.taylor_coefficient_check(mspec, dis.gaussian(), 0.5, 0.5, 2, square, (n,), 2, 0)
        with pytest.raises(ex.ExperimentError, match="integer n_cavity"):
            ex.cavity_identity_check(mspec, dis.gaussian(), n, ((0,),), 2, 0)
    with pytest.raises(ex.ExperimentError, match="replica count must be an integer"):
        ex.gg_gap(mspec, dis.gaussian(), 2.5, 2, square, 2, 0)
    with pytest.raises(ex.ExperimentError, match="cavity site 0.0 is no integer"):
        ex.cavity_identity_check(mspec, dis.gaussian(), 1, ((0.0,),), 2, 0)
    for site in (1.5, True, 0.0):
        with pytest.raises(ex.ExperimentError, match="monomial sites must be integers"):
            ex.spin_monomial([[site]])
        with pytest.raises(ex.ExperimentError, match="monomial sites must be integers"):
            ex.TestFunction("spin-monomial", sites=((site,),))


def test_numpy_integer_counts_are_read_as_ints():
    """A numpy integer passes ``is_count`` and is held as a Python int, so no
    cap's arithmetic wraps in int64: 20**22 coupling entries stay refused."""
    mspec = ModelSpec(np.int64(4), {np.int64(2): 1.0})
    assert type(mspec.n_sites) is int and [type(p) for p in mspec.betas] == [int]
    with pytest.raises(ResourceCapError):
        ModelSpec(np.int64(20), {np.int64(22): 1.0})
    assert type(ex.TestFunction("overlap-power", power=np.int64(3)).power) is int
    sites = ex.TestFunction("spin-monomial", sites=((np.int64(1),),)).sites
    assert sites == ((1,),) and type(sites[0][0]) is int
    assert ex.resolve_workers(np.int64(2)) == 2


def _no_map(*args, **kwargs):
    raise AssertionError("a replicate map was made")


def test_library_calls_refuse_empty_sizes_and_cavity_blocks(monkeypatch):
    """``trend_suite`` and ``cavity_identity_check`` run their own checks:
    no size, no cavity block or an empty one raises ExperimentError before
    any map, not an empty result or residuals of 0 over nothing."""
    monkeypatch.setattr(ex, "_map_replicates", _no_map)
    with pytest.raises(ex.ExperimentError, match="at least one size"):
        ex.trend_suite((), 2, seed=0, workers=1)
    for cavity_sets in ((), ((),)):
        with pytest.raises(ex.ExperimentError, match="nonempty blocks"):
            ex.cavity_identity_check(ModelSpec(4, {2: 1.0}), dis.gaussian(), 1, cavity_sets, 2,
                                     seed=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, True, np.True_, 2.5, "7"])
def test_library_calls_refuse_a_seed_past_64_bits(monkeypatch, seed):
    """``experiment_id`` holds the 64-bit seed rule, so an estimator refuses
    -1 (which a mask would alias to 2**64 - 1) and 2**64 before any map, and
    so it does a bool (not run as seed 1) and a float or a string (not a
    TypeError)."""
    monkeypatch.setattr(ex, "_map_replicates", _no_map)
    for call in (lambda: experiment_id(seed, "gg-gap"),
                 lambda: ex.gg_gap(ModelSpec(4, {2: 1.0}), dis.gaussian(), 2, 2,
                                   ex.overlap_square(), 3, seed=seed),
                 lambda: ex.trend_suite((4,), 2, seed=seed, workers=1)):
        with pytest.raises(dis.DisorderValidationError, match="seed must be a 64-bit"):
            call()


def test_a_numpy_integer_seed_draws_what_the_int_draws():
    """A seed is read by ``operator.index``, so ``np.int64(7)`` is seed 7,
    not an OverflowError."""
    assert experiment_id(np.int64(7), "gg-gap") == experiment_id(7, "gg-gap")
    assert type(experiment_id(np.uint64(7), "gg-gap")) is int
    mspec = ModelSpec(4, {2: 1.0})
    got, want = (ex.gg_gap(mspec, dis.gaussian(), 2, 2, ex.overlap_square(), 3, seed=seed)
                 for seed in (np.int64(7), 7))
    assert bits_equal(got.value, want.value) and bits_equal(got.std_error, want.std_error)


_N4 = ModelSpec(4, {2: 1.0})
_REFUSED_BEFORE_ANY_JOB = {  # each on two workers, 2000 replicates at N = 4
    "gg-gap n=1": lambda: ex.gg_gap(
        _N4, dis.gaussian(), 1, 2, ex.overlap_square(), 2000, 0, 2),
    "gg-thermal-gap n=1": lambda: ex.gg_thermal_gap(
        _N4, dis.gaussian(), 1, 2, ex.overlap_square(), 2000, 0, 2),
    "derivative-moment-sum m=0": lambda: ex.derivative_moment_sum(
        _N4, dis.gaussian(), 2, 0, ex.constant_one(), 2000, 0, 2),
    "poisson-ibp beta'=0": lambda: ex.poisson_ibp_check(
        _N4, dis.gaussian(), 0.5, 0.0, 2, ex.overlap_square(), 2000, 0, 2),
    "interpolation-sweep t=1.5": lambda: ex.interpolation_sweep(
        _N4, dis.gaussian(), (0.0, 1.5), ex.overlap_square(), 2000, 0, 2),
    "taylor-coefficients m=6": lambda: ex.taylor_coefficient_check(  # runs on one worker
        _N4, dis.gaussian(), 0.5, 0.5, 2, ex.overlap_square(), (1, 6), 2000, 0),
    "taylor-coefficients no order": lambda: ex.taylor_coefficient_check(
        _N4, dis.gaussian(), 0.5, 0.5, 2, ex.overlap_square(), (), 2000, 0),
    **{f"taylor-coefficients alpha={alpha}": functools.partial(
        ex.taylor_coefficient_check, _N4, dis.gaussian(), alpha, 0.5, 2, ex.overlap_square(),
        (1,), 2000, 0) for alpha in (-1.0, 0.0, math.nan)},
    "vb-logz-increment alpha=nan": lambda: ex.vb_logz_increment(
        _N4, dis.gaussian(), math.nan, 0.5, 2000, 0, 2),
    "poisson-ibp alpha=nan": lambda: ex.poisson_ibp_check(
        _N4, dis.gaussian(), math.nan, 0.5, 2, ex.overlap_square(), 2000, 0, 2),
}


@pytest.mark.parametrize("name", sorted(_REFUSED_BEFORE_ANY_JOB))
def test_library_refusals_come_before_any_map(monkeypatch, name):
    """Each estimator calls its check before it builds its first job, so a
    bad call raises with no map made: no draw, no oracle and no pool."""
    monkeypatch.setattr(ex, "_map_replicates", _no_map)
    with pytest.raises((ex.ExperimentError, ModelValidationError)):
        _REFUSED_BEFORE_ANY_JOB[name]()


def test_taylor_check_meets_the_alpha_cap(monkeypatch):
    """The Taylor check shares the dilution's alpha cap: alpha = 1e6 is
    refused before any map, not drawn."""
    monkeypatch.setattr(ex, "_map_replicates", _no_map)
    with pytest.raises(ResourceCapError, match="cap 1024"):
        ex.taylor_coefficient_check(_N4, dis.gaussian(), 1e6, 0.5, 2, ex.overlap_square(),
                                    (1,), 2, 0)


def test_pooled_refusal_builds_no_executor(no_fork):
    """A gap with n = 1 on two workers is refused before any fork, not by
    its realization in a forked worker."""
    with pytest.raises(ex.ExperimentError, match="n >= 2"):
        _REFUSED_BEFORE_ANY_JOB["gg-gap n=1"]()


def test_free_energy_fluctuation_zero_without_disorder():
    mspec = ModelSpec(4, {2: 0.0}, 0.5)
    out = ex.free_energy_fluctuation(mspec, dis.gaussian(), 6, seed=15)
    # identical draws; the mean itself rounds, leaving variance at ulp**2
    assert abs(out.value) <= 1e-30


def test_free_energy_fluctuation_positive():
    mspec = ModelSpec(4, {2: 1.0}, 0.3)
    out = ex.free_energy_fluctuation(mspec, dis.rademacher(), 30, seed=16)
    assert out.value > 0.0
    assert out.std_error > 0.0


# -- diluted interactions -----------------------------------------------------


def test_vb_increment_validation_and_zero_coupling():
    mspec = ModelSpec(5, {2: 0.5}, 0.2)
    with pytest.raises(ex.ExperimentError):
        ex.check_vb_logz_increment(0.0)
    with pytest.raises(ResourceCapError):
        ex.check_vb_logz_increment(ex.MAX_ALPHA * 1.5)
    ex.check_vb_logz_increment(ex.MAX_ALPHA)
    out = ex.vb_logz_increment(mspec, dis.gaussian(), 0.5, 0.0, 5, seed=17)
    assert out.value == 0.0


def test_vb_increment_within_bracket():
    mspec = ModelSpec(6, {2: 0.5}, 0.2)
    beta_prime = 0.6
    out = ex.vb_logz_increment(mspec, dis.gaussian(), 0.5, beta_prime, 60, seed=18)
    slack = 4.0 * out.std_error + 1e-12
    assert out.value >= -slack
    assert out.value <= beta_prime + slack


def test_poisson_ibp_validation():
    with pytest.raises(ex.ExperimentError):
        ex.check_poisson_ibp(4, 0.0, 0.5, 2, ex.overlap_square())
    with pytest.raises(ex.ExperimentError):
        ex.check_poisson_ibp(4, 0.5, 0.0, 2, ex.overlap_square())
    with pytest.raises(ResourceCapError):
        ex.check_poisson_ibp(4, 1e300, 0.5, 2, ex.overlap_square())


def test_poisson_ibp_constant_function_exact_zero():
    # Delta_1 of a constant is the empty functional, so both sides vanish
    mspec = ModelSpec(4, {2: 0.5}, 0.2)
    out = ex.poisson_ibp_check(mspec, dis.gaussian(), 0.5, 0.4, 2,
                               ex.constant_one(), 5, seed=20)
    assert out.value == 0.0
    assert out.std_error == 0.0


def test_poisson_ibp_paired_difference_consistent_with_zero():
    mspec = ModelSpec(4, {2: 0.5}, 0.2)
    out = ex.poisson_ibp_check(mspec, dis.gaussian(), 0.5, 0.4, 2,
                               ex.overlap_square(), 150, seed=21)
    assert abs(out.value) <= 4.0 * out.std_error + 1e-12


@pytest.mark.parametrize("t", [0.4, -0.7])
def test_tilted_pair_value_matches_the_divided_ratio(t):
    # where 1 + lam p0 is far from 0 the division route is accurate, and the
    # direct tilt must agree with it entry by entry
    _, oracle = draw_oracle(4, seed=24)
    n = 2
    delta = ex.replica_difference(ex.overlap_square().functional(4, n), 1)
    graded = ex._graded_pair_sums(oracle, delta, n)
    lam = math.tanh(t)
    ratio = (sum(lam ** a * g for a, g in enumerate(graded))
             / (1.0 + lam * oracle.pair_moment_matrix(0)) ** (n + 1))
    for u, v in itertools.combinations(range(4), 2):
        assert ex._tilted_pair_value(oracle.weights, delta, u, v, t) == pytest.approx(
            ratio[u, v], abs=1e-13)


def test_tilted_pair_value_builds_no_pair_matrix(monkeypatch):
    """The one tilted entry is a factorized expectation, so no N x N pair
    matrix is gathered for any mask of Delta_1 F."""
    _, oracle = draw_oracle(4, seed=24)
    delta = ex.replica_difference(ex.overlap_square().functional(4, 2), 1)
    calls = []
    real = GibbsOracle.pair_moment_matrix
    monkeypatch.setattr(GibbsOracle, "pair_moment_matrix",
                        lambda self, *args: calls.append(args) or real(self, *args))
    assert math.isfinite(ex._tilted_pair_value(oracle.weights, delta, 0, 2, -9.0))
    assert calls == []


def _subset_graded_pair_sums(oracle, delta, n):
    """The reference for ``_graded_pair_sums``: the pair-weighted matrix
    summed over every subset S of {1..n+1}, graded by |S|."""
    return [sum(ex._pair_weighted_matrix(oracle, delta, set(subset) ^ {1})
                for subset in itertools.combinations(range(1, n + 2), size))
            for size in range(0, n + 2)]


@pytest.fixture(scope="module")
def dressed_stack():
    """Eight stacked VB-dressed rows of the p = 2 + 3 model at N = 6."""
    mspec = ModelSpec(6, {2: 1.0, 3: 0.5}, 0.3)
    return ex._on_dressed(functools.partial(GibbsOracle.build, mspec), mspec, dis.rademacher(),
                          0.5, 0.5, experiment_id(7, "graded"), range(8))


@pytest.mark.parametrize("n", range(1, 9))
def test_graded_pair_sums_match_the_subset_loop(dressed_stack, n):
    fn = ex.overlap_square() if n >= 2 else ex.spin_monomial(((0, 2),))
    delta = ex.replica_difference(fn.functional(6, n), 1)
    got = ex._graded_pair_sums(dressed_stack, delta, n)
    want = _subset_graded_pair_sums(dressed_stack, delta, n)
    assert len(got) == len(want) == n + 2
    for g, w in zip(got, want):
        assert g.shape == (8, 6, 6)
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_taylor_coefficient_identity(m, n):
    worst = ex.taylor_coefficient_check(
        ModelSpec(3, {2: 0.6}, 0.3), dis.gaussian(), 0.6, 0.5, n,
        ex.overlap_square() if n >= 2 else ex.constant_one(),
        (m,), 5, seed=22)
    assert worst[m]["pointwise"] <= 1e-9
    assert worst[m]["averaged"] <= 1e-9


def test_taylor_coefficient_order_guard():
    for m_values in ((0,), (2, 6)):
        with pytest.raises(ex.ExperimentError):
            ex.check_taylor_coefficients(3, 1, ex.constant_one(), m_values)


# -- determinism --------------------------------------------------------------


def test_estimators_reproduce_bit_for_bit():
    mspec = ModelSpec(3, {2: 1.0}, 0.3)
    a = ex.gg_gap(mspec, dis.rademacher(), 2, 2, ex.overlap_square(), 10, seed=30)
    b = ex.gg_gap(mspec, dis.rademacher(), 2, 2, ex.overlap_square(), 10, seed=30)
    assert a.value == b.value and a.std_error == b.std_error
    c = ex.gg_gap(mspec, dis.rademacher(), 2, 2, ex.overlap_square(), 10, seed=31)
    assert c.value != a.value


def test_estimators_check_before_starting_workers(no_fork):
    """Each estimator's refusals are raised by its check function, which
    forks no worker; the CLI calls it for every size before any run."""
    far = ex.spin_monomial(((13,),))
    runs = [
        lambda: ex.check_gg_thermal_gap(13, 1, 2, ex.overlap_square()),
        lambda: ex.check_gg_thermal_gap(13, 2, 0, ex.constant_one()),
        lambda: ex.check_gg_gap(13, 1, 2, ex.constant_one()),
        lambda: ex.check_gg_gap(13, 2, -1, far),
        lambda: ex.check_derivative_moment_sum(13, 2, 0, ex.constant_one()),
        lambda: ex.check_derivative_moment_sum(13, 2, 3, far),
        lambda: far.check(13, far.min_replicas),  # universality-gap
        lambda: ex.check_interpolation_sweep(13, ex.overlap_square(), ()),
        lambda: ex.check_poisson_ibp(13, 0.5, 0.5, 1, ex.overlap_square()),
    ]
    for run in runs:
        with pytest.raises(ex.ExperimentError):
            run()
    # symbolic expansions past their caps: R**7 over 8**7 site tuples, n + m = 17 labels
    capped = [
        lambda: ex.check_poisson_ibp(8, 0.5, 0.5, 2, ex.TestFunction("overlap-power", power=7)),
        lambda: ex.check_derivative_moment_sum(8, 2, 15, ex.constant_one()),
    ]
    for run in capped:
        with pytest.raises(ResourceCapError):
            run()


def test_replicate_cap_checked_before_any_work():
    def never(rows):
        raise AssertionError("a replicate range was computed")

    with pytest.raises(ResourceCapError):
        ex._map_replicates([(never, ModelSpec(4))], ex.MAX_REPLICATES + 1, 2)


def test_worker_count_does_not_change_values(assert_pooled):
    mspec = ModelSpec(13, {2: 1.0}, 0.3)
    assert_pooled(8, mspec)
    serial = ex.self_averaging(mspec, dis.gaussian(), 2, 8, seed=32, workers=1)
    pooled = ex.self_averaging(mspec, dis.gaussian(), 2, 8, seed=32, workers=2)
    assert serial.value == pooled.value
    assert serial.std_error == pooled.std_error


def _in_child(action):
    """A job that calls ``action()`` in a forked worker and returns its
    rows' indices in the calling process, which runs range 0 itself."""
    caller = os.getpid()

    def job(rows):
        if os.getpid() != caller:
            action()
        return list(rows)
    return job


def _kill_own_process():
    os.kill(os.getpid(), signal.SIGKILL)


def test_each_pooled_map_forks_and_reaps_its_own_children(counted_forks, assert_pooled):
    """A map on w workers forks w - 1 children and reaps them before it
    returns, so the next map forks afresh; the values are those of one
    worker."""
    mspec = ModelSpec(13, {2: 1.0}, 0.3)
    assert_pooled(8, mspec)

    def run(workers):
        return ex.self_averaging(mspec, dis.gaussian(), 2, 8, seed=32, workers=workers)

    first, second = run(2), run(2)
    assert len(counted_forks) == 2
    assert first == second
    assert run(3) == first == run(1)
    assert len(counted_forks) == 4


def test_killed_child_raises_and_the_next_map_runs(counted_forks, assert_pooled):
    assert_pooled(8, ModelSpec(13))
    with pytest.raises(ChildProcessError, match=rf"worker 1 .*status {int(signal.SIGKILL)}\b"):
        list(ex._map_replicates([(_in_child(_kill_own_process), ModelSpec(13))], 8, 2))
    assert list(ex._map_replicates([(list, ModelSpec(13))], 8, 2)) == [list(range(8))]
    assert len(counted_forks) == 2


class _Refused(Exception):
    pass


def test_child_exception_reaches_the_caller(counted_forks, assert_pooled):
    """An exception raised in a child is raised by the map with its type and
    message."""
    assert_pooled(8, ModelSpec(13))

    def refuse():
        raise _Refused("range refused in the child")

    with pytest.raises(_Refused, match="^range refused in the child$"):
        list(ex._map_replicates([(_in_child(refuse), ModelSpec(13))], 8, 2))
    assert len(counted_forks) == 1


def test_caller_exception_kills_and_reaps_a_sleeping_child(counted_forks, assert_pooled):
    """An exception in the caller's own share ends the map at once: the
    child, asleep in its first range, is killed and reaped."""
    assert_pooled(8, ModelSpec(13))
    caller = os.getpid()

    def job(rows):
        if os.getpid() != caller:
            time.sleep(60)
        raise _Refused("range refused in the caller")

    began = time.monotonic()
    with pytest.raises(_Refused, match="in the caller"):
        list(ex._map_replicates([(job, ModelSpec(13))], 8, 2))
    assert time.monotonic() - began < 30
    (child,) = counted_forks
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lambda_job_runs_on_two_workers(counted_forks):
    """Jobs are not pickled: a child runs the function it forked with."""
    assert list(ex._map_replicates([(lambda rows: [r * r for r in rows], ModelSpec(13))],
                                   5, 2)) == [[r * r for r in range(5)]]
    assert len(counted_forks) == 1


def test_eight_workers_on_three_ranges_fork_two_children(counted_forks):
    counted_forks.limit = 2
    assert list(ex._map_replicates([(list, ModelSpec(13))], 3, 8)) == [[0, 1, 2]]
    assert len(counted_forks) == 2


@pytest.mark.parametrize("count,workers", [(7, 3), (3, 8), (9, 2), (2, 2)])
def test_range_i_runs_in_process_i_mod_width(counted_forks, count, workers):
    """On w workers and n one-replicate ranges, range i runs in process
    i mod min(w, n): process 0 is the caller, the others its children, in
    fork order."""
    (pids,) = ex._map_replicates([(lambda rows: [os.getpid()] * len(rows), ModelSpec(13))],
                                 count, workers)
    width = min(workers, count)
    assert len(counted_forks) == width - 1
    assert pids == [([os.getpid()] + counted_forks)[i % width] for i in range(count)]


def test_child_leaves_when_its_caller_is_killed():
    """A caller SIGKILLed in its own share runs no ``finally``; its child,
    which would take 100 ranges of 0.1 s, leaves at its next range.  It
    holds the script's stdout, so the script's output ends when it exits.
    Run in a fresh interpreter, which the caller may kill."""
    script = """if True:
        import os, signal, time
        import pspinlab.experiments as ex
        from pspinlab.model import ModelSpec
        caller = os.getpid()

        def job(rows):
            if os.getpid() != caller:
                print("range", flush=True)
                time.sleep(0.1)
            else:
                time.sleep(0.5)
                os.kill(caller, signal.SIGKILL)
            return list(rows)

        list(ex._map_replicates([(job, ModelSpec(13))], 200, 2))
    """
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    began = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert 1 <= done.stdout.count("range") < 50
    assert time.monotonic() - began < 8


def test_trend_suite_shape_tiny():
    rows = ex.trend_suite(n_values=(4,), replicates=3, seed=1, workers=1)
    assert [r.experiment for r in rows] == [
        "gg-gap", "universality-gap", "self-averaging-thermal",
        "derivative-moment-sum", "derivative-moment-sum", "free-energy-fluctuation",
    ]
    orders = [r.params["m"] for r in rows if r.experiment == "derivative-moment-sum"]
    assert orders == [3, 4]



@pytest.mark.parametrize("count,n_sites,size", [(400, 4, 512), (400, 8, 32), (400, 13, 1),
                                                (37, 12, 2), (3, 4, 512), (1024, 4, 512)])
def test_map_replicates_chunks_consecutive_ranges(count, n_sites, size):
    """Ranges of size = BATCH_ELEMS >> N indices, whatever the count, the
    last one holding what is left, cover 0..count-1 once; the values come
    back in index order."""
    seen = []

    def values(rows):
        seen.append(rows)
        return [10 * r for r in rows]

    assert list(ex._map_replicates([(values, ModelSpec(n_sites))], count, 1)) == [
        [10 * r for r in range(count)]]
    assert size == ex.BATCH_ELEMS >> n_sites
    whole, rest = divmod(count, size)
    assert [len(rows) for rows in seen] == [size] * whole + [rest] * (rest > 0)
    assert [r for rows in seen for r in rows] == list(range(count))


def test_one_range_map_builds_no_pool(no_fork):
    """A count that fits one range runs in this process on two workers, and
    so does any map on one worker."""
    assert list(ex._map_replicates([(list, ModelSpec(4))], 400, 2)) == [list(range(400))]
    assert list(ex._map_replicates([(list, ModelSpec(16))], 1, 2)) == [[0]]
    assert list(ex._map_replicates([(list, ModelSpec(13))], 8, 1)) == [list(range(8))]


def _trend_jobs(monkeypatch, n_values, count):
    """The jobs ``trend_suite(n_values, count)`` maps, taken from its map
    call, which is stopped before any range runs."""
    class Stop(Exception):
        pass

    jobs = []

    def recorded(suite_jobs, suite_count, workers):
        assert suite_count == count
        jobs.extend(suite_jobs)
        raise Stop

    with monkeypatch.context() as patch:
        patch.setattr(ex, "_map_replicates", recorded)
        with pytest.raises(Stop):
            ex.trend_suite(n_values, count, workers=2)
    return jobs


def _pids(rows):
    return [os.getpid()] * len(rows)


def test_recorded_trend_run_keeps_its_task_grouping(monkeypatch, counted_forks):
    """``configs/trend-baseline.json`` on two workers.  One job a map: at
    N = 4, 8, 12 and 16 its 8, 125, 2000 and 4000 ranges (of 512, 32, 2 and
    1 replicates) alternate between this process and one child, range i in
    process i mod 2.  The suite's one map: 6 jobs at each size, one a
    series, make 36798 ranges, which alternate over the whole list, so each
    series goes on from where the one before it ended."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "trend-baseline.json"),
              encoding="utf-8") as handle:
        count = json.load(handle)["replicates"]
    assert count == 4000
    sizes = {4: 512, 8: 32, 12: 2, 16: 1}
    for n_sites in ex.TREND_SIZES:
        mspec = ModelSpec(n_sites, {2: ex.TREND_BETA}, ex.TREND_FIELD)
        (got,) = ex._map_replicates([(_pids, mspec)], count, 2)
        procs = [os.getpid(), counted_forks[-1]]
        assert got == [procs[r // sizes[n_sites] % 2] for r in range(count)], n_sites

    jobs = _trend_jobs(monkeypatch, ex.TREND_SIZES, count)
    assert [mspec.n_sites for _, mspec in jobs] == [n for n in ex.TREND_SIZES for _ in range(6)]
    got = list(ex._map_replicates([(_pids, mspec) for _, mspec in jobs], count, 2))
    procs = [os.getpid(), counted_forks[-1]]
    want, first = [], 0
    for _, mspec in jobs:
        size = sizes[mspec.n_sites]
        want.append([procs[(first + r // size) % 2] for r in range(count)])
        first += -(-count // size)
    assert got == want
    assert first == 36798
    assert len(counted_forks) == 5


def test_trend_preflight_returns_the_jobs_the_suite_maps(monkeypatch):
    """``check_trend_suite`` builds the suite: its 12 series at N = 4 and 8
    are, in order, exactly the jobs ``trend_suite`` maps at its default
    seed 7, one a series (pickled alike: same functions, laws, sizes and
    seed streams)."""
    series = ex.check_trend_suite((4, 8), 2, 7)
    assert [estimator.__name__ for estimator, _, _ in series] == [
        "gg_gap", "universality_gap", "self_averaging", "derivative_moment_sum",
        "derivative_moment_sum", "free_energy_fluctuation"] * 2
    assert [args[0].n_sites for _, args, _ in series] == [4] * 6 + [8] * 6
    mapped = _trend_jobs(monkeypatch, (4, 8), 2)
    assert len(mapped) == len(series) == 12
    assert pickle.dumps([job for *_, job in series]) == pickle.dumps(mapped)


def test_pooled_trend_suite_makes_one_map(monkeypatch, counted_forks):
    """``trend_suite((4, 8), 400)`` on two workers makes one fork-join map,
    which forks one child: the 12 jobs' 84 ranges (one of 400 replicates for
    each N = 4 series, 13 of up to 32 for each N = 8 one), in order.  Its
    rows are those of one worker."""
    maps = []
    real = ex._forked_parts
    monkeypatch.setattr(ex, "_forked_parts", lambda calls, flat, width: (
        maps.append((calls, flat, width)) or real(calls, flat, width)))
    serial = ex.trend_suite((4, 8), 400, seed=2, workers=1)
    assert maps == [] and counted_forks == []
    pooled = ex.trend_suite((4, 8), 400, seed=2, workers=2)
    assert cli.render_csv(pooled) == cli.render_csv(serial)
    assert len(counted_forks) == 1
    ((calls, flat, width),) = maps
    assert width == 2
    assert [len(list(run)) for _, run in itertools.groupby(calls)] == [1] * 6 + [13] * 6
    assert flat == [range(lo, min(lo + size, 400)) for size in [400] * 6 + [32] * 6
                    for lo in range(0, 400, size)]


def test_pool_forks_after_numpy_random_is_loaded():
    """A pooled trend suite forks before any draw in this process, so the
    map loads ``numpy.random`` first and the forked workers share the
    parent's copy.  Run in a fresh interpreter, where importing the CLI
    leaves it unloaded."""
    script = """if True:
        import sys
        import pspinlab.cli
        import pspinlab.experiments as ex
        forks = []
        real = ex._fork

        def recording():
            forks.append("numpy.random" in sys.modules)
            return real()

        loaded = "numpy.random" in sys.modules
        ex._fork = recording
        ex.trend_suite((4, 8), 64, workers=2)
        print(loaded, forks)
    """
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "False [True]"


def test_pooled_trend_suite_equals_each_estimator_alone(assert_pooled):
    """Each series of ``trend_suite((4, 8), 96)`` on two workers, one map
    for all, has the bits of its estimator called alone on one worker."""
    assert_pooled(96, ModelSpec(8, {2: ex.TREND_BETA}, ex.TREND_FIELD))
    suite = ex.trend_suite((4, 8), 96, seed=5, workers=2)
    alone = []
    fn = ex.overlap_square()
    for n_sites in (4, 8):
        mspec = ModelSpec(n_sites, {2: ex.TREND_BETA}, ex.TREND_FIELD)
        alone += [ex.gg_gap(mspec, dis.rademacher(), 2, 2, fn, 96, 5),
                  ex.universality_gap(mspec, dis.gaussian(), dis.rademacher(), fn, 96, 5),
                  ex.self_averaging(mspec, dis.gaussian(), 2, 96, 5),
                  *(ex.derivative_moment_sum(mspec, dis.gaussian(), 1, m, ex.TREND_MONOMIAL,
                                             96, 5) for m in (3, 4)),
                  ex.free_energy_fluctuation(mspec, dis.rademacher(), 96, 5)]
    assert len(suite) == len(alone) == 12
    for got, want in zip(suite, alone):
        assert (got.experiment, got.params) == (want.experiment, want.params)
        keys = ["mean_a", "mean_b"] if got.experiment == "universality-gap" else []
        for a, b in [(got.value, want.value), (got.std_error, want.std_error)] + [
                (got.params[k], want.params[k]) for k in keys]:
            assert bits_equal(a, b), (got, want)


def test_maps_run_without_operator_call(monkeypatch, counted_forks):
    """``operator.call`` is new in Python 3.11; the package supports 3.10, so
    neither the in-process nor the pooled map may need it."""
    import operator

    monkeypatch.delattr(operator, "call", raising=False)
    serial = ex.trend_suite((4,), 8, seed=3, workers=1)
    assert ex.trend_suite((4,), 8, seed=3, workers=2) == serial
    assert len(counted_forks) == 1


def test_trend_estimators_read_one_list_per_job(monkeypatch):
    """``trend_suite`` hands each estimator the one map, and each pulls one
    value list from it: every series, the universality gap's two laws
    included, is one job."""
    pulls = []

    def counted(estimator):
        def run(*args, mapped, **kwargs):
            taken = []
            estimator(*args, mapped=(taken.append(v) or v for v in mapped), **kwargs)
            pulls.append(len(taken))
        return run

    for name in ("gg_gap", "universality_gap", "self_averaging", "derivative_moment_sum",
                 "free_energy_fluctuation"):
        monkeypatch.setattr(ex, name, counted(getattr(ex, name)))
    ex.trend_suite((4, 8), 8, seed=1, workers=1)
    assert pulls == [1] * 12


def test_full_self_averaging_refuses_a_shared_map():
    """Mode "full" centers on a first pass of its own, so a map built
    beforehand (as ``trend_suite`` builds one) cannot hold its second."""
    mspec = ModelSpec(4, {2: 1.0})
    mapped = iter([[0.0] * 4])
    with pytest.raises(ValueError):
        ex.self_averaging(mspec, dis.gaussian(), 2, 4, 1, mode="full", mapped=mapped)
    assert next(mapped) == [0.0] * 4


def test_map_replicates_ranges_fit_the_coupling_cap():
    """Order 6 at N = 8 holds 8**6 coupling entries a draw, so a range
    holds mspec.max_draws = 16 rows, not the 32 of BATCH_ELEMS >> N whose
    stack would exceed MAX_COUPLING_ENTRIES."""
    mspec = ModelSpec(8, {6: 1.0})
    assert mspec.max_draws == MAX_COUPLING_ENTRIES // 8 ** 6 == 16
    seen = []

    def values(rows):
        seen.append(len(rows))
        return list(rows)

    assert list(ex._map_replicates([(values, mspec)], 400, 1)) == [list(range(400))]
    assert seen == [16] * 25


def test_trend_suite_identical_across_batch_sizes_and_workers(monkeypatch, assert_pooled):
    """Chunks of one row (BATCH_ELEMS = 1), the default chunks (one range of
    512 rows at N = 4, 32 rows at N = 8) and those of BATCH_ELEMS = 64 << 8
    (one range at N = 4, 64 rows at N = 8), serially and on two workers,
    give the same bytes; on two workers N = 8 runs in the pool."""
    default = ex.BATCH_ELEMS
    assert_pooled(512, ModelSpec(8, {2: ex.TREND_BETA}, ex.TREND_FIELD))
    runs = {}
    for elems, workers in ((1, 1), (default, 1), (64 << 8, 1), (default, 2)):
        monkeypatch.setattr(ex, "BATCH_ELEMS", elems)
        runs[elems, workers] = cli.render_csv(ex.trend_suite((4, 8), 512, seed=5,
                                                             workers=workers))
    assert len(set(runs.values())) == 1, sorted(runs)


_MIXED = ModelSpec(8, {2: 1.0, 3: 0.5}, 0.3)
_MIXED_RUNS = {
    "interpolation-sweep": lambda m: ex.interpolation_sweep(
        _MIXED, dis.rademacher(), (0.0, 0.5, 1.0), ex.overlap_square(), m, seed=5),
    "vb-logz-increment": lambda m: [ex.vb_logz_increment(
        _MIXED, dis.gaussian(), 0.5, 0.5, m, seed=5)],
    "poisson-ibp": lambda m: [ex.poisson_ibp_check(
        _MIXED, dis.rademacher(), 0.5, 0.5, 2, ex.overlap_square(), m, seed=5)],
    "gg-thermal-gap": lambda m: [ex.gg_thermal_gap(
        _MIXED, dis.rademacher(), 2, 2, ex.spin_monomial(((0, 1), (2,))), m, seed=5)],
    "self-averaging": lambda m: [ex.self_averaging(
        _MIXED, dis.gaussian(), 3, m, seed=5, mode="full")],
    "universality-gap": lambda m: [ex.universality_gap(
        _MIXED, dis.gaussian(), dis.rademacher(), ex.constant_one(), m, seed=5)],
}


@pytest.mark.parametrize("name", sorted(_MIXED_RUNS))
def test_mixed_experiments_identical_across_batch_sizes(monkeypatch, name):
    """264 replicates at N = 8 on the p = 2 + 3 model, serially, in chunks of
    one row (BATCH_ELEMS = 1), of 32 rows (the default) and of 64 rows
    (64 << 8), give the same bytes.  F = one in
    universality-gap is a constant that each chunk broadcasts to its rows."""
    runs = {}
    for elems in (1, ex.BATCH_ELEMS, 64 << 8):
        monkeypatch.setattr(ex, "BATCH_ELEMS", elems)
        runs[elems] = cli.render_csv(_MIXED_RUNS[name](264))
    assert len(set(runs.values())) == 1, runs


def test_poisson_tilts_identical_across_batch_sizes(monkeypatch):
    """At beta' = -9 some fresh-edge normalizations fall below TILT_FLOOR,
    and those entries are tilted row by row; chunks of one row and of eight
    rows give the same bytes."""
    tilts = []
    real = ex._tilted_pair_value
    monkeypatch.setattr(ex, "_tilted_pair_value", lambda *args: tilts.append(1) or real(*args))
    mspec = ModelSpec(6, {2: 1.0, 3: 0.5}, 0.3)
    runs = set()
    for elems in (1, ex.BATCH_ELEMS):
        monkeypatch.setattr(ex, "BATCH_ELEMS", elems)
        runs.add(cli.render_csv([ex.poisson_ibp_check(
            mspec, dis.rademacher(), 0.5, -9.0, 2, ex.overlap_square(), 64, seed=5)]))
    assert len(runs) == 1 and tilts


def test_free_energy_fluctuation_transforms_no_spectrum(monkeypatch):
    """Free energies read log Z only: one energy transform of the one range
    of 64 replicates (BATCH_ELEMS >> 4 = 512 rows fit), no weight transform."""
    calls = []
    real = gibbs.fwht
    monkeypatch.setattr(gibbs, "fwht", lambda vec, *args, **kwargs:
                        calls.append(np.shape(vec)) or real(vec, *args, **kwargs))
    ex.free_energy_fluctuation(ModelSpec(4, {2: 1.0}, 0.3), dis.rademacher(), 64, seed=3,
                               workers=1)
    assert calls == [(64, 16)]


def test_energy_transforms_pass_their_degree(monkeypatch):
    """On the p = 2+3 model, self-averaging at p = 2 transforms the order-2
    energies at degree 2 and the model energies at degree 3; the cavity
    check transforms the joint coefficients at 3, the cavity fields at 2 and
    the bulk at 3, and its spectrum, of the weights, with the full passes."""
    degrees = []
    real = gibbs.fwht

    def recorded(vec, degree=None, **kw):
        degrees.append(degree)
        return real(vec, degree, **kw)

    monkeypatch.setattr(gibbs, "fwht", recorded)
    monkeypatch.setattr(ex, "fwht", recorded)
    mspec = ModelSpec(6, {2: 1.0, 3: 0.5}, 0.3)
    ex.self_averaging(mspec, dis.gaussian(), 2, 4, seed=1)
    assert degrees == [2, 3]
    degrees.clear()
    ex.cavity_identity_check(mspec, dis.gaussian(), 1, ((0,),), 4, seed=1)
    assert degrees == [3, 2, 3, None]


def test_trend_draws_make_no_seed_sequence_and_no_choice(monkeypatch):
    """Serial trend draws at indices below 2**32 hash their keys over arrays
    and sample atoms without Generator.choice.  Each chunk draw builds one
    Philox and validates its stacked tables once; a chunk index makes 8
    draws (gg-gap's two streams, the universality gap's two laws,
    self-averaging, two derivative sums and the free energy).  The 64
    replicates are one range at N = 4 and two of 32 at N = 8."""
    counts = collections.Counter()

    class CountedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            counts["SeedSequence"] += 1
            super().__init__(*args, **kwargs)

    class CountedPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            counts["Philox"] += 1
            super().__init__(*args, **kwargs)

    class CountedGenerator(np.random.Generator):
        def choice(self, *args, **kwargs):
            counts["choice"] += 1
            return super().choice(*args, **kwargs)

    real_validate = CouplingAssignment.validate

    def validate(self, spec):
        counts["validate"] += 1
        return real_validate(self, spec)

    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    monkeypatch.setattr(np.random, "Philox", CountedPhilox)
    monkeypatch.setattr(np.random, "Generator", CountedGenerator)
    monkeypatch.setattr(CouplingAssignment, "validate", validate)
    ex.trend_suite((4, 8), 64, seed=3, workers=1)
    chunk_indices = sum(len(range(0, 64, ex.BATCH_ELEMS >> n)) for n in (4, 8))
    assert counts["SeedSequence"] == counts["choice"] == 0
    assert counts["Philox"] == counts["validate"] == 8 * chunk_indices == 24
