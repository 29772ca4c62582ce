"""Cross-route spot check of the exact oracle, from outside the CLI.

For a few seed paths that a workload draws, the oracle is drawn again with
public functions and <R_12^2> is evaluated by independent routes: the star
route (XOR-kernel transforms), the pair-moment-matrix route, the factorized
moment route and, for N <= 8, the naive sum over all replica pairs.  Each
seed path is one operation; it fails when any two routes differ by more
than ``MAX_RESIDUAL``.
"""

from __future__ import annotations

from pspinlab.disorder import SeedPath, experiment_id, rademacher, sample_couplings
from pspinlab.experiments import multioverlap_sq_expectation
from pspinlab.gibbs import (
    GibbsOracle,
    naive_replica_expectation,
    overlap_power,
    overlap_product_expectation,
)
from pspinlab.model import ModelSpec

MAX_RESIDUAL = 1e-10
NAIVE_MAX_SITES = 8
FIELD = 0.3


def residual(case, seed: int) -> float:
    """Largest pairwise disagreement between the routes at one seed path."""
    mspec = ModelSpec(case.n_sites, dict(case.betas), FIELD)
    path = SeedPath(experiment_id(seed, case.series), case.replicate, 0)
    couplings = sample_couplings(mspec, rademacher(), path.generator())
    oracle = GibbsOracle.build(mspec, couplings)
    r12_sq = overlap_power(1, 2, 2, case.n_sites)
    routes = [overlap_product_expectation(oracle, [(1, 2, 2)]),
              multioverlap_sq_expectation(oracle, {1, 2}, {}),
              r12_sq.evaluate(oracle)]
    if case.n_sites <= NAIVE_MAX_SITES:
        routes.append(naive_replica_expectation(oracle, r12_sq))
    return max(routes) - min(routes)
