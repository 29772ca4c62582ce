"""The benchmark's workloads: the configs each one runs, made from a seed.

Every workload is a fixed amount of work per pass, so ``replicates`` (one
seed-path index of one estimator series) is a constant per pass and
replicates per second compare across commits.  Why each workload exists and
which layer change it should show is recorded in ``predictions.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

TREND_N16_M = 8
TREND_SMALL_M = 400
MIXED_M = 24

_MIXED_BETAS = {2: 1.0, 3: 0.5}
_TREND_BETAS = {2: 1.0}


@dataclass(frozen=True)
class CrossCase:
    """One spot-checked seed path: the Rademacher coupling draw, field 0.3,
    that estimator ``series`` makes at replicate ``replicate`` (stream 0)."""

    n_sites: int
    betas: dict
    series: str
    replicate: int


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[dict, ...]    # run configs, or {"verify": suite}
    replicates: int            # per pass
    cross_cases: tuple[CrossCase, ...]

    @property
    def pooled(self) -> bool:
        """Whether a step runs more than one worker process."""
        return any(s.get("workers", 1) > 1 for s in self.steps)

    def build_steps(self, seed: int) -> list[dict]:
        """Steps with the seed filled in; run.py fills in the output."""
        return [s if "verify" in s else dict(s, seed=seed, format="csv") for s in self.steps]


def _trend(n_values, replicates, workers):
    return {"experiment": "trend-suite", "params": {"n_values": list(n_values)},
            "replicates": replicates, "workers": workers}


def _mixed(experiment, n_sites, family="rademacher", params=None):
    model = {"n_sites": n_sites, "betas": {str(p): b for p, b in _MIXED_BETAS.items()},
             "field": 0.3}
    out = {"experiment": experiment, "model": model,
           "disorder": {"family": family}, "replicates": MIXED_M, "workers": 1}
    if params:
        out["params"] = params
    return out


def _cases(series, n_sites, betas, replicates):
    return tuple(CrossCase(n_sites, betas, series, r) for r in range(replicates))


WORKLOADS = {
    "trend-n16": Workload(
        "trend-n16", (_trend([16], TREND_N16_M, 1),), 6 * TREND_N16_M,
        _cases("gg-gap", 16, _TREND_BETAS, 3)),
    "trend-small": Workload(
        "trend-small", (_trend([4, 8], TREND_SMALL_M, 2),), 6 * 2 * TREND_SMALL_M,
        _cases("gg-gap", 4, _TREND_BETAS, 2) + _cases("gg-gap", 8, _TREND_BETAS, 2)),
    "mixed-p23": Workload(
        "mixed-p23",
        (_mixed("interpolation-sweep", 12, params={"t_grid": [0.0, 0.25, 0.5, 0.75, 1.0]}),
         _mixed("vb-logz-increment", 12),
         _mixed("poisson-ibp", 8),
         _mixed("gg-thermal-gap", 12,
                params={"function": {"kind": "spin-monomial", "sites": [[0, 1], [2]]}}),
         _mixed("self-averaging", 12, family="gaussian", params={"p": 3, "mode": "full"}),
         _mixed("cavity-identity", 12),
         {"experiment": "ibp-battery"},
         # the only CLI route to expansion.signed_basis
         {"verify": "expansion"}),
        6 * MIXED_M,
        _cases("gg-thermal-gap", 12, _MIXED_BETAS, 2) + _cases("poisson-ibp", 8, _MIXED_BETAS, 2)),
}
