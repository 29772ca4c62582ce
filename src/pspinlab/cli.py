"""Configuration-driven experiment runner.

One experiment per invocation, described by a JSON config tree.  Outputs are
a fixed-schema CSV (floats printed with 17 significant digits, so reruns
with the same config and seed are byte-identical) and a manifest JSON, both
written atomically.  ``verify`` bundles small self-check suites with
pass/fail lines and exit code 1 on numeric failure.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import datetime
import gc
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import disorder as dis
from . import experiments as ex
from .disorder import DisorderValidationError, SeedPath, experiment_id, sample_couplings
from .expansion import (
    coefficient_row,
    expansion_coefficient,
    series_identity_check,
    verify_expansion,
)
from .gibbs import GibbsOracle
from .ibp import battery
from .model import ModelSpec, ModelValidationError, ResourceCapError

# Freeze the heap at exit, so the shutdown collection skips it; this runs before
# experiments' pool shutdown, registered earlier.  No output may rely on a finalizer.
atexit.register(gc.freeze)

USAGE_ERROR = 2
NUMERIC_ERROR = 1


class ConfigError(ValueError):
    """Raised when a run config is malformed or has unknown keys."""


# -- config parsing ----------------------------------------------------------

_TOP_KEYS = {"experiment", "model", "disorder", "params", "replicates", "seed",
             "output", "format", "workers"}
_MODEL_KEYS = {"n_sites", "betas", "field"}
_FUNCTION_KEYS = {"kind", "power", "sites"}


@dataclass(frozen=True)
class RunConfig:
    """A validated run request; round-trips losslessly through to_dict.
    ``values`` holds the params as their registry types, defaults filled in."""

    experiment: str
    n_sites_list: tuple[int, ...]
    betas: dict[int, float]
    field_h: float
    disorder: dict
    params: dict
    replicates: int
    seed: int
    output: str
    emit_format: str = "csv"
    workers: int | None = None
    values: dict = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "params": dict(self.params),
            "replicates": self.replicates,
            "seed": self.seed,
            "output": self.output,
            "format": self.emit_format,
        }
        if not EXPERIMENTS[self.experiment].self_contained:
            out["model"] = {
                "n_sites": list(self.n_sites_list),
                "betas": {str(p): b for p, b in self.betas.items()},
                "field": self.field_h,
            }
            out["disorder"] = dict(self.disorder)
        if self.workers is not None:
            out["workers"] = self.workers
        return out


def _is_int(value) -> bool:
    """JSON integers only: true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: no string, boolean, NaN or infinity."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer past float range
        return False


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    name = raw.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    entry = EXPERIMENTS[name]

    if entry.self_contained:
        if "model" in raw or "disorder" in raw:
            raise ConfigError(f"experiment {name!r} takes no model/disorder sections")
        sizes, betas, field_h, disorder = (), {}, 0.0, {}
    else:
        model = raw.get("model")
        if not isinstance(model, dict):
            raise ConfigError("config needs a 'model' object")
        _reject_unknown(model, _MODEL_KEYS, "model")
        n_raw = model.get("n_sites")
        sizes = tuple(n_raw) if isinstance(n_raw, list) else (n_raw,)
        if not sizes or not all(_is_int(n) for n in sizes):
            raise ConfigError(f"model.n_sites must be an integer or a nonempty list, got {n_raw!r}")
        betas_raw = model.get("betas", {})
        if not isinstance(betas_raw, dict):
            raise ConfigError("model.betas must be an object of p: beta pairs")
        betas = {}
        for key, value in betas_raw.items():
            try:
                p = int(key)
            except (TypeError, ValueError):
                p = None
            if p is None or str(p) != key:  # so no two keys name one order
                raise ConfigError(f"model.betas key {key!r} is not an integer order written "
                                  "plainly, like '2'")
            betas[p] = _convert(value, 0.0, f"model.betas[{key!r}]")
        field_h = _convert(model.get("field", 0.0), 0.0, "model.field")
        disorder = raw.get("disorder")
        if not isinstance(disorder, dict) or "family" not in disorder:
            raise ConfigError("config needs a 'disorder' object with a 'family'")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    _reject_unknown(params, set(entry.params), f"params for {name!r}")
    values = {key: _convert(params[key], default, f"params.{key}") if key in params else default
              for key, default in entry.params.items()}

    replicates = _convert(raw.get("replicates", 1), 1, "replicates")
    seed = _convert(raw.get("seed", 0), 0, "seed")
    emit = raw.get("format", "csv")
    if emit not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {emit!r}")
    workers = raw.get("workers")
    if workers is not None and not _is_int(workers):
        raise ConfigError(f"workers must be an integer, got {workers!r}")
    output = raw.get("output", "results")
    if not isinstance(output, str) or not output:
        raise ConfigError(f"output must be a directory path, got {output!r}")
    return RunConfig(name, sizes, betas, field_h, disorder or {}, dict(params),
                     replicates, seed, output, emit, workers, values)


def _build_law(spec: dict) -> dis.DisorderSpec:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("a disorder law must be an object with a 'family'")
    spec = dict(spec)
    family = spec.pop("family")
    params = {key: _convert(value, (0.0,) if isinstance(value, list) else 0.0, f"disorder.{key}")
              for key, value in spec.items()}
    try:
        return dis.by_name(family, **params)
    except DisorderValidationError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad parameters for disorder family {family!r}: {err}") from None


def _build_function(spec) -> ex.TestFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'function' must be an object with a 'kind'")
    _reject_unknown(spec, _FUNCTION_KEYS, "function")
    power = _convert(spec["power"], 0, "function power") if "power" in spec else None
    sites = spec.get("sites", [])
    if not isinstance(sites, list) or not all(
            isinstance(block, list) and all(_is_int(s) for s in block) for block in sites):
        raise ConfigError(f"function sites must be a list of lists of integers, got {sites!r}")
    return ex.TestFunction(spec["kind"], power, tuple(map(tuple, sites)))


_BUILDERS = {ex.TestFunction: _build_function, dis.DisorderSpec: _build_law}


def _convert(value, default, where: str):
    """``value`` as the type of ``default``; tuples convert element-wise.

    An integer param takes a JSON integer only, and a float param a finite
    JSON number only: nothing is silently truncated, parsed from a string or
    read as 1.
    """
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_convert(v, default[0], where) for v in value)
    if _is_int(default) and not _is_int(value):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if isinstance(default, float) and not _is_number(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    try:
        return _BUILDERS.get(type(default), type(default))(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None


# -- experiment registry -----------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """``params`` maps each allowed param to its default, whose type is the
    param's type.  ``run(config, mspec, law, **values)`` gives one size's rows;
    ``check``, with the same arguments, raises what ``run`` would refuse and
    does no work.  Self-contained experiments take no mspec and no law."""

    description: str
    params: dict
    run: Callable[..., list]
    check: Callable[..., None]
    self_contained: bool = False


def _cavity_rows(c: RunConfig, mspec: ModelSpec, law, n_cavity: int, cavity_sets):
    got = ex.cavity_identity_check(mspec, law, n_cavity, cavity_sets, c.replicates, c.seed,
                                   c.workers)
    return [ex.EstimatorResult("cavity-identity", got["max_factor_residual"], 0.0, c.replicates,
                               {"N": mspec.n_sites, "n_cavity": n_cavity,
                                "product_residual": got["product_residual"], "seed": c.seed})]


def _battery_rows(c: RunConfig):
    return [ex.EstimatorResult(
        "ibp-battery", entry["residual"], 0.0, 1,
        {"law": entry["law"], "function": entry["function"],
         "gamma": entry["gamma"], "seed": c.seed}) for entry in battery()]


_F = ex.overlap_square()

EXPERIMENTS: dict[str, Experiment] = {
    "gg-gap": Experiment(
        "replica-coupling gap linking the (n+1)-replica overlap moment to the n-replica ones",
        {"n": 2, "p": 2, "function": _F},
        lambda c, mspec, law, n, p, function: [ex.gg_gap(
            mspec, law, n, p, function, c.replicates, c.seed, c.workers)],
        lambda c, mspec, law, **v: ex.check_gg_gap(mspec.n_sites, **v)),
    "gg-thermal-gap": Experiment(
        "purely thermal replica-coupling combination over n+2 replicas",
        {"n": 2, "p": 2, "function": _F},
        lambda c, mspec, law, n, p, function: [ex.gg_thermal_gap(
            mspec, law, n, p, function, c.replicates, c.seed, c.workers)],
        lambda c, mspec, law, **v: ex.check_gg_thermal_gap(mspec.n_sites, **v)),
    "self-averaging": Experiment(
        "concentration of the order-p interaction energy "
        "(thermal variance or centered absolute deviation)",
        {"p": 2, "mode": "thermal"},
        lambda c, mspec, law, p, mode: [ex.self_averaging(
            mspec, law, p, c.replicates, c.seed, mode=mode, workers=c.workers)],
        lambda c, mspec, law, **v: ex.check_self_averaging(mspec, **v)),
    "universality-gap": Experiment(
        "difference of Gibbs averages between two disorder families",
        {"function": _F, "disorder_b": dis.rademacher()},
        lambda c, mspec, law, function, disorder_b: [ex.universality_gap(
            mspec, law, disorder_b, function, c.replicates, c.seed, c.workers)],
        lambda c, mspec, law, function, disorder_b: function.check(
            mspec.n_sites, function.min_replicas)),
    "interpolation-sweep": Experiment(
        "Gibbs average along the square-root interpolation between a law and the Gaussian",
        {"function": _F, "t_grid": (0.0, 0.5, 1.0)},
        lambda c, mspec, law, function, t_grid: ex.interpolation_sweep(
            mspec, law, t_grid, function, c.replicates, c.seed, c.workers),
        lambda c, mspec, law, **v: ex.check_interpolation_sweep(mspec.n_sites, **v)),
    "cavity-identity": Experiment(
        "two-route check of the cavity-field representation of spin marginals",
        {"n_cavity": 1, "cavity_sets": ((0,),)}, _cavity_rows,
        lambda c, mspec, law, **v: ex.check_cavity_identity(mspec.n_sites, **v)),
    "derivative-moment-sum": Experiment(
        "tuple-averaged m-th coupling derivative of a Gibbs average, via squared multi-overlaps",
        {"n": 2, "m": 4, "function": ex.spin_monomial(((0, 1, 2),))},
        lambda c, mspec, law, n, m, function: [ex.derivative_moment_sum(
            mspec, law, n, m, function, c.replicates, c.seed, c.workers)],
        lambda c, mspec, law, **v: ex.check_derivative_moment_sum(mspec.n_sites, **v)),
    "vb-logz-increment": Experiment(
        "per-edge log-partition gain from a diluted pair "
        "interaction; lies in [0, beta'] on average",
        {"alpha": 0.5, "beta_prime": 0.5},
        lambda c, mspec, law, alpha, beta_prime: [ex.vb_logz_increment(
            mspec, law, alpha, beta_prime, c.replicates, c.seed, workers=c.workers)],
        lambda c, mspec, law, alpha, beta_prime: ex.check_vb_logz_increment(alpha)),
    "poisson-ibp": Experiment(
        "paired two-sided check of the Poisson integration-by-parts identity for the diluted term",
        {"alpha": 0.5, "beta_prime": 0.5, "n": 2, "function": _F},
        lambda c, mspec, law, alpha, beta_prime, n, function: [ex.poisson_ibp_check(
            mspec, law, alpha, beta_prime, n, function, c.replicates, c.seed,
            workers=c.workers)],
        lambda c, mspec, law, **v: ex.check_poisson_ibp(mspec.n_sites, **v)),
    "free-energy-fluctuation": Experiment(
        "disorder variance of the free energy density",
        {}, lambda c, mspec, law: [ex.free_energy_fluctuation(
            mspec, law, c.replicates, c.seed, c.workers)],
        lambda c, mspec, law: ex.check_free_energy_fluctuation(c.replicates)),
    "ibp-battery": Experiment(
        "approximate-integration-by-parts remainders and envelope "
        "bounds over the standard laws and smooth functions",
        {}, _battery_rows, lambda c: None, self_contained=True),
    "trend-suite": Experiment(
        "the recorded six-series finite-size trend battery",
        {"n_values": ex.TREND_SIZES},
        lambda c, n_values: ex.trend_suite(n_values, c.replicates, c.seed, c.workers),
        lambda c, n_values: ex.check_trend_suite(n_values, c.replicates),
        self_contained=True),
}


def _dispatch(config: RunConfig) -> list[ex.EstimatorResult]:
    """Check every size, then make the output directory and run every size:
    a refused request computes nothing and leaves no directory."""
    entry = EXPERIMENTS[config.experiment]
    sizes = [()]
    if not entry.self_contained:
        law = _build_law(config.disorder)
        sizes = [(ModelSpec(n_sites, dict(config.betas), config.field_h), law)
                 for n_sites in config.n_sites_list]
    for args in sizes:
        entry.check(config, *args, **config.values)
    _on_output(os.makedirs, config.output, exist_ok=True)
    return [row for args in sizes for row in entry.run(config, *args, **config.values)]


# -- output writing ----------------------------------------------------------

CSV_HEADER = ("experiment", "N", "n", "p", "param_key", "param_value",
              "value", "std_error", "replicates", "seed")
_STRUCTURAL = ("N", "n", "p", "seed")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def result_rows(results: list[ex.EstimatorResult]) -> list[tuple[str, ...]]:
    rows = []
    for r in results:
        params = dict(r.params)
        structural = {k: params.pop(k, "") for k in _STRUCTURAL}
        leftovers = sorted(params.items())
        rows.append((
            r.experiment,
            _fmt(structural["N"]),
            _fmt(structural["n"]),
            _fmt(structural["p"]),
            "|".join(k for k, _ in leftovers),
            "|".join(_fmt(v) for _, v in leftovers),
            _fmt(float(r.value)),
            _fmt(float(r.std_error)),
            _fmt(r.replicates),
            _fmt(structural["seed"]),
        ))
    return rows


def render_csv(results: list[ex.EstimatorResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(result_rows(results))
    return buf.getvalue()


def render_json(results: list[ex.EstimatorResult]) -> str:
    rows = [dict(zip(CSV_HEADER, row)) for row in result_rows(results)]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_outputs(config: RunConfig, results: list[ex.EstimatorResult],
                  elapsed: float) -> list[str]:
    """Write the results and the manifest into the existing ``config.output``."""
    ext = "csv" if config.emit_format == "csv" else "json"
    result_path = os.path.join(config.output, f"{config.experiment}-{config.seed}.{ext}")
    text = render_csv(results) if ext == "csv" else render_json(results)
    _write_atomic(result_path, text)
    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_clock_seconds": elapsed,
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "outputs": [os.path.basename(result_path)],
        "status": "ok",
    }
    manifest_path = os.path.join(config.output,
                                 f"{config.experiment}-{config.seed}-manifest.json")
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [result_path, manifest_path]


# -- verify suites -----------------------------------------------------------


@dataclass
class _Check:
    name: str
    value: float
    bound: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.value <= self.bound


def _checks_expansion() -> list[_Check]:
    known = {(2, 1): 1, (3, 1): 1, (3, 2): -2, (4, 1): 1, (4, 2): -8}
    exact = max(abs(expansion_coefficient(m, a) - v) for (m, a), v in known.items())
    support = 0.0
    for m in range(1, 21):
        row = coefficient_row(m)
        tail = [row[0]] + row[(m + 1) // 2 + 1:]
        support = max(support, max(abs(c) for c in tail))
    worst = 0.0
    eid = experiment_id(101, "verify-expansion")
    for draw, law in enumerate((dis.gaussian(), dis.rademacher())):
        for n_sites in (2, 3):
            mspec = ModelSpec(n_sites, {2: 0.8}, 0.25)
            oracle = GibbsOracle.build(mspec, sample_couplings(
                mspec, law, SeedPath(eid, draw, n_sites).generator()))
            fns = [ex.spin_monomial(((0,),)).functional(n_sites, 1),
                   ex.overlap_square().functional(n_sites, 2)]
            for fn in fns:
                for m in range(1, 5):
                    lhs, rhs = verify_expansion(oracle, (0, min(1, n_sites - 1)), fn, m)
                    worst = max(worst, abs(lhs - rhs))
    return [_Check("coefficient-table-exact", exact, 0.0),
            _Check("coefficient-support", support, 0.0),
            _Check("derivative-expansion-residual", worst, 1e-9)]


def _checks_ibp() -> list[_Check]:
    rows = battery()
    residual = max(abs(r["residual"]) for r in rows)
    slack = min(r["envelope_slack"] for r in rows)
    gauss = max(abs(r["gamma"]) for r in rows if r["law"] == "gaussian")
    cube = [r for r in rows if r["law"] == "rademacher" and r["function"] == "cube"]
    cube_err = abs(cube[0]["gamma"] + 2.0) if cube else math.inf
    return [_Check("ibp-identity-residual", residual, 1e-8),
            _Check("ibp-envelope-violation", max(0.0, -slack), 1e-12),
            _Check("gaussian-remainder", gauss, 1e-8),
            _Check("rademacher-cube-remainder", cube_err, 1e-10)]


def _checks_cavity() -> list[_Check]:
    worst = 0.0
    for n_full, n_cavity, sets in ((4, 1, ((0,),)), (5, 2, ((0,), (0, 1)))):
        mspec = ModelSpec(n_full, {2: 0.8, 3: 0.4}, 0.25)
        got = ex.cavity_identity_check(mspec, dis.rademacher(), n_cavity, sets,
                                       realizations=10, seed=31)
        worst = max(worst, got["max_factor_residual"], got["product_residual"])
    return [_Check("cavity-identity-residual", worst, 1e-10)]


def _checks_gg() -> list[_Check]:
    mspec = ModelSpec(4, {2: 0.9}, 0.3)
    oracle = GibbsOracle.build(mspec, dis.sample_replicates(
        mspec, dis.golden_skew(), experiment_id(57, "verify-gg"), range(10), 0))
    worst = max(float(abs(gap).max()) for n in (2, 3)
                for gap in (ex.gg_gap_realization(oracle, oracle, n, 2, ex.constant_one()),
                            ex.gg_thermal_gap_realization(oracle, n, 2, ex.constant_one())))
    return [_Check("gg-exact-zero", worst, 1e-12)]


def _checks_universality() -> list[_Check]:
    mspec_free = ModelSpec(4, {2: 0.0}, 0.3)
    free = ex.universality_gap(mspec_free, dis.gaussian(), dis.rademacher(),
                               ex.overlap_square(), replicates=5, seed=5)
    mspec = ModelSpec(4, {2: 1.0}, 0.3)
    same = ex.universality_gap(mspec, dis.rademacher(), dis.rademacher(),
                               ex.overlap_square(), replicates=80, seed=5)
    margin = max(0.0, same.value - 4.0 * same.std_error)
    return [_Check("free-model-gap", free.value, 0.0),
            _Check("same-law-gap-4sigma", margin, 0.0)]


def _checks_vb() -> list[_Check]:
    mspec = ModelSpec(4, {2: 0.6}, 0.2)
    law = dis.rademacher()
    zero = ex.vb_logz_increment(mspec, law, 0.5, 0.0, replicates=10, seed=61)
    series_worst = 0.0
    rng = SeedPath(experiment_id(61, "verify-vb"), 0, 0).generator()
    for _ in range(20):
        n = int(rng.integers(1, 4))
        coeffs = rng.standard_normal(n + 2)
        b = float(rng.uniform(-1.0, 1.0))
        x = float(rng.uniform(-0.4, 0.4))
        got = series_identity_check(tuple(coeffs), b, x, n)
        series_worst = max(series_worst, got["residual"] - got["tail_bound"])
    worst_taylor = 0.0
    checks = ex.taylor_coefficient_check(mspec, law, 0.5, 0.5, 2, ex.overlap_square(),
                                         m_values=(1, 2), realizations=3, seed=61)
    for res in checks.values():
        worst_taylor = max(worst_taylor, res["pointwise"], res["averaged"])
    paired = ex.poisson_ibp_check(mspec, law, 0.5, 0.5, 2, ex.overlap_square(),
                                  replicates=150, seed=61)
    margin = max(0.0, abs(paired.value) - 4.0 * paired.std_error)
    return [_Check("vb-zero-coupling", abs(zero.value), 0.0),
            _Check("series-identity-residual", series_worst, 1e-12),
            _Check("taylor-coefficient-residual", worst_taylor, 1e-9),
            _Check("poisson-ibp-4sigma", margin, 0.0)]


_VERIFY = {
    "expansion": _checks_expansion,
    "ibp": _checks_ibp,
    "cavity": _checks_cavity,
    "gg": _checks_gg,
    "universality": _checks_universality,
    "vb": _checks_vb,
}
VERIFY_SUITES = tuple(_VERIFY)


def _on_output(action, *args, **kwargs):
    """``action(*args, **kwargs)``, which makes or writes the output
    directory; its OSError is raised as a ConfigError."""
    try:
        return action(*args, **kwargs)
    except OSError as err:
        raise ConfigError(f"cannot write output: {err}") from err


def run_verify(suite: str, output: str | None = None) -> int:
    try:
        if output is not None:
            _on_output(os.makedirs, output, exist_ok=True)  # before the checks run
        checks = _VERIFY[suite]()
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name}: {_fmt(c.value)} <= {_fmt(c.bound)}")
        if output is not None:
            results = [ex.EstimatorResult(f"verify-{suite}", c.value, 0.0, 1,
                                          {"check": c.name, "bound": c.bound, "seed": 0})
                       for c in checks]
            path = os.path.join(output, f"verify-{suite}.csv")
            _on_output(_write_atomic, path, render_csv(results))
            print(f"wrote {path}")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if all(c.passed for c in checks) else NUMERIC_ERROR


# -- entry point -------------------------------------------------------------


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is a ConfigError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"key {key!r} is given twice in one object")
        out[key] = value
    return out


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None


def run_config_file(path: str, workers_override: int | None = None) -> int:
    try:
        config = parse_config(_load_config(path))
        if workers_override is not None:
            config = replace(config, workers=workers_override)
        ex.resolve_workers(config.workers)  # a bad count exits before any work
        ex.check_replicates(config.replicates)
        experiment_id(config.seed, config.experiment)  # and a seed outside 64 bits
        started = time.monotonic()
        results = _dispatch(config)
        paths = _on_output(write_outputs, config, results, time.monotonic() - started)
    except (ConfigError, ModelValidationError, DisorderValidationError,
            ex.ExperimentError, ResourceCapError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    for row in result_rows(results):
        print(",".join(row))
    for p in paths:
        print(f"wrote {p}")
    if any(not math.isfinite(float(r.value)) for r in results):
        print("error: non-finite estimate in results", file=sys.stderr)
        return NUMERIC_ERROR
    return 0


def list_experiments() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pspinlab",
        description="Exact-oracle experiment runner for mixed p-spin models.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment from a JSON config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes (overrides the config's workers)")
    sub.add_parser("list", help="list available experiments")
    p_verify = sub.add_parser("verify", help="run a built-in check suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--output", default=None, help="directory for a results CSV")
    args = parser.parse_args(argv)
    if args.command == "list":
        return list_experiments()
    if args.command == "verify":
        return run_verify(args.suite, args.output)
    return run_config_file(args.config, args.workers)


if __name__ == "__main__":
    sys.exit(main())
