"""Estimator experiments built on the exact oracle.

Every experiment follows one pattern: a replicate index is mapped through a
seed path to its own counter-based stream, the per-replicate quantity is an
exact thermal computation on a freshly drawn disorder realization, and the
Monte Carlo part is only the average over realizations.  Replicates are
computed in chunks of consecutive indices: one generator, re-keyed to each
index's stream in turn, draws the chunk's tables, they make one oracle over
a stack of rows, and a realization answers every row in one call.  Each
row is bit-identical to its own oracle, so no value depends on the chunk
size.  Reductions use exact summation (math.fsum), so results do not
depend on reduction order or on the worker count.  An estimator's work is
one job, a replicate function that names the (law, stream) draws it reads,
and ``_map_replicates`` maps it to one value list; ``trend_suite`` maps one
job per series in one call.  ``_estimate`` is the pattern for every
estimator that reports a mean with its standard error.
Each estimator's refusals live in one ``check_*`` function, which draws
nothing; every estimator calls it before it builds its first job.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from . import disorder as dis
from .disorder import (
    DisorderSpec,
    experiment_id,
    replicate_generators,
    sample_replicates,
    sample_vb,
)
from .expansion import MAX_EXPANSION_REPLICAS, basis_labels, derivative_power_tuple_sum
from .gibbs import (
    GibbsOracle,
    ReplicaFunctional,
    fwht,
    overlap_power,
    overlap_product_expectation,
    replica_difference,
    sites_to_mask,
)
from .model import (CouplingAssignment, ModelSpec, ResourceCapError, interpolated_couplings,
                    is_count, tuple_coefficients)


class ExperimentError(ValueError):
    """Raised for invalid experiment parameters."""


@dataclass(frozen=True)
class EstimatorResult:
    """One scalar estimate with its uncertainty and provenance."""

    experiment: str
    value: float
    std_error: float
    replicates: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TestFunction:
    """A bounded replica functional from the standard test family.

    kinds:
        "one": the constant functional.
        "overlap-power": R_{1,2}**power (default power 2; in [0, 1] for even powers).
        "spin-monomial": prod_l prod_{j in sites[l]} sigma_j^l with 0-based
            sites, at most two sites per replica in the standard suite.
    """

    kind: str
    power: int | None = None
    sites: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("one", "overlap-power", "spin-monomial"):
            raise ExperimentError(f"unknown test-function kind {self.kind!r}")
        if self.kind != "overlap-power" and self.power is not None:
            raise ExperimentError(f"test function {self.kind!r} takes no power")
        if self.kind != "spin-monomial" and self.sites:  # masks would read them as F's
            raise ExperimentError(f"test function {self.kind!r} takes no sites")
        if not all(map(is_count, itertools.chain(*self.sites))):
            raise ExperimentError(f"monomial sites must be integers, got {self.sites!r}")
        object.__setattr__(self, "sites", tuple(tuple(map(operator.index, b)) for b in self.sites))
        if self.kind == "overlap-power":
            power = 2 if self.power is None else self.power
            if not is_count(power) or power < 1:
                raise ExperimentError(f"overlap power must be an integer >= 1, got {power!r}")
            object.__setattr__(self, "power", operator.index(power))

    @property
    def min_replicas(self) -> int:
        if self.kind == "overlap-power":
            return 2
        return max(1, len(self.sites))

    @property
    def label(self) -> str:
        if self.kind == "one":
            return "one"
        if self.kind == "overlap-power":
            return f"overlap^{self.power}"
        inner = ";".join(",".join(str(s) for s in block) for block in self.sites)
        return f"monomial[{inner}]"

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """Overlap edges (l1, l2, power) of F; empty unless F is an overlap power."""
        return [(1, 2, self.power)] if self.kind == "overlap-power" else []

    @property
    def masks(self) -> dict[int, int]:
        """Nonzero parity masks of F's spin monomial by replica; empty for the
        other kinds."""
        masks = {l: sites_to_mask(block) for l, block in enumerate(self.sites, start=1)}
        return {l: mask for l, mask in masks.items() if mask}

    def check(self, n_sites: int, n_replicas: int) -> None:
        """Raise ExperimentError unless F lives on n_replicas replicas of N sites;
        more than MAX_EXPANSION_REPLICAS replicas raise ResourceCapError."""
        if not is_count(n_replicas):
            raise ExperimentError(f"the replica count must be an integer, got {n_replicas!r}")
        if n_replicas > MAX_EXPANSION_REPLICAS:
            raise ResourceCapError(
                f"{n_replicas} replicas requested (cap {MAX_EXPANSION_REPLICAS})")
        if n_replicas < self.min_replicas:
            raise ExperimentError(
                f"{self.label} needs at least {self.min_replicas} replicas, got {n_replicas}"
            )
        for block in self.sites:
            for s in block:
                if not 0 <= s < n_sites:
                    raise ExperimentError(f"site {s} out of range for N={n_sites}")

    def functional(self, n_sites: int, n_replicas: int) -> ReplicaFunctional:
        self.check(n_sites, n_replicas)
        if self.kind == "one":
            return ReplicaFunctional.one(n_replicas)
        if self.kind == "overlap-power":
            return overlap_power(1, 2, self.power, n_sites, n_replicas)
        return ReplicaFunctional.monomial(
            {l + 1: block for l, block in enumerate(self.sites)}, n_replicas)


def constant_one() -> TestFunction:
    return TestFunction("one")


def overlap_square() -> TestFunction:
    return TestFunction("overlap-power", power=2)


def spin_monomial(sites) -> TestFunction:
    return TestFunction("spin-monomial", sites=tuple(map(tuple, sites)))


def default_suite(n_sites: int) -> list[TestFunction]:
    out = [constant_one(), overlap_square(), spin_monomial(((0,), (1,)))]
    if n_sites >= 3:
        out.append(spin_monomial(((0, 1), (2,))))
    return out


# -- reductions and replicate mapping ---------------------------------------


def mean_stderr(values) -> tuple[float, float]:
    values = list(values)
    m = len(values)
    mean = math.fsum(values) / m
    if m < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


MAX_WORKERS = 64
"""Largest worker count accepted.  The count is the processes that compute a
map's ranges, the calling one included; a map forks at most one fewer
children, and the cap is checked before any fork."""


def resolve_workers(workers: int | None) -> int:
    """The worker count: ``workers``, else the CPU count capped at
    MAX_WORKERS.  A requested count that is no integer (``is_count``) or is
    below 1 raises ExperimentError, one above the cap ResourceCapError."""
    if workers is None:
        return min(os.cpu_count() or 1, MAX_WORKERS)
    if not is_count(workers):
        raise ExperimentError(f"the worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ExperimentError(f"the worker count must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ResourceCapError(f"{workers} workers requested (cap {MAX_WORKERS})")
    return operator.index(workers)


MAX_REPLICATES = 1 << 20
"""Largest replicate count one map accepts; it is checked before any range,
value list or process is made for the count."""

BATCH_ELEMS = 1 << 13
"""Entries in one stacked (rows, 2**N) array of a replicate chunk: 64 KB of
float64.  A chunk has at most BATCH_ELEMS >> N rows, so from N = 13 on it
is one replicate."""


def check_replicates(count: int) -> None:
    if not is_count(count) or count < 1:
        raise ExperimentError(f"the replicate count must be >= 1 and an integer, got {count!r}")
    if count > MAX_REPLICATES:
        raise ResourceCapError(f"{count} replicates requested (cap {MAX_REPLICATES})")


def _map_replicates(jobs, count: int, workers: int | None):
    """The values of replicates 0..count-1 of every job, as an iterator that
    yields one list per job, in job order, each in index order regardless of
    scheduling.  A job is a pair ``(fn, mspec)``: ``fn(rows)`` returns the
    values of a range of indices as an array whose first axis runs over the
    range, or one value for all of it.

    A job's range holds min(BATCH_ELEMS >> N, mspec.max_draws) indices, at
    least one, for any count and workers: its draws fit MAX_COUPLING_ENTRIES
    if one does.  On more than one worker, with at least two ranges in all,
    every job's ranges make one fork-join map (``_forked_parts``), which
    runs when the iterator first advances; otherwise each job's ranges run
    in process when the iterator reaches the job.  A count outside
    1..MAX_REPLICATES, or a bad worker count, raises its error before any
    range is made.
    """
    check_replicates(count)
    n_workers = resolve_workers(workers)
    ranges = [[range(lo, min(lo + size, count)) for lo in range(0, count, size)]
              for size in (max(1, min(BATCH_ELEMS >> mspec.n_sites, mspec.max_draws))
                           for _, mspec in jobs)]
    return _job_values([fn for fn, _ in jobs], ranges, n_workers)


def _call(fn, rows):
    return fn(rows)


def _job_values(fns, ranges, n_workers: int):
    """``_map_replicates``'s iterator: ``ranges[i]`` are the ranges of ``fns[i]``."""
    calls = [fn for fn, job in zip(fns, ranges) for _ in job]
    flat = [rows for job in ranges for rows in job]
    if n_workers <= 1 or len(flat) < 2:
        parts = map(_call, calls, flat)
    else:
        parts = iter(_forked_parts(calls, flat, min(n_workers, len(flat))))
    for job in ranges:
        # zip ends at the job's last range before it takes another part
        yield [value for rows, part in zip(job, parts)
               for value in np.broadcast_to(part, (len(rows),) + np.shape(part)[1:]).tolist()]


def _fork() -> int:
    """``os.fork``: the one call by which a map starts a process."""
    return os.fork()


def _forked_parts(calls, flat, width: int) -> list:
    """The part of every range of ``flat``, in order, computed by ``width``
    processes: range i runs in process i mod width, where process 0 is this
    one and the others are children it forks through ``_fork``, after
    loading ``numpy.random`` once for all of them.  A child sees module
    state as it is at the fork.  It sends back its parts, or the exception
    that stopped them, which is raised here with its type and message; a
    child that dies without sending raises ChildProcessError with its
    worker index and wait status.  This process computes its own share,
    then reads and reaps each child in turn.  Whatever ends the map, every
    child not yet reaped is killed and reaped, so none outlives it.
    Results do not depend on which process ran a range, since every
    replicate draws from its own stream.
    """
    import signal
    import numpy.random  # noqa: F401
    live, reads, caller = {}, [], os.getpid()
    try:
        for worker in range(1, width):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = _fork()
                if pid == 0:
                    _child(write, calls[worker::width], flat[worker::width], caller)
            finally:
                os.close(write)
            live[worker] = pid
        parts = [None] * len(flat)
        parts[::width] = map(_call, calls[::width], flat[::width])
        for worker, read in enumerate(reads, 1):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            status = os.waitpid(live.pop(worker), 0)[1]
            if status:
                raise ChildProcessError(f"map worker {worker} ended with wait status {status}")
            got = pickle.loads(sent)
            if isinstance(got, BaseException):
                raise got
            parts[worker::width] = got
        return parts
    finally:
        for pid in live.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)


def _child(write: int, calls, flat, caller: int):
    """A forked map worker's whole life: it computes the parts of ``flat``,
    sends them, or the exception that stopped them, pickled through the
    pipe end ``write``, and leaves by ``os._exit``, so nothing of the
    caller's stack, its exit callbacks or its buffered output runs here.
    It leaves at once if, between two ranges, it finds that ``caller`` is
    no longer its parent: a caller killed by a signal cannot reap it."""
    status = 1
    try:
        try:
            got = []
            for fn, rows in zip(calls, flat):
                if os.getppid() != caller:
                    return
                got.append(fn(rows))
        except BaseException as err:  # sent on, the caller raises it
            got = err
        with open(write, "wb", closefd=False) as pipe:
            pickle.dump(got, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _job(mspec: ModelSpec, seed: int, key: str, replicates_fn):
    """The job of ``replicates_fn(exp_id, rows)`` on the seed stream keyed by ``key``."""
    return functools.partial(replicates_fn, experiment_id(seed, key)), mspec


def _estimate(name: str, values, replicates: int, seed: int, params: dict) -> EstimatorResult:
    """Mean and standard error of ``values``."""
    value, err = mean_stderr(values)
    return EstimatorResult(name, value, err, replicates, {**params, "seed": seed})


def _on_batch(realization, mspec: ModelSpec, draws, exp_id: int, rows: range):
    """``realization`` of one oracle per ``(law, stream)`` pair of ``draws``,
    in order, each over that stream's coupling draws of replicates ``rows``."""
    oracles = [GibbsOracle.build(mspec, sample_replicates(mspec, law, exp_id, rows, stream))
               for law, stream in draws]
    return realization(*oracles)


def _fsum(terms):
    """math.fsum of the terms for each row (each a scalar or an array over
    the rows): exact, so no row depends on another."""
    terms = np.broadcast_arrays(*terms)
    if not terms:
        return 0.0
    rows = np.stack(terms, axis=-1)
    sums = [math.fsum(row) for row in rows.reshape(-1, len(terms)).tolist()]
    return np.reshape(sums, rows.shape[:-1])[()]


def _on_dressed(realization, mspec: ModelSpec, law: DisorderSpec, alpha: float,
                beta_prime: float, exp_id: int, rows: range):
    """``realization`` of the replicates' stacked couplings (stream 0) and
    their diluted pair interactions, one per row (stream 1)."""
    couplings = sample_replicates(mspec, law, exp_id, rows, 0)
    return realization(couplings, [sample_vb(alpha, mspec.n_sites, beta_prime, rng)
                                   for rng in replicate_generators(exp_id, rows, 1)])


# -- replica-coupling gaps ---------------------------------------------------


def _f_expectation(oracle: GibbsOracle, fn: TestFunction):
    return overlap_product_expectation(oracle, fn.edges, fn.masks)


def _coupled_expectation(oracle: GibbsOracle, fn: TestFunction, a: int, b: int, power: int):
    """<R_{a,b}**power * F>."""
    return overlap_product_expectation(oracle, fn.edges + [(a, b, power)], fn.masks)


def gg_gap_realization(oracle: GibbsOracle, oracle_indep: GibbsOracle, n: int, p: int,
                       fn: TestFunction):
    """One-realization value of the replica-coupling gap, for each row.

    <R_{1,n+1}^p F> - (1/n) <R_{1,2}^p>' <F> - (1/n) sum_{l=2..n} <R_{1,l}^p F>,
    where the primed average may come from an independent realization.  With
    oracle_indep is oracle and F constant the value cancels identically.
    """
    check_gg_gap(oracle.n_sites, n, p, fn)
    lead = _coupled_expectation(oracle, fn, 1, n + 1, p)
    boundary = oracle_indep.overlap_power_moment(p) * _f_expectation(oracle, fn)
    inner = _fsum(_coupled_expectation(oracle, fn, 1, l, p) for l in range(2, n + 1))
    return lead - boundary / n - inner / n


def check_gg_gap(n_sites: int, n: int, p: int, function: TestFunction) -> None:
    if n < 2:
        raise ExperimentError(f"the gap needs n >= 2 replicas, got {n}")
    check_gg_thermal_gap(n_sites, n, p, function)


def _gg_gap_job(mspec: ModelSpec, law: DisorderSpec, n: int, p: int, fn: TestFunction,
                seed: int):
    check_gg_gap(mspec.n_sites, n, p, fn)
    realization = functools.partial(gg_gap_realization, n=n, p=p, fn=fn)
    return _job(mspec, seed, "gg-gap", functools.partial(
        _on_batch, realization, mspec, ((law, 0), (law, 1))))


def gg_gap(mspec: ModelSpec, law: DisorderSpec, n: int, p: int, fn: TestFunction,
           replicates: int, seed: int, workers: int | None = 1, *,
           mapped=None) -> EstimatorResult:
    """Disorder average of the replica-coupling gap; the product term uses an
    independent realization per replicate so it is unbiased for E<R^p> E<F>.
    ``mapped`` is as in ``trend_suite``."""
    values = next(_map_replicates([_gg_gap_job(mspec, law, n, p, fn, seed)], replicates,
                                  workers) if mapped is None else mapped)
    return _estimate("gg-gap", values, replicates, seed,
                     {"N": mspec.n_sites, "n": n, "p": p, "F": fn.label})


def gg_thermal_gap_realization(oracle: GibbsOracle, n: int, p: int, fn: TestFunction):
    """Purely thermal coupling combination, for each row; vanishes
    identically for F = 1.

    2 sum_{l<l'<=n} <R_{l,l'}^p F> - 2n sum_{l<=n} <R_{l,n+1}^p F>
    + n(n+1) <R_{n+1,n+2}^p F>.
    """
    check_gg_thermal_gap(oracle.n_sites, n, p, fn)
    coupled = functools.partial(_coupled_expectation, oracle, fn, power=p)
    first = _fsum(coupled(a, b) for a, b in itertools.combinations(range(1, n + 1), 2))
    second = _fsum(coupled(l, n + 1) for l in range(1, n + 1))
    third = coupled(n + 1, n + 2)
    return 2.0 * first - 2.0 * n * second + n * (n + 1) * third


def check_gg_thermal_gap(n_sites: int, n: int, p: int, function: TestFunction) -> None:
    if not is_count(p) or p < 1:
        raise ExperimentError(f"p must be an integer >= 1, got {p!r}")
    function.check(n_sites, n)


def gg_thermal_gap(mspec: ModelSpec, law: DisorderSpec, n: int, p: int, fn: TestFunction,
                   replicates: int, seed: int, workers: int | None = 1) -> EstimatorResult:
    check_gg_thermal_gap(mspec.n_sites, n, p, fn)
    realization = functools.partial(gg_thermal_gap_realization, n=n, p=p, fn=fn)
    (values,) = _map_replicates([_job(mspec, seed, "gg-thermal-gap", functools.partial(
        _on_batch, realization, mspec, ((law, 0),)))], replicates, workers)
    return _estimate("gg-thermal-gap", values, replicates, seed,
                     {"N": mspec.n_sites, "n": n, "p": p, "F": fn.label})


# -- self-averaging ----------------------------------------------------------


def _self_avg_value(oracle: GibbsOracle, values: np.ndarray, mode: str, center: float):
    """The order-p energy statistic of each draw, ``values`` holding its
    order-p energies: the thermal variance ("thermal"), the thermal mean
    ("center") or the mean absolute deviation from ``center`` ("full")."""
    if mode == "thermal":
        mean = oracle.thermal_mean(values)
        # pow(mean, 2) as for a Python float: numpy's square, mean * mean,
        # differs from it in the last bit for about one input in a thousand
        mean_sq = np.vectorize(pow)(mean, 2)
        return (oracle.thermal_mean(values ** 2) - mean_sq) / oracle.n_sites ** 2
    if mode == "center":
        return oracle.thermal_mean(values)
    return oracle.thermal_mean(np.abs(values - center)) / oracle.n_sites


def _self_avg_replicates(mspec: ModelSpec, law: DisorderSpec, p: int, mode: str,
                         center: float, exp_id: int, rows: range):
    """``_self_avg_value`` of the replicates' draws, on stream 1 for "center"."""
    draws = sample_replicates(mspec, law, exp_id, rows, 1 if mode == "center" else 0)
    energies_p = fwht(tuple_coefficients(mspec.betas[p] * mspec.scale(p) * draws.tables[p], p), p,
                      copy=False)
    return _self_avg_value(GibbsOracle.build(mspec, draws), energies_p, mode, center)


def check_self_averaging(mspec: ModelSpec, p: int, mode: str) -> None:
    if p not in mspec.betas:
        raise ExperimentError(f"model has no order-{p} interaction")
    if mode not in ("thermal", "full"):
        raise ExperimentError(f"unknown self-averaging mode {mode!r}")


def _self_avg_job(mspec: ModelSpec, law: DisorderSpec, p: int, seed: int,
                  mode: str = "thermal", center: float | None = None):
    """The job of the statistic ``mode`` (see ``_self_avg_value``); mode
    "full" without a ``center`` is its first pass, "center", on its stream key."""
    check_self_averaging(mspec, p, mode)
    statistic = "center" if mode == "full" and center is None else mode
    return _job(mspec, seed, f"self-averaging-{mode}",
                functools.partial(_self_avg_replicates, mspec, law, p, statistic, center))


def self_averaging(mspec: ModelSpec, law: DisorderSpec, p: int, replicates: int, seed: int,
                   mode: str = "thermal", workers: int | None = 1, *,
                   mapped=None) -> EstimatorResult:
    """Concentration of the order-p interaction energy.

    mode "thermal": (1/N**2) E[<H_p**2> - <H_p>**2].  mode "full":
    (1/N) E<|H_p - c|> with the centering c estimated from an independent
    replicate batch first.  ``mapped`` (see ``trend_suite``) serves mode
    "thermal" only: the second pass of "full" needs the first's centering.
    """
    center = None
    if mode == "full":
        if mapped is not None:
            raise ValueError('mode "full" maps its own passes')
        (centers,) = _map_replicates([_self_avg_job(mspec, law, p, seed, mode)], replicates,
                                     workers)
        center = mean_stderr(centers)[0]
    values = next(_map_replicates([_self_avg_job(mspec, law, p, seed, mode, center)],
                                  replicates, workers) if mapped is None else mapped)
    return _estimate(f"self-averaging-{mode}", values, replicates, seed,
                     {"N": mspec.n_sites, "p": p})


# -- universality and interpolation -----------------------------------------


def _f_expectations(*oracles: GibbsOracle, fn: TestFunction) -> np.ndarray:
    """<F> under each oracle (columns), for each row."""
    return np.stack([np.broadcast_to(_f_expectation(oracle, fn), oracle.weights.shape[:-1])
                     for oracle in oracles], axis=-1)


def _universality_job(mspec: ModelSpec, law_a: DisorderSpec, law_b: DisorderSpec,
                      fn: TestFunction, seed: int):
    fn.check(mspec.n_sites, fn.min_replicas)
    return _job(mspec, seed, "universality-gap", functools.partial(
        _on_batch, functools.partial(_f_expectations, fn=fn), mspec, ((law_a, 0), (law_b, 1))))


def universality_gap(mspec: ModelSpec, law_a: DisorderSpec, law_b: DisorderSpec,
                     fn: TestFunction, replicates: int, seed: int,
                     workers: int | None = 1, *, mapped=None) -> EstimatorResult:
    """|E<F>_A - E<F>_B| across two disorder families, independent batches.

    No common random numbers: the laws differ, so pairing would be fiction.
    ``mapped`` is as in ``trend_suite``; each value is the row (<F>_A, <F>_B).
    """
    (mean_a, err_a), (mean_b, err_b) = map(mean_stderr, zip(*next(_map_replicates(
        [_universality_job(mspec, law_a, law_b, fn, seed)], replicates, workers)
        if mapped is None else mapped)))
    return EstimatorResult("universality-gap", abs(mean_a - mean_b),
                           math.sqrt(err_a ** 2 + err_b ** 2), replicates,
                           {"N": mspec.n_sites, "F": fn.label,
                            "family_a": law_a.family, "family_b": law_b.family,
                            "mean_a": mean_a, "mean_b": mean_b, "seed": seed})


def _sweep_replicates(mspec: ModelSpec, law: DisorderSpec, t_grid: tuple[float, ...],
                      fn: TestFunction, exp_id: int, rows: range) -> np.ndarray:
    """<F> of each replicate (rows) at each grid point (columns); one oracle
    per grid point."""
    xis = sample_replicates(mspec, law, exp_id, rows, 0)
    gausses = sample_replicates(mspec, dis.gaussian(), exp_id, rows, 1)
    by_t = []
    for t in t_grid:
        couplings = interpolated_couplings(xis, gausses, t)
        by_t.append(np.broadcast_to(
            _f_expectation(GibbsOracle.build(mspec, couplings), fn), len(rows)))
    return np.stack(by_t, axis=-1)


def check_interpolation_sweep(n_sites: int, function: TestFunction, t_grid) -> None:
    if not t_grid:
        raise ExperimentError("the interpolation grid needs at least one point")
    for t in t_grid:  # refused outside [0, 1] by the interpolation itself, on empty tables
        interpolated_couplings(CouplingAssignment({}), CouplingAssignment({}), t)
    function.check(n_sites, function.min_replicas)


def interpolation_sweep(mspec: ModelSpec, law: DisorderSpec, t_grid, fn: TestFunction,
                        replicates: int, seed: int,
                        workers: int | None = 1) -> list[EstimatorResult]:
    """E<F> along sqrt(t) xi + sqrt(1-t) g with common (xi, g) per replicate.

    t = 1 is the pure non-Gaussian draw, t = 0 the pure Gaussian one; sharing
    the pair across the grid makes the curve smooth in t.
    """
    t_grid = tuple(float(t) for t in t_grid)
    check_interpolation_sweep(mspec.n_sites, fn, t_grid)
    (rows,) = _map_replicates([_job(mspec, seed, "interpolation-sweep", functools.partial(
        _sweep_replicates, mspec, law, t_grid, fn))], replicates, workers)
    results = []
    for k, t in enumerate(t_grid):
        value, err = mean_stderr([row[k] for row in rows])
        results.append(EstimatorResult("interpolation-sweep", value, err, replicates,
                                       {"N": mspec.n_sites, "t": t, "F": fn.label,
                                        "family": law.family, "seed": seed}))
    return results


# -- cavity identity ---------------------------------------------------------


def cavity_identity_realization(mspec: ModelSpec, law: DisorderSpec, n_cavity: int,
                                cavity_sets, exp_id: int, rows: range) -> np.ndarray:
    """Exact two-route check of the cavity-field representation, for each
    replicate in ``rows``: an (R, 2) array of the worst single-block residual
    and the residual of the product over blocks.

    The full system has N + n' sites; its Hamiltonian at the Gaussian end of
    the cavity interpolation is bulk interactions over the N bulk sites plus
    independent Gaussian linear fields seen by each cavity spin, all with the
    full-system normalization, plus the external field everywhere.  Cavity
    marginals <prod_{j in C} eps_j> are then computed once as moments of the
    joint system's oracle and once by the tanh/cosh reweighting of the bulk
    system's oracle, and must agree to rounding.  The bulk tables are the
    draws of the N-site model on stream 0, the field slots those of stream 1.

    Cavity spin j is site n_bulk + j, so eps_j * sigma_B is the monomial on
    B | 2**(n_bulk + j): its Walsh coefficients are those of the field of j
    plus h, negated because the mask gains one site.
    """
    n_bulk, count = mspec.n_sites - n_cavity, len(rows)
    size = 1 << n_bulk
    tables = sample_replicates(ModelSpec(n_bulk, mspec.betas), law, exp_id, rows, 0).tables
    slots = {p: np.empty((count, n_cavity, p) + (n_bulk,) * (p - 1)) for p in mspec.orders}
    for row, rng in enumerate(replicate_generators(exp_id, rows, 1)):
        for table in slots.values():
            table[row] = rng.standard_normal(table.shape[1:])
    bulk = np.zeros((count, size))
    bulk[:, np.left_shift(1, np.arange(n_bulk))] = -mspec.field_h
    fields = np.zeros((count, n_cavity, size))
    fields[..., 0] = mspec.field_h
    for p in mspec.orders:
        coef = mspec.betas[p] * mspec.scale(p)  # full-system N + n' scale
        bulk += tuple_coefficients(coef * tables[p], p)
        fields += tuple_coefficients(coef * slots[p].sum(axis=2), p - 1)
    coeffs = np.zeros((count, 1 << n_cavity, size))  # row E holds the masks B | E << n_bulk
    coeffs[:, 0] = bulk
    coeffs[:, np.left_shift(1, np.arange(n_cavity))] = -fields
    degree = max(mspec.orders, default=1)  # the fields have one degree less
    joint = GibbsOracle(mspec.n_sites, fwht(coeffs.reshape(count, -1), degree, copy=False))
    shifted = fwht(fields, degree - 1, copy=False)
    reweighted = GibbsOracle(n_bulk, fwht(bulk, degree, copy=False)
                             + np.logaddexp(shifted, -shifted).sum(axis=1))
    tanh_fields = np.tanh(shifted)

    worst = np.zeros(count)
    prod_lhs = prod_rhs = np.ones(count)
    for block in cavity_sets:
        lhs = joint.moment(sites_to_mask(n_bulk + j for j in block))
        rhs = reweighted.thermal_mean(np.prod(tanh_fields[:, list(block)], axis=1))
        worst = np.fmax(worst, abs(lhs - rhs))  # as max(worst, residual): a NaN is not taken
        prod_lhs = prod_lhs * lhs
        prod_rhs = prod_rhs * rhs
    return np.stack([worst, abs(prod_lhs - prod_rhs)], axis=-1)


def check_cavity_identity(n_sites: int, n_cavity: int, cavity_sets) -> None:
    if not is_count(n_cavity) or n_cavity < 1:
        raise ExperimentError(f"cavity check needs an integer n_cavity >= 1, got {n_cavity!r}")
    if n_sites - n_cavity < 1:
        raise ExperimentError("cavity check needs at least one bulk site")
    if not cavity_sets or not all(cavity_sets):
        raise ExperimentError(f"cavity check needs nonempty blocks, got {list(cavity_sets)}")
    for block in cavity_sets:
        if len(set(block)) != len(block):
            raise ExperimentError(f"cavity block {list(block)} repeats a site")
        for j in block:
            if not is_count(j) or not 0 <= j < n_cavity:
                raise ExperimentError(f"cavity site {j!r} is no integer in 0..{n_cavity - 1}")


def cavity_identity_check(mspec: ModelSpec, law: DisorderSpec, n_cavity: int, cavity_sets,
                          realizations: int, seed: int,
                          workers: int | None = 1) -> EstimatorResult:
    """The worst single-block residual of the cavity identity, with the product's as a param."""
    check_cavity_identity(mspec.n_sites, n_cavity, cavity_sets)
    (rows,) = _map_replicates([_job(mspec, seed, "cavity-identity", functools.partial(
        cavity_identity_realization, mspec, law, n_cavity, cavity_sets))], realizations, workers)
    worst, product = (max([0.0] + [row[k] for row in rows]) for k in range(2))
    return EstimatorResult("cavity-identity", worst, 0.0, realizations, {
        "N": mspec.n_sites, "n_cavity": n_cavity, "product_residual": product, "seed": seed})


# -- derivative moment sums --------------------------------------------------


def multioverlap_sq_expectation(oracle: GibbsOracle, labels, fixed: dict[int, int]):
    """<R_{labels}**2 * prod fixed monomials> through pair-moment matrices,
    for each row.

    ``fixed`` maps replica labels to parity masks of site monomials
    multiplying the overlap; replicas in ``labels`` absorb their mask into
    the pair-moment matrix, the rest contribute scalar moments.
    """
    labels = set(labels)
    n_sites = oracle.n_sites
    matrix = None
    for l in sorted(labels):
        p_mat = oracle.pair_moment_matrix(fixed.get(l, 0))
        matrix = p_mat if matrix is None else matrix * p_mat
    scalar = 1.0
    for l, mask in fixed.items():
        if l not in labels:
            scalar *= oracle.moment(mask)
    if matrix is None:
        return scalar
    return scalar * matrix.sum(axis=(-2, -1)) / n_sites ** 2


def check_derivative_moment_sum(n_sites: int, n: int, m: int,
                                function: TestFunction) -> dict[frozenset, int]:
    """Refusals of the derivative sum; returns its tuple-sum table."""
    if function.edges:
        raise ExperimentError("derivative sums support constant or monomial F only")
    if m < 1:
        raise ExperimentError(f"m must be >= 1, got {m}")
    function.check(n_sites, n)
    return derivative_power_tuple_sum(m, n)


def derivative_sum_realization(oracle: GibbsOracle, n: int, m: int, fn: TestFunction):
    """N**-2 sum over site pairs of <(derivative factor)**m F> for each row,
    evaluated through the squared-multi-overlap reformulation."""
    fixed = fn.masks
    total = 0.0
    for labels, coeff in check_derivative_moment_sum(oracle.n_sites, n, m, fn).items():
        total += coeff * multioverlap_sq_expectation(oracle, labels, fixed)
    return total


def _derivative_job(mspec: ModelSpec, law: DisorderSpec, n: int, m: int, fn: TestFunction,
                    seed: int):
    check_derivative_moment_sum(mspec.n_sites, n, m, fn)
    realization = functools.partial(derivative_sum_realization, n=n, m=m, fn=fn)
    return _job(mspec, seed, f"derivative-moment-sum-m{m}",
                functools.partial(_on_batch, realization, mspec, ((law, 0),)))


def derivative_moment_sum(mspec: ModelSpec, law: DisorderSpec, n: int, m: int,
                          fn: TestFunction, replicates: int, seed: int,
                          workers: int | None = 1, *, mapped=None) -> EstimatorResult:
    """Disorder average of the tuple-summed m-th derivative of <F>; ``mapped``
    is as in ``trend_suite``."""
    values = next(_map_replicates([_derivative_job(mspec, law, n, m, fn, seed)], replicates,
                                  workers) if mapped is None else mapped)
    return _estimate("derivative-moment-sum", values, replicates, seed,
                     {"N": mspec.n_sites, "n": n, "m": m, "F": fn.label})


# -- free energy fluctuation -------------------------------------------------


def check_free_energy_fluctuation(replicates: int) -> None:
    if replicates < 2:
        raise ExperimentError(f"a variance needs at least 2 replicates, got {replicates}")


def _free_energy_job(mspec: ModelSpec, law: DisorderSpec, seed: int):
    return _job(mspec, seed, "free-energy-fluctuation", functools.partial(
        _on_batch, operator.attrgetter("free_energy_density"), mspec, ((law, 0),)))


def free_energy_fluctuation(mspec: ModelSpec, law: DisorderSpec, replicates: int, seed: int,
                            workers: int | None = 1, *, mapped=None) -> EstimatorResult:
    """Sample variance of the free energy density across disorder draws.

    The standard error of the variance uses the distribution-free fourth
    central moment formula.  ``mapped`` is as in ``trend_suite``."""
    check_free_energy_fluctuation(replicates)
    values = next(_map_replicates([_free_energy_job(mspec, law, seed)], replicates, workers)
                  if mapped is None else mapped)
    m = len(values)
    mean = math.fsum(values) / m
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    m4 = math.fsum((v - mean) ** 4 for v in values) / m
    err = math.sqrt(max(0.0, m4 - var ** 2) / m)
    return EstimatorResult("free-energy-fluctuation", var, err, replicates,
                           {"N": mspec.n_sites, "seed": seed})


# -- diluted pair interactions ----------------------------------------------


def _vb_replicates(mspec: ModelSpec, alpha: float, couplings, vbs) -> np.ndarray:
    base = GibbsOracle.build(mspec, couplings)
    dressed = GibbsOracle.build(mspec, couplings, vbs)
    return (dressed.log_z - base.log_z) / (alpha * mspec.n_sites)


MAX_ALPHA = 1 << 10
"""Largest dilution alpha.  A range holds at most 2**12 site-rows, since
rows * N <= (BATCH_ELEMS >> N) * N, so it draws about alpha * N * rows <=
MAX_COUPLING_ENTRIES diluted edges."""


def check_vb_logz_increment(alpha: float) -> None:
    if not alpha > 0:  # so a NaN fails too
        raise ExperimentError(f"alpha must be positive, got {alpha}")
    if alpha > MAX_ALPHA:
        raise ResourceCapError(f"alpha = {alpha} requested (cap {MAX_ALPHA})")


def vb_logz_increment(mspec: ModelSpec, law: DisorderSpec, alpha: float, beta_prime: float,
                      replicates: int, seed: int, workers: int | None = 1) -> EstimatorResult:
    """Per-edge log-partition gain from adding the diluted interaction.

    The population value lies in [0, beta'] for the Rademacher edge couplings.
    """
    check_vb_logz_increment(alpha)
    (values,) = _map_replicates([_job(mspec, seed, "vb-logz-increment", functools.partial(
        _on_dressed, functools.partial(_vb_replicates, mspec, alpha), mspec, law, alpha,
        beta_prime))], replicates, workers)
    return _estimate("vb-logz-increment", values, replicates, seed,
                     {"N": mspec.n_sites, "alpha": alpha, "beta_prime": beta_prime})


def _pair_weighted_matrix(oracle: GibbsOracle, fn: ReplicaFunctional, k_labels) -> np.ndarray:
    """Matrix over (u, v) of <sigma_u sigma_v on replicas in K times F>, for
    each row (shape (..., N, N)).

    Entry (u, v) is the factorized expectation with the pair monomial
    inserted into every replica of ``k_labels`` (absorbing that replica's
    mask in F) and plain moments elsewhere.
    """
    k_labels = set(k_labels)
    n = oracle.n_sites
    out = np.zeros(oracle.weights.shape[:-1] + (n, n))
    for key, coeff in fn.terms.items():
        masks = dict(key)
        block = np.full((n, n), coeff)
        for l in k_labels:
            block = block * oracle.pair_moment_matrix(masks.pop(l, 0))
        for mask in masks.values():
            block = block * np.expand_dims(oracle.moment(mask), (-2, -1))
        out += block
    return out


def _graded_pair_sums(oracle: GibbsOracle, delta: ReplicaFunctional, n: int) -> list[np.ndarray]:
    """G_a = sum over S in {1..n+1} with |S| = a of the pair-weighted matrix
    of ``delta`` with the pair monomial on the replicas of S ^ {1}, a = 0..n+1.

    Each term of ``delta`` adds, entrywise, the z**a coefficient of
    (P_1 + z m_1) * prod_{l=2..n+1} (m_l + z P_l), where P_l is the
    pair-moment matrix of replica l's mask and m_l its moment: O(n**2)
    matrix products per term."""
    graded = [np.zeros(oracle.weights.shape[:-1] + (oracle.n_sites,) * 2)
              for _ in range(n + 2)]
    for key, coeff in delta.terms.items():
        masks = dict(key)
        series = [coeff]
        for l in range(1, n + 2):
            pair = oracle.pair_moment_matrix(masks.get(l, 0))
            moment = np.expand_dims(oracle.moment(masks.get(l, 0)), (-2, -1))
            low, high = (pair, moment) if l == 1 else (moment, pair)
            series = [low * a + high * b for a, b in zip(series + [0.0], [0.0] + series)]
        for g, s in zip(graded, series):
            g += s
    return graded


def check_taylor_coefficients(n_sites: int, n: int, function: TestFunction,
                              m_values) -> ReplicaFunctional:
    """Refusals of the Taylor check; returns F's functional on n replicas."""
    if not m_values:
        raise ExperimentError("the Taylor check needs at least one coefficient order")
    for m in m_values:
        if not is_count(m) or not 1 <= m <= 5:
            raise ExperimentError(f"coefficient order must be an integer in 1..5, got {m!r}")
    return function.functional(n_sites, n)


def check_poisson_ibp(n_sites: int, alpha: float, beta_prime: float, n: int,
                      function: TestFunction) -> ReplicaFunctional:
    """Refusals of the Poisson identity; returns F's functional on n replicas."""
    if beta_prime == 0.0:
        raise ExperimentError("the identity needs beta_prime != 0")
    check_vb_logz_increment(alpha)
    return function.functional(n_sites, n)


TILT_FLOOR = 1e-4
"""Smallest fresh-edge normalization (1 + lam p0)**(n+1) that
``poisson_ibp_realization`` divides by; dividing by d loses about
log10(1/d) digits, so below the floor the pair is tilted directly."""


def _tilted_pair_value(weights: np.ndarray, delta: ReplicaFunctional, u: int, v: int,
                       t: float) -> float:
    """<sigma^1_u sigma^1_v delta> under the Gibbs ``weights`` of one draw,
    with every replica tilted by exp(t sigma_u sigma_v).

    The tilt is added to the log-weights, so no small difference of moments
    is formed however large |t| is.  The one entry is the factorized
    expectation of the pair monomial times ``delta``."""
    codes = np.arange(weights.size)
    pair = 1 - 2 * (((codes >> u) ^ (codes >> v)) & 1)
    with np.errstate(divide="ignore"):  # an underflowed weight stays 0
        tilted = GibbsOracle(weights.size.bit_length() - 1, np.log(weights) + t * pair)
    return float((delta * ReplicaFunctional.monomial({1: (u, v)}, delta.n_replicas)
                  ).evaluate(tilted))


def poisson_ibp_realization(oracle: GibbsOracle, vbs, alpha: float, beta_prime: float,
                            n: int, fn: TestFunction) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the Poisson integration-by-parts identity for each row
    of a stack of draws; ``vbs`` are the rows' diluted interactions.

    Left: <H'(sigma^1) Delta_1 F> / (alpha N beta').  Right: the fresh-edge
    average with the tilted replica product, evaluated exactly over the
    Rademacher edge law and the uniform endpoint pair.  The two sides agree
    in expectation over (disorder, dilution) only, so they are returned
    separately.
    """
    n_sites = oracle.n_sites
    delta = replica_difference(check_poisson_ibp(n_sites, alpha, beta_prime, n, fn), 1)
    graded = _graded_pair_sums(oracle, delta, n)
    # left side: sum_k J_k * W[u_k, v_k] with W = G_0, the per-edge coupling
    # matrix (S = {} puts the pair monomial on replica 1 alone); each row has
    # its own edges
    left = np.array([float(np.sum(vb.j_values * w[vb.left_sites, vb.right_sites]))
                     if vb.n_edges else 0.0 for vb, w in zip(vbs, graded[0])])
    left /= alpha * n_sites
    # right side: exact average over fresh (J, u, v)
    p0 = oracle.pair_moment_matrix(0)
    diagonal = np.arange(n_sites)
    edge_law = dis.rademacher()
    right = 0.0
    for j_atom, j_prob in zip(edge_law.atoms, edge_law.probs):
        lam = math.tanh(beta_prime * j_atom)
        numer = sum(lam ** a * g for a, g in enumerate(graded))
        denom = (1.0 + lam * p0) ** (n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = numer / denom
        # a self-loop tilts by a constant: numer is (1 + lam)**(n+1) G_0 there
        ratio[..., diagonal, diagonal] = graded[0][..., diagonal, diagonal]
        for *row, u, v in zip(*np.nonzero(np.triu(denom < TILT_FLOOR, 1))):
            row = tuple(row)
            ratio[row + (u, v)] = ratio[row + (v, u)] = _tilted_pair_value(
                oracle.weights[row], delta, int(u), int(v), beta_prime * j_atom)
        right += j_prob * j_atom * ratio.mean(axis=(-2, -1))
    return left, right


def _poisson_ibp_replicates(mspec: ModelSpec, alpha: float, beta_prime: float, n: int,
                            fn: TestFunction, couplings, vbs) -> np.ndarray:
    left, right = poisson_ibp_realization(GibbsOracle.build(mspec, couplings, vbs), vbs,
                                          alpha, beta_prime, n, fn)
    return left - right


def poisson_ibp_check(mspec: ModelSpec, law: DisorderSpec, alpha: float, beta_prime: float,
                      n: int, fn: TestFunction, replicates: int, seed: int,
                      workers: int | None = 1) -> EstimatorResult:
    """Paired difference of the two sides; consistent with zero when the
    identity holds."""
    check_poisson_ibp(mspec.n_sites, alpha, beta_prime, n, fn)
    (values,) = _map_replicates([_job(mspec, seed, "poisson-ibp", functools.partial(
        _on_dressed, functools.partial(_poisson_ibp_replicates, mspec, alpha, beta_prime, n, fn),
        mspec, law, alpha, beta_prime))], replicates, workers)
    return _estimate("poisson-ibp", values, replicates, seed,
                     {"N": mspec.n_sites, "alpha": alpha, "beta_prime": beta_prime,
                      "n": n, "F": fn.label})


def taylor_coefficient_realization(oracle: GibbsOracle, n: int, m_values,
                                   fn: TestFunction) -> np.ndarray:
    """Equality of the double-sum and basis forms of the edge-expansion
    coefficient of each order m, checked at every endpoint pair, for each
    row: shape (..., len(m_values), 2), the pointwise and the averaged
    residual of each order.

    The double sum runs over ordered replica subsets of size a <= min(m, n+1)
    with alternating signs and binomial weights times powers of the plain
    pair moment; the basis form is 1/m! times the signed basis
    (``basis_labels``) applied to sigma^1_{uv} Delta_1 F.  Also checks the
    endpoint-averaged value against the squared-multi-overlap route.
    """
    n_sites = oracle.n_sites
    delta = replica_difference(check_taylor_coefficients(n_sites, n, fn, m_values), 1)
    p0 = oracle.pair_moment_matrix(0)
    graded = _graded_pair_sums(oracle, delta, n)
    out = []
    for m in m_values:
        lhs = np.zeros(p0.shape)
        for a in range(0, min(m, n + 1) + 1):
            lhs += (-1.0) ** (m - a) * math.comb(n + m - a, n) * graded[a] * p0 ** (m - a)
        # basis route, expanded symbolically over the basis label sets
        rhs = np.zeros(p0.shape)
        basis = basis_labels(m, n + 1)
        pref = 1.0 / math.factorial(m)
        for labels, coeff in basis:
            rhs += pref * coeff * _pair_weighted_matrix(oracle, delta, set(labels) ^ {1})
        pointwise = np.max(np.abs(lhs - rhs), axis=(-2, -1))
        # endpoint-averaged value against the squared-multi-overlap evaluator
        averaged = rhs.mean(axis=(-2, -1))
        total = 0.0
        for labels, coeff in basis:
            for dkey, dcoeff in delta.terms.items():
                total += (pref * coeff * dcoeff
                          * multioverlap_sq_expectation(oracle, set(labels) ^ {1}, dict(dkey)))
        out.append(np.stack(np.broadcast_arrays(pointwise, abs(averaged - total)), axis=-1))
    return np.stack(out, axis=-2)


def _taylor_replicates(mspec: ModelSpec, n: int, fn: TestFunction, m_values, couplings,
                       vbs) -> np.ndarray:
    return taylor_coefficient_realization(GibbsOracle.build(mspec, couplings, vbs), n,
                                          m_values, fn)


# -- recorded trend suite ----------------------------------------------------

TREND_SIZES = (4, 8, 12, 16)
TREND_REPLICATES = 4000
TREND_FIELD = 0.3
TREND_BETA = 1.0
TREND_MONOMIAL = spin_monomial(((0, 1, 2),))


def check_trend_suite(n_values, replicates: int, seed: int) -> list:
    """The trend series at every size, as (estimator, leading arguments,
    job).  Each job builder makes its series' refusals, so a bad size,
    count or seed raises here, before any job is mapped."""
    if not n_values:
        raise ExperimentError("the trend suite needs at least one size")
    fn_overlap = overlap_square()
    series = []  # (estimator, its job builder, their leading arguments)
    for n_sites in n_values:
        mspec = ModelSpec(n_sites, {2: TREND_BETA}, TREND_FIELD)
        series += [
            (gg_gap, _gg_gap_job, (mspec, dis.rademacher(), 2, 2, fn_overlap)),
            (universality_gap, _universality_job,
             (mspec, dis.gaussian(), dis.rademacher(), fn_overlap)),
            (self_averaging, _self_avg_job, (mspec, dis.gaussian(), 2)),
            *((derivative_moment_sum, _derivative_job,
               (mspec, dis.gaussian(), 1, m, TREND_MONOMIAL)) for m in (3, 4)),
            (free_energy_fluctuation, _free_energy_job, (mspec, dis.rademacher())),
        ]
    check_free_energy_fluctuation(replicates)
    return [(estimator, args, build(*args, seed)) for estimator, build, args in series]


def trend_suite(n_values=TREND_SIZES, replicates: int = TREND_REPLICATES, seed: int = 7,
                workers: int | None = None) -> list[EstimatorResult]:
    """The recorded finite-size trend battery on the pair-interaction model.

    Six series over the size ladder: the replica-coupling gap (Rademacher),
    the Gaussian-vs-Rademacher universality gap, thermal self-averaging,
    the derivative moment sums at orders 3 and 4 (Gaussian), and the free
    energy fluctuation (Rademacher).  Each series should shrink with N.

    The derivative sums use the three-site single-replica monomial: among the
    monomial test functions it shows the strongest size decay of the order-4
    sum at these sizes (the order-3 decay is steep for every choice).

    Each series is one job, from ``check_trend_suite``, and the jobs of
    every series are mapped in one call, so on a pool all their ranges are
    in flight at once.  Each series then runs its own estimator with
    ``mapped``, the map's iterator, from which it takes the next value list
    in place of a map of its own.  So the reductions stay the estimators'
    own, and each estimator call reads, or on one worker computes, its
    series' values: a profile or perfbench's per-series spans still see each
    series' work inside its call.
    """
    series = check_trend_suite(n_values, replicates, seed)
    mapped = _map_replicates([job for *_, job in series], replicates, workers)
    return [estimator(*args, replicates, seed, mapped=mapped) for estimator, args, _ in series]


def taylor_coefficient_check(mspec: ModelSpec, law: DisorderSpec, alpha: float,
                             beta_prime: float, n: int, fn: TestFunction, m_values,
                             realizations: int, seed: int) -> dict[int, dict[str, float]]:
    """Worst residuals of the coefficient identity per expansion order."""
    m_values = tuple(m_values)
    check_vb_logz_increment(alpha)
    check_taylor_coefficients(mspec.n_sites, n, fn, m_values)
    (rows,) = _map_replicates([_job(mspec, seed, "taylor-coefficients", functools.partial(
        _on_dressed, functools.partial(_taylor_replicates, mspec, n, fn, m_values), mspec, law,
        alpha, beta_prime))], realizations, 1)
    return {m: {key: max([0.0] + [row[i][k] for row in rows])
                for k, key in enumerate(("pointwise", "averaged"))}
            for i, m in enumerate(m_values)}
