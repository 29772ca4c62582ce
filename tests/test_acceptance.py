"""Acceptance gate: one test per release criterion.

Each test prints its measured numbers; pytest -v gives the one-line
pass/fail verdict per criterion.  Statistical criteria state their seed and
replicate counts explicitly so reruns are bit-reproducible; the finite-size
trend criterion reads the recorded baseline shipped in baselines/ and
spot-recomputes one row to prove the file matches the code.
"""

import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import pspinlab.cli as cli
import pspinlab.disorder as dis
import pspinlab.experiments as ex
from pspinlab.disorder import SeedPath, experiment_id, sample_couplings
from pspinlab.expansion import (
    coefficient_row,
    derivative_power,
    fourth_power_identity_check,
    series_identity_check,
    verify_expansion,
    verify_ode,
)
from pspinlab.gibbs import GibbsOracle, naive_replica_expectation
from pspinlab.ibp import battery
from pspinlab.model import CouplingAssignment, ModelSpec

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "baselines" / "trend-suite-7.csv"


def test_criterion_01_expansion_identity_grid():
    started = time.monotonic()
    eid = experiment_id(2024, "acceptance-expansion")
    worst = 0.0
    worst_naive = 0.0
    cells = 0
    for law_idx, law in enumerate((dis.gaussian(), dis.rademacher())):
        for n_sites in (2, 3, 4):
            mspec = ModelSpec(n_sites, {2: 0.8, 3: 0.4}, 0.25)
            suite = ex.default_suite(n_sites)
            for draw in range(20):
                path = SeedPath(eid, 1000 * law_idx + draw, n_sites)
                oracle = GibbsOracle.build(mspec, sample_couplings(mspec, law, path.generator()))
                tuples = ((0, 1), (0, 1, 2) if n_sites >= 3 else (0, 0, 1))
                for sites in tuples:
                    for fn_spec in suite:
                        for n in (1, 2, 3):
                            if fn_spec.min_replicas > n:
                                continue
                            fn = fn_spec.functional(n_sites, n)
                            for m in range(1, 6):
                                lhs, rhs = verify_expansion(oracle, sites, fn, m)
                                worst = max(worst, abs(lhs - rhs))
                                cells += 1
                                if (n + m) * n_sites <= 12:
                                    direct = naive_replica_expectation(
                                        oracle, derivative_power(sites, fn, m))
                                    worst_naive = max(worst_naive, abs(direct - lhs))
    elapsed = time.monotonic() - started
    print(f"criterion 1: {cells} cells, max residual {worst:.3g}, "
          f"naive cross-check {worst_naive:.3g}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert worst_naive <= 1e-9
    assert elapsed <= 60.0


def test_criterion_02_coefficient_table():
    started = time.monotonic()
    assert coefficient_row(2)[1] == 1
    assert coefficient_row(3)[1] == 1 and coefficient_row(3)[2] == -2
    assert coefficient_row(4)[1] == 1 and coefficient_row(4)[2] == -8
    for m in range(1, 31):
        row = coefficient_row(m)
        assert row[0] == 0
        assert all(row[a] == 0 for a in range((m + 1) // 2 + 1, m + 1)), m
    elapsed = time.monotonic() - started
    print(f"criterion 2: table frozen values and support for m <= 30, {elapsed:.2f}s")
    assert elapsed <= 1.0


def test_criterion_03_derivative_and_ladder_fd():
    started = time.monotonic()
    rng_master = np.random.default_rng(11)
    worst = {"ladder": 0.0, "first": 0.0, "second": 0.0}
    fns = (ex.overlap_square(), ex.spin_monomial(((0,), (1,))))
    for k in range(50):
        mspec = ModelSpec(3, {2: 0.8}, 0.3)
        couplings = CouplingAssignment({2: rng_master.normal(size=(3, 3))})
        fn = fns[k % 2].functional(3, 2)
        out = verify_ode(mspec, couplings, 2, (0, 1), 1 + k % 3, fn, step=1e-4)
        for key in worst:
            worst[key] = max(worst[key], out[key])
    elapsed = time.monotonic() - started
    print(f"criterion 3: 50 instances, residuals {worst}, {elapsed:.1f}s")
    assert max(worst.values()) <= 1e-6
    assert elapsed <= 30.0


def test_criterion_04_ibp_battery():
    started = time.monotonic()
    rows = battery()
    residual = max(abs(r["residual"]) for r in rows)
    slack = min(r["envelope_slack"] for r in rows)
    gauss = max(abs(r["gamma"]) for r in rows if r["law"] == "gaussian")
    cube = next(r for r in rows if r["law"] == "rademacher" and r["function"] == "cube")
    elapsed = time.monotonic() - started
    print(f"criterion 4: residual {residual:.3g}, min slack {slack:.3g}, "
          f"gaussian gamma {gauss:.3g}, rademacher cube {cube['gamma']:.12f}, {elapsed:.1f}s")
    assert residual <= 1e-8
    assert slack >= -1e-12
    assert gauss <= 1e-8
    assert abs(cube["gamma"] + 2.0) <= 1e-10
    assert elapsed <= 5.0


def test_criterion_05_cavity_identity():
    started = time.monotonic()
    worst = 0.0
    grid = (
        (4, 1, ((0,),), dis.gaussian()),
        (5, 2, ((0,), (1,), (0, 1)), dis.rademacher()),
        (6, 2, ((0,), (0, 1)), dis.gaussian()),
    )
    for n_full, n_cavity, sets, law in grid:
        mspec = ModelSpec(n_full, {2: 0.8, 3: 0.4}, 0.3)
        got = ex.cavity_identity_check(mspec, law, n_cavity, sets,
                                       realizations=50, seed=5)
        worst = max(worst, got.value, got.params["product_residual"])
    elapsed = time.monotonic() - started
    print(f"criterion 5: worst residual {worst:.3g} over 150 realizations, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed <= 30.0


def test_criterion_06_edge_expansion_combinatorics():
    started = time.monotonic()
    worst_taylor = 0.0
    for n, fn in ((1, ex.spin_monomial(((0,),))), (2, ex.overlap_square())):
        out = ex.taylor_coefficient_check(
            ModelSpec(3, {2: 0.6}, 0.3), dis.gaussian(), 0.6, 0.5, n, fn,
            m_values=(1, 2, 3, 4), realizations=20, seed=6)
        for res in out.values():
            worst_taylor = max(worst_taylor, res["pointwise"], res["averaged"])
    rng = SeedPath(experiment_id(6, "acceptance-series"), 0, 0).generator()
    worst_series = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        coeffs = rng.standard_normal(n + 2)
        b = float(rng.uniform(-1.0, 1.0))
        x = float(rng.uniform(-0.5, 0.5)) / max(1.0, abs(b))
        got = series_identity_check(tuple(coeffs), b, x, n)
        worst_series = max(worst_series, got["residual"])
    elapsed = time.monotonic() - started
    print(f"criterion 6: coefficient residual {worst_taylor:.3g}, "
          f"series residual {worst_series:.3g}, {elapsed:.1f}s")
    assert worst_taylor <= 1e-9
    assert worst_series <= 1e-12
    assert elapsed <= 30.0


def test_criterion_07_fourth_power_tuple_average():
    started = time.monotonic()
    eid = experiment_id(7, "acceptance-fourth-power")
    worst = 0.0
    fn = ex.overlap_square()
    for r in range(50):
        mspec = ModelSpec(3, {2: 0.8}, 0.3)
        oracle = GibbsOracle.build(mspec, sample_couplings(
            mspec, dis.gaussian(), SeedPath(eid, r, 0).generator()))
        lhs, rhs = fourth_power_identity_check(oracle, fn.functional(3, 2))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - started
    print(f"criterion 7: max residual {worst:.3g} over 50 realizations, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 30.0


def test_criterion_08_exact_zeros():
    eid = experiment_id(8, "acceptance-zeros")
    worst = 0.0
    for r in range(10):
        mspec = ModelSpec(4, {2: 0.9}, 0.3)
        oracle = GibbsOracle.build(mspec, sample_couplings(
            mspec, dis.golden_skew(), SeedPath(eid, r, 0).generator()))
        for n in (2, 3):
            worst = max(worst, abs(ex.gg_gap_realization(
                oracle, oracle, n, 2, ex.constant_one())))
            worst = max(worst, abs(ex.gg_thermal_gap_realization(
                oracle, n, 2, ex.constant_one())))
    mspec = ModelSpec(4, {2: 0.5}, 0.2)
    poisson = ex.poisson_ibp_check(mspec, dis.gaussian(), 0.5, 0.4, 2,
                                   ex.constant_one(), 5, seed=8)
    vb_zero = ex.vb_logz_increment(ModelSpec(5, {2: 0.5}, 0.2), dis.gaussian(),
                                   0.5, 0.0, 5, seed=8)
    print(f"criterion 8: gap zeros {worst:.3g}, poisson {poisson.value!r}, "
          f"vb {vb_zero.value!r}")
    assert worst <= 1e-12
    assert poisson.value == 0.0
    assert vb_zero.value == 0.0


def _load_baseline():
    if not BASELINE.exists():
        pytest.fail(f"recorded trend baseline missing: {BASELINE}")
    series: dict[str, list[tuple[int, float, float]]] = {}
    with BASELINE.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        key = row["experiment"]
        if key == "derivative-moment-sum":
            params = dict(zip(row["param_key"].split("|"), row["param_value"].split("|")))
            key = f"{key}-m{params['m']}"
        series.setdefault(key, []).append(
            (int(row["N"]), float(row["value"]), float(row["std_error"])))
    return {k: sorted(v) for k, v in series.items()}, rows


def test_criterion_09_finite_size_trends():
    series, rows = _load_baseline()
    expected = {"gg-gap", "universality-gap", "self-averaging-thermal",
                "derivative-moment-sum-m3", "derivative-moment-sum-m4",
                "free-energy-fluctuation"}
    assert set(series) == expected
    # spot regression: recompute one full row and demand bit-equality with
    # the recorded file (same seed path the suite used)
    mspec = ModelSpec(4, {2: ex.TREND_BETA}, ex.TREND_FIELD)
    redo = ex.gg_gap(mspec, dis.rademacher(), 2, 2, ex.overlap_square(),
                     ex.TREND_REPLICATES, seed=7, workers=1)
    recorded = next(r for r in rows if r["experiment"] == "gg-gap" and r["N"] == "4")
    assert recorded["value"] == cli._fmt(redo.value)
    assert recorded["std_error"] == cli._fmt(redo.std_error)

    failures = []
    for name, points in sorted(series.items()):
        assert [n for n, _, _ in points] == [4, 8, 12, 16], name
        v4, e4 = abs(points[0][1]), points[0][2]
        v16, e16 = abs(points[-1][1]), points[-1][2]
        sep = (v4 - v16) / math.hypot(e4, e16)
        print(f"criterion 9: {name}: |v(4)|={v4:.5g}+-{e4:.2g} "
              f"|v(16)|={v16:.5g}+-{e16:.2g} separation {sep:.2f} sigma")
        if not (v4 > v16 and sep > 4.0):
            failures.append(f"{name} separation {sep:.2f} sigma")
    assert not failures, "; ".join(failures)


def test_criterion_10_vb_increment_bracket():
    started = time.monotonic()
    mspec = ModelSpec(10, {2: 1.0}, 0.3)
    worst_low = 0.0
    worst_high = 0.0
    for alpha, beta_prime in itertools.product((0.25, 0.5, 1.0), (0.1, 0.4, 1.0)):
        out = ex.vb_logz_increment(mspec, dis.gaussian(), alpha, beta_prime,
                                   2000, seed=10, workers=1)
        low = out.value + 4.0 * out.std_error
        high = out.value - 4.0 * out.std_error
        worst_low = min(worst_low, low)
        worst_high = max(worst_high, high - beta_prime)
        print(f"criterion 10: alpha={alpha} beta'={beta_prime}: "
              f"{out.value:.5f} +- {out.std_error:.5f}")
    elapsed = time.monotonic() - started
    print(f"criterion 10: worst lower slack {worst_low:.3g}, "
          f"worst upper excess {worst_high:.3g}, {elapsed:.0f}s")
    assert worst_low >= 0.0
    assert worst_high <= 0.0
    assert elapsed <= 600.0


def test_criterion_11_byte_identical_reruns(tmp_path):
    import json

    for name, raw in (
        ("gg", {
            "experiment": "gg-gap",
            "model": {"n_sites": 3, "betas": {"2": 1.0}, "field": 0.3},
            "disorder": {"family": "rademacher"},
            "params": {"n": 2, "p": 2, "function": {"kind": "one"}},
            "replicates": 8,
            "seed": 123,
        }),
        ("trend", {
            "experiment": "trend-suite",
            "params": {"n_values": [4]},
            "replicates": 5,
            "seed": 123,
        }),
    ):
        blobs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{name}-{attempt}"
            raw_run = dict(raw, output=str(out_dir))
            cfg = tmp_path / f"{name}-{attempt}.json"
            cfg.write_text(json.dumps(raw_run))
            assert cli.main(["run", str(cfg)]) == 0
            blobs.append((out_dir / f"{raw['experiment']}-123.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{name} rerun differs"
    print("criterion 11: reruns byte-identical")
