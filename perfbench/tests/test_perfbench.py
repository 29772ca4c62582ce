"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_PATH = os.path.join(ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def bench():
    with open(BENCH_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def declared():
    return run.declared_metrics(BENCH_PATH)


# -- declarations ------------------------------------------------------------


def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workload_names_match_declaration(bench):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_why_states_replicates_per_pass(bench):
    for w in bench["workloads"]:
        assert f"{WORKLOADS[w['name']].replicates} replicates per pass" in w["why"]


def _fake_pass(trace=None, dispatch_s=1.0):
    if trace is None:
        tracer = tracing.Tracer()
        root = tracer.open("trace.root")
        tracer.close(tracer.open("experiments.gg_gap"))
        tracer.close(root)
        trace = tracer.to_json()
    result = {"trace": trace, "import_s": 0.1, "dispatch_s": dispatch_s}
    return run.Pass(1.0, 0.2, 50.0, 0, [], result)


def test_every_declared_layer_metric_is_measured(declared):
    one = _fake_pass()
    for series in (None, one):
        values = run.layer_metrics(one, one, series, series)
        values["gibbs.cross_route.max_residual"] = 0.0
        printed = run.select(values, declared["per_layer"])
        assert list(printed) == list(declared["per_layer"])
        assert all(v["unit"] == declared["per_layer"][k] for k, v in printed.items())


def test_end_to_end_metrics_are_exactly_the_declared_ones(declared):
    got = set(run.timed_metrics([_fake_pass()], 10)) | {"ok_ops_frac"}
    assert got == set(declared["end_to_end"])


def test_undeclared_metric_is_never_printed_and_missing_one_is_an_error(declared):
    values = dict.fromkeys(declared["end_to_end"], 1.0)
    printed = run.select(dict(values, undeclared_s=2.0), declared["end_to_end"])
    assert "undeclared_s" not in printed
    values.pop("wall_s")
    with pytest.raises(run.BenchError):
        run.select(values, declared["end_to_end"])


def test_predictions_cite_declared_names(declared):
    with open(os.path.join(ROOT, "perfbench", "predictions.json"), encoding="utf-8") as handle:
        pred = json.load(handle)
    assert set(pred["workloads"]) == set(WORKLOADS)
    for row in pred["layers"]:
        assert row["metric"] in declared["per_layer"]
        assert set(row["moves"]) <= set(declared["end_to_end"])
        assert set(row["on"]) <= set(WORKLOADS)
    for change in pred["changes"]:
        for key in ("improves", "unchanged", "must_not_regress"):
            for item in change.get(key, ()):
                assert item["metric"] in declared["end_to_end"]
                assert item["workload"] in WORKLOADS


# -- correctness gate --------------------------------------------------------


def _reference():
    return gate.read_rows([os.path.join(ROOT, "perfbench", "reference", "trend-small.csv")])


def _with(rows, index, **changes):
    out = [dict(r) for r in rows]
    out[index].update(changes)
    return out


def test_gate_accepts_reference_and_last_bit_drift():
    ref = _reference()
    assert gate.count_failed(ref, ref, 7, 0) == 0
    value = float(ref[0]["value"])
    drifted = _with(ref, 0, value="%.17g" % (value * (1 + 4e-16)))
    assert gate.count_failed(drifted, ref, 7, 0) == 0


def test_gate_fails_perturbed_row():
    ref = _reference()
    value = float(ref[2]["value"])
    assert gate.count_failed(_with(ref, 2, value="%.17g" % (value * 1.001)), ref, 7, 0) == 1
    err = float(ref[2]["std_error"])
    assert gate.count_failed(_with(ref, 2, std_error="%.17g" % (err * 1.001)), ref, 7, 0) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", ""])
def test_gate_fails_non_finite_row(bad):
    ref = _reference()
    assert gate.count_failed(_with(ref, 1, value=bad), ref, 7, 0) == 1
    assert gate.count_failed(_with(ref, 1, value=bad), ref, 3, 0) == 1


def test_gate_fails_every_row_on_nonzero_exit_or_missing_rows():
    ref = _reference()
    assert gate.count_failed(ref, ref, 7, 1) == len(ref)
    assert gate.count_failed(ref[:-1], ref, 7, 0) == len(ref)
    assert gate.count_failed(None, ref, 7, 0) == len(ref)


def test_gate_other_seed_uses_combined_standard_errors():
    ref = _reference()
    row = ref[0]
    value, err = float(row["value"]), float(row["std_error"])
    band = gate.SIGMAS * math.hypot(err, err)
    inside = _with(ref, 0, value="%.17g" % (value + 0.9 * band))
    outside = _with(ref, 0, value="%.17g" % (value + 1.1 * band))
    assert gate.count_failed(inside, ref, 3, 0) == 0
    assert gate.count_failed(outside, ref, 3, 0) == 1
    # at the reference seed the same shift is far outside the tolerance
    assert gate.count_failed(inside, ref, 7, 0) == 1


def test_gate_fails_changed_row_identity():
    ref = _reference()
    assert gate.count_failed(_with(ref, 0, N="5"), ref, 7, 0) == 1
    assert gate.count_failed(_with(ref, 0, replicates="399"), ref, 7, 0) == 1


# -- self time ---------------------------------------------------------------


def test_self_time_with_overlapping_children():
    # root [0, 100); children [10, 40) and [30, 60) overlap, [90, 120) runs
    # past the root's end; a grandchild [15, 25) sits inside the first child.
    start = [0, 10, 30, 90, 15]
    end = [100, 40, 60, 120, 25]
    parent = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(start, end, parent)
    assert selfs == [100 - (50 + 10), 30 - 10, 30, 30, 10]


def test_self_time_without_children_is_duration():
    assert tracing.self_times([5], [17], [-1]) == [12]


def test_summarize_counts_moment_misses():
    trace = {"names": ["gibbs.GibbsOracle.moment", "gibbs.GibbsOracle.column_product"],
             "name_id": [0, 1, 0, 0], "start": [0, 1, 10, 20], "end": [5, 4, 12, 22],
             "parent": [-1, 0, -1, -1], "counters": {}}
    summary = tracing.summarize(trace)
    moment = summary["gibbs.GibbsOracle.moment"]
    assert moment["calls"] == 3 and moment["misses"] == 1
    assert moment["self_s"] == pytest.approx((2 + 2 + 2) * 1e-9)


# -- wrappers ----------------------------------------------------------------


def _bindings():
    import pspinlab.cli  # noqa: F401  (loads every pspinlab module)
    out = {}
    for mod in tracing._package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for method, member in vars(value).items():
                    out[(mod.__name__, f"{attr}.{method}")] = member
    return out


def test_wrappers_rebind_every_name_and_are_fully_removed():
    from pspinlab import cli, experiments, gibbs, model
    from pspinlab.model import ModelSpec, CouplingAssignment
    import numpy as np

    before = _bindings()
    original = model.spin_matrix
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for mod in (model, gibbs, experiments):
            assert getattr(mod.spin_matrix, tracing.WRAPPER_MARK) == "model.spin_matrix"
        assert hasattr(cli.battery, tracing.WRAPPER_MARK)
        assert hasattr(gibbs.GibbsOracle.moment, tracing.WRAPPER_MARK)
        oracle = gibbs.build_oracle(ModelSpec(3, {2: 1.0}, 0.1),
                                    CouplingAssignment({2: np.eye(3)}))
        oracle.moment(0b011)
    finally:
        tracing.uninstall(undo)
    after = _bindings()
    assert not [k for k, v in after.items() if hasattr(v, tracing.WRAPPER_MARK)]
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert model.spin_matrix is original and experiments.spin_matrix is original

    summary = tracing.summarize(tracer.to_json())
    assert summary["gibbs.GibbsOracle.init"]["calls"] == 1
    assert summary["model.spin_matrix"]["calls"] == 2  # once in build, once in init
    assert summary["gibbs.GibbsOracle.moment"]["misses"] == 1
    names = tracer.names
    init = [i for i, n in enumerate(tracer.name_id) if names[n] == "gibbs.GibbsOracle.init"]
    children = [names[tracer.name_id[i]] for i, p in enumerate(tracer.parent) if p == init[0]]
    assert children == ["model.spin_matrix"]


def test_missing_target_is_skipped():
    from pspinlab import gibbs

    tracer = tracing.Tracer()
    targets = [("gibbs.gone", "pspinlab.gibbs", "no_such_function", None),
               ("gibbs.GibbsOracle.gone", "pspinlab.gibbs", "GibbsOracle.no_such_method", None),
               ("gibbs.fwht", "pspinlab.gibbs", "fwht", None)]
    before = _bindings()
    undo = tracing.install(tracer, targets, panels=False)
    try:
        assert hasattr(gibbs.fwht, tracing.WRAPPER_MARK)
    finally:
        tracing.uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)
