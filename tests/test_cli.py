import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pspinlab.cli as cli
import pspinlab.experiments as ex
from pspinlab import disorder as dis
from pspinlab.disorder import DisorderValidationError
from pspinlab.model import ModelSpec


def minimal_config(**overrides):
    raw = {
        "experiment": "gg-thermal-gap",
        "model": {"n_sites": 3, "betas": {"2": 1.0}, "field": 0.3},
        "disorder": {"family": "rademacher"},
        "params": {"n": 2, "p": 2, "function": {"kind": "one"}},
        "replicates": 3,
        "seed": 42,
        "output": "results",
    }
    raw.update(overrides)
    return raw


# -- config parsing -----------------------------------------------------------


def test_parse_round_trips_through_to_dict():
    config = cli.parse_config(minimal_config())
    again = cli.parse_config(config.to_dict())
    assert again == config


def test_parse_self_contained_round_trip():
    raw = {"experiment": "ibp-battery", "seed": 9, "output": "out"}
    config = cli.parse_config(raw)
    assert cli.parse_config(config.to_dict()) == config
    with pytest.raises(cli.ConfigError):
        cli.parse_config({"experiment": "ibp-battery", "model": {"n_sites": 3}})


@pytest.mark.parametrize("mutate", [
    {"bogus": 1},
    {"model": {"n_sites": 3, "volume": 2}},
    {"params": {"n": 2, "mystery": 1}},
    {"experiment": "nope"},
    {"replicates": "3"},  # a count below 1 is check_replicates' (see _BAD_VALUES)
    {"replicates": 2.5},
    {"seed": "7"},  # a seed outside 64 bits is experiment_id's (see _BAD_VALUES)
    {"seed": 2.5},
    {"format": "yaml"},
    {"workers": 1.5},  # a count below 1 is resolve_workers'
    {"output": ""},
    {"model": {"n_sites": []}},  # a size below 1 is ModelSpec's
    {"model": {"n_sites": [3, "x"]}},
    {"model": {"n_sites": 3, "betas": [2]}},
    {"disorder": {"atoms": [1]}},
    {"model": {"n_sites": True}},
    {"replicates": True},
])
def test_parse_rejects_malformed(mutate):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(minimal_config(**mutate))


def test_low_order_exits_2_with_the_model_message(tmp_path, capsys):
    """parse_config reads a betas key's shape only; ModelSpec refuses p < 2,
    in the preflight, before the output directory is made."""
    raw = minimal_config(model={"n_sites": 3, "betas": {"1": 1.0}}, output=str(tmp_path / "out"))
    assert cli.parse_config(raw).betas == {1: 1.0}
    assert cli.main(["run", write_config(tmp_path, raw)]) == cli.USAGE_ERROR
    assert capsys.readouterr().err == "error: interaction orders must be integers >= 2, got 1\n"
    assert not (tmp_path / "out").exists()
    raw = minimal_config(model={"n_sites": 3, "betas": {"x": 1.0}})
    with pytest.raises(cli.ConfigError, match="not an integer order"):
        cli.parse_config(raw)


def test_parse_accepts_size_list():
    raw = minimal_config(model={"n_sites": [2, 3], "betas": {"2": 1.0}, "field": 0.1})
    config = cli.parse_config(raw)
    assert config.n_sites_list == (2, 3)
    assert config.betas == {2: 1.0}


def test_build_function_variants():
    assert cli._build_function({"kind": "one"}) == ex.constant_one()
    assert cli._build_function({"kind": "overlap-power"}) == ex.overlap_square()
    fn = cli._build_function({"kind": "overlap-power", "power": 4})
    assert fn.power == 4
    mono = cli._build_function({"kind": "spin-monomial", "sites": [[0], [1]]})
    assert mono == ex.spin_monomial(((0,), (1,)))
    # TestFunction owns the kinds and which keys each takes
    for spec in ({"kind": "mystery"}, {"kind": "one", "power": 2},
                 {"kind": "overlap-power", "sites": [[0], [1]]}):
        with pytest.raises(ex.ExperimentError):
            cli._build_function(spec)
    for spec in (None, {"power": 2}, {"kind": "one", "extra": 1},
                 {"kind": "overlap-power", "power": True}, {"kind": "one", "sites": "01"}):
        with pytest.raises(cli.ConfigError):
            cli._build_function(spec)


def test_build_law_errors():
    with pytest.raises(cli.ConfigError):
        cli._build_law({"family": "three-point", "bogus": 1.0})
    with pytest.raises(DisorderValidationError):
        cli._build_law({"family": "unheard-of"})
    with pytest.raises(cli.ConfigError):
        cli._build_law({"family": "near-gaussian"})


# -- row formatting -----------------------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert float(cli._fmt(x)) == x


def test_fmt_special_cases():
    assert cli._fmt(True) == "true"
    assert cli._fmt(False) == "false"
    assert cli._fmt(7) == "7"
    assert cli._fmt("abc") == "abc"


def test_result_rows_splits_structural_params():
    res = ex.EstimatorResult("gg-gap", 0.5, 0.01, 10,
                             {"N": 4, "n": 2, "p": 2, "seed": 7,
                              "F": "one", "family_a": "gaussian"})
    (row,) = cli.result_rows([res])
    assert row[0] == "gg-gap"
    assert row[1] == "4" and row[2] == "2" and row[3] == "2" and row[9] == "7"
    assert row[4] == "F|family_a"
    assert row[5] == "one|gaussian"
    assert float(row[6]) == 0.5


def test_render_csv_and_json_agree():
    res = ex.EstimatorResult("self-averaging-thermal", 0.125, 0.5e-3, 4,
                             {"N": 3, "p": 2, "seed": 1})
    text = cli.render_csv([res])
    lines = text.splitlines()
    assert lines[0] == ",".join(cli.CSV_HEADER)
    assert len(lines) == 2
    parsed = json.loads(cli.render_json([res]))
    assert parsed[0]["value"] == cli.result_rows([res])[0][6]


# -- end-to-end runs ----------------------------------------------------------


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_writes_outputs_and_manifest(tmp_path):
    raw = minimal_config(output=str(tmp_path / "out"))
    code = cli.main(["run", write_config(tmp_path, raw)])
    assert code == 0
    csv_path = tmp_path / "out" / "gg-thermal-gap-42.csv"
    manifest_path = tmp_path / "out" / "gg-thermal-gap-42-manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"] == cli.parse_config(raw).to_dict()
    assert manifest["outputs"] == ["gg-thermal-gap-42.csv"]
    body = csv_path.read_text()
    assert body.startswith(",".join(cli.CSV_HEADER))


@pytest.mark.parametrize("in_config,flag", [(None, None), (3, None), (None, 2), (3, 1)])
def test_manifest_records_the_resolved_worker_count(tmp_path, in_config, flag):
    """The manifest records how many processes computed, also for a config
    without a ``workers`` key, whose ``config`` record then has none."""
    raw = minimal_config(output=str(tmp_path / "out"))
    if in_config is not None:
        raw["workers"] = in_config
    argv = ["run", write_config(tmp_path, raw)] + ([] if flag is None else ["--workers",
                                                                           str(flag)])
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "gg-thermal-gap-42-manifest.json").read_text())
    assert manifest["workers"] == ex.resolve_workers(in_config if flag is None else flag)
    assert ("workers" in manifest["config"]) == ((in_config, flag) != (None, None))


def test_rerun_is_byte_identical(tmp_path):
    """Result bytes repeat across reruns; of the manifest, only the finish
    time, the wall clock and the minor fault count change."""
    raw = minimal_config(output=str(tmp_path / "out"))
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert cli.main(["run", path]) == 0
        runs.append(((out / "gg-thermal-gap-42.csv").read_bytes(),
                     json.loads((out / "gg-thermal-gap-42-manifest.json").read_text())))
    (first, manifest_a), (second, manifest_b) = runs
    assert first == second
    assert set(manifest_a) == set(manifest_b)
    assert {k for k in manifest_a if manifest_a[k] != manifest_b[k]} <= {
        "finished_at", "wall_clock_seconds", "minor_faults"}
    assert all(type(m["minor_faults"]) is int and m["minor_faults"] >= 0
               for m in (manifest_a, manifest_b))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest_a["host"] == {"cpu_count": os.cpu_count(),
                                  "python": platform.python_version(),
                                  "numpy": np.__version__, "blas": blas["name"],
                                  "blas_version": blas["version"]}


def test_manifest_blas_facts_are_none_where_numpy_does_not_report_them(tmp_path, monkeypatch):
    """numpy before 1.26 has no ``show_config(mode=...)``: the run still
    writes its manifest, with None for the BLAS name and version."""
    monkeypatch.setattr(np, "show_config", lambda: None)
    path = write_config(tmp_path, minimal_config(output=str(tmp_path / "out")))
    assert cli.main(["run", path]) == 0
    host = json.loads((tmp_path / "out" / "gg-thermal-gap-42-manifest.json").read_text())["host"]
    assert host["blas"] is None and host["blas_version"] is None


def test_run_json_format(tmp_path):
    raw = minimal_config(output=str(tmp_path / "out"), format="json")
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    rows = json.loads((tmp_path / "out" / "gg-thermal-gap-42.json").read_text())
    assert len(rows) == 1
    assert rows[0]["experiment"] == "gg-thermal-gap"


def test_run_size_list_gives_one_row_per_size(tmp_path, capsys):
    raw = minimal_config(model={"n_sites": [2, 3], "betas": {"2": 1.0}, "field": 0.3},
                         output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    body = (tmp_path / "out" / "gg-thermal-gap-42.csv").read_text()
    assert len(body.splitlines()) == 3


# inputs that must exit 2 with one error line, never a traceback or exit 1
_BAD_VALUES = {
    "badbeta": minimal_config(model={"n_sites": 3, "betas": {"2": "hot"}}),
    "badparam": minimal_config(params={"n": "two"}),
    "badpower": minimal_config(params={"function": {"kind": "overlap-power", "power": "x"}}),
    "badtgrid": minimal_config(experiment="interpolation-sweep", params={"t_grid": "abc"}),
    "fractionalparams": minimal_config(experiment="gg-gap", params={"p": 2.7, "n": 2.9}),
    "booleancount": minimal_config(params={"n": True}),
    "booleanbeta": minimal_config(model={"n_sites": 3, "betas": {"2": True}}),
    "fractionalpower": minimal_config(
        params={"function": {"kind": "overlap-power", "power": 2.5}}),
    "fracsite": minimal_config(
        params={"function": {"kind": "spin-monomial", "sites": [[0.7], [2]]}}),
    "boolsite": minimal_config(
        params={"function": {"kind": "spin-monomial", "sites": [[0, True], [2]]}}),
    "stringsites": minimal_config(params={"function": {"kind": "spin-monomial", "sites": "01"}}),
    "stringbeta": minimal_config(model={"n_sites": 3, "betas": {"2": "1.0"}}),
    "stringfield": minimal_config(model={"n_sites": 3, "betas": {"2": 1.0}, "field": "0.3"}),
    "stringalpha": minimal_config(experiment="vb-logz-increment", params={"alpha": "0.5"}),
    "stringtgrid": minimal_config(experiment="interpolation-sweep", params={"t_grid": ["0.5"]}),
    "stringatoms": minimal_config(
        disorder={"family": "discrete", "atoms": ["1", "-1"], "probs": [0.5, 0.5]}),
    "hugeatoms": minimal_config(
        disorder={"family": "discrete", "atoms": [1e155, -1e155], "probs": [0.5, 0.5]}),
    "booleanmoment": minimal_config(disorder={"family": "three-point", "fourth_moment": True}),
    "infinitemoment": minimal_config(
        disorder={"family": "skewed-three-point", "fourth_moment": float("inf")}),
    "extralawkey": minimal_config(disorder={"family": "gaussian", "size": 8}),
    "skewkey": minimal_config(
        disorder={"family": "near-gaussian", "size": 8, "skew": {"family": "golden-skew"}}),
    "fewreplicas": minimal_config(params={"n": 1}),
    "fewreplicasderiv": minimal_config(
        experiment="derivative-moment-sum",
        params={"n": 1, "m": 3, "function": {"kind": "spin-monomial", "sites": [[0], [1], [2]]}}),
    "onereplicate": minimal_config(experiment="free-energy-fluctuation", params={},
                                   replicates=1),
    "zeropower": minimal_config(params={"p": 0}),
    "zeropowerdisorder": minimal_config(experiment="gg-gap", params={"p": 0}),
    "zeropowermonomial": minimal_config(
        experiment="gg-gap",
        params={"p": 0, "function": {"kind": "spin-monomial", "sites": [[0], [1]]}}),
    "negativepower": minimal_config(experiment="gg-gap", params={"p": -1}),
    "zeroorder": minimal_config(experiment="derivative-moment-sum", params={"m": 0}),
    "negativeorder": minimal_config(experiment="derivative-moment-sum", params={"m": -2}),
    "farsitederiv": minimal_config(experiment="derivative-moment-sum", params={},
                                   model={"n_sites": 2, "betas": {"2": 1.0}}),
    "emptytgrid": minimal_config(experiment="interpolation-sweep", params={"t_grid": []}),
    "repeatedcavitysite": minimal_config(experiment="cavity-identity",
                                         params={"n_cavity": 2, "cavity_sets": [[0, 0]]}),
    "negativecavity": minimal_config(experiment="cavity-identity",
                                     model={"n_sites": 4, "betas": {"2": 1.0}},
                                     params={"n_cavity": -1, "cavity_sets": []}),
    "hugeoverlappower": minimal_config(
        experiment="poisson-ibp", model={"n_sites": 8, "betas": {"2": 1.0}},
        params={"function": {"kind": "overlap-power", "power": 7}}),
    "hugederivativeorder": minimal_config(experiment="derivative-moment-sum",
                                          params={"n": 2, "m": 15}),
    "hugereplicates": minimal_config(replicates=(1 << 20) + 1),
    "hugeorder": minimal_config(experiment="free-energy-fluctuation", params={},
                                model={"n_sites": 20, "betas": {"7": 1.0}}),
    # without the replica cap, this one runs for more than 20 s
    "hugethermalreplicas": minimal_config(params={"n": 100000000}),
    # past the 16-replica cap (expansion.MAX_EXPANSION_REPLICAS), far and by one
    "hugeibpreplicas": minimal_config(experiment="poisson-ibp",
                                      model={"n_sites": 8, "betas": {"2": 1.0}},
                                      params={"n": 40}),
    "ibpreplicacap": minimal_config(experiment="poisson-ibp", params={"n": 17}),
    "duplicatebetakey": minimal_config(model={"n_sites": 3, "betas": {"2": 1.0, "02": 5.0}}),
    "underscorebetakey": minimal_config(model={"n_sites": 3, "betas": {"1_0": 1.0}}),
    "spacedbetakey": minimal_config(model={"n_sites": 3, "betas": {" 2": 1.0}}),
    "oversize": {"experiment": "gg-gap",
                 "model": {"n_sites": 100000, "betas": {"3": 1.0}},
                 "disorder": {"family": "gaussian"}},
    # numpy's Poisson draw fails on a huge mean, or allocates exabytes of edges
    "hugealphavb": minimal_config(experiment="vb-logz-increment", params={"alpha": 1e17}),
    "overflowalphavb": minimal_config(experiment="vb-logz-increment", params={"alpha": 1e300}),
    "hugealphaibp": minimal_config(experiment="poisson-ibp", params={"alpha": 1e17}),
    "overflowalphaibp": minimal_config(experiment="poisson-ibp", params={"alpha": 1e300}),
    # refused at the second size of a sweep only, so the first must not run
    "sweepoverlappower": minimal_config(
        experiment="poisson-ibp", model={"n_sites": [4, 8], "betas": {"2": 1.0}},
        params={"function": {"kind": "overlap-power", "power": 7}}, replicates=24),
    "sweepbulksite": minimal_config(experiment="cavity-identity", replicates=2000,
                                    model={"n_sites": [4, 1], "betas": {"2": 1.0}},
                                    params={"n_cavity": 1, "cavity_sets": [[0]]}),
    "trendsite": {"experiment": "trend-suite", "params": {"n_values": [4, 2]}, "replicates": 8},
    "trendonereplicate": {"experiment": "trend-suite", "params": {"n_values": [4]},
                          "replicates": 1},
    # empty lists that leave nothing to compute or check
    "emptytrend": {"experiment": "trend-suite", "params": {"n_values": []}, "replicates": 8},
    "emptycavitysets": minimal_config(experiment="cavity-identity", params={"cavity_sets": []}),
    "emptycavityblock": minimal_config(experiment="cavity-identity",
                                       params={"cavity_sets": [[]]}),
    # seeds outside 64 bits, which experiment_id refuses
    "negativeseed": minimal_config(seed=-1),
    "hugeseed": minimal_config(seed=1 << 64),
    # a key the function's kind does not take, and no function object at all
    "poweronone": minimal_config(params={"function": {"kind": "one", "power": 2}}),
    "stringpoweronone": minimal_config(params={"function": {"kind": "one", "power": "x"}}),
    "poweronmonomial": minimal_config(
        params={"function": {"kind": "spin-monomial", "sites": [[0], [1]], "power": 3}}),
    "sitesonone": minimal_config(params={"function": {"kind": "one", "sites": [[0]]}}),
    "sitesonoverlap": minimal_config(
        params={"function": {"kind": "overlap-power", "sites": [[0], [1]]}}),
    "nullfunction": minimal_config(params={"function": None}),
    # counts and sizes below 1, each refused by its library home
    "zeroreplicates": minimal_config(replicates=0),
    "zeroworkers": minimal_config(workers=0),
    "zerosites": minimal_config(model={"n_sites": 0, "betas": {"2": 1.0}}),
    "loworder": minimal_config(model={"n_sites": 3, "betas": {"1": 1.0}}),
}


@pytest.mark.parametrize("breaker,expected", [
    ("missing", cli.USAGE_ERROR),
    ("badjson", cli.USAGE_ERROR),
    ("unknownkey", cli.USAGE_ERROR),
    ("badfamily", cli.USAGE_ERROR),
    ("badmodel", cli.USAGE_ERROR),
] + [(name, cli.USAGE_ERROR) for name in _BAD_VALUES])
def test_run_failure_exit_codes(tmp_path, capsys, monkeypatch, breaker, expected):
    if breaker in _BAD_VALUES:
        raw = dict(_BAD_VALUES[breaker], output=str(tmp_path / "out"))
        code = cli.main(["run", write_config(tmp_path, raw)])
    elif breaker == "missing":
        code = cli.main(["run", str(tmp_path / "nope.json")])
    elif breaker == "badjson":
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["run", str(path)])
    elif breaker == "unknownkey":
        code = cli.main(["run", write_config(tmp_path, minimal_config(bogus=1))])
    elif breaker == "badfamily":
        raw = minimal_config(disorder={"family": "unheard-of"})
        code = cli.main(["run", write_config(tmp_path, raw)])
    else:
        raw = minimal_config(model={"n_sites": 3, "betas": {"2": float("nan")}})
        code = cli.main(["run", write_config(tmp_path, raw)])
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


_SMALL_INT = st.integers(-1, 4)
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 6), st.floats(-3.0, 3.0), st.integers(max_value=-1), st.just(0),
    st.text(max_size=3), st.lists(_SMALL_INT | st.lists(_SMALL_INT, max_size=3), max_size=3),
    st.none(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_cleanly(data):
    """One value of a small config replaced by an arbitrary JSON value (a
    function object's power or sites on any kind, and a trend suite's sizes,
    among them): the run exits 0, 1 only for a non-finite estimate, or 2
    with one error line and no replicate map made: every refusal comes
    before the work."""
    name = data.draw(st.sampled_from(
        sorted(n for n, e in cli.EXPERIMENTS.items() if not e.self_contained) + ["trend-suite"]))
    params = cli.EXPERIMENTS[name].params
    raw = minimal_config(experiment=name, params={}, workers=1)
    sections = ["model", "disorder", "replicates", "seed"] + (["params"] if params else []) + (
        ["function"] if "function" in params else [])
    section = data.draw(st.sampled_from(sections))
    value = data.draw(_FUZZ_VALUES)
    if name == "trend-suite":
        raw = {"experiment": name, "params": {"n_values": value}, "replicates": 2, "workers": 1}
    elif section == "function":
        kind = data.draw(st.sampled_from(["one", "overlap-power", "spin-monomial"]))
        raw["params"] = {"function": {"kind": kind,
                                      data.draw(st.sampled_from(["power", "sites"])): value}}
    elif section == "disorder":
        key = data.draw(st.sampled_from(
            ["size", "fourth_moment", "atoms", "probs", "skew", "mystery"]))
        raw["disorder"] = {"family": data.draw(st.sampled_from(sorted(dis._FAMILIES))),
                           key: value}
    elif section == "params":
        raw["params"] = {data.draw(st.sampled_from(sorted(cli.EXPERIMENTS[name].params))): value}
    elif section == "model":
        raw["model"] = dict(raw["model"],
                            **{data.draw(st.sampled_from(["n_sites", "betas", "field"])): value})
    else:
        raw[section] = value
    err, maps = io.StringIO(), []
    real_map = ex._map_replicates

    def spy(*args, **kwargs):
        maps.append(args[1])
        return real_map(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(dict(raw, output=os.path.join(tmp, "out")), handle)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                mock.patch.object(ex, "_map_replicates", spy):
            code = cli.main(["run", path])
        made_output = os.path.exists(os.path.join(tmp, "out"))
    err = err.getvalue()
    assert code in (0, 1, 2), err
    if code == 1:
        assert "non-finite" in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert maps == [] and not made_output, (maps, err)


def test_zero_workers_refused_alike_from_flag_and_config(tmp_path, capsys):
    """resolve_workers holds the rule, so both routes print the same line."""
    raw = minimal_config(output=str(tmp_path / "out"))
    errors = []
    for argv in (["run", write_config(tmp_path, raw), "--workers", "0"],
                 ["run", write_config(tmp_path, dict(raw, workers=0), "zero.json")]):
        assert cli.main(argv) == cli.USAGE_ERROR
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: the worker count must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def test_list_prints_known_experiments(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("gg-gap", "ibp-battery", "cavity-identity", "trend-suite"):
        assert name in out
    assert [line.split()[0] for line in out.splitlines()] == sorted(cli.EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_every_registered_experiment_runs(tmp_path, name):
    raw = {"experiment": name, "replicates": 2, "seed": 3, "output": str(tmp_path / "out")}
    if not cli.EXPERIMENTS[name].self_contained:
        raw["model"] = {"n_sites": 4, "betas": {"2": 1.0, "3": 0.5}}
        raw["disorder"] = {"family": "rademacher"}
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    assert (tmp_path / "out" / f"{name}-3.csv").exists()


# the fewest parameters each family needs
_FAMILY_PARAMS = {"three-point": {"fourth_moment": 4.0},
                  "skewed-three-point": {"fourth_moment": 5.0},
                  "near-gaussian": {"size": 8},
                  "discrete": {"atoms": [-2.0, 0.0, 2.0], "probs": [0.125, 0.75, 0.125]}}


@pytest.mark.parametrize("family", sorted(dis._FAMILIES))
def test_every_family_runs(tmp_path, family):
    disorder = {"family": family, **_FAMILY_PARAMS.get(family, {})}
    raw = minimal_config(experiment="gg-gap", params={}, replicates=2, disorder=disorder,
                         output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    assert (tmp_path / "out" / "gg-gap-42.csv").exists()


@pytest.mark.parametrize("way", ["flag", "config"])
def test_worker_count_above_cap_exits_2_before_any_pool(tmp_path, capsys, way, assert_pooled,
                                                        no_fork):
    assert_pooled(8, ModelSpec(13, {2: 1.0}, 0.3))
    raw = minimal_config(replicates=8, model={"n_sites": 13, "betas": {"2": 1.0}, "field": 0.3},
                         output=str(tmp_path / "out"))
    argv = ["run"]
    if way == "config":
        raw["workers"] = 50000
    argv.append(write_config(tmp_path, raw))
    if way == "flag":
        argv += ["--workers", "50000"]
    assert cli.main(argv) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(ex.MAX_WORKERS) in err


@pytest.mark.parametrize("refused", ["output", "order", "site", "trend", "repeatedkeys"]
                         + sorted(_BAD_VALUES))
def test_refused_run_exits_2_before_any_estimator(tmp_path, capsys, monkeypatch, refused):
    """An output path under a file, an order past the coupling-entry cap at
    the second size of a sweep, a test-function site past the second size,
    a trend size past the enumeration cap, a key given twice in one object,
    or any bad value exits 2 with one error line, computes nothing and
    leaves no output directory."""
    def no_work(*args, **kwargs):
        raise AssertionError("replicate work started")

    monkeypatch.setattr(ex, "_map_replicates", no_work)
    monkeypatch.setattr(ex.GibbsOracle, "build", no_work)
    (tmp_path / "file").write_text("")
    raw = minimal_config(output=str(tmp_path / "file" / "out"))
    text = None
    if refused in _BAD_VALUES:
        raw = dict(_BAD_VALUES[refused], output=str(tmp_path / "out"))
    elif refused == "repeatedkeys":
        raw = minimal_config(experiment="free-energy-fluctuation", params={},
                             output=str(tmp_path / "out"))
        text = json.dumps(raw).replace('"2": 1.0', '"2": 1.0, "2": 5.0').replace(
            '"replicates": 3', '"replicates": 3, "replicates": 4')
        assert text.count('"2"') == 2 and text.count('"replicates"') == 2
    elif refused == "order":
        raw = minimal_config(model={"n_sites": [3, 20], "betas": {"7": 1.0}},
                             output=str(tmp_path / "out"))
    elif refused == "site":
        raw = minimal_config(model={"n_sites": [12, 2], "betas": {"2": 1.0}},
                             params={"function": {"kind": "spin-monomial",
                                                  "sites": [[0, 1], [2]]}},
                             output=str(tmp_path / "out"))
    elif refused == "trend":
        raw = {"experiment": "trend-suite", "params": {"n_values": [8, 21]},
               "replicates": 200, "output": str(tmp_path / "out")}
    path = write_config(tmp_path, raw)
    if text is not None:
        (tmp_path / "config.json").write_text(text)
    assert cli.main(["run", path]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not os.path.exists(raw["output"])


def test_estimator_os_error_is_not_a_usage_error(tmp_path, monkeypatch):
    """Only making or writing the output directory turns an OSError into
    exit 2; one raised while estimating propagates."""
    def exhausted(*args, **kwargs):
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(ex, "gg_thermal_gap", exhausted)
    with pytest.raises(BlockingIOError):
        cli.main(["run", write_config(tmp_path, minimal_config(output=str(tmp_path / "o")))])


def test_order_6_at_n8_runs_in_ranges_under_the_coupling_cap(tmp_path, capsys):
    """One draw of order 6 at N = 8 fits MAX_COUPLING_ENTRIES but 17 do not;
    136 replicates on one worker run in ranges of mspec.max_draws = 16 rows,
    not the 32 of BATCH_ELEMS >> N."""
    raw = minimal_config(experiment="free-energy-fluctuation", params={}, replicates=136,
                         workers=1, model={"n_sites": 8, "betas": {"6": 1.0}},
                         output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0, capsys.readouterr().err


def test_verify_output_under_a_file_exits_2_before_the_checks(tmp_path, capsys, monkeypatch):
    def no_checks():
        raise AssertionError("a check ran")

    monkeypatch.setitem(cli._VERIFY, "gg", no_checks)
    (tmp_path / "file").write_text("")
    assert cli.main(["verify", "gg", "--output", str(tmp_path / "file" / "v")]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_verify_output_write_error_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(path, text):
        raise PermissionError(f"cannot write {path}")

    monkeypatch.setattr(cli, "_write_atomic", refuse)
    assert cli.main(["verify", "gg", "--output", str(tmp_path / "v")]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("experiment", ["gg-thermal-gap", "cavity-identity"])
@pytest.mark.parametrize("way,count", [("flag", "-3"), ("flag", "0"), ("config", 0)])
def test_worker_count_below_one_exits_2(tmp_path, capsys, experiment, way, count):
    """Also for an experiment that starts no workers: the count is checked
    before any work."""
    params = {"n_cavity": 1, "cavity_sets": [[0]]} if experiment == "cavity-identity" else None
    raw = minimal_config(experiment=experiment, output=str(tmp_path / "out"),
                         **({"params": params} if params else {}))
    argv = ["run"]
    if way == "config":
        raw["workers"] = count
    argv.append(write_config(tmp_path, raw))
    if way == "flag":
        argv += ["--workers", count]
    assert cli.main(argv) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_poisson_ibp_runs_at_the_replica_cap(tmp_path):
    """n = 16, the expansion cap, is the largest n the Poisson identity takes."""
    raw = minimal_config(experiment="poisson-ibp", params={"n": 16},
                         output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    assert (tmp_path / "out" / "poisson-ibp-42.csv").exists()


@pytest.mark.parametrize("beta_prime", [15.0, -40.0])
def test_poisson_ibp_stays_finite_at_large_beta_prime(tmp_path, beta_prime):
    raw = minimal_config(experiment="poisson-ibp", params={"beta_prime": beta_prime},
                         replicates=40, format="json", output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    (row,) = json.loads((tmp_path / "out" / "poisson-ibp-42.json").read_text())
    value, err = float(row["value"]), float(row["std_error"])
    # both sides average bounded functionals (|Delta_1 F| <= 2), so the error is O(1/sqrt(M))
    assert math.isfinite(value) and err < 1.0
    assert abs(value) <= 4.0 * err


def _package_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


def test_output_independent_of_blas_threads_and_workers(tmp_path, assert_pooled):
    """N = 4 and 8 run in process on any worker count; N = 12 and 16 fork
    the pool on two workers."""
    trend = {"experiment": "trend-suite", "params": {"n_values": [4, 8, 12]},
             "replicates": 6, "seed": 7}
    assert_pooled(6, ModelSpec(12, {2: ex.TREND_BETA}, ex.TREND_FIELD))
    assert_pooled(4, ModelSpec(16, {2: 1.0}, 0.3))
    # OpenBLAS splits a dot product over 2**16 entries across threads
    n16 = {"experiment": "self-averaging",
           "model": {"n_sites": 16, "betas": {"2": 1.0}, "field": 0.3},
           "disorder": {"family": "gaussian"}, "params": {"p": 2}, "replicates": 4, "seed": 7}
    for raw, runs in ((trend, (("1", "1"), ("2", "1"), ("1", "2"), ("2", "2"))),
                      (n16, (("1", "1"), ("2", "1")))):
        blobs = {}
        for threads, workers in runs:
            tag = f"{raw['experiment']}-t{threads}-w{workers}"
            path = write_config(tmp_path, dict(raw, output=str(tmp_path / tag)), f"{tag}.json")
            env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-m", "pspinlab.cli", "run", path,
                                   "--workers", workers], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            blobs[tag] = (tmp_path / tag / f"{raw['experiment']}-7.csv").read_bytes()
        assert len(set(blobs.values())) == 1, sorted(blobs)


def test_heap_is_frozen_at_exit_before_earlier_callbacks():
    """Importing the CLI registers ``gc.freeze`` at exit.  Exit callbacks run
    last in, first out, so one registered before the import sees the frozen
    heap, and the pool's shutdown, registered by ``experiments`` before the
    freeze, still runs after it."""
    script = ("import atexit, gc\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
              "import pspinlab.cli\n")
    done = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "frozen True\n"


def test_pooled_run_exits_with_its_workers_joined(tmp_path, assert_pooled):
    """A pooled trend suite in its own session exits 0, writes the bytes an
    in-process run writes, and leaves no process behind in that session."""
    assert_pooled(40, ModelSpec(8, {2: ex.TREND_BETA}, ex.TREND_FIELD))
    raw = {"experiment": "trend-suite", "params": {"n_values": [4, 8]}, "replicates": 40,
           "seed": 7}
    pooled = write_config(tmp_path, dict(raw, output=str(tmp_path / "pooled")), "pooled.json")
    proc = subprocess.Popen([sys.executable, "-m", "pspinlab.cli", "run", pooled,
                             "--workers", "2"], env=_package_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    local = write_config(tmp_path, dict(raw, output=str(tmp_path / "local")), "local.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", local, "--workers", "1"]) == 0
    assert ((tmp_path / "pooled" / "trend-suite-7.csv").read_bytes()
            == (tmp_path / "local" / "trend-suite-7.csv").read_bytes())


def test_pool_and_quadrature_load_on_first_use(tmp_path, assert_pooled):
    """In a fresh interpreter, importing the CLI and a one-worker run load
    none of ``concurrent.futures``, ``multiprocessing`` and
    ``numpy.polynomial``.  A pooled map loads none of them either,
    ``ibp.battery`` loads the last, and each gives the bytes it gives in
    this process: those of the in-process map, and the battery computed
    here."""
    assert_pooled(64, ModelSpec(8, {2: ex.TREND_BETA}, ex.TREND_FIELD))
    serial = write_config(tmp_path, {"experiment": "trend-suite", "params": {"n_values": [4]},
                                     "replicates": 8, "seed": 7, "workers": 1,
                                     "output": str(tmp_path / "out")})
    script = f"""if True:
        import json, sys
        import pspinlab.cli as cli
        import pspinlab.experiments as ex
        from pspinlab import ibp

        def loaded():
            return [name in sys.modules
                    for name in ("concurrent.futures", "multiprocessing",
                                 "numpy.polynomial")]

        steps = [loaded()]
        assert cli.main(["run", {serial!r}]) == 0
        steps.append(loaded())
        pooled = cli.render_csv(ex.trend_suite((4, 8), 64, seed=3, workers=2))
        steps.append(loaded())
        battery = repr(ibp.battery())
        steps.append(loaded())
        print(json.dumps({{"steps": steps, "pooled": pooled, "battery": battery}}))
    """
    done = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["steps"] == [[False] * 3] * 3 + [[False, False, True]]
    assert got["pooled"] == cli.render_csv(ex.trend_suite((4, 8), 64, seed=3, workers=1))
    assert got["battery"] == repr(cli.battery())


def test_main_twice_in_one_process_reuses_its_parser(tmp_path, capsys):
    """``main`` builds its parser once per process, and the one parser
    serves each subcommand in turn."""
    path = write_config(tmp_path, minimal_config(output=str(tmp_path / "out")))
    assert cli.main(["list"]) == 0
    assert cli.main(["run", path]) == 0
    assert cli.main(["verify", "gg"]) == 0
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.count("the recorded six-series") == 2 and "PASS gg-exact-zero" in out
    assert (tmp_path / "out" / "gg-thermal-gap-42.csv").exists()
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit):
        cli.main(["run"])  # a usage error leaves the parser fit for the next call
    assert cli.main(["list"]) == 0


def test_verify_gg_suite_passes(capsys, tmp_path):
    code = cli.run_verify("gg", output=str(tmp_path / "v"))
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS gg-exact-zero" in out
    assert (tmp_path / "v" / "verify-gg.csv").exists()


def test_verify_suite_names_are_wired():
    assert set(cli.VERIFY_SUITES) == set(cli._VERIFY)


def test_main_rejects_unknown_verify_suite():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "bogus"])
    assert err.value.code == 2


def test_run_reports_rows_on_stdout(tmp_path, capsys):
    raw = minimal_config(output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    out = capsys.readouterr().out
    assert "gg-thermal-gap" in out
    assert "wrote" in out


def test_stdout_rows_are_the_files_rows(tmp_path, capsys):
    """A label with a comma, monomial[0,1;2], is quoted on stdout as in the
    file, so each printed row parses to the header's 10 fields."""
    raw = minimal_config(params={"function": {"kind": "spin-monomial", "sites": [[0, 1], [2]]}},
                         output=str(tmp_path / "out"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("wrote ")]
    rows = list(csv.reader(printed))
    with open(tmp_path / "out" / "gg-thermal-gap-42.csv", newline="") as handle:
        header, *filed = csv.reader(handle)
    assert len(header) == 10 and [len(row) for row in rows] == [10]
    assert rows == filed and "monomial[0,1;2]" in rows[0]
