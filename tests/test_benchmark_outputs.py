"""The benchmark's workloads still produce their recorded outputs.

Every workload of ``perfbench/workloads.py`` runs once at the reference seed
through ``pspinlab.cli.main``; its rows must pass the benchmark's own gate
against ``perfbench/reference/<workload>.csv``, and every cross-route case
must agree within the benchmark's bound.  The layers the benchmark traces
must still name existing functions.  The benchmark files are read, never
written.
"""

import json
import os
import sys

import pytest

import pspinlab.cli as cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
_SAVED = list(sys.path), set(sys.modules), sys.dont_write_bytecode
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode = True  # no __pycache__ there

import crossroute  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
from run import output_files  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Later test modules must not resolve generic names (run, gate, ...) to perfbench.
sys.path[:], sys.dont_write_bytecode = _SAVED[0], _SAVED[2]
for _name in set(sys.modules) - _SAVED[1]:
    if (getattr(sys.modules[_name], "__file__", None) or "").startswith(PERFBENCH):
        del sys.modules[_name]


_LAYERS = [t[:3] for t in tracing.TARGETS + [tracing.PANEL_COUNTER]]
_STALE = {  # names of removed layers that the benchmark still traces: they read 0
    "model.tuple_sum_batch", "model.batch_energies", "model.vb_batch_energies",
    "gibbs.GibbsOracle.column_product", tracing.PANEL_COUNTER[0]}


@pytest.mark.parametrize("target", _LAYERS, ids=[t[0] for t in _LAYERS])
def test_traced_layer_resolves(target):
    """``tracing.install`` skips a target the package no longer has, so a
    rename would read as 0 calls instead of failing.  Every traced layer
    resolves but the stale ones, which must stay unresolved until the
    benchmark replaces them: a layer that goes missing, or a stale one that
    comes back, fails here."""
    name, module, path = target
    assert (tracing._resolve(module, path) is None) == (name in _STALE), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_reference(tmp_path, name):
    workload = WORKLOADS[name]
    steps = workload.build_steps(gate.REFERENCE_SEED)
    out = str(tmp_path / "out")
    codes = []
    for i, step in enumerate(steps):
        if "verify" in step:
            codes.append(cli.main(["verify", step["verify"], "--output", out]))
            continue
        path = tmp_path / f"config-{i}.json"
        path.write_text(json.dumps(dict(step, output=out)))
        codes.append(cli.main(["run", str(path)]))
    rows = gate.read_rows(output_files(steps, out))
    reference = gate.read_rows([os.path.join(PERFBENCH, "reference", f"{name}.csv")])
    exit_code = next((c for c in codes if c), 0)
    assert gate.count_failed(rows, reference, gate.REFERENCE_SEED, exit_code) == 0
    for case in workload.cross_cases:
        assert crossroute.residual(case, gate.REFERENCE_SEED) <= crossroute.MAX_RESIDUAL, case
