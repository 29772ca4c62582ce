"""Span tracing of pspinlab layers, done from outside the package.

The tracer wraps public functions and methods of ``pspinlab`` and records one
span per call: name, start, end and the span that was open when the call
began.  A function imported by name into another module (``from .model
import spin_matrix``) is a second binding of the same object, so ``install``
rebinds every module-level name in every loaded ``pspinlab`` module that
refers to a wrapped function; methods are wrapped once, on their class.
``uninstall`` puts every original back.

Spans are kept in compact in-memory arrays and written out after the run;
``self_times`` turns them into per-span self time (duration minus the part
of it that child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from array import array

WRAPPER_MARK = "__perfbench_span__"

SERIES = ("gg_gap", "universality_gap", "self_averaging", "derivative_moment_sum",
          "free_energy_fluctuation", "interpolation_sweep", "vb_logz_increment",
          "poisson_ibp_check", "gg_thermal_gap", "cavity_identity_check")


def _fwht_work(args, result) -> dict[str, float]:
    # N * 2**N add/sub per transform; bytes are computed from array sizes:
    # one float64 copy in, then log2(size) passes that read and write every
    # element once.
    size = result.size
    log2 = int(math.log2(size)) if size > 1 else 0
    return {"computed_ops": size * log2, "computed_bytes": 8 * size * (2 * log2 + 2)}


def _written_bytes(args, result) -> dict[str, float]:
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (span name, module, attribute path, optional counter(args, result) -> dict)
TARGETS = [
    ("model.spin_matrix", "pspinlab.model", "spin_matrix", None),
    ("model.tuple_sum_batch", "pspinlab.model", "tuple_sum_batch", None),
    ("model.batch_energies", "pspinlab.model", "batch_energies", None),
    ("model.vb_batch_energies", "pspinlab.model", "vb_batch_energies", None),
    ("disorder.SeedPath.generator", "pspinlab.disorder", "SeedPath.generator", None),
    ("disorder.sample_couplings", "pspinlab.disorder", "sample_couplings", None),
    ("disorder.sample_vb", "pspinlab.disorder", "sample_vb", None),
    ("gibbs.GibbsOracle.init", "pspinlab.gibbs", "GibbsOracle.__init__", None),
    ("gibbs.fwht", "pspinlab.gibbs", "fwht", _fwht_work),
    ("gibbs.GibbsOracle.pair_moment_matrix", "pspinlab.gibbs",
     "GibbsOracle.pair_moment_matrix", None),
    ("gibbs.GibbsOracle.star_overlap_expectation", "pspinlab.gibbs",
     "GibbsOracle.star_overlap_expectation", None),
    ("gibbs.GibbsOracle.moment", "pspinlab.gibbs", "GibbsOracle.moment", None),
    ("gibbs.GibbsOracle.column_product", "pspinlab.gibbs", "GibbsOracle.column_product", None),
    ("gibbs.overlap_product_expectation", "pspinlab.gibbs", "overlap_product_expectation", None),
    ("gibbs.ReplicaFunctional.evaluate", "pspinlab.gibbs", "ReplicaFunctional.evaluate", None),
    ("expansion.derivative_power_tuple_sum", "pspinlab.expansion",
     "derivative_power_tuple_sum", None),
    ("expansion.signed_basis", "pspinlab.expansion", "signed_basis", None),
    *((f"experiments.{name}", "pspinlab.experiments", name, None) for name in SERIES),
    ("experiments.multioverlap_sq_expectation", "pspinlab.experiments",
     "multioverlap_sq_expectation", None),
    ("experiments.mean_stderr", "pspinlab.experiments", "mean_stderr", None),
    ("ibp.battery", "pspinlab.ibp", "battery", None),
    ("ibp.adaptive_gauss_legendre", "pspinlab.ibp", "adaptive_gauss_legendre", None),
    ("cli.parse_config", "pspinlab.cli", "parse_config", None),
    ("cli.write_outputs", "pspinlab.cli", "write_outputs", _written_bytes),
]

# Counted, not spanned: each adaptive quadrature panel evaluates the private
# segment rule twice (20- and 40-point), so panels = calls / 2.
PANEL_COUNTER = ("ibp.adaptive_gauss_legendre.panels", "pspinlab.ibp", "_gl_segment", 0.5)


# Every counter a traced pass can report (absent ones read 0).
COUNTERS = ("gibbs.fwht.computed_ops", "gibbs.fwht.computed_bytes",
            "cli.write_outputs.bytes", PANEL_COUNTER[0])


def series_targets():
    """Only the public estimator series; used for the pool-efficiency runs."""
    return [t for t in TARGETS if t[2] in SERIES]


class Tracer:
    """In-memory span store.  Single-threaded: one stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.count(f"{name}.{key}", amount)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def to_json(self) -> dict:
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "counters": self.counters}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pspinlab" or name.startswith("pspinlab."))]


def _resolve(module: str, path: str):
    """(owner, attribute, original), or None when the target no longer exists."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = vars(owner).get(attr) if owner is not None else None
    return None if original is None else (owner, attr, original)


def _rebind_everywhere(original, replacement, undo: list) -> None:
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def install(tracer: Tracer, targets=TARGETS, panels: bool = True) -> list:
    """Wrap every target; returns the undo list for ``uninstall``.

    A target the package no longer has is skipped, so its layer reads 0
    calls instead of failing the run.
    """
    undo: list = []
    for name, module, path, counter in targets:
        found = _resolve(module, path)
        if found is None:
            continue
        owner, attr, original = found
        wrapped = tracer.wrap(name, original, counter)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        else:
            _rebind_everywhere(original, wrapped, undo)
    found = _resolve(*PANEL_COUNTER[1:3]) if panels else None
    if found is not None:
        key, per_call, original = PANEL_COUNTER[0], PANEL_COUNTER[3], found[2]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(key, per_call)
            return original(*args, **kwargs)

        setattr(counted, WRAPPER_MARK, key)
        _rebind_everywhere(original, counted, undo)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


# -- analysis ----------------------------------------------------------------


def self_times(start, end, parent) -> list[int]:
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span, so overlapping children count once."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        run_lo = run_hi = None
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s and, for moment spans, how many
    had to compute a column product (cache misses)."""
    names, name_id = trace["names"], trace["name_id"]
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    selfs = self_times(start, end, parent)
    out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "misses": 0} for n in names}
    miss_child = {parent[i] for i, nid in enumerate(name_id)
                  if names[nid] == "gibbs.GibbsOracle.column_product" and parent[i] >= 0}
    for i, nid in enumerate(name_id):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += selfs[i] * 1e-9
        row["total_s"] += (end[i] - start[i]) * 1e-9
        if i in miss_child:
            row["misses"] += 1
    return out

