"""pspinlab benchmark: one workload, one seed, timed or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload trend-n16 --seed 7 --seconds 20 --trace 0

With ``--trace 0`` the workload is run as repeated passes, each in a fresh
interpreter that drives ``pspinlab.cli``, until ``--seconds`` have passed;
the end-to-end metrics are medians over the passes.  With ``--trace 1`` the
passes run in-process with one worker and every layer wrapped in spans (see
``tracing.py``); the per-layer metrics are medians over the traced passes.
Either way every pass's output rows go through the correctness gate
(``gate.py``) and a few seed paths go through the cross-route check
(``crossroute.py``) after the timed region.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the first line records the host.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gate
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = ".perfbench-work"
RUN_LIMIT_S = 170.0  # every run, builds excepted, must end within 180 s
PIN_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RSS_POLL_S = 0.02


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or declarations)."""


def declared_metrics(bench_path: str = "BENCHMARK.json") -> dict[str, dict]:
    with open(bench_path, "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def host_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "threads": dict(PIN_THREADS),
            "start_method": multiprocessing.get_start_method()}


def _tree_rss_kb(pid: int) -> int:
    """Resident set of a process and all its descendants, from /proc."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", "r", encoding="ascii") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except (OSError, ValueError):
            continue
    return total


@dataclass
class Pass:
    """One child pass: timings, peak memory, exit code, output rows and the
    child's own result record (None when the child died before writing it)."""

    wall_s: float
    setup_s: float
    peak_mb: float
    exit_code: int
    rows: list[dict] | None
    result: dict | None


def output_files(steps: list[dict], out_dir: str) -> list[str]:
    """The result CSV each step writes, in step order."""
    return [os.path.join(out_dir, f"verify-{s['verify']}.csv" if "verify" in s
                         else f"{s['experiment']}-{s['seed']}.csv") for s in steps]


def run_pass(steps: list[dict], work: str, mode: str, workers: str,
             deadline: float) -> Pass:
    out_dir = os.path.abspath(os.path.join(work, "out"))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    args = []
    for i, step in enumerate(steps):
        if "verify" in step:
            args.append(f"verify:{step['verify']}")
            continue
        path = os.path.join(work, f"config-{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(step, output=out_dir), handle)
        args.append(path)
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    env = {k: v for k, v in os.environ.items() if k != "PSPINLAB_WORKERS"}
    env.update(PIN_THREADS, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, result_path, workers,
           out_dir, *args]
    peak = [0]
    with open(os.path.join(work, "stderr.txt"), "w", encoding="utf-8") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        done = threading.Event()

        def poll():
            while not done.wait(RSS_POLL_S):
                peak[0] = max(peak[0], _tree_rss_kb(proc.pid))

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            code = proc.wait(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            code = proc.wait()
        finished = time.monotonic()
        done.set()
        poller.join()
    result = None
    if os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    expected = output_files(steps, out_dir)
    rows = gate.read_rows(expected) if all(map(os.path.exists, expected)) else None
    if code != 0:
        with open(os.path.join(work, "stderr.txt"), "r", encoding="utf-8") as err:
            sys.stderr.write(err.read()[-2000:])
    setup_s = result["setup_done"] - spawned if result else float("nan")
    peak_kb = max(peak[0], result["peak_kb"] if result else 0)
    return Pass(finished - spawned, setup_s, peak_kb / 1024.0, code, rows, result)


def timed_metrics(passes: list[Pass], replicates: int) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "replicates_per_s": statistics.median(replicates / (p.wall_s - p.setup_s)
                                              for p in passes),
        "peak_rss_mb": statistics.median(p.peak_mb for p in passes),
    }


def _series_busy_s(result: dict) -> float:
    """Summed duration of the top-level estimator-series spans."""
    trace = result["trace"]
    names = trace["names"]
    root = next(i for i, nid in enumerate(trace["name_id"]) if names[nid] == "trace.root")
    return sum(trace["end"][i] - trace["start"][i]
               for i, nid in enumerate(trace["name_id"])
               if trace["parent"][i] == root and names[nid] != "trace.root") * 1e-9


def layer_metrics(full: Pass, untraced: Pass, series_w1: Pass | None,
                  series_pooled: Pass | None) -> dict[str, float]:
    """Per-layer figures of one traced cycle; layers a workload never calls
    read 0, and the pool figures are 0 on workloads that run no pool."""
    summary = tracing.summarize(full.result["trace"])
    counters = full.result["trace"]["counters"]
    out: dict[str, float] = {}
    for name, *_ in tracing.TARGETS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    out.update({key: counters.get(key, 0.0) for key in tracing.COUNTERS})
    moment = summary.get("gibbs.GibbsOracle.moment")
    out["gibbs.GibbsOracle.moment.hit_ratio"] = (
        1.0 - moment["misses"] / moment["calls"] if moment else 0.0)
    out["cli.import_s"] = full.result["import_s"]
    out["trace.overhead_s"] = full.result["dispatch_s"] - untraced.result["dispatch_s"]
    out["trace.unattributed_s"] = summary["trace.root"]["self_s"]
    out["experiments.pool.efficiency"] = 0.0
    out["experiments.pool.overhead_s"] = 0.0
    if series_pooled is not None:
        busy = _series_busy_s(series_w1.result)
        wall = _series_busy_s(series_pooled.result)
        out["experiments.pool.efficiency"] = busy / (2.0 * wall)
        out["experiments.pool.overhead_s"] = wall - busy / 2.0
    return out


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    began = time.monotonic()
    run_deadline = began + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "pspinlab", "cli.py")):
        raise BenchError("no pspinlab sources under ./src; run from the repository root")
    declared = declared_metrics()
    workload = WORKLOADS[workload_name]
    reference = gate.read_rows([os.path.join(REFERENCE_DIR, f"{workload_name}.csv")])
    work = os.path.join(WORK_DIR, f"{workload_name}-{seed}-{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steps = workload.build_steps(seed)
    print("host " + json.dumps(host_facts(), sort_keys=True), flush=True)

    attempted = failed = 0

    def gated(p: Pass) -> Pass:
        nonlocal attempted, failed
        attempted += len(reference)
        failed += gate.count_failed(p.rows, reference, seed, p.exit_code)
        return p

    measure_until = time.monotonic() + seconds
    samples: list[dict[str, float]] = []
    passes: list[Pass] = []
    while True:
        if trace:
            cycle = [gated(run_pass(steps, work, mode, "1", run_deadline))
                     for mode in ("none", "full")]
            if workload.pooled:
                cycle += [gated(run_pass(steps, work, "series", workers, run_deadline))
                          for workers in ("1", "-")]
            if all(p.result for p in cycle):
                untraced, full, *series = cycle
                samples.append(layer_metrics(full, untraced, *(series or (None, None))))
        else:
            p = gated(run_pass(steps, work, "none", "-", run_deadline))
            passes.append(p)
            print(f"pass {len(passes)}: exit {p.exit_code} wall_s {p.wall_s:.4f} "
                  f"setup_s {p.setup_s:.4f} peak_rss_mb {p.peak_mb:.1f}", flush=True)
        if time.monotonic() >= measure_until:
            break

    sys.path.insert(0, os.path.abspath("src"))
    import crossroute
    worst = 0.0
    for case in workload.cross_cases:
        res = crossroute.residual(case, seed)
        worst = max(worst, res)
        attempted += 1
        failed += not res <= crossroute.MAX_RESIDUAL

    if trace:
        if not samples:
            raise BenchError("no traced pass completed")
        values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        values["gibbs.cross_route.max_residual"] = worst
        wanted = declared["per_layer"]
    else:
        ok = [p for p in passes if p.exit_code == 0 and p.result]
        if not ok:
            raise BenchError("no timed pass completed")
        values = timed_metrics(ok, workload.replicates)
        values["ok_ops_frac"] = 1.0 - failed / attempted
        wanted = declared["end_to_end"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": select(values, wanted)}


def select(values: dict[str, float], wanted: dict[str, str]) -> dict[str, dict]:
    """Exactly the declared metrics, each with its declared unit."""
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
