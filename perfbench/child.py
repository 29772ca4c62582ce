"""One workload pass in a fresh interpreter, driven through ``pspinlab.cli``.

Usage: python3 perfbench/child.py MODE RESULT_JSON WORKERS OUTPUT STEP [STEP ...]

MODE is ``none`` (untraced), ``full`` (every layer traced) or ``series``
(only the public estimator series traced).  WORKERS is ``-`` to keep each
config's own worker count, or an integer override.  A STEP is a config path,
run with ``pspinlab run``, or ``verify:SUITE``, run with ``pspinlab verify
SUITE --output OUTPUT``.  The pass imports the CLI, parses every config,
then runs each step with ``pspinlab.cli.main``.  It writes timings, exit
codes, its own peak RSS and (when traced) the spans to RESULT_JSON.  The
monotonic clock is shared with the parent process, which takes set-up time
as ``setup_done`` minus its own spawn time.
"""

import json
import os
import sys
import time


def _own_peak_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    mode, result_path, workers, output, steps = argv[0], argv[1], argv[2], argv[3], argv[4:]
    commands = []
    began = time.perf_counter()
    import pspinlab.cli as cli
    import_s = time.perf_counter() - began
    for step in steps:
        if step.startswith("verify:"):
            commands.append(["verify", step[len("verify:"):], "--output", output])
            continue
        with open(step, "r", encoding="utf-8") as handle:
            cli.parse_config(json.load(handle))
        commands.append(["run", step] + ([] if workers == "-" else ["--workers", workers]))
    setup_done = time.monotonic()

    tracer = undo = None
    if mode != "none":
        import tracing
        tracer = tracing.Tracer()
        targets = tracing.TARGETS if mode == "full" else tracing.series_targets()
        undo = tracing.install(tracer, targets, panels=mode == "full")
        root = tracer.open("trace.root")
    started = time.perf_counter()
    codes = [cli.main(command) for command in commands]
    dispatch_s = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)
        tracing.uninstall(undo)

    result = {"setup_done": setup_done, "import_s": import_s, "dispatch_s": dispatch_s,
              "exit_codes": codes, "peak_kb": _own_peak_kb(),
              "trace": tracer.to_json() if tracer is not None else None}
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, result_path)
    return next((c for c in codes if c), 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
