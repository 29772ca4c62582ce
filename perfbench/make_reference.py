"""Write the seed-7 reference rows of every workload through the CLI.

Usage (from the repository root): python3 perfbench/make_reference.py [WORKLOAD ...]

Each workload runs one untraced pass at the reference seed; its CSV rows, in
step order under one header, become ``perfbench/reference/<workload>.csv``.
Regenerate only when a change is meant to alter results, and say so.
"""

import os
import sys
import time

import gate
from run import REFERENCE_DIR, WORK_DIR, output_files, run_pass
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        work = os.path.join(WORK_DIR, f"reference-{name}")
        os.makedirs(work, exist_ok=True)
        steps = WORKLOADS[name].build_steps(gate.REFERENCE_SEED)
        done = run_pass(steps, work, "none", "-", time.monotonic() + 600.0)
        if done.exit_code != 0 or done.rows is None:
            print(f"error: {name} failed with exit code {done.exit_code}", file=sys.stderr)
            return 1
        lines = []
        for path in output_files(steps, os.path.join(work, "out")):
            with open(path, "r", encoding="utf-8", newline="") as handle:
                header, *body = handle.read().splitlines(keepends=True)
            lines.extend(body if lines else [header, *body])
        target = os.path.join(REFERENCE_DIR, f"{name}.csv")
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        print(f"wrote {target} ({len(lines) - 1} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
