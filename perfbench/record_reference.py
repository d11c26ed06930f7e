#!/usr/bin/env python3
"""Record the outputs the correctness gate compares every job against.

    python3 perfbench/record_reference.py

Runs each workload once per reference instance with the program in
``src/`` and writes ``reference.json``.  Rerun it only when a change to the
program is meant to change its outputs, and say so in the change.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
from workloads import REFERENCE_PATH, REFERENCE_POOL, WORKLOADS


def record(cli, workload, seed: int):
    """One job's output, after checking it against itself (routes, exit code)."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        workdir = Path(tmp)
        code = cli.main(workload.prepare(seed, workdir))
        output = workload.read(workdir / workload.output)
    problems = workload.check(code, output, output)
    if problems:
        raise SystemExit(f"{workload.name} seed {seed}: {problems[:3]}")
    return output


def main() -> int:
    cli = run.load_program()
    reference = {}
    for workload in WORKLOADS.values():
        os.environ["QFI_NUM_THREADS"] = str(workload.threads)
        instances = sorted({workload.instance(seed) for seed in range(REFERENCE_POOL)})
        reference[workload.name] = {
            str(seed): record(cli, workload, seed) for seed in instances
        }
        print(f"{workload.name}: {len(instances)} instances", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
