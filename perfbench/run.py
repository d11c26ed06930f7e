#!/usr/bin/env python3
"""Closed-loop benchmark of the gibbsqfi batch command line.

    python3 perfbench/run.py --workload sweep-spin401 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One process runs one workload.  It imports the program from ``src/`` of
the checkout it sits in, writes the workload's inputs, then calls
``gibbsqfi.cli.main`` one job at a time, each job starting after the
previous one returned, until the next job would end past ``--seconds``.
Every job's output goes through the correctness gate (``gate.py``).

With ``--trace 0`` the last line reports the end-to-end metrics: set-up
time (median of fresh interpreters importing the program and writing the
inputs), median job wall time and peak resident memory.  With ``--trace 1``
an untraced warm-up job is followed by alternating traced and untraced
jobs, and the last line reports per-layer self times and call counts from
the traced jobs (see ``spans.py``) and the tracing overhead.  Lines before
the last one give the same figures by name, the failed-job ratio and the
environment.  ``--workload all`` runs each workload in its own process and
prints one table.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is first
# imported, here and in every child process, which inherits them.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MiB"}

# Per-function metrics of the traced run, each named "<layer>.<function>".
SELF_TIMES = (
    "hilbert.as_operator",
    "hilbert.eigendecompose",
    "hilbert.to_eigenbasis",
    "hilbert.thermal_average",
    "hilbert.duhamel_weight_matrix",
    "hilbert.read_operator_json",
    "families.eval_g",
    "families.eval_c",
    "families.taylor_coeffs",
    "dsf.build_dsf",
    "dsf.build_cross_dsf",
    "dsf.bogoliubov_duhamel",
    "dsf.functional_F",
    "dsf.sum_rule_report",
    "metrics.metric_spectral",
    "metrics.metric_mc_oracle",
    "metrics.metric_from_dsf",
    "metrics.metric_series_A",
    "metrics.cross_metric",
    "inequalities.chain_check",
    "inequalities.commutator_bounds",
    "inequalities.geometric_mean_checks",
    "inequalities.cauchy_schwarz_cross",
    "inequalities.run_verification_suite",
    "cli.main",
)
CALL_COUNTS = (
    "hilbert.as_operator",
    "hilbert.eigendecompose",
    "hilbert.to_eigenbasis",
    "hilbert.thermal_average",
    "hilbert.duhamel_weight_matrix",
    "hilbert.read_operator_json",
    "families.eval_g",
    "families.eval_c",
    "dsf.build_dsf",
    "dsf.build_cross_dsf",
    "metrics.cross_metric",
)
RATIOS = (
    "hilbert.to_eigenbasis.calls_per_unit",
    "cli.parallel_efficiency",
    "budget.busy_over_eigh",
    "trace.overhead_ratio",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in spans.LAYERS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({"trace.busy_s": "s", "trace.unattributed_s": "s"})
    units.update({name: "ratio" for name in RATIOS})
    units["dsf.build_dsf.lines"] = "count"  # structure-factor lines per call
    return units


def load_program():
    """Import ``gibbsqfi.cli`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from gibbsqfi import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gibbsqfi from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: gibbsqfi was imported from {cli.__file__}, not {src}")
    return cli


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS + ("QFI_NUM_THREADS",)},
    }


def measure_setup(workload: Workload, seed: int) -> float:
    """Median time from a fresh interpreter's start to inputs ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        # CLOCK_MONOTONIC is shared by all processes of the machine
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


@dataclass
class Job:
    wall_s: float
    busy_s: float
    problems: list[str]
    recorder: spans.Recorder | None


def run_job(cli, workload: Workload, argv, workdir: Path, reference: dict, traced: bool) -> Job:
    output = workdir / workload.output
    output.unlink(missing_ok=True)
    recorder = spans.Recorder() if traced else None
    problems = []
    code = None
    with spans.traced(recorder) if traced else contextlib.nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a failing job is counted, never dropped
            traceback.print_exc()
            problems.append(f"raised {exc!r}")
        wall_s = time.perf_counter() - t0
        busy_s = time.process_time() - cpu0
    if code is not None:
        try:
            problems += workload.check(code, workload.read(output), reference)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    for problem in problems[:5]:
        print(f"# FAIL {workload.name}: {problem}", file=sys.stderr)
    return Job(wall_s, busy_s, problems, recorder)


def closed_loop(cli, workload, argv, workdir, reference, seconds, trace) -> list[Job]:
    """Jobs back to back until the next one would end past ``seconds``.

    With tracing, an untraced warm-up job comes first, so that the process's
    first-job costs fall on neither side of the overhead ratio; then traced
    and untraced jobs alternate until at least one of each has run.
    """
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(cli, workload, argv, workdir, reference, traced))
        elapsed = time.perf_counter() - start
        if len(jobs) >= (3 if trace else 1) and elapsed + jobs[-1].wall_s > seconds:
            return jobs


def layer_metrics(job: Job, workload: Workload) -> dict[str, float]:
    summary = spans.summarize(job.recorder.spans, job.busy_s)
    functions = summary["functions"]

    def get(name, field):
        return functions.get(name, {}).get(field, 0)

    metrics = {f"{layer}.self_s": summary["layers"][layer] for layer in spans.LAYERS}
    metrics.update({f"{name}.self_s": get(name, "self_s") for name in SELF_TIMES})
    metrics.update({f"{name}.calls": get(name, "calls") for name in CALL_COUNTS})
    metrics["trace.busy_s"] = summary["busy_s"]
    metrics["trace.unattributed_s"] = summary["unattributed_s"]
    metrics["hilbert.to_eigenbasis.calls_per_unit"] = get("hilbert.to_eigenbasis", "calls") / workload.units_per_job
    dsf_calls = get("dsf.build_dsf", "calls")
    metrics["dsf.build_dsf.lines"] = get("dsf.build_dsf", "work") / dsf_calls if dsf_calls else 0.0
    metrics["cli.parallel_efficiency"] = job.busy_s / (workload.threads * job.wall_s)
    eigh_s = get("hilbert.eigendecompose", "self_s")
    # 0 marks a job that made no eigendecompose call, where the ratio is undefined
    metrics["budget.busy_over_eigh"] = job.busy_s / eigh_s if eigh_s > 0 else 0.0
    return metrics


def traced_result(jobs: list[Job], workload: Workload, spans_path: Path, header: dict):
    """Per-layer metrics of the traced job with the median busy time.

    Taking every figure from one job keeps the layer self times and the
    unattributed time adding up to that job's busy time.
    """
    traced = [job for job in jobs if job.recorder is not None]
    plain = [job for job in jobs[1:] if job.recorder is None]  # jobs[0] warmed up
    per_job = [layer_metrics(job, workload) for job in traced]
    problems = [
        f"{name} differs between traced jobs: {[m[name] for m in per_job]}"
        for name in (f"{n}.calls" for n in CALL_COUNTS)
        if len({m[name] for m in per_job}) > 1
    ]
    by_busy = sorted(range(len(traced)), key=lambda i: traced[i].busy_s)
    middle = by_busy[(len(by_busy) - 1) // 2]
    metrics = per_job[middle]
    metrics["trace.overhead_ratio"] = (
        statistics.median(j.wall_s for j in traced) / statistics.median(j.wall_s for j in plain)
    )
    spans.write_spans(traced[middle].recorder.spans, spans_path, header)
    units = per_layer_units()
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, problems


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    cli = load_program()
    os.environ["QFI_NUM_THREADS"] = str(workload.threads)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        if args.setup_probe:
            workload.prepare(args.seed, workdir)
            print(time.monotonic())
            return 0
        setup_s = None if args.trace else measure_setup(workload, args.seed)
        argv = workload.prepare(args.seed, workdir)
        reference = load_reference(workload, args.seed)
        env = environment(args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        jobs = closed_loop(cli, workload, argv, workdir, reference, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for job in jobs if job.problems)
    problems = []
    if args.trace:
        spans_path = WORK_ROOT / f"spans-{workload.name}.jsonl"
        header = {"workload": workload.name, "env": env}
        metrics, problems = traced_result(jobs, workload, spans_path, header)
        print(f"# spans of that traced job: {spans_path}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": setup_s,
            "job_s": statistics.median(job.wall_s for job in jobs),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in problems:
        print(f"# FAIL {workload.name}: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"# {workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# {workload.name} job wall times: {' '.join(f'{j.wall_s:.3f}' for j in jobs)} s")
    print(f"# {workload.name} failed_ratio = {failed / len(jobs):.6g} ratio ({failed} of {len(jobs)} jobs)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':<16} {'metric':<40} {'value':>14}  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<40} {entry['value']:>14.6g}  {entry['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<16} {'failed_ratio':<40} {ratio:>14.6g}  ratio ({result['attempted']} jobs)")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
