"""The repo's benchmark: named workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 nsecbench/run.py --workload study --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unwrapped.
``--trace 1`` makes a separate traced run that reports per-layer counts
and self time (see ``tracing.py``) and the tracing overhead. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the host. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("study", "scan", "service", "fleet")

#: End-to-end metric -> unit (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name):
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def calibration_s():
    """Median seconds of a fixed pure-Python loop: how fast the host ran.

    The reference host is a shared VM whose speed drifts; this figure
    lets a reader tell host drift from a change in the program.
    """
    samples = []
    for __ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def host_facts(root):
    """Facts every result is recorded with."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": commit,
        "service_traffic": "UDP over the loopback interface of this host",
        "calibration_s": calibration_s(),
    }


def run_batch(name, seed, seconds, trace, work_dir):
    import batch
    import layers

    workload = batch.BatchWorkload(name, ROOT, seed, work_dir)
    if not trace:
        reps = []
        started = time.perf_counter()
        while True:
            reps.append(workload.rep())
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(reps) > seconds:
                break
        metrics = {
            key: statistics.median(rep[key] for rep in reps) for key in END_TO_END
        }
        print(
            f"[nsecbench] {name}: {len(reps)} repetitions, measure_s="
            f"{[round(rep['measure_s'], 3) for rep in reps]}",
            file=sys.stderr,
        )
    else:
        untraced = workload.rep()
        first, merged = batch.traced_rep(workload, work_dir)
        reps = [untraced, first]
        metrics = layers.layer_metrics(merged)
        metrics["trace.overhead_frac"] = first["wall_s"] / untraced["wall_s"] - 1.0
        for key in ("supervisor.worker_build_s", "supervisor.worker_measure_s",
                    "supervisor.restarts"):
            if key in untraced:
                metrics[key] = untraced[key]
        if name in ("study", "scan"):
            second, again = batch.traced_rep(workload, work_dir)
            reps.append(second)
            metrics["trace.count_mismatches"] = len(batch.count_check(name, merged, again))
    attempted = sum(rep["units"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = workload.digest_problems()
    if trace:
        metrics["bench.fail_frac"] = failed / attempted
        if metrics.get("trace.count_mismatches"):
            problems.append(f"{name}: exact counts differ between two traced runs")
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


def run_workload(name, seed, seconds, trace, work_dir):
    if name == "service":
        import service

        return service.run(ROOT, seed, seconds, trace_root=work_dir if trace else None)
    return run_batch(name, seed, seconds, trace, work_dir)


def result_line(outcome, trace):
    import layers

    if trace:
        names = layers.all_names()
        units = {name: unit_of(name) for name in names}
    else:
        names = list(END_TO_END)
        units = END_TO_END
    metrics = {
        name: {"value": outcome["metrics"].get(name, 0), "unit": units[name]}
        for name in names
    }
    return {
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print(f"nsecbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work_dir = os.path.join(ROOT, ".nsecbench_work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in outcome["problems"]:
        print(f"[nsecbench] INCORRECT: {problem}", file=sys.stderr)
    result = result_line(outcome, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:8s} {name:40s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({"host": host_facts(ROOT), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
