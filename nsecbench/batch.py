"""The batch workloads: ``study``, ``scan`` and ``fleet``.

Each repetition spawns one ``python -m repro`` command and reads it from
outside (see :mod:`proc`):

- ``study``/``scan``: set-up ends when the ``[testbed]`` line arrives
  (interpreter start, testbed build, probe zones); the measure phase runs
  from there to the ``[sim]`` line, which follows the report. Resolver
  deployment happens inside the study pipeline, after the domain scan, so
  it falls in the measure phase (about 3 ms; the traced run reports it
  as ``testbed.deploy_resolvers_s``).
- ``fleet``: the whole supervised run is timed; set-up is the slowest
  shard's ``build_seconds`` from the shard done reports.

The report on stdout is checked against pinned sha256 digests; the fleet
report must equal the study report of the same seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile

import layers
import tracing
from proc import run_program

STUDY_ARGS = ["study", "--domains", "200", "--tlds", "30", "--resolvers", "64"]
SCAN_ARGS = ["scan", "--domains", "4000", "--tlds", "60"]

#: workload -> (program arguments, which pinned report it must match)
WORKLOADS = {
    "study": (STUDY_ARGS, "study"),
    "scan": (SCAN_ARGS, "scan"),
    "fleet": (STUDY_ARGS + ["--workers", "2"], "study"),
}

_TESTBED = re.compile(r"\[testbed\] (\d+) domains, (\d+) TLDs")
_COVERAGE = re.compile(r"restarts=(\d+) .*coverage=(\d+)/(\d+)")


class BatchError(RuntimeError):
    """The program did not run to completion."""


def pinned_digests(bench_dir):
    with open(os.path.join(bench_dir, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _resolver_units(argv):
    """Resolvers the study deploys for ``--resolvers N`` (supervisor rule)."""
    from repro.scanner.supervisor import deployment_counts

    return sum(deployment_counts(int(argv[argv.index("--resolvers") + 1])).values())


class BatchWorkload:
    """Repetitions of one batch command, with their checks."""

    def __init__(self, name, root, seed, work_dir):
        self.name = name
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        argv, self.report = WORKLOADS[name]
        self.argv = argv + ["--seed", str(seed)]
        digests = pinned_digests(os.path.join(root, "nsecbench"))
        self.expected = digests.get(self.report, {}).get(str(seed))
        self.seen_digests = set()

    # -- one repetition ------------------------------------------------------

    def rep(self, trace_dir=None):
        """Run once; returns a dict of the rep's figures and checks."""
        state_dir = None
        argv = list(self.argv)
        if self.name == "fleet":
            # A fresh state dir per run: a cold build cache, as a new
            # campaign pays it.
            state_dir = tempfile.mkdtemp(prefix="fleet-", dir=self.work_dir)
            argv += ["--state-dir", state_dir]
        try:
            run = run_program(argv, self.root, trace_dir=trace_dir)
            if run.returncode != 0:
                raise BatchError(
                    f"{' '.join(argv)} exited {run.returncode}:\n{run.stderr_text()}"
                )
            out = self._figures(run, state_dir)
        finally:
            if state_dir is not None:
                shutil.rmtree(state_dir, ignore_errors=True)
        digest = hashlib.sha256(run.stdout).hexdigest()
        self.seen_digests.add(digest)
        out["digest"] = digest
        out["digest_ok"] = digest == self.expected if self.expected else None
        out["wall_s"] = run.wall_s
        out["cpu_s"] = run.cpu_s
        out["peak_rss_mb"] = run.peak_rss_mb
        if out["digest_ok"] is False:
            out["failed"] = out["units"]
        return out

    def _figures(self, run, state_dir):
        if self.name == "fleet":
            return self._fleet_figures(run, state_dir)
        testbed = run.line_time("[testbed]")
        finished = run.line_time("[sim]")
        match = _TESTBED.search(" ".join(run.lines("[testbed]")))
        if testbed is None or finished is None or match is None:
            raise BatchError(f"missing [testbed]/[sim] lines:\n{run.stderr_text()}")
        units = int(match.group(1))
        if self.name == "study":
            units += int(match.group(2)) + _resolver_units(self.argv)
        measure_s = finished - testbed
        return {
            "setup_s": testbed - run.started,
            "measure_s": measure_s,
            "units": units,
            "failed": 0,
            "units_per_s": units / measure_s,
        }

    def _fleet_figures(self, run, state_dir):
        match = _COVERAGE.search(" ".join(run.lines("[supervisor] fleet finished")))
        if match is None:
            raise BatchError(f"no fleet summary line:\n{run.stderr_text()}")
        restarts, merged, total = (int(g) for g in match.groups())
        reports = []
        for entry in sorted(os.listdir(state_dir)):
            if entry.endswith(".done.json"):
                with open(os.path.join(state_dir, entry), encoding="utf-8") as handle:
                    reports.append(json.load(handle))
        if not reports:
            raise BatchError("fleet wrote no shard done reports")
        return {
            "setup_s": max(r["build_seconds"] for r in reports),
            "measure_s": run.wall_s,
            "units": total,
            "failed": total - merged,
            "units_per_s": merged / run.wall_s,
            "supervisor.worker_build_s": max(r["build_seconds"] for r in reports),
            "supervisor.worker_measure_s": max(r["measure_seconds"] for r in reports),
            "supervisor.restarts": restarts,
        }

    # -- checks --------------------------------------------------------------

    def digest_problems(self):
        """Human-readable reasons the reports are wrong (empty if fine)."""
        problems = []
        if len(self.seen_digests) > 1:
            problems.append(
                f"{self.name}: reports differ between repetitions of seed "
                f"{self.seed}: {sorted(self.seen_digests)}"
            )
        if self.expected is None:
            print(
                f"[nsecbench] {self.name} seed {self.seed}: no pinned digest; "
                f"report sha256 {sorted(self.seen_digests)}",
                file=sys.stderr,
            )
        elif self.seen_digests - {self.expected}:
            problems.append(
                f"{self.name}: report sha256 {sorted(self.seen_digests)} != pinned "
                f"{self.report} digest {self.expected} for seed {self.seed}"
            )
        return problems


def traced_rep(workload, trace_root):
    """One traced repetition: its figures plus the merged trace summary."""
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=trace_root)
    try:
        return workload.rep(trace_dir=trace_dir), tracing.collect(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)


def count_check(name, first, second):
    """Diff two traced runs' exact counts; prints the diff, returns it."""
    diff = layers.count_diff(
        layers.repeatable_counts(first), layers.repeatable_counts(second)
    )
    for metric, a, b in diff:
        print(
            f"[nsecbench] {name}: count {metric} differs between traced runs: "
            f"{a} vs {b}",
            file=sys.stderr,
        )
    return diff
