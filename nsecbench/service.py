"""The ``service`` workload: ``repro serve`` on loopback under load.

One run of *seconds* brings up :data:`SETUPS` servers, one after the
other, and on each:

1. times set-up: spawn until the server answers a first query
   (``setup_s`` is the median);
2. runs one second of warm-up at the nominal rate (caches fill);
3. runs the nominal phase, open loop at :data:`NOMINAL_QPS`: latency
   from each query's due time, generator lateness, the server's CPU
   seconds (``cpu_s`` is the median) and the failures the run reports;
4. runs :data:`CAPACITY_PHASES` capacity phases, closed loop with
   :data:`CLOSED_WINDOW` queries in flight (``units_per_s`` is the
   median correct-reply rate of all of them).

A traced run also climbs the ladder on the last server: open loop at
each rate of :data:`LADDER_QPS`. ``service.max_qps`` is the delivered
rate of the highest rung whose benign p99 is within
:data:`P99_LIMIT_MS`, whose failures are within :data:`FAIL_LIMIT`, and
whose generator kept within :data:`LATE_LIMIT_MS` of its schedule (no
growing backlog).

Why capacity is closed-loop: past about 2000 qps on a 2-core host the
open-loop server drops datagrams whenever its event loop misses a beat
(a GIL hand-off, a GC pause, a neighbour on the host), so the highest
passing rung moved by a rung or two between identical runs. A closed
window never overfills the socket buffers, so its throughput tracks the
per-query cost.

The mix is benign names from ``benign_pool`` with 30% cache-busting
labels plus 10% CVE-2023-50868 encloser and KeyTrap names. Traffic
crosses the loopback interface; client and server share the host's
cores. A wrong answer in any phase makes the run incorrect; rungs above
capacity are expected to shed and are not counted as failures.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

import layers
import tracing
from loadclient import (
    MAX_PHASE_QUERIES,
    OpenLoopClient,
    PhaseResult,
    first_answer,
    make_schedule,
    run_closed,
    run_phase,
)
from proc import ProgramProcess

#: The served testbed is fixed (seed 7, the headline seed); the run's
#: seed draws the traffic. Another world seed changes NSEC3 parameters
#: and keys, and with them the per-query cost being measured.
SERVE_ARGS = ["serve", "--domains", "40", "--tlds", "12", "--seed", "7", "--port", "0"]
NOMINAL_QPS = 1000.0
LADDER_QPS = (2000.0, 2200.0, 2400.0, 2600.0, 2800.0, 3000.0, 3200.0, 3400.0)
P99_LIMIT_MS = 250.0
FAIL_LIMIT = 0.01
LATE_LIMIT_MS = 20.0
CLOSED_WINDOW = 16
SETUPS = 3
CAPACITY_PHASES = 2
#: Shares of ``--seconds``: a nominal phase and CAPACITY_PHASES capacity
#: phases on each of the SETUPS servers, then (traced runs only) the
#: ladder on the last one.
NOMINAL_SHARE = 0.115
CAPACITY_SHARE = 0.067
LADDER_SHARE = 0.235
TIMEOUT_S = 1.0
#: A ladder query later than this already fails the p99 limit.
LADDER_TIMEOUT_S = 2 * P99_LIMIT_MS / 1000.0
RUNG_GAP_S = 0.1
HOST = "127.0.0.1"


class ServiceError(RuntimeError):
    """The server did not come up, answer, or shut down cleanly."""


def _cpu_seconds(pid):
    """utime + stime of every thread of *pid* so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve`` process, up and answering."""

    def __init__(self, root, probe_name, trace_dir=None):
        self.process = ProgramProcess(SERVE_ARGS, root, trace_dir=trace_dir)
        try:
            seen = self.process.wait_for_line("[serve] resolver listening on", 150.0)
            if seen is None:
                raise ServiceError("server never listened")
            self.port = int(seen[1].rsplit(":", 1)[1].split()[0])
            answered = first_answer(HOST, self.port, probe_name)
            if answered is None:
                raise ServiceError("server never answered a first query")
        except BaseException:
            self.process.stop()
            raise
        self.setup_s = answered - self.process.started

    def cpu_s(self):
        return _cpu_seconds(self.process.pid)

    def stop(self):
        """Graceful drain; returns ``(final snapshot, ProcessRun)``."""
        run = self.process.stop()
        if run.returncode != 0:
            raise ServiceError(
                f"server exited {run.returncode}:\n{run.stderr_text()}"
            )
        text = run.stdout.decode("utf-8", "replace")
        return json.loads(text[text.index("{") :]), run


def pooled(results):
    """Several open-loop phases at one rate, as one sample."""
    first = results[0]
    return PhaseResult(
        rate=first.rate,
        duration_s=sum(r.duration_s for r in results),
        classes=[k for r in results for k in r.classes],
        late_s=[v for r in results for v in r.late_s],
        latency_s=[v for r in results for v in r.latency_s],
        outcomes=[v for r in results for v in r.outcomes],
        cpu_s=sum(r.cpu_s for r in results),
    )


def _warm_up(server, names, seed):
    """One second at the nominal rate: caches fill before anything is timed."""
    run_phase(HOST, server.port, NOMINAL_QPS, 1.0, names, seed, "w", TIMEOUT_S)


def _nominal(server, names, seed, seconds):
    """The measured nominal phase."""
    return run_phase(
        HOST, server.port, NOMINAL_QPS, seconds, names, seed, "n", TIMEOUT_S,
        cpu_probe=server.cpu_s,
    )


def rung_passes(result):
    return (
        result.latency_ms("benign", 99) <= P99_LIMIT_MS
        and result.fail_frac <= FAIL_LIMIT
        and result.late_ms(99) <= LATE_LIMIT_MS
    )


def _capacity(server, names, seed, seconds):
    """Closed-loop capacity with :data:`CLOSED_WINDOW` queries in flight."""
    rng = random.Random(f"{seed}:c")
    count = min(MAX_PHASE_QUERIES, int(5000 * seconds))
    schedule = make_schedule(rng, count, names, tag="c")
    client = OpenLoopClient(HOST, server.port, timeout_s=TIMEOUT_S)
    return run_closed(client, schedule, CLOSED_WINDOW, seconds)


def _ladder(server, names, seed, seconds):
    """Every rung in order; returns ``(max delivered qps, results)``."""
    best = 0.0
    results = []
    for rate in LADDER_QPS:
        result = run_phase(
            HOST, server.port, rate, seconds / len(LADDER_QPS), names, seed,
            f"l{rate:.0f}-", LADDER_TIMEOUT_S,
        )
        results.append(result)
        if rung_passes(result):
            best = max(best, result.delivered_qps)
        time.sleep(RUNG_GAP_S)  # let the server drain before the next rung
    return best, results


def _describe(label, result):
    return (
        f"[nsecbench] service {label} {result.rate:.0f} qps: sent={result.sent} "
        f"failed={result.failed} benign p50/p99="
        f"{result.latency_ms('benign', 50):.2f}/{result.latency_ms('benign', 99):.2f} ms "
        f"attack p99={result.latency_ms('attack', 99):.2f} ms "
        f"late p99={result.late_ms(99):.2f} ms {result.outcome_counts()}"
    )


def run(root, seed, seconds, trace_root=None):
    """One service run; per-layer metrics too when *trace_root* is set."""
    from repro.service.loadgen import benign_pool

    names = benign_pool(40, 12)
    setups, nominals, capacities = [], [], []
    best, rungs = 0.0, []
    for index in range(SETUPS):
        server = Server(root, names[0])
        setups.append(server.setup_s)
        try:
            _warm_up(server, names, seed)
            phase = _nominal(server, names, f"{seed}:{index}", seconds * NOMINAL_SHARE)
            nominals.append(phase)
            for part in range(CAPACITY_PHASES):
                capacities.append(
                    _capacity(
                        server, names, f"{seed}:{index}:{part}", seconds * CAPACITY_SHARE
                    )
                )
            if trace_root is not None and index == SETUPS - 1:
                best, rungs = _ladder(server, names, seed, seconds * LADDER_SHARE)
        finally:
            snapshot, served = server.stop()
    nominal = pooled(nominals)
    print(_describe("nominal", nominal), file=sys.stderr)
    print(
        f"[nsecbench] service capacity with {CLOSED_WINDOW} in flight: "
        f"{[round(c.qps, 1) for c in capacities]} qps",
        file=sys.stderr,
    )
    for result in rungs:
        print(
            _describe("rung", result) + (" pass" if rung_passes(result) else " FAIL"),
            file=sys.stderr,
        )
    problems = []
    wrong = nominal.wrong + sum(c.wrong for c in capacities) + sum(r.wrong for r in rungs)
    if wrong:
        problems.append(f"service: {wrong} wrong answers")
    if snapshot.get("errors"):
        problems.append(f"service: backend errors {snapshot['errors']}")
    out = {
        "attempted": nominal.sent,
        "failed": nominal.failed,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(setups),
            "units_per_s": statistics.median(c.qps for c in capacities),
            "cpu_s": statistics.median(phase.cpu_s for phase in nominals),
            "peak_rss_mb": served.peak_rss_mb,
        },
    }
    if trace_root is None:
        return out
    metrics = {
        "service.benign_p50_ms": nominal.latency_ms("benign", 50),
        "service.benign_p99_ms": nominal.latency_ms("benign", 99),
        "service.attack_p99_ms": nominal.latency_ms("attack", 99),
        "service.shed": snapshot["shed_refused"] + snapshot["shed_stale"],
        "service.expired": snapshot["expired"],
        "service.peak_inflight": snapshot["peak_inflight"],
        "service.max_qps": best,
        "loadgen.late_p99_ms": nominal.late_ms(99),
        "bench.fail_frac": nominal.fail_frac,
    }
    traced, merged = _traced_nominal(
        root, seed, seconds * NOMINAL_SHARE, names, trace_root
    )
    if traced.wrong:
        problems.append(f"service: {traced.wrong} wrong answers in the traced run")
    metrics.update(layers.layer_metrics(merged))
    metrics["trace.overhead_frac"] = traced.cpu_s / out["metrics"]["cpu_s"] - 1.0
    out["metrics"] = metrics
    return out


def _traced_nominal(root, seed, seconds, names, trace_root):
    """The nominal phase again, against a server with span wrappers."""
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=trace_root)
    try:
        server = Server(root, names[0], trace_dir=trace_dir)
        try:
            _warm_up(server, names, seed)
            result = _nominal(server, names, seed, seconds)
        finally:
            server.stop()
        return result, tracing.collect(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
