"""Per-layer metrics of a traced run, derived from the merged summaries.

Every workload reports every metric; a layer the workload does not reach
reads 0. ``BENCHMARK.json`` lists the same names under ``per_layer``.
"""

from __future__ import annotations

from loadclient import percentile

#: Spans reported as ``<span>.calls`` and ``<span>.self_s``.
TIMED_SPANS = (
    "dns.from_wire",
    "dns.to_wire",
    "crypto.sign",
    "crypto.verify",
    "dnssec.validate",
    "dnssec.denial",
    "dnssec.nsec3_hash",
    "zone.sign_zone",
    "server.handle_datagram",
    "resolver.handle_datagram",
    "resolver.resolve",
    "net.send",
    "scanner.query",
    "scanner.probe_resolver",
)

#: Counters copied as they are (counts from the program's own objects).
COUNTS = (
    "dns.wire_bytes",
    "dnssec.cost.nsec3_hashes",
    "dnssec.cost.sha1_compressions",
    "dnssec.cost.signature_verifications",
    "resolver.guard.trips",
    "net.kernel.events",
    "testbed.lazy_zone.builds",
    "testbed.lazy_zone.evictions",
)

#: ``name -> (hits counter, misses counter)``.
RATIOS = {
    "zone.build_cache.hit_ratio": ("zone.build_cache.hits", "zone.build_cache.misses"),
    "server.answer_cache.hit_ratio": (
        "server.answer_cache.hits",
        "server.answer_cache.misses",
    ),
    "resolver.cache.hit_ratio": ("resolver.cache.hits", "resolver.cache.misses"),
}

#: Metrics that only some workloads produce outside the trace: the batch
#: runner or the service runner fills them in, everyone else reads 0.
EXTERNAL = (
    "service.shed",
    "service.expired",
    "service.peak_inflight",
    "service.benign_p50_ms",
    "service.benign_p99_ms",
    "service.attack_p99_ms",
    "service.max_qps",
    "supervisor.worker_build_s",
    "supervisor.worker_measure_s",
    "supervisor.restarts",
    "loadgen.late_p99_ms",
    "bench.fail_frac",
    "trace.overhead_frac",
    "trace.count_mismatches",
)


def layer_metrics(merged):
    """``{metric: value}`` for every per-layer metric the trace gives."""
    layers = merged["layers"] if merged else {}
    counters = merged["counters"] if merged else {}
    out = {}
    for span in TIMED_SPANS:
        calls, own, __ = layers.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = own
    out["net.kernel.self_s"] = layers.get("net.kernel", (0, 0.0, 0.0))[1]
    out["core.aggregate.self_s"] = layers.get("core.aggregate", (0, 0.0, 0.0))[1]
    out["testbed.build_internet_s"] = layers.get(
        "testbed.build_internet", (0, 0.0, 0.0)
    )[2]
    out["testbed.deploy_resolvers_s"] = layers.get(
        "testbed.deploy_resolvers", (0, 0.0, 0.0)
    )[2]
    out["supervisor.merge_s"] = layers.get("supervisor.merge", (0, 0.0, 0.0))[2]
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    for name, (hits, misses) in RATIOS.items():
        total = counters.get(hits, 0) + counters.get(misses, 0)
        out[name] = counters.get(hits, 0) / total if total else 0.0
    out["service.queue_wait_p99_ms"] = percentile((merged or {}).get("queue_waits_ms", ()), 99)
    return out


def repeatable_counts(merged):
    """The exact counts two traced runs of one seed must agree on."""
    metrics = layer_metrics(merged)
    keys = [f"{span}.calls" for span in TIMED_SPANS] + list(COUNTS)
    return {key: metrics[key] for key in keys}


def count_diff(first, second):
    """``[(name, first, second)]`` for every count that differs."""
    return [
        (name, first[name], second.get(name))
        for name in sorted(first)
        if first[name] != second.get(name)
    ]


def all_names():
    """Every per-layer metric name, in report order."""
    return list(layer_metrics(None)) + list(EXTERNAL)
