"""Wall-clock spans around the public entry points of each ``repro`` layer.

Only traced benchmark runs use this module. :meth:`Tracer.install`
replaces each target in :data:`TARGETS` with a timing wrapper, both where
it is defined (module or class) and in every loaded ``repro`` module that
imported it by name; :meth:`Tracer.uninstall` puts every original back.
Untraced runs never import this file, so the program runs unwrapped.

A span is ``[name, start, end, parent, request]``: *parent* is the index
of the enclosing span in the same thread's list (-1 at the top) and
*request* is shared by every span under one top-level call — a scanner
query, a resolver probe, a served datagram. Each thread keeps its own
span stack, because ``repro serve`` does its DNS work on an engine
thread. Spans stay in memory until :meth:`Tracer.summary`, which derives
per-layer call counts and self time (a span's duration minus the part of
it its child spans cover) and reads the program's own public counters.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One entry point to time: ``module.attr`` (``attr`` may be dotted)."""

    span: str
    module: str
    attr: str
    #: Keep the instance a method is called on, to read its counters later.
    track_self: bool = False
    #: Keep the return value (a built ``Internet``) for the same reason.
    track_result: bool = False
    #: The call returns a ``message -> signature`` closure: time the
    #: closure's calls under *span* instead of the factory call itself.
    factory: bool = False


TARGETS = (
    Target("dns.from_wire", "repro.dns.message", "Message.from_wire"),
    Target("dns.to_wire", "repro.dns.message", "Message.to_wire"),
    Target("crypto.sign", "repro.crypto.rsa", "RsaPrivateKey.sign"),
    Target("crypto.sign", "repro.crypto.rsa", "RsaPrivateKey.signer", factory=True),
    Target("crypto.sign", "repro.crypto.ecdsa", "EcdsaPrivateKey.sign"),
    Target("crypto.verify", "repro.crypto.rsa", "RsaPublicKey.verify"),
    Target("crypto.verify", "repro.crypto.ecdsa", "EcdsaPublicKey.verify"),
    Target("dnssec.validate", "repro.dnssec.validator", "validate_rrset"),
    Target("dnssec.validate", "repro.dnssec.validator", "validate_dnskey_with_ds"),
    Target("dnssec.denial", "repro.dnssec.denial", "verify_nxdomain"),
    Target("dnssec.denial", "repro.dnssec.denial", "verify_nodata"),
    Target("dnssec.nsec3_hash", "repro.dnssec.nsec3hash", "nsec3_hash"),
    Target("dnssec.nsec3_hash", "repro.dnssec.nsec3hash", "nsec3_hash_batch"),
    Target("zone.sign_zone", "repro.zone.signing", "sign_zone"),
    Target(
        "server.handle_datagram",
        "repro.server.authoritative",
        "AuthoritativeServer.handle_datagram",
        track_self=True,
    ),
    Target(
        "resolver.handle_datagram",
        "repro.resolver.validating",
        "ValidatingResolver.handle_datagram",
        track_self=True,
    ),
    Target(
        "resolver.resolve",
        "repro.resolver.validating",
        "ValidatingResolver.resolve_and_validate",
        track_self=True,
    ),
    Target("net.send", "repro.net.network", "Network.send"),
    Target("net.send", "repro.net.transport", "Transport.query"),
    Target("net.kernel", "repro.net.sim", "SimKernel.run_next", track_self=True),
    Target("scanner.query", "repro.scanner.engine", "ScanEngine.query"),
    Target("scanner.probe_resolver", "repro.scanner.resolver_scan", "probe_resolver"),
    Target(
        "testbed.build_internet",
        "repro.testbed.internet",
        "build_internet",
        track_result=True,
    ),
    Target("testbed.deploy_resolvers", "repro.testbed.resolvers", "deploy_resolvers"),
    Target("core.aggregate", "repro.core.report", "StudyAggregates.update_domain"),
    Target("core.aggregate", "repro.core.report", "StudyAggregates.update_tld"),
    Target("core.aggregate", "repro.core.report", "StudyAggregates.update_survey"),
    Target("core.aggregate", "repro.core.report", "StudyAggregates.render"),
    Target("core.aggregate", "repro.core.report", "render_study_report"),
    Target("supervisor.merge", "repro.scanner.supervisor", "merge_shards"),
    Target("service.submit", "repro.service.engine", "ServiceEngine.submit"),
)

#: Marks a wrapper so a scan can prove none is left behind.
WRAPPED_ATTR = "__nsecbench_original__"


def self_times(spans):
    """``{name: [calls, self_s, total_s]}`` over one thread's span list.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span (children of one thread nest, but the
    union keeps the arithmetic right for any tree).
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = {}
    for index, (name, start, end, __, __) in enumerate(spans):
        covered = 0.0
        edge = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, edge)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                edge = child_end
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered
        row[2] += end - start
    return out


class Tracer:
    """Installs span wrappers, records spans per thread, summarises them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self._tls = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._requests = itertools.count()
        #: (owner, attribute, original value) in install order.
        self._patches = []
        #: id(wrapper) -> original, for every wrapped module-level function.
        self._originals = {}
        self.instances = {}
        self.results = []
        self.wire_bytes = 0
        self.queue_waits = []
        self._submitted = {}

    # -- recording -----------------------------------------------------------

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = ([], [])
            with self._lock:
                self._threads.append(state)
            return state

    def wrap(self, fn, span_name, before=None, after=None):
        """*fn* timed as *span_name*.

        ``before(args, span)`` runs once the span is open, before the
        clock starts; ``after(args, result)`` runs after it stopped.
        """
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer._state()
            parent = stack[-1] if stack else -1
            request = spans[parent][4] if parent >= 0 else next(tracer._requests)
            span = [span_name, 0.0, 0.0, parent, request]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                before(args, span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, WRAPPED_ATTR, fn)
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _add_wire_bytes(self, count):
        # The service parses on two threads (shed path and engine).
        with self._lock:
            self.wire_bytes += count

    def spans(self):
        """Every thread's span list (a list of lists)."""
        with self._lock:
            return [spans for spans, __ in self._threads]

    # -- hooks for targets that feed counters --------------------------------

    def _hooks(self, target):
        before = after = None
        if target.track_self:
            instances = self.instances.setdefault(target.span, {})

            def before(args, span):
                instances[id(args[0])] = args[0]

        if target.span == "resolver.handle_datagram":
            # A served datagram crosses threads: the event loop submits
            # it, the engine thread resolves it. Join the two halves by
            # the wire object: one request id, and the queue wait between.
            submitted = self._submitted
            waits = self.queue_waits
            clock = self.clock
            keep = before

            def before(args, span):
                keep(args, span)
                queued = submitted.pop(id(args[1]), None)
                if queued is not None:
                    waits.append(clock() - queued[0])
                    span[4] = queued[1]

        elif target.span == "service.submit":
            submitted = self._submitted
            clock = self.clock

            def before(args, span):
                submitted[id(args[3])] = (clock(), span[4])

            def after(args, admitted):
                if not admitted:
                    submitted.pop(id(args[3]), None)

        elif target.span == "dns.from_wire":

            def before(args, span):
                self._add_wire_bytes(len(args[1]))

        elif target.span == "dns.to_wire":

            def after(args, wire):
                self._add_wire_bytes(len(wire))

        elif target.track_result:

            def after(args, result):
                self.results.append(result)

        return before, after

    # -- install / uninstall -------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target and start recording; returns the tracer."""
        aliases = {}
        for target in targets:
            module = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            before, after = self._hooks(target)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if target.factory:
                wrapped = self._factory(fn, target.span)
            else:
                wrapped = self.wrap(fn, target.span, before, after)
            if isinstance(raw, classmethod):
                replacement = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(wrapped)
            else:
                replacement = wrapped
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, raw))
            if owner is module:
                aliases[id(raw)] = wrapped
                self._originals[id(wrapped)] = raw
        # ``from module import fn`` copies: rebind them in every loaded
        # repro module (modules imported later pick up the wrapper).
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in aliases and value is not aliases[id(value)]:
                    setattr(module, key, aliases[id(value)])
                    self._patches.append((module, key, value))
        self.active = True
        return self

    def _factory(self, fn, span_name):
        tracer = self

        def factory(*args, **kwargs):
            produced = fn(*args, **kwargs)
            if not tracer.active:
                return produced
            return tracer.wrap(produced, span_name)

        setattr(factory, WRAPPED_ATTR, fn)
        factory.__name__ = getattr(fn, "__name__", span_name)
        factory.__doc__ = getattr(fn, "__doc__", None)
        return factory

    def uninstall(self):
        """Restore every original, including copies made after install."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and getattr(value, WRAPPED_ATTR, None) is original:
                    setattr(module, key, original)
        self._originals.clear()

    # -- summary -------------------------------------------------------------

    def summary(self):
        """Per-layer span totals plus the program's public counters."""
        layers = {}
        for spans in self.spans():
            for name, (calls, own, total) in self_times(spans).items():
                row = layers.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += own
                row[2] += total
        counters = {"dns.wire_bytes": self.wire_bytes}
        counters.update(self._instance_counters())
        counters.update(_global_counters())
        return {
            "pid": os.getpid(),
            "layers": {name: row for name, row in sorted(layers.items())},
            "counters": counters,
            "queue_waits_ms": [wait * 1000.0 for wait in self.queue_waits],
        }

    def _instance_counters(self):
        out = {}
        kernels = self.instances.get("net.kernel", {}).values()
        out["net.kernel.events"] = sum(k.events_run for k in kernels)
        resolvers = {}
        for span in ("resolver.handle_datagram", "resolver.resolve"):
            resolvers.update(self.instances.get(span, {}))
        out["resolver.cache.hits"] = sum(r.cache.hits for r in resolvers.values())
        out["resolver.cache.misses"] = sum(r.cache.misses for r in resolvers.values())
        out["resolver.guard.trips"] = sum(
            sum(r.guard_events.values()) for r in resolvers.values()
        )
        servers = self.instances.get("server.handle_datagram", {}).values()
        out["server.answer_cache.hits"] = sum(s.answer_cache.hits for s in servers)
        out["server.answer_cache.misses"] = sum(s.answer_cache.misses for s in servers)
        hosts = [inet.lazy_host for inet in self.results if inet.lazy_host is not None]
        out["testbed.lazy_zone.builds"] = sum(h.builds for h in hosts)
        out["testbed.lazy_zone.evictions"] = sum(h.evictions for h in hosts)
        return out


def _global_counters():
    out = {}
    costmodel = sys.modules.get("repro.dnssec.costmodel")
    if costmodel is not None:
        snap = costmodel.meter.snapshot()
        out["dnssec.cost.nsec3_hashes"] = snap.nsec3_hashes
        out["dnssec.cost.sha1_compressions"] = snap.sha1_compressions
        out["dnssec.cost.signature_verifications"] = snap.signature_verifications
    build_cache = sys.modules.get("repro.zone.build_cache")
    cache = build_cache.handle() if build_cache is not None else None
    events = dict(cache.events) if cache is not None else {}
    out["zone.build_cache.hits"] = events.get("hit", 0)
    out["zone.build_cache.misses"] = events.get("miss", 0)
    return out


def merge_summaries(summaries):
    """Fold per-process summaries (a fleet writes one per process)."""
    layers = {}
    counters = {}
    waits = []
    for summary in summaries:
        for name, row in summary["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                acc[i] += value
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
        waits.extend(summary["queue_waits_ms"])
    return {
        "processes": len(summaries),
        "layers": layers,
        "counters": counters,
        "queue_waits_ms": waits,
    }


def collect(directory):
    """Merge the summaries the traced processes wrote into *directory*."""
    summaries = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                summaries.append(json.load(handle))
    if not summaries:
        raise RuntimeError(f"no trace summary in {directory}: hook not loaded?")
    return merge_summaries(summaries)


def install_from_env(environ=os.environ):
    """Trace this process and write its summary to the trace dir at exit."""
    import atexit

    directory = environ["NSECBENCH_TRACE_DIR"]
    tracer = Tracer().install()

    def dump():
        tracer.active = False
        path = os.path.join(directory, f"trace-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
        os.replace(path + ".tmp", path)

    atexit.register(dump)
    return tracer
