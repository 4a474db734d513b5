"""Tests of the benchmark's own machinery (not of the program).

Run from the root of the repo::

    PYTHONPATH=src python3 -m pytest nsecbench/tests -q
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import loadclient  # noqa: E402
import tracing  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_of_a_nested_tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6] and
    # another a [6.5, 7.5]. Index order is start order, as recorded.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 4.0, 8.0, 0, 0],
        ["c", 5.0, 6.0, 2, 0],
        ["a", 6.5, 7.5, 2, 0],
        ["root", 20.0, 21.0, -1, 1],
    ]
    times = tracing.self_times(spans)
    assert times["root"] == [2, pytest.approx(4.0 + 1.0), pytest.approx(11.0)]
    assert times["a"] == [2, pytest.approx(3.0), pytest.approx(3.0)]
    assert times["b"] == [1, pytest.approx(2.0), pytest.approx(4.0)]
    assert times["c"] == [1, pytest.approx(1.0), pytest.approx(1.0)]


def test_overlapping_children_are_counted_once():
    spans = [
        ["p", 0.0, 10.0, -1, 0],
        ["x", 2.0, 6.0, 0, 0],
        ["y", 4.0, 12.0, 0, 0],  # overlaps x and runs past its parent
    ]
    assert tracing.self_times(spans)["p"][1] == pytest.approx(10.0 - 8.0)


def test_wrapped_calls_record_parents_requests_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return "leaf"

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = tracer.wrap(outer, "outer")
    tracer.active = True
    assert wrapped_outer() == "leafleaf"
    assert wrapped_inner() == "leaf"
    (spans,) = tracer.spans()
    # outer [0, 5] with inner [1, 2] and [3, 4]; a second top-level inner.
    assert [s[0] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0, -1]
    assert spans[0][4] == spans[1][4] == spans[2][4] != spans[3][4]
    times = tracing.self_times(spans)
    assert times["outer"] == [1, 3.0, 5.0]
    assert times["inner"] == [3, 3.0, 3.0]


def test_spans_are_kept_per_thread():
    tracer = tracing.Tracer()
    tracer.active = True
    work = tracer.wrap(lambda: time.sleep(0.01), "work")
    threads = [threading.Thread(target=work) for __ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    lists = tracer.spans()
    assert len(lists) == 3
    assert all(len(spans) == 1 and spans[0][3] == -1 for spans in lists)
    assert len({spans[0][4] for spans in lists}) == 3


def test_a_served_datagram_is_one_request_across_threads():
    engine = types.ModuleType("_fake_service")

    class Engine:
        def submit(self, name, backend, wire, src_ip, reply):
            worker = threading.Thread(target=backend.handle_datagram, args=(wire, src_ip))
            worker.start()
            worker.join(timeout=5.0)
            return True

    class Resolver:
        def handle_datagram(self, wire, src_ip):
            return wire

    engine.Engine, engine.Resolver = Engine, Resolver
    sys.modules[engine.__name__] = engine
    tracer = tracing.Tracer()
    try:
        tracer.install(
            [
                tracing.Target("service.submit", engine.__name__, "Engine.submit"),
                tracing.Target(
                    "resolver.handle_datagram",
                    engine.__name__,
                    "Resolver.handle_datagram",
                    track_self=True,
                ),
            ]
        )
        Engine().submit("resolver", Resolver(), b"wire", "127.0.0.1", None)
    finally:
        tracer.uninstall()
        del sys.modules[engine.__name__]
    submit_spans, handle_spans = tracer.spans()
    assert submit_spans[0][0] == "service.submit"
    assert handle_spans[0][0] == "resolver.handle_datagram"
    assert handle_spans[0][3] == -1  # top of its own thread's stack
    assert handle_spans[0][4] == submit_spans[0][4]
    assert len(tracer.queue_waits) == 1 and tracer.queue_waits[0] >= 0.0


# -- wrappers come off -------------------------------------------------------


def _wrapped_anywhere():
    """Every (owner, attribute) in repro that still holds a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                func = getattr(value, "__func__", value)
                if hasattr(func, tracing.WRAPPED_ATTR):
                    found.append(f"{name}.{getattr(owner, '__name__', '')}.{key}")
    return found


def test_every_wrapper_is_removed_after_a_traced_run():
    from repro.dns.message import Message, make_query
    from repro.dnssec import nsec3hash
    from repro.scanner import atlas, resolver_scan

    before = {
        (t.module, t.attr): _lookup(t) for t in tracing.TARGETS
    }
    tracer = tracing.Tracer().install()
    try:
        assert _wrapped_anywhere()
        # A from-import copy is rebound, and so is one made after install.
        assert hasattr(atlas.probe_resolver, tracing.WRAPPED_ATTR)
        late = types.ModuleType("repro._late_import_probe")
        late.probe_resolver = resolver_scan.probe_resolver
        sys.modules[late.__name__] = late
        wire = make_query("example.com", 1, msg_id=7).to_wire()
        assert Message.from_wire(wire).id == 7
        nsec3hash.nsec3_hash(b"\x07example\x03com\x00", b"", 0)
        summary = tracer.summary()
        assert summary["layers"]["dns.from_wire"][0] == 1
        assert summary["layers"]["dns.to_wire"][0] == 1
        assert summary["counters"]["dns.wire_bytes"] == 2 * len(wire)
    finally:
        tracer.uninstall()
        sys.modules.pop("repro._late_import_probe", None)
    assert _wrapped_anywhere() == []
    assert late.probe_resolver is before[("repro.scanner.resolver_scan", "probe_resolver")]
    for target in tracing.TARGETS:
        assert _lookup(target) is before[(target.module, target.attr)], target


def _lookup(target):
    import importlib

    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# -- lateness against a stalled server ---------------------------------------


class StallingServer:
    """A UDP DNS server that answers at once, except for one long stall."""

    def __init__(self, stall_at, stall_s):
        from repro.dns.message import Message, make_response

        self._parse = Message.from_wire
        self._respond = make_response
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.seen = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                wire, addr = self.sock.recvfrom(65535)
            except socket.timeout:
                continue
            self.seen += 1
            if self.seen == self.stall_at:
                time.sleep(self.stall_s)
            reply = self._respond(self._parse(wire))
            self.sock.sendto(reply.to_wire(), addr)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()
        self.sock.close()


def test_a_server_stall_counts_against_every_query_it_delays():
    rate, count, stall_s = 200.0, 200, 0.3
    server = StallingServer(stall_at=50, stall_s=stall_s)
    try:
        client = loadclient.OpenLoopClient("127.0.0.1", server.port, timeout_s=2.0)
        result = client.run([("benign", "example.com")] * count, rate)
    finally:
        server.close()
    assert result.sent == count and result.failed == 0
    # The generator kept its schedule through the stall ...
    assert result.late_ms(99) < 50.0
    assert server.seen == count
    # ... so every query due during the stall waited for it, timed from
    # its due time: about stall_s * rate of them, the first one longest.
    delayed = [lat for lat in result.latency_s if lat >= 0.1]
    assert len(delayed) >= 0.5 * stall_s * rate
    assert max(result.latency_s) >= stall_s * 0.9
    assert result.latency_ms("benign", 99) >= 100.0


def test_generator_lateness_is_measured_from_the_due_time():
    ticks = []

    def stalling_clock():
        # Every read after the 20th lands 50 ms later than real time: the
        # generator itself fell behind.
        ticks.append(None)
        return time.perf_counter() + (0.05 if len(ticks) > 20 else 0.0)

    server = StallingServer(stall_at=0, stall_s=0.0)
    try:
        client = loadclient.OpenLoopClient(
            "127.0.0.1", server.port, timeout_s=1.0, clock=stalling_clock
        )
        result = client.run([("benign", "example.com")] * 40, 200.0)
    finally:
        server.close()
    assert result.sent == 40
    assert max(result.late_s) >= 0.04
