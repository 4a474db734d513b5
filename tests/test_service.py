"""Real-socket service mode: frontends, engine, loadgen, soak.

Everything here exercises the live asyncio frontends over actual OS
sockets on the loopback, with a pure-python wire client standing in for
``dig`` (the CI workflow runs the real ``dig`` compatibility check).
The event loops are per-test via ``asyncio.run`` — the container has no
pytest-asyncio and must not need it.
"""

import asyncio
import random
import socket

import pytest

from repro import obs
from repro.dns.edns import EDE_STALE_ANSWER
from repro.dns.flags import Flag
from repro.dns.message import Message, make_query
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.obs.timeseries import family_sum
from repro.service.engine import ServiceEngine, wire_rcode_reply
from repro.service.frontend import Binding, DnsService
from repro.service.loadgen import LoadGenerator, benign_pool
from repro.service.soak import SoakConfig, _fuzz_corpus, run_soak
from repro.service.world import build_service_world

DOMAINS, TLDS = 6, 4
PROBE_VALID = "www.valid.rfc9276-in-the-wild.com"


@pytest.fixture(scope="module")
def world():
    return build_service_world(domains=DOMAINS, tlds=TLDS, seed=3)


async def _start(world, **kwargs):
    engine_kwargs = kwargs.pop("engine_kwargs", {})
    service = DnsService(
        [Binding("resolver", world.resolver, port=0, **kwargs.pop("binding", {}))],
        engine=ServiceEngine(**engine_kwargs),
        **kwargs,
    )
    await service.start()
    return service, service.bindings[0].bound_port


async def _udp_query(port, wire, timeout=5.0, host="127.0.0.1"):
    """One datagram out, first datagram back (no id demux needed here)."""
    loop = asyncio.get_running_loop()
    reply = loop.create_future()

    class _Probe(asyncio.DatagramProtocol):
        def connection_made(self, transport):
            transport.sendto(wire)

        def datagram_received(self, data, addr):
            if not reply.done():
                reply.set_result(data)

    transport, __ = await loop.create_datagram_endpoint(
        _Probe, remote_addr=(host, port)
    )
    try:
        return await asyncio.wait_for(reply, timeout)
    finally:
        transport.close()


async def _tcp_query(port, wire, timeout=5.0, host="127.0.0.1"):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(len(wire).to_bytes(2, "big") + wire)
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(2), timeout)
        return await asyncio.wait_for(
            reader.readexactly(int.from_bytes(header, "big")), timeout
        )
    finally:
        writer.close()


class TestWireRcodeReply:
    def test_header_only_refused(self):
        query = make_query(PROBE_VALID, RdataType.A, msg_id=0x1234)
        out = wire_rcode_reply(query.to_wire(), Rcode.REFUSED)
        assert len(out) == 12
        response = Message.from_wire(out)
        assert response.id == 0x1234
        assert response.is_response
        assert response.rcode == Rcode.REFUSED
        assert not response.question

    def test_never_answers_responses_or_runts(self):
        query = make_query(PROBE_VALID, RdataType.A)
        response_wire = bytearray(query.to_wire())
        response_wire[2] |= 0x80  # QR set: already a response
        assert wire_rcode_reply(bytes(response_wire), Rcode.REFUSED) is None
        assert wire_rcode_reply(b"\x12\x34\x01", Rcode.REFUSED) is None


class TestShedDatagram:
    def test_cold_name_refused_warm_name_stale(self, world):
        fresh = make_query(PROBE_VALID, RdataType.A, want_dnssec=True)
        answered = world.resolver.handle_datagram(fresh.to_wire(), "10.9.9.9")
        assert Message.from_wire(answered).rcode == Rcode.NOERROR

        shed = world.resolver.shed_datagram(fresh.to_wire())
        stale = Message.from_wire(shed)
        assert stale.rcode == Rcode.NOERROR
        assert any(
            ede.info_code == EDE_STALE_ANSWER for ede in stale.extended_errors()
        )

        cold = make_query(f"never-queried.{PROBE_VALID}", RdataType.A)
        refused = Message.from_wire(world.resolver.shed_datagram(cold.to_wire()))
        assert refused.rcode == Rcode.REFUSED

    def test_garbage_and_responses_dropped(self, world):
        assert world.resolver.shed_datagram(b"\x00\x01junk") is None
        response_wire = bytearray(make_query(PROBE_VALID, RdataType.A).to_wire())
        response_wire[2] |= 0x80
        assert world.resolver.shed_datagram(bytes(response_wire)) is None


class TestUdpFrontend:
    def test_validated_answer_over_real_socket(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                query = make_query(PROBE_VALID, RdataType.A, want_dnssec=True)
                raw = await _udp_query(port, query.to_wire())
            finally:
                await service.drain_and_stop()
            return query, Message.from_wire(raw)

        query, response = asyncio.run(scenario())
        assert response.id == query.id
        assert response.rcode == Rcode.NOERROR
        assert response.answer

    def test_nsec3_nxdomain_end_to_end(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                query = make_query(
                    "does-not-exist.rfc9276-in-the-wild.com",
                    RdataType.A,
                    want_dnssec=True,
                )
                raw = await _udp_query(port, query.to_wire())
            finally:
                await service.drain_and_stop()
            return Message.from_wire(raw)

        response = asyncio.run(scenario())
        assert response.rcode == Rcode.NXDOMAIN
        authority_types = {int(rrset.rrtype) for rrset in response.authority}
        assert int(RdataType.NSEC3) in authority_types
        assert int(RdataType.SOA) in authority_types

    def test_truncation_then_tcp_fallback(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                # The NSEC3 NXDOMAIN proof (~830 bytes signed) cannot fit
                # a 512-byte EDNS payload: TC over UDP, full over TCP.
                query = make_query(
                    "truncate-me.rfc9276-in-the-wild.com",
                    RdataType.A,
                    want_dnssec=True,
                    payload_size=512,
                )
                udp_raw = await _udp_query(port, query.to_wire())
                tcp_raw = await _tcp_query(port, query.to_wire())
            finally:
                await service.drain_and_stop()
            return udp_raw, tcp_raw

        udp_raw, tcp_raw = asyncio.run(scenario())
        udp_response = Message.from_wire(udp_raw)
        assert len(udp_raw) <= 512
        assert udp_response.has_flag(Flag.TC)
        tcp_response = Message.from_wire(tcp_raw)
        assert not tcp_response.has_flag(Flag.TC)
        assert tcp_response.rcode == Rcode.NXDOMAIN
        assert len(tcp_raw) > len(udp_raw)
        authority_types = {int(rrset.rrtype) for rrset in tcp_response.authority}
        assert int(RdataType.NSEC3) in authority_types

    def test_malformed_datagrams_survive(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                for chunk in _fuzz_corpus(random.Random(5), 80):
                    with pytest.raises(asyncio.TimeoutError):
                        await _udp_query(port, chunk, timeout=0.02)
                query = make_query(PROBE_VALID, RdataType.A)
                raw = await _udp_query(port, query.to_wire())
            finally:
                snapshot = await service.drain_and_stop()
            return Message.from_wire(raw), snapshot

        response, snapshot = asyncio.run(scenario())
        assert response.rcode == Rcode.NOERROR
        assert snapshot["errors"] == 0


class TestAdmissionControl:
    def test_overload_sheds_refused_and_counts_guard_metric(self, world):
        obs.enable()
        try:
            before = family_sum(obs.registry, "repro_guard_shed_total")

            async def scenario():
                # Capacity 0: every arrival sheds on the event loop —
                # the worker thread never sees them.
                service, port = await _start(
                    world, engine_kwargs={"capacity": 0}
                )
                try:
                    query = make_query(
                        f"shedme-{random.randrange(1 << 30)}.{PROBE_VALID}",
                        RdataType.A,
                    )
                    raw = await _udp_query(port, query.to_wire())
                finally:
                    snapshot = await service.drain_and_stop()
                return Message.from_wire(raw), snapshot

            response, snapshot = asyncio.run(scenario())
            assert response.rcode == Rcode.REFUSED
            assert snapshot["gate_shed"] >= 1
            assert snapshot["shed_refused"] >= 1
            assert family_sum(obs.registry, "repro_guard_shed_total") > before
        finally:
            obs.disable()
            obs.reset()

    def test_held_worker_sheds_exactly_past_capacity(self, world):
        # A held worker keeps every admitted query in flight, so the gate
        # sheds exactly the arrivals past its capacity whatever the
        # machine speed; the release then answers the admitted ones.
        engine = ServiceEngine(capacity=3).start()
        replies = []
        release = engine.hold()
        try:
            for index in range(5):
                query = make_query(
                    f"held{index}.{PROBE_VALID}", RdataType.A, msg_id=index
                )
                engine.submit(
                    "resolver",
                    world.resolver,
                    query.to_wire(),
                    "127.0.0.1",
                    replies.append,
                )
            assert engine.gate.shed == 2
            assert len(replies) == 2  # sheds are answered at once
        finally:
            release.set()
        assert engine.drain(timeout=30.0)
        assert len(replies) == 5
        assert engine.stats.answered == 3

    def test_socket_gate_sheds_before_engine(self, world):
        async def scenario():
            service, port = await _start(
                world, binding={"max_pending": 0}
            )
            try:
                query = make_query(PROBE_VALID, RdataType.A)
                raw = await _udp_query(port, query.to_wire())
            finally:
                snapshot = await service.drain_and_stop()
            return Message.from_wire(raw), snapshot

        response, snapshot = asyncio.run(scenario())
        assert response.rcode in (Rcode.REFUSED, Rcode.NOERROR)  # stale ok
        binding = snapshot["bindings"]["resolver"]
        assert binding["socket_shed"] >= 1
        assert snapshot["gate_shed"] == 0


class TestGracefulDrain:
    def test_drain_answers_every_queued_query(self, world):
        count = 15

        async def scenario():
            service, port = await _start(world)
            loop = asyncio.get_running_loop()
            replies = []
            done = loop.create_future()

            class _Collector(asyncio.DatagramProtocol):
                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    replies.append(data)
                    if len(replies) >= count and not done.done():
                        done.set_result(None)

            transport, protocol = await loop.create_datagram_endpoint(
                _Collector, remote_addr=("127.0.0.1", port)
            )
            try:
                for index in range(count):
                    # Unique labels force full resolutions, so the worker
                    # still owes answers when the drain begins.
                    query = make_query(
                        f"drain{index}.{PROBE_VALID}", RdataType.A, msg_id=index
                    )
                    protocol.transport.sendto(query.to_wire())
                # Wait for admission (not completion): the drain promise
                # covers queries the engine has accepted.
                while service.engine.stats.received < count:
                    await asyncio.sleep(0.005)
                snapshot = await service.drain_and_stop()
                await asyncio.wait_for(done, timeout=5.0)
            finally:
                transport.close()
            return snapshot, replies

        snapshot, replies = asyncio.run(scenario())
        assert snapshot["drain_flushed"] is True
        assert len(replies) == count
        assert {Message.from_wire(raw).id for raw in replies} == set(range(count))
        assert snapshot["answered"] >= count

    def test_queries_after_drain_are_shed_not_lost(self, world):
        async def scenario():
            service, port = await _start(world)
            await service.drain_and_stop()
            # Engine still up but not accepting: submit sheds instantly.
            outcome = []
            query = make_query(f"late.{PROBE_VALID}", RdataType.A)
            service.engine.submit(
                "resolver",
                world.resolver,
                query.to_wire(),
                "127.0.0.1",
                outcome.append,
            )
            return outcome

        outcome = asyncio.run(scenario())
        assert len(outcome) == 1
        assert Message.from_wire(outcome[0]).rcode == Rcode.REFUSED


class TestTcpHardening:
    def test_slow_loris_is_reaped(self, world):
        async def scenario():
            service, port = await _start(
                world,
                tcp_idle_timeout_s=0.3,
                tcp_handshake_timeout_s=0.3,
                reaper_interval_s=0.1,
            )
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"\x00")  # half a length header, then stall
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), timeout=3.0)
                writer.close()
            finally:
                snapshot = await service.drain_and_stop()
            return eof, snapshot

        eof, snapshot = asyncio.run(scenario())
        assert eof == b""  # server closed on us
        assert snapshot["tcp_reaped"] + snapshot["tcp_open"] >= 1
        assert snapshot["tcp_open"] == 0  # nothing leaks past drain

    def test_connection_cap_rejects_excess(self, world):
        async def scenario():
            service, port = await _start(world, tcp_max_connections=0)
            try:
                reader, __writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                eof = await asyncio.wait_for(reader.read(1), timeout=3.0)
            finally:
                snapshot = await service.drain_and_stop()
            return eof, snapshot

        eof, snapshot = asyncio.run(scenario())
        assert eof == b""
        assert snapshot["tcp_rejected"] >= 1


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="no SO_REUSEPORT here"
)
class TestCrashOnlyRestart:
    def test_replacement_binds_while_predecessor_lives(self, world):
        async def scenario():
            first, port = await _start(world)
            second = DnsService(
                [Binding("resolver", world.resolver, port=port)],
                engine=ServiceEngine(),
            )
            await second.start()  # same port, first still bound
            await first.drain_and_stop()
            query = make_query(PROBE_VALID, RdataType.A)
            raw = await _udp_query(port, query.to_wire())
            await second.drain_and_stop()
            return Message.from_wire(raw)

        response = asyncio.run(scenario())
        assert response.rcode == Rcode.NOERROR


class TestLoadGenerator:
    def test_mixed_traffic_reports_by_class(self, world):
        async def scenario():
            service, port = await _start(world)
            try:
                report = await LoadGenerator(
                    "127.0.0.1",
                    port,
                    qps=60,
                    duration_s=1.0,
                    attack_ratio=0.3,
                    benign_names=benign_pool(DOMAINS, TLDS),
                    timeout_s=5.0,
                    seed=11,
                ).run()
            finally:
                await service.drain_and_stop()
            return report

        report = asyncio.run(scenario())
        benign = report.stats("benign")
        attack = report.stats("attack")
        assert benign.answered == benign.sent > 0
        assert set(benign.rcodes) <= {"NOERROR", "NXDOMAIN"}
        assert attack.answered == attack.sent > 0
        # Guard budgets turn the amplification attacks into SERVFAILs.
        assert set(attack.rcodes) == {"SERVFAIL"}
        assert benign.percentile(99) is not None


@pytest.mark.slow
class TestMiniSoak:
    def test_short_soak_passes(self):
        report = run_soak(
            SoakConfig(
                domains=DOMAINS,
                tlds=TLDS,
                phase_s=0.6,
                benign_qps=40,
                attack_qps=80,
                burst_queries=250,
                fuzz_datagrams=60,
                churn_connections=8,
                loris_connections=2,
                tcp_idle_timeout_s=0.4,
                drain_queries=10,
                query_timeout_s=5.0,
            )
        )
        assert report.violations == []
        assert report.passed
        assert report.shed_after_attack > report.shed_before_attack
        assert report.snapshot["drain_flushed"] is True
