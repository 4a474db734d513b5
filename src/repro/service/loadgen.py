"""Traffic-replay load generator for the real-socket service mode.

Replays the testbed's two traffic populations against a live
:class:`~repro.service.frontend.DnsService` (or any DNS server) over
real UDP sockets at a configurable QPS:

- **benign** — population domains and RFC 9276 probe-zone names, a mix
  of repeated lookups (cache-warm, the common case) and cache-busting
  unique labels (the paper's probing methodology);
- **attack** — CVE-2023-50868 closest-encloser and KeyTrap streams
  built from :func:`repro.testbed.adversary.attack_qname`, every query
  unique so no cache absorbs the amplification.

Replies are accepted through the same
:func:`repro.net.transport.validate_reply` test the sim-rail transport
applies; truncated answers retry over TCP with 2-byte length framing.
The :class:`LoadReport` keeps per-class rcode histograms and latency
percentiles — the soak harness's "benign p99 stays bounded under
attack" assertion reads straight out of it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.dns.edns import EDE_STALE_ANSWER
from repro.dns.flags import Flag
from repro.dns.message import make_query
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.transport import validate_reply
from repro.testbed import adversary, rfc9276_wild


def benign_pool(n_domains=40, n_tlds=12, probes=True, limit=64):
    """Benign qnames a matching ``repro serve`` testbed can answer.

    Derives population domains from the same ``(n_domains, n_tlds)``
    scaling rule the serve command uses, so generator and service agree
    on which names exist without sharing state.
    """
    import itertools

    from repro.testbed.population import Population, generate_tlds, scaled_config

    config = scaled_config(n_domains, n_tlds)
    population = Population(config, tlds=generate_tlds(config))
    names = [spec.name for spec in itertools.islice(population, limit)]
    if probes:
        names.append(f"www.valid.{rfc9276_wild.PARENT_DOMAIN}")
        names.append(f"www.it-10.{rfc9276_wild.PARENT_DOMAIN}")
    return names


@dataclass
class ClassStats:
    """Outcome counters for one traffic class."""

    sent: int = 0
    answered: int = 0
    timeouts: int = 0
    send_errors: int = 0
    tcp_fallbacks: int = 0
    stale: int = 0
    rcodes: dict = field(default_factory=dict)
    latencies_ms: list = field(default_factory=list)

    def record(self, rcode_text, latency_ms, stale=False):
        self.answered += 1
        self.rcodes[rcode_text] = self.rcodes.get(rcode_text, 0) + 1
        self.latencies_ms.append(latency_ms)
        if stale:
            self.stale += 1

    def percentile(self, q):
        if not self.latencies_ms:
            return None
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]

    def to_json(self):
        return {
            "sent": self.sent,
            "answered": self.answered,
            "timeouts": self.timeouts,
            "send_errors": self.send_errors,
            "tcp_fallbacks": self.tcp_fallbacks,
            "stale": self.stale,
            "rcodes": dict(sorted(self.rcodes.items())),
            "latency_p50_ms": self.percentile(50),
            "latency_p99_ms": self.percentile(99),
        }


@dataclass
class LoadReport:
    """The generator's final word: per-class stats plus wall timing."""

    classes: dict
    duration_s: float = 0.0
    offered_qps: float = 0.0

    def stats(self, klass):
        return self.classes[klass]

    def to_json(self):
        return {
            "duration_s": round(self.duration_s, 3),
            "offered_qps": round(self.offered_qps, 1),
            "classes": {k: v.to_json() for k, v in self.classes.items()},
        }

    def render(self):
        lines = [
            f"loadgen: {self.offered_qps:.0f} qps offered for {self.duration_s:.1f}s"
        ]
        for klass, stats in sorted(self.classes.items()):
            p99 = stats.percentile(99)
            rcodes = ",".join(f"{k}={v}" for k, v in sorted(stats.rcodes.items()))
            lines.append(
                f"  {klass:7s} sent={stats.sent} answered={stats.answered} "
                f"timeouts={stats.timeouts} tcp={stats.tcp_fallbacks} "
                f"stale={stats.stale} "
                f"p99={'-' if p99 is None else f'{p99:.1f}ms'} [{rcodes}]"
            )
        return "\n".join(lines)


class _ClientProtocol(asyncio.DatagramProtocol):
    """Connected UDP socket demultiplexing replies by message id."""

    def __init__(self):
        self.pending = {}
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        if len(data) < 2:
            return
        future = self.pending.pop(int.from_bytes(data[:2], "big"), None)
        if future is not None and not future.done():
            future.set_result(data)

    def error_received(self, exc):
        pass


class LoadGenerator:
    """Paced mixed-class query replay against one ``host:port``."""

    def __init__(
        self,
        host,
        port,
        qps=200.0,
        duration_s=5.0,
        attack_ratio=0.0,
        benign_names=None,
        attack_kinds=None,
        unique_ratio=0.3,
        qtype=RdataType.A,
        want_dnssec=True,
        timeout_s=3.0,
        tcp_fallback=True,
        seed=0,
        max_inflight=512,
    ):
        self.host = host
        self.port = port
        self.qps = float(qps)
        self.duration_s = float(duration_s)
        self.attack_ratio = float(attack_ratio)
        self.benign_names = list(benign_names) if benign_names else benign_pool()
        self.attack_kinds = (
            list(attack_kinds) if attack_kinds else adversary.default_attack_kinds()
        )
        self.unique_ratio = float(unique_ratio)
        self.qtype = qtype
        self.want_dnssec = want_dnssec
        self.timeout_s = float(timeout_s)
        self.tcp_fallback = tcp_fallback
        self.rng = random.Random(seed)
        self.max_inflight = max_inflight
        self._sequence = 0

    # -- schedule ------------------------------------------------------------

    def next_query(self):
        """``(class, qname)`` for the next tick of the replay schedule."""
        self._sequence += 1
        if self.attack_kinds and self.rng.random() < self.attack_ratio:
            kind = self.rng.choice(self.attack_kinds)
            return "attack", adversary.attack_qname(kind, unique=f"lg{self._sequence}")
        name = self.rng.choice(self.benign_names)
        if self.rng.random() < self.unique_ratio:
            name = f"u{self._sequence}.{name}"
        return "benign", name

    # -- execution -----------------------------------------------------------

    async def run(self, on_offered=None):
        """Replay the schedule; returns the :class:`LoadReport`.

        *on_offered* is called once every query has been sent, before
        the replies are awaited.
        """
        loop = asyncio.get_running_loop()
        transport, protocol = await loop.create_datagram_endpoint(
            _ClientProtocol, remote_addr=(self.host, self.port)
        )
        classes = {"benign": ClassStats(), "attack": ClassStats()}
        tasks = []
        interval = 1.0 / self.qps if self.qps > 0 else 0.0
        total = max(1, int(self.qps * self.duration_s))
        started = time.monotonic()
        try:
            for index in range(total):
                due = started + index * interval
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                if len(protocol.pending) >= self.max_inflight:
                    # The service is shedding slower than we offer; hold
                    # the schedule rather than grow an unbounded id map.
                    klass, __ = self.next_query()
                    classes[klass].send_errors += 1
                    continue
                klass, qname = self.next_query()
                tasks.append(
                    loop.create_task(
                        self._one_query(protocol, classes[klass], qname)
                    )
                )
            if on_offered is not None:
                await asyncio.sleep(0)  # each task sends before it awaits
                on_offered()
            if tasks:
                await asyncio.gather(*tasks)
        finally:
            transport.close()
        elapsed = time.monotonic() - started
        return LoadReport(
            classes=classes,
            duration_s=elapsed,
            offered_qps=total / elapsed if elapsed > 0 else 0.0,
        )

    def _free_id(self, protocol):
        for __ in range(8):
            msg_id = self.rng.randrange(65536)
            if msg_id not in protocol.pending:
                return msg_id
        return None

    async def _one_query(self, protocol, stats, qname):
        msg_id = self._free_id(protocol)
        if msg_id is None:
            stats.send_errors += 1
            return
        query = make_query(
            qname, self.qtype, want_dnssec=self.want_dnssec, msg_id=msg_id
        )
        wire = query.to_wire()
        future = asyncio.get_running_loop().create_future()
        protocol.pending[msg_id] = future
        stats.sent += 1
        t0 = time.monotonic()
        try:
            protocol.transport.sendto(wire)
            raw = await asyncio.wait_for(future, timeout=self.timeout_s)
        except asyncio.TimeoutError:
            protocol.pending.pop(msg_id, None)
            stats.timeouts += 1
            return
        except OSError:
            protocol.pending.pop(msg_id, None)
            stats.send_errors += 1
            return
        response = validate_reply(raw, msg_id)
        if response is None:
            stats.timeouts += 1
            return
        if response.has_flag(Flag.TC) and self.tcp_fallback:
            response = await self._tcp_retry(wire, msg_id, stats)
            if response is None:
                stats.timeouts += 1
                return
        latency_ms = (time.monotonic() - t0) * 1000.0
        stale = any(
            ede.info_code == EDE_STALE_ANSWER for ede in response.extended_errors()
        )
        stats.record(Rcode.to_text(response.rcode), latency_ms, stale=stale)

    async def _tcp_retry(self, wire, msg_id, stats):
        """The RFC 1035 fallback: same query, 2-byte length framing."""
        stats.tcp_fallbacks += 1
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.timeout_s,
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(len(wire).to_bytes(2, "big") + wire)
            await writer.drain()
            header = await asyncio.wait_for(
                reader.readexactly(2), timeout=self.timeout_s
            )
            raw = await asyncio.wait_for(
                reader.readexactly(int.from_bytes(header, "big")),
                timeout=self.timeout_s,
            )
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
        return validate_reply(raw, msg_id)


def run_loadgen(**kwargs):
    """Synchronous driver: build a generator, run it, return the report."""
    return asyncio.run(LoadGenerator(**kwargs).run())
