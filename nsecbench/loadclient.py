"""Open-loop UDP load for ``repro serve``: one socket, one thread.

Every query has a due time fixed before the phase starts (``i / rate``
seconds after the phase origin) and is sent when due whatever the server
does, like independent users. Latency runs from the due time, not from
the actual send, so a stall in the generator or the server shows up in
every query it delays; how late each send was is reported as lateness.
(The stock ``repro loadgen`` times from the send and drops queries once
``max_inflight`` is reached, so a stall hides itself.)

Queries are built and encoded before the phase starts, and replies are
only stored during it: parsing and checking happen after the phase, so
neither slows the send loop.
"""

from __future__ import annotations

import random
import select
import socket
import time
from dataclasses import dataclass

from repro.dns.edns import (
    EDE_OTHER,
    EDE_STALE_ANSWER,
    EDE_UNSUPPORTED_NSEC3_ITERATIONS,
)
from repro.dns.flags import Flag
from repro.dns.message import make_query
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.transport import validate_reply
from repro.testbed.adversary import attack_qname, default_attack_kinds

_ATTACK_EDE = {EDE_OTHER, EDE_UNSUPPORTED_NSEC3_ITERATIONS}

#: Message ids are the query index modulo 2**16, so a phase stays below it.
MAX_PHASE_QUERIES = 65536


def make_schedule(rng, count, benign_names, attack_ratio=0.1, unique_ratio=0.3, tag="q"):
    """``[(klass, qname)]``: the benign/attack mix of ``repro loadgen``.

    Benign names come from ``benign_pool``; *unique_ratio* of them get a
    cache-busting label. Attack names are CVE-2023-50868 encloser and
    KeyTrap queries from :func:`attack_qname`, each unique.
    """
    kinds = default_attack_kinds()
    schedule = []
    for index in range(count):
        if rng.random() < attack_ratio:
            kind = rng.choice(kinds)
            schedule.append(("attack", attack_qname(kind, unique=f"{tag}{index}")))
            continue
        name = rng.choice(benign_names)
        if rng.random() < unique_ratio:
            name = f"{tag}{index}.{name}"
        schedule.append(("benign", name))
    return schedule


def classify(klass, raw, msg_id):
    """Why a query of class *klass* with reply *raw* failed, or ``"ok"``.

    Benign names must resolve: NOERROR or NXDOMAIN, and not a stale
    answer served under load. Attack names must be refused before they
    cost the resolver its work: SERVFAIL with the guard's EDE 0 (a
    budget tripped) or EDE 27 (iterations above the policy cap, RFC
    9276). ``"refused"``, ``"stale"``, ``"timeout"`` and ``"truncated"``
    are load outcomes (as is ``"send"``, a failed send); ``"garbage"``
    and ``"wrong"`` are wrong answers.
    """
    if raw is None:
        return "timeout"
    response = validate_reply(raw, msg_id)
    if response is None:
        return "garbage"
    if response.rcode == Rcode.REFUSED:
        return "refused"
    if response.has_flag(Flag.TC):
        return "truncated"
    codes = {ede.info_code for ede in response.extended_errors()}
    if EDE_STALE_ANSWER in codes:
        return "stale"
    if klass == "benign":
        good = response.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN)
    else:
        good = response.rcode == Rcode.SERVFAIL and bool(codes & _ATTACK_EDE)
    return "ok" if good else "wrong"


#: Outcomes that mean the server answered wrongly, whatever the load.
WRONG = ("garbage", "wrong")


def percentile(values, q):
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]


@dataclass
class PhaseResult:
    """Per-query outcome of one fixed-rate phase."""

    rate: float
    duration_s: float
    classes: list
    #: Seconds from the due time to the send / to the reply (None: never).
    late_s: list
    latency_s: list
    #: :func:`classify` outcome per query.
    outcomes: list
    cpu_s: float = 0.0

    @property
    def sent(self):
        return len(self.classes)

    @property
    def failed(self):
        return sum(1 for outcome in self.outcomes if outcome != "ok")

    @property
    def wrong(self):
        return sum(1 for outcome in self.outcomes if outcome in WRONG)

    def outcome_counts(self):
        counts = {}
        for klass, outcome in zip(self.classes, self.outcomes):
            counts[f"{klass}:{outcome}"] = counts.get(f"{klass}:{outcome}", 0) + 1
        return counts

    @property
    def fail_frac(self):
        return self.failed / self.sent if self.sent else 0.0

    def latencies_ms(self, klass):
        return [
            lat * 1000.0
            for k, lat, outcome in zip(self.classes, self.latency_s, self.outcomes)
            if k == klass and lat is not None and outcome == "ok"
        ]

    def latency_ms(self, klass, q):
        return percentile(self.latencies_ms(klass), q)

    def late_ms(self, q):
        return percentile([late * 1000.0 for late in self.late_s], q)

    @property
    def delivered_qps(self):
        """Correct replies per second, up to the last correct reply."""
        ends = [
            index / self.rate + latency
            for index, (latency, outcome) in enumerate(zip(self.latency_s, self.outcomes))
            if outcome == "ok"
        ]
        return len(ends) / max(ends) if ends and max(ends) > 0 else 0.0


class OpenLoopClient:
    """Sends a pre-built schedule at a fixed rate over one UDP socket."""

    def __init__(self, host, port, timeout_s=2.0, clock=time.perf_counter):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.clock = clock

    def build(self, schedule):
        """Encode every query up front: ``[(klass, msg_id, wire)]``."""
        if len(schedule) > MAX_PHASE_QUERIES:
            raise ValueError(f"a phase holds at most {MAX_PHASE_QUERIES} queries")
        built = []
        for index, (klass, qname) in enumerate(schedule):
            msg_id = index & 0xFFFF
            wire = make_query(qname, RdataType.A, want_dnssec=True, msg_id=msg_id).to_wire()
            built.append((klass, msg_id, wire))
        return built

    def run(self, schedule, rate, cpu_probe=None):
        """Send *schedule* at *rate* qps; returns a :class:`PhaseResult`.

        *cpu_probe*, if given, is called at the phase start and end; the
        difference lands in ``cpu_s`` (the server's CPU seconds).
        """
        built = self.build(schedule)
        count = len(built)
        interval = 1.0 / rate
        sent_at = [None] * count
        received_at = [None] * count
        replies = [None] * count
        unsent = set()
        clock = self.clock
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            sock.connect((self.host, self.port))
            sock.setblocking(False)
            cpu_start = cpu_probe() if cpu_probe else 0.0
            origin = clock() + 0.01
            last_due = origin + (count - 1) * interval
            deadline = last_due + self.timeout_s
            outstanding = 0
            index = 0
            while True:
                now = clock()
                while index < count and origin + index * interval <= now:
                    try:
                        sock.send(built[index][2])
                        outstanding += 1
                    except OSError:
                        unsent.add(index)
                    sent_at[index] = clock()
                    index += 1
                if index >= count and (outstanding <= 0 or now >= deadline):
                    break
                wait = (origin + index * interval if index < count else deadline) - clock()
                readable, __, __ = select.select([sock], [], [], max(0.0, wait))
                if not readable:
                    continue
                while True:
                    try:
                        data = sock.recv(65535)
                    except BlockingIOError:
                        break
                    except ConnectionRefusedError:
                        continue
                    stamp = clock()
                    if len(data) < 2:
                        continue
                    slot = int.from_bytes(data[:2], "big")
                    if slot < index and replies[slot] is None:
                        replies[slot] = data
                        received_at[slot] = stamp
                        outstanding -= 1
            cpu_end = cpu_probe() if cpu_probe else 0.0
        finally:
            sock.close()
        late, latency, outcomes, classes = [], [], [], []
        for i, (klass, msg_id, __) in enumerate(built):
            due = origin + i * interval
            classes.append(klass)
            late.append(sent_at[i] - due)
            in_time = received_at[i] is not None and received_at[i] - due <= self.timeout_s
            latency.append(received_at[i] - due if in_time else None)
            if i in unsent:
                outcomes.append("send")
            else:
                outcomes.append(classify(klass, replies[i] if in_time else None, msg_id))
        return PhaseResult(
            rate=rate,
            duration_s=count * interval,
            classes=classes,
            late_s=late,
            latency_s=latency,
            outcomes=outcomes,
            cpu_s=cpu_end - cpu_start,
        )


@dataclass
class ClosedResult:
    """Outcome of a closed-loop capacity phase."""

    window: int
    elapsed_s: float
    outcomes: list

    @property
    def sent(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(1 for outcome in self.outcomes if outcome != "ok")

    @property
    def wrong(self):
        return sum(1 for outcome in self.outcomes if outcome in WRONG)

    @property
    def qps(self):
        """Correct replies per second."""
        return (self.sent - self.failed) / self.elapsed_s if self.elapsed_s else 0.0


def run_closed(client, schedule, window, seconds):
    """Keep *window* queries in flight for *seconds*: the service's capacity.

    Each reply releases the next query, so the server sets the pace and
    nothing queues past *window* (no shedding, no drops); the rate of
    correct replies is what the service sustains. Replies are checked
    after the phase.
    """
    built = client.build(schedule)
    clock = client.clock
    replies = [None] * len(built)
    inflight = {}
    index = 0
    expired = set()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.connect((client.host, client.port))
        sock.setblocking(False)
        started = clock()
        stop = started + seconds
        last = started
        while True:
            now = clock()
            for slot, sent in list(inflight.items()):
                if now - sent > client.timeout_s:
                    del inflight[slot]
                    expired.add(slot)
            while len(inflight) < window and index < len(built) and now < stop:
                try:
                    sock.send(built[index][2])
                except OSError:
                    expired.add(index)
                else:
                    inflight[index] = clock()
                index += 1
            if not inflight:
                break
            readable, __, __ = select.select([sock], [], [], 0.05)
            while readable:
                try:
                    data = sock.recv(65535)
                except BlockingIOError:
                    break
                except ConnectionRefusedError:
                    continue
                slot = int.from_bytes(data[:2], "big") if len(data) >= 2 else -1
                if inflight.pop(slot, None) is not None:
                    replies[slot] = data
                    last = clock()
    outcomes = [
        classify(klass, None if slot in expired else replies[slot], msg_id)
        for slot, (klass, msg_id, __) in enumerate(built[:index])
    ]
    return ClosedResult(window=window, elapsed_s=last - started, outcomes=outcomes)


def first_answer(host, port, qname, attempts=300, wait_s=0.2, clock=time.perf_counter):
    """Clock reading when *qname* first gets a correct reply (None: never)."""
    wire = make_query(qname, RdataType.A, want_dnssec=True, msg_id=1).to_wire()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.connect((host, port))
        for __ in range(attempts):
            try:
                sock.send(wire)
            except OSError:
                time.sleep(wait_s)
                continue
            deadline = clock() + wait_s
            while clock() < deadline:
                sock.settimeout(max(0.001, deadline - clock()))
                try:
                    raw = sock.recv(65535)
                except (socket.timeout, ConnectionRefusedError):
                    break
                stamp = clock()
                if classify("benign", raw, 1) == "ok":
                    return stamp
    return None


def run_phase(host, port, rate, seconds, benign_names, seed, tag, timeout_s=2.0, cpu_probe=None):
    """One phase of ``rate * seconds`` queries drawn from *seed*."""
    rng = random.Random(f"{seed}:{tag}:{rate}")
    schedule = make_schedule(rng, max(1, int(rate * seconds)), benign_names, tag=tag)
    client = OpenLoopClient(host, port, timeout_s=timeout_s)
    return client.run(schedule, rate, cpu_probe=cpu_probe)
