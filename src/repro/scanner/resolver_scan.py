"""The resolver survey (§4.2/§5.2): probe the 49 zones, classify Items 6–12.

Each resolver is asked, with a unique cache-busting label, for a name
under every probe zone. The response matrix — RCODE, AD bit, EDE codes —
feeds :func:`repro.core.resolver_compliance.classify_resolver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.resolver_compliance import ProbeResult, classify_resolver
from repro.dns.types import RdataType
from repro.dnssec.costmodel import meter
from repro.resolver.stub import StubClient
from repro.testbed.rfc9276_wild import PROBE_ZONE_ITERATIONS


def _to_probe_result(answer, keep_ede=True):
    return ProbeResult(
        rcode=answer.rcode,
        ad=answer.ad,
        ede_codes=tuple(answer.ede_codes) if keep_ede else (),
        ra=answer.ra,
        answered=answer.answered,
    )


def _ask_probe(client, resolver_ip, probe_set, key, unique):
    """One probe query, cost-profiled per probe zone when obs is enabled."""
    qname = probe_set.probe_name(key, unique)
    if not obs.enabled:
        return client.ask(resolver_ip, qname, RdataType.A)
    cost_start = meter.snapshot()
    answer = client.ask(resolver_ip, qname, RdataType.A)
    obs.profiler.record_probe(
        probe_set.zone_label(key),
        meter.snapshot() - cost_start,
        answer.rcode,
        answered=answer.answered,
    )
    return answer


def _confirmed_probe(client, resolver_ip, probe_set, key, unique, confirm):
    """One probe cell, re-queried until two consecutive answers agree.

    A resolver-side transient (an upstream query lost to network weather
    makes the resolver SERVFAIL once) is indistinguishable from policy in
    a single answer. The paper's §5.2 move — query again with a fresh
    label so the cache cannot echo the damage — generalises per cell:
    accept an answer only once two consecutive asks agree on
    (rcode, AD, answered). With *confirm* extra asks exhausted, the last
    answer stands and the matrix-level stability pass gets to object.
    """
    answer = _ask_probe(client, resolver_ip, probe_set, key, unique)
    for extra in range(confirm):
        again = _ask_probe(client, resolver_ip, probe_set, key, f"{unique}c{extra}")
        if (
            again.rcode == answer.rcode
            and again.ad == answer.ad
            and again.answered == answer.answered
        ):
            return again
        answer = again
    return answer


def probe_resolver(
    network,
    resolver_ip,
    probe_set,
    source_ip,
    unique,
    iterations=PROBE_ZONE_ITERATIONS,
    keep_ede=True,
    breaker=None,
    retries=1,
    confirm=0,
):
    """Probe one resolver; returns the matrix for classify_resolver().

    With a shared *breaker*, probes to a quarantined resolver fail fast
    (they come back as unanswered entries) instead of burning the full
    per-probe retry schedule on a host that is known dead. *retries* is
    the stub transport's per-query retry count; *confirm* > 0 turns on
    per-cell answer confirmation (see :func:`_confirmed_probe`).
    """
    client = StubClient(network, source_ip, retries=retries, breaker=breaker)
    matrix = {}
    matrix["valid"] = _to_probe_result(
        _confirmed_probe(client, resolver_ip, probe_set, "valid", unique, confirm),
        keep_ede,
    )
    matrix["expired"] = _to_probe_result(
        _confirmed_probe(client, resolver_ip, probe_set, "expired", unique, confirm),
        keep_ede,
    )
    for count in iterations:
        if count == 0:
            continue
        answer = _confirmed_probe(
            client, resolver_ip, probe_set, count, unique, confirm
        )
        matrix[count] = _to_probe_result(answer, keep_ede)
    matrix["it-2501-expired"] = _to_probe_result(
        _confirmed_probe(
            client, resolver_ip, probe_set, "it-2501-expired", unique, confirm
        ),
        keep_ede,
    )
    return matrix


def probe_stability(
    network,
    resolver_ip,
    probe_set,
    source_ip,
    unique,
    iterations=(1, 50, 100, 150, 151, 500),
    attempts=2,
):
    """Re-probe a resolver and report whether its answers are stable.

    The paper re-queried apparent Item 12 violators and found that
    "different response patterns" usually meant a broken resolver, not a
    real three-phase configuration. Returns ``(stable, matrices)``.
    """
    matrices = []
    for attempt in range(attempts):
        matrices.append(
            probe_resolver(
                network,
                resolver_ip,
                probe_set,
                source_ip,
                f"{unique}-a{attempt}",
                iterations=iterations,
            )
        )
    first = matrices[0]
    stable = all(
        all(
            matrix[key].rcode == first[key].rcode and matrix[key].ad == first[key].ad
            for key in first
        )
        for matrix in matrices[1:]
    )
    return stable, matrices


@dataclass
class SurveyEntry:
    """One resolver's probe matrix plus its classification."""

    resolver: object  # testbed.resolvers.DeployedResolver
    matrix: dict
    classification: object
    #: Satisfied from a checkpoint without re-querying.
    resumed: bool = False
    #: Entered the end-of-campaign requeue before producing this matrix.
    requeued: bool = False
    #: Admitted with a degradation note: the probes never came back
    #: healthy, so the classification rests on damaged evidence.
    degraded: bool = False


def survey_entry(resolver, matrix, degraded_note=None, requeued=False):
    """Classify *matrix* into a :class:`SurveyEntry`; a *degraded_note*
    marks the entry degraded and is appended to its classification."""
    classification = classify_resolver(matrix, resolver=resolver.ip)
    if degraded_note:
        classification.notes.append(degraded_note)
    return SurveyEntry(
        resolver,
        matrix,
        classification,
        requeued=requeued,
        degraded=bool(degraded_note),
    )


@dataclass(frozen=True)
class SurveyRetryPolicy:
    """Graceful degradation knobs for :class:`ResolverSurvey`.

    *max_attempts* bounds the per-resolver probe attempts in the main
    pass; a matrix is *healthy* when every probe was answered. With
    *require_stable*, two consecutive healthy matrices must agree
    (rcode + AD per probe) before a resolver is admitted — the paper's
    §5.2 re-probe generalised to the whole matrix, which filters out
    fault-induced SERVFAILs that a single pass cannot distinguish from
    policy. *stub_retries* is the stub transport's per-query retry count
    and *confirm* the number of per-cell confirmation re-asks (each with
    a fresh cache-busting label) — both defend individual cells so the
    matrix-level check converges. Unhealthy resolvers are quarantined
    and requeued after the main pass, *requeue_attempts* times, with
    *requeue_delay_ms* of simulated time between passes so outages can
    clear.
    """

    max_attempts: int = 3
    require_stable: bool = False
    requeue_attempts: int = 2
    requeue_delay_ms: float = 2000.0
    stub_retries: int = 3
    confirm: int = 2


def _matrix_healthy(matrix):
    return all(result.answered for result in matrix.values())


def _matrices_agree(first, second):
    if first.keys() != second.keys():
        return False
    return all(
        first[key].rcode == second[key].rcode
        and first[key].ad == second[key].ad
        and first[key].answered == second[key].answered
        for key in first
    )


def probe_with_policy(
    network,
    resolver_ip,
    probe_set,
    source_ip,
    unique,
    iterations,
    policy,
    keep_ede=True,
    breaker=None,
):
    """Probe one resolver under a :class:`SurveyRetryPolicy`.

    Returns ``(matrix, healthy)``: *healthy* means every probe answered
    and, with ``require_stable``, two consecutive attempts agreed. The
    last matrix is returned either way so callers can keep the evidence.
    Without a *policy* the resolver is probed once, as *unique*, and the
    matrix counts as healthy whatever it holds (the legacy single pass).
    """
    if policy is None:
        matrix = probe_resolver(
            network,
            resolver_ip,
            probe_set,
            source_ip,
            unique,
            iterations=iterations,
            keep_ede=keep_ede,
        )
        return matrix, True
    previous = None
    matrix = None
    for attempt in range(policy.max_attempts):
        matrix = probe_resolver(
            network,
            resolver_ip,
            probe_set,
            source_ip,
            f"{unique}-t{attempt}",
            iterations=iterations,
            keep_ede=keep_ede,
            breaker=breaker,
            retries=policy.stub_retries,
            confirm=policy.confirm,
        )
        if not _matrix_healthy(matrix):
            previous = None
            continue
        if not policy.require_stable:
            return matrix, True
        if previous is not None and _matrices_agree(previous, matrix):
            return matrix, True
        previous = matrix
    return matrix, False


def matrix_to_record(matrix):
    """A probe matrix as a JSON-able checkpoint record (keys keep type)."""
    probes = []
    for key, result in matrix.items():
        tag = "i" if isinstance(key, int) else "s"
        probes.append(
            [
                tag,
                key,
                {
                    "rcode": int(result.rcode),
                    "ad": bool(result.ad),
                    "ede": list(result.ede_codes),
                    "ra": bool(result.ra),
                    "answered": bool(result.answered),
                },
            ]
        )
    return {"probes": probes}


def matrix_from_record(record):
    matrix = {}
    for tag, key, fields_ in record["probes"]:
        matrix[int(key) if tag == "i" else str(key)] = ProbeResult(
            rcode=fields_["rcode"],
            ad=fields_["ad"],
            ede_codes=tuple(fields_["ede"]),
            ra=fields_["ra"],
            answered=fields_["answered"],
        )
    return matrix


def _count_completed():
    if obs.enabled:
        obs.registry.counter(
            "repro_campaign_completed_total",
            "Campaign jobs settled (scan targets / surveyed resolvers).",
            labelnames=("campaign",),
        ).labels(campaign="survey").inc()


@dataclass
class ResolverSurvey:
    """Runs the full survey over a deployed resolver population.

    With a :class:`SurveyRetryPolicy` the survey degrades gracefully
    under network weather: unhealthy resolvers (unanswered probes —
    dead, flapping, or circuit-quarantined) are set aside during the
    main pass and requeued at the end of the campaign; what still fails
    is admitted with a ``degraded`` note rather than silently
    misclassified. With *checkpoint_path*, completed matrices persist to
    JSON and a resumed survey re-classifies them locally — zero
    duplicate queries.

    :meth:`run` drives a whole deployment; the steps it is made of —
    :meth:`visit` per resolver, then :meth:`requeue` — are public so the
    campaign unit runner executes resolvers one at a time through the
    same code.
    """

    #: Note on entries whose probes stayed unhealthy through the requeue.
    DEGRADED_NOTE = "degraded: probes unanswered after end-of-campaign requeue"

    network: object
    probe_set: object
    scanner_source_ip: str
    #: Restrict it-N probing to a subset for cheap smoke surveys.
    iterations: tuple = PROBE_ZONE_ITERATIONS
    #: Re-probe apparent Item 12 violators and discount unstable ones —
    #: the paper's §5.2 verification step ("querying these resolvers again
    #: often results in different response patterns").
    verify_item12_stability: bool = False
    #: Graceful-degradation knobs (None = legacy single-pass behaviour).
    retry_policy: object = None
    #: JSON checkpoint for resumable campaigns (None = not persisted).
    checkpoint_path: str = None
    #: Archive an unreadable/foreign checkpoint and start fresh instead
    #: of raising CampaignError (the CLI's --discard-checkpoint).
    checkpoint_discard: bool = False
    #: Shared per-destination circuit breaker (created with a retry
    #: policy unless one is passed in).
    breaker: object = None
    #: In-flight window on the simulation kernel: how many resolvers'
    #: probe sessions overlap on the simulated clock (1 = serial; the
    #: answers are identical at any width, only elapsed time changes).
    concurrency: int = 1
    entries: list = field(default_factory=list)

    def __post_init__(self):
        from repro.net.resilience import CircuitBreaker
        from repro.net.sim import CampaignExecutor

        self.executor = CampaignExecutor(self.network.kernel, self.concurrency)
        policy = self.retry_policy
        if policy is not None and self.breaker is None:
            recovery = min(1500.0, policy.requeue_delay_ms or 1500.0)
            self.breaker = CircuitBreaker(
                clock=lambda: self.network.clock_ms, recovery_ms=recovery
            )

    def run(self, deployed_resolvers):
        """Probe every open resolver (closed ones are the Atlas campaign's)."""
        from repro.scanner.campaign import CampaignCheckpoint

        checkpoint = noted = None
        if self.checkpoint_path:
            checkpoint = CampaignCheckpoint(
                self.checkpoint_path,
                schema="survey-matrix/1",
                discard=self.checkpoint_discard,
            )

            def noted(index, deployed, tag):
                return checkpoint.note(f"{deployed.ip}#{index}", tag)

        def keep(index, entry):
            self.entries.append(entry)
            if checkpoint is not None and not entry.degraded:
                checkpoint.record(
                    f"{entry.resolver.ip}#{index}", matrix_to_record(entry.matrix)
                )

        self.entries = []
        deferred = []
        deployed_resolvers = list(deployed_resolvers)
        if obs.console is not None:
            obs.console.expect(len(deployed_resolvers))
        for index, deployed in enumerate(deployed_resolvers):
            if deployed.access == "closed":
                # Unreachable from the scanner; the Atlas campaign covers it.
                continue
            key = f"{deployed.ip}#{index}"
            if checkpoint is not None and checkpoint.done(key):
                matrix = matrix_from_record(checkpoint.get(key))
                # Classification is a pure function of the matrix, so a
                # resume recomputes it without touching the network (the
                # item-12 stability verdict is baked into the stored
                # matrix's provenance — no re-probing).
                classification = classify_resolver(matrix, resolver=deployed.ip)
                self.entries.append(
                    SurveyEntry(deployed, matrix, classification, resumed=True)
                )
                continue
            entry = self.visit(index, deployed, deferred, noted)
            if entry is not None:
                keep(index, entry)
        for index, entry in self.requeue(deferred, noted):
            keep(index, entry)
        if checkpoint is not None:
            checkpoint.flush()
        return self.entries

    def visit(self, index, deployed, deferred, noted=None):
        """The main-pass step for one open resolver: probe it and return
        its entry — or, when it is unhealthy, quarantine it into
        *deferred* for :meth:`requeue` and return None.

        ``noted(index, deployed, tag)`` is the caller's journaled
        once-only flag (see
        :meth:`~repro.scanner.campaign.CampaignCheckpoint.note`), so a
        resolver quarantined again after a crash/resume is not counted
        twice; without it every event counts.
        """
        unique = f"r{index}"
        matrix, healthy = self.executor.submit(lambda: self.probe(deployed, unique))
        if healthy:
            return self.admit(deployed, unique, matrix)
        fresh = noted is None or noted(index, deployed, "quarantined")
        if obs.enabled and fresh:
            obs.registry.counter(
                "repro_campaign_quarantined_total",
                "Targets set aside as unhealthy during the main pass.",
                labelnames=("campaign",),
            ).labels(campaign="survey").inc()
        if obs.events:
            obs.emit("campaign.quarantine", resolver=deployed.ip)
        deferred.append((index, deployed, matrix))
        return None

    def probe(self, deployed, unique):
        """One open resolver's probe session from the scanner; returns
        ``(matrix, healthy)`` (see :func:`probe_with_policy`)."""
        return probe_with_policy(
            self.network,
            deployed.ip,
            self.probe_set,
            self.scanner_source_ip,
            unique,
            self.iterations,
            self.retry_policy,
            breaker=self.breaker,
        )

    def admit(self, deployed, unique, matrix, requeued=False):
        """Classify a healthy matrix; returns its :class:`SurveyEntry`."""
        entry = survey_entry(deployed, matrix, requeued=requeued)
        if self.verify_item12_stability and entry.classification.item12_gap:
            self._verify_gap(deployed, unique, entry.classification)
        _count_completed()
        return entry

    def requeue(self, deferred, noted=None):
        """Settle the main pass: wait for its in-flight sessions, then
        give the quarantined resolvers their end-of-campaign second
        chance.

        *deferred* holds the ``(index, deployed, last_matrix)`` triples
        :meth:`visit` set aside. Each is settled exactly once, yielded as
        ``(index, entry)`` the moment it settles: requeued with a healthy
        matrix, or degraded once the requeue attempts run out — the
        evidence is kept, but marked damaged rather than letting a dead
        resolver masquerade as non-validating. Yielding per resolver lets
        a fleet worker journal each one and advance its heartbeat while
        a long requeue runs. *noted* is as for :meth:`visit`.
        """
        self.executor.drain()
        policy = self.retry_policy
        if policy is not None and deferred:
            fresh = sum(
                1
                for index, deployed, __ in deferred
                if noted is None or noted(index, deployed, "requeued")
            )
            if obs.enabled and fresh:
                obs.registry.counter(
                    "repro_campaign_requeued_total",
                    "Targets quarantined for an end-of-campaign requeue pass "
                    "(counted once per job key across resumes).",
                    labelnames=("campaign",),
                ).labels(campaign="survey").inc(fresh)
            for attempt in range(policy.requeue_attempts):
                if not deferred:
                    break
                self.executor.drain()
                if policy.requeue_delay_ms:
                    self.network.clock_ms += policy.requeue_delay_ms
                still_failing = []
                for index, deployed, __ in deferred:
                    unique = f"r{index}-rq{attempt}"
                    matrix, healthy = self.executor.submit(
                        lambda d=deployed, u=unique: self.probe(d, u)
                    )
                    if healthy:
                        yield index, self.admit(deployed, unique, matrix, requeued=True)
                    else:
                        still_failing.append((index, deployed, matrix))
                deferred = still_failing
            for index, deployed, matrix in deferred:
                _count_completed()
                yield index, survey_entry(
                    deployed, matrix, degraded_note=self.DEGRADED_NOTE, requeued=True
                )
        self.executor.drain()

    def _verify_gap(self, deployed, unique, classification):
        stable, __ = probe_stability(
            self.network,
            deployed.ip,
            self.probe_set,
            self.scanner_source_ip,
            f"{unique}-verify",
            iterations=self.iterations,
        )
        if not stable:
            classification.item12_gap = False
            classification.notes.append(
                "Item 12 gap discounted: responses unstable across re-probes"
            )

    def classifications(self):
        return [entry.classification for entry in self.entries]
