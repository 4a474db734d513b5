"""RIPE-Atlas-style measurement of closed resolvers (§4.2).

Closed resolvers only answer queries from inside their own network, so the
paper used RIPE Atlas probes as in-network vantage points. The simulated
equivalent: every closed resolver's segment contains a registered probe
address; the campaign issues the standard probe matrix from there.

Fidelity detail: "RIPE Atlas does not supply the EDE data" — the campaign
strips EDE codes from its results, which is why the paper could not check
Items 10/11 for closed resolvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scanner.resolver_scan import probe_with_policy, survey_entry
from repro.testbed.rfc9276_wild import PROBE_ZONE_ITERATIONS


@dataclass
class AtlasCampaign:
    """Probes closed resolvers from inside their networks.

    :meth:`run` drives a whole deployment; :meth:`eligible` and
    :meth:`visit` are its per-target steps, shared with the campaign
    unit runner.
    """

    #: Note on entries whose probes stayed unanswered or unstable.
    DEGRADED_NOTE = "degraded: Atlas probes unanswered or unstable"

    network: object
    probe_set: object
    iterations: tuple = PROBE_ZONE_ITERATIONS
    #: RIPE Atlas caps concurrent measurements; we model the cap as a
    #: simple budget of resolvers per campaign run.
    max_probes: int = 1000
    #: Same graceful-degradation knobs as :class:`ResolverSurvey` — Atlas
    #: probes cross the same hostile network the scanner does.
    retry_policy: object = None
    #: In-flight window on the simulation kernel (Atlas probes run from
    #: independent vantage points, so their sessions naturally overlap).
    concurrency: int = 1
    entries: list = field(default_factory=list)

    def __post_init__(self):
        from repro.net.sim import CampaignExecutor

        self.executor = CampaignExecutor(self.network.kernel, self.concurrency)

    def run(self, deployed_resolvers):
        self.entries = [
            self.visit(index, deployed)
            for index, deployed in self.eligible(deployed_resolvers)
        ]
        self.executor.drain()
        return self.entries

    def eligible(self, deployed_resolvers):
        """Yield ``(index, deployed)`` for the closed resolvers this
        campaign probes: those with a probe vantage, in deployment order,
        until the :attr:`max_probes` budget fills."""
        count = 0
        for index, deployed in enumerate(deployed_resolvers):
            if deployed.access != "closed":
                continue
            if count >= self.max_probes:
                return
            if not deployed.probe_source_ip:
                continue
            yield index, deployed
            count += 1

    def visit(self, index, deployed):
        """Probe one eligible closed resolver and return its entry. No
        requeue: Atlas admits an unhealthy matrix at once, with the
        degradation note."""
        matrix, healthy = self.executor.submit(lambda: self.probe(deployed, index))
        return survey_entry(
            deployed, matrix, degraded_note=None if healthy else self.DEGRADED_NOTE
        )

    def probe(self, deployed, index):
        """One closed resolver's probe session from its in-network
        vantage; returns ``(matrix, healthy)``."""
        return probe_with_policy(
            self.network,
            deployed.ip,
            self.probe_set,
            deployed.probe_source_ip,
            f"atlas{index}",
            self.iterations,
            self.retry_policy,
            keep_ede=False,  # Atlas does not expose EDE
        )

    def classifications(self):
        return [entry.classification for entry in self.entries]
