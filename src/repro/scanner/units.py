"""One unit runner for the study, scan and survey pipelines.

A campaign is a list of *units* in canonical order: domains (the §4.1
DNSKEY gate, then the NSEC3 probes), TLD audits, then resolvers (§4.2 —
open ones probed from the scanner, closed ones from RIPE Atlas
vantages). Two pieces execute it, whatever the process layout:

- :func:`build_world` is the only place the measured world is built,
  in one fixed allocation order, so every process that builds it from
  the same plan gets the same addresses and the same answers;
- :class:`UnitRunner` executes a stream of units against that world
  and yields each unit's result object.

The single-process CLI runs the whole list through one runner and folds
the results straight into the report aggregates; a fleet worker
(:mod:`repro.scanner.supervisor`) runs its round-robin shard of the same
list through the same runner and journals the results as records.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro import obs
from repro.net.faults import parse_fault_spec
from repro.resolver.policy import VENDOR_POLICIES
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.dnskey_scan import dnssec_enabled
from repro.scanner.engine import ScanEngine
from repro.scanner.nsec3_scan import DOMAIN_SEED, domain_rng, scan_domain, scan_tld
from repro.scanner.resolver_scan import ResolverSurvey, SurveyRetryPolicy
from repro.testbed.internet import BuildScope, build_internet
from repro.testbed.population import Population, generate_tlds, scaled_config
from repro.testbed.resolvers import deploy_resolvers
from repro.testbed.rfc9276_wild import build_probe_zones

#: What each role's world carries beyond the testbed:
#: (probe zones, scan engine, resolver deployment).
ROLE_PARTS = {
    "study": (True, True, True),
    "scan": (False, True, False),
    "survey": (True, False, True),
    "trace": (True, False, False),
    "attack": (False, False, False),
}


def deployment_counts(resolvers):
    """The resolver-survey deployment mix for ``--resolvers N``."""
    return {
        "open_v4": resolvers,
        "open_v6": max(2, resolvers // 4),
        "closed_v4": max(2, resolvers // 5),
        "closed_v6": max(1, resolvers // 8),
    }


class UnitUniverse:
    """Index-addressed view of the campaign's global unit list.

    The canonical order is domains, then TLD audits, then resolver
    probes; unit *i* resolves on demand from the deterministic
    population stream instead of a materialised list. A worker walks its
    round-robin shard as the (start=shard, stride=workers) sub-stream,
    so neither it nor the single-process run ever holds the list.
    """

    def __init__(self, plan):
        __, with_engine, with_deployment = ROLE_PARTS[plan.role]
        config = scaled_config(plan.domains, plan.tlds)
        self.tld_specs = generate_tlds(config)
        self.population = Population(config, tlds=self.tld_specs)
        self.n_domain_units = len(self.population) if with_engine else 0
        self.n_tld_units = len(self.tld_specs) if plan.role == "study" else 0
        self.n_resolver_units = (
            sum(deployment_counts(plan.resolvers).values()) if with_deployment else 0
        )

    def __len__(self):
        return self.n_domain_units + self.n_tld_units + self.n_resolver_units

    def unit_at(self, index):
        """The ``(kind, name)`` unit at global *index*."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index < self.n_domain_units:
            return ("d", self.population.spec_at(index).name)
        index -= self.n_domain_units
        if index < self.n_tld_units:
            return ("t", self.tld_specs[index].label)
        return ("r", str(index - self.n_tld_units))

    def iter_shard(self, start, stride=1):
        """Lazily yield the units at ``start, start+stride, ...``."""
        for index in range(start, len(self), stride):
            yield self.unit_at(index)

    def shard_size(self, shard, workers):
        """How many units the (shard, workers) sub-stream yields."""
        return max(0, (len(self) - shard + workers - 1) // workers)

    def __iter__(self):
        return self.iter_shard(0, 1)


@dataclass
class World:
    """The measured world of one plan: testbed plus campaign actors."""

    role: str
    universe: UnitUniverse
    inet: object
    engine: ScanEngine = None
    deployment: list = None
    survey: ResolverSurvey = None
    atlas: AtlasCampaign = None


def build_world(plan, shard=None, progress=None):
    """Build the world *plan* measures, in the one allocation order.

    Testbed, probe zones, the ``cli-upstream`` resolver, the engine
    source address, the resolver deployment, the survey source address
    — each only if the role needs it, but always in this order, so every
    process agrees on every address. The plan's network faults go live
    after the build (the weather hits the measurement, not zone
    signing), and with faults the campaigns harden themselves: per-target
    retries, a stability-checking retry policy, a circuit breaker.

    The single-process run (*shard* None) builds the whole testbed and
    reports it on stderr. A fleet worker passes its *shard* for a
    scoped, silent build (TLD signing deferred to first use, its own SLD
    zones pre-warmed) and a *progress* tick per signed zone.
    """
    with_probes, with_engine, with_deployment = ROLE_PARTS[plan.role]
    universe = UnitUniverse(plan)
    started = time.perf_counter()
    # SLD zones materialise lazily on first authoritative query, bounded
    # by an LRU — the same wire behaviour as an eager build in bounded
    # memory.
    inet = build_internet(
        universe.population,
        universe.tld_specs,
        seed=plan.seed,
        lazy_domains=True,
        build_scope=None if shard is None else BuildScope(shard, plan.workers),
        progress=progress,
    )
    # Claim the tracer clock for this run's kernel: later Network
    # constructions can no longer silently rebind it.
    inet.network.kernel.bind_obs()
    world = World(plan.role, universe, inet)
    probes = build_probe_zones(inet) if with_probes else None
    if shard is None:
        print(
            f"[testbed] {len(universe.population)} domains, "
            f"{len(universe.tld_specs)} TLDs "
            f"({time.perf_counter() - started:.1f}s)",
            file=sys.stderr,
        )
    chaos = bool(plan.faults)
    if chaos:
        faults = parse_fault_spec(plan.faults, seed=plan.seed)
        inet.network.set_faults(faults)
        if shard is None:
            kinds = ", ".join(type(m).__name__ for m in faults.models) or "none"
            print(f"[chaos] fault plan active ({kinds})", file=sys.stderr)
    if with_engine:
        upstream = inet.make_resolver(
            VENDOR_POLICIES["cloudflare"], name="cli-upstream"
        )
        world.engine = ScanEngine(
            inet.network,
            inet.allocator.next_v4(),
            upstream.ip,
            max_qps=14_700,
            # Under faults, spend extra attempts per target so the
            # headline numbers converge to the clean run's.
            retries=2 if chaos else 1,
            target_retries=3 if chaos else 0,
            concurrency=plan.concurrency,
            # Spread the in-flight window over a small scanner fleet,
            # like the paper's zdns deployment.
            shards=min(max(1, plan.concurrency), 8),
        )
    if with_deployment:
        world.deployment = deploy_resolvers(
            inet, seed=plan.seed, **deployment_counts(plan.resolvers)
        )
        policy = SurveyRetryPolicy(require_stable=True) if chaos else None
        world.survey = ResolverSurvey(
            inet.network,
            probes,
            inet.allocator.next_v4(),
            retry_policy=policy,
            concurrency=plan.concurrency,
        )
        world.atlas = AtlasCampaign(
            inet.network,
            probes,
            retry_policy=policy,
            concurrency=plan.concurrency,
        )
    return world


class UnitRunner:
    """Executes campaign units against a :class:`World`.

    :meth:`run` takes any ordered sub-stream of the global unit list —
    all of it, or one shard — and yields ``(unit, result)``: a
    :class:`~repro.scanner.nsec3_scan.DomainScanResult` for domains (None
    when the DNSKEY gate finds no DNSSEC) and TLDs, a
    :class:`~repro.scanner.resolver_scan.SurveyEntry` for resolvers (None
    when a closed resolver is outside the Atlas budget).

    Units run in stages — domains, TLDs, open resolvers, closed
    resolvers — and the runner settles each stage before the next
    starts: it drains the in-flight window, and after the open resolvers
    it runs the survey's end-of-campaign requeue, whose results come out
    at that point. That is the inline query order of the paper's
    pipelines, so one runner over the whole list issues exactly the
    queries the separate campaigns would.
    """

    def __init__(self, world):
        self.world = world
        self.tld_specs = {spec.label: spec for spec in world.universe.tld_specs}
        self.atlas_budget = frozenset()
        if world.atlas is not None:
            self.atlas_budget = frozenset(
                index for index, __ in world.atlas.eligible(world.deployment)
            )

    def run(self, units, noted=None):
        """Yield ``(unit, result)`` for every unit of *units*.

        *noted* is passed to the survey's
        :meth:`~repro.scanner.resolver_scan.ResolverSurvey.visit` and
        :meth:`~repro.scanner.resolver_scan.ResolverSurvey.requeue`.
        """
        world = self.world
        stage, deferred = None, []
        for unit in units:
            next_stage = self._stage(unit)
            if next_stage != stage:
                yield from self._settle(stage, deferred, noted)
                self._enter(next_stage)
                stage = next_stage
            kind, name = unit
            if kind == "d":
                yield unit, self._domain(name)
            elif kind == "t":
                yield unit, scan_tld(world.engine, self.tld_specs[name])
            elif stage == "closed":
                index = int(name)
                if index not in self.atlas_budget:
                    yield unit, None
                else:
                    yield unit, world.atlas.visit(index, world.deployment[index])
            else:
                index = int(name)
                entry = world.survey.visit(
                    index, world.deployment[index], deferred, noted
                )
                if entry is not None:
                    yield unit, entry
        yield from self._settle(stage, deferred, noted)

    def _stage(self, unit):
        kind, name = unit
        if kind != "r":
            return kind
        return self.world.deployment[int(name)].access

    def _enter(self, stage):
        console = obs.console
        if console is None:
            return
        if stage == "d" and self.world.role == "study":
            console.phase("study:domains")
        elif stage == "open":
            if self.world.role == "study":
                console.phase("study:survey")
            console.expect(len(self.world.deployment))

    def _settle(self, stage, deferred, noted):
        """Finish *stage*: drain its window (requeueing after open
        resolvers) and yield each late result as it settles."""
        if stage in ("d", "t"):
            self.world.engine.drain()
        elif stage == "closed":
            self.world.atlas.executor.drain()
        elif stage == "open":
            for index, entry in self.world.survey.requeue(deferred, noted):
                yield ("r", str(index)), entry
            deferred.clear()

    def _domain(self, name):
        engine = self.world.engine
        if not dnssec_enabled(engine, name):
            return None
        return scan_domain(engine, name, domain_rng(DOMAIN_SEED, name))


def fold(aggregates, unit, result):
    """Fold one unit's result into :class:`~repro.core.report.StudyAggregates`."""
    if result is None:
        return
    kind = unit[0]
    if kind == "d":
        aggregates.update_domain(result)
    elif kind == "t":
        aggregates.update_tld(result)
    else:
        aggregates.update_survey(result)
