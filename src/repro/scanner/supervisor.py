"""Crash-safe multi-process campaign supervision.

The kernel-equivalence guarantee (reports are byte-identical at any
concurrency) is exactly the property that lets a campaign shard across
OS processes: each worker rebuilds the full deterministic world from
the plan with :func:`~repro.scanner.units.build_world` and runs only
its shard of the global unit list through the same
:class:`~repro.scanner.units.UnitRunner` the single-process run uses,
so the union of shard outputs — folded in global unit order through the
same report aggregates — is byte-identical to the single-process run.
What this module adds is surviving the part where workers die.

Pieces:

- :class:`~repro.scanner.units.UnitUniverse` — the global, ordered
  unit list (domains, TLD audits, resolver probes) derived purely from
  the plan, identically in the supervisor and in every worker. Units
  are dealt round-robin to shards, preserving **global indices** so
  cache-busting probe labels (``r{index}``, ``atlas{index}``) match the
  single-process run. Nobody materialises the list: each worker walks
  its (start=shard, stride=workers) sub-stream on demand.
- :func:`worker_main` — the spawn entry point: builds its world, runs
  its shard's units, journals each result as a ``study-units/1`` record
  in a per-shard :class:`~repro.scanner.campaign.CampaignCheckpoint`
  (the durable CRC32-framed journal), heartbeats progress, and writes a
  done-file (stats + metrics snapshot) on completion. A seeded
  :class:`~repro.net.faults.ProcessKill` directive makes it SIGKILL or
  hang itself mid-campaign — tearing its own journal tail on the way
  out, so restarts exercise the real recovery path.
- :func:`run_supervised` — the fleet loop: wall-clock watchdog over
  heartbeat files, bounded restart-with-backoff of crashed/hung/killed
  workers (each restart resumes from the shard journal with zero
  duplicate queries for every journaled unit), lame-shard quarantine
  past the restart budget, and the deterministic merge: shard records
  decoded and folded in global unit order, metrics via
  ``MetricsRegistry.merge``/``from_json``, plus explicit coverage
  accounting when quarantine degraded the run.

Byte-identity is guaranteed for clean-network runs (``kill:`` faults
included — they never touch a datagram). Network-weather chaos is
supported under ``--workers`` too, but each worker draws its own fault
streams, so those runs converge statistically rather than
byte-for-byte — same as any two chaos seeds.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import fastpath, obs
from repro.core.report import StudyAggregates
from repro.core.zone_compliance import Nsec3Observation, check_zone_compliance
from repro.net.faults import parse_fault_spec
from repro.net.procpool import Watchdog, WorkerHandle, backoff_delay
from repro.scanner.atlas import AtlasCampaign
from repro.scanner.campaign import CampaignCheckpoint, CampaignError
from repro.scanner.nsec3_scan import DomainScanResult
from repro.scanner.resolver_scan import (
    ResolverSurvey,
    matrix_from_record,
    matrix_to_record,
    survey_entry,
)
from repro.scanner.units import (  # noqa: F401 - deployment_counts re-exported
    UnitRunner,
    UnitUniverse,
    build_world,
    deployment_counts,
    fold,
)

#: Record-schema tag of the per-shard unit checkpoints.
WORKER_SCHEMA = "study-units/1"


# -- the campaign plan -------------------------------------------------------


@dataclass(frozen=True)
class CampaignPlan:
    """Everything a worker needs to rebuild its world and find its shard.

    Plain values only: the plan crosses the spawn boundary as a dict.
    ``faults`` is the *network-weather* spec (kill tokens stripped);
    ``kill`` carries the extracted ProcessKill parameters.
    """

    role: str                 # a key of repro.scanner.units.ROLE_PARTS
    domains: int
    tlds: int
    resolvers: int
    seed: int
    workers: int
    state_dir: str
    concurrency: int = 1
    faults: str = None
    kill: tuple = None        # (rate, max_kills, hang_rate, seed)
    collect_metrics: bool = False
    discard_checkpoint: bool = False
    stall_timeout_s: float = 60.0
    max_restarts: int = 3
    restart_backoff_s: float = 0.25
    flush_every: int = 20
    poll_interval_s: float = 0.05

    @classmethod
    def from_args(cls, args, role):
        """Build a plan from the CLI namespace (``survey`` caps the
        domain build at 20; commands without fleet flags get one worker)."""
        domains = args.domains
        if role == "survey":
            domains = min(domains, 20)
        network_spec, kills = split_fault_spec(
            getattr(args, "faults", None), seed=args.seed
        )
        kill = None
        if kills:
            model = kills[0]
            kill = (model.rate, model.max_kills, model.hang_rate, model.seed)
        return cls(
            role=role,
            domains=domains,
            tlds=args.tlds,
            resolvers=getattr(args, "resolvers", 0) or 0,
            seed=args.seed,
            workers=getattr(args, "workers", 1),
            state_dir=getattr(args, "state_dir", None),
            concurrency=getattr(args, "concurrency", 1),
            faults=network_spec,
            kill=kill,
            collect_metrics=getattr(args, "metrics_out", None) is not None,
            discard_checkpoint=getattr(args, "discard_checkpoint", False),
            stall_timeout_s=getattr(args, "stall_timeout", 60.0),
            max_restarts=getattr(args, "max_restarts", 3),
        )

    def to_dict(self):
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }


def split_fault_spec(spec, seed=0):
    """Split ``--faults`` into (network spec or None, [ProcessKill...]).

    Workers receive only the network-weather tokens: a ``kill``-only
    spec must leave the simulated network bit-for-bit untouched, so the
    supervised run stays byte-identical to the clean single-process one.
    """
    if not spec:
        return None, []
    plan = parse_fault_spec(spec, seed=seed)
    kills = plan.process_faults()
    if not kills:
        return spec, []
    tokens = [
        token.strip()
        for token in spec.split(",")
        if token.strip() and token.strip().split(":")[0] != "kill"
    ]
    return (",".join(tokens) or None), kills


def unit_key(unit):
    kind, name = unit
    return f"{kind}/{name}"


# -- shard-local file layout -------------------------------------------------


def _checkpoint_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.ckpt")


def _heartbeat_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.hb")


def _done_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.done.json")


def _error_path(state_dir, shard):
    return os.path.join(state_dir, f"shard-{shard}.err")


# -- unit record codecs ------------------------------------------------------


def observation_to_record(observation):
    """A :class:`Nsec3Observation` as a JSON-able checkpoint record."""
    return {
        "domain": observation.domain,
        "params": [
            [a, i, s.hex()] for a, i, s in observation.nsec3param_records
        ],
        "nsec3": [[a, i, s.hex()] for a, i, s in observation.nsec3_records],
        "optout": observation.opt_out_seen,
        "delegations": observation.delegation_count,
        "open": observation.zone_published_openly,
    }


def observation_from_record(record):
    try:
        return Nsec3Observation(
            domain=record["domain"],
            dnssec_enabled=True,
            nsec3param_records=tuple(
                (a, i, bytes.fromhex(s)) for a, i, s in record["params"]
            ),
            nsec3_records=tuple(
                (a, i, bytes.fromhex(s)) for a, i, s in record["nsec3"]
            ),
            opt_out_seen=record["optout"],
            delegation_count=record["delegations"],
            zone_published_openly=record["open"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignError(
            f"shard checkpoint record is not an NSEC3 observation "
            f"({exc!r}); the state directory is stale or foreign — "
            "re-run with --discard-checkpoint (or a fresh --state-dir)"
        ) from None


@dataclass
class _MergedResolver:
    """Stand-in for DeployedResolver in decoded survey entries."""

    ip: str
    access: str


def result_to_record(unit, result):
    """One :class:`~repro.scanner.units.UnitRunner` result as a
    ``study-units/1`` record."""
    if unit[0] != "r":
        if result is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "obs": observation_to_record(result.observation),
            "ns": list(result.ns_targets),
            "denial": result.denial,
        }
    if result is None:
        return {"skip": True}
    record = {
        "access": result.resolver.access,
        "ip": result.resolver.ip,
        "matrix": matrix_to_record(result.matrix),
        "healthy": not result.degraded,
    }
    if result.requeued:
        record["requeued"] = True
    if result.degraded:
        record["degraded"] = True
    return record


def result_from_record(unit, record):
    """Inverse of :func:`result_to_record` (survey entries re-classify
    their matrix, which is a pure function of it)."""
    kind, name = unit
    if kind != "r":
        if not record.get("enabled"):
            return None
        observation = observation_from_record(record["obs"])
        return DomainScanResult(
            domain=name,
            observation=observation,
            report=check_zone_compliance(observation),
            ns_targets=tuple(record["ns"]),
            denial=record["denial"],
        )
    if record.get("skip"):
        return None
    if not record.get("degraded"):
        note = None
    elif record["access"] == "closed":
        note = AtlasCampaign.DEGRADED_NOTE
    else:
        note = ResolverSurvey.DEGRADED_NOTE
    return survey_entry(
        _MergedResolver(ip=record["ip"], access=record["access"]),
        matrix_from_record(record["matrix"]),
        degraded_note=note,
        requeued=bool(record.get("requeued")),
    )


# -- the worker --------------------------------------------------------------


class OperatorShutdown(Exception):
    """Raised at a unit boundary after a SIGTERM/SIGINT reached the worker.

    By the time this propagates, the checkpoint journal is flushed and a
    final ``phase="terminated"`` heartbeat is on disk — the supervisor
    reads that phase and treats the exit as an operator decision rather
    than a crash to restart.
    """

    def __init__(self, signum):
        super().__init__(f"operator shutdown (signal {signum})")
        self.signum = signum


class _ShutdownFlag:
    """Deferred SIGTERM/SIGINT handling for the worker's unit loop.

    The signal handler only records the signum — no journal writes from
    handler context, where a frame could be half-written. The unit loop
    calls :meth:`check` at unit boundaries: flush the journal, write the
    final heartbeat, and unwind via :class:`OperatorShutdown`, so an
    operator ``kill`` is indistinguishable from a clean finish as far as
    checkpoint integrity goes.
    """

    def __init__(self, checkpoint, heartbeat):
        self.checkpoint = checkpoint
        self.heartbeat = heartbeat
        self.signum = None

    def install(self):
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, self._handle)
            except ValueError:
                return  # not the main thread (in-process tests drive us)

    def _handle(self, signum, frame):
        self.signum = signum

    def check(self):
        if self.signum is None:
            return
        self.checkpoint.flush()
        self.heartbeat.advance(phase="terminated")
        self.heartbeat.stop()
        raise OperatorShutdown(self.signum)


class _KillSwitch:
    """Worker-side seeded fault: SIGKILL/hang after N completed units.

    On a kill it first appends half a frame header to its own journal —
    the torn write a real mid-``write()`` SIGKILL produces — so every
    restart exercises truncate-to-last-good-frame recovery for real.
    """

    def __init__(self, directive, checkpoint):
        self.directive = directive
        self.checkpoint = checkpoint

    def after_unit(self, units_done):
        if self.directive is None:
            return
        if units_done <= self.directive["after_units"]:
            return
        if self.directive["action"] == "hang":
            while True:  # heartbeats continue; progress does not
                time.sleep(3600)
        self.checkpoint.flush()
        with open(self.checkpoint.journal_path, "ab") as handle:
            handle.write(b"\x2a\x00\x00")  # torn frame header
            handle.flush()
            os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)


def _atomic_json(path, payload):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def worker_main(spec):
    """Spawn entry point for one shard attempt. Never raises: campaign
    errors land in the shard's ``.err`` file and a nonzero exit."""
    try:
        _worker_run(spec)
    except OperatorShutdown as stop:
        # Clean operator-initiated exit: journal flushed and final
        # heartbeat written before the raise; no .err file, and the
        # conventional 128+signum exit code.
        os._exit(128 + stop.signum)
    except BaseException:
        try:
            with open(spec["error_path"], "w", encoding="utf-8") as handle:
                handle.write(traceback.format_exc())
        except OSError:
            pass
        os._exit(3)


def _worker_run(spec):
    from repro.net.procpool import HeartbeatWriter
    from repro.zone import build_cache, signing

    plan = CampaignPlan(**spec["plan"])
    shard = spec["shard"]
    attempt = spec["attempt"]
    if spec.get("fastpath_disable"):
        fastpath.disable(spec["fastpath_disable"])
    # Every worker (and restart) shares one signed-zone build cache
    # under the campaign's state dir: the first process to need a zone
    # signs it, the rest load the artifacts. --disable-fastpath
    # build_cache makes active() return None, forcing cold rebuilds.
    build_cache.activate(os.path.join(plan.state_dir, "build-cache"))
    build_start = time.perf_counter()
    build_start_cpu = time.process_time()
    if plan.collect_metrics:
        obs.enable()

    heartbeat = HeartbeatWriter(spec["heartbeat_path"], attempt)
    heartbeat.start(phase="build")
    # Every completed sign_zone — eager infra, probe zones, lazy SLD
    # materialisations, warm-pass entries — ticks build progress so the
    # watchdog can tell a slow cold build from a hung one.
    signing.zone_signed_listener = lambda zone: heartbeat.tick_built()
    checkpoint = CampaignCheckpoint(
        spec["checkpoint_path"],
        flush_every=plan.flush_every,
        schema=WORKER_SCHEMA,
        discard=plan.discard_checkpoint,
    )
    killer = _KillSwitch(spec.get("directive"), checkpoint)
    shutdown = _ShutdownFlag(checkpoint, heartbeat)
    shutdown.install()

    # The identical world every other worker (and the single-process
    # run) builds, whichever units this shard happens to own.
    world = build_world(plan, shard=shard, progress=heartbeat.tick_built)
    universe = world.universe
    measure_start = time.perf_counter()
    measure_start_cpu = time.process_time()

    phase_of = {"d": "scan", "t": "tlds", "r": "survey"}
    done = resumed = executed = 0

    def pending():
        # This shard's sub-stream minus what the journal already holds:
        # a restart re-issues no query for a journaled unit.
        nonlocal done, resumed
        for unit in universe.iter_shard(shard, plan.workers):
            if checkpoint.done(unit_key(unit)):
                done += 1
                resumed += 1
                heartbeat.advance(units_done=done)
                shutdown.check()
                continue
            heartbeat.advance(phase=phase_of[unit[0]])
            yield unit

    def noted(index, deployed, tag):
        # Quarantine/requeue counts are idempotent per unit key across
        # resumes: the notes are journaled with the checkpoint.
        return checkpoint.note(unit_key(("r", str(index))), tag)

    for unit, result in UnitRunner(world).run(pending(), noted=noted):
        checkpoint.record(unit_key(unit), result_to_record(unit, result))
        done += 1
        executed += 1
        heartbeat.advance(units_done=done)
        killer.after_unit(done)
        shutdown.check()

    checkpoint.flush()
    checkpoint.compact()
    heartbeat.advance(phase="finalize")

    kernel = world.inet.network.kernel
    report = {
        "shard": shard,
        "attempt": attempt,
        "units": universe.shard_size(shard, plan.workers),
        "resumed": resumed,
        "executed": executed,
        "clock_ms": kernel.now,
        "events": kernel.events_run,
        "queries": world.engine.stats.queries if world.engine is not None else 0,
        "build_seconds": round(measure_start - build_start, 3),
        "measure_seconds": round(time.perf_counter() - measure_start, 3),
        # CPU time is immune to sibling-worker contention: the fleet's
        # wall-clock floor with one core per worker.
        "build_cpu_seconds": round(measure_start_cpu - build_start_cpu, 3),
        "measure_cpu_seconds": round(time.process_time() - measure_start_cpu, 3),
        "built": heartbeat.built,
        "build_cache": (
            dict(build_cache.handle().events)
            if build_cache.handle() is not None
            else None
        ),
        "metrics": obs.registry.to_json() if obs.enabled else None,
    }
    _atomic_json(spec["done_path"], report)
    heartbeat.advance(phase="done")
    heartbeat.stop()
    signing.zone_signed_listener = None


# -- the supervisor ----------------------------------------------------------


@dataclass
class Coverage:
    """What fraction of the campaign the merged report actually covers."""

    units_total: int
    units_merged: int = 0
    #: Unit keys no surviving shard delivered (quarantined shards).
    missing: list = field(default_factory=list)
    #: Shards that exceeded their restart budget.
    lame_shards: list = field(default_factory=list)
    #: Shards stopped cleanly by an operator signal (journal flushed).
    stopped_shards: list = field(default_factory=list)

    @property
    def complete(self):
        return not self.missing and not self.lame_shards


@dataclass
class SupervisedOutcome:
    """Deterministically merged shard outputs plus fleet accounting."""

    #: The shard records folded in global unit order.
    aggregates: StudyAggregates
    total_domains: int
    coverage: Coverage
    shard_reports: list = field(default_factory=list)


class _ShardState:
    def __init__(self, shard, units_assigned):
        self.shard = shard
        self.units_assigned = units_assigned
        self.attempt = 0
        self.status = "pending"      # pending | running | done | lame | stopped
        self.handle = None
        self.next_start_t = 0.0
        self.watchdog = None


def _log(message):
    print(f"[supervisor] {message}", file=sys.stderr)


def _supervisor_counter(name, help_text, **labels):
    if not obs.enabled:
        return
    labelnames = tuple(sorted(labels))
    family = obs.registry.counter(name, help_text, labelnames=labelnames)
    (family.labels(**labels) if labelnames else family).inc()


def run_supervised(plan):
    """Run the campaign across a supervised worker fleet; returns a
    :class:`SupervisedOutcome` with deterministically merged results."""
    if plan.workers < 2:
        raise ValueError("run_supervised needs workers >= 2")
    os.makedirs(plan.state_dir, exist_ok=True)
    universe = UnitUniverse(plan)
    if plan.collect_metrics:
        obs.enable()

    kill_model = None
    if plan.kill is not None:
        from repro.net.faults import ProcessKill

        rate, max_kills, hang_rate, kill_seed = plan.kill
        kill_model = ProcessKill(
            rate=rate, max_kills=max_kills, hang_rate=hang_rate, seed=kill_seed
        )

    shards = [
        _ShardState(shard, universe.shard_size(shard, plan.workers))
        for shard in range(plan.workers)
    ]
    for state in shards:
        # Stale done/error files from an earlier run must not mask a
        # shard that still has work (its checkpoint holds the progress).
        for path in (
            _done_path(plan.state_dir, state.shard),
            _error_path(plan.state_dir, state.shard),
        ):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    restarts = heartbeat_timeouts = 0
    plan_dict = plan.to_dict()

    def launch(state):
        directive = None
        if kill_model is not None:
            action, after_units = kill_model.decide(
                state.shard, state.attempt, state.units_assigned
            )
            if action is not None:
                directive = {"action": action, "after_units": after_units}
        spec = {
            "plan": plan_dict,
            "shard": state.shard,
            "attempt": state.attempt,
            "checkpoint_path": _checkpoint_path(plan.state_dir, state.shard),
            "heartbeat_path": _heartbeat_path(plan.state_dir, state.shard),
            "done_path": _done_path(plan.state_dir, state.shard),
            "error_path": _error_path(plan.state_dir, state.shard),
            "directive": directive,
            # Spawned workers start a fresh interpreter whose fastpath
            # state comes from the environment alone — ship the
            # parent's programmatic disables so --disable-fastpath
            # governs the whole fleet.
            "fastpath_disable": ",".join(fastpath.disabled_names()),
        }
        state.handle = WorkerHandle(worker_main, spec, spec["heartbeat_path"])
        state.watchdog = Watchdog(plan.stall_timeout_s)
        state.status = "running"
        state.handle.start()
        _log(
            f"shard {state.shard} attempt {state.attempt} started "
            f"(pid {state.handle.pid}, {state.units_assigned} units"
            + (f", directive={directive['action']}" if directive else "")
            + ")"
        )

    def quarantine_or_restart(state, reason):
        nonlocal restarts
        if state.attempt + 1 > plan.max_restarts:
            state.status = "lame"
            _supervisor_counter(
                "repro_supervisor_lame_shards_total",
                "Shards quarantined after exhausting their restart budget.",
            )
            error_tail = ""
            try:
                with open(
                    _error_path(plan.state_dir, state.shard),
                    encoding="utf-8",
                ) as handle:
                    error_tail = handle.read().strip().splitlines()[-1]
            except (OSError, IndexError):
                pass
            _log(
                f"shard {state.shard} quarantined after "
                f"{state.attempt + 1} attempts ({reason})"
                + (f": {error_tail}" if error_tail else "")
            )
            return
        state.attempt += 1
        restarts += 1
        _supervisor_counter(
            "repro_supervisor_restarts_total",
            "Worker restarts performed by the campaign supervisor.",
            shard=str(state.shard),
        )
        delay = backoff_delay(state.attempt, plan.restart_backoff_s)
        state.next_start_t = time.time() + delay
        state.status = "pending"
        _log(
            f"shard {state.shard} died ({reason}); restart "
            f"attempt {state.attempt} in {delay:.2f}s "
            "(resuming from its journal)"
        )

    for state in shards:
        launch(state)
    if obs.enabled:
        obs.registry.gauge(
            "repro_supervisor_workers",
            "Worker shard count of the supervised campaign.",
        ).set(plan.workers)

    last_progress_line = (0, 0.0)
    while True:
        running = [s for s in shards if s.status == "running"]
        pending = [s for s in shards if s.status == "pending"]
        if not running and not pending:
            break
        now = time.time()
        for state in pending:
            if now >= state.next_start_t:
                launch(state)
        units_live = 0
        for state in running:
            handle = state.handle
            if not handle.is_alive():
                handle.join()
                exitcode = handle.exitcode
                if os.path.exists(_done_path(plan.state_dir, state.shard)):
                    state.status = "done"
                    _log(
                        f"shard {state.shard} done "
                        f"(attempt {state.attempt}, exit {exitcode})"
                    )
                else:
                    beat = handle.heartbeat()
                    if (
                        beat is not None
                        and beat.attempt == state.attempt
                        and beat.phase == "terminated"
                    ):
                        # Operator SIGTERM/SIGINT: the worker flushed its
                        # journal and said goodbye — an intentional stop,
                        # not a crash to restart.
                        state.status = "stopped"
                        _log(
                            f"shard {state.shard} stopped by operator "
                            f"signal (exit {exitcode}); journal flushed, "
                            "not restarting"
                        )
                    else:
                        quarantine_or_restart(state, f"exit {exitcode}")
                continue
            beat = handle.heartbeat()
            state.watchdog.observe(beat)
            if beat is not None and beat.attempt == state.attempt:
                units_live += beat.units_done
            if state.watchdog.stalled():
                heartbeat_timeouts += 1
                _supervisor_counter(
                    "repro_supervisor_heartbeat_timeouts_total",
                    "Workers killed by the supervisor's stall watchdog.",
                )
                handle.kill()
                handle.join()
                quarantine_or_restart(state, "heartbeat stalled")
        done_units = sum(
            s.units_assigned for s in shards if s.status == "done"
        )
        progress = done_units + units_live
        if (
            progress != last_progress_line[0]
            and now - last_progress_line[1] >= 1.0
        ):
            finished = sum(1 for s in shards if s.status == "done")
            _log(
                f"{finished}/{plan.workers} shards done, "
                f"units {min(progress, len(universe))}/{len(universe)}"
            )
            last_progress_line = (progress, now)
        time.sleep(plan.poll_interval_s)

    outcome = merge_shards(plan, universe, universe.population, shards)
    if not outcome.coverage.complete:
        coverage = outcome.coverage
        _log(
            f"WARNING: partial coverage {coverage.units_merged}/"
            f"{coverage.units_total} units; lame shards "
            f"{coverage.lame_shards}; first missing "
            f"{coverage.missing[:5]}"
        )
    _log(
        f"fleet finished: workers={plan.workers} restarts={restarts} "
        f"heartbeat_timeouts={heartbeat_timeouts} "
        f"coverage={outcome.coverage.units_merged}/"
        f"{outcome.coverage.units_total}"
    )
    return outcome


def read_shard_records(state_dir, shards):
    """Every unit record the shard checkpoints under *state_dir* hold,
    by unit key. Unreadable checkpoints contribute nothing."""
    records = {}
    for shard in shards:
        try:
            checkpoint = CampaignCheckpoint(
                _checkpoint_path(state_dir, shard), schema=WORKER_SCHEMA
            )
        except CampaignError:
            continue  # nothing salvageable from this shard
        for key in checkpoint.keys():
            records[key] = checkpoint.get(key)
    return records


def merge_shards(plan, units, domain_specs, shards):
    """Deterministic merge of shard checkpoints, in global unit order.

    Each record is decoded to the result object the runner produced and
    folded through the same :class:`StudyAggregates` the single-process
    run folds into. Shards that died keep whatever their journal
    salvaged, so quarantined shards degrade the merge to a partial
    report with explicit coverage accounting instead of sinking the
    campaign.
    """
    records = read_shard_records(plan.state_dir, [s.shard for s in shards])
    coverage = Coverage(
        units_total=len(units),
        lame_shards=[s.shard for s in shards if s.status == "lame"],
        stopped_shards=[s.shard for s in shards if s.status == "stopped"],
    )
    aggregates = StudyAggregates()
    for unit in units:
        key = unit_key(unit)
        record = records.get(key)
        if record is None:
            coverage.missing.append(key)
            continue
        coverage.units_merged += 1
        fold(aggregates, unit, result_from_record(unit, record))

    shard_reports = []
    for state in shards:
        try:
            with open(
                _done_path(plan.state_dir, state.shard), encoding="utf-8"
            ) as handle:
                shard_reports.append(json.load(handle))
        except (OSError, ValueError):
            continue
    if plan.collect_metrics:
        _merge_metrics(shard_reports)

    return SupervisedOutcome(
        aggregates=aggregates,
        total_domains=len(domain_specs),
        coverage=coverage,
        shard_reports=shard_reports,
    )


def _merge_metrics(shard_reports):
    """Fold worker metric snapshots into the live registry.

    Uses the PR 6 aggregation contract: counters add, gauges take the
    max, histograms add per-bucket. Metrics from *killed* attempts died
    with their process — the merged snapshot is best-effort telemetry;
    the report itself is exact.
    """
    from repro.obs.metrics import MetricsRegistry

    for report in shard_reports:
        snapshot = report.get("metrics")
        if not snapshot:
            continue
        obs.registry.merge(MetricsRegistry.from_json(snapshot))
