"""Seeded fault-schedule fuzzer for the diskless checkpoint protocol.

Random failure *times* (Poisson injectors) rarely land inside the narrow
windows where checkpoint protocols actually break — the barrier pause,
the exchange, the middle of a rebuild.  This fuzzer aims failures at
exactly those instants: a :class:`FaultSpec` names a protocol *phase*
(``mid_pause``, ``mid_exchange``, ``post_commit``, ``mid_recovery``,
``idle``) and a fractional position inside it, and the trial driver
converts that into a concrete ``kill_node`` at the adversarial moment.

One trial = one seeded schedule driven through ``n_cycles`` checkpoint
epochs of a :class:`~repro.core.dvdc.DisklessCheckpointer` with an
:class:`~repro.audit.auditor.Auditor` attached; every invariant is
swept after each cycle and recovery, strict sweeps plus a bit-exact
comparison against independently snapshotted images run at quiescent
points.  Double failures the single-parity code provably cannot absorb
end the trial as *unrecoverable* — that is the protocol saying no, not a
bug.  Everything else (invariant violation, unexpected exception) fails
the trial, and :func:`shrink` then removes faults one at a time to find
a minimal failing reproducer.

Everything is deterministic in ``seed``: schedules are drawn from
``default_rng([seed, ...])`` streams and the simulator is discrete-
event, so a ``(config, schedule, seed)`` triple replays exactly.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from ..checkpoint.strategies import ForkedCapture, FullCapture, IncrementalCapture
from ..cluster.cluster import ClusterSpec, VirtualCluster
from ..core.architectures import checkpoint_node, dvdc, first_shot
from ..failures.injector import FailureEvent
from ..sim import NULL_TRACER, Simulator, Tracer
from ..telemetry import probe_of
from .auditor import Auditor
from .invariants import FATAL, Violation

__all__ = [
    "PHASES",
    "LAYOUTS",
    "FaultSpec",
    "FuzzConfig",
    "TrialResult",
    "FuzzResult",
    "draw_schedule",
    "canonical_schedule",
    "run_trial",
    "shrink",
    "fuzz",
]

#: protocol phases a fault can target, in within-cycle firing order
PHASES = ("idle", "mid_pause", "mid_exchange", "post_commit", "mid_recovery")

#: fault kinds: ``kill`` is the classic fail-stop crash; ``site`` is the
#: correlated whole-site outage (geo mode only); the rest are transient
#: (see :mod:`repro.resilience.faults`) and only drawn when
#: :attr:`FuzzConfig.transient` is set
KINDS = ("kill", "site", "flap", "degrade", "drop", "corrupt")

#: paper figures the fuzzer knows how to build
LAYOUTS = ("fig1", "fig3", "fig4")

#: RuntimeError messages that mean "legitimately unrecoverable" rather
#: than "bug" — raised by the recovery path when a loss (including crash
#: + silent corruption) exceeds the code's tolerance
_UNRECOVERABLE_MARKERS = (
    "no alive node",
    "no eligible parity node",
    "has no committed checkpoint",
    "silently corrupt",
    # recovery raises "... \u2014 beyond <scheme> tolerance <t>" only when
    # the erasure pattern provably exceeds the active code's tolerance;
    # an RS(k,2) double fault that fails recovery does NOT match and is a bug
    "\u2014 beyond",
)


@dataclass(frozen=True)
class FaultSpec:
    """One adversarially-timed fault.

    ``frac`` positions the fault inside the targeted phase window
    (0 = its start, 1 = its end); ``cycle`` indexes the checkpoint
    cycle the fault belongs to.  ``kind`` defaults to the classic node
    kill; transient kinds carry a ``duration`` (flap/degrade outage
    length, seconds) and ``severity`` (degrade bandwidth factor).
    """

    cycle: int
    phase: str
    node: int
    frac: float
    kind: str = "kill"
    duration: float = 0.5
    severity: float = 0.5

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if not (0.0 <= self.frac <= 1.0):
            raise ValueError(f"frac must be in [0, 1], got {self.frac}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if not (0 < self.severity <= 1):
            raise ValueError(f"severity must be in (0, 1], got {self.severity}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"cycle {self.cycle}: {self.kind} node {self.node} "
            f"at {self.phase}+{self.frac:.2f}"
        )


@dataclass(frozen=True)
class FuzzConfig:
    """Cluster + workload shape for one fuzzing campaign."""

    layout: str = "fig4"
    n_nodes: int = 4
    vms_per_node: int = 3
    n_cycles: int = 4
    max_faults: int = 2
    interval: float = 120.0
    vm_memory: float = 256e6
    image_pages: int = 32
    page_size: int = 128
    heterogeneous: bool = False
    strategy: str = "forked"
    #: widen the fault vocabulary to transient kinds (flap/degrade/drop/
    #: corrupt) and run the checkpointer with a retry policy + scrubber
    transient: bool = False
    #: erasure-coding scheme spec (see :func:`repro.coding.parse_scheme`);
    #: the recoverable-vs-unrecoverable classifier follows its tolerance
    scheme: str = "xor"
    #: >= 2 turns geo mode on: the cluster becomes that many sites on a
    #: :class:`~repro.geo.topology.GeoTopology`, schedules gain ``site``
    #: faults, and the fate-vs-bug classifier goes tolerance-aware
    geo_sites: int = 0
    #: placement policy under geo mode: ``geo-spread`` (site-orthogonal
    #: groups — a site kill is survivable in-tolerance) or ``remus-async``
    #: (local parity + remote copies — a site kill beyond tolerance must
    #: salvage everything its copies covered, or it is a bug)
    geo_policy: str = "geo-spread"

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.n_nodes < 3:
            raise ValueError("fuzzing needs >= 3 nodes")
        if self.geo_sites:
            if self.geo_sites < 2:
                raise ValueError("geo mode needs >= 2 sites")
            if self.layout != "fig4":
                raise ValueError("geo mode requires the fig4 (DVDC) layout")
            if self.geo_policy not in ("geo-spread", "remus-async"):
                raise ValueError(
                    f"geo_policy must be geo-spread or remus-async, "
                    f"got {self.geo_policy!r}"
                )
        from ..coding import parse_scheme

        parse_scheme(self.scheme)  # fail fast on unknown specs


@dataclass
class TrialResult:
    """Outcome of one schedule driven to completion (or to a wall)."""

    seed: int
    config: FuzzConfig
    schedule: tuple[FaultSpec, ...]
    commits: int = 0
    aborts: int = 0
    recoveries: int = 0
    faults_fired: list[FailureEvent] = field(default_factory=list)
    transients_fired: list[FaultSpec] = field(default_factory=list)
    unrecoverable: str | None = None
    violations: list[Violation] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when the trial exposed a bug (never for clean runs or
        legitimately unrecoverable double failures)."""
        return bool(self.violations)


@dataclass
class FuzzResult:
    """Aggregate over a batch of seeds for one config."""

    config: FuzzConfig
    trials: list[TrialResult] = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False

    @property
    def failures(self) -> list[TrialResult]:
        return [t for t in self.trials if t.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def n_violations(self) -> int:
        return sum(len(t.violations) for t in self.trials)


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------
def draw_schedule(rng: np.random.Generator, config: FuzzConfig) -> tuple[FaultSpec, ...]:
    """Draw an adversarial fault schedule.

    Phase choice is uniform (every window gets pressure), node choice is
    uniform, position is kept off the exact window edges.  Up to
    ``max_faults`` faults may share a cycle — that is how back-to-back
    failures (the double-fault torture case) arise.

    With ``config.transient`` the kind is drawn too: kills keep a 40%
    share so the classic crash pressure stays, the rest splits evenly
    across the transient vocabulary.  ``corrupt`` is excluded for the
    incremental strategy — folding an increment into rotten parity is
    (correctly) refused by the protocol, which would stall every later
    epoch of the trial rather than exercise anything new.

    The kind/duration/severity draws happen *after* every base
    (cycle, phase, node, frac) draw, so for any seed the transient
    schedule aims at exactly the instants the classic one does — common
    random numbers across the two vocabularies.
    """
    n = int(rng.integers(0, config.max_faults + 1))
    bases = []
    for _ in range(n):
        cycle = int(rng.integers(0, config.n_cycles))
        phase = PHASES[int(rng.integers(0, len(PHASES)))]
        node = int(rng.integers(0, config.n_nodes))
        frac = float(rng.uniform(0.1, 0.9))
        bases.append((cycle, phase, node, frac))
    faults = []
    for cycle, phase, node, frac in bases:
        kind, duration, severity = "kill", 0.5, 0.5
        if config.transient:
            vocab = ["kill", "flap", "degrade", "drop"]
            if config.strategy != "incremental":
                vocab.append("corrupt")
            weights = [0.4] + [0.6 / (len(vocab) - 1)] * (len(vocab) - 1)
            kind = str(rng.choice(vocab, p=weights))
            duration = float(rng.uniform(0.05, 1.5))
            severity = float(rng.uniform(0.1, 0.9))
        if config.geo_sites:
            # geo draw comes LAST, gated on the mode, so classic (non-geo)
            # streams for the same seed are byte-identical — common random
            # numbers again.  ~30% of kills escalate to whole-site outages.
            if kind == "kill" and float(rng.uniform()) < 0.3:
                kind = "site"
        faults.append(FaultSpec(
            cycle=cycle, phase=phase, node=node, frac=frac,
            kind=kind, duration=duration, severity=severity,
        ))
    faults.sort(key=lambda f: (f.cycle, PHASES.index(f.phase), f.frac, f.node))
    return tuple(faults)


def canonical_schedule(config: FuzzConfig) -> tuple[FaultSpec, ...]:
    """The textbook single-failure case: one mid-interval kill of node 0
    partway through the run — the scenario of the paper's Section VI."""
    return (FaultSpec(cycle=config.n_cycles // 2, phase="idle", node=0, frac=0.5),)


# ----------------------------------------------------------------------
# trial driver
# ----------------------------------------------------------------------
_STRATEGIES = {
    "forked": ForkedCapture,
    "full": FullCapture,
    "incremental": IncrementalCapture,
}


def _build(config: FuzzConfig, seed: int, tracer: Tracer):
    """Deterministically build
    (sim, cluster, checkpointer, auditor, geo, domains, replicator) —
    the last three ``None`` outside geo mode."""
    from ..coding import parse_scheme

    sim = Simulator()
    geo = domains = None
    if config.geo_sites:
        from ..geo import GeoSpec, geo_cluster_spec

        geo = GeoSpec(n_nodes=config.n_nodes, n_sites=config.geo_sites)
        if config.geo_policy == "geo-spread":
            domains = geo.domain_map("site")
        spec = geo_cluster_spec(geo)
    else:
        spec = ClusterSpec(n_nodes=config.n_nodes)
    cluster = VirtualCluster(sim, spec, tracer=tracer)
    content = np.random.default_rng([seed, 0xC0])
    shape = np.random.default_rng([seed, 0x51])
    coding = parse_scheme(config.scheme)
    # fig1 reserves one VM-free node per parity shard; fig3 reserves the
    # dedicated checkpoint node (extra shards rotate over compute nodes);
    # fig4 computes everywhere
    reserve = coding.n_shards if config.layout == "fig1" else 1
    compute_nodes = (
        range(config.n_nodes - reserve) if config.layout in ("fig1", "fig3")
        else range(config.n_nodes)
    )
    per_node = 1 if config.layout == "fig1" else config.vms_per_node
    for node in compute_nodes:
        for _ in range(per_node):
            factor = (
                int(shape.choice([1, 2, 4])) if config.heterogeneous else 1
            )
            vm = cluster.create_vm(
                node,
                config.vm_memory * factor,
                image_pages=config.image_pages * factor,
                page_size=config.page_size,
            )
            vm.image.write(
                0,
                content.integers(
                    0, 256, vm.image.nbytes // 2, dtype=np.uint8
                ),
            )
            vm.image.clear_dirty()
    strategy = _STRATEGIES[config.strategy]()
    retry = retry_rng = None
    if config.transient:
        from ..resilience.retry import RetryPolicy

        # a budget that comfortably outlasts the longest drawn outage
        # (1.5 s): exhaustion stays possible but rare, and when it does
        # happen the protocol must degrade cleanly — that is the test
        retry = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=2.0)
        retry_rng = np.random.default_rng([seed, 0xBE])
    if config.layout == "fig1":
        ck = first_shot(
            cluster, strategy=strategy, tracer=tracer,
            retry=retry, retry_rng=retry_rng, scheme=coding,
        )
    elif config.layout == "fig3":
        ck = checkpoint_node(
            cluster, config.n_nodes - 1, strategy=strategy, tracer=tracer,
            retry=retry, retry_rng=retry_rng, scheme=coding,
        )
    else:
        ck = dvdc(
            cluster, strategy=strategy, tracer=tracer,
            retry=retry, retry_rng=retry_rng, scheme=coding,
            domains=domains,
        )
    replicator = None
    if geo is not None and config.geo_policy == "remus-async":
        from ..geo import RemusAsyncReplicator

        replicator = RemusAsyncReplicator(cluster, geo, ck, tracer=tracer)
    auditor = Auditor(
        cluster, ck.layout, tracer=tracer, scheme=coding, domains=domains,
    )
    ck.attach_auditor(auditor)
    return sim, cluster, ck, auditor, geo, domains, replicator


def run_trial(
    config: FuzzConfig,
    schedule: tuple[FaultSpec, ...],
    seed: int,
    tracer: Tracer = NULL_TRACER,
) -> TrialResult:
    """Drive one schedule through ``n_cycles`` epochs and audit throughout."""
    sim, cluster, ck, auditor, geo, domains, replicator = _build(
        config, seed, tracer
    )
    dirt = np.random.default_rng([seed, 0xD1])
    chaos = np.random.default_rng([seed, 0xCA])  # corruption targeting
    trial = TrialResult(seed=seed, config=config, schedule=schedule)
    expected: dict[int, np.ndarray] = {}
    pending: list[int] = []  # killed nodes awaiting recovery
    scrub = None
    if config.transient:
        from ..resilience.scrubber import Scrubber

        scrub = Scrubber(cluster, ck.layout, tracer=tracer, scheme=ck.scheme)

    def kill(node_id: int) -> None:
        if not cluster.node(node_id).alive:
            return  # already down: the fault is a no-op
        cluster.kill_node(node_id)
        trial.faults_fired.append(
            FailureEvent(time=sim.now, node_id=node_id,
                         ordinal=len(trial.faults_fired))
        )
        pending.append(node_id)

    def fire(f: FaultSpec) -> None:
        if f.kind == "kill":
            kill(f.node)
            return
        if f.kind == "site":
            # correlated outage: every node in the anchor's site goes down
            for nid in geo.nodes_in_site(geo.site_of(f.node)):
                kill(nid)
            return
        trial.transients_fired.append(f)
        topo = cluster.topology
        if f.kind == "flap":
            topo.set_node_links_up(f.node, False)
            sim.schedule(max(f.duration, 1e-9), topo.set_node_links_up, f.node, True)
        elif f.kind == "degrade":
            topo.scale_node_bandwidth(f.node, f.severity)
            sim.schedule(max(f.duration, 1e-9), topo.scale_node_bandwidth, f.node, 1.0)
        elif f.kind == "drop":
            topo.drop_node_flows(f.node)
        elif f.kind == "corrupt":
            from ..resilience.faults import corrupt_node_state

            corrupt_node_state(cluster, f.node, chaos)

    def snapshot_committed() -> None:
        expected.clear()
        for vm in cluster.all_vms:
            if vm.node_id is None:
                continue
            img = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
            if img is not None and img.payload is not None:
                expected[vm.vm_id] = img.payload_flat().copy()

    class Unrecoverable(Exception):
        pass

    def recover_classified(node: int):
        try:
            yield from ck.recover(node)
        except RuntimeError as exc:
            if any(m in str(exc) for m in _UNRECOVERABLE_MARKERS):
                raise Unrecoverable(str(exc)) from exc
            raise
        trial.recoveries += 1

    def salvage_and_converge(cycle: int):
        """Remote-copy salvage of a beyond-tolerance loss (remus-async).

        Tolerance-aware classification: state inside the replication lag
        window (no copy yet) or whose standby also died is *fate*; a VM
        the replicator held a live copy for MUST come back — losing it
        anyway is a bug.  Afterwards repair everything, converge epochs
        with one fresh cycle, and re-baseline the bit-exact snapshots
        (salvaged state legitimately rolled back past them).
        """
        report = yield from replicator.salvage_cluster()
        trial.recoveries += 1
        for vm_id in report.unsalvageable:
            copy = replicator.copies.get(vm_id)
            if copy is not None and cluster.node(copy.node_id).alive:
                trial.violations.append(Violation(
                    "remus-coverage", FATAL, f"vm {vm_id}",
                    "lost despite a live remote copy at epoch "
                    f"{copy.epoch} on node {copy.node_id} — remus-async "
                    "should have covered it after its lag window",
                ))
        for n in cluster.nodes:
            if not n.alive:
                cluster.repair_node(n.node_id)
                if n.node_id in pending:
                    pending.remove(n.node_id)
        still_lost = [
            vm.vm_id for vm in cluster.all_vms if vm.node_id is None
        ]
        if still_lost:
            raise Unrecoverable(
                f"site loss — beyond {ck.scheme.name} tolerance and "
                f"outside the replication window for vms {still_lost}"
            )
        # standby assignment ignores group structure, so salvage can pile
        # several elements of one group onto one node — re-home members
        # (node-granular respread), then let heal() re-place parity
        from ..geo import respread_groups

        yield from respread_groups(
            ck, cluster, geo.domain_map("node"), tracer
        )
        yield from ck.heal()
        expected.clear()
        result = yield from ck.run_cycle()
        if result.committed:
            trial.commits += 1
            snapshot_committed()
            yield from replicator.replicate_epoch()

    def drain(cycle: int, rec_est: float):
        """Recover + repair + heal until no failed node or VM remains.

        A transient outage can starve a rebuild (the retry budget runs
        dry, recovery returns with the VM still down — a classified,
        recoverable outcome).  The stall loop waits the outage out and
        re-runs recovery, bounded so a genuine bug still surfaces as a
        homeless-VM audit violation instead of a hang.
        """
        stalls = 0
        while True:
            if pending:
                node = pending.pop(0)
                for f in schedule:
                    if f.cycle == cycle and f.phase == "mid_recovery":
                        sim.schedule(max(f.frac * rec_est, 1e-9), fire, f)
                if scrub is not None:
                    scrub.scrub_once()
                try:
                    yield from recover_classified(node)
                except Unrecoverable:
                    if replicator is None:
                        raise
                    yield from salvage_and_converge(cycle)
                    continue
                cluster.repair_node(node)
                yield from ck.heal()
                continue
            recovered = all(vm.node_id is not None for vm in cluster.all_vms)
            if recovered or not config.transient or stalls >= 3:
                if (
                    recovered
                    and domains is not None
                    and all(n.alive for n in cluster.nodes)
                ):
                    # geo-spread: recovery during a site outage legally
                    # lands members co-sited; re-home them before the
                    # quiescent strict audit judges the layout per domain
                    from ..geo import respread_groups

                    yield from respread_groups(ck, cluster, domains, tracer)
                    yield from ck.heal()
                return
            stalls += 1
            yield sim.timeout(max(rec_est, 2.0))  # let the outage clear
            if pending:
                continue
            if scrub is not None:
                scrub.scrub_once()
            yield from recover_classified(-1)
            yield from ck.heal()

    def quiescent_audit(where: str) -> None:
        if pending or any(not n.alive for n in cluster.nodes):
            return
        if scrub is not None:
            report = scrub.scrub_once()
            if report.unrepairable:
                # two corruptions in one group (or corruption of the last
                # redundant copy): legitimately beyond single parity
                raise Unrecoverable(
                    f"silent corruption \u2014 beyond {ck.scheme.name} "
                    "tolerance: " + ", ".join(report.unrepairable)
                )
        auditor.run(ck.committed_epoch, context=f"quiescent:{where}", strict=True)
        for vm_id, want in expected.items():
            vm = cluster.vm(vm_id)
            if vm.node_id is None:
                continue
            img = cluster.hypervisor(vm.node_id).committed(vm_id)
            got = img.payload_flat() if img is not None and img.payload is not None else None
            if got is None or not np.array_equal(got, want):
                trial.violations.append(Violation(
                    "bit-exact", FATAL, f"vm {vm_id}",
                    f"committed image at {where} differs from the snapshot "
                    "taken at its commit point",
                ))

    def driver():
        # priming epoch: every trial starts from a committed checkpoint
        prime = yield from ck.run_cycle()
        assert prime.committed
        trial.commits += 1
        snapshot_committed()
        if replicator is not None:
            yield from replicator.replicate_epoch()
        pause_est = max(prime.overhead, 1e-3)
        cycle_est = max(prime.latency, pause_est * 2)
        rec_est = max(cycle_est - pause_est, 1e-3)

        for cycle in range(config.n_cycles):
            # -- dwell: the application runs and dirties memory ----------
            for f in schedule:
                if f.cycle == cycle and f.phase == "idle":
                    sim.schedule(f.frac * config.interval, fire, f)
            for vm in cluster.all_vms:
                if vm.node_id is not None and vm.image is not None:
                    vm.image.touch_pages(
                        dirt.integers(0, vm.image.n_pages, 4), dirt
                    )
            yield sim.timeout(config.interval)
            yield from drain(cycle, rec_est)

            # -- checkpoint, with faults aimed inside its windows --------
            for f in schedule:
                if f.cycle == cycle and f.phase == "mid_pause":
                    sim.schedule(max(f.frac * pause_est, 1e-9), fire, f)
                elif f.cycle == cycle and f.phase == "mid_exchange":
                    sim.schedule(
                        pause_est + f.frac * (cycle_est - pause_est), fire, f
                    )
            result = yield from ck.run_cycle()
            if result.committed:
                trial.commits += 1
                snapshot_committed()
            else:
                trial.aborts += 1
            for f in schedule:
                if f.cycle == cycle and f.phase == "post_commit":
                    fire(f)
            yield from drain(cycle, rec_est)
            quiescent_audit(f"cycle {cycle}")
            if replicator is not None and result.committed:
                # asynchronous ship-out: anything that dies before the
                # NEXT replication pass is inside the lag window (fate)
                yield from replicator.replicate_epoch()

        yield from drain(config.n_cycles, rec_est)
        quiescent_audit("end")

    proc = sim.process(driver())
    sim.run()
    if proc.ok is False:
        exc = proc.value
        if isinstance(exc, Unrecoverable):
            trial.unrecoverable = str(exc)
        else:
            trial.violations.append(Violation(
                "no-crash", FATAL, type(exc).__name__,
                f"trial crashed at t={sim.now:.3f}: {exc}",
            ))
    trial.violations.extend(auditor.violations)
    return trial


# ----------------------------------------------------------------------
# shrinking + campaign loop
# ----------------------------------------------------------------------
def shrink(
    config: FuzzConfig,
    schedule: tuple[FaultSpec, ...],
    seed: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[FaultSpec, ...]:
    """Greedy delta-debugging: repeatedly drop any single fault whose
    removal keeps the trial failing, until the schedule is 1-minimal."""
    current = tuple(schedule)
    progress = True
    while progress and len(current) > 1:
        progress = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if run_trial(config, candidate, seed, tracer).failed:
                current = candidate
                progress = True
                break
    return current


def fuzz(
    config: FuzzConfig,
    seeds: int = 25,
    budget: float | None = None,
    shrink_failing: bool = True,
    tracer: Tracer = NULL_TRACER,
    base_seed: int = 0,
) -> FuzzResult:
    """Run ``seeds`` independent schedules against one config.

    ``budget`` (wall-clock seconds) stops the campaign early — partial
    results are still returned with ``budget_exhausted`` set.  Failing
    schedules are shrunk to minimal reproducers (stored back on the
    trial's ``schedule``; the original stays in ``violations`` context).
    """
    probe = probe_of(tracer)
    out = FuzzResult(config=config)
    t0 = _time.monotonic()
    for i in range(seeds):
        if budget is not None and _time.monotonic() - t0 > budget:
            out.budget_exhausted = True
            break
        seed = base_seed + i
        schedule = draw_schedule(
            np.random.default_rng([seed, 0x5C]), config
        )
        trial = run_trial(config, schedule, seed, tracer)
        probe.count(
            "repro_fuzz_trials_total",
            help="Fault-schedule fuzz trials run",
            layout=config.layout,
            outcome="failed" if trial.failed else (
                "unrecoverable" if trial.unrecoverable else "clean"
            ),
        )
        if trial.failed and shrink_failing and len(trial.schedule) > 1:
            trial.schedule = shrink(config, trial.schedule, seed, tracer)
        out.trials.append(trial)
    out.elapsed = _time.monotonic() - t0
    return out
