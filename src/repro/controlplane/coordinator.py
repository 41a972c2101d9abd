"""The always-on cluster coordinator.

:class:`ControlPlane` is the long-running in-sim daemon that keeps a
DVDC cluster protected without per-experiment wiring, structured like a
PVC-style control plane:

* **keepalive/fencing** — every managed node runs a
  :func:`~repro.controlplane.heartbeat.keepalive_loop`; the monitor
  fences any node silent past ``interval · miss_threshold``.  Crashes
  (from :class:`~repro.failures.injector.FailureInjector` or kill ops)
  and link flaps (from :mod:`repro.resilience.faults`) both silence the
  beat, so one detection path covers both.  A fenced node that is still
  alive (a false positive: long flap, partition) is STONITH'd —
  power-fenced via ``kill_node`` — because an unreachable node must be
  assumed rogue before its VMs are rebuilt elsewhere;
* **recovery pipeline** — fenced nodes queue into a serialized recovery
  worker: protocol :meth:`~repro.core.dvdc.DisklessCheckpointer.recover`,
  then :meth:`~repro.resilience.healing.SelfHealer.reprotect` (spares),
  then a strict audit;
* **checkpoint cadence** — an optional periodic loop drives
  ``run_cycle()`` every ``checkpoint_interval`` sim-seconds, pausing
  while recovery or maintenance holds the protocol lock;
* **API façade** — :meth:`submit` accepts concurrent
  provision/kill/drain/query operations, each driven through the
  PENDING→RUNNING→DONE/FAILED state machine of
  :mod:`repro.controlplane.ops`.

Determinism contract: the control plane draws **no random numbers** and
moves **no network bytes** of its own in the fault-free path, so a run
with the coordinator enabled is bit-identical (checkpoints, parity,
flows, RNG streams) to a coordinator-free run — pinned by the golden
test.  All new telemetry lives under ``repro_controlplane_*``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..audit.invariants import AuditReport, audit_cluster
from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VMState
from ..core.dvdc import DisklessCheckpointer
from ..core.groups import LayoutError, RaidGroup, build_orthogonal_layout
from ..migration.precopy import PrecopyModel
from ..resilience.healing import ClusterHealth, SelfHealer, SparePool
from ..resilience.scrubber import Scrubber
from ..sim import Interrupt, NULL_TRACER, Resource, Tracer
from ..telemetry import probe_of
from .heartbeat import HeartbeatRegistry, KeepalivePolicy, keepalive_loop
from .maintenance import drain_node
from .ops import OP_KINDS, Operation, OpRejected, OpState
from .scheduler import PlacementEngine

__all__ = ["ControlPlane", "ControlPlaneConfig", "AuditFailure"]


class AuditFailure(RuntimeError):
    """A strict post-reconfiguration audit found fatal violations."""


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Tunables of the coordinator daemons."""

    #: keepalive cadence (sim seconds)
    heartbeat_interval: float = 1.0
    #: consecutive silent intervals before a node is fenced
    miss_threshold: int = 3
    #: periodic ``run_cycle()`` cadence; None disables the cycle loop
    checkpoint_interval: float | None = None
    #: node downtime after a STONITH power-fence before it rejoins
    repair_time: float = 30.0
    #: how long a drained node stays down for maintenance by default
    maintenance_seconds: float = 5.0
    #: transient-fault retries for drain migrations/transfers
    drain_retries: int = 3
    drain_retry_wait: float = 0.5
    #: run post-reconfiguration audits in strict mode and raise on
    #: fatal violations
    strict_audit: bool = True
    #: background scrub cadence; None scrubs only before strict audits
    scrub_interval: float | None = None
    #: target size for parity groups formed from provisioned VMs
    group_size: int = 4
    #: erasure tolerance used by the kill-op safety guard; None derives
    #: it from the checkpointer's coding scheme (1 for XOR, m for RS(k,m))
    tolerance: int | None = None


class ControlPlane:
    """Always-on coordinator over a :class:`DisklessCheckpointer`."""

    def __init__(
        self,
        cluster: VirtualCluster,
        checkpointer: DisklessCheckpointer,
        spares: SparePool | None = None,
        config: ControlPlaneConfig | None = None,
        tracer: Tracer = NULL_TRACER,
        precopy_model: PrecopyModel | None = None,
        dirty_model=None,
    ):
        self.cluster = cluster
        self.ck = checkpointer
        self.layout = checkpointer.layout
        self.config = config or ControlPlaneConfig()
        self.tracer = tracer
        self.probe = probe_of(tracer)
        self.policy = KeepalivePolicy(
            self.config.heartbeat_interval, self.config.miss_threshold
        )
        self.registry = HeartbeatRegistry(self.policy)
        self.engine = PlacementEngine(cluster)
        self.spares = spares
        self.healer = SelfHealer(checkpointer, spares, tracer=tracer)
        self.scrubber = Scrubber(
            cluster, self.layout, tracer=tracer, scheme=checkpointer.scheme
        )
        #: drain migrations use this pre-copy model (default: node NIC)
        self.precopy_model = precopy_model
        #: optional WorkloadDirtyModel applied to drain migrations
        self.dirty_model = dirty_model

        #: nodes currently under maintenance (drained or draining)
        self.maintenance: set[int] = set()
        #: nodes fenced and not yet back in service
        self.fenced: set[int] = set()
        # recovery placement inside the checkpointer (parity re-homes,
        # restore targets) must honor the same cordons drain targeting
        # does — otherwise a drain's own parity re-encode can land on a
        # node being drained (see the geo cordon regression test)
        checkpointer.cordons = lambda: self.maintenance | self.fenced
        self.ops: list[Operation] = []
        self.audits: list[AuditReport] = []
        self.recoveries: list = []
        self.migrations: list = []
        self.verified_migrations = 0
        #: vm_ids provisioned but not yet formed into parity groups
        self.pending_protect: list[int] = []

        # one protocol lock serializes cycles, recoveries, and drains —
        # the cluster-state mutations that must not interleave
        self._lock = Resource(cluster.sim, capacity=1)
        self._recovery_queue: list[int] = []
        self._recovery_proc = None
        self._heal_proc = None
        self._recovered_waiters: dict[int, list] = {}
        #: last completed recovery result per node, cleared when the
        #: node fails again — lets late waiters resolve immediately
        self._recovery_results: dict[int, tuple] = {}
        self._procs: list = []
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ControlPlane":
        """Spawn the daemon processes; idempotent."""
        if self._started:
            return self
        self._started = True
        sim = self.cluster.sim
        for node in self.cluster.nodes:
            if node.alive:
                self.registry.enroll(node.node_id, sim.now)
            self._procs.append(sim.process(keepalive_loop(
                self.cluster, node.node_id, self.registry, self.probe,
                self.maintenance,
            )))
        self._procs.append(sim.process(self._monitor_loop()))
        if self.config.checkpoint_interval is not None:
            self._procs.append(sim.process(self._checkpoint_loop()))
        if self.config.scrub_interval is not None:
            self._procs.append(sim.process(self._scrub_loop()))
        self.tracer.emit(sim.now, "controlplane.started",
                         nodes=len(self.registry.last_seen))
        return self

    def stop(self) -> None:
        """Interrupt every daemon loop so the event heap can drain."""
        for proc in self._procs:
            if proc.alive:
                proc.interrupt("controlplane stopped")
        self._procs.clear()
        self._started = False
        self.tracer.emit(self.cluster.sim.now, "controlplane.stopped")

    def attach_injector(self, injector) -> None:
        """Fold a :class:`~repro.failures.injector.FailureInjector` in.

        The subscriber does exactly what a real power event does — kills
        the node and books the repair; *detection* is left entirely to
        the keepalive path, so injected crashes and organic silence are
        handled identically.
        """
        injector.subscribe(self._on_injected_failure)

    def _on_injected_failure(self, ev) -> None:
        node = self.cluster.node(ev.node_id)
        if not node.alive or ev.node_id in self.maintenance:
            return
        self._recovery_results.pop(ev.node_id, None)
        self.cluster.kill_node(ev.node_id)
        self.healer.on_failure()
        self.cluster.sim.schedule(
            self.config.repair_time, self._repair, ev.node_id
        )

    # ------------------------------------------------------------------
    # keepalive monitor + fencing
    # ------------------------------------------------------------------
    def _monitor_loop(self):
        sim = self.cluster.sim
        try:
            while True:
                yield sim.timeout(self.policy.interval)
                now = sim.now
                spare_ids = (
                    set(self.spares.available)
                    if self.spares is not None else set()
                )
                for node in self.cluster.nodes:
                    nid = node.node_id
                    if nid in self.maintenance or nid in self.fenced:
                        continue
                    if node.alive:
                        # enroll newly-live nodes (repairs, acquired spares)
                        if not self.registry.enrolled(nid):
                            self.registry.enroll(nid, now)
                    elif not self.registry.enrolled(nid) and nid not in spare_ids:
                        # died outside the keepalive window (e.g. killed
                        # right after a repair, before re-enrollment):
                        # there is no beat to miss, fence immediately
                        self._fence(nid)
                for nid in self.registry.overdue(now):
                    self._fence(nid)
        except Interrupt:
            return

    def _fence(self, node_id: int) -> None:
        sim = self.cluster.sim
        node = self.cluster.node(node_id)
        was_alive = node.alive
        self.registry.unenroll(node_id)
        self.fenced.add(node_id)
        self._recovery_results.pop(node_id, None)
        self.tracer.emit(
            sim.now, "controlplane.fence", node=node_id,
            false_positive=was_alive,
        )
        self.probe.count(
            "repro_controlplane_fences_total",
            help="Nodes fenced after missed keepalives",
            reason="false-positive" if was_alive else "crash",
        )
        if was_alive:
            # STONITH: the node answers to no one — power-fence it so
            # its VMs can be rebuilt without a split brain
            self.cluster.kill_node(node_id)
            self.healer.on_failure()
            sim.schedule(self.config.repair_time, self._repair, node_id)
        self._recovery_queue.append(node_id)
        if self._recovery_proc is None or not self._recovery_proc.alive:
            self._recovery_proc = sim.process(self._recovery_worker())

    def _repair(self, node_id: int) -> None:
        if node_id in self.maintenance:
            return  # a drain op owns this node's lifecycle
        node = self.cluster.node(node_id)
        if node.alive:
            return
        self.cluster.repair_node(node_id)
        self.fenced.discard(node_id)
        self.tracer.emit(self.cluster.sim.now, "controlplane.rejoin",
                         node=node_id)
        # the monitor loop re-enrolls the node on its next sweep
        if (
            self.healer.state is not ClusterHealth.PROTECTED
            and not self._recovery_queue
            and (self._heal_proc is None or not self._heal_proc.alive)
        ):
            # a repaired node restores capacity that an earlier
            # reprotect may have lacked (e.g. the spare pool ran dry)
            self._heal_proc = self.cluster.sim.process(
                self._background_heal()
            )

    def _background_heal(self):
        req = self._lock.request()
        yield req
        try:
            if self._recovery_queue:
                return  # a fresh crash owns the gap now
            try:
                yield from self.healer.reprotect()
            except RuntimeError:
                return  # still short on capacity; the next repair retries
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    # recovery pipeline
    # ------------------------------------------------------------------
    def _recovery_worker(self):
        sim = self.cluster.sim
        while self._recovery_queue:
            node_id = self._recovery_queue.pop(0)
            req = self._lock.request()
            yield req
            span = self.probe.span_begin(
                "controlplane.recover", sim.now, node=node_id
            )
            ok, error = True, None
            try:
                try:
                    if self.ck.committed_epoch < 0:
                        self._cold_restore()
                    else:
                        report = yield from self.ck.recover(node_id)
                        self.recoveries.append(report)
                except RuntimeError as exc:
                    ok, error = False, str(exc)
                    # last resort, once the pileup has drained: a loss
                    # beyond the scheme's tolerance cannot be rebuilt,
                    # so declare the VMs lost and reprovision them
                    if not self._recovery_queue and self._can_salvage():
                        ok, error = yield from self._salvage(error)
                if ok:
                    try:
                        yield from self.healer.reprotect()
                        # audit once the queue drains: a strict sweep
                        # mid-pileup would flag the *next* crash we have
                        # not absorbed yet, not this recovery
                        if not self._recovery_queue:
                            self.audit(f"recovery of node {node_id}")
                    except Exception as exc:
                        ok, error = False, f"{type(exc).__name__}: {exc}"
            finally:
                self._lock.release()
                self.probe.span_end(span, sim.now, ok=ok)
                if not ok:
                    self.probe.count(
                        "repro_controlplane_recovery_failures_total",
                        help="Recoveries that raised (e.g. double failure)",
                    )
                    self.tracer.emit(sim.now, "controlplane.recovery_failed",
                                     node=node_id, error=error)
                self._notify_recovered(node_id, ok, error)
        self._recovery_proc = None

    def _can_salvage(self) -> bool:
        from ..checkpoint.strategies import IncrementalCapture

        # incremental capture cannot re-baseline a fresh VM mid-run;
        # there the failure is surfaced to the caller instead
        return self.ck.committed_epoch >= 0 and not isinstance(
            self.ck.strategy, IncrementalCapture
        )

    def _salvage(self, cause: str):
        """Process: declare unrecoverable VMs lost, reprovision them.

        Overlapping crashes can exceed what single parity can rebuild.
        Rather than leave the cluster permanently degraded, do what a
        real control plane does: reprovision the unrecoverable VMs with
        fresh state (the data loss is counted in telemetry) and take a
        full checkpoint epoch so parity covers the new images.
        """
        from ..core.recovery import choose_parity_node
        from .scheduler import PlacementError

        sim = self.cluster.sim
        lost = [
            vm for vm in self.cluster.all_vms
            if vm.state == VMState.FAILED and vm.node_id is None
        ]
        try:
            for vm in lost:
                # keep the group spread: avoid its parity home and the
                # hosts of its surviving members where possible
                exclude = self.maintenance | self.fenced
                try:
                    group = self.layout.group_of(vm.vm_id)
                except LayoutError:
                    group = None
                if group is not None:
                    exclude = exclude | set(group.parity_nodes) | {
                        self.cluster.vm(v).node_id
                        for v in group.member_vm_ids
                        if v != vm.vm_id
                        and self.cluster.vm(v).node_id is not None
                    }
                try:
                    target = self.engine.choose_host(exclude=exclude)
                except PlacementError:
                    # degraded placement beats leaving the VM dead
                    target = self.engine.choose_host(
                        exclude=self.maintenance | self.fenced
                    )
                self.cluster.place_failed_vm(vm.vm_id, target)
                vm.revive()
                self.probe.count(
                    "repro_controlplane_vms_lost_total",
                    help="VMs reprovisioned empty after unrecoverable loss",
                )
            self.tracer.emit(
                sim.now, "controlplane.salvage",
                vms=[vm.vm_id for vm in lost], cause=cause,
            )
            # groups with a shard home still down would abort the fresh
            # epoch: point those shards at live nodes first — the epoch
            # writes brand-new blocks, nothing is read from the old home
            # (its RAM died with it).  Every shard keeps its own distinct
            # non-member node.
            for group in list(self.layout.groups):
                homes = list(group.parity_nodes)
                dead = [
                    j for j, p in enumerate(homes)
                    if not self.cluster.node(p).alive
                ]
                if not dead:
                    continue
                for j in dead:
                    others = {h for i, h in enumerate(homes) if i != j}
                    homes[j] = choose_parity_node(
                        self.cluster, self.layout, group,
                        exclude=self.maintenance | self.fenced | others,
                    )
                self.layout.replace_group(
                    group.group_id,
                    RaidGroup(
                        group.group_id, group.member_vm_ids,
                        homes[0], tuple(homes[1:]),
                    ),
                )
            result = yield from self.ck.run_cycle()
        except Exception as exc:
            return False, f"salvage failed: {type(exc).__name__}: {exc}"
        if not result.committed:
            return False, "salvage cycle aborted by a concurrent failure"
        return True, None

    def _cold_restore(self) -> None:
        """Nothing committed yet: re-place dead VMs empty (cold restart)."""
        for vm in self.cluster.all_vms:
            if vm.state == VMState.FAILED and vm.node_id is None:
                target = self.engine.choose_host(
                    exclude=self.maintenance | self.fenced
                )
                self.cluster.place_failed_vm(vm.vm_id, target)
                vm.revive()

    def recovered_event(self, node_id: int):
        """A yieldable event triggered when ``node_id``'s recovery ends.

        The event value is ``(ok, error)``.  If the node's last failure
        has already been recovered, the event resolves immediately."""
        ev = self.cluster.sim.event()
        if node_id in self._recovery_results:
            ev.succeed(self._recovery_results[node_id])
        else:
            self._recovered_waiters.setdefault(node_id, []).append(ev)
        return ev

    def _notify_recovered(self, node_id: int, ok: bool, error) -> None:
        self._recovery_results[node_id] = (ok, error)
        for ev in self._recovered_waiters.pop(node_id, []):
            ev.succeed((ok, error))

    # ------------------------------------------------------------------
    # periodic protocol loops
    # ------------------------------------------------------------------
    def _checkpoint_loop(self):
        sim = self.cluster.sim
        interval = self.config.checkpoint_interval
        try:
            while True:
                yield sim.timeout(interval)
                if self._recovery_queue or (
                    self._recovery_proc is not None
                    and self._recovery_proc.alive
                ):
                    continue  # recovery owns the lock; cycle next tick
                yield from self.checkpoint()
        except Interrupt:
            return

    def checkpoint(self):
        """Process: one coordinated checkpoint epoch under the lock.

        Enrolls provisioned-but-unprotected VMs first, so their first
        capture lands in the same committed epoch.  Returns the
        :class:`~repro.core.recovery.DisklessCycleResult`.
        """
        req = self._lock.request()
        yield req
        try:
            self._enroll_pending()
            result = yield from self.ck.run_cycle()
            self.probe.count(
                "repro_controlplane_cycles_total",
                help="Checkpoint cycles driven by the coordinator",
                committed="yes" if result.committed else "no",
            )
            return result
        finally:
            self._lock.release()

    def _scrub_loop(self):
        sim = self.cluster.sim
        try:
            while True:
                yield sim.timeout(self.config.scrub_interval)
                self.scrubber.scrub_once()
        except Interrupt:
            return

    def _enroll_pending(self) -> None:
        """Form parity groups from provisioned-but-unprotected VMs.

        Called at a checkpoint boundary under the lock; the new groups'
        first capture in the imminent cycle is a full one (the capture
        strategies treat base-less VMs as epoch-0), bringing them under
        protection atomically with the epoch commit.
        """
        if not self.pending_protect:
            return
        vms = [
            self.cluster.vm(v) for v in self.pending_protect
            if self.cluster.vm(v).node_id is not None
        ]
        self.pending_protect = [
            v for v in self.pending_protect
            if self.cluster.vm(v).node_id is None
        ]
        if not vms:
            return
        hosts = {vm.node_id for vm in vms}
        group_size = max(1, min(self.config.group_size, len(hosts)))
        sub = build_orthogonal_layout(
            self.cluster, group_size, parity="rotate", vms=vms,
            n_parity=self.ck.scheme.n_shards,
        )
        next_id = self.layout.next_group_id()
        for i, g in enumerate(sub.groups):
            group = RaidGroup(
                next_id + i, g.member_vm_ids, g.parity_node,
                g.extra_parity_nodes,
            )
            self.layout.add_group(group)
            self.tracer.emit(
                self.cluster.sim.now, "controlplane.group_formed",
                group=group.group_id, members=list(group.member_vm_ids),
                parity_node=group.parity_node,
            )

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def audit(self, context: str) -> AuditReport:
        """Strict invariant sweep after a reconfiguration.

        Scrubs first (corruption found by checksum is repaired in place,
        like the fuzzer does before its strict audits), then audits, and
        raises :class:`AuditFailure` on fatal findings when configured
        strict."""
        strict = self.config.strict_audit
        if strict:
            self.scrubber.scrub_once()
        report = audit_cluster(
            self.cluster, self.layout, self.ck.committed_epoch,
            strict=strict, context=context, scheme=self.ck.scheme,
        )
        self.audits.append(report)
        self.probe.count(
            "repro_controlplane_audits_total",
            help="Post-reconfiguration audit sweeps",
            ok="yes" if report.ok else "no",
        )
        if strict and not report.ok:
            raise AuditFailure(
                f"audit '{context}': "
                + "; ".join(v.detail for v in report.fatal)
            )
        return report

    # ------------------------------------------------------------------
    # API façade
    # ------------------------------------------------------------------
    def submit(self, kind: str, **params) -> Operation:
        """Submit an operation; returns its handle immediately.

        The op runs as its own process — submissions are concurrent, and
        ops that mutate protocol state serialize internally on the
        protocol lock.  ``op.done`` is a yieldable event that fires on
        the terminal transition.
        """
        if not self._started:
            raise RuntimeError("control plane is not started")
        if kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {kind!r}; expected {OP_KINDS}")
        sim = self.cluster.sim
        op = Operation(
            op_id=len(self.ops), kind=kind, params=dict(params),
            submitted_at=sim.now, done=sim.event(),
        )
        self.ops.append(op)
        sim.process(self._run_op(op))
        return op

    def _run_op(self, op: Operation):
        sim = self.cluster.sim
        op.start(sim.now)
        try:
            if op.kind == "query":
                result = self.status()
            elif op.kind == "provision":
                result = yield from self._op_provision(op)
            elif op.kind == "kill":
                result = yield from self._op_kill(op)
            else:
                result = yield from self._op_drain(op)
            op.finish(sim.now, result)
        except Exception as exc:  # op isolation: one failure, one FAILED op
            op.fail(sim.now, f"{type(exc).__name__}: {exc}")
        try:
            self.probe.count(
                "repro_controlplane_ops_total",
                help="Control-plane operations by kind and terminal state",
                kind=op.kind, state=op.state.value,
            )
            self.tracer.emit(
                sim.now, "controlplane.op", op=op.op_id, op_kind=op.kind,
                state=op.state.value,
            )
        finally:
            op.done.succeed(op)

    # -- provision ------------------------------------------------------
    def _op_provision(self, op: Operation):
        from ..checkpoint.strategies import IncrementalCapture

        if (
            isinstance(self.ck.strategy, IncrementalCapture)
            and self.ck.committed_epoch >= 0
        ):
            raise OpRejected(
                "provisioning into a running incremental-capture protocol "
                "is unsupported (new VMs have no base epoch); use a "
                "full/forked capture strategy"
            )
        p = op.params
        node_id = self.engine.choose_host(
            exclude=self.maintenance | self.fenced
        )
        vm = self.cluster.create_vm(
            node_id,
            p.get("memory_bytes", 1e9),
            dirty_rate=p.get("dirty_rate", 0.0),
            image_pages=p.get("image_pages"),
            page_size=p.get("page_size", 4096),
            name=p.get("name"),
        )
        self.pending_protect.append(vm.vm_id)
        self.probe.count(
            "repro_controlplane_provisioned_vms_total",
            help="VMs created through the façade",
        )
        return {"vm_id": vm.vm_id, "node": node_id}
        yield  # pragma: no cover — marks this function as a process

    # -- kill -----------------------------------------------------------
    def _safe_to_kill(self, node_id: int) -> str | None:
        """Why killing ``node_id`` now would be unsafe, or None if fine.

        Counts, per group, elements already unavailable plus elements
        that would go down with the candidate; more than ``tolerance``
        lost elements in any group means unrecoverable data loss.
        """
        for vm in self.cluster.vms_on(node_id):
            if vm.vm_id in self.pending_protect:
                return f"vm {vm.vm_id} on node {node_id} is not yet protected"
        tolerance = (
            self.config.tolerance
            if self.config.tolerance is not None
            else self.ck.scheme.tolerance
        )
        for group in self.layout.groups:
            lost = 0
            for v in group.member_vm_ids:
                home = self.cluster.vm(v).node_id
                if home is None or not self.cluster.node(home).alive:
                    lost += 1
                elif home == node_id:
                    lost += 1
            for pnode in group.parity_nodes:
                if pnode == node_id or not self.cluster.node(pnode).alive:
                    lost += 1
            if lost > tolerance:
                return (
                    f"group {group.group_id} would lose {lost} elements "
                    f"(tolerance {tolerance})"
                )
        return None

    def _op_kill(self, op: Operation):
        node_id = int(op.params["node_id"])
        sim = self.cluster.sim
        req = self._lock.request()
        yield req
        try:
            node = self.cluster.node(node_id)
            if node_id in self.maintenance:
                raise OpRejected(f"node {node_id} is under maintenance")
            if not node.alive:
                raise OpRejected(f"node {node_id} is already down")
            reason = self._safe_to_kill(node_id)
            if reason is not None:
                raise OpRejected(f"kill refused: {reason}")
            self._recovery_results.pop(node_id, None)
            self.cluster.kill_node(node_id)
            self.healer.on_failure()
            sim.schedule(self.config.repair_time, self._repair, node_id)
        finally:
            self._lock.release()
        # detection now runs through the keepalive path like any crash
        ok, error = yield self.recovered_event(node_id)
        if not ok:
            raise RuntimeError(f"recovery after kill failed: {error}")
        return {"node": node_id, "recovered": True}

    # -- drain ----------------------------------------------------------
    def _op_drain(self, op: Operation):
        node_id = int(op.params["node_id"])
        rejoin = bool(op.params.get("rejoin", True))
        hold = float(
            op.params.get("maintenance_seconds", self.config.maintenance_seconds)
        )
        sim = self.cluster.sim
        req = self._lock.request()
        yield req
        entered = False
        try:
            if node_id in self.maintenance:
                raise OpRejected(f"node {node_id} is already under maintenance")
            if node_id in self.fenced or not self.cluster.node(node_id).alive:
                raise OpRejected(f"node {node_id} is down; nothing to drain")
            self.maintenance.add(node_id)
            self.registry.unenroll(node_id)
            entered = True
            summary = yield from drain_node(self, node_id)
        except BaseException:
            if entered:
                self.maintenance.discard(node_id)
            raise
        finally:
            self._lock.release()
        # ---- maintenance hold: the node is powered down, cluster stays
        # fully protected on the remaining nodes
        yield sim.timeout(hold)
        if rejoin:
            self.cluster.repair_node(node_id)
            self.maintenance.discard(node_id)
            self.audit(f"node {node_id} rejoined after maintenance")
            self.tracer.emit(sim.now, "controlplane.rejoin", node=node_id)
        summary["rejoined"] = rejoin
        return summary

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Snapshot of the coordinator's world view."""
        states = {s.value: 0 for s in OpState}
        for op in self.ops:
            states[op.state.value] += 1
        return {
            "nodes": self.cluster.n_nodes,
            "alive": len(self.cluster.alive_nodes),
            "maintenance": sorted(self.maintenance),
            "fenced": sorted(self.fenced),
            "vms": len(self.cluster.all_vms),
            "unprotected_vms": len(self.pending_protect),
            "groups": len(self.layout.groups),
            "committed_epoch": self.ck.committed_epoch,
            "health": self.healer.state.value,
            "ops": states,
            "audits": len(self.audits),
            "audit_violations": sum(
                len(r.violations) for r in self.audits
            ),
            "recoveries": len(self.recoveries),
            "migrations": len(self.migrations),
            "verified_migrations": self.verified_migrations,
            "spares_available": (
                len(self.spares) if self.spares is not None else 0
            ),
            "spares_exhausted": (
                self.spares.exhausted if self.spares is not None else 0
            ),
        }

    @property
    def all_ops_terminal(self) -> bool:
        return all(op.state.terminal for op in self.ops)
