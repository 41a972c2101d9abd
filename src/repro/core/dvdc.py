"""The diskless checkpoint protocol over a RAID group layout.

:class:`DisklessCheckpointer` implements the checkpoint and recovery
protocols of Section IV for *any* :class:`~repro.core.groups.GroupLayout`
— the Fig. 1 first-shot layout, the Fig. 3 dedicated-checkpoint-node
layout, and the Fig. 4 DVDC layout are the same protocol pointed at
different parity placements (that observation is the paper's own
narrative arc).  Convenience constructors for the three architectures
live in :mod:`repro.core.architectures`.

There is one protocol path for every erasure-coding scheme
(:mod:`repro.coding`): each group stores ``m`` parity shards on ``m``
distinct nodes that host none of its members.  The paper's XOR single
parity is the ``m = 1`` case (the default); Section II-B2's RDP double
parity is ``scheme="rdp"``, and Reed–Solomon / replication plug in the
same way.

Checkpoint cycle (one epoch):

1. **capture** — coordinated barrier pause (strategy-dependent cost);
2. **exchange** — each member streams its (compressed) capture to each
   of its group's shard homes.  Under the Fig. 4 layout these flows
   ride disjoint NIC pairs and proceed in parallel; under Figs. 1/3
   they fan into one node and serialize — the architectural contrast
   the model quantifies;
3. **parity** — each shard home charges its encode engine for the
   member data (one engine per node: concurrent groups with parity on
   the same node serialize, distributed parity parallelizes — Section
   IV-B's "relieve the CPU burden by a factor linear in the amount of
   machines");
4. **commit** — two-phase: the staged shards and captured member
   images replace the previous epoch everywhere, atomically at the
   commit timestamp.  Until then the previous epoch remains fully
   recoverable.

Incremental epochs move only dirty data.  A scheme that can fold page
deltas (:attr:`~repro.coding.CodingScheme.folds_deltas` — XOR) has
members ship the delta ``old ⊕ new`` of their dirty pages and folds it
into the previous shards: the RAID-5 small-write optimization applied
to checkpoints.  Other schemes materialize full images (committed base
+ dirty pages) and re-encode.

Recovery (after a node crash): every surviving VM rolls back to its
local in-memory checkpoint (a memory copy — no disk, no network); each
group that lost members rebuilds them from survivors + shards and ships
the images to replacement nodes; shards whose home died are re-encoded
onto new nodes.  See :class:`~repro.core.recovery.DisklessRecoveryReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..checkpoint.base import CaptureOutcome, CaptureStrategy, CheckpointCycleResult
from ..checkpoint.compression import NO_COMPRESSION, CompressionModel
from ..checkpoint.coordinator import CoordinatedCheckpoint
from ..checkpoint.strategies import ForkedCapture
from ..cluster.bufpool import GLOBAL_POOL
from ..cluster.checksum import block_checksum
from ..cluster.cluster import VirtualCluster
from ..cluster.images import CheckpointImage, CheckpointKind, ParityBlock
from ..cluster.memory import PageDelta, recycle_delta
from ..cluster.vm import VMState
from ..coding import CodingScheme, get_scheme, shard_key
from ..network.link import NetworkError
from ..sim import AllOf, NULL_TRACER, Resource, Tracer
from ..telemetry import probe_of
from .groups import GroupLayout, RaidGroup
from .recovery import DisklessRecoveryReport, choose_parity_node, choose_restore_node

# The XOR kernels now run inside repro.coding.XorScheme; perfbench's
# layer tracer still looks them up under this module's names.
from ..cluster.checksum import block_checksums_rows  # noqa: F401
from ..cluster.xorsum import (  # noqa: F401
    reconstruct_missing_padded,
    xor_fold_groups,
    xor_reduce_groups,
    xor_reduce_padded,
)

__all__ = ["DisklessCheckpointer", "DisklessCycleResult", "DEFAULT_XOR_BANDWIDTH"]

#: In-memory XOR throughput default (bytes/second) — DDR3-era streaming.
DEFAULT_XOR_BANDWIDTH = 4e9


@dataclass
class DisklessCycleResult(CheckpointCycleResult):
    """Cycle accounting plus the per-node parity workload split."""

    xor_seconds_by_node: dict[int, float] = field(default_factory=dict)
    #: groups whose exchange died (node crash, or retries exhausted on a
    #: transient outage); non-empty forces the epoch to abort even when
    #: no node failure bumped the failure epoch
    failed_groups: list[int] = field(default_factory=list)

    @property
    def max_node_xor_seconds(self) -> float:
        return max(self.xor_seconds_by_node.values(), default=0.0)

    @property
    def total_xor_seconds(self) -> float:
        return sum(self.xor_seconds_by_node.values())


@dataclass
class _PendingEncode:
    """One group's exchange, registered for the commit-time encode."""

    group: RaidGroup
    member_images: list[CheckpointImage]
    #: vm_id -> flat full image, or the ``old ⊕ new`` page delta a
    #: folding scheme folds into ``prev``
    payloads: dict
    #: the group's previous shard blocks when this epoch folds deltas
    prev: list[ParityBlock] | None = None

    @property
    def functional(self) -> bool:
        """Every member carries bytes (not a timing-only capture)."""
        return len(self.payloads) == len(self.member_images)


class DisklessCheckpointer:
    """Diskless checkpoint/recovery over a group layout."""

    def __init__(
        self,
        cluster: VirtualCluster,
        layout: GroupLayout,
        strategy: CaptureStrategy | None = None,
        compression: CompressionModel = NO_COMPRESSION,
        xor_bandwidth: float = DEFAULT_XOR_BANDWIDTH,
        tracer: Tracer = NULL_TRACER,
        auditor=None,
        retry=None,
        retry_rng=None,
        scheme: CodingScheme | str | None = None,
        domains=None,
    ):
        if xor_bandwidth <= 0:
            raise ValueError(f"xor_bandwidth must be > 0, got {xor_bandwidth}")
        self.cluster = cluster
        self.layout = layout
        #: the erasure-coding scheme protecting every group (default: the
        #: paper's single-parity XOR, the m = 1 case of the one path)
        self.scheme = get_scheme(scheme)
        self.strategy = strategy or ForkedCapture()
        self.compression = compression
        self.xor_bandwidth = xor_bandwidth
        self.tracer = tracer
        self._probe = probe_of(tracer)
        #: optional :class:`repro.resilience.retry.RetryPolicy`; when set,
        #: every protocol transfer retries transient failures with backoff
        self.retry = retry
        self.retry_rng = retry_rng
        #: optional audit hook (``post_cycle``/``post_recovery``/
        #: ``post_capture``); see :class:`repro.audit.Auditor`.  Duck-typed
        #: so the core stays import-free of :mod:`repro.audit`.
        self.auditor = auditor
        #: optional :class:`~repro.failures.domains.FailureDomainMap`:
        #: recovery placement then prefers nodes whose failure domain
        #: holds no other element of the group (geo-spread policy)
        self.domains = domains
        #: optional zero-arg callable returning node ids recovery must
        #: not place onto (controlplane maintenance/fencing cordons);
        #: composed into every chooser's exclusion set
        self.cordons = None
        self.coordinator = CoordinatedCheckpoint(
            cluster, self.strategy, tracer, auditor
        )
        self.epoch = 0
        self.committed_epoch = -1
        self.last_cycle_at: float | None = None
        self.history: list[DisklessCycleResult] = []
        # one parity/XOR engine per node: groups sharing a parity node
        # serialize their XOR work there
        self._xor_engines = {
            n.node_id: Resource(cluster.sim, capacity=1) for n in cluster.nodes
        }

    def attach_auditor(self, auditor) -> None:
        """Install (or replace) the audit hook after construction."""
        self.auditor = auditor
        self.coordinator.auditor = auditor

    # ------------------------------------------------------------------
    # recovery placement constraints
    # ------------------------------------------------------------------
    def _recovery_exclude(self, base: set[int]) -> set[int]:
        """Exclusion set for recovery placement: the crash being handled
        plus any controlplane cordons (maintenance / fencing) — a drain
        in progress must never become a parity or restore target."""
        if self.cordons is not None:
            return base | set(self.cordons())
        return base

    # ------------------------------------------------------------------
    # transfers (retry seam)
    # ------------------------------------------------------------------
    def _transfer(self, src: int, dst: int, size: float, label: str):
        """One protocol transfer: a plain :class:`~repro.network.link.Flow`,
        or — when a retry policy is installed — a process that re-issues
        the flow on transient failures with exponential backoff.  Either
        way the result is yieldable and fails with a
        :class:`~repro.network.link.NetworkError` subclass."""
        if self.retry is None:
            return self.cluster.topology.transfer(src, dst, size, label=label)
        # Deferred import: resilience sits above core in the layering.
        from ..resilience.retry import retrying_transfer

        return self.cluster.sim.process(retrying_transfer(
            self.cluster.sim,
            lambda: self.cluster.topology.transfer(src, dst, size, label=label),
            self.retry,
            rng=self.retry_rng,
            probe=self._probe,
            label=label,
        ))

    def _charge_engine(self, node_id: int, nbytes: float):
        """Process step: occupy ``node_id``'s encode engine for ``nbytes``
        (engines serialize the coding work of groups sharing a node)."""
        engine = self._xor_engines[node_id]
        req = engine.request()
        yield req
        try:
            seconds = nbytes / self.xor_bandwidth
            if seconds > 0:
                yield self.cluster.sim.timeout(seconds)
        finally:
            engine.release()

    # ------------------------------------------------------------------
    # checkpoint cycle
    # ------------------------------------------------------------------
    def _xor_delta_payload(self, old: CheckpointImage, delta: PageDelta) -> PageDelta:
        """Pages of ``old ⊕ new`` restricted to the dirty set (what a
        folding scheme ships and folds into its previous shards)."""
        old_pages = old.payload_flat().reshape(
            delta.n_pages_total, delta.page_size
        )
        # pooled gather + in-place xor: no per-epoch temporaries
        buf = GLOBAL_POOL.acquire(delta.pages.nbytes)
        xored = buf.reshape(delta.n_pages, delta.page_size)
        np.take(old_pages, delta.indices, axis=0, out=xored)
        np.bitwise_xor(xored, delta.pages, out=xored)
        return PageDelta(
            page_size=delta.page_size,
            n_pages_total=delta.n_pages_total,
            indices=delta.indices,
            pages=xored,
        )

    @staticmethod
    def _materialize(old: CheckpointImage, delta: PageDelta) -> np.ndarray:
        """The full image an incremental capture describes: committed
        base patched with the dirty pages."""
        pages = old.payload_flat().copy().reshape(delta.n_pages_total, delta.page_size)
        pages[delta.indices] = delta.pages
        return pages.reshape(-1)

    def _previous_shards(
        self, group: RaidGroup, pending: _PendingEncode, result: DisklessCycleResult
    ) -> list[ParityBlock] | None:
        """The shard blocks an incremental epoch folds into, validated;
        None when a shard home died (the group fails, the epoch aborts)."""
        if any(not self.cluster.node(n).alive for n in group.parity_nodes):
            # died between the exchange's aliveness check and the fold
            result.failed_groups.append(group.group_id)
            return None
        prev = []
        for j, node_id in enumerate(group.parity_nodes):
            blk = self.cluster.node(node_id).parity_store.get(
                shard_key(group.group_id, j)
            )
            if blk is None or blk.data is None:
                raise RuntimeError(
                    f"group {group.group_id}: incremental parity update "
                    "without a previous parity block"
                )
            if blk.checksum is not None and block_checksum(blk.data) != blk.checksum:
                # folding a delta into rotten parity would produce a
                # self-consistently-checksummed wrong block — refuse
                raise RuntimeError(
                    f"group {group.group_id}: previous parity block fails "
                    "its checksum — silent corruption; scrub or run a "
                    "full epoch before folding increments"
                )
            prev.append(blk)
        for img in pending.member_images:
            if img.kind != CheckpointKind.INCREMENTAL:
                # a full capture mixed in (e.g. post-recovery)
                raise RuntimeError(
                    "mixed full/incremental captures within one group "
                    "epoch are not supported; run a full epoch first"
                )
            xd = pending.payloads[img.vm_id]
            if any(b.data.shape[0] != xd.n_pages_total * xd.page_size for b in prev):
                raise RuntimeError(
                    "incremental epochs require homogeneous "
                    "image sizes within a group; use full/"
                    "forked capture for heterogeneous groups"
                )
        return prev

    def _group_cycle(
        self,
        group: RaidGroup,
        outcomes: dict[int, CaptureOutcome],
        result: DisklessCycleResult,
        pending: list[_PendingEncode],
        staged_commits: dict[int, CheckpointImage],
    ):
        """Process: exchange + validation for one group.

        Every member ships its capture to *each* of the group's ``m``
        shard homes (the m-way traffic the scheme's ``traffic_factor``
        models), and each home charges its encode engine.  The shard
        bytes themselves are encoded by the commit-time batched flush.
        """
        sim = self.cluster.sim
        shard_nodes = group.parity_nodes
        if any(not self.cluster.node(n).alive for n in shard_nodes):
            # a shard home died before the exchange even started (its
            # RAM — including any previous shard — is gone); the group
            # contributes nothing and the epoch aborts
            result.failed_groups.append(group.group_id)
            return
        folds = self.scheme.folds_deltas
        flows = []
        work = _PendingEncode(group, [], {})
        raw_bytes = 0.0
        for vm_id in group.member_vm_ids:
            if vm_id not in outcomes:  # VM failed before capture
                continue
            img = outcomes[vm_id].image
            vm = self.cluster.vm(vm_id)
            assert vm.node_id is not None
            work.member_images.append(img)
            if img.kind == CheckpointKind.INCREMENTAL and img.payload is not None:
                old = self.cluster.hypervisor(vm.node_id).committed(vm_id)
                if old is None or old.payload is None:
                    raise RuntimeError(
                        f"vm {vm_id}: incremental epoch without committed base"
                    )
                work.payloads[vm_id] = (
                    self._xor_delta_payload(old, img.payload)
                    if folds
                    else self._materialize(old, img.payload)
                )
            elif img.payload is not None:
                work.payloads[vm_id] = img.payload_flat()
            wire = self.compression.output_bytes(img.logical_bytes)
            raw_bytes += img.logical_bytes
            label = f"dvdc.g{group.group_id}.vm{vm_id}.e{img.epoch}"
            for j, pnode in enumerate(shard_nodes):
                result.network_bytes += wire
                flows.append(
                    self._transfer(
                        vm.node_id,
                        pnode,
                        wire,
                        label=label if j == 0 else f"{label}.s{j}",
                    )
                )
        if not work.member_images:
            return
        if flows:
            try:
                yield AllOf(sim, flows)
            except NetworkError:
                # a node died mid-exchange, or a transient outage outlived
                # the retry budget; either way this group contributes
                # nothing and the epoch aborts (failed_groups guard)
                result.failed_groups.append(group.group_id)
                return
        # encode at every shard home (serialized per node across groups)
        for pnode in shard_nodes:
            if not self.cluster.node(pnode).alive:
                result.failed_groups.append(group.group_id)
                return
            yield from self._charge_engine(pnode, raw_bytes)
            result.parity_bytes += raw_bytes
            result.xor_seconds_by_node[pnode] = (
                result.xor_seconds_by_node.get(pnode, 0.0)
                + raw_bytes / self.xor_bandwidth
            )

        # Validate and *register* the encode; the numeric work happens
        # once per epoch in _flush_encodes, batched across every group,
        # on the commit path only.  All protocol-point checks (shard-home
        # aliveness, previous-shard presence and checksum, group
        # homogeneity) stay right here so failure behavior is unchanged.
        if (
            folds
            and work.functional
            and any(img.kind == CheckpointKind.INCREMENTAL for img in work.member_images)
        ):
            work.prev = self._previous_shards(group, work, result)
            if work.prev is None:
                return
        pending.append(work)
        for img in work.member_images:
            staged_commits[img.vm_id] = img

    def _flush_encodes(
        self, pending: list[_PendingEncode], staged: dict[int, list[ParityBlock]]
    ) -> None:
        """Commit-time batched shard encode.

        Full epochs go through :meth:`CodingScheme.encode_groups` and
        incremental epochs of a folding scheme through
        :meth:`CodingScheme.fold_groups` — each one call over every
        group, so a scheme can batch the work into a handful of
        whole-cluster kernels.  ``staged[group_id]`` becomes the
        shard-index-ordered list of :class:`ParityBlock`, keyed for the
        parity stores with :func:`repro.coding.shard_key`.
        """
        encoded: list = [None] * len(pending)
        full = [i for i, w in enumerate(pending) if w.functional and w.prev is None]
        if full:
            results = self.scheme.encode_groups([
                [pending[i].payloads[img.vm_id] for img in pending[i].member_images]
                for i in full
            ])
            for i, res in zip(full, results):
                encoded[i] = res
        folded = [i for i, w in enumerate(pending) if w.prev is not None]
        if folded:
            deltas = [
                [pending[i].payloads[img.vm_id] for img in pending[i].member_images]
                for i in folded
            ]
            results = self.scheme.fold_groups(
                [[b.data for b in pending[i].prev] for i in folded], deltas
            )
            del deltas
            for i, res in zip(folded, results):
                encoded[i] = res
                # every delta of this group is folded; reclaim the pages
                payloads = pending[i].payloads
                for img in pending[i].member_images:
                    recycle_delta(payloads.pop(img.vm_id))

        for work, res in zip(pending, encoded):
            group = work.group
            shards, checksums = res if res is not None else (None, None)
            logical = max(img.logical_bytes for img in work.member_images)
            full_logical = max(
                self.cluster.vm(v).memory_bytes for v in group.member_vm_ids
            )
            staged[group.group_id] = [
                ParityBlock(
                    group_id=shard_key(group.group_id, j),
                    epoch=self.epoch,
                    member_vm_ids=group.member_vm_ids,
                    logical_bytes=full_logical if logical < full_logical else logical,
                    data=None if shards is None else shards[j],
                    checksum=None if checksums is None else checksums[j],
                )
                for j in range(self.scheme.n_shards)
            ]

    def run_cycle(self, pause_done=None):
        """Process: one coordinated diskless checkpoint epoch.

        Returns a :class:`DisklessCycleResult`.  Overhead is the barrier
        pause; latency runs until the commit point (all parity staged).

        ``pause_done`` — optional :class:`~repro.sim.process.SimEvent`
        succeeded the moment the capture barrier lifts and guests resume.
        Overlapped runners (``CheckpointedJob(overlap=True)``) wait on it
        to restart useful work while the exchange/XOR completes in the
        background — the latency-vs-overhead separation the paper argues
        diskless checkpointing is really about.

        Two-phase safety: if any node fails between capture and commit,
        the whole epoch is *aborted* (``result.committed == False``) and
        the previous epoch remains the recovery point.  The caller must
        run recovery (which rolls every VM back) before the next cycle.
        """
        sim = self.cluster.sim
        start = sim.now
        epoch = self.epoch
        failure_snapshot = self.cluster.failure_epoch
        elapsed = (start - self.last_cycle_at) if self.last_cycle_at is not None else start
        vms = [
            self.cluster.vm(v)
            for v in self.layout.vm_ids
            if self.cluster.vm(v).state != VMState.FAILED
        ]
        outcomes_list, pause = yield from self.coordinator.capture_all(
            vms, epoch, elapsed
        )
        outcomes = {o.image.vm_id: o for o in outcomes_list}
        if pause_done is not None and not pause_done.triggered:
            pause_done.succeed(pause)
        result = DisklessCycleResult(epoch=epoch, started_at=start, overhead=pause)
        for o in outcomes_list:
            result.per_vm_pause[o.image.vm_id] = o.pause_seconds

        staged: dict[int, list[ParityBlock]] = {}
        staged_commits: dict[int, CheckpointImage] = {}
        pending: list[_PendingEncode] = []
        group_procs = [
            sim.process(
                self._group_cycle(g, outcomes, result, pending, staged_commits)
            )
            for g in self.layout.groups
        ]
        if group_procs:
            yield AllOf(sim, group_procs)

        # ---- commit point: atomic swap of the whole epoch ----
        if self.cluster.failure_epoch != failure_snapshot or result.failed_groups:
            # a node died mid-cycle, or a group's exchange was lost to a
            # transient outage: abort; previous epoch stays valid
            result.latency = sim.now - start
            result.committed = False
            self.history.append(result)
            # aborted incremental captures already consumed the dirty log;
            # re-mark their pages so the next epoch's delta covers them
            for o in outcomes_list:
                img = o.image
                if img.kind == CheckpointKind.INCREMENTAL and isinstance(
                    img.payload, PageDelta
                ):
                    vm = self.cluster.vm(img.vm_id)
                    if vm.node_id is not None and vm.image is not None:
                        vm.image.touch_pages(img.payload.indices)
            self.tracer.emit(
                sim.now, "diskless.cycle_aborted", epoch=epoch,
                failed_groups=list(result.failed_groups),
            )
            if self.auditor is not None:
                self.auditor.post_cycle(self, result)
            return result
        groups_by_id = {g.group_id: g for g in self.layout.groups}
        self._flush_encodes(pending, staged)
        for group_id, blocks in staged.items():
            for node_id, blk in zip(groups_by_id[group_id].parity_nodes, blocks):
                self.cluster.node(node_id).store_parity(blk)
        # every member is fingerprinted by the checksum its commit takes
        # (of the merged full image for incremental epochs), so a rebuild
        # can verify the bytes it restores whatever the epoch kind
        member_checksums: dict[int, int] = {}
        for vm_id, image in staged_commits.items():
            vm = self.cluster.vm(vm_id)
            if vm.node_id is None:
                continue
            hv = self.cluster.hypervisor(vm.node_id)
            hv.commit_checkpoint(image)
            vm.epoch = epoch
            checksum = hv.committed(vm_id).meta.get("checksum")
            if checksum is not None:
                member_checksums[vm_id] = checksum
        for blocks in staged.values():
            for blk in blocks:
                blk.member_checksums = {
                    v: member_checksums[v]
                    for v in blk.member_vm_ids
                    if v in member_checksums
                }
        self.committed_epoch = epoch
        self.epoch += 1
        self.last_cycle_at = sim.now
        result.latency = sim.now - start
        result.committed = True
        self.history.append(result)
        self.tracer.emit(
            sim.now, "diskless.cycle", epoch=epoch, overhead=result.overhead,
            latency=result.latency, network_bytes=result.network_bytes,
            parity_bytes=result.parity_bytes,
        )
        if self.auditor is not None:
            self.auditor.post_cycle(self, result)
        return result

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _rollback_survivor(self, vm_id: int, report: DisklessRecoveryReport):
        """Process: in-memory rollback of one surviving VM."""
        vm = self.cluster.vm(vm_id)
        if vm.node_id is None or vm.state == VMState.FAILED:
            return
        hv = self.cluster.hypervisor(vm.node_id)
        image = hv.committed(vm_id)
        if image is None:
            raise RuntimeError(f"vm {vm_id} has no committed local checkpoint")
        if vm.state == VMState.RUNNING:
            vm.pause()
        # in-memory restore: a local memcpy
        yield self.cluster.sim.timeout(
            vm.memory_bytes / self.xor_bandwidth
        )
        if vm.node_id is None or vm.state == VMState.FAILED:
            return  # node died mid-rollback; requeued failure handles it
        hv.restore(vm, image)
        # resume unconditionally: the VM may have been left paused by an
        # interrupted checkpoint barrier when the failure struck
        if vm.state == VMState.PAUSED:
            vm.resume()
        report.rolled_back.append(vm_id)

    def _shard_blocks(self, group: RaidGroup) -> list[ParityBlock | None]:
        """The group's shard blocks in shard-index order; ``None`` marks a
        shard whose home is dead or whose block is missing."""
        out: list[ParityBlock | None] = []
        for j, node_id in enumerate(group.parity_nodes):
            node = self.cluster.node(node_id)
            blk = (
                node.parity_store.get(shard_key(group.group_id, j))
                if node.alive
                else None
            )
            out.append(blk)
        return out

    def _lost_shard_slots(self, group: RaidGroup) -> list[int]:
        """Shard slots whose home is dead or whose block is missing — the
        slots recovery re-homes.  A slot that merely shares a node with a
        member stays put; :meth:`heal` moves it once a valid home exists."""
        return [j for j, b in enumerate(self._shard_blocks(group)) if b is None]

    def _recoverable_shards(
        self, group: RaidGroup, lost_vm_ids: list[int]
    ) -> tuple[list[ParityBlock | None], int]:
        """The group's shard blocks and the node that stages its rebuild.

        Raises the tolerance-aware unrecoverable error (the one the audit
        classifier keys on) when the lost members plus missing shards
        exceed what the scheme repairs.
        """
        shard_blocks = self._shard_blocks(group)
        missing_shards = sum(1 for b in shard_blocks if b is None)
        staging = next(
            (
                group.parity_nodes[j]
                for j, b in enumerate(shard_blocks)
                if b is not None
            ),
            None,
        )
        # The scheme guarantees any <= tolerance erasures; replication can
        # additionally recover any pattern that leaves one replica alive.
        over_tolerance = len(lost_vm_ids) + missing_shards > self.scheme.tolerance
        replica_rescue = (
            getattr(self.scheme, "copies", None) is not None and staging is not None
        )
        if (over_tolerance and not replica_rescue) or staging is None:
            raise RuntimeError(
                f"group {group.group_id} lost {len(lost_vm_ids)} members and "
                f"{missing_shards} parity shards — beyond {self.scheme.name} "
                f"tolerance {self.scheme.tolerance}"
            )
        return shard_blocks, staging

    def _recover_group(
        self, group: RaidGroup, lost_vm_ids: list[int], report: DisklessRecoveryReport
    ):
        """Process: rebuild every lost member of one group via the scheme.

        Handles any erasure pattern within ``scheme.tolerance`` (multiple
        members, members + shards) at a staging node — the first shard
        home still holding its block.  Shards this crash emptied are
        re-encoded afterwards in the same pass.
        """
        sim = self.cluster.sim
        shard_blocks, staging = self._recoverable_shards(group, lost_vm_ids)
        lost_set = set(lost_vm_ids)
        survivors = [v for v in group.member_vm_ids if v not in lost_set]
        flows = []
        wire_bytes = 0.0
        decode_bytes = 0.0
        survivor_payloads: dict[int, np.ndarray] = {}
        for v in survivors:
            vm = self.cluster.vm(v)
            if vm.node_id is None:
                raise RuntimeError(
                    f"group {group.group_id}: survivor vm {v} also lost — "
                    f"beyond {self.scheme.name} tolerance"
                )
            img = self.cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                raise RuntimeError(f"survivor vm {v} has no committed checkpoint")
            decode_bytes += vm.memory_bytes
            if img.payload is not None:
                survivor_payloads[v] = img.payload_flat()
            if vm.node_id != staging:
                wire_bytes += vm.memory_bytes
                flows.append(
                    self._transfer(
                        vm.node_id, staging, vm.memory_bytes,
                        label=f"rebuild.g{group.group_id}.vm{v}",
                    )
                )
        # surviving shards hosted elsewhere stream to the staging node too
        for j, blk in enumerate(shard_blocks):
            home = group.parity_nodes[j]
            if blk is None or home == staging:
                continue
            size = float(blk.data.shape[0]) if blk.data is not None else blk.logical_bytes
            decode_bytes += size
            wire_bytes += size
            flows.append(
                self._transfer(
                    home, staging, size,
                    label=f"rebuild.g{group.group_id}.s{j}",
                )
            )
        if flows:
            try:
                yield AllOf(sim, flows)
            except NetworkError:
                # another node died mid-rebuild; leave the VMs failed —
                # the queued failure's recovery pass retries the group.
                # Aborted transfers never count toward report.network_bytes.
                return
        report.network_bytes += wire_bytes
        if not self.cluster.node(staging).alive:
            raise RuntimeError(
                f"group {group.group_id}: staging node {staging} died during "
                f"reconstruction — beyond {self.scheme.name} tolerance"
            )
        decode_bytes += sum(self.cluster.vm(v).memory_bytes for v in lost_set)
        yield from self._charge_engine(staging, decode_bytes)
        report.xor_bytes += decode_bytes

        rebuilt: dict[int, np.ndarray] = {}
        intact = [b for b in shard_blocks if b is not None and b.data is not None]
        if intact and len(survivor_payloads) == len(survivors):
            length = self.scheme.working_length(
                int(intact[0].data.shape[0]), len(group.member_vm_ids)
            )
            decoded = self.scheme.reconstruct(
                [survivor_payloads.get(v) for v in group.member_vm_ids],
                [None if b is None else b.data for b in shard_blocks],
                nbytes=length,
            )
            # every stored shard carries the members' commit checksums
            expected = next(b for b in shard_blocks if b is not None).member_checksums
            for idx, v in enumerate(group.member_vm_ids):
                if v not in lost_set:
                    continue
                lost_vm = self.cluster.vm(v)
                nbytes = lost_vm.image.nbytes if lost_vm.image is not None else length
                img_bytes = decoded[idx][:nbytes].copy()
                expect = expected.get(v)
                if expect is not None and block_checksum(img_bytes) != expect:
                    raise RuntimeError(
                        f"vm {v}: rebuilt image fails its end-to-end checksum "
                        "— a survivor image or a parity shard is silently "
                        "corrupt; scrub before recovering"
                    )
                rebuilt[v] = img_bytes

        # ship each rebuilt image to its new home and restore
        for v in lost_vm_ids:
            lost_vm = self.cluster.vm(v)
            target = choose_restore_node(
                self.cluster, self.layout, group,
                exclude=self._recovery_exclude({report.failed_node}),
                domains=self.domains,
            )
            if target != staging:
                flow = self._transfer(
                    staging, target, lost_vm.memory_bytes,
                    label=f"restore.g{group.group_id}.vm{v}",
                )
                try:
                    yield flow
                except NetworkError:
                    return  # destination (or source) died; retried later
                report.network_bytes += lost_vm.memory_bytes
            self.cluster.place_failed_vm(v, target)
            hv = self.cluster.hypervisor(target)
            image = CheckpointImage(
                vm_id=v,
                epoch=self.committed_epoch,
                kind=CheckpointKind.FULL,
                logical_bytes=lost_vm.memory_bytes,
                captured_at=sim.now,
                payload=rebuilt.get(v),
                meta={"reconstructed": True},
            )
            if rebuilt.get(v) is not None or lost_vm.image is None:
                hv.restore(lost_vm, image)
            else:  # functional VM but timing-only parity: revive without bytes
                lost_vm.revive()
            hv.commit_checkpoint(image)
            report.reconstructed[v] = target
            self.tracer.emit(
                sim.now, "diskless.rebuild", vm=v, group=group.group_id,
                target=target,
            )
        # re-home any shard slots this crash emptied
        slots = self._lost_shard_slots(group)
        if slots:
            yield from self._reencode_shards(group, report, slots)

    def _reencode_shards(
        self, group: RaidGroup, report: DisklessRecoveryReport, slots: list[int]
    ):
        """Process: re-encode the group's shards onto new homes for
        ``slots``.

        All ``m`` shards are recomputed from the committed member images
        (one encode) but only ``slots`` get new homes and blocks; other
        slots keep their nodes, so the group ends the pass protected on
        ``m`` distinct nodes.  The old home of a moved slot keeps its
        block until the new one is stored.
        """
        sim = self.cluster.sim
        gid = group.group_id
        homes = list(group.parity_nodes)
        for j in slots:
            taken = {h for i, h in enumerate(homes) if i != j}
            avoid = frozenset(
                self.domains.domain_of(h)
                for i, h in enumerate(homes)
                if i != j and self.cluster.node(h).alive
            ) if self.domains is not None else frozenset()
            homes[j] = choose_parity_node(
                self.cluster, self.layout, group,
                exclude=self._recovery_exclude({report.failed_node} | taken),
                domains=self.domains,
                avoid_domains=avoid,
            )
        # gather member images; bail if a member just died too (the queued
        # failure's recovery rebuilds it and re-encodes afterwards)
        payloads = []
        total = 0.0
        for v in group.member_vm_ids:
            vm = self.cluster.vm(v)
            if vm.node_id is None:
                return
            img = self.cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                raise RuntimeError(f"vm {v} has no committed checkpoint to re-encode")
            total += vm.memory_bytes
            if img.payload is not None:
                payloads.append(img.payload_flat())
        flows = []
        wire_bytes = 0.0
        for j in slots:
            for v in group.member_vm_ids:
                vm = self.cluster.vm(v)
                if vm.node_id != homes[j]:
                    wire_bytes += vm.memory_bytes
                    label = f"reencode.g{gid}.vm{v}"
                    flows.append(
                        self._transfer(
                            vm.node_id, homes[j], vm.memory_bytes,
                            label=label if j == 0 else f"{label}.s{j}",
                        )
                    )
        if flows:
            try:
                yield AllOf(sim, flows)
            except NetworkError:
                # retried by the queued failure's recovery; dead transfers
                # contribute nothing to the accounting
                return
        report.network_bytes += wire_bytes
        for j in slots:
            yield from self._charge_engine(homes[j], total)
            report.xor_bytes += total
        functional = payloads and len(payloads) == len(group.member_vm_ids)
        shards = self.scheme.encode(payloads) if functional else None
        member_checksums: dict[int, int] = {}
        if functional:
            for v, p in zip(group.member_vm_ids, payloads):
                member_checksums[v] = block_checksum(p)
        logical = max(self.cluster.vm(v).memory_bytes for v in group.member_vm_ids)
        for j in slots:
            data = shards[j] if shards is not None else None
            block = ParityBlock(
                group_id=shard_key(gid, j),
                epoch=self.committed_epoch,
                member_vm_ids=group.member_vm_ids,
                logical_bytes=logical,
                data=data,
                checksum=None if data is None else block_checksum(data),
                member_checksums=dict(member_checksums),
            )
            self.cluster.node(homes[j]).store_parity(block)
            old_home = self.cluster.node(group.parity_nodes[j])
            if old_home.alive and old_home.node_id != homes[j]:
                old_home.parity_store.pop(shard_key(gid, j), None)
        self.layout.replace_group(
            gid, RaidGroup(gid, group.member_vm_ids, homes[0], tuple(homes[1:]))
        )
        if gid not in report.reencoded_groups:
            report.reencoded_groups.append(gid)
        self.tracer.emit(
            sim.now, "diskless.reencode", group=gid, node=homes[slots[0]]
        )

    def _heal_slots(self, group: RaidGroup) -> list[int]:
        """Shard slots :meth:`heal` re-homes.

        A missing slot always moves (a degraded home beats none).  A slot
        sharing a node with a member moves only when a strictly valid
        home exists — alive, hosting no member and no other shard; with
        :attr:`domains` set, a slot sharing a *failure domain* with a
        member moves only to a domain-orthogonal home.
        """
        member_nodes = {
            self.cluster.vm(v).node_id
            for v in group.member_vm_ids
            if self.cluster.vm(v).node_id is not None
        }
        member_doms = (
            {self.domains.domain_of(m) for m in member_nodes}
            if self.domains is not None
            else set()
        )
        homes = group.parity_nodes
        slots = []
        free = None
        for j, blk in enumerate(self._shard_blocks(group)):
            home = homes[j]
            if blk is None:
                slots.append(j)
                continue
            colocated = home in member_nodes
            if not colocated and (
                self.domains is None or self.domains.domain_of(home) not in member_doms
            ):
                continue
            if free is None:
                free = [
                    n.node_id
                    for n in self.cluster.alive_nodes
                    if n.node_id not in member_nodes and n.node_id not in homes
                ]
            if colocated and free:
                slots.append(j)
            elif not colocated and any(
                self.domains.domain_of(n) not in member_doms for n in free
            ):
                slots.append(j)
        return slots

    def heal(self):
        """Process: restore layout validity after node repairs.

        Post-recovery placements can be *degraded*: with few nodes the
        only place to restore a rebuilt VM is a shard home of its group,
        so one element of slack is gone until the crashed node returns.
        ``heal`` re-encodes every shard that is missing, or co-located
        with a member, onto a strictly valid node when one exists (see
        :meth:`_heal_slots`).  Call it at checkpoint boundaries once
        repairs have landed — the
        :class:`~repro.workloads.app.CheckpointedJob` runner does.
        """
        healed: list[int] = []
        for group in list(self.layout.groups):
            slots = self._heal_slots(group)
            if not slots:
                continue
            report = DisklessRecoveryReport(failed_node=-1)
            try:
                yield from self._reencode_shards(group, report, slots)
            except RuntimeError:
                continue
            healed.append(group.group_id)
        if healed:
            self.tracer.emit(self.cluster.sim.now, "diskless.heal", groups=healed)
        return healed

    def recover(self, failed_node_id: int):
        """Process: full DVDC recovery after ``failed_node_id`` crashed.

        Phases run concurrently where independent: survivor rollbacks
        (local memory copies), per-group member reconstruction, and
        shard re-encoding.  A group that lost more than the scheme
        repairs raises before any of that starts.  Returns a
        :class:`~repro.core.recovery.DisklessRecoveryReport`.
        """
        sim = self.cluster.sim
        start = sim.now
        if self.committed_epoch < 0:
            raise RuntimeError("no committed checkpoint epoch to recover from")
        report = DisklessRecoveryReport(failed_node=failed_node_id)

        lost_vms = [
            vm.vm_id
            for vm in self.cluster.all_vms
            if vm.state == VMState.FAILED and vm.node_id is None
        ]
        lost_by_group: dict[int, list[int]] = {}
        for vm_id in lost_vms:
            group = self.layout.group_of(vm_id)
            lost_by_group.setdefault(group.group_id, []).append(vm_id)
        groups_by_id = {g.group_id: g for g in self.layout.groups}
        # a loss beyond the scheme's tolerance in any group raises before
        # recovery starts anything, so no rebuild outlives a failed pass
        for gid, lost in lost_by_group.items():
            self._recoverable_shards(groups_by_id[gid], lost)
        # one rebuild per damaged group, handling any <= tolerance mix of
        # lost members and shards
        procs = [
            sim.process(self._recover_group(groups_by_id[gid], lost, report))
            for gid, lost in lost_by_group.items()
        ]
        # groups whose shards are missing anywhere (this crash, or a
        # re-encode aborted by an earlier overlapping crash) and that
        # lost no member this time
        for group in self.layout.groups:
            if group.group_id in lost_by_group:
                continue
            slots = self._lost_shard_slots(group)
            if slots:
                procs.append(sim.process(self._reencode_shards(group, report, slots)))
        # all surviving VMs roll back locally
        lost_set = set(lost_vms)
        for vm_id in self.layout.vm_ids:
            if vm_id not in lost_set:
                procs.append(sim.process(self._rollback_survivor(vm_id, report)))
        if procs:
            yield AllOf(sim, procs)
        report.recovery_time = sim.now - start
        report.restored_epoch = self.committed_epoch
        self.tracer.emit(
            sim.now, "diskless.recovery", node=failed_node_id,
            duration=report.recovery_time, reconstructed=list(report.reconstructed),
        )
        if self.auditor is not None:
            self.auditor.post_recovery(self, report)
        return report
