"""Rolling node maintenance: drain → migrate → re-form parity → rejoin.

The drain path is where the control plane finally exercises
:func:`repro.migration.precopy.live_migrate` end to end over real
network flows, under the strict auditor, with **zero unprotected
windows**:

1. every VM on the draining node live-migrates to an
   orthogonality-preserving target (the placement engine refuses any
   node already holding an element of the VM's group);
2. the VM's committed checkpoint image moves with it — *staged* on the
   destination before the migration starts, *promoted* (source copy
   dropped) only after the VM lands, so at every instant the parity
   equation can be audited against the image at the VM's current home;
3. functional images are checksum-verified: the post-migration payload
   must equal the pre-migration fingerprint bit-for-bit;
4. parity shards homed on the draining node are re-encoded onto fresh
   nodes via the protocol's own
   :meth:`~repro.core.dvdc.DisklessCheckpointer._reencode_shards`,
   which keeps the old block until the new one is stored;
5. the empty node is cleanly deactivated, maintained, and rejoined.

A strict :func:`repro.audit.invariants.audit_cluster` sweep runs after
every single step, so any gap — however short in sim-time — fails loud.
Transient network faults are ridden out with bounded retries.
"""

from __future__ import annotations

from ..cluster.checksum import block_checksum
from ..core.recovery import DisklessRecoveryReport
from ..migration.precopy import live_migrate
from ..network.link import NetworkError

__all__ = ["drain_node", "migrate_with_verify"]


def migrate_with_verify(cp, vm, dst_node_id: int):
    """Process: live-migrate ``vm`` with retries + checksum verification.

    Retries transient :class:`NetworkError` aborts up to
    ``cp.config.drain_retries`` times with doubling backoff.  For
    functional VMs the live image is fingerprinted before and after;
    a mismatch raises (and counts) — the migration machinery must be
    bit-exact.  Returns the :class:`~repro.migration.precopy.PrecopyResult`.
    """
    sim = cp.cluster.sim
    pre = block_checksum(vm.image.flat) if vm.image is not None else None
    attempts = cp.config.drain_retries + 1
    result = None
    for attempt in range(attempts):
        try:
            result = yield from live_migrate(
                cp.cluster, vm, dst_node_id,
                model=cp.precopy_model,
                tracer=cp.tracer,
                dirty_model=cp.dirty_model,
            )
            break
        except NetworkError:
            if attempt == attempts - 1:
                raise
            yield sim.timeout(cp.config.drain_retry_wait * (2 ** attempt))
    verified = None
    if pre is not None:
        verified = block_checksum(vm.image.flat) == pre
    cp.probe.count(
        "repro_controlplane_migrations_total",
        help="Drain/rebalance live migrations completed",
        verified={None: "n/a", True: "yes", False: "no"}[verified],
    )
    if verified is False:
        raise RuntimeError(
            f"vm {vm.vm_id}: post-migration image fails its pre-migration "
            "checksum — live migration corrupted guest memory"
        )
    if verified:
        cp.verified_migrations += 1
    cp.migrations.append(result)
    return result


def _stage_committed(cp, vm, src: int, dst: int):
    """Process: copy the VM's committed image to ``dst`` (source kept).

    While the copy streams — and all through the migration that follows
    — the authoritative committed image is still the one at the VM's
    current node, so audits never see a hole.
    """
    img = cp.cluster.node(src).checkpoint_store.get(vm.vm_id)
    if img is None:
        return None  # unprotected VM (no committed epoch yet): nothing to move
    attempts = cp.config.drain_retries + 1
    for attempt in range(attempts):
        try:
            yield cp.ck._transfer(
                src, dst, img.logical_bytes, label=f"drain.ckpt.vm{vm.vm_id}"
            )
            break
        except NetworkError:
            if attempt == attempts - 1:
                raise
            yield cp.cluster.sim.timeout(
                cp.config.drain_retry_wait * (2 ** attempt)
            )
    cp.cluster.node(dst).store_checkpoint(img)
    return img


def _promote_committed(cp, vm, src: int, dst: int, img) -> None:
    """Drop the source copy once the VM runs at ``dst`` (instantaneous —
    no yield between the VM landing and the promotion, so there is no
    audit-visible instant with the image on the wrong side)."""
    if img is None:
        return
    src_store = cp.cluster.node(src).checkpoint_store
    if src_store.get(vm.vm_id) is img:
        del src_store[vm.vm_id]


def _unstage_committed(cp, vm, dst: int, img) -> None:
    """Back out a staged copy after a failed migration."""
    if img is None:
        return
    dst_store = cp.cluster.node(dst).checkpoint_store
    if dst_store.get(vm.vm_id) is img:
        del dst_store[vm.vm_id]


def drain_node(cp, node_id: int) -> dict:
    """Process: fully evacuate ``node_id`` and power it down cleanly.

    Caller (the drain op) holds the protocol lock and has already placed
    the node in the maintenance set.  Returns a summary dict.
    """
    cluster = cp.cluster
    sim = cluster.sim
    node = cluster.node(node_id)
    if not node.alive:
        raise RuntimeError(f"node {node_id} is down; drain needs a live node")
    span = cp.probe.span_begin("controlplane.drain", sim.now, node=node_id)
    moved_vms: dict[int, int] = {}
    moved_parity: dict[int, int] = {}

    # ---- live-migrate every resident VM (committed image rides along)
    for vm in sorted(cluster.vms_on(node_id), key=lambda v: v.vm_id):
        dst = cp.engine.choose_drain_target(
            vm, cp.layout, exclude=cp.maintenance | cp.fenced
        )
        img = yield from _stage_committed(cp, vm, node_id, dst)
        try:
            yield from migrate_with_verify(cp, vm, dst)
        except BaseException:
            _unstage_committed(cp, vm, dst, img)
            raise
        _promote_committed(cp, vm, node_id, dst, img)
        moved_vms[vm.vm_id] = dst
        cp.audit(f"drain node {node_id}: vm {vm.vm_id} -> {dst}")

    # ---- re-encode parity blocks homed here onto fresh nodes
    for group in list(cp.layout.groups_with_parity_on(node_id)):
        attempts = cp.config.drain_retries + 1
        for attempt in range(attempts):
            report = DisklessRecoveryReport(failed_node=node_id)
            slots = [j for j, h in enumerate(group.parity_nodes) if h == node_id]
            yield from cp.ck._reencode_shards(group, report, slots)
            if group.group_id in report.reencoded_groups:
                break
            if attempt == attempts - 1:
                raise RuntimeError(
                    f"group {group.group_id}: could not re-home parity off "
                    f"node {node_id}"
                )
            yield sim.timeout(cp.config.drain_retry_wait * (2 ** attempt))
        new_home = cp.layout.group_of(group.member_vm_ids[0]).parity_node
        moved_parity[group.group_id] = new_home
        cp.audit(f"drain node {node_id}: parity g{group.group_id} -> {new_home}")

    # ---- node is now empty: clean power-down for maintenance
    node.deactivate()
    cp.audit(f"drain node {node_id}: deactivated")
    cp.probe.span_end(span, sim.now, vms=len(moved_vms), parity=len(moved_parity))
    cp.tracer.emit(
        sim.now, "controlplane.drained", node=node_id,
        vms=len(moved_vms), parity_groups=len(moved_parity),
    )
    return {
        "node": node_id,
        "migrated_vms": moved_vms,
        "moved_parity_groups": moved_parity,
    }
