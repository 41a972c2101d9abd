"""Background checksum scrubbing of in-memory checkpoint artifacts.

Diskless checkpointing keeps every recovery artifact in volatile RAM —
there is no filesystem underneath to scrub it.  The :class:`Scrubber`
is that missing layer: it re-verifies the CRC every parity block and
committed image received at encode/commit time
(:mod:`repro.cluster.checksum`) and, on a mismatch, performs a
*targeted* repair:

* a corrupt **parity shard** is re-encoded from its members' committed
  images (the encode the protocol would have produced) and verified
  bit-exactly against the stored checksum;
* a corrupt **member image** is rebuilt from the surviving members +
  shards (the recovery computation pointed at bit-rot instead of a
  crash) and verified against the image's commit-time checksum.

One path serves every coding scheme; XOR single parity is its
``m = 1`` case.  Artifacts whose redundancy is itself damaged (more
corrupt or unavailable artifacts in one group than the scheme's
tolerance) are reported as unrepairable — the caller decides whether
to force a fresh full checkpoint epoch.

The scrubber is a *mechanism*: :meth:`Scrubber.scrub_once` is
instantaneous in simulated time (checksums are memory-speed compared to
the transfers around them).  Run it periodically with
:meth:`Scrubber.run` for a background process, or call it directly at
quiescent points (the fuzzer does, before every strict audit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.checksum import block_checksum
from ..cluster.cluster import VirtualCluster
from ..coding import get_scheme, shard_key
from ..core.groups import GroupLayout
from ..sim import NULL_TRACER, Tracer
from ..telemetry import probe_of

__all__ = ["Scrubber", "ScrubReport"]


@dataclass
class ScrubReport:
    """Outcome of one full scrub pass."""

    scrubbed: int = 0
    #: artifacts whose checksum mismatched, e.g. ``"parity g1@node2"``
    detected: list[str] = field(default_factory=list)
    #: subset of ``detected`` restored bit-exactly
    repaired: list[str] = field(default_factory=list)
    #: subset of ``detected`` whose redundancy was also damaged
    unrepairable: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.detected


class Scrubber:
    """Detects and repairs silent corruption in checkpoint artifacts."""

    def __init__(
        self,
        cluster: VirtualCluster,
        layout: GroupLayout,
        tracer: Tracer = NULL_TRACER,
        scheme=None,
    ):
        self.cluster = cluster
        self.layout = layout
        self.tracer = tracer
        self.probe = probe_of(tracer)
        self.scheme = get_scheme(scheme)
        self.reports: list[ScrubReport] = []

    # ------------------------------------------------------------------
    def _detect(self, report: ScrubReport, label: str) -> None:
        report.detected.append(label)
        self.tracer.emit(self.cluster.sim.now, "scrub.corruption", artifact=label)
        self.probe.count(
            "repro_resilience_corruptions_detected_total",
            help="Checksum mismatches found by the scrubber",
        )

    def _repaired(self, report: ScrubReport, label: str) -> None:
        report.repaired.append(label)
        self.tracer.emit(self.cluster.sim.now, "scrub.repaired", artifact=label)
        self.probe.count(
            "repro_resilience_corruptions_repaired_total",
            help="Corrupt artifacts restored bit-exactly by the scrubber",
        )

    def _member_images(self, group) -> dict[int, np.ndarray] | None:
        """Committed payloads of every group member, or None if any is
        unavailable (failed VM, timing-only image)."""
        out: dict[int, np.ndarray] = {}
        for v in group.member_vm_ids:
            vm = self.cluster.vm(v)
            if vm.node_id is None:
                return None
            img = self.cluster.hypervisor(vm.node_id).committed(v)
            if img is None or img.payload is None:
                return None
            out[v] = img.payload_flat()
        return out

    # ------------------------------------------------------------------
    def scrub_once(self) -> ScrubReport:
        """One full verify-and-repair sweep over every group.

        Repairability is derived from the active scheme's tolerance: a
        corrupt artifact counts as one erasure, and any combination of
        at most ``scheme.tolerance`` erasures per group (corrupt members
        + corrupt or unavailable shards) is repaired in place — e.g.
        RS(k,2) survives a corrupt shard *and* a dead shard home at
        once, where single-parity XOR could not.
        """
        report = ScrubReport()
        for group in self.layout.groups:
            self._scrub_group(report, group)
        self.reports.append(report)
        if report.unrepairable:
            self.probe.count(
                "repro_resilience_corruptions_unrepairable_total",
                len(report.unrepairable),
                help="Corruptions the scrubber could not repair in place",
            )
        return report

    def _shard_label(self, j: int, gid: int) -> str:
        """``parity g<gid>`` under single parity, ``shard<j> g<gid>``
        when the scheme stores several shards."""
        return f"parity g{gid}" if self.scheme.n_shards == 1 else f"shard{j} g{gid}"

    def _scrub_group(self, report: ScrubReport, group) -> None:
        """Verify-and-repair one group."""
        gid = group.group_id
        blocks = []  # (shard index, home node id, block or None)
        for j, pnode_id in enumerate(group.parity_nodes):
            pnode = self.cluster.node(pnode_id)
            block = pnode.parity_store.get(shard_key(gid, j)) if pnode.alive else None
            blocks.append((j, pnode_id, block))
        images = self._member_images(group)

        # -- detect: members first, then every shard
        bad_members: list[int] = []
        if images is not None:
            for v in group.member_vm_ids:
                vm = self.cluster.vm(v)
                img = self.cluster.hypervisor(vm.node_id).committed(v)
                expect = img.meta.get("checksum")
                if expect is None:
                    continue
                report.scrubbed += 1
                if block_checksum(images[v]) != expect:
                    self._detect(report, f"image vm{v}@node{vm.node_id}")
                    bad_members.append(v)
        bad_shards: list[int] = []
        gone_shards: list[int] = []
        for j, pnode_id, block in blocks:
            if block is None or block.data is None or block.checksum is None:
                gone_shards.append(j)
                continue
            report.scrubbed += 1
            if block_checksum(block.data) != block.checksum:
                self._detect(report, f"{self._shard_label(j, gid)}@node{pnode_id}")
                bad_shards.append(j)
        if not bad_members and not bad_shards:
            return

        def unrepairable() -> None:
            for v in bad_members:
                report.unrepairable.append(f"image vm{v}")
            for j in bad_shards:
                report.unrepairable.append(self._shard_label(j, gid))

        # -- classify: corrupt + unavailable artifacts are erasures
        erasures = len(bad_members) + len(bad_shards) + len(gone_shards)
        clean_shards = [
            j for j, _, b in blocks
            if j not in bad_shards and j not in gone_shards
        ]
        # replication can over-survive: any intact replica rebuilds all
        replica_rescue = (
            getattr(self.scheme, "copies", None) is not None and bool(clean_shards)
        )
        if images is None or (
            erasures > self.scheme.tolerance and not replica_rescue
        ):
            unrepairable()
            return

        # -- repair: decode with corrupt artifacts marked lost
        member_ids = list(group.member_vm_ids)
        mem = [None if v in bad_members else images[v] for v in member_ids]
        shd = [
            None if (j in bad_shards or j in gone_shards) else block.data
            for j, _, block in blocks
        ]
        length = max(p.shape[0] for p in images.values())
        try:
            rebuilt = self.scheme.reconstruct(mem, shd, nbytes=length)
        except Exception:
            unrepairable()
            return
        members_clean = True
        for v in bad_members:
            i = member_ids.index(v)
            vm = self.cluster.vm(v)
            img = self.cluster.hypervisor(vm.node_id).committed(v)
            candidate = rebuilt[i][: images[v].shape[0]]
            if block_checksum(candidate) != img.meta["checksum"]:
                report.unrepairable.append(f"image vm{v}")
                members_clean = False
                continue
            images[v][:] = candidate
            self._repaired(report, f"image vm{v}")
        if not bad_shards:
            return
        if not members_clean:
            # can't re-encode from members that failed verification
            for j in bad_shards:
                report.unrepairable.append(self._shard_label(j, gid))
            return
        fresh = self.scheme.encode([images[v] for v in member_ids])
        for j in bad_shards:
            block = blocks[j][2]
            candidate = fresh[j]
            if (
                candidate.shape[0] != block.data.shape[0]
                or block_checksum(candidate) != block.checksum
            ):
                report.unrepairable.append(self._shard_label(j, gid))
                continue
            block.data[:] = candidate
            self._repaired(report, self._shard_label(j, gid))

    def run(self, interval: float):
        """Process generator: scrub every ``interval`` seconds, forever.

        Spawn with ``sim.process(scrubber.run(interval))``; the process
        ends only when the simulation stops scheduling it (e.g. ``run``
        hit its horizon).
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        while True:
            yield self.cluster.sim.timeout(interval)
            self.scrub_once()
