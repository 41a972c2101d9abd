"""Executable safety invariants for the diskless checkpoint protocol.

The paper's correctness claim (Sections IV & VI) is that after any
single node failure the lost VMs are rebuilt *bit-exactly* from
survivors + parity.  That claim decomposes into a handful of state
invariants that must hold whenever the cluster is quiescent (no failure
mid-flight, recovery drained):

* **parity coherence** — every group's stored parity shards equal the
  coding scheme's encode of its members' committed checkpoint payloads
  (the padded XOR under single parity);
* **layout validity** — members of a group live on pairwise distinct
  nodes and the parity node hosts none of them (Fig. 2's orthogonality
  rules; may be *degraded* while a crashed node awaits repair);
* **epoch coherence** — every committed artifact (member image, parity
  block, VM epoch marker) agrees on ``committed_epoch``;
* **two-phase atomicity** — no artifact from an uncommitted epoch is
  observable (staged state never leaks past an abort);
* **single-failure recoverability** — the constructive form of parity
  coherence: actually reconstruct each member from the others + parity
  and compare bit-for-bit (every erasure pattern within tolerance for
  multi-shard schemes).

Checkers never raise on bad state; they return :class:`Violation`
records so the fuzzer can aggregate and shrink.  States that are
legitimately unauditable (a dead node, a failed VM awaiting rebuild)
yield *degraded* findings, which only count as violations under
``strict`` auditing — the mode used at quiescent points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from ..coding import get_scheme, shard_key
from ..core.placement import validate_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import VirtualCluster
    from ..core.groups import GroupLayout

__all__ = [
    "Violation",
    "AuditReport",
    "audit_cluster",
    "check_parity_coherence",
    "check_layout_validity",
    "check_epoch_coherence",
    "check_two_phase_atomicity",
    "check_single_failure_recoverable",
]

FATAL = "fatal"
DEGRADED = "degraded"


@dataclass(frozen=True)
class Violation:
    """One invariant breach (or degraded observation).

    ``severity`` is ``"fatal"`` for genuine protocol bugs (wrong bytes,
    mixed epochs) and ``"degraded"`` for states that are expected while
    a failure is being absorbed (dead parity node, VM awaiting rebuild).
    """

    invariant: str
    severity: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.invariant}: {self.subject} — {self.detail}"


@dataclass
class AuditReport:
    """Outcome of one full invariant sweep."""

    checked_at: float
    committed_epoch: int
    context: str = ""
    strict: bool = False
    violations: list[Violation] = field(default_factory=list)

    @property
    def fatal(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == FATAL]

    @property
    def degraded(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == DEGRADED]

    @property
    def ok(self) -> bool:
        """No fatal findings (degraded states are tolerated unless the
        sweep ran strict, in which case they were already promoted)."""
        return not self.fatal


def _severity(strict: bool) -> str:
    return FATAL if strict else DEGRADED


def _shard_name(j: int, coding) -> str:
    """``parity`` under single parity, ``shard <j>`` otherwise."""
    return "parity" if coding.n_shards == 1 else f"shard {j}"


def check_parity_coherence(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    strict: bool = False,
    scheme=None,
) -> list[Violation]:
    """Stored shards == the active scheme's encode of members' committed
    payloads (padded XOR under the default :class:`~repro.coding.XorScheme`)."""
    coding = get_scheme(scheme)
    out: list[Violation] = []
    for g in layout.groups:
        subject = f"group {g.group_id}"
        blocks: list[tuple[int, object]] = []
        for j, pnode_id in enumerate(g.parity_nodes):
            pnode = cluster.node(pnode_id)
            if not pnode.alive:
                out.append(Violation(
                    "parity-coherence", _severity(strict), subject,
                    f"{_shard_name(j, coding)} node {pnode_id} is down",
                ))
                continue
            block = pnode.parity_store.get(shard_key(g.group_id, j))
            if block is None:
                out.append(Violation(
                    "parity-coherence", _severity(strict), subject,
                    f"no {_shard_name(j, coding)} block on node {pnode_id}",
                ))
                continue
            blocks.append((j, block))
        if not blocks:
            continue  # no shard to audit the members against
        payloads = []
        auditable = True
        for v in g.member_vm_ids:
            vm = cluster.vm(v)
            if vm.node_id is None:
                out.append(Violation(
                    "parity-coherence", _severity(strict), subject,
                    f"member vm {v} failed — group unauditable",
                ))
                auditable = False
                break
            img = cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                out.append(Violation(
                    "parity-coherence", _severity(strict), subject,
                    f"member vm {v} has no committed checkpoint",
                ))
                auditable = False
                break
            payloads.append(img.payload_flat() if img.payload is not None else None)
        if not auditable:
            continue
        if any(p is None for p in payloads) or any(b.data is None for _, b in blocks):
            continue  # timing-only run: nothing functional to compare
        expect = coding.encode(payloads)
        for j, block in blocks:
            want, got = expect[j], block.data
            name = _shard_name(j, coding)
            if got.shape[0] != want.shape[0]:
                out.append(Violation(
                    "parity-coherence", FATAL, subject,
                    f"{name} length {got.shape[0]} != encoded "
                    f"length {want.shape[0]}",
                ))
                continue
            if not np.array_equal(got, want):
                nbad = int(np.count_nonzero(got != want))
                out.append(Violation(
                    "parity-coherence", FATAL, subject,
                    f"{name} differs from {coding.name} encode "
                    f"in {nbad} byte(s)",
                ))
    return out


#: cap on exhaustive erasure-pattern enumeration per group (deterministic
#: prefix is kept when a very wide group x tolerance combination overflows)
_MAX_ERASURE_PATTERNS = 1024


def check_single_failure_recoverable(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    strict: bool = False,
    scheme=None,
) -> list[Violation]:
    """Constructive recoverability: for every erasure pattern of size
    <= the scheme's tolerance that touches a member, rebuild the lost
    members from the rest (the actual recovery computation) and compare
    them bit-exactly against their committed payloads.  Under single
    parity that is each member rebuilt from the others + parity, and
    findings are named ``single-failure-recoverable``; wider schemes
    report ``erasure-recoverable``."""
    coding = get_scheme(scheme)
    out: list[Violation] = []
    t, m = coding.tolerance, coding.n_shards
    invariant = "single-failure-recoverable" if t == 1 else "erasure-recoverable"
    for g in layout.groups:
        k = len(g.member_vm_ids)
        shards: list[np.ndarray] = []
        available = True
        for j, pnode_id in enumerate(g.parity_nodes):
            pnode = cluster.node(pnode_id)
            block = (
                pnode.parity_store.get(shard_key(g.group_id, j))
                if pnode.alive else None
            )
            if block is None or block.data is None:
                available = False
                break
            shards.append(block.data)
        if not available:
            continue  # availability handled by parity-coherence
        images = {}
        for v in g.member_vm_ids:
            vm = cluster.vm(v)
            img = (
                cluster.hypervisor(vm.node_id).committed(v)
                if vm.node_id is not None
                else None
            )
            if img is None or img.payload is None:
                images = None
                break
            images[v] = img.payload_flat()
        if images is None:
            continue  # unauditable; parity-coherence already flagged it
        member_list = [images[v] for v in g.member_vm_ids]
        length = max(p.shape[0] for p in member_list)
        patterns = [
            combo
            for r in range(1, t + 1)
            for combo in combinations(range(k + m), r)
            if any(slot < k for slot in combo)
        ]
        patterns = patterns[:_MAX_ERASURE_PATTERNS]
        for combo in patterns:
            mem = [None if i in combo else member_list[i] for i in range(k)]
            shd = [None if (k + j) in combo else shards[j] for j in range(m)]
            try:
                rebuilt = coding.reconstruct(mem, shd, nbytes=length)
            except Exception as exc:
                out.append(Violation(
                    invariant, FATAL, f"group {g.group_id}",
                    f"pattern {combo} within tolerance {t} failed to "
                    f"decode: {exc}",
                ))
                continue
            for i in combo:
                if i >= k:
                    continue
                want = member_list[i]
                got = rebuilt[i][: want.shape[0]]
                if not np.array_equal(got, want):
                    nbad = int(np.count_nonzero(got != want))
                    out.append(Violation(
                        invariant, FATAL,
                        f"vm {g.member_vm_ids[i]}",
                        f"pattern {combo}: rebuilt image differs from "
                        f"committed in {nbad} byte(s)",
                    ))
    return out


def check_layout_validity(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    strict: bool = False,
    scheme=None,
    domains=None,
) -> list[Violation]:
    """Orthogonality + parity independence (Fig. 2).

    Degraded placements are legal transients: with a node down, the only
    restore target may be the group's parity node
    (:func:`repro.core.recovery.choose_restore_node` falls back on
    purpose).  ``heal()`` repairs them once nodes return — so these are
    fatal only under ``strict`` (quiescent cluster, everything repaired).

    With ``domains`` set, orthogonality is judged per failure domain
    (geo-spread: no two elements of a group in one rack/site), not per
    node.
    """
    report = validate_layout(
        layout, cluster, tolerance=get_scheme(scheme).tolerance, domains=domains
    )
    return [
        Violation("layout-validity", _severity(strict), "layout", err)
        for err in report.errors
    ]


def check_epoch_coherence(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    committed_epoch: int,
    strict: bool = False,
) -> list[Violation]:
    """Every committed artifact agrees on ``committed_epoch``."""
    out: list[Violation] = []
    if committed_epoch < 0:
        return out  # nothing committed yet: trivially coherent
    for g in layout.groups:
        for j, pnode_id in enumerate(g.parity_nodes):
            pnode = cluster.node(pnode_id)
            if not pnode.alive:
                continue
            block = pnode.parity_store.get(shard_key(g.group_id, j))
            if block is not None and block.epoch != committed_epoch:
                out.append(Violation(
                    "epoch-coherence", FATAL, f"group {g.group_id}",
                    f"shard {j} epoch {block.epoch} != committed "
                    f"{committed_epoch}",
                ))
        for v in g.member_vm_ids:
            vm = cluster.vm(v)
            if vm.node_id is None:
                out.append(Violation(
                    "epoch-coherence", _severity(strict), f"vm {v}",
                    "failed — epoch unauditable",
                ))
                continue
            img = cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                out.append(Violation(
                    "epoch-coherence", _severity(strict), f"vm {v}",
                    "no committed checkpoint",
                ))
            elif img.epoch != committed_epoch:
                out.append(Violation(
                    "epoch-coherence", FATAL, f"vm {v}",
                    f"committed image epoch {img.epoch} != {committed_epoch}",
                ))
    return out


def check_two_phase_atomicity(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    committed_epoch: int,
    strict: bool = False,
) -> list[Violation]:
    """No artifact from an uncommitted (future) epoch is observable.

    An aborted cycle must leave *zero* trace: staged parity and staged
    member images for epoch ``e > committed_epoch`` leaking into node
    stores would mean the two-phase commit is not atomic.
    """
    out: list[Violation] = []
    for node in cluster.nodes:
        if not node.alive:
            continue
        for gid, block in node.parity_store.items():
            if block.epoch > committed_epoch:
                out.append(Violation(
                    "two-phase-atomicity", FATAL, f"group {gid}",
                    f"parity from uncommitted epoch {block.epoch} on node "
                    f"{node.node_id} (committed {committed_epoch})",
                ))
        for vm_id, img in node.checkpoint_store.items():
            if img.epoch > committed_epoch:
                out.append(Violation(
                    "two-phase-atomicity", FATAL, f"vm {vm_id}",
                    f"image from uncommitted epoch {img.epoch} on node "
                    f"{node.node_id} (committed {committed_epoch})",
                ))
    for vm in cluster.all_vms:
        if vm.epoch > committed_epoch:
            out.append(Violation(
                "two-phase-atomicity", FATAL, f"vm {vm.vm_id}",
                f"vm epoch marker {vm.epoch} ahead of committed "
                f"{committed_epoch}",
            ))
    return out


def audit_cluster(
    cluster: "VirtualCluster",
    layout: "GroupLayout",
    committed_epoch: int,
    strict: bool = False,
    context: str = "",
    scheme=None,
    domains=None,
) -> AuditReport:
    """Run every invariant checker and aggregate the findings.

    ``strict=True`` promotes degraded observations (dead nodes, failed
    VMs, co-located placements) to fatal — use it only at quiescent
    points where the cluster is expected to be fully healthy.
    """
    report = AuditReport(
        checked_at=cluster.sim.now,
        committed_epoch=committed_epoch,
        context=context,
        strict=strict,
    )
    if committed_epoch < 0:
        return report  # nothing committed yet: nothing to audit
    report.violations.extend(
        check_parity_coherence(cluster, layout, strict, scheme=scheme)
    )
    report.violations.extend(
        check_layout_validity(cluster, layout, strict, scheme=scheme, domains=domains)
    )
    report.violations.extend(
        check_epoch_coherence(cluster, layout, committed_epoch, strict)
    )
    report.violations.extend(
        check_two_phase_atomicity(cluster, layout, committed_epoch, strict)
    )
    report.violations.extend(
        check_single_failure_recoverable(cluster, layout, strict, scheme=scheme)
    )
    return report
