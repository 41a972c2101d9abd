"""Correctness checks the benchmark makes on every run.

Each check recomputes what the program should have produced with code
of its own (numpy XOR, ``zlib`` CRC-32), or tests a property the method
must have.  None compares against a stored copy of earlier output.
Every function returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.model.poisson import expected_time_with_overhead

#: Half-width, in standard errors, of the interval a Monte-Carlo mean
#: must share with the closed form.  At 5 a correct estimate falls
#: outside with probability below 1e-6, so the check does not flicker
#: across seeds, while an estimate off by 0.2% of E[T] still fails.
MC_Z = 5.0


def _crc_ok(data: np.ndarray, stored: int | None) -> bool:
    """``stored`` is CRC-32 in the low word, byte length in the high."""
    buf = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    return stored is not None and stored == (buf.size << 32 | zlib.crc32(buf))


def committed_bytes(cluster) -> dict[int, np.ndarray]:
    """A private copy of every VM's committed checkpoint bytes."""
    out = {}
    for vm in cluster.all_vms:
        image = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        out[vm.vm_id] = image.payload_flat().copy()
    return out


def image_errors(cluster) -> list[str]:
    """Nothing writes a VM's memory while an epoch runs, so once it has
    committed, every VM's committed checkpoint holds exactly its memory;
    a dirty page the capture or the merge dropped leaves it stale."""
    errors = []
    for vm in cluster.all_vms:
        image = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        if image is None or not np.array_equal(image.payload_flat(), vm.image.flat):
            errors.append(f"vm {vm.vm_id}: committed checkpoint != memory")
    return errors


def xor_parity_errors(ck) -> list[str]:
    """Each group's parity block must equal the XOR of its members'
    committed images."""
    cluster = ck.cluster
    errors = []
    for group in ck.layout.groups:
        members = [
            cluster.hypervisor(cluster.vm(v).node_id).committed(v).payload_flat()
            for v in group.member_vm_ids
        ]
        expect = np.bitwise_xor.reduce(np.stack(members), axis=0)
        block = cluster.node(group.parity_node).parity_store.get(group.group_id)
        if block is None or block.data is None:
            errors.append(f"group {group.group_id}: no parity block")
        elif not np.array_equal(block.data.reshape(-1).view(np.uint8), expect):
            errors.append(f"group {group.group_id}: parity != XOR of members")
    return errors


def crc_errors(cluster) -> list[str]:
    """Every stored checkpoint image and parity block must carry the
    CRC-32 of its bytes."""
    errors = []
    for node in cluster.alive_nodes:
        for vm_id, image in node.checkpoint_store.items():
            if not _crc_ok(image.payload_flat(), image.meta.get("checksum")):
                errors.append(f"node {node.node_id}: vm {vm_id} checkpoint CRC")
        for key, block in node.parity_store.items():
            if not _crc_ok(block.data, block.checksum):
                errors.append(f"node {node.node_id}: parity block {key} CRC")
    return errors


def recovery_errors(cluster, saved: dict[int, np.ndarray]) -> list[str]:
    """After recovery every VM runs again, on an alive node, and both its
    memory and its committed checkpoint hold the bytes committed before
    the crash."""
    errors = []
    for vm in cluster.all_vms:
        want = saved[vm.vm_id]
        if vm.node_id is None or not cluster.node(vm.node_id).alive:
            errors.append(f"vm {vm.vm_id}: not running after recovery")
            continue
        if not np.array_equal(vm.image.flat, want):
            errors.append(f"vm {vm.vm_id}: memory != committed bytes")
        image = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        if image is None or not np.array_equal(image.payload_flat(), want):
            errors.append(f"vm {vm.vm_id}: checkpoint != committed bytes")
    return errors


def serving_errors(report: dict, demands: np.ndarray) -> list[str]:
    """Every generated request is offered and completed, none lost; and
    the p99 sojourn is at least the p99 demand, since a processor-sharing
    sojourn is never shorter than the request's own demand."""
    errors = []
    n = int(demands.size)
    if not report["offered"] == report["completed"] == n:
        errors.append(
            f"generated {n}, offered {report['offered']}, "
            f"completed {report['completed']}"
        )
    if report["lost"] or report["lost_unrouted"]:
        errors.append(f"lost {report['lost']} + {report['lost_unrouted']} unrouted")
    floor = float(np.quantile(demands, 0.99))
    if not report["latency"]["p99"] >= floor:
        errors.append(
            f"p99 {report['latency']['p99']:.6g} s below p99 demand {floor:.6g} s"
        )
    return errors


def mc_errors(rows: list[dict], T: float, T_ov: float, T_r: float, runs: int) -> list[str]:
    """Each case's Monte-Carlo mean must match the closed form
    ``expected_time_with_overhead`` within ``MC_Z`` standard errors."""
    errors = []
    for row in rows:
        est = row["estimate"]
        model = expected_time_with_overhead(row["lam"], T, row["N"], T_ov, T_r)
        if est.n_runs != runs:
            errors.append(f"MTBF {row['mtbf_h']:g} h: {est.n_runs} of {runs} trials")
        if not abs(est.mean - model) <= MC_Z * est.std_error:
            errors.append(
                f"MTBF {row['mtbf_h']:g} h: MC {est.mean:.6g} s vs closed form "
                f"{model:.6g} s (SE {est.std_error:.3g} s)"
            )
    return errors
