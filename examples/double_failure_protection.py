#!/usr/bin/env python
"""Double-failure protection with RDP — past the paper's XOR scheme.

Section II-B2 notes that Wang et al. extended diskless checkpointing
with Row-Diagonal Parity to tolerate two simultaneous failures.  In this
reproduction that extension is the same DVDC protocol with
``scheme="rdp"``.  This example runs it end to end on a 6-node cluster:

1. one RDP checkpoint epoch (each group's row AND diagonal parity land
   on two distinct non-member nodes);
2. a *simultaneous two-node crash* — the scenario single-parity DVDC
   cannot survive;
3. full bit-exact recovery of every lost VM;
4. the cost comparison: what the extra nine of protection buys and costs.

Run:  python examples/double_failure_protection.py
"""

import numpy as np

from repro import ClusterSpec, VirtualCluster
from repro.analysis import format_bytes, format_seconds, render_table
from repro.core import dvdc
from repro.sim import Simulator

GB = 1e9


def build_cluster(seed: int):
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
    rng = np.random.default_rng(seed)
    for vm in cluster.create_vms_balanced(12, GB, image_pages=32, page_size=128):
        vm.image.write(0, rng.integers(0, 256, 2048, dtype=np.uint8))
        vm.image.clear_dirty()
    return sim, cluster, rng


def main() -> None:
    sim, cluster, rng = build_cluster(seed=11)
    ck = dvdc(cluster, group_size=3, scheme="rdp")
    layout = ck.layout

    print("RDP groups (members -> row parity node, diagonal parity node):")
    for g in layout.groups:
        nodes = [cluster.vm(v).node_id for v in g.member_vm_ids]
        row, diag = g.parity_nodes
        print(f"  group {g.group_id}: VMs {list(g.member_vm_ids)} on nodes "
              f"{nodes} -> row@{row}, diag@{diag}")

    out = {}

    def epoch():
        out["r"] = yield from ck.run_cycle()

    sim.run_processes(epoch())
    r = out["r"]
    print(f"\nRDP epoch: overhead {format_seconds(r.overhead)}, latency "
          f"{format_seconds(r.latency)}, traffic {format_bytes(r.network_bytes)} "
          "(each image ships to two parity nodes)")

    committed = {
        vm.vm_id: cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        .payload_flat().copy()
        for vm in cluster.all_vms
    }
    for vm in cluster.all_vms:
        vm.image.touch_pages(rng.integers(0, 32, 4), rng)

    # the killer scenario: two nodes die in the same instant
    lost_a = cluster.kill_node(1)
    lost_b = cluster.kill_node(4)
    lost_ids = sorted(vm.vm_id for vm in lost_a + lost_b)
    print(f"\nnodes 1 and 4 crashed simultaneously: lost VMs {lost_ids}")
    for g in layout.groups:
        losses = sum(
            1 for v in g.member_vm_ids if cluster.vm(v).node_id is None
        )
        losses += sum(1 for n in g.parity_nodes if not cluster.node(n).alive)
        print(f"  group {g.group_id} lost {losses} shard(s)"
              f"{' — beyond XOR, within RDP' if losses == 2 else ''}")

    def recover():
        out["rep"] = yield from ck.recover(1)

    sim.run_processes(recover())
    rep = out["rep"]
    print(f"\nrecovery: {format_seconds(rep.recovery_time)}; reconstructed "
          f"{dict(rep.reconstructed)}; re-encoded groups {rep.reencoded_groups}")

    ok = all(
        np.array_equal(vm.image.flat, committed[vm.vm_id])
        for vm in cluster.all_vms
    )
    print(f"bit-exact verification: {'PASS' if ok else 'FAIL'}")
    assert ok

    # cost comparison vs single-parity DVDC on an equivalent cluster
    sim2, cluster2, _ = build_cluster(seed=12)
    ck_xor = dvdc(cluster2, group_size=3)
    out2 = {}

    def epoch2():
        out2["r"] = yield from ck_xor.run_cycle()

    sim2.run_processes(epoch2())
    r_xor = out2["r"]
    rows = [
        ["XOR (paper)", "1 node crash", format_bytes(r_xor.network_bytes),
         format_bytes(4 * GB), format_seconds(r_xor.latency)],
        ["RDP (this example)", "ANY 2 node crashes", format_bytes(r.network_bytes),
         format_bytes(8 * GB), format_seconds(r.latency)],
    ]
    print()
    print(render_table(
        ["code", "tolerates", "epoch traffic", "parity memory", "epoch latency"],
        rows,
        title="Protection vs cost (12 x 1 GB VMs, group size 3)",
    ))
    print("\nRDP doubles checkpoint traffic and parity memory in exchange "
          "for surviving any simultaneous pair of node crashes.")


if __name__ == "__main__":
    main()
