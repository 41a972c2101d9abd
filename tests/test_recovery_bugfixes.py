"""Regression tests for the recovery-path bugs the audit work flushed out.

Each test documents a failure mode that existed before the fix:

* a VM killed *inside* the barrier pause window had its capture outcome
  returned anyway (the capture list is built before the pause timeout),
  crashing the group cycle on the dead VM;
* ``report.network_bytes`` was charged before transfers that can die
  with ``NetworkError``, inflating recovery accounting on aborted
  rebuild/re-encode passes;
* ``_rebuild_member`` hand-rolled the survivor XOR fold instead of using
  ``reconstruct_missing_padded`` (covered via heterogeneous groups);
* parity blocks written by an XOR *incremental* epoch carried no member
  checksums, so a rebuild from a silently corrupt survivor restored
  wrong bytes without raising.
"""

import numpy as np
import pytest

from repro.checkpoint.strategies import ForkedCapture, IncrementalCapture
from repro.cluster import ClusterSpec, VirtualCluster, VMState
from repro.core import dvdc
from repro.sim import Simulator

from conftest import run_process


class TestMidPauseFailure:
    """A node crash during the barrier window must not leak stale captures."""

    def _run(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()  # epoch 0 commits cleanly
            yield sim.timeout(10.0)
            # pause window is 0.12 s (3 VMs x 40 ms serialized per node);
            # kill node 2 squarely inside it
            sim.schedule(0.06, paper_cluster.kill_node, 2)
            r = yield from ck.run_cycle()
            return r

        return ck, run_process(sim, proc())

    def test_cycle_aborts_instead_of_crashing(self, paper_cluster, sim):
        # pre-fix: AssertionError in _group_cycle on the dead VM's node
        ck, r = self._run(paper_cluster, sim)
        assert r.committed is False
        assert ck.committed_epoch == 0  # previous epoch remains the anchor

    def test_dead_vm_outcomes_dropped(self, paper_cluster, sim):
        ck, r = self._run(paper_cluster, sim)
        dead = {vm.vm_id for vm in paper_cluster.all_vms
                if vm.state == VMState.FAILED}
        assert dead == {2, 6, 10}
        assert not dead & set(r.per_vm_pause)

    def test_survivors_resume_and_recovery_succeeds(self, paper_cluster, sim, rng):
        ck, _ = self._run(paper_cluster, sim)
        for vm in paper_cluster.all_vms:
            if vm.node_id is not None:
                assert vm.state == VMState.RUNNING

        def recover():
            rep = yield from ck.recover(2)
            return rep

        rep = run_process(sim, recover())
        assert sorted(rep.reconstructed) == [2, 6, 10]
        for vm in paper_cluster.all_vms:
            hv = paper_cluster.hypervisor(vm.node_id)
            img = hv.committed(vm.vm_id)
            assert img is not None and img.epoch == 0

    def test_no_uncommitted_epoch_artifacts_leak(self, paper_cluster, sim):
        ck, _ = self._run(paper_cluster, sim)
        for node in paper_cluster.alive_nodes:
            for img in node.checkpoint_store.values():
                assert img.epoch <= ck.committed_epoch
            for block in node.parity_store.values():
                assert block.epoch <= ck.committed_epoch


class TestHeterogeneousRebuild:
    """Unequal image sizes within a group: padded reconstruction must be
    bit-exact for every member length (satellite: unify the survivor fold
    on reconstruct_missing_padded)."""

    def _build(self):
        sim = __import__("repro.sim", fromlist=["Simulator"]).Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=4))
        rng = np.random.default_rng(99)
        # three VMs per node with 1x / 2x / 4x memory footprints
        for node in range(4):
            for factor in (1, 2, 4):
                vm = cluster.create_vm(
                    node, 1e8 * factor, image_pages=8 * factor, page_size=64
                )
                vm.image.write(
                    0, rng.integers(0, 256, vm.image.nbytes, dtype=np.uint8)
                )
                vm.image.clear_dirty()
        return sim, cluster

    @pytest.mark.parametrize("node", [0, 3])
    def test_rebuild_bit_exact_all_sizes(self, node):
        sim, cluster = self._build()
        ck = dvdc(cluster)
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
            cluster.kill_node(node)
            rep = yield from ck.recover(node)
            return rep

        rep = run_process(sim, proc())
        assert len(rep.reconstructed) == 3
        sizes = set()
        for vm in cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])
            sizes.add(vm.image.nbytes)
        assert len(sizes) == 3  # the group really was heterogeneous


class TestRecoveryNetworkAccounting:
    """Bytes are charged only for transfers that actually completed."""

    def test_mid_rebuild_failure_counts_zero_bytes(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(0)
            # every rebuild flow is ~1 GB over a shared 125 MB/s NIC, so
            # nothing can have completed 1 s into the recovery — killing a
            # second node then tears every in-flight transfer
            sim.schedule(1.0, paper_cluster.kill_node, 1)
            rep = yield from ck.recover(0)
            return rep

        rep = run_process(sim, proc())
        # pre-fix: ~6 GB of never-completed survivor transfers were charged
        assert rep.network_bytes == 0
        assert rep.reconstructed == {}

    def test_successful_recovery_still_accounts_transfers(
        self, paper_cluster, sim, rng
    ):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(0)
            rep = yield from ck.recover(0)
            return rep

        rep = run_process(sim, proc())
        assert sorted(rep.reconstructed) == [0, 4, 8]
        # three groups x two remote survivors x 1 GB, plus restore
        # shipments for members rebuilt away from their parity node
        assert rep.network_bytes >= 6e9


class TestIncrementalMemberChecksums:
    """Every parity block fingerprints every member, whatever the epoch
    kind: a rebuild from a silently corrupt survivor must fail its
    end-to-end checksum instead of restoring wrong bytes."""

    @pytest.mark.parametrize(
        "scheme,strategy",
        [
            ("xor", IncrementalCapture),
            ("xor", ForkedCapture),
            ("rs-8-2", IncrementalCapture),
        ],
        ids=["xor-incremental", "xor-forked", "rs-8-2-incremental"],
    )
    def test_corrupt_survivor_fails_rebuild_checksum(self, scheme, strategy):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
        rng = np.random.default_rng(5)
        for vm in cluster.create_vms_balanced(12, 1e9, image_pages=16, page_size=64):
            vm.image.write(0, rng.integers(0, 256, 1024, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, group_size=3, strategy=strategy(), scheme=scheme)
        group = ck.layout.groups[0]
        survivor, victim = group.member_vm_ids[:2]

        def proc():
            yield from ck.run_cycle()  # full epoch
            for vm in cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 16, 3), rng)
            r = yield from ck.run_cycle()  # incremental under IncrementalCapture
            assert r.committed
            node = cluster.vm(survivor).node_id
            cluster.hypervisor(node).committed(survivor).payload_flat()[0] ^= 0xFF
            victim_node = cluster.vm(victim).node_id
            cluster.kill_node(victim_node)
            yield from ck.recover(victim_node)

        with pytest.raises(RuntimeError, match="fails its end-to-end checksum"):
            run_process(sim, proc())

    def test_incremental_epoch_fingerprints_every_member(self):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
        rng = np.random.default_rng(6)
        for vm in cluster.create_vms_balanced(12, 1e9, image_pages=16, page_size=64):
            vm.image.write(0, rng.integers(0, 256, 1024, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, group_size=3, strategy=IncrementalCapture())

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 16, 3), rng)
            yield from ck.run_cycle()

        run_process(sim, proc())
        for g in ck.layout.groups:
            block = cluster.node(g.parity_node).parity_store[g.group_id]
            assert block.epoch == 1
            for v in g.member_vm_ids:
                img = cluster.hypervisor(cluster.vm(v).node_id).committed(v)
                assert block.member_checksums[v] == img.meta["checksum"]
