"""Tests for RDP double parity — the Section II-B2 extension of DVDC —
run through the one protocol path as ``dvdc(..., scheme="rdp")``."""

from itertools import combinations

import numpy as np
import pytest

from repro.audit import FaultSpec, FuzzConfig, run_trial
from repro.audit import fuzzer as fuzzer_mod
from repro.cluster import ClusterSpec, VirtualCluster, VMState
from repro.coding import shard_key
from repro.core import GroupLayout, LayoutError, RaidGroup, dvdc
from repro.sim import Simulator

from conftest import run_process


def _cluster(n_nodes=6, vms=12, seed=4):
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
    rng = np.random.default_rng(seed)
    for vm in cluster.create_vms_balanced(vms, 1e9, image_pages=16, page_size=64):
        vm.image.write(0, rng.integers(0, 256, 512, dtype=np.uint8))
        vm.image.clear_dirty()
    return sim, cluster, rng


def _rdp(cluster):
    return dvdc(cluster, group_size=3, scheme="rdp")


class TestLayout:
    def test_parity_nodes_distinct_and_off_members(self):
        sim, cluster, _ = _cluster()
        layout = _rdp(cluster).layout
        for g in layout.groups:
            member_nodes = {cluster.vm(v).node_id for v in g.member_vm_ids}
            row, diag = g.parity_nodes
            assert row not in member_nodes
            assert diag not in member_nodes
            assert row != diag

    def test_needs_group_size_plus_two_nodes(self):
        sim, cluster, _ = _cluster(n_nodes=4, vms=8)
        with pytest.raises(LayoutError):
            _rdp(cluster)

    def test_all_vms_covered(self):
        sim, cluster, _ = _cluster()
        layout = _rdp(cluster).layout
        assert layout.vm_ids == list(range(12))

    def test_group_validation(self):
        with pytest.raises(LayoutError):
            RaidGroup(0, (1, 2), 3, (3,))  # same parity node twice
        with pytest.raises(LayoutError):
            GroupLayout([
                RaidGroup(0, (1,), 2, (3,)),
                RaidGroup(1, (1,), 4, (5,)),
            ])

    def test_group_of(self):
        layout = GroupLayout([RaidGroup(0, (7,), 1, (2,))])
        assert layout.group_of(7).group_id == 0
        with pytest.raises(LayoutError):
            layout.group_of(99)


class TestCycle:
    def test_cycle_stores_both_shards(self):
        sim, cluster, _ = _cluster()
        ck = _rdp(cluster)

        r = run_process(sim, ck.run_cycle())
        assert r.committed
        for g in ck.layout.groups:
            row, diag = g.parity_nodes
            assert g.group_id in cluster.node(row).parity_store
            assert shard_key(g.group_id, 1) in cluster.node(diag).parity_store

    def test_traffic_double_single_parity(self):
        sim, cluster, _ = _cluster()
        ck = _rdp(cluster)

        r = run_process(sim, ck.run_cycle())
        # each of 12 x 1 GB images ships to two parity nodes
        assert r.network_bytes == pytest.approx(24e9)

    def test_row_shard_matches_xor_of_members(self):
        from repro.cluster import xor_reduce

        sim, cluster, _ = _cluster()
        ck = _rdp(cluster)
        run_process(sim, ck.run_cycle())
        g = ck.layout.groups[0]
        row = cluster.node(g.parity_node).parity_store[g.group_id]
        payloads = [
            cluster.hypervisor(cluster.vm(v).node_id).committed(v).payload_flat()
            for v in g.member_vm_ids
        ]
        nbytes = payloads[0].shape[0]
        assert np.array_equal(row.data[:nbytes], xor_reduce(payloads))


class TestDoubleFailureRecovery:
    def _checkpoint(self, sim, cluster, ck, rng):
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 16, 3), rng)

        run_process(sim, proc())
        return committed

    @pytest.mark.parametrize("pair", list(combinations(range(6), 2)))
    def test_every_two_node_crash_recoverable(self, pair):
        """The RDP promise: ANY two simultaneous node failures are
        survivable — exhaustively over all 15 node pairs."""
        sim, cluster, rng = _cluster()
        ck = _rdp(cluster)
        committed = self._checkpoint(sim, cluster, ck, rng)
        a, b = pair
        cluster.kill_node(a)
        cluster.kill_node(b)

        run_process(sim, ck.recover(a))
        for vm in cluster.all_vms:
            assert vm.state == VMState.RUNNING
            assert np.array_equal(vm.image.flat, committed[vm.vm_id]), (
                f"vm{vm.vm_id} not bit-exact after killing nodes {pair}"
            )

    def test_single_failure_also_fine(self):
        sim, cluster, rng = _cluster()
        ck = _rdp(cluster)
        committed = self._checkpoint(sim, cluster, ck, rng)
        cluster.kill_node(2)

        run_process(sim, ck.recover(2))
        for vm in cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])

    def test_recover_before_checkpoint_raises(self):
        sim, cluster, _ = _cluster()
        ck = _rdp(cluster)
        cluster.kill_node(0)

        with pytest.raises(RuntimeError):
            run_process(sim, ck.recover(0))

    def test_post_recovery_cycle_consistent(self):
        sim, cluster, rng = _cluster()
        ck = _rdp(cluster)
        self._checkpoint(sim, cluster, ck, rng)
        cluster.kill_node(0)
        cluster.kill_node(3)

        def proc():
            yield from ck.recover(0)
            for vm in cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 16, 2), rng)
            r = yield from ck.run_cycle()
            return r

        r = run_process(sim, proc())
        assert r.committed
        # both shards for every group live on alive nodes again
        for g in ck.layout.groups:
            row, diag = g.parity_nodes
            assert cluster.node(row).alive
            assert cluster.node(diag).alive


class TestBeyondXorTolerance:
    """The same double crash that RDP absorbs is fate under XOR."""

    def _double_loss(self):
        sim, cluster, rng = _cluster()
        ck = dvdc(cluster, group_size=3)
        run_process(sim, ck.run_cycle())
        g = ck.layout.groups[0]
        a, b = (cluster.vm(v).node_id for v in g.member_vm_ids[:2])
        cluster.kill_node(a)
        cluster.kill_node(b)
        with pytest.raises(RuntimeError) as info:
            run_process(sim, ck.recover(a))
        return str(info.value)

    def test_double_loss_in_one_group_raises_beyond_tolerance(self):
        assert "— beyond xor tolerance 1" in self._double_loss()

    def test_fuzzer_classifies_it_as_fate(self):
        message = self._double_loss()
        assert any(m in message for m in fuzzer_mod._UNRECOVERABLE_MARKERS)
        config = FuzzConfig(n_cycles=3, scheme="xor")
        schedule = (
            FaultSpec(cycle=1, phase="idle", node=1, frac=0.4),
            FaultSpec(cycle=1, phase="idle", node=2, frac=0.45),
        )
        trial = run_trial(config, schedule, seed=0)
        assert "— beyond xor tolerance 1" in trial.unrecoverable
        assert not trial.failed
