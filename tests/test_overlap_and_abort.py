"""Tests for overlapped checkpointing and mid-cycle abort safety."""

import numpy as np
import pytest

from repro.checkpoint import DiskfulCheckpointer
from repro.core import dvdc
from repro.failures import FailureEvent, FailureInjector, FailureSchedule
from repro.workloads import CheckpointedJob, paper_scenario

from conftest import run_process


class TestPauseDoneEvent:
    def test_diskless_pause_done_fires_at_barrier(self):
        sc = paper_scenario(seed=1)
        ck = dvdc(sc.cluster)
        pause_done = sc.sim.event()
        times = {}

        def watcher():
            v = yield pause_done
            times["pause"] = (sc.sim.now, v)

        def cycle():
            r = yield from ck.run_cycle(pause_done=pause_done)
            times["commit"] = sc.sim.now
            return r

        sc.sim.process(watcher())
        run_process(sc.sim, cycle())
        t_pause, pause_len = times["pause"]
        assert t_pause == pytest.approx(0.12)  # barrier = 3 x 40 ms
        assert pause_len == pytest.approx(0.12)
        assert times["commit"] > t_pause + 10  # exchange takes ~25 s more

    def test_diskful_pause_done_fires_before_nas_transfer(self):
        sc = paper_scenario(seed=1)
        ck = DiskfulCheckpointer(sc.cluster)
        pause_done = sc.sim.event()
        seen = {}

        def watcher():
            yield pause_done
            seen["t"] = sc.sim.now

        sc.sim.process(watcher())
        r = run_process(sc.sim, ck.run_cycle(pause_done=pause_done))
        assert seen["t"] == pytest.approx(0.12)
        assert r.latency > 100  # the NAS pipeline dwarfs the pause


class TestMidCycleAbort:
    def test_diskless_abort_preserves_previous_epoch(self):
        sc = paper_scenario(seed=2)
        ck = dvdc(sc.cluster)
        rng = sc.rngs.stream("w")

        def proc():
            yield from ck.run_cycle()  # epoch 0 commits
            for vm in sc.cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 64, 4), rng)
            # kill a node mid-cycle: schedule the kill during the exchange
            sc.sim.schedule(5.0, sc.cluster.kill_node, 1)
            r1 = yield from ck.run_cycle()
            return r1

        r1 = run_process(sc.sim, proc())
        assert not r1.committed
        assert ck.committed_epoch == 0  # still the old epoch
        # surviving nodes still hold epoch-0 checkpoints and parity
        for g in ck.layout.groups:
            pnode = sc.cluster.node(g.parity_node)
            if pnode.alive:
                assert pnode.parity_store[g.group_id].epoch == 0

    def test_diskless_abort_then_recover_bit_exact(self):
        sc = paper_scenario(seed=3)
        ck = dvdc(sc.cluster)
        rng = sc.rngs.stream("w")
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                committed[vm.vm_id] = (
                    sc.cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 64, 4), rng)
            sc.sim.schedule(5.0, sc.cluster.kill_node, 2)
            r1 = yield from ck.run_cycle()
            assert not r1.committed
            rep = yield from ck.recover(2)
            return rep

        run_process(sc.sim, proc())
        for vm in sc.cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])

    def test_diskful_abort_keeps_old_generation(self):
        sc = paper_scenario(seed=4)
        ck = DiskfulCheckpointer(sc.cluster)

        def proc():
            yield from ck.run_cycle()
            sc.sim.schedule(10.0, sc.cluster.kill_node, 0)
            r1 = yield from ck.run_cycle()
            return r1

        r1 = run_process(sc.sim, proc())
        assert not r1.committed
        assert ck.committed_epoch == 0
        # generation 0 keys still present for every VM
        for vm_id in range(12):
            assert sc.cluster.nas.contains(f"vm{vm_id}/epoch0")


class TestOverlappedJob:
    def _run(self, kind, overlap, events=(), work=3600.0, interval=600.0):
        sc = paper_scenario(seed=5)
        inj = FailureInjector(
            sc.sim, 4, schedule=FailureSchedule(events=list(events))
        )
        ck = (
            dvdc(sc.cluster)
            if kind == "dvdc"
            else DiskfulCheckpointer(sc.cluster)
        )
        job = CheckpointedJob(
            sc.cluster, ck, work=work, interval=interval,
            injector=inj, repair_time=30.0, overlap=overlap,
        )
        inj.start()
        proc = job.start()
        sc.sim.run()
        if proc.ok is False:
            raise proc.value
        return job.result

    def test_overlap_hides_diskful_latency(self):
        blocking = self._run("diskful", overlap=False)
        overlapped = self._run("diskful", overlap=True)
        assert blocking.completed and overlapped.completed
        assert overlapped.wall_time < blocking.wall_time * 0.8
        assert overlapped.n_checkpoints == blocking.n_checkpoints

    def test_overlap_correct_under_failure(self):
        # strike while a background cycle is in flight (cycle ~230 s,
        # started right after the first 600 s work chunk + initial ckpt)
        events = [FailureEvent(950.0, 2, 0)]
        r = self._run("diskful", overlap=True, events=events)
        assert r.completed
        assert r.n_recoveries == 1
        assert r.lost_work > 0

    def test_overlap_dvdc_still_wins(self):
        events = [FailureEvent(1500.0, 1, 0)]
        r_d = self._run("dvdc", overlap=True, events=events)
        r_f = self._run("diskful", overlap=True, events=events)
        assert r_d.completed and r_f.completed
        assert r_d.wall_time < r_f.wall_time


class TestFlowTeardown:
    def test_node_crash_aborts_its_flows(self):
        from repro.network import NetworkError

        sc = paper_scenario(seed=9)
        flow = sc.cluster.topology.transfer(0, 1, 10e9, label="doomed")
        caught = {}

        def waiter():
            try:
                yield flow
            except NetworkError as exc:
                caught["err"] = str(exc)

        sc.sim.process(waiter())
        sc.sim.schedule(1.0, sc.cluster.kill_node, 0)
        sc.sim.run()
        assert "node 0 failed" in caught["err"]
        assert flow.finished_at == 1.0

    def test_receiver_crash_also_aborts(self):
        from repro.network import NetworkError

        sc = paper_scenario(seed=9)
        flow = sc.cluster.topology.transfer(0, 1, 10e9)
        sc.sim.schedule(1.0, sc.cluster.kill_node, 1)  # receiver dies
        sc.sim.run()
        assert flow.ok is False

    def test_unrelated_flows_survive(self):
        sc = paper_scenario(seed=9)
        doomed = sc.cluster.topology.transfer(0, 1, 1e9)
        safe = sc.cluster.topology.transfer(2, 3, 1e9)
        sc.sim.schedule(1.0, sc.cluster.kill_node, 0)
        sc.sim.run()
        assert doomed.ok is False
        assert safe.ok is True

    def test_cycle_with_teardown_still_aborts_cleanly(self):
        """A mid-cycle crash now tears down the exchange flows AND
        aborts the epoch; recovery still lands bit-exact."""
        sc = paper_scenario(seed=10)
        ck = dvdc(sc.cluster)
        rng = sc.rngs.stream("w")
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                committed[vm.vm_id] = (
                    sc.cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 64, 4), rng)
            sc.sim.schedule(3.0, sc.cluster.kill_node, 1)
            r1 = yield from ck.run_cycle()
            assert not r1.committed
            rep = yield from ck.recover(1)
            return rep

        run_process(sc.sim, proc())
        for vm in sc.cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])

    def test_rdp_cycle_abort_guard(self):
        from repro.cluster import ClusterSpec, VirtualCluster
        from repro.core import dvdc
        from repro.sim import Simulator

        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
        rng = np.random.default_rng(2)
        for vm in cluster.create_vms_balanced(12, 1e9, image_pages=16, page_size=64):
            vm.image.write(0, rng.integers(0, 256, 512, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, group_size=3, scheme="rdp")

        def proc():
            yield from ck.run_cycle()
            sim.schedule(5.0, cluster.kill_node, 2)
            r1 = yield from ck.run_cycle()
            return r1

        r1 = run_process(sim, proc())
        assert not r1.committed
        assert ck.committed_epoch == 0
