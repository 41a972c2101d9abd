"""The four benchmark workloads.

Each workload builds its inputs from ``seed`` alone, drives the program
through its public API, and checks every output it produces (see
:mod:`checks`).  A run calls :meth:`setup` once, then :meth:`round`
with ``r = 0, 1, 2, ...``: a round is a fixed list of operations, so
every run attempts whole rounds of the same operations.  Inside a
round, the parts that belong to an operation run under
``meter.timed()``; input generation and the correctness checks run
outside it and are not timed.

``round`` returns the simulated results of the round (keys of
:data:`SIM_KEYS`); they depend on ``(seed, r)`` only, never on the host.
"""

from __future__ import annotations

import time

import numpy as np

import checks
from repro.campaign.presets import run_validate_campaign
from repro.checkpoint.strategies import IncrementalCapture
from repro.cluster.cluster import ClusterSpec, VirtualCluster
from repro.core.architectures import dvdc
from repro.serving.arrivals import OpenLoopArrivals
from repro.serving.study import ServingLoad, policies_named, run_serving_cell
from repro.sim import Simulator
from repro.sim.rng import RngRegistry, derive_seed

#: Simulated results a round may report; the traced run prints each
#: under the per-layer name given here (0 where a workload has none).
SIM_KEYS = {
    "ckpt_overhead_s": "core.sim_ckpt_overhead_s",
    "recovery_s": "core.sim_recovery_s",
    "p99_s": "serving.sim_p99_s",
    "job_time_s": "model.sim_job_time_s",
}


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _run(sim: Simulator, gen):
    """Run one protocol process to completion and return its value."""
    proc = sim.process(gen)
    sim.run()
    if proc.ok is False:
        raise proc.value
    return proc.value


class Workload:
    """Seed, size overrides (the tests shrink the inputs) and the list
    of correctness-check failures every workload keeps."""

    #: the simulated result ``sim_result_s`` reports
    headline: str

    def __init__(self, seed: int, **sizes):
        self.seed = seed
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"unknown size {key!r}")
            setattr(self, key, value)
        self.errors: list[str] = []
        #: why operations were counted as failed (the run prints them)
        self.failures: list[str] = []

    def release(self) -> None:
        """Drop the world built by :meth:`setup` or the last round."""


class _DisklessWorkload(Workload):
    """A functional DVDC cluster: VMs with real page images on a flat
    switched fabric, protected by ``dvdc(...)`` with incremental capture.

    VM sizes (the logical bytes the timing model charges) are drawn per
    VM from ``mem_range``; the page images are filled with random bytes.
    """

    n_nodes: int
    vms_per_node = 4
    group_size: int
    scheme: str | None = None
    image_pages: int
    page_size: int
    mem_range = (0.8e9, 1.2e9)
    sim = cluster = ck = None

    @property
    def n_vms(self) -> int:
        return self.n_nodes * self.vms_per_node

    def _build(self, r: int) -> None:
        rng = _rng(0, self.seed, r)
        self.release()
        self.sim = Simulator()
        self.cluster = VirtualCluster(self.sim, ClusterSpec(n_nodes=self.n_nodes))
        mem = rng.uniform(*self.mem_range, size=self.n_vms)
        nbytes = self.image_pages * self.page_size
        content = rng.integers(0, 256, size=(self.n_vms, nbytes), dtype=np.uint8)
        for i in range(self.n_vms):
            vm = self.cluster.create_vm(
                i % self.n_nodes, float(mem[i]), dirty_rate=2e5,
                image_pages=self.image_pages, page_size=self.page_size,
            )
            vm.image.write(0, content[i])
            vm.image.clear_dirty()
        self.ck = dvdc(
            self.cluster, group_size=self.group_size,
            strategy=IncrementalCapture(), scheme=self.scheme,
        )

    def _base(self) -> None:
        """The full-image epoch every incremental epoch builds on."""
        res = _run(self.sim, self.ck.run_cycle())
        if not res.committed:
            raise RuntimeError("base epoch did not commit")

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self._build(0)
        t1 = time.perf_counter()
        self._base()
        return {"build_s": t1 - t0, "base_s": time.perf_counter() - t1}

    def release(self) -> None:
        self.sim = self.cluster = self.ck = None

    def _touch(self, pages: np.ndarray, rng: np.random.Generator) -> None:
        for vm, idx in zip(self.cluster.all_vms, pages):
            vm.image.touch_pages(idx, rng)

    def _epoch(self, pages, rng, meter):
        with meter.timed():
            self._touch(pages, rng)
            res = _run(self.sim, self.ck.run_cycle())
        return res

    def _crash(self, nodes, pages, rng, meter):
        """Dirty every VM (work the crash rolls back), crash ``nodes``
        at once, recover, repair; then check the recovered state."""
        saved = checks.committed_bytes(self.cluster)
        with meter.timed():
            self._touch(pages, rng)
            for n in nodes:
                self.cluster.kill_node(n)
            t = time.perf_counter()
            report = _run(self.sim, self.ck.recover(nodes[0]))
            meter.layer("core.recover_s", time.perf_counter() - t)
            for n in nodes:
                self.cluster.repair_node(n)
        self.errors += checks.recovery_errors(self.cluster, saved)
        self.errors += checks.crc_errors(self.cluster)
        return report


class XorScale(_DisklessWorkload):
    """The paper's protocol at scale: XOR single parity, groups of 4,
    1024 nodes x 4 VMs of 16 x 64 B pages.  A round is 3 incremental
    epochs (4 random page writes per VM each) and one crash of a random
    node, recovered and repaired; all 4 count as operations."""

    n_nodes = 1024
    group_size = 4
    image_pages = 16
    page_size = 64
    dirty_pages = 4
    epochs_per_round = 3
    headline = "ckpt_overhead_s"

    def _pages(self, rng):
        return rng.integers(0, self.image_pages, size=(self.n_vms, self.dirty_pages))

    def round(self, r: int, meter) -> dict:
        rng = _rng(1, self.seed, r)
        overheads = []
        for _ in range(self.epochs_per_round):
            res = self._epoch(self._pages(rng), rng, meter)
            meter.ops(1, failed=0 if res.committed else 1)
            overheads.append(res.overhead)
            self.errors += checks.image_errors(self.cluster)
            self.errors += checks.xor_parity_errors(self.ck)
        node = int(rng.integers(self.n_nodes))
        report = self._crash([node], self._pages(rng), rng, meter)
        meter.ops(1)
        return {
            "ckpt_overhead_s": float(np.mean(overheads)),
            "recovery_s": report.recovery_time,
        }


class RsRecover(_DisklessWorkload):
    """RS(8,2) with MiB images: 16 nodes x 4 VMs of 256 x 4 KiB pages.

    One operation is an incremental epoch that rewrites 1/8 of every
    VM's pages, then two simultaneous node crashes, recovery and repair.
    A round starts from a freshly built cluster (not timed) and runs
    one operation per pair in :attr:`crash_pairs`, so every round meets
    the same sequence of layouts; the seed draws VM sizes and contents.
    """

    n_nodes = 16
    group_size = 8
    scheme = "rs-8-2"
    image_pages = 256
    page_size = 4096
    crash_pairs = ((0, 1), (2, 3), (4, 5))
    headline = "recovery_s"

    def _pages(self, rng):
        k = self.image_pages // 8
        return np.argsort(rng.random((self.n_vms, self.image_pages)), axis=1)[:, :k]

    def round(self, r: int, meter) -> dict:
        if r > 0:
            self._build(r)
            self._base()
        rng = _rng(1, self.seed, r)
        overheads, recoveries = [], []
        for pair in self.crash_pairs:
            res = self._epoch(self._pages(rng), rng, meter)
            self.errors += checks.image_errors(self.cluster)
            report = self._crash(list(pair), self._pages(rng), rng, meter)
            meter.ops(1, failed=0 if res.committed else 1)
            overheads.append(res.overhead)
            recoveries.append(report.recovery_time)
        return {
            "ckpt_overhead_s": float(np.mean(overheads)),
            "recovery_s": float(np.mean(recoveries)),
        }


class ServeSla(Workload):
    """A checkpoint-protected serving cell under the SLA controller
    (``checkpoint_sla`` policy, default 4-node cell), fed one open-loop
    stream of 200k requests per round; no crashes.  One operation is
    one request."""

    n_requests = 200_000
    headline = "p99_s"

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.policy = policies_named(["checkpoint_sla"])[0]
        self.load = ServingLoad(n_requests=self.n_requests)
        return {"build_s": time.perf_counter() - t0, "base_s": 0.0}

    def round(self, r: int, meter) -> dict:
        trace_seed = derive_seed(self.seed, f"perfbench/serve/{r}")
        with meter.timed():
            report = run_serving_cell(self.policy, self.load, trace_seed)
        meter.ops(self.n_requests, failed=self.n_requests - report["completed"])
        demands = np.concatenate([
            c.service for c in OpenLoopArrivals(
                self.load.arrival_config(), RngRegistry(trace_seed)
            ).chunks()
        ])
        self.errors += checks.serving_errors(report, demands)
        return {
            "p99_s": report["latency"]["p99"],
            "ckpt_overhead_s": report["pause_seconds"] / max(1, report["pauses"]),
        }


class CampaignMc(Workload):
    """The VAL-MC grid (Section V closed form against Monte-Carlo) of
    ``repro campaign validate``, run through the campaign runner on 2
    worker processes, no result store.

    One operation is one Monte-Carlo trial; a round is the grid's 4
    cases x 600k trials.  The trials of a case whose mean disagrees with
    the closed form count as failed: at MTBF 4 h the program's
    Monte-Carlo charges a full ``T_ov`` on the short last segment (see
    README), and at this many trials that shows on every seed.
    """

    T, T_ov, T_r = 8 * 3600.0, 120.0, 60.0
    runs = 600_000
    chunk_runs = 16_384
    jobs = 2
    headline = "job_time_s"

    def setup(self) -> dict:
        return {"build_s": 0.0, "base_s": 0.0}

    def round(self, r: int, meter) -> dict:
        with meter.timed():
            rows, result = run_validate_campaign(
                jobs=self.jobs, store=None, T=self.T, T_ov=self.T_ov,
                T_r=self.T_r, runs=self.runs, chunk_runs=self.chunk_runs,
                seed=derive_seed(self.seed, f"perfbench/mc/{r}"),
            )
        busy = sum(run.elapsed for run in result.runs)
        meter.layer("campaign.task_s", busy)
        meter.layer("campaign.transport_s", self.jobs * result.wall_time - busy)
        meter.layer("campaign.worker_s", self.jobs * result.wall_time)
        failed = 0
        for row in rows:
            errors = checks.mc_errors([row], self.T, self.T_ov, self.T_r, self.runs)
            if errors:
                failed += self.runs
                self.failures += errors
        meter.ops(len(rows) * self.runs, failed=failed)
        return {"job_time_s": float(np.mean([row["estimate"].mean for row in rows]))}


WORKLOADS = {
    "xor-scale": XorScale,
    "rs-recover": RsRecover,
    "serve-sla": ServeSla,
    "campaign-mc": CampaignMc,
}
