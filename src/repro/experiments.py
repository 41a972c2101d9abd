"""High-level experiment harness.

The benches, examples, and CLI all run variations of two experiments:
*paired job comparisons* (several checkpointing methods over identical
failure traces) and *epoch microbenchmarks* (one cycle of each
architecture on an equivalent cluster).  This module is the single
implementation both lean on, and the programmatic entry point for
downstream studies::

    from repro.experiments import PairedJobStudy, MethodSpec

    study = PairedJobStudy(
        methods=[MethodSpec("dvdc"), MethodSpec("diskful")],
        work=4 * 3600, interval=600, node_mtbf=6 * 3600, seeds=10,
    )
    outcome = study.run()
    print(outcome.summary_table())
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis.stats import summarize
from .analysis.tables import format_seconds, render_table
from .checkpoint.adaptive import AdaptivePolicy
from .checkpoint.diskful import DiskfulCheckpointer
from .checkpoint.strategies import ForkedCapture, IncrementalCapture
from .core.architectures import checkpoint_node, dvdc, first_shot
from .failures.distributions import Exponential, FailureDistribution
from .failures.injector import FailureInjector, FailureSchedule
from .workloads.app import CheckpointedJob, JobResult
from .workloads.generators import scaled_scenario

__all__ = ["MethodSpec", "JobOutcome", "StudyOutcome", "PairedJobStudy"]

#: Named method constructors: name -> (factory(cluster, incremental) -> ckpt)
_METHOD_NAMES = ("dvdc", "diskful", "dvdc_rdp", "checkpoint_node", "first_shot")


@dataclass(frozen=True)
class MethodSpec:
    """One checkpointing configuration to compare.

    ``name`` ∈ {dvdc, diskful, dvdc_rdp, checkpoint_node, first_shot}.
    ``dvdc_rdp`` is DVDC with RDP double parity (``scheme="rdp"``).
    ``incremental`` uses dirty-page capture where the method supports it
    (dvdc, dvdc_rdp, diskful); ``overlap`` runs the job in
    latency-hiding mode.
    ``label`` defaults to a description of the flags.
    """

    name: str
    incremental: bool = True
    overlap: bool = False
    label: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r}; pick from {_METHOD_NAMES}"
            )

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        bits = [self.name]
        if not self.incremental:
            bits.append("full")
        if self.overlap:
            bits.append("overlap")
        return "+".join(bits)

    def build(self, cluster):
        """Instantiate the checkpointer on a cluster."""
        strategy = IncrementalCapture() if self.incremental else ForkedCapture()
        if self.name == "dvdc":
            return dvdc(cluster, strategy=strategy)
        if self.name == "diskful":
            return DiskfulCheckpointer(cluster, strategy=strategy)
        if self.name == "dvdc_rdp":
            return dvdc(
                cluster, group_size=max(1, cluster.n_nodes - 2),
                strategy=strategy, scheme="rdp",
            )
        if self.name == "checkpoint_node":
            node = cluster.n_nodes - 1
            for vm in list(cluster.vms_on(node)):
                cluster.node(node).evict(vm)
                del cluster.vms[vm.vm_id]
            return checkpoint_node(cluster, node_id=node)
        # first_shot: thin to one VM per node, freeing the last node
        for node_id in range(cluster.n_nodes):
            vms = cluster.vms_on(node_id)
            drop = vms[1:] if node_id < cluster.n_nodes - 1 else vms
            for vm in drop:
                cluster.node(node_id).evict(vm)
                del cluster.vms[vm.vm_id]
        return first_shot(cluster)


@dataclass
class JobOutcome:
    """One (method, seed) cell of a study."""

    method: str
    seed: int
    result: JobResult
    #: serving-sidecar report (latency quantiles, loss, stalls) when the
    #: study ran with ``serving=...``; None otherwise
    serving: dict | None = None


@dataclass
class StudyOutcome:
    """All cells plus aggregation helpers."""

    cells: list[JobOutcome] = field(default_factory=list)
    work: float = 0.0

    def for_method(self, method: str) -> list[JobResult]:
        return [c.result for c in self.cells if c.method == method]

    def completion_rate(self, method: str) -> float:
        rs = self.for_method(method)
        return sum(r.completed for r in rs) / len(rs) if rs else float("nan")

    def mean_ratio(self, method: str) -> float:
        rs = [r.time_ratio for r in self.for_method(method) if r.completed]
        return float(np.mean(rs)) if rs else float("nan")

    def summary_table(self) -> str:
        methods = sorted({c.method for c in self.cells})
        rows = []
        for m in methods:
            rs = self.for_method(m)
            done = [r for r in rs if r.completed]
            ratios = [r.time_ratio for r in done]
            rows.append([
                m,
                f"{self.completion_rate(m) * 100:.0f}%",
                f"{np.mean(ratios):.3f}" if ratios else "-",
                f"{summarize(ratios).std:.3f}" if len(ratios) > 1 else "-",
                format_seconds(float(np.mean([r.checkpoint_time for r in done])))
                if done else "-",
                format_seconds(float(np.mean([r.lost_work for r in done])))
                if done else "-",
            ])
        return render_table(
            ["method", "completed", "mean T/T_ideal", "sd", "mean ckpt time",
             "mean lost work"],
            rows,
            title=f"paired study over {len({c.seed for c in self.cells})} "
                  "shared failure traces",
        )


class PairedJobStudy:
    """Run several methods over identical failure traces (CRN design).

    Parameters mirror the Fig. 5 setting by default.  Each seed draws
    one failure schedule; every method replays it exactly, so
    cross-method differences are pure protocol cost.
    """

    def __init__(
        self,
        methods: list[MethodSpec],
        work: float = 4 * 3600.0,
        interval: float | AdaptivePolicy = 600.0,
        node_mtbf: float = 6 * 3600.0,
        repair_time: float = 30.0,
        seeds: int = 5,
        n_nodes: int = 4,
        vms_per_node: int = 3,
        failure_dist: FailureDistribution | None = None,
        functional: bool = True,
        managed: bool = False,
        serving: dict | None = None,
    ):
        if not methods:
            raise ValueError("need at least one MethodSpec")
        if seeds < 1:
            raise ValueError("need at least one seed")
        if managed:
            unsupported = [m.name for m in methods if m.name != "dvdc"]
            if unsupported:
                raise ValueError(
                    "managed mode needs the dvdc single-parity protocol "
                    f"(XOR layout + healer); unsupported: {unsupported}"
                )
        self.managed = managed
        self.methods = methods
        self.work = float(work)
        self.interval = interval
        self.node_mtbf = float(node_mtbf)
        self.repair_time = float(repair_time)
        self.seeds = int(seeds)
        self.n_nodes = n_nodes
        self.vms_per_node = vms_per_node
        self.failure_dist = failure_dist or Exponential(1.0 / node_mtbf)
        self.functional = functional
        #: serving-sidecar config: ArrivalConfig fields plus optional
        #: ``clone`` and ``slo_p99``.  Every method cell then serves the
        #: identical open-loop request trace while the job runs, and the
        #: cell's JobOutcome carries the serving report.
        self.serving = dict(serving) if serving else None

    def _run_cell(self, spec: MethodSpec, seed: int) -> JobOutcome:
        # RDP needs room for two parity homes off the member nodes
        n_nodes = self.n_nodes
        if spec.name == "dvdc_rdp" and n_nodes < 4:
            raise ValueError("dvdc_rdp needs >= 4 nodes")
        sc = scaled_scenario(
            n_nodes, self.vms_per_node, seed=seed,
            functional=self.functional,
            image_pages=32 if self.functional else None,
            page_size=128,
        )
        rng = sc.rngs.stream("failure-trace")
        schedule = FailureSchedule.draw(
            rng, self.failure_dist, n_nodes,
            horizon=self.work * 10, repair_time=self.repair_time,
        )
        injector = FailureInjector(sc.sim, n_nodes, schedule=schedule)
        ck = spec.build(sc.cluster)
        controlplane = None
        if self.managed:
            # route failure handling through the coordinator: heartbeat
            # detection, fencing, recovery, healing, strict audits — the
            # job keeps only work accounting and checkpoint cadence
            from .controlplane import ControlPlane, ControlPlaneConfig

            controlplane = ControlPlane(
                sc.cluster, ck,
                config=ControlPlaneConfig(repair_time=self.repair_time),
            ).start()
        job = CheckpointedJob(
            sc.cluster, ck, work=self.work, interval=self.interval,
            injector=injector, repair_time=self.repair_time,
            overlap=spec.overlap, controlplane=controlplane,
        )
        serving = None
        if self.serving is not None:
            serving = self._build_serving(sc, ck, injector, job)
        injector.start()
        proc = job.start()
        if controlplane is not None:
            proc.subscribe(lambda ev: controlplane.stop())
        sc.sim.run(until=self.work * 100)
        if proc.ok is False:
            raise proc.value
        return JobOutcome(
            method=spec.display, seed=seed, result=job.result,
            serving=serving.report() if serving is not None else None,
        )

    def _build_serving(self, sc, ck, injector, job):
        """Attach a serving sidecar: the job owns checkpoint cadence and
        recovery; the sidecar serves traffic through those disruptions."""
        from .serving.arrivals import ArrivalConfig, OpenLoopArrivals
        from .serving.controller import SLAController
        from .serving.runtime import ServingRuntime

        cfg = dict(self.serving)
        clone = int(cfg.pop("clone", 1))
        slo_p99 = cfg.pop("slo_p99", None)
        runtime = ServingRuntime(
            sc,
            OpenLoopArrivals(ArrivalConfig(**cfg), sc.rngs),
            checkpointer=ck,
            injector=injector,
            job=job,
            repair_time=self.repair_time,
            clone=clone,
        )
        if slo_p99 is not None:
            # steer the *job's* checkpoint interval against the SLO
            runtime.controller = SLAController(job, float(slo_p99))
        runtime.start()
        return runtime

    def run(self) -> StudyOutcome:
        outcome = StudyOutcome(work=self.work)
        for seed in range(self.seeds):
            for spec in self.methods:
                outcome.cells.append(self._run_cell(spec, seed))
        return outcome
