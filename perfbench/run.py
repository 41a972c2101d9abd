"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload xor-scale --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  See README.md for what each
workload and metric is.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: fresh processes whose set-up time ``setup_s`` takes the median of
SETUP_PROBES = 5
#: rounds every run completes, and over which the simulated results are
#: averaged, however short ``--seconds`` is
SIM_ROUNDS = 2
PROBE_TIMEOUT = 120


def _cap_threads() -> None:
    """Hold numeric libraries to at most one thread per usable core."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > n:
            os.environ[var] = str(n)


class Meter:
    """Times the operations of a run and counts attempts and failures.

    Only code under :meth:`timed` counts as operation time.  With a
    :class:`layers.LayerTrace` attached, tracing is on exactly there.
    """

    def __init__(self, trace=None):
        self.trace = trace
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def timed(self):
        if self.trace is not None:
            self.trace.resume()
        t = time.perf_counter()
        try:
            yield
        finally:
            self.busy += time.perf_counter() - t
            if self.trace is not None:
                self.trace.pause()

    def ops(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def layer(self, name: str, value: float) -> None:
        """A per-layer figure the workload measured itself."""
        if self.trace is not None:
            self.trace.counters[name] += value

    def rate(self) -> float:
        """Operations attempted per second of measured operation time."""
        return self.attempted / self.busy


def run_rounds(workload, meter: Meter, seconds: float, first: int, min_rounds: int,
               sims: list) -> int:
    """Run whole rounds from ``first`` until ``seconds`` have passed and
    at least ``min_rounds`` are done; returns the next round number."""
    start = time.perf_counter()
    r = first
    while True:
        sims.append(workload.round(r, meter))
        r += 1
        if r - first >= min_rounds and time.perf_counter() - start >= seconds:
            return r


def setup_probe_seconds(args) -> float:
    """Set-up time of one fresh process: from spawn until it reports the
    world ready (both clocks are the system-wide monotonic clock)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return float(out.split()[-1]) - t


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (a campaign worker); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _sim_means(sims: list[dict]) -> dict[str, float]:
    first = sims[:SIM_ROUNDS]
    return {k: statistics.fmean(s[k] for s in first) for k in first[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock, exit (set-up probes)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    _cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    t_import = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"pick from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    phases = workload.setup()
    if args.setup_only:
        print(time.perf_counter(), flush=True)
        return 0

    sims: list[dict] = []
    if args.trace:
        import layers

        plain = Meter()
        r = run_rounds(workload, plain, seconds / 2, 0, 1, sims)
        trace = layers.LayerTrace()
        trace.install()
        meter = Meter(trace)
        try:
            run_rounds(workload, meter, seconds / 2, r, max(1, SIM_ROUNDS - r), sims)
        finally:
            trace.uninstall()
        values = _layer_values(trace, meter, plain, phases, t_import, sims)
        specs = spec["per_layer"]
        attempted = plain.attempted + meter.attempted
        failed = plain.failed + meter.failed
    else:
        meter = Meter()
        run_rounds(workload, meter, seconds, 0, SIM_ROUNDS, sims)
        rss = _peak_rss_mb()
        workload.release()
        gc.collect()
        setup = statistics.median(setup_probe_seconds(args) for _ in range(SETUP_PROBES))
        values = {
            "setup_s": setup,
            "ops_per_s": meter.rate(),
            "peak_rss_mb": rss,
            "sim_result_s": _sim_means(sims)[workload.headline],
        }
        specs = spec["end_to_end"]
        attempted, failed = meter.attempted, meter.failed

    for msg in workload.errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in sorted(set(workload.failures)):
        print(f"operations failed: {msg}", file=sys.stderr)
    result = {
        "correct": not workload.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 0


def _layer_values(trace, meter: Meter, plain: Meter, phases: dict, t_import: float,
                  sims: list) -> dict[str, float]:
    """Per-layer figures of the traced rounds, normalised per operation."""
    import workloads

    ops = meter.attempted
    c = trace.counters
    values = {name: c.get(name, 0.0) / ops for name in (
        "gc.collections", "gc.pause_s", "sim.events", "network.flows",
        "network.start_flow_s", "cluster.touch_s", "cluster.capture_bytes",
        "cluster.capture_s", "cluster.xor_bytes", "cluster.checksum_s",
        "cluster.restore_s", "coding.encode_bytes", "coding.encode_s",
        "coding.decode_bytes", "coding.decode_s", "core.recover_s",
        "serving.arrivals_s", "campaign.task_s", "campaign.transport_s",
    )}
    worker_s = c.get("campaign.worker_s", 0.0)
    values["campaign.worker_util"] = c.get("campaign.task_s", 0.0) / worker_s if worker_s else 0.0
    self_times = trace.self_times()
    for layer in ("sim", "network", "cluster", "coding", "core", "checkpoint", "serving",
                  "campaign", "model", "workloads", "failures", "telemetry", "bench"):
        values[f"{layer}.self_s"] = self_times.pop(layer, 0.0) / ops
    values["other.self_s"] = sum(self_times.values()) / ops
    values["setup.import_s"] = t_import - _T0
    values["setup.build_s"] = phases["build_s"]
    values["setup.base_s"] = phases["base_s"]
    values["trace.ops_per_s"] = meter.rate()
    values["trace.overhead"] = plain.rate() / meter.rate() - 1.0
    sim = _sim_means(sims)
    for key, name in workloads.SIM_KEYS.items():
        values[name] = sim.get(key, 0.0)
    return values


if __name__ == "__main__":
    sys.exit(main())
