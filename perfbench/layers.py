"""Per-layer attribution for the traced run, measured from outside the
program.

Three sources, all switched on only while an operation's timed part
runs (:meth:`LayerTrace.resume` / :meth:`LayerTrace.pause`):

* wrappers around public functions, installed where their callers look
  them up (a class attribute, or the name a module imported), that add
  call time and work counts to named counters;
* ``gc.callbacks``, for collections and the time they pause the run;
* a ``cProfile`` profile whose self-time is grouped by ``repro``
  subpackage.  Time in code outside ``repro`` (numpy, builtins, the
  standard library) is charged to the ``repro`` layers that called it,
  split by the time each call site spent there.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import importlib
import os
import pstats
import time
from collections import defaultdict

_HERE = os.path.dirname(os.path.abspath(__file__))


def _nbytes(value) -> int:
    if value is None:
        return 0
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return sum(_nbytes(v) for v in value)


def _capture_bytes(args, result):
    return _nbytes(result.payload)


def _result_bytes(args, result):
    return _nbytes(result)


def _encode_bytes(args, result):
    return _nbytes(args[1])


def _decode_bytes(args, result):
    return _nbytes(args[1]) + _nbytes(args[2])


#: (module, attribute path, seconds counter, count counter, count function).
#: ``count function(args, result)`` gives the work of one call; None
#: counts calls.
_PATCHES = [
    ("repro.network.link", "Network.start_flow",
     "network.start_flow_s", "network.flows", None),
    ("repro.cluster.memory", "MemoryImage.touch_pages", "cluster.touch_s", None, None),
    ("repro.cluster.hypervisor", "Hypervisor.capture_full",
     "cluster.capture_s", "cluster.capture_bytes", _capture_bytes),
    ("repro.cluster.hypervisor", "Hypervisor.capture_incremental",
     "cluster.capture_s", "cluster.capture_bytes", _capture_bytes),
    ("repro.cluster.hypervisor", "Hypervisor.restore", "cluster.restore_s", None, None),
    ("repro.cluster.hypervisor", "block_checksum", "cluster.checksum_s", None, None),
    ("repro.core.dvdc", "block_checksum", "cluster.checksum_s", None, None),
    ("repro.core.dvdc", "block_checksums_rows", "cluster.checksum_s", None, None),
    ("repro.core.dvdc", "xor_fold_groups", None, "cluster.xor_bytes", _result_bytes),
    ("repro.core.dvdc", "xor_reduce_groups", None, "cluster.xor_bytes", _result_bytes),
    ("repro.core.dvdc", "xor_reduce_padded", None, "cluster.xor_bytes", _result_bytes),
    ("repro.core.dvdc", "reconstruct_missing_padded",
     None, "cluster.xor_bytes", _result_bytes),
    ("repro.coding.schemes", "ReedSolomonScheme.encode",
     "coding.encode_s", "coding.encode_bytes", _encode_bytes),
    ("repro.coding.schemes", "ReedSolomonScheme.reconstruct",
     "coding.decode_s", "coding.decode_bytes", _decode_bytes),
    ("repro.coding.schemes", "XorScheme.encode",
     "coding.encode_s", "coding.encode_bytes", _encode_bytes),
    ("repro.coding.schemes", "XorScheme.reconstruct",
     "coding.decode_s", "coding.decode_bytes", _decode_bytes),
]


def layer_of(filename: str) -> str | None:
    """The ``repro`` subpackage a source file belongs to; ``bench`` for
    this benchmark's own files; None for everything else."""
    path = os.path.abspath(filename) if not filename.startswith("<") else filename
    if os.path.dirname(path) == _HERE:
        return "bench"
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts[:-1]:
        i = len(parts) - 1 - parts[::-1].index("repro")
        rest = parts[i + 1:]
        return rest[0] if len(rest) > 1 else "repro"
    return None


def self_time_by_layer(stats: dict) -> dict[str, float]:
    """Group a ``pstats`` table's self-time by :func:`layer_of`.

    A function outside every layer passes its self-time up to its
    callers, in proportion to the time it spent under each; time with no
    layer above it lands in ``other``.
    """
    memo: dict = {}
    visiting: set = set()

    def dist(func) -> dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in visiting:
            return {"other": 1.0}
        visiting.add(func)
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values()) or 1
        out: dict[str, float] = defaultdict(float)
        for caller, w in weights.items():
            for layer, share in dist(caller).items():
                out[layer] += share * w / total
        visiting.discard(func)
        memo[func] = dict(out)
        return memo[func]

    totals: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in dist(func).items():
            totals[layer] += tt * share
    return dict(totals)


class LayerTrace:
    """Counters, GC accounting and a profile for the traced run."""

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self._profile = cProfile.Profile()
        self._restore: list = []
        self._gc_start = 0.0

    # -- switching ------------------------------------------------------
    def install(self) -> None:
        for module, attr, seconds, count, fn in _PATCHES:
            self._patch(module, attr, seconds, count, fn)
        self._patch_sim_run()
        self._patch_arrivals()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        self.pause()
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def resume(self) -> None:
        self.active = True
        self._profile.enable()

    def pause(self) -> None:
        self._profile.disable()
        self.active = False

    def add(self, name: str, value: float) -> None:
        if self.active:
            self.counters[name] += value

    # -- sources --------------------------------------------------------
    def _owner(self, module: str, attr: str):
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name

    def _replace(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch(self, module, attr, seconds, count, fn) -> None:
        owner, name = self._owner(module, attr)
        original = getattr(owner, name)
        counters = self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            t = time.perf_counter()
            result = original(*args, **kwargs)
            if seconds:
                counters[seconds] += time.perf_counter() - t
            if count:
                counters[count] += 1 if fn is None else fn(args, result)
            return result

        self._replace(owner, name, wrapper)

    def _patch_sim_run(self) -> None:
        owner, name = self._owner("repro.sim.engine", "Simulator.run")
        original = getattr(owner, name)

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            before = sim.event_count
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.add("sim.events", sim.event_count - before)

        self._replace(owner, name, run)

    def _patch_arrivals(self) -> None:
        owner, name = self._owner("repro.serving.arrivals", "OpenLoopArrivals.chunks")
        original = getattr(owner, name)

        @functools.wraps(original)
        def chunks(arrivals):
            gen = original(arrivals)
            while True:
                t = time.perf_counter()
                try:
                    chunk = next(gen)
                except StopIteration:
                    self.add("serving.arrivals_s", time.perf_counter() - t)
                    return
                self.add("serving.arrivals_s", time.perf_counter() - t)
                yield chunk

        self._replace(owner, name, chunks)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self.active:
            self.counters["gc.collections"] += 1
            self.counters["gc.pause_s"] += time.perf_counter() - self._gc_start

    def self_times(self) -> dict[str, float]:
        """Profiled self-time per layer, in seconds."""
        return self_time_by_layer(pstats.Stats(self._profile).stats)
