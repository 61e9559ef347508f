"""Per-layer self-times for the traced benchmark run.

The benchmark measures the simulator's layers from outside: :meth:`Recorder.install`
replaces each layer's public function with a timing wrapper — on its module or
class, and in every ``repro`` module that imported it by name — so nothing
under ``src/`` changes.  A wrapped call's *self* time is its duration minus
the durations of the wrapped calls nested directly inside it, so within one
process the self-times never overlap and, with the unattributed remainder,
sum to the traced wall-clock.

Pool workers forked while the wrappers are installed inherit them.  A worker
records into fresh statistics of its own and rewrites
``<spool>/worker-<pid>.json`` each time its outermost wrapped call returns;
:meth:`Recorder.merge_workers` folds those files into the parent's figures
under a ``worker.`` prefix.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from pb_stats import percentile


@dataclass(frozen=True)
class Layer:
    """One wrapped function and the figures recorded for it.

    Attributes:
        name: metric prefix, ``<module under repro>.<function>``.
        module: import path of the defining module.
        attr: ``function`` or ``Class.method`` inside ``module``.
        calls: report the call count.
        rss: report the rise of the process's peak RSS during its calls.
        misses: report the calls that made nested wrapped calls, which for a
            memoising function are the calls that missed its memo.
        bytes: report the summed size of the files whose paths it returned.
        latency: report the median call duration in milliseconds.
    """

    name: str
    module: str
    attr: str
    calls: bool = False
    rss: bool = False
    misses: bool = False
    bytes: bool = False
    latency: bool = False

    def suffixes(self) -> list[str]:
        """The figures reported for this layer, as metric-name suffixes."""
        flags = (
            (True, "self_s"),
            (self.calls, "calls"),
            (self.rss, "rss_mb"),
            (self.misses, "misses"),
            (self.bytes, "bytes"),
            (self.latency, "ms_p50"),
        )
        return [suffix for wanted, suffix in flags if wanted]


LAYERS: tuple[Layer, ...] = (
    Layer("graph.datasets.load_dataset", "repro.graph.datasets", "load_dataset"),
    Layer(
        "gcn.layer.build_model_for_dataset",
        "repro.gcn.layer",
        "build_model_for_dataset",
        rss=True,
    ),
    Layer(
        "accelerators.workload.build_model_workloads",
        "repro.accelerators.workload",
        "build_model_workloads",
        rss=True,
    ),
    Layer("graph.partition.partition_graph", "repro.graph.partition", "partition_graph", rss=True),
    Layer("core.preprocess.plan_from_graph", "repro.core.preprocess", "GrowPreprocessor.plan_from_graph"),
    Layer("harness.workloads.get_bundle", "repro.harness.workloads", "get_bundle", misses=True),
    Layer("core.accelerator.run_model", "repro.core.accelerator", "GrowSimulator.run_model", calls=True),
    Layer("accelerators.gcnax.run_model", "repro.accelerators.gcnax", "GCNAXSimulator.run_model"),
    Layer("accelerators.gamma.run_model", "repro.accelerators.gamma", "GAMMASimulator.run_model"),
    Layer("accelerators.matraptor.run_model", "repro.accelerators.matraptor", "MatRaptorSimulator.run_model"),
    Layer("accelerators.hygcn.run_layer", "repro.accelerators.hygcn", "HyGCNSimulator.run_layer"),
    Layer("core.multi_pe.run_aggregation", "repro.core.multi_pe", "MultiPEGrowSimulator.run_aggregation"),
    Layer("scaleout.engine.get_shard_plan", "repro.scaleout.engine", "get_shard_plan"),
    Layer("scaleout.engine.run", "repro.scaleout.engine", "ScaleOutSimulator.run"),
    Layer("energy.energy_model.estimate_energy", "repro.energy.energy_model", "estimate_energy"),
    Layer("api.session.run_batch", "repro.api.session", "Session.run_batch"),
    Layer("harness.cache.put", "repro.harness.cache", "ResultCache.put", calls=True, bytes=True),
    Layer("harness.cache.get", "repro.harness.cache", "ResultCache.get", latency=True),
)

#: Layers whose self-times pool workers report (the bundle rebuild and the
#: cycle model each worker runs).
WORKER_LAYERS: tuple[str, ...] = (
    "harness.workloads.get_bundle",
    "graph.datasets.load_dataset",
    "gcn.layer.build_model_for_dataset",
    "accelerators.workload.build_model_workloads",
    "graph.partition.partition_graph",
    "core.preprocess.plan_from_graph",
    "core.accelerator.run_model",
)


def import_layers() -> None:
    """Import every wrapped module (and with it every backend)."""
    for layer in LAYERS:
        importlib.import_module(layer.module)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    rss_mb: float = 0.0
    misses: int = 0
    bytes: int = 0
    durations: list[float] = field(default_factory=list)


class Recorder:
    """Self-time accounting for wrapped calls in this process and its forks.

    Args:
        spool: directory forked workers write their figures into.
        clock: the time source (a test substitutes a fake one).
    """

    def __init__(self, spool: Path, clock: Callable[[], float] = time.perf_counter):
        self.spool = Path(spool)
        self.clock = clock
        self.pid = os.getpid()
        self.in_worker = False
        self.stats: dict[str, LayerStats] = {}
        # One entry per open wrapped call: [nested seconds, nested calls].
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: Layer, function: Callable) -> Callable:
        """``function`` with its calls recorded under ``layer``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return self._call(layer, function, args, kwargs)

        return wrapper

    def _call(self, layer: Layer, function: Callable, args, kwargs):
        if os.getpid() != self.pid:
            self._become_worker()
        frame = [0.0, 0]
        self._stack.append(frame)
        rss_before = _peak_rss_mb() if layer.rss else 0.0
        started = self.clock()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = self.clock() - started
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
                self._stack[-1][1] += 1
            stats = self.stats.setdefault(layer.name, LayerStats())
            stats.self_s += elapsed - frame[0]
            stats.calls += 1
            stats.durations.append(elapsed)
            if frame[1]:
                stats.misses += 1
            if layer.rss:
                stats.rss_mb += _peak_rss_mb() - rss_before
            if self.in_worker and not self._stack:
                self._flush()
        if layer.bytes:
            stats.bytes += Path(result).stat().st_size
        return result

    def install(self) -> None:
        """Wrap every layer of :data:`LAYERS` in place."""
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            owner_name, _, function_name = layer.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[function_name]
            wrapper = self.wrap(layer, original)
            self._patch(owner, function_name, wrapper)
            if owner is module:
                # Modules that imported the function by name hold their own
                # reference to it.
                for name, other in list(sys.modules.items()):
                    if other is module or not name.startswith("repro"):
                        continue
                    for attribute, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attribute, wrapper)

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- pool workers --------------------------------------------------------

    def _become_worker(self) -> None:
        """Start clean in a forked worker: the parent's open calls are not ours."""
        self.pid = os.getpid()
        self.in_worker = True
        self.stats = {}
        self._stack = []

    def _flush(self) -> None:
        figures = {
            name: {"self_s": stats.self_s, "calls": stats.calls}
            for name, stats in self.stats.items()
        }
        path = self.spool / f"worker-{self.pid}.json"
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps(figures))
        os.replace(partial, path)

    def merge_workers(self) -> None:
        """Fold the figures every finished worker wrote into ``worker.*`` stats."""
        for path in sorted(self.spool.glob("worker-*.json")):
            for name, figures in json.loads(path.read_text()).items():
                stats = self.stats.setdefault(f"worker.{name}", LayerStats())
                stats.self_s += figures["self_s"]
                stats.calls += figures["calls"]
            path.unlink()

    # -- report ----------------------------------------------------------------

    def self_seconds(self) -> float:
        """Summed self-time of every wrapped call made in this process."""
        return sum(
            stats.self_s for name, stats in self.stats.items() if not name.startswith("worker.")
        )

    def metrics(self) -> dict[str, float]:
        """Every layer's figures by metric name, zero for layers never called."""
        empty = LayerStats()
        figures: dict[str, float] = {}
        for layer in LAYERS:
            stats = self.stats.get(layer.name, empty)
            values = {
                "self_s": stats.self_s,
                "calls": stats.calls,
                "rss_mb": stats.rss_mb,
                "misses": stats.misses,
                "bytes": stats.bytes,
            }
            if layer.latency:
                values["ms_p50"] = percentile(stats.durations, 50) * 1e3 if stats.durations else 0.0
            for suffix in layer.suffixes():
                figures[f"{layer.name}.{suffix}"] = values[suffix]
        for name in WORKER_LAYERS:
            figures[f"worker.{name}.self_s"] = self.stats.get(f"worker.{name}", empty).self_s
        return figures
