"""Layer tracing from outside the program: wrap each layer's public entry
points, time them as nested wall spans, and count the work they do.

The wrappers are installed only in a traced pass (a fresh interpreter of
its own), by rebinding every module attribute and class attribute that
names an original function.  Nothing inside ``repro`` changes, and no
telemetry sink is ever attached to a device: that would make
``repro.replay.preconditions.decide`` force the event kernel.

A span's self time is its duration minus the time of its child spans.
Spans are kept in memory in start order and exported once at the end
into a :class:`repro.telemetry.Telemetry` sink (Chrome trace plus the
text flame summary).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:qualname" of the wrapped function).  Span names
#: are ``<layer>.<entry point>``; the layer is the ``repro`` subpackage.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("workloads.generate_trace", "repro.workloads.generator:generate_trace"),
    ("workloads.sync_fraction", "repro.workloads.collection:sync_fraction"),
    ("replay.plan_trace", "repro.replay.planner:plan_trace"),
    ("replay.compute_timing", "repro.replay.timing:compute_timing"),
    ("emmc.device_init", "repro.emmc.device:EmmcDevice.__init__"),
    ("emmc.submit", "repro.emmc.device:EmmcDevice.submit"),
    ("emmc.ftl.write", "repro.emmc.ftl.core:Ftl.write"),
    ("emmc.ftl.read", "repro.emmc.ftl.core:Ftl.read"),
    ("emmc.ftl.gc.collect_block", "repro.emmc.ftl.gc:GreedyGC.collect_block"),
    ("sim.run_until", "repro.sim.loop:EventLoop.run_until"),
    ("sim.host_replay", "repro.sim.host:Host.replay"),
    ("metrics.update", "repro.metrics.base:Metric.update"),
    ("experiments.execute", "repro.experiments.parallel:execute"),
    ("experiments.compute_shard", "repro.experiments.table4:compute_shard"),
    ("fleet.run_fleet", "repro.fleet.executor:run_fleet"),
    ("fleet.simulate_device", "repro.fleet.executor:simulate_device"),
    ("fleet.store.append_rows", "repro.fleet.store:FleetStoreWriter.append_rows"),
    ("fleet.store.close", "repro.fleet.store:FleetStoreWriter.close"),
)

#: Root spans the benchmark itself opens around its two phases.
SETUP_SPAN = "bench.setup"
PASS_SPAN = "bench.pass"

#: ``run.py`` derives this per-layer metric from two passes; a traced
#: pass measures all the others.
OVERHEAD_METRIC = "trace_overhead_pct"

#: The benchmark's contract: the metric names, their order and units.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: The per-layer metrics of a traced pass, in ``BENCHMARK.json`` order.
#: ``<span>.self_s`` and ``<span>.calls`` come straight from the span
#: totals; the rest are derived in :meth:`LayerTracer.layer_metrics`.
LAYER_METRICS = tuple(
    metric["name"] for metric in BENCHMARK["per_layer"] if metric["name"] != OVERHEAD_METRIC
)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Nested wall spans and exact counts for one traced pass."""

    def __init__(self) -> None:
        #: Span id -> (name, start_s, end_s, parent id); ids in start order.
        self.records: List[Optional[Tuple[str, float, float, int]]] = []
        #: Span name -> [calls, total_s, self_s].
        self.totals: Dict[str, List[float]] = {}
        #: Exact counts taken at the span boundaries.
        self.counts: Dict[str, int] = {
            "replayed_requests": 0,
            "planned_writes": 0,
            "delegated_writes": 0,
            "sim_events": 0,
        }
        #: DeviceStats of every device built during the pass.
        self.device_stats: List[object] = []
        self._open = [-1]
        self._child_s = [0.0]

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result)`` counts work."""
        records = self.records
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        child_s = self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(records)
            records.append(None)
            open_spans.append(span_id)
            child_s.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                open_spans.pop()
                inner = child_s.pop()
                duration = ended - started
                child_s[-1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - inner
                records[span_id] = (name, started, ended, open_spans[-1])
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def span(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to the wrapped functions, repro-wide."""
        after = {
            "replay.plan_trace": self._after_plan,
            "sim.run_until": self._after_run_until,
            "sim.host_replay": self._after_host_replay,
            "emmc.device_init": self._after_device_init,
        }
        for name, target in SPANS:
            owner, attribute = _resolve(target)
            original = owner.__dict__[attribute]
            traced = self.wrap(name, original, after.get(name))
            if isinstance(owner, type):
                setattr(owner, attribute, traced)
            else:
                # Functions are also bound by ``from x import f`` elsewhere.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and (
                        module.__dict__.get(attribute) is original
                    ):
                        setattr(module, attribute, traced)

    def _after_plan(self, args, plan) -> None:
        # A planned write either takes the slim walk or is delegated to
        # the real ``Ftl.write``.
        writes = int(args[1].op.sum())
        self.counts["planned_writes"] += writes
        self.counts["delegated_writes"] += writes - plan.slim_writes

    def _after_run_until(self, args, fired) -> None:
        self.counts["sim_events"] += fired

    def _after_host_replay(self, args, result) -> None:
        self.counts["replayed_requests"] += len(args[1])

    def _after_device_init(self, args, result) -> None:
        self.device_stats.append(args[0].stats)

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def layer_metrics(self, delivered: int, store_bytes: int) -> Dict[str, float]:
        """The per-layer figures of one traced pass (see BENCHMARK.json)."""
        counts = self.counts
        written = sum(stats.flash_bytes_consumed for stats in self.device_stats)
        amplified = sum(
            stats.write_amplification * stats.flash_bytes_consumed
            for stats in self.device_stats
        )
        collections = sum(stats.gc_collections for stats in self.device_stats)
        migrated = sum(stats.gc_migrated_slots for stats in self.device_stats)
        simulated = self.calls("emmc.submit") + counts["replayed_requests"]
        host_replays = self.calls("sim.host_replay")
        derived = {
            "workloads.useful_ratio": _ratio(delivered, simulated),
            "replay.fastpath_ratio": _ratio(self.calls("replay.plan_trace"), host_replays),
            "replay.delegated_write_ratio": _ratio(
                counts["delegated_writes"], counts["planned_writes"]
            ),
            "emmc.ftl.gc_migrated_per_collection": _ratio(migrated, collections),
            "emmc.ftl.write_amplification": _ratio(amplified, written),
            "sim.events": counts["sim_events"],
            "experiments.overhead_s": self.total_s("experiments.execute")
            - self.total_s("experiments.compute_shard"),
            "fleet.executor.overhead_s": self.total_s("fleet.run_fleet")
            - self.total_s("fleet.simulate_device"),
            "fleet.store.self_s": self.self_s("fleet.store.append_rows")
            + self.self_s("fleet.store.close"),
            "fleet.store.bytes": store_bytes,
        }

        spans = {name for name, _ in SPANS} | {SETUP_SPAN, PASS_SPAN}

        def value(metric: str) -> float:
            if metric in derived:
                return derived[metric]
            span, _, kind = metric.rpartition(".")
            if span not in spans or kind not in ("self_s", "calls"):
                raise KeyError(f"no layer gives the per-layer metric {metric!r}")
            return self.self_s(span) if kind == "self_s" else self.calls(span)

        return {metric: value(metric) for metric in LAYER_METRICS}

    def export(self, chrome_path, origin_s: float) -> str:
        """Write the spans as a gzipped Chrome trace; return the flame text."""
        from repro.telemetry import Telemetry, chrome_trace, flame_summary

        sink = Telemetry()
        for name, started, ended, parent in self.records:
            sink.add_wall_span(
                name, started, ended,
                cat=name.split(".")[0], track="host", parent=parent, origin_s=origin_s,
            )
        with gzip.open(chrome_path, "wt") as handle:
            chrome_trace(sink, handle)
        return flame_summary(sink, max_paths=30)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
