"""Spans around the program's layer entry points, and the per-layer metrics.

The traced run installs wrappers from the benchmark's own code around
public (and a few module-level) entry points of each ``repro`` layer.
The program's source is not changed.  A wrapper records one span per
call: name, start, end, parent span, the op it belongs to and the
process that ran it.  Spans stay in memory; forked shard workers
inherit the wrappers and write their spans to one file per process in
the trace directory, which :func:`merge_worker_spans` reads back.

A span's *self time* is its duration minus the part covered by its
children (:func:`self_times`).  Per-layer figures are sums of spans
over the traced ops, divided by the op count where they are per-op.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

#: Spans that are calls into an engine entry point.
ENGINE_SPANS = ("engine.reference", "engine.fused", "engine.compiled",
                "engine.compiled_fleet", "engine.batched")

#: Op id of the spans recorded during set-up and warm-up.
SETUP_OP = "setup"

#: Per-layer metrics the traced run reports, in ``BENCHMARK.json`` order.
PER_LAYER_METRICS = (
    ("engine.calls", "count"),
    ("engine.busy_s", "s"),
    ("engine.lane_samples", "count"),
    ("engine.samples_per_busy_s", "1/s"),
    ("engine.mean_lanes", "count"),
    ("engine.stimulus_s", "s"),
    ("engine.noise_s", "s"),
    ("engine.codegen_s", "s"),
    ("engine.kernels", "count"),
    ("scenarios.campaign_s", "s"),
    ("scenarios.self_s", "s"),
    ("scenarios.rounds", "count"),
    ("scenarios.extract_s", "s"),
    ("scenarios.materialize_s", "s"),
    ("executor.wall_s", "s"),
    ("executor.worker_busy_s", "s"),
    ("executor.critical_s", "s"),
    ("executor.overhead_s", "s"),
    ("executor.efficiency", "ratio"),
    ("executor.shard_lanes", "count"),
    ("executor.attempts", "count"),
    ("executor.attempts_failed", "count"),
    ("executor.worker_peak_rss_mb", "MB"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.key_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.quarantined", "count"),
    ("platform.import_s", "s"),
    ("platform.prepare_s", "s"),
    ("sensors.ref_ns_per_sample", "ns"),
    ("afe.adc.ref_ns_per_sample", "ns"),
    ("afe.dac.ref_ns_per_sample", "ns"),
    ("gyro.drive.ref_ns_per_sample", "ns"),
    ("gyro.sense.ref_ns_per_sample", "ns"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


class Recorder:
    """In-memory span log of one process."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.spans: List[dict] = []
        self.counters: collections.Counter = collections.Counter()
        self.op: Optional[object] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``before(args, kwargs)`` returns attributes stored on the span
        before the call; ``after(span, args, result)`` may add more.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": recorder.op, "pid": os.getpid(),
                    "parent": recorder._stack[-1] if recorder._stack else None}
            if before is not None:
                span.update(before(args, kwargs))
            index = len(recorder.spans)
            recorder.spans.append(span)
            recorder._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                recorder._stack.pop()
            if after is not None:
                after(span, args, result)
            return result
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` bumping the counter ``name`` on every call (no span)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[(name, self.op)] += 1
            return fn(*args, **kwargs)
        return counted

    def reset_for_worker(self) -> None:
        """Start an empty log in a forked worker (keeps the op id)."""
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []

    def flush_worker(self) -> None:
        """Write this worker's spans and counters to its own file."""
        path = os.path.join(self.trace_dir, f"worker-{os.getpid()}.json")
        counters = [[name, op, n] for (name, op), n in self.counters.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def merge_worker_spans(recorder: Recorder) -> None:
    """Move the spans and counters workers wrote into ``recorder``.

    Worker span parents are renumbered into the merged list; a worker's
    root span keeps ``parent=None`` because it ran in another process.
    """
    if not os.path.isdir(recorder.trace_dir):
        return
    for name in sorted(os.listdir(recorder.trace_dir)):
        if not (name.startswith("worker-") and name.endswith(".json")):
            continue
        path = os.path.join(recorder.trace_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
        offset = len(recorder.spans)
        for span in data["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            recorder.spans.append(span)
        for counter, op, n in data["counters"]:
            recorder.counters[(counter, op)] += n


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _samples(duration_s, fs: float) -> int:
    return max(1, int(round(float(duration_s) * fs)))


def install_layer_wrappers(recorder: Recorder, patcher: Patcher) -> None:
    """Wrap the entry points of every layer the per-layer table names."""
    from repro.common.noise import BufferedGaussianNoise
    from repro.engine import batch, compiled, fused
    from repro.platform.gyro_platform import GyroPlatform
    from repro.scenarios import campaign, engines
    from repro.scenarios import executor as executor_mod
    from repro.sensors.environment import Environment
    from repro.store.store import ResultStore

    def scalar(args, kwargs):
        platform, duration = args[0], args[2]
        n = _samples(duration, platform.config.sample_rate_hz)
        return {"lane_samples": n, "lockstep_samples": n, "lanes": 1}

    def compiled_fleet(args, kwargs):
        platforms, durations = args[0], args[2]
        fs = platforms[0].config.sample_rate_hz
        n = sum(_samples(d, fs) for d in durations)
        return {"lane_samples": n, "lockstep_samples": n,
                "lanes": len(platforms)}

    def fleet(args, kwargs):
        sim, durations = args[0], args[2]
        fs = sim.platforms[0].config.sample_rate_hz
        if isinstance(durations, (int, float)):
            durations = [durations] * len(sim.platforms)
        lanes = [_samples(d, fs) for d in durations]
        return {"lane_samples": sum(lanes), "lockstep_samples": max(lanes),
                "lanes": len(lanes)}

    def kernel(args, kwargs):
        backend = args[1] if len(args) > 1 else kwargs.get("backend")
        key = (args[0], backend or compiled.compiled_backend())
        return {"built": key not in compiled._KERNELS}

    def store_get(args, kwargs):
        path = args[0].entry_path(args[1])
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}

    def store_got(span, args, result):
        span["hit"] = result is not None

    def store_put(span, args, result):
        span["bytes"] = os.path.getsize(result)

    wrap = recorder.wrap
    patcher.replace(fused, "run_fused",
                    wrap("engine.fused", fused.run_fused, scalar))
    patcher.replace(compiled, "run_compiled",
                    wrap("engine.compiled", compiled.run_compiled, scalar))
    patcher.replace(compiled, "run_compiled_fleet",
                    wrap("engine.compiled_fleet", compiled.run_compiled_fleet,
                         compiled_fleet))
    patcher.replace(compiled, "_compile_kernel",
                    wrap("engine.codegen", compiled._compile_kernel, kernel))
    patcher.replace(batch.FleetSimulator, "run",
                    wrap("engine.batched", batch.FleetSimulator.run, fleet))
    patcher.replace(GyroPlatform, "_run_reference",
                    wrap("engine.reference", GyroPlatform._run_reference,
                         scalar))
    patcher.replace(Environment, "sample",
                    wrap("engine.stimulus", Environment.sample))
    patcher.replace(BufferedGaussianNoise, "take",
                    wrap("engine.noise", BufferedGaussianNoise.take))
    patcher.replace(campaign.Campaign, "run",
                    wrap("scenarios.campaign", campaign.Campaign.run))
    patcher.replace(campaign._LaneState, "_finish",
                    wrap("scenarios.extract", campaign._LaneState._finish))
    patcher.replace(engines.EngineSpec, "run_fleet",
                    recorder.count("scenarios.rounds",
                                   engines.EngineSpec.run_fleet))
    patcher.replace(executor_mod.LaneSource, "materialize",
                    wrap("scenarios.materialize",
                         executor_mod.LaneSource.materialize))
    patcher.replace(executor_mod.LaneSource, "lane_digests",
                    wrap("store.key", executor_mod.LaneSource.lane_digests))
    patcher.replace(ResultStore, "get",
                    wrap("store.get", ResultStore.get, store_get, store_got))
    patcher.replace(ResultStore, "put",
                    wrap("store.put", ResultStore.put, after=store_put))

    get_executor = executor_mod.get_executor

    def traced_get_executor(name):
        spec = get_executor(name)
        runner = wrap("executor.run", spec.runner,
                      lambda args, kwargs: {"executor": spec.name,
                                            "lanes": len(args[0].programs)})
        return dataclasses.replace(spec, runner=runner)
    patcher.replace(executor_mod, "get_executor", traced_get_executor)

    worker_main = executor_mod._shard_worker_main

    def traced_worker_main(task):
        recorder.reset_for_worker()
        try:
            wrap("executor.worker", worker_main)(task)
        finally:
            recorder.flush_worker()
    patcher.replace(executor_mod, "_shard_worker_main", traced_worker_main)


#: Chain blocks timed on the reference engine: metric -> (module, class, methods).
CHAIN_BLOCKS = {
    "sensors.ref_ns_per_sample": ("repro.sensors.gyro", "VibratingRingGyro",
                                  ("step",)),
    "afe.adc.ref_ns_per_sample": ("repro.afe.frontend", "GyroAnalogFrontEnd",
                                  ("acquire",)),
    "afe.dac.ref_ns_per_sample": ("repro.afe.frontend", "GyroAnalogFrontEnd",
                                  ("drive", "rate_output")),
    "gyro.drive.ref_ns_per_sample": ("repro.gyro.drive", "DriveLoop",
                                     ("step",)),
    "gyro.sense.ref_ns_per_sample": ("repro.gyro.sense", "SenseChain",
                                     ("step",)),
}


def chain_block_split(run_prefix: Callable[[], int]) -> Dict[str, float]:
    """Host ns per simulated sample of each chain block on the reference engine.

    ``run_prefix`` runs a short reference-engine simulation and returns
    its sample count.  Each block method is wrapped with a bare
    ``perf_counter_ns`` accumulator (no span log), so the figure
    includes one clock read per call.
    """
    import importlib
    totals = {metric: 0 for metric in CHAIN_BLOCKS}
    patcher = Patcher()

    def timed(metric, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def block(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[metric] += clock() - t0
        return block

    try:
        for metric, (module, cls_name, methods) in CHAIN_BLOCKS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                patcher.replace(cls, method, timed(metric, cls.__dict__[method]))
        samples = run_prefix()
    finally:
        patcher.restore()
    return {metric: total / samples for metric, total in totals.items()}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping
    children (which one thread never produces) are merged so no
    instant is subtracted twice.
    """
    children: Dict[int, List[tuple]] = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def outermost(spans: Sequence[dict], names: Sequence[str]) -> List[int]:
    """Indices of spans named in ``names`` with no such ancestor."""
    names = set(names)
    out = []
    for index, span in enumerate(spans):
        if span["name"] not in names:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"] in names:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            out.append(index)
    return out


def op_self_time_gaps(spans: Sequence[dict], op_walls: Dict[object, float],
                      pid: int) -> Dict[object, float]:
    """Per op: its measured wall time minus the self times of its spans.

    Only spans of the measuring process count (shard workers run in
    parallel on other processes); with proper nesting the self times
    add up to the root span, so the gap is what the root wrapper and
    the op loop spend outside any span.
    """
    selfs = self_times(spans)
    sums: Dict[object, float] = collections.defaultdict(float)
    for span, own in zip(spans, selfs):
        if span["pid"] == pid and span["op"] in op_walls:
            sums[span["op"]] += own
    return {op: wall - sums.get(op, 0.0) for op, wall in op_walls.items()}


@dataclasses.dataclass
class TraceInputs:
    """What the per-layer computation needs besides the spans."""

    op_ids: List[object]
    manifests: List[dict]
    workers: int
    quarantined: int
    import_s: float
    prepare_s: float
    chain: Dict[str, float]
    overhead_s: float
    unattributed_s: float
    worker_peak_rss_mb: float


def per_layer_metrics(spans: Sequence[dict], counters: collections.Counter,
                      inputs: TraceInputs) -> Dict[str, float]:
    """Per-layer figures from the traced ops' spans (per op where a rate)."""
    ops = set(inputs.op_ids)
    n_ops = max(1, len(ops))
    selfs = self_times(spans)
    in_ops = [i for i, s in enumerate(spans) if s["op"] in ops]

    def total(name, field=None):
        acc = 0.0
        for i in in_ops:
            span = spans[i]
            if span["name"] == name:
                acc += (span["end"] - span["start"]) if field is None \
                    else span.get(field, 0)
        return acc

    engine = [i for i in outermost(spans, ENGINE_SPANS) if spans[i]["op"] in ops]
    busy = sum(spans[i]["end"] - spans[i]["start"] for i in engine)
    lane_samples = sum(spans[i]["lane_samples"] for i in engine)
    fleets = [i for i in engine if spans[i]["name"] == "engine.batched"]
    lockstep = sum(spans[i]["lockstep_samples"] for i in fleets)
    setup = ops | {SETUP_OP}
    kernels = [s for s in spans if s["name"] == "engine.codegen"
               and s["op"] in setup and s.get("built")]

    sharded = [i for i in in_ops if spans[i]["name"] == "executor.run"
               and spans[i]["executor"] == "sharded"]
    local = [i for i in in_ops if spans[i]["name"] == "executor.run"
             and spans[i]["executor"] == "local"]
    wall = sum(spans[i]["end"] - spans[i]["start"] for i in sharded)
    attempts = [entry for manifest in inputs.manifests
                for shard in manifest["shards"] for entry in shard["history"]]
    shards = [shard for manifest in inputs.manifests
              for shard in manifest["shards"]]
    busy_workers = sum(e["duration_s"] or 0.0 for e in attempts
                       if e["outcome"] == "ok")
    critical = sum(max((e["duration_s"] or 0.0 for shard in manifest["shards"]
                        for e in shard["history"]), default=0.0)
                   for manifest in inputs.manifests)

    gets = [i for i in in_ops if spans[i]["name"] == "store.get"]
    hits = sum(1 for i in gets if spans[i].get("hit"))
    rounds = sum(n for (name, op), n in counters.items()
                 if name == "scenarios.rounds" and op in ops)

    return {
        "engine.calls": len(engine) / n_ops,
        "engine.busy_s": busy / n_ops,
        "engine.lane_samples": lane_samples / n_ops,
        "engine.samples_per_busy_s": lane_samples / busy if busy else 0.0,
        "engine.mean_lanes": (sum(spans[i]["lane_samples"] for i in fleets)
                              / lockstep if lockstep else 0.0),
        "engine.stimulus_s": total("engine.stimulus") / n_ops,
        "engine.noise_s": total("engine.noise") / n_ops,
        "engine.codegen_s": sum(s["end"] - s["start"] for s in kernels),
        "engine.kernels": len(kernels),
        "scenarios.campaign_s": total("scenarios.campaign") / n_ops,
        "scenarios.self_s": (sum(selfs[i] for i in in_ops
                                 if spans[i]["name"] == "scenarios.campaign")
                             + sum(selfs[i] for i in local)) / n_ops,
        "scenarios.rounds": rounds / n_ops,
        "scenarios.extract_s": total("scenarios.extract") / n_ops,
        "scenarios.materialize_s": total("scenarios.materialize") / n_ops,
        "executor.wall_s": wall / n_ops,
        "executor.worker_busy_s": busy_workers / n_ops,
        "executor.critical_s": critical / n_ops,
        "executor.overhead_s": (wall - critical) / n_ops,
        "executor.efficiency": (busy_workers / (inputs.workers * wall)
                                if wall else 0.0),
        "executor.shard_lanes": (statistics.mean(len(s["lane_indices"])
                                                 for s in shards)
                                 if shards else 0.0),
        "executor.attempts": len(attempts) / n_ops,
        "executor.attempts_failed": sum(1 for e in attempts
                                        if e["outcome"] != "ok") / n_ops,
        "executor.worker_peak_rss_mb": inputs.worker_peak_rss_mb,
        "store.gets": len(gets) / n_ops,
        "store.get_s": total("store.get") / n_ops,
        "store.puts": sum(1 for i in in_ops
                          if spans[i]["name"] == "store.put") / n_ops,
        "store.put_s": total("store.put") / n_ops,
        "store.key_s": total("store.key") / n_ops,
        "store.hit_ratio": hits / len(gets) if gets else 0.0,
        "store.bytes_read": total("store.get", field="bytes") / n_ops,
        "store.bytes_written": total("store.put", field="bytes") / n_ops,
        "store.quarantined": inputs.quarantined,
        "platform.import_s": inputs.import_s,
        "platform.prepare_s": inputs.prepare_s,
        **inputs.chain,
        "trace.overhead_s": inputs.overhead_s,
        "trace.unattributed_s": inputs.unattributed_s,
    }
