"""One benchmark run of one workload, in a fresh interpreter.

Started by ``perfbench/run.py``; writes its result object to ``--out``
and prints a readable account (environment fingerprint, checks, every
metric) on standard output.  Set-up is timed from the launcher's
monotonic stamp taken just before this interpreter was started.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform as host
import resource
import statistics
import sys
import time
import traceback

T_LAUNCH = float(os.environ.get("PERFBENCH_LAUNCH_MONOTONIC", time.monotonic()))


@dataclasses.dataclass
class OpRecord:
    index: int
    kind: str
    wall_s: float
    samples: int = 0
    scenarios: int = 0
    error: str = ""


def run_op(workload, kind: str, index: int, call=None) -> OpRecord:
    """Time one op; its output is accounted and checked after the clock stops."""
    from perfbench.checks import CheckFailed
    workload.before_op(kind, index)
    call = call or workload.op
    t0 = time.perf_counter()
    try:
        raw = call(kind, index)
    except Exception as exc:           # an op that raises is a failed op
        wall = time.perf_counter() - t0
        return OpRecord(index, kind, wall, error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    try:
        out = workload.after_op(kind, index, raw)
    except CheckFailed as exc:
        return OpRecord(index, kind, wall, error=f"check: {exc}")
    except Exception as exc:           # unreadable output counts as a failure
        return OpRecord(index, kind, wall, error=f"{type(exc).__name__}: {exc}")
    return OpRecord(index, kind, wall, out.samples, out.scenarios)


def run_rounds(workload, seconds: float = None, rounds: int = None,
               first_index: int = 0, call=None, on_op=None) -> list:
    """Whole rounds of the workload's op plan.

    With ``seconds``, another round starts only while the elapsed time
    plus the median round so far fits in ``seconds`` (at least one
    round runs); with ``rounds``, exactly that many run.
    """
    records = []
    round_walls = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for kind in workload.round_plan:
            index = first_index + len(records)
            if on_op is not None:
                on_op(index)
            records.append(run_op(workload, kind, index, call))
        round_walls.append(time.perf_counter() - r0)
        if rounds is not None:
            if len(round_walls) >= rounds:
                return records
        elif (time.perf_counter() - start + statistics.median(round_walls)
              > seconds):
            return records


def end_to_end(records, setup_s: float) -> dict:
    ok = [r for r in records if not r.error]
    busy = sum(r.wall_s for r in records)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "sim_samples_per_s": {"value": sum(r.samples for r in ok) / busy,
                              "unit": "1/s"},
        "scenarios_per_s": {"value": sum(r.scenarios for r in ok) / busy,
                            "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(r.wall_s for r in records),
                     "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(resource.RUSAGE_SELF),
                        "unit": "MB"},
    }


def peak_rss_mb(who) -> float:
    """Peak resident set (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def filesystem_type(path: str) -> str:
    """Type of the file system holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if ((path == mount or path.startswith(mount.rstrip("/") + "/"))
                        and len(mount) >= len(best)):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def fingerprint(work_dir: str) -> dict:
    import numpy
    import scipy
    from repro.engine import backend_info
    return {"cpu_count": os.cpu_count(), "python": host.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "compiled_backend": backend_info(),
            "store_fs": filesystem_type(work_dir),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness self-tests")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the import cost users pay)
    from perfbench import trace, workloads
    import_s = time.perf_counter() - t0

    print("fingerprint: " + json.dumps(fingerprint(args.work), sort_keys=True),
          flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work,
                                                  smoke=args.smoke)
    recorder = patcher = None
    if args.trace:
        recorder = trace.Recorder(os.path.join(args.work, "trace"))
        os.makedirs(recorder.trace_dir, exist_ok=True)
        patcher = trace.Patcher()
        trace.install_layer_wrappers(recorder, patcher)
        recorder.op = trace.SETUP_OP
    t0 = time.perf_counter()
    workload.setup()
    prepare_s = time.perf_counter() - t0
    workload.warmup()
    if args.trace:
        patcher.restore()
    setup_s = time.monotonic() - T_LAUNCH

    seconds = args.seconds / 2 if args.trace else args.seconds
    records = run_rounds(workload, seconds=seconds)
    traced = []
    if args.trace:
        n_rounds = len(records) // len(workload.round_plan)
        trace.install_layer_wrappers(recorder, patcher)
        root = recorder.wrap("op", workload.op)

        def set_op(index):
            recorder.op = index
        traced = run_rounds(workload, rounds=n_rounds, first_index=len(records),
                            call=root, on_op=set_op)
        patcher.restore()
        recorder.op = None
        trace.merge_worker_spans(recorder)

    all_records = records + traced
    failures = [r for r in all_records if r.error]
    for r in failures:
        print(f"op {r.index} ({r.kind}) FAILED: {r.error}", flush=True)
    correct = True
    try:
        figures = workload.final_checks()
        print("checks passed: " + json.dumps(figures, sort_keys=True,
                                              default=str), flush=True)
    except Exception as exc:  # any failure of a whole-run check
        correct = False
        figures = {}
        traceback.print_exc(file=sys.stdout)
        print(f"CHECK FAILED: {exc}", flush=True)

    worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if args.trace:
        op_walls = {r.index: r.wall_s for r in traced}
        gaps = trace.op_self_time_gaps(recorder.spans, op_walls, os.getpid())
        negative = [s for s, own in zip(recorder.spans,
                                        trace.self_times(recorder.spans))
                    if own < -1e-6]
        overhead = ((sum(r.wall_s for r in traced)
                     - sum(r.wall_s for r in records)) / max(1, len(traced)))
        unattributed = max((abs(g) for g in gaps.values()), default=0.0)
        if negative or unattributed > max(abs(overhead), 1e-3):
            correct = False
            print(f"CHECK FAILED: span self times do not add up "
                  f"({len(negative)} negative, gap {unattributed:.6f} s, "
                  f"overhead {overhead:.6f} s)", flush=True)
        chain = trace.chain_block_split(workload.chain_prefix)
        inputs = trace.TraceInputs(
            op_ids=list(op_walls),
            manifests=workload.manifests()[-len(traced):],
            workers=workload.worker_count(),
            quarantined=workload.quarantined(), import_s=import_s,
            prepare_s=prepare_s, chain=chain, overhead_s=overhead,
            unattributed_s=unattributed, worker_peak_rss_mb=worker_rss)
        values = trace.per_layer_metrics(recorder.spans, recorder.counters,
                                         inputs)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in trace.PER_LAYER_METRICS}
    else:
        metrics = end_to_end(records, setup_s)

    ok = len(all_records) - len(failures)
    print(f"{args.workload}: {len(all_records)} ops attempted, "
          f"{len(failures)} failed, {ok} ok; setup {setup_s:.3f} s "
          f"(import {import_s:.3f} s, prepare {prepare_s:.3f} s); "
          f"largest worker peak RSS {worker_rss:.1f} MB", flush=True)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", flush=True)
    result = {"correct": correct, "attempted": len(all_records),
              "failed": len(failures), "metrics": metrics}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
