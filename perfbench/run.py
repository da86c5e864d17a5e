"""Benchmark launcher: one run of one workload in a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-locking --seed 1 --seconds 15 --trace 0

Each run starts a new interpreter with the BLAS thread count pinned to
1 and the hash seed fixed, so runs do not share warm state.  The child
prints an environment fingerprint and a readable account; the last line
of standard output is the result object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics.  All files
the run writes go to ``.perfbench_work/`` under the repository root and
are removed at the end.  Exits non-zero, without a result, when the
program source (``src/repro``) is not there or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig5-locking", "ratetable-fleet", "yield-sharded", "store-mixed")
#: A run must end within 180 s; the first run in a fresh checkout may
#: also compile bytecode, which this limit leaves room for.
CHILD_TIMEOUT_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: program source src/repro not found under {ROOT}",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    out = os.path.join(work, "result.json")
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env = dict(os.environ, **threads,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
               PYTHONHASHSEED="0", TMPDIR=tmp,
               PERFBENCH_LAUNCH_MONOTONIC=repr(time.monotonic()))
    cmd = [sys.executable, "-m", "perfbench.child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", out] + (["--smoke"] if args.smoke else [])
    try:
        # own session, so a timeout can stop the shard workers too
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        finally:
            try:   # reap anything left in the session
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if code != 0 or not os.path.exists(out):
            print(f"error: benchmark child exited with {code}", file=sys.stderr)
            return code or 1
        with open(out, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:     # another run is still using it
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
