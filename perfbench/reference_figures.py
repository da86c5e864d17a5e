"""Reference figures quoted in ``perfbench/README.md``.

Run from the repository root (about 90 s on 2 CPUs)::

    PYTHONPATH=src:. OPENBLAS_NUM_THREADS=1 python3 perfbench/reference_figures.py

Prints one line per figure: the batched engine's samples/s against the
lane count B, the share of a warm store hit spent in checksum
verification, the cost of one missing lane on the batched engine
against the scalar engines, and the yield population on the local and
sharded executors and on the compiled engine.  Each figure is one
measurement, not a median; the benchmark's own runs carry the spread.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.platform import GyroPlatform
from repro.scenarios import Campaign, rate_table_scenarios

from perfbench import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTLE_S = 0.05


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def b_curve(platform) -> None:
    steps = int(round(SETTLE_S * platform.config.sample_rate_hz))
    for engine, lanes in (("fused", 1), ("compiled", 1), ("batched", 1),
                          ("batched", 4), ("batched", 16), ("batched", 64),
                          ("batched", 128)):
        rates = [-300.0 + 600.0 * i / max(1, lanes - 1) for i in range(lanes)]
        campaign = Campaign(rate_table_scenarios(rates, settle_s=SETTLE_S))
        wall = timed(lambda: campaign.run(platform, engine=engine))
        print(f"b-curve: {engine:8s} B={lanes:3d}  "
              f"{lanes * steps / wall:9.0f} lane-samples/s  ({wall:.3f} s)")


def store_hit_and_miss(platform, work: str) -> None:
    import repro.store.store as store_mod
    from repro.store import ResultStore
    store = ResultStore(os.path.join(work, "store"))
    rates = [-300.0 + 600.0 * i / 31 for i in range(32)]
    campaign = Campaign(rate_table_scenarios(rates, settle_s=SETTLE_S))
    campaign.run(platform, store=store)
    spent = [0.0]
    digest = store_mod.content_digest

    def counted(data):
        t0 = time.perf_counter()
        try:
            return digest(data)
        finally:
            spent[0] += time.perf_counter() - t0
    store_mod.content_digest = counted
    try:
        wall = timed(lambda: campaign.run(platform, store=store))
    finally:
        store_mod.content_digest = digest
    print(f"store hit: 32 lanes {wall:.3f} s, checksum verification "
          f"{spent[0]:.3f} s = {100 * spent[0] / wall:.0f} %")
    miss = Campaign(rate_table_scenarios(rates[:-1] + [123.4],
                                         settle_s=SETTLE_S))
    wall = timed(lambda: miss.run(platform, store=store))
    print(f"store miss: 31 hits + 1 new lane (batched B=1) {wall:.3f} s")
    one = Campaign(rate_table_scenarios([123.4], settle_s=SETTLE_S))
    for engine in ("batched", "fused", "compiled"):
        wall = timed(lambda: one.run(platform, engine=engine))
        print(f"one lane, {SETTLE_S} s settle: {engine:8s} {wall:.3f} s")


def yield_population(work: str) -> None:
    workload = workloads.YieldSharded(seed=1, work_dir=work)
    workload.setup()
    runs = (("local", "batched"), ("sharded", "batched"),
            ("local", "compiled"))
    for executor, engine in runs:
        kwargs = {}
        if executor == "sharded":
            kwargs = {"workers": workload.workers,
                      "manifest_dir": os.path.join(work, "yield")}
        platforms = [GyroPlatform(cfg) for cfg in workload.configs]
        wall = timed(lambda: workload.campaign.run(
            platforms=platforms, executor=executor, engine=engine, **kwargs))
        print(f"yield, {len(workload.configs)} parts: {executor:7s} "
              f"{engine:8s} {wall:.2f} s")


def main() -> None:
    work = os.path.join(ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    try:
        platform = GyroPlatform()
        platform.start()
        b_curve(platform)
        store_hit_and_miss(platform, work)
        yield_population(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
