"""The four benchmark workloads.

Each workload is a closed loop: one caller issues an op, waits for it
to return, and issues the next.  A workload object does its set-up, one
untimed warm-up op, the timed ops (in whole rounds of the same op
kinds) and the output checks; :mod:`perfbench.child` drives it and
times it.  All inputs come from the ``seed`` argument.

* ``fig5-locking`` — power-on locking runs on the configured default
  scalar engine (no campaign, executor or store).
* ``ratetable-fleet`` — one wide rate-table ``Campaign.run`` per op from
  a calibrated platform, on the default multi-lane engine (batched
  lockstep) and the local executor.
* ``yield-sharded`` — a Monte Carlo part population (start-up with early
  stop, then a short rate table per part) on the sharded executor.
* ``store-mixed`` — store-backed rate-table campaigns: mostly stored
  points (hits), one new point in every fourth op (a miss that is
  simulated and durably written).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from typing import Dict, List

import numpy as np

from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.platform.result import content_digest
from repro.scenarios import Campaign, rate_table_scenarios, startup_scenario
from repro.sensors.environment import Environment

from . import checks

#: Rate-table full scale used by the rate-table workloads [deg/s].
FULL_SCALE_DPS = 300.0


@dataclasses.dataclass
class OpOutput:
    """What one op delivered, measured after the op returned."""

    samples: int        # lane-samples simulated (store hits simulate none)
    scenarios: int      # scenario outcomes delivered to the caller


def _seeded_config(rng: np.random.Generator) -> GyroPlatformConfig:
    """Nominal design with its noise sources seeded from ``rng``."""
    cfg = GyroPlatformConfig()
    cfg.sensor = dataclasses.replace(
        cfg.sensor, noise_seed=int(rng.integers(0, 2 ** 31 - 1)))
    cfg.frontend.seed = int(rng.integers(0, 2 ** 31 - 1))
    return cfg


def _lane_samples(result, fs: float, lanes=None) -> int:
    indices = range(len(result.lanes)) if lanes is None else lanes
    return sum(int(round(outcome.elapsed_s * fs))
               for i in indices for outcome in result.lanes[i].outcomes)


def _lane_digest(lane) -> str:
    """The store's content digest of one lane (canonical JSON, costly)."""
    return content_digest(lane.to_dict())


def _fast_digest(result) -> str:
    """Bit-exact digest of a campaign result, for comparing ops in one run.

    Hashes raw array bytes and ``repr`` of scalars instead of the
    canonical JSON encoding, so it costs little per op.
    """
    h = hashlib.sha256()
    for lane in result.lanes:
        for outcome in lane.outcomes:
            h.update(repr((outcome.name, outcome.elapsed_s,
                           outcome.stopped_early,
                           sorted(outcome.metrics.items()))).encode())
            for field in dataclasses.fields(outcome.result):
                value = getattr(outcome.result, field.name)
                if isinstance(value, np.ndarray):
                    h.update(value.dtype.str.encode())
                    h.update(value.tobytes())
                else:
                    h.update(repr(value).encode())
    return h.hexdigest()


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""
    round_plan = ("op",)
    fs = GyroPlatformConfig().sample_rate_hz

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Build the platform and inputs (timed as set-up)."""

    def warmup(self) -> None:
        """One untimed op of the same kind, charged to set-up."""
        kind = self.round_plan[0]
        self.before_op(kind, -1)
        self.after_op(kind, -1, self.op(kind, -1))

    def before_op(self, kind: str, index: int) -> None:
        """Untimed preparation of op ``index``."""

    def op(self, kind: str, index: int):
        raise NotImplementedError

    def after_op(self, kind: str, index: int, raw) -> OpOutput:
        """Account and check one op's output (raises ``CheckFailed``)."""
        raise NotImplementedError

    def final_checks(self) -> Dict[str, object]:
        """Checks over the whole run; returns figures worth printing."""
        return {}

    def chain_prefix(self) -> int:
        """Run a short reference-engine prefix of the Fig. 5 run."""
        platform = GyroPlatform(_seeded_config(np.random.default_rng(self.seed)))
        duration = 0.01 if self.smoke else 0.05
        platform.run(Environment.still(), duration, reset=True,
                     engine="reference")
        return int(round(duration * self.fs))

    def manifests(self) -> List[dict]:
        """Manifests of the sharded ops (for the executor metrics)."""
        return []

    def worker_count(self) -> int:
        return 1

    def quarantined(self) -> int:
        return 0


class Fig5Locking(Workload):
    """Repeated power-on locking runs on the default scalar engine.

    Every op starts from the same pristine platform (restored from a
    pickle before the op, untimed), so every op must give the same
    digest.  The run is 0.8 s long, as in the repository's Fig. 5
    bench: start-up reaches RUNNING at about 0.52 s, so a 0.5 s run
    would end before it.
    """

    name = "fig5-locking"
    duration_s = 0.8
    prefix_s = 0.02

    def setup(self) -> None:
        self.config = _seeded_config(self.rng)
        self.snapshot = pickle.dumps(GyroPlatform(self.config),
                                     protocol=pickle.HIGHEST_PROTOCOL)
        self.digests: List[str] = []

    def before_op(self, kind, index):
        self.platform = pickle.loads(self.snapshot)

    def op(self, kind, index):
        return self.platform.run(Environment.still(), self.duration_s,
                                 reset=True)

    def after_op(self, kind, index, raw):
        checks.locked_and_running(raw, self.duration_s)
        digest = raw.digest()
        if index >= 0:
            self.digests.append(digest)
        return OpOutput(samples=int(round(self.duration_s * self.fs)),
                        scenarios=1)

    def final_checks(self):
        checks.all_equal(self.digests, self.name)
        results = {}
        for engine in ("reference", None):
            platform = pickle.loads(self.snapshot)
            results[engine] = platform.run(Environment.still(), self.prefix_s,
                                           reset=True, engine=engine).digest()
        checks.same_digest(results[None], results["reference"],
                           f"{self.prefix_s} s prefix vs reference engine")
        return {"prefix_digest": results[None][:16]}


class RatetableFleet(Workload):
    """One wide rate-table campaign per op from a calibrated platform."""

    name = "ratetable-fleet"
    settle_s = 0.1

    def setup(self) -> None:
        n = 8 if self.smoke else 100
        self.platform = GyroPlatform(_seeded_config(self.rng))
        self.platform.calibrate()
        grid = np.linspace(-FULL_SCALE_DPS, FULL_SCALE_DPS, n)
        jitter = self.rng.uniform(-0.25, 0.25, n) * (grid[1] - grid[0])
        self.points = [float(r) for r in np.clip(grid + jitter, -FULL_SCALE_DPS,
                                                 FULL_SCALE_DPS)]
        self.campaign = Campaign(rate_table_scenarios(self.points,
                                                      settle_s=self.settle_s),
                                 name="ratetable-fleet")
        self.replay_lane = int(self.rng.integers(0, n))
        self.digests: List[str] = []
        self.first = None

    def op(self, kind, index):
        return self.campaign.run(self.platform)

    def after_op(self, kind, index, raw):
        checks.campaign_complete(raw, len(self.points), 1)
        measured = [lane.outcomes[0].metrics["rate_output_dps"]
                    for lane in raw.lanes]
        # limits: calibration trims the slope to 1 within 1 %, and the
        # paper's Table 1 allows at most 0.20 % FS nonlinearity
        self.fit = checks.rate_tracking(self.points, measured, slope_tol=0.01,
                                        nonlinearity_pct_fs=0.20)
        digest = _fast_digest(raw)
        if index >= 0:
            self.digests.append(digest)
            if self.first is None:
                self.first = raw
        return OpOutput(samples=_lane_samples(raw, self.fs),
                        scenarios=len(raw.lanes))

    def final_checks(self):
        checks.all_equal(self.digests, self.name)
        k = self.replay_lane
        replay = Campaign([self.campaign.programs[k]],
                          name="ratetable-fleet").run(self.platform,
                                                      engine="reference")
        checks.same_digest(_lane_digest(self.first.lanes[k]),
                           _lane_digest(replay.lanes[0]),
                           f"lane {k} vs reference engine")
        return {"slope": round(self.fit["slope"], 6),
                "nonlinearity_pct_fs": round(self.fit["nonlinearity_pct_fs"], 4),
                "replayed_lane": k}


class YieldSharded(Workload):
    """A Monte Carlo part population screened on the sharded executor.

    Each part is one lane built from its own drawn configuration: a
    start-up scenario with early stop (checked every 50 ms, watchdog
    0.6 s, a part that does not start is a yield loss, not an error)
    followed by a two-point rate table.  The population goes through
    ``executor="sharded"`` with two workers.
    """

    name = "yield-sharded"
    rates_dps = (-200.0, 200.0)
    settle_s = 0.05
    check_s = 0.05
    workers = 2

    def setup(self) -> None:
        n_parts = 2 if self.smoke else 4
        self.watchdog_s = 0.1 if self.smoke else 0.6
        nominal = GyroPlatformConfig()
        self.configs = []
        for _ in range(n_parts):
            cfg = GyroPlatformConfig()
            cfg.sensor = nominal.sensor.with_part_variation(self.rng)
            cfg.frontend.seed = int(self.rng.integers(0, 2 ** 31 - 1))
            self.configs.append(cfg)
        self.platforms = [GyroPlatform(cfg) for cfg in self.configs]
        startup = dataclasses.replace(
            startup_scenario(max_duration_s=self.watchdog_s,
                             chunk_s=self.check_s),
            require_stop=False)
        self.program = [startup] + list(rate_table_scenarios(
            self.rates_dps, settle_s=self.settle_s))
        self.campaign = Campaign([self.program] * n_parts,
                                 name="yield-sharded")
        self.replay_lane = int(self.rng.integers(0, n_parts))
        self.digests: List[str] = []
        self._manifests: List[dict] = []
        self.first = None
        self.started = 0

    def warmup(self) -> None:
        """A two-part, 10 ms version of the op: same executor and engine."""
        startup = dataclasses.replace(
            startup_scenario(max_duration_s=0.01, chunk_s=0.005),
            require_stop=False)
        campaign = Campaign([[startup]] * 2, name="yield-warmup")
        result = campaign.run(platforms=self.platforms[:2],
                              executor="sharded", workers=self.workers,
                              manifest_dir=self._manifest_dir(-1))
        checks.campaign_complete(result, 2, 1)
        shutil.rmtree(self._manifest_dir(-1))

    def _manifest_dir(self, index: int) -> str:
        return os.path.join(self.work_dir, f"yield-op-{index}")

    def op(self, kind, index):
        return self.campaign.run(platforms=self.platforms, executor="sharded",
                                 workers=self.workers,
                                 manifest_dir=self._manifest_dir(index))

    def after_op(self, kind, index, raw):
        directory = self._manifest_dir(index)
        with open(os.path.join(directory, "manifest.json"), "r",
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        shutil.rmtree(directory)
        checks.campaign_complete(raw, len(self.configs), len(self.program))
        checks.shards_clean(manifest, len(self.configs))
        turn_on = [lane.outcomes[0].metrics["turn_on_time_s"]
                   for lane in raw.lanes]
        span = self.rates_dps[-1] - self.rates_dps[0]
        scale = [(lane.outcomes[-1].metrics["raw_channel"]
                  - lane.outcomes[1].metrics["raw_channel"]) / span
                 for lane in raw.lanes]
        self.started = checks.started_parts(turn_on, scale, self.watchdog_s)
        digest = _fast_digest(raw)
        if index >= 0:
            self.digests.append(digest)
            self._manifests.append(manifest)
            if self.first is None:
                self.first = raw
        return OpOutput(samples=_lane_samples(raw, self.fs),
                        scenarios=sum(len(lane.outcomes) for lane in raw.lanes))

    def final_checks(self):
        checks.all_equal(self.digests, self.name)
        k = self.replay_lane
        replay = Campaign([self.program], name="yield-sharded").run(
            platforms=[GyroPlatform(self.configs[k])], engine="compiled")
        checks.same_digest(_lane_digest(self.first.lanes[k]),
                           _lane_digest(replay.lanes[0]),
                           f"part {k} vs in-process replay")
        return {"parts": len(self.configs), "started": self.started,
                "replayed_part": k}

    def manifests(self):
        return self._manifests

    def worker_count(self):
        return self.workers


class StoreMixed(Workload):
    """Store-backed rate-table campaigns: mostly hits, a fixed share of misses.

    Set-up starts the platform and cold-fills a ``ResultStore`` in the
    benchmark's work directory with one lane per base point.  Each
    round is three hit ops (all base points stored) and one miss op
    (the last base point replaced by a point never requested before,
    which is simulated and durably written).
    """

    name = "store-mixed"
    round_plan = ("hit", "hit", "hit", "miss")
    settle_s = 0.05
    audit_sample = 2
    checked_per_op = 4

    def setup(self) -> None:
        from repro.store import ResultStore
        n = 6 if self.smoke else 32
        self.platform = GyroPlatform(_seeded_config(self.rng))
        self.platform.start()
        self.store = ResultStore(os.path.join(self.work_dir, "store"))
        # base points on a coarse grid, miss points strictly between them
        grid = np.linspace(-FULL_SCALE_DPS, FULL_SCALE_DPS, n)
        self.points = [float(r) for r in grid]
        self.gap = float(grid[1] - grid[0])
        self.hit_campaign = self._campaign(self.points)
        cold = self.hit_campaign.run(self.platform, store=self.store)
        checks.campaign_complete(cold, n, 1)
        self.cold = [_lane_digest(lane) for lane in cold.lanes]
        self.plan = {"hits": 0, "misses": n, "puts": n, "quarantined": 0}
        self.new_points: List[float] = []

    def _campaign(self, points) -> Campaign:
        return Campaign(rate_table_scenarios(points, settle_s=self.settle_s),
                        name="store-mixed")

    def warmup(self) -> None:
        for kind in ("hit", "miss"):
            self.before_op(kind, -1)
            self.after_op(kind, -1, self.op(kind, -1))

    def before_op(self, kind, index):
        if kind == "hit":
            self.campaign = self.hit_campaign
            return
        while True:
            point = float(self.points[int(self.rng.integers(0, len(self.points)
                                                            - 1))]
                          + self.rng.uniform(0.05, 0.95) * self.gap)
            if point not in self.new_points:
                break
        self.new_points.append(point)
        self.campaign = self._campaign(self.points[:-1] + [point])

    def op(self, kind, index):
        return self.campaign.run(self.platform, store=self.store)

    def after_op(self, kind, index, raw):
        n = len(self.points)
        checks.campaign_complete(raw, n, 1)
        hits = n if kind == "hit" else n - 1
        self.plan["hits"] += hits
        self.plan["misses"] += n - hits
        self.plan["puts"] += n - hits
        # served hits must equal what was first simulated; a rotating
        # subset per op keeps the (costly) re-encoding small
        for lane in range(hits):
            if (lane - index) % (n // self.checked_per_op or 1) == 0:
                checks.same_digest(_lane_digest(raw.lanes[lane]),
                                   self.cold[lane],
                                   f"stored point {lane} served in op {index}")
        samples = 0 if kind == "hit" else _lane_samples(raw, self.fs, [n - 1])
        if kind == "miss":
            checks.require(raw.lanes[n - 1].platform is not None,
                           "the new point was served, not simulated")
        return OpOutput(samples=samples, scenarios=n)

    def final_checks(self):
        checks.store_plan(self.store.stats.as_dict(), self.plan)
        checks.nothing_quarantined(self.store.quarantined())
        report = self.store.audit(sample=self.audit_sample, seed=self.seed)
        checks.require(report.ok and len(report.verified_keys)
                       == min(self.audit_sample, len(self.store)),
                       f"store audit: {report}")
        return {"entries": len(self.store), "audited": report.checked}

    def quarantined(self):
        return self.store.stats.quarantined


WORKLOADS = {cls.name: cls for cls in
             (Fig5Locking, RatetableFleet, YieldSharded, StoreMixed)}
