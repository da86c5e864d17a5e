"""Output checks of the benchmark workloads.

Each check compares against a computation made apart from the fast
path (a replay on another engine or executor, the first op's output,
the workload's own plan) or against a property the method must have,
and raises :class:`CheckFailed` with the reason when the output is
wrong.  None of them runs inside a timed op.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program failed a benchmark check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def all_equal(digests: Sequence[str], what: str) -> None:
    """Every op of a workload repeats the same inputs, so the same bits."""
    require(len(digests) > 0, f"{what}: nothing to compare")
    for index, digest in enumerate(digests):
        require(digest == digests[0],
                f"{what}: op {index} digest {digest[:12]} differs from "
                f"op 0 digest {digests[0][:12]}")


def same_digest(fast: str, replay: str, what: str) -> None:
    require(fast == replay,
            f"{what}: fast path {fast[:12]} != replay {replay[:12]}")


def locked_and_running(result, duration_s: float) -> None:
    """Power-on locking run: the PLL locks and start-up reaches RUNNING."""
    require(bool(result.pll_locked[-1]), "PLL not locked at the end of the run")
    require(bool(result.running[-1]),
            "start-up sequencer not RUNNING at the end of the run")
    turn_on = result.turn_on_time_s
    require(turn_on is not None and 0.0 < turn_on <= duration_s,
            f"turn-on time {turn_on} outside (0, {duration_s}] s")


def campaign_complete(result, n_lanes: int, outcomes_per_lane: int) -> None:
    """A ``CampaignResult`` with every lane and every scenario outcome."""
    require(result is not None, "campaign returned nothing")
    require(result.complete, f"campaign incomplete: failed shards "
            f"{[s['shard_id'] for s in result.failed_shards]}, missing lanes "
            f"{result.failed_lane_indices()}")
    require(len(result.lanes) == n_lanes,
            f"{len(result.lanes)} lanes, expected {n_lanes}")
    for index, lane in enumerate(result.lanes):
        require(len(lane.outcomes) == outcomes_per_lane,
                f"lane {index}: {len(lane.outcomes)} outcomes, expected "
                f"{outcomes_per_lane}")


def rate_tracking(applied_dps: Sequence[float], measured_dps: Sequence[float],
                  slope_tol: float, nonlinearity_pct_fs: float
                  ) -> Dict[str, float]:
    """Calibrated outputs track the applied rate.

    A least-squares line through (applied, measured) must have a slope
    within ``slope_tol`` of 1.  Nonlinearity is taken the datasheet way
    (best-fit straight line): the largest residual from that line as a
    percentage of the fitted output span, and must stay within
    ``nonlinearity_pct_fs``.
    """
    applied = np.asarray(applied_dps, dtype=np.float64)
    measured = np.asarray(measured_dps, dtype=np.float64)
    require(applied.size == measured.size and applied.size >= 2,
            "rate table needs at least two matched points")
    require(bool(np.all(np.isfinite(measured))), "non-finite rate output")
    slope, intercept = np.polyfit(applied, measured, 1)
    residual = measured - (slope * applied + intercept)
    span = abs(slope) * float(np.ptp(applied))
    require(span > 0.0, "rate output does not respond to the applied rate")
    nonlinearity = 100.0 * float(np.max(np.abs(residual))) / span
    require(abs(slope - 1.0) <= slope_tol,
            f"rate-table slope {slope:.5f} is not within {slope_tol} of 1")
    require(nonlinearity <= nonlinearity_pct_fs,
            f"nonlinearity {nonlinearity:.3f} % FS exceeds "
            f"{nonlinearity_pct_fs} % FS")
    return {"slope": float(slope), "nonlinearity_pct_fs": nonlinearity}


def shards_clean(manifest: dict, n_lanes: int) -> None:
    """Every shard is done on its first attempt and covers every lane."""
    covered = []
    for shard in manifest["shards"]:
        sid = shard["shard_id"]
        require(shard["status"] == "done", f"shard {sid} is {shard['status']}")
        outcomes = [entry["outcome"] for entry in shard["history"]]
        require(outcomes == ["ok"],
                f"shard {sid} attempts {outcomes}, expected one ok attempt")
        covered.extend(shard["lane_indices"])
    require(sorted(covered) == list(range(n_lanes)),
            f"shards cover lanes {sorted(covered)}, expected 0..{n_lanes - 1}")


def started_parts(turn_on_s: Sequence[Optional[float]],
                  scale: Sequence[float], watchdog_s: float) -> int:
    """Started parts turned on inside the watchdog and respond to rate.

    ``scale`` is each part's fitted sense-channel change per deg/s; a
    started part must have a finite, non-zero magnitude.  Returns the
    number of started parts.
    """
    require(len(turn_on_s) == len(scale), "one scale per part expected")
    started = 0
    for index, (turn_on, slope) in enumerate(zip(turn_on_s, scale)):
        if turn_on is None:
            continue
        started += 1
        require(0.0 < turn_on <= watchdog_s + 1e-12,
                f"part {index}: turn-on {turn_on} s outside the "
                f"{watchdog_s} s watchdog")
        require(math.isfinite(slope) and abs(slope) > 0.0,
                f"part {index}: scale {slope} is not a positive magnitude")
    return started


def store_plan(stats: Dict[str, int], expected: Dict[str, int]) -> None:
    """Store hit, miss and put counts equal the workload's own plan."""
    for name, value in expected.items():
        require(stats.get(name) == value,
                f"store {name} = {stats.get(name)}, plan says {value}")


def nothing_quarantined(records: Iterable[dict]) -> None:
    records = list(records)
    require(not records, f"{len(records)} store entries quarantined: "
            f"{[r['reason'] for r in records]}")
