"""Self-tests of the benchmark harness.

Run from the repository root with::

    python3 -m pytest -q perfbench/selftest.py

(The file is not named ``test_*.py``, so the repository's own test
run does not pick it up; the whole file takes about 90 s.)
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, trace  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


# ---------------------------------------------------------------------------
# smoke sizes of every workload
# ---------------------------------------------------------------------------

def _run(workload: str, trace_flag: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace_flag),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace_flag", [0, 1])
def test_smoke_run_passes_its_checks(workload, trace_flag):
    result = _run(workload, trace_flag)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace_flag else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace_flag:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as src:
                (bench / name).write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-locking",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each checker rejects a perturbed output
# ---------------------------------------------------------------------------

def _tiny_campaign_result():
    from repro.platform import GyroPlatform
    from repro.scenarios import Campaign, rate_table_scenarios
    campaign = Campaign(rate_table_scenarios((-50.0, 50.0), settle_s=0.005))
    return campaign.run(GyroPlatform(), engine="compiled")


def test_fast_digest_sees_one_shifted_lane_output():
    from perfbench.workloads import _fast_digest
    result = _tiny_campaign_result()
    good = _fast_digest(result)
    checks.all_equal([good, _fast_digest(result)], "repeat")
    lane = result.lanes[1].outcomes[0]
    lane.result.rate_output_dps[-1] += 1e-9
    with pytest.raises(CheckFailed):
        checks.all_equal([good, _fast_digest(result)], "shifted lane")


def test_digest_checks_reject_a_flipped_digest():
    digest = "ab" * 32
    flipped = "ac" + digest[2:]
    with pytest.raises(CheckFailed):
        checks.all_equal([digest, digest, flipped], "ops")
    with pytest.raises(CheckFailed):
        checks.same_digest(digest, flipped, "replay")
    checks.same_digest(digest, digest, "replay")


def test_locking_check_rejects_a_run_that_never_starts():
    good = types.SimpleNamespace(pll_locked=np.array([False, True]),
                                 running=np.array([False, True]),
                                 turn_on_time_s=0.52)
    checks.locked_and_running(good, 0.8)
    for change in ({"running": np.array([True, False])},
                   {"pll_locked": np.array([True, False])},
                   {"turn_on_time_s": None},
                   {"turn_on_time_s": 0.9}):
        with pytest.raises(CheckFailed):
            checks.locked_and_running(types.SimpleNamespace(
                **{**vars(good), **change}), 0.8)


def test_completeness_check_rejects_a_missing_lane():
    from repro.scenarios import CampaignResult
    result = _tiny_campaign_result()
    checks.campaign_complete(result, 2, 1)
    partial = CampaignResult([result.lanes[0], None],
                             failed_shards=[{"shard_id": 1}])
    with pytest.raises(CheckFailed):
        checks.campaign_complete(partial, 2, 1)
    with pytest.raises(CheckFailed):
        checks.campaign_complete(result, 3, 1)


def test_rate_tracking_rejects_one_shifted_lane_and_a_wrong_slope():
    applied = np.linspace(-300.0, 300.0, 101)
    measured = applied * 0.999 + 0.01
    checks.rate_tracking(applied, measured, 0.01, 0.20)
    shifted = measured.copy()
    shifted[40] += 2.0          # 0.33 % of the 600 deg/s span
    with pytest.raises(CheckFailed):
        checks.rate_tracking(applied, shifted, 0.01, 0.20)
    with pytest.raises(CheckFailed):
        checks.rate_tracking(applied, applied * 1.05, 0.01, 0.20)


def test_shard_check_rejects_a_retried_shard():
    manifest = {"shards": [
        {"shard_id": 0, "status": "done", "lane_indices": [0, 1],
         "history": [{"outcome": "ok"}]},
        {"shard_id": 1, "status": "done", "lane_indices": [2, 3],
         "history": [{"outcome": "ok"}]}]}
    checks.shards_clean(manifest, 4)
    manifest["shards"][1]["history"].insert(0, {"outcome": "crash"})
    with pytest.raises(CheckFailed):
        checks.shards_clean(manifest, 4)
    with pytest.raises(CheckFailed):
        checks.shards_clean({"shards": manifest["shards"][:1]}, 4)


def test_started_part_check_rejects_a_dead_scale_and_a_late_start():
    assert checks.started_parts([0.55, None], [-3e-5, 0.0], 0.6) == 1
    with pytest.raises(CheckFailed):
        checks.started_parts([0.55, 0.58], [-3e-5, 0.0], 0.6)
    with pytest.raises(CheckFailed):
        checks.started_parts([0.65], [-3e-5], 0.6)


def test_store_checks_reject_a_wrong_plan_and_a_quarantine():
    stats = {"hits": 10, "misses": 2, "puts": 2, "quarantined": 0}
    checks.store_plan(stats, dict(stats))
    with pytest.raises(CheckFailed):
        checks.store_plan(stats, dict(stats, hits=11))
    checks.nothing_quarantined([])
    with pytest.raises(CheckFailed):
        checks.nothing_quarantined([{"reason": "payload-checksum"}])


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(name, start, end, parent=None, op=0, pid=1, **attrs):
    return dict(name=name, start=start, end=end, parent=parent, op=op,
                pid=pid, **attrs)


def test_self_times_subtract_children_and_add_up_to_the_root():
    spans = [_span("op", 0.0, 10.0),
             _span("scenarios.campaign", 1.0, 9.0, parent=0),
             _span("engine.batched", 2.0, 5.0, parent=1),
             _span("engine.noise", 2.5, 3.0, parent=2),
             _span("store.get", 6.0, 7.0, parent=1)]
    own = trace.self_times(spans)
    assert own == pytest.approx([2.0, 4.0, 2.5, 0.5, 1.0])
    assert sum(own) == pytest.approx(10.0)
    gaps = trace.op_self_time_gaps(spans, {0: 10.25}, pid=1)
    assert gaps[0] == pytest.approx(0.25)


def test_self_times_merge_overlapping_and_clip_overhanging_children():
    spans = [_span("op", 0.0, 4.0),
             _span("a", 1.0, 3.0, parent=0),
             _span("b", 2.0, 5.0, parent=0)]
    assert trace.self_times(spans)[0] == pytest.approx(1.0)


def test_worker_spans_stay_out_of_the_op_sum_and_nested_engines_count_once():
    spans = [_span("op", 0.0, 10.0),
             _span("executor.run", 0.5, 9.5, parent=0, executor="sharded",
                   lanes=2),
             _span("executor.worker", 1.0, 9.0, pid=2),
             _span("engine.batched", 1.0, 8.0, parent=2, pid=2,
                   lane_samples=300, lockstep_samples=200, lanes=2),
             _span("engine.fused", 1.0, 2.0, parent=3, pid=2,
                   lane_samples=10, lockstep_samples=10, lanes=1)]
    assert trace.op_self_time_gaps(spans, {0: 10.0}, pid=1)[0] == \
        pytest.approx(0.0)
    assert trace.outermost(spans, trace.ENGINE_SPANS) == [3]
    inputs = trace.TraceInputs(
        op_ids=[0],
        manifests=[{"shards": [
            {"lane_indices": [0], "history": [{"outcome": "ok",
                                               "duration_s": 7.0}]},
            {"lane_indices": [1], "history": [{"outcome": "ok",
                                               "duration_s": 5.0}]}]}],
        workers=2, quarantined=0, import_s=1.0, prepare_s=2.0, chain={},
        overhead_s=0.0, unattributed_s=0.0, worker_peak_rss_mb=1.0)
    values = trace.per_layer_metrics(spans, collections.Counter(), inputs)
    assert values["engine.calls"] == 1
    assert values["engine.lane_samples"] == 300
    assert values["engine.mean_lanes"] == pytest.approx(1.5)
    assert values["engine.busy_s"] == pytest.approx(7.0)
    assert values["executor.wall_s"] == pytest.approx(9.0)
    assert values["executor.critical_s"] == pytest.approx(7.0)
    assert values["executor.overhead_s"] == pytest.approx(2.0)
    assert values["executor.efficiency"] == pytest.approx(12.0 / 18.0)


def test_recorder_nests_wrapped_calls():
    recorder = trace.Recorder(trace_dir="unused")

    def leaf():
        return 1

    traced_leaf = recorder.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    root = recorder.wrap("root", recorder.wrap("middle", middle))
    recorder.op = 7
    assert root() == 2
    names = [s["name"] for s in recorder.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert [s["parent"] for s in recorder.spans] == [None, 0, 1, 1]
    assert all(s["op"] == 7 for s in recorder.spans)
    total = recorder.spans[0]["end"] - recorder.spans[0]["start"]
    assert sum(trace.self_times(recorder.spans)) == pytest.approx(total)


def test_patcher_restores_every_attribute():
    @dataclasses.dataclass
    class Thing:
        def value(self):
            return 1

    patcher = trace.Patcher()
    original = Thing.__dict__["value"]
    patcher.replace(Thing, "value", lambda self: 2)
    assert Thing().value() == 2
    patcher.restore()
    assert Thing.__dict__["value"] is original
