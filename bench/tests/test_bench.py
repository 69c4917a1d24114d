"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/tests
The smoke runs use ``--scale smoke``: every workload, seconds long.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spanlab import geom, mc, metrics  # noqa: E402
from spanlab.metrics import StretchReport  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--scale", "smoke")
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def report(ratio, exact=True):
    return StretchReport(mode="steiner", max_ratio=ratio, argmax_pair=(0, 1),
                         percentiles={}, pair_filter="all", n_cities=2, n_pairs=1,
                         exact=exact)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    rep, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert rep["failed_share"] == 0
    assert rep["env"]["nproc"] >= 1


def test_traced_pipeline_sees_every_layer_it_runs():
    _, result = smoke("pipeline_torus40", 1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("configs.points", "nets.build_calls", "nets.unwrap_segments",
                 "geom.arrangement_calls", "geom.nodes", "geom.exact_pairs",
                 "geom.dijkstra_sources", "metrics.stretch_calls",
                 "metrics.pairs_scored", "analytic.calls"):
        assert values[name] > 0, name
    assert values["nets.build_calls"] == 3
    assert values["mc.replicates"] == 0  # the pipeline bypasses mc


def test_stretch_above_bound_counts_as_failed():
    rec = workloads.Recorder()
    it = rec.item("delaunay", lambda: report(2.5))
    rec.check(it, checks.stretch(it.result, checks.DELAUNAY_STRETCH))
    ok = rec.item("delaunay", lambda: report(1.3))
    rec.check(ok, checks.stretch(ok.result, checks.DELAUNAY_STRETCH))
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "above bound" in rec.failures[0]


def test_checks_reject_out_of_bound_and_off_target_results():
    assert checks.stretch(report(0.99), 2.0) is not None
    assert checks.stretch(report(math.inf), 2.0) is not None
    assert checks.stretch(report(1.2, exact=False), 2.0, need_exact=True) is not None
    assert checks.mode_dominance(report(1.5), report(1.4)) is not None
    assert checks.mode_dominance(report(1.4), report(1.5)) is None
    assert checks.length(3.40, checks.DELAUNAY_LENGTH, 0.03, 1600.0) is None
    assert checks.length(3.80, checks.DELAUNAY_LENGTH, 0.03, 1600.0) is not None
    assert checks.mean(2.0 + 4.9 * 0.1, 0.1, 2.0) is None
    assert checks.mean(2.0 + 5.1 * 0.1, 0.1, 2.0) is not None
    assert checks.below(10.0, 0.1, 9.0) is not None
    assert checks.identity(3.4, 3.4 / (math.pi / 2), 0.01) is None
    assert checks.identity(3.4, 2.0, 0.01) is not None


def test_length_tolerance_matches_acceptance_at_its_scale():
    # one replicate at 40x40 gets sqrt(8) times the 8-replicate floor
    assert checks.length_tolerance(0.02, 1600.0) == pytest.approx(0.02 * math.sqrt(8))
    assert checks.length_tolerance(0.02, 400.0) == pytest.approx(0.04 * math.sqrt(8))


def test_raising_item_counts_all_its_items_as_failed():
    rec = workloads.Recorder()

    def boom():
        raise ValueError("disconnected city")

    it = rec.item("crossing_mean", boom, n=1500)
    assert not rec.ok(it)
    assert (rec.attempted, rec.failed) == (1500, 1500)


def test_tracer_restores_every_entry_point():
    before = (geom.RoutingGraph.distances_from, metrics.stretch, metrics.unwrap,
              mc.poisson, geom.segment_intersection)
    with spans.Tracer() as tracer:
        assert metrics.stretch is not before[1]
        assert tracer.spans == []
    after = (geom.RoutingGraph.distances_from, metrics.stretch, metrics.unwrap,
             mc.poisson, geom.segment_intersection)
    assert after == before


def test_self_time_subtracts_children():
    S = spans
    rows = [["metrics.stretch", 0.0, 10.0, -1, False, {"pairs_scored": 5, "exact": 1}],
            ["geom.build_arrangement", 1.0, 7.0, 0, False,
             {"segments_in": 4, "nodes": 9, "edges": 12}],
            ["geom.segment_intersection", 2.0, 3.0, 1, False, None],
            ["geom.distances_from", 8.0, 9.5, 0, True, None]]
    assert S.self_times(rows) == [2.5, 5.0, 1.0, 1.5]
    m = S.layer_metrics(rows)
    assert m["metrics.stretch_self_s"] == 2.5
    assert m["geom.arrangement_s"] == 6.0  # the arrangement with its exact pairs
    assert m["geom.exact_pairs"] == 1 and m["geom.nodes"] == 9
    assert m["geom.dijkstra_sources"] == 1 and m["geom.errors"] == 1
    assert m["metrics.exact_share"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "small_exact", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_every_declared_workload_has_a_reason():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in run.WORKLOADS if w not in run.EXTRA_WORKLOADS]
    for w in SPEC["workloads"]:
        assert w["why"] and "\n" not in w["why"]


def test_reference_seconds_rescale_each_window_by_its_own_samples():
    p = probe.Probe(os.getpid())
    ref = probe.PROBE_REF_S
    p.samples = [(0.5, 2 * ref, 0), (2.0, ref / 2, 1), (2.5, ref / 2, 1)]
    # half speed in the first second, double speed in the next two
    assert p.reference_seconds([(0.0, 1.0), (1.0, 3.0)]) == pytest.approx(0.5 + 4.0)
    # no sample inside: the median of all samples
    assert p.reference_seconds([(5.0, 6.0)]) == pytest.approx(2.0)


def test_probe_follows_this_process_and_is_reaped():
    assert probe.last_cpu(os.getpid()) in os.sched_getaffinity(0)
    with probe.Probe(os.getpid()) as p:
        time.sleep(0.5)
    assert p._proc.returncode is not None
    assert p.samples and all(loop > 0 for _, loop, _ in p.samples)
