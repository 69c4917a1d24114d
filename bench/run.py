"""spanlab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each run starts the workload in a fresh
Python process (bench/worker.py) with ``src`` on PYTHONPATH and
SPANLAB_THREADS removed, so set-up time and peak memory belong to that
workload and the mc drivers run at their defaults.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.  Set-up
is timed in two extra processes that only set up, and the median of the
three set-ups is reported.  Throughput and set-up are given in reference
seconds: wall time rescaled by probe.py to a fixed CPU speed, because the
speed of a shared machine drifts by tens of percent between runs.  ``--trace 1`` runs the workload's minimum
number of cycles untraced and then traced, whatever ``--seconds`` says, and
reports the per-layer metrics of the traced run and ``trace.overhead_s``,
traced minus untraced time of the items; these times are in reference
seconds too, and the report's per-item baseline figures are wall time.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics that BENCHMARK.json names.  The line before it is a
JSON report with the environment, failure reasons and per-item detail; it
and the recorded spans are also written to .bench_out/.  ``--all`` runs
every workload and prints a table instead.

Seeds 0-9 are the tuning seeds; HELD_OUT_SEED confirms a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from probe import PROBE_REF_S, Probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BASELINE = os.path.join(HERE, "baseline_seed.json")

HELD_OUT_SEED = 7919
WORKLOADS = ("small_exact", "crossing_mc", "length_mc", "pipeline_torus40")
# Run by name and by --all, but not in BENCHMARK.json (bench/README.md says
# why): 22 runs of each workload should take under an hour, and length_mc's
# length check fails by chance on roughly one Lk8 replicate in 170.
EXTRA_WORKLOADS = ("small_exact", "length_mc")
SETUP_PROBES = 2  # set-up-only processes besides the workload's own
RUN_LIMIT_S = 170.0
PIPELINE_ITEMS = ("delaunay", "theta6", "cone4")

# metrics printed only in the report and by --all
REPORT_UNITS = {"items_per_s": "items/s", "probe_loop_s": "s",
                "failed_share": "ratio", "item_p50_s": "s", "item_p90_s": "s",
                "item_samples": "count",
                **{f"replicate_s.{k}": "s" for k in PIPELINE_ITEMS}}


class RunError(RuntimeError):
    pass


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def child_env():
    env = dict(os.environ)
    env.pop("SPANLAB_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Start worker.py; return the seconds until it printed ready, the same
    in reference seconds (probe.py), and its result.

    The worker is killed if it outlives ``deadline`` (a perf_counter time).
    """
    t0 = perf_counter()
    if deadline - t0 <= 0:
        raise RunError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline - t0, proc.kill)
    watchdog.start()
    try:
        with Probe(proc.pid) as probe:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RunError(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    setup_ref_s = setup_s * PROBE_REF_S / probe.median_loop()
    return setup_s, setup_ref_s, (json.loads(lines[-1]) if lines else None)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def replicate_times(result: dict) -> dict:
    by_kind = result["seconds_by_kind"]
    return {f"replicate_s.{k}": statistics.median(by_kind[k])
            for k in PIPELINE_ITEMS if k in by_kind}


def baseline_table(traced: dict) -> list[dict]:
    """The pipeline's traced per-construction figures beside ROADMAP's."""
    with open(BASELINE) as f:
        roadmap = json.load(f)["roadmap"]
    rows = []
    for k in PIPELINE_ITEMS:
        m = traced["items"].get(k)
        if m is None:
            continue
        rows.append({
            "network": k,
            "builder_s": m["nets.build_s"], "roadmap_builder_s": roadmap[k]["builder_s"],
            "arrangement_s": m["geom.arrangement_s"],
            "roadmap_arrangement_s": roadmap[k]["arrangement_s"],
            "nodes": m["geom.nodes"], "roadmap_nodes": roadmap[k]["nodes"],
            "dijkstra_s": m["geom.dijkstra_s"], "roadmap_dijkstra_s": roadmap[k]["dijkstra_s"],
            "dijkstra_sources": m["geom.dijkstra_sources"],
            "exact_pairs": m["geom.exact_pairs"],
        })
    return rows


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            deadline: float) -> tuple[dict, dict]:
    """One run; returns (final result line, report)."""
    end_to_end, per_layer = declared_metrics()
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "scale": scale, "git_sha": git_sha()}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-{scale}-seed{seed}-trace{int(trace)}")
    spans_out = os.path.join(OUT_DIR, f"{workload}-{scale}.spans.json.gz")  # latest only

    setups, ref_setups = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup_s, setup_ref_s, _ = run_worker(base + ["--setup-only"], deadline)
            setups.append(setup_s)
            ref_setups.append(setup_ref_s)
    # a traced run makes a fixed number of cycles, so that its counts repeat
    # exactly, and compares with an untraced run of the same cycles
    timed = ["--fixed"] if trace else ["--seconds", str(seconds)]
    setup_s, setup_ref_s, res = run_worker(base + timed, deadline)
    setups.append(setup_s)
    ref_setups.append(setup_ref_s)
    runs = [res]
    if trace:
        _, _, traced = run_worker(base + ["--fixed", "--trace", "1",
                                          "--spans-out", spans_out], deadline)
        runs.append(traced)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report.update({
        "env": res["env"], "cycles": res["cycles"], "wall_s": res["wall_s"],
        "setup_samples_s": setups, "setup_samples_ref_s": ref_setups,
        "failed_share": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
        "items_per_s": res["items_per_s"], "probe_loop_s": res["probe_loop_s"],
        "probe_samples": res["probe_samples"],
        "item_samples": res["item_samples"], "item_p50_s": res["item_p50_s"],
        "item_p90_s": res["item_p90_s"], "seconds_by_kind": res["seconds_by_kind"],
        **replicate_times(res),
    })
    if trace:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["ref_s"] - res["ref_s"]
        report.update({"traced_wall_s": traced["wall_s"], "spans": traced["spans"],
                       "items": traced["items"]})
        if workload == "pipeline_torus40":
            report["baseline"] = baseline_table(traced)
        units = per_layer
    else:
        values = {"setup_s": statistics.median(ref_setups),
                  "items_per_ref_s": res["items_per_ref_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise RunError(f"workload produced no value for {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    report["metrics"] = result["metrics"]
    with open(stem + ".report.json", "w") as f:
        json.dump(report, f, indent=1)
    return result, report


def print_table(rows) -> None:
    for workload, name, value, unit in rows:
        print(f"{workload:18s} {name:32s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: seconds-long inputs for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")

    try:
        if not args.all:
            result, report = run_one(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.scale,
                                     perf_counter() + RUN_LIMIT_S)
            print(json.dumps({"report": report}))
            print(json.dumps(result), flush=True)
            return 0
        rows = []
        for workload in WORKLOADS:
            result, report = run_one(workload, args.seed, args.seconds,
                                     bool(args.trace), args.scale,
                                     perf_counter() + RUN_LIMIT_S)
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
            for name, unit in REPORT_UNITS.items():
                if name in report:
                    rows.append((workload, name, report[name], unit))
        print_table(rows)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
