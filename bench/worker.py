"""Run one benchmark workload in this fresh process.

Started by run.py, with the repository's ``src`` on PYTHONPATH.  Prints
``ready`` once spanlab, numpy and scipy are imported and the workload's
inputs exist (the end of set-up), then, unless ``--setup-only``, runs the
workload and prints its result as one JSON line.  While the workload runs,
probe.py samples the speed of the CPU it runs on, and the throughput is
also given at a fixed reference speed (``items_per_ref_s``).  With
``--trace 1`` the calls into spanlab are traced and the per-layer metrics
are added.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext

import numpy
import scipy

import spanlab
import spans
import workloads
from probe import Probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--fixed", action="store_true",
                    help="run exactly the workload's minimum cycles, ignoring --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(spanlab.__file__).startswith(src + os.sep):
        print(f"spanlab imported from {spanlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    with tracer or nullcontext():
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SCALES[args.scale])
        print("ready", flush=True)
        if args.setup_only:
            return 0
        rec = workloads.Recorder(tracer=tracer)
        with Probe(os.getpid()) as probe:
            out = workloads.run(workload, rec, args.seconds,
                                workload.min_cycles if args.fixed else None)
    out["ref_s"] = probe.reference_seconds(rec.windows)
    out["items_per_ref_s"] = out["passed"] / out["ref_s"]
    out["probe_samples"] = len(probe.samples)
    out["probe_loop_s"] = probe.median_loop()

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        # layer times in reference seconds, by the run's own speed factor
        factor = out["ref_s"] / sum(t1 - t0 for t0, t1 in rec.windows)
        out["layers"] = {name: v * factor if name.endswith(("_s", ".s")) else v
                         for name, v in spans.layer_metrics(tracer.spans).items()}
        out["items"] = spans.item_breakdown(tracer.spans, "bench.")
        out["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
