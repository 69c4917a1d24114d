"""Spans recorded around calls into spanlab, and the per-layer metrics.

A Tracer replaces each traced entry point, at every name its callers look
up, with a wrapper that records a span: name, start, end, parent, whether
it raised, and counts taken from its arguments and result.  Spans stay in
memory until the run ends.  Nothing inside the package is changed: the
layers are measured from outside, at their public functions.

A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from contextlib import contextmanager
from time import perf_counter

from spanlab import analytic, configs, geom, mc, metrics, nets

LAYERS = ("configs", "nets", "geom", "metrics", "mc", "analytic")

BUILDERS = ("delaunay", "theta_graph", "yao_graph", "cone_road_network",
            "grid_freeway", "alternate_diagonals", "lattice_edges")
MC_DRIVERS = ("estimate_psi_ave_upper", "empirical_Lm", "empirical_Lk",
              "crossing_experiment")
ANALYTIC = ("s_m_bound", "theta_mean_length", "cone_Lk", "psi_star",
            "expected_crossings", "second_moment_upper", "prop38_lower_bound")

# span record fields
NAME, START, END, PARENT, RAISED, COUNTS = range(6)


def _arg(fn, name):
    """Counter reading one argument of ``fn`` by name, defaults applied."""
    sig = inspect.signature(fn)

    def read(args, kwargs, _out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _entry_points():
    """(owner, attribute, span name, counter) for every traced name.

    A counter maps (args, kwargs, result) to a dict of counts.
    """
    points = []
    for owner in (configs, mc):  # mc imports poisson by name
        points.append((owner, "poisson", "configs.poisson",
                       lambda a, k, out: {"points": out.n}))
    points.append((configs, "uniform_n", "configs.uniform_n",
                   lambda a, k, out: {"points": out.n}))
    for name in BUILDERS:
        points.append((nets, name, f"nets.{name}",
                       lambda a, k, out: {"segments": len(out.segments)}))
    for owner in (nets, metrics):  # metrics imports unwrap by name
        points.append((owner, "unwrap", "nets.unwrap",
                       lambda a, k, out: {"unwrap_segments": len(out.segments)}))
    segments_in = _arg(geom.build_arrangement, "segments")
    for owner in (geom, metrics):  # metrics imports build_arrangement by name
        points.append((owner, "build_arrangement", "geom.build_arrangement",
                       lambda a, k, out: {"segments_in": len(segments_in(a, k, out)),
                                          "nodes": out.n_nodes,
                                          "edges": len(out.edges)}))
    points.append((geom, "segment_intersection", "geom.segment_intersection", None))
    points.append((geom.RoutingGraph, "distances_from", "geom.distances_from", None))
    points.append((metrics, "stretch", "metrics.stretch",
                   lambda a, k, out: {"pairs_scored": out.n_pairs,
                                      "exact": int(out.exact)}))
    points.append((metrics, "routing_graph", "metrics.routing_graph", None))
    points.append((metrics, "normalized_length", "metrics.normalized_length", None))
    n_lines = _arg(metrics.intersection_rate, "n_lines")
    points.append((metrics, "intersection_rate", "metrics.intersection_rate",
                   lambda a, k, out: {"lines": n_lines(a, k, out)}))
    for name in MC_DRIVERS:
        reps = _arg(getattr(mc, name), "replicates")
        points.append((mc, name, f"mc.{name}",
                       lambda a, k, out, reps=reps: {"replicates": reps(a, k, out)}))
    for name in ANALYTIC:
        points.append((analytic, name, f"analytic.{name}", None))
    return points


class Tracer:
    """Installs span-recording wrappers while active (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, counter in _entry_points():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           False, None])
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = spans[self._open(name)]
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one item."""
        span = self.spans[self._open(name)]
        span[START] = perf_counter()
        try:
            yield
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def write(self, path):
        """Write the spans as gzipped JSON: a name table, then one
        [name index, start, end, parent, raised, counts] row per span, with
        times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[NAME], len(names)), round(s[START] - t0, 7),
                 round(s[END] - t0, 7), s[PARENT], int(s[RAISED]), s[COUNTS]]
                for s in self.spans]
        with gzip.open(path, "wt") as f:
            json.dump({"names": list(names), "spans": rows}, f, separators=(",", ":"))


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _summarize(spans, own, index):
    """Per-layer metrics over the spans whose positions are in ``index``."""
    m = {f"{layer}.errors": 0 for layer in LAYERS}
    m.update({
        "configs.generate_s": 0.0, "configs.points": 0,
        "nets.build_s": 0.0, "nets.build_calls": 0, "nets.segments": 0,
        "nets.unwrap_s": 0.0, "nets.unwrap_segments": 0,
        "geom.arrangement_s": 0.0, "geom.arrangement_calls": 0,
        "geom.arrangement_segments_in": 0, "geom.nodes": 0, "geom.edges": 0,
        "geom.exact_pairs": 0, "geom.dijkstra_s": 0.0, "geom.dijkstra_sources": 0,
        "metrics.stretch_self_s": 0.0, "metrics.stretch_calls": 0,
        "metrics.pairs_scored": 0, "metrics.exact_share": 0.0,
        "metrics.length_s": 0.0, "metrics.intersection_rate_s": 0.0,
        "metrics.lines": 0,
        "mc.driver_self_s": 0.0, "mc.replicates": 0,
        "analytic.s": 0.0, "analytic.calls": 0,
    })
    exact = 0
    for i in index:
        s = spans[i]
        name, counts, t = s[NAME], s[COUNTS] or {}, own[i]
        layer, _, fn = name.partition(".")
        if layer not in LAYERS:
            continue
        if s[RAISED]:
            m[f"{layer}.errors"] += 1
        if layer == "configs":
            m["configs.generate_s"] += t
            m["configs.points"] += counts.get("points", 0)
        elif fn == "unwrap":
            m["nets.unwrap_s"] += t
            m["nets.unwrap_segments"] += counts.get("unwrap_segments", 0)
        elif layer == "nets":
            m["nets.build_s"] += t
            m["nets.build_calls"] += 1
            m["nets.segments"] += counts.get("segments", 0)
        elif fn == "build_arrangement":
            m["geom.arrangement_s"] += t
            m["geom.arrangement_calls"] += 1
            m["geom.arrangement_segments_in"] += counts.get("segments_in", 0)
            m["geom.nodes"] += counts.get("nodes", 0)
            m["geom.edges"] += counts.get("edges", 0)
        elif fn == "segment_intersection":
            m["geom.arrangement_s"] += t
            m["geom.exact_pairs"] += 1
        elif fn == "distances_from":
            m["geom.dijkstra_s"] += t
            m["geom.dijkstra_sources"] += 1
        elif fn in ("stretch", "routing_graph"):
            m["metrics.stretch_self_s"] += t
            if fn == "stretch":
                m["metrics.stretch_calls"] += 1
                m["metrics.pairs_scored"] += counts.get("pairs_scored", 0)
                exact += counts.get("exact", 0)
        elif fn == "normalized_length":
            m["metrics.length_s"] += t
        elif fn == "intersection_rate":
            m["metrics.intersection_rate_s"] += t
            m["metrics.lines"] += counts.get("lines", 0)
        elif layer == "mc":
            m["mc.driver_self_s"] += t
            m["mc.replicates"] += counts.get("replicates", 0)
        elif layer == "analytic":
            m["analytic.s"] += t
            parent = s[PARENT]
            if parent < 0 or not spans[parent][NAME].startswith("analytic."):
                m["analytic.calls"] += 1
    if m["metrics.stretch_calls"]:
        m["metrics.exact_share"] = exact / m["metrics.stretch_calls"]
    return m


def layer_metrics(spans) -> dict:
    """Per-layer self times and counts over all recorded spans."""
    return _summarize(spans, self_times(spans), range(len(spans)))


def item_breakdown(spans, prefix: str) -> dict:
    """Per-layer metrics of each item span whose name starts with ``prefix``,
    keyed by the rest of its name; a repeated item keeps its first run."""
    own = self_times(spans)
    top = [-1] * len(spans)  # enclosing item span of each span
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[NAME].startswith(prefix):
            top[i] = i
        elif p >= 0:
            top[i] = top[p]
    groups: dict[int, list[int]] = {}
    for i, t in enumerate(top):
        if t >= 0:
            groups.setdefault(t, []).append(i)
    out: dict[str, dict] = {}
    for t, index in groups.items():
        key = spans[t][NAME][len(prefix):]
        if key not in out:
            out[key] = _summarize(spans, own, index)
            out[key]["item_s"] = spans[t][END] - spans[t][START]
    return out
