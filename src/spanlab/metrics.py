"""Network measurements: stretch, normalized length, intersection rate.

Stretch is measured either in "steiner" mode (the planar arrangement, so
routes may switch roads at crossings) or "graph" mode (proper crossings
carry no junction; routes change roads only at road ends and cities).  Lengths are
clipped exactly to an inner window to control boundary effects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from spanlab.configs import _whole, json_text, rng_from_seed
from spanlab.geom import _groups, build_arrangement
from spanlab.nets import Network, unwrap

DEFAULT_MARGIN = 0.1
SAMPLED_PAIRS = 200_000  # pair budget: SAMPLED_PAIRS // n sources, exact once that is all n


@dataclass
class StretchReport:
    mode: str
    max_ratio: float
    argmax_pair: tuple[int, int]
    percentiles: dict[str, float]
    pair_filter: str
    n_cities: int
    n_pairs: int
    exact: bool

    def to_json(self) -> str:
        return json_text(**self.__dict__)


def _interior_mask(net: Network, margin_fraction: float) -> np.ndarray:
    inner = net.config.window.inner(margin_fraction)
    return inner.contains(net.config.points)


def routing_graph(net: Network, mode: str = "steiner"):
    """Arrangement of a network under steiner or graph semantics."""
    if mode not in ("steiner", "graph"):
        raise ValueError(f"unknown mode {mode!r}")
    win = net.config.window
    return build_arrangement(net.segments, net.config.points, 1e-9 * max(win.diameter, 1.0),
                             junctions=(mode == "steiner"),
                             window=win if net.config.torus else None)


def stretch(
    net: Network,
    mode: str = "steiner",
    pair_filter: str = "interior",
    margin_fraction: float = DEFAULT_MARGIN,
    seed: int = 0,
) -> StretchReport:
    """Max over city pairs of route length / Euclidean distance.

    Exact over all filtered pairs when the pair budget SAMPLED_PAIRS // n
    covers all n filtered cities as sources (n <= 447); otherwise that many
    seeded random source cities are used and the sampled pair count is
    reported.  The sources' searches run as one block over the usable CPUs
    (RoutingGraph.distances_from_each, bit-identical to a serial loop), each
    scoring its row of the (sources, cities) block of ratios.  The
    percentiles are taken over the finite ratios (+inf when none is), so a
    disconnected pair shows only as max_ratio = +inf.
    A torus has no boundary, so there every city is scored (the report
    reads pair_filter "all"; pair_filter and margin_fraction are not used)
    and distances are minimal-image ones.  Fewer than two filtered cities,
    or no two of them at distinct positions, is a ValueError.
    """
    if pair_filter not in ("interior", "all"):
        raise ValueError(f"unknown pair_filter {pair_filter!r}")
    side = net.config.window.width if net.config.torus else None
    if side is not None:
        pair_filter = "all"
    cities = np.flatnonzero(_interior_mask(net, margin_fraction) if pair_filter == "interior"
                            else np.ones(net.config.n, dtype=bool))
    if len(cities) < 2:
        raise ValueError("need at least two filtered cities")

    g = routing_graph(net, mode)
    pts = net.config.points

    n = len(cities)
    exact = SAMPLED_PAIRS // n >= n
    sources = cities if exact else rng_from_seed(seed).choice(
        cities, size=max(2, SAMPLED_PAIRS // n), replace=False)

    # one (sources, cities) block of ratios, at most SAMPLED_PAIRS entries,
    # each row scored where it was searched; a city's displacement from itself
    # is exactly 0, so eucl > 0 drops the self-pair, whose ratio stays -inf
    to, to_nodes = pts[cities], g.city_nodes[cities]

    def ratio_row(r, dist):
        d = to - pts[sources[r]]
        if side is not None:
            d -= side * np.round(d / side)
        eucl = np.hypot(d[:, 0], d[:, 1])
        return np.divide(dist[to_nodes], eucl, out=np.full(n, -np.inf), where=eucl > 0)

    ratios = g.distances_from_each(sources, n, ratio_row)
    kept = int(np.count_nonzero(ratios > -np.inf))
    if not kept:  # the sources are filtered cities: all of them coincide
        raise ValueError("need two filtered cities at distinct positions")
    i, j = divmod(int(np.argmax(ratios)), n)  # the first maximum in (source, city) order
    finite = ratios[np.isfinite(ratios)]
    pct = ([math.inf] * 3 if len(finite) == 0
           else np.percentile(finite, [50, 90, 99], overwrite_input=True).tolist())
    return StretchReport(
        mode=mode,
        max_ratio=float(ratios[i, j]),
        argmax_pair=(int(sources[i]), int(cities[j])),
        percentiles=dict(zip(("p50", "p90", "p99"), pct)),
        pair_filter=pair_filter,
        n_cities=n,
        n_pairs=kept // 2 if exact else kept,
        exact=exact,
    )


def local_stretch(
    net: Network,
    neighbor_rule: str = "unit-distance",
    margin_fraction: float = DEFAULT_MARGIN,
) -> float:
    """Max route/distance ratio over nearest-neighbor pairs (steiner mode).

    neighbor_rule "unit-distance" pairs cities at Euclidean distance 1;
    "mutual-nearest" pairs each city with its nearest neighbor when the
    relation is symmetric.  Only pairs of distinct positions with both
    cities in the inner window are scored, each source (a pair's smaller
    city) giving its pairs' maximum as a row of width 1 of one block search
    (RoutingGraph.distances_from_each).  Planar only: plane distances would
    miss the neighbor pairs across a torus seam.
    """
    if net.config.torus:
        raise ValueError("local_stretch has no torus form")
    from scipy.spatial import cKDTree  # on use: a process that never routes loads no scipy
    pts = net.config.points
    tree = cKDTree(pts)
    tol = 1e-9
    if neighbor_rule == "unit-distance":
        pairs = tree.query_pairs(r=1.0 + tol, output_type="ndarray").reshape(-1, 2)
        i, j = pairs.T
        pairs = pairs[np.abs(np.hypot(*(pts[i] - pts[j]).T) - 1.0) <= tol]
    elif neighbor_rule == "mutual-nearest":
        nn_dist = tree.query(pts, k=2)[0][:, 1]
        near = tree.query_ball_point(pts, nn_dist * (1 + tol))
        i = np.repeat(np.arange(len(pts)), [len(c) for c in near])
        j = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp, count=len(i))
        mutual = (i != j) & (nn_dist[j] * (1 + tol) >= np.hypot(*(pts[i] - pts[j]).T))
        pairs = np.sort(np.column_stack([i, j])[mutual], axis=1)
    else:
        raise ValueError(f"unknown neighbor_rule {neighbor_rule!r}")

    # each pair once, grouped by its smaller index, which is its source
    i, j = pairs[_groups(pairs)[0]].T
    d = np.hypot(*(pts[i] - pts[j]).T)
    mask = _interior_mask(net, margin_fraction)
    keep = mask[i] & mask[j] & (d > 0)  # coincident cities have no ratio, as in stretch
    i, j, d = i[keep], j[keep], d[keep]
    if len(i) == 0:
        raise ValueError("no neighbor pairs inside the inner window")
    g = routing_graph(net, "steiner")
    start = _groups(i)[0]
    sources = i[start]
    near = list(zip(np.split(g.city_nodes[j], start[1:]), np.split(d, start[1:])))

    def nearest_row(r, dist):
        nodes, ds = near[r]
        return np.max(dist[nodes] / ds)

    return float(g.distances_from_each(sources, 1, nearest_row).max())


def normalized_length(net: Network, margin_fraction: float = DEFAULT_MARGIN) -> float:
    """Total network length inside the inner window, per unit inner area.

    Segments are clipped exactly.  A toroidal network is measured on its
    seam pieces (``nets.unwrap``), which hold every road once inside the
    window.
    """
    inner = net.config.window.inner(margin_fraction)
    if inner.area <= 0:
        raise ValueError("empty inner window")
    segs = unwrap(net).segments
    dx, dy = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
    t0, t1 = inner.clip(segs[:, 0], segs[:, 1], dx, dy, 0.0, 1.0)
    return float((np.clip(t1 - t0, 0.0, 1.0) * np.hypot(dx, dy)).sum()) / inner.area


def intersection_rate(
    net: Network,
    n_lines: int = 10_000,
    seed: int = 0,
    margin_fraction: float = DEFAULT_MARGIN,
) -> tuple[float, float]:
    """Monte Carlo mean crossings of network edges per unit length of an
    isotropic random test line through the inner window.

    The segments (a torus network's seam pieces, ``nets.unwrap``) are
    clipped to the closed inner window as in ``normalized_length``, so a
    road counts where it lies there, edges included; a line crosses a
    clipped piece where its signed distance changes sign between its ends.

    Returns (rate, standard error).  The SE comes from up to 20 batches of
    lines; with fewer than two batches that meet the window it is nan.
    For an isotropic network the identity
    normalized length = (pi/2) * rate holds; sampling line angles uniformly
    supplies the isotropy on average for any fixed network.
    """
    n_lines = _whole(n_lines, 1, "n_lines")
    inner = net.config.window.inner(margin_fraction)
    segs = unwrap(net).segments
    dx, dy = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
    t0, t1 = inner.clip(segs[:, 0], segs[:, 1], dx, dy, 0.0, 1.0)
    keep = t0 < t1
    # the pieces inside the closed window; an end the window does not cut stays bit for bit
    ax, ay, bx, by = segs[keep].T
    t0, t1, dx, dy = t0[keep], t1[keep], dx[keep], dy[keep]
    ax, ay, bx, by = ax + t0 * dx, ay + t0 * dy, bx - (1.0 - t1) * dx, by - (1.0 - t1) * dy
    rng = rng_from_seed(seed)
    cx = 0.5 * (inner.x0 + inner.x1)
    cy = 0.5 * (inner.y0 + inner.y1)
    R = 0.5 * math.hypot(inner.width, inner.height)

    phi = rng.uniform(0.0, math.pi, n_lines)
    off = rng.uniform(-R, R, n_lines)
    counts = np.zeros(n_lines)
    chords = np.zeros(n_lines)
    # a block of lines holds about five (lines x pieces) float arrays of 2**15
    # entries at once: a 1.5 MiB peak (tracemalloc, 2,000 lines, 4,768 segments);
    # four times the budget takes 3.4 times the memory and runs about as fast
    block = max(1, (1 << 15) // max(len(ax), 1))
    for lo in range(0, n_lines, block):
        hi = min(lo + block, n_lines)
        c, s = np.cos(phi[lo:hi])[:, None], np.sin(phi[lo:hi])[:, None]
        nx, ny = -s, c
        px = cx + off[lo:hi][:, None] * nx
        py = cy + off[lo:hi][:, None] * ny
        # chord of the line inside the inner window
        t0, t1 = inner.clip(px, py, c, s, -np.inf, np.inf)
        chord = np.clip(t1 - t0, 0.0, None)[:, 0]
        chords[lo:hi] = chord
        # signed distances of the pieces' ends to each line
        sa = nx * (ax - px) + ny * (ay - py)
        sb = nx * (bx - px) + ny * (by - py)
        counts[lo:hi] = ((sa > 0) != (sb > 0)).sum(axis=1)
    total_len = chords.sum()
    if total_len == 0:
        raise ValueError("no test line hit the inner window")
    rate = counts.sum() / total_len
    # batch the lines to estimate the SE of the ratio estimator
    n_batches = min(20, n_lines)
    batch_rates = []
    for b in range(n_batches):
        sl = slice(b, None, n_batches)
        if chords[sl].sum() > 0:
            batch_rates.append(counts[sl].sum() / chords[sl].sum())
    if len(batch_rates) < 2:
        return float(rate), math.nan
    se = float(np.std(batch_rates, ddof=1) / math.sqrt(len(batch_rates)))
    return float(rate), se
