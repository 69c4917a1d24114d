"""Tests for stretch, normalized length, and intersection-rate measures."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy.spatial import cKDTree

from spanlab import metrics, nets
from spanlab.configs import (PointConfig, Window, hex_config, poisson, rng_from_seed,
                             square_grid, tri_config, uniform_n)
from spanlab.geom import build_arrangement


def _net(points, segments, side=10.0, x0=0.0, y0=0.0):
    cfg = PointConfig(np.asarray(points, dtype=float),
                      Window(x0, y0, x0 + side, y0 + side))
    return nets.Network(cfg, np.asarray(segments, dtype=float), "custom")


class TestStretch:
    def test_direct_edge_is_one(self):
        net = _net([[2, 2], [5, 6]], [[2, 2, 5, 6]])
        rep = metrics.stretch(net, pair_filter="all")
        assert rep.max_ratio == pytest.approx(1.0)
        assert rep.exact and rep.n_pairs == 1

    def test_right_angle_detour(self):
        net = _net([[2, 2], [5, 5]], [[2, 2, 5, 2], [5, 2, 5, 5]])
        rep = metrics.stretch(net, pair_filter="all")
        assert rep.max_ratio == pytest.approx(math.sqrt(2.0))
        assert tuple(sorted(rep.argmax_pair)) == (0, 1)

    def test_disconnected_pair_reports_inf(self):
        net = _net([[1, 1], [2, 2], [8, 8], [9, 9]],
                   [[1, 1, 2, 2], [8, 8, 9, 9]])
        rep = metrics.stretch(net, pair_filter="all")
        assert math.isinf(rep.max_ratio)

    def test_graph_mode_exceeds_steiner_on_crossing_instance(self):
        # brute-force-found 4-point instance where the theta-graph route
        # between cities 0 and 1 must detour unless crossings are junctions
        pts = np.array([[9.88, 4.15], [1.83, 7.82], [2.72, 5.66], [6.46, 2.0]])
        cfg = PointConfig(pts, Window(-5.0, -5.0, 15.0, 15.0))
        net = nets.theta_graph(cfg, 6)
        d = math.hypot(*(pts[0] - pts[1]))
        g = metrics.routing_graph(net, "graph")
        s = metrics.routing_graph(net, "steiner")
        ratio_g = g.distances_from(0)[g.city_nodes[1]] / d
        ratio_s = s.distances_from(0)[s.city_nodes[1]] / d
        assert ratio_g == pytest.approx(1.0911655975073984, rel=1e-9)
        assert ratio_s == pytest.approx(1.0544256177298095, rel=1e-9)
        assert ratio_g > ratio_s

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mode_dominance(self, seed):
        cfg = uniform_n(30, Window.square(10), seed=seed)
        net = nets.theta_graph(cfg, 6)
        st = metrics.stretch(net, "steiner", pair_filter="all")
        gr = metrics.stretch(net, "graph", pair_filter="all")
        assert st.max_ratio <= gr.max_ratio + 1e-9
        assert st.max_ratio >= 1.0

    def test_scale_invariance(self):
        cfg = uniform_n(25, Window.square(10), seed=5)
        net = nets.theta_graph(cfg, 6)
        rep = metrics.stretch(net, pair_filter="all")
        c = 3.7
        scaled_cfg = PointConfig(cfg.points * c, Window.square(10 * c))
        scaled = nets.Network(scaled_cfg, net.segments * c, "theta", {"m": 6})
        rep_c = metrics.stretch(scaled, pair_filter="all")
        assert rep_c.max_ratio == pytest.approx(rep.max_ratio, rel=1e-9)
        assert metrics.normalized_length(scaled) == pytest.approx(
            metrics.normalized_length(net) / c, rel=1e-9)

    def test_pair_budget_covering_every_source_is_exact(self):
        # SAMPLED_PAIRS // n >= n holds up to n = 447: every city is a source
        cfg = uniform_n(420, Window.square(20), seed=4)
        net = nets.delaunay(cfg)
        rep = metrics.stretch(net, pair_filter="all")
        assert rep.exact and (rep.n_cities, rep.n_pairs) == (420, 420 * 419 // 2)
        g = metrics.routing_graph(net)
        pts, worst = cfg.points, 0.0
        for src in range(420):
            eucl = np.hypot(*(pts - pts[src]).T)
            eucl[src] = np.inf
            worst = max(worst, float(np.max(g.distances_from(src)[g.city_nodes] / eucl)))
        assert rep.max_ratio == worst

    @pytest.mark.parametrize("points", [[[5, 5]], [[5, 5], [0.5, 5]]])
    def test_fewer_than_two_filtered_cities_rejected(self, points):
        # (0.5, 5) lies in the 0.1 margin of the side-10 window
        net = _net(points, [[5, 5, 0.5, 5]])
        with pytest.raises(ValueError, match="at least two filtered cities"):
            metrics.stretch(net)

    def test_bad_mode_and_filter_rejected(self):
        net = _net([[1, 1], [2, 2]], [[1, 1, 2, 2]])
        with pytest.raises(ValueError):
            metrics.stretch(net, mode="warp")
        with pytest.raises(ValueError):
            metrics.stretch(net, pair_filter="everything")

    def test_report_serialization(self):
        net = _net([[2, 2], [5, 6]], [[2, 2, 5, 6]])
        rep = metrics.stretch(net, pair_filter="all")
        doc = json.loads(rep.to_json())
        assert doc["schema_version"] == 1
        assert doc["mode"] == "steiner"

    def test_peak_memory_follows_routing_graph(self):
        # seed-0 40x40 torus Delaunay, 125 of 1,597 cities as sources: the
        # block is filled one source row at a time, so stretch peaks at 6.15
        # MB in tracemalloc against 6.14 MB for routing_graph; holding the
        # (sources, cities) displacements and their copies whole took 11.7
        net = nets.delaunay(poisson(Window.square(40), seed=0, torus=True))
        metrics.stretch(net)  # a first call loads scipy's modules
        peaks = []
        for measure in (metrics.routing_graph, metrics.stretch):
            tracemalloc.start()
            try:
                measure(net)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n = net.config.n
        assert peaks[1] <= peaks[0] + 3 * 8 * (metrics.SAMPLED_PAIRS // n) * n


_TORUS_BUILDERS = {"delaunay": nets.delaunay,
                   "theta6": lambda c: nets.theta_graph(c, 6),
                   "cone4": lambda c: nets.cone_road_network(c, 4)}


def _translates(net, buffer):
    """Oracle: a toroidal network unrolled into the plane, as the
    translates of every segment by whole sides that lie within ``buffer``
    of the window.  The tiles tried are those of the 3x3 block around the
    window, widened to hold every translate that meets the closed window,
    so a lift longer than the side keeps all of its length."""
    win, base = net.config.window, net.segments
    side = win.width
    lo, hi = np.minimum(base[:, :2], base[:, 2:]), np.maximum(base[:, :2], base[:, 2:])
    win_lo, win_hi = np.array([win.x0, win.y0]), np.array([win.x1, win.y1])
    k_lo = np.ceil((win_lo - hi) / side).min(axis=0, initial=-1).astype(int)
    k_hi = np.floor((win_hi - lo) / side).max(axis=0, initial=1).astype(int)
    segs = []
    for ix in range(k_lo[0], k_hi[0] + 1):
        for iy in range(k_lo[1], k_hi[1] + 1):
            off = np.array([ix * side, iy * side])
            keep = ((hi + off >= win_lo - buffer) & (lo + off <= win_hi + buffer)).all(axis=1)
            segs.append(base[keep] + np.tile(off, 2))
    return np.vstack(segs)


def _unrolled_graph(net, mode, cities=None, buffer=0.2):
    """Oracle: the arrangement of a toroidal network unrolled into the
    plane (_translates) with a buffer of that fraction of the side; cities:
    those of the network by default."""
    snap = 1e-9 * max(net.config.window.diameter, 1.0)
    return build_arrangement(_translates(net, buffer * net.config.window.width),
                             net.config.points if cities is None else cities,
                             snap_eps=snap, junctions=mode == "steiner")


class TestTranslates:
    """The translate oracle behind _unrolled_graph."""

    def test_full_buffer_gives_nine_tiles(self):
        cfg = uniform_n(15, Window.square(5), seed=6, torus=True)
        net = nets.theta_graph(cfg, 6)
        assert len(_translates(net, 10.0)) == 9 * len(net.segments)

    def test_zero_buffer_keeps_window_overlaps(self):
        cfg = uniform_n(15, Window.square(5), seed=6, torus=True)
        net = nets.theta_graph(cfg, 6)
        assert len(net.segments) <= len(_translates(net, 0.0)) <= 9 * len(net.segments)


def _recentred(net, center):
    """The toroidal network shifted on the torus so that ``center`` sits in
    the middle of the window; its cities keep their indices."""
    win = net.config.window
    side, lo = win.width, np.array([win.x0, win.y0])
    shift = lo + 0.5 * side - np.asarray(center)
    segs = net.segments + np.tile(shift, 2)
    segs -= np.tile(side * np.floor((segs[:, :2] - lo) / side), 2)
    cfg = PointConfig(lo + np.mod(net.config.points + shift - lo, side), win, torus=True)
    return nets.Network(cfg, segs, net.kind, net.params)


def _minimal_image(net, i, j):
    d = net.config.points[j] - net.config.points[i]
    side = net.config.window.width
    return d - side * np.round(d / side)


class TestTorusStretch:
    """Stretch on the torus-native routing graph against unrolled builds."""

    def test_scores_every_city_by_minimal_image(self):
        # the two cities are 1 apart across the seam, 9 apart in the plane
        cfg = PointConfig(np.array([[0.5, 5.0], [9.5, 5.0]]), Window.square(10),
                          torus=True)
        net = nets.Network(cfg, np.array([[9.5, 5.0, 10.5, 5.0]]), "custom")
        rep = metrics.stretch(net)  # the interior filter would drop both
        assert rep.max_ratio == 1.0 and rep.pair_filter == "all"
        assert (rep.n_cities, rep.n_pairs, rep.exact) == (2, 1, True)

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    @pytest.mark.parametrize("kind", ["delaunay", "theta6", "cone4"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interior_distances_match_unrolled_bit_for_bit(self, seed, kind, mode):
        cfg = poisson(Window.square(40), seed=seed, torus=True)
        net = _TORUS_BUILDERS[kind](cfg)
        g, u = metrics.routing_graph(net, mode), _unrolled_graph(net, mode)
        assert g.n_nodes < 0.6 * u.n_nodes
        cities = np.flatnonzero(cfg.window.inner(0.1).contains(cfg.points))
        sources = np.random.default_rng(seed).choice(cities, 12, replace=False)
        pts = cfg.points
        for src in sources.tolist():
            near = cities[np.hypot(*(pts[cities] - pts[src]).T) < 12]
            got = g.distances_from(src)[g.city_nodes[near]]
            want = u.distances_from(src)[u.city_nodes[near]]
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    @pytest.mark.parametrize("kind", ["delaunay", "theta6", "cone4"])
    def test_worst_and_seam_pairs_match_recentred_build(self, kind, mode):
        cfg = poisson(Window.square(40), seed=0, torus=True)
        net = _TORUS_BUILDERS[kind](cfg)
        g = metrics.routing_graph(net, mode)
        rep = metrics.stretch(net, mode)
        i, j = rep.argmax_pair
        d = _minimal_image(net, i, j)
        u = _unrolled_graph(_recentred(net, cfg.points[i] + 0.5 * d), mode)
        route = u.distances_from(i)[u.city_nodes[j]]
        assert rep.max_ratio == pytest.approx(route / np.hypot(*d), rel=1e-9)
        # pairs under 6 apart across a seam, whose cities lie 8 or more
        # from the edges once the seams run through the middle
        pts, side = cfg.points, cfg.window.width
        moved = np.mod(pts + 0.5 * side, side)
        inner = cfg.window.inner(0.2).contains(moved)
        near_seam = np.flatnonzero(inner & (np.abs(moved - 0.5 * side) < 3).any(axis=1))
        u = _unrolled_graph(_recentred(net, [0.0, 0.0]), mode)
        scored = 0
        for src in near_seam[:8].tolist():
            raw = pts - pts[src]
            wrapped = (np.abs(raw) > 0.5 * side).any(axis=1)
            dst = np.flatnonzero(inner & wrapped & (np.hypot(*_minimal_image(
                net, src, slice(None)).T) < 6))
            got = g.distances_from(src)[g.city_nodes[dst]]
            want = u.distances_from(src)[u.city_nodes[dst]]
            np.testing.assert_allclose(got, want, rtol=1e-9)
            scored += len(dst)
        assert scored >= 20

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    @pytest.mark.parametrize("build", [lambda c: nets.theta_graph(c, 6),
                                       lambda c: nets.cone_road_network(c, 2),
                                       lambda c: nets.yao_graph(c, 8)])
    def test_grid_with_cities_on_seams_matches_unrolled(self, build, mode):
        # integer cities 0..5 on the 6x6 torus: rows and columns lie on
        # x = 0 and y = 0, and wrapping edges end exactly on x = 6, y = 6
        grid = square_grid(Window.square(5)).points
        net = build(PointConfig(grid, Window.square(6), torus=True))
        g = metrics.routing_graph(net, mode)
        assert g.stats["glued"] > 0
        _assert_matches_tiles(net, mode, g)

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    @pytest.mark.parametrize("build", [lambda c: nets.theta_graph(c, 6),
                                       lambda c: nets.yao_graph(c, 8)])
    def test_grid_and_random_cities_match_unrolled(self, build, mode):
        # edges to the random cities cross the seams where grid edges run
        # along them: junctions in steiner mode, none in graph mode
        grid = square_grid(Window.square(5)).points
        extra = np.random.default_rng(12).uniform(0, 6, (6, 2))
        net = build(PointConfig(np.concatenate([grid, extra]), Window.square(6), torus=True))
        _assert_matches_tiles(net, mode)

    def test_road_across_the_seam_meets_the_image_of_a_road(self):
        # the road (9, 5)-(11, 5) meets the road at x = 0.5 only through
        # its image on the torus: up 1, across the seam 1, down 1
        cfg = PointConfig(np.array([[9.5, 4.0], [0.5, 4.0], [9.0, 5.0], [1.0, 5.0]]),
                          Window.square(10), torus=True)
        net = nets.Network(cfg, np.array([[9.0, 5.0, 11.0, 5.0], [9.5, 4.0, 9.5, 6.0],
                                          [0.5, 4.0, 0.5, 6.0]]), "custom")
        g = metrics.routing_graph(net, "steiner")
        assert g.distances_from(0)[g.city_nodes[1]] == 3.0

    def test_seam_gluing_is_transitive(self):
        # the three seam ends sit 0.9 snap_eps apart in a chain: (0, 5) and
        # (0, 5 + 1.8 eps) are farther apart than snap_eps, yet both glue to
        # the image of (10, 5 + 0.9 eps), so city 2 routes via city 0's road
        eps = 1e-9 * Window.square(10).diameter
        segs = np.array([[2, 5, 0, 5], [8, 5 + 0.9 * eps, 10, 5 + 0.9 * eps],
                         [2, 7, 0, 5 + 1.8 * eps]])
        net = nets.Network(PointConfig(segs[:, :2], Window.square(10), torus=True), segs,
                           "custom")
        g = metrics.routing_graph(net, "steiner")
        assert g.stats["glued"] == 2
        # the unrolled plane routes within snap_eps of the torus route
        for h in (g, _unrolled_graph(net, "steiner")):
            assert h.distances_from(0)[h.city_nodes[2]] == pytest.approx(2 + 2 * math.sqrt(2))

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    def test_grid_freeway_matches_unrolled(self, mode):
        # the skeleton roads run one side long along x = 0 and y = 0, the
        # seam lines; access roads end on them
        cfg = uniform_n(40, Window.square(12), seed=1, torus=True)
        _assert_matches_tiles(nets.grid_freeway(cfg, 3.0), mode)

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    def test_few_city_delaunay_matches_unrolled(self, mode):
        # three cities on the 10x10 torus: the Delaunay lifts are as long
        # as the side or longer
        cfg = uniform_n(3, Window.square(10), seed=0, torus=True)
        net = nets.delaunay(cfg)
        assert (np.abs(net.segments[:, 2:] - net.segments[:, :2]) >= 10).any()
        _assert_matches_tiles(net, mode)


def _assert_matches_tiles(net, mode, g=None):
    """Every city's torus distances equal the shortest routes to the
    nearest of the nine images of each city on the network unrolled over
    3x3 tiles."""
    g = g or metrics.routing_graph(net, mode)
    pts, side, n = net.config.points, net.config.window.width, net.config.n
    tiles = np.array([(ox, oy) for ox in (-side, 0, side) for oy in (-side, 0, side)])
    images = (pts[None] + tiles[:, None]).reshape(-1, 2)
    u = _unrolled_graph(net, mode, images, buffer=1.0)
    for src in range(n):
        got = g.distances_from(src)[g.city_nodes]
        want = u.distances_from(4 * n + src)[u.city_nodes].reshape(9, n).min(axis=0)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-12)


def _loop_stretch(net, mode="steiner", pair_filter="interior",
                  margin_fraction=metrics.DEFAULT_MARGIN, seed=0):
    """Reference: a per-source loop over the kept ratios of each source,
    taking the first maximum in (source, city) order, as (max_ratio,
    argmax_pair, percentiles, n_pairs, exact).  metrics.stretch fills a
    (sources, cities) block one source row at a time instead."""
    side = net.config.window.width if net.config.torus else None
    if side is not None:
        pair_filter = "all"
    mask = (net.config.window.inner(margin_fraction).contains(net.config.points)
            if pair_filter == "interior" else np.ones(net.config.n, dtype=bool))
    cities = np.flatnonzero(mask)
    g = metrics.routing_graph(net, mode)
    pts = net.config.points
    n = len(cities)
    exact = metrics.SAMPLED_PAIRS // n >= n
    if exact:
        sources = cities
    else:
        rng = rng_from_seed(seed)
        sources = rng.choice(cities, size=max(2, metrics.SAMPLED_PAIRS // n), replace=False)
    best = (-math.inf, (-1, -1))
    ratios = []
    for src in sources:
        route = g.distances_from(int(src))[g.city_nodes[cities]]
        d = pts[cities] - pts[src]
        if side is not None:
            d -= side * np.round(d / side)
        eucl = np.hypot(d[:, 0], d[:, 1])
        ok = (cities != src) & (eucl > 0)
        r = route[ok] / eucl[ok]
        ratios.append(r)
        if len(r):
            imax = int(np.argmax(r))
            if r[imax] > best[0]:
                best = (float(r[imax]), (int(src), int(cities[ok][imax])))
    ratios = np.concatenate(ratios)
    finite = ratios[np.isfinite(ratios)]
    if len(finite) == 0:
        pct = {"p50": math.inf, "p90": math.inf, "p99": math.inf}
    else:
        pct = {f"p{q}": float(np.percentile(finite, q)) for q in (50, 90, 99)}
    return best[0], best[1], pct, len(ratios) // 2 if exact else len(ratios), exact


# name -> (network, pair filter)
_STRETCH_CASES = {
    # about 256 interior cities: every one a source
    "planar-exact": (lambda: nets.delaunay(poisson(Window.square(20), seed=0)), "interior"),
    # about 576 interior cities: about 347 sampled sources
    "planar-sampled": (lambda: nets.theta_graph(poisson(Window.square(30), seed=1), 6),
                       "interior"),
    "torus-exact": (lambda: nets.delaunay(poisson(Window.square(15), seed=2, torus=True)),
                    "all"),
    "torus-sampled": (lambda: nets.cone_road_network(
        poisson(Window.square(25), seed=3, torus=True), 4), "all"),
    # two components: four finite pairs, six at +inf
    "disconnected": (lambda: _net([[1, 1], [2, 2], [3, 1], [8, 8], [9, 9]],
                                  [[1, 1, 2, 2], [2, 2, 3, 1], [8, 8, 9, 9]]), "all"),
    "coincident": (lambda: _net([[2, 2], [2, 2], [5, 5], [6, 5], [5, 7], [5, 7]],
                                [[2, 2, 5, 5], [5, 5, 6, 5], [5, 5, 5, 7]]), "all"),
    # a 4-cycle: both diagonals have ratio sqrt(2), the first is (0, 2)
    "tie": (lambda: _net([[1, 1], [2, 1], [2, 2], [1, 2]],
                         [[1, 1, 2, 1], [2, 1, 2, 2], [2, 2, 1, 2], [1, 2, 1, 1]]), "all"),
    # every pair coincides: no ratio at all, refused
    "all-coincident": (lambda: _net([[3, 3], [3, 3]], [[1, 1, 5, 5]]), "all"),
}


class TestStretchMatchesLoop:
    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    @pytest.mark.parametrize("case", list(_STRETCH_CASES))
    def test_matches_loop(self, case, mode):
        build, pair_filter = _STRETCH_CASES[case]
        net = build()
        if case == "all-coincident":
            with pytest.raises(ValueError, match="distinct positions"):
                metrics.stretch(net, mode, pair_filter, seed=7)
            return
        rep = metrics.stretch(net, mode, pair_filter, seed=7)
        want = _loop_stretch(net, mode, pair_filter, seed=7)
        assert (rep.max_ratio, rep.argmax_pair, rep.percentiles, rep.n_pairs, rep.exact) == want
        assert rep.exact == ("sampled" not in case)
        if case == "disconnected":
            assert rep.max_ratio == math.inf and rep.percentiles["p99"] < math.inf
        if case == "tie":
            assert (rep.max_ratio, rep.argmax_pair) == (2 / math.sqrt(2), (0, 2))

    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    @pytest.mark.parametrize("case", ["planar-sampled", "torus-sampled"])
    def test_split_searches_match_loop(self, case, mode, forks):
        # blocks large enough to split over three CPUs (the fixture reports
        # them); the oracle searches one source at a time
        build, pair_filter = _STRETCH_CASES[case]
        net = build()
        rep = metrics.stretch(net, mode, pair_filter, seed=7)
        assert len(forks) == 2
        want = _loop_stretch(net, mode, pair_filter, seed=7)
        assert (rep.max_ratio, rep.argmax_pair, rep.percentiles, rep.n_pairs, rep.exact) == want


def _loop_local_stretch(net, neighbor_rule, margin_fraction=metrics.DEFAULT_MARGIN):
    """Reference: the set-and-loop local stretch that the cKDTree array
    queries of metrics.local_stretch replaced."""
    pts = net.config.points
    tree = cKDTree(pts)
    tol = 1e-9
    if neighbor_rule == "unit-distance":
        pairs = {(i, j) for i, j in tree.query_pairs(r=1.0 + tol)
                 if abs(np.hypot(*(pts[i] - pts[j])) - 1.0) <= tol}
    else:
        nn_dist = tree.query(pts, k=2)[0][:, 1]
        pairs = set()
        for i in range(len(pts)):
            for j in tree.query_ball_point(pts[i], nn_dist[i] * (1 + tol)):
                if j != i and nn_dist[j] * (1 + tol) >= np.hypot(*(pts[i] - pts[j])):
                    pairs.add((min(i, j), max(i, j)))
    inner = net.config.window.inner(margin_fraction)
    mask = inner.contains(pts)
    g = metrics.routing_graph(net, "steiner")
    by_src = {}
    for i, j in pairs:
        if mask[i] and mask[j]:
            by_src.setdefault(i, []).append(j)
    best = -math.inf
    for i, targets in by_src.items():
        dist = g.distances_from(i)
        for j in targets:
            best = max(best, float(dist[g.city_nodes[j]]) / float(np.hypot(*(pts[i] - pts[j]))))
    return best


_LOCAL_STRETCH_CASES = [
    ("hex", lambda: nets.lattice_edges(hex_config(Window.square(10))), "mutual-nearest"),
    ("tri", lambda: nets.lattice_edges(tri_config(Window.square(10))), "mutual-nearest"),
    ("square", lambda: nets.lattice_edges(square_grid(Window.square(10))), "mutual-nearest"),
    ("square", lambda: nets.lattice_edges(square_grid(Window.square(10))), "unit-distance"),
    ("alt_diag", lambda: nets.alternate_diagonals(Window.square(10)), "unit-distance"),
] + [
    (f"{name}-{seed}", lambda build=build, seed=seed: build(poisson(Window.square(15), seed=seed)),
     "mutual-nearest")
    for seed in range(5)
    for name, build in (("delaunay", nets.delaunay), ("theta6", lambda c: nets.theta_graph(c, 6)))
] + [
    (f"grid_freeway-{seed}", lambda seed=seed: nets.grid_freeway(
        poisson(Window.square(15), seed=seed), 3.0), "mutual-nearest")
    for seed in range(2)
]


class TestLocalStretch:
    @pytest.mark.parametrize("name,build,rule", _LOCAL_STRETCH_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in _LOCAL_STRETCH_CASES])
    def test_matches_loop(self, name, build, rule):
        net = build()
        assert metrics.local_stretch(net, rule) == _loop_local_stretch(net, rule)

    def test_hex_lattice_direct_edges(self):
        net = nets.lattice_edges(hex_config(Window.square(10)))
        ratio = metrics.local_stretch(net, "mutual-nearest")
        assert ratio == pytest.approx(1.0)
        assert ratio <= math.sqrt(3.0)

    def test_tri_lattice_direct_edges(self):
        net = nets.lattice_edges(tri_config(Window.square(10)))
        ratio = metrics.local_stretch(net, "mutual-nearest")
        assert ratio == pytest.approx(1.0)
        assert ratio <= 0.5 + math.sqrt(0.75)

    def test_alternate_diagonals_unit_pairs(self):
        net = nets.alternate_diagonals(Window.square(10))
        ratio = metrics.local_stretch(net, "unit-distance")
        assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_coincident_cities_are_not_a_pair(self):
        # cities 0 and 1 coincide: their pair has no ratio and is skipped,
        # as stretch skips it; 2 and 3 are the one other mutual pair
        net = _net([[2, 2], [2, 2], [5, 5], [6, 5], [5, 7]],
                   [[2, 2, 5, 5], [5, 5, 6, 5], [5, 5, 5, 7]])
        assert metrics.local_stretch(net, "mutual-nearest", 0.0) == 1.0

    @pytest.mark.parametrize("rule", ["unit-distance", "mutual-nearest"])
    def test_no_neighbor_pair_rejected(self, rule):
        # no pair lies 1 apart, and the mutual pair (0, 1) leaves the inner window
        net = _net([[0.5, 5], [2.5, 5]], [[0.5, 5, 2.5, 5]])
        with pytest.raises(ValueError, match="no neighbor pairs inside the inner window"):
            metrics.local_stretch(net, rule)

    def test_bad_rule_rejected(self):
        net = nets.lattice_edges(square_grid(Window.square(6)))
        with pytest.raises(ValueError):
            metrics.local_stretch(net, "adjacent")

    def test_torus_rejected(self):
        # cities 0 and 1 are mutual nearest neighbors 0.3 apart across the
        # seam, with a route of 9.7; plane distances miss that pair
        cfg = PointConfig(np.array([[0.2, 5.0], [9.9, 5.0], [5.0, 5.0]]),
                          Window.square(10), torus=True)
        net = nets.Network(cfg, np.array([[0.2, 5.0, 5.0, 5.0], [5.0, 5.0, 9.9, 5.0]]),
                           "custom")
        assert metrics.stretch(net, pair_filter="all").argmax_pair == (0, 1)
        with pytest.raises(ValueError, match="no torus form"):
            metrics.local_stretch(net, "mutual-nearest", margin_fraction=0.0)


class TestNormalizedLength:
    def test_square_lattice_period_aligned(self):
        # margin chosen so the inner window boundary falls between lattice
        # rows and spans a whole number of unit cells: exactly 2
        net = nets.lattice_edges(square_grid(Window.square(40)))
        assert metrics.normalized_length(net, 3.5 / 40.0) == pytest.approx(
            2.0, abs=1e-12)

    def test_alternate_diagonals_exact(self):
        net = nets.alternate_diagonals(Window.square(40))
        assert metrics.normalized_length(net, 0.1) == pytest.approx(
            math.sqrt(2.0), abs=1e-9)

    def test_empty_network(self):
        cfg = PointConfig(np.empty((0, 2)), Window.square(5))
        net = nets.Network(cfg, np.empty((0, 4)), "custom")
        assert metrics.normalized_length(net) == 0.0

    def test_bad_margin_rejected(self):
        net = _net([[1, 1], [2, 2]], [[1, 1, 2, 2]])
        with pytest.raises(ValueError):
            metrics.normalized_length(net, 0.5)

    def test_empty_inner_window_rejected(self):
        net = nets.Network(PointConfig(np.empty((0, 2)), Window(0, 0, 0, 0)), np.empty((0, 4)),
                           "custom")
        with pytest.raises(ValueError, match="empty inner window"):
            metrics.normalized_length(net)

    def test_torus_counts_wrapped_parts(self):
        cfg = uniform_n(20, Window.square(6), seed=3, torus=True)
        net = nets.theta_graph(cfg, 6)
        # minimal-image segments may stick out of the window; on the torus
        # the protruding part wraps back in, so nothing is lost
        assert metrics.normalized_length(net, 0.0) == pytest.approx(
            net.total_length / 36.0, rel=1e-9)

    def test_torus_lift_longer_than_the_side_keeps_all_its_length(self):
        # (-5, 5)-(20.5, 5) winds 2.55 times round the torus; one of its
        # translates meets the window only two sides away
        cfg = PointConfig(np.array([[1.0, 1.0]]), Window.square(10), torus=True)
        net = nets.Network(cfg, np.array([[-5.0, 5.0, 20.5, 5.0], [3.0, 0.0, 3.0, 10.0]]),
                           "custom")
        assert metrics.normalized_length(net, 0.0) == pytest.approx(0.355, rel=1e-12)

    @pytest.mark.parametrize("edge", [0.0, 10.0])
    def test_torus_road_on_a_seam_counts_once(self, edge):
        # on the 10x10 torus the lines x = 0 and x = 10 are one line
        cfg = PointConfig(np.array([[1.0, 1.0]]), Window.square(10), torus=True)
        net = nets.Network(cfg, np.array([[edge, 2.0, edge, 7.0], [2.0, edge, 9.0, edge]]),
                           "custom")
        assert metrics.normalized_length(net, 0.0) == pytest.approx(0.12, rel=1e-12)

    def test_torus_grid_freeway_counts_each_skeleton_line_once(self):
        # t = 10/3: three lines per axis, and two access roads of length t a city
        net = nets.grid_freeway(uniform_n(5, Window.square(10), seed=0, torus=True), 3.0)
        assert metrics.normalized_length(net, 0.0) == pytest.approx(
            (60.0 + 5 * 2 * 10.0 / 3.0) / 100.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["delaunay", "theta6", "cone4"])
    @pytest.mark.parametrize("seed", range(4))
    def test_torus_length_matches_exact_lift_sum(self, seed, kind):
        # at margin 0 the torus length is the total lift length per unit
        # area, here summed at 40 digits from the float lift ends
        net = _TORUS_BUILDERS[kind](poisson(Window.square(20), seed=seed, torus=True))
        with mp.workdps(40):
            exact = mp.fsum(mp.hypot(mp.mpf(float(x2)) - mp.mpf(float(x1)),
                                     mp.mpf(float(y2)) - mp.mpf(float(y1)))
                            for x1, y1, x2, y2 in net.segments) / 400
            got = metrics.normalized_length(net, 0.0)
            assert abs((got - exact) / exact) <= 1e-15

    def test_clipping_is_exact(self):
        net = _net([[4, 4], [6, 6]], [[-10.0, 5.0, 20.0, 5.0]])
        # the inner window [1, 9]^2 sees exactly 8 units of that line
        assert metrics.normalized_length(net, 0.1) == pytest.approx(8.0 / 64.0)


class TestIntersectionRate:
    def test_vertical_grating(self):
        # unit-spacing vertical lines: x = 1..9 lie in the closed inner window
        # [1, 9]^2, the two on its edges too, so nine roads of length 8 over
        # area 64 give length density 9/8 and rate (2/pi) * 9/8
        segs = [[float(x), -5.0, float(x), 15.0] for x in range(-5, 16)]
        net = _net([[4, 4], [6, 6]], segs)
        rate, se = metrics.intersection_rate(net, n_lines=4000, seed=1)
        assert se > 0
        assert abs(rate - 2.0 / math.pi * 9 / 8) <= 3 * se + 0.01

    def test_identity_alternate_diagonals(self):
        net = nets.alternate_diagonals(Window.square(20))
        rate, se = metrics.intersection_rate(net, n_lines=6000, seed=2)
        L = metrics.normalized_length(net, 0.1)
        assert abs(L - (math.pi / 2.0) * rate) <= 3 * (math.pi / 2.0) * se

    @pytest.mark.parametrize("seed", range(6))
    def test_torus_seam_roads_cross_once(self, seed):
        # the torus grid_freeway skeleton runs along both seams; a seam road
        # is met at a chord end and must count once, not once per translate
        net = nets.grid_freeway(poisson(Window.square(12), seed=seed, torus=True), 3.0)
        L = metrics.normalized_length(net, 0.0)
        rate, se = metrics.intersection_rate(net, n_lines=2000, seed=seed, margin_fraction=0.0)
        assert abs(L - (math.pi / 2.0) * rate) <= 3 * (math.pi / 2.0) * se

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("variant", ["N1", "N2", "N3"])
    def test_planar_edge_roads_cross(self, variant, seed):
        # the grid roads at 1 and 9 lie on the default inner window's edge: as
        # on the torus seams, each counts where it lies, as normalized_length has it
        net = nets.grid_freeway(uniform_n(100, Window.square(10), seed), 1.0, variant)
        L = metrics.normalized_length(net)
        rate, se = metrics.intersection_rate(net, n_lines=10_000, seed=seed)
        assert abs(L - (math.pi / 2.0) * rate) <= 3 * (math.pi / 2.0) * se

    def test_determinism(self):
        net = nets.alternate_diagonals(Window.square(10))
        a = metrics.intersection_rate(net, n_lines=500, seed=9)
        b = metrics.intersection_rate(net, n_lines=500, seed=9)
        assert a == b

    def test_one_line_has_nan_standard_error(self):
        # one line fills one batch, and one batch has no spread
        net = nets.alternate_diagonals(Window.square(10))
        rate, se = metrics.intersection_rate(net, n_lines=1, seed=0)
        assert rate > 0 and math.isnan(se)

    def test_memory_stays_bounded(self):
        # lines meet the segments in blocks of a fixed budget of entries,
        # whatever the segment count (4,768 here)
        net = nets.delaunay(poisson(Window.square(40), seed=0))
        tracemalloc.start()
        try:
            metrics.intersection_rate(net, n_lines=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20

    def test_bad_line_count_rejected(self):
        net = _net([[1, 1], [2, 2]], [[1, 1, 2, 2]])
        with pytest.raises(ValueError):
            metrics.intersection_rate(net, n_lines=0)

    @pytest.mark.parametrize("n_lines", [2.5, math.nan, math.inf])
    def test_non_integer_line_count_rejected(self, n_lines):
        net = _net([[1, 1], [2, 2]], [[1, 1, 2, 2]])
        with pytest.raises(ValueError, match=r"n_lines must be an integer >= 1"):
            metrics.intersection_rate(net, n_lines=n_lines)

    def test_whole_float_line_count_counts(self):
        net = nets.alternate_diagonals(Window.square(10))
        assert (metrics.intersection_rate(net, n_lines=300.0)
                == metrics.intersection_rate(net, n_lines=300))

    def test_no_line_meeting_the_inner_window_rejected(self):
        # a point window: every chord through it has length 0
        net = nets.Network(PointConfig(np.empty((0, 2)), Window(0, 0, 0, 0)), np.empty((0, 4)),
                           "custom")
        with pytest.raises(ValueError, match="no test line hit the inner window"):
            metrics.intersection_rate(net, n_lines=10)


@pytest.mark.parametrize("margin", [-0.2, 0.5, 0.7])
@pytest.mark.parametrize("measure", ["length", "rate", "stretch", "local"])
def test_every_metric_takes_its_margin_rule_from_the_window(measure, margin):
    """A margin outside [0, 0.5) is refused by Window.inner, for every metric
    that reads an inner window."""
    planar = nets.delaunay(poisson(Window.square(10), seed=1))
    call = {"length": lambda: metrics.normalized_length(planar, margin),
            "rate": lambda: metrics.intersection_rate(planar, 200, 0, margin),
            "stretch": lambda: metrics.stretch(planar, margin_fraction=margin),
            "local": lambda: metrics.local_stretch(nets.alternate_diagonals(Window.square(10)),
                                                   "unit-distance", margin)}[measure]
    with pytest.raises(ValueError, match=r"margin_fraction must be in \[0, 0\.5\)"):
        call()
