"""Tests for the network builders."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, cKDTree

from spanlab import metrics, nets
from spanlab.configs import (PointConfig, Window, hex_config, poisson,
                             square_grid, tri_config, uniform_n)


def _config(points, side=10.0, torus=False):
    return PointConfig(np.asarray(points, dtype=float), Window.square(side),
                       torus=torus)


def _incident_directions(net, i):
    """Unit directions of edges leaving city i (segments store each edge once)."""
    p = net.config.points[i]
    dirs = []
    for x1, y1, x2, y2 in net.segments:
        if math.hypot(x1 - p[0], y1 - p[1]) < 1e-12:
            dirs.append((x2 - x1, y2 - y1))
        elif math.hypot(x2 - p[0], y2 - p[1]) < 1e-12:
            dirs.append((x1 - x2, y1 - y2))
    return dirs


class TestNetwork:
    def test_degenerate_segment_rejected(self):
        cfg = _config([[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            nets.Network(cfg, np.array([[0.0, 0.0, 0.0, 0.0]]), "custom")

    def test_total_length(self):
        cfg = _config([[0, 0], [3, 4]])
        net = nets.Network(cfg, np.array([[0.0, 0.0, 3.0, 4.0]]), "custom")
        assert net.total_length == pytest.approx(5.0)

    def test_json_round_trip(self):
        cfg = uniform_n(12, Window.square(6), seed=2, torus=True)
        net = nets.theta_graph(cfg, 6)
        back = nets.Network.from_json(net.to_json())
        assert np.allclose(back.segments, net.segments)
        assert back.kind == "theta" and back.params["m"] == 6
        assert back.config.torus

    def test_json_bytes(self):
        cfg = PointConfig([[-0.0, 0.5], [1.25, 0.1]], Window.from_bounds([0, 0, 2, 1.5]))
        net = nets.Network(cfg, [[-0.0, 0.5, 1.25, 0.1], [1.25, 0.1, 1.9999999999999998, 5e-324]],
                           kind="theta", params={"m": 6})
        assert net.to_json() == (
            '{"schema_version": 1, "kind": "theta", "params": {"m": 6}, "torus": false, '
            '"window": [0, 0, 2, 1.5], "cities": [[-0.0, 0.5], [1.25, 0.1]], '
            '"segments": [[-0.0, 0.5, 1.25, 0.1], [1.25, 0.1, 1.9999999999999998, 5e-324]]}')

    @given(st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 4), max_size=6))
    @settings(max_examples=200, deadline=None)
    @example([(-0.0, 5e-324, -2.225073858507201e-308, 0.30000000000000004)])
    def test_json_round_trip_is_bit_exact(self, segments):
        assume(all((x1, y1) != (x2, y2) for x1, y1, x2, y2 in segments))
        cities = np.array(segments).reshape(-1, 2)
        net = nets.Network(PointConfig(cities, Window.square(1)), segments, "custom")
        back = nets.Network.from_json(net.to_json())
        assert back.segments.shape == net.segments.shape
        assert back.segments.tobytes() == net.segments.tobytes()
        assert back.config.points.tobytes() == net.config.points.tobytes()

    @pytest.mark.parametrize("params", [[], "text", None])
    def test_params_that_are_not_an_object_rejected(self, params):
        doc = json.loads(nets.delaunay(_config([[0, 0], [4, 0], [0, 3]])).to_json())
        with pytest.raises(ValueError, match="params must be a JSON object"):
            nets.Network.from_json(json.dumps({**doc, "params": params}))


class TestThetaGraph:
    def test_two_cities_one_edge(self):
        net = nets.theta_graph(_config([[1, 1], [3, 2]]), 6)
        assert len(net.segments) == 1

    def test_collinear_chain(self):
        pts = [[i + 1.0, 2.0] for i in range(5)]
        net = nets.theta_graph(_config(pts, side=7), 6)
        assert len(net.segments) == 4
        assert net.total_length == pytest.approx(4.0)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            nets.theta_graph(_config([[0, 0], [1, 1]]), 4)

    @pytest.mark.parametrize("m", [math.inf, math.nan, 6.5])
    @pytest.mark.parametrize("builder", [nets.theta_graph, nets.yao_graph])
    def test_non_integer_m_rejected(self, builder, m):
        with pytest.raises(ValueError, match="integer >= 6"):
            builder(_config([[0, 0], [1, 1]]), m)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [6, 8])
    def test_matches_brute_force(self, seed, m):
        cfg = uniform_n(25, Window.square(10), seed=seed)
        net = nets.theta_graph(cfg, m)
        got = {tuple(np.round(s, 9)) for s in net.segments}
        got |= {(s[2], s[3], s[0], s[1]) for s in got}
        pts = cfg.points
        theta = 2 * math.pi / m
        for i in range(25):
            d = pts - pts[i]
            dist = np.hypot(d[:, 0], d[:, 1])
            ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2 * math.pi)
            cone = np.minimum((ang / theta).astype(int), m - 1)
            for c in range(m):
                members = [j for j in range(25)
                           if j != i and cone[j] == c and dist[j] > 0]
                if not members:
                    continue
                j = min(members,
                        key=lambda j: dist[j] * math.cos(ang[j] - (c + 0.5) * theta))
                seg = tuple(np.round([*pts[i], *pts[j]], 9))
                assert seg in got

    @pytest.mark.parametrize("seed", [3, 4])
    def test_theta_dense(self, seed):
        """Every cone of a city that contains another city holds an edge."""
        m = 6
        cfg = uniform_n(30, Window.square(10), seed=seed)
        net = nets.theta_graph(cfg, m)
        pts = cfg.points
        theta = 2 * math.pi / m
        for i in range(30):
            dirs = _incident_directions(net, i)
            edge_cones = {int(np.mod(math.atan2(dy, dx), 2 * math.pi) // theta)
                          for dx, dy in dirs}
            d = pts - pts[i]
            dist = np.hypot(d[:, 0], d[:, 1])
            ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2 * math.pi)
            for j in range(30):
                if j == i or dist[j] == 0:
                    continue
                assert int(ang[j] // theta) % m in edge_cones


class TestYaoGraph:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_nearest_in_cone_connected(self, seed):
        m = 6
        cfg = uniform_n(20, Window.square(8), seed=seed)
        net = nets.yao_graph(cfg, m)
        got = {tuple(np.round(s, 9)) for s in net.segments}
        got |= {(s[2], s[3], s[0], s[1]) for s in got}
        pts = cfg.points
        theta = 2 * math.pi / m
        for i in range(20):
            d = pts - pts[i]
            dist = np.hypot(d[:, 0], d[:, 1])
            ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2 * math.pi)
            cone = np.minimum((ang / theta).astype(int), m - 1)
            for c in range(m):
                members = [j for j in range(20)
                           if j != i and cone[j] == c and dist[j] > 0]
                if members:
                    j = min(members, key=lambda j: dist[j])
                    assert tuple(np.round([*pts[i], *pts[j]], 9)) in got


def _cone_edges_reference(config, n_cones, criterion):
    """The per-city, per-candidate loop over all n cities that
    nets._cone_edges replaces: a dict from edge key to the segment and the
    cone of the city that picked the edge."""
    pts = config.points
    n = len(pts)
    side = config.window.width if config.torus else None
    theta = 2.0 * math.pi / n_cones
    edges = {}
    for i in range(n):
        d = pts - pts[i]  # minimal image on a torus
        if side is not None:
            d -= side * np.round(d / side)
        dist = np.hypot(d[:, 0], d[:, 1])
        dist[i] = np.inf
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
        cone = np.minimum((ang / theta).astype(int), n_cones - 1)
        if criterion == "projection":
            key1 = dist * np.cos(ang - (cone + 0.5) * theta)
        else:
            key1 = dist
        order = np.lexsort((np.arange(n), ang, dist, key1))
        chosen = {}
        for j in order:
            if not np.isfinite(dist[j]):
                continue
            c = int(cone[j])
            if c not in chosen:
                chosen[c] = int(j)
        for c, j in chosen.items():
            wrap = np.round((pts[j] - pts[i] - d[j]) / side) if side else np.zeros(2)
            if i < j:
                key = (i, j, int(-wrap[0]), int(-wrap[1]))
            else:
                key = (j, i, int(wrap[0]), int(wrap[1]))
            if key not in edges:
                edges[key] = (pts[i][0], pts[i][1],
                              pts[i][0] + d[j][0], pts[i][1] + d[j][1], c)
    return edges


def _assert_cone_edges_match_reference(cfg, n_cones, criterion):
    """Same keys in the same order, segments bit for bit, same cones."""
    keys, segs, cone = nets._cone_edges(cfg, n_cones, criterion)
    want = _cone_edges_reference(cfg, n_cones, criterion)
    assert [tuple(k) for k in keys.tolist()] == list(want)
    want = np.array(list(want.values())).reshape(-1, 5)
    np.testing.assert_array_equal(segs, want[:, :4])
    np.testing.assert_array_equal(cone, want[:, 4])


class TestConeEdgesFastPath:
    """nets._cone_edges (k-nearest candidates) against the all-cities loop."""

    @staticmethod
    def _configs():
        grid = square_grid(Window.square(5)).points
        line = np.column_stack([np.linspace(1, 9, 12), np.full(12, 4.0)])
        return [
            uniform_n(60, Window.square(10), seed=3),
            poisson(Window.square(8), seed=4, torus=True),
            # lattices tie on distance and angle, exercising the tie-break
            square_grid(Window.square(6)),
            PointConfig(grid, Window.square(6), torus=True),
            hex_config(Window.square(6)),
            tri_config(Window.square(6)),
            PointConfig(tri_config(Window.square(6)).points, Window.square(6), torus=True),
            # planar: boundary cities have empty cones, settled by the
            # bounding box or by taking every city as a candidate
            uniform_n(400, Window.square(20), seed=8),
            _config(line),
            _config([[0, 0], [10, 10], [0, 10], [10, 0], [5, 5], [5, 0]]),
            # fewer cities than the first neighbour count
            _config([[1, 1], [3, 2]]),
            _config([[1, 1], [3, 2], [2, 5]], torus=True),
            _config([[4, 4]]),
        ]

    @pytest.mark.parametrize("criterion", ["projection", "distance"])
    @pytest.mark.parametrize("n_cones", [4, 6, 8, 12])
    def test_matches_reference_loop(self, criterion, n_cones):
        for cfg in self._configs():
            _assert_cone_edges_match_reference(cfg, n_cones, criterion)

    @pytest.mark.parametrize("block", [1, 50, 1 << 18])
    def test_blocks_match_reference_loop(self, monkeypatch, block):
        # two far clusters: a city's winners across the gap are found only
        # at k = n, so every round splits into blocks of cities
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(0, 3, (40, 2)), rng.uniform(0, 3, (40, 2)) + 500])
        queried = []

        class RecordingTree(cKDTree):
            def query(self, x, k):
                queried.append((len(x), k))
                return super().query(x, k=k)

        monkeypatch.setattr(nets, "_RANK_BLOCK", block)
        # _cone_edges imports cKDTree from scipy.spatial when it is called
        monkeypatch.setattr("scipy.spatial.cKDTree", RecordingTree)
        for cfg in [_config(pts, side=510.0), poisson(Window.square(8), seed=4, torus=True)]:
            for n_cones, criterion in [(6, "projection"), (8, "distance")]:
                _assert_cone_edges_match_reference(cfg, n_cones, criterion)
        assert any(k == len(pts) for _, k in queried)
        assert all(rows * k <= block or rows == 1 for rows, k in queried)

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([4, 6, 9]), st.sampled_from(["projection", "distance"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_sets(self, n, seed, torus, n_cones, criterion):
        # coordinates on a coarse grid make exact distance and angle ties
        # common; coincident cities (degenerate segments) are dropped
        rng = np.random.default_rng(seed)
        pts = rng.permutation(np.unique(rng.integers(0, 16, (n, 2)) / 2.0, axis=0))
        cfg = _config(pts, side=8.0, torus=torus)
        _assert_cone_edges_match_reference(cfg, n_cones, criterion)


class TestEdgeKeyCodes:
    """Builder edge keys (i, j, wx, wy) deduped by geom._groups, against row-wise np.unique."""

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 2**40))
    @settings(max_examples=60, deadline=None)
    def test_matches_row_unique(self, n, seed, span):
        # wraps of any size: no bound on them is assumed
        rng = np.random.default_rng(seed)
        keys = np.column_stack([rng.integers(0, n, (200, 2)),
                                rng.choice([-span, -1, 0, 1, span], (200, 2))])
        want = np.unique(keys, axis=0, return_index=True)[1]
        np.testing.assert_array_equal(nets._groups(keys)[0], want)

    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("name", ["delaunay", "theta6", "yao8", "cone4"])
    def test_segments_match_row_unique_oracle(self, monkeypatch, name, torus):
        build = {"delaunay": nets.delaunay, "theta6": lambda c: nets.theta_graph(c, 6),
                 "yao8": lambda c: nets.yao_graph(c, 8),
                 "cone4": lambda c: nets.cone_road_network(c, 4)}[name]
        wraps = set()

        def row_unique(keys):
            if keys.ndim == 2:  # an edge key; rank's 1-D codes carry no wrap
                wraps.update(keys[:, 2:].ravel().tolist())
            _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
            return first, group.ravel()

        for seed in range(2):
            cfg = poisson(Window.square(15), seed=seed, torus=torus)
            got = build(cfg).segments
            with monkeypatch.context() as m:
                m.setattr(nets, "_groups", row_unique)
                want = build(cfg).segments
            assert got.tobytes() == want.tobytes()
        assert {-1, 1} <= wraps if torus else wraps == {0}


class TestEmptyConfig:
    """A configuration with no city gives an empty network, planar or toroidal."""

    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("kind,params", [("theta", {"m": 6}), ("yao", {"m": 6}),
                                             ("cone", {"k": 3})])
    def test_cone_builders(self, kind, params, torus):
        net = nets.build(kind, _config(np.empty((0, 2)), torus=torus), params)
        assert net.segments.shape == (0, 4)


class TestCoincidentCities:
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("kind,params", [("theta", {"m": 6}), ("yao", {"m": 6}),
                                             ("cone", {"k": 3})])
    def test_no_zero_length_edge(self, kind, params, torus):
        # cities 0 and 1 coincide: neither wins a cone of the other
        net = nets.build(kind, _config([[1, 1], [1, 1], [3, 2], [2, 4]], torus=torus),
                         params)
        assert len(net.segments) > 0
        rep = metrics.stretch(net, pair_filter="all")
        assert rep.max_ratio == pytest.approx(1.0)
        assert rep.n_pairs == 5  # the coincident pair has no ratio


class TestConeRoads:
    def test_two_cities(self):
        net = nets.cone_road_network(_config([[1, 1], [2, 3]]), 2)
        assert len(net.segments) == 1

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            nets.cone_road_network(_config([[0, 0], [1, 1]]), 1)

    @pytest.mark.parametrize("k", [math.inf, math.nan, 2.5])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="integer >= 2"):
            nets.cone_road_network(_config([[0, 0], [1, 1]]), k)

    @pytest.mark.parametrize("directions", [[1.5], [0, math.nan]])
    def test_non_integer_direction_rejected(self, directions):
        with pytest.raises(ValueError, match="directions must be integers"):
            nets.cone_road_network(_config([[0, 0], [1, 1]]), 4, directions=directions)

    def test_direction_classes_partition(self):
        cfg = uniform_n(40, Window.square(10), seed=9)
        k = 4
        full = nets.cone_road_network(cfg, k)
        parts = [nets.cone_road_network(cfg, k, directions=[i])
                 for i in range(k)]
        union = {tuple(np.round(s, 9)) for p in parts for s in p.segments}
        assert union == {tuple(np.round(s, 9)) for s in full.segments}
        assert sum(len(p.segments) for p in parts) == len(full.segments)

    def test_direction_angles(self):
        cfg = uniform_n(30, Window.square(10), seed=3)
        k = 4
        for i in range(k):
            net = nets.cone_road_network(cfg, k, directions=[i])
            for x1, y1, x2, y2 in net.segments:
                ang = math.atan2(y2 - y1, x2 - x1) % math.pi
                assert i * math.pi / k - 1e-12 <= ang <= (i + 1) * math.pi / k + 1e-12


def _tiled_delaunay(cfg):
    """Oracle: the Delaunay edges of the whole 3x3 tiling of a toroidal
    configuration whose midpoint lies in the window, one per key (i, j,
    wx, wy), as segments from i's end to j's in key order."""
    pts, n, win = cfg.points, cfg.n, cfg.window
    tiles = np.array([(ix, iy) for ix in (-1, 0, 1) for iy in (-1, 0, 1)])
    tiled = np.concatenate([pts + win.width * t for t in tiles])
    a, b = Delaunay(tiled).simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).T
    mid = 0.5 * (tiled[a] + tiled[b])
    inside = ((win.x0 <= mid[:, 0]) & (mid[:, 0] < win.x1)
              & (win.y0 <= mid[:, 1]) & (mid[:, 1] < win.y1))
    a, b = a[inside], b[inside]
    flip = (a % n > b % n) | ((a % n == b % n) & (a > b))
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    keys = np.column_stack([a % n, b % n, tiles[b // n] - tiles[a // n]])
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.hstack([tiled[a[first]], tiled[b[first]]])


def _edge_keys(net):
    """The key (i, j, wx, wy) of each segment of a Delaunay network, read
    from its ends: i the city at its start, j at its end."""
    pts, win = net.config.points, net.config.window
    lo, side = np.array([win.x0, win.y0]), win.width
    ends = net.segments.reshape(-1, 2)
    _, city = cKDTree(pts).query(lo + np.mod(ends - lo, side) if net.config.torus else ends)
    i, j = city.reshape(-1, 2).T
    wrap = np.round((net.segments[:, 2:] - net.segments[:, :2] - pts[j] + pts[i]) / side)
    return [(int(a), int(b), int(x), int(y)) for a, b, (x, y) in zip(i, j, wrap)]


class _QhullSpy:
    """Records the number of points of each scipy.spatial.Delaunay call;
    the first ``failures`` calls raise QhullError."""

    def __init__(self, monkeypatch, failures=0):
        import scipy.spatial
        self.sizes, real = [], scipy.spatial.Delaunay

        def spy(points, *args, **kwargs):
            self.sizes.append(len(points))
            if len(self.sizes) <= failures:
                raise scipy.spatial.QhullError("refused")
            return real(points, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "Delaunay", spy)


class TestDelaunay:
    def test_triangle(self):
        net = nets.delaunay(_config([[0, 0], [4, 0], [0, 3]]))
        assert len(net.segments) == 3
        assert net.total_length == pytest.approx(12.0)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            nets.delaunay(_config([[0, 0], [1, 1], [2, 2]]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            nets.delaunay(_config([[0, 0], [1, 1]]))

    def test_torus_edge_count(self):
        # a triangulation of the torus has exactly 3n edges
        cfg = poisson(Window.square(10), seed=4, torus=True)
        net = nets.delaunay(cfg)
        assert len(net.segments) == 3 * cfg.n

    def test_planar_edges_in_index_order(self):
        cfg = uniform_n(30, Window.square(10), seed=1)
        index = {p: k for k, p in enumerate(map(tuple, cfg.points.tolist()))}
        pairs = [(index[tuple(s[:2])], index[tuple(s[2:])])
                 for s in nets.delaunay(cfg).segments.tolist()]
        assert pairs == sorted(set(pairs)) and all(i < j for i, j in pairs)
        assert pairs == [key[:2] for key in _edge_keys(nets.delaunay(cfg))]

    @pytest.mark.parametrize("side,seed", [(10, 4), (40, 0)])
    def test_torus_edges_in_key_order(self, side, seed):
        keys = _edge_keys(nets.delaunay(poisson(Window.square(side), seed=seed, torus=True)))
        assert keys == sorted(set(keys)) and all(i <= j for i, j, _, _ in keys)

    @pytest.mark.parametrize("side", [5, 6, 8, 12, 20, 30, 40, 60, 80])
    def test_band_matches_tiling_on_poisson_tori(self, side):
        for seed in range(4 if side < 60 else 2):
            cfg = poisson(Window.square(side), seed=seed, torus=True)
            np.testing.assert_array_equal(nets.delaunay(cfg).segments,
                                          _tiled_delaunay(cfg), err_msg=str(seed))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_band_matches_tiling_on_few_cities(self, n):
        for seed in range(20):
            cfg = uniform_n(n, Window.square(10), seed=seed, torus=True)
            np.testing.assert_array_equal(nets.delaunay(cfg).segments,
                                          _tiled_delaunay(cfg), err_msg=str(seed))

    @given(st.integers(3, 400), st.floats(2.0, 30.0), st.floats(-50.0, 50.0),
           st.floats(-50.0, 50.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_band_matches_tiling_on_random_tori(self, n, side, x0, y0, seed):
        window = Window(x0, y0, x0 + side, y0 + side)
        cfg = uniform_n(n, window, seed=seed, torus=True)
        np.testing.assert_array_equal(nets.delaunay(cfg).segments, _tiled_delaunay(cfg))

    @pytest.mark.parametrize("radius,centre", [(10, (0, 20)), (15, (40, 40)), (3, (0, 0))])
    def test_band_widens_across_an_empty_disk(self, monkeypatch, radius, centre):
        cfg = poisson(Window.square(40), seed=0, torus=True)
        d = cfg.points - centre
        d -= 40 * np.round(d / 40)
        cfg = PointConfig(cfg.points[np.hypot(d[:, 0], d[:, 1]) > radius], cfg.window,
                          torus=True)
        spy = _QhullSpy(monkeypatch)
        np.testing.assert_array_equal(nets.delaunay(cfg).segments, _tiled_delaunay(cfg))
        # a disk wider than the first band's margin needs a wider band
        assert (len(spy.sizes) > 1) == (radius > 4) and spy.sizes == sorted(spy.sizes)

    def test_qhull_sees_a_band_not_nine_tiles(self, monkeypatch):
        cfg = poisson(Window.square(40), seed=0, torus=True)
        spy = _QhullSpy(monkeypatch)
        assert len(nets.delaunay(cfg).segments) == 3 * cfg.n
        assert len(spy.sizes) == 1 and spy.sizes[0] <= 2 * cfg.n

    def test_qhull_failure_widens_the_band(self, monkeypatch):
        cfg = poisson(Window.square(40), seed=0, torus=True)
        spy = _QhullSpy(monkeypatch, failures=1)
        np.testing.assert_array_equal(nets.delaunay(cfg).segments, _tiled_delaunay(cfg))
        assert len(spy.sizes) == 2 and spy.sizes[0] < spy.sizes[1] < 9 * cfg.n
        # when the whole tiling fails too, the error is the builder's
        spy = _QhullSpy(monkeypatch, failures=10)
        with pytest.raises(ValueError, match="triangulation failed"):
            nets.delaunay(cfg)
        assert spy.sizes[-1] == 9 * cfg.n

    def test_cocircular_grid_torus(self):
        # the squares' diagonals may be chosen otherwise than in the 3x3
        # tiling; what holds for any choice is checked
        grid = [(x + 0.5, y + 0.5) for x in range(10) for y in range(10)]
        net = nets.delaunay(_config(grid, torus=True))
        assert len(net.segments) == 3 * 100
        # no two edges cross properly: routing adds no crossing node
        steiner, graph = metrics.routing_graph(net, "steiner"), metrics.routing_graph(net, "graph")
        assert steiner.n_nodes == graph.n_nodes
        assert metrics.stretch(net).max_ratio == pytest.approx(math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_few_city_torus_edge_count(self, n):
        # edges from a city to its own image, read from either end, are one
        for seed in range(20):
            cfg = uniform_n(n, Window.square(10), seed=seed, torus=True)
            assert len(nets.delaunay(cfg).segments) == 3 * n, seed

    def test_torus_edges_are_minimal_images(self):
        cfg = poisson(Window.square(10), seed=4, torus=True)
        net = nets.delaunay(cfg)
        side = 10.0
        for x1, y1, x2, y2 in net.segments:
            assert math.hypot(x2 - x1, y2 - y1) < side * math.sqrt(2) / 2 + 1e-9


class TestGridFreeway:
    def test_skeleton_lengths(self):
        empty = PointConfig(np.empty((0, 2)), Window.square(6))
        for variant, lines in (("N1", 14), ("N2", 26), ("N3", 38)):
            net = nets.grid_freeway(empty, 1.0, variant)
            assert net.total_length == pytest.approx(6.0 * lines)

    def test_torus_skeleton_has_no_far_edge_lines(self):
        # on a torus the lines at x = 6 and y = 6 are those at x = 0 and y = 0
        empty = PointConfig(np.empty((0, 2)), Window.square(6), torus=True)
        net = nets.grid_freeway(empty, 1.0, "N1")
        assert len(net.segments) == 12
        assert net.segments[:6, 0].tolist() == net.segments[6:, 1].tolist() == [0, 1, 2, 3, 4, 5]

    def test_t_snaps_to_divisor(self):
        empty = PointConfig(np.empty((0, 2)), Window.square(6))
        net = nets.grid_freeway(empty, 0.9, "N1")
        assert net.params["t"] == pytest.approx(6.0 / 7.0)

    def test_access_roads_span_cell(self):
        cfg = _config([[2.3, 4.7]], side=6)
        net = nets.grid_freeway(cfg, 1.0, "N1")
        skeleton = nets.grid_freeway(
            PointConfig(np.empty((0, 2)), Window.square(6)), 1.0, "N1")
        assert net.total_length - skeleton.total_length == pytest.approx(2.0)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            nets.grid_freeway(_config([[1, 1]]), 1.0, "N4")

    @pytest.mark.parametrize("t, message", [(0.0, "positive"), (-2.0, "positive"),
                                            (-math.inf, "positive"), (math.inf, "finite"),
                                            (math.nan, "finite")])
    def test_bad_spacing_rejected(self, t, message):
        with pytest.raises(ValueError, match=f"cell spacing t must be {message}"):
            nets.grid_freeway(_config([[1, 1]]), t)

    @pytest.mark.parametrize("t", [1e-300, 5e-324, 10.0 / 4097])
    def test_too_fine_spacing_rejected(self, t):
        # refused before any line is built: 1e-300 asked for 1e301 lines per axis
        with pytest.raises(ValueError, match="grid lines per axis, more than 4096"):
            nets.grid_freeway(_config([[1, 1]]), t)

    def test_finest_spacing_builds(self):
        net = nets.grid_freeway(_config([[1, 1]], torus=True), 10.0 / 4096)
        assert net.params["t"] == 10.0 / 4096
        assert len(net.segments) == 2 * 4096 + 2


class TestAlternateDiagonals:
    def test_city_coverage(self):
        # every integer city must lie on exactly one diagonal line
        net = nets.alternate_diagonals(Window.square(6))
        for p in net.config.points:
            on = [s for s in net.segments
                  if abs((s[2] - s[0]) * (p[1] - s[1])
                         - (s[3] - s[1]) * (p[0] - s[0])) < 1e-9
                  and min(s[0], s[2]) - 1e-9 <= p[0] <= max(s[0], s[2]) + 1e-9]
            assert len(on) == 1

    def test_translation_periodicity(self):
        a = nets.alternate_diagonals(Window(0, 0, 6, 6))
        b = nets.alternate_diagonals(Window(2, 0, 8, 6))
        shifted = {tuple(np.round(s - np.array([2, 0, 2, 0]), 9))
                   for s in b.segments}
        assert shifted == {tuple(np.round(s, 9)) for s in a.segments}

    def test_non_integer_window_rejected(self):
        with pytest.raises(ValueError):
            nets.alternate_diagonals(Window.square(6.5))


class TestLatticeEdges:
    def test_square_interior_degree(self):
        net = nets.lattice_edges(square_grid(Window.square(6)))
        pts = net.config.points
        interior = net.config.window.inner(0.2).contains(pts)
        for i in np.flatnonzero(interior):
            assert len(_incident_directions(net, i)) == 4

    def test_hex_interior_degree(self):
        net = nets.lattice_edges(hex_config(Window.square(10)))
        interior = net.config.window.inner(0.25).contains(net.config.points)
        for i in np.flatnonzero(interior):
            assert len(_incident_directions(net, i)) == 3

    def test_tri_interior_degree(self):
        net = nets.lattice_edges(tri_config(Window.square(10)))
        interior = net.config.window.inner(0.25).contains(net.config.points)
        for i in np.flatnonzero(interior):
            assert len(_incident_directions(net, i)) == 6

    def test_edges_in_index_order(self):
        cfg = tri_config(Window.square(6))
        pts = cfg.points
        d = np.hypot(*(pts[:, None] - pts[None]).transpose(2, 0, 1))
        i, j = np.nonzero(np.triu(d <= cfg.params["spacing"] * (1.0 + 1e-9), 1))
        np.testing.assert_array_equal(nets.lattice_edges(cfg).segments,
                                      np.hstack([pts[i], pts[j]]))

    def test_non_lattice_rejected(self):
        with pytest.raises(ValueError):
            nets.lattice_edges(poisson(Window.square(10), seed=1))

    @pytest.mark.parametrize("make", [square_grid, hex_config, tri_config])
    def test_torus_rejected(self, make):
        cfg = dataclasses.replace(make(Window.square(6)), torus=True)
        with pytest.raises(ValueError, match="torus"):
            nets.lattice_edges(cfg)


class TestUnwrap:
    def test_planar_passthrough(self):
        net = nets.delaunay(_config([[0, 0], [4, 0], [0, 3]]))
        assert nets.unwrap(net) is net

    @pytest.mark.parametrize("build", [nets.delaunay, lambda c: nets.theta_graph(c, 6),
                                       lambda c: nets.cone_road_network(c, 4),
                                       lambda c: nets.grid_freeway(c, 3.0)])
    @pytest.mark.parametrize("seed", range(3))
    def test_pieces_tile_the_window_with_every_lift(self, seed, build):
        net = build(poisson(Window.square(12), seed=seed, torus=True))
        planar = nets.unwrap(net)
        assert not planar.config.torus
        segs = planar.segments
        assert ((segs >= 0.0) & (segs <= 12.0)).all()
        assert planar.total_length == pytest.approx(net.total_length, rel=1e-12)

    def test_lift_along_a_far_edge_lands_on_the_near_edge(self):
        cfg = _config([[1.0, 1.0]], torus=True)
        net = nets.Network(cfg, np.array([[10.0, 2.0, 10.0, 7.0], [2.0, 10.0, 9.0, 10.0]]),
                           "custom")
        np.testing.assert_array_equal(nets.unwrap(net).segments,
                                      [[0.0, 2.0, 0.0, 7.0], [2.0, 0.0, 9.0, 0.0]])
