"""Tests for the network builders."""

import math

import numpy as np
import pytest

from spanlab import nets
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
    """The per-city, per-candidate loop that nets._cone_edges vectorizes."""
    pts = config.points
    n = len(pts)
    side = config.window.width if config.torus else None
    theta = 2.0 * math.pi / n_cones
    edges = {}
    for i in range(n):
        d = nets._displacements(pts, i, side)
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
                              pts[i][0] + d[j][0], pts[i][1] + d[j][1])
    return edges


class TestConeEdgesFastPath:
    """nets._cone_edges against the per-candidate loop kept above."""

    @staticmethod
    def _configs():
        grid = square_grid(Window.square(5)).points
        return [
            uniform_n(60, Window.square(10), seed=3),
            poisson(Window.square(8), seed=4, torus=True),
            # lattices tie on distance and angle, exercising the tie-break
            square_grid(Window.square(6)),
            PointConfig(grid, Window.square(6), torus=True),
        ]

    @pytest.mark.parametrize("criterion", ["projection", "distance"])
    @pytest.mark.parametrize("n_cones", [4, 6, 8])
    def test_matches_reference_loop(self, criterion, n_cones):
        for cfg in self._configs():
            got = nets._cone_edges(cfg, n_cones, criterion)
            want = _cone_edges_reference(cfg, n_cones, criterion)
            assert list(got) == list(want)
            np.testing.assert_array_equal(np.array(list(got.values())),
                                          np.array(list(want.values())))


class TestConeRoads:
    def test_two_cities(self):
        net = nets.cone_road_network(_config([[1, 1], [2, 3]]), 2)
        assert len(net.segments) == 1

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            nets.cone_road_network(_config([[0, 0], [1, 1]]), 1)

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

    def test_non_lattice_rejected(self):
        with pytest.raises(ValueError):
            nets.lattice_edges(poisson(Window.square(10), seed=1))


class TestUnwrap:
    def test_planar_passthrough(self):
        net = nets.delaunay(_config([[0, 0], [4, 0], [0, 3]]))
        assert nets.unwrap(net, 1.0) is net

    def test_full_buffer_gives_nine_tiles(self):
        cfg = uniform_n(15, Window.square(5), seed=6, torus=True)
        net = nets.theta_graph(cfg, 6)
        big = nets.unwrap(net, 10.0)
        assert len(big.segments) == 9 * len(net.segments)
        assert not big.config.torus

    def test_zero_buffer_keeps_window_overlaps(self):
        cfg = uniform_n(15, Window.square(5), seed=6, torus=True)
        net = nets.theta_graph(cfg, 6)
        small = nets.unwrap(net, 0.0)
        assert len(net.segments) <= len(small.segments) <= 9 * len(net.segments)
