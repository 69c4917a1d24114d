"""Tests for the planar-arrangement and routing primitives."""

import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanlab import geom, metrics, nets
from spanlab.configs import PointConfig, Window, poisson, square_grid, tri_config
from spanlab.geom import (DisconnectedCityError, Segment, build_arrangement, orient,
                          segment_intersection)


def _route(g, src, dst):
    """Shortest route length between two cities of a routing graph."""
    return float(g.distances_from(src)[g.city_nodes[dst]])


def _orient_exact(p, q, r):
    d = (Fraction(q[0]) - Fraction(p[0])) * (Fraction(r[1]) - Fraction(p[1])) \
        - (Fraction(q[1]) - Fraction(p[1])) * (Fraction(r[0]) - Fraction(p[0]))
    return (d > 0) - (d < 0)


class TestOrient:
    def test_basic_signs(self):
        assert orient((0, 0), (1, 0), (0, 1)) == 1
        assert orient((0, 0), (1, 0), (0, -1)) == -1
        assert orient((0, 0), (1, 1), (2, 2)) == 0

    def test_near_collinear_exact(self):
        # a perturbation below double rounding must still be resolved exactly
        p, q = (0.0, 0.0), (1.0, 1.0)
        r = (0.5 + 1e-17, 0.5)
        assert orient(p, q, r) == _orient_exact(p, q, r)

    def test_underflowing_products(self):
        # both products underflow to 0.0 though no factor is zero
        p, q, r = (0.0, 0.0), (0.0, 5.3397681865225524e-194), (5.3397681865225524e-194, 0.0)
        assert orient(p, q, r) == _orient_exact(p, q, r) == -1

    def test_large_integers_stay_exact(self):
        # integers beyond 2**53 are not floats; the fallback keeps them exact
        p, q, r = (0, 0), (2**60, 2**60 + 1), (2**61, 2**61 + 2)
        assert orient(p, q, r) == _orient_exact(p, q, r) == 0
        r = (2**61, 2**61 + 3)
        assert orient(p, q, r) == _orient_exact(p, q, r) == 1

    coords = st.floats(min_value=-100, max_value=100,
                       allow_nan=False, allow_infinity=False)

    @given(st.tuples(coords, coords), st.tuples(coords, coords),
           st.tuples(coords, coords), st.floats(-1e-12, 1e-12))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_arithmetic(self, p, q, r, jitter):
        r = (r[0] + jitter, r[1])
        assert orient(p, q, r) == _orient_exact(p, q, r)


class TestSegmentIntersection:
    def test_proper_crossing(self):
        hit = segment_intersection(Segment((0, 0), (2, 2)), Segment((0, 2), (2, 0)))
        assert hit == pytest.approx((1.0, 1.0))

    def test_disjoint(self):
        assert segment_intersection(Segment((0, 0), (1, 0)),
                                    Segment((0, 1), (1, 1))) is None

    def test_shared_endpoint(self):
        hit = segment_intersection(Segment((0, 0), (1, 0)), Segment((1, 0), (1, 1)))
        assert hit == pytest.approx((1.0, 0.0))

    def test_collinear_overlap_returns_segment(self):
        hit = segment_intersection(Segment((0, 0), (2, 0)), Segment((1, 0), (3, 0)))
        assert isinstance(hit, Segment)
        assert hit.length == pytest.approx(1.0)

    def test_collinear_disjoint(self):
        assert segment_intersection(Segment((0, 0), (1, 0)),
                                    Segment((2, 0), (3, 0))) is None

    def test_t_touch(self):
        hit = segment_intersection(Segment((0, 0), (2, 0)), Segment((1, 0), (1, 1)))
        assert hit == pytest.approx((1.0, 0.0))

    def test_degenerate_first_collinear(self):
        # the overlap axis comes from both segments, not the first alone
        point, seg = Segment((1, 5), (1, 5)), Segment((1, 0), (1, 2))
        assert segment_intersection(point, seg) is None
        assert segment_intersection(seg, point) is None
        assert segment_intersection(point, Segment((1, 0), (1, 6))) == (1, 5)

    _small = st.integers(-3, 3).map(float)

    @given(st.lists(st.tuples(_small, _small), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_same_under_swap(self, pts):
        """Lattice points make collinear, touching and degenerate pairs often."""
        s, t = Segment(*pts[:2]), Segment(*pts[2:])
        one, two = segment_intersection(s, t), segment_intersection(t, s)
        assert type(one) is type(two)
        if type(one) is tuple:  # a proper crossing is solved from either end
            assert one == pytest.approx(two)
        else:
            assert one == two

    def test_nearly_parallel_crossing(self):
        # the orientations say the segments cross, but the float
        # determinant of their directions cancels to zero
        s1 = Segment((-4.0, -10.019486718515001), (0.0, 1.980513281485))
        s2 = Segment((-5.0, -13.019486718515001), (1.0, 4.980513281485))
        hit = segment_intersection(s1, s2)
        assert hit == pytest.approx((-2.0, -4.019486718515001))


class TestArrangement:
    def test_crossing_with_junction(self):
        segs = [((0, 0), (2, 2)), ((0, 2), (2, 0))]
        g = build_arrangement(segs, [(0, 0), (2, 0)])
        assert g.n_nodes == 5
        assert len(g.edges) == 4
        assert _route(g, 0, 1) == pytest.approx(2 * math.sqrt(2))  # via the junction

    def test_crossing_without_junction(self):
        segs = [((0, 0), (2, 2)), ((0, 2), (2, 0))]
        g = build_arrangement(segs, [(0, 0), (2, 0)], junctions=False)
        assert g.n_nodes == 4
        assert len(g.edges) == 2
        assert math.isinf(_route(g, 0, 1))

    def test_duplicate_segments_deduplicated(self):
        segs = [((0, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0))]
        g = build_arrangement(segs, [(0, 0)])
        assert g.total_length == pytest.approx(1.0)

    def test_collinear_overlap_union(self):
        segs = [((0, 0), (2, 0)), ((1, 0), (3, 0))]
        g = build_arrangement(segs, [(0, 0), (3, 0)])
        assert g.total_length == pytest.approx(3.0)
        assert _route(g, 0, 1) == pytest.approx(3.0)

    def test_square_route(self):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        segs = list(zip(corners, corners[1:] + corners[:1]))
        g = build_arrangement(segs, corners)
        assert _route(g, 0, 2) == pytest.approx(2.0)

    def test_city_in_segment_interior_splits(self):
        g = build_arrangement([((0, 0), (2, 0))], [(1, 0), (2, 0)])
        assert _route(g, 0, 1) == pytest.approx(1.0)

    def test_disconnected_city_raises(self):
        with pytest.raises(DisconnectedCityError):
            build_arrangement([((0, 0), (1, 0))], [(5, 5)])

    def test_snap_merges_close_endpoints(self):
        eps = 1e-9
        g = build_arrangement([((0, 0), (1, 0)), ((1 + eps / 10, 0), (2, 0))],
                              [(0, 0), (2, 0)], snap_eps=eps)
        assert math.isfinite(_route(g, 0, 1))

    def test_snap_joins_ends_exactly_eps_apart(self):
        # the two inner road ends lie exactly snap_eps = 1e-3 apart in
        # math.hypot, so they make one node
        g = build_arrangement([((-1, 0), (-5.823277293861916e-85, 0)), ((1e-3, 0), (1, 0))],
                              [(-1, 0), (1, 0)], 1e-3)
        assert g.n_nodes == 3
        assert _route(g, 0, 1) == 2.0

    def test_stretch_at_least_one(self):
        # route length can never beat the straight-line distance
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 5, (6, 2))
        segs = [(tuple(pts[i]), tuple(pts[j]))
                for i in range(6) for j in range(i + 1, 6)]
        g = build_arrangement(segs, pts)
        for i in range(6):
            for j in range(i + 1, 6):
                d = math.hypot(*(pts[i] - pts[j]))
                assert _route(g, i, j) >= d - 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_rebuild_idempotent(self, seed, n):
        """Splitting the split edges again changes nothing."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 4, (n, 2))
        segs = [(tuple(pts[i]), tuple(pts[(i + 1) % n])) for i in range(n)]
        segs += [(tuple(pts[0]), tuple(pts[n // 2]))]
        g1 = build_arrangement(segs, pts)
        edge_segs = [(tuple(g1.nodes[i]), tuple(g1.nodes[j])) for i, j in g1.edges]
        g2 = build_arrangement(edge_segs, pts)
        assert g2.n_nodes == g1.n_nodes
        assert len(g2.edges) == len(g1.edges)
        assert g2.total_length == pytest.approx(g1.total_length, rel=1e-9)


class TestRoutingGraph:
    def test_route_endpoints_are_cities(self):
        g = build_arrangement([((0, 0), (1, 0)), ((1, 0), (1, 1))],
                              [(0, 0), (1, 1)])
        dist = g.distances_from(0)
        assert dist[g.city_nodes[0]] == 0.0
        assert dist[g.city_nodes[1]] == pytest.approx(2.0)

    def test_unknown_city_raises(self):
        g = build_arrangement([((0, 0), (1, 0))], [(0, 0)])
        with pytest.raises(KeyError):
            g.distances_from(3)

    # a lift: a city on a 10x10 grid of quarters and an offset of up to 6
    # either way, so on the torus it may cross a seam but never closes a loop
    _lift = st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(-24, 24),
                      st.integers(-24, 24)).filter(lambda r: r[2:] != (0, 0))

    @given(st.lists(_lift, min_size=1, max_size=6, unique_by=lambda r: r[:2]),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matrix_is_the_graph(self, lifts, torus, junctions):
        """The CSR adjacency is the graph: edges and weights are its upper
        triangle, and it is the matrix both directions of them make."""
        from scipy.sparse import csr_matrix
        rows = np.array(lifts, dtype=float) / 4
        cities = rows[:, :2]
        segs = np.concatenate([cities, cities + rows[:, 2:]], axis=1)
        g = build_arrangement(segs, cities, 1e-8, junctions,
                              window=Window.square(10) if torus else None)
        M, e, w = g.matrix, g.edges, g.weights
        n = g.n_nodes
        assert (M != M.T).nnz == 0
        upper = [(r, c, x) for r in range(n)
                 for c, x in zip(M.indices[M.indptr[r]:M.indptr[r + 1]].tolist(),
                                 M.data[M.indptr[r]:M.indptr[r + 1]].tolist()) if c > r]
        assert [[r, c] for r, c, _ in upper] == e.tolist()
        assert [x for _, _, x in upper] == w.tolist()
        assert e.dtype == np.int64 and e.shape == (len(w), 2) and len(w) > 0
        assert (e[:, 0] < e[:, 1]).all() and (np.diff(e[:, 0] * n + e[:, 1]) > 0).all()
        for (i, j), x in zip(e.tolist(), w.tolist()):
            d = g.nodes[j] - g.nodes[i]
            if torus:  # a glued end may stand for its image across a seam
                assert min(abs(math.hypot(d[0] + a, d[1] + b) - x) for a in (-10, 0, 10)
                           for b in (-10, 0, 10)) <= 1e-9
            else:
                assert math.hypot(*d.tolist()) == x
        want = csr_matrix((np.tile(w, 2), (e.T.ravel(), e[:, ::-1].T.ravel())), shape=(n, n))
        for name in ("indptr", "indices", "data"):
            got, made = getattr(M, name), getattr(want, name)
            assert got.dtype == made.dtype and got.tobytes() == made.tobytes(), name

    def test_search_adds_no_copy(self):
        # the suite's memory instance: the graph holds its arrays and no more,
        # and a search reads the matrix it was built with
        g = metrics.routing_graph(nets.cone_road_network(
            poisson(Window.square(20), seed=0, torus=True), 8))
        assert g.n_nodes == 55_808
        M = g.matrix
        held = (M.indptr, M.indices, M.data)
        assert sum(a.nbytes for a in (g.nodes, *held, g.city_nodes)) <= 75 * g.n_nodes
        g.distances_from(0)
        g.distances_from_each([0, 1, 2], 1, lambda r, dist: dist[:1])
        assert g.matrix is M
        assert all(a is b for a, b in zip((M.indptr, M.indices, M.data), held))


@pytest.fixture(scope="module")
def torus_graph():
    # 398 cities and 1,677 nodes: all cities as sources are about ten times
    # _SPLIT_WORK, two of them a twentieth of it
    return metrics.routing_graph(nets.theta_graph(poisson(Window.square(20), seed=0,
                                                          torus=True), 6))


def _loop_rows(g, cities, nodes):
    return np.array([g.distances_from(c)[nodes] for c in cities])


def _rows_at(nodes):
    """The row function that keeps a search's distances to nodes."""
    return lambda r, dist: dist[nodes]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDistancesFromEach:
    """RoutingGraph.distances_from_each against a loop over distances_from."""

    def _cities_and_nodes(self, g, n_sources):
        rng = np.random.default_rng(1)
        cities = rng.permutation(len(g.city_nodes))[:n_sources]
        return cities, g.city_nodes[rng.permutation(len(g.city_nodes))]

    @pytest.mark.parametrize("n_sources, children", [(None, 2), (2, 0)])
    def test_block_equals_loop(self, torus_graph, forks, n_sources, children):
        g = torus_graph
        cities, nodes = self._cities_and_nodes(g, n_sources)
        assert (len(cities) * g.n_nodes >= 3 * geom._SPLIT_WORK) == (children == 2)
        got = g.distances_from_each(cities, len(nodes), _rows_at(nodes))
        assert len(forks) == children
        _assert_no_child_left()
        want = _loop_rows(g, cities, nodes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_row_function_sees_its_row_number(self, torus_graph, forks):
        # each row is the row function of its own number and its own search,
        # whichever process drew it
        g = torus_graph
        cities, nodes = self._cities_and_nodes(g, None)
        got = g.distances_from_each(cities, 2, lambda r, dist: (r, dist[nodes].sum()))
        assert len(forks) == 2
        _assert_no_child_left()
        assert got[:, 0].tolist() == list(range(len(cities)))
        assert got[:, 1].tolist() == _loop_rows(g, cities, nodes).sum(axis=1).tolist()

    def test_block_without_fork(self, torus_graph, monkeypatch):
        monkeypatch.delattr(os, "fork")
        g = torus_graph
        cities, nodes = self._cities_and_nodes(g, None)
        assert g.distances_from_each(cities, len(nodes), _rows_at(nodes)).tobytes() == \
            _loop_rows(g, cities, nodes).tobytes()

    @pytest.mark.parametrize("bad", [-1, 10 ** 6])
    def test_unknown_city_raises_before_any_fork(self, torus_graph, forks, bad):
        g = torus_graph
        cities = list(range(len(g.city_nodes) - 1)) + [bad]
        with pytest.raises(KeyError):
            g.distances_from_each(cities, g.n_nodes, lambda r, dist: dist)
        assert forks == []

    def test_failed_child_slice_is_recomputed(self, torus_graph, forks, monkeypatch):
        # every child fails on its first row: the rows it drew are redone here
        g = torus_graph
        cities, nodes = self._cities_and_nodes(g, None)
        want = _loop_rows(g, cities, nodes)
        parent, search = os.getpid(), geom.RoutingGraph.distances_from

        def fails_in_children(self, city):
            if os.getpid() != parent:
                raise RuntimeError("search failed in a child")
            return search(self, city)

        monkeypatch.setattr(geom.RoutingGraph, "distances_from", fails_in_children)
        got = g.distances_from_each(cities, len(nodes), _rows_at(nodes))
        assert len(forks) == 2
        _assert_no_child_left()
        assert got.tobytes() == want.tobytes()

    def test_child_that_exits_after_its_first_row(self, torus_graph, forks):
        # each child writes one row and exits 1: the rows it drew and did not
        # finish, and those it never drew, are done by this process
        g = torus_graph
        cities, nodes = self._cities_and_nodes(g, None)
        parent, rows_here = os.getpid(), []

        def row(r, dist):
            if os.getpid() == parent:
                rows_here.append(r)
            elif row.written:
                os._exit(1)
            row.written = True
            return dist[nodes]

        row.written = False
        got = g.distances_from_each(cities, len(nodes), row)
        assert len(forks) == 2
        _assert_no_child_left()
        assert got.tobytes() == _loop_rows(g, cities, nodes).tobytes()
        # at most one row each from the two children
        assert len(rows_here) >= len(cities) - 2

    def test_rows_outnumber_the_chunks(self, forks):
        # 20,000 rows on a 16-node path: worth two children, and more rows
        # than one record a row would fit in a pipe, so each chunk holds 20
        path = [(float(x), 0.0) for x in range(16)]
        g = build_arrangement(list(zip(path, path[1:])), path)
        cities = np.arange(20_000) % 16
        assert len(cities) * g.n_nodes >= 3 * geom._SPLIT_WORK and len(cities) > geom._DEALS
        got = g.distances_from_each(cities, 16, _rows_at(g.city_nodes))
        assert len(forks) == 2
        _assert_no_child_left()
        assert got.tobytes() == _loop_rows(g, cities, g.city_nodes).tobytes()

    def test_children_are_reaped_when_the_parent_raises(self, torus_graph, forks,
                                                         monkeypatch):
        g = torus_graph
        cities, nodes = self._cities_and_nodes(g, None)
        parent, search = os.getpid(), geom.RoutingGraph.distances_from

        def fails_in_parent(self, city):
            if os.getpid() == parent:
                raise RuntimeError("search failed in the parent")
            return search(self, city)

        monkeypatch.setattr(geom.RoutingGraph, "distances_from", fails_in_parent)
        with pytest.raises(RuntimeError, match="in the parent"):
            g.distances_from_each(cities, len(nodes), _rows_at(nodes))
        assert len(forks) == 2
        _assert_no_child_left()

    def test_children_are_reaped_when_the_row_function_raises(self, torus_graph, forks):
        g = torus_graph
        cities, _ = self._cities_and_nodes(g, None)

        def row(r, dist):
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            g.distances_from_each(cities, 1, row)
        assert len(forks) == 2
        _assert_no_child_left()


# ---------------------------------------------------------------------------
# scalar references: the per-element arrangement code that the array stages
# of geom.build_arrangement replace
# ---------------------------------------------------------------------------


class _NodeRegistry:
    """The snapping rule by brute force: a point joins the nearest node made
    before it at a math.hypot distance of at most snap_eps, a tie going to
    the earliest node, and otherwise makes a node.  Every node is measured,
    so none can be missed."""

    def __init__(self, snap_eps):
        self.eps = snap_eps
        self.coords = []

    def insert(self, p):
        d, idx = min(((math.hypot(p[0] - q[0], p[1] - q[1]), k)
                      for k, q in enumerate(self.coords)), default=(math.inf, -1))
        if d <= self.eps:
            return idx
        self.coords.append(p)
        return len(self.coords) - 1


def _cells_of_segment(a, b, cell, pad=0.0):
    """Grid cells traversed by segment (a, b), grown by ``pad`` units."""
    ax, ay = a
    bx, by = b
    swap = abs(bx - ax) < abs(by - ay)
    if swap:
        ax, ay, bx, by = ay, ax, by, bx
    if ax > bx:
        ax, ay, bx, by = bx, by, ax, ay
    dx, dy = bx - ax, by - ay
    cells = set()
    c0 = int(math.floor((ax - pad) / cell))
    c1 = int(math.floor((bx + pad) / cell))
    for cx in range(c0, c1 + 1):
        x_lo = max(ax, cx * cell - pad)
        x_hi = min(bx, (cx + 1) * cell + pad)
        if dx == 0.0:
            y_lo, y_hi = min(ay, by), max(ay, by)
        else:
            y0 = ay + (x_lo - ax) / dx * dy
            y1 = ay + (x_hi - ax) / dx * dy
            y_lo, y_hi = min(y0, y1), max(y0, y1)
        r0 = int(math.floor((y_lo - pad) / cell))
        r1 = int(math.floor((y_hi + pad) / cell))
        for ry in range(r0, r1 + 1):
            cells.add((ry, cx) if swap else (cx, ry))
    return cells


def _point_segment_distance(p, s):
    """(distance, clamped parameter t) from point to segment."""
    ax, ay = s.a
    dx, dy = s.b[0] - ax, s.b[1] - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(p[0] - ax, p[1] - ay), 0.0
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    qx, qy = ax + t * dx, ay + t * dy
    return math.hypot(p[0] - qx, p[1] - qy), t


def _buckets(segs, cell, pad):
    buckets = {}
    for idx, s in enumerate(segs):
        for c in _cells_of_segment(s.a, s.b, cell, pad):
            buckets.setdefault(c, []).append(idx)
    return buckets


def _bucket_pairs(buckets):
    return sorted({(m[a], m[b]) for m in buckets.values()
                   for a in range(len(m)) for b in range(a + 1, len(m))})


def _build_reference(segments, cities, snap_eps=None, junctions=True):
    """build_arrangement one element at a time: Segment lists, bucket dicts,
    the node registry and a per-city attach loop.  Every candidate pair goes
    through segment_intersection, with no filter and no topology rule.

    A city is refused when its node lies in no edge, given any edge or a
    second city."""
    segs = [Segment((float(s[0][0]), float(s[0][1])), (float(s[1][0]), float(s[1][1])))
            for s in segments]
    cities = [(float(c[0]), float(c[1])) for c in cities]
    if snap_eps is None:
        pts = [p for s in segs for p in s] + list(cities)
        if pts:
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        else:
            diam = 1.0
        snap_eps = max(1e-9 * diam, 1e-300)
    seen, uniq = set(), []
    for s in segs:
        key = (min(s.a, s.b), max(s.a, s.b))
        if s.a != s.b and key not in seen:
            seen.add(key)
            uniq.append(s)
    segs = uniq
    cell = max(sum(s.length for s in segs) / len(segs), 16 * snap_eps) if segs else 1.0
    for _ in range(32):  # merge collinear overlaps
        merged_away = set()
        for i, j in _bucket_pairs(_buckets(segs, cell, 1e-9 * cell)):
            if i in merged_away or j in merged_away:
                continue
            if isinstance(segment_intersection(segs[i], segs[j]), Segment):
                pts = [segs[i].a, segs[i].b, segs[j].a, segs[j].b]
                axis = 0 if abs(segs[i].b[0] - segs[i].a[0]) >= abs(
                    segs[i].b[1] - segs[i].a[1]) else 1
                segs[i] = Segment(min(pts, key=lambda p: p[axis]),
                                  max(pts, key=lambda p: p[axis]))
                merged_away.add(j)
        segs = [s for k, s in enumerate(segs) if k not in merged_away]
        if not merged_away:
            break
    registry = _NodeRegistry(snap_eps)
    splits = [[(0.0, registry.insert(s.a)), (1.0, registry.insert(s.b))] for s in segs]
    seg_buckets = _buckets(segs, cell, max(snap_eps, 1e-9 * cell))
    for i, j in _bucket_pairs(seg_buckets):
        hit = segment_intersection(segs[i], segs[j])
        if hit is None or isinstance(hit, Segment):
            continue
        _, t_i = _point_segment_distance(hit, segs[i])
        _, t_j = _point_segment_distance(hit, segs[j])
        interior_i = snap_eps < t_i * segs[i].length < segs[i].length - snap_eps
        interior_j = snap_eps < t_j * segs[j].length < segs[j].length - snap_eps
        if not junctions and interior_i and interior_j:
            continue
        node = registry.insert(hit)
        if interior_i:
            splits[i].append((t_i, node))
        if interior_j:
            splits[j].append((t_j, node))
    city_nodes = np.empty(len(cities), dtype=int)
    for ci, c in enumerate(cities):
        node = registry.insert(c)
        city_nodes[ci] = node
        cands = seg_buckets.get((int(math.floor(c[0] / cell)), int(math.floor(c[1] / cell))), [])
        for si in cands:
            d, t = _point_segment_distance(c, segs[si])
            if d <= snap_eps and snap_eps < t * segs[si].length < segs[si].length - snap_eps:
                splits[si].append((t, node))
    edge_weights = {}
    coords = registry.coords
    for si in range(len(segs)):
        parts = sorted(set(splits[si]))
        for (_, n0), (_, n1) in zip(parts, parts[1:]):
            if n0 != n1:
                p0, p1 = coords[n0], coords[n1]
                edge_weights[(min(n0, n1), max(n0, n1))] = math.hypot(p1[0] - p0[0],
                                                                      p1[1] - p0[1])
    on_road = {n for edge in edge_weights for n in edge}
    for ci, c in enumerate(cities):
        if (edge_weights or len(cities) > 1) and city_nodes[ci] not in on_road:
            raise DisconnectedCityError(
                f"disconnected city: the node of city {ci} at {c} carries no road")
    nodes = np.array(coords, dtype=float).reshape(-1, 2)
    edges = np.array(sorted(edge_weights), dtype=int).reshape(-1, 2)
    weights = np.array([edge_weights[tuple(e)] for e in edges.tolist()], dtype=float)
    return nodes, edges, weights, city_nodes


def _assert_same_as_reference(segments, cities, snap_eps=None, junctions=True):
    try:
        want = _build_reference(segments, cities, snap_eps, junctions)
    except DisconnectedCityError as exc:
        with pytest.raises(DisconnectedCityError) as got:
            build_arrangement(segments, cities, snap_eps, junctions)
        assert str(got.value) == str(exc)
        return None
    g = build_arrangement(segments, cities, snap_eps, junctions)
    for name, w in zip(("nodes", "edges", "weights", "city_nodes"), want):
        got = getattr(g, name)
        assert got.dtype == w.dtype and got.shape == w.shape, name
        np.testing.assert_array_equal(got, w, err_msg=name)
    return g


_coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
_point = st.tuples(_coord, _coord)


@st.composite
def _shared_endpoint_segments(draw):
    """Fans, stars and closed polylines whose segments share endpoints exactly.

    "line" draws points on one line (exactly collinear when the jitter is 0,
    near-collinear otherwise) and joins them end to end and as a fan.
    """
    kind = draw(st.sampled_from(["fan", "star", "polyline", "line"]))
    k = draw(st.integers(2, 7))
    center = draw(_point)
    if kind == "line":
        dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        ts = sorted(set(draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k))))
        jitter = draw(st.sampled_from([0.0, 1e-13, 1e-9]))
        pts = [(center[0] + t * dx + jitter * (t % 3), center[1] + t * dy)
               for t in ts]
        segs = list(zip(pts, pts[1:])) + [(pts[0], p) for p in pts[2:]]
    else:
        pts = draw(st.lists(_point, min_size=k, max_size=k))
        if kind == "fan":
            segs = [(center, p) for p in pts]
        elif kind == "star":  # alternate which end is the shared one
            segs = [(center, p) if n % 2 else (p, center) for n, p in enumerate(pts)]
        else:
            segs = list(zip(pts, pts[1:] + pts[:1]))
    return [Segment(a, b) for a, b in segs if a != b]


def _arrangement_input(segments):
    """The merged segment array and its candidate pairs, from which
    build_arrangement finds its events (duplicates dropped, collinear
    overlaps merged)."""
    seen, segs = set(), []
    for s in segments:
        key = (min(s.a, s.b), max(s.a, s.b))
        if key not in seen:
            seen.add(key)
            segs.append(s)
    cell = sum(s.length for s in segs) / len(segs)
    S = geom._merge_overlaps(np.array(segs, dtype=float).reshape(-1, 4), cell, 1e-9 * cell,
                             {})[0]
    blocks = geom._pair_blocks(*geom._segment_cells(S, cell, 1e-9 * cell))
    return S, np.concatenate([np.empty((0, 2), dtype=np.int64), *blocks])


class TestTopologyFastPaths:
    @given(_shared_endpoint_segments())
    @settings(max_examples=300, deadline=None)
    def test_shared_endpoint_meets_only_there(self, segments):
        """Every pair the topology rule drops meets exactly at its shared point."""
        if not segments:
            return
        S, pairs = _arrangement_input(segments)
        if not len(pairs):
            return
        cols = geom._pair_arrays(S, pairs)
        for i, j in pairs[geom._shares_endpoint(*cols)].tolist():
            s, t = (Segment(*map(tuple, S[k].reshape(2, 2).tolist())) for k in (i, j))
            hit = segment_intersection(s, t)
            assert not isinstance(hit, Segment) and hit is not None
            assert hit in (s.a, s.b) and hit in (t.a, t.b)

    @given(_shared_endpoint_segments())
    @settings(max_examples=100, deadline=None)
    def test_arrangement_unchanged_without_the_rule(self, segments):
        if not segments:
            return
        cities = [segments[0].a, segments[-1].b]
        fast = build_arrangement(segments, cities)
        with mock.patch.object(geom, "_shares_endpoint",
                               lambda *cols: np.zeros(len(cols[0]), dtype=bool)):
            slow = build_arrangement(segments, cities)
        for name in ("nodes", "edges", "weights", "city_nodes"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))
        _assert_same_as_reference(segments, cities)

    @given(st.lists(st.tuples(_point, _point), min_size=0, max_size=40),
           st.floats(0.5, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_candidate_pairs_brute_force(self, raw, cell):
        S = np.array(raw, dtype=float).reshape(-1, 4)
        want = _bucket_pairs(_buckets([Segment(a, b) for a, b in raw], cell, 1e-9 * cell))
        got = [tuple(p) for B in geom._pair_blocks(*geom._segment_cells(S, cell, 1e-9 * cell))
               for p in B.tolist()]
        assert got == want
        for block in (1, 3):
            with mock.patch.object(geom, "_PAIR_BLOCK", block):
                blocks = list(geom._pair_blocks(*geom._segment_cells(S, cell, 1e-9 * cell)))
            assert all(B.dtype.kind == "i" and B.shape[1:] == (2,) for B in blocks)
            assert [tuple(p) for B in blocks for p in B.tolist()] == want
            last = (-1, -1)
            for B in map(np.ndarray.tolist, blocks):
                # sorted, unique and above the previous block's last pair
                assert all(tuple(p) < tuple(q) for p, q in zip([last] + B, B))
                last = tuple(B[-1]) if B else last
                # within the budget, or the pairs of one lower segment
                assert len(B) <= block or len({i for i, _ in B}) == 1


# segments snapped to a half-unit lattice put endpoints on cell boundaries and
# make many of them axis-parallel; a jitter at snap scale makes near-equal
# endpoints and chains of points about one snap distance apart
_lattice = st.integers(-8, 8).map(lambda v: v / 2.0)
_jitter = st.sampled_from([0.0, 0.0, 1e-12, -3e-10, 0.004, -0.006, 0.01])


@st.composite
def _segment_set(draw, max_size=14):
    coord = st.one_of(_coord, st.tuples(_lattice, _jitter).map(sum))
    raw = draw(st.lists(st.tuples(coord, coord, coord, coord), min_size=0,
                        max_size=max_size))
    return [((a, b), (c, d)) for a, b, c, d in raw]


@st.composite
def _collinear_chain(draw):
    """Overlapping segments along one lattice line, which merge, spokes that
    touch it at lattice points, which take the exact predicates, and a few
    other segments."""
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)]))
    ox, oy = draw(_lattice), draw(_lattice)
    at = st.integers(-6, 6).map(lambda t: (ox + t * dx, oy + t * dy))
    runs = draw(st.lists(st.tuples(at, st.integers(1, 5)), min_size=2, max_size=6))
    chain = [(p, (p[0] + n * dx, p[1] + n * dy)) for p, n in runs]
    spokes = draw(st.lists(st.tuples(at, _point), max_size=3))
    return chain + spokes + draw(_segment_set(max_size=6))


class TestGroups:
    """geom._groups against np.unique(keys, axis=0, return_index=True, return_inverse=True)."""

    @st.composite
    def _keys(draw):
        """1-D or (n, c) int or float keys drawn from few values, so that rows repeat."""
        n, c = draw(st.integers(0, 30)), draw(st.sampled_from([None, 1, 2, 4]))
        dtype = draw(st.sampled_from([int, float]))
        values = (st.integers(-3, 3) if dtype is int
                  else st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0, math.inf, -math.inf]))
        size = n * (c or 1)
        data = draw(st.lists(values, min_size=size, max_size=size))
        return np.array(data, dtype=dtype).reshape((n,) if c is None else (n, c))

    @given(_keys())
    @example(np.empty((0, 2)))
    @example(np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]]))
    @example(np.array([0.0, -0.0, -0.0, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_row_unique(self, keys):
        first, group = geom._groups(keys)
        _, want_first, want_group = np.unique(keys, axis=0, return_index=True,
                                              return_inverse=True)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(group, want_group.ravel())
        assert first.dtype.kind == group.dtype.kind == "i"
        assert group.shape == (len(keys),)


class TestBlocks:
    """geom._blocks cuts rows into maximal runs within a size budget."""

    @given(st.lists(st.integers(0, 12), max_size=40), st.integers(1, 10),
           st.sampled_from([np.int64, float]))
    @example([], 1, np.int64)
    @example([0, 0, 11, 0, 3, 0], 3, np.int64)
    @example([4, 4, 4, 4], 4, float)
    @settings(max_examples=300, deadline=None)
    def test_runs_tile_the_rows_and_are_maximal(self, sizes, budget, dtype):
        runs = list(geom._blocks(np.array(sizes, dtype=dtype), budget))
        if not sizes:
            assert runs == []
            return
        # the runs tile range(len(sizes)) in order
        assert [i for i, _ in runs] == [0] + [j for _, j in runs[:-1]]
        assert runs[-1][1] == len(sizes)
        for i, j in runs:
            assert j > i
            assert sum(sizes[i:j]) <= budget or j == i + 1
            # maximal: the next row would break the budget
            assert j == len(sizes) or sum(sizes[i:j + 1]) > budget


class TestArrangementStages:
    """Each array stage of build_arrangement against its scalar reference."""

    @given(_segment_set(), st.sampled_from([0.5, 1.0, 2.5, 0.37]),
           st.sampled_from([0.0, 1e-9, 0.01, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_segment_cells_match_scalar_sweep(self, raw, cell, pad):
        S = np.array(raw, dtype=float).reshape(-1, 4)
        seg, cx, cy = geom._segment_cells(S, cell, pad)
        got = list(zip(seg.tolist(), cx.tolist(), cy.tolist()))
        want = [(k, *c) for k, (a, b) in enumerate(raw)
                for c in _cells_of_segment(a, b, cell, pad)]
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(want)

    @given(_segment_set(), st.lists(_point, max_size=10),
           st.lists(st.floats(0, 1), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_project_matches_point_segment_distance(self, raw, points, ts):
        segs = [Segment(a, b) for a, b in raw]
        # points on the segments as well as off them
        points = points + [(s.a[0] + t * (s.b[0] - s.a[0]), s.a[1] + t * (s.b[1] - s.a[1]))
                           for s, t in zip(segs, ts)]
        pairs = [(p, s) for p in points for s in segs]
        if not pairs:
            return
        P = np.array([p for p, _ in pairs], dtype=float)
        S = np.array([s for _, s in pairs], dtype=float).reshape(-1, 4)
        t, qx, qy = geom._project(P[:, 0], P[:, 1], S)
        d = geom._hypot(P[:, 0] - qx, P[:, 1] - qy)
        want = np.array([_point_segment_distance(p, s) for p, s in pairs])
        np.testing.assert_array_equal(d, want[:, 0])
        np.testing.assert_array_equal(t, want[:, 1])

    @st.composite
    def _insertion_sequence(draw):
        """Points with exact repeats, clusters and chains spaced about eps."""
        eps = draw(st.sampled_from([1e-3, 0.05, 0.3]))
        pts = list(draw(st.lists(_point, max_size=8)))
        for _ in range(draw(st.integers(0, 4))):  # a chain along a direction
            (x, y), ang = draw(_point), draw(st.floats(0, 2 * math.pi))
            step = eps * draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 0.999]))
            pts += [(x + k * step * math.cos(ang), y + k * step * math.sin(ang))
                    for k in range(draw(st.integers(2, 6)))]
        for _ in range(draw(st.integers(0, 4))):  # a cluster around a point
            x, y = draw(_point)
            pts += [(x + eps * dx, y + eps * dy) for dx, dy in draw(st.lists(
                st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1,
                max_size=5))]
        pts += draw(st.lists(st.sampled_from(pts), max_size=6)) if pts else []
        return eps, draw(st.permutations(pts))

    @given(_insertion_sequence())
    @example((1e-3, [(-5.823277293861916e-85, 0.0), (1e-3, 0.0)]))
    @example((0.125, [(0.0, 0.5), (0.25, 0.5), (0.125, 0.5)]))
    @settings(max_examples=300, deadline=None)
    def test_snap_nodes_match_registry(self, case):
        eps, pts = case
        registry = _NodeRegistry(eps)
        want = [registry.insert(p) for p in pts]
        node, makers = geom._snap_nodes(np.array(pts, dtype=float).reshape(-1, 2), eps)
        assert node.tolist() == want
        np.testing.assert_array_equal(np.array(pts, dtype=float).reshape(-1, 2)[makers],
                                      np.array(registry.coords, dtype=float).reshape(-1, 2))

    @pytest.mark.parametrize("eps, pts, want", [
        # exactly eps apart in math.hypot
        (1e-3, [(-5.823277293861916e-85, 0.0), (1e-3, 0.0)], [0, 0]),
        # exactly eps from two nodes: the tie goes to the earliest
        (0.125, [(0.0, 0.5), (0.25, 0.5), (0.125, 0.5)], [0, 1, 0]),
    ])
    def test_snap_rule_at_eps(self, eps, pts, want):
        assert geom._snap_nodes(np.array(pts), eps)[0].tolist() == want

    def test_snap_nodes_large_cluster(self, monkeypatch):
        # 3000 points chained at half the snap distance form one cluster;
        # each point is measured only against the nodes at its near partners
        eps = 1e-3
        rng = np.random.default_rng(11)
        X = np.column_stack([np.arange(3000) * eps / 2, rng.uniform(0, eps, 3000)])
        X = X[rng.permutation(3000)]
        registry = _NodeRegistry(eps)
        want = [registry.insert(p) for p in X.tolist()]
        hypot_calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def hypot(self, *v):
                hypot_calls.append(1)
                return math.hypot(*v)

        monkeypatch.setattr(geom, "math", CountingMath())
        node, makers = geom._snap_nodes(X, eps)
        assert node.tolist() == want
        np.testing.assert_array_equal(X[makers], np.array(registry.coords))
        assert len(hypot_calls) < 20 * len(X)


class TestArrangementOracle:
    """Whole arrangements against the scalar reference build."""

    @st.composite
    def _instance(draw):
        raw = draw(_segment_set(max_size=10))
        segs = [Segment(a, b) for a, b in raw if a != b]
        cities = []
        for s in draw(st.lists(st.sampled_from(segs), max_size=5)) if segs else []:
            t = draw(st.sampled_from([0.0, 1.0, 0.5, 1e-10, 1 - 1e-10, 0.3]))
            cities.append((s.a[0] + t * (s.b[0] - s.a[0]), s.a[1] + t * (s.b[1] - s.a[1])))
        cities += draw(st.lists(_point, max_size=2))  # mostly disconnected
        snap = draw(st.sampled_from([None, None, 1e-6, 0.01, 0.2]))
        return raw, draw(st.permutations(cities)), snap, draw(st.booleans())

    @given(_instance())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        _assert_same_as_reference(*case)

    @pytest.mark.parametrize("kind", ["delaunay", "theta6", "cone4"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    def test_torus_instances(self, kind, seed, mode):
        cfg = poisson(Window.square(8), seed=seed, torus=True)
        net = {"delaunay": lambda: nets.delaunay(cfg),
               "theta6": lambda: nets.theta_graph(cfg, 6),
               "cone4": lambda: nets.cone_road_network(cfg, 4)}[kind]()
        # the planar arrangement that build_arrangement glues on a torus
        # window: the network's lifts cut at the seams and moved into the
        # window (without the images of cities and road ends on seam roads)
        win = cfg.window
        pieces, _ = geom._seam_pieces(net.segments, np.array([win.x0, win.y0]),
                                      np.array([win.width, win.height]))
        snap = 1e-9 * max(win.diameter, 1.0)
        g = _assert_same_as_reference(
            [((x1, y1), (x2, y2)) for x1, y1, x2, y2 in pieces.tolist()],
            cfg.points, snap, mode == "steiner")
        assert g.stats["nodes"] == g.n_nodes and g.stats["edges"] == len(g.edges)
        t = metrics.routing_graph(net, mode)
        assert t.stats["nodes"] == t.n_nodes == g.n_nodes - t.stats["glued"]
        assert t.stats["edges"] == len(t.edges)

    def test_city_within_snap_of_node_only(self):
        """The endpoint (0.95, 0) joins the node (0, 0) that the first road
        made, so the roads meet there.  The first city, 0.5 from the second
        road but 1.48 from that node, makes a node of its own; the second
        city joins it and the third makes another: no edge ends at any."""
        segs = [((-5.0, 0.0), (0.0, 0.0)), ((0.95, 0.0), (0.95, 5.0))]
        cities = [(1.45, 0.3), (2.4, 0.3), (0.9, -0.56)]
        with pytest.raises(DisconnectedCityError, match="city 0 at"):
            build_arrangement(segs, cities, 1.0)
        _assert_same_as_reference(segs, cities, 1.0)

    def test_city_near_a_road_end_on_a_node_of_its_own(self):
        """At the snap tolerance routing uses (1e-9 of the window diameter
        hypot(9, 7)), the end (1e-8, 0) joins the node (0, 0); city 0, 1e-8
        from the second road (0.88 of the tolerance) but 2e-8 from that
        node, makes a node that no road reaches."""
        segs = [((-5.0, 0.0), (0.0, 0.0)), ((1e-8, 0.0), (1e-8, 5.0))]
        cities = [(2e-8, 0.0), (-5.0, 0.0)]
        snap = 1e-9 * math.hypot(9.0, 7.0)
        with pytest.raises(DisconnectedCityError, match="city 0 at"):
            build_arrangement(segs, cities, snap)
        _assert_same_as_reference(segs, cities, snap)

    # math.hypot(a, -a) = 0.003232558856781153 for this city, one ulp above
    # np.hypot's value: attaching compares the math.hypot distance with snap_eps
    @pytest.mark.parametrize("snap,attached", [(0.003232558856781153, True),
                                               (0.0032325588567811525, False)])
    def test_attach_distance_rounds_as_math_hypot(self, snap, attached):
        segs, city = [((0.0, 0.0), (10.0, 10.0))], [(5.002285764288215, 4.997714235711785)]
        if attached:
            assert len(_assert_same_as_reference(segs, city, snap).edges) == 2
        else:
            with pytest.raises(DisconnectedCityError):
                build_arrangement(segs, city, snap)
            _assert_same_as_reference(segs, city, snap)

    @pytest.mark.parametrize("segs,cities", [
        ([((0, 0), (1, 0))], [(0, 0), (5, 5)]),
        ([((0, 0), (1, 0)), ((3, 0), (3, 2))], [(1.2, 0), (2.7, 1)]),
        ([], [(0, 0), (1, 1)]),
    ])
    def test_disconnected_city(self, segs, cities):
        with pytest.raises(DisconnectedCityError):
            _build_reference(segs, cities, 0.1)
        _assert_same_as_reference(segs, cities, 0.1)

    @pytest.mark.parametrize("segs,cities", [([], []), ([], [(2, 3)]), ([((0, 0), (1, 0))], [])])
    def test_trivial_inputs(self, segs, cities):
        _assert_same_as_reference(segs, cities)

    def test_stats_on_two_segment_cross(self):
        segs = [((0, 0), (2, 2)), ((0, 2), (2, 0))]
        g = build_arrangement(segs, [(0, 0), (2, 0)])
        assert g.stats == {"segments_in": 2, "overlap_rounds": 1, "candidate_pairs": 1,
                           "exact_pairs": 0, "snapped": 0, "nodes": 5, "edges": 4}
        g = build_arrangement(segs + [((1, 1), (2, 2)), ((2, 2), (0, 0))],
                              [(0, 0), (2 + 1e-12, 0), (1 + 1e-12, 1)], snap_eps=1e-9,
                              junctions=False)
        # the reversed duplicate goes, the collinear overlap merges (so a
        # second pass finds the events), the crossing carries no node, the
        # second city snaps to the endpoint (2, 0) and the third, off the
        # crossing by 1e-12, splits both roads at a node of its own
        assert g.stats == {"segments_in": 4, "overlap_rounds": 2, "candidate_pairs": 1,
                           "exact_pairs": 0, "snapped": 1, "nodes": 5, "edges": 4}

    # Collinear roads on y = 0.5 with gaps of 2d around the cell boundaries
    # x = 1 and 2 (the cell, their mean length, is 1 exactly): d is above
    # 1e-9 * cell and below the pad, so these pairs share pad-grown cells
    # only.  The chain merges A with B, and then A u B with C; the gap
    # keeps A and C apart.
    _D = 2.0 ** -20
    _GAPS = [((0, .5), (1 - _D, .5)), ((1 + _D, .5), (2 - _D, .5)), ((2 + _D, .5), (3, .5)),
             ((10, 0), (10, 1 + 4 * _D))]
    _CHAIN = [((0, .5), (1 - _D, .5)), ((.5, .5), (1.5, .5)), ((1 + _D, .5), (2, .5)),
              ((10, 0), (10, 1 + 2 * _D))]

    @pytest.mark.parametrize("segs,snap,stats", [
        # the gap ends snap together (2d <= snap) or stay apart (2d > snap);
        # the gaps keep the bounding boxes apart, so no candidate pair is left
        # for the intersection events
        (_GAPS, 4e-6, {"overlap_rounds": 1, "candidate_pairs": 0, "exact_pairs": 0,
                       "snapped": 2, "nodes": 6, "edges": 4}),
        (_GAPS, 1.5 * _D, {"overlap_rounds": 1, "candidate_pairs": 0, "exact_pairs": 0,
                           "snapped": 0, "nodes": 8, "edges": 4}),
        # A meets C only through B: one pass merges all three and a second
        # finds the events; _build_reference's round loop takes 3 rounds to
        # the same graph
        (_CHAIN, 4e-6, {"overlap_rounds": 2, "candidate_pairs": 0, "exact_pairs": 0,
                        "snapped": 0, "nodes": 5, "edges": 3}),
        (_CHAIN, 1.5 * _D, {"overlap_rounds": 2, "candidate_pairs": 0, "exact_pairs": 0,
                            "snapped": 0, "nodes": 5, "edges": 3}),
    ], ids=["gaps-snapped", "gaps-apart", "chain", "chain-small-snap"])
    @pytest.mark.parametrize("vertical", [False, True])
    def test_collinear_gaps_inside_the_pad(self, segs, snap, stats, vertical):
        if vertical:
            segs = [tuple(p[::-1] for p in s) for s in segs]
        g = _assert_same_as_reference(segs, [segs[0][0], segs[1][1], segs[2][1]], snap)
        assert g.stats == {"segments_in": 4, **stats}

    # A and B overlap, and C and B; A and C do not.  _build_reference merges
    # pair by pair and skips the pairs of a segment merged away, so it meets
    # A u B with C in a second merging round.
    _ACB = [((0, 0), (2, 0)), ((3, 0), (6, 0)), ((1, 0), (4, 0)), ((0, 1), (6, 1))]

    @pytest.mark.parametrize("transposed", [False, True])
    def test_overlap_chain_merges_in_one_pass(self, transposed):
        segs, cities = self._ACB, [(0, 0), (2.5, 0), (6, 0), (0, 1)]
        if transposed:
            segs = [tuple(p[::-1] for p in s) for s in segs]
            cities = [c[::-1] for c in cities]
        g = _assert_same_as_reference(segs, cities)
        assert g.stats == {"segments_in": 4, "overlap_rounds": 2, "exact_pairs": 0,
                           "candidate_pairs": 0, "snapped": 0, "nodes": 5, "edges": 3}

    def test_tiny_segment_far_from_origin(self):
        # cell indices near 3e76 overflow int64
        segs = [Segment((1.0, 3.0709007730672982e-77), (1.0, 0.0))] * 2
        _assert_same_as_reference(segs, [segs[0].a, segs[0].b])


def _assert_same_graph(got, want):
    for name in ("nodes", "edges", "weights", "city_nodes"):
        w = getattr(want, name)
        assert getattr(got, name).dtype == w.dtype, name
        np.testing.assert_array_equal(getattr(got, name), w, err_msg=name)
    assert got.stats == want.stats


class TestPairBlocks:
    """The pair stages of build_arrangement run in blocks of at most
    geom._PAIR_BLOCK pairs, after a bounding-box cut of the pairs."""

    @given(_segment_set(), st.sampled_from([None, 1e-6, 0.01, 0.2]), st.booleans())
    @settings(max_examples=150, deadline=None)
    # a road shorter than the snap distance leaves no edge: one city on it
    # is let through, a second refused, whatever the blocks
    @example(raw=[((0.0, 0.0), (0.0, 2.22e-16))], snap=1e-6, junctions=True)
    @example(raw=[((0.0, 0.0), (0.0, 0.25)), ((1.1125369292536007e-308, 0.5), (0.0, 0.5))],
             snap=None, junctions=False)
    def test_block_boundaries_change_nothing(self, raw, snap, junctions):
        """Both builds give the same graph, or both raise the same refusal."""
        cities = [a for a, b in raw if a != b][:3]
        try:
            want = build_arrangement(raw, cities, snap, junctions)
        except DisconnectedCityError as exc:
            with mock.patch.object(geom, "_PAIR_BLOCK", 3), \
                    pytest.raises(DisconnectedCityError) as got:
                build_arrangement(raw, cities, snap, junctions)
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(geom, "_PAIR_BLOCK", 3):
            got = build_arrangement(raw, cities, snap, junctions)
        _assert_same_graph(got, want)

    @pytest.mark.parametrize("kind", ["theta6", "cone4"])
    @pytest.mark.parametrize("mode", ["steiner", "graph"])
    def test_torus_block_boundaries_change_nothing(self, kind, mode):
        cfg = poisson(Window.square(12), seed=0, torus=True)
        net = nets.theta_graph(cfg, 6) if kind == "theta6" else nets.cone_road_network(cfg, 4)
        want = metrics.routing_graph(net, mode)
        assert want.stats["candidate_pairs"] > 1000  # hundreds of 3-pair blocks
        with mock.patch.object(geom, "_PAIR_BLOCK", 3):
            got = metrics.routing_graph(net, mode)
        _assert_same_graph(got, want)

    @given(st.one_of(_segment_set(max_size=20), _shared_endpoint_segments()))
    @settings(max_examples=200, deadline=None)
    def test_box_cut_drops_only_pairs_that_miss(self, raw):
        segs = [Segment(*s) for s in raw if s[0] != s[1]]
        S = np.array(segs, dtype=float).reshape(-1, 4)
        pairs = [(i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))]
        P = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        kept = [tuple(p) for p in geom._boxes_meet(S, P).tolist()]
        assert kept == [p for p in pairs if p in set(kept)]  # a subset, in order
        for i, j in sorted(set(pairs) - set(kept)):
            assert segment_intersection(segs[i], segs[j]) is None

    @given(_collinear_chain())
    @settings(max_examples=150, deadline=None)
    def test_merging_round_leaves_no_trace(self, raw):
        """The pair counts are those of the merged segments arranged at once."""
        with mock.patch.object(geom, "_merge_overlaps", wraps=geom._merge_overlaps) as merge:
            g = build_arrangement(raw, [])
        (S, cell, pad, _), _ = merge.call_args
        merged = geom._merge_overlaps(S, cell, pad, {})[0]
        direct = {}
        geom._merge_overlaps(merged, cell, pad, direct)
        assert direct["overlap_rounds"] == 1
        for name in ("candidate_pairs", "exact_pairs"):
            assert g.stats[name] == direct[name], name

    @given(st.one_of(_collinear_chain(), _segment_set()))
    @settings(max_examples=200, deadline=None)
    def test_near_rows_hold_every_overlap(self, raw):
        """The overlaps _block_events returns for a box-cut block are, in
        order, exactly its pairs with a collinear overlap of positive length,
        so one pass finds every overlap: the merge takes at most two."""
        segs = [Segment(*s) for s in raw if s[0] != s[1]]
        S = np.array(segs, dtype=float).reshape(-1, 4)
        cell = sum(s.length for s in segs) / len(segs) if segs else 1.0
        with mock.patch.object(geom, "_PAIR_BLOCK", 3):
            for P in geom._pair_blocks(*geom._segment_cells(S, cell, 1e-9 * cell)):
                kept = geom._boxes_meet(S, P)
                overlaps = geom._block_events(S, kept)[3].tolist()
                for i, j in P.tolist():
                    if isinstance(segment_intersection(segs[i], segs[j]), Segment):
                        assert [i, j] in overlaps
                assert overlaps == [[i, j] for i, j in kept.tolist() if isinstance(
                    segment_intersection(segs[i], segs[j]), Segment)]
        assert build_arrangement(raw, []).stats["overlap_rounds"] <= 2

    def test_each_pair_reaches_segment_intersection_once_a_pass(self):
        """The float filter runs once: a pair it cannot settle is sent to
        segment_intersection once, whose answer gives both its event and its
        overlap."""
        log, intersect, blocks = [], geom.segment_intersection, geom._pair_blocks

        def sent(s, t):
            log.append((s, t))
            return intersect(s, t)

        def new_pass(*args):
            log.append("pass")
            return blocks(*args)

        with mock.patch.object(geom, "segment_intersection", side_effect=sent), \
                mock.patch.object(geom, "_pair_blocks", side_effect=new_pass):
            g = build_arrangement([((0, 0), (2, 0)), ((1, 0), (3, 0)), ((5, 0), (6, 1))],
                                  [(0, 0), (3, 0)])
        assert g.stats["overlap_rounds"] == 2 and log.count("pass") == 2
        assert (Segment((0.0, 0.0), (2.0, 0.0)), Segment((1.0, 0.0), (3.0, 0.0))) in log
        seen = set()
        for call in log:
            if call == "pass":
                seen = set()
            else:
                assert call not in seen
                seen.add(call)

    @pytest.mark.parametrize("make", [square_grid, tri_config], ids=["square", "tri"])
    def test_exact_pairs_counts_the_calls(self, make):
        """Collinear lattice edges meeting end to end share an endpoint and
        could be collinear: each is sent, and counted."""
        net = nets.lattice_edges(make(Window.square(10)))
        with mock.patch.object(geom, "segment_intersection",
                               wraps=geom.segment_intersection) as intersect:
            stats = metrics.routing_graph(net, "steiner").stats
        assert stats["overlap_rounds"] == 1
        assert intersect.call_count == stats["exact_pairs"] > 0

    # tracemalloc peak of routing_graph on cone8 over the seed-0 20x20 torus
    # (55,808 nodes, 218,306 candidate pairs): 14.0 MB with blocks of 1 << 16
    # pairs; a stage holding a block costs about 171 bytes a pair on top of
    # what is live, and the stages after them peak near 252 bytes a node
    # (the split-and-edge tail; the torus gluing 200), 69 of which the graph
    # keeps.  It was 14.8 MB while the gluing held the unglued graph to its
    # end (266 bytes a node), 20.6 MB while build_arrangement kept every
    # stage's temporaries to its end, and 92.2 MB before the pairs went in
    # blocks.
    BLOCK_PAIR_BYTES = 176
    NODE_BYTES = 128

    def test_peak_memory_follows_block_and_nodes(self):
        net = nets.cone_road_network(poisson(Window.square(20), seed=0, torus=True), 8)
        tracemalloc.start()
        try:
            g = metrics.routing_graph(net, "steiner")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.stats["candidate_pairs"] > 3 * geom._PAIR_BLOCK
        assert peak <= self.BLOCK_PAIR_BYTES * geom._PAIR_BLOCK + self.NODE_BYTES * g.n_nodes

    def test_torus_gluing_peaks_below_the_arrangement(self):
        # the gluing drops each unglued array once its glued form exists
        # (11.2 MB here, against 14.0 for the arrangement; 14.8 while it
        # held the unglued graph to its end)
        net = nets.cone_road_network(poisson(Window.square(20), seed=0, torus=True), 8)
        peaks, arrange = [], geom._planar_arrangement

        def traced(*args, **kwargs):
            g = arrange(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return g

        tracemalloc.start()
        try:
            with mock.patch.object(geom, "_planar_arrangement", traced):
                metrics.routing_graph(net, "steiner")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < peaks[0]


class TestTorusArrangement:
    """build_arrangement on hand-made lifts over the 10x10 torus."""

    WINDOW = Window.square(10)

    def _graph(self, segs, cities, junctions=True):
        return build_arrangement(segs, cities, 1e-9 * self.WINDOW.diameter, junctions,
                                 window=self.WINDOW)

    def test_lift_across_x_seam(self):
        g = self._graph([(9, 5, 11, 6)], [(9, 5), (1, 6)])
        assert g.stats["seam_points"] == 2 and g.stats["glued"] == 1
        assert (g.stats["segments_in"], g.stats["nodes"], g.stats["edges"]) == (2, 3, 2)
        assert _route(g, 0, 1) == pytest.approx(math.sqrt(5))

    def test_lift_through_corner(self):
        g = self._graph([(9, 9, 11, 11)], [(9, 9), (1, 1)])
        assert g.stats["seam_points"] == 2 and g.stats["glued"] == 1
        assert (g.stats["nodes"], g.stats["edges"]) == (3, 2)
        np.testing.assert_array_equal(g.nodes[1], [10.0, 10.0])
        assert _route(g, 0, 1) == pytest.approx(2 * math.sqrt(2))

    def test_lift_on_seam_line(self):
        g = self._graph([(0, 1, 0, 3)], [(0, 1), (0, 3)])
        assert g.stats["seam_points"] == 2 and g.stats["glued"] == 0
        assert (g.stats["nodes"], g.stats["edges"]) == (2, 1)
        # the same road lifted onto the far edge lands on the near one
        h = self._graph([(10, 1, 10, 3)], [(0, 1), (0, 3)])
        np.testing.assert_array_equal(h.nodes, g.nodes)

    def test_seam_coordinate_is_exact(self):
        # a + t * d puts the cut 5.6e-17 off x = 0; both pieces end on the
        # window's edges exactly, at one height
        lift = np.array([[-0.41, 1.7, 2.54, 2.3]])
        t = 0.41 / (2.54 + 0.41)
        assert -0.41 + t * (2.54 + 0.41) != 0.0
        pieces, cut = geom._seam_pieces(lift, np.array([0.0, 0.0]), np.array([10.0, 10.0]))
        assert cut.tolist() == [[False, True], [True, False]]
        assert pieces[0, 2] == 10.0 and pieces[1, 0] == 0.0
        assert pieces[0, 3] == pieces[1, 1]
        # on a window at 0.1 moving the far piece by the side misses too
        pieces, _ = geom._seam_pieces(lift + 0.1, np.array([0.1, 0.1]), np.array([10.0, 10.0]))
        assert pieces[0, 2] == 0.1 + 10.0 and pieces[1, 0] == 0.1
        g = self._graph(lift, [(9.59, 1.7), (2.54, 2.3)])
        assert g.stats["glued"] == 1
        assert _route(g, 0, 1) == pytest.approx(math.hypot(2.95, 0.6))

    # a road on x = 0 and a longer copy within snap_eps of x = 10 glue into
    # parallel edges (the sparse matrix would add their weights); the road
    # at y = 5 that wraps all the way round glues into a loop
    _PARALLEL = [(0, 1, 0, 3), (10 - 1e-8, 1, 10 - 1e-8, 3 + 1e-9), (0, 5, 10 - 1e-12, 5)]

    def test_parallel_edges_keep_shortest_weight(self):
        g = self._graph(self._PARALLEL, [(0, 1), (0, 3)])
        assert g.stats["glued"] == 3
        assert len(g.edges) == 1 and g.weights.tolist() == [2.0]
        assert _route(g, 0, 1) == 2.0

    def test_city_on_a_road_glued_into_a_loop_is_refused(self):
        # the loop is dropped, so the node of (0, 5) carries no edge
        with pytest.raises(DisconnectedCityError, match=r"city 2 at \(0\.0, 5\.0\)"):
            self._graph(self._PARALLEL, [(0, 1), (0, 3), (0, 5)])

    # a city on a seam whose road leaves across it: its node and the road's
    # end lie on opposite edges until the gluing joins them
    @pytest.mark.parametrize("segs,cities", [
        ([(0, 5, -3, 5), (7, 5, 7, 8)], [(0, 5), (7, 5), (7, 8)]),
        ([(10, 5, 7, 5), (7, 5, 7, 8)], [(0, 5), (7, 5), (7, 8)]),
        ([(10, 5, 13, 5), (3, 5, 3, 8)], [(10, 5), (3, 5), (3, 8)]),
    ], ids=["lift-from-near-edge", "lift-from-far-edge", "city-on-far-edge"])
    def test_seam_city_routes_across_the_seam(self, segs, cities):
        g = self._graph(segs, cities)
        assert _route(g, 0, 1) == pytest.approx(3.0)
        assert _route(g, 0, 2) == pytest.approx(6.0)
        net = nets.Network(PointConfig(cities, self.WINDOW, torus=True), segs, "custom")
        assert metrics.stretch(net, "steiner").max_ratio == pytest.approx(math.sqrt(2))

    def test_long_lifts_cut_at_every_seam(self):
        # a lift 2.5 sides long crosses x = 0, 10 and 20, and the road one
        # side long on the seam line y = 0 wraps once round: both close
        # into loops, so the cities on them route the short way round
        pieces, cut = geom._seam_pieces(np.array([[-5.0, 5, 20.5, 5], [3, 0, 3, 10]]),
                                        np.array([0.0, 0.0]), np.array([10.0, 10.0]))
        np.testing.assert_array_equal(pieces, [[5, 5, 10, 5], [0, 5, 10, 5], [0, 5, 10, 5],
                                               [0, 5, 0.5, 5], [3, 0, 3, 10]])
        assert cut.tolist() == [[False, True], [True, True], [True, True], [True, False],
                                [False, False]]
        g = self._graph([(-5, 5, 20.5, 5), (3, 0, 3, 10)], [(1, 5), (9, 5), (3, 1), (3, 9)])
        assert _route(g, 0, 1) == pytest.approx(2.0)
        assert _route(g, 2, 3) == pytest.approx(2.0)
        assert _route(g, 0, 2) == pytest.approx(6.0)

    def test_glued_node_is_the_first_of_its_component(self, monkeypatch):
        # the nodes within snap_eps of a seam join their images across it;
        # each set so joined keeps its lowest-indexed node, in index order
        cfg = poisson(self.WINDOW, seed=0, torus=True)
        net = nets.grid_freeway(cfg, 1.0, "N2")
        unglued = []
        planar = geom._planar_arrangement
        monkeypatch.setattr(geom, "_planar_arrangement",
                            lambda *args: unglued.append(planar(*args)) or unglued[-1])
        eps = 1e-9 * self.WINDOW.diameter
        g = build_arrangement(net.segments, cfg.points, eps, window=self.WINDOW)
        nodes = unglued[0][0]
        far = np.abs(nodes - 10.0) <= eps
        seam = np.flatnonzero((far | (np.abs(nodes) <= eps)).any(axis=1)).tolist()
        key = np.where(far, nodes - 10.0, nodes)
        root = list(range(len(nodes)))

        def find(u):
            while root[u] != u:
                u = root[u]
            return u

        for a in seam:
            for b in seam:
                if a < b and math.hypot(*(key[a] - key[b]).tolist()) <= eps:
                    ra, rb = find(a), find(b)
                    root[max(ra, rb)] = min(ra, rb)
        first = [find(u) for u in range(len(nodes))]
        kept = sorted(set(first))
        assert g.stats["glued"] == len(nodes) - len(kept) > 50
        np.testing.assert_array_equal(g.nodes, nodes[kept])
        label = {u: k for k, u in enumerate(kept)}
        cities = unglued[0][3][:len(cfg.points)]
        assert g.city_nodes.tolist() == [label[first[u]] for u in cities.tolist()]

    @pytest.mark.parametrize("junctions", [True, False])
    def test_cut_on_a_road_along_the_seam(self, junctions):
        # the road (9, 2)-(11, 4) crosses the road on x = 0 at (0, 3): a
        # junction in steiner mode, none in graph mode, as in the plane
        g = self._graph([(9, 2, 11, 4), (0, 1, 0, 5)], [(9, 2), (1, 4), (0, 1)],
                        junctions)
        assert (g.stats["seam_points"], g.stats["glued"]) == (4, 1)
        route = _route(g, 0, 2)
        if junctions:
            assert route == pytest.approx(math.sqrt(2) + 2)
        else:
            assert math.isinf(route)
