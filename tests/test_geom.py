"""Tests for the planar-arrangement and routing primitives."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import geom
from spanlab.geom import (DisconnectedCityError, Segment, build_arrangement,
                          orient, segment_intersection, shortest_route)


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
        length, path = shortest_route(g, 0, 1)
        assert length == pytest.approx(2 * math.sqrt(2))
        assert len(path) == 3  # via the junction

    def test_crossing_without_junction(self):
        segs = [((0, 0), (2, 2)), ((0, 2), (2, 0))]
        g = build_arrangement(segs, [(0, 0), (2, 0)], junctions=False)
        assert g.n_nodes == 4
        assert len(g.edges) == 2
        length, path = shortest_route(g, 0, 1)
        assert math.isinf(length) and path == []

    def test_duplicate_segments_deduplicated(self):
        segs = [((0, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0))]
        g = build_arrangement(segs, [(0, 0)])
        assert g.total_length == pytest.approx(1.0)

    def test_collinear_overlap_union(self):
        segs = [((0, 0), (2, 0)), ((1, 0), (3, 0))]
        g = build_arrangement(segs, [(0, 0), (3, 0)])
        assert g.total_length == pytest.approx(3.0)
        assert shortest_route(g, 0, 1)[0] == pytest.approx(3.0)

    def test_square_route(self):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        segs = list(zip(corners, corners[1:] + corners[:1]))
        g = build_arrangement(segs, corners)
        assert shortest_route(g, 0, 2)[0] == pytest.approx(2.0)

    def test_city_in_segment_interior_splits(self):
        g = build_arrangement([((0, 0), (2, 0))], [(1, 0), (2, 0)])
        assert shortest_route(g, 0, 1)[0] == pytest.approx(1.0)

    def test_disconnected_city_raises(self):
        with pytest.raises(DisconnectedCityError):
            build_arrangement([((0, 0), (1, 0))], [(5, 5)])

    def test_snap_merges_close_endpoints(self):
        eps = 1e-9
        g = build_arrangement([((0, 0), (1, 0)), ((1 + eps / 10, 0), (2, 0))],
                              [(0, 0), (2, 0)], snap_eps=eps)
        assert math.isfinite(shortest_route(g, 0, 1)[0])

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
                assert shortest_route(g, i, j)[0] >= d - 1e-9

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
        length, path = shortest_route(g, 0, 1)
        assert length == pytest.approx(2.0)
        assert path[0] == g.city_nodes[0] and path[-1] == g.city_nodes[1]

    def test_unknown_city_raises(self):
        g = build_arrangement([((0, 0), (1, 0))], [(0, 0)])
        with pytest.raises(KeyError):
            g.distances_from(3)


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
    """The segment set and candidate pairs that build_arrangement hands to
    _intersection_events (duplicates dropped, collinear overlaps merged)."""
    seen, segs = set(), []
    for s in segments:
        key = (min(s.a, s.b), max(s.a, s.b))
        if key not in seen:
            seen.add(key)
            segs.append(s)
    cell = sum(s.length for s in segs) / len(segs)
    segs = geom._merge_overlaps(segs, cell)
    return segs, geom._candidate_pairs(geom._segment_buckets(segs, cell, 1e-9 * cell))


class TestTopologyFastPaths:
    @given(_shared_endpoint_segments())
    @settings(max_examples=300, deadline=None)
    def test_shared_endpoint_meets_only_there(self, segments):
        """Every pair the topology rule drops meets exactly at its shared point."""
        if not segments:
            return
        segs, pairs = _arrangement_input(segments)
        if not len(pairs):
            return
        P, A, B, C, D = geom._pair_arrays(segs, pairs)
        for i, j in P[geom._shares_endpoint(A, B, C, D)]:
            s, t = segs[i], segs[j]
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
                               lambda A, B, C, D: np.zeros(len(A), dtype=bool)):
            slow = build_arrangement(segments, cities)
        for name in ("nodes", "edges", "weights", "city_nodes"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))

    @given(st.lists(st.tuples(_point, _point), min_size=0, max_size=40),
           st.floats(0.5, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_candidate_pairs_brute_force(self, raw, cell):
        segs = [Segment(a, b) for a, b in raw]
        buckets = geom._segment_buckets(segs, cell, 1e-9 * cell)
        want = sorted({(m[a], m[b]) for m in buckets.values()
                       for a in range(len(m)) for b in range(a + 1, len(m))})
        got = geom._candidate_pairs(buckets)
        assert got.dtype.kind == "i" and got.shape == (len(want), 2)
        assert [tuple(p) for p in got.tolist()] == want
