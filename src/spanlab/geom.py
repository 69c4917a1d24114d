"""Robust planar geometry kernel.

Exact orientation predicates, segment intersection, construction of the
planar arrangement induced by a set of road segments (crossings become
junction nodes), and shortest-path distances on the resulting graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

Point = tuple[float, float]

# float64 machine epsilon based filter bound for the 2x2 determinant
_ORIENT_ERRBOUND = 4.0 * np.finfo(float).eps


class Segment(NamedTuple):
    a: Point
    b: Point

    @property
    def length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])


class DisconnectedCityError(ValueError):
    """A city lies farther than snap_eps from every segment."""


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of twice the signed area of triangle (p, q, r).

    Returns +1 for counterclockwise, -1 for clockwise, 0 for collinear.
    Uses a floating-point filter and falls back to exact rational
    arithmetic when the filter is inconclusive.
    """
    ux, uy = q[0] - p[0], q[1] - p[1]
    vx, vy = r[0] - p[0], r[1] - p[1]
    if (ux == 0.0 or vy == 0.0) and (uy == 0.0 or vx == 0.0):
        # a float difference is zero only when its operands are equal, so
        # both products and the true determinant are zero; this settles
        # shared endpoints and axis-parallel collinearity without rational
        # arithmetic (a zero product alone may be an underflow)
        return 0
    det_l = ux * vy
    det_r = uy * vx
    det = det_l - det_r
    err = _ORIENT_ERRBOUND * (abs(det_l) + abs(det_r))
    if det > err:
        return 1
    if det < -err:
        return -1
    # fall back to exact evaluation: each coordinate is a ratio of integers
    # (a float's denominator is a power of two), so scaling all six by the
    # common denominator gives integers
    ratios = [v.as_integer_ratio() if type(v) is float else Fraction(v).as_integer_ratio()
              for v in (*p, *q, *r)]
    den = math.lcm(*(d for _, d in ratios))
    px, py, qx, qy, rx, ry = (n * (den // d) for n, d in ratios)
    exact = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if exact > 0:
        return 1
    if exact < 0:
        return -1
    return 0


def _on_segment_collinear(p: Point, q: Point, r: Point) -> bool:
    """Assuming q collinear with segment (p, r): is q inside the closed segment?"""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def segment_intersection(s1: Segment, s2: Segment):
    """Intersection of two segments.

    Returns None (disjoint), a Point (proper crossing or endpoint touch),
    or a Segment (collinear overlap with positive length).
    """
    a, b = s1
    c, d = s2
    d1 = orient(a, b, c)
    d2 = orient(a, b, d)
    d3 = orient(c, d, a)
    d4 = orient(c, d, b)

    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # collinear: overlap along the dominant axis
        axis = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
        lo1, hi1 = sorted((a, b), key=lambda p: p[axis])
        lo2, hi2 = sorted((c, d), key=lambda p: p[axis])
        lo = max(lo1, lo2, key=lambda p: p[axis])
        hi = min(hi1, hi2, key=lambda p: p[axis])
        if lo[axis] > hi[axis]:
            return None
        if lo[axis] == hi[axis]:
            return lo
        return Segment(lo, hi)

    if d1 * d2 < 0 and d3 * d4 < 0:
        # proper crossing: solve parametrically in doubles
        r = (b[0] - a[0], b[1] - a[1])
        s = (d[0] - c[0], d[1] - c[1])
        denom = r[0] * s[1] - r[1] * s[0]
        if denom == 0.0:
            # nearly parallel: the exact predicates see a crossing that the
            # float determinant cancels to zero, so solve in rationals
            ax, ay, bx, by, cx, cy, dx, dy = map(Fraction, (*a, *b, *c, *d))
            rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
            t = ((cx - ax) * sy - (cy - ay) * sx) / (rx * sy - ry * sx)
            return (float(ax + t * rx), float(ay + t * ry))
        t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
        return (a[0] + t * r[0], a[1] + t * r[1])

    # endpoint touching
    if d1 == 0 and _on_segment_collinear(a, c, b):
        return c
    if d2 == 0 and _on_segment_collinear(a, d, b):
        return d
    if d3 == 0 and _on_segment_collinear(c, a, d):
        return a
    if d4 == 0 and _on_segment_collinear(c, b, d):
        return b
    return None


@dataclass
class RoutingGraph:
    """Planar arrangement of a segment set as a weighted graph.

    nodes: (n, 2) coordinates; edges: (m, 2) node indices; weights:
    Euclidean sub-segment lengths; city_nodes: node index per input city.
    stats: counts from build_arrangement's stages: segments_in (input
    rows), overlap_rounds, candidate_pairs (segment pairs sharing a grid
    cell), exact_pairs (those sent to segment_intersection), snapped (points
    merged into a node at nonzero distance), nodes and edges; on a torus
    also seam_points and glued (see build_torus_arrangement).
    Immutable after construction; the sparse matrix is built once and
    each per-source search runs afresh.
    """

    nodes: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    city_nodes: np.ndarray
    _csr: csr_matrix | None = field(default=None, repr=False)
    stats: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_length(self) -> float:
        return float(self.weights.sum())

    def _matrix(self) -> csr_matrix:
        if self._csr is None:  # both directions of every edge
            n, e = self.n_nodes, self.edges
            self._csr = csr_matrix((np.tile(self.weights, 2), (e.T.ravel(), e[:, ::-1].T.ravel())),
                                   shape=(n, n))
        return self._csr

    def distances_from(self, city: int) -> np.ndarray:
        """All-node shortest-path distances from a city.

        The matrix holds both directions of every edge, so a directed
        search gives the undirected distances without the transposed copy
        that ``directed=False`` makes on every call.
        """
        if not 0 <= city < len(self.city_nodes):
            raise KeyError(f"unknown city index {city}")
        return dijkstra(self._matrix(), directed=True, indices=self.city_nodes[city])


# ---------------------------------------------------------------------------
# arrangement construction
# ---------------------------------------------------------------------------
#
# Every stage works on an (m, 4) float array of segments (x1, y1, x2, y2).
# Segment lengths, snap distances and edge weights are rounded as math.hypot
# rounds them: np.hypot differs from it in the last bit on about 0.6% of
# inputs, which would move snapping decisions and returned weights.


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """math.hypot of each (dx, dy) pair."""
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def _lengths(S: np.ndarray) -> np.ndarray:
    return _hypot(S[:, 2] - S[:, 0], S[:, 3] - S[:, 1])


def _expand(counts: np.ndarray):
    """(owner, offset) of every item when row r expands into counts[r] items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - start[owner]


def _cell_index(v, cell: float) -> np.ndarray:
    """Grid index floor(v / cell) as int64, clamped to +-2**62: cells past
    that merge, which only adds candidate pairs (tiny segments far from the
    origin get there)."""
    return np.clip(np.floor(v / cell), -2.0**62, 2.0**62).astype(np.int64)


def _segment_cells(S: np.ndarray, cell: float, pad: float = 0.0):
    """(segment, cell x, cell y) rows, as three int64 arrays, of the grid
    cells each segment crosses, grown by ``pad`` units.

    Exact column sweep along the dominant axis: for each grid column the
    segment crosses, the rows spanned by its y-range in that column are
    listed, once each.  ``pad`` absorbs rounding at cell boundaries and the
    node snap tolerance.
    """
    ax, ay, bx, by = S[:, 0], S[:, 1], S[:, 2], S[:, 3]
    swap = np.abs(bx - ax) < np.abs(by - ay)
    ax, ay, bx, by = (np.where(swap, ay, ax), np.where(swap, ax, ay),
                      np.where(swap, by, bx), np.where(swap, bx, by))
    flip = ax > bx
    ax, ay, bx, by = (np.where(flip, bx, ax), np.where(flip, by, ay),
                      np.where(flip, ax, bx), np.where(flip, ay, by))
    c0 = _cell_index(ax - pad, cell)
    c1 = _cell_index(bx + pad, cell)
    seg, off = _expand(c1 - c0 + 1)
    cx = c0[seg] + off
    ax, ay, bx, by = ax[seg], ay[seg], bx[seg], by[seg]
    dx, dy = bx - ax, by - ay
    x_lo = np.maximum(ax, cx * cell - pad)
    x_hi = np.minimum(bx, (cx + 1) * cell + pad)
    flat = dx == 0.0
    dx = np.where(flat, 1.0, dx)
    y0 = np.where(flat, ay, ay + (x_lo - ax) / dx * dy)
    y1 = np.where(flat, by, ay + (x_hi - ax) / dx * dy)
    r0 = _cell_index(np.minimum(y0, y1) - pad, cell)
    r1 = _cell_index(np.maximum(y0, y1) + pad, cell)
    col, off = _expand(r1 - r0 + 1)
    seg, cx, cy = seg[col], cx[col], r0[col] + off
    swap = swap[seg]
    return seg, np.where(swap, cy, cx), np.where(swap, cx, cy)


def _cell_codes(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """One int64 code per (cx, cy) cell, equal exactly where the cells are."""
    _, rx = np.unique(cx, return_inverse=True)
    _, ry = np.unique(cy, return_inverse=True)
    return rx * (ry.max(initial=0) + 1) + ry


def _candidate_pairs(seg: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Sorted unique (k, 2) array of the segment pairs i < j sharing a cell,
    from the (segment, cell x, cell y) rows of _segment_cells."""
    order = np.lexsort((seg, cy, cx))
    seg, cx, cy = seg[order], cx[order], cy[order]
    start = np.ones(len(seg), dtype=bool)
    start[1:] = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
    bounds = np.append(np.flatnonzero(start), len(seg))
    end = np.repeat(bounds[1:], np.diff(bounds))
    first, off = _expand(end - np.arange(len(seg)) - 1)
    # a segment is listed once per cell and ascending within it, so i < j
    codes = seg[first] * 2**32 + seg[first + 1 + off]
    # sort and diff: np.unique hashes integers in numpy 2.x, about 10x
    # slower on these codes
    codes = np.sort(codes)
    codes = codes[np.diff(codes, prepend=-1) != 0]  # codes are >= 0
    return np.stack([codes >> 32, codes & (2**32 - 1)], axis=1)


def _pair_arrays(S: np.ndarray, pairs):
    """(k, 2) index pairs P and the eight 1-D coordinate arrays ax, ay, bx,
    by, cx, cy, dx, dy: segment P[:, 0] runs from a to b, P[:, 1] from c to d."""
    P = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    cols = np.ascontiguousarray(S.T)
    i, j = P[:, 0].copy(), P[:, 1].copy()
    return P, [c[i] for c in cols] + [c[j] for c in cols]


def _filtered_cross(ux, uy, vx, vy):
    """Cross products u x v of 1-D coordinate arrays, and where their sign
    is certain: |u x v| above the floating-point error bound."""
    t1 = ux * vy
    t2 = uy * vx
    det = t1 - t2
    err = np.abs(t1, out=t1)
    err += np.abs(t2, out=t2)
    err *= _ORIENT_ERRBOUND
    return det, np.abs(det) > err


def _shares_endpoint(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """Where segment (a, b) and segment (c, d) share an endpoint exactly."""
    return (((ax == cx) & (ay == cy)) | ((ax == dx) & (ay == dy))
            | ((bx == cx) & (by == cy)) | ((bx == dx) & (by == dy)))


def _intersection_events(S: np.ndarray, pairs):
    """Candidate pairs meeting in a single point: their (k, 2) rows of
    ``pairs``, in order, the (k, 2) meeting points, and the number of pairs
    sent to the exact predicates.

    A vectorized orientation filter settles the bulk of the pairs: pairs
    whose four orientations are all decisively nonzero either cross
    properly (intersection solved in floats) or miss entirely.  Pairs the
    filter cannot decide and that share no endpoint go through the exact
    predicate path.  Collinear overlaps (already merged away upstream)
    produce no event.
    """
    P, E = _pair_arrays(S, pairs)
    ax, ay, bx, by, cx, cy, dx, dy = E
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    d1, decisive = _filtered_cross(rx, ry, cx - ax, cy - ay)
    d2, sure = _filtered_cross(rx, ry, dx - ax, dy - ay)
    decisive &= sure
    d3, sure = _filtered_cross(sx, sy, ax - cx, ay - cy)
    decisive &= sure
    d4, sure = _filtered_cross(sx, sy, bx - cx, by - cy)
    decisive &= sure
    k = np.flatnonzero(decisive & ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)))
    ax, ay, cx, cy, rx, ry, sx, sy = (v[k] for v in (ax, ay, cx, cy, rx, ry, sx, sy))
    t = ((cx - ax) * sy - (cy - ay) * sx) / (rx * sy - ry * sx)
    rows, hits = [k], [np.column_stack([ax + t * rx, ay + t * ry])]
    # A pair sharing an endpoint bit-for-bit meets only there.  Exact and
    # reversed duplicates were dropped and collinear overlaps merged by
    # _merge_overlaps (an overlap would give a Segment, hence no event), so
    # the pair is non-collinear, with one common point, or collinear end to
    # end.  segment_intersection would return the shared point, which is
    # already a node of both segments: _project gives it t = 0.0 or
    # t = 1.0 exactly, so its event would insert no node and split nothing.
    # The topology settles these pairs.
    exact = np.flatnonzero(~decisive)
    exact = exact[~_shares_endpoint(*(v[exact] for v in E))]
    for row, (x1, y1, x2, y2, x3, y3, x4, y4) in zip(
            exact.tolist(), S[P[exact]].reshape(-1, 8).tolist()):
        hit = segment_intersection(Segment((x1, y1), (x2, y2)), Segment((x3, y3), (x4, y4)))
        if hit is not None and not isinstance(hit, Segment):
            rows.append([row])
            hits.append(np.array([hit], dtype=float))
    rows, hits = np.concatenate(rows), np.concatenate(hits)
    order = np.argsort(rows, kind="stable")
    return P[rows[order]], hits[order], len(exact)


def _near_collinear_pairs(S: np.ndarray, pairs) -> np.ndarray:
    """Rows of the candidate pairs that could be collinear.

    Keeps a pair whenever the directions are not decisively non-parallel
    and one endpoint is not decisively off the other's line; exactly
    collinear pairs always survive because their true determinants are
    zero and thus inside the filter's error band.
    """
    P = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rx, ry = S[:, 2] - S[:, 0], S[:, 3] - S[:, 1]
    i, j = P[:, 0].copy(), P[:, 1].copy()
    P = P[~_filtered_cross(rx[i], ry[i], rx[j], ry[j])[1]]
    ax, ay, bx, by, cx, cy, _, _ = _pair_arrays(S, P)[1]
    return P[~_filtered_cross(bx - ax, by - ay, cx - ax, cy - ay)[1]]


def _merge_overlaps(S: np.ndarray, cell: float, pad: float):
    """Union collinear overlapping segments so shared geometry counts once.

    Overlaps are sought among the pairs sharing a cell grown by 1e-9 * cell.
    Returns the merged (m', 4) array, the number of rounds taken and the
    candidate pairs of the merged segments in cells grown by ``pad`` (at
    least 1e-9 * cell; a segment's cells only grow with the pad, so those
    pairs hold the ones sought).
    """
    S = S.copy()
    for rounds in range(1, 33):
        pairs = _candidate_pairs(*_segment_cells(S, cell, pad))
        near = _near_collinear_pairs(S, pairs)
        if len(near):
            ids = np.unique(near)
            close = ids[_candidate_pairs(*_segment_cells(S[ids], cell, 1e-9 * cell))]
            near = near[np.isin(near[:, 0] * 2**32 + near[:, 1],
                                close[:, 0] * 2**32 + close[:, 1])]
        merged_away: set[int] = set()
        for i, j in near.tolist():
            if i in merged_away or j in merged_away:
                continue
            si, sj = (Segment(*map(tuple, S[k].reshape(2, 2).tolist())) for k in (i, j))
            if isinstance(segment_intersection(si, sj), Segment):
                # union of the two collinear segments
                pts = [si.a, si.b, sj.a, sj.b]
                axis = 0 if abs(si.b[0] - si.a[0]) >= abs(si.b[1] - si.a[1]) else 1
                lo = min(pts, key=lambda p: p[axis])
                hi = max(pts, key=lambda p: p[axis])
                S[i] = (*lo, *hi)
                merged_away.add(j)
        if not merged_away:
            return S, rounds, pairs
        S = np.delete(S, sorted(merged_away), axis=0)
    raise RuntimeError("overlap merging did not converge")


def _project(px: np.ndarray, py: np.ndarray, S: np.ndarray):
    """Clamped parameter t along each segment row of S of the point nearest
    to (px, py) in the same row, and that nearest point (qx, qy)."""
    ax, ay = S[:, 0], S[:, 1]
    dx, dy = S[:, 2] - ax, S[:, 3] - ay
    L2 = dx * dx + dy * dy
    degenerate = L2 == 0.0
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(degenerate, 1.0, L2)
    t = np.where(degenerate | ~(t > 0.0), 0.0, t)
    t = np.where(t < 1.0, t, 1.0)
    return t, ax + t * dx, ay + t * dy


def _interior(t: np.ndarray, length: np.ndarray, snap_eps: float) -> np.ndarray:
    """Whether parameter t lies more than snap_eps from both segment ends."""
    at = t * length
    return (snap_eps < at) & (at < length - snap_eps)


def _end_near(S: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The end of each segment row of S nearer parameter t."""
    return np.where((t < 0.5)[:, None], S[:, :2], S[:, 2:])


def _among(points: np.ndarray, of: np.ndarray) -> np.ndarray:
    """Whether each row of points equals some row of ``of`` exactly."""
    of = np.asarray(of, dtype=float).reshape(-1, 2)
    return np.isin(points[:, 0] + 1j * points[:, 1], of[:, 0] + 1j * of[:, 1])


def _eps_cell(p, eps: float) -> tuple[int, int]:
    return math.floor(p[0] / eps), math.floor(p[1] / eps)


def _snap_pick(p, P: dict, grid: dict, eps: float) -> int:
    """Row of the node that point p snaps to, or -1.

    ``grid`` files the rows of P (row -> point) that made nodes by
    eps-grid cell, each cell's rows in creation order.  The nearest node
    within eps in the 3x3 block of cells around p wins; a tie goes to the
    last one met scanning the block column by column, each column bottom to
    top.
    """
    kx, ky = _eps_cell(p, eps)
    best, best_d = -1, eps
    for gx in (kx - 1, kx, kx + 1):
        for gy in (ky - 1, ky, ky + 1):
            for row in grid.get((gx, gy), ()):
                d = math.hypot(p[0] - P[row][0], p[1] - P[row][1])
                if d <= best_d:
                    best, best_d = row, d
    return best


def _snap_nodes(X: np.ndarray, eps: float):
    """Nodes of the points of X inserted in order, merging within eps.

    Each point joins the node _snap_pick chooses among the nodes made so
    far, or makes a new node at its own coordinates.  Returns the node of
    every point and, per node, the row of X that made it.

    Only points that some distinct point comes near need that rule: a
    point otherwise joins the node made by the first equal point.  The
    near points (within a radius safely above eps of a distinct point, so
    that every node within eps of one is made by another) are replayed in
    order, against the nodes they made.
    """
    n = len(X)
    K = X + 0.0  # one key for -0.0 and 0.0
    order = np.lexsort((K[:, 1], K[:, 0]))
    new = np.ones(n, dtype=bool)
    new[1:] = (K[order[1:]] != K[order[:-1]]).any(axis=1)
    first = order[new]  # stable sort: the earliest row of each point
    uid = np.empty(n, dtype=np.int64)
    uid[order] = np.cumsum(new) - 1
    maker = first[uid]
    near = cKDTree(K[first]).query_pairs(eps * (1.0 + 1e-6), output_type="ndarray")
    is_near = np.zeros(len(first), dtype=bool)
    is_near[near.ravel()] = True
    rows = np.flatnonzero(is_near[uid])
    P, grid, picks = dict(zip(rows.tolist(), X[rows].tolist())), {}, []
    for row, p in P.items():
        picks.append(_snap_pick(p, P, grid, eps))
        if picks[-1] < 0:
            picks[-1] = row
            grid.setdefault(_eps_cell(p, eps), []).append(row)
    maker[rows] = picks
    makes = maker == np.arange(n)
    node = (np.cumsum(makes) - 1)[maker]
    return node, np.flatnonzero(makes)


def build_arrangement(
    segments,
    cities,
    snap_eps: float | None = None,
    junctions: bool = True,
    cuts=None,
) -> RoutingGraph:
    """Planar subdivision of a segment set as a RoutingGraph.

    ``segments`` is an (m, 4) array of x1, y1, x2, y2 rows, or anything
    numpy reshapes to one, such as a list of point pairs; ``cities`` an
    (n, 2) array of points.  Nodes are segment endpoints, pairwise proper
    intersections (when ``junctions`` is True) and cities, inserted in that
    order; a point within snap_eps of an earlier node joins the nearest
    one; collinear overlaps are deduplicated before splitting.  With
    ``junctions=False`` crossings stay geometrically present but carry no
    node, giving graph-network (endpoint-only) semantics.  ``cuts`` is a
    (k, 2) array of points where a road was cut into segments without
    ending there (build_torus_arrangement cuts roads at the seams); with
    ``junctions=False`` a segment end at one of them touching another
    segment's interior is a crossing and carries no node.  The stages count
    their work in ``stats``.
    """
    S = np.asarray(segments, dtype=float).reshape(-1, 4)
    cities = np.asarray(cities, dtype=float).reshape(-1, 2)
    stats = {"segments_in": len(S)}

    if snap_eps is None:
        pts = np.concatenate([S.reshape(-1, 2), cities])
        diam = math.hypot(*(pts.max(0) - pts.min(0)).tolist()) if len(pts) else 1.0
        snap_eps = max(1e-9 * diam, 1e-300)

    # drop degenerate and exactly duplicated segments, keeping the first
    # of each in input order
    S = S[(S[:, :2] != S[:, 2:]).any(axis=1)]
    a_first = (S[:, 0] < S[:, 2]) | ((S[:, 0] == S[:, 2]) & (S[:, 1] < S[:, 3]))
    key = np.where(a_first[:, None], S, S[:, [2, 3, 0, 1]]) + 0.0
    order = np.lexsort(key.T[::-1])
    dup = np.zeros(len(S), dtype=bool)
    dup[order[1:]] = (key[order[1:]] == key[order[:-1]]).all(axis=1)
    S = S[~dup]

    cell = max(sum(_lengths(S).tolist()) / len(S), 16 * snap_eps) if len(S) else 1.0
    pad = max(snap_eps, 1e-9 * cell)
    S, stats["overlap_rounds"], pairs = _merge_overlaps(S, cell, pad)
    m, n_cities = len(S), len(cities)
    if m == 0 and n_cities > 1:
        raise DisconnectedCityError("disconnected city: empty segment set")
    length = _lengths(S)

    # pairwise intersections and endpoint touches; a proper crossing
    # carries no node in graph mode
    ev, hits, stats["exact_pairs"] = _intersection_events(S, pairs)
    stats["candidate_pairs"] = len(pairs)
    t_i = _project(hits[:, 0], hits[:, 1], S[ev[:, 0]])[0]
    t_j = _project(hits[:, 0], hits[:, 1], S[ev[:, 1]])[0]
    in_i = _interior(t_i, length[ev[:, 0]], snap_eps)
    in_j = _interior(t_j, length[ev[:, 1]], snap_eps)
    keep = junctions | ~(in_i & in_j)
    if cuts is not None and not junctions:
        keep &= ~(in_j & _among(_end_near(S[ev[:, 0]], t_i), cuts))
        keep &= ~(in_i & _among(_end_near(S[ev[:, 1]], t_j), cuts))
    ev, hits, t_i, t_j, in_i, in_j = (v[keep] for v in (ev, hits, t_i, t_j, in_i, in_j))

    # each city against the segments listed in its grid cell
    seg_of, cx, cy = _segment_cells(S, cell, pad)
    kx, ky = _cell_index(cities, cell).T
    code = _cell_codes(np.concatenate([cx, kx]), np.concatenate([cy, ky]))
    by_cell = np.argsort(code[:len(cx)], kind="stable")
    sorted_code, city_code = code[:len(cx)][by_cell], code[len(cx):]
    lo = np.searchsorted(sorted_code, city_code, "left")
    city, off = _expand(np.searchsorted(sorted_code, city_code, "right") - lo)
    on = seg_of[by_cell][lo[city] + off]
    t_c, qx, qy = _project(cities[city, 0], cities[city, 1], S[on])
    near = _hypot(cities[city, 0] - qx, cities[city, 1] - qy) <= snap_eps
    inside = near & _interior(t_c, length[on], snap_eps)

    X = np.concatenate([S.reshape(-1, 2), hits, cities])
    node, makers = _snap_nodes(X, snap_eps)
    stats["snapped"] = int((X[makers][node] != X).any(axis=1).sum())
    ev_node, city_nodes = node[2 * m:2 * m + len(hits)], node[2 * m + len(hits):]

    attached = np.zeros(n_cities, dtype=bool)
    attached[city[near]] = True
    for k in np.flatnonzero(~attached).tolist() if m else ():
        # a city may still share its node with an endpoint of a segment in
        # its cell, as the nodes near those endpoints stood right after the
        # city's insertion; each end's own node is among them, so no end
        # makes a node
        made = makers[makers <= 2 * m + len(hits) + k]
        ends = S[on[city == k]].reshape(-1, 2)
        gap = np.floor(X[made, None] / snap_eps) - np.floor(ends / snap_eps)
        made = made[(np.abs(gap) <= 1).all(2).any(1)]
        joins = _snap_nodes(np.concatenate([X[made], ends]), snap_eps)[0][len(made):]
        if makers[city_nodes[k]] not in made[joins]:
            raise DisconnectedCityError(
                f"disconnected city: city {k} at {tuple(cities[k].tolist())} lies "
                f"farther than {snap_eps:g} from every segment"
            )

    # split each segment at its nodes, sorted by (t, node)
    seg = np.concatenate([np.repeat(np.arange(m), 2), ev[in_i, 0], ev[in_j, 1],
                          on[inside]])
    t = np.concatenate([np.tile([0.0, 1.0], m), t_i[in_i], t_j[in_j], t_c[inside]])
    at = np.concatenate([node[:2 * m], ev_node[in_i], ev_node[in_j],
                         city_nodes[city[inside]]])
    order = np.lexsort((at, t, seg))
    seg, at = seg[order], at[order]
    step = (seg[1:] == seg[:-1]) & (at[1:] != at[:-1])
    n0, n1 = at[:-1][step], at[1:][step]
    n_nodes = max(len(makers), 1)
    codes = np.sort(np.minimum(n0, n1) * n_nodes + np.maximum(n0, n1))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    edges = np.stack([codes // n_nodes, codes % n_nodes], axis=1).astype(int)
    nodes = X[makers].reshape(-1, 2)
    weights = _hypot(nodes[edges[:, 1], 0] - nodes[edges[:, 0], 0],
                     nodes[edges[:, 1], 1] - nodes[edges[:, 0], 1])
    stats.update(nodes=len(nodes), edges=len(edges))
    return RoutingGraph(nodes=nodes, edges=edges, weights=weights,
                        city_nodes=city_nodes.astype(int), stats=stats)


def _seam_pieces(S: np.ndarray, lo: np.ndarray, side: np.ndarray):
    """Pieces of the lifts S cut at every seam line lo + k * side they
    cross, each moved into the window [lo, lo + side] by the tile holding
    its midpoint, and which of each piece's two ends are cuts.

    A lift may have any length: one as long as the side or longer is cut
    into pieces no longer than the side.  The coordinate a cut puts on a
    seam is set to the window's edge exactly (a + t * d misses it by
    rounding), so both images of a cut point lie on the edges at the same
    height; a cut through a corner sets both.
    """
    m = len(S)
    a, b = S[:, :2], S[:, 2:]
    d = b - a
    low, high = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    lo2, side2 = np.tile(lo, m), np.tile(side, m)
    # the seam lines lo + k * side strictly between the ends, per lift and axis
    k0 = np.floor((low - lo2) / side2)
    row, off = _expand((np.floor((high - lo2) / side2) - k0 + 1).astype(int))
    k = k0[row] + off
    seam = lo2[row] + k * side2[row]
    crosses = (low[row] < seam) & (seam < high[row])
    row, k, seam = row[crosses], k[crosses], seam[crosses]
    lift, axis = row // 2, row % 2
    t = (seam - a[lift, axis]) / d[lift, axis]
    # the points along each lift: its ends and its cuts, cuts at the same t
    # (through a corner) making one point
    owner = np.concatenate([np.arange(m), lift, np.arange(m)])
    at = np.concatenate([np.zeros(m), t, np.ones(m)])
    order = np.lexsort((at, owner))
    new = np.ones(len(order), dtype=bool)
    new[1:] = (owner[order[1:]] != owner[order[:-1]]) | (at[order[1:]] != at[order[:-1]])
    point = np.empty(len(order), dtype=int)
    point[order] = np.cumsum(new) - 1
    owner, at = owner[order[new]], at[order[new]]
    B = np.where((at < 1.0)[:, None], a[owner] + at[:, None] * d[owner], b[owner])
    on, K = np.zeros(B.shape, dtype=bool), np.zeros(B.shape)
    cut = point[m:m + len(t)]
    B[cut, axis], on[cut, axis], K[cut, axis] = seam, True, k
    # a piece between each two consecutive points of a lift
    i = np.flatnonzero(owner[1:] == owner[:-1])
    i = i[(B[i] != B[i + 1]).any(axis=1)]
    P = np.concatenate([B[i], B[i + 1]], axis=1)
    on, K = np.concatenate([on[i], on[i + 1]], axis=1), np.concatenate([K[i], K[i + 1]], axis=1)
    lo, side = np.tile(lo, 2), np.tile(side, 2)
    tile = np.floor((0.5 * (P + P[:, [2, 3, 0, 1]]) - lo) / side)
    # seam line k is the low edge of tile k and the high edge of tile k - 1
    P = np.where(on, np.where(tile == K, lo, lo + side), P - tile * side)
    return P, on.reshape(-1, 2, 2).any(axis=2)


def _images_on_seam_roads(pieces: np.ndarray, points: np.ndarray, lo: np.ndarray,
                          side: np.ndarray, eps: float) -> np.ndarray:
    """The images across a seam of those points within eps of it that fall
    inside a piece running along the opposite edge, placed on that edge."""
    images = [np.empty((0, 2))]
    for c in (0, 1):
        o = 1 - c
        for edge, far in ((lo[c], lo[c] + side[c]), (lo[c] + side[c], lo[c])):
            road = pieces[(np.abs(pieces[:, c] - edge) <= eps)
                          & (np.abs(pieces[:, c + 2] - edge) <= eps)]
            q = points[np.abs(points[:, c] - far) <= eps]
            s0 = np.minimum(road[:, o], road[:, o + 2])[:, None] + eps
            s1 = np.maximum(road[:, o], road[:, o + 2])[:, None] - eps
            q = q[((s0 < q[:, o]) & (q[:, o] < s1)).any(axis=0)]
            q[:, c] = edge
            images.append(q)
    return np.concatenate(images)


def build_torus_arrangement(segments, cities, window, snap_eps: float,
                            junctions: bool = True) -> RoutingGraph:
    """Arrangement of a network on the torus ``window`` as a RoutingGraph.

    ``window`` has the bounds x0, y0, x1, y1 of the torus; each row of
    ``segments`` is a lift of a road, a plane segment whose points stand
    for their images modulo the window; ``cities`` lie in the window.  Each
    lift is cut at the seam lines it crosses and its pieces are moved into
    the window (_seam_pieces).  build_arrangement arranges the pieces, with
    the cut points where no road ends as ``cuts``: in graph mode a cut end
    touching a road that runs along a seam crosses it, as in the plane.
    The nodes within snap_eps of a seam are glued to the nodes of their
    images across it; self-loops left by the gluing are dropped and
    parallel edges keep their shortest weight.  ``stats`` adds seam_points
    (the nodes within snap_eps of a seam) and glued (nodes merged away) to
    the counts of build_arrangement, whose nodes and edges are recounted.
    """
    lo = np.array([window.x0, window.y0], dtype=float)
    side = np.array([window.x1, window.y1], dtype=float) - lo
    pieces, cut = _seam_pieces(np.asarray(segments, dtype=float).reshape(-1, 4), lo, side)
    ends, cut = pieces.reshape(-1, 2), cut.ravel()
    cuts = ends[cut]
    cuts = cuts[~_among(cuts, ends[~cut])]
    # a road that runs along an edge takes a node at the image of every
    # road end and city on the opposite edge
    cities = np.asarray(cities, dtype=float).reshape(-1, 2)
    images = _images_on_seam_roads(pieces, np.concatenate([ends[~cut], cities]),
                                   lo, side, snap_eps)
    g = build_arrangement(pieces, np.concatenate([cities, images]), snap_eps,
                          junctions, cuts=cuts)
    n_nodes = g.n_nodes
    near_lo = np.abs(g.nodes - lo) <= snap_eps
    near_hi = np.abs(g.nodes - lo - side) <= snap_eps
    seam = np.flatnonzero((near_lo | near_hi).any(axis=1))
    # one key per torus point: the far edge's coordinate moves to the near one
    key = np.where(near_hi[seam], g.nodes[seam] - side, g.nodes[seam])
    pairs = seam[cKDTree(key).query_pairs(snap_eps, output_type="ndarray")]
    glue = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                      shape=(n_nodes, n_nodes))
    n_comp, comp = connected_components(glue, directed=False)
    rep = np.full(n_comp, n_nodes)
    np.minimum.at(rep, comp, np.arange(n_nodes))
    rep = rep[comp]  # each node joins the first node of its component
    kept = rep == np.arange(n_nodes)
    label = (np.cumsum(kept) - 1)[rep]
    e = label[g.edges]
    loop = e[:, 0] == e[:, 1]
    e, w = np.sort(e[~loop], axis=1), g.weights[~loop]
    codes = e[:, 0] * n_nodes + e[:, 1]
    order = np.lexsort((w, codes))
    first = order[np.diff(codes[order], prepend=-1) != 0]
    stats = {**g.stats, "seam_points": len(seam), "glued": int(n_nodes - kept.sum()),
             "nodes": int(kept.sum()), "edges": len(first)}
    return RoutingGraph(nodes=g.nodes[kept], edges=e[first], weights=w[first],
                        city_nodes=label[g.city_nodes[:len(cities)]], stats=stats)
