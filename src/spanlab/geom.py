"""Robust planar geometry kernel.

Exact orientation predicates, segment intersection, construction of the
planar arrangement induced by a set of road segments (crossings become
junction nodes), and shortest-route queries on the resulting graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

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
    # fall back to exact evaluation
    px, py = Fraction(p[0]), Fraction(p[1])
    qx, qy = Fraction(q[0]), Fraction(q[1])
    rx, ry = Fraction(r[0]), Fraction(r[1])
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
    Immutable after construction; the sparse matrix is built once and
    each per-source search runs afresh.
    """

    nodes: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    city_nodes: np.ndarray
    _csr: csr_matrix | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_length(self) -> float:
        return float(self.weights.sum())

    def _matrix(self) -> csr_matrix:
        if self._csr is None:
            n = self.n_nodes
            if len(self.edges):
                i = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
                j = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
                w = np.concatenate([self.weights, self.weights])
            else:
                i = j = np.empty(0, dtype=int)
                w = np.empty(0)
            self._csr = csr_matrix((w, (i, j)), shape=(n, n))
        return self._csr

    def distances_from(self, city: int) -> tuple[np.ndarray, np.ndarray]:
        """All-node shortest-path distances (and predecessors) from a city.

        The matrix holds both directions of every edge, so a directed
        search gives the undirected distances without the transposed copy
        that ``directed=False`` makes on every call.
        """
        if not 0 <= city < len(self.city_nodes):
            raise KeyError(f"unknown city index {city}")
        return dijkstra(self._matrix(), directed=True,
                        indices=self.city_nodes[city], return_predecessors=True)


def shortest_route(g: RoutingGraph, src: int, dst: int) -> tuple[float, list[int]]:
    """Exact shortest route length and node path between two cities.

    Returns (+inf, []) for an unreachable pair.
    """
    if not 0 <= dst < len(g.city_nodes):
        raise KeyError(f"unknown city index {dst}")
    dist, pred = g.distances_from(src)
    target = g.city_nodes[dst]
    length = float(dist[target])
    if math.isinf(length):
        return length, []
    path = [int(target)]
    start = g.city_nodes[src]
    while path[-1] != start:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return length, path


# ---------------------------------------------------------------------------
# arrangement construction
# ---------------------------------------------------------------------------


class _NodeRegistry:
    """Merges points within snap_eps to a single node, deterministically."""

    def __init__(self, snap_eps: float):
        self.eps = snap_eps
        self.coords: list[Point] = []
        self._grid: dict[tuple[int, int], list[int]] = {}

    def _key(self, p: Point) -> tuple[int, int]:
        return (int(math.floor(p[0] / self.eps)), int(math.floor(p[1] / self.eps)))

    def insert(self, p: Point) -> int:
        kx, ky = self._key(p)
        best = -1
        best_d = self.eps
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self._grid.get((kx + dx, ky + dy), ()):
                    q = self.coords[idx]
                    d = math.hypot(p[0] - q[0], p[1] - q[1])
                    if d <= best_d:
                        best_d = d
                        best = idx
        if best >= 0:
            return best
        idx = len(self.coords)
        self.coords.append(p)
        self._grid.setdefault((kx, ky), []).append(idx)
        return idx


def _cells_of_segment(a: Point, b: Point, cell: float, pad: float = 0.0):
    """Grid cells traversed by segment (a, b), grown by ``pad`` units.

    Exact column sweep along the dominant axis: for each grid column the
    segment crosses, the rows spanned by its y-range in that column are
    enumerated.  ``pad`` absorbs rounding at cell boundaries and the node
    snap tolerance.
    """
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


def _segment_buckets(segments: list[Segment], cell: float, pad: float = 0.0):
    """Grid cell -> indices of the segments passing through it."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, s in enumerate(segments):
        for c in _cells_of_segment(s.a, s.b, cell, pad):
            buckets.setdefault(c, []).append(idx)
    return buckets


def _candidate_pairs(buckets: dict[tuple[int, int], list[int]]) -> np.ndarray:
    """Sorted unique (k, 2) array of the index pairs i < j sharing a bucket.

    Bucket members are ascending, as _segment_buckets appends them.
    """
    by_size: dict[int, list[list[int]]] = {}
    for members in buckets.values():
        if len(members) > 1:
            by_size.setdefault(len(members), []).append(members)
    codes = [np.empty(0, dtype=np.int64)]
    for size, rows in by_size.items():
        m = np.array(rows, dtype=np.int64)
        i, j = np.triu_indices(size, 1)
        codes.append((m[:, i] * 2**32 + m[:, j]).ravel())
    # sort and diff: np.unique hashes integers in numpy 2.x, about 10x
    # slower on these codes
    codes = np.sort(np.concatenate(codes))
    codes = codes[np.diff(codes, prepend=-1) != 0]  # codes are >= 0
    return np.stack([codes >> 32, codes & (2**32 - 1)], axis=1)


def _pair_arrays(segments: list[Segment], pairs):
    """Endpoint arrays (A, B) and (C, D) for a (k, 2) array of index pairs."""
    S = np.array([[s.a[0], s.a[1], s.b[0], s.b[1]] for s in segments])
    P = np.asarray(pairs, dtype=int).reshape(-1, 2)
    return P, S[P[:, 0], 0:2], S[P[:, 0], 2:4], S[P[:, 1], 0:2], S[P[:, 1], 2:4]


def _filtered_cross(u: np.ndarray, v: np.ndarray):
    """Cross products of row vectors with a floating-point error bound."""
    t1 = u[:, 0] * v[:, 1]
    t2 = u[:, 1] * v[:, 0]
    return t1 - t2, _ORIENT_ERRBOUND * (np.abs(t1) + np.abs(t2))


def _shares_endpoint(A, B, C, D) -> np.ndarray:
    """Rows where segment (A, B) and segment (C, D) share an endpoint exactly."""
    return (A == C).all(1) | (A == D).all(1) | (B == C).all(1) | (B == D).all(1)


def _intersection_events(segments: list[Segment], pairs):
    """(i, j, point) for candidate pairs meeting in a single point.

    A vectorized orientation filter settles the bulk of the pairs: pairs
    whose four orientations are all decisively nonzero either cross
    properly (intersection solved in floats) or miss entirely.  Pairs the
    filter cannot decide and that share no endpoint go through the exact
    predicate path.  Collinear overlaps (already merged away upstream)
    produce no event.
    """
    if not len(pairs):
        return []
    P, A, B, C, D = _pair_arrays(segments, pairs)
    r = B - A
    s = D - C
    d1, e1 = _filtered_cross(r, C - A)
    d2, e2 = _filtered_cross(r, D - A)
    d3, e3 = _filtered_cross(s, A - C)
    d4, e4 = _filtered_cross(s, B - C)
    decisive = ((np.abs(d1) > e1) & (np.abs(d2) > e2)
                & (np.abs(d3) > e3) & (np.abs(d4) > e4))
    proper = decisive & ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    events = []
    idx = np.flatnonzero(proper)
    if len(idx):
        denom = r[idx, 0] * s[idx, 1] - r[idx, 1] * s[idx, 0]
        t = ((C[idx, 0] - A[idx, 0]) * s[idx, 1]
             - (C[idx, 1] - A[idx, 1]) * s[idx, 0]) / denom
        hx = A[idx, 0] + t * r[idx, 0]
        hy = A[idx, 1] + t * r[idx, 1]
        for n, k in enumerate(idx):
            events.append((int(P[k, 0]), int(P[k, 1]),
                           (float(hx[n]), float(hy[n]))))
    # A pair sharing an endpoint bit-for-bit meets only there.  Exact and
    # reversed duplicates were dropped and collinear overlaps merged by
    # _merge_overlaps (an overlap would give a Segment, hence no event), so
    # the pair is non-collinear, with one common point, or collinear end to
    # end.  segment_intersection would return the shared point, which is
    # already a node of both segments: _point_segment_distance gives it
    # t = 0.0 or t = 1.0 exactly, so its event would insert no node and
    # split nothing.  The topology settles these pairs.
    for k in np.flatnonzero(~decisive & ~_shares_endpoint(A, B, C, D)):
        hit = segment_intersection(segments[P[k, 0]], segments[P[k, 1]])
        if hit is not None and not isinstance(hit, Segment):
            events.append((int(P[k, 0]), int(P[k, 1]), hit))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def _near_collinear_pairs(segments: list[Segment], pairs):
    """Subset of candidate pairs that could be collinear.

    Keeps a pair whenever the directions are not decisively non-parallel
    or one endpoint is not decisively off the other's line; exactly
    collinear pairs always survive because their true determinants are
    zero and thus inside the filter's error band.
    """
    if not len(pairs):
        return []
    P, A, B, C, D = _pair_arrays(segments, pairs)
    dpar, epar = _filtered_cross(B - A, D - C)
    dlin, elin = _filtered_cross(B - A, C - A)
    keep = (np.abs(dpar) <= epar) & (np.abs(dlin) <= elin)
    return [tuple(map(int, P[k])) for k in np.flatnonzero(keep)]


def _merge_overlaps(segments: list[Segment], cell: float) -> list[Segment]:
    """Union collinear overlapping segments so shared geometry counts once."""
    segs = list(segments)
    for _ in range(32):
        changed = False
        pairs = _near_collinear_pairs(
            segs, _candidate_pairs(_segment_buckets(segs, cell, 1e-9 * cell)))
        merged_away: set[int] = set()
        for i, j in pairs:
            if i in merged_away or j in merged_away:
                continue
            hit = segment_intersection(segs[i], segs[j])
            if isinstance(hit, Segment):
                # union of the two collinear segments
                pts = [segs[i].a, segs[i].b, segs[j].a, segs[j].b]
                axis = 0 if abs(segs[i].b[0] - segs[i].a[0]) >= abs(
                    segs[i].b[1] - segs[i].a[1]
                ) else 1
                lo = min(pts, key=lambda p: p[axis])
                hi = max(pts, key=lambda p: p[axis])
                segs[i] = Segment(lo, hi)
                merged_away.add(j)
                changed = True
        if merged_away:
            segs = [s for k, s in enumerate(segs) if k not in merged_away]
        if not changed:
            return segs
    raise RuntimeError("overlap merging did not converge")


def _point_segment_distance(p: Point, s: Segment) -> tuple[float, float]:
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


def build_arrangement(
    segments,
    cities,
    snap_eps: float | None = None,
    junctions: bool = True,
) -> RoutingGraph:
    """Planar subdivision of a segment set as a RoutingGraph.

    Nodes are segment endpoints, pairwise proper intersections (when
    ``junctions`` is True) and cities; points within snap_eps merge to one
    node; collinear overlaps are deduplicated before splitting.  With
    ``junctions=False`` crossings stay geometrically present but carry no
    node, giving graph-network (endpoint-only) semantics.
    """
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

    # drop degenerate and exactly duplicated segments
    seen = set()
    uniq: list[Segment] = []
    for s in segs:
        if s.a == s.b:
            continue
        key = (min(s.a, s.b), max(s.a, s.b))
        if key in seen:
            continue
        seen.add(key)
        uniq.append(s)
    segs = uniq

    if segs:
        mean_len = sum(s.length for s in segs) / len(segs)
        cell = max(mean_len, 16 * snap_eps)
    else:
        cell = 1.0

    segs = _merge_overlaps(segs, cell)

    registry = _NodeRegistry(snap_eps)
    splits: list[list[tuple[float, int]]] = []
    for s in segs:
        splits.append([(0.0, registry.insert(s.a)), (1.0, registry.insert(s.b))])

    # pairwise intersections and endpoint touches
    pad = max(snap_eps, 1e-9 * cell)
    seg_buckets = _segment_buckets(segs, cell, pad)
    pairs = _candidate_pairs(seg_buckets)
    for i, j, hit in _intersection_events(segs, pairs):
        d_i, t_i = _point_segment_distance(hit, segs[i])
        d_j, t_j = _point_segment_distance(hit, segs[j])
        interior_i = snap_eps < t_i * segs[i].length < segs[i].length - snap_eps
        interior_j = snap_eps < t_j * segs[j].length < segs[j].length - snap_eps
        if not junctions and interior_i and interior_j:
            continue  # proper crossing carries no node in graph mode
        node = registry.insert(hit)
        if interior_i:
            splits[i].append((t_i, node))
        if interior_j:
            splits[j].append((t_j, node))

    # attach cities
    city_nodes = np.empty(len(cities), dtype=int)
    for ci, c in enumerate(cities):
        node = registry.insert(c)
        city_nodes[ci] = node
        ckey = (int(math.floor(c[0] / cell)), int(math.floor(c[1] / cell)))
        cands = seg_buckets.get(ckey, [])
        attached = False
        for si in cands:
            d, t = _point_segment_distance(c, segs[si])
            if d <= snap_eps:
                attached = True
                if snap_eps < t * segs[si].length < segs[si].length - snap_eps:
                    splits[si].append((t, node))
                # endpoint coincidence already merged by the registry
        if not attached and segs:
            # node may coincide with an existing endpoint/junction node
            endpoint_hit = any(
                registry.insert(s.a) == node or registry.insert(s.b) == node
                for s in (segs[si] for si in cands)
            )
            if not endpoint_hit:
                raise DisconnectedCityError(
                    f"disconnected city: city {ci} at {c} lies farther than "
                    f"{snap_eps:g} from every segment"
                )
        if not segs and len(cities) > 1:
            raise DisconnectedCityError("disconnected city: empty segment set")

    # split each segment at its sorted nodes
    edge_weights: dict[tuple[int, int], float] = {}
    coords = registry.coords
    for si, s in enumerate(segs):
        parts = sorted(set(splits[si]))
        for (t0, n0), (t1, n1) in zip(parts, parts[1:]):
            if n0 == n1:
                continue
            p0, p1 = coords[n0], coords[n1]
            w = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
            key = (min(n0, n1), max(n0, n1))
            edge_weights[key] = w

    nodes = np.array(coords, dtype=float).reshape(-1, 2)
    if edge_weights:
        edges = np.array(sorted(edge_weights), dtype=int)
        weights = np.array([edge_weights[tuple(e)] for e in edges])
    else:
        edges = np.empty((0, 2), dtype=int)
        weights = np.empty(0)
    return RoutingGraph(nodes=nodes, edges=edges, weights=weights, city_nodes=city_nodes)
