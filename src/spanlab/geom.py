"""Robust planar geometry kernel.

Exact orientation predicates, segment intersection, construction of the
arrangement of a set of road segments on the plane or a torus (crossings
become junction nodes), and shortest-path distances on the resulting graph.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
# scipy is imported where it is used, so that a process that never builds or
# routes a network (closed forms, the crossing model) does not pay to load it.
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

Point = tuple[float, float]

# _filtered_cross's error bound for the 2x2 determinant, from float64 epsilon
_ORIENT_ERRBOUND = 4.0 * np.finfo(float).eps

# Most segment pairs a pair stage of build_arrangement holds at once.  At
# about 170 bytes a pair a block peaks near 11 MiB, so the arrangement's
# transient memory follows the block and the node count, not the pair count.
_PAIR_BLOCK = 1 << 16

# Fewest sources x graph nodes worth a search process: about twice the 5-6 ms
# fork and reap of an 85 MiB process, at 150-230 ns a node (2-core x86-64).
_SPLIT_WORK = 1 << 16

# Most chunks a block's rows are dealt in: 2 KiB of 2-byte chunk numbers, which
# one write puts in a fresh pipe (PIPE_BUF is 4 KiB on Linux).
_DEALS = 1 << 10


class Segment(NamedTuple):
    a: Point
    b: Point

    @property
    def length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])


class DisconnectedCityError(ValueError):
    """A city's node carries no road: no edge of the arrangement ends there."""


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of twice the signed area of triangle (p, q, r).

    Returns +1 for counterclockwise, -1 for clockwise, 0 for collinear,
    evaluated exactly.  It has no float filter of its own: build_arrangement
    filters its pairs in bulk and sends only those it cannot settle to
    segment_intersection.
    """
    # each coordinate is a ratio of integers (a float's denominator is a
    # power of two), so scaling all six by the common denominator gives
    # integers
    ratios = [v.as_integer_ratio() if type(v) is float else Fraction(v).as_integer_ratio()
              for v in (*p, *q, *r)]
    den = math.lcm(*(d for _, d in ratios))
    px, py, qx, qy, rx, ry = (n * (den // d) for n, d in ratios)
    exact = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (exact > 0) - (exact < 0)


def _on_segment_collinear(p: Point, q: Point, r: Point) -> bool:
    """Assuming q collinear with segment (p, r): is q inside the closed segment?"""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def _along(points):
    """Sort key ordering collinear points along their line: by x where the
    points spread at least as far in x as in y, else by y."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    axis = 0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1
    return lambda p: p[axis]


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
        # collinear: overlap along the line
        along = _along((a, b, c, d))
        lo1, hi1 = sorted((a, b), key=along)
        lo2, hi2 = sorted((c, d), key=along)
        lo, hi = max(lo1, lo2, key=along), min(hi1, hi2, key=along)
        if along(lo) > along(hi):
            return None
        if along(lo) == along(hi):
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
    rows, or seam pieces), overlap_rounds (passes over the candidate pairs:
    1, or 2 when the first merged), candidate_pairs (pairs of the merged
    segments sharing a grid cell whose bounding boxes meet), exact_pairs
    (those of them sent to segment_intersection: the float filter cannot
    settle them, and they share no endpoint or could be collinear), snapped
    (points merged into a node at nonzero distance), on a torus seam_points
    (nodes within snap_eps of a seam) and glued (nodes merged away), and the
    routed nodes and edges.
    Immutable after construction; the sparse matrix is built once, and
    distances_from_each maps a row function over a block of searches split
    over the usable CPUs.
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
            from scipy.sparse import csr_matrix
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
        from scipy.sparse.csgraph import dijkstra
        return dijkstra(self._matrix(), directed=True, indices=self.city_nodes[city])

    def distances_from_each(self, cities, width: int, row) -> np.ndarray:
        """A (len(cities), width) float block whose row r is row(r, distances_from(cities[r])).

        Rows are dealt on demand, in chunks, from a pipe.  Once the matrix is
        built, forked children (one per further usable CPU, each with at least
        _SPLIT_WORK sources x nodes) draw them beside this process, write each
        row into a shared mmap and mark it done; this process redoes the rows
        not marked once the children are reaped.  With no os.fork, one CPU or a
        small block it draws every row in order.  A row is the same scipy call
        and row function wherever it runs, so results are bit-identical.
        """
        if bad := [c for c in cities if not 0 <= c < len(self.city_nodes)]:
            raise KeyError(f"unknown city index {bad[0]}")
        import scipy.sparse.csgraph  # noqa: F401  (imported once here, not in each child)
        self._matrix()
        k = len(cities)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1) if hasattr(os, "fork") else 1
        parts = max(1, min(cpus, k, k * self.n_nodes // _SPLIT_WORK))
        shared = mmap.mmap(-1, 8 * k * width + k or 1)
        out = np.frombuffer(shared, float, k * width).reshape(k, width)
        done = np.frombuffer(shared, np.uint8, k, offset=8 * k * width)
        # every chunk number is in the pipe, its write end closed, before any fork:
        # a 2-byte read draws one chunk, an empty read means all are drawn
        size = -(-k // _DEALS) or 1
        deals, feed = os.pipe()
        os.write(feed, np.arange(-(-k // size), dtype="<u2").tobytes())
        os.close(feed)

        def fill(rows):
            for r in rows:
                out[r] = row(r, self.distances_from(cities[r]))
                done[r] = 1

        def drawn():
            while chunk := os.read(deals, 2):
                lo = int.from_bytes(chunk, "little") * size
                yield from range(lo, min(k, lo + size))

        children = []
        try:
            for _ in range(parts - 1):
                # The child runs only scipy's Dijkstra, the row function's numpy
                # arithmetic and pipe reads, and leaves by os._exit, taking no lock
                # another thread may hold (no BLAS, buffered I/O or import): safe
                # where Python 3.12+ warns of fork.
                if (pid := os.fork()) == 0:
                    try:
                        fill(drawn())
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
                children.append(pid)
            fill(drawn())
        except BaseException:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid in children:
                os.waitpid(pid, 0)
            os.close(deals)
        fill(np.flatnonzero(done == 0).tolist())  # the rows a failed child drew
        return out


# ---------------------------------------------------------------------------
# arrangement construction
# ---------------------------------------------------------------------------
#
# Every stage works on an (m, 4) float array of segments (x1, y1, x2, y2).
# Segment lengths, snap distances and edge weights are rounded as math.hypot
# rounds them: np.hypot differs from it in the last bit on about 0.6% of
# inputs, which would move snapping decisions and returned weights.


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """math.hypot of each (dx, dy) pair of two 1-D float arrays.

    A memoryview yields the elements as Python floats one at a time, so no
    list of them is built.
    """
    return np.fromiter(map(math.hypot, memoryview(dx), memoryview(dy)), dtype=float,
                       count=len(dx))


def _lengths(S: np.ndarray) -> np.ndarray:
    return _hypot(S[:, 2] - S[:, 0], S[:, 3] - S[:, 1])


def _expand(counts: np.ndarray):
    """(owner, offset) of every item when row r expands into counts[r] items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - start[owner]


def _groups(keys: np.ndarray):
    """Group the rows of keys, a 1-D array or an (n, c) array compared row by
    row, by exact key: rows are equal where == says so (-0.0 and 0.0 are one
    key).  Returns the first row of each group, groups in key order, and the
    group of every row.  The sort is stable, so a group's first row is its
    earliest."""
    K = keys[:, None] if keys.ndim == 1 else keys
    order = np.lexsort(K.T[::-1])
    K = K[order]
    new = np.ones(len(K), dtype=bool)
    new[1:] = (K[1:] != K[:-1]).any(axis=1)
    group = np.empty(len(K), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


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


def _pair_blocks(seg: np.ndarray, cx: np.ndarray, cy: np.ndarray):
    """The segment pairs i < j sharing a cell, from the (segment, cell x,
    cell y) rows of _segment_cells, as sorted unique (k, 2) blocks.

    A block holds every pair of a run of lower segments i, so the blocks
    come in sorted order and a pair sharing several cells is in one block.
    A block comes from at most _PAIR_BLOCK listings (one per pair and shared
    cell), or from one segment's listings when those alone exceed that.
    """
    order = np.lexsort((seg, cy, cx))
    seg, cx, cy = seg[order], cx[order], cy[order]
    # row r pairs with the rows after it in its cell, up to row end[r]
    bounds = np.flatnonzero(np.append((cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1]), True)) + 1
    end = np.repeat(bounds, np.diff(bounds, prepend=0))
    del order, cx, cy, bounds  # the blocks read seg and end only
    rows = np.argsort(seg, kind="stable")  # each segment's rows together
    lo = np.searchsorted(seg, np.arange(seg.max(initial=-1) + 2), sorter=rows)
    before = np.append(0, np.cumsum(end[rows] - rows - 1))[lo]  # listings before each
    s = 0
    while s < len(lo) - 1:
        t = max(int(np.searchsorted(before, before[s] + _PAIR_BLOCK, "right")) - 1, s + 1)
        yield _listed_pairs(seg, end, rows[lo[s]:lo[t]])
        s = t


def _listed_pairs(seg: np.ndarray, end: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The block of rows r of _pair_blocks, built apart so that the
    generator's frame keeps no block while its consumer holds one."""
    first, off = _expand(end[r] - r - 1)
    first = r[first]
    # a segment is listed once per cell and ascending within it, so i < j
    codes = np.sort(seg[first] * 2**32 + seg[first + 1 + off])
    codes = codes[np.diff(codes, prepend=-1) != 0]  # codes are >= 0
    return np.stack([codes >> 32, codes & (2**32 - 1)], axis=1)


def _boxes_meet(S: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The rows of the (k, 2) index pairs P, in order, whose segments' closed
    bounding boxes meet: disjoint boxes neither cross, touch nor overlap."""
    x0, y0 = np.minimum(S[:, 0], S[:, 2]), np.minimum(S[:, 1], S[:, 3])
    x1, y1 = np.maximum(S[:, 0], S[:, 2]), np.maximum(S[:, 1], S[:, 3])
    i, j = P[:, 0].copy(), P[:, 1].copy()
    return P[(x0[i] <= x1[j]) & (x0[j] <= x1[i]) & (y0[i] <= y1[j]) & (y0[j] <= y1[i])]


def _pair_arrays(S: np.ndarray, P: np.ndarray):
    """The eight 1-D coordinate arrays ax, ay, bx, by, cx, cy, dx, dy of the
    (k, 2) index pairs P: segment P[:, 0] runs from a to b, P[:, 1] from c to d."""
    cols = np.ascontiguousarray(S.T)
    i, j = P[:, 0].copy(), P[:, 1].copy()
    return [c[i] for c in cols] + [c[j] for c in cols]


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


def _block_events(S: np.ndarray, P: np.ndarray):
    """The rows of the (k, 2) index pairs P, in order, meeting in a single
    point, the (k, 2) meeting points, the number of pairs sent to
    segment_intersection, and the pairs of P, in order, that overlap.

    A vectorized orientation filter settles the bulk of the pairs: pairs
    whose four orientations are all decisively nonzero either cross
    properly (intersection solved in floats) or miss entirely.  Each pair
    it cannot settle goes to segment_intersection once, if it shares no
    endpoint or could be collinear: its directions are not decisively
    non-parallel and c not decisively off the line ab, as for every exactly
    collinear pair, whose true determinants are zero.  A Segment returned
    is an overlap, and a point an event unless the pair shares an endpoint.
    """
    ax, ay, bx, by, cx, cy, dx, dy = E = _pair_arrays(S, P)
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    d1, decisive = _filtered_cross(rx, ry, cx - ax, cy - ay)
    near = ~decisive & ~_filtered_cross(rx, ry, sx, sy)[1]
    d2, sure = _filtered_cross(rx, ry, dx - ax, dy - ay)
    decisive &= sure
    d3, sure = _filtered_cross(sx, sy, ax - cx, ay - cy)
    decisive &= sure
    d4, sure = _filtered_cross(sx, sy, bx - cx, by - cy)
    decisive &= sure
    k = np.flatnonzero(decisive & ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)))
    ax, ay, cx, cy, rx, ry, sx, sy = (v[k] for v in (ax, ay, cx, cy, rx, ry, sx, sy))
    t = ((cx - ax) * sy - (cy - ay) * sx) / (rx * sy - ry * sx)
    rows, hits, overlaps = [k], [np.column_stack([ax + t * rx, ay + t * ry])], []
    # Two segments sharing an endpoint exactly meet, unless they overlap,
    # only there, which is already a node of both: _project puts it at
    # t = 0.0 or 1.0 exactly, so its event would split nothing.
    shared = _shares_endpoint(*E)
    exact = np.flatnonzero(~decisive & (near | ~shared))
    for row, end, (x1, y1, x2, y2, x3, y3, x4, y4) in zip(
            exact.tolist(), shared[exact].tolist(), S[P[exact]].reshape(-1, 8).tolist()):
        hit = segment_intersection(Segment((x1, y1), (x2, y2)), Segment((x3, y3), (x4, y4)))
        if isinstance(hit, Segment):
            overlaps.append(row)
        elif hit is not None and not end:
            rows.append([row])
            hits.append(np.array([hit], dtype=float))
    rows, hits = np.concatenate(rows), np.concatenate(hits)
    order = np.argsort(rows, kind="stable")
    return P[rows[order]], hits[order], len(exact), P[np.array(overlaps, dtype=int)]


def _merge_overlaps(S: np.ndarray, cell: float, pad: float, stats: dict):
    """Union collinear overlapping segments so shared geometry counts once,
    and find where the merged segments meet.

    A pass feeds _block_events the blocks of candidate pairs, those sharing
    a cell grown by ``pad`` whose bounding boxes meet, as overlapping
    segments' do.  The overlapping pairs it returns join into connected
    components, each merged into its lowest row.  A segment overlapping a
    union overlaps one of its members, so a second pass, run only when the
    first merged, finds the events and merges nothing.  Returns the merged
    (m', 4) array, the events and their meeting points, and counts
    overlap_rounds (passes), exact_pairs and candidate_pairs of the last
    pass in ``stats``.
    """
    from scipy.sparse import csgraph, csr_matrix
    S = S.copy()
    for rounds in (1, 2):
        found, kept = [_block_events(S, np.empty((0, 2), dtype=np.int64))], 0
        for P in _pair_blocks(*_segment_cells(S, cell, pad)):
            P = _boxes_meet(S, P)
            found.append(_block_events(S, P))
            kept += len(P)
        ev, hits, exact, overlaps = zip(*found)
        pairs = np.concatenate(overlaps)
        if rounds == 2 or not len(pairs):
            stats.update(overlap_rounds=rounds, exact_pairs=sum(exact), candidate_pairs=kept)
            return S, np.concatenate(ev), np.concatenate(hits)
        i, j = pairs.T
        comp = csgraph.connected_components(
            csr_matrix((np.ones(len(i)), (i, j)), shape=(len(S),) * 2), directed=False)[1]
        rows = np.unique(pairs)  # each component's rows together, lowest first
        rows = rows[np.argsort(comp[rows], kind="stable")]
        first = np.flatnonzero(np.diff(comp[rows], prepend=-1))
        for members in np.split(rows, first[1:]):
            pts = [tuple(p) for p in S[members].reshape(-1, 2).tolist()]
            S[members[0]] = (*min(pts, key=_along(pts)), *max(pts, key=_along(pts)))
        S = np.delete(S, np.delete(rows, first), axis=0)


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


def _snap_nodes(X: np.ndarray, eps: float):
    """Nodes of the points of X inserted in order, merging within eps.

    Each point joins the nearest node made so far at a math.hypot distance
    of at most eps, a tie going to the earliest node, or makes a new node
    at its own coordinates.  Returns the node of every point and, per node,
    the row of X that made it.

    Only points that some distinct point comes near need that rule: a
    point otherwise joins the node made by the first equal point.  The
    near points (within a radius safely above eps of a distinct point, so
    that every node within eps of one was made at one of its near
    partners) are replayed in order, against the nodes made at their own
    point and at their partners.
    """
    from scipy.spatial import cKDTree
    first, uid = _groups(X)  # the earliest row of each point
    maker = first[uid]
    near = cKDTree(X[first]).query_pairs(eps * (1.0 + 1e-6), output_type="ndarray")
    partners = {}  # near point -> the distinct points near it
    for u, v in near.tolist():
        partners.setdefault(u, []).append(v)
        partners.setdefault(v, []).append(u)
    rows = np.flatnonzero(np.isin(uid, near))
    made, picks = {}, []  # near point -> (row, x, y) of the node made there
    for row, u, (x, y) in zip(rows.tolist(), uid[rows].tolist(), X[rows].tolist()):
        if u in made:  # the node an equal point made, at distance 0
            picks.append(made[u][0])
            continue
        d, pick = min(((math.hypot(x - px, y - py), r) for r, px, py in
                       (made[v] for v in partners[u] if v in made)), default=(math.inf, row))
        if d > eps:
            made[u], pick = (row, x, y), row
        picks.append(pick)
    maker[rows] = picks
    makes = maker == np.arange(len(X))
    node = (np.cumsum(makes) - 1)[maker]
    return node, np.flatnonzero(makes)


def _attach_cities(S, length, cities, cell: float, pad: float, snap_eps: float):
    """Each city against the segments listed in its grid cell: the (segment,
    t, city) splits of the cities inside a segment."""
    seg_of, cx, cy = _segment_cells(S, cell, pad)
    code = _groups(np.concatenate([np.column_stack([cx, cy]), _cell_index(cities, cell)]))[1]
    by_cell = np.argsort(code[:len(cx)], kind="stable")
    sorted_code, city_code = code[:len(cx)][by_cell], code[len(cx):]
    lo = np.searchsorted(sorted_code, city_code, "left")
    city, off = _expand(np.searchsorted(sorted_code, city_code, "right") - lo)
    on = seg_of[by_cell][lo[city] + off]
    t_c, qx, qy = _project(cities[city, 0], cities[city, 1], S[on])
    dx, dy = cities[city, 0] - qx, cities[city, 1] - qy
    # hypot is at least max(|dx|, |dy|): only the rest can be near
    near = (np.abs(dx) <= snap_eps) & (np.abs(dy) <= snap_eps)
    near[near] = _hypot(dx[near], dy[near]) <= snap_eps
    inside = near & _interior(t_c, length[on], snap_eps)
    return on[inside], t_c[inside], city[inside]


def _split_edges(seg: np.ndarray, t: np.ndarray, at: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sorted unique (lo, hi) edges joining the nodes at[k], at parameter
    t[k] along segment seg[k], in (t, node) order along each segment."""
    order = np.lexsort((at, t, seg))
    seg, at = seg[order], at[order]
    del t, order  # the steps read only the sorted seg and at
    step = (seg[1:] == seg[:-1]) & (at[1:] != at[:-1])
    n0, n1 = at[:-1][step], at[1:][step]
    codes = np.sort(np.minimum(n0, n1) * n_nodes + np.maximum(n0, n1))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return np.stack([codes // n_nodes, codes % n_nodes], axis=1).astype(int)


def build_arrangement(
    segments,
    cities,
    snap_eps: float | None = None,
    junctions: bool = True,
    window=None,
) -> RoutingGraph:
    """Planar subdivision of a segment set as a RoutingGraph.

    ``segments`` is an (m, 4) array of x1, y1, x2, y2 rows, or anything
    numpy reshapes to one, such as a list of point pairs; ``cities`` an
    (n, 2) array of points.  Nodes are segment endpoints, pairwise proper
    intersections (when ``junctions`` is True) and cities, inserted in that
    order.  A point joins the nearest node made before it at a math.hypot
    distance of at most snap_eps, a tie going to the earliest node, and
    otherwise makes a node.  Collinear overlaps are deduplicated before
    splitting.  With ``junctions=False`` crossings stay geometrically
    present but carry no node, giving graph-network (endpoint-only)
    semantics.

    With ``window`` (bounds x0, y0, x1, y1) each segment is a lift of a road
    on that torus and the cities lie in the window.  The lifts are cut at
    the seams and moved into the window (_seam_pieces), the pieces arranged,
    and the nodes within snap_eps of a seam glued to their images across it,
    dropping self-loops and keeping the shortest of parallel edges.

    A city whose node lies in no edge of the graph that routes (glued, on a
    torus) raises DisconnectedCityError, unless the graph has no edge and
    no other city.  The stages count their work in ``stats``.
    """
    S = np.asarray(segments, dtype=float).reshape(-1, 4)
    cities = np.asarray(cities, dtype=float).reshape(-1, 2)
    if snap_eps is None:
        pts = np.concatenate([S.reshape(-1, 2), cities])
        diam = math.hypot(*(pts.max(0) - pts.min(0)).tolist()) if len(pts) else 1.0
        snap_eps = max(1e-9 * diam, 1e-300)
    if window is None:
        g = _planar_arrangement(S, cities, snap_eps, junctions)
    else:
        g = _torus_arrangement(S, cities, window, snap_eps, junctions)
    lonely = np.bincount(g.edges.ravel(), minlength=g.n_nodes)[g.city_nodes] == 0
    if lonely.any() and (len(g.edges) or len(cities) > 1):
        k = int(np.argmax(lonely))
        raise DisconnectedCityError(f"disconnected city: the node of city {k} at "
                                    f"{tuple(cities[k].tolist())} carries no road")
    return g


def _planar_arrangement(S: np.ndarray, cities: np.ndarray, snap_eps: float,
                        junctions: bool, cuts=None) -> RoutingGraph:
    """build_arrangement's stages on the plane.  A segment end at one of the
    points ``cuts`` (where a road was cut without ending, given in graph
    mode only) touching another segment's interior carries no node."""
    stats = {"segments_in": len(S)}

    # drop degenerate and exactly duplicated segments, keeping the first
    # of each in input order
    S = S[(S[:, :2] != S[:, 2:]).any(axis=1)]
    a_first = (S[:, 0] < S[:, 2]) | ((S[:, 0] == S[:, 2]) & (S[:, 1] < S[:, 3]))
    S = S[np.sort(_groups(np.where(a_first[:, None], S, S[:, [2, 3, 0, 1]]))[0])]

    cell = max(sum(_lengths(S).tolist()) / len(S), 16 * snap_eps) if len(S) else 1.0
    pad = max(snap_eps, 1e-9 * cell)
    S, ev, hits = _merge_overlaps(S, cell, pad, stats)
    m = len(S)
    length = _lengths(S)
    # pairwise intersections and endpoint touches; a proper crossing
    # carries no node in graph mode
    t_i = _project(hits[:, 0], hits[:, 1], S[ev[:, 0]])[0]
    t_j = _project(hits[:, 0], hits[:, 1], S[ev[:, 1]])[0]
    in_i = _interior(t_i, length[ev[:, 0]], snap_eps)
    in_j = _interior(t_j, length[ev[:, 1]], snap_eps)
    keep = junctions | ~(in_i & in_j)
    if cuts is not None:
        keep &= ~(in_j & _among(_end_near(S[ev[:, 0]], t_i), cuts))
        keep &= ~(in_i & _among(_end_near(S[ev[:, 1]], t_j), cuts))
    ev, hits, t_i, t_j, in_i, in_j = (v[keep] for v in (ev, hits, t_i, t_j, in_i, in_j))

    on, t_c, city = _attach_cities(S, length, cities, cell, pad, snap_eps)

    X = np.concatenate([S.reshape(-1, 2), hits, cities])
    node, makers = _snap_nodes(X, snap_eps)
    stats["snapped"] = int((X[makers][node] != X).any(axis=1).sum())
    ev_node, city_nodes = node[2 * m:2 * m + len(hits)], node[2 * m + len(hits):]

    # split each segment at its ends, its events and the cities inside it
    edges = _split_edges(
        np.concatenate([np.repeat(np.arange(m), 2), ev[in_i, 0], ev[in_j, 1], on]),
        np.concatenate([np.tile([0.0, 1.0], m), t_i[in_i], t_j[in_j], t_c]),
        np.concatenate([node[:2 * m], ev_node[in_i], ev_node[in_j], city_nodes[city]]),
        max(len(makers), 1))
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
    first, point = _groups(np.column_stack([owner, at]))
    owner, at = owner[first], at[first]
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


def _torus_arrangement(S: np.ndarray, cities: np.ndarray, window, snap_eps: float,
                       junctions: bool) -> RoutingGraph:
    """build_arrangement's stages on the torus ``window``: the seam pieces of
    the lifts S arranged, then glued; ``stats`` adds seam_points and glued."""
    from scipy.sparse import csgraph, csr_matrix
    from scipy.spatial import cKDTree
    lo = np.array([window.x0, window.y0], dtype=float)
    side = np.array([window.x1, window.y1], dtype=float) - lo
    S, cut = _seam_pieces(S, lo, side)  # from here on S holds the pieces
    ends, cut = S.reshape(-1, 2), cut.ravel()
    # the cut points where no road ends, which only graph mode reads
    cuts = None if junctions else ends[cut & ~_among(ends, ends[~cut])]
    # a road that runs along an edge takes a node at the image of every
    # road end and city on the opposite edge
    images = _images_on_seam_roads(S, np.concatenate([ends[~cut], cities]), lo, side, snap_eps)
    g = _planar_arrangement(S, np.concatenate([cities, images]), snap_eps, junctions, cuts)
    nodes, n_nodes, stats = g.nodes, g.n_nodes, g.stats
    near_lo = np.abs(nodes - lo) <= snap_eps
    near_hi = np.abs(nodes - lo - side) <= snap_eps
    seam = np.flatnonzero((near_lo | near_hi).any(axis=1))
    # one key per torus point: the far edge's coordinate moves to the near one
    key = np.where(near_hi[seam], nodes[seam] - side, nodes[seam])
    pairs = seam[cKDTree(key).query_pairs(snap_eps, output_type="ndarray")]
    glue = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                      shape=(n_nodes, n_nodes))
    # each node joins the first node of its component: components are
    # labelled in the order of their first node
    kept, label = _groups(csgraph.connected_components(glue, directed=False)[1])
    # the unglued graph goes once its edges are relabelled
    nodes, e, w = nodes[kept], label[g.edges], g.weights
    city_nodes = label[g.city_nodes[:len(cities)]]
    del g
    loop = e[:, 0] == e[:, 1]
    e, w = e[~loop], w[~loop]
    e.sort(axis=1)
    codes = e[:, 0] * n_nodes + e[:, 1]
    order = np.lexsort((w, codes))
    first = order[np.diff(codes[order], prepend=-1) != 0]
    stats = {**stats, "seam_points": len(seam), "glued": int(n_nodes - len(nodes)),
             "nodes": len(nodes), "edges": len(first)}
    return RoutingGraph(nodes=nodes, edges=e[first], weights=w[first],
                        city_nodes=city_nodes, stats=stats)
