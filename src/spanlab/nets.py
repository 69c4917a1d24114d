"""Network builders: explicit segment sets over a point configuration.

Each builder returns a Network whose segments may meet and cross; crossing
semantics (junction or not) are decided later by the arrangement.  The
cone-based builders support toroidal nearest-neighbor search to emulate
the infinite-plane model; in planar mode an empty cone simply contributes
no edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import cKDTree
from scipy.spatial import QhullError

from spanlab.configs import SCHEMA_VERSION, PointConfig, Window, square_grid
from spanlab.geom import _seam_pieces


@dataclass
class Network:
    """A set of straight road segments over a point configuration."""

    config: PointConfig
    segments: np.ndarray  # (m, 4): x1, y1, x2, y2
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=float).reshape(-1, 4)
        lengths = np.hypot(self.segments[:, 2] - self.segments[:, 0],
                           self.segments[:, 3] - self.segments[:, 1])
        if len(lengths) and (not np.all(np.isfinite(self.segments)) or lengths.min() <= 0):
            raise ValueError("segments must be finite and nondegenerate")

    @property
    def total_length(self) -> float:
        return float(np.hypot(self.segments[:, 2] - self.segments[:, 0],
                              self.segments[:, 3] - self.segments[:, 1]).sum())

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "params": self.params,
            "torus": self.config.torus,
            "window": [self.config.window.x0, self.config.window.y0,
                       self.config.window.x1, self.config.window.y1],
            "cities": [[float(x), float(y)] for x, y in self.config.points],
            "segments": [[float(v) for v in s] for s in self.segments],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Network":
        doc = json.loads(text)
        config = PointConfig(
            points=np.array(doc["cities"], dtype=float).reshape(-1, 2),
            window=Window(*doc["window"]),
            torus=bool(doc.get("torus", False)),
            kind="custom",
        )
        return Network(config=config,
                       segments=np.array(doc["segments"], dtype=float).reshape(-1, 4),
                       kind=doc.get("kind", "custom"),
                       params=doc.get("params", {}))


# ---------------------------------------------------------------------------
# cone-based builders (theta, Yao, cone roads)
# ---------------------------------------------------------------------------


def _cone_extent(p: np.ndarray, lo, hi, n_cones: int) -> np.ndarray:
    """(len(p), n_cones) farthest distance from each point p to the part of
    the box [lo, hi] (which holds p) in each of its cones.

    That part is convex, so the farthest point is one of its vertices: a
    box corner in the cone or the box exit of one of the cone's two rays.
    """
    theta = 2.0 * math.pi / n_cones
    phi = np.arange(n_cones + 1) * theta
    rays = np.full((len(p), n_cones + 1), np.inf)
    for axis, u in enumerate((np.cos(phi), np.sin(phi))):
        with np.errstate(divide="ignore", invalid="ignore"):
            exit_ = np.where(u > 0, (hi[axis] - p[:, axis, None]) / u,
                             (lo[axis] - p[:, axis, None]) / u)
        rays = np.where(u != 0, np.minimum(rays, exit_), rays)
    extent = np.maximum(rays[:, :-1], rays[:, 1:])
    for cx, cy in ((lo[0], lo[1]), (hi[0], lo[1]), (lo[0], hi[1]), (hi[0], hi[1])):
        vx, vy = cx - p[:, 0], cy - p[:, 1]
        cone = np.minimum((np.mod(np.arctan2(vy, vx), 2.0 * math.pi) / theta).astype(int),
                          n_cones - 1)
        np.maximum.at(extent, (np.arange(len(p)), cone), np.hypot(vx, vy))
    return extent


# Most (city, candidate) entries one round of _cone_edges ranks at once; at
# about 110 bytes an entry a block peaks near 30 MiB, however many rounds a
# city needs (a single city's k candidates may exceed it).
_RANK_BLOCK = 1 << 18


def _cone_edges(config: PointConfig, n_cones: int, criterion: str):
    """One outgoing edge per (city, nonempty cone).

    criterion "projection" picks the smallest orthogonal projection onto the
    cone bisector; "distance" the nearest Euclidean neighbor.  Ties broken
    lexicographically by (criterion value, distance, angle, index).  A city
    at zero displacement is no candidate, so coincident cities get no
    zero-length edge between them.  Returns
    arrays (keys, segs, cone), one row per edge in the order cities and then
    their winners are visited: the key (i, j, wx, wy), i < j with the torus
    wrap of j seen from i, the segment x1, y1, x2, y2 and the cone of the
    city that picked the edge.

    Each city's candidates are its k nearest cities (a periodic cKDTree on
    the torus), ranked exactly as against all n.  A point farther than the
    k-th candidate's distance r has distance key above r and projection
    key above r * cos(theta / 2), so a city is settled when each cone has
    a winner whose key lies below that bound, less a rounding margin, or
    (in the plane) lies within r inside the points' bounding box, so that
    every city in it is a candidate.  Cities not settled are queried again
    with 2k, up to k = n, in blocks of at most ``_RANK_BLOCK`` candidates.
    """
    pts = config.points
    n = len(pts)
    side = config.window.width if config.torus else None
    theta = 2.0 * math.pi / n_cones
    reach = (math.cos(theta / 2) if criterion == "projection" else 1.0) * (1.0 - 1e-9)
    if side is not None:
        box = np.mod(pts - [config.window.x0, config.window.y0], side)
        tree = cKDTree(np.where(box < side, box, 0.0), boxsize=side)
    else:
        tree = cKDTree(pts)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    def rank(todo: np.ndarray, k: int):
        """Winners (city, neighbor, dx, dy) of the cities of todo settled
        by their k nearest candidates, and which cities those are."""
        r, nbr = tree.query(tree.data[todo], k=k)
        r, nbr = r.reshape(len(todo), k), nbr.reshape(len(todo), k)
        i = todo[:, None]
        d = pts[nbr] - pts[i]
        if side is not None:
            d -= side * np.round(d / side)
        dist = np.hypot(d[..., 0], d[..., 1])
        dist[dist == 0.0] = np.inf  # the city itself and cities coincident with it
        ang = np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * math.pi)
        cone = np.minimum((ang / theta).astype(int), n_cones - 1)
        if criterion == "projection":
            key1 = dist * np.cos(ang - (cone + 0.5) * theta)
        else:
            key1 = dist
        # rank each row: criterion value, distance, angle, index
        order = np.lexsort((nbr, ang, dist, key1), axis=-1)
        nbr, dist, cone, key1 = (np.take_along_axis(v, order, axis=-1)
                                 for v in (nbr, dist, cone, key1))
        d = np.take_along_axis(d, order[..., None], axis=1)
        # the first entry of each (row, cone) wins; a row's winners are
        # visited in the order of their first appearance
        code = np.arange(len(todo))[:, None] * n_cones + cone
        code[~np.isfinite(dist)] = -1  # the city itself
        code, key1 = code.ravel(), key1.ravel()
        _, first = np.unique(code, return_index=True)
        won = np.sort(first[code[first] >= 0])
        w_row = code[won] // n_cones
        done = np.zeros((len(todo), n_cones), dtype=bool)
        done[w_row, code[won] % n_cones] = key1[won] < r[w_row, -1] * reach
        if side is None:
            done |= _cone_extent(pts[todo], lo, hi, n_cones) < r[:, -1:] * (1.0 - 1e-9)
        settled = done.all(axis=1) | (k == n)
        won = won[settled[w_row]]
        return (np.column_stack([todo[won // k], nbr.ravel()[won], d.reshape(-1, 2)[won],
                                 cone.ravel()[won]]),
                settled)

    found = []  # winners of the settled cities, block by block
    todo = np.arange(n)
    k = min(n, 4 * n_cones)
    while len(todo):
        settled = np.zeros(len(todo), dtype=bool)
        rows = max(1, _RANK_BLOCK // k)
        for s in range(0, len(todo), rows):
            winners, settled[s:s + rows] = rank(todo[s:s + rows], k)
            found.append(winners)
        todo = todo[~settled]
        k = min(n, 2 * k)
    w = np.concatenate(found) if found else np.empty((0, 5))
    w = w[np.argsort(w[:, 0], kind="stable")]
    i, j, cone = w[:, 0].astype(int), w[:, 1].astype(int), w[:, 4].astype(int)
    d = w[:, 2:4]
    wrap = (np.round((pts[j] - pts[i] - d) / side).astype(int) if side
            else np.zeros((len(w), 2), dtype=int))
    lower = i < j
    keys = np.column_stack([np.where(lower, i, j), np.where(lower, j, i),
                            np.where(lower, -1, 1)[:, None] * wrap])
    segs = np.column_stack([pts[i], pts[i] + d])
    _, first = np.unique(keys, axis=0, return_index=True)
    first = np.sort(first)
    return keys[first], segs[first], cone[first]


def _cone_graph(config: PointConfig, m: int, criterion: str, kind: str) -> Network:
    if m < 6 or int(m) != m:
        raise ValueError("m must be an integer >= 6")
    _, segs, _ = _cone_edges(config, m, criterion)
    return Network(config, segs, kind, {"m": int(m)})


def theta_graph(config: PointConfig, m: int) -> Network:
    """Theta-graph: per city and per angle-2pi/m cone (boundaries at angles
    2*pi*i/m), one edge to the point whose projection onto the cone bisector
    is nearest; mutual edges stored once."""
    return _cone_graph(config, m, "projection", "theta")


def yao_graph(config: PointConfig, m: int) -> Network:
    """Yao graph: same cones as the theta-graph, nearest by Euclidean distance."""
    return _cone_graph(config, m, "distance", "yao")


def cone_road_network(config: PointConfig, k: int, directions=None) -> Network:
    """Cone roads: for each direction index i in 0..k-1, link every city to
    its Euclidean-nearest city in cone(z, i*pi/k, (i+1)*pi/k) and in the
    opposite cone.  An edge belongs to direction c mod k, c the cone of the
    city that picked it.  ``directions`` restricts to a subset of indices (a
    single index gives the one-direction network whose mean length is L_k)."""
    if k < 2 or int(k) != k:
        raise ValueError("k must be an integer >= 2")
    _, segs, cone = _cone_edges(config, 2 * k, "distance")
    wanted = sorted({int(i) % k for i in (range(k) if directions is None else directions)})
    return Network(config, segs[np.isin(cone % k, wanted)], "cone",
                   {"k": int(k), "directions": wanted})


# ---------------------------------------------------------------------------
# Delaunay
# ---------------------------------------------------------------------------


def delaunay(config: PointConfig) -> Network:
    """Edges of the Delaunay triangulation of the cities.

    On a toroidal configuration the triangulation is taken over a 3x3
    tiling and an edge is kept once, when its midpoint falls inside the
    fundamental window, so segments may stick out of the window just as
    the wrap-around edges of the cone builders do.  An edge is known by
    the key (i, j, wx, wy): cities i <= j and the tile of j's end seen from
    i's.  Planar edges come in (i, j) order, toroidal ones in the order
    the triangulation first lists them.
    """
    pts = config.points
    n = len(pts)
    if n < 3:
        raise ValueError("Delaunay needs at least 3 cities")
    span = (-1, 0, 1) if config.torus else (0,)
    tiles = np.array([(ix, iy) for ix in span for iy in span])
    tiled = np.concatenate([pts + config.window.width * t for t in tiles])
    try:
        tri = _SciDelaunay(tiled)
    except QhullError as exc:
        raise ValueError("Delaunay triangulation failed (collinear input?)") from exc
    # triangle edges (0, 1), (1, 2), (2, 0) of each simplex, in order
    a, b = tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).T
    if config.torus:
        win = config.window
        mid = 0.5 * (tiled[a] + tiled[b])
        inside = ((win.x0 <= mid[:, 0]) & (mid[:, 0] < win.x1)
                  & (win.y0 <= mid[:, 1]) & (mid[:, 1] < win.y1))
        a, b = a[inside], b[inside]
    else:
        a, b = np.minimum(a, b), np.maximum(a, b)
    # tiles are in lexicographic order, so (city, tiled index) orders an
    # edge's two ends the same way whichever lift it is read from
    i, j = a % n, b % n
    flip = (i > j) | ((i == j) & (a > b))
    wrap = np.where(flip, -1, 1)[:, None] * (tiles[b // n] - tiles[a // n])
    keys = np.column_stack([np.where(flip, j, i), np.where(flip, i, j), wrap])
    _, first = np.unique(keys, axis=0, return_index=True)
    if config.torus:
        first = np.sort(first)
    return Network(config, np.hstack([tiled[a[first]], tiled[b[first]]]), "delaunay", {})


# ---------------------------------------------------------------------------
# freeway grids
# ---------------------------------------------------------------------------


def grid_freeway(config: PointConfig, t: float, variant: str = "N1") -> Network:
    """Freeways-and-access-roads network on a square window.

    Grid roads partition the window into cells of side ~t (t is adjusted to
    the nearest divisor of the window side); each city gets full N-S and E-W
    access roads across its own cell.  Variant N2 adds interior roads
    through the cell centers; N3 adds interior roads at the cell thirds.
    """
    if t <= 0:
        raise ValueError("cell spacing t must be positive")
    if variant not in ("N1", "N2", "N3"):
        raise ValueError(f"unknown variant {variant!r}")
    win = config.window
    W, H = win.width, win.height
    m = max(1, round(W / t))
    t = W / m
    m_y = max(1, round(H / t))
    # (cell fraction, extra line) of the skeleton, whose lines at x1 and y1
    # are on a torus those at x0 and y0, then of the variant's interior roads
    interior = {"N1": (), "N2": (0.5,), "N3": (1.0 / 3.0, 2.0 / 3.0)}[variant]
    segs = []
    for frac, extra in [(0.0, 0 if config.torus else 1), *((f, 0) for f in interior)]:
        for j in range(m + extra):
            x = win.x0 + (j + frac) * t
            segs.append((x, win.y0, x, win.y1))
        for j in range(m_y + extra):
            y = win.y0 + (j + frac) * t
            segs.append((win.x0, y, win.x1, y))
    for cx, cy in config.points:
        ix = min(int((cx - win.x0) / t), m - 1)
        iy = min(int((cy - win.y0) / t), m_y - 1)
        segs.append((win.x0 + ix * t, cy, win.x0 + (ix + 1) * t, cy))
        segs.append((cx, win.y0 + iy * t, cx, win.y0 + (iy + 1) * t))
    return Network(config, np.array(segs).reshape(-1, 4), "grid_freeway",
                   {"t": t, "variant": variant})


# ---------------------------------------------------------------------------
# lattice networks
# ---------------------------------------------------------------------------


def alternate_diagonals(window: Window) -> Network:
    """Period-2 pattern of full diagonal lines over the integer grid:
    slope +1 lines through even offsets y - x, slope -1 lines through odd
    offsets x + y.  Every city lies on exactly one line; the two families
    cross at half-integer junctions."""
    if (window.width != round(window.width)
            or window.height != round(window.height)):
        raise ValueError("window sides must be integers")
    config = square_grid(window)
    # clip against a window grown by one unit so that a city sitting on a
    # corner keeps a stub of its line (the pattern continues past the window)
    ext = Window(window.x0 - 1.0, window.y0 - 1.0, window.x1 + 1.0, window.y1 + 1.0)
    rising = [c for c in range(math.floor(ext.y0 - ext.x1), math.ceil(ext.y1 - ext.x0) + 1)
              if c % 2 == 0]
    falling = [c for c in range(math.floor(ext.x0 + ext.y0), math.ceil(ext.x1 + ext.y1) + 1)
               if c % 2 != 0]
    # line c is p + t*d with p = (0, c), d = (1, +-1)
    px, dx = 0.0, 1.0
    py = np.array(rising + falling, dtype=float)
    dy = np.array([1.0] * len(rising) + [-1.0] * len(falling))
    t0, t1 = ext.clip(px, py, dx, dy, -np.inf, np.inf)
    hit = t0 < t1
    t0, t1, py, dy = t0[hit], t1[hit], py[hit], dy[hit]
    segs = np.column_stack([px + t0 * dx, py + t0 * dy, px + t1 * dx, py + t1 * dy])
    return Network(config, segs, "alt_diag", {})


def lattice_edges(config: PointConfig) -> Network:
    """All nearest-neighbor edges of a lattice configuration."""
    spacing = config.params.get("spacing")
    if config.kind not in ("square", "hex", "tri") or spacing is None:
        raise ValueError("lattice_edges requires a square/hex/tri lattice config")
    if config.torus:
        # it would add no wrap-around edge, and a square grid's cities on the
        # far edges would double those on the near ones
        raise ValueError("lattice_edges has no torus form")
    pts = config.points
    pairs = cKDTree(pts).query_pairs(r=spacing * (1.0 + 1e-9), output_type="ndarray")
    i, j = pairs[np.lexsort(pairs.T[::-1])].T
    return Network(config, np.hstack([pts[i], pts[j]]), f"{config.kind}_lattice",
                   {"spacing": spacing})


# ---------------------------------------------------------------------------
# builder registry
# ---------------------------------------------------------------------------

# name -> (required parameters, builder(config, params)).  Each entry looks
# its builder up at call time, so a replaced module attribute is honored.
BUILDERS = {
    "delaunay": ((), lambda c, p: delaunay(c)),
    "theta": (("m",), lambda c, p: theta_graph(c, int(p["m"]))),
    "yao": (("m",), lambda c, p: yao_graph(c, int(p["m"]))),
    "cone": (("k",), lambda c, p: cone_road_network(
        c, int(p["k"]), directions=p.get("directions"))),
    "grid_freeway": (("t",), lambda c, p: grid_freeway(
        c, float(p["t"]), p.get("variant", "N1"))),
    "alt_diag": ((), lambda c, p: alternate_diagonals(c.window)),
    "lattice": ((), lambda c, p: lattice_edges(c)),
}


def build(kind: str, config: PointConfig, params: dict) -> Network:
    """Build the network ``kind`` of BUILDERS with the given parameters."""
    if kind not in BUILDERS:
        raise ValueError(f"unknown network kind {kind!r}")
    required, builder = BUILDERS[kind]
    missing = [name for name in required if name not in params]
    if missing:
        raise ValueError(f"{kind} requires parameter(s): {', '.join(missing)}")
    return builder(config, params)


# ---------------------------------------------------------------------------
# torus unrolling
# ---------------------------------------------------------------------------


def unwrap(net: Network) -> Network:
    """Planar view of a toroidal network: its seam pieces (geom._seam_pieces,
    as routing cuts them), each lift cut at the seams and every piece moved
    into the closed window.  Each road is there once: a piece along a far
    edge x1 or y1 lies on its near edge x0 or y0.  Cities stay those of the
    window; a planar network is returned as it is."""
    if not net.config.torus:
        return net
    win = net.config.window
    lo = np.array([win.x0, win.y0], dtype=float)
    pieces, _ = _seam_pieces(net.segments, lo, np.array([win.x1, win.y1], dtype=float) - lo)
    return Network(replace(net.config, points=net.config.points.copy(), torus=False),
                   pieces, net.kind, {**net.params, "unwrapped": True})
