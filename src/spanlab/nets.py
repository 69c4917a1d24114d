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

# scipy.spatial is imported in the builders that use it, so importing nets loads no scipy

from spanlab.configs import (SCHEMA_VERSION, PointConfig, Window, _json_object, _json_params,
                             _whole, square_grid)
from spanlab.geom import _groups, _seam_pieces


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
        doc = _json_object(text)
        config = PointConfig(
            points=np.array(doc["cities"], dtype=float).reshape(-1, 2),
            window=Window.from_bounds(doc["window"]),
            torus=doc.get("torus", False),
            kind="custom",
        )
        return Network(config=config,
                       segments=np.array(doc["segments"], dtype=float).reshape(-1, 4),
                       kind=doc.get("kind", "custom"),
                       params=_json_params(doc))


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
    from scipy.spatial import cKDTree
    if side is not None:
        box = np.mod(pts - [config.window.x0, config.window.y0], side)
        tree = cKDTree(np.where(box < side, box, 0.0), boxsize=side)
    else:
        tree = cKDTree(pts)
        lo, hi = pts.min(axis=0, initial=np.inf), pts.max(axis=0, initial=-np.inf)
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
        first = _groups(code)[0]
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
    first = np.sort(_groups(keys)[0])
    return keys[first], segs[first], cone[first]


def _cone_graph(config: PointConfig, m: int, criterion: str, kind: str) -> Network:
    m = _whole(m, 6, "m")
    _, segs, _ = _cone_edges(config, m, criterion)
    return Network(config, segs, kind, {"m": m})


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
    k = _whole(k, 2, "k")
    wanted = range(k) if directions is None else directions
    if any(i % 1 != 0 for i in wanted):
        raise ValueError("directions must be integers")
    wanted = sorted({int(i) % k for i in wanted})
    _, segs, cone = _cone_edges(config, 2 * k, "distance")
    return Network(config, segs[np.isin(cone % k, wanted)], "cone",
                   {"k": k, "directions": wanted})


# ---------------------------------------------------------------------------
# Delaunay
# ---------------------------------------------------------------------------


def delaunay(config: PointConfig) -> Network:
    """Edges of the Delaunay triangulation of the cities, in key order.

    An edge's key is (i, j, wx, wy): cities i <= j and the tile of j's end
    seen from i's; the edge runs from i's end to j's.  On a torus the
    triangulation is the 3x3 tiling's, and an edge is kept once, when its
    midpoint lies in the window, so segments may stick out of the window.

    Qhull sees only the tiled cities in the band R, the window grown by w
    (first 4 mean spacings).  A triangle whose circumdisk lies strictly
    inside R (1e-9 relative slack) has no tiled city in it, so it is a
    Delaunay triangle of the whole tiling; only such triangles give edges.
    A torus triangulation has 3n edges, so once their keys number 3n they
    are all the tiling's; else, or if Qhull fails, w doubles.  Once w
    reaches the side, R holds the 3x3 tiling and every triangle counts, as
    in the plane.  Only the diagonals chosen among cocircular cities may
    differ from the 3x3 tiling's.
    """
    pts = config.points
    n = len(pts)
    if n < 3:
        raise ValueError("Delaunay needs at least 3 cities")
    win = config.window
    span = (-1, 0, 1) if config.torus else (0,)
    tiles = np.array([(ix, iy) for ix in span for iy in span])
    tiled = np.concatenate([pts + win.width * t for t in tiles])
    centre = 0.5 * np.array([win.x0 + win.x1, win.y0 + win.y1])
    w = 4.0 * math.sqrt(win.area / n) if config.torus else math.inf
    from scipy.spatial import Delaunay, QhullError
    while True:
        whole, reach = w >= win.width, 0.5 * win.width + w
        band = np.flatnonzero(whole | (np.abs(tiled - centre) <= reach).all(axis=1))
        try:
            tri = band[Delaunay(tiled[band]).simplices]
        except QhullError as exc:  # a band Qhull fails on certifies nothing
            if whole:
                raise ValueError("Delaunay triangulation failed (collinear input?)") from exc
            tri = np.empty((0, 3), dtype=int)
        if not whole:  # circumcentre z0 + c, radius |c|; complex, from R's centre
            z = tiled[tri] @ np.array([1.0, 1.0j]) - complex(*centre)
            u, v = z[:, 1] - z[:, 0], z[:, 2] - z[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                c = (abs(u) ** 2 * v - abs(v) ** 2 * u) / (2j * (u.conjugate() * v).imag)
            d = z[:, 0] + c
            tri = tri[np.maximum(abs(d.real), abs(d.imag)) + abs(c) < reach * (1.0 - 1e-9)]
        # triangle edges (0, 1), (1, 2), (2, 0) of each simplex, in order
        a, b = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).T
        if config.torus:
            mid = 0.5 * (tiled[a] + tiled[b])
            inside = ((mid >= [win.x0, win.y0]) & (mid < [win.x1, win.y1])).all(axis=1)
            a, b = a[inside], b[inside]
        # tiles are in lexicographic order, so (city, tiled index) orders an
        # edge's two ends the same way whichever lift it is read from
        flip = (a % n > b % n) | ((a % n == b % n) & (a > b))
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        keys = np.column_stack([a % n, b % n, tiles[b // n] - tiles[a // n]])
        first = _groups(keys)[0]
        if whole or len(first) == 3 * n:
            return Network(config, np.hstack([tiled[a[first]], tiled[b[first]]]), "delaunay", {})
        w *= 2.0


# ---------------------------------------------------------------------------
# freeway grids
# ---------------------------------------------------------------------------


# Most grid lines per axis grid_freeway builds: m lines per axis cross in m^2
# arrangement nodes of about 250 bytes each while the arrangement is split,
# so 2**12 lines (16.8M crossings) already take about 4 GiB to route.
_GRID_LINES = 1 << 12


def grid_freeway(config: PointConfig, t: float, variant: str = "N1") -> Network:
    """Freeways-and-access-roads network on a square window.

    Grid roads partition the window into cells of side ~t (t is adjusted to
    the nearest divisor of the window side); each city gets full N-S and E-W
    access roads across its own cell.  Variant N2 adds interior roads
    through the cell centers; N3 adds interior roads at the cell thirds.
    A t giving more than ``_GRID_LINES`` lines per axis is refused.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"cell spacing t must be {'positive' if t <= 0 else 'finite'}")
    if variant not in ("N1", "N2", "N3"):
        raise ValueError(f"unknown variant {variant!r}")
    win = config.window
    W, H = win.width, win.height
    if not max(W, H) / t <= _GRID_LINES:
        raise ValueError(f"cell spacing t = {t!r} gives {max(W, H) / t:.4g} grid lines"
                         f" per axis, more than {_GRID_LINES}")
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
    from scipy.spatial import cKDTree
    pts = config.points
    pairs = cKDTree(pts).query_pairs(r=spacing * (1.0 + 1e-9), output_type="ndarray")
    i, j = pairs[_groups(pairs)[0]].T
    return Network(config, np.hstack([pts[i], pts[j]]), f"{config.kind}_lattice",
                   {"spacing": spacing})


# ---------------------------------------------------------------------------
# builder registry
# ---------------------------------------------------------------------------

# name -> (required parameters, builder(config, params)).  Each entry looks
# its builder up at call time, so a replaced module attribute is honored.
BUILDERS = {
    "delaunay": ((), lambda c, p: delaunay(c)),
    "theta": (("m",), lambda c, p: theta_graph(c, p["m"])),
    "yao": (("m",), lambda c, p: yao_graph(c, p["m"])),
    "cone": (("k",), lambda c, p: cone_road_network(c, p["k"], directions=p.get("directions"))),
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
                   pieces, net.kind, net.params)
