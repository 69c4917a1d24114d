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
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import cKDTree
from scipy.spatial import QhullError

from spanlab.configs import SCHEMA_VERSION, PointConfig, Window, square_grid


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

    def segment_tuples(self):
        return [((s[0], s[1]), (s[2], s[3])) for s in self.segments]

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


def _displacements(points: np.ndarray, i: int, torus_side: float | None):
    """Vector from point i to every other point (minimal-image on a torus)."""
    d = points - points[i]
    if torus_side is not None:
        d -= torus_side * np.round(d / torus_side)
    return d


def _cone_edges(config: PointConfig, n_cones: int, criterion: str):
    """One outgoing edge per (city, nonempty cone).

    criterion "projection" picks the smallest orthogonal projection onto the
    cone bisector; "distance" the nearest Euclidean neighbor.  Ties broken
    lexicographically by (criterion value, distance, angle, index).
    """
    pts = config.points
    n = len(pts)
    side = config.window.width if config.torus else None
    theta = 2.0 * math.pi / n_cones
    edges: dict[tuple, tuple] = {}
    for i in range(n):
        d = _displacements(pts, i, side)
        dist = np.hypot(d[:, 0], d[:, 1])
        dist[i] = np.inf
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
        cone = np.minimum((ang / theta).astype(int), n_cones - 1)
        if criterion == "projection":
            key1 = dist * np.cos(ang - (cone + 0.5) * theta)
        else:
            key1 = dist
        order = np.lexsort((np.arange(n), ang, dist, key1))
        order = order[np.isfinite(dist[order])]
        # the first entry of each cone in lexsort order wins; winners are
        # visited in the order of their first appearance
        _, first = np.unique(cone[order], return_index=True)
        won = order[np.sort(first)]
        wrap = (np.round((pts[won] - pts[i] - d[won]) / side).astype(int) if side
                else np.zeros((len(won), 2), dtype=int))
        for j, (wx, wy) in zip(won.tolist(), wrap.tolist()):
            key = (i, j, -wx, -wy) if i < j else (j, i, wx, wy)
            if key not in edges:
                edges[key] = (pts[i][0], pts[i][1],
                              pts[i][0] + d[j][0], pts[i][1] + d[j][1])
    return edges


def theta_graph(config: PointConfig, m: int) -> Network:
    """Theta-graph: per city and per angle-2pi/m cone (boundaries at angles
    2*pi*i/m), one edge to the point whose projection onto the cone bisector
    is nearest; mutual edges stored once."""
    if m < 6 or int(m) != m:
        raise ValueError("m must be an integer >= 6")
    edges = _cone_edges(config, m, "projection")
    return Network(config, np.array(list(edges.values())).reshape(-1, 4),
                   "theta", {"m": int(m)})


def yao_graph(config: PointConfig, m: int) -> Network:
    """Yao graph: same cones as the theta-graph, nearest by Euclidean distance."""
    if m < 6 or int(m) != m:
        raise ValueError("m must be an integer >= 6")
    edges = _cone_edges(config, m, "distance")
    return Network(config, np.array(list(edges.values())).reshape(-1, 4),
                   "yao", {"m": int(m)})


def cone_road_network(config: PointConfig, k: int, directions=None) -> Network:
    """Cone roads: for each direction index i in 0..k-1, link every city to
    its Euclidean-nearest city in cone(z, i*pi/k, (i+1)*pi/k) and in the
    opposite cone.  ``directions`` restricts to a subset of indices (a single
    index gives the one-direction network whose mean length is L_k)."""
    if k < 2 or int(k) != k:
        raise ValueError("k must be an integer >= 2")
    edges = _cone_edges(config, 2 * k, "distance")
    if directions is not None:
        wanted = {int(i) % k for i in directions}
    else:
        wanted = set(range(k))
    kept = []
    for seg in edges.values():
        dx, dy = seg[2] - seg[0], seg[3] - seg[1]
        ang = math.atan2(dy, dx) % math.pi
        idx = min(int(ang / (math.pi / k)), k - 1)
        if idx in wanted:
            kept.append(seg)
    return Network(config, np.array(kept).reshape(-1, 4), "cone",
                   {"k": int(k), "directions": sorted(wanted)})


# ---------------------------------------------------------------------------
# Delaunay
# ---------------------------------------------------------------------------


def delaunay(config: PointConfig) -> Network:
    """Edges of the Delaunay triangulation of the cities.

    On a toroidal configuration the triangulation is taken over a 3x3
    tiling and an edge is kept once, when its midpoint falls inside the
    fundamental window, so segments may stick out of the window just as
    the wrap-around edges of the cone builders do.
    """
    pts = config.points
    if len(pts) < 3:
        raise ValueError("Delaunay needs at least 3 cities")
    if config.torus:
        side = config.window.width
        tiles = [(ix * side, iy * side) for ix in (-1, 0, 1) for iy in (-1, 0, 1)]
        tiled = np.vstack([pts + np.array(t) for t in tiles])
        try:
            tri = _SciDelaunay(tiled)
        except QhullError as exc:
            raise ValueError("Delaunay triangulation failed") from exc
        win = config.window
        seen = set()
        segs = []
        for simplex in tri.simplices:
            for a in range(3):
                i, j = int(simplex[a]), int(simplex[(a + 1) % 3])
                p, q = tiled[i], tiled[j]
                mx, my = 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])
                if not (win.x0 <= mx < win.x1 and win.y0 <= my < win.y1):
                    continue
                key = (round(p[0] - q[0], 9), round(p[1] - q[1], 9),
                       round(mx % side, 9), round(my % side, 9))
                if key not in seen and (-key[0], -key[1], key[2], key[3]) not in seen:
                    seen.add(key)
                    segs.append((p[0], p[1], q[0], q[1]))
        return Network(config, np.array(segs).reshape(-1, 4), "delaunay", {})
    try:
        tri = _SciDelaunay(pts)
    except QhullError as exc:
        raise ValueError("Delaunay triangulation failed (collinear input?)") from exc
    pairs = set()
    for simplex in tri.simplices:
        for a in range(3):
            i, j = int(simplex[a]), int(simplex[(a + 1) % 3])
            pairs.add((min(i, j), max(i, j)))
    segs = np.array([[*pts[i], *pts[j]] for i, j in sorted(pairs)]).reshape(-1, 4)
    return Network(config, segs, "delaunay", {})


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
    segs = []
    for j in range(m + 1):
        x = win.x0 + j * t
        segs.append((x, win.y0, x, win.y1))
    for j in range(m_y + 1):
        y = win.y0 + j * t
        segs.append((win.x0, y, win.x1, y))
    interior = {"N1": (), "N2": (0.5,), "N3": (1.0 / 3.0, 2.0 / 3.0)}[variant]
    for frac in interior:
        for j in range(m):
            x = win.x0 + (j + frac) * t
            segs.append((x, win.y0, x, win.y1))
        for j in range(m_y):
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
    tree = cKDTree(config.points)
    pairs = tree.query_pairs(r=spacing * (1.0 + 1e-9))
    pts = config.points
    segs = np.array([[*pts[i], *pts[j]] for i, j in sorted(pairs)]).reshape(-1, 4)
    return Network(config, segs, f"{config.kind}_lattice", {"spacing": spacing})


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


def unwrap(net: Network, buffer: float) -> Network:
    """Planar view of a toroidal network: translated copies of every segment
    are added so that all roads within ``buffer`` of the window are present.
    Cities stay those of the center copy; use for interior stretch
    measurement on torus-built networks."""
    if not net.config.torus:
        return net
    win = net.config.window
    side = win.width
    tiles = [(ix * side, iy * side) for ix in (-1, 0, 1) for iy in (-1, 0, 1)]
    x_lo, x_hi = win.x0 - buffer, win.x1 + buffer
    y_lo, y_hi = win.y0 - buffer, win.y1 + buffer
    segs = []
    base = net.segments
    for ox, oy in tiles:
        s = base + np.array([ox, oy, ox, oy])
        keep = (
            (np.maximum(s[:, 0], s[:, 2]) >= x_lo)
            & (np.minimum(s[:, 0], s[:, 2]) <= x_hi)
            & (np.maximum(s[:, 1], s[:, 3]) >= y_lo)
            & (np.minimum(s[:, 1], s[:, 3]) <= y_hi)
        )
        segs.append(s[keep])
    planar_config = PointConfig(net.config.points.copy(), win, torus=False,
                                kind=net.config.kind, params=net.config.params,
                                seed=net.config.seed)
    return Network(planar_config, np.vstack(segs), net.kind,
                   {**net.params, "unwrapped": True})
