"""Point-configuration generators, normalized to one city per unit area.

All generators are pure functions of (parameters, seed).  Randomness uses
the counter-based Philox generator; a master seed is split into
per-replicate substreams via numpy's SeedSequence spawning, so parallel
replicates are reproducible and independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1

# honeycomb nearest-neighbor spacing giving density 1:  4 * 3^(-3/2) / l^2 = 1
HEX_SPACING = 2.0 * 3.0 ** (-0.75)
# triangular-lattice spacing giving density 1:  2 * 3^(-1/2) / l^2 = 1
TRI_SPACING = math.sqrt(2.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class Window:
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def inner(self, margin_fraction: float) -> "Window":
        """Window shrunk by margin_fraction of each dimension per side."""
        mx = margin_fraction * self.width
        my = margin_fraction * self.height
        return Window(self.x0 + mx, self.y0 + my, self.x1 - mx, self.y1 - my)

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return (
            (points[:, 0] >= self.x0)
            & (points[:, 0] <= self.x1)
            & (points[:, 1] >= self.y0)
            & (points[:, 1] <= self.y1)
        )

    def clip(self, px, py, dx, dy, t0, t1):
        """Liang-Barsky clip of the lines p + t*d to the window.

        Vectorized over broadcastable arrays; returns (t_lo, t_hi), the
        parameter range [t0, t1] narrowed to the window.  A line misses
        the window where t_lo > t_hi; an axis-parallel line (d == 0)
        outside the window gets t_hi = -inf, whatever the other axis gives.
        A nonzero component of d must be large enough that (bound - p) / d
        does not overflow.
        """
        for p, d, lo, hi in ((px, dx, self.x0, self.x1), (py, dy, self.y0, self.y1)):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ta = np.where(d != 0, (lo - p) / d, np.where(p >= lo, -np.inf, np.inf))
                tb = np.where(d != 0, (hi - p) / d, np.where(p <= hi, np.inf, -np.inf))
            t0 = np.maximum(t0, np.minimum(ta, tb))
            t1 = np.where((d == 0) & ((p < lo) | (p > hi)), -np.inf,
                          np.minimum(t1, np.maximum(ta, tb)))
        return t0, t1

    @staticmethod
    def square(side: float) -> "Window":
        return Window(0.0, 0.0, float(side), float(side))


@dataclass
class PointConfig:
    """A finite set of city positions inside a rectangular window."""

    points: np.ndarray
    window: Window
    torus: bool = False
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if self.torus and not math.isclose(self.window.width, self.window.height):
            raise ValueError("toroidal window must be square")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def density(self) -> float:
        return self.n / self.window.area

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "window": [self.window.x0, self.window.y0, self.window.x1, self.window.y1],
            "torus": self.torus,
            "points": [[float(x), float(y)] for x, y in self.points],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "PointConfig":
        doc = json.loads(text)
        return PointConfig(
            points=np.array(doc["points"], dtype=float).reshape(-1, 2),
            window=Window(*doc["window"]),
            torus=bool(doc["torus"]),
            kind=doc.get("kind", "custom"),
            params=doc.get("params", {}),
            seed=doc.get("seed"),
        )


def rng_from_seed(seed) -> np.random.Generator:
    """Counter-based generator for a (possibly spawned) seed."""
    return np.random.Generator(np.random.Philox(seed))


def substreams(master_seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-replicate substreams derived from one master seed."""
    return [rng_from_seed(s) for s in np.random.SeedSequence(master_seed).spawn(n)]


def poisson(window: Window, rate: float = 1.0, seed: int = 0, torus: bool = False) -> PointConfig:
    """Poisson point process: count ~ Poisson(rate * area), positions uniform."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    rng = rng_from_seed(seed)
    n = rng.poisson(rate * window.area)
    pts = np.column_stack([
        rng.uniform(window.x0, window.x1, n),
        rng.uniform(window.y0, window.y1, n),
    ])
    return PointConfig(pts, window, torus=torus, kind="poisson",
                       params={"rate": rate}, seed=seed)


def uniform_n(n: int, window: Window, seed: int = 0, torus: bool = False) -> PointConfig:
    """Exactly n i.i.d. uniform points in the window."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = rng_from_seed(seed)
    pts = np.column_stack([
        rng.uniform(window.x0, window.x1, n),
        rng.uniform(window.y0, window.y1, n),
    ])
    return PointConfig(pts, window, torus=torus, kind="uniform",
                       params={"n": n}, seed=seed)


def square_grid(window: Window) -> PointConfig:
    """Integer-lattice cities inside the window (unit nearest-neighbor spacing)."""
    if min(window.width, window.height) < 1:
        raise ValueError("window side must be at least 1")
    xs = np.arange(math.ceil(window.x0), math.floor(window.x1) + 1)
    ys = np.arange(math.ceil(window.y0), math.floor(window.y1) + 1)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()]).astype(float)
    return PointConfig(pts, window, kind="square", params={"spacing": 1.0})


def _row_lattice(window: Window, row_height: float, offsets_even, offsets_odd, period: float):
    """Rows of points; even/odd rows carry different x-offset patterns."""
    # anchor half a cell in from the lower-left corner
    x_anchor = window.x0 + period / 2.0
    y_anchor = window.y0 + row_height / 2.0
    rows = []
    j = 0
    y = y_anchor
    while y <= window.y1:
        offsets = offsets_even if j % 2 == 0 else offsets_odd
        k_min = math.floor((window.x0 - x_anchor) / period) - 1
        k_max = math.ceil((window.x1 - x_anchor) / period) + 1
        for k in range(k_min, k_max + 1):
            for off in offsets:
                x = x_anchor + k * period + off
                if window.x0 <= x <= window.x1:
                    rows.append((x, y))
        j += 1
        y = y_anchor + j * row_height
    return np.array(rows, dtype=float).reshape(-1, 2)


def hex_config(window: Window) -> PointConfig:
    """Honeycomb (hexagon-vertex) configuration with density 1.

    Nearest-neighbor spacing is 2 * 3^(-3/4) ~ 0.87738; each interior city
    has exactly three neighbors at that distance.
    """
    ell = HEX_SPACING
    row_h = math.sqrt(3.0) * ell / 2.0
    if window.width < 3 * ell or window.height < 2 * row_h:
        raise ValueError("window too small for one honeycomb cell")
    pts = _row_lattice(window, row_h,
                       offsets_even=(0.0, ell),
                       offsets_odd=(1.5 * ell, 2.5 * ell),
                       period=3.0 * ell)
    return PointConfig(pts, window, kind="hex", params={"spacing": ell})


def tri_config(window: Window) -> PointConfig:
    """Triangular-lattice configuration with density 1.

    Spacing solves 2 * 3^(-1/2) / l^2 = 1; interior degree 6.
    """
    ell = TRI_SPACING
    row_h = math.sqrt(3.0) * ell / 2.0
    if window.width < 2 * ell or window.height < 2 * row_h:
        raise ValueError("window too small for one lattice cell")
    pts = _row_lattice(window, row_h,
                       offsets_even=(0.0,),
                       offsets_odd=(0.5 * ell,),
                       period=ell)
    return PointConfig(pts, window, kind="tri", params={"spacing": ell})
