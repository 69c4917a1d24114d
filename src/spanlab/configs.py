"""Point-configuration generators, normalized to one city per unit area.

All generators are pure functions of (parameters, seed).  Randomness uses
the counter-based Philox generator.  A seed is an integer s, drawing from
``Philox(s)``, or a Monte Carlo replicate's pair (s, i), drawing from
``Philox(s).jumped(i)``: the key of ``Philox(s)`` with counter word 2 set
to i, so replicate 0 of seed s is the plain seed s.  This module also
holds the schema version and the one CSV and one JSON writer of every
versioned output.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


def _json_object(text: str) -> dict:
    """The object a config, network or run file's JSON text holds."""
    if isinstance(doc := json.loads(text), dict):
        return doc
    raise ValueError("a config, network or run file must hold a JSON object")


def _json_params(doc: dict) -> dict:
    """The params object of a config or network file's JSON object."""
    if isinstance(params := doc.get("params", {}), dict):
        return params
    raise ValueError("params must be a JSON object")


def _whole(value, least: int, name: str) -> int:
    """int(value) if value is a whole number >= least (3.0 counts as 3)."""
    if not value >= least or value % 1 != 0:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, each line newline-terminated.

    A float prints as ``.17g``, so it reads back exactly; a params dict
    prints quoted, as its sorted-key JSON with ``'`` for ``"``, so its
    commas stay inside one field; anything else prints as ``str``.
    """
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.17g}"
        if isinstance(value, dict):
            return '"' + json.dumps(value, sort_keys=True).replace('"', "'") + '"'
        return str(value)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def json_text(**fields) -> str:
    """JSON text of a versioned record: schema_version first, then the fields."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **fields})


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
        """Window shrunk by margin_fraction of each dimension per side;
        ValueError unless 0 <= margin_fraction < 0.5."""
        if not 0 <= margin_fraction < 0.5:
            raise ValueError("margin_fraction must be in [0, 0.5)")
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

    @staticmethod
    def from_bounds(bounds) -> "Window":
        """The window of the bounds x0, y0, x1, y1, as a flag or a file gives
        them: ValueError unless they are four finite numbers with x0 < x1
        and y0 < y1."""
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 4 and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in bounds)):
            raise ValueError("window must be four numbers x0, y0, x1, y1")
        window = Window(*bounds)
        if not (window.x0 < window.x1 and window.y0 < window.y1
                and math.isfinite(window.area)):
            raise ValueError("window must be finite, with x0 < x1 and y0 < y1")
        return window


@dataclass
class PointConfig:
    """A finite set of city positions inside a rectangular window."""

    points: np.ndarray
    window: Window
    torus: bool = False
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    seed: int | tuple[int, int] | None = None  # s, or replicate i's (s, i): rng_from_seed

    def __post_init__(self):
        if not isinstance(self.torus, bool):
            raise ValueError("torus must be true or false")
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if self.torus and not math.isclose(self.window.width, self.window.height):
            raise ValueError("toroidal window must be square")
        if self.torus and not self.window.contains(self.points).all():
            raise ValueError("toroidal cities must lie in the window")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def density(self) -> float:
        return self.n / self.window.area

    def to_json(self) -> str:
        return json_text(kind=self.kind, params=self.params, seed=self.seed,
                         window=[self.window.x0, self.window.y0, self.window.x1, self.window.y1],
                         torus=self.torus, points=self.points.tolist())

    @staticmethod
    def from_json(text: str) -> "PointConfig":
        doc = _json_object(text)
        seed = doc.get("seed")
        if isinstance(seed, list):  # a Monte Carlo replicate's [seed, replicate]
            if not (len(seed) == 2 and all(type(v) is int and v >= 0 for v in seed)
                    and seed[1] < 2 ** 64):  # type() refuses bool
                raise ValueError("a replicate seed must be two integers [s, i] >= 0, i < 2**64")
            seed = tuple(seed)
        elif seed is not None and not (type(seed) is int and seed >= 0):
            raise ValueError("seed must be null, an integer s >= 0 or a pair [s, i]")
        return PointConfig(
            points=np.array(doc["points"], dtype=float).reshape(-1, 2),
            window=Window.from_bounds(doc["window"]),
            torus=doc["torus"],
            kind=doc.get("kind", "custom"),
            params=_json_params(doc),
            seed=seed,
        )


def rng_from_seed(seed) -> np.random.Generator:
    """Generator of an integer seed s, ``Philox(s)``, or of a Monte Carlo
    replicate's (s, i), ``Philox(s).jumped(i)``; (s, 0) draws what s does."""
    if isinstance(seed, tuple):
        seed, replicate = seed
        return np.random.Generator(np.random.Philox(seed).jumped(replicate))
    return np.random.Generator(np.random.Philox(seed))


def _uniform_points(rng, window: Window, n: int) -> np.ndarray:
    """n i.i.d. uniform points in the window: all x draws, then all y."""
    return np.column_stack([
        rng.uniform(window.x0, window.x1, n),
        rng.uniform(window.y0, window.y1, n),
    ])


def poisson(window: Window, rate: float = 1.0, seed: int = 0, torus: bool = False) -> PointConfig:
    """Poisson point process: count ~ Poisson(rate * area), positions uniform."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    rng = rng_from_seed(seed)
    pts = _uniform_points(rng, window, rng.poisson(rate * window.area))
    return PointConfig(pts, window, torus=torus, kind="poisson",
                       params={"rate": rate}, seed=seed)


def uniform_n(n: int, window: Window, seed: int = 0, torus: bool = False) -> PointConfig:
    """Exactly n i.i.d. uniform points in the window (n whole: 3.0 counts as 3)."""
    n = _whole(n, 0, "n")
    pts = _uniform_points(rng_from_seed(seed), window, n)
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


def _row_lattice(window: Window, kind: str, ell: float, period: float, offsets_even,
                 offsets_odd, cell: str, min_width: float) -> PointConfig:
    """Configuration ``kind``: rows sqrt(3) ell / 2 apart, even/odd x-offsets repeating
    every ``period``, in a window ``min_width`` wide and two rows high (one ``cell``)."""
    row_height = math.sqrt(3.0) * ell / 2.0
    if window.width < min_width or window.height < 2 * row_height:
        raise ValueError(f"window too small for one {cell}")
    # anchor half a cell in from the lower-left corner
    x_anchor = window.x0 + period / 2.0
    y_anchor = window.y0 + row_height / 2.0
    k = np.arange(math.floor((window.x0 - x_anchor) / period) - 1,
                  math.ceil((window.x1 - x_anchor) / period) + 2)
    patterns = []
    for offsets in (offsets_even, offsets_odd):
        x = (x_anchor + k[:, None] * period + np.array(offsets)).ravel()
        patterns.append(x[(window.x0 <= x) & (x <= window.x1)])
    n_rows = max(0, math.floor((window.y1 - y_anchor) / row_height) + 2)
    ys = y_anchor + np.arange(n_rows) * row_height
    ys = ys[ys <= window.y1]  # y grows with the row index, so this keeps a prefix
    rows = [patterns[j % 2] for j in range(len(ys))]
    pts = np.column_stack([np.concatenate([np.empty(0), *rows]),
                           np.repeat(ys, [len(x) for x in rows])])
    return PointConfig(pts, window, kind=kind, params={"spacing": ell})


def hex_config(window: Window) -> PointConfig:
    """Honeycomb (hexagon-vertex) configuration with density 1.

    Nearest-neighbor spacing is 2 * 3^(-3/4) ~ 0.87738; each interior city
    has exactly three neighbors at that distance.
    """
    ell = HEX_SPACING
    return _row_lattice(window, "hex", ell, 3.0 * ell, (0.0, ell), (1.5 * ell, 2.5 * ell),
                        "honeycomb cell", 3 * ell)


def tri_config(window: Window) -> PointConfig:
    """Triangular-lattice configuration with density 1.

    Spacing solves 2 * 3^(-1/2) / l^2 = 1; interior degree 6.
    """
    ell = TRI_SPACING
    return _row_lattice(window, "tri", ell, ell, (0.0,), (0.5 * ell,), "lattice cell", 2 * ell)
