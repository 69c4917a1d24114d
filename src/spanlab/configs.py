"""Point-configuration generators, normalized to one city per unit area.

All generators are pure functions of (parameters, seed).  Randomness uses
the counter-based Philox generator.  A seed is an integer, or a Monte Carlo
replicate's Philox key: ``spawn_keys`` derives all replicates' keys in one
vector pass, each equal to the key of its ``SeedSequence.spawn`` child.
This module also holds the schema version and the one CSV writer of every
versioned output.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
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
    seed: int | np.ndarray | None = None  # an integer or a spawn_keys key

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
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed.tolist() if isinstance(self.seed, np.ndarray) else self.seed,
            "window": [self.window.x0, self.window.y0, self.window.x1, self.window.y1],
            "torus": self.torus,
            "points": [[float(x), float(y)] for x, y in self.points],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "PointConfig":
        doc = _json_object(text)
        seed = doc.get("seed")
        if isinstance(seed, list) and len(seed) == 2:  # a replicate's Philox key
            if not all(type(v) is int and 0 <= v < 2 ** 64 for v in seed):  # no bool
                raise ValueError("a Philox key seed must be two integers in [0, 2**64)")
            seed = np.array(seed, dtype=np.uint64)
        return PointConfig(
            points=np.array(doc["points"], dtype=float).reshape(-1, 2),
            window=Window.from_bounds(doc["window"]),
            torus=doc["torus"],
            kind=doc.get("kind", "custom"),
            params=_json_params(doc),
            seed=seed,
        )


def spawn_keys(master_seed: int, n: int) -> np.ndarray:
    """Philox keys of n replicates, as (n, 2) uint64: row i equals the key
    of the i-th child of ``np.random.SeedSequence(master_seed).spawn(n)``.
    n must be a whole number of at least 1; a float such as 3.0 counts as 3.

    SeedSequence hashes the master's 32-bit words, zero-padded to its pool
    of 4, into the pool, mixes the pool, then mixes in any words past the
    pool: the rest of the master's and the child's spawn word i.  Only
    that last word differs between children, so it alone runs on arrays.
    """
    master = operator.index(master_seed)
    if master < 0:
        raise ValueError("expected non-negative integer")
    n = _whole(n, 1, "replicates")
    words = [master >> shift & 0xFFFFFFFF
             for shift in range(0, max(master.bit_length(), 1), 32)]
    entropy = [*map(np.uint32, words + [0] * (4 - len(words))),
               np.arange(n, dtype=np.uint32)]

    def hasher(const, mult):  # SeedSequence's hashmix and its running constant
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint32(const)
            return value ^ value >> np.uint32(16)
        return hashmix

    def mix(x, y):
        value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return value ^ value >> np.uint32(16)

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    with np.errstate(over="ignore"):  # uint32 arithmetic wraps, as in C
        pool = [hashmix(word) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            pool = [mix(value, hashmix(word)) for value in pool]
        state = np.column_stack([*map(hasher(0x8B51F9DD, 0x58F38DED), pool)])
    return state.astype("<u4").view("<u8").astype(np.uint64)


def rng_from_seed(seed) -> np.random.Generator:
    """Counter-based generator for an integer seed or a ``spawn_keys`` key."""
    if isinstance(seed, np.ndarray):
        return np.random.Generator(np.random.Philox(key=seed))
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


def _row_lattice(window: Window, row_height: float, offsets_even, offsets_odd, period: float):
    """Rows of points; even/odd rows carry different x-offset patterns."""
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
    return np.column_stack([np.concatenate([np.empty(0), *rows]),
                            np.repeat(ys, [len(x) for x in rows])])


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
