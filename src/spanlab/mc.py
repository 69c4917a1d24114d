"""Seeded Monte Carlo experiments paired with analytic predictions.

Every estimator here has an analytic partner (mean network lengths, the
crossing-count moments, the length upper bounds) and exists to confirm
that partner numerically.  Replicates draw independent Philox substreams
from a master seed, so results are reproducible and order-independent.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from spanlab import metrics, nets
from spanlab.configs import SCHEMA_VERSION, Window, poisson, rng_from_seed
from spanlab.metrics import StretchReport

RESULT_CSV_HEADER = "estimator,params,mean,se,n,seed"


@dataclass
class ExperimentResult:
    estimator: str
    params: dict
    n: int
    mean: float
    se: float
    seed: int
    replicate_values: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self) -> str:
        doc = dict(self.__dict__)
        doc["schema_version"] = SCHEMA_VERSION
        return json.dumps(doc)

    def csv_row(self) -> str:
        params = json.dumps(self.params, sort_keys=True).replace('"', "'")
        return (f'{self.estimator},"{params}",{self.mean:.17g},'
                f"{self.se:.17g},{self.n},{self.seed}")


def _replicate_seeds(master_seed: int, n: int) -> list:
    if n < 1:
        raise ValueError("replicates must be at least 1")
    return list(np.random.SeedSequence(master_seed).spawn(n))


def _aggregate(name, params, values, master_seed, t0) -> ExperimentResult:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return ExperimentResult(
        estimator=name, params=params, n=len(values), mean=mean, se=se,
        seed=master_seed, replicate_values=[float(v) for v in values],
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# length / stretch estimators
# ---------------------------------------------------------------------------


def estimate_psi_ave_upper(
    kind: str,
    params: dict | None = None,
    window: Window | None = None,
    replicates: int = 20,
    master_seed: int = 0,
    mode: str = "steiner",
) -> tuple[ExperimentResult, StretchReport]:
    """Empirical (length, stretch) of a builder on toroidal Poisson cities.

    Each replicate samples a rate-1 Poisson configuration on the torus,
    builds the network, and records its normalized length and its interior
    stretch.  Returns the length estimate and the stretch report of the
    worst replicate; together they witness an upper bound on the optimal
    length at that stretch.
    """
    params = dict(params or {})
    window = window or Window.square(40.0)
    if window.area < 100:
        raise ValueError("window area must be at least 100")

    def one(seed_seq):
        config = poisson(window, rate=1.0, seed=seed_seq, torus=True)
        net = nets.build(kind, config, params)
        length = metrics.normalized_length(net, margin_fraction=0.0)
        report = metrics.stretch(net, mode=mode)
        return length, report

    t0 = time.perf_counter()
    out = [one(s) for s in _replicate_seeds(master_seed, replicates)]
    lengths = [length for length, _ in out]
    worst = max((rep for _, rep in out), key=lambda r: r.max_ratio)
    result = _aggregate(f"psi_ave_upper[{kind}]",
                        {**params, "mode": mode, "window": window.area},
                        lengths, master_seed, t0)
    return result, worst


def empirical_Lm(
    m: int,
    window: Window | None = None,
    replicates: int = 20,
    master_seed: int = 0,
) -> ExperimentResult:
    """Mean normalized length of the theta-graph on toroidal Poisson cities."""
    if m < 6 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 6")
    window = window or Window.square(40.0)

    def one(seed_seq):
        config = poisson(window, rate=1.0, seed=seed_seq, torus=True)
        return metrics.normalized_length(nets.theta_graph(config, m),
                                         margin_fraction=0.0)

    t0 = time.perf_counter()
    values = [one(s) for s in _replicate_seeds(master_seed, replicates)]
    return _aggregate("empirical_Lm", {"m": m, "window": window.area},
                      values, master_seed, t0)


def empirical_Lk(
    k: int,
    window: Window | None = None,
    replicates: int = 20,
    master_seed: int = 0,
    direction: int = 0,
) -> ExperimentResult:
    """Mean normalized length of one direction class of the cone network."""
    if k < 2:
        raise ValueError("k must be an integer >= 2")
    window = window or Window.square(40.0)

    def one(seed_seq):
        config = poisson(window, rate=1.0, seed=seed_seq, torus=True)
        net = nets.cone_road_network(config, k, directions=[direction])
        return metrics.normalized_length(net, margin_fraction=0.0)

    t0 = time.perf_counter()
    values = [one(s) for s in _replicate_seeds(master_seed, replicates)]
    return _aggregate("empirical_Lk", {"k": k, "direction": direction,
                                       "window": window.area},
                      values, master_seed, t0)


# ---------------------------------------------------------------------------
# crossing-count experiment
# ---------------------------------------------------------------------------


# Most candidate pairs one block of below-axis points expands at once; at
# about 60 bytes a pair a block peaks near 64 MiB, whatever h is.
_PAIR_BLOCK = 1 << 20


def _crossing_count(xs, ys, h: float, L: float) -> int:
    """Virtual crossings in [0, L] of one point set in the strip |y| <= h.

    A point below the axis (y < 0) and one on or above it (y >= 0) are
    friends when |dx| < dy; their segment then meets the axis at
    x1 + (x2 - x1) * (-y1) / (y2 - y1).  All friend pairs are expanded with
    numpy, in blocks of below-axis points holding at most ``_PAIR_BLOCK``
    candidate pairs (or one point's candidates, when those alone exceed it).
    """
    below = ys < 0
    xb, yb = xs[below], ys[below]
    xa, ya = xs[~below], ys[~below]
    order = np.argsort(xa)
    xa, ya = xa[order], ya[order]
    # |dx| < dy - y1 <= 2h restricts partners to a 2h x-window
    lo = np.searchsorted(xa, xb - 2.0 * h)
    hi = np.searchsorted(xa, xb + 2.0 * h)
    sizes = hi - lo
    ends = np.cumsum(sizes)
    starts = ends - sizes  # flat index of each point's first candidate pair
    count = 0
    i = 0
    while i < len(xb):
        j = max(int(np.searchsorted(ends, starts[i] + _PAIR_BLOCK, side="right")),
                i + 1)
        block = sizes[i:j]
        partner = (np.arange(starts[i], ends[j - 1])
                   + np.repeat(lo[i:j] - starts[i:j], block))
        x1, y1 = np.repeat(xb[i:j], block), np.repeat(yb[i:j], block)
        x2, y2 = xa[partner], ya[partner]
        friends = np.abs(x2 - x1) < (y2 - y1)
        x1, y1, x2, y2 = x1[friends], y1[friends], x2[friends], y2[friends]
        cross = x1 + (x2 - x1) * (-y1) / (y2 - y1)
        count += int(np.count_nonzero((cross >= 0.0) & (cross <= L)))
        i = j
    return count


def crossing_experiment(
    h: float,
    L: float,
    strip_width: float | None = None,
    replicates: int = 2000,
    master_seed: int = 0,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Sample moments of the virtual-crossing count N.

    Each replicate draws a rate-1 Poisson set in the strip
    [-W/2, W/2] x [-h, h]; a pair of points on opposite sides of the x-axis
    with |dx| < |dy| contributes a virtual crossing where its connecting
    segment meets the axis; N counts crossings landing in [0, L].  Returns
    estimates of E N and E N^2.
    """
    if h <= 0 or L <= 0:
        raise ValueError("h and L must be positive")
    W = strip_width if strip_width is not None else 40.0 * max(h, L, 1.0)
    if W < 20.0 * max(L, h):
        raise ValueError("strip width must be at least 20*max(L, h)")

    def one(seed_seq):
        rng = rng_from_seed(seed_seq)
        n = rng.poisson(W * 2.0 * h)
        xs = rng.uniform(-W / 2.0, W / 2.0, n)
        ys = rng.uniform(-h, h, n)
        return _crossing_count(xs, ys, h, L)

    t0 = time.perf_counter()
    counts = [one(s) for s in _replicate_seeds(master_seed, replicates)]
    counts = np.asarray(counts, dtype=float)
    params = {"h": h, "L": L, "W": W}
    first = _aggregate("crossing_N", params, counts, master_seed, t0)
    second = _aggregate("crossing_N2", params, counts ** 2, master_seed, t0)
    return first, second


# ---------------------------------------------------------------------------
# finite-size diagnostics
# ---------------------------------------------------------------------------


def window_sweep(
    estimator,
    windows,
    replicates: int = 20,
    master_seed: int = 0,
    **kwargs,
) -> list[ExperimentResult]:
    """Run a window-taking estimator at each window and report the drift.

    ``estimator`` is one of the callables of this module accepting a
    ``window`` keyword (or any callable with the same convention).
    """
    results = []
    for win in windows:
        if not isinstance(win, Window):
            win = Window.square(float(win))
        out = estimator(window=win, replicates=replicates,
                        master_seed=master_seed, **kwargs)
        results.append(out[0] if isinstance(out, tuple) else out)
    return results


def append_results_csv(path: str, results) -> None:
    """Append experiment rows to a CSV file, writing the header if new."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as f:
        if new:
            f.write(RESULT_CSV_HEADER + "\n")
        for r in results:
            f.write(r.csv_row() + "\n")
