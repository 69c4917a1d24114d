"""Seeded Monte Carlo experiments paired with analytic predictions.

Every estimator here has an analytic partner (mean network lengths, the
crossing-count moments, the length upper bounds) and exists to confirm
that partner numerically.  Replicate i of an experiment seeded s draws
from its own Philox substream, ``Philox(s).jumped(i)``: the key of
``Philox(s)`` with counter word 2 set to i.  So results are reproducible
and order-independent, and replicate 0 draws what the plain seed s draws.
A crossing replicate reads its n points in one ``random(2n)`` call, x
from the first n doubles and y from the next n: the same values as
``uniform(-W/2, W/2, n)`` then ``uniform(-h, h, n)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from spanlab import metrics, nets
from spanlab.configs import Window, _whole, json_text, poisson
from spanlab.metrics import StretchReport


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
        return json_text(**self.__dict__)


def _aggregate(name, params, values, master_seed, t0) -> ExperimentResult:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.nan
    return ExperimentResult(
        estimator=name, params=params, n=len(values), mean=mean, se=se,
        seed=master_seed, replicate_values=values.tolist(),
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# length / stretch estimators
# ---------------------------------------------------------------------------


def _torus_lengths(estimator, kind, params, window, replicates, master_seed,
                   result_params, visit=None) -> ExperimentResult:
    """Mean normalized length of builder ``kind`` of ``nets.BUILDERS`` over
    rate-1 Poisson cities on the torus ``window``, replicate i drawn from the
    seed (master_seed, i); ``visit``, if given, also sees each replicate's
    network.  The result's params are ``result_params`` plus the window area."""
    t0 = time.perf_counter()
    values = []
    for i in range(_whole(replicates, 1, "replicates")):
        net = nets.build(kind, poisson(window, rate=1.0, seed=(master_seed, i), torus=True),
                         params)
        values.append(metrics.normalized_length(net, margin_fraction=0.0))
        if visit is not None:
            visit(net)
    return _aggregate(estimator, {**result_params, "window": window.area}, values,
                      master_seed, t0)


def estimate_psi_ave_upper(
    kind: str,
    params: dict | None = None,
    window: Window = Window.square(40.0),
    replicates: int = 20,
    master_seed: int = 0,
    mode: str = "steiner",
) -> tuple[ExperimentResult, StretchReport]:
    """Empirical (length, stretch) of a builder on toroidal Poisson cities.

    Each replicate samples a rate-1 Poisson configuration on the torus,
    builds the network, and records its normalized length and its stretch
    over every city, by minimal-image distance.  Returns the length estimate and the stretch report of the
    worst replicate; together they witness an upper bound on the optimal
    length at that stretch.
    """
    params = dict(params or {})
    if window.area < 100:
        raise ValueError("window area must be at least 100")
    reports = []
    result = _torus_lengths(f"psi_ave_upper[{kind}]", kind, params, window, replicates,
                            master_seed, {**params, "mode": mode},
                            lambda net: reports.append(metrics.stretch(net, mode=mode)))
    return result, max(reports, key=lambda r: r.max_ratio)


def empirical_Lm(
    m: int,
    window: Window = Window.square(40.0),
    replicates: int = 20,
    master_seed: int = 0,
) -> ExperimentResult:
    """Mean normalized length of the theta-graph on toroidal Poisson cities."""
    if m < 6 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 6")
    return _torus_lengths("empirical_Lm", "theta", {"m": m}, window, replicates,
                          master_seed, {"m": m})


def empirical_Lk(
    k: int,
    window: Window = Window.square(40.0),
    replicates: int = 20,
    master_seed: int = 0,
) -> ExperimentResult:
    """Mean normalized length of direction class 0 of the cone network on
    toroidal Poisson cities."""
    return _torus_lengths("empirical_Lk", "cone", {"k": k, "directions": [0]}, window,
                          replicates, master_seed, {"k": k, "direction": 0})


# ---------------------------------------------------------------------------
# crossing-count experiment
# ---------------------------------------------------------------------------


# Most candidate pairs one block of below-axis points expands at once; at
# about 60 bytes a pair a block peaks near 64 MiB, whatever h is.
_PAIR_BLOCK = 1 << 20


def _crossing_counts(rep, xs, ys, h: float, L: float, replicates: int) -> np.ndarray:
    """Virtual crossings in [0, L] of each replicate's points in the strip
    |y| <= h; point k belongs to replicate ``rep[k]`` in [0, replicates).

    A point below the axis (y < 0) and one on or above it (y >= 0) of the
    same replicate are friends when |dx| < dy; their segment then meets the
    axis at x1 + (x2 - x1) * (-y1) / (y2 - y1), less than -y1 from x1 and
    at most y2 from x2.  So a point counts only within its reach |y| of
    [0, L]; the reach kept adds a margin of 1e-9 (1 + h + L + |x|), far
    above rounding.  Above-axis points are sorted by the exact complex key
    rep + i x, which numpy orders lexicographically, so each below-axis
    point finds its partners in its own replicate's x-window of half-width
    h + its reach, as |dx| < y2 - y1 <= h - y1.  All friend pairs are
    expanded with numpy, in blocks of below-axis points holding at most
    ``_PAIR_BLOCK`` candidate pairs (or one point's candidates, when those
    alone exceed it).
    """
    reach = np.abs(ys) + 1e-9 * (1.0 + h + L + np.abs(xs))
    keep = (xs >= -reach) & (xs <= L + reach)
    below, above = keep & (ys < 0), keep & (ys >= 0)
    rb, xb, yb, half = rep[below], xs[below], ys[below], h + reach[below]
    key = rep[above] + 1j * xs[above]
    order = np.argsort(key)
    key, ya = key[order], ys[above][order]
    xa = key.imag
    lo = np.searchsorted(key, rb + 1j * (xb - half))
    hi = np.searchsorted(key, rb + 1j * (xb + half))
    sizes = hi - lo
    ends = np.cumsum(sizes)
    starts = ends - sizes  # flat index of each point's first candidate pair
    counts = np.zeros(replicates, dtype=np.int64)
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
        hit = (cross >= 0.0) & (cross <= L)
        counts += np.bincount(np.repeat(rb[i:j], block)[friends][hit],
                              minlength=replicates)
        i = j
    return counts


def crossing_experiment(
    h: float,
    L: float,
    replicates: int = 2000,
    master_seed: int = 0,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Sample moments of the virtual-crossing count N.

    Each replicate draws a rate-1 Poisson set in the strip
    [-W/2, W/2] x [-h, h], W = 40 max(h, L, 1); a pair of points on opposite sides of the x-axis
    with |dx| < |dy| contributes a virtual crossing where its connecting
    segment meets the axis; N counts crossings landing in [0, L].  Returns
    estimates of E N and E N^2.

    Only the points whose x-double maps into [-h - 1, L + h + 1] are mapped
    and handed to ``_crossing_counts``, chunk by chunk; no other point can
    count.
    """
    if not (0.0 < h < math.inf and 0.0 < L < math.inf):
        raise ValueError("h and L must be positive and finite")
    W = 40.0 * max(h, L, 1.0)
    # a replicate's expected hW points below the axis and hW above make at
    # most (hW)^2 candidate pairs, so a chunk expects at most one pair block
    chunk = max(1, int(_PAIR_BLOCK / max(h * W, 1.0) ** 2))
    # the doubles u that x = -W/2 + W u maps into [-h - 1, L + h + 1]; the
    # kernel keeps x only in [-h, L + h] and its rounding margin, so the 1 on
    # each side covers the rounding of u_lo, u_hi and the map
    u_lo, u_hi = 0.5 - (h + 1.0) / W, 0.5 + (L + h + 1.0) / W
    t0 = time.perf_counter()
    replicates = _whole(replicates, 1, "replicates")
    # one Philox, set per replicate i to the state Philox(master_seed).jumped(i)
    # starts in: the master key, counter (0, 0, i, 0) and an empty buffer
    bitgen = np.random.Philox(master_seed)
    rng, state = np.random.Generator(bitgen), bitgen.state
    counts = []
    for start in range(0, replicates, chunk):
        xs, ys = [], []
        for i in range(start, min(start + chunk, replicates)):
            state["state"]["counter"][2] = i
            bitgen.state = state
            n = rng.poisson(W * 2.0 * h)
            u = rng.random(2 * n)
            xs.append(u[:n])
            ys.append(u[n:])
        ux = np.concatenate(xs)
        kept = np.flatnonzero((ux >= u_lo) & (ux <= u_hi))
        # replicate i of the chunk holds the points from ends[i - 1] to ends[i]
        ends = np.cumsum([len(x) for x in xs])
        rep = np.searchsorted(ends, kept, side="right")
        # uniform(low, high) is low + (high - low) * the next double, and the
        # ranges W and 2h are exact: the same bits as two uniform calls
        counts.append(_crossing_counts(rep, -W / 2.0 + W * ux[kept],
                                       -h + 2.0 * h * np.concatenate(ys)[kept],
                                       h, L, len(xs)))
    counts = np.concatenate(counts).astype(float)
    params = {"h": h, "L": L, "W": W}
    first = _aggregate("crossing_N", params, counts, master_seed, t0)
    second = _aggregate("crossing_N2", params, counts ** 2, master_seed, t0)
    return first, second
