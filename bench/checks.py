"""Correctness checks applied to every benchmark item.

Each check returns None when an output is acceptable and a one-line reason
when it is not.  Outputs are compared with construction bounds and analytic
partners under stated tolerances, never with frozen values, so a change
that legitimately alters sampling (which sources are scored, how the torus
is handled) still passes.
"""

from __future__ import annotations

import math

# Worst-case stretch bounds and the slack the acceptance suite allows.
DELAUNAY_STRETCH = 2.4185
GRID_FREEWAY_STRETCH = {"N1": 2.0, "N2": 1.5, "N3": math.sqrt(2.0)}
STRETCH_SLACK = 1e-9
CONE_STRETCH_SLACK = 1e-6
DELAUNAY_LENGTH = 32.0 / (3.0 * math.pi)

# The acceptance suite makes each statistical check once, at a fixed seed,
# at 3 standard errors.  The benchmark repeats them at every seed of every
# run, several per run over a hundred runs and more.  At 3 SE a correct
# program would fail about one check in 370 by chance; the length identity
# is worse, since over ten seeds its z-score averaged +1.0 with spread 1.06,
# so 3 SE fails it about one seed in 30.  At 5 SE a chance failure stays
# near one in 10^4 checks, while a 1500-replicate crossing mean that is
# off by 15% still fails.
SE_MULTIPLIER = 5.0

# The acceptance suite checks the mean length of 8 replicates on a 40x40
# window against a relative floor (2%, 3% for Delaunay).  One replicate on
# a window of area A spreads sqrt(8 * 1600 / A) times as much as that mean,
# so its floor is widened by that factor: 5.7% (8.5%) at 40x40.  That
# holds where the floor, not 3 SE, binds in the acceptance suite.  It does
# not for Lk8 (k = 8, one direction): one replicate spreads 2.05%, so the
# 5.7% floor fails by chance on about one replicate in 170.
ACCEPT_LENGTH_REPLICATES = 8
ACCEPT_LENGTH_AREA = 1600.0


def cone_stretch_bound(k: int) -> float:
    return 1.0 / math.cos(math.pi / k)


def length_tolerance(rel_floor: float, area: float) -> float:
    """Relative tolerance for the length of one replicate on area ``area``."""
    return rel_floor * math.sqrt(ACCEPT_LENGTH_REPLICATES * ACCEPT_LENGTH_AREA / area)


def finite(**values) -> str | None:
    for name, v in values.items():
        if not math.isfinite(v):
            return f"{name} is not finite ({v!r})"
    return None


def stretch(report, bound: float, slack: float = STRETCH_SLACK,
            need_exact: bool = False) -> str | None:
    """Stretch report inside [1, bound]; optionally exact over all pairs."""
    ratio = report.max_ratio
    if not math.isfinite(ratio):
        return f"stretch {ratio!r} is not finite"
    if ratio < 1.0 - STRETCH_SLACK:
        return f"stretch {ratio:.12g} below 1"
    if ratio > bound + slack:
        return f"stretch {ratio:.12g} above bound {bound:.12g}"
    if need_exact and not report.exact:
        return "stretch report is sampled, expected exact"
    return None


def mode_dominance(steiner, graph) -> str | None:
    """Routes that may turn at crossings are never longer."""
    if steiner.max_ratio > graph.max_ratio + STRETCH_SLACK:
        return (f"steiner stretch {steiner.max_ratio:.12g} exceeds graph "
                f"stretch {graph.max_ratio:.12g}")
    return None


def length(value: float, target: float, rel_floor: float, area: float) -> str | None:
    """One replicate's normalized length against its analytic mean."""
    bad = finite(length=value)
    if bad:
        return bad
    tol = length_tolerance(rel_floor, area)
    if abs(value / target - 1.0) > tol:
        return f"length {value:.6g} off target {target:.6g} by more than {tol:.1%}"
    return None


def mean(value: float, se: float, target: float) -> str | None:
    """Sample mean within SE_MULTIPLIER standard errors of its partner."""
    bad = finite(mean=value, se=se)
    if bad:
        return bad
    if abs(value - target) > SE_MULTIPLIER * se:
        return (f"mean {value:.6g} misses {target:.6g} by more than "
                f"{SE_MULTIPLIER:g} SE ({se:.3g})")
    return None


def below(value: float, se: float, bound: float) -> str | None:
    """Sample mean not above an analytic upper bound by SE_MULTIPLIER SE."""
    bad = finite(mean=value, se=se)
    if bad:
        return bad
    if value > bound + SE_MULTIPLIER * se:
        return (f"mean {value:.6g} exceeds bound {bound:.6g} by more than "
                f"{SE_MULTIPLIER:g} SE ({se:.3g})")
    return None


def identity(length_value: float, rate: float, se: float) -> str | None:
    """Line-sampling identity L = (pi/2) * crossing rate."""
    half_pi = math.pi / 2.0
    return mean(half_pi * rate, half_pi * se, length_value)


def band(values, ratio_limit: float, what: str) -> str | None:
    """max/min of positive values at most ratio_limit."""
    bad = finite(**{f"{what}[{i}]": v for i, v in enumerate(values)})
    if bad:
        return bad
    if min(values) <= 0 or max(values) / min(values) > ratio_limit:
        return f"{what} spans a factor above {ratio_limit:g}"
    return None


def at_most(value: float, limit: float, what: str) -> str | None:
    bad = finite(**{what: value})
    if bad:
        return bad
    if value > limit:
        return f"{what} {value:.6g} above {limit:.6g}"
    return None


def relative(value: float, target: float, tol: float, what: str) -> str | None:
    bad = finite(**{what: value})
    if bad:
        return bad
    if abs(value / target - 1.0) > tol:
        return f"{what} {value:.6g} off {target:.6g} by more than {tol:.0%}"
    return None
