"""Closed-form quantities and bounds for the stretch-length tradeoff.

Worst-case theta-graph stretch bounds s_m, mean theta-graph length L_m,
cone-road mean length L_k, the line-pattern upper bound Psi*, the
crossing-model machinery behind the small-excess lower bound, and fixed
reference constants.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np
from numpy.polynomial.legendre import leggauss

from spanlab.configs import _whole

# enough nodes for double precision on both integrands below (20 fall short)
_GL_NODES, _GL_WEIGHTS = leggauss(24)

# ---------------------------------------------------------------------------
# theta-graphs
# ---------------------------------------------------------------------------


def s_m_bound(m: int) -> float:
    """Best known worst-case stretch of the theta-graph with m cones (m >= 6)."""
    m = _whole(m, 6, "m")
    t = 2.0 * math.pi / m
    if m % 4 == 0:
        return 1.0 + 2.0 * math.sin(t / 2) / (math.cos(t / 2) - math.sin(t / 2))
    if m % 4 == 2:
        return 1.0 + 2.0 * math.sin(t / 2)
    # m odd
    return math.cos(t / 4) / (math.cos(t / 2) - math.sin(3 * t / 4))


def _gauss_legendre(f, lo: float, hi: float) -> float:
    """Gauss-Legendre rule for the vectorized f on [lo, hi]."""
    half = 0.5 * (hi - lo)
    return half * math.fsum(_GL_WEIGHTS * f(lo + half * (_GL_NODES + 1.0)))


def theta_mean_length(m: int) -> float:
    """Mean length per unit area L_m of the theta-graph on a rate-1 Poisson
    process, for even m >= 6.

    An edge from a typical city to the point z in one of its m cones exists
    iff a triangle of area alpha*l(z)^2 is empty, alpha = 1/(4 tan(pi/m));
    the edge is mutual iff a further region of area alpha*(r^2 + (l-r)^2)
    is also empty, where r and l - r are the vertical distances from z to
    the cone boundaries (bisector drawn horizontal).  Mutual edges are
    counted half to avoid double-counting.

    The integral reduces exactly to one dimension.  With r = l*v,
    u = v - 1/2, a = 2 alpha and q(u) = 3/2 + 2u^2, the integrand in (l, u),
    Jacobian included, is l^2 sqrt(a^2 + u^2) [exp(-alpha l^2) -
    exp(-alpha l^2 q(u))/2], and int_0^inf l^2 exp(-beta l^2) dl =
    sqrt(pi) / (4 beta^(3/2)).  So L_m = m sqrt(pi tan(pi/m)) * int
    sqrt(a^2 + u^2) (1 - q(u)^(-3/2)/2) du over [-1/2, 1/2], by the 24-node
    Gauss-Legendre rule (the nearest singularities are at u = +-i sqrt(3)/2).
    """
    if not m >= 6 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 6")
    t = math.tan(math.pi / m)
    return m * math.sqrt(math.pi * t) * _gauss_legendre(
        lambda u: np.hypot(0.5 / t, u) * (1.0 - 0.5 * (1.5 + 2.0 * u * u) ** -1.5), -0.5, 0.5)


# ---------------------------------------------------------------------------
# cone-road networks
# ---------------------------------------------------------------------------


def _cone_area_factor(omega, k: int):
    """Exponent coefficient: area of the mutual-exclusion region over r^2."""
    return (math.pi / k - np.cos(omega) * np.sin(omega)
            + np.sin(omega) ** 2 * (math.cos(math.pi / k) / math.sin(math.pi / k)))


def cone_Lk(k: int) -> float:
    """Mean length per unit area L_k of one direction-pair of cone roads.

    Every city is linked to its Euclidean-nearest city in an angle-pi/k cone
    and in the opposite cone; L_k is the resulting mean length per unit area
    over a rate-1 Poisson process: sqrt(2k) (1 - M/2), M the mean over
    omega in [0, pi/k] of (A1 / A(omega))^(3/2), A the area factor and
    A1 = pi/(2k) its one-cone counterpart, by the 24-node Gauss-Legendre
    rule (A's nearest zeros are 1.15 to sqrt(3) half-lengths off [0, pi/k]).
    """
    k = _whole(k, 2, "k")
    t = math.pi / k
    val = _gauss_legendre(lambda w: (0.5 * t / _cone_area_factor(w, k)) ** 1.5, 0.0, t)
    return math.sqrt(2.0 * k) * (1.0 - 0.5 * val / t)


# ---------------------------------------------------------------------------
# line-pattern upper bound
# ---------------------------------------------------------------------------


def psi_star(s: float) -> float:
    """Worst-case length upper bound achievable by periodic line patterns,
    defined for 1 < s < 2."""
    if not 1.0 < s < 2.0:
        raise ValueError(f"psi_star requires 1 < s < 2, got {s}")
    phi = math.pi / 2.0 - math.asin(1.0 / s)
    n_dirs = math.ceil(math.pi / phi)
    dup = math.ceil(1.0 / (s - 1.0))
    return 2.0 * n_dirs * math.sqrt((1.0 + dup) * math.tan(phi)) / math.sin(phi)


# ---------------------------------------------------------------------------
# crossing model for the small-excess lower bound
# ---------------------------------------------------------------------------


def g_of_delta(delta: float) -> float:
    """Excess stretch forced on a route whose axis-crossing is displaced by
    delta (in units of the strip half-height); g(delta) ~ delta^2/8 near 0."""
    return (
        math.sqrt(1.0 + (1.0 + delta) ** 2) + math.sqrt(1.0 + (1.0 - delta) ** 2)
    ) / (2.0 * math.sqrt(2.0)) - 1.0


def g_inverse(s: float) -> float:
    """Inverse of g on [0, 64] in closed form: g(delta) = s puts (delta, 1)
    on the ellipse with foci (+-1, 0) and semi-major axis a = sqrt(2)(1 + s),
    so delta^2 = a^2 (a^2 - 2) / (a^2 - 1).  With w = (a^2 - 2)/2 = s(2 + s),
    free of cancellation at small s, delta = 2 sqrt(w (1 + w) / (1 + 2w))."""
    if not s >= 0:
        raise ValueError("s must be a nonnegative number")
    if s > g_of_delta(64.0):
        raise ValueError(f"s={s} out of inversion range (0, {g_of_delta(64.0)}]")
    w = s * (2.0 + s)
    return 2.0 * math.sqrt(w * (1.0 + w) / (1.0 + 2.0 * w))


def delta_hs(h: float, s: float) -> float:
    """Maximum displacement between the straight crossing position and the
    route crossing position, for friends in a half-height-h strip under
    stretch excess s."""
    if not (h > 0 and s > 0):
        raise ValueError("h and s must be positive")
    return h * g_inverse(s)


def expected_crossings(h: float, L: float) -> float:
    """Mean number of virtual crossing positions in [0, L]: 2 h^3 L."""
    if not (0.0 <= h < math.inf and 0.0 <= L < math.inf):
        raise ValueError("h and L must be nonnegative and finite")
    return 2.0 * h ** 3 * L


def area_A(x0: float, y0: float, h: float, L: float) -> float:
    """Area of friend positions of the point (x0, -y0) whose virtual
    crossing lands in [0, L]; piecewise by region, assuming h > L/2.
    """
    if h <= L / 2.0:
        raise ValueError("area_A requires h > L/2")
    if not 0.0 < y0 < h:
        raise ValueError("point outside region: need 0 < y0 < h")
    if not -y0 < x0 < L + y0:
        raise ValueError("point outside region: need dist(x0, [0, L]) < y0")
    base = (h + y0) ** 2 - y0 ** 2
    if y0 <= x0 <= L - y0:
        return base  # crossing interval fully inside [0, L]
    if L - y0 <= x0 <= y0:
        return (L / (2.0 * y0)) * base  # crossing interval covers [0, L]
    if x0 > L / 2.0:
        return 0.5 * (1.0 + (L - x0) / y0) * base  # right trapezoid case
    return 0.5 * (1.0 + x0 / y0) * base  # left case, mirror x0 -> L - x0


def _crossing_moments(hs, ls):
    """((E N)^2, the upper bound on E N^2) of the virtual-crossing count
    N(h, L) at every (h, L) of the grid hs x ls, valid for h > L/2.

    E N^2 splits into the diagonal (E N), ordered pairs of crossings with
    four distinct endpoints ((E N)^2, exact by the Mecke formula), and
    ordered pairs of crossings sharing an endpoint.  The shared-endpoint
    term is bounded by replacing the friend-region area at depth y0 with
    its maximum over horizontal position, ((h+y0)^2 - y0^2) min(1, L/2y0);
    near and far below are that integral split at y0 = L/2, and the
    leading factor 2 counts the two orders of each shared pair (verified
    against a direct Monte Carlo oracle).  Numpy arithmetic in the scalar
    formula's order, but scalar powers and logs (numpy's SIMD ones may differ).
    """
    def each(f, a, *rest):
        return np.fromiter(map(f, a.ravel().tolist(), *rest), float,
                           a.size).reshape(a.shape)

    h, L = np.asarray(hs)[:, None], np.asarray(ls)[None, :]
    h2, h3, h4 = (np.array([v ** k for v in hs])[:, None] for k in (2, 3, 4))
    L2, L3, L4 = (np.array([v ** k for v in ls])[None, :] for k in (2, 3, 4))
    mean = 2.0 * h3 * L  # expected_crossings
    square = each(pow, mean, repeat(2))
    near = 0.75 * h4 * L2 + (5.0 / 6.0) * h3 * L3 + (7.0 / 24.0) * h2 * L4
    far = (3.5 * h4 * L2 - 0.25 * h3 * L3 - 0.75 * h2 * L4
           + (0.5 * L2 * h4 + L3 * h3) * each(math.log, 2.0 * h / L))
    return square, mean + square + 2.0 * (near + far)


def second_moment_upper(h: float, L: float) -> float:
    """Closed-form upper bound on E N(h, L)^2 for 0 < L < 2h (``_crossing_moments``)."""
    if not 0.0 < L < 2.0 * h < math.inf:
        raise ValueError("second_moment_upper requires 0 < L < 2h and a finite h")
    return float(_crossing_moments([h], [L])[1][0, 0])


def prop38_lower_bound(s: float):
    """Small-excess lower bound on achievable normalized length at stretch
    1 + s, maximized over the crossing-model parameters (h, L).

    Searches a log-spaced 64 x 64 grid h in [s^-1/16, s^-1/4], L in
    [s^1/2, s^1/4] seeded with the schedule h = s^-1/8, L = s^3/8, then
    refines locally in three rounds.
    Returns (value, best_h, best_L).
    """
    if not 0.0 < s < 0.1:
        raise ValueError("prop38_lower_bound requires 0 < s < 0.1")
    ginv = g_inverse(s)

    def objective(hs, ls):
        square, bound = _crossing_moments(hs, ls)
        h, L = np.asarray(hs)[:, None], np.asarray(ls)[None, :]
        return np.where(h <= L / 2.0, -math.inf, square / bound / (L + 2.0 * h * ginv))

    hs = np.geomspace(s ** (-1.0 / 16.0), s ** (-0.25), 64)
    ls = np.geomspace(math.sqrt(s), s ** 0.25, 64)
    span = max(hs[1] / hs[0], ls[1] / ls[0])
    h0, l0 = s ** (-0.125), s ** 0.375
    best = (float(objective([h0], [l0])[0, 0]), h0, l0)
    for _ in range(4):  # the grid, then three local refinements
        v = objective(hs, ls)
        # the first strict maximum in row-major order, if it beats best
        i, j = np.unravel_index(np.argmax(v), v.shape)
        if v[i, j] > best[0]:
            best = (v[i, j], hs[i], ls[j])
        hs = np.geomspace(best[1] / span, best[1] * span, 9)
        ls = np.geomspace(best[2] / span, best[2] * span, 9)
        span = span ** 0.4
    return (math.pi / 2.0) * best[0], best[1], best[2]


# ---------------------------------------------------------------------------
# reference constants
# ---------------------------------------------------------------------------


def reference_constants() -> list[tuple[str, dict, float, str]]:
    """Fixed table of reference constants and exponents, as
    (name, params, value, tag) rows."""
    return [
        ("steiner_constant_worst_lower", {}, (3.0 / 4.0) ** 0.25,
         "hexagonal-steiner-ratio"),
        ("steiner_constant_worst_upper", {}, 0.995, "chung-graham-bound"),
        ("delaunay_stretch", {}, 2.0 * math.pi / (3.0 * math.cos(math.pi / 6.0)),
         "delaunay-spanner-bound"),
        ("delaunay_length", {}, 32.0 / (3.0 * math.pi), "delaunay-mean-length"),
        ("graph_spanner_exponent_worst", {}, 4.0, "mst-based-spanner"),
        ("line_pattern_exponent_worst", {}, 1.25, "line-pattern-upper"),
        ("theta_graph_exponent_ave", {}, 1.5, "theta-graph-upper"),
        ("cone_road_exponent_ave", {}, 0.75, "cone-road-upper"),
        ("cone_road_prefactor_ave", {}, 2.0 ** (-0.25) * math.pi ** 1.5,
         "cone-road-upper"),
        ("lower_bound_exponent_ave", {}, 3.0 / 8.0, "crossing-rate-lower"),
    ]
