"""Tests for the analytic bounds and constants.

Closed-form values are checked against independent oracles: second
quadrature paths in different coordinates, direct numerical integration,
40-digit mpmath evaluations and exact special values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import IntegrationWarning, dblquad, quad

from spanlab import analytic

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# the dblquad oracles truncate infinite domains where the exponential factor
# drops below this fraction of its peak; the tail is far below their tolerance
_TAIL = 1e-14


def _theta_mean_length_cartesian(m):
    """L_m by raw Cartesian quadrature over one cone, bisector horizontal:
    the second integration path for :func:`analytic.theta_mean_length`."""
    tan_half = math.tan(math.pi / m)
    alpha = math.cos(math.pi / m) / (4.0 * math.sin(math.pi / m))
    x_max = math.sqrt(math.log(1.0 / _TAIL) / alpha) / (2.0 * tan_half)

    def integrand(y, x):
        l = 2.0 * x * tan_half
        r = y + x * tan_half
        weight = math.exp(-alpha * l * l) - 0.5 * math.exp(
            -alpha * (l * l + r * r + (l - r) ** 2))
        return math.hypot(x, y) * weight

    val, _err = dblquad(integrand, 0.0, x_max,
                        lambda x: -x * tan_half, lambda x: x * tan_half,
                        epsabs=1e-6 / m, epsrel=1e-10)
    return m * val


def _cone_Lk_2d(k):
    """L_k via the pre-integrated (r, omega) form: quadrature of
    r^2 [2 p(r, omega) - p1(r, omega)] over the cone, as a cross-check of
    :func:`analytic.cone_Lk`."""
    a0 = math.pi / (2.0 * k)
    r_max = math.sqrt(math.log(1.0 / _TAIL) / a0)

    def integrand(omega, r):
        p = math.exp(-a0 * r * r)
        p1 = math.exp(-r * r * analytic._cone_area_factor(omega, k))
        return r * r * (2.0 * p - p1)

    val, _err = dblquad(integrand, 0.0, r_max, 0.0, math.pi / k,
                        epsabs=1e-8, epsrel=1e-10)
    return val


def _theta_mean_length_mpmath(m):
    """L_m at 40 digits: the l-integral in closed form, then the whole
    u-integrand by mpmath quadrature, in the (a, alpha) form of the
    derivation."""
    with mp.workdps(40):
        a = 1 / (2 * mp.tan(mp.pi / m))
        alpha = mp.cos(mp.pi / m) / (4 * mp.sin(mp.pi / m))

        def integrand(u):
            q = mp.mpf(3) / 2 + 2 * u * u
            return mp.sqrt(a * a + u * u) * (alpha ** -1.5 - (alpha * q) ** -1.5 / 2)

        return float(m * a * mp.sqrt(mp.pi) / 4 * mp.quad(integrand, [-0.5, 0, 0.5]))


def _cone_Lk_mpmath(k):
    """L_k at 40 digits: sqrt(2k) - sqrt(pi)/4 times the integral of
    A(omega)^(-3/2) over the cone, A the mutual-exclusion area factor
    pi/k - cos(omega) sin(omega) + sin(omega)^2 cot(pi/k)."""
    with mp.workdps(40):
        t = mp.pi / k

        def integrand(omega):
            return (t - mp.cos(omega) * mp.sin(omega) + mp.sin(omega) ** 2 * mp.cot(t)) ** -1.5

        return float(mp.sqrt(2 * k) - mp.sqrt(mp.pi) / 4 * mp.quad(integrand, [0, t / 2, t]))


def _g_inverse_mpmath(s):
    """g^-1(s) at 40 digits: the root of g(delta) = s by mpmath's secant
    search from the small-s asymptote sqrt(8 s)."""
    with mp.workdps(40):
        s = mp.mpf(s)

        def excess(d):
            return (mp.sqrt(1 + (1 + d) ** 2) + mp.sqrt(1 + (1 - d) ** 2)) / (2 * mp.sqrt(2)) - 1 - s

        root = mp.findroot(excess, mp.sqrt(8 * s))
        assert root > 0
        return float(root)


class TestThetaStretch:
    @pytest.mark.parametrize("m,expected", [
        (6, 2.0),
        (8, 1.0 + math.sqrt(2.0)),
        (10, GOLDEN),
        (12, math.sqrt(3.0)),
        (14, 1.0 + 2.0 * math.sin(math.pi / 14.0)),
    ])
    def test_known_closed_forms(self, m, expected):
        assert analytic.s_m_bound(m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [7, 9])
    def test_odd_m_matches_mpmath(self, m):
        with mp.workdps(40):
            t = 2 * mp.pi / m
            want = float(mp.cos(t / 4) / (mp.cos(t / 2) - mp.sin(3 * t / 4)))
        assert analytic.s_m_bound(m) == pytest.approx(want, rel=1e-14)

    def test_small_m_rejected(self):
        for m in (5, math.inf, math.nan):
            with pytest.raises(ValueError):
                analytic.s_m_bound(m)

    def test_tends_to_one(self):
        assert analytic.s_m_bound(1000) == pytest.approx(1.0, abs=0.01)


class TestThetaMeanLength:
    @pytest.mark.parametrize("m,frozen", [
        (6, 5.64207647367675),
        (8, 8.662467890597922),
        (10, 12.095811107130821),
    ])
    def test_frozen_quadrature_values(self, m, frozen):
        assert analytic.theta_mean_length(m) == pytest.approx(frozen, rel=1e-9)

    @pytest.mark.parametrize("m", [6, 8, 12, 16, 24])
    def test_two_integration_paths_agree(self, m):
        a = analytic.theta_mean_length(m)
        b = _theta_mean_length_cartesian(m)
        assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("m", [6, 8, 10, 16, 64, 1000, 10 ** 4])
    def test_matches_mpmath(self, m):
        assert analytic.theta_mean_length(m) == pytest.approx(
            _theta_mean_length_mpmath(m), rel=1e-15)

    def test_no_integration_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for m in range(6, 201, 2):
                analytic.theta_mean_length(m)

    def test_growth_band(self):
        # length grows like m^(3/2) with a stable prefactor
        ratios = [analytic.theta_mean_length(m) / m ** 1.5
                  for m in range(6, 65, 2)]
        assert max(ratios) / min(ratios) < 2.0

    def test_small_m_rejected(self):
        for m in (4, math.inf, math.nan):
            with pytest.raises(ValueError):
                analytic.theta_mean_length(m)


class TestConeLength:
    @pytest.mark.parametrize("k,frozen", [
        (2, 1.4899040893359548),
        (3, 1.855236751733575),
        (4, 2.1514857208105207),
        (8, 3.053768990114249),
    ])
    def test_frozen_values(self, k, frozen):
        assert analytic.cone_Lk(k) == pytest.approx(frozen, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
    def test_1d_and_2d_quadrature_agree(self, k):
        assert analytic.cone_Lk(k) == pytest.approx(_cone_Lk_2d(k), rel=1e-8)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 64, 1000])
    def test_matches_mpmath(self, k):
        assert analytic.cone_Lk(k) == pytest.approx(_cone_Lk_mpmath(k), rel=1e-15)

    def test_upper_envelope(self):
        for k in range(2, 65):
            assert k * analytic.cone_Lk(k) <= math.sqrt(2.0) * k ** 1.5

    def test_monotone_in_k(self):
        vals = [analytic.cone_Lk(k) for k in range(2, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_k_rejected(self):
        for k in (1, math.inf, math.nan):
            with pytest.raises(ValueError):
                analytic.cone_Lk(k)


class TestPsiStar:
    def test_frozen_value(self):
        assert analytic.psi_star(1.5) == pytest.approx(19.65687021150528,
                                                       rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 2.5, math.inf, math.nan])
    def test_domain(self, s):
        with pytest.raises(ValueError):
            analytic.psi_star(s)

    def test_small_excess_scaling(self):
        target = 2.0 ** 0.25 * math.pi
        for j in (3, 4, 5):
            s = 1.0 + 10.0 ** (-j)
            scaled = analytic.psi_star(s) * (s - 1.0) ** 1.25
            assert abs(scaled - target) / target < 0.1


class TestCrossingModel:
    def test_g_special_values(self):
        assert analytic.g_of_delta(0.0) == pytest.approx(0.0, abs=1e-15)
        # displacement 1 forces the route through (0, 1) detour exactly
        expected = (math.sqrt(5.0) + 1.0) / (2.0 * math.sqrt(2.0)) - 1.0
        assert analytic.g_of_delta(1.0) == pytest.approx(expected)

    @pytest.mark.parametrize("delta", [1e-4, 1e-3, 1e-2])
    def test_g_quadratic_near_zero(self, delta):
        assert analytic.g_of_delta(delta) == pytest.approx(delta ** 2 / 8.0,
                                                           rel=5e-3)

    @given(st.floats(min_value=1e-9, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_g_inverse_round_trip(self, s):
        assert analytic.g_of_delta(analytic.g_inverse(s)) == pytest.approx(
            s, rel=1e-9)

    @pytest.mark.parametrize("s", np.geomspace(1e-12, 10.0, 27).tolist())
    def test_g_inverse_matches_mpmath(self, s):
        assert analytic.g_inverse(s) == pytest.approx(_g_inverse_mpmath(s), rel=1e-15)

    def test_g_inverse_domain(self):
        assert analytic.g_inverse(0.0) == 0.0
        for s in (-1e-300, 1e3, math.inf, math.nan):
            with pytest.raises(ValueError):
                analytic.g_inverse(s)
        for h, s in ((0.0, 0.1), (1.0, 0.0), (math.nan, 0.1), (1.0, math.nan)):
            with pytest.raises(ValueError):
                analytic.delta_hs(h, s)

    def test_delta_hs_scales_linearly_in_h(self):
        assert analytic.delta_hs(3.0, 0.01) == pytest.approx(
            3.0 * analytic.delta_hs(1.0, 0.01))

    def test_expected_crossings(self):
        assert analytic.expected_crossings(2.0, 0.5) == 8.0
        assert analytic.expected_crossings(0.0, 5.0) == 0.0

    @pytest.mark.parametrize("h,L", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0),
                                     (math.inf, 0.0), (0.0, math.inf), (math.inf, 1.0)])
    def test_expected_crossings_domain(self, h, L):
        with pytest.raises(ValueError):
            analytic.expected_crossings(h, L)


def _area_A_numeric(x0, y0, h, L):
    """Direct integration oracle for the friend-region area."""
    def width(y):
        lo = max(x0 - (y + y0), x0 - x0 * (y + y0) / y0)
        hi = min(x0 + (y + y0), x0 + (L - x0) * (y + y0) / y0)
        return max(0.0, hi - lo)

    return quad(width, 0.0, h, limit=200)[0]


class TestAreaA:
    @pytest.mark.parametrize("x0,y0,h,L", [
        (5.0, 3.0, 10.0, 10.0),   # interval strictly inside [0, L]
        (0.5, 2.0, 10.0, 1.0),    # interval covers [0, L]
        (9.0, 2.0, 10.0, 10.0),   # right overhang
        (1.0, 2.0, 10.0, 10.0),   # left overhang
        (0.3, 0.4, 1.0, 0.5),
    ])
    def test_matches_direct_integration(self, x0, y0, h, L):
        assert analytic.area_A(x0, y0, h, L) == pytest.approx(
            _area_A_numeric(x0, y0, h, L), rel=1e-9)

    def test_outside_region_rejected(self):
        with pytest.raises(ValueError):
            analytic.area_A(25.0, 2.0, 10.0, 10.0)
        with pytest.raises(ValueError):
            analytic.area_A(5.0, 11.0, 10.0, 10.0)

    @pytest.mark.parametrize("h", [5.0, 2.0])
    def test_h_at_most_half_L_rejected(self, h):
        with pytest.raises(ValueError, match=r"requires h > L/2"):
            analytic.area_A(5.0, 1.0, h, 10.0)


def _scalar_second_moment(h, L):
    """Reference: the scalar closed form of second_moment_upper, as written
    before the bound and the prop38 objective shared one evaluation."""
    mean = analytic.expected_crossings(h, L)
    near = 0.75 * h**4 * L**2 + (5.0 / 6.0) * h**3 * L**3 + (7.0 / 24.0) * h**2 * L**4
    far = (
        3.5 * h**4 * L**2
        - 0.25 * h**3 * L**3
        - 0.75 * h**2 * L**4
        + (0.5 * L**2 * h**4 + L**3 * h**3) * math.log(2.0 * h / L)
    )
    return mean + mean ** 2 + 2.0 * (near + far)


class TestSecondMoment:
    def test_domain(self):
        # h <= L/2, L = 0 (a division by zero in the scalar form), L < 0, and a
        # non-finite h or L (an infinite h gave nan with a RuntimeWarning)
        for h, L in [(0.5, 1.0), (1.0, 0.0), (-1.0, -4.0), (math.inf, 1.0),
                     (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValueError):
                analytic.second_moment_upper(h, L)

    def test_matches_scalar_form_bit_for_bit(self):
        hs = np.geomspace(1e-3, 1e5, 41).tolist()
        for h in hs + [1.0, 2.0, 5.0, 1e5]:
            for L in [*np.geomspace(1e-12, 2.0 * h, 40)[:-1].tolist(), h, 0.2, 0.5, 1.0]:
                if h > L / 2.0:
                    assert analytic.second_moment_upper(h, L) == _scalar_second_moment(h, L)

    @pytest.mark.parametrize("h,L,frozen", [
        (1.0, 1.0, 16.829441541679834),
        (2.0, 0.5, 119.41414925007902),
    ])
    def test_frozen_values(self, h, L, frozen):
        assert analytic.second_moment_upper(h, L) == pytest.approx(frozen,
                                                                   rel=1e-12)

    @pytest.mark.parametrize("h,L", [(1.0, 1.0), (2.0, 0.5), (5.0, 0.2)])
    def test_closed_form_matches_quadrature(self, h, L):
        def integrand(y):
            area_max = ((h + y) ** 2 - y ** 2) * min(1.0, L / (2.0 * y))
            return (L + 2.0 * y) * area_max ** 2

        integral = quad(integrand, 0.0, h, limit=200)[0]
        mean = analytic.expected_crossings(h, L)
        assert analytic.second_moment_upper(h, L) == pytest.approx(
            mean + mean ** 2 + 2.0 * integral, rel=1e-8)

    @pytest.mark.parametrize("h,L", [(1.0, 1.0), (2.0, 0.5), (5.0, 0.2)])
    def test_dominates_exact_second_moment(self, h, L):
        # exact shared-endpoint term from the exact piecewise areas
        def per_y(y):
            return quad(lambda x0: analytic.area_A(x0, y, h, L) ** 2,
                        -y, L + y, limit=200)[0]

        shared = quad(per_y, 0.0, h, limit=100)[0]
        mean = analytic.expected_crossings(h, L)
        exact = mean + mean ** 2 + 2.0 * shared
        assert analytic.second_moment_upper(h, L) >= exact

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_poisson_limit(self, lam):
        h = 1e5
        L = lam / (2.0 * h ** 3)
        bound = analytic.second_moment_upper(h, L)
        assert bound == pytest.approx(lam ** 2 + lam, rel=1e-2)


def _loop_prop38(s):
    """The scalar grid search :func:`analytic.prop38_lower_bound` runs on
    arrays: one objective call per (h, L), the running best replaced only
    by a strictly larger value."""
    ginv = analytic.g_inverse(s)

    def objective(h, L):
        if h <= L / 2.0:
            return -math.inf
        mean = analytic.expected_crossings(h, L)
        prob = mean ** 2 / _scalar_second_moment(h, L)
        return prob / (L + 2.0 * h * ginv)

    hs = np.geomspace(s ** (-1.0 / 16.0), s ** (-0.25), 64)
    ls = np.geomspace(math.sqrt(s), s ** 0.25, 64)
    best = (objective(s ** (-0.125), s ** 0.375), s ** (-0.125), s ** 0.375)
    for h in hs:
        for L in ls:
            v = objective(h, L)
            if v > best[0]:
                best = (v, h, L)
    span = max(hs[1] / hs[0], ls[1] / ls[0])
    for _ in range(3):
        h0, l0 = best[1], best[2]
        for h in np.geomspace(h0 / span, h0 * span, 9):
            for L in np.geomspace(l0 / span, l0 * span, 9):
                v = objective(h, L)
                if v > best[0]:
                    best = (v, h, L)
        span = span ** 0.4
    return (math.pi / 2.0) * best[0], best[1], best[2]


class TestProp38:
    @pytest.mark.parametrize("s", [1e-4, 1e-3, 1e-2,
                                   *np.geomspace(1e-7, 0.0999, 300).tolist()])
    def test_matches_loop(self, s):
        got, expected = analytic.prop38_lower_bound(s), _loop_prop38(s)
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]

    @pytest.mark.parametrize("s,frozen", [
        (1e-4, (4.205150885059251, 3.6135702986915503, 0.0430809939152815)),
        (1e-3, (1.6013599315962772, 2.9649939362790545, 0.0912510972286875)),
        (1e-2, (0.5928067720104242, 2.51188643150958, 0.18563112370500837)),
        (0.05, (0.2943419885770839, 2.154326353494924, 0.3030748314876765)),
    ])
    def test_frozen_triples(self, s, frozen):
        assert analytic.prop38_lower_bound(s) == frozen

    def test_domain(self):
        for s in (0.0, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                analytic.prop38_lower_bound(s)

    def test_scaling_band(self):
        scaled = []
        for s in (1e-4, 1e-3, 1e-2):
            value, h, L = analytic.prop38_lower_bound(s)
            assert value > 0 and h > L / 2.0
            scaled.append(value * s ** 0.375)
        assert max(scaled) / min(scaled) < 3.0

    def test_beats_grid_seed(self):
        # optimizer must never fall below its seed schedule
        s = 1e-3
        value, _, _ = analytic.prop38_lower_bound(s)
        h0, L0 = s ** -0.125, s ** 0.375
        seed_val = (math.pi / 2.0) * (
            analytic.expected_crossings(h0, L0) ** 2
            / analytic.second_moment_upper(h0, L0)
        ) / (L0 + 2.0 * analytic.delta_hs(h0, s))
        assert value >= seed_val - 1e-12


class TestReferenceConstants:
    def test_table_values(self):
        table = {name: value for name, _, value, _ in analytic.reference_constants()}
        assert table["delaunay_length"] == pytest.approx(
            32.0 / (3.0 * math.pi), rel=1e-12)
        assert table["delaunay_stretch"] == pytest.approx(2.4184, abs=1e-4)
        assert table["steiner_constant_worst_lower"] == pytest.approx(
            math.sqrt(3.0) / 2.0 * (2.0 / math.sqrt(3.0)) ** 0.5, abs=0.01)

    def test_csv_shape(self):
        rows = analytic.reference_constants()
        assert len(rows) >= 5
        assert len({row[0] for row in rows}) == len(rows)
        assert all(isinstance(row[2], float) for row in rows)
