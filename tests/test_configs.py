"""Tests for point-configuration generators."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from spanlab.configs import (HEX_SPACING, TRI_SPACING, PointConfig, Window,
                             hex_config, poisson, square_grid, substreams,
                             tri_config, uniform_n)


class TestWindow:
    def test_geometry(self):
        w = Window(1.0, 2.0, 5.0, 8.0)
        assert w.width == 4.0 and w.height == 6.0
        assert w.area == 24.0
        assert w.diameter == pytest.approx(math.hypot(4, 6))

    def test_inner(self):
        w = Window.square(10.0).inner(0.1)
        assert (w.x0, w.y0, w.x1, w.y1) == (1.0, 1.0, 9.0, 9.0)

    def test_contains(self):
        w = Window.square(2.0)
        mask = w.contains(np.array([[1.0, 1.0], [3.0, 0.5]]))
        assert mask.tolist() == [True, False]


def _reference_clip(win, px, py, dx, dy, t0, t1):
    """Scalar Liang-Barsky clip: the t in [t0, t1] with p + t*d in win, or None."""
    for p, d, lo, hi in ((px, dx, win.x0, win.x1), (py, dy, win.y0, win.y1)):
        if d == 0:
            if not lo <= p <= hi:
                return None
        else:
            a, b = (lo - p) / d, (hi - p) / d
            t0, t1 = max(t0, min(a, b)), min(t1, max(a, b))
    return (t0, t1) if t0 <= t1 else None


_coord = st.one_of(st.integers(-6, 6).map(float),
                   st.floats(-6.0, 6.0, allow_nan=False))
# nonzero directions stay above 1e-9 so that (bound - p) / d cannot overflow
_direction = st.one_of(st.just(0.0), st.integers(-2, 2).map(float),
                       st.floats(1e-9, 3.0), st.floats(-3.0, -1e-9))


class TestWindowClip:
    WIN = Window(-1.0, -2.0, 3.0, 2.0)

    @given(lines=st.lists(st.tuples(_coord, _coord, _direction, _direction)
                          .filter(lambda line: line[2] != 0 or line[3] != 0),
                          min_size=1, max_size=20),
           bounds=st.sampled_from([(-math.inf, math.inf), (0.0, 1.0)]))
    # axis-parallel lines inside and outside the window, and a diagonal miss
    @example(lines=[(0.0, 1.0, 1.0, 0.0), (0.0, 5.0, 1.0, 0.0),
                    (-4.0, 0.0, 0.0, 1.0), (3.0, 0.0, 0.0, -1.0),
                    (5.0, 5.0, 1.0, -1.0)],
             bounds=(-math.inf, math.inf))
    # vertical miss whose subnormal dy overflows (bound - p) / dy
    @example(lines=[(-2.0, 0.0, 0.0, 2.2e-313)], bounds=(-math.inf, math.inf))
    def test_matches_scalar_reference(self, lines, bounds):
        px, py, dx, dy = (np.array(col) for col in zip(*lines))
        t_lo, t_hi = self.WIN.clip(px, py, dx, dy, *bounds)
        for k, line in enumerate(lines):
            ref = _reference_clip(self.WIN, *line, *bounds)
            if ref is None:
                assert t_lo[k] > t_hi[k]
            else:
                assert (t_lo[k], t_hi[k]) == ref

    def test_known_chords(self):
        px = np.array([0.0, 0.0, -4.0, 5.0, -2.0])
        py = np.array([1.0, 5.0, 0.0, 5.0, 0.0])
        dx = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        dy = np.array([0.0, 0.0, 1.0, -1.0, 2.2e-313])
        t_lo, t_hi = self.WIN.clip(px, py, dx, dy, -math.inf, math.inf)
        assert (t_lo[0], t_hi[0]) == (-1.0, 3.0)  # horizontal, inside
        assert t_lo[1] > t_hi[1]  # horizontal, above the window
        assert t_lo[2] > t_hi[2]  # vertical, left of the window
        assert t_lo[3] > t_hi[3]  # diagonal through (10, 0), misses
        assert t_lo[4] > t_hi[4]  # vertical, left, subnormal dy


class TestRandomGenerators:
    def test_poisson_determinism(self):
        a = poisson(Window.square(10), seed=42)
        b = poisson(Window.square(10), seed=42)
        assert np.array_equal(a.points, b.points)

    def test_poisson_count_mean(self):
        # mean count over many draws approaches rate * area
        counts = [poisson(Window.square(10), rate=2.0, seed=s).n
                  for s in range(200)]
        mean = np.mean(counts)
        assert abs(mean - 200.0) < 4 * math.sqrt(200.0 / 200)

    def test_uniform_n(self):
        cfg = uniform_n(37, Window.square(5), seed=1)
        assert cfg.n == 37
        assert Window.square(5).contains(cfg.points).all()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson(Window.square(10), rate=-1.0)

    def test_torus_requires_square(self):
        with pytest.raises(ValueError):
            poisson(Window(0, 0, 10, 20), torus=True)

    def test_substreams_differ(self):
        rngs = substreams(7, 3)
        draws = [r.uniform() for r in rngs]
        assert len(set(draws)) == 3

    def test_substreams_reproducible(self):
        a = [r.uniform() for r in substreams(7, 3)]
        b = [r.uniform() for r in substreams(7, 3)]
        assert a == b


class TestLattices:
    def test_square_grid_count(self):
        cfg = square_grid(Window.square(3.0))
        assert cfg.n == 16  # 4 x 4 integer points in [0, 3]^2

    def test_spacing_constants(self):
        # each spacing solves (points per unit area) = 1 for its lattice
        assert 4.0 * 3.0 ** (-1.5) / HEX_SPACING ** 2 == pytest.approx(1.0)
        assert 2.0 / math.sqrt(3.0) / TRI_SPACING ** 2 == pytest.approx(1.0)

    @pytest.mark.parametrize("side", [10.0, 20.0, 30.0])
    def test_density_converges(self, side):
        for make in (hex_config, tri_config):
            cfg = make(Window.square(side))
            assert abs(cfg.density - 1.0) <= 3.0 / math.sqrt(side * side)

    def test_hex_interior_degree(self):
        cfg = hex_config(Window.square(12))
        tree = cKDTree(cfg.points)
        interior = cfg.window.inner(0.2).contains(cfg.points)
        for i in np.flatnonzero(interior):
            nbrs = tree.query_ball_point(cfg.points[i], HEX_SPACING * 1.001)
            assert len(nbrs) - 1 == 3

    def test_tri_interior_degree(self):
        cfg = tri_config(Window.square(12))
        tree = cKDTree(cfg.points)
        interior = cfg.window.inner(0.2).contains(cfg.points)
        for i in np.flatnonzero(interior):
            nbrs = tree.query_ball_point(cfg.points[i], TRI_SPACING * 1.001)
            assert len(nbrs) - 1 == 6

    def test_too_small_window_rejected(self):
        with pytest.raises(ValueError):
            hex_config(Window.square(1.0))


class TestSerialization:
    def test_round_trip(self):
        cfg = poisson(Window.square(8), seed=3, torus=True)
        back = PointConfig.from_json(cfg.to_json())
        assert np.array_equal(back.points, cfg.points)
        assert back.torus and back.kind == "poisson"
        assert back.window == cfg.window

    def test_schema_version_present(self):
        import json

        doc = json.loads(uniform_n(4, Window.square(3)).to_json())
        assert doc["schema_version"] == 1
