"""Tests for point-configuration generators."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from spanlab.configs import (HEX_SPACING, TRI_SPACING, PointConfig, Window,
                             csv_text, hex_config, poisson, rng_from_seed,
                             square_grid, tri_config, uniform_n)


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
        # a segment on each edge of the window (bottom, right, top, left) is kept whole
        px = np.array([-1.0, 3.0, 3.0, -1.0])
        py = np.array([-2.0, -2.0, 2.0, 2.0])
        dx = np.array([4.0, 0.0, -4.0, 0.0])
        dy = np.array([0.0, 4.0, 0.0, -4.0])
        t_lo, t_hi = self.WIN.clip(px, py, dx, dy, 0.0, 1.0)
        assert t_lo.tolist() == [0.0] * 4 and t_hi.tolist() == [1.0] * 4


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

    @pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf])
    def test_uniform_n_that_is_not_a_count_rejected(self, n):
        with pytest.raises(ValueError, match=r"n must be an integer >= 0"):
            uniform_n(n, Window.square(5))

    def test_uniform_n_whole_float_counts(self):
        cfg = uniform_n(3.0, Window.square(5), seed=1)
        assert cfg.n == 3 and cfg.params == {"n": 3}
        np.testing.assert_array_equal(cfg.points, uniform_n(3, Window.square(5), seed=1).points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            PointConfig(np.array([[1.0, 1.0], [bad, 2.0]]), Window.square(5))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson(Window.square(10), rate=-1.0)

    def test_torus_requires_square(self):
        with pytest.raises(ValueError):
            poisson(Window(0, 0, 10, 20), torus=True)

    def test_torus_requires_cities_in_window(self):
        # the closed window: cities on its far edges are accepted
        PointConfig(np.array([[0.0, 10.0], [10.0, 3.0]]), Window.square(10), torus=True)
        for city in ([10.06, 3.0], [3.0, -1e-9]):
            with pytest.raises(ValueError, match="lie in the window"):
                PointConfig(np.array([[1.0, 1.0], city]), Window.square(10), torus=True)
        PointConfig(np.array([[10.06, 3.0]]), Window.square(10))  # planar: no window to wrap


class TestReplicateSeeds:
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 140 - 1])
    @pytest.mark.parametrize("replicate", [0, 1, 5, 2 ** 33])
    def test_pair_draws_the_jumped_stream(self, seed, replicate):
        # Philox is counter-based: the master key with counter word 2 set to
        # the replicate; replicate 0 is the plain seed's own stream
        bitgen = np.random.Philox(seed)
        state = bitgen.state
        state["state"]["counter"][2] = replicate
        bitgen.state = state
        want = np.random.Generator(bitgen).random(9)
        jumped = np.random.Generator(np.random.Philox(seed).jumped(replicate))
        assert np.array_equal(jumped.random(9), want)
        assert np.array_equal(rng_from_seed((seed, replicate)).random(9), want)
        if replicate == 0:
            assert np.array_equal(rng_from_seed(seed).random(9), want)


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
        with pytest.raises(ValueError, match="too small for one lattice cell"):
            tri_config(Window.square(1.0))
        with pytest.raises(ValueError, match="side must be at least 1"):
            square_grid(Window(0.0, 0.0, 5.0, 0.5))

    def test_refusal_bounds(self):
        # a honeycomb needs 3 * HEX_SPACING ~ 2.632 of width, a tri lattice
        # 2 * TRI_SPACING ~ 2.149
        assert hex_config(Window.square(2.64)).n > 0
        assert tri_config(Window.square(2.2)).n > 0
        with pytest.raises(ValueError, match="^window too small for one honeycomb cell$"):
            hex_config(Window.square(2.2))
        with pytest.raises(ValueError, match="^window too small for one honeycomb cell$"):
            hex_config(Window.square(2.1))
        with pytest.raises(ValueError, match="^window too small for one lattice cell$"):
            tri_config(Window.square(2.1))


def _loop_row_lattice(window, row_height, offsets_even, offsets_odd, period):
    """Reference: the point-by-point loop that configs._row_lattice replaced."""
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


# (generator, spacing, even-row offsets, odd-row offsets, period), as
# hex_config and tri_config call _row_lattice
_ROW_LATTICES = [
    (hex_config, HEX_SPACING, (0.0, HEX_SPACING), (1.5 * HEX_SPACING, 2.5 * HEX_SPACING),
     3.0 * HEX_SPACING),
    (tri_config, TRI_SPACING, (0.0,), (0.5 * TRI_SPACING,), TRI_SPACING),
]


class TestRowLattice:
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(2.7, 30.0),
           st.floats(2.7, 30.0))
    @settings(max_examples=200, deadline=None)
    @example(0.0, 0.0, 10.0, 10.0)
    @example(-3.5, 7.25, 11.3, 4.9)
    @example(0.1, -0.3, 2.7, 2.7)
    def test_matches_loop(self, x0, y0, width, height):
        window = Window(x0, y0, x0 + width, y0 + height)
        for make, ell, even, odd, period in _ROW_LATTICES:
            row_h = math.sqrt(3.0) * ell / 2.0
            want = _loop_row_lattice(window, row_h, even, odd, period)
            got = make(window).points
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSerialization:
    def test_round_trip(self):
        cfg = poisson(Window.square(8), seed=3, torus=True)
        back = PointConfig.from_json(cfg.to_json())
        assert np.array_equal(back.points, cfg.points)
        assert back.torus and back.kind == "poisson"
        assert back.window == cfg.window
        assert back.seed == 3 and type(back.seed) is int

    def test_replicate_key_seed_round_trip(self):
        window = Window.square(10)
        cfg = poisson(window, seed=(2 ** 140 - 1, 3))
        assert json.loads(cfg.to_json())["seed"] == [2 ** 140 - 1, 3]
        back = PointConfig.from_json(cfg.to_json())
        assert back.seed == (2 ** 140 - 1, 3)
        assert np.array_equal(back.points, cfg.points)
        assert np.array_equal(poisson(window, seed=back.seed).points, cfg.points)

    @pytest.mark.parametrize("seed", [[True, 0], [-1, 0], [0, 2 ** 64], [1.5, 0], [0, 1, 2]],
                             ids=["bool", "negative", "too-large", "float", "three"])
    def test_bad_replicate_seed_rejected(self, seed):
        doc = json.loads(square_grid(Window.square(3)).to_json())
        with pytest.raises(ValueError, match="replicate seed must be two integers"):
            PointConfig.from_json(json.dumps({**doc, "seed": seed}))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "abc", {"a": 1}],
                             ids=["negative", "float", "bool", "string", "object"])
    def test_bad_int_seed_rejected(self, seed):
        doc = json.loads(square_grid(Window.square(3)).to_json())
        with pytest.raises(ValueError, match="seed must be null, an integer s >= 0"):
            PointConfig.from_json(json.dumps({**doc, "seed": seed}))

    @pytest.mark.parametrize("seed", [None, 0, 7, 2 ** 140 - 1])
    def test_int_seed_accepted(self, seed):
        doc = json.loads(square_grid(Window.square(3)).to_json())
        assert PointConfig.from_json(json.dumps({**doc, "seed": seed})).seed == seed

    @pytest.mark.parametrize("params", [[], "text", None])
    def test_params_that_are_not_an_object_rejected(self, params):
        doc = json.loads(square_grid(Window.square(3)).to_json())
        with pytest.raises(ValueError, match="params must be a JSON object"):
            PointConfig.from_json(json.dumps({**doc, "params": params}))

    def test_schema_version_present(self):
        doc = json.loads(uniform_n(4, Window.square(3)).to_json())
        assert doc["schema_version"] == 1

    def test_bytes(self):
        # an integer window bound stays an integer, a replicate seed a list
        cfg = PointConfig([[-0.0, 0.5], [1.25, 0.1]], Window.from_bounds([0, 0, 2, 1.5]),
                          kind="uniform", params={"n": 2}, seed=(2 ** 140 - 1, 3))
        assert cfg.to_json() == (
            '{"schema_version": 1, "kind": "uniform", "params": {"n": 2}, '
            '"seed": [1393796574908163946345982392040522594123775, 3], '
            '"window": [0, 0, 2, 1.5], "torus": false, "points": [[-0.0, 0.5], [1.25, 0.1]]}')

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
    @settings(max_examples=200, deadline=None)
    @example([-0.0, 0.0, 5e-324, -2.225073858507201e-308, 0.30000000000000004,
              1.7976931348623157e308])
    def test_round_trip_is_bit_exact(self, coords):
        cfg = PointConfig(np.array(coords[:len(coords) // 2 * 2]), Window.square(1))
        back = PointConfig.from_json(cfg.to_json())
        assert back.points.shape == cfg.points.shape
        assert back.points.tobytes() == cfg.points.tobytes()


def test_csv_text_cells():
    text = csv_text(("name", "params", "x", "n"),
                    [("a", {"mode": "graph", "k": 3}, 0.1, 7), ("b", {}, 2.0, True)])
    assert text == ('name,params,x,n\n'
                    'a,"{\'k\': 3, \'mode\': \'graph\'}",0.10000000000000001,7\n'
                    'b,"{}",2,True\n')
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(r) for r in rows] == [4, 4, 4]
    assert float(rows[1][2]) == 0.1
