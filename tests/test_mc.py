"""Tests for the Monte Carlo experiment harness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanlab import analytic, mc, nets
from spanlab.configs import Window, rng_from_seed, uniform_n


class TestBuilderRegistry:
    def test_unknown_kind_rejected(self):
        cfg = uniform_n(5, Window.square(5), seed=0)
        with pytest.raises(ValueError):
            nets.build("minimum_spanning_tree", cfg, {})

    def test_dispatch(self):
        cfg = uniform_n(10, Window.square(5), seed=0)
        assert nets.build("theta", cfg, {"m": 6}).kind == "theta"
        assert nets.build("yao", cfg, {"m": 8}).kind == "yao"
        assert nets.build("cone", cfg, {"k": 3}).kind == "cone"

    def test_missing_parameter_rejected(self):
        cfg = uniform_n(10, Window.square(5), seed=0)
        for kind, (required, _) in nets.BUILDERS.items():
            if required:
                with pytest.raises(ValueError, match=rf": {required[0]}$"):
                    nets.build(kind, cfg, {})


class TestEmpiricalLengths:
    def test_lm_matches_quadrature(self):
        r = mc.empirical_Lm(6, Window.square(20), replicates=10, master_seed=1)
        target = analytic.theta_mean_length(6)
        assert abs(r.mean - target) <= max(3 * r.se, 0.02 * target)

    def test_lk_matches_quadrature(self):
        r = mc.empirical_Lk(4, Window.square(20), replicates=10, master_seed=1)
        target = analytic.cone_Lk(4)
        assert abs(r.mean - target) <= max(3 * r.se, 0.02 * target)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            mc.empirical_Lm(7)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            mc.empirical_Lk(1)

    def test_determinism(self):
        a = mc.empirical_Lm(6, Window.square(12), replicates=5, master_seed=4)
        b = mc.empirical_Lm(6, Window.square(12), replicates=5, master_seed=4)
        assert a.replicate_values == b.replicate_values

    def test_se_shrinks_with_replicates(self):
        small = mc.empirical_Lm(6, Window.square(12), replicates=10,
                                master_seed=2)
        large = mc.empirical_Lm(6, Window.square(12), replicates=40,
                                master_seed=2)
        assert large.se < small.se


class TestCrossingExperiment:
    def test_first_moment(self):
        first, _ = mc.crossing_experiment(1.0, 1.0, replicates=800,
                                          master_seed=3)
        assert abs(first.mean - 2.0) <= 3 * first.se

    def test_second_moment_below_bound(self):
        for h, L in ((1.0, 1.0), (2.0, 0.5)):
            _, second = mc.crossing_experiment(h, L, replicates=800,
                                               master_seed=3)
            assert second.mean <= analytic.second_moment_upper(h, L) + 3 * second.se

    def test_thin_strip_vanishes(self):
        first, _ = mc.crossing_experiment(0.05, 1.0, replicates=400,
                                          master_seed=1)
        assert first.mean <= 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mc.crossing_experiment(0.0, 1.0)
        with pytest.raises(ValueError):
            mc.crossing_experiment(1.0, 1.0, strip_width=5.0)


def _loop_crossing_count(xs, ys, h, L):
    """Per-point loop that mc._crossing_count replaced; its reference."""
    below = ys < 0
    xb, yb = xs[below], ys[below]
    xa, ya = xs[~below], ys[~below]
    order = np.argsort(xa)
    xa, ya = xa[order], ya[order]
    count = 0
    for x1, y1 in zip(xb, yb):
        lo = np.searchsorted(xa, x1 - 2.0 * h)
        hi = np.searchsorted(xa, x1 + 2.0 * h)
        x2, y2 = xa[lo:hi], ya[lo:hi]
        friends = np.abs(x2 - x1) < (y2 - y1)
        if not friends.any():
            continue
        x2, y2 = x2[friends], y2[friends]
        cross = x1 + (x2 - x1) * (-y1) / (y2 - y1)
        count += int(np.count_nonzero((cross >= 0.0) & (cross <= L)))
    return count


def _strip_sample(h, L, seed):
    """One replicate's points, drawn as crossing_experiment draws them."""
    W = 40.0 * max(h, L, 1.0)
    rng = rng_from_seed(seed)
    n = rng.poisson(W * 2.0 * h)
    xs = rng.uniform(-W / 2.0, W / 2.0, n)
    ys = rng.uniform(-h, h, n)
    return xs, ys


def _case(points, h, L):
    pts = np.array(points, dtype=float).reshape(-1, 2)
    return pts[:, 0], pts[:, 1], h, L


@st.composite
def _strip_points(draw):
    """Points in |y| <= h, many on a grid of step 1/4 in x and h/4 in y, so
    duplicate x, y == 0, crossings exactly at 0 or L and partners exactly
    on the +-2h window edge all occur."""
    h = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    L = draw(st.sampled_from([0.5, 1.0, 2.0]))
    x = st.one_of(st.integers(-16, 16).map(lambda k: k / 4.0),
                  st.floats(-4.0, 4.0))
    y = st.one_of(st.integers(-4, 4).map(lambda k: k * h / 4.0),
                  st.floats(-h, h))
    return _case(draw(st.lists(st.tuples(x, y), max_size=40)), h, L)


# acceptance-suite (h, L) points: the three means and the second-moment grid
ACCEPTANCE_GRID = ([(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]
                   + [(h, L) for L in (0.3, 0.6, 1.0, 1.4)
                      for h in (0.8, 1.2, 1.6, 2.0, 2.5)])


class TestCrossingKernel:
    @settings(max_examples=300, deadline=None)
    @given(_strip_points())
    # no points; none below the axis; none above; crossings at 0 and L;
    # duplicate x with y == 0; partners on the +-2h window edge
    @example(_case([], 1.0, 1.0))
    @example(_case([(0.0, 0.5), (1.0, 0.0), (-1.0, 1.0)], 1.0, 1.0))
    @example(_case([(0.0, -0.5), (1.0, -0.1), (-1.0, -1.0)], 1.0, 1.0))
    @example(_case([(-0.25, -0.5), (0.25, 0.5), (2.75, -0.5), (3.25, 0.5)],
                   1.0, 3.0))
    @example(_case([(0.5, -0.5), (0.5, 0.0), (0.5, 0.5), (0.5, -0.25)],
                   1.0, 1.0))
    @example(_case([(0.0, -1.0), (2.0, 1.0), (-2.0, 1.0), (1.75, 1.0)],
                   1.0, 2.0))
    def test_matches_loop(self, case):
        xs, ys, h, L = case
        assert mc._crossing_count(xs, ys, h, L) == _loop_crossing_count(xs, ys, h, L)

    def test_crossings_at_interval_ends_count(self):
        # two friend pairs meeting the axis exactly at 0 and exactly at L = 3
        xs, ys, h, L = _case([(-0.25, -0.5), (0.25, 0.5),
                              (2.75, -0.5), (3.25, 0.5)], 1.0, 3.0)
        assert mc._crossing_count(xs, ys, h, L) == 2

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_small_blocks_match_loop(self, monkeypatch, block):
        # block = 1 leaves every point's candidates over the block size
        monkeypatch.setattr(mc, "_PAIR_BLOCK", block)
        xs, ys = _strip_sample(2.0, 0.5, 11)
        assert mc._crossing_count(xs, ys, 2.0, 0.5) == _loop_crossing_count(
            xs, ys, 2.0, 0.5)

    def test_several_blocks_at_large_h(self):
        h, L = 12.0, 1.0
        xs, ys = _strip_sample(h, L, 5)
        xa = np.sort(xs[ys >= 0])
        xb = xs[ys < 0]
        pairs = int((np.searchsorted(xa, xb + 2.0 * h)
                     - np.searchsorted(xa, xb - 2.0 * h)).sum())
        assert pairs > 2 * mc._PAIR_BLOCK
        assert mc._crossing_count(xs, ys, h, L) == _loop_crossing_count(xs, ys, h, L)

    @pytest.mark.parametrize("h,L", ACCEPTANCE_GRID)
    def test_driver_matches_loop(self, h, L):
        first, second = mc.crossing_experiment(h, L, replicates=10,
                                               master_seed=17)
        expected = [float(_loop_crossing_count(*_strip_sample(h, L, s), h, L))
                    for s in mc._replicate_seeds(17, 10)]
        assert first.replicate_values == expected
        assert second.replicate_values == [v * v for v in expected]


class TestReplicateCount:
    @pytest.mark.parametrize("replicates", [0, -1])
    @pytest.mark.parametrize("run", [
        lambda n: mc.estimate_psi_ave_upper("delaunay", replicates=n),
        lambda n: mc.empirical_Lm(6, replicates=n),
        lambda n: mc.empirical_Lk(4, replicates=n),
        lambda n: mc.crossing_experiment(1.0, 1.0, replicates=n),
    ], ids=["psi_ave_upper", "Lm", "Lk", "crossing"])
    def test_non_positive_rejected(self, run, replicates):
        with pytest.raises(ValueError, match="replicates"):
            run(replicates)


class TestPsiAveUpper:
    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            mc.estimate_psi_ave_upper("delaunay", window=Window.square(5))

    def test_delaunay_small_run(self):
        result, worst = mc.estimate_psi_ave_upper(
            "delaunay", window=Window.square(12), replicates=3, master_seed=0)
        assert 2.5 < result.mean < 4.5  # coarse check at a small window
        assert 1.0 <= worst.max_ratio < 3.0
        assert result.n == 3 and result.se > 0

    def test_theta_graph_mode(self):
        result, worst = mc.estimate_psi_ave_upper(
            "theta", {"m": 6}, window=Window.square(12), replicates=3,
            master_seed=0, mode="graph")
        assert worst.mode == "graph"
        assert worst.max_ratio <= analytic.s_m_bound(6) + 1e-9


class TestWindowSweep:
    def test_runs_each_window(self):
        results = mc.window_sweep(mc.empirical_Lm, [10, 14], replicates=4,
                                  master_seed=1, m=6)
        assert len(results) == 2
        assert results[0].params["window"] == 100.0
        assert results[1].params["window"] == 196.0

    def test_deterministic(self):
        a = mc.window_sweep(mc.empirical_Lm, [10], replicates=4,
                            master_seed=1, m=6)
        b = mc.window_sweep(mc.empirical_Lm, [10], replicates=4,
                            master_seed=1, m=6)
        assert a[0].replicate_values == b[0].replicate_values


class TestResultsFile:
    def test_csv_append(self, tmp_path):
        path = tmp_path / "results.csv"
        r = mc.empirical_Lm(6, Window.square(10), replicates=3, master_seed=0)
        mc.append_results_csv(str(path), [r])
        mc.append_results_csv(str(path), [r])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == mc.RESULT_CSV_HEADER
        assert len(lines) == 3  # header written once, two data rows

    def test_result_json(self):
        r = mc.empirical_Lm(6, Window.square(10), replicates=3, master_seed=0)
        import json

        doc = json.loads(r.to_json())
        assert doc["schema_version"] == 1
        assert doc["n"] == 3
        assert doc["se"] == pytest.approx(
            np.std(doc["replicate_values"], ddof=1) / math.sqrt(3))
