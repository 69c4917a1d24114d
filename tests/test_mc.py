"""Tests for the Monte Carlo experiment harness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanlab import analytic, mc, metrics, nets
from spanlab.configs import Window, poisson, rng_from_seed, uniform_n


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

    @pytest.mark.parametrize("k", [math.inf, math.nan, 2.5])
    def test_non_integer_k_rejected(self, k):
        # the builder registry passes k on unrounded, so its check sees it
        with pytest.raises(ValueError, match="integer >= 2"):
            mc.empirical_Lk(k, replicates=1)

    def test_replicates_match_spawned_children(self):
        # replicate i draws from the seed (seed, i): Philox(seed).jumped(i)
        window = Window.square(10)
        for seed in (0, 5, 2 ** 140 - 1):
            r = mc.empirical_Lm(6, window, replicates=3, master_seed=seed)
            expected = [metrics.normalized_length(
                            nets.theta_graph(poisson(window, seed=(seed, i), torus=True), 6),
                            margin_fraction=0.0)
                        for i in range(3)]
            assert r.replicate_values == expected

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

    @pytest.mark.parametrize("h,L", [(math.nan, 1.0), (1.0, math.nan),
                                     (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, h, L):
        with pytest.raises(ValueError, match="positive and finite"):
            mc.crossing_experiment(h, L, replicates=2)

    def test_memory_stays_bounded(self):
        # replicates reach the kernel in chunks, not all at once
        tracemalloc.start()
        try:
            mc.crossing_experiment(2.0, 0.5, replicates=1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20


def _loop_crossing_count(xs, ys, h, L):
    """Per-point loop over one replicate's points; the kernel's reference."""
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
    """One replicate's points drawn with two uniform calls, the reference
    for crossing_experiment's single random(2n) read."""
    W = 40.0 * max(h, L, 1.0)
    rng = rng_from_seed(seed)
    n = rng.poisson(W * 2.0 * h)
    xs = rng.uniform(-W / 2.0, W / 2.0, n)
    ys = rng.uniform(-h, h, n)
    return xs, ys


def _case(points, h, L):
    pts = np.array(points, dtype=float).reshape(-1, 2)
    return pts[:, 0], pts[:, 1], h, L


def _one_replicate(xs, ys, h, L):
    return int(mc._crossing_counts(np.zeros(len(xs), dtype=np.int64), xs, ys,
                                   h, L, 1)[0])


def _loop_counts(rep, xs, ys, h, L, replicates):
    return [_loop_crossing_count(xs[rep == r], ys[rep == r], h, L)
            for r in range(replicates)]


def _on_reach_edge(x, y, L, edge):
    """The point (x, y), or by edge 1-4 moved in x onto the edge of the
    kernel's reach, -|y| or L + |y|, or one ulp outside either."""
    lo, hi = -abs(y), L + abs(y)
    return (x, lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))[edge], y


@st.composite
def _strip_points(draw):
    """Points in |y| <= h, many on a grid of step 1/4 in x and h/4 in y, so
    duplicate x, y == 0, crossings exactly at 0 or L and partners exactly
    on the +-2h window edge all occur; some sit on the edge of their reach
    or one ulp outside it."""
    h = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    L = draw(st.sampled_from([0.5, 1.0, 2.0]))
    x = st.one_of(st.integers(-16, 16).map(lambda k: k / 4.0),
                  st.floats(-4.0, 4.0))
    y = st.one_of(st.integers(-4, 4).map(lambda k: k * h / 4.0),
                  st.floats(-h, h))
    points = draw(st.lists(st.tuples(x, y, st.integers(0, 4)), max_size=40))
    return _case([_on_reach_edge(x, y, L, edge) for x, y, edge in points], h, L)


def _multi_case(points, h, L, replicates):
    pts = np.array(points, dtype=float).reshape(-1, 3)
    return pts[:, 0].astype(np.int64), pts[:, 1], pts[:, 2], h, L, replicates


@st.composite
def _replicate_points(draw):
    """Points of up to four replicates in any order, on a grid of step 1/8
    in x wide enough that points fall exactly on the band edges -h - 1, -h,
    L + h and L + h + 1 and beyond them, and that replicates share x
    values; some replicates may have no points."""
    h = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    L = draw(st.sampled_from([0.5, 1.0, 2.0]))
    replicates = draw(st.integers(1, 4))
    rep = st.integers(0, replicates - 1)
    x = st.one_of(st.integers(-48, 48).map(lambda k: k / 8.0),
                  st.floats(-6.0, 6.0))
    y = st.one_of(st.integers(-4, 4).map(lambda k: k * h / 4.0),
                  st.floats(-h, h))
    return _multi_case(draw(st.lists(st.tuples(rep, x, y), max_size=60)),
                       h, L, replicates)


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
    # points on the reach edges -|y| and L + |y|, and one ulp outside them;
    # above-axis points with y == 0 at x = 0 and x = L, whose friends cross
    # exactly there; partners at and one ulp inside |dx| = h - y1
    @example(_case([(-0.5, -0.5), (0.5, 0.5), (1.5, 0.5), (0.5, -0.5)],
                   1.0, 1.0))
    @example(_case([(np.nextafter(-0.5, -1.0), -0.5), (0.25, 0.75),
                    (np.nextafter(1.5, 2.0), 0.5), (0.75, -0.75)], 1.0, 1.0))
    @example(_case([(0.0, 0.0), (0.25, -0.5), (1.0, 0.0), (0.75, -0.5)],
                   1.0, 1.0))
    @example(_case([(0.0, -0.5), (1.5, 1.0), (-1.5, 1.0),
                    (np.nextafter(1.5, 0.0), 1.0), (np.nextafter(-1.5, 0.0), 1.0)],
                   1.0, 1.0))
    def test_matches_loop(self, case):
        xs, ys, h, L = case
        assert _one_replicate(xs, ys, h, L) == _loop_crossing_count(xs, ys, h, L)

    @settings(max_examples=300, deadline=None)
    @given(_replicate_points())
    # one pair per replicate at the same x, one replicate empty; points on
    # and just past the band edges of h = 1, L = 1 (-2, -1, 2, 3); pairs
    # that count with a point 1/8 inside the band's inner edges
    @example(_multi_case([(0, 0.5, -0.5), (0, 0.75, 0.5), (2, 0.5, -0.5),
                          (2, 0.75, 0.5)], 1.0, 1.0, 3))
    @example(_multi_case([(1, -2.0, -0.5), (0, -2.0, 0.5), (1, -1.0, -1.0),
                          (1, 0.0, 1.0), (0, 2.0, -1.0), (0, 1.0, 1.0),
                          (1, 3.0, -0.25), (0, 3.25, 0.25)], 1.0, 1.0, 2))
    @example(_multi_case([(0, -0.875, -1.0), (0, 0.0, 0.0), (1, 0.875, -0.0625),
                          (1, 1.75, 1.0)], 1.0, 1.0, 2))
    def test_replicates_match_loop(self, case):
        rep, xs, ys, h, L, replicates = case
        counts = mc._crossing_counts(rep, xs, ys, h, L, replicates)
        assert list(counts) == _loop_counts(rep, xs, ys, h, L, replicates)

    def test_crossings_at_interval_ends_count(self):
        # two friend pairs meeting the axis exactly at 0 and exactly at L = 3
        xs, ys, h, L = _case([(-0.25, -0.5), (0.25, 0.5),
                              (2.75, -0.5), (3.25, 0.5)], 1.0, 3.0)
        assert _one_replicate(xs, ys, h, L) == 2

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_small_blocks_match_loop(self, monkeypatch, block):
        # block = 1 leaves every point's candidates over the block size
        monkeypatch.setattr(mc, "_PAIR_BLOCK", block)
        xs, ys = _strip_sample(2.0, 0.5, 11)
        assert _one_replicate(xs, ys, 2.0, 0.5) == _loop_crossing_count(
            xs, ys, 2.0, 0.5)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_small_blocks_split_across_replicates(self, monkeypatch, block):
        monkeypatch.setattr(mc, "_PAIR_BLOCK", block)
        samples = [_strip_sample(2.0, 0.5, s) for s in range(11, 19)]
        rep = np.repeat(np.arange(8), [len(xs) for xs, _ in samples])
        xs, ys = (np.concatenate(v) for v in zip(*samples))
        counts = mc._crossing_counts(rep, xs, ys, 2.0, 0.5, 8)
        assert list(counts) == _loop_counts(rep, xs, ys, 2.0, 0.5, 8)

    def test_several_blocks_at_large_h(self):
        # the kernel keeps a point within its reach |y| (plus a margin) of
        # [0, L] and pairs a below-axis point with the above-axis points
        # within h + its reach; those pairs fill 2.8 blocks
        h, L = 30.0, 30.0
        xs, ys = _strip_sample(h, L, 5)
        reach = np.abs(ys) + 1e-9 * (1.0 + h + L + np.abs(xs))
        keep = (xs >= -reach) & (xs <= L + reach)
        xa = np.sort(xs[keep & (ys >= 0)])
        below = keep & (ys < 0)
        xb, half = xs[below], h + reach[below]
        pairs = int((np.searchsorted(xa, xb + half)
                     - np.searchsorted(xa, xb - half)).sum())
        assert pairs > 2 * mc._PAIR_BLOCK
        assert _one_replicate(xs, ys, h, L) == _loop_crossing_count(xs, ys, h, L)

    @pytest.mark.parametrize("h,L", ACCEPTANCE_GRID + [(0.05, 1.0), (0.3, 0.7),
                                                       (12.0, 1.0)])
    def test_driver_matches_loop(self, h, L):
        # the oracle draws x and y with two uniform calls from the seed
        # (seed, i), Philox(seed).jumped(i); a large strip runs a few replicates
        replicates = 50 if h < 10.0 else 3
        for seed in (0, 5, 2 ** 140 - 1):
            first, second = mc.crossing_experiment(h, L, replicates=replicates,
                                                   master_seed=seed)
            expected = [float(_loop_crossing_count(*_strip_sample(h, L, (seed, i)), h, L))
                        for i in range(replicates)]
            assert first.replicate_values == expected
            assert second.replicate_values == [v * v for v in expected]

    @pytest.mark.parametrize("seed", [0, 2 ** 140 - 1], ids=["0", "2**140-1"])
    def test_replicate_state_is_the_jumped_state(self, monkeypatch, seed):
        philox = np.random.Philox

        class Spy(philox):
            """A Philox that records every state the driver sets."""
            seen = []

            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                Spy.seen.append({k: v.copy() for k, v in value["state"].items()})
                philox.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", Spy)
        mc.crossing_experiment(1.0, 1.0, replicates=6, master_seed=seed)
        monkeypatch.undo()
        assert len(Spy.seen) == 6
        for i in (0, 1, 5, 2 ** 33):
            want = np.random.Philox(seed).jumped(i).state["state"]
            # replicate 2**33 is beyond a run; the driver's rule gives its state
            got = Spy.seen[i] if i < 6 else {"key": Spy.seen[0]["key"],
                                             "counter": np.array([0, 0, i, 0], np.uint64)}
            assert np.array_equal(got["counter"], want["counter"])
            assert np.array_equal(got["key"], want["key"])


_DRIVERS = pytest.mark.parametrize("run", [
    lambda n, seed=0: mc.estimate_psi_ave_upper("delaunay", window=Window.square(12),
                                                replicates=n, master_seed=seed),
    lambda n, seed=0: mc.empirical_Lm(6, window=Window.square(12), replicates=n,
                                      master_seed=seed),
    lambda n, seed=0: mc.empirical_Lk(4, window=Window.square(12), replicates=n,
                                      master_seed=seed),
    lambda n, seed=0: mc.crossing_experiment(1.0, 1.0, replicates=n, master_seed=seed),
], ids=["psi_ave_upper", "Lm", "Lk", "crossing"])


class TestReplicateCount:
    @pytest.mark.parametrize("replicates", [0, -1])
    @_DRIVERS
    def test_non_positive_rejected(self, run, replicates):
        with pytest.raises(ValueError, match="replicates"):
            run(replicates)

    @pytest.mark.parametrize("replicates", [2.5, math.nan, math.inf])
    @_DRIVERS
    def test_non_integer_rejected(self, run, replicates):
        with pytest.raises(ValueError, match="replicates"):
            run(replicates)

    @_DRIVERS
    def test_whole_float_count_taken(self, run):
        result = run(2.0)
        first = result[0] if isinstance(result, tuple) else result
        assert first.n == 2

    @_DRIVERS
    def test_negative_master_seed_rejected(self, run):
        with pytest.raises(ValueError) as theirs:
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError) as ours:
            run(2, -1)
        assert str(ours.value) == str(theirs.value)


class TestReplicateStreams:
    def test_crossing_replicates_are_a_prefix(self):
        # replicate i depends on i alone, and replicate 0 is the plain seed's
        values = mc.crossing_experiment(1.0, 1.0, replicates=7, master_seed=5)[0].replicate_values
        short = mc.crossing_experiment(1.0, 1.0, replicates=3, master_seed=5)[0].replicate_values
        assert short == values[:3]
        assert values[0] == _loop_crossing_count(*_strip_sample(1.0, 1.0, 5), 1.0, 1.0)

    def test_lm_replicates_are_a_prefix(self):
        window = Window.square(10)
        values = mc.empirical_Lm(6, window, replicates=3, master_seed=5).replicate_values
        assert mc.empirical_Lm(6, window, replicates=2, master_seed=5).replicate_values \
            == values[:2]
        plain = nets.theta_graph(poisson(window, seed=5, torus=True), 6)
        assert values[0] == metrics.normalized_length(plain, margin_fraction=0.0)


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

    def test_grid_freeway_on_the_torus(self):
        # its skeleton roads run one window side along the seam lines
        result, worst = mc.estimate_psi_ave_upper("grid_freeway", {"t": 4}, replicates=1)
        assert result.n == 1 and worst.pair_filter == "all"
        assert 1.0 <= worst.max_ratio < 3.0


class TestResultsFile:
    def test_result_json(self):
        r = mc.empirical_Lm(6, Window.square(10), replicates=3, master_seed=0)
        import json

        doc = json.loads(r.to_json())
        assert doc["schema_version"] == 1
        assert doc["n"] == 3
        assert doc["se"] == pytest.approx(
            np.std(doc["replicate_values"], ddof=1) / math.sqrt(3))
