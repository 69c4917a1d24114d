"""Tests for the Monte Carlo experiment harness."""

import math

import numpy as np
import pytest

from spanlab import analytic, mc, nets
from spanlab.configs import Window, uniform_n


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
