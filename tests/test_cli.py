"""Tests for the command-line interface."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from spanlab import analytic, mc, metrics, nets
from spanlab.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from spanlab.configs import PointConfig, Window


def run(*argv):
    return main(list(argv))


def _assert_pinned_csv(out, expected):
    """stdout equals the pinned bytes, and parses into rows as wide as the header."""
    assert out == expected
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)


class TestGenerate:
    def test_poisson_config_file(self, tmp_path):
        out = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "10", "--seed", "3",
                   "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "poisson"
        assert doc["window"] == [0, 0, 10, 10]

    def test_uniform_needs_n(self, tmp_path, capsys):
        assert run("generate", "uniform", "--window", "10",
                   "--out", str(tmp_path / "x.json")) == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,digest", [
        ("square", "85c8a44a115791c836b0c1304cfce66d22225828ef3ffe272e10177edaac1d91"),
        ("hex", "b98d253ec72486abdfc585eb01973d79fc931423cdfdbf69c0081e68992f96b0"),
        ("tri", "5c40c9c0ddf45a4dfeb928679803d97263921de87f06dda6790de5e4ea1cf18e"),
    ])
    def test_lattice_bytes(self, capsys, kind, digest):
        assert run("generate", kind, "--window", "3") == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["kind"] == kind
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["square", "hex", "tri"])
    def test_lattice_on_a_torus_is_a_domain_error(self, capsys, kind):
        assert run("generate", kind, "--window", "4", "--torus") == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "lattices have no torus form" in captured.err

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "gaussian") == EXIT_USAGE
        capsys.readouterr()

    def test_rect_window(self, tmp_path):
        out = tmp_path / "cfg.json"
        assert run("generate", "uniform", "--n", "5",
                   "--window", "0,0,8,4", "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["window"] == [0, 0, 8, 4]


class TestBuildMeasure:
    def _pipeline(self, tmp_path, seed="5"):
        cfg = tmp_path / "cfg.json"
        net = tmp_path / "net.json"
        assert run("generate", "poisson", "--window", "12", "--seed", seed,
                   "--torus", "--out", str(cfg)) == EXIT_OK
        assert run("build", str(cfg), "theta", "--m", "6",
                   "--out", str(net)) == EXIT_OK
        return net

    def test_round_trip_deterministic(self, tmp_path):
        net = self._pipeline(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("measure", str(net), "--stretch", "steiner",
                       "--lines", "200", "--margin", "0",
                       "--out", str(out)) == EXIT_OK
        assert a.read_text() == b.read_text()
        header, row = a.read_text().strip().split("\n")
        assert header.startswith("schema_version,kind,normalized_length")
        assert row.startswith("1,theta,")

    def test_stretch_and_lines_bytes(self, tmp_path, capsys):
        net = self._pipeline(tmp_path)
        assert run("measure", str(net), "--stretch", "steiner", "--lines", "200") == EXIT_OK
        _assert_pinned_csv(capsys.readouterr().out, (
            "schema_version,kind,normalized_length,stretch_mode,max_stretch,argmax_i,"
            "argmax_j,n_pairs,intersection_rate,intersection_rate_se\n"
            "1,theta,5.3807554773106929,steiner,1.3561498981094442,57,131,9870,"
            "3.433504077384911,0.026177813905921575\n"))

    @pytest.mark.parametrize("lines", ["-5", "x"])
    def test_bad_lines_usage_error(self, tmp_path, capsys, lines):
        net = self._pipeline(tmp_path)
        assert run("measure", str(net), "--lines", lines) == EXIT_USAGE
        assert "--lines" in capsys.readouterr().err

    def test_zero_lines_skips_rate(self, tmp_path):
        net = self._pipeline(tmp_path)
        out = tmp_path / "m.csv"
        assert run("measure", str(net), "--lines", "0", "--out", str(out)) == EXIT_OK
        assert "intersection_rate" not in out.read_text()

    @pytest.mark.parametrize("torus", [[], ["--torus"]], ids=["plane", "torus"])
    @pytest.mark.parametrize("builder", [["theta", "--m", "6"], ["yao", "--m", "6"],
                                         ["cone", "--k", "3"]], ids=["theta", "yao", "cone"])
    def test_empty_configuration_builds_empty_network(self, tmp_path, capsys, builder, torus):
        cfg = tmp_path / "cfg.json"
        assert run("generate", "uniform", "--n", "0", "--window", "10", *torus,
                   "--out", str(cfg)) == EXIT_OK
        assert run("build", str(cfg), *builder) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["segments"] == [] and captured.err == ""

    def test_missing_network_file(self, tmp_path):
        assert run("measure", str(tmp_path / "nope.json")) == EXIT_IO

    def test_malformed_network_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("measure", str(bad)) == EXIT_IO

    def test_measure_without_cities_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "net.json"
        bad.write_text(json.dumps({"window": [0, 0, 5, 5], "segments": []}))
        assert run("measure", str(bad)) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_torus_city_outside_window_is_domain_error(self, tmp_path, capsys):
        cfg, net = tmp_path / "cfg.json", tmp_path / "net.json"
        assert run("generate", "uniform", "--n", "5", "--window", "10", "--torus",
                   "--out", str(cfg)) == EXIT_OK
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**doc, "points": [*doc["points"], [10.06, 3.0]]}))
        net.write_text(json.dumps({"window": [0, 0, 10, 10], "torus": True,
                                   "cities": [[1, 1], [10.06, 3.0]],
                                   "segments": [[1, 1, 0.06, 3.0]]}))
        for argv in (("build", str(cfg), "delaunay"), ("measure", str(net))):
            assert run(*argv) == EXIT_DOMAIN
            captured = capsys.readouterr()
            assert captured.out == "" and "lie in the window" in captured.err

    def test_stretch_of_coincident_cities_is_domain_error(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"window": [0, 0, 10, 10], "cities": [[3, 3], [3, 3]],
                                   "segments": [[1, 1, 5, 5]]}))
        assert run("measure", str(net), "--stretch", "steiner") == EXIT_DOMAIN
        assert "distinct positions" in capsys.readouterr().err

    def test_city_on_a_node_no_road_reaches_is_domain_error(self, tmp_path, capsys):
        # the end (1e-8, 0) joins the node (0, 0); city 0, 0.88 snap
        # tolerances from the second road, makes a node of its own
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"window": [-6, -1, 3, 6], "cities": [[2e-8, 0], [-5, 0]],
                                   "segments": [[-5, 0, 0, 0], [1e-8, 0, 1e-8, 5]]}))
        assert run("measure", str(net), "--stretch", "steiner", "--margin", "0") == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "disconnected city: the node of city 0 at (2e-08, 0.0) carries no road" in (
            captured.err)

    @pytest.mark.parametrize("torus", ["false", 0, 1, None])
    def test_torus_that_is_not_a_boolean_is_domain_error(self, tmp_path, capsys, torus):
        cfg, net = tmp_path / "cfg.json", tmp_path / "net.json"
        assert run("generate", "poisson", "--window", "10", "--out", str(cfg)) == EXIT_OK
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "torus": torus}))
        net.write_text(json.dumps({"window": [0, 0, 10, 10], "torus": torus,
                                   "cities": [[1, 1], [2, 2]], "segments": [[1, 1, 2, 2]]}))
        for argv in (("build", str(cfg), "delaunay"), ("measure", str(net))):
            assert run(*argv) == EXIT_DOMAIN
            captured = capsys.readouterr()
            assert captured.out == "" and "torus must be true or false" in captured.err

    @pytest.mark.parametrize("seed", [[-1, 0], [1.5, 0], [0, 2 ** 64], [True, 0], [1, "2"],
                                      [0, 1, 2]],
                             ids=["negative", "float", "too-large", "bool", "string", "three"])
    def test_seed_that_is_not_a_philox_key_is_domain_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "10", "--out", str(cfg)) == EXIT_OK
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seed": seed}))
        assert run("build", str(cfg), "delaunay") == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "replicate seed must be two integers" in captured.err

    def test_negative_int_seed_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "10", "--out", str(cfg)) == EXIT_OK
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seed": -1}))
        assert run("build", str(cfg), "delaunay") == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be null, an integer s >= 0" in captured.err

    def test_philox_key_seed_builds(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "10", "--out", str(cfg)) == EXIT_OK
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seed": [0, 2 ** 64 - 1]}))
        assert run("build", str(cfg), "delaunay", "--out", str(tmp_path / "n.json")) == EXIT_OK

    @pytest.mark.parametrize("net,flag", [("theta", "--m"),
                                          ("grid_freeway", "--t")])
    def test_missing_builder_flag_is_usage_error(self, tmp_path, capsys, net, flag):
        cfg = tmp_path / "cfg.json"
        run("generate", "poisson", "--window", "12", "--seed", "1",
            "--out", str(cfg))
        assert run("build", str(cfg), net) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_cone_directions_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "5", "--seed", "1", "--torus",
                   "--out", str(cfg)) == EXIT_OK
        assert run("build", str(cfg), "cone", "--k", "4", "--directions", "0,2") == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["params"] == {"k": 4, "directions": [0, 2]}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2df9b128ac1cdde8f614d91ea590b2deae6f4ce8720a64f481a538434d4b22d2")

    def test_build_all_kinds(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        run("generate", "poisson", "--window", "12", "--seed", "1",
            "--out", str(cfg))
        for args in (["delaunay"], ["yao", "--m", "8"], ["cone", "--k", "3"],
                     ["grid_freeway", "--t", "1", "--variant", "N2"]):
            assert run("build", str(cfg), *args,
                       "--out", str(tmp_path / "n.json")) == EXIT_OK


class TestBadWindow:
    """A window that is not four numbers, or whose bounds are not finite or
    not x0 < x1, y0 < y1, is a domain error wherever it enters: a --window
    flag, a configuration file or a network file."""

    MESSAGE = "window must be finite, with x0 < x1 and y0 < y1"
    BOUNDS = [[0, 0, 10, float("nan")], [10, 10, 0, 0], [0, 0, 0, 10],
              [0, 0, float("inf"), 10], [float("-inf"), 0, 10, 10]]
    NOT_FOUR = "window must be four numbers x0, y0, x1, y1"
    MALFORMED = [[0, 0, 10], [0, 0, "10", 10], [0, 0, 10, True], 10]

    @pytest.mark.parametrize("spec", ["5,0,0,5", "0,0,5,nan", "0,0,inf,5", "nan", "inf",
                                      "0", "-3"])
    @pytest.mark.parametrize("argv", [("generate", "poisson"), ("generate", "square"),
                                      ("experiment", "empirical_lm", "--m", "6")])
    def test_window_flag(self, capsys, argv, spec):
        assert run(*argv, f"--window={spec}") == EXIT_DOMAIN
        assert self.MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", BOUNDS)
    @pytest.mark.parametrize("flags", [(), ("--lines", "200"), ("--stretch", "steiner")])
    def test_network_file(self, tmp_path, capsys, bounds, flags):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"window": bounds, "cities": [[1, 1], [2, 2], [3, 1]],
                                   "segments": [[1, 1, 2, 2], [2, 2, 3, 1]]}))
        assert run("measure", str(net), *flags) == EXIT_DOMAIN
        assert self.MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_config_file(self, tmp_path, capsys, bounds):
        cfg = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "10", "--out", str(cfg)) == EXIT_OK
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "window": bounds}))
        assert run("build", str(cfg), "delaunay") == EXIT_DOMAIN
        assert self.MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", MALFORMED, ids=["three", "string", "bool", "scalar"])
    def test_malformed_window_in_files(self, tmp_path, capsys, bounds):
        net, cfg = tmp_path / "net.json", tmp_path / "cfg.json"
        net.write_text(json.dumps({"window": bounds, "cities": [[1, 1], [2, 2], [3, 1]],
                                   "segments": [[1, 1, 2, 2], [2, 2, 3, 1]]}))
        assert run("generate", "poisson", "--window", "10", "--out", str(cfg)) == EXIT_OK
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "window": bounds}))
        for argv in (("measure", str(net), "--stretch", "steiner"),
                     ("build", str(cfg), "delaunay")):
            assert run(*argv) == EXIT_DOMAIN
            assert self.NOT_FOUR in capsys.readouterr().err


class TestBounds:
    def test_table_contains_reference_value(self, capsys):
        assert run("bounds", "--table") == EXIT_OK
        out = capsys.readouterr().out
        assert "3.3953" in out
        assert out.splitlines()[0].endswith("schema_version")

    def test_psi_star_domain_error(self, capsys):
        assert run("bounds", "--psi-star", "2.5") == EXIT_DOMAIN
        assert "(1, 2)" in capsys.readouterr().err.replace("1 < s < 2", "(1, 2)")

    def test_lm_lk_rows(self, capsys):
        assert run("bounds", "--lm", "6", "--lk", "4") == EXIT_OK
        rows = capsys.readouterr().out.strip().split("\n")
        values = {r.split(",")[0]: float(r.split(",")[2]) for r in rows[1:]}
        assert values["theta_mean_length"] == pytest.approx(
            analytic.theta_mean_length(6), rel=1e-12)
        assert values["cone_Lk"] == pytest.approx(analytic.cone_Lk(4),
                                                  rel=1e-12)

    def test_prop38_rows(self, capsys):
        assert run("bounds", "--prop38", "0.001") == EXIT_OK
        out = capsys.readouterr().out
        assert "prop38_lower_bound" in out

    def test_no_selection_is_usage_error(self, capsys):
        assert run("bounds") == EXIT_USAGE
        assert "pick one of" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,expected", [
        (("--table",),
         'name,param,value,tag,schema_version\n'
         'steiner_constant_worst_lower,"{}",0.93060485910209956,hexagonal-steiner-ratio,1\n'
         'steiner_constant_worst_upper,"{}",0.995,chung-graham-bound,1\n'
         'delaunay_stretch,"{}",2.4183991523122903,delaunay-spanner-bound,1\n'
         'delaunay_length,"{}",3.3953054526271007,delaunay-mean-length,1\n'
         'graph_spanner_exponent_worst,"{}",4,mst-based-spanner,1\n'
         'line_pattern_exponent_worst,"{}",1.25,line-pattern-upper,1\n'
         'theta_graph_exponent_ave,"{}",1.5,theta-graph-upper,1\n'
         'cone_road_exponent_ave,"{}",0.75,cone-road-upper,1\n'
         'cone_road_prefactor_ave,"{}",4.6823870514926798,cone-road-upper,1\n'
         'lower_bound_exponent_ave,"{}",0.375,crossing-rate-lower,1\n'),
        (("--lm", "6", "--lk", "4", "--psi-star", "1.5", "--prop38", "0.001"),
         "name,param,value,schema_version\n"
         "psi_star,1.5,19.656870211505279,1\n"
         "prop38_lower_bound,0.001,1.6013599315962772,1\n"
         "prop38_best_h,0.001,2.9649939362790545,1\n"
         "prop38_best_L,0.001,0.091251097228687503,1\n"
         "theta_mean_length,6,5.642076473677232,1\n"
         "cone_Lk,4,2.1514857208105207,1\n"),
    ], ids=["table", "options"])
    def test_bytes(self, capsys, argv, expected):
        assert run("bounds", *argv) == EXIT_OK
        _assert_pinned_csv(capsys.readouterr().out, expected)


class TestExperiment:
    def test_crossing_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("experiment", "crossing", "--h", "1", "--L", "1",
                   "--replicates", "100", "--seed", "2",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "estimator,params,mean,se,n,seed,schema_version"
        assert lines[1].startswith("crossing_N,")
        assert lines[2].startswith("crossing_N2,")

    @pytest.mark.parametrize("argv,expected", [
        (("crossing", "--h", "1", "--L", "1", "--replicates", "50"),
         "estimator,params,mean,se,n,seed,schema_version\n"
         "crossing_N,\"{'L': 1.0, 'W': 40.0, 'h': 1.0}\",1.8600000000000001,"
         "0.27106742891835628,50,0,1\n"
         "crossing_N2,\"{'L': 1.0, 'W': 40.0, 'h': 1.0}\",7.0599999999999996,"
         "1.7053122282791402,50,0,1\n"),
        (("empirical_lk", "--k", "4", "--window", "10", "--replicates", "2"),
         "estimator,params,mean,se,n,seed,schema_version\n"
         "empirical_Lk,\"{'direction': 0, 'k': 4, 'window': 100.0}\","
         "2.1204017173934657,0.057405843386797661,2,0,1\n"),
    ], ids=["crossing", "empirical_lk"])
    def test_bytes(self, capsys, argv, expected):
        assert run("experiment", *argv) == EXIT_OK
        _assert_pinned_csv(capsys.readouterr().out, expected)

    @pytest.mark.parametrize("argv,digest", [
        # the README example
        (("--h", "2", "--L", "0.5", "--replicates", "2000", "--seed", "3"),
         "e9c4a1f3b99274d4d8df2f2436d4c6280bd29e2651f287a10010318d135c2a72"),
        # large h: each replicate is a chunk of its own
        (("--h", "12", "--L", "1", "--replicates", "20"),
         "34c5822bc6f6a28b3ebb8356b87d392f33d068f2ce4b243d61e24bbc9a787060"),
    ], ids=["readme", "large_h"])
    def test_crossing_digest(self, capsys, argv, digest):
        assert run("experiment", "crossing", *argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [("--h", "1", "--L", "nan"),
                                       ("--h", "nan", "--L", "1")])
    def test_crossing_non_finite_is_domain_error(self, capsys, flags):
        assert run("experiment", "crossing", *flags) == EXIT_DOMAIN
        assert "positive and finite" in capsys.readouterr().err

    def test_crossing_ignores_window(self, capsys):
        # crossing uses its own strip, so a window it could not parse is no error
        flags = ("crossing", "--h", "1", "--L", "1", "--replicates", "50")
        assert run("experiment", *flags) == EXIT_OK
        plain = capsys.readouterr().out
        assert run("experiment", *flags, "--window", "1,2") == EXIT_OK
        assert capsys.readouterr().out == plain
        assert run("experiment", "empirical_lm", "--m", "6", "--window", "1,2") == EXIT_DOMAIN
        assert "window must be SIDE or X0,Y0,X1,Y1" in capsys.readouterr().err

    def test_psi_ave_upper_bytes(self, capsys):
        assert run("experiment", "psi_ave_upper", "--net", "theta", "--m", "6",
                   "--window", "10", "--replicates", "1") == EXIT_OK
        captured = capsys.readouterr()
        _assert_pinned_csv(captured.out, (
            "estimator,params,mean,se,n,seed,schema_version\n"
            "psi_ave_upper[theta],\"{'m': 6, 'mode': 'steiner', 'window': 100.0}\","
            "5.4790690649915055,nan,1,0,1\n"))
        assert captured.err == "max stretch 1.3585541245527508 over 4851 pairs\n"

    def test_single_replicate_se_is_nan(self, capsys):
        # one replicate gives no spread to estimate, not a spread of zero
        assert run("experiment", "empirical_lm", "--m", "6", "--window", "10",
                   "--replicates", "1") == EXIT_OK
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (row["se"], row["n"]) == ("nan", "1")

    def test_missing_params_usage_error(self):
        assert run("experiment", "crossing", "--h", "1") == EXIT_USAGE
        assert run("experiment", "empirical_lm") == EXIT_USAGE
        assert run("experiment", "empirical_lk") == EXIT_USAGE
        assert run("experiment", "psi_ave_upper") == EXIT_USAGE

    @pytest.mark.parametrize("replicates", ["0", "-1"])
    @pytest.mark.parametrize("name,flags", [("crossing", ("--h", "1", "--L", "1")),
                                            ("empirical_lm", ("--m", "6"))])
    def test_non_positive_replicates_usage_error(self, capsys, name, flags,
                                                 replicates):
        assert run("experiment", name, *flags,
                   "--replicates", replicates) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--replicates: must be a positive integer" in err

    def test_empirical_lm_run(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("experiment", "empirical_lm", "--m", "6",
                   "--window", "10", "--replicates", "3", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
        row = out.read_text().strip().split("\n")[1]
        assert row.startswith("empirical_Lm,")

    def test_missing_builder_flag_is_usage_error(self, capsys):
        assert run("experiment", "psi_ave_upper", "--net", "cone") == EXIT_USAGE
        assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("generate", "uniform", "--window", "10"),
                                  ("bounds",),
                                  ("experiment", "crossing", "--h", "1"),
                                  ("experiment", "psi_ave_upper", "--net", "cone")])
def test_usage_error_prints_the_subcommand_usage(capsys, argv):
    assert run(*argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage: spanlab {argv[0]} ")


@pytest.mark.parametrize("argv", [("experiment", "empirical_lk", "--k", "2",
                                   "--directions", "1"),
                                  ("generate", "poisson", "--bogus"),
                                  ("bounds", "--lm", "6", "extra"),
                                  ("repro", "run.json", "--bogus")])
def test_unrecognized_argument_prints_the_subcommand_usage(capsys, argv):
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage: spanlab {argv[0]} ")
    assert f"spanlab {argv[0]}: error: unrecognized arguments: " in err


def test_unrecognized_top_level_flag_prints_the_top_level_usage(capsys):
    assert run("--bogus", "generate", "poisson") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: spanlab [-h] ")
    assert "spanlab: error: unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("argv", [("generate", "poisson", "--window", "5"),
                                  ("measure", "net.json", "--stretch", "steiner"),
                                  ("experiment", "crossing", "--h", "1", "--L", "1")],
                         ids=["generate", "measure", "experiment"])
def test_negative_seed_usage_error(capsys, argv):
    assert run(*argv, "--seed", "-1") == EXIT_USAGE
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv,lines,digest", [
    ((), 15, "8ea5870bd50812a668fbe40c11d9ce196c60f34213c729576cac934c815fa073"),
    (("generate",), 17, "4a9e17a4e758afbd327280f1a75c54fbe0b79419ca8d9ec716a1f346a0afd819"),
    (("build",), 20, "bc88e3c07eacf1b9c4b8be8af76b73720d9c18d35541feb016077fe6065e6973"),
    (("measure",), 18, "172bd0f578171776dab2600b04350333190e9284c975bd0906193c5aa14529f2"),
    (("bounds",), 12, "a88f7d40ff760fe6147300853ed712fcfd30dea6eeddc70933348dab9b3a0b5f"),
    (("experiment",), 26, "0b6af93aef0574fa110bfa71e848f12a74bea81abac4067c7786f4d1909cba53"),
    (("repro",), 7, "91a1ad79c1c66951bc20b2e506ed7c755994c538530dcb49495640632cd1fee4"),
], ids=["top", "generate", "build", "measure", "bounds", "experiment", "repro"])
def test_help_text_is_pinned(capsys, monkeypatch, argv, lines, digest):
    # argparse wraps to $COLUMNS; the digests are of Python 3.11's argparse
    # output at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    assert run(*argv, "--help") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRepro:
    def test_replays_identical_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        runfile = tmp_path / "run.json"
        run("generate", "poisson", "--window", "10", "--seed", "11",
            "--out", str(cfg), "--save-run", str(runfile))
        first = cfg.read_text()
        cfg.unlink()
        assert run("repro", str(runfile)) == EXIT_OK
        assert cfg.read_text() == first

    def test_refuses_recursive_repro(self, tmp_path):
        runfile = tmp_path / "run.json"
        runfile.write_text(json.dumps({"schema_version": 1,
                                       "argv": ["repro", str(runfile)]}))
        assert run("repro", str(runfile)) == EXIT_DOMAIN

    def test_missing_run_file(self, tmp_path):
        assert run("repro", str(tmp_path / "none.json")) == EXIT_IO

    @pytest.mark.parametrize("argv", [5, ["bounds", 5], "bounds --table", None,
                                      {"0": "bounds"}],
                             ids=["number", "number-in-list", "string", "null", "object"])
    def test_argv_that_is_not_a_list_of_strings_is_domain_error(self, tmp_path, capsys,
                                                                argv):
        runfile = tmp_path / "run.json"
        runfile.write_text(json.dumps({"schema_version": 1, "argv": argv}))
        assert run("repro", str(runfile)) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "argv must be a list of strings" in captured.err

    def test_run_file_without_argv_is_io_error(self, tmp_path):
        runfile = tmp_path / "run.json"
        runfile.write_text(json.dumps({"schema_version": 1}))
        assert run("repro", str(runfile)) == EXIT_IO


class TestHugeIntegers:
    """An integer too large for a float is a domain error wherever it enters:
    a flag or a number in a configuration or network file."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("argv", [("bounds", "--lm"), ("bounds", "--lk"),
                                      ("experiment", "empirical_lm", "--m"),
                                      ("experiment", "empirical_lk", "--k")],
                             ids=["lm", "lk", "empirical_lm", "empirical_lk"])
    def test_flag(self, capsys, argv):
        assert run(*argv, self.BIG) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "error: int too large to convert to float" in captured.err

    @pytest.mark.parametrize("window,points", [(f"[0, 0, {BIG}, 10]", "[[1, 1]]"),
                                               ("[0, 0, 10, 10]", f"[[{BIG}, 1]]")],
                             ids=["window", "points"])
    def test_config_file(self, tmp_path, capsys, window, points):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"window": {window}, "torus": false, "points": {points}}}')
        assert run("build", str(cfg), "delaunay") == EXIT_DOMAIN
        assert "error: int too large to convert to float" in capsys.readouterr().err

    def test_network_file(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text('{"window": [0, 0, 5, 5], "cities": [[1, 1], [2, 2]], '
                       f'"segments": [[1, 1, {self.BIG}, 2]]}}')
        assert run("measure", str(net)) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "error: int too large to convert to float" in captured.err


class TestJsonRecords:
    """Every JSON record puts schema_version first and loads with json.loads."""

    @staticmethod
    def _versioned(text):
        doc = json.loads(text)
        assert list(doc)[0] == "schema_version" and doc["schema_version"] == 1
        return doc

    def test_files(self, tmp_path):
        cfg, net, saved = tmp_path / "cfg.json", tmp_path / "net.json", tmp_path / "run.json"
        assert run("generate", "poisson", "--window", "6", "--out", str(cfg)) == EXIT_OK
        assert run("build", str(cfg), "theta", "--m", "6", "--out", str(net),
                   "--save-run", str(saved)) == EXIT_OK
        assert self._versioned(cfg.read_text())["kind"] == "poisson"
        assert self._versioned(net.read_text())["kind"] == "theta"
        assert self._versioned(saved.read_text())["argv"][:2] == ["build", str(cfg)]

    def test_run_file_bytes(self, tmp_path, monkeypatch, capsys):
        # "-" names a file here, not stdout, and the file ends without a newline
        monkeypatch.chdir(tmp_path)
        assert run("bounds", "--lk", "4", "--save-run", "-") == EXIT_OK
        assert capsys.readouterr().out.startswith("name,param,value,schema_version\n")
        assert (tmp_path / "-").read_text() == (
            '{"schema_version": 1, "argv": ["bounds", "--lk", "4", "--save-run", "-"]}')

    def test_stretch_report_with_infinite_ratio(self):
        # two components: a disconnected pair has ratio inf, written as Infinity
        cfg = PointConfig([[1, 1], [2, 2], [8, 8], [9, 9]], Window.square(10))
        net = nets.Network(cfg, [[1, 1, 2, 2], [8, 8, 9, 9]], "custom")
        rep = metrics.stretch(net, pair_filter="all")
        doc = self._versioned(rep.to_json())
        assert doc["max_ratio"] == math.inf
        assert {**doc, "argmax_pair": tuple(doc["argmax_pair"])} == {
            "schema_version": 1, **rep.__dict__}

    def test_experiment_result_with_nan_se(self):
        # one replicate: se is nan, written as NaN
        result = mc.empirical_Lm(6, Window.square(10), replicates=1, master_seed=0)
        doc = self._versioned(result.to_json())
        assert math.isnan(doc["se"]) and doc["n"] == 1
        assert doc["replicate_values"] == [result.mean] and doc["estimator"] == "empirical_Lm"


@pytest.mark.parametrize("doc", [[1, 2], "text", None], ids=["list", "string", "null"])
@pytest.mark.parametrize("command", ["build", "measure", "repro"])
def test_json_that_is_not_an_object_is_domain_error(tmp_path, capsys, command, doc):
    # the file is read as a config (build), network (measure) or run file (repro)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = (command, str(path), "delaunay") if command == "build" else (command, str(path))
    assert run(*argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and "must hold a JSON object" in captured.err


@pytest.mark.parametrize("params", [[], "text", 3])
def test_params_that_are_not_an_object_are_a_domain_error(tmp_path, capsys, params):
    # a torus network file reaches nets.unwrap, a lattice config lattice_edges
    cfg, net = tmp_path / "cfg.json", tmp_path / "net.json"
    assert run("generate", "square", "--window", "3", "--out", str(cfg)) == EXIT_OK
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "params": params}))
    net.write_text(json.dumps({"window": [0, 0, 10, 10], "torus": True, "params": params,
                               "cities": [[1, 1], [2, 2]], "segments": [[1, 1, 2, 2]]}))
    for argv in (("build", str(cfg), "lattice"), ("measure", str(net))):
        assert run(*argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "params must be a JSON object" in captured.err


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_non_finite_grid_spacing_is_a_domain_error(tmp_path, capsys, t):
    cfg = tmp_path / "cfg.json"
    assert run("generate", "poisson", "--window", "6", "--out", str(cfg)) == EXIT_OK
    assert run("build", str(cfg), "grid_freeway", "--t", t) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and "cell spacing t must be finite" in captured.err


def test_too_fine_grid_spacing_is_a_domain_error(tmp_path, capsys):
    # refused before any line is built: an uncapped build allocates until killed
    cfg = tmp_path / "cfg.json"
    assert run("generate", "poisson", "--window", "6", "--out", str(cfg)) == EXIT_OK
    assert run("build", str(cfg), "grid_freeway", "--t", "1e-300") == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and "6e+300 grid lines per axis, more than 4096" in captured.err


def test_segment_whose_length_overflows_is_a_domain_error(tmp_path):
    # a fresh interpreter, so that a numpy RuntimeWarning reaches stderr rather
    # than this suite's error filter
    net = tmp_path / "net.json"
    net.write_text('{"window": [0, 0, 5, 5], "cities": [[1, 1], [2, 2]], '
                   '"segments": [[1, 1, 1.7e308, 1.7e308]]}')
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "spanlab.cli", "measure", str(net),
                           "--stretch", "steiner"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == EXIT_DOMAIN
    assert done.stdout == ""
    assert done.stderr == "error: segments must be finite and nondegenerate\n"


def test_oversized_crossing_strip_is_a_domain_error():
    # a fresh interpreter, so that a traceback would reach stderr; the strip
    # would hold 8e13 points a replicate, a request that fails at once
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "spanlab.cli", "experiment", "crossing",
                           "--h", "1e6", "--L", "1", "--replicates", "1"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_DOMAIN
    assert done.stdout == ""
    assert done.stderr == ("error: a strip of h = 1000000.0, L = 1.0 expects 8e+13 points"
                           " a replicate, more than 16777216\n")


def test_import_loads_no_scipy_integrate_or_optimize():
    # a fresh interpreter, as this one holds scipy.integrate for the test oracles;
    # spanlab.cli imports every spanlab module
    code = ("import sys, spanlab.cli; print([m for m in ('scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_crossing_and_closed_forms_load_no_geometry_stack():
    # a fresh interpreter: configs, the closed forms, the crossing model and
    # grid-freeway length load neither scipy.sparse nor scipy.spatial; a
    # Delaunay stretch then loads both, so the first check is not vacuous
    code = textwrap.dedent("""\
        import sys, spanlab.cli
        from spanlab import analytic, configs, mc, metrics, nets
        cfg = configs.poisson(configs.Window.square(10), seed=0)
        for f, x in ((analytic.s_m_bound, 6), (analytic.theta_mean_length, 6),
                     (analytic.cone_Lk, 4), (analytic.psi_star, 1.5),
                     (analytic.prop38_lower_bound, 0.01)):
            f(x)
        analytic.second_moment_upper(1.0, 1.0)
        mc.crossing_experiment(1, 1, replicates=50)
        metrics.normalized_length(nets.grid_freeway(cfg, 2.0))
        geometry = ("scipy.sparse", "scipy.spatial")
        print([m for m in geometry if m in sys.modules])
        metrics.stretch(nets.delaunay(cfg))
        print([m for m in geometry if m in sys.modules])
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines() == ["[]", "['scipy.sparse', 'scipy.spatial']"]
    for argv in (["bounds", "--table"],
                 ["experiment", "crossing", "--h", "1", "--L", "1", "--replicates", "50"]):
        done = subprocess.run([sys.executable, "-m", "spanlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
