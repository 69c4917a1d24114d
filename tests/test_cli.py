"""Tests for the command-line interface."""

import json

import pytest

from spanlab import analytic
from spanlab.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_poisson_config_file(self, tmp_path):
        out = tmp_path / "cfg.json"
        assert run("generate", "poisson", "--window", "10", "--seed", "3",
                   "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "poisson"
        assert doc["window"] == [0, 0, 10, 10]

    def test_uniform_needs_n(self, tmp_path):
        assert run("generate", "uniform", "--window", "10",
                   "--out", str(tmp_path / "x.json")) == EXIT_DOMAIN

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

    @pytest.mark.parametrize("net,flag", [("theta", "--m"),
                                          ("grid_freeway", "--t")])
    def test_missing_builder_flag_is_usage_error(self, tmp_path, capsys, net, flag):
        cfg = tmp_path / "cfg.json"
        run("generate", "poisson", "--window", "12", "--seed", "1",
            "--out", str(cfg))
        assert run("build", str(cfg), net) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_build_all_kinds(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        run("generate", "poisson", "--window", "12", "--seed", "1",
            "--out", str(cfg))
        for args in (["delaunay"], ["yao", "--m", "8"], ["cone", "--k", "3"],
                     ["grid_freeway", "--t", "1", "--variant", "N2"]):
            assert run("build", str(cfg), *args,
                       "--out", str(tmp_path / "n.json")) == EXIT_OK


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

    def test_no_selection_is_domain_error(self, capsys):
        assert run("bounds") == EXIT_DOMAIN
        capsys.readouterr()


class TestExperiment:
    def test_crossing_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("experiment", "crossing", "--h", "1", "--L", "1",
                   "--replicates", "100", "--seed", "2",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "estimator,params,mean,se,n,seed"
        assert lines[1].startswith("crossing_N,")
        assert lines[2].startswith("crossing_N2,")

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
