"""Smoke tests for the narrated scripts in demos/."""

import importlib.util
from pathlib import Path

import pytest

from spanlab import analytic

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crossing_moments_table(capsys):
    _load("crossing_moments").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["h", "L", "mean", "N", "2h^3L", "mean", "N^2",
                                "bound"]
    rows = [[float(v) for v in line.split() if v != "+-"] for line in lines[1:5]]
    assert [(r[0], r[1]) for r in rows] == [
        (1.0, 1.0), (2.0, 0.5), (1.5, 1.0), (0.8, 1.4)]
    for h, L, mean, err, exact, mean2, err2, bound in rows:
        assert exact == pytest.approx(2 * h ** 3 * L, abs=5e-4)
        assert bound == pytest.approx(analytic.second_moment_upper(h, L),
                                      abs=5e-4)
        assert abs(mean - exact) <= err  # err is printed as 3 SE
        assert mean2 <= bound + err2
    assert lines[5] == ""


def test_measure_delaunay_acceptance_scale(capsys):
    """Seed 0 on the 40x40 torus: the whole pipeline at acceptance scale."""
    _load("measure_delaunay").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["cities", "1597"]
    assert lines[1].split()[2] == "3.3983"
    assert lines[2].split()[2] == "1.3758"
    assert lines[3].split(maxsplit=2)[2] == "(695, 144)"
    # every city of the torus is scored, by its minimal-image distance
    assert lines[4] == "stretch percentiles     p50=1.0571 p90=1.0847 p99=1.1356"


def test_tradeoff_curve_table(capsys):
    _load("tradeoff_curve").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["s", "lower", "bound", "cone", "upper", "line", "optimum"]
    rows = [[float(v) for v in line.split()] for line in lines[1:7]]
    assert [r[0] for r in rows] == [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2]
    for s, lower, upper, line in rows:
        assert lower == pytest.approx(analytic.prop38_lower_bound(s)[0], abs=5e-5)
        assert line == pytest.approx(analytic.psi_star(1.0 + s), rel=1e-8, abs=5e-5)
        assert 0 < lower < upper < line
    assert lines[7] == "" and lines[8] == "scaled by s^(3/8):"
    assert len(lines) == 12
