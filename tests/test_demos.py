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
